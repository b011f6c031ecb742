// Governor ablation (DESIGN.md §14, EXPERIMENTS.md A10): what does the
// overload governor cost when nothing is wrong, and what does it change
// when something is?
//
// Two arms on the identical lo-avl tree, toggled at runtime so both come
// from one binary (set_policies_enabled, exactly the negative-control knob
// the storm stress uses):
//   lo-avl-governed   — governor policies on (this PR's default)
//   lo-avl-ungoverned — policies off: the state machine still samples and
//                       publishes (obs parity), but no admission backoff,
//                       no shedding, no drain boost ever engages
//
// Each arm runs two weathers:
//   calm        — fault injection disarmed. The governed-vs-ungoverned
//                 delta here IS the fault-free overhead (acceptance:
//                 <= 3% on the contended 20k cell), and it prices the
//                 whole residency: TLS stride countdown, clock-gated
//                 timed_sample, one relaxed state load per write op.
//   stallstorm  — seeded guard-stall injection (reader + writer sites) at
//                 a steady plateau: pins stretch, epoch advance starves,
//                 the stall watchdog and backlog thresholds trip. Here the
//                 governed arm is *expected* to shape throughput (backoff
//                 sheds writers; the drain boost buys reclamation) — the
//                 row pair documents what degradation-by-design costs
//                 against degradation-by-accident.
//
// This binary compiles with LOT_FAULT_INJECT=1 (bench/CMakeLists.txt) so
// the stall sites exist; calm rows run with injection disabled, which is
// the same branch-not-taken the production build pays nothing for.
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "health/health.hpp"
#include "inject/inject.hpp"
#include "lo/avl.hpp"
#include "util/cli.hpp"

namespace {

using K = std::int64_t;
using Avl = lot::lo::AvlMap<K, K>;
namespace inject = lot::inject;

struct Arm {
  const char* name;
  bool governed;
};

constexpr Arm kArms[] = {
    {"lo-avl-governed", true},
    {"lo-avl-ungoverned", false},
};

struct Weather {
  const char* suffix;         // appended to the workload name ("" = calm)
  std::uint32_t stall_permille;  // per-site guard-stall rate
  std::uint32_t stall_max_us;
};

constexpr Weather kWeathers[] = {
    {"", 0, 0},
    {"-stallstorm", 30, 100},
};

void set_weather(const Weather& w, std::uint64_t seed) {
  if (w.stall_permille == 0) {
    inject::enable_injection(false);
    return;
  }
  inject::set_seed(seed);
  inject::set_stall_max_us(w.stall_max_us);
  inject::set_site_rate(inject::Site::kGuardStallReader, w.stall_permille);
  inject::set_site_rate(inject::Site::kGuardStallWriter, w.stall_permille);
  inject::enable_injection(true);
}

}  // namespace

int main(int argc, char** argv) {
  lot::util::Cli cli(argc, argv);
  auto cfg = lot::bench::TableConfig::from_cli(cli);
  if (!cli.has("threads") && !cli.has("paper")) cfg.threads = {1, 4, 8};
  if (!cli.has("ranges") && !cli.has("paper")) cfg.key_ranges = {20'000};
  lot::bench::JsonReport report;

  if (!inject::kFaultInject) {
    std::printf("warning: built without LOT_FAULT_INJECT — the stallstorm "
                "rows run in calm weather\n");
  }

  for (const auto range : cfg.key_ranges) {
    const auto base =
        lot::workload::make_spec(lot::workload::Mix::k50C25I25R, range);
    for (const Weather& weather : kWeathers) {
      auto spec = base;
      spec.name += weather.suffix;
      lot::bench::print_cell_header("Governor ablation", spec);
      std::vector<std::pair<std::string, lot::bench::Series>> series;
      for (const Arm& arm : kArms) {
        lot::health::governor().reset();
        lot::health::set_policies_enabled(arm.governed);
        set_weather(weather, cfg.seed);
        series.emplace_back(arm.name,
                            lot::bench::run_series<Avl>(spec, cfg));
        inject::enable_injection(false);
      }
      lot::health::governor().reset();  // also re-enables the policies
      lot::bench::print_series_table(cfg.threads, series);
      if (weather.stall_permille == 0 && series.size() == 2) {
        // The acceptance number, computed in place: governed-vs-ungoverned
        // median delta in calm weather, per thread count.
        std::printf("  fault-free governor overhead (median, + = slower):\n");
        for (std::size_t i = 0; i < cfg.threads.size(); ++i) {
          const double gov = series[0].second[i].median;
          const double ung = series[1].second[i].median;
          const double pct = ung > 0 ? (ung - gov) / ung * 100.0 : 0.0;
          std::printf("%8lld  %+6.2f%%\n",
                      static_cast<long long>(cfg.threads[i]), pct);
        }
      }
      for (const auto& [name, cells] : series) {
        report.add("ablation_storm", spec, cfg, name, cells);
      }
    }
  }
  lot::bench::maybe_write_json(cli, report);
  return 0;
}
