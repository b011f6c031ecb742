// Restart ablation (DESIGN.md §13, EXPERIMENTS.md A9): what does the
// versioned write path buy?
//
// Two arms, both running the identical lo-avl tree with --obs forced on
// so every cell carries the restart/resume/rotation counters:
//   lo-avl-resume      — resume budget 8 (the default configuration)
//   lo-avl-rootrestart — resume budget 0: every failed validation
//                        re-descends from the root
//
// Each arm runs the paper's 4-thread contended mix uniform and Zipf(0.99)
// skewed — the skewed run concentrates writers on adjacent keys, which is
// where failed interval acquisitions actually cluster. The acceptance
// numbers are the resume arm's insert+erase restarts (>= 5x below the
// rootrestart arm's on the 20k 50C-25I-25R cell) with throughput no worse.
#include <cstdint>
#include <functional>
#include <string>

#include "bench/common.hpp"
#include "lo/avl.hpp"
#include "util/cli.hpp"

namespace {

using K = std::int64_t;
using Avl = lot::lo::AvlMap<K, K>;

struct Arm {
  const char* name;
  std::uint32_t resume_limit;
};

constexpr Arm kArms[] = {
    {"lo-avl-resume", 8},
    {"lo-avl-rootrestart", 0},
};

}  // namespace

int main(int argc, char** argv) {
  lot::util::Cli cli(argc, argv);
  auto cfg = lot::bench::TableConfig::from_cli(cli);
  if (!cli.has("threads") && !cli.has("paper")) cfg.threads = {1, 4, 8};
  if (!cli.has("ranges") && !cli.has("paper")) cfg.key_ranges = {20'000};
  // The counters are this experiment's subject, not an optional column.
  cfg.obs = true;
  lot::bench::JsonReport report;

  const auto saved_limit = lot::lo::write_resume_limit();

  for (const auto range : cfg.key_ranges) {
    const auto uniform =
        lot::workload::make_spec(lot::workload::Mix::k50C25I25R, range);
    auto zipf = uniform;
    zipf.zipf_s = 0.99;
    zipf.name += "-zipf0.99";
    for (const auto& spec : {uniform, zipf}) {
      lot::bench::print_cell_header("Restart ablation", spec);
      std::vector<std::pair<std::string, lot::bench::Series>> series;
      for (const Arm& arm : kArms) {
        lot::lo::set_write_resume_limit(arm.resume_limit);
        series.emplace_back(arm.name,
                            lot::bench::run_series<Avl>(spec, cfg));
      }
      lot::lo::set_write_resume_limit(saved_limit);
      lot::bench::print_series_table(cfg.threads, series);
      for (const auto& [name, cells] : series) {
        report.add("ablation_restart", spec, cfg, name, cells);
      }
    }
  }
  lot::bench::maybe_write_json(cli, report);
  return 0;
}
