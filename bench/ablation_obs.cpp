// Observability-overhead ablation (DESIGN.md §12, EXPERIMENTS.md A8): what
// does the latency-sampling knob add on top of the always-on counters?
//
// Series:
//   lo-avl            — counters only, no latency sampling
//   lo-avl+sample64   — counters + 1-in-64 latency sampling, the --obs
//                       bench configuration
//
// The counters are always compiled in: compiling them out bought nothing
// above noise (EXPERIMENTS.md A8).
//
// --report additionally dumps a full registry snapshot (text + JSON) after
// the run — the scripts/obs_report.sh surface.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "bench/common.hpp"
#include "lo/avl.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"

namespace {

using K = std::int64_t;
using Avl = lot::lo::AvlMap<K, K>;

}  // namespace

int main(int argc, char** argv) {
  lot::util::Cli cli(argc, argv);
  auto cfg = lot::bench::TableConfig::from_cli(cli);
  if (!cli.has("threads") && !cli.has("paper")) cfg.threads = {1, 4, 8};
  if (!cli.has("ranges") && !cli.has("paper")) cfg.key_ranges = {20'000};
  lot::bench::JsonReport report;

  for (const auto range : cfg.key_ranges) {
    for (const auto mix :
         {lot::workload::Mix::k100C, lot::workload::Mix::k50C25I25R}) {
      const auto spec = lot::workload::make_spec(mix, range);
      lot::bench::print_cell_header("Observability ablation", spec);
      std::vector<std::pair<std::string, lot::bench::Series>> series;
      series.emplace_back("lo-avl", lot::bench::run_series<Avl>(spec, cfg));
      auto sampled_cfg = cfg;
      sampled_cfg.obs = true;  // turns on latency_sample_every
      series.emplace_back("lo-avl+sample64",
                          lot::bench::run_series<Avl>(spec, sampled_cfg));
      lot::bench::print_series_table(cfg.threads, series);
      for (const auto& [name, cells] : series) {
        report.add("ablation_obs", spec, cfg, name, cells);
      }
    }
  }
  lot::bench::maybe_write_json(cli, report);

  if (cli.has("report")) {
    const auto snap = lot::obs::Registry::instance().snapshot();
    std::printf("\n--- registry snapshot (text) ---\n%s",
                snap.to_text().c_str());
    std::printf("\n--- registry snapshot (json) ---\n%s\n",
                snap.to_json().c_str());
  }
  return 0;
}
