// Shard ablation (DESIGN.md §15, EXPERIMENTS.md A11): what does the
// shard-routed scale-out layer buy under write contention, and does the
// per-shard reclamation isolation hold when the load is skewed onto one
// shard?
//
// Four arms, all the same lo-avl tree behind ShardedMap at shards ∈
// {1, 2, 4, 8}. shards=1 is the overhead floor — identical router + merge
// code with no partitioning win — so the spread between the x1 and x8
// columns is the layer's net effect, not sharding-vs-bare-tree noise.
//
// Each arm runs three workloads over the contended 20k range:
//   50C-25I-25R uniform      — the paper's update-heavy mix; this is the
//                              cell the acceptance ratio is read from
//                              (x8 >= 1.5x x1 median at max threads);
//   50C-25I-25R zipf0.99     — Zipf ranks key 0 hottest and the router
//                              stripes 64-key blocks, so the hot set lands
//                              almost entirely on shard 0: the per-shard
//                              isolation configuration (ROADMAP 2(c));
//   40C-25I-25R-10S          — 10% merged range scans riding on the same
//                              churn, pricing the k-way merge (k pinned
//                              epochs per scan) as k grows.
//
// After the table sweep, a per-shard diagnostic trial at max threads
// prints router + domain odometers for the x8 uniform and zipf cells: in
// the zipf arm the cold shards' contention events must stay near zero
// while shard 0 absorbs the pressure — that isolation is the claim this
// ablation exists to price, and it is only visible at shard granularity,
// not in the aggregate obs column.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "lo/avl.hpp"
#include "obs/obs.hpp"
#include "shard/sharded_map.hpp"
#include "util/cli.hpp"

namespace {

using K = std::int64_t;
using Avl = lot::lo::AvlMap<K, K>;

template <unsigned N>
using Sharded = lot::shard::ShardedMap<Avl, N>;

/// One trial (not a timed series) at max threads, keeping the map alive
/// afterwards so the per-shard router and domain odometers can be read —
/// run_series destroys its maps per repeat, so the shard-granular numbers
/// cannot come from the table sweep.
template <unsigned N>
void per_shard_diagnostic(const lot::workload::Spec& spec,
                          const lot::bench::TableConfig& cfg) {
  const auto threads = static_cast<unsigned>(cfg.threads.back());
  Sharded<N> map;
  lot::workload::prefill(map, spec, threads, cfg.seed);
  lot::workload::run_trial(map, spec, threads, cfg.secs, cfg.seed + 1);
  std::printf("  per-shard odometers | %s | x%u | %u threads:\n",
              spec.name.c_str(), N, threads);
  for (std::size_t i = 0; i < N; ++i) {
    const auto rs = map.shard_stats(i);
    const auto ds = map.shard_domain(i).stats();
    std::printf("    shard %zu: point_ops=%-9llu ordered_ops=%-6llu "
                "contention_events=%-7llu backlog_peak=%zu\n",
                i, static_cast<unsigned long long>(rs.point_ops),
                static_cast<unsigned long long>(rs.ordered_ops),
                static_cast<unsigned long long>(ds.contention_events),
                ds.backlog_peak);
  }
}

}  // namespace

int main(int argc, char** argv) {
  lot::util::Cli cli(argc, argv);
  auto cfg = lot::bench::TableConfig::from_cli(cli);
  if (!cli.has("threads") && !cli.has("paper")) cfg.threads = {1, 4, 8};
  // One contended range: the layer exists for write contention, and the
  // 20k cell is where a single tree's interval locks actually collide.
  if (!cli.has("ranges") && !cli.has("paper")) cfg.key_ranges = {20'000};
  // The router stats and per-domain odometers are the experiment's
  // subject, not an optional column.
  cfg.obs = true;
  lot::bench::JsonReport report;

  for (const auto range : cfg.key_ranges) {
    const auto uniform =
        lot::workload::make_spec(lot::workload::Mix::k50C25I25R, range);
    auto zipf = uniform;
    zipf.zipf_s = 0.99;
    zipf.name += "-zipf0.99";
    // Scan-mixed arm: carve the scan share out of contains so the update
    // pressure (and therefore the contention being sharded away) matches
    // the other two workloads.
    auto scans = uniform;
    scans.contains_pct = 40;
    scans.scan_pct = 10;
    scans.scan_len = 64;
    scans.name = "40C-25I-25R-10S";
    for (const auto& spec : {uniform, zipf, scans}) {
      lot::bench::print_cell_header("Shard ablation", spec);
      std::vector<std::pair<std::string, lot::bench::Series>> series;
      series.emplace_back("lo-avl-x1",
                          lot::bench::run_series<Sharded<1>>(spec, cfg));
      series.emplace_back("lo-avl-x2",
                          lot::bench::run_series<Sharded<2>>(spec, cfg));
      series.emplace_back("lo-avl-x4",
                          lot::bench::run_series<Sharded<4>>(spec, cfg));
      series.emplace_back("lo-avl-x8",
                          lot::bench::run_series<Sharded<8>>(spec, cfg));
      lot::bench::print_series_table(cfg.threads, series);
      for (const auto& [name, cells] : series) {
        report.add("ablation_shard", spec, cfg, name, cells);
      }
    }

    std::printf("\n=== Shard ablation | per-shard isolation diagnostic "
                "(x8, key range %lld) ===\n",
                static_cast<long long>(range));
    per_shard_diagnostic<8>(uniform, cfg);
    per_shard_diagnostic<8>(zipf, cfg);
  }
  lot::bench::maybe_write_json(cli, report);
  return 0;
}
