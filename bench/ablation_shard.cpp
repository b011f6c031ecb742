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
// Pairing: the four arms each prefill one map per (workload, threads)
// cell and take turns on their maps, x1 then x2, x4 and x8, --repeats
// rounds (default 10) with one trial seed per round. Identical x1 code
// spread 4.55-6.06 Mop/s across unpaired runs on a 4-core box, more than
// the arms differ, so every round's x8/x1 ratio compares two trials
// seconds apart, and the table reports the median and quartiles of those
// ratios beside the per-arm medians.
//
// After the table sweep, a per-shard diagnostic trial at max threads
// prints router + domain odometers for the x8 uniform and zipf cells: in
// the zipf arm the cold shards' contention events must stay near zero
// while shard 0 absorbs the pressure — that isolation is the claim this
// ablation exists to price, and it is only visible at shard granularity,
// not in the aggregate throughput.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "lo/avl.hpp"
#include "shard/sharded_map.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

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

/// Runs one (spec, threads) cell: one prefilled map per arm, then
/// `cfg.repeats` rounds of x1, x2, x4 and x8 trials on them with one seed
/// per round. Fills `arms` with the four arms' cells, in that order, and
/// returns the per-round x8/x1 ratios.
std::vector<double> run_paired_cell(const lot::workload::Spec& spec,
                                    const lot::bench::TableConfig& cfg,
                                    unsigned threads,
                                    std::vector<lot::bench::Cell>& arms) {
  Sharded<1> x1;
  Sharded<2> x2;
  Sharded<4> x4;
  Sharded<8> x8;
  lot::workload::prefill(x1, spec, threads, cfg.seed);
  lot::workload::prefill(x2, spec, threads, cfg.seed);
  lot::workload::prefill(x4, spec, threads, cfg.seed);
  lot::workload::prefill(x8, spec, threads, cfg.seed);
  arms.assign(4, lot::bench::Cell{});
  std::vector<double> ratios;
  for (int rep = 0; rep < cfg.repeats; ++rep) {
    const std::uint64_t seed = cfg.seed + 1 + static_cast<std::uint64_t>(rep);
    const auto trial = [&](auto& map) {
      return lot::workload::run_trial(map, spec, threads, cfg.secs, seed)
          .mops_per_sec;
    };
    const double base = trial(x1);
    arms[0].samples.push_back(base);
    arms[1].samples.push_back(trial(x2));
    arms[2].samples.push_back(trial(x4));
    arms[3].samples.push_back(trial(x8));
    ratios.push_back(arms[3].samples.back() / base);
  }
  for (auto& cell : arms) {
    const auto sum = lot::util::summarize(cell.samples);
    cell.median = lot::util::percentile(cell.samples, 50.0);
    cell.min = sum.min;
    cell.max = sum.max;
  }
  return ratios;
}

}  // namespace

int main(int argc, char** argv) {
  lot::util::Cli cli(argc, argv);
  auto cfg = lot::bench::TableConfig::from_cli(cli);
  if (!cli.has("threads") && !cli.has("paper")) cfg.threads = {1, 4, 8};
  // One contended range: the layer exists for write contention, and the
  // 20k cell is where a single tree's interval locks actually collide.
  if (!cli.has("ranges") && !cli.has("paper")) cfg.key_ranges = {20'000};
  if (!cli.has("repeats") && !cli.has("paper")) cfg.repeats = 10;
  lot::bench::JsonReport report;
  const std::vector<std::string> names = {"lo-avl-x1", "lo-avl-x2",
                                          "lo-avl-x4", "lo-avl-x8"};

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
      for (const auto& name : names) {
        series.emplace_back(name, lot::bench::Series{});
      }
      std::vector<std::vector<double>> ratios;
      for (const auto threads : cfg.threads) {
        std::vector<lot::bench::Cell> arms;
        ratios.push_back(run_paired_cell(
            spec, cfg, static_cast<unsigned>(threads), arms));
        for (std::size_t a = 0; a < arms.size(); ++a) {
          series[a].second.push_back(std::move(arms[a]));
        }
      }
      lot::bench::print_series_table(cfg.threads, series);
      std::printf("  x8/x1 per round: median [q1..q3], rounds x8 ahead\n");
      for (std::size_t i = 0; i < cfg.threads.size(); ++i) {
        const auto& r = ratios[i];
        std::size_t ahead = 0;
        for (const double x : r) ahead += x > 1.0 ? 1 : 0;
        std::printf("%8lld  %6.3f [%6.3f..%6.3f]  %zu of %zu\n",
                    static_cast<long long>(cfg.threads[i]),
                    lot::util::percentile(r, 50.0),
                    lot::util::percentile(r, 25.0),
                    lot::util::percentile(r, 75.0), ahead, r.size());
      }
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
