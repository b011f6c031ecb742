// MVCC snapshot-scan ablation (DESIGN.md §16, EXPERIMENTS.md A12): what
// does an atomic scan cost?
//
// Scan-consistency mechanisms, scan-heavy mix at scan lengths 16/64/256:
//   lo-avl-lr-weak      — live range(): per-key linearizable, whole scan
//                         torn under churn (the §11 contract)
//   lo-avl-lr-snapshot  — every scan draws map.snapshot() and resolves the
//                         range against that epoch's cut
//   coarse-rwlock       — the classic alternative: one shared_mutex over
//                         the same tree; scans/reads take it shared,
//                         writers exclusive, so scans are atomic because
//                         writers stall
// The comparison prices atomicity two ways: the snapshot pays on the
// reader side (version resolution + cut materialization, writers never
// wait), the rwlock pays on the writer side (every scan stalls every
// writer). Aggregate Mop/s alone can flatter the lock — serialized
// writers also stop contending — so read the table together with the
// mix: the snapshot column's cost lands entirely on the 30% scan share,
// the lock's entirely on the 40% write share.
//
// Pairing: the three arms share one prefilled map per (length, threads)
// cell and take turns on it, weak then snapshot then rwlock, --repeats
// rounds (default 10) with one trial seed per round. Where a node landed
// at prefill and how warm the box is move a 4-thread column more than the
// mechanisms differ, so every round's snapshot/weak ratio compares two
// trials seconds apart on the same tree, and the table reports the
// median and quartiles of those ratios beside the per-arm medians.
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "lo/partial.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

using K = std::int64_t;
using V = std::int64_t;

using PartialAvl = lot::lo::PartialAvlMap<K, V>;

/// Live weak scans over the cell's shared map: the §11 per-key contract.
class WeakScanMap {
 public:
  using key_type = K;
  using mapped_type = V;
  explicit WeakScanMap(PartialAvl& inner) : inner_(inner) {}

  bool insert(const K& k, const V& v) { return inner_.insert(k, v); }
  bool erase(const K& k) { return inner_.erase(k); }
  bool contains(const K& k) const { return inner_.contains(k); }
  template <typename Fn>
  void range(const K& lo, const K& hi, Fn&& fn) const {
    inner_.range(lo, hi, std::forward<Fn>(fn));
  }

 private:
  PartialAvl& inner_;
};

/// Adapter that turns every driver range() into an atomic scan: draw a
/// snapshot, resolve the range against its cut, drop the view. This is
/// deliberately the naive per-scan usage (acquire + release every scan),
/// so the series prices the full snapshot round trip, not an amortized
/// long-lived view.
class SnapshotScanMap {
 public:
  using key_type = K;
  using mapped_type = V;
  explicit SnapshotScanMap(PartialAvl& inner) : inner_(inner) {}

  bool insert(const K& k, const V& v) { return inner_.insert(k, v); }
  bool erase(const K& k) { return inner_.erase(k); }
  bool contains(const K& k) const { return inner_.contains(k); }
  template <typename Fn>
  void range(const K& lo, const K& hi, Fn&& fn) const {
    const auto view = inner_.snapshot();
    view.range(lo, hi, std::forward<Fn>(fn));
  }

 private:
  PartialAvl& inner_;
};

/// The classic way to get atomic scans: one reader-writer lock over the
/// whole map. Point reads and scans share it, writers take it exclusive —
/// a scan is trivially a cut because every writer is stalled for its
/// whole duration. Same tree underneath, so the series isolates the
/// mechanism, not the data structure.
class CoarseLockScanMap {
 public:
  using key_type = K;
  using mapped_type = V;
  explicit CoarseLockScanMap(PartialAvl& inner) : inner_(inner) {}

  bool insert(const K& k, const V& v) {
    std::unique_lock lock(mu_);
    return inner_.insert(k, v);
  }
  bool erase(const K& k) {
    std::unique_lock lock(mu_);
    return inner_.erase(k);
  }
  bool contains(const K& k) const {
    std::shared_lock lock(mu_);
    return inner_.contains(k);
  }
  template <typename Fn>
  void range(const K& lo, const K& hi, Fn&& fn) const {
    std::shared_lock lock(mu_);
    inner_.range(lo, hi, std::forward<Fn>(fn));
  }

 private:
  mutable std::shared_mutex mu_;
  PartialAvl& inner_;
};

/// Same scan-heavy mix as ablation_range: 30C/20I/20R/30S, so the two
/// ablations' weak-scan rows are directly comparable.
lot::workload::Spec scan_spec(std::int64_t key_range, std::int64_t scan_len) {
  lot::workload::Spec spec;
  spec.name = "30C-20I-20R-30S-len" + std::to_string(scan_len);
  spec.contains_pct = 30;
  spec.insert_pct = 20;
  spec.remove_pct = 20;
  spec.scan_pct = 30;
  spec.scan_len = scan_len;
  spec.key_range = key_range;
  return spec;
}

/// Runs one (spec, threads) cell: one prefilled map, `cfg.repeats` rounds
/// of weak, snapshot and rwlock trials on it with one seed per round.
/// Fills `arms` with the three arms' cells, in that order, and returns
/// the per-round snapshot/weak ratios.
std::vector<double> run_paired_cell(const lot::workload::Spec& spec,
                                    const lot::bench::TableConfig& cfg,
                                    unsigned threads,
                                    std::vector<lot::bench::Cell>& arms) {
  PartialAvl map;
  lot::workload::prefill(map, spec, threads, cfg.seed);
  WeakScanMap weak(map);
  SnapshotScanMap snapshot(map);
  CoarseLockScanMap coarse(map);
  arms.assign(3, lot::bench::Cell{});
  std::vector<double> ratios;
  for (int rep = 0; rep < cfg.repeats; ++rep) {
    const std::uint64_t seed = cfg.seed + 1 + static_cast<std::uint64_t>(rep);
    const auto trial = [&](auto& arm) {
      return lot::workload::run_trial(arm, spec, threads, cfg.secs, seed)
          .mops_per_sec;
    };
    const double w = trial(weak);
    const double s = trial(snapshot);
    arms[0].samples.push_back(w);
    arms[1].samples.push_back(s);
    arms[2].samples.push_back(trial(coarse));
    ratios.push_back(s / w);
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
  if (!cli.has("ranges") && !cli.has("paper")) cfg.key_ranges = {20'000};
  if (!cli.has("repeats") && !cli.has("paper")) cfg.repeats = 10;
  const auto scan_lens =
      cli.get_int_list("scanlens", std::vector<std::int64_t>{16, 64, 256});
  lot::bench::JsonReport report;
  const std::vector<std::string> names = {
      "lo-avl-lr-weak", "lo-avl-lr-snapshot", "coarse-rwlock"};

  for (const auto range : cfg.key_ranges) {
    for (const auto len : scan_lens) {
      const auto spec = scan_spec(range, len);
      lot::bench::print_cell_header("MVCC snapshot-scan ablation", spec);
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
      std::printf("  snapshot/weak per round: median [q1..q3], rounds >= 0.8\n");
      for (std::size_t i = 0; i < cfg.threads.size(); ++i) {
        const auto& r = ratios[i];
        std::size_t at_target = 0;
        for (const double x : r) at_target += x >= 0.8 ? 1 : 0;
        std::printf("%8lld  %6.3f [%6.3f..%6.3f]  %zu of %zu\n",
                    static_cast<long long>(cfg.threads[i]),
                    lot::util::percentile(r, 50.0),
                    lot::util::percentile(r, 25.0),
                    lot::util::percentile(r, 75.0), at_target, r.size());
      }
      for (const auto& [name, cells] : series) {
        report.add("ablation_mvcc", spec, cfg, name, cells);
      }
    }
  }

  lot::bench::maybe_write_json(cli, report);
  return 0;
}
