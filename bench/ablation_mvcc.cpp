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
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "lo/partial.hpp"
#include "util/cli.hpp"

namespace {

using K = std::int64_t;
using V = std::int64_t;

using PartialAvl = lot::lo::PartialAvlMap<K, V>;

/// Adapter that turns every driver range() into an atomic scan: draw a
/// snapshot, resolve the range against its cut, drop the view. This is
/// deliberately the naive per-scan usage (acquire + release every scan),
/// so the series prices the full snapshot round trip, not an amortized
/// long-lived view.
class SnapshotScanMap {
 public:
  using key_type = K;
  using mapped_type = V;
  static constexpr std::string_view name() { return "lo-avl-lr-snapshot"; }

  bool insert(const K& k, const V& v) { return inner_.insert(k, v); }
  bool erase(const K& k) { return inner_.erase(k); }
  bool contains(const K& k) const { return inner_.contains(k); }
  template <typename Fn>
  void range(const K& lo, const K& hi, Fn&& fn) const {
    const auto view = inner_.snapshot();
    view.range(lo, hi, std::forward<Fn>(fn));
  }

 private:
  PartialAvl inner_;
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
  static constexpr std::string_view name() { return "coarse-rwlock"; }

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
  PartialAvl inner_;
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

}  // namespace

int main(int argc, char** argv) {
  lot::util::Cli cli(argc, argv);
  auto cfg = lot::bench::TableConfig::from_cli(cli);
  if (!cli.has("threads") && !cli.has("paper")) cfg.threads = {1, 4, 8};
  if (!cli.has("ranges") && !cli.has("paper")) cfg.key_ranges = {20'000};
  const auto scan_lens =
      cli.get_int_list("scanlens", std::vector<std::int64_t>{16, 64, 256});
  lot::bench::JsonReport report;

  for (const auto range : cfg.key_ranges) {
    for (const auto len : scan_lens) {
      const auto spec = scan_spec(range, len);
      lot::bench::print_cell_header("MVCC snapshot-scan ablation", spec);
      std::vector<std::pair<std::string, lot::bench::Series>> series;
      series.emplace_back("lo-avl-lr-weak",
                          lot::bench::run_series<PartialAvl>(spec, cfg));
      series.emplace_back("lo-avl-lr-snapshot",
                          lot::bench::run_series<SnapshotScanMap>(spec, cfg));
      series.emplace_back("coarse-rwlock",
                          lot::bench::run_series<CoarseLockScanMap>(spec, cfg));
      lot::bench::print_series_table(cfg.threads, series);
      for (const auto& [name, cells] : series) {
        report.add("ablation_mvcc", spec, cfg, name, cells);
      }
    }
  }

  lot::bench::maybe_write_json(cli, report);
  return 0;
}
