// Allocator/layout ablation (DESIGN.md §10, EXPERIMENTS.md): how much of
// the GC gap does the memory subsystem close?
//
// Series, all running the identical lo-avl algorithm:
//   lo-avl-pool        — slab pool allocator + cache-conscious node (the
//                        PR's default configuration)
//   lo-avl-new         — plain counted new/delete, cache-conscious node
//                        (isolates the allocator delta)
//   lo-avl-packed-new  — plain new/delete over the pre-PR packed node
//                        layout (isolates the layout delta)
//
// Defaults are one Table-1 cell per mix at 1/4/8 threads over the 20k key
// range; --threads/--ranges/--secs/--repeats/--json as in the table
// benches. The per-cell pool-vs-new delta is printed explicitly because it
// is this PR's acceptance number (no regression at 1 thread, a win on the
// update-heavy multi-thread cells).
#include <cstdint>
#include <cstdio>
#include <functional>

#include "bench/common.hpp"
#include "lo/avl.hpp"
#include "reclaim/pool.hpp"
#include "sync/spinlock.hpp"
#include "util/cli.hpp"

namespace {

/// The node layout this PR replaced, kept verbatim (original field order,
/// int32 heights, natural alignment) so the layout effect stays measurable
/// after the default changed. Must mirror lo::Node's member interface —
/// LoMap touches fields, is_sentinel() and balance_factor() only.
template <typename K, typename V>
struct PackedNode {
  using Self = PackedNode<K, V>;

  const K key;
  const lot::lo::Tag tag;
  V value;
  std::atomic<bool> mark{false};
  std::atomic<bool> deleted{false};
  std::atomic<std::uint32_t> succ_version{0};
  // MVCC stamp slots (lo/node.hpp); the layout ablation predates the
  // snapshot layer but the core's write path stamps unconditionally.
  std::atomic<std::uint64_t> vbirth{0};
  std::atomic<std::uint64_t> vdeath{0};
  std::atomic<Self*> left{nullptr};
  std::atomic<Self*> right{nullptr};
  std::atomic<Self*> parent{nullptr};
  std::atomic<std::int32_t> left_height{0};
  std::atomic<std::int32_t> right_height{0};
  lot::sync::SpinLock tree_lock;
  std::atomic<Self*> pred{nullptr};
  std::atomic<Self*> succ{nullptr};
  lot::sync::SpinLock succ_lock;

  PackedNode(K k, V v, lot::lo::Tag t = lot::lo::Tag::kNormal)
      : key(std::move(k)), tag(t), value(std::move(v)) {}

  bool is_sentinel() const { return tag != lot::lo::Tag::kNormal; }

  std::int32_t height_of_subtrees() const {
    const auto lh = left_height.load(std::memory_order_relaxed);
    const auto rh = right_height.load(std::memory_order_relaxed);
    return lh > rh ? lh : rh;
  }

  std::int32_t balance_factor() const {
    return left_height.load(std::memory_order_relaxed) -
           right_height.load(std::memory_order_relaxed);
  }
};

using K = std::int64_t;
using V = std::int64_t;

using PoolAvl =
    lot::lo::AvlMap<K, V, std::less<K>, lot::reclaim::PoolNodeAlloc>;
using NewAvl =
    lot::lo::AvlMap<K, V, std::less<K>, lot::reclaim::NewNodeAlloc>;
using PackedNewAvl =
    lot::lo::LoMap<K, V, std::less<K>, /*Balanced=*/true,
                   lot::reclaim::NewNodeAlloc, PackedNode>;

void print_deltas(const std::vector<std::int64_t>& threads,
                  const lot::bench::Series& pool,
                  const lot::bench::Series& plain,
                  const lot::bench::Series& packed) {
  std::printf("  deltas vs lo-avl-new (medians):\n");
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const double base = plain[i].median;
    const double pool_pct =
        base > 0 ? (pool[i].median / base - 1.0) * 100.0 : 0.0;
    const double packed_pct =
        base > 0 ? (packed[i].median / base - 1.0) * 100.0 : 0.0;
    std::printf(
        "%8lld  pool %+7.2f%%   packed-layout %+7.2f%% (layout win: %+.2f%%)\n",
        static_cast<long long>(threads[i]), pool_pct, packed_pct,
        -packed_pct);
  }
}

}  // namespace

int main(int argc, char** argv) {
  lot::util::Cli cli(argc, argv);
  auto cfg = lot::bench::TableConfig::from_cli(cli);
  if (!cli.has("threads") && !cli.has("paper")) cfg.threads = {1, 4, 8};
  if (!cli.has("ranges") && !cli.has("paper")) cfg.key_ranges = {20'000};
  lot::bench::JsonReport report;

  std::printf("node sizes: cache-conscious %zu B, packed %zu B\n",
              sizeof(lot::lo::Node<K, V>), sizeof(PackedNode<K, V>));

  for (const auto range : cfg.key_ranges) {
    for (const auto mix :
         {lot::workload::Mix::k50C25I25R, lot::workload::Mix::k70C20I10R,
          lot::workload::Mix::k100C}) {
      const auto spec = lot::workload::make_spec(mix, range);
      lot::bench::print_cell_header("Allocator ablation", spec);
      std::vector<std::pair<std::string, lot::bench::Series>> series;
      series.emplace_back("lo-avl-pool",
                          lot::bench::run_series<PoolAvl>(spec, cfg));
      series.emplace_back("lo-avl-new",
                          lot::bench::run_series<NewAvl>(spec, cfg));
      series.emplace_back("lo-avl-packed-new",
                          lot::bench::run_series<PackedNewAvl>(spec, cfg));
      lot::bench::print_series_table(cfg.threads, series);
      print_deltas(cfg.threads, series[0].second, series[1].second,
                   series[2].second);
      for (const auto& [name, cells] : series) {
        report.add("ablation_alloc", spec, cfg, name, cells);
      }
    }
  }
  lot::bench::maybe_write_json(cli, report);
  return 0;
}
