// ShardedMap: the shard-routed scale-out layer (DESIGN.md §15, ROADMAP 1).
//
// Partitions an integral key space across N inner maps ("shards"), each a
// complete LoCore-backed tree with its OWN reclamation universe:
//
//  * a private EbrDomain — one shard's stalled reader or retire backlog
//    pins that shard's epoch only; the other shards keep reclaiming.
//    Writers' contention events are counted on the shard's domain too
//    (EbrDomain::note_contention_event), so a hot shard shows up in its
//    own domain's odometer;
//  * a private SizePool (when the inner map's Alloc is pool-backed) —
//    remote-free traffic and slab growth stay shard-local instead of all
//    shards fighting over the per-type pool_for<T>() singleton's caches.
//
// Point ops route directly (router.hpp: striped block partitioning, one
// shift+mask). The full adapters::OrderedMap surface is preserved:
// min/max/first_in_range/last_in_range reduce over per-shard answers, and
// for_each/range/Cursor run a k-way merge over per-shard cursors
// (merge.hpp), yielding the global ascending order because every key
// belongs to exactly one shard.
//
// Owning shards: a bounded op over [lo, hi) (range, first_in_range,
// last_in_range, Snapshot::range) enters only the shards that own a
// 64-key block intersecting the range (router.hpp shards_in) — one or two
// for a short scan, so it pays one or two descents and guard pins, not N.
// That narrowing holds only for key_compare = std::less<K>, whose order is
// the integer order the stripe is cut on, and only when the range does not
// wrap from negative to non-negative keys; a range of N or more blocks, a
// wrapped range and every other comparator enter all shards. The
// unbounded for_each/cursor() and the composite snapshot() (every shard
// reserves before the one cut) always enter every shard.
//
// Consistency caveat (vs DESIGN.md §11): a single shard's scan is weakly
// consistent per key. The cross-shard merge holds one cursor — hence one
// pinned epoch — PER SHARD IT ENTERS for the duration of the iteration,
// and the per-key verdicts of different shards are justified at different
// instants. Nothing new is promised across shards: like the single-tree
// scan, a cross-shard scan is not a snapshot. (Keep merges short-lived on
// update-heavy maps: k epochs stay pinned while one is open.)
//
// Teardown contract: like the inner maps, destruction requires quiescence.
// Per shard, the members are declared pool → domain → map so destruction
// runs map (returns live nodes) → domain (drains retired nodes through
// SizePool::route_free, which needs the slab headers alive) → pool.
#pragma once

#include <bit>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "lo/mvcc.hpp"
#include "obs/counters.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/pool.hpp"
#include "shard/merge.hpp"
#include "shard/router.hpp"

namespace lot::shard {

/// `MapT` is any LoCore instantiation (LoMap / PartialMap, AVL or BST);
/// `Shards` is a power of two. shards=1 is the degenerate case: one inner
/// map on a private domain/pool, every op a straight pass-through — the
/// configuration the equivalence tests pin against the unsharded tree.
template <typename MapT, unsigned Shards = 8>
class ShardedMap {
  static_assert(Shards >= 1 && (Shards & (Shards - 1)) == 0,
                "shard count must be a power of two (router mask)");
  static_assert(Shards <= 64, "shards_in returns a 64-bit shard mask");

 public:
  using key_type = typename MapT::key_type;
  using mapped_type = typename MapT::mapped_type;
  using key_compare = typename MapT::key_compare;
  using inner_map_type = MapT;
  using K = key_type;
  using V = mapped_type;

  /// Forwarded tree traits, so harnesses generic over the LO maps (the
  /// stress runner, validation) treat a sharded map like its inner tree.
  static constexpr bool kBalanced = MapT::kBalanced;
  static constexpr bool kLogicalRemoving = MapT::kLogicalRemoving;

  /// True when the inner map's allocation policy accepts a per-instance
  /// pool handle (reclaim::PoolNodeAlloc); plain new/delete policies get
  /// no pool and simply share the heap.
  static constexpr bool kPooledAlloc =
      std::is_constructible_v<typename MapT::alloc_type,
                              reclaim::SizePool&>;

  ShardedMap() : ShardedMap(key_compare()) {}

  explicit ShardedMap(key_compare comp) : comp_(std::move(comp)) {
    shards_.reserve(Shards);
    for (unsigned i = 0; i < Shards; ++i) {
      shards_.push_back(std::make_unique<ShardSlot>(comp_));
    }
    // One clock for all shards: per-shard version stamps read it and
    // snapshot cuts advance it, which is what makes the composite
    // snapshot() below a single cut (DESIGN.md §16).
    for (auto& s : shards_) s->map.use_epoch_source(epoch_src_);
  }

  ShardedMap(const ShardedMap&) = delete;
  ShardedMap& operator=(const ShardedMap&) = delete;

  static std::string_view name() {
    static const std::string n =
        std::string(MapT::name()) + "-x" + std::to_string(Shards);
    return n;
  }

  static constexpr unsigned shard_count() { return Shards; }

  // ------------------------------------------------------------ point ops

  bool insert(const K& k, const V& v) {
    ShardSlot& s = slot_for(k);
    s.stats.note_point();
    return s.map.insert(k, v);
  }

  bool erase(const K& k) {
    ShardSlot& s = slot_for(k);
    s.stats.note_point();
    return s.map.erase(k);
  }

  bool contains(const K& k) const {
    ShardSlot& s = slot_for(k);
    s.stats.note_point();
    return s.map.contains(k);
  }

  std::optional<V> get(const K& k) const {
    ShardSlot& s = slot_for(k);
    s.stats.note_point();
    return s.map.get(k);
  }

  // ---------------------------------------------------------- ordered API

  std::optional<std::pair<K, V>> min() const {
    std::optional<std::pair<K, V>> best;
    for (const auto& s : shards_) {
      s->stats.note_ordered();
      auto m = s->map.min();
      if (m.has_value() &&
          (!best.has_value() || comp_(m->first, best->first))) {
        best = std::move(m);
      }
    }
    return best;
  }

  std::optional<std::pair<K, V>> max() const {
    std::optional<std::pair<K, V>> best;
    for (const auto& s : shards_) {
      s->stats.note_ordered();
      auto m = s->map.max();
      if (m.has_value() &&
          (!best.has_value() || comp_(best->first, m->first))) {
        best = std::move(m);
      }
    }
    return best;
  }

  std::optional<std::pair<K, V>> first_in_range(const K& lo,
                                                const K& hi) const {
    std::optional<std::pair<K, V>> best;
    if (!comp_(lo, hi)) return best;
    for_owning_shards(lo, hi, [&](std::size_t i) {
      ShardSlot& s = *shards_[i];
      s.stats.note_ordered();
      auto m = s.map.first_in_range(lo, hi);
      if (m.has_value() &&
          (!best.has_value() || comp_(m->first, best->first))) {
        best = std::move(m);
      }
    });
    return best;
  }

  std::optional<std::pair<K, V>> last_in_range(const K& lo,
                                               const K& hi) const {
    std::optional<std::pair<K, V>> best;
    if (!comp_(lo, hi)) return best;
    for_owning_shards(lo, hi, [&](std::size_t i) {
      ShardSlot& s = *shards_[i];
      s.stats.note_ordered();
      auto m = s.map.last_in_range(lo, hi);
      if (m.has_value() &&
          (!best.has_value() || comp_(best->first, m->first))) {
        best = std::move(m);
      }
    });
    return best;
  }

  /// Global ascending iteration: k-way merge over one cursor per shard.
  template <typename F>
  void for_each(F&& fn) const {
    Merge merge = merge_from_start();
    while (auto kv = merge.next()) fn(kv->first, kv->second);
  }

  /// Ordered scan over [lo, hi): the cursor of every owning shard (header
  /// comment) enters at its first key >= lo (one descent per owning
  /// shard), then the merge walks the global order and stops at hi. Same
  /// per-key weak consistency as the inner map's range — see the header
  /// caveat for what the merge does NOT add.
  template <typename F>
  void range(const K& lo, const K& hi, F&& fn) const {
    if (!comp_(lo, hi)) return;
    // Counted here, at the layer that owns the op: the inner cursors
    // account their own open descents as kOrderedLocates, so a sharded
    // scan reads as one kRangeOps plus one ordered locate per shard it
    // enters (see the shifted contains_restarts identity in
    // tests/stress/stress_lo_shards).
    const auto tc = obs::tls();
    tc.add(obs::Counter::kRangeOps);
    std::uint64_t reported = 0;
    Merge merge = merge_from(lo, hi);
    while (auto kv = merge.next()) {
      if (comp_(kv->first, lo)) continue;   // defensive: below the range
      if (!comp_(kv->first, hi)) break;     // past the range: done
      fn(kv->first, kv->second);
      ++reported;
    }
    if (reported != 0) tc.add(obs::Counter::kRangeKeysReported, reported);
  }

  /// Cross-shard ordered cursor. Holds one inner cursor — one pinned
  /// reclamation epoch — per shard for its whole lifetime.
  class Cursor {
   public:
    std::optional<std::pair<K, V>> next() { return merge_.next(); }

   private:
    explicit Cursor(KWayMerge<typename MapT::Cursor, K, V, key_compare> m)
        : merge_(std::move(m)) {}
    KWayMerge<typename MapT::Cursor, K, V, key_compare> merge_;
    friend class ShardedMap;
  };

  Cursor cursor() const { return Cursor(merge_from_start()); }

  // --------------------------------------------------- composite snapshot

  /// One consistent cut of the WHOLE sharded map (DESIGN.md §16): every
  /// shard holds an epoch-pinned SnapshotView adopted at the same E from
  /// the shared clock, so cross-shard reads — unlike the live merge's
  /// per-shard caveat above — all linearize at that single point.
  /// Holds one snapshot floor plus one reclamation pin PER SHARD domain;
  /// keep it as short-lived as any view, and on the thread that took it.
  class Snapshot {
   public:
    Snapshot(Snapshot&&) noexcept = default;
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;
    Snapshot& operator=(Snapshot&&) = delete;

    /// The cut every shard adopted.
    std::uint64_t epoch() const { return epoch_; }

    bool contains(const K& k) const {
      return views_[shard_of(k, Shards)].contains(k);
    }

    std::optional<V> get(const K& k) const {
      return views_[shard_of(k, Shards)].get(k);
    }

    /// Ordered scan of [lo, hi) as of the cut: k-way merge over the
    /// owning shards' snapshot cursors, counted at this layer exactly
    /// like the live sharded range (one kRangeOps, inner opens count
    /// their own kOrderedLocates).
    template <typename F>
    void range(const K& lo, const K& hi, F&& fn) const {
      if (!comp_(lo, hi)) return;
      const auto tc = obs::tls();
      tc.add(obs::Counter::kRangeOps);
      std::uint64_t reported = 0;
      SnapMerge merge = merge_over(lo, hi);
      while (auto kv = merge.next()) {
        fn(kv->first, kv->second);
        ++reported;
      }
      if (reported != 0) tc.add(obs::Counter::kRangeKeysReported, reported);
    }

    /// Full ordered iteration as of the cut.
    template <typename F>
    void for_each(F&& fn) const {
      std::vector<typename MapT::SnapshotView::Cursor> cursors;
      cursors.reserve(views_.size());
      for (const auto& v : views_) cursors.push_back(v.cursor());
      SnapMerge merge(std::move(cursors), comp_);
      while (auto kv = merge.next()) fn(kv->first, kv->second);
    }

    /// Drops every shard's snapshot floor and reclamation pin early (the
    /// destructor does the same); reads afterwards return empty.
    void release() {
      for (auto& v : views_) v.release();
    }

   private:
    using SnapMerge =
        KWayMerge<typename MapT::SnapshotView::Cursor, K, V, key_compare>;

    Snapshot(std::vector<typename MapT::SnapshotView> views,
             std::uint64_t e, key_compare comp)
        : views_(std::move(views)), epoch_(e), comp_(std::move(comp)) {}

    SnapMerge merge_over(const K& lo, const K& hi) const {
      std::vector<typename MapT::SnapshotView::Cursor> cursors;
      cursors.reserve(views_.size());
      for_owning_shards(lo, hi, [&](std::size_t i) {
        cursors.push_back(views_[i].cursor(lo, hi));
      });
      return SnapMerge(std::move(cursors), comp_);
    }

    std::vector<typename MapT::SnapshotView> views_;
    std::uint64_t epoch_;
    key_compare comp_;
    friend class ShardedMap;
  };

  /// Two-phase composite snapshot: every shard RESERVES a ticket first
  /// (publishing the thread's snapshot floor to that shard's writers),
  /// then one cut E is taken from the shared clock and adopted by all. A
  /// write on any shard stamped at or before E is visible through the
  /// snapshot, one stamped after E is not — shard-independently, which
  /// is exactly the single-cut claim tests/test_lo_ordered_api pins.
  Snapshot snapshot() const {
    std::vector<typename MapT::SnapshotTicket> tickets;
    tickets.reserve(Shards);
    for (const auto& s : shards_) {
      s->stats.note_ordered();
      tickets.push_back(s->map.snapshot_reserve());
    }
    const std::uint64_t e = epoch_src_.cut();
    std::vector<typename MapT::SnapshotView> views;
    views.reserve(Shards);
    for (unsigned i = 0; i < Shards; ++i) {
      views.push_back(
          shards_[i]->map.snapshot_adopt(std::move(tickets[i]), e));
    }
    return Snapshot(std::move(views), e, comp_);
  }

  /// The shared clock (tests: stamp-source identity across shards).
  lo::mvcc::EpochSource& epoch_source() const { return epoch_src_; }

  // ------------------------------------------------------- conveniences

  std::size_t size_slow() const {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->map.size_slow();
    return n;
  }

  /// Quiescent-only, like the inner maps' (DESIGN.md §13): repair every
  /// shard's stale heights left by abandoned climbs. Total repairs across
  /// shards.
  std::size_t repair_balance()
    requires(MapT::kBalanced)
  {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->map.repair_balance();
    return n;
  }

  /// Logical-removing variants: purge every shard's zombies. Total purged.
  std::size_t purge_all()
    requires(MapT::kLogicalRemoving)
  {
    std::size_t n = 0;
    for (const auto& s : shards_) n += s->map.purge_all();
    return n;
  }

  bool empty() const {
    for (const auto& s : shards_) {
      if (!s->map.empty()) return false;
    }
    return true;
  }

  // ------------------------------------------- shard-level introspection

  /// The shard a key routes to (tests: shard-boundary keys).
  static constexpr std::size_t shard_index_of(const K& k) {
    return shard_of(k, Shards);
  }

  reclaim::EbrDomain& shard_domain(std::size_t i) const {
    return shards_[i]->domain;
  }

  /// The shard's private pool, or nullptr for non-pooled allocation
  /// policies (tests: per-shard slab accounting).
  reclaim::SizePool* shard_pool(std::size_t i) const {
    return shards_[i]->pool.get();
  }

  MapT& shard_map(std::size_t i) { return shards_[i]->map; }
  const MapT& shard_map(std::size_t i) const { return shards_[i]->map; }

  RouterStatsSnapshot shard_stats(std::size_t i) const {
    const RouterShardStats& st = shards_[i]->stats;
    RouterStatsSnapshot snap;
    snap.point_ops = st.point_ops.load(std::memory_order_relaxed);
    snap.ordered_ops = st.ordered_ops.load(std::memory_order_relaxed);
    return snap;
  }

  key_compare key_comp() const { return comp_; }

 private:
  struct ShardSlot {
    // Declaration order IS the teardown argument (header comment): map is
    // destroyed first, domain second (its deleters route slots back
    // through the pool), pool last.
    std::unique_ptr<reclaim::SizePool> pool;
    reclaim::EbrDomain domain;
    MapT map;
    RouterShardStats stats;

    explicit ShardSlot(const key_compare& comp)
        : pool(make_pool()), map(domain, comp, make_alloc(pool.get())) {}

    static std::unique_ptr<reclaim::SizePool> make_pool() {
      if constexpr (kPooledAlloc) {
        using NodeT = typename MapT::NodeT;
        return std::make_unique<reclaim::SizePool>(sizeof(NodeT),
                                                   alignof(NodeT));
      } else {
        return nullptr;
      }
    }

    static typename MapT::alloc_type make_alloc(reclaim::SizePool* pool) {
      if constexpr (kPooledAlloc) {
        return typename MapT::alloc_type(*pool);
      } else {
        (void)pool;
        return typename MapT::alloc_type();
      }
    }
  };

  using Merge = KWayMerge<typename MapT::Cursor, K, V, key_compare>;

  ShardSlot& slot_for(const K& k) const {
    return *shards_[shard_of(k, Shards)];
  }

  /// Calls fn(i) for each shard i owning a block of [lo, hi), in index
  /// order. Precondition: comp_(lo, hi).
  template <typename F>
  static void for_owning_shards(const K& lo, const K& hi, F&& fn) {
    for (std::uint64_t m = shards_in<key_compare>(lo, hi, Shards); m != 0;
         m &= m - 1) {
      fn(static_cast<std::size_t>(std::countr_zero(m)));
    }
  }

  Merge merge_from_start() const {
    std::vector<typename MapT::Cursor> cursors;
    cursors.reserve(Shards);
    for (const auto& s : shards_) {
      s->stats.note_ordered();
      cursors.push_back(s->map.cursor());
    }
    return Merge(std::move(cursors), comp_);
  }

  Merge merge_from(const K& lo, const K& hi) const {
    std::vector<typename MapT::Cursor> cursors;
    cursors.reserve(Shards);
    for_owning_shards(lo, hi, [&](std::size_t i) {
      ShardSlot& s = *shards_[i];
      s.stats.note_ordered();
      cursors.push_back(s.map.cursor(lo));
    });
    return Merge(std::move(cursors), comp_);
  }

  key_compare comp_;
  // unique_ptr, not ShardSlot by value: slots hold a whole map plus a
  // cacheline-aligned stats block, and the vector must never relocate a
  // live domain.
  std::vector<std::unique_ptr<ShardSlot>> shards_;
  // Declared after shards_ so it outlives no shard during construction;
  // mutable because snapshot() is a read on a const map. Shards are
  // rebound to it in the constructor, before any op can run.
  mutable lo::mvcc::EpochSource epoch_src_;
};

}  // namespace lot::shard
