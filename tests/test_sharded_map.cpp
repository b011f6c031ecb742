// ShardedMap (src/shard/, DESIGN.md §15): the shard-routed scale-out
// layer over the logical-ordering trees. The suite pins
//  * the full OrderedMap surface, typed over all four inner tree variants;
//  * routing: striped block partitioning, shard-boundary keys, router
//    stats reconciling exactly against the ops run, and bounded ordered
//    ops entering only the shards that own a block of [lo, hi);
//  * the degenerate shards=1 configuration behaving bit-for-bit like the
//    unsharded tree (differential against the same op tape);
//  * cross-shard cursor/range merges yielding the global ascending order
//    (differential against std::map, with ranges clustered on block
//    edges and across the signed wrap);
//  * per-shard reclamation universes: private EbrDomain + private pool
//    per shard, rows visible in obs snapshots, and allocation accounting
//    balancing to zero at teardown (the ASan/LSan build turns any missed
//    node into a hard failure), and contention events counted on the
//    domain of the shard they happened in.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "adapters/map_concept.hpp"
#include "lo/avl.hpp"
#include "lo/bst.hpp"
#include "lo/partial.hpp"
#include "reclaim/alloc_stats.hpp"
#include "reclaim/pool.hpp"
#include "shard/sharded_map.hpp"
#include "shard/validate.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "util/random.hpp"

namespace {

using K = std::int64_t;
using V = std::int64_t;
using lot::lo::AvlMap;
using lot::lo::BstMap;
using lot::lo::PartialAvlMap;
using lot::lo::PartialBstMap;
using lot::shard::ShardedMap;
using lot::util::Xoshiro256;

// The sharded wrapper keeps the whole ordered concept, at any shard count,
// over every inner variant.
static_assert(lot::adapters::OrderedMap<ShardedMap<BstMap<K, V>, 1>>);
static_assert(lot::adapters::OrderedMap<ShardedMap<AvlMap<K, V>, 4>>);
static_assert(lot::adapters::OrderedMap<ShardedMap<PartialBstMap<K, V>, 8>>);
static_assert(lot::adapters::OrderedMap<ShardedMap<PartialAvlMap<K, V>, 2>>);

// The sharded layer chooses its allocation path from the inner map's
// `Alloc` type: the slab pool gets a private pool per shard, plain
// new/delete shares the heap.
static_assert(
    ShardedMap<AvlMap<K, V, std::less<K>, lot::reclaim::PoolNodeAlloc>,
               4>::kPooledAlloc);
static_assert(
    !ShardedMap<AvlMap<K, V, std::less<K>, lot::reclaim::NewNodeAlloc>,
                4>::kPooledAlloc);

using Window = std::vector<std::pair<K, V>>;

/// Keys of `ref` in [lo, hi), in the reference map's order.
template <typename Ref>
Window reference_window(const Ref& ref, K lo, K hi) {
  Window want;
  if (!ref.key_comp()(lo, hi)) return want;
  for (auto it = ref.lower_bound(lo);
       it != ref.end() && ref.key_comp()(it->first, hi); ++it) {
    want.emplace_back(*it);
  }
  return want;
}

std::optional<std::pair<K, V>> front_of(const Window& w) {
  if (w.empty()) return std::nullopt;
  return w.front();
}

std::optional<std::pair<K, V>> back_of(const Window& w) {
  if (w.empty()) return std::nullopt;
  return w.back();
}

/// Every bounded ordered surface of `m` over [lo, hi) against the
/// reference: live range, first_in_range, last_in_range and, with the
/// MVCC layer compiled in, the composite snapshot's range.
template <typename MapT, typename Ref>
void expect_window_matches(const MapT& m, const Ref& ref, K lo, K hi) {
  const auto want = reference_window(ref, lo, hi);
  Window have;
  m.range(lo, hi, [&](const K& k, const V& v) { have.emplace_back(k, v); });
  EXPECT_EQ(have, want) << "range [" << lo << ", " << hi << ")";
  EXPECT_EQ(m.first_in_range(lo, hi), front_of(want))
      << "first_in_range [" << lo << ", " << hi << ")";
  EXPECT_EQ(m.last_in_range(lo, hi), back_of(want))
      << "last_in_range [" << lo << ", " << hi << ")";
  const auto snap = m.snapshot();
  have.clear();
  snap.range(lo, hi, [&](const K& k, const V& v) { have.emplace_back(k, v); });
  EXPECT_EQ(have, want) << "snapshot range [" << lo << ", " << hi << ")";
}

/// A key on a router block edge: 64j - 1, 64j or 64j + 1 for j drawn
/// from [lo_block, hi_block).
K edge_key(Xoshiro256& rng, K lo_block, K hi_block) {
  const K j = lo_block +
              static_cast<K>(rng.next_below(
                  static_cast<std::uint64_t>(hi_block - lo_block)));
  return j * 64 + static_cast<K>(rng.next_below(3)) - 1;
}

template <typename MapT>
class ShardedMapTest : public ::testing::Test {};

using Impls = ::testing::Types<
    ShardedMap<BstMap<K, V>, 4>, ShardedMap<AvlMap<K, V>, 4>,
    ShardedMap<PartialBstMap<K, V>, 4>, ShardedMap<PartialAvlMap<K, V>, 4>>;
TYPED_TEST_SUITE(ShardedMapTest, Impls);

TYPED_TEST(ShardedMapTest, PointOpsRouteAndReconcile) {
  TypeParam m;
  // Keys spanning every shard: 4 shards x 64-key blocks → 0..255 covers
  // each shard once per stripe period.
  std::uint64_t expected_per_shard[4] = {};
  for (K k = 0; k < 512; k += 3) {
    ASSERT_TRUE(m.insert(k, k * 2)) << k;
    expected_per_shard[TypeParam::shard_index_of(k)] += 1;
  }
  for (K k = 0; k < 512; k += 3) {
    EXPECT_FALSE(m.insert(k, 0)) << k;  // duplicate
    expected_per_shard[TypeParam::shard_index_of(k)] += 1;
    EXPECT_TRUE(m.contains(k));
    expected_per_shard[TypeParam::shard_index_of(k)] += 1;
    EXPECT_EQ(m.get(k), std::make_optional<V>(k * 2));
    expected_per_shard[TypeParam::shard_index_of(k)] += 1;
  }
  EXPECT_FALSE(m.contains(1));
  expected_per_shard[TypeParam::shard_index_of(1)] += 1;
  EXPECT_FALSE(m.erase(1));
  expected_per_shard[TypeParam::shard_index_of(1)] += 1;
  for (K k = 0; k < 512; k += 6) {
    EXPECT_TRUE(m.erase(k)) << k;
    expected_per_shard[TypeParam::shard_index_of(k)] += 1;
  }
  // Router telemetry reconciles exactly: every point op counted once, on
  // the one shard it routed to, and never as an ordered op.
  for (unsigned i = 0; i < TypeParam::shard_count(); ++i) {
    EXPECT_EQ(m.shard_stats(i).point_ops, expected_per_shard[i])
        << "shard " << i;
    EXPECT_EQ(m.shard_stats(i).ordered_ops, 0u) << "shard " << i;
  }
}

/// Runs one ordered op and checks the shards it entered: one ordered
/// locate (one inner descent) per entered shard, the router's ordered_ops
/// odometer bumped on exactly those shards and on no other.
template <typename MapT, typename Op>
void expect_enters(const MapT& m, const std::set<std::size_t>& shards,
                   const char* what, K lo, K hi, Op&& op) {
  using lot::obs::Counter;
  std::vector<std::uint64_t> before;
  for (unsigned i = 0; i < MapT::shard_count(); ++i) {
    before.push_back(m.shard_stats(i).ordered_ops);
  }
  const std::uint64_t locates0 =
      lot::obs::counter_total(Counter::kOrderedLocates);
  op();
  EXPECT_EQ(lot::obs::counter_total(Counter::kOrderedLocates) - locates0,
            shards.size())
      << what << " [" << lo << ", " << hi << ") ordered locates";
  for (unsigned i = 0; i < MapT::shard_count(); ++i) {
    EXPECT_EQ(m.shard_stats(i).ordered_ops - before[i],
              shards.count(i) != 0 ? 1u : 0u)
        << what << " [" << lo << ", " << hi << ") router odometer, shard "
        << i;
  }
}

// Bounded ordered ops enter only the shards that own a 64-key block of
// [lo, hi) (router.hpp shards_in). Counted, not timed: each entered shard
// adds one ordered locate and one router ordered op.
TYPED_TEST(ShardedMapTest, RangeEntersOnlyOwningShards) {
  const std::set<std::size_t> all = {0, 1, 2, 3};
  struct Case {
    K lo, hi;
    std::set<std::size_t> shards;
  };
  const Case cases[] = {
      {70, 86, {1}},          // inside block 1
      {64, 65, {1}},          // one key
      {120, 136, {1, 2}},     // straddles blocks 1 | 2
      {255, 257, {3, 0}},     // straddles blocks 3 | 4: the stripe wraps
      {10, 150, {0, 1, 2}},   // three blocks
      {0, 256, all},          // N blocks
      {-200, 500, all},       // more than N blocks
      {-100, -70, {2}},       // negative keys, inside block -2
      {-5, 5, all},           // crosses -1 | 0: the unsigned cast wraps
      {100, 100, {}},         // empty: enters nothing
  };

  TypeParam m;
  std::map<K, V> ref;
  // Reversed order: the stripe is cut on the integer order, so any other
  // comparator must enter every shard and still merge the right answer.
  ShardedMap<PartialAvlMap<K, V, std::greater<K>>, 4> g;
  std::map<K, V, std::greater<K>> gref;
  for (K k = -320; k < 576; k += 3) {
    ASSERT_TRUE(m.insert(k, 2 * k));
    ref.emplace(k, 2 * k);
    ASSERT_TRUE(g.insert(k, 2 * k));
    gref.emplace(k, 2 * k);
  }

  for (const Case& c : cases) {
    const K lo = c.lo;
    const K hi = c.hi;
    const std::set<std::size_t>& shards = c.shards;
    const auto want = reference_window(ref, lo, hi);
    expect_enters(m, shards, "range", lo, hi, [&] {
      Window have;
      m.range(lo, hi, [&](K k, V v) { have.emplace_back(k, v); });
      EXPECT_EQ(have, want);
    });
    expect_enters(m, shards, "first_in_range", lo, hi, [&] {
      EXPECT_EQ(m.first_in_range(lo, hi), front_of(want));
    });
    expect_enters(m, shards, "last_in_range", lo, hi, [&] {
      EXPECT_EQ(m.last_in_range(lo, hi), back_of(want));
    });
    // The composite snapshot reserves on every shard (router odometer +1
    // each) before its one cut; only its bounded range narrows.
    const auto snap = m.snapshot();
    const std::uint64_t locates0 =
        lot::obs::counter_total(lot::obs::Counter::kOrderedLocates);
    Window have;
    snap.range(lo, hi, [&](K k, V v) { have.emplace_back(k, v); });
    EXPECT_EQ(have, want);
    EXPECT_EQ(lot::obs::counter_total(lot::obs::Counter::kOrderedLocates) -
                  locates0,
              shards.size())
        << "snapshot range [" << lo << ", " << hi << ") ordered locates";

    // The same key set through the reversed map: [hi - 1, lo - 1) in
    // greater-order.
    const K glo = hi - 1;
    const K ghi = lo - 1;
    const auto gwant = reference_window(gref, glo, ghi);
    const std::set<std::size_t> gshards =
        shards.empty() ? std::set<std::size_t>{} : all;
    expect_enters(g, gshards, "greater range", glo, ghi, [&] {
      Window have;
      g.range(glo, ghi, [&](K k, V v) { have.emplace_back(k, v); });
      EXPECT_EQ(have, gwant);
    });
    expect_enters(g, gshards, "greater first_in_range", glo, ghi, [&] {
      EXPECT_EQ(g.first_in_range(glo, ghi), front_of(gwant));
    });
    expect_enters(g, gshards, "greater last_in_range", glo, ghi, [&] {
      EXPECT_EQ(g.last_in_range(glo, ghi), back_of(gwant));
    });
  }

  // The unbounded ordered ops still enter every shard: min, max and
  // for_each add one router ordered op each on all N.
  std::vector<std::uint64_t> before;
  for (unsigned i = 0; i < TypeParam::shard_count(); ++i) {
    before.push_back(m.shard_stats(i).ordered_ops);
  }
  EXPECT_EQ(m.min()->first, ref.begin()->first);
  EXPECT_EQ(m.max()->first, ref.rbegin()->first);
  std::size_t n = 0;
  m.for_each([&](K, V) { ++n; });
  EXPECT_EQ(n, ref.size());
  for (unsigned i = 0; i < TypeParam::shard_count(); ++i) {
    EXPECT_EQ(m.shard_stats(i).ordered_ops - before[i], 3u) << "shard " << i;
  }
}

TYPED_TEST(ShardedMapTest, ShardBoundaryKeys) {
  TypeParam m;
  // The router stripes 64-key blocks over 4 shards; exercise both sides of
  // several block boundaries plus the signed wrap.
  const std::vector<K> keys = {0,   1,   63,  64,  65,  127, 128, 191,
                               192, 255, 256, -1,  -63, -64, -65, -128};
  for (K k : keys) ASSERT_TRUE(m.insert(k, k)) << k;
  // Routing matches the documented function, and adjacent blocks land on
  // distinct shards.
  for (K k : keys) {
    EXPECT_EQ(TypeParam::shard_index_of(k),
              lot::shard::shard_of(k, TypeParam::shard_count()));
  }
  EXPECT_EQ(TypeParam::shard_index_of(63), TypeParam::shard_index_of(0));
  EXPECT_NE(TypeParam::shard_index_of(64), TypeParam::shard_index_of(63));
  for (K k : keys) EXPECT_TRUE(m.contains(k)) << k;
  // The merged iteration restores the global order across the boundary
  // splits (negative keys first: the stripe is routing policy, the merge
  // is comparator order).
  std::vector<K> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::vector<K> got;
  m.for_each([&](const K& k, const V&) { got.push_back(k); });
  EXPECT_EQ(got, sorted);
  // A range straddling block boundaries.
  got.clear();
  m.range(60, 130, [&](const K& k, const V&) { got.push_back(k); });
  EXPECT_EQ(got, (std::vector<K>{63, 64, 65, 127, 128}));
  for (K k : keys) EXPECT_TRUE(m.erase(k)) << k;
  EXPECT_TRUE(m.empty());
}

TYPED_TEST(ShardedMapTest, OrderedSurfaceMatchesReference) {
  TypeParam m;
  std::map<K, V> ref;
  Xoshiro256 rng(42);
  for (int i = 0; i < 4000; ++i) {
    const K k = static_cast<K>(rng.next_below(1024)) - 512;
    if (rng.next_below(100) < 60) {
      EXPECT_EQ(m.insert(k, k * 3), ref.emplace(k, k * 3).second);
    } else {
      EXPECT_EQ(m.erase(k), ref.erase(k) == 1);
    }
  }
  // min / max.
  if (ref.empty()) {
    EXPECT_FALSE(m.min().has_value());
    EXPECT_FALSE(m.max().has_value());
  } else {
    EXPECT_EQ(m.min()->first, ref.begin()->first);
    EXPECT_EQ(m.max()->first, ref.rbegin()->first);
  }
  // Whole-map iteration: global ascending order with the right values.
  std::vector<std::pair<K, V>> got;
  m.for_each([&](const K& k, const V& v) { got.emplace_back(k, v); });
  EXPECT_EQ(got, (std::vector<std::pair<K, V>>(ref.begin(), ref.end())));
  // Cursor agrees with for_each.
  got.clear();
  auto cur = m.cursor();
  while (auto kv = cur.next()) got.push_back(*kv);
  EXPECT_EQ(got, (std::vector<std::pair<K, V>>(ref.begin(), ref.end())));
  // Ranges and first/last-in-range at assorted windows (including empty
  // and inverted ones).
  const std::pair<K, K> windows[] = {
      {-512, 512}, {-40, 40}, {0, 1}, {100, 100}, {200, 100}, {500, 700}};
  for (const auto& [lo, hi] : windows) expect_window_matches(m, ref, lo, hi);
  // Seeded windows clustered on the router's block edges, where the
  // owning-shard rule decides between one shard and two: lo and hi each
  // one of 64j-1, 64j, 64j+1, up to five blocks apart, both signs.
  for (int i = 0; i < 400; ++i) {
    const K lo = edge_key(rng, -8, 8);
    const K hi = lo - 1 + static_cast<K>(rng.next_below(5)) * 64 +
                 static_cast<K>(rng.next_below(3));
    expect_window_matches(m, ref, lo, hi);
  }
  // Single-key windows, and windows across the signed wrap (the unsigned
  // cast puts -1 in the last block and 0 in the first).
  for (K k = -70; k < 70; ++k) expect_window_matches(m, ref, k, k + 1);
  for (K d = 1; d < 300; d += 7) expect_window_matches(m, ref, -d, d);
  expect_window_matches(m, ref, -1, 0);
  expect_window_matches(m, ref, -1, 1);
  EXPECT_EQ(m.size_slow(), ref.size());
}

TYPED_TEST(ShardedMapTest, PerShardReclamationUniverses) {
  TypeParam m;
  // Every shard runs its own EbrDomain — distinct from each other and from
  // the global domain (distinct uids) — and, with the pool policy, its own
  // slab pool instance.
  std::set<std::uint64_t> uids;
  uids.insert(lot::reclaim::EbrDomain::global_domain().uid());
  for (unsigned i = 0; i < TypeParam::shard_count(); ++i) {
    EXPECT_TRUE(uids.insert(m.shard_domain(i).uid()).second)
        << "shard " << i << " shares a domain";
    if constexpr (TypeParam::kPooledAlloc) {
      ASSERT_NE(m.shard_pool(i), nullptr);
      for (unsigned j = 0; j < i; ++j) {
        EXPECT_NE(m.shard_pool(i), m.shard_pool(j));
      }
    } else {
      EXPECT_EQ(m.shard_pool(i), nullptr);  // new/delete build: no pool
    }
  }
  // Each shard's retire traffic lands in its own domain: churn one shard's
  // keys and watch only that domain's epoch advance machinery engage.
  for (K k = 0; k < 64; ++k) ASSERT_TRUE(m.insert(k, k));
  for (K k = 0; k < 64; ++k) ASSERT_TRUE(m.erase(k));
  // An obs snapshot surfaces one row per live domain, shard domains
  // included (satellite: sharded runs don't report blind).
  const auto snap = lot::obs::Registry::instance().snapshot();
  ASSERT_GE(snap.domains.size(), 1u + TypeParam::shard_count());
  std::set<std::uint64_t> snap_uids;
  for (const auto& row : snap.domains) snap_uids.insert(row.uid);
  for (unsigned i = 0; i < TypeParam::shard_count(); ++i) {
    EXPECT_TRUE(snap_uids.count(m.shard_domain(i).uid()))
        << "shard " << i << " domain missing from the obs snapshot";
  }
  EXPECT_TRUE(snap_uids.count(lot::reclaim::EbrDomain::global_domain().uid()));
}

TYPED_TEST(ShardedMapTest, TeardownBalancesToZero) {
  const std::uint64_t live_before = lot::reclaim::AllocStats::live();
  {
    TypeParam m;
    Xoshiro256 rng(7);
    for (int i = 0; i < 3000; ++i) {
      const K k = static_cast<K>(rng.next_below(512));
      if (rng.next_below(100) < 65) {
        m.insert(k, k);
      } else {
        m.erase(k);
      }
    }
    // Leave the map non-empty on purpose: the destructor chain (per shard:
    // map → domain drain → pool) must return every node, live or retired.
  }
  EXPECT_EQ(lot::reclaim::AllocStats::live(), live_before)
      << "sharded teardown leaked nodes";
}

TYPED_TEST(ShardedMapTest, ConcurrentChurnValidatesPerShard) {
  TypeParam m;
  constexpr unsigned kThreads = 4;
  constexpr int kOps = 6000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&m, t] {
      Xoshiro256 rng(0xA5A5 + t);
      for (int i = 0; i < kOps; ++i) {
        const K k = static_cast<K>(rng.next_below(768));
        const auto dice = rng.next_below(100);
        if (dice < 40) {
          m.contains(k);
        } else if (dice < 70) {
          m.insert(k, k);
        } else {
          m.erase(k);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // Quiescent: every shard must be a structurally valid tree (strict AVL
  // balance after repairing heights stale from abandoned climbs).
  if constexpr (TypeParam::kBalanced) m.repair_balance();
  const auto rep = lot::lo::validate(m, TypeParam::kBalanced,
                                     TypeParam::kLogicalRemoving);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  // The chain carries every present key (plus zombies, logical removing).
  EXPECT_GE(rep.chain_nodes, m.size_slow());
}

// shards=1 is the degenerate configuration the scale-out layer promises
// is free: the same op tape against ShardedMap<M, 1> and a bare M must
// agree on every single result, and on the final contents.
template <typename MapT>
class SingleShardEquivalence : public ::testing::Test {};

using InnerImpls = ::testing::Types<BstMap<K, V>, AvlMap<K, V>,
                                    PartialBstMap<K, V>, PartialAvlMap<K, V>>;
TYPED_TEST_SUITE(SingleShardEquivalence, InnerImpls);

TYPED_TEST(SingleShardEquivalence, SameOpTapeSameResults) {
  ShardedMap<TypeParam, 1> sharded;
  TypeParam plain;
  Xoshiro256 rng(1234);
  for (int i = 0; i < 8000; ++i) {
    const K k = static_cast<K>(rng.next_below(512)) - 256;
    const auto dice = rng.next_below(100);
    if (dice < 30) {
      EXPECT_EQ(sharded.contains(k), plain.contains(k)) << "op " << i;
    } else if (dice < 40) {
      EXPECT_EQ(sharded.get(k), plain.get(k)) << "op " << i;
    } else if (dice < 70) {
      EXPECT_EQ(sharded.insert(k, k * 5), plain.insert(k, k * 5))
          << "op " << i;
    } else if (dice < 95) {
      EXPECT_EQ(sharded.erase(k), plain.erase(k)) << "op " << i;
    } else {
      const K hi = k + static_cast<K>(rng.next_below(64));
      std::vector<std::pair<K, V>> a, b;
      sharded.range(k, hi,
                    [&](const K& kk, const V& vv) { a.emplace_back(kk, vv); });
      plain.range(k, hi,
                  [&](const K& kk, const V& vv) { b.emplace_back(kk, vv); });
      EXPECT_EQ(a, b) << "op " << i;
    }
  }
  EXPECT_EQ(sharded.min(), plain.min());
  EXPECT_EQ(sharded.max(), plain.max());
  std::vector<std::pair<K, V>> a, b;
  sharded.for_each([&](const K& k, const V& v) { a.emplace_back(k, v); });
  plain.for_each([&](const K& k, const V& v) { b.emplace_back(k, v); });
  EXPECT_EQ(a, b);
}

// Cross-shard merges under concurrent churn: the merged stream must stay
// strictly ascending (the heap argument) no matter how writers interleave,
// and every stably-present key must appear.
TEST(ShardedMapConcurrent, MergedScanStaysSortedUnderChurn) {
  ShardedMap<AvlMap<K, V>, 8> m;
  // Stable backbone: multiples of 5 in [0, 2000) never touched by writers.
  std::set<K> backbone;
  for (K k = 0; k < 2000; k += 5) {
    ASSERT_TRUE(m.insert(k, k));
    backbone.insert(k);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < 3; ++t) {
    writers.emplace_back([&m, &stop, t] {
      Xoshiro256 rng(77 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const K k = static_cast<K>(rng.next_below(2000));
        if (k % 5 == 0) continue;  // never touch the backbone
        if (rng.next_below(2) == 0) {
          m.insert(k, k);
        } else {
          m.erase(k);
        }
      }
    });
  }
  for (int scan = 0; scan < 50; ++scan) {
    std::vector<K> got;
    std::set<K> seen_backbone;
    m.for_each([&](const K& k, const V&) {
      got.push_back(k);
      if (k % 5 == 0) seen_backbone.insert(k);
    });
    // Strictly ascending across shard boundaries.
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
        << "merged scan yielded a duplicate key";
    // Weak consistency floor: stably-present keys always appear.
    EXPECT_EQ(seen_backbone.size(), backbone.size());
  }
  stop.store(true);
  for (auto& w : writers) w.join();
}

// Contention attribution: every contention event a shard's writers hit
// (failed validation, removal-lock retry, rebalance restart) is counted
// on the domain of the shard it happened in, never on the global domain.
TEST(ShardedMapConcurrent, ContentionEventsLandInShardDomains) {
  using MapT = ShardedMap<AvlMap<K, V>, 4>;
  MapT m;
  auto& global = lot::reclaim::EbrDomain::global_domain();
  std::uint64_t shard0[MapT::shard_count()];
  for (unsigned i = 0; i < MapT::shard_count(); ++i) {
    shard0[i] = m.shard_domain(i).contention_events();
  }
  const std::uint64_t global0 = global.contention_events();
  const auto shard_events = [&] {
    std::uint64_t n = 0;
    for (unsigned i = 0; i < MapT::shard_count(); ++i) {
      n += m.shard_domain(i).contention_events() - shard0[i];
    }
    return n;
  };

  // 64 hot keys, 16 in each shard's first block.
  for (int round = 0; round < 50 && shard_events() == 0; ++round) {
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < 4; ++t) {
      workers.emplace_back([&m, t, round] {
        Xoshiro256 rng(0xC0DE + 16 * round + t);
        for (int i = 0; i < 2000; ++i) {
          const K k = static_cast<K>(rng.next_below(4) * 64 +
                                     rng.next_below(16));
          if (rng.percent(50)) {
            m.insert(k, k);
          } else {
            m.erase(k);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
  }

  ASSERT_GT(shard_events(), 0u)
      << "no contention in 50 rounds; nothing to attribute";
  EXPECT_EQ(global.contention_events(), global0);
}

}  // namespace
