// Tests for the "logical removing" (partially-external) variant: revive
// semantics, zombie accounting, opportunistic purge, and the same
// concurrent torture the main trees get.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>
#include <functional>
#include <set>
#include <thread>
#include <vector>

#include "lo/partial.hpp"
#include "lo/validate.hpp"
#include "util/random.hpp"

namespace {

using K = std::int64_t;
using V = std::int64_t;
using lot::lo::PartialAvlMap;
using lot::lo::PartialBstMap;
using lot::util::Xoshiro256;

template <typename MapT>
class LoPartialTest : public ::testing::Test {
 protected:
  static constexpr bool kBalanced = std::is_same_v<MapT, PartialAvlMap<K, V>>;

  void expect_valid(MapT& m) {
    // Strict-height validation asserts the quiescent AVL bound; repair the
    // stale heights abandoned climbs leave behind first (DESIGN.md §13).
    if constexpr (kBalanced) m.repair_balance();
    const auto rep = lot::lo::validate(m, kBalanced, /*partial=*/true);
    EXPECT_TRUE(rep.ok) << rep.to_string();
  }
};

using Impls = ::testing::Types<PartialBstMap<K, V>, PartialAvlMap<K, V>>;
TYPED_TEST_SUITE(LoPartialTest, Impls);

TYPED_TEST(LoPartialTest, BasicRoundTrip) {
  TypeParam m;
  EXPECT_TRUE(m.insert(5, 50));
  EXPECT_FALSE(m.insert(5, 51));
  EXPECT_EQ(m.get(5).value(), 50);
  EXPECT_TRUE(m.erase(5));
  EXPECT_FALSE(m.contains(5));
  EXPECT_FALSE(m.erase(5));
  this->expect_valid(m);
}

TYPED_TEST(LoPartialTest, TwoChildRemovalLeavesZombie) {
  TypeParam m;
  for (K k : {50, 25, 75}) ASSERT_TRUE(m.insert(k, k));
  ASSERT_TRUE(m.erase(50));  // two children: logical removal
  EXPECT_FALSE(m.contains(50));
  EXPECT_EQ(m.size_slow(), 2u);
  // The zombie still occupies a physical node.
  EXPECT_EQ(m.physical_nodes_slow(), 3u);
  this->expect_valid(m);
}

TYPED_TEST(LoPartialTest, ReviveReusesNodeAndUpdatesValue) {
  TypeParam m;
  for (K k : {50, 25, 75}) ASSERT_TRUE(m.insert(k, k));
  ASSERT_TRUE(m.erase(50));
  const auto before = lot::reclaim::AllocStats::allocated().load();
  ASSERT_TRUE(m.insert(50, 999));  // revive reuses the node
  // The node is reused, but the revive folds the outgoing incarnation
  // into one PastVersion record for snapshot readers (DESIGN.md §16).
  EXPECT_EQ(lot::reclaim::AllocStats::allocated().load(), before + 1);
  EXPECT_EQ(m.get(50).value(), 999);
  EXPECT_EQ(m.size_slow(), 3u);
  this->expect_valid(m);
}

TYPED_TEST(LoPartialTest, LeafRemovalIsPhysical) {
  TypeParam m;
  for (K k : {50, 25, 75}) ASSERT_TRUE(m.insert(k, k));
  ASSERT_TRUE(m.erase(25));  // leaf: physical removal
  EXPECT_EQ(m.physical_nodes_slow(), 2u);
  this->expect_valid(m);
}

TYPED_TEST(LoPartialTest, PurgeDrainsZombies) {
  TypeParam m;
  // Median-order fill so internal nodes have two children, then erase
  // every key: two-children erases leave zombies. A zombie with two live
  // children is *not* purgeable (that is the design's cost); once all
  // keys are logically gone, purging must cascade the whole tree away.
  std::vector<K> order;
  const std::function<void(K, K)> fill = [&](K lo, K hi) {
    if (lo > hi) return;
    const K mid = lo + (hi - lo) / 2;
    order.push_back(mid);
    fill(lo, mid - 1);
    fill(mid + 1, hi);
  };
  fill(0, 62);
  for (K k : order) ASSERT_TRUE(m.insert(k, k));
  for (K k = 0; k <= 62; ++k) ASSERT_TRUE(m.erase(k));
  EXPECT_EQ(m.size_slow(), 0u);
  m.purge_all();
  EXPECT_EQ(m.physical_nodes_slow(), 0u);  // all zombies cascaded away
  this->expect_valid(m);
}

TYPED_TEST(LoPartialTest, DifferentialVsStdMap) {
  TypeParam m;
  std::map<K, V> oracle;
  Xoshiro256 rng(11);
  for (int i = 0; i < 100'000; ++i) {
    const K k = rng.next_in(0, 399);
    switch (rng.next_below(4)) {
      case 0:
        ASSERT_EQ(m.insert(k, i), oracle.emplace(k, i).second) << k;
        break;
      case 1:
        ASSERT_EQ(m.erase(k), oracle.erase(k) > 0) << k;
        break;
      case 2:
        ASSERT_EQ(m.contains(k), oracle.count(k) > 0) << k;
        break;
      default: {
        const auto mine = m.get(k);
        ASSERT_EQ(mine.has_value(), oracle.count(k) > 0) << k;
      }
    }
  }
  ASSERT_EQ(m.size_slow(), oracle.size());
  auto it = oracle.begin();
  m.for_each([&](K k, V) {
    ASSERT_NE(it, oracle.end());
    EXPECT_EQ(it->first, k);
    ++it;
  });
  EXPECT_EQ(it, oracle.end());
  this->expect_valid(m);
  m.purge_all();
  EXPECT_EQ(m.size_slow(), oracle.size());
  this->expect_valid(m);
}

TYPED_TEST(LoPartialTest, StableKeysAlwaysFoundDuringChurn) {
  TypeParam m;
  constexpr K kStride = 10;
  constexpr K kRange = 2'000;
  for (K k = 0; k < kRange; k += kStride) ASSERT_TRUE(m.insert(k, k));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const K k = rng.next_below(kRange / kStride) * kStride;
        if (!m.contains(k)) misses.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      Xoshiro256 rng(100 + t);
      for (int i = 0; i < 50'000; ++i) {
        K k = static_cast<K>(rng.next_below(kRange));
        if (k % kStride == 0) ++k;
        if (rng.percent(50)) {
          m.insert(k, k);
        } else {
          m.erase(k);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop = true;
  for (auto& th : threads) th.join();
  EXPECT_EQ(misses.load(), 0u);
  this->expect_valid(m);
}

TYPED_TEST(LoPartialTest, DisjointPartitionsDeterministicResult) {
  TypeParam m;
  constexpr int kThreads = 6;
  constexpr K kPerThread = 256;
  std::vector<std::set<K>> expected(kThreads);
  std::vector<std::thread> threads;
  std::atomic<bool> bad{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(900 + t);
      auto& mine = expected[t];
      const K base = static_cast<K>(t) * kPerThread;
      for (int i = 0; i < 30'000; ++i) {
        const K k = base + static_cast<K>(rng.next_below(kPerThread));
        if (rng.percent(55)) {
          if (m.insert(k, k) != (mine.count(k) == 0)) bad = true;
          mine.insert(k);
        } else {
          if (m.erase(k) != (mine.count(k) > 0)) bad = true;
          mine.erase(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(bad.load());
  std::set<K> all;
  for (const auto& s : expected) all.insert(s.begin(), s.end());
  EXPECT_EQ(m.size_slow(), all.size());
  for (K k : all) EXPECT_TRUE(m.contains(k));
  this->expect_valid(m);
  m.purge_all();
  EXPECT_EQ(m.size_slow(), all.size());
  this->expect_valid(m);
}

TYPED_TEST(LoPartialTest, ReviveRaceSingleKey) {
  // Hammer insert/erase of one key: revive vs logical-delete vs purge.
  TypeParam m;
  // Give key 77 two children so removals are logical.
  ASSERT_TRUE(m.insert(77, 0));
  ASSERT_TRUE(m.insert(50, 0));
  ASSERT_TRUE(m.insert(90, 0));
  std::atomic<long> ins{0};
  std::atomic<long> ers{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t);
      for (int i = 0; i < 30'000; ++i) {
        if (rng.percent(50)) {
          if (m.insert(77, t)) ins.fetch_add(1);
        } else {
          if (m.erase(77)) ers.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const long delta = ins.load() + 1 - ers.load();  // +1 initial insert
  ASSERT_TRUE(delta == 0 || delta == 1) << delta;
  EXPECT_EQ(m.contains(77), delta == 1);
  this->expect_valid(m);
}

TYPED_TEST(LoPartialTest, RangeNextPrevSkipZombies) {
  TypeParam m;
  for (K k = 0; k < 100; k += 10) ASSERT_TRUE(m.insert(k, k));
  // Turn 40/50/60 into zombies (they have two children in most shapes; if
  // not, they are physically removed — either way logically absent).
  for (K k : {40, 50, 60}) ASSERT_TRUE(m.erase(k));

  std::vector<K> got;
  m.range(25, 85, [&](K k, V) { got.push_back(k); });
  EXPECT_EQ(got, (std::vector<K>{30, 70, 80}));

  EXPECT_EQ(m.next(30).value().first, 70);   // hops all three zombies
  EXPECT_EQ(m.prev(70).value().first, 30);
  EXPECT_EQ(m.next(39).value().first, 70);
  EXPECT_FALSE(m.next(90).has_value());
  EXPECT_FALSE(m.prev(0).has_value());

  // Revive one and the queries must see it again.
  ASSERT_TRUE(m.insert(50, 555));
  EXPECT_EQ(m.next(30).value(), (std::pair<K, V>{50, 555}));
  EXPECT_EQ(m.prev(70).value().first, 50);
  got.clear();
  m.range(45, 55, [&](K k, V) { got.push_back(k); });
  EXPECT_EQ(got, (std::vector<K>{50}));
  this->expect_valid(m);
}

TYPED_TEST(LoPartialTest, NextPrevDifferentialVsStdMap) {
  TypeParam m;
  std::map<K, V> oracle;
  Xoshiro256 rng(21);
  for (int i = 0; i < 20'000; ++i) {
    const K k = rng.next_in(0, 299);
    if (rng.percent(55)) {
      m.insert(k, k);
      oracle.emplace(k, k);
    } else {
      m.erase(k);
      oracle.erase(k);
    }
    if (i % 20 == 0) {
      const K probe = rng.next_in(-5, 305);
      const auto nx = m.next(probe);
      auto it = oracle.upper_bound(probe);
      ASSERT_EQ(nx.has_value(), it != oracle.end()) << probe;
      if (nx) {
        ASSERT_EQ(nx->first, it->first) << probe;
      }
      const auto pv = m.prev(probe);
      auto lo = oracle.lower_bound(probe);
      ASSERT_EQ(pv.has_value(), lo != oracle.begin()) << probe;
      if (pv) {
        ASSERT_EQ(pv->first, std::prev(lo)->first) << probe;
      }
    }
  }
}

// Quiescent strict balance for the balanced flavour, zombies included.
TEST(LoPartialAvl, QuiescentBalanceAfterChurn) {
  PartialAvlMap<K, V> m;
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(55 + t);
      for (int i = 0; i < 50'000; ++i) {
        const K k = static_cast<K>(rng.next_below(10'000));
        if (rng.percent(55)) {
          m.insert(k, k);
        } else {
          m.erase(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  m.repair_balance();  // repair heights stale from abandoned climbs
  const auto rep = lot::lo::validate(m, true, true);
  ASSERT_TRUE(rep.ok) << rep.to_string();
  m.purge_all();
  m.repair_balance();  // purge may rotate; re-converge before the re-check
  const auto rep2 = lot::lo::validate(m, true, true);
  ASSERT_TRUE(rep2.ok) << rep2.to_string();
}

}  // namespace
