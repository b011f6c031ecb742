// One typed suite for every baseline implementation: the lock-free skip
// list, EFRB external BST, Bronson BCCO tree, Crain contention-friendly
// tree, the chromatic-style LLX/SCX tree, and the coarse-locked std::map.
// All of them must pass the exact same functional and concurrency tests
// the logical-ordering trees pass.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <type_traits>
#include <vector>

#include "adapters/map_concept.hpp"
#include "baselines/bronson/bronson.hpp"
#include "baselines/cf/cf_tree.hpp"
#include "baselines/chromatic/chromatic.hpp"
#include "baselines/coarse/coarse_map.hpp"
#include "baselines/efrb/efrb.hpp"
#include "baselines/hj/hj_tree.hpp"
#include "baselines/skiplist/skiplist.hpp"
#include "reclaim/ebr.hpp"
#include "util/random.hpp"

// Whole-suite sanitizer presets (tsan/asan) define LOT_STRESS_DIVISOR > 1
// to shrink the stress loops to fit the per-test timeout; the default
// preset runs them at full size.
#ifndef LOT_STRESS_DIVISOR
#define LOT_STRESS_DIVISOR 1
#endif

namespace {

using K = std::int64_t;
using V = std::int64_t;
using lot::util::Xoshiro256;

constexpr int scaled(int n) {
  return n / LOT_STRESS_DIVISOR > 0 ? n / LOT_STRESS_DIVISOR : 1;
}

using Impls = ::testing::Types<
    lot::baselines::SkipListMap<K, V>, lot::baselines::EfrbMap<K, V>,
    lot::baselines::BronsonMap<K, V>, lot::baselines::CfTreeMap<K, V>,
    lot::baselines::ChromaticMap<K, V>, lot::baselines::HjTreeMap<K, V>,
    lot::baselines::CoarseMap<K, V>>;

static_assert(
    lot::adapters::OrderedMap<lot::baselines::SkipListMap<K, V>> &&
    lot::adapters::OrderedMap<lot::baselines::EfrbMap<K, V>> &&
    lot::adapters::OrderedMap<lot::baselines::BronsonMap<K, V>> &&
    lot::adapters::OrderedMap<lot::baselines::CfTreeMap<K, V>> &&
    lot::adapters::OrderedMap<lot::baselines::ChromaticMap<K, V>> &&
    lot::adapters::OrderedMap<lot::baselines::HjTreeMap<K, V>> &&
    lot::adapters::OrderedMap<lot::baselines::CoarseMap<K, V>>);

template <typename MapT>
class BaselineTest : public ::testing::Test {};
TYPED_TEST_SUITE(BaselineTest, Impls);

TYPED_TEST(BaselineTest, EmptyBehaviour) {
  TypeParam m;
  EXPECT_FALSE(m.contains(1));
  EXPECT_FALSE(m.get(1).has_value());
  EXPECT_FALSE(m.erase(1));
  EXPECT_FALSE(m.min().has_value());
  EXPECT_FALSE(m.max().has_value());
  EXPECT_EQ(m.size_slow(), 0u);
}

TYPED_TEST(BaselineTest, InsertGetEraseRoundTrip) {
  TypeParam m;
  EXPECT_TRUE(m.insert(7, 70));
  EXPECT_FALSE(m.insert(7, 71));
  EXPECT_TRUE(m.contains(7));
  EXPECT_EQ(m.get(7).value(), 70);
  EXPECT_FALSE(m.contains(6));
  EXPECT_TRUE(m.erase(7));
  EXPECT_FALSE(m.erase(7));
  EXPECT_FALSE(m.contains(7));
  EXPECT_TRUE(m.insert(7, 72));  // reinsert after remove
  EXPECT_EQ(m.get(7).value(), 72);
}

TYPED_TEST(BaselineTest, MinMaxOrderedIteration) {
  TypeParam m;
  for (K k : {7, 3, 9, 1, 5}) ASSERT_TRUE(m.insert(k, k * 10));
  EXPECT_EQ(m.min().value().first, 1);
  EXPECT_EQ(m.max().value().first, 9);
  std::vector<K> keys;
  m.for_each([&](K k, V v) {
    keys.push_back(k);
    EXPECT_EQ(v, k * 10);
  });
  EXPECT_EQ(keys, (std::vector<K>{1, 3, 5, 7, 9}));
  ASSERT_TRUE(m.erase(1));
  ASSERT_TRUE(m.erase(9));
  EXPECT_EQ(m.min().value().first, 3);
  EXPECT_EQ(m.max().value().first, 7);
}

TYPED_TEST(BaselineTest, TwoChildrenStyleRemovals) {
  TypeParam m;
  for (K k : {50, 25, 75, 10, 30, 60, 90}) ASSERT_TRUE(m.insert(k, k));
  ASSERT_TRUE(m.erase(50));
  ASSERT_TRUE(m.erase(25));
  for (K k : {75, 10, 30, 60, 90}) EXPECT_TRUE(m.contains(k)) << k;
  EXPECT_FALSE(m.contains(50));
  EXPECT_FALSE(m.contains(25));
  EXPECT_EQ(m.size_slow(), 5u);
}

TYPED_TEST(BaselineTest, DifferentialVsStdMap) {
  TypeParam m;
  std::map<K, V> oracle;
  Xoshiro256 rng(4242);
  for (int i = 0; i < scaled(60'000); ++i) {
    const K k = rng.next_in(0, 299);
    switch (rng.next_below(4)) {
      case 0:
        ASSERT_EQ(m.insert(k, i), oracle.emplace(k, i).second) << "key " << k;
        break;
      case 1:
        ASSERT_EQ(m.erase(k), oracle.erase(k) > 0) << "key " << k;
        break;
      case 2:
        ASSERT_EQ(m.contains(k), oracle.count(k) > 0) << "key " << k;
        break;
      default: {
        const auto mine = m.get(k);
        const auto it = oracle.find(k);
        ASSERT_EQ(mine.has_value(), it != oracle.end()) << "key " << k;
        if (mine) {
          ASSERT_EQ(*mine, it->second);
        }
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
}

TYPED_TEST(BaselineTest, StableKeysAlwaysFoundDuringChurn) {
  TypeParam m;
  constexpr K kStride = 10;
  constexpr K kRange = 1'500;
  for (K k = 0; k < kRange; k += kStride) ASSERT_TRUE(m.insert(k, k));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
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
      for (int i = 0; i < scaled(40'000); ++i) {
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
  for (auto& th : readers) th.join();
  EXPECT_EQ(misses.load(), 0u);
  for (K k = 0; k < kRange; k += kStride) EXPECT_TRUE(m.contains(k));
}

TYPED_TEST(BaselineTest, DisjointPartitionsDeterministicResult) {
  TypeParam m;
  constexpr int kThreads = 6;
  constexpr K kPerThread = 256;
  std::vector<std::set<K>> expected(kThreads);
  std::vector<std::thread> threads;
  std::atomic<bool> bad{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(7000 + t);
      auto& mine = expected[t];
      const K base = static_cast<K>(t) * kPerThread;
      for (int i = 0; i < scaled(25'000); ++i) {
        const K k = base + static_cast<K>(rng.next_below(kPerThread));
        if (rng.percent(60)) {
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
  for (K k : all) EXPECT_TRUE(m.contains(k)) << k;
  std::vector<K> in_order;
  m.for_each([&](K k, V) { in_order.push_back(k); });
  EXPECT_TRUE(
      std::equal(in_order.begin(), in_order.end(), all.begin(), all.end()));
}

TYPED_TEST(BaselineTest, SingleKeyContention) {
  TypeParam m;
  constexpr int kThreads = 6;
  std::atomic<long> ins{0};
  std::atomic<long> ers{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t);
      for (int i = 0; i < scaled(20'000); ++i) {
        if (rng.percent(50)) {
          if (m.insert(77, t)) ins.fetch_add(1);
        } else {
          if (m.erase(77)) ers.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const long delta = ins.load() - ers.load();
  ASSERT_TRUE(delta == 0 || delta == 1) << delta;
  EXPECT_EQ(m.contains(77), delta == 1);
  EXPECT_EQ(m.size_slow(), static_cast<std::size_t>(delta));
}

TYPED_TEST(BaselineTest, SharedKeyspaceMixedStress) {
  TypeParam m;
  constexpr int kThreads = 6;
  constexpr K kRange = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(13 * t + 1);
      for (int i = 0; i < scaled(30'000); ++i) {
        const K k = static_cast<K>(rng.next_below(kRange));
        switch (rng.next_below(3)) {
          case 0:
            m.insert(k, k);
            break;
          case 1:
            m.erase(k);
            break;
          default:
            m.contains(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Structure must still answer queries coherently: iteration sorted,
  // membership matches iteration.
  std::vector<K> keys;
  m.for_each([&](K k, V) { keys.push_back(k); });
  for (std::size_t i = 1; i < keys.size(); ++i) {
    ASSERT_LT(keys[i - 1], keys[i]);
  }
  for (K k : keys) EXPECT_TRUE(m.contains(k));
}

// Every EBR-backed baseline accepts a caller-supplied domain — the same
// contract the sharding layer (src/shard/) builds on for the LO trees, so
// baselines can run comparison cells inside private reclamation universes.
// Churn + teardown on a private domain: retired nodes must drain through
// it and the ASan/LSan build fails on anything left behind. CoarseMap
// (mutex + std::map, no deferred reclamation) legitimately has no domain
// parameter and skips.
TYPED_TEST(BaselineTest, RunsOnAPrivateEbrDomain) {
  if constexpr (std::is_constructible_v<TypeParam,
                                        lot::reclaim::EbrDomain&>) {
    lot::reclaim::EbrDomain domain;
    {
      TypeParam m(domain);
      for (K k = 0; k < 512; ++k) ASSERT_TRUE(m.insert(k, k));
      for (K k = 0; k < 512; k += 2) ASSERT_TRUE(m.erase(k));
      for (K k = 1; k < 512; k += 2) EXPECT_TRUE(m.contains(k));
      for (K k = 0; k < 512; k += 2) EXPECT_FALSE(m.contains(k));
      // No assertion on the domain's backlog: eager-removal baselines
      // retire on erase, but lazy ones (CF's logical deletion) may retire
      // nothing in this workload. The contract under test is that the map
      // runs entirely on the caller's domain and tears down clean — the
      // ASan/LSan stage turns any node that escaped it into a failure.
    }  // map first, then the domain drains what the map retired
  } else {
    GTEST_SKIP() << "baseline performs no deferred reclamation";
  }
}

// The CF tree's maintenance thread goes on rotating after the client
// stops. A rotation clones the node that moves down and leaves the
// original's outgoing pointers in place, so an in-order sweep parked on
// the original once saw a subtree twice (size_slow 151 against 144 keys in
// DifferentialVsStdMap). Ascending inserts build a spine the maintenance
// thread is still rebalancing while the sweeps run.
TEST(CfTreeSweep, ExactWhileMaintenanceRotates) {
  constexpr K kKeys = 2'000;
  for (int round = 0; round < scaled(20); ++round) {
    lot::baselines::CfTreeMap<K, V> m;
    for (K k = 0; k < kKeys; ++k) ASSERT_TRUE(m.insert(k, k));
    for (int sweep = 0; sweep < 200; ++sweep) {
      K expect = 0;
      m.for_each([&](K k, V) {
        ASSERT_EQ(k, expect) << "round " << round << " sweep " << sweep;
        ++expect;
      });
      ASSERT_EQ(expect, kKeys) << "round " << round << " sweep " << sweep;
    }
  }
}

// A sweep parked while the maintenance thread rebalances runs on through
// the retired fragments, where an original and its clone both lead to
// the same subtree. Re-walking swept subtrees along every such path
// multiplied the work with each rotation: this sweep, parked on its first
// key until the ascending spine is balanced, never finished, and
// ExactWhileMaintenanceRotates hung 2 runs in 100 with four copies
// running at once.
TEST(CfTreeSweep, SweepParkedThroughRebalanceFinishes) {
  constexpr K kKeys = 2'000;
  lot::baselines::CfTreeMap<K, V> m;
  for (K k = 0; k < kKeys; ++k) ASSERT_TRUE(m.insert(k, k));
  K expect = 0;
  m.for_each([&](K k, V) {
    if (k == 0) {
      EXPECT_TRUE(m.quiesce()) << "no quiet maintenance pass";
    }
    EXPECT_EQ(k, expect);
    ++expect;
  });
  EXPECT_EQ(expect, kKeys);
}

}  // namespace
