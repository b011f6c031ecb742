// Directed concurrency scenarios from the paper, plus linearizability-
// flavoured observational checks.
//
// Figure 1's interleaving (contains(7) racing remove(3), where 7 is
// relocated into 3's position) cannot be frozen mid-operation without
// scheduler hooks, so these tests run the exact scenario shape in a tight
// loop: with enough repetitions under preemption every window is hit.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "lo/avl.hpp"
#include "lo/bst.hpp"
#include "lo/mvcc.hpp"
#include "lo/validate.hpp"
#include "util/random.hpp"

namespace {

using K = std::int64_t;
using V = std::int64_t;
using lot::lo::AvlMap;
using lot::lo::BstMap;
using lot::util::Xoshiro256;

template <typename MapT>
class ScenarioTest : public ::testing::Test {};
using Impls = ::testing::Types<BstMap<K, V>, AvlMap<K, V>>;
TYPED_TEST_SUITE(ScenarioTest, Impls);

// Figure 1: the tree {1,3,7,9} where remove(3) relocates 7 (3's successor)
// into 3's position. A concurrent contains(7) must never return false —
// this is precisely the interleaving the logical ordering exists to fix.
TYPED_TEST(ScenarioTest, Figure1RelocationNeverHidesTheSuccessor) {
  TypeParam m;
  for (K k : {9, 1, 3, 7}) ASSERT_TRUE(m.insert(k, k));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!m.contains(7)) misses.fetch_add(1);
    }
  });
  std::thread mutator([&] {
    for (int i = 0; i < 200'000; ++i) {
      m.erase(3);      // 3 has two children; 7 is its successor
      m.insert(3, 3);  // restore the shape for the next round
    }
  });
  mutator.join();
  stop = true;
  reader.join();

  EXPECT_EQ(misses.load(), 0u)
      << "contains(7) observed the Figure-1 lost-node anomaly";
  if constexpr (std::is_same_v<TypeParam, AvlMap<K, V>>) {
    m.repair_balance();  // repair heights stale from abandoned climbs
  }
  const auto rep = lot::lo::validate(
      m, std::is_same_v<TypeParam, AvlMap<K, V>>);
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

// Dual of Figure 1: a key that is never in the tree must never be
// reported present, no matter how the physical layout churns.
TYPED_TEST(ScenarioTest, AbsentKeyNeverAppears) {
  TypeParam m;
  constexpr K kGhost = 500;  // never inserted
  for (K k = 0; k < 1'000; ++k) {
    if (k != kGhost) m.insert(k, k);
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> phantom{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (m.contains(kGhost)) phantom.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      Xoshiro256 rng(t);
      for (int i = 0; i < 80'000; ++i) {
        K k = rng.next_in(0, 999);
        if (k == kGhost) ++k;
        if (rng.percent(50)) {
          m.erase(k);
        } else {
          m.insert(k, k);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop = true;
  reader.join();
  EXPECT_EQ(phantom.load(), 0u);
}

// Stamped-value monotonicity: one writer alternates insert(k, stamp++) /
// erase(k); every reader's sequence of observed stamps must be
// non-decreasing (an old value resurfacing would mean a lookup read a
// node that had already been superseded — a linearizability violation).
TYPED_TEST(ScenarioTest, ObservedStampsNeverGoBackwards) {
  TypeParam m;
  // Surround the hot key so it is an internal node (2C-removals).
  ASSERT_TRUE(m.insert(40, -1));
  ASSERT_TRUE(m.insert(60, -1));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> regressions{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      V last = -1;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto v = m.get(50);
        if (v) {
          if (*v < last) regressions.fetch_add(1);
          last = *v;
        }
      }
    });
  }
  std::thread writer([&] {
    for (V stamp = 0; stamp < 150'000; ++stamp) {
      m.insert(50, stamp);
      m.erase(50);
    }
  });
  writer.join();
  stop = true;
  for (auto& th : readers) th.join();
  EXPECT_EQ(regressions.load(), 0u);
}

// A remove must be "on time": the moment erase(k) returns, a fresh
// insert(k) must succeed (the slot cannot be blocked by a zombie), and
// the physical node count at quiescence must equal the live set.
TYPED_TEST(ScenarioTest, OnTimeDeletionAllowsImmediateReinsert) {
  TypeParam m;
  std::vector<std::thread> threads;
  std::atomic<bool> bad{false};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t);
      const K base = t * 1'000;
      for (int i = 0; i < 20'000; ++i) {
        const K k = base + rng.next_in(0, 99);
        if (m.insert(k, i)) {
          if (!m.erase(k)) bad = true;        // we own k: must succeed
          if (!m.insert(k, i + 1)) bad = true;  // immediately reusable
          if (!m.erase(k)) bad = true;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(m.size_slow(), 0u);
  if constexpr (std::is_same_v<TypeParam, AvlMap<K, V>>) {
    m.repair_balance();  // repair heights stale from abandoned climbs
  }
  const auto rep = lot::lo::validate(
      m, std::is_same_v<TypeParam, AvlMap<K, V>>);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(rep.tree_nodes, 0u);  // no zombies: physical == live == 0
}

// The §5.1 lock-ordering argument, exercised: many threads doing the
// operations whose lock sets overlap maximally (adjacent keys, 2-children
// removals, rebalancing) must never deadlock. A watchdog fails the test
// if progress stalls.
TYPED_TEST(ScenarioTest, NoDeadlockUnderAdjacentKeyContention) {
  TypeParam m;
  for (K k = 0; k < 64; ++k) m.insert(k, k);
  std::atomic<std::uint64_t> progress{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t);
      for (int i = 0; i < 30'000 && !stop.load(std::memory_order_relaxed);
           ++i) {
        const K k = rng.next_in(0, 63);
        if (rng.percent(50)) {
          m.insert(k, k);
        } else {
          m.erase(k);
        }
        progress.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Watchdog: if the op counter freezes for 30s, declare deadlock.
  std::uint64_t last = 0;
  int stalls = 0;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const auto now = progress.load(std::memory_order_relaxed);
    if (now >= 8u * 30'000u) break;
    if (now == last && ++stalls > 60) {
      stop = true;
      for (auto& th : threads) th.detach();
      FAIL() << "no progress for 30s: deadlock (ops=" << now << ")";
    }
    if (now != last) stalls = 0;
    last = now;
  }
  for (auto& th : threads) th.join();
  if constexpr (std::is_same_v<TypeParam, AvlMap<K, V>>) {
    m.repair_balance();  // repair heights stale from abandoned climbs
  }
  const auto rep = lot::lo::validate(
      m, std::is_same_v<TypeParam, AvlMap<K, V>>);
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

// The order-book scenario (examples/orderbook.cpp) with the snapshot
// layer closing its documented gap: bids and asks are two independent
// maps, so reading best-bid then best-ask non-atomically can observe a
// *crossed* book (bid >= ask) while the writer drifts the mid price —
// even though no single instant of the writer's history is ever crossed.
// Both sides live on the global EBR domain, so they already read one
// epoch clock, and a two-phase composite snapshot (reserve on both,
// draw ONE cut, adopt on both) reads the pair at a single instant, where
// crossing is impossible.
TEST(OrderBookScenario, SnapshotNeverObservesCrossedBook) {
  AvlMap<K, V> bids;
  AvlMap<K, V> asks;
  auto& clock = bids.epoch_source();
  ASSERT_EQ(&clock, &asks.epoch_source());

  // State at mid m: bids = {m - 1}, asks = {m + 1}. Every step keeps
  // max(bids) < min(asks) at each intermediate instant.
  constexpr K kLow = 1'000, kHigh = 1'200;
  K mid = kLow;
  ASSERT_TRUE(bids.insert(mid - 1, 1));
  ASSERT_TRUE(asks.insert(mid + 1, 1));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int dir = +1;
    while (!stop.load(std::memory_order_relaxed)) {
      const K next = mid + dir;
      if (dir > 0) {
        // Up: grow the ask side away from the touch first.
        asks.insert(next + 1, 1);
        asks.erase(mid + 1);
        bids.insert(next - 1, 1);
        bids.erase(mid - 1);
      } else {
        // Down: grow the bid side away from the touch first.
        bids.insert(next - 1, 1);
        bids.erase(mid - 1);
        asks.insert(next + 1, 1);
        asks.erase(mid + 1);
      }
      mid = next;
      if (mid == kHigh || mid == kLow) dir = -dir;
    }
  });

  const auto best_of = [](const auto& snap, bool want_max) {
    std::optional<K> best;
    snap.for_each([&](K k, V) {
      if (!best.has_value() || (want_max ? k > *best : k < *best)) best = k;
    });
    return best;
  };

  std::uint64_t weak_crossed = 0;
  for (int round = 0; round < 20'000; ++round) {
    // Weak pair read, ask side first: with the mid drifting up between
    // the two calls the bid can overtake the stale ask. Counted, not
    // asserted — it documents the gap the snapshot closes.
    const auto weak_ask = asks.min();
    const auto weak_bid = bids.max();
    if (weak_ask && weak_bid && weak_bid->first >= weak_ask->first) {
      ++weak_crossed;
    }

    // Composite snapshot: one cut across BOTH maps.
    auto bid_ticket = bids.snapshot_reserve();
    auto ask_ticket = asks.snapshot_reserve();
    const auto cut = clock.cut();
    const auto bid_snap = bids.snapshot_adopt(std::move(bid_ticket), cut);
    const auto ask_snap = asks.snapshot_adopt(std::move(ask_ticket), cut);
    const auto bb = best_of(bid_snap, /*want_max=*/true);
    const auto ba = best_of(ask_snap, /*want_max=*/false);
    ASSERT_TRUE(bb.has_value());
    ASSERT_TRUE(ba.has_value());
    ASSERT_LT(*bb, *ba) << "snapshot observed a crossed book (round "
                        << round << "): bid " << *bb << " >= ask " << *ba;
  }
  stop = true;
  writer.join();
  // Informational: the weak read's crossings are expected to be nonzero
  // on most runs, but a lucky schedule may legitimately produce none.
  if (weak_crossed > 0) {
    SUCCEED() << weak_crossed << " transient weak-read crossings closed "
              << "by the snapshot path";
  }
}

}  // namespace
