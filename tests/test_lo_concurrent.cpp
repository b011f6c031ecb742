// Concurrent stress tests for the logical-ordering trees. The machine may
// have any number of cores; preemption alone produces adversarial
// interleavings, and every test ends with a full structural validation at
// quiescence.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "lo/avl.hpp"
#include "lo/bst.hpp"
#include "lo/validate.hpp"
#include "sync/barrier.hpp"
#include "util/random.hpp"

// Instrumented duplicates of this binary (the *_tsan targets in
// tests/CMakeLists.txt) define LOT_STRESS_DIVISOR ~ 20: ThreadSanitizer
// costs an order of magnitude in throughput, and the interleavings it
// checks do not need as many iterations to surface.
#ifndef LOT_STRESS_DIVISOR
#define LOT_STRESS_DIVISOR 1
#endif

namespace {

constexpr int scaled(int n) {
  return n / LOT_STRESS_DIVISOR > 0 ? n / LOT_STRESS_DIVISOR : 1;
}

using lot::lo::AvlMap;
using lot::lo::BstMap;
using lot::sync::ThreadBarrier;
using lot::util::Xoshiro256;

using K = std::int64_t;
using V = std::int64_t;

template <typename MapT>
class LoConcurrentTest : public ::testing::Test {
 protected:
  static constexpr bool kBalanced = std::is_same_v<MapT, AvlMap<K, V>>;

  void expect_valid(MapT& m) {
    // Strict-height validation asserts the quiescent AVL bound; repair the
    // stale heights abandoned climbs leave behind first (DESIGN.md §13).
    if constexpr (kBalanced) m.repair_balance();
    const auto rep = lot::lo::validate(m, kBalanced);
    EXPECT_TRUE(rep.ok) << rep.to_string();
  }
};

using Impls = ::testing::Types<BstMap<K, V>, AvlMap<K, V>>;
TYPED_TEST_SUITE(LoConcurrentTest, Impls);

// The paper's headline guarantee (Figure 1): a key that is continuously in
// the tree must never be reported absent by a concurrent lookup, no matter
// how much the physical layout churns around it.
TYPED_TEST(LoConcurrentTest, StableKeysAlwaysFoundDuringChurn) {
  TypeParam m;
  constexpr K kStableStride = 10;
  constexpr K kRange = 2'000;
  // Stable keys: multiples of the stride. Writers never touch them.
  for (K k = 0; k < kRange; k += kStableStride) ASSERT_TRUE(m.insert(k, k));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> misses{0};
  constexpr int kReaders = 3;
  constexpr int kWriters = 3;
  std::vector<std::thread> threads;

  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const K k = rng.next_below(kRange / kStableStride) * kStableStride;
        if (!m.contains(k)) misses.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(2000 + t);
      for (int i = 0; i < scaled(60'000); ++i) {
        K k = static_cast<K>(rng.next_below(kRange));
        if (k % kStableStride == 0) ++k;  // never a stable key
        if (rng.percent(50)) {
          m.insert(k, k);
        } else {
          m.erase(k);
        }
      }
    });
  }
  // Writers are bounded; stop readers once they are done.
  for (int t = kReaders; t < kReaders + kWriters; ++t) threads[t].join();
  stop = true;
  for (int t = 0; t < kReaders; ++t) threads[t].join();

  EXPECT_EQ(misses.load(), 0u)
      << "lock-free contains missed a key that was always present";
  for (K k = 0; k < kRange; k += kStableStride) EXPECT_TRUE(m.contains(k));
  this->expect_valid(m);
}

// Disjoint key partitions give each thread a deterministic view: the final
// contents must be exactly the union of the per-thread expectations.
TYPED_TEST(LoConcurrentTest, DisjointPartitionsDeterministicResult) {
  TypeParam m;
  constexpr int kThreads = 8;
  constexpr K kPerThread = 512;
  std::vector<std::set<K>> expected(kThreads);
  ThreadBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  std::atomic<bool> op_result_bad{false};

  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(42 + t);
      auto& mine = expected[t];
      const K base = static_cast<K>(t) * kPerThread;
      barrier.arrive_and_wait();
      for (int i = 0; i < scaled(40'000); ++i) {
        const K k = base + static_cast<K>(rng.next_below(kPerThread));
        if (rng.percent(60)) {
          const bool did = m.insert(k, k);
          if (did != (mine.count(k) == 0)) op_result_bad = true;
          mine.insert(k);
        } else {
          const bool did = m.erase(k);
          if (did != (mine.count(k) > 0)) op_result_bad = true;
          mine.erase(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_FALSE(op_result_bad.load())
      << "an operation's return value disagreed with this thread's "
         "single-writer view of its own partition";

  std::set<K> all;
  for (const auto& s : expected) all.insert(s.begin(), s.end());
  EXPECT_EQ(m.size_slow(), all.size());
  for (K k : all) EXPECT_TRUE(m.contains(k));
  std::vector<K> in_order;
  m.for_each([&](K k, V) { in_order.push_back(k); });
  EXPECT_TRUE(std::equal(in_order.begin(), in_order.end(), all.begin(),
                         all.end()));
  this->expect_valid(m);
}

// Fully shared keyspace, all operation types, then structural validation.
TYPED_TEST(LoConcurrentTest, SharedKeyspaceMixedStress) {
  TypeParam m;
  constexpr int kThreads = 8;
  constexpr K kRange = 256;  // small range = maximal contention
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(7 * t + 1);
      for (int i = 0; i < scaled(50'000); ++i) {
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
  this->expect_valid(m);
}

// Heavy two-children removals: a dense tree where erases target internal
// nodes, racing lock-free readers (the hardest path: successor relocation).
TYPED_TEST(LoConcurrentTest, TwoChildRemovalTorture) {
  TypeParam m;
  constexpr K kRange = 4'096;
  for (K k = 0; k < kRange; ++k) ASSERT_TRUE(m.insert(k, k));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> false_negatives{0};
  std::thread reader([&] {
    Xoshiro256 rng(5);
    while (!stop.load(std::memory_order_relaxed)) {
      // Keys ending in 0 are never removed below.
      const K k = rng.next_below(kRange / 10) * 10;
      if (!m.contains(k)) false_negatives.fetch_add(1);
    }
  });

  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      Xoshiro256 rng(100 + t);
      for (int i = 0; i < scaled(40'000); ++i) {
        K k = static_cast<K>(rng.next_below(kRange));
        if (k % 10 == 0) ++k;
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

  EXPECT_EQ(false_negatives.load(), 0u);
  this->expect_valid(m);
}

// min/max under concurrent removal of extremes must return some key that
// is plausible (within the live range) and never crash or loop forever.
TYPED_TEST(LoConcurrentTest, MinMaxUnderChurn) {
  TypeParam m;
  constexpr K kRange = 1'000;
  for (K k = 0; k < kRange; ++k) ASSERT_TRUE(m.insert(k, k));
  // Key kRange is a floor that is never removed, so min()/max() always
  // have something to return.
  ASSERT_TRUE(m.insert(kRange, kRange));

  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};
  std::thread observer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto mn = m.min();
      const auto mx = m.max();
      if (!mn || !mx || mn->first > mx->first || mn->first < 0 ||
          mx->first > kRange) {
        bad = true;
      }
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      Xoshiro256 rng(31 + t);
      for (int i = 0; i < scaled(30'000); ++i) {
        const K k = static_cast<K>(rng.next_below(kRange));
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
  observer.join();
  EXPECT_FALSE(bad.load());
  this->expect_valid(m);
}

// Insert/erase of the same single key from many threads: the mark/interval
// protocol must serialize them so that success alternates coherently.
TYPED_TEST(LoConcurrentTest, SingleKeyContention) {
  TypeParam m;
  constexpr int kThreads = 8;
  std::atomic<long> successful_inserts{0};
  std::atomic<long> successful_erases{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t);
      for (int i = 0; i < scaled(30'000); ++i) {
        if (rng.percent(50)) {
          if (m.insert(77, t)) successful_inserts.fetch_add(1);
        } else {
          if (m.erase(77)) successful_erases.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const long delta = successful_inserts.load() - successful_erases.load();
  ASSERT_TRUE(delta == 0 || delta == 1);
  EXPECT_EQ(m.contains(77), delta == 1);
  EXPECT_EQ(m.size_slow(), static_cast<std::size_t>(delta));
  this->expect_valid(m);
}

// Ordered iteration while the tree churns: iteration must terminate, yield
// strictly increasing keys, and include every key that was never touched.
TYPED_TEST(LoConcurrentTest, IterationDuringChurn) {
  TypeParam m;
  constexpr K kRange = 2'000;
  std::set<K> stable;
  for (K k = 0; k < kRange; k += 7) {
    ASSERT_TRUE(m.insert(k, k));
    stable.insert(k);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      Xoshiro256 rng(400 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        K k = static_cast<K>(rng.next_below(kRange));
        if (k % 7 == 0) ++k;
        if (rng.percent(50)) {
          m.insert(k, k);
        } else {
          m.erase(k);
        }
      }
    });
  }

  for (int round = 0; round < scaled(50); ++round) {
    std::vector<K> seen;
    m.for_each([&](K k, V) { seen.push_back(k); });
    for (std::size_t i = 1; i < seen.size(); ++i) {
      ASSERT_LT(seen[i - 1], seen[i]) << "iteration keys out of order";
    }
    std::set<K> seen_set(seen.begin(), seen.end());
    for (K k : stable) ASSERT_TRUE(seen_set.count(k)) << k;
  }
  stop = true;
  for (auto& th : writers) th.join();
  this->expect_valid(m);
}

// The write paths charge contention to the domain the map retires
// through: churn on a handful of hot keys raises the private domain's
// odometer and leaves the global domain's untouched.
TYPED_TEST(LoConcurrentTest, ContentionEventsLandInTheMapsDomain) {
  constexpr int kThreads = 4;
  lot::reclaim::EbrDomain domain;
  TypeParam m(domain);
  auto& global = lot::reclaim::EbrDomain::global_domain();
  const std::uint64_t global0 = global.contention_events();

  for (int round = 0; round < 50 && domain.contention_events() == 0;
       ++round) {
    ThreadBarrier barrier(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        Xoshiro256 rng(0xBEEF + 16 * round + t);
        barrier.arrive_and_wait();
        for (int i = 0; i < scaled(20'000); ++i) {
          const K k = static_cast<K>(rng.next_below(16));
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

  ASSERT_GT(domain.contention_events(), 0u)
      << "no contention in 50 rounds; nothing to attribute";
  EXPECT_EQ(domain.stats().contention_events, domain.contention_events());
  EXPECT_EQ(global.contention_events(), global0);
  this->expect_valid(m);
}

// A pinned reader holds back every free but no writer: churn completes
// while it is parked, and the domain's backlog never shrinks until it
// lets go. At quiescence two flushes free everything the churn retired.
TYPED_TEST(LoConcurrentTest, PinnedReaderHoldsBackFreesNotWriters) {
  constexpr int kWorkers = 4;
  lot::reclaim::EbrDomain domain;
  {
    TypeParam m(domain);
    std::atomic<bool> parked{false};
    std::atomic<bool> release{false};
    std::thread straggler([&] {
      auto g = domain.guard();
      parked = true;
      while (!release.load()) std::this_thread::yield();
    });
    while (!parked.load()) std::this_thread::yield();

    std::atomic<int> done{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kWorkers; ++t) {
      workers.emplace_back([&, t] {
        Xoshiro256 rng(0x5EED + t);
        for (int i = 0; i < scaled(20'000); ++i) {
          const K k = static_cast<K>(rng.next_below(256));
          if (rng.percent(50)) {
            m.insert(k, k);
          } else {
            m.erase(k);
          }
        }
        done.fetch_add(1);
      });
    }
    // Each record's list only grows while the pin holds, so each full
    // read of the sum is at least the one before it.
    std::size_t last = 0;
    int shrinks = 0;
    while (done.load() < kWorkers) {
      const std::size_t now = domain.pending_retired();
      shrinks += now < last;
      last = now;
      std::this_thread::yield();
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(shrinks, 0) << "a node was freed under the reader's pin";
    EXPECT_GT(domain.pending_retired(), 0u);
    EXPECT_GE(domain.pending_retired(), last);
    EXPECT_GE(domain.stats().epoch_lag, 1u);

    release = true;
    straggler.join();
    domain.flush();
    domain.flush();
    EXPECT_EQ(domain.pending_retired(), 0u);
    EXPECT_EQ(domain.stats().emergency_leaks, 0u);
    this->expect_valid(m);
  }
}

// AVL-specific: after heavy parallel churn and quiescence, the tree must be
// strictly balanced (Bougé et al.'s guarantee, paper §2 and §4.5).
TEST(LoAvlConcurrent, QuiescentStrictBalanceAfterParallelChurn) {
  AvlMap<K, V> m;
  constexpr int kThreads = 8;
  constexpr K kRange = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(77 + t);
      for (int i = 0; i < scaled(60'000); ++i) {
        const K k = static_cast<K>(rng.next_below(kRange));
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
  const auto rep = lot::lo::validate(m, /*check_heights=*/true);
  ASSERT_TRUE(rep.ok) << rep.to_string();
  EXPECT_GT(rep.chain_nodes, 0u);
}

// The repair_balance contract (lo/core.hpp): churn over a small key range
// makes climbs collide and bail on marked nodes; one quiescent repair pass
// restores the strict AVL bound, and it is a fixpoint — a second pass
// finds nothing left to do.
TEST(LoAvlConcurrent, QuiescentConvergenceAfterContendedChurn) {
  AvlMap<K, V> m;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(911 + t);
      for (int i = 0; i < scaled(30'000); ++i) {
        const K k = static_cast<K>(rng.next_below(2'048));
        if (rng.percent(55)) {
          m.insert(k, k);
        } else {
          m.erase(k);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  m.repair_balance();
  const auto rep = lot::lo::validate(m, /*check_heights=*/true);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(m.repair_balance(), 0u);
}

// Memory-reclamation integration: churn a dedicated domain hard, then
// verify the retire pipeline drains at quiescence.
TEST(LoReclaim, NodesAreReclaimedNotLeaked) {
  lot::reclaim::EbrDomain domain;
  const auto live_before = lot::reclaim::AllocStats::live();
  {
    BstMap<K, V> m(domain);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        Xoshiro256 rng(t);
        for (int i = 0; i < scaled(40'000); ++i) {
          const K k = static_cast<K>(rng.next_below(128));
          if (rng.percent(50)) {
            m.insert(k, k);
          } else {
            m.erase(k);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    domain.flush();
    domain.flush();
    domain.flush();
    // At quiescence: retired backlog fully freed.
    EXPECT_EQ(domain.pending_retired(), 0u);
    // Live allocations = chain nodes + 2 sentinels (modulo other tests'
    // trees using the global counters — hence a dedicated check via size).
    EXPECT_LE(m.size_slow(), 128u);
  }
  // Tree destroyed: every node it ever allocated must be freed.
  EXPECT_EQ(lot::reclaim::AllocStats::live(), live_before);
}

}  // namespace
