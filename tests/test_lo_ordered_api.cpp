// Tests for the ordered-access extensions built on the logical ordering
// (paper §4.7 and natural follow-ons): range scans, successor/predecessor
// queries, min/max — sequential semantics and behaviour under churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "check/history.hpp"
#include "check/linearize.hpp"
#include "lo/avl.hpp"
#include "lo/bst.hpp"
#include "lo/partial.hpp"
#include "lo/validate.hpp"
#include "obs/counters.hpp"
#include "shard/sharded_map.hpp"
#include "util/random.hpp"

namespace {

using K = std::int64_t;
using V = std::int64_t;
using lot::lo::AvlMap;
using lot::lo::BstMap;
using lot::lo::PartialAvlMap;
using lot::lo::PartialBstMap;
using lot::util::Xoshiro256;

// The ordered surface lives once in lo/core.hpp, so the same suite runs
// over both removal policies: the churn tests race scans against on-time
// relocation (LoMap) and against revive-in-place / zombie chains
// (PartialMap) with no per-type code.
template <typename MapT>
class OrderedApiTest : public ::testing::Test {};
using Impls = ::testing::Types<BstMap<K, V>, AvlMap<K, V>,
                               PartialBstMap<K, V>, PartialAvlMap<K, V>>;
TYPED_TEST_SUITE(OrderedApiTest, Impls);

TYPED_TEST(OrderedApiTest, RangeBasics) {
  TypeParam m;
  for (K k = 0; k < 100; k += 10) ASSERT_TRUE(m.insert(k, k * 2));

  std::vector<K> got;
  m.range(25, 75, [&](K k, V v) {
    got.push_back(k);
    EXPECT_EQ(v, k * 2);
  });
  EXPECT_EQ(got, (std::vector<K>{30, 40, 50, 60, 70}));

  // Inclusive lower bound, exclusive upper bound.
  got.clear();
  m.range(30, 70, [&](K k, V) { got.push_back(k); });
  EXPECT_EQ(got, (std::vector<K>{30, 40, 50, 60}));

  // Empty and degenerate ranges.
  got.clear();
  m.range(41, 49, [&](K k, V) { got.push_back(k); });
  EXPECT_TRUE(got.empty());
  m.range(50, 50, [&](K k, V) { got.push_back(k); });
  EXPECT_TRUE(got.empty());
  m.range(70, 30, [&](K k, V) { got.push_back(k); });
  EXPECT_TRUE(got.empty());

  // Ranges covering everything / beyond the extremes.
  got.clear();
  m.range(-1'000, 1'000, [&](K k, V) { got.push_back(k); });
  EXPECT_EQ(got.size(), 10u);
}

TYPED_TEST(OrderedApiTest, NextPrevBasics) {
  TypeParam m;
  for (K k : {10, 20, 30, 40}) ASSERT_TRUE(m.insert(k, k));

  EXPECT_EQ(m.next(5).value().first, 10);
  EXPECT_EQ(m.next(10).value().first, 20);
  EXPECT_EQ(m.next(15).value().first, 20);
  EXPECT_EQ(m.next(39).value().first, 40);
  EXPECT_FALSE(m.next(40).has_value());
  EXPECT_FALSE(m.next(100).has_value());

  EXPECT_FALSE(m.prev(10).has_value());
  EXPECT_FALSE(m.prev(5).has_value());
  EXPECT_EQ(m.prev(11).value().first, 10);
  EXPECT_EQ(m.prev(40).value().first, 30);
  EXPECT_EQ(m.prev(100).value().first, 40);
}

TYPED_TEST(OrderedApiTest, NextPrevDifferentialVsStdMap) {
  TypeParam m;
  std::map<K, V> oracle;
  Xoshiro256 rng(12);
  for (int i = 0; i < 20'000; ++i) {
    const K k = rng.next_in(0, 499);
    if (rng.percent(60)) {
      m.insert(k, k);
      oracle.emplace(k, k);
    } else {
      m.erase(k);
      oracle.erase(k);
    }
    if (i % 10 == 0) {
      const K probe = rng.next_in(-5, 505);
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

TYPED_TEST(OrderedApiTest, RangeDifferentialVsStdMap) {
  TypeParam m;
  std::map<K, V> oracle;
  Xoshiro256 rng(13);
  for (int i = 0; i < 5'000; ++i) {
    const K k = rng.next_in(0, 999);
    if (rng.percent(55)) {
      m.insert(k, k);
      oracle.emplace(k, k);
    } else {
      m.erase(k);
      oracle.erase(k);
    }
    if (i % 50 == 0) {
      const K lo = rng.next_in(0, 900);
      const K hi = lo + rng.next_in(1, 100);
      std::vector<K> mine;
      m.range(lo, hi, [&](K key, V) { mine.push_back(key); });
      std::vector<K> expect;
      for (auto it = oracle.lower_bound(lo);
           it != oracle.end() && it->first < hi; ++it) {
        expect.push_back(it->first);
      }
      ASSERT_EQ(mine, expect) << "[" << lo << "," << hi << ")";
    }
  }
}

// Bounded scans prefetch their window during the one descent to lo
// (DESIGN.md §11, window prefetch). These pin what that must not change:
// the result of every window shape against std::map, and the descent
// count.

std::vector<K> oracle_window(const std::map<K, V>& oracle, K lo, K hi) {
  std::vector<K> keys;
  for (auto it = oracle.lower_bound(lo); it != oracle.end() && it->first < hi;
       ++it) {
    keys.push_back(it->first);
  }
  return keys;
}

/// Checks the live range, the snapshot range and the snapshot's bounded
/// cursor over [lo, hi) against the oracle.
template <typename MapT>
void expect_window(const MapT& m, const std::map<K, V>& oracle, K lo, K hi) {
  const std::vector<K> expect = oracle_window(oracle, lo, hi);
  std::vector<K> live;
  m.range(lo, hi, [&](K k, V v) {
    live.push_back(k);
    EXPECT_EQ(v, oracle.at(k));
  });
  EXPECT_EQ(live, expect) << "live [" << lo << "," << hi << ")";
  const auto view = m.snapshot();
  std::vector<K> snap;
  view.range(lo, hi, [&](K k, V v) {
    snap.push_back(k);
    EXPECT_EQ(v, oracle.at(k));
  });
  EXPECT_EQ(snap, expect) << "snapshot [" << lo << "," << hi << ")";
  std::vector<K> cursor;
  auto c = view.cursor(lo, hi);
  while (auto kv = c.next()) cursor.push_back(kv->first);
  EXPECT_EQ(cursor, expect) << "snapshot cursor [" << lo << "," << hi << ")";
}

TYPED_TEST(OrderedApiTest, BoundedScanCountsOneDescent) {
  using lot::obs::Counter;
  const auto descents = [] {
    return lot::obs::counter_total(Counter::kTreeDescents);
  };
  TypeParam m;
  Xoshiro256 rng(21);
  for (int i = 0; i < 2'000; ++i) m.insert(rng.next_in(0, 3'999), i);

  std::uint64_t d0 = descents();
  std::size_t seen = 0;
  m.range(1'000, 1'400, [&](K, V) { ++seen; });
  EXPECT_EQ(descents() - d0, 1u) << "live range";
  EXPECT_GT(seen, 0u);

  const auto view = m.snapshot();
  d0 = descents();
  view.range(1'000, 1'400, [](K, V) {});
  EXPECT_EQ(descents() - d0, 1u) << "snapshot range";
}

TYPED_TEST(OrderedApiTest, WindowShapesMatchStdMap) {
  TypeParam m;
  std::map<K, V> oracle;
  Xoshiro256 rng(22);
  // Even keys only, so every odd key is a gap between two present keys.
  for (int i = 0; i < 1'500; ++i) {
    const K k = 2 * rng.next_in(0, 1'499);
    if (oracle.emplace(k, k * 7).second) ASSERT_TRUE(m.insert(k, k * 7));
  }
  const K min = oracle.begin()->first;
  const K max = oracle.rbegin()->first;

  // Wider than the prefetch budget: the chain walk finishes the window
  // past what the prefetch reached.
  expect_window(m, oracle, min, max + 1);
  expect_window(m, oracle, -1'000, 10'000);
  expect_window(m, oracle, 100, 1'900);
  // Empty windows strictly between two present keys: no node of the
  // window exists, so none lies on the descent path.
  for (int i = 0; i < 50; ++i) {
    const auto it = std::next(
        oracle.begin(),
        static_cast<std::ptrdiff_t>(rng.next_below(oracle.size() - 1)));
    const K a = it->first;
    const K b = std::next(it)->first;
    if (b - a >= 2) expect_window(m, oracle, a + 1, b);
  }
  // Below min and above max, touching and straddling each end.
  expect_window(m, oracle, min - 100, min);
  expect_window(m, oracle, min - 100, min + 1);
  expect_window(m, oracle, max + 1, max + 100);
  expect_window(m, oracle, max, max + 100);
  // Random windows of every width after a burst of erases, so the tree
  // holds nodes (zombies on the logical-removing maps) whose keys are
  // no longer present.
  for (int i = 0; i < 600; ++i) {
    const K k = 2 * rng.next_in(0, 1'499);
    if (oracle.erase(k) != 0) ASSERT_TRUE(m.erase(k));
  }
  for (int i = 0; i < 200; ++i) {
    const K lo = rng.next_in(-10, 3'000);
    const K hi = lo + rng.next_in(1, i % 2 == 0 ? 40 : 1'000);
    expect_window(m, oracle, lo, hi);
  }
}

// A sorted insert leaves the unbalanced BST a spine: every window's
// region under the split node is a path as long as the window, which
// the prefetch must cut at its budget and the scan must still finish.
TYPED_TEST(OrderedApiTest, SpineWindowsScanAndTerminate) {
  TypeParam m;
  std::map<K, V> oracle;
  for (K k = 0; k < 1'000; ++k) {
    ASSERT_TRUE(m.insert(k, k));
    oracle.emplace(k, k);
  }
  for (K k = -1; k >= -1'000; --k) {  // a second spine, leaning left
    ASSERT_TRUE(m.insert(k, k));
    oracle.emplace(k, k);
  }
  expect_window(m, oracle, -1'000, 1'000);
  expect_window(m, oracle, 10, 500);
  expect_window(m, oracle, -500, -10);
  expect_window(m, oracle, -300, 300);
  expect_window(m, oracle, 998, 2'000);
  expect_window(m, oracle, 5, 6);
}

TYPED_TEST(OrderedApiTest, FirstLastInRangeBasics) {
  TypeParam m;
  EXPECT_FALSE(m.first_in_range(0, 100).has_value());
  EXPECT_FALSE(m.last_in_range(0, 100).has_value());
  for (K k = 0; k < 100; k += 10) ASSERT_TRUE(m.insert(k, k * 2));

  const auto f = m.first_in_range(25, 75);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->first, 30);
  EXPECT_EQ(f->second, 60);
  const auto l = m.last_in_range(25, 75);
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(l->first, 70);
  EXPECT_EQ(l->second, 140);

  // Inclusive lower bound, exclusive upper bound.
  EXPECT_EQ(m.first_in_range(30, 70)->first, 30);
  EXPECT_EQ(m.last_in_range(30, 70)->first, 60);

  // Empty and degenerate ranges.
  EXPECT_FALSE(m.first_in_range(41, 49).has_value());
  EXPECT_FALSE(m.last_in_range(41, 49).has_value());
  EXPECT_FALSE(m.first_in_range(50, 50).has_value());
  EXPECT_FALSE(m.last_in_range(50, 50).has_value());
  EXPECT_FALSE(m.first_in_range(70, 30).has_value());
  EXPECT_FALSE(m.last_in_range(70, 30).has_value());

  // Whole-domain queries agree with min/max.
  EXPECT_EQ(m.first_in_range(-1'000, 1'000)->first, m.min()->first);
  EXPECT_EQ(m.last_in_range(-1'000, 1'000)->first, m.max()->first);
}

TYPED_TEST(OrderedApiTest, FirstLastInRangeDifferentialVsStdMap) {
  TypeParam m;
  std::map<K, V> oracle;
  Xoshiro256 rng(14);
  for (int i = 0; i < 5'000; ++i) {
    const K k = rng.next_in(0, 999);
    if (rng.percent(55)) {
      m.insert(k, k);
      oracle.emplace(k, k);
    } else {
      m.erase(k);
      oracle.erase(k);
    }
    if (i % 50 == 0) {
      const K lo = rng.next_in(0, 900);
      const K hi = lo + rng.next_in(1, 100);
      const auto first = m.first_in_range(lo, hi);
      const auto last = m.last_in_range(lo, hi);
      auto it = oracle.lower_bound(lo);
      const bool any = it != oracle.end() && it->first < hi;
      ASSERT_EQ(first.has_value(), any) << "[" << lo << "," << hi << ")";
      ASSERT_EQ(last.has_value(), any) << "[" << lo << "," << hi << ")";
      if (any) {
        ASSERT_EQ(first->first, it->first);
        ASSERT_EQ(last->first, std::prev(oracle.lower_bound(hi))->first);
      }
    }
  }
}

// Keys inside the scanned range that are never touched by writers must
// always appear in a concurrent range scan; keys outside never.
TYPED_TEST(OrderedApiTest, RangeDuringChurnSeesStableKeys) {
  TypeParam m;
  constexpr K kRange = 3'000;
  std::set<K> stable;
  for (K k = 1'000; k < 2'000; k += 10) {
    ASSERT_TRUE(m.insert(k, k));
    stable.insert(k);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      Xoshiro256 rng(600 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        K k = static_cast<K>(rng.next_below(kRange));
        if (k % 10 == 0 && k >= 1'000 && k < 2'000) ++k;
        if (rng.percent(50)) {
          m.insert(k, k);
        } else {
          m.erase(k);
        }
      }
    });
  }

  for (int round = 0; round < 200; ++round) {
    std::vector<K> seen;
    m.range(1'000, 2'000, [&](K k, V) { seen.push_back(k); });
    for (std::size_t i = 1; i < seen.size(); ++i) {
      ASSERT_LT(seen[i - 1], seen[i]);
    }
    std::set<K> seen_set(seen.begin(), seen.end());
    for (K k : stable) ASSERT_TRUE(seen_set.count(k)) << k;
    for (K k : seen) {
      ASSERT_GE(k, 1'000);
      ASSERT_LT(k, 2'000);
    }
  }
  stop = true;
  for (auto& th : writers) th.join();
}

TYPED_TEST(OrderedApiTest, CursorIteratesInOrder) {
  TypeParam m;
  for (K k : {30, 10, 50, 20, 40}) ASSERT_TRUE(m.insert(k, k * 3));
  auto c = m.cursor();
  std::vector<K> got;
  while (auto e = c.next()) {
    got.push_back(e->first);
    EXPECT_EQ(e->second, e->first * 3);
  }
  EXPECT_EQ(got, (std::vector<K>{10, 20, 30, 40, 50}));
  EXPECT_FALSE(c.next().has_value());  // stays exhausted
}

TYPED_TEST(OrderedApiTest, CursorOnEmptyMap) {
  TypeParam m;
  auto c = m.cursor();
  EXPECT_FALSE(c.next().has_value());
}

TYPED_TEST(OrderedApiTest, CursorSurvivesRemovalOfCurrentKey) {
  TypeParam m;
  for (K k = 0; k < 100; k += 10) ASSERT_TRUE(m.insert(k, k));
  auto c = m.cursor();
  auto e = c.next();
  ASSERT_EQ(e->first, 0);
  // Remove the key the cursor sits on plus the next one; the cursor must
  // keep walking through the retired nodes' still-valid succ pointers.
  ASSERT_TRUE(m.erase(0));
  ASSERT_TRUE(m.erase(10));
  e = c.next();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->first, 20);
}

TYPED_TEST(OrderedApiTest, CursorDuringChurnMonotone) {
  TypeParam m;
  constexpr K kRange = 1'000;
  for (K k = 0; k < kRange; k += 4) ASSERT_TRUE(m.insert(k, k));
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Xoshiro256 rng(3);
    while (!stop.load(std::memory_order_relaxed)) {
      K k = static_cast<K>(rng.next_below(kRange));
      if (k % 4 == 0) ++k;
      if (rng.percent(50)) {
        m.insert(k, k);
      } else {
        m.erase(k);
      }
    }
  });
  for (int round = 0; round < 300; ++round) {
    auto c = m.cursor();
    K last = -1;
    std::size_t stable_seen = 0;
    while (auto e = c.next()) {
      ASSERT_GT(e->first, last);
      last = e->first;
      if (e->first % 4 == 0) ++stable_seen;
    }
    ASSERT_EQ(stable_seen, kRange / 4);  // untouched keys always appear
  }
  stop = true;
  writer.join();
}

// Succ/pred traversals interleaved with recorded insert/remove churn,
// validated by the linearizability checker (src/check/): every key a
// next()/prev() query returns must have been present at some instant
// inside the query's own interval, so it is recorded as a
// contains(key)=true observation; the combined history must admit a
// linearization. This catches a traversal handing out a key that was
// never live during the query — e.g. read through a stale pointer — which
// the purely structural assertions above cannot see.
TYPED_TEST(OrderedApiTest, SuccPredObservationsLinearizable) {
  TypeParam m;
  constexpr K kRange = 64;
  constexpr unsigned kWriters = 3;
  constexpr unsigned kObservers = 2;
  constexpr int kWriterOps = 6'000;
  constexpr int kObserverOps = 4'000;
  lot::check::HistoryRecorder<K> rec(kWriters + kObservers,
                                     kWriterOps + kRange + 8);

  // Recorded prefill on writer 0's log: even keys present.
  for (K k = 0; k < kRange; k += 2) {
    rec.record(0, lot::check::Op::kInsert, k, [&] { return m.insert(k, k); });
  }

  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kWriters; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(900 + t);
      for (int i = 0; i < kWriterOps; ++i) {
        const K k = static_cast<K>(rng.next_below(kRange));
        if (rng.percent(50)) {
          rec.record(t, lot::check::Op::kInsert, k,
                     [&] { return m.insert(k, k); });
        } else {
          rec.record(t, lot::check::Op::kRemove, k,
                     [&] { return m.erase(k); });
        }
      }
    });
  }
  for (unsigned o = 0; o < kObservers; ++o) {
    const auto tid = static_cast<std::uint16_t>(kWriters + o);
    workers.emplace_back([&, tid] {
      Xoshiro256 rng(990u + tid);
      for (int i = 0; i < kObserverOps; ++i) {
        const K probe = static_cast<K>(rng.next_below(kRange));
        const bool forward = rng.percent(50);
        const auto t0 = rec.tick();
        const auto r = forward ? m.next(probe) : m.prev(probe);
        const auto t1 = rec.tick();
        if (r.has_value()) {
          ASSERT_TRUE(forward ? r->first > probe : r->first < probe);
          rec.log(tid).push(lot::check::Event<K>{
              t0, t1, r->first, lot::check::Op::kContains, true, tid});
        }
      }
    });
  }
  for (auto& th : workers) th.join();

  ASSERT_FALSE(rec.overflowed());
  const auto res = lot::check::check_set_history(rec.merged());
  EXPECT_TRUE(res.ok()) << res.reason << "\n"
                        << lot::check::format_history(res.witness);
  EXPECT_GT(res.stats.events,
            static_cast<std::size_t>(kWriters) * kWriterOps);
}

// Writers continuously erase-then-reinsert the same keys with
// generation-tagged values. On the logical-removing maps the reinsert
// usually lands as a revive-in-place of the still-linked zombie node
// (value store + deleted clear on the same node), so a racing scan walks
// straight through the revive window. The invariant a scan must uphold:
// every (key, value) pair it reports was actually stored for that key at
// some point — a torn read, a stale detached node, or a value observed
// *after* deciding presence from an older state would all break the
// value % kRange == key encoding.
TYPED_TEST(OrderedApiTest, RangeValuesConsistentUnderReviveChurn) {
  TypeParam m;
  constexpr K kRange = 256;
  for (K k = 0; k < kRange; ++k) ASSERT_TRUE(m.insert(k, k));
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&, t] {
      Xoshiro256 rng(810 + t);
      K gen = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        const K k = static_cast<K>(rng.next_below(kRange));
        m.erase(k);
        m.insert(k, k + kRange * gen);
        gen = (gen % 7) + 1;
      }
    });
  }
  for (int round = 0; round < 300; ++round) {
    K last = -1;
    m.range(0, kRange, [&](K k, V v) {
      ASSERT_GT(k, last);
      last = k;
      ASSERT_EQ(v % kRange, k) << "scan reported a value never stored "
                                  "for this key";
    });
  }
  stop = true;
  for (auto& th : writers) th.join();
}

// Logical-removing maps only: scans racing opportunistic purges. One
// thread repeatedly calls purge_all() — physically unlinking zombies whose
// chain positions a concurrent scan may be standing on — while writers
// churn; stable keys must still always appear, and the walk must stay
// strictly ascending (retired nodes' succ pointers remain valid under
// EBR, exactly the cursor-survives-removal argument).
TYPED_TEST(OrderedApiTest, ScanRacesOpportunisticPurge) {
  if constexpr (TypeParam::kLogicalRemoving) {
    TypeParam m;
    constexpr K kRange = 2'000;
    std::set<K> stable;
    for (K k = 0; k < kRange; k += 10) {
      ASSERT_TRUE(m.insert(k, k));
      stable.insert(k);
    }
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
      workers.emplace_back([&, t] {
        Xoshiro256 rng(820 + t);
        while (!stop.load(std::memory_order_relaxed)) {
          K k = static_cast<K>(rng.next_below(kRange));
          if (k % 10 == 0) ++k;  // never touch the stable keys
          if (rng.percent(50)) {
            m.insert(k, k);
          } else {
            m.erase(k);
          }
        }
      });
    }
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        m.purge_all();
      }
    });

    for (int round = 0; round < 200; ++round) {
      std::vector<K> seen;
      m.range(0, kRange, [&](K k, V) { seen.push_back(k); });
      for (std::size_t i = 1; i < seen.size(); ++i) {
        ASSERT_LT(seen[i - 1], seen[i]);
      }
      std::set<K> seen_set(seen.begin(), seen.end());
      for (K k : stable) ASSERT_TRUE(seen_set.count(k)) << k;
    }
    stop = true;
    for (auto& th : workers) th.join();

    // No assertion on how much the purger reclaimed: every zombie
    // child-count drop from an erase is usually caught by that erase's
    // own try_purge(parent) hook, and under a near-serial schedule (this
    // suite runs oversubscribed) the sweeps can legitimately find
    // nothing — even the balanced variant's rotation-orphaned zombies
    // are a scheduling accident, not a guarantee. purge_all() actually
    // reclaiming is pinned down deterministically by the cascade test in
    // test_lo_partial.cpp; here it only has to never break a scan. A
    // final quiescent sweep still runs so validate sees the purged shape.
    m.purge_all();

    if constexpr (TypeParam::kBalanced) {
      m.repair_balance();  // repair heights stale from abandoned climbs
    }
    const auto rep = lot::lo::validate(m, TypeParam::kBalanced,
                                       /*partial=*/true);
    EXPECT_TRUE(rep.ok) << rep.to_string();
  } else {
    GTEST_SKIP() << "purge_all() exists only on the logical-removing maps";
  }
}

// next() chains must always move strictly forward, even under churn (no
// duplicates, no regressions — the succ-walk termination argument).
TYPED_TEST(OrderedApiTest, NextChainMonotoneUnderChurn) {
  TypeParam m;
  constexpr K kRange = 2'000;
  for (K k = 0; k < kRange; k += 5) ASSERT_TRUE(m.insert(k, k));
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      Xoshiro256 rng(700 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        K k = static_cast<K>(rng.next_below(kRange));
        if (k % 5 == 0) ++k;
        if (rng.percent(50)) {
          m.insert(k, k);
        } else {
          m.erase(k);
        }
      }
    });
  }

  for (int round = 0; round < 100; ++round) {
    K cursor = -1;
    std::size_t steps = 0;
    for (;;) {
      const auto nx = m.next(cursor);
      if (!nx) break;
      ASSERT_GT(nx->first, cursor);
      cursor = nx->first;
      ASSERT_LT(++steps, 10'000u);  // termination guard
    }
    ASSERT_GE(steps, kRange / 5);  // at least all the stable keys
  }
  stop = true;
  for (auto& th : writers) th.join();
}

// ------------------------------------------------------------- snapshots
//
// MVCC snapshot views (DESIGN.md §16).

// A snapshot is an immutable cut: writes landing after the cut — erases,
// fresh inserts, revives — never leak into the view, while the live map
// moves on.
TYPED_TEST(OrderedApiTest, SnapshotIsAnImmutableCut) {
  TypeParam m;
  for (K k = 0; k < 100; k += 2) ASSERT_TRUE(m.insert(k, k * 3));
  const auto snap = m.snapshot();

  for (K k = 0; k < 100; k += 2) ASSERT_TRUE(m.erase(k));
  for (K k = 1; k < 100; k += 2) ASSERT_TRUE(m.insert(k, k));
  // On the logical-removing maps this is a revive burst over the zombies
  // the erases left behind; either way the live map changed completely.
  for (K k = 0; k < 100; k += 4) ASSERT_TRUE(m.insert(k, k + 500));

  std::vector<std::pair<K, V>> got;
  snap.for_each([&](K k, V v) { got.emplace_back(k, v); });
  ASSERT_EQ(got.size(), 50u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, static_cast<K>(2 * i));
    EXPECT_EQ(got[i].second, static_cast<V>(2 * i) * 3);
  }
  EXPECT_TRUE(snap.contains(4));
  EXPECT_FALSE(snap.contains(5));
  EXPECT_EQ(snap.get(8), std::optional<V>(24));

  std::vector<K> ranged;
  snap.range(10, 20, [&](K k, V v) {
    ranged.push_back(k);
    EXPECT_EQ(v, k * 3);
  });
  EXPECT_EQ(ranged, (std::vector<K>{10, 12, 14, 16, 18}));

  // The live map reflects the writes the snapshot must not.
  EXPECT_FALSE(m.contains(2));
  EXPECT_EQ(m.get(0), std::optional<V>(500));
  EXPECT_TRUE(m.contains(5));
}

// Two snapshots straddling a single write disagree by exactly that write
// — the cut is a point, not a window.
TYPED_TEST(OrderedApiTest, SnapshotsStraddlingOneWriteDifferByExactlyIt) {
  TypeParam m;
  for (K k = 0; k < 64; k += 2) ASSERT_TRUE(m.insert(k, k));

  const auto s1 = m.snapshot();
  ASSERT_TRUE(m.insert(33, 330));
  const auto s2 = m.snapshot();
  EXPECT_GT(s2.epoch(), s1.epoch());

  std::set<K> k1, k2;
  s1.for_each([&](K k, V) { k1.insert(k); });
  s2.for_each([&](K k, V) { k2.insert(k); });
  EXPECT_EQ(k1.count(33), 0u);
  EXPECT_EQ(k2.count(33), 1u);
  k2.erase(33);
  EXPECT_EQ(k1, k2) << "the snapshots differ beyond the straddled write";

  // Same point claim for an erase.
  const auto s3 = m.snapshot();
  ASSERT_TRUE(m.erase(33));
  const auto s4 = m.snapshot();
  EXPECT_TRUE(s3.contains(33));
  EXPECT_FALSE(s4.contains(33));
  std::set<K> k3, k4;
  s3.for_each([&](K k, V) { k3.insert(k); });
  s4.for_each([&](K k, V) { k4.insert(k); });
  k3.erase(33);
  EXPECT_EQ(k3, k4);
}

// The hard case (logical removing only): a snapshot taken over a zombie
// field, then a revive burst (each revive folds the outgoing incarnation
// into the version chain the snapshot must resolve through) and a
// purge_all that physically unlinks nodes the cut still contains (they
// park in limbo because the snapshot's epoch pins them). The cut must
// come through untouched.
TYPED_TEST(OrderedApiTest, SnapshotSurvivesReviveBurstAndPurgeAll) {
  if constexpr (!TypeParam::kLogicalRemoving) {
    GTEST_SKIP() << "revive/purge are logical-removing machinery";
  } else {
    TypeParam m;
    for (K k = 0; k < 60; ++k) ASSERT_TRUE(m.insert(k, k));
    for (K k = 0; k < 60; k += 3) ASSERT_TRUE(m.erase(k));  // zombies

    auto snap = m.snapshot();  // cut: k % 3 != 0, value k

    for (K k = 0; k < 60; k += 3) {
      ASSERT_TRUE(m.insert(k, k + 1000));  // revive burst
    }
    for (K k = 1; k < 60; k += 3) ASSERT_TRUE(m.erase(k));
    m.purge_all();  // unlink the new zombies under the pinned snapshot

    std::size_t seen = 0;
    snap.for_each([&](K k, V v) {
      EXPECT_NE(k % 3, 0) << "revived-after-cut key leaked into the cut";
      EXPECT_EQ(v, k) << "post-cut value leaked into the cut";
      ++seen;
    });
    EXPECT_EQ(seen, 40u);
    EXPECT_FALSE(snap.contains(0));
    EXPECT_EQ(snap.get(1), std::optional<V>(1))
        << "purged-under-snapshot key lost from the cut";
    EXPECT_EQ(snap.get(2), std::optional<V>(2));

    // Releasing the pin lets limbo drain on the next prune.
    snap.release();
    EXPECT_EQ(m.debug_active_snapshots(), 0u);
    m.purge_all();
    EXPECT_EQ(m.debug_limbo_size(), 0u);
  }
}

// Erases k and, on logical-removing maps, purges the zombie, so that k's
// node leaves the ordering chain — what parks it in limbo while a
// snapshot needs it.
template <typename MapT>
void erase_unlinked(MapT& m, K k) {
  const std::size_t nodes = m.physical_nodes_slow();
  ASSERT_TRUE(m.erase(k));
  if constexpr (MapT::kLogicalRemoving) m.purge_all();
  ASSERT_EQ(m.physical_nodes_slow(), nodes - 1)
      << "key " << k << " stayed on the chain";
}

template <typename MapT>
std::vector<K> view_keys(const typename MapT::SnapshotView& v) {
  std::vector<K> keys;
  v.for_each([&](K k, V) { keys.push_back(k); });
  return keys;
}

std::vector<K> iota_keys(K n) {
  std::vector<K> keys;
  for (K k = 0; k < n; ++k) keys.push_back(k);
  return keys;
}

// Snapshot floors are per thread and per EBR domain (DESIGN.md §16):
// nested views — two on one map, one on a second map sharing the global
// domain — keep the outer view's floor until the outer view itself goes,
// so a node unlinked after the outer cut stays parked for it.
TYPED_TEST(OrderedApiTest, NestedViewsKeepTheOuterFloor) {
  TypeParam a;
  TypeParam b;
  for (K k = 0; k < 32; ++k) {
    ASSERT_TRUE(a.insert(k, k));
    ASSERT_TRUE(b.insert(k, k));
  }
  auto outer = a.snapshot();
  erase_unlinked(a, 10);
  {
    auto inner = a.snapshot();
    const auto other = b.snapshot();
    EXPECT_EQ(a.debug_active_snapshots(), 1u) << "one thread, one floor";
    EXPECT_FALSE(inner.contains(10));
    erase_unlinked(a, 12);
    inner.release();
  }
  EXPECT_EQ(a.debug_active_snapshots(), 1u);
  erase_unlinked(a, 14);
  EXPECT_EQ(a.debug_limbo_size(), 3u)
      << "unlinks after the outer cut must park while the outer view lives";
  EXPECT_TRUE(outer.contains(10));
  EXPECT_EQ(outer.get(14), std::optional<V>(14));
  EXPECT_EQ(view_keys<TypeParam>(outer), iota_keys(32));

  outer.release();
  EXPECT_EQ(a.debug_active_snapshots(), 0u);
  EXPECT_EQ(a.debug_limbo_size(), 0u) << "the last release drains limbo";
}

// A view folds limbo (takes its lock) only when limbo took a push since
// the view's cut: a park before the cut cannot hold anything the view
// needs, a park after it can.
TYPED_TEST(OrderedApiTest, ViewsFoldLimboOnlyWhenItMoved) {
  using lot::obs::Counter;
  const auto folds = [] {
    return lot::obs::counter_total(Counter::kLimboFolds);
  };
  TypeParam m;
  for (K k = 0; k < 32; ++k) ASSERT_TRUE(m.insert(k, k));
  const auto holder = m.snapshot();  // keeps unlinked nodes parked
  erase_unlinked(m, 4);
  ASSERT_EQ(m.debug_limbo_size(), 1u);

  const std::uint64_t f0 = folds();
  const auto after = m.snapshot();  // cut follows the park
  EXPECT_FALSE(after.contains(4));
  EXPECT_EQ(view_keys<TypeParam>(after).size(), 31u);
  EXPECT_EQ(folds() - f0, 0u) << "a view folded a limbo that never moved";

  const auto before = m.snapshot();  // cut precedes the next park
  erase_unlinked(m, 6);
  const std::uint64_t f1 = folds();
  EXPECT_TRUE(before.contains(6));
  std::vector<K> keys;
  before.range(0, 8, [&](K k, V) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<K>{0, 1, 2, 3, 5, 6, 7}));
  EXPECT_EQ(folds() - f1, 2u) << "one fold per read that needed limbo";
}

// A thread that drops its view and exits leaves no floor behind: its
// record's slot is clear, so once the last view here goes, limbo drains.
TYPED_TEST(OrderedApiTest, ExitedThreadLeavesNoSnapshotFloor) {
  TypeParam m;
  for (K k = 0; k < 32; ++k) ASSERT_TRUE(m.insert(k, k));
  auto holder = m.snapshot();
  std::thread t([&] {
    const auto v = m.snapshot();
    EXPECT_EQ(m.debug_active_snapshots(), 2u);
    erase_unlinked(m, 8);
    EXPECT_TRUE(v.contains(8));
  });
  t.join();
  EXPECT_EQ(m.debug_active_snapshots(), 1u);
  EXPECT_EQ(m.debug_limbo_size(), 1u) << "the older view still needs it";
  holder.release();
  EXPECT_EQ(m.debug_active_snapshots(), 0u);
  EXPECT_EQ(m.debug_limbo_size(), 0u);
  erase_unlinked(m, 20);
  EXPECT_EQ(m.debug_limbo_size(), 0u) << "an unlink parked under no view";
}

// snapshot_reserve() publishes the floor; a ticket dropped without
// snapshot_adopt() must take it back, moved-from tickets included.
TYPED_TEST(OrderedApiTest, UnadoptedTicketReleasesItsFloor) {
  TypeParam m;
  for (K k = 0; k < 32; ++k) ASSERT_TRUE(m.insert(k, k));
  {
    auto t = m.snapshot_reserve();
    EXPECT_EQ(m.debug_active_snapshots(), 1u);
    auto moved = std::move(t);
    EXPECT_EQ(m.debug_active_snapshots(), 1u);
  }
  EXPECT_EQ(m.debug_active_snapshots(), 0u);
  {
    // A cut advances the clock, so a floor left behind would park this.
    const auto v = m.snapshot();
  }
  erase_unlinked(m, 2);
  EXPECT_EQ(m.debug_limbo_size(), 0u);
}

// Floors are kept per EBR domain, so a view of one map parks the unlinks
// of every other map on that domain, and no view of the other map ever
// releases to prune them. Its writers do: a park past the prune mark
// prunes, so limbo stays bounded while foreign views rotate, and a view
// of its own drains it. The views rotate hand over hand (the new one is
// taken before the old one goes), so the thread's floor must rise with
// each release although the thread never drops to no view.
TYPED_TEST(OrderedApiTest, LimboParkedUnderAnotherMapsViewsStaysBounded) {
  constexpr K kKeys = 256;
  TypeParam a;
  TypeParam b;
  for (K k = 0; k < kKeys; ++k) ASSERT_TRUE(a.insert(k, k));
  ASSERT_TRUE(b.insert(0, 0));
  ASSERT_EQ(&a.epoch_source(), &b.epoch_source()) << "one clock per domain";

  std::optional<typename TypeParam::SnapshotView> view = b.snapshot();
  std::size_t peak = 0;
  for (K i = 0; i < 4 * kKeys; ++i) {
    if (i % 16 == 0) view.emplace(b.snapshot());  // rotate b's view
    // A new maximum is a leaf in both trees, so erasing it unlinks it.
    ASSERT_TRUE(a.insert(kKeys + i, i));
    erase_unlinked(a, kKeys + i);
    peak = std::max(peak, a.debug_limbo_size());
  }
  EXPECT_GT(peak, 0u) << "no unlink parked; the test lost its premise";
  EXPECT_LE(peak, 64u) << "a's limbo outgrew its prune mark";

  view.reset();
  EXPECT_EQ(b.debug_active_snapshots(), 0u);
  ASSERT_TRUE(a.insert(5 * kKeys, 0));
  erase_unlinked(a, 5 * kKeys);
  EXPECT_LE(a.debug_limbo_size(), 64u);
  a.snapshot().release();
  EXPECT_EQ(a.debug_limbo_size(), 0u) << "a's own release left limbo parked";
}

// Views are thread-affine: a floor released on another thread would
// unbalance the owner's depth and could pin its floor for good, so the
// release stops the process in every build instead.
TEST(SnapshotViewDeathTest, ReleaseOnAnotherThreadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  AvlMap<K, V> m;
  ASSERT_TRUE(m.insert(1, 1));
  EXPECT_DEATH(
      {
        auto v = m.snapshot();
        std::thread t([v = std::move(v)]() mutable { v.release(); });
        t.join();
      },
      "thread-affine");
}

// Composite sharded snapshot: per-shard views adopted at ONE shared epoch
// form a single cut of the whole map. A sequential writer makes that
// testable exactly: any single point of its history is a prefix of the
// insertion order, so a composite snapshot whose per-shard cuts were
// taken at different instants would show a hole.
TEST(ShardedSnapshotTest, ComposesOneCutAcrossShards) {
  using Sharded = lot::shard::ShardedMap<PartialAvlMap<K, V>, 4>;
  Sharded m;

  // Insertion order chosen to hop shards on every write (router blocks
  // are 64 keys; key (i%4)*64 + i/4 routes to shard i%4).
  std::vector<K> order;
  for (K i = 0; i < 256; ++i) order.push_back((i % 4) * 64 + i / 4);

  std::atomic<bool> go{false};
  std::thread writer([&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    for (const K k : order) {
      ASSERT_TRUE(m.insert(k, k));
    }
  });

  go.store(true, std::memory_order_release);
  for (int round = 0; round < 64; ++round) {
    const auto snap = m.snapshot();
    std::vector<K> got;
    snap.for_each([&](K k, V) { got.push_back(k); });
    // The observed set must be exactly the first got.size() inserted
    // keys — one point of the writer's history, across all four shards.
    std::vector<K> expect(order.begin(),
                          order.begin() + static_cast<std::ptrdiff_t>(
                                              got.size()));
    std::sort(expect.begin(), expect.end());
    ASSERT_EQ(got, expect)
        << "composite snapshot is not a single cut (round " << round << ")";
    // Point reads through the same snapshot agree with the cut.
    if (!got.empty()) {
      EXPECT_TRUE(snap.contains(got.front()));
      EXPECT_EQ(snap.get(got.back()), std::optional<V>(got.back()));
    }
  }
  writer.join();

  // Quiescent: the finished writer's full set is one (trivial) cut.
  const auto snap = m.snapshot();
  std::size_t n = 0;
  snap.for_each([&](K, V) { ++n; });
  EXPECT_EQ(n, order.size());
  // All four shards share the one clock the composition relies on.
  for (unsigned i = 0; i < Sharded::shard_count(); ++i) {
    EXPECT_EQ(&m.shard_map(i).epoch_source(), &m.epoch_source());
  }
}

// A short sharded snapshot scan must cost its own span, not every
// shard's whole tail past lo: each shard's cursor is bounded by hi. The
// comparator counts its calls, so the test measures work, not time.
thread_local std::uint64_t tl_compares = 0;
struct CountingLess {
  bool operator()(K a, K b) const {
    ++tl_compares;
    return a < b;
  }
};

TEST(ShardedSnapshotTest, RangeTouchesOnlyTheRequestedSpan) {
  using Sharded =
      lot::shard::ShardedMap<PartialAvlMap<K, V, CountingLess>, 4>;
  constexpr K kKeys = K{1} << 14;
  constexpr K kLo = 1000;
  constexpr K kHi = kLo + 64;
  Sharded m;
  for (K k = 0; k < kKeys; ++k) ASSERT_TRUE(m.insert(k, 2 * k));

  const auto snap = m.snapshot();
  tl_compares = 0;
  std::vector<std::pair<K, V>> got;
  snap.range(kLo, kHi, [&](K k, V v) { got.emplace_back(k, v); });
  const std::uint64_t compares = tl_compares;

  std::vector<std::pair<K, V>> expect;
  for (K k = kLo; k < kHi; ++k) expect.emplace_back(k, 2 * k);
  EXPECT_EQ(got, expect);
  EXPECT_LT(compares, static_cast<std::uint64_t>(kKeys) / 8)
      << "the scan walked far past hi";
}

// The epoch clock moves only when a snapshot takes its cut (DESIGN.md
// §16): writes read it, so a workload that never snapshots never writes
// the one counter every thread and every shard shares.
template <typename MapT>
class MvccClock : public ::testing::Test {};
using ClockImpls =
    ::testing::Types<BstMap<K, V>, AvlMap<K, V>, PartialBstMap<K, V>,
                     PartialAvlMap<K, V>,
                     lot::shard::ShardedMap<PartialAvlMap<K, V>, 4>>;
TYPED_TEST_SUITE(MvccClock, ClockImpls);

TYPED_TEST(MvccClock, OnlySnapshotsAdvanceTheClock) {
  using lot::obs::Counter;
  using lot::obs::counter_total;
  TypeParam m;
  const auto& clock = m.epoch_source();
  const std::uint64_t revives0 = counter_total(Counter::kInsertRevives);
  const std::uint64_t t0 = clock.now();

  // Fresh inserts, failed inserts and erases, erases (logical on the
  // interior nodes of the logical-removing maps), revives, purge_all.
  // Scrambled order, so the unbalanced BSTs get interior nodes too.
  for (K i = 0; i < 64; ++i) ASSERT_TRUE(m.insert(i * 37 % 64, i * 37 % 64));
  EXPECT_FALSE(m.insert(7, 0));
  for (K k = 0; k < 64; k += 2) ASSERT_TRUE(m.erase(k));
  EXPECT_FALSE(m.erase(0));
  for (K k = 0; k < 64; k += 4) ASSERT_TRUE(m.insert(k, k + 100));
  if constexpr (TypeParam::kLogicalRemoving) {
    EXPECT_GT(counter_total(Counter::kInsertRevives), revives0)
        << "no revive ran; the test lost its revive arm";
    m.purge_all();
  }
  EXPECT_EQ(clock.now(), t0) << "a write advanced the epoch clock";

  // Each snapshot is one increment, and its cut is the value before it.
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t before = clock.now();
    const auto snap = m.snapshot();
    EXPECT_EQ(snap.epoch(), before);
    EXPECT_EQ(clock.now(), before + 1);
  }

  // Under a live snapshot the writes park in limbo and grow version
  // chains; they still only read the clock.
  const auto snap = m.snapshot();
  const std::uint64_t t1 = clock.now();
  for (K k = 3; k < 64; k += 4) ASSERT_TRUE(m.erase(k));
  for (K k = 2; k < 64; k += 4) ASSERT_TRUE(m.insert(k, -k));
  if constexpr (TypeParam::kLogicalRemoving) m.purge_all();
  EXPECT_EQ(clock.now(), t1) << "a write under a snapshot advanced the clock";
  EXPECT_TRUE(snap.contains(3));
  EXPECT_FALSE(snap.contains(2));
}

// With no cut between them, writes to one key draw the same stamp:
// insert -> erase -> revive leaves birth == death == rebirth. Half-open
// [birth, death) ranges keep that exact — an incarnation, live or folded
// into a PastVersion, with birth == death is present at no cut, and no
// cut can fall inside it.
TYPED_TEST(MvccClock, EqualStampsResolveAsHalfOpenRanges) {
  if constexpr (!TypeParam::kLogicalRemoving) {
    GTEST_SKIP() << "revive is logical-removing machinery";
  } else {
    using lot::obs::Counter;
    using lot::obs::counter_total;
    TypeParam m;
    const auto& clock = m.epoch_source();
    const std::uint64_t revives0 = counter_total(Counter::kInsertRevives);
    const auto keys = [](const auto& snap) {
      std::vector<std::pair<K, V>> got;
      snap.for_each([&](K k, V v) { got.emplace_back(k, v); });
      return got;
    };

    // Key 20 gets children 10 and 30 (the same shape in the BST and the
    // AVL tree, all in one shard), so each erase(20) leaves a zombie
    // and each insert(20, ...) revives it in place.
    const auto s0 = m.snapshot();
    const std::uint64_t c = clock.now();
    ASSERT_TRUE(m.insert(20, 1));
    ASSERT_TRUE(m.insert(10, 10));
    ASSERT_TRUE(m.insert(30, 30));
    ASSERT_TRUE(m.erase(20));
    ASSERT_TRUE(m.insert(20, 2));
    ASSERT_EQ(clock.now(), c) << "every stamp above must be the one epoch c";

    const auto before = m.snapshot();  // cut c: 20 -> 2
    ASSERT_TRUE(m.erase(20));
    ASSERT_TRUE(m.insert(20, 3));      // stamped c + 1 ...
    ASSERT_TRUE(m.erase(20));          // ... and dead at c + 1
    const auto between = m.snapshot();  // cut c + 1: 20 absent
    ASSERT_TRUE(m.insert(20, 4));  // folds [c + 1, c + 1) into the chain
    const auto after = m.snapshot();   // cut c + 2: 20 -> 4
    EXPECT_EQ(counter_total(Counter::kInsertRevives) - revives0, 3u)
        << "key 20 was not revived in place";

    EXPECT_EQ(s0.epoch() + 1, c);
    EXPECT_EQ(before.epoch(), c);
    EXPECT_EQ(between.epoch(), c + 1);
    EXPECT_EQ(after.epoch(), c + 2);
    using KVs = std::vector<std::pair<K, V>>;
    EXPECT_TRUE(keys(s0).empty());
    EXPECT_EQ(keys(before), (KVs{{10, 10}, {20, 2}, {30, 30}}));
    EXPECT_EQ(keys(between), (KVs{{10, 10}, {30, 30}}))
        << "an incarnation with birth == death resolved as present";
    EXPECT_EQ(keys(after), (KVs{{10, 10}, {20, 4}, {30, 30}}));
    EXPECT_FALSE(s0.contains(20));
    EXPECT_EQ(before.get(20), std::optional<V>(2));
    EXPECT_FALSE(between.contains(20));
    EXPECT_EQ(after.get(20), std::optional<V>(4));
  }
}

}  // namespace
