// Tests for the observability layer (src/obs/): the campaign that proves
// the numbers are right. Bucket boundaries and quantiles are pinned
// against a sorted reference through util::percentile (the shared rank
// convention); counters are proven exact under concurrency; snapshots are
// proven safe (and monotone) while writers run; a released shard is
// proven adoptable with its values intact; and the per-op handle is
// pinned to a single shard pointer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "lo/avl.hpp"
#include "lo/partial.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace {

using lot::obs::Counter;
using lot::obs::HistogramStats;
using lot::obs::LatencyHistogram;
using lot::obs::OpKind;
using lot::obs::Registry;
using lot::obs::Snapshot;

// The per-op counting handle is exactly one shard pointer: grabbing it in
// an op prologue costs one TLS load and no further state.
static_assert(sizeof(lot::obs::Tls) == sizeof(void*));

// ---------------------------------------------------------------------------
// Bucketing math.

TEST(ObsHistogram, BucketIndexPinnedValues) {
  // Unit buckets up to 2*kSub == 64.
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucket_index(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_index(63), 63u);
  // First log-linear octave: width 2, 32 buckets covering [64, 128).
  EXPECT_EQ(LatencyHistogram::bucket_index(64), 64u);
  EXPECT_EQ(LatencyHistogram::bucket_index(65), 64u);
  EXPECT_EQ(LatencyHistogram::bucket_index(66), 65u);
  EXPECT_EQ(LatencyHistogram::bucket_index(127), 95u);
  EXPECT_EQ(LatencyHistogram::bucket_index(128), 96u);
  // The largest representable value still fits the table.
  EXPECT_LT(LatencyHistogram::bucket_index(~0ull),
            LatencyHistogram::kBucketCount);
}

TEST(ObsHistogram, BucketEdgesRoundTrip) {
  // Every bucket's lower edge maps back to it, its last value stays in it,
  // and one past the last value lands in the next bucket: the buckets tile
  // the uint64 axis with no gaps or overlaps.
  for (std::size_t i = 0; i + 1 < LatencyHistogram::kBucketCount; ++i) {
    const std::uint64_t lo = LatencyHistogram::bucket_lower(i);
    const std::uint64_t w = LatencyHistogram::bucket_width(i);
    ASSERT_EQ(LatencyHistogram::bucket_index(lo), i) << "lower edge, i=" << i;
    ASSERT_EQ(LatencyHistogram::bucket_index(lo + w - 1), i)
        << "last value, i=" << i;
    if (lo + w > lo) {  // not the final bucket wrapping uint64
      ASSERT_EQ(LatencyHistogram::bucket_index(lo + w), i + 1)
          << "first value past, i=" << i;
    }
  }
}

TEST(ObsHistogram, RelativeErrorBounded) {
  // Log-linear promise: bucket width / lower edge <= 2^-kSubBits == 3.125%
  // everywhere above the unit range.
  for (std::uint64_t v : {64ull, 100ull, 1000ull, 123456ull, 987654321ull,
                          1ull << 40, (1ull << 50) + 12345}) {
    const std::size_t i = LatencyHistogram::bucket_index(v);
    const double rel =
        static_cast<double>(LatencyHistogram::bucket_width(i)) /
        static_cast<double>(LatencyHistogram::bucket_lower(i));
    EXPECT_LE(rel, 1.0 / LatencyHistogram::kSub) << "v=" << v;
  }
}

// ---------------------------------------------------------------------------
// Quantiles vs a sorted reference (the shared util::percentile convention).

TEST(ObsHistogram, QuantilesMatchSortedReferenceExactRange) {
  // All values < 64 sit in exact unit buckets, so the histogram quantile
  // must agree with util::percentile to within the 1-unit bucket width.
  LatencyHistogram h;
  std::vector<double> ref;
  lot::util::Xoshiro256 rng(42);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng.next_below(60);
    h.record(v);
    ref.push_back(static_cast<double>(v));
  }
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    const double exact = lot::util::percentile(ref, p);
    EXPECT_NEAR(h.quantile(p), exact, 1.0) << "p=" << p;
  }
}

TEST(ObsHistogram, QuantilesMatchSortedReferenceLogRange) {
  // Wide-range values: agreement within one bucket's relative width
  // (3.125%) plus the reference's own interpolation inside that bucket.
  LatencyHistogram h;
  std::vector<double> ref;
  lot::util::Xoshiro256 rng(7);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform-ish spread over [1, 2^30).
    const unsigned bits = 1 + static_cast<unsigned>(rng.next_below(30));
    const std::uint64_t v = 1 + rng.next_below(1ull << bits);
    h.record(v);
    ref.push_back(static_cast<double>(v));
  }
  for (double p : {50.0, 90.0, 99.0}) {
    const double exact = lot::util::percentile(ref, p);
    const double got = h.quantile(p);
    EXPECT_NEAR(got, exact, exact * 0.04 + 1.0) << "p=" << p;
  }
  const HistogramStats s = h.stats();
  EXPECT_EQ(s.count, 20000u);
  EXPECT_EQ(static_cast<double>(s.max_ns),
            *std::max_element(ref.begin(), ref.end()));
}

TEST(ObsHistogram, SingleValueAndReset) {
  LatencyHistogram h;
  h.record(1000);
  const HistogramStats s = h.stats();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.max_ns, 1000u);
  // One sample: every quantile is that sample's bucket (width 32 at 1000).
  EXPECT_GE(s.p50_ns, 992.0);
  EXPECT_LT(s.p50_ns, 1024.0);
  EXPECT_EQ(s.p50_ns, s.p99_ns);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(50.0), 0.0);
}

// ---------------------------------------------------------------------------
// Counters.

TEST(ObsCounters, ConcurrentIncrementsSumExactly) {
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 200000 / LOT_STRESS_DIVISOR + 1;
  const std::uint64_t before = lot::obs::counter_total(Counter::kRotations);
  const std::uint64_t before_w =
      lot::obs::counter_total(Counter::kHeightPasses);
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([] {
      const auto tls = lot::obs::tls();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        tls.add(Counter::kRotations);
        if ((i & 3) == 0) tls.add(Counter::kHeightPasses, 5);
      }
    });
  }
  for (auto& t : ts) t.join();
  // Exact, not approximate: each shard is single-writer, so no increment
  // can be lost to a racing read-modify-write.
  EXPECT_EQ(lot::obs::counter_total(Counter::kRotations) - before,
            kThreads * kPerThread);
  EXPECT_EQ(lot::obs::counter_total(Counter::kHeightPasses) - before_w,
            kThreads * ((kPerThread + 3) / 4) * 5);
}

TEST(ObsCounters, SnapshotWhileWritingIsMonotoneLowerBound) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 400000 / LOT_STRESS_DIVISOR + 1;
  const std::uint64_t before = lot::obs::counter_total(Counter::kPurgeAttempts);
  std::atomic<unsigned> done{0};
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      const auto tls = lot::obs::tls();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        tls.add(Counter::kPurgeAttempts);
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  // Read concurrently with the writers: every observation must be a value
  // the true total passed through (monotone, never above the final sum).
  std::uint64_t prev = 0;
  while (done.load(std::memory_order_acquire) < kThreads) {
    const std::uint64_t now =
        lot::obs::counter_total(Counter::kPurgeAttempts) - before;
    ASSERT_GE(now, prev);
    ASSERT_LE(now, kThreads * kPerThread);
    prev = now;
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(lot::obs::counter_total(Counter::kPurgeAttempts) - before,
            kThreads * kPerThread);
}

TEST(ObsCounters, ThreadExitShardAdoption) {
  const std::uint64_t before = lot::obs::counter_total(Counter::kGetOps);
  std::thread a([] { lot::obs::count(Counter::kGetOps, 100); });
  a.join();
  // a's shard was released at exit with its values intact: nothing lost.
  EXPECT_EQ(lot::obs::counter_total(Counter::kGetOps) - before, 100u);
  const std::size_t shards_after_a = lot::obs::counter_shards();
  std::thread b([] { lot::obs::count(Counter::kGetOps, 23); });
  b.join();
  // b adopted a released shard (a's, or an earlier test thread's) instead
  // of growing the list, and both threads' counts survived.
  EXPECT_EQ(lot::obs::counter_shards(), shards_after_a);
  EXPECT_EQ(lot::obs::counter_total(Counter::kGetOps) - before, 123u);
}

// ---------------------------------------------------------------------------
// Registry + the derived audit on real trees.

// contains_restarts() over a window rather than process lifetime: earlier
// tests in this binary bump counters synthetically (no descents behind
// them), so the global balance is meaningless here — the windowed one
// must still come out exactly zero.
std::int64_t contains_restarts_delta(const Snapshot& s0, const Snapshot& s1) {
  const auto d = [&](Counter c) {
    return static_cast<std::int64_t>(s1.counter(c) - s0.counter(c));
  };
  return d(Counter::kTreeDescents) -
         (d(Counter::kContainsOps) + d(Counter::kGetOps) +
          d(Counter::kRangeOps) + d(Counter::kOrderedLocates) +
          d(Counter::kInsertOps) + d(Counter::kInsertRestarts) +
          d(Counter::kEraseOps) + d(Counter::kEraseRestarts));
}

TEST(ObsRegistry, SequentialAvlOpsReconcileExactly) {
  const Snapshot s0 = Registry::instance().snapshot();
  lot::lo::AvlMap<std::int64_t, std::int64_t> avl;
  for (std::int64_t k = 0; k < 200; ++k) ASSERT_TRUE(avl.insert(k, k));
  ASSERT_FALSE(avl.insert(7, 7));  // duplicate
  for (std::int64_t k = 0; k < 200; k += 2) ASSERT_TRUE(avl.erase(k));
  ASSERT_FALSE(avl.erase(1000));  // absent
  int hits = 0;
  for (std::int64_t k = 0; k < 200; ++k) hits += avl.contains(k) ? 1 : 0;
  const Snapshot s1 = Registry::instance().snapshot();

  const auto delta = [&](Counter c) { return s1.counter(c) - s0.counter(c); };
  EXPECT_EQ(delta(Counter::kInsertOps), 201u);
  EXPECT_EQ(delta(Counter::kInsertSuccess), 200u);
  EXPECT_EQ(delta(Counter::kEraseOps), 101u);
  EXPECT_EQ(delta(Counter::kEraseSuccess), 100u);
  EXPECT_EQ(delta(Counter::kContainsOps), 200u);
  EXPECT_EQ(delta(Counter::kContainsHits), static_cast<std::uint64_t>(hits));
  EXPECT_EQ(hits, 100);
  EXPECT_GE(delta(Counter::kRotations), 1u);  // AVL had to rotate
  EXPECT_EQ(delta(Counter::kEraseLogical), 0u);  // on-time removal: never
  // Single-threaded OnTimeRemoval: the node is allocated before the
  // validation loop, so no restart of any kind can occur — and the central
  // audit: every descent accounted for, contains never restarted.
  EXPECT_EQ(delta(Counter::kInsertRestarts), 0u);
  EXPECT_EQ(delta(Counter::kEraseRestarts), 0u);
  EXPECT_EQ(contains_restarts_delta(s0, s1), 0);
}

TEST(ObsRegistry, ZombieLifecycleCountersReconcile) {
  const Snapshot s0 = Registry::instance().snapshot();
  lot::lo::PartialAvlMap<std::int64_t, std::int64_t> m;
  // 1,2,3 force a rotation that roots 2 with two children — so erase(2) is
  // the two-children case LogicalRemoving downgrades to a zombie.
  ASSERT_TRUE(m.insert(1, 1));
  ASSERT_TRUE(m.insert(2, 2));
  ASSERT_TRUE(m.insert(3, 3));
  ASSERT_TRUE(m.erase(2));
  EXPECT_FALSE(m.contains(2));
  ASSERT_TRUE(m.insert(2, 42));  // revive the zombie in place
  EXPECT_TRUE(m.contains(2));
  const Snapshot s1 = Registry::instance().snapshot();

  const auto delta = [&](Counter c) { return s1.counter(c) - s0.counter(c); };
  EXPECT_EQ(delta(Counter::kInsertOps), 4u);
  EXPECT_EQ(delta(Counter::kInsertSuccess), 4u);
  EXPECT_EQ(delta(Counter::kEraseOps), 1u);
  EXPECT_EQ(delta(Counter::kEraseSuccess), 1u);
  EXPECT_EQ(delta(Counter::kEraseLogical), 1u);
  EXPECT_EQ(delta(Counter::kInsertRevives), 1u);
  EXPECT_EQ(delta(Counter::kEraseRelocations), 0u);  // LR never relocates
  // Fresh LogicalRemoving inserts used to re-descend once each through the
  // allocate-outside-the-lock path; the versioned capture now allocates
  // from the captured interval before taking the lock, so a single-threaded
  // run needs neither a resume nor a restart.
  EXPECT_EQ(delta(Counter::kInsertRestarts), 0u);
  EXPECT_EQ(delta(Counter::kLocateResumes), 0u);
  EXPECT_EQ(delta(Counter::kValidationFallbacks), 0u);
  EXPECT_EQ(contains_restarts_delta(s0, s1), 0);
}

TEST(ObsRegistry, SerializersCarryTheSchema) {
  lot::obs::record_latency(OpKind::kScan, 500);
  const Snapshot s = Registry::instance().snapshot();
  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"schema\": \"lot-obs-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"contains_restarts\""), std::string::npos);
  EXPECT_NE(json.find("\"tree_descents\""), std::string::npos);
  EXPECT_NE(json.find("\"scan\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch_lag\""), std::string::npos);
  // The longest line (the pool gauges) must arrive whole with every gauge
  // at its widest: its last field is present and every brace closes.
  Snapshot wide = s;
  auto& pool = wide.ebr.pool;
  pool.slabs = pool.huge_chunks = pool.allocs = pool.frees =
      pool.remote_frees = pool.harvests = pool.fallback_allocs =
          pool.fallback_frees = pool.caches_created = pool.caches_adopted =
              wide.live_nodes = UINT64_MAX;
  const std::string wide_json = wide.to_json();
  EXPECT_NE(wide_json.find("\"live_nodes\": 18446744073709551615}"),
            std::string::npos);
  EXPECT_EQ(std::count(wide_json.begin(), wide_json.end(), '{'),
            std::count(wide_json.begin(), wide_json.end(), '}'));
  const std::string text = s.to_text();
  EXPECT_NE(text.find("contains_restarts"), std::string::npos);
  EXPECT_NE(text.find("tree_descents"), std::string::npos);
}

// health.transitions is a dead ledger row kept only for the benchmark
// harness: it reads 0 even across a real stall episode, and neither
// serializer emits a health key (the stall shows in the EBR rows).
TEST(ObsRegistry, HealthRowIsADeadPlaceholder) {
  lot::reclaim::EbrDomain domain;
  domain.set_retire_threshold(1);
  domain.set_stall_strike_limit(4);
  domain.set_stall_report_us(0);
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::thread straggler([&] {
    auto g = domain.guard();
    parked = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();
  for (int i = 0; i < 16; ++i) {
    domain.retire_raw(new int(i),
                      [](void* q) { delete static_cast<int*>(q); });
  }

  const Snapshot s = Registry::instance().snapshot();
  release = true;
  straggler.join();
  EXPECT_TRUE(s.any_stalled());
  EXPECT_EQ(s.health.transitions, 0u);
  EXPECT_EQ(s.to_json().find("health"), std::string::npos);
  EXPECT_EQ(s.to_text().find("health"), std::string::npos);
  domain.flush();
  domain.flush();
  EXPECT_EQ(domain.pending_retired(), 0u);
}

}  // namespace
