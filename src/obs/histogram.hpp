// Log-bucketed latency histograms (HDR-histogram style), the second half
// of the observability layer's hot-path surface (counters.hpp is the
// first; obs/obs.hpp aggregates both into snapshots).
//
// Bucketing: log-linear with kSubBits sub-buckets per power of two —
// values below 2^(kSubBits+1) get exact unit buckets, larger values land
// in buckets of relative width 2^-kSubBits (3.125% at kSubBits = 5), so a
// quantile read is off by at most one bucket width plus the within-bucket
// interpolation error (tests/test_obs.cpp pins this against a sorted
// reference). The quantile walk shares util::percentile_rank with
// util::percentile so "p99" means the same thing everywhere.
//
// Recording is a handful of relaxed fetch_adds on shared atomics; unlike
// the counters this is NOT contention-free, which is why the workload
// driver only records a 1-in-N sample of operations
// (workload::Spec::latency_sample_every). Credible comparisons need
// latency distributions, not just throughput means; sampling keeps the
// distribution honest without perturbing what it measures.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "util/stats.hpp"

namespace lot::obs {

/// Operation classes with their own latency distribution.
enum class OpKind : std::uint8_t { kContains, kInsert, kErase, kScan, kCount };

inline constexpr std::size_t kOpKindCount =
    static_cast<std::size_t>(OpKind::kCount);

constexpr const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kContains: return "contains";
    case OpKind::kInsert:   return "insert";
    case OpKind::kErase:    return "erase";
    case OpKind::kScan:     return "scan";
    case OpKind::kCount:    break;
  }
  return "?";
}

/// Per-op-kind summary embedded in obs::Snapshot.
struct HistogramStats {
  std::uint64_t count = 0;
  std::uint64_t max_ns = 0;   // exact (tracked separately from buckets)
  double mean_ns = 0;
  double p50_ns = 0;
  double p90_ns = 0;
  double p99_ns = 0;
};

/// One latency distribution over uint64 nanoseconds.
class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 5;           // 32 sub-buckets / octave
  static constexpr std::uint64_t kSub = 1ull << kSubBits;
  // Unit buckets cover [0, 2*kSub); each further octave adds kSub buckets.
  static constexpr std::size_t kBucketCount =
      ((64 - kSubBits - 1) << kSubBits) + 2 * kSub;

  /// Bucket index for a value; monotone, total over uint64.
  static constexpr std::size_t bucket_index(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const unsigned top = std::bit_width(v) - 1;     // >= kSubBits + 1
    const unsigned shift = top - kSubBits;
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(shift) << kSubBits) +
        ((v >> shift) & (kSub - 1)) + kSub);
  }

  /// Inclusive lower edge of a bucket (the smallest value mapping to it).
  static constexpr std::uint64_t bucket_lower(std::size_t i) {
    if (i < 2 * kSub) return i;
    const std::uint64_t adj = i - kSub;
    const unsigned shift = static_cast<unsigned>(adj >> kSubBits);
    const std::uint64_t sub = adj & (kSub - 1);
    return (kSub + sub) << shift;
  }

  /// Bucket width (exclusive upper edge = lower + width).
  static constexpr std::uint64_t bucket_width(std::size_t i) {
    if (i < 2 * kSub) return 1;
    return 1ull << static_cast<unsigned>((i - kSub) >> kSubBits);
  }

  void record(std::uint64_t ns) {
    buckets_[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t m = max_.load(std::memory_order_relaxed);
    while (ns > m && !max_.compare_exchange_weak(m, ns,
                                                 std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// Value at quantile p (percent). Within the located bucket the samples
  /// are assumed uniform; the rank convention is util::percentile_rank, so
  /// on unit buckets this degrades gracefully toward the exact order
  /// statistic.
  double quantile(double p) const {
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    if (n == 0) return 0;
    const double rank = util::percentile_rank(p, static_cast<std::size_t>(n));
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
      if (c == 0) continue;
      if (rank < static_cast<double>(before + c)) {
        const double frac = (rank - static_cast<double>(before)) /
                            static_cast<double>(c);
        return static_cast<double>(bucket_lower(i)) +
               frac * static_cast<double>(bucket_width(i));
      }
      before += c;
    }
    // rank == n-1 exactly and the loop consumed every bucket: the max.
    return static_cast<double>(max_.load(std::memory_order_relaxed));
  }

  HistogramStats stats() const {
    HistogramStats s;
    s.count = count_.load(std::memory_order_relaxed);
    if (s.count == 0) return s;
    s.max_ns = max_.load(std::memory_order_relaxed);
    s.mean_ns = static_cast<double>(sum_.load(std::memory_order_relaxed)) /
                static_cast<double>(s.count);
    s.p50_ns = quantile(50.0);
    s.p90_ns = quantile(90.0);
    s.p99_ns = quantile(99.0);
    return s;
  }

  /// Zeroes the distribution. Only meaningful at quiescence (benchmarks
  /// reset between cells); concurrent records may be lost, never corrupt.
  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

namespace detail {
inline LatencyHistogram* latency_histograms() {
  // Immortal (never destroyed, reachable from this static for LSan), like
  // the counter shard list: snapshots may race process teardown.
  static LatencyHistogram* h = new LatencyHistogram[kOpKindCount];
  return h;
}
}  // namespace detail

inline LatencyHistogram& latency_histogram(OpKind k) {
  return detail::latency_histograms()[static_cast<std::size_t>(k)];
}

inline void record_latency(OpKind k, std::uint64_t ns) {
  latency_histogram(k).record(ns);
}

inline void reset_latency_histograms() {
  for (std::size_t i = 0; i < kOpKindCount; ++i) {
    detail::latency_histograms()[i].reset();
  }
}

/// RAII op timer: two steady_clock reads around the op when `active`,
/// nothing otherwise. The driver activates it on 1-in-N sampled ops.
class ScopedLatency {
 public:
  ScopedLatency(OpKind kind, bool active) : kind_(kind), active_(active) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedLatency() {
    if (!active_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    record_latency(kind_, ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  OpKind kind_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lot::obs
