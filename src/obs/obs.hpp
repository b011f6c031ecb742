// The observability registry: one place that aggregates the per-thread
// counter shards (obs/counters.hpp), the latency histograms
// (obs/histogram.hpp) and the reclamation/pool gauges
// (EbrDomain::stats(), which already embeds PoolSnapshot) into a single
// structured Snapshot, with text and JSON (schema "lot-obs-v1")
// serializers.
//
// Snapshots are safe to take while threads are running: counters are
// single-writer monotone atomics, so a live snapshot is a consistent
// lower bound per counter and exact at quiescence. The derived
// contains_restarts() audit (DESIGN.md §12) should therefore be read at
// quiescence — the stress harness snapshots at its phase barriers.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "reclaim/ebr.hpp"

namespace lot::obs {

/// Point-in-time aggregate of every telemetry source.
struct Snapshot {
  /// One row per registered EbrDomain (the global domain plus every
  /// shard-private one alive at snapshot time) — the reclamation gauges a
  /// ShardedMap spreads across its shards, re-surfaced per shard. Rows
  /// are keyed by the domain's process-unique uid, not an address: a
  /// domain destroyed between snapshots simply stops appearing.
  struct DomainRow {
    std::uint64_t uid = 0;
    std::uint64_t epoch = 0;
    std::uint64_t epoch_lag = 0;
    std::size_t pending_retired = 0;
    std::size_t backlog_peak = 0;
    std::uint64_t contention_events = 0;
    bool stalled_now = false;
  };

  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<HistogramStats, kOpKindCount> latency{};
  reclaim::EbrDomain::Stats ebr{};    // incl. PoolSnapshot gauges
  std::vector<DomainRow> domains;     // every live domain, global included
  /// Dead ledger row, always 0: perfbench's `health.transitions` still
  /// compiles against it, but no health state exists to transition
  /// (reclamation pressure is EBR's own, DESIGN.md §9). Drop it with
  /// `rebalance.deferred_per_kop` in the next change that is allowed to
  /// touch the benchmark.
  struct {
    std::uint64_t transitions = 0;
  } health;
  std::uint64_t live_nodes = 0;       // AllocStats::live()
  std::size_t counter_shards = 0;

  /// Aggregates over `domains` — the process-wide reclamation picture no
  /// single domain's Stats can give once maps stop sharing one domain.
  /// Sum the backlog; lag and stall take the worst domain.
  std::size_t total_pending_retired() const {
    std::size_t n = 0;
    for (const DomainRow& d : domains) n += d.pending_retired;
    return n;
  }
  std::uint64_t max_epoch_lag() const {
    std::uint64_t lag = 0;
    for (const DomainRow& d : domains) lag = std::max(lag, d.epoch_lag);
    return lag;
  }
  bool any_stalled() const {
    for (const DomainRow& d : domains) {
      if (d.stalled_now) return true;
    }
    return false;
  }

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }

  /// The paper's "contains never restarts" claim as a measured number
  /// (DESIGN.md §12): every tree descent (Algorithm 1, counted inside
  /// search() itself) must be accounted for by exactly one locating read
  /// or one write attempt. Reads perform one descent per call by
  /// construction of the algorithm — if any read path ever re-descended,
  /// descents would exceed the accounted sum and this would go positive.
  /// Writes re-descend only when a failed validation exhausts its resume
  /// budget, which the restart counters measure independently; in-place
  /// resumes (kLocateResumes) perform no descent and so do not enter the
  /// identity. MVCC snapshot reads (DESIGN.md §16) stay inside it by
  /// construction: a snapshot contains/get/range performs one descent and
  /// bumps the same per-op counter as its live twin, snapshot cursor
  /// opens count kOrderedLocates, and the snapshot-only counters
  /// (kSnapshotAcquires, kVersionsRetired, kVersionChainWalks,
  /// kLimboParks, kLimboFolds) track non-descent work, so none of them
  /// enters the sum.
  /// The companion cross-check is kValidationFallbacks ==
  /// kInsertRestarts + kEraseRestarts in fault-free runs. Signed: a mid-run
  /// transiently see more ops than descents (the descent is counted
  /// before the op completes); at quiescence the value is exact.
  std::int64_t contains_restarts() const {
    const std::uint64_t accounted =
        counter(Counter::kContainsOps) + counter(Counter::kGetOps) +
        counter(Counter::kRangeOps) + counter(Counter::kOrderedLocates) +
        counter(Counter::kInsertOps) + counter(Counter::kInsertRestarts) +
        counter(Counter::kEraseOps) + counter(Counter::kEraseRestarts);
    return static_cast<std::int64_t>(counter(Counter::kTreeDescents)) -
           static_cast<std::int64_t>(accounted);
  }

  /// The same audit over a window of counter deltas. Process-lifetime
  /// balance is meaningless in binaries that bump counters synthetically
  /// (tests), and benchmarks want the audit per cell — both diff two
  /// quiescent snapshots instead.
  static std::int64_t contains_restarts_between(const Snapshot& s0,
                                                const Snapshot& s1) {
    Snapshot d;
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      d.counters[i] = s1.counters[i] - s0.counters[i];
    }
    return d.contains_restarts();
  }

  /// Human-readable multi-line report (scripts/obs_report.sh,
  /// examples/orderbook.cpp).
  std::string to_text() const;

  /// Schema "lot-obs-v1": flat JSON object with counters{}, latency{},
  /// gauges{} and the derived contains_restarts.
  std::string to_json() const;
};

/// Process-wide singleton front door.
class Registry {
 public:
  static Registry& instance();

  /// Aggregates counters + histograms + gauges. `domain` selects which
  /// domain fills the headline `ebr` gauges (default: the global domain);
  /// `domains` always carries one row per live registered domain
  /// regardless.
  Snapshot snapshot(const reclaim::EbrDomain* domain = nullptr) const;

  /// Zeroes counters and histograms (gauges are owned by their layers and
  /// stay). Quiescence only — benchmark cells reset between runs.
  void reset();

 private:
  Registry() = default;
};

}  // namespace lot::obs
