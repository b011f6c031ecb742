// Shared machinery for the schedule-perturbing stress tests.
//
// A stress run is phases of recorded random churn from N persistent worker
// threads, with three barrier crossings per phase:
//   1. all workers release into the phase's op loop;
//   2. workers park after their ops — thread 0 runs the full structural
//      validation (lo/validate.hpp) against the now-quiescent tree and
//      escalates the perturbation intensity for the next phase;
//   3. workers release past the validation.
// Every operation is recorded (check/history.hpp); after the workers join,
// the merged history goes through the linearizability checker. On a
// rejected history expect_linearizable() dumps the complete history plus
// the violation witness to $LOT_HISTORY_DUMP (default ./history.txt) so
// scripts/check.sh can surface the artifact.
//
// These tests compile the trees with LOT_SCHEDULE_PERTURB (see
// tests/stress/CMakeLists.txt), so the named points in lo/core.hpp and
// lo/rebalance.hpp inject randomized pauses that widen the algorithm's
// race windows — on the single-core CI box, that is where essentially all
// mid-operation interleavings come from.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "check/history.hpp"
#include "check/linearize.hpp"
#include "check/perturb.hpp"
#include "lo/validate.hpp"
#include "obs/obs.hpp"
#include "sync/barrier.hpp"
#include "util/random.hpp"

#ifndef LOT_STRESS_DIVISOR
#define LOT_STRESS_DIVISOR 1
#endif

namespace lot::stress {

/// Scales an iteration count down for slow instrumented builds (TSan
/// targets set LOT_STRESS_DIVISOR to ~20).
constexpr std::uint64_t scaled(std::uint64_t n) {
  const std::uint64_t s = n / LOT_STRESS_DIVISOR;
  return s > 0 ? s : 1;
}

struct StressParams {
  unsigned threads = 8;
  int phases = 3;
  std::uint64_t ops_per_phase = scaled(12'000);  // per thread
  std::int64_t key_range = 192;
  std::uint64_t seed = 1;
  bool check_heights = false;       // true for the AVL variants
  unsigned contains_pct = 40;
  unsigned insert_pct = 30;         // remainder of 100 is erase
  std::uint32_t fire_permille = 30; // phase-0 intensity; later phases escalate
  std::uint32_t max_sleep_us = 60;
  bool prefill = true;              // recorded half-dense prefill
  unsigned scan_pct = 0;            // taken from the erase share's tail
  // Snapshot scans: also taken from the erase share, between erase and
  // the weak scans. Each draws a SnapshotView and records ONE whole-scan
  // observation (check/history.hpp) that the whole-scan checker must
  // explain at a single linearization point. On maps without snapshot()
  // (the baselines) the share falls back to erase.
  unsigned snapshot_pct = 0;
  std::int64_t scan_len = 12;       // keys spanned per recorded scan
  // Per-op chance (permille) of an unrecorded purge_all() burst racing the
  // workers — physical unlink storms are exactly what snapshot scans must
  // survive. purge_all has no logical effect, so it needs no history
  // event. Ignored on on-time-removal maps.
  std::uint32_t purge_permille = 0;
  bool partial = false;             // logical-removing map: relax validation
  // The stale-version negative control (LOT_INJECT_BUG=2) deliberately
  // orphans nodes off the chain while they stay in the tree: the
  // linearizability verdict is the point, the tree-vs-chain mirror check
  // would only fail first.
  bool validate_structure = true;
};

template <typename KeyT>
struct StressOutcome {
  check::CheckResult<KeyT> result;
  std::vector<check::Event<KeyT>> history;
  // Whole-scan observations and their separate atomicity verdict
  // (check::check_snapshot_scans). Default-constructed CheckResult is
  // kLinearizable, so runs without snapshot scans pass vacuously.
  std::vector<check::SnapshotScan<KeyT>> scans;
  check::CheckResult<KeyT> scan_result;
  std::uint64_t total_ops = 0;
  double check_ms = 0.0;       // offline per-key checker wall time
  double scan_check_ms = 0.0;  // whole-scan checker wall time
  // Observability snapshots bracketing the run (before prefill / after the
  // workers joined, both quiescent) for expect_obs_reconciles() below.
  obs::Snapshot obs_before{};
  obs::Snapshot obs_after{};
};

/// Runs the checker over a merged history, timing it and filling the
/// outcome fields shared by the stress tests.
template <typename KeyT>
StressOutcome<KeyT> check_history(std::vector<check::Event<KeyT>> history) {
  StressOutcome<KeyT> out;
  out.history = std::move(history);
  out.total_ops = out.history.size();
  const auto t0 = std::chrono::steady_clock::now();
  out.result = check::check_set_history(out.history);
  const auto t1 = std::chrono::steady_clock::now();
  out.check_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

/// As above, plus the whole-scan atomicity check over recorded snapshot
/// scans: every scan's full observation vector must be explainable by the
/// per-key write history at a single instant within the scan's window.
template <typename KeyT>
StressOutcome<KeyT> check_history(
    std::vector<check::Event<KeyT>> history,
    std::vector<check::SnapshotScan<KeyT>> scans) {
  auto out = check_history(std::move(history));
  out.scans = std::move(scans);
  if (!out.scans.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    out.scan_result = check::check_snapshot_scans(out.history, out.scans);
    const auto t1 = std::chrono::steady_clock::now();
    out.scan_check_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
  }
  return out;
}

/// One-line checker-stats summary (gtest-style informational output, also
/// the source for the EXPERIMENTS.md checker-runtime table).
template <typename KeyT>
void print_check_stats(const char* tag, const StressOutcome<KeyT>& out) {
  const auto& s = out.result.stats;
  std::printf(
      "[ checker  ] %s: %llu events, %llu keys, %llu overlap blocks "
      "(max %llu), %llu configs, %.2f ms\n",
      tag, static_cast<unsigned long long>(s.events),
      static_cast<unsigned long long>(s.keys),
      static_cast<unsigned long long>(s.overlap_blocks),
      static_cast<unsigned long long>(s.max_block),
      static_cast<unsigned long long>(s.configs_explored), out.check_ms);
  if (!out.scans.empty()) {
    std::printf(
        "[ checker  ] %s: %zu snapshot scans, %llu configs, %.2f ms "
        "(whole-scan)\n",
        tag, out.scans.size(),
        static_cast<unsigned long long>(out.scan_result.stats.configs_explored),
        out.scan_check_ms);
  }
}

/// Runs the recorded, perturbed, phase-validated stress described in the
/// header comment and returns the checker's verdict plus the raw history.
/// Structural validation failures and recorder overflow surface as test
/// failures here; the linearizability verdict is the caller's to assert,
/// because the seeded-bug test *wants* a rejection.
template <typename MapT>
StressOutcome<typename MapT::key_type> run_perturbed_stress(
    MapT& map, const StressParams& p) {
  using K = typename MapT::key_type;
  // Worst case, every op is a scan and each scan records scan_len per-key
  // observations — scan-enabled campaigns size ops_per_phase accordingly.
  const std::size_t events_per_op =
      p.scan_pct > 0 ? static_cast<std::size_t>(p.scan_len) : 1;
  const std::size_t capacity =
      p.ops_per_phase * static_cast<std::size_t>(p.phases) * events_per_op +
      static_cast<std::size_t>(p.key_range) + 8;
  check::HistoryRecorder<K> rec(p.threads, capacity);
  const obs::Snapshot obs_before = obs::Registry::instance().snapshot();

  if (p.prefill) {
    // Recorded single-threaded prefill: every other key present, so erase
    // and contains hit live keys (and two-child removals, the relocation
    // path the perturbation targets) from the first operation.
    for (std::int64_t k = 0; k < p.key_range; k += 2) {
      rec.record(0, check::Op::kInsert, static_cast<K>(k),
                 [&] { return map.insert(static_cast<K>(k), static_cast<K>(k)); });
    }
  }

  check::reset_perturb_hits();
  check::set_perturbation(p.fire_permille, p.max_sleep_us);
  check::enable_perturbation(true);

  sync::ThreadBarrier barrier(p.threads);
  std::vector<std::thread> workers;
  workers.reserve(p.threads);
  for (unsigned t = 0; t < p.threads; ++t) {
    workers.emplace_back([&, t] {
      util::Xoshiro256 rng(p.seed * 0x9E3779B97F4A7C15ULL + t + 1);
      auto phase_start = std::chrono::steady_clock::now();
      for (int phase = 0; phase < p.phases; ++phase) {
        barrier.arrive_and_wait();  // (1) phase start
        for (std::uint64_t i = 0; i < p.ops_per_phase; ++i) {
          const K key = static_cast<K>(
              rng.next_below(static_cast<std::uint64_t>(p.key_range)));
          if constexpr (requires { map.purge_all(); }) {
            if (p.purge_permille > 0 &&
                rng.next_below(1000) < p.purge_permille) {
              map.purge_all();
            }
          }
          const auto dice = rng.next_below(100);
          const bool snapshot_roll =
              dice >= 100 - p.scan_pct - p.snapshot_pct &&
              dice < 100 - p.scan_pct;
          if (dice < p.contains_pct) {
            rec.record(t, check::Op::kContains, key,
                       [&] { return map.contains(key); });
          } else if (dice < p.contains_pct + p.insert_pct) {
            rec.record(t, check::Op::kInsert, key,
                       [&] { return map.insert(key, key); });
          } else if (dice < 100 - p.scan_pct && !snapshot_roll) {
            rec.record(t, check::Op::kRemove, key,
                       [&] { return map.erase(key); });
          } else if (snapshot_roll) {
            // Snapshot scan, recorded as ONE whole-scan observation: the
            // entire reported vector must hold at a single point within
            // the window. Falls back to erase when the map has no
            // snapshot() (the baselines), keeping the op mix comparable
            // across structures.
            if constexpr (requires { map.snapshot(); }) {
              rec.record_snapshot_scan(
                  t, key, static_cast<K>(key + p.scan_len),
                  [&](const K& lo, const K& hi, auto&& sink) {
                    auto view = map.snapshot();
                    view.range(lo, hi, sink);
                  });
            } else {
              rec.record(t, check::Op::kRemove, key,
                         [&] { return map.erase(key); });
            }
          } else {
            // Recorded range scan, decomposed by the recorder into
            // per-key contains observations (check/history.hpp) that the
            // linearizability checker validates like any other reads.
            rec.record_scan(t, key, static_cast<K>(key + p.scan_len),
                            [&](const K& lo, const K& hi, auto&& sink) {
                              map.range(lo, hi, sink);
                            });
          }
        }
        barrier.arrive_and_wait();  // (2) everyone parked: quiescent point
        if (t == 0) {
          std::printf("[ stress   ] phase %d done (%.1fs)\n", phase,
                      std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - phase_start)
                          .count());
          std::fflush(stdout);
          phase_start = std::chrono::steady_clock::now();
          if (p.validate_structure) {
            if constexpr (MapT::kBalanced) {
              // Climbs abandoned during the contended phase may have left
              // stale heights; strict-balance validation is a statement
              // about quiescence, so repair first (DESIGN.md §13).
              if (p.check_heights) map.repair_balance();
            }
            const auto rep = lo::validate(map, p.check_heights, p.partial);
            EXPECT_TRUE(rep.ok)
                << "structural validation failed after phase " << phase
                << ":\n"
                << rep.to_string();
          }
          // Escalate the firing rate each phase; cap the sleep length at
          // 2x base — longer sleeps under the AVL tree locks (rotations
          // hold them) serialize the whole run on the one-core CI box
          // without widening the windows any further.
          const std::uint32_t permille = p.fire_permille << (phase + 1);
          const std::uint32_t sleep_us = p.max_sleep_us << (phase + 1);
          const std::uint32_t sleep_cap = p.max_sleep_us * 2;
          check::set_perturbation(permille > 1000 ? 1000 : permille,
                                  sleep_us > sleep_cap ? sleep_cap : sleep_us);
        }
        barrier.arrive_and_wait();  // (3) release past validation
      }
    });
  }
  for (auto& w : workers) w.join();
  check::enable_perturbation(false);
  // Quiescent: every worker joined, and validate() below reads the tree
  // without going through the counted op surface.
  const obs::Snapshot obs_after = obs::Registry::instance().snapshot();

  EXPECT_FALSE(rec.overflowed()) << "history log overflow: grow capacity";
  if (p.validate_structure) {
    if constexpr (MapT::kBalanced) {
      if (p.check_heights) map.repair_balance();
    }
    const auto rep = lo::validate(map, p.check_heights, p.partial);
    EXPECT_TRUE(rep.ok) << "final structural validation failed:\n"
                        << rep.to_string();
  }

  auto out = check_history(rec.merged(), rec.merged_scans());
  out.obs_before = obs_before;
  out.obs_after = obs_after;
  return out;
}

/// Reconciles the obs counter deltas across a stress run against the
/// recorded history, with zero tolerance: every operation the checker saw
/// must have been counted exactly once by the tree's own telemetry, and —
/// the paper's §4 claim, audited under schedule perturbation — contains
/// must never have restarted a descent.
///
/// `scan_len` must match the StressParams the run used: the recorder
/// decomposes each range scan into exactly scan_len per-key contains
/// observations, while the tree counts the scan as one kRangeOps plus one
/// kRangeKeysReported per key handed to the sink.
template <typename KeyT>
void expect_obs_reconciles(const StressOutcome<KeyT>& out,
                           std::int64_t scan_len) {
  std::uint64_t ins = 0, ins_ok = 0, rem = 0, rem_ok = 0;
  std::uint64_t con = 0, con_ok = 0;
  for (const auto& e : out.history) {
    switch (e.op) {
      case check::Op::kInsert:
        ++ins;
        ins_ok += e.result ? 1 : 0;
        break;
      case check::Op::kRemove:
        ++rem;
        rem_ok += e.result ? 1 : 0;
        break;
      case check::Op::kContains:
        ++con;
        con_ok += e.result ? 1 : 0;
        break;
      case check::Op::kScan:
        break;  // whole-scan observations live in out.scans, never here
    }
  }
  using obs::Counter;
  const auto d = [&](Counter c) {
    return out.obs_after.counter(c) - out.obs_before.counter(c);
  };
  EXPECT_EQ(d(Counter::kInsertOps), ins) << "insert ops vs history";
  EXPECT_EQ(d(Counter::kInsertSuccess), ins_ok) << "insert successes";
  EXPECT_EQ(d(Counter::kEraseOps), rem) << "erase ops vs history";
  EXPECT_EQ(d(Counter::kEraseSuccess), rem_ok) << "erase successes";
  // Snapshot accounting is exact: every recorded snapshot scan acquired
  // precisely one view, and each view's range() counted one kRangeOps plus
  // one kRangeKeysReported per key it handed the sink — which is exactly
  // that scan's recorded `present` vector. Subtracting those from the
  // range-counter deltas leaves the weak scans, which the recorder
  // decomposed into per-key contains observations.
  const std::uint64_t snap_scans = out.scans.size();
  std::uint64_t snap_keys = 0;
  for (const auto& s : out.scans) snap_keys += s.present.size();
  EXPECT_EQ(d(Counter::kSnapshotAcquires), snap_scans)
      << "snapshot views acquired vs recorded snapshot scans";
  ASSERT_GE(d(Counter::kRangeOps), snap_scans) << "range ops vs snapshots";
  ASSERT_GE(d(Counter::kRangeKeysReported), snap_keys)
      << "range keys vs snapshot observations";
  const std::uint64_t scans = d(Counter::kRangeOps) - snap_scans;
  EXPECT_EQ(d(Counter::kContainsOps) +
                scans * static_cast<std::uint64_t>(scan_len),
            con)
      << "contains observations (point + " << scans << " scans x "
      << scan_len << ") vs history";
  EXPECT_EQ(d(Counter::kContainsHits) + d(Counter::kRangeKeysReported) -
                snap_keys,
            con_ok)
      << "contains hits + scan keys reported vs history true-reads";
  // The derived audit over this window: every tree descent accounted for
  // by exactly one op or one counted write restart → contains (and every
  // other read) never restarted, even with perturbation widening every
  // race window. In-place resumes perform no descent, so the identity is
  // unchanged by the versioned write path (DESIGN.md §13).
  EXPECT_EQ(obs::Snapshot::contains_restarts_between(out.obs_before,
                                                     out.obs_after),
            0)
      << "a read path re-descended the tree";
  // And the resumes themselves are accounted exactly: every write attempt
  // that exhausted its resume budget fell back to precisely one counted
  // root re-descent — no restart is ever counted without its fallback, no
  // fallback without its restart.
  EXPECT_EQ(d(Counter::kValidationFallbacks),
            d(Counter::kInsertRestarts) + d(Counter::kEraseRestarts))
      << "fallbacks vs restart counts diverged";
  // MVCC bookkeeping closes over the same window: a past-version record is
  // only ever created by a successful insert that revived a zombie, so the
  // versions retired can never exceed the successful inserts; and version
  // chains are only walked on behalf of a snapshot resolution, so a run
  // that never took a snapshot never touched a chain.
  EXPECT_LE(d(Counter::kVersionsRetired), d(Counter::kInsertSuccess))
      << "more versions retired than revives could have created";
  if (snap_scans == 0) {
    EXPECT_EQ(d(Counter::kVersionChainWalks), 0u)
        << "version chain walked without any snapshot";
  }
}

/// Writes the full history and (if any) violation witness where
/// scripts/check.sh expects the artifact.
template <typename KeyT>
std::string dump_history_artifact(const StressOutcome<KeyT>& out) {
  const char* env = std::getenv("LOT_HISTORY_DUMP");
  const std::string path = (env != nullptr && *env != '\0') ? env
                                                            : "history.txt";
  std::ofstream f(path, std::ios::trunc);
  f << "# verdict: "
    << (out.result.verdict == check::Verdict::kLinearizable
            ? "linearizable"
            : out.result.verdict == check::Verdict::kNonLinearizable
                  ? "NON-LINEARIZABLE"
                  : "aborted (budget)")
    << "\n# reason: " << out.result.reason << "\n";
  if (!out.result.witness.empty()) {
    f << "# offending block:\n"
      << check::format_history(out.result.witness);
  }
  if (!out.scans.empty()) {
    f << "# whole-scan verdict: "
      << (out.scan_result.ok() ? "linearizable" : "NON-LINEARIZABLE")
      << "\n# whole-scan reason: " << out.scan_result.reason << "\n";
    if (!out.scan_result.witness.empty()) {
      f << "# writes on the offending key:\n"
        << check::format_history(out.scan_result.witness);
    }
    f << "# snapshot scans (" << out.scans.size() << "):\n";
    for (const auto& s : out.scans) {
      f << "scan t" << s.thread << " [" << s.invoke << "," << s.response
        << ") range [" << s.lo << "," << s.hi << ") present {";
      for (std::size_t i = 0; i < s.present.size(); ++i) {
        if (i > 0) f << ' ';
        f << s.present[i];
      }
      f << "}\n";
    }
  }
  f << "# full history (" << out.history.size() << " events):\n"
    << check::format_history(out.history);
  return path;
}

/// Asserts the outcome is linearizable; on failure dumps the artifact and
/// points at it in the assertion message.
template <typename KeyT>
void expect_linearizable(const StressOutcome<KeyT>& out) {
  if (out.result.ok() && out.scan_result.ok()) return;
  const std::string path = dump_history_artifact(out);
  if (!out.result.ok()) {
    ADD_FAILURE() << "history of " << out.history.size()
                  << " events is not linearizable: " << out.result.reason
                  << "\nfull history dumped to " << path;
  }
  if (!out.scan_result.ok()) {
    ADD_FAILURE() << out.scans.size() << " snapshot scans checked, "
                  << "whole-scan atomicity violated: "
                  << out.scan_result.reason << "\nfull history dumped to "
                  << path;
  }
}

}  // namespace lot::stress
