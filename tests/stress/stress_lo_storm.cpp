// Chaos storm + recovery campaign for the overload governor (DESIGN.md
// §14, EXPERIMENTS.md A10). One run per LO variant:
//
//   1. Recorded churn from N workers while a StormScheduler drives seeded
//      allocation faults and guard-stall swarms through a ramp/hold/release
//      envelope, AND a dedicated straggler thread pins an epoch for the
//      whole storm — the worst weather the process models: memory failing,
//      readers preempted, reclamation wedged.
//   2. During the storm the governor must react (state reaches Degraded or
//      worse: the straggler trips the EBR stall watchdog and the frozen
//      epoch piles up retire backlog past the storm thresholds).
//   3. The storm releases, the straggler unpins, and the governor must
//      walk back to Healthy within its documented recovery_bound() of
//      explicit sample ticks while its flushes collapse the backlog
//      under the high-water mark.
//   4. Quiescent: repair_balance converges, structural validation is
//      clean, the recorded history is linearizable (faults included — an
//      OOM'd insert records nothing and must have changed nothing), and
//      the obs counters reconcile exactly against the history.
//
// The negative control (GovernorPoliciesOffViolatesRecoveryBound) runs the
// same weather with the governor's flush disabled and the thresholds
// unreachable — the ungoverned arm, from the same binary. The tree still survives (linearizable: the governor is a
// performance/robustness layer, never a correctness dependency), but the
// backlog does NOT collapse within the recovery bound: the difference the
// governor makes, stated as a test.
//
// Obs reconciliation under faults: an insert killed by an injected
// bad_alloc records no history event. The on-time policy allocates before
// its first descent, so a thrown insert touches no counters; the
// logical-removing policy allocates lazily mid-walk and pays one
// kInsertRestarts in its unwind to keep the descent audit balanced
// (lo/core.hpp). Hence here, unlike the fault-free identity,
//   d(kValidationFallbacks) == d(kInsertRestarts) + d(kEraseRestarts)
//                              - (escaped insert bad_allocs, lazy variants)
// while the read-side audit (contains_restarts == 0) holds unchanged.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <new>
#include <thread>
#include <vector>

#include "health/governor.hpp"
#include "inject/storm.hpp"
#include "lo/map.hpp"
#include "lo/partial.hpp"
#include "reclaim/alloc_stats.hpp"
#include "reclaim/pool.hpp"
#include "stress_common.hpp"
#include "sync/backoff.hpp"

namespace {

namespace inject = lot::inject;
using lot::health::State;
using lot::reclaim::AllocStats;
using lot::stress::scaled;

struct StormParams {
  unsigned threads = 8;
  std::uint64_t max_ops_per_thread = scaled(40'000);  // cap; stop-flag driven
  std::int64_t key_range = 192;
  std::uint64_t seed = 1;
  bool check_heights = false;
  bool partial = false;
  // Lazy (logical-removing) inserts pay one kInsertRestarts per escaped
  // bad_alloc; on-time inserts throw before their first descent.
  bool lazy_insert_alloc = false;
  bool governed = true;  // false = negative control (policies off,
                         // thresholds unreachable)
  std::size_t high_water = 768;  // EBR backlog mark the recovery must beat
};

inject::StormSpec storm_spec(const StormParams& p) {
  inject::StormSpec s;
  s.seed = p.seed;
  s.ramp_ms = 50;
  s.hold_ms = 100;
  s.release_ms = 50;
  s.step_ms = 5;
  s.stall_max_us = 150;
#if defined(LOT_FAULT_INJECT)
  s.sites = {
      {p.partial ? inject::Site::kPartialInsertAlloc
                 : inject::Site::kLoInsertAlloc,
       120},
      {inject::Site::kPoolAlloc, 40},
      {inject::Site::kGuardStallReader, 15},
      {inject::Site::kGuardStallWriter, 15},
  };
#endif
  return s;
}

using lot::health::governor;

/// Storm thresholds: reachable by one test-sized run (the defaults are
/// sized for production backlogs). backlog Critical (1536) sits above
/// high_water so recovery-by-flush is observable as Critical -> Healthy.
lot::health::Thresholds storm_thresholds() {
  lot::health::Thresholds t;
  t.backlog[0] = 256;
  t.backlog[1] = 512;
  t.backlog[2] = 1536;
  return t;
}

lot::health::Thresholds unreachable_thresholds() {
  lot::health::Thresholds t;
  for (int i = 0; i < 3; ++i) {
    t.backlog[i] = t.fallback[i] = t.heat[i] = UINT64_MAX;
  }
  t.lag_ticks = UINT32_MAX;
  return t;
}

void configure_governor(const StormParams& p) {
  governor().reset();
  governor().set_thresholds(p.governed ? storm_thresholds()
                                       : unreachable_thresholds());
  lot::health::set_policies_enabled(p.governed);
}

template <typename MapT>
void run_storm_campaign(const StormParams& p) {
  using K = typename MapT::key_type;
  const auto live_before = AllocStats::live();
  std::atomic<std::uint64_t> survived_oom{0};
  {
    configure_governor(p);

    lot::reclaim::EbrDomain domain;
    domain.set_retire_threshold(64);
    domain.set_backlog_high_water(p.high_water);
    domain.set_stall_strike_limit(8);
    MapT map(domain);

    const std::size_t cap_per_thread =
        p.max_ops_per_thread + static_cast<std::size_t>(p.key_range) + 8;
    lot::check::HistoryRecorder<K> rec(p.threads, cap_per_thread);
    const lot::obs::Snapshot obs_before =
        lot::obs::Registry::instance().snapshot();

    // Calm-weather recorded prefill (the storm isn't armed yet).
    for (std::int64_t k = 0; k < p.key_range; k += 2) {
      rec.record(0, lot::check::Op::kInsert, static_cast<K>(k), [&] {
        return map.insert(static_cast<K>(k), static_cast<K>(k));
      });
    }

    inject::reset_fire_counts();
    lot::sync::set_backoff_seed(p.seed);
    lot::check::reset_perturb_hits();
    lot::check::set_perturbation(20, 40);
    lot::check::enable_perturbation(true);

    // The straggler: pinned before the first worker op, released only
    // after the workers are quiescent — every node retired during the run
    // stays pending, deterministically, until the recovery phase.
    std::atomic<bool> straggler_parked{false};
    std::atomic<bool> straggler_release{false};
    std::thread straggler([&] {
      auto g = domain.guard();
      straggler_parked = true;
      while (!straggler_release.load()) std::this_thread::yield();
    });
    while (!straggler_parked.load()) std::this_thread::yield();

    // Explicit governor ticker: guarantees sampling even while every
    // writer is stalled inside an injected fault, and tracks the worst
    // state the storm reached.
    std::atomic<bool> stop_ticker{false};
    std::atomic<std::uint8_t> max_state{0};
    std::thread ticker([&] {
      while (!stop_ticker.load()) {
        const auto st = static_cast<std::uint8_t>(governor().sample(domain));
        std::uint8_t seen = max_state.load();
        while (st > seen && !max_state.compare_exchange_weak(seen, st)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });

    std::atomic<bool> stop_workers{false};
    lot::sync::ThreadBarrier barrier(p.threads + 1);  // workers + main
    std::vector<std::thread> workers;
    workers.reserve(p.threads);
    for (unsigned t = 0; t < p.threads; ++t) {
      workers.emplace_back([&, t] {
        lot::util::Xoshiro256 rng(p.seed * 0x9E3779B97F4A7C15ULL + t + 1);
        std::uint64_t oom_here = 0;
        barrier.arrive_and_wait();  // storm scheduler starts with us
        for (std::uint64_t i = 0;
             i < p.max_ops_per_thread && !stop_workers.load(); ++i) {
          const K key = static_cast<K>(
              rng.next_below(static_cast<std::uint64_t>(p.key_range)));
          const auto dice = rng.next_below(100);
          if (dice < 40) {
            rec.record(t, lot::check::Op::kContains, key,
                       [&] { return map.contains(key); });
          } else if (dice < 70) {
            // The one fallible op. A storm-killed insert must be a strong-
            // guarantee no-op; the recorder records nothing for it (the
            // throw propagates before the event push).
            try {
              rec.record(t, lot::check::Op::kInsert, key,
                         [&] { return map.insert(key, key); });
            } catch (const std::bad_alloc&) {
              ++oom_here;
            }
          } else {
            rec.record(t, lot::check::Op::kRemove, key,
                       [&] { return map.erase(key); });
          }
        }
        survived_oom.fetch_add(oom_here);
      });
    }

    inject::StormScheduler storm;
    storm.start(storm_spec(p));
    barrier.arrive_and_wait();  // release the workers into the weather
    storm.wait();               // envelope played out, site rates back at 0
    // A short calm tail keeps churn running while rates are already zero —
    // recovery begins under load, as it would in production.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop_workers = true;
    for (auto& w : workers) w.join();
    inject::enable_injection(false);
    lot::check::enable_perturbation(false);
    stop_ticker = true;
    ticker.join();

    // ---- during-storm assertions -------------------------------------
    const auto alloc_site = p.partial ? inject::Site::kPartialInsertAlloc
                                      : inject::Site::kLoInsertAlloc;
    EXPECT_GT(
        inject::fires(alloc_site) + inject::fires(inject::Site::kPoolAlloc), 0u)
        << "the storm never landed an allocation fault";
    EXPECT_EQ(
        inject::fires(alloc_site) + inject::fires(inject::Site::kPoolAlloc),
        survived_oom.load());
    EXPECT_GT(inject::fires(inject::Site::kGuardStallReader) +
                  inject::fires(inject::Site::kGuardStallWriter),
              0u)
        << "the storm never stalled a guard";

    // Quiescent, straggler still pinned: the frozen backlog and the stall
    // watchdog are exactly what the governor exists to see.
    EXPECT_GE(domain.pending_retired(), p.high_water)
        << "the straggler should have frozen a backlog past the mark";
    governor().sample(domain);
    if (p.governed) {
      EXPECT_GE(governor().state(), State::kDegraded)
          << "governor never reacted to the storm";
      EXPECT_GE(static_cast<State>(max_state.load()), State::kDegraded);
      EXPECT_GE(governor().transitions(), 1u);
    }

    // ---- recovery ----------------------------------------------------
    straggler_release = true;
    straggler.join();

    const std::uint32_t bound = governor().recovery_bound();
    std::uint32_t ticks_used = 0;
    for (; ticks_used < bound; ++ticks_used) {
      const State st = governor().sample(domain);
      if (st == State::kHealthy && domain.pending_retired() < p.high_water) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (p.governed) {
      EXPECT_LT(ticks_used, bound)
          << "governor failed its documented recovery bound";
      EXPECT_EQ(governor().state(), State::kHealthy);
      EXPECT_LT(domain.pending_retired(), p.high_water)
          << "the governor's flushes failed to collapse the backlog";
      std::printf(
          "[ storm    ] recovered to healthy in %u/%u ticks, max state %s, "
          "%llu OOMs survived\n",
          ticks_used, bound,
          lot::health::state_name(static_cast<State>(max_state.load())),
          static_cast<unsigned long long>(survived_oom.load()));
    } else {
      // The ungoverned arm (policies off): no governor flush
      // runs, so the backlog sits frozen past the mark after the
      // same bound — the recovery property the governed arms prove is
      // violated without the governor.
      EXPECT_EQ(ticks_used, bound);
      EXPECT_GE(domain.pending_retired(), p.high_water)
          << "without the governor the backlog should NOT have collapsed";
      domain.flush();  // manual cleanup the governor would have provided
      domain.flush();
    }

    // ---- quiescent correctness ---------------------------------------
    if constexpr (MapT::kBalanced) {
      if (p.check_heights) map.repair_balance();
    }
    const auto rep = lot::lo::validate(map, p.check_heights, p.partial);
    EXPECT_TRUE(rep.ok) << "structural validation failed after the storm:\n"
                        << rep.to_string();

    EXPECT_FALSE(rec.overflowed()) << "history log overflow: grow capacity";
    auto out = lot::stress::check_history(rec.merged());
    out.obs_before = obs_before;
    out.obs_after = lot::obs::Registry::instance().snapshot();
    lot::stress::expect_linearizable(out);
    lot::stress::print_check_stats(p.governed ? "storm" : "storm-ungoverned",
                                   out);

    // ---- obs reconciliation (exact, faults included) -----------------
    std::uint64_t ins = 0, ins_ok = 0, rem = 0, rem_ok = 0;
    std::uint64_t con = 0, con_ok = 0;
    for (const auto& e : out.history) {
      switch (e.op) {
        case lot::check::Op::kInsert:
          ++ins;
          ins_ok += e.result ? 1 : 0;
          break;
        case lot::check::Op::kRemove:
          ++rem;
          rem_ok += e.result ? 1 : 0;
          break;
        case lot::check::Op::kContains:
          ++con;
          con_ok += e.result ? 1 : 0;
          break;
        case lot::check::Op::kScan:
          break;  // whole-scan observations never land in the event log
      }
    }
    using lot::obs::Counter;
    const auto d = [&](Counter c) {
      return out.obs_after.counter(c) - out.obs_before.counter(c);
    };
    // A faulted insert never reached its op counter, and the recorder
    // recorded nothing for it: history and counters agree exactly.
    EXPECT_EQ(d(Counter::kInsertOps), ins) << "insert ops vs history";
    EXPECT_EQ(d(Counter::kInsertSuccess), ins_ok) << "insert successes";
    EXPECT_EQ(d(Counter::kEraseOps), rem) << "erase ops vs history";
    EXPECT_EQ(d(Counter::kEraseSuccess), rem_ok) << "erase successes";
    EXPECT_EQ(d(Counter::kContainsOps), con) << "contains ops vs history";
    EXPECT_EQ(d(Counter::kContainsHits), con_ok) << "contains hits";
    // The paper's read-side claim survives the storm: no read path ever
    // re-descended, with every abandoned write descent paid for by a
    // restart count (including the lazy-alloc unwind's).
    EXPECT_EQ(lot::obs::Snapshot::contains_restarts_between(out.obs_before,
                                                            out.obs_after),
              0)
        << "a read path re-descended the tree during the storm";
    // Write-side restart audit, storm-adjusted (header comment): lazy
    // variants count one restart per escaped insert bad_alloc with no
    // matching fallback.
    const std::uint64_t adjustment =
        p.lazy_insert_alloc ? survived_oom.load() : 0;
    EXPECT_EQ(d(Counter::kValidationFallbacks) + adjustment,
              d(Counter::kInsertRestarts) + d(Counter::kEraseRestarts))
        << "fallbacks vs restarts diverged (adjustment=" << adjustment << ")";

    domain.flush();
    domain.flush();
    const auto stats = domain.stats();
    EXPECT_EQ(stats.emergency_leaks, 0u);
    EXPECT_EQ(domain.pending_retired(), 0u);
    governor().reset();
  }
  EXPECT_EQ(AllocStats::live(), live_before) << "node leak across the storm";
}

using LoBst =
    lot::lo::LoMap<std::int64_t, std::int64_t, std::less<std::int64_t>, false>;
using LoAvl =
    lot::lo::LoMap<std::int64_t, std::int64_t, std::less<std::int64_t>, true>;

TEST(LoStormStress, BstRecoversFromStorm) {
  StormParams p;
  run_storm_campaign<LoBst>(p);
}

TEST(LoStormStress, AvlRecoversFromStorm) {
  StormParams p;
  p.check_heights = true;
  run_storm_campaign<LoAvl>(p);
}

TEST(LoStormStress, PartialBstRecoversFromStorm) {
  StormParams p;
  p.partial = true;
  p.lazy_insert_alloc = true;
  run_storm_campaign<lot::lo::PartialBstMap<std::int64_t, std::int64_t>>(p);
}

TEST(LoStormStress, PartialAvlRecoversFromStorm) {
  StormParams p;
  p.partial = true;
  p.lazy_insert_alloc = true;
  p.check_heights = true;
  run_storm_campaign<lot::lo::PartialAvlMap<std::int64_t, std::int64_t>>(p);
}

// Negative control: same weather, policies off and thresholds unreachable.
// The tree itself must still be
// correct — the governor is never a correctness dependency — but the
// recovery property the governed arms prove is violated.
TEST(LoStormStress, GovernorPoliciesOffViolatesRecoveryBound) {
  StormParams p;
  p.governed = false;
  run_storm_campaign<LoBst>(p);
}

}  // namespace
