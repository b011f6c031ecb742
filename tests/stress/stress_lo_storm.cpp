// Chaos storm + recovery campaign for EBR's own backpressure (DESIGN.md
// §9, EXPERIMENTS.md A10). One run per LO variant:
//
//   1. Recorded churn from N workers while a StormScheduler drives seeded
//      allocation faults and guard-stall swarms through a ramp/hold/release
//      envelope, AND a dedicated straggler thread pins an epoch from
//      before the first worker op — the worst weather the process models:
//      memory failing, readers preempted, reclamation wedged.
//   2. Once the envelope has played out, with the straggler still pinned
//      and the workers still churning, the frozen epoch must have piled a
//      retire backlog past the high-water mark and the stall watchdog
//      must report the straggler.
//   3. The straggler unpins while the workers keep churning, and the
//      backlog must fall below the high-water mark within a wall-clock
//      bound. Nothing but the workers' own retires drains it: past the
//      mark every retire forces advance+free, re-armed the moment the
//      epoch moves. No flush() runs until the quiescent cleanup.
//   4. Quiescent: repair_balance converges, structural validation is
//      clean, the recorded history is linearizable (faults included — an
//      OOM'd insert records nothing and must have changed nothing), and
//      the obs counters reconcile exactly against the history.
//
// The workers run until a stop flag, never to an op cap: a worker that
// had finished its ops before the release would leave the backlog frozen
// and the recovery unproven. Each worker's history log is sized for
// several times the expected run; an overflow fails the run.
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

#include "inject/storm.hpp"
#include "lo/map.hpp"
#include "lo/partial.hpp"
#include "reclaim/alloc_stats.hpp"
#include "reclaim/pool.hpp"
#include "stress_common.hpp"
#include "sync/backoff.hpp"

namespace {

namespace inject = lot::inject;
using lot::reclaim::AllocStats;

struct StormParams {
  unsigned threads = 8;
  // Per-worker history log size. Workers churn until stopped, so this is
  // room, not an op cap: about 8x the ~50k ops a worker does in a run on
  // 4 cores. Not divided for instrumented builds: the run is
  // wall-clock-phased, and their recovery bound is ten times longer.
  std::uint64_t log_capacity = 400'000;
  std::int64_t key_range = 192;
  std::uint64_t seed = 1;
  bool check_heights = false;
  bool partial = false;
  // Lazy (logical-removing) inserts pay one kInsertRestarts per escaped
  // bad_alloc; on-time inserts throw before their first descent.
  bool lazy_insert_alloc = false;
  std::size_t high_water = 768;  // EBR backlog mark the recovery must beat
};

// Wall-clock bound on the recovery: from the straggler's release until
// the backlog is below the high-water mark. 3-10 ms on 4 cores, at most
// 40 ms with four copies running at once (EXPERIMENTS.md A10);
// instrumented builds (TSan, ASan) get ten times the room.
constexpr std::chrono::milliseconds kRecoveryBound{
    LOT_STRESS_DIVISOR > 1 ? 10'000 : 1'000};

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

template <typename MapT>
void run_storm_campaign(const StormParams& p) {
  using K = typename MapT::key_type;
  using Clock = std::chrono::steady_clock;
  const auto live_before = AllocStats::live();
  std::atomic<std::uint64_t> survived_oom{0};
  {
    lot::reclaim::EbrDomain domain;
    domain.set_retire_threshold(64);
    domain.set_backlog_high_water(p.high_water);
    domain.set_stall_strike_limit(8);
    MapT map(domain);

    const std::size_t cap_per_thread =
        p.log_capacity + static_cast<std::size_t>(p.key_range) + 8;
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

    // The straggler: pinned before the first worker op, so every node
    // retired during the storm stays pending until its release.
    std::atomic<bool> straggler_parked{false};
    std::atomic<bool> straggler_release{false};
    std::thread straggler([&] {
      auto g = domain.guard();
      straggler_parked = true;
      while (!straggler_release.load()) std::this_thread::yield();
    });
    while (!straggler_parked.load()) std::this_thread::yield();

    std::atomic<bool> stop_workers{false};
    std::atomic<unsigned> churning_after_release{0};
    lot::sync::ThreadBarrier barrier(p.threads + 1);  // workers + main
    std::vector<std::thread> workers;
    workers.reserve(p.threads);
    for (unsigned t = 0; t < p.threads; ++t) {
      workers.emplace_back([&, t] {
        lot::util::Xoshiro256 rng(p.seed * 0x9E3779B97F4A7C15ULL + t + 1);
        std::uint64_t oom_here = 0;
        bool saw_release = false;
        barrier.arrive_and_wait();  // storm scheduler starts with us
        while (!stop_workers.load()) {
          if (!saw_release && straggler_release.load()) {
            saw_release = true;
            ++churning_after_release;
          }
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

    // ---- pinned: the wedge -------------------------------------------
    const std::size_t frozen = domain.pending_retired();
    EXPECT_GE(frozen, p.high_water)
        << "the straggler should have frozen a backlog past the mark";
    EXPECT_TRUE(domain.stats().stalled_now)
        << "the stall watchdog never reported the straggler";

    // ---- recovery under churn ----------------------------------------
    // Only the workers' retires drain the backlog from here on.
    const auto released_at = Clock::now();
    straggler_release = true;
    straggler.join();
    std::size_t pending = domain.pending_retired();
    while (pending >= p.high_water &&
           Clock::now() - released_at < kRecoveryBound) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      pending = domain.pending_retired();
    }
    const auto recovery_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              released_at);
    // Every worker must still be churning past the release.
    while (churning_after_release.load() < p.threads &&
           Clock::now() - released_at < kRecoveryBound) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop_workers = true;
    for (auto& w : workers) w.join();
    inject::enable_injection(false);
    lot::check::enable_perturbation(false);

    EXPECT_LT(pending, p.high_water)
        << "backpressure failed to drain the cleared wedge within "
        << kRecoveryBound.count() << " ms";
    EXPECT_EQ(churning_after_release.load(), p.threads)
        << "a worker stopped churning before the release";
    std::printf(
        "[ storm    ] backlog %zu -> %zu in %lld ms after release (bound "
        "%lld ms), %llu OOMs survived\n",
        frozen, pending, static_cast<long long>(recovery_ms.count()),
        static_cast<long long>(kRecoveryBound.count()),
        static_cast<unsigned long long>(survived_oom.load()));

    // ---- storm weather landed ----------------------------------------
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
    lot::stress::print_check_stats("storm", out);

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

}  // namespace
