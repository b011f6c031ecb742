// Tests for the EBR hardening layer (DESIGN.md §9): the epoch-stall
// watchdog, backlog backpressure, quiescent steal, growable record pool,
// and the stats() health snapshot. Backpressure and the watchdog are the
// only reclamation-pressure mechanism, so the cleared-wedge recovery is
// pinned here with the domain's default settings, with no flush().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "reclaim/ebr.hpp"

#ifndef LOT_STRESS_DIVISOR
#define LOT_STRESS_DIVISOR 1
#endif

namespace {

constexpr int scaled(int n) {
  return n / LOT_STRESS_DIVISOR > 0 ? n / LOT_STRESS_DIVISOR : 1;
}

using lot::reclaim::EbrDomain;

struct Tracked {
  static std::atomic<int> live;
  int payload = 0;
  Tracked() { live.fetch_add(1); }
  explicit Tracked(int p) : payload(p) { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

TEST(EbrHardening, StatsStartClean) {
  EbrDomain domain;
  const auto s = domain.stats();
  EXPECT_GE(s.epoch, 1u);
  EXPECT_EQ(s.pending_retired, 0u);
  EXPECT_EQ(s.records_in_use, 0u);
  EXPECT_EQ(s.record_capacity, EbrDomain::kMaxThreads);
  EXPECT_EQ(s.pool_growths, 0u);
  EXPECT_EQ(s.backpressure_hits, 0u);
  EXPECT_EQ(s.backlog_steals, 0u);
  EXPECT_EQ(s.emergency_leaks, 0u);
  EXPECT_EQ(s.stall_watchdog_fires, 0u);
  EXPECT_FALSE(s.stalled_now);
  EXPECT_EQ(s.stalled_record, static_cast<std::size_t>(-1));
}

// A record pinned at the same epoch across stall_strike_limit failed
// advances must be reported, with the owning thread's hashed id surfaced
// so an operator can find the stuck thread. Unpinning ends the episode.
TEST(EbrHardening, WatchdogReportsOffendingRecord) {
  EbrDomain domain;
  domain.set_retire_threshold(1);    // every retire attempts an advance
  domain.set_stall_strike_limit(4);  // report quickly
  domain.set_stall_report_us(0);     // attempt-only: deterministic here

  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::atomic<std::uint64_t> straggler_hash{0};
  std::thread straggler([&] {
    straggler_hash =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    auto g = domain.guard();
    parked = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();

  // Each retire attempts an advance; after the first one succeeds the
  // straggler's pin is behind the global epoch and every further attempt
  // strikes the same record.
  for (int i = 0; i < 32; ++i) domain.retire(new Tracked(i));

  const auto stalled = domain.stats();
  EXPECT_GE(stalled.stall_watchdog_fires, 1u);
  EXPECT_TRUE(stalled.stalled_now);
  EXPECT_NE(stalled.stalled_record, static_cast<std::size_t>(-1));
  EXPECT_GT(stalled.stalled_epoch, 0u);
  EXPECT_EQ(stalled.stalled_owner, straggler_hash.load());

  release = true;
  straggler.join();
  // The episode ended with the unpin; the monotonic fire count remains.
  const auto after = domain.stats();
  EXPECT_FALSE(after.stalled_now);
  EXPECT_GE(after.stall_watchdog_fires, 1u);

  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), 0);
}

// The report is time-gated on top of the strike limit: full-tilt churn
// can burn any attempt budget inside one healthy microseconds-long pin,
// so an episode must also be *old* to be a stall. Dozens of strikes
// against a young pin stay unreported; the same pin aged past the window
// is reported on the very next strike.
TEST(EbrHardening, WatchdogReportNeedsEpisodeAgeNotJustStrikes) {
  EbrDomain domain;
  domain.set_retire_threshold(1);      // every retire attempts an advance
  domain.set_stall_strike_limit(4);
  domain.set_stall_report_us(50'000);  // 50 ms: generous vs CI jitter

  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::thread straggler([&] {
    auto g = domain.guard();
    parked = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();

  for (int i = 0; i < 32; ++i) domain.retire(new Tracked(i));
  // ~30 strikes, but the episode is microseconds old: not a stall yet.
  EXPECT_EQ(domain.stats().stall_watchdog_fires, 0u);
  EXPECT_FALSE(domain.stats().stalled_now);

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  domain.retire(new Tracked(99));  // same pin, same epoch — now aged
  EXPECT_GE(domain.stats().stall_watchdog_fires, 1u);
  EXPECT_TRUE(domain.stats().stalled_now);

  release = true;
  straggler.join();
  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), 0);
}

// With the scan threshold effectively disabled, only backpressure can
// reclaim. While a guard is parked the backlog grows unboundedly-in-time
// but every retire past the high-water mark keeps forcing advance+free,
// so the moment the straggler unpins the backlog collapses back under the
// mark instead of waiting for a scan that would never come.
TEST(EbrHardening, BackpressureCapsBacklogOnceStragglerUnpins) {
  constexpr std::size_t kHighWater = 100;
  constexpr int kRetired = 5000;
  EbrDomain domain;
  domain.set_retire_threshold(1u << 30);  // never reclaim via the scan path
  domain.set_backlog_high_water(kHighWater);
  // Stride 1 = the un-amortized semantics this test pins: *every* retire
  // past the mark forces a full attempt (the amortized path has its own
  // tests below).
  domain.set_backpressure_stride(1);

  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::thread straggler([&] {
    auto g = domain.guard();
    parked = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();

  const int live_before = Tracked::live.load();
  for (int i = 0; i < kRetired; ++i) domain.retire(new Tracked(i));
  // Pinned straggler: backpressure fires but cannot complete the two-epoch
  // trip, so everything stays pending (and live).
  EXPECT_EQ(Tracked::live.load() - live_before, kRetired);
  EXPECT_GT(domain.stats().backpressure_hits, 0u);

  release = true;
  straggler.join();

  // A handful of further retires, each forced through advance+free by the
  // high-water mark, drains the whole parked-era backlog.
  for (int i = 0; i < 8; ++i) domain.retire(new Tracked(i));
  EXPECT_LE(domain.pending_retired(), kHighWater);

  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), live_before);
}

// Backpressure amortization (PR 7, satellite 6): while a straggler pins
// the epoch every forced advance is a doomed O(record_capacity) scan, so
// only every stride-th backpressure entry repeats it — the rest are
// counted as throttled. The backlog still collapses promptly after the
// straggler unpins (within one stride of retires).
TEST(EbrHardening, BackpressureForcedAdvanceIsAmortized) {
  constexpr std::size_t kHighWater = 64;
  constexpr std::size_t kStride = 8;
  constexpr int kRetired = 1000;
  EbrDomain domain;
  domain.set_retire_threshold(1u << 30);  // never reclaim via the scan path
  domain.set_backlog_high_water(kHighWater);
  domain.set_backpressure_stride(kStride);

  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::thread straggler([&] {
    auto g = domain.guard();
    parked = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();

  for (int i = 0; i < kRetired; ++i) domain.retire(new Tracked(i));
  const auto s = domain.stats();
  const std::uint64_t entries = s.backpressure_hits + s.backpressure_throttled;
  // Every retire at/past the mark entered the backpressure path (nothing
  // was freed: the straggler pinned the whole run).
  EXPECT_EQ(entries, static_cast<std::uint64_t>(kRetired) - kHighWater + 1);
  // With the epoch frozen, forced attempts are one per stride (+1 for the
  // initial attempt, whose first advance still succeeded).
  EXPECT_LE(s.backpressure_hits, entries / kStride + 2);
  EXPECT_GE(s.backpressure_throttled, entries - entries / kStride - 2);

  release = true;
  straggler.join();

  // At most one stride of further retires reaches the next forced attempt,
  // which now completes the two-epoch trip and drains the backlog.
  for (std::size_t i = 0; i <= kStride; ++i) {
    domain.retire(new Tracked(static_cast<int>(i)));
  }
  EXPECT_LE(domain.pending_retired(), kHighWater);

  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), 0);
}

// The amortization must never delay recovery: any epoch movement since a
// record's last forced attempt re-arms an immediate attempt, overriding a
// cooldown that would otherwise throttle for another stride.
TEST(EbrHardening, EpochMoveRearmsBackpressureImmediately) {
  EbrDomain domain;
  domain.set_retire_threshold(1u << 30);
  domain.set_backlog_high_water(1);           // every retire is past the mark
  domain.set_backpressure_stride(1u << 20);   // cooldown alone would throttle
                                              // essentially forever

  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::thread straggler([&] {
    auto g = domain.guard();
    parked = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();

  domain.retire(new Tracked(0));  // forced (stale bp_last_epoch), advances once
  domain.retire(new Tracked(1));  // same epoch + huge cooldown: throttled
  const auto s1 = domain.stats();
  EXPECT_EQ(s1.backpressure_hits, 1u);
  EXPECT_EQ(s1.backpressure_throttled, 1u);

  release = true;
  straggler.join();
  domain.flush();  // advances the epoch past the record's bp_last_epoch

  const auto before = domain.stats();
  domain.retire(new Tracked(2));  // cooldown still huge — but the epoch moved
  const auto after = domain.stats();
  EXPECT_EQ(after.backpressure_hits, before.backpressure_hits + 1);
  EXPECT_EQ(after.backpressure_throttled, before.backpressure_throttled);

  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), 0);
}

// More simultaneous pinned threads than the initial pool holds: the pool
// must grow (no abort), every thread gets a record, and the capacity
// increase is visible in stats().
TEST(EbrHardening, OversubscriptionGrowsPoolInsteadOfAborting) {
  constexpr std::size_t kThreads = EbrDomain::kMaxThreads + 8;
  EbrDomain domain;
  std::atomic<std::size_t> pinned{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto g = domain.guard();
      domain.retire(new Tracked());
      pinned.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (pinned.load() < kThreads) std::this_thread::yield();

  const auto s = domain.stats();
  EXPECT_GE(s.records_in_use, kThreads);
  EXPECT_GT(s.record_capacity, EbrDomain::kMaxThreads);
  EXPECT_GE(s.pool_growths, 1u);

  release = true;
  for (auto& th : threads) th.join();
  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), 0);
}

// A thread that outlives many domains (one serving successive sharded
// maps) must reuse the per-thread table entries of dead domains: the
// record it holds in a long-lived domain stays cached, so coming back
// neither leaks that record nor acquires a second one. Many domains live
// at once grow the table instead of evicting one of them.
TEST(EbrHardening, ThreadOutlivingManyDomainsReusesSlots) {
  EbrDomain home;
  { auto g = home.guard(); }
  for (int i = 0; i < 20; ++i) {
    EbrDomain passing;
    auto g = passing.guard();
    passing.retire(new Tracked(i));
  }
  { auto g = home.guard(); }
  EXPECT_EQ(home.stats().records_in_use, 1u);

  std::vector<std::unique_ptr<EbrDomain>> live;
  for (int i = 0; i < 20; ++i) {
    live.push_back(std::make_unique<EbrDomain>());
    auto g = live.back()->guard();
  }
  for (auto& d : live) {
    auto g = d->guard();
    EXPECT_EQ(d->stats().records_in_use, 1u);
  }
  { auto g = home.guard(); }
  EXPECT_EQ(home.stats().records_in_use, 1u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

// flush() must adopt the backlog a dead thread left behind in its record,
// so it keeps draining through the caller's retire cycles instead of
// waiting for the slot to be reacquired by some future thread.
TEST(EbrHardening, FlushStealsBacklogOfExitedThread) {
  constexpr int kOrphaned = 200;
  EbrDomain domain;
  domain.set_retire_threshold(1u << 30);  // keep the worker's list intact

  // Pin this thread's record first: otherwise flush()'s acquire_record
  // would claim the dead worker's slot as its own (adopting the backlog by
  // reacquisition, which bypasses the steal path this test targets).
  { auto g = domain.guard(); }

  // Straggler parks first so nothing the worker retires becomes eligible.
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::thread straggler([&] {
    auto g = domain.guard();
    parked = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();

  std::thread worker([&] {
    for (int i = 0; i < kOrphaned; ++i) {
      auto g = domain.guard();
      domain.retire(new Tracked(i));
    }
  });
  worker.join();  // record released; its retired list stays behind

  domain.flush();  // cannot free (straggler), but must steal
  const auto s = domain.stats();
  EXPECT_GE(s.backlog_steals, static_cast<std::uint64_t>(kOrphaned));
  EXPECT_GE(domain.pending_retired(), static_cast<std::size_t>(kOrphaned));
  EXPECT_EQ(Tracked::live.load(), kOrphaned);

  release = true;
  straggler.join();
  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(domain.pending_retired(), 0u);
}

// Without a flush(), an exited thread's backlog drains only through the
// next thread to take its record: the list stays with the record, and
// the new owner's ordinary retire cycles free it once the epoch moves.
TEST(EbrHardening, NextOwnerDrainsExitedThreadsBacklog) {
  constexpr int kOrphaned = 200;
  EbrDomain domain;
  domain.set_retire_threshold(8);
  const int live_before = Tracked::live.load();

  {
    // This thread is the straggler. It holds record 0 from here on, so
    // the worker takes record 1 and the next owner below reacquires it.
    auto g = domain.guard();
    std::thread worker([&] {
      for (int i = 0; i < kOrphaned; ++i) {
        auto wg = domain.guard();
        domain.retire(new Tracked(i));
      }
    });
    worker.join();  // record released; its retired list stays behind
    EXPECT_EQ(Tracked::live.load() - live_before, kOrphaned);
    EXPECT_EQ(domain.pending_retired(), static_cast<std::size_t>(kOrphaned));
  }

  std::thread next_owner([&] {
    for (int i = 0; i < 64; ++i) {
      auto g = domain.guard();
      domain.retire(new int(i));
    }
  });
  next_owner.join();
  EXPECT_EQ(Tracked::live.load(), live_before)
      << "the next owner's retire cycles left the inherited backlog";
  EXPECT_EQ(domain.stats().backlog_steals, 0u) << "drained by a steal";
  EXPECT_LT(domain.pending_retired(), static_cast<std::size_t>(kOrphaned));
}

// The watchdog must not misfire on healthy churn. Single-threaded and
// fully deterministic: a guard holding several retires strikes its own
// record a few times (its pin falls behind the epoch its first retire
// advanced), but the count resets at unpin — far below the limit, so
// across thousands of guards no report may accumulate.
TEST(EbrHardening, NoWatchdogFiresOnHealthyChurn) {
  constexpr int kGuards = 1000;
  constexpr int kRetiresPerGuard = 10;  // max 9 transient strikes, limit 64
  EbrDomain domain;
  domain.set_retire_threshold(1);
  domain.set_stall_strike_limit(EbrDomain::kDefaultStallStrikeLimit);
  for (int round = 0; round < kGuards; ++round) {
    auto g = domain.guard();
    for (int i = 0; i < kRetiresPerGuard; ++i) {
      domain.retire(new Tracked(i));
    }
  }
  // Transient strikes are fine; a full watchdog report is not.
  EXPECT_EQ(domain.stats().stall_watchdog_fires, 0u);
  EXPECT_FALSE(domain.stats().stalled_now);
  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(domain.stats().emergency_leaks, 0u);
}

// Stats::min_pinned_epoch and epoch_lag are the leading indicator of a
// stall: the oldest pin, and how far the epoch has moved past it. A
// younger pin does not hide an older one; unpinning clears both.
TEST(EbrHardening, EpochLagReportsOldestPin) {
  EbrDomain domain;
  domain.set_retire_threshold(1);  // every retire attempts an advance
  const auto idle = domain.stats();
  EXPECT_EQ(idle.min_pinned_epoch, 0u);
  EXPECT_EQ(idle.epoch_lag, 0u);

  std::atomic<std::uint64_t> pinned_at{0};
  std::atomic<bool> release{false};
  std::thread straggler([&] {
    auto g = domain.guard();
    pinned_at = domain.epoch();  // nothing else advances before the park
    while (!release.load()) std::this_thread::yield();
  });
  while (pinned_at.load() == 0) std::this_thread::yield();

  const auto parked = domain.stats();
  EXPECT_EQ(parked.min_pinned_epoch, pinned_at.load());
  EXPECT_EQ(parked.epoch_lag, 0u);

  // The first retire advances once past the pin; every later attempt
  // fails against it, so the lag holds at exactly one.
  for (int i = 0; i < 8; ++i) domain.retire(new Tracked(i));
  const auto lagging = domain.stats();
  EXPECT_EQ(lagging.epoch, pinned_at.load() + 1);
  EXPECT_EQ(lagging.min_pinned_epoch, pinned_at.load());
  EXPECT_EQ(lagging.epoch_lag, 1u);
  {
    auto g = domain.guard();  // pinned at the current epoch
    EXPECT_EQ(domain.stats().min_pinned_epoch, pinned_at.load());
  }

  release = true;
  straggler.join();
  const auto clear = domain.stats();
  EXPECT_EQ(clear.min_pinned_epoch, 0u);
  EXPECT_EQ(clear.epoch_lag, 0u);

  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), 0);
}

// backlog_peak is a high-water gauge of one record's list: it reports the
// longest list ever seen, and a drain does not lower it.
TEST(EbrHardening, BacklogPeakOutlivesTheBacklogItMeasured) {
  constexpr std::size_t kRetired = 300;
  EbrDomain domain;
  domain.set_retire_threshold(1u << 30);   // no scan
  domain.set_backlog_high_water(1u << 30);  // no backpressure
  {
    auto g = domain.guard();
    for (std::size_t i = 0; i < kRetired; ++i) {
      domain.retire(new Tracked(static_cast<int>(i)));
    }
  }
  EXPECT_EQ(domain.stats().backlog_peak, kRetired);
  EXPECT_EQ(domain.pending_retired(), kRetired);

  domain.flush();
  domain.flush();
  EXPECT_EQ(domain.pending_retired(), 0u);
  domain.retire(new Tracked(0));
  EXPECT_EQ(domain.stats().backlog_peak, kRetired);

  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), 0);
}

// The strike limit is a floor: strikes below it report nothing, and the
// report comes once the limit is reached against the same pin.
TEST(EbrHardening, WatchdogStaysQuietBelowStrikeLimit) {
  EbrDomain domain;
  domain.set_retire_threshold(1);
  domain.set_stall_strike_limit(EbrDomain::kDefaultStallStrikeLimit);
  domain.set_stall_report_us(0);

  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::thread straggler([&] {
    auto g = domain.guard();
    parked = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();

  // The first retire advances past the pin; each later one is a strike.
  constexpr int kBelow = static_cast<int>(EbrDomain::kDefaultStallStrikeLimit);
  for (int i = 0; i < kBelow; ++i) domain.retire(new Tracked(i));
  EXPECT_EQ(domain.stats().stall_watchdog_fires, 0u);
  EXPECT_FALSE(domain.stats().stalled_now);

  for (int i = 0; i < 8; ++i) domain.retire(new Tracked(i));
  EXPECT_EQ(domain.stats().stall_watchdog_fires, 1u);
  EXPECT_TRUE(domain.stats().stalled_now);

  release = true;
  straggler.join();
  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), 0);
}

// An episode ends at the straggler's unpin, and the watchdog re-arms: a
// second straggler is reported as a second episode with its own owner and
// a later pinned epoch.
TEST(EbrHardening, WatchdogRearmsForASecondEpisode) {
  EbrDomain domain;
  domain.set_retire_threshold(1);
  domain.set_stall_strike_limit(4);
  domain.set_stall_report_us(0);

  const auto episode = [&domain] {
    std::atomic<bool> parked{false};
    std::atomic<bool> release{false};
    std::atomic<std::uint64_t> hash{0};
    std::thread straggler([&] {
      hash = std::hash<std::thread::id>{}(std::this_thread::get_id());
      auto g = domain.guard();
      parked = true;
      while (!release.load()) std::this_thread::yield();
    });
    while (!parked.load()) std::this_thread::yield();
    for (int i = 0; i < 16; ++i) domain.retire(new Tracked(i));
    const auto s = domain.stats();
    EXPECT_TRUE(s.stalled_now);
    EXPECT_EQ(s.stalled_owner, hash.load());
    release = true;
    straggler.join();
    EXPECT_FALSE(domain.stats().stalled_now);
    return s;
  };

  const auto first = episode();
  EXPECT_EQ(first.stall_watchdog_fires, 1u);
  const auto second = episode();
  EXPECT_EQ(second.stall_watchdog_fires, 2u);
  EXPECT_GT(second.stalled_epoch, first.stalled_epoch);

  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), 0);
}

// The cleared-wedge recovery with the settings every tree runs with: a
// pinned straggler freezes two high-water marks of garbage and trips the
// watchdog; once it unpins, at most one backpressure stride of ordinary
// retires frees the frozen backlog. No flush() and no steal.
TEST(EbrHardening, DefaultSettingsDrainAClearedWedgeWithoutFlush) {
  constexpr std::size_t kHighWater = EbrDomain::kDefaultBacklogHighWater;
  constexpr std::size_t kStride = EbrDomain::kDefaultBackpressureStride;
  EbrDomain domain;
  domain.set_stall_report_us(0);  // the age gate is pinned elsewhere

  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::thread straggler([&] {
    auto g = domain.guard();
    parked = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();

  const int live_before = Tracked::live.load();
  for (std::size_t i = 0; i < 2 * kHighWater; ++i) {
    domain.retire(new Tracked(static_cast<int>(i)));
  }
  const auto frozen = domain.stats();
  EXPECT_EQ(frozen.pending_retired, 2 * kHighWater);
  EXPECT_EQ(Tracked::live.load() - live_before,
            static_cast<int>(2 * kHighWater));
  EXPECT_TRUE(frozen.stalled_now);
  EXPECT_GT(frozen.backpressure_throttled, 0u);

  release = true;
  straggler.join();
  EXPECT_FALSE(domain.stats().stalled_now);

  std::size_t retires = 0;
  while (domain.pending_retired() > kHighWater && retires <= kStride) {
    domain.retire(new Tracked(static_cast<int>(retires++)));
  }
  EXPECT_LE(domain.pending_retired(), kHighWater);
  EXPECT_LE(retires, kStride);
  EXPECT_LE(Tracked::live.load() - live_before, static_cast<int>(kHighWater));
  EXPECT_EQ(domain.stats().backlog_steals, 0u);

  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), live_before);
}

// Backpressure is per record: a retire forces reclamation of its own
// thread's list only. Several workers each freeze two marks of garbage
// under one straggler; after the release they take turns, and each turn
// frees that worker's list alone. Each retire runs under the worker's
// own guard, whose pin lets a forced attempt advance the epoch only once,
// so the list drains on the second attempt: within two strides. A worker
// that stopped retiring would keep its backlog until flush().
TEST(EbrHardening, EachWorkerDrainsItsOwnRecordOnceStragglerReleases) {
  constexpr std::size_t kHighWater = 1024;
  constexpr std::size_t kStride = EbrDomain::kDefaultBackpressureStride;
  constexpr std::size_t kTurn = 2 * kStride + 1;
  constexpr int kWorkers = 4;
  EbrDomain domain;
  domain.set_backlog_high_water(kHighWater);

  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::thread straggler([&] {
    auto g = domain.guard();
    parked = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();

  const int live_before = Tracked::live.load();
  std::atomic<int> frozen{0};
  std::atomic<int> turn{-1};
  std::atomic<int> turns_done{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < 2 * kHighWater; ++i) {
        auto g = domain.guard();
        domain.retire(new Tracked(static_cast<int>(i)));
      }
      frozen.fetch_add(1);
      while (turn.load() != t) std::this_thread::yield();
      for (std::size_t i = 0; i < kTurn; ++i) {
        auto g = domain.guard();
        domain.retire(new Tracked(static_cast<int>(i)));
      }
      turns_done.fetch_add(1);
    });
  }
  while (frozen.load() < kWorkers) std::this_thread::yield();

  // Nothing was freed while the straggler pinned: two marks per worker.
  constexpr std::size_t kFrozen = 2 * kHighWater;
  EXPECT_EQ(domain.pending_retired(), kWorkers * kFrozen);
  EXPECT_GT(domain.stats().backpressure_hits, 0u);

  release = true;
  straggler.join();
  for (int t = 0; t < kWorkers; ++t) {
    turn = t;
    while (turns_done.load() <= t) std::this_thread::yield();
    // Workers 0..t have drained; the later ones still hold their lists.
    const std::size_t frozen_left = (kWorkers - 1 - t) * kFrozen;
    EXPECT_GE(domain.pending_retired(), frozen_left) << "after turn " << t;
    EXPECT_LE(domain.pending_retired(), frozen_left + (t + 1) * kTurn)
        << "after turn " << t;
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(domain.stats().backlog_steals, 0u);
  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), live_before);
}

// Healthy churn never reaches the mark: the scan threshold alone keeps
// the list a few thresholds long, so backpressure and the watchdog stay
// idle.
TEST(EbrHardening, BackpressureStaysIdleOnHealthyChurn) {
  EbrDomain domain;
  for (int i = 0; i < scaled(100'000); ++i) {
    auto g = domain.guard();
    domain.retire(new Tracked(i));
  }
  const auto s = domain.stats();
  EXPECT_EQ(s.backpressure_hits, 0u);
  EXPECT_EQ(s.backpressure_throttled, 0u);
  EXPECT_LE(s.backlog_peak, 4 * EbrDomain::kDefaultRetireThreshold);
  EXPECT_LT(s.backlog_peak, EbrDomain::kDefaultBacklogHighWater);
  EXPECT_EQ(s.stall_watchdog_fires, 0u);

  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), 0);
}

// A record returns to the pool when its thread exits, and its retired
// list stays with it (the list the next owner or a flush() drains).
TEST(EbrHardening, ExitedThreadsReturnTheirRecordsWithTheirLists) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5;
  EbrDomain domain;
  domain.set_retire_threshold(1u << 30);  // keep every list intact

  std::atomic<int> pinned{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto g = domain.guard();
      for (int i = 0; i < kPerThread; ++i) domain.retire(new Tracked(i));
      pinned.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (pinned.load() < kThreads) std::this_thread::yield();
  EXPECT_EQ(domain.stats().records_in_use,
            static_cast<std::size_t>(kThreads));

  release = true;
  for (auto& th : threads) th.join();
  const auto s = domain.stats();
  EXPECT_EQ(s.records_in_use, 0u);
  EXPECT_EQ(s.record_capacity, EbrDomain::kMaxThreads);
  EXPECT_EQ(s.pending_retired,
            static_cast<std::size_t>(kThreads * kPerThread));

  domain.flush();
  domain.flush();
  EXPECT_EQ(domain.pending_retired(), 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

// The per-domain contention odometer counts exactly, under concurrent
// writers, and only on the domain it is noted on.
TEST(EbrHardening, ContentionOdometerIsPerDomainAndExact) {
  constexpr int kThreads = 4;
  const int per_thread = scaled(10'000);
  EbrDomain noted;
  EbrDomain quiet;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < per_thread; ++i) noted.note_contention_event();
    });
  }
  for (auto& th : threads) th.join();
  const auto expected = static_cast<std::uint64_t>(kThreads) * per_thread;
  EXPECT_EQ(noted.contention_events(), expected);
  EXPECT_EQ(noted.stats().contention_events, expected);
  EXPECT_EQ(quiet.contention_events(), 0u);
  EXPECT_EQ(quiet.stats().contention_events, 0u);
}

// stats() may be read while writers retire (the obs snapshot does): each
// monotonic counter reads no lower than it did on the previous read.
TEST(EbrHardening, StatsReadsDuringChurnAreMonotone) {
  constexpr int kWriters = 3;
  EbrDomain domain;
  domain.set_retire_threshold(4);
  domain.set_backlog_high_water(16);
  domain.set_backpressure_stride(1);

  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < scaled(40'000); ++i) {
        auto g = domain.guard();
        domain.retire(new Tracked(i));
        if (i % 64 == 0) domain.retire(new Tracked(i));  // cross the mark
      }
      done.fetch_add(1);
    });
  }
  EbrDomain::Stats prev = domain.stats();
  int reads = 0;
  int regressions = 0;
  while (done.load() < kWriters) {
    const EbrDomain::Stats s = domain.stats();
    regressions += s.epoch < prev.epoch;
    regressions += s.backlog_peak < prev.backlog_peak;
    regressions += s.backpressure_hits < prev.backpressure_hits;
    regressions += s.stall_watchdog_fires < prev.stall_watchdog_fires;
    prev = s;
    ++reads;
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(regressions, 0) << "over " << reads << " reads";
  EXPECT_GT(domain.stats().epoch, 1u);

  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), 0);
}

}  // namespace
