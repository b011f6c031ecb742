// Tests for the overload governor (DESIGN.md §14): threshold escalation,
// hysteresis de-escalation, no-oscillation under a flapping signal, the
// epoch-lag persistence rule, the obs restart feed, the transition log,
// the one policy (a sample at Degraded or worse flushes the caller's
// domain), and a real EBR stall episode round-trip (Degraded and back
// within the documented recovery bound).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "health/governor.hpp"
#include "obs/counters.hpp"
#include "reclaim/ebr.hpp"

namespace {

using lot::health::State;

struct Tracked {
  static std::atomic<int> live;
  int payload = 0;
  explicit Tracked(int p) : payload(p) { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
};
std::atomic<int> Tracked::live{0};

using lot::health::Governor;
using lot::health::governor;
using lot::health::Signals;
using lot::health::Thresholds;

// Every test shares the process-wide governor; reset() on both sides keeps
// them order-independent.
class HealthTest : public ::testing::Test {
 protected:
  void SetUp() override { governor().reset(); }
  void TearDown() override { governor().reset(); }
};

TEST_F(HealthTest, StartsHealthyWithDefaultThresholds) {
  EXPECT_EQ(governor().state(), State::kHealthy);
  EXPECT_EQ(governor().transitions(), 0u);
  const Thresholds t = governor().thresholds();
  // The Pressured line sits above a healthy churning domain's measured
  // steady-state backlog (EXPERIMENTS.md A10) — riding it would tax
  // fault-free throughput.
  EXPECT_EQ(t.backlog[0], 32768u);
  EXPECT_EQ(t.recover_ticks, 2u);
  EXPECT_EQ(governor().recovery_bound(), 4u + 3u * t.recover_ticks);
}

TEST_F(HealthTest, EscalatesImmediatelyToDemandedSeverity) {
  // A backlog past the Critical entry threshold must not ratchet through
  // Pressured/Degraded first: one sample, straight to Critical.
  Signals s;
  s.backlog = 600'000;
  EXPECT_EQ(governor().apply(s), State::kCritical);
  EXPECT_EQ(governor().transitions(), 1u);
  const auto log = governor().transition_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].from, State::kHealthy);
  EXPECT_EQ(log[0].to, State::kCritical);
  EXPECT_STREQ(log[0].cause, "ebr-backlog");
}

TEST_F(HealthTest, EachSignalReachesItsThresholdedState) {
  {
    Signals s;
    s.fallback_outstanding = 8;  // Degraded entry for the fallback signal
    EXPECT_EQ(governor().apply(s), State::kDegraded);
    EXPECT_STREQ(governor().transition_log().back().cause, "pool-fallback");
  }
  governor().reset();
  {
    Signals s;
    s.heat_delta = 5000;  // Critical entry for contention heat
    EXPECT_EQ(governor().apply(s), State::kCritical);
    EXPECT_STREQ(governor().transition_log().back().cause, "contention-heat");
  }
  governor().reset();
  {
    // restart_delta shares the heat thresholds (max of the two).
    Signals s;
    s.restart_delta = 300;
    EXPECT_EQ(governor().apply(s), State::kPressured);
    EXPECT_STREQ(governor().transition_log().back().cause, "contention-heat");
  }
}

TEST_F(HealthTest, StallWatchdogForcesAtLeastDegraded) {
  Signals s;
  s.stalled_now = true;
  EXPECT_EQ(governor().apply(s), State::kDegraded);
  EXPECT_STREQ(governor().transition_log().back().cause, "stall-watchdog");
}

// The live restart signal is the tree's own telemetry: sample_signals()
// differences the sum of three obs restart counters between samples. A
// counter outside the three (kInsertRestarts) must not leak in.
TEST_F(HealthTest, SampleSignalsReadsObsRestartCounters) {
  using lot::obs::Counter;
  lot::reclaim::EbrDomain domain;
  // SetUp's reset() re-baselined against the process-monotonic totals.
  lot::obs::count(Counter::kValidationFallbacks, 3);
  lot::obs::count(Counter::kBalanceRestarts, 5);
  lot::obs::count(Counter::kRemovalLockRetries, 7);
  lot::obs::count(Counter::kInsertRestarts, 11);
  EXPECT_EQ(governor().sample_signals(domain).restart_delta, 3u + 5u + 7u);
  EXPECT_EQ(governor().sample_signals(domain).restart_delta, 0u);
}

TEST_F(HealthTest, DeEscalatesOneLevelPerRecoverTicks) {
  Signals storm;
  storm.backlog = 600'000;
  ASSERT_EQ(governor().apply(storm), State::kCritical);

  // recover_ticks=2: every second calm sample steps down exactly one level.
  const Signals calm;
  EXPECT_EQ(governor().apply(calm), State::kCritical);
  EXPECT_EQ(governor().apply(calm), State::kDegraded);
  EXPECT_EQ(governor().apply(calm), State::kDegraded);
  EXPECT_EQ(governor().apply(calm), State::kPressured);
  EXPECT_EQ(governor().apply(calm), State::kPressured);
  EXPECT_EQ(governor().apply(calm), State::kHealthy);
  EXPECT_EQ(governor().transitions(), 4u);  // 1 up + 3 down

  const auto log = governor().transition_log();
  ASSERT_EQ(log.size(), 4u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_STREQ(log[i].cause, "recovery");
    EXPECT_GE(log[i].tick, log[i - 1].tick);  // tick stamps are monotone
  }
}

TEST_F(HealthTest, FlappingSignalHoldsStateWithoutOscillation) {
  // Heat flapping between the Pressured entry threshold (256) and its exit
  // threshold (128): never calm against the exit side, so the state holds
  // at Pressured — exactly one transition no matter how long the flap.
  Signals hot;
  hot.heat_delta = 256;
  ASSERT_EQ(governor().apply(hot), State::kPressured);
  Signals warm;
  warm.heat_delta = 128;
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(governor().apply(i % 2 ? hot : warm), State::kPressured);
  }
  EXPECT_EQ(governor().transitions(), 1u);

  // Genuinely below the exit threshold, recovery proceeds normally.
  Signals cool;
  cool.heat_delta = 127;
  governor().apply(cool);
  EXPECT_EQ(governor().apply(cool), State::kHealthy);
}

TEST_F(HealthTest, EpochLagNeedsPersistenceNotMagnitude) {
  // try_advance fails on any straggler, so lag magnitude saturates near 2;
  // what matters is the lag refusing to clear. lag_ticks=4: three lagging
  // samples are jitter, the fourth is a signal.
  Signals lag;
  lag.epoch_lag = 2;
  EXPECT_EQ(governor().apply(lag), State::kHealthy);
  EXPECT_EQ(governor().apply(lag), State::kHealthy);
  EXPECT_EQ(governor().apply(lag), State::kHealthy);
  EXPECT_EQ(governor().apply(lag), State::kPressured);
  EXPECT_STREQ(governor().transition_log().back().cause, "epoch-lag");

  // A clear sample resets the run: the next lagging streak starts over.
  const Signals calm;
  governor().apply(calm);
  governor().apply(calm);
  ASSERT_EQ(governor().state(), State::kHealthy);
  EXPECT_EQ(governor().apply(lag), State::kHealthy);
}

TEST_F(HealthTest, UnreachableThresholdsDisableTheGovernor) {
  // The storm campaign's negative control: UINT64_MAX everywhere models
  // the ungoverned build — no signal can move the state.
  Thresholds t;
  for (int i = 0; i < 3; ++i) {
    t.backlog[i] = t.fallback[i] = t.heat[i] = UINT64_MAX;
  }
  t.lag_ticks = UINT32_MAX;
  governor().set_thresholds(t);
  Signals storm;
  storm.backlog = 1u << 30;
  storm.fallback_outstanding = 1u << 20;
  storm.heat_delta = 1u << 20;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(governor().apply(storm), State::kHealthy);
  }
  EXPECT_EQ(governor().transitions(), 0u);
}

// Thresholds under which only the backlog signal counts, and only up to
// `top` (Pressured or Degraded): isolates the one policy from whatever
// pool debt or contention earlier tests left in the process.
Thresholds backlog_only_up_to(State top) {
  Thresholds t;
  for (int i = 0; i < 3; ++i) {
    t.backlog[i] = i < static_cast<int>(top) ? 1 : UINT64_MAX;
    t.fallback[i] = t.heat[i] = UINT64_MAX;
  }
  t.lag_ticks = UINT32_MAX;
  return t;
}

// The one policy: a sample at Degraded or worse flushes the caller's
// domain. Pressured is telemetry only, and the master switch turns the
// flush off while the state machine keeps publishing.
TEST_F(HealthTest, DrainFlushesOnlyAtDegraded) {
  lot::reclaim::EbrDomain domain;
  domain.set_retire_threshold(1u << 20);  // no scan of its own
  constexpr std::size_t kRetired = 32;
  for (std::size_t i = 0; i < kRetired; ++i) {
    domain.retire(new Tracked(static_cast<int>(i)));
  }
  ASSERT_EQ(domain.pending_retired(), kRetired);

  governor().set_thresholds(backlog_only_up_to(State::kPressured));
  EXPECT_EQ(governor().sample(domain), State::kPressured);
  EXPECT_EQ(domain.pending_retired(), kRetired);

  governor().reset();
  governor().set_thresholds(backlog_only_up_to(State::kDegraded));
  lot::health::set_policies_enabled(false);
  EXPECT_EQ(governor().sample(domain), State::kDegraded);
  EXPECT_EQ(domain.pending_retired(), kRetired);

  governor().reset();
  governor().set_thresholds(backlog_only_up_to(State::kDegraded));
  EXPECT_EQ(governor().sample(domain), State::kDegraded);
  EXPECT_EQ(domain.pending_retired(), 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

// End-to-end with a real domain: a pinned straggler trips the stall
// watchdog, one governor sample lands in Degraded, and after the straggler
// releases the governor walks back to Healthy within recovery_bound()
// samples while its flushes collapse the backlog.
TEST_F(HealthTest, StallEpisodeDegradesThenRecoversWithinBound) {
  lot::reclaim::EbrDomain domain;
  domain.set_retire_threshold(1);    // every retire attempts an advance
  domain.set_stall_strike_limit(4);  // report quickly
  domain.set_stall_report_us(0);     // attempt-only: deterministic here

  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::thread straggler([&] {
    auto g = domain.guard();
    parked = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked.load()) std::this_thread::yield();

  for (int i = 0; i < 32; ++i) domain.retire(new Tracked(i));
  ASSERT_TRUE(domain.stats().stalled_now);
  EXPECT_GE(governor().sample(domain), State::kDegraded);
  EXPECT_GE(governor().transitions(), 1u);

  release = true;
  straggler.join();
  ASSERT_FALSE(domain.stats().stalled_now);

  std::uint32_t ticks_to_healthy = 0;
  for (; ticks_to_healthy < governor().recovery_bound(); ++ticks_to_healthy) {
    if (governor().sample(domain) == State::kHealthy) break;
  }
  EXPECT_EQ(governor().state(), State::kHealthy);
  EXPECT_LT(ticks_to_healthy, governor().recovery_bound());

  // The sample-driven flushes plus two explicit ones leave nothing
  // behind.
  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(domain.pending_retired(), 0u);
}

// Concurrent writer ticks + governor applies under TSan: the tick's TLS
// fast path, the try-lock sample, and state publication must be race-free.
TEST_F(HealthTest, ConcurrentGatesAndSamplesAreRaceFree) {
  lot::reclaim::EbrDomain domain;
  governor().set_min_interval_us(0);  // every stride tick really samples
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    // Exercise both directions while writers tick.
    for (int i = 0; i < 200; ++i) {
      Signals s;
      s.heat_delta = i % 2 ? 5000 : 0;
      governor().apply(s);
      std::this_thread::yield();
    }
    stop = true;
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load()) {
        lot::health::maybe_sample_tick(domain);
        auto g = domain.guard();
      }
    });
  }
  flipper.join();
  for (auto& w : writers) w.join();
  EXPECT_GT(governor().ticks(), 0u);
}

}  // namespace
