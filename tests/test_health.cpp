// Tests for the overload governor (DESIGN.md §14): threshold escalation,
// hysteresis de-escalation, no-oscillation under a flapping signal, the
// epoch-lag persistence rule, the transition log, the policy predicates,
// a real EBR stall episode round-trip (Degraded and back within the
// documented recovery bound), and the pool's health-gated emergency
// reserve.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <thread>
#include <vector>

#include "health/health.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/pool.hpp"

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

TEST_F(HealthTest, PolicyPredicatesFollowPublishedState) {
  using lot::health::admission_backoff_level;
  using lot::health::ebr_drain_shift;
  using lot::health::prefer_emergency_reserve;
  using lot::health::shed_rotations;

  lot::health::publish_state(State::kHealthy);
  EXPECT_FALSE(shed_rotations());
  EXPECT_EQ(ebr_drain_shift(), 0u);
  EXPECT_FALSE(prefer_emergency_reserve());
  EXPECT_EQ(admission_backoff_level(), 0u);

  lot::health::publish_state(State::kPressured);
  EXPECT_FALSE(shed_rotations());
  EXPECT_EQ(admission_backoff_level(), 1u);

  lot::health::publish_state(State::kDegraded);
  EXPECT_TRUE(shed_rotations());
  EXPECT_EQ(ebr_drain_shift(), 1u);
  EXPECT_TRUE(prefer_emergency_reserve());
  EXPECT_EQ(admission_backoff_level(), 2u);

  lot::health::publish_state(State::kCritical);
  EXPECT_TRUE(shed_rotations());
  EXPECT_EQ(ebr_drain_shift(), 2u);
  EXPECT_EQ(admission_backoff_level(), 4u);

  // The master switch (bench governor-off arm): state stays published —
  // obs keeps reporting it — but every policy reads "do nothing".
  lot::health::set_policies_enabled(false);
  EXPECT_EQ(lot::health::current_state(), State::kCritical);
  EXPECT_FALSE(shed_rotations());
  EXPECT_EQ(ebr_drain_shift(), 0u);
  EXPECT_FALSE(prefer_emergency_reserve());
  EXPECT_EQ(admission_backoff_level(), 0u);
}

// End-to-end with a real domain: a pinned straggler trips the stall
// watchdog, one governor sample lands in Degraded, and after the straggler
// releases the governor walks back to Healthy within recovery_bound()
// samples while the drain boost collapses the backlog.
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

  // The sample-driven flushes (drain boost) plus two explicit ones leave
  // nothing behind.
  domain.flush();
  domain.flush();
  EXPECT_EQ(Tracked::live.load(), 0);
  EXPECT_EQ(domain.pending_retired(), 0u);
}

// The pool's break glass: the pre-armed reserve slab is granted only at
// Degraded or worse, bypasses slab_limit, and is consumed exactly once
// until re-armed.
TEST_F(HealthTest, EmergencyReserveGrantsOnlyUnderDegradation) {
  lot::reclaim::SizePool pool(64, 8);
  pool.set_slab_limit(1);
  pool.set_fallback_enabled(false);
  ASSERT_TRUE(pool.emergency_armed());
  const auto before = lot::reclaim::PoolStats::snapshot();

  std::vector<void*> slots;
  for (std::size_t i = 0; i < pool.slots_per_slab(); ++i) {
    slots.push_back(pool.allocate());
  }
  // Healthy + exhausted: the seed contract holds, reserve stays sealed.
  EXPECT_THROW(pool.allocate(), std::bad_alloc);
  EXPECT_TRUE(pool.emergency_armed());

  lot::health::publish_state(State::kDegraded);
  slots.push_back(pool.allocate());  // break glass
  EXPECT_FALSE(pool.emergency_armed());
  const auto after = lot::reclaim::PoolStats::snapshot();
  EXPECT_EQ(after.emergency_grants, before.emergency_grants + 1);
  EXPECT_EQ(pool.slab_count(), 2u);  // reserve ignores slab_limit=1

  // The granted slab serves a full slab's worth; once consumed the pool is
  // genuinely out even at Degraded.
  for (std::size_t i = 1; i < pool.slots_per_slab(); ++i) {
    slots.push_back(pool.allocate());
  }
  EXPECT_THROW(pool.allocate(), std::bad_alloc);

  EXPECT_TRUE(pool.rearm_emergency_reserve());
  EXPECT_TRUE(pool.emergency_armed());

  lot::health::publish_state(State::kHealthy);
  for (void* s : slots) pool.deallocate(s);
}

// Concurrent writer gates + governor ticks under TSan: the gate's TLS
// fast path, the try-lock sample, and state publication must be race-free.
TEST_F(HealthTest, ConcurrentGatesAndSamplesAreRaceFree) {
  lot::reclaim::EbrDomain domain;
  governor().set_min_interval_us(0);  // every stride tick really samples
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    // Exercise both directions while gates run.
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
        lot::health::writer_gate(domain);
        auto g = domain.guard();
      }
    });
  }
  flipper.join();
  for (auto& w : writers) w.join();
  EXPECT_GT(governor().ticks(), 0u);
}

}  // namespace
