// Contention-adaptive rotation throttle (lo/rebalance.hpp, DESIGN.md §13):
// while a thread's contention heat is hot the rebalance climb defers its
// rotations — the height bookkeeping still runs, so the cached heights stay
// exact and LoCore::repair_balance() can converge the tree back to the
// strict AVL bound at quiescence. These tests drive the throttle
// deterministically through the set_contention_heat() hook (single-threaded),
// pin the runtime knob's semantics, and prove quiescent convergence after
// genuinely contended churn.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "health/governor.hpp"
#include "lo/avl.hpp"
#include "lo/rebalance.hpp"
#include "lo/validate.hpp"
#include "obs/obs.hpp"
#include "util/random.hpp"

namespace {

using K = std::int64_t;
using V = std::int64_t;
using lot::lo::AvlMap;
namespace detail = lot::lo::detail;

// gtest runs every test on the same thread, so the TLS heat, the throttle
// knob and the governor's contention odometer must be restored no matter
// how a test exits.
struct ThrottleStateGuard {
  ThrottleStateGuard() { restore(); }
  ~ThrottleStateGuard() { restore(); }
  static void restore() {
    detail::reset_contention_heat();
    detail::set_rebalance_throttle(true);
    lot::health::governor().reset();
  }
};

// Concurrent mixed churn over a small key range: the writers heat up via
// failed validations and lock retries.
void contended_churn(AvlMap<K, V>& m) {
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      lot::util::Xoshiro256 rng(911 + t);
      for (int i = 0; i < 30'000; ++i) {
        const K k = static_cast<K>(rng.next_below(2'048));
        if (rng.percent(55)) {
          m.insert(k, k);
        } else {
          m.erase(k);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
}

// Ascending inserts with the heat pinned at the cap before every op: each
// climb finds a |bf| >= 2 anchor and must defer its rotation, leaving a
// right spine with exact heights — which repair_balance() then converges.
TEST(RebalanceThrottle, HotWriterDefersAndRepairConverges) {
  ThrottleStateGuard guard;
  constexpr std::int64_t kN = 128;
  AvlMap<K, V> m;
  const auto obs0 = lot::obs::Registry::instance().snapshot();
  for (std::int64_t k = 0; k < kN; ++k) {
    detail::set_contention_heat(detail::kHeatCap);
    ASSERT_TRUE(m.insert(k, k));
  }
  const auto obs1 = lot::obs::Registry::instance().snapshot();
  detail::reset_contention_heat();

  // BST shape, chain, and height *bookkeeping* are intact either way —
  // deferral postpones repairs, never correctness.
  const auto loose = lot::lo::validate(m, /*check_heights=*/false);
  ASSERT_TRUE(loose.ok) << loose.to_string();

  const auto strict_before = lot::lo::validate(m, /*check_heights=*/true);
  EXPECT_FALSE(strict_before.ok)
      << "a sorted fill with every rotation deferred cannot satisfy the "
         "strict AVL bound — the throttle never engaged";
  EXPECT_GT(obs1.counter(lot::obs::Counter::kRotationsDeferred) -
                obs0.counter(lot::obs::Counter::kRotationsDeferred),
            0u);
  EXPECT_GT(m.repair_balance(), 0u);

  const auto strict = lot::lo::validate(m, /*check_heights=*/true);
  EXPECT_TRUE(strict.ok) << strict.to_string();
  // Fixpoint reached: a second repair pass finds nothing left to do.
  EXPECT_EQ(m.repair_balance(), 0u);
  for (std::int64_t k = 0; k < kN; ++k) EXPECT_TRUE(m.contains(k));
}

// The runtime knob: with the throttle disabled, pinned heat is ignored and
// the sorted fill stays strictly balanced with no repair pass.
TEST(RebalanceThrottle, RuntimeKnobOffRotatesUnconditionally) {
  ThrottleStateGuard guard;
  detail::set_rebalance_throttle(false);
  AvlMap<K, V> m;
  for (std::int64_t k = 0; k < 128; ++k) {
    detail::set_contention_heat(detail::kHeatCap);
    ASSERT_TRUE(m.insert(k, k));
  }
  detail::reset_contention_heat();
  const auto rep = lot::lo::validate(m, /*check_heights=*/true);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(m.repair_balance(), 0u);
}

// Heat decays with rebalance progress: a hot thread that keeps climbing
// without new contention events cools below the threshold and resumes
// rotating on its own — the throttle is adaptive, not a latch.
TEST(RebalanceThrottle, HeatCoolsWithProgress) {
  ThrottleStateGuard guard;
  AvlMap<K, V> m;
  // Just above the threshold: the first climbs defer, but every climb
  // iteration cools by one, so well before the fill ends the thread is
  // cold and rotations resume without any explicit reset.
  detail::set_contention_heat(detail::kHeatHotThreshold + 8);
  for (std::int64_t k = 0; k < 512; ++k) ASSERT_TRUE(m.insert(k, k));
  EXPECT_LT(detail::contention_heat(), detail::kHeatHotThreshold);
  m.repair_balance();
  const auto rep = lot::lo::validate(m, /*check_heights=*/true);
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

// The switch off under real contention: the TLS heat may not defer a
// single rotation, so the deferral counter stays flat. Whatever imbalance concurrent climbs leave behind, one
// quiescent repair pass restores the strict bound.
TEST(RebalanceThrottle, RuntimeKnobOffNeverDefersUnderContention) {
  ThrottleStateGuard guard;
  detail::set_rebalance_throttle(false);
  AvlMap<K, V> m;
  const auto obs0 = lot::obs::Registry::instance().snapshot();
  // Contention events are sparse (a handful per round), so churn until
  // there have been about as many as make the throttle-on arm defer;
  // without any, a zero deferral count would prove nothing.
  for (int round = 0; round < 20 && lot::health::contention_events() < 16;
       ++round) {
    contended_churn(m);
  }
  EXPECT_GT(lot::health::contention_events(), 0u);
  const auto obs1 = lot::obs::Registry::instance().snapshot();
  EXPECT_EQ(obs1.counter(lot::obs::Counter::kRotationsDeferred) -
                obs0.counter(lot::obs::Counter::kRotationsDeferred),
            0u);
  m.repair_balance();
  const auto rep = lot::lo::validate(m, /*check_heights=*/true);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(m.repair_balance(), 0u);
}

// Real contention end to end: whatever imbalance the writers' deferrals
// leave behind, one quiescent repair pass restores the strict AVL bound.
TEST(RebalanceThrottle, QuiescentConvergenceAfterContendedChurn) {
  ThrottleStateGuard guard;
  AvlMap<K, V> m;
  contended_churn(m);
  m.repair_balance();
  const auto rep = lot::lo::validate(m, /*check_heights=*/true);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_EQ(m.repair_balance(), 0u);
}

}  // namespace
