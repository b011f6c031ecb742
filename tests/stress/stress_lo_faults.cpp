// Fault-injection campaign (DESIGN.md §9, EXPERIMENTS.md robustness
// section): mixed churn under seeded allocation failures and forced guard
// stalls, on top of the usual schedule perturbation. Every quiescent
// barrier runs the full structural validation; after teardown the
// AllocStats counters must balance — an OOM'd insert may fail the caller,
// but it must never corrupt the tree, leak a node, or strand a lock.
//
// This binary compiles the trees with LOT_FAULT_INJECT *and*
// LOT_SCHEDULE_PERTURB (tests/stress/CMakeLists.txt), so injected
// bad_allocs and stalls land inside artificially widened race windows.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <new>
#include <thread>
#include <type_traits>
#include <vector>

#include "check/perturb.hpp"
#include "inject/inject.hpp"
#include "lo/map.hpp"
#include "lo/partial.hpp"
#include "lo/validate.hpp"
#include "reclaim/alloc_stats.hpp"
#include "reclaim/ebr.hpp"
#include "reclaim/pool.hpp"
#include "sync/barrier.hpp"
#include "util/random.hpp"

#ifndef LOT_STRESS_DIVISOR
#define LOT_STRESS_DIVISOR 1
#endif

namespace {

using lot::reclaim::AllocStats;
namespace inject = lot::inject;

constexpr std::uint64_t scaled(std::uint64_t n) {
  const std::uint64_t s = n / LOT_STRESS_DIVISOR;
  return s > 0 ? s : 1;
}

struct FaultParams {
  unsigned threads = 8;
  int phases = 3;
  std::uint64_t ops_per_phase = scaled(8'000);  // per thread
  std::int64_t key_range = 192;
  std::uint64_t seed = 1;
  bool check_heights = false;
  bool partial = false;
  std::uint32_t alloc_fail_permille = 60;
  std::uint32_t pool_fail_permille = 20;  // slab exhaustion inside the pool
  std::uint32_t stall_permille = 12;
  std::uint32_t stall_max_us = 120;
};

void arm_injection(const FaultParams& p) {
  inject::reset_fire_counts();
  inject::set_seed(p.seed);
  inject::set_site_rate(inject::Site::kLoInsertAlloc, p.alloc_fail_permille);
  inject::set_site_rate(inject::Site::kPartialInsertAlloc,
                        p.alloc_fail_permille);
  inject::set_site_rate(inject::Site::kPoolAlloc, p.pool_fail_permille);
  inject::set_site_rate(inject::Site::kGuardStallReader, p.stall_permille);
  inject::set_site_rate(inject::Site::kGuardStallWriter, p.stall_permille);
  inject::set_stall_max_us(p.stall_max_us);
  inject::enable_injection(true);
}

void disarm_injection() {
  inject::enable_injection(false);
  lot::check::enable_perturbation(false);
}

/// The campaign proper. The domain and map live in a scope of their own so
/// teardown (map chain + retired backlog) happens before the AllocStats
/// balance check — "no leaks" is asserted against everything the run ever
/// allocated, not just the happy paths.
template <typename MapT>
void run_fault_campaign(const FaultParams& p) {
  const auto live_before = AllocStats::live();
  std::atomic<std::uint64_t> survived_oom{0};
  {
    lot::reclaim::EbrDomain domain;
    domain.set_retire_threshold(32);  // keep reclamation active during churn
    MapT map(domain);

    // Uninjected half-dense prefill: erase/contains hit live keys at once.
    for (std::int64_t k = 0; k < p.key_range; k += 2) {
      ASSERT_TRUE(map.insert(k, k));
    }

    arm_injection(p);
    lot::check::reset_perturb_hits();
    lot::check::set_perturbation(30, 40);
    lot::check::enable_perturbation(true);

    lot::sync::ThreadBarrier barrier(p.threads);
    std::vector<std::thread> workers;
    workers.reserve(p.threads);
    for (unsigned t = 0; t < p.threads; ++t) {
      workers.emplace_back([&, t] {
        lot::util::Xoshiro256 rng(p.seed * 0x9E3779B97F4A7C15ULL + t + 1);
        std::uint64_t oom_here = 0;
        for (int phase = 0; phase < p.phases; ++phase) {
          barrier.arrive_and_wait();  // (1) phase start
          for (std::uint64_t i = 0; i < p.ops_per_phase; ++i) {
            const std::int64_t key = static_cast<std::int64_t>(
                rng.next_below(static_cast<std::uint64_t>(p.key_range)));
            const auto dice = rng.next_below(100);
            if (dice < 40) {
              map.contains(key);
            } else if (dice < 70) {
              // The one fallible operation: an injected bad_alloc must be
              // a clean no-op (strong guarantee) — the tree stays valid,
              // no lock stays held, and the worker simply moves on.
              try {
                map.insert(key, key);
              } catch (const std::bad_alloc&) {
                ++oom_here;
              }
            } else {
              map.erase(key);
            }
          }
          barrier.arrive_and_wait();  // (2) quiescent: validate
          if (t == 0) {
            if constexpr (MapT::kBalanced) {
              // Repair the heights abandoned climbs left stale before
              // asserting the strict AVL bound (DESIGN.md §13).
              if (p.check_heights) map.repair_balance();
            }
            const auto rep =
                lot::lo::validate(map, p.check_heights, p.partial);
            EXPECT_TRUE(rep.ok)
                << "structural validation failed after phase " << phase
                << " with " << inject::fires(inject::Site::kLoInsertAlloc) +
                                   inject::fires(
                                       inject::Site::kPartialInsertAlloc)
                << " injected allocation failures:\n"
                << rep.to_string();
          }
          barrier.arrive_and_wait();  // (3) release past validation
        }
        survived_oom.fetch_add(oom_here);
      });
    }
    for (auto& w : workers) w.join();
    disarm_injection();

    // The campaign must actually have injected something, or this test
    // silently degenerates into the plain perturbed stress.
    const auto alloc_site = p.partial ? inject::Site::kPartialInsertAlloc
                                      : inject::Site::kLoInsertAlloc;
    EXPECT_GT(inject::fires(alloc_site), 0u);
    // Pool-site faults (slab exhaustion inside Alloc::create) surface as
    // the same caught bad_alloc. The plain new/delete arm never reaches
    // the pool site, so there the equation is the pre-pool one.
    if constexpr (std::is_same_v<typename MapT::alloc_type,
                                 lot::reclaim::PoolNodeAlloc>) {
      EXPECT_GT(inject::fires(inject::Site::kPoolAlloc), 0u);
    } else {
      EXPECT_EQ(inject::fires(inject::Site::kPoolAlloc), 0u);
    }
    EXPECT_EQ(inject::fires(alloc_site) +
                  inject::fires(inject::Site::kPoolAlloc),
              survived_oom.load());
    EXPECT_GT(inject::fires(inject::Site::kGuardStallReader) +
                  inject::fires(inject::Site::kGuardStallWriter),
              0u);
    std::printf(
        "[ faults   ] %llu alloc failures survived, %llu reader stalls, "
        "%llu writer stalls\n",
        static_cast<unsigned long long>(survived_oom.load()),
        static_cast<unsigned long long>(
            inject::fires(inject::Site::kGuardStallReader)),
        static_cast<unsigned long long>(
            inject::fires(inject::Site::kGuardStallWriter)));

    if constexpr (MapT::kBalanced) {
      if (p.check_heights) map.repair_balance();
    }
    const auto rep = lot::lo::validate(map, p.check_heights, p.partial);
    EXPECT_TRUE(rep.ok) << "final structural validation failed:\n"
                        << rep.to_string();

    domain.flush();
    const auto stats = domain.stats();
    EXPECT_EQ(stats.emergency_leaks, 0u);
    EXPECT_EQ(domain.pending_retired(), 0u);
  }
  // Map chain and retired backlog are gone: every node the campaign ever
  // allocated — including the ones whose insert lost to an injected fault
  // or a duplicate — must be freed.
  EXPECT_EQ(AllocStats::live(), live_before) << "node leak under injection";
}

TEST(LoFaultStress, BstSurvivesInjectedFaults) {
  FaultParams p;
  p.check_heights = false;
  run_fault_campaign<lot::lo::LoMap<std::int64_t, std::int64_t,
                                    std::less<std::int64_t>, false>>(p);
}

TEST(LoFaultStress, AvlSurvivesInjectedFaults) {
  FaultParams p;
  p.check_heights = true;
  run_fault_campaign<lot::lo::LoMap<std::int64_t, std::int64_t,
                                    std::less<std::int64_t>, true>>(p);
}

// The same campaign over plain counted new/delete (reclaim::NewNodeAlloc):
// the only run of the fault campaign without the slab pool underneath.
TEST(LoFaultStress, AvlNewAllocSurvivesInjectedFaults) {
  FaultParams p;
  p.check_heights = true;
  run_fault_campaign<lot::lo::LoMap<std::int64_t, std::int64_t,
                                    std::less<std::int64_t>, true,
                                    lot::reclaim::NewNodeAlloc>>(p);
}

TEST(LoFaultStress, PartialAvlSurvivesInjectedFaults) {
  FaultParams p;
  p.check_heights = true;
  p.partial = true;
  run_fault_campaign<lot::lo::PartialAvlMap<std::int64_t, std::int64_t>>(p);
}

// An allocator that always fails: every insert must throw, and the map —
// including its internal lock state — must come through untouched, so the
// moment the "allocator" recovers the map works again.
TEST(LoFaultStress, TotalAllocFailureIsCleanNoOp) {
  lot::reclaim::EbrDomain domain;
  lot::lo::LoMap<std::int64_t, std::int64_t> map(domain);
  for (std::int64_t k = 0; k < 32; ++k) ASSERT_TRUE(map.insert(k, k));

  inject::reset_fire_counts();
  inject::set_seed(7);
  inject::set_site_rate(inject::Site::kLoInsertAlloc, 1000);  // always fire
  inject::enable_injection(true);
  for (std::int64_t k = 100; k < 140; ++k) {
    EXPECT_THROW(map.insert(k, k), std::bad_alloc);
  }
  inject::enable_injection(false);

  // Untouched: old keys present, failed keys absent, validation clean,
  // and inserts succeed again now the faults stopped.
  for (std::int64_t k = 0; k < 32; ++k) EXPECT_TRUE(map.contains(k));
  for (std::int64_t k = 100; k < 140; ++k) EXPECT_FALSE(map.contains(k));
  const auto rep = lot::lo::validate(map, true);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  EXPECT_TRUE(map.insert(500, 500));
  EXPECT_TRUE(map.contains(500));
}

// Same seed, same single-thread op sequence → identical injection
// decisions. Each run uses a fresh thread with the per-thread stream
// counter reset, mirroring how a failing campaign is replayed.
TEST(LoFaultStress, InjectionIsDeterministicUnderFixedSeed) {
  auto run_once = [] {
    inject::inject_state().thread_counter.store(0);
    inject::reset_fire_counts();
    inject::set_seed(42);
    inject::set_site_rate(inject::Site::kLoInsertAlloc, 250);
    inject::enable_injection(true);
    std::uint64_t failures = 0;
    std::thread worker([&] {
      lot::reclaim::EbrDomain domain;
      lot::lo::LoMap<std::int64_t, std::int64_t> map(domain);
      for (std::int64_t k = 0; k < 2'000; ++k) {
        try {
          map.insert(k, k);
        } catch (const std::bad_alloc&) {
          ++failures;
        }
      }
    });
    worker.join();
    inject::enable_injection(false);
    return failures;
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, second);
}

}  // namespace
