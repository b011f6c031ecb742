// Property-based parameterized sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// for every (threads, key range, update ratio) point in the grid, run a
// randomized concurrent workload against each logical-ordering tree and
// check the invariants that must hold at quiescence:
//   P1  structural validity (ordering chain <-> tree agreement, BST order,
//       no marked nodes reachable, no leaked locks),
//   P2  strict AVL balance for the balanced variant,
//   P3  set semantics: final contents equal a replay of the per-thread
//       operation logs (merged by a deterministic tie-break is impossible
//       concurrently, so we use per-thread disjoint key blocks),
//   P4  reclamation: the retire pipeline drains and physical == live.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "lo/avl.hpp"
#include "lo/bst.hpp"
#include "lo/partial.hpp"
#include "lo/validate.hpp"
#include "util/random.hpp"

namespace {

using K = std::int64_t;
using V = std::int64_t;
using lot::util::Xoshiro256;

// (threads, keys-per-thread, update percentage)
using Param = std::tuple<int, int, int>;

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [threads, keys, upd] = info.param;
  return "t" + std::to_string(threads) + "_k" + std::to_string(keys) +
         "_u" + std::to_string(upd);
}

template <typename MapT>
void run_disjoint_property(const Param& param, bool balanced,
                           bool partial) {
  const auto [threads, keys_per_thread, update_pct] = param;
  lot::reclaim::EbrDomain domain;
  const auto live_before = lot::reclaim::AllocStats::live();
  {
    MapT m(domain);
    std::vector<std::set<K>> expected(threads);
    std::vector<std::thread> workers;
    std::atomic<bool> result_mismatch{false};
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        Xoshiro256 rng(1234u * (t + 1));
        auto& mine = expected[t];
        const K base = static_cast<K>(t) * keys_per_thread;
        for (int i = 0; i < 25'000; ++i) {
          const K k = base + static_cast<K>(rng.next_below(
                                 static_cast<std::uint64_t>(keys_per_thread)));
          const auto dice = rng.next_below(100);
          if (dice >= static_cast<std::uint64_t>(update_pct)) {
            // P3 for reads too: membership must match this thread's view
            // of its own partition.
            if (m.contains(k) != (mine.count(k) > 0)) result_mismatch = true;
          } else if (dice < static_cast<std::uint64_t>(update_pct) / 2) {
            if (m.insert(k, k) != (mine.count(k) == 0)) {
              result_mismatch = true;
            }
            mine.insert(k);
          } else {
            if (m.erase(k) != (mine.count(k) > 0)) result_mismatch = true;
            mine.erase(k);
          }
        }
      });
    }
    for (auto& w : workers) w.join();

    ASSERT_FALSE(result_mismatch.load()) << "P3: op result disagreed with "
                                            "the single-writer partition view";
    std::set<K> all;
    for (const auto& s : expected) all.insert(s.begin(), s.end());
    ASSERT_EQ(m.size_slow(), all.size()) << "P3: final size mismatch";
    std::vector<K> in_order;
    m.for_each([&](K k, V) { in_order.push_back(k); });
    ASSERT_TRUE(std::equal(in_order.begin(), in_order.end(), all.begin(),
                           all.end()))
        << "P3: final contents mismatch";

    if constexpr (MapT::kBalanced) {
      // Repair the heights abandoned climbs left stale before asserting
      // the strict AVL bound — P1/P2 are statements about quiescence.
      if (balanced) m.repair_balance();
    }
    const auto rep = lot::lo::validate(m, balanced, partial);
    ASSERT_TRUE(rep.ok) << "P1/P2:\n" << rep.to_string();

    domain.flush();
    domain.flush();
    domain.flush();
    EXPECT_EQ(domain.pending_retired(), 0u) << "P4: retire backlog";
  }
  EXPECT_EQ(lot::reclaim::AllocStats::live(), live_before)
      << "P4: node leak";
}

class LoBstProperty : public ::testing::TestWithParam<Param> {};
class LoAvlProperty : public ::testing::TestWithParam<Param> {};
class LoPartialAvlProperty : public ::testing::TestWithParam<Param> {};

TEST_P(LoBstProperty, DisjointPartitionInvariants) {
  run_disjoint_property<lot::lo::BstMap<K, V>>(GetParam(), false, false);
}

TEST_P(LoAvlProperty, DisjointPartitionInvariants) {
  run_disjoint_property<lot::lo::AvlMap<K, V>>(GetParam(), true, false);
}

TEST_P(LoPartialAvlProperty, DisjointPartitionInvariants) {
  run_disjoint_property<lot::lo::PartialAvlMap<K, V>>(GetParam(), true,
                                                      true);
}

// The grid: contention from "hammering 32 keys" to "spread over 4096",
// read-mostly to update-only, 2 to 8 threads.
const auto kGrid = ::testing::Values(
    Param{2, 32, 100}, Param{2, 512, 50}, Param{4, 32, 100},
    Param{4, 256, 60}, Param{4, 4096, 20}, Param{8, 64, 80},
    Param{8, 1024, 40}, Param{8, 4096, 100});

INSTANTIATE_TEST_SUITE_P(Grid, LoBstProperty, kGrid, param_name);
INSTANTIATE_TEST_SUITE_P(Grid, LoAvlProperty, kGrid, param_name);
INSTANTIATE_TEST_SUITE_P(Grid, LoPartialAvlProperty, kGrid, param_name);

}  // namespace
