// Schedule-perturbed snapshot-scan stress (DESIGN.md §16): MVCC snapshot
// scans ride in the op mix across all four tree variants, racing inserts,
// erases, revive-in-place and (on the logical-removing maps) purge_all
// storms, with the named perturb points stretching every window. Each
// snapshot scan is recorded as ONE whole-scan observation and the merged
// run goes through BOTH checkers:
//   * check_set_history — per-key linearizability of the point ops and
//     weak scans, exactly as before;
//   * check_snapshot_scans — whole-scan atomicity: every snapshot scan's
//     full observation vector must be explainable by the per-key write
//     history at a single instant within the scan's window.
// Obs reconciliation is exact, snapshot counters included: every recorded
// snapshot drew precisely one view (kSnapshotAcquires), its reported keys
// equal its kRangeKeysReported share, and the §12 descent audit still
// closes to zero.
#include <gtest/gtest.h>

#include <cstdint>

#include "check/perturb.hpp"
#include "lo/avl.hpp"
#include "lo/bst.hpp"
#include "lo/partial.hpp"
#include "stress_common.hpp"

namespace {

using K = std::int64_t;
using lot::check::PerturbPoint;
using lot::stress::run_perturbed_stress;
using lot::stress::scaled;
using lot::stress::StressParams;

static_assert(lot::check::kSchedulePerturb,
              "stress targets must compile the trees with "
              "LOT_SCHEDULE_PERTURB (see tests/stress/CMakeLists.txt)");

template <typename MapT>
class LoSnapshotStress : public ::testing::Test {};

using Impls = ::testing::Types<
    lot::lo::BstMap<K, K>, lot::lo::AvlMap<K, K>,
    lot::lo::PartialBstMap<K, K>, lot::lo::PartialAvlMap<K, K>>;
TYPED_TEST_SUITE(LoSnapshotStress, Impls);

// The acceptance campaign: snapshot scans AND weak scans share the mix, so
// the reconciliation has to separate the two kinds of kRangeOps exactly.
// On the logical-removing variants erases mostly zombify, inserts revive
// (allocating the past-version records the snapshots then walk), and a
// 1%-per-op purge_all storm physically unlinks zombies under the scans'
// feet — the limbo-list handoff is what keeps dying nodes visible to
// pinned epochs.
TYPED_TEST(LoSnapshotStress, PerturbedSnapshotChurnIsAtomic) {
  TypeParam map;
  StressParams p;
  p.phases = 2;
  p.ops_per_phase = scaled(4'000);
  p.scan_pct = 10;      // weak scans, decomposed per-key as before
  p.snapshot_pct = 15;  // whole-scan observations; erase share drops to 5
  p.scan_len = 12;
  p.check_heights = TypeParam::kBalanced;
  p.partial = TypeParam::kLogicalRemoving;
  if (TypeParam::kLogicalRemoving) p.purge_permille = 10;
  const auto out = run_perturbed_stress(map, p);
  lot::stress::print_check_stats(TypeParam::name().data(), out);
  lot::stress::expect_linearizable(out);  // both verdicts
  lot::stress::expect_obs_reconciles(out, p.scan_len);

  // The campaign is vacuous unless snapshot scans actually ran and the
  // whole-scan checker actually intersected feasible sets.
  EXPECT_GT(out.scans.size(), 0u) << "no snapshot scans recorded";
  EXPECT_GT(lot::check::perturb_hits(PerturbPoint::kRangeStep), 0u);
  if (TypeParam::kLogicalRemoving && LOT_STRESS_DIVISOR == 1) {
    // Revives fire constantly in this mix; each allocates the past-version
    // record the snapshots resolve through.
    EXPECT_GT(out.obs_after.counter(lot::obs::Counter::kInsertRevives),
              out.obs_before.counter(lot::obs::Counter::kInsertRevives));
  }
}

// All threads over a tiny hot range, snapshot-heavy: version chains churn
// (zombify → revive → truncate) while nearly half the ops scan through
// them, so the resolver's seqlock retry loop and the chain walk are both
// exercised under maximum overlap. The whole-scan verdict must still be a
// single feasible point per scan.
TYPED_TEST(LoSnapshotStress, HotRangeSnapshotContention) {
  TypeParam map;
  StressParams p;
  p.threads = 4;
  p.phases = 1;
  p.ops_per_phase = scaled(6'000);
  p.key_range = 24;
  p.contains_pct = 20;
  p.insert_pct = 30;
  p.snapshot_pct = 40;  // erase share 10
  p.scan_len = 8;
  p.fire_permille = 60;
  p.max_sleep_us = 40;
  p.seed = 77;
  p.check_heights = TypeParam::kBalanced;
  p.partial = TypeParam::kLogicalRemoving;
  if (TypeParam::kLogicalRemoving) p.purge_permille = 20;
  const auto out = run_perturbed_stress(map, p);
  lot::stress::print_check_stats("hot-range snapshots", out);
  lot::stress::expect_linearizable(out);
  lot::stress::expect_obs_reconciles(out, p.scan_len);
  EXPECT_GT(out.scans.size(), 0u);
  if (TypeParam::kLogicalRemoving) {
    // Snapshot resolutions walked version chains: the hot range guarantees
    // scans overlap revived nodes whose newest incarnation postdates the
    // pinned epoch.
    const auto walks =
        out.obs_after.counter(lot::obs::Counter::kVersionChainWalks) -
        out.obs_before.counter(lot::obs::Counter::kVersionChainWalks);
    EXPECT_GT(walks, 0u) << "no snapshot ever resolved through a chain";
  }
}

}  // namespace
