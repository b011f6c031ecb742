// Schedule-perturbed linearizability campaign for the shard-routed layer
// (src/shard/, DESIGN.md §15). Same harness as the single-tree stress —
// recorded mixed churn, escalating perturbation, per-phase structural
// validation (per shard, shard/validate.hpp), full history through the
// checker — but driven through ShardedMap, so every operation crosses the
// router and the ordered ops cross the k-way merge, while reclamation and
// contention events land in per-shard private domains.
//
// Also here: the shards=1 degenerate run (the acceptance criterion that
// the scale-out layer is free when unused — the existing campaign shape
// must pass unchanged through the wrapper) and exact obs reconciliation
// for sharded scans (the shifted descent identity, see below).
#include <gtest/gtest.h>

#include <cstdint>

#include "check/perturb.hpp"
#include "lo/avl.hpp"
#include "lo/bst.hpp"
#include "lo/partial.hpp"
// Must precede stress_common.hpp: the harness's qualified
// lo::validate(map, ...) call resolves against the overloads visible at
// its point of definition, and ShardedMap needs the per-shard overload.
#include "shard/validate.hpp"
#include "shard/sharded_map.hpp"
#include "stress_common.hpp"

namespace {

using K = std::int64_t;
using lot::check::PerturbPoint;
using lot::shard::ShardedMap;
using lot::stress::run_perturbed_stress;
using lot::stress::scaled;
using lot::stress::StressParams;

static_assert(lot::check::kSchedulePerturb,
              "stress targets must compile the trees with "
              "LOT_SCHEDULE_PERTURB (see tests/stress/CMakeLists.txt)");

/// Sharded variant of expect_obs_reconciles: identical op accounting, but
/// the descent identity shifts. A sharded range counts one kRangeOps at
/// the router layer (no descent of its own) while each inner cursor it
/// opens — one per shard owning a block of [lo, hi), router.hpp
/// shards_in — counts its real descent as kOrderedLocates. However many
/// shards a scan enters, `accounted - descents` is exactly the number of
/// sharded scans, and the contains_restarts audit must come out at
/// exactly -scans instead of 0. Still zero-tolerance: any read path
/// restarting a descent breaks the equality just as it would break the
/// == 0 form.
template <typename KeyT>
void expect_sharded_obs_reconciles(
    const lot::stress::StressOutcome<KeyT>& out, std::int64_t scan_len) {
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
  EXPECT_EQ(d(Counter::kInsertOps), ins) << "insert ops vs history";
  EXPECT_EQ(d(Counter::kInsertSuccess), ins_ok) << "insert successes";
  EXPECT_EQ(d(Counter::kEraseOps), rem) << "erase ops vs history";
  EXPECT_EQ(d(Counter::kEraseSuccess), rem_ok) << "erase successes";
  const std::uint64_t scans = d(Counter::kRangeOps);
  EXPECT_EQ(d(Counter::kContainsOps) +
                scans * static_cast<std::uint64_t>(scan_len),
            con)
      << "contains observations (point + " << scans << " scans x "
      << scan_len << ") vs history";
  EXPECT_EQ(d(Counter::kContainsHits) + d(Counter::kRangeKeysReported),
            con_ok)
      << "contains hits + scan keys reported vs history true-reads";
  EXPECT_EQ(lot::obs::Snapshot::contains_restarts_between(out.obs_before,
                                                          out.obs_after),
            -static_cast<std::int64_t>(scans))
      << "sharded descent identity broke: a read path re-descended";
  EXPECT_EQ(d(Counter::kValidationFallbacks),
            d(Counter::kInsertRestarts) + d(Counter::kEraseRestarts))
      << "fallbacks vs restart counts diverged";
}

template <typename MapT>
class LoShardStress : public ::testing::Test {};

// Both removal policies, both balance flavours, behind a 4-shard router:
// with key_range=192 and 64-key blocks the working set spans exactly three
// of the four shards, leaving one shard provably cold (asserted below via
// router stats).
using Impls = ::testing::Types<ShardedMap<lot::lo::BstMap<K, K>, 4>,
                               ShardedMap<lot::lo::AvlMap<K, K>, 4>,
                               ShardedMap<lot::lo::PartialBstMap<K, K>, 4>,
                               ShardedMap<lot::lo::PartialAvlMap<K, K>, 4>>;
TYPED_TEST_SUITE(LoShardStress, Impls);

TYPED_TEST(LoShardStress, PerturbedShardedChurnIsLinearizable) {
  TypeParam map;
  StressParams p;
  p.check_heights = TypeParam::kBalanced;
  p.partial = TypeParam::kLogicalRemoving;
  // Scans in the mix: every scan crosses the k-way merge mid-churn.
  p.phases = 2;
  p.ops_per_phase = scaled(4'000);
  p.scan_pct = 15;
  p.scan_len = 12;
  const auto out = run_perturbed_stress(map, p);
  lot::stress::print_check_stats(TypeParam::name().data(), out);
  lot::stress::expect_linearizable(out);
  expect_sharded_obs_reconciles(out, p.scan_len);

  // The campaign must have genuinely exercised the sharded reclamation
  // universes: every touched shard retired nodes into its OWN domain.
  std::uint64_t touched = 0;
  for (unsigned i = 0; i < TypeParam::shard_count(); ++i) {
    const auto st = map.shard_stats(i);
    const auto ds = map.shard_domain(i).stats();
    if (st.point_ops > 0) {
      ++touched;
      EXPECT_GT(ds.backlog_peak, 0u)
          << "shard " << i << " saw ops but retired nothing into its domain";
    } else {
      // Cold shard: nothing ever retired there (key_range=192 covers
      // blocks 0..2 of the 4-stripe).
      EXPECT_EQ(ds.pending_retired, 0u) << "shard " << i;
    }
  }
  EXPECT_EQ(touched, 3u) << "key_range=192 must span exactly 3 of 4 shards";

  // Perturbation fired inside the windows (same floor as the single-tree
  // campaign; the write-side hooks fire per inner tree exactly as before).
  EXPECT_GT(lot::check::perturb_hits(PerturbPoint::kInsertBeforeTreeLink),
            0u);
  EXPECT_GT(lot::check::perturb_hits(PerturbPoint::kEraseAfterMark), 0u);
  EXPECT_GT(lot::check::perturb_hits(PerturbPoint::kRangeStep), 0u);
  if (TypeParam::kBalanced) {
    EXPECT_GT(lot::check::perturb_hits(PerturbPoint::kRotate), 0u);
  }
}

// The degenerate configuration: shards=1 behind the router must pass the
// exact acceptance campaign the unsharded tree passes (mixed churn, three
// escalating phases, per-phase validation, full checker) — the scale-out
// layer costs nothing when unused.
TEST(LoShardStress1, SingleShardPassesTheAcceptanceCampaign) {
  ShardedMap<lot::lo::AvlMap<K, K>, 1> map;
  StressParams p;
  p.check_heights = true;
  const auto out = run_perturbed_stress(map, p);
  lot::stress::print_check_stats("sharded-x1 avl mixed churn", out);
  lot::stress::expect_linearizable(out);
  // No scans in the default params, so the shifted identity reduces to the
  // unsharded form and the stock reconciliation applies verbatim.
  lot::stress::expect_obs_reconciles(out, p.scan_len);
  EXPECT_GE(out.total_ops,
            p.threads * static_cast<std::uint64_t>(p.phases) *
                p.ops_per_phase);
}

}  // namespace
