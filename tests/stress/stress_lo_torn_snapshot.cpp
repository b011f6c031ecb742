// Whole-scan checker sensitivity proof: this target compiles the tree
// with LOT_INJECT_BUG=3, which makes every snapshot view's SECOND node
// resolution ignore the view's pinned epoch and read the newest committed
// state instead (lo/core.hpp, mvcc_resolve). That is precisely the bug
// class the MVCC layer exists to rule out — a scan whose prefix reflects
// the cut but whose tail reflects a later write, i.e. a torn snapshot.
//
// The per-key decomposition checker CANNOT see this: each key's verdict
// is individually justifiable somewhere inside the scan's window. Only
// the whole-scan feasibility intersection (check_snapshot_scans) notices
// that no single instant explains the full vector. The test asserts
// exactly that split: point-op histories stay linearizable while the
// whole-scan verdict must reject within a few seeded attempts — if it
// ever stops doing so, the snapshot-atomicity harness is vacuous.
#include <gtest/gtest.h>

#include <cstdint>

#include "lo/partial.hpp"
#include "stress_common.hpp"

#if !defined(LOT_INJECT_BUG) || LOT_INJECT_BUG != 3
#error "this target must be compiled with LOT_INJECT_BUG=3"
#endif

namespace {

using K = std::int64_t;
using lot::stress::run_perturbed_stress;
using lot::stress::scaled;
using lot::stress::StressParams;

TEST(TornSnapshot, WholeScanCheckerRejectsEpochSkippingRead) {
  // Snapshot-heavy churn over a small hot range: with writes landing
  // between a view's first and second resolution nearly every scan, the
  // injected epoch skip produces observation vectors no single instant
  // explains. Each attempt is an independent seed; the tear needs a write
  // in the right window, so allow a few runs before declaring the
  // checker blind.
  constexpr int kAttempts = 5;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    lot::lo::PartialAvlMap<K, K> map;
    StressParams p;
    p.threads = 8;
    p.phases = 1;
    p.ops_per_phase = scaled(6'000);
    p.key_range = 48;
    p.contains_pct = 10;
    p.insert_pct = 35;
    p.snapshot_pct = 30;  // erase share 25
    p.scan_len = 12;
    p.fire_permille = 80;
    p.max_sleep_us = 100;
    p.seed = 3000 + static_cast<std::uint64_t>(attempt);
    p.check_heights = true;
    p.partial = true;
    const auto out = run_perturbed_stress(map, p);
    // The injected bug lives entirely in snapshot resolution: the live
    // ops' per-key history must still linearize, or the control proves
    // nothing about the NEW checker.
    EXPECT_TRUE(out.result.ok())
        << "point-op history rejected — the injection leaked outside "
           "snapshot reads: "
        << out.result.reason;
    ASSERT_GT(out.scans.size(), 0u) << "no snapshot scans recorded";
    if (out.scan_result.verdict == lot::check::Verdict::kNonLinearizable) {
      EXPECT_FALSE(out.scan_result.reason.empty());
      SUCCEED() << "torn snapshot caught on attempt " << attempt << ": "
                << out.scan_result.reason;
      return;
    }
    ASSERT_NE(out.scan_result.verdict, lot::check::Verdict::kAborted)
        << out.scan_result.reason;
  }
  FAIL() << "whole-scan checker accepted " << kAttempts
         << " histories from the epoch-skipping snapshot reader — either "
            "the injected tear never fired or the feasibility "
            "intersection cannot see cross-key violations";
}

}  // namespace
