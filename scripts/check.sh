#!/usr/bin/env bash
# Full correctness gate, in escalating order of cost:
#
#   1. tier-1: default build + the full CTest suite minus the long
#      stress binaries (unit, sequential, concurrent, checker unit tests,
#      and the in-tree *_tsan duplicates), plus a smoke that
#      scripts/obs_report.sh --json emits a parseable document;
#   2. the schedule-perturbed linearizability stress: perturbed histories
#      from the real trees through the offline checker — including the
#      scan-enabled campaigns (range scans decomposed into per-key
#      observations), the snapshot campaign (MVCC snapshot scans recorded
#      as whole-scan observations and held to single-point atomicity by
#      check_snapshot_scans) and the restart-audit campaign (the
#      versioned write path's capture→lock window perturbed,
#      resume/fallback counters reconciled exactly) — plus the
#      LOT_INJECT_BUG negative controls (tree-only locate, the skipped
#      version bump AND the epoch-skipping snapshot resolution) that must
#      be *rejected*, plus the LOT_FAULT_INJECT campaign (seeded
#      allocation failures and guard stalls with per-phase structural
#      validation and leak accounting, over the slab pool and over plain
#      new/delete), plus the storm campaign (EBR backpressure draining a
#      cleared wedge under churn), then the snapshot campaign and its
#      control, and the competitor concurrency suites, each repeated as
#      four side-by-side copies of 75 rounds;
#   3. the whole-build ThreadSanitizer preset (build-tsan/, iteration
#      counts scaled down by LOT_STRESS_DIVISOR=20), minus the scan
#      stress which stage 4 gates explicitly;
#   4. the scan-enabled linearizability stress under TSan: range walks
#      AND snapshot scans (the resolver's stamp reads, the revive version
#      handoff, the limbo prune) racing rotations, relocations and
#      revive-in-place with every memory access instrumented — the
#      ordered layer's dedicated gate;
#   5. the whole-build AddressSanitizer+LeakSanitizer preset (build-asan/),
#      so heap misuse and leaks gate alongside the race and
#      linearizability checks;
#   6. the chaos storm campaign under TSan: the seeded fault-storm
#      envelope (ramp/hold/release allocation failures + guard-stall
#      swarms + a pinned-epoch straggler), then the straggler's release
#      under churn, with the frozen backlog required to drain below the
#      high-water mark through the workers' own retires within a
#      wall-clock bound, every access instrumented — the storm
#      scheduler's rate updates, the watchdog and the faulted write paths
#      all race by design, and this stage proves they race benignly;
#   7. the sharded-layer gate: the ShardedMap linearizability campaign
#      under TSan (router + k-way merge + per-shard EBR domains, every
#      access instrumented) plus the shards=1 degenerate-equivalence
#      tests from the default build — the scale-out layer must be both
#      race-free at 4 shards and provably free at 1;
#   8. three short perfbench cells. The 2·10^6-key Table-1 cell
#      (avl-70-20-10-2m) is the only traffic that grows a pool past
#      kHugeChunkAfterSlabs, so 1.3M keys live on 2 MiB huge-page chunks.
#      The 2·10^4-key Table-1 cell (avl-50-25-25-20k) runs the rebalance
#      climb hardest: the most rotations per op, and writers colliding on
#      interval locks and climbs. snapshot-scan is the only cell that
#      takes snapshots, so the only one whose cuts (EpochSource::cut)
#      race real write traffic; its end-of-run check compares a final
#      snapshot with the live map. In all three, perfbench's value checks,
#      size reconciliation and final structural validation must pass
#      (`correct` true, 0 failed).
#
# Every stage runs even when an earlier one failed, so one hung or
# failing suite does not hide the verdict of the others. A stage that
# needs a build an earlier stage could not produce fails at once. The
# script ends with a pass/fail table and exits non-zero if any stage
# failed.
#
# A non-linearizable history makes the stress tests dump the complete
# trace + violation witness to $LOT_HISTORY_DUMP; this script pins that
# to an absolute path and, when a stage fails with one, moves it to
# <dump>-stageN.txt and prints its head, so a later stage cannot
# overwrite it.
set -uo pipefail
cd "$(dirname "$0")/.."

export LOT_HISTORY_DUMP="${LOT_HISTORY_DUMP:-$PWD/history.txt}"
rm -f "$LOT_HISTORY_DUMP" "${LOT_HISTORY_DUMP%.txt}"-stage*.txt

STRESS_RE='LoLinearizabilityStress|LoScanStress|LoSnapshotStress|TornSnapshot|LoResumeStress|SeededBug|LoFaultStress|LoStormStress|LoShardStress|DriverCapture'
SCAN_RE='LoScanStress|LoSnapshotStress|RecordedScanTrial'

# Set by the stages that build them; read by the stages that run them.
BUILT_DEFAULT=0
BUILT_TSAN=0

# Prints why the current stage failed; returns 1 so a stage can end with
# `step || { fail "why"; return; }`.
fail() {
  echo "check.sh: FAILED: $1" >&2
  FAIL_REASON="$1"
  return 1
}

needs() {  # needs <flag value> <what>
  [ "$1" = 1 ] || fail "needs $2, which an earlier stage failed to build"
}

stage_1() {
  cmake -B build -S . >/dev/null || { fail "configure"; return; }
  cmake --build build -j "$(nproc)" >/dev/null || { fail "build"; return; }
  BUILT_DEFAULT=1
  (cd build && ctest --output-on-failure -j "$(nproc)" -E "$STRESS_RE") \
    || { fail "tier-1 ctest"; return; }
  scripts/obs_report.sh --json \
    | python3 -c 'import json, sys; json.load(sys.stdin)' \
    || fail "obs_report.sh --json is not valid JSON"
}

stage_2() {
  needs "$BUILT_DEFAULT" "build/" || return
  (cd build && ctest --output-on-failure -R "$STRESS_RE") \
    || { fail "stress + checker"; return; }
  local rc=0
  snapshot_loop || { fail "loaded snapshot stress loop"; rc=1; }
  baseline_loop || { fail "loaded baseline concurrency loop"; rc=1; }
  return "$rc"
}

# Runs <copies> side-by-side copies of <rounds> rounds, each copy in its
# own directory under build/<name>/ with its own history dump. A round
# runs each <command> in turn: a test binary under build/tests/ plus its
# arguments (globbing off, so gtest filters pass through), stopped after
# 600 s like a ctest test, so a hang fails the loop instead of blocking
# the gate. Any failure fails the loop; the first failing copy's history
# dump is moved to where the stage epilogue looks for it.
repeat_loop() {  # repeat_loop <name> <copies> <rounds> <command>...
  local name="$1" copies="$2" rounds="$3"
  shift 3
  local dir="$PWD/build/$name" bin="$PWD/build/tests"
  rm -rf "$dir"
  local pids=() c p rc=0
  for c in $(seq "$copies"); do
    mkdir -p "$dir/$c"
    (
      set -f
      cd "$dir/$c" || exit 1
      export LOT_HISTORY_DUMP="$dir/$c/history.txt"
      for r in $(seq "$rounds"); do
        for cmd in "$@"; do
          local log
          log="$(basename "${cmd%% *}").log"
          timeout 600 "$bin"/$cmd >"$log" 2>&1 \
            || { echo "$name: copy $c round $r: $cmd failed" >&2; exit 1; }
        done
      done
    ) &
    pids+=($!)
  done
  for p in "${pids[@]}"; do wait "$p" || rc=1; done
  if [ "$rc" -eq 0 ]; then
    echo "$name: $copies copies x $rounds rounds passed"
    return 0
  fi
  for c in $(seq "$copies"); do
    if [ -f "$dir/$c/history.txt" ]; then
      mv "$dir/$c/history.txt" "$LOT_HISTORY_DUMP"
      break
    fi
  done
  return 1
}

# The snapshot campaign and its torn-snapshot control once more,
# uninstrumented and loaded: the MVCC ordering argument rests on fences
# TSan cannot model (DESIGN.md §16), so only parallel hardware runs
# exercise it, and some of its races show only when the cores are
# oversubscribed. A race that fails one loaded run in 60 survives all
# 4 x 75 = 300 runs with probability (59/60)^300 < 1%; the control
# (it passes when the checker rejects) must be rejected in every round of
# every copy. About 130 s on 4 cores.
SNAP_COPIES=4
SNAP_ROUNDS=75
snapshot_loop() {
  repeat_loop snapshot-loop "$SNAP_COPIES" "$SNAP_ROUNDS" \
    stress/stress_lo_snapshot stress/stress_lo_torn_snapshot
}

# The competitor concurrency suites, loaded the same way (ROADMAP 1(a)):
# the baseline bugs fixed before this loop existed failed 2 to 17 isolated
# runs in 20 (EFRB and HJ SingleKeyContention, Chromatic
# SharedKeyspaceMixedStress, CF DifferentialVsStdMap) and the skip list
# about 1 in 150. A 1-in-20 race survives 4 x 75 = 300 runs with
# probability (19/20)^300 < 10^-6, a 1-in-150 one with 13%. A round runs
# those three BaselineTest suites over all seven competitors (the skip
# list included), the CF sweep tests, the Chromatic and CF property grids
# and the skip-list structure tests. About 140 s on 4 cores.
BASE_COPIES=4
BASE_ROUNDS=75
BASE_FILTER='BaselineTest/*.SingleKeyContention:BaselineTest/*.SharedKeyspaceMixedStress:BaselineTest/*.DifferentialVsStdMap:CfTreeSweep.*'
baseline_loop() {
  repeat_loop baseline-loop "$BASE_COPIES" "$BASE_ROUNDS" \
    "test_baselines --gtest_filter=$BASE_FILTER" \
    "test_baseline_properties --gtest_filter=*ChromaticProperty*:*CfTreeProperty*" \
    test_skiplist_structure
}

stage_3() {
  cmake --preset tsan >/dev/null || { fail "tsan configure"; return; }
  cmake --build --preset tsan -j "$(nproc)" >/dev/null \
    || { fail "tsan build"; return; }
  BUILT_TSAN=1
  # The explicit -E overrides the preset's own exclude filter, so it must
  # re-state the SeededBug exclusion (a result-level negative control)
  # alongside the scan, torn-snapshot, storm and shard stress deferrals
  # (stages 4, 6 and 7 gate those explicitly).
  ctest --preset tsan \
    -E "SeededBug|TornSnapshot|$SCAN_RE|LoStormStress|LoShardStress" \
    || fail "tsan ctest"
}

stage_4() {
  needs "$BUILT_TSAN" "build-tsan/" || return
  # TornSnapshot rides along: the negative control's rejection must also
  # hold with every access instrumented and iteration counts scaled down.
  ctest --preset tsan -R "$SCAN_RE|TornSnapshot" || fail "tsan scan stress"
}

stage_5() {
  cmake --preset asan >/dev/null || { fail "asan configure"; return; }
  cmake --build --preset asan -j "$(nproc)" >/dev/null \
    || { fail "asan build"; return; }
  ctest --preset asan || fail "asan ctest"
}

stage_6() {
  needs "$BUILT_TSAN" "build-tsan/" || return
  ctest --preset tsan -R 'LoStormStress' || fail "tsan storm campaign"
}

stage_7() {
  needs "$BUILT_TSAN" "build-tsan/" || return
  needs "$BUILT_DEFAULT" "build/" || return
  ctest --preset tsan -R 'LoShardStress' \
    || { fail "tsan sharded stress"; return; }
  # shards=1 must be indistinguishable from the bare tree on the same op
  # tape (default build; these also ran inside stage 1's tier-1 sweep —
  # the explicit re-run makes the acceptance criterion a named gate).
  (cd build && ctest --output-on-failure -R 'SingleShardEquivalence') \
    || fail "shards=1 degenerate equivalence"
}

stage_8() {
  # No ctest tree grows a pool past 32 MiB; the first cell is the gate for
  # the huge-chunk carve path under real 1.3M-key traffic, the second for
  # contended rotations and climbs, the third for snapshot cuts under real
  # churn.
  mkdir -p build
  local cell
  for cell in avl-70-20-10-2m avl-50-25-25-20k snapshot-scan; do
    CARGO_TARGET_DIR="$PWD/build/perfbench-target" python3 perfbench/run.py \
      --workload "$cell" --seed 1 --seconds 4 --trace 0 \
      > "build/perfbench-$cell.out" \
      || { fail "perfbench run ($cell)"; return; }
    tail -n 1 "build/perfbench-$cell.out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
print("perfbench %s: correct=%s failed=%d attempted=%d" %
      (sys.argv[1], r["correct"], r["failed"], r["attempted"]))
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
' "$cell" || { fail "perfbench correctness ($cell)"; return; }
  done
}

STAGE_NAMES=(
  ""
  "tier-1 build + test"
  "perturbed linearizability + fault-injection stress"
  "ThreadSanitizer preset"
  "scan-enabled linearizability stress under TSan"
  "AddressSanitizer+LeakSanitizer preset"
  "chaos storm campaign under TSan"
  "sharded-layer gate (TSan campaign + degenerate equivalence)"
  "perfbench cells (avl-70-20-10-2m, avl-50-25-25-20k, snapshot-scan)"
)
RESULTS=()
FAILED=0
for n in 1 2 3 4 5 6 7 8; do
  echo "== stage $n/8: ${STAGE_NAMES[$n]} =="
  FAIL_REASON=""
  start=$SECONDS
  if "stage_$n"; then
    verdict="pass"
  else
    verdict="FAIL: ${FAIL_REASON:-exit status}"
    FAILED=1
    if [ -f "$LOT_HISTORY_DUMP" ]; then
      kept="${LOT_HISTORY_DUMP%.txt}-stage$n.txt"
      mv "$LOT_HISTORY_DUMP" "$kept"
      echo "check.sh: history artifact: $kept" >&2
      echo "check.sh: --- artifact head ---" >&2
      head -n 12 "$kept" >&2 || true
    fi
  fi
  RESULTS+=("$(printf '%d/8  %-68s %5ds  %s' "$n" "${STAGE_NAMES[$n]}" \
    "$((SECONDS - start))" "$verdict")")
done

echo "== check.sh: stage results =="
printf '%s\n' "${RESULTS[@]}"
if [ "$FAILED" -ne 0 ]; then
  echo "check.sh: FAILED (see the table above)" >&2
  exit 1
fi
echo "check.sh: all stages passed"
