#!/usr/bin/env bash
# Committed perf trajectory for the PR sequence: builds the default
# (RelWithDebInfo) tree and runs the current PR's ablation on a small
# grid, dumping every cell as JSON (schema lot-bench-v1) at the repo
# root. The grid is sized for a small CI box — medians over several
# repeats of short trials, one key range — so the committed numbers are
# reproducible, not impressive.
#
# Snapshots so far:
#   BENCH_3.json — allocator/layout ablation (ablation_alloc)
#   BENCH_4.json — range-scan ablation, tree vs skiplist over a
#                  scan-length sweep (ablation_range)
#   BENCH_5.json — observability overhead (ablation_obs): counters only
#                  vs counters + 1-in-64 latency sampling; the committed
#                  file is kept as a record and also holds the "/obs=off"
#                  rows of the since-retired compiled-out build
#   BENCH_6.json — restart ablation (ablation_restart): versioned-resume
#                  write path vs root restart, uniform and Zipf(0.99)
#                  mixes, restart and resume counters in every row; the
#                  committed file is kept as a record and also holds the
#                  rows of the since-retired rotation throttle's arms
#                  (EXPERIMENTS.md A9)
#   BENCH_7.json — governor ablation, policies on vs off in calm weather
#                  and under a guard-stall storm plateau; kept as a record
#                  only: its bench binary and the overload governor itself
#                  are gone (EXPERIMENTS.md A10)
#   BENCH_8.json — shard ablation (ablation_shard): ShardedMap at
#                  shards ∈ {1,2,4,8} over the contended update-heavy mix,
#                  uniform / Zipf(0.99) hot-shard / 10%-scan arms, plus the
#                  per-shard isolation diagnostic and the paired per-round
#                  x8/x1 ratios in the stdout log; the committed file
#                  predates the pairing and its obs columns are gone
#   BENCH_10.json — MVCC snapshot ablation (ablation_mvcc): weak vs
#                  snapshot vs coarse-rwlock scans over the scan-length
#                  sweep; the committed file is kept as a record and also
#                  holds the "/mvcc=on" and "/mvcc=off" point-op rows of
#                  the since-retired compiled-out build
#
# Usage: scripts/bench_snapshot.sh [out.json]
# The target ablation is picked from the output name; default BENCH_4.json.
# Environment: LOT_BENCH_SECS / LOT_BENCH_REPEATS / LOT_BENCH_THREADS
# override the trial length, repeat count and thread list.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_4.json}"
SECS="${LOT_BENCH_SECS:-0.4}"
REPEATS="${LOT_BENCH_REPEATS:-5}"
THREADS="${LOT_BENCH_THREADS:-1,4,8}"

case "$OUT" in
  *BENCH_3*) TARGET=ablation_alloc ;;
  *BENCH_5*) TARGET=ablation_obs ;;
  *BENCH_6*) TARGET=ablation_restart ;;
  *BENCH_8*) TARGET=ablation_shard ;;
  *BENCH_10*) TARGET=ablation_mvcc ;;
  *) TARGET=ablation_range ;;
esac

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" --target "$TARGET" >/dev/null

if [ "$TARGET" = ablation_mvcc ] || [ "$TARGET" = ablation_range ]; then
  "./build/bench/$TARGET" \
    --threads="$THREADS" --ranges=20000 --scanlens=16,64,256 \
    --secs="$SECS" --repeats="$REPEATS" --json="$OUT"
else
  "./build/bench/$TARGET" \
    --threads="$THREADS" --ranges=20000 \
    --secs="$SECS" --repeats="$REPEATS" --json="$OUT"
fi

echo "bench_snapshot.sh: wrote $OUT"
