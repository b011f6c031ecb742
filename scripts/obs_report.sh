#!/usr/bin/env bash
# Quick observability console: runs a short mixed-workload burst through
# the AVL tree (ablation_obs from the default build) and prints
# the full registry snapshot — every counter, the derived contains_restarts
# audit, the sampled latency quantiles per op kind, and the EBR/pool
# gauges. The fastest way to eyeball that the telemetry layer is alive and
# the audit identity holds on this machine.
#
# Usage: scripts/obs_report.sh [--json]
#   --json   print only the machine-readable lot-obs-v1 snapshot
# Environment: LOT_BENCH_SECS / LOT_BENCH_THREADS override the burst.
set -euo pipefail
cd "$(dirname "$0")/.."

SECS="${LOT_BENCH_SECS:-0.3}"
THREADS="${LOT_BENCH_THREADS:-4}"

cmake -B build -S . >/dev/null
cmake --build build -j "$(nproc)" --target ablation_obs >/dev/null

OUT="$(./build/bench/ablation_obs \
  --threads="$THREADS" --ranges=20000 --secs="$SECS" --obs --report)"

case "${1:-}" in
  --json)
    # Everything after the json marker is the lot-obs-v1 document.
    printf '%s\n' "$OUT" | sed -n '/--- registry snapshot (json) ---/,$p' \
      | sed '1d'
    ;;
  *)
    printf '%s\n' "$OUT" | sed -n '/--- registry snapshot (text) ---/,$p'
    ;;
esac
