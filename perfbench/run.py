#!/usr/bin/env python3
"""End-to-end benchmark of the logical-ordering trees.

Builds perfbench/ (a stand-alone CMake package over ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and prints the result object as the last line of stdout:

    python3 perfbench/run.py --workload update-heavy --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ledger. Build logs and the human-readable summary go to stderr.
Exits non-zero, without a result, if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "lot_perfbench"


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build() -> Path:
    out = build_dir()
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Keep compiler temporaries inside the build tree.
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", BINARY, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / BINARY


def declared_metrics(trace: bool) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    expected = declared_metrics(bool(args.trace))
    binary = build()

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=min(160, args.seconds * 2 + 100))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run timed out")
    if proc.returncode != 0:
        sys.exit(f"perfbench: run exited with code {proc.returncode}")

    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    if set(result["metrics"]) != expected:
        sys.exit(f"perfbench: metrics {sorted(set(result['metrics']) ^ expected)} "
                 "differ from BENCHMARK.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
