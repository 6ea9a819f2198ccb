#!/usr/bin/env python3
"""Exact-equality gate on normanbench's simulated metrics.

Runs `normanbench --workload W --seed S --smoke --trace 0` for the four
workloads x the default and the held-out seed and compares the five
`sim_*` values of each run with scripts/normanbench_smoke_vns.json.
Virtual time is deterministic per seed and frame count, so there is no
tolerance: a differing number is a model change, and a model change
regenerates the table on purpose (`--write`), in a PR that says so.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TABLE = REPO / "scripts" / "normanbench_smoke_vns.json"
WORKLOADS = ["rx_fast", "rx_traced", "rx_scale", "tx_shaped"]
SEEDS = ["20210531", "19700101"]
RUN = ["cargo", "run", "--release", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--"]


def smoke_vns(workload, seed):
    """The sim_* metrics of one smoke run, which must be correct with nothing failed."""
    args = ["--workload", workload, "--seed", seed, "--smoke", "--trace", "0"]
    out = subprocess.run(RUN + args, cwd=REPO, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {k: m["value"] for k, m in result["metrics"].items() if k.startswith("sim_")}


def main():
    measured = {w: {s: smoke_vns(w, s) for s in SEEDS} for w in WORKLOADS}
    if sys.argv[1:] == ["--write"]:
        TABLE.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"wrote {TABLE}")
        return
    want = json.loads(TABLE.read_text())
    rows = [
        (w, s, k, want.get(w, {}).get(s, {}).get(k), got)
        for w in WORKLOADS
        for s in SEEDS
        for k, got in measured[w][s].items()
    ]
    differing = [r for r in rows if r[3] != r[4]]
    for w, s, k, expected, got in differing:
        print(f"FAIL {w} seed {s} {k}: committed {expected!r}, measured {got!r}")
    if differing or len(rows) != 40:
        sys.exit(f"smoke vns: {len(differing)} of {len(rows)} values differ (want 40 equal)")
    print("smoke vns: 40 of 40 simulated values equal the committed table")


if __name__ == "__main__":
    main()
