#!/usr/bin/env python3
"""The one hand-written bench gate left: BENCH_PR8.json.

Every other number has a home that needs no per-PR check. Virtual time
is `results/*.json`, held exactly by `scripts/ci.sh --job results`
(rerun every experiment, `git status --porcelain results/` must be
empty); wall clock is normanbench (`BENCHMARK.json`).

* BENCH_PR8.json (trace-pipeline overhead + offline drop forensics):
  the collect-mode overhead versus tracing-off must stay under the 5%
  acceptance bar (measured as best-of-reps paired process-CPU ratios,
  so the bar is enforced even on noisy runners), drop conservation
  between the file's ledger and its recorded events must hold, the
  offline report must account for every ring drop, every audit must be
  clean, and the file must contain events. These are acceptance bars,
  not baseline comparisons, so they hold regardless of run mode. It
  goes when collect-to-disk is re-based as a normanbench workload
  (ROADMAP, first item).

Usage:
  scripts/check_bench.py [--baseline-dir scripts/bench_baselines]
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def check_pr8(fresh, base, failures):
    if fresh is None:
        failures.append("BENCH_PR8.json missing — run exp_pr8_trace first")
        return
    if base is None:
        failures.append("baseline BENCH_PR8.json missing")
        return
    # Every pr8 gate is an acceptance bar (enforced in any run mode);
    # the experiment binary itself asserts the cross-checks in detail.
    overhead = fresh.get("overhead_pct")
    if overhead is None:
        failures.append("pr8: overhead_pct missing")
    elif overhead >= 5.0:
        failures.append(
            f"pr8: collect overhead {overhead:+.2f}% at or above the 5% acceptance bar"
        )
    if not fresh.get("conservation_ok", False):
        failures.append("pr8: drop conservation violated (file ledger != recorded events)")
    if fresh.get("report_total_drops") != fresh.get("ring_drops"):
        failures.append(
            f"pr8: offline report reconstructed {fresh.get('report_total_drops')} drops "
            f"but the host counted {fresh.get('ring_drops')}"
        )
    if fresh.get("audit_violations", 1) != 0:
        failures.append(f"pr8: {fresh.get('audit_violations')} audit violations")
    if fresh.get("events_in_file", 0) <= 0:
        failures.append("pr8: collection recorded no events")
    print(
        f"  pr8: collect overhead {overhead:+.2f}% (bar <5%); "
        f"{fresh.get('events_in_file')} events in file, "
        f"{fresh.get('report_total_drops')} drops reconstructed "
        f"across {fresh.get('drop_sites')} sites, conservation "
        f"{'ok' if fresh.get('conservation_ok') else 'VIOLATED'}"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default=str(REPO / "scripts" / "bench_baselines"))
    args = ap.parse_args()
    baselines = Path(args.baseline_dir)

    failures = []
    print("check_bench: BENCH_PR8.json acceptance bars")
    check_pr8(load(REPO / "BENCH_PR8.json"), load(baselines / "BENCH_PR8.json"),
              failures)

    if failures:
        print("\nFAIL:")
        for f in failures:
            print(f"  - {f}")
        sys.exit(1)
    print("\ncheck_bench: all gates passed")


if __name__ == "__main__":
    main()
