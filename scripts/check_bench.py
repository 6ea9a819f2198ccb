#!/usr/bin/env python3
"""Bench-regression guard for CI.

Compares freshly generated bench artifacts against the committed
baselines in scripts/bench_baselines/ and fails on regression:

* BENCH_PR5.json (multi-queue scaling, virtual-time — deterministic):
  the 4-shard speedup must stay over the 2.5x acceptance bar and
  single-queue parity must hold. A full (non-smoke) run additionally
  fails if any width's wall clock exceeds 3x the unsharded run's
  (`parity.pump_wall_ms`) — shards are accounting, not threads, and must
  not cost host time. Against the baseline, each width's `makespan_ns`
  and `per_core_busy_ns` must match *exactly*: virtual time is
  deterministic, so any difference is a dataplane change that has to be
  looked at and the baseline regenerated on purpose. Comparison requires
  the same run length (bursts); a length mismatch is reported and
  skipped rather than failed, so a local full run does not trip over
  the smoke baseline CI uses.

* BENCH_PR6.json (fail-operational recovery, virtual-time —
  deterministic): worst-case NIC crash-to-traffic recovery must not
  regress by more than --tolerance vs baseline, high-priority goodput
  retained under degradation must stay over the 70% acceptance bar,
  shard-panic frame conservation must hold, and the seeded crash storm
  must replay byte-identically with zero audit violations. Comparison
  requires the same run mode (smoke); a mismatch is reported and the
  numeric comparison skipped, like the PR5 length check.

* BENCH_PR7.json (connection scaling under hierarchical flow state,
  virtual-time — deterministic): the per-policy cliff position must not
  move inward vs baseline, per-row aggregate and high-priority goodput
  must not regress by more than --tolerance, priority-aware and pinned
  must hold the 90% high-priority retention acceptance bar at the top
  of the sweep, and every run's audits must be clean. Comparison
  requires the same run mode (smoke), like the PR6 check.

* BENCH_PR8.json (trace-pipeline overhead + offline drop forensics):
  the collect-mode overhead versus tracing-off must stay under the 5%
  acceptance bar (measured as best-of-reps paired process-CPU ratios,
  so the bar is enforced even on noisy runners), drop conservation
  between the file's ledger and its recorded events must hold, the
  offline report must account for every ring drop, every audit must be
  clean, and the file must contain events. These are acceptance bars,
  not baseline comparisons, so they hold regardless of run mode.

* BENCH_PR9.json (zero-copy arena dataplane, wall-clock): acceptance
  bars on the recorded numbers — the headline rx_fastpath throughput
  must stay at or above the 3.2 Mpps bar (>= 3x the BENCH_PR3 1.08 Mpps
  pre-arena baseline), every workload must have delivered every offered
  frame, and the arena must report zero live slots after the drain
  (no leaked frame references across 150k deliveries). The numbers are
  min-over-segments wall clock recorded by exp_pr9_bench on the machine
  that produced the artifact; like the PR8 bars they are enforced on
  the stored document in any run mode, so CI does not re-time.

* BENCH_PR10.json (AOT-compiled overlay engines, wall-clock + exact):
  acceptance bars on the recorded numbers — the compiled engine must be
  >= 3x the interpreter on the ~32-instruction headline program
  (min-over-segments ns/packet, `overlay/interp_x32` vs
  `overlay/compiled_x32` in the substrates sweep mirror the same pair),
  the engine differential sweep must report exactly zero mismatches,
  and the E5/E7 policy-bearing scenarios rerun compiled must deliver
  goodput no worse than their interpreted runs (virtual time, so "no
  worse" means exactly equal). Like the PR9 bars these are enforced on
  the stored document in any run mode, so CI does not re-time. When the
  substrates sweep is a timed run, the interp/compiled row ratio is
  additionally held to the same 3x bar.

* results/substrates.json (microbench sweep): the benchmark *coverage*
  must include everything in the baseline — a bench that silently
  disappears fails the gate. Wall-clock ns/iter is compared only when
  both sides were timed runs (CI runs BENCH_SMOKE=1, which records no
  timings), and then against the looser --wall-tolerance (default 50%)
  because wall clock on shared runners is noisy.

Usage:
  scripts/check_bench.py [--baseline-dir scripts/bench_baselines]
                         [--tolerance 0.10] [--wall-tolerance 0.50]
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


def check_pr5(fresh, base, failures):
    if fresh is None:
        failures.append("BENCH_PR5.json missing — run exp_pr5_bench first")
        return
    if base is None:
        failures.append("baseline BENCH_PR5.json missing")
        return
    # Acceptance bars hold regardless of baseline or run length.
    four = next((p for p in fresh.get("scaling", []) if p["workers"] == 4), None)
    if four is None:
        failures.append("pr5 scaling: 4-worker point missing")
    elif four["speedup_vs_1"] < 2.5:
        failures.append(
            f"pr5 scaling: 4-worker speedup {four['speedup_vs_1']:.2f}x "
            "below the 2.5x acceptance bar"
        )
    if not fresh.get("parity", {}).get("identical", False):
        failures.append("pr5 parity: single-queue worker mode diverged from pump")
    pump_wall = fresh.get("parity", {}).get("pump_wall_ms")
    if pump_wall is None:
        failures.append("pr5 parity: pump_wall_ms missing")
    elif not fresh.get("smoke", False):
        # Smoke runs last a few ms a width: too short to time.
        for point in fresh.get("scaling", []):
            ratio = point["wall_ms"] / pump_wall
            status = "ok" if ratio <= 3.0 else "TOO SLOW"
            print(
                f"  pr5: {point['workers']} workers — wall {point['wall_ms']:.1f} ms, "
                f"{ratio:.2f}x the unsharded {pump_wall:.1f} ms (bar 3x) {status}"
            )
            if ratio > 3.0:
                failures.append(
                    f"pr5 wall clock: {point['workers']}-worker run took {ratio:.1f}x "
                    "the unsharded run (bar 3x)"
                )
    if fresh.get("bursts") != base.get("bursts"):
        print(
            f"  pr5: run length differs (fresh bursts={fresh.get('bursts')}, "
            f"baseline bursts={base.get('bursts')}) — skipping baseline comparison"
        )
        return
    base_points = {p["workers"]: p for p in base.get("scaling", [])}
    for point in fresh.get("scaling", []):
        workers = point["workers"]
        ref = base_points.get(workers)
        if ref is None:
            print(f"  pr5: no baseline for {workers} workers — skipping")
            continue
        for key in ("makespan_ns", "per_core_busy_ns"):
            if point[key] != ref[key]:
                failures.append(
                    f"pr5 scaling: {workers}-worker {key} {point[key]} != baseline "
                    f"{ref[key]} (virtual time is deterministic: exact match required)"
                )
        print(
            f"  pr5: {workers} workers — makespan {point['makespan_ns']:.0f} vns, "
            f"goodput {point['goodput_gbps']:.2f} Gbps (baseline makespan "
            f"{ref['makespan_ns']:.0f} vns)"
        )


def check_pr6(fresh, base, tol, failures):
    if fresh is None:
        failures.append("BENCH_PR6.json missing — run exp_pr6_recovery first")
        return
    if base is None:
        failures.append("baseline BENCH_PR6.json missing")
        return
    # Acceptance bars hold regardless of baseline or run mode.
    retained = fresh.get("degraded", {}).get("hi_goodput_retained", 0.0)
    if retained < 0.70:
        failures.append(
            f"pr6 degraded: high-prio goodput retained {retained:.0%} "
            "below the 70% acceptance bar"
        )
    if not fresh.get("shard_panics", {}).get("conserved", False):
        failures.append("pr6 shard panics: frame conservation violated")
    storm = fresh.get("storm", {})
    if not storm.get("replay_identical", False):
        failures.append("pr6 storm: crash storm did not replay byte-identically")
    if storm.get("audit_violations", 1) != 0:
        failures.append(
            f"pr6 storm: {storm.get('audit_violations')} audit violations"
        )
    total_recovery_violations = sum(
        p.get("audit_violations", 0) for p in fresh.get("recovery", [])
    )
    if total_recovery_violations != 0:
        failures.append(
            f"pr6 recovery: {total_recovery_violations} audit violations across crash sweep"
        )
    if fresh.get("smoke") != base.get("smoke"):
        print(
            f"  pr6: run mode differs (fresh smoke={fresh.get('smoke')}, "
            f"baseline smoke={base.get('smoke')}) — skipping numeric comparison"
        )
        return
    got, want = fresh.get("max_recovery_ms"), base.get("max_recovery_ms")
    if got is None or want is None:
        failures.append("pr6 recovery: max_recovery_ms missing")
        return
    ceiling = want * (1.0 + tol)
    status = "ok" if got <= ceiling else "REGRESSION"
    print(
        f"  pr6: worst-case crash recovery {got:.1f} ms "
        f"(baseline {want:.1f}, ceiling {ceiling:.1f}) {status}; "
        f"degraded goodput retained {retained:.0%} (bar 70%)"
    )
    if got > ceiling:
        failures.append(
            f"pr6 recovery: worst-case recovery {got:.1f} ms regressed "
            f">{tol:.0%} vs baseline {want:.1f} ms"
        )


def check_pr7(fresh, base, tol, failures):
    if fresh is None:
        failures.append("BENCH_PR7.json missing — run exp_pr7_scale first")
        return
    if base is None:
        failures.append("baseline BENCH_PR7.json missing")
        return
    # Acceptance bars hold regardless of baseline or run mode.
    cliffs = {c["policy"]: c for c in fresh.get("cliffs", [])}
    for policy in ("priority-aware", "pinned"):
        retained = cliffs.get(policy, {}).get("hi_retention_at_max", 0.0)
        if retained < 0.90:
            failures.append(
                f"pr7 {policy}: high-prio goodput retained {retained:.0%} "
                "at the top of the sweep, below the 90% acceptance bar"
            )
    total_violations = sum(r.get("audit_violations", 0) for r in fresh.get("rows", []))
    if total_violations != 0:
        failures.append(f"pr7: {total_violations} audit violations across the sweep")
    if fresh.get("smoke") != base.get("smoke"):
        print(
            f"  pr7: run mode differs (fresh smoke={fresh.get('smoke')}, "
            f"baseline smoke={base.get('smoke')}) — skipping numeric comparison"
        )
        return
    base_cliffs = {c["policy"]: c for c in base.get("cliffs", [])}
    for policy, ref in base_cliffs.items():
        got = cliffs.get(policy)
        if got is None:
            failures.append(f"pr7: policy {policy} vanished from the sweep")
            continue
        status = "ok" if got["cliff_connections"] >= ref["cliff_connections"] else "REGRESSION"
        print(
            f"  pr7: {policy} cliff at {got['cliff_connections']} conns "
            f"(baseline {ref['cliff_connections']}) {status}"
        )
        if got["cliff_connections"] < ref["cliff_connections"]:
            failures.append(
                f"pr7 {policy}: cliff moved in to {got['cliff_connections']} conns "
                f"from baseline {ref['cliff_connections']}"
            )
    base_rows = {(r["policy"], r["connections"]): r for r in base.get("rows", [])}
    for row in fresh.get("rows", []):
        ref = base_rows.get((row["policy"], row["connections"]))
        if ref is None:
            continue
        for key in ("goodput_gbps", "hi_goodput_gbps"):
            got, want = row[key], ref[key]
            if got < want * (1.0 - tol):
                failures.append(
                    f"pr7 {row['policy']}@{row['connections']}: {key} {got:.1f} "
                    f"regressed >{tol:.0%} vs baseline {want:.1f}"
                )


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


def check_pr9(fresh, failures):
    if fresh is None:
        failures.append("BENCH_PR9.json missing — run exp_pr9_bench first")
        return
    if fresh.get("schema") != "norman-bench-pr9-v1":
        failures.append(f"pr9: unexpected schema {fresh.get('schema')!r}")
        return
    by_name = {e.get("name"): e for e in fresh.get("experiments", [])}
    rx = by_name.get("rx_fastpath")
    if rx is None:
        failures.append("pr9: rx_fastpath experiment missing")
        return
    mpps = rx.get("mpps", 0.0)
    if mpps < 3.2:
        failures.append(
            f"pr9: rx_fastpath {mpps:.2f} Mpps below the 3.2 Mpps acceptance bar "
            f"(3x the pre-arena BENCH_PR3 baseline)"
        )
    for name in ("rx_fastpath", "rx_fastpath_traced", "tx_fastpath"):
        e = by_name.get(name)
        if e is None:
            failures.append(f"pr9: {name} experiment missing")
        elif e.get("delivered") != e.get("frames"):
            failures.append(
                f"pr9: {name} delivered {e.get('delivered')}/{e.get('frames')} frames"
            )
    if fresh.get("arena_live_after_drain", 1) != 0:
        failures.append(
            f"pr9: {fresh.get('arena_live_after_drain')} arena slots still live after drain"
        )
    print(
        f"  pr9: rx_fastpath {mpps:.2f} Mpps (bar >=3.2), "
        f"traced overhead {fresh.get('traced_overhead_pct', 0.0):+.1f}%, "
        f"arena live after drain {fresh.get('arena_live_after_drain')}"
    )


def check_pr10(fresh, substrates, failures):
    if fresh is None:
        failures.append("BENCH_PR10.json missing — run exp_pr10_bench first")
        return
    if fresh.get("schema") != "norman-bench-pr10-v1":
        failures.append(f"pr10: unexpected schema {fresh.get('schema')!r}")
        return
    speedup = fresh.get("speedup", 0.0)
    if speedup < 3.0:
        failures.append(
            f"pr10: compiled engine {speedup:.2f}x interpreter, below the 3x acceptance bar"
        )
    diff = fresh.get("differential", {})
    if diff.get("packets", 0) <= 0:
        failures.append("pr10: differential sweep ran no packets")
    if diff.get("mismatches", 1) != 0:
        failures.append(
            f"pr10: {diff.get('mismatches')} engine divergences (must be exactly 0)"
        )
    for scenario in ("e5_policy_swap", "e7_full_policy"):
        rows = {r.get("engine"): r for r in fresh.get(scenario, [])}
        compiled, interp = rows.get("compiled"), rows.get("interpreted")
        if compiled is None or interp is None:
            failures.append(f"pr10 {scenario}: compiled/interpreted rows missing")
            continue
        if compiled.get("delivered", 0) < interp.get("delivered", 1):
            failures.append(
                f"pr10 {scenario}: compiled delivered {compiled.get('delivered')} "
                f"< interpreted {interp.get('delivered')} — goodput regressed"
            )
        if compiled.get("packets_lost", 1) != 0:
            failures.append(
                f"pr10 {scenario}: compiled run lost {compiled.get('packets_lost')} packets"
            )
    print(
        f"  pr10: compiled {speedup:.2f}x interpreter (bar >=3x); "
        f"differential {diff.get('programs')} programs / {diff.get('packets')} packets, "
        f"{diff.get('mismatches')} mismatches; E5/E7 compiled goodput no worse"
    )
    # Cross-check the substrates sweep's engine rows when it was timed
    # (smoke runs record no timings).
    if substrates is None or substrates.get("mode") != "timed":
        return
    rows = {(b["group"], b["name"]): b.get("ns_per_iter") for b in substrates.get("benches", [])}
    interp_ns = rows.get(("overlay", "interp_x32"))
    compiled_ns = rows.get(("overlay", "compiled_x32"))
    if interp_ns is None or compiled_ns is None:
        failures.append("pr10: overlay/interp_x32 or overlay/compiled_x32 missing from timed substrates sweep")
        return
    ratio = interp_ns / compiled_ns
    status = "ok" if ratio >= 3.0 else "REGRESSION"
    print(
        f"  pr10: substrates interp_x32 {interp_ns:.1f} ns vs compiled_x32 "
        f"{compiled_ns:.1f} ns — {ratio:.2f}x {status}"
    )
    if ratio < 3.0:
        failures.append(
            f"pr10: timed substrates engine ratio {ratio:.2f}x below the 3x bar"
        )


def check_substrates(fresh, base, wall_tol, failures):
    if fresh is None:
        failures.append("results/substrates.json missing — run the substrates bench first")
        return
    if base is None:
        failures.append("baseline substrates.json missing")
        return
    fresh_by_key = {(b["group"], b["name"]): b for b in fresh.get("benches", [])}
    missing = [k for b in base.get("benches", []) if (k := (b["group"], b["name"])) not in fresh_by_key]
    for group, name in missing:
        failures.append(f"substrates: benchmark {group}/{name} vanished from the sweep")
    covered = len(base.get("benches", [])) - len(missing)
    print(f"  substrates: coverage {covered}/{len(base.get('benches', []))} baseline benches present")
    if fresh.get("mode") != "timed" or base.get("mode") != "timed":
        print("  substrates: smoke run — wall-clock comparison skipped")
        return
    for b in base.get("benches", []):
        key = (b["group"], b["name"])
        ref_ns, got = b.get("ns_per_iter"), fresh_by_key.get(key)
        if ref_ns is None or got is None or got.get("ns_per_iter") is None:
            continue
        ceiling = ref_ns * (1.0 + wall_tol)
        if got["ns_per_iter"] > ceiling:
            failures.append(
                f"substrates: {key[0]}/{key[1]} slowed to {got['ns_per_iter']:.1f} ns/iter "
                f"(baseline {ref_ns:.1f}, ceiling {ceiling:.1f})"
            )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default=str(REPO / "scripts" / "bench_baselines"))
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="max allowed regression on virtual-time throughput (fraction)")
    ap.add_argument("--wall-tolerance", type=float, default=0.50,
                    help="max allowed slowdown on wall-clock microbenches (fraction)")
    args = ap.parse_args()
    baselines = Path(args.baseline_dir)

    failures = []
    print("check_bench: BENCH_PR5.json vs baseline")
    check_pr5(load(REPO / "BENCH_PR5.json"), load(baselines / "BENCH_PR5.json"),
              failures)
    print("check_bench: BENCH_PR6.json vs baseline")
    check_pr6(load(REPO / "BENCH_PR6.json"), load(baselines / "BENCH_PR6.json"),
              args.tolerance, failures)
    print("check_bench: BENCH_PR7.json vs baseline")
    check_pr7(load(REPO / "BENCH_PR7.json"), load(baselines / "BENCH_PR7.json"),
              args.tolerance, failures)
    print("check_bench: BENCH_PR8.json acceptance bars")
    check_pr8(load(REPO / "BENCH_PR8.json"), load(baselines / "BENCH_PR8.json"),
              failures)
    print("check_bench: BENCH_PR9.json acceptance bars")
    check_pr9(load(REPO / "BENCH_PR9.json"), failures)
    print("check_bench: BENCH_PR10.json acceptance bars")
    check_pr10(load(REPO / "BENCH_PR10.json"),
               load(REPO / "results" / "substrates.json"), failures)
    print("check_bench: results/substrates.json vs baseline")
    check_substrates(load(REPO / "results" / "substrates.json"),
                     load(baselines / "substrates.json"),
                     args.wall_tolerance, failures)

    if failures:
        print("\nFAIL:")
        for f in failures:
            print(f"  - {f}")
        sys.exit(1)
    print("\ncheck_bench: all gates passed")


if __name__ == "__main__":
    main()
