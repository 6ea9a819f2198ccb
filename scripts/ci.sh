#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml. Run from anywhere; no network
# needed (the workspace is hermetic — all dependencies are in-tree).
#
#   scripts/ci.sh                 # every job, sequentially
#   scripts/ci.sh --job lint      # one job: lint | build-test |
#                                 #   release-test | telemetry-test |
#                                 #   recovery-test | trace-pipeline |
#                                 #   overlay-diff | miri |
#                                 #   normanbench-smoke | results |
#                                 #   bench-smoke | all
set -euo pipefail
cd "$(dirname "$0")/.."

job="all"
if [[ "${1:-}" == "--job" ]]; then
  job="${2:?usage: ci.sh [--job lint|build-test|release-test|telemetry-test|recovery-test|trace-pipeline|overlay-diff|miri|normanbench-smoke|results|bench-smoke|all]}"
elif [[ -n "${1:-}" ]]; then
  echo "usage: ci.sh [--job lint|build-test|release-test|telemetry-test|recovery-test|trace-pipeline|overlay-diff|miri|normanbench-smoke|results|bench-smoke|all]" >&2
  exit 2
fi

run_lint() {
  echo "==> cargo fmt --check"
  cargo fmt --check

  echo "==> cargo clippy --all-targets -- -D warnings"
  cargo clippy --all-targets -- -D warnings

  echo "==> cargo doc --no-deps (warnings are errors)"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

  if command -v shellcheck >/dev/null 2>&1; then
    echo "==> shellcheck scripts/*.sh"
    shellcheck scripts/*.sh
  else
    echo "==> shellcheck not installed; skipping (CI runs it)"
  fi
}

run_build_test() {
  echo "==> cargo build --release"
  cargo build --release

  echo "==> cargo test -q"
  cargo test -q
}

run_release_test() {
  # normanbench times a release build and tier-1 tests a debug one. The
  # dataplane crates' suites again under the profile the benchmark runs:
  # overflow checks and debug_assert! are compiled out there, and
  # anything debug-only must be gated (parse_once.rs is). pkt is here for
  # its checksum property tests: carry- and overflow-sensitive code, and
  # in release they corrupt every byte offset, not every 13th.
  echo "==> cargo test --release -q (dataplane crates + integration)"
  cargo test --release -q -p pkt -p memsim -p qdisc -p nicsim -p norman -p integration
}

run_telemetry_test() {
  echo "==> cargo test -q (lifecycle tracing enabled)"
  # The whole suite again with every Host tracing from construction:
  # telemetry must never change behaviour, only observe it.
  NORMAN_TELEMETRY=1 cargo test -q
}

run_recovery_test() {
  echo "==> recovery suite (NIC crash, shard panic, degradation, watchdog)"
  cargo test -q --test recovery

  echo "==> recovery suite again with lifecycle tracing enabled"
  NORMAN_TELEMETRY=1 cargo test -q --test recovery
}

run_trace_pipeline() {
  echo "==> durable event-series format suite (round-trip, damage, sort)"
  cargo test -q --test trace_file

  echo "==> flow-tracking suite (GC bounds, attribution, conservation)"
  cargo test -q --test flow_tracking

  echo "==> record + report a smoke chaos run; drop conservation vs audit"
  # exp_pr8_trace records the seeded sweep under `ktrace collect`, then
  # rebuilds the forensics offline and asserts drop conservation against
  # the host's own ledger and audit — a failed cross-check aborts it.
  BENCH_SMOKE=1 cargo run --release -p bench --bin exp_pr8_trace
}

run_overlay_diff() {
  echo "==> compiled-vs-interpreter differential fuzz (seeded)"
  # Random verified programs x random packet streams, both engines in
  # lockstep: verdicts, register files, map/flow/counter state, and
  # fault tallies must be bit-identical. Seeded, so a divergence is a
  # reproducible counterexample, not a flake.
  (cd tests && cargo test -q --test overlay_diff)

  echo "==> differential fuzz again with lifecycle tracing enabled"
  (cd tests && NORMAN_TELEMETRY=1 cargo test -q --test overlay_diff)

  echo "==> commit-time compile gate suite (rejection, rollback, reconcile)"
  (cd tests && cargo test -q --test ctrl_commit)
}

run_miri() {
  # Undefined-behaviour audit of the unsafe core: the pkt buffer arena
  # (raw slab pointers, refcounted recycling, the seeded slot model) and
  # the memsim ring/cache walks that consume its handles. Requires the
  # nightly toolchain with the miri component (rustup component add
  # miri --toolchain nightly); hosted CI installs it, local runs
  # without it skip with a warning so the gate stays runnable offline.
  if cargo +nightly miri --version >/dev/null 2>&1; then
    echo "==> cargo +nightly miri test -p pkt -p memsim"
    MIRIFLAGS="-Zmiri-strict-provenance" cargo +nightly miri test -p pkt -p memsim
  else
    echo "==> miri unavailable (nightly toolchain with miri component not installed); skipping"
    echo "    hosted CI runs this job; install locally with:"
    echo "    rustup toolchain install nightly --component miri"
  fi
}

run_normanbench_smoke() {
  # normanbench (BENCHMARK.json) is a package of its own outside the
  # workspace. Its tests push all four workloads through smoke mode,
  # twice and on a second seed, and each run fails itself unless the
  # audit is clean, TX is conserved and the traced pass's simulated
  # metrics equal the untraced pass's. Its own job, so a dataplane
  # change is gated on it whatever the wall-clock guard below says.
  echo "==> normanbench smoke (all four workloads, traced == untraced vns)"
  cargo test --manifest-path benchmark/Cargo.toml

  # Virtual time is bit-identical across refactors, as a gate: the five
  # sim_* values of four workloads x two seeds at smoke length must equal
  # scripts/normanbench_smoke_vns.json exactly (no tolerance; a model
  # change regenerates the table with --write and says so).
  echo "==> normanbench smoke vns == committed table (40 values, exact)"
  python3 scripts/check_smoke_vns.py
}

run_results() {
  # Virtual time has one committed copy and one gate: rerun every
  # experiment and require `results/` to come out byte-identical. The
  # simulator is fully seeded and the documents hold deterministic
  # fields only, so there is no tolerance and no per-experiment check —
  # a number that moves shows up as a diff, and is either a bug or gets
  # committed on purpose with the reason (docs/CI.md). exp_pr8_trace is
  # wall clock (bench-smoke). Only exp_pr7_scale reads BENCH_SMOKE: its
  # full sweep takes minutes, so CI reruns its smoke document.
  for src in crates/bench/src/bin/exp_*.rs; do
    bin="$(basename "$src" .rs)"
    [[ "$bin" == exp_pr8_trace ]] && continue
    echo "==> $bin"
    BENCH_SMOKE=1 cargo run --release -q -p bench --bin "$bin"
  done

  echo "==> results/ == the committed table (exact)"
  if [[ -n "$(git status --porcelain results/)" ]]; then
    git status --porcelain results/
    git --no-pager diff results/
    echo "results/ moved: a virtual-time number changed (or a new document is uncommitted)" >&2
    exit 1
  fi
}

run_bench_smoke() {
  # What is left of the per-PR apparatus: the PR 8 collect-to-disk
  # ratio, red on most runs since PR 15 (ROADMAP, first item). It has a
  # job to itself so it shares one with nothing green.
  echo "==> trace-pipeline overhead + forensics bench (smoke)"
  BENCH_SMOKE=1 cargo run --release -p bench --bin exp_pr8_trace

  echo "==> BENCH_PR8.json acceptance bars"
  python3 scripts/check_bench.py
}

case "$job" in
  lint) run_lint ;;
  build-test) run_build_test ;;
  release-test) run_release_test ;;
  telemetry-test) run_telemetry_test ;;
  recovery-test) run_recovery_test ;;
  trace-pipeline) run_trace_pipeline ;;
  overlay-diff) run_overlay_diff ;;
  miri) run_miri ;;
  normanbench-smoke) run_normanbench_smoke ;;
  results) run_results ;;
  bench-smoke) run_bench_smoke ;;
  all)
    run_lint
    run_build_test
    run_release_test
    run_telemetry_test
    run_recovery_test
    run_trace_pipeline
    run_overlay_diff
    run_miri
    run_normanbench_smoke
    run_results
    run_bench_smoke
    ;;
  *)
    echo "unknown job: $job (want lint, build-test, release-test, telemetry-test, recovery-test, trace-pipeline, overlay-diff, miri, normanbench-smoke, results, bench-smoke, or all)" >&2
    exit 2
    ;;
esac

echo "CI gate passed ($job)."
