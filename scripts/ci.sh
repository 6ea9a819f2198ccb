#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml. Run from anywhere; no network
# needed (the workspace is hermetic — all dependencies are in-tree).
#
#   scripts/ci.sh                 # every job, sequentially
#   scripts/ci.sh --job lint      # one job (`jobs` below, or all)
set -euo pipefail
cd "$(dirname "$0")/.."

# The jobs, in the order `all` runs them; job `x-y` runs `run_x_y`.
jobs=(lint build-test release-test telemetry-test recovery-test trace-pipeline
  overlay-diff miri normanbench-smoke results bench-smoke)
usage="usage: ci.sh [--job $(IFS='|'; echo "${jobs[*]}")|all]"

job="all"
if [[ "${1:-}" == "--job" ]]; then
  job="${2:?$usage}"
elif [[ -n "${1:-}" ]]; then
  echo "$usage" >&2
  exit 2
fi

run_lint() {
  echo "==> cargo fmt --check"
  cargo fmt --check

  echo "==> cargo clippy --all-targets -- -D warnings"
  cargo clippy --all-targets -- -D warnings

  echo "==> cargo doc --no-deps (warnings are errors)"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

  # `dead_code` cannot see an item under `#[cfg(test)]`: outside a
  # `mod tests` such an item is code that only its own tests call. The
  # count may only fall; delete the code instead of gating it. Lower the
  # ceiling when a change removes some.
  local ceiling=55 sites count
  sites="$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { gated = 0 }
    gated { if ($0 !~ /^[[:space:]]*mod tests/) print FILENAME ":" FNR ": " $0; gated = 0 }
    /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { gated = 1 }' {} + | sort)"
  count="$(grep -c . <<<"$sites" || true)"
  echo "==> #[cfg(test)] items outside mod tests: $count (ceiling $ceiling)"
  if (( count > ceiling )); then
    echo "$sites" >&2
    echo "test-gated items rose above $ceiling: delete code that only tests call" >&2
    exit 1
  fi

  # Diagnostics are types: an audit returns `sim::Violation`s and a
  # commit failure names a `ctrl::Step`. No `-> Vec<String>`, no
  # `Result<_, String>`, no `step: String` above `mod tests` in the
  # dataplane crates.
  echo "==> no string diagnostics in memsim, nicsim, norman"
  local strings
  strings="$(find crates/memsim/src crates/nicsim/src crates/norman/src -name '*.rs' \
    ! -name '*_model.rs' -exec awk '
    /^mod tests \{/ { nextfile }
    /-> Vec<String>|Result<.*, String>|step: String/ { print FILENAME ":" FNR ": " $0 }' {} + | sort)"
  if [[ -n "$strings" ]]; then
    echo "$strings" >&2
    echo "diagnostics as strings: return sim::Violation or a typed error instead" >&2
    exit 1
  fi

  # `unsafe` lives in pkt (the arena core, which the miri job audits)
  # and bench (m7's CPU-clock read); every other crate root forbids it,
  # so any build refuses a new `unsafe` block there.
  echo "==> #![forbid(unsafe_code)] in every crate root but pkt and bench"
  local root missing=()
  for root in crates/*/src/lib.rs; do
    case "$root" in crates/pkt/* | crates/bench/*) continue ;; esac
    grep -qxF '#![forbid(unsafe_code)]' "$root" || missing+=("$root")
  done
  if (( ${#missing[@]} )); then
    printf '%s\n' "${missing[@]}" >&2
    echo "crate roots above lack #![forbid(unsafe_code)]" >&2
    exit 1
  fi

  # The same rule for `pub fn`s: one that nothing outside tests names
  # either gains a caller or goes (docs/CI.md lists the few kept).
  echo "==> pub fns only tests call"
  python3 scripts/check_test_only_fns.py

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
  # in release they corrupt every byte offset, not every 13th. telemetry
  # is here for its seeded ring model: the trace ring's wrapping cursor
  # and epoch queue run in the build whose speed is measured.
  echo "==> cargo test --release -q (dataplane crates + integration)"
  cargo test --release -q -p pkt -p memsim -p qdisc -p nicsim -p telemetry -p norman -p integration
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
  # `exp m7` records the seeded sweep under `ktrace collect`, then
  # rebuilds the forensics offline and claims drop conservation against
  # the host's own ledger and audit — a failed claim fails the run.
  cargo run --release -q -p bench --bin exp -- m7 --smoke
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

  echo "==> assembler fuzz: 100k mutated sources, no panic, lockstep engines (seeded)"
  # Tier-1 runs a few thousand of these; the ignored test is the long run.
  (cd tests && cargo test -q --test fuzz_asm -- --ignored)

  echo "==> commit-time compile gate suite (rejection, rollback, reconcile)"
  (cd tests && cargo test -q --test ctrl_commit)
}

run_miri() {
  # Undefined-behaviour audit of the unsafe core: the pkt buffer arena
  # (raw slab pointers, refcounted recycling, the seeded slot model) and
  # the memsim ring/cache index walks (safe code: memsim forbids
  # `unsafe`, so there they are held to bounds checks). Requires the
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

  # What BENCHMARK.json runs: the release binary must still build
  # against the workspace crates it links.
  echo "==> cargo build --release (normanbench)"
  cargo build --release --manifest-path benchmark/Cargo.toml

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
  # fields only, so there is no tolerance — a number that moves shows up
  # as a diff, and is either a bug or gets committed on purpose with the
  # reason (docs/CI.md). Every claim must pass too. `--all` skips M7
  # (wall clock, bench-smoke); `--smoke` reruns M6's smoke document, as
  # its full sweep takes minutes.
  echo "==> exp --all --smoke"
  cargo run --release -q -p bench --bin exp -- --all --smoke

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
  cargo run --release -q -p bench --bin exp -- m7 --smoke

  echo "==> BENCH_PR8.json acceptance bars"
  python3 scripts/check_bench.py
}

if [[ "$job" == all ]]; then
  for j in "${jobs[@]}"; do
    "run_${j//-/_}"
  done
elif [[ " ${jobs[*]} " == *" $job "* ]]; then
  "run_${job//-/_}"
else
  echo "unknown job: $job (want one of: ${jobs[*]} all)" >&2
  exit 2
fi

echo "CI gate passed ($job)."
