#!/usr/bin/env bash
# Repository health gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q (default members: the whole workspace)"
cargo test -q

echo "==> cargo test --manifest-path bench/Cargo.toml (bench/ builds on the crates' API)"
cargo test -q --manifest-path bench/Cargo.toml

echo "==> build the root package's binaries: scsim, sc-lint, sc-verify, sc-cost"
cargo build --release -q -p sparsecore-repro

echo "==> sc-lint --deny-warnings programs/*.sasm (shipped corpus lints clean)"
target/release/sc-lint --deny-warnings programs/*.sasm

echo "==> sc-verify programs/*.sasm (shipped corpus verifies clean)"
target/release/sc-verify programs/*.sasm

echo "==> sc-cost programs/*.sasm (shipped corpus has finite cycle bounds)"
target/release/sc-cost --require-bounded programs/*.sasm

echo "==> cost-bounds sidecar is fresh (results/cost_bounds.json)"
cargo test -q --test cost_bounds

echo "==> sc-report verify results/golden"
cargo build --release -q -p sc-bench -p sc-report
target/release/sc-report verify results/golden

echo "==> usage errors: every binary refuses an unknown flag with exit 2"
cargo build --release -q -p sc-probe --bin probe-check
# Run "$@ --no-such-flag"; require exit 2 and the flag named on stderr.
refuses_unknown_flag() {
  local status=0 err
  err="$("$@" --no-such-flag 2>&1 >/dev/null)" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q -- "--no-such-flag" <<<"$err"; then
    echo "$* --no-such-flag: exit $status, stderr: $err" >&2
    exit 1
  fi
}
for bin in ablations datasets_report fig07_accels fig08_cpu_speedup fig09_10_breakdown \
  fig11_gpu fig12_sus fig13_bandwidth fig14_lengths fig15_tensor fig16_tensor_accels \
  multicore probe-check sc-lint sc-verify sc-cost; do
  refuses_unknown_flag "target/release/$bin"
done
for sub in verify compare scoreboard tightness trend host explain html; do
  refuses_unknown_flag target/release/sc-report "$sub"
done
for sub in mine app spmspm datasets; do
  refuses_unknown_flag target/release/scsim "$sub"
done

echo "==> regenerate the golden matrix and gate on regressions"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# bench_record.sh runs the matrix with --cost and ends with the
# soundness/tightness gate over the freshly recorded registry.
bash scripts/bench_record.sh "$tmp" 1
target/release/sc-report compare --baseline results/golden --candidate "$tmp"

echo "==> the committed results/runs registry matches the golden matrix"
target/release/sc-report compare --baseline results/golden --candidate results/runs

echo "==> jobs-determinism smoke: --jobs 4 must exact-match --jobs 1"
# One sweep-shaped bin at both pool widths; `sc-report compare` gates
# the exact metrics (cycles, checksums, attribution), so any
# nondeterminism the parallel sweep introduced fails here. Wall-clock
# drift between the two runs only warns, by design.
j1="$tmp/jobs1" j4="$tmp/jobs4"
mkdir -p "$j1" "$j4"
target/release/fig09_10_breakdown --datasets C --cost --host --jobs 1 \
  --record "$j1/fig09_10_breakdown.json" >/dev/null
target/release/fig09_10_breakdown --datasets C --cost --host --jobs 4 \
  --record "$j4/fig09_10_breakdown.json" >/dev/null
target/release/sc-report compare --baseline "$j1" --candidate "$j4" >/dev/null

echo "==> explain smoke: spans, critical path, attribution diff, dashboard"
smoke="$tmp/smoke"
mkdir -p "$smoke"
target/release/fig09_10_breakdown --datasets C \
  --spans "$smoke/fig09.spans.json" --explain "$smoke/fig09.explain.txt" >/dev/null
grep -q "critical path:" "$smoke/fig09.explain.txt"
target/release/sc-report explain \
  --baseline results/golden --candidate "$tmp" >/dev/null
target/release/sc-report html --registry "$tmp" \
  --spans "$smoke/fig09.spans.json" \
  --reference results/paper_reference.json \
  --out "$smoke/dashboard.html"
test -s "$smoke/dashboard.html"

echo "==> host-perf smoke: budget gates and deliberate violation"
# bench_record.sh already enforced `host --require` on the fresh run;
# here the wall budget is additionally gated against the committed
# goldens, and a deliberately impossible RSS ceiling must be *caught*
# (any process's peak RSS exceeds 1 kB, deterministically).
target/release/sc-report host --registry "$tmp" \
  --baseline results/golden --require >/dev/null
if target/release/sc-report host --registry "$tmp" --max-rss-kb 1 >/dev/null 2>&1; then
  echo "host gate failed to trip on an impossible RSS ceiling" >&2
  exit 1
fi

echo "==> cost gate on the committed goldens"
target/release/sc-report tightness --registry results/golden --require

echo "==> paper-fidelity scoreboard gate"
target/release/sc-report scoreboard --registry results/golden \
  --reference results/paper_reference.json --gate

echo "All checks passed."
