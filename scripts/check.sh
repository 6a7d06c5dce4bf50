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

echo "==> sc-lint --deny-warnings programs/*.sasm (shipped corpus lints clean)"
cargo build --release -q -p sc-lint
target/release/sc-lint --deny-warnings programs/*.sasm

echo "==> sc-verify programs/*.sasm (shipped corpus verifies clean)"
cargo build --release -q -p sc-verify
target/release/sc-verify programs/*.sasm

echo "==> sc-cost programs/*.sasm (shipped corpus has finite cycle bounds)"
cargo build --release -q -p sc-cost
target/release/sc-cost --require-bounded programs/*.sasm

echo "==> cost-bounds sidecar is fresh (results/cost_bounds.json)"
cargo test -q --test cost_bounds

echo "==> sc-report verify results/golden"
cargo build --release -q -p sc-bench -p sc-report
target/release/sc-report verify results/golden

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
