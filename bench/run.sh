#!/usr/bin/env bash
# Build the repository's release bins and this benchmark, then run it.
#
# Usage: bench/run.sh [--workload gpm|dse|tensor|figures] [--seed S]
#                     [--seconds N] [--trace 0|1]
#
# Without --workload every workload runs, each in its own process. The
# builds go to $CARGO_TARGET_DIR when it is set (else target/ and
# bench/target/) and are not timed. Every metric prints as
# `name value unit`; the last line of stdout is the JSON result, and
# bench/out/results.json keeps each metric's median, quartiles, n and raw
# samples.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
  echo "bench/run.sh: $PWD holds no workspace to build; run it in a full checkout" >&2
  exit 2
fi

# Never search above the checkout for a git repository.
GIT_CEILING_DIRECTORIES="$(dirname "$PWD")"
export GIT_CEILING_DIRECTORIES
BENCH_GIT_SHA="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
export BENCH_GIT_SHA

cargo build --release --offline --locked -q --manifest-path Cargo.toml -p sc-bench -p sc-report >&2
cargo build --release --offline --locked -q --manifest-path bench/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-bench/target}/release/sc-perfbench" \
  --bins "${CARGO_TARGET_DIR:-target}/release" "$@"
