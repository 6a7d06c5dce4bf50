#!/usr/bin/env bash
# Run the fixed golden workload matrix with --record, appending one
# RunRecord per workload to <outdir>/<bench>.json. This is THE
# definition of the regression matrix: scripts/check.sh, the CI
# bench-regress job, and intentional baseline refreshes
# (`bash scripts/bench_record.sh results/golden`) must all agree on it,
# or `sc-report compare` reports coverage findings.
#
# Usage: bench_record.sh <outdir> [repeats]
#   repeats > 1 appends that many records per workload, giving
#   `sc-report compare` a median-of-N wall-clock and a determinism
#   check on the exact metrics.
#
# Parallelism (host-side only; records are byte-identical either way):
#   SC_BENCH_JOBS=N   forwarded to every bin as --jobs N (default auto:
#                     each bin shards its workload sweep across cores)
#   SC_BENCH_POOL=N   additionally run up to N bins concurrently
#                     (default 1). Safe because every bin appends to its
#                     own registry file; bin stdout already goes to
#                     /dev/null. Passes stay sequential so median-of-N
#                     repeats append in a stable order.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:?usage: bench_record.sh <outdir> [repeats]}"
REPEATS="${2:-1}"
JOBS="${SC_BENCH_JOBS:-auto}"
POOL="${SC_BENCH_POOL:-1}"
BIN=target/release
mkdir -p "$OUT"

# With a pool, bins run as background jobs; `wait -n` surfaces the
# first failure and `set -e` aborts the pass on it.
run_bin() {
  if [ "$POOL" -gt 1 ]; then
    "$@" >/dev/null &
    while [ "$(jobs -rp | wc -l)" -ge "$POOL" ]; do wait -n; done
  else
    "$@" >/dev/null
  fi
}

drain() {
  while [ "$(jobs -rp | wc -l)" -gt 0 ]; do wait -n; done
}

for i in $(seq "$REPEATS"); do
  echo "==> record pass $i/$REPEATS -> $OUT (jobs $JOBS, pool $POOL)"
  # Small fixed dataset slices keep the whole matrix near 10 s while
  # still exercising every modeled subsystem (GPM accel baselines, CPU
  # speedups, the three spmspm dataflows, TTV/TTM, the four ablations,
  # multi-core partitioning, and the dataset generators). FSM is skipped:
  # it alone costs ~2 minutes on mico.
  # --cost on every engine-driven bench: each record carries the
  # soundness replay gate's tally (checked / violations / tightness) in
  # its cost section, which `sc-report tightness` gates on below.
  run_bin "$BIN/fig07_accels" --datasets E --cost --host --jobs "$JOBS" \
    --record "$OUT/fig07_accels.json"
  run_bin "$BIN/fig08_cpu_speedup" --datasets C,E --skip-fsm --cost --host --jobs "$JOBS" \
    --record "$OUT/fig08_cpu_speedup.json"
  # The attribution/ablation-sweep figures: one small dataset each keeps
  # them cheap, but every one of the 12 bench bins now lands in the
  # registry, so `sc-report trend`'s per_bench coverage map is complete
  # and a bin silently dropping out of the matrix fails the compare.
  run_bin "$BIN/fig09_10_breakdown" --datasets C --cost --host --jobs "$JOBS" \
    --record "$OUT/fig09_10_breakdown.json"
  run_bin "$BIN/fig11_gpu" --datasets E --cost --host --jobs "$JOBS" \
    --record "$OUT/fig11_gpu.json"
  run_bin "$BIN/fig12_sus" --datasets E --cost --host --jobs "$JOBS" \
    --record "$OUT/fig12_sus.json"
  run_bin "$BIN/fig13_bandwidth" --datasets E --cost --host --jobs "$JOBS" \
    --record "$OUT/fig13_bandwidth.json"
  run_bin "$BIN/fig14_lengths" --datasets E --cost --host --jobs "$JOBS" \
    --record "$OUT/fig14_lengths.json"
  run_bin "$BIN/fig15_tensor" --matrices C,E --cost --host --jobs "$JOBS" \
    --record "$OUT/fig15_tensor.json"
  run_bin "$BIN/fig16_tensor_accels" --matrices C,E --cost --host --jobs "$JOBS" \
    --record "$OUT/fig16_tensor_accels.json"
  run_bin "$BIN/ablations" --datasets E --cost --host --jobs "$JOBS" \
    --record "$OUT/ablations.json"
  # Both scheduler modes plus the sharded tensor kernels, with the
  # invariant sanitizer on: the dynamic scheduler is deterministic by
  # construction, so its records exact-compare like everything else.
  run_bin "$BIN/multicore" --datasets E --sched both --chunk 8 --tensor --sanitize \
    --cost --host --jobs "$JOBS" --record "$OUT/multicore.json"
  run_bin "$BIN/datasets_report" --host --jobs "$JOBS" --record "$OUT/datasets_report.json"
  drain
done

"$BIN/sc-report" verify "$OUT"
# Cost gate: no workload's simulated cycles escaped its static bounds,
# and the worst upper/simulated ratio stays within budget. --require
# catches a silently dropped --cost flag above.
"$BIN/sc-report" tightness --registry "$OUT" --require
# Host gate: every bench ran with --host (at least one host section per
# registry) and peak RSS stays under the default ceiling. --require
# catches a silently dropped --host flag above.
"$BIN/sc-report" host --registry "$OUT" --require
