//! Cost-model-driven adaptive spmspm: choose the dataflow per row block.
//!
//! The three fixed dataflows of [`crate::spmspm`] each dominate on a
//! different structure: inner product amortizes its per-stream setup
//! when rows are long and reuses `B`'s columns across rows; Gustavson
//! only touches the `B` rows a sparse `A` row names; outer product pays
//! one `B`-row setup per *distinct* column instead of one per nonzero.
//! Real matrices mix these regimes row by row, so a single global
//! choice leaves cycles on the table.
//!
//! [`adaptive`] partitions `C`'s rows into fixed-size blocks and picks
//! the dataflow per block from **static cost estimates**: the same
//! `SparseCoreConfig`-derived parameterization `sc-cost` uses
//! ([`sc_cost::CostParams`] — setup latency, scratchpad latency, supply
//! rates, value-load throughput) applied to the nnz/stream-length
//! bounds of the block (row lengths of `A`, the `B` rows/columns they
//! name, and the output-length bound `min(cols, Σ nnz(B_k))`). No
//! execution feedback is used — the choice is made before the block
//! runs, from exactly the information a compiler would have.
//!
//! [`adaptive_oracle`] bounds the chooser's regret: it *measures* each
//! block under all three dataflows on fresh throwaway backends, picks
//! the empirical winner, and replays it on the main backend. The gap
//! between the adaptive and oracle cycle counts is the price of
//! choosing statically.

use crate::backend::TensorBackend;
use crate::spmspm::{gustavson_rows, inner_rows, outer_cols, product, Rows, SpmspmResult};
use sc_cost::CostParams;
use sc_tensor::{CscMatrix, CsrMatrix};
use sparsecore::SparseCoreConfig;
use std::cell::OnceCell;

/// One of the three spmspm loop orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataflow {
    /// `C[i][j] = dot(A_row_i, B_col_j)` — (m, n, k).
    Inner,
    /// `C += A_col_k ⊗ B_row_k` restricted to the block's rows — (k, m, n).
    Outer,
    /// `C_row_i = Σ_k a_ik * B_row_k` — (m, k, n).
    Gustavson,
}

impl Dataflow {
    /// All three, in estimate-array order.
    pub const ALL: [Dataflow; 3] = [Dataflow::Inner, Dataflow::Outer, Dataflow::Gustavson];

    /// Display tag (also the fig15/fig16 series name component).
    pub fn tag(&self) -> &'static str {
        match self {
            Dataflow::Inner => "inner",
            Dataflow::Outer => "outer",
            Dataflow::Gustavson => "gustavson",
        }
    }
}

/// The chooser's verdict for one row block.
#[derive(Debug, Clone)]
pub struct BlockChoice {
    /// Half-open output-row range `[lo, hi)`.
    pub rows: (usize, usize),
    /// The dataflow picked for this block.
    pub dataflow: Dataflow,
    /// Static cycle estimates `[inner, outer, gustavson]` the pick was
    /// made from (oracle mode: measured cycles instead).
    pub estimates: [f64; 3],
}

/// Options for [`adaptive`] / [`adaptive_oracle`].
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveOptions {
    /// Rows of `C` per block (chooser granularity). Default 8.
    pub block_rows: usize,
    /// Simulate only every `k`-th block and scale the cycle count.
    /// `None` simulates every block. Rows are independent in the
    /// product, not in the caches they warm, so the estimate is not
    /// unbiased: ROADMAP item 1 lists the measured sampling errors.
    pub block_sample: Option<usize>,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions { block_rows: 8, block_sample: None }
    }
}

/// An adaptive spmspm run: the product plus the per-block plan.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// The product and cycle count, as for the fixed dataflows.
    pub result: SpmspmResult,
    /// One entry per simulated block.
    pub plan: Vec<BlockChoice>,
}

impl AdaptiveResult {
    /// How many simulated blocks picked each dataflow
    /// (`[inner, outer, gustavson]`).
    pub fn chosen_counts(&self) -> [usize; 3] {
        let mut c = [0usize; 3];
        for b in &self.plan {
            c[b.dataflow as usize] += 1;
        }
        c
    }
}

/// The hardware-derived constants the block estimates are built from —
/// one derivation shared with `sc-cost` so the chooser and the bound
/// analyzer agree on what a stream setup or a merged element costs.
#[derive(Debug, Clone, Copy)]
struct Costs {
    /// Cold stream setup (worst warmup walk).
    cold: f64,
    /// Warm re-load of a stream the kernel just touched (scratchpad).
    hot: f64,
    /// Per key element streamed through an SU.
    key: f64,
    /// Per value element through the value-load path.
    val: f64,
}

impl Costs {
    fn for_config(cfg: &SparseCoreConfig) -> Costs {
        let p = CostParams::for_config(cfg);
        Costs {
            cold: p.warmup_max as f64,
            hot: p.scratchpad_latency.max(1) as f64,
            key: 1.0 / p.supply_rate_floor(),
            val: (p.load_full as f64 / p.load_queue.max(1) as f64).max(1.0),
        }
    }
}

/// Static cycle estimates `[inner, outer, gustavson]` for computing
/// `C`'s rows `lo..hi` of `A*B`. Pure arithmetic over nnz counts and
/// the derived [`Costs`] — no simulation.
pub fn estimate_block(
    a: &CsrMatrix,
    b: &CsrMatrix,
    b_col_nnz: &[usize],
    cfg: &SparseCoreConfig,
    lo: usize,
    hi: usize,
) -> [f64; 3] {
    let c = Costs::for_config(cfg);
    let ncols = b.cols() as f64;
    let nnz_b_total: usize = b_col_nnz.iter().sum();
    let rows = (hi - lo) as f64;

    let mut inner = rows * c.cold + ncols * (c.cold + (rows - 1.0).max(0.0) * c.hot);
    let (mut outer, mut gus) = (0.0f64, 0.0f64);
    let mut union: Vec<u32> = Vec::new();
    for i in lo..hi {
        let nnz_a = a.row_nnz(i);
        if nnz_a == 0 {
            continue;
        }
        let cols_i = a.row_indices(i);
        union.extend_from_slice(cols_i);
        // Merge volume: every named B row is streamed through one
        // S_VMERGE; the accumulator is re-streamed per merge and grows
        // toward the output-length bound.
        let vol_b: usize = cols_i.iter().map(|&k| b.row_nnz(k as usize)).sum();
        let c_len = (vol_b as f64).min(ncols);
        let acc_vol = nnz_a as f64 * c_len / 2.0;
        let merge_elems = vol_b as f64 + acc_vol;

        // Inner: A's row streams against every column of B; matches pay
        // the value path. Column setups are charged once per block above.
        let compares = ncols * nnz_a as f64 + nnz_b_total as f64;
        let matches = (nnz_a as f64 * ncols).min(nnz_b_total as f64);
        inner += c.key * compares + c.val * matches;

        // Gustavson: one cold B-row setup per nonzero of A's row, plus
        // the (hot) accumulator reload per merge.
        gus += nnz_a as f64 * (c.cold + 2.0 * c.hot) + (c.key + c.val) * merge_elems;

        // Outer: the same merge volume, but each distinct column's B row
        // is set up once for the whole block (accounted below).
        outer += 2.0 * nnz_a as f64 * c.hot + (c.key + c.val) * merge_elems;
    }
    union.sort_unstable();
    union.dedup();
    let active = union.iter().filter(|&&k| b.row_nnz(k as usize) > 0).count() as f64;
    // Outer also walks every column of A looking for block-local entries.
    outer += active * c.cold + a.cols() as f64;
    [inner, outer, gus]
}

/// The operands of one adaptive run, and `A` in CSC form, built the
/// first time a block runs the outer product.
struct Operands<'m> {
    a: &'m CsrMatrix,
    b: &'m CsrMatrix,
    bcsc: CscMatrix,
    a_csc: OnceCell<CscMatrix>,
}

impl<'m> Operands<'m> {
    fn new(a: &'m CsrMatrix, b: &'m CsrMatrix) -> Self {
        assert_eq!(a.cols(), b.rows(), "shape mismatch");
        Operands { a, b, bcsc: b.to_csc(), a_csc: OnceCell::new() }
    }

    /// Compute `C`'s rows `lo..hi` under `dataflow` on `backend`.
    fn run<B: TensorBackend>(
        &self,
        dataflow: Dataflow,
        backend: &mut B,
        lo: usize,
        hi: usize,
    ) -> Rows {
        let (a, b) = (self.a, self.b);
        match dataflow {
            Dataflow::Inner => inner_rows(a, &self.bcsc, backend, lo..hi),
            Dataflow::Outer => {
                let a_csc = self.a_csc.get_or_init(|| a.to_csc());
                outer_cols(a_csc, b, backend, 0..a.cols(), lo..hi)
            }
            Dataflow::Gustavson => gustavson_rows(a, b, backend, lo..hi),
        }
    }

    /// Run every `opts.block_sample`-th block of `opts.block_rows` rows
    /// under the dataflow with the lowest of `choose(lo, hi)`'s three
    /// cycle figures, and scale the cycles by the block stride.
    fn run_blocks<B: TensorBackend>(
        &self,
        backend: &mut B,
        opts: AdaptiveOptions,
        mut choose: impl FnMut(usize, usize) -> [f64; 3],
    ) -> AdaptiveResult {
        let m = self.a.rows();
        let block = opts.block_rows.max(1);
        let stride = opts.block_sample.unwrap_or(1).max(1);
        let mut plan = Vec::new();
        let mut rows = Vec::new();
        for lo in (0..m).step_by(block).step_by(stride) {
            let hi = (lo + block).min(m);
            let estimates = choose(lo, hi);
            let dataflow = Dataflow::ALL[argmin(&estimates)];
            rows.extend(self.run(dataflow, backend, lo, hi));
            plan.push(BlockChoice { rows: (lo, hi), dataflow, estimates });
        }
        let cycles = backend.finish() * stride as u64;
        let c = product(m, self.b.cols(), &rows);
        AdaptiveResult { result: SpmspmResult { c, cycles, rows_simulated: rows.len() }, plan }
    }
}

/// Adaptive spmspm `C = A*B`: pick the dataflow per row block from the
/// static cost estimates of [`estimate_block`], then execute each block
/// with its chosen dataflow on `backend`.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn adaptive<B: TensorBackend>(
    a: &CsrMatrix,
    b: &CsrMatrix,
    backend: &mut B,
    cfg: &SparseCoreConfig,
    opts: AdaptiveOptions,
) -> AdaptiveResult {
    let ops = Operands::new(a, b);
    let b_col_nnz: Vec<usize> = (0..ops.bcsc.cols()).map(|j| ops.bcsc.col_nnz(j)).collect();
    ops.run_blocks(backend, opts, |lo, hi| estimate_block(a, b, &b_col_nnz, cfg, lo, hi))
}

/// Oracle spmspm: *measure* every block under all three dataflows on
/// fresh backends from `fresh`, pick the empirical winner per block,
/// and replay it on `backend`. The resulting cycle count is the lower
/// envelope of the three dataflows at block granularity; the gap to
/// [`adaptive`] bounds what the static chooser leaves on the table.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn adaptive_oracle<B: TensorBackend>(
    a: &CsrMatrix,
    b: &CsrMatrix,
    backend: &mut B,
    mut fresh: impl FnMut() -> B,
    opts: AdaptiveOptions,
) -> AdaptiveResult {
    let ops = Operands::new(a, b);
    // Each measurement runs on its own backend and keeps no rows, so the
    // replay on `backend` starts from empty accumulators.
    let measure = |lo, hi| {
        Dataflow::ALL.map(|df| {
            let mut probe_backend = fresh();
            ops.run(df, &mut probe_backend, lo, hi);
            probe_backend.finish() as f64
        })
    };
    ops.run_blocks(backend, opts, measure)
}

fn argmin(xs: &[f64; 3]) -> usize {
    let mut best = 0;
    for i in 1..3 {
        if xs[i] < xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ScalarTensorBackend, StreamTensorBackend};
    use sc_tensor::dense::{dense_close, matmul_reference};
    use sc_tensor::generators::random_matrix;

    #[test]
    fn adaptive_product_is_correct_both_backends() {
        let a = random_matrix(20, 16, 80, 21);
        let b = random_matrix(16, 18, 70, 22);
        let expected = matmul_reference(&a, &b);
        let cfg = SparseCoreConfig::paper();
        for opts in [
            AdaptiveOptions::default(),
            AdaptiveOptions { block_rows: 3, block_sample: None },
            AdaptiveOptions { block_rows: 64, block_sample: None },
        ] {
            let r1 = adaptive(&a, &b, &mut ScalarTensorBackend::new(), &cfg, opts);
            assert!(dense_close(&r1.result.c.to_dense(), &expected, 1e-9));
            let r2 = adaptive(&a, &b, &mut StreamTensorBackend::new(), &cfg, opts);
            assert!(dense_close(&r2.result.c.to_dense(), &expected, 1e-9));
            assert!(r2.result.cycles > 0);
            assert_eq!(r2.plan.len(), r1.plan.len());
        }
    }

    #[test]
    fn oracle_product_is_correct_and_plan_covers_rows() {
        let a = random_matrix(12, 10, 50, 23);
        let b = random_matrix(10, 12, 45, 24);
        let expected = matmul_reference(&a, &b);
        let opts = AdaptiveOptions { block_rows: 4, block_sample: None };
        let r = adaptive_oracle(
            &a,
            &b,
            &mut ScalarTensorBackend::new(),
            ScalarTensorBackend::new,
            opts,
        );
        assert!(dense_close(&r.result.c.to_dense(), &expected, 1e-9));
        assert_eq!(r.plan.len(), 3);
        assert_eq!(r.plan.iter().map(|b| b.rows.1 - b.rows.0).sum::<usize>(), 12);
    }

    /// Half the rows dense (inner-friendly: long rows amortizing the
    /// per-column setups), half with a single nonzero each
    /// (Gustavson-friendly: only the named B row is touched). Blocks
    /// aligned to the halves so a per-block chooser can split the
    /// difference.
    fn skewed(m: usize, n: usize) -> (CsrMatrix, CsrMatrix) {
        let mut t = Vec::new();
        let half = m / 2;
        for i in 0..half {
            for j in (0..n).step_by(2) {
                t.push((i as u32, j as u32, 1.0 + (i + j) as f64 * 0.01));
            }
        }
        for i in half..m {
            t.push((i as u32, ((i * 7) % n) as u32, 2.0));
        }
        let a = CsrMatrix::from_triplets(m, n, &t);
        let b = random_matrix(n, n, n * n / 4, 99);
        (a, b)
    }

    /// The ISSUE's acceptance bar: on a skewed workload the adaptive
    /// chooser must never lose to the worst fixed dataflow and must beat
    /// the best fixed dataflow, with the oracle bounding its regret.
    #[test]
    fn adaptive_beats_fixed_dataflows_on_skewed_workload() {
        use crate::backend::StreamTensorBackend;
        use crate::spmspm::{gustavson, inner_product, outer_product, InnerOptions};

        let (a, b) = skewed(32, 32);
        let expected = matmul_reference(&a, &b);
        let cfg = SparseCoreConfig::paper();
        let bcsc = b.to_csc();
        let acsc = a.to_csc();
        let fixed = [
            inner_product(&a, &bcsc, &mut StreamTensorBackend::new(), InnerOptions::default())
                .cycles,
            outer_product(&acsc, &b, &mut StreamTensorBackend::new()).cycles,
            gustavson(&a, &b, &mut StreamTensorBackend::new()).cycles,
        ];
        let opts = AdaptiveOptions { block_rows: 16, block_sample: None };
        let ad = adaptive(&a, &b, &mut StreamTensorBackend::new(), &cfg, opts);
        assert!(dense_close(&ad.result.c.to_dense(), &expected, 1e-9));

        let worst = *fixed.iter().max().unwrap();
        let best = *fixed.iter().min().unwrap();
        assert!(
            ad.result.cycles <= worst,
            "adaptive {} lost to worst fixed {worst} (fixed: {fixed:?})",
            ad.result.cycles
        );
        assert!(
            ad.result.cycles < best,
            "adaptive {} did not beat best fixed {best} (fixed: {fixed:?})",
            ad.result.cycles
        );
        // The win must come from actually mixing dataflows.
        let counts = ad.chosen_counts();
        assert!(
            counts.iter().filter(|&&c| c > 0).count() >= 2,
            "plan did not mix dataflows: {counts:?}"
        );

        // The oracle (measured per-block winners) bounds the chooser's
        // regret; the static pick should be at the empirical optimum here.
        let or = adaptive_oracle(
            &a,
            &b,
            &mut StreamTensorBackend::new(),
            StreamTensorBackend::new,
            opts,
        );
        assert!(dense_close(&or.result.c.to_dense(), &expected, 1e-9));
        assert!(
            or.result.cycles <= ad.result.cycles,
            "oracle {} above adaptive {}",
            or.result.cycles,
            ad.result.cycles
        );
        let picks: Vec<_> = ad.plan.iter().map(|p| p.dataflow).collect();
        let oracle_picks: Vec<_> = or.plan.iter().map(|p| p.dataflow).collect();
        assert_eq!(picks, oracle_picks, "static chooser disagrees with measured oracle");
    }

    #[test]
    fn block_sampling_scales_cycles() {
        let a = random_matrix(32, 16, 120, 25);
        let b = random_matrix(16, 16, 60, 26);
        let cfg = SparseCoreConfig::paper();
        let full = adaptive(&a, &b, &mut ScalarTensorBackend::new(), &cfg, Default::default());
        let sampled = adaptive(
            &a,
            &b,
            &mut ScalarTensorBackend::new(),
            &cfg,
            AdaptiveOptions { block_rows: 8, block_sample: Some(2) },
        );
        assert_eq!(sampled.result.rows_simulated, 16);
        let ratio = sampled.result.cycles as f64 / full.result.cycles as f64;
        assert!((0.3..3.0).contains(&ratio), "ratio {ratio}");
    }
}
