//! Sparse matrix × sparse matrix multiplication under three dataflows.
//!
//! The three loop orders of paper Section 2.1 — inner product (m, n, k),
//! outer product (k, m, n), Gustavson (m, k, n) — expressed over the
//! [`TensorBackend`] primitives so the identical algorithm runs on the
//! CPU baseline and on SparseCore.
//!
//! Each dataflow has one loop body, which runs the items its driver
//! hands it: `inner_rows` and `gustavson_row` take output rows,
//! `outer_cols` takes columns of `A` and a range of output rows. The
//! exact and sampled drivers pass every item or every `k`-th one, the
//! adaptive drivers one block of rows, and the multicore driver one
//! core's share.

use crate::backend::TensorBackend;
use crate::vstream::VStream;
use sc_tensor::{CscMatrix, CsrMatrix};
use std::ops::Range;

/// Result of one spmspm run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmspmResult {
    /// The product matrix.
    pub c: CsrMatrix,
    /// Total simulated cycles (scaled up when sampling was used).
    pub cycles: u64,
    /// Items actually simulated: output rows, except that
    /// [`outer_product_sampled`] counts the columns of `A` it ran.
    pub rows_simulated: usize,
}

/// Options for the inner-product dataflow.
#[derive(Debug, Clone, Copy, Default)]
pub struct InnerOptions {
    /// Simulate only every `k`-th row and scale the cycle count by `k`
    /// (the inner product visits all `m*n` pairs, which is exactly its
    /// asymptotic weakness; sampling keeps large-matrix sweeps tractable
    /// while preserving per-row behaviour). `None` simulates every row.
    pub row_sample: Option<usize>,
}

/// Output rows of a product with their row indices, as a loop body
/// produced them.
pub(crate) type Rows = Vec<(usize, VStream)>;

/// The `m`×`n` product with the given rows; rows not listed are empty.
/// Every spmspm driver assembles its result here.
pub(crate) fn product(m: usize, n: usize, rows: &[(usize, VStream)]) -> CsrMatrix {
    let mut triplets = Vec::new();
    for (i, r) in rows {
        triplets.extend(r.keys.iter().zip(&r.vals).map(|(&k, &v)| (*i as u32, k, v)));
    }
    CsrMatrix::from_triplets(m, n, &triplets)
}

/// A driver's result: the product of `rows`, with the backend's cycles
/// scaled by the sampling `stride`.
fn finish<B: TensorBackend>(
    m: usize,
    n: usize,
    rows: Rows,
    backend: &mut B,
    stride: usize,
) -> SpmspmResult {
    let cycles = backend.finish() * stride as u64;
    SpmspmResult { c: product(m, n, &rows), cycles, rows_simulated: rows.len() }
}

/// Inner-product spmspm: `C[i][j] = dot(A_row_i, B_col_j)`.
///
/// `A`'s row stream is loaded once per row and reused across all columns
/// (high scratchpad priority), reproducing the data-reuse advantage the
/// paper credits for inner product's large speedup.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn inner_product<B: TensorBackend>(
    a: &CsrMatrix,
    b: &CscMatrix,
    backend: &mut B,
    opts: InnerOptions,
) -> SpmspmResult {
    assert_eq!(a.cols(), b.rows(), "shape mismatch");
    let stride = opts.row_sample.unwrap_or(1).max(1);
    let rows = inner_rows(a, b, backend, (0..a.rows()).step_by(stride));
    finish(a.rows(), b.cols(), rows, backend, stride)
}

/// The inner-product loop body (`0x400`/`0x404`) over the output rows
/// `items`.
pub(crate) fn inner_rows<B: TensorBackend>(
    a: &CsrMatrix,
    b: &CscMatrix,
    backend: &mut B,
    items: impl Iterator<Item = usize>,
) -> Rows {
    let mut rows = Vec::new();
    for i in items {
        backend.loop_branch(0x400, true);
        let mut c = VStream::empty();
        if a.row_nnz(i) > 0 {
            let hrow = backend.load(&VStream::from_row(a, i), 4); // reused across all columns
            for j in 0..b.cols() {
                backend.loop_branch(0x404, true);
                if b.col_nnz(j) == 0 {
                    continue;
                }
                // Columns are re-streamed for every row of A: scratchpad
                // priority captures that reuse (the paper's Section 6.9.1
                // explanation of inner product's large speedups).
                let hcol = backend.load(&VStream::from_col(b, j), 2);
                let v = backend.dot(&hrow, &hcol);
                backend.release(hcol);
                if v != 0.0 {
                    c.keys.push(j as u32);
                    c.vals.push(v);
                    backend.store_result(0xF000_0000 + (i * b.cols() + j) as u64 * 8);
                }
            }
            backend.loop_branch(0x404, false);
            backend.release(hrow);
        }
        rows.push((i, c));
    }
    backend.loop_branch(0x400, false);
    rows
}

/// Outer-product spmspm: `C = Σ_k A_col_k ⊗ B_row_k`, accumulating each
/// output row by scaled merges.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn outer_product<B: TensorBackend>(
    a_csc: &CscMatrix,
    b: &CsrMatrix,
    backend: &mut B,
) -> SpmspmResult {
    SpmspmResult { rows_simulated: a_csc.rows(), ..outer_product_sampled(a_csc, b, backend, 1) }
}

/// Outer product with column sampling: simulate every `stride`-th rank-1
/// update and scale the cycle count. The per-column updates are
/// independent in work (the accumulators grow more slowly than in a full
/// run, so this slightly *under*-counts merge lengths — acceptable for
/// the large-matrix sweeps, and both backends see the same bias).
pub fn outer_product_sampled<B: TensorBackend>(
    a_csc: &CscMatrix,
    b: &CsrMatrix,
    backend: &mut B,
    stride: usize,
) -> SpmspmResult {
    assert_eq!(a_csc.cols(), b.rows(), "shape mismatch");
    let stride = stride.max(1);
    let cols = (0..a_csc.cols()).step_by(stride);
    let simulated = cols.len();
    let rows = outer_cols(a_csc, b, backend, cols, 0..a_csc.rows());
    SpmspmResult {
        rows_simulated: simulated,
        ..finish(a_csc.rows(), b.cols(), rows, backend, stride)
    }
}

/// The outer-product loop body (`0x410`/`0x414`) over `A`'s columns
/// `items`, restricted to the output rows `rows`: `B`'s row `k` is loaded
/// once and merged, scaled, into the accumulator of every row in `rows`
/// that column `k` of `A` names. Over all rows the range skips only the
/// columns with no entries.
pub(crate) fn outer_cols<B: TensorBackend>(
    a_csc: &CscMatrix,
    b: &CsrMatrix,
    backend: &mut B,
    items: impl Iterator<Item = usize>,
    rows: Range<usize>,
) -> Rows {
    let mut acc: Vec<VStream> = rows.clone().map(|_| VStream::empty()).collect();
    for k in items {
        backend.loop_branch(0x410, true);
        // Column entries are sorted by row: slice out the range.
        let (is, vs) = (a_csc.col_indices(k), a_csc.col_values(k));
        let lo = is.partition_point(|&i| (i as usize) < rows.start);
        let hi = is.partition_point(|&i| (i as usize) < rows.end);
        if lo == hi || b.row_nnz(k) == 0 {
            continue;
        }
        let hb = backend.load(&VStream::from_row(b, k), 2); // reused across the rows
        for (&i, &a_ik) in is[lo..hi].iter().zip(&vs[lo..hi]) {
            backend.loop_branch(0x414, true);
            backend.ops(2);
            let r = i as usize - rows.start;
            let hacc = backend.load(&acc[r], 0);
            acc[r] = backend.scaled_merge(1.0, &hacc, a_ik, &hb);
            backend.release(hacc);
        }
        backend.loop_branch(0x414, false);
        backend.release(hb);
    }
    backend.loop_branch(0x410, false);
    rows.zip(acc).collect()
}

/// Gustavson spmspm: `C_row_i = Σ_k a_ik * B_row_k` (paper Figure 4(c)).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn gustavson<B: TensorBackend>(a: &CsrMatrix, b: &CsrMatrix, backend: &mut B) -> SpmspmResult {
    gustavson_sampled(a, b, backend, 1)
}

/// Gustavson with row sampling: simulate every `stride`-th output row
/// and scale the cycle count (the product contains only the sampled
/// rows). Rows are independent in the product, not in the caches they
/// warm, so the estimate is not unbiased: ROADMAP item 1 lists the
/// measured sampling errors.
pub fn gustavson_sampled<B: TensorBackend>(
    a: &CsrMatrix,
    b: &CsrMatrix,
    backend: &mut B,
    stride: usize,
) -> SpmspmResult {
    assert_eq!(a.cols(), b.rows(), "shape mismatch");
    let stride = stride.max(1);
    let rows = gustavson_rows(a, b, backend, (0..a.rows()).step_by(stride));
    finish(a.rows(), b.cols(), rows, backend, stride)
}

/// The Gustavson loop (`0x420`) over the output rows `items`.
pub(crate) fn gustavson_rows<B: TensorBackend>(
    a: &CsrMatrix,
    b: &CsrMatrix,
    backend: &mut B,
    items: impl Iterator<Item = usize>,
) -> Rows {
    let rows = items.map(|i| (i, gustavson_row(a, b, backend, i))).collect();
    backend.loop_branch(0x420, false);
    rows
}

/// One Gustavson output row — the `0x420`/`0x424` loop body, without the
/// loop's exit branch. Every driver charges a row through it; a row
/// depends only on `A`'s row `i` and the rows of `B` it touches, which is
/// what lets the multicore driver shard the output rows freely.
pub(crate) fn gustavson_row<B: TensorBackend>(
    a: &CsrMatrix,
    b: &CsrMatrix,
    backend: &mut B,
    i: usize,
) -> VStream {
    backend.loop_branch(0x420, true);
    let arow = VStream::from_row(a, i);
    let mut acc = VStream::empty();
    for (idx, &k) in arow.keys.iter().enumerate() {
        backend.loop_branch(0x424, true);
        let a_ik = arow.vals[idx];
        backend.ops(2);
        if b.row_nnz(k as usize) == 0 {
            continue;
        }
        let brow = VStream::from_row(b, k as usize);
        let hb = backend.load(&brow, 1);
        let hacc = backend.load(&acc, 3); // the running row is hot
        acc = backend.scaled_merge(1.0, &hacc, a_ik, &hb);
        backend.release(hacc);
        backend.release(hb);
    }
    backend.loop_branch(0x424, false);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ScalarTensorBackend, StreamTensorBackend};
    use sc_tensor::dense::{dense_close, matmul_reference};
    use sc_tensor::generators::random_matrix;

    fn check_against_reference(c: &CsrMatrix, a: &CsrMatrix, b: &CsrMatrix) {
        let expected = matmul_reference(a, b);
        assert!(dense_close(&c.to_dense(), &expected, 1e-9), "product mismatch");
    }

    #[test]
    fn inner_product_correct_both_backends() {
        let a = random_matrix(12, 10, 40, 1);
        let b = random_matrix(10, 14, 50, 2);
        let bcsc = b.to_csc();
        let r1 = inner_product(&a, &bcsc, &mut ScalarTensorBackend::new(), InnerOptions::default());
        check_against_reference(&r1.c, &a, &b);
        let r2 = inner_product(&a, &bcsc, &mut StreamTensorBackend::new(), InnerOptions::default());
        check_against_reference(&r2.c, &a, &b);
        assert!(r1.cycles > 0 && r2.cycles > 0);
    }

    #[test]
    fn outer_product_correct_both_backends() {
        let a = random_matrix(9, 11, 35, 3);
        let b = random_matrix(11, 8, 30, 4);
        let acsc = a.to_csc();
        let r1 = outer_product(&acsc, &b, &mut ScalarTensorBackend::new());
        check_against_reference(&r1.c, &a, &b);
        let r2 = outer_product(&acsc, &b, &mut StreamTensorBackend::new());
        check_against_reference(&r2.c, &a, &b);
    }

    #[test]
    fn gustavson_correct_both_backends() {
        let a = random_matrix(10, 12, 45, 5);
        let b = random_matrix(12, 9, 40, 6);
        let r1 = gustavson(&a, &b, &mut ScalarTensorBackend::new());
        check_against_reference(&r1.c, &a, &b);
        let r2 = gustavson(&a, &b, &mut StreamTensorBackend::new());
        check_against_reference(&r2.c, &a, &b);
    }

    #[test]
    fn three_dataflows_agree() {
        let a = random_matrix(8, 8, 25, 7);
        let b = random_matrix(8, 8, 25, 8);
        let inner = inner_product(
            &a,
            &b.to_csc(),
            &mut ScalarTensorBackend::new(),
            InnerOptions::default(),
        );
        let outer = outer_product(&a.to_csc(), &b, &mut ScalarTensorBackend::new());
        let gus = gustavson(&a, &b, &mut ScalarTensorBackend::new());
        assert!(dense_close(&inner.c.to_dense(), &outer.c.to_dense(), 1e-9));
        assert!(dense_close(&inner.c.to_dense(), &gus.c.to_dense(), 1e-9));
    }

    #[test]
    fn sampling_scales_cycles() {
        let a = random_matrix(20, 10, 60, 9);
        let b = random_matrix(10, 10, 40, 10).to_csc();
        let full = inner_product(&a, &b, &mut ScalarTensorBackend::new(), InnerOptions::default());
        let sampled = inner_product(
            &a,
            &b,
            &mut ScalarTensorBackend::new(),
            InnerOptions { row_sample: Some(4) },
        );
        assert_eq!(full.rows_simulated, 20);
        assert_eq!(sampled.rows_simulated, 5);
        // Scaled estimate should land within 2x of the full run.
        let ratio = sampled.cycles as f64 / full.cycles as f64;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn stream_faster_for_inner_product() {
        // Inner product is the dataflow the paper accelerates most (6.9x):
        // long rows + reuse.
        let a = random_matrix(16, 40, 320, 11);
        let b = random_matrix(40, 16, 320, 12).to_csc();
        let sc = inner_product(&a, &b, &mut ScalarTensorBackend::new(), InnerOptions::default());
        let st = inner_product(&a, &b, &mut StreamTensorBackend::new(), InnerOptions::default());
        assert!(st.cycles < sc.cycles, "stream {} vs scalar {}", st.cycles, sc.cycles);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_checked() {
        let a = random_matrix(4, 5, 6, 0);
        let b = random_matrix(4, 4, 6, 0).to_csc();
        inner_product(&a, &b, &mut ScalarTensorBackend::new(), InnerOptions::default());
    }
}

#[cfg(test)]
mod sampled_tests {
    use super::*;
    use crate::backend::ScalarTensorBackend;
    use sc_tensor::generators::random_matrix;

    #[test]
    fn sampled_gustavson_rows_match_full_run() {
        let a = random_matrix(20, 20, 120, 51);
        let b = random_matrix(20, 20, 120, 52);
        let full = gustavson(&a, &b, &mut ScalarTensorBackend::new());
        let sampled = gustavson_sampled(&a, &b, &mut ScalarTensorBackend::new(), 4);
        assert_eq!(sampled.rows_simulated, 5);
        // Every sampled row equals the full product's row.
        for i in (0..20).step_by(4) {
            assert_eq!(sampled.c.row_indices(i), full.c.row_indices(i), "row {i}");
        }
        // Stride 1 is the full run.
        let s1 = gustavson_sampled(&a, &b, &mut ScalarTensorBackend::new(), 1);
        assert_eq!(s1.c, full.c);
        let ratio = sampled.cycles as f64 / full.cycles as f64;
        assert!((0.4..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sampled_outer_cycle_estimate_reasonable() {
        let a = random_matrix(24, 24, 150, 53);
        let acsc = a.to_csc();
        let full = outer_product(&acsc, &a, &mut ScalarTensorBackend::new());
        let sampled = outer_product_sampled(&acsc, &a, &mut ScalarTensorBackend::new(), 3);
        let ratio = sampled.cycles as f64 / full.cycles as f64;
        assert!((0.2..2.0).contains(&ratio), "ratio {ratio}");
    }
}
