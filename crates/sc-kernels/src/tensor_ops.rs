//! Tensor-times-vector and tensor-times-matrix kernels.
//!
//! TTV: `Z_ij = Σ_k A_ijk * v_k` — each fiber dotted with the dense
//! vector viewed as a (key, value) stream (`S_VINTER` with MAC).
//! TTM: `Z_ijk = Σ_l A_ijl * B_kl` — each fiber dotted with each row of
//! the dense factor matrix; the factor rows are streamed once with high
//! priority so the scratchpad captures the reuse (the effect behind the
//! paper's larger TTM speedup).
//!
//! Each kernel has one loop body. `ttv` and `ttm` are their sampled
//! forms at stride 1, and the multicore TTV runs the same fiber body on
//! each core's share of the fibers.

use crate::backend::TensorBackend;
use crate::vstream::VStream;
use sc_tensor::CsfTensor;

/// Result of a TTV run.
#[derive(Debug, Clone, PartialEq)]
pub struct TtvResult {
    /// Dense `Z[i][j]`.
    pub z: Vec<Vec<f64>>,
    /// Total simulated cycles.
    pub cycles: u64,
}

/// Result of a TTM run.
#[derive(Debug, Clone, PartialEq)]
pub struct TtmResult {
    /// Dense `Z[i][j][k]`.
    pub z: Vec<Vec<Vec<f64>>>,
    /// Total simulated cycles.
    pub cycles: u64,
}

/// Simulated addresses for the dense TTV/TTM operands.
pub(crate) const DENSE_KEY_BASE: u64 = 0xA000_0000;
pub(crate) const DENSE_VAL_BASE: u64 = 0xA800_0000;

/// One TTV fiber — the `0x500` loop body, without the loop's exit
/// branch: dot fiber `n` with the loaded dense vector and store the
/// output cell. Every driver charges a fiber through it; a fiber touches
/// exactly one `(i, j)` output cell, which is what lets the multicore
/// driver shard fibers.
pub(crate) fn ttv_fiber<B: TensorBackend>(
    a: &CsfTensor,
    n: usize,
    hv: &B::Handle,
    d1: usize,
    backend: &mut B,
) -> (usize, usize, f64) {
    backend.loop_branch(0x500, true);
    let f = a.fiber(n);
    let fs = VStream::from_fiber(a, n);
    let hf = backend.load(&fs, 0);
    let acc = backend.gather_dot(&hf, hv);
    backend.release(hf);
    backend.store_result(0xF800_0000 + (f.i as u64 * d1 as u64 + f.j as u64) * 8);
    (f.i as usize, f.j as usize, acc)
}

/// Tensor-times-vector: `Z_ij = Σ_k A_ijk * v_k`.
///
/// # Panics
///
/// Panics if `v.len() != a.dims()[2]`.
pub fn ttv<B: TensorBackend>(a: &CsfTensor, v: &[f64], backend: &mut B) -> TtvResult {
    ttv_sampled(a, v, backend, 1)
}

/// Tensor-times-matrix: `Z_ijk = Σ_l A_ijl * B_kl`, with `b[k]` the
/// factor-matrix rows (each of length `a.dims()[2]`). TTM charges no
/// store for its output cells; TTV charges one per fiber.
///
/// # Panics
///
/// Panics if any row of `b` has the wrong length.
pub fn ttm<B: TensorBackend>(a: &CsfTensor, b: &[Vec<f64>], backend: &mut B) -> TtmResult {
    ttm_sampled(a, b, backend, 1)
}

/// TTV over every `stride`-th fiber, cycle count scaled back up;
/// unsampled output cells stay zero. Fibers are independent in the
/// output, not in the caches they warm, so the estimate is not unbiased:
/// ROADMAP item 1 lists the measured sampling errors.
pub fn ttv_sampled<B: TensorBackend>(
    a: &CsfTensor,
    v: &[f64],
    backend: &mut B,
    stride: usize,
) -> TtvResult {
    assert_eq!(v.len(), a.dims()[2], "vector length must match mode 2");
    let stride = stride.max(1);
    let [d0, d1, _] = a.dims();
    let mut z = vec![vec![0.0; d1]; d0];
    let dense = VStream::from_dense(v, DENSE_KEY_BASE, DENSE_VAL_BASE);
    // The dense vector is the hot stream: loaded once, maximum priority.
    let hv = backend.load(&dense, 8);
    for n in (0..a.num_fibers()).step_by(stride) {
        let (i, j, acc) = ttv_fiber(a, n, &hv, d1, backend);
        z[i][j] = acc;
    }
    backend.loop_branch(0x500, false);
    backend.release(hv);
    TtvResult { z, cycles: backend.finish() * stride as u64 }
}

/// TTM over every `stride`-th fiber (see [`ttv_sampled`]).
pub fn ttm_sampled<B: TensorBackend>(
    a: &CsfTensor,
    b: &[Vec<f64>],
    backend: &mut B,
    stride: usize,
) -> TtmResult {
    let [d0, d1, d2] = a.dims();
    assert!(b.iter().all(|row| row.len() == d2), "factor rows must match mode 2");
    let stride = stride.max(1);
    let mut z = vec![vec![vec![0.0; b.len()]; d1]; d0];
    // Load all factor rows once, high priority: they are reused by every
    // fiber.
    let handles: Vec<B::Handle> = b
        .iter()
        .enumerate()
        .map(|(k, row)| {
            let s = VStream::from_dense(
                row,
                DENSE_KEY_BASE + (k as u64 + 1) * 0x10_0000,
                DENSE_VAL_BASE + (k as u64 + 1) * 0x10_0000,
            );
            backend.load(&s, 8)
        })
        .collect();
    for n in (0..a.num_fibers()).step_by(stride) {
        backend.loop_branch(0x510, true);
        let f = a.fiber(n);
        let fs = VStream::from_fiber(a, n);
        let hf = backend.load(&fs, 0);
        for (k, hb) in handles.iter().enumerate() {
            backend.loop_branch(0x514, true);
            z[f.i as usize][f.j as usize][k] = backend.gather_dot(&hf, hb);
        }
        backend.loop_branch(0x514, false);
        backend.release(hf);
    }
    backend.loop_branch(0x510, false);
    for h in handles {
        backend.release(h);
    }
    TtmResult { z, cycles: backend.finish() * stride as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ScalarTensorBackend, StreamTensorBackend};
    use sc_tensor::dense::{ttm_reference, ttv_reference};
    use sc_tensor::generators::random_tensor;

    fn close3(a: &[Vec<Vec<f64>>], b: &[Vec<Vec<f64>>]) -> bool {
        a.iter().zip(b).all(|(x, y)| {
            x.iter().zip(y).all(|(p, q)| p.iter().zip(q).all(|(u, v)| (u - v).abs() < 1e-9))
        })
    }

    #[test]
    fn ttv_matches_reference_both_backends() {
        let t = random_tensor([6, 5, 12], 14, 60, 21);
        let v: Vec<f64> = (0..12).map(|i| 0.5 + i as f64).collect();
        let expected = ttv_reference(&t, &v);
        let r1 = ttv(&t, &v, &mut ScalarTensorBackend::new());
        let r2 = ttv(&t, &v, &mut StreamTensorBackend::new());
        for (row, want) in expected.iter().enumerate() {
            for (col, e) in want.iter().enumerate() {
                assert!((r1.z[row][col] - e).abs() < 1e-9);
                assert!((r2.z[row][col] - e).abs() < 1e-9);
            }
        }
        assert!(r1.cycles > 0 && r2.cycles > 0);
    }

    #[test]
    fn ttm_matches_reference_both_backends() {
        let t = random_tensor([4, 4, 10], 8, 36, 22);
        let b: Vec<Vec<f64>> =
            (0..3).map(|k| (0..10).map(|l| (k * 10 + l) as f64 * 0.1 + 1.0).collect()).collect();
        let expected = ttm_reference(&t, &b);
        let r1 = ttm(&t, &b, &mut ScalarTensorBackend::new());
        let r2 = ttm(&t, &b, &mut StreamTensorBackend::new());
        assert!(close3(&r1.z, &expected));
        assert!(close3(&r2.z, &expected));
    }

    #[test]
    fn ttm_reuse_beats_ttv_per_flop() {
        // Both backends run; the stream backend should gain more on TTM
        // (factor-row reuse) than on TTV — the paper's 4.49x vs 2.44x
        // ordering. We assert the ordering of speedups, not magnitudes.
        let t = random_tensor([8, 6, 64], 30, 600, 23);
        let v: Vec<f64> = (0..64).map(|i| 1.0 + i as f64 * 0.01).collect();
        let b: Vec<Vec<f64>> = (0..8).map(|_| v.clone()).collect();

        let ttv_s = ttv(&t, &v, &mut ScalarTensorBackend::new());
        let ttv_t = ttv(&t, &v, &mut StreamTensorBackend::new());
        let ttm_s = ttm(&t, &b, &mut ScalarTensorBackend::new());
        let ttm_t = ttm(&t, &b, &mut StreamTensorBackend::new());
        let sp_ttv = ttv_s.cycles as f64 / ttv_t.cycles as f64;
        let sp_ttm = ttm_s.cycles as f64 / ttm_t.cycles as f64;
        assert!(sp_ttv > 1.0, "TTV speedup {sp_ttv}");
        assert!(sp_ttm > 1.0, "TTM speedup {sp_ttm}");
    }

    #[test]
    #[should_panic(expected = "vector length")]
    fn ttv_shape_checked() {
        let t = random_tensor([2, 2, 5], 2, 4, 0);
        ttv(&t, &[1.0; 4], &mut ScalarTensorBackend::new());
    }

    #[test]
    #[should_panic(expected = "factor rows")]
    fn ttm_shape_checked() {
        let t = random_tensor([2, 2, 5], 2, 4, 0);
        ttm(&t, &[vec![1.0; 4]], &mut ScalarTensorBackend::new());
    }
}
