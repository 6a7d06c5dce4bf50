//! Seeded random sparse-matrix and tensor generators.

use crate::csf::CsfTensor;
use crate::csr_matrix::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// An exact set of packed coordinate pairs (`a << 32 | b`).
type PairSet = HashSet<u64, BuildHasherDefault<FoldHasher>>;

fn pair(a: u32, b: u32) -> u64 {
    u64::from(a) << 32 | u64::from(b)
}

/// One folded multiply per key: the set holds generator draws, so it
/// needs spread, not flood resistance, and the generators never read its
/// iteration order.
#[derive(Debug, Clone, Copy, Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let m = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ (m >> 64) as u64;
    }
}

/// Generate a random sparse matrix with the given shape and nonzero count.
///
/// Nonzeros are spread over rows with mild variation (each row receives
/// the mean ± up to 50%), and column positions are sampled without
/// replacement within a row. Values are uniform in (0.1, 1.0] so products
/// never cancel to exactly zero in tests.
///
/// The draws come in a fixed order: each row's jitter and columns, row
/// by row; then the spill-over's (row, column) pairs; then one value per
/// entry in row-major order. The matrix is a pure function of the
/// arguments.
///
/// # Panics
///
/// Panics if `nnz` exceeds `rows * cols`.
pub fn random_matrix(rows: usize, cols: usize, nnz: usize, seed: u64) -> CsrMatrix {
    assert!(nnz <= rows * cols, "nnz {nnz} exceeds capacity {rows}x{cols}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mean = nnz as f64 / rows as f64;
    // Every (row, column) drawn, in draw order, and each row's count.
    let mut chosen = PairSet::with_capacity_and_hasher(nnz, Default::default());
    let mut picks: Vec<u64> = Vec::with_capacity(nnz);
    let mut fill = vec![0usize; rows];
    let mut remaining = nnz;
    for (r, filled) in fill.iter_mut().enumerate() {
        let rows_left = rows - r;
        let target = if rows_left == 1 {
            remaining
        } else {
            let jitter = rng.gen_range(0.5..1.5);
            (mean * jitter).round() as usize
        };
        // A row can never hold more than `cols` distinct entries.
        let take = target.min(cols).min(remaining);
        while *filled < take {
            let key = pair(r as u32, rng.gen_range(0..cols) as u32);
            if chosen.insert(key) {
                picks.push(key);
                *filled += 1;
            }
        }
        remaining -= take;
        if remaining == 0 {
            break;
        }
    }
    // Spill-over: leftovers (e.g. when the last row saturated) go to any
    // row with free capacity.
    while remaining > 0 {
        let r = rng.gen_range(0..rows);
        if fill[r] < cols {
            let key = pair(r as u32, rng.gen_range(0..cols) as u32);
            if chosen.insert(key) {
                picks.push(key);
                fill[r] += 1;
                remaining -= 1;
            }
        }
    }
    drop(chosen);
    // Bucket the picks by row, then sort each row's columns.
    let mut row_ptr = Vec::with_capacity(rows + 1);
    row_ptr.push(0u64);
    for &n in &fill {
        row_ptr.push(row_ptr[row_ptr.len() - 1] + n as u64);
    }
    let mut next: Vec<usize> = row_ptr[..rows].iter().map(|&p| p as usize).collect();
    let mut col_idx = vec![0u32; picks.len()];
    for key in picks {
        let r = (key >> 32) as usize;
        col_idx[next[r]] = key as u32;
        next[r] += 1;
    }
    for w in row_ptr.windows(2) {
        col_idx[w[0] as usize..w[1] as usize].sort_unstable();
    }
    let values = col_idx.iter().map(|_| rng.gen_range(0.1..=1.0)).collect();
    CsrMatrix::from_sorted_rows(rows, cols, row_ptr, col_idx, values)
}

/// Generate a random CSF 3-tensor with `num_fibers` nonzero (i, j) fibers
/// and `nnz` total entries (distributed over the fibers with variation).
///
/// The draws come in a fixed order: the (i, j) pairs until `num_fibers`
/// are distinct; then, fiber by fiber in (i, j) order, the jitter, the
/// ks until the fiber's count are distinct, and one value per k in
/// ascending k order. The tensor is a pure function of the arguments.
///
/// # Panics
///
/// Panics if `num_fibers` exceeds `dims[0] * dims[1]`, or the entries per
/// fiber would exceed `dims[2]`.
pub fn random_tensor(dims: [usize; 3], num_fibers: usize, nnz: usize, seed: u64) -> CsfTensor {
    assert!(num_fibers <= dims[0] * dims[1], "too many fibers for dims {dims:?}");
    assert!(nnz >= num_fibers, "need at least one entry per fiber");
    let mut rng = StdRng::seed_from_u64(seed);
    // Choose distinct (i, j) fiber coordinates.
    let mut chosen = PairSet::with_capacity_and_hasher(num_fibers, Default::default());
    let mut coords: Vec<u64> = Vec::with_capacity(num_fibers);
    while coords.len() < num_fibers {
        let i = rng.gen_range(0..dims[0]) as u32;
        let j = rng.gen_range(0..dims[1]) as u32;
        if chosen.insert(pair(i, j)) {
            coords.push(pair(i, j));
        }
    }
    drop(chosen);
    coords.sort_unstable();
    let mean = nnz as f64 / num_fibers as f64;
    assert!(mean <= dims[2] as f64, "fibers cannot hold {mean:.1} entries (k dim {})", dims[2]);
    // Marks the ks drawn for the current fiber; cleared after each fiber.
    let mut taken = vec![false; dims[2]];
    let mut fibers = Vec::with_capacity(num_fibers);
    let mut remaining = nnz;
    for (n, &ij) in coords.iter().enumerate() {
        let left = num_fibers - n;
        let target = if left == 1 {
            remaining
        } else {
            let jitter = rng.gen_range(0.5..1.5);
            ((mean * jitter).round() as usize).clamp(1, dims[2]).min(remaining - (left - 1))
        };
        let mut ks = Vec::with_capacity(target);
        while ks.len() < target {
            let k = rng.gen_range(0..dims[2]);
            if !taken[k] {
                taken[k] = true;
                ks.push(k as u32);
            }
        }
        for &k in &ks {
            taken[k as usize] = false;
        }
        ks.sort_unstable();
        let vals = ks.iter().map(|_| rng.gen_range(0.1..=1.0)).collect();
        fibers.push(((ij >> 32) as u32, ij as u32, ks, vals));
        remaining -= target;
    }
    CsfTensor::from_sorted_fibers(dims, fibers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_hits_exact_nnz() {
        let m = random_matrix(100, 200, 1500, 17);
        assert_eq!(m.nnz(), 1500);
        assert_eq!((m.rows(), m.cols()), (100, 200));
    }

    #[test]
    fn matrix_deterministic() {
        assert_eq!(random_matrix(50, 50, 400, 5), random_matrix(50, 50, 400, 5));
        assert_ne!(random_matrix(50, 50, 400, 5), random_matrix(50, 50, 400, 6));
    }

    #[test]
    fn matrix_rows_sorted_no_dups() {
        let m = random_matrix(40, 60, 600, 23);
        for r in 0..m.rows() {
            let idx = m.row_indices(r);
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "row {r} unsorted");
        }
    }

    #[test]
    fn matrix_values_nonzero() {
        let m = random_matrix(30, 30, 200, 3);
        for r in 0..m.rows() {
            assert!(m.row_values(r).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn tensor_hits_targets() {
        let t = random_tensor([20, 10, 50], 60, 600, 11);
        assert_eq!(t.num_fibers(), 60);
        assert_eq!(t.nnz(), 600);
    }

    #[test]
    fn tensor_deterministic() {
        assert_eq!(
            random_tensor([10, 10, 20], 30, 120, 9),
            random_tensor([10, 10, 20], 30, 120, 9)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn matrix_capacity_checked() {
        random_matrix(2, 2, 5, 0);
    }

    #[test]
    #[should_panic(expected = "too many fibers")]
    fn tensor_fiber_capacity_checked() {
        random_tensor([2, 2, 2], 5, 5, 0);
    }
}
