//! Compressed sparse fiber 3-tensors.
//!
//! TTV (`Z_ij = sum_k A_ijk * B_k`) and TTM (`Z_ijk = sum_l A_ijl * B_kl`)
//! in the paper iterate over the tensor's mode-(0,1) *fibers* — for each
//! nonzero (i, j) pair, the sorted list of (k, value) entries. Each fiber
//! is directly usable as a (key, value) stream.

use crate::csr_matrix::MatrixLayout;

/// One fiber: the sorted mode-2 slice at a fixed (i, j).
#[derive(Debug, Clone, PartialEq)]
pub struct Fiber {
    /// Mode-0 coordinate.
    pub i: u32,
    /// Mode-1 coordinate.
    pub j: u32,
    /// Sorted mode-2 coordinates of the stored entries.
    pub ks: Vec<u32>,
    /// Values aligned with `ks`.
    pub vals: Vec<f64>,
    /// Offset of this fiber's first entry in the tensor's concatenated
    /// entry arrays (for address computation).
    entry_offset: u64,
}

impl Fiber {
    /// Stored entries in this fiber.
    pub fn nnz(&self) -> usize {
        self.ks.len()
    }
}

/// A 3-tensor in compressed-sparse-fiber form.
///
/// # Example
///
/// ```
/// use sc_tensor::CsfTensor;
///
/// let t = CsfTensor::from_entries(
///     [2, 2, 4],
///     &[(0, 0, 1, 5.0), (0, 0, 3, 7.0), (1, 1, 0, 2.0)],
/// );
/// assert_eq!(t.num_fibers(), 2);
/// assert_eq!(t.fiber(0).ks, vec![1, 3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsfTensor {
    dims: [usize; 3],
    fibers: Vec<Fiber>,
    nnz: usize,
    layout: MatrixLayout,
}

impl CsfTensor {
    /// Build from (i, j, k, value) entries. Duplicate coordinates are
    /// summed; fibers come out sorted by (i, j) and entries by k.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is out of range.
    pub fn from_entries(dims: [usize; 3], entries: &[(u32, u32, u32, f64)]) -> Self {
        for &(i, j, k, _) in entries {
            assert!(
                (i as usize) < dims[0] && (j as usize) < dims[1] && (k as usize) < dims[2],
                "entry ({i},{j},{k}) out of range for dims {dims:?}"
            );
        }
        // The sort is stable, so each coordinate's duplicates stay in
        // input order and are summed in that order, starting from 0.0.
        let mut sorted = entries.to_vec();
        sorted.sort_by_key(|&(i, j, k, _)| (i, j, k));
        let fibers = sorted.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)).map(|fiber| {
            let (mut ks, mut vals) = (Vec::new(), Vec::new());
            for run in fiber.chunk_by(|a, b| a.2 == b.2) {
                ks.push(run[0].2);
                vals.push(run.iter().fold(0.0, |sum, e| sum + e.3));
            }
            (fiber[0].0, fiber[0].1, ks, vals)
        });
        Self::from_sorted_fibers(dims, fibers)
    }

    /// Assemble from fibers given in ascending (i, j) order, each with
    /// ascending, distinct ks and their values.
    pub(crate) fn from_sorted_fibers(
        dims: [usize; 3],
        fibers: impl IntoIterator<Item = (u32, u32, Vec<u32>, Vec<f64>)>,
    ) -> Self {
        let fibers = fibers.into_iter();
        let mut out = Vec::with_capacity(fibers.size_hint().0);
        let mut entry_offset = 0u64;
        for (i, j, ks, vals) in fibers {
            let len = ks.len() as u64;
            out.push(Fiber { i, j, ks, vals, entry_offset });
            entry_offset += len;
        }
        CsfTensor { dims, fibers: out, nnz: entry_offset as usize, layout: MatrixLayout::region(8) }
    }

    /// Tensor dimensions.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Total stored entries.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of nonzero (i, j) fibers.
    pub fn num_fibers(&self) -> usize {
        self.fibers.len()
    }

    /// The `n`-th fiber in (i, j) order.
    pub fn fiber(&self, n: usize) -> &Fiber {
        &self.fibers[n]
    }

    /// Iterate all fibers.
    pub fn fibers(&self) -> impl Iterator<Item = &Fiber> {
        self.fibers.iter()
    }

    /// Mean entries per nonzero fiber (the stream length TTV/TTM see).
    pub fn avg_fiber_nnz(&self) -> f64 {
        if self.fibers.is_empty() {
            0.0
        } else {
            self.nnz as f64 / self.fibers.len() as f64
        }
    }

    /// Density over the full dims cuboid.
    pub fn density(&self) -> f64 {
        let cells = self.dims.iter().map(|&d| d as f64).product::<f64>();
        if cells == 0.0 {
            0.0
        } else {
            self.nnz as f64 / cells
        }
    }

    /// The simulated memory layout (index/value base addresses).
    pub fn layout(&self) -> &MatrixLayout {
        &self.layout
    }

    /// Override the simulated memory layout.
    pub fn set_layout(&mut self, layout: MatrixLayout) {
        self.layout = layout;
    }

    /// Byte address of a fiber's first key entry.
    pub fn fiber_index_addr(&self, n: usize) -> u64 {
        self.layout.index_base + self.fibers[n].entry_offset * 4
    }

    /// Byte address of a fiber's first value entry.
    pub fn fiber_value_addr(&self, n: usize) -> u64 {
        self.layout.value_base + self.fibers[n].entry_offset * 8
    }

    /// Value at (i, j, k), or 0.0 when not stored (tests only).
    pub fn get(&self, i: u32, j: u32, k: u32) -> f64 {
        match self.fibers.binary_search_by_key(&(i, j), |f| (f.i, f.j)) {
            Ok(n) => {
                let f = &self.fibers[n];
                match f.ks.binary_search(&k) {
                    Ok(p) => f.vals[p],
                    Err(_) => 0.0,
                }
            }
            Err(_) => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsfTensor {
        CsfTensor::from_entries(
            [2, 3, 4],
            &[(0, 0, 1, 5.0), (0, 0, 3, 7.0), (0, 2, 0, 1.0), (1, 1, 0, 2.0), (1, 1, 2, 3.0)],
        )
    }

    #[test]
    fn fibers_grouped_and_sorted() {
        let t = sample();
        assert_eq!(t.num_fibers(), 3);
        assert_eq!(t.nnz(), 5);
        let f0 = t.fiber(0);
        assert_eq!((f0.i, f0.j), (0, 0));
        assert_eq!(f0.ks, vec![1, 3]);
        assert_eq!(f0.vals, vec![5.0, 7.0]);
        let f2 = t.fiber(2);
        assert_eq!((f2.i, f2.j), (1, 1));
    }

    #[test]
    fn duplicates_sum() {
        let t = CsfTensor::from_entries([1, 1, 2], &[(0, 0, 1, 2.0), (0, 0, 1, 3.0)]);
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.get(0, 0, 1), 5.0);
    }

    #[test]
    fn get_missing_is_zero() {
        let t = sample();
        assert_eq!(t.get(0, 1, 0), 0.0);
        assert_eq!(t.get(1, 1, 2), 3.0);
    }

    #[test]
    fn stats() {
        let t = sample();
        assert!((t.avg_fiber_nnz() - 5.0 / 3.0).abs() < 1e-12);
        assert!((t.density() - 5.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn fiber_addresses_follow_offsets() {
        let t = sample();
        assert_eq!(t.fiber_index_addr(0) + 2 * 4, t.fiber_index_addr(1));
        assert_eq!(t.fiber_value_addr(0) + 2 * 8, t.fiber_value_addr(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounds_checked() {
        CsfTensor::from_entries([1, 1, 1], &[(0, 0, 1, 1.0)]);
    }
}
