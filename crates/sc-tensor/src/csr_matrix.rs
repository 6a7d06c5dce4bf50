//! Compressed sparse row / column matrices.

use std::fmt;

/// Simulated byte addresses for a matrix's index and value arrays.
///
/// Index entries are 4 bytes (stream keys); value entries are 8 bytes.
/// Distinct matrices should use distinct regions; [`MatrixLayout::region`]
/// produces non-overlapping layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixLayout {
    /// Base address of the (concatenated) index array.
    pub index_base: u64,
    /// Base address of the (concatenated) value array.
    pub value_base: u64,
}

impl MatrixLayout {
    /// Layout for the `n`-th matrix region (regions are 256 MiB apart and
    /// never overlap for matrices under 32M nonzeros).
    pub fn region(n: u64) -> Self {
        let base = 0x1_0000_0000u64 + n * 0x1000_0000;
        MatrixLayout { index_base: base, value_base: base + 0x0800_0000 }
    }
}

impl Default for MatrixLayout {
    fn default() -> Self {
        MatrixLayout::region(0)
    }
}

/// A sparse matrix in compressed sparse row form: per-row sorted column
/// indices and values. Each row is directly a (key, value) stream.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u64>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    layout: MatrixLayout,
}

impl CsrMatrix {
    /// Build from (row, col, value) triplets. Duplicate coordinates are
    /// summed; explicit zeros are kept (they are "stored nonzeros" in
    /// sparse-matrix terms).
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is out of range.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f64)]) -> Self {
        // Counting sort by row that keeps input order within a row, then
        // the per-row sort: each row enters the sort in the order its
        // triplets came, so the sort's permutation, and with it the
        // order duplicates are summed in, follows the input.
        let mut start = vec![0usize; rows + 1];
        for &(r, c, _) in triplets {
            assert!((r as usize) < rows && (c as usize) < cols, "({r},{c}) out of range");
            start[r as usize + 1] += 1;
        }
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        let mut next = start.clone();
        let mut slots = vec![(0u32, 0.0f64); triplets.len()];
        for &(r, c, v) in triplets {
            slots[next[r as usize]] = (c, v);
            next[r as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0u64);
        for r in 0..rows {
            let row = &mut slots[start[r]..start[r + 1]];
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let (c, mut v) = row[i];
                let mut j = i + 1;
                while j < row.len() && row[j].0 == c {
                    v += row[j].1;
                    j += 1;
                }
                col_idx.push(c);
                values.push(v);
                i = j;
            }
            row_ptr.push(col_idx.len() as u64);
        }
        CsrMatrix { rows, cols, row_ptr, col_idx, values, layout: MatrixLayout::default() }
    }

    /// Assemble from per-row sorted, duplicate-free arrays (`row_ptr` has
    /// `rows + 1` entries), with the default layout.
    pub(crate) fn from_sorted_rows(
        rows: usize,
        cols: usize,
        row_ptr: Vec<u64>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        CsrMatrix { rows, cols, row_ptr, col_idx, values, layout: MatrixLayout::default() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Density: nnz / (rows * cols); 0.0 for an empty shape.
    pub fn density(&self) -> f64 {
        let cells = self.rows as f64 * self.cols as f64;
        if cells == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / cells
        }
    }

    /// Sorted column indices of row `r`.
    pub fn row_indices(&self, r: usize) -> &[u32] {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        &self.col_idx[lo..hi]
    }

    /// Values of row `r`, aligned with [`CsrMatrix::row_indices`].
    pub fn row_values(&self, r: usize) -> &[f64] {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        &self.values[lo..hi]
    }

    /// Stored nonzeros in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// Mean nonzeros per row.
    pub fn avg_row_nnz(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.rows as f64
        }
    }

    /// Value at (r, c), or 0.0 when not stored.
    pub fn get(&self, r: usize, c: u32) -> f64 {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        match self.col_idx[lo..hi].binary_search(&c) {
            Ok(i) => self.values[lo + i],
            Err(_) => 0.0,
        }
    }

    /// Transpose into compressed sparse column form (the same data viewed
    /// per column; columns become the streams for inner-product spmspm).
    pub fn to_csc(&self) -> CscMatrix {
        // A counting sort by column. Rows are visited in order and hold no
        // duplicates, so each column's rows come out ascending and
        // distinct, as `from_triplets` on the transposed triplets would
        // leave them.
        let mut col_ptr = vec![0u64; self.cols + 1];
        for &c in &self.col_idx {
            col_ptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        let mut next: Vec<usize> = col_ptr[..self.cols].iter().map(|&p| p as usize).collect();
        let mut row_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for r in 0..self.rows {
            for (&c, &v) in self.row_indices(r).iter().zip(self.row_values(r)) {
                let at = &mut next[c as usize];
                row_idx[*at] = r as u32;
                values[*at] = v;
                *at += 1;
            }
        }
        CscMatrix {
            inner: CsrMatrix::from_sorted_rows(self.cols, self.rows, col_ptr, row_idx, values),
        }
    }

    /// The simulated memory layout.
    pub fn layout(&self) -> &MatrixLayout {
        &self.layout
    }

    /// Override the simulated memory layout (use [`MatrixLayout::region`]
    /// to keep matrices disjoint).
    pub fn set_layout(&mut self, layout: MatrixLayout) {
        self.layout = layout;
    }

    /// Byte address of row `r`'s first index entry (key-stream start).
    pub fn row_index_addr(&self, r: usize) -> u64 {
        self.layout.index_base + self.row_ptr[r] * 4
    }

    /// Byte address of row `r`'s first value entry (value-stream start).
    pub fn row_value_addr(&self, r: usize) -> u64 {
        self.layout.value_base + self.row_ptr[r] * 8
    }

    /// Convert to a dense row-major matrix (tests only; panics on shapes
    /// over 4M cells to catch accidents).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        assert!(self.rows * self.cols <= 4_000_000, "to_dense on huge matrix");
        let mut out = vec![vec![0.0; self.cols]; self.rows];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, v) in self.row_indices(r).iter().zip(self.row_values(r)) {
                row[*c as usize] = *v;
            }
        }
        out
    }
}

impl fmt::Display for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix({}x{}, nnz={}, density={:.4}%)",
            self.rows,
            self.cols,
            self.nnz(),
            self.density() * 100.0
        )
    }
}

/// A sparse matrix in compressed sparse column form, stored as the CSR of
/// its transpose. Column accessors mirror the CSR row accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    inner: CsrMatrix,
}

impl CscMatrix {
    /// Number of rows of the logical matrix.
    pub fn rows(&self) -> usize {
        self.inner.cols()
    }

    /// Number of columns of the logical matrix.
    pub fn cols(&self) -> usize {
        self.inner.rows()
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    /// Sorted row indices of column `c`.
    pub fn col_indices(&self, c: usize) -> &[u32] {
        self.inner.row_indices(c)
    }

    /// Values of column `c`.
    pub fn col_values(&self, c: usize) -> &[f64] {
        self.inner.row_values(c)
    }

    /// Stored nonzeros in column `c`.
    pub fn col_nnz(&self, c: usize) -> usize {
        self.inner.row_nnz(c)
    }

    /// Byte address of column `c`'s first index entry.
    pub fn col_index_addr(&self, c: usize) -> u64 {
        self.inner.row_index_addr(c)
    }

    /// Byte address of column `c`'s first value entry.
    pub fn col_value_addr(&self, c: usize) -> u64 {
        self.inner.row_value_addr(c)
    }

    /// Override the simulated memory layout.
    pub fn set_layout(&mut self, layout: MatrixLayout) {
        self.inner.set_layout(layout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            4,
            &[(0, 1, 2.0), (0, 3, 4.0), (1, 0, 1.0), (2, 2, 5.0), (2, 3, 6.0)],
        )
    }

    #[test]
    fn shape_and_rows() {
        let m = sample();
        assert_eq!((m.rows(), m.cols(), m.nnz()), (3, 4, 5));
        assert_eq!(m.row_indices(0), &[1, 3]);
        assert_eq!(m.row_values(2), &[5.0, 6.0]);
        assert_eq!(m.row_nnz(1), 1);
    }

    #[test]
    fn duplicates_sum() {
        let m = CsrMatrix::from_triplets(1, 2, &[(0, 1, 2.0), (0, 1, 3.0)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 1), 5.0);
    }

    #[test]
    fn get_missing_is_zero() {
        let m = sample();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(0, 1), 2.0);
    }

    #[test]
    fn indices_sorted_within_rows() {
        let m = CsrMatrix::from_triplets(1, 5, &[(0, 4, 1.0), (0, 0, 2.0), (0, 2, 3.0)]);
        assert_eq!(m.row_indices(0), &[0, 2, 4]);
        assert_eq!(m.row_values(0), &[2.0, 3.0, 1.0]);
    }

    #[test]
    fn csc_transpose_matches() {
        let m = sample();
        let t = m.to_csc();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
        assert_eq!(t.col_indices(3), &[0, 2]); // column 3 has rows 0 and 2
        assert_eq!(t.col_values(3), &[4.0, 6.0]);
        assert_eq!(t.nnz(), m.nnz());
    }

    #[test]
    fn dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[0][1], 2.0);
        assert_eq!(d[2][3], 6.0);
        assert_eq!(d[1][3], 0.0);
    }

    #[test]
    fn density() {
        let m = sample();
        assert!((m.density() - 5.0 / 12.0).abs() < 1e-12);
        assert!((m.avg_row_nnz() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn layout_regions_disjoint() {
        let a = MatrixLayout::region(0);
        let b = MatrixLayout::region(1);
        assert!(a.value_base > a.index_base);
        assert!(b.index_base >= a.value_base + 0x0800_0000);
    }

    #[test]
    fn row_addresses_stride() {
        let m = sample();
        assert_eq!(m.row_index_addr(1), m.layout().index_base + 2 * 4);
        assert_eq!(m.row_value_addr(1), m.layout().value_base + 2 * 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn triplet_bounds_checked() {
        CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }
}
