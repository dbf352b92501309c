//! Compressed sparse row matrices.
//!
//! Used for generic SpMV; the Laplacian itself usually goes through the
//! matrix-free [`crate::laplacian::LaplacianOp`], but a CSR form is handy
//! for tests and for callers that want explicit matrices.

use crate::LinalgError;

/// A CSR sparse matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_offsets: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from COO triplets; duplicate entries are summed, and entries
    /// whose merged value is exactly `0.0` are dropped (duplicates that
    /// cancel, or explicit zeros, would otherwise inflate [`Self::nnz`]
    /// and pay SpMV work for nothing).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if any index is out of range.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, LinalgError> {
        for &(r, c, _) in triplets {
            if r >= rows || c >= cols {
                return Err(LinalgError::DimensionMismatch {
                    context: format!("triplet ({r},{c}) outside {rows}x{cols}"),
                });
            }
        }
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // Merge duplicate (row, col) entries in one pass.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some((lr, lc, lv)) if *lr == r && *lc == c => *lv += v,
                _ => merged.push((r, c, v)),
            }
        }
        // Drop stored zeros after merging (NaN is kept: it is a data error
        // the caller should see, not a structural zero).
        merged.retain(|&(_, _, v)| v != 0.0);
        let mut row_offsets = vec![0usize; rows + 1];
        for &(r, _, _) in &merged {
            row_offsets[r + 1] += 1;
        }
        for i in 0..rows {
            row_offsets[i + 1] += row_offsets[i];
        }
        let col_indices = merged.iter().map(|&(_, c, _)| c).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();
        Ok(CsrMatrix { rows, cols, row_offsets, col_indices, values })
    }

    /// Row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structural) non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let span = self.row_offsets[i]..self.row_offsets[i + 1];
        (&self.col_indices[span.clone()], &self.values[span])
    }

    /// Entry lookup, `O(log nnz_row)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// SpMV: `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "spmv: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// SpMV into a pre-allocated output buffer.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "spmv: input dimension mismatch");
        assert_eq!(y.len(), self.rows, "spmv: output dimension mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x[c];
            }
            *yi = acc;
        }
    }

    /// Dense representation (tests / small matrices only).
    pub fn to_dense(&self) -> crate::DenseMatrix {
        let mut m = crate::DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                m[(i, c)] = v;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_sorted_rows() {
        let m =
            CsrMatrix::from_triplets(3, 3, &[(2, 0, 5.0), (0, 1, 2.0), (1, 1, 3.0)]).unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 1), 3.0);
        assert_eq!(m.get(2, 0), 5.0);
        assert_eq!(m.get(2, 2), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let m =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5), (1, 1, 1.0)]).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 3.5);
    }

    #[test]
    fn cancelling_duplicates_are_dropped() {
        // (0,0) sums to exactly zero and must not be stored; the explicit
        // zero at (1,0) must not be stored either.
        let m = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (0, 0, -1.0), (1, 0, 0.0), (1, 1, 2.0)],
        )
        .unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(1, 1), 2.0);
        let (cols0, _) = m.row(0);
        assert!(cols0.is_empty(), "cancelled row must be structurally empty");
        // SpMV through the pruned structure matches the dense product.
        let y = m.matvec(&[3.0, 4.0]);
        assert_eq!(y, vec![0.0, 8.0]);
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn spmv_matches_dense() {
        let m = CsrMatrix::from_triplets(
            3,
            3,
            &[(0, 0, 2.0), (0, 2, -1.0), (1, 1, 4.0), (2, 0, 1.0), (2, 2, 3.0)],
        )
        .unwrap();
        let x = [1.0, 2.0, 3.0];
        let y = m.matvec(&x);
        let yd = m.to_dense().matvec(&x);
        assert_eq!(y, yd);
        assert_eq!(y, vec![-1.0, 8.0, 10.0]);
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(4, 4, &[(0, 0, 1.0), (3, 3, 1.0)]).unwrap();
        let y = m.matvec(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(y, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn row_accessor() {
        let m = CsrMatrix::from_triplets(2, 3, &[(1, 0, 1.0), (1, 2, 2.0)]).unwrap();
        let (cols, vals) = m.row(1);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[1.0, 2.0]);
        let (cols0, _) = m.row(0);
        assert!(cols0.is_empty());
    }
}
