//! Dense multi-vector blocks for multi-RHS kernels.
//!
//! A [`BlockVectors`] is an `n×b` bundle of `b` vectors of length `n` in a
//! **single contiguous allocation, column-major**: column `j` (one vector)
//! occupies `data[j*n..(j+1)*n]`. Every per-column kernel therefore runs as
//! a stride-1 loop over a contiguous slice — the shape the autovectorizer
//! turns into SIMD without any manual intrinsics — while block-level
//! kernels ([`block_axpy`], [`block_dot`], and the operators'
//! `apply_block`) amortize loop overhead and operand streaming across all
//! `b` columns.
//!
//! The block type and its kernels are generic over the element type
//! ([`Scalar`]): `BlockVectors` (the default, `f64`) for the solves and
//! `BlockVectors<f32>` for the mixed-precision inner solve, whose half-width
//! entries let the SpMM's node-major gather set fit L2 at twice the node
//! count. One body serves both.
//!
//! The per-column arithmetic deliberately matches the scalar kernels in
//! [`crate::vector`] operation-for-operation (same order of additions), so
//! a blocked computation is **bitwise identical** to running the scalar
//! path once per column. The sketch layer relies on this to keep blocked
//! and single-RHS builds interchangeable.

use crate::vector::{self, Scalar};

/// `b` vectors of length `n` in one contiguous column-major buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockVectors<T = f64> {
    n: usize,
    b: usize,
    data: Vec<T>,
}

impl<T: Scalar> BlockVectors<T> {
    /// An all-zero `n×b` block.
    pub fn zeros(n: usize, b: usize) -> Self {
        BlockVectors { n, b, data: vec![T::ZERO; n * b] }
    }

    /// The block in `slot` if it is `n×b`, else a fresh zero block; either
    /// way `slot` is left empty. Workspaces hand their buffers back and
    /// forth through this, so same-shape solves allocate once.
    pub(crate) fn reuse(slot: &mut Option<Self>, n: usize, b: usize) -> Self {
        match slot.take() {
            Some(block) if block.n == n && block.b == b => block,
            _ => Self::zeros(n, b),
        }
    }

    /// Bundle `columns` (each of length `n`) into a block.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or ragged.
    pub fn from_columns(columns: &[Vec<T>]) -> Self {
        assert!(!columns.is_empty(), "block needs at least one column");
        let n = columns[0].len();
        let mut data = Vec::with_capacity(n * columns.len());
        for c in columns {
            assert_eq!(c.len(), n, "ragged block columns");
            data.extend_from_slice(c);
        }
        BlockVectors { n, b: columns.len(), data }
    }

    /// Vector length `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the vectors have zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of columns `b` (the block width).
    #[inline]
    pub fn block_size(&self) -> usize {
        self.b
    }

    /// Borrow column `j` as a contiguous slice.
    #[inline]
    pub fn column(&self, j: usize) -> &[T] {
        &self.data[j * self.n..(j + 1) * self.n]
    }

    /// Mutably borrow column `j` as a contiguous slice.
    #[inline]
    pub fn column_mut(&mut self, j: usize) -> &mut [T] {
        &mut self.data[j * self.n..(j + 1) * self.n]
    }

    /// The whole column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the whole column-major buffer (entry `(i, j)` at
    /// `i + j*n`) — the SpMM kernels write through this to avoid
    /// re-slicing per matrix row.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Copy column `j` out as an owned vector.
    pub fn column_to_vec(&self, j: usize) -> Vec<T> {
        self.column(j).to_vec()
    }

    /// Overwrite column `j` from a slice.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_column(&mut self, j: usize, src: &[T]) {
        self.column_mut(j).copy_from_slice(src);
    }

    /// Transpose into a *node-major* scratch buffer: entry `(i, j)` of the
    /// block lands at `out[i*b + j]`, so all `b` values for row `i` are
    /// contiguous. The SpMM kernels gather through this layout — one or two
    /// cache lines per matrix entry instead of `b` scattered lines.
    pub fn transpose_into(&self, out: &mut Vec<T>) {
        out.resize(self.n * self.b, T::ZERO);
        for j in 0..self.b {
            let col = &self.data[j * self.n..(j + 1) * self.n];
            for (i, &x) in col.iter().enumerate() {
                out[i * self.b + j] = x;
            }
        }
    }
}

/// Fused multi-RHS axpy: `y_j += alphas[j] * x_j` for every column `j`
/// with `active[j]`. Each column is the same stride-1 loop as
/// [`vector::axpy`], so results are bitwise identical to the scalar call.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn block_axpy<T: Scalar>(
    alphas: &[T],
    x: &BlockVectors<T>,
    y: &mut BlockVectors<T>,
    active: &[bool],
) {
    assert_eq!(x.n, y.n, "block_axpy: length mismatch");
    assert_eq!(x.b, y.b, "block_axpy: block width mismatch");
    assert_eq!(alphas.len(), x.b, "block_axpy: coefficient count");
    assert_eq!(active.len(), x.b, "block_axpy: mask length");
    for j in 0..x.b {
        if active[j] {
            vector::axpy(alphas[j], x.column(j), y.column_mut(j));
        }
    }
}

/// Fused multi-RHS dot: `out[j] = x_j · y_j` for every column `j` with
/// `active[j]` (inactive entries are left untouched), accumulated in
/// `f64`. Per-column summation order matches [`vector::dot`] exactly.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn block_dot<T: Scalar>(
    x: &BlockVectors<T>,
    y: &BlockVectors<T>,
    out: &mut [f64],
    active: &[bool],
) {
    assert_eq!(x.n, y.n, "block_dot: length mismatch");
    assert_eq!(x.b, y.b, "block_dot: block width mismatch");
    assert_eq!(out.len(), x.b, "block_dot: output length");
    assert_eq!(active.len(), x.b, "block_dot: mask length");
    for j in 0..x.b {
        if active[j] {
            out[j] = vector::dot(x.column(j), y.column(j));
        }
    }
}

/// Fused multi-RHS direction update: `y_j = x_j + betas[j] * y_j` for
/// every column `j` with `active[j]` (the CG search-direction recurrence).
/// Per-column arithmetic matches [`vector::xpby`] exactly.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn block_xpby<T: Scalar>(
    x: &BlockVectors<T>,
    betas: &[T],
    y: &mut BlockVectors<T>,
    active: &[bool],
) {
    assert_eq!(x.n, y.n, "block_xpby: length mismatch");
    assert_eq!(x.b, y.b, "block_xpby: block width mismatch");
    assert_eq!(betas.len(), x.b, "block_xpby: coefficient count");
    assert_eq!(active.len(), x.b, "block_xpby: mask length");
    for j in 0..x.b {
        if active[j] {
            vector::xpby(x.column(j), betas[j], y.column_mut(j));
        }
    }
}

/// [`block_xpby`] fused with a node-major mirror refresh: for every active
/// column `j`, compute `y_j = x_j + betas[j] * y_j` and store each updated
/// entry into `mirror[i*b + j]` in the same pass. The block-CG loop keeps
/// the SpMM's node-major gather buffer current this way instead of
/// re-transposing the whole direction block every iteration; frozen
/// columns go stale in `y` and `mirror` together, so the mirror is an
/// exact transpose of `y` at every operator application.
///
/// The per-element arithmetic is exactly [`vector::xpby`]'s
/// (`x + beta * y`), preserving the bitwise contract.
///
/// # Panics
///
/// Panics on shape mismatch, including `mirror.len() != n * b`.
pub fn block_xpby_mirror<T: Scalar>(
    x: &BlockVectors<T>,
    betas: &[T],
    y: &mut BlockVectors<T>,
    active: &[bool],
    mirror: &mut [T],
) {
    assert_eq!(x.n, y.n, "block_xpby_mirror: length mismatch");
    assert_eq!(x.b, y.b, "block_xpby_mirror: block width mismatch");
    assert_eq!(betas.len(), x.b, "block_xpby_mirror: coefficient count");
    assert_eq!(active.len(), x.b, "block_xpby_mirror: mask length");
    assert_eq!(mirror.len(), x.n * x.b, "block_xpby_mirror: mirror size");
    let b = x.b;
    for j in 0..b {
        if !active[j] {
            continue;
        }
        let beta = betas[j];
        let xc = x.column(j);
        let yc = y.column_mut(j);
        for i in 0..yc.len() {
            let v = xc[i] + beta * yc[i];
            yc[i] = v;
            mirror[i * b + j] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let cols = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let b = BlockVectors::from_columns(&cols);
        assert_eq!(b.len(), 3);
        assert_eq!(b.block_size(), 2);
        assert_eq!(b.column(0), &[1.0, 2.0, 3.0]);
        assert_eq!(b.column(1), &[4.0, 5.0, 6.0]);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(b.column_to_vec(1), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn zeros_and_set_column() {
        let mut b = BlockVectors::zeros(2, 3);
        assert!(b.as_slice().iter().all(|&x| x == 0.0));
        b.set_column(1, &[7.0, 8.0]);
        assert_eq!(b.column(1), &[7.0, 8.0]);
        assert_eq!(b.column(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_columns_rejected() {
        let _ = BlockVectors::from_columns(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn transpose_is_node_major() {
        let b = BlockVectors::from_columns(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut t = Vec::new();
        b.transpose_into(&mut t);
        // Row 0 = (1, 3), row 1 = (2, 4).
        assert_eq!(t, vec![1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn fused_kernels_match_scalar() {
        let x = BlockVectors::from_columns(&[vec![1.0, -2.0, 0.5], vec![3.0, 1.0, -1.0]]);
        let mut y = BlockVectors::from_columns(&[vec![1.0, 1.0, 1.0], vec![2.0, 2.0, 2.0]]);
        let mut expect0 = y.column_to_vec(0);
        vector::axpy(0.5, x.column(0), &mut expect0);
        block_axpy(&[0.5, 2.0], &x, &mut y, &[true, false]);
        assert_eq!(y.column(0), expect0.as_slice());
        // Masked column untouched.
        assert_eq!(y.column(1), &[2.0, 2.0, 2.0]);

        let mut dots = [f64::NAN, 7.0];
        block_dot(&x, &y, &mut dots, &[true, false]);
        assert_eq!(dots[0], vector::dot(x.column(0), y.column(0)));
        assert_eq!(dots[1], 7.0, "inactive slot untouched");
    }

    #[test]
    fn xpby_mirror_is_bitwise_fused_xpby_plus_transpose() {
        // Awkward values so any reassociation would flip bits.
        let x = BlockVectors::from_columns(&[
            vec![0.1, -2.7, 1e-9, 3.33],
            vec![7.0, 0.0, -0.125, 1e12],
            vec![std::f64::consts::PI, -1.0, 2.5, 0.75],
        ]);
        let betas = [0.3, -1.75, 1e-6];
        let active = [true, false, true];
        let y0 = BlockVectors::from_columns(&[
            vec![1.0, 2.0, 3.0, 4.0],
            vec![-1.0, -2.0, -3.0, -4.0],
            vec![0.5, 0.25, 0.125, 0.0625],
        ]);

        // Reference: unfused kernel, then a full transpose.
        let mut y_ref = y0.clone();
        block_xpby(&x, &betas, &mut y_ref, &active);
        let mut mirror_ref = Vec::new();
        y_ref.transpose_into(&mut mirror_ref);

        // Fused: mirror starts as the transpose of the pre-update block
        // (the inactive column's lane must stay at its stale value).
        let mut y = y0.clone();
        let mut mirror = Vec::new();
        y.transpose_into(&mut mirror);
        block_xpby_mirror(&x, &betas, &mut y, &active, &mut mirror);

        assert_eq!(y.as_slice(), y_ref.as_slice());
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&mirror), bits(&mirror_ref));
    }
}
