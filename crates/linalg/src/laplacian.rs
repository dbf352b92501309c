//! Graph Laplacian representations: matrix-free operator, CSR, dense, and
//! the dense pseudoinverse `L† = (L + J/n)⁻¹ − J/n` (paper, §III-B).
//!
//! The operator's blocked SpMM is one const-width sweep and one
//! dynamic-width sweep, each generic over the block's element type
//! ([`Scalar`]) and over the adjacency it walks (the graph's `usize` CSR
//! or a [`CompactAdjacency`]'s `u32` mirror), monomorphized for every
//! combination in use.

use reecc_graph::Graph;

use crate::block::BlockVectors;
use crate::dense::DenseMatrix;
use crate::sparse::CsrMatrix;
use crate::vector::Scalar;
use crate::LinalgError;

/// Width-compact (`u32`) mirror of a graph's CSR adjacency for blocked
/// sweeps.
///
/// The graph stores neighbor indices as `usize` — 8 bytes each on 64-bit
/// targets. A blocked sweep streams the whole directed-edge list once per
/// iteration, and on large graphs that index stream, not the node-major
/// lane gather it amortizes, dominates memory traffic (at n = 80 000 with
/// ~2.4 M edges it is ~38 MB per sweep). Re-encoding offsets and neighbors
/// as `u32` halves the dominant stream. Index width never enters
/// floating-point arithmetic — neighbor order and per-column accumulation
/// order are exactly those of the graph's own adjacency — so sweeps
/// through the mirror are bitwise identical in both f64 and f32.
///
/// Build once per solve batch (`O(n + m)`, about one sweep's worth of
/// work) and attach with [`LaplacianOp::with_compact`]; the mirror is
/// immutable and `Sync`, so one instance serves every worker thread.
#[derive(Debug, Clone)]
pub struct CompactAdjacency {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl CompactAdjacency {
    /// Mirror `g`'s adjacency in `u32`, or `None` when the graph is too
    /// large for 32-bit indexing (node or directed-edge count overflowing
    /// `u32` — callers fall back to the plain sweeps).
    pub fn try_new(g: &Graph) -> Option<Self> {
        let n = g.node_count();
        let entries: usize = (0..n).map(|u| g.degree(u)).sum();
        if n >= u32::MAX as usize || entries > u32::MAX as usize {
            return None;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(entries);
        offsets.push(0u32);
        for u in 0..n {
            neighbors.extend(g.neighbors(u).iter().map(|&v| v as u32));
            offsets.push(neighbors.len() as u32);
        }
        Some(CompactAdjacency { offsets, neighbors })
    }

    /// Number of nodes the mirror covers.
    pub fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total directed adjacency entries (`2m`).
    pub fn entry_count(&self) -> usize {
        self.neighbors.len()
    }
}

/// Matrix-free Laplacian `L = D − A` of a graph.
///
/// `apply` runs in `O(n + m)` straight off the CSR adjacency — no explicit
/// matrix is materialized, which keeps the CG solver's memory footprint at
/// a handful of length-`n` vectors.
///
/// Blocked sweeps optionally read a [`CompactAdjacency`] mirror instead of
/// the graph's `usize` adjacency (see [`Self::with_compact`]); the scalar
/// [`Self::apply`] always walks the graph directly.
#[derive(Debug, Clone, Copy)]
pub struct LaplacianOp<'g> {
    graph: &'g Graph,
    compact: Option<&'g CompactAdjacency>,
}

impl<'g> LaplacianOp<'g> {
    /// Wrap a graph.
    pub fn new(graph: &'g Graph) -> Self {
        LaplacianOp { graph, compact: None }
    }

    /// Wrap a graph and route blocked sweeps through a prebuilt `u32`
    /// adjacency mirror. Bitwise-identical to [`Self::new`] in every
    /// output; only the bytes streamed per sweep change.
    ///
    /// # Panics
    ///
    /// Panics when the mirror was built from a different graph (node or
    /// directed-entry count mismatch).
    pub fn with_compact(graph: &'g Graph, compact: &'g CompactAdjacency) -> Self {
        assert_eq!(
            compact.node_count(),
            graph.node_count(),
            "compact adjacency built from a different graph (node count)",
        );
        assert_eq!(
            compact.entry_count(),
            (0..graph.node_count()).map(|u| graph.degree(u)).sum::<usize>(),
            "compact adjacency built from a different graph (entry count)",
        );
        LaplacianOp { graph, compact: Some(compact) }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Operator order `n`.
    pub fn order(&self) -> usize {
        self.graph.node_count()
    }

    /// `y = L x`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply(&self, x: &[f64], y: &mut [f64]) {
        let n = self.graph.node_count();
        assert_eq!(x.len(), n, "laplacian apply: input dimension");
        assert_eq!(y.len(), n, "laplacian apply: output dimension");
        for u in 0..n {
            let mut acc = self.graph.degree(u) as f64 * x[u];
            for &v in self.graph.neighbors(u) {
                acc -= x[v];
            }
            y[u] = acc;
        }
    }

    /// Degree of node `i` (the diagonal of `L`), used by the Jacobi
    /// preconditioner.
    pub fn diagonal(&self, i: usize) -> f64 {
        self.graph.degree(i) as f64
    }

    /// SpMM: `Y = L X` for a block of `b` vectors in **one sweep over the
    /// adjacency**, amortizing the offset/neighbor streaming that
    /// [`Self::apply`] pays once per vector.
    ///
    /// `x` is first transposed into `scratch` (node-major: all `b` values
    /// of node `v` contiguous), so the per-neighbor gather touches one or
    /// two cache lines and the inner loop over columns is stride-1. The
    /// `b` accumulator chains are independent, which also unlocks
    /// instruction-level parallelism the single-accumulator scalar sweep
    /// cannot reach. Per column, additions happen in exactly the order of
    /// [`Self::apply`], so each output column of an `f64` block is bitwise
    /// identical to a scalar apply of that column; an `f32` block runs the
    /// same sequence in `f32`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply_block<T: Scalar>(
        &self,
        x: &BlockVectors<T>,
        y: &mut BlockVectors<T>,
        scratch: &mut Vec<T>,
    ) {
        let n = self.graph.node_count();
        assert_eq!(x.len(), n, "laplacian apply_block: input dimension");
        assert_eq!(y.len(), n, "laplacian apply_block: output dimension");
        let b = x.block_size();
        assert_eq!(y.block_size(), b, "laplacian apply_block: block width");
        x.transpose_into(scratch);
        self.apply_interleaved_into(scratch, y.as_mut_slice(), b, n);
    }

    /// Apply to a block whose input is *already* node-major (`xt[v*b + j]`),
    /// writing the column-major result into `y`. This is
    /// [`Self::apply_block`] minus the transpose: block CG maintains a
    /// node-major mirror of its direction block (see
    /// [`crate::block::block_xpby_mirror`]) so the per-iteration transpose
    /// disappears entirely.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply_node_major<T: Scalar>(&self, xt: &[T], y: &mut BlockVectors<T>) {
        let n = self.graph.node_count();
        assert_eq!(y.len(), n, "laplacian apply_node_major: output dimension");
        let b = y.block_size();
        assert_eq!(xt.len(), n * b, "laplacian apply_node_major: input size");
        self.apply_interleaved_into(xt, y.as_mut_slice(), b, n);
    }

    /// Sweep core shared by [`Self::apply_block`] and
    /// [`Self::apply_node_major`]: `xt` is node-major (`xt[v*b + j]`),
    /// output written column-major into `yd`, walking the compact mirror
    /// when one is attached.
    fn apply_interleaved_into<T: Scalar>(&self, xt: &[T], yd: &mut [T], b: usize, n: usize) {
        match self.compact {
            Some(adj) => sweep(adj, xt, yd, b, n),
            None => sweep(self.graph, xt, yd, b, n),
        }
    }
}

/// A CSR adjacency the blocked sweeps can walk: the graph's own `usize`
/// lists or a [`CompactAdjacency`]'s `u32` mirror. Only the index loads
/// differ; neighbor order is the graph's in both.
trait Adjacency {
    /// Stored neighbor index.
    type Index: Copy;
    /// Node `u`'s neighbors, in the graph's order.
    fn row(&self, u: usize) -> &[Self::Index];
    /// A stored index as a node id.
    fn node(v: Self::Index) -> usize;
}

impl Adjacency for Graph {
    type Index = usize;
    #[inline]
    fn row(&self, u: usize) -> &[usize] {
        self.neighbors(u)
    }
    #[inline]
    fn node(v: usize) -> usize {
        v
    }
}

impl Adjacency for CompactAdjacency {
    type Index = u32;
    #[inline]
    fn row(&self, u: usize) -> &[u32] {
        &self.neighbors[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }
    #[inline]
    fn node(v: u32) -> usize {
        v as usize
    }
}

/// One SpMM sweep `yd = L xt` at width `b`. Every width a sketch block can
/// take is monomorphized: `d` is rarely a multiple of the block size, so
/// the tail block lands on an odd width — leaving those to the
/// dynamic-trip-count sweep costs 2-3× on the tail (measured on the
/// large-tier bench).
fn sweep<T: Scalar, A: Adjacency>(adj: &A, xt: &[T], yd: &mut [T], b: usize, n: usize) {
    match b {
        1 => sweep_const::<T, A, 1>(adj, xt, yd, n),
        2 => sweep_const::<T, A, 2>(adj, xt, yd, n),
        3 => sweep_const::<T, A, 3>(adj, xt, yd, n),
        4 => sweep_const::<T, A, 4>(adj, xt, yd, n),
        5 => sweep_const::<T, A, 5>(adj, xt, yd, n),
        6 => sweep_const::<T, A, 6>(adj, xt, yd, n),
        7 => sweep_const::<T, A, 7>(adj, xt, yd, n),
        8 => sweep_const::<T, A, 8>(adj, xt, yd, n),
        16 => sweep_const::<T, A, 16>(adj, xt, yd, n),
        _ => sweep_dyn(adj, xt, yd, b, n),
    }
}

/// The const-width sweep: per column, the degree term first, then the
/// neighbors in CSR order — [`LaplacianOp::apply`]'s accumulation order.
/// The fixed lane count unrolls into SIMD.
fn sweep_const<T: Scalar, A: Adjacency, const B: usize>(
    adj: &A,
    xt: &[T],
    yd: &mut [T],
    n: usize,
) {
    for u in 0..n {
        let row = adj.row(u);
        let deg = T::from_count(row.len());
        let xu: &[T; B] = xt[u * B..(u + 1) * B].try_into().expect("width B");
        let mut acc = [T::ZERO; B];
        for j in 0..B {
            acc[j] = deg * xu[j];
        }
        for &v in row {
            let v = A::node(v);
            let xv: &[T; B] = xt[v * B..(v + 1) * B].try_into().expect("width B");
            for j in 0..B {
                acc[j] -= xv[j];
            }
        }
        for j in 0..B {
            yd[j * n + u] = acc[j];
        }
    }
}

/// [`sweep_const`] with a run-time width, for widths it does not cover.
fn sweep_dyn<T: Scalar, A: Adjacency>(adj: &A, xt: &[T], yd: &mut [T], b: usize, n: usize) {
    let mut acc = vec![T::ZERO; b];
    for u in 0..n {
        let row = adj.row(u);
        let deg = T::from_count(row.len());
        let xu = &xt[u * b..(u + 1) * b];
        for (a, &xj) in acc.iter_mut().zip(xu) {
            *a = deg * xj;
        }
        for &v in row {
            let v = A::node(v);
            let xv = &xt[v * b..(v + 1) * b];
            for (a, &xj) in acc.iter_mut().zip(xv) {
                *a -= xj;
            }
        }
        for (j, &a) in acc.iter().enumerate() {
            yd[j * n + u] = a;
        }
    }
}

/// Explicit CSR Laplacian.
pub fn laplacian_csr(g: &Graph) -> CsrMatrix {
    let n = g.node_count();
    let mut triplets = Vec::with_capacity(n + 2 * g.edge_count());
    for u in 0..n {
        triplets.push((u, u, g.degree(u) as f64));
        for &v in g.neighbors(u) {
            triplets.push((u, v, -1.0));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("indices in range by construction")
}

/// Explicit dense Laplacian (small graphs only).
pub fn laplacian_dense(g: &Graph) -> DenseMatrix {
    let n = g.node_count();
    let mut m = DenseMatrix::zeros(n, n);
    for u in 0..n {
        m[(u, u)] = g.degree(u) as f64;
        for &v in g.neighbors(u) {
            m[(u, v)] = -1.0;
        }
    }
    m
}

/// Dense Moore–Penrose pseudoinverse of the Laplacian of a *connected*
/// graph, via the paper's identity `L† = (L + J/n)⁻¹ − J/n`.
///
/// `L + J/n` is SPD for connected graphs, so Cholesky is attempted first;
/// if roundoff pushes a pivot non-positive (near-degenerate spectra), the
/// factorization falls back to partial-pivot LU, which tolerates the loss
/// of numerical definiteness. Cost is `O(n³)` time and `O(n²)` space —
/// exactly the EXACTQUERY preprocessing step.
///
/// # Errors
///
/// Returns a factorization error when the shifted matrix is singular even
/// under LU — in exact arithmetic that means the graph is disconnected.
pub fn laplacian_pseudoinverse(g: &Graph) -> Result<DenseMatrix, LinalgError> {
    let n = g.node_count();
    if n == 0 {
        return Ok(DenseMatrix::zeros(0, 0));
    }
    let inv_n = 1.0 / n as f64;
    let mut shifted = laplacian_dense(g);
    for i in 0..n {
        for j in 0..n {
            shifted[(i, j)] += inv_n;
        }
    }
    enum Factor {
        Chol(crate::dense::Cholesky),
        Lu(crate::dense::Lu),
    }
    let factor = match shifted.cholesky() {
        Ok(ch) => Factor::Chol(ch),
        Err(LinalgError::NotPositiveDefinite { .. }) => Factor::Lu(shifted.lu()?),
        Err(e) => return Err(e),
    };
    // Invert column by column: (L + J/n)^{-1} e_j, then subtract J/n.
    let mut pinv = DenseMatrix::zeros(n, n);
    let mut e = vec![0.0; n];
    for j in 0..n {
        e.iter_mut().for_each(|x| *x = 0.0);
        e[j] = 1.0;
        let col = match &factor {
            Factor::Chol(ch) => ch.solve(&e),
            Factor::Lu(lu) => lu.solve(&e),
        };
        for i in 0..n {
            pinv[(i, j)] = col[i] - inv_n;
        }
    }
    Ok(pinv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reecc_graph::generators::{complete, cycle, line, star};
    use reecc_graph::Graph;

    #[test]
    fn operator_matches_dense() {
        let g = cycle(6);
        let op = LaplacianOp::new(&g);
        let dense = laplacian_dense(&g);
        let x: Vec<f64> = (0..6).map(|i| (i as f64).sin()).collect();
        let mut y = vec![0.0; 6];
        op.apply(&x, &mut y);
        assert_eq!(y, dense.matvec(&x));
    }

    #[test]
    fn apply_block_is_bitwise_identical_to_scalar_applies() {
        let g = reecc_graph::generators::barabasi_albert(60, 3, 11);
        let op = LaplacianOp::new(&g);
        let cols: Vec<Vec<f64>> = (0..5)
            .map(|j| (0..60).map(|i| ((i * 7 + j * 13) as f64).sin()).collect())
            .collect();
        let x = BlockVectors::from_columns(&cols);
        let mut y = BlockVectors::zeros(60, 5);
        let mut scratch = Vec::new();
        op.apply_block(&x, &mut y, &mut scratch);
        let mut expect = vec![0.0; 60];
        for (j, c) in cols.iter().enumerate() {
            op.apply(c, &mut expect);
            assert_eq!(y.column(j), expect.as_slice(), "column {j}");
        }
    }

    #[test]
    fn compact_sweeps_are_bitwise_identical_to_plain() {
        // Every width class (const-monomorphized 2/4/8/16 and the dynamic
        // fallback), both precisions: the u32 mirror must reproduce the
        // plain sweep bit for bit.
        let g = reecc_graph::generators::barabasi_albert(80, 4, 5);
        let n = g.node_count();
        let adj = CompactAdjacency::try_new(&g).expect("fits u32");
        assert_eq!(adj.node_count(), n);
        assert_eq!(adj.entry_count(), (0..n).map(|u| g.degree(u)).sum::<usize>());
        let plain = LaplacianOp::new(&g);
        let compact = LaplacianOp::with_compact(&g, &adj);
        for b in [2usize, 3, 4, 8, 16] {
            let cols: Vec<Vec<f64>> = (0..b)
                .map(|j| (0..n).map(|i| ((i * 13 + j * 7 + 1) as f64).cos()).collect())
                .collect();
            let x = BlockVectors::from_columns(&cols);
            let mut xt = Vec::new();
            x.transpose_into(&mut xt);
            let mut y_plain = BlockVectors::zeros(n, b);
            let mut y_compact = BlockVectors::zeros(n, b);
            plain.apply_node_major(&xt, &mut y_plain);
            compact.apply_node_major(&xt, &mut y_compact);
            assert_eq!(y_plain.as_slice(), y_compact.as_slice(), "f64 width {b}");
            let xt32: Vec<f32> = xt.iter().map(|&v| v as f32).collect();
            let mut y32_plain = BlockVectors::<f32>::zeros(n, b);
            let mut y32_compact = BlockVectors::<f32>::zeros(n, b);
            plain.apply_node_major(&xt32, &mut y32_plain);
            compact.apply_node_major(&xt32, &mut y32_compact);
            assert_eq!(y32_plain.as_slice(), y32_compact.as_slice(), "f32 width {b}");
        }
    }

    #[test]
    fn csr_matches_dense() {
        let g = star(7);
        let csr = laplacian_csr(&g);
        let dense = laplacian_dense(&g);
        assert_eq!(csr.to_dense(), dense);
        assert_eq!(csr.nnz(), 7 + 2 * 6);
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let g = line(5);
        let dense = laplacian_dense(&g);
        for i in 0..5 {
            let s: f64 = dense.row(i).iter().sum();
            assert!(s.abs() < 1e-15);
        }
    }

    #[test]
    fn laplacian_annihilates_ones() {
        let g = complete(5);
        let op = LaplacianOp::new(&g);
        let ones = vec![1.0; 5];
        let mut y = vec![0.0; 5];
        op.apply(&ones, &mut y);
        assert!(y.iter().all(|v| v.abs() < 1e-15));
    }

    #[test]
    fn pseudoinverse_properties() {
        // Verify the Moore-Penrose identities L L† L = L and L† L L† = L†
        // plus symmetry and 1ᵀ L† = 0 on a small graph.
        let g = line(4);
        let l = laplacian_dense(&g);
        let p = laplacian_pseudoinverse(&g).unwrap();
        let llp = l.matmul(&p).unwrap().matmul(&l).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert!((llp[(i, j)] - l[(i, j)]).abs() < 1e-10, "L L† L != L at ({i},{j})");
                assert!((p[(i, j)] - p[(j, i)]).abs() < 1e-10, "L† not symmetric");
            }
        }
        for j in 0..4 {
            let colsum: f64 = (0..4).map(|i| p[(i, j)]).sum();
            assert!(colsum.abs() < 1e-10, "column {j} of L† not orthogonal to 1");
        }
    }

    #[test]
    fn pseudoinverse_of_k2() {
        // For K2, L = [[1,-1],[-1,1]], eigenvalue 2 on (1,-1)/sqrt(2), so
        // L† = [[1/4,-1/4],[-1/4,1/4]].
        let g = complete(2);
        let p = laplacian_pseudoinverse(&g).unwrap();
        assert!((p[(0, 0)] - 0.25).abs() < 1e-12);
        assert!((p[(0, 1)] + 0.25).abs() < 1e-12);
    }

    #[test]
    fn pseudoinverse_of_disconnected_graph_errors() {
        // The shifted matrix is exactly singular for disconnected graphs;
        // the Cholesky → LU ladder must report an error, not return garbage.
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(laplacian_pseudoinverse(&g).is_err());
    }

    #[test]
    fn pseudoinverse_empty_graph() {
        let g = Graph::from_edges(0, []).unwrap();
        let p = laplacian_pseudoinverse(&g).unwrap();
        assert_eq!(p.rows(), 0);
    }
}
