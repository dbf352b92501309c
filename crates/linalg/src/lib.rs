#![warn(missing_docs)]
//! # reecc-linalg
//!
//! Linear-algebra substrate for the resistance-eccentricity library.
//!
//! The paper relies on two numerical engines:
//!
//! 1. **Dense pseudoinverse** of the graph Laplacian,
//!    `L† = (L + J/n)⁻¹ − J/n`, used by EXACTQUERY and by the exact
//!    optimizers on small graphs. Provided by [`dense`] (Cholesky / LU) and
//!    [`laplacian::laplacian_pseudoinverse`].
//! 2. **Fast Laplacian solves** `L x = b` (with `b ⊥ 1`), used by the
//!    APPROXER sketch. The paper uses an `Õ(m)` SDD solver; the Rust
//!    ecosystem has no mature equivalent, so this crate hand-rolls a
//!    preconditioned Conjugate Gradient ([`cg`]) operating on the subspace
//!    orthogonal to the all-ones vector, with a Jacobi (degree)
//!    preconditioner. See DESIGN.md §3 for the substitution rationale.
//!
//! [`jl`] provides the Johnson–Lindenstrauss random-sign projection used to
//! compress the edge dimension, and [`sparse`] a CSR matrix with SpMV for
//! generic operators.
//!
//! [`block`] and [`block_cg`] form the multi-RHS kernel layer: contiguous
//! column-major vector blocks with fused stride-1 kernels, the SpMM-style
//! [`LaplacianOp::apply_block`], and a lockstep blocked CG whose
//! per-column arithmetic is bitwise identical to [`cg::solve_laplacian`]
//! — the sketch build solves its JL rows in blocks through this path.
//! Each kernel of that stack (block type, block and vector kernels, SpMM
//! sweeps, Chebyshev and per-column preconditioner applies, the lockstep
//! loop) has one body, generic over the storage precision
//! ([`vector::Scalar`]: `f64`, or `f32` for the mixed-precision inner
//! solve) and, for the sweeps, over the adjacency index (the graph's
//! `usize` lists or [`CompactAdjacency`]'s `u32` mirror). See DESIGN.md §9
//! and §14.
//!
//! [`recovery`] wraps the CG solver in a fault-tolerant escalation ladder
//! (Chebyshev polynomial rung → stronger smoothing preconditioner →
//! relaxed tolerance/boosted budget → size-gated dense pseudoinverse),
//! recording every attempt in a [`SolveReport`] so downstream layers can
//! degrade gracefully instead of silently returning garbage.
//!
//! [`precond`] is the preconditioning layer beneath the block kernels: a
//! matrix-free scaled-Chebyshev polynomial preconditioner (blockwise,
//! riding the fused SpMM lanes) and the Identity/Jacobi/SGS column apply
//! shared by the scalar and block solvers. The mixed-precision solve
//! ([`block_cg::solve_laplacian_block_mixed`]) runs the lockstep loop in
//! `f32` under an `f64` iterative refinement. See DESIGN.md §14.
//!
//! [`par`] is the workspace's one fork-join primitive
//! ([`par::fork_join`]) and the one reading of a `threads: 0` knob
//! ([`par::resolve_threads`]); every data-parallel loop above this crate
//! splits its work through it.

pub mod block;
pub mod block_cg;
pub mod cg;
pub mod dense;
pub mod eigen;
pub mod jl;
pub mod laplacian;
pub mod par;
pub mod precond;
pub mod recovery;
pub mod sparse;
pub mod vector;

pub use block::{block_axpy, block_dot, block_xpby, block_xpby_mirror, BlockVectors};
pub use block_cg::{
    solve_laplacian_block, solve_laplacian_block_mixed, BlockCgOutcome, BlockCgWorkspace,
};
pub use cg::{CgOptions, CgOutcome, Preconditioner};
pub use dense::DenseMatrix;
pub use eigen::{lambda2_estimate, lambda_max_estimate, EigenEstimate, EigenOptions};
pub use laplacian::{
    laplacian_csr, laplacian_dense, laplacian_pseudoinverse, CompactAdjacency, LaplacianOp,
};
pub use precond::{resolve_preconditioner, scaled_lambda_max_estimate, ChebyshevConfig};
pub use recovery::{
    solve_laplacian_checked, solve_laplacian_with_recovery, RecoveryPolicy, RecoverySolver,
    SolveAttempt, SolveMethod, SolveReport,
};
pub use sparse::CsrMatrix;

/// Errors from numerical routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Matrix dimensions were incompatible with the operation.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        context: String,
    },
    /// A factorization failed (matrix not positive definite).
    NotPositiveDefinite {
        /// Pivot index where the failure occurred.
        pivot: usize,
    },
    /// Singular matrix encountered during LU elimination.
    Singular {
        /// Pivot index where the failure occurred.
        pivot: usize,
    },
    /// CG failed to reach the requested tolerance within the iteration cap.
    DidNotConverge {
        /// Iterations performed.
        iterations: usize,
        /// Final relative residual.
        residual: f64,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::Singular { pivot } => write!(f, "singular matrix (pivot {pivot})"),
            LinalgError::DidNotConverge { iterations, residual } => write!(
                f,
                "conjugate gradient did not converge: {iterations} iterations, residual {residual:.3e}"
            ),
        }
    }
}

impl std::error::Error for LinalgError {}
