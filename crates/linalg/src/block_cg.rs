//! Multi-RHS blocked Conjugate Gradient for Laplacian systems.
//!
//! [`solve_laplacian_block`] runs `b` *independent* preconditioned CG
//! recurrences in lockstep: each column keeps its own `α`, `β`, residual,
//! and convergence flag, but the expensive operator application is fused
//! into one [`LaplacianOp::apply_node_major`] sweep over the adjacency
//! (gathering from a node-major mirror of the direction block that the
//! fused xpby keeps current, so no per-iteration transpose), and the
//! vector updates go through the fused stride-1 block kernels in
//! [`crate::block`].
//!
//! **Bitwise contract.** This is deliberately *not* a classical block-CG
//! with a shared search subspace — sharing directions would change the
//! iterates. Every column executes exactly the floating-point operation
//! sequence of the scalar [`solve_laplacian`]: per-column dots in the same
//! summation order, the same `% 64` null-space re-projection cadence
//! (columns start together and frozen columns stop counting, so a column's
//! private iteration count always equals the global one while it is
//! active), and the same breakdown/early-exit points. A column that
//! converges — or breaks down — is *masked out*: its iterate is frozen at
//! exactly the vector scalar CG would have returned, and the remaining
//! columns keep iterating. The speedup comes from amortized memory
//! traffic and instruction-level parallelism, never from different
//! arithmetic, which is what lets the sketch layer guarantee
//! blocked-vs-scalar builds are bitwise identical.
//!
//! The masked lockstep loop is written once, generic over the storage
//! precision ([`Scalar`]): [`solve_laplacian_block`] runs it in `f64`, and
//! [`solve_laplacian_block_mixed`] runs it in `f32` as the correction
//! solve of an `f64` iterative refinement. In `f32` the reductions still
//! accumulate in `f64` and every coefficient is computed in `f64` and
//! rounded once.
//!
//! Columns that stall (budget exhausted, breakdown, non-finite residual)
//! are reported per column via [`BlockCgOutcome`], so the caller can hand
//! exactly those right-hand sides to the [`crate::recovery`] escalation
//! ladder — the block layer does not duplicate any recovery logic.
//!
//! [`solve_laplacian`]: crate::cg::solve_laplacian

use crate::block::{block_axpy, block_dot, block_xpby_mirror, BlockVectors};
use crate::cg::{CgOptions, Preconditioner};
use crate::laplacian::LaplacianOp;
use crate::precond::{apply_column_preconditioner, chebyshev_apply_block, BlockPrecondScratch};
use crate::vector::{self, Scalar};

/// Relative-residual target of each f32 correction solve of
/// [`solve_laplacian_block_mixed`]. f32 bottoms out around `1e-6`; `1e-4`
/// leaves headroom while still contracting the outer residual by ~4
/// digits per round, so an `1e-8` outer tolerance needs two rounds.
const MIXED_INNER_TOLERANCE: f64 = 1e-4;

/// Cap on refinement rounds (correction solves per column). Generous:
/// healthy columns need 2–3; a column still unconverged here is frozen
/// for the caller's f64 recovery ladder.
const MIXED_MAX_ROUNDS: usize = 40;

/// A round must shrink a column's relative residual below this factor
/// times the previous one, or the column is frozen as stalled (f32 has hit
/// its accuracy floor for that column) and left to the f64 ladder.
const MIXED_PROGRESS_FACTOR: f64 = 0.9;

/// Outcome of a blocked multi-RHS solve: per-column solutions and
/// per-column solver telemetry (mirroring [`crate::cg::CgOutcome`]).
#[derive(Debug, Clone)]
pub struct BlockCgOutcome {
    /// Column `j` is the (mean-zero) solution for right-hand side `j`.
    pub solutions: BlockVectors,
    /// Iterations each column performed before converging or freezing.
    pub iterations: Vec<usize>,
    /// Final relative residual `‖b_j − L x_j‖ / ‖b_j‖` per column.
    pub relative_residual: Vec<f64>,
    /// Whether each column met the tolerance.
    pub converged: Vec<bool>,
}

impl BlockCgOutcome {
    /// Total CG iterations across all columns (solver-work telemetry).
    pub fn total_iterations(&self) -> usize {
        self.iterations.iter().sum()
    }
}

/// The buffers of one lockstep CG loop in precision `T`: four `n×b`
/// blocks, the node-major mirror of `p` that the SpMM gathers through
/// (transposed once per solve, then kept current by the fused xpby), and
/// the Chebyshev scratch.
#[derive(Debug, Default)]
struct LockstepScratch<T> {
    r: Option<BlockVectors<T>>,
    z: Option<BlockVectors<T>>,
    p: Option<BlockVectors<T>>,
    ap: Option<BlockVectors<T>>,
    node_major: Vec<T>,
    precond: BlockPrecondScratch<T>,
}

/// Reusable scratch for [`solve_laplacian_block`] and
/// [`solve_laplacian_block_mixed`]. Reused across blocks so a sketch build
/// allocates once per worker, not once per block; the f32 slots stay empty
/// in f64 mode.
#[derive(Debug, Default)]
pub struct BlockCgWorkspace {
    x: Option<BlockVectors>,
    cg64: LockstepScratch<f64>,
    cg32: LockstepScratch<f32>,
    rhs32: Option<BlockVectors<f32>>,
    e32: Option<BlockVectors<f32>>,
}

impl BlockCgWorkspace {
    /// Create an empty workspace (buffers are sized lazily per solve).
    pub fn new() -> Self {
        Self::default()
    }

    /// Hand a consumed solutions block back so the next same-shape solve
    /// reuses its storage instead of allocating a fresh `n×b` block. The
    /// candidate-evaluation engine calls this after reading each block's
    /// scores, which makes its steady state allocation-free.
    pub fn recycle_solutions(&mut self, solutions: BlockVectors) {
        self.x = Some(solutions);
    }
}

/// Apply the preconditioner to a residual block. Chebyshev goes blockwise
/// (one fused SpMM sweep per polynomial step serves all columns — the
/// whole point of the polynomial rung; frozen columns get a harmless
/// recompute that is never read), everything else per masked column. On an
/// f64 block both paths are bitwise identical per column to the scalar
/// application.
fn precondition_block<T: Scalar>(
    op: &LaplacianOp<'_>,
    precond: Preconditioner,
    r: &BlockVectors<T>,
    z: &mut BlockVectors<T>,
    mask: &[bool],
    scratch: &mut BlockPrecondScratch<T>,
) {
    match precond {
        Preconditioner::Chebyshev(cfg) => chebyshev_apply_block(op, cfg, r, z, scratch),
        other => {
            for (j, &on) in mask.iter().enumerate() {
                if on {
                    apply_column_preconditioner(op, other, r.column(j), z.column_mut(j));
                }
            }
        }
    }
}

/// Per-column telemetry of one [`lockstep_cg`] run.
struct LockstepStats {
    /// Iterations each column performed.
    iterations: Vec<usize>,
    /// Last relative residual per column: `1.0` for a started column that
    /// never reached the check, `0.0` for a column that never started.
    rel: Vec<f64>,
    /// Norm of each column's projected right-hand side; `0.0` for a
    /// column outside the mask or projecting to zero.
    b_norm: Vec<f64>,
}

/// The masked lockstep CG loop: solves `L x_j = rhs_j` from `x_j = 0` for
/// every column with `mask[j]`, each column projected onto `1⊥` exactly as
/// [`crate::cg::solve_laplacian`] does, until it meets `opts.tolerance`,
/// breaks down, or the loop reaches `opts.max_iterations` (`None` =
/// `10 * n + 100`). Columns outside the mask are left at zero.
fn lockstep_cg<T: Scalar>(
    op: &LaplacianOp<'_>,
    rhs: &BlockVectors<T>,
    x: &mut BlockVectors<T>,
    opts: CgOptions,
    mask: &[bool],
    s: &mut LockstepScratch<T>,
) -> LockstepStats {
    let n = op.order();
    let b = rhs.block_size();
    // A recycled block may carry stale iterates; CG starts from x = 0.
    x.as_mut_slice().fill(T::ZERO);
    let mut r = BlockVectors::reuse(&mut s.r, n, b);
    let mut z = BlockVectors::reuse(&mut s.z, n, b);
    let mut p = BlockVectors::reuse(&mut s.p, n, b);
    let mut ap = BlockVectors::reuse(&mut s.ap, n, b);

    // Per-column init, replicating the scalar preamble: project b, freeze
    // a column whose norm is zero (converged from the start), else seed
    // r/z/p and the rz product.
    let mut iterations = vec![0usize; b];
    let mut rel = vec![0.0f64; b];
    let mut active = mask.to_vec();
    let mut b_norm = vec![0.0f64; b];
    let mut rz = vec![0.0f64; b];
    for j in 0..b {
        if !active[j] {
            continue;
        }
        let rj = r.column_mut(j);
        rj.copy_from_slice(rhs.column(j));
        vector::project_out_ones(rj);
        b_norm[j] = vector::norm2(rj);
        if b_norm[j] == 0.0 {
            active[j] = false;
            continue;
        }
        rel[j] = 1.0;
    }
    precondition_block(op, opts.preconditioner, &r, &mut z, &active, &mut s.precond);
    for j in 0..b {
        if !active[j] {
            continue;
        }
        vector::project_out_ones(z.column_mut(j));
        p.set_column(j, z.column(j));
        rz[j] = vector::dot(r.column(j), z.column(j));
    }
    // Node-major mirror of `p` for the SpMM gather: transposed once here,
    // then kept current by the fused xpby below. Frozen columns go stale
    // in `p` and the mirror together, so mirror == p at every apply.
    p.transpose_into(&mut s.node_major);

    let max_iter = opts.max_iterations.unwrap_or(10 * n + 100);
    let mut alpha = vec![T::ZERO; b];
    let mut neg_alpha = vec![T::ZERO; b];
    let mut beta = vec![T::ZERO; b];
    let mut p_ap = vec![0.0f64; b];
    let mut r_dot = vec![0.0f64; b];
    let mut global_iter = 0usize;
    while global_iter < max_iter && active.iter().any(|&a| a) {
        global_iter += 1;
        // One adjacency sweep serves every column, gathering straight
        // from the node-major mirror (frozen columns get a harmless
        // recompute; their state is simply never read again).
        op.apply_node_major(&s.node_major, &mut ap);
        block_dot(&p, &ap, &mut p_ap, &active);
        // `step` = columns that take this iteration's x/r update; a
        // breakdown column freezes *before* the update, like the scalar
        // `break`.
        let mut step = active.clone();
        for j in 0..b {
            if !step[j] {
                continue;
            }
            iterations[j] += 1;
            if p_ap[j] <= 0.0 || !p_ap[j].is_finite() {
                step[j] = false;
                active[j] = false;
                continue;
            }
            alpha[j] = T::from_f64(rz[j] / p_ap[j]);
            neg_alpha[j] = -alpha[j];
        }
        block_axpy(&alpha, &p, x, &step);
        block_axpy(&neg_alpha, &ap, &mut r, &step);
        if global_iter % 64 == 0 {
            // All stepping columns share the same private iteration count,
            // so the drift re-projection fires for them simultaneously —
            // the same cadence each would see under scalar CG.
            for (j, &stepping) in step.iter().enumerate() {
                if stepping {
                    vector::project_out_ones(r.column_mut(j));
                    vector::project_out_ones(x.column_mut(j));
                }
            }
        }
        block_dot(&r, &r, &mut r_dot, &step);
        for j in 0..b {
            if !step[j] {
                continue;
            }
            rel[j] = r_dot[j].sqrt() / b_norm[j];
            if !rel[j].is_finite() || rel[j] <= opts.tolerance {
                // Poisoned or converged: freeze at this iterate, exactly
                // where the scalar loop breaks.
                step[j] = false;
                active[j] = false;
            }
        }
        precondition_block(op, opts.preconditioner, &r, &mut z, &step, &mut s.precond);
        block_dot(&r, &z, &mut r_dot, &step);
        for j in 0..b {
            if step[j] {
                beta[j] = T::from_f64(r_dot[j] / rz[j]);
                rz[j] = r_dot[j];
            }
        }
        block_xpby_mirror(&z, &beta, &mut p, &step, &mut s.node_major);
    }

    for (j, &on) in mask.iter().enumerate() {
        if on {
            vector::project_out_ones(x.column_mut(j));
        }
    }
    s.r = Some(r);
    s.z = Some(z);
    s.p = Some(p);
    s.ap = Some(ap);
    LockstepStats { iterations, rel, b_norm }
}

/// Solve `L X = B` column-by-column-in-lockstep for a connected graph's
/// Laplacian, each column projected onto `1⊥` exactly as
/// [`crate::cg::solve_laplacian`] does.
///
/// Never fails hard: stalled or broken-down columns are returned as
/// `converged == false` with their best iterate, and callers escalate
/// those columns individually (the sketch uses the recovery ladder).
pub fn solve_laplacian_block(
    op: &LaplacianOp<'_>,
    rhs: &BlockVectors,
    opts: CgOptions,
    ws: &mut BlockCgWorkspace,
) -> BlockCgOutcome {
    let n = op.order();
    assert_eq!(rhs.len(), n, "block cg: rhs dimension mismatch");
    let b = rhs.block_size();
    let mut x = BlockVectors::reuse(&mut ws.x, n, b);
    if n == 0 {
        return BlockCgOutcome {
            solutions: x,
            iterations: vec![0; b],
            relative_residual: vec![0.0; b],
            converged: vec![true; b],
        };
    }
    let stats = lockstep_cg(op, rhs, &mut x, opts, &vec![true; b], &mut ws.cg64);
    let converged = (0..b).map(|j| stats.b_norm[j] == 0.0 || stats.rel[j] <= opts.tolerance);
    BlockCgOutcome {
        solutions: x,
        iterations: stats.iterations,
        converged: converged.collect(),
        relative_residual: stats.rel,
    }
}

/// Mixed-precision multi-RHS solve: f32 block-CG sweeps wrapped in f64
/// iterative refinement until the caller's original `opts.tolerance` is
/// met in f64 arithmetic.
///
/// Each round computes the **true f64 residual** `R = B − L X` (one fused
/// f64 SpMM), freezes columns that converged, stalled, or went non-finite,
/// scales each surviving column's residual to unit norm (so the f32 solve
/// always works on well-ranged data regardless of how small the residual
/// has become), runs the lockstep loop in f32 as one correction solve to
/// a relative residual of `1e-4` within `opts.max_iterations` — half the
/// memory traffic and twice the SIMD width of the f64 sweeps, which is
/// what un-spills L2 on the large tier — and applies the correction in
/// f64. At most 40 rounds run, and a column whose residual shrinks by
/// less than a factor 0.9 in a round stops. Non-converged columns are
/// reported per column so the caller can promote exactly those right-hand
/// sides to the full-f64 recovery ladder; no recovery logic lives here.
///
/// **Determinism.** The inner solver is per-column masked lockstep and the
/// outer rounds advance each column independently, so a column's float
/// sequence is a pure function of its own data: results are bitwise
/// identical across thread counts *and* block widths (unlike the f64
/// path's scalar-vs-blocked contract, which fixes arithmetic per column
/// but is only exercised one width at a time).
pub fn solve_laplacian_block_mixed(
    op: &LaplacianOp<'_>,
    rhs: &BlockVectors,
    opts: CgOptions,
    ws: &mut BlockCgWorkspace,
) -> BlockCgOutcome {
    let n = op.order();
    assert_eq!(rhs.len(), n, "mixed block cg: rhs dimension mismatch");
    let b = rhs.block_size();
    let mut x = BlockVectors::reuse(&mut ws.x, n, b);
    x.as_mut_slice().fill(0.0);
    let mut iterations = vec![0usize; b];
    let mut rel = vec![0.0f64; b];
    let mut converged = vec![true; b];
    if n == 0 {
        return BlockCgOutcome { solutions: x, iterations, relative_residual: rel, converged };
    }

    // Outer-loop f64 blocks reuse the f64 lockstep slots (the two solvers
    // never run interleaved on one workspace): r = residual, z = projected
    // rhs, ap = L x.
    let mut resid = BlockVectors::reuse(&mut ws.cg64.r, n, b);
    let mut bp = BlockVectors::reuse(&mut ws.cg64.z, n, b);
    let mut lx = BlockVectors::reuse(&mut ws.cg64.ap, n, b);

    let mut active = vec![false; b];
    let mut b_norm = vec![0.0f64; b];
    let mut prev_rel = vec![f64::INFINITY; b];
    for j in 0..b {
        let bj = bp.column_mut(j);
        bj.copy_from_slice(rhs.column(j));
        vector::project_out_ones(bj);
        b_norm[j] = vector::norm2(bj);
        if b_norm[j] == 0.0 {
            continue; // converged at zero, frozen from the start
        }
        active[j] = true;
        converged[j] = false;
        rel[j] = 1.0;
    }

    let inner_opts = CgOptions { tolerance: MIXED_INNER_TOLERANCE, ..opts };
    let mut r_norm = vec![0.0f64; b];
    for round in 0..=MIXED_MAX_ROUNDS {
        // True f64 residual: R = B − L X (X of frozen columns recomputed
        // harmlessly; their entries are never read).
        op.apply_block(&x, &mut lx, &mut ws.cg64.node_major);
        let mut any = false;
        for j in 0..b {
            if !active[j] {
                continue;
            }
            let (bj, lj, rj) = (bp.column(j), lx.column(j), resid.column_mut(j));
            for i in 0..n {
                rj[i] = bj[i] - lj[i];
            }
            vector::project_out_ones(rj);
            r_norm[j] = vector::norm2(rj);
            rel[j] = r_norm[j] / b_norm[j];
            if !rel[j].is_finite() {
                // NaN/overflow guard: freeze unconverged; the caller's f64
                // ladder takes this column from scratch.
                active[j] = false;
                continue;
            }
            if rel[j] <= opts.tolerance {
                converged[j] = true;
                active[j] = false;
                continue;
            }
            if rel[j] >= prev_rel[j] * MIXED_PROGRESS_FACTOR {
                // f32 hit its floor for this column without reaching the
                // target: stalled, hand it to the f64 ladder.
                active[j] = false;
                continue;
            }
            prev_rel[j] = rel[j];
            any = true;
        }
        if !any || round == MIXED_MAX_ROUNDS {
            break;
        }
        // Scale each active residual to unit norm and round to f32.
        let mut r32 = BlockVectors::reuse(&mut ws.rhs32, n, b);
        for j in 0..b {
            if !active[j] {
                continue;
            }
            let inv = 1.0 / r_norm[j];
            let (rj, sj) = (resid.column(j), r32.column_mut(j));
            for i in 0..n {
                sj[i] = (rj[i] * inv) as f32;
            }
        }
        let mut e32 = BlockVectors::reuse(&mut ws.e32, n, b);
        let inner = lockstep_cg(op, &r32, &mut e32, inner_opts, &active, &mut ws.cg32);
        // X += ‖r_j‖ · e_j in f64.
        for j in 0..b {
            iterations[j] += inner.iterations[j];
            if !active[j] {
                continue;
            }
            let scale = r_norm[j];
            let (ej, xj) = (e32.column(j), x.column_mut(j));
            for i in 0..n {
                xj[i] += scale * ej[i] as f64;
            }
        }
        ws.rhs32 = Some(r32);
        ws.e32 = Some(e32);
    }

    for j in 0..b {
        vector::project_out_ones(x.column_mut(j));
    }

    ws.cg64.r = Some(resid);
    ws.cg64.z = Some(bp);
    ws.cg64.ap = Some(lx);
    BlockCgOutcome { solutions: x, iterations, relative_residual: rel, converged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{solve_laplacian_simple, Preconditioner};
    use crate::jl::projected_incidence_rows;
    use crate::precond::ChebyshevConfig;
    use reecc_graph::generators::{barabasi_albert, cycle, line, star};

    fn block_of_pairs(n: usize, pairs: &[(usize, usize)]) -> BlockVectors {
        let cols: Vec<Vec<f64>> = pairs
            .iter()
            .map(|&(u, v)| {
                let mut b = vec![0.0; n];
                b[u] = 1.0;
                b[v] = -1.0;
                b
            })
            .collect();
        BlockVectors::from_columns(&cols)
    }

    #[test]
    fn block_solve_is_bitwise_identical_to_scalar_per_column() {
        for precond in [
            Preconditioner::Identity,
            Preconditioner::Jacobi,
            Preconditioner::SymmetricGaussSeidel,
            Preconditioner::Chebyshev(ChebyshevConfig { degree: 3, lambda_max: 1.9 }),
        ] {
            let g = barabasi_albert(80, 2, 5);
            let op = LaplacianOp::new(&g);
            let rhs_rows = projected_incidence_rows(&g, 6, 13);
            let rhs = BlockVectors::from_columns(&rhs_rows);
            let opts = CgOptions { preconditioner: precond, ..CgOptions::default() };
            let out = solve_laplacian_block(&op, &rhs, opts, &mut BlockCgWorkspace::new());
            for (j, row) in rhs_rows.iter().enumerate() {
                let scalar = solve_laplacian_simple(&op, row, opts);
                assert_eq!(
                    out.solutions.column(j),
                    scalar.solution.as_slice(),
                    "{precond:?} column {j} diverged from scalar CG"
                );
                assert_eq!(out.iterations[j], scalar.iterations, "{precond:?} col {j} iters");
                assert_eq!(out.converged[j], scalar.converged);
                assert_eq!(
                    out.relative_residual[j].to_bits(),
                    scalar.relative_residual.to_bits()
                );
            }
        }
    }

    #[test]
    fn uneven_convergence_freezes_early_columns() {
        // The two right-hand sides need very different iteration counts;
        // the fast column must freeze at its scalar iterate while the slow
        // one keeps going, and both must report their own counts.
        let g = line(120);
        let op = LaplacianOp::new(&g);
        let pairs = [(0usize, 1usize), (0, 119)];
        let rhs = block_of_pairs(120, &pairs);
        let scalar: Vec<_> = (0..2)
            .map(|j| solve_laplacian_simple(&op, rhs.column(j), CgOptions::default()))
            .collect();
        assert_ne!(scalar[0].iterations, scalar[1].iterations, "need uneven columns");
        let out = solve_laplacian_block(
            &op,
            &rhs,
            CgOptions::default(),
            &mut BlockCgWorkspace::new(),
        );
        assert!(out.converged[0] && out.converged[1]);
        for (j, s) in scalar.iter().enumerate() {
            assert_eq!(out.iterations[j], s.iterations, "column {j}");
            assert_eq!(out.solutions.column(j), s.solution.as_slice());
        }
        let r = out.solutions.column(1)[0] - out.solutions.column(1)[119];
        assert!((r - 119.0).abs() < 1e-4, "effective resistance {r}");
    }

    #[test]
    fn zero_and_constant_columns_converge_immediately() {
        let g = cycle(9);
        let op = LaplacianOp::new(&g);
        let cols = vec![vec![0.0; 9], vec![3.0; 9], {
            let mut b = vec![0.0; 9];
            b[0] = 1.0;
            b[4] = -1.0;
            b
        }];
        let rhs = BlockVectors::from_columns(&cols);
        let out = solve_laplacian_block(
            &op,
            &rhs,
            CgOptions::default(),
            &mut BlockCgWorkspace::new(),
        );
        assert_eq!(out.iterations[0], 0);
        assert_eq!(out.iterations[1], 0, "constant rhs projects to zero");
        assert!(out.converged.iter().all(|&c| c));
        assert!(out.solutions.column(0).iter().all(|&v| v == 0.0));
        assert!(out.solutions.column(1).iter().all(|&v| v.abs() < 1e-12));
        assert!(out.iterations[2] > 0);
    }

    #[test]
    fn starved_budget_reports_per_column_nonconvergence() {
        let g = line(150);
        let op = LaplacianOp::new(&g);
        let pairs = [(70usize, 71usize), (0, 149)];
        let rhs = block_of_pairs(150, &pairs);
        // Starve the slower column only: budget between the two scalar
        // iteration counts, so exactly one column stalls mid-block.
        let iters: Vec<usize> = (0..2)
            .map(|j| {
                solve_laplacian_simple(&op, rhs.column(j), CgOptions::default()).iterations
            })
            .collect();
        let (fast, slow) = if iters[0] < iters[1] { (0, 1) } else { (1, 0) };
        let budget = (iters[fast] + iters[slow]) / 2;
        assert!(iters[fast] <= budget && budget < iters[slow], "need a separating budget");
        let out = solve_laplacian_block(
            &op,
            &rhs,
            CgOptions { max_iterations: Some(budget), ..CgOptions::default() },
            &mut BlockCgWorkspace::new(),
        );
        assert!(out.converged[fast]);
        assert!(!out.converged[slow]);
        assert_eq!(out.iterations[slow], budget);
        assert!(out.relative_residual[slow] > out.relative_residual[fast]);
        assert_eq!(out.total_iterations(), out.iterations[fast] + budget);
    }

    #[test]
    fn workspace_reuse_across_block_shapes() {
        let g = star(30);
        let op = LaplacianOp::new(&g);
        let mut ws = BlockCgWorkspace::new();
        for width in [4usize, 4, 2, 7] {
            let pairs: Vec<(usize, usize)> = (1..=width).map(|j| (0, j)).collect();
            let rhs = block_of_pairs(30, &pairs);
            let out = solve_laplacian_block(&op, &rhs, CgOptions::default(), &mut ws);
            assert!(out.converged.iter().all(|&c| c), "width {width}");
            // Returning the solutions must not change later results even
            // though the recycled block holds stale non-zero iterates.
            ws.recycle_solutions(out.solutions);
        }
    }

    #[test]
    fn recycled_solutions_block_is_rezeroed() {
        let g = line(40);
        let op = LaplacianOp::new(&g);
        let mut ws = BlockCgWorkspace::new();
        let rhs = block_of_pairs(40, &[(0, 39), (3, 17)]);
        let first = solve_laplacian_block(&op, &rhs, CgOptions::default(), &mut ws);
        let reference = first.solutions.clone();
        ws.recycle_solutions(first.solutions);
        let second = solve_laplacian_block(&op, &rhs, CgOptions::default(), &mut ws);
        for j in 0..2 {
            assert_eq!(second.solutions.column(j), reference.column(j), "column {j}");
        }
    }

    #[test]
    fn mixed_refinement_reaches_f64_tolerance() {
        let g = barabasi_albert(200, 3, 29);
        let op = LaplacianOp::new(&g);
        let rhs_rows = projected_incidence_rows(&g, 5, 17);
        let rhs = BlockVectors::from_columns(&rhs_rows);
        let opts = CgOptions::default();
        let out = solve_laplacian_block_mixed(&op, &rhs, opts, &mut BlockCgWorkspace::new());
        for (j, rhs_col) in rhs_rows.iter().enumerate() {
            assert!(out.converged[j], "column {j}: rel {}", out.relative_residual[j]);
            assert!(out.relative_residual[j] <= opts.tolerance);
            let scalar = solve_laplacian_simple(&op, rhs_col, opts);
            for (a, e) in out.solutions.column(j).iter().zip(&scalar.solution) {
                assert!((a - e).abs() < 1e-6, "column {j}: {a} vs {e}");
            }
        }
    }

    #[test]
    fn mixed_with_chebyshev_converges() {
        let g = barabasi_albert(300, 2, 31);
        let op = LaplacianOp::new(&g);
        let rhs = block_of_pairs(300, &[(0, 299), (5, 150), (17, 80)]);
        let cheby = crate::precond::resolve_preconditioner(
            &op,
            Preconditioner::Chebyshev(ChebyshevConfig::default()),
        );
        let opts = CgOptions { preconditioner: cheby, ..CgOptions::default() };
        let out = solve_laplacian_block_mixed(&op, &rhs, opts, &mut BlockCgWorkspace::new());
        assert!(out.converged.iter().all(|&c| c), "{:?}", out.relative_residual);
        let r = out.solutions.column(0)[0] - out.solutions.column(0)[299];
        let scalar = solve_laplacian_simple(&op, rhs.column(0), opts);
        let rs = scalar.solution[0] - scalar.solution[299];
        assert!((r - rs).abs() < 1e-6, "{r} vs {rs}");
    }

    #[test]
    fn mixed_zero_and_constant_columns_freeze_immediately() {
        let g = cycle(9);
        let op = LaplacianOp::new(&g);
        let cols = vec![vec![0.0; 9], vec![3.0; 9], {
            let mut b = vec![0.0; 9];
            b[0] = 1.0;
            b[4] = -1.0;
            b
        }];
        let rhs = BlockVectors::from_columns(&cols);
        let out = solve_laplacian_block_mixed(
            &op,
            &rhs,
            CgOptions::default(),
            &mut BlockCgWorkspace::new(),
        );
        assert_eq!(out.iterations[0], 0);
        assert_eq!(out.iterations[1], 0);
        assert!(out.converged.iter().all(|&c| c));
        assert!(out.solutions.column(0).iter().all(|&v| v == 0.0));
        assert!(out.iterations[2] > 0);
    }

    #[test]
    fn mixed_is_bitwise_width_independent() {
        // The same right-hand side must produce bit-identical solutions no
        // matter which block it is bundled into — the mixed-mode
        // determinism contract (threads × block_size).
        let g = barabasi_albert(150, 3, 41);
        let op = LaplacianOp::new(&g);
        let rhs_rows = projected_incidence_rows(&g, 8, 23);
        let opts = CgOptions::default();
        // Width 8: all columns at once.
        let full = solve_laplacian_block_mixed(
            &op,
            &BlockVectors::from_columns(&rhs_rows),
            opts,
            &mut BlockCgWorkspace::new(),
        );
        // Width 1 and width 4 slicings.
        for chunk in [1usize, 4] {
            let mut ws = BlockCgWorkspace::new();
            for (c, rows) in rhs_rows.chunks(chunk).enumerate() {
                let out = solve_laplacian_block_mixed(
                    &op,
                    &BlockVectors::from_columns(rows),
                    opts,
                    &mut ws,
                );
                for (j, _) in rows.iter().enumerate() {
                    let col = c * chunk + j;
                    assert_eq!(
                        out.solutions.column(j),
                        full.solutions.column(col),
                        "chunk {chunk}, column {col} not bitwise identical"
                    );
                    assert_eq!(out.iterations[j], full.iterations[col]);
                }
                ws.recycle_solutions(out.solutions);
            }
        }
    }

    #[test]
    fn mixed_starved_inner_budget_reports_nonconvergence() {
        let g = line(150);
        let op = LaplacianOp::new(&g);
        let rhs = block_of_pairs(150, &[(0, 149)]);
        // Two CG iterations per correction solve: the refinement stalls
        // long before the f64 tolerance.
        let out = solve_laplacian_block_mixed(
            &op,
            &rhs,
            CgOptions { max_iterations: Some(2), ..CgOptions::default() },
            &mut BlockCgWorkspace::new(),
        );
        assert!(!out.converged[0]);
        assert!(out.relative_residual[0].is_finite());
    }

    #[test]
    fn empty_graph_block_solve() {
        let g = reecc_graph::Graph::from_edges(0, []).unwrap();
        let op = LaplacianOp::new(&g);
        let rhs = BlockVectors::zeros(0, 3);
        let out = solve_laplacian_block(
            &op,
            &rhs,
            CgOptions::default(),
            &mut BlockCgWorkspace::new(),
        );
        assert!(out.converged.iter().all(|&c| c));
        assert_eq!(out.total_iterations(), 0);
    }
}
