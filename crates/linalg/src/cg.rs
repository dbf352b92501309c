//! Hand-rolled preconditioned Conjugate Gradient for Laplacian systems.
//!
//! The paper's APPROXER routine needs many solves of `L x = b` where `L` is
//! the (singular, PSD) Laplacian of a connected graph and `b ⊥ 1`. On the
//! subspace orthogonal to the all-ones vector, `L` is SPD, so CG converges;
//! we keep iterates in that subspace by mean-projecting the right-hand side
//! and the initial residual (float drift is re-projected periodically).
//!
//! The preconditioner abstraction admits an identity and a Jacobi (degree)
//! preconditioner; Jacobi is the default and is remarkably effective on the
//! scale-free graphs this library targets because their degree spread is
//! exactly what hurts plain CG.

use crate::laplacian::LaplacianOp;
use crate::precond::{
    apply_column_preconditioner, chebyshev_apply, ChebyshevConfig, PrecondScratch,
};
use crate::vector;

/// Preconditioners for CG: `z = M⁻¹ r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preconditioner {
    /// No preconditioning.
    Identity,
    /// Diagonal (degree) scaling — the default.
    #[default]
    Jacobi,
    /// Symmetric Gauss–Seidel: `M = (D + L₋) D⁻¹ (D + L₊)` applied
    /// matrix-free off the CSR adjacency (one forward sweep, a diagonal
    /// scale, one backward sweep). SPD whenever all degrees are positive,
    /// so CG theory applies; typically fewer iterations than Jacobi at
    /// ~3× the per-iteration preconditioning cost.
    SymmetricGaussSeidel,
    /// Scaled-Chebyshev polynomial preconditioner (see [`crate::precond`]):
    /// `k` Chebyshev steps on the Jacobi-scaled Laplacian per application,
    /// matrix-free and blockwise-fusable. Strongest rung for large graphs
    /// where per-iteration vector traffic dominates.
    Chebyshev(ChebyshevConfig),
}

/// Apply `z = M⁻¹ r` for the chosen preconditioner of a Laplacian: the
/// scalar Chebyshev apply, or the per-column body the block solvers share
/// ([`apply_column_preconditioner`]). Only Chebyshev touches `scratch`;
/// the other arms are allocation-free.
fn apply_preconditioner(
    op: &LaplacianOp<'_>,
    precond: Preconditioner,
    r: &[f64],
    z: &mut [f64],
    scratch: &mut PrecondScratch,
) {
    match precond {
        Preconditioner::Chebyshev(cfg) => chebyshev_apply(op, cfg, r, z, scratch),
        other => apply_column_preconditioner(op, other, r, z),
    }
}

/// Options for [`solve_laplacian`].
#[derive(Debug, Clone, Copy)]
pub struct CgOptions {
    /// Relative residual target `||r|| <= tolerance * ||b||`.
    pub tolerance: f64,
    /// Iteration cap. `None` means `10 * n + 100`.
    pub max_iterations: Option<usize>,
    /// Preconditioner choice.
    pub preconditioner: Preconditioner,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tolerance: 1e-8,
            max_iterations: None,
            preconditioner: Preconditioner::Jacobi,
        }
    }
}

/// Outcome of a CG solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgOutcome {
    /// The solution (mean-zero representative of the solution family).
    pub solution: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `||b − L x|| / ||b||`.
    pub relative_residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Reusable scratch buffers so repeated solves (the sketch loop does
/// hundreds) do not re-allocate.
#[derive(Debug, Default)]
pub struct CgWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    precond: PrecondScratch,
}

impl CgWorkspace {
    /// Create a workspace sized for order-`n` systems.
    pub fn new(n: usize) -> Self {
        CgWorkspace {
            r: vec![0.0; n],
            z: vec![0.0; n],
            p: vec![0.0; n],
            ap: vec![0.0; n],
            precond: PrecondScratch::new(),
        }
    }

    fn resize(&mut self, n: usize) {
        self.r.resize(n, 0.0);
        self.z.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.ap.resize(n, 0.0);
    }
}

/// Solve `L x = b` for a connected graph's Laplacian with `b` (projected)
/// orthogonal to `1`, returning the mean-zero solution.
///
/// Never fails hard: if the iteration cap is reached the best iterate is
/// returned with `converged == false`, and callers decide whether that is
/// acceptable (the sketch treats it as an accuracy downgrade, not an
/// error).
pub fn solve_laplacian(
    op: &LaplacianOp<'_>,
    b: &[f64],
    opts: CgOptions,
    ws: &mut CgWorkspace,
) -> CgOutcome {
    let n = op.order();
    assert_eq!(b.len(), n, "cg: rhs dimension mismatch");
    ws.resize(n);
    let mut x = vec![0.0; n];
    if n == 0 {
        return CgOutcome {
            solution: x,
            iterations: 0,
            relative_residual: 0.0,
            converged: true,
        };
    }

    // Project b onto 1⊥ — for exact inputs this is a no-op up to float
    // noise; for slightly off inputs it solves the nearest consistent
    // system.
    let mut b_proj = b.to_vec();
    vector::project_out_ones(&mut b_proj);
    let b_norm = vector::norm2(&b_proj);
    if b_norm == 0.0 {
        return CgOutcome {
            solution: x,
            iterations: 0,
            relative_residual: 0.0,
            converged: true,
        };
    }

    let max_iter = opts.max_iterations.unwrap_or(10 * n + 100);

    // r = b (x starts at zero), z = M⁻¹ r, p = z.
    ws.r.copy_from_slice(&b_proj);
    apply_preconditioner(op, opts.preconditioner, &ws.r, &mut ws.z, &mut ws.precond);
    vector::project_out_ones(&mut ws.z);
    ws.p.copy_from_slice(&ws.z);
    let mut rz = vector::dot(&ws.r, &ws.z);

    let mut iterations = 0usize;
    let mut rel = 1.0f64;
    while iterations < max_iter {
        iterations += 1;
        op.apply(&ws.p, &mut ws.ap);
        let p_ap = vector::dot(&ws.p, &ws.ap);
        if p_ap <= 0.0 || !p_ap.is_finite() {
            // Numerically lost positive-definiteness (should not happen on
            // 1⊥); bail out with the current iterate.
            break;
        }
        let alpha = rz / p_ap;
        vector::axpy(alpha, &ws.p, &mut x);
        vector::axpy(-alpha, &ws.ap, &mut ws.r);
        // Periodic re-projection kills drift along the null space.
        if iterations % 64 == 0 {
            vector::project_out_ones(&mut ws.r);
            vector::project_out_ones(&mut x);
        }
        rel = vector::norm2(&ws.r) / b_norm;
        if !rel.is_finite() {
            // Overflow/NaN contaminated the residual: no further iteration
            // can recover (CG recurrences only propagate the poison), so
            // abort the attempt immediately and let the caller escalate.
            break;
        }
        if rel <= opts.tolerance {
            break;
        }
        apply_preconditioner(op, opts.preconditioner, &ws.r, &mut ws.z, &mut ws.precond);
        let rz_next = vector::dot(&ws.r, &ws.z);
        let beta = rz_next / rz;
        rz = rz_next;
        vector::xpby(&ws.z, beta, &mut ws.p);
    }
    vector::project_out_ones(&mut x);
    CgOutcome {
        solution: x,
        iterations,
        relative_residual: rel,
        converged: rel <= opts.tolerance,
    }
}

/// Convenience wrapper allocating a fresh workspace.
pub fn solve_laplacian_simple(op: &LaplacianOp<'_>, b: &[f64], opts: CgOptions) -> CgOutcome {
    let mut ws = CgWorkspace::new(op.order());
    solve_laplacian(op, b, opts, &mut ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::{laplacian_dense, laplacian_pseudoinverse};
    use reecc_graph::generators::{barabasi_albert, cycle, line, star};

    fn rhs_pair(n: usize, u: usize, v: usize) -> Vec<f64> {
        let mut b = vec![0.0; n];
        b[u] = 1.0;
        b[v] = -1.0;
        b
    }

    #[test]
    fn solves_match_pseudoinverse_on_line() {
        let g = line(6);
        let op = LaplacianOp::new(&g);
        let pinv = laplacian_pseudoinverse(&g).unwrap();
        let b = rhs_pair(6, 0, 5);
        let out = solve_laplacian_simple(&op, &b, CgOptions::default());
        assert!(out.converged, "residual {}", out.relative_residual);
        let expected = pinv.matvec(&b);
        for (a, e) in out.solution.iter().zip(&expected) {
            assert!((a - e).abs() < 1e-7, "{a} vs {e}");
        }
    }

    #[test]
    fn residual_is_small_on_cycle() {
        let g = cycle(40);
        let op = LaplacianOp::new(&g);
        let b = rhs_pair(40, 3, 21);
        let out = solve_laplacian_simple(&op, &b, CgOptions::default());
        assert!(out.converged);
        let l = laplacian_dense(&g);
        let lx = l.matvec(&out.solution);
        let res: f64 = lx.iter().zip(&b).map(|(a, b)| (a - b).powi(2)).sum::<f64>().sqrt();
        assert!(res < 1e-6, "residual {res}");
    }

    #[test]
    fn solution_is_mean_zero() {
        let g = star(9);
        let op = LaplacianOp::new(&g);
        let b = rhs_pair(9, 1, 7);
        let out = solve_laplacian_simple(&op, &b, CgOptions::default());
        let m: f64 = out.solution.iter().sum::<f64>() / 9.0;
        assert!(m.abs() < 1e-10);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let g = cycle(5);
        let op = LaplacianOp::new(&g);
        let out = solve_laplacian_simple(&op, &[0.0; 5], CgOptions::default());
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert!(out.solution.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn constant_rhs_projects_to_zero() {
        // b = 1 has no component in range(L); the projected system is 0 = 0.
        let g = cycle(5);
        let op = LaplacianOp::new(&g);
        let out = solve_laplacian_simple(&op, &[2.0; 5], CgOptions::default());
        assert!(out.converged);
        assert!(out.solution.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn jacobi_beats_identity_on_scale_free() {
        let g = barabasi_albert(400, 3, 3);
        let op = LaplacianOp::new(&g);
        let b = rhs_pair(400, 0, 399);
        let jac = solve_laplacian_simple(
            &op,
            &b,
            CgOptions { preconditioner: Preconditioner::Jacobi, ..Default::default() },
        );
        let idn = solve_laplacian_simple(
            &op,
            &b,
            CgOptions { preconditioner: Preconditioner::Identity, ..Default::default() },
        );
        assert!(jac.converged && idn.converged);
        assert!(
            jac.iterations <= idn.iterations,
            "jacobi {} vs identity {}",
            jac.iterations,
            idn.iterations
        );
    }

    #[test]
    fn symmetric_gauss_seidel_converges_and_matches() {
        let g = barabasi_albert(300, 3, 8);
        let op = LaplacianOp::new(&g);
        let b = rhs_pair(300, 2, 297);
        let sgs = solve_laplacian_simple(
            &op,
            &b,
            CgOptions {
                preconditioner: Preconditioner::SymmetricGaussSeidel,
                ..Default::default()
            },
        );
        assert!(sgs.converged, "residual {}", sgs.relative_residual);
        let jac = solve_laplacian_simple(&op, &b, CgOptions::default());
        for (a, e) in sgs.solution.iter().zip(&jac.solution) {
            assert!((a - e).abs() < 1e-6);
        }
        // SGS needs no more iterations than Jacobi on this graph.
        assert!(
            sgs.iterations <= jac.iterations,
            "sgs {} vs jacobi {}",
            sgs.iterations,
            jac.iterations
        );
    }

    #[test]
    fn sgs_handles_line_graph() {
        let g = line(50);
        let op = LaplacianOp::new(&g);
        let b = rhs_pair(50, 0, 49);
        let out = solve_laplacian_simple(
            &op,
            &b,
            CgOptions {
                preconditioner: Preconditioner::SymmetricGaussSeidel,
                ..Default::default()
            },
        );
        assert!(out.converged);
        let r = out.solution[0] - out.solution[49];
        assert!((r - 49.0).abs() < 1e-5, "effective resistance {r}");
    }

    #[test]
    fn iteration_cap_reports_nonconvergence() {
        let g = line(200);
        let op = LaplacianOp::new(&g);
        let b = rhs_pair(200, 0, 199);
        let out = solve_laplacian_simple(
            &op,
            &b,
            CgOptions { max_iterations: Some(3), ..Default::default() },
        );
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
    }

    #[test]
    fn effective_resistance_via_cg_matches_formula_on_path() {
        // On a path, r(0, k) = k (series resistors).
        let g = line(10);
        let op = LaplacianOp::new(&g);
        for k in 1..10 {
            let b = rhs_pair(10, 0, k);
            let out = solve_laplacian_simple(&op, &b, CgOptions::default());
            let r = out.solution[0] - out.solution[k];
            assert!((r - k as f64).abs() < 1e-6, "r(0,{k}) = {r}");
        }
    }

    #[test]
    fn empty_graph_solve() {
        let g = reecc_graph::Graph::from_edges(0, []).unwrap();
        let op = LaplacianOp::new(&g);
        let out = solve_laplacian_simple(&op, &[], CgOptions::default());
        assert!(out.converged);
        assert!(out.solution.is_empty());
    }
}
