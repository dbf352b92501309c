//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use reecc_graph::generators::connected_erdos_renyi;
use reecc_linalg::block::BlockVectors;
use reecc_linalg::block_cg::{
    solve_laplacian_block, solve_laplacian_block_mixed, BlockCgWorkspace,
};
use reecc_linalg::cg::{solve_laplacian_simple, CgOptions, Preconditioner};
use reecc_linalg::eigen::{lambda2_estimate, lambda_max_estimate, EigenOptions};
use reecc_linalg::recovery::{RecoveryPolicy, RecoverySolver, SolveMethod};
use reecc_linalg::{
    laplacian_csr, laplacian_dense, resolve_preconditioner, ChebyshevConfig, DenseMatrix,
    LaplacianOp,
};

/// Relative residual `‖b_proj − L x‖ / ‖b_proj‖` computed independently of
/// the solver's own bookkeeping.
fn measured_residual(op: &LaplacianOp<'_>, x: &[f64], b: &[f64]) -> f64 {
    let n = op.order();
    let mut b_proj = b.to_vec();
    reecc_linalg::vector::project_out_ones(&mut b_proj);
    let mut lx = vec![0.0; n];
    op.apply(x, &mut lx);
    let num: f64 = lx.iter().zip(&b_proj).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
    let den: f64 = b_proj.iter().map(|v| v * v).sum::<f64>().sqrt();
    if den == 0.0 {
        num
    } else {
        num / den
    }
}

fn spd_matrix() -> impl Strategy<Value = DenseMatrix> {
    // A' A + n I is SPD for any A.
    (2usize..8)
        .prop_flat_map(|n| (Just(n), proptest::collection::vec(-3.0f64..3.0, n * n)))
        .prop_map(|(n, data)| {
            let a = DenseMatrix::from_vec(n, n, data);
            let at = a.transpose();
            let mut spd = at.matmul(&a).expect("square");
            for i in 0..n {
                spd[(i, i)] += n as f64;
            }
            spd
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cholesky and LU agree on SPD systems and reconstruct solutions.
    #[test]
    fn factorizations_agree(a in spd_matrix()) {
        let n = a.rows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
        let b = a.matvec(&x_true);
        let x_chol = a.cholesky().expect("SPD").solve(&b);
        let x_lu = a.lu().expect("nonsingular").solve(&b);
        for i in 0..n {
            prop_assert!((x_chol[i] - x_true[i]).abs() < 1e-8, "cholesky off at {}", i);
            prop_assert!((x_lu[i] - x_true[i]).abs() < 1e-8, "lu off at {}", i);
        }
    }

    /// Inverse actually inverts.
    #[test]
    fn inverse_roundtrip(a in spd_matrix()) {
        let inv = a.inverse().expect("nonsingular");
        let prod = a.matmul(&inv).expect("square");
        let n = a.rows();
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((prod[(i, j)] - expect).abs() < 1e-7);
            }
        }
    }

    /// Matrix-free operator, CSR, and dense Laplacian all agree.
    #[test]
    fn laplacian_representations_agree(
        (n, p, seed) in (3usize..25, 0.1f64..0.6, any::<u64>()),
        xs in proptest::collection::vec(-5.0f64..5.0, 25)
    ) {
        let g = connected_erdos_renyi(n, p, seed);
        let x = &xs[..n];
        let dense = laplacian_dense(&g).matvec(x);
        let csr = laplacian_csr(&g).matvec(x);
        let op = LaplacianOp::new(&g);
        let mut free = vec![0.0; n];
        op.apply(x, &mut free);
        for i in 0..n {
            prop_assert!((dense[i] - csr[i]).abs() < 1e-12);
            prop_assert!((dense[i] - free[i]).abs() < 1e-12);
        }
    }

    /// All three preconditioners converge to the same solution.
    #[test]
    fn preconditioners_agree(
        (n, p, seed) in (4usize..30, 0.1f64..0.5, any::<u64>())
    ) {
        let g = connected_erdos_renyi(n, p, seed);
        let op = LaplacianOp::new(&g);
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -1.0;
        let solutions: Vec<Vec<f64>> = [
            Preconditioner::Identity,
            Preconditioner::Jacobi,
            Preconditioner::SymmetricGaussSeidel,
        ]
        .into_iter()
        .map(|preconditioner| {
            let out = solve_laplacian_simple(
                &op,
                &b,
                CgOptions { preconditioner, ..Default::default() },
            );
            prop_assert!(out.converged, "{:?} failed to converge", preconditioner);
            Ok(out.solution)
        })
        .collect::<Result<_, _>>()?;
        for sol in &solutions[1..] {
            for (a, e) in sol.iter().zip(&solutions[0]) {
                prop_assert!((a - e).abs() < 1e-6);
            }
        }
    }

    /// Blocked CG is bitwise identical to scalar CG per column, for every
    /// block width — the invariant that makes the sketch build's
    /// `threads` × `block_size` knobs observationally irrelevant.
    #[test]
    fn block_cg_matches_scalar_bitwise(
        (n, p, seed) in (4usize..28, 0.12f64..0.55, any::<u64>()),
        raw in proptest::collection::vec(-4.0f64..4.0, 28 * 8)
    ) {
        let g = connected_erdos_renyi(n, p, seed);
        let op = LaplacianOp::new(&g);
        let opts = CgOptions::default();
        let columns: Vec<Vec<f64>> =
            (0..8).map(|j| raw[j * n..(j + 1) * n].to_vec()).collect();
        let scalar: Vec<_> =
            columns.iter().map(|c| solve_laplacian_simple(&op, c, opts)).collect();
        let mut ws = BlockCgWorkspace::new();
        for width in [1usize, 3, 8] {
            // Blocks are formed exactly the way the sketch build chunks its
            // JL rows: contiguous groups of `width` columns.
            let mut col = 0;
            for batch in columns.chunks(width) {
                let rhs = BlockVectors::from_columns(batch);
                let out = solve_laplacian_block(&op, &rhs, opts, &mut ws);
                for j in 0..batch.len() {
                    let reference = &scalar[col + j];
                    prop_assert_eq!(out.solutions.column(j), reference.solution.as_slice());
                    prop_assert_eq!(out.iterations[j], reference.iterations);
                    prop_assert_eq!(out.converged[j], reference.converged);
                    prop_assert_eq!(
                        out.relative_residual[j].to_bits(),
                        reference.relative_residual.to_bits()
                    );
                }
                col += batch.len();
            }
        }
    }

    /// A column the blocked solver reports as unconverged (starved budget)
    /// is exactly the column scalar CG fails on, and the PR-1 escalation
    /// ladder repairs it from the same right-hand side — the composition
    /// the sketch build's repair pass relies on.
    #[test]
    fn starved_block_columns_are_recoverable(
        (n, p, seed) in (8usize..24, 0.12f64..0.4, any::<u64>())
    ) {
        let g = connected_erdos_renyi(n, p, seed);
        let op = LaplacianOp::new(&g);
        let starved = CgOptions { max_iterations: Some(2), ..CgOptions::default() };
        let mut columns = vec![vec![0.0; n]; 3];
        columns[0][0] = 1.0;
        columns[0][n - 1] = -1.0;
        columns[1][n / 2] = 1.0;
        columns[1][0] = -1.0;
        // Column 2 stays zero: converges instantly even under starvation.
        let rhs = BlockVectors::from_columns(&columns);
        let mut ws = BlockCgWorkspace::new();
        let out = solve_laplacian_block(&op, &rhs, starved, &mut ws);
        prop_assert!(out.converged[2], "zero column must converge immediately");
        let scalar: Vec<_> =
            columns.iter().map(|c| solve_laplacian_simple(&op, c, starved)).collect();
        let mut solver = RecoverySolver::new(
            LaplacianOp::new(&g),
            starved,
            RecoveryPolicy::default(),
        );
        for j in 0..3 {
            prop_assert_eq!(out.converged[j], scalar[j].converged);
            if !out.converged[j] {
                let (solution, report) = solver.solve(&columns[j]);
                prop_assert!(report.converged, "ladder must rescue column {}", j);
                prop_assert!(solution.iter().all(|x| x.is_finite()));
            }
        }
    }

    /// The auto-tuned Chebyshev rung meets the requested tolerance on
    /// random connected graphs: the solver's claimed residual is honest
    /// (re-measured against the operator) and its solution agrees with
    /// the Jacobi reference.
    #[test]
    fn chebyshev_rung_residuals_within_tol(
        (n, p, seed) in (4usize..30, 0.12f64..0.55, any::<u64>())
    ) {
        let g = connected_erdos_renyi(n, p, seed);
        let op = LaplacianOp::new(&g);
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n / 2] += -0.5;
        b[n - 1] += -0.5;
        let cheby = resolve_preconditioner(
            &op,
            Preconditioner::Chebyshev(ChebyshevConfig::default()),
        );
        let Preconditioner::Chebyshev(cfg) = cheby else {
            return Err(TestCaseError::fail("resolution must stay Chebyshev"));
        };
        prop_assert!(cfg.is_resolved(), "auto sentinels must be filled");
        let opts = CgOptions { preconditioner: cheby, ..Default::default() };
        let out = solve_laplacian_simple(&op, &b, opts);
        prop_assert!(out.converged, "cheby rung failed to converge");
        let measured = measured_residual(&op, &out.solution, &b);
        prop_assert!(
            measured <= opts.tolerance * 16.0,
            "claimed convergence but measured residual {measured:e}"
        );
        let jac = solve_laplacian_simple(&op, &b, CgOptions::default());
        prop_assert!(jac.converged);
        for (a, e) in out.solution.iter().zip(&jac.solution) {
            prop_assert!((a - e).abs() < 1e-6, "cheby and jacobi solutions diverge");
        }
    }

    /// A starved solve falls *through* the Chebyshev rung cleanly: the
    /// rung is attempted with a resolved config right after the caller's
    /// options, every attempt's bookkeeping stays sane (finite residual
    /// or explicitly unconverged), and the ladder still rescues the
    /// column, with a final residual that survives re-measurement.
    #[test]
    fn starved_columns_fall_through_cheby_rung_cleanly(
        (n, p, seed) in (8usize..24, 0.12f64..0.4, any::<u64>())
    ) {
        let g = connected_erdos_renyi(n, p, seed);
        let op = LaplacianOp::new(&g);
        let starved = CgOptions { max_iterations: Some(1), ..CgOptions::default() };
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -1.0;
        let mut solver = RecoverySolver::new(
            LaplacianOp::new(&g),
            starved,
            RecoveryPolicy::default(),
        );
        let (solution, report) = solver.solve(&b);
        prop_assert!(report.converged, "ladder must rescue the starved column");
        prop_assert!(solution.iter().all(|x| x.is_finite()));
        // The cheby rung sits right after the caller's starved attempt,
        // carrying a fully resolved config.
        prop_assert!(report.attempts.len() >= 2, "starved solve must escalate");
        let SolveMethod::Cg(Preconditioner::Chebyshev(cfg)) = report.attempts[1].method
        else {
            return Err(TestCaseError::fail("second rung must be Chebyshev"));
        };
        prop_assert!(cfg.is_resolved(), "ladder must resolve the cheby sentinels");
        for attempt in &report.attempts {
            prop_assert!(
                attempt.residual.is_finite() || !attempt.converged,
                "poisoned attempt must not claim convergence"
            );
        }
        let relaxed = starved.tolerance * 1e3;
        let measured = measured_residual(&op, &solution, &b);
        prop_assert!(
            measured <= relaxed * 16.0,
            "rescued solution residual {measured:e} above relaxed tolerance"
        );
    }

    /// Mixed-precision refinement converges to f64-grade tolerance: each
    /// converged column agrees with the scalar f64 solve to well under
    /// the requested tolerance, and the claimed residual survives
    /// re-measurement against the operator.
    #[test]
    fn mixed_refinement_matches_f64_solutions(
        (n, p, seed) in (4usize..24, 0.15f64..0.55, any::<u64>()),
        raw in proptest::collection::vec(-3.0f64..3.0, 24 * 4)
    ) {
        let g = connected_erdos_renyi(n, p, seed);
        let op = LaplacianOp::new(&g);
        let opts = CgOptions::default();
        let columns: Vec<Vec<f64>> =
            (0..4).map(|j| raw[j * n..(j + 1) * n].to_vec()).collect();
        let rhs = BlockVectors::from_columns(&columns);
        let mut ws = BlockCgWorkspace::new();
        let out = solve_laplacian_block_mixed(&op, &rhs, opts, &mut ws);
        let scalar: Vec<_> =
            columns.iter().map(|c| solve_laplacian_simple(&op, c, opts)).collect();
        for j in 0..columns.len() {
            prop_assume!(out.converged[j] && scalar[j].converged);
            let measured = measured_residual(&op, out.solutions.column(j), &columns[j]);
            prop_assert!(
                measured <= opts.tolerance * 16.0,
                "column {j}: claimed convergence but measured residual {measured:e}"
            );
            // Both land within tolerance of the true projected solution, so
            // they agree with each other to the same order.
            let scale = scalar[j]
                .solution
                .iter()
                .map(|v| v.abs())
                .fold(1.0f64, f64::max);
            for (a, e) in out.solutions.column(j).iter().zip(&scalar[j].solution) {
                prop_assert!(
                    (a - e).abs() <= 1e-6 * scale,
                    "column {j}: mixed and f64 solutions diverge"
                );
            }
        }
    }

    /// The mixed solver's arithmetic is per-column: results are bitwise
    /// identical no matter how the columns are grouped into blocks.
    #[test]
    fn mixed_refinement_is_width_invariant_bitwise(
        (n, p, seed) in (4usize..20, 0.15f64..0.5, any::<u64>()),
        raw in proptest::collection::vec(-3.0f64..3.0, 20 * 6)
    ) {
        let g = connected_erdos_renyi(n, p, seed);
        let op = LaplacianOp::new(&g);
        let opts = CgOptions::default();
        let columns: Vec<Vec<f64>> =
            (0..6).map(|j| raw[j * n..(j + 1) * n].to_vec()).collect();
        let mut ws = BlockCgWorkspace::new();
        let reference = solve_laplacian_block_mixed(
            &op,
            &BlockVectors::from_columns(&columns),
            opts,
            &mut ws,
        );
        for width in [1usize, 2, 5] {
            let mut col = 0;
            for batch in columns.chunks(width) {
                let rhs = BlockVectors::from_columns(batch);
                let out = solve_laplacian_block_mixed(
                    &op,
                    &rhs,
                    opts,
                    &mut ws,
                );
                for j in 0..batch.len() {
                    prop_assert_eq!(
                        out.solutions.column(j),
                        reference.solutions.column(col + j),
                        "width {} column {}", width, col + j
                    );
                    prop_assert_eq!(out.converged[j], reference.converged[col + j]);
                }
                col += batch.len();
            }
        }
    }

    /// Eigen estimates bracket the true spectrum: lambda2 <= lambda_max,
    /// lambda_max <= 2 * d_max, lambda2 <= n (vertex connectivity bound),
    /// and the Rayleigh quotient of any test vector lies between them.
    #[test]
    fn eigen_estimates_are_consistent(
        (n, p, seed) in (4usize..25, 0.15f64..0.6, any::<u64>())
    ) {
        let g = connected_erdos_renyi(n, p, seed);
        let op = LaplacianOp::new(&g);
        let l2 = lambda2_estimate(&op, EigenOptions::default());
        let lmax = lambda_max_estimate(&op, EigenOptions::default());
        prop_assume!(l2.converged && lmax.converged);
        prop_assert!(l2.value > 0.0, "connected graph has positive lambda2");
        prop_assert!(l2.value <= lmax.value + 1e-9);
        prop_assert!(l2.value <= n as f64 + 1e-9);
        let dmax = (0..n).map(|v| g.degree(v)).max().unwrap() as f64;
        prop_assert!(lmax.value <= 2.0 * dmax + 1e-9);
        // Rayleigh quotient of e_0 - e_1 projected: between the extremes
        // (allowing estimate slack).
        let mut x = vec![0.0; n];
        x[0] = 1.0;
        x[1] = -1.0;
        let mut lx = vec![0.0; n];
        op.apply(&x, &mut lx);
        let quotient = reecc_linalg::vector::dot(&x, &lx) / 2.0;
        prop_assert!(quotient <= lmax.value * (1.0 + 1e-6) + 1e-9);
        prop_assert!(quotient >= l2.value * (1.0 - 1e-6) - 1e-9);
    }
}
