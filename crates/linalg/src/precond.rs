//! Polynomial (scaled-Chebyshev/Jacobi) preconditioning for Laplacian CG.
//!
//! The blocked kernels of DESIGN.md §9 are memory-bound on large graphs:
//! once the node-major gather set spills L2, more FLOP throughput buys
//! nothing and the only lever left on the *sweep count* side is a stronger
//! preconditioner. This module implements a matrix-free Chebyshev
//! semi-iteration on the Jacobi-scaled (normalized) Laplacian
//! `Â = D^{-1/2} L D^{-1/2}`:
//!
//! * the scaling is exactly the Jacobi preconditioner folded into the
//!   operator, which clusters the spectrum of scale-free graphs the same
//!   way plain Jacobi-CG does, **and** bounds `λ_max(Â) ≤ 2` for every
//!   graph (normalized-Laplacian spectrum), so a conservative interval is
//!   always available even before any eigenvalue estimation runs;
//! * `z = M⁻¹ r` is `k` steps of the classical Chebyshev iteration for
//!   `Â ŷ = r̂` (with `r̂ = D^{-1/2} r`, `z = D^{-1/2} ŷ`), i.e.
//!   `z = D^{-1/2} p_{k-1}(Â) D^{-1/2} r` for the fixed degree-`(k−1)`
//!   Chebyshev acceleration polynomial `p`. A fixed polynomial in a
//!   symmetric operator is symmetric, and `p > 0` on `[0, λ_max]` for the
//!   standard parameter choice, so `M⁻¹` is SPD and plain CG theory
//!   applies — no flexible-CG machinery needed;
//! * each application costs `k − 1` operator sweeps and a handful of
//!   elementwise passes — no fill-in, no factorization, and the blockwise
//!   variant rides the existing fused [`LaplacianOp::apply_block`] SpMM
//!   lanes so the extra sweeps amortize over all `b` right-hand sides.
//!
//! **Determinism.** The scalar apply and the block apply (one body for
//! `f64` and `f32` blocks) perform per-column arithmetic in exactly the
//! scalar order: `apply_block` is bitwise identical to per-column `apply`,
//! and every other operation is elementwise. Blocked-vs-scalar CG solves
//! therefore stay bitwise identical with Chebyshev exactly as they do with
//! Jacobi. The Identity/Jacobi/SGS applies live here too, one body per
//! column for the scalar solver and both block precisions.
//!
//! The eigenvalue interval `[λ_max/λ_ratio, λ_max]` is tuned once per
//! graph by [`resolve_preconditioner`] (a short, deterministic power
//! iteration on `Â`); unresolved configs fall back to the universal bound
//! `λ_max = 2`, trading a few extra CG iterations for never being wrong.

use crate::block::BlockVectors;
use crate::cg::Preconditioner;
use crate::eigen::random_unit_perp_ones;
use crate::laplacian::LaplacianOp;
use crate::vector::{self, Scalar};

/// Default Chebyshev step count used when a config asks for auto-tuning
/// (`degree == 0`). Chosen against the large-tier kernel benchmark: each
/// extra step is one more fused SpMM per CG iteration, and on the
/// scale-free graphs this library targets the iteration-count payoff
/// flattens past a handful of steps.
pub const DEFAULT_CHEBYSHEV_STEPS: u32 = 4;

/// Smallest-to-largest eigenvalue ratio assumed for the Chebyshev
/// interval: `λ_min = λ_max / 30` (the hypre convention). Eigenvalues
/// below `λ_min` are still damped — just not optimally — so a loose ratio
/// is safe; estimating `λ₂` exactly would cost more than it saves.
pub const CHEBYSHEV_LAMBDA_RATIO: f64 = 30.0;

/// Safety margin applied to the power-iteration `λ_max` estimate. The
/// estimate converges from below, and a `λ_max` under the true value makes
/// the Chebyshev polynomial amplify the top of the spectrum instead of
/// damping it, so the margin errs upward (capped at the universal bound).
const LAMBDA_MAX_MARGIN: f64 = 1.05;

/// Universal upper bound on the normalized-Laplacian spectrum.
const LAMBDA_MAX_BOUND: f64 = 2.0;

/// Fixed power-iteration length for [`resolve_preconditioner`]: enough to
/// land within the safety margin on every graph in the test corpus, cheap
/// enough (one sweep each) to run once per engine build.
const POWER_ITERATIONS: usize = 24;

/// Seed for the deterministic power-iteration start vector. Independent
/// of the sketch seed so the resolved interval — and therefore the entire
/// float sequence of a preconditioned solve — depends only on the graph.
const POWER_SEED: u64 = 0x5eed_c4eb;

/// Parameters of the scaled-Chebyshev polynomial preconditioner.
///
/// Both fields have an *auto* sentinel so `Preconditioner::Chebyshev
/// (ChebyshevConfig::default())` is a complete, valid request:
/// `degree == 0` means "use [`DEFAULT_CHEBYSHEV_STEPS`]" and
/// `lambda_max == 0.0` means "unresolved — use the universal bound 2".
/// [`resolve_preconditioner`] replaces the sentinels with concrete values
/// once per graph; downstream layers (sketch build, recovery ladder,
/// candidate evaluator, serve's re-sketch) inherit the resolved config so
/// the power iteration never reruns per batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChebyshevConfig {
    /// Chebyshev steps per application (`k`); each application costs
    /// `k − 1` operator sweeps. `0` = auto ([`DEFAULT_CHEBYSHEV_STEPS`]).
    pub degree: u32,
    /// Upper edge of the damping interval on the *scaled* operator
    /// spectrum. `0.0` = unresolved (use the universal bound 2).
    pub lambda_max: f64,
}

impl ChebyshevConfig {
    /// Whether both parameters are concrete (no sentinel left).
    pub fn is_resolved(&self) -> bool {
        self.degree > 0 && self.lambda_max > 0.0
    }

    /// Steps to run: the configured degree or the auto default.
    pub fn steps(&self) -> u32 {
        if self.degree > 0 {
            self.degree
        } else {
            DEFAULT_CHEBYSHEV_STEPS
        }
    }

    /// Interval top to damp against: the resolved estimate or the
    /// universal normalized-Laplacian bound.
    pub fn lambda_max_or_bound(&self) -> f64 {
        if self.lambda_max > 0.0 {
            self.lambda_max
        } else {
            LAMBDA_MAX_BOUND
        }
    }
}

// `Preconditioner` derives `Eq` (ladder rungs and parameter structs compare
// it); bit-compare the float so the config can participate.
impl PartialEq for ChebyshevConfig {
    fn eq(&self, other: &Self) -> bool {
        self.degree == other.degree && self.lambda_max.to_bits() == other.lambda_max.to_bits()
    }
}

impl Eq for ChebyshevConfig {}

/// Cached `D^{-1/2}` diagonal for the Chebyshev scaling, verified against
/// the operator's degree sequence on every use.
///
/// The recurrence multiplies by `1/√deg(i)` in four separate passes per
/// application; recomputing the sqrt+divide per element per pass is pure
/// latency (hundreds of millions of divides over a large-tier solve).
/// Caching the vector is bitwise-neutral — the stored value is exactly
/// `inv_sqrt_degree`'s result — and the degree comparison makes reuse
/// sound by construction: if the degree sequence matches, the scale
/// vector is correct no matter which graph object the scratch last saw.
#[derive(Debug, Default)]
struct ScaleCache<T> {
    degrees: Vec<usize>,
    inv_sqrt: Vec<T>,
}

impl<T: Scalar> ScaleCache<T> {
    fn ensure(&mut self, op: &LaplacianOp<'_>) {
        let n = op.order();
        let g = op.graph();
        let stale = self.degrees.len() != n || (0..n).any(|i| self.degrees[i] != g.degree(i));
        if stale {
            self.degrees.clear();
            self.degrees.extend((0..n).map(|i| g.degree(i)));
            self.inv_sqrt.clear();
            self.inv_sqrt.extend((0..n).map(|i| T::from_f64(inv_sqrt_degree(op, i))));
        }
    }
}

/// Reusable scratch for the Chebyshev application: four length-`n` work
/// vectors (residual, direction, scaled input, operator output), sized
/// lazily. Identity/Jacobi/SGS need no scratch; keeping this separate from
/// the CG vectors lets the preconditioner run while the solver's own
/// buffers are borrowed.
#[derive(Debug, Default)]
pub struct PrecondScratch {
    res: Vec<f64>,
    dir: Vec<f64>,
    tmp_in: Vec<f64>,
    tmp_out: Vec<f64>,
    scale: ScaleCache<f64>,
}

impl PrecondScratch {
    /// Create an empty scratch (buffers are sized on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn resize(&mut self, n: usize) {
        self.res.resize(n, 0.0);
        self.dir.resize(n, 0.0);
        self.tmp_in.resize(n, 0.0);
        self.tmp_out.resize(n, 0.0);
    }
}

/// Blockwise counterpart of [`PrecondScratch`]: four `n×b` blocks plus the
/// SpMM transpose scratch, in the precision of the blocks it serves.
#[derive(Debug, Default)]
pub struct BlockPrecondScratch<T = f64> {
    res: Option<BlockVectors<T>>,
    dir: Option<BlockVectors<T>>,
    tmp_in: Option<BlockVectors<T>>,
    tmp_out: Option<BlockVectors<T>>,
    spmm: Vec<T>,
    scale: ScaleCache<T>,
}

impl<T: Default> BlockPrecondScratch<T> {
    /// Create an empty scratch (blocks are sized on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The Chebyshev iteration coefficients, shared by the scalar and the
/// block apply so their per-column float sequences agree by construction.
struct ChebyshevPlan {
    steps: u32,
    inv_theta: f64,
    delta: f64,
    sigma: f64,
}

impl ChebyshevPlan {
    fn new(cfg: ChebyshevConfig) -> Self {
        let lambda_max = cfg.lambda_max_or_bound();
        let lambda_min = lambda_max / CHEBYSHEV_LAMBDA_RATIO;
        let theta = 0.5 * (lambda_max + lambda_min);
        let delta = 0.5 * (lambda_max - lambda_min);
        ChebyshevPlan {
            steps: cfg.steps(),
            inv_theta: 1.0 / theta,
            delta,
            sigma: theta / delta,
        }
    }
}

#[inline]
fn inv_sqrt_degree(op: &LaplacianOp<'_>, i: usize) -> f64 {
    let d = op.diagonal(i);
    if d > 0.0 {
        1.0 / d.sqrt()
    } else {
        1.0
    }
}

/// Scalar `z = M⁻¹ r` for the scaled-Chebyshev preconditioner.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub(crate) fn chebyshev_apply(
    op: &LaplacianOp<'_>,
    cfg: ChebyshevConfig,
    r: &[f64],
    z: &mut [f64],
    scratch: &mut PrecondScratch,
) {
    let n = op.order();
    assert_eq!(r.len(), n, "chebyshev: input dimension");
    assert_eq!(z.len(), n, "chebyshev: output dimension");
    scratch.resize(n);
    scratch.scale.ensure(op);
    let scale = &scratch.scale.inv_sqrt;
    let plan = ChebyshevPlan::new(cfg);
    // r̂ = D^{-1/2} r; d = r̂/θ; y = d (accumulated in z).
    for i in 0..n {
        scratch.res[i] = r[i] * scale[i];
        scratch.dir[i] = scratch.res[i] * plan.inv_theta;
        z[i] = scratch.dir[i];
    }
    let mut rho = 1.0 / plan.sigma;
    for _ in 1..plan.steps {
        // t = Â d = D^{-1/2} L D^{-1/2} d.
        for ((t, &d), &s) in scratch.tmp_in.iter_mut().zip(&scratch.dir).zip(scale) {
            *t = d * s;
        }
        op.apply(&scratch.tmp_in, &mut scratch.tmp_out);
        let rho_new = 1.0 / (2.0 * plan.sigma - rho);
        let dir_coeff = rho_new * rho;
        let res_coeff = 2.0 * rho_new / plan.delta;
        for i in 0..n {
            scratch.res[i] -= scratch.tmp_out[i] * scale[i];
            scratch.dir[i] = dir_coeff * scratch.dir[i] + res_coeff * scratch.res[i];
            z[i] += scratch.dir[i];
        }
        rho = rho_new;
    }
    // Undo the scaling: z = D^{-1/2} y.
    for (i, zi) in z.iter_mut().enumerate() {
        *zi *= scale[i];
    }
}

/// Blockwise `Z = M⁻¹ R`: one fused SpMM per Chebyshev step serves all
/// `b` columns. Per column of an `f64` block this is bitwise identical to
/// [`chebyshev_apply`] — `apply_block` matches per-column `apply`, and all
/// other passes are elementwise. An `f32` block (the mixed-precision inner
/// solve) runs the same recurrence in `f32`, its coefficients computed in
/// `f64` and rounded once, so every column's float sequence depends only
/// on its own data — the width-independence anchor. Every column is
/// computed (the block-CG caller never reads frozen columns' output, so a
/// harmless recompute beats per-column masking inside the fused sweep).
///
/// # Panics
///
/// Panics on dimension mismatch.
pub(crate) fn chebyshev_apply_block<T: Scalar>(
    op: &LaplacianOp<'_>,
    cfg: ChebyshevConfig,
    r: &BlockVectors<T>,
    z: &mut BlockVectors<T>,
    scratch: &mut BlockPrecondScratch<T>,
) {
    let n = op.order();
    let b = r.block_size();
    assert_eq!(r.len(), n, "chebyshev block: input dimension");
    assert_eq!(z.len(), n, "chebyshev block: output dimension");
    assert_eq!(z.block_size(), b, "chebyshev block: width mismatch");
    let plan = ChebyshevPlan::new(cfg);
    let inv_theta = T::from_f64(plan.inv_theta);
    scratch.scale.ensure(op);
    let scale = &scratch.scale.inv_sqrt;
    let mut res = BlockVectors::reuse(&mut scratch.res, n, b);
    let mut dir = BlockVectors::reuse(&mut scratch.dir, n, b);
    let mut tmp_in = BlockVectors::reuse(&mut scratch.tmp_in, n, b);
    let mut tmp_out = BlockVectors::reuse(&mut scratch.tmp_out, n, b);
    for j in 0..b {
        let rj = r.column(j);
        let (resj, dirj, zj) = (res.column_mut(j), dir.column_mut(j), z.column_mut(j));
        for i in 0..n {
            resj[i] = rj[i] * scale[i];
            dirj[i] = resj[i] * inv_theta;
            zj[i] = dirj[i];
        }
    }
    let mut rho = 1.0 / plan.sigma;
    for _ in 1..plan.steps {
        for j in 0..b {
            let dirj = dir.column(j);
            let tj = tmp_in.column_mut(j);
            for i in 0..n {
                tj[i] = dirj[i] * scale[i];
            }
        }
        op.apply_block(&tmp_in, &mut tmp_out, &mut scratch.spmm);
        let rho_new = 1.0 / (2.0 * plan.sigma - rho);
        let dir_coeff = T::from_f64(rho_new * rho);
        let res_coeff = T::from_f64(2.0 * rho_new / plan.delta);
        for j in 0..b {
            let tj = tmp_out.column(j);
            let (resj, dirj, zj) = (res.column_mut(j), dir.column_mut(j), z.column_mut(j));
            for i in 0..n {
                resj[i] -= tj[i] * scale[i];
                dirj[i] = dir_coeff * dirj[i] + res_coeff * resj[i];
                zj[i] += dirj[i];
            }
        }
        rho = rho_new;
    }
    for j in 0..b {
        let zj = z.column_mut(j);
        for (i, zi) in zj.iter_mut().enumerate() {
            *zi *= scale[i];
        }
    }
    scratch.res = Some(res);
    scratch.dir = Some(dir);
    scratch.tmp_in = Some(tmp_in);
    scratch.tmp_out = Some(tmp_out);
}

/// `z = M⁻¹ r` for one column under the Identity, Jacobi or symmetric
/// Gauss–Seidel preconditioner, in either precision. The scalar solver
/// and every column of the block solvers run this one body, so blocked
/// and scalar solves stay bitwise equal; the degree is rounded to `T`
/// once per use. Chebyshev has its own applies ([`chebyshev_apply`],
/// [`chebyshev_apply_block`]).
pub(crate) fn apply_column_preconditioner<T: Scalar>(
    op: &LaplacianOp<'_>,
    precond: Preconditioner,
    r: &[T],
    z: &mut [T],
) {
    let diag = |i: usize| T::from_f64(op.diagonal(i));
    match precond {
        Preconditioner::Identity => z.copy_from_slice(r),
        Preconditioner::Jacobi => {
            for (i, zi) in z.iter_mut().enumerate() {
                let d = diag(i);
                *zi = if d > T::ZERO { r[i] / d } else { r[i] };
            }
        }
        Preconditioner::SymmetricGaussSeidel => {
            let g = op.graph();
            let n = g.node_count();
            // Forward sweep: (D + L₋) y = r, with L entries −1 for edges.
            for i in 0..n {
                let d = diag(i);
                if d <= T::ZERO {
                    z[i] = r[i];
                    continue;
                }
                let mut acc = r[i];
                for &j in g.neighbors(i) {
                    if j < i {
                        acc += z[j];
                    } else {
                        break; // neighbor lists are sorted ascending
                    }
                }
                z[i] = acc / d;
            }
            // Diagonal scale: y <- D y.
            for (i, zi) in z.iter_mut().enumerate() {
                let d = diag(i);
                if d > T::ZERO {
                    *zi *= d;
                }
            }
            // Backward sweep: (D + L₊) z = y.
            for i in (0..n).rev() {
                let d = diag(i);
                if d <= T::ZERO {
                    continue;
                }
                let mut acc = z[i];
                for &j in g.neighbors(i).iter().rev() {
                    if j > i {
                        acc += z[j];
                    } else {
                        break;
                    }
                }
                z[i] = acc / d;
            }
        }
        Preconditioner::Chebyshev(_) => unreachable!("Chebyshev has its own applies"),
    }
}

/// Deterministic `λ_max(Â)` estimate for the scaled operator: a fixed
/// `POWER_ITERATIONS`-step power iteration from a seeded start vector
/// (no tolerance branch, so the float sequence — and the resolved config —
/// is a pure function of the graph), widened by the safety margin and
/// capped at the universal bound 2.
pub fn scaled_lambda_max_estimate(op: &LaplacianOp<'_>) -> f64 {
    let n = op.order();
    if n < 2 || op.graph().edge_count() == 0 {
        return LAMBDA_MAX_BOUND;
    }
    let mut x = random_unit_perp_ones(n, POWER_SEED);
    let mut scaled = vec![0.0; n];
    let mut y = vec![0.0; n];
    let mut value = 0.0f64;
    for _ in 0..POWER_ITERATIONS {
        // y = Â x.
        for i in 0..n {
            scaled[i] = x[i] * inv_sqrt_degree(op, i);
        }
        op.apply(&scaled, &mut y);
        for (i, yi) in y.iter_mut().enumerate() {
            *yi *= inv_sqrt_degree(op, i);
        }
        let norm = vector::norm2(&y);
        if norm == 0.0 || !norm.is_finite() {
            return LAMBDA_MAX_BOUND;
        }
        // x is unit, so the Rayleigh quotient is x·Âx = x·y.
        value = vector::dot(&x, &y);
        for (xi, &yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
    }
    if value.is_nan() || value <= 0.0 {
        return LAMBDA_MAX_BOUND;
    }
    (value * LAMBDA_MAX_MARGIN).min(LAMBDA_MAX_BOUND)
}

/// Replace any auto sentinels in a Chebyshev preconditioner request with
/// concrete, graph-specific values; all other preconditioners pass through
/// untouched. Idempotent: a resolved config is returned as-is, so layers
/// can call this defensively and the power iteration still runs at most
/// once per engine (the resolved config is stored on the engine's params
/// and inherited by the sketch build, the recovery ladder, the candidate
/// evaluator, and serve's background re-sketch).
pub fn resolve_preconditioner(op: &LaplacianOp<'_>, p: Preconditioner) -> Preconditioner {
    match p {
        Preconditioner::Chebyshev(cfg) if !cfg.is_resolved() => {
            let lambda_max = if cfg.lambda_max > 0.0 {
                cfg.lambda_max
            } else {
                scaled_lambda_max_estimate(op)
            };
            Preconditioner::Chebyshev(ChebyshevConfig { degree: cfg.steps(), lambda_max })
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{solve_laplacian_simple, CgOptions};
    use reecc_graph::generators::{barabasi_albert, complete, line, star};

    #[test]
    fn config_sentinels_and_resolution() {
        let auto = ChebyshevConfig::default();
        assert!(!auto.is_resolved());
        assert_eq!(auto.steps(), DEFAULT_CHEBYSHEV_STEPS);
        assert_eq!(auto.lambda_max_or_bound(), 2.0);
        let g = barabasi_albert(80, 2, 3);
        let op = LaplacianOp::new(&g);
        let resolved = resolve_preconditioner(&op, Preconditioner::Chebyshev(auto));
        let Preconditioner::Chebyshev(cfg) = resolved else {
            panic!("resolution changed the variant: {resolved:?}")
        };
        assert!(cfg.is_resolved());
        assert!(cfg.lambda_max > 0.0 && cfg.lambda_max <= 2.0, "{}", cfg.lambda_max);
        // Idempotent, bitwise.
        assert_eq!(resolve_preconditioner(&op, resolved), resolved);
        // Non-Chebyshev requests pass through.
        assert_eq!(resolve_preconditioner(&op, Preconditioner::Jacobi), Preconditioner::Jacobi);
    }

    #[test]
    fn scaled_lambda_max_is_tight_on_known_spectra() {
        // K_n: normalized-Laplacian λ_max = n/(n−1); star: exactly 2.
        let g = complete(8);
        let est = scaled_lambda_max_estimate(&LaplacianOp::new(&g));
        let truth = 8.0 / 7.0;
        assert!(est >= truth - 1e-9 && est <= truth * LAMBDA_MAX_MARGIN + 1e-9, "{est}");
        let s = star(12);
        let est = scaled_lambda_max_estimate(&LaplacianOp::new(&s));
        assert!((est - 2.0).abs() < 1e-6, "{est}");
    }

    #[test]
    fn preconditioner_is_symmetric() {
        // CG requires M⁻¹ symmetric: check r1·(M⁻¹ r2) == r2·(M⁻¹ r1)
        // to float accuracy on an irregular graph.
        let g = barabasi_albert(60, 2, 9);
        let op = LaplacianOp::new(&g);
        let cfg = match resolve_preconditioner(
            &op,
            Preconditioner::Chebyshev(ChebyshevConfig::default()),
        ) {
            Preconditioner::Chebyshev(cfg) => cfg,
            _ => unreachable!(),
        };
        let mut scratch = PrecondScratch::new();
        let r1: Vec<f64> = (0..60).map(|i| ((i * 13) as f64).sin()).collect();
        let r2: Vec<f64> = (0..60).map(|i| ((i * 7 + 2) as f64).cos()).collect();
        let mut z1 = vec![0.0; 60];
        let mut z2 = vec![0.0; 60];
        chebyshev_apply(&op, cfg, &r1, &mut z1, &mut scratch);
        chebyshev_apply(&op, cfg, &r2, &mut z2, &mut scratch);
        let a = vector::dot(&r2, &z1);
        let b = vector::dot(&r1, &z2);
        assert!((a - b).abs() <= 1e-10 * a.abs().max(1.0), "{a} vs {b}");
    }

    #[test]
    fn block_apply_is_bitwise_identical_to_scalar() {
        let g = barabasi_albert(70, 3, 5);
        let op = LaplacianOp::new(&g);
        let cfg = ChebyshevConfig { degree: 3, lambda_max: 1.9 };
        let cols: Vec<Vec<f64>> = (0..5)
            .map(|j| (0..70).map(|i| ((i * 3 + j * 11) as f64).sin()).collect())
            .collect();
        let r = BlockVectors::from_columns(&cols);
        let mut z = BlockVectors::zeros(70, 5);
        let mut bscratch = BlockPrecondScratch::new();
        chebyshev_apply_block(&op, cfg, &r, &mut z, &mut bscratch);
        let mut scratch = PrecondScratch::new();
        let mut zs = vec![0.0; 70];
        for (j, c) in cols.iter().enumerate() {
            chebyshev_apply(&op, cfg, c, &mut zs, &mut scratch);
            assert_eq!(z.column(j), zs.as_slice(), "column {j}");
        }
    }

    #[test]
    fn f32_block_apply_tracks_f64_within_single_precision() {
        let g = barabasi_albert(50, 2, 17);
        let op = LaplacianOp::new(&g);
        let cfg = ChebyshevConfig { degree: 4, lambda_max: 1.8 };
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|j| (0..50).map(|i| ((i + j * 19) as f64 * 0.37).sin()).collect())
            .collect();
        let r64 = BlockVectors::from_columns(&cols);
        let mut z64 = BlockVectors::zeros(50, 3);
        chebyshev_apply_block(&op, cfg, &r64, &mut z64, &mut BlockPrecondScratch::new());
        let mut r32 = BlockVectors::<f32>::zeros(50, 3);
        for (j, col) in cols.iter().enumerate() {
            for (dst, &v) in r32.column_mut(j).iter_mut().zip(col) {
                *dst = v as f32;
            }
        }
        let mut z32 = BlockVectors::<f32>::zeros(50, 3);
        chebyshev_apply_block(&op, cfg, &r32, &mut z32, &mut BlockPrecondScratch::new());
        for j in 0..3 {
            for i in 0..50 {
                let d = (z64.column(j)[i] - z32.column(j)[i] as f64).abs();
                assert!(d < 1e-4, "({i},{j}): {d}");
            }
        }
    }

    #[test]
    fn cheby_cg_converges_and_cuts_iterations_vs_jacobi() {
        let g = barabasi_albert(600, 3, 21);
        let op = LaplacianOp::new(&g);
        let mut b = vec![0.0; 600];
        b[0] = 1.0;
        b[599] = -1.0;
        let cheby =
            resolve_preconditioner(&op, Preconditioner::Chebyshev(ChebyshevConfig::default()));
        let out = solve_laplacian_simple(
            &op,
            &b,
            CgOptions { preconditioner: cheby, ..CgOptions::default() },
        );
        assert!(out.converged, "residual {}", out.relative_residual);
        let jac = solve_laplacian_simple(&op, &b, CgOptions::default());
        for (a, e) in out.solution.iter().zip(&jac.solution) {
            assert!((a - e).abs() < 1e-6);
        }
        assert!(
            out.iterations < jac.iterations,
            "cheby {} vs jacobi {} iterations",
            out.iterations,
            jac.iterations
        );
    }

    #[test]
    fn unresolved_config_still_converges_on_pathological_graphs() {
        // The conservative [2/30, 2] interval must never diverge.
        for g in [line(80), star(40)] {
            let op = LaplacianOp::new(&g);
            let n = g.node_count();
            let mut b = vec![0.0; n];
            b[0] = 1.0;
            b[n - 1] = -1.0;
            let out = solve_laplacian_simple(
                &op,
                &b,
                CgOptions {
                    preconditioner: Preconditioner::Chebyshev(ChebyshevConfig::default()),
                    ..CgOptions::default()
                },
            );
            assert!(out.converged, "n={n} residual {}", out.relative_residual);
        }
    }
}
