//! The paper's three query algorithms: EXACTQUERY (Algorithm 1),
//! APPROXQUERY (Algorithm 2), FASTQUERY (Algorithm 3), plus APPROXRECC
//! (Algorithm 7), the single-node approximate eccentricity used inside the
//! optimizers.

use reecc_graph::Graph;
use reecc_hull::approxch::{approx_convex_hull, ApproxChOptions};

use crate::exact::ExactResistance;
use crate::sketch::{ResistanceSketch, SketchParams};
use crate::CoreError;

/// Which pipeline actually answered a query (FASTQUERY may degrade to a
/// lower tier when the sketch is unhealthy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryTier {
    /// Sketch + hull boundary scan (FASTQUERY).
    Fast,
    /// Sketch + full node scan (APPROXQUERY).
    Approx,
    /// Dense pseudoinverse (EXACTQUERY).
    Exact,
}

impl std::fmt::Display for QueryTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryTier::Fast => write!(f, "fast"),
            QueryTier::Approx => write!(f, "approx"),
            QueryTier::Exact => write!(f, "exact"),
        }
    }
}

/// When FASTQUERY abandons the hull (and possibly the sketch) because too
/// many sketch rows stayed unconverged after the repair ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Above this degraded-row fraction the hull step is skipped and the
    /// query falls back to a full sketch scan (APPROXQUERY semantics).
    pub max_unconverged_fraction: f64,
    /// Above this fraction the sketch itself is distrusted and the query
    /// escalates to EXACTQUERY — when the size guard permits.
    pub severe_unconverged_fraction: f64,
    /// Largest graph order for which the `O(n³)` exact escalation is
    /// allowed. `0` disables exact escalation.
    pub exact_fallback_max_nodes: usize,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            max_unconverged_fraction: 0.25,
            severe_unconverged_fraction: 0.5,
            exact_fallback_max_nodes: 2048,
        }
    }
}

/// How a (possibly degraded) query was answered.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryDiagnostics {
    /// Tier the caller asked for.
    pub requested_tier: QueryTier,
    /// Tier that produced the returned values.
    pub tier: QueryTier,
    /// Sketch dimension after any row drops (0 when no sketch was usable).
    pub sketch_dimension: usize,
    /// Sketch rows still degraded after the repair ladder.
    pub degraded_rows: usize,
    /// Sketch rows the escalation ladder repaired.
    pub repaired_rows: usize,
    /// Human-readable notes on every degradation decision taken.
    pub notes: Vec<String>,
}

impl QueryDiagnostics {
    /// Whether the query was answered below the requested tier.
    pub fn degraded(&self) -> bool {
        self.tier != self.requested_tier
    }

    fn healthy(tier: QueryTier, sketch: Option<&ResistanceSketch>) -> Self {
        QueryDiagnostics {
            requested_tier: tier,
            tier,
            sketch_dimension: sketch.map_or(0, ResistanceSketch::dimension),
            degraded_rows: sketch.map_or(0, |s| {
                let d = s.diagnostics();
                d.unconverged.len() + d.dropped.len()
            }),
            repaired_rows: sketch.map_or(0, |s| s.diagnostics().repaired.len()),
            notes: Vec::new(),
        }
    }
}

/// EXACTQUERY (Algorithm 1): dense pseudoinverse preprocessing, then
/// `c(i)` for every `i ∈ q`. `O(n³ + |Q|·n)`.
///
/// # Errors
///
/// Propagates preprocessing failures; rejects out-of-range query ids.
pub fn exact_query(g: &Graph, q: &[usize]) -> Result<Vec<(usize, f64)>, CoreError> {
    let exact = ExactResistance::new(g)?;
    let n = g.node_count();
    q.iter()
        .map(|&i| {
            if i >= n {
                return Err(CoreError::NodeOutOfRange { node: i, n });
            }
            Ok((i, exact.eccentricity(i).0))
        })
        .collect()
}

/// APPROXQUERY (Algorithm 2): build the APPROXER sketch, then
/// `c̄(i) = max_j r̃(i, j)` for every `i ∈ q`. `Õ((m + |Q|·n)/ε²)`.
///
/// # Errors
///
/// Propagates sketch failures; rejects out-of-range query ids.
pub fn approx_query(
    g: &Graph,
    q: &[usize],
    params: &SketchParams,
) -> Result<Vec<(usize, f64)>, CoreError> {
    let sketch = ResistanceSketch::build(g, params)?;
    let n = g.node_count();
    q.iter()
        .map(|&i| {
            if i >= n {
                return Err(CoreError::NodeOutOfRange { node: i, n });
            }
            Ok((i, sketch.eccentricity(i).0))
        })
        .collect()
}

/// Output of [`fast_query`], carrying the diagnostics the paper reports
/// (the boundary size `l` drives the complexity claim).
#[derive(Debug, Clone)]
pub struct FastQueryOutput {
    /// `(node, ĉ(node))` per query, in input order.
    pub results: Vec<(usize, f64)>,
    /// The hull boundary subset `Ŝ` (node ids; empty when the query
    /// degraded below the Fast tier).
    pub hull: Vec<usize>,
    /// Sketch dimension `d` used.
    pub dimension: usize,
    /// Whether the hull enumeration was truncated by a vertex cap.
    pub hull_truncated: bool,
    /// Which tier answered and why (see [`DegradationPolicy`]).
    pub diagnostics: QueryDiagnostics,
}

impl FastQueryOutput {
    /// Boundary size `l = |Ŝ|`.
    pub fn hull_size(&self) -> usize {
        self.hull.len()
    }
}

/// The default hull vertex budget `l_max` used by [`fast_query`]:
/// `max(16, 2⌈√n⌉)`.
///
/// Rationale (see DESIGN.md §3): in a JL-dimensional embedding essentially
/// *every* point is a hull vertex, so enforcing rigorous `θ`-coverage
/// degenerates to `l ≈ n` and erases FASTQUERY's complexity win. The
/// enumeration order (diameter endpoints first, then extremes in witness
/// directions) surfaces exactly the peripheral points that realize
/// eccentricity maxima, so a small budget loses no accuracy in practice —
/// matching the paper's empirical observation that `l` is small on real
/// networks. Pass explicit [`ApproxChOptions`] to
/// [`fast_query_with_hull_options`] for the unbudgeted faithful mode.
pub fn default_hull_budget(n: usize) -> usize {
    (2.0 * (n as f64).sqrt().ceil()) as usize + 16
}

/// FASTQUERY (Algorithm 3): sketch + approximate convex hull; queries are
/// answered against the `l`-point boundary subset only.
/// `Õ((m + n·l)/ε² + |Q|·l)`.
///
/// The hull tolerance is the paper's `θ = ε/12`; the vertex budget is
/// [`default_hull_budget`].
///
/// # Errors
///
/// Propagates sketch failures; rejects out-of-range query ids.
pub fn fast_query(
    g: &Graph,
    q: &[usize],
    params: &SketchParams,
) -> Result<FastQueryOutput, CoreError> {
    let opts = ApproxChOptions {
        max_vertices: Some(default_hull_budget(g.node_count())),
        ..ApproxChOptions::default()
    };
    fast_query_with_hull_options(g, q, params, opts)
}

/// [`fast_query`] with explicit hull options (vertex caps, iteration
/// caps) — used by the ablation benches.
///
/// # Errors
///
/// Propagates sketch failures; rejects out-of-range query ids.
pub fn fast_query_with_hull_options(
    g: &Graph,
    q: &[usize],
    params: &SketchParams,
    hull_opts: ApproxChOptions,
) -> Result<FastQueryOutput, CoreError> {
    fast_query_with_policy(g, q, params, hull_opts, DegradationPolicy::default())
}

/// FASTQUERY with an explicit [`DegradationPolicy`]: when too many sketch
/// rows remain degraded after the repair ladder, the query falls back to a
/// full sketch scan (APPROXQUERY), and beyond the severe threshold to
/// EXACTQUERY — gated by `exact_fallback_max_nodes` to keep the `O(n³)`
/// escalation off large graphs. The answering tier and every fallback
/// decision are recorded in the output's [`QueryDiagnostics`]. The hull
/// runs on `params.threads` threads, whatever `hull_opts.threads` says.
///
/// # Errors
///
/// Propagates sketch failures; rejects out-of-range query ids; returns
/// [`CoreError::Numerical`] when the sketch is unusable (no surviving rows)
/// and the size guard forbids the exact escalation.
pub fn fast_query_with_policy(
    g: &Graph,
    q: &[usize],
    params: &SketchParams,
    hull_opts: ApproxChOptions,
    policy: DegradationPolicy,
) -> Result<FastQueryOutput, CoreError> {
    let n = g.node_count();
    for &i in q {
        if i >= n {
            return Err(CoreError::NodeOutOfRange { node: i, n });
        }
    }
    let sketch = ResistanceSketch::build(g, params)?;
    let mut diag = QueryDiagnostics::healthy(QueryTier::Fast, Some(&sketch));
    let frac = sketch.diagnostics().unconverged_fraction();
    let sketch_unusable = sketch.dimension() == 0;
    let severe = sketch_unusable || frac > policy.severe_unconverged_fraction;

    if severe {
        diag.notes.push(if sketch_unusable {
            "sketch has no surviving rows".to_string()
        } else {
            format!(
                "degraded sketch rows ({:.0}%) exceed severe threshold ({:.0}%)",
                frac * 100.0,
                policy.severe_unconverged_fraction * 100.0
            )
        });
        if n <= policy.exact_fallback_max_nodes {
            diag.tier = QueryTier::Exact;
            diag.notes.push("escalated to dense exact query".to_string());
            let exact = ExactResistance::new(g)?;
            let results = q.iter().map(|&i| (i, exact.eccentricity(i).0)).collect();
            return Ok(FastQueryOutput {
                results,
                hull: Vec::new(),
                dimension: sketch.dimension(),
                hull_truncated: false,
                diagnostics: diag,
            });
        }
        if sketch_unusable {
            return Err(CoreError::Numerical(format!(
                "sketch has no surviving rows and graph order {n} exceeds the \
                 exact-fallback size guard ({})",
                policy.exact_fallback_max_nodes
            )));
        }
        diag.notes.push(format!(
            "graph order {n} exceeds exact-fallback size guard ({}); \
             answering from the degraded sketch by full scan",
            policy.exact_fallback_max_nodes
        ));
        diag.tier = QueryTier::Approx;
    } else if frac > policy.max_unconverged_fraction {
        diag.tier = QueryTier::Approx;
        diag.notes.push(format!(
            "degraded sketch rows ({:.0}%) exceed hull-trust threshold ({:.0}%); \
             skipping hull, scanning all nodes",
            frac * 100.0,
            policy.max_unconverged_fraction * 100.0
        ));
    }

    if diag.tier == QueryTier::Approx {
        let results = q.iter().map(|&i| (i, sketch.eccentricity(i).0)).collect();
        return Ok(FastQueryOutput {
            results,
            hull: Vec::new(),
            dimension: sketch.dimension(),
            hull_truncated: false,
            diagnostics: diag,
        });
    }

    let theta = (params.epsilon / 12.0).clamp(1e-6, 0.999);
    let hull_opts = ApproxChOptions { threads: params.threads, ..hull_opts };
    let hull_result = approx_convex_hull(&sketch.point_view(), theta, hull_opts);
    let results =
        q.iter().map(|&i| (i, sketch.eccentricity_over(i, &hull_result.vertices).0)).collect();
    Ok(FastQueryOutput {
        results,
        hull: hull_result.vertices,
        dimension: sketch.dimension(),
        hull_truncated: hull_result.truncated,
        diagnostics: diag,
    })
}

/// Exact single-pair resistance distance via **one** CG solve (no dense
/// pseudoinverse): `r(u,v) = bᵀ L† b` with `b = e_u − e_v`. `Õ(m)` per
/// query — the right tool when only a handful of pairs is needed on a
/// large graph. The solve runs through the fault-tolerant escalation
/// ladder, so a hard problem degrades to stronger preconditioning or (on
/// small graphs) the dense fallback instead of silently returning a bad
/// iterate.
///
/// # Errors
///
/// Rejects empty/disconnected graphs and out-of-range ids; returns
/// [`CoreError::Numerical`] when even the full ladder cannot converge.
pub fn resistance_between(g: &Graph, u: usize, v: usize) -> Result<f64, CoreError> {
    let n = g.node_count();
    if n == 0 {
        return Err(CoreError::EmptyGraph);
    }
    if u >= n {
        return Err(CoreError::NodeOutOfRange { node: u, n });
    }
    if v >= n {
        return Err(CoreError::NodeOutOfRange { node: v, n });
    }
    if u == v {
        return Ok(0.0);
    }
    if !reecc_graph::traversal::is_connected(g) {
        return Err(CoreError::Disconnected);
    }
    let op = reecc_linalg::LaplacianOp::new(g);
    let mut solver = reecc_linalg::RecoverySolver::new(
        op,
        reecc_linalg::cg::CgOptions::default(),
        reecc_linalg::RecoveryPolicy::default(),
    );
    let (_, r_uv, report) = crate::update::solve_edge_potentials_recovering(
        &mut solver,
        reecc_graph::Edge::new(u, v),
    );
    if !report.converged {
        return Err(CoreError::Numerical(format!(
            "resistance solve did not converge after {} attempts (residual {:.3e})",
            report.attempts.len(),
            report.final_residual
        )));
    }
    Ok(r_uv)
}

/// The full approximate eccentricity distribution via FASTQUERY
/// (`Q = V`), as an [`EccentricityDistribution`](crate::EccentricityDistribution)
/// plus the query diagnostics.
///
/// # Errors
///
/// Propagates sketch failures.
pub fn fast_query_distribution(
    g: &Graph,
    params: &SketchParams,
) -> Result<(crate::metrics::EccentricityDistribution, FastQueryOutput), CoreError> {
    let q: Vec<usize> = (0..g.node_count()).collect();
    let out = fast_query(g, &q, params)?;
    let dist = crate::metrics::EccentricityDistribution::new(
        out.results.iter().map(|&(_, c)| c).collect(),
    );
    Ok((dist, out))
}

/// APPROXRECC (Algorithm 7): approximate `c(s)` for a single node by
/// building a sketch and scanning all nodes. `Õ(m/ε²)`.
///
/// # Errors
///
/// Propagates sketch failures; rejects out-of-range `s`.
pub fn approx_recc(g: &Graph, s: usize, params: &SketchParams) -> Result<f64, CoreError> {
    let n = g.node_count();
    if s >= n {
        return Err(CoreError::NodeOutOfRange { node: s, n });
    }
    let sketch = ResistanceSketch::build(g, params)?;
    Ok(sketch.eccentricity(s).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reecc_graph::generators::{barabasi_albert, line, star};

    fn params(epsilon: f64) -> SketchParams {
        SketchParams { epsilon, seed: 13, ..Default::default() }
    }

    #[test]
    fn exact_query_on_line() {
        let g = line(8);
        let out = exact_query(&g, &[0, 3, 7]).unwrap();
        assert_eq!(out.len(), 3);
        assert!((out[0].1 - 7.0).abs() < 1e-9);
        assert!((out[1].1 - 4.0).abs() < 1e-9);
        assert!((out[2].1 - 7.0).abs() < 1e-9);
    }

    #[test]
    fn exact_query_rejects_bad_id() {
        let g = line(4);
        assert!(matches!(
            exact_query(&g, &[9]),
            Err(CoreError::NodeOutOfRange { node: 9, n: 4 })
        ));
    }

    #[test]
    fn approx_query_within_epsilon_of_exact() {
        let g = star(15);
        let eps = 0.3;
        let exact = exact_query(&g, &[0, 1, 7]).unwrap();
        let approx = approx_query(&g, &[0, 1, 7], &params(eps)).unwrap();
        for ((i, c), (j, c_bar)) in exact.iter().zip(&approx) {
            assert_eq!(i, j);
            assert!((c_bar - c).abs() <= eps * c, "node {i}: approx {c_bar} vs exact {c}");
        }
    }

    #[test]
    fn fast_query_within_epsilon_of_exact() {
        let g = barabasi_albert(50, 2, 21);
        let eps = 0.3;
        let q: Vec<usize> = (0..50).collect();
        let exact = exact_query(&g, &q).unwrap();
        let fast = fast_query(&g, &q, &params(eps)).unwrap();
        assert!(
            fast.hull_size() <= default_hull_budget(50),
            "hull boundary ({}) must respect the budget",
            fast.hull_size()
        );
        for ((i, c), (j, c_hat)) in exact.iter().zip(&fast.results) {
            assert_eq!(i, j);
            assert!((c_hat - c).abs() <= eps * c + 1e-9, "node {i}: fast {c_hat} vs exact {c}");
        }
    }

    #[test]
    fn fast_query_hull_contains_extreme_nodes() {
        // On a line the embedding is essentially 1-D; the endpoints must be
        // on the hull boundary.
        let g = line(15);
        let fast = fast_query(&g, &[7], &params(0.3)).unwrap();
        assert!(fast.hull.contains(&0) || fast.hull.contains(&14));
    }

    #[test]
    fn resistance_between_matches_dense() {
        let g = barabasi_albert(40, 2, 33);
        let exact = crate::ExactResistance::new(&g).unwrap();
        for (u, v) in [(0usize, 1usize), (5, 30), (12, 39)] {
            let solver = resistance_between(&g, u, v).unwrap();
            let dense = exact.resistance(u, v);
            assert!((solver - dense).abs() < 1e-6, "r({u},{v}): {solver} vs {dense}");
        }
        assert_eq!(resistance_between(&g, 7, 7).unwrap(), 0.0);
    }

    #[test]
    fn resistance_between_rejects_bad_input() {
        let g = line(4);
        assert!(resistance_between(&g, 0, 9).is_err());
        let disc = reecc_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(resistance_between(&disc, 0, 2).is_err());
    }

    #[test]
    fn fast_query_distribution_matches_pointwise() {
        let g = star(20);
        let p = params(0.3);
        let (dist, out) = fast_query_distribution(&g, &p).unwrap();
        assert_eq!(dist.len(), 20);
        for &(node, c) in &out.results {
            assert_eq!(dist.get(node), c);
        }
        // Star: hub radius ~1, leaf diameter ~2.
        assert!(dist.radius() < dist.diameter());
    }

    #[test]
    fn approx_recc_close_to_exact() {
        let g = barabasi_albert(40, 3, 2);
        let eps = 0.3;
        let exact = exact_query(&g, &[5]).unwrap()[0].1;
        let approx = approx_recc(&g, 5, &params(eps)).unwrap();
        assert!((approx - exact).abs() <= eps * exact);
    }

    #[test]
    fn approx_recc_rejects_bad_id() {
        let g = line(4);
        assert!(approx_recc(&g, 4, &params(0.3)).is_err());
    }

    /// A policy that leaves starved CG rows genuinely unconverged: no
    /// tolerance relaxation, no budget boost, no dense fallback.
    fn no_repair() -> reecc_linalg::RecoveryPolicy {
        reecc_linalg::RecoveryPolicy {
            tolerance_relaxation: 1.0,
            iteration_boost: 1,
            dense_fallback_max_nodes: 0,
        }
    }

    fn starved_params() -> SketchParams {
        SketchParams {
            epsilon: 0.3,
            seed: 13,
            cg: reecc_linalg::CgOptions { max_iterations: Some(1), ..Default::default() },
            recovery: no_repair(),
            ..Default::default()
        }
    }

    #[test]
    fn healthy_query_stays_at_fast_tier() {
        let g = barabasi_albert(50, 2, 21);
        let out = fast_query(&g, &[0, 10], &params(0.3)).unwrap();
        assert_eq!(out.diagnostics.tier, QueryTier::Fast);
        assert_eq!(out.diagnostics.requested_tier, QueryTier::Fast);
        assert!(!out.diagnostics.degraded());
        assert!(out.diagnostics.notes.is_empty());
        assert!(out.diagnostics.sketch_dimension > 0);
    }

    #[test]
    fn severely_starved_sketch_escalates_to_exact_tier() {
        let g = line(40);
        let q: Vec<usize> = (0..40).collect();
        let out = fast_query_with_policy(
            &g,
            &q,
            &starved_params(),
            ApproxChOptions::default(),
            DegradationPolicy::default(),
        )
        .unwrap();
        assert_eq!(
            out.diagnostics.tier,
            QueryTier::Exact,
            "notes: {:?}",
            out.diagnostics.notes
        );
        assert!(out.diagnostics.degraded());
        assert!(!out.diagnostics.notes.is_empty());
        assert!(out.hull.is_empty(), "degraded query must not claim a hull");
        // The exact tier must return the true eccentricities even though
        // the sketch was garbage.
        let exact = exact_query(&g, &q).unwrap();
        for ((i, c_hat), (j, c)) in out.results.iter().zip(&exact) {
            assert_eq!(i, j);
            assert!((c_hat - c).abs() < 1e-9, "node {i}: {c_hat} vs {c}");
        }
    }

    #[test]
    fn severe_degradation_without_exact_guard_reports_approx_tier() {
        let g = line(40);
        let policy = DegradationPolicy { exact_fallback_max_nodes: 0, ..Default::default() };
        let out = fast_query_with_policy(
            &g,
            &[0, 20, 39],
            &starved_params(),
            ApproxChOptions::default(),
            policy,
        )
        .unwrap();
        assert_eq!(
            out.diagnostics.tier,
            QueryTier::Approx,
            "notes: {:?}",
            out.diagnostics.notes
        );
        assert!(out.diagnostics.degraded());
        assert!(out.diagnostics.degraded_rows > 0);
        assert!(out.hull.is_empty());
        for &(_, c_hat) in &out.results {
            assert!(c_hat.is_finite(), "degraded answers must still be finite");
        }
    }

    #[test]
    fn default_policy_repairs_starved_rows_and_stays_fast() {
        // Same starved CG budget, but the default recovery ladder (dense
        // fallback allowed) should repair every row, so no degradation.
        let g = line(40);
        let p = SketchParams {
            epsilon: 0.3,
            seed: 13,
            cg: reecc_linalg::CgOptions { max_iterations: Some(1), ..Default::default() },
            ..Default::default()
        };
        let q: Vec<usize> = (0..40).collect();
        let out = fast_query(&g, &q, &p).unwrap();
        assert_eq!(out.diagnostics.tier, QueryTier::Fast);
        assert!(out.diagnostics.repaired_rows > 0, "ladder should have repaired rows");
        let exact = exact_query(&g, &q).unwrap();
        for ((i, c_hat), (_, c)) in out.results.iter().zip(&exact) {
            assert!((c_hat - c).abs() <= 0.3 * c + 1e-9, "node {i}: fast {c_hat} vs exact {c}");
        }
    }
}
