//! Property-based tests for the blocked + parallel candidate-evaluation
//! engine: on random connected graphs, every optimizer must produce a
//! plan **bitwise identical** to the serial scalar path for every
//! `threads × block_size` combination, including when CG is starved so
//! that columns fail and the recovery ladder has to rescue them. A last
//! property pins the sketch screen of CHMINRECC / MINRECC: a pool of at
//! most `CONFIRM` candidates is decided exactly as CG alone decides it.

use proptest::prelude::*;
use reecc_core::query::default_hull_budget;
use reecc_core::sketch::ResistanceSketch;
use reecc_core::{ExactResistance, SketchParams};
use reecc_graph::generators::connected_erdos_renyi;
use reecc_graph::{Edge, Graph};
use reecc_hull::approxch::{approx_convex_hull, ApproxChOptions};
use reecc_linalg::cg::CgOptions;
use reecc_opt::{
    cen_min_recc_with_diagnostics, ch_min_recc_controlled, ch_min_recc_with_diagnostics,
    far_min_recc_with_diagnostics, min_recc_controlled, min_recc_with_diagnostics,
    simple_greedy_with_diagnostics, CandidateEvaluator, OptimizeParams, PlanStep, Problem,
    RunControl, SimpleOptions, CONFIRM,
};

/// A random connected graph with 6..=20 nodes.
fn connected_graph() -> impl Strategy<Value = Graph> {
    (6usize..=20, 0.05f64..0.5, any::<u64>())
        .prop_map(|(n, p, seed)| connected_erdos_renyi(n, p, seed))
}

/// A random connected graph with 6..=12 nodes: at most 66 node pairs,
/// at least 11 of them edges, so every hull-pair pool (plus MINRECC's
/// direct edge) holds at most 56 candidates.
fn small_connected_graph() -> impl Strategy<Value = Graph> {
    (6usize..=12, 0.05f64..0.6, any::<u64>())
        .prop_map(|(n, p, seed)| connected_erdos_renyi(n, p, seed))
}

/// CHMINRECC / MINRECC as they ran before the sketch screen, re-enacted
/// from public parts: per iteration the same re-sketch seed, hull and
/// candidate pool, then `evaluate_edges` over the whole pool and the
/// first-best rule over its finite, converged scores. Returns the steps
/// and the number of candidates evaluated.
fn cg_only_plan(
    g: &Graph,
    k: usize,
    s: usize,
    params: &OptimizeParams,
    include_direct: bool,
) -> (Vec<PlanStep>, usize) {
    let n = g.node_count();
    let evaluator = CandidateEvaluator::from_sketch_params(&params.sketch);
    let mut current = g.clone();
    let mut steps = Vec::new();
    let mut evaluated = 0;
    for iter in 0..k {
        let sketch_params = SketchParams {
            seed: params.sketch.seed.wrapping_add(1_000_003u64.wrapping_mul(iter as u64)),
            ..params.sketch
        };
        let sketch = ResistanceSketch::build(&current, &sketch_params).unwrap();
        let hull = approx_convex_hull(
            &sketch.point_view(),
            (sketch_params.epsilon / 12.0).clamp(1e-6, 0.999),
            ApproxChOptions {
                max_vertices: Some(default_hull_budget(n).max(2)),
                threads: sketch_params.threads,
                ..ApproxChOptions::default()
            },
        )
        .vertices;
        let mut pool = Vec::new();
        for (i, &u) in hull.iter().enumerate() {
            for &v in &hull[i + 1..] {
                if !current.has_edge(u, v) {
                    pool.push(Edge::new(u, v));
                }
            }
        }
        if include_direct {
            let eligible: Vec<usize> =
                hull.iter().copied().filter(|&u| u != s && !current.has_edge(s, u)).collect();
            if !eligible.is_empty() {
                let direct = Edge::new(s, sketch.eccentricity_over(s, &eligible).1);
                if !pool.contains(&direct) {
                    pool.push(direct);
                }
            }
        }
        assert!(pool.len() <= CONFIRM, "pool of {} candidates", pool.len());
        let base = evaluator.distance_scan(&sketch, s);
        let step = if pool.is_empty() {
            let far = (0..n)
                .filter(|&u| u != s && !current.has_edge(s, u) && base[u].is_finite())
                .max_by(|&a, &b| base[a].total_cmp(&base[b]));
            far.map(|u| PlanStep { edge: Edge::new(s, u), score: base[u] })
        } else {
            let (scores, _) = evaluator.evaluate_edges(&current, &base, s, &pool);
            evaluated += scores.len();
            let mut best: Option<PlanStep> = None;
            for sc in scores.iter().filter(|sc| sc.converged && sc.score.is_finite()) {
                match best {
                    Some(b) if sc.score >= b.score => {}
                    _ => best = Some(PlanStep { edge: sc.edge, score: sc.score }),
                }
            }
            best
        };
        let Some(step) = step else { break };
        current = current.with_edge(step.edge).unwrap();
        steps.push(step);
    }
    (steps, evaluated)
}

fn step_bits(steps: &[PlanStep]) -> Vec<(Edge, u64)> {
    steps.iter().map(|st| (st.edge, st.score.to_bits())).collect()
}

/// The ISSUE's combination grid. `(1, 1)` — one worker, scalar-width
/// blocks — is the serial scalar reference everything else must match.
const COMBOS: &[(usize, usize)] =
    &[(1, 0), (1, 3), (1, 8), (2, 0), (2, 1), (2, 3), (2, 8), (4, 0), (4, 1), (4, 3), (4, 8)];

fn params(threads: usize, block_size: usize) -> OptimizeParams {
    OptimizeParams {
        sketch: SketchParams {
            epsilon: 0.4,
            seed: 7,
            threads,
            block_size,
            ..Default::default()
        },
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All four sketch-based heuristics (FARMINRECC, CENMINRECC,
    /// CHMINRECC, MINRECC) return the identical edge sequence under every
    /// threads × block_size combination.
    #[test]
    fn heuristic_plans_identical_across_all_combos(g in connected_graph()) {
        let s = (0..g.node_count()).min_by_key(|&v| g.degree(v)).unwrap();
        let k = 2usize;
        prop_assume!(g.non_edges_at(s).len() >= k);
        prop_assume!(g.non_edges().len() >= k);
        let reference = params(1, 1);
        let far_ref = far_min_recc_with_diagnostics(&g, k, s, &reference).unwrap();
        let cen_ref = cen_min_recc_with_diagnostics(&g, k, s, &reference).unwrap();
        let ch_ref = ch_min_recc_with_diagnostics(&g, k, s, &reference).unwrap();
        let mr_ref = min_recc_with_diagnostics(&g, k, s, &reference).unwrap();
        for &(threads, block) in COMBOS {
            let p = params(threads, block);
            let far = far_min_recc_with_diagnostics(&g, k, s, &p).unwrap();
            let cen = cen_min_recc_with_diagnostics(&g, k, s, &p).unwrap();
            let ch = ch_min_recc_with_diagnostics(&g, k, s, &p).unwrap();
            let mr = min_recc_with_diagnostics(&g, k, s, &p).unwrap();
            prop_assert_eq!(&far.0, &far_ref.0, "FAR t={} b={}", threads, block);
            prop_assert_eq!(&cen.0, &cen_ref.0, "CEN t={} b={}", threads, block);
            prop_assert_eq!(&ch.0, &ch_ref.0, "CH t={} b={}", threads, block);
            prop_assert_eq!(&mr.0, &mr_ref.0, "MIN t={} b={}", threads, block);
            // Work telemetry that doesn't depend on partitioning must
            // agree too: same candidates evaluated, same skips.
            prop_assert_eq!(far.1.full_evals, far_ref.1.full_evals);
            prop_assert_eq!(mr.1.full_evals, mr_ref.1.full_evals);
            prop_assert_eq!(mr.1.skipped_candidates, mr_ref.1.skipped_candidates);
        }
    }

    /// SIMPLE (exact greedy) is thread-count invariant in both eager and
    /// lazy modes (lazy compared against lazy: tie-breaking may
    /// legitimately differ between the two modes).
    #[test]
    fn simple_greedy_plans_identical_across_thread_counts(g in connected_graph()) {
        let s = 0usize;
        let k = 2usize;
        prop_assume!(g.non_edges().len() >= k);
        for lazy in [false, true] {
            let opts = |threads| SimpleOptions { threads, lazy };
            let reference =
                simple_greedy_with_diagnostics(&g, Problem::Rem, k, s, opts(1)).unwrap();
            for threads in [2usize, 4] {
                let got =
                    simple_greedy_with_diagnostics(&g, Problem::Rem, k, s, opts(threads))
                        .unwrap();
                prop_assert_eq!(&got.0, &reference.0, "lazy={} t={}", lazy, threads);
                prop_assert_eq!(got.1.full_evals, reference.1.full_evals);
                prop_assert_eq!(got.1.lazy_hits, reference.1.lazy_hits);
            }
        }
    }

    /// Starved CG (iteration cap far below what convergence needs) makes
    /// block columns fail; the engine must push each failed column through
    /// the recovery ladder and still produce scores bitwise identical to
    /// the serial scalar path — same values, same escalation flags, same
    /// rescue count — under every combination.
    #[test]
    fn starved_columns_are_rescued_identically_across_combos(g in connected_graph()) {
        let n = g.node_count();
        let s = 0usize;
        let candidates = g.non_edges();
        prop_assume!(!candidates.is_empty());
        let er = ExactResistance::new(&g).unwrap();
        let base: Vec<f64> = (0..n).map(|v| er.resistance(s, v)).collect();
        let starved = CgOptions { max_iterations: Some(2), ..Default::default() };
        let reference = CandidateEvaluator {
            threads: 1,
            block_size: 1,
            cg: starved,
            ..Default::default()
        };
        let (ref_scores, ref_stats) = reference.evaluate_edges(&g, &base, s, &candidates);
        // Two iterations cannot converge to 1e-8 on these graphs: the
        // starvation must actually trigger the ladder or this test would
        // silently degenerate into the healthy-path test above.
        prop_assume!(ref_stats.recovered_columns > 0);
        for &(threads, block) in COMBOS {
            let eval = CandidateEvaluator { threads, block_size: block, ..reference };
            let (scores, stats) = eval.evaluate_edges(&g, &base, s, &candidates);
            prop_assert_eq!(&scores, &ref_scores, "t={} b={}", threads, block);
            prop_assert_eq!(stats.recovered_columns, ref_stats.recovered_columns);
        }
        prop_assert!(ref_scores.iter().any(|sc| sc.escalated));
    }

    /// With at most `CONFIRM` candidates in every pool, the sketch screen
    /// confirms the whole pool in candidate order, so CHMINRECC and
    /// MINRECC plans and step scores are bitwise those of CG alone, and
    /// CG evaluates exactly the candidates it evaluated alone.
    #[test]
    fn small_pools_plan_exactly_as_cg_alone(g in small_connected_graph(), threads in 1usize..=2) {
        let s = (0..g.node_count()).min_by_key(|&v| g.degree(v)).unwrap();
        let k = 3usize.min(g.non_edges().len());
        prop_assume!(k > 0);
        let p = params(threads, 0);
        let ch = ch_min_recc_controlled(&g, k, s, &p, &mut RunControl::none()).unwrap();
        let mr = min_recc_controlled(&g, k, s, &p, &mut RunControl::none()).unwrap();
        let (ch_ref, ch_evals) = cg_only_plan(&g, k, s, &p, false);
        let (mr_ref, mr_evals) = cg_only_plan(&g, k, s, &p, true);
        prop_assert_eq!(step_bits(&ch.steps), step_bits(&ch_ref));
        prop_assert_eq!(step_bits(&mr.steps), step_bits(&mr_ref));
        prop_assert_eq!(ch.diag.full_evals, ch_evals);
        prop_assert_eq!(mr.diag.full_evals, mr_evals);
    }
}
