//! Integration: random-walk metrics, comparator estimators and spectral
//! bounds cross-validated against the exact pipeline on dataset analogs.

use reecc_core::estimators::{
    commute_time_resistance, spanning_edge_centrality, WalkEstimatorOptions,
};
use reecc_core::walks::{
    commute_time, hitting_time, kemeny_constant, kemeny_constant_estimate,
};
use reecc_core::{CoreError, ExactResistance, QueryEngine, ResistanceSketch, SketchParams};
use reecc_datasets::{preprocess, Dataset, Tier};
use reecc_graph::connectivity::bridges;
use reecc_graph::generators::{barabasi_albert, power_law_configuration};
use reecc_graph::kcore::core_numbers;
use reecc_graph::spanning::{is_spanning_tree, wilson_spanning_tree};
use reecc_graph::traversal::largest_connected_component;
use reecc_linalg::eigen::{
    lambda2_estimate, lambda_max_estimate, resistance_bounds, EigenOptions,
};
use reecc_linalg::LaplacianOp;

fn analog() -> reecc_graph::Graph {
    preprocess(&Dataset::EmailUn.synthesize(Tier::Ci))
}

#[test]
fn spectral_bounds_hold_on_analog() {
    let g = analog();
    let op = LaplacianOp::new(&g);
    let l2 = lambda2_estimate(&op, EigenOptions::default());
    let lmax = lambda_max_estimate(&op, EigenOptions::default());
    assert!(l2.converged && lmax.converged);
    let (lower, upper) = resistance_bounds(l2.value, lmax.value);
    let exact = ExactResistance::new(&g).unwrap();
    for (u, v) in [(0usize, 1usize), (0, g.node_count() - 1), (5, 200)] {
        let r = exact.resistance(u, v);
        assert!(r >= lower - 1e-9, "r({u},{v}) = {r} < lower {lower}");
        assert!(r <= upper + 1e-9, "r({u},{v}) = {r} > upper {upper}");
    }
    // The resistance diameter also respects the upper bound.
    let dist = exact.eccentricity_distribution();
    assert!(dist.diameter() <= upper + 1e-9);
}

#[test]
fn kemeny_constant_consistency_on_analog() {
    let g = analog();
    let exact_oracle = ExactResistance::new(&g).unwrap();
    let k_exact = kemeny_constant(&exact_oracle, &g);
    assert!(k_exact > 0.0);
    // Kemeny lower bound: K >= n - 1 ... not in general for multigraphs;
    // use the universal bound K >= (n-1)/2 instead (holds for reversible
    // chains), and an upper sanity bound via max hitting time.
    let n = g.node_count() as f64;
    assert!(k_exact >= (n - 1.0) / 2.0, "K = {k_exact}");
    let sketch = ResistanceSketch::build(
        &g,
        &SketchParams { epsilon: 0.2, seed: 4, ..Default::default() },
    )
    .unwrap();
    let k_est = kemeny_constant_estimate(&sketch, &g, 6000, 11);
    assert!((k_est - k_exact).abs() / k_exact < 0.1, "estimate {k_est} vs exact {k_exact}");
}

#[test]
fn hitting_times_triangle_inequality_and_commute_identity() {
    let g = barabasi_albert(40, 2, 13);
    let exact = ExactResistance::new(&g).unwrap();
    for (u, v) in [(0usize, 39usize), (3, 20)] {
        let c = commute_time(&exact, &g, u, v);
        assert!(
            (c - hitting_time(&exact, &g, u, v) - hitting_time(&exact, &g, v, u)).abs() < 1e-6
        );
        assert!((c - 2.0 * g.edge_count() as f64 * exact.resistance(u, v)).abs() < 1e-6);
    }
}

#[test]
fn ust_estimator_agrees_with_sketch_on_edges() {
    let g = preprocess(&Dataset::UnicodeLanguage.synthesize(Tier::Ci));
    let sketch = ResistanceSketch::build(
        &g,
        &SketchParams { epsilon: 0.25, seed: 9, ..Default::default() },
    )
    .unwrap();
    let ust = spanning_edge_centrality(&g, 600, 17).unwrap();
    let mut mean_gap = 0.0;
    for (&e, &r_ust) in &ust {
        mean_gap += (sketch.resistance(e.u, e.v) - r_ust).abs();
    }
    mean_gap /= ust.len() as f64;
    assert!(mean_gap < 0.06, "mean gap between estimators: {mean_gap}");
}

#[test]
fn walk_estimator_consistent_on_analog_pair() {
    let g = preprocess(&Dataset::UnicodeLanguage.synthesize(Tier::Ci));
    let exact = ExactResistance::new(&g).unwrap();
    let (u, v) = (0usize, g.node_count() - 1);
    let r_hat = commute_time_resistance(
        &g,
        u,
        v,
        WalkEstimatorOptions { samples: 800, seed: 3, ..Default::default() },
    )
    .unwrap();
    let r = exact.resistance(u, v);
    assert!((r_hat - r).abs() < 0.25 * r.max(0.5), "{r_hat} vs {r}");
}

#[test]
fn bridge_edges_have_unit_resistance_on_analog() {
    // The pendant periphery of every analog guarantees bridges exist;
    // each must have exact resistance 1 (the electrical characterization
    // backing pinv_remove_edge's guard).
    let g = analog();
    let exact = ExactResistance::new(&g).unwrap();
    let bs = bridges(&g);
    assert!(!bs.is_empty(), "analogs have pendant chains, hence bridges");
    for e in bs.iter().take(20) {
        let r = exact.resistance(e.u, e.v);
        assert!((r - 1.0).abs() < 1e-9, "bridge {e:?} has r = {r}");
    }
    // Non-bridge edges have r < 1 strictly.
    let bridge_set: std::collections::HashSet<_> = bs.into_iter().collect();
    let non_bridge = g.edges().iter().find(|e| !bridge_set.contains(e)).unwrap();
    assert!(exact.resistance(non_bridge.u, non_bridge.v) < 1.0 - 1e-9);
}

#[test]
fn core_numbers_track_eccentricity_inversely() {
    // High-core nodes (dense nucleus) should have smaller resistance
    // eccentricity on average than 1-core nodes (the pendant fringe).
    let g = analog();
    let core = core_numbers(&g);
    let dist = ExactResistance::new(&g).unwrap().eccentricity_distribution();
    let kmax = core.iter().copied().max().unwrap();
    assert!(kmax >= 2, "analog core should be non-trivial");
    let mean_of = |pred: &dyn Fn(usize) -> bool| -> f64 {
        let vals: Vec<f64> =
            (0..g.node_count()).filter(|&v| pred(v)).map(|v| dist.get(v)).collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    let fringe = mean_of(&|v| core[v] <= 1);
    let nucleus = mean_of(&|v| core[v] == kmax);
    assert!(nucleus < fringe, "nucleus mean ecc {nucleus} should be below fringe {fringe}");
}

#[test]
fn wilson_trees_valid_on_configuration_model_lcc() {
    let raw = power_law_configuration(800, 2.5, 2, 28, 5);
    let (lcc, _) = largest_connected_component(&raw);
    assert!(lcc.node_count() > 400);
    let t = wilson_spanning_tree(&lcc, 21);
    assert!(is_spanning_tree(&lcc, &t));
}

#[test]
fn ust_centrality_converges_to_exact_and_is_seed_deterministic() {
    // Monte-Carlo consistency: with a fixed seed the estimator is a pure
    // function, and its error against the exact edge resistances shrinks
    // as the sample count grows.
    let g = barabasi_albert(40, 2, 13);
    let exact = ExactResistance::new(&g).unwrap();
    let mean_err = |samples: usize| -> f64 {
        let est = spanning_edge_centrality(&g, samples, 23).unwrap();
        let total: f64 = est.iter().map(|(e, &r)| (r - exact.resistance(e.u, e.v)).abs()).sum();
        total / est.len() as f64
    };
    let (coarse, fine) = (mean_err(40), mean_err(1280));
    assert!(fine < coarse, "32x the samples must shrink the error: {fine} !< {coarse}");
    assert!(fine < 0.02, "1280-sample mean error too large: {fine}");
    // Bitwise reproducibility under the same seed.
    let a = spanning_edge_centrality(&g, 64, 99).unwrap();
    let b = spanning_edge_centrality(&g, 64, 99).unwrap();
    assert_eq!(a.len(), b.len());
    for (e, r) in &a {
        assert_eq!(r.to_bits(), b[e].to_bits(), "seed 99 must be reproducible at {e:?}");
    }
}

#[test]
fn walk_estimator_converges_to_exact_and_is_seed_deterministic() {
    let g = barabasi_albert(40, 2, 13);
    let exact = ExactResistance::new(&g).unwrap();
    let (u, v) = (0usize, 39usize);
    let r = exact.resistance(u, v);
    let err_at = |samples: usize| -> f64 {
        let opts = WalkEstimatorOptions { samples, seed: 5, ..Default::default() };
        (commute_time_resistance(&g, u, v, opts).unwrap() - r).abs()
    };
    let (coarse, fine) = (err_at(50), err_at(3200));
    assert!(fine < coarse, "64x the samples must shrink the error: {fine} !< {coarse}");
    assert!(fine < 0.1 * r.max(0.5), "3200-sample error too large: {fine} (r = {r})");
    // Same seed, same bits; walks are replayable.
    let opts = WalkEstimatorOptions { samples: 200, seed: 7, ..Default::default() };
    let once = commute_time_resistance(&g, u, v, opts).unwrap();
    let twice = commute_time_resistance(&g, u, v, opts).unwrap();
    assert_eq!(once.to_bits(), twice.to_bits());
}

#[test]
fn estimator_error_paths_surface_typed_core_errors() {
    // Two components: both estimators must refuse rather than hang or
    // return garbage, and the error is the typed Disconnected variant.
    let split = reecc_graph::Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]).unwrap();
    assert!(matches!(spanning_edge_centrality(&split, 8, 1), Err(CoreError::Disconnected)));
    assert!(matches!(
        commute_time_resistance(&split, 0, 5, WalkEstimatorOptions::default()),
        Err(CoreError::Disconnected)
    ));
    // Zero samples are a usage error on a perfectly good graph.
    let g = barabasi_albert(20, 2, 3);
    assert!(matches!(
        spanning_edge_centrality(&g, 0, 1),
        Err(CoreError::Numerical(ref m)) if m.contains("sample")
    ));
    let zero = WalkEstimatorOptions { samples: 0, ..Default::default() };
    assert!(matches!(
        commute_time_resistance(&g, 0, 5, zero),
        Err(CoreError::Numerical(ref m)) if m.contains("sample")
    ));
    // Out-of-range endpoints name the offending node.
    assert!(matches!(
        commute_time_resistance(&g, 0, 20, WalkEstimatorOptions::default()),
        Err(CoreError::NodeOutOfRange { node: 20, n: 20 })
    ));
}

#[test]
fn query_engine_what_ifs_respect_monotonicity() {
    let g = analog();
    let engine =
        QueryEngine::build(&g, &SketchParams { epsilon: 0.3, seed: 2, ..Default::default() })
            .unwrap();
    let s = g.nodes().min_by_key(|&v| g.degree(v)).unwrap();
    let base = engine.eccentricity(s).value;
    for e in g.non_edges_at(s).into_iter().take(8) {
        let after = engine.eccentricity_after_edge(s, e).value;
        assert!(after <= base + 1e-9, "what-if increased c(s): {after} > {base}");
    }
}
