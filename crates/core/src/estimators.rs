//! Alternative resistance estimators from the paper's related work.
//!
//! The paper (§II) surveys resistance-distance estimation beyond the
//! Spielman–Srivastava sketch this crate centers on:
//!
//! * **UST / spanning-tree sampling** (\[35\], \[36\]): by Kirchhoff's
//!   matrix-tree theorem, for an *edge* `e` the effective resistance
//!   equals the probability that `e` appears in a uniform spanning tree —
//!   the "spanning edge centrality". [`spanning_edge_centrality`] samples
//!   Wilson trees and averages indicator vectors.
//! * **Random-walk / commute-time sampling** (\[37\]–\[39\]): `r(u,v) =
//!   C(u,v) / 2m`, and the commute time is estimated by simulating round
//!   trips `u → v → u` of an actual random walk.
//!
//! Both are *Monte Carlo comparators*: unbiased, dimension-free, but with
//! `O(1/√samples)` error — the experiments show where the sketch wins.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reecc_graph::spanning::wilson_spanning_tree;
use reecc_graph::traversal::is_connected;
use reecc_graph::{Edge, Graph};

use crate::CoreError;

/// Estimate the effective resistance of **every edge** by UST sampling:
/// `r(e) = Pr[e ∈ UST]` (spanning edge centrality). `O(samples · n·h̄)`
/// where `h̄` is the mean hitting time of the walk.
///
/// # Errors
///
/// Rejects empty or disconnected graphs and `samples == 0`.
pub fn spanning_edge_centrality(
    g: &Graph,
    samples: usize,
    seed: u64,
) -> Result<HashMap<Edge, f64>, CoreError> {
    if g.node_count() == 0 {
        return Err(CoreError::EmptyGraph);
    }
    if !is_connected(g) {
        return Err(CoreError::Disconnected);
    }
    if samples == 0 {
        return Err(CoreError::Numerical("need at least one sample".into()));
    }
    let mut counts: HashMap<Edge, usize> = g.edges().iter().map(|&e| (e, 0)).collect();
    for i in 0..samples {
        for e in wilson_spanning_tree(g, seed.wrapping_add(i as u64)) {
            *counts.get_mut(&e).expect("tree edges are graph edges") += 1;
        }
    }
    Ok(counts.into_iter().map(|(e, c)| (e, c as f64 / samples as f64)).collect())
}

/// Options for the random-walk commute-time estimator.
#[derive(Debug, Clone, Copy)]
pub struct WalkEstimatorOptions {
    /// Number of round trips to simulate.
    pub samples: usize,
    /// Per-walk step cap (guards against pathological mixing).
    pub max_steps_per_trip: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WalkEstimatorOptions {
    fn default() -> Self {
        WalkEstimatorOptions { samples: 200, max_steps_per_trip: 10_000_000, seed: 7 }
    }
}

/// Estimate `r(u, v)` by simulating random-walk commute times:
/// `r(u,v) = E[steps(u → v → u)] / 2m`.
///
/// # Errors
///
/// Rejects empty/disconnected graphs, out-of-range ids, zero samples, and
/// reports a numerical error if a round trip exceeds the step cap.
pub fn commute_time_resistance(
    g: &Graph,
    u: usize,
    v: usize,
    opts: WalkEstimatorOptions,
) -> Result<f64, CoreError> {
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
    if opts.samples == 0 {
        return Err(CoreError::Numerical("need at least one sample".into()));
    }
    if !is_connected(g) {
        return Err(CoreError::Disconnected);
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut total_steps = 0u64;
    for _ in 0..opts.samples {
        total_steps += round_trip_steps(g, u, v, &mut rng, opts.max_steps_per_trip)?;
    }
    let mean_commute = total_steps as f64 / opts.samples as f64;
    Ok(mean_commute / (2.0 * g.edge_count() as f64))
}

fn round_trip_steps(
    g: &Graph,
    u: usize,
    v: usize,
    rng: &mut StdRng,
    cap: usize,
) -> Result<u64, CoreError> {
    let mut steps = 0u64;
    let mut current = u;
    let mut target = v;
    let mut legs_done = 0u8;
    while legs_done < 2 {
        if steps as usize >= cap {
            return Err(CoreError::Numerical(format!(
                "random walk exceeded {cap} steps between {u} and {v}"
            )));
        }
        let nb = g.neighbors(current);
        current = nb[rng.gen_range(0..nb.len())];
        steps += 1;
        if current == target {
            legs_done += 1;
            target = u; // second leg returns home
        }
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactResistance;
    use reecc_graph::generators::{barabasi_albert, complete, cycle, line};

    #[test]
    fn ust_centrality_on_cycle() {
        // Every edge of an n-cycle has r(e) = (n-1)/n.
        let n = 8;
        let g = cycle(n);
        let est = spanning_edge_centrality(&g, 3000, 1).unwrap();
        let expected = (n - 1) as f64 / n as f64;
        for (e, r) in &est {
            assert!((r - expected).abs() < 0.03, "edge {e:?}: {r} vs {expected}");
        }
    }

    #[test]
    fn ust_centrality_on_tree_is_one() {
        // Tree edges are in every spanning tree: r(e) = 1 exactly.
        let g = line(7);
        let est = spanning_edge_centrality(&g, 50, 2).unwrap();
        for (_, r) in est {
            assert_eq!(r, 1.0);
        }
    }

    #[test]
    fn ust_centrality_matches_exact_on_complete_graph() {
        let n = 6;
        let g = complete(n);
        let est = spanning_edge_centrality(&g, 4000, 3).unwrap();
        for (e, r) in &est {
            assert!((r - 2.0 / n as f64).abs() < 0.03, "edge {e:?}: {r}");
        }
    }

    #[test]
    fn ust_centrality_matches_exact_on_scale_free() {
        let g = barabasi_albert(30, 2, 5);
        let exact = ExactResistance::new(&g).unwrap();
        let est = spanning_edge_centrality(&g, 4000, 7).unwrap();
        for (e, r_hat) in &est {
            let r = exact.resistance(e.u, e.v);
            assert!((r_hat - r).abs() < 0.05, "edge {e:?}: {r_hat} vs {r}");
        }
    }

    #[test]
    fn walk_estimator_on_path_ends() {
        // Path of 4: r(0, 3) = 3.
        let g = line(4);
        let r = commute_time_resistance(
            &g,
            0,
            3,
            WalkEstimatorOptions { samples: 3000, ..Default::default() },
        )
        .unwrap();
        assert!((r - 3.0).abs() < 0.2, "estimate {r}");
    }

    #[test]
    fn walk_estimator_matches_exact_pairwise() {
        let g = barabasi_albert(25, 2, 11);
        let exact = ExactResistance::new(&g).unwrap();
        for (u, v) in [(0usize, 24usize), (3, 20)] {
            let r_hat = commute_time_resistance(
                &g,
                u,
                v,
                WalkEstimatorOptions { samples: 4000, seed: 5, ..Default::default() },
            )
            .unwrap();
            let r = exact.resistance(u, v);
            assert!((r_hat - r).abs() < 0.15 * r.max(0.3), "r({u},{v}): {r_hat} vs {r}");
        }
    }

    #[test]
    fn walk_estimator_trivia() {
        let g = cycle(5);
        assert_eq!(
            commute_time_resistance(&g, 2, 2, WalkEstimatorOptions::default()).unwrap(),
            0.0
        );
        assert!(commute_time_resistance(&g, 0, 9, WalkEstimatorOptions::default()).is_err());
        assert!(commute_time_resistance(
            &g,
            0,
            1,
            WalkEstimatorOptions { samples: 0, ..Default::default() }
        )
        .is_err());
    }

    #[test]
    fn estimators_reject_disconnected() {
        let g = reecc_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(spanning_edge_centrality(&g, 10, 0).is_err());
        assert!(commute_time_resistance(&g, 0, 2, WalkEstimatorOptions::default()).is_err());
    }
}
