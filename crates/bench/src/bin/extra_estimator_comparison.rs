//! Extra experiment (beyond the paper's tables): accuracy/time comparison
//! of the three resistance-estimation families the paper's related work
//! surveys — the APPROXER JL sketch (this library's core), UST
//! spanning-edge sampling (\[35\]/\[36\]) and random-walk commute-time
//! sampling (\[37\]–\[39\]) — against the exact dense pseudoinverse.
//!
//! Protocol: on a dataset analog, estimate `r(u, v)` for every *edge*
//! (the regime all three support) and report mean relative error and
//! wall time per method.

use reecc_bench::{sketch_params, timed, HarnessArgs, Table};
use reecc_core::estimators::{
    commute_time_resistance, spanning_edge_centrality, WalkEstimatorOptions,
};
use reecc_core::{ExactResistance, ResistanceSketch};
use reecc_datasets::{preprocess, Dataset};

fn main() {
    let args = HarnessArgs::parse();
    let eps = args.epsilons[0];
    let datasets = [Dataset::UnicodeLanguage, Dataset::EmailUn, Dataset::Politician];
    let mut t = Table::new([
        "network",
        "n",
        "m",
        "sketch err%",
        "sketch(s)",
        "ust err%",
        "ust(s)",
        "walk err%",
        "walk(s)",
    ]);
    for dataset in datasets {
        if let Some(filter) = &args.dataset {
            if dataset.name() != filter.as_str() {
                continue;
            }
        }
        let g = preprocess(&dataset.synthesize(args.tier));
        let exact = ExactResistance::new(&g).expect("analogs are connected");

        // Sketch: one build, then O(d) per edge.
        let params = sketch_params(&args, eps);
        let (sketch, sketch_secs) =
            timed(|| ResistanceSketch::build(&g, &params).expect("connected"));
        let sketch_err = mean_rel_err(&g, &exact, |e| sketch.resistance(e.u, e.v));

        // UST sampling: all edges at once.
        let ust_samples = 300;
        let (ust, ust_secs) = timed(|| {
            spanning_edge_centrality(&g, ust_samples, params.seed).expect("connected")
        });
        let ust_err = mean_rel_err(&g, &exact, |e| ust[&e]);

        // Random-walk commute sampling: per-pair, so sample a subset of
        // edges and scale the timing to the full edge set.
        let walk_budget = 30.min(g.edge_count());
        let walk_opts =
            WalkEstimatorOptions { samples: 120, seed: params.seed, ..Default::default() };
        let (walk_errs, walk_secs) = timed(|| {
            g.edges()
                .iter()
                .take(walk_budget)
                .map(|e| {
                    let r_hat =
                        commute_time_resistance(&g, e.u, e.v, walk_opts).expect("connected");
                    let r = exact.resistance(e.u, e.v);
                    ((r_hat - r) / r).abs()
                })
                .collect::<Vec<f64>>()
        });
        let walk_err = 100.0 * walk_errs.iter().sum::<f64>() / walk_errs.len() as f64;
        let walk_secs_scaled = walk_secs * g.edge_count() as f64 / walk_budget as f64;

        t.row([
            dataset.name().to_string(),
            g.node_count().to_string(),
            g.edge_count().to_string(),
            format!("{sketch_err:.2}"),
            format!("{sketch_secs:.2}"),
            format!("{ust_err:.2}"),
            format!("{ust_secs:.2}"),
            format!("{walk_err:.2}"),
            format!("{walk_secs_scaled:.2}*"),
        ]);
    }
    println!(
        "Edge-resistance estimator comparison (tier {:?}, eps={eps}; '*' = time \
         extrapolated from a {}-edge sample)",
        args.tier, 30
    );
    t.print();
    println!(
        "\nExpected shape: the sketch amortizes one build over all edges and wins on\n\
         time at matched accuracy; UST is competitive for edge-only queries; the\n\
         per-pair walk estimator is orders of magnitude slower at scale."
    );
}

fn mean_rel_err(
    g: &reecc_graph::Graph,
    exact: &ExactResistance,
    estimate: impl Fn(reecc_graph::Edge) -> f64,
) -> f64 {
    let mut acc = 0.0;
    for &e in g.edges() {
        let r = exact.resistance(e.u, e.v);
        acc += ((estimate(e) - r) / r).abs();
    }
    100.0 * acc / g.edge_count() as f64
}
