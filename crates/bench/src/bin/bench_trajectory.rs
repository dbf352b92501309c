//! Machine-readable kernel-trajectory bench: times a scalar (`block_size
//! = 1`) sketch build against the blocked multi-RHS build on one dataset
//! at equal `ε`, checks the two sketches are bitwise identical, and
//! appends the measurements to `BENCH_sketch.json` / `BENCH_query.json`
//! in the working directory so the speedup trajectory across commits is
//! greppable and plottable.
//!
//! Invocation shapes:
//!
//! ```text
//! # CI smoke (small graph, seconds, non-blocking):
//! cargo run --release -p reecc-bench --bin bench_trajectory -- \
//!     --tier ci --eps 0.4 --dim-scale 0.25
//! # Recorded trajectory point (largest bundled bench graph at the tier):
//! cargo run --release -p reecc-bench --bin bench_trajectory -- \
//!     --tier medium --dataset live-journal --eps 0.3 --dim-scale 0.2
//! ```
//!
//! Every timing is the median of three runs (min also recorded) so a
//! single scheduler hiccup cannot fake a regression or a win, and every
//! record carries a `mode` field (`precision+precond`, e.g.
//! `"mixed+cheby"`) so trajectory lines for different arithmetic are
//! separable with grep. The scalar baseline is always the f64 build; in
//! `--precision mixed` the blocked sketch is not bitwise-comparable to
//! it, so the correctness gate becomes "every sample eccentricity within
//! ε of the f64 scalar answer" instead of the bitwise check.
//!
//! A third record (`BENCH_optimize.json`) times the optimizer-side
//! candidate-evaluation engine: the serial scalar path (`threads = 1`,
//! `block_size = 1`) against the blocked path on a deterministic
//! candidate pool, recording candidates/s, the speedup, and whether both
//! paths pick the same best edge.
//!
//! A `candidate_screen` record (also `BENCH_optimize.json`) runs the
//! sketch screen CHMINRECC and MINRECC use on the same pool: screen and
//! confirm times beside the whole-pool time, the CG-best candidate's rank
//! in screen order, the screen's relative error against the CG scores,
//! and whether the screen scores are bitwise equal at 1, 2 and 4 threads.
//!
//! A fourth record (also `BENCH_optimize.json`, `"bench": "job_latency"`)
//! measures end-to-end optimization-as-a-service latency: the same SIMPLE
//! greedy plan produced as a serial CLI batch call and as a served
//! background job (eager and CELF-lazy), submit → result, with the served
//! plans checked edge-for-edge against the batch answer. SIMPLE is exact
//! (dense pseudoinverse solves), so this pass is skipped above 5 000
//! nodes — run the ci tier for the job-latency record.
//!
//! `BENCH_sketch.json` also gets a `hull_build` record: the median wall
//! time of APPROXCH (`approx_convex_hull`, the default budget, θ = ε/12)
//! on the blocked sketch at one thread and at the count `sweep_threads`
//! resolves for every core (one below APPROXCH's work floor), with the
//! hull's vertex count, passes and truncation.
//!
//! `BENCH_query.json` carries three read-path records:
//! `query_full_scan` (the unpruned O(n·d) APPROXQUERY scan
//! `ResistanceSketch::eccentricity` on one thread, the historical
//! trajectory line), `query_pruned_scan` (the norm-pruned scan that
//! answers mutated epochs, timed against that reference over the same
//! sources, with the fraction of nodes it evaluated and the share of
//! sources the hull panel under-answers) and `query_batched` (scalar
//! hull-panel sweeps vs one batched `eccentricity_batch` call over the
//! same sources — the read-path headline, with per-mode correctness
//! gates inlined as booleans). A fourth, `mutation`, times the write
//! path: the median `with_added_edge` over 16 chained adds on the same
//! engine (each add allocates a fresh sketch, so a timing can include
//! that buffer's page faults).
//!
//! The bin never fails on a threshold — slowdowns are reported, not
//! enforced, so it is safe as a CI step — but it exits non-zero if the
//! scalar and blocked sketches are not bitwise identical, if the serial
//! and blocked candidate evaluations choose different best edges, if a
//! served job's plan diverges from the CLI batch, or if any read-path
//! gate fails (panel sweep vs the hull gather `eccentricity_over`
//! bitwise, batched kernel vs scalar loop across the batch-size ×
//! thread-count matrix, pruned scan single and batched vs the unpruned
//! scan bitwise), if the write-path gate fails (the chained engine's
//! pruned scans vs its unpruned scans bitwise), if the threaded hull
//! differs from the one-thread hull or if the candidate screen's scores
//! differ across thread counts, because those are correctness bugs, not
//! performance regressions.

use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use reecc_bench::{mode_label, timed, timed_median3, HarnessArgs};
use reecc_core::query::default_hull_budget;
use reecc_core::sketch::ResistanceSketch;
use reecc_core::{resolve_threads, Precision, QueryEngine, SketchParams};
use reecc_datasets::{preprocess, Dataset};
use reecc_graph::Edge;
use reecc_hull::approxch::{approx_convex_hull, sweep_threads, ApproxChOptions};
use reecc_opt::{
    screen_edges, shortlist, simple_greedy_with_diagnostics, CandidateEvaluator,
    CandidateScore, Problem, SimpleOptions, CONFIRM,
};
use reecc_serve::jobs::{JobRunner, JobSpec, JobsConfig, OptimizerKind};
use reecc_serve::LiveEngine;

fn main() {
    let args = HarnessArgs::parse();
    let name = args.dataset.clone().unwrap_or_else(|| "live-journal".to_string());
    let dataset =
        Dataset::all().iter().copied().find(|d| d.name() == name).unwrap_or_else(|| {
            eprintln!("error: unknown dataset {name:?}");
            std::process::exit(2);
        });
    let eps = args.epsilons.first().copied().unwrap_or(0.3);
    let seed = args.seed.unwrap_or(42);
    let dim_scale = args.dimension_scale.unwrap_or(1.0);
    let tier_name = format!("{:?}", args.tier).to_ascii_lowercase();

    eprintln!("synthesizing {name} at tier {tier_name} ...");
    let g = preprocess(&dataset.synthesize(args.tier));
    let (n, m) = (g.node_count(), g.edge_count());

    let base = SketchParams { threads: 1, ..reecc_bench::sketch_params(&args, eps) };
    let mixed = base.precision == Precision::Mixed;
    let mode = mode_label(base.precision, base.cg.preconditioner);
    // The scalar baseline is always the f64 reference build: in f64 mode
    // the blocked sketch must match it bit-for-bit, in mixed mode it is
    // the accuracy yardstick the mixed sketch is measured against.
    let scalar_params = SketchParams { block_size: 1, precision: Precision::F64, ..base };
    eprintln!("building scalar f64 sketch (block_size = 1, threads = 1) on n={n} m={m} ...");
    let (scalar, scalar_min_secs, scalar_secs) = timed_median3(|| {
        ResistanceSketch::build(&g, &scalar_params).expect("bench graphs are connected")
    });
    let block_params = SketchParams { block_size: args.block_size.unwrap_or(0), ..base };
    let blocked_width = block_params.effective_block_size(n);
    eprintln!(
        "building blocked sketch (block_size = {blocked_width}, threads = 1, mode {mode}) ..."
    );
    let (blocked, blocked_min_secs, blocked_secs) = timed_median3(|| {
        ResistanceSketch::build(&g, &block_params).expect("bench graphs are connected")
    });

    let bits_match = scalar.flat() == blocked.flat();
    let speedup = scalar_secs / blocked_secs.max(1e-9);

    // Matching eccentricity outputs, recorded per sample node so a reader
    // of the JSON can verify "equal accuracy" without rerunning anything.
    let sample: Vec<usize> = (0..n).step_by((n / 8).max(1)).take(8).collect();
    let mut eccs_within_eps = true;
    let eccs: Vec<String> = sample
        .iter()
        .map(|&v| {
            let (cs, _) = scalar.eccentricity(v);
            let (cb, _) = blocked.eccentricity(v);
            let within = (cs - cb).abs() <= eps * cs.abs().max(1.0);
            eccs_within_eps &= within;
            format!(
                "{{\"v\": {v}, \"scalar\": {cs:.12e}, \"blocked\": {cb:.12e}, \
                 \"equal\": {}, \"within_eps\": {within}}}",
                cs == cb
            )
        })
        .collect();
    // The gate: f64 modes must reproduce the scalar build bit-for-bit;
    // mixed mode must land every sample eccentricity within ε of it.
    let reference_ok = if mixed { eccs_within_eps } else { bits_match };

    // Mixed-precision determinism matrix: the mixed sketch must be
    // bitwise identical across threads × block_size (f64 determinism is
    // already pinned by the bitwise scalar-vs-blocked gate above plus the
    // unit suites, so the extra 9 builds are only paid in mixed mode).
    let mut determinism_ok = true;
    if mixed {
        eprintln!(
            "mixed determinism matrix: threads x block_size in {{1,2,4}} x {{0,4,8}} ..."
        );
        let mut reference: Option<Vec<f64>> = None;
        for threads in [1usize, 2, 4] {
            for block_size in [0usize, 4, 8] {
                let combo = SketchParams { threads, block_size, ..base };
                let built =
                    ResistanceSketch::build(&g, &combo).expect("bench graphs are connected");
                match &reference {
                    None => reference = Some(built.flat().to_vec()),
                    Some(r) => determinism_ok &= built.flat() == r.as_slice(),
                }
            }
        }
        eprintln!("mixed determinism matrix: bitwise identical = {determinism_ok}");
    }

    let unix_time =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
    let sketch_record = format!(
        "  {{\n    \"bench\": \"sketch_build\",\n    \"unix_time\": {unix_time},\n    \
         \"mode\": \"{mode}\",\n    \
         \"graph\": \"{name}\",\n    \"tier\": \"{tier_name}\",\n    \"n\": {n},\n    \
         \"m\": {m},\n    \"epsilon\": {eps},\n    \"dimension_scale\": {dim_scale},\n    \
         \"d\": {d},\n    \"seed\": {seed},\n    \"threads\": 1,\n    \"repeats\": 3,\n    \
         \"scalar\": {{\"block_size\": 1, \"wall_ms\": {sms:.3}, \
         \"min_wall_ms\": {smin:.3}, \"iters\": {sit}}},\n    \
         \"blocked\": {{\"block_size\": {bw}, \"wall_ms\": {bms:.3}, \
         \"min_wall_ms\": {bmin:.3}, \"iters\": {bit}}},\n    \
         \"speedup\": {speedup:.3},\n    \"sketch_bits_match\": {bits_match},\n    \
         \"samples_within_eps\": {eccs_within_eps},\n    \
         \"determinism_matrix_ok\": {det},\n    \
         \"sample_eccentricities\": [{eccs}]\n  }}",
        det = if mixed { format!("{determinism_ok}") } else { "null".to_string() },
        d = blocked.dimension(),
        sms = scalar_secs * 1e3,
        smin = scalar_min_secs * 1e3,
        sit = scalar.solve_iterations(),
        bw = blocked_width,
        bms = blocked_secs * 1e3,
        bmin = blocked_min_secs * 1e3,
        bit = blocked.solve_iterations(),
        eccs = eccs.join(", "),
    );
    append_record("BENCH_sketch.json", &sketch_record);

    // Query-side trajectory: the read path. The engine is reassembled
    // from the already-built blocked sketch via `from_parts` (which packs
    // the hull panel and the norm order; no second sketch build), and
    // four paths are timed: the unpruned full scan (the historical
    // `query_full_scan` trajectory line), the norm-pruned scan
    // (`query_pruned_scan`), the scalar one-at-a-time panel sweep, and the
    // batched panel kernel (`query_batched`, the read-path headline).
    let queries: Vec<usize> = (0..n).step_by((n / 64).max(1)).take(64).collect();
    let query_threads = resolve_threads(0);
    eprintln!("assembling the query engine (hull + panel) from the blocked sketch ...");
    let theta = (eps / 12.0).clamp(1e-6, 0.999);
    // APPROXCH on the blocked sketch, on one thread and on the threads it
    // runs on when given every core. Its gate: both runs return the same
    // `HullResult`, bit for bit.
    let hull_threads = sweep_threads(&blocked.point_view(), 0);
    let hull_at = |threads: usize| {
        let opts = ApproxChOptions {
            max_vertices: Some(default_hull_budget(n)),
            threads,
            ..ApproxChOptions::default()
        };
        timed_median3(|| approx_convex_hull(&blocked.point_view(), theta, opts))
    };
    let (serial_hull, _, serial_hull_secs) = hull_at(1);
    let (threaded_hull, _, threaded_hull_secs) = hull_at(hull_threads);
    let hull_threads_bits_match = serial_hull == threaded_hull;
    let hull_record = format!(
        "  {{\n    \"bench\": \"hull_build\",\n    \"unix_time\": {unix_time},\n    \
         \"mode\": \"{mode}\",\n    \
         \"graph\": \"{name}\",\n    \"tier\": \"{tier_name}\",\n    \"n\": {n},\n    \
         \"m\": {m},\n    \"epsilon\": {eps},\n    \"d\": {d},\n    \"repeats\": 3,\n    \
         \"serial\": {{\"threads\": 1, \"wall_ms\": {sms:.3}}},\n    \
         \"threaded\": {{\"threads\": {hull_threads}, \"wall_ms\": {tms:.3}}},\n    \
         \"vertices\": {vertices},\n    \"passes\": {passes},\n    \
         \"truncated\": {truncated},\n    \
         \"hull_threads_bits_match\": {hull_threads_bits_match}\n  }}",
        d = blocked.dimension(),
        sms = serial_hull_secs * 1e3,
        tms = threaded_hull_secs * 1e3,
        vertices = serial_hull.vertices.len(),
        passes = serial_hull.passes,
        truncated = serial_hull.truncated,
    );
    append_record("BENCH_sketch.json", &hull_record);
    let hull = threaded_hull.vertices;
    let engine_params = SketchParams { threads: 0, ..block_params };
    let engine = QueryEngine::from_parts(g.clone(), blocked.clone(), hull, engine_params)
        .expect("bench sketch and hull are consistent");
    let hull_len = engine.hull_size();

    let (full_answers, _, query_secs) = timed_median3(|| {
        queries.iter().map(|&v| engine.sketch().eccentricity(v)).collect::<Vec<_>>()
    });
    let checksum: f64 = full_answers.iter().map(|a| a.0).sum();
    let query_record = format!(
        "  {{\n    \"bench\": \"query_full_scan\",\n    \"unix_time\": {unix_time},\n    \
         \"mode\": \"{mode}\",\n    \
         \"graph\": \"{name}\",\n    \"tier\": \"{tier_name}\",\n    \"n\": {n},\n    \
         \"m\": {m},\n    \"epsilon\": {eps},\n    \"d\": {d},\n    \
         \"threads\": 1,\n    \
         \"queries\": {q},\n    \"wall_ms\": {wms:.3},\n    \
         \"per_query_us\": {pq:.3},\n    \"ecc_sum\": {checksum:.9e}\n  }}",
        d = blocked.dimension(),
        q = queries.len(),
        wms = query_secs * 1e3,
        pq = query_secs * 1e6 / queries.len().max(1) as f64,
    );
    append_record("BENCH_query.json", &query_record);

    // The norm-pruned scan over the same sources, one thread. The
    // evaluated counts come from the timed kernel itself. Its gate: every
    // answer, single and batched at every batch-size × thread-count
    // combination, bitwise the unpruned scan's.
    let (pruned, _, pruned_secs) = timed_median3(|| {
        queries
            .iter()
            .map(|&v| engine.panel().eccentricity_pruned(engine.sketch(), v))
            .collect::<Vec<_>>()
    });
    let full_bits: Vec<(u64, usize)> =
        full_answers.iter().map(|a| (a.0.to_bits(), a.1)).collect();
    let mut pruned_bits_match =
        pruned.iter().zip(&full_bits).all(|(p, &want)| (p.value.to_bits(), p.farthest) == want);
    for batch in [1usize, 2, 7, 16, queries.len()] {
        for threads in [1usize, 2, 4] {
            let got = engine.eccentricity_full_scan_batch_with(&queries[..batch], threads);
            pruned_bits_match &= got
                .iter()
                .zip(&full_bits)
                .all(|(a, &want)| (a.value.to_bits(), a.farthest) == want);
        }
    }
    let mut fractions: Vec<f64> =
        pruned.iter().map(|p| p.evaluated as f64 / n as f64).collect();
    let eval_median = median(&mut fractions);
    let eval_mean = fractions.iter().sum::<f64>() / fractions.len().max(1) as f64;
    let eval_max = fractions.last().copied().unwrap_or(0.0);
    let hull_misses = queries
        .iter()
        .zip(&pruned)
        .filter(|(&v, p)| engine.eccentricity(v).value < p.value)
        .count();
    let hull_miss_fraction = hull_misses as f64 / queries.len().max(1) as f64;
    let pruned_speedup = query_secs / pruned_secs.max(1e-9);
    let pruned_record = format!(
        "  {{\n    \"bench\": \"query_pruned_scan\",\n    \"unix_time\": {unix_time},\n    \
         \"mode\": \"{mode}\",\n    \
         \"graph\": \"{name}\",\n    \"tier\": \"{tier_name}\",\n    \"n\": {n},\n    \
         \"m\": {m},\n    \"epsilon\": {eps},\n    \"d\": {d},\n    \
         \"hull\": {hull_len},\n    \"threads\": 1,\n    \"queries\": {q},\n    \
         \"pruned\": {{\"wall_ms\": {pms:.3}, \"per_query_us\": {ppq:.3}}},\n    \
         \"full_scan\": {{\"wall_ms\": {wms:.3}, \"per_query_us\": {pq:.3}}},\n    \
         \"speedup\": {pruned_speedup:.3},\n    \
         \"evaluated_fraction\": {{\"median\": {eval_median:.6}, \"mean\": {eval_mean:.6}, \
         \"max\": {eval_max:.6}}},\n    \
         \"hull_miss_fraction\": {hull_miss_fraction:.4},\n    \
         \"pruned_bits_match\": {pruned_bits_match}\n  }}",
        d = blocked.dimension(),
        q = queries.len(),
        pms = pruned_secs * 1e3,
        ppq = pruned_secs * 1e6 / queries.len().max(1) as f64,
        wms = query_secs * 1e3,
        pq = query_secs * 1e6 / queries.len().max(1) as f64,
    );
    append_record("BENCH_query.json", &pruned_record);

    // Read-path correctness gates (all fatal): the panel sweep must
    // reproduce the hull gather `eccentricity_over` bit-for-bit, and the
    // batched kernel must equal the scalar loop at every batch-size ×
    // thread-count combination.
    let scalar_answers: Vec<_> = queries.iter().map(|&v| engine.eccentricity(v)).collect();
    let mut panel_bits_match = true;
    for (&v, a) in queries.iter().zip(&scalar_answers) {
        let (c, f) = engine.sketch().eccentricity_over(v, engine.hull());
        panel_bits_match &= a.value.to_bits() == c.to_bits() && a.farthest == f;
    }
    let mut batch_matrix_ok = true;
    for batch in [1usize, 2, 7, 16, queries.len()] {
        for threads in [1usize, 2, 4] {
            batch_matrix_ok &= engine.eccentricity_batch_with(&queries[..batch], threads)
                == scalar_answers[..batch];
        }
    }

    // The headline: scalar panel queries one at a time vs one batched
    // call over the same sources (lane-shared sweeps + source-chunk
    // threading).
    let (scalar_sum, _, scalar_secs_q) = timed_median3(|| {
        let mut acc = 0.0f64;
        for &v in &queries {
            acc += engine.eccentricity(v).value;
        }
        acc
    });
    let (batched_answers, _, batched_secs) =
        timed_median3(|| engine.eccentricity_batch_with(&queries, query_threads));
    let batched_bits_match = batched_answers == scalar_answers;
    let scalar_qps = queries.len() as f64 / scalar_secs_q.max(1e-9);
    let batched_qps = queries.len() as f64 / batched_secs.max(1e-9);
    let batched_speedup = batched_qps / scalar_qps.max(1e-9);
    let query_gates_ok = panel_bits_match && batch_matrix_ok && batched_bits_match;
    let batched_record = format!(
        "  {{\n    \"bench\": \"query_batched\",\n    \"unix_time\": {unix_time},\n    \
         \"mode\": \"{mode}\",\n    \
         \"graph\": \"{name}\",\n    \"tier\": \"{tier_name}\",\n    \"n\": {n},\n    \
         \"m\": {m},\n    \"epsilon\": {eps},\n    \"d\": {d},\n    \
         \"hull\": {hull_len},\n    \"threads\": {query_threads},\n    \
         \"batch\": {q},\n    \
         \"scalar\": {{\"wall_ms\": {sms:.3}, \"per_query_us\": {spq:.3}, \
         \"qps\": {scalar_qps:.1}}},\n    \
         \"batched\": {{\"wall_ms\": {bms:.3}, \"per_query_us\": {bpq:.3}, \
         \"qps\": {batched_qps:.1}}},\n    \"speedup\": {batched_speedup:.3},\n    \
         \"panel_bits_match\": {panel_bits_match},\n    \
         \"batch_matrix_ok\": {batch_matrix_ok},\n    \
         \"batched_bits_match\": {batched_bits_match},\n    \
         \"ecc_sum\": {scalar_sum:.9e}\n  }}",
        d = blocked.dimension(),
        q = queries.len(),
        sms = scalar_secs_q * 1e3,
        spq = scalar_secs_q * 1e6 / queries.len().max(1) as f64,
        bms = batched_secs * 1e3,
        bpq = batched_secs * 1e6 / queries.len().max(1) as f64,
    );
    append_record("BENCH_query.json", &batched_record);

    // Write path: 16 chained `with_added_edge` calls on the tier's engine.
    // Gate: the chained engine's pruned full scans are bitwise its own
    // sketch's unpruned scans across the batch-size × thread-count matrix.
    const MUTATION_ADDS: usize = 16;
    eprintln!("timing {MUTATION_ADDS} chained add-edge mutations ...");
    let mut current = engine;
    let mut add_ms = Vec::with_capacity(MUTATION_ADDS);
    let mut pairs = queries.iter().flat_map(|&u| queries.iter().map(move |&v| (u, v)));
    for k in 0..MUTATION_ADDS as u64 {
        let Some(e) = pairs
            .find(|&(u, v)| u < v && !current.graph().has_edge(u, v))
            .map(|(u, v)| Edge::new(u, v))
        else {
            break;
        };
        let ((next, _), secs) =
            timed(|| current.with_added_edge(e, k).expect("bench non-edges are addable"));
        add_ms.push(secs * 1e3);
        current = next;
    }
    let mut mutated_scans_match = true;
    let mutated_full: Vec<(u64, usize)> = queries
        .iter()
        .map(|&v| {
            let (c, f) = current.sketch().eccentricity(v);
            (c.to_bits(), f)
        })
        .collect();
    for batch in [1usize, 2, 7, 16, queries.len()] {
        for threads in [1usize, 2, 4] {
            let got = current.eccentricity_full_scan_batch_with(&queries[..batch], threads);
            mutated_scans_match &= got
                .iter()
                .zip(&mutated_full)
                .all(|(a, &want)| (a.value.to_bits(), a.farthest) == want);
        }
    }
    let mutation_bits_match = add_ms.len() == MUTATION_ADDS && mutated_scans_match;
    let add_median = median(&mut add_ms);
    let mutation_record = format!(
        "  {{\n    \"bench\": \"mutation\",\n    \"unix_time\": {unix_time},\n    \
         \"mode\": \"{mode}\",\n    \
         \"graph\": \"{name}\",\n    \"tier\": \"{tier_name}\",\n    \"n\": {n},\n    \
         \"m\": {m},\n    \"epsilon\": {eps},\n    \"d\": {d},\n    \
         \"hull\": {hull_len},\n    \"threads\": 1,\n    \"adds\": {adds},\n    \
         \"with_added_edge_ms\": {add_median:.3},\n    \
         \"mutation_bits_match\": {mutation_bits_match}\n  }}",
        d = blocked.dimension(),
        adds = add_ms.len(),
    );
    append_record("BENCH_query.json", &mutation_record);

    // Optimizer-side trajectory: the candidate-evaluation engine on a
    // deterministic pool of non-edges between stride-sampled nodes (the
    // shape MINRECC evaluates each iteration), serial scalar path vs the
    // blocked path, both single-worker so the ratio isolates the
    // multi-RHS batching.
    let source = (0..n).min_by_key(|&v| g.degree(v)).unwrap_or(0);
    let sample_nodes: Vec<usize> = (0..n).step_by((n / 64).max(1)).take(64).collect();
    let mut candidates = Vec::new();
    'pool: for (i, &u) in sample_nodes.iter().enumerate() {
        for &v in &sample_nodes[i + 1..] {
            if u != v && !g.has_edge(u, v) {
                candidates.push(Edge::new(u, v));
                if candidates.len() == 192 {
                    break 'pool;
                }
            }
        }
    }
    let serial_eval = CandidateEvaluator { threads: 1, block_size: 1, ..Default::default() };
    let blocked_eval = CandidateEvaluator {
        threads: 1,
        block_size: args.block_size.unwrap_or(0),
        ..Default::default()
    };
    let eval_width = blocked_eval.effective_width(n);
    let base_dist = serial_eval.distance_scan(&blocked, source);
    eprintln!(
        "evaluating {} candidate edges from source {source} (serial, width 1) ...",
        candidates.len()
    );
    let ((serial_scores, serial_stats), serial_eval_secs) =
        timed(|| serial_eval.evaluate_edges(&g, &base_dist, source, &candidates));
    eprintln!("evaluating the same pool blocked (width {eval_width}) ...");
    let ((blocked_scores, blocked_stats), blocked_eval_secs) =
        timed(|| blocked_eval.evaluate_edges(&g, &base_dist, source, &candidates));

    let scores_bits_match = serial_scores == blocked_scores;
    let serial_choice = best_candidate(&serial_scores);
    let blocked_choice = best_candidate(&blocked_scores);
    let chosen_edge_match = serial_choice == blocked_choice;
    let eval_speedup = serial_eval_secs / blocked_eval_secs.max(1e-9);
    let per_s = |secs: f64| candidates.len() as f64 / secs.max(1e-9);
    let optimize_record = format!(
        "  {{\n    \"bench\": \"candidate_evaluation\",\n    \"unix_time\": {unix_time},\n    \
         \"mode\": \"{mode}\",\n    \
         \"graph\": \"{name}\",\n    \"tier\": \"{tier_name}\",\n    \"n\": {n},\n    \
         \"m\": {m},\n    \"epsilon\": {eps},\n    \"source\": {source},\n    \
         \"candidates\": {cands},\n    \"threads\": 1,\n    \
         \"serial\": {{\"block_size\": 1, \"wall_ms\": {sms:.3}, \
         \"candidates_per_s\": {sps:.3}, \"recovered_columns\": {src}}},\n    \
         \"blocked\": {{\"block_size\": {bw}, \"wall_ms\": {bms:.3}, \
         \"candidates_per_s\": {bps:.3}, \"recovered_columns\": {brc}, \
         \"blocks_solved\": {bbs}}},\n    \"speedup\": {eval_speedup:.3},\n    \
         \"scores_bits_match\": {scores_bits_match},\n    \
         \"chosen_edge_match\": {chosen_edge_match},\n    \"chosen_edge\": {chosen}\n  }}",
        cands = candidates.len(),
        sms = serial_eval_secs * 1e3,
        sps = per_s(serial_eval_secs),
        src = serial_stats.recovered_columns,
        bw = eval_width,
        bms = blocked_eval_secs * 1e3,
        bps = per_s(blocked_eval_secs),
        brc = blocked_stats.recovered_columns,
        bbs = blocked_stats.blocks_solved,
        chosen = match blocked_choice {
            Some(i) => format!(
                "{{\"u\": {}, \"v\": {}, \"score\": {:.12e}}}",
                blocked_scores[i].edge.u, blocked_scores[i].edge.v, blocked_scores[i].score
            ),
            None => "null".to_string(),
        },
    );
    append_record("BENCH_optimize.json", &optimize_record);

    // The sketch screen CHMINRECC and MINRECC run before CG (DESIGN §17),
    // on the same pool and base distances, single-threaded like the
    // record above. Gate: the screen scores are bitwise equal at 1, 2
    // and 4 threads. The CG-best candidate's rank in screen order (1 =
    // the screen's best; within CONFIRM means the confirm solve sees it)
    // is recorded, never gated.
    eprintln!("screening the same pool on the sketch ...");
    let screen_at = |threads: usize| {
        screen_edges(&blocked, &base_dist, source, &candidates, threads, None)
            .expect("no cancel token")
    };
    let (screen, _, screen_secs) = timed_median3(|| screen_at(1));
    let screen_bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let screen_threads_bits_match =
        [2usize, 4].iter().all(|&t| screen_bits(&screen_at(t)) == screen_bits(&screen));
    let confirmed: Vec<Edge> =
        shortlist(&screen, CONFIRM).into_iter().map(|i| candidates[i]).collect();
    let ((confirm_scores, _), confirm_secs) =
        timed(|| blocked_eval.evaluate_edges(&g, &base_dist, source, &confirmed));
    let cg_best_rank = blocked_choice.filter(|&b| screen[b].is_finite()).map(|b| {
        let ahead = |i: usize| screen[i] < screen[b] || (screen[i] == screen[b] && i < b);
        1 + (0..candidates.len()).filter(|&i| screen[i].is_finite() && ahead(i)).count()
    });
    let confirmed_choice_match = best_candidate(&confirm_scores)
        .map(|i| confirm_scores[i].edge)
        == blocked_choice.map(|i| blocked_scores[i].edge);
    let mut rel_errors: Vec<f64> = screen
        .iter()
        .zip(&blocked_scores)
        .filter(|(x, sc)| x.is_finite() && sc.score.is_finite())
        .map(|(x, sc)| (x - sc.score).abs() / sc.score.abs())
        .collect();
    let rel_median = median(&mut rel_errors);
    let rel_max = rel_errors.last().copied().unwrap_or(0.0);
    let rank_json = cg_best_rank.map_or_else(|| "null".to_string(), |r| r.to_string());
    let screen_record = format!(
        "  {{\n    \"bench\": \"candidate_screen\",\n    \"unix_time\": {unix_time},\n    \
         \"mode\": \"{mode}\",\n    \
         \"graph\": \"{name}\",\n    \"tier\": \"{tier_name}\",\n    \"n\": {n},\n    \
         \"m\": {m},\n    \"epsilon\": {eps},\n    \"d\": {d},\n    \"source\": {source},\n    \
         \"candidates\": {cands},\n    \"confirm\": {CONFIRM},\n    \"threads\": 1,\n    \
         \"screen_ms\": {sms:.3},\n    \"confirm_ms\": {cms:.3},\n    \
         \"whole_pool_ms\": {wms:.3},\n    \"cg_best_rank\": {rank_json},\n    \
         \"confirmed_choice_match\": {confirmed_choice_match},\n    \
         \"rel_error\": {{\"median\": {rel_median:.6e}, \"max\": {rel_max:.6e}}},\n    \
         \"screen_threads_bits_match\": {screen_threads_bits_match}\n  }}",
        d = blocked.dimension(),
        cands = candidates.len(),
        sms = screen_secs * 1e3,
        cms = confirm_secs * 1e3,
        wms = blocked_eval_secs * 1e3,
    );
    append_record("BENCH_optimize.json", &screen_record);

    // End-to-end job latency: the same SIMPLE greedy plan three ways —
    // serial CLI batch (eager and CELF-lazy), then the identical specs as
    // served background jobs measured submit → result. Closes the ROADMAP
    // note to measure end-to-end job latency, not just candidates/s.
    // SIMPLE is exact (dense pseudoinverse solves), so the pass is capped
    // to graphs where a batch run takes seconds, not hours.
    const JOB_LATENCY_MAX_N: usize = 5_000;
    if n > JOB_LATENCY_MAX_N {
        eprintln!(
            "skipping job-latency pass: SIMPLE is exact and n={n} > {JOB_LATENCY_MAX_N} \
             (run --tier ci for the end-to-end record)"
        );
    } else {
        let k = 3usize;
        eprintln!("running SIMPLE/REMD k={k} from source {source} as a CLI batch ...");
        let ((batch_eager, _), batch_eager_secs) = timed(|| {
            simple_greedy_with_diagnostics(
                &g,
                Problem::Remd,
                k,
                source,
                SimpleOptions { threads: 1, lazy: false },
            )
            .expect("bench graphs accept a REMD plan")
        });
        let ((batch_lazy, _), batch_lazy_secs) = timed(|| {
            simple_greedy_with_diagnostics(
                &g,
                Problem::Remd,
                k,
                source,
                SimpleOptions { threads: 1, lazy: true },
            )
            .expect("bench graphs accept a REMD plan")
        });
        eprintln!("building a query engine for the served-job latency pass ...");
        let engine =
            Arc::new(QueryEngine::build(&g, &base).expect("bench graphs are connected"));
        let live = LiveEngine::ephemeral(engine, None);
        let jobs_config = JobsConfig { max_jobs: 1, queue_depth: 4, job_dir: None };
        let runner = JobRunner::start(live, &jobs_config, Box::new(|| false))
            .expect("ephemeral job runner starts");
        let serve_job = |lazy: bool| {
            let spec = JobSpec {
                optimizer: OptimizerKind::Simple,
                source,
                k,
                eps,
                threads: 1,
                block_size: 0,
                lazy,
                remd: true,
                seed,
            };
            let start = Instant::now();
            let id = runner.submit(spec).expect("fresh queue has room");
            let report = runner.wait(id, Duration::from_secs(3600)).expect("job exists");
            (report, start.elapsed().as_micros() as u64)
        };
        eprintln!("serving the same spec as background jobs (eager, then lazy) ...");
        let (eager_report, eager_micros) = serve_job(false);
        let (lazy_report, lazy_micros) = serve_job(true);
        runner.shutdown();
        let plan_matches = |plan: &[(usize, usize, f64)], batch: &[Edge]| {
            plan.len() == batch.len()
                && plan.iter().zip(batch).all(|(p, e)| (p.0, p.1) == (e.u, e.v))
        };
        // The served plans must be the batch answers edge-for-edge, and the
        // eager/lazy served scores bitwise identical (CELF only skips work).
        let job_plan_match = eager_report.state == "completed"
            && lazy_report.state == "completed"
            && plan_matches(&eager_report.plan, &batch_eager)
            && plan_matches(&lazy_report.plan, &batch_lazy)
            && eager_report.plan.len() == lazy_report.plan.len()
            && eager_report
                .plan
                .iter()
                .zip(&lazy_report.plan)
                .all(|(a, b)| a.2.to_bits() == b.2.to_bits());
        let plan_json: Vec<String> = lazy_report
            .plan
            .iter()
            .map(|&(u, v, score)| {
                format!("{{\"u\": {u}, \"v\": {v}, \"score\": {score:.12e}}}")
            })
            .collect();
        let job_record = format!(
            "  {{\n    \"bench\": \"job_latency\",\n    \"unix_time\": {unix_time},\n    \
         \"mode\": \"{mode}\",\n    \
         \"graph\": \"{name}\",\n    \"tier\": \"{tier_name}\",\n    \"n\": {n},\n    \
         \"m\": {m},\n    \"epsilon\": {eps},\n    \"source\": {source},\n    \
         \"k\": {k},\n    \"threads\": 1,\n    \
         \"batch\": {{\"eager_wall_ms\": {bems:.3}, \"lazy_wall_ms\": {blms:.3}}},\n    \
         \"job\": {{\"eager_submit_to_result_micros\": {eager_micros}, \
         \"lazy_submit_to_result_micros\": {lazy_micros}, \
         \"eager_run_micros\": {erm}, \"lazy_run_micros\": {lrm}}},\n    \
         \"chosen_edge_match\": {job_plan_match},\n    \
         \"plan\": [{plan}]\n  }}",
            bems = batch_eager_secs * 1e3,
            blms = batch_lazy_secs * 1e3,
            erm = eager_report.wall_micros,
            lrm = lazy_report.wall_micros,
            plan = plan_json.join(", "),
        );
        append_record("BENCH_optimize.json", &job_record);
        println!(
            "job latency (SIMPLE/REMD k={k}, source {source}): batch eager {:.1} ms / lazy \
         {:.1} ms; served job eager {:.1} ms / lazy {:.1} ms submit-to-result, plan \
         match: {job_plan_match}",
            batch_eager_secs * 1e3,
            batch_lazy_secs * 1e3,
            eager_micros as f64 / 1e3,
            lazy_micros as f64 / 1e3,
        );
        if !job_plan_match {
            eprintln!(
                "FAIL: served job plans diverged from the CLI batch \
             (eager: {:?}, lazy: {:?})",
                eager_report.state, lazy_report.state
            );
            std::process::exit(1);
        }
    }

    println!(
        "{name} (tier {tier_name}, n={n}, m={m}, eps={eps}, d={}, mode {mode}): scalar f64 \
         {:.1} ms median ({} iters), blocked {:.1} ms median ({} iters), speedup \
         {speedup:.2}x, bits match: {bits_match}, samples within eps: {eccs_within_eps}",
        blocked.dimension(),
        scalar_secs * 1e3,
        scalar.solve_iterations(),
        blocked_secs * 1e3,
        blocked.solve_iterations(),
    );
    println!(
        "candidate evaluation ({} candidates): serial {:.1} ms ({:.0}/s), blocked \
         width {eval_width} {:.1} ms ({:.0}/s), speedup {eval_speedup:.2}x, scores \
         bits match: {scores_bits_match}, chosen edge match: {chosen_edge_match}",
        candidates.len(),
        serial_eval_secs * 1e3,
        per_s(serial_eval_secs),
        blocked_eval_secs * 1e3,
        per_s(blocked_eval_secs),
    );
    println!(
        "candidate screen ({} candidates, {CONFIRM} confirmed): screen {:.1} ms, confirm \
         {:.1} ms, whole pool {:.1} ms; CG-best rank in screen order {rank_json}, confirmed \
         choice match: {confirmed_choice_match}; |screen - CG|/CG median {rel_median:.2e}, max \
         {rel_max:.2e}; bits match across threads: {screen_threads_bits_match}",
        candidates.len(),
        screen_secs * 1e3,
        confirm_secs * 1e3,
        blocked_eval_secs * 1e3,
    );
    println!(
        "query read path (hull {hull_len}, {} queries): full scan {:.1} us/query, pruned \
         scan {:.1} us/query ({pruned_speedup:.2}x, {:.1} % of nodes evaluated on average, \
         hull misses {:.1} % of sources, bits match: {pruned_bits_match}), panel scalar \
         {:.1} us/query, batched ({query_threads} threads) {:.1} us/query \
         ({batched_qps:.0} qps, {batched_speedup:.2}x vs scalar), gates ok: {query_gates_ok}",
        queries.len(),
        query_secs * 1e6 / queries.len().max(1) as f64,
        pruned_secs * 1e6 / queries.len().max(1) as f64,
        eval_mean * 100.0,
        hull_miss_fraction * 100.0,
        scalar_secs_q * 1e6 / queries.len().max(1) as f64,
        batched_secs * 1e6 / queries.len().max(1) as f64,
    );
    println!(
        "write path ({} chained adds): with_added_edge {add_median:.2} ms median, bits \
         match: {mutation_bits_match}",
        add_ms.len(),
    );
    println!(
        "hull (APPROXCH, {} vertices, {} passes, truncated {}): {:.1} ms on 1 thread, \
         {:.1} ms on {hull_threads}, bits match: {hull_threads_bits_match}",
        serial_hull.vertices.len(),
        serial_hull.passes,
        serial_hull.truncated,
        serial_hull_secs * 1e3,
        threaded_hull_secs * 1e3,
    );
    if !reference_ok {
        if mixed {
            eprintln!(
                "FAIL: mixed-precision sample eccentricities are not within eps of the \
                 f64 scalar build"
            );
        } else {
            eprintln!("FAIL: scalar and blocked sketches are not bitwise identical");
        }
        std::process::exit(1);
    }
    if !determinism_ok {
        eprintln!("FAIL: mixed sketch is not bitwise identical across threads x block_size");
        std::process::exit(1);
    }
    if !chosen_edge_match {
        eprintln!("FAIL: serial and blocked candidate evaluation chose different edges");
        std::process::exit(1);
    }
    if !screen_threads_bits_match {
        eprintln!("FAIL: the candidate screen's scores differ across thread counts");
        std::process::exit(1);
    }
    if !pruned_bits_match {
        eprintln!("FAIL: the norm-pruned scan is not bitwise the unpruned full scan");
        std::process::exit(1);
    }
    if !mutation_bits_match {
        eprintln!(
            "FAIL: write-path gate failed ({} of {MUTATION_ADDS} adds, mutated pruned scans \
             bitwise: {mutated_scans_match})",
            add_ms.len()
        );
        std::process::exit(1);
    }
    if !hull_threads_bits_match {
        eprintln!("FAIL: the hull on {hull_threads} threads differs from the one-thread hull");
        std::process::exit(1);
    }
    if !query_gates_ok {
        eprintln!(
            "FAIL: read-path gates failed (panel_bits_match: {panel_bits_match}, \
             batch_matrix_ok: {batch_matrix_ok}, batched_bits_match: {batched_bits_match})"
        );
        std::process::exit(1);
    }
    if batched_speedup < 4.0 {
        eprintln!(
            "note: batched query speedup {batched_speedup:.2}x is below the 4x target \
             (non-blocking; small panels are overhead-dominated)"
        );
    }
    if speedup < 2.0 {
        eprintln!(
            "note: speedup {speedup:.2}x is below the 2x target (non-blocking; \
             small graphs are overhead-dominated)"
        );
    }
    if eval_speedup < 3.0 {
        eprintln!(
            "note: candidate-evaluation speedup {eval_speedup:.2}x is below the 3x \
             target (non-blocking; small graphs are overhead-dominated)"
        );
    }
}

/// First-best argmin over finite scores — the exact tie rule the
/// optimizers use (strictly smaller wins, earliest index wins ties).
fn best_candidate(scores: &[CandidateScore]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, sc) in scores.iter().enumerate() {
        if !sc.score.is_finite() {
            continue;
        }
        match best {
            Some((_, b)) if sc.score >= b => {}
            _ => best = Some((i, sc.score)),
        }
    }
    best.map(|(i, _)| i)
}

/// Median of a sample, which it sorts in place (the upper one for an
/// even count; `0` for an empty one).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(0.0)
}

/// Append one record to a JSON array file without parsing it: an existing
/// file ends in `]`, so strip that, add a comma, and close again. A fresh
/// file starts the array.
fn append_record(path: &str, record: &str) {
    let body = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            match trimmed.strip_suffix(']') {
                Some(head) => {
                    let head = head.trim_end();
                    let head = head.strip_suffix(',').unwrap_or(head);
                    if head.trim_end().ends_with('[') {
                        format!("{head}\n{record}\n]\n")
                    } else {
                        format!("{head},\n{record}\n]\n")
                    }
                }
                None => {
                    eprintln!("warning: {path} is not a JSON array; rewriting");
                    format!("[\n{record}\n]\n")
                }
            }
        }
        Err(_) => format!("[\n{record}\n]\n"),
    };
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("warning: cannot write {path}: {e}");
    }
}
