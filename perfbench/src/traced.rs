//! The traced run: replay a workload's seeded inputs in-process through
//! the public functions of each layer, recording a span around every call.
//!
//! Spans (name, start, end, parent, request id) stay in memory and are
//! written to `.bench_out/trace-<workload>-seed<seed>.jsonl` when the run
//! ends. The per-layer metrics are medians of span durations (or counters
//! read at the same boundaries); each layer's self time (span time minus
//! the time its child spans cover) is summed per layer and printed.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reecc_core::query::default_hull_budget;
use reecc_core::{QueryEngine, ResistanceSketch, SketchParams};
use reecc_graph::Edge;
use reecc_hull::{approx_convex_hull, ApproxChOptions};
use reecc_opt::{CandidateEvaluator, IterationEvent, OptimizeParams, RunControl};
use reecc_serve::protocol::{parse_request, Outcome};
use reecc_serve::{
    LiveEngine, PoolConfig, ServePool, SketchSnapshot, WalOp, WalRecord, WalWriter,
};

use crate::client::Conn;
use crate::gen::non_edges;
use crate::session::{median, server_threads, Inputs, Read, ReadGen, ERROR_BUDGET};
use crate::workload::{self, stream, Optimizer, Workload, EPS, JOB_K};
use crate::Metric;

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    req: u64,
}

/// In-memory span recorder with a stack of open spans for parents.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { t0: Instant::now(), spans: Vec::with_capacity(1 << 16), open: Vec::new() }
    }

    fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.t0.elapsed();
        self.spans.push(Span { name, start, end: start, parent, req });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.t0.elapsed();
        out
    }

    /// Durations of every span called `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations(name)) * 1e3
    }

    fn median_us(&self, name: &str) -> f64 {
        median(&self.durations(name)) * 1e6
    }

    /// Self time per layer (the span name without its last component).
    fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.rsplit_once('.').map_or(s.name, |(l, _)| l).to_string();
            let own = (s.end - s.start).saturating_sub(child[i]).as_secs_f64();
            *out.entry(layer).or_insert(0.0) += own;
        }
        out
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req
            )?;
        }
        f.flush()
    }
}

pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Reads replayed through protocol → pool → render.
const TRACED_READS: usize = 18_000;

fn within_eps(got: f64, exact: f64, eps: f64) -> bool {
    got.is_finite() && (got - exact).abs() <= eps * exact
}

pub fn run(w: &Workload, seed: u64, inputs: &Inputs, dir: &Path) -> Result<Traced, String> {
    let mut t = Tracer::new();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let eps = EPS;
    let reference = &inputs.reference;

    // Index build, stage by stage as `QueryEngine::build` runs it.
    let g = t.span("graph.parse", 0, |_| {
        reecc_graph::io::read_edge_list_lenient(inputs.text.as_bytes()).map(|(g, _)| g)
    });
    let g = g.map_err(|e| e.to_string())?;
    let params =
        SketchParams { epsilon: eps, seed, ..SketchParams::default() }.resolved_for(&g);
    let d = params.dimension_for(g.node_count());
    t.span("linalg.jl", 0, |_| {
        std::hint::black_box(reecc_linalg::jl::projected_incidence_rows(&g, d, params.seed))
    });
    let sketch = t
        .span("core.sketch", 0, |_| ResistanceSketch::build(&g, &params))
        .map_err(|e| e.to_string())?;
    let cg_iterations = sketch.solve_iterations() as f64;
    let rows_repaired = sketch.diagnostics().repaired.len() as f64;
    let theta = (eps / 12.0).clamp(1e-6, 0.999);
    let hull = t.span("hull.approxch", 0, |_| {
        approx_convex_hull(
            &sketch.point_view(),
            theta,
            ApproxChOptions {
                max_vertices: Some(default_hull_budget(g.node_count())),
                ..ApproxChOptions::default()
            },
        )
        .vertices
    });
    let hull_vertices = hull.len() as f64;
    let g_copy = g.clone();
    let engine = t
        .span("core.panel", 0, |_| QueryEngine::from_parts(g_copy, sketch, hull, params))
        .map_err(|e| e.to_string())?;

    // Snapshot write and read back.
    let snap_path = dir.join("traced.snap");
    let saved = t.span("serve.snapshot.save", 0, |_| {
        SketchSnapshot::from_engine(&engine).save(&snap_path)
    });
    let snapshot_mb = saved.map_err(|e| e.to_string())? as f64 / (1024.0 * 1024.0);
    drop(engine);
    let engine = t
        .span("serve.snapshot.load", 0, |_| {
            SketchSnapshot::load(&snap_path).and_then(|s| s.into_engine(&g))
        })
        .map_err(|e| e.to_string())?;
    let foster: f64 = g.edges().iter().map(|e| engine.resistance(e.u, e.v)).sum();
    let n = g.node_count() as f64;
    if (foster - (n - 1.0)).abs() > eps * (n - 1.0) {
        problems.push(format!("Foster sum {foster} is not within eps of {}", n - 1.0));
    }
    let engine = Arc::new(engine);
    let live = t
        .span("serve.live.bootstrap", 0, |_| {
            LiveEngine::bootstrap(
                Arc::clone(&engine),
                &dir.join("traced-wal"),
                Some(ERROR_BUDGET),
            )
        })
        .map_err(|e| e.to_string())?;
    let pool = Arc::new(ServePool::with_live(
        Arc::clone(&live),
        PoolConfig { threads: server_threads(), ..PoolConfig::default() },
    ));

    // Reads through protocol → pool → render, no socket: a warm-up pass,
    // then the same requests untraced and traced (the tracing overhead).
    let mut reads = ReadGen::new(w, stream(seed, workload::READS), w.ecc_share, true);
    let count = TRACED_READS;
    let batch: Vec<Read> = (0..count).map(|_| reads.next()).collect();
    let lines: Vec<String> =
        batch.iter().enumerate().map(|(i, r)| r.line(i as u64 + 1)).collect();
    for line in &lines {
        let env = parse_request(line)?;
        std::hint::black_box(pool.run(env).render());
    }
    let untraced_pass = || -> Result<f64, String> {
        let t = Instant::now();
        for line in &lines {
            let env = parse_request(line)?;
            std::hint::black_box(pool.run(env).render());
        }
        Ok(t.elapsed().as_secs_f64())
    };
    let before = untraced_pass()?;
    let traced = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let req = i as u64 + 1;
        attempted += 1;
        let ok = t.span("serve.request", req, |t| -> Result<bool, String> {
            let env = t.span("serve.protocol.parse", req, |_| parse_request(line))?;
            let resp = t.span("serve.pool.run", req, |_| pool.run(env));
            let text = t.span("serve.protocol.render", req, |_| resp.render());
            Ok(resp.is_ok() && !text.is_empty())
        })?;
        if !ok {
            failed += 1;
        }
    }
    let traced = traced.elapsed().as_secs_f64();
    let untraced = before.min(untraced_pass()?);
    let overhead = (traced - untraced) / untraced;

    // The same reads over TCP to an in-process reactor on the same pool.
    let mut server = reecc_serve::TcpServer::start_with(
        Arc::clone(&pool),
        "127.0.0.1:0",
        reecc_serve::ServerConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut conn = Conn::connect(&server.local_addr().to_string())?;
    for (i, line) in lines.iter().take(2000).enumerate() {
        let reply = t.span("serve.server.roundtrip", i as u64 + 1, |_| {
            conn.call(line, Duration::from_secs(10))
        })?;
        attempted += 1;
        if !reply.starts_with("{\"ok\":true") {
            failed += 1;
        }
    }
    let stats = match pool.run(parse_request("{\"op\":\"stats\"}")?).outcome {
        Outcome::Stats(s) => s,
        _ => return Err("stats request did not answer with stats".into()),
    };
    drop(conn);
    server.stop().map_err(|e| e.to_string())?;
    let transport_us = t.median_us("serve.server.roundtrip") - t.median_us("serve.pool.run");
    let hit_ratio =
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64;
    let occupancy = stats.batch_occupancy_sum as f64 / stats.batch_flushes.max(1) as f64;

    // Engine queries, half `ecc` and half `res` whatever the workload's mix
    // (so both layer metrics exist), checked against the reference on a
    // sample.
    let mut queries = ReadGen::new(w, stream(seed, workload::SAMPLES), 0.5, true);
    for i in 0..2000 {
        match queries.next() {
            Read::Ecc(v) => {
                let a = t.span("core.ecc", 0, |_| engine.eccentricity(v));
                if i % 100 == 0
                    && !within_eps(a.value, reference.resistance(v, a.farthest), eps)
                {
                    problems.push(format!("ecc({v}) = {} at {}", a.value, a.farthest));
                }
            }
            Read::Res(u, v) => {
                let x = t.span("core.res", 0, |_| engine.resistance(u, v));
                if i % 100 == 1 && !within_eps(x, reference.resistance(u, v), eps) {
                    problems.push(format!("res({u},{v}) = {x}"));
                }
            }
        }
    }

    // Writes: each layer of one `add-edge`, on the workload's write stream.
    let writes = 30;
    let pairs = non_edges(
        w.n,
        writes,
        |u, v| reference.has_edge(u, v),
        &mut stream(seed, workload::WRITES),
    );
    let mut wal = WalWriter::create(
        &dir.join("traced.wal"),
        0,
        reecc_graph::fingerprint::fingerprint(&g),
    )
    .map_err(|e| e.to_string())?;
    let mut current = Arc::clone(&engine);
    let mut scan_rng = stream(seed, workload::SAMPLES);
    for (seq, &(u, v)) in pairs.iter().enumerate() {
        let edge = Edge::new(u, v);
        let (next, _) = t
            .span("core.with_added_edge", seq as u64, |_| {
                current.with_added_edge(edge, seq as u64)
            })
            .map_err(|e| e.to_string())?;
        t.span("graph.fingerprint", seq as u64, |_| {
            std::hint::black_box(reecc_graph::fingerprint::fingerprint(next.graph()))
        });
        for _ in 0..3 {
            let s = scan_rng.below(w.n);
            t.span("core.full_scan", seq as u64, |_| {
                std::hint::black_box(next.eccentricity_full_scan(s))
            });
        }
        let rec = WalRecord { op: WalOp::AddEdge, u: edge.u, v: edge.v, seq: seq as u64 };
        t.span("serve.wal.append", seq as u64, |_| wal.append(&rec))
            .map_err(|e| e.to_string())?;
        attempted += 1;
        match t
            .span("serve.live.apply", seq as u64, |_| live.apply_mutation(WalOp::AddEdge, u, v))
        {
            Ok(receipt) => {
                if seq % 10 == 0 {
                    let g_k = reference.with_edges(&pairs[..seq]);
                    if !within_eps(receipt.r_uv, g_k.resistance(u, v), eps) {
                        problems.push(format!("add-edge ({u},{v}) r_uv = {}", receipt.r_uv));
                    }
                }
            }
            Err(e) => {
                failed += 1;
                problems.push(format!("apply_mutation ({u},{v}): {e}"));
            }
        }
        current = Arc::new(next);
    }
    let resketches = live.resketches_total() as f64;
    if resketches != 0.0 {
        problems.push(format!("{resketches} re-sketch(es) ran"));
    }
    drop(pool);

    // One optimize job of the workload's spec, observed per iteration,
    // then each iteration's hull-pair candidate pool scored on its own.
    let s = stream(seed, workload::JOBS).below(w.n);
    let mut job = OptimizeParams::with_epsilon(eps);
    job.sketch.seed = 0;
    let mut marks: Vec<Duration> = Vec::new();
    let job_start = t.t0.elapsed();
    let run = t.span("optimize.job", s as u64, |t| {
        let t0 = t.t0;
        let mut observer = |_: &IterationEvent| -> Result<(), String> {
            marks.push(t0.elapsed());
            Ok(())
        };
        let mut ctrl = RunControl { observer: Some(&mut observer), ..RunControl::none() };
        match w.optimizer {
            Optimizer::MinRecc => reecc_opt::min_recc_controlled(&g, JOB_K, s, &job, &mut ctrl),
            Optimizer::CenMinRecc => {
                reecc_opt::cen_min_recc_controlled(&g, JOB_K, s, &job, &mut ctrl)
            }
        }
    });
    attempted += 1;
    let plan = match run {
        Ok(r) => r.plan(),
        Err(e) => {
            failed += 1;
            problems.push(format!("optimizer failed: {e}"));
            Vec::new()
        }
    };
    let mut prev = job_start;
    let iteration_ms: Vec<f64> = marks
        .iter()
        .map(|&m| {
            let d = (m - prev).as_secs_f64() * 1e3;
            prev = m;
            d
        })
        .collect();
    let evaluator = CandidateEvaluator::from_sketch_params(&job.sketch);
    let mut graph_i = g.clone();
    let mut candidates_total = 0usize;
    let iterations = match w.optimizer {
        Optimizer::MinRecc => plan.len(),
        // One pool is enough where the job itself scores none.
        Optimizer::CenMinRecc => 1,
    };
    for i in 0..iterations {
        let mut p = job.sketch;
        p.seed = job.sketch.seed.wrapping_add(1_000_003u64.wrapping_mul(i as u64));
        let sk = ResistanceSketch::build(&graph_i, &p).map_err(|e| e.to_string())?;
        let hull = approx_convex_hull(
            &sk.point_view(),
            (eps / 12.0).clamp(1e-6, 0.999),
            ApproxChOptions {
                max_vertices: Some(default_hull_budget(graph_i.node_count())),
                ..ApproxChOptions::default()
            },
        )
        .vertices;
        let mut pool: Vec<Edge> = Vec::new();
        for (a, &u) in hull.iter().enumerate() {
            for &v in &hull[a + 1..] {
                if !graph_i.has_edge(u, v) {
                    pool.push(Edge::new(u, v));
                }
            }
        }
        // The large graphs' pools are capped to keep the traced run short.
        pool.truncate(if w.n > 2000 { 400 } else { usize::MAX });
        let base = evaluator.distance_scan(&sk, s);
        t.span("optimize.eval", i as u64, |_| {
            std::hint::black_box(evaluator.evaluate_edges(&graph_i, &base, s, &pool))
        });
        candidates_total += pool.len();
        if let Some(&e) = plan.get(i) {
            graph_i = graph_i.with_edge(e).map_err(|e| e.to_string())?;
        }
    }
    let eval_s: f64 = t.durations("optimize.eval").iter().sum();

    let trace_path = Path::new(".bench_out").join(format!("trace-{}-seed{seed}.jsonl", w.name));
    t.write(&trace_path).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let by_layer = t.self_time_by_layer();
    let total: f64 = by_layer.values().sum();
    let split: Vec<String> = by_layer
        .iter()
        .map(|(l, s)| format!("{l} {:.1} ms ({:.1} %)", s * 1e3, 100.0 * s / total))
        .collect();
    eprintln!("self time by layer: {}", split.join(", "));
    eprintln!(
        "tracing overhead on the read replay: {:.1} % ({} requests, {:.1} ms untraced, {:.1} ms traced); spans written to {}",
        overhead * 100.0,
        lines.len(),
        untraced * 1e3,
        traced * 1e3,
        trace_path.display()
    );

    let m = |name: &'static str, unit: &'static str, value: f64| Metric { name, unit, value };
    let metrics = vec![
        m("graph.parse_ms", "ms", t.median_ms("graph.parse")),
        m("linalg.jl_ms", "ms", t.median_ms("linalg.jl")),
        m("core.sketch_ms", "ms", t.median_ms("core.sketch")),
        m("linalg.cg_iterations", "count", cg_iterations),
        m("linalg.rows_repaired", "count", rows_repaired),
        m("hull.approxch_ms", "ms", t.median_ms("hull.approxch")),
        m("hull.vertices", "count", hull_vertices),
        m("core.panel_ms", "ms", t.median_ms("core.panel")),
        m("serve.snapshot.save_ms", "ms", t.median_ms("serve.snapshot.save")),
        m("serve.snapshot.mb", "MiB", snapshot_mb),
        m("serve.snapshot.load_ms", "ms", t.median_ms("serve.snapshot.load")),
        m("serve.live.bootstrap_ms", "ms", t.median_ms("serve.live.bootstrap")),
        m("serve.protocol.parse_us", "us", t.median_us("serve.protocol.parse")),
        m("serve.protocol.render_us", "us", t.median_us("serve.protocol.render")),
        m("serve.pool.run_us", "us", t.median_us("serve.pool.run")),
        m("serve.server.transport_us", "us", transport_us),
        m("serve.cache.hit_ratio", "ratio", hit_ratio),
        m("serve.pool.batch_occupancy", "ratio", occupancy),
        m("core.ecc_us", "us", t.median_us("core.ecc")),
        m("core.res_us", "us", t.median_us("core.res")),
        m("core.full_scan_us", "us", t.median_us("core.full_scan")),
        m("core.with_added_edge_ms", "ms", t.median_ms("core.with_added_edge")),
        m("graph.fingerprint_ms", "ms", t.median_ms("graph.fingerprint")),
        m("serve.wal.append_ms", "ms", t.median_ms("serve.wal.append")),
        m("serve.live.apply_ms", "ms", t.median_ms("serve.live.apply")),
        m("serve.live.resketches", "count", resketches),
        m("optimize.iteration_ms", "ms", median(&iteration_ms)),
        m("optimize.eval_ms", "ms", t.median_ms("optimize.eval")),
        m("optimize.candidates", "count", candidates_total as f64),
        m("optimize.candidates_per_s", "1/s", candidates_total as f64 / eval_s),
    ];
    Ok(Traced { metrics, attempted, failed, problems })
}
