//! Command execution: each subcommand renders its report into a `String`
//! so the whole surface is unit-testable without capturing stdout.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use reecc_core::{
    approx_query, exact_query, fast_query, Precision, Preconditioner, QueryEngine, SketchParams,
};
use reecc_datasets::{preprocess, Dataset, Tier};
use reecc_distfit::burr::fit_burr_mle;
use reecc_distfit::summary::Summary;
use reecc_graph::generators::{
    barabasi_albert, connected_erdos_renyi, holme_kim, power_law_configuration, watts_strogatz,
};
use reecc_graph::stats::power_law_fit;
use reecc_graph::Graph;
use reecc_opt::{
    cen_min_recc_with_diagnostics, ch_min_recc_with_diagnostics, exact_trajectory,
    far_min_recc_with_diagnostics, min_recc_with_diagnostics, simple_greedy_with_diagnostics,
    OptimizeParams, Problem, SimpleOptions,
};
use reecc_serve::{
    serve_pipe, JobsConfig, LiveConfig, LiveEngine, LiveError, PoolConfig, RetryPolicy,
    ServePool, ServerConfig, SketchSnapshot, SnapshotError, TcpServer,
};

use crate::parse::{parse_command, Algorithm, Command, Model, QueryMethod};
use crate::{CliError, USAGE};

/// Parse and execute an argv (without the binary name), returning the
/// rendered report.
///
/// # Errors
///
/// Every failure is a typed [`CliError`] with a user-facing message.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match parse_command(args)? {
        Command::Help => Ok(USAGE.to_string()),
        Command::Analyze { path, eps, lcc } => analyze(&path, eps, lcc),
        Command::Query { path, nodes, method, eps, lcc } => {
            query(&path, &nodes, method, eps, lcc)
        }
        Command::Optimize {
            path,
            source,
            k,
            algorithm,
            eps,
            threads,
            block_size,
            precision,
            precond,
            lazy,
            lcc,
        } => {
            let base = solver_params(eps, precision, precond);
            optimize(&path, source, k, algorithm, base, threads, block_size, lazy, lcc)
        }
        Command::Generate { model, n, param, seed, dataset, out } => {
            generate(model, n, param, seed, dataset.as_deref(), out.as_deref())
        }
        Command::SketchBuild { path, out, eps, seed, precision, precond, lcc, verify } => {
            sketch_build(&path, &out, solver_params(eps, precision, precond), seed, lcc, verify)
        }
        Command::SketchInfo { path } => sketch_info(&path),
        Command::Serve {
            path,
            snapshot,
            addr,
            threads,
            queue_depth,
            eps,
            precision,
            precond,
            lcc,
            wal_dir,
            error_budget,
            max_jobs,
            job_dir,
            max_connections,
            idle_timeout_secs,
            write_buffer_cap,
        } => serve(
            &path,
            snapshot.as_deref(),
            addr.as_deref(),
            threads,
            queue_depth,
            solver_params(eps, precision, precond),
            lcc,
            wal_dir.as_deref(),
            error_budget,
            max_jobs,
            job_dir.as_deref(),
            ServerConfig {
                max_connections,
                idle_timeout: Duration::from_secs(idle_timeout_secs),
                write_buffer_cap,
                ..ServerConfig::default()
            },
        ),
    }
}

/// Load, parse (leniently: duplicate edges and self-loops in public dumps
/// are dropped), and connectivity-check an edge-list file. Disconnected
/// inputs are an error naming the component split unless `lcc` asks for
/// the largest-connected-component reduction.
fn load_graph(path: &str, lcc: bool) -> Result<Graph, CliError> {
    let file = std::fs::File::open(path)
        .map_err(|e| CliError::Io(format!("cannot open {path}: {e}")))?;
    let (g, _) = reecc_graph::io::read_edge_list_lenient(std::io::BufReader::new(file))
        .map_err(|e| CliError::Graph(format!("cannot parse {path}: {e}")))?;
    if g.node_count() == 0 {
        return Err(CliError::Graph(format!("{path} contains no edges")));
    }
    if reecc_graph::traversal::is_connected(&g) {
        return Ok(g);
    }
    if lcc {
        return Ok(preprocess(&g));
    }
    let reduced = preprocess(&g);
    Err(CliError::Graph(format!(
        "{path} is disconnected ({} of {} nodes in the largest component); resistance \
         eccentricity needs a connected graph — rerun with --lcc to analyze the largest \
         component",
        reduced.node_count(),
        g.node_count()
    )))
}

fn sketch_params(eps: f64) -> SketchParams {
    SketchParams { epsilon: eps, ..Default::default() }
}

/// [`sketch_params`] plus the solver-mode flags: `--precision` selects the
/// f64 or mixed row-solve path, `--precond` the CG preconditioner (cheby
/// starts as the auto-tuned sentinel config; the build resolves it once
/// per graph).
fn solver_params(eps: f64, precision: Precision, precond: Preconditioner) -> SketchParams {
    let mut p = SketchParams { precision, ..sketch_params(eps) };
    p.cg.preconditioner = precond;
    p
}

fn analyze(path: &str, eps: f64, lcc: bool) -> Result<String, CliError> {
    let g = load_graph(path, lcc)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "graph: n = {}, m = {}, avg degree = {:.2}",
        g.node_count(),
        g.edge_count(),
        g.average_degree()
    );
    if let Some((gamma, d_min)) = power_law_fit(&g) {
        let _ = writeln!(out, "power-law exponent gamma = {gamma:.2} (d_min = {d_min})");
    }
    let (dist, diag) = reecc_core::fast_query_distribution(&g, &sketch_params(eps))
        .map_err(|e| CliError::Compute(e.to_string()))?;
    let _ = writeln!(
        out,
        "FASTQUERY (eps = {eps}): sketch d = {}, hull l = {}",
        diag.dimension,
        diag.hull_size()
    );
    let _ = writeln!(
        out,
        "resistance radius phi = {:.4}, diameter R = {:.4}, |center| = {}",
        dist.radius(),
        dist.diameter(),
        dist.center(1e-6).len()
    );
    if let Some(s) = Summary::of(dist.values()) {
        let _ = writeln!(
            out,
            "distribution: mean = {:.4}, skewness = {:+.3}, excess kurtosis = {:+.3}",
            s.mean, s.skewness, s.excess_kurtosis
        );
    }
    match fit_burr_mle(dist.values()) {
        Ok(fit) => {
            let d = fit.distribution;
            let _ = writeln!(
                out,
                "Burr XII fit: c = {:.3}, k = {:.3}, scale = {:.3} (KS = {:.4})",
                d.c(),
                d.k(),
                d.scale(),
                fit.ks_statistic
            );
        }
        Err(e) => {
            let _ = writeln!(out, "Burr fit failed: {e}");
        }
    }
    Ok(out)
}

fn query(
    path: &str,
    nodes: &[usize],
    method: QueryMethod,
    eps: f64,
    lcc: bool,
) -> Result<String, CliError> {
    let g = load_graph(path, lcc)?;
    for &v in nodes {
        if v >= g.node_count() {
            return Err(CliError::Usage(format!(
                "node {v} out of range (graph has {} nodes)",
                g.node_count()
            )));
        }
    }
    let mut out = String::new();
    let label = match method {
        QueryMethod::Exact => "exact",
        QueryMethod::Approx => "approx",
        QueryMethod::Fast => "fast",
    };
    let _ = writeln!(out, "method = {label}, eps = {eps}");
    let results: Vec<(usize, f64)> = match method {
        QueryMethod::Exact => {
            exact_query(&g, nodes).map_err(|e| CliError::Compute(e.to_string()))?
        }
        QueryMethod::Approx => approx_query(&g, nodes, &sketch_params(eps))
            .map_err(|e| CliError::Compute(e.to_string()))?,
        QueryMethod::Fast => {
            let fast = fast_query(&g, nodes, &sketch_params(eps))
                .map_err(|e| CliError::Compute(e.to_string()))?;
            if fast.diagnostics.degraded() {
                let _ = writeln!(out, "answered by tier = {}", fast.diagnostics.tier);
                for note in &fast.diagnostics.notes {
                    let _ = writeln!(out, "  note: {note}");
                }
            }
            fast.results
        }
    };
    for (node, c) in results {
        let _ = writeln!(out, "c({node}) = {c:.6}");
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn optimize(
    path: &str,
    source: usize,
    k: usize,
    algorithm: Algorithm,
    base: SketchParams,
    threads: usize,
    block_size: usize,
    lazy: bool,
    lcc: bool,
) -> Result<String, CliError> {
    let g = load_graph(path, lcc)?;
    let eps = base.epsilon;
    if source >= g.node_count() {
        return Err(CliError::Usage(format!(
            "source {source} out of range (graph has {} nodes)",
            g.node_count()
        )));
    }
    // `--threads` / `--block-size` steer both the sketch build and the
    // candidate-evaluation engine (`0` = auto via `resolve_threads` /
    // the adaptive block width) — results are identical for every setting.
    // `--precision` / `--precond` ride along through the sketch params.
    let params = OptimizeParams {
        sketch: SketchParams { threads, block_size, ..base },
        ..Default::default()
    };
    let compute = |e: reecc_opt::OptError| CliError::Compute(e.to_string());
    let (name, plan, diag) = match algorithm {
        Algorithm::Simple { rem } => {
            let problem = if rem { Problem::Rem } else { Problem::Remd };
            let (plan, diag) = simple_greedy_with_diagnostics(
                &g,
                problem,
                k,
                source,
                SimpleOptions { threads, lazy },
            )
            .map_err(compute)?;
            ("SIMPLE", plan, diag)
        }
        Algorithm::Far => {
            let (plan, diag) =
                far_min_recc_with_diagnostics(&g, k, source, &params).map_err(compute)?;
            ("FARMINRECC", plan, diag)
        }
        Algorithm::Cen => {
            let (plan, diag) =
                cen_min_recc_with_diagnostics(&g, k, source, &params).map_err(compute)?;
            ("CENMINRECC", plan, diag)
        }
        Algorithm::Ch => {
            let (plan, diag) =
                ch_min_recc_with_diagnostics(&g, k, source, &params).map_err(compute)?;
            ("CHMINRECC", plan, diag)
        }
        Algorithm::MinRecc => {
            let (plan, diag) =
                min_recc_with_diagnostics(&g, k, source, &params).map_err(compute)?;
            ("MINRECC", plan, diag)
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "{name}: {} edge(s) selected for source {source}", plan.len());
    let _ = writeln!(
        out,
        "evaluation: {} full eval(s), {} lazy hit(s), {} CG block(s)",
        diag.full_evals, diag.lazy_hits, diag.blocks_solved
    );
    if !diag.clean() {
        let _ = writeln!(
            out,
            "robustness: {} candidate(s) skipped, {} degraded evaluation(s)",
            diag.skipped_candidates, diag.degraded_evaluations
        );
    }
    for note in &diag.notes {
        let _ = writeln!(out, "  note: {note}");
    }
    for (i, e) in plan.iter().enumerate() {
        let _ = writeln!(out, "  {}. add ({}, {})", i + 1, e.u, e.v);
    }
    // Trajectory: exact when the dense pseudoinverse fits, sketched
    // otherwise.
    if g.node_count() <= 4_000 {
        let traj = exact_trajectory(&g, source, &plan).map_err(compute)?;
        let _ = writeln!(out, "c({source}) trajectory (exact):");
        for (i, c) in traj.iter().enumerate() {
            let _ = writeln!(out, "  k={i}: {c:.6}");
        }
    } else {
        let before = reecc_core::approx_recc(&g, source, &sketch_params(eps))
            .map_err(|e| CliError::Compute(e.to_string()))?;
        let augmented = plan
            .iter()
            .try_fold(g.clone(), |acc, &e| acc.with_edge(e))
            .map_err(|e| CliError::Graph(e.to_string()))?;
        let after = reecc_core::approx_recc(&augmented, source, &sketch_params(eps))
            .map_err(|e| CliError::Compute(e.to_string()))?;
        let _ = writeln!(out, "c({source}) ~ {before:.6} -> {after:.6} (sketched)");
    }
    Ok(out)
}

/// Map snapshot failures onto the CLI error taxonomy: filesystem trouble
/// is i/o (exit 3); a corrupt, incompatible, or mismatched snapshot is an
/// input problem like a bad graph file (exit 4).
fn snapshot_err(e: SnapshotError) -> CliError {
    match e {
        SnapshotError::Io(m) => CliError::Io(m),
        other => CliError::Graph(other.to_string()),
    }
}

fn sketch_build(
    path: &str,
    out: &str,
    base: SketchParams,
    seed: u64,
    lcc: bool,
    verify: bool,
) -> Result<String, CliError> {
    let g = load_graph(path, lcc)?;
    let eps = base.epsilon;
    let params = SketchParams { seed, ..base };
    let engine =
        QueryEngine::build(&g, &params).map_err(|e| CliError::Compute(e.to_string()))?;
    let snap = SketchSnapshot::from_engine(&engine);
    let bytes = snap.save(Path::new(out)).map_err(snapshot_err)?;
    let mut report = format!(
        "built sketch for {path}: n = {}, d = {}, hull l = {}, eps = {eps}\n\
         wrote {bytes} bytes to {out} (fingerprint {:#018x})\n",
        g.node_count(),
        engine.sketch().dimension(),
        engine.hull_size(),
        snap.fingerprint,
    );
    if verify {
        // Round-trip the file we just wrote: a snapshot that cannot be
        // loaded back (or that loads to a different fingerprint) is a
        // build failure, not a surprise at serve time.
        let reread = SketchSnapshot::load(Path::new(out)).map_err(|e| {
            CliError::Io(format!("verify failed: snapshot did not load back: {e}"))
        })?;
        if reread.fingerprint != snap.fingerprint {
            return Err(CliError::Io(format!(
                "verify failed: reloaded fingerprint {:#018x} != written {:#018x}",
                reread.fingerprint, snap.fingerprint
            )));
        }
        report.push_str("verify: round-trip load OK (checksum and fingerprint match)\n");
    }
    Ok(report)
}

fn sketch_info(path: &str) -> Result<String, CliError> {
    let snap = SketchSnapshot::load(Path::new(path)).map_err(snapshot_err)?;
    Ok(snap.summary())
}

/// Map a live-engine failure onto the CLI error classes: durability and
/// filesystem problems are I/O, replay/compute failures are computation.
fn live_err(e: LiveError) -> CliError {
    match e {
        LiveError::Wal(w) => CliError::Io(w.to_string()),
        LiveError::Snapshot(s) => CliError::Io(s),
        LiveError::Graph(g) => CliError::Graph(g),
        other => CliError::Compute(other.to_string()),
    }
}

#[allow(clippy::too_many_arguments)]
fn serve(
    path: &str,
    snapshot: Option<&str>,
    addr: Option<&str>,
    threads: usize,
    queue_depth: usize,
    params: SketchParams,
    lcc: bool,
    wal_dir: Option<&str>,
    error_budget: Option<f64>,
    max_jobs: usize,
    job_dir: Option<&str>,
    transport: ServerConfig,
) -> Result<String, CliError> {
    // Recovery-first startup: if the WAL dir already holds a durable epoch,
    // that state supersedes the edge list and any --snapshot — replaying it
    // is both cheaper and more correct than rebuilding, so skip the build.
    let recovering = match wal_dir {
        Some(dir) => !matches!(reecc_serve::wal::read_current(Path::new(dir)), Ok(None)),
        None => false,
    };
    let mut snapshot_retries = 0u64;
    let live = if recovering {
        let dir = Path::new(wal_dir.expect("recovering implies wal_dir"));
        let live = LiveEngine::recover_with_solver(dir, error_budget, Some(&params))
            .map_err(live_err)?;
        eprintln!(
            "recovered epoch {} from {} ({} WAL record(s) replayed); {path} and any \
             --snapshot ignored",
            live.epoch(),
            dir.display(),
            live.wal_replayed_on_start()
        );
        live
    } else {
        let g = load_graph(path, lcc)?;
        let engine = match snapshot {
            Some(snap_path) => {
                // Transient filesystem hiccups (network mounts, slow volumes)
                // get a bounded retry; corruption fails immediately.
                let (snap, retries) = SketchSnapshot::load_with_retry(
                    Path::new(snap_path),
                    &RetryPolicy::default(),
                )
                .map_err(snapshot_err)?;
                snapshot_retries = retries;
                if retries > 0 {
                    eprintln!("snapshot {snap_path} loaded after {retries} retry(ies)");
                }
                eprintln!("loaded snapshot {snap_path}: {}", snap.summary());
                snap.into_engine_with_solver(&g, Some(&params)).map_err(snapshot_err)?
            }
            None => {
                eprintln!(
                    "no snapshot given; building sketch for {path} (eps = {}) ...",
                    params.epsilon
                );
                QueryEngine::build(&g, &params).map_err(|e| CliError::Compute(e.to_string()))?
            }
        };
        let config =
            LiveConfig { wal_dir: wal_dir.map(std::path::PathBuf::from), error_budget };
        let (live, _) = LiveEngine::open(Arc::new(engine), &config).map_err(live_err)?;
        if let Some(dir) = wal_dir {
            eprintln!("write-ahead log at {dir} (budget {})", live.budget_total());
        }
        live
    };
    // `--max-jobs 0` switches the background optimization subsystem off;
    // job checkpoints live next to the data the operator chose, never in
    // an implicit location.
    let jobs = (max_jobs > 0).then(|| JobsConfig {
        max_jobs,
        queue_depth: 16,
        job_dir: job_dir.map(std::path::PathBuf::from),
    });
    let pool = ServePool::with_live_and_jobs(
        live,
        PoolConfig { threads, queue_depth, snapshot_retries, ..Default::default() },
        jobs,
    )
    .map_err(|e| CliError::Io(format!("cannot start job runner: {e}")))?;
    if let Some(runner) = pool.jobs() {
        let resumed = runner.resumed_on_start();
        if resumed > 0 {
            eprintln!(
                "resumed {resumed} checkpointed optimization job(s) from {}",
                job_dir.unwrap_or("?")
            );
        }
    }
    // Echo the count the pool actually resolved (0 = auto), not the flag.
    let threads = pool.threads();
    // All serving chatter goes to stderr: stdout is the response stream in
    // pipe mode and must stay machine-parseable NDJSON.
    match addr {
        Some(addr) => {
            let pool = Arc::new(pool);
            // Install the SIGTERM/SIGINT flag *before* serving starts so a
            // signal racing startup is never lost.
            let term = reecc_serve::sys::term_flag();
            let mut server = TcpServer::start_with(Arc::clone(&pool), addr, transport)
                .map_err(|e| CliError::Io(format!("cannot listen on {addr}: {e}")))?;
            eprintln!(
                "serving {path} on {} ({threads} worker(s), queue depth {queue_depth}, \
                 cap {} connection(s))",
                server.local_addr(),
                transport.max_connections
            );
            // Park cheaply until a termination signal, then drain: stop the
            // reactor (closing every connection), finish queued work, and
            // print the same one-line summary pipe mode emits.
            while !term.load(std::sync::atomic::Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
            }
            eprintln!("termination signal received; draining ...");
            server.stop().map_err(|e| CliError::Io(format!("event loop failed: {e}")))?;
            let report = pool.drain(Duration::from_secs(30));
            eprintln!(
                "drain: {} submitted, {} answered, {} dropped, {} panic(s), \
                 {} worker(s) respawned, {:?} elapsed",
                report.submitted,
                report.answered,
                report.dropped,
                report.panics,
                report.respawned,
                report.elapsed
            );
            Ok(String::new())
        }
        None => {
            eprintln!(
                "serving {path} on stdin/stdout ({threads} worker(s), queue depth \
                 {queue_depth}); one JSON request per line"
            );
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let stats = serve_pipe(&pool, stdin.lock(), stdout.lock())
                .map_err(|e| CliError::Io(format!("session failed: {e}")))?;
            eprintln!("session done: {} request(s), {} error(s)", stats.requests, stats.errors);
            // Deadline-bounded drain, then the one-line shutdown summary.
            let report = pool.drain(Duration::from_secs(30));
            eprintln!(
                "drain: {} submitted, {} answered, {} dropped, {} panic(s), \
                 {} worker(s) respawned, {:?} elapsed",
                report.submitted,
                report.answered,
                report.dropped,
                report.panics,
                report.respawned,
                report.elapsed
            );
            Ok(String::new())
        }
    }
}

fn generate(
    model: Model,
    n: usize,
    param: f64,
    seed: u64,
    dataset: Option<&str>,
    out_path: Option<&str>,
) -> Result<String, CliError> {
    let g = match model {
        Model::Ba => {
            let m = (param as usize).max(1);
            if n <= m {
                return Err(CliError::Usage(format!("ba needs n > param ({n} <= {m})")));
            }
            barabasi_albert(n, m, seed)
        }
        Model::Hk => {
            let m = (param as usize).max(1);
            if n <= m {
                return Err(CliError::Usage(format!("hk needs n > param ({n} <= {m})")));
            }
            holme_kim(n, m, 0.6, seed)
        }
        Model::Ws => {
            let kk = (param as usize).max(1);
            if n <= 2 * kk {
                return Err(CliError::Usage(format!(
                    "ws needs n > 2*param ({n} <= {})",
                    2 * kk
                )));
            }
            watts_strogatz(n, kk, 0.1, seed)
        }
        Model::Er => {
            if !(0.0..=1.0).contains(&param) {
                return Err(CliError::Usage("er --param must be a probability".into()));
            }
            connected_erdos_renyi(n.max(1), param, seed)
        }
        Model::PowerLaw => {
            if param <= 1.0 {
                return Err(CliError::Usage("powerlaw --param (gamma) must exceed 1".into()));
            }
            let d_max = ((n as f64).sqrt() as usize).clamp(2, n.saturating_sub(1).max(2));
            power_law_configuration(n, param, 2, d_max, seed)
        }
        Model::DatasetAnalog => {
            let name = dataset.ok_or_else(|| {
                CliError::Usage("--model dataset needs --dataset NAME".into())
            })?;
            let d = Dataset::by_name(name).ok_or_else(|| {
                let names: Vec<&str> = Dataset::all().iter().map(|d| d.name()).collect();
                CliError::Usage(format!(
                    "unknown dataset {name:?}; known: {}",
                    names.join(", ")
                ))
            })?;
            d.synthesize(Tier::Ci)
        }
    };
    let mut buf = Vec::new();
    reecc_graph::io::write_edge_list(&g, &mut buf).map_err(|e| CliError::Io(e.to_string()))?;
    let text = String::from_utf8(buf).expect("edge list is ascii");
    match out_path {
        Some(path) => {
            std::fs::write(path, &text)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            Ok(format!("wrote n = {}, m = {} to {path}\n", g.node_count(), g.edge_count()))
        }
        None => Ok(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(args: &[&str]) -> Result<String, CliError> {
        run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    /// A fresh file per call: tests run in parallel, and rewriting one
    /// shared file let a test read it while another had just truncated it.
    fn temp_graph() -> String {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!("reecc-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = dir.join(format!("g{k}.txt"));
        let g = barabasi_albert(60, 2, 9);
        let mut buf = Vec::new();
        reecc_graph::io::write_edge_list(&g, &mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let out = run_str(&[]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn analyze_runs_end_to_end() {
        let path = temp_graph();
        let out = run_str(&["analyze", &path, "--eps", "0.4"]).unwrap();
        assert!(out.contains("graph: n = 60"), "{out}");
        assert!(out.contains("resistance radius"), "{out}");
    }

    #[test]
    fn query_methods_agree_roughly() {
        let path = temp_graph();
        let exact = run_str(&["query", &path, "--nodes", "0,5", "--method", "exact"]).unwrap();
        let fast = run_str(&["query", &path, "--nodes", "0,5", "--method", "fast"]).unwrap();
        let pick = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.starts_with("c(0)"))
                .and_then(|l| l.split(" = ").nth(1))
                .unwrap()
                .parse()
                .unwrap()
        };
        let (e, f) = (pick(&exact), pick(&fast));
        assert!((e - f).abs() <= 0.3 * e, "exact {e} vs fast {f}");
    }

    #[test]
    fn optimize_reports_decreasing_trajectory() {
        let path = temp_graph();
        let out =
            run_str(&["optimize", &path, "--source", "0", "--k", "2", "--algorithm", "far"])
                .unwrap();
        assert!(out.contains("FARMINRECC"), "{out}");
        assert!(out.contains("k=2:"), "{out}");
    }

    #[test]
    fn generate_roundtrips_through_analyze() {
        let dir = std::env::temp_dir().join(format!("reecc-cli-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.txt").to_string_lossy().into_owned();
        let msg = run_str(&[
            "generate", "--model", "ba", "--n", "80", "--param", "2", "--out", &path,
        ])
        .unwrap();
        assert!(msg.contains("wrote n = 80"), "{msg}");
        let out = run_str(&["query", &path, "--nodes", "0", "--method", "exact"]).unwrap();
        assert!(out.contains("c(0) = "), "{out}");
    }

    #[test]
    fn generate_dataset_analog() {
        let out = run_str(&["generate", "--model", "dataset", "--dataset", "tribes"]).unwrap();
        assert!(out.starts_with("# nodes 16"), "{out}");
    }

    #[test]
    fn errors_are_user_facing() {
        assert!(matches!(run_str(&["analyze", "/no/such/file"]), Err(CliError::Io(_))));
        let path = temp_graph();
        assert!(matches!(
            run_str(&["query", &path, "--nodes", "9999"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_str(&["generate", "--model", "dataset"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_str(&["generate", "--model", "dataset", "--dataset", "nope"]),
            Err(CliError::Usage(_))
        ));
    }

    fn temp_file(name: &str, contents: &str) -> String {
        let dir = std::env::temp_dir().join(format!("reecc-cli-rob-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn missing_file_is_io_error_with_distinct_exit_code() {
        let err = run_str(&["analyze", "/no/such/file"]).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
        assert_eq!(err.exit_code(), 3);
        assert!(err.to_string().contains("/no/such/file"), "{err}");
    }

    #[test]
    fn malformed_edge_list_is_graph_error_with_line_number() {
        let path = temp_file("malformed.txt", "0 1\n1 2\nbogus tokens here\n");
        let err = run_str(&["analyze", &path]).unwrap_err();
        assert!(matches!(err, CliError::Graph(_)), "{err:?}");
        assert_eq!(err.exit_code(), 4);
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "message must locate the offense: {msg}");
        assert!(msg.contains("bogus"), "message must quote the token: {msg}");
    }

    #[test]
    fn disconnected_graph_is_rejected_with_actionable_message() {
        let path = temp_file("disconnected.txt", "0 1\n1 2\n2 0\n5 6\n");
        let err = run_str(&["analyze", &path]).unwrap_err();
        assert!(matches!(err, CliError::Graph(_)), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains("disconnected"), "{msg}");
        assert!(msg.contains("--lcc"), "message must name the escape hatch: {msg}");
        // The escape hatch works and reports the reduced order.
        let out = run_str(&["analyze", &path, "--lcc"]).unwrap();
        assert!(out.contains("n = 3"), "{out}");
    }

    #[test]
    fn duplicate_and_self_loop_lines_are_tolerated_when_loading() {
        // Public dumps routinely contain both; the CLI loads leniently.
        let path = temp_file("dirty.txt", "0 1\n1 0\n1 1\n1 2\n2 0\n");
        let out = run_str(&["analyze", &path]).unwrap();
        assert!(out.contains("n = 3, m = 3"), "{out}");
    }

    #[test]
    fn sketch_build_then_info_round_trips() {
        let graph = temp_graph();
        let dir = std::env::temp_dir().join(format!("reecc-cli-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("g.sketch").to_string_lossy().into_owned();
        let built =
            run_str(&["sketch-build", &graph, "--out", &snap, "--eps", "0.5", "--verify"])
                .unwrap();
        assert!(built.contains("n = 60"), "{built}");
        assert!(built.contains("fingerprint 0x"), "{built}");
        assert!(built.contains("verify: round-trip load OK"), "{built}");
        let info = run_str(&["sketch-info", &snap]).unwrap();
        assert!(info.contains("n = 60"), "{info}");
        assert!(info.contains("eps = 0.5"), "{info}");
    }

    #[test]
    fn sketch_build_mixed_cheby_round_trips_and_matches_f64_eps() {
        // The mixed + Chebyshev build path end-to-end: same snapshot
        // format, verify passes, and the resulting info reports the same
        // dimension as the default f64 build.
        let graph = temp_graph();
        let dir = std::env::temp_dir().join(format!("reecc-cli-mixed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("mixed.sketch").to_string_lossy().into_owned();
        let built = run_str(&[
            "sketch-build",
            &graph,
            "--out",
            &snap,
            "--eps",
            "0.5",
            "--precision",
            "mixed",
            "--precond",
            "cheby",
            "--verify",
        ])
        .unwrap();
        assert!(built.contains("verify: round-trip load OK"), "{built}");
        let info = run_str(&["sketch-info", &snap]).unwrap();
        assert!(info.contains("n = 60"), "{info}");
    }

    #[test]
    fn sketch_info_classifies_missing_vs_corrupt() {
        let err = run_str(&["sketch-info", "/no/such/snapshot"]).unwrap_err();
        assert_eq!(err.exit_code(), 3, "missing file is i/o: {err:?}");
        let path = temp_file("notasnapshot.bin", "this is not a snapshot at all");
        let err = run_str(&["sketch-info", &path]).unwrap_err();
        assert!(matches!(err, CliError::Graph(_)), "{err:?}");
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn serve_rejects_snapshot_for_a_different_graph() {
        let graph = temp_graph();
        let dir = std::env::temp_dir().join(format!("reecc-cli-mm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Snapshot built against a *different* graph.
        let other = dir.join("other.txt");
        let g = barabasi_albert(50, 3, 77);
        let mut buf = Vec::new();
        reecc_graph::io::write_edge_list(&g, &mut buf).unwrap();
        std::fs::write(&other, buf).unwrap();
        let snap = dir.join("other.sketch").to_string_lossy().into_owned();
        run_str(&["sketch-build", &other.to_string_lossy(), "--out", &snap, "--eps", "0.5"])
            .unwrap();
        let err = run_str(&["serve", &graph, "--snapshot", &snap]).unwrap_err();
        assert!(matches!(err, CliError::Graph(_)), "{err:?}");
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn exit_codes_are_distinct_per_error_class() {
        let codes = [
            CliError::Usage(String::new()).exit_code(),
            CliError::Io(String::new()).exit_code(),
            CliError::Graph(String::new()).exit_code(),
            CliError::Compute(String::new()).exit_code(),
        ];
        let mut unique = codes.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len(), "codes: {codes:?}");
        assert!(codes.iter().all(|&c| c != 0), "codes: {codes:?}");
    }
}
