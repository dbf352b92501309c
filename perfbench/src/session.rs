//! The untraced run: drive the release `reecc` binary the way a user does
//! and check every answer against the reference.
//!
//! A run: repeated `sketch-build`, three `serve` starts (the first running
//! the optimize jobs, the second taking the writes — mutated epochs — and
//! the third serving the fresh epoch), a cache warm-up, then rounds of the
//! same operations — a share of the `add-edge` writes, the workload's reads
//! and one optimize job — and finally `stats` and a SIGTERM drain of every
//! server. At least [`MIN_ROUNDS`] rounds run; more follow while the next
//! one is expected to end within `--seconds` of the start.
//!
//! Timings are of two kinds (see `cpu.rs`): wall times of builds and jobs,
//! which use every core, net of the CPU time the host stole from the machine
//! meanwhile; and the server's own CPU time for start-up, for each write
//! and for each chunk of reads. The writing and reading servers and the
//! client threads that read from them share one CPU; builds and the job
//! server have every core.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use reecc_graph::Graph;

use crate::client::{closed_loop, Conn};
use crate::cpu::{first_cpu, process_cpu_s, Steal};
use crate::gen::{edge_list_text, non_edges, Rng, Zipf};
use crate::json::Json;
use crate::proc::{run_to_end, Proc, SIGTERM};
use crate::reference::{grounded_inverse_diagonal, RefGraph};
use crate::workload::{self, stream, Optimizer, Workload, EPS, JOB_K};

/// Concurrent read connections and client threads: one per core of the
/// machine.
pub fn client_conns() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get()).max(1)
}

/// `serve` worker threads: as many as requests can be in flight at once
/// (the reactor keeps one per connection and the client drives `nproc`
/// connections).
pub fn server_threads() -> usize {
    client_conns()
}

/// Error budget above the run's total charge (at most ~1 per `add-edge`
/// on these graphs), so no re-sketch starts inside a timed window.
pub const ERROR_BUDGET: f64 = 1.0e6;

/// The seeded inputs of a workload, in the program's node ids.
pub struct Inputs {
    /// The edge-list file handed to `reecc`.
    pub text: String,
    /// The graph as the program's reader builds it from `text`.
    pub graph: Graph,
    /// The same edges, mapped through the reader's label interning, for
    /// the reference.
    pub reference: RefGraph,
}

pub fn inputs(w: &Workload, seed: u64) -> Result<Inputs, String> {
    let gen_edges = w.graph(seed);
    let (text, label) = edge_list_text(w.n, &gen_edges, &mut stream(seed, workload::LAYOUT));
    let (graph, labels) = reecc_graph::io::read_edge_list_lenient(text.as_bytes())
        .map_err(|e| format!("edge list does not parse: {e}"))?;
    if graph.node_count() != w.n {
        return Err(format!(
            "reader found {} nodes, generator made {}",
            graph.node_count(),
            w.n
        ));
    }
    let dense: HashMap<u64, usize> = labels.iter().enumerate().map(|(i, &l)| (l, i)).collect();
    let id = |g: usize| dense[&label[g]];
    let edges: Vec<(usize, usize)> = gen_edges.iter().map(|&(a, b)| (id(a), id(b))).collect();
    Ok(Inputs { text, graph, reference: RefGraph::new(w.n, &edges) })
}

/// A read request.
#[derive(Clone, Copy, Debug)]
pub enum Read {
    Ecc(usize),
    Res(usize, usize),
}

impl Read {
    pub fn line(self, id: u64) -> String {
        match self {
            Read::Ecc(v) => format!("{{\"op\":\"ecc\",\"v\":{v},\"id\":{id}}}"),
            Read::Res(u, v) => format!("{{\"op\":\"res\",\"u\":{u},\"v\":{v},\"id\":{id}}}"),
        }
    }
}

/// The seeded read stream: `ecc` sources Zipf-skewed over a seeded
/// permutation of the nodes (or uniform), `res` pairs uniform.
pub struct ReadGen {
    rng: Rng,
    n: usize,
    ecc_share: f64,
    zipf: Option<Zipf>,
    perm: Vec<usize>,
}

impl ReadGen {
    pub fn new(w: &Workload, rng: Rng, ecc_share: f64, skewed: bool) -> ReadGen {
        let mut rng = rng;
        let mut perm: Vec<usize> = (0..w.n).collect();
        rng.shuffle(&mut perm);
        let zipf = w.zipf.filter(|_| skewed).map(|s| Zipf::new(w.n, s));
        ReadGen { rng, n: w.n, ecc_share, zipf, perm }
    }

    pub fn next(&mut self) -> Read {
        if self.rng.unit() < self.ecc_share {
            let v = match &self.zipf {
                Some(z) => self.perm[z.sample(&mut self.rng)],
                None => self.rng.below(self.n),
            };
            Read::Ecc(v)
        } else {
            let u = self.rng.below(self.n);
            let mut v = self.rng.below(self.n - 1);
            if v >= u {
                v += 1;
            }
            Read::Res(u, v)
        }
    }
}

/// Read answers per round checked against the reference.
const CHECKS_PER_ROUND: usize = 24;

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let k = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[k - 1]
}

/// Median; NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn within_eps(got: f64, exact: f64, eps: f64) -> bool {
    got.is_finite() && (got - exact).abs() <= eps * exact
}

/// One running `reecc serve` and its address.
pub struct Server {
    proc: Proc,
    addr: String,
}

impl Server {
    /// CPU time of the server process so far, in seconds.
    fn cpu_s(&self) -> Result<f64, String> {
        process_cpu_s(self.proc.pid()).ok_or_else(|| "cannot read the CPU time of serve".into())
    }
}

pub struct Session<'a> {
    started: Instant,
    bin: PathBuf,
    dir: PathBuf,
    w: &'a Workload,
    seed: u64,
    seconds: f64,
    inputs: &'a Inputs,
    next_id: u64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    peak_rss_kib: u64,
    /// The CPU the reading and writing servers and the reading client
    /// threads share (`None` when the process's CPUs cannot be read).
    pub pin: Option<usize>,
    pub notes: Vec<String>,
}

/// End-to-end results of one run.
pub struct Metrics {
    pub setup_s: f64,
    pub build_s: f64,
    pub read_p50_ms: f64,
    pub read_cpu_us: f64,
    pub write_p50_ms: f64,
    pub write_cpu_ms: f64,
    pub plan_s: f64,
    pub peak_rss_mb: f64,
}

/// Rounds every run makes, whatever `--seconds`: every phase runs once per
/// round, so a slow stretch of a shared machine moves one sample of each
/// metric, not all; three rounds give every median over rounds a middle
/// value.
const MIN_ROUNDS: usize = 3;

/// Time kept free after the last round for `stats` and the servers' drain.
const WIND_DOWN: Duration = Duration::from_secs(1);

/// Samples gathered over the rounds of a run.
#[derive(Default)]
struct Rounds {
    /// The read server's CPU time per read (µs) over each chunk of reads,
    /// and the mutated server's CPU time (ms) of each write.
    read_cpu_us: Vec<f64>,
    write_cpu_ms: Vec<f64>,
    /// Per round: the job's wall time net of steal, and raw (s).
    plans: Vec<f64>,
    plans_raw: Vec<f64>,
    /// Latency (ms) of every read and every write.
    read_lat: Vec<f64>,
    write_lat: Vec<f64>,
    /// Wall time of the read phases (s).
    read_wall_s: f64,
}

impl<'a> Session<'a> {
    pub fn new(
        bin: &Path,
        dir: &Path,
        w: &'a Workload,
        seed: u64,
        seconds: f64,
        inputs: &'a Inputs,
    ) -> Session<'a> {
        Session {
            started: Instant::now(),
            bin: bin.to_path_buf(),
            dir: dir.to_path_buf(),
            w,
            seed,
            seconds,
            inputs,
            next_id: 1,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            peak_rss_kib: 0,
            pin: first_cpu(),
            notes: Vec::new(),
        }
    }

    fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn edges_path(&self) -> PathBuf {
        self.dir.join("edges.txt")
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("graph.snap")
    }

    /// `reecc` flags of the `sketch-build` and `serve` invocations.
    pub fn build_args(&self) -> Vec<String> {
        vec![
            "sketch-build".into(),
            self.edges_path().display().to_string(),
            "--out".into(),
            self.snapshot_path().display().to_string(),
            "--eps".into(),
            EPS.to_string(),
            "--seed".into(),
            self.seed.to_string(),
        ]
    }

    fn serve_args(&self, wal: &Path) -> Vec<String> {
        vec![
            "serve".into(),
            self.edges_path().display().to_string(),
            "--snapshot".into(),
            self.snapshot_path().display().to_string(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--eps".into(),
            EPS.to_string(),
            "--threads".into(),
            server_threads().to_string(),
            "--wal-dir".into(),
            wal.display().to_string(),
            "--error-budget".into(),
            ERROR_BUDGET.to_string(),
        ]
    }

    pub fn run(&mut self) -> Result<Metrics, String> {
        let w = self.w;
        std::fs::write(self.edges_path(), &self.inputs.text).map_err(|e| e.to_string())?;

        // Index build, repeated; the last build is the snapshot served.
        let (mut builds, mut builds_raw) = (Vec::new(), Vec::new());
        for i in 0..w.builds {
            let args = self.build_args();
            self.attempted += 1;
            let steal = Steal::now();
            let (wall, exit) = run_to_end(
                &self.bin,
                &args,
                &self.dir,
                &format!("build{i}"),
                Duration::from_secs(150),
            )?;
            self.peak_rss_kib = self.peak_rss_kib.max(exit.maxrss_kib);
            builds.push(steal.net(wall.as_secs_f64()));
            builds_raw.push(wall.as_secs_f64());
        }
        self.check_snapshot()?;

        // Start-up, spawn → first answer, three times: the first server
        // runs the jobs, the second takes the writes (mutated epochs) and
        // the third serves the fresh epoch.
        let (mut setups, mut setups_wall) = (Vec::new(), Vec::new());
        let mut servers = Vec::new();
        for (i, cpu) in [None, self.pin, self.pin].into_iter().enumerate() {
            let (server, cpu, wall) = self.start_server(i, cpu)?;
            setups.push(cpu);
            setups_wall.push(wall);
            servers.push(server);
        }
        let result = self.serve_rounds(&servers[0], &servers[1], &servers[2]);
        let drains: Vec<_> = servers.into_iter().map(|s| self.stop_server(s)).collect();
        let r = result?;
        for d in drains {
            self.check_drain(&d?);
        }

        self.notes.push(format!(
            "wall: builds {builds_raw:.3?} s (net of steal {builds:.3?}), setup {setups_wall:.4?} s \
             (CPU {setups:.4?}), plans {:.3?} s",
            r.plans_raw,
        ));
        let mut reads = r.read_lat;
        reads.sort_by(f64::total_cmp);
        let mut writes = r.write_lat;
        writes.sort_by(f64::total_cmp);
        if writes.is_empty() {
            return Err("no write was acknowledged".into());
        }
        self.notes.push(format!(
            "reads: {} closed-loop on {} connections, {:.0}/s, latency p50 {:.3} ms p90 {:.3} ms; \
             writes: {}, latency p50 {:.2} ms p90 {:.2} ms",
            reads.len(),
            client_conns(),
            reads.len() as f64 / r.read_wall_s,
            percentile(&reads, 0.5),
            percentile(&reads, 0.9),
            writes.len(),
            percentile(&writes, 0.5),
            percentile(&writes, 0.9),
        ));
        Ok(Metrics {
            setup_s: median(&setups),
            build_s: median(&builds),
            read_p50_ms: percentile(&reads, 0.5),
            read_cpu_us: median(&r.read_cpu_us),
            write_p50_ms: percentile(&writes, 0.5),
            write_cpu_ms: median(&r.write_cpu_ms),
            plan_s: median(&r.plans),
            peak_rss_mb: self.peak_rss_kib as f64 / 1024.0,
        })
    }

    /// Foster's theorem on the built snapshot (Σ over edges of r̃ ≈ n − 1)
    /// and sampled pairs against the reference.
    fn check_snapshot(&mut self) -> Result<(), String> {
        let snap = reecc_serve::SketchSnapshot::load(&self.snapshot_path())
            .map_err(|e| format!("snapshot does not load: {e}"))?;
        let engine = snap
            .into_engine(&self.inputs.graph)
            .map_err(|e| format!("snapshot does not match the graph: {e}"))?;
        let eps = EPS;
        let n = self.w.n as f64;
        let foster: f64 =
            self.inputs.graph.edges().iter().map(|e| engine.resistance(e.u, e.v)).sum();
        if (foster - (n - 1.0)).abs() > eps * (n - 1.0) {
            self.problem(format!(
                "Foster sum {foster} is not within eps of n - 1 = {}",
                n - 1.0
            ));
        }
        self.notes.push(format!("foster_sum {foster:.2} (n - 1 = {})", n - 1.0));
        let mut rng = stream(self.seed, workload::SAMPLES);
        for _ in 0..12 {
            let u = rng.below(self.w.n);
            let v = rng.below(self.w.n);
            if u == v {
                continue;
            }
            let got = engine.resistance(u, v);
            let exact = self.inputs.reference.resistance(u, v);
            if !within_eps(got, exact, eps) {
                self.problem(format!("snapshot r({u},{v}) = {got}, reference {exact}"));
            }
        }
        Ok(())
    }

    /// Start a server (on CPU `cpu` alone when one is given); returns it
    /// with its CPU time and wall time (s) from spawn to its first answer.
    fn start_server(
        &mut self,
        i: usize,
        cpu: Option<usize>,
    ) -> Result<(Server, f64, f64), String> {
        let wal = self.dir.join(format!("wal{i}"));
        let args = self.serve_args(&wal);
        self.attempted += 1;
        let mut proc = Proc::spawn(&self.bin, &args, &self.dir, &format!("serve{i}"), cpu)?;
        let addr = loop {
            let text = proc.stderr_text();
            // Only whole lines: the banner may be read while half written.
            let whole = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
            if let Some(rest) = whole.lines().find_map(|l| l.strip_prefix("serving ")) {
                if let Some(a) = rest.split(" on ").nth(1).and_then(|r| r.split(' ').next()) {
                    break a.to_string();
                }
            }
            if let Some(e) = proc.exited() {
                return Err(format!("serve exited {} during start-up: {text}", e.code));
            }
            if proc.started.elapsed() > Duration::from_secs(120) {
                return Err("serve did not start within 120 s".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        };
        let mut conn = Conn::connect(&addr)?;
        let reply = conn.call("{\"op\":\"epoch\",\"id\":0}", Duration::from_secs(60))?;
        let wall = proc.started.elapsed().as_secs_f64();
        let server = Server { proc, addr };
        let cpu = server.cpu_s()?;
        let ok = Json::parse(&reply).ok().and_then(|j| j.bool("ok")) == Some(true);
        if !ok {
            self.failed += 1;
            self.problem(format!("first answer is not ok: {reply}"));
        }
        Ok((server, cpu, wall))
    }

    /// SIGTERM, reap, and return the server's stderr (with its drain line).
    fn stop_server(&mut self, mut s: Server) -> Result<String, String> {
        s.proc.signal(SIGTERM);
        let exit = s.proc.wait(Duration::from_secs(60))?;
        self.peak_rss_kib = self.peak_rss_kib.max(exit.maxrss_kib);
        let text = s.proc.stderr_text();
        if exit.code != 0 {
            self.problem(format!("serve exited {}: {text}", exit.code));
        }
        Ok(text)
    }

    fn check_drain(&mut self, stderr: &str) {
        let Some(line) = stderr.lines().find(|l| l.starts_with("drain: ")) else {
            self.problem("no drain line on shutdown".into());
            return;
        };
        let field = |key: &str| -> Option<u64> {
            line.trim_start_matches("drain: ")
                .split(", ")
                .find(|p| p.ends_with(key))?
                .split(' ')
                .next()?
                .parse()
                .ok()
        };
        match (field(" submitted"), field(" answered"), field(" dropped"), field(" panic(s)")) {
            (Some(s), Some(a), Some(d), Some(p)) if a + d == s && p == 0 => {}
            _ => self.problem(format!("drain does not account for every request: {line}")),
        }
    }

    /// The timed phases, in rounds: a share of the writes on the mutated
    /// server, the workload's reads (on the fresh server, or on the
    /// mutated one just after the writes) and one job on the job server.
    /// A round starts if it is one of the first [`MIN_ROUNDS`] or if, taking
    /// as long as the longest so far, it would end within `--seconds` of
    /// the start of the run.
    fn serve_rounds(
        &mut self,
        jobs: &Server,
        mutated: &Server,
        fresh: &Server,
    ) -> Result<Rounds, String> {
        let w = self.w;
        let target = if w.mutated_reads { mutated } else { fresh };
        let mut read_conns: Vec<Conn> = (0..client_conns())
            .map(|_| Conn::connect(&target.addr))
            .collect::<Result<_, _>>()?;
        let mut write_conn = Conn::connect(&mutated.addr)?;
        let mut job_conn = Conn::connect(&jobs.addr)?;
        let mut reads = ReadGen::new(w, stream(self.seed, workload::READS), w.ecc_share, true);
        let mut sources = stream(self.seed, workload::JOBS);
        let per_round = w.writes_per_round;
        // A round takes several seconds, so this bounds the rounds a run can
        // make; the writes of all of them are drawn up front.
        let max_rounds = MIN_ROUNDS.max(self.seconds as usize / 4);
        let inputs = self.inputs;
        let base = &inputs.reference;
        let pairs = non_edges(
            w.n,
            per_round * max_rounds,
            |u, v| base.has_edge(u, v),
            &mut stream(self.seed, workload::WRITES),
        );

        // Warm-up, untimed: fills the fresh server's result cache with the
        // skewed sources.
        if !w.mutated_reads {
            self.read_phase(&mut read_conns, &mut reads, w.n.min(4096), None)?;
        }

        let mut r = Rounds::default();
        let end = Duration::from_secs_f64(self.seconds).saturating_sub(WIND_DOWN);
        let mut longest = Duration::ZERO;
        for round in 0..max_rounds {
            if round >= MIN_ROUNDS && self.started.elapsed() + longest > end {
                break;
            }
            let began = Instant::now();
            let k0 = round * per_round;
            for (lat, cpu) in self.writes(mutated, &mut write_conn, &pairs, k0, per_round)? {
                r.write_lat.push(lat);
                r.write_cpu_ms.push(cpu);
            }

            let current;
            let graph = if w.mutated_reads {
                current = base.with_edges(&pairs[..k0 + per_round]);
                &current
            } else {
                base
            };
            let chunks = w.reads_per_round / w.read_chunk;
            let checks = CHECKS_PER_ROUND.div_ceil(chunks);
            for _ in 0..chunks {
                let (t, cpu) = (Instant::now(), target.cpu_s()?);
                let lat = self.read_phase(
                    &mut read_conns,
                    &mut reads,
                    w.read_chunk,
                    Some((graph, checks)),
                )?;
                r.read_cpu_us.push((target.cpu_s()? - cpu) * 1e6 / w.read_chunk as f64);
                r.read_wall_s += t.elapsed().as_secs_f64();
                r.read_lat.extend(lat);
            }

            let s = sources.below(w.n);
            let (net, raw) = self.job(&mut job_conn, s, round == 0)?;
            r.plans.push(net);
            r.plans_raw.push(raw);
            longest = longest.max(began.elapsed());
        }
        let quartiles = |xs: &[f64]| {
            let mut v = xs.to_vec();
            v.sort_by(f64::total_cmp);
            [percentile(&v, 0.25), percentile(&v, 0.5), percentile(&v, 0.75)]
        };
        self.notes.push(format!(
            "rounds {}: read CPU quartiles {:.1?} us over {} chunks, write CPU quartiles {:.2?} \
             ms over {} writes, plans {:.3?} s",
            r.plans.len(),
            quartiles(&r.read_cpu_us),
            r.read_cpu_us.len(),
            quartiles(&r.write_cpu_ms),
            r.write_cpu_ms.len(),
            r.plans
        ));

        // Counters at the end of the run.
        for (name, server) in [("job", jobs), ("mutated", mutated), ("fresh", fresh)] {
            self.attempted += 1;
            let reply = Conn::connect(&server.addr)?
                .call("{\"op\":\"stats\",\"id\":1}", Duration::from_secs(30))?;
            let stats = Json::parse(&reply).map_err(|e| format!("stats reply: {e}"))?;
            let get = |k: &str| stats.u64(k).unwrap_or(u64::MAX);
            if get("resketches_total") != 0 {
                self.problem(format!(
                    "{} re-sketch(es) ran on the {name} server",
                    get("resketches_total")
                ));
            }
            self.notes.push(format!(
                "{name} server stats: cache_hits {} cache_misses {} batched_requests {} \
                 batch_flushes {} batch_occupancy_sum {} mutations_applied {} served {}",
                get("cache_hits"),
                get("cache_misses"),
                get("batched_requests"),
                get("batch_flushes"),
                get("batch_occupancy_sum"),
                get("mutations_applied"),
                get("served"),
            ));
        }
        Ok(r)
    }

    /// `count` reads from `reads`, spread round-robin over `conns` and sent
    /// in a closed loop. Every reply must be `ok` with its own id; with
    /// `check = Some((g, k))`, `k` answers spread over the phase are checked
    /// against the reference graph `g`. Returns the latency (ms) of each
    /// answered read.
    fn read_phase(
        &mut self,
        conns: &mut [Conn],
        reads: &mut ReadGen,
        count: usize,
        check: Option<(&RefGraph, usize)>,
    ) -> Result<Vec<f64>, String> {
        let k = conns.len();
        let mut lines = vec![Vec::new(); k];
        let mut sent = vec![Vec::new(); k];
        for i in 0..count {
            let (read, id) = (reads.next(), self.id());
            lines[i % k].push(read.line(id));
            sent[i % k].push((read, id));
        }
        let calls = closed_loop(conns, &lines, Duration::from_secs(30), self.pin);
        let mut lat = Vec::new();
        let mut answers: Vec<(Read, Json)> = Vec::new();
        for (c, per) in calls.iter().enumerate() {
            for (j, call) in per.iter().enumerate() {
                self.attempted += 1;
                let (read, id) = sent[c][j];
                match call.reply.as_deref().map(Json::parse) {
                    Some(Ok(v)) if v.bool("ok") == Some(true) && v.u64("id") == Some(id) => {
                        lat.push(call.latency.as_secs_f64() * 1e3);
                        answers.push((read, v));
                    }
                    _ => {
                        self.failed += 1;
                        self.problem(format!("bad reply to id {id}: {:?}", call.reply));
                    }
                }
            }
        }
        if let Some((g, k)) = check {
            let step = (answers.len() / k.max(1)).max(1);
            for (read, v) in answers.iter().step_by(step).take(k) {
                self.check_answer(g, *read, v);
            }
        }
        if lat.is_empty() {
            return Err("no read was answered".into());
        }
        Ok(lat)
    }

    fn check_answer(&mut self, g: &RefGraph, read: Read, v: &Json) {
        let eps = EPS;
        let value = v.f64("value").unwrap_or(f64::NAN);
        match read {
            Read::Res(a, b) => {
                let exact = g.resistance(a, b);
                if !within_eps(value, exact, eps) {
                    self.problem(format!("res({a},{b}) = {value}, reference {exact}"));
                }
            }
            Read::Ecc(s) => {
                let far = v.u64("node").map_or(usize::MAX, |x| x as usize);
                if far >= g.node_count() || far == s {
                    self.problem(format!("ecc({s}) names farthest node {far}"));
                    return;
                }
                let exact = g.resistance(s, far);
                if !within_eps(value, exact, eps) {
                    self.problem(format!("ecc({s}) = {value} at {far}, reference r = {exact}"));
                }
            }
        }
    }

    /// One optimize job from source `s`, closed loop: submit, then wait
    /// for the plan. Returns the seconds from submit to plan, net of steal
    /// and raw.
    fn job(&mut self, conn: &mut Conn, s: usize, first: bool) -> Result<(f64, f64), String> {
        let w = self.w;
        let submit = format!(
            "{{\"op\":\"optimize-submit\",\"optimizer\":\"{}\",\"s\":{s},\"k\":{},\"eps\":{},\"id\":{}}}",
            w.optimizer.wire_name(),
            JOB_K,
            EPS,
            self.id()
        );
        self.attempted += 1;
        let (steal, started) = (Steal::now(), Instant::now());
        let ack = Json::parse(&conn.call(&submit, Duration::from_secs(30))?)
            .map_err(|e| format!("optimize-submit reply: {e}"))?;
        let job = ack
            .u64("job")
            .filter(|_| ack.bool("ok") == Some(true))
            .ok_or_else(|| format!("optimize-submit not accepted: {ack:?}"))?;
        let wait = format!(
            "{{\"op\":\"optimize-result\",\"job\":{job},\"wait\":true,\"id\":{}}}",
            self.id()
        );
        let reply = conn.call(&wait, Duration::from_secs(150))?;
        let raw = started.elapsed().as_secs_f64();
        let net = steal.net(raw);
        let res = Json::parse(&reply).map_err(|e| format!("optimize-result reply: {e}"))?;
        let plan: Vec<(usize, usize)> = res
            .arr("plan")
            .unwrap_or(&[])
            .iter()
            .filter_map(|t| match t {
                Json::Arr(x) if x.len() == 3 => match (&x[0], &x[1]) {
                    (Json::Num(u), Json::Num(v)) => Some((*u as usize, *v as usize)),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        if res.str("state") != Some("completed") {
            self.failed += 1;
            self.problem(format!("job {job} did not complete: {reply}"));
        } else {
            self.check_plan(&self.inputs.reference, s, &plan, first);
        }
        Ok((net, raw))
    }

    /// A plan is `k` distinct non-edges of the graph; at the optimize size
    /// the exact c(s) must not rise, and the first plan of a run must equal
    /// an in-process run with the same spec.
    fn check_plan(&mut self, g: &'a RefGraph, s: usize, plan: &[(usize, usize)], first: bool) {
        let w = self.w;
        let mut seen = std::collections::BTreeSet::new();
        let valid = plan.len() == JOB_K
            && plan.iter().all(|&(u, v)| {
                u < w.n
                    && v < w.n
                    && u != v
                    && !g.has_edge(u, v)
                    && seen.insert((u.min(v), u.max(v)))
            })
            && match w.optimizer {
                Optimizer::CenMinRecc => plan.iter().all(|&(u, v)| u == s || v == s),
                Optimizer::MinRecc => true,
            };
        if !valid {
            self.problem(format!(
                "plan for source {s} is not {} distinct non-edges: {plan:?}",
                JOB_K
            ));
            return;
        }
        if w.n > 2000 {
            return;
        }
        let c = |g: &RefGraph| grounded_inverse_diagonal(g, s).into_iter().fold(0.0, f64::max);
        let before = c(g);
        let after = c(&g.with_edges(plan));
        if after > before * (1.0 + 1e-9) {
            self.problem(format!("plan raises exact c({s}) from {before} to {after}"));
        }
        if first {
            let mut params = reecc_opt::OptimizeParams::with_epsilon(EPS);
            params.sketch.seed = 0;
            let run = match w.optimizer {
                Optimizer::MinRecc => reecc_opt::min_recc_controlled(
                    &self.inputs.graph,
                    JOB_K,
                    s,
                    &params,
                    &mut reecc_opt::RunControl::none(),
                ),
                Optimizer::CenMinRecc => reecc_opt::cen_min_recc_controlled(
                    &self.inputs.graph,
                    JOB_K,
                    s,
                    &params,
                    &mut reecc_opt::RunControl::none(),
                ),
            };
            match run {
                Ok(r) => {
                    let local: Vec<(usize, usize)> =
                        r.plan().iter().map(|e| (e.u, e.v)).collect();
                    let served: Vec<(usize, usize)> =
                        plan.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
                    if local != served {
                        self.problem(format!(
                            "served plan {served:?} differs from in-process plan {local:?}"
                        ));
                    }
                }
                Err(e) => self.problem(format!("in-process optimizer failed: {e}")),
            }
        }
    }

    /// `pairs[k0..k0 + count]` as `add-edge` writes, one at a time on
    /// `conn` to `server` (which already holds `pairs[..k0]`). Every ack
    /// must be `ok` with its own id and no re-sketch; a sample of the acks'
    /// `r_uv` is checked against the client-tracked graph before the write.
    /// Returns the latency (ms, sent → ack) and the server's CPU time (ms)
    /// of each acknowledged write.
    fn writes(
        &mut self,
        server: &Server,
        conn: &mut Conn,
        pairs: &[(usize, usize)],
        k0: usize,
        count: usize,
    ) -> Result<Vec<(f64, f64)>, String> {
        let mut out = Vec::new();
        let mut samples = Vec::new();
        for (k, &(u, v)) in pairs.iter().enumerate().skip(k0).take(count) {
            let id = self.id();
            self.attempted += 1;
            let (t, cpu) = (Instant::now(), server.cpu_s()?);
            let reply = conn.call(
                &format!("{{\"op\":\"add-edge\",\"u\":{u},\"v\":{v},\"id\":{id}}}"),
                Duration::from_secs(30),
            );
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let cpu_ms = (server.cpu_s()? - cpu) * 1e3;
            match reply.as_deref().map(Json::parse) {
                Ok(Ok(a))
                    if a.bool("ok") == Some(true)
                        && a.u64("id") == Some(id)
                        && a.bool("resketch") == Some(false) =>
                {
                    out.push((ms, cpu_ms));
                    if (k - k0).is_multiple_of((count / 4).max(1)) {
                        samples.push((k, a.f64("r_uv").unwrap_or(f64::NAN)));
                    }
                }
                _ => {
                    self.failed += 1;
                    self.problem(format!("add-edge ({u},{v}) failed: {reply:?}"));
                }
            }
        }
        for (k, r_uv) in samples {
            let (u, v) = pairs[k];
            let exact = self.inputs.reference.with_edges(&pairs[..k]).resistance(u, v);
            if !within_eps(r_uv, exact, EPS) {
                self.problem(format!("add-edge ({u},{v}) r_uv = {r_uv}, reference {exact}"));
            }
        }
        Ok(out)
    }
}
