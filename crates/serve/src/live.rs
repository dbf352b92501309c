//! Live mutable serving: error-budgeted rank-1 updates, a write-ahead
//! edge log, and epoch-swapped background re-sketch.
//!
//! [`LiveEngine`] wraps the immutable [`QueryEngine`] in an epoch
//! abstraction. Readers grab the current [`EpochView`] — one `RwLock`
//! read + `Arc` clone, never blocked by writers — and answer queries
//! against it for as long as they like. Mutations (`add-edge` /
//! `remove-edge`) serialize on a writer lock and go through four steps,
//! in an order that makes every crash recoverable:
//!
//! 1. **Validate + compute.** The rank-1 sketch update
//!    (`QueryEngine::with_added_edge` / `with_removed_edge`) runs first,
//!    producing a complete next engine. A mutation the math rejects
//!    (bridge removal, duplicate edge) never reaches the log, so replay
//!    can apply every logged record unconditionally.
//! 2. **WAL append + fsync** ([`crate::wal`]). Only after the record is
//!    durable may the client see an ack; `kill -9` after this point
//!    replays to the exact same state.
//! 3. **Publish.** The new engine is swapped into the `RwLock` — an
//!    `Arc` pointer store; in-flight queries finish on the old view.
//! 4. **Account.** Each update charges `r/(1+r)` (add) or `r/(1−r)`
//!    (remove) against the epoch's error budget — the factor by which
//!    that Sherman–Morrison step can have amplified existing sketch
//!    error. When the budget drains, a background thread rebuilds the
//!    sketch from scratch (PR 4's blocked build) and swaps in a fresh
//!    epoch: snapshot durably written → `CURRENT` flipped → WAL rotated,
//!    so a crash at any point recovers either the old epoch (with its
//!    complete WAL) or the new one (with the delta WAL) — never a
//!    half-epoch.
//!
//! Fresh and mutated views answer eccentricities the same way, with the
//! engine's norm-pruned scan over all nodes, which never reads the hull.
//! A mutation leaves the hull stale without changing how any read is
//! answered; the budget bounds the sketch error rank-1 updates add.
//!
//! Projection columns for replayed adds are seeded from the record
//! itself (`FNV-1a(u, v, seq)`), not from the build RNG, so replay after
//! restart is bitwise identical to the originally served update no
//! matter how the base engine was built.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use reecc_core::{QueryEngine, SketchParams};
use reecc_graph::fingerprint::{fingerprint, Fnv1a};
use reecc_graph::{Edge, Graph};

use crate::failpoint;
use crate::pool::panic_message;
use crate::snapshot::{atomic_replace, SketchSnapshot};
use crate::wal::{self, WalError, WalOp, WalRecord, WalWriter};

/// Knobs for live mutation handling.
#[derive(Debug, Clone, Default)]
pub struct LiveConfig {
    /// Durable epoch directory (`--wal-dir`). `None` = ephemeral: the
    /// engine accepts mutations but nothing survives a restart.
    pub wal_dir: Option<PathBuf>,
    /// Total error budget per epoch (`--error-budget`). `None` = use the
    /// sketch's ε: once the accumulated rank-1 amplification could rival
    /// the sketch's own approximation error, re-sketch.
    pub error_budget: Option<f64>,
}

/// Typed failures from the live mutation path.
#[derive(Debug)]
pub enum LiveError {
    /// The mutation itself is invalid (out-of-range node, duplicate or
    /// missing edge, disconnecting removal). Nothing was logged or
    /// published; maps to a `bad-request` on the wire.
    Rejected(reecc_core::CoreError),
    /// The write-ahead log failed (including an armed `wal.append` /
    /// `wal.replay` failpoint). For appends the mutation was NOT applied.
    Wal(WalError),
    /// Reading or writing an epoch snapshot failed.
    Snapshot(String),
    /// An epoch base graph file was missing or malformed.
    Graph(String),
    /// A WAL record could not be re-applied during startup replay — the
    /// log disagrees with the base graph it claims to extend.
    Replay {
        /// Sequence number of the offending record.
        seq: u64,
        /// Why it could not be applied.
        detail: String,
    },
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Rejected(e) => write!(f, "mutation rejected: {e}"),
            LiveError::Wal(e) => write!(f, "{e}"),
            LiveError::Snapshot(msg) => write!(f, "epoch snapshot error: {msg}"),
            LiveError::Graph(msg) => write!(f, "epoch graph error: {msg}"),
            LiveError::Replay { seq, detail } => {
                write!(f, "cannot replay WAL record seq {seq}: {detail}")
            }
        }
    }
}

impl std::error::Error for LiveError {}

impl From<WalError> for LiveError {
    fn from(e: WalError) -> Self {
        LiveError::Wal(e)
    }
}

/// One immutable published epoch: what a reader answers queries against.
#[derive(Debug, Clone)]
pub struct EpochView {
    /// The engine for this view.
    pub engine: Arc<QueryEngine>,
    /// Fingerprint of `engine`'s graph (cache key space).
    pub fingerprint: u64,
}

impl EpochView {
    fn new(engine: Arc<QueryEngine>) -> Self {
        let fingerprint = fingerprint(engine.graph());
        EpochView { engine, fingerprint }
    }
}

/// What [`LiveEngine::apply_mutation`] hands back for the ack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutationReceipt {
    /// Effective resistance of the mutated edge at apply time.
    pub r_uv: f64,
    /// Error-budget charge: `r/(1+r)` for adds, `r/(1−r)` for removals.
    pub cost: f64,
    /// Budget left in this epoch after the charge.
    pub budget_remaining: f64,
    /// Epoch the mutation was applied in.
    pub epoch: u64,
    /// The mutation's global sequence number.
    pub seq: u64,
    /// Whether this mutation drained the budget and kicked off a
    /// background re-sketch.
    pub resketch_kicked: bool,
}

/// Writer-side mutable state, serialized under one mutex.
struct MutState {
    /// Current epoch's WAL writer; `None` in ephemeral mode.
    wal: Option<WalWriter>,
    /// Next global sequence number.
    seq: u64,
    /// Records applied on top of the current epoch's base (mirrors the
    /// WAL; the re-sketch replays a suffix of it onto the fresh build).
    delta: Vec<WalRecord>,
    /// Budget spent in the current epoch.
    budget_spent: f64,
}

/// The live mutable engine: epoch views + WAL + error budget.
pub struct LiveEngine {
    published: RwLock<Arc<EpochView>>,
    muts: Mutex<MutState>,
    wal_dir: Option<PathBuf>,
    base_params: SketchParams,
    budget_total: f64,
    epoch: AtomicU64,
    mutations_applied: AtomicU64,
    resketches_total: AtomicU64,
    wal_bytes: AtomicU64,
    wal_replayed_on_start: u64,
    /// `budget_spent` mirrored as bits so `stats` never takes the writer
    /// lock.
    budget_spent_bits: AtomicU64,
    resketch_running: AtomicBool,
    resketch_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for LiveEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveEngine")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("mutations_applied", &self.mutations_applied.load(Ordering::Relaxed))
            .field("budget_total", &self.budget_total)
            .field("wal_dir", &self.wal_dir)
            .finish()
    }
}

/// Deterministic projection-column seed for the add at `rec`: a function
/// of the record alone, so live apply and every future replay agree.
fn q_seed(rec: &WalRecord) -> u64 {
    let mut h = Fnv1a::new();
    h.update(b"reecc-live-q");
    h.update(&(rec.u as u64).to_le_bytes());
    h.update(&(rec.v as u64).to_le_bytes());
    h.update(&rec.seq.to_le_bytes());
    h.finish()
}

/// Apply one WAL record to `engine`, returning the next engine and the
/// budget charge.
fn apply_record(
    engine: &QueryEngine,
    rec: &WalRecord,
) -> Result<(QueryEngine, f64, f64), reecc_core::CoreError> {
    let edge = rec.edge();
    match rec.op {
        WalOp::AddEdge => {
            let (next, r_uv) = engine.with_added_edge(edge, q_seed(rec))?;
            Ok((next, r_uv, r_uv / (1.0 + r_uv)))
        }
        WalOp::RemoveEdge => {
            let (next, r_uv) = engine.with_removed_edge(edge)?;
            Ok((next, r_uv, r_uv / (1.0 - r_uv)))
        }
    }
}

/// Serialize `g` as an exact-index edge list: a `# nodes N edges M`
/// header, then one canonical `u v` line per edge. Unlike the dataset
/// reader in `reecc_graph::io` (which interns labels densely by first
/// appearance), [`parse_epoch_graph`] preserves indices verbatim — an
/// epoch base graph must round-trip to the *same* fingerprint.
fn render_epoch_graph(g: &Graph) -> String {
    let mut out = format!("# nodes {} edges {}\n", g.node_count(), g.edge_count());
    for e in g.edges() {
        out.push_str(&format!("{} {}\n", e.u, e.v));
    }
    out
}

fn parse_epoch_graph(text: &str) -> Result<Graph, String> {
    let mut n: Option<usize> = None;
    let mut edges = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if n.is_none() {
                let mut parts = rest.split_whitespace();
                if parts.next() == Some("nodes") {
                    n = parts.next().and_then(|t| t.parse().ok());
                }
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<usize, String> {
            tok.and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("line {}: expected two node ids", lineno + 1))
        };
        edges.push((parse(parts.next())?, parse(parts.next())?));
    }
    let n = n.ok_or_else(|| "missing `# nodes N edges M` header".to_string())?;
    Graph::from_edges(n, edges).map_err(|e| e.to_string())
}

impl LiveEngine {
    #[allow(clippy::too_many_arguments)]
    fn from_state(
        view: EpochView,
        wal: Option<WalWriter>,
        wal_dir: Option<PathBuf>,
        base_params: SketchParams,
        error_budget: Option<f64>,
        epoch: u64,
        delta: Vec<WalRecord>,
        budget_spent: f64,
        replayed: u64,
    ) -> Arc<LiveEngine> {
        let budget_total = error_budget.unwrap_or(base_params.epsilon).max(0.0);
        let seq = delta.last().map_or(0, |r| r.seq + 1);
        let wal_bytes = wal.as_ref().map_or(0, WalWriter::bytes);
        let mutations = delta.len() as u64;
        Arc::new(LiveEngine {
            published: RwLock::new(Arc::new(view)),
            muts: Mutex::new(MutState { wal, seq, delta, budget_spent }),
            wal_dir,
            base_params,
            budget_total,
            epoch: AtomicU64::new(epoch),
            mutations_applied: AtomicU64::new(mutations),
            resketches_total: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(wal_bytes),
            wal_replayed_on_start: replayed,
            budget_spent_bits: AtomicU64::new(budget_spent.to_bits()),
            resketch_running: AtomicBool::new(false),
            resketch_thread: Mutex::new(None),
        })
    }

    /// Wrap an engine with no durable log: mutations work, restarts
    /// forget. This is what `ServePool::new` uses, so a pool without
    /// `--wal-dir` behaves exactly as before plus in-memory mutability.
    pub fn ephemeral(engine: Arc<QueryEngine>, error_budget: Option<f64>) -> Arc<LiveEngine> {
        let params = *engine.params();
        let view = EpochView::new(engine);
        Self::from_state(view, None, None, params, error_budget, 0, Vec::new(), 0.0, 0)
    }

    /// Start epoch 0 in `wal_dir` from a freshly built (or snapshot-
    /// loaded) engine: write the base graph + sketch snapshot, create an
    /// empty WAL, then flip `CURRENT` — in that order, so a crash during
    /// bootstrap leaves either no `CURRENT` (re-bootstrap on next start)
    /// or a complete epoch 0.
    ///
    /// # Errors
    ///
    /// [`LiveError`] if any durable step fails; nothing is published.
    pub fn bootstrap(
        engine: Arc<QueryEngine>,
        wal_dir: &Path,
        error_budget: Option<f64>,
    ) -> Result<Arc<LiveEngine>, LiveError> {
        std::fs::create_dir_all(wal_dir).map_err(|e| {
            LiveError::Wal(WalError::Io(format!("cannot create {}: {e}", wal_dir.display())))
        })?;
        let fp = fingerprint(engine.graph());
        atomic_replace(
            &wal::graph_path(wal_dir, 0),
            render_epoch_graph(engine.graph()).as_bytes(),
            None,
        )
        .map_err(LiveError::Graph)?;
        SketchSnapshot::from_engine(&engine)
            .save(&wal::sketch_path(wal_dir, 0))
            .map_err(|e| LiveError::Snapshot(e.to_string()))?;
        let writer = WalWriter::create(&wal::wal_path(wal_dir, 0), 0, fp)?;
        wal::write_current(wal_dir, 0)?;
        let params = *engine.params();
        let view = EpochView::new(engine);
        Ok(Self::from_state(
            view,
            Some(writer),
            Some(wal_dir.to_path_buf()),
            params,
            error_budget,
            0,
            Vec::new(),
            0.0,
            0,
        ))
    }

    /// Recover the exact pre-crash served state from `wal_dir`: load the
    /// epoch named by `CURRENT` (base graph + sketch snapshot), then
    /// replay the epoch's WAL record by record with the same seeds the
    /// live path used. Torn WAL tails are truncated; any deeper damage is
    /// a typed error, never a panic and never silently-wrong state.
    ///
    /// # Errors
    ///
    /// [`LiveError::Graph`] / [`LiveError::Snapshot`] / [`LiveError::Wal`]
    /// on unreadable epoch files, [`LiveError::Replay`] when a logged
    /// record cannot be applied to the state it claims to extend.
    pub fn recover(
        wal_dir: &Path,
        error_budget: Option<f64>,
    ) -> Result<Arc<LiveEngine>, LiveError> {
        Self::recover_with_solver(wal_dir, error_budget, None)
    }

    /// [`Self::recover`], adopting the runtime solver selection from
    /// `solver` (precision, preconditioner, threads, block width — the
    /// serve CLI flags) for the recovered engine's what-if solves and
    /// future re-sketches. WAL replay itself is unaffected: durable
    /// rank-1 mutations pin their CG config, so the replayed state is
    /// bitwise identical whatever flags the restart was given.
    ///
    /// # Errors
    ///
    /// As [`Self::recover`].
    pub fn recover_with_solver(
        wal_dir: &Path,
        error_budget: Option<f64>,
        solver: Option<&SketchParams>,
    ) -> Result<Arc<LiveEngine>, LiveError> {
        let epoch = wal::read_current(wal_dir)?.ok_or_else(|| {
            LiveError::Graph(format!("{} has no CURRENT pointer", wal_dir.display()))
        })?;
        let graph_file = wal::graph_path(wal_dir, epoch);
        let text = std::fs::read_to_string(&graph_file).map_err(|e| {
            LiveError::Graph(format!("cannot read {}: {e}", graph_file.display()))
        })?;
        let graph = parse_epoch_graph(&text)
            .map_err(|e| LiveError::Graph(format!("{}: {e}", graph_file.display())))?;
        let fp = fingerprint(&graph);
        let snapshot = SketchSnapshot::load(&wal::sketch_path(wal_dir, epoch))
            .map_err(|e| LiveError::Snapshot(e.to_string()))?;
        let engine = snapshot
            .into_engine_with_solver(&graph, solver)
            .map_err(|e| LiveError::Snapshot(e.to_string()))?;
        let base_params = *engine.params();
        let (writer, records) =
            WalWriter::open_append(&wal::wal_path(wal_dir, epoch), epoch, fp)?;
        let mut view = EpochView::new(Arc::new(engine));
        let mut budget_spent = 0.0;
        for rec in &records {
            failpoint::hit("wal.replay").map_err(|msg| LiveError::Wal(WalError::Io(msg)))?;
            match apply_record(&view.engine, rec) {
                Ok((next, _r_uv, cost)) => {
                    budget_spent += cost;
                    view = EpochView::new(Arc::new(next));
                }
                Err(e) => {
                    return Err(LiveError::Replay { seq: rec.seq, detail: e.to_string() })
                }
            }
        }
        let replayed = records.len() as u64;
        Ok(Self::from_state(
            view,
            Some(writer),
            Some(wal_dir.to_path_buf()),
            base_params,
            error_budget,
            epoch,
            records,
            budget_spent,
            replayed,
        ))
    }

    /// Open a live engine per `config`: recover when the WAL directory
    /// already has a `CURRENT` epoch (ignoring `engine`), bootstrap it
    /// when it does not, ephemeral when no directory was given.
    ///
    /// Returns the engine and whether it was recovered from disk.
    ///
    /// # Errors
    ///
    /// See [`LiveEngine::bootstrap`] and [`LiveEngine::recover`].
    pub fn open(
        engine: Arc<QueryEngine>,
        config: &LiveConfig,
    ) -> Result<(Arc<LiveEngine>, bool), LiveError> {
        match &config.wal_dir {
            None => Ok((Self::ephemeral(engine, config.error_budget), false)),
            Some(dir) => {
                let has_current =
                    dir.is_dir() && wal::read_current(dir).map(|c| c.is_some()).unwrap_or(true);
                if has_current {
                    let solver = *engine.params();
                    Ok((
                        Self::recover_with_solver(dir, config.error_budget, Some(&solver))?,
                        true,
                    ))
                } else {
                    Ok((Self::bootstrap(engine, dir, config.error_budget)?, false))
                }
            }
        }
    }

    /// The currently published view. One `RwLock` read + `Arc` clone;
    /// never blocks on mutations or re-sketches in progress.
    pub fn view(&self) -> Arc<EpochView> {
        Arc::clone(&self.published.read().expect("published view poisoned"))
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Mutations applied over the engine's life (replayed ones included).
    pub fn mutations_applied(&self) -> u64 {
        self.mutations_applied.load(Ordering::Relaxed)
    }

    /// The per-epoch error budget.
    pub fn budget_total(&self) -> f64 {
        self.budget_total
    }

    /// Budget left in the current epoch.
    pub fn budget_remaining(&self) -> f64 {
        let spent = f64::from_bits(self.budget_spent_bits.load(Ordering::Relaxed));
        (self.budget_total - spent).max(0.0)
    }

    /// Background re-sketches completed.
    pub fn resketches_total(&self) -> u64 {
        self.resketches_total.load(Ordering::Relaxed)
    }

    /// Durable WAL length in bytes (0 in ephemeral mode).
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes.load(Ordering::Relaxed)
    }

    /// Records replayed from the WAL when this engine started.
    pub fn wal_replayed_on_start(&self) -> u64 {
        self.wal_replayed_on_start
    }

    /// Whether a background re-sketch is in flight.
    pub fn resketch_running(&self) -> bool {
        self.resketch_running.load(Ordering::SeqCst)
    }

    /// Mutations applied on top of the current epoch's base.
    pub fn mutations_in_epoch(&self) -> u64 {
        self.muts.lock().expect("mutation state poisoned").delta.len() as u64
    }

    /// Apply one mutation: validate + compute, WAL append + fsync,
    /// publish, account — in that order (see the module doc for why).
    ///
    /// # Errors
    ///
    /// [`LiveError::Rejected`] when the mutation is invalid (nothing
    /// logged or published), [`LiveError::Wal`] when the durable append
    /// fails (mutation NOT applied; the client must not treat it as
    /// acked).
    pub fn apply_mutation(
        self: &Arc<Self>,
        op: WalOp,
        u: usize,
        v: usize,
    ) -> Result<MutationReceipt, LiveError> {
        if u == v {
            return Err(LiveError::Rejected(reecc_core::CoreError::Numerical(format!(
                "an edge needs two distinct endpoints, got {u} twice"
            ))));
        }
        let edge = Edge::new(u, v);
        let mut muts = self.muts.lock().expect("mutation state poisoned");
        let view = self.view();
        let rec = WalRecord { op, u: edge.u, v: edge.v, seq: muts.seq };
        // 1. Validate + compute. A rejected mutation never reaches the
        // WAL, so replay applies every logged record unconditionally.
        let (next, r_uv, cost) =
            apply_record(&view.engine, &rec).map_err(LiveError::Rejected)?;
        // 2. Durability point: append + fsync before the ack.
        if let Some(wal) = muts.wal.as_mut() {
            let bytes = wal.append(&rec)?;
            self.wal_bytes.store(bytes, Ordering::Relaxed);
        }
        // 3. Publish: in-flight readers keep the old Arc.
        *self.published.write().expect("published view poisoned") =
            Arc::new(EpochView::new(Arc::new(next)));
        // 4. Account.
        muts.seq += 1;
        muts.delta.push(rec);
        muts.budget_spent += cost;
        self.budget_spent_bits.store(muts.budget_spent.to_bits(), Ordering::Relaxed);
        self.mutations_applied.fetch_add(1, Ordering::Relaxed);
        let budget_remaining = (self.budget_total - muts.budget_spent).max(0.0);
        let resketch_kicked = muts.budget_spent >= self.budget_total && self.kick_resketch();
        Ok(MutationReceipt {
            r_uv,
            cost,
            budget_remaining,
            epoch: self.epoch(),
            seq: rec.seq,
            resketch_kicked,
        })
    }

    /// Start a background re-sketch unless one is already running.
    /// Returns whether a new one was started.
    fn kick_resketch(self: &Arc<Self>) -> bool {
        if self.resketch_running.swap(true, Ordering::SeqCst) {
            return false;
        }
        let me = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("reecc-resketch".to_string())
            .spawn(move || {
                // Containment: a panic in the rebuild (or an armed
                // `resketch.build` panic failpoint) costs this attempt,
                // never the serving pool — the old epoch keeps serving
                // and the drained budget re-kicks on the next mutation.
                let result = catch_unwind(AssertUnwindSafe(|| me.resketch()));
                if let Err(payload) = result {
                    let msg = panic_message(payload.as_ref());
                    eprintln!("reecc-serve: re-sketch aborted by panic: {msg}");
                }
                me.resketch_running.store(false, Ordering::SeqCst);
            })
            .expect("spawn re-sketch thread");
        let mut slot = self.resketch_thread.lock().expect("resketch handle poisoned");
        if let Some(old) = slot.replace(handle) {
            // A previous re-sketch already finished (resketch_running was
            // false); reap its thread.
            let _ = old.join();
        }
        true
    }

    /// The re-sketch body: rebuild from the published graph, then commit
    /// a new durable epoch. Runs on the background thread; any failure
    /// logs and keeps the old epoch serving.
    fn resketch(self: &Arc<Self>) {
        if let Err(msg) = failpoint::hit("resketch.build") {
            eprintln!("reecc-serve: re-sketch aborted: {msg}");
            return;
        }
        // Kickoff state: the graph to rebuild and how much of the delta
        // it already contains. Taken under the writer lock so the pair is
        // consistent; mutations applied after this land in delta[split..]
        // and are replayed onto the fresh build at commit.
        let (g0, split) = {
            let muts = self.muts.lock().expect("mutation state poisoned");
            (self.view().engine.graph().clone(), muts.delta.len())
        };
        let fresh = match QueryEngine::build(&g0, &self.base_params) {
            Ok(engine) => engine,
            Err(e) => {
                eprintln!("reecc-serve: re-sketch build failed: {e}");
                return;
            }
        };
        if let Err(e) = self.commit_epoch(g0, split, fresh) {
            eprintln!("reecc-serve: epoch swap aborted, keeping old epoch: {e}");
        }
    }

    /// Commit a freshly rebuilt engine as the next epoch. Ordering is the
    /// crash-safety contract (DESIGN.md §11): new epoch files durably
    /// written (graph, snapshot, delta WAL) **then** `CURRENT` flipped
    /// **then** in-memory swap; the old epoch's files are removed only
    /// after the flip. A crash before the flip recovers the old epoch
    /// from its complete WAL; after, the new epoch plus its delta WAL —
    /// both replay to the same served state.
    fn commit_epoch(
        self: &Arc<Self>,
        g0: Graph,
        split: usize,
        fresh: QueryEngine,
    ) -> Result<(), LiveError> {
        let mut muts = self.muts.lock().expect("mutation state poisoned");
        let tail: Vec<WalRecord> = muts.delta[split..].to_vec();
        // The durable snapshot is the PRE-tail build (it matches g0); the
        // tail lives in the new epoch's WAL and is replayed on recovery.
        let snapshot = SketchSnapshot::from_engine(&fresh);
        let mut view = EpochView::new(Arc::new(fresh));
        let mut budget_spent = 0.0;
        for rec in &tail {
            let (next, _r_uv, cost) =
                apply_record(&view.engine, rec).map_err(LiveError::Rejected)?;
            budget_spent += cost;
            view = EpochView::new(Arc::new(next));
        }
        let old_epoch = self.epoch();
        let new_epoch = old_epoch + 1;
        let new_writer = match &self.wal_dir {
            Some(dir) => {
                let fp = fingerprint(&g0);
                atomic_replace(
                    &wal::graph_path(dir, new_epoch),
                    render_epoch_graph(&g0).as_bytes(),
                    None,
                )
                .map_err(LiveError::Graph)?;
                snapshot
                    .save(&wal::sketch_path(dir, new_epoch))
                    .map_err(|e| LiveError::Snapshot(e.to_string()))?;
                let mut writer =
                    WalWriter::create(&wal::wal_path(dir, new_epoch), new_epoch, fp)?;
                for rec in &tail {
                    writer.append(rec)?;
                }
                // Everything the new epoch needs is durable; this is the
                // last instant a crash (or injected failure) must recover
                // the OLD epoch.
                failpoint::hit("epoch.swap").map_err(|msg| {
                    self.remove_epoch_files(dir, new_epoch);
                    LiveError::Wal(WalError::Io(msg))
                })?;
                wal::write_current(dir, new_epoch)?;
                Some(writer)
            }
            None => {
                failpoint::hit("epoch.swap")
                    .map_err(|msg| LiveError::Wal(WalError::Io(msg)))?;
                None
            }
        };
        // Point of no return: CURRENT names the new epoch. Swap memory.
        self.wal_bytes
            .store(new_writer.as_ref().map_or(0, WalWriter::bytes), Ordering::Relaxed);
        muts.wal = new_writer;
        muts.delta = tail;
        muts.budget_spent = budget_spent;
        self.budget_spent_bits.store(budget_spent.to_bits(), Ordering::Relaxed);
        *self.published.write().expect("published view poisoned") = Arc::new(view);
        self.epoch.store(new_epoch, Ordering::SeqCst);
        self.resketches_total.fetch_add(1, Ordering::SeqCst);
        if let Some(dir) = &self.wal_dir {
            self.remove_epoch_files(dir, old_epoch);
        }
        Ok(())
    }

    /// Best-effort cleanup of one epoch's three files.
    fn remove_epoch_files(&self, dir: &Path, epoch: u64) {
        for path in [
            wal::graph_path(dir, epoch),
            wal::sketch_path(dir, epoch),
            wal::wal_path(dir, epoch),
        ] {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Block until any in-flight re-sketch finishes (test + drain hook).
    pub fn join_resketch(&self) {
        let handle = self.resketch_thread.lock().expect("resketch handle poisoned").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for LiveEngine {
    fn drop(&mut self) {
        let handle = self.resketch_thread.lock().ok().and_then(|mut s| s.take());
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reecc_core::ExactResistance;
    use reecc_graph::generators::{barabasi_albert, cycle};

    fn engine(g: &Graph, eps: f64) -> Arc<QueryEngine> {
        Arc::new(
            QueryEngine::build(
                g,
                &SketchParams { epsilon: eps, seed: 7, ..Default::default() },
            )
            .unwrap(),
        )
    }

    fn assert_matches_exact(view: &EpochView, eps: f64) {
        let exact = ExactResistance::new(view.engine.graph()).unwrap();
        let n = view.engine.graph().node_count();
        for u in 0..n {
            for v in (u + 1)..n {
                let approx = view.engine.resistance(u, v);
                let truth = exact.resistance(u, v);
                assert!(
                    (approx - truth).abs() <= eps * truth.max(1e-9),
                    "r({u},{v}): sketch {approx} vs exact {truth}"
                );
            }
        }
    }

    #[test]
    fn ephemeral_mutations_publish_and_track_exact() {
        let g = cycle(12);
        let live = LiveEngine::ephemeral(engine(&g, 0.3), Some(1000.0));
        let before = live.view();
        let receipt = live.apply_mutation(WalOp::AddEdge, 0, 6).unwrap();
        assert_eq!(receipt.seq, 0);
        assert!(receipt.r_uv > 0.0 && receipt.cost > 0.0);
        assert!(!receipt.resketch_kicked);
        let after = live.view();
        assert!(after.engine.graph().has_edge(0, 6));
        assert!(!before.engine.graph().has_edge(0, 6), "old view untouched");
        assert_ne!(after.fingerprint, before.fingerprint);
        assert_matches_exact(&after, 0.35);
        // Remove it again: round-trip back to a cycle-shaped graph.
        live.apply_mutation(WalOp::RemoveEdge, 6, 0).unwrap();
        assert!(!live.view().engine.graph().has_edge(0, 6));
        assert_eq!(live.mutations_applied(), 2);
    }

    #[test]
    fn invalid_mutations_are_rejected_without_side_effects() {
        let g = cycle(8);
        let live = LiveEngine::ephemeral(engine(&g, 0.4), Some(1000.0));
        let fp = live.view().fingerprint;
        for (op, u, v) in [
            (WalOp::AddEdge, 0, 1),    // already present
            (WalOp::AddEdge, 3, 3),    // self-loop
            (WalOp::AddEdge, 0, 99),   // out of range
            (WalOp::RemoveEdge, 0, 2), // not present
        ] {
            let err = live.apply_mutation(op, u, v).unwrap_err();
            assert!(matches!(err, LiveError::Rejected(_)), "({op:?},{u},{v}): {err}");
        }
        assert_eq!(live.view().fingerprint, fp, "rejected mutations must not publish");
        assert_eq!(live.mutations_applied(), 0);
    }

    #[test]
    fn drained_budget_kicks_resketch_and_swaps_in_a_fresh_epoch() {
        let g = barabasi_albert(40, 2, 11);
        // A tiny budget: the very first mutation drains it.
        let live = LiveEngine::ephemeral(engine(&g, 0.4), Some(1e-6));
        let receipt = live.apply_mutation(WalOp::AddEdge, 0, 39).unwrap();
        assert!(receipt.resketch_kicked, "{receipt:?}");
        assert_eq!(receipt.budget_remaining, 0.0);
        live.join_resketch();
        assert_eq!(live.resketches_total(), 1);
        assert_eq!(live.epoch(), 1);
        let view = live.view();
        assert!(view.engine.graph().has_edge(0, 39), "mutation survives the swap");
        assert!(live.budget_remaining() > 0.0, "budget reset for the new epoch");
        assert_eq!(live.mutations_in_epoch(), 0);
    }

    #[test]
    fn epoch_graph_round_trips_fingerprint_exactly() {
        let g = barabasi_albert(30, 2, 5);
        let text = render_epoch_graph(&g);
        let back = parse_epoch_graph(&text).unwrap();
        assert_eq!(fingerprint(&back), fingerprint(&g));
        assert!(parse_epoch_graph("0 1\n").is_err(), "header is mandatory");
        assert!(parse_epoch_graph("# nodes 4 edges 1\n0 x\n").is_err());
    }

    #[test]
    fn bootstrap_then_recover_reproduces_served_state() {
        let dir = std::env::temp_dir().join(format!("reecc-live-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = cycle(10);
        let live = LiveEngine::bootstrap(engine(&g, 0.3), &dir, Some(1000.0)).unwrap();
        live.apply_mutation(WalOp::AddEdge, 0, 5).unwrap();
        live.apply_mutation(WalOp::AddEdge, 2, 7).unwrap();
        live.apply_mutation(WalOp::RemoveEdge, 0, 1).unwrap();
        let served = live.view();
        drop(live); // simulated crash: nothing flushed beyond the WAL's acks
        let recovered = LiveEngine::recover(&dir, Some(1000.0)).unwrap();
        assert_eq!(recovered.wal_replayed_on_start(), 3);
        let view = recovered.view();
        assert_eq!(view.fingerprint, served.fingerprint, "same graph after replay");
        // Bitwise-identical sketch state: replay used the same seeds.
        let n = view.engine.graph().node_count();
        for u in 0..n {
            for v in (u + 1)..n {
                let a = served.engine.resistance(u, v);
                let b = view.engine.resistance(u, v);
                assert_eq!(a.to_bits(), b.to_bits(), "r({u},{v}): {a} vs {b}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_prefers_recovery_over_the_passed_engine() {
        let dir = std::env::temp_dir().join(format!("reecc-live-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = cycle(9);
        let config = LiveConfig { wal_dir: Some(dir.clone()), error_budget: Some(1000.0) };
        let (live, recovered) = LiveEngine::open(engine(&g, 0.4), &config).unwrap();
        assert!(!recovered, "fresh dir bootstraps");
        live.apply_mutation(WalOp::AddEdge, 1, 5).unwrap();
        let fp = live.view().fingerprint;
        drop(live);
        // Second start passes a DIFFERENT engine; recovery must win.
        let other = engine(&cycle(9), 0.4);
        let (live, recovered) = LiveEngine::open(other, &config).unwrap();
        assert!(recovered);
        assert_eq!(live.view().fingerprint, fp);
        assert_eq!(live.wal_replayed_on_start(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_resketch_rotates_wal_and_survives_restart() {
        let dir = std::env::temp_dir().join(format!("reecc-live-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = barabasi_albert(36, 2, 13);
        let live = LiveEngine::bootstrap(engine(&g, 0.4), &dir, Some(1e-6)).unwrap();
        let receipt = live.apply_mutation(WalOp::AddEdge, 0, 35).unwrap();
        assert!(receipt.resketch_kicked);
        live.join_resketch();
        assert_eq!(live.epoch(), 1);
        assert_eq!(wal::read_current(&dir), Ok(Some(1)));
        assert!(wal::sketch_path(&dir, 1).exists());
        assert!(!wal::wal_path(&dir, 0).exists(), "old epoch files removed after the flip");
        let served = live.view();
        drop(live);
        let recovered = LiveEngine::recover(&dir, Some(1e-6)).unwrap();
        assert_eq!(recovered.epoch(), 1);
        assert_eq!(recovered.wal_replayed_on_start(), 0, "delta was folded into the snapshot");
        assert_eq!(recovered.view().fingerprint, served.fingerprint);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_wal_append_leaves_state_unpublished() {
        let dir = std::env::temp_dir().join(format!("reecc-live-fpa-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = cycle(8);
        let live = LiveEngine::bootstrap(engine(&g, 0.4), &dir, Some(1000.0)).unwrap();
        let fp = live.view().fingerprint;
        failpoint::configure("wal.append", failpoint::Action::IoError, Some(1));
        let err = live.apply_mutation(WalOp::AddEdge, 0, 4).unwrap_err();
        assert!(matches!(err, LiveError::Wal(_)), "{err}");
        assert_eq!(live.view().fingerprint, fp, "unlogged mutation must not be served");
        assert_eq!(live.mutations_applied(), 0);
        // The next attempt goes through and is durable.
        live.apply_mutation(WalOp::AddEdge, 0, 4).unwrap();
        let served_fp = live.view().fingerprint;
        drop(live);
        let recovered = LiveEngine::recover(&dir, Some(1000.0)).unwrap();
        assert_eq!(recovered.view().fingerprint, served_fp);
        std::fs::remove_dir_all(&dir).ok();
    }
}
