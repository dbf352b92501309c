//! A hand-rolled, panic-contained worker thread pool around
//! `Arc<QueryEngine>`.
//!
//! `std::thread` workers pull jobs from one bounded `mpsc::sync_channel`;
//! the queue depth is the backpressure contract: when it is full,
//! [`ServePool::submit`] returns [`SubmitError::Overloaded`] *immediately*
//! instead of blocking the accepting thread — a loaded server degrades to
//! fast explicit rejections, never to unbounded latency.
//!
//! Each job carries its enqueue time and an optional deadline; a worker
//! that dequeues an already-expired job answers `deadline-exceeded`
//! without touching the engine. Answers to pure queries are memoized in a
//! sharded LRU cache keyed on (graph fingerprint, query), so hot keys cost
//! one lock and one hash after the first computation.
//!
//! # Supervision
//!
//! Every job runs inside `catch_unwind`: a panic in engine code (or an
//! armed `worker.compute` failpoint) is converted into a structured
//! `internal` error response for every not-yet-answered request of the
//! in-flight flush instead of a hung client. The panicked worker thread
//! then *exits* — its stack and any half-mutated thread-locals are
//! discarded — and a supervisor thread respawns a fresh replacement,
//! recording both events in the pool counters (`panics_total`,
//! `workers_respawned`). The pool therefore
//! keeps its configured parallelism through arbitrarily many panics.
//!
//! # Graceful drain
//!
//! [`ServePool::drain`] stops admissions, lets workers finish queued work
//! until a deadline, and answers every job still queued past the deadline
//! with a `draining` error (counted in `dropped_on_drain`). The returned
//! [`DrainReport`] accounts for every accepted request:
//! `answered + dropped == submitted`.
//!
//! Every eccentricity answer — `ecc`, `radius`, `diameter`, on a fresh
//! or a mutated epoch — comes from one kernel, the engine's norm-pruned
//! scan: APPROXQUERY's maximum over all nodes, bitwise
//! `ResistanceSketch::eccentricity`. The hull is never read on this path,
//! so a mutated epoch's stale hull changes nothing, and every computed
//! answer reports `"tier":"approx"`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use reecc_core::{CoreError, QueryEngine, WhatIfScratch};
use reecc_graph::Edge;

use crate::cache::{CacheKey, CachedAnswer, ShardedLru};
use crate::failpoint;
use crate::jobs::{JobRunner, JobSubmitError, JobsConfig};
use crate::live::{EpochView, LiveEngine, LiveError};
use crate::protocol::{ErrorKind, Outcome, Request, RequestEnvelope, Response, StatsReport};
use crate::wal::WalOp;

/// How long `optimize-result` with `"wait":true` stays pending before it
/// answers with the job's current (possibly still non-terminal) state, on
/// both transports: the pipe parks its session thread in
/// [`JobRunner::wait`], and the TCP reactor re-checks the job every tick.
pub(crate) const JOB_WAIT_TIMEOUT: Duration = Duration::from_secs(3600);

/// Pool sizing and behavior knobs.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker threads; `0` = use available parallelism (min 2).
    pub threads: usize,
    /// Bounded queue depth; submissions beyond it are rejected with
    /// `overloaded` (clamped to at least 1).
    pub queue_depth: usize,
    /// Total result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Number of independently locked cache shards.
    pub cache_shards: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Transient-error retries it took to load the snapshot this pool
    /// serves (0 when built fresh); surfaced in `stats` for observability.
    pub snapshot_retries: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            threads: 4,
            queue_depth: 256,
            cache_capacity: 4096,
            cache_shards: 8,
            default_deadline: None,
            snapshot_retries: 0,
        }
    }
}

/// Why a submission was rejected at the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full.
    Overloaded {
        /// The configured depth, for the error message.
        depth: usize,
    },
    /// The pool has been shut down or is draining.
    ShuttingDown,
}

/// The final accounting returned by [`ServePool::drain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests accepted by [`ServePool::submit`] over the pool's life.
    pub submitted: u64,
    /// Requests that received a computed (or error) response before the
    /// drain deadline.
    pub answered: u64,
    /// Requests answered with a `draining` error because the deadline
    /// passed while they were still queued.
    pub dropped: u64,
    /// Worker panics contained over the pool's life.
    pub panics: u64,
    /// Workers respawned by the supervisor.
    pub respawned: u64,
    /// Wall time the drain took.
    pub elapsed: Duration,
}

/// How a finished [`Job`] hands its response back: called exactly once,
/// on the worker thread. A channel-backed closure serves blocking
/// callers ([`ServePool::submit`]); the event-loop transport passes a
/// closure that routes the response to its reactor and wakes it.
type Reply = Box<dyn FnOnce(Response) + Send>;

struct Job {
    env: RequestEnvelope,
    enqueued: Instant,
    deadline: Option<Instant>,
    reply: Reply,
}

struct Shared {
    /// The live engine: workers fetch the current epoch view per request,
    /// so queries racing a mutation or an epoch swap answer consistently
    /// against whichever view they grabbed.
    live: Arc<LiveEngine>,
    cache: ShardedLru,
    served: AtomicU64,
    submitted: AtomicU64,
    panics: AtomicU64,
    respawned: AtomicU64,
    dropped_on_drain: AtomicU64,
    snapshot_retries: u64,
    shutdown: AtomicBool,
    /// Jobs dequeued after this instant are dropped with a `draining`
    /// error instead of computed.
    drain_deadline: Mutex<Option<Instant>>,
    threads: usize,
    queue_depth: usize,
    /// Requests answered through a coalesced flush of size ≥ 2.
    batched_requests: AtomicU64,
    /// Coalescing drain cycles (every dequeue of a coalescible request,
    /// whatever occupancy it found).
    batch_flushes: AtomicU64,
    /// Sum of flush occupancies; `/ batch_flushes` = average batch size.
    batch_occupancy_sum: AtomicU64,
    /// Reusable what-if solve scratch (CG workspace + RHS + base
    /// resistances): cache-missing `whatif-edge` requests serialize on
    /// this lock but allocate nothing in steady state.
    whatif: Mutex<WhatIfScratch>,
    whatif_served: AtomicU64,
    whatif_micros: AtomicU64,
    /// The background optimization-job subsystem, when enabled. Job
    /// control ops never enter the worker queue; they go straight to the
    /// runner's registry.
    jobs: OnceLock<Arc<JobRunner>>,
    /// Transport-layer counters, registered by the TCP event loop so the
    /// `stats` op can report them; absent (all zeros) in pipe mode.
    transport: OnceLock<Arc<crate::server::TransportStats>>,
}

enum WorkerExit {
    Clean,
    Panicked,
}

/// The serving pool: supervised workers, bounded queue, shared cache.
pub struct ServePool {
    tx: Mutex<Option<SyncSender<Job>>>,
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    supervisor: Mutex<Option<std::thread::JoinHandle<()>>>,
    shared: Arc<Shared>,
    default_deadline: Option<Duration>,
}

impl std::fmt::Debug for ServePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServePool")
            .field("threads", &self.shared.threads)
            .field("queue_depth", &self.shared.queue_depth)
            .field("served", &self.shared.served.load(Ordering::Relaxed))
            .field("panics", &self.shared.panics.load(Ordering::Relaxed))
            .finish()
    }
}

impl ServePool {
    /// Spin up the supervised workers for an immutable `engine` (wrapped
    /// in an ephemeral [`LiveEngine`]: mutations work, nothing persists).
    pub fn new(engine: Arc<QueryEngine>, config: PoolConfig) -> Self {
        Self::with_live(LiveEngine::ephemeral(engine, None), config)
    }

    /// Spin up the supervised workers for a live (possibly durable,
    /// possibly recovered) engine.
    pub fn with_live(live: Arc<LiveEngine>, config: PoolConfig) -> Self {
        Self::with_live_and_jobs(live, config, None)
            .expect("a pool without a job subsystem cannot fail to start")
    }

    /// Spin up the supervised workers plus, when `jobs` is given, the
    /// background optimization-job subsystem (see [`crate::jobs`]).
    ///
    /// The job runner probes this pool's queue pressure between greedy
    /// iterations (`submitted > served` means requests are waiting or
    /// executing) and yields, so background optimization never starves
    /// interactive query latency.
    ///
    /// # Errors
    ///
    /// A message when the job subsystem cannot start: `max_jobs` of zero,
    /// an uncreatable checkpoint directory, or an unscannable one.
    pub fn with_live_and_jobs(
        live: Arc<LiveEngine>,
        config: PoolConfig,
        jobs: Option<JobsConfig>,
    ) -> Result<Self, String> {
        // `threads: 0` resolves through the shared helper; the pool keeps
        // a floor of two workers so one panicked worker never leaves the
        // queue unattended while the supervisor respawns it.
        let threads = if config.threads == 0 {
            reecc_core::resolve_threads(0).max(2)
        } else {
            config.threads
        };
        let queue_depth = config.queue_depth.max(1);
        let n = live.view().engine.graph().node_count();
        let shared = Arc::new(Shared {
            live,
            cache: ShardedLru::new(config.cache_capacity, config.cache_shards),
            served: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            respawned: AtomicU64::new(0),
            dropped_on_drain: AtomicU64::new(0),
            snapshot_retries: config.snapshot_retries,
            shutdown: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
            threads,
            queue_depth,
            batched_requests: AtomicU64::new(0),
            batch_flushes: AtomicU64::new(0),
            batch_occupancy_sum: AtomicU64::new(0),
            // Mutations only touch edges, never the node set, so the
            // scratch stays correctly sized across epochs.
            whatif: Mutex::new(WhatIfScratch::new(n)),
            whatif_served: AtomicU64::new(0),
            whatif_micros: AtomicU64::new(0),
            jobs: OnceLock::new(),
            transport: OnceLock::new(),
        });
        // Start the job runner before any worker thread exists, so a
        // failed start leaks nothing.
        if let Some(jobs_config) = jobs {
            let weak: Weak<Shared> = Arc::downgrade(&shared);
            let busy = Box::new(move || {
                weak.upgrade().is_some_and(|s| {
                    s.submitted.load(Ordering::Relaxed) > s.served.load(Ordering::Relaxed)
                })
            });
            let runner = JobRunner::start(Arc::clone(&shared.live), &jobs_config, busy)?;
            let _ = shared.jobs.set(runner);
        }
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let (exit_tx, exit_rx) = mpsc::channel::<WorkerExit>();
        let workers = Arc::new(Mutex::new(Vec::with_capacity(threads + 1)));
        {
            let mut handles = workers.lock().expect("worker registry poisoned");
            for i in 0..threads {
                handles.push(spawn_worker(i, &rx, &shared, &exit_tx));
            }
        }
        let supervisor = {
            let rx_jobs = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            let workers = Arc::clone(&workers);
            std::thread::Builder::new()
                .name("reecc-serve-supervisor".to_string())
                .spawn(move || supervisor_loop(&exit_rx, &exit_tx, &rx_jobs, &shared, &workers))
                .expect("spawn serve supervisor")
        };
        Ok(ServePool {
            tx: Mutex::new(Some(tx)),
            workers,
            supervisor: Mutex::new(Some(supervisor)),
            shared,
            default_deadline: config.default_deadline,
        })
    }

    /// The background job subsystem, when this pool was started with one.
    pub fn jobs(&self) -> Option<&Arc<JobRunner>> {
        self.shared.jobs.get()
    }

    /// Register the transport-layer counter block the `stats` op should
    /// report. The TCP event loop calls this once at startup; pipe mode
    /// never does, and `stats` then reports transport zeros. Returns
    /// `false` if a transport was already registered (the first wins).
    pub fn set_transport_stats(&self, stats: Arc<crate::server::TransportStats>) -> bool {
        self.shared.transport.set(stats).is_ok()
    }

    /// The live engine this pool serves.
    pub fn live(&self) -> &Arc<LiveEngine> {
        &self.shared.live
    }

    /// The resolved worker count (after `threads: 0` auto-detection).
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Enqueue a request without blocking. On success the response arrives
    /// on the returned channel exactly once.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the bounded queue is full;
    /// [`SubmitError::ShuttingDown`] after shutdown or drain began.
    pub fn submit(&self, env: RequestEnvelope) -> Result<Receiver<Response>, SubmitError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.submit_with(
            env,
            Box::new(move |response| {
                // A disappeared client is not an error; drop the reply.
                let _ = reply_tx.send(response);
            }),
        )?;
        Ok(reply_rx)
    }

    /// Enqueue a request without blocking, delivering the response by
    /// calling `reply` exactly once on the worker thread that computes
    /// it. This is the event-loop transport's entry point: its reactor
    /// passes a closure that forwards the response to a completion
    /// channel and wakes the `poll(2)` loop, so no thread ever parks on
    /// a per-request channel.
    ///
    /// `reply` must be cheap and must not block: it runs on a pool
    /// worker between jobs.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the bounded queue is full;
    /// [`SubmitError::ShuttingDown`] after shutdown or drain began. On
    /// error `reply` is returned unused (dropped).
    pub fn submit_with(
        &self,
        env: RequestEnvelope,
        reply: Box<dyn FnOnce(Response) + Send>,
    ) -> Result<(), SubmitError> {
        let guard = self.tx.lock().expect("pool sender poisoned");
        let Some(tx) = guard.as_ref() else {
            return Err(SubmitError::ShuttingDown);
        };
        let now = Instant::now();
        let deadline = match env.deadline_ms {
            Some(ms) => Some(now + Duration::from_millis(ms)),
            None => self.default_deadline.map(|d| now + d),
        };
        let job = Job { env, enqueued: now, deadline, reply };
        match tx.try_send(job) {
            Ok(()) => {
                self.shared.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                Err(SubmitError::Overloaded { depth: self.shared.queue_depth })
            }
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Submit and wait for the answer, mapping every rejection to an error
    /// [`Response`] so callers always get one line per request.
    pub fn run(&self, env: RequestEnvelope) -> Response {
        if matches!(
            env.request,
            Request::OptimizeSubmit { .. }
                | Request::OptimizeStatus { .. }
                | Request::OptimizeCancel { .. }
                | Request::OptimizeEvents { .. }
                | Request::OptimizeResult { .. }
        ) {
            return self.run_job_op(env);
        }
        let id = env.id;
        let op = env.request.op_name();
        match self.submit(env) {
            Ok(rx) => rx.recv().unwrap_or_else(|_| {
                Response::error(
                    id,
                    op,
                    ErrorKind::Internal,
                    "worker dropped the request (pool shutting down?)".to_string(),
                )
            }),
            Err(SubmitError::Overloaded { depth }) => Response::error(
                id,
                op,
                ErrorKind::Overloaded,
                format!("request queue full (depth {depth}); retry later"),
            ),
            Err(SubmitError::ShuttingDown) => Response::error(
                id,
                op,
                ErrorKind::Draining,
                "pool is draining; request not accepted".to_string(),
            ),
        }
    }

    /// Answer one `optimize-*` op on the calling thread.
    ///
    /// Job control never enters the bounded worker queue: these are
    /// registry lookups (or, for `optimize-result` with `"wait":true`, a
    /// deliberate block of the *session* thread), so a full query queue
    /// can neither starve nor be starved by job traffic.
    fn run_job_op(&self, env: RequestEnvelope) -> Response {
        let id = env.id;
        let op = env.request.op_name();
        let started = Instant::now();
        let Some(runner) = self.shared.jobs.get() else {
            return Response::untimed(id, op, Outcome::jobs_disabled());
        };
        let outcome = match env.request {
            Request::OptimizeSubmit { spec } => match runner.submit(spec) {
                Ok(job) => Outcome::Job {
                    job,
                    state: "queued",
                    detail: String::new(),
                    iterations: 0,
                    k: spec.k as u64,
                },
                Err(JobSubmitError::Invalid(msg)) => {
                    Outcome::Error { kind: ErrorKind::BadRequest, message: msg }
                }
                Err(JobSubmitError::Overloaded(msg)) => {
                    Outcome::Error { kind: ErrorKind::Overloaded, message: msg }
                }
                Err(JobSubmitError::Io(msg)) => {
                    Outcome::Error { kind: ErrorKind::Internal, message: msg }
                }
            },
            Request::OptimizeStatus { job } | Request::OptimizeEvents { job, .. } => {
                // Through the plain request path `optimize-events`
                // degrades to a status probe; the transports stream it
                // line-by-line instead (see `crate::server`).
                match runner.status(job) {
                    Some(report) => Outcome::job_status(&report),
                    None => Outcome::unknown_job(job),
                }
            }
            Request::OptimizeCancel { job } => match runner.cancel(job) {
                Some(report) => Outcome::job_status(&report),
                None => Outcome::unknown_job(job),
            },
            Request::OptimizeResult { job, wait } => {
                let report =
                    if wait { runner.wait(job, JOB_WAIT_TIMEOUT) } else { runner.status(job) };
                match report {
                    Some(report) => Outcome::job_result(&report),
                    None => Outcome::unknown_job(job),
                }
            }
            _ => unreachable!("run_job_op is only called for optimize-* requests"),
        };
        Response {
            compute_micros: started.elapsed().as_micros() as u64,
            ..Response::untimed(id, op, outcome)
        }
    }

    /// Requests answered so far (any outcome, drain drops included).
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Worker panics contained so far.
    pub fn panics_total(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Workers respawned by the supervisor so far.
    pub fn workers_respawned(&self) -> u64 {
        self.shared.respawned.load(Ordering::Relaxed)
    }

    /// The current epoch view's graph fingerprint.
    pub fn graph_fingerprint(&self) -> u64 {
        self.shared.live.view().fingerprint
    }

    /// Stop accepting, finish queued work for up to `grace`, answer
    /// anything still queued past the deadline with a `draining` error,
    /// and join every worker. Idempotent: a second call (or `Drop`)
    /// reports the same final counters with zero additional work.
    pub fn drain(&self, grace: Duration) -> DrainReport {
        let started = Instant::now();
        *self.shared.drain_deadline.lock().expect("drain deadline poisoned") =
            Some(started + grace);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Background optimization jobs stop first: running ones are
        // cancelled cooperatively and their checkpoints kept, so the next
        // process resumes them. Idempotent, like the rest of drain.
        if let Some(runner) = self.shared.jobs.get() {
            runner.shutdown();
        }
        // Closing the channel stops admissions and lets workers run the
        // queue dry; jobs dequeued past the deadline are answered with
        // `draining` instead of computed.
        drop(self.tx.lock().expect("pool sender poisoned").take());
        if let Some(handle) = self.supervisor.lock().expect("supervisor handle poisoned").take()
        {
            let _ = handle.join();
        }
        let handles: Vec<_> =
            self.workers.lock().expect("worker registry poisoned").drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        // A re-sketch kicked by a drained budget may still be running;
        // let it finish (or abort) before the process tears down state.
        self.shared.live.join_resketch();
        let submitted = self.shared.submitted.load(Ordering::SeqCst);
        let dropped = self.shared.dropped_on_drain.load(Ordering::SeqCst);
        let served = self.shared.served.load(Ordering::SeqCst);
        DrainReport {
            submitted,
            answered: served - dropped,
            dropped,
            panics: self.shared.panics.load(Ordering::SeqCst),
            respawned: self.shared.respawned.load(Ordering::SeqCst),
            elapsed: started.elapsed(),
        }
    }
}

impl Drop for ServePool {
    fn drop(&mut self) {
        // A normal shutdown is a drain with no deadline pressure: finish
        // everything queued, lose nothing.
        let _ = self.drain(Duration::from_secs(3600));
    }
}

fn spawn_worker(
    index: usize,
    rx: &Arc<Mutex<Receiver<Job>>>,
    shared: &Arc<Shared>,
    exit_tx: &Sender<WorkerExit>,
) -> std::thread::JoinHandle<()> {
    let rx = Arc::clone(rx);
    let shared = Arc::clone(shared);
    let exit_tx = exit_tx.clone();
    std::thread::Builder::new()
        .name(format!("reecc-serve-{index}"))
        .spawn(move || {
            let reason = worker_loop(&rx, &shared);
            let _ = exit_tx.send(reason);
        })
        .expect("spawn serve worker")
}

/// Respawn panicked workers until every worker has exited cleanly.
///
/// The supervisor keeps a live-worker count: a clean exit (channel closed
/// at shutdown) decrements it; a panic exit spawns a replacement unless
/// the pool is already shutting down. It holds its own `exit_tx` clone to
/// hand to replacements, so termination is by counting, not disconnect.
fn supervisor_loop(
    exit_rx: &Receiver<WorkerExit>,
    exit_tx: &Sender<WorkerExit>,
    rx_jobs: &Arc<Mutex<Receiver<Job>>>,
    shared: &Arc<Shared>,
    workers: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    let mut live = shared.threads;
    let mut spawned = shared.threads;
    while live > 0 {
        match exit_rx.recv() {
            Ok(WorkerExit::Clean) => live -= 1,
            Ok(WorkerExit::Panicked) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    live -= 1;
                    continue;
                }
                let handle = spawn_worker(spawned, rx_jobs, shared, exit_tx);
                spawned += 1;
                shared.respawned.fetch_add(1, Ordering::SeqCst);
                workers.lock().expect("worker registry poisoned").push(handle);
            }
            Err(_) => break,
        }
    }
}

/// The tier every computed answer reports on the wire: each eccentricity
/// is APPROXQUERY's all-node maximum (see the module doc).
const TIER: &str = "approx";

/// How many queued jobs one dequeue may coalesce into a flush: the
/// first eccentricity-family job plus up to seven more of the family
/// already waiting behind it. The flush shares one view fetch, one
/// batch call and, for `radius`/`diameter`, one all-node sweep, and a
/// window of 8 holds the queue lock only briefly.
const BATCH_WINDOW: usize = 8;

/// Requests the coalescing drain may batch into one flush: the
/// eccentricity family, whose misses share one
/// [`QueryEngine::eccentricity_batch`] call. Everything else (mutations,
/// what-ifs, stats) is a flush of its own.
fn coalescible(request: &Request) -> bool {
    matches!(request, Request::Ecc { .. } | Request::Radius | Request::Diameter)
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>, shared: &Shared) -> WorkerExit {
    loop {
        // Hold the lock only for the blocking recv (plus a non-blocking
        // coalescing drain); execution runs unlocked so workers overlap
        // on distinct jobs. A non-coalescible job pulled mid-drain cannot
        // be pushed back, so it is carried and processed after the batch.
        let (batch, carry) = {
            let guard = match rx.lock() {
                Ok(guard) => guard,
                Err(_) => return WorkerExit::Clean,
            };
            let Ok(first) = guard.recv() else {
                return WorkerExit::Clean; // channel closed: shutdown
            };
            let mut batch = Vec::with_capacity(BATCH_WINDOW);
            let mut carry = None;
            batch.push(first);
            if coalescible(&batch[0].env.request) {
                while batch.len() < BATCH_WINDOW {
                    match guard.try_recv() {
                        Ok(next) if coalescible(&next.env.request) => batch.push(next),
                        Ok(next) => {
                            carry = Some(next);
                            break;
                        }
                        Err(_) => break,
                    }
                }
            }
            (batch, carry)
        };
        if coalescible(&batch[0].env.request) {
            shared.batch_flushes.fetch_add(1, Ordering::Relaxed);
            shared.batch_occupancy_sum.fetch_add(batch.len() as u64, Ordering::Relaxed);
            if batch.len() >= 2 {
                shared.batched_requests.fetch_add(batch.len() as u64, Ordering::Relaxed);
            }
        }
        let mut exit = process(shared, batch);
        // The carry is owned by this worker, not the queue: it is its own
        // flush, answered even when the batch panicked this thread toward
        // exit (`or` evaluates its argument either way).
        if let Some(job) = carry {
            exit = exit.or(process(shared, vec![job]));
        }
        if let Some(reason) = exit {
            return reason;
        }
    }
}

/// Hand `job` its one response and count it as served.
fn answer(shared: &Shared, job: Job, response: Response) {
    shared.served.fetch_add(1, Ordering::SeqCst);
    (job.reply)(response);
}

/// Answer every job of one dequeue — a coalesced flush, a lone job, or a
/// carried one. Returns `Some(WorkerExit)` when the worker thread must
/// exit (contained panic); `None` to keep looping.
///
/// Drain and deadline checks run per job first and answer without
/// touching the engine (drain overrides deadline). The compute phase then
/// answers every remaining job against one epoch view, each after its
/// own `worker.compute` failpoint hit:
///
/// * `ecc`, `radius` and `diameter` perform exactly one cache lookup per
///   request under their own key — a hit replies immediately and is
///   never recomputed. `ecc` misses share one
///   [`QueryEngine::eccentricity_batch`] call; duplicate sources are
///   computed redundantly but bitwise equally, and each still inserts and
///   answers under its own key. `radius` / `diameter` misses share one
///   [`radius_diameter_sweep`], which caches both extremes.
/// * Every other request is answered in the same loop by [`execute`] and
///   replied to once the flush has released its view.
///
/// A panic (engine bug or armed `worker.compute` failpoint) answers every
/// not-yet-answered job of the flush with an `internal` error, then exits
/// the worker for the supervisor to respawn. Every job gets exactly one
/// reply and one `served` increment on every path.
fn process(shared: &Shared, jobs: Vec<Job>) -> Option<WorkerExit> {
    let started = Instant::now();
    let drain_deadline = shared.drain_deadline.lock().ok().and_then(|g| *g);
    let mut slots: Vec<Option<Job>> = jobs.into_iter().map(Some).collect();
    let take = |slot: &mut Option<Job>| slot.take().expect("slot still owned");
    for slot in slots.iter_mut() {
        let job = slot.as_ref().expect("slot still owned");
        let queue_micros = started.duration_since(job.enqueued).as_micros() as u64;
        let (id, op) = (job.env.id, job.env.request.op_name());
        let response = if drain_deadline.is_some_and(|deadline| started > deadline) {
            shared.dropped_on_drain.fetch_add(1, Ordering::SeqCst);
            let message =
                format!("dropped: still queued {queue_micros}us past the drain deadline");
            Response::error(id, op, ErrorKind::Draining, message)
        } else if job.deadline.is_some_and(|d| started > d) {
            let message = format!("deadline expired after {queue_micros}us in queue");
            Response::error(id, op, ErrorKind::DeadlineExceeded, message)
        } else {
            continue;
        };
        answer(shared, take(slot), response);
    }
    let finish = |job: Job, outcome: Outcome, cached: bool| {
        let tier = (!matches!(outcome, Outcome::Error { .. })).then_some(TIER);
        let response = Response {
            id: job.env.id,
            op: job.env.request.op_name(),
            outcome,
            tier,
            cached,
            compute_micros: started.elapsed().as_micros() as u64,
            queue_micros: started.duration_since(job.enqueued).as_micros() as u64,
        };
        answer(shared, job, response);
    };
    // Answers from `execute`, replied only once the flush's epoch view is
    // released: after a mutation that view is the epoch it replaced, and
    // a reply sent first lets the next write build a third engine while
    // the replaced one is still alive.
    let mut executed = Vec::new();
    // Containment boundary: a panic below this line costs the flush's
    // unanswered requests (answered with `internal`) and this one worker
    // thread (respawned by the supervisor) — never the pool.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let view = shared.live.view();
        let fp = view.fingerprint;
        let n = view.engine.graph().node_count();
        let ecc = |a: CachedAnswer| Outcome::Ecc { value: a.value, node: a.node };
        // Per job: the failpoint, then the one cache lookup each
        // eccentricity-family request is entitled to (misses queue for the
        // shared calls below), or the whole answer for any other request.
        let mut ecc_misses: Vec<(usize, usize)> = Vec::new(); // (slot, v)
        let mut sweep_misses: Vec<usize> = Vec::new(); // slot (radius/diameter)
        for (idx, slot) in slots.iter_mut().enumerate() {
            let Some(job) = slot.as_ref() else { continue };
            let request = job.env.request;
            if let Err(message) = failpoint::hit("worker.compute") {
                let error = Outcome::Error { kind: ErrorKind::Internal, message };
                finish(take(slot), error, false);
                continue;
            }
            match request {
                Request::Ecc { v } if v >= n => {
                    let message = format!("v = {v} out of range (graph has {n} nodes)");
                    let error = Outcome::Error { kind: ErrorKind::BadRequest, message };
                    finish(take(slot), error, false);
                }
                Request::Ecc { v } => match shared.cache.get(&CacheKey::Ecc(fp, v)) {
                    Some(cached) => finish(take(slot), ecc(cached), true),
                    None => ecc_misses.push((idx, v)),
                },
                Request::Radius | Request::Diameter => {
                    let key = match request {
                        Request::Radius => CacheKey::Radius(fp),
                        _ => CacheKey::Diameter(fp),
                    };
                    match shared.cache.get(&key) {
                        Some(cached) => finish(take(slot), ecc(cached), true),
                        None => sweep_misses.push(idx),
                    }
                }
                _ => {
                    let answered = execute(shared, &view, request);
                    executed.push((take(slot), answered));
                }
            }
        }
        // One kernel call answers every `ecc` miss, one sweep every
        // `radius` / `diameter` miss.
        if !ecc_misses.is_empty() {
            let sources: Vec<usize> = ecc_misses.iter().map(|&(_, v)| v).collect();
            let answers = view.engine.eccentricity_batch(&sources);
            for (&(idx, v), ans) in ecc_misses.iter().zip(answers) {
                let cached = CachedAnswer { value: ans.value, node: ans.farthest };
                shared.cache.insert(CacheKey::Ecc(fp, v), cached);
                finish(take(&mut slots[idx]), ecc(cached), false);
            }
        }
        if !sweep_misses.is_empty() {
            let (min, max) = radius_diameter_sweep(shared, &view);
            for idx in sweep_misses {
                let job = take(&mut slots[idx]);
                let chosen = if matches!(job.env.request, Request::Radius) { min } else { max };
                finish(job, ecc(chosen), false);
            }
        }
    }));
    for (job, (outcome, cached)) in executed {
        finish(job, outcome, cached);
    }
    let Err(payload) = outcome else { return None };
    shared.panics.fetch_add(1, Ordering::SeqCst);
    let detail = panic_message(payload.as_ref());
    for job in slots.into_iter().flatten() {
        let message = format!(
            "worker panicked while serving this request: {detail}; \
             the worker was respawned and the pool keeps serving"
        );
        let (id, op) = (job.env.id, job.env.request.op_name());
        answer(shared, job, Response::error(id, op, ErrorKind::Internal, message));
    }
    // Exit so the half-unwound thread is discarded; the supervisor
    // spawns a clean replacement.
    Some(WorkerExit::Panicked)
}

/// Best-effort extraction of a `panic!` payload message (the pool's, the
/// job runner's and the re-sketch thread's panic reports).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Radius (min eccentricity) and diameter (max) from one
/// [`QueryEngine::eccentricity_batch`] call over every node, folded in
/// index order with strict `<` / `>` so each extreme keeps its lowest
/// node; both are inserted into the cache so the sibling query is a hit.
fn radius_diameter_sweep(shared: &Shared, view: &EpochView) -> (CachedAnswer, CachedAnswer) {
    let sources: Vec<usize> = (0..view.engine.graph().node_count()).collect();
    let mut min = CachedAnswer { value: f64::INFINITY, node: 0 };
    let mut max = CachedAnswer { value: f64::NEG_INFINITY, node: 0 };
    for (v, ans) in view.engine.eccentricity_batch(&sources).into_iter().enumerate() {
        if ans.value < min.value {
            min = CachedAnswer { value: ans.value, node: v };
        }
        if ans.value > max.value {
            max = CachedAnswer { value: ans.value, node: v };
        }
    }
    shared.cache.insert(CacheKey::Radius(view.fingerprint), min);
    shared.cache.insert(CacheKey::Diameter(view.fingerprint), max);
    (min, max)
}

/// Answer one request other than `ecc` / `radius` / `diameter` (which
/// [`process`] answers itself) against `view`, consulting the cache
/// first where the answer is cacheable.
///
/// The whole request answers against the one view its flush fetched,
/// even if mutations land concurrently. Cache keys carry the view's
/// fingerprint, so a mutation implicitly invalidates every cached answer
/// (old-epoch entries age out of the LRU). Returns the outcome and
/// whether it was cached.
fn execute(shared: &Shared, view: &EpochView, request: Request) -> (Outcome, bool) {
    let n = view.engine.graph().node_count();
    let fp = view.fingerprint;
    let bad =
        |message: String| (Outcome::Error { kind: ErrorKind::BadRequest, message }, false);
    let check = |node: usize, name: &str| -> Option<String> {
        (node >= n).then(|| format!("{name} = {node} out of range (graph has {n} nodes)"))
    };
    match request {
        Request::Ecc { .. } | Request::Radius | Request::Diameter => {
            unreachable!("process answers the eccentricity family itself")
        }
        Request::Res { u, v } => {
            if let Some(msg) = check(u, "u").or_else(|| check(v, "v")) {
                return bad(msg);
            }
            let (a, b) = if u <= v { (u, v) } else { (v, u) };
            let key = CacheKey::Res(fp, a, b);
            if let Some(hit) = shared.cache.get(&key) {
                return (Outcome::Scalar { value: hit.value }, true);
            }
            let value = view.engine.resistance(a, b);
            shared.cache.insert(key, CachedAnswer { value, node: 0 });
            (Outcome::Scalar { value }, false)
        }
        Request::WhatIfEdge { s, u, v } | Request::WhatIfRemoveEdge { s, u, v } => {
            let remove = matches!(request, Request::WhatIfRemoveEdge { .. });
            if let Some(msg) = check(s, "s").or_else(|| check(u, "u")).or_else(|| check(v, "v"))
            {
                return bad(msg);
            }
            if u == v {
                let op = request.op_name();
                return bad(format!("{op} needs two distinct endpoints, got {u} twice"));
            }
            let (a, b) = if u <= v { (u, v) } else { (v, u) };
            if remove && !view.engine.graph().has_edge(a, b) {
                return bad(format!("edge {{{a}, {b}}} is not in the graph"));
            }
            let key = if remove {
                CacheKey::WhatIfRemove(fp, s, a, b)
            } else {
                CacheKey::WhatIf(fp, s, a, b)
            };
            if let Some(hit) = shared.cache.get(&key) {
                return (Outcome::Ecc { value: hit.value, node: hit.node }, true);
            }
            // Warm path: reuse the pool-held solve scratch instead of
            // allocating a CG workspace per request. A poisoned lock just
            // means a panicked worker died mid-solve; resetting the
            // scratch makes it usable again.
            let started = Instant::now();
            let ans = {
                let mut scratch = shared.whatif.lock().unwrap_or_else(|poison| {
                    let mut guard = poison.into_inner();
                    guard.reset();
                    guard
                });
                let edge = Edge::new(a, b);
                if remove {
                    view.engine.eccentricity_after_removal_with(&mut scratch, s, edge)
                } else {
                    Ok(view.engine.eccentricity_after_edge_with(&mut scratch, s, edge))
                }
            };
            let micros = started.elapsed().as_micros() as u64;
            shared.whatif_served.fetch_add(1, Ordering::Relaxed);
            shared.whatif_micros.fetch_add(micros, Ordering::Relaxed);
            match ans {
                Ok(ans) => {
                    let cached = CachedAnswer { value: ans.value, node: ans.farthest };
                    shared.cache.insert(key, cached);
                    (Outcome::Ecc { value: cached.value, node: cached.node }, false)
                }
                // A bridge is a structural property of the request, not
                // an engine failure: the client asked to disconnect the
                // graph.
                Err(e @ CoreError::DisconnectingRemoval { .. }) => bad(e.to_string()),
                Err(e) => (
                    Outcome::Error { kind: ErrorKind::Internal, message: e.to_string() },
                    false,
                ),
            }
        }
        Request::AddEdge { u, v } | Request::RemoveEdge { u, v } => {
            if let Some(msg) = check(u, "u").or_else(|| check(v, "v")) {
                return bad(msg);
            }
            let op = match request {
                Request::AddEdge { .. } => WalOp::AddEdge,
                _ => WalOp::RemoveEdge,
            };
            match shared.live.apply_mutation(op, u, v) {
                Ok(receipt) => (
                    Outcome::Mutated {
                        r_uv: receipt.r_uv,
                        cost: receipt.cost,
                        budget_remaining: receipt.budget_remaining,
                        epoch: receipt.epoch,
                        seq: receipt.seq,
                        resketch: receipt.resketch_kicked,
                    },
                    false,
                ),
                Err(LiveError::Rejected(e)) => bad(e.to_string()),
                Err(e) => (
                    Outcome::Error { kind: ErrorKind::Internal, message: e.to_string() },
                    false,
                ),
            }
        }
        Request::Epoch => (
            Outcome::EpochInfo {
                epoch: shared.live.epoch(),
                mutations_in_epoch: shared.live.mutations_in_epoch(),
                budget_total: shared.live.budget_total(),
                budget_remaining: shared.live.budget_remaining(),
                resketch_running: shared.live.resketch_running(),
            },
            false,
        ),
        Request::OptimizeSubmit { .. }
        | Request::OptimizeStatus { .. }
        | Request::OptimizeCancel { .. }
        | Request::OptimizeEvents { .. }
        | Request::OptimizeResult { .. } => {
            bad("optimize-* ops are job control, not pool work; submit them through \
             ServePool::run"
                .to_string())
        }
        Request::Stats => {
            let cache = shared.cache.stats();
            let sketch = view.engine.sketch();
            let diag = sketch.diagnostics();
            let jobs = shared.jobs.get().map(|r| r.stats()).unwrap_or_default();
            let transport = shared.transport.get().map(|t| t.snapshot()).unwrap_or_default();
            (
                Outcome::Stats(Box::new(StatsReport {
                    nodes: n,
                    edges: view.engine.graph().edge_count(),
                    fingerprint: fp,
                    epsilon: sketch.epsilon(),
                    dimension: sketch.dimension(),
                    hull_size: view.engine.hull_size(),
                    degraded_rows: diag.unconverged.len() + diag.dropped.len(),
                    threads: shared.threads,
                    queue_depth: shared.queue_depth,
                    served: shared.served.load(Ordering::Relaxed),
                    panics_total: shared.panics.load(Ordering::Relaxed),
                    workers_respawned: shared.respawned.load(Ordering::Relaxed),
                    dropped_on_drain: shared.dropped_on_drain.load(Ordering::Relaxed),
                    snapshot_retries: shared.snapshot_retries,
                    whatif_served: shared.whatif_served.load(Ordering::Relaxed),
                    whatif_micros_total: shared.whatif_micros.load(Ordering::Relaxed),
                    batched_requests: shared.batched_requests.load(Ordering::Relaxed),
                    batch_flushes: shared.batch_flushes.load(Ordering::Relaxed),
                    batch_occupancy_sum: shared.batch_occupancy_sum.load(Ordering::Relaxed),
                    cache_hits: cache.hits,
                    cache_misses: cache.misses,
                    cache_evictions: cache.evictions,
                    cache_entries: cache.entries,
                    epoch: shared.live.epoch(),
                    mutations_applied: shared.live.mutations_applied(),
                    error_budget_remaining: shared.live.budget_remaining(),
                    resketches_total: shared.live.resketches_total(),
                    wal_bytes: shared.live.wal_bytes(),
                    wal_replayed_on_start: shared.live.wal_replayed_on_start(),
                    jobs_submitted: jobs.submitted,
                    jobs_running: jobs.running,
                    jobs_completed: jobs.completed,
                    jobs_cancelled: jobs.cancelled,
                    jobs_failed: jobs.failed,
                    job_checkpoint_bytes: jobs.checkpoint_bytes,
                    connections_accepted: transport.connections_accepted,
                    connections_active: transport.connections_active,
                    connections_shed: transport.connections_shed,
                    connections_timed_out: transport.connections_timed_out,
                    bytes_read: transport.bytes_read,
                    bytes_written: transport.bytes_written,
                    write_buffer_sheds: transport.write_buffer_sheds,
                })),
                false,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reecc_core::SketchParams;
    use reecc_graph::generators::barabasi_albert;

    fn pool(threads: usize, queue_depth: usize) -> ServePool {
        let g = barabasi_albert(40, 2, 9);
        let engine = QueryEngine::build(
            &g,
            &SketchParams { epsilon: 0.5, seed: 3, ..Default::default() },
        )
        .unwrap();
        ServePool::new(
            Arc::new(engine),
            PoolConfig { threads, queue_depth, ..Default::default() },
        )
    }

    fn env(request: Request) -> RequestEnvelope {
        RequestEnvelope { id: None, deadline_ms: None, request }
    }

    #[test]
    fn answers_each_op_and_caches_repeats() {
        let p = pool(2, 16);
        let first = p.run(env(Request::Ecc { v: 5 }));
        assert!(first.is_ok(), "{first:?}");
        assert!(!first.cached);
        assert_eq!(first.tier, Some("approx"));
        let again = p.run(env(Request::Ecc { v: 5 }));
        assert!(again.cached, "{again:?}");
        assert_eq!(again.outcome, first.outcome);

        let res = p.run(env(Request::Res { u: 0, v: 7 }));
        let res_flipped = p.run(env(Request::Res { u: 7, v: 0 }));
        assert!(res_flipped.cached, "endpoint order must normalize: {res_flipped:?}");
        assert_eq!(res.outcome, res_flipped.outcome);

        let radius = p.run(env(Request::Radius));
        let diameter = p.run(env(Request::Diameter));
        assert!(diameter.cached, "radius sweep must have cached the diameter");
        match (&radius.outcome, &diameter.outcome) {
            (Outcome::Ecc { value: r, .. }, Outcome::Ecc { value: d, .. }) => {
                assert!(r <= d, "radius {r} must not exceed diameter {d}");
            }
            other => panic!("{other:?}"),
        }

        let whatif = p.run(env(Request::WhatIfEdge { s: 5, u: 0, v: 39 }));
        assert!(whatif.is_ok(), "{whatif:?}");
        let whatif_again = p.run(env(Request::WhatIfEdge { s: 5, u: 39, v: 0 }));
        assert!(whatif_again.cached, "endpoint order must normalize: {whatif_again:?}");
        assert_eq!(whatif_again.outcome, whatif.outcome);

        let stats = p.run(env(Request::Stats));
        match stats.outcome {
            Outcome::Stats(s) => {
                assert_eq!(s.nodes, 40);
                assert_eq!(s.threads, 2);
                assert!(s.cache_hits >= 3, "{s:?}");
                assert!(s.served >= 6);
                assert_eq!(s.panics_total, 0);
                assert_eq!(s.workers_respawned, 0);
                assert_eq!(s.dropped_on_drain, 0);
                // One cache miss hit the warm scratch path; the cached
                // repeat must not re-count.
                assert_eq!(s.whatif_served, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mutations_apply_through_the_pool_and_invalidate_answers() {
        let p = pool(2, 16);
        let before = p.run(env(Request::Ecc { v: 0 }));
        assert_eq!(before.tier, Some("approx"));
        let fp_before = p.graph_fingerprint();
        let mutated = p.run(env(Request::AddEdge { u: 0, v: 39 }));
        match mutated.outcome {
            Outcome::Mutated { r_uv, cost, seq, .. } => {
                assert!(r_uv > 0.0 && cost > 0.0);
                assert_eq!(seq, 0);
            }
            other => panic!("{other:?}"),
        }
        assert_ne!(p.graph_fingerprint(), fp_before, "mutation must re-key the cache");
        // The same query now recomputes against the mutated view.
        let after = p.run(env(Request::Ecc { v: 0 }));
        assert!(!after.cached, "old-fingerprint cache entry must not answer");
        assert_eq!(after.tier, Some("approx"));
        // Duplicate add is a bad request, not an internal error.
        let dup = p.run(env(Request::AddEdge { u: 39, v: 0 }));
        match dup.outcome {
            Outcome::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
            other => panic!("{other:?}"),
        }
        // So is removing an edge that is not there.
        let view = p.live().view();
        let g = view.engine.graph();
        let (a, b) = (0..g.node_count())
            .flat_map(|a| ((a + 1)..g.node_count()).map(move |b| (a, b)))
            .find(|&(a, b)| !g.has_edge(a, b))
            .expect("a sparse graph has absent pairs");
        let missing = p.run(env(Request::RemoveEdge { u: a, v: b }));
        match missing.outcome {
            Outcome::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
            other => panic!("{other:?}"),
        }
        let epoch = p.run(env(Request::Epoch));
        match epoch.outcome {
            Outcome::EpochInfo { epoch, mutations_in_epoch, .. } => {
                assert_eq!(epoch, 0);
                assert_eq!(mutations_in_epoch, 1);
            }
            other => panic!("{other:?}"),
        }
        let stats = p.run(env(Request::Stats));
        match stats.outcome {
            Outcome::Stats(s) => {
                assert_eq!(s.mutations_applied, 1);
                assert_eq!(s.epoch, 0);
                assert_eq!(s.wal_bytes, 0, "ephemeral pool has no WAL");
                assert_eq!(s.wal_replayed_on_start, 0);
                assert_eq!(s.resketches_total, 0);
                assert!(s.error_budget_remaining >= 0.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalid_arguments_are_bad_requests_not_panics() {
        let p = pool(1, 8);
        for request in [
            Request::Ecc { v: 400 },
            Request::Res { u: 0, v: 400 },
            Request::WhatIfEdge { s: 400, u: 0, v: 1 },
            Request::WhatIfEdge { s: 0, u: 3, v: 3 },
            Request::AddEdge { u: 0, v: 400 },
            Request::RemoveEdge { u: 400, v: 0 },
            Request::AddEdge { u: 3, v: 3 },
        ] {
            let resp = p.run(env(request));
            match resp.outcome {
                Outcome::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
                other => panic!("{request:?} -> {other:?}"),
            }
        }
    }

    #[test]
    fn full_queue_rejects_with_overloaded_instead_of_blocking() {
        let p = pool(1, 1);
        // Occupy the single worker with a full radius sweep, then flood.
        let busy = p.submit(env(Request::Radius)).unwrap();
        let mut outcomes = Vec::new();
        for v in 0..12 {
            outcomes.push(p.submit(env(Request::Ecc { v })));
        }
        let overloaded = outcomes
            .iter()
            .filter(|r| matches!(r, Err(SubmitError::Overloaded { .. })))
            .count();
        assert!(overloaded >= 1, "flooding a depth-1 queue must overload: {outcomes:?}");
        // Accepted requests still complete.
        for rx in outcomes.into_iter().flatten() {
            assert!(rx.recv().unwrap().is_ok());
        }
        assert!(busy.recv().unwrap().is_ok());
    }

    #[test]
    fn expired_deadline_is_reported_not_computed() {
        let p = pool(1, 4);
        // Keep the worker busy so the dated request waits in queue past
        // its 0 ms deadline.
        let busy = p.submit(env(Request::Radius)).unwrap();
        let dated = p
            .submit(RequestEnvelope {
                id: Some(7),
                deadline_ms: Some(0),
                request: Request::Ecc { v: 1 },
            })
            .unwrap();
        let resp = dated.recv().unwrap();
        match resp.outcome {
            Outcome::Error { kind, .. } => {
                assert_eq!(kind, ErrorKind::DeadlineExceeded);
                assert_eq!(resp.id, Some(7));
            }
            other => panic!("{other:?}"),
        }
        assert!(busy.recv().unwrap().is_ok());
    }

    #[test]
    fn concurrent_submitters_all_get_answers() {
        let p = Arc::new(pool(4, 64));
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    let mut ok = 0;
                    for i in 0..20 {
                        let resp = p.run(env(Request::Ecc { v: (t * 10 + i) % 40 }));
                        if resp.is_ok() {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 80, "large queue + run() must answer everything");
        assert_eq!(p.served(), 80);
    }

    fn pool_of(g: &reecc_graph::Graph, threads: usize) -> ServePool {
        let engine = QueryEngine::build(
            g,
            &SketchParams { epsilon: 0.5, seed: 3, ..Default::default() },
        )
        .unwrap();
        ServePool::new(
            Arc::new(engine),
            PoolConfig { threads, queue_depth: 16, ..Default::default() },
        )
    }

    fn jobs_pool(g: &reecc_graph::Graph) -> ServePool {
        let engine = QueryEngine::build(
            g,
            &SketchParams { epsilon: 0.5, seed: 3, ..Default::default() },
        )
        .unwrap();
        ServePool::with_live_and_jobs(
            LiveEngine::ephemeral(Arc::new(engine), None),
            PoolConfig { threads: 1, queue_depth: 16, ..Default::default() },
            Some(crate::jobs::JobsConfig { max_jobs: 1, queue_depth: 4, job_dir: None }),
        )
        .unwrap()
    }

    fn job_spec(k: usize) -> crate::jobs::JobSpec {
        crate::jobs::JobSpec {
            optimizer: crate::jobs::OptimizerKind::Simple,
            source: 1,
            k,
            eps: 0.4,
            threads: 1,
            block_size: 0,
            lazy: false,
            remd: true,
            seed: 7,
        }
    }

    #[test]
    fn coalesced_flush_answers_bitwise_and_counts_once() {
        // Deterministically force coalescing: a single worker is parked
        // inside the *reply* closure of job 1 (replies run on the worker
        // thread), the queue fills behind it, and releasing the gate makes
        // the next drain pull everything in one flush.
        let g = barabasi_albert(40, 2, 9);
        let engine = Arc::new(
            QueryEngine::build(
                &g,
                &SketchParams { epsilon: 0.5, seed: 3, ..Default::default() },
            )
            .unwrap(),
        );
        let p = ServePool::new(
            Arc::clone(&engine),
            PoolConfig { threads: 1, queue_depth: 16, ..Default::default() },
        );
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (first_tx, first_rx) = mpsc::channel::<Response>();
        p.submit_with(
            env(Request::Ecc { v: 0 }),
            Box::new(move |resp| {
                gate_rx.recv().expect("gate sender lives");
                let _ = first_tx.send(resp);
            }),
        )
        .unwrap();
        // The worker increments `served` before calling the reply, so
        // served == 1 means it is parked (or about to park) in the gate.
        while p.served() < 1 {
            std::thread::yield_now();
        }
        // Duplicates included: both must miss the cold cache, share the
        // flush, and neither may be double-counted as a hit.
        let queued: Vec<usize> = vec![1, 2, 1, 3, 7];
        let rxs: Vec<_> =
            queued.iter().map(|&v| p.submit(env(Request::Ecc { v })).unwrap()).collect();
        gate_tx.send(()).unwrap();
        assert!(first_rx.recv().unwrap().is_ok());
        for (&v, rx) in queued.iter().zip(rxs) {
            let resp = rx.recv().unwrap();
            assert!(!resp.cached, "cold keys must be computed, not hit: {resp:?}");
            let want = engine.eccentricity(v);
            match resp.outcome {
                Outcome::Ecc { value, node } => {
                    assert_eq!((value, node), (want.value, want.farthest), "v={v}");
                }
                other => panic!("{other:?}"),
            }
        }
        // Warm repeats are cache hits even for the duplicated source.
        let again = p.run(env(Request::Ecc { v: 1 }));
        assert!(again.cached, "{again:?}");
        let stats = p.run(env(Request::Stats));
        match stats.outcome {
            Outcome::Stats(s) => {
                // One flush of 5 coalesced requests; the warm-up and
                // repeat queries drained solo (occupancy 1 each).
                assert_eq!(s.batched_requests, 5, "{s:?}");
                assert_eq!(s.batch_flushes, 3, "{s:?}");
                assert_eq!(s.batch_occupancy_sum, 7, "{s:?}");
                // Exactly one cache lookup per eccentricity request —
                // hits + misses must equal the 7 ecc requests served.
                // The duplicated v=1 missed *twice* (the flush's lookups
                // all precede its one insert), so coalescing never
                // mistakes a shared computation for a cache hit; the
                // only hit is the deliberate warm repeat.
                assert_eq!(s.cache_hits, 1, "{s:?}");
                assert_eq!(s.cache_misses, 6, "{s:?}");
            }
            other => panic!("{other:?}"),
        }
        let report = p.drain(Duration::from_secs(5));
        assert_eq!(report.submitted, report.answered, "{report:?}");
    }

    #[test]
    fn whatif_remove_edge_answers_caches_and_rejects_bridges() {
        use reecc_graph::generators::{cycle, line};
        let p = pool_of(&cycle(12), 2);
        let first = p.run(env(Request::WhatIfRemoveEdge { s: 6, u: 0, v: 1 }));
        assert!(first.is_ok(), "{first:?}");
        assert!(!first.cached);
        let flipped = p.run(env(Request::WhatIfRemoveEdge { s: 6, u: 1, v: 0 }));
        assert!(flipped.cached, "endpoint order must normalize: {flipped:?}");
        assert_eq!(flipped.outcome, first.outcome);
        // Removal can only increase the source's eccentricity.
        let base = p.run(env(Request::Ecc { v: 6 }));
        match (&base.outcome, &first.outcome) {
            (Outcome::Ecc { value: b, .. }, Outcome::Ecc { value: r, .. }) => {
                assert!(r >= b, "removal must not shrink eccentricity: {r} < {b}");
            }
            other => panic!("{other:?}"),
        }
        // A non-edge is a bad request, not a solve.
        let missing = p.run(env(Request::WhatIfRemoveEdge { s: 0, u: 0, v: 5 }));
        match missing.outcome {
            Outcome::Error { kind, ref message } => {
                assert_eq!(kind, ErrorKind::BadRequest);
                assert!(message.contains("not in the graph"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        // A bridge is a typed rejection: the graph must stay connected.
        let p = pool_of(&line(8), 1);
        let bridge = p.run(env(Request::WhatIfRemoveEdge { s: 0, u: 3, v: 4 }));
        match bridge.outcome {
            Outcome::Error { kind, ref message } => {
                assert_eq!(kind, ErrorKind::BadRequest);
                assert!(message.contains("disconnect"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn job_ops_flow_through_the_pool_without_touching_the_queue() {
        let g = barabasi_albert(30, 2, 17);
        let p = jobs_pool(&g);
        let submitted = p.run(env(Request::OptimizeSubmit { spec: job_spec(2) }));
        let job = match submitted.outcome {
            Outcome::Job { job, state, .. } => {
                assert_eq!(state, "queued");
                job
            }
            other => panic!("{other:?}"),
        };
        let result = p.run(env(Request::OptimizeResult { job, wait: true }));
        match result.outcome {
            Outcome::JobResult { state, ref plan, .. } => {
                assert_eq!(state, "completed");
                assert_eq!(plan.len(), 2, "{plan:?}");
            }
            other => panic!("{other:?}"),
        }
        let status = p.run(env(Request::OptimizeStatus { job }));
        match status.outcome {
            Outcome::Job { state, iterations, k, .. } => {
                assert_eq!(state, "completed");
                assert_eq!((iterations, k), (2, 2));
            }
            other => panic!("{other:?}"),
        }
        // The job ops never entered the bounded worker queue.
        assert_eq!(p.shared.submitted.load(Ordering::Relaxed), 0);
        for unknown in [
            Request::OptimizeStatus { job: 999 },
            Request::OptimizeCancel { job: 999 },
            Request::OptimizeResult { job: 999, wait: false },
        ] {
            let resp = p.run(env(unknown));
            match resp.outcome {
                Outcome::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
                other => panic!("{other:?}"),
            }
        }
        let stats = p.run(env(Request::Stats));
        match stats.outcome {
            Outcome::Stats(s) => {
                assert_eq!(s.jobs_submitted, 1);
                assert_eq!(s.jobs_completed, 1);
                assert_eq!(s.jobs_running, 0);
                assert_eq!(s.jobs_failed, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn job_ops_without_a_runner_are_bad_requests() {
        let p = pool(1, 8);
        let resp = p.run(env(Request::OptimizeSubmit { spec: job_spec(1) }));
        match resp.outcome {
            Outcome::Error { kind, ref message } => {
                assert_eq!(kind, ErrorKind::BadRequest);
                assert!(message.contains("disabled"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        let stats = p.run(env(Request::Stats));
        match stats.outcome {
            Outcome::Stats(s) => assert_eq!(s.jobs_submitted, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drain_shuts_the_job_runner_down_with_the_pool() {
        let g = barabasi_albert(30, 2, 17);
        let p = jobs_pool(&g);
        let report = p.drain(Duration::from_secs(5));
        assert_eq!(report.dropped, 0);
        // After drain the runner refuses new jobs.
        let resp = p.jobs().unwrap().submit(job_spec(1));
        assert!(
            matches!(resp, Err(crate::jobs::JobSubmitError::Invalid(ref m)) if m.contains("shut down")),
            "{resp:?}"
        );
    }

    #[test]
    fn drain_of_an_idle_pool_is_clean_and_idempotent() {
        let p = pool(2, 8);
        assert!(p.run(env(Request::Ecc { v: 1 })).is_ok());
        let report = p.drain(Duration::from_secs(5));
        assert_eq!(report.submitted, 1);
        assert_eq!(report.answered, 1);
        assert_eq!(report.dropped, 0);
        // After drain, submissions are refused as draining.
        let resp = p.run(env(Request::Ecc { v: 2 }));
        match resp.outcome {
            Outcome::Error { kind, .. } => assert_eq!(kind, ErrorKind::Draining),
            other => panic!("{other:?}"),
        }
        let again = p.drain(Duration::from_secs(5));
        assert_eq!((again.submitted, again.answered, again.dropped), (1, 1, 0));
    }
}
