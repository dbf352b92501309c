//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, e.g. `{"op":"ecc","v":17}`. Supported ops:
//!
//! | op            | fields            | answer                          |
//! |---------------|-------------------|---------------------------------|
//! | `ecc`         | `v`               | eccentricity of `v` + farthest  |
//! | `res`         | `u`, `v`          | resistance distance `r(u, v)`   |
//! | `radius`      | —                 | min eccentricity + center node  |
//! | `diameter`    | —                 | max eccentricity + node         |
//! | `whatif-edge` | `s`, `u`, `v`     | ecc of `s` after adding `{u,v}` |
//! | `whatif-remove-edge` | `s`, `u`, `v` | ecc of `s` after deleting `{u,v}` |
//! | `add-edge`    | `u`, `v`          | mutate: insert edge, rank-1     |
//! | `remove-edge` | `u`, `v`          | mutate: delete edge, rank-1     |
//! | `epoch`       | —                 | epoch number + budget state     |
//! | `stats`       | —                 | engine / pool / cache counters  |
//! | `optimize-submit` | `optimizer`, `s`, `k` + knobs | background job id |
//! | `optimize-status` | `job`         | job state + progress counters   |
//! | `optimize-cancel` | `job`         | cooperative cancellation        |
//! | `optimize-events` | `job` (+ `since`, `follow`) | per-iteration NDJSON events |
//! | `optimize-result` | `job` (+ `wait`) | final plan + run telemetry   |
//!
//! The two mutation ops are durably logged (WAL append + fsync) before
//! the ack; their answers carry the edge's effective resistance, the
//! error-budget charge, and the sequence number the write-ahead log
//! assigned.
//!
//! Every request may carry an optional `id` (echoed back verbatim, for
//! pipelined clients) and `deadline_ms` (per-request deadline; the pool
//! drops requests still queued when it expires). Every successful
//! response computed by the pool carries `"tier":"approx"` (every
//! eccentricity is APPROXQUERY's maximum over all nodes) plus compute
//! and queue times in microseconds.

use crate::jobs::JobSpec;
use crate::json::Json;

/// A single query operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// Eccentricity of one node.
    Ecc {
        /// Query node.
        v: usize,
    },
    /// Pairwise resistance distance.
    Res {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
    /// Minimum eccentricity over all nodes (and a node realizing it).
    Radius,
    /// Maximum eccentricity over all nodes (and a node realizing it).
    Diameter,
    /// Eccentricity of `s` after hypothetically adding edge `{u, v}`.
    WhatIfEdge {
        /// Node whose eccentricity is re-estimated.
        s: usize,
        /// First endpoint of the hypothetical edge.
        u: usize,
        /// Second endpoint of the hypothetical edge.
        v: usize,
    },
    /// Durably insert edge `{u, v}` via a rank-1 sketch update.
    AddEdge {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
    /// Durably delete edge `{u, v}` via a rank-1 sketch downdate.
    RemoveEdge {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
    /// Eccentricity of `s` after hypothetically deleting edge `{u, v}`.
    WhatIfRemoveEdge {
        /// Node whose eccentricity is re-estimated.
        s: usize,
        /// First endpoint of the hypothetical removal.
        u: usize,
        /// Second endpoint of the hypothetical removal.
        v: usize,
    },
    /// Current epoch number, budget state, and re-sketch progress.
    Epoch,
    /// Engine, pool, and cache statistics.
    Stats,
    /// Submit a background optimization job.
    OptimizeSubmit {
        /// The job's full spec (optimizer, problem instance, knobs).
        spec: JobSpec,
    },
    /// State and progress of one job.
    OptimizeStatus {
        /// Job id from `optimize-submit`.
        job: u64,
    },
    /// Cooperatively cancel one job.
    OptimizeCancel {
        /// Job id from `optimize-submit`.
        job: u64,
    },
    /// Stream per-iteration progress events for one job.
    OptimizeEvents {
        /// Job id from `optimize-submit`.
        job: u64,
        /// First event index to return (skip already-seen ones).
        since: u64,
        /// Block until the job finishes, streaming events as they land.
        follow: bool,
    },
    /// Final plan of one job.
    OptimizeResult {
        /// Job id from `optimize-submit`.
        job: u64,
        /// Block until the job reaches a terminal state.
        wait: bool,
    },
}

impl Request {
    /// The protocol name of this operation.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Ecc { .. } => "ecc",
            Request::Res { .. } => "res",
            Request::Radius => "radius",
            Request::Diameter => "diameter",
            Request::WhatIfEdge { .. } => "whatif-edge",
            Request::WhatIfRemoveEdge { .. } => "whatif-remove-edge",
            Request::AddEdge { .. } => "add-edge",
            Request::RemoveEdge { .. } => "remove-edge",
            Request::Epoch => "epoch",
            Request::Stats => "stats",
            Request::OptimizeSubmit { .. } => "optimize-submit",
            Request::OptimizeStatus { .. } => "optimize-status",
            Request::OptimizeCancel { .. } => "optimize-cancel",
            Request::OptimizeEvents { .. } => "optimize-events",
            Request::OptimizeResult { .. } => "optimize-result",
        }
    }
}

/// A request plus its wire envelope (client id, deadline).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// Echoed back in the response when present.
    pub id: Option<u64>,
    /// Per-request deadline in milliseconds from submission.
    pub deadline_ms: Option<u64>,
    /// The operation itself.
    pub request: Request,
}

/// Parse one request line.
///
/// # Errors
///
/// A human-readable message suitable for a `parse` / `bad-request` error
/// response.
pub fn parse_request(line: &str) -> Result<RequestEnvelope, String> {
    let value = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    if !matches!(value, Json::Obj(_)) {
        return Err("request must be a JSON object".to_string());
    }
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a string \"op\" field".to_string())?;
    let field = |name: &str| -> Result<usize, String> {
        value
            .get(name)
            .ok_or_else(|| format!("op {op:?} needs field {name:?}"))?
            .as_usize()
            .ok_or_else(|| format!("field {name:?} must be a non-negative integer"))
    };
    let opt_usize = |name: &str, default: usize| -> Result<usize, String> {
        match value.get(name) {
            None => Ok(default),
            Some(v) => v
                .as_usize()
                .ok_or_else(|| format!("field {name:?} must be a non-negative integer")),
        }
    };
    let opt_bool = |name: &str, default: bool| -> Result<bool, String> {
        match value.get(name) {
            None => Ok(default),
            Some(v) => v.as_bool().ok_or_else(|| format!("field {name:?} must be a boolean")),
        }
    };
    let request = match op {
        "ecc" => Request::Ecc { v: field("v")? },
        "res" => Request::Res { u: field("u")?, v: field("v")? },
        "radius" => Request::Radius,
        "diameter" => Request::Diameter,
        "whatif-edge" => Request::WhatIfEdge { s: field("s")?, u: field("u")?, v: field("v")? },
        "whatif-remove-edge" => {
            Request::WhatIfRemoveEdge { s: field("s")?, u: field("u")?, v: field("v")? }
        }
        "add-edge" => Request::AddEdge { u: field("u")?, v: field("v")? },
        "remove-edge" => Request::RemoveEdge { u: field("u")?, v: field("v")? },
        "epoch" => Request::Epoch,
        "stats" => Request::Stats,
        "optimize-submit" => {
            let name = value
                .get("optimizer")
                .and_then(Json::as_str)
                .ok_or("op \"optimize-submit\" needs a string \"optimizer\" field")?;
            let optimizer = crate::jobs::OptimizerKind::parse(name).ok_or_else(|| {
                format!(
                    "unknown optimizer {name:?} (known: simple, farminrecc, cenminrecc, \
                     chminrecc, minrecc)"
                )
            })?;
            let eps = match value.get("eps") {
                None => 0.3,
                Some(v) => v.as_f64().ok_or("field \"eps\" must be a number")?,
            };
            Request::OptimizeSubmit {
                spec: JobSpec {
                    optimizer,
                    source: field("s")?,
                    k: field("k")?,
                    eps,
                    threads: opt_usize("threads", 0)?,
                    block_size: opt_usize("block_size", 0)?,
                    lazy: opt_bool("lazy", false)?,
                    remd: opt_bool("remd", true)?,
                    seed: opt_usize("seed", 0)? as u64,
                },
            }
        }
        "optimize-status" => Request::OptimizeStatus { job: field("job")? as u64 },
        "optimize-cancel" => Request::OptimizeCancel { job: field("job")? as u64 },
        "optimize-events" => Request::OptimizeEvents {
            job: field("job")? as u64,
            since: opt_usize("since", 0)? as u64,
            follow: opt_bool("follow", false)?,
        },
        "optimize-result" => Request::OptimizeResult {
            job: field("job")? as u64,
            wait: opt_bool("wait", false)?,
        },
        other => {
            return Err(format!(
                "unknown op {other:?} (known: ecc, res, radius, diameter, whatif-edge, \
                 whatif-remove-edge, add-edge, remove-edge, epoch, stats, optimize-submit, \
                 optimize-status, optimize-cancel, optimize-events, optimize-result)"
            ))
        }
    };
    let id = match value.get("id") {
        None => None,
        Some(v) => {
            Some(v.as_usize().map(|x| x as u64).ok_or("field \"id\" must be an integer")?)
        }
    };
    let deadline_ms = match value.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_usize().map(|x| x as u64).ok_or("field \"deadline_ms\" must be an integer")?,
        ),
    };
    Ok(RequestEnvelope { id, deadline_ms, request })
}

/// Machine-readable failure classes, mirrored on the wire as the
/// `"error"` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid protocol JSON.
    Parse,
    /// The request was well-formed but semantically invalid (node out of
    /// range, self-loop edge, …).
    BadRequest,
    /// The bounded queue was full — explicit backpressure, never blocking.
    Overloaded,
    /// The request's deadline expired before a worker picked it up.
    DeadlineExceeded,
    /// A worker failed internally (including a contained panic).
    Internal,
    /// The pool is draining: the request was refused at admission, or was
    /// still queued when the drain deadline passed.
    Draining,
}

impl ErrorKind {
    /// The wire name of this error class.
    pub fn wire_name(&self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline-exceeded",
            ErrorKind::Internal => "internal",
            ErrorKind::Draining => "draining",
        }
    }
}

/// Engine / pool / cache counters returned by the `stats` op.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Graph order `n`.
    pub nodes: usize,
    /// Graph size `m`.
    pub edges: usize,
    /// Representation-level graph fingerprint (hex on the wire).
    pub fingerprint: u64,
    /// Sketch `ε`.
    pub epsilon: f64,
    /// Sketch dimension `d` (after any row drops).
    pub dimension: usize,
    /// Hull boundary size `l`.
    pub hull_size: usize,
    /// Sketch rows still degraded after the repair ladder.
    pub degraded_rows: usize,
    /// Worker thread count.
    pub threads: usize,
    /// Bounded queue depth.
    pub queue_depth: usize,
    /// Requests answered so far (any outcome).
    pub served: u64,
    /// Worker panics contained by the supervision layer.
    pub panics_total: u64,
    /// Workers respawned after a contained panic.
    pub workers_respawned: u64,
    /// Requests answered with `draining` because they were still queued
    /// past a drain deadline.
    pub dropped_on_drain: u64,
    /// Transient-error retries needed to load the serving snapshot.
    pub snapshot_retries: u64,
    /// Cache-missing `whatif-edge` requests answered by the pool-held
    /// evaluator scratch (cache hits are not counted here).
    pub whatif_served: u64,
    /// Total wall time spent in those what-if solves, in microseconds
    /// (divide by `whatif_served` for the mean solve latency).
    pub whatif_micros_total: u64,
    /// Eccentricity-family requests answered through a coalesced flush
    /// of two or more (their misses shared one batch call).
    pub batched_requests: u64,
    /// Coalescing drain cycles: every dequeue of an eccentricity-family
    /// request, whatever it found behind it.
    pub batch_flushes: u64,
    /// Sum of flush occupancies; divide by `batch_flushes` for the
    /// average batch size the coalescer is achieving.
    pub batch_occupancy_sum: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache evictions.
    pub cache_evictions: u64,
    /// Entries currently cached.
    pub cache_entries: usize,
    /// Current serving epoch (bumped by each completed re-sketch).
    pub epoch: u64,
    /// Mutations applied over the engine's life (startup replay included).
    pub mutations_applied: u64,
    /// Error budget left in the current epoch.
    pub error_budget_remaining: f64,
    /// Background re-sketches completed.
    pub resketches_total: u64,
    /// Durable write-ahead log length in bytes (0 without `--wal-dir`).
    pub wal_bytes: u64,
    /// WAL records replayed when this process started.
    pub wal_replayed_on_start: u64,
    /// Optimization jobs accepted (all zeros when the job runner is
    /// disabled).
    pub jobs_submitted: u64,
    /// Jobs currently executing on a runner thread.
    pub jobs_running: u64,
    /// Jobs that ran their full budget.
    pub jobs_completed: u64,
    /// Jobs stopped by `optimize-cancel`.
    pub jobs_cancelled: u64,
    /// Jobs that failed (optimizer error, checkpoint i/o, contained
    /// panic).
    pub jobs_failed: u64,
    /// Bytes durably written to job checkpoint files.
    pub job_checkpoint_bytes: u64,
    /// Connections accepted by the TCP transport over its life (all
    /// transport counters are zeros in pipe mode).
    pub connections_accepted: u64,
    /// Connections currently live on the event loop.
    pub connections_active: u64,
    /// Connections shed by admission control (over the connection cap,
    /// or hard-closed under storm pressure).
    pub connections_shed: u64,
    /// Connections closed by a deadline: idle timeout or a write buffer
    /// that stalled past the write timeout.
    pub connections_timed_out: u64,
    /// Request bytes read off client sockets.
    pub bytes_read: u64,
    /// Response bytes written to client sockets.
    pub bytes_written: u64,
    /// Connections shed because their bounded write buffer overflowed
    /// (a client that stopped reading its responses).
    pub write_buffer_sheds: u64,
}

/// What a request produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// An eccentricity-style scalar answer with the realizing node.
    Ecc {
        /// The estimate.
        value: f64,
        /// The node realizing it (farthest node / center / periphery).
        node: usize,
    },
    /// A scalar answer with no associated node.
    Scalar {
        /// The estimate.
        value: f64,
    },
    /// Statistics (boxed: the report is by far the widest variant).
    Stats(Box<StatsReport>),
    /// A durably applied mutation (`add-edge` / `remove-edge`).
    Mutated {
        /// Effective resistance of the mutated edge at apply time.
        r_uv: f64,
        /// Error-budget charge for this mutation.
        cost: f64,
        /// Budget left in the epoch after the charge.
        budget_remaining: f64,
        /// Epoch the mutation was applied in.
        epoch: u64,
        /// Sequence number the write-ahead log assigned.
        seq: u64,
        /// Whether this mutation drained the budget and kicked off a
        /// background re-sketch.
        resketch: bool,
    },
    /// Answer to the `epoch` op.
    EpochInfo {
        /// Current serving epoch.
        epoch: u64,
        /// Mutations applied on top of this epoch's base.
        mutations_in_epoch: u64,
        /// Total per-epoch error budget.
        budget_total: f64,
        /// Budget left.
        budget_remaining: f64,
        /// Whether a background re-sketch is in flight.
        resketch_running: bool,
    },
    /// State of a background optimization job (`optimize-submit` /
    /// `optimize-status` / `optimize-cancel`).
    Job {
        /// Job id.
        job: u64,
        /// `"queued"` / `"running"` / `"completed"` / `"cancelled"` /
        /// `"failed"`.
        state: &'static str,
        /// Failure reason, or empty.
        detail: String,
        /// Iterations committed so far (replayed prefix included).
        iterations: u64,
        /// The job's edge budget.
        k: u64,
    },
    /// Final plan of a finished job (`optimize-result`).
    JobResult {
        /// Job id.
        job: u64,
        /// Terminal (or, without `wait`, current) state name.
        state: &'static str,
        /// Committed plan as `(u, v, score)` triples.
        plan: Vec<(usize, usize, f64)>,
        /// Wall time of the run in microseconds.
        wall_micros: u64,
        /// Whether a re-sketch epoch swap happened mid-job: the plan was
        /// computed against the pinned submit-time epoch.
        epoch_swapped: bool,
        /// Steps replayed from a checkpoint rather than freshly decided.
        resumed: u64,
        /// Failure reason, or empty.
        detail: String,
    },
    /// A failure.
    Error {
        /// Failure class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

impl Outcome {
    /// Shape a job report as a `Job` status outcome (`optimize-status`,
    /// `optimize-cancel`, the `optimize-submit` ack).
    pub fn job_status(report: &crate::jobs::JobReport) -> Outcome {
        Outcome::Job {
            job: report.job,
            state: report.state,
            detail: report.detail.clone(),
            iterations: report.iterations,
            k: report.k,
        }
    }

    /// Shape a job report as a `JobResult` outcome (`optimize-result`).
    pub fn job_result(report: &crate::jobs::JobReport) -> Outcome {
        Outcome::JobResult {
            job: report.job,
            state: report.state,
            plan: report.plan.clone(),
            wall_micros: report.wall_micros,
            epoch_swapped: report.epoch_swapped,
            resumed: report.resumed,
            detail: report.detail.clone(),
        }
    }

    /// The answer to any job-control op on a server started without a
    /// job runner.
    pub fn jobs_disabled() -> Outcome {
        Outcome::Error {
            kind: ErrorKind::BadRequest,
            message: "job subsystem disabled (start serve with --max-jobs >= 1)".to_string(),
        }
    }

    /// The answer to a job-control op naming a job the runner does not
    /// know.
    pub fn unknown_job(job: u64) -> Outcome {
        Outcome::Error { kind: ErrorKind::BadRequest, message: format!("unknown job {job}") }
    }
}

/// Serialize one streamed `optimize-events` progress line (no trailing
/// newline). Event lines carry `"event":true` so clients can tell them
/// from the closing status line of the stream.
pub fn render_job_event(id: Option<u64>, job: u64, event: &crate::jobs::JobEvent) -> String {
    let mut fields: Vec<(String, Json)> =
        vec![("ok".into(), Json::Bool(true)), ("op".into(), str_json("optimize-events"))];
    if let Some(id) = id {
        fields.push(("id".into(), Json::Num(id as f64)));
    }
    fields.push(("event".into(), Json::Bool(true)));
    fields.push(("job".into(), Json::Num(job as f64)));
    fields.push(("iteration".into(), Json::Num(event.iteration as f64)));
    fields.push(("u".into(), Json::Num(event.u as f64)));
    fields.push(("v".into(), Json::Num(event.v as f64)));
    fields.push(("score".into(), Json::Num(event.score)));
    fields.push(("full_evals".into(), Json::Num(event.full_evals as f64)));
    fields.push(("lazy_hits".into(), Json::Num(event.lazy_hits as f64)));
    fields.push(("elapsed_micros".into(), Json::Num(event.elapsed_micros as f64)));
    fields.push(("replayed".into(), Json::Bool(event.replayed)));
    Json::Obj(fields).render()
}

/// A complete response, ready to serialize as one output line.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id, when one was given.
    pub id: Option<u64>,
    /// Protocol op name (best-effort `"?"` when the line did not parse).
    pub op: &'static str,
    /// The answer or failure.
    pub outcome: Outcome,
    /// Tier that answered (`approx` for every answer the pool computes),
    /// for successes.
    pub tier: Option<&'static str>,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// Worker compute time in microseconds.
    pub compute_micros: u64,
    /// Time spent waiting in the bounded queue, in microseconds.
    pub queue_micros: u64,
}

impl Response {
    /// A response built outside the worker pool's compute phase (job
    /// control, rejections): no tier, never cached, zero timings.
    pub fn untimed(id: Option<u64>, op: &'static str, outcome: Outcome) -> Self {
        Response {
            id,
            op,
            outcome,
            tier: None,
            cached: false,
            compute_micros: 0,
            queue_micros: 0,
        }
    }

    /// Build an error response outside the pool (parse failures,
    /// submission rejections).
    pub fn error(id: Option<u64>, op: &'static str, kind: ErrorKind, message: String) -> Self {
        Self::untimed(id, op, Outcome::Error { kind, message })
    }

    /// Whether this response reports success.
    pub fn is_ok(&self) -> bool {
        !matches!(self.outcome, Outcome::Error { .. })
    }

    /// Serialize to one compact JSON line (no trailing newline).
    pub fn render(&self) -> String {
        let mut fields: Vec<(String, Json)> =
            vec![("ok".into(), Json::Bool(self.is_ok())), ("op".into(), str_json(self.op))];
        if let Some(id) = self.id {
            fields.push(("id".into(), Json::Num(id as f64)));
        }
        match &self.outcome {
            Outcome::Ecc { value, node } => {
                fields.push(("value".into(), Json::Num(*value)));
                fields.push(("node".into(), Json::Num(*node as f64)));
            }
            Outcome::Scalar { value } => {
                fields.push(("value".into(), Json::Num(*value)));
            }
            Outcome::Stats(s) => {
                fields.push(("nodes".into(), Json::Num(s.nodes as f64)));
                fields.push(("edges".into(), Json::Num(s.edges as f64)));
                fields.push((
                    "fingerprint".into(),
                    str_json(&format!("{:#018x}", s.fingerprint)),
                ));
                fields.push(("epsilon".into(), Json::Num(s.epsilon)));
                fields.push(("dimension".into(), Json::Num(s.dimension as f64)));
                fields.push(("hull_size".into(), Json::Num(s.hull_size as f64)));
                fields.push(("degraded_rows".into(), Json::Num(s.degraded_rows as f64)));
                fields.push(("threads".into(), Json::Num(s.threads as f64)));
                fields.push(("queue_depth".into(), Json::Num(s.queue_depth as f64)));
                fields.push(("served".into(), Json::Num(s.served as f64)));
                fields.push(("panics_total".into(), Json::Num(s.panics_total as f64)));
                fields
                    .push(("workers_respawned".into(), Json::Num(s.workers_respawned as f64)));
                fields.push(("dropped_on_drain".into(), Json::Num(s.dropped_on_drain as f64)));
                fields.push(("snapshot_retries".into(), Json::Num(s.snapshot_retries as f64)));
                fields.push(("whatif_served".into(), Json::Num(s.whatif_served as f64)));
                fields.push((
                    "whatif_micros_total".into(),
                    Json::Num(s.whatif_micros_total as f64),
                ));
                fields.push(("batched_requests".into(), Json::Num(s.batched_requests as f64)));
                fields.push(("batch_flushes".into(), Json::Num(s.batch_flushes as f64)));
                fields.push((
                    "batch_occupancy_sum".into(),
                    Json::Num(s.batch_occupancy_sum as f64),
                ));
                fields.push(("cache_hits".into(), Json::Num(s.cache_hits as f64)));
                fields.push(("cache_misses".into(), Json::Num(s.cache_misses as f64)));
                fields.push(("cache_evictions".into(), Json::Num(s.cache_evictions as f64)));
                fields.push(("cache_entries".into(), Json::Num(s.cache_entries as f64)));
                fields.push(("epoch".into(), Json::Num(s.epoch as f64)));
                fields
                    .push(("mutations_applied".into(), Json::Num(s.mutations_applied as f64)));
                fields.push((
                    "error_budget_remaining".into(),
                    Json::Num(s.error_budget_remaining),
                ));
                fields.push(("resketches_total".into(), Json::Num(s.resketches_total as f64)));
                fields.push(("wal_bytes".into(), Json::Num(s.wal_bytes as f64)));
                fields.push((
                    "wal_replayed_on_start".into(),
                    Json::Num(s.wal_replayed_on_start as f64),
                ));
                fields.push(("jobs_submitted".into(), Json::Num(s.jobs_submitted as f64)));
                fields.push(("jobs_running".into(), Json::Num(s.jobs_running as f64)));
                fields.push(("jobs_completed".into(), Json::Num(s.jobs_completed as f64)));
                fields.push(("jobs_cancelled".into(), Json::Num(s.jobs_cancelled as f64)));
                fields.push(("jobs_failed".into(), Json::Num(s.jobs_failed as f64)));
                fields.push((
                    "job_checkpoint_bytes".into(),
                    Json::Num(s.job_checkpoint_bytes as f64),
                ));
                fields.push((
                    "connections_accepted".into(),
                    Json::Num(s.connections_accepted as f64),
                ));
                fields.push((
                    "connections_active".into(),
                    Json::Num(s.connections_active as f64),
                ));
                fields.push(("connections_shed".into(), Json::Num(s.connections_shed as f64)));
                fields.push((
                    "connections_timed_out".into(),
                    Json::Num(s.connections_timed_out as f64),
                ));
                fields.push(("bytes_read".into(), Json::Num(s.bytes_read as f64)));
                fields.push(("bytes_written".into(), Json::Num(s.bytes_written as f64)));
                fields.push((
                    "write_buffer_sheds".into(),
                    Json::Num(s.write_buffer_sheds as f64),
                ));
            }
            Outcome::Mutated { r_uv, cost, budget_remaining, epoch, seq, resketch } => {
                fields.push(("r_uv".into(), Json::Num(*r_uv)));
                fields.push(("cost".into(), Json::Num(*cost)));
                fields.push(("budget_remaining".into(), Json::Num(*budget_remaining)));
                fields.push(("epoch".into(), Json::Num(*epoch as f64)));
                fields.push(("seq".into(), Json::Num(*seq as f64)));
                fields.push(("resketch".into(), Json::Bool(*resketch)));
            }
            Outcome::EpochInfo {
                epoch,
                mutations_in_epoch,
                budget_total,
                budget_remaining,
                resketch_running,
            } => {
                fields.push(("epoch".into(), Json::Num(*epoch as f64)));
                fields
                    .push(("mutations_in_epoch".into(), Json::Num(*mutations_in_epoch as f64)));
                fields.push(("budget_total".into(), Json::Num(*budget_total)));
                fields.push(("budget_remaining".into(), Json::Num(*budget_remaining)));
                fields.push(("resketch_running".into(), Json::Bool(*resketch_running)));
            }
            Outcome::Job { job, state, detail, iterations, k } => {
                fields.push(("job".into(), Json::Num(*job as f64)));
                fields.push(("state".into(), str_json(state)));
                if !detail.is_empty() {
                    fields.push(("detail".into(), str_json(detail)));
                }
                fields.push(("iterations".into(), Json::Num(*iterations as f64)));
                fields.push(("k".into(), Json::Num(*k as f64)));
            }
            Outcome::JobResult {
                job,
                state,
                plan,
                wall_micros,
                epoch_swapped,
                resumed,
                detail,
            } => {
                fields.push(("job".into(), Json::Num(*job as f64)));
                fields.push(("state".into(), str_json(state)));
                if !detail.is_empty() {
                    fields.push(("detail".into(), str_json(detail)));
                }
                let plan_json = plan
                    .iter()
                    .map(|&(u, v, score)| {
                        Json::Arr(vec![
                            Json::Num(u as f64),
                            Json::Num(v as f64),
                            Json::Num(score),
                        ])
                    })
                    .collect();
                fields.push(("plan".into(), Json::Arr(plan_json)));
                fields.push(("wall_micros".into(), Json::Num(*wall_micros as f64)));
                fields.push(("epoch_swapped".into(), Json::Bool(*epoch_swapped)));
                fields.push(("resumed".into(), Json::Num(*resumed as f64)));
            }
            Outcome::Error { kind, message } => {
                fields.push(("error".into(), str_json(kind.wire_name())));
                fields.push(("message".into(), str_json(message)));
            }
        }
        if let Some(tier) = self.tier {
            fields.push(("tier".into(), str_json(tier)));
        }
        if self.is_ok() {
            fields.push(("cached".into(), Json::Bool(self.cached)));
            fields.push(("micros".into(), Json::Num(self.compute_micros as f64)));
            fields.push(("queue_micros".into(), Json::Num(self.queue_micros as f64)));
        }
        Json::Obj(fields).render()
    }
}

fn str_json(s: &str) -> Json {
    Json::Str(s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let cases: Vec<(&str, Request)> = vec![
            (r#"{"op":"ecc","v":17}"#, Request::Ecc { v: 17 }),
            (r#"{"op":"res","u":1,"v":2}"#, Request::Res { u: 1, v: 2 }),
            (r#"{"op":"radius"}"#, Request::Radius),
            (r#"{"op":"diameter"}"#, Request::Diameter),
            (
                r#"{"op":"whatif-edge","s":3,"u":0,"v":9}"#,
                Request::WhatIfEdge { s: 3, u: 0, v: 9 },
            ),
            (
                r#"{"op":"whatif-remove-edge","s":3,"u":0,"v":9}"#,
                Request::WhatIfRemoveEdge { s: 3, u: 0, v: 9 },
            ),
            (r#"{"op":"add-edge","u":4,"v":11}"#, Request::AddEdge { u: 4, v: 11 }),
            (r#"{"op":"remove-edge","u":4,"v":11}"#, Request::RemoveEdge { u: 4, v: 11 }),
            (r#"{"op":"epoch"}"#, Request::Epoch),
            (r#"{"op":"stats"}"#, Request::Stats),
            (r#"{"op":"optimize-status","job":5}"#, Request::OptimizeStatus { job: 5 }),
            (r#"{"op":"optimize-cancel","job":0}"#, Request::OptimizeCancel { job: 0 }),
            (
                r#"{"op":"optimize-events","job":2}"#,
                Request::OptimizeEvents { job: 2, since: 0, follow: false },
            ),
            (
                r#"{"op":"optimize-events","job":2,"since":4,"follow":true}"#,
                Request::OptimizeEvents { job: 2, since: 4, follow: true },
            ),
            (
                r#"{"op":"optimize-result","job":1,"wait":true}"#,
                Request::OptimizeResult { job: 1, wait: true },
            ),
        ];
        for (line, expected) in cases {
            let env = parse_request(line).unwrap();
            assert_eq!(env.request, expected, "{line}");
            assert_eq!(env.id, None);
        }
    }

    #[test]
    fn envelope_fields_are_optional_but_typed() {
        let env = parse_request(r#"{"op":"ecc","v":1,"id":9,"deadline_ms":250}"#).unwrap();
        assert_eq!(env.id, Some(9));
        assert_eq!(env.deadline_ms, Some(250));
        assert!(parse_request(r#"{"op":"ecc","v":1,"id":"x"}"#).is_err());
        assert!(parse_request(r#"{"op":"ecc","v":1,"deadline_ms":-5}"#).is_err());
    }

    #[test]
    fn optimize_submit_parses_spec_with_defaults() {
        use crate::jobs::OptimizerKind;
        let env = parse_request(r#"{"op":"optimize-submit","optimizer":"simple","s":3,"k":2}"#)
            .unwrap();
        let Request::OptimizeSubmit { spec } = env.request else { panic!("{env:?}") };
        assert_eq!(spec.optimizer, OptimizerKind::Simple);
        assert_eq!((spec.source, spec.k), (3, 2));
        assert_eq!(spec.eps, 0.3);
        assert_eq!((spec.threads, spec.block_size, spec.seed), (0, 0, 0));
        assert!(!spec.lazy);
        assert!(spec.remd, "SIMPLE defaults to the source-incident problem");

        let env = parse_request(
            r#"{"op":"optimize-submit","optimizer":"minrecc","s":0,"k":4,"eps":0.5,
               "threads":2,"block_size":8,"lazy":true,"remd":false,"seed":9}"#,
        )
        .unwrap();
        let Request::OptimizeSubmit { spec } = env.request else { panic!("{env:?}") };
        assert_eq!(spec.optimizer, OptimizerKind::MinRecc);
        assert_eq!(spec.eps, 0.5);
        assert_eq!((spec.threads, spec.block_size, spec.seed), (2, 8, 9));
        assert!(spec.lazy && !spec.remd);

        for (line, needle) in [
            (r#"{"op":"optimize-submit","s":0,"k":1}"#, "\"optimizer\""),
            (r#"{"op":"optimize-submit","optimizer":"frob","s":0,"k":1}"#, "unknown optimizer"),
            (r#"{"op":"optimize-submit","optimizer":"simple","k":1}"#, "needs field \"s\""),
            (
                r#"{"op":"optimize-submit","optimizer":"simple","s":0,"k":1,"lazy":3}"#,
                "must be a boolean",
            ),
            (r#"{"op":"optimize-events","job":1,"since":-2}"#, "non-negative"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn job_outcomes_render_their_fields() {
        let resp = Response {
            id: None,
            op: "optimize-submit",
            outcome: Outcome::Job {
                job: 7,
                state: "queued",
                detail: String::new(),
                iterations: 0,
                k: 3,
            },
            tier: None,
            cached: false,
            compute_micros: 2,
            queue_micros: 0,
        };
        let v = Json::parse(&resp.render()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("job").unwrap().as_usize(), Some(7));
        assert_eq!(v.get("state").unwrap().as_str(), Some("queued"));
        assert_eq!(v.get("k").unwrap().as_usize(), Some(3));
        assert!(v.get("detail").is_none(), "empty detail omitted");

        let resp = Response {
            id: Some(1),
            op: "optimize-result",
            outcome: Outcome::JobResult {
                job: 7,
                state: "completed",
                plan: vec![(0, 4, 1.5), (2, 3, 1.25)],
                wall_micros: 900,
                epoch_swapped: true,
                resumed: 1,
                detail: String::new(),
            },
            tier: None,
            cached: false,
            compute_micros: 1,
            queue_micros: 0,
        };
        let line = resp.render();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("state").unwrap().as_str(), Some("completed"));
        assert_eq!(v.get("wall_micros").unwrap().as_usize(), Some(900));
        assert_eq!(v.get("epoch_swapped").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("resumed").unwrap().as_usize(), Some(1));
        assert!(line.contains("\"plan\":[[0,4,1.5],[2,3,1.25]]"), "{line}");
    }

    #[test]
    fn rejects_malformed_requests_with_reasons() {
        for (line, needle) in [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"v":1}"#, "\"op\""),
            (r#"{"op":"frob"}"#, "unknown op"),
            (r#"{"op":"ecc"}"#, "needs field"),
            (r#"{"op":"ecc","v":-3}"#, "non-negative"),
            (r#"{"op":"res","u":1}"#, "needs field \"v\""),
            (r#"{"op":"add-edge","u":1}"#, "needs field \"v\""),
            (r#"{"op":"remove-edge","v":1}"#, "needs field \"u\""),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn success_response_renders_contract_fields() {
        let resp = Response {
            id: Some(4),
            op: "ecc",
            outcome: Outcome::Ecc { value: 2.5, node: 19 },
            tier: Some("approx"),
            cached: true,
            compute_micros: 12,
            queue_micros: 3,
        };
        let line = resp.render();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("op").unwrap().as_str(), Some("ecc"));
        assert_eq!(v.get("id").unwrap().as_usize(), Some(4));
        assert_eq!(v.get("value").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("node").unwrap().as_usize(), Some(19));
        assert_eq!(v.get("tier").unwrap().as_str(), Some("approx"));
        assert_eq!(v.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("micros").unwrap().as_usize(), Some(12));
        assert_eq!(v.get("queue_micros").unwrap().as_usize(), Some(3));
    }

    #[test]
    fn mutation_and_epoch_outcomes_render_their_fields() {
        let resp = Response {
            id: None,
            op: "add-edge",
            outcome: Outcome::Mutated {
                r_uv: 0.75,
                cost: 0.75 / 1.75,
                budget_remaining: 0.1,
                epoch: 2,
                seq: 40,
                resketch: true,
            },
            tier: None,
            cached: false,
            compute_micros: 8,
            queue_micros: 1,
        };
        let v = Json::parse(&resp.render()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("r_uv").unwrap().as_f64(), Some(0.75));
        assert_eq!(v.get("epoch").unwrap().as_usize(), Some(2));
        assert_eq!(v.get("seq").unwrap().as_usize(), Some(40));
        assert_eq!(v.get("resketch").unwrap().as_bool(), Some(true));

        let resp = Response {
            id: None,
            op: "epoch",
            outcome: Outcome::EpochInfo {
                epoch: 3,
                mutations_in_epoch: 5,
                budget_total: 0.3,
                budget_remaining: 0.05,
                resketch_running: false,
            },
            tier: None,
            cached: false,
            compute_micros: 1,
            queue_micros: 0,
        };
        let v = Json::parse(&resp.render()).unwrap();
        assert_eq!(v.get("epoch").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("mutations_in_epoch").unwrap().as_usize(), Some(5));
        assert_eq!(v.get("budget_total").unwrap().as_f64(), Some(0.3));
        assert_eq!(v.get("resketch_running").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn error_response_renders_kind_and_message() {
        let resp =
            Response::error(None, "ecc", ErrorKind::Overloaded, "queue full (depth 1)".into());
        let v = Json::parse(&resp.render()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("error").unwrap().as_str(), Some("overloaded"));
        assert!(v.get("message").unwrap().as_str().unwrap().contains("queue full"));
        assert!(v.get("cached").is_none(), "errors carry no timing block");
    }

    #[test]
    fn error_kinds_have_distinct_wire_names() {
        let kinds = [
            ErrorKind::Parse,
            ErrorKind::BadRequest,
            ErrorKind::Overloaded,
            ErrorKind::DeadlineExceeded,
            ErrorKind::Internal,
            ErrorKind::Draining,
        ];
        let mut names: Vec<&str> = kinds.iter().map(ErrorKind::wire_name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }
}
