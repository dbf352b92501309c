#![warn(missing_docs)]
//! # reecc-serve
//!
//! The query-serving subsystem: everything needed to run the resistance
//! eccentricity engine as a long-lived service instead of a one-shot CLI
//! invocation.
//!
//! The dominant cost of every query pipeline is building the APPROXER
//! sketch (`m · log n · ε⁻²` CG solves). A service should pay it once:
//!
//! * [`snapshot`] — a versioned, checksummed binary format persisting the
//!   sketch rows, hull boundary, and build diagnostics, keyed to the
//!   graph by a representation-level fingerprint. Loading a snapshot
//!   restores a [`reecc_core::QueryEngine`] in milliseconds.
//! * [`pool`] — a hand-rolled worker thread pool (std::thread + mpsc)
//!   around `Arc<QueryEngine>` with a bounded request queue, explicit
//!   `overloaded` backpressure, per-request deadlines, a sharded LRU
//!   result cache, panic containment (`catch_unwind` + supervisor
//!   respawn), and a deadline-bounded graceful drain.
//! * [`wal`] — a crash-safe write-ahead edge log: every accepted
//!   `add-edge` / `remove-edge` mutation is appended and fsynced before
//!   the ack, with per-record FNV-1a checksums and torn-tail-tolerant
//!   replay, so `kill -9` at any point is recoverable.
//! * [`live`] — the live mutable engine: error-budgeted rank-1 sketch
//!   updates applied in place, epoch-swapped background re-sketch when
//!   the budget drains, and startup recovery (snapshot + WAL replay).
//! * [`jobs`] — optimization-as-a-service: the greedy edge-addition
//!   optimizers run as background jobs on a low-priority runner pool,
//!   with per-iteration progress events, cooperative cancellation, and
//!   crash-safe checkpointed resume (`job-<id>.reeccjob` files with the
//!   WAL's durability discipline).
//! * [`failpoint`] — deterministic fault injection (panics, delays, I/O
//!   errors) at named sites, armed programmatically or via
//!   `REECC_FAILPOINTS`; one relaxed atomic load when disarmed.
//! * [`protocol`] — newline-delimited JSON requests and responses
//!   (`{"op":"ecc","v":17}`), every answer carrying the degradation tier
//!   and timing.
//! * [`server`] — the transports: a session loop over stdin/stdout (pipe
//!   mode) and a readiness-driven `poll(2)` event loop over TCP (one
//!   reactor thread owning every connection state machine, with admission
//!   control, bounded write buffers, and idle and write-stall deadlines
//!   checked in its one pass per tick).
//! * [`sys`] — the thin std-only OS shim the reactor needs (`poll(2)`,
//!   SIGTERM→flag, `RLIMIT_NOFILE`), declared directly against the C
//!   runtime (the workspace is offline; no libc crate).
//! * [`json`] — the minimal JSON value parser/printer the protocol uses
//!   (the workspace is offline; no serde).
//!
//! ```
//! use std::io::BufReader;
//! use std::sync::Arc;
//! use reecc_core::{QueryEngine, SketchParams};
//! use reecc_graph::generators::barabasi_albert;
//! use reecc_serve::pool::{PoolConfig, ServePool};
//! use reecc_serve::server::serve_pipe;
//!
//! let g = barabasi_albert(60, 2, 7);
//! let engine = QueryEngine::build(&g, &SketchParams::with_epsilon(0.4)).unwrap();
//! let pool = ServePool::new(Arc::new(engine), PoolConfig::default());
//! let input = b"{\"op\":\"ecc\",\"v\":0}\n{\"op\":\"stats\"}\n";
//! let mut output = Vec::new();
//! let stats = serve_pipe(&pool, BufReader::new(&input[..]), &mut output).unwrap();
//! assert_eq!(stats.requests, 2);
//! assert!(String::from_utf8(output).unwrap().contains("\"ok\":true"));
//! ```

pub mod cache;
pub mod failpoint;
pub mod jobs;
pub mod json;
pub mod live;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod snapshot;
pub mod sys;
pub mod wal;

pub use jobs::{
    JobEvent, JobReport, JobRunner, JobSpec, JobStats, JobSubmitError, JobsConfig,
    OptimizerKind,
};
pub use live::{LiveConfig, LiveEngine, LiveError};
pub use pool::{DrainReport, PoolConfig, ServePool, SubmitError};
pub use protocol::{ErrorKind, Request, RequestEnvelope, Response};
pub use server::{
    serve_pipe, ServerConfig, SessionStats, TcpServer, TransportSnapshot, TransportStats,
};
pub use snapshot::{RetryPolicy, SketchSnapshot, SnapshotError};
pub use wal::{WalError, WalOp, WalRecord, WalWriter};
