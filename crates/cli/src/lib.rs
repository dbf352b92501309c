#![warn(missing_docs)]
//! # reecc-cli
//!
//! The `reecc` command-line tool: resistance-eccentricity analysis for
//! edge-list files without writing any Rust.
//!
//! ```console
//! $ reecc analyze graph.txt
//! $ reecc query graph.txt --nodes 0,17,42 --method fast --eps 0.3
//! $ reecc optimize graph.txt --source 0 --k 5 --algorithm minrecc
//! $ reecc generate --model ba --n 1000 --param 3 --out graph.txt
//! ```
//!
//! All logic lives in this library crate ([`run`]) so the command surface
//! is unit-testable; `main.rs` is a thin shim.

pub mod commands;
pub mod parse;

pub use commands::run;

/// CLI errors, rendered to stderr by the binary.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// Bad flags / arguments; carries a usage-oriented message.
    Usage(String),
    /// Underlying I/O failure.
    Io(String),
    /// Graph loading / validation failure.
    Graph(String),
    /// Computation failure.
    Compute(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(m) => write!(f, "i/o error: {m}"),
            CliError::Graph(m) => write!(f, "graph error: {m}"),
            CliError::Compute(m) => write!(f, "computation error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// Process exit code for this error class. Distinct nonzero codes per
    /// class so scripts can tell a bad invocation (2) from a bad input
    /// file (3/4) from a numerical failure (5).
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Graph(_) => 4,
            CliError::Compute(_) => 5,
        }
    }
}

/// The top-level usage text.
pub const USAGE: &str = "\
reecc — resistance eccentricity toolkit

USAGE:
  reecc analyze  <edges.txt> [--eps X] [--lcc]
  reecc query    <edges.txt> --nodes A,B,C [--method exact|approx|fast] [--eps X] [--lcc]
  reecc optimize <edges.txt> --source S --k N
                 [--algorithm simple|far|cen|ch|minrecc] [--problem remd|rem] [--eps X]
                 [--threads N (0 = auto)] [--block-size B (0 = adaptive)]
                 [--precision f64|mixed] [--precond none|jacobi|sgs|cheby]
                 [--lazy] [--lcc]
  reecc generate --model ba|hk|ws|er|powerlaw|dataset --n N [--param P] [--seed S]
                 [--dataset NAME] [--out FILE]
  reecc sketch-build <edges.txt> --out SNAPSHOT [--eps X] [--seed S]
                 [--precision f64|mixed] [--precond none|jacobi|sgs|cheby]
                 [--lcc] [--verify]
  reecc sketch-info  <SNAPSHOT>
  reecc serve    <edges.txt> [--snapshot SNAPSHOT] [--addr HOST:PORT]
                 [--threads N (0 = auto)] [--queue-depth D] [--eps X]
                 [--precision f64|mixed] [--precond none|jacobi|sgs|cheby] [--lcc]
                 [--wal-dir DIR] [--error-budget X]
                 [--max-jobs N (0 = no job subsystem)] [--job-dir DIR]
                 [--max-connections N] [--idle-timeout SECS]
                 [--write-buffer-cap BYTES]

Edge-list format: one `u v` pair per line; `#`/`%` comments; ids remapped densely.
Disconnected inputs are rejected; pass --lcc to analyze the largest connected
component instead.

`sketch-build --verify` re-loads the written snapshot and checks its checksum
and fingerprint before reporting success (snapshots are written atomically:
temp file + fsync + rename).

--precision selects the row-solve arithmetic: f64 (default, bitwise-stable
reference) or mixed (f32 blocked-CG sweeps under f64 iterative refinement —
about half the memory traffic on large graphs, same eps accuracy, still
deterministic across --threads and --block-size). --precond selects the CG
preconditioner; cheby is the auto-tuned scaled-Chebyshev polynomial
preconditioner (eigenvalue interval estimated once per graph). Snapshots are
precision-agnostic: the stored format is f64 rows either way.

`serve` answers newline-delimited JSON requests (`{\"op\":\"ecc\",\"v\":17}`; ops
ecc | res | radius | diameter | whatif-edge | whatif-remove-edge | add-edge |
remove-edge | epoch | stats | optimize-submit | optimize-status |
optimize-cancel | optimize-events | optimize-result) over stdin/stdout, or
over TCP with --addr. A worker answers up to 8 queued ecc / radius / diameter
requests with one batched kernel call. With --snapshot it reuses a
sketch built by `sketch-build` instead of rebuilding; the snapshot must match
the graph (fingerprint-checked, transient load errors retried with backoff).
Worker panics are contained and the worker respawned; on SIGTERM/SIGINT (or
pipe EOF) the pool drains with a deadline and prints a one-line summary
(answered / dropped).

The TCP transport is a single-threaded poll(2) event loop: no thread per
connection, so storms and slow clients cost bounded buffers, not threads.
--max-connections caps admitted sessions (extras get one `overloaded` line),
--idle-timeout closes silent sessions with an in-band notice, and
--write-buffer-cap bounds each connection's pending output (a client that
stops reading its responses is dropped at that mark). Transport counters
(connections accepted/active/shed/timed-out, bytes in/out, write-buffer
sheds) are reported by the `stats` op.

add-edge / remove-edge mutate the served graph via rank-1 sketch updates. With
--wal-dir every mutation is appended + fsynced to a write-ahead log before the
ack, so kill -9 at any point is recoverable: on the next start with the same
--wal-dir the server replays the log and serves the exact pre-crash state
(the edge list and --snapshot are then ignored). Each mutation charges an
error budget (default: the sketch eps; override with --error-budget); when it
drains, a background re-sketch rebuilds the sketch and swaps in a fresh epoch
without blocking readers. Fault injection for testing:
REECC_FAILPOINTS='site=action[;...]' (see reecc-serve docs).

optimize-submit runs the edge-addition optimizers (simple | farminrecc |
cenminrecc | chminrecc | minrecc) as background jobs on --max-jobs
low-priority runner threads that yield to queries; optimize-events streams
per-iteration progress, optimize-cancel stops a job between iterations. With
--job-dir every accepted edge is checkpointed + fsynced, so a killed server
restarted with the same --job-dir resumes interrupted jobs bitwise
identically.

Exit codes: 0 ok, 2 usage, 3 i/o, 4 graph input, 5 computation.
";
