//! Optimization-as-a-service: background jobs running the greedy
//! edge-addition optimizers with progress streaming, cooperative
//! cancellation, and checkpointed crash-safe resume.
//!
//! A job is one `*_controlled` optimizer run (see `reecc_opt::control`)
//! executed on a dedicated low-priority runner pool instead of a worker
//! thread: `optimize-submit` acks with a job id immediately, and the
//! greedy loop then proceeds in the background, yielding briefly between
//! iterations whenever the query pool has requests in flight. Each job
//! pins the [`EpochView`] that was published at submit time, so a
//! background re-sketch swapping epochs mid-job never changes the graph
//! under the optimizer — the swap is *detected* and reported in the
//! job's result instead.
//!
//! # Checkpoint file (`job-<id>.reeccjob`)
//!
//! Same durability discipline as the write-ahead log (`crate::wal`):
//! fixed-width little-endian records, an FNV-1a checksum on everything,
//! `write + flush + sync_data` before any acknowledgement, and a parser
//! in which **every** prefix truncation of a valid file is either a
//! typed error or a tolerated torn tail — never a panic and never
//! silently-wrong state.
//!
//! ```text
//! header (86 bytes):
//!   magic        8  b"REECCJOB"
//!   version      4  u32 = 1
//!   job_id       8  u64
//!   fingerprint  8  u64   graph the plan applies to
//!   optimizer    1  u8    OptimizerKind code
//!   flags        1  u8    bit0 = lazy, bit1 = remd
//!   source       8  u64
//!   k            8  u64
//!   eps          8  f64 bits
//!   threads      8  u64
//!   block_size   8  u64
//!   seed         8  u64
//!   checksum     8  FNV-1a over the preceding 78 bytes
//! record (32 bytes, one per accepted edge, in commit order):
//!   u            8  u64   canonical u < v
//!   v            8  u64
//!   score        8  f64 bits (the iteration's selection score)
//!   checksum     8  FNV-1a over the preceding 24 bytes
//! ```
//!
//! The header is durable before `optimize-submit` acks; a record is
//! durable before the optimizer is allowed to start the next iteration
//! (the append runs inside the run's observer, and an append failure
//! aborts the run as a cleanly failed job). `kill -9` at any byte
//! boundary therefore recovers to a resumable prefix: a torn record
//! tail is truncated on restart and the job re-enqueued with the intact
//! prefix, which the optimizer replays bitwise-deterministically (see
//! the resume-strategy table in `reecc_opt::control`).

use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use reecc_graph::fingerprint::Fnv1a;
use reecc_graph::{Edge, Graph};
use reecc_opt::{
    cen_min_recc_controlled, ch_min_recc_controlled, far_min_recc_controlled,
    min_recc_controlled, simple_greedy_controlled, ControlledRun, IterationEvent, OptError,
    OptimizeParams, Problem, RunControl, SimpleOptions,
};

use crate::failpoint;
use crate::live::{EpochView, LiveEngine};
use crate::pool::panic_message;
use crate::snapshot::sync_parent_dir;

/// Magic prefix of every job checkpoint file.
pub const MAGIC: [u8; 8] = *b"REECCJOB";
/// Current checkpoint format version.
pub const FORMAT_VERSION: u32 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 86;
/// Fixed per-edge record length in bytes.
pub const RECORD_LEN: usize = 32;

/// Which optimizer a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// SIMPLE exact greedy (Algorithm 4), REMD or REM per the spec flag.
    Simple,
    /// FARMINRECC (Algorithm 5), REMD.
    Far,
    /// CENMINRECC (Algorithm 6), REMD.
    Cen,
    /// CHMINRECC (Algorithm 8), REM.
    Ch,
    /// MINRECC (Algorithm 9), REM.
    MinRecc,
}

impl OptimizerKind {
    /// Protocol name (`"simple"` / `"farminrecc"` / …).
    pub fn name(&self) -> &'static str {
        match self {
            OptimizerKind::Simple => "simple",
            OptimizerKind::Far => "farminrecc",
            OptimizerKind::Cen => "cenminrecc",
            OptimizerKind::Ch => "chminrecc",
            OptimizerKind::MinRecc => "minrecc",
        }
    }

    /// Parse a protocol name.
    pub fn parse(name: &str) -> Option<OptimizerKind> {
        match name {
            "simple" => Some(OptimizerKind::Simple),
            "farminrecc" => Some(OptimizerKind::Far),
            "cenminrecc" => Some(OptimizerKind::Cen),
            "chminrecc" => Some(OptimizerKind::Ch),
            "minrecc" => Some(OptimizerKind::MinRecc),
            _ => None,
        }
    }

    /// On-disk code byte.
    pub fn code(&self) -> u8 {
        match self {
            OptimizerKind::Simple => 0,
            OptimizerKind::Far => 1,
            OptimizerKind::Cen => 2,
            OptimizerKind::Ch => 3,
            OptimizerKind::MinRecc => 4,
        }
    }

    /// Inverse of [`OptimizerKind::code`].
    pub fn from_code(code: u8) -> Option<OptimizerKind> {
        match code {
            0 => Some(OptimizerKind::Simple),
            1 => Some(OptimizerKind::Far),
            2 => Some(OptimizerKind::Cen),
            3 => Some(OptimizerKind::Ch),
            4 => Some(OptimizerKind::MinRecc),
            _ => None,
        }
    }
}

/// Everything that determines a job's computation (and therefore its
/// bitwise-deterministic resume): optimizer, problem instance, and the
/// evaluator knobs. Serialized verbatim into the checkpoint header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Which optimizer to run.
    pub optimizer: OptimizerKind,
    /// Source node `s` whose eccentricity the plan minimizes.
    pub source: usize,
    /// Edge budget `k`.
    pub k: usize,
    /// Sketch `ε` for the heuristic optimizers (SIMPLE is exact and
    /// ignores it).
    pub eps: f64,
    /// Worker threads for candidate scoring; `0` = auto.
    pub threads: usize,
    /// Blocked-CG batch width; `0` = adaptive default.
    pub block_size: usize,
    /// CELF lazy re-evaluation (SIMPLE only).
    pub lazy: bool,
    /// SIMPLE problem choice: `true` = REMD (source-incident candidates),
    /// `false` = REM. The heuristics fix their own problem and ignore it.
    pub remd: bool,
    /// Sketch seed for the heuristic optimizers.
    pub seed: u64,
}

impl JobSpec {
    fn flags(&self) -> u8 {
        (self.lazy as u8) | ((self.remd as u8) << 1)
    }

    fn params(&self) -> OptimizeParams {
        let mut params = OptimizeParams::with_epsilon(self.eps);
        params.sketch.seed = self.seed;
        params.sketch.threads = self.threads;
        params.sketch.block_size = self.block_size;
        params
    }
}

/// One checkpointed greedy step: an accepted edge and its selection
/// score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// First endpoint (canonical `u < v`).
    pub u: usize,
    /// Second endpoint.
    pub v: usize,
    /// Selection score of the iteration that committed this edge.
    pub score: f64,
}

/// Typed failures from reading or writing a checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFileError {
    /// Underlying filesystem failure (including armed `job.checkpoint`
    /// failpoints).
    Io(String),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The header names a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The file is shorter than a complete header.
    Truncated {
        /// Observed file length.
        len: usize,
    },
    /// A checksum mismatch or impossible field inside the file.
    Corrupt {
        /// Byte offset of the offending region.
        offset: usize,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for JobFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFileError::Io(msg) => write!(f, "job checkpoint i/o error: {msg}"),
            JobFileError::BadMagic => write!(f, "not a job checkpoint (bad magic)"),
            JobFileError::UnsupportedVersion(v) => {
                write!(f, "unsupported job checkpoint format version {v}")
            }
            JobFileError::Truncated { len } => {
                write!(f, "job checkpoint truncated inside the header ({len} bytes)")
            }
            JobFileError::Corrupt { offset, detail } => {
                write!(f, "job checkpoint corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for JobFileError {}

fn u64_at(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Serialize a checkpoint header.
pub fn encode_header(job_id: u64, fingerprint: u64, spec: &JobSpec) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..8].copy_from_slice(&MAGIC);
    out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[12..20].copy_from_slice(&job_id.to_le_bytes());
    out[20..28].copy_from_slice(&fingerprint.to_le_bytes());
    out[28] = spec.optimizer.code();
    out[29] = spec.flags();
    out[30..38].copy_from_slice(&(spec.source as u64).to_le_bytes());
    out[38..46].copy_from_slice(&(spec.k as u64).to_le_bytes());
    out[46..54].copy_from_slice(&spec.eps.to_bits().to_le_bytes());
    out[54..62].copy_from_slice(&(spec.threads as u64).to_le_bytes());
    out[62..70].copy_from_slice(&(spec.block_size as u64).to_le_bytes());
    out[70..78].copy_from_slice(&spec.seed.to_le_bytes());
    let sum = checksum(&out[..HEADER_LEN - 8]);
    out[78..86].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Serialize one accepted-edge record.
pub fn encode_record(rec: &JobRecord) -> [u8; RECORD_LEN] {
    let mut out = [0u8; RECORD_LEN];
    out[..8].copy_from_slice(&(rec.u as u64).to_le_bytes());
    out[8..16].copy_from_slice(&(rec.v as u64).to_le_bytes());
    out[16..24].copy_from_slice(&rec.score.to_bits().to_le_bytes());
    let sum = checksum(&out[..RECORD_LEN - 8]);
    out[24..32].copy_from_slice(&sum.to_le_bytes());
    out
}

/// A fully parsed checkpoint file.
#[derive(Debug, Clone, PartialEq)]
pub struct JobCheckpoint {
    /// Job id from the header.
    pub job_id: u64,
    /// Graph fingerprint the plan applies to.
    pub fingerprint: u64,
    /// The job's spec.
    pub spec: JobSpec,
    /// Accepted edges in commit order.
    pub records: Vec<JobRecord>,
    /// Bytes of a torn trailing record (crash mid-append), excluded from
    /// `records`. The writer truncates them before resuming.
    pub torn_bytes: usize,
}

fn decode_header(bytes: &[u8]) -> Result<(u64, u64, JobSpec), JobFileError> {
    if bytes.len() < HEADER_LEN {
        return Err(JobFileError::Truncated { len: bytes.len() });
    }
    if bytes[..8] != MAGIC {
        return Err(JobFileError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(JobFileError::UnsupportedVersion(version));
    }
    let expected = u64_at(bytes, HEADER_LEN - 8);
    let actual = checksum(&bytes[..HEADER_LEN - 8]);
    if expected != actual {
        return Err(JobFileError::Corrupt {
            offset: 0,
            detail: format!("header checksum {actual:#018x} != recorded {expected:#018x}"),
        });
    }
    let optimizer = OptimizerKind::from_code(bytes[28]).ok_or(JobFileError::Corrupt {
        offset: 28,
        detail: format!("unknown optimizer code {}", bytes[28]),
    })?;
    let flags = bytes[29];
    if flags & !0b11 != 0 {
        return Err(JobFileError::Corrupt {
            offset: 29,
            detail: format!("unknown flag bits {flags:#04x}"),
        });
    }
    let spec = JobSpec {
        optimizer,
        source: u64_at(bytes, 30) as usize,
        k: u64_at(bytes, 38) as usize,
        eps: f64::from_bits(u64_at(bytes, 46)),
        threads: u64_at(bytes, 54) as usize,
        block_size: u64_at(bytes, 62) as usize,
        lazy: flags & 0b01 != 0,
        remd: flags & 0b10 != 0,
        seed: u64_at(bytes, 70),
    };
    Ok((u64_at(bytes, 12), u64_at(bytes, 20), spec))
}

fn decode_record(bytes: &[u8], offset: usize) -> Result<JobRecord, JobFileError> {
    let expected = u64_at(bytes, offset + RECORD_LEN - 8);
    let actual = checksum(&bytes[offset..offset + RECORD_LEN - 8]);
    if expected != actual {
        return Err(JobFileError::Corrupt {
            offset,
            detail: format!("record checksum {actual:#018x} != recorded {expected:#018x}"),
        });
    }
    let u = u64_at(bytes, offset) as usize;
    let v = u64_at(bytes, offset + 8) as usize;
    if u >= v {
        return Err(JobFileError::Corrupt {
            offset,
            detail: format!("non-canonical edge ({u}, {v}); records require u < v"),
        });
    }
    Ok(JobRecord { u, v, score: f64::from_bits(u64_at(bytes, offset + 16)) })
}

/// Parse a checkpoint file image. A trailing partial record is tolerated
/// as `torn_bytes` (crash mid-append); everything else that is not a
/// byte-exact valid file is a typed error.
///
/// # Errors
///
/// [`JobFileError`] as described on each variant.
pub fn parse_job_file(bytes: &[u8]) -> Result<JobCheckpoint, JobFileError> {
    let (job_id, fingerprint, spec) = decode_header(bytes)?;
    let mut records = Vec::new();
    let mut offset = HEADER_LEN;
    while offset + RECORD_LEN <= bytes.len() {
        records.push(decode_record(bytes, offset)?);
        offset += RECORD_LEN;
    }
    Ok(JobCheckpoint { job_id, fingerprint, spec, records, torn_bytes: bytes.len() - offset })
}

/// Durable checkpoint appender, mirroring `crate::wal::WalWriter`:
/// `write + flush + sync_data` before success, length rollback on
/// failure, and the `job.checkpoint` failpoint checked before any byte
/// is written.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: std::fs::File,
    bytes: u64,
}

impl CheckpointWriter {
    /// Create a fresh checkpoint: header only, durably on disk (file
    /// synced, parent directory synced) before this returns.
    ///
    /// # Errors
    ///
    /// [`JobFileError::Io`] on any filesystem failure.
    pub fn create(
        path: &Path,
        job_id: u64,
        fingerprint: u64,
        spec: &JobSpec,
    ) -> Result<CheckpointWriter, JobFileError> {
        let io = |e: std::io::Error| JobFileError::Io(format!("{}: {e}", path.display()));
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(io)?;
        file.write_all(&encode_header(job_id, fingerprint, spec)).map_err(io)?;
        file.flush().map_err(io)?;
        file.sync_data().map_err(io)?;
        sync_parent_dir(path);
        Ok(CheckpointWriter { file, bytes: HEADER_LEN as u64 })
    }

    /// Reopen an existing checkpoint for appending: parse it, truncate
    /// any torn trailing record, and seek to the end. Returns the writer
    /// and the parsed state.
    ///
    /// # Errors
    ///
    /// [`JobFileError`] if the file is unreadable or damaged beyond a
    /// torn tail.
    pub fn open_append(path: &Path) -> Result<(CheckpointWriter, JobCheckpoint), JobFileError> {
        let io = |e: std::io::Error| JobFileError::Io(format!("{}: {e}", path.display()));
        let mut file =
            std::fs::OpenOptions::new().read(true).write(true).open(path).map_err(io)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io)?;
        let checkpoint = parse_job_file(&bytes)?;
        let consumed = (bytes.len() - checkpoint.torn_bytes) as u64;
        if checkpoint.torn_bytes > 0 {
            file.set_len(consumed).map_err(io)?;
            file.sync_data().map_err(io)?;
        }
        file.seek(SeekFrom::Start(consumed)).map_err(io)?;
        Ok((CheckpointWriter { file, bytes: consumed }, checkpoint))
    }

    /// Durably append one accepted-edge record. On failure the file is
    /// rolled back to its pre-append length, so a failed append never
    /// leaves a torn record for the *next* open to trip over.
    ///
    /// # Errors
    ///
    /// [`JobFileError::Io`] on write/sync failure or an armed
    /// `job.checkpoint` failpoint.
    pub fn append(&mut self, rec: &JobRecord) -> Result<u64, JobFileError> {
        failpoint::hit("job.checkpoint").map_err(JobFileError::Io)?;
        let encoded = encode_record(rec);
        let result = self
            .file
            .write_all(&encoded)
            .and_then(|()| self.file.flush())
            .and_then(|()| self.file.sync_data());
        match result {
            Ok(()) => {
                self.bytes += RECORD_LEN as u64;
                Ok(self.bytes)
            }
            Err(e) => {
                let _ = self.file.set_len(self.bytes);
                let _ = self.file.seek(SeekFrom::Start(self.bytes));
                Err(JobFileError::Io(format!("append failed: {e}")))
            }
        }
    }

    /// Current durable length in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Knobs for the job subsystem.
#[derive(Debug, Clone, Default)]
pub struct JobsConfig {
    /// Concurrent background jobs (runner threads). `0` disables the
    /// subsystem entirely: every `optimize-*` op answers `bad-request`.
    pub max_jobs: usize,
    /// Bounded submit-queue depth; a full queue answers `overloaded`.
    pub queue_depth: usize,
    /// Directory for durable checkpoints. `None` = jobs run without
    /// checkpoints and do not survive a restart.
    pub job_dir: Option<PathBuf>,
}

/// What a failed `optimize-submit` maps to on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSubmitError {
    /// The spec is semantically invalid (`bad-request`).
    Invalid(String),
    /// The job queue is full (`overloaded`).
    Overloaded(String),
    /// Creating the durable checkpoint failed (`internal`).
    Io(String),
}

impl std::fmt::Display for JobSubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobSubmitError::Invalid(msg)
            | JobSubmitError::Overloaded(msg)
            | JobSubmitError::Io(msg) => f.write_str(msg),
        }
    }
}

/// One per-iteration progress event, streamed by `optimize-events`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobEvent {
    /// Zero-based global iteration index.
    pub iteration: usize,
    /// Chosen edge, canonical `u < v`.
    pub u: usize,
    /// Second endpoint.
    pub v: usize,
    /// Selection score.
    pub score: f64,
    /// Fresh candidate evaluations this iteration.
    pub full_evals: usize,
    /// Lazy-greedy re-evaluations skipped this iteration.
    pub lazy_hits: usize,
    /// Microseconds from run start to this event (0 for replayed ones).
    pub elapsed_micros: u64,
    /// Whether this iteration was replayed from a checkpoint rather than
    /// freshly decided in this process.
    pub replayed: bool,
}

/// Terminal payload of a finished (completed or cancelled) job.
#[derive(Debug, Clone, PartialEq, Default)]
struct JobOutcome {
    steps: Vec<JobRecord>,
    wall_micros: u64,
    epoch_swapped: bool,
    resumed: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum JobStatus {
    Queued,
    Running,
    Completed(JobOutcome),
    Cancelled(JobOutcome),
    Failed(String),
}

impl JobStatus {
    fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed(_) => "completed",
            JobStatus::Cancelled(_) => "cancelled",
            JobStatus::Failed(_) => "failed",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Completed(_) | JobStatus::Cancelled(_) | JobStatus::Failed(_))
    }
}

/// A point-in-time snapshot of one job, shaped for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job id.
    pub job: u64,
    /// `"queued"` / `"running"` / `"completed"` / `"cancelled"` /
    /// `"failed"`.
    pub state: &'static str,
    /// Failure reason, or empty.
    pub detail: String,
    /// Iterations committed so far (replayed prefix included).
    pub iterations: u64,
    /// The job's edge budget.
    pub k: u64,
    /// Committed plan `(u, v, score)` — terminal states only, empty
    /// while the job is queued or running.
    pub plan: Vec<(usize, usize, f64)>,
    /// Wall time of the run in microseconds (terminal states only).
    pub wall_micros: u64,
    /// Whether a re-sketch epoch swap happened between submit and
    /// finish: the plan was computed against the pinned submit-time
    /// epoch, not the currently served one.
    pub epoch_swapped: bool,
    /// Steps replayed from a checkpoint rather than freshly decided.
    pub resumed: u64,
}

struct JobInner {
    status: JobStatus,
    events: Vec<JobEvent>,
}

struct JobEntry {
    id: u64,
    spec: JobSpec,
    /// Epoch view pinned at submit: the graph the whole run (and any
    /// future resume) is computed against.
    view: Arc<EpochView>,
    submit_epoch: u64,
    /// Checkpointed prefix to replay before fresh decisions.
    resume: Vec<JobRecord>,
    cancel: AtomicBool,
    writer: Mutex<Option<CheckpointWriter>>,
    path: Option<PathBuf>,
    inner: Mutex<JobInner>,
    cv: Condvar,
}

impl JobEntry {
    fn report(&self) -> JobReport {
        let inner = self.inner.lock().expect("job state poisoned");
        let (detail, plan, wall_micros, epoch_swapped, resumed) = match &inner.status {
            JobStatus::Completed(out) | JobStatus::Cancelled(out) => (
                String::new(),
                out.steps.iter().map(|r| (r.u, r.v, r.score)).collect(),
                out.wall_micros,
                out.epoch_swapped,
                out.resumed as u64,
            ),
            JobStatus::Failed(msg) => (msg.clone(), Vec::new(), 0, false, 0),
            _ => (String::new(), Vec::new(), 0, false, 0),
        };
        JobReport {
            job: self.id,
            state: inner.status.name(),
            detail,
            iterations: inner.events.len() as u64,
            k: self.spec.k as u64,
            plan,
            wall_micros,
            epoch_swapped,
            resumed,
        }
    }

    fn set_status(&self, status: JobStatus) {
        let mut inner = self.inner.lock().expect("job state poisoned");
        inner.status = status;
        self.cv.notify_all();
    }

    fn push_event(&self, event: JobEvent) {
        let mut inner = self.inner.lock().expect("job state poisoned");
        inner.events.push(event);
        self.cv.notify_all();
    }
}

/// How the runner probes for query-pool pressure: `true` = requests are
/// waiting or executing, so background jobs should yield.
pub type BusyProbe = Box<dyn Fn() -> bool + Send + Sync>;

/// The background job subsystem: a registry of jobs plus `max_jobs`
/// low-priority runner threads fed by a bounded queue.
pub struct JobRunner {
    live: Arc<LiveEngine>,
    job_dir: Option<PathBuf>,
    tx: Mutex<Option<SyncSender<Arc<JobEntry>>>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    registry: Mutex<HashMap<u64, Arc<JobEntry>>>,
    next_id: AtomicU64,
    busy: BusyProbe,
    shutting_down: AtomicBool,
    jobs_submitted: AtomicU64,
    jobs_running: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_failed: AtomicU64,
    checkpoint_bytes: AtomicU64,
    resumed_on_start: AtomicU64,
}

impl std::fmt::Debug for JobRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobRunner")
            .field("job_dir", &self.job_dir)
            .field("submitted", &self.jobs_submitted.load(Ordering::Relaxed))
            .field("running", &self.jobs_running.load(Ordering::Relaxed))
            .finish()
    }
}

/// Counter snapshot for the `stats` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobStats {
    /// Jobs accepted by `optimize-submit` (startup resumes included).
    pub submitted: u64,
    /// Jobs currently executing on a runner thread.
    pub running: u64,
    /// Jobs that ran their full budget.
    pub completed: u64,
    /// Jobs stopped by `optimize-cancel`.
    pub cancelled: u64,
    /// Jobs that failed (optimizer error, checkpoint i/o failure, or a
    /// contained panic).
    pub failed: u64,
    /// Bytes durably written to checkpoint files over this runner's life.
    pub checkpoint_bytes: u64,
}

fn checkpoint_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.reeccjob"))
}

fn id_from_path(path: &Path) -> Option<u64> {
    path.file_name()?.to_str()?.strip_prefix("job-")?.strip_suffix(".reeccjob")?.parse().ok()
}

/// Dispatch one job spec to its `*_controlled` optimizer.
fn run_optimizer(
    g: &Graph,
    spec: &JobSpec,
    ctrl: &mut RunControl<'_>,
) -> Result<ControlledRun, OptError> {
    match spec.optimizer {
        OptimizerKind::Simple => simple_greedy_controlled(
            g,
            if spec.remd { Problem::Remd } else { Problem::Rem },
            spec.k,
            spec.source,
            SimpleOptions { threads: spec.threads, lazy: spec.lazy },
            ctrl,
        ),
        OptimizerKind::Far => {
            far_min_recc_controlled(g, spec.k, spec.source, &spec.params(), ctrl)
        }
        OptimizerKind::Cen => {
            cen_min_recc_controlled(g, spec.k, spec.source, &spec.params(), ctrl)
        }
        OptimizerKind::Ch => {
            ch_min_recc_controlled(g, spec.k, spec.source, &spec.params(), ctrl)
        }
        OptimizerKind::MinRecc => {
            min_recc_controlled(g, spec.k, spec.source, &spec.params(), ctrl)
        }
    }
}

impl JobRunner {
    /// Start the subsystem: scan `job_dir` for checkpoints left by a
    /// previous process (re-enqueueing resumable ones, surfacing damaged
    /// ones as cleanly failed jobs), then spawn the runner threads.
    ///
    /// `busy` is polled between greedy iterations; while it returns
    /// `true` the job yields (bounded) so interactive queries keep their
    /// latency.
    ///
    /// # Errors
    ///
    /// A message when `max_jobs` is zero or the checkpoint directory
    /// cannot be created or scanned.
    pub fn start(
        live: Arc<LiveEngine>,
        config: &JobsConfig,
        busy: BusyProbe,
    ) -> Result<Arc<JobRunner>, String> {
        if config.max_jobs == 0 {
            return Err("max_jobs must be at least 1 (0 disables the subsystem)".to_string());
        }
        if let Some(dir) = &config.job_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let runner = Arc::new(JobRunner {
            live,
            job_dir: config.job_dir.clone(),
            tx: Mutex::new(None),
            threads: Mutex::new(Vec::new()),
            registry: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            busy,
            shutting_down: AtomicBool::new(false),
            jobs_submitted: AtomicU64::new(0),
            jobs_running: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            checkpoint_bytes: AtomicU64::new(0),
            resumed_on_start: AtomicU64::new(0),
        });
        let resumable = runner.scan_job_dir()?;
        let (tx, rx) = std::sync::mpsc::sync_channel(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        {
            let mut threads = runner.threads.lock().expect("runner threads poisoned");
            for i in 0..config.max_jobs {
                let me = Arc::clone(&runner);
                let rx = Arc::clone(&rx);
                let handle = std::thread::Builder::new()
                    .name(format!("reecc-job-runner-{i}"))
                    .spawn(move || me.runner_loop(&rx))
                    .map_err(|e| format!("cannot spawn job runner: {e}"))?;
                threads.push(handle);
            }
        }
        // Re-enqueue resumed jobs with the runners already draining, so a
        // backlog longer than the queue never deadlocks startup.
        for entry in resumable {
            runner.jobs_submitted.fetch_add(1, Ordering::Relaxed);
            runner.resumed_on_start.fetch_add(1, Ordering::Relaxed);
            if tx.send(entry).is_err() {
                break;
            }
        }
        *runner.tx.lock().expect("runner tx poisoned") = Some(tx);
        Ok(runner)
    }

    /// Jobs re-enqueued from checkpoints when this runner started.
    pub fn resumed_on_start(&self) -> u64 {
        self.resumed_on_start.load(Ordering::Relaxed)
    }

    /// Scan the checkpoint directory: returns resumable entries to
    /// enqueue; damaged files become registered `failed` jobs.
    fn scan_job_dir(&self) -> Result<Vec<Arc<JobEntry>>, String> {
        let Some(dir) = &self.job_dir else { return Ok(Vec::new()) };
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot scan {}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| id_from_path(p).is_some())
            .collect();
        paths.sort();
        let view = self.live.view();
        let epoch = self.live.epoch();
        let mut resumable = Vec::new();
        for path in paths {
            let file_id = id_from_path(&path).expect("filtered above");
            self.next_id.fetch_max(file_id + 1, Ordering::Relaxed);
            let fail = |msg: String, keep: bool| -> Arc<JobEntry> {
                if !keep {
                    let _ = std::fs::remove_file(&path);
                }
                self.jobs_failed.fetch_add(1, Ordering::Relaxed);
                Arc::new(JobEntry {
                    id: file_id,
                    spec: JobSpec {
                        optimizer: OptimizerKind::Simple,
                        source: 0,
                        k: 0,
                        eps: 0.0,
                        threads: 0,
                        block_size: 0,
                        lazy: false,
                        remd: false,
                        seed: 0,
                    },
                    view: Arc::clone(&view),
                    submit_epoch: epoch,
                    resume: Vec::new(),
                    cancel: AtomicBool::new(false),
                    writer: Mutex::new(None),
                    path: None,
                    inner: Mutex::new(JobInner {
                        status: JobStatus::Failed(msg),
                        events: Vec::new(),
                    }),
                    cv: Condvar::new(),
                })
            };
            let entry = match CheckpointWriter::open_append(&path) {
                // A header-torn file predates the submit ack: the client
                // never learned the id, so remove it and move on.
                Err(JobFileError::Truncated { len }) => fail(
                    format!("checkpoint header torn at {len} bytes (submit never acked)"),
                    false,
                ),
                // Deeper damage is surfaced, and the evidence kept.
                Err(e) => fail(format!("unreadable checkpoint: {e}"), true),
                Ok((writer, checkpoint)) => {
                    if checkpoint.fingerprint != view.fingerprint {
                        fail(
                            format!(
                                "graph fingerprint changed since checkpoint \
                                 ({:#018x} != {:#018x}); plan not resumable",
                                checkpoint.fingerprint, view.fingerprint
                            ),
                            true,
                        )
                    } else {
                        self.checkpoint_bytes.fetch_add(writer.bytes(), Ordering::Relaxed);
                        let events = checkpoint
                            .records
                            .iter()
                            .enumerate()
                            .map(|(i, r)| JobEvent {
                                iteration: i,
                                u: r.u,
                                v: r.v,
                                score: r.score,
                                full_evals: 0,
                                lazy_hits: 0,
                                elapsed_micros: 0,
                                replayed: true,
                            })
                            .collect();
                        let entry = Arc::new(JobEntry {
                            id: checkpoint.job_id,
                            spec: checkpoint.spec,
                            view: Arc::clone(&view),
                            submit_epoch: epoch,
                            resume: checkpoint.records,
                            cancel: AtomicBool::new(false),
                            writer: Mutex::new(Some(writer)),
                            path: Some(path.clone()),
                            inner: Mutex::new(JobInner { status: JobStatus::Queued, events }),
                            cv: Condvar::new(),
                        });
                        resumable.push(Arc::clone(&entry));
                        entry
                    }
                }
            };
            self.registry.lock().expect("job registry poisoned").insert(entry.id, entry);
        }
        Ok(resumable)
    }

    /// Submit a new job. The checkpoint header (when a job directory is
    /// configured) is durable before this returns the id.
    ///
    /// # Errors
    ///
    /// [`JobSubmitError`] — invalid spec, full queue, or checkpoint i/o.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, JobSubmitError> {
        let view = self.live.view();
        let n = view.engine.graph().node_count();
        if spec.source >= n {
            return Err(JobSubmitError::Invalid(format!(
                "source {} out of range for {n}-node graph",
                spec.source
            )));
        }
        if spec.k == 0 {
            return Err(JobSubmitError::Invalid("budget k must be at least 1".to_string()));
        }
        if !(spec.eps.is_finite() && spec.eps > 0.0) {
            return Err(JobSubmitError::Invalid(format!(
                "eps must be positive, got {}",
                spec.eps
            )));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let path = self.job_dir.as_ref().map(|dir| checkpoint_path(dir, id));
        let writer = match &path {
            Some(p) => {
                let w = CheckpointWriter::create(p, id, view.fingerprint, &spec)
                    .map_err(|e| JobSubmitError::Io(e.to_string()))?;
                self.checkpoint_bytes.fetch_add(w.bytes(), Ordering::Relaxed);
                Some(w)
            }
            None => None,
        };
        let entry = Arc::new(JobEntry {
            id,
            spec,
            view,
            submit_epoch: self.live.epoch(),
            resume: Vec::new(),
            cancel: AtomicBool::new(false),
            writer: Mutex::new(writer),
            path: path.clone(),
            inner: Mutex::new(JobInner { status: JobStatus::Queued, events: Vec::new() }),
            cv: Condvar::new(),
        });
        let tx = self.tx.lock().expect("runner tx poisoned");
        let Some(tx) = tx.as_ref() else {
            if let Some(p) = &path {
                let _ = std::fs::remove_file(p);
            }
            return Err(JobSubmitError::Invalid("job runner is shut down".to_string()));
        };
        match tx.try_send(Arc::clone(&entry)) {
            Ok(()) => {
                self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
                self.registry.lock().expect("job registry poisoned").insert(id, entry);
                Ok(id)
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                if let Some(p) = &path {
                    let _ = std::fs::remove_file(p);
                }
                Err(JobSubmitError::Overloaded("job queue full".to_string()))
            }
        }
    }

    /// Snapshot one job's state. `None` for an unknown id.
    pub fn status(&self, id: u64) -> Option<JobReport> {
        self.entry(id).map(|e| e.report())
    }

    /// Request cooperative cancellation: the job stops within one
    /// candidate block. Returns the (possibly not yet terminal) state.
    pub fn cancel(&self, id: u64) -> Option<JobReport> {
        let entry = self.entry(id)?;
        entry.cancel.store(true, Ordering::Relaxed);
        {
            // A job still waiting in the queue flips to `cancelled`
            // immediately; the runner skips terminal entries. Counter
            // and file cleanup land before the status is visible.
            let mut inner = entry.inner.lock().expect("job state poisoned");
            if matches!(inner.status, JobStatus::Queued) {
                self.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
                self.cleanup_checkpoint(&entry);
                inner.status = JobStatus::Cancelled(JobOutcome::default());
                entry.cv.notify_all();
            }
        }
        Some(entry.report())
    }

    /// Block until the job reaches a terminal state, up to `timeout`.
    /// Returns the latest report either way; `None` for an unknown id.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobReport> {
        let entry = self.entry(id)?;
        let deadline = Instant::now() + timeout;
        let mut inner = entry.inner.lock().expect("job state poisoned");
        while !inner.status.is_terminal() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) =
                entry.cv.wait_timeout(inner, deadline - now).expect("job state poisoned");
            inner = guard;
        }
        drop(inner);
        Some(entry.report())
    }

    /// Events from index `since` onward, plus whether the job is
    /// terminal. When `follow` is set, blocks (up to `timeout`) until at
    /// least one new event exists or the job finishes.
    pub fn events(
        &self,
        id: u64,
        since: usize,
        follow: bool,
        timeout: Duration,
    ) -> Option<(Vec<JobEvent>, bool)> {
        let entry = self.entry(id)?;
        let deadline = Instant::now() + timeout;
        let mut inner = entry.inner.lock().expect("job state poisoned");
        if follow {
            while inner.events.len() <= since && !inner.status.is_terminal() {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) =
                    entry.cv.wait_timeout(inner, deadline - now).expect("job state poisoned");
                inner = guard;
            }
        }
        let events = inner.events.get(since..).unwrap_or(&[]).to_vec();
        Some((events, inner.status.is_terminal()))
    }

    /// Counter snapshot for the `stats` op.
    pub fn stats(&self) -> JobStats {
        JobStats {
            submitted: self.jobs_submitted.load(Ordering::Relaxed),
            running: self.jobs_running.load(Ordering::Relaxed),
            completed: self.jobs_completed.load(Ordering::Relaxed),
            cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            failed: self.jobs_failed.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
        }
    }

    /// Stop the subsystem: no new submissions, running jobs are asked to
    /// stop cooperatively, and every checkpoint is **kept** so the next
    /// process resumes where this one left off.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        // Closing the channel makes runner threads exit once drained; the
        // shutdown flag makes them skip (not run) still-queued entries.
        *self.tx.lock().expect("runner tx poisoned") = None;
        let registry = self.registry.lock().expect("job registry poisoned");
        for entry in registry.values() {
            entry.cancel.store(true, Ordering::Relaxed);
        }
        drop(registry);
        let mut threads = self.threads.lock().expect("runner threads poisoned");
        for handle in threads.drain(..) {
            let _ = handle.join();
        }
    }

    fn entry(&self, id: u64) -> Option<Arc<JobEntry>> {
        self.registry.lock().expect("job registry poisoned").get(&id).cloned()
    }

    fn runner_loop(self: Arc<Self>, rx: &Mutex<Receiver<Arc<JobEntry>>>) {
        loop {
            let entry = {
                let guard = rx.lock().expect("runner rx poisoned");
                guard.recv()
            };
            let Ok(entry) = entry else { return };
            if self.shutting_down.load(Ordering::SeqCst) {
                // Leave the entry queued with its checkpoint intact; the
                // next process resumes it.
                continue;
            }
            self.execute_entry(&entry);
        }
    }

    fn execute_entry(&self, entry: &Arc<JobEntry>) {
        {
            let mut inner = entry.inner.lock().expect("job state poisoned");
            if inner.status.is_terminal() {
                return; // cancelled while queued
            }
            inner.status = JobStatus::Running;
            entry.cv.notify_all();
        }
        self.jobs_running.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        // Containment: a panicking optimizer (or an armed `job.iterate`
        // panic failpoint) fails only this job, never the runner thread.
        let result = catch_unwind(AssertUnwindSafe(|| self.run_entry(entry, start)));
        self.jobs_running.fetch_sub(1, Ordering::Relaxed);
        let wall_micros = start.elapsed().as_micros() as u64;
        match result {
            Ok(Ok(run)) => {
                let mut steps: Vec<JobRecord> = run
                    .steps
                    .iter()
                    .map(|st| JobRecord { u: st.edge.u, v: st.edge.v, score: st.score })
                    .collect();
                // Fast-replay optimizers do not re-score the prefix; the
                // checkpointed scores are the authoritative ones.
                for (i, st) in steps.iter_mut().enumerate().take(run.resumed) {
                    if st.score.is_nan() {
                        st.score = entry.resume[i].score;
                    }
                }
                let outcome = JobOutcome {
                    steps,
                    wall_micros,
                    epoch_swapped: self.live.epoch() != entry.submit_epoch,
                    resumed: run.resumed,
                };
                // Counters and checkpoint cleanup must land BEFORE the
                // terminal status is published: `wait` returns the
                // instant the status flips, and callers read the stats
                // (and the filesystem) right after.
                if run.cancelled {
                    if self.shutting_down.load(Ordering::SeqCst) {
                        // Interrupted by shutdown, not by the client:
                        // keep the checkpoint so the next process
                        // resumes, and report the interruption.
                        self.jobs_failed.fetch_add(1, Ordering::Relaxed);
                        entry.set_status(JobStatus::Failed(
                            "interrupted by shutdown (checkpoint kept)".to_string(),
                        ));
                    } else {
                        self.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
                        self.cleanup_checkpoint(entry);
                        entry.set_status(JobStatus::Cancelled(outcome));
                    }
                } else {
                    self.jobs_completed.fetch_add(1, Ordering::Relaxed);
                    self.cleanup_checkpoint(entry);
                    entry.set_status(JobStatus::Completed(outcome));
                }
            }
            Ok(Err(e)) => {
                // Keep the checkpoint: it is the evidence, and a resume
                // after the cause is fixed may still succeed.
                self.jobs_failed.fetch_add(1, Ordering::Relaxed);
                entry.set_status(JobStatus::Failed(e.to_string()));
            }
            Err(payload) => {
                self.jobs_failed.fetch_add(1, Ordering::Relaxed);
                entry.set_status(JobStatus::Failed(format!(
                    "job panicked: {}",
                    panic_message(payload.as_ref())
                )));
            }
        }
    }

    fn run_entry(
        &self,
        entry: &Arc<JobEntry>,
        start: Instant,
    ) -> Result<ControlledRun, OptError> {
        let resume: Vec<Edge> = entry.resume.iter().map(|r| Edge::new(r.u, r.v)).collect();
        let mut writer = entry.writer.lock().expect("checkpoint writer poisoned").take();
        let mut observer = |ev: &IterationEvent| -> Result<(), String> {
            failpoint::hit("job.iterate")?;
            self.yield_to_queries();
            if let Some(w) = writer.as_mut() {
                let rec = JobRecord { u: ev.edge.u, v: ev.edge.v, score: ev.score };
                w.append(&rec).map_err(|e| e.to_string())?;
                self.checkpoint_bytes.fetch_add(RECORD_LEN as u64, Ordering::Relaxed);
            }
            entry.push_event(JobEvent {
                iteration: ev.iteration,
                u: ev.edge.u,
                v: ev.edge.v,
                score: ev.score,
                full_evals: ev.full_evals,
                lazy_hits: ev.lazy_hits,
                elapsed_micros: start.elapsed().as_micros() as u64,
                replayed: false,
            });
            Ok(())
        };
        let mut ctrl = RunControl {
            cancel: Some(&entry.cancel),
            resume: &resume,
            observer: Some(&mut observer),
        };
        run_optimizer(entry.view.engine.graph(), &entry.spec, &mut ctrl)
    }

    /// Bounded politeness between iterations: back off while the query
    /// pool has requests in flight, but never stall a job more than
    /// ~20 ms per iteration.
    fn yield_to_queries(&self) {
        for _ in 0..20 {
            if !(self.busy)() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn cleanup_checkpoint(&self, entry: &JobEntry) {
        if let Some(path) = &entry.path {
            // Drop the writer's handle first so the unlink is the last
            // reference on every platform.
            *entry.writer.lock().expect("checkpoint writer poisoned") = None;
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for JobRunner {
    fn drop(&mut self) {
        // `shutdown` is idempotent; make drop safe without it.
        self.shutting_down.store(true, Ordering::SeqCst);
        *self.tx.lock().expect("runner tx poisoned") = None;
        let mut threads = self.threads.lock().expect("runner threads poisoned");
        for handle in threads.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reecc_core::{QueryEngine, SketchParams};
    use reecc_graph::generators::{barabasi_albert, cycle};

    fn spec(optimizer: OptimizerKind, k: usize) -> JobSpec {
        JobSpec {
            optimizer,
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

    fn live(g: &Graph) -> Arc<LiveEngine> {
        let engine = Arc::new(
            QueryEngine::build(
                g,
                &SketchParams { epsilon: 0.4, seed: 5, ..Default::default() },
            )
            .unwrap(),
        );
        LiveEngine::ephemeral(engine, Some(1000.0))
    }

    fn runner(live: &Arc<LiveEngine>, dir: Option<PathBuf>) -> Arc<JobRunner> {
        JobRunner::start(
            Arc::clone(live),
            &JobsConfig { max_jobs: 1, queue_depth: 4, job_dir: dir },
            Box::new(|| false),
        )
        .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("reecc-jobs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const WAIT: Duration = Duration::from_secs(60);

    #[test]
    fn header_and_records_round_trip() {
        let s = spec(OptimizerKind::MinRecc, 3);
        let mut bytes = encode_header(42, 0xfeed, &s).to_vec();
        let recs =
            [JobRecord { u: 0, v: 9, score: 1.25 }, JobRecord { u: 3, v: 4, score: f64::NAN }];
        for r in &recs {
            bytes.extend_from_slice(&encode_record(r));
        }
        let parsed = parse_job_file(&bytes).unwrap();
        assert_eq!(parsed.job_id, 42);
        assert_eq!(parsed.fingerprint, 0xfeed);
        assert_eq!(parsed.spec, s);
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.records[0], recs[0]);
        assert_eq!(parsed.records[1].u, 3);
        assert!(parsed.records[1].score.is_nan());
        assert_eq!(parsed.torn_bytes, 0);
    }

    #[test]
    fn optimizer_kind_codes_and_names_round_trip() {
        for kind in [
            OptimizerKind::Simple,
            OptimizerKind::Far,
            OptimizerKind::Cen,
            OptimizerKind::Ch,
            OptimizerKind::MinRecc,
        ] {
            assert_eq!(OptimizerKind::from_code(kind.code()), Some(kind));
            assert_eq!(OptimizerKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(OptimizerKind::from_code(99), None);
        assert_eq!(OptimizerKind::parse("greedy"), None);
    }

    #[test]
    fn every_prefix_truncation_is_typed_or_tolerated() {
        let s = spec(OptimizerKind::Simple, 4);
        let mut bytes = encode_header(7, 0xabc, &s).to_vec();
        for i in 0..3usize {
            bytes.extend_from_slice(&encode_record(&JobRecord {
                u: i,
                v: i + 5,
                score: i as f64,
            }));
        }
        for len in 0..=bytes.len() {
            let prefix = &bytes[..len];
            match parse_job_file(prefix) {
                Err(JobFileError::Truncated { len: l }) => {
                    assert!(l < HEADER_LEN, "len {len}: typed only inside the header")
                }
                Ok(parsed) => {
                    let full = (len - HEADER_LEN) / RECORD_LEN;
                    assert_eq!(parsed.records.len(), full, "len {len}");
                    assert_eq!(parsed.torn_bytes, (len - HEADER_LEN) % RECORD_LEN, "len {len}");
                }
                Err(e) => panic!("len {len}: unexpected {e}"),
            }
        }
    }

    #[test]
    fn flipped_bytes_are_detected() {
        let s = spec(OptimizerKind::Far, 2);
        let mut bytes = encode_header(1, 2, &s).to_vec();
        bytes.extend_from_slice(&encode_record(&JobRecord { u: 2, v: 6, score: 0.5 }));
        for offset in [0usize, 5, 13, 30, 50, 80, HEADER_LEN + 1, HEADER_LEN + 20] {
            let mut copy = bytes.clone();
            copy[offset] ^= 0x40;
            let err = parse_job_file(&copy).unwrap_err();
            assert!(
                matches!(
                    err,
                    JobFileError::Corrupt { .. }
                        | JobFileError::BadMagic
                        | JobFileError::UnsupportedVersion(_)
                ),
                "offset {offset}: {err}"
            );
        }
        // A non-canonical record is corrupt even with a valid checksum.
        let mut copy = encode_header(1, 2, &s).to_vec();
        let mut rec = [0u8; RECORD_LEN];
        rec[..8].copy_from_slice(&9u64.to_le_bytes());
        rec[8..16].copy_from_slice(&4u64.to_le_bytes());
        rec[16..24].copy_from_slice(&1.0f64.to_bits().to_le_bytes());
        let sum = checksum(&rec[..RECORD_LEN - 8]);
        rec[24..32].copy_from_slice(&sum.to_le_bytes());
        copy.extend_from_slice(&rec);
        assert!(matches!(
            parse_job_file(&copy),
            Err(JobFileError::Corrupt { detail, .. }) if detail.contains("non-canonical")
        ));
    }

    #[test]
    fn writer_truncates_torn_tail_and_appends() {
        let dir = temp_dir("writer");
        let path = dir.join("job-3.reeccjob");
        let s = spec(OptimizerKind::Cen, 5);
        let mut w = CheckpointWriter::create(&path, 3, 0xdead, &s).unwrap();
        w.append(&JobRecord { u: 1, v: 2, score: 0.5 }).unwrap();
        w.append(&JobRecord { u: 0, v: 4, score: 0.25 }).unwrap();
        drop(w);
        // Simulate a crash mid-append: append half a record by hand.
        {
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xaa; RECORD_LEN / 2]).unwrap();
        }
        let (mut w, parsed) = CheckpointWriter::open_append(&path).unwrap();
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.torn_bytes, RECORD_LEN / 2);
        assert_eq!(w.bytes(), (HEADER_LEN + 2 * RECORD_LEN) as u64);
        w.append(&JobRecord { u: 2, v: 3, score: 0.125 }).unwrap();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();
        let parsed = parse_job_file(&bytes).unwrap();
        assert_eq!(parsed.records.len(), 3);
        assert_eq!(parsed.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_failpoint_fails_append_cleanly() {
        let _fp = failpoint::test_lock();
        let dir = temp_dir("fp");
        let path = dir.join("job-0.reeccjob");
        let s = spec(OptimizerKind::Simple, 2);
        let mut w = CheckpointWriter::create(&path, 0, 1, &s).unwrap();
        failpoint::configure("job.checkpoint", failpoint::Action::IoError, Some(1));
        let err = w.append(&JobRecord { u: 0, v: 1, score: 1.0 }).unwrap_err();
        assert!(matches!(err, JobFileError::Io(_)), "{err}");
        assert_eq!(w.bytes(), HEADER_LEN as u64, "failed append leaves no bytes behind");
        w.append(&JobRecord { u: 0, v: 1, score: 1.0 }).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn job_runs_to_completion_with_events() {
        let g = barabasi_albert(24, 2, 11);
        let live = live(&g);
        let runner = runner(&live, None);
        let id = runner.submit(spec(OptimizerKind::Simple, 3)).unwrap();
        let report = runner.wait(id, WAIT).unwrap();
        assert_eq!(report.state, "completed", "{}", report.detail);
        assert_eq!(report.plan.len(), 3);
        assert_eq!(report.resumed, 0);
        assert!(!report.epoch_swapped);
        assert!(report.wall_micros > 0);
        let (events, terminal) = runner.events(id, 0, false, WAIT).unwrap();
        assert!(terminal);
        assert_eq!(events.len(), 3);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.iteration, i);
            assert!(ev.score.is_finite());
            assert!(!ev.replayed);
            assert_eq!((ev.u, ev.v), (report.plan[i].0, report.plan[i].1));
        }
        let stats = runner.stats();
        assert_eq!((stats.submitted, stats.completed, stats.failed), (1, 1, 0));
    }

    #[test]
    fn submit_rejects_invalid_specs_and_full_queue() {
        let g = cycle(12);
        let lv = live(&g);
        let runner = runner(&lv, None);
        let mut bad = spec(OptimizerKind::Simple, 2);
        bad.source = 99;
        assert!(matches!(runner.submit(bad), Err(JobSubmitError::Invalid(_))));
        let mut bad = spec(OptimizerKind::Simple, 2);
        bad.k = 0;
        assert!(matches!(runner.submit(bad), Err(JobSubmitError::Invalid(_))));
        let mut bad = spec(OptimizerKind::Far, 2);
        bad.eps = -1.0;
        assert!(matches!(runner.submit(bad), Err(JobSubmitError::Invalid(_))));
        assert!(JobRunner::start(
            Arc::clone(&lv),
            &JobsConfig { max_jobs: 0, queue_depth: 1, job_dir: None },
            Box::new(|| false),
        )
        .is_err());
    }

    #[test]
    fn oversized_budget_fails_the_job_not_the_runner() {
        let g = cycle(8);
        let live = live(&g);
        let runner = runner(&live, None);
        // k exceeding the REMD candidate set is an optimizer error.
        let id = runner.submit(spec(OptimizerKind::Far, 100)).unwrap();
        let report = runner.wait(id, WAIT).unwrap();
        assert_eq!(report.state, "failed");
        assert!(report.detail.contains("budget"), "{}", report.detail);
        // The runner survives and takes the next job.
        let id = runner.submit(spec(OptimizerKind::Far, 2)).unwrap();
        assert_eq!(runner.wait(id, WAIT).unwrap().state, "completed");
    }

    #[test]
    fn cancel_stops_the_job_cleanly() {
        let _fp = failpoint::test_lock();
        let g = barabasi_albert(40, 2, 3);
        let live = live(&g);
        let runner = runner(&live, None);
        // Slow each iteration down so cancel lands mid-run.
        failpoint::configure("job.iterate", failpoint::Action::Delay(40), None);
        let id = runner.submit(spec(OptimizerKind::Simple, 8)).unwrap();
        // Wait for the first event so the run is demonstrably underway.
        let (events, _) = runner.events(id, 0, true, WAIT).unwrap();
        assert!(!events.is_empty());
        runner.cancel(id).unwrap();
        let report = runner.wait(id, WAIT).unwrap();
        failpoint::clear("job.iterate");
        assert_eq!(report.state, "cancelled", "{}", report.detail);
        assert!(report.plan.len() < 8, "cancelled before the full budget");
        assert_eq!(runner.stats().cancelled, 1);
    }

    #[test]
    fn panicking_job_is_contained() {
        let _fp = failpoint::test_lock();
        let g = cycle(10);
        let live = live(&g);
        let runner = runner(&live, None);
        failpoint::configure("job.iterate", failpoint::Action::Panic, Some(1));
        let id = runner.submit(spec(OptimizerKind::Simple, 2)).unwrap();
        let report = runner.wait(id, WAIT).unwrap();
        assert_eq!(report.state, "failed");
        assert!(report.detail.contains("panicked"), "{}", report.detail);
        assert_eq!(runner.stats().failed, 1);
        // The runner thread survived the panic.
        let id = runner.submit(spec(OptimizerKind::Simple, 2)).unwrap();
        assert_eq!(runner.wait(id, WAIT).unwrap().state, "completed");
    }

    #[test]
    fn checkpointed_job_resumes_bitwise_after_interruption() {
        let g = barabasi_albert(26, 2, 7);
        let lv = live(&g);
        let job_spec = spec(OptimizerKind::MinRecc, 3);
        // Uninterrupted reference run.
        let reference = {
            let runner = runner(&lv, None);
            let id = runner.submit(job_spec).unwrap();
            let report = runner.wait(id, WAIT).unwrap();
            assert_eq!(report.state, "completed", "{}", report.detail);
            report.plan
        };
        // Handcraft the state a `kill -9` after the first accepted edge
        // leaves behind: header + one durable record + half of a second
        // record (crash mid-append).
        let dir = temp_dir("resume");
        let path = checkpoint_path(&dir, 0);
        let fp = lv.view().fingerprint;
        let mut w = CheckpointWriter::create(&path, 0, fp, &job_spec).unwrap();
        let (u0, v0, s0) = reference[0];
        w.append(&JobRecord { u: u0, v: v0, score: s0 }).unwrap();
        drop(w);
        {
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x5a; RECORD_LEN / 2]).unwrap();
        }
        // Restart: the torn tail is truncated, the 1-edge prefix replays,
        // and the finished plan matches the uninterrupted run bitwise.
        let runner = runner(&lv, Some(dir.clone()));
        assert_eq!(runner.resumed_on_start(), 1);
        let report = runner.wait(0, WAIT).unwrap();
        assert_eq!(report.state, "completed", "{}", report.detail);
        assert_eq!(report.resumed, 1);
        assert_eq!(report.plan.len(), reference.len());
        for (got, want) in report.plan.iter().zip(&reference) {
            assert_eq!((got.0, got.1), (want.0, want.1));
            assert_eq!(got.2.to_bits(), want.2.to_bits(), "scores must match bitwise");
        }
        let (events, terminal) = runner.events(0, 0, false, WAIT).unwrap();
        assert!(terminal);
        assert_eq!(events.len(), 3);
        assert!(events[0].replayed && !events[1].replayed);
        // Completed: the checkpoint is gone.
        assert!(!checkpoint_path(&dir, 0).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_fails_resume_cleanly() {
        let _fp = failpoint::test_lock();
        let dir = temp_dir("fpmm");
        let g = cycle(10);
        let lv = live(&g);
        {
            let runner = runner(&lv, Some(dir.clone()));
            failpoint::configure("job.iterate", failpoint::Action::IoError, Some(1));
            let id = runner.submit(spec(OptimizerKind::Far, 2)).unwrap();
            let report = runner.wait(id, WAIT).unwrap();
            failpoint::clear("job.iterate");
            assert_eq!(report.state, "failed");
        }
        // Restart against a different graph.
        let other = live(&barabasi_albert(20, 2, 9));
        let runner = runner(&other, Some(dir.clone()));
        assert_eq!(runner.resumed_on_start(), 0);
        let report = runner.status(0).unwrap();
        assert_eq!(report.state, "failed");
        assert!(report.detail.contains("fingerprint"), "{}", report.detail);
        assert!(checkpoint_path(&dir, 0).exists(), "evidence kept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_swap_during_job_is_reported() {
        let _fp = failpoint::test_lock();
        let g = barabasi_albert(30, 2, 5);
        // A tiny error budget: the first mutation kicks a re-sketch.
        let engine = Arc::new(
            QueryEngine::build(
                &g,
                &SketchParams { epsilon: 0.4, seed: 5, ..Default::default() },
            )
            .unwrap(),
        );
        let lv = LiveEngine::ephemeral(engine, Some(1e-6));
        let runner = runner(&lv, None);
        // Slow iterations so the swap lands while the job is mid-run.
        failpoint::configure("job.iterate", failpoint::Action::Delay(100), None);
        let id = runner.submit(spec(OptimizerKind::Simple, 4)).unwrap();
        let (events, _) = runner.events(id, 0, true, WAIT).unwrap();
        assert!(!events.is_empty());
        let receipt = lv.apply_mutation(crate::wal::WalOp::AddEdge, 0, 29).unwrap();
        assert!(receipt.resketch_kicked);
        lv.join_resketch();
        assert_eq!(lv.epoch(), 1);
        let report = runner.wait(id, WAIT).unwrap();
        failpoint::clear("job.iterate");
        assert_eq!(report.state, "completed", "{}", report.detail);
        assert!(report.epoch_swapped, "swap between submit and finish must be reported");
        assert_eq!(report.plan.len(), 4, "pinned view unaffected by the swap");
    }
}
