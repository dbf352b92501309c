//! Persistent sketch snapshots: build the APPROXER sketch once, serve it
//! forever.
//!
//! A snapshot is a versioned little-endian binary file:
//!
//! ```text
//! magic            8  b"REECCSK\0"
//! format version   4  u32 (currently 1)
//! graph fingerprint 8 u64   (reecc_graph::fingerprint, representation-level)
//! epsilon          8  f64 bit pattern
//! node count n     8  u64
//! row count d      8  u64
//! rows           d·n·8 f64 bit patterns, row-major
//! hull length      8  u64
//! hull vertices  l·8  u64 node ids
//! diagnostics      …  rows, converged_first_try, then the four index
//!                     lists (repaired / fallback / dropped / unconverged)
//!                     each as u64 length + u64 entries
//! checksum         8  u64 FNV-1a over every preceding byte
//! ```
//!
//! `load` verifies the checksum before interpreting anything, so a single
//! flipped byte anywhere in the file is a [`SnapshotError::ChecksumMismatch`],
//! and [`SketchSnapshot::into_engine`] refuses to marry a snapshot to a
//! graph whose fingerprint differs ([`SnapshotError::FingerprintMismatch`]).
//! A truncated file — any prefix of a valid snapshot — is always a typed
//! error naming the byte offset, never a raw `UnexpectedEof`.
//!
//! # Crash safety
//!
//! [`SketchSnapshot::save`] is atomic: bytes go to a same-directory temp
//! file, which is fsynced and then renamed over the target. A reader (or
//! a crash) can therefore only ever observe the old complete snapshot or
//! the new complete snapshot at the target path — never a torn write.
//! [`SketchSnapshot::load_with_retry`] adds bounded retry-with-backoff
//! for *transient* failures (classified as [`SnapshotError::Io`]);
//! corruption and mismatches fail immediately, because re-reading a
//! damaged file cannot help.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::failpoint;

use reecc_core::{QueryEngine, ResistanceSketch, SketchDiagnostics, SketchParams};
use reecc_graph::fingerprint::{fingerprint, Fnv1a};
use reecc_graph::Graph;

/// File magic: identifies a reecc sketch snapshot.
pub const MAGIC: [u8; 8] = *b"REECCSK\0";
/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

/// Everything needed to restore a [`QueryEngine`] without rebuilding the
/// sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchSnapshot {
    /// Fingerprint of the graph the sketch was built for.
    pub fingerprint: u64,
    /// The `ε` the sketch targets.
    pub epsilon: f64,
    /// Graph order `n`.
    pub node_count: usize,
    /// Surviving sketch rows (`d × n`).
    pub rows: Vec<Vec<f64>>,
    /// Hull boundary vertex ids, in selection order.
    pub hull: Vec<usize>,
    /// The build's health record.
    pub diagnostics: SketchDiagnostics,
}

/// Failures while saving, loading, or validating snapshots. Corruption
/// ([`Self::ChecksumMismatch`]) and wrong-graph
/// ([`Self::FingerprintMismatch`]) are deliberately distinct variants so
/// operators can tell a damaged file from a stale one.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(String),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The trailing checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the contents.
        computed: u64,
    },
    /// The snapshot was built for a different graph.
    FingerprintMismatch {
        /// Fingerprint recorded in the snapshot.
        snapshot: u64,
        /// Fingerprint of the graph offered at load time.
        graph: u64,
    },
    /// The file is well-checksummed but structurally invalid (truncated
    /// counts, out-of-range ids, inconsistent diagnostics).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(m) => write!(f, "snapshot i/o error: {m}"),
            SnapshotError::BadMagic => {
                write!(f, "not a reecc sketch snapshot (bad magic)")
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "snapshot format version {v} is not supported (max {FORMAT_VERSION})")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#018x}, computed {computed:#018x}) \
                 — the file is corrupted"
            ),
            SnapshotError::FingerprintMismatch { snapshot, graph } => write!(
                f,
                "snapshot was built for a different graph (snapshot fingerprint \
                 {snapshot:#018x}, graph fingerprint {graph:#018x}) — rebuild with sketch-build"
            ),
            SnapshotError::Corrupt(m) => write!(f, "snapshot is malformed: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SketchSnapshot {
    /// Capture a snapshot of a built engine, stamping it with the
    /// fingerprint of the engine's graph.
    pub fn from_engine(engine: &QueryEngine) -> Self {
        SketchSnapshot {
            fingerprint: fingerprint(engine.graph()),
            epsilon: engine.sketch().epsilon(),
            node_count: engine.sketch().node_count(),
            rows: engine.sketch().to_rows(),
            hull: engine.hull().to_vec(),
            diagnostics: engine.sketch().diagnostics().clone(),
        }
    }

    /// Restore a [`QueryEngine`] against `g`, verifying the fingerprint
    /// and every structural invariant first. Sketch parameters not stored
    /// in the snapshot (CG options, recovery policy) take their defaults —
    /// they only affect what-if solves, not the persisted sketch.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::FingerprintMismatch`] when `g` is not the graph
    /// the sketch was built for; [`SnapshotError::Corrupt`] when the parts
    /// fail reassembly validation.
    pub fn into_engine(self, g: &Graph) -> Result<QueryEngine, SnapshotError> {
        self.into_engine_with_solver(g, None)
    }

    /// [`Self::into_engine`], adopting the runtime solver selection from
    /// `solver` when given: precision, preconditioner, threads, and block
    /// width — the knobs the serve CLI exposes — carry over, while the
    /// snapshot keeps authority over `epsilon` (and therefore over the
    /// error-budget default and CG tolerances derived from it). An auto
    /// Chebyshev request is resolved against `g` here, so the power
    /// iteration runs once at restore time and every downstream what-if
    /// or re-sketch reuses the cached estimate. Durable rank-1 mutations
    /// pin their own CG config and are unaffected by this selection.
    ///
    /// # Errors
    ///
    /// As [`Self::into_engine`].
    pub fn into_engine_with_solver(
        self,
        g: &Graph,
        solver: Option<&SketchParams>,
    ) -> Result<QueryEngine, SnapshotError> {
        let graph_fp = fingerprint(g);
        if graph_fp != self.fingerprint {
            return Err(SnapshotError::FingerprintMismatch {
                snapshot: self.fingerprint,
                graph: graph_fp,
            });
        }
        let sketch = ResistanceSketch::from_parts(
            self.rows,
            self.node_count,
            self.epsilon,
            self.diagnostics,
        )
        .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        let mut params = SketchParams::with_epsilon(self.epsilon);
        if let Some(s) = solver {
            params.precision = s.precision;
            params.threads = s.threads;
            params.block_size = s.block_size;
            params.cg.preconditioner = s.cg.preconditioner;
            params = params.resolved_for(g);
        }
        QueryEngine::from_parts(g.clone(), sketch, self.hull, params)
            .map_err(|e| SnapshotError::Corrupt(e.to_string()))
    }

    /// Serialized size in bytes (exact).
    pub fn encoded_len(&self) -> usize {
        let d = self.rows.len();
        let diag_lists = self.diagnostics.repaired.len()
            + self.diagnostics.fallback_rows.len()
            + self.diagnostics.dropped.len()
            + self.diagnostics.unconverged.len();
        8 + 4                      // magic + version
            + 8 + 8 + 8 + 8        // fingerprint, epsilon, n, d
            + d * self.node_count * 8
            + 8 + self.hull.len() * 8
            + 8 + 8                // diagnostics.rows, converged_first_try
            + 4 * 8 + diag_lists * 8
            + 8 // checksum
    }

    /// Encode to bytes (checksummed).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&self.fingerprint.to_le_bytes());
        buf.extend_from_slice(&self.epsilon.to_bits().to_le_bytes());
        buf.extend_from_slice(&(self.node_count as u64).to_le_bytes());
        buf.extend_from_slice(&(self.rows.len() as u64).to_le_bytes());
        for row in &self.rows {
            for &x in row {
                buf.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        push_index_list(&mut buf, &self.hull);
        buf.extend_from_slice(&(self.diagnostics.rows as u64).to_le_bytes());
        buf.extend_from_slice(&(self.diagnostics.converged_first_try as u64).to_le_bytes());
        push_index_list(&mut buf, &self.diagnostics.repaired);
        push_index_list(&mut buf, &self.diagnostics.fallback_rows);
        push_index_list(&mut buf, &self.diagnostics.dropped);
        push_index_list(&mut buf, &self.diagnostics.unconverged);
        let mut h = Fnv1a::new();
        h.update(&buf);
        buf.extend_from_slice(&h.finish().to_le_bytes());
        buf
    }

    /// Decode from bytes, verifying the checksum before interpreting
    /// anything else.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`]; every corruption mode maps to a distinct
    /// variant.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() {
            // A proper prefix of the magic is a truncated snapshot, not a
            // foreign file; report the offset, never an EOF panic path.
            if !bytes.is_empty() && MAGIC.starts_with(bytes) {
                return Err(SnapshotError::Corrupt(format!(
                    "truncated at byte {} inside the {}-byte magic",
                    bytes.len(),
                    MAGIC.len()
                )));
            }
            return Err(SnapshotError::BadMagic);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        // Magic + version + checksum is the smallest decodable file; below
        // that the trailing-checksum split itself would be out of bounds.
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(SnapshotError::Corrupt(format!(
                "truncated at byte {}: shorter than the {}-byte fixed header",
                bytes.len(),
                MAGIC.len() + 4 + 8
            )));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        let mut h = Fnv1a::new();
        h.update(body);
        let computed = h.finish();
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }

        let mut c = Cursor { bytes: body, pos: MAGIC.len() };
        let version = c.read_u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let fingerprint = c.read_u64()?;
        let epsilon = f64::from_bits(c.read_u64()?);
        let node_count = c.read_count("node count")?;
        let row_count = c.read_count("row count")?;
        let cells = row_count
            .checked_mul(node_count)
            .and_then(|x| x.checked_mul(8))
            .ok_or_else(|| SnapshotError::Corrupt("row matrix size overflows".into()))?;
        if cells > c.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "row matrix claims {cells} bytes but only {} remain",
                c.remaining()
            )));
        }
        let mut rows = Vec::with_capacity(row_count);
        for _ in 0..row_count {
            let mut row = Vec::with_capacity(node_count);
            for _ in 0..node_count {
                row.push(f64::from_bits(c.read_u64()?));
            }
            rows.push(row);
        }
        let hull = c.read_index_list("hull")?;
        let diagnostics = SketchDiagnostics {
            rows: c.read_count("diagnostics rows")?,
            converged_first_try: c.read_count("diagnostics converged count")?,
            repaired: c.read_index_list("repaired rows")?,
            fallback_rows: c.read_index_list("fallback rows")?,
            dropped: c.read_index_list("dropped rows")?,
            unconverged: c.read_index_list("unconverged rows")?,
        };
        if c.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} unexpected trailing bytes",
                c.remaining()
            )));
        }
        Ok(SketchSnapshot { fingerprint, epsilon, node_count, rows, hull, diagnostics })
    }

    /// Write to `writer` (encode + single write).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`].
    pub fn write_to<W: Write>(&self, mut writer: W) -> Result<usize, SnapshotError> {
        let bytes = self.to_bytes();
        writer.write_all(&bytes).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Ok(bytes.len())
    }

    /// Save to a file atomically, returning the byte count written.
    ///
    /// The bytes are written to a temp file in the target's directory,
    /// fsynced, and renamed into place, so no reader ever observes a
    /// partial snapshot at `path`: on any failure the previous contents
    /// of `path` (if any) are untouched and the temp file is removed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`].
    pub fn save(&self, path: &Path) -> Result<usize, SnapshotError> {
        let bytes = self.to_bytes();
        atomic_replace(path, &bytes, Some("snapshot.write")).map_err(SnapshotError::Io)?;
        Ok(bytes.len())
    }

    /// Read and decode from `reader`.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`].
    pub fn read_from<R: Read>(mut reader: R) -> Result<Self, SnapshotError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Self::from_bytes(&bytes)
    }

    /// Load from a file.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError`].
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        failpoint::hit("snapshot.load").map_err(SnapshotError::Io)?;
        let file = std::fs::File::open(path)
            .map_err(|e| SnapshotError::Io(format!("cannot open {}: {e}", path.display())))?;
        Self::read_from(std::io::BufReader::new(file))
    }

    /// Load from a file, retrying *transient* ([`SnapshotError::Io`])
    /// failures up to `policy.attempts` times with exponential backoff.
    /// Corruption, version, and fingerprint errors are returned
    /// immediately — re-reading a damaged file cannot fix it.
    ///
    /// Returns the snapshot and how many retries it took (0 = first try),
    /// which the serving layer surfaces as `snapshot_retries` in `stats`.
    ///
    /// # Errors
    ///
    /// The last [`SnapshotError::Io`] once the attempt budget is spent,
    /// or any non-transient error as soon as it occurs.
    pub fn load_with_retry(
        path: &Path,
        policy: &RetryPolicy,
    ) -> Result<(Self, u64), SnapshotError> {
        let attempts = policy.attempts.max(1);
        let mut backoff = policy.initial_backoff;
        let mut last = None;
        for attempt in 0..attempts {
            match Self::load(path) {
                Ok(snap) => return Ok((snap, u64::from(attempt))),
                Err(SnapshotError::Io(m)) => last = Some(SnapshotError::Io(m)),
                Err(fatal) => return Err(fatal),
            }
            if attempt + 1 < attempts {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
        }
        Err(last.expect("at least one attempt ran"))
    }

    /// A human-readable multi-line summary (the `sketch-info` report).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "snapshot format v{FORMAT_VERSION}");
        let _ = writeln!(out, "graph fingerprint: {:#018x}", self.fingerprint);
        let _ = writeln!(
            out,
            "sketch: n = {}, d = {} (of {} built), eps = {}",
            self.node_count,
            self.rows.len(),
            self.diagnostics.rows,
            self.epsilon
        );
        let _ = writeln!(out, "hull boundary: l = {}", self.hull.len());
        let _ = writeln!(
            out,
            "health: {} converged first try, {} repaired ({} via dense fallback), \
             {} unconverged, {} dropped",
            self.diagnostics.converged_first_try,
            self.diagnostics.repaired.len(),
            self.diagnostics.fallback_rows.len(),
            self.diagnostics.unconverged.len(),
            self.diagnostics.dropped.len()
        );
        let _ = writeln!(out, "encoded size: {} bytes", self.encoded_len());
        out
    }
}

/// Bounded retry-with-backoff knobs for [`SketchSnapshot::load_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total load attempts (clamped to at least 1).
    pub attempts: u32,
    /// Sleep before the first retry; doubles on each subsequent one.
    pub initial_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 3, initial_backoff: Duration::from_millis(50) }
    }
}

/// Atomically replace `path` with `bytes`: same-directory temp file +
/// fsync + rename + parent-directory fsync. Snapshots
/// ([`SketchSnapshot::save`]), epoch graph files and the WAL's `CURRENT`
/// pointer all go through it, so every durable-publish step in the
/// serving tier is one audited code path. The failpoint `site`, when
/// given, fires between the temp write and the rename: the window where
/// a crash must leave the target untouched.
///
/// # Errors
///
/// A human-readable message; the temp file is removed on failure and the
/// previous contents of `path` (if any) are untouched.
pub(crate) fn atomic_replace(
    path: &Path,
    bytes: &[u8],
    site: Option<&str>,
) -> Result<(), String> {
    let tmp = temp_sibling(path);
    let result = write_exclusive(&tmp, bytes).and_then(|()| {
        site.map_or(Ok(()), failpoint::hit)?;
        std::fs::rename(&tmp, path).map_err(|e| {
            format!("cannot rename {} over {}: {e}", tmp.display(), path.display())
        })
    });
    if let Err(e) = result {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    sync_parent_dir(path);
    Ok(())
}

/// A temp path in the same directory as `path` (rename must not cross
/// filesystems), unique per process so concurrent builders cannot tread
/// on each other's half-written files.
fn temp_sibling(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map_or_else(|| "snapshot".to_string(), |n| n.to_string_lossy().into_owned());
    path.with_file_name(format!(".{name}.tmp.{}", std::process::id()))
}

/// Write `bytes` to a fresh file at `tmp` and fsync it to disk.
fn write_exclusive(tmp: &Path, bytes: &[u8]) -> Result<(), String> {
    let io_err = |what: &str, e: std::io::Error| format!("{what} {}: {e}", tmp.display());
    let mut file = std::fs::File::create(tmp).map_err(|e| io_err("cannot create", e))?;
    file.write_all(bytes).map_err(|e| io_err("cannot write", e))?;
    // fsync before rename: without it, a power loss after the rename can
    // surface a correctly named file with missing tail pages.
    file.sync_all().map_err(|e| io_err("cannot fsync", e))
}

/// Best-effort fsync of the directory entry after a rename; on platforms
/// or filesystems where opening a directory fails this is skipped — the
/// rename itself already guarantees no torn file is visible.
pub(crate) fn sync_parent_dir(path: &Path) {
    #[cfg(unix)]
    {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(dir) = parent {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    #[cfg(not(unix))]
    let _ = path;
}

fn push_index_list(buf: &mut Vec<u8>, list: &[usize]) {
    buf.extend_from_slice(&(list.len() as u64).to_le_bytes());
    for &x in list {
        buf.extend_from_slice(&(x as u64).to_le_bytes());
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Corrupt(format!(
                "truncated: needed {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn read_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn read_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn read_count(&mut self, what: &str) -> Result<usize, SnapshotError> {
        let x = self.read_u64()?;
        usize::try_from(x)
            .map_err(|_| SnapshotError::Corrupt(format!("{what} {x} exceeds usize")))
    }

    fn read_index_list(&mut self, what: &str) -> Result<Vec<usize>, SnapshotError> {
        let len = self.read_count(what)?;
        if len.checked_mul(8).is_none_or(|bytes| bytes > self.remaining()) {
            return Err(SnapshotError::Corrupt(format!(
                "{what} claims {len} entries but only {} bytes remain",
                self.remaining()
            )));
        }
        (0..len).map(|_| self.read_count(what)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reecc_graph::generators::barabasi_albert;
    use reecc_graph::Edge;

    fn engine() -> QueryEngine {
        let g = barabasi_albert(40, 2, 9);
        QueryEngine::build(&g, &SketchParams { epsilon: 0.4, seed: 3, ..Default::default() })
            .unwrap()
    }

    #[test]
    fn byte_roundtrip_is_lossless() {
        let e = engine();
        let snap = SketchSnapshot::from_engine(&e);
        let bytes = snap.to_bytes();
        assert_eq!(bytes.len(), snap.encoded_len());
        let back = SketchSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn restored_engine_answers_identically() {
        let e = engine();
        let bytes = SketchSnapshot::from_engine(&e).to_bytes();
        let restored =
            SketchSnapshot::from_bytes(&bytes).unwrap().into_engine(e.graph()).unwrap();
        for v in [0usize, 13, 39] {
            assert_eq!(e.eccentricity(v), restored.eccentricity(v));
        }
        assert_eq!(e.hull(), restored.hull());
    }

    #[test]
    fn any_flipped_byte_is_detected() {
        let bytes = SketchSnapshot::from_engine(&engine()).to_bytes();
        // Flip one byte at a spread of offsets covering header, rows,
        // hull, diagnostics, and the checksum itself.
        let probes = [0, 9, 13, 21, 40, bytes.len() / 2, bytes.len() - 9, bytes.len() - 1];
        for &at in &probes {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            let err = SketchSnapshot::from_bytes(&bad).unwrap_err();
            assert!(
                matches!(err, SnapshotError::ChecksumMismatch { .. } | SnapshotError::BadMagic),
                "offset {at}: {err:?}"
            );
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let snap = SketchSnapshot::from_engine(&engine());
        let mut bytes = snap.to_bytes();
        // Bump the version and re-seal the checksum so only the version
        // check can object.
        bytes[8] = 2;
        let body_len = bytes.len() - 8;
        let mut h = Fnv1a::new();
        h.update(&bytes[..body_len]);
        let sum = h.finish().to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        assert_eq!(
            SketchSnapshot::from_bytes(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion(2)
        );
        assert_eq!(SketchSnapshot::from_bytes(b"PNG!").unwrap_err(), SnapshotError::BadMagic);
        assert_eq!(SketchSnapshot::from_bytes(&[]).unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn fingerprint_mismatch_is_its_own_error() {
        let e = engine();
        let snap = SketchSnapshot::from_engine(&e);
        let other = e.graph().with_edge(Edge::new(0, 39)).unwrap();
        let err = snap.into_engine(&other).unwrap_err();
        assert!(matches!(err, SnapshotError::FingerprintMismatch { .. }), "{err:?}");
        assert!(err.to_string().contains("different graph"), "{err}");
    }

    #[test]
    fn checksummed_but_inconsistent_content_is_corrupt() {
        let e = engine();
        let mut snap = SketchSnapshot::from_engine(&e);
        // Claim one more built row than the matrix carries; the encoding
        // is internally well-formed, so only semantic validation catches
        // it — at into_engine time.
        snap.diagnostics.rows += 1;
        let bytes = snap.to_bytes();
        let loaded = SketchSnapshot::from_bytes(&bytes).unwrap();
        let err = loaded.into_engine(e.graph()).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn every_truncation_prefix_is_a_typed_error_with_offset() {
        // A snapshot of a tiny engine keeps the loop over every prefix
        // length affordable (~1k prefixes).
        let g = barabasi_albert(12, 2, 5);
        let e = QueryEngine::build(
            &g,
            &SketchParams { epsilon: 0.9, seed: 1, ..Default::default() },
        )
        .unwrap();
        let bytes = SketchSnapshot::from_engine(&e).to_bytes();
        for len in 0..bytes.len() {
            let err = SketchSnapshot::from_bytes(&bytes[..len])
                .expect_err(&format!("prefix of {len} bytes must not decode"));
            match &err {
                SnapshotError::BadMagic => {
                    assert_eq!(len, 0, "only the empty prefix lacks magic evidence: {len}")
                }
                SnapshotError::Corrupt(msg) => {
                    assert!(
                        msg.contains("truncated") && msg.contains("byte"),
                        "prefix {len}: corrupt message must locate the cut: {msg}"
                    );
                }
                SnapshotError::ChecksumMismatch { .. } => {
                    assert!(len >= MAGIC.len() + 4 + 8, "prefix {len}: {err:?}");
                }
                other => panic!("prefix {len}: unexpected {other:?}"),
            }
        }
        assert!(SketchSnapshot::from_bytes(&bytes).is_ok(), "the full file still decodes");
    }

    #[test]
    fn save_is_atomic_overwrite_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("reecc-snap-at-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.sketch");
        let first = SketchSnapshot::from_engine(&engine());
        first.save(&path).unwrap();
        // Overwrite with a snapshot of a different engine; the new file
        // must fully replace the old one.
        let g = barabasi_albert(30, 2, 77);
        let e = QueryEngine::build(
            &g,
            &SketchParams { epsilon: 0.5, seed: 2, ..Default::default() },
        )
        .unwrap();
        let second = SketchSnapshot::from_engine(&e);
        second.save(&path).unwrap();
        assert_eq!(SketchSnapshot::load(&path).unwrap(), second);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|entry| entry.ok())
            .map(|entry| entry.file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive a save: {leftovers:?}");
    }

    #[test]
    fn retry_policy_does_not_retry_corruption() {
        let dir = std::env::temp_dir().join(format!("reecc-snap-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.sketch");
        let mut bytes = SketchSnapshot::from_engine(&engine()).to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let started = std::time::Instant::now();
        let err = SketchSnapshot::load_with_retry(
            &path,
            &RetryPolicy { attempts: 5, initial_backoff: Duration::from_millis(200) },
        )
        .unwrap_err();
        assert!(matches!(err, SnapshotError::ChecksumMismatch { .. }), "{err:?}");
        assert!(
            started.elapsed() < Duration::from_millis(150),
            "corruption must fail fast, without backoff sleeps"
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("reecc-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.sketch");
        let e = engine();
        let snap = SketchSnapshot::from_engine(&e);
        let written = snap.save(&path).unwrap();
        assert_eq!(written, snap.encoded_len());
        let back = SketchSnapshot::load(&path).unwrap();
        assert_eq!(back, snap);
        assert!(back.summary().contains("hull boundary"));
        assert!(matches!(
            SketchSnapshot::load(&dir.join("missing.sketch")).unwrap_err(),
            SnapshotError::Io(_)
        ));
    }
}
