//! Crash-safe write-ahead edge log for live mutable serving.
//!
//! Every accepted `add-edge` / `remove-edge` mutation is appended (and
//! fsynced) here *before* the client sees an ack, so a `kill -9` at any
//! point can be recovered by replaying the log on top of the epoch's
//! base snapshot. The format is deliberately dumb — fixed-size records,
//! per-record FNV-1a checksums, no compression — because the recovery
//! path must be auditable byte-for-byte.
//!
//! # On-disk layout (per epoch, inside `--wal-dir`)
//!
//! ```text
//! CURRENT            decimal epoch number + '\n' (atomic rename flip)
//! epoch-N.graph      base edge list (text, `u v` per line)
//! epoch-N.sketch     base sketch snapshot (crate::snapshot v1 format)
//! wal-N.log          this module: header + mutation records
//! ```
//!
//! # WAL file format (version 1, all integers little-endian)
//!
//! ```text
//! header (28 bytes): magic "REECCWAL" | version u32 | epoch u64 | base-graph fingerprint u64
//! record (33 bytes): op u8 (1 = add, 2 = remove) | u u64 | v u64 | seq u64 | fnv1a u64
//! ```
//!
//! The record checksum is FNV-1a over the first 25 bytes. `seq` is the
//! mutation's position in the *engine's* total mutation order (monotone
//! across epochs); replay uses it to re-derive the deterministic
//! projection-column seed, so a replayed add is bitwise identical to the
//! originally served one.
//!
//! # Torn-tail contract
//!
//! Mirrors the snapshot fuzz contract from DESIGN.md §7: a trailing
//! partial record (crash mid-append) is *tolerated* — parsing stops at
//! the last complete record and reopening for append truncates the torn
//! bytes. A complete record with a bad checksum, or a truncated header,
//! is a **typed error** ([`WalError::Corrupt`] / [`WalError::Truncated`]),
//! never a panic and never silently-wrong data.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use reecc_graph::fingerprint::Fnv1a;
use reecc_graph::Edge;

use crate::failpoint;
use crate::snapshot::atomic_replace;

/// First 8 bytes of every WAL file.
pub const MAGIC: [u8; 8] = *b"REECCWAL";
/// Format version written by this build.
pub const FORMAT_VERSION: u32 = 1;
/// Header length in bytes: magic + version + epoch + fingerprint.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;
/// Record length in bytes: op + u + v + seq + checksum.
pub const RECORD_LEN: usize = 1 + 8 + 8 + 8 + 8;

const OP_ADD: u8 = 1;
const OP_REMOVE: u8 = 2;

/// The kind of mutation a WAL record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// Insert the edge `(u, v)`.
    AddEdge,
    /// Delete the edge `(u, v)`.
    RemoveEdge,
}

/// One durable mutation: an edge op plus its global sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord {
    /// What to do with the edge.
    pub op: WalOp,
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// Position in the engine's total mutation order; seeds the
    /// projection column for adds, so replay is deterministic.
    pub seq: u64,
}

impl WalRecord {
    /// The edge this record mutates.
    pub fn edge(&self) -> Edge {
        Edge::new(self.u, self.v)
    }
}

/// Typed WAL failures. Recovery code matches on these; none of the
/// parsing paths panic on any input byte string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An underlying filesystem operation failed (or a `wal.append` /
    /// `wal.replay` failpoint injected one).
    Io(String),
    /// The file does not start with the `REECCWAL` magic.
    BadMagic,
    /// The file declares a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The file ends before a complete header — distinct from a torn
    /// record tail, which is tolerated.
    Truncated {
        /// File length in bytes.
        len: usize,
    },
    /// A complete record failed validation (checksum mismatch, unknown
    /// op byte, endpoint order).
    Corrupt {
        /// Byte offset of the offending record.
        offset: usize,
        /// What failed.
        detail: String,
    },
    /// The header's epoch does not match the epoch named by `CURRENT`.
    EpochMismatch {
        /// Epoch the caller expected.
        expected: u64,
        /// Epoch recorded in the WAL header.
        found: u64,
    },
    /// The header's base-graph fingerprint does not match the loaded
    /// epoch snapshot.
    FingerprintMismatch {
        /// Fingerprint the caller expected.
        expected: u64,
        /// Fingerprint recorded in the WAL header.
        found: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "wal i/o error: {msg}"),
            WalError::BadMagic => write!(f, "not a reecc WAL file (bad magic)"),
            WalError::UnsupportedVersion(v) => {
                write!(f, "unsupported WAL format version {v} (this build reads {FORMAT_VERSION})")
            }
            WalError::Truncated { len } => {
                write!(f, "WAL truncated inside header ({len} bytes, need {HEADER_LEN})")
            }
            WalError::Corrupt { offset, detail } => {
                write!(f, "corrupt WAL record at byte {offset}: {detail}")
            }
            WalError::EpochMismatch { expected, found } => {
                write!(f, "WAL is for epoch {found}, expected epoch {expected}")
            }
            WalError::FingerprintMismatch { expected, found } => write!(
                f,
                "WAL base-graph fingerprint {found:#018x} does not match snapshot {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for WalError {}

/// Path of the epoch pointer file inside `dir`.
pub fn current_path(dir: &Path) -> PathBuf {
    dir.join("CURRENT")
}

/// Path of epoch `n`'s base edge list inside `dir`.
pub fn graph_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("epoch-{n}.graph"))
}

/// Path of epoch `n`'s base sketch snapshot inside `dir`.
pub fn sketch_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("epoch-{n}.sketch"))
}

/// Path of epoch `n`'s write-ahead log inside `dir`.
pub fn wal_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("wal-{n}.log"))
}

/// Read the `CURRENT` pointer: `Ok(None)` when the file does not exist
/// (fresh directory), `Ok(Some(epoch))` otherwise.
///
/// # Errors
///
/// [`WalError::Io`] on read failure, [`WalError::Corrupt`] when the
/// contents are not a decimal epoch number.
pub fn read_current(dir: &Path) -> Result<Option<u64>, WalError> {
    let path = current_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(WalError::Io(format!("cannot read {}: {e}", path.display()))),
    };
    text.trim().parse::<u64>().map(Some).map_err(|_| WalError::Corrupt {
        offset: 0,
        detail: format!("CURRENT does not contain an epoch number: {:?}", text.trim()),
    })
}

/// Atomically flip the `CURRENT` pointer to epoch `n` (temp + fsync +
/// rename + parent-dir fsync). This is the *commit point* of an epoch
/// swap: a crash before it recovers the old epoch, after it the new one.
///
/// # Errors
///
/// [`WalError::Io`] with the underlying message.
pub fn write_current(dir: &Path, n: u64) -> Result<(), WalError> {
    atomic_replace(&current_path(dir), format!("{n}\n").as_bytes(), None).map_err(WalError::Io)
}

fn encode_header(epoch: u64, fingerprint: u64) -> [u8; HEADER_LEN] {
    let mut buf = [0u8; HEADER_LEN];
    buf[..8].copy_from_slice(&MAGIC);
    buf[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf[12..20].copy_from_slice(&epoch.to_le_bytes());
    buf[20..28].copy_from_slice(&fingerprint.to_le_bytes());
    buf
}

/// Serialize one record, checksum included.
pub fn encode_record(rec: &WalRecord) -> [u8; RECORD_LEN] {
    let mut buf = [0u8; RECORD_LEN];
    buf[0] = match rec.op {
        WalOp::AddEdge => OP_ADD,
        WalOp::RemoveEdge => OP_REMOVE,
    };
    buf[1..9].copy_from_slice(&(rec.u as u64).to_le_bytes());
    buf[9..17].copy_from_slice(&(rec.v as u64).to_le_bytes());
    buf[17..25].copy_from_slice(&rec.seq.to_le_bytes());
    let mut h = Fnv1a::new();
    h.update(&buf[..25]);
    buf[25..33].copy_from_slice(&h.finish().to_le_bytes());
    buf
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Decode one complete record starting at `offset` within the file
/// (`bytes` is exactly `RECORD_LEN` long; `offset` is for error text).
///
/// # Errors
///
/// [`WalError::Corrupt`] on checksum mismatch, unknown op byte, or
/// non-canonical endpoints; never panics.
pub fn decode_record(bytes: &[u8], offset: usize) -> Result<WalRecord, WalError> {
    debug_assert_eq!(bytes.len(), RECORD_LEN);
    let mut h = Fnv1a::new();
    h.update(&bytes[..25]);
    let want = h.finish();
    let got = u64_at(bytes, 25);
    if want != got {
        return Err(WalError::Corrupt {
            offset,
            detail: format!("checksum mismatch (stored {got:#018x}, computed {want:#018x})"),
        });
    }
    let op = match bytes[0] {
        OP_ADD => WalOp::AddEdge,
        OP_REMOVE => WalOp::RemoveEdge,
        other => {
            return Err(WalError::Corrupt {
                offset,
                detail: format!("unknown op byte {other}"),
            })
        }
    };
    let u = u64_at(bytes, 1);
    let v = u64_at(bytes, 9);
    if u >= v {
        return Err(WalError::Corrupt {
            offset,
            detail: format!("endpoints ({u}, {v}) are not in canonical order"),
        });
    }
    Ok(WalRecord { op, u: u as usize, v: v as usize, seq: u64_at(bytes, 17) })
}

/// A parsed WAL file: validated header plus every complete record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalContents {
    /// Epoch recorded in the header.
    pub epoch: u64,
    /// Base-graph fingerprint recorded in the header.
    pub fingerprint: u64,
    /// Every complete, checksum-valid record, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes consumed (header + complete records); anything past this is
    /// a torn tail from a crash mid-append.
    pub consumed: usize,
    /// Torn-tail bytes past the last complete record (0 for a clean log).
    pub torn_bytes: usize,
}

/// Parse an in-memory WAL image. Tolerates a torn trailing record
/// (reported via `torn_bytes`), rejects everything else with a typed
/// error.
///
/// # Errors
///
/// [`WalError::Truncated`] when the header itself is incomplete,
/// [`WalError::BadMagic`] / [`WalError::UnsupportedVersion`] on header
/// validation, [`WalError::Corrupt`] when a *complete* record fails its
/// checksum or decodes to nonsense.
pub fn parse_wal(bytes: &[u8]) -> Result<WalContents, WalError> {
    if bytes.len() < HEADER_LEN {
        return Err(WalError::Truncated { len: bytes.len() });
    }
    if bytes[..8] != MAGIC {
        return Err(WalError::BadMagic);
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != FORMAT_VERSION {
        return Err(WalError::UnsupportedVersion(version));
    }
    let epoch = u64_at(bytes, 12);
    let fingerprint = u64_at(bytes, 20);
    let mut records = Vec::new();
    let mut offset = HEADER_LEN;
    while offset + RECORD_LEN <= bytes.len() {
        records.push(decode_record(&bytes[offset..offset + RECORD_LEN], offset)?);
        offset += RECORD_LEN;
    }
    Ok(WalContents {
        epoch,
        fingerprint,
        records,
        consumed: offset,
        torn_bytes: bytes.len() - offset,
    })
}

/// Read and parse `path`, validating the header against the epoch and
/// base fingerprint the caller recovered from `CURRENT` + the snapshot.
///
/// # Errors
///
/// Everything [`parse_wal`] rejects, plus [`WalError::EpochMismatch`] /
/// [`WalError::FingerprintMismatch`] on header disagreement and
/// [`WalError::Io`] on read failure.
pub fn read_wal(
    path: &Path,
    expected_epoch: u64,
    expected_fp: u64,
) -> Result<WalContents, WalError> {
    let bytes = std::fs::read(path)
        .map_err(|e| WalError::Io(format!("cannot read {}: {e}", path.display())))?;
    let contents = parse_wal(&bytes)?;
    if contents.epoch != expected_epoch {
        return Err(WalError::EpochMismatch {
            expected: expected_epoch,
            found: contents.epoch,
        });
    }
    if contents.fingerprint != expected_fp {
        return Err(WalError::FingerprintMismatch {
            expected: expected_fp,
            found: contents.fingerprint,
        });
    }
    Ok(contents)
}

/// Append-only writer for one epoch's WAL file.
///
/// [`WalWriter::append`] is the durability point of the mutation path:
/// it returns only after the record bytes are flushed *and* fsynced, so
/// an acked mutation survives `kill -9`. On any append failure the file
/// is rolled back to its pre-append length — a failed append never
/// leaves a half-record for the next reader to trip over (the torn-tail
/// tolerance exists for power loss, not for routine errors).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    epoch: u64,
    bytes: u64,
}

impl WalWriter {
    /// Create a fresh WAL at `path` for `epoch`, header fsynced before
    /// returning.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`].
    pub fn create(path: &Path, epoch: u64, fingerprint: u64) -> Result<WalWriter, WalError> {
        let io = |what: &str, e: std::io::Error| {
            WalError::Io(format!("{what} {}: {e}", path.display()))
        };
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io("cannot create", e))?;
        let header = encode_header(epoch, fingerprint);
        file.write_all(&header).map_err(|e| io("cannot write header to", e))?;
        file.sync_data().map_err(|e| io("cannot sync", e))?;
        crate::snapshot::sync_parent_dir(path);
        Ok(WalWriter { file, path: path.to_path_buf(), epoch, bytes: HEADER_LEN as u64 })
    }

    /// Reopen an existing WAL for appending: parse + validate the whole
    /// file, truncate any torn tail, seek to the end, and return the
    /// writer together with the records already on disk.
    ///
    /// # Errors
    ///
    /// Everything [`read_wal`] rejects, plus [`WalError::Io`].
    pub fn open_append(
        path: &Path,
        expected_epoch: u64,
        expected_fp: u64,
    ) -> Result<(WalWriter, Vec<WalRecord>), WalError> {
        let io = |what: &str, e: std::io::Error| {
            WalError::Io(format!("{what} {}: {e}", path.display()))
        };
        let contents = read_wal(path, expected_epoch, expected_fp)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io("cannot open", e))?;
        if contents.torn_bytes > 0 {
            // Crash mid-append: drop the torn tail so our next append
            // starts on a record boundary.
            file.set_len(contents.consumed as u64).map_err(|e| io("cannot truncate", e))?;
            file.sync_data().map_err(|e| io("cannot sync", e))?;
        }
        file.seek(SeekFrom::Start(contents.consumed as u64))
            .map_err(|e| io("cannot seek in", e))?;
        let writer = WalWriter {
            file,
            path: path.to_path_buf(),
            epoch: expected_epoch,
            bytes: contents.consumed as u64,
        };
        Ok((writer, contents.records))
    }

    /// Epoch this writer's file belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current durable file length in bytes (the `wal_bytes` stat).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Durably append one record: write + flush + `fdatasync` before
    /// returning, so the caller may ack the mutation. The `wal.append`
    /// failpoint fires first — an injected i/o error surfaces exactly
    /// like a full disk, before any bytes land.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`]; the file is rolled back to its pre-append
    /// length so the log never holds a known-bad suffix.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64, WalError> {
        failpoint::hit("wal.append").map_err(WalError::Io)?;
        let io = |what: &str, e: std::io::Error| {
            WalError::Io(format!("{what} {}: {e}", self.path.display()))
        };
        let buf = encode_record(rec);
        let result = self
            .file
            .write_all(&buf)
            .and_then(|()| self.file.flush())
            .and_then(|()| self.file.sync_data());
        if let Err(e) = result {
            // Roll back a partial write; best-effort — if even set_len
            // fails the torn-tail tolerance covers the remainder.
            let _ = self.file.set_len(self.bytes);
            let _ = self.file.seek(SeekFrom::Start(self.bytes));
            return Err(io("cannot append to", e));
        }
        self.bytes += RECORD_LEN as u64;
        Ok(self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("reecc-wal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord { op: WalOp::AddEdge, u: 0, v: 7, seq: 0 },
            WalRecord { op: WalOp::RemoveEdge, u: 2, v: 3, seq: 1 },
            WalRecord { op: WalOp::AddEdge, u: 1, v: 9, seq: 2 },
            WalRecord { op: WalOp::AddEdge, u: 4, v: 5, seq: 3 },
            WalRecord { op: WalOp::RemoveEdge, u: 0, v: 7, seq: 4 },
        ]
    }

    fn full_image(epoch: u64, fp: u64, recs: &[WalRecord]) -> Vec<u8> {
        let mut bytes = encode_header(epoch, fp).to_vec();
        for r in recs {
            bytes.extend_from_slice(&encode_record(r));
        }
        bytes
    }

    #[test]
    fn record_encode_decode_round_trips() {
        for rec in sample_records() {
            let buf = encode_record(&rec);
            assert_eq!(decode_record(&buf, 0).unwrap(), rec);
        }
    }

    #[test]
    fn writer_round_trips_through_open_append() {
        let dir = temp_dir("rt");
        let path = wal_path(&dir, 3);
        let recs = sample_records();
        let mut w = WalWriter::create(&path, 3, 0xfeed).unwrap();
        for r in &recs[..3] {
            w.append(r).unwrap();
        }
        drop(w);
        let (mut w, on_disk) = WalWriter::open_append(&path, 3, 0xfeed).unwrap();
        assert_eq!(on_disk, recs[..3].to_vec());
        for r in &recs[3..] {
            w.append(r).unwrap();
        }
        assert_eq!(w.bytes(), (HEADER_LEN + 5 * RECORD_LEN) as u64);
        drop(w);
        let contents = read_wal(&path, 3, 0xfeed).unwrap();
        assert_eq!(contents.records, recs);
        assert_eq!(contents.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_prefix_truncation_is_typed_or_tolerated() {
        // The snapshot fuzz contract, ported to the WAL: truncate the
        // image at EVERY byte boundary. Below a full header => typed
        // Truncated error. At or past the header => Ok, with exactly the
        // complete records visible and the remainder reported torn.
        let recs = sample_records();
        let image = full_image(9, 0xabcd, &recs);
        for cut in 0..=image.len() {
            let result = parse_wal(&image[..cut]);
            if cut < HEADER_LEN {
                assert_eq!(
                    result,
                    Err(WalError::Truncated { len: cut }),
                    "cut at {cut} must be a typed header truncation"
                );
            } else {
                let contents = result.unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
                let whole = (cut - HEADER_LEN) / RECORD_LEN;
                assert_eq!(contents.records, recs[..whole].to_vec(), "cut at {cut}");
                assert_eq!(contents.torn_bytes, cut - HEADER_LEN - whole * RECORD_LEN);
            }
        }
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let dir = temp_dir("torn");
        let path = wal_path(&dir, 0);
        let recs = sample_records();
        let mut image = full_image(0, 1, &recs[..2]);
        image.extend_from_slice(&encode_record(&recs[2])[..RECORD_LEN / 2]); // torn append
        std::fs::write(&path, &image).unwrap();
        let (mut w, on_disk) = WalWriter::open_append(&path, 0, 1).unwrap();
        assert_eq!(on_disk, recs[..2].to_vec());
        assert_eq!(w.bytes(), (HEADER_LEN + 2 * RECORD_LEN) as u64);
        w.append(&recs[3]).unwrap();
        drop(w);
        let contents = read_wal(&path, 0, 1).unwrap();
        assert_eq!(contents.records, vec![recs[0], recs[1], recs[3]]);
        assert_eq!(contents.torn_bytes, 0, "reopen truncated the torn tail");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_record_is_a_typed_error_never_panic() {
        let recs = sample_records();
        let clean = full_image(1, 2, &recs);
        // Flip one byte in each record in turn; every complete-record
        // corruption must surface as Corrupt at that record's offset.
        for k in 0..recs.len() {
            let mut image = clean.clone();
            let offset = HEADER_LEN + k * RECORD_LEN;
            image[offset + 5] ^= 0x40;
            match parse_wal(&image) {
                Err(WalError::Corrupt { offset: at, .. }) => assert_eq!(at, offset),
                other => panic!("record {k}: expected Corrupt, got {other:?}"),
            }
        }
        // Bad magic and bad version are their own variants.
        let mut image = clean.clone();
        image[0] = b'X';
        assert_eq!(parse_wal(&image), Err(WalError::BadMagic));
        let mut image = clean;
        image[8] = 99;
        assert_eq!(parse_wal(&image), Err(WalError::UnsupportedVersion(99)));
    }

    #[test]
    fn header_mismatches_are_typed() {
        let dir = temp_dir("hdr");
        let path = wal_path(&dir, 5);
        WalWriter::create(&path, 5, 777).unwrap();
        assert_eq!(
            read_wal(&path, 6, 777),
            Err(WalError::EpochMismatch { expected: 6, found: 5 })
        );
        assert_eq!(
            read_wal(&path, 5, 778),
            Err(WalError::FingerprintMismatch { expected: 778, found: 777 })
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_append_rolls_back_and_recovers() {
        let dir = temp_dir("fp");
        let path = wal_path(&dir, 0);
        let mut w = WalWriter::create(&path, 0, 0).unwrap();
        let recs = sample_records();
        w.append(&recs[0]).unwrap();
        crate::failpoint::configure("wal.append", crate::failpoint::Action::IoError, Some(1));
        let err = w.append(&recs[1]).unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "{err:?}");
        assert_eq!(w.bytes(), (HEADER_LEN + RECORD_LEN) as u64, "length unchanged on failure");
        // The very next append succeeds and the log stays clean.
        w.append(&recs[2]).unwrap();
        drop(w);
        let contents = read_wal(&path, 0, 0).unwrap();
        assert_eq!(contents.records, vec![recs[0], recs[2]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn current_pointer_round_trips_and_rejects_garbage() {
        let dir = temp_dir("cur");
        assert_eq!(read_current(&dir), Ok(None), "fresh dir has no CURRENT");
        write_current(&dir, 0).unwrap();
        assert_eq!(read_current(&dir), Ok(Some(0)));
        write_current(&dir, 12).unwrap();
        assert_eq!(read_current(&dir), Ok(Some(12)));
        std::fs::write(current_path(&dir), b"not-an-epoch\n").unwrap();
        assert!(matches!(read_current(&dir), Err(WalError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }
}
