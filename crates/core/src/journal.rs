//! Crash-safe, self-healing write-ahead run journal for long sweeps.
//!
//! The paper's methodology (and the ROADMAP's million-handset north star)
//! rests on *large completed batches* of sessions. A killed process must
//! not discard hours of finished work, so every fleet sweep can write a
//! durable, append-only journal:
//!
//! * one line per [`Record`], encoded as compact JSON;
//! * each line carries its own FNV-64 checksum, so any torn or flipped
//!   byte is detected on re-open;
//! * every append is `fsync`ed before it returns — a record either
//!   survives a crash whole, or not at all. A sweep appends its device
//!   records once per [`crate::crowd::STREAM_GROUP`] of device indices
//!   (one write and one fsync per group, not per device), so a kill loses
//!   at most the open group — up to 64 finished devices plus any in
//!   flight — and a resume re-simulates them bit-identically;
//! * [`Journal::open`] performs truncated-tail recovery: the valid prefix
//!   is kept, the torn tail (if any) is dropped and physically truncated,
//!   and the journal is ready to append again. Recovery reads in bounded
//!   chunks, so resuming a multi-gigabyte journal does not spike memory.
//!
//! All I/O goes through the [`crate::storage`] seam, which is what makes
//! the journal *provably* durable rather than hopefully so: the
//! crash-consistency torture harness runs whole sweeps on an in-memory
//! backend, crashes them at every I/O boundary, and asserts resume heals
//! the journal byte-identically. The same seam injects storage faults —
//! and the journal recovers instead of aborting:
//!
//! * transient errors (injected transient `EIO`, short writes, real
//!   `EINTR`) are retried with bounded simulated-time backoff, after
//!   repairing any partial tail the failed write left behind;
//! * persistent errors (`ENOSPC`, persistent `EIO`) quarantine the
//!   poisoned segment and **rotate**: the journal continues in a fresh
//!   `<path>.seg1`, `<path>.seg2`, … file, preserving the sealed prefix.
//!   [`Journal::open`] transparently reads a rotated chain back as one
//!   record stream. Both budgets are fixed: 4 retries per commit with a
//!   0.05 s first backoff, and 4 segments including the base file.
//!   [`StorageHealth`] reports what the healing machinery actually did;
//! * when every budget is exhausted the append finally errors, and the
//!   sweep's storage escalation decides between degrading and aborting
//!   (see [`crate::crowd::populate_parallel`]).
//!
//! [`fsck`] is the offline half: it scans a journal chain read-only,
//! reporting per-segment torn bytes, header/completeness, and duplicate
//! or out-of-sequence outcomes (`repro fsck` wires it to the command
//! line; repair is just [`Journal::open`], which truncates torn tails and
//! re-syncs).
//!
//! The record stream is: a [`Record::Header`] binding the journal to one
//! run configuration (via [`fnv64`] digest), per-device
//! [`Record::Outcome`]s (with the submitted score, so a resumed run can
//! rebuild the crowd database bit-identically), optional
//! [`Record::Supervision`]s for failed attempts and [`Record::Note`]s for
//! quarantine/fault events, and a final [`Record::Complete`] marker.
//! [`prepare_journal`] is the one reader of that protocol and
//! [`journal_outcome`] the one writer of device records; the sweep engine
//! ([`crate::crowd::populate_parallel`]) and the `accubench` binary, whose
//! journal is a one-device sweep journal, both go through them.
//!
//! [`CancelToken`] is the cooperative-cancellation half: a SIGINT/SIGTERM
//! handler (or a test) flips it, in-flight sessions finish their current
//! device, journal it, and return cleanly with `complete = false`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::crowd::SweepOutcome;
use crate::executor::PanicSummary;
use crate::storage::{classify, FaultClass, Storage, StorageFile, StorageHealth};
use crate::supervise::DeviceStatus;
use crate::BenchError;
use core::fmt;
use core::fmt::Write as _;
use pv_json::{FromJson, Json, ToJson};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// 64-bit FNV-1a over `bytes` — the journal's (and the export manifest's)
/// content checksum. Not cryptographic; it detects torn writes and bit
/// flips, which is all a single-writer journal needs.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Errors from journal I/O, recovery and resume validation.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure — after the journal's own retry and
    /// rotation budgets were exhausted, for append-path errors.
    Io(std::io::Error),
    /// `--resume` pointed at a journal written by a *different* sweep:
    /// the config digest in the header does not match the requested run.
    DigestMismatch {
        /// Digest recorded in the journal header.
        journaled: String,
        /// Digest of the sweep being resumed.
        requested: String,
    },
    /// The journal has records but no leading header — it was not written
    /// by a sweep (or the header itself was torn away).
    MissingHeader,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o: {e}"),
            JournalError::DigestMismatch {
                journaled,
                requested,
            } => write!(
                f,
                "journal belongs to a different sweep (journaled config digest \
                 {journaled}, requested {requested}); refusing to resume"
            ),
            JournalError::MissingHeader => {
                write!(f, "journal has records but no sweep header")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// One journaled event.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// First record of every journal: binds it to one sweep.
    Header {
        /// Device model being swept.
        model: String,
        /// [`fnv64`] digest (hex) of the sweep config + device labels;
        /// resume refuses to continue a journal whose digest differs.
        digest: String,
        /// Number of devices the sweep will run.
        devices: usize,
    },
    /// One device finished (with a verdict or a fatal error).
    Outcome {
        /// Zero-based device index within the sweep.
        index: usize,
        /// What happened to the device.
        outcome: SweepOutcome,
        /// The submitted mean score, when the session produced one —
        /// needed so a resumed run can re-populate the crowd database.
        score: Option<f64>,
        /// The submitted iteration-to-iteration RSD, when present.
        rsd: Option<f64>,
    },
    /// Free-form quarantine / fault-log annotation for one device.
    Note {
        /// Zero-based device index the note concerns.
        index: usize,
        /// Human-readable description.
        text: String,
    },
    /// One supervised attempt failed (panic, watchdog trip, or fatal
    /// session error). A device that later succeeds on retry keeps its
    /// failed attempts on the record; a quarantined device's last
    /// supervision record explains the hole in the fleet.
    Supervision {
        /// Zero-based device index the attempt belonged to.
        index: usize,
        /// One-based attempt number within the device's retry budget.
        attempt: u32,
        /// How the attempt ended (never [`DeviceStatus::Completed`]).
        status: DeviceStatus,
        /// Deterministic one-line failure description.
        detail: String,
    },
    /// The sweep ran every device; the journal is final.
    Complete {
        /// Number of devices that were journaled.
        devices: usize,
    },
}

impl ToJson for Record {
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        match self {
            Record::Header {
                model,
                digest,
                devices,
            } => {
                obj.insert("t", "header".to_json());
                obj.insert("model", model.to_json());
                obj.insert("digest", digest.to_json());
                obj.insert("devices", devices.to_json());
            }
            Record::Outcome {
                index,
                outcome,
                score,
                rsd,
            } => {
                obj.insert("t", "outcome".to_json());
                obj.insert("index", index.to_json());
                obj.insert("outcome", outcome.to_json());
                obj.insert("score", score.to_json());
                obj.insert("rsd", rsd.to_json());
            }
            Record::Note { index, text } => {
                obj.insert("t", "note".to_json());
                obj.insert("index", index.to_json());
                obj.insert("text", text.to_json());
            }
            Record::Supervision {
                index,
                attempt,
                status,
                detail,
            } => {
                obj.insert("t", "supervision".to_json());
                obj.insert("index", index.to_json());
                obj.insert("attempt", attempt.to_json());
                obj.insert("status", status.to_json());
                obj.insert("detail", detail.to_json());
            }
            Record::Complete { devices } => {
                obj.insert("t", "complete".to_json());
                obj.insert("devices", devices.to_json());
            }
        }
        obj
    }
}

impl FromJson for Record {
    fn from_json(value: &Json) -> Option<Self> {
        match value.get("t")?.as_str()? {
            "header" => Some(Record::Header {
                model: String::from_json(value.get("model")?)?,
                digest: String::from_json(value.get("digest")?)?,
                devices: usize::from_json(value.get("devices")?)?,
            }),
            "outcome" => Some(Record::Outcome {
                index: usize::from_json(value.get("index")?)?,
                outcome: SweepOutcome::from_json(value.get("outcome")?)?,
                score: <Option<f64>>::from_json(value.get("score")?)?,
                rsd: <Option<f64>>::from_json(value.get("rsd")?)?,
            }),
            "note" => Some(Record::Note {
                index: usize::from_json(value.get("index")?)?,
                text: String::from_json(value.get("text")?)?,
            }),
            "supervision" => Some(Record::Supervision {
                index: usize::from_json(value.get("index")?)?,
                attempt: u32::from_json(value.get("attempt")?)?,
                status: DeviceStatus::from_json(value.get("status")?)?,
                detail: String::from_json(value.get("detail")?)?,
            }),
            "complete" => Some(Record::Complete {
                devices: usize::from_json(value.get("devices")?)?,
            }),
            _ => None,
        }
    }
}

/// Encodes one record as its durable line: 16 hex checksum chars, a
/// space, compact JSON, newline.
pub fn encode_line(record: &Record) -> String {
    let payload = record.to_json().to_string_compact();
    format!("{:016x} {payload}\n", fnv64(payload.as_bytes()))
}

/// Decodes one line (without its trailing newline) back into a record,
/// verifying the checksum.
///
/// # Errors
///
/// Returns a static description of the first problem found: a malformed
/// frame, a checksum mismatch, or an unparseable payload.
pub fn decode_line(line: &str) -> Result<Record, &'static str> {
    let (sum, payload) = line.split_at_checked(16).ok_or("line shorter than frame")?;
    let payload = payload.strip_prefix(' ').ok_or("missing frame separator")?;
    let sum = u64::from_str_radix(sum, 16).map_err(|_| "malformed checksum")?;
    if sum != fnv64(payload.as_bytes()) {
        return Err("checksum mismatch");
    }
    let json = Json::from_str(payload).map_err(|_| "payload is not valid json")?;
    Record::from_json(&json).ok_or("payload is not a journal record")
}

/// Chunk size for streaming recovery reads. Small enough to keep resume
/// memory flat for arbitrarily large journals, large enough to amortise
/// per-read overhead.
const SCAN_CHUNK: usize = 64 * 1024;

/// Upper bound on a single journal line (without its newline) during
/// recovery. Real records are a few hundred bytes (the largest Notes carry
/// a capped backtrace); a longer line is torn tail, however the bytes
/// arrive, so recovery never buffers more than this.
const MAX_LINE: usize = 4 * 1024 * 1024;

/// Transient-error retries per commit before escalating to rotation.
const MAX_RETRIES: u32 = 4;

/// First simulated backoff in seconds; doubles per retry. Recorded in
/// [`StorageHealth::backoff_sim_s`], never slept: nothing in the journal
/// waits on the wall clock, so healing stays deterministic.
const BACKOFF_START_S: f64 = 0.05;

/// Maximum journal segments, including the base file. Rotation past this
/// budget fails the append.
const MAX_SEGMENTS: u32 = 4;

/// The one decoder of the journal's line format. It is fed the bytes of a
/// segment in any chunking — [`scan_file`] feeds [`SCAN_CHUNK`]-sized
/// reads, [`scan_bytes`] one whole slice — and yields the same records
/// either way: it holds at most one incomplete line, stops collecting at
/// the first line that is longer than [`MAX_LINE`], not valid UTF-8, or
/// fails [`decode_line`], and keeps counting bytes after that so recovery
/// knows how much tail to drop.
#[derive(Default)]
struct Scan {
    records: Vec<Record>,
    /// End-of-line byte offset of each valid record.
    ends: Vec<u64>,
    /// Total bytes fed (valid prefix + torn tail).
    total: u64,
    /// The incomplete line at the end of the bytes fed so far.
    carry: Vec<u8>,
    /// Set at the first invalid line: everything after it is torn tail.
    torn: bool,
}

impl Scan {
    fn valid_len(&self) -> u64 {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Decodes the complete lines of `chunk` (the first one continuing the
    /// carried incomplete line) and carries the rest.
    fn feed(&mut self, mut chunk: &[u8]) {
        self.total += chunk.len() as u64;
        if self.torn {
            return;
        }
        while let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
            let (head, rest) = chunk.split_at(nl);
            chunk = &rest[1..];
            let line_len = self.carry.len() + head.len();
            if line_len > MAX_LINE {
                self.tear();
                return;
            }
            let record = {
                let line: &[u8] = if self.carry.is_empty() {
                    head
                } else {
                    self.carry.extend_from_slice(head);
                    &self.carry
                };
                core::str::from_utf8(line)
                    .ok()
                    .and_then(|s| decode_line(s).ok())
            };
            self.carry.clear();
            let Some(record) = record else {
                self.tear();
                return;
            };
            self.records.push(record);
            self.ends.push(self.valid_len() + line_len as u64 + 1);
        }
        if self.carry.len() + chunk.len() > MAX_LINE {
            self.tear();
        } else {
            self.carry.extend_from_slice(chunk);
        }
    }

    fn tear(&mut self) {
        self.torn = true;
        self.carry = Vec::new();
    }
}

/// Streams a segment through [`Scan`] in [`SCAN_CHUNK`]-sized reads.
fn scan_file(file: &mut dyn StorageFile) -> std::io::Result<Scan> {
    file.seek_to(0)?;
    let mut scan = Scan::default();
    let mut buf = vec![0u8; SCAN_CHUNK];
    loop {
        let n = file.read_chunk(&mut buf)?;
        if n == 0 {
            return Ok(scan);
        }
        scan.feed(&buf[..n]);
    }
}

/// Scans raw journal bytes, returning the valid record prefix and the
/// byte length it covers. Stops at the first incomplete line (no trailing
/// newline), over-long line, checksum failure, or unparseable payload —
/// everything after is the torn tail. The slice driver of the decoder
/// behind [`Journal::open`]; the fuzz suite asserts the two always agree.
pub fn scan_bytes(bytes: &[u8]) -> (Vec<Record>, u64) {
    let mut scan = Scan::default();
    scan.feed(bytes);
    let valid_len = scan.valid_len();
    (scan.records, valid_len)
}

/// Path of rotation segment `n` of the journal at `base` (`n >= 1`):
/// `<base>.seg<n>`.
fn segment_path(base: &Path, n: usize) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(format!(".seg{n}"));
    PathBuf::from(os)
}

/// The segment chain of the journal at `base`: `base` itself, then each
/// rotation segment that exists.
fn segment_chain(storage: &Storage, base: &Path) -> Vec<PathBuf> {
    let mut segments = vec![base.to_path_buf()];
    while storage.exists(&segment_path(base, segments.len())) {
        segments.push(segment_path(base, segments.len()));
    }
    segments
}

/// An append-only, fsync-on-append write-ahead journal with bounded
/// self-healing (transient-error retry, poisoned-segment rotation) behind
/// the [`crate::storage`] seam.
#[derive(Debug)]
pub struct Journal {
    storage: Storage,
    /// Open handle on the *active* (last) segment.
    file: Box<dyn StorageFile>,
    base: PathBuf,
    /// All segment paths, `[0]` being `base`. More than one only after
    /// rotation quarantined a poisoned segment.
    segments: Vec<PathBuf>,
    /// Committed valid length of the active segment — the repair point
    /// retries truncate back to before re-writing a failed batch.
    active_len: u64,
    recovered: Vec<Record>,
    /// `(segment index, end-of-line offset within that segment)` for each
    /// recovered record — lets
    /// [`truncate_recovered`](Self::truncate_recovered) cut the chain at
    /// an exact record boundary.
    record_locs: Vec<(usize, u64)>,
    dropped_bytes: u64,
    health: StorageHealth,
}

impl Journal {
    /// Opens (or creates) the journal at `path` on the real filesystem,
    /// recovering its valid prefix. Any torn tail — a half-written line, a
    /// checksum failure, a record that does not parse — is physically
    /// truncated away, so the file is again a clean append target. Records
    /// *after* the first invalid one within a segment are dropped even if
    /// they look valid: a write-ahead log is only trustworthy up to its
    /// first tear. Rotation segments (`<path>.seg1`, …) are discovered,
    /// recovered the same way, and read back as one record stream.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when a segment cannot be opened, read
    /// or truncated.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        Self::open_with(Storage::os(), path)
    }

    /// [`Journal::open`] over an arbitrary storage backend — the torture
    /// harness passes a crash-simulating in-memory backend, the chaos
    /// tests and `repro sweep --storage-faults` a fault-injecting one.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when a segment cannot be opened, read
    /// or truncated.
    pub fn open_with(storage: Storage, path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let base = path.as_ref().to_path_buf();
        let segments = segment_chain(&storage, &base);
        let mut recovered = Vec::new();
        let mut record_locs = Vec::new();
        let mut dropped = 0u64;
        let mut active: Option<(Box<dyn StorageFile>, u64)> = None;
        let last = segments.len() - 1;
        for (si, seg) in segments.iter().enumerate() {
            let mut file = storage.open(seg)?;
            let scan = scan_file(file.as_mut())?;
            let valid_len = scan.valid_len();
            if scan.total > valid_len {
                file.set_len(valid_len)?;
                file.sync_data()?;
                dropped += scan.total - valid_len;
            }
            record_locs.extend(scan.ends.iter().map(|&e| (si, e)));
            recovered.extend(scan.records);
            if si == last {
                file.seek_to(valid_len)?;
                active = Some((file, valid_len));
            }
        }
        let Some((file, active_len)) = active else {
            // Unreachable: `segments` always has at least the base entry.
            return Err(JournalError::Io(std::io::Error::other(
                "journal has no active segment",
            )));
        };
        Ok(Self {
            storage,
            file,
            base,
            segments,
            active_len,
            recovered,
            record_locs,
            dropped_bytes: dropped,
            health: StorageHealth::default(),
        })
    }

    /// What this handle has committed, and what the self-healing
    /// machinery has done on it, so far.
    pub fn health(&self) -> &StorageHealth {
        &self.health
    }

    /// The records recovered when the journal was opened (empty for a
    /// fresh journal).
    pub fn recovered(&self) -> &[Record] {
        &self.recovered
    }

    /// Bytes of torn tail dropped during recovery at open (across all
    /// segments).
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }

    /// The journal's segment paths, base first. More than one only after
    /// rotation.
    pub fn segments(&self) -> &[PathBuf] {
        &self.segments
    }

    /// Physically truncates the journal back to its first `keep` recovered
    /// records (a no-op when `keep` covers them all), removing later
    /// rotation segments and re-syncing so the cut survives a crash.
    ///
    /// A device's records are appended as one batch ending in its
    /// [`Record::Outcome`] — the *commit point* resume keys on. A tear can
    /// still land inside the batch, leaving valid `Supervision`/`Note`
    /// lines with no sealing outcome; [`prepare_journal`] uses this to cut
    /// all a resume does not trust before the devices re-run, which
    /// re-emits them and keeps the healed journal byte-identical.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when a segment cannot be truncated,
    /// removed or synced.
    pub fn truncate_recovered(&mut self, keep: usize) -> Result<(), JournalError> {
        if keep >= self.recovered.len() {
            return Ok(());
        }
        let (seg, end) = if keep == 0 {
            (0, 0)
        } else {
            self.record_locs[keep - 1]
        };
        while self.segments.len() > seg + 1 {
            if let Some(stale) = self.segments.pop() {
                self.storage.remove_file(&stale)?;
            }
        }
        let mut file = self.storage.open(&self.segments[seg])?;
        file.set_len(end)?;
        file.sync_data()?;
        file.seek_to(end)?;
        self.file = file;
        self.active_len = end;
        self.recovered.truncate(keep);
        self.record_locs.truncate(keep);
        Ok(())
    }

    /// Appends one record and syncs it to disk before returning — after
    /// this call the record survives a crash.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on write or sync failure, after the
    /// retry and rotation budgets are exhausted.
    pub fn append(&mut self, record: &Record) -> Result<(), JournalError> {
        self.append_all(core::slice::from_ref(record))
    }

    /// Appends a batch of records with a **single** write and fsync — the
    /// sweep's merge step uses this to commit one device group at a time:
    /// every simulated device of one [`crate::crowd::STREAM_GROUP`]-aligned
    /// span of device indices, each as its supervision, note and outcome
    /// records, at one durability point instead of paying per-device sync
    /// latency. Byte layout is identical to appending one by one, so
    /// recovery and resume cannot tell the difference; a crash mid-batch
    /// leaves a torn tail that recovery truncates as usual.
    ///
    /// The batch commits atomically with respect to the self-healing
    /// machinery too: a transient failure repairs the partial tail and
    /// re-writes the *whole* batch; rotation re-writes it from the start
    /// of the fresh segment.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on write or sync failure, after the
    /// retry and rotation budgets are exhausted.
    pub fn append_all(&mut self, records: &[Record]) -> Result<(), JournalError> {
        if records.is_empty() {
            return Ok(());
        }
        let mut buf = String::new();
        for record in records {
            buf.push_str(&encode_line(record));
        }
        self.commit(buf.as_bytes())?;
        self.health.commits += 1;
        self.health.records += records.len() as u64;
        Ok(())
    }

    /// Writes and syncs one encoded batch, healing as it goes: transient
    /// errors get up to [`MAX_RETRIES`] in-place retries (booking simulated
    /// backoff, never sleeping), persistent errors — or exhausted
    /// retries — quarantine the active segment and rotate to a fresh one
    /// while the segment budget lasts.
    fn commit(&mut self, buf: &[u8]) -> Result<(), JournalError> {
        let mut retries = 0u32;
        let mut backoff = BACKOFF_START_S;
        loop {
            let err = match self
                .file
                .write_all(buf)
                .and_then(|()| self.file.sync_data())
            {
                Ok(()) => {
                    self.active_len += buf.len() as u64;
                    return Ok(());
                }
                Err(e) => e,
            };
            if classify(&err) == FaultClass::Transient && retries < MAX_RETRIES {
                retries += 1;
                self.health.retries += 1;
                self.health.backoff_sim_s += backoff;
                backoff *= 2.0;
                self.repair_tail();
                continue;
            }
            if self.rotate(&err) {
                retries = 0;
                backoff = BACKOFF_START_S;
            } else {
                return Err(JournalError::Io(err));
            }
        }
    }

    /// Best-effort: cut the active segment back to its committed length
    /// and re-seat the cursor, so retrying a failed batch cannot duplicate
    /// a partial prefix the failure left behind. Failures are swallowed —
    /// if the tail cannot be repaired the retry will fail again and
    /// escalate to rotation, whose fresh segment has no tail to corrupt.
    fn repair_tail(&mut self) {
        let _ = self.file.set_len(self.active_len);
        let _ = self.file.seek_to(self.active_len);
    }

    /// Quarantines the active segment (sealing whatever valid prefix it
    /// holds) and opens the next `<base>.segN` as the new append target.
    /// Creation itself gets the transient-retry courtesy; returns `false`
    /// when the segment budget is exhausted or the fresh segment cannot be
    /// established.
    fn rotate(&mut self, cause: &std::io::Error) -> bool {
        if self.segments.len() as u32 >= MAX_SEGMENTS {
            return false;
        }
        // Seal the poisoned segment's committed prefix as well as the
        // medium allows; its torn tail (if the repair fails too) is cut
        // by recovery on the next open.
        self.repair_tail();
        let _ = self.file.sync_data();
        let next = segment_path(&self.base, self.segments.len());
        for _ in 0..=MAX_RETRIES {
            match self.storage.create(&next) {
                Ok(file) => {
                    self.health.rotations += 1;
                    self.health.events.push(format!(
                        "segment {} poisoned ({cause}); rotated to {}",
                        self.segments[self.segments.len() - 1].display(),
                        next.display(),
                    ));
                    self.file = file;
                    self.active_len = 0;
                    self.segments.push(next);
                    return true;
                }
                Err(e) if classify(&e) == FaultClass::Transient => {
                    self.health.retries += 1;
                    continue;
                }
                Err(_) => return false,
            }
        }
        false
    }

    /// Reads and recovers a journal chain without opening it for append
    /// (no truncation happens; torn tails are simply ignored).
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when a segment cannot be read.
    pub fn read_records(path: impl AsRef<Path>) -> Result<Vec<Record>, JournalError> {
        Self::read_records_with(&Storage::os(), path)
    }

    /// [`Journal::read_records`] over an arbitrary storage backend.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when a segment cannot be read.
    pub fn read_records_with(
        storage: &Storage,
        path: impl AsRef<Path>,
    ) -> Result<Vec<Record>, JournalError> {
        let mut records = Vec::new();
        for seg in segment_chain(storage, path.as_ref()) {
            records.extend(scan_bytes(&storage.read(&seg)?).0);
        }
        Ok(records)
    }
}

// ---------------------------------------------------------------------------
// The run protocol — the one reader and writer of device records that a
// fleet sweep and a one-device `accubench` run share.
// ---------------------------------------------------------------------------

/// One device's journaled result: the payload of its [`Record::Outcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct JournaledOutcome {
    /// What happened to the device.
    pub outcome: SweepOutcome,
    /// The submitted mean score, when the session produced one.
    pub score: Option<f64>,
    /// The submitted iteration-to-iteration RSD, when present.
    pub rsd: Option<f64>,
}

/// What a journal already holds for the run that resumes it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Journaled outcomes by device index; a repeated index keeps its last
    /// record.
    pub outcomes: BTreeMap<usize, JournaledOutcome>,
    /// Whether the [`Record::Complete`] seal is present.
    pub sealed: bool,
}

impl Replay {
    /// Collects the outcomes and the seal of a record stream.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::MissingHeader`] when the records do not
    /// start with a [`Record::Header`].
    pub(crate) fn from_records(records: &[Record]) -> Result<Self, JournalError> {
        let Some((Record::Header { .. }, rest)) = records.split_first() else {
            return Err(JournalError::MissingHeader);
        };
        let mut replay = Replay::default();
        for r in rest {
            match r {
                Record::Outcome {
                    index,
                    outcome,
                    score,
                    rsd,
                } => {
                    replay.outcomes.insert(
                        *index,
                        JournaledOutcome {
                            outcome: outcome.clone(),
                            score: *score,
                            rsd: *rsd,
                        },
                    );
                }
                Record::Complete { .. } => replay.sealed = true,
                _ => {}
            }
        }
        Ok(replay)
    }
}

/// One failed supervised attempt (panic, watchdog trip, or fatal session
/// error), journaled as a [`Record::Supervision`].
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptFailure {
    /// One-based attempt number within the device's retry budget.
    pub attempt: u32,
    /// How the attempt ended (never [`DeviceStatus::Completed`]).
    pub status: DeviceStatus,
    /// Deterministic one-line description (panic headline or error text).
    pub detail: String,
    /// Backtrace summary, present only when `RUST_BACKTRACE` enables
    /// capture. Goes into the free-form note, never into digested state.
    pub backtrace: Option<String>,
}

impl AttemptFailure {
    /// Attempt `attempt` ended in the session error `error`.
    pub fn of_error(attempt: u32, error: &BenchError) -> Self {
        Self {
            attempt,
            status: DeviceStatus::of_error(error),
            detail: error.to_string(),
            backtrace: None,
        }
    }

    /// Attempt `attempt` panicked.
    pub fn of_panic(attempt: u32, panic: PanicSummary) -> Self {
        Self {
            attempt,
            status: DeviceStatus::Panicked,
            detail: panic.headline(),
            backtrace: panic.backtrace,
        }
    }
}

/// The resume rule of [`prepare_journal`]: how many leading records of a
/// journal a resume trusts. A journal without a leading header trusts
/// nothing.
fn trusted_len(records: &[Record]) -> usize {
    let Some(Record::Header { devices, .. }) = records.first() else {
        return 0;
    };
    let (mut next, mut trusted) = (0, 1);
    for (i, record) in records.iter().enumerate().skip(1) {
        match record {
            Record::Supervision { .. } | Record::Note { .. } => continue,
            Record::Outcome { index, .. } if *index < next => {}
            Record::Outcome { index, .. } if *index == next && next < *devices => next += 1,
            Record::Complete { .. } if next == *devices => {}
            _ => break,
        }
        trusted = i + 1;
    }
    trusted
}

/// Binds `journal` to one run before any device runs. A fresh journal gets
/// a [`Record::Header`] carrying `digest` and the device count. A recovered
/// journal must lead with a header of the same digest and device count.
/// A resume trusts it up to its first record out of sequence, as the
/// scanner trusts bytes up to the first torn line. An outcome is in
/// sequence when its index is the next one expected, or repeats one
/// already seen (as a rotated re-commit leaves), and is below the device
/// count; the seal is, once every device's outcome is. The rest is cut,
/// with the `Supervision`/`Note` tail no outcome committed, so re-running
/// those devices heals the journal to the uninterrupted bytes. Returns
/// the journaled outcomes, exactly devices `0..k`, and the seal's presence.
///
/// # Errors
///
/// Returns [`JournalError::DigestMismatch`] for a journal of a different
/// run, [`JournalError::MissingHeader`] for one that does not start with a
/// header, and [`JournalError::Io`] when the header cannot be written or
/// the tail cannot be truncated.
pub fn prepare_journal(
    journal: &mut Journal,
    model: &str,
    digest: String,
    devices: usize,
) -> Result<Replay, JournalError> {
    let Some(first) = journal.recovered().first() else {
        journal.append(&Record::Header {
            model: model.to_owned(),
            digest,
            devices,
        })?;
        return Ok(Replay::default());
    };
    match first {
        Record::Header {
            digest: journaled,
            devices: n,
            ..
        } => {
            if *journaled != digest || *n != devices {
                return Err(JournalError::DigestMismatch {
                    journaled: journaled.clone(),
                    requested: digest,
                });
            }
        }
        _ => return Err(JournalError::MissingHeader),
    }
    journal.truncate_recovered(trusted_len(journal.recovered()))?;
    Replay::from_records(journal.recovered())
}

/// Stages device `index`'s records for the next commit: one
/// [`Record::Supervision`] per failed attempt, a [`Record::Note`] when the
/// device hit faults, quarantines, a fatal error or a failed attempt, and
/// the [`Record::Outcome`] that seals the device. The one writer of device
/// records, so every journal has the same shape.
pub fn journal_outcome(
    staged: &mut Vec<Record>,
    index: usize,
    result: &JournaledOutcome,
    failures: &[AttemptFailure],
) {
    let outcome = &result.outcome;
    for failure in failures {
        staged.push(Record::Supervision {
            index,
            attempt: failure.attempt,
            status: failure.status,
            detail: failure.detail.clone(),
        });
    }
    if outcome.quarantined > 0
        || outcome.fault_reports > 0
        || outcome.error.is_some()
        || !failures.is_empty()
    {
        let mut text = format!(
            "{}: {} quarantined, {} fault(s){}",
            outcome.device,
            outcome.quarantined,
            outcome.fault_reports,
            outcome
                .error
                .as_deref()
                .map(|e| format!(", fatal: {e}"))
                .unwrap_or_default()
        );
        // Backtrace summaries (present only when RUST_BACKTRACE is set)
        // make a quarantine diagnosable from artifacts alone. They are
        // thread-dependent, so enabling them trades away byte-identical
        // journals across thread counts — see PanicSummary::backtrace.
        for failure in failures {
            if let Some(bt) = &failure.backtrace {
                let _ = write!(text, "\nattempt {} backtrace:\n{bt}", failure.attempt);
            }
        }
        staged.push(Record::Note { index, text });
    }
    staged.push(Record::Outcome {
        index,
        outcome: outcome.clone(),
        score: result.score,
        rsd: result.rsd,
    });
}

// ---------------------------------------------------------------------------
// fsck — offline verification of a journal chain.
// ---------------------------------------------------------------------------

/// What [`fsck`] found in one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentFsck {
    /// The segment's path.
    pub path: PathBuf,
    /// Valid records in the segment.
    pub records: usize,
    /// Bytes covered by valid records.
    pub valid_bytes: u64,
    /// Torn/corrupt tail bytes after the last valid record.
    pub torn_bytes: u64,
}

/// Result of verifying a journal chain read-only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// Per-segment breakdown, base segment first.
    pub segments: Vec<SegmentFsck>,
    /// Total valid records across the chain.
    pub records: usize,
    /// How many of them are device outcomes.
    pub outcomes: usize,
    /// Outcome records whose device index repeats an earlier one — only
    /// possible if a partially-committed batch survived next to its
    /// rotated re-commit; harmless to resume (keyed by index) but worth
    /// reporting.
    pub duplicate_outcomes: usize,
    /// Outcome and seal records a resume would cut: the first one out of
    /// sequence (an outcome past a gap in the device indices or at or past
    /// the header's device count, or a seal before the last outcome) and
    /// every outcome and seal after it.
    pub out_of_sequence: usize,
    /// Whether the chain starts with a sweep header.
    pub has_header: bool,
    /// Whether a final completion marker is present.
    pub complete: bool,
    /// Total torn bytes across all segments.
    pub torn_bytes: u64,
}

impl FsckReport {
    /// A clean journal: no torn bytes anywhere, either empty or properly
    /// headed, and no record out of sequence. (An *incomplete* journal is
    /// still clean — it is exactly what `--resume` consumes.)
    pub fn is_clean(&self) -> bool {
        self.torn_bytes == 0
            && (self.records == 0 || self.has_header)
            && self.duplicate_outcomes == 0
            && self.out_of_sequence == 0
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for seg in &self.segments {
            write!(
                f,
                "  {}: {} record(s), {} valid byte(s)",
                seg.path.display(),
                seg.records,
                seg.valid_bytes
            )?;
            if seg.torn_bytes > 0 {
                write!(f, ", {} torn byte(s)", seg.torn_bytes)?;
            }
            writeln!(f)?;
        }
        write!(
            f,
            "  {} record(s), {} outcome(s), header {}, {}",
            self.records,
            self.outcomes,
            if self.has_header {
                "present"
            } else {
                "missing"
            },
            if self.complete {
                "complete"
            } else {
                "incomplete"
            }
        )?;
        if self.duplicate_outcomes > 0 {
            write!(f, ", {} duplicate outcome(s)", self.duplicate_outcomes)?;
        }
        if self.out_of_sequence > 0 {
            write!(f, ", {} record(s) out of sequence", self.out_of_sequence)?;
        }
        Ok(())
    }
}

/// Verifies the journal chain at `path` on the real filesystem without
/// modifying it. Repairing is [`Journal::open`]: it truncates every torn
/// tail and syncs the cuts.
///
/// # Errors
///
/// Returns [`JournalError::Io`] when a segment cannot be read.
pub fn fsck(path: impl AsRef<Path>) -> Result<FsckReport, JournalError> {
    fsck_with(&Storage::os(), path)
}

/// [`fsck`] over an arbitrary storage backend.
///
/// # Errors
///
/// Returns [`JournalError::Io`] when a segment cannot be read.
pub fn fsck_with(storage: &Storage, path: impl AsRef<Path>) -> Result<FsckReport, JournalError> {
    let mut report = FsckReport {
        segments: Vec::new(),
        records: 0,
        outcomes: 0,
        duplicate_outcomes: 0,
        out_of_sequence: 0,
        has_header: false,
        complete: false,
        torn_bytes: 0,
    };
    let mut seen = std::collections::BTreeSet::new();
    let mut chain = Vec::new();
    for seg in segment_chain(storage, path.as_ref()) {
        let bytes = storage.read(&seg)?;
        let (records, valid_len) = scan_bytes(&bytes);
        let torn = bytes.len() as u64 - valid_len;
        report.torn_bytes += torn;
        for record in &records {
            match record {
                Record::Header { .. } if report.records == 0 => report.has_header = true,
                Record::Outcome { index, .. } => {
                    report.outcomes += 1;
                    if !seen.insert(*index) {
                        report.duplicate_outcomes += 1;
                    }
                }
                Record::Complete { .. } => report.complete = true,
                _ => {}
            }
            report.records += 1;
        }
        report.segments.push(SegmentFsck {
            path: seg,
            records: records.len(),
            valid_bytes: valid_len,
            torn_bytes: torn,
        });
        chain.extend(records);
    }
    report.out_of_sequence = chain[trusted_len(&chain)..]
        .iter()
        .filter(|r| !matches!(r, Record::Supervision { .. } | Record::Note { .. }))
        .count();
    Ok(report)
}

/// Cooperative cancellation: clone it into whatever should stop, flip it
/// from a signal handler (via [`CancelToken::from_static`]) or another
/// thread, and long-running sweeps finish their current device, journal
/// it, and return with `complete = false`.
#[derive(Debug, Clone)]
pub struct CancelToken(Flag);

#[derive(Debug, Clone)]
enum Flag {
    Shared(Arc<AtomicBool>),
    Static(&'static AtomicBool),
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken(Flag::Shared(Arc::new(AtomicBool::new(false))))
    }

    /// Wraps a `static AtomicBool` so an async-signal-safe handler
    /// (SIGINT/SIGTERM) can flip the token with a single atomic store.
    pub fn from_static(flag: &'static AtomicBool) -> Self {
        CancelToken(Flag::Static(flag))
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        match &self.0 {
            Flag::Shared(f) => f.store(true, Ordering::SeqCst),
            Flag::Static(f) => f.store(true, Ordering::SeqCst),
        }
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        match &self.0 {
            Flag::Shared(f) => f.load(Ordering::SeqCst),
            Flag::Static(f) => f.load(Ordering::SeqCst),
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::session::Verdict;
    use crate::storage::{FaultyStorage, MemStorage, TempDir};
    use pv_faults::{FaultEvent, FaultKind, FaultPlan};

    fn outcome(device: &str) -> SweepOutcome {
        SweepOutcome {
            device: device.to_owned(),
            verdict: Some(Verdict::Valid),
            accepted: true,
            quarantined: 0,
            fault_reports: 2,
            error: None,
            status: DeviceStatus::Completed,
            attempts: 1,
        }
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Header {
                model: "Pixel".into(),
                digest: "00ff".into(),
                devices: 2,
            },
            Record::Outcome {
                index: 0,
                outcome: outcome("a"),
                score: Some(101.5),
                rsd: Some(0.8),
            },
            Record::Note {
                index: 0,
                text: "2 fault(s)".into(),
            },
            Record::Supervision {
                index: 1,
                attempt: 1,
                status: DeviceStatus::Panicked,
                detail: "panic: injected session panic".into(),
            },
            Record::Outcome {
                index: 1,
                outcome: SweepOutcome {
                    device: "b".into(),
                    verdict: None,
                    accepted: false,
                    quarantined: 3,
                    fault_reports: 1,
                    error: Some("device: hotplug flap".into()),
                    status: DeviceStatus::Failed,
                    attempts: 2,
                },
                score: None,
                rsd: None,
            },
            Record::Complete { devices: 2 },
        ]
    }

    fn mem_storage() -> (MemStorage, Storage) {
        let mem = MemStorage::new();
        let storage = Storage::new(std::sync::Arc::new(mem.clone()));
        (mem, storage)
    }

    fn event(at: f64, duration: f64, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at,
            duration,
            kind,
            magnitude: 0.0,
        }
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn records_round_trip_through_lines() {
        for record in sample_records() {
            let line = encode_line(&record);
            assert!(line.ends_with('\n'));
            let back = decode_line(line.trim_end()).unwrap();
            assert_eq!(back, record);
        }
    }

    #[test]
    fn journal_appends_and_recovers_all_records() {
        let dir = TempDir::new("journal-roundtrip");
        let path = dir.file("run.journal");
        let records = sample_records();
        {
            let mut j = Journal::open(&path).unwrap();
            assert!(j.recovered().is_empty());
            for r in &records {
                j.append(r).unwrap();
            }
            assert!(j.health().is_clean(), "no faults, no healing");
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.recovered(), records.as_slice());
        assert_eq!(j.dropped_bytes(), 0);
        assert_eq!(j.segments().len(), 1);
    }

    #[test]
    fn flipped_checksum_byte_rejects_record_and_stops_recovery() {
        let dir = TempDir::new("journal-flip");
        let path = dir.file("run.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            for r in sample_records() {
                j.append(&r).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a checksum hex digit of the second record.
        let second = bytes
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| i + 1)
            .unwrap();
        bytes[second] = if bytes[second] == b'0' { b'1' } else { b'0' };
        std::fs::write(&path, &bytes).unwrap();
        // Recovery keeps only the header: records after the corrupt line
        // are dropped even though they would decode.
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.recovered().len(), 1);
        assert!(matches!(j.recovered()[0], Record::Header { .. }));
        assert!(j.dropped_bytes() > 0);
        // The file was physically truncated to the valid prefix.
        let after = std::fs::read(&path).unwrap();
        assert_eq!(after.len() as u64, bytes.len() as u64 - j.dropped_bytes());
    }

    #[test]
    fn mid_record_truncation_drops_the_tail_cleanly() {
        let dir = TempDir::new("journal-tear");
        let path = dir.file("run.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            for r in sample_records() {
                j.append(&r).unwrap();
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        // Cut in the middle of the final record's payload.
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.recovered().len(), sample_records().len() - 1);
        // After recovery, appending works and the re-appended record lands
        // exactly where the torn one was.
        let mut j = j;
        j.append(&Record::Complete { devices: 2 }).unwrap();
        drop(j);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
    }

    #[test]
    fn truncate_recovered_drops_unsealed_trailing_records() {
        let dir = TempDir::new("journal-unseal");
        let path = dir.file("run.journal");
        let records = sample_records();
        {
            let mut j = Journal::open(&path).unwrap();
            // Header, Outcome(0), Note(0), Supervision(1) — the batch for
            // device 1 was torn after its Supervision line, before the
            // sealing Outcome landed.
            j.append_all(&records[..4]).unwrap();
        }
        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.recovered().len(), 4);
        // Keeping everything is a no-op (as is keeping more than exists).
        j.truncate_recovered(9).unwrap();
        assert_eq!(j.recovered().len(), 4);
        // Drop the dangling Supervision record; the file shrinks to the
        // exact byte boundary so a re-run re-appends identically.
        j.truncate_recovered(3).unwrap();
        assert_eq!(j.recovered(), &records[..3]);
        j.append_all(&records[3..]).unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.recovered(), records.as_slice());
        // Truncating to zero empties the file.
        let mut j = j;
        j.truncate_recovered(0).unwrap();
        assert!(j.recovered().is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
    }

    #[test]
    fn append_all_matches_one_by_one_byte_for_byte() {
        let dir = TempDir::new("journal-batch");
        let (one, batch) = (dir.file("one"), dir.file("batch"));
        let records = sample_records();
        {
            let mut j = Journal::open(&one).unwrap();
            for r in &records {
                j.append(r).unwrap();
            }
        }
        {
            let mut j = Journal::open(&batch).unwrap();
            j.append_all(&[]).unwrap(); // empty batch is a no-op
            j.append_all(&records).unwrap();
        }
        assert_eq!(std::fs::read(&one).unwrap(), std::fs::read(&batch).unwrap());
        let j = Journal::open(&batch).unwrap();
        assert_eq!(j.recovered(), records.as_slice());
    }

    #[test]
    fn chunked_recovery_handles_journals_larger_than_one_chunk() {
        // Well past one SCAN_CHUNK (64 KiB) so recovery crosses several
        // chunk boundaries, including ones that split a line mid-frame.
        let (_, storage) = mem_storage();
        let path = std::path::Path::new("big.journal");
        let records: Vec<Record> = (0..1500)
            .map(|i| Record::Note {
                index: i,
                text: format!("padding padding padding padding {i}"),
            })
            .collect();
        {
            let mut j = Journal::open_with(storage.clone(), path).unwrap();
            j.append_all(&records).unwrap();
        }
        let total: usize = records.iter().map(|r| encode_line(r).len()).sum();
        assert!(total > 2 * SCAN_CHUNK, "test must span multiple chunks");
        let j = Journal::open_with(storage.clone(), path).unwrap();
        assert_eq!(j.recovered(), records.as_slice());
        assert_eq!(j.dropped_bytes(), 0);
        // Stream scan agrees with the slice scan.
        assert_eq!(scan_bytes(&storage.read(path).unwrap()).0, records);
    }

    #[test]
    fn transient_errors_are_retried_away_without_corruption() {
        let (mem, inner) = mem_storage();
        // Ops: 0 create, 1 write(header), 2 sync, then a transient window
        // over the next batch's write + first retry.
        let plan = FaultPlan::empty().with_event(event(3.0, 2.0, FaultKind::StorageEioTransient));
        let storage = Storage::new(std::sync::Arc::new(FaultyStorage::new(inner, &plan)));
        let path = std::path::Path::new("run.journal");
        let records = sample_records();
        let mut j = Journal::open_with(storage, path).unwrap();
        j.append(&records[0]).unwrap();
        j.append_all(&records[1..]).unwrap();
        assert_eq!(j.health().retries, 1);
        assert_eq!(j.health().rotations, 0);
        assert!(j.health().backoff_sim_s > 0.0);
        assert_eq!(j.segments().len(), 1);
        // The healed journal is byte-identical to an unfaulted one.
        let (_, clean) = mem_storage();
        let mut c = Journal::open_with(clean.clone(), path).unwrap();
        c.append(&records[0]).unwrap();
        c.append_all(&records[1..]).unwrap();
        assert_eq!(
            mem.file_bytes(path).unwrap(),
            clean.read(path).unwrap(),
            "retried journal must match the unfaulted byte stream"
        );
    }

    #[test]
    fn short_write_repairs_tail_before_retrying() {
        let (mem, inner) = mem_storage();
        // The short write lands a partial prefix of the batch; the retry
        // must truncate it away or the journal would hold duplicate bytes.
        let plan = FaultPlan::empty().with_event(event(3.0, 1.0, FaultKind::StorageShortWrite));
        let storage = Storage::new(std::sync::Arc::new(FaultyStorage::new(inner, &plan)));
        let path = std::path::Path::new("run.journal");
        let records = sample_records();
        let mut j = Journal::open_with(storage, path).unwrap();
        j.append(&records[0]).unwrap();
        j.append_all(&records[1..]).unwrap();
        assert_eq!(j.health().retries, 1);
        let expected: String = records.iter().map(encode_line).collect();
        assert_eq!(mem.file_bytes(path).unwrap(), expected.as_bytes());
    }

    #[test]
    fn persistent_failure_rotates_to_a_fresh_segment() {
        let (mem, inner) = mem_storage();
        // A bounded transient window longer than the retry budget: ops 0-2
        // (create, first write, sync) succeed, then the second batch's five
        // writes (ops 3, 5, 7, 9, 11) fail around four tail repairs. With
        // the 4 retries spent, rotation seals the old segment (ops 12-13)
        // and creates the fresh one at op 14, after the window closed.
        let plan = FaultPlan::empty().with_event(event(3.0, 9.0, FaultKind::StorageEioTransient));
        let storage = Storage::new(std::sync::Arc::new(FaultyStorage::new(inner, &plan)));
        let path = std::path::Path::new("run.journal");
        let records = sample_records();
        let mut j = Journal::open_with(storage.clone(), path).unwrap();
        j.append(&records[0]).unwrap();
        j.append_all(&records[1..]).unwrap();
        assert_eq!(j.health().retries, 4, "{:?}", j.health());
        assert_eq!(j.health().rotations, 1, "{:?}", j.health());
        // 0.05 s doubled per retry: 0.05 + 0.1 + 0.2 + 0.4.
        assert!((j.health().backoff_sim_s - 0.75).abs() < 1e-12);
        assert_eq!(j.segments().len(), 2);
        assert!(j.health().events[0].contains("rotated"));
        drop(j);
        // Reopening reads the chain back as one stream …
        let j = Journal::open_with(storage, path).unwrap();
        assert_eq!(j.recovered(), records.as_slice());
        // … and the rotated segment holds the full re-committed batch.
        let seg1 = segment_path(path, 1);
        let expected: String = records[1..].iter().map(encode_line).collect();
        assert_eq!(mem.file_bytes(&seg1).unwrap(), expected.as_bytes());
    }

    #[test]
    fn exhausted_budgets_surface_the_io_error() {
        let (_, inner) = mem_storage();
        let plan = FaultPlan::empty().with_event(event(1.0, 1.0, FaultKind::StorageEioPersistent));
        let storage = Storage::new(std::sync::Arc::new(FaultyStorage::new(inner, &plan)));
        let path = std::path::Path::new("run.journal");
        let mut j = Journal::open_with(storage, path).unwrap();
        let err = j.append(&Record::Complete { devices: 0 }).unwrap_err();
        assert!(matches!(err, JournalError::Io(_)));
        assert!(format!("{err}").contains("persistent"));
    }

    #[test]
    fn truncate_recovered_spans_rotated_segments() {
        let (_, inner) = mem_storage();
        // The same window as `persistent_failure_rotates_to_a_fresh_segment`.
        let plan = FaultPlan::empty().with_event(event(3.0, 9.0, FaultKind::StorageEioTransient));
        let storage = Storage::new(std::sync::Arc::new(FaultyStorage::new(inner, &plan)));
        let path = std::path::Path::new("run.journal");
        let records = sample_records();
        {
            let mut j = Journal::open_with(storage.clone(), path).unwrap();
            j.append(&records[0]).unwrap();
            j.append_all(&records[1..]).unwrap();
            assert_eq!(j.health().retries, 4, "{:?}", j.health());
            assert_eq!(j.segments().len(), 2);
        }
        let mut j = Journal::open_with(storage.clone(), path).unwrap();
        assert_eq!(j.recovered(), records.as_slice());
        // Cut back to the first record: the rotated segment must be
        // removed entirely and the base truncated.
        j.truncate_recovered(1).unwrap();
        assert_eq!(j.recovered(), &records[..1]);
        assert_eq!(j.segments().len(), 1);
        assert!(!storage.exists(&segment_path(path, 1)));
        // Appending after the cut keeps a single consistent stream.
        j.append_all(&records[1..]).unwrap();
        drop(j);
        let j = Journal::open_with(storage, path).unwrap();
        assert_eq!(j.recovered(), records.as_slice());
    }

    #[test]
    fn fsck_reports_clean_and_dirty_journals() {
        let dir = TempDir::new("journal-fsck");
        let path = dir.file("run.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            for r in sample_records() {
                j.append(&r).unwrap();
            }
        }
        let report = fsck(&path).unwrap();
        assert!(report.is_clean());
        assert!(report.has_header);
        assert!(report.complete);
        assert_eq!(report.records, sample_records().len());
        assert_eq!(report.outcomes, 2);
        assert_eq!(report.duplicate_outcomes, 0);
        let text = format!("{report}");
        assert!(text.contains("header present"));
        assert!(text.contains("complete"));
        // Tear the tail: fsck flags it; repair (= open) heals it.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let report = fsck(&path).unwrap();
        assert!(!report.is_clean());
        assert!(report.torn_bytes > 0);
        assert!(format!("{report}").contains("torn"));
        drop(Journal::open(&path).unwrap());
        assert!(fsck(&path).unwrap().is_clean());
    }

    #[test]
    fn fsck_flags_headerless_journals() {
        let dir = TempDir::new("journal-fsck-headerless");
        let path = dir.file("run.journal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(&Record::Complete { devices: 1 }).unwrap();
        }
        let report = fsck(&path).unwrap();
        assert!(!report.has_header);
        assert!(!report.is_clean());
        assert!(format!("{report}").contains("header missing"));
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        assert!(decode_line("short").is_err());
        assert!(decode_line("zzzzzzzzzzzzzzzz {\"t\":\"complete\",\"devices\":1}").is_err());
        let good = encode_line(&Record::Complete { devices: 1 });
        let no_sep = good.trim_end().replacen(' ', "", 1);
        assert!(decode_line(&no_sep).is_err());
        // Valid checksum over a payload that is not a record.
        let payload = "[1,2,3]";
        let line = format!("{:016x} {payload}", fnv64(payload.as_bytes()));
        assert_eq!(decode_line(&line), Err("payload is not a journal record"));
        // Valid checksum over invalid JSON.
        let payload = "{broken";
        let line = format!("{:016x} {payload}", fnv64(payload.as_bytes()));
        assert_eq!(decode_line(&line), Err("payload is not valid json"));
    }

    #[test]
    fn cancel_token_flips_once_and_shares() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
        static FLAG: AtomicBool = AtomicBool::new(false);
        let s = CancelToken::from_static(&FLAG);
        assert!(!s.is_cancelled());
        FLAG.store(true, Ordering::SeqCst);
        assert!(s.is_cancelled());
        s.cancel(); // idempotent
        assert!(s.is_cancelled());
        assert!(!CancelToken::default().is_cancelled());
    }

    #[test]
    fn errors_display_with_context() {
        use std::error::Error as _;
        let e = JournalError::DigestMismatch {
            journaled: "aa".into(),
            requested: "bb".into(),
        };
        assert!(format!("{e}").contains("refusing to resume"));
        assert!(e.source().is_none());
        let e = JournalError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
        assert!(format!("{}", JournalError::MissingHeader).contains("header"));
    }
}
