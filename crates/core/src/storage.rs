//! Virtual filesystem seam with storage-fault injection and crash
//! simulation.
//!
//! The [`Journal`](crate::journal::Journal) and
//! [`FigureExporter`](crate::export::FigureExporter) promised crash
//! safety, but until this module every `std::io::Error` on the write path
//! was fail-stop, and recovery could only be tested against files mutilated
//! *after* the fact. This module puts a small trait seam —
//! [`StorageBackend`] over open/read/rename plus [`StorageFile`] over
//! write/sync/truncate — under every durable write, with three
//! implementations:
//!
//! * [`OsStorage`] — the real filesystem, byte-for-byte what the code did
//!   before the seam existed;
//! * [`MemStorage`] — an in-memory disk that distinguishes *cached* from
//!   *durable* bytes, counts every mutating operation, and can simulate a
//!   power loss before any chosen operation (with seeded torn/corrupt-tail
//!   variants). The crash-consistency torture harness enumerates every
//!   I/O boundary of a sweep on top of it;
//! * [`FaultyStorage`] — a wrapper that injects the storage fault kinds of
//!   `pv-faults` (`ENOSPC`, transient/persistent `EIO`, short writes,
//!   fsync-that-lies) on an operation-indexed clock, over any inner
//!   backend — including the real one, which is how `repro sweep
//!   --storage-faults` exercises degradation end to end.
//!
//! [`classify`] sorts an `io::Error` into transient vs persistent so the
//! journal's bounded retry/backoff knows whether to retry, rotate to a
//! fresh segment, or give up and let the sweep degrade
//! ([`StorageEscalation`]).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use pv_faults::{FaultEvent, FaultKind, FaultPlan};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// An open file behind the storage seam. Only the operations the journal
/// and exporter actually use — sequential reads, appending writes, sync,
/// truncate, seek — so in-memory and fault-injecting implementations stay
/// small and obviously correct.
///
/// `len` takes `&mut self` (the OS cursor may move), so the usual
/// `is_empty` pairing does not apply.
#[allow(clippy::len_without_is_empty)]
pub trait StorageFile: Send + fmt::Debug {
    /// Writes all of `buf` at the current cursor.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes written data to durable storage.
    fn sync_data(&mut self) -> io::Result<()>;
    /// Truncates (or extends with zeros) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Moves the cursor to absolute offset `pos`.
    fn seek_to(&mut self, pos: u64) -> io::Result<()>;
    /// Reads up to `buf.len()` bytes at the cursor; `Ok(0)` means EOF.
    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Current length of the file in bytes.
    fn len(&mut self) -> io::Result<u64>;
}

/// A filesystem namespace behind the storage seam.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Opens `path` read/write, creating it if missing (never truncating).
    fn open(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Creates `path` read/write, truncating any existing contents.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Reads the whole of `path` into memory.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates `path` and any missing parent directories.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Whether anything exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Whether `path` exists and is a directory.
    fn is_dir(&self, path: &Path) -> bool;
}

/// Cloneable handle to a [`StorageBackend`] — what [`Journal`] and
/// [`FigureExporter`] actually hold.
///
/// [`Journal`]: crate::journal::Journal
/// [`FigureExporter`]: crate::export::FigureExporter
#[derive(Debug, Clone)]
pub struct Storage(Arc<dyn StorageBackend>);

impl Storage {
    /// The real filesystem.
    pub fn os() -> Self {
        Storage(Arc::new(OsStorage))
    }

    /// Wraps any backend.
    pub fn new(backend: Arc<dyn StorageBackend>) -> Self {
        Storage(backend)
    }

    /// See [`StorageBackend::open`].
    ///
    /// # Errors
    ///
    /// Propagates the backend's I/O error.
    pub fn open(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.0.open(path)
    }

    /// See [`StorageBackend::create`].
    ///
    /// # Errors
    ///
    /// Propagates the backend's I/O error.
    pub fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.0.create(path)
    }

    /// See [`StorageBackend::read`].
    ///
    /// # Errors
    ///
    /// Propagates the backend's I/O error.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.0.read(path)
    }

    /// Reads `path` as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Propagates the backend's I/O error; non-UTF-8 contents are
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let bytes = self.0.read(path)?;
        String::from_utf8(bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file is not valid utf-8"))
    }

    /// See [`StorageBackend::rename`].
    ///
    /// # Errors
    ///
    /// Propagates the backend's I/O error.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.0.rename(from, to)
    }

    /// See [`StorageBackend::remove_file`].
    ///
    /// # Errors
    ///
    /// Propagates the backend's I/O error.
    pub fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.0.remove_file(path)
    }

    /// See [`StorageBackend::create_dir_all`].
    ///
    /// # Errors
    ///
    /// Propagates the backend's I/O error.
    pub fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.0.create_dir_all(path)
    }

    /// See [`StorageBackend::exists`].
    pub fn exists(&self, path: &Path) -> bool {
        self.0.exists(path)
    }

    /// See [`StorageBackend::is_dir`].
    pub fn is_dir(&self, path: &Path) -> bool {
        self.0.is_dir(path)
    }
}

impl Default for Storage {
    fn default() -> Self {
        Storage::os()
    }
}

// ---------------------------------------------------------------------------
// OsStorage — the real filesystem.
// ---------------------------------------------------------------------------

/// The real filesystem: every operation maps 1:1 onto `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsStorage;

#[derive(Debug)]
struct OsFile(std::fs::File);

impl StorageFile for OsFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.0.seek(io::SeekFrom::Start(pos)).map(|_| ())
    }

    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }
}

impl StorageBackend for OsStorage {
    fn open(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(OsFile(file)))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(OsFile(file)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn is_dir(&self, path: &Path) -> bool {
        path.is_dir()
    }
}

// ---------------------------------------------------------------------------
// MemStorage — in-memory disk with a durability model and crash simulation.
// ---------------------------------------------------------------------------

/// How the unsynced suffix of each file lands on disk at a simulated power
/// loss ([`MemStorage::power_cycle`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashVariant {
    /// Only fsynced bytes survive — the kernel flushed nothing extra.
    Clean,
    /// Half of the unsynced suffix reached the platter before power died —
    /// a classic torn multi-sector write.
    Partial,
    /// Half reached the platter *and* the tail of what landed was
    /// corrupted in flight: seeded deterministic bit flips, modelling a
    /// torn sector whose contents are garbage.
    Torn {
        /// Seed for the deterministic corruption pattern.
        seed: u64,
    },
}

#[derive(Debug, Default, Clone)]
struct MemFile {
    /// Current visible contents (the page cache).
    cache: Vec<u8>,
    /// Contents guaranteed to survive power loss (as of the last sync).
    durable: Vec<u8>,
}

#[derive(Debug, Default)]
struct MemState {
    files: BTreeMap<PathBuf, MemFile>,
    dirs: Vec<PathBuf>,
    /// Mutating operations performed so far.
    ops: u64,
    /// When `Some(k)`: the k-th mutating operation (0-based) and everything
    /// after it fails as if the machine lost power at that boundary.
    crash_at: Option<u64>,
    crashed: bool,
}

/// An in-memory filesystem that models durability: every file tracks both
/// its cached and its durable (last-synced) contents, every mutating
/// operation is counted, and [`MemStorage::power_cycle`] simulates a power
/// loss — optionally mid-write, with seeded torn/corrupt tails.
///
/// Clones share the same disk, so a test can keep a handle while the
/// journal owns another.
///
/// Model notes: `sync_data` flushes the *whole* file (like an OS page
/// cache, which may also flush earlier writes); `rename` and
/// `remove_file` are treated as atomic and immediately durable (journals
/// never rename, and the exporter's rename follows an fsync of the file
/// itself).
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    state: Arc<Mutex<MemState>>,
}

fn crashed_err() -> io::Error {
    io::Error::other("simulated power loss")
}

impl MemStorage {
    /// An empty in-memory disk.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, MemState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutating operations performed so far (writes, syncs, truncates,
    /// renames, removals, creations). The torture harness runs a sweep
    /// once to learn this count, then enumerates a crash before every one.
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Arms a crash before mutating operation `op` (0-based): that
    /// operation and every later one fail, as if power died at exactly
    /// that I/O boundary. Follow with [`MemStorage::power_cycle`].
    pub fn arm_crash(&self, op: u64) {
        let mut s = self.lock();
        s.crash_at = Some(op);
        s.crashed = false;
    }

    /// Simulates the reboot after a power loss: every file reverts to its
    /// durable contents plus whatever `variant` says survived of the
    /// unsynced suffix; the crash arming is cleared and the op counter
    /// keeps running.
    pub fn power_cycle(&self, variant: CrashVariant) {
        let mut s = self.lock();
        for f in s.files.values_mut() {
            let mut disk = f.durable.clone();
            // The unsynced appended suffix, when the cache still extends
            // the durable prefix. Overwrites of synced bytes and unsynced
            // truncations revert wholesale to the durable image.
            let extra: &[u8] = if f.cache.len() > disk.len() && f.cache[..disk.len()] == disk[..] {
                &f.cache[disk.len()..]
            } else {
                &[]
            };
            match variant {
                CrashVariant::Clean => {}
                CrashVariant::Partial => {
                    let keep = extra.len().div_ceil(2);
                    disk.extend_from_slice(&extra[..keep]);
                }
                CrashVariant::Torn { seed } => {
                    let keep = extra.len().div_ceil(2);
                    let start = disk.len();
                    disk.extend_from_slice(&extra[..keep]);
                    // Corrupt up to 8 bytes of the torn sector with
                    // deterministic pseudo-random flips.
                    let mut h = seed | 1;
                    let lo = start + keep.saturating_sub(8);
                    for b in &mut disk[lo..] {
                        h = h.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
                        *b ^= (h >> 33) as u8 | 1;
                    }
                }
            }
            f.cache = disk.clone();
            f.durable = disk;
        }
        s.crash_at = None;
        s.crashed = false;
    }

    /// Current (cached) contents of `path`, if it exists.
    pub fn file_bytes(&self, path: &Path) -> Option<Vec<u8>> {
        self.lock().files.get(path).map(|f| f.cache.clone())
    }
}

impl MemState {
    /// Gatekeeper for every mutating operation: trips the armed crash,
    /// rejects everything after it, and otherwise ticks the op counter.
    fn mutate(&mut self) -> io::Result<()> {
        if self.crashed {
            return Err(crashed_err());
        }
        if let Some(k) = self.crash_at {
            if self.ops >= k {
                self.crashed = true;
                return Err(crashed_err());
            }
        }
        self.ops += 1;
        Ok(())
    }

    fn read_ok(&self) -> io::Result<()> {
        if self.crashed {
            return Err(crashed_err());
        }
        Ok(())
    }
}

#[derive(Debug)]
struct MemHandle {
    storage: MemStorage,
    path: PathBuf,
    cursor: u64,
}

impl MemHandle {
    fn with_file<T>(
        &self,
        mutating: bool,
        f: impl FnOnce(&mut MemFile) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut s = self.storage.lock();
        if mutating {
            s.mutate()?;
        } else {
            s.read_ok()?;
        }
        let file = s
            .files
            .get_mut(&self.path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file was removed"))?;
        f(file)
    }
}

impl StorageFile for MemHandle {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let cursor = self.cursor as usize;
        self.with_file(true, |f| {
            if f.cache.len() < cursor {
                f.cache.resize(cursor, 0);
            }
            f.cache.truncate(cursor);
            f.cache.extend_from_slice(buf);
            Ok(())
        })?;
        self.cursor += buf.len() as u64;
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.with_file(true, |f| {
            f.durable = f.cache.clone();
            Ok(())
        })
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.with_file(true, |f| {
            f.cache.resize(len as usize, 0);
            Ok(())
        })
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.cursor = pos;
        Ok(())
    }

    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let cursor = self.cursor as usize;
        let n = self.with_file(false, |f| {
            if cursor >= f.cache.len() {
                return Ok(0);
            }
            let n = buf.len().min(f.cache.len() - cursor);
            buf[..n].copy_from_slice(&f.cache[cursor..cursor + n]);
            Ok(n)
        })?;
        self.cursor += n as u64;
        Ok(n)
    }

    fn len(&mut self) -> io::Result<u64> {
        self.with_file(false, |f| Ok(f.cache.len() as u64))
    }
}

impl StorageBackend for MemStorage {
    fn open(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        {
            let mut s = self.lock();
            if s.files.contains_key(path) {
                s.read_ok()?;
            } else {
                // Creating the file is itself a mutating operation (and a
                // crash boundary the torture harness enumerates).
                s.mutate()?;
                s.files.insert(path.to_path_buf(), MemFile::default());
            }
        }
        Ok(Box::new(MemHandle {
            storage: self.clone(),
            path: path.to_path_buf(),
            cursor: 0,
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        {
            let mut s = self.lock();
            s.mutate()?;
            let f = s.files.entry(path.to_path_buf()).or_default();
            f.cache.clear();
        }
        Ok(Box::new(MemHandle {
            storage: self.clone(),
            path: path.to_path_buf(),
            cursor: 0,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let s = self.lock();
        s.read_ok()?;
        s.files
            .get(path)
            .map(|f| f.cache.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.mutate()?;
        let f = s
            .files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        s.files.insert(to.to_path_buf(), f);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.mutate()?;
        s.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut s = self.lock();
        s.mutate()?;
        let path = path.to_path_buf();
        if !s.dirs.contains(&path) {
            s.dirs.push(path);
        }
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        let s = self.lock();
        s.files.contains_key(path) || s.dirs.iter().any(|d| d == path)
    }

    fn is_dir(&self, path: &Path) -> bool {
        self.lock().dirs.iter().any(|d| d == path)
    }
}

// ---------------------------------------------------------------------------
// FaultyStorage — plan-driven fault injection over any backend.
// ---------------------------------------------------------------------------

/// Marker payload attached to every injected storage error, so
/// [`classify`] can tell injected faults (and their kinds) from real I/O
/// failures.
#[derive(Debug)]
pub struct InjectedFault {
    /// Which storage fault kind fired.
    pub kind: FaultKind,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::StorageEnospc => write!(f, "injected: no space left on device"),
            FaultKind::StorageEioTransient => write!(f, "injected: transient i/o error"),
            FaultKind::StorageEioPersistent => write!(f, "injected: persistent i/o error"),
            FaultKind::StorageShortWrite => write!(f, "injected: short write"),
            other => write!(f, "injected: {other}"),
        }
    }
}

impl std::error::Error for InjectedFault {}

fn injected(kind: FaultKind) -> io::Error {
    let k = match kind {
        FaultKind::StorageEnospc => io::ErrorKind::StorageFull,
        FaultKind::StorageShortWrite => io::ErrorKind::WriteZero,
        _ => io::ErrorKind::Other,
    };
    io::Error::new(k, InjectedFault { kind })
}

/// Whether a failed storage operation is worth retrying in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Expected to clear on its own — retry with backoff.
    Transient,
    /// Will not clear by retrying at the same spot — rotate or give up.
    Persistent,
}

/// Classifies an I/O error for the retry machinery: injected transient
/// EIO and short writes are [`FaultClass::Transient`]; injected `ENOSPC`
/// and persistent EIO are [`FaultClass::Persistent`]; among real errors
/// only [`io::ErrorKind::Interrupted`] is transient.
pub fn classify(e: &io::Error) -> FaultClass {
    if let Some(injected) = e.get_ref().and_then(|r| r.downcast_ref::<InjectedFault>()) {
        return match injected.kind {
            FaultKind::StorageEioTransient | FaultKind::StorageShortWrite => FaultClass::Transient,
            _ => FaultClass::Persistent,
        };
    }
    if e.kind() == io::ErrorKind::Interrupted {
        FaultClass::Transient
    } else {
        FaultClass::Persistent
    }
}

#[derive(Debug)]
struct FaultClock {
    events: Vec<FaultEvent>,
    /// Fault-relevant operations observed so far — the storage plan's
    /// clock. Storage fault events interpret [`FaultEvent::at`] as an
    /// operation ordinal and [`FaultEvent::duration`] as an operation
    /// count.
    ops: u64,
}

impl FaultClock {
    /// Ticks the clock and returns the storage fault kind active at this
    /// operation, if any. Persistent-EIO windows never close: once the
    /// clock passes `at`, the device is gone for good.
    fn tick(&mut self) -> Option<FaultKind> {
        let t = self.ops as f64;
        self.ops += 1;
        self.events
            .iter()
            .find(|e| {
                if e.kind == FaultKind::StorageEioPersistent {
                    t >= e.at
                } else {
                    e.active_at(t)
                }
            })
            .map(|e| e.kind)
    }
}

/// A [`StorageBackend`] wrapper that injects the storage fault kinds of a
/// [`FaultPlan`] on a deterministic per-operation clock, over any inner
/// backend.
///
/// Per kind: `storage-enospc` fails writes, creations and renames (space
/// cannot be allocated) but lets shrinking truncates and syncs through;
/// `storage-eio-transient` fails any operation inside its window;
/// `storage-eio-persistent` fails every operation from its start forever;
/// `storage-short-write` writes only a prefix before failing (transient —
/// the journal repairs its tail and retries); `storage-fsync-lie` makes
/// `sync_data` report success *without* syncing, which only becomes
/// observable when the inner backend is a [`MemStorage`] that later
/// crashes. `storage-torn-write` is ignored here — tearing happens at
/// crash time and belongs to [`MemStorage::power_cycle`].
#[derive(Debug, Clone)]
pub struct FaultyStorage {
    inner: Storage,
    clock: Arc<Mutex<FaultClock>>,
}

impl FaultyStorage {
    /// Wraps `inner`, injecting the storage events of `plan` (non-storage
    /// events are ignored).
    ///
    /// # Panics
    ///
    /// Panics if an event cannot fire ([`FaultEvent::can_fire`]). A plan
    /// read by [`FaultPlan::from_toml_str`] never holds one.
    pub fn new(inner: Storage, plan: &FaultPlan) -> Self {
        for e in &plan.events {
            assert!(e.can_fire(), "fault event can never fire: {e:?}");
        }
        let events = plan
            .events
            .iter()
            .filter(|e| e.kind.is_storage())
            .cloned()
            .collect();
        Self {
            inner,
            clock: Arc::new(Mutex::new(FaultClock { events, ops: 0 })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FaultClock> {
        self.clock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Fault-relevant operations observed so far.
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Ticks the shared clock for one operation named `op`, returning the
    /// error to inject, if any.
    fn gate(&self, op: Op) -> io::Result<()> {
        let Some(kind) = self.lock().tick() else {
            return Ok(());
        };
        match (kind, op) {
            // Releasing space always works on a full disk; fsync of
            // already-written data does too.
            (FaultKind::StorageEnospc, Op::Shrink | Op::Sync | Op::Remove) => Ok(()),
            (FaultKind::StorageEnospc, _) => Err(injected(kind)),
            (FaultKind::StorageEioTransient | FaultKind::StorageEioPersistent, _) => {
                Err(injected(kind))
            }
            // Short writes and fsync lies are handled at the call site.
            (FaultKind::StorageShortWrite, Op::Write) => Err(injected(kind)),
            (FaultKind::StorageFsyncLie, Op::Sync) => Err(injected(kind)),
            _ => Ok(()),
        }
    }
}

/// Operation categories the fault gate distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Write,
    Sync,
    Shrink,
    Create,
    Rename,
    Remove,
}

#[derive(Debug)]
struct FaultyFile {
    inner: Box<dyn StorageFile>,
    storage: FaultyStorage,
}

impl StorageFile for FaultyFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.storage.gate(Op::Write) {
            Ok(()) => self.inner.write_all(buf),
            Err(e) => {
                let is_short = e
                    .get_ref()
                    .and_then(|r| r.downcast_ref::<InjectedFault>())
                    .is_some_and(|f| f.kind == FaultKind::StorageShortWrite);
                if is_short {
                    // A short write leaves a real partial prefix behind —
                    // exactly the garbage the journal's tail repair must
                    // clean up before retrying.
                    let _ = self.inner.write_all(&buf[..buf.len() / 2]);
                }
                Err(e)
            }
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        match self.storage.gate(Op::Sync) {
            Ok(()) => self.inner.sync_data(),
            Err(e) => {
                let lies = e
                    .get_ref()
                    .and_then(|r| r.downcast_ref::<InjectedFault>())
                    .is_some_and(|f| f.kind == FaultKind::StorageFsyncLie);
                if lies {
                    // The firmware said "durable" and did nothing. The
                    // caller cannot tell; only a later crash can.
                    Ok(())
                } else {
                    Err(e)
                }
            }
        }
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.storage.gate(Op::Shrink)?;
        self.inner.set_len(len)
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek_to(pos)
    }

    fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read_chunk(buf)
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl StorageBackend for FaultyStorage {
    fn open(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        if !self.inner.exists(path) {
            self.gate(Op::Create)?;
        }
        Ok(Box::new(FaultyFile {
            inner: self.inner.open(path)?,
            storage: self.clone(),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.gate(Op::Create)?;
        Ok(Box::new(FaultyFile {
            inner: self.inner.create(path)?,
            storage: self.clone(),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate(Op::Rename)?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.gate(Op::Remove)?;
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.gate(Op::Create)?;
        self.inner.create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn is_dir(&self, path: &Path) -> bool {
        self.inner.is_dir(path)
    }
}

// ---------------------------------------------------------------------------
// Escalation.
// ---------------------------------------------------------------------------

/// What a sweep does when the journal's storage gives out entirely
/// (retries and segment rotation exhausted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageEscalation {
    /// Seal the journaled prefix, stop journaling, and finish the sweep in
    /// memory — the fleet verdict becomes storage-degraded but no computed
    /// work is discarded. The default: a crowd campaign should not abort
    /// because a disk filled up.
    Degrade,
    /// Fail the sweep with the storage error. What the crash-consistency
    /// torture harness uses, so an injected crash stops the run promptly.
    Abort,
}

impl StorageEscalation {
    /// Stable name used by `--on-storage-failure`.
    pub fn as_str(self) -> &'static str {
        match self {
            StorageEscalation::Degrade => "degrade",
            StorageEscalation::Abort => "abort",
        }
    }

    /// Inverse of [`StorageEscalation::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "degrade" => Some(StorageEscalation::Degrade),
            "abort" => Some(StorageEscalation::Abort),
            _ => None,
        }
    }
}

impl fmt::Display for StorageEscalation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What the journal committed and what its self-healing machinery
/// actually did — surfaced by `repro sweep` and the chaos tests so silent
/// recovery still leaves an audit trail.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageHealth {
    /// Batches committed: each is one successful write plus one fsync.
    pub commits: u64,
    /// Records those batches carried.
    pub records: u64,
    /// Transient errors retried away.
    pub retries: u64,
    /// Segments rotated to after a poisoned one was quarantined.
    pub rotations: u32,
    /// Total simulated backoff booked while retrying.
    pub backoff_sim_s: f64,
    /// One line per recovery action, in order.
    pub events: Vec<String>,
}

impl StorageHealth {
    /// Whether any recovery action happened at all.
    pub fn is_clean(&self) -> bool {
        self.retries == 0 && self.rotations == 0
    }
}

// ---------------------------------------------------------------------------
// TempDir — unique per-test temporary directories.
// ---------------------------------------------------------------------------

/// A unique temporary directory, removed (best effort) on drop.
///
/// Test-support: the journal/export suites used to share fixed temp-file
/// paths keyed only by pid and clean up with `remove_file(..).unwrap()`,
/// which flakes under parallel test runs and poisons reruns after a
/// failure. Every [`TempDir`] is unique per process *and* per call, and
/// cleanup is best-effort on drop, so tests cannot cross-contaminate.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh directory under the system temp dir, its name
    /// combining `tag`, the pid, and a process-wide counter.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created — in a test, failing
    /// loudly beats writing into a shared location.
    pub fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("pv-{tag}-{}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let created = std::fs::create_dir_all(&path);
        assert!(created.is_ok(), "cannot create temp dir {}", path.display());
        Self { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path for `name` inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn mem_storage_round_trips_and_counts_ops() {
        let m = MemStorage::new();
        let storage = Storage::new(Arc::new(m.clone()));
        let mut f = storage.open(&p("a")).unwrap(); // op 0: create
        f.write_all(b"hello ").unwrap(); // op 1
        f.write_all(b"world").unwrap(); // op 2
        f.sync_data().unwrap(); // op 3
        assert_eq!(m.ops(), 4);
        assert_eq!(storage.read(&p("a")).unwrap(), b"hello world");
        assert_eq!(f.len().unwrap(), 11);
        // Reopen does not tick (file exists) and reads back.
        let mut g = storage.open(&p("a")).unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(g.read_chunk(&mut buf).unwrap(), 5);
        assert_eq!(&buf, b"hello");
        assert_eq!(m.ops(), 4);
    }

    #[test]
    fn unsynced_bytes_die_in_a_clean_crash() {
        let m = MemStorage::new();
        let storage = Storage::new(Arc::new(m.clone()));
        let mut f = storage.open(&p("j")).unwrap();
        f.write_all(b"durable\n").unwrap();
        f.sync_data().unwrap();
        f.write_all(b"pending\n").unwrap(); // never synced
        m.power_cycle(CrashVariant::Clean);
        assert_eq!(m.file_bytes(&p("j")).unwrap(), b"durable\n");
    }

    #[test]
    fn partial_and_torn_crashes_keep_half_the_tail() {
        for variant in [CrashVariant::Partial, CrashVariant::Torn { seed: 7 }] {
            let m = MemStorage::new();
            let storage = Storage::new(Arc::new(m.clone()));
            let mut f = storage.open(&p("j")).unwrap();
            f.write_all(b"base").unwrap();
            f.sync_data().unwrap();
            f.write_all(b"0123456789").unwrap();
            m.power_cycle(variant);
            let bytes = m.file_bytes(&p("j")).unwrap();
            assert_eq!(bytes.len(), 4 + 5, "{variant:?}");
            assert_eq!(&bytes[..4], b"base", "synced prefix untouched");
            if let CrashVariant::Torn { .. } = variant {
                assert_ne!(&bytes[4..], b"01234", "torn tail must be corrupted");
            } else {
                assert_eq!(&bytes[4..], b"01234");
            }
        }
    }

    #[test]
    fn armed_crash_fails_the_chosen_op_and_everything_after() {
        let m = MemStorage::new();
        let storage = Storage::new(Arc::new(m.clone()));
        let mut f = storage.open(&p("j")).unwrap(); // op 0
        f.write_all(b"a").unwrap(); // op 1
        m.arm_crash(2);
        assert!(f.write_all(b"b").is_err()); // op 2 dies
        assert!(f.sync_data().is_err(), "post-crash ops fail too");
        assert!(storage.read(&p("j")).is_err(), "reads fail after the crash");
        m.power_cycle(CrashVariant::Clean);
        assert!(storage.read(&p("j")).is_ok());
    }

    #[test]
    fn faulty_storage_injects_enospc_in_window() {
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: 2.0,
            duration: 2.0,
            kind: FaultKind::StorageEnospc,
            magnitude: 0.0,
        });
        let faulty = FaultyStorage::new(Storage::new(Arc::new(MemStorage::new())), &plan);
        let storage = Storage::new(Arc::new(faulty.clone()));
        let mut f = storage.open(&p("j")).unwrap(); // op 0
        f.write_all(b"ok").unwrap(); // op 1
        let e = f.write_all(b"no").unwrap_err(); // op 2: ENOSPC
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        assert_eq!(classify(&e), FaultClass::Persistent);
        // Shrinking truncates pass even while the disk is full (op 3).
        f.set_len(2).unwrap();
        f.write_all(b"again").unwrap(); // op 4: window closed
    }

    #[test]
    fn short_write_leaves_a_partial_prefix_and_is_transient() {
        let mem = MemStorage::new();
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: 1.0,
            duration: 1.0,
            kind: FaultKind::StorageShortWrite,
            magnitude: 0.0,
        });
        let faulty = FaultyStorage::new(Storage::new(Arc::new(mem.clone())), &plan);
        let storage = Storage::new(Arc::new(faulty));
        let mut f = storage.open(&p("j")).unwrap(); // op 0
        let e = f.write_all(b"0123456789").unwrap_err(); // op 1
        assert_eq!(classify(&e), FaultClass::Transient);
        assert_eq!(mem.file_bytes(&p("j")).unwrap(), b"01234");
    }

    #[test]
    fn fsync_lie_reports_success_without_syncing() {
        let mem = MemStorage::new();
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: 2.0,
            duration: 1.0,
            kind: FaultKind::StorageFsyncLie,
            magnitude: 0.0,
        });
        let faulty = FaultyStorage::new(Storage::new(Arc::new(mem.clone())), &plan);
        let storage = Storage::new(Arc::new(faulty));
        let mut f = storage.open(&p("j")).unwrap(); // op 0
        f.write_all(b"data").unwrap(); // op 1
        f.sync_data().unwrap(); // op 2: the lie
        assert_eq!(mem.lock().files[&p("j")].durable, b"");
        mem.power_cycle(CrashVariant::Clean);
        assert_eq!(mem.file_bytes(&p("j")).unwrap(), b"");
    }

    #[test]
    fn persistent_eio_never_clears() {
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: 1.0,
            duration: 1.0, // window length is ignored for persistent EIO
            kind: FaultKind::StorageEioPersistent,
            magnitude: 0.0,
        });
        let faulty = FaultyStorage::new(Storage::new(Arc::new(MemStorage::new())), &plan);
        let storage = Storage::new(Arc::new(faulty));
        let mut f = storage.open(&p("j")).unwrap(); // op 0
        for _ in 0..5 {
            let e = f.write_all(b"x").unwrap_err();
            assert_eq!(classify(&e), FaultClass::Persistent);
        }
    }

    #[test]
    #[should_panic(expected = "fault event can never fire")]
    fn faulty_storage_refuses_a_window_that_cannot_fire() {
        let plan = FaultPlan::empty().with_event(FaultEvent {
            at: f64::NAN,
            duration: 1.0,
            kind: FaultKind::StorageEnospc,
            magnitude: 0.0,
        });
        let _ = FaultyStorage::new(Storage::new(Arc::new(MemStorage::new())), &plan);
    }

    #[test]
    fn classify_handles_real_errors() {
        assert_eq!(
            classify(&io::Error::from(io::ErrorKind::Interrupted)),
            FaultClass::Transient
        );
        assert_eq!(classify(&io::Error::other("boom")), FaultClass::Persistent);
    }

    #[test]
    fn escalation_names_round_trip() {
        for esc in [StorageEscalation::Degrade, StorageEscalation::Abort] {
            assert_eq!(StorageEscalation::parse(esc.as_str()), Some(esc));
            assert_eq!(format!("{esc}"), esc.as_str());
        }
        assert_eq!(StorageEscalation::parse("nope"), None);
    }

    #[test]
    fn temp_dirs_are_unique_and_cleaned_up() {
        let a = TempDir::new("storage-test");
        let b = TempDir::new("storage-test");
        assert_ne!(a.path(), b.path());
        std::fs::write(a.file("x"), "1").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().exists());
    }
}
