//! The release store: what the data owner retains per protected release,
//! either in memory or durably on disk.
//!
//! The paper's custodian must answer `detect` and `resolve-ownership`
//! claims *long after* a release was outsourced — the binning columns, the
//! mark and the ownership proof are the owner's evidence, and evidence must
//! survive process death. [`DurableStore`] therefore keeps every release in
//! an append-only **write-ahead log** and periodically folds the log into a
//! **snapshot**:
//!
//! ```text
//! append(release)           recovery (open)
//!   │                          │
//!   ▼                          ▼
//! wal.log  ──compaction──▶  snapshot.bin ──▶ map + next id
//!   (length-prefixed,         (atomic tmp+rename,   ▲
//!    CRC-32 framed            same framing)         │
//!    records)                 torn WAL tail truncated┘
//! ```
//!
//! * **WAL records** are `[u32 len][u32 crc32][payload]` frames over the
//!   compact binary codec of [`medshield_core::codec`]; a crash can only
//!   tear the *tail*, which recovery detects (short frame, impossible
//!   length, checksum mismatch) and truncates before serving resumes.
//! * **Snapshots** are written to `snapshot.tmp`, fsynced, renamed over
//!   `snapshot.bin` and only then is the WAL truncated — at every instant
//!   one of (old snapshot + full WAL) or (new snapshot + truncated WAL)
//!   recovers the full map, and replaying a WAL record already folded into
//!   the snapshot is idempotent.
//! * **fsync batching (group commit):** [`ReleaseStore::append`] only
//!   writes; [`ReleaseStore::sync`] makes everything appended so far
//!   durable before a `protect` reply is released, and concurrent workers
//!   waiting on the same sync share one `fdatasync` call instead of queuing
//!   one each.
//! * **Recipient records:** `protect-for` appends a dedicated WAL record
//!   per registered recipient (release id, name, fingerprint mark) instead
//!   of rewriting the release; snapshots fold the recipients back into
//!   their release's record. Pre-refactor (v1) stores decode unchanged —
//!   their releases simply recover with empty recipient lists, and
//!   recipient-less releases are still *written* in the v1 byte format.
//! * **Id stability:** ids are assigned in WAL order under the log lock and
//!   `next id` is restored on recovery as one past the highest durable id —
//!   a release id handed to a client is never reassigned across restarts,
//!   so stale client ids can never alias onto new releases.

use medshield_binning::ColumnBinning;
use medshield_core::codec::{self, CodecError, Reader, Writer};
use medshield_watermark::{Mark, OwnershipProof};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write as IoWrite};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// What the data holder keeps per protected release: everything detection
/// and dispute resolution need later.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRelease {
    /// Per-column binning state (maximal/minimal/ultimate node sets), in
    /// schema order of the quasi columns.
    pub columns: Vec<ColumnBinning>,
    /// The release's own mark — the owner's single-mark copy (`protect`).
    pub mark: Mark,
    /// The §5.4 ownership proof, when the release was protected with
    /// `mark_from_statistic` enabled.
    pub ownership: Option<OwnershipProof>,
    /// The recipients this release was fingerprinted for (`protect-for`),
    /// in registration order. Empty for single-mark releases, including
    /// every release recovered from a pre-refactor (v1) store.
    pub recipients: Vec<StoredRecipient>,
}

impl StoredRelease {
    /// The registered recipient with the given name, if any.
    pub fn recipient(&self, name: &str) -> Option<&StoredRecipient> {
        self.recipients.iter().find(|r| r.name == name)
    }
}

/// One recipient copy of a release: the identity the fingerprint was derived
/// from and the derived mark itself (stored so `resolve-leaker` can score
/// recipients without re-deriving, and so the evidence survives a key
/// rotation).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecipient {
    /// The recipient's identity — the fingerprint derivation label.
    pub name: String,
    /// The fingerprint mark embedded into this recipient's copy.
    pub mark: Mark,
}

/// Errors from a release store.
#[derive(Debug)]
pub enum StoreError {
    /// Reading or writing the backing files failed.
    Io(std::io::Error),
    /// The backing files exist but cannot be decoded (and the damage is not
    /// a truncatable torn tail).
    Corrupt(String),
    /// Another live process holds the data directory.
    Busy(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "release store i/o error: {e}"),
            StoreError::Corrupt(m) => write!(f, "release store is corrupt: {m}"),
            StoreError::Busy(m) => write!(f, "release store is busy: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Corrupt(e.to_string())
    }
}

/// Lock a mutex, recovering from poisoning: every mutex in the serving
/// layer guards plain-data state (maps, deques, counters) that is consistent
/// after any panic, so one panicking worker must not cascade into
/// `PoisonError` panics on unrelated connections.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // medlint::allow(lock-discipline, this IS the sanctioned acquisition point the rule funnels everyone into)
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where the serving layer keeps release state. All methods take `&self`:
/// implementations are shared across worker threads.
pub trait ReleaseStore: Send + Sync {
    /// Store a release and return its id. Ids are strictly increasing and
    /// never reused, in memory or across restarts.
    fn append(&self, release: StoredRelease) -> Result<u64, StoreError>;

    /// Register a recipient copy of release `id`. Returns the updated
    /// release, or `None` when no such release exists. Idempotent per name:
    /// re-registering an existing recipient returns the release unchanged
    /// (fingerprints are deterministic, so the mark cannot differ), and
    /// durable stores write no duplicate WAL record for it.
    fn add_recipient(
        &self,
        id: u64,
        recipient: StoredRecipient,
    ) -> Result<Option<Arc<StoredRelease>>, StoreError>;

    /// Make every release appended so far durable. Called by the server
    /// after each successful `protect` or `protect-for`, *before* its reply
    /// is released; concurrent callers share one fsync (group commit). A
    /// no-op for in-memory stores.
    fn sync(&self) -> Result<(), StoreError>;

    /// The release with the given id, if stored.
    fn get(&self, id: u64) -> Option<Arc<StoredRelease>>;

    /// Number of stored releases.
    fn len(&self) -> usize;

    /// True when the store holds no releases.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id the next [`ReleaseStore::append`] will assign.
    fn next_id(&self) -> u64;

    /// True when the store survives a restart.
    fn is_durable(&self) -> bool;

    /// Test hook: panic **while holding the store's internal lock**, to
    /// exercise mutex-poison recovery end to end. Only reachable through
    /// the debug-gated `panic` wire command; never called in production.
    #[doc(hidden)]
    fn poison_for_tests(&self) {
        // medlint::allow(no-panic, test hook reachable only via the debug-gated panic command; the panic is the point)
        panic!("debug poison hook");
    }
}

/// The default, restart-volatile store: a mutex-guarded map. Tests and
/// short-lived servers use it; `--data-dir` swaps in [`DurableStore`].
#[derive(Debug)]
pub struct MemoryStore {
    map: Mutex<HashMap<u64, Arc<StoredRelease>>>,
    next: AtomicU64,
}

impl MemoryStore {
    /// An empty in-memory store; ids start at 1.
    pub fn new() -> MemoryStore {
        MemoryStore { map: Mutex::new(HashMap::new()), next: AtomicU64::new(1) }
    }
}

impl Default for MemoryStore {
    /// Same as [`MemoryStore::new`] — a derived `Default` would start ids
    /// at 0, diverging from every other constructor's "ids start at 1"
    /// contract.
    fn default() -> MemoryStore {
        MemoryStore::new()
    }
}

impl ReleaseStore for MemoryStore {
    fn append(&self, release: StoredRelease) -> Result<u64, StoreError> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(&self.map).insert(id, Arc::new(release));
        Ok(id)
    }

    fn add_recipient(
        &self,
        id: u64,
        recipient: StoredRecipient,
    ) -> Result<Option<Arc<StoredRelease>>, StoreError> {
        let mut map = lock_unpoisoned(&self.map);
        let Some(existing) = map.get(&id) else { return Ok(None) };
        if existing.recipient(&recipient.name).is_some() {
            return Ok(Some(Arc::clone(existing)));
        }
        let mut updated = (**existing).clone();
        updated.recipients.push(recipient);
        let updated = Arc::new(updated);
        map.insert(id, Arc::clone(&updated));
        Ok(Some(updated))
    }

    fn sync(&self) -> Result<(), StoreError> {
        Ok(())
    }

    fn get(&self, id: u64) -> Option<Arc<StoredRelease>> {
        lock_unpoisoned(&self.map).get(&id).cloned()
    }

    fn len(&self) -> usize {
        lock_unpoisoned(&self.map).len()
    }

    fn next_id(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    fn is_durable(&self) -> bool {
        false
    }

    fn poison_for_tests(&self) {
        let _guard = lock_unpoisoned(&self.map);
        // medlint::allow(no-panic, test hook: panics while holding the lock to exercise poison recovery)
        panic!("debug poison hook (memory store)");
    }
}

/// File names inside the data directory.
const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";
const LOCK_FILE: &str = "lock";

/// Magic prefixes identifying (and versioning) the two file formats.
const WAL_MAGIC: &[u8; 8] = b"MSWAL\x01\r\n";
const SNAPSHOT_MAGIC: &[u8; 8] = b"MSSNP\x01\r\n";

/// Recovery refuses record lengths beyond this: a frame header announcing
/// more is a torn or foreign tail, not a release record (real records are
/// a few hundred bytes).
const MAX_RECORD_LEN: usize = 64 * 1024 * 1024;

/// Version tags of the record payload encodings (the first payload byte).
///
/// * Tag 1 is the pre-refactor single-mark release record. It is still
///   **written** whenever a release has no recipients, so a store that never
///   sees `protect-for` stays byte-identical to one produced before the
///   per-recipient refactor — and a v1 store recovers without rewriting.
/// * Tag 2 is a release record with its recipient list folded in (snapshots
///   always fold; the WAL holds one when a `protect-for` created the
///   release).
/// * Tag 3 is the recipient-add record appended by
///   [`ReleaseStore::add_recipient`]; replaying it folds the recipient onto
///   its release.
const RELEASE_RECORD_V1: u8 = 1;
const RELEASE_RECORD_V2: u8 = 2;
const RECIPIENT_RECORD: u8 = 3;

/// The sequencing state of the write-ahead log; guarded by one mutex so WAL
/// bytes and release ids are appended in the same order.
#[derive(Debug)]
struct Wal {
    file: File,
    /// Current length of the valid prefix (a failed append rolls back to
    /// it, keeping the file parseable).
    len: u64,
    /// Appends since the last snapshot, for the compaction trigger.
    since_snapshot: usize,
}

/// Group-commit bookkeeping: `synced` / `written` count records, not bytes.
#[derive(Debug, Default)]
struct SyncState {
    synced: u64,
    syncing: bool,
    /// Set on the first fsync failure, permanently. A failed `fdatasync`
    /// may have *discarded* the dirty pages it could not write (the
    /// "fsyncgate" semantics of Linux), so a later successful fsync must
    /// not be credited as covering the earlier records — the store
    /// fail-stops: reads keep serving, every further append/sync errors,
    /// and a restart re-derives the truth from what actually reached disk.
    failed: bool,
}

/// The durable release store: WAL + snapshot + crash recovery. See the
/// module docs for the file formats and the crash-ordering argument.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    map: Mutex<HashMap<u64, Arc<StoredRelease>>>,
    wal: Mutex<Wal>,
    /// Duplicate handle to the WAL's file descriptor so group commit can
    /// fsync without holding the append lock.
    sync_file: File,
    /// The next id to assign; only mutated under the WAL lock so id order
    /// equals log order.
    next: AtomicU64,
    /// Records appended (and OS-buffered) so far.
    written: AtomicU64,
    sync_state: Mutex<SyncState>,
    sync_cv: Condvar,
    /// Snapshot + compact after this many appends; 0 disables snapshots
    /// (the WAL alone still recovers everything).
    snapshot_every: usize,
    /// Releases restored by recovery (observable via `ping`).
    recovered: usize,
    /// Holds the OS advisory lock on the data directory for the store's
    /// whole lifetime; released automatically when the process dies (even
    /// by SIGKILL), so a crashed owner never wedges the next one.
    _lock: File,
}

impl DurableStore {
    /// Open (or create) a durable store in `dir`, running crash recovery:
    /// load the snapshot if one exists, replay the WAL on top, truncate a
    /// torn tail record, and restore the next release id as one past the
    /// highest durable id.
    pub fn open(dir: impl AsRef<Path>, snapshot_every: usize) -> Result<DurableStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // Exactly one live process may own a data directory: two writers
        // would interleave WAL frames and hand the same release id to
        // different clients — the aliasing this store exists to prevent.
        // An OS advisory lock fails the second opener fast and evaporates
        // with the holder's death, however abrupt.
        let lock = File::create(dir.join(LOCK_FILE))?;
        if lock.try_lock().is_err() {
            return Err(StoreError::Busy(format!(
                "data directory {} is locked by another live process",
                dir.display()
            )));
        }
        // A leftover snapshot.tmp was never renamed, i.e. never became the
        // snapshot: discard it.
        let tmp = dir.join(SNAPSHOT_TMP);
        if tmp.exists() {
            let _ = std::fs::remove_file(&tmp);
        }

        let mut map = HashMap::new();
        let mut next: u64 = 1;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        if snapshot_path.exists() {
            let bytes = std::fs::read(&snapshot_path)?;
            parse_snapshot(&bytes, &mut map, &mut next)?;
        }

        let wal_path = dir.join(WAL_FILE);
        // Never truncate on open: recovery decides below how much of an
        // existing log survives.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let valid_len = if bytes.is_empty() || WAL_MAGIC.starts_with(bytes.as_slice()) {
            // New log — or one whose very first (magic) write was torn,
            // which means it never held a record.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
            WAL_MAGIC.len() as u64
        } else if bytes.starts_with(WAL_MAGIC) {
            replay_wal(&bytes, &mut map, &mut next)
        } else {
            // Anything else is a foreign file; refuse to overwrite it.
            return Err(StoreError::Corrupt(format!(
                "{} does not start with the WAL magic",
                wal_path.display()
            )));
        };
        // Truncate the torn tail (a no-op when the whole log replayed) and
        // position the cursor for appending.
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        file.sync_data()?;
        // Make the log's *directory entry* durable too: fdatasync on the
        // file alone does not persist the creation of a fresh wal.log, and
        // losing that entry on power failure would resurrect an empty store
        // whose ids restart at 1 — the aliasing this module exists to
        // prevent. Same ordering the snapshot rename uses.
        File::open(&dir).and_then(|d| d.sync_all())?;

        let sync_file = file.try_clone()?;
        let recovered = map.len();
        Ok(DurableStore {
            dir,
            map: Mutex::new(map),
            wal: Mutex::new(Wal { file, len: valid_len, since_snapshot: 0 }),
            sync_file,
            next: AtomicU64::new(next),
            written: AtomicU64::new(0),
            sync_state: Mutex::new(SyncState::default()),
            sync_cv: Condvar::new(),
            snapshot_every,
            recovered,
            _lock: lock,
        })
    }

    /// Releases restored by crash recovery when the store was opened.
    pub fn recovered_releases(&self) -> usize {
        self.recovered
    }

    /// Fold the current map into a snapshot and truncate the WAL, without
    /// waiting for the `snapshot_every` trigger. Tests and operators use
    /// this; appends run it automatically.
    pub fn compact(&self) -> Result<(), StoreError> {
        let mut wal = lock_unpoisoned(&self.wal);
        self.snapshot_locked(&mut wal)
    }

    /// Write `snapshot.tmp`, fsync it, rename it over `snapshot.bin`, fsync
    /// the directory, and only then truncate the WAL. Requires the WAL lock
    /// so no append can land between the map capture and the truncation.
    fn snapshot_locked(&self, wal: &mut Wal) -> Result<(), StoreError> {
        wal.since_snapshot = 0;
        let mut entries: Vec<(u64, Arc<StoredRelease>)> = {
            let map = lock_unpoisoned(&self.map);
            map.iter().map(|(id, release)| (*id, Arc::clone(release))).collect()
        };
        entries.sort_by_key(|(id, _)| *id);

        let tmp_path = self.dir.join(SNAPSHOT_TMP);
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(SNAPSHOT_MAGIC)?;
        tmp.write_all(&self.next.load(Ordering::Relaxed).to_le_bytes())?;
        tmp.write_all(&(entries.len() as u64).to_le_bytes())?;
        for (id, release) in &entries {
            tmp.write_all(&frame_record(&encode_release_record(*id, release)?))?;
        }
        tmp.sync_data()?;
        drop(tmp);
        std::fs::rename(&tmp_path, self.dir.join(SNAPSHOT_FILE))?;
        // The rename itself must be durable before the WAL loses the same
        // records. If the directory cannot be fsynced, skip the truncation:
        // the log keeps everything and compaction retries later.
        if File::open(&self.dir).and_then(|d| d.sync_all()).is_err() {
            return Ok(());
        }
        wal.file.set_len(WAL_MAGIC.len() as u64)?;
        wal.file.seek(SeekFrom::Start(WAL_MAGIC.len() as u64))?;
        wal.file.sync_data()?;
        wal.len = WAL_MAGIC.len() as u64;
        Ok(())
    }
}

impl ReleaseStore for DurableStore {
    fn append(&self, release: StoredRelease) -> Result<u64, StoreError> {
        if lock_unpoisoned(&self.sync_state).failed {
            return Err(StoreError::Io(std::io::Error::other(
                "the store fail-stopped after an fsync failure; restart to recover",
            )));
        }
        let mut wal = lock_unpoisoned(&self.wal);
        let id = self.next.load(Ordering::Relaxed);
        let frame = frame_record(&encode_release_record(id, &release)?);
        if let Err(e) = wal.file.write_all(&frame) {
            // Roll back to the last record boundary so a partial write
            // cannot shadow later appends from recovery.
            let len = wal.len;
            let _ = wal.file.set_len(len);
            let _ = wal.file.seek(SeekFrom::Start(len));
            return Err(StoreError::Io(e));
        }
        wal.len += frame.len() as u64;
        self.next.store(id + 1, Ordering::Relaxed);
        self.written.fetch_add(1, Ordering::Release);
        lock_unpoisoned(&self.map).insert(id, Arc::new(release));
        wal.since_snapshot += 1;
        if self.snapshot_every > 0 && wal.since_snapshot >= self.snapshot_every {
            // Compaction is an optimization, never a correctness need: the
            // WAL already holds this release, so a snapshot failure must
            // not fail the append (the client would retry a release that is
            // stored, durable and serving). The trigger counter was reset,
            // so compaction simply retries after another `snapshot_every`
            // appends.
            if self.snapshot_locked(&mut wal).is_err() {
                // Whatever step failed, re-anchor the append cursor to the
                // file's real end so the next record can never land past a
                // shrunken EOF (a hole would read as a torn tail and shadow
                // every record after it).
                if let Ok(end) = wal.file.seek(SeekFrom::End(0)) {
                    wal.len = end;
                }
            }
        }
        Ok(id)
    }

    fn add_recipient(
        &self,
        id: u64,
        recipient: StoredRecipient,
    ) -> Result<Option<Arc<StoredRelease>>, StoreError> {
        if lock_unpoisoned(&self.sync_state).failed {
            return Err(StoreError::Io(std::io::Error::other(
                "the store fail-stopped after an fsync failure; restart to recover",
            )));
        }
        // The WAL lock orders the existence check, the record bytes and the
        // map update against concurrent appends, exactly like `append`.
        let mut wal = lock_unpoisoned(&self.wal);
        {
            let map = lock_unpoisoned(&self.map);
            match map.get(&id) {
                None => return Ok(None),
                Some(existing) if existing.recipient(&recipient.name).is_some() => {
                    // Idempotent re-registration: the fingerprint is
                    // deterministic, so there is nothing new to log.
                    return Ok(Some(Arc::clone(existing)));
                }
                Some(_) => {}
            }
        }
        let frame = frame_record(&encode_recipient_record(id, &recipient)?);
        if let Err(e) = wal.file.write_all(&frame) {
            let len = wal.len;
            let _ = wal.file.set_len(len);
            let _ = wal.file.seek(SeekFrom::Start(len));
            return Err(StoreError::Io(e));
        }
        wal.len += frame.len() as u64;
        self.written.fetch_add(1, Ordering::Release);
        let updated = {
            let mut map = lock_unpoisoned(&self.map);
            fold_recipient(&mut map, id, recipient);
            map.get(&id).cloned()
        };
        wal.since_snapshot += 1;
        if self.snapshot_every > 0 && wal.since_snapshot >= self.snapshot_every {
            // Same rationale as in `append`: compaction failure must never
            // fail a durably logged mutation.
            if self.snapshot_locked(&mut wal).is_err() {
                if let Ok(end) = wal.file.seek(SeekFrom::End(0)) {
                    wal.len = end;
                }
            }
        }
        Ok(updated)
    }

    fn sync(&self) -> Result<(), StoreError> {
        let target = self.written.load(Ordering::Acquire);
        let mut state = lock_unpoisoned(&self.sync_state);
        loop {
            if state.failed {
                // Sticky: a failed fdatasync may have dropped the dirty
                // pages it could not write, so no later fsync can vouch for
                // records written before the failure. See `SyncState`.
                return Err(StoreError::Io(std::io::Error::other(
                    "the store fail-stopped after an fsync failure; restart to recover",
                )));
            }
            if state.synced >= target {
                return Ok(());
            }
            if state.syncing {
                // Another worker's fsync is in flight; it covers (at least)
                // some of our records — wait and re-check. This is the
                // group commit: N waiters, one fdatasync.
                state = self.sync_cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            state.syncing = true;
            // Cover everything OS-buffered up to *now*, which includes our
            // own records (written before `target` was read).
            let cover = self.written.load(Ordering::Acquire);
            drop(state);
            let result = self.sync_file.sync_data();
            state = lock_unpoisoned(&self.sync_state);
            state.syncing = false;
            match &result {
                Ok(()) => state.synced = state.synced.max(cover),
                Err(_) => state.failed = true,
            }
            self.sync_cv.notify_all();
            result.map_err(StoreError::Io)?;
        }
    }

    fn get(&self, id: u64) -> Option<Arc<StoredRelease>> {
        lock_unpoisoned(&self.map).get(&id).cloned()
    }

    fn len(&self) -> usize {
        lock_unpoisoned(&self.map).len()
    }

    fn next_id(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn poison_for_tests(&self) {
        let _guard = lock_unpoisoned(&self.map);
        // medlint::allow(no-panic, test hook: panics while holding the lock to exercise poison recovery)
        panic!("debug poison hook (durable store)");
    }
}

/// Split a `[u32 len][u32 crc32]` record header out of `bytes` at `at`.
/// `None` when fewer than eight bytes remain — total on any input.
fn record_header(bytes: &[u8], at: usize) -> Option<(usize, u32)> {
    let header = bytes.get(at..at.checked_add(8)?)?;
    let (len_raw, crc_raw) = header.split_at(4);
    let len = usize::try_from(u32::from_le_bytes(len_raw.try_into().ok()?)).ok()?;
    let crc = u32::from_le_bytes(crc_raw.try_into().ok()?);
    Some((len, crc))
}

/// Read a little-endian `u64` at `at`; `None` when out of range.
fn read_u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    let raw = bytes.get(at..at.checked_add(8)?)?;
    Some(u64::from_le_bytes(raw.try_into().ok()?))
}

/// Frame a record payload: `[u32 len][u32 crc32][payload]`, little-endian.
fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&codec::crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Encode one release record payload (version, id, columns, mark, proof,
/// and — under v2 — the recipient list). Recipient-less releases are
/// written in the v1 format so pre-refactor stores round-trip byte-for-byte.
fn encode_release_record(id: u64, release: &StoredRelease) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    let version = if release.recipients.is_empty() { RELEASE_RECORD_V1 } else { RELEASE_RECORD_V2 };
    w.u8(version);
    w.u64(id);
    w.count_u32(release.columns.len());
    for column in &release.columns {
        codec::write_column_binning(&mut w, column);
    }
    codec::write_mark(&mut w, &release.mark);
    match &release.ownership {
        None => w.u8(0),
        Some(proof) => {
            w.u8(1);
            codec::write_ownership_proof(&mut w, proof);
        }
    }
    if version == RELEASE_RECORD_V2 {
        w.count_u32(release.recipients.len());
        for recipient in &release.recipients {
            w.str(&recipient.name);
            codec::write_mark(&mut w, &recipient.mark);
        }
    }
    w.into_bytes()
}

/// Encode one recipient-add record payload (version, release id, name, mark).
fn encode_recipient_record(id: u64, recipient: &StoredRecipient) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.u8(RECIPIENT_RECORD);
    w.u64(id);
    w.str(&recipient.name);
    codec::write_mark(&mut w, &recipient.mark);
    w.into_bytes()
}

/// One decoded WAL/snapshot record.
enum StoreRecord {
    /// A full release (v1 without recipients, v2 with).
    Release(u64, StoredRelease),
    /// A recipient added to an existing release.
    Recipient(u64, StoredRecipient),
}

/// Decode one record payload, dispatching on the leading version tag.
fn decode_record(payload: &[u8]) -> Result<StoreRecord, CodecError> {
    match payload.first().copied() {
        Some(RELEASE_RECORD_V1) | Some(RELEASE_RECORD_V2) => {
            let (id, release) = decode_release_record(payload)?;
            Ok(StoreRecord::Release(id, release))
        }
        Some(RECIPIENT_RECORD) => {
            let mut r = Reader::new(payload);
            let _version = r.u8()?;
            let id = r.u64()?;
            let name = r.str()?.to_string();
            let mark = codec::read_mark(&mut r)?;
            r.finish()?;
            Ok(StoreRecord::Recipient(id, StoredRecipient { name, mark }))
        }
        Some(version) => Err(CodecError::Invalid(format!("unknown record version {version}"))),
        None => Err(CodecError::Truncated),
    }
}

/// Decode one release record payload (v1 or v2).
fn decode_release_record(payload: &[u8]) -> Result<(u64, StoredRelease), CodecError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != RELEASE_RECORD_V1 && version != RELEASE_RECORD_V2 {
        return Err(CodecError::Invalid(format!("unknown release record version {version}")));
    }
    let id = r.u64()?;
    let column_count = r.u32()? as usize;
    // A minimal encoded column is 16 bytes (name length + three node-set
    // counts); cap the preallocation accordingly so a corrupt count inside
    // a large record cannot force a huge Vec reservation before decoding
    // fails.
    if column_count.saturating_mul(16) > payload.len() {
        return Err(CodecError::Truncated);
    }
    let mut columns = Vec::with_capacity(column_count);
    for _ in 0..column_count {
        columns.push(codec::read_column_binning(&mut r)?);
    }
    let mark = codec::read_mark(&mut r)?;
    let ownership = match r.u8()? {
        0 => None,
        1 => Some(codec::read_ownership_proof(&mut r)?),
        tag => return Err(CodecError::Invalid(format!("unknown ownership tag {tag}"))),
    };
    let recipients = if version == RELEASE_RECORD_V2 {
        let count = r.u32()? as usize;
        // A minimal encoded recipient is 9 bytes (name length + mark
        // length); same preallocation cap rationale as the columns above.
        if count.saturating_mul(9) > payload.len() {
            return Err(CodecError::Truncated);
        }
        let mut recipients = Vec::with_capacity(count);
        for _ in 0..count {
            let name = r.str()?.to_string();
            let mark = codec::read_mark(&mut r)?;
            recipients.push(StoredRecipient { name, mark });
        }
        recipients
    } else {
        Vec::new()
    };
    r.finish()?;
    Ok((id, StoredRelease { columns, mark, ownership, recipients }))
}

/// Fold a recipient-add record onto its release (clone-on-write of the
/// shared [`Arc`]). Idempotent by name, so replaying a WAL record whose
/// recipient the snapshot already folded in cannot duplicate it. A record
/// naming a release the map does not hold is ignored: recipient records are
/// only ever appended after their release's record, so the release must have
/// been dropped by an earlier (torn-tail) truncation.
fn fold_recipient(map: &mut HashMap<u64, Arc<StoredRelease>>, id: u64, recipient: StoredRecipient) {
    let Some(existing) = map.get(&id) else { return };
    if existing.recipient(&recipient.name).is_some() {
        return;
    }
    let mut updated = (**existing).clone();
    updated.recipients.push(recipient);
    map.insert(id, Arc::new(updated));
}

/// Replay WAL records into `map`, returning the byte length of the valid
/// prefix. A short header, an impossible length, a checksum mismatch or an
/// undecodable payload all end the replay there — under append-only
/// semantics that point is the torn tail of the crashed writer.
fn replay_wal(bytes: &[u8], map: &mut HashMap<u64, Arc<StoredRelease>>, next: &mut u64) -> u64 {
    let mut at = WAL_MAGIC.len();
    while let Some((len, crc)) = record_header(bytes, at) {
        if len > MAX_RECORD_LEN {
            break;
        }
        let Some(payload) = bytes.get(at + 8..at + 8 + len) else { break };
        if codec::crc32(payload) != crc {
            break;
        }
        match decode_record(payload) {
            Ok(StoreRecord::Release(id, release)) => {
                map.insert(id, Arc::new(release));
                *next = (*next).max(id + 1);
            }
            Ok(StoreRecord::Recipient(id, recipient)) => {
                fold_recipient(map, id, recipient);
            }
            Err(_) => break,
        }
        at += 8 + len;
    }
    at as u64
}

/// Parse a snapshot file **strictly**: snapshots are written atomically
/// (tmp + fsync + rename), so unlike the WAL they are never legitimately
/// torn — any damage is a hard [`StoreError::Corrupt`].
fn parse_snapshot(
    bytes: &[u8],
    map: &mut HashMap<u64, Arc<StoredRelease>>,
    next: &mut u64,
) -> Result<(), StoreError> {
    let corrupt = |m: &str| StoreError::Corrupt(format!("snapshot: {m}"));
    if !bytes.starts_with(SNAPSHOT_MAGIC) {
        return Err(corrupt("missing magic or header"));
    }
    let mut at = SNAPSHOT_MAGIC.len();
    let stored_next = read_u64_at(bytes, at).ok_or_else(|| corrupt("missing magic or header"))?;
    at += 8;
    let count = read_u64_at(bytes, at).ok_or_else(|| corrupt("missing magic or header"))?;
    at += 8;
    for i in 0..count {
        let (len, crc) =
            record_header(bytes, at).ok_or_else(|| corrupt(&format!("record {i} header cut")))?;
        if len > MAX_RECORD_LEN {
            return Err(corrupt(&format!("record {i} announces {len} bytes")));
        }
        let payload = bytes
            .get(at + 8..at + 8 + len)
            .ok_or_else(|| corrupt(&format!("record {i} payload cut")))?;
        if codec::crc32(payload) != crc {
            return Err(corrupt(&format!("record {i} checksum mismatch")));
        }
        let (id, release) =
            decode_release_record(payload).map_err(|e| corrupt(&format!("record {i}: {e}")))?;
        map.insert(id, Arc::new(release));
        *next = (*next).max(id + 1);
        at += 8 + len;
    }
    if at != bytes.len() {
        return Err(corrupt("trailing bytes after the last record"));
    }
    *next = (*next).max(stored_next);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_dht::GeneralizationSet;

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("medshield-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn release(seed: u8) -> StoredRelease {
        let trees = medshield_datagen::ontology::all_trees();
        let columns = trees
            .iter()
            .map(|(name, tree)| ColumnBinning {
                column: name.clone(),
                maximal: GeneralizationSet::root_only(tree),
                minimal: GeneralizationSet::all_leaves(tree),
                ultimate: GeneralizationSet::at_depth(tree, 1),
            })
            .collect();
        StoredRelease {
            columns,
            mark: Mark::from_bytes(&[seed], 20),
            ownership: seed
                .is_multiple_of(2)
                .then(|| OwnershipProof { statistic: f64::from(seed) * 1.5, mark_len: 20 }),
            recipients: Vec::new(),
        }
    }

    fn recipient(name: &str) -> StoredRecipient {
        StoredRecipient { name: name.into(), mark: Mark::from_bytes(name.as_bytes(), 20) }
    }

    #[test]
    fn memory_store_assigns_increasing_ids_from_one() {
        let store = MemoryStore::new();
        assert_eq!(store.next_id(), 1);
        assert_eq!(store.append(release(1)).unwrap(), 1);
        assert_eq!(store.append(release(2)).unwrap(), 2);
        assert_eq!(store.len(), 2);
        assert!(!store.is_durable());
        assert_eq!(store.get(1).unwrap().mark, Mark::from_bytes(&[1], 20));
        assert!(store.get(3).is_none());
        store.sync().unwrap();
    }

    #[test]
    fn memory_store_registers_recipients_idempotently() {
        let store = MemoryStore::new();
        let id = store.append(release(1)).unwrap();
        assert!(store.add_recipient(99, recipient("clinic-a")).unwrap().is_none());
        let updated = store.add_recipient(id, recipient("clinic-a")).unwrap().unwrap();
        assert_eq!(updated.recipients.len(), 1);
        let updated = store.add_recipient(id, recipient("clinic-b")).unwrap().unwrap();
        assert_eq!(updated.recipients.len(), 2);
        // Re-registering an existing name changes nothing.
        let again = store.add_recipient(id, recipient("clinic-a")).unwrap().unwrap();
        assert_eq!(*again, *updated);
        assert_eq!(store.get(id).unwrap().recipient("clinic-b"), Some(&recipient("clinic-b")));
    }

    #[test]
    fn durable_recipient_records_recover_from_the_wal() {
        let dir = test_dir("recipients-wal");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            let id = store.append(release(1)).unwrap();
            store.append(release(2)).unwrap();
            store.add_recipient(id, recipient("clinic-a")).unwrap().unwrap();
            store.add_recipient(id, recipient("clinic-b")).unwrap().unwrap();
            assert!(store.add_recipient(77, recipient("ghost")).unwrap().is_none());
            store.sync().unwrap();
        }
        let store = DurableStore::open(&dir, 0).unwrap();
        // Recipient records are not releases: they restore onto release 1
        // and do not advance the id sequence.
        assert_eq!(store.recovered_releases(), 2);
        assert_eq!(store.next_id(), 3);
        let restored = store.get(1).unwrap();
        assert_eq!(
            restored.recipients,
            vec![recipient("clinic-a"), recipient("clinic-b")],
            "registration order survives recovery"
        );
        assert!(store.get(2).unwrap().recipients.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_folds_recipients_into_the_release_record() {
        let dir = test_dir("recipients-snap");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            let id = store.append(release(1)).unwrap();
            store.add_recipient(id, recipient("clinic-a")).unwrap().unwrap();
            store.compact().unwrap();
            // Post-snapshot mutation: lives only in the WAL.
            store.add_recipient(id, recipient("clinic-b")).unwrap().unwrap();
            store.sync().unwrap();
        }
        let store = DurableStore::open(&dir, 0).unwrap();
        let restored = store.get(1).unwrap();
        assert_eq!(restored.recipients, vec![recipient("clinic-a"), recipient("clinic-b")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replaying_a_recipient_already_folded_into_the_snapshot_is_idempotent() {
        let dir = test_dir("recipients-idem");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            let id = store.append(release(1)).unwrap();
            store.add_recipient(id, recipient("clinic-a")).unwrap().unwrap();
            store.compact().unwrap();
            store.sync().unwrap();
        }
        // Simulate the crash window where the snapshot was renamed but the
        // WAL truncation never hit the disk: the WAL still carries the
        // recipient record the snapshot already folded in.
        let frame = frame_record(&encode_recipient_record(1, &recipient("clinic-a")).unwrap());
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes.extend_from_slice(&frame);
        std::fs::write(&wal_path, &bytes).unwrap();
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.get(1).unwrap().recipients, vec![recipient("clinic-a")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recipient_records_trigger_the_snapshot_threshold() {
        let dir = test_dir("recipients-trigger");
        let store = DurableStore::open(&dir, 3).unwrap();
        let id = store.append(release(1)).unwrap();
        store.add_recipient(id, recipient("a")).unwrap().unwrap();
        store.add_recipient(id, recipient("b")).unwrap().unwrap();
        // Three mutations since the last snapshot: the trigger fired and the
        // WAL is back to its bare magic.
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert_eq!(wal_len, WAL_MAGIC.len() as u64);
        drop(store);
        let store = DurableStore::open(&dir, 3).unwrap();
        assert_eq!(store.get(1).unwrap().recipients.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recipient_release_records_roundtrip_through_the_codec() {
        let mut with = release(3);
        with.recipients = vec![recipient("clinic-a"), recipient("clinic-b")];
        let payload = encode_release_record(9, &with).unwrap();
        assert_eq!(payload[0], RELEASE_RECORD_V2);
        let (id, decoded) = decode_release_record(&payload).unwrap();
        assert_eq!(id, 9);
        assert_eq!(decoded, with);
        // Recipient-less releases still encode in the v1 format.
        let without = release(3);
        let payload = encode_release_record(9, &without).unwrap();
        assert_eq!(payload[0], RELEASE_RECORD_V1);
        assert_eq!(decode_release_record(&payload).unwrap().1, without);
    }

    #[test]
    fn durable_store_recovers_from_wal_alone() {
        let dir = test_dir("wal-only");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            for seed in 1..=5u8 {
                store.append(release(seed)).unwrap();
            }
            store.sync().unwrap();
            // No shutdown hook: dropping the store models a hard kill
            // (everything synced lives only in the files).
        }
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 5);
        assert_eq!(store.next_id(), 6, "ids must never be reused across restarts");
        for seed in 1..=5u8 {
            assert_eq!(*store.get(u64::from(seed)).unwrap(), release(seed));
        }
        // New appends continue past the recovered ids.
        assert_eq!(store.append(release(9)).unwrap(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_store_recovers_from_snapshot_plus_wal() {
        let dir = test_dir("snap-wal");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            for seed in 1..=4u8 {
                store.append(release(seed)).unwrap();
            }
            store.compact().unwrap();
            // These two live only in the post-snapshot WAL.
            store.append(release(5)).unwrap();
            store.append(release(6)).unwrap();
            store.sync().unwrap();
        }
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 6);
        assert_eq!(store.next_id(), 7);
        for seed in 1..=6u8 {
            assert_eq!(*store.get(u64::from(seed)).unwrap(), release(seed));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_trigger_compacts_the_wal() {
        let dir = test_dir("trigger");
        let store = DurableStore::open(&dir, 3).unwrap();
        for seed in 1..=7u8 {
            store.append(release(seed)).unwrap();
        }
        // Two snapshots fired (at 3 and 6); the WAL holds only record 7.
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let one_record = frame_record(&encode_release_record(7, &release(7)).unwrap()).len() as u64;
        assert_eq!(wal_len, WAL_MAGIC.len() as u64 + one_record);
        drop(store);
        let store = DurableStore::open(&dir, 3).unwrap();
        assert_eq!(store.recovered_releases(), 7);
        assert_eq!(store.next_id(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_tail_is_truncated_and_appends_resume() {
        let dir = test_dir("torn");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            for seed in 1..=3u8 {
                store.append(release(seed)).unwrap();
            }
            store.sync().unwrap();
        }
        // Tear the last record mid-payload.
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 7]).unwrap();
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 2, "the torn third record is dropped");
        assert_eq!(store.next_id(), 3);
        // The file was truncated back to a record boundary, so new appends
        // land cleanly after the survivors.
        assert_eq!(store.append(release(9)).unwrap(), 3);
        drop(store);
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 3);
        assert_eq!(*store.get(3).unwrap(), release(9));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_failure_never_fails_a_durable_append() {
        let dir = test_dir("snapfail");
        let store = DurableStore::open(&dir, 2).unwrap();
        store.append(release(1)).unwrap();
        // Block compaction deterministically: a *directory* squatting on
        // snapshot.tmp makes File::create fail. The triggering append (and
        // every later one) must still succeed — the WAL already holds the
        // records, compaction is only an optimization.
        std::fs::create_dir_all(dir.join(SNAPSHOT_TMP)).unwrap();
        for seed in 2..=6u8 {
            store.append(release(seed)).unwrap();
        }
        store.sync().unwrap();
        assert!(store.compact().is_err(), "compaction is genuinely blocked");
        drop(store);
        // Recovery sees no snapshot, a full WAL, and all six releases.
        std::fs::remove_dir_all(dir.join(SNAPSHOT_TMP)).unwrap();
        let store = DurableStore::open(&dir, 2).unwrap();
        assert_eq!(store.recovered_releases(), 6);
        for seed in 1..=6u8 {
            assert_eq!(*store.get(u64::from(seed)).unwrap(), release(seed));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_checksum_stops_the_replay_at_the_boundary() {
        let dir = test_dir("crc");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            store.append(release(1)).unwrap();
            store.append(release(2)).unwrap();
            store.sync().unwrap();
        }
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        // Flip one payload byte of the second record: its CRC no longer
        // matches, so recovery keeps record 1 only.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&wal_path, &bytes).unwrap();
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 1);
        assert_eq!(store.next_id(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_snapshot_tmp_is_discarded() {
        let dir = test_dir("tmp");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            store.append(release(1)).unwrap();
            store.sync().unwrap();
        }
        std::fs::write(dir.join(SNAPSHOT_TMP), b"half-written snapshot").unwrap();
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 1);
        assert!(!dir.join(SNAPSHOT_TMP).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_opener_of_a_live_data_dir_is_refused() {
        let dir = test_dir("lock");
        let store = DurableStore::open(&dir, 0).unwrap();
        store.append(release(1)).unwrap();
        // While the first store lives, a second open must fail fast instead
        // of interleaving WAL frames and duplicating release ids.
        match DurableStore::open(&dir, 0) {
            Err(StoreError::Busy(m)) => assert!(m.contains("locked"), "{m}"),
            other => panic!("expected Busy, got {:?}", other.map(|s| s.len())),
        }
        // Dropping the store releases the lock (as does process death).
        drop(store);
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_wal_file_is_refused_not_overwritten() {
        let dir = test_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(WAL_FILE), b"this is somebody's csv, not a wal").unwrap();
        match DurableStore::open(&dir, 0) {
            Err(StoreError::Corrupt(m)) => assert!(m.contains("magic"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let dir = test_dir("badsnap");
        {
            let store = DurableStore::open(&dir, 0).unwrap();
            store.append(release(1)).unwrap();
            store.compact().unwrap();
        }
        let snap = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        assert!(matches!(DurableStore::open(&dir, 0), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_coalesces_concurrent_syncs() {
        let dir = test_dir("group");
        let store = Arc::new(DurableStore::open(&dir, 0).unwrap());
        std::thread::scope(|scope| {
            for seed in 0..8u8 {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    let id = store.append(release(seed)).unwrap();
                    store.sync().unwrap();
                    assert!(store.get(id).is_some());
                });
            }
        });
        assert_eq!(store.len(), 8);
        // Every record is durable: a reopen sees all eight.
        drop(store);
        let store = DurableStore::open(&dir, 0).unwrap();
        assert_eq!(store.recovered_releases(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
