//! Durable storage for the `obladi-stored` daemon: an [`InMemoryStore`]
//! made crash-safe by a replayed operation log.
//!
//! The paper assumes the untrusted cloud store is itself *fault-tolerant*
//! (§5: crashes of the storage tier are the provider's problem) — so when
//! the reproduction moves storage into a separate process that can be
//! `kill -9`ed, that process must honour the assumption: **any operation it
//! acknowledged must survive its own death**.  [`DurableStore`] delivers
//! that with the simplest correct design:
//!
//! * every *mutating* [`StoreRequest`] is appended to an on-disk op-log
//!   (length + checksum framed, encoded with the same wire schema the RPC
//!   uses) *before* the operation is acknowledged;
//! * on start-up the log is replayed in order against a fresh
//!   [`InMemoryStore`], rebuilding exactly the acknowledged state;
//! * a torn trailing record — a write the crash cut short, necessarily
//!   unacknowledged — is detected by its checksum/length and physically
//!   truncated away, so it can never be mistaken for data.
//!
//! Reads are served from memory and never touch the log.  A `SIGKILL` only
//! discards process-buffered state, and the log is written straight through
//! to the kernel before each acknowledgement, so the durability contract
//! holds for process kills (machine-level durability would additionally
//! need fsync, which the reproduction deliberately skips — the chaos
//! harness kills processes, not the host).  If an op-log append itself
//! fails (disk full), the store *wedges*: memory would be ahead of disk,
//! so every subsequent operation fail-stops until a restart replays the
//! logged prefix — an unacknowledgeable state can never be served.
//!
//! # Op-log compaction
//!
//! An append-only op-log makes boot replay cost O(total mutations ever
//! served).  The store therefore compacts periodically: every
//! `compact_every` acknowledged mutations it writes a *checksummed state
//! snapshot* (the full [`InMemoryStore`] state, including bucket version
//! history and log sequence numbers) and starts a fresh op-log, so replay
//! cost is bounded by one snapshot load plus at most `compact_every`
//! records.  Crash safety comes from generation-named op-logs:
//!
//! * the snapshot is written to a temp file and atomically renamed into
//!   place; it names the op-log *generation* it supersedes, and each
//!   generation's records live in their own file (`store.oplog`,
//!   `store.oplog.1`, `store.oplog.2`, …);
//! * boot loads the newest snapshot (if any) and replays only the op-log
//!   file of the snapshot's generation — a kill between the snapshot
//!   rename and the old log's deletion leaves a stale file that is simply
//!   ignored (and cleaned up);
//! * the whole compaction runs under the mutation lock, so no operation
//!   can be acknowledged into the superseded log after its snapshot.
//!
//! A compaction that *fails* mid-way wedges the store like an append
//! failure does — the log cut-over may not have happened, and appending
//! past it could lose acknowledged mutations at the next boot.  The
//! mutation that triggered an automatic compaction is still acknowledged
//! with `Ok` (it was durably logged before the compaction began; a crash
//! at any point replays it), so callers never see a durable write reported
//! as failed.

use crate::memory::InMemoryStore;
use crate::proto::{StoreRequest, StoreResponse, StoreService};
use obladi_common::error::{ObladiError, Result};
use parking_lot::RwLock;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Name of the generation-0 op-log file inside the store's data directory
/// (later generations append `.<generation>`).
pub const OPLOG_FILE: &str = "store.oplog";

/// Name of the state-snapshot file inside the store's data directory.
pub const SNAPSHOT_FILE: &str = "store.snapshot";

/// Default mutation count between state snapshots (0 disables compaction).
pub const DEFAULT_COMPACT_EVERY: u64 = 4096;

/// Per-record framing overhead: u32 length + u32 FNV-1a checksum.
const RECORD_HEADER: usize = 8;

/// Upper bound on a single op-log record; matches the wire maximum plus
/// bucket-level overhead, and rejects absurd lengths from corrupt headers.
const MAX_RECORD: usize = crate::proto::MAX_WIRE_LEN + (1 << 16);

/// The mutable durability state behind the mutation lock: the current
/// generation's op-log file and the compaction counter.
struct Oplog {
    file: File,
    /// Which op-log generation `file` is (named by [`oplog_file_name`]).
    generation: u64,
    /// Acknowledged mutations since the last snapshot.
    since_snapshot: u64,
}

/// A crash-safe [`UntrustedStore`](crate::UntrustedStore): in-memory state
/// plus a replayed op-log, periodically compacted into state snapshots.
pub struct DurableStore {
    inner: InMemoryStore,
    /// The op-log, doubling as the state lock: mutations hold the write
    /// half across apply-to-memory *and* append-to-disk, and readers hold
    /// the read half, so no reader can observe a mutation that is applied
    /// in memory but not yet durable (a kill in that window would erase
    /// what the reader saw).
    oplog: RwLock<Oplog>,
    dir: PathBuf,
    /// Mutations between snapshots (0 = never compact).
    compact_every: u64,
    /// Set when an op-log append fails after its mutation was applied in
    /// memory (the two are now divergent, and serving *anything* from the
    /// divergent state could acknowledge data a restart will not rebuild)
    /// or when a post-mutation compaction fails (the log cut-over may not
    /// have happened, so acknowledging further mutations into a superseded
    /// log would lose them at the next boot).  A wedged store fail-stops
    /// every operation until the process restarts and replays the log
    /// (losing only unacknowledged work).
    wedged: std::sync::atomic::AtomicBool,
    /// Why the store wedged; included in every subsequent operation's
    /// error so the root cause is not lost behind the fail-stop.
    wedge_reason: parking_lot::Mutex<Option<String>>,
}

/// What [`DurableStore::open`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Complete op-log records replayed (on top of the snapshot, if any).
    pub records: u64,
    /// Bytes of torn trailing data truncated away (0 = clean shutdown).
    pub torn_bytes: u64,
    /// Op-log generation restored (0 = never compacted; > 0 means a state
    /// snapshot was loaded first).
    pub snapshot_generation: u64,
}

/// File name of the op-log for `generation`.
fn oplog_file_name(generation: u64) -> String {
    if generation == 0 {
        OPLOG_FILE.to_string()
    } else {
        format!("{OPLOG_FILE}.{generation}")
    }
}

impl DurableStore {
    /// Opens (or creates) the store rooted at `dir`, loading the newest
    /// state snapshot (if one exists) and replaying its generation's
    /// op-log, with the default compaction cadence.
    pub fn open(dir: &Path) -> Result<(DurableStore, ReplaySummary)> {
        DurableStore::open_with_options(dir, DEFAULT_COMPACT_EVERY)
    }

    /// Like [`DurableStore::open`], with an explicit snapshot cadence
    /// (`compact_every` mutations between snapshots; 0 disables
    /// compaction).
    pub fn open_with_options(
        dir: &Path,
        compact_every: u64,
    ) -> Result<(DurableStore, ReplaySummary)> {
        std::fs::create_dir_all(dir).map_err(|err| {
            ObladiError::Storage(format!("cannot create data dir {}: {err}", dir.display()))
        })?;

        // ---- Load the snapshot, if any. ----
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let (inner, generation) = match std::fs::read(&snapshot_path) {
            Ok(framed) => {
                // The snapshot was renamed into place atomically, so a torn
                // file here is genuine corruption, not a crash artefact —
                // fail loudly rather than silently dropping state.
                if framed.len() < RECORD_HEADER {
                    return Err(ObladiError::Storage(format!(
                        "snapshot {} is too short",
                        snapshot_path.display()
                    )));
                }
                let len = u32::from_le_bytes(framed[..4].try_into().unwrap()) as usize;
                let sum = u32::from_le_bytes(framed[4..8].try_into().unwrap());
                let body = framed
                    .get(RECORD_HEADER..RECORD_HEADER + len)
                    .ok_or_else(|| {
                        ObladiError::Storage(format!(
                            "snapshot {} is truncated",
                            snapshot_path.display()
                        ))
                    })?;
                if fnv1a(body) != sum {
                    return Err(ObladiError::Storage(format!(
                        "snapshot {} fails its checksum",
                        snapshot_path.display()
                    )));
                }
                if body.len() < 8 {
                    return Err(ObladiError::Storage("snapshot body too short".into()));
                }
                let generation = u64::from_le_bytes(body[..8].try_into().unwrap());
                (InMemoryStore::import_snapshot(&body[8..])?, generation)
            }
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => (InMemoryStore::new(), 0),
            Err(err) => {
                return Err(ObladiError::Storage(format!(
                    "cannot read snapshot {}: {err}",
                    snapshot_path.display()
                )))
            }
        };

        let mut summary = ReplaySummary {
            records: 0,
            torn_bytes: 0,
            snapshot_generation: generation,
        };

        // ---- Replay this generation's op-log on top. ----
        let path = dir.join(oplog_file_name(generation));
        let mut raw = Vec::new();
        match File::open(&path) {
            Ok(mut file) => {
                file.read_to_end(&mut raw)
                    .map_err(|err| ObladiError::Storage(format!("cannot read op-log: {err}")))?;
            }
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
            Err(err) => {
                return Err(ObladiError::Storage(format!(
                    "cannot open op-log {}: {err}",
                    path.display()
                )))
            }
        }

        let mut offset = 0usize;
        while raw.len() - offset >= RECORD_HEADER {
            let len = u32::from_le_bytes(raw[offset..offset + 4].try_into().unwrap()) as usize;
            let sum = u32::from_le_bytes(raw[offset + 4..offset + 8].try_into().unwrap());
            let body_start = offset + RECORD_HEADER;
            if len > MAX_RECORD || body_start + len > raw.len() {
                break; // torn or garbled tail
            }
            let body = &raw[body_start..body_start + len];
            if fnv1a(body) != sum {
                break; // torn tail: the crash garbled the last write
            }
            let request = match StoreRequest::decode(body) {
                Ok(request) => request,
                Err(_) => break,
            };
            if !request.is_mutation() {
                return Err(ObladiError::Storage(format!(
                    "non-mutating {request:?} found in op-log: file is corrupt"
                )));
            }
            request.apply(&inner)?;
            summary.records += 1;
            offset = body_start + len;
        }
        summary.torn_bytes = (raw.len() - offset) as u64;
        drop(raw);

        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|err| ObladiError::Storage(format!("cannot open op-log for append: {err}")))?;
        // Physically retire the torn tail: leaving the fragment in place
        // would turn into unexplained mid-log corruption once fresh records
        // are appended behind it.
        file.set_len(offset as u64).map_err(|err| {
            ObladiError::Storage(format!("cannot truncate torn op-log tail: {err}"))
        })?;
        use std::io::Seek;
        let mut file = file;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|err| ObladiError::Storage(format!("cannot seek op-log: {err}")))?;

        let store = DurableStore {
            inner,
            oplog: RwLock::new(Oplog {
                file,
                generation,
                since_snapshot: summary.records,
            }),
            dir: dir.to_path_buf(),
            compact_every,
            wedged: std::sync::atomic::AtomicBool::new(false),
            wedge_reason: parking_lot::Mutex::new(None),
        };
        // Clean up op-logs of other generations: a kill between the
        // snapshot rename and the old log's removal leaves one behind, and
        // it must never be replayed again.
        store.remove_stale_oplogs(generation);
        Ok((store, summary))
    }

    /// Path of the current generation's op-log file (diagnostics).
    pub fn oplog_path(&self) -> PathBuf {
        self.dir.join(oplog_file_name(self.oplog.read().generation))
    }

    /// The op-log generation currently being appended to (increments on
    /// every compaction).
    pub fn oplog_generation(&self) -> u64 {
        self.oplog.read().generation
    }

    /// Forces a compaction now (tests and operational tooling); normal
    /// operation compacts automatically every `compact_every` mutations.
    pub fn compact_now(&self) -> Result<()> {
        let mut oplog = self.oplog.write();
        self.check_wedged()?;
        if let Err(err) = self.compact_locked(&mut oplog) {
            // Same hazard as the automatic path: the snapshot may have
            // been renamed into place without the log cut-over, so further
            // acknowledgements into the superseded log would be lost.
            self.wedge(format!("explicit compaction failed: {err}"));
            return Err(err);
        }
        Ok(())
    }

    /// Writes a checksummed state snapshot superseding the current op-log
    /// and switches appends to a fresh, next-generation log file.  Runs
    /// under the mutation lock, so the snapshot and the log cut are atomic
    /// with respect to every acknowledgement.
    fn compact_locked(&self, oplog: &mut Oplog) -> Result<()> {
        let next_generation = oplog.generation + 1;
        let body_state = self.inner.export_snapshot();
        let mut body = Vec::with_capacity(8 + body_state.len());
        body.extend_from_slice(&next_generation.to_le_bytes());
        body.extend_from_slice(&body_state);
        // The frame's u32 length must not silently truncate a huge state:
        // boot would read a wrapped length, fail the checksum, and — with
        // the old log already superseded — lose every acknowledged
        // mutation.  Failing here instead wedges the store with the
        // previous snapshot + log pair fully intact.
        if body.len() > u32::MAX as usize {
            return Err(ObladiError::Storage(format!(
                "store state of {} bytes exceeds the snapshot frame limit; raise \
                 compact_every or shard the store",
                body.len()
            )));
        }
        let mut framed = Vec::with_capacity(RECORD_HEADER + body.len());
        framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
        framed.extend_from_slice(&fnv1a(&body).to_le_bytes());
        framed.extend_from_slice(&body);

        // Write-then-rename: the snapshot becomes visible atomically, and a
        // kill before the rename leaves the previous snapshot + op-log pair
        // fully intact.
        let tmp = self.dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        let final_path = self.dir.join(SNAPSHOT_FILE);
        let write = || -> std::io::Result<()> {
            let mut file = File::create(&tmp)?;
            file.write_all(&framed)?;
            file.flush()?;
            std::fs::rename(&tmp, &final_path)
        };
        write().map_err(|err| ObladiError::Storage(format!("snapshot write failed: {err}")))?;

        // Fresh log for the new generation; the old one is superseded by
        // the snapshot and removed (best effort — boot ignores it anyway).
        let new_path = self.dir.join(oplog_file_name(next_generation));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&new_path)
            .map_err(|err| {
                ObladiError::Storage(format!("cannot open fresh op-log after snapshot: {err}"))
            })?;
        let old_generation = oplog.generation;
        oplog.file = file;
        oplog.generation = next_generation;
        oplog.since_snapshot = 0;
        let _ = std::fs::remove_file(self.dir.join(oplog_file_name(old_generation)));
        Ok(())
    }

    /// Removes op-log files of generations other than `keep` (stale logs a
    /// kill mid-compaction may have left behind).
    fn remove_stale_oplogs(&self, keep: u64) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let keep_name = oplog_file_name(keep);
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name != keep_name
                && (name == OPLOG_FILE || name.starts_with(&format!("{OPLOG_FILE}.")))
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// Applies a mutation and makes it durable before returning; the op-log
    /// lock serialises mutations so the log order equals the applied order.
    fn log_mutation(&self, request: &StoreRequest) -> Result<StoreResponse> {
        // The wedge check runs *inside* the lock: a mutation that queued
        // behind the one that wedged must not append past the gap.
        let mut oplog = self.oplog.write();
        self.check_wedged()?;
        // Apply in memory *first*: some mutations — a revert to a
        // garbage-collected version — legitimately fail, and a failing op
        // must never enter the log or replay would refuse to boot.
        let response = request.apply(&self.inner)?;
        let body = request.encode();
        let mut framed = Vec::with_capacity(RECORD_HEADER + body.len());
        framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
        framed.extend_from_slice(&fnv1a(&body).to_le_bytes());
        framed.extend_from_slice(&body);
        // `File` is unbuffered in user space: write_all hands the bytes to
        // the kernel, which is exactly the durability a process kill tests.
        let written = oplog
            .file
            .write_all(&framed)
            .and_then(|()| oplog.file.flush())
            .map_err(|err| ObladiError::Storage(format!("op-log append failed: {err}")));
        if let Err(err) = written {
            // Memory is now ahead of disk; wedge so the divergent state can
            // never be observed or acknowledged (see the `wedged` field).
            self.wedge(format!("op-log append failed: {err}"));
            return Err(err);
        }
        let obs = obladi_obs::global();
        obs.counter("daemon.oplog.appends").inc();
        obs.counter("daemon.oplog.bytes").add(framed.len() as u64);
        oplog.since_snapshot += 1;
        if self.compact_every > 0 && oplog.since_snapshot >= self.compact_every {
            // Compactions run under the mutation lock, so their duration is
            // a stall every queued mutation pays — worth a histogram.
            let pause = obs.histogram("daemon.compaction.pause_us");
            if let Err(err) = pause.time(|| self.compact_locked(&mut oplog)) {
                // A failed compaction may have renamed the new snapshot
                // into place without cutting over the log; continuing to
                // acknowledge into the superseded log would lose those
                // mutations at the next boot, so wedge.  The *triggering*
                // mutation, however, is already durable — it was appended
                // above, and a half-finished compaction leaves either the
                // old snapshot + log pair or the renamed new snapshot
                // (which folds it in) intact — so acknowledge it with
                // `Ok`: an `Err` here would tell the caller a durably
                // applied write failed, inviting a double-apply after the
                // respawn replays it.  The compaction failure surfaces on
                // every subsequent operation via the wedge reason.
                self.wedge(format!(
                    "compaction failed after a durably logged mutation: {err}"
                ));
            }
        }
        Ok(response)
    }

    /// Fail-stops the store, recording why (see the `wedged` field).
    fn wedge(&self, reason: String) {
        obladi_obs::global().counter("daemon.wedges").inc();
        // The reason string is unbounded, so it goes to the trace (typed
        // event + the retained reason), not a metric name.
        obladi_obs::trace::global().record("daemon.wedge", 0, 0);
        *self.wedge_reason.lock() = Some(reason);
        self.wedged.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Fails if the store has wedged (see the `wedged` field).
    fn check_wedged(&self) -> Result<()> {
        if self.wedged.load(std::sync::atomic::Ordering::SeqCst) {
            let reason = self
                .wedge_reason
                .lock()
                .clone()
                .unwrap_or_else(|| "op-log write failure".into());
            return Err(ObladiError::Storage(format!(
                "durable store is wedged ({reason}); restart the daemon to replay the log"
            )));
        }
        Ok(())
    }
}

/// 32-bit FNV-1a, the op-log's torn-write detector.
fn fnv1a(data: &[u8]) -> u32 {
    let mut hash = 0x811C_9DC5u32;
    for &byte in data {
        hash ^= byte as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

impl StoreService for DurableStore {
    /// Mutations go through the op-log; everything else is served from
    /// memory under the read half of its lock.
    fn call(&self, request: StoreRequest) -> Result<StoreResponse> {
        if request.is_mutation() {
            return self.log_mutation(&request);
        }
        let _durable = self.oplog.read();
        self.check_wedged()?;
        request.apply(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::UntrustedStore;
    use bytes::Bytes;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("obladi-disk-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn state_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let (store, summary) = DurableStore::open(&dir).unwrap();
            assert_eq!(summary.records, 0);
            store
                .write_bucket(3, vec![Bytes::from_static(b"v1")])
                .unwrap();
            store
                .write_bucket(3, vec![Bytes::from_static(b"v2")])
                .unwrap();
            store.revert_bucket(3, 1).unwrap();
            store.put_meta("ckpt", Bytes::from_static(b"meta")).unwrap();
            store.append_log(Bytes::from_static(b"r0")).unwrap();
            store.append_log(Bytes::from_static(b"r1")).unwrap();
            store.truncate_log(1).unwrap();
        }
        let (store, summary) = DurableStore::open(&dir).unwrap();
        assert_eq!(summary.records, 7);
        assert_eq!(summary.torn_bytes, 0);
        assert_eq!(&store.read_slot(3, 0).unwrap()[..], b"v1");
        assert_eq!(store.bucket_version(3).unwrap(), 1);
        assert_eq!(
            store.get_meta("ckpt").unwrap(),
            Some(Bytes::from_static(b"meta"))
        );
        let log = store.read_log_from(0).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].0, 1);
        // Sequence numbers continue past the replayed history.
        assert_eq!(store.append_log(Bytes::from_static(b"r2")).unwrap(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = temp_dir("torn");
        {
            let (store, _) = DurableStore::open(&dir).unwrap();
            store
                .write_bucket(1, vec![Bytes::from_static(b"keep")])
                .unwrap();
        }
        // Simulate a kill mid-append: a record header promising more bytes
        // than exist.
        let path = dir.join(OPLOG_FILE);
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&100u32.to_le_bytes()).unwrap();
        file.write_all(&0u32.to_le_bytes()).unwrap();
        file.write_all(b"only a few bytes").unwrap();
        drop(file);

        let (store, summary) = DurableStore::open(&dir).unwrap();
        assert_eq!(summary.records, 1);
        assert!(summary.torn_bytes > 0);
        assert_eq!(&store.read_slot(1, 0).unwrap()[..], b"keep");

        // The fragment was physically retired: appending fresh records and
        // reopening must replay cleanly.
        store
            .write_bucket(2, vec![Bytes::from_static(b"fresh")])
            .unwrap();
        let (store, summary) = DurableStore::open(&dir).unwrap();
        assert_eq!(summary.records, 2);
        assert_eq!(summary.torn_bytes, 0);
        assert_eq!(&store.read_slot(2, 0).unwrap()[..], b"fresh");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbled_tail_checksum_is_rejected() {
        let dir = temp_dir("garbled");
        {
            let (store, _) = DurableStore::open(&dir).unwrap();
            store
                .write_bucket(1, vec![Bytes::from_static(b"keep")])
                .unwrap();
            store
                .write_bucket(2, vec![Bytes::from_static(b"flip")])
                .unwrap();
        }
        // Flip a byte in the last record's body.
        let path = dir.join(OPLOG_FILE);
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();

        let (store, summary) = DurableStore::open(&dir).unwrap();
        assert_eq!(summary.records, 1, "garbled record must not replay");
        assert!(summary.torn_bytes > 0);
        assert_eq!(&store.read_slot(1, 0).unwrap()[..], b"keep");
        assert!(store.read_slot(2, 0).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn automatic_compaction_bounds_replay() {
        let dir = temp_dir("autocompact");
        {
            let (store, _) = DurableStore::open_with_options(&dir, 8).unwrap();
            for i in 0..20u64 {
                store
                    .write_bucket(i % 3, vec![Bytes::from(i.to_le_bytes().to_vec())])
                    .unwrap();
            }
            assert!(
                store.oplog_generation() >= 2,
                "20 mutations at compact_every=8 must have snapshotted twice"
            );
        }
        let (store, summary) = DurableStore::open_with_options(&dir, 8).unwrap();
        assert!(summary.snapshot_generation >= 2);
        assert!(
            summary.records < 8,
            "replay must be bounded by the snapshot cadence, got {}",
            summary.records
        );
        // Full state survives through snapshot + residual log.
        assert_eq!(
            &store.read_slot(0, 0).unwrap()[..],
            &18u64.to_le_bytes()[..]
        );
        assert_eq!(
            &store.read_slot(1, 0).unwrap()[..],
            &19u64.to_le_bytes()[..]
        );
        // Version history survives the snapshot: reverts still work.
        let version = store.bucket_version(2).unwrap();
        store.revert_bucket(2, version - 1).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_oplog_left_by_a_kill_mid_compaction_is_ignored() {
        let dir = temp_dir("stalelog");
        {
            let (store, _) = DurableStore::open_with_options(&dir, 0).unwrap();
            store
                .write_bucket(1, vec![Bytes::from_static(b"snapshotted")])
                .unwrap();
            store.compact_now().unwrap();
            store
                .write_bucket(2, vec![Bytes::from_static(b"gen1")])
                .unwrap();
        }
        // Simulate a kill *between* the snapshot rename and the old log's
        // deletion: resurrect a generation-0 log with a record that was
        // already folded into the snapshot (replaying it would double-apply
        // and corrupt the version numbering).
        let mut body = Vec::new();
        body.extend_from_slice(
            &StoreRequest::WriteBucket {
                bucket: 1,
                slots: vec![Bytes::from_static(b"stale-double-apply")],
            }
            .encode(),
        );
        let mut framed = Vec::new();
        framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
        framed.extend_from_slice(&fnv1a(&body).to_le_bytes());
        framed.extend_from_slice(&body);
        std::fs::write(dir.join(OPLOG_FILE), &framed).unwrap();

        let (store, summary) = DurableStore::open_with_options(&dir, 0).unwrap();
        assert_eq!(summary.snapshot_generation, 1);
        assert_eq!(
            &store.read_slot(1, 0).unwrap()[..],
            b"snapshotted",
            "the stale generation-0 log must not replay"
        );
        assert_eq!(store.bucket_version(1).unwrap(), 1);
        assert_eq!(&store.read_slot(2, 0).unwrap()[..], b"gen1");
        assert!(
            !dir.join(OPLOG_FILE).exists(),
            "the stale log must be cleaned up at open"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_disabled_keeps_the_legacy_single_log() {
        let dir = temp_dir("nocompact");
        {
            let (store, _) = DurableStore::open_with_options(&dir, 0).unwrap();
            for i in 0..30u64 {
                store
                    .write_bucket(0, vec![Bytes::from(i.to_le_bytes().to_vec())])
                    .unwrap();
            }
            assert_eq!(store.oplog_generation(), 0);
        }
        let (_store, summary) = DurableStore::open_with_options(&dir, 0).unwrap();
        assert_eq!(summary.snapshot_generation, 0);
        assert_eq!(summary.records, 30, "uncompacted replay covers everything");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_after_compaction_is_still_tolerated() {
        let dir = temp_dir("torn-gen1");
        {
            let (store, _) = DurableStore::open_with_options(&dir, 0).unwrap();
            store
                .write_bucket(1, vec![Bytes::from_static(b"base")])
                .unwrap();
            store.compact_now().unwrap();
            store
                .write_bucket(2, vec![Bytes::from_static(b"keep")])
                .unwrap();
        }
        // Tear the generation-1 log's tail.
        let path = dir.join(format!("{OPLOG_FILE}.1"));
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&100u32.to_le_bytes()).unwrap();
        file.write_all(&0u32.to_le_bytes()).unwrap();
        file.write_all(b"partial").unwrap();
        drop(file);

        let (store, summary) = DurableStore::open_with_options(&dir, 0).unwrap();
        assert_eq!(summary.snapshot_generation, 1);
        assert_eq!(summary.records, 1);
        assert!(summary.torn_bytes > 0);
        assert_eq!(&store.read_slot(1, 0).unwrap()[..], b"base");
        assert_eq!(&store.read_slot(2, 0).unwrap()[..], b"keep");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reads_do_not_grow_the_oplog() {
        let dir = temp_dir("reads");
        let (store, _) = DurableStore::open(&dir).unwrap();
        store
            .write_bucket(1, vec![Bytes::from_static(b"x")])
            .unwrap();
        let size_after_write = std::fs::metadata(store.oplog_path()).unwrap().len();
        store.read_slot(1, 0).unwrap();
        store.read_bucket(1).unwrap();
        store.get_meta("nope").unwrap();
        store.read_log_from(0).unwrap();
        store.stats();
        assert_eq!(
            std::fs::metadata(store.oplog_path()).unwrap().len(),
            size_after_write
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
