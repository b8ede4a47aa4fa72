//! Write-ahead log wrapper over the recovery unit (§5, §8).
//!
//! The proxy writes three kinds of durable records before an epoch is
//! declared committed: the read paths and slot indices accessed by each
//! batch (replayed after a crash so recovery is deterministic), metadata
//! checkpoints (position map / permutation map / valid map deltas plus the
//! padded stash), and epoch-commit markers.  This module provides the
//! sequencing and framing; the *contents* of each record are opaque,
//! already-encrypted bytes supplied by `obladi-core::durability`.
//!
//! # Epoch ordering rule (pipelined epochs)
//!
//! With the pipelined epoch barrier, two epochs write to the log
//! concurrently: epoch `N` (deciding — prepares, checkpoint, commit marker,
//! on the decider thread) and epoch `N+1` (executing — path logs, on the
//! executor thread).  The log enforces that epoch `N+1`'s records are never
//! *acknowledged ahead of `N`'s decision*: once the commit frontier is
//! known, a commit-path record (checkpoint, commit marker, prepare) is
//! accepted only for the epoch immediately above the frontier, and a path
//! record at most **two** epochs above it (the bounded pipeline depth).  An
//! append that would run ahead of the frontier is refused — never durably
//! acknowledged — so recovery can rely on finding at most two in-doubt
//! epochs, in order, above a contiguous durable prefix.
//!
//! # Retention
//!
//! The log sees every append — the bare commit marker and recovery's own
//! included — so it feeds them to [`Retention`], and once a full checkpoint
//! is durable and acknowledged ([`WriteAheadLog::acked`]) drops everything
//! recovery can no longer need with one `truncate_log` call.

use crate::retention::{Cut, Retention};
use crate::traits::UntrustedStore;
use bytes::Bytes;
use obladi_common::error::{ObladiError, Result};
use parking_lot::Mutex;
use std::sync::Arc;

/// Bytes of framing in front of every record's payload on storage:
/// `kind (1) || epoch (8, little endian)`.
pub const FRAME_HEADER_LEN: usize = 9;

/// Record types stored in the write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalRecordKind {
    /// Physical read paths + slot indices of one read batch (logged before
    /// the batch executes, replayed during recovery).
    PathLog,
    /// A delta checkpoint of proxy metadata for one epoch.
    CheckpointDelta,
    /// A full checkpoint of proxy metadata.
    CheckpointFull,
    /// Marker declaring an epoch durable (written after its checkpoint).
    EpochCommit,
    /// An early-reshuffle event (needed to recompute bucket versions).
    EarlyReshuffle,
    /// A 2PC prepare record for a cross-shard transaction: logged *before*
    /// the shard's commit vote counts at the epoch coordinator, so recovery
    /// can finish (or presume aborted) a voted transaction whose epoch never
    /// became durable.
    Prepare,
    /// The epoch's commit decision — committed transaction ids plus the
    /// merged committed write set — logged *before* write-back and the
    /// checkpoint so write transactions can be acknowledged at decision
    /// durability rather than at the checkpoint tail.  Recovery replays a
    /// decided epoch's writes from this record alone.
    Decision,
}

impl WalRecordKind {
    /// The on-storage tag byte of this kind (the first byte of every framed
    /// record; fault-injection harnesses key crash triggers on it).
    pub fn tag(self) -> u8 {
        match self {
            WalRecordKind::PathLog => 1,
            WalRecordKind::CheckpointDelta => 2,
            WalRecordKind::CheckpointFull => 3,
            WalRecordKind::EpochCommit => 4,
            WalRecordKind::EarlyReshuffle => 5,
            WalRecordKind::Prepare => 6,
            WalRecordKind::Decision => 7,
        }
    }

    fn from_byte(b: u8) -> Result<Self> {
        Ok(match b {
            1 => WalRecordKind::PathLog,
            2 => WalRecordKind::CheckpointDelta,
            3 => WalRecordKind::CheckpointFull,
            4 => WalRecordKind::EpochCommit,
            5 => WalRecordKind::EarlyReshuffle,
            6 => WalRecordKind::Prepare,
            7 => WalRecordKind::Decision,
            other => {
                return Err(ObladiError::Codec(format!(
                    "unknown WAL record kind {other}"
                )))
            }
        })
    }
}

/// A decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Sequence number assigned by the log.
    pub seq: u64,
    /// Record type.
    pub kind: WalRecordKind,
    /// Epoch the record belongs to.
    pub epoch: u64,
    /// Opaque payload (usually an encrypted envelope).
    pub payload: Bytes,
}

/// What [`WriteAheadLog::check_order`] decided about one append.
enum Admission {
    /// The record is in order and may be appended.
    Append,
    /// A stale path artifact (path log / early reshuffle) for an epoch at
    /// or below the durable frontier: semantically a no-op, silently
    /// dropped rather than refused.
    DropStale,
}

/// Sequenced, typed write-ahead log on top of an [`UntrustedStore`].
pub struct WriteAheadLog {
    store: Arc<dyn UntrustedStore>,
    /// What the log retains, and the commit frontier: the highest epoch
    /// whose `EpochCommit` marker went through this instance (`None` until
    /// [`WriteAheadLog::set_commit_frontier`] or the first commit marker
    /// establishes it; ordering is unenforced while unknown).
    retention: Mutex<Retention>,
}

impl WriteAheadLog {
    /// Creates a WAL over `store`.
    pub fn new(store: Arc<dyn UntrustedStore>) -> Self {
        WriteAheadLog {
            store,
            retention: Mutex::new(Retention::default()),
        }
    }

    /// Seeds the epoch-ordering frontier (normally from the trusted
    /// counter's durable epoch), enabling the ordering rule from the first
    /// append.
    pub fn set_commit_frontier(&self, epoch: u64) {
        self.retention.lock().set_frontier(epoch);
    }

    /// The current commit frontier, if known.
    pub fn commit_frontier(&self) -> Option<u64> {
        self.retention.lock().frontier()
    }

    /// Checks the epoch-ordering rule for one append.  The frontier itself
    /// only advances after the commit marker's append *succeeds* (a refused
    /// or failed append must leave the retry path open), in
    /// [`WriteAheadLog::append`].
    fn check_order(&self, kind: WalRecordKind, epoch: u64) -> Result<Admission> {
        let Some(durable) = self.commit_frontier() else {
            // Unknown frontier (raw WAL uses, adversarial test harnesses):
            // it is learned from the first successful commit marker, and
            // nothing is enforced until then.
            return Ok(Admission::Append);
        };
        let refuse = |why: &str| {
            Err(ObladiError::Storage(format!(
                "WAL ordering violation: {kind:?} for epoch {epoch} {why} (durable frontier \
                 {durable})"
            )))
        };
        match kind {
            // The commit path is strictly sequential: epoch N+1's decision
            // artifacts may not be acknowledged ahead of N's decision.
            WalRecordKind::EpochCommit
            | WalRecordKind::CheckpointDelta
            | WalRecordKind::CheckpointFull
            | WalRecordKind::Prepare
            | WalRecordKind::Decision => {
                if epoch != durable + 1 {
                    return refuse("is not the epoch immediately above the frontier");
                }
            }
            // Path logs may run one epoch ahead of the deciding epoch (the
            // executing epoch of the bounded pipeline), never further.
            WalRecordKind::PathLog | WalRecordKind::EarlyReshuffle => {
                if epoch <= durable {
                    // A path artifact for an epoch at or below the frontier
                    // is a straggler: a read-batch thread from a previous
                    // proxy life racing a recovery that already committed
                    // its epoch (Decision-first replay advances the
                    // frontier past epochs whose decision record was
                    // durable at crash time).  The epoch is durably
                    // committed and recovery never replays a committed
                    // epoch's paths, so the record is dead weight either
                    // way — drop it instead of erroring, which would crash
                    // the healthy new life sharing this store.
                    return Ok(Admission::DropStale);
                }
                if epoch > durable + 2 {
                    return refuse("runs more than the pipeline depth ahead of the frontier");
                }
            }
        }
        Ok(Admission::Append)
    }

    /// Sequence number reported for appends that were silently dropped as
    /// stale (a path artifact for an epoch at or below the durable
    /// frontier); no record with this sequence number ever exists.
    pub const DROPPED_SEQ: u64 = u64::MAX;

    /// Appends a record, returning its sequence number.  Refuses appends
    /// that violate the epoch ordering rule (see the module docs) — the
    /// record is never acknowledged, so the caller must treat the epoch as
    /// failed rather than assume durability.  One exception: a path log or
    /// early-reshuffle record for an epoch *at or below* the durable
    /// frontier is a harmless straggler (the epoch is durably committed
    /// and its paths are never replayed), so it is dropped without error
    /// and [`WriteAheadLog::DROPPED_SEQ`] is returned.
    pub fn append(&self, kind: WalRecordKind, epoch: u64, payload: &[u8]) -> Result<u64> {
        let mut framed = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        framed.resize(FRAME_HEADER_LEN, 0);
        framed.extend_from_slice(payload);
        self.append_framed(kind, epoch, framed)
    }

    /// [`WriteAheadLog::append`] for a caller that built the record where
    /// it will be stored: `framed` is [`FRAME_HEADER_LEN`] reserved bytes
    /// followed by the payload.  The header is written into the reserved
    /// bytes and the buffer handed to the store as it is, so a
    /// checkpoint-sized payload is not copied once more on its way out.
    pub fn append_framed(
        &self,
        kind: WalRecordKind,
        epoch: u64,
        mut framed: Vec<u8>,
    ) -> Result<u64> {
        match self.check_order(kind, epoch)? {
            Admission::Append => {}
            Admission::DropStale => return Ok(Self::DROPPED_SEQ),
        }
        let Some(header) = framed.first_chunk_mut::<FRAME_HEADER_LEN>() else {
            return Err(ObladiError::Codec(format!(
                "framed WAL record of {} bytes has no room for its header",
                framed.len()
            )));
        };
        header[0] = kind.tag();
        header[1..].copy_from_slice(&epoch.to_le_bytes());
        let len = framed.len();
        self.retention.lock().admitted(epoch);
        let seq = self.store.append_log(Bytes::from(framed))?;
        self.retention.lock().appended(kind, epoch, seq, len);
        Ok(seq)
    }

    fn decode(seq: u64, data: Bytes) -> Result<WalRecord> {
        if data.len() < FRAME_HEADER_LEN {
            return Err(ObladiError::Codec(format!(
                "WAL record {seq} too short ({} bytes)",
                data.len()
            )));
        }
        let kind = WalRecordKind::from_byte(data[0])?;
        let mut epoch_bytes = [0u8; 8];
        epoch_bytes.copy_from_slice(&data[1..FRAME_HEADER_LEN]);
        Ok(WalRecord {
            seq,
            kind,
            epoch: u64::from_le_bytes(epoch_bytes),
            payload: data.slice(FRAME_HEADER_LEN..),
        })
    }

    /// Reads and decodes all records with `seq >= from`.
    pub fn read_from(&self, from: u64) -> Result<Vec<WalRecord>> {
        let raw = self.store.read_log_from(from)?;
        let mut records = Vec::with_capacity(raw.len());
        for (seq, data) in raw {
            records.push(Self::decode(seq, data)?);
        }
        Ok(records)
    }

    /// Reads all records with `seq >= from`, tolerating a torn *tail*: a
    /// crash can leave the final append truncated or garbled, and recovery
    /// must treat that record as never written rather than refuse to start.
    /// A malformed record in the *middle* of the log (valid records follow
    /// it) cannot be a torn append and is still an error.
    ///
    /// Returns the decoded records and the sequence number of the dropped
    /// tail record, if one was dropped.  The caller is expected to erase
    /// the fragment with [`WriteAheadLog::truncate_tail`] before appending
    /// anything: once fresh records sit behind it, the fragment reads as
    /// unexplained mid-log corruption and poisons every later recovery.
    ///
    /// This is recovery's scan, so it also restarts retention from what the
    /// store actually holds — at the frontier the trusted counter set, not
    /// at whatever commit markers the store serves.
    pub fn read_from_tolerant(&self, from: u64) -> Result<(Vec<WalRecord>, Option<u64>)> {
        let raw = self.store.read_log_from(from)?;
        let last_seq = raw.last().map(|(seq, _)| *seq);
        let mut records = Vec::with_capacity(raw.len());
        let mut dropped = None;
        let mut retention = Retention::default();
        for (seq, data) in raw {
            match Self::decode(seq, data) {
                Ok(record) => {
                    let len = FRAME_HEADER_LEN + record.payload.len();
                    retention.admitted(record.epoch);
                    retention.appended(record.kind, record.epoch, seq, len);
                    records.push(record);
                }
                Err(_) if Some(seq) == last_seq => dropped = Some(seq),
                Err(err) => return Err(err),
            }
        }
        let mut current = self.retention.lock();
        retention.inherit(&current);
        *current = retention;
        Ok((records, dropped))
    }

    /// Physically erases records with sequence numbers at or above `from`
    /// (torn-tail retirement; see [`WriteAheadLog::read_from_tolerant`]).
    pub fn truncate_tail(&self, from: u64) -> Result<()> {
        self.store.truncate_log_tail(from)?;
        self.retention.lock().tail_dropped(from);
        Ok(())
    }

    /// `epoch` is durable *and* that has been acknowledged to whoever
    /// tracks it (the gate's `epoch_durable`; trivially so without a gate):
    /// if this completes a checkpoint cycle, the prefix [`Retention`] no
    /// longer holds is retired with one `truncate_log`.  The decider calls
    /// it after publish, off every proxy lock.
    pub fn acked(&self, epoch: u64) -> Result<Option<Cut>> {
        let cut = self.retention.lock().acked(epoch);
        if let Some(cut) = cut {
            self.store.truncate_log(cut.up_to)?;
        }
        Ok(cut)
    }

    /// `(records, framed bytes)` the log retains.
    pub fn retained(&self) -> (u64, u64) {
        self.retention.lock().retained()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryStore;

    fn wal() -> WriteAheadLog {
        WriteAheadLog::new(Arc::new(InMemoryStore::new()))
    }

    #[test]
    fn append_and_read_roundtrip() {
        let wal = wal();
        let s0 = wal.append(WalRecordKind::PathLog, 3, b"paths").unwrap();
        let s1 = wal
            .append(WalRecordKind::CheckpointDelta, 3, b"delta")
            .unwrap();
        assert!(s1 > s0);

        let records = wal.read_from(0).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, WalRecordKind::PathLog);
        assert_eq!(records[0].epoch, 3);
        assert_eq!(&records[0].payload[..], b"paths");
        assert_eq!(records[1].kind, WalRecordKind::CheckpointDelta);
    }

    /// One epoch as the proxy logs it: a path log, the checkpoint, the
    /// commit marker.
    fn run_epoch(wal: &WriteAheadLog, epoch: u64, full: bool) {
        wal.append(WalRecordKind::PathLog, epoch, b"paths").unwrap();
        let checkpoint = if full {
            WalRecordKind::CheckpointFull
        } else {
            WalRecordKind::CheckpointDelta
        };
        wal.append(checkpoint, epoch, b"checkpoint").unwrap();
        wal.append(WalRecordKind::EpochCommit, epoch, b"").unwrap();
    }

    #[test]
    fn an_acknowledged_full_checkpoint_retires_everything_behind_it() {
        let wal = wal();
        wal.set_commit_frontier(0);
        for epoch in 1..=4 {
            run_epoch(&wal, epoch, epoch == 1 || epoch == 4);
            let cut = wal.acked(epoch).unwrap();
            assert_eq!(cut.is_some(), epoch == 1 || epoch == 4, "epoch {epoch}");
        }
        let remaining = wal.read_from(0).unwrap();
        assert_eq!(
            remaining.len(),
            2,
            "the newest full checkpoint and its marker"
        );
        assert_eq!(remaining[0].kind, WalRecordKind::CheckpointFull);
        assert_eq!(remaining[0].epoch, 4);
        assert_eq!(&remaining[0].payload[..], b"checkpoint");
        assert_eq!(wal.retained().0, 2);
        // Sequence numbers keep counting across the cut.
        let next = wal.append(WalRecordKind::PathLog, 5, b"x").unwrap();
        assert_eq!(next, remaining[1].seq + 1);
    }

    #[test]
    fn retirement_waits_for_the_marker_and_for_the_acknowledgement() {
        let wal = wal();
        wal.set_commit_frontier(3);
        wal.append(WalRecordKind::PathLog, 4, b"paths").unwrap();
        wal.append(WalRecordKind::CheckpointFull, 4, b"full")
            .unwrap();
        assert_eq!(wal.acked(4).unwrap(), None, "no marker yet");
        wal.append(WalRecordKind::EpochCommit, 4, b"").unwrap();
        assert_eq!(wal.acked(3).unwrap(), None, "epoch 4 not acknowledged");
        assert_eq!(wal.read_from(0).unwrap().len(), 3);
        let cut = wal.acked(4).unwrap().expect("durable and acknowledged");
        assert_eq!((cut.up_to, cut.records), (1, 1));
        assert_eq!(wal.read_from(0).unwrap().len(), 2);
    }

    #[test]
    fn executing_epoch_path_logs_in_front_of_the_checkpoint_survive_the_cut() {
        let wal = wal();
        wal.set_commit_frontier(3);
        wal.append(WalRecordKind::PathLog, 4, b"deciding").unwrap();
        wal.append(WalRecordKind::PathLog, 5, b"before").unwrap();
        wal.append(WalRecordKind::CheckpointFull, 4, b"full")
            .unwrap();
        wal.append(WalRecordKind::PathLog, 5, b"after").unwrap();
        wal.append(WalRecordKind::EpochCommit, 4, b"").unwrap();
        wal.acked(4).unwrap().expect("a cut");
        let paths: Vec<_> = wal
            .read_from(0)
            .unwrap()
            .into_iter()
            .filter(|r| r.kind == WalRecordKind::PathLog)
            .map(|r| (r.epoch, r.payload))
            .collect();
        assert_eq!(
            paths,
            vec![
                (5, Bytes::from_static(b"before")),
                (5, Bytes::from_static(b"after"))
            ],
            "epoch 5 would replay both after a crash; epoch 4's are dead"
        );
    }

    #[test]
    fn the_recovery_scan_restarts_retention_from_the_store() {
        let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
        let first_life = WriteAheadLog::new(store.clone());
        first_life.set_commit_frontier(0);
        for epoch in 1..=4 {
            run_epoch(&first_life, epoch, epoch == 1 || epoch == 4);
        }
        first_life
            .append(WalRecordKind::PathLog, 5, b"in doubt")
            .unwrap();
        // A new life knows nothing until it has scanned the log.
        let wal = WriteAheadLog::new(store);
        wal.set_commit_frontier(4);
        assert_eq!(wal.acked(5).unwrap(), None);
        let (records, _) = wal.read_from_tolerant(0).unwrap();
        assert_eq!(wal.retained().0, records.len() as u64);
        // The crash may have eaten the cut behind Full(4); the first
        // acknowledgement of the new life makes it.
        run_epoch(&wal, 5, false);
        let cut = wal.acked(5).unwrap().expect("the recovered checkpoint");
        let remaining = wal.read_from(0).unwrap();
        assert_eq!(remaining[0].seq, cut.up_to);
        assert_eq!(remaining[0].kind, WalRecordKind::CheckpointFull);
        assert_eq!(
            &remaining[2].payload[..],
            b"in doubt",
            "a pre-crash record of an epoch above the frontier stays"
        );
    }

    #[test]
    fn all_record_kinds_roundtrip() {
        // The commit marker goes last: once it lands the ordering rule is
        // live and arbitrary epochs would be refused.
        let kinds = [
            WalRecordKind::PathLog,
            WalRecordKind::CheckpointDelta,
            WalRecordKind::CheckpointFull,
            WalRecordKind::EarlyReshuffle,
            WalRecordKind::Prepare,
            WalRecordKind::Decision,
            WalRecordKind::EpochCommit,
        ];
        let wal = wal();
        for (i, kind) in kinds.iter().enumerate() {
            wal.append(*kind, i as u64, &[i as u8]).unwrap();
        }
        let records = wal.read_from(0).unwrap();
        for (record, kind) in records.iter().zip(kinds.iter()) {
            assert_eq!(record.kind, *kind);
        }
    }

    #[test]
    fn prepare_records_roundtrip_with_payload() {
        let wal = wal();
        wal.append(WalRecordKind::Prepare, 9, b"txn+writeset")
            .unwrap();
        let records = wal.read_from(0).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind, WalRecordKind::Prepare);
        assert_eq!(records[0].epoch, 9);
        assert_eq!(&records[0].payload[..], b"txn+writeset");
        assert_eq!(WalRecordKind::Prepare.tag(), 6);
    }

    #[test]
    fn tolerant_read_drops_a_truncated_tail_record() {
        let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
        let wal = WriteAheadLog::new(store.clone());
        wal.append(WalRecordKind::Prepare, 3, b"good").unwrap();
        wal.append(WalRecordKind::EpochCommit, 3, b"").unwrap();
        // A torn append: fewer bytes than the fixed frame header.
        let torn_seq = store.append_log(Bytes::from_static(&[6, 1, 2])).unwrap();

        let (records, dropped) = wal.read_from_tolerant(0).unwrap();
        assert_eq!(
            dropped,
            Some(torn_seq),
            "the torn tail must be dropped, not fatal"
        );
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, WalRecordKind::Prepare);
        assert_eq!(&records[0].payload[..], b"good");
        assert_eq!(records[1].kind, WalRecordKind::EpochCommit);
        // The strict reader still refuses the same log.
        assert!(wal.read_from(0).is_err());

        // Retiring the fragment makes the log clean again — even for the
        // strict reader, and even after fresh appends land behind it.
        wal.truncate_tail(torn_seq).unwrap();
        wal.append(WalRecordKind::PathLog, 4, b"fresh").unwrap();
        let records = wal.read_from(0).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2].kind, WalRecordKind::PathLog);
    }

    #[test]
    fn tolerant_read_drops_an_unknown_kind_tail_record() {
        let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
        let wal = WriteAheadLog::new(store.clone());
        wal.append(WalRecordKind::PathLog, 1, b"paths").unwrap();
        // Garbage with a valid length but an unassigned kind byte.
        store.append_log(Bytes::from(vec![0xEEu8; 16])).unwrap();
        let (records, dropped) = wal.read_from_tolerant(0).unwrap();
        assert!(dropped.is_some());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind, WalRecordKind::PathLog);
    }

    #[test]
    fn ordering_refuses_commit_path_records_ahead_of_the_frontier() {
        let wal = wal();
        wal.set_commit_frontier(3);
        // Epoch 5's decision artifacts may not be acknowledged ahead of
        // epoch 4's decision.
        assert!(wal.append(WalRecordKind::Prepare, 5, b"early").is_err());
        assert!(wal.append(WalRecordKind::Decision, 5, b"early").is_err());
        assert!(wal
            .append(WalRecordKind::CheckpointDelta, 5, b"early")
            .is_err());
        assert!(wal.append(WalRecordKind::EpochCommit, 5, b"").is_err());
        // Stale commit-path records are refused too.
        assert!(wal.append(WalRecordKind::EpochCommit, 3, b"").is_err());
        // The deciding epoch (frontier + 1) is exactly what is allowed.
        assert!(wal.append(WalRecordKind::Prepare, 4, b"vote").is_ok());
        assert!(wal.append(WalRecordKind::Decision, 4, b"decided").is_ok());
        assert!(wal
            .append(WalRecordKind::CheckpointDelta, 4, b"ckpt")
            .is_ok());
        assert!(wal.append(WalRecordKind::EpochCommit, 4, b"").is_ok());
        assert_eq!(wal.commit_frontier(), Some(4));
        // ...after which epoch 5 opens up.
        assert!(wal.append(WalRecordKind::Prepare, 5, b"vote").is_ok());
    }

    #[test]
    fn ordering_bounds_path_logs_to_the_pipeline_depth() {
        let wal = wal();
        wal.set_commit_frontier(10);
        // Executing epoch (frontier + 2) may log paths while the deciding
        // epoch (frontier + 1) is still in flight...
        assert!(wal.append(WalRecordKind::PathLog, 11, b"deciding").is_ok());
        assert!(wal.append(WalRecordKind::PathLog, 12, b"executing").is_ok());
        // ...but nothing may run further ahead; stale path artifacts (at or
        // below the frontier) are dropped rather than refused.
        assert!(wal.append(WalRecordKind::PathLog, 13, b"too far").is_err());
        assert_eq!(
            wal.append(WalRecordKind::PathLog, 10, b"stale").unwrap(),
            WriteAheadLog::DROPPED_SEQ
        );
        assert!(wal
            .append(WalRecordKind::EarlyReshuffle, 13, b"too far")
            .is_err());
    }

    #[test]
    fn stale_path_log_after_commit_marker_is_dropped_not_refused() {
        // A straggler read batch from a pre-crash proxy life can append a
        // path log for an epoch the new life already recovered as durably
        // committed.  The append must succeed without landing in the log —
        // erroring would crash the healthy new life.
        let wal = wal();
        wal.append(WalRecordKind::PathLog, 1, b"live").unwrap();
        wal.append(WalRecordKind::EpochCommit, 1, b"").unwrap();
        let before = wal.read_from(0).unwrap().len();
        assert_eq!(
            wal.append(WalRecordKind::PathLog, 1, b"straggler").unwrap(),
            WriteAheadLog::DROPPED_SEQ
        );
        assert_eq!(
            wal.append(WalRecordKind::EarlyReshuffle, 1, b"straggler")
                .unwrap(),
            WriteAheadLog::DROPPED_SEQ
        );
        let records = wal.read_from(0).unwrap();
        assert_eq!(records.len(), before, "dropped records must not be written");
        assert!(records
            .iter()
            .all(|r| r.payload.as_ref() != b"straggler".as_slice()));
    }

    #[test]
    fn ordering_frontier_only_advances_on_a_successful_append() {
        // A commit append the store refuses must not advance the frontier:
        // the epoch is retried after recovery and the retry must still pass
        // the ordering check.
        use crate::faulty::{FaultPlan, FaultyStore};
        let store = Arc::new(FaultyStore::new(
            Arc::new(InMemoryStore::new()),
            FaultPlan::none(),
            1,
        ));
        let wal = WriteAheadLog::new(store.clone());
        wal.set_commit_frontier(0);
        store.set_plan(FaultPlan::fail_after(0));
        assert!(wal.append(WalRecordKind::EpochCommit, 1, b"").is_err());
        assert_eq!(
            wal.commit_frontier(),
            Some(0),
            "failed append must not advance"
        );
        store.set_plan(FaultPlan::none());
        assert!(wal.append(WalRecordKind::EpochCommit, 1, b"").is_ok());
        assert_eq!(wal.commit_frontier(), Some(1));
    }

    #[test]
    fn tolerant_read_still_rejects_mid_log_corruption() {
        // A malformed record *followed by* valid appends cannot be a torn
        // tail; silently skipping it could hide real log damage.
        let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
        let wal = WriteAheadLog::new(store.clone());
        wal.append(WalRecordKind::Prepare, 2, b"good").unwrap();
        store.append_log(Bytes::from_static(&[0xEE, 0])).unwrap();
        wal.append(WalRecordKind::EpochCommit, 2, b"").unwrap();
        assert!(wal.read_from_tolerant(0).is_err());
    }
}
