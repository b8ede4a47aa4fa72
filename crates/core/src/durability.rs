//! Durability and crash recovery (§8, Appendix A).
//!
//! The durability manager owns everything the proxy must persist to survive
//! a crash without losing committed epochs or leaking information during
//! recovery:
//!
//! * **Path logs** — before any batch of physical reads executes, the exact
//!   set of `(bucket, slot)` pairs is encrypted and appended to the
//!   write-ahead log.  After a crash, recovery replays those reads so the
//!   adversary observes the same access pattern whether or not the epoch
//!   aborted.
//! * **Checkpoints** — at the end of every epoch what the epoch changed of
//!   the proxy metadata (position map delta, permutation/validity metadata
//!   of dirty buckets, the stash change set, each padded to what one
//!   pipeline window can touch, and the access/eviction counters) is
//!   encrypted and logged.  Every `checkpoint_every` epochs a *full*
//!   checkpoint (the whole stash, padded to its bound) replaces
//!   the delta chain (Figure 11a sweeps this frequency) — literally: once
//!   it is durable and acknowledged, the log in front of it is retired
//!   ([`WriteAheadLog::acked`]; DESIGN.md, "WAL retention").
//! * **Epoch-commit records and the trusted counter** — an epoch becomes
//!   durable only once its commit record is logged and the trusted counter
//!   `F_epc` advances; recovery reverts everything newer.
//!
//! Bucket data itself needs no undo log: storage shadow-pages bucket writes,
//! so recovery simply reverts each bucket to the version recorded in the
//! recovered metadata (the version is a deterministic function of the
//! eviction schedule, as the paper observes).

use obladi_common::config::{EpochConfig, OramConfig};
use obladi_common::error::{ObladiError, Result};
use obladi_common::types::{EpochId, Key, TxnId, Value};
use obladi_crypto::envelope::{PLAINTEXT_OFFSET, TAG_LEN};
use obladi_crypto::{Envelope, KeyMaterial, Sha256};
use obladi_oram::client::{PathLogger, SlotRead};
use obladi_oram::{
    CheckpointSource, ExecOptions, MetaDelta, OramMeta, OramReader, RingOram, WritebackEngine,
};
use obladi_storage::wal::{WalRecord, WalRecordKind, WriteAheadLog, FRAME_HEADER_LEN};
use obladi_storage::{TrustedCounter, UntrustedStore};
use std::sync::Arc;

/// Distinguished "location" tags binding checkpoint ciphertexts to their
/// record kind (the WAL sequence number provides uniqueness; the location
/// tag prevents cross-kind substitution).
const LOC_PATH_LOG: u64 = 0xA001;
const LOC_DELTA: u64 = 0xA002;
const LOC_FULL: u64 = 0xA003;
const LOC_PREPARE: u64 = 0xA004;
const LOC_DECISION: u64 = 0xA005;

/// A 2PC prepare record whose epoch never became durable: the shard voted
/// to commit `txn` and crashed before its epoch commit, so only the
/// deployment coordinator knows the outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InDoubtTxn {
    txn: TxnId,
    writes: Vec<(Key, Value)>,
}

/// Prepared transactions a recovery can vouch for to the coordinator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveredTxns {
    /// In-doubt prepares the coordinator decided to commit, replayed from
    /// their records and made durable by *this* recovery.
    pub replayed: Vec<TxnId>,
    /// Prepared transactions whose epoch was already at or below the
    /// durable frontier when the shard crashed.  Their fate is settled on
    /// this shard, but the crash may have interrupted the normal
    /// durability acknowledgement — the caller re-acknowledges them so a
    /// pending coordinator decision cannot stay pinned forever.
    pub stale_prepared: Vec<TxnId>,
}

/// Outcome of resolving the prepare records: the merged write set of the
/// committed in-doubt transactions plus the ids to acknowledge.
type ResolvedInDoubt = (Vec<(Key, Value)>, RecoveredTxns);

/// A decoded epoch decision record: the committed transaction ids and the
/// epoch's merged write set.
type DecodedDecision = (Vec<TxnId>, Vec<(Key, Value)>);

fn encode_writes_into(out: &mut Vec<u8>, writes: &[(Key, Value)]) {
    out.extend_from_slice(&(writes.len() as u32).to_le_bytes());
    for (key, value) in writes {
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
        out.extend_from_slice(value);
    }
}

/// Appends `epoch || SHA-256(body) || body` to `out`, the plaintext shape of
/// prepare and decision records: the body is written where it stays and
/// its digest filled in behind it.
fn digest_bound_into(out: &mut Vec<u8>, epoch: EpochId, body: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(&epoch.to_le_bytes());
    let digest_at = out.len();
    out.extend_from_slice(&[0u8; 32]);
    body(out);
    let digest = Sha256::digest(&out[digest_at + 32..]);
    out[digest_at..digest_at + 32].copy_from_slice(&digest);
}

fn decode_writes(body: &[u8]) -> Result<Vec<(Key, Value)>> {
    let too_short = || ObladiError::Codec("prepare write set truncated".into());
    let mut at = 0usize;
    let mut take = |n: usize| -> Result<&[u8]> {
        let slice = body.get(at..at + n).ok_or_else(too_short)?;
        at += n;
        Ok(slice)
    };
    let count = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
    let mut writes = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let key = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let len = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
        writes.push((key, take(len)?.to_vec()));
    }
    if at != body.len() {
        return Err(ObladiError::Codec(
            "prepare write set has trailing bytes".into(),
        ));
    }
    Ok(writes)
}

/// Timing breakdown of one recovery, mirroring the rows of Table 11b.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryReport {
    /// Total wall-clock recovery time in milliseconds.
    pub total_ms: f64,
    /// Time spent reading recovery data from storage.
    pub network_ms: f64,
    /// WAL records the scan returned: the suffix retention keeps, so it
    /// does not grow with how long the proxy ran.
    pub records_read: u64,
    /// Time spent decrypting / decoding position-map state.
    pub position_ms: f64,
    /// Time spent decrypting / decoding permutation (bucket) state.
    pub permutation_ms: f64,
    /// Time spent replaying logged read paths.
    pub paths_ms: f64,
    /// Number of buckets reverted on storage.
    pub buckets_reverted: u64,
    /// Number of physical reads replayed.
    pub reads_replayed: u64,
    /// Epoch the system recovered to.
    pub recovered_epoch: EpochId,
    /// 2PC-prepared transactions found in doubt (voted, epoch not durable).
    pub in_doubt: u64,
    /// In-doubt transactions the coordinator decided to commit, replayed
    /// from their prepare records and made durable during this recovery.
    pub replayed_commits: u64,
    /// Torn tail records dropped from the WAL (truncated or garbled by the
    /// crash mid-append).
    pub dropped_records: u64,
    /// Distinct in-doubt epochs whose logged read paths were replayed.  With
    /// the pipelined epoch barrier a crash can leave *two* epochs in doubt
    /// (the deciding epoch and the executing epoch behind it); both are
    /// replayed, in order.
    pub epochs_replayed: u64,
}

/// Durable state handling for the Obladi proxy.
pub struct DurabilityManager {
    wal: WriteAheadLog,
    envelope: Envelope,
    counter: Arc<TrustedCounter>,
    store: Arc<dyn UntrustedStore>,
    enabled: bool,
    checkpoint_every: u32,
    max_position_delta: usize,
    write_batch_size: usize,
}

impl DurabilityManager {
    /// Creates a durability manager.
    pub fn new(
        keys: &KeyMaterial,
        store: Arc<dyn UntrustedStore>,
        counter: Arc<TrustedCounter>,
        epoch_config: &EpochConfig,
    ) -> Self {
        let wal = WriteAheadLog::new(store.clone());
        // The trusted counter is the authority on the durable frontier;
        // seeding the WAL's ordering rule from it makes the rule live from
        // the first append (a fresh deployment starts at 0).
        wal.set_commit_frontier(counter.epoch());
        DurabilityManager {
            wal,
            envelope: Envelope::new(keys),
            counter,
            store,
            enabled: epoch_config.durability,
            checkpoint_every: epoch_config.checkpoint_every.max(1),
            max_position_delta: epoch_config.max_position_delta(),
            write_batch_size: epoch_config.write_batch_size,
        }
    }

    /// Whether durability logging is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The trusted counter.
    pub fn counter(&self) -> &Arc<TrustedCounter> {
        &self.counter
    }

    /// Records that a read batch is about to execute (advances the trusted
    /// batch counter, Appendix A).
    pub fn begin_read_batch(&self) {
        if self.enabled {
            self.counter.advance_batch();
        }
    }

    /// Durably logs a 2PC prepare record for `txn`: the transaction's write
    /// set (plus a SHA-256 digest binding it), sealed and appended to the
    /// WAL *before* the shard's commit vote may count at the deployment
    /// coordinator.  If the shard crashes between the vote and its epoch
    /// commit, [`DurabilityManager::recover_resolving`] finds the record,
    /// asks the coordinator for the outcome, and replays the commit —
    /// closing the window in which half of a cross-shard transaction could
    /// be lost.
    ///
    /// The envelope is sealed at `(LOC_PREPARE, txn)`; the transaction id in
    /// the clear framing lets recovery pick the right counter, and the
    /// epoch is bound *inside* the sealed plaintext (the clear WAL epoch
    /// field alone is unauthenticated — a malicious store could otherwise
    /// move a stale prepare above the durable frontier and trick recovery
    /// into replaying old writes).  Prepare records from epochs at or below
    /// the durable frontier are stale (the epoch's fate is known) and are
    /// retired with the log in front of the next acknowledged full
    /// checkpoint.
    pub fn prepare_txn(&self, epoch: EpochId, txn: TxnId, writes: &[(Key, Value)]) -> Result<()> {
        self.append_sealed(
            WalRecordKind::Prepare,
            LOC_PREPARE,
            epoch,
            Some(txn),
            |out| {
                digest_bound_into(out, epoch, |out| encode_writes_into(out, writes));
                Ok(())
            },
        )
    }

    /// Builds, seals and appends one WAL record in a single buffer laid
    /// out as the store will hold it —
    /// `frame header || clear || nonce || length || plaintext || tag` — so
    /// even a checkpoint is written once: `plaintext` appends the record's
    /// plaintext behind the reserved front, the envelope seals it where it
    /// lies, and the WAL fills in its header and hands the buffer on.
    /// The MAC binds `(location, epoch)` — except for a prepare, which is
    /// bound to its transaction id instead (`prepared`), written in the
    /// clear in front of the envelope so recovery knows what to open it
    /// under.  With durability off nothing is built or logged.
    fn append_sealed(
        &self,
        kind: WalRecordKind,
        location: u64,
        epoch: EpochId,
        prepared: Option<TxnId>,
        plaintext: impl FnOnce(&mut Vec<u8>) -> Result<()>,
    ) -> Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let mut record = vec![0u8; FRAME_HEADER_LEN];
        if let Some(txn) = prepared {
            record.extend_from_slice(&txn.to_le_bytes());
        }
        let envelope_at = record.len();
        record.resize(envelope_at + PLAINTEXT_OFFSET, 0);
        plaintext(&mut record)?;
        let plaintext_len = record.len() - envelope_at - PLAINTEXT_OFFSET;
        record.resize(record.len() + TAG_LEN, 0);
        let counter = prepared.unwrap_or(epoch);
        self.envelope.seal_in_place(
            location,
            counter,
            &mut record[envelope_at..],
            plaintext_len,
        )?;
        self.wal.append_framed(kind, epoch, record)?;
        Ok(())
    }

    /// Durably logs the epoch's commit decision: the committed transaction
    /// ids plus the epoch's merged committed write set, sealed and appended
    /// to the WAL *after* the verdict but *before* write-back and the
    /// checkpoint run.  Once this record is durable, the decider may
    /// acknowledge the epoch's write transactions to their clients: a crash
    /// anywhere in the remaining tail is survivable because
    /// [`DurabilityManager::recover_resolving`] replays the decided epoch
    /// from this record alone, without consulting the coordinator.
    ///
    /// The envelope is sealed at `(LOC_DECISION, epoch)` with the epoch
    /// additionally bound inside the sealed plaintext and the body covered
    /// by a SHA-256 digest, mirroring [`DurabilityManager::prepare_txn`]'s
    /// defence against frame tampering by a malicious store.
    pub fn decision_durable(
        &self,
        epoch: EpochId,
        committed: &[TxnId],
        writes: &[(Key, Value)],
    ) -> Result<()> {
        self.append_sealed(WalRecordKind::Decision, LOC_DECISION, epoch, None, |out| {
            digest_bound_into(out, epoch, |body| {
                body.extend_from_slice(&(committed.len() as u32).to_le_bytes());
                for txn in committed {
                    body.extend_from_slice(&txn.to_le_bytes());
                }
                encode_writes_into(body, writes);
            });
            Ok(())
        })
    }

    /// Opens the sealed `epoch || SHA-256(body) || body` plaintext of a
    /// prepare or decision record and returns the verified body.  The clear
    /// frame epoch must match the sealed one: the frame alone is
    /// unauthenticated.
    fn open_digest_bound(
        &self,
        location: u64,
        counter: u64,
        record: &WalRecord,
        sealed: &[u8],
    ) -> Result<Vec<u8>> {
        let what = format_args!("{:?} record {}", record.kind, record.seq);
        let mut plain = self.envelope.open_bytes(location, counter, sealed)?;
        if plain.len() < 40 {
            return Err(ObladiError::Codec(format!("{what}: payload too short")));
        }
        let sealed_epoch = u64::from_le_bytes(plain[..8].try_into().unwrap());
        if sealed_epoch != record.epoch {
            return Err(ObladiError::Integrity(format!(
                "{what}: clear epoch {} contradicts sealed epoch {sealed_epoch} (frame tampering)",
                record.epoch
            )));
        }
        let body = plain.split_off(40);
        if Sha256::digest(&body) != plain[8..] {
            return Err(ObladiError::Integrity(format!("{what} fails its digest")));
        }
        Ok(body)
    }

    /// Opens and verifies one decision record, returning the committed
    /// transaction ids and the epoch's merged write set.
    fn decode_decision(&self, record: &WalRecord) -> Result<DecodedDecision> {
        let body = self.open_digest_bound(LOC_DECISION, record.epoch, record, &record.payload)?;
        let truncated = || ObladiError::Codec("decision id section truncated".into());
        let count = body.get(..4).ok_or_else(truncated)?;
        let count = u32::from_le_bytes(count.try_into().unwrap()) as usize;
        let ids_end = count.checked_mul(8).and_then(|n| n.checked_add(4));
        let ids_end = ids_end.ok_or_else(truncated)?;
        let ids_bytes = body.get(4..ids_end).ok_or_else(truncated)?;
        let committed = ids_bytes
            .chunks_exact(8)
            .map(|chunk| u64::from_le_bytes(chunk.try_into().unwrap()))
            .collect();
        let writes = decode_writes(&body[ids_end..])?;
        Ok((committed, writes))
    }

    /// Opens and verifies one prepare record.
    fn decode_prepare(&self, record: &WalRecord) -> Result<InDoubtTxn> {
        let txn = record
            .payload
            .first_chunk::<8>()
            .map(|b| u64::from_le_bytes(*b));
        let txn = txn.ok_or_else(|| ObladiError::Codec("prepare record too short".into()))?;
        let body = self.open_digest_bound(LOC_PREPARE, txn, record, &record.payload[8..])?;
        Ok(InDoubtTxn {
            txn,
            writes: decode_writes(&body)?,
        })
    }

    /// Decodes the in-doubt records `wanted` selects.  One that fails to
    /// decode is dropped — and physically retired from the log — if it is
    /// the final WAL record: a torn append, so the vote never counted and
    /// the acknowledgements a decision would have authorised never
    /// happened.  Anywhere else it poisons recovery.
    fn decode_in_doubt<T>(
        &self,
        records: &[WalRecord],
        wanted: impl Fn(&WalRecord) -> bool,
        decode: impl Fn(&WalRecord) -> Result<T>,
        report: &mut RecoveryReport,
    ) -> Result<Vec<T>> {
        let last_seq = records.last().map(|r| r.seq);
        let mut decoded = Vec::new();
        for record in records.iter().filter(|r| wanted(r)) {
            match decode(record) {
                Ok(item) => decoded.push(item),
                Err(_) if Some(record.seq) == last_seq => {
                    self.wal.truncate_tail(record.seq)?;
                    report.dropped_records += 1;
                }
                Err(err) => {
                    return Err(ObladiError::Recovery(format!(
                        "undecodable {:?} record {} amid later valid records: {err}",
                        record.kind, record.seq
                    )))
                }
            }
        }
        Ok(decoded)
    }

    /// Finds the deciding epoch's durable commit decision, if one reached
    /// the WAL before the crash.
    fn find_decision(
        &self,
        records: &[WalRecord],
        epoch: EpochId,
        report: &mut RecoveryReport,
    ) -> Result<Option<DecodedDecision>> {
        let wanted = |r: &WalRecord| r.kind == WalRecordKind::Decision && r.epoch == epoch;
        let found = self.decode_in_doubt(records, wanted, |r| self.decode_decision(r), report)?;
        Ok(found.into_iter().next_back())
    }

    /// Scans `records` for in-doubt prepares (epoch past the durable
    /// frontier) and resolves them through `resolve`.
    ///
    /// Returns the merged, timestamp-ordered writes of the committed
    /// transactions (last writer per key wins, mirroring the write
    /// deduplication of a normal epoch) and their ids.
    fn resolve_in_doubt(
        &self,
        records: &[WalRecord],
        durable_epochs: EpochId,
        resolve: &dyn Fn(TxnId) -> bool,
        report: &mut RecoveryReport,
    ) -> Result<ResolvedInDoubt> {
        let wanted = |r: &WalRecord| r.kind == WalRecordKind::Prepare && r.epoch > durable_epochs;
        let mut in_doubt =
            self.decode_in_doubt(records, wanted, |r| self.decode_prepare(r), report)?;
        // Re-prepared after an earlier recovery: keep one copy.
        in_doubt.sort_by_key(|p| p.txn);
        in_doubt.dedup_by_key(|p| p.txn);
        report.in_doubt = in_doubt.len() as u64;

        let mut merged: std::collections::BTreeMap<Key, Value> = std::collections::BTreeMap::new();
        let mut committed = Vec::new();
        for prepared in in_doubt {
            if resolve(prepared.txn) {
                for (key, value) in prepared.writes {
                    merged.insert(key, value);
                }
                committed.push(prepared.txn);
            }
        }
        report.replayed_commits = committed.len() as u64;

        let stale_prepared = self.stale_prepared(records, durable_epochs);

        Ok((
            merged.into_iter().collect(),
            RecoveredTxns {
                replayed: committed,
                stale_prepared,
            },
        ))
    }

    /// Prepares at or below the durable frontier are settled on this shard,
    /// but the crash may have landed *between* the epoch commit and the
    /// coordinator's durability acknowledgement — without a
    /// re-acknowledgement such a decision would stay pinned forever.
    /// Undecodable stale records are inert and skipped.
    fn stale_prepared(&self, records: &[WalRecord], durable_epochs: EpochId) -> Vec<TxnId> {
        let mut stale_prepared: Vec<TxnId> = records
            .iter()
            .filter(|r| r.kind == WalRecordKind::Prepare && r.epoch <= durable_epochs)
            .filter_map(|record| self.decode_prepare(record).ok().map(|p| p.txn))
            .collect();
        stale_prepared.sort_unstable();
        stale_prepared.dedup();
        stale_prepared
    }

    /// Checkpoints the proxy metadata for `epoch` and marks the epoch
    /// durable.  Every `checkpoint_every`-th epoch writes a full checkpoint,
    /// others write deltas.
    ///
    /// `oram` is the client's [`WritebackEngine`] (the proxy's decider's, or
    /// recovery's while it replays an in-doubt epoch), whose checkpoint
    /// methods read the state its last flush published — not the live one
    /// the concurrent read plane keeps planning against — so neither form
    /// can capture a block that is physically in flight and findable
    /// nowhere.
    pub fn commit_epoch(&self, epoch: EpochId, oram: &mut dyn CheckpointSource) -> Result<()> {
        if !self.enabled {
            return Ok(());
        }
        // The first epoch is always a full checkpoint (it is the base every
        // later delta applies to); afterwards every `checkpoint_every`-th
        // epoch refreshes the base.
        let full = epoch == 1 || epoch.is_multiple_of(self.checkpoint_every as u64);
        if full {
            self.append_sealed(
                WalRecordKind::CheckpointFull,
                LOC_FULL,
                epoch,
                None,
                |out| oram.checkpoint_full_into(out),
            )?;
        } else {
            let delta = oram.checkpoint_delta(self.max_position_delta)?;
            self.append_sealed(
                WalRecordKind::CheckpointDelta,
                LOC_DELTA,
                epoch,
                None,
                |out| {
                    delta.encode_into(out);
                    if delta.exceeds_pad() {
                        // Never logged: its length follows what the epoch did.
                        return Err(ObladiError::Internal(format!(
                            "epoch {epoch}'s checkpoint delta exceeds its pad"
                        )));
                    }
                    Ok(())
                },
            )?;
        }
        self.wal.append(WalRecordKind::EpochCommit, epoch, &[])?;
        self.counter.advance_epoch_to(epoch);
        Ok(())
    }

    /// Recovers the proxy's ORAM state after a crash.
    ///
    /// Steps (§8): find the last durable epoch from the trusted counter,
    /// rebuild the client metadata from the latest full checkpoint plus the
    /// delta chain, revert shadow-paged buckets that the aborted epoch wrote,
    /// and replay the aborted epoch's logged read paths so the adversary
    /// observes a deterministic pattern.  Returns the rebuilt client's two
    /// halves.
    pub fn recover(
        &self,
        fallback_config: OramConfig,
        keys: &KeyMaterial,
        options: ExecOptions,
        seed: u64,
    ) -> Result<((OramReader, WritebackEngine), EpochId, RecoveryReport)> {
        let (oram, next_epoch, report, _) =
            self.recover_resolving(fallback_config, keys, options, seed, &|_| false)?;
        Ok((oram, next_epoch, report))
    }

    /// Like [`DurabilityManager::recover`], but additionally resolves
    /// in-doubt 2PC-prepared transactions (§8 + the sharded durable-prepare
    /// protocol).
    ///
    /// A prepare record whose epoch never became durable means this shard
    /// voted to commit a cross-shard transaction and crashed before its
    /// epoch commit; the peers may have made their halves durable.
    /// `resolve(txn)` asks the deployment coordinator for the outcome:
    /// `true` (committed) replays the prepared write set into the recovered
    /// ORAM and commits the aborted epoch durably before the proxy resumes,
    /// `false` presumes abort (the default for a single proxy, where no
    /// vote can have counted).  Returns the replayed transaction ids so the
    /// caller can acknowledge them to the coordinator.
    pub fn recover_resolving(
        &self,
        fallback_config: OramConfig,
        keys: &KeyMaterial,
        options: ExecOptions,
        seed: u64,
        resolve: &dyn Fn(TxnId) -> bool,
    ) -> Result<(
        (OramReader, WritebackEngine),
        EpochId,
        RecoveryReport,
        RecoveredTxns,
    )> {
        let mut report = RecoveryReport::default();
        let recovery_start = std::time::Instant::now();
        let durable_epochs = self.counter.epoch();
        report.recovered_epoch = durable_epochs;
        // Re-arm the WAL's ordering rule from the trusted counter: the
        // in-memory frontier may sit ahead of it when the crash interrupted
        // a commit append, and the replay below re-commits that epoch.
        self.wal.set_commit_frontier(durable_epochs);

        // ---- Read everything we need from the recovery unit.  A crash can
        // tear the final append, so the tolerant reader drops a garbled
        // tail record instead of refusing to recover — and the fragment is
        // physically retired right away: once recovery (or the resumed
        // proxy) appends records behind it, it would read as unexplained
        // mid-log corruption and poison every later recovery. ----
        let net_start = std::time::Instant::now();
        let (records, torn) = self.wal.read_from_tolerant(0)?;
        report.records_read = records.len() as u64;
        if let Some(torn_seq) = torn {
            self.wal.truncate_tail(torn_seq)?;
            report.dropped_records += 1;
        }
        report.network_ms = net_start.elapsed().as_secs_f64() * 1000.0;

        // ---- Rebuild metadata from checkpoints. ----
        let mut meta: Option<OramMeta> = None;
        let mut base_epoch = 0u64;
        let pos_start = std::time::Instant::now();
        for record in records
            .iter()
            .filter(|r| r.kind == WalRecordKind::CheckpointFull && r.epoch <= durable_epochs)
        {
            let plain = self
                .envelope
                .open_bytes(LOC_FULL, record.epoch, &record.payload)?;
            meta = Some(OramMeta::decode_full(&plain)?);
            base_epoch = record.epoch;
        }
        let mut meta = match meta {
            Some(m) => m,
            None => {
                if durable_epochs > 0 {
                    return Err(ObladiError::Recovery(
                        "no full checkpoint found although epochs have committed".into(),
                    ));
                }
                // Nothing ever committed: rebuild a freshly initialised tree,
                // exactly as opening a new database would, so the client
                // metadata and the storage contents agree.  (Recovering fresh
                // metadata *without* re-initialising storage would leave the
                // two permuted differently, and every later access would keep
                // failing verification.)  There are no durable paths worth
                // replaying either: the position map is regenerated, so
                // post-recovery accesses are independent of anything the
                // adversary observed before the crash.
                let store = self.store.clone();
                let (reader, mut engine) =
                    RingOram::new(fallback_config, keys, store, options, seed)?.split();
                report.position_ms = pos_start.elapsed().as_secs_f64() * 1000.0;
                // Even with nothing durable the shard may have voted: a
                // cross-shard transaction prepared in the very first epoch
                // must still be resolved through the coordinator.
                let resolved =
                    self.replay_in_doubt(&records, 0, resolve, &mut engine, &mut report)?;
                let next_epoch = if resolved.replayed.is_empty() { 1 } else { 2 };
                report.total_ms = recovery_start.elapsed().as_secs_f64() * 1000.0;
                return Ok(((reader, engine), next_epoch, report, resolved));
            }
        };
        report.position_ms = pos_start.elapsed().as_secs_f64() * 1000.0;

        let perm_start = std::time::Instant::now();
        // An epoch can have several checkpoint records: a crash after the
        // checkpoint append but before the epoch-commit marker orphans the
        // first incarnation, and a later (replayed) incarnation of the same
        // epoch appends its own.  Only the *last* checkpoint of each epoch
        // describes the state the epoch-commit marker made durable, so the
        // orphans must not be applied.
        let mut deltas: std::collections::BTreeMap<EpochId, &WalRecord> =
            std::collections::BTreeMap::new();
        for record in records
            .iter()
            .filter(|r| r.kind == WalRecordKind::CheckpointDelta)
            .filter(|r| r.epoch > base_epoch && r.epoch <= durable_epochs)
        {
            deltas.insert(record.epoch, record);
        }
        // A delta says what changed since the one before: no gaps.
        if deltas.len() as u64 != durable_epochs - base_epoch {
            return Err(ObladiError::Recovery(format!(
                "delta chain broken: {} checkpoint deltas for epochs {}..={durable_epochs}",
                deltas.len(),
                base_epoch + 1
            )));
        }
        for record in deltas.into_values() {
            let plain = self
                .envelope
                .open_bytes(LOC_DELTA, record.epoch, &record.payload)?;
            let delta = MetaDelta::decode(&plain)?;
            meta.apply_delta(&delta);
        }
        report.permutation_ms = perm_start.elapsed().as_secs_f64() * 1000.0;

        // ---- Rebuild the ORAM client and undo the aborted epoch. ----
        let (reader, mut engine) =
            RingOram::from_meta(meta, keys, self.store.clone(), options, seed).split();
        let revert_start = std::time::Instant::now();
        engine.revert_storage_to_meta()?;
        report.network_ms += revert_start.elapsed().as_secs_f64() * 1000.0;

        // ---- Replay the in-doubt epochs' read paths, in order. ----
        //
        // With the pipelined barrier a crash can leave two epochs in doubt:
        // the *deciding* epoch (durable + 1 — it may hold prepares and a
        // checkpoint) and the *executing* epoch behind it (durable + 2 —
        // read-path logs only; its decision never started, so it can hold no
        // prepares).  The replay mirrors the live order: the deciding
        // epoch's paths, then its in-doubt write-back (below), then the
        // executing epoch's paths.
        let paths_start = std::time::Instant::now();
        let aborted_epoch = durable_epochs + 1;
        if self.replay_epoch_paths(&records, aborted_epoch, &mut engine, &mut report)? {
            report.epochs_replayed += 1;
        }
        report.paths_ms = paths_start.elapsed().as_secs_f64() * 1000.0;

        // ---- Resolve 2PC-prepared transactions of the deciding epoch. ----
        let resolved =
            self.replay_in_doubt(&records, durable_epochs, resolve, &mut engine, &mut report)?;

        // ---- Replay the executing epoch's read paths. ----
        let paths_start = std::time::Instant::now();
        if self.replay_epoch_paths(&records, aborted_epoch + 1, &mut engine, &mut report)? {
            report.epochs_replayed += 1;
        }
        report.paths_ms += paths_start.elapsed().as_secs_f64() * 1000.0;

        let next_epoch = if resolved.replayed.is_empty() {
            aborted_epoch
        } else {
            aborted_epoch + 1
        };
        report.total_ms = recovery_start.elapsed().as_secs_f64() * 1000.0;
        Ok(((reader, engine), next_epoch, report, resolved))
    }

    /// Replays the logged read paths of one in-doubt epoch, returning
    /// whether the epoch had any.  Replay ignores read results (only the
    /// access pattern matters), so paths logged by a different pre-crash
    /// incarnation of the same epoch are harmless.
    fn replay_epoch_paths(
        &self,
        records: &[WalRecord],
        epoch: EpochId,
        engine: &mut WritebackEngine,
        report: &mut RecoveryReport,
    ) -> Result<bool> {
        let mut found = false;
        for record in records
            .iter()
            .filter(|r| r.kind == WalRecordKind::PathLog && r.epoch == epoch)
        {
            let plain = self
                .envelope
                .open_bytes(LOC_PATH_LOG, record.epoch, &record.payload)?;
            let reads = SlotRead::decode_list(&plain)?;
            report.reads_replayed += reads.len() as u64;
            engine.replay_reads(&reads)?;
            found = true;
        }
        Ok(found)
    }

    /// Resolves and replays in-doubt prepared transactions, committing the
    /// aborted epoch durably when the coordinator decided to commit any of
    /// them.  `replayed` stays empty under presumed abort, which leaves the
    /// epoch aborted exactly as before.
    fn replay_in_doubt(
        &self,
        records: &[WalRecord],
        durable_epochs: EpochId,
        resolve: &dyn Fn(TxnId) -> bool,
        engine: &mut WritebackEngine,
        report: &mut RecoveryReport,
    ) -> Result<RecoveredTxns> {
        if !self.enabled {
            return Ok(RecoveredTxns::default());
        }
        let aborted_epoch = durable_epochs + 1;
        // Decision-record first: if the deciding epoch's commit decision
        // reached the WAL, the epoch's outcome and merged write set are
        // known locally — the clients it acknowledged must see their writes
        // survive, so the epoch is replayed without consulting the
        // coordinator (whose in-memory decision may meanwhile have
        // retired).  The epoch's prepare records are subsumed: every
        // committed id is reported as replayed, so the caller's durability
        // acknowledgement covers them.
        let decision = self
            .find_decision(records, aborted_epoch, report)?
            .filter(|(committed, _)| !committed.is_empty());
        let (writes, recovered) = if let Some((committed, writes)) = decision {
            report.in_doubt = records
                .iter()
                .filter(|r| r.kind == WalRecordKind::Prepare && r.epoch > durable_epochs)
                .count() as u64;
            report.replayed_commits = committed.len() as u64;
            let stale_prepared = self.stale_prepared(records, durable_epochs);
            (
                writes,
                RecoveredTxns {
                    replayed: committed,
                    stale_prepared,
                },
            )
        } else {
            self.resolve_in_doubt(records, durable_epochs, resolve, report)?
        };
        if recovered.replayed.is_empty() {
            return Ok(recovered);
        }
        // Replay the committed write set exactly as the crashed
        // epoch would have written it — padded to the fixed write-batch size
        // so the recovery trace matches a normal epoch's — then make the
        // epoch durable.  Durability is atomic with the epoch commit, which
        // is what makes re-running recovery after a crash *during* this
        // replay idempotent.
        let logger = self.logger_for(aborted_epoch);
        let capacity = self.write_batch_size.max(writes.len());
        engine.write_batch_padded(&writes, capacity, &logger)?;
        engine.flush_writes(&logger)?;
        self.commit_epoch(aborted_epoch, engine)?;
        // The replay moved the durable frontier; the report must say so.
        report.recovered_epoch = aborted_epoch;
        Ok(recovered)
    }

    /// The write-ahead log: the decider reports acknowledged epochs to it
    /// ([`WriteAheadLog::acked`]) and samples what it retains.
    pub fn wal(&self) -> &WriteAheadLog {
        &self.wal
    }
}

impl DurabilityManager {
    /// The [`PathLogger`] for `epoch`: every path-log record is tagged with
    /// the epoch whose reads it logs.
    ///
    /// With the split client, the read plane logs epoch `N+1`'s paths while
    /// the write-back engine concurrently logs epoch `N`'s eviction paths —
    /// a single shared "current epoch" register would let the two threads
    /// mislabel each other's records.  Each epoch thread instead carries its
    /// own tagged logger; the WAL's epoch-ordering rule still bounds how far
    /// ahead either may run.
    pub fn logger_for(&self, epoch: EpochId) -> EpochPathLogger<'_> {
        EpochPathLogger {
            manager: self,
            epoch,
        }
    }

    fn log_reads_for_epoch(&self, epoch: EpochId, reads: &[SlotRead]) -> Result<()> {
        if reads.is_empty() {
            return Ok(());
        }
        self.append_sealed(WalRecordKind::PathLog, LOC_PATH_LOG, epoch, None, |out| {
            SlotRead::encode_list_into(reads, out);
            Ok(())
        })
    }
}

/// A [`PathLogger`] bound to one epoch (see
/// [`DurabilityManager::logger_for`]).
pub struct EpochPathLogger<'a> {
    manager: &'a DurabilityManager,
    epoch: EpochId,
}

impl PathLogger for EpochPathLogger<'_> {
    fn log_reads(&self, reads: &[SlotRead]) -> Result<()> {
        self.manager.log_reads_for_epoch(self.epoch, reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obladi_common::config::ObladiConfig;
    use obladi_oram::NoopPathLogger;
    use obladi_storage::retention::Cut;
    use obladi_storage::InMemoryStore;

    fn setup(
        durability: bool,
    ) -> (
        DurabilityManager,
        (OramReader, WritebackEngine),
        Arc<dyn UntrustedStore>,
    ) {
        let mut config = ObladiConfig::small_for_tests(128);
        config.epoch.durability = durability;
        let keys = KeyMaterial::for_tests(3);
        let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
        let counter = TrustedCounter::new();
        let manager = DurabilityManager::new(&keys, store.clone(), counter, &config.epoch);
        let oram = RingOram::new(config.oram, &keys, store.clone(), ExecOptions::default(), 7)
            .unwrap()
            .split();
        (manager, oram, store)
    }

    fn keys() -> KeyMaterial {
        KeyMaterial::for_tests(3)
    }

    /// Reads `key` the way a single thread drives the halves: the batch,
    /// then the maintenance it made due.
    fn read((reader, engine): &mut (OramReader, WritebackEngine), key: Key) -> Option<Value> {
        let value = reader.read_batch(&[Some(key)], &NoopPathLogger).unwrap();
        engine.run_pending_maintenance(&NoopPathLogger).unwrap();
        value.into_iter().next().flatten()
    }

    /// Writes `writes` in `epoch` (path records tagged with it) and flushes.
    fn write(
        manager: &DurabilityManager,
        engine: &mut WritebackEngine,
        epoch: u64,
        writes: &[(Key, Value)],
    ) {
        engine
            .write_batch(writes, &manager.logger_for(epoch))
            .unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
    }

    #[test]
    fn disabled_durability_is_a_noop() {
        let (manager, (_, mut engine), store) = setup(false);
        manager.commit_epoch(1, &mut engine).unwrap();
        manager
            .logger_for(1)
            .log_reads(&[SlotRead {
                bucket: 0,
                slot: 0,
                version: 1,
            }])
            .unwrap();
        assert_eq!(
            WriteAheadLog::new(store).read_from(0).unwrap().len(),
            0,
            "nothing may be logged when durability is off"
        );
    }

    #[test]
    fn commit_epoch_advances_counter_and_logs() {
        let (manager, (_, mut engine), store) = setup(true);
        assert_eq!(manager.counter().epoch(), 0);
        manager.commit_epoch(1, &mut engine).unwrap();
        assert_eq!(manager.counter().epoch(), 1);
        let records = WriteAheadLog::new(store).read_from(0).unwrap();
        assert!(records
            .iter()
            .any(|r| r.kind == WalRecordKind::EpochCommit && r.epoch == 1));
    }

    #[test]
    fn recovery_restores_committed_data_and_discards_uncommitted() {
        let (manager, (_, mut engine), _store) = setup(true);

        // Epoch 1: write keys 0..16 and commit durably.
        let writes: Vec<(u64, Vec<u8>)> = (0..16).map(|k| (k, vec![k as u8; 8])).collect();
        write(&manager, &mut engine, 1, &writes);
        manager.commit_epoch(1, &mut engine).unwrap();

        // Epoch 2: more writes that never commit (the proxy will crash).
        let doomed: Vec<(u64, Vec<u8>)> = (0..16).map(|k| (k, vec![0xEE; 8])).collect();
        write(&manager, &mut engine, 2, &doomed);
        // Crash: drop the ORAM client (volatile state lost).
        let config = *engine.config();
        drop(engine);

        let (mut recovered, next_epoch, report) = manager
            .recover(config, &keys(), ExecOptions::default(), 11)
            .unwrap();
        assert_eq!(next_epoch, 2, "system resumes at the aborted epoch");
        assert_eq!(report.recovered_epoch, 1);
        for k in 0..16u64 {
            assert_eq!(
                read(&mut recovered, k),
                Some(vec![k as u8; 8]),
                "key {k} must have epoch-1 value after recovery"
            );
        }
    }

    #[test]
    fn recovery_with_nothing_durable_yields_a_working_empty_tree() {
        // Crash before any epoch commits: recovery must hand back a client
        // whose metadata matches the (re-initialised) storage, so that
        // subsequent epochs commit and their data stays readable.  This is
        // the regression test for acknowledged writes vanishing after a
        // crash at the very start of a run.
        let (manager, (_, engine), _store) = setup(true);
        let config = *engine.config();
        drop(engine); // the crash loses the volatile client state

        let (mut recovered, next_epoch, report) = manager
            .recover(config, &keys(), ExecOptions::default(), 23)
            .unwrap();
        assert_eq!(
            next_epoch, 1,
            "nothing durable: the system restarts at epoch 1"
        );
        assert_eq!(report.recovered_epoch, 0);

        let writes: Vec<(u64, Vec<u8>)> = (0..24).map(|k| (k, vec![k as u8; 8])).collect();
        write(&manager, &mut recovered.1, 1, &writes);
        manager.commit_epoch(1, &mut recovered.1).unwrap();
        for k in 0..24u64 {
            assert_eq!(
                read(&mut recovered, k),
                Some(vec![k as u8; 8]),
                "key {k} unreadable after recovering an empty tree"
            );
            recovered.1.flush_writes(&NoopPathLogger).unwrap();
        }
    }

    #[test]
    fn recovery_replays_logged_paths() {
        let (manager, (reader, mut engine), store) = setup(true);
        let writes: Vec<(u64, Vec<u8>)> = (0..8).map(|k| (k, vec![k as u8; 4])).collect();
        write(&manager, &mut engine, 1, &writes);
        manager.commit_epoch(1, &mut engine).unwrap();

        // Epoch 2 issues some reads (logged), then the proxy crashes.
        let logger = manager.logger_for(2);
        reader
            .read_batch(&[Some(1), Some(2), None], &logger)
            .unwrap();
        engine.run_pending_maintenance(&logger).unwrap();
        let config = *engine.config();
        drop((reader, engine));

        store.reset_stats();
        let (_recovered, _epoch, report) = manager
            .recover(config, &keys(), ExecOptions::default(), 13)
            .unwrap();
        assert!(
            report.reads_replayed > 0,
            "the aborted epoch's reads must be replayed"
        );
        assert!(store.stats().slot_reads >= report.reads_replayed);
    }

    #[test]
    fn delta_and_full_checkpoints_compose() {
        let (manager, (_, mut engine), _store) = setup(true);
        // checkpoint_every = 4 in the small test config: epoch 4 is full,
        // epochs 5..6 are deltas.
        for epoch in 1..=6u64 {
            let writes: Vec<(u64, Vec<u8>)> =
                vec![(epoch, vec![epoch as u8; 8]), (100 + epoch, vec![1; 8])];
            write(&manager, &mut engine, epoch, &writes);
            manager.commit_epoch(epoch, &mut engine).unwrap();
        }
        let config = *engine.config();
        drop(engine);
        let (mut recovered, next_epoch, _report) = manager
            .recover(config, &keys(), ExecOptions::default(), 17)
            .unwrap();
        assert_eq!(next_epoch, 7);
        for epoch in 1..=6u64 {
            let expected = Some(vec![epoch as u8; 8]);
            assert_eq!(read(&mut recovered, epoch), expected, "epoch {epoch} write");
        }
    }

    /// One epoch of `writes` one-byte values, committed (or refused).
    fn commit_writes(
        manager: &DurabilityManager,
        engine: &mut WritebackEngine,
        epoch: u64,
        writes: u64,
    ) -> Result<()> {
        let writes: Vec<(u64, Vec<u8>)> = (0..writes).map(|k| (k, vec![epoch as u8])).collect();
        write(manager, engine, epoch, &writes);
        manager.commit_epoch(epoch, engine)
    }

    #[test]
    fn a_delta_that_exceeds_its_pad_is_refused() {
        let (manager, (_, mut engine), _store) = setup(true);
        let pad = EpochConfig::small_for_tests().max_position_delta() as u64;
        commit_writes(&manager, &mut engine, 1, 4).unwrap();
        commit_writes(&manager, &mut engine, 2, pad).expect("a window as full as its pad");
        let overflows = obladi_obs::global().counter("oram.checkpoint.pad_overflow");
        let before = overflows.get();
        // More changes than one pipeline window can hold: the record would
        // be longer than the configuration says, so the epoch fails (and the
        // proxy fate-shares the failure into a crash).
        let err = commit_writes(&manager, &mut engine, 3, pad + 1).unwrap_err();
        assert!(err.to_string().contains("exceeds its pad"), "{err}");
        assert_eq!(manager.counter().epoch(), 2, "nothing became durable");
        assert!(overflows.get() > before);
        let config = *engine.config();
        drop(engine);
        let (mut recovered, next_epoch, _) = manager
            .recover(config, &keys(), ExecOptions::default(), 17)
            .unwrap();
        assert_eq!(next_epoch, 3);
        assert_eq!(read(&mut recovered, 1), Some(vec![2]));
    }

    #[test]
    fn a_delta_chain_with_a_gap_is_refused() {
        let (manager, (_, mut engine), store) = setup(true);
        for epoch in 1..=3 {
            commit_writes(&manager, &mut engine, epoch, 4).unwrap();
        }
        let config = *engine.config();
        drop(engine);
        let recover = || manager.recover(config, &keys(), ExecOptions::default(), 17);
        assert_eq!(recover().expect("the whole chain").1, 4);
        // The same log without epoch 2's delta: epoch 3's says what changed
        // since a state recovery cannot rebuild.
        let log = store.read_log_from(0).unwrap();
        let gap = log
            .iter()
            .position(|(_, frame)| frame[0] == WalRecordKind::CheckpointDelta.tag())
            .expect("epoch 2 wrote a delta");
        store.truncate_log_tail(log[gap].0).unwrap();
        for (_, frame) in &log[gap + 1..] {
            store.append_log(frame.clone()).unwrap();
        }
        let err = recover().err().expect("a chain with a gap");
        assert!(matches!(err, ObladiError::Recovery(_)), "{err}");
        let expected = "delta chain broken: 1 checkpoint deltas for epochs 2..=3";
        assert!(err.to_string().contains(expected), "{err}");
    }

    #[test]
    fn in_doubt_prepare_is_presumed_aborted_without_a_decision() {
        let (manager, (_, mut engine), _store) = setup(true);
        write(&manager, &mut engine, 1, &[(1, vec![0xAA; 8])]);
        manager.commit_epoch(1, &mut engine).unwrap();

        // Epoch 2: the shard votes (prepares) for txn 77, then crashes
        // before its epoch commit.
        manager.prepare_txn(2, 77, &[(5, vec![0xBB; 8])]).unwrap();
        let config = *engine.config();
        drop(engine);

        let (mut recovered, next_epoch, report) = manager
            .recover(config, &keys(), ExecOptions::default(), 29)
            .unwrap();
        assert_eq!(report.in_doubt, 1);
        assert_eq!(report.replayed_commits, 0);
        assert_eq!(next_epoch, 2, "presumed abort leaves the epoch aborted");
        assert_eq!(
            read(&mut recovered, 5),
            None,
            "presumed-aborted write must not surface"
        );
    }

    #[test]
    fn committed_in_doubt_prepare_is_replayed_and_made_durable() {
        let (manager, (_, mut engine), _store) = setup(true);
        write(&manager, &mut engine, 1, &[(1, vec![0xAA; 8])]);
        manager.commit_epoch(1, &mut engine).unwrap();

        // Epoch 2: two transactions prepare; the coordinator committed only
        // txn 80.  Txn 81 wrote the same key later — it must NOT win.
        manager
            .prepare_txn(2, 80, &[(5, b"commit".to_vec()), (6, b"keep".to_vec())])
            .unwrap();
        manager
            .prepare_txn(2, 81, &[(5, b"abort!".to_vec())])
            .unwrap();
        let config = *engine.config();
        drop(engine);

        let (mut recovered, next_epoch, report, resolved) = manager
            .recover_resolving(config, &keys(), ExecOptions::default(), 31, &|txn| {
                txn == 80
            })
            .unwrap();
        assert_eq!(report.in_doubt, 2);
        assert_eq!(report.replayed_commits, 1);
        assert_eq!(resolved.replayed, vec![80]);
        assert_eq!(next_epoch, 3, "the replayed epoch is durable");
        assert_eq!(manager.counter().epoch(), 2);
        for (key, expected) in [(5u64, b"commit".to_vec()), (6, b"keep".to_vec())] {
            assert_eq!(read(&mut recovered, key), Some(expected), "key {key}");
            recovered.1.flush_writes(&NoopPathLogger).unwrap();
        }

        // Idempotence at the durability layer: a second crash + recovery
        // finds the prepare at or below the durable frontier — no longer in
        // doubt — and the replayed value survives.
        drop(recovered);
        let (mut again, next_epoch, report, resolved) = manager
            .recover_resolving(config, &keys(), ExecOptions::default(), 33, &|txn| {
                txn == 80
            })
            .unwrap();
        assert_eq!(report.in_doubt, 0);
        assert!(resolved.replayed.is_empty());
        assert_eq!(
            resolved.stale_prepared,
            vec![80, 81],
            "settled prepares are re-vouched so pinned decisions can drain"
        );
        assert_eq!(next_epoch, 3);
        assert_eq!(read(&mut again, 5), Some(b"commit".to_vec()));
    }

    #[test]
    fn decided_epoch_replays_from_its_decision_record_alone() {
        let (manager, (_, mut engine), _store) = setup(true);
        write(&manager, &mut engine, 1, &[(1, vec![0xAA; 8])]);
        manager.commit_epoch(1, &mut engine).unwrap();

        // Epoch 2: txn 80 prepares, the decision record lands, and the
        // crash hits before write-back/checkpoint — the window in which the
        // client has already been acknowledged.
        let writes = vec![(5u64, b"acked".to_vec()), (6, b"kept".to_vec())];
        manager.prepare_txn(2, 80, &writes).unwrap();
        manager.decision_durable(2, &[80], &writes).unwrap();
        let config = *engine.config();
        drop(engine);

        // The resolver pleads ignorance: the decision record alone must
        // carry the replay (a restarted coordinator has no memory).
        let (mut recovered, next_epoch, report, resolved) = manager
            .recover_resolving(config, &keys(), ExecOptions::default(), 61, &|_| false)
            .unwrap();
        assert_eq!(report.replayed_commits, 1);
        assert_eq!(resolved.replayed, vec![80]);
        assert_eq!(next_epoch, 3, "the decided epoch is durable after replay");
        assert_eq!(manager.counter().epoch(), 2);
        for (key, expected) in [(5u64, b"acked".to_vec()), (6, b"kept".to_vec())] {
            assert_eq!(read(&mut recovered, key), Some(expected), "key {key}");
            recovered.1.flush_writes(&NoopPathLogger).unwrap();
        }

        // Idempotence: a second crash + recovery finds the decision at or
        // below the durable frontier and replays nothing.
        drop(recovered);
        let (mut again, next_epoch, report, resolved) = manager
            .recover_resolving(config, &keys(), ExecOptions::default(), 62, &|_| false)
            .unwrap();
        assert_eq!(report.replayed_commits, 0);
        assert!(resolved.replayed.is_empty());
        assert_eq!(next_epoch, 3);
        assert_eq!(read(&mut again, 5), Some(b"acked".to_vec()));
    }

    #[test]
    fn torn_decision_tail_is_retired_and_presumed_aborted() {
        // A garbled decision record at the log tail is a torn append: the
        // acknowledgements it would have authorised never happened, so the
        // epoch stays aborted and the fragment is physically retired.
        let (manager, (_, mut engine), store) = setup(true);
        write(&manager, &mut engine, 1, &[(1, vec![1; 8])]);
        manager.commit_epoch(1, &mut engine).unwrap();
        let wal = WriteAheadLog::new(store);
        wal.append(WalRecordKind::Decision, 2, &[0xEE; 48]).unwrap();
        let config = *engine.config();
        drop(engine);

        let (recovered, next_epoch, report, resolved) = manager
            .recover_resolving(config, &keys(), ExecOptions::default(), 63, &|_| true)
            .unwrap();
        assert_eq!(report.dropped_records, 1);
        assert_eq!(report.replayed_commits, 0);
        assert!(resolved.replayed.is_empty());
        assert_eq!(next_epoch, 2, "presumed abort leaves the epoch aborted");
        drop(recovered);

        // The fragment must be gone: a later recovery sees a clean log.
        let (_again, _next, report, _) = manager
            .recover_resolving(config, &keys(), ExecOptions::default(), 64, &|_| true)
            .unwrap();
        assert_eq!(report.dropped_records, 0);
    }

    #[test]
    fn prepare_in_the_first_epoch_replays_onto_a_fresh_tree() {
        // Crash before anything became durable, with a vote outstanding:
        // recovery rebuilds a fresh tree and must still finish the commit.
        let (manager, (_, engine), _store) = setup(true);
        manager
            .prepare_txn(1, 9, &[(3, b"first".to_vec())])
            .unwrap();
        let config = *engine.config();
        drop(engine);

        let (mut recovered, next_epoch, report, resolved) = manager
            .recover_resolving(config, &keys(), ExecOptions::default(), 37, &|_| true)
            .unwrap();
        assert_eq!(report.replayed_commits, 1);
        assert_eq!(resolved.replayed, vec![9]);
        assert_eq!(next_epoch, 2);
        assert_eq!(read(&mut recovered, 3), Some(b"first".to_vec()));
    }

    #[test]
    fn corrupt_trailing_prepare_is_dropped_but_mid_log_corruption_poisons() {
        let (manager, (_, mut engine), store) = setup(true);
        write(&manager, &mut engine, 1, &[(1, vec![1; 8])]);
        manager.commit_epoch(1, &mut engine).unwrap();
        manager.prepare_txn(2, 50, &[(2, vec![2; 8])]).unwrap();

        // A torn prepare append at the very tail: valid framing, garbage
        // ciphertext.  Recovery must drop it (its vote can never have
        // counted) without disturbing the earlier, valid prepare.
        let wal = WriteAheadLog::new(store.clone());
        let mut torn = 51u64.to_le_bytes().to_vec();
        torn.extend_from_slice(&[0xEE; 40]);
        wal.append(WalRecordKind::Prepare, 2, &torn).unwrap();

        let config = *engine.config();
        drop(engine);
        let (recovered, _next, report, resolved) = manager
            .recover_resolving(config, &keys(), ExecOptions::default(), 41, &|_| true)
            .unwrap();
        assert_eq!(report.in_doubt, 1, "only the intact prepare is in doubt");
        assert_eq!(resolved.replayed, vec![50]);
        assert_eq!(report.dropped_records, 1);

        // The tolerated fragment must have been physically retired: the
        // replay just appended checkpoint/commit records behind where it
        // sat, so if it were still there, this second recovery would see
        // unexplained mid-log corruption and the shard would be
        // unrecoverable forever.
        drop(recovered);
        let (_again, _next, report, _) = manager
            .recover_resolving(config, &keys(), ExecOptions::default(), 42, &|_| true)
            .unwrap();
        assert_eq!(
            report.dropped_records, 0,
            "the torn prepare must be gone from the log"
        );

        // The same garbage *followed by* a valid record is not a torn tail:
        // recovery must refuse rather than silently skip log damage.
        let store2: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
        let manager2 = {
            let mut config = ObladiConfig::small_for_tests(128);
            config.epoch.durability = true;
            DurabilityManager::new(
                &keys(),
                store2.clone(),
                TrustedCounter::new(),
                &config.epoch,
            )
        };
        let wal2 = WriteAheadLog::new(store2);
        let mut garbage = 60u64.to_le_bytes().to_vec();
        garbage.extend_from_slice(&[0xEE; 40]);
        wal2.append(WalRecordKind::Prepare, 1, &garbage).unwrap();
        wal2.append(WalRecordKind::PathLog, 1, b"later").unwrap();
        match manager2.recover_resolving(
            ObladiConfig::small_for_tests(128).oram,
            &keys(),
            ExecOptions::default(),
            43,
            &|_| true,
        ) {
            Ok(_) => panic!("mid-log corruption must poison recovery"),
            Err(err) => assert!(
                matches!(err, ObladiError::Recovery(_)),
                "unexpected error kind: {err}"
            ),
        }
    }

    #[test]
    fn prepare_with_tampered_epoch_is_never_replayed() {
        // A malicious store must not be able to lift a *stale* prepare
        // above the durable frontier (by rewriting the unauthenticated
        // clear epoch field of the frame) and trick recovery into rolling
        // keys back to old values.  The sealed plaintext binds the epoch,
        // so the forged record fails integrity instead of decoding.
        let (manager, (_, mut engine), store) = setup(true);
        write(&manager, &mut engine, 1, &[(5, b"v1".to_vec())]);
        manager.commit_epoch(1, &mut engine).unwrap();

        // Epoch 2: txn 90 prepares and commits durably (its prepare is now
        // stale), then epoch 3 overwrites the key.
        manager
            .prepare_txn(2, 90, &[(5, b"stale".to_vec())])
            .unwrap();
        write(&manager, &mut engine, 2, &[(5, b"stale".to_vec())]);
        manager.commit_epoch(2, &mut engine).unwrap();
        write(&manager, &mut engine, 3, &[(5, b"newer".to_vec())]);
        manager.commit_epoch(3, &mut engine).unwrap();

        // The attack: replay the retained prepare payload under a frame
        // epoch above the durable frontier.
        let wal = WriteAheadLog::new(store);
        let stale_prepare = wal
            .read_from(0)
            .unwrap()
            .into_iter()
            .find(|r| r.kind == WalRecordKind::Prepare)
            .expect("the stale prepare is still in the log");
        wal.append(WalRecordKind::Prepare, 4, &stale_prepare.payload)
            .unwrap();

        let config = *engine.config();
        drop(engine);
        // Coordinator still remembers txn 90 as committed (ack pending).
        let (mut recovered, _next, report, resolved) = manager
            .recover_resolving(config, &keys(), ExecOptions::default(), 47, &|txn| {
                txn == 90
            })
            .unwrap();
        assert_eq!(
            report.replayed_commits, 0,
            "the forged prepare must not be replayed: {report:?}"
        );
        assert!(resolved.replayed.is_empty());
        assert_eq!(
            resolved.stale_prepared,
            vec![90],
            "the genuine stale prepare is still vouched for"
        );
        assert!(report.dropped_records >= 1, "forged tail must be rejected");
        assert_eq!(
            read(&mut recovered, 5),
            Some(b"newer".to_vec()),
            "epoch-3 value must survive the replay attack"
        );
    }

    #[test]
    fn torn_frame_tail_is_retired_so_later_recoveries_survive() {
        // The regression behind WAL tail retirement: tolerate a torn frame,
        // resume, append more epochs, and the *next* recovery must not read
        // the old fragment as mid-log corruption.
        let (manager, (_, mut engine), store) = setup(true);
        write(&manager, &mut engine, 1, &[(1, vec![1; 8])]);
        manager.commit_epoch(1, &mut engine).unwrap();
        // The crash tears the final append below the frame header size.
        store
            .append_log(bytes::Bytes::from_static(&[6, 1, 2]))
            .unwrap();
        let config = *engine.config();
        drop(engine);

        let ((_, mut recovered), _next, report) = manager
            .recover(config, &keys(), ExecOptions::default(), 51)
            .unwrap();
        assert_eq!(report.dropped_records, 1);

        // Resume and commit another epoch (fresh records land where the
        // fragment used to sit).
        write(&manager, &mut recovered, 2, &[(2, vec![2; 8])]);
        manager.commit_epoch(2, &mut recovered).unwrap();
        drop(recovered);

        let (mut again, _next, report) = manager
            .recover(config, &keys(), ExecOptions::default(), 53)
            .unwrap();
        assert_eq!(report.dropped_records, 0, "fragment must be long gone");
        assert_eq!(read(&mut again, 2), Some(vec![2; 8]));
    }

    /// Runs `epoch` the way the decider does — write-back, checkpoint,
    /// commit marker, then the acknowledgement — and reports the cut.
    fn run_acked_epoch(
        manager: &DurabilityManager,
        engine: &mut WritebackEngine,
        epoch: u64,
    ) -> Option<Cut> {
        write(
            manager,
            engine,
            epoch,
            &[(epoch % 64, vec![epoch as u8; 4])],
        );
        manager.commit_epoch(epoch, engine).unwrap();
        manager.wal().acked(epoch).unwrap()
    }

    #[test]
    fn an_acknowledged_full_checkpoint_retires_stale_prepare_records() {
        let (manager, (_, mut engine), store) = setup(true);
        let wal = WriteAheadLog::new(store);
        let prepares = || {
            let records = wal.read_from(0).unwrap();
            records
                .iter()
                .filter(|r| r.kind == WalRecordKind::Prepare)
                .count()
        };
        // checkpoint_every = 4: epochs 1 and 4 write full checkpoints, so
        // the epoch-2 prepare sits in front of Full(4).
        for epoch in 1..=5u64 {
            if epoch == 2 {
                manager.prepare_txn(2, 70, &[(epoch, vec![7; 4])]).unwrap();
            }
            let cut = run_acked_epoch(&manager, &mut engine, epoch);
            assert_eq!(cut.is_some(), epoch == 1 || epoch == 4, "epoch {epoch}");
            let expected = usize::from((2..4).contains(&epoch));
            assert_eq!(prepares(), expected, "after epoch {epoch}");
        }
    }

    #[test]
    fn recovery_reads_a_suffix_that_does_not_grow_with_the_run() {
        let mut records_read = Vec::new();
        for epochs in [8u64, 64] {
            let (manager, (_, mut engine), store) = setup(true);
            for epoch in 1..=epochs {
                run_acked_epoch(&manager, &mut engine, epoch);
            }
            let config = *engine.config();
            drop(engine);
            let (mut recovered, next_epoch, report) = manager
                .recover(config, &keys(), ExecOptions::default(), 19)
                .unwrap();
            assert_eq!(next_epoch, epochs + 1);
            let retained = store.read_log_from(0).unwrap().len();
            assert_eq!(report.records_read as usize, retained);
            records_read.push(report.records_read);
            for epoch in epochs - 7..=epochs {
                let expected = Some(vec![epoch as u8; 4]);
                assert_eq!(read(&mut recovered, epoch % 64), expected, "epoch {epoch}");
                recovered.1.flush_writes(&NoopPathLogger).unwrap();
            }
        }
        assert_eq!(records_read[0], records_read[1], "8 epochs vs 64");
    }

    #[test]
    fn the_retained_log_and_the_store_snapshot_stay_bounded_over_200_epochs() {
        let mut config = ObladiConfig::small_for_tests(128);
        config.epoch.durability = true;
        let every = config.epoch.checkpoint_every as u64;
        let store = Arc::new(InMemoryStore::new());
        let manager =
            DurabilityManager::new(&keys(), store.clone(), TrustedCounter::new(), &config.epoch);
        let (_, mut engine) = RingOram::new(
            config.oram,
            &keys(),
            store.clone(),
            ExecOptions::default(),
            7,
        )
        .unwrap()
        .split();
        // The most one epoch appends, in records and in snapshot bytes
        // (12 bytes of sequence number and length frame each record).
        let (mut epoch_records, mut epoch_bytes) = (0, 0);
        for epoch in 1..=200u64 {
            let before = manager.wal().retained();
            let cut = run_acked_epoch(&manager, &mut engine, epoch).unwrap_or(Cut {
                up_to: 0,
                records: 0,
                bytes: 0,
            });
            let after = manager.wal().retained();
            let records = after.0 + cut.records - before.0;
            epoch_records = epoch_records.max(records);
            epoch_bytes = epoch_bytes.max(after.1 + cut.bytes - before.1 + 12 * records);
            assert_eq!(
                store.log_len() as u64,
                after.0,
                "the index is the store's log"
            );
            assert!(
                after.0 <= (2 * every + 2) * epoch_records,
                "epoch {epoch}: {} records retained",
                after.0
            );
        }
        // The log's share of the snapshot the storage daemon compacts its
        // op-log into: what dropping the whole log would save.
        let snapshot = store.export_snapshot();
        let without_log = InMemoryStore::import_snapshot(&snapshot).unwrap();
        without_log.truncate_log(u64::MAX).unwrap();
        let log_share = snapshot.len() - without_log.export_snapshot().len();
        assert!(
            log_share as u64 <= (2 * every + 2) * epoch_bytes,
            "{log_share} snapshot bytes of log after 200 epochs"
        );
    }
}
