//! WAL retention under crashes and under a lying store.
//!
//! The retention rule (`obladi_storage::retention`, DESIGN.md "WAL
//! retention") claims that what it retires is dead weight: recovery from
//! any crash point finds the same state whether or not the log was ever
//! cut.  This suite makes the claim differential.  A fixed, single-threaded
//! schedule — twelve epochs of a shard in a two-shard deployment, a
//! cross-shard transaction prepared and voted through the real rendezvous
//! machine in most of them, at depth 2 the executing epoch's read batches
//! woven through the deciding epoch's tail so its path logs land on both
//! sides of every checkpoint and every cut — is crashed after every
//! mutation of the shard's store in turn (every log append, bucket write
//! and truncation), recovered, and compared with the same schedule crashed
//! at the same point with retirement never invoked: same recovered ORAM
//! metadata, same replayed reads, and no coordinator decision left pinned.
//! (The peer shard votes, prepares and acknowledges, but owns no store:
//! nothing of its own can reach the victim's log.)
//!
//! A crash loses exactly the volatile state, so "crashed after mutation
//! `k`" is the store, the trusted counter and the coordinator as they were
//! when mutation `k + 1` was attempted: the sweep runs the schedule once,
//! forks that state in front of every mutation, and recovers every fork.
//! The crash points the rule's shell cares about — either side of a full
//! checkpoint, of its commit marker and of the cut — are then crashed for
//! real, through `FaultyStore`'s outage and the *same* durability manager,
//! and driven through a second life that checkpoints, acknowledges and cuts
//! again.
//!
//! The same comparison finally runs against stores that lie about
//! truncation: one that ignores it, one that re-serves retired records in
//! front of the retained suffix, and one that truncates past the cut —
//! which must fail closed.  So must a store that withholds one checkpoint
//! delta from the chain behind the base: a delta holds what changed since
//! the one before it, and recovery refuses a chain with a gap.

use bytes::Bytes;
use obladi_common::config::ObladiConfig;
use obladi_common::error::{ObladiError, Result};
use obladi_common::types::{BucketId, EpochId, Key, TxnId, Value, Version};
use obladi_core::{CommitCandidate, DurabilityManager, RecoveryReport};
use obladi_crypto::KeyMaterial;
use obladi_oram::{ExecOptions, NoopPathLogger, OramReader, RingOram, WritebackEngine};
use obladi_shard::rendezvous::{Poll, Rendezvous, TxnDecision};
use obladi_storage::traits::{BucketSnapshot, StoreStats};
use obladi_storage::wal::WalRecordKind;
use obladi_storage::{
    CrashOp, CrashPoint, FaultPlan, FaultyStore, InMemoryStore, TrustedCounter, UntrustedStore,
};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const EPOCHS: EpochId = 12;
/// The shard whose store fails, and the one that only votes.
const VICTIM: usize = 0;
const PEER: usize = 1;
/// Keys the schedule touches.
const KEYS: Key = 24;
/// How a mutation trace marks a bucket write and a truncation (a log append
/// is marked by its record's kind tag).
const BUCKET_WRITE: u8 = 0;
const TRUNCATION: u8 = 0xFF;

/// What the store does when asked to truncate its log.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Truncation {
    Honest,
    /// Acknowledges and keeps everything.
    Ignored,
    /// Truncates, but keeps a copy of every other retired record and serves
    /// the copies in front of the retained suffix.
    ReServed,
    /// Truncates this many records past the cut.
    Past(u64),
}

/// Everything that survives a crash, as it was when a mutation was about to
/// reach the store.
struct Fork {
    store: Vec<u8>,
    resurrected: Vec<(u64, Bytes)>,
    durable: EpochId,
    machine: Rendezvous,
}

/// The trusted counter and the coordinator, shared with the store so that
/// it can fork them.
#[derive(Clone)]
struct Survivors {
    counter: Arc<TrustedCounter>,
    machine: Arc<Mutex<Rendezvous>>,
}

/// An in-memory store that may lie about `truncate_log`, traces every
/// mutation that reaches it and, while `forking`, forks the deployment in
/// front of each.
struct LyingLog {
    inner: InMemoryStore,
    truncation: Truncation,
    resurrected: Mutex<Vec<(u64, Bytes)>>,
    survivors: Survivors,
    mutations: Mutex<Vec<u8>>,
    forking: AtomicBool,
    forks: Mutex<Vec<Fork>>,
    /// The epoch whose checkpoint delta the store never serves back.
    withheld_delta: Mutex<Option<EpochId>>,
}

/// The clear epoch field of a framed record of `kind`.
fn epoch_of(frame: &Bytes, kind: WalRecordKind) -> Option<EpochId> {
    (frame[0] == kind.tag()).then(|| u64::from_le_bytes(frame[1..9].try_into().unwrap()))
}

impl LyingLog {
    fn fork(&self) -> Fork {
        Fork {
            store: self.inner.export_snapshot(),
            resurrected: self.resurrected.lock().clone(),
            durable: self.survivors.counter.epoch(),
            machine: self.survivors.machine.lock().clone(),
        }
    }

    fn mutating(&self, what: u8) {
        self.mutations.lock().push(what);
        if self.forking.load(Ordering::SeqCst) {
            self.forks.lock().push(self.fork());
        }
    }
}

impl UntrustedStore for LyingLog {
    fn read_slot(&self, bucket: BucketId, slot: u32) -> Result<Bytes> {
        self.inner.read_slot(bucket, slot)
    }
    fn read_bucket(&self, bucket: BucketId) -> Result<BucketSnapshot> {
        self.inner.read_bucket(bucket)
    }
    fn write_bucket(&self, bucket: BucketId, slots: Vec<Bytes>) -> Result<Version> {
        self.mutating(BUCKET_WRITE);
        self.inner.write_bucket(bucket, slots)
    }
    fn bucket_version(&self, bucket: BucketId) -> Result<Version> {
        self.inner.bucket_version(bucket)
    }
    fn revert_bucket(&self, bucket: BucketId, version: Version) -> Result<()> {
        self.inner.revert_bucket(bucket, version)
    }
    fn put_meta(&self, key: &str, value: Bytes) -> Result<()> {
        self.inner.put_meta(key, value)
    }
    fn get_meta(&self, key: &str) -> Result<Option<Bytes>> {
        self.inner.get_meta(key)
    }
    fn append_log(&self, record: Bytes) -> Result<u64> {
        self.mutating(record[0]);
        self.inner.append_log(record)
    }
    fn read_log_from(&self, from: u64) -> Result<Vec<(u64, Bytes)>> {
        let mut records = self.resurrected.lock().clone();
        records.retain(|(seq, _)| *seq >= from);
        records.extend(self.inner.read_log_from(from)?);
        if let Some(epoch) = *self.withheld_delta.lock() {
            let delta = WalRecordKind::CheckpointDelta;
            records.retain(|(_, frame)| epoch_of(frame, delta) != Some(epoch));
        }
        Ok(records)
    }
    fn truncate_log(&self, up_to: u64) -> Result<()> {
        self.mutating(TRUNCATION);
        match self.truncation {
            Truncation::Honest => self.inner.truncate_log(up_to),
            Truncation::Ignored => Ok(()),
            Truncation::ReServed => {
                let retired = self.inner.read_log_from(0)?;
                let retired = retired.into_iter().filter(|(seq, _)| *seq < up_to);
                self.resurrected.lock().extend(retired.step_by(2));
                self.inner.truncate_log(up_to)
            }
            Truncation::Past(extra) => self.inner.truncate_log(up_to + extra),
        }
    }
    fn truncate_log_tail(&self, from: u64) -> Result<()> {
        self.resurrected.lock().retain(|(seq, _)| *seq < from);
        self.inner.truncate_log_tail(from)
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

fn keys() -> KeyMaterial {
    KeyMaterial::for_tests(11)
}

fn exec() -> ExecOptions {
    ExecOptions::sequential().with_deferred_writes(true)
}

fn config() -> ObladiConfig {
    let mut config = ObladiConfig::small_for_tests(32);
    // Every checkpoint carries the stash padded to its bound: keep it small
    // enough that thousands of recoveries stay fast unoptimised.
    config.oram.max_stash = 48;
    config.epoch.durability = true;
    config
}

/// The cross-shard transaction of `epoch` (none every third epoch, so some
/// cuts have no prepare in front of them) and the victim's local one.
fn cross_txn(epoch: EpochId) -> Option<TxnId> {
    (!epoch.is_multiple_of(3)).then_some(1_000 + epoch)
}

fn local_txn(epoch: EpochId) -> TxnId {
    2_000 + epoch
}

/// The victim's half of `txn`'s write set.
fn writes_of(txn: TxnId) -> Vec<(Key, Value)> {
    vec![((txn * 7) % KEYS, format!("value of {txn}").into_bytes())]
}

/// How a schedule treats the log: the pipeline depth it weaves its read
/// batches at, whether it ever reports an acknowledgement to the WAL, and
/// what the store then does.
#[derive(Clone, Copy)]
struct Mode {
    depth: u32,
    retire: bool,
    truncation: Truncation,
}

impl Mode {
    fn honest(depth: u32, retire: bool) -> Mode {
        Mode {
            depth,
            retire,
            truncation: Truncation::Honest,
        }
    }
}

/// What a recovery left behind, as far as the comparison cares.
struct Recovered {
    meta: Vec<u8>,
    next_epoch: EpochId,
    /// The transactions recovery finished itself, in the record's order.
    replayed: Vec<TxnId>,
    report: RecoveryReport,
    /// Coordinator decisions still pending once the healthy peer has
    /// acknowledged everything it owes.
    pinned: usize,
    /// What the recovered client reads, key by key, against what it should.
    values: Vec<Option<Value>>,
    expected: Vec<Option<Value>>,
}

/// The victim shard — a store that can crash and lie, the durability
/// manager that outlives crashes (as in the proxy), the volatile ORAM
/// client — and the deployment's coordinator.
struct Run {
    log: Arc<LyingLog>,
    store: Arc<FaultyStore>,
    manager: DurabilityManager,
    oram: Option<(OramReader, WritebackEngine)>,
    survivors: Survivors,
    mode: Mode,
    /// The epoch the current life started at: no earlier epoch's tail
    /// carried its read batches.
    first: EpochId,
    /// Epochs a recovery finished itself, with what it replayed of them.
    finished_by_recovery: HashMap<EpochId, Vec<TxnId>>,
}

impl Run {
    /// Opens the shard: on a fresh store with a fresh ORAM client, or on
    /// the survivors of `fork`, crashed and waiting for [`Run::recover`].
    fn open(mode: Mode, fork: Option<&Fork>) -> Run {
        let survivors = Survivors {
            counter: TrustedCounter::new(),
            machine: Arc::new(Mutex::new(Rendezvous::new(2))),
        };
        let mut inner = InMemoryStore::new();
        let mut resurrected = Vec::new();
        if let Some(fork) = fork {
            survivors.counter.restore(fork.durable, 0);
            *survivors.machine.lock() = fork.machine.clone();
            inner = InMemoryStore::import_snapshot(&fork.store).expect("our own snapshot");
            resurrected = fork.resurrected.clone();
        }
        let log = Arc::new(LyingLog {
            inner,
            truncation: mode.truncation,
            resurrected: Mutex::new(resurrected),
            survivors: survivors.clone(),
            mutations: Mutex::new(Vec::new()),
            forking: AtomicBool::new(false),
            forks: Mutex::new(Vec::new()),
            withheld_delta: Mutex::new(None),
        });
        let store = Arc::new(FaultyStore::new(log.clone(), FaultPlan::none(), 1));
        let config = config();
        let counter = survivors.counter.clone();
        let manager = DurabilityManager::new(&keys(), store.clone(), counter, &config.epoch);
        let oram = fork.is_none().then(|| {
            RingOram::new(config.oram, &keys(), store.clone(), exec(), 40)
                .expect("fault-free initialisation")
                .split()
        });
        // The trace starts at the first scheduled operation, after tree
        // initialisation.
        log.mutations.lock().clear();
        Run {
            log,
            store,
            manager,
            oram,
            survivors,
            mode,
            first: 1,
            finished_by_recovery: HashMap::new(),
        }
    }

    /// One padded read batch of `epoch`: two keys that vary with the batch,
    /// two dummies; then the maintenance it made due.
    fn read_batch(&mut self, epoch: EpochId, batch: u64) -> Result<()> {
        self.manager.begin_read_batch();
        let first = (epoch * 5 + batch * 3) % KEYS;
        let requests = [Some(first), Some((first + 7) % KEYS), None, None];
        let logger = self.manager.logger_for(epoch);
        let (reader, engine) = oram_of(&mut self.oram);
        reader.read_batch(&requests, &logger)?;
        engine.run_pending_maintenance(&logger)
    }

    /// The executing epoch's read batch `batch`, at depth 2 only: depth 1
    /// reads nothing of `epoch + 1` before `epoch` has published.
    fn next_epoch_batch(&mut self, epoch: EpochId, batch: u64) -> Result<()> {
        if self.mode.depth < 2 {
            return Ok(());
        }
        self.read_batch(epoch + 1, batch)
    }

    /// The rendezvous of `epoch`: both shards list the cross-shard
    /// transaction (the victim its local one too), the leader plans, the
    /// victim's prepares are logged, the round completes.  Returns the
    /// victim's permit list.
    fn rendezvous(&mut self, epoch: EpochId) -> Result<Vec<TxnId>> {
        let cross = cross_txn(epoch);
        let mut machine = self.survivors.machine.lock();
        let mut sampled = HashMap::new();
        for shard in [VICTIM, PEER] {
            let local = (shard == VICTIM).then_some(local_txn(epoch));
            if let Some(txn) = cross {
                machine.register(txn, shard);
            }
            let listed = local.into_iter().chain(cross).map(CommitCandidate::local);
            sampled.insert(shard, listed.collect::<Vec<_>>());
        }
        let target = machine.arrive(VICTIM);
        assert_eq!(machine.arrive(PEER), target);
        assert_eq!(machine.poll(PEER, target), Poll::Lead);
        let plan = machine.plan(sampled);
        // The prepare I/O runs outside the coordinator's lock (the store
        // forks the coordinator in front of every append).
        drop(machine);
        let mut outcome = Ok(());
        let mut failed = HashSet::new();
        for &txn in plan.prepares.get(&VICTIM).into_iter().flatten() {
            if let Err(err) = self.manager.prepare_txn(epoch, txn, &writes_of(txn)) {
                failed.insert(txn);
                outcome = Err(err);
            }
        }
        let mut machine = self.survivors.machine.lock();
        machine.complete(plan, &failed);
        outcome?;
        match machine.poll(VICTIM, target) {
            Poll::Done(permits) => Ok(permits),
            other => panic!("polled {other:?} after the round completed"),
        }
    }

    /// One epoch, in the proxy's order of operations.
    fn run_epoch(&mut self, epoch: EpochId) -> Result<()> {
        if self.mode.depth < 2 || epoch == self.first {
            for batch in 0..4 {
                self.read_batch(epoch, batch)?;
            }
        }
        self.next_epoch_batch(epoch, 0)?;
        let permits = self.rendezvous(epoch)?;
        let writes: Vec<(Key, Value)> = permits.iter().flat_map(|txn| writes_of(*txn)).collect();
        self.manager.decision_durable(epoch, &permits, &writes)?;
        let logger = self.manager.logger_for(epoch);
        let (_, engine) = oram_of(&mut self.oram);
        engine.write_batch_padded(&writes, 8, &logger)?;
        engine.flush_writes(&logger)?;
        self.next_epoch_batch(epoch, 1)?;
        self.manager
            .commit_epoch(epoch, &mut oram_of(&mut self.oram).1)?;
        self.next_epoch_batch(epoch, 2)?;
        {
            // The peer's epoch committed too; the victim acknowledges
            // second, so whether a decision still pends is its doing.
            let mut machine = self.survivors.machine.lock();
            machine.ack_durable(PEER, &permits);
            machine.ack_durable(VICTIM, &permits);
        }
        if self.mode.retire {
            self.manager.wal().acked(epoch)?;
        }
        self.next_epoch_batch(epoch, 3)
    }

    /// Runs the schedule's epochs up to `last`, or until the store fails.
    fn run(&mut self, last: EpochId) {
        if let Some(err) = (self.first..=last).find_map(|epoch| self.run_epoch(epoch).err()) {
            assert!(matches!(err, ObladiError::Storage(_)), "{err}");
            assert!(self.store.has_tripped(), "{err}");
        }
    }

    /// Crashes the victim (its volatile state goes, its store heals) and
    /// recovers it the way `ShardedDb::recover_shard` does.
    fn recover(&mut self) -> Result<Recovered> {
        self.oram = None;
        self.store.set_plan(FaultPlan::none());
        let mut machine = self.survivors.machine.lock();
        machine.set_live(VICTIM, false);
        let resolve = |txn: TxnId| machine.decision(txn) == TxnDecision::Committed;
        let ((reader, mut engine), next_epoch, report, resolved) =
            self.manager
                .recover_resolving(config().oram, &keys(), exec(), 77, &resolve)?;
        machine.ack_durable(VICTIM, &resolved.replayed);
        machine.ack_durable(VICTIM, &resolved.stale_prepared);
        machine.set_live(VICTIM, true);
        // The peer is healthy: what it still owes an acknowledgement for it
        // acknowledges when its epoch commits.  What pends after that is
        // pinned on the victim.
        let owed: Vec<TxnId> = (1..=next_epoch).filter_map(cross_txn).collect();
        machine.ack_durable(PEER, &owed);
        if !resolved.replayed.is_empty() {
            let finished = self
                .finished_by_recovery
                .insert(next_epoch - 1, resolved.replayed.clone());
            assert_eq!(finished, None, "an epoch is finished once");
        }
        let meta = engine.meta_snapshot().encode_full();
        let requests: Vec<Option<Key>> = (0..KEYS).map(Some).collect();
        let values = reader.read_batch(&requests, &NoopPathLogger)?;
        engine.run_pending_maintenance(&NoopPathLogger)?;
        engine.flush_writes(&NoopPathLogger)?;
        self.oram = Some((reader, engine));
        self.first = next_epoch;
        Ok(Recovered {
            meta,
            next_epoch,
            replayed: resolved.replayed,
            report,
            pinned: machine.pending_decisions(),
            values,
            expected: self.expected_values(next_epoch),
        })
    }

    /// What the victim must hold once the epochs below `next_epoch` are
    /// durable: the last value of every key over everything the schedule
    /// committed in them — except that of an epoch recovery finished itself
    /// only what it replayed is there (a decision record carries the whole
    /// epoch, a lone prepare just the cross-shard transaction).
    fn expected_values(&self, next_epoch: EpochId) -> Vec<Option<Value>> {
        let mut expected = vec![None; KEYS as usize];
        for epoch in 1..next_epoch {
            let scheduled = || Some(local_txn(epoch)).into_iter().chain(cross_txn(epoch));
            let txns = self.finished_by_recovery.get(&epoch).cloned();
            let txns = txns.unwrap_or_else(|| scheduled().collect());
            for (key, value) in txns.into_iter().flat_map(writes_of) {
                expected[key as usize] = Some(value);
            }
        }
        expected
    }
}

fn oram_of(oram: &mut Option<(OramReader, WritebackEngine)>) -> &mut (OramReader, WritebackEngine) {
    oram.as_mut().expect("still running")
}

/// A fault-free run of `mode`: its mutation trace, and the fork in front of
/// every mutation plus the one behind the last.
fn forks_of(mode: Mode) -> (Vec<u8>, Vec<Fork>) {
    let mut run = Run::open(mode, None);
    run.log.forking.store(true, Ordering::SeqCst);
    run.run(EPOCHS);
    assert_eq!(run.manager.counter().epoch(), EPOCHS, "the run completes");
    let trace = run.log.mutations.lock().clone();
    let mut forks = std::mem::take(&mut *run.log.forks.lock());
    forks.push(run.log.fork());
    assert_eq!(forks.len(), trace.len() + 1);
    (trace, forks)
}

/// Asserts that a recovery over a log that was cut (or that a lying store
/// claims it cut) matches the recovery over the log nobody ever touched.
fn assert_same_recovery(at: &str, cut: &Recovered, kept: &Recovered) {
    assert!(
        cut.meta == kept.meta,
        "{at}: recovered ORAM metadata differs"
    );
    assert_eq!(cut.next_epoch, kept.next_epoch, "{at}");
    assert_eq!(cut.replayed, kept.replayed, "{at}");
    assert_eq!(
        cut.report.reads_replayed, kept.report.reads_replayed,
        "{at}"
    );
    assert_eq!(
        cut.report.epochs_replayed, kept.report.epochs_replayed,
        "{at}"
    );
    assert_eq!(cut.report.in_doubt, kept.report.in_doubt, "{at}");
    assert_eq!(
        (cut.pinned, kept.pinned),
        (0, 0),
        "{at}: a decision stayed pinned"
    );
    assert_eq!(cut.values, kept.values, "{at}");
    assert_eq!(cut.values, cut.expected, "{at}");
    assert!(cut.report.records_read <= kept.report.records_read, "{at}");
}

/// Whether the log in `fork` holds a full checkpoint of a durable epoch —
/// what recovery cannot start without once anything has committed.
fn holds_a_durable_full_checkpoint(fork: &Fork) -> bool {
    let store = InMemoryStore::import_snapshot(&fork.store).unwrap();
    let log = store.read_log_from(0).unwrap();
    let records = fork.resurrected.iter().chain(&log);
    let mut fulls = records.filter_map(|(_, frame)| epoch_of(frame, WalRecordKind::CheckpointFull));
    fulls.any(|epoch| epoch <= fork.durable)
}

/// The run that never retires, at one depth: its mutation trace and the
/// recovery of every fork — what every other run of that depth is held to.
struct Baseline {
    depth: u32,
    trace: Vec<u8>,
    recovered: Vec<Recovered>,
}

impl Baseline {
    fn at(depth: u32) -> Baseline {
        let mode = Mode::honest(depth, false);
        let (trace, forks) = forks_of(mode);
        let recover = |fork| Run::open(mode, Some(fork)).recover();
        let recovered: Result<Vec<Recovered>> = forks.iter().map(recover).collect();
        Baseline {
            depth,
            trace,
            recovered: recovered.expect("recovery over the whole log"),
        }
    }

    /// Recovers every fork of a run that retires against a store lying as
    /// `truncation` says, next to the matching fork of the baseline.
    /// Returns how many recoveries read fewer records than the baseline's,
    /// and how many the store's lie stopped.
    fn sweep(&self, truncation: Truncation) -> (usize, usize) {
        let mode = Mode {
            depth: self.depth,
            retire: true,
            truncation,
        };
        let (trace, forks) = forks_of(mode);
        let cuts = trace.iter().filter(|what| **what == TRUNCATION).count();
        assert_eq!(cuts, 4, "full checkpoints at epochs 1, 4, 8 and 12");
        let without_cuts: Vec<u8> = trace.iter().copied().filter(|w| *w != TRUNCATION).collect();
        assert_eq!(
            without_cuts, self.trace,
            "the schedules differ only in the cuts"
        );
        let (mut shorter_scans, mut failed_closed) = (0, 0);
        // Crash point `done`: the first `done` mutations happened, volatile
        // state is lost before the next.  `done == trace.len()` crashes the
        // finished run.
        for (done, fork) in forks.iter().enumerate() {
            let at = format!(
                "depth {}, {truncation:?}, crash after {done} of {} mutations",
                self.depth,
                trace.len()
            );
            let appended = trace[..done].iter().filter(|w| **w != TRUNCATION).count();
            let kept = &self.recovered[appended];
            let lost_base = fork.durable > 0 && !holds_a_durable_full_checkpoint(fork);
            match Run::open(mode, Some(fork)).recover() {
                Ok(cut) => {
                    assert!(!lost_base, "{at}: recovered without a base checkpoint");
                    assert_same_recovery(&at, &cut, kept);
                    shorter_scans +=
                        usize::from(cut.report.records_read < kept.report.records_read);
                }
                Err(err) => {
                    // Only a store that dropped the base checkpoint may stop
                    // recovery, and then with the error that says so.
                    assert!(lost_base, "{at}: recovery over the cut log: {err}");
                    let expected = "no full checkpoint found although epochs have committed";
                    assert!(err.to_string().contains(expected), "{at}: {err}");
                    failed_closed += 1;
                }
            }
        }
        (shorter_scans, failed_closed)
    }
}

#[test]
fn every_crash_point_recovers_as_if_the_log_had_never_been_cut_depth_1() {
    let baseline = Baseline::at(1);
    let (shorter_scans, failed_closed) = baseline.sweep(Truncation::Honest);
    assert_eq!(failed_closed, 0);
    assert!(shorter_scans > baseline.trace.len() / 2, "{shorter_scans}");
    // At depth 1 the cut is the full checkpoint's own sequence number, so a
    // store that truncates one record past it drops the checkpoint: until
    // the next one is durable every recovery must refuse, and say why.
    let (_, failed_closed) = baseline.sweep(Truncation::Past(1));
    assert!(failed_closed > baseline.trace.len() / 2, "{failed_closed}");
}

#[test]
fn every_crash_point_recovers_as_if_the_log_had_never_been_cut_depth_2() {
    let baseline = Baseline::at(2);
    let (shorter_scans, failed_closed) = baseline.sweep(Truncation::Honest);
    assert_eq!(failed_closed, 0);
    assert!(shorter_scans > baseline.trace.len() / 2, "{shorter_scans}");
    // A store that ignores truncation, or re-serves retired records in
    // front of the retained suffix, changes nothing: what was retired is
    // inert (stale epochs, superseded checkpoints).
    assert_eq!(baseline.sweep(Truncation::Ignored), (0, 0));
    let (_, failed_closed) = baseline.sweep(Truncation::ReServed);
    assert_eq!(failed_closed, 0);
}

/// Fails the `nth` mutation, counting from the first scheduled operation.
fn crash_at_mutation(nth: usize) -> FaultPlan {
    FaultPlan::crash_at(CrashPoint {
        arm_on_log_kind: None,
        on: CrashOp::Mutation,
        nth: nth as u64,
    })
}

/// Crashes a run of `mode` for real once `done` of its mutations happened
/// (the next one fails, and with it everything after), recovers it on the
/// same durability manager, lets it live on to epoch 16 — another full
/// checkpoint, another acknowledgement — and crashes and recovers it again.
fn two_lives(mode: Mode, done: usize) -> (Run, Recovered, Recovered) {
    let mut run = Run::open(mode, None);
    run.store.set_plan(crash_at_mutation(done + 1));
    run.run(EPOCHS);
    assert!(run.store.has_tripped(), "the crash point is inside the run");
    let first = run.recover().expect("first recovery");
    run.run(EPOCHS + 4);
    assert_eq!(run.manager.counter().epoch(), EPOCHS + 4);
    let second = run.recover().expect("second recovery");
    (run, first, second)
}

#[test]
fn a_proxy_crashed_around_a_cut_recovers_and_keeps_retiring_safely() {
    for depth in [1, 2] {
        let (trace, _) = forks_of(Mode::honest(depth, true));
        let position = |from: usize, what: u8| {
            from + trace[from..]
                .iter()
                .position(|w| *w == what)
                .expect("the trace holds the record")
        };
        // Full(1) is the trace's first full checkpoint; Full(4) the second.
        let full_1 = position(0, WalRecordKind::CheckpointFull.tag());
        let full = position(full_1 + 1, WalRecordKind::CheckpointFull.tag());
        let marker = position(full, WalRecordKind::EpochCommit.tag());
        let cut = position(marker, TRUNCATION);
        let points = [
            ("before Full(4)", full),
            ("between Full(4) and its marker", marker),
            ("after the marker", marker + 1),
            ("before the truncate", cut),
            ("after the truncate", cut + 1),
            (
                "an epoch later",
                position(cut, WalRecordKind::EpochCommit.tag()),
            ),
        ];
        for (name, done) in points {
            let at = format!("depth {depth}, crash {name}");
            let appended = trace[..done].iter().filter(|w| **w != TRUNCATION).count();
            let (cut_run, cut_first, cut_second) = two_lives(Mode::honest(depth, true), done);
            let (kept_run, kept_first, kept_second) =
                two_lives(Mode::honest(depth, false), appended);
            assert_same_recovery(&format!("{at}, first life"), &cut_first, &kept_first);
            assert_same_recovery(&format!("{at}, second life"), &cut_second, &kept_second);
            // The second life cut behind Full(16) with what the recovery
            // scan rebuilt, and the store holds what the index says.
            let second_life = &cut_run.log.mutations.lock()[done..];
            assert!(second_life.contains(&TRUNCATION), "{at}");
            let retained = cut_run.manager.wal().retained().0;
            assert_eq!(retained as usize, cut_run.log.inner.log_len(), "{at}");
            assert!(
                cut_run.log.inner.log_len() * 4 < kept_run.log.inner.log_len(),
                "{at}"
            );
        }
    }
}

#[test]
fn a_store_that_withholds_a_delta_from_the_chain_is_refused() {
    for depth in [1, 2] {
        let mode = Mode::honest(depth, true);
        let (_, forks) = forks_of(mode);
        let mut refused = 0;
        for fork in forks.iter().step_by(2) {
            // Full checkpoints at epochs 1, 4, 8 and 12: the deltas behind
            // the base are those of the durable epochs past the last one.
            let base = [12, 8, 4, 1, 0]
                .into_iter()
                .find(|full| *full <= fork.durable);
            for withheld in base.unwrap() + 1..=fork.durable {
                let at = format!(
                    "depth {depth}, durable {}, no delta {withheld}",
                    fork.durable
                );
                let mut run = Run::open(mode, Some(fork));
                *run.log.withheld_delta.lock() = Some(withheld);
                let Err(err) = run.recover() else {
                    panic!("{at}: recovered over a broken chain");
                };
                assert!(matches!(err, ObladiError::Recovery(_)), "{at}: {err}");
                assert!(
                    err.to_string().contains("delta chain broken"),
                    "{at}: {err}"
                );
                // The refusal cost nothing recovery needs: with the record
                // back, the same store recovers.
                *run.log.withheld_delta.lock() = None;
                run.recover()
                    .unwrap_or_else(|err| panic!("{at}, record back: {err}"));
                refused += 1;
            }
        }
        assert!(refused > forks.len() / 4, "depth {depth}: {refused}");
    }
}
