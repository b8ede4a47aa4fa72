//! The Obladi proxy: epochs, batching, delayed visibility (§5–§6).
//!
//! [`ObladiDb`] is the trusted proxy.  The epoch lifecycle — what a
//! transaction may do in which phase, when an outcome may be acknowledged,
//! what a crash wipes — is the pure state machine in `crate::epoch`
//! (overview in DESIGN.md).  This module is its shell: client handles that
//! lock, apply one transition and park or return, and three kinds of thread
//! that perform the I/O the transitions describe:
//!
//! * the **executor** ships exactly `R` padded read batches per epoch on
//!   the `Δ` rhythm, then seals the epoch into the pipeline slot and starts
//!   the next one (at depth 1 only once the slot has drained);
//! * **read-batch runners** execute the dispatched batches on the ORAM
//!   read plane, overlapping their physical fetches;
//! * the **decider** takes the sealed epoch through gate verdict, decision
//!   record, padded write batch, flush and checkpoint on the ORAM
//!   write-back engine, acknowledging outcomes rung by rung.
//!
//! Locks: no I/O and no gate call runs under the state lock, and nothing
//! acquires it while holding the reader or engine lock (a crash or a
//! recovery takes those two under it, to swap the ORAM client atomically
//! with the pipeline state).

use crate::api::{KvDatabase, KvTransaction};
use crate::concurrency::CommitCandidate;
use crate::durability::{DurabilityManager, RecoveryReport};
use crate::epoch::{
    is_reserved_batch, BatchPlan, Mode, Pipeline, ReadStep, READ_BATCHES_IN_FLIGHT,
};
use obladi_common::config::ObladiConfig;
use obladi_common::error::{ObladiError, Result};
use obladi_common::types::{EpochId, Key, TxnId, TxnOutcome, Value};
use obladi_crypto::KeyMaterial;
use obladi_oram::{ExecOptions, OramReader, RingOram, WritebackEngine};
use obladi_storage::{build_backend, TrustedCounter, UntrustedStore};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Produces the proxy's current commit candidates: the transactions that
/// have requested commit and fit the epoch's write-batch capacity, each
/// with the same-epoch transactions whose uncommitted writes it observed
/// (so an external coordinator can keep its vote closed under cascading
/// aborts).
///
/// The coordinator of a sharded deployment calls this at *decision* time —
/// possibly from another shard's driver thread — so a cross-shard commit
/// whose requests raced in after this shard reached its epoch barrier still
/// gets counted.  The closure takes the proxy's state lock; callers must not
/// hold it.
pub type CandidateSource = Arc<dyn Fn() -> Vec<CommitCandidate> + Send + Sync>;

/// Durably logs 2PC prepare records for the given transactions (their write
/// sets go to this proxy's WAL) and returns once the records are appended.
///
/// The epoch coordinator calls this at decision time, *before* counting the
/// shard's commit vote for a cross-shard transaction: only once every
/// participant holds a durable prepare may the transaction commit, so a
/// participant that crashes between the vote and its epoch commit can
/// finish the transaction during recovery instead of losing its half.  An
/// error means the prepare did not become durable and the vote must not
/// count.  Like [`CandidateSource`], the closure takes the proxy's state
/// lock; callers must not hold it.
pub type TxnPreparer = Arc<dyn Fn(&[TxnId]) -> Result<()> + Send + Sync>;

/// A hook that lets an external coordinator arbitrate which transactions of
/// an epoch are allowed to commit.
///
/// The sharded deployment (`obladi-shard`) installs one gate per shard: the
/// gate call doubles as an **epoch barrier** (it blocks until every shard has
/// reached the end of its epoch) and as a **commit vote** (a transaction that
/// spans several shards commits only if every participating shard reports it
/// as ready).  A proxy without a gate behaves exactly as before.
///
/// `permit_commits` runs on the epoch-driver thread with no proxy locks
/// held; it may block.  Commit requests that arrive after the coordinator's
/// decision are aborted with [`AbortReason::EpochEnd`] (retryable) so
/// nothing can commit behind the coordinator's back.
pub trait EpochGate: Send + Sync {
    /// Called before finalising `epoch`; `candidates` yields the proxy's
    /// commit candidates when sampled, and `preparer` durably logs 2PC
    /// prepare records on this proxy for transactions the coordinator is
    /// about to permit on several shards.  Returns the set of transactions
    /// allowed to commit; every other commit-requested transaction aborts
    /// with a retryable reason.
    ///
    /// An `Err` — the barrier watchdog converting an indefinite park into
    /// [`ObladiError::BarrierStalled`] — means the gate reached no decision
    /// at all.  The proxy treats it as an *empty* permit set: every commit
    /// candidate aborts retryably, the epoch finalises and the pipeline
    /// keeps moving (the error is diagnostic, not fatal — it must not
    /// fate-share into a crash).
    fn permit_commits(
        &self,
        epoch: EpochId,
        candidates: CandidateSource,
        preparer: TxnPreparer,
    ) -> Result<Vec<TxnId>>;

    /// Called after `epoch`'s outcomes have been published (durably when the
    /// epoch succeeded, as aborts when it failed).
    fn epoch_finalized(&self, epoch: EpochId) {
        let _ = epoch;
    }

    /// Called (with no proxy locks held) just before a read batch of
    /// `epoch` executes.  With the pipelined epoch barrier, batches of
    /// epoch `N+1` fire while epoch `N`'s `permit_commits` call is still in
    /// flight; instrumented gates use this to prove the overlap.
    fn read_batch_starting(&self, epoch: EpochId) {
        let _ = epoch;
    }

    /// Called (with no proxy locks held) right after a read batch of
    /// `epoch` has executed and its values registered.  Together with
    /// [`EpochGate::write_back_starting`] / [`EpochGate::write_back_finished`]
    /// this lets an instrumented gate prove that a whole epoch `N+1` read
    /// batch started *and completed* while epoch `N`'s write-back was still
    /// in flight — the overlap the split ORAM client exists for.
    fn read_batch_finished(&self, epoch: EpochId) {
        let _ = epoch;
    }

    /// Called just before the decider hands epoch `N`'s write batch, flush
    /// and checkpoint to the write-back engine.
    fn write_back_starting(&self, epoch: EpochId) {
        let _ = epoch;
    }

    /// Called once epoch `N`'s write-back (including the checkpoint) has
    /// completed successfully, before its outcomes publish.
    fn write_back_finished(&self, epoch: EpochId) {
        let _ = epoch;
    }

    /// Called once `epoch` has become durable, with the transactions whose
    /// commits it made durable.  A coordinator uses this to retire the
    /// prepare/decision state of cross-shard transactions: once every
    /// participant has reported the commit durable, no recovery will ever
    /// ask about it again.
    fn epoch_durable(&self, epoch: EpochId, committed: &[TxnId]) {
        let _ = (epoch, committed);
    }

    /// Called (with no proxy locks held) when the proxy crashes — whether by
    /// an explicit [`ObladiDb::crash`] or by storage-fault fate sharing.  A
    /// coordinator must stop waiting for this proxy at epoch rendezvous.
    fn proxy_crashed(&self) {}

    /// Called (with no proxy locks held) when [`ObladiDb::recover`]
    /// completes, so a coordinator can re-admit the proxy to rendezvous.
    fn proxy_recovered(&self) {}

    /// Called (with no proxy locks held) when [`ObladiDb::shutdown`] begins,
    /// before the epoch threads are joined.  A coordinator must stop
    /// waiting for this proxy at the rendezvous, or the decider thread —
    /// possibly parked there — could never be joined.
    fn proxy_stopping(&self) {}
}

/// Aggregate proxy statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProxyStats {
    /// Epochs finalised since the proxy started.
    pub epochs: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted (any reason).
    pub aborted: u64,
    /// Read batches executed.
    pub read_batches: u64,
    /// Real (non-padding) read slots used across all batches.
    pub real_reads: u64,
    /// Padding read slots across all batches.
    pub padded_reads: u64,
    /// Real writes shipped in write batches.
    pub real_writes: u64,
}

/// Every transition that could release a parked client also notifies; the
/// timeout only bounds the damage of a missed wakeup.
const PARK_RECHECK: Duration = Duration::from_secs(10);

struct ProxyInner {
    config: ObladiConfig,
    keys: KeyMaterial,
    store: Arc<dyn UntrustedStore>,
    durability: DurabilityManager,
    /// The ORAM client's read plane.  Runners clone it out of the lock, so
    /// batches never serialize here and a batch keeps its client alive even
    /// if a crash empties the slot meanwhile.
    reader: Mutex<Option<OramReader>>,
    /// The ORAM client's write-back engine, driven only by the decider (and
    /// by recovery).
    engine: Mutex<Option<WritebackEngine>>,
    state: Mutex<Pipeline>,
    /// Wakes client threads waiting for read results or commit outcomes.
    client_wakeup: Condvar,
    /// Wakes the epoch executor (backlog, freed slot, crash, recovery,
    /// shutdown).
    driver_wakeup: Condvar,
    /// Wakes the epoch decider when an epoch is sealed.
    decider_wakeup: Condvar,
    /// Wakes the read-batch runners when a batch is dispatched, and the
    /// executor when one finishes.
    batch_wakeup: Condvar,
    next_ts: AtomicU64,
    stats: Mutex<ProxyStats>,
    epoch_gate: Mutex<Option<Arc<dyn EpochGate>>>,
}

impl ProxyInner {
    fn gate(&self) -> Option<Arc<dyn EpochGate>> {
        self.epoch_gate.lock().clone()
    }

    /// Parks a client until something it may be waiting for happened.
    fn park(&self, state: &mut MutexGuard<'_, Pipeline>) {
        self.client_wakeup.wait_for(state, PARK_RECHECK);
    }

    /// Parks the executor while `blocked` holds (every such predicate gives
    /// way when the proxy stops running), timing the wait: as `phase`, and
    /// in `slot_wait_us`, the sum of the executor's waits.
    fn wait_while(&self, phase: &str, blocked: fn(&Pipeline) -> bool) -> MutexGuard<'_, Pipeline> {
        let started = Instant::now();
        let mut state = self.state.lock();
        while blocked(&state) {
            self.driver_wakeup.wait(&mut state);
        }
        for name in ["proxy.phase.slot_wait_us", phase] {
            let waited = obladi_obs::global().histogram(name);
            waited.record_duration(started.elapsed());
        }
        state
    }
}

/// The ORAM client options the proxy opens and recovers with.  Trees past
/// 50,000 objects initialise fast (one shared dummy image per bucket).
fn exec_options(config: &ObladiConfig) -> ExecOptions {
    ExecOptions {
        parallel: true,
        threads: config.epoch.executor_threads,
        deferred_writes: true,
        encrypt: true,
        fast_init: config.oram.num_objects > 50_000,
    }
}

fn spawn(
    name: String,
    inner: &Arc<ProxyInner>,
    body: fn(Arc<ProxyInner>),
) -> Result<std::thread::JoinHandle<()>> {
    let inner = inner.clone();
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || body(inner))
        .map_err(|e| ObladiError::Internal(format!("failed to spawn {name}: {e}")))
}

/// The Obladi database handle (the trusted proxy).
pub struct ObladiDb {
    inner: Arc<ProxyInner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ObladiDb {
    /// Opens a proxy over a freshly built storage backend chosen by the
    /// configuration.
    pub fn open(config: ObladiConfig) -> Result<ObladiDb> {
        let store = build_backend(config.backend, config.latency_scale, config.seed);
        let counter = TrustedCounter::new();
        let keys = KeyMaterial::for_tests(config.seed);
        ObladiDb::open_with(config, store, counter, keys)
    }

    /// Opens a proxy over an existing storage backend, trusted counter and
    /// key material (used by tests, recovery scenarios and benchmarks that
    /// need to share the backend with a baseline).
    pub fn open_with(
        config: ObladiConfig,
        store: Arc<dyn UntrustedStore>,
        counter: Arc<TrustedCounter>,
        keys: KeyMaterial,
    ) -> Result<ObladiDb> {
        let mut config = config;
        // The stash must absorb everything that can accumulate between the
        // engine's maintenance passes.  The executor never runs maintenance
        // after a read batch: every eviction an epoch's reads owe is
        // deferred to the decider's write-back, so the sealed epoch's read
        // targets sit in the stash for its whole write-back window on top
        // of the up-to-`pipeline_depth` epochs of reads in flight — hence
        // one extra epoch of read headroom, plus the write batch, a batch
        // of planned-but-not-ingested blocks per extra in-flight batch, and
        // an eviction-path margin.  A stash overflow poisons the client
        // (the proxy fate-shares and recovers), so an undersized bound
        // costs availability, never durability.
        let stash_floor = (config.epoch.pipeline_depth.max(1) as usize + 1)
            * config.epoch.reads_per_epoch()
            + config.epoch.write_batch_size
            + (READ_BATCHES_IN_FLIGHT - 1) * config.epoch.read_batch_size
            + 4 * config.oram.z as usize;
        config.oram.max_stash = config.oram.max_stash.max(stash_floor);
        config.validate()?;
        let durability = DurabilityManager::new(&keys, store.clone(), counter, &config.epoch);
        let exec = exec_options(&config);
        let (reader, engine) =
            RingOram::new(config.oram, &keys, store.clone(), exec, config.seed)?.split();
        // Which crypto kernels this proxy seals with, once per open, as an
        // info gauge (the name carries the value): a snapshot taken on a CPU
        // without the extensions then explains its own crypto lines.
        // Trusted side only — a function of the proxy's CPU, never exported
        // by the storage daemons.
        obladi_obs::global()
            .gauge(&format!(
                "proxy.crypto.kernels.{}",
                obladi_crypto::kernels::selected()
            ))
            .set(1);

        let inner = Arc::new(ProxyInner {
            state: Mutex::new(Pipeline::new(config.epoch, 1)),
            config,
            keys,
            store,
            durability,
            reader: Mutex::new(Some(reader)),
            engine: Mutex::new(Some(engine)),
            client_wakeup: Condvar::new(),
            driver_wakeup: Condvar::new(),
            decider_wakeup: Condvar::new(),
            batch_wakeup: Condvar::new(),
            next_ts: AtomicU64::new(1),
            stats: Mutex::new(ProxyStats::default()),
            epoch_gate: Mutex::new(None),
        });
        let mut threads = vec![
            spawn("obladi-epoch-executor".into(), &inner, epoch_executor)?,
            spawn("obladi-epoch-decider".into(), &inner, epoch_decider)?,
        ];
        for i in 0..READ_BATCHES_IN_FLIGHT {
            threads.push(spawn(
                format!("obladi-read-runner-{i}"),
                &inner,
                read_batch_runner,
            )?);
        }
        Ok(ObladiDb {
            inner,
            threads: Mutex::new(threads),
        })
    }

    /// The configuration this proxy runs with.
    pub fn config(&self) -> &ObladiConfig {
        &self.inner.config
    }

    /// The underlying untrusted store (benchmarks read its counters).
    pub fn store(&self) -> &Arc<dyn UntrustedStore> {
        &self.inner.store
    }

    /// Proxy statistics snapshot.
    pub fn stats(&self) -> ProxyStats {
        *self.inner.stats.lock()
    }

    /// ORAM statistics snapshot (physical requests, evictions, …).
    pub fn oram_stats(&self) -> Option<obladi_oram::OramStats> {
        self.inner.reader.lock().as_ref().map(|r| r.stats())
    }

    /// Begins a transaction.
    pub fn begin(&self) -> Result<ObladiTxn<'_>> {
        let ts = self.inner.next_ts.fetch_add(1, Ordering::SeqCst) + 1;
        self.begin_at(ts)
    }

    /// Begins a transaction with an externally assigned MVTSO timestamp.
    ///
    /// The sharded front door stamps transactions from one global timestamp
    /// oracle so the serialization order is total *across* shards; each
    /// participating shard then opens its local piece of the transaction at
    /// that same timestamp.  The caller must guarantee timestamps are unique
    /// per proxy; the proxy's own generator is bumped past `ts` so mixing
    /// [`ObladiDb::begin`] calls in cannot collide.
    pub fn begin_at(&self, ts: TxnId) -> Result<ObladiTxn<'_>> {
        self.begin_at_checked(ts, None)
    }

    /// Like [`ObladiDb::begin_at`], but fails (retryably) unless the proxy
    /// still hosts the epoch identified by `generation` — either as the
    /// executing epoch or as a sealed epoch whose decision is still open.
    ///
    /// The sharded front door draws a global timestamp, samples each
    /// shard's target generation ([`ObladiDb::stamp_targets`]), and
    /// opens legs lazily; a leg must open in the same local epoch the
    /// timestamp was sampled against, or the timestamp could be smaller
    /// than timestamps already folded into the epoch's base versions.
    /// The check is atomic with the epoch rollover (both happen under the
    /// proxy's state lock), so beginning a transaction never blocks on an
    /// epoch decision.
    ///
    /// A leg that lands in a *sealed* epoch (its read phase is over, its
    /// cross-shard decision still in flight) joins with reduced powers: it
    /// can read cached values, fetch through the next epoch's spare batch
    /// slots, write keys the next epoch has not yet fetched, and request
    /// commit.
    pub fn begin_at_generation(&self, ts: TxnId, generation: u64) -> Result<ObladiTxn<'_>> {
        self.begin_at_checked(ts, Some(generation))
    }

    fn begin_at_checked(&self, ts: TxnId, generation: Option<u64>) -> Result<ObladiTxn<'_>> {
        self.inner.next_ts.fetch_max(ts, Ordering::SeqCst);
        let generation = self.inner.state.lock().begin(ts, generation)?;
        Ok(ObladiTxn {
            db: self,
            id: ts,
            generation,
            finished: false,
        })
    }

    /// The generations a new externally-stamped transaction can target on
    /// this shard: the executing epoch's, and — while an epoch is sealed
    /// with its decision still open — that epoch's too.
    ///
    /// The pair encodes which rendezvous each target decides at: an open
    /// sealed epoch decides at the shard's *next* rendezvous and the
    /// executing epoch one later; with no open sealed epoch the executing
    /// epoch is itself next.  The sharded front door samples every shard's
    /// pair at stamping and picks per-leg targets that all decide at one
    /// rendezvous (see `ShardedDb::begin`).
    pub fn stamp_targets(&self) -> (u64, Option<u64>) {
        self.inner.state.lock().stamp_targets()
    }

    /// The generation of the epoch currently executing.
    pub fn current_generation(&self) -> u64 {
        self.inner.state.lock().stamp_targets().0
    }

    /// Installs an [`EpochGate`] consulted before every epoch finalisation.
    pub fn set_epoch_gate(&self, gate: Arc<dyn EpochGate>) {
        *self.inner.epoch_gate.lock() = Some(gate);
    }

    /// Blocks until the epoch that is current at the time of the call has
    /// been superseded (or `timeout` elapses, or the proxy crashes / shuts
    /// down).  Returns `true` if a fresh epoch began.
    ///
    /// Epoch-overflow aborts (`BatchFull`) are retryable but pointless to
    /// retry *within* the same epoch — its batch capacity stays exhausted
    /// until finalisation.  Retry loops (the sharded front door, clients)
    /// use this to wait exactly as long as needed and no longer.
    pub fn wait_epoch_rollover(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.state.lock();
        let generation = state.stamp_targets().0;
        loop {
            if state.stamp_targets().0 != generation {
                return true;
            }
            let now = Instant::now();
            if state.mode() != Mode::Running || now >= deadline {
                return false;
            }
            self.inner
                .client_wakeup
                .wait_for(&mut state, deadline - now);
        }
    }

    /// The identifier of the epoch currently executing.
    pub fn current_epoch(&self) -> EpochId {
        self.inner.state.lock().exec_epoch()
    }

    /// The identifier of the epoch currently deciding (rendezvous, commit
    /// vote, write-back in flight), if any.
    pub fn deciding_epoch(&self) -> Option<EpochId> {
        self.inner.state.lock().to_decide().map(|sealed| sealed.0)
    }

    /// Simulates a proxy crash: all volatile state (epoch state, version
    /// cache, ORAM client metadata, stash) is dropped and every in-flight
    /// transaction aborts.  The trusted counter and cloud storage survive.
    pub fn crash(&self) {
        crash_proxy(&self.inner, None);
    }

    /// Recovers from a crash using the recovery unit (§8) and resumes
    /// processing.  Returns the timing breakdown reported in Table 11b.
    ///
    /// In-doubt 2PC-prepared transactions are presumed aborted; a sharded
    /// deployment recovers through [`ObladiDb::recover_resolving`] instead,
    /// so voted cross-shard transactions can be finished.
    pub fn recover(&self) -> Result<RecoveryReport> {
        self.recover_resolving(&|_| false).map(|(report, _)| report)
    }

    /// Like [`ObladiDb::recover`], but resolves in-doubt 2PC-prepared
    /// transactions through `resolve`: `resolve(txn)` returns whether the
    /// deployment coordinator decided to commit `txn`.  Committed in-doubt
    /// transactions are replayed from their durable prepare records and made
    /// durable *before* the proxy resumes serving, so the shard rejoins with
    /// its half of every voted cross-shard transaction in place.  Returns
    /// the report and the prepared transactions this shard can now vouch
    /// for (replayed plus already-durable, for acknowledging the
    /// coordinator).
    pub fn recover_resolving(
        &self,
        resolve: &dyn Fn(TxnId) -> bool,
    ) -> Result<(RecoveryReport, crate::durability::RecoveredTxns)> {
        let inner = &self.inner;
        if !self.is_crashed() {
            return Err(ObladiError::Recovery("proxy has not crashed".into()));
        }
        let ((reader, engine), next_epoch, report, resolved) = inner.durability.recover_resolving(
            inner.config.oram,
            &inner.keys,
            exec_options(&inner.config),
            inner.config.seed,
            resolve,
        )?;
        {
            // The fresh halves go in under the state lock, together with the
            // new life: a stale self-crash (a decider surfacing a pre-crash
            // I/O failure right now) either ran before this section, wiping
            // the old already-empty slots, or finds its life superseded.
            let mut state = inner.state.lock();
            *inner.reader.lock() = Some(reader);
            *inner.engine.lock() = Some(engine);
            state.recovered(next_epoch);
        }
        inner.driver_wakeup.notify_all();
        inner.decider_wakeup.notify_all();
        if let Some(gate) = inner.gate() {
            gate.proxy_recovered();
        }
        Ok((report, resolved))
    }

    /// Whether the proxy is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.inner.state.lock().mode() == Mode::Crashed
    }

    /// Stops the epoch driver and releases resources.  Outstanding
    /// transactions abort.
    pub fn shutdown(&self) {
        let inner = &self.inner;
        inner.state.lock().stop();
        // The decider may be parked at a cross-shard rendezvous; tell the
        // gate this proxy is leaving so the coordinator releases it (and
        // stops counting it into future barriers).
        if let Some(gate) = inner.gate() {
            gate.proxy_stopping();
        }
        inner.driver_wakeup.notify_all();
        inner.decider_wakeup.notify_all();
        inner.client_wakeup.notify_all();
        inner.batch_wakeup.notify_all();
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ObladiDb {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl crate::api::FrontDoor for ObladiDb {
    fn deployment(&self) -> String {
        "obladi".to_string()
    }

    fn stop(&self) {
        self.shutdown();
    }
}

impl KvDatabase for ObladiDb {
    fn execute<T>(&self, body: &mut dyn FnMut(&mut dyn KvTransaction) -> Result<T>) -> Result<T> {
        let mut txn = self.begin()?;
        // A failed body drops the handle, which rolls the transaction back.
        let value = body(&mut txn)?;
        crate::api::commit_timed(|| txn.commit())?;
        Ok(value)
    }

    /// An epoch whose batches are spent aborts every read until it ends:
    /// the retry waits for the next epoch instead of burning its attempts.
    fn before_retry(&self, abort: &ObladiError) {
        if matches!(abort, ObladiError::BatchFull(_)) {
            self.wait_epoch_rollover(Duration::from_secs(2));
        }
    }

    fn engine_name(&self) -> &'static str {
        "obladi"
    }
}

/// A transaction handle on the Obladi proxy.
pub struct ObladiTxn<'db> {
    db: &'db ObladiDb,
    id: TxnId,
    /// The generation of the epoch the transaction lives in.
    generation: u64,
    /// Set once commit was requested or the transaction rolled back; until
    /// then dropping the handle rolls back (also after a failed operation,
    /// which leaves the proxy's cleanup to this).
    finished: bool,
}

impl ObladiTxn<'_> {
    /// The transaction's MVTSO timestamp.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Reads a key, blocking until the read batch containing it has executed
    /// if the value is not already cached for this epoch.
    pub fn read(&mut self, key: Key) -> Result<Option<Value>> {
        let inner = &self.db.inner;
        let mut state = inner.state.lock();
        loop {
            match state.read(self.id, self.generation, key)? {
                ReadStep::Value(value) => return Ok(value),
                ReadStep::Park => {
                    if state.backlog() {
                        inner.driver_wakeup.notify_all();
                    }
                    inner.park(&mut state);
                }
                ReadStep::Declined(err) => {
                    obladi_obs::global()
                        .counter("proxy.late_read.declined")
                        .inc();
                    return Err(err);
                }
            }
        }
    }

    /// Buffers a write in the epoch's version cache.
    pub fn write(&mut self, key: Key, value: Value) -> Result<()> {
        let mut state = self.db.inner.state.lock();
        state.write(self.id, self.generation, key, value)
    }

    /// Requests commit and blocks until the epoch ends, returning the
    /// commit/abort decision (delayed visibility).
    pub fn commit(mut self) -> Result<TxnOutcome> {
        self.request_commit()?;
        self.await_outcome()
    }

    /// Registers the commit request without waiting for the epoch to end.
    ///
    /// Together with [`ObladiTxn::await_outcome`] this splits [`ObladiTxn::commit`]
    /// in two, which a multi-shard transaction needs: its commit must be
    /// *requested* on every participating shard before the global epoch
    /// barrier, and only then can the caller block for the (coordinated)
    /// outcomes.  After this call the transaction can no longer be rolled
    /// back by the client.
    pub fn request_commit(&mut self) -> Result<()> {
        let mut state = self.db.inner.state.lock();
        state.request_commit(self.id, self.generation)?;
        self.finished = true;
        Ok(())
    }

    /// Blocks until the transaction's outcome is acknowledged and returns
    /// the decision.  Call after [`ObladiTxn::request_commit`].  Aborts and
    /// dependency-free read-only commits surface at their epoch's decision
    /// instant, write commits once the epoch's decision record is durable,
    /// and everything else (durability disabled, decision-log fallback) at
    /// publish time.
    pub fn await_outcome(self) -> Result<TxnOutcome> {
        let inner = &self.db.inner;
        let parked = Instant::now();
        let mut state = inner.state.lock();
        let outcome = loop {
            if let Some(outcome) = state.take_outcome(self.id, self.generation) {
                break outcome;
            }
            inner.park(&mut state);
        };
        drop(state);
        obladi_obs::global()
            .histogram("proxy.phase.commit_wait_us")
            .record_duration(parked.elapsed());
        Ok(outcome)
    }

    /// Aborts the transaction.
    pub fn rollback(mut self) {
        self.abort_internal();
    }

    fn abort_internal(&mut self) {
        if !self.finished {
            self.finished = true;
            let mut state = self.db.inner.state.lock();
            state.rollback(self.id, self.generation);
        }
    }

    /// Consumes the transaction, committing it and mapping aborts to errors.
    pub fn commit_or_err(self) -> Result<()> {
        crate::api::outcome_to_result(self.commit()?)
    }
}

impl KvTransaction for ObladiTxn<'_> {
    fn read(&mut self, key: Key) -> Result<Option<Value>> {
        ObladiTxn::read(self, key)
    }

    fn write(&mut self, key: Key, value: Value) -> Result<()> {
        ObladiTxn::write(self, key, value)
    }

    fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for ObladiTxn<'_> {
    fn drop(&mut self) {
        self.abort_internal();
    }
}

// ----------------------------------------------------------------------
// Thread drivers: executor, read-batch runners, decider
// ----------------------------------------------------------------------

fn epoch_executor(inner: Arc<ProxyInner>) {
    let read_batches = inner.config.epoch.read_batches;
    loop {
        {
            let mut state = inner.state.lock();
            while state.mode() == Mode::Crashed {
                inner.driver_wakeup.wait(&mut state);
            }
            if state.mode() == Mode::Stopping {
                return;
            }
        }
        // Exactly R padded batches, shipped every Δ; the reserved half only
        // once the slot frees or the sealed epoch asks for a fetch.
        for batch_index in 0..read_batches {
            if is_reserved_batch(read_batches, batch_index) {
                let hold = Pipeline::hold_reserved_batch;
                drop(inner.wait_while("proxy.phase.reserved_hold_us", hold));
            }
            if !dispatch_read_batch(&inner) {
                break;
            }
        }
        {
            // Every batch lands before the seal; a failed one finishes its
            // fate-sharing crash first, so the seal below sees it.
            let mut state = inner.state.lock();
            while state.batches_outstanding() && state.mode() != Mode::Stopping {
                inner.batch_wakeup.wait(&mut state);
            }
        }
        // Bounded depth: at most one epoch may be sealed.
        let seal_wait = "proxy.phase.seal_wait_us";
        let sealed = inner.wait_while(seal_wait, Pipeline::slot_occupied).seal();
        if !sealed {
            continue;
        }
        obladi_obs::global().gauge("proxy.pipeline.deciding").set(1);
        inner.decider_wakeup.notify_all();
        // Readers parked on the sealed epoch's batches observe the rollover.
        inner.client_wakeup.notify_all();
        if inner.config.epoch.pipeline_depth <= 1 {
            // Stop-the-world barrier: no batch of the next epoch executes
            // until the decision has fully published.
            drop(inner.wait_while(seal_wait, Pipeline::slot_occupied));
        }
    }
}

/// Waits out the batch interval — unless a backlog makes the batch worth
/// firing early — then hands the batch to the runner pool as soon as the
/// in-flight cap allows.  Returns `false` once the proxy stopped running.
fn dispatch_read_batch(inner: &ProxyInner) -> bool {
    let mut state = inner.state.lock();
    if !state.backlog() {
        inner
            .driver_wakeup
            .wait_for(&mut state, inner.config.epoch.batch_interval);
    }
    while state.mode() == Mode::Running {
        if state.dispatch_batch() {
            inner.batch_wakeup.notify_all();
            return true;
        }
        // Re-sample once a batch finishes or after a short nap: a backlog
        // may have built up while the in-flight batch fetched.
        inner
            .batch_wakeup
            .wait_for(&mut state, Duration::from_millis(1));
    }
    false
}

fn read_batch_runner(inner: Arc<ProxyInner>) {
    let plan_timer = obladi_obs::global().histogram("proxy.phase.read_plan_us");
    loop {
        let plan = {
            let mut state = inner.state.lock();
            loop {
                if state.mode() == Mode::Stopping {
                    return;
                }
                let started = Instant::now();
                if let Some(plan) = state.claim_batch() {
                    plan_timer.record_duration(started.elapsed());
                    break plan;
                }
                inner.batch_wakeup.wait(&mut state);
            }
        };
        if let Err(err) = execute_read_batch(&inner, &plan) {
            // Storage failure mid-epoch: the ORAM client's in-memory
            // metadata may have diverged from what the failed reads
            // delivered, and checkpointing it later would make the
            // divergence durable.  Fate sharing treats it as a crash (§8),
            // which completes before the batch counts as finished.
            self_crash(&inner, plan.life, &err);
        }
        inner.state.lock().batch_done();
        inner.batch_wakeup.notify_all();
    }
}

fn execute_read_batch(inner: &ProxyInner, plan: &BatchPlan) -> Result<()> {
    let obs = obladi_obs::global();
    let batch_size = inner.config.epoch.read_batch_size;
    let gate = inner.gate();
    if let Some(gate) = &gate {
        gate.read_batch_starting(plan.epoch);
    }
    inner.durability.begin_read_batch();
    // Every leg's keys, padded to the fixed size with dummy requests.
    let mut requests: Vec<Option<Key>> = plan
        .legs
        .iter()
        .flat_map(|(_, keys)| keys.iter().copied().map(Some))
        .collect();
    requests.resize(batch_size, None);
    let values = {
        let _span = obladi_obs::trace::global().span("proxy.read_fetch", plan.epoch);
        let reader = inner
            .reader
            .lock()
            .as_ref()
            .ok_or(ObladiError::ProxyUnavailable)?
            .clone();
        // The logger carries the epoch explicitly: the decider's write-back
        // logs the sealed epoch's paths concurrently through its own.
        let logger = inner.durability.logger_for(plan.epoch);
        obs.histogram("proxy.phase.read_fetch_us")
            .time(|| reader.read_batch(&requests, &logger))?
    };
    {
        let mut stats = inner.stats.lock();
        stats.read_batches += 1;
        // Only the executing epoch's own requests count as real.
        let real = plan.legs[0].1.len();
        stats.real_reads += real as u64;
        stats.padded_reads += (batch_size - real) as u64;
    }
    let sealed_served = obs
        .histogram("proxy.phase.read_ingest_us")
        .time(|| inner.state.lock().ingest(plan, values));
    if plan.legs.len() > 1 {
        obs.counter("proxy.late_read.served").add(sealed_served);
    }
    inner.client_wakeup.notify_all();
    if let Some(gate) = &gate {
        gate.read_batch_finished(plan.epoch);
    }
    Ok(())
}

fn epoch_decider(inner: Arc<ProxyInner>) {
    let idle = obladi_obs::global().histogram("proxy.phase.decider_idle_us");
    loop {
        let idle_since = Instant::now();
        let (epoch, generation, life) = {
            let mut state = inner.state.lock();
            loop {
                if state.mode() == Mode::Stopping {
                    return;
                }
                match state.to_decide() {
                    Some(sealed) => break sealed,
                    None => inner.decider_wakeup.wait(&mut state),
                }
            }
        };
        idle.record_duration(idle_since.elapsed());
        // A failure leaves the ORAM client possibly torn, like a failed
        // read batch; the epoch's unacknowledged transactions have already
        // been told they aborted (epoch fate sharing).
        if let Err(err) = decide_epoch(&inner, epoch, generation) {
            self_crash(&inner, life, &err);
        }
    }
}

/// Fate-shares a storage or integrity failure an epoch thread observed in
/// `life` into a crash.  `ProxyUnavailable` is not such a failure: it means
/// a concurrent crash already took the ORAM client away.
fn self_crash(inner: &ProxyInner, life: u64, err: &ObladiError) {
    if !matches!(err, ObladiError::ProxyUnavailable) {
        crash_proxy(inner, Some(life));
    }
}

/// Drops all volatile proxy state (see [`Pipeline::crash`]) and the ORAM
/// client; the proxy refuses work until [`ObladiDb::recover`] runs.
fn crash_proxy(inner: &ProxyInner, observed_life: Option<u64>) {
    let mut state = inner.state.lock();
    let epoch = state.exec_epoch();
    if !state.crash(observed_life) {
        return;
    }
    obladi_obs::global().counter("proxy.crashes").inc();
    obladi_obs::global().gauge("proxy.pipeline.deciding").set(0);
    obladi_obs::trace::global().record("proxy.crash", epoch, 0);
    // The client is wiped under the state lock, like recovery installs it:
    // otherwise a recovery interleaving here could install a fresh client
    // only for this wipe to destroy it.  (This can wait for an in-flight
    // batch or write-back holding the lock; those finish on their own.)
    *inner.reader.lock() = None;
    *inner.engine.lock() = None;
    drop(state);
    inner.client_wakeup.notify_all();
    inner.driver_wakeup.notify_all();
    inner.decider_wakeup.notify_all();
    // An external coordinator must stop waiting for this proxy at the
    // rendezvous, or a self-inflicted crash would stall every peer.
    if let Some(gate) = inner.gate() {
        gate.proxy_crashed();
    }
}

/// Asks the gate which of the sealed epoch's commit candidates may commit.
/// The call may block on the cross-shard barrier, so no proxy lock is held
/// across it; the closures it hands out take the state lock when called.
fn gate_verdict(
    inner: &Arc<ProxyInner>,
    gate: &dyn EpochGate,
    epoch: EpochId,
    generation: u64,
) -> HashSet<TxnId> {
    let obs = obladi_obs::global();
    let source = inner.clone();
    let candidates: CandidateSource = Arc::new(move || source.state.lock().candidates(generation));
    let prep = inner.clone();
    let preparer: TxnPreparer = Arc::new(move |txns: &[TxnId]| {
        let gathered = prep.state.lock().txn_writes(generation, txns)?;
        // Timed apart from the enclosing gate wait: the WAL appends are
        // this proxy's own cost, the rest is time spent waiting on peers.
        let prepare_timer = obladi_obs::global().histogram("proxy.phase.prepare_io_us");
        prepare_timer.time(|| {
            for (txn, writes) in gathered {
                prep.durability.prepare_txn(epoch, txn, &writes)?;
            }
            Ok(())
        })
    });
    let _span = obladi_obs::trace::global().span("proxy.gate_wait", epoch);
    let gate_timer = obs.histogram("proxy.phase.gate_wait_us");
    match gate_timer.time(|| gate.permit_commits(epoch, candidates, preparer)) {
        Ok(permits) => permits.into_iter().collect(),
        Err(err) => {
            // The gate reached no decision (the barrier watchdog fired).
            // That is a liveness hiccup, not a fault: every candidate
            // aborts retryably and the pipeline keeps moving.
            obs.counter("proxy.gate.stalled").inc();
            eprintln!(
                "obladi: epoch gate failed for epoch {epoch} \
                 (generation {generation}), aborting its candidates: {err}"
            );
            HashSet::new()
        }
    }
}

/// Counts commits acknowledged at one rung of the ack ladder.
fn count_acks(rung: &str, commits: u64) {
    if commits > 0 {
        obladi_obs::global().counter(rung).add(commits);
    }
}

/// Takes the sealed epoch from decision to publish; the executor meanwhile
/// runs the next epoch's read batches.  An `Err` is a storage failure the
/// caller fate-shares into a crash.
fn decide_epoch(inner: &Arc<ProxyInner>, epoch: EpochId, generation: u64) -> Result<()> {
    let obs = obladi_obs::global();
    let tracer = obladi_obs::trace::global();
    let gate = inner.gate();
    let permitted = gate
        .as_deref()
        .map(|gate| gate_verdict(inner, gate, epoch, generation));

    // Decision.  Nothing surfaces before this instant — after the epoch
    // closed — so delayed visibility holds whatever rung acknowledges.
    // Without a decision record to lean on everything waits for publish.
    let early_ack = inner.durability.enabled();
    let decide_started = Instant::now();
    let decision = obs.histogram("proxy.phase.decide_us").time(|| {
        let mut state = inner.state.lock();
        state.decide(generation, permitted.as_ref(), early_ack)
    })?;
    count_acks("proxy.commit.acked_at_decision", decision.acked);
    inner.driver_wakeup.notify_all();
    inner.client_wakeup.notify_all();

    // Decision durability: the record lands in the WAL before write-back
    // and checkpoint run, and recovery replays the epoch from it alone.
    let mut acked_commits = decision.acked;
    let mut awaiting_publish = decision.parked;
    if !decision.held.is_empty() {
        let appended = obs.histogram("proxy.phase.decision_log_us").time(|| {
            inner
                .durability
                .decision_durable(epoch, &decision.committed, &decision.writes)
        });
        match appended {
            Ok(()) => {
                let acked = inner.state.lock().ack(generation, &decision.held, true);
                count_acks("proxy.commit.acked_at_durable", acked);
                acked_commits += acked;
                inner.client_wakeup.notify_all();
            }
            Err(err) => {
                // Nothing was acknowledged on the strength of the record:
                // the held commits wait for publish with the rest.
                eprintln!(
                    "obladi: decision log append failed for epoch {epoch}, \
                     falling back to publish-time acks: {err}"
                );
                awaiting_publish += decision.held.len();
            }
        }
    }
    if awaiting_publish == 0 {
        obs.histogram("proxy.phase.commit_visible_us")
            .record_duration(decide_started.elapsed());
    }

    // Write-back: the padded write batch, the bucket flush, then the
    // checkpoint (§8 ordering), all on the engine half of the split client
    // while the read plane serves the next epoch.
    let write_capacity = inner.config.epoch.write_batch_size;
    let io_result = (|| -> Result<()> {
        let _span = tracer.span("proxy.write_back", epoch);
        let mut engine_guard = inner.engine.lock();
        let engine = engine_guard.as_mut().ok_or(ObladiError::ProxyUnavailable)?;
        if let Some(gate) = &gate {
            gate.write_back_starting(epoch);
        }
        let logger = inner.durability.logger_for(epoch);
        obs.histogram("proxy.phase.write_back_us").time(|| {
            engine.write_batch_padded(&decision.writes, write_capacity, &logger)?;
            engine.flush_writes(&logger)
        })?;
        obs.histogram("proxy.phase.checkpoint_us")
            .time(|| inner.durability.commit_epoch(epoch, engine))?;
        if let Some(gate) = &gate {
            gate.write_back_finished(epoch);
        }
        Ok(())
    })();

    // Publish: acknowledge what still waits (as crash aborts if the I/O
    // failed — early acknowledgements stay truthful, their commits replay
    // from the decision record), resolve the carry set, free the slot.
    let publish_started = Instant::now();
    let io_ok = io_result.is_ok();
    let published = inner
        .state
        .lock()
        .publish(generation, io_ok, &decision.writes);
    if published.is_some() {
        obs.gauge("proxy.pipeline.deciding").set(0);
    }
    count_acks("proxy.commit.acked_at_publish", published.unwrap_or(0));
    if awaiting_publish > 0 {
        obs.histogram("proxy.phase.commit_visible_us")
            .record_duration(decide_started.elapsed());
    }

    // When the I/O failed only the early-acknowledged commits stay
    // committed; everything published was downgraded.
    let committed = decision.committed.len() as u64;
    let committed_count = if io_ok { committed } else { acked_commits };
    let aborted_total = decision.aborted + (committed - committed_count);
    {
        let mut stats = inner.stats.lock();
        stats.epochs += 1;
        stats.committed += committed_count;
        stats.aborted += aborted_total;
        stats.real_writes += decision.writes.len() as u64;
    }
    obs.counter("proxy.epochs").inc();
    obs.counter("proxy.txn.committed").add(committed_count);
    obs.counter("proxy.txn.aborted").add(aborted_total);
    inner.client_wakeup.notify_all();
    inner.driver_wakeup.notify_all();
    let mut retired = Ok(None);
    if io_ok {
        if let Some(gate) = &gate {
            // Early-acknowledged and published commits alike retire at the
            // coordinator here.
            gate.epoch_durable(epoch, &decision.committed);
        }
        // Durable and acknowledged: the log in front of a full checkpoint
        // goes, after publish and off the engine lock.
        retired = inner.durability.wal().acked(epoch);
    }
    if let Some(gate) = &gate {
        gate.epoch_finalized(epoch);
    }
    if let Ok(Some(cut)) = &retired {
        obs.counter("proxy.wal.retired_records").add(cut.records);
    }
    let (records, bytes) = inner.durability.wal().retained();
    obs.gauge("proxy.wal.retained_records").set(records as i64);
    obs.gauge("proxy.wal.retained_bytes").set(bytes as i64);
    obs.histogram("proxy.phase.publish_us")
        .record_duration(publish_started.elapsed());
    tracer.record("proxy.epoch_done", epoch, 0);
    io_result.and(retired.map(drop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obladi_common::config::ObladiConfig;

    fn test_db() -> ObladiDb {
        let mut config = ObladiConfig::small_for_tests(512);
        config.epoch.batch_interval = Duration::from_millis(1);
        ObladiDb::open(config).unwrap()
    }

    fn val(v: u64) -> Value {
        v.to_le_bytes().to_vec()
    }

    /// Reads `key` in a transaction of its own.  A read that straddles an
    /// epoch boundary aborts retryably, and so does every read in an epoch
    /// whose batches are spent — `execute_with_retries` waits that one out.
    fn read_committed(db: &ObladiDb, key: Key) -> Option<Value> {
        db.execute_with_retries(20, &mut |txn| txn.read(key))
            .unwrap()
    }

    #[test]
    fn single_transaction_commit_and_read_back() {
        let db = test_db();
        let mut txn = db.begin().unwrap();
        assert_eq!(txn.read(1).unwrap(), None);
        txn.write(1, val(10)).unwrap();
        assert_eq!(txn.read(1).unwrap(), Some(val(10)));
        let outcome = txn.commit().unwrap();
        assert!(outcome.is_committed());

        assert_eq!(read_committed(&db, 1), Some(val(10)));
        db.shutdown();
    }

    #[test]
    fn writes_are_not_visible_until_commit_epoch_ends() {
        let db = test_db();
        // Write in one transaction, read in a later one (after its epoch).
        let mut t1 = db.begin().unwrap();
        t1.write(7, val(70)).unwrap();
        assert!(t1.commit().unwrap().is_committed());
        assert_eq!(read_committed(&db, 7), Some(val(70)));
        db.shutdown();
    }

    #[test]
    fn rolled_back_transaction_leaves_no_trace() {
        let db = test_db();
        let mut t1 = db.begin().unwrap();
        t1.write(3, val(33)).unwrap();
        t1.rollback();
        assert_eq!(read_committed(&db, 3), None);
        db.shutdown();
    }

    #[test]
    fn concurrent_transactions_in_one_epoch_see_uncommitted_writes() {
        // Long batch interval so the whole scenario fits in one epoch.
        let mut config = ObladiConfig::small_for_tests(512);
        config.epoch.batch_interval = Duration::from_millis(100);
        let db = Arc::new(ObladiDb::open(config).unwrap());

        // Transaction A writes, transaction B (started later, larger
        // timestamp) reads the uncommitted value, both commit concurrently.
        // The pair may straddle an epoch boundary (in which case B cannot
        // see A's buffered write); retry on a fresh key until both land in
        // the same epoch — with 300 ms epochs this succeeds immediately in
        // practice.
        let mut succeeded = false;
        for attempt in 0..10u64 {
            let key = 1000 + attempt;
            let mut a = db.begin().unwrap();
            a.write(key, val(1)).unwrap();
            let mut b = db.begin().unwrap();
            // MVTSO makes A's uncommitted write immediately visible to B.
            let seen = b.read(key).unwrap();
            if seen != Some(val(1)) {
                a.rollback();
                b.rollback();
                continue;
            }
            let (ra, rb) = std::thread::scope(|scope| {
                let committer = scope.spawn(move || a.commit().unwrap());
                let rb = b.commit().unwrap();
                (committer.join().unwrap(), rb)
            });
            assert!(ra.is_committed());
            assert!(
                rb.is_committed(),
                "B read A's write and A committed, so B must commit too (got {rb:?})"
            );
            succeeded = true;
            break;
        }
        assert!(succeeded, "could not fit the scenario inside one epoch");
        db.shutdown();
    }

    #[test]
    fn execute_api_commits_and_retries() {
        let db = test_db();
        let result = db
            .execute(&mut |txn| {
                txn.write(9, val(99))?;
                txn.read(9)
            })
            .unwrap();
        assert_eq!(result, Some(val(99)));
        assert_eq!(db.engine_name(), "obladi");
        db.shutdown();
    }

    #[test]
    fn execute_reports_an_aborted_commit_as_a_retryable_error() {
        let db = test_db();
        // One more blind write than the epoch's write batch holds: every
        // write is accepted, the commit is denied at the epoch boundary.
        let writes = db.config().epoch.write_batch_size as u64 + 1;
        let err = db
            .execute(&mut |txn| (0..writes).try_for_each(|key| txn.write(key, val(key))))
            .expect_err("the commit aborted, so `execute` must not report success");
        assert!(err.is_retryable(), "{err}");
        assert_eq!(read_committed(&db, 0), None);
        db.shutdown();
    }

    #[test]
    fn many_threads_commit_disjoint_keys() {
        let db = Arc::new(test_db());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..5u64 {
                    let key = t * 100 + i;
                    // A commit requested after the epoch's decision aborts
                    // retryably.
                    db.execute_with_retries(100, &mut |txn| txn.write(key, val(key)))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Verify all writes landed.
        for t in 0..4u64 {
            for i in 0..5u64 {
                let key = t * 100 + i;
                assert_eq!(read_committed(&db, key), Some(val(key)), "key {key}");
            }
        }
        let stats = db.stats();
        assert!(stats.committed >= 20);
        db.shutdown();
    }

    #[test]
    fn write_conflict_aborts_via_mvtso() {
        let db = test_db();
        // t2 (later ts) reads key 5; t1 (earlier ts) then tries to write it.
        let mut t1 = db.begin().unwrap();
        let mut t2 = db.begin().unwrap();
        assert_eq!(t2.read(5).unwrap(), None);
        let err = t1.write(5, val(1)).unwrap_err();
        assert!(matches!(err, ObladiError::TxnAborted(_)));
        assert!(t2.commit().unwrap().is_committed());
        db.shutdown();
    }

    #[test]
    fn crash_aborts_inflight_and_recovery_preserves_committed() {
        let db = test_db();
        // Commit an epoch's worth of data.
        for k in 0..8u64 {
            let mut txn = db.begin().unwrap();
            txn.write(k, val(k + 1)).unwrap();
            assert!(txn.commit().unwrap().is_committed());
        }
        // Crash with a transaction in flight.
        let mut doomed = db.begin().unwrap();
        doomed.write(100, val(1)).unwrap();
        db.crash();
        assert!(db.is_crashed());
        // The in-flight transaction aborts (reason is Crash unless its epoch
        // happened to end just before the crash).
        assert!(!doomed.commit().unwrap().is_committed());
        assert!(
            db.begin().is_err(),
            "crashed proxy rejects new transactions"
        );

        let report = db.recover().unwrap();
        assert!(report.recovered_epoch >= 1);
        // A reader parked across an epoch boundary aborts retryably, so the
        // read-backs go through the retrying helper.
        for k in 0..8u64 {
            assert_eq!(read_committed(&db, k), Some(val(k + 1)), "key {k}");
        }
        // The uncommitted write must be gone.
        assert_eq!(read_committed(&db, 100), None);
        db.shutdown();
    }

    /// A gate that, once armed, holds every `permit_commits` call — and
    /// with it the sealed epoch's decision — until released.
    #[derive(Default)]
    struct HoldingGate {
        /// `(armed, calls currently held)`.
        state: Mutex<(bool, usize)>,
        changed: Condvar,
    }

    impl EpochGate for HoldingGate {
        fn permit_commits(
            &self,
            _epoch: EpochId,
            candidates: CandidateSource,
            _preparer: TxnPreparer,
        ) -> Result<Vec<TxnId>> {
            let mut state = self.state.lock();
            state.1 += 1;
            self.changed.notify_all();
            while state.0 {
                self.changed.wait(&mut state);
            }
            state.1 -= 1;
            drop(state);
            Ok(candidates().into_iter().map(|c| c.txn).collect())
        }
    }

    #[test]
    fn reader_parked_on_a_sealed_epoch_is_released_by_shutdown() {
        let db = test_db();
        let gate = Arc::new(HoldingGate::default());
        db.set_epoch_gate(gate.clone());
        // Hold the next sealed epoch undecided and join it.
        let mut held = gate.state.lock();
        held.0 = true;
        while held.1 == 0 {
            gate.changed.wait(&mut held);
        }
        drop(held);
        let (_, sealed) = db.stamp_targets();
        let mut txn = db
            .begin_at_generation(1_000_000, sealed.expect("an epoch is held sealed"))
            .unwrap();

        std::thread::scope(|scope| {
            let (progress, events) = std::sync::mpsc::channel();
            scope.spawn(move || {
                // Each fetch rides one of the next epoch's batches; once they
                // are spent (the slot stays occupied) the read parks for good.
                for key in 0.. {
                    let result = txn.read(key);
                    let failed = result.is_err();
                    progress.send(result).unwrap();
                    if failed {
                        return;
                    }
                }
            });
            // Wait until the reader makes no more progress.
            while let Ok(Ok(_)) = events.recv_timeout(Duration::from_millis(300)) {}
            // `shutdown` joins the decider, which the gate still holds.
            let stopper = scope.spawn(|| db.shutdown());
            let released = loop {
                match events.recv_timeout(Duration::from_secs(5)) {
                    Ok(Ok(_)) => continue,
                    Ok(Err(err)) => break Some(err),
                    Err(_) => break None,
                }
            };
            gate.state.lock().0 = false;
            gate.changed.notify_all();
            stopper.join().unwrap();
            assert_eq!(
                released,
                Some(ObladiError::ProxyUnavailable),
                "the parked reader outlived shutdown"
            );
        });
    }

    /// Samples the store's log length when an epoch's durability is
    /// acknowledged and again when the epoch is finalised.
    struct LogWatcher {
        store: Arc<obladi_storage::InMemoryStore>,
        at_durable: Mutex<usize>,
        /// `(epoch, records at the acknowledgement, records at the end)`.
        seen: Mutex<Vec<(EpochId, usize, usize)>>,
    }

    impl EpochGate for LogWatcher {
        fn permit_commits(
            &self,
            _epoch: EpochId,
            candidates: CandidateSource,
            _preparer: TxnPreparer,
        ) -> Result<Vec<TxnId>> {
            Ok(candidates().into_iter().map(|c| c.txn).collect())
        }

        fn epoch_durable(&self, _epoch: EpochId, _committed: &[TxnId]) {
            *self.at_durable.lock() = self.store.log_len();
        }

        fn epoch_finalized(&self, epoch: EpochId) {
            let seen = (epoch, *self.at_durable.lock(), self.store.log_len());
            self.seen.lock().push(seen);
        }
    }

    #[test]
    fn the_log_is_cut_once_per_checkpoint_cycle_after_the_acknowledgement() {
        let mut config = ObladiConfig::small_for_tests(512);
        config.epoch.batch_interval = Duration::from_millis(1);
        let every = config.epoch.checkpoint_every as u64;
        let store = Arc::new(obladi_storage::InMemoryStore::new());
        let keys = KeyMaterial::for_tests(5);
        let db = ObladiDb::open_with(config, store.clone(), TrustedCounter::new(), keys).unwrap();
        let watcher = Arc::new(LogWatcher {
            store,
            at_durable: Mutex::new(0),
            seen: Mutex::new(Vec::new()),
        });
        db.set_epoch_gate(watcher.clone());
        // Idle epochs tick on their own; a few writes give them decisions
        // and write sets to log.
        for key in 0..40u64 {
            db.execute_with_retries(20, &mut |txn| txn.write(key, val(key)))
                .unwrap();
        }
        while watcher.seen.lock().last().is_none_or(|seen| seen.0 < 40) {
            assert!(db.wait_epoch_rollover(Duration::from_secs(10)));
        }
        db.shutdown();
        let seen = watcher.seen.lock().clone();
        for &(epoch, at_ack, at_end) in &seen {
            // Whatever the executor appends between the two samples is a
            // handful of path logs; a cut drops a whole cycle (except the
            // first, behind Full(1), which has one epoch to drop).
            let cut = at_end < at_ack;
            let full = epoch % every == 0;
            assert!(
                cut == full || epoch == 1,
                "epoch {epoch}: {at_ack} -> {at_end}"
            );
        }
        // However long the run, the log holds at most `2 * every + 2`
        // epochs of records, an epoch's worth being the most the log grew
        // from one acknowledgement to the next.
        let growth = seen
            .windows(2)
            .map(|pair| pair[1].1.saturating_sub(pair[0].1));
        let bound = (2 * every as usize + 2) * growth.max().unwrap();
        let peak = seen.iter().map(|seen| seen.1).max().unwrap();
        assert!(peak <= bound, "{peak} records retained, bound {bound}");
        let obs = obladi_obs::global().snapshot();
        assert!(obs.counter("proxy.wal.retired_records") > 0);
        assert!(obs.gauge("proxy.wal.retained_records") > 0);
        assert!(obs.gauge("proxy.wal.retained_bytes") > 0);
    }

    #[test]
    fn epoch_padding_keeps_batches_fixed_size() {
        let db = test_db();
        // Commit a couple of transactions, then check that padded reads were
        // issued (batches are always full-size).
        for k in 0..3u64 {
            db.execute_with_retries(20, &mut |txn| {
                txn.read(k)?;
                txn.write(k, val(k))
            })
            .unwrap();
        }
        let stats = db.stats();
        assert!(stats.read_batches > 0);
        assert!(
            stats.padded_reads > 0,
            "read batches must be padded to their fixed size"
        );
        db.shutdown();
    }
}
