//! The epoch lifecycle as a pure state machine (§5–§6; phase diagram and
//! per-phase rules in DESIGN.md).
//!
//! [`Pipeline`] is everything behind the proxy's single state lock.  Every
//! method is a plain transition: no I/O, no lock, no condvar, no clock, no
//! thread.  The drivers in `proxy.rs` call a transition, perform the I/O it
//! describes, feed the completion back and wake whoever waits — so every
//! lifecycle rule can be stepped single-threaded (see the tests below).
//!
//! Transactions and in-flight batches name their epoch by *generation*, a
//! counter that — unlike the epoch id, which recovery re-uses — never
//! repeats across seal, crash and recovery; [`Pipeline::route`] is the one
//! place a generation is resolved to an epoch.

use crate::concurrency::{CommitCandidate, MvtsoManager, ReadOutcome, TxnStatus};
use obladi_common::config::EpochConfig;
use obladi_common::error::{ObladiError, Result};
use obladi_common::types::{AbortReason, EpochId, Key, TxnId, TxnOutcome, Value};
use std::collections::{HashMap, HashSet};

/// Buffered or committed writes, in key order.
pub(crate) type WriteSet = Vec<(Key, Value)>;

/// Where an epoch is in its life, in lifecycle order: everything before
/// `Decided` is still open.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    /// Read batches run; transactions begin, read and write freely.
    #[default]
    Executing,
    /// The read phase is over and the commit decision is still open:
    /// transactions may still join, request commit, write keys the next
    /// epoch has not fetched, and fetch through the next epoch's batches.
    Sealed,
    /// The decision has been applied: every transaction is settled and
    /// nothing can join; the write batch and flush are in flight.
    Decided,
    /// The write batch and flush landed: the ORAM holds the decided state,
    /// so the carry set is resolved and the reserved batches run; the
    /// checkpoint is in flight and the slot stays occupied until publish.
    WrittenBack,
}

/// Deduplicated keys an epoch wants fetched from the ORAM.
#[derive(Default)]
struct FetchQueue {
    /// Keys waiting for a batch slot, in arrival order.
    pending: Vec<Key>,
    /// Every key in `pending` or in a planned batch that has not ingested.
    held: HashSet<Key>,
    /// Keys admitted since the queue started (a sealed epoch's budget).
    admitted: usize,
}

impl FetchQueue {
    fn holds(&self, key: Key) -> bool {
        self.held.contains(&key)
    }

    /// Moves up to `max` pending keys into a batch, leaving `deferred` ones
    /// (and the overflow) queued in order.  Taken keys stay held until
    /// their batch ingests.
    fn take(&mut self, max: usize, deferred: impl Fn(Key) -> bool) -> Vec<Key> {
        let mut taken = Vec::new();
        self.pending.retain(|&key| {
            let take = taken.len() < max && !deferred(key);
            if take {
                taken.push(key);
            }
            !take
        });
        taken
    }
}

/// One epoch: a version cache, the transactions whose clients still wait
/// for an answer, and a fetch queue — in whichever phase it is.
#[derive(Default)]
struct Epoch {
    id: EpochId,
    generation: u64,
    phase: Phase,
    mvtso: MvtsoManager,
    /// Transactions whose outcome someone will still collect.  A
    /// transaction leaves when its client saw an error or its outcome was
    /// acknowledged — so a crash, which aborts exactly this set, can never
    /// overwrite a truthful answer.
    active: HashSet<TxnId>,
    fetch: FetchQueue,
    batches_issued: u32,
}

impl Epoch {
    fn new(id: EpochId, generation: u64) -> Self {
        Epoch {
            id,
            generation,
            ..Epoch::default()
        }
    }

    /// Whether one more key may join the fetch queue.
    fn admits_fetch(&self, config: &EpochConfig) -> bool {
        match self.phase {
            // Whatever still fits the batches this epoch has left.
            Phase::Executing => {
                let remaining = config.read_batches.saturating_sub(self.batches_issued) as usize;
                self.fetch.pending.len() < remaining * config.read_batch_size
            }
            // Rides the next epoch's spare slots: at most one epoch's worth,
            // and only at depth 2 (at depth 1 no batch runs while an epoch
            // decides).  The ORAM still holds the state this epoch read
            // against, and a real request in a would-be dummy slot leaves
            // the physical trace unchanged.
            Phase::Sealed => {
                config.pipeline_depth >= 2 && self.fetch.admitted < config.reads_per_epoch()
            }
            Phase::Decided | Phase::WrittenBack => false,
        }
    }

    /// The settled outcome of `txn` (meaningful once decided).
    fn outcome(&self, txn: TxnId) -> TxnOutcome {
        match self.mvtso.status(txn) {
            Some(TxnStatus::Committed) => TxnOutcome::Committed,
            Some(TxnStatus::Aborted(reason)) => TxnOutcome::Aborted(reason),
            _ => TxnOutcome::Aborted(AbortReason::EpochEnd),
        }
    }
}

/// What a read needs next.
#[derive(Debug, PartialEq)]
pub(crate) enum ReadStep {
    /// The value visible to the transaction.
    Value(Option<Value>),
    /// Queued for a fetch, or pinned behind the sealed epoch: wait for a
    /// wakeup and ask again.
    Park,
    /// A sealed epoch's fetch found no room and the transaction aborted —
    /// an error like any other, but counted (`proxy.late_read.declined`).
    Declined(ObladiError),
}

/// One padded read batch: per leg, the generation of the epoch that asked
/// and its keys.  The first leg is always the executing epoch's.
pub(crate) struct BatchPlan {
    /// The executing epoch's id (path-log tag, gate callbacks).
    pub(crate) epoch: EpochId,
    /// The life the batch was planned in; a failure of its I/O belongs to
    /// this life (see [`Pipeline::crash`]).
    pub(crate) life: u64,
    pub(crate) legs: Vec<(u64, Vec<Key>)>,
}

/// The result of applying a commit decision to the sealed epoch.
pub(crate) struct Decision {
    /// The epoch's write batch: the last committed value of every key.
    pub(crate) writes: WriteSet,
    /// Committed transactions, in timestamp order.
    pub(crate) committed: Vec<TxnId>,
    /// Commits to acknowledge ([`Pipeline::ack`]) once the decision record
    /// is durable.
    pub(crate) held: Vec<TxnId>,
    /// Aborted transactions whose clients still wait.
    pub(crate) aborted: u64,
    /// Commits acknowledged right now.
    pub(crate) acked: u64,
    /// Outcomes left for [`Pipeline::publish`], not counting `held`.
    pub(crate) parked: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    Running,
    /// Volatile state is gone; nothing is served until recovery.
    Crashed,
    /// Shutdown began; terminal.
    Stopping,
}

/// The proxy's epoch pipeline: the executing epoch, at most one sealed
/// epoch whose decision and write-back are in flight, and the outcomes
/// clients have yet to collect.
pub(crate) struct Pipeline {
    config: EpochConfig,
    exec: Epoch,
    sealed: Option<Epoch>,
    /// Keys the sealed epoch wrote (committed or not).  The ORAM still
    /// holds their pre-decision values, and serving either value early
    /// would leak an undecided epoch's fate, so the executing epoch's reads
    /// of them park until [`Pipeline::written_back`].
    carry: HashSet<Key>,
    outcomes: HashMap<TxnId, TxnOutcome>,
    /// Counts completed recoveries.  The epoch threads run concurrently, so
    /// a decider's slow failing write-back can outlive a whole crash and
    /// recovery; a failure carries the life it was observed in.
    life: u64,
    mode: Mode,
}

fn epoch_ended() -> ObladiError {
    ObladiError::TxnAborted(AbortReason::EpochEnd.to_string())
}

impl Pipeline {
    pub(crate) fn new(config: EpochConfig, first_epoch: EpochId) -> Self {
        Pipeline {
            config,
            exec: Epoch::new(first_epoch, 0),
            sealed: None,
            carry: HashSet::new(),
            outcomes: HashMap::new(),
            life: 0,
            mode: Mode::Running,
        }
    }

    fn route(&mut self, generation: u64) -> Option<&mut Epoch> {
        if self.exec.generation == generation {
            Some(&mut self.exec)
        } else {
            self.sealed_mut(generation)
        }
    }

    fn sealed_mut(&mut self, generation: u64) -> Option<&mut Epoch> {
        self.sealed
            .as_mut()
            .filter(|epoch| epoch.generation == generation)
    }

    // ---- Observers ----

    pub(crate) fn mode(&self) -> Mode {
        self.mode
    }

    pub(crate) fn exec_epoch(&self) -> EpochId {
        self.exec.id
    }

    /// The generations a new transaction can join: the executing epoch's
    /// and, while its decision is open, the sealed epoch's.
    pub(crate) fn stamp_targets(&self) -> (u64, Option<u64>) {
        let sealed = self
            .sealed
            .as_ref()
            .filter(|epoch| epoch.phase == Phase::Sealed)
            .map(|epoch| epoch.generation);
        (self.exec.generation, sealed)
    }

    // ---- Client transitions ----

    /// Opens `txn` in the epoch of `generation` (default: the executing
    /// one) and returns the generation it joined.
    pub(crate) fn begin(&mut self, txn: TxnId, generation: Option<u64>) -> Result<u64> {
        if self.mode != Mode::Running {
            return Err(ObladiError::ProxyUnavailable);
        }
        let generation = generation.unwrap_or(self.exec.generation);
        let epoch = self
            .route(generation)
            .filter(|epoch| epoch.phase < Phase::Decided)
            .ok_or_else(epoch_ended)?;
        epoch.mvtso.begin(txn);
        epoch.active.insert(txn);
        Ok(generation)
    }

    /// Reads `key` for `txn`.  Here as in [`Pipeline::write`] and
    /// [`Pipeline::request_commit`] an error means the transaction is over;
    /// its client reports it and then calls [`Pipeline::rollback`].
    pub(crate) fn read(&mut self, txn: TxnId, generation: u64, key: Key) -> Result<ReadStep> {
        if self.mode == Mode::Crashed {
            return Err(ObladiError::ProxyUnavailable);
        }
        // Fetching a carry key now would surface the pre-decision value
        // even if the write commits.  A key the sealed epoch also fetches
        // needs no pin: one batch is in flight at a time, and a plan defers
        // the sealed epoch's copy of a key the executing epoch holds.
        let pinned = self.carry.contains(&key);
        let (config, mode) = (self.config, self.mode);
        let epoch = self.route(generation).ok_or_else(epoch_ended)?;
        // Once decided every transaction is settled, so this also keeps a
        // decided epoch's not-yet-durable values from being served.
        if let ReadOutcome::Value { value, .. } = epoch.mvtso.read(txn, key)? {
            return Ok(ReadStep::Value(value));
        }
        if mode == Mode::Stopping {
            return Err(ObladiError::ProxyUnavailable);
        }
        if epoch.phase == Phase::Executing && pinned {
            return Ok(ReadStep::Park);
        }
        if !epoch.fetch.holds(key) {
            if !epoch.admits_fetch(&config) {
                epoch.mvtso.abort(txn, AbortReason::BatchFull);
                let err = ObladiError::BatchFull(format!(
                    "read of key {key} does not fit in the epoch's remaining read slots"
                ));
                return match epoch.phase {
                    Phase::Executing => Err(err),
                    _ => Ok(ReadStep::Declined(err)),
                };
            }
            epoch.fetch.pending.push(key);
            epoch.fetch.held.insert(key);
            epoch.fetch.admitted += 1;
        }
        Ok(ReadStep::Park)
    }

    pub(crate) fn write(
        &mut self,
        txn: TxnId,
        generation: u64,
        key: Key,
        value: Value,
    ) -> Result<()> {
        if self.mode == Mode::Crashed {
            return Err(ObladiError::ProxyUnavailable);
        }
        let fetched_by_next = self.exec.mvtso.has_base(key) || self.exec.fetch.holds(key);
        let epoch = self.route(generation).ok_or_else(epoch_ended)?;
        if epoch.phase == Phase::Executing {
            return epoch.mvtso.write(txn, key, value);
        }
        // A sealed epoch's write is still in time for the decision, unless
        // the next epoch already fetched (or is fetching) the key: that
        // registered the pre-decision value as its base, which a commit of
        // this write would invalidate.
        if fetched_by_next {
            epoch.mvtso.abort(txn, AbortReason::EpochEnd);
            return Err(ObladiError::TxnAborted(format!(
                "write to key {key} raced the next epoch's read of it"
            )));
        }
        epoch.mvtso.write(txn, key, value)?;
        self.carry.insert(key);
        Ok(())
    }

    pub(crate) fn request_commit(&mut self, txn: TxnId, generation: u64) -> Result<()> {
        let Some(epoch) = self.route(generation) else {
            return Ok(());
        };
        let requested = epoch.mvtso.request_commit(txn);
        match epoch.phase {
            Phase::Executing => requested,
            // A sealed epoch's request counts until the decision (the
            // coordinator samples candidates at decision time); a failure
            // means the decision closed over the transaction, whose abort
            // is acknowledged like any other.
            _ => Ok(()),
        }
    }

    /// Aborts `txn` (if it is not over already) on behalf of a client that
    /// will not collect an outcome.
    pub(crate) fn rollback(&mut self, txn: TxnId, generation: u64) {
        if let Some(epoch) = self.route(generation) {
            epoch.mvtso.abort(txn, AbortReason::UserRequested);
            epoch.active.remove(&txn);
        }
        self.outcomes.remove(&txn);
    }

    /// The acknowledged outcome of `txn`, or `None` to keep waiting.
    pub(crate) fn take_outcome(&mut self, txn: TxnId, generation: u64) -> Option<TxnOutcome> {
        if let Some(outcome) = self.outcomes.remove(&txn) {
            return Some(outcome);
        }
        // An epoch's outcomes publish before its slot frees and the next
        // seal needs the free slot, so a two-generation gap means the
        // outcome was lost (a crash wiped the epoch).
        let lost = self.mode == Mode::Stopping || self.exec.generation > generation + 1;
        lost.then_some(TxnOutcome::Aborted(AbortReason::EpochEnd))
    }

    // ---- Executor transitions ----

    /// Whether a reserved batch (see [`is_reserved_batch`]) must wait: the
    /// sealed epoch is not yet written back.  The hold ends at
    /// [`Pipeline::written_back`] and at nothing else — not at publish
    /// (nothing a batch reads depends on the checkpoint), and not on
    /// demand: a queued fetch releases no batch.
    pub(crate) fn hold_reserved_batch(&self) -> bool {
        let writing_back = self
            .sealed
            .as_ref()
            .is_some_and(|s| s.phase < Phase::WrittenBack);
        self.mode == Mode::Running && writing_back
    }

    /// Whether the executor must wait for the sealed epoch to publish.
    pub(crate) fn slot_occupied(&self) -> bool {
        self.mode == Mode::Running && self.sealed.is_some()
    }

    /// Plans the next read batch: the executing epoch's queue first, then
    /// the sealed epoch's in what would otherwise be padding.  The executor
    /// runs each batch to its [`Pipeline::ingest`] before planning the
    /// next, so one batch is in flight at a time and none straddles the
    /// seal; and a chain of dependent reads (read → ingest → next read)
    /// catches one batch per link.
    pub(crate) fn plan_batch(&mut self) -> BatchPlan {
        let batch_size = self.config.read_batch_size;
        let exec = &mut self.exec;
        let keys = exec.fetch.take(batch_size, |_| false);
        exec.batches_issued += 1;
        let spare = batch_size - keys.len();
        let mut legs = vec![(exec.generation, keys)];
        if let Some(sealed) = self.sealed.as_mut().filter(|s| s.phase == Phase::Sealed) {
            // A key is in one leg of a batch (the split ORAM client needs
            // disjoint read sets): one the executing epoch holds is
            // deferred, not dropped, and a later batch serves it.
            let keys = sealed.fetch.take(spare, |key| exec.fetch.holds(key));
            if !keys.is_empty() {
                legs.push((sealed.generation, keys));
            }
        }
        BatchPlan {
            epoch: exec.id,
            life: self.life,
            legs,
        }
    }

    /// Registers a batch's fetched values as base versions of the epochs
    /// that asked.  A leg whose generation is gone (crash, recovery — the
    /// reader a batch runs on deliberately outlives both) is dropped.
    /// Returns how many values went to a sealed epoch.
    pub(crate) fn ingest(&mut self, plan: &BatchPlan, values: Vec<Option<Value>>) -> u64 {
        let mut values = values.into_iter();
        let mut sealed_served = 0;
        for (generation, keys) in &plan.legs {
            let Some(epoch) = self.route(*generation) else {
                values.by_ref().take(keys.len()).for_each(drop);
                continue;
            };
            for (key, value) in keys.iter().zip(values.by_ref()) {
                epoch.fetch.held.remove(key);
                // A decision that closed meanwhile settled every reader.
                if epoch.phase < Phase::Decided {
                    epoch.mvtso.register_base(*key, value);
                    sealed_served += u64::from(epoch.phase == Phase::Sealed);
                }
            }
        }
        sealed_served
    }

    /// Seals the executing epoch into the free slot and starts the next.
    pub(crate) fn seal(&mut self) -> bool {
        if self.mode != Mode::Running || self.sealed.is_some() {
            return false;
        }
        let next = Epoch::new(self.exec.id + 1, self.exec.generation + 1);
        let mut sealed = std::mem::replace(&mut self.exec, next);
        sealed.phase = Phase::Sealed;
        sealed.fetch = FetchQueue::default();
        self.carry = sealed.mvtso.written_keys();
        self.sealed = Some(sealed);
        true
    }

    // ---- Decider transitions ----

    /// The sealed epoch the decider works on: `(id, generation, life)`.
    pub(crate) fn to_decide(&self) -> Option<(EpochId, u64, u64)> {
        let sealed = self.sealed.as_ref()?;
        Some((sealed.id, sealed.generation, self.life))
    }

    /// The sealed epoch's current commit candidates (capacity-enforced),
    /// re-sampled whenever the coordinator asks; empty once it is gone.
    pub(crate) fn candidates(&mut self, generation: u64) -> Vec<CommitCandidate> {
        let capacity = self.config.write_batch_size;
        self.sealed_mut(generation).map_or_else(Vec::new, |epoch| {
            enforce_write_capacity(&mut epoch.mvtso, capacity);
            epoch.mvtso.commit_candidates()
        })
    }

    /// The buffered write sets of `txns` (the payload of 2PC prepares).
    pub(crate) fn txn_writes(
        &mut self,
        generation: u64,
        txns: &[TxnId],
    ) -> Result<Vec<(TxnId, WriteSet)>> {
        let epoch = self
            .sealed_mut(generation)
            .ok_or(ObladiError::ProxyUnavailable)?;
        Ok(txns
            .iter()
            .map(|&txn| (txn, epoch.mvtso.txn_writes(txn)))
            .collect())
    }

    /// Applies the commit decision to the sealed epoch.  `permitted` is an
    /// external coordinator's verdict: every other commit request —
    /// including ones that raced in after it — aborts retryably.
    ///
    /// With `early_ack` every outcome is acknowledged at the earliest point
    /// at which no crash can contradict it: aborts (what recovery would
    /// presume anyway) and read-only commits without same-epoch
    /// dependencies (they observed only already-durable base versions)
    /// right here; every other commit once the decision record, from which
    /// recovery replays the epoch, is durable (`held`).  Without a record to
    /// lean on — durability disabled, or the append fails — outcomes wait
    /// for [`Pipeline::publish`].
    pub(crate) fn decide(
        &mut self,
        generation: u64,
        permitted: Option<&HashSet<TxnId>>,
        early_ack: bool,
    ) -> Result<Decision> {
        let capacity = self.config.write_batch_size;
        let epoch = self
            .sealed_mut(generation)
            .ok_or(ObladiError::ProxyUnavailable)?;
        if let Some(permitted) = permitted {
            for txn in epoch.mvtso.commit_requested_txns() {
                if !permitted.contains(&txn) {
                    epoch.mvtso.abort(txn, AbortReason::EpochEnd);
                }
            }
        }
        enforce_write_capacity(&mut epoch.mvtso, capacity);
        // Sampled while still commit-requested: `finalize` settles them.
        let read_only_without_deps: HashSet<TxnId> = epoch
            .mvtso
            .commit_candidates()
            .into_iter()
            .filter(|c| c.deps.is_empty() && epoch.mvtso.write_set(c.txn).is_empty())
            .map(|c| c.txn)
            .collect();
        let (mut committed, _) = epoch.mvtso.finalize();
        epoch.phase = Phase::Decided;
        // An error-aborted transaction can never reach `Committed`, so
        // every commit is still active; the filter only states it.
        committed.retain(|txn| epoch.active.contains(txn));

        let (mut now, mut held, mut parked, mut aborted) = (Vec::new(), Vec::new(), 0, 0);
        for &txn in &epoch.active {
            let is_commit = epoch.outcome(txn).is_committed();
            aborted += u64::from(!is_commit);
            if !early_ack {
                parked += 1;
            } else if !is_commit || read_only_without_deps.contains(&txn) {
                now.push(txn);
            } else {
                held.push(txn);
            }
        }
        held.sort_unstable();
        let writes = epoch.mvtso.committed_tail_writes();
        let acked = self.ack(generation, &now, true);
        Ok(Decision {
            writes,
            committed,
            held,
            aborted,
            acked,
            parked,
        })
    }

    /// Acknowledges `txns` of the sealed epoch: each one still active
    /// leaves the active set and its outcome becomes collectable
    /// (downgraded to a crash abort when the epoch's I/O failed).  Returns
    /// the number of commits acknowledged — none if a crash wiped the epoch
    /// meanwhile: its clients got an ambiguous crash abort, and recovery
    /// still replays a durable decision record.
    pub(crate) fn ack(&mut self, generation: u64, txns: &[TxnId], io_ok: bool) -> u64 {
        let Some(epoch) = self.sealed.as_mut().filter(|s| s.generation == generation) else {
            return 0;
        };
        let mut commits = 0;
        for txn in txns {
            if !epoch.active.remove(txn) {
                continue;
            }
            let outcome = if io_ok {
                epoch.outcome(*txn)
            } else {
                TxnOutcome::Aborted(AbortReason::Crash)
            };
            commits += u64::from(outcome.is_committed());
            self.outcomes.insert(*txn, outcome);
        }
        commits
    }

    /// The decided epoch's write batch and flush landed: the ORAM now holds
    /// its committed state, so the carry set resolves — committed `writes`
    /// become the executing epoch's base versions, the rest is released for
    /// fetching — and the reserved batches may run.  The slot stays
    /// occupied until [`Pipeline::publish`], so the next epoch cannot seal
    /// (let alone be acknowledged) before this one is durable: if the
    /// checkpoint fails, the crash it fate-shares into aborts every reader
    /// of these values.  A failed write-back never gets here, and its carry
    /// set stays pinned until the crash, so nobody fetches from the torn
    /// ORAM.  Returns whether the epoch was still decided and waiting for
    /// this rung.
    pub(crate) fn written_back(&mut self, generation: u64, writes: &[(Key, Value)]) -> bool {
        let decided = |s: &&mut Epoch| s.phase == Phase::Decided;
        let Some(sealed) = self.sealed_mut(generation).filter(decided) else {
            return false;
        };
        sealed.phase = Phase::WrittenBack;
        for (key, value) in writes {
            self.exec.mvtso.register_base(*key, Some(value.clone()));
        }
        self.carry.clear();
        true
    }

    /// The epoch's checkpoint finished (`io_ok`), or its write-back or
    /// checkpoint failed: acknowledges everything still waiting (as crash
    /// aborts on failure) and frees the slot.  Returns the commits
    /// acknowledged, `None` if the epoch is gone.
    pub(crate) fn publish(&mut self, generation: u64, io_ok: bool) -> Option<u64> {
        let waiting: Vec<TxnId> = self
            .sealed_mut(generation)?
            .active
            .iter()
            .copied()
            .collect();
        let commits = self.ack(generation, &waiting, io_ok);
        self.sealed = None;
        Some(commits)
    }

    // ---- Crash, recovery, shutdown ----

    /// Drops all volatile state: every transaction still waiting aborts
    /// with [`AbortReason::Crash`], acknowledged outcomes stay collectable.
    /// `observed_life` is the life a storage failure was observed in; a
    /// failure from a life that has since been recovered is stale and must
    /// not wipe the fresh state.  Returns whether the crash applied.
    pub(crate) fn crash(&mut self, observed_life: Option<u64>) -> bool {
        if observed_life.is_some_and(|life| life != self.life) {
            return false;
        }
        if self.mode == Mode::Running {
            self.mode = Mode::Crashed;
        }
        let next = Epoch::new(self.exec.id, self.exec.generation + 1);
        let wiped = std::mem::replace(&mut self.exec, next);
        for epoch in [Some(wiped), self.sealed.take()].into_iter().flatten() {
            for txn in epoch.active {
                self.outcomes
                    .insert(txn, TxnOutcome::Aborted(AbortReason::Crash));
            }
        }
        self.carry.clear();
        true
    }

    /// Recovery rebuilt the durable state after a crash: resume at
    /// `next_epoch` in a new life.
    pub(crate) fn recovered(&mut self, next_epoch: EpochId) {
        self.exec = Epoch::new(next_epoch, self.exec.generation + 1);
        self.life += 1;
        if self.mode == Mode::Crashed {
            self.mode = Mode::Running;
        }
    }

    pub(crate) fn stop(&mut self) {
        self.mode = Mode::Stopping;
    }
}

/// Whether batch `index` of an epoch's `read_batches` is in the reserved
/// (second) half, which the executor holds back until the sealed epoch is
/// written back ([`Pipeline::hold_reserved_batch`]).  If all batches burned
/// out early, reads arriving later in the epoch — dependent chains need one
/// batch per link — would abort `BatchFull`.  The split and the hold depend
/// only on pipeline state, never on demand, so batch timing stays
/// workload-independent.
pub(crate) fn is_reserved_batch(read_batches: u32, index: u32) -> bool {
    index + read_batches.div_ceil(2) >= read_batches
}

/// Enforces the write-batch capacity: commit-requested transactions are
/// admitted in timestamp order until their combined (deduplicated) write set
/// no longer fits; the rest abort with [`AbortReason::BatchFull`].
fn enforce_write_capacity(mvtso: &mut MvtsoManager, write_capacity: usize) {
    let mut planned: HashSet<Key> = HashSet::new();
    for txn in mvtso.commit_requested_txns() {
        let write_set = mvtso.write_set(txn);
        let new_keys = write_set.iter().filter(|k| !planned.contains(*k)).count();
        if planned.len() + new_keys > write_capacity {
            mvtso.abort(txn, AbortReason::BatchFull);
        } else {
            planned.extend(write_set);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ReadStep::{Declined, Park};
    use super::*;
    use obladi_common::types::TxnOutcome::{Aborted, Committed};

    /// `R` = 3 batches of 8 read slots, 8 write slots.
    fn pipeline_at_depth(depth: u32) -> Pipeline {
        let config = EpochConfig::small_for_tests().with_pipeline_depth(depth);
        Pipeline::new(config, 1)
    }

    fn pipeline() -> Pipeline {
        pipeline_at_depth(2)
    }

    fn val(v: u64) -> Value {
        v.to_le_bytes().to_vec()
    }

    fn value(v: u64) -> Result<ReadStep> {
        Ok(ReadStep::Value(Some(val(v))))
    }

    const ABSENT: Result<ReadStep> = Ok(ReadStep::Value(None));
    const PARK: Result<ReadStep> = Ok(Park);

    /// Plans a batch and answers every key in it with "absent".
    fn run_batch(p: &mut Pipeline) -> BatchPlan {
        let plan = p.plan_batch();
        let keys = plan.legs.iter().map(|(_, keys)| keys.len()).sum();
        p.ingest(&plan, vec![None; keys]);
        plan
    }

    #[test]
    fn a_transaction_runs_from_begin_to_publish() {
        let mut p = pipeline();
        let g = p.begin(1, None).unwrap();
        assert_eq!(p.read(1, g, 7), PARK);
        assert_eq!(run_batch(&mut p).legs, vec![(g, vec![7])]);
        assert_eq!(p.read(1, g, 7), ABSENT);
        p.write(1, g, 7, val(70)).unwrap();
        assert_eq!(p.read(1, g, 7), value(70));
        p.request_commit(1, g).unwrap();
        assert_eq!(p.take_outcome(1, g), None);

        assert_eq!(p.to_decide(), None);
        assert!(p.seal());
        assert!(!p.seal(), "the slot is occupied");
        assert_eq!(p.to_decide(), Some((1, g, 0)));
        assert_eq!(p.exec_epoch(), 2);

        let decision = p.decide(g, None, true).unwrap();
        assert_eq!(decision.committed, vec![1]);
        assert_eq!(decision.writes, vec![(7, val(70))]);
        assert_eq!(p.take_outcome(1, g), None, "a writer waits for the record");
        assert_eq!(p.ack(g, &decision.held, true), 1);
        assert_eq!(p.take_outcome(1, g), Some(Committed));
        assert!(p.written_back(g, &decision.writes));
        assert_eq!(p.publish(g, true), Some(0));
        assert_eq!(p.to_decide(), None);
        assert_eq!(p.publish(g, true), None);
        assert!(!p.written_back(g, &decision.writes));

        // The next epoch sees the committed value without a fetch.
        let next = p.begin(2, None).unwrap();
        assert_eq!(next, g + 1);
        assert_eq!(p.read(2, next, 7), value(70));
    }

    #[test]
    fn a_sealed_epoch_fetches_through_the_next_epochs_spare_slots() {
        let mut p = pipeline();
        let g = p.begin(1, None).unwrap();
        assert!(p.seal());
        assert_eq!(p.stamp_targets(), (g + 1, Some(g)));
        let budget = EpochConfig::small_for_tests().reads_per_epoch() as u64;
        for key in 0..budget {
            assert_eq!(p.read(1, g, key), PARK);
        }
        assert_eq!(p.read(1, g, 0), PARK, "asking again costs nothing");

        // A transaction joining the sealed epoch shares the queued fetch.
        p.begin(2, Some(g)).unwrap();
        assert_eq!(p.read(2, g, 0), PARK);
        let plan = p.plan_batch();
        assert_eq!(plan.legs, vec![(g + 1, vec![]), (g, (0..8).collect())]);
        assert_eq!(p.ingest(&plan, vec![Some(val(1)); 8]), 8);
        assert_eq!(p.read(2, g, 0), value(1));

        // The budget is one epoch's worth of reads.
        assert!(matches!(
            p.read(1, g, budget),
            Ok(Declined(ObladiError::BatchFull(_)))
        ));
        assert!(matches!(p.read(1, g, 0), Err(ObladiError::TxnAborted(_))));

        // Once decided nothing joins, and a fetch still in flight lands
        // nowhere.
        let in_flight = p.plan_batch();
        p.decide(g, None, true).unwrap();
        assert_eq!(p.stamp_targets(), (g + 1, None));
        assert!(p.begin(3, Some(g)).is_err());
        assert!(p.read(2, g, 9).is_err());
        assert_eq!(p.ingest(&in_flight, vec![None; 8]), 0);
    }

    #[test]
    fn a_sealed_epoch_cannot_fetch_at_depth_one() {
        let mut p = pipeline_at_depth(1);
        let g = p.begin(1, None).unwrap();
        assert!(p.seal());
        assert!(matches!(p.read(1, g, 5), Ok(Declined(_))));
    }

    #[test]
    fn a_sealed_epochs_write_is_carried_unless_the_next_epoch_fetched_the_key() {
        let mut p = pipeline();
        let g = p.begin(1, None).unwrap();
        for txn in 2..=4 {
            p.begin(txn, None).unwrap();
        }
        assert!(p.seal());
        let next = p.begin(10, None).unwrap();

        // Untouched by the next epoch: carried, and pinned for its readers.
        p.write(1, g, 7, val(1)).unwrap();
        assert_eq!(p.read(10, next, 7), PARK);
        assert_eq!(
            p.plan_batch().legs[0].1.len(),
            0,
            "a pinned key is not queued"
        );

        // Queued, in flight, fetched: refused, and the writer is over.
        assert_eq!(p.read(10, next, 8), PARK);
        assert!(p.write(2, g, 8, val(1)).is_err());
        assert!(p.write(2, g, 9, val(1)).is_err());
        let plan = p.plan_batch();
        assert_eq!(plan.legs, vec![(next, vec![8])]);
        assert!(p.write(3, g, 8, val(1)).is_err());
        p.ingest(&plan, vec![None]);
        assert!(p.write(4, g, 8, val(1)).is_err());
    }

    /// Txn 1 wrote key 7 and asked to commit; its epoch is sealed and
    /// decided, and txn 2 of the next epoch waits for the key.
    fn decided_with_a_parked_reader() -> (Pipeline, u64, Decision) {
        let mut p = pipeline();
        let g = p.begin(1, None).unwrap();
        p.write(1, g, 7, val(70)).unwrap();
        p.request_commit(1, g).unwrap();
        assert!(p.seal());
        p.begin(2, None).unwrap();
        assert_eq!(p.read(2, g + 1, 7), PARK);
        assert_eq!(p.plan_batch().legs[0].1.len(), 0);
        let decision = p.decide(g, None, true).unwrap();
        assert_eq!(p.read(2, g + 1, 7), PARK, "pinned until written back");
        (p, g, decision)
    }

    #[test]
    fn the_write_back_rung_turns_committed_carry_keys_into_base_versions() {
        let (mut p, g, decision) = decided_with_a_parked_reader();
        assert_eq!(p.ack(g, &decision.held, true), 1);
        assert!(p.written_back(g, &decision.writes));
        assert_eq!(p.read(2, g + 1, 7), value(70));
        assert_eq!(p.publish(g, true), Some(0));
        assert_eq!(p.read(2, g + 1, 7), value(70));
    }

    #[test]
    fn a_failed_write_back_leaves_carry_keys_pinned_until_the_crash() {
        let (mut p, g, _) = decided_with_a_parked_reader();
        // The flush failed, so the write-back rung was never reached; the
        // decision append failed too: nothing was acknowledged early.
        assert_eq!(p.publish(g, false), Some(0));
        assert_eq!(p.take_outcome(1, g), Some(Aborted(AbortReason::Crash)));
        assert_eq!(p.read(2, g + 1, 7), PARK);
        assert_eq!(p.plan_batch().legs[0].1.len(), 0);
        assert!(p.crash(Some(0)));
        assert_eq!(p.read(2, g + 1, 7), Err(ObladiError::ProxyUnavailable));
    }

    #[test]
    fn a_failed_checkpoint_aborts_the_readers_of_the_written_back_values() {
        let (mut p, g, decision) = decided_with_a_parked_reader();
        assert!(p.written_back(g, &decision.writes));
        assert_eq!(p.read(2, g + 1, 7), value(70));
        p.request_commit(2, g + 1).unwrap();
        // The checkpoint failed: the next epoch could not seal meanwhile,
        // so the crash finds its reader still waiting.
        assert!(!p.seal());
        assert_eq!(p.publish(g, false), Some(0));
        assert!(p.crash(Some(0)));
        assert_eq!(p.take_outcome(2, g + 1), Some(Aborted(AbortReason::Crash)));
    }

    #[test]
    fn a_key_is_in_one_leg_of_a_batch() {
        let mut p = Pipeline::new(EpochConfig::small_for_tests().with_read_batches(8), 1);
        let g = p.begin(1, None).unwrap();
        assert!(p.seal());
        let next = p.begin(2, None).unwrap();
        assert_eq!(p.read(2, next, 5), PARK);
        assert_eq!(p.read(1, g, 5), PARK);
        assert_eq!(p.read(1, g, 6), PARK);

        // The sealed epoch's 5 is deferred while the executing epoch's 5 is
        // in the batch, then served by a later one.
        assert_eq!(run_batch(&mut p).legs, vec![(next, vec![5]), (g, vec![6])]);
        assert_eq!(run_batch(&mut p).legs, vec![(next, vec![]), (g, vec![5])]);
        assert_eq!(p.read(1, g, 5), ABSENT);
        assert_eq!(p.read(2, next, 5), ABSENT);

        // The executing epoch's read of a key the sealed epoch has queued
        // is queued at once; the next plan carries it and defers the sealed
        // copy, which a later batch serves.
        assert_eq!(p.read(1, g, 9), PARK);
        assert_eq!(p.read(2, next, 9), PARK);
        assert!(p.exec.fetch.holds(9));
        assert_eq!(run_batch(&mut p).legs, vec![(next, vec![9])]);
        assert_eq!(p.read(2, next, 9), ABSENT);
        assert_eq!(p.read(1, g, 9), PARK);
        assert_eq!(run_batch(&mut p).legs, vec![(next, vec![]), (g, vec![9])]);
        assert_eq!(p.read(1, g, 9), ABSENT);
    }

    /// One sealed epoch holding a dependency-free reader (1), a writer (2),
    /// a reader of 2's uncommitted write (3), all asking to commit, and a
    /// transaction that never asks (4).
    fn one_of_each() -> (Pipeline, u64) {
        let mut p = pipeline();
        let g = p.begin(1, None).unwrap();
        for txn in 2..=4 {
            p.begin(txn, None).unwrap();
        }
        assert_eq!(p.read(1, g, 5), PARK);
        run_batch(&mut p);
        assert_eq!(p.read(1, g, 5), ABSENT);
        p.write(2, g, 6, val(60)).unwrap();
        assert_eq!(p.read(3, g, 6), value(60));
        for txn in 1..=3 {
            p.request_commit(txn, g).unwrap();
        }
        assert!(p.seal());
        (p, g)
    }

    #[test]
    fn outcomes_are_acknowledged_on_the_earliest_truthful_rung() {
        let (mut p, g) = one_of_each();
        let decision = p.decide(g, None, true).unwrap();
        assert_eq!(decision.committed, vec![1, 2, 3]);
        assert_eq!((decision.acked, decision.aborted), (1, 1));
        assert_eq!((&decision.held, decision.parked), (&vec![2, 3], 0));
        assert_eq!(p.take_outcome(1, g), Some(Committed));
        assert_eq!(p.take_outcome(4, g), Some(Aborted(AbortReason::EpochEnd)));
        assert_eq!(p.take_outcome(2, g), None);
        assert_eq!(p.take_outcome(3, g), None, "its writer could still vanish");
        assert_eq!(p.ack(g, &decision.held, true), 2);
        assert_eq!(p.ack(g, &decision.held, true), 0, "acknowledged once");
        assert_eq!(p.take_outcome(2, g), Some(Committed));
        assert_eq!(p.take_outcome(3, g), Some(Committed));
        assert!(p.written_back(g, &decision.writes));
        assert_eq!(p.publish(g, true), Some(0));
    }

    #[test]
    fn without_a_decision_record_everything_waits_for_publish() {
        // Durability disabled: no early acknowledgement at all, not even
        // once the write-back landed.
        let (mut p, g) = one_of_each();
        let decision = p.decide(g, None, false).unwrap();
        assert_eq!((decision.acked, decision.parked), (0, 4));
        assert!(decision.held.is_empty());
        assert!(p.written_back(g, &decision.writes));
        assert!((1..=4).all(|txn| p.take_outcome(txn, g).is_none()));
        assert_eq!(p.publish(g, true), Some(3));
        assert_eq!(p.take_outcome(3, g), Some(Committed));
        assert_eq!(p.take_outcome(4, g), Some(Aborted(AbortReason::EpochEnd)));

        // The decision append failed: the held commits fall back to publish
        // and fate-share the write-back; the early ack stays truthful.
        let (mut p, g) = one_of_each();
        p.decide(g, None, true).unwrap();
        assert_eq!(p.publish(g, false), Some(0));
        assert_eq!(p.take_outcome(1, g), Some(Committed));
        assert_eq!(p.take_outcome(2, g), Some(Aborted(AbortReason::Crash)));
        assert_eq!(p.take_outcome(3, g), Some(Aborted(AbortReason::Crash)));
    }

    #[test]
    fn the_gate_verdict_decides_which_candidates_commit() {
        let (mut p, g) = one_of_each();
        let candidates: Vec<TxnId> = p.candidates(g).iter().map(|c| c.txn).collect();
        assert_eq!(candidates, vec![1, 2, 3]);
        assert_eq!(p.candidates(g)[2].deps, vec![2]);
        let writes = p.txn_writes(g, &[1, 2]).unwrap();
        assert_eq!(writes, vec![(1, vec![]), (2, vec![(6, val(60))])]);

        let permitted = HashSet::from([1, 3]);
        let decision = p.decide(g, Some(&permitted), true).unwrap();
        assert_eq!(decision.committed, vec![1], "3 cascades with its writer");
        assert_eq!(p.take_outcome(2, g), Some(Aborted(AbortReason::EpochEnd)));
        assert_eq!(p.take_outcome(3, g), Some(Aborted(AbortReason::Cascading)));

        // A wiped epoch has no candidates and refuses prepares and decisions.
        assert!(p.crash(None));
        assert!(p.candidates(g).is_empty());
        assert_eq!(p.txn_writes(g, &[1]), Err(ObladiError::ProxyUnavailable));
        assert!(p.decide(g, None, true).is_err());
    }

    #[test]
    fn a_crash_aborts_the_waiting_and_spares_the_acknowledged() {
        let (mut p, g) = one_of_each();
        p.begin(9, None).unwrap();
        p.decide(g, None, true).unwrap();
        assert!(p.crash(None));
        assert!(p.mode() == Mode::Crashed);
        assert_eq!(p.take_outcome(1, g), Some(Committed));
        assert_eq!(p.take_outcome(2, g), Some(Aborted(AbortReason::Crash)));
        assert_eq!(p.take_outcome(9, g + 1), Some(Aborted(AbortReason::Crash)));
        assert!(p.begin(10, None).is_err());
        assert!(p.write(9, g + 1, 1, val(1)).is_err());
        assert_eq!(p.to_decide(), None);
    }

    #[test]
    fn a_failure_from_a_recovered_life_does_not_crash_the_next() {
        let mut p = pipeline();
        assert!(p.crash(Some(0)));
        p.recovered(4);
        assert!(p.mode() == Mode::Running);
        assert_eq!(p.exec_epoch(), 4);
        let g = p.begin(1, None).unwrap();
        assert!(!p.crash(Some(0)), "observed before the recovery");
        assert!(p.mode() == Mode::Running);
        p.write(1, g, 1, val(1)).unwrap();
        assert!(p.crash(Some(1)));
        assert!(p.mode() == Mode::Crashed);
    }

    #[test]
    fn a_straggler_batch_from_before_a_crash_ingests_nothing() {
        let mut p = pipeline();
        let g = p.begin(1, None).unwrap();
        assert_eq!(p.read(1, g, 5), PARK);
        let straggler = p.plan_batch();
        assert!(p.crash(None));
        // Recovery resumes at the aborted epoch's id.
        p.recovered(straggler.epoch);
        assert_eq!(p.exec_epoch(), straggler.epoch);
        let g = p.begin(2, None).unwrap();
        assert_eq!(p.read(2, g, 5), PARK);
        let fresh = p.plan_batch();
        assert_eq!(fresh.legs, vec![(g, vec![5])]);

        assert_eq!(p.ingest(&straggler, vec![Some(val(666))]), 0);
        assert_eq!(p.read(2, g, 5), PARK, "no base registered");
        assert_eq!(p.plan_batch().legs[0].1.len(), 0, "still held in flight");
        p.ingest(&fresh, vec![None]);
        assert_eq!(p.read(2, g, 5), ABSENT);
    }

    #[test]
    fn an_outcome_two_generations_behind_is_lost() {
        let mut p = pipeline();
        let g = p.stamp_targets().0;
        assert_eq!(p.take_outcome(77, g), None);
        assert!(p.seal());
        assert_eq!(p.take_outcome(77, g), None);
        let decision = p.decide(g, None, true).unwrap();
        assert!(p.written_back(g, &decision.writes));
        assert_eq!(p.publish(g, true), Some(0));
        assert_eq!(p.take_outcome(77, g), None);
        assert!(p.seal());
        assert_eq!(p.take_outcome(77, g), Some(Aborted(AbortReason::EpochEnd)));
    }

    #[test]
    fn stopping_releases_readers_of_either_epoch() {
        let mut p = pipeline();
        let g = p.begin(1, None).unwrap();
        assert!(p.seal());
        p.begin(2, None).unwrap();
        assert_eq!(p.read(1, g, 5), PARK);
        assert_eq!(p.read(2, g + 1, 6), PARK);
        p.stop();
        assert!(p.mode() == Mode::Stopping);
        assert_eq!(p.read(1, g, 5), Err(ObladiError::ProxyUnavailable));
        assert_eq!(p.read(2, g + 1, 6), Err(ObladiError::ProxyUnavailable));
        assert_eq!(p.begin(3, None), Err(ObladiError::ProxyUnavailable));
        assert_eq!(p.take_outcome(1, g), Some(Aborted(AbortReason::EpochEnd)));
        assert!(!p.crash(Some(7)) && p.crash(None) && p.mode() == Mode::Stopping);
    }

    #[test]
    fn the_executor_holds_reserved_batches_until_the_write_back_lands() {
        let reserved = |r| (0..r).map(|i| is_reserved_batch(r, i)).collect::<Vec<_>>();
        assert_eq!(reserved(1), [true]);
        assert_eq!(reserved(3), [false, true, true]);
        assert_eq!(reserved(4), [false, false, true, true]);

        let mut p = pipeline();
        let g = p.begin(1, None).unwrap();
        p.write(1, g, 7, val(70)).unwrap();
        p.request_commit(1, g).unwrap();
        assert!(!p.slot_occupied() && !p.hold_reserved_batch());
        assert!(p.seal());
        assert!(p.slot_occupied() && p.hold_reserved_batch());
        // The next epoch's reader of the carry key parks.
        let next = p.begin(2, None).unwrap();
        assert_eq!(p.read(2, next, 7), PARK);

        // A queued sealed-epoch fetch does not release the hold: it waits
        // for a batch on the grid like any other read.
        assert_eq!(p.read(1, g, 5), PARK);
        assert!(p.slot_occupied() && p.hold_reserved_batch());
        let plan = p.plan_batch();
        assert!(p.hold_reserved_batch());
        p.ingest(&plan, vec![None]);

        // The hold outlasts the decision ...
        let decision = p.decide(g, None, true).unwrap();
        assert!(p.slot_occupied() && p.hold_reserved_batch());
        assert_eq!(p.read(2, next, 7), PARK);

        // ... and ends at the write-back rung, while the slot stays
        // occupied until publish: the next epoch cannot seal yet.
        assert!(p.written_back(g, &decision.writes));
        assert!(p.slot_occupied() && !p.hold_reserved_batch());
        assert!(!p.seal());
        assert_eq!(
            p.read(2, next, 7),
            value(70),
            "the committed value is its base"
        );

        // Publish frees the slot and registers nothing a second time.
        assert!(!p.written_back(g, &decision.writes));
        assert_eq!(p.ack(g, &decision.held, true), 1);
        assert_eq!(p.publish(g, true), Some(0));
        assert!(!p.slot_occupied() && !p.hold_reserved_batch());
        assert_eq!(p.read(2, next, 7), value(70));

        // Nothing holds the executor once the proxy stops running.
        assert!(p.seal());
        p.stop();
        assert!(!p.slot_occupied() && !p.hold_reserved_batch() && !p.seal());
    }

    #[test]
    fn an_epoch_admits_only_the_reads_its_remaining_batches_can_carry() {
        let mut p = pipeline();
        let g = p.begin(1, None).unwrap();
        p.begin(2, None).unwrap();
        run_batch(&mut p);
        run_batch(&mut p);
        for key in 0..8 {
            assert_eq!(p.read(1, g, key), PARK);
        }
        assert!(matches!(p.read(2, g, 8), Err(ObladiError::BatchFull(_))));
        assert_eq!(run_batch(&mut p).legs[0].1.len(), 8);
        assert!(matches!(p.read(1, g, 9), Err(ObladiError::BatchFull(_))));
    }
}
