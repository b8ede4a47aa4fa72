//! The epoch barrier coordinator: lockstep epochs and cross-shard commit
//! votes.
//!
//! Obladi's correctness rests on *delayed visibility*: a transaction's
//! writes become visible only when its epoch ends, and either every effect
//! of the epoch becomes durable or none does.  With several independent
//! shards that guarantee has to be lifted to the deployment level — a
//! transaction that wrote on shards A and B must become visible on A and B
//! in the *same* global epoch, or on neither.
//!
//! One rendezvous per global epoch does that.  Every shard's epoch driver,
//! just before finalising its local epoch, calls
//! [`EpochCoordinator::arrive`] through its [`ShardGate`] and parks until
//! every live shard has arrived; the last one then samples every shard's
//! commit candidates **at decision time**, has every participant of a
//! cross-shard transaction durably log a prepare record (2PC-in-WAL,
//! presumed abort), and permits exactly the transactions every touched
//! shard voted for.
//!
//! Every rule of that — who may do what in which phase, the vote, the
//! decision log — is the pure state machine in [`crate::rendezvous`]
//! (overview in DESIGN.md, "The rendezvous").  This module is its shell:
//! one lock, one condvar, the watchdog deadline, and the two things the
//! machine never sees — the shards' candidate and prepare closures, and
//! the prepare I/O, which runs with the lock released.

pub use crate::rendezvous::TxnDecision;
use crate::rendezvous::{Poll, Rendezvous};
use obladi_common::error::{ObladiError, Result};
use obladi_common::types::{EpochId, TxnId};
use obladi_core::{CandidateSource, EpochGate, TxnPreparer};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A parked shard's live candidate view and its durable-prepare hook.
type Hooks = HashMap<usize, (CandidateSource, TxnPreparer)>;

/// Barrier + commit-vote coordinator shared by all shards of a deployment.
pub struct EpochCoordinator {
    state: Mutex<Rendezvous>,
    changed: Condvar,
    /// Bounded-wait watchdog for the rendezvous: a shard parked in
    /// [`EpochCoordinator::arrive`] past this deadline dumps barrier
    /// diagnostics to stderr and returns a typed, retryable
    /// [`ObladiError::BarrierStalled`] instead of hanging forever.
    watchdog: Duration,
    /// The hooks of the shards parked for the current round, removed when
    /// the shard stops waiting (they keep its proxy alive).  Never locked
    /// before `state`.
    hooks: Mutex<Hooks>,
    /// When the previous round completed (feeds the epoch-period
    /// histogram).
    last_round_at: Mutex<Option<Instant>>,
}

impl EpochCoordinator {
    /// Default rendezvous watchdog: far beyond any healthy epoch (epochs
    /// run in milliseconds), so it only ever fires on a genuine liveness
    /// bug — a shard that died without being marked dead, a deadlocked
    /// prepare.
    pub const DEFAULT_WATCHDOG: Duration = Duration::from_secs(30);

    /// Creates a coordinator for `shards` shards, all initially live.
    pub fn new(shards: usize) -> Self {
        EpochCoordinator {
            state: Mutex::new(Rendezvous::new(shards)),
            changed: Condvar::new(),
            watchdog: Self::DEFAULT_WATCHDOG,
            hooks: Mutex::new(HashMap::new()),
            last_round_at: Mutex::new(None),
        }
    }

    /// Overrides the rendezvous watchdog deadline (tests use short ones to
    /// reproduce the stalled-barrier shape deterministically; deployments
    /// plumb `ShardConfig::barrier_watchdog` through here).
    pub fn with_watchdog(mut self, deadline: Duration) -> Self {
        self.watchdog = deadline;
        self
    }

    /// Number of completed global epochs.
    pub fn global_epoch(&self) -> u64 {
        self.state.lock().round()
    }

    /// The locked state machine, for the per-transaction bookkeeping that
    /// wakes nobody: `register`, `forget`, `was_committed`, `decision`,
    /// `ack_durable`, `pending_decisions`.  Everything a parked shard or a
    /// blocked commit burst must hear about goes through the methods of
    /// this type, which also notify.
    pub(crate) fn machine(&self) -> MutexGuard<'_, Rendezvous> {
        self.state.lock()
    }

    /// Opens a commit-intake window: while the guard lives, no rendezvous
    /// decision samples its candidates, so a burst of per-shard commit
    /// requests is atomic with respect to the vote.  Blocks only while a
    /// decision drains and samples (in memory), never for its prepare I/O.
    pub fn begin_commit_intake(&self) -> CommitIntake<'_> {
        let mut state = self.state.lock();
        while !state.intake_open() {
            self.changed.wait(&mut state);
        }
        CommitIntake { coordinator: self }
    }

    /// Marks a shard live (recovered) or dead (crashed).  Dead shards are
    /// dropped from the rendezvous, which may complete the current round.
    pub fn set_live(&self, shard: usize, alive: bool) {
        self.state.lock().set_live(shard, alive);
        self.changed.notify_all();
    }

    /// Releases every blocked shard and disables future rendezvous (used on
    /// deployment shutdown).  Blocked and future arrivals get their own
    /// candidates back unchanged, matching single-proxy shutdown semantics.
    pub fn shutdown(&self) {
        self.state.lock().stop();
        self.changed.notify_all();
    }

    /// The rendezvous: blocks until all live shards have arrived for this
    /// round and returns the transactions the coordinator permits `shard`
    /// to commit.  The shard that completes the barrier leads the decision
    /// (`decide`) on behalf of all.
    ///
    /// On shutdown the shard's own candidates pass through unchanged
    /// (matching single-proxy shutdown semantics).  A shard that has been
    /// marked dead gets an *empty* permit set: its crash is imminent, and
    /// committing locally after the deployment has already excluded its
    /// votes could make half of a cross-shard transaction durable.
    ///
    /// A shard parked here past the watchdog deadline withdraws, dumps the
    /// barrier state to stderr and returns [`ObladiError::BarrierStalled`]
    /// — a typed, retryable liveness error.  Its epoch finalises with an
    /// empty permit set (its candidates abort retryably, on every shard if
    /// they were already sampled) and it re-arrives at its next epoch, so a
    /// transient stall heals on its own.
    pub fn arrive(
        &self,
        shard: usize,
        candidates: CandidateSource,
        preparer: TxnPreparer,
    ) -> Result<Vec<TxnId>> {
        let arrived_at = Instant::now();
        let mut state = self.state.lock();
        let target = state.arrive(shard);
        self.hooks
            .lock()
            .insert(shard, (candidates.clone(), preparer));
        loop {
            let step = state.poll(shard, target);
            obladi_obs::global()
                .gauge("shard.pipeline.decision_in_flight")
                .set(state.deciding().into());
            match step {
                Poll::Done(permits) => return Ok(permits),
                Poll::Excluded => {
                    self.hooks.lock().remove(&shard);
                    return Ok(Vec::new());
                }
                Poll::Passthrough => {
                    self.hooks.lock().remove(&shard);
                    drop(state);
                    return Ok(candidates().into_iter().map(|c| c.txn).collect());
                }
                Poll::Lead => {
                    state = self.decide(state);
                    continue;
                }
                Poll::Wait => {}
            }
            let waited = arrived_at.elapsed();
            if waited >= self.watchdog {
                return Err(self.watchdog_fire(state, shard, target, waited));
            }
            self.changed.wait_for(&mut state, self.watchdog - waited);
        }
    }

    /// Leads one decision.  The candidates are sampled under the lock,
    /// with commit intake refused, so no burst straddles the sample (the
    /// candidate sources take their shard's state lock, which no caller of
    /// the coordinator holds).  The durable prepares — a cross-shard
    /// transaction's votes only count once every participant has a prepare
    /// record in its WAL — are the one step outside the lock: they are
    /// store I/O, and every other entry point, commit intake included,
    /// must stay responsive while a latency-bound store absorbs them.
    fn decide<'a>(&'a self, mut state: MutexGuard<'a, Rendezvous>) -> MutexGuard<'a, Rendezvous> {
        let hooks = std::mem::take(&mut *self.hooks.lock());
        let samples = state
            .arrived()
            .filter_map(|shard| Some((shard, (hooks.get(&shard)?.0)())))
            .collect();
        let plan = state.plan(samples);
        self.changed.notify_all();
        drop(state);
        let prepare_failed = run_prepares(&plan.prepares, &hooks);
        let mut state = self.state.lock();
        state.complete(plan, &prepare_failed);
        self.changed.notify_all();

        let obs = obladi_obs::global();
        let now = Instant::now();
        if let Some(previous) = self.last_round_at.lock().replace(now) {
            obs.histogram("shard.epoch.period_us")
                .record_duration(now.duration_since(previous));
        }
        obs.gauge("shard.epoch.global").set(state.round() as i64);
        obladi_obs::trace::global().record("shard.round_decided", state.round(), 0);
        state
    }

    /// The watchdog path of [`EpochCoordinator::arrive`]: withdraw the
    /// shard, dump barrier diagnostics to stderr and surface the park as a
    /// typed, retryable error.
    fn watchdog_fire(
        &self,
        mut state: MutexGuard<'_, Rendezvous>,
        shard: usize,
        target: u64,
        waited: Duration,
    ) -> ObladiError {
        let barrier = format!("{state:?}");
        state.withdraw(shard);
        self.hooks.lock().remove(&shard);
        drop(state);
        // A withdrawn arrival can change what the barrier is waiting for;
        // make sure everyone re-evaluates.
        self.changed.notify_all();
        obladi_obs::global()
            .counter("shard.coordinator.watchdog_fired")
            .inc();
        eprintln!(
            "obladi: epoch-barrier watchdog fired: shard {shard} waited {waited:?} for round \
             {target} ({barrier})"
        );
        eprintln!("{}", obladi_obs::report());
        // The metrics report samples totals; the span-trace tail shows the
        // *sequence* of epoch phases leading into the stall, which is what
        // post-hoc diagnosis actually needs.
        eprintln!("--- span trace tail (json) ---");
        eprintln!(
            "{}",
            obladi_obs::report::render_trace_json(&obladi_obs::trace::global().events())
        );
        ObladiError::BarrierStalled {
            shard,
            round: target,
            waited_ms: waited.as_millis() as u64,
        }
    }
}

/// Runs the planned prepare batches and returns the transactions whose
/// prepare failed.  The batches target disjoint stores, so they run in
/// parallel.  A panicked preparer (or a missing hook) never produced a
/// durable record: its whole batch withholds its votes, exactly like an
/// ordinary prepare failure.
fn run_prepares(prepares: &HashMap<usize, Vec<TxnId>>, hooks: &Hooks) -> HashSet<TxnId> {
    let prepared = &|(shard, txns): (&usize, &Vec<TxnId>)| {
        hooks
            .get(shard)
            .is_some_and(|(_, preparer)| preparer(txns).is_ok())
    };
    let outcomes: Vec<bool> = if prepares.len() <= 1 {
        // Zero or one participant: nothing to parallelise.
        prepares.iter().map(prepared).collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = prepares
                .iter()
                .map(|batch| scope.spawn(move || prepared(batch)))
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap_or(false))
                .collect()
        })
    };
    let failed = prepares.iter().zip(outcomes).filter(|(_, ok)| !ok);
    failed
        .flat_map(|((_, txns), _)| txns.iter().copied())
        .collect()
}

/// RAII window during which no rendezvous decision samples its candidates
/// (see [`EpochCoordinator::begin_commit_intake`]).
pub struct CommitIntake<'a> {
    coordinator: &'a EpochCoordinator,
}

impl Drop for CommitIntake<'_> {
    fn drop(&mut self) {
        self.coordinator.state.lock().intake_close();
        self.coordinator.changed.notify_all();
    }
}

/// The per-shard [`EpochGate`] wired into each [`obladi_core::ObladiDb`]:
/// forwards the proxy's commit candidates to the deployment coordinator.
pub struct ShardGate {
    coordinator: Arc<EpochCoordinator>,
    shard: usize,
}

impl ShardGate {
    /// Creates the gate for `shard`.
    pub fn new(coordinator: Arc<EpochCoordinator>, shard: usize) -> Self {
        ShardGate { coordinator, shard }
    }
}

impl EpochGate for ShardGate {
    fn permit_commits(
        &self,
        _epoch: EpochId,
        candidates: CandidateSource,
        preparer: TxnPreparer,
    ) -> Result<Vec<TxnId>> {
        self.coordinator.arrive(self.shard, candidates, preparer)
    }

    fn epoch_durable(&self, _epoch: EpochId, committed: &[TxnId]) {
        // The shard's epoch commit is durable: retire this shard's share of
        // the 2PC decisions, so fully acknowledged ones can be forgotten.
        // The proxy retires the epoch's prepare records from its WAL only
        // after this returns — a crash before it must still find them.
        self.coordinator
            .machine()
            .ack_durable(self.shard, committed);
    }

    fn proxy_crashed(&self) {
        // A shard can crash on its own (storage-fault fate sharing), not
        // just via ShardedDb::crash_shard; either way the rendezvous must
        // stop waiting for it or the whole deployment stalls.
        self.coordinator.set_live(self.shard, false);
    }

    fn proxy_recovered(&self) {
        self.coordinator.set_live(self.shard, true);
    }

    fn proxy_stopping(&self) {
        // A stopping shard must release (and stop blocking) the rendezvous
        // exactly like a crashed one, or its parked decider could never be
        // joined.
        self.coordinator.set_live(self.shard, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obladi_core::CommitCandidate;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::thread;

    /// Blocks until `shard` is parked at the barrier.
    fn wait_parked(coordinator: &EpochCoordinator, shard: usize) {
        while !coordinator.machine().arrived().any(|s| s == shard) {
            thread::yield_now();
        }
    }

    fn source(candidates: Vec<TxnId>) -> CandidateSource {
        Arc::new(move || {
            candidates
                .iter()
                .map(|&txn| CommitCandidate::local(txn))
                .collect()
        })
    }

    /// Candidates with explicit dependency lists.
    fn dep_source(candidates: Vec<(TxnId, Vec<TxnId>)>) -> CandidateSource {
        Arc::new(move || {
            candidates
                .iter()
                .map(|(txn, deps)| CommitCandidate {
                    txn: *txn,
                    deps: deps.clone(),
                })
                .collect()
        })
    }

    fn prepare_ok() -> TxnPreparer {
        Arc::new(|_| Ok(()))
    }

    fn prepare_fail() -> TxnPreparer {
        Arc::new(|_| {
            Err(obladi_common::error::ObladiError::Storage(
                "injected prepare failure".into(),
            ))
        })
    }

    /// A preparer that counts how many transactions it was asked to prepare.
    fn prepare_counting(counter: Arc<AtomicU64>) -> TxnPreparer {
        Arc::new(move |txns| {
            counter.fetch_add(txns.len() as u64, Ordering::SeqCst);
            Ok(())
        })
    }

    #[test]
    fn single_shard_round_passes_candidates_through() {
        let coordinator = EpochCoordinator::new(1);
        coordinator.machine().register(5, 0);
        assert_eq!(
            coordinator
                .arrive(0, source(vec![5, 6]), prepare_ok())
                .unwrap(),
            vec![5, 6]
        );
        assert_eq!(coordinator.global_epoch(), 1);
    }

    #[test]
    fn cross_shard_txn_commits_only_when_both_shards_list_it() {
        let coordinator = Arc::new(EpochCoordinator::new(2));
        // Txn 10 touched both shards but only shard 0 is ready to commit it;
        // txn 11 is local to shard 1.
        coordinator.machine().register(10, 0);
        coordinator.machine().register(10, 1);
        coordinator.machine().register(11, 1);

        let c = coordinator.clone();
        let other = thread::spawn(move || c.arrive(1, source(vec![11]), prepare_ok()).unwrap());
        let permits0 = coordinator
            .arrive(0, source(vec![10]), prepare_ok())
            .unwrap();
        let permits1 = other.join().unwrap();
        assert!(
            permits0.is_empty(),
            "txn 10 lacked shard 1's vote: {permits0:?}"
        );
        assert_eq!(permits1, vec![11]);
        assert_eq!(
            coordinator.machine().decision(10),
            TxnDecision::PresumedAborted,
            "a denied transaction must never enter the decision log"
        );
    }

    #[test]
    fn unanimous_cross_shard_txn_is_permitted_on_both_shards() {
        let coordinator = Arc::new(EpochCoordinator::new(2));
        coordinator.machine().register(7, 0);
        coordinator.machine().register(7, 1);

        let prepared = Arc::new(AtomicU64::new(0));
        let c = coordinator.clone();
        let counter = prepared.clone();
        let other = thread::spawn(move || {
            c.arrive(1, source(vec![7]), prepare_counting(counter))
                .unwrap()
        });
        let permits0 = coordinator
            .arrive(0, source(vec![7]), prepare_counting(prepared.clone()))
            .unwrap();
        let permits1 = other.join().unwrap();
        assert_eq!(permits0, vec![7]);
        assert_eq!(permits1, vec![7]);
        assert_eq!(coordinator.global_epoch(), 1);
        assert_eq!(
            prepared.load(Ordering::SeqCst),
            2,
            "both participants must durably prepare before the vote counts"
        );
        assert_eq!(coordinator.machine().decision(7), TxnDecision::Committed);

        // Both shards report the commit durable: the decision retires, but
        // the front-door verdict survives until the txn is forgotten —
        // otherwise a fully-crashed-and-recovered transaction could be
        // reported aborted after recovery already committed it everywhere.
        coordinator.machine().ack_durable(0, &[7]);
        assert_eq!(coordinator.machine().decision(7), TxnDecision::Committed);
        coordinator.machine().ack_durable(1, &[7]);
        assert_eq!(
            coordinator.machine().decision(7),
            TxnDecision::PresumedAborted
        );
        assert_eq!(coordinator.machine().pending_decisions(), 0);
        assert!(
            coordinator.machine().was_committed(7),
            "verdict must outlive the acks"
        );
        coordinator.machine().forget(7);
        assert!(!coordinator.machine().was_committed(7));
    }

    #[test]
    fn failed_prepare_withholds_the_vote_everywhere() {
        let coordinator = Arc::new(EpochCoordinator::new(2));
        coordinator.machine().register(21, 0);
        coordinator.machine().register(21, 1);

        // Shard 1's WAL refuses the prepare append: the transaction must be
        // denied on both shards and no decision recorded.
        let c = coordinator.clone();
        let other = thread::spawn(move || c.arrive(1, source(vec![21]), prepare_fail()).unwrap());
        let permits0 = coordinator
            .arrive(0, source(vec![21]), prepare_ok())
            .unwrap();
        let permits1 = other.join().unwrap();
        assert!(permits0.is_empty(), "{permits0:?}");
        assert!(permits1.is_empty(), "{permits1:?}");
        assert_eq!(
            coordinator.machine().decision(21),
            TxnDecision::PresumedAborted
        );
    }

    #[test]
    fn vote_is_closed_under_cascading_dependencies() {
        // Txn 31 (cross-shard, not unanimous) is denied; txn 32 observed 31's
        // uncommitted write on shard 0, so committing 32 anywhere would tear
        // once shard 0 cascades the abort.  Txn 33 is independent.
        let coordinator = Arc::new(EpochCoordinator::new(2));
        coordinator.machine().register(31, 0);
        coordinator.machine().register(31, 1);
        coordinator.machine().register(32, 0);
        coordinator.machine().register(32, 1);
        coordinator.machine().register(33, 1);

        let c = coordinator.clone();
        // Shard 1 never lists 31 (not ready), so 31 fails unanimity.
        let other = thread::spawn(move || {
            c.arrive(
                1,
                dep_source(vec![(32, vec![]), (33, vec![])]),
                prepare_ok(),
            )
            .unwrap()
        });
        let permits0 = coordinator
            .arrive(
                0,
                dep_source(vec![(31, vec![]), (32, vec![31])]),
                prepare_ok(),
            )
            .unwrap();
        let permits1 = other.join().unwrap();
        assert!(
            !permits0.contains(&31) && !permits1.contains(&31),
            "31 lacked a vote"
        );
        assert!(
            !permits0.contains(&32) && !permits1.contains(&32),
            "32 depends on the denied 31 and must be denied everywhere: {permits0:?} {permits1:?}"
        );
        assert!(permits1.contains(&33), "independent txn must still commit");
    }

    #[test]
    fn candidates_are_sampled_at_decision_time() {
        // Shard 0 arrives first with an empty candidate list; the commit
        // request lands on shard 0 while it is parked at the barrier.  The
        // decision-time sample must still see it.
        let coordinator = Arc::new(EpochCoordinator::new(2));
        coordinator.machine().register(42, 0);
        coordinator.machine().register(42, 1);

        let requested = Arc::new(AtomicBool::new(false));
        let flag = requested.clone();
        let live_source: CandidateSource = Arc::new(move || {
            if flag.load(Ordering::SeqCst) {
                vec![CommitCandidate::local(42)]
            } else {
                vec![]
            }
        });

        let c = coordinator.clone();
        let early = thread::spawn(move || c.arrive(0, live_source, prepare_ok()).unwrap());
        wait_parked(&coordinator, 0);
        // The burst: request on both shards inside an intake window.
        {
            let _intake = coordinator.begin_commit_intake();
            requested.store(true, Ordering::SeqCst);
        }
        let permits1 = coordinator
            .arrive(1, source(vec![42]), prepare_ok())
            .unwrap();
        let permits0 = early.join().unwrap();
        assert_eq!(permits0, vec![42], "decision must use a fresh sample");
        assert_eq!(permits1, vec![42]);
    }

    /// A preparer that sleeps like a latency-bound store's WAL append.
    fn prepare_slow(delay: Duration) -> TxnPreparer {
        Arc::new(move |_| {
            thread::sleep(delay);
            Ok(())
        })
    }

    #[test]
    fn entry_points_stay_responsive_during_prepare_io() {
        // The parallel-prepare hoist: the per-shard 2PC prepare appends run
        // with the coordinator unlocked, so a latency-bound store must not
        // stall the other entry points for the prepare duration — and the
        // two shards' appends run in parallel, not back to back.
        let prepare_delay = Duration::from_millis(400);
        let coordinator = Arc::new(EpochCoordinator::new(2));
        coordinator.machine().register(5, 0);
        coordinator.machine().register(5, 1);

        let decision_started = std::time::Instant::now();
        let c = coordinator.clone();
        let other = thread::spawn(move || {
            c.arrive(1, source(vec![5]), prepare_slow(prepare_delay))
                .unwrap()
        });
        let c = coordinator.clone();
        let decider = thread::spawn(move || {
            c.arrive(0, source(vec![5]), prepare_slow(prepare_delay))
                .unwrap()
        });

        // Wait for the decision slot to be taken (sampling is in-memory and
        // quick; the rest of the slot's lifetime is the prepare I/O).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !coordinator.machine().deciding() {
            assert!(
                std::time::Instant::now() < deadline,
                "decision never started"
            );
            std::thread::yield_now();
        }

        // Every entry point — including commit intake — must answer in a
        // fraction of the prepare duration.
        let probe_start = std::time::Instant::now();
        let _ = coordinator.machine().pending_decisions();
        let _ = coordinator.machine().was_committed(5);
        let _ = coordinator.machine().decision(5);
        coordinator.machine().register(6, 0);
        drop(coordinator.begin_commit_intake());
        let probed = probe_start.elapsed();
        assert!(
            probed < prepare_delay / 2,
            "coordinator entry points stalled for {probed:?} during prepare I/O"
        );

        let permits0 = decider.join().unwrap();
        let permits1 = other.join().unwrap();
        let total = decision_started.elapsed();
        assert_eq!(permits0, vec![5]);
        assert_eq!(permits1, vec![5]);
        // Two 400 ms prepares in parallel finish well under the 800 ms a
        // sequential decide would need.
        assert!(
            total < prepare_delay * 2,
            "prepares ran sequentially: {total:?}"
        );
        assert!(!coordinator.machine().deciding());
    }

    #[test]
    fn dead_shard_is_excluded_and_its_transactions_abort() {
        let coordinator = Arc::new(EpochCoordinator::new(2));
        coordinator.machine().register(9, 0);
        coordinator.machine().register(9, 1);
        coordinator.set_live(1, false);
        // Shard 1 never arrives, yet the round completes; txn 9 touched the
        // dead shard and must not be permitted.
        let permits = coordinator
            .arrive(0, source(vec![9]), prepare_ok())
            .unwrap();
        assert!(permits.is_empty());
        assert_eq!(coordinator.global_epoch(), 1);
    }

    #[test]
    fn marking_a_shard_dead_releases_a_blocked_round() {
        let coordinator = Arc::new(EpochCoordinator::new(2));
        let c = coordinator.clone();
        let waiter = thread::spawn(move || c.arrive(0, source(vec![1]), prepare_ok()).unwrap());
        // Let the waiter block, then kill the missing shard.
        wait_parked(&coordinator, 0);
        coordinator.set_live(1, false);
        let permits = waiter.join().unwrap();
        assert_eq!(permits, vec![1], "local txn commits once shard 1 is out");
    }

    #[test]
    fn shutdown_releases_waiters_with_passthrough() {
        let coordinator = Arc::new(EpochCoordinator::new(2));
        let c = coordinator.clone();
        let waiter = thread::spawn(move || c.arrive(0, source(vec![3]), prepare_ok()).unwrap());
        wait_parked(&coordinator, 0);
        coordinator.shutdown();
        assert_eq!(waiter.join().unwrap(), vec![3]);
    }

    #[test]
    fn rounds_advance_across_consecutive_epochs() {
        let coordinator = Arc::new(EpochCoordinator::new(2));
        for round in 1..=3u64 {
            let c = coordinator.clone();
            let other = thread::spawn(move || c.arrive(1, source(vec![]), prepare_ok()).unwrap());
            coordinator.arrive(0, source(vec![]), prepare_ok()).unwrap();
            other.join().unwrap();
            assert_eq!(coordinator.global_epoch(), round);
        }
    }

    #[test]
    fn watchdog_converts_indefinite_park_into_typed_retryable_error() {
        let coordinator =
            Arc::new(EpochCoordinator::new(2).with_watchdog(Duration::from_millis(100)));
        // Shard 1 never arrives: the park must end with a typed liveness
        // error instead of hanging the caller forever.
        let err = coordinator
            .arrive(0, source(vec![5]), prepare_ok())
            .expect_err("watchdog should fire while shard 1 is missing");
        match &err {
            ObladiError::BarrierStalled {
                shard,
                round,
                waited_ms,
            } => {
                assert_eq!(*shard, 0);
                assert_eq!(*round, 1, "the stalled shard was waiting on round 1");
                assert!(*waited_ms >= 100, "waited {waited_ms} ms");
            }
            other => panic!("expected BarrierStalled, got {other:?}"),
        }
        assert!(err.is_retryable());
        assert!(err.is_liveness_retry());
        // The round never completed: the global epoch counter is untouched.
        assert_eq!(coordinator.global_epoch(), 0);
    }

    #[test]
    fn watchdog_withdraws_the_arrival_so_a_later_round_can_complete() {
        let coordinator =
            Arc::new(EpochCoordinator::new(2).with_watchdog(Duration::from_millis(80)));
        coordinator
            .arrive(0, source(vec![8]), prepare_ok())
            .expect_err("first attempt must stall");
        // Had the stale arrival (and its captured candidate source) been left
        // behind, the re-arrival below would either deadlock on the occupied
        // slot or decide round 1 against a closure from the abandoned call.
        let c = coordinator.clone();
        let other = thread::spawn(move || c.arrive(1, source(vec![]), prepare_ok()).unwrap());
        let permits = coordinator
            .arrive(0, source(vec![8]), prepare_ok())
            .unwrap();
        other.join().unwrap();
        assert_eq!(
            permits,
            vec![8],
            "re-arrival decides the same round cleanly"
        );
        assert_eq!(coordinator.global_epoch(), 1);
    }

    #[test]
    fn watchdog_during_the_prepare_io_cannot_tear_a_cross_shard_commit() {
        // Shard 0's watchdog fires while the leader (shard 1) is out running
        // the prepares: shard 0 finalises its epoch with an empty permit set
        // *after* its candidates were sampled, so txn 5 must be denied on
        // shard 1 too and never enter the decision log.
        let coordinator =
            Arc::new(EpochCoordinator::new(2).with_watchdog(Duration::from_millis(50)));
        coordinator.machine().register(5, 0);
        coordinator.machine().register(5, 1);

        let c = coordinator.clone();
        let stalled = thread::spawn(move || c.arrive(0, source(vec![5]), prepare_ok()));
        wait_parked(&coordinator, 0);
        // Shard 1's prepare append hangs until shard 0 has given up.
        let released = Arc::new(AtomicBool::new(false));
        let gate = released.clone();
        let slow: TxnPreparer = Arc::new(move |_| {
            while !gate.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            Ok(())
        });
        let c = coordinator.clone();
        let leader = thread::spawn(move || c.arrive(1, source(vec![5]), slow));

        let err = stalled.join().unwrap().expect_err("shard 0 must stall");
        assert!(matches!(err, ObladiError::BarrierStalled { shard: 0, .. }));
        released.store(true, Ordering::SeqCst);
        let permits1 = leader.join().unwrap().unwrap();
        assert!(
            permits1.is_empty(),
            "shard 1 was permitted {permits1:?}, which shard 0 was told to abort"
        );
        assert_eq!(
            coordinator.machine().decision(5),
            TxnDecision::PresumedAborted
        );
        assert!(!coordinator.machine().was_committed(5));
        assert_eq!(coordinator.global_epoch(), 1);
    }
}
