//! The rendezvous state machine: every rule of the epoch barrier, the
//! commit vote and the 2PC decision log as plain `&mut self` transitions.
//!
//! No transition takes a lock, waits, reads a clock, spawns a thread, calls
//! a closure or touches a store, so the whole lifecycle can be stepped —
//! and tested — single-threaded; `crate::coordinator` is the shell that
//! locks the machine, parks the shards' threads and performs the I/O the
//! transitions describe.  Overview in DESIGN.md, "The rendezvous".

use obladi_common::types::TxnId;
use obladi_core::CommitCandidate;
use std::collections::{HashMap, HashSet};

/// What the coordinator knows about a transaction's fate (presumed abort:
/// only commit decisions are recorded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnDecision {
    /// Every participant durably prepared and the coordinator permitted the
    /// commit; a recovering participant must replay its half.
    Committed,
    /// No commit decision is on record: the transaction never achieved a
    /// fully prepared unanimous vote, so no shard can have committed it.
    PresumedAborted,
}

/// Where the current round's decision stands.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum Phase {
    /// Waiting for every live shard to arrive.  Commit intake is open.
    #[default]
    Gathering,
    /// Every live shard has arrived and this one leads the decision, which
    /// waits for the commit-request bursts in flight to finish.  New bursts
    /// are refused until `plan` has frozen the sample, so none straddles it.
    Draining(usize),
    /// The sample is frozen and the durable prepares are running outside
    /// the machine.  The set names the shards that died, recovered or
    /// withdrew meanwhile: their sampled votes no longer count.
    Preparing(HashSet<usize>),
}

/// What a parked shard should do next (see [`Rendezvous::poll`]).
#[derive(Debug, PartialEq, Eq)]
pub enum Poll {
    /// Nothing to do yet.
    Wait,
    /// Every live shard has arrived and no commit burst is in flight: this
    /// shard samples the candidates and calls [`Rendezvous::plan`].
    Lead,
    /// The round is decided; these transactions may commit on this shard.
    Done(Vec<TxnId>),
    /// The deployment is stopping: the shard's own candidates pass through.
    Passthrough,
    /// The shard was marked dead or stopping: nothing of it may commit.
    Excluded,
}

/// A decision between [`Rendezvous::plan`] and [`Rendezvous::complete`].
#[derive(Debug)]
pub struct Plan {
    /// Decision-time candidates per arrived shard, in the shard's order.
    sampled: HashMap<usize, Vec<CommitCandidate>>,
    /// Transactions the vote permits so far (unanimous, closed under deps).
    permitted: HashSet<TxnId>,
    /// Union of same-epoch dependencies per transaction.
    deps: HashMap<TxnId, HashSet<TxnId>>,
    /// The durable prepares to run before the votes count: one disjoint
    /// batch of transactions (in id order) per participating shard.
    pub prepares: HashMap<usize, Vec<TxnId>>,
}

/// One transaction's coordinator-side record: which shards it touched and,
/// once decided, the 2PC decision.  It lives until the front door has
/// forgotten the transaction *and* every participant has acknowledged the
/// commit — so a verdict can neither vanish before the front door reads it
/// (recovery may collect every acknowledgement first) nor before a crashed
/// participant asks for it.
#[derive(Debug, Clone, Default)]
struct TxnEntry {
    touched: HashSet<usize>,
    /// `Some` once the coordinator decided to commit: the participants
    /// that have not yet acknowledged the commit durable.
    unacked: Option<HashSet<usize>>,
    /// The front door has not forgotten the transaction yet.
    open: bool,
}

impl TxnEntry {
    /// The transaction's shards, if it spans more than one.
    fn cross_shard(&self) -> Option<&HashSet<usize>> {
        (self.touched.len() > 1).then_some(&self.touched)
    }

    /// A commit decision some participant has yet to acknowledge.
    fn pending(&self) -> bool {
        self.unacked.as_ref().is_some_and(|u| !u.is_empty())
    }
}

/// Barrier, commit vote and decision log of one sharded deployment.  Its
/// `Debug` form is what the watchdog dumps; a clone is a fork of the whole
/// deployment's decision state (crash-point tests recover each fork).
#[derive(Debug, Clone, Default)]
pub struct Rendezvous {
    /// Which shards currently take part in the rendezvous.
    live: Vec<bool>,
    /// Shards parked for the current round.
    arrived: HashSet<usize>,
    /// Decided-but-uncollected permit lists.
    permits: HashMap<usize, Vec<TxnId>>,
    /// Completed rounds — the deployment's global epoch counter.
    round: u64,
    phase: Phase,
    /// Commit-request bursts in flight.
    intake: usize,
    txns: HashMap<TxnId, TxnEntry>,
    stopped: bool,
}

impl Rendezvous {
    /// A machine for `shards` shards, all initially live.
    pub fn new(shards: usize) -> Self {
        Rendezvous {
            live: vec![true; shards],
            ..Rendezvous::default()
        }
    }

    /// Number of completed global epochs.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether a decision is in flight (draining or preparing).
    pub fn deciding(&self) -> bool {
        self.phase != Phase::Gathering
    }

    /// The shards parked for the current round.
    pub fn arrived(&self) -> impl Iterator<Item = usize> + '_ {
        self.arrived.iter().copied()
    }

    /// Parks `shard` for the current round (unless it is dead or the
    /// deployment stopped) and returns the round it waits for.
    pub fn arrive(&mut self, shard: usize) -> u64 {
        if self.live[shard] && !self.stopped {
            self.arrived.insert(shard);
        }
        self.round + 1
    }

    /// What `shard`, parked for round `target`, should do now.  Exactly one
    /// shard is told to lead once every live shard has arrived, and only
    /// while no commit burst is in flight.
    pub fn poll(&mut self, shard: usize, target: u64) -> Poll {
        if self.round >= target {
            return Poll::Done(self.permits.remove(&shard).unwrap_or_default());
        }
        if self.stopped {
            return Poll::Passthrough;
        }
        if !self.live[shard] {
            return Poll::Excluded;
        }
        let all_arrived = (0..self.live.len()).all(|s| !self.live[s] || self.arrived.contains(&s));
        if self.phase == Phase::Gathering && all_arrived {
            self.phase = Phase::Draining(shard);
        }
        if self.phase == Phase::Draining(shard) && self.intake == 0 {
            Poll::Lead
        } else {
            Poll::Wait
        }
    }

    /// Opens a commit-request burst; refused (`false`) while a decision is
    /// draining, i.e. from the leader's election until its sample is frozen.
    pub fn intake_open(&mut self) -> bool {
        let open = !matches!(self.phase, Phase::Draining(_));
        self.intake += usize::from(open);
        open
    }

    /// Closes a burst opened by [`Rendezvous::intake_open`].
    pub fn intake_close(&mut self) {
        self.intake -= 1;
    }

    /// Freezes the leader's decision-time `samples` (one candidate list per
    /// arrived shard) into a tentative vote and names the durable prepares
    /// it needs.  Commit intake reopens.
    pub fn plan(&mut self, sampled: HashMap<usize, Vec<CommitCandidate>>) -> Plan {
        self.phase = Phase::Preparing(HashSet::new());
        // Which shards are ready to commit each transaction, and the union
        // of its same-epoch dependencies across shards.
        let mut ready: HashMap<TxnId, HashSet<usize>> = HashMap::new();
        let mut deps: HashMap<TxnId, HashSet<TxnId>> = HashMap::new();
        for (&shard, candidates) in &sampled {
            for candidate in candidates {
                ready.entry(candidate.txn).or_default().insert(shard);
                deps.entry(candidate.txn)
                    .or_default()
                    .extend(candidate.deps.iter().copied());
            }
        }
        // Unanimity: every shard the transaction touched must be live and
        // ready to commit it.  A transaction nobody registered is local to
        // the listing shard by construction.
        let unanimous = |txn: &TxnId, ready_on: &HashSet<usize>| {
            self.txns.get(txn).is_none_or(|entry| {
                let ready = |shard: &usize| self.live[*shard] && ready_on.contains(shard);
                entry.touched.iter().all(ready)
            })
        };
        let mut permitted: HashSet<TxnId> = ready
            .iter()
            .filter(|(txn, ready_on)| unanimous(txn, ready_on))
            .map(|(&txn, _)| txn)
            .collect();
        close_under_deps(&mut permitted, &deps);
        // One batch of prepare records per participant of each permitted
        // cross-shard transaction.
        let mut prepares: HashMap<usize, Vec<TxnId>> = HashMap::new();
        for &txn in &permitted {
            let touched = self.txns.get(&txn).and_then(TxnEntry::cross_shard);
            for &shard in touched.into_iter().flatten() {
                prepares.entry(shard).or_default().push(txn);
            }
        }
        prepares.values_mut().for_each(|txns| txns.sort_unstable());
        Plan {
            sampled,
            permitted,
            deps,
            prepares,
        }
    }

    /// Completes the round.  A failed prepare withholds its transaction's
    /// vote; so does every shard that died, recovered or withdrew after the
    /// sample — its epoch no longer commits what it listed, so nothing it
    /// listed may commit anywhere.  The survivors (re-closed under their
    /// dependencies) enter the decision log and every sampled shard that
    /// stayed gets its permit list.
    pub fn complete(&mut self, plan: Plan, prepare_failed: &HashSet<TxnId>) {
        let Phase::Preparing(departed) = std::mem::replace(&mut self.phase, Phase::Gathering)
        else {
            unreachable!("a Plan exists only while preparing");
        };
        let mut permitted = plan.permitted;
        permitted.retain(|txn| !prepare_failed.contains(txn));
        for shard in &departed {
            for candidate in plan.sampled.get(shard).into_iter().flatten() {
                permitted.remove(&candidate.txn);
            }
        }
        close_under_deps(&mut permitted, &plan.deps);
        for txn in &permitted {
            if let Some(entry) = self.txns.get_mut(txn) {
                entry.unacked = entry.cross_shard().cloned();
            }
        }
        for (shard, candidates) in plan.sampled {
            if !departed.contains(&shard) {
                let listed = candidates.into_iter().map(|c| c.txn);
                let permits = listed.filter(|txn| permitted.contains(txn)).collect();
                self.permits.insert(shard, permits);
            }
        }
        self.arrived.clear();
        self.round += 1;
    }

    /// Marks a shard live (recovered) or dead (crashed, stopping).  A dead
    /// shard is no longer waited for, which may complete the barrier.
    pub fn set_live(&mut self, shard: usize, alive: bool) {
        if self.live[shard] != alive {
            self.live[shard] = alive;
            self.withdraw(shard);
        }
    }

    /// `shard` stops waiting (its watchdog fired) or changed liveness: its
    /// arrival is void, an election that counted on the old picture is void
    /// (the next poll re-evaluates the barrier), and if its candidates are
    /// already sampled its votes are void too — refusing the withdrawal
    /// instead would leave no way out of a stalled prepare.
    pub fn withdraw(&mut self, shard: usize) {
        self.arrived.remove(&shard);
        match &mut self.phase {
            Phase::Gathering => {}
            Phase::Draining(_) => self.phase = Phase::Gathering,
            Phase::Preparing(departed) => {
                departed.insert(shard);
            }
        }
    }

    /// Disables the rendezvous for good: parked and future arrivals pass
    /// through.  A draining election is dropped; prepares already running
    /// still complete their round.
    pub fn stop(&mut self) {
        self.stopped = true;
        if matches!(self.phase, Phase::Draining(_)) {
            self.phase = Phase::Gathering;
        }
    }

    /// Records that `txn` has begun work on `shard`.
    pub fn register(&mut self, txn: TxnId, shard: usize) {
        let entry = self.txns.entry(txn).or_default();
        entry.touched.insert(shard);
        entry.open = true;
    }

    /// The front door is done with `txn`.
    pub fn forget(&mut self, txn: TxnId) {
        if let Some(entry) = self.txns.get_mut(&txn) {
            entry.open = false;
            self.retire(txn);
        }
    }

    /// Whether the coordinator decided to commit `txn` — the front door's
    /// verdict, true until [`Rendezvous::forget`] however many participants
    /// have acknowledged.
    pub fn was_committed(&self, txn: TxnId) -> bool {
        self.txns.get(&txn).is_some_and(|e| e.unacked.is_some())
    }

    /// The verdict a recovering shard gets for an in-doubt prepare: a
    /// commit decision still awaiting acknowledgements, or presumed abort.
    pub fn decision(&self, txn: TxnId) -> TxnDecision {
        if self.txns.get(&txn).is_some_and(TxnEntry::pending) {
            TxnDecision::Committed
        } else {
            TxnDecision::PresumedAborted
        }
    }

    /// `shard` made these transactions' commits durable (by its epoch
    /// commit, or by replaying them in recovery).  Ids without a pending
    /// decision are ignored.
    pub fn ack_durable(&mut self, shard: usize, txns: &[TxnId]) {
        for &txn in txns {
            if let Some(unacked) = self.txns.get_mut(&txn).and_then(|e| e.unacked.as_mut()) {
                unacked.remove(&shard);
                self.retire(txn);
            }
        }
    }

    /// Drops `txn`'s entry once nobody can ask about it any more.
    fn retire(&mut self, txn: TxnId) {
        if self.txns.get(&txn).is_some_and(|e| !e.open && !e.pending()) {
            self.txns.remove(&txn);
        }
    }

    /// Commit decisions still awaiting participant acknowledgements (a
    /// healthy deployment trends to zero).
    pub fn pending_decisions(&self) -> usize {
        self.txns.values().filter(|e| e.pending()).count()
    }
}

/// Shrinks `permitted` to its largest subset closed under `deps`: a
/// transaction whose dependency is denied would be cascade-aborted on the
/// shard that recorded the dependency, so permitting it elsewhere would
/// tear the commit.
fn close_under_deps(permitted: &mut HashSet<TxnId>, deps: &HashMap<TxnId, HashSet<TxnId>>) {
    loop {
        let denied = |txn: &&TxnId| {
            let deps = deps.get(*txn).into_iter().flatten();
            deps.into_iter().any(|dep| !permitted.contains(dep))
        };
        let dropped: Vec<TxnId> = permitted.iter().filter(denied).copied().collect();
        if dropped.is_empty() {
            return;
        }
        for txn in dropped {
            permitted.remove(&txn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard and its sampled candidates, each with its dependencies.
    type Listed<'a> = (usize, &'a [(TxnId, &'a [TxnId])]);

    /// One sampled candidate list per shard.
    fn samples(lists: &[Listed]) -> HashMap<usize, Vec<CommitCandidate>> {
        let candidate = |(txn, deps): &(TxnId, &[TxnId])| CommitCandidate {
            txn: *txn,
            deps: deps.to_vec(),
        };
        lists
            .iter()
            .map(|(shard, list)| (*shard, list.iter().map(candidate).collect()))
            .collect()
    }

    /// A machine whose transactions `txns` each touched all of `0..shards`.
    fn machine(shards: usize, txns: &[TxnId]) -> Rendezvous {
        let mut m = Rendezvous::new(shards);
        for &txn in txns {
            (0..shards).for_each(|shard| m.register(txn, shard));
        }
        m
    }

    /// Parks `shards` in order for round `target`; the last is told to lead.
    fn gather(m: &mut Rendezvous, shards: &[usize], target: u64) {
        let (leader, waiters) = shards.split_last().unwrap();
        for &shard in waiters {
            assert_eq!(m.arrive(shard), target);
            assert_eq!(m.poll(shard, target), Poll::Wait);
        }
        assert_eq!(m.arrive(*leader), target);
        assert_eq!(m.poll(*leader, target), Poll::Lead);
    }

    /// Gathers `0..shards`, plans `lists` and completes with no failure.
    fn decide(m: &mut Rendezvous, shards: usize, lists: &[Listed]) {
        let target = m.round() + 1;
        gather(m, &(0..shards).collect::<Vec<_>>(), target);
        let plan = m.plan(samples(lists));
        m.complete(plan, &HashSet::new());
    }

    #[test]
    fn single_shard_round_passes_candidates_through() {
        let mut m = machine(1, &[5]);
        decide(&mut m, 1, &[(0, &[(5, &[]), (6, &[])])]);
        assert_eq!(m.poll(0, 1), Poll::Done(vec![5, 6]));
        assert_eq!(m.round(), 1);
        assert_eq!(m.pending_decisions(), 0, "a local commit needs no 2PC");
    }

    #[test]
    fn a_cross_shard_txn_needs_every_touched_shard_to_list_it() {
        // 10 touched both shards but only shard 0 lists it; 11 is local to
        // shard 1; 7 is listed by both.
        let mut m = machine(2, &[10, 7]);
        m.register(11, 1);
        let target = 1;
        gather(&mut m, &[0, 1], target);
        assert_eq!(m.poll(0, target), Poll::Wait, "exactly one shard leads");
        let plan = m.plan(samples(&[
            (0, &[(10, &[]), (7, &[])]),
            (1, &[(11, &[]), (7, &[])]),
        ]));
        assert!(
            m.deciding(),
            "the decision stays in flight across the prepare I/O"
        );
        let both = HashMap::from([(0, vec![7]), (1, vec![7])]);
        assert_eq!(plan.prepares, both, "every participant logs a prepare");
        m.complete(plan, &HashSet::new());
        assert_eq!(m.poll(0, target), Poll::Done(vec![7]));
        assert_eq!(m.poll(1, target), Poll::Done(vec![11, 7]));
        assert_eq!(m.decision(7), TxnDecision::Committed);
        assert_eq!(
            m.decision(10),
            TxnDecision::PresumedAborted,
            "a denied transaction never enters the decision log"
        );
        assert!(!m.was_committed(10));
    }

    #[test]
    fn the_sample_is_taken_at_decision_time() {
        // Shard 0 parks with nothing to commit; txn 42's requests land on
        // both shards (inside one intake window) while it is parked.  What
        // counts is what the leader samples, not what was there on arrival.
        let mut m = machine(2, &[42]);
        assert_eq!(m.arrive(0), 1);
        assert_eq!(m.poll(0, 1), Poll::Wait);
        assert!(m.intake_open());
        m.intake_close();
        m.arrive(1);
        assert_eq!(m.poll(1, 1), Poll::Lead);
        let plan = m.plan(samples(&[(0, &[(42, &[])]), (1, &[(42, &[])])]));
        m.complete(plan, &HashSet::new());
        assert_eq!(m.poll(0, 1), Poll::Done(vec![42]));
        assert_eq!(m.poll(1, 1), Poll::Done(vec![42]));
    }

    #[test]
    fn no_burst_straddles_the_sample() {
        let mut m = machine(2, &[]);
        assert!(m.intake_open(), "intake is open while gathering");
        m.arrive(0);
        m.arrive(1);
        // Elected, but an open burst keeps the leader from sampling.
        assert_eq!(m.poll(1, 1), Poll::Wait);
        assert!(m.deciding());
        assert!(!m.intake_open(), "refused from the election on");
        assert_eq!(m.poll(0, 1), Poll::Wait, "nobody else takes over");
        m.intake_close();
        assert_eq!(m.poll(1, 1), Poll::Lead);
        assert!(!m.intake_open(), "refused until the sample is frozen");
        let plan = m.plan(samples(&[(0, &[]), (1, &[])]));
        assert!(m.intake_open(), "open again during the prepare I/O");
        m.intake_close();
        m.complete(plan, &HashSet::new());
        assert!(!m.deciding());
    }

    #[test]
    fn a_failed_prepare_withholds_the_vote_everywhere_and_recloses_dependents() {
        // 21 and 22 are unanimous; 22 read 21's uncommitted write on shard
        // 0; 23 is independent.  Shard 1's WAL refuses 21's prepare record.
        let mut m = machine(2, &[21, 22, 23]);
        gather(&mut m, &[0, 1], 1);
        let plan = m.plan(samples(&[
            (0, &[(21, &[]), (22, &[21]), (23, &[])]),
            (1, &[(21, &[]), (22, &[]), (23, &[])]),
        ]));
        m.complete(plan, &HashSet::from([21]));
        assert_eq!(m.poll(0, 1), Poll::Done(vec![23]));
        assert_eq!(m.poll(1, 1), Poll::Done(vec![23]));
        assert_eq!(m.decision(21), TxnDecision::PresumedAborted);
        assert_eq!(m.decision(22), TxnDecision::PresumedAborted);
        assert_eq!(m.decision(23), TxnDecision::Committed);
    }

    #[test]
    fn the_vote_is_closed_under_dependencies_before_any_prepare_is_planned() {
        // 31 lacks shard 1's vote; 32 observed 31's write on shard 0.
        let mut m = machine(2, &[31, 32]);
        gather(&mut m, &[0, 1], 1);
        let plan = m.plan(samples(&[
            (0, &[(31, &[]), (32, &[31])]),
            (1, &[(32, &[])]),
        ]));
        assert!(
            plan.prepares.is_empty(),
            "nothing permitted, nothing logged"
        );
        m.complete(plan, &HashSet::new());
        assert_eq!(m.poll(0, 1), Poll::Done(vec![]));
        assert_eq!(m.poll(1, 1), Poll::Done(vec![]));
    }

    #[test]
    fn a_shard_that_dies_during_the_prepare_io_loses_its_transactions_everywhere() {
        // 3 shards; 5 spans 0 and 1, 6 spans 1 and 2, 8 is local to shard 2
        // and 7 (on shards 1 and 2) read 5's uncommitted write on shard 1.
        let mut m = Rendezvous::new(3);
        for (txn, shards) in [(5, [0, 1]), (6, [1, 2]), (7, [1, 2])] {
            shards.iter().for_each(|&shard| m.register(txn, shard));
        }
        m.register(8, 2);
        gather(&mut m, &[0, 1, 2], 1);
        let plan = m.plan(samples(&[
            (0, &[(5, &[])]),
            (1, &[(5, &[]), (6, &[]), (7, &[5])]),
            (2, &[(6, &[]), (7, &[]), (8, &[])]),
        ]));
        // Shard 0 crashes — and even recovers — while the prepares run: its
        // epoch is gone either way, so 5 must not commit on shard 1, and 7,
        // which depends on it, nowhere.
        m.set_live(0, false);
        assert_eq!(m.poll(0, 1), Poll::Excluded);
        m.set_live(0, true);
        m.complete(plan, &HashSet::new());
        assert_eq!(m.poll(1, 1), Poll::Done(vec![6]));
        assert_eq!(m.poll(2, 1), Poll::Done(vec![6, 8]));
        assert_eq!(m.decision(5), TxnDecision::PresumedAborted);
        assert_eq!(m.decision(7), TxnDecision::PresumedAborted);
        assert_eq!(m.decision(6), TxnDecision::Committed);
    }

    #[test]
    fn a_watchdog_that_fires_after_the_sample_denies_its_transactions_everywhere() {
        let mut m = machine(2, &[5]);
        gather(&mut m, &[0, 1], 1);
        let plan = m.plan(samples(&[(0, &[(5, &[])]), (1, &[(5, &[])])]));
        // Shard 0 gives up: its epoch finalises with an empty permit set.
        m.withdraw(0);
        m.complete(plan, &HashSet::new());
        assert_eq!(m.poll(1, 1), Poll::Done(vec![]));
        assert_eq!(m.decision(5), TxnDecision::PresumedAborted);
        assert!(!m.was_committed(5));
        // It re-arrives at its next epoch, for the next round.
        decide(&mut m, 2, &[(0, &[]), (1, &[])]);
        assert_eq!(m.poll(0, 2), Poll::Done(vec![]));
    }

    #[test]
    fn a_withdrawal_before_the_sample_lets_the_same_round_decide_later() {
        let mut m = machine(2, &[8]);
        assert_eq!(m.arrive(0), 1);
        assert_eq!(m.poll(0, 1), Poll::Wait);
        m.withdraw(0);
        // Shard 1 alone does not complete the barrier ...
        assert_eq!(m.arrive(1), 1);
        assert_eq!(m.poll(1, 1), Poll::Wait);
        // ... nor does an election survive a withdrawal during the drain.
        assert!(m.intake_open());
        assert_eq!(m.arrive(0), 1);
        assert_eq!(m.poll(0, 1), Poll::Wait);
        assert!(m.deciding());
        m.withdraw(1);
        assert!(!m.deciding());
        m.intake_close();
        assert_eq!(m.poll(0, 1), Poll::Wait);
        // The re-arrival decides round 1 cleanly.
        m.arrive(1);
        assert_eq!(m.poll(1, 1), Poll::Lead);
        let plan = m.plan(samples(&[(0, &[(8, &[])]), (1, &[(8, &[])])]));
        m.complete(plan, &HashSet::new());
        assert_eq!(m.poll(0, 1), Poll::Done(vec![8]));
        assert_eq!(m.round(), 1);
    }

    #[test]
    fn stop_during_the_drain_releases_everyone_and_leaves_no_phase_behind() {
        let mut m = machine(2, &[]);
        assert!(m.intake_open());
        m.arrive(0);
        m.arrive(1);
        assert_eq!(m.poll(1, 1), Poll::Wait);
        assert!(m.deciding(), "draining");
        m.stop();
        assert!(!m.deciding());
        assert_eq!(m.poll(0, 1), Poll::Passthrough);
        assert_eq!(m.poll(1, 1), Poll::Passthrough);
        m.intake_close();
        assert!(m.intake_open(), "a stopped barrier never blocks intake");
        // Future arrivals pass through as well.
        let target = m.arrive(0);
        assert_eq!(m.poll(0, target), Poll::Passthrough);
        assert_eq!(m.round(), 0);
    }

    #[test]
    fn a_dead_shard_is_excluded_and_its_death_completes_a_waiting_round() {
        let mut m = machine(2, &[9]);
        m.register(1, 0);
        assert_eq!(m.arrive(0), 1);
        assert_eq!(m.poll(0, 1), Poll::Wait);
        m.set_live(1, false);
        let target = m.arrive(1);
        assert_eq!(m.poll(1, target), Poll::Excluded);
        // Shard 0 is now the whole barrier; 9 touched the dead shard.
        assert_eq!(m.poll(0, 1), Poll::Lead);
        let plan = m.plan(samples(&[(0, &[(9, &[]), (1, &[])])]));
        assert!(plan.prepares.is_empty());
        m.complete(plan, &HashSet::new());
        assert_eq!(m.poll(0, 1), Poll::Done(vec![1]));
        assert_eq!(m.round(), 1);
    }

    #[test]
    fn the_verdict_outlives_the_acks_and_dies_with_forget() {
        let mut m = machine(2, &[7]);
        decide(&mut m, 2, &[(0, &[(7, &[])]), (1, &[(7, &[])])]);
        assert_eq!(m.pending_decisions(), 1);
        // An ack for an id nobody decided (or knows) is ignored.
        m.ack_durable(0, &[99]);
        m.ack_durable(0, &[7]);
        assert_eq!(m.decision(7), TxnDecision::Committed);
        m.ack_durable(1, &[7]);
        // Recovery may collect every ack before the front door looks.
        assert_eq!(m.decision(7), TxnDecision::PresumedAborted);
        assert_eq!(m.pending_decisions(), 0);
        assert!(m.was_committed(7), "the verdict must outlive the acks");
        m.forget(7);
        assert!(!m.was_committed(7));
        assert!(m.txns.is_empty(), "nothing left to ask about");
    }

    #[test]
    fn a_decision_outlives_forget_until_every_participant_acknowledged() {
        let mut m = machine(2, &[4]);
        m.register(3, 0);
        m.forget(3);
        assert!(!m.txns.contains_key(&3), "forget clears the registration");
        decide(&mut m, 2, &[(0, &[(4, &[])]), (1, &[(4, &[])])]);
        m.forget(4);
        // A crashed participant may still ask at recovery time.
        assert_eq!(m.decision(4), TxnDecision::Committed);
        m.ack_durable(0, &[4]);
        m.ack_durable(1, &[4]);
        assert!(m.txns.is_empty());
    }

    #[test]
    fn rounds_advance_and_a_late_joiner_waits_for_the_next_one() {
        let mut m = machine(2, &[]);
        for round in 1..=3 {
            decide(&mut m, 2, &[(0, &[]), (1, &[])]);
            assert_eq!(m.poll(0, round), Poll::Done(vec![]));
            assert_eq!(m.round(), round);
        }
        // A shard that recovers while round 4's prepares run was not
        // sampled: it gets nothing from round 4 and is not counted as
        // parked for round 5.
        m.set_live(1, false);
        assert_eq!(m.arrive(0), 4);
        assert_eq!(m.poll(0, 4), Poll::Lead);
        let plan = m.plan(samples(&[(0, &[])]));
        m.set_live(1, true);
        assert_eq!(m.arrive(1), 4);
        assert_eq!(m.poll(1, 4), Poll::Wait);
        m.complete(plan, &HashSet::new());
        assert_eq!(m.poll(1, 4), Poll::Done(vec![]));
        assert_eq!(m.arrive(0), 5);
        assert_eq!(
            m.poll(0, 5),
            Poll::Wait,
            "shard 1 has not arrived for round 5"
        );
    }
}
