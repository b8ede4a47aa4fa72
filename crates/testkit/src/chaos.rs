//! Fault schedules and the one case runner for epoch fate sharing (§8).
//!
//! The paper's recovery guarantee: a transaction whose commit was
//! acknowledged is durable, one whose commit was not may disappear, and
//! nothing else happens.  A [`FaultCase`] is plain data — which side of a
//! cross-shard pair is the victim, what load runs through it, which fault
//! the load runs into, which crash points must interrupt the recovery —
//! [`schedule`] is the table of every named case, and [`run_case`] drives any
//! of them through one sequence (`DESIGN.md`, "Fault schedules"): seed, arm,
//! drive, crash, heal, recover, classify, re-crash, serializability, 2PC
//! decision drain.  Whether the stores are in-process [`FaultyStore`]s or
//! spawned `obladi-stored` daemons follows from the case's fault alone.
//!
//! The oracles see only what a client sees: begin/read/write/ack events
//! and post-recovery reads.  They check
//!
//! * **all-or-nothing** — after recovery a pair shows its seed or exactly
//!   one attempt's two values, never a torn mix;
//! * **acknowledged implies durable** — no acknowledged attempt is newer
//!   than the visible one (durability is in epoch order);
//! * **idempotence** — once every 2PC decision has retired, a further
//!   fault-free crash finds nothing in doubt and recovers the same state;
//! * **serializability** of the whole recorded history ([`crate::history`]).
//!
//! [`run_script_with_crash`] is the one thing the sharded runner cannot
//! cover: a single [`ObladiDb`] with no epoch gate in front of it, crashed
//! between the writes of a script.

use crate::history::{check_serializable, tag_value, History, TxnRecord};
use obladi_common::config::{ObladiConfig, ShardConfig, StorageBackend};
use obladi_common::error::{ObladiError, Result};
use obladi_common::rng::DetRng;
use obladi_common::types::{Key, Value};
use obladi_core::proxy::ObladiDb;
use obladi_core::{KvDatabase, KvTransaction, RecoveryReport};
use obladi_shard::ShardedDb;
use obladi_storage::wal::WalRecordKind;
use obladi_storage::{CrashOp, CrashPoint, FaultPlan, FaultyStore, InMemoryStore, UntrustedStore};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How long anything here keeps retrying or waiting before it reports a
/// failure.  A deadline, not a count: on a loaded machine a pipelined epoch
/// round can stall long enough that a fixed number of retries starves while
/// the system is merely slow, not wrong.
const PATIENCE: Duration = Duration::from_secs(20);

/// Runs `body` as one transaction of `db` until it commits, fails for good,
/// or [`PATIENCE`] runs out — the one retry rule of the harnesses and the
/// sharded tests.  Each round is the engine's own rule
/// ([`KvDatabase::execute_with_retries`], which waits out a spent epoch);
/// rounds are jittered apart so that a retry de-phases from the pipelined
/// epoch rhythm a cross-shard commit can keep colliding with.
pub fn commit_with_retries<D: KvDatabase, T>(
    db: &D,
    mut body: impl FnMut(&mut dyn KvTransaction) -> Result<T>,
) -> Result<T> {
    let deadline = Instant::now() + PATIENCE;
    let mut jitter = DetRng::new(0x7e57_3a11);
    loop {
        match db.execute_with_retries(4, &mut body) {
            Err(err) if err.is_retryable() && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1 + jitter.below(7)));
            }
            outcome => return outcome,
        }
    }
}

/// Reads `key` in a transaction of its own ([`commit_with_retries`]).
pub fn read_with_retries<D: KvDatabase>(db: &D, key: Key) -> Result<Option<Value>> {
    commit_with_retries(db, |txn| txn.read(key))
}

/// Polls `condition` until it holds; `Err` names what [`PATIENCE`] ran out on.
fn wait_for(what: &str, condition: impl Fn() -> bool) -> std::result::Result<(), String> {
    let deadline = Instant::now() + PATIENCE;
    while !condition() {
        if Instant::now() >= deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

// ----------------------------------------------------------------------
// The single-proxy script runner
// ----------------------------------------------------------------------

/// Result of one scripted run with an injected crash.
pub struct CrashRun {
    /// The recovered database, ready for post-crash assertions.
    pub db: ObladiDb,
    /// Writes whose commit was acknowledged before the run ended, in
    /// acknowledgement order.
    pub acknowledged: Vec<(Key, Value)>,
    /// Writes that were attempted but not acknowledged (aborted, failed, or
    /// swallowed by the crash).
    pub unacknowledged: Vec<(Key, Value)>,
    /// Index in the script at which the crash was injected.
    pub crash_point: usize,
}

impl CrashRun {
    /// The last acknowledged value of every key, i.e. what recovery must
    /// preserve.
    pub fn expected_state(&self) -> HashMap<Key, Value> {
        self.acknowledged.iter().cloned().collect()
    }

    /// Verifies that every acknowledged write survived recovery and that no
    /// key whose writes were all unacknowledged has resurfaced with an
    /// unacknowledged value.  A violation dumps the process-wide obs report
    /// so the failing sweep carries its own diagnosis.
    pub fn verify_durability(&self) -> std::result::Result<(), String> {
        let expected = self.expected_state();
        let check = || {
            for (key, value) in &expected {
                match read_with_retries(&self.db, *key) {
                    Ok(Some(found)) if &found == value => {}
                    Ok(found) => {
                        return Err(format!(
                            "key {key}: expected acknowledged value {value:?}, found {found:?}"
                        ))
                    }
                    Err(err) => {
                        return Err(format!("key {key}: read failed after recovery: {err}"))
                    }
                }
            }
            // No other writer exists in the script, so a key that only ever
            // saw unacknowledged writes must not show any of them.
            for (key, value) in &self.unacknowledged {
                let resurfaced = !expected.contains_key(key)
                    && read_with_retries(&self.db, *key).ok().flatten().as_ref() == Some(value);
                if resurfaced {
                    return Err(format!(
                        "key {key}: unacknowledged write {value:?} resurfaced after recovery"
                    ));
                }
            }
            Ok(())
        };
        check().inspect_err(|msg| {
            crate::dump_obs_report(&format!("crash point {}: {msg}", self.crash_point))
        })
    }
}

/// Writes `value` to `key` in its own transaction and reports whether the
/// commit was acknowledged.
pub fn put_acknowledged(db: &ObladiDb, key: Key, value: &[u8]) -> bool {
    db.execute(&mut |txn| txn.write(key, value.to_vec()))
        .is_ok()
}

/// Runs `script` (a list of key/value writes, one transaction each) against
/// a fresh database built from `config`, crashing and recovering the proxy
/// after `crash_after` writes have been attempted (at or past the script's
/// length: after the final write).  The returned [`CrashRun`] still owns the
/// recovered database; [`CrashRun::verify_durability`] is the standard
/// epoch-fate-sharing check.
pub fn run_script_with_crash(
    config: ObladiConfig,
    script: &[(Key, Value)],
    crash_after: usize,
) -> Result<CrashRun> {
    let mut run = CrashRun {
        db: ObladiDb::open(config)?,
        acknowledged: Vec::new(),
        unacknowledged: Vec::new(),
        crash_point: crash_after.min(script.len()),
    };
    for index in 0..=script.len() {
        if index == run.crash_point {
            run.db.crash();
            run.db.recover()?;
        }
        let Some((key, value)) = script.get(index) else {
            break;
        };
        let write = (*key, value.clone());
        if put_acknowledged(&run.db, *key, value) {
            run.acknowledged.push(write);
        } else {
            run.unacknowledged.push(write);
        }
    }
    Ok(run)
}

// ----------------------------------------------------------------------
// Fault cases
// ----------------------------------------------------------------------

/// The side of all-or-nothing a crash point determines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// The crash precedes the victim's durable vote: the transaction must
    /// abort and stay invisible everywhere.
    Abort,
    /// The vote was durable on every participant: the transaction must
    /// commit, and recovery must finish the crashed half.
    Commit,
}

/// What keeps the victim busy while the fault is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// One cross-shard transaction, retried until it is acknowledged or the
    /// fault fires.
    OneTxn,
    /// Two disjoint cross-shard pairs, both through the victim, committed to
    /// without pause from two threads, so that the crash lands with one
    /// epoch deciding and the next executing.
    Hammer,
}

/// The fault the load runs into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A sticky outage of the victim's in-process [`FaultyStore`] at this
    /// point; the victim fate-shares it into a crash.
    Store(CrashPoint),
    /// No outage: the victim is crashed explicitly once the acknowledged
    /// epoch's durable tail has drained.
    AfterDurableTail,
    /// `SIGKILL` of the victim's spawned `obladi-stored` daemon once the
    /// first pair has this many acknowledged commits — counted from outside,
    /// since a supervisor cannot count the ops inside another process; the
    /// daemon is respawned over its data directory before recovery.
    KillDaemon {
        /// Acknowledged commits on the first pair before the kill.
        after_acked: usize,
    },
}

/// One fault case.
#[derive(Debug, Clone)]
pub struct FaultCase {
    /// `family/side`, as assertion messages and the golden list name it.
    pub name: String,
    /// `false` = the shard owning the first pair's first key is the victim,
    /// `true` = the shard owning its second key.
    pub victim_second: bool,
    /// The load under which the fault fires.
    pub load: Load,
    /// The fault.
    pub fault: Fault,
    /// Crash points armed, one after the other, on the victim's store while
    /// it recovers: each must crash one recovery attempt before a fault-free
    /// attempt is allowed to finish.
    pub recovery_crashes: Vec<CrashPoint>,
    /// The outcome the point determines, where it does.
    pub expected: Option<Expected>,
}

/// Every named case: 22 families on either side of the pair.  `DESIGN.md`,
/// "Fault schedules", says what each family arms on, where it fires and
/// which invariant it exists for.
pub fn schedule() -> Vec<FaultCase> {
    use CrashOp::{AnyLogAppend, BucketWrite, LogAppendKind, SlotRead};
    use Expected::{Abort, Commit};
    use Load::{Hammer, OneTxn};
    let prepare = WalRecordKind::Prepare.tag();
    let decision = WalRecordKind::Decision.tag();
    let path_log = LogAppendKind(WalRecordKind::PathLog.tag());
    let epoch_commit = WalRecordKind::EpochCommit.tag();
    let after = |arm, on, nth| Fault::Store(CrashPoint::after_log_kind(arm, on, nth));
    let kill = |after_acked| Fault::KillDaemon { after_acked };
    let vote_lost = Fault::Store(CrashPoint::on_log_kind(prepare, 1));
    let commit_lost = after(prepare, LogAppendKind(epoch_commit), 1);
    // The replay only becomes real with the epoch-commit record, so that
    // append is where an interrupted recovery hurts most.
    let replay = [CrashPoint::on_log_kind(epoch_commit, 1)];
    // One row per family: name, load, fault under load, crash points that
    // must interrupt the recovery, determined outcome.
    type Row<'a> = (&'a str, Load, Fault, &'a [CrashPoint], Option<Expected>);
    #[rustfmt::skip]
    let families: [Row; 22] = [
        // The 2PC sequence of one transaction: prepare (the durable vote),
        // decision (the acknowledgement), write-back, checkpoint, commit
        // record.
        ("prepare-append-fails",    OneTxn, vote_lost,                        &[], Some(Abort)),
        ("voted-before-write-back", OneTxn, after(prepare, BucketWrite, 1),   &[], Some(Commit)),
        ("voted-mid-write-back",    OneTxn, after(prepare, BucketWrite, 3),   &[], Some(Commit)),
        ("voted-before-checkpoint", OneTxn, after(prepare, AnyLogAppend, 1),  &[], Some(Commit)),
        ("acked-before-write-back", OneTxn, after(decision, BucketWrite, 1),  &[], Some(Commit)),
        ("acked-before-checkpoint", OneTxn, after(decision, AnyLogAppend, 1), &[], Some(Commit)),
        ("commit-record-lost",      OneTxn, commit_lost,                      &[], Some(Commit)),
        ("after-durable-commit",    OneTxn, Fault::AfterDurableTail,          &[], Some(Commit)),
        ("replay-interrupted",      OneTxn, commit_lost,                  &replay, Some(Commit)),
        // The decide/execute overlap of the pipelined epoch barrier.
        ("deciding-while-next-reads",   Hammer, after(prepare, path_log, 1),      &[], None),
        ("deciding-deep-in-next-reads", Hammer, after(prepare, path_log, 3),      &[], None),
        ("write-back-vs-next-reads",    Hammer, after(prepare, BucketWrite, 4),   &[], None),
        ("decided-next-epoch-in-doubt", Hammer, after(epoch_commit, path_log, 2), &[], None),
        // The split client: read plane and write-back engine on two threads.
        ("engine-eviction-reads-vs-next-reads", Hammer, after(prepare, SlotRead, 3),    &[], None),
        ("deep-overlap-slot-reads",             Hammer, after(prepare, SlotRead, 40),   &[], None),
        ("writeback-engine-first-flush-write",  Hammer, after(prepare, BucketWrite, 1), &[], None),
        ("writeback-engine-deep-flush",         Hammer, after(prepare, BucketWrite, 9), &[], None),
        // The maintenance wave: every owed path logged, then one fetch.
        ("wave-logged-not-fetched", Hammer, after(decision, SlotRead, 1),  &[], None),
        ("wave-nth-slot-read",      Hammer, after(decision, SlotRead, 25), &[], None),
        // A real process boundary.
        ("stored-kill9-after-0-acked", Hammer, kill(0), &[], None),
        ("stored-kill9-after-1-acked", Hammer, kill(1), &[], None),
        ("stored-kill9-after-3-acked", Hammer, kill(3), &[], None),
    ];
    let mut cases = Vec::new();
    for (victim_second, side) in [(false, "first"), (true, "second")] {
        for (family, load, fault, recovery_crashes, expected) in families {
            cases.push(FaultCase {
                name: format!("{family}/{side}"),
                victim_second,
                load,
                fault,
                recovery_crashes: recovery_crashes.to_vec(),
                expected,
            });
        }
    }
    cases
}

/// The case of [`schedule`] called `name`.
pub fn case(name: &str) -> FaultCase {
    let found = schedule().into_iter().find(|case| case.name == name);
    found.unwrap_or_else(|| panic!("case {name} missing from the schedule"))
}

/// What one case observed once every invariant had passed.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The case name.
    pub name: String,
    /// Whether the fault fired: the store's trigger tripped, or the explicit
    /// crash or the kill was delivered.
    pub tripped: bool,
    /// Whether the front door acknowledged a commit of the first pair under
    /// load.
    pub acknowledged_commit: bool,
    /// Whether the first pair showed an attempt's values after recovery (not
    /// its seed).
    pub committed_visible: bool,
    /// The victim's first fault-free recovery: `in_doubt`,
    /// `replayed_commits`, `epochs_replayed` (2 = the crash caught both
    /// pipeline stages with logged reads).
    pub recovery: RecoveryReport,
    /// Acknowledged commits under load, per pair.
    pub acked: Vec<usize>,
    /// Commit attempts under load, per pair.
    pub attempts: Vec<usize>,
    /// 2PC decisions still pending at the end (0: the runner waits for the
    /// drain and fails the case otherwise).
    pub pending_decisions_after: usize,
    /// The victim daemon's pid before the kill and after the respawn.
    pub pids: Option<(u32, u32)>,
}

/// One commit attempt on a pair: the tagged values it wrote, and whether the
/// front door acknowledged the commit.
#[derive(Debug, Clone)]
struct PairAttempt {
    /// The values written to the pair's first and second key.
    values: (Value, Value),
    /// Whether the front door acknowledged the commit.
    acked: bool,
}

/// A post-recovery read of a pair.
type Observed = (Option<Value>, Option<Value>);

fn acked(attempts: &[PairAttempt]) -> usize {
    attempts.iter().filter(|attempt| attempt.acked).count()
}

/// Finds two keys the deployment routes to different shards.
pub fn cross_shard_pair(db: &ShardedDb) -> (Key, Key) {
    cross_shard_pair_through(db, db.router().route(0), 0)
}

/// A cross-shard pair whose first key lives on `shard` and whose second does
/// not, scanning from `start` (so that disjoint pairs can be carved out of
/// one deployment).
fn cross_shard_pair_through(db: &ShardedDb, shard: usize, start: Key) -> (Key, Key) {
    let first = (start..start + 10_000)
        .find(|&key| db.router().route(key) == shard)
        .expect("router sent 10k consecutive keys away from one shard");
    let second = (first + 1..first + 10_000)
        .find(|&key| db.router().route(key) != shard)
        .expect("router sent 10k consecutive keys to one shard");
    (first, second)
}

/// The one loop that commits tagged values to a pair: attempt after attempt
/// until `stop` holds, recording *every* attempt, acknowledged or not — an
/// unacknowledged one may still have committed if the crash ate the
/// acknowledgement, and [`classify`] must be able to attribute it.
fn drive_pair(
    db: &ShardedDb,
    (a, b): (Key, Key),
    tag: &[u8],
    stop: &dyn Fn(&[PairAttempt]) -> bool,
) -> (History, Vec<PairAttempt>) {
    let mut history = History::new();
    let mut attempts = Vec::new();
    while !stop(&attempts) {
        // A virgin transaction may be transparently re-stamped; the first
        // successful operation pins the id the tags must carry.
        let pinned = db.begin().and_then(|mut txn| Ok((txn.read(a)?, txn)));
        let Ok((seen, mut txn)) = pinned else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        let mut record = TxnRecord::new(txn.id());
        let seq = 2 * attempts.len() as u32;
        let values = (
            tag_value(record.id, seq, tag),
            tag_value(record.id, seq + 1, tag),
        );
        record.read(a, seen);
        record.write(a, values.0.clone());
        record.write(b, values.1.clone());
        let committed = txn
            .write(a, values.0.clone())
            .and_then(|()| txn.write(b, values.1.clone()))
            .and_then(|()| txn.commit_reported());
        match committed {
            // A twin rebuild may have re-stamped the transaction: the id it
            // finally serialized under is its version-order position.
            Ok((final_id, outcome)) if outcome.is_committed() => record.commit(final_id),
            _ => record.abort(),
        }
        attempts.push(PairAttempt {
            values,
            acked: record.committed,
        });
        history.push(record);
    }
    (history, attempts)
}

/// Reads both keys of `pair` in one front-door transaction, recording the
/// read in `history`.
fn read_pair(db: &ShardedDb, (a, b): (Key, Key), history: &mut History) -> Result<Observed> {
    let (id, observed) = commit_with_retries(db, |txn| {
        let observed = (txn.read(a)?, txn.read(b)?);
        Ok((txn.id(), observed))
    })?;
    let mut record = TxnRecord::new(id);
    record.read(a, observed.0.clone());
    record.read(b, observed.1.clone());
    record.commit(id);
    history.push(record);
    Ok(observed)
}

/// The one classifier.  A pair must show its seed or exactly one attempt's
/// two values (all-or-nothing per epoch), and no acknowledged attempt may be
/// newer than what it shows (acknowledged implies durable, and durability is
/// in epoch order).  Returns the visible attempt's index, `None` for the seed.
fn classify(
    observed: &Observed,
    seed: &(Value, Value),
    attempts: &[PairAttempt],
) -> std::result::Result<Option<usize>, String> {
    let shows = |values: &(Value, Value)| {
        observed.0.as_ref() == Some(&values.0) && observed.1.as_ref() == Some(&values.1)
    };
    let visible = attempts.iter().position(|attempt| shows(&attempt.values));
    if visible.is_none() && !shows(seed) {
        return Err(format!("torn after recovery: {observed:?}"));
    }
    match attempts.iter().rposition(|attempt| attempt.acked) {
        Some(last_acked) if visible.is_none_or(|index| index < last_acked) => Err(format!(
            "lost an acknowledged commit: visible {visible:?}, last acked {last_acked}"
        )),
        _ => Ok(visible),
    }
}

/// A 3-shard deployment for `case`: spawned `obladi-stored` daemons where
/// the fault is a process kill, in-memory stores behind one [`FaultyStore`]
/// per shard (returned, indexed by shard) otherwise.
fn open_deployment(case: &FaultCase, seed: u64) -> Result<(ShardedDb, Vec<Arc<FaultyStore>>)> {
    let mut config = ShardConfig::small_for_tests(3, 512);
    config.shard.epoch.batch_interval = Duration::from_millis(1);
    config.shard.epoch.checkpoint_every = 3;
    config.shard.seed = seed;
    if matches!(case.fault, Fault::KillDaemon { .. }) {
        let config = config.with_storage(StorageBackend::RemoteSpawned);
        return Ok((ShardedDb::open(config)?, Vec::new()));
    }
    let faults: Vec<Arc<FaultyStore>> = (0..config.shards as u64)
        .map(|index| {
            let store = Arc::new(InMemoryStore::new());
            let seed = seed ^ ((index + 1) * 0x9E37);
            Arc::new(FaultyStore::new(store, FaultPlan::none(), seed))
        })
        .collect();
    let stores = faults.iter().map(|f| f.clone() as Arc<dyn UntrustedStore>);
    let db = ShardedDb::open_with_stores(config, stores.collect())?;
    Ok((db, faults))
}

/// Drives one case end to end and checks every invariant of the module
/// docs; the report is for assertions on top.
pub fn run_case(case: &FaultCase, seed: u64) -> Result<CaseReport> {
    let violation = |msg: String| {
        crate::dump_obs_report(&case.name);
        ObladiError::Internal(format!("[{}] {msg}", case.name))
    };
    let (db, faults) = open_deployment(case, seed)?;
    let db = &db;
    let first = cross_shard_pair(db);
    let victim = if case.victim_second { first.1 } else { first.0 };
    let victim = db.router().route(victim);
    let mut pairs = vec![first];
    if case.load == Load::Hammer {
        pairs.push(cross_shard_pair_through(db, victim, first.1 + 1));
    }
    // The victim's fault injector; a spawned daemon has none.
    let injector = faults.get(victim);
    if injector.is_none() && !case.recovery_crashes.is_empty() {
        let msg = "a crash point in the recovery needs the in-process store";
        return Err(violation(msg.into()));
    }
    let arm = |plan: FaultPlan| {
        if let Some(injector) = injector {
            injector.set_plan(plan)
        }
    };
    let mut history = History::new();

    // 1. Seed every pair while nothing is armed.
    let mut seeds = Vec::new();
    for (index, &pair) in pairs.iter().enumerate() {
        let deadline = Instant::now() + PATIENCE;
        let done = |attempts: &[PairAttempt]| acked(attempts) > 0 || Instant::now() >= deadline;
        let (seeded, attempts) = drive_pair(db, pair, b"seed", &done);
        history.extend(seeded);
        match attempts.last() {
            Some(last) if last.acked => seeds.push(last.values.clone()),
            _ => return Err(violation(format!("failed to seed pair {index}"))),
        }
    }
    let pid_before = db.storage_daemon_pid(victim);

    // 2. Arm the fault.  3. Drive the load into it: the first pair on this
    // thread, a second one on a thread of its own.
    if let Fault::Store(point) = case.fault {
        arm(FaultPlan::crash_at(point));
    }
    let kill = OnceLock::new();
    // The backstop keeps a fault that never fires from spinning the load
    // forever: the checks below then fail loudly instead of the case hanging.
    let deadline = Instant::now() + 3 * PATIENCE;
    let stop = |index: usize, attempts: &[PairAttempt]| {
        let fired = match case.fault {
            Fault::Store(_) => injector.is_some_and(|injector| injector.has_tripped()),
            Fault::AfterDurableTail => acked(attempts) > 0,
            Fault::KillDaemon { after_acked } => {
                if index == 0 && acked(attempts) >= after_acked {
                    kill.get_or_init(|| db.kill_shard_storage(victim));
                }
                kill.get().is_some() && db.is_shard_crashed(victim)
            }
        };
        let done = case.load == Load::OneTxn && acked(attempts) > 0;
        fired || done || Instant::now() >= deadline
    };
    let drive = |index: usize| {
        let tag = format!("pair{index}");
        let stop = |attempts: &[PairAttempt]| stop(index, attempts);
        drive_pair(db, pairs[index], tag.as_bytes(), &stop)
    };
    let driven: Vec<(History, Vec<PairAttempt>)> = std::thread::scope(|scope| {
        let second = (pairs.len() > 1).then(|| scope.spawn(move || drive(1)));
        let mut driven = vec![drive(0)];
        driven.extend(second.map(|thread| thread.join().expect("load thread panicked")));
        driven
    });
    let (histories, attempts): (Vec<History>, Vec<Vec<PairAttempt>>) = driven.into_iter().unzip();
    histories.into_iter().for_each(|h| history.extend(h));

    // 4. Reach the crash: an outage or a dead daemon fate-shares into one,
    // and only the victim goes down.
    let acknowledged_commit = acked(&attempts[0]) > 0;
    let crashed = || db.is_shard_crashed(victim);
    let tripped = match case.fault {
        Fault::AfterDurableTail => {
            if !acknowledged_commit {
                return Err(violation("the transaction never committed".into()));
            }
            // The acknowledgement leads the epoch's durable tail (it is
            // handed out at decision durability).  Once two further global
            // epochs have published, the acked epoch's commit record is
            // durable by WAL order: a later epoch's records are only
            // accepted behind its predecessor's frontier.
            let settled = db.stats().global_epochs + 2;
            let tail = || db.stats().global_epochs >= settled;
            wait_for("the acked epoch's durable tail", tail).map_err(violation)?;
            db.crash_shard(victim);
            true
        }
        Fault::Store(_) => {
            wait_for("the victim shard to self-crash", crashed).map_err(violation)?;
            injector.is_some_and(|injector| injector.has_tripped())
        }
        Fault::KillDaemon { after_acked } => {
            match kill.get() {
                Some(Ok(())) => {}
                Some(Err(err)) => return Err(violation(format!("kill failed: {err}"))),
                None => {
                    return Err(violation(format!(
                        "only {} acknowledged commits before the deadline (case needs \
                         {after_acked})",
                        acked(&attempts[0])
                    )))
                }
            }
            wait_for("the daemon kill to fate-share into a crash", crashed).map_err(violation)?;
            true
        }
    };
    if let Some(shard) = (0..db.shards()).find(|&s| s != victim && db.is_shard_crashed(s)) {
        return Err(violation(format!(
            "shard {shard} crashed, but only {victim} was faulted"
        )));
    }

    // 5. Heal: a killed daemon comes back as a new process over the same
    // data directory (rebuilding acknowledged state by op-log replay).
    let mut pids = None;
    if let Fault::KillDaemon { .. } = case.fault {
        db.respawn_shard_storage(victim)?;
        pids = pid_before.zip(db.storage_daemon_pid(victim));
        if pids.is_none_or(|(before, after)| before == after) {
            return Err(violation(format!(
                "respawn produced no new process: {pids:?}"
            )));
        }
    }

    // 6. Recover — through every crash the case plants in the recovery
    // itself, then fault-free.
    for &point in &case.recovery_crashes {
        arm(FaultPlan::crash_at(point));
        if db.recover_shard(victim).is_ok() {
            return Err(violation(format!(
                "recovery should have crashed at {point:?}"
            )));
        }
    }
    arm(FaultPlan::none());
    let recovery = db.recover_shard(victim)?;

    // 7. Classify what every pair shows now.
    let observe = |history: &mut History| -> Result<Vec<Observed>> {
        let reads = pairs.iter().map(|&pair| read_pair(db, pair, history));
        reads.collect()
    };
    let observed = observe(&mut history)?;
    let mut visible = Vec::new();
    for (index, seen) in observed.iter().enumerate() {
        let verdict = classify(seen, &seeds[index], &attempts[index]);
        visible.push(verdict.map_err(|msg| violation(format!("pair {index} {msg}")))?);
    }
    let committed_visible = visible[0].is_some();
    match case.expected {
        Some(Expected::Abort) if committed_visible => {
            let msg = "the crash precedes the durable vote, yet the commit survived";
            return Err(violation(msg.into()));
        }
        Some(Expected::Commit) if !committed_visible => {
            let msg = "the vote was durable on every participant, yet the commit was lost";
            return Err(violation(msg.into()));
        }
        _ => {}
    }

    // 8. Re-crash.  The reads above were cross-shard commits of their own,
    // acknowledged at their decision; once every decision has retired their
    // epochs are durable too, so a fault-free crash must find nothing in
    // doubt and recover the very same state.
    let drained = || db.pending_decisions() == 0;
    wait_for("every 2PC decision to retire", drained).map_err(violation)?;
    db.crash_shard(victim);
    let again = db.recover_shard(victim)?;
    if again.in_doubt != 0 {
        return Err(violation(format!(
            "in doubt after a durable recovery: {again:?}"
        )));
    }
    let observed_again = observe(&mut history)?;
    if observed_again != observed {
        return Err(violation(format!(
            "recovery is not idempotent: {observed:?} then {observed_again:?}"
        )));
    }

    // 9. The whole observed history must be serializable.
    check_serializable(&history)
        .map_err(|violations| violation(format!("history not serializable: {violations:?}")))?;

    // 10. Every 2PC decision must retire: participants acknowledge on their
    // epoch-driver threads (or during recovery), so wait rather than sample.
    wait_for("every 2PC decision to retire", drained).map_err(violation)?;
    db.shutdown();
    Ok(CaseReport {
        name: case.name.clone(),
        tripped,
        acknowledged_commit,
        committed_visible,
        recovery,
        acked: attempts.iter().map(|pair| acked(pair)).collect(),
        attempts: attempts.iter().map(Vec::len).collect(),
        pending_decisions_after: db.pending_decisions(),
        pids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ObladiConfig {
        let mut config = ObladiConfig::small_for_tests(1_024);
        config.epoch.read_batches = 2;
        config.epoch.read_batch_size = 8;
        config.epoch.write_batch_size = 16;
        config.epoch.batch_interval = Duration::from_millis(1);
        config.epoch.checkpoint_every = 2;
        config
    }

    fn script(len: u64) -> Vec<(Key, Value)> {
        (0..len)
            .map(|i| (i % 7, format!("value-{i}").into_bytes()))
            .collect()
    }

    #[test]
    fn crash_in_the_middle_preserves_acknowledged_writes() {
        let run = run_script_with_crash(config(), &script(12), 6).unwrap();
        assert_eq!(run.crash_point, 6);
        assert_eq!(
            run.acknowledged.len() + run.unacknowledged.len(),
            12,
            "every scripted write must be classified"
        );
        run.verify_durability().unwrap();
        run.db.shutdown();
    }

    #[test]
    fn crash_before_any_write_leaves_an_empty_database() {
        let run = run_script_with_crash(config(), &script(4), 0).unwrap();
        run.verify_durability().unwrap();
        run.db.shutdown();
    }

    #[test]
    fn crash_after_the_last_write_preserves_everything_acknowledged() {
        let run = run_script_with_crash(config(), &script(5), 64).unwrap();
        assert_eq!(run.crash_point, 5);
        run.verify_durability().unwrap();
        run.db.shutdown();
    }

    #[test]
    fn read_with_retries_surfaces_missing_keys_as_none() {
        let db = ObladiDb::open(config()).unwrap();
        assert_eq!(read_with_retries(&db, 999).unwrap(), None);
        assert!(put_acknowledged(&db, 1, b"present"));
        assert_eq!(
            read_with_retries(&db, 1).unwrap(),
            Some(b"present".to_vec())
        );
        db.shutdown();
    }

    #[test]
    fn retries_stop_at_a_permanent_error() {
        let db = ObladiDb::open(config()).unwrap();
        let mut rounds = 0;
        let outcome: Result<()> = commit_with_retries(&db, |_txn| {
            rounds += 1;
            Err(ObladiError::Internal("permanent".into()))
        });
        assert!(outcome.is_err());
        assert_eq!(rounds, 1);
        db.shutdown();
    }

    // --- The oracle itself. ---

    fn pair(tag: u8) -> (Value, Value) {
        (vec![tag, 0], vec![tag, 1])
    }

    fn attempt(tag: u8, acked: bool) -> PairAttempt {
        PairAttempt {
            values: pair(tag),
            acked,
        }
    }

    fn shows(values: (Value, Value)) -> Observed {
        (Some(values.0), Some(values.1))
    }

    fn verdict(observed: Observed, attempts: &[PairAttempt]) -> Option<usize> {
        classify(&observed, &pair(0), attempts).unwrap()
    }

    fn refusal(observed: Observed, attempts: &[PairAttempt]) -> String {
        classify(&observed, &pair(0), attempts).unwrap_err()
    }

    #[test]
    fn the_classifier_accepts_all_or_nothing_and_rejects_the_rest() {
        let (lost, won) = (attempt(1, false), attempt(2, true));
        let both = [lost.clone(), won.clone()];
        // The seed, as long as nothing was acknowledged.
        assert_eq!(verdict(shows(pair(0)), &[]), None);
        assert_eq!(verdict(shows(pair(0)), &both[..1]), None);
        // One attempt's two values.
        assert_eq!(verdict(shows(pair(2)), &both), Some(1));
        // Unacknowledged but committed: the crash ate the acknowledgement —
        // also when it is newer than the last acknowledged one.
        assert_eq!(verdict(shows(pair(1)), &both[..1]), Some(0));
        assert_eq!(verdict(shows(pair(1)), &[won.clone(), lost]), Some(1));
        // A torn pair, a value nobody wrote, a half that is missing.
        let torn = (Some(pair(2).0), Some(pair(0).1));
        assert!(refusal(torn, &both).contains("torn"));
        assert!(refusal(shows(pair(9)), &both).contains("torn"));
        assert!(refusal((Some(pair(2).0), None), &both).contains("torn"));
        // An acknowledged attempt newer than what is visible: an older
        // attempt, or the seed.
        let lost_ack = "lost an acknowledged commit";
        assert!(refusal(shows(pair(1)), &both).contains(lost_ack));
        assert!(refusal(shows(pair(0)), &[won]).contains(lost_ack));
    }

    /// Every case name, sorted within its partition: a crash point cannot
    /// drop out of the sweeps silently.  The first 16 + 20 + 6 are PR 22's
    /// `crash_schedule`, `overlap_crash_schedule` and `proc_kill_schedule`.
    const ONE_TXN: [&str; 9] = [
        "acked-before-checkpoint",
        "acked-before-write-back",
        "after-durable-commit",
        "commit-record-lost",
        "prepare-append-fails",
        "replay-interrupted",
        "voted-before-checkpoint",
        "voted-before-write-back",
        "voted-mid-write-back",
    ];
    const OVERLAP: [&str; 10] = [
        "decided-next-epoch-in-doubt",
        "deciding-deep-in-next-reads",
        "deciding-while-next-reads",
        "deep-overlap-slot-reads",
        "engine-eviction-reads-vs-next-reads",
        "wave-logged-not-fetched",
        "wave-nth-slot-read",
        "write-back-vs-next-reads",
        "writeback-engine-deep-flush",
        "writeback-engine-first-flush-write",
    ];
    const KILLS: [&str; 3] = [
        "stored-kill9-after-0-acked",
        "stored-kill9-after-1-acked",
        "stored-kill9-after-3-acked",
    ];

    #[test]
    fn the_schedule_is_the_golden_list() {
        let golden = |families: &[&str]| {
            let mut names: Vec<String> = families
                .iter()
                .flat_map(|family| [format!("{family}/first"), format!("{family}/second")])
                .collect();
            names.sort();
            names
        };
        let partition = |wanted: fn(&FaultCase) -> bool| {
            let mut names: Vec<String> = schedule()
                .into_iter()
                .filter(wanted)
                .map(|case| case.name)
                .collect();
            names.sort();
            names
        };
        assert_eq!(partition(|c| c.load == Load::OneTxn), golden(&ONE_TXN));
        assert_eq!(
            partition(|c| c.load == Load::Hammer && matches!(c.fault, Fault::Store(_))),
            golden(&OVERLAP)
        );
        assert_eq!(
            partition(|c| matches!(c.fault, Fault::KillDaemon { .. })),
            golden(&KILLS)
        );
        assert_eq!(schedule().len(), 2 * (9 + 10 + 3));
        // What the point determines, and what interrupts the recovery.
        for case in schedule() {
            let family = case.name.split('/').next().unwrap();
            let expected = match family {
                "prepare-append-fails" => Some(Expected::Abort),
                _ if case.load == Load::OneTxn => Some(Expected::Commit),
                _ => None,
            };
            assert_eq!(case.expected, expected, "{}", case.name);
            assert_eq!(case.victim_second, case.name.ends_with("/second"));
            let interrupted = usize::from(family == "replay-interrupted");
            assert_eq!(case.recovery_crashes.len(), interrupted, "{}", case.name);
        }
        assert_eq!(
            case("commit-record-lost/second").fault,
            case("replay-interrupted/first").fault
        );
    }
}
