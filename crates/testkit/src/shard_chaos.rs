//! Deterministic crash-schedule explorer for the sharded 2PC commit path.
//!
//! `chaos` sweeps crash points over a *single-proxy* workload; this module
//! does the same for the cross-shard commit protocol of `obladi-shard`.
//! The protocol on each participant of a cross-shard transaction runs, in
//! order:
//!
//! 1. append the `Prepare{txn, epoch, write set}` record to the WAL (the
//!    vote becomes durable),
//! 2. the coordinator decides and permits the transaction,
//! 3. appends the epoch's `Decision` record (committed set + merged
//!    writes) and *acknowledges* the commit to parked clients,
//! 4. the shard writes its epoch's bucket write-back,
//! 5. appends the epoch checkpoint,
//! 6. appends the epoch-commit marker (the epoch's durable tail),
//! 7. publishes the remaining outcomes.
//!
//! A crash between step 1 and step 6 on one participant, with the peers
//! completing step 6, is exactly the window the durable-prepare protocol
//! exists for — and a crash after step 3 is the window the early
//! acknowledgement leans on: the ack has been handed out, so recovery
//! *must* replay the decided epoch from the decision record alone.  [`crash_schedule`] enumerates a [`CrashPoint`] for every
//! interleaving boundary (on either participant), and
//! [`run_shard_crash_case`] drives a 2-of-3-shard transaction into the
//! chosen point using a [`FaultyStore`] trigger, recovers the victim, and
//! checks the three invariants that define correctness here:
//!
//! * **All-or-nothing.**  After recovery the transaction's writes are
//!   visible on *all* of its shards or on *none* — never torn.
//! * **Acknowledged implies durable.**  If the front door acknowledged the
//!   commit, the writes survive the crash.
//! * **Serializability.**  The full recorded history (seeding, every
//!   attempt, post-recovery reads) passes the DSG oracle of [`history`].
//!
//! Each case also re-crashes and re-recovers the victim once more with no
//! faults, asserting the recovered state is stable — recovery idempotence.
//!
//! [`history`]: crate::history

use crate::history::{check_serializable, tag_value, History, TxnRecord};
use obladi_common::config::ShardConfig;
use obladi_common::error::{ObladiError, Result};
use obladi_common::types::{Key, TxnId, Value};
use obladi_shard::ShardedDb;
use obladi_storage::wal::WalRecordKind;
use obladi_storage::{CrashOp, CrashPoint, FaultPlan, FaultyStore, InMemoryStore, UntrustedStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the schedule expects of the transaction driven into a crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// The crash fires before the victim's vote becomes durable, so the
    /// transaction must abort (and stay invisible everywhere).
    Abort,
    /// The vote was durable on every participant, so the transaction must
    /// commit (and recovery must finish the crashed half).
    Commit,
}

/// One crash case: where the fault lives and when it fires.
#[derive(Debug, Clone)]
pub struct ShardCrashCase {
    /// Human-readable crash-point name (used in assertion messages).
    pub name: &'static str,
    /// `false` = the shard owning the first key of the pair crashes,
    /// `true` = the shard owning the second key.
    pub victim_second: bool,
    /// The deterministic trigger, or `None` to crash the victim explicitly
    /// after the commit is acknowledged (the fully durable point).
    pub trigger: Option<CrashPoint>,
    /// The all-or-nothing side the case must land on.
    pub expected: Expected,
}

/// What one crash case observed; the invariants have already been checked
/// by [`run_shard_crash_case`], this is for reporting and extra assertions.
#[derive(Debug, Clone)]
pub struct ShardCrashReport {
    /// The case name.
    pub name: &'static str,
    /// Whether the front door acknowledged the commit.
    pub acknowledged_commit: bool,
    /// Whether the crash trigger actually fired (always true for explicit
    /// post-acknowledgement crashes).
    pub tripped: bool,
    /// Whether the transaction's writes were visible (on both shards) after
    /// recovery.
    pub committed_visible: bool,
    /// In-doubt prepares the victim's recovery found.
    pub in_doubt: u64,
    /// In-doubt transactions recovery replayed from prepare records.
    pub replayed_commits: u64,
    /// 2PC decisions still pending after recovery settled (waited on with a
    /// timeout; a healthy run drains to 0 — anything else means a decision
    /// was pinned forever).
    pub pending_decisions_after: usize,
}

/// The crash schedule: every prepare/decision/write-back/checkpoint/commit
/// interleaving boundary, on either participant of a 2-of-3-shard
/// transaction, plus the post-durability point.  Sixteen distinct points.
pub fn crash_schedule() -> Vec<ShardCrashCase> {
    let prepare = WalRecordKind::Prepare.tag();
    let decision = WalRecordKind::Decision.tag();
    let epoch_commit = WalRecordKind::EpochCommit.tag();
    let mut cases = Vec::new();
    for victim_second in [false, true] {
        let side = if victim_second { "second" } else { "first" };
        cases.push(ShardCrashCase {
            name: leak_name(format!("prepare-append-fails/{side}")),
            victim_second,
            trigger: Some(CrashPoint::on_log_kind(prepare, 1)),
            expected: Expected::Abort,
        });
        cases.push(ShardCrashCase {
            name: leak_name(format!("voted-before-write-back/{side}")),
            victim_second,
            trigger: Some(CrashPoint::after_log_kind(prepare, CrashOp::BucketWrite, 1)),
            expected: Expected::Commit,
        });
        cases.push(ShardCrashCase {
            name: leak_name(format!("voted-mid-write-back/{side}")),
            victim_second,
            trigger: Some(CrashPoint::after_log_kind(prepare, CrashOp::BucketWrite, 3)),
            expected: Expected::Commit,
        });
        cases.push(ShardCrashCase {
            name: leak_name(format!("voted-before-checkpoint/{side}")),
            victim_second,
            trigger: Some(CrashPoint::after_log_kind(
                prepare,
                CrashOp::AnyLogAppend,
                1,
            )),
            expected: Expected::Commit,
        });
        // The early-acknowledgement windows: the epoch's decision record is
        // durable — the commit has been acknowledged to the client — but
        // the crash eats the write-back (first case) or lands before the
        // checkpoint tail (second case).  Recovery must replay the decided
        // epoch from the decision record so the acked writes survive.
        cases.push(ShardCrashCase {
            name: leak_name(format!("acked-before-write-back/{side}")),
            victim_second,
            trigger: Some(CrashPoint::after_log_kind(
                decision,
                CrashOp::BucketWrite,
                1,
            )),
            expected: Expected::Commit,
        });
        cases.push(ShardCrashCase {
            name: leak_name(format!("acked-before-checkpoint/{side}")),
            victim_second,
            trigger: Some(CrashPoint::after_log_kind(
                decision,
                CrashOp::AnyLogAppend,
                1,
            )),
            expected: Expected::Commit,
        });
        cases.push(ShardCrashCase {
            name: leak_name(format!("commit-record-lost/{side}")),
            victim_second,
            trigger: Some(CrashPoint::after_log_kind(
                prepare,
                CrashOp::LogAppendKind(epoch_commit),
                1,
            )),
            expected: Expected::Commit,
        });
        cases.push(ShardCrashCase {
            name: leak_name(format!("after-durable-commit/{side}")),
            victim_second,
            trigger: None,
            expected: Expected::Commit,
        });
    }
    cases
}

/// Case names live for the program; the schedule is tiny and static.
fn leak_name(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

/// A 3-shard test deployment over [`FaultyStore`]-wrapped backends.
pub struct FaultyDeployment {
    /// The front door.
    pub db: ShardedDb,
    /// Per-shard fault injectors, indexed by shard.
    pub faults: Vec<Arc<FaultyStore>>,
}

/// Builds a 3-shard deployment whose stores can all misbehave on demand.
pub fn open_faulty_deployment(seed: u64) -> Result<FaultyDeployment> {
    let mut config = ShardConfig::small_for_tests(3, 512);
    config.shard.epoch.batch_interval = Duration::from_millis(1);
    config.shard.epoch.checkpoint_every = 3;
    config.shard.seed = seed;
    let faults: Vec<Arc<FaultyStore>> = (0..config.shards)
        .map(|index| {
            Arc::new(FaultyStore::new(
                Arc::new(InMemoryStore::new()),
                FaultPlan::none(),
                seed ^ ((index as u64 + 1) * 0x9E37),
            ))
        })
        .collect();
    let stores: Vec<Arc<dyn UntrustedStore>> = faults
        .iter()
        .map(|f| f.clone() as Arc<dyn UntrustedStore>)
        .collect();
    let db = ShardedDb::open_with_stores(config, stores)?;
    Ok(FaultyDeployment { db, faults })
}

/// Commits `body` through the front door with retries on retryable
/// aborts (jittered so the retry de-phases from the pipelined epoch
/// rhythm), returning the transaction id it committed under.  The shared
/// retry idiom of the sharded tests — a cross-shard commit can abort
/// retryably whenever its shards' pipeline phases are incompatible.
pub fn commit_with_retries<T>(
    db: &ShardedDb,
    mut body: impl FnMut(&mut obladi_shard::ShardedTxn<'_>) -> Result<T>,
) -> Result<TxnId> {
    let mut last_err = None;
    let mut jitter_state = 0x7e57_3a11u64;
    for attempt in 0..100 {
        if attempt > 0 {
            jitter_state = jitter_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            std::thread::sleep(Duration::from_millis(1 + (jitter_state >> 33) % 7));
        }
        let mut txn = db.begin()?;
        match body(&mut txn) {
            Ok(_) => {}
            Err(err) if err.is_retryable() => {
                last_err = Some(err);
                continue;
            }
            Err(err) => return Err(err),
        }
        let id = txn.id();
        match txn.commit() {
            Ok(outcome) if outcome.is_committed() => return Ok(id),
            Ok(_) => continue,
            Err(err) if err.is_retryable() => {
                last_err = Some(err);
                continue;
            }
            Err(err) => return Err(err),
        }
    }
    Err(last_err.unwrap_or(ObladiError::Internal("commit retries exhausted".into())))
}

/// Finds two keys the deployment routes to different shards.
pub fn cross_shard_pair(db: &ShardedDb) -> (Key, Key) {
    let first = 0u64;
    let home = db.router().route(first);
    for key in 1..10_000u64 {
        if db.router().route(key) != home {
            return (first, key);
        }
    }
    panic!("router sent 10k consecutive keys to one shard");
}

/// Finds a cross-shard pair whose first key lives on `shard` and whose
/// second does not, scanning from `start` (so several disjoint pairs can be
/// carved out of one deployment).
pub fn cross_shard_pair_through(db: &ShardedDb, shard: usize, start: Key) -> (Key, Key) {
    let first = (start..start + 10_000)
        .find(|&key| db.router().route(key) == shard)
        .expect("router sent 10k consecutive keys away from one shard");
    let second = (first + 1..first + 10_000)
        .find(|&key| db.router().route(key) != shard)
        .expect("router sent 10k consecutive keys to one shard");
    (first, second)
}

/// Attempts to commit a transaction writing tagged values to both keys of
/// the pair, recording every attempt in `history`.  Stops on the first
/// acknowledged commit, when `stop()` turns true, or after `max_attempts`.
/// Returns the committed values, if any.
pub fn write_pair_tagged(
    db: &ShardedDb,
    pair: (Key, Key),
    history: &mut History,
    max_attempts: usize,
    stop: &dyn Fn() -> bool,
) -> Option<(Value, Value)> {
    let (a, b) = pair;
    for attempt in 0..max_attempts {
        if attempt > 0 {
            if stop() {
                return None;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let Ok(mut txn) = db.begin() else { continue };
        // A virgin transaction may be transparently re-stamped; the first
        // successful operation pins the id the tags must carry.
        let Ok(seen) = txn.read(a) else { continue };
        let id = txn.id();
        let mut record = TxnRecord::new(id);
        record.read(a, seen);
        let value_a = tag_value(id, 0, b"chaos");
        let value_b = tag_value(id, 1, b"chaos");
        record.write(a, value_a.clone());
        if txn.write(a, value_a.clone()).is_err() {
            record.abort();
            history.push(record);
            continue;
        }
        record.write(b, value_b.clone());
        if txn.write(b, value_b.clone()).is_err() {
            record.abort();
            history.push(record);
            continue;
        }
        match txn.commit_reported() {
            // Order committed writers by the id the transaction finally
            // serialized under — a twin rebuild may have re-stamped it.
            Ok((final_id, outcome)) if outcome.is_committed() => {
                record.commit(final_id);
                history.push(record);
                return Some((value_a, value_b));
            }
            Ok(_) | Err(_) => {
                record.abort();
                history.push(record);
            }
        }
    }
    None
}

/// Reads both keys of the pair in one front-door transaction (with retries
/// around epoch-boundary aborts), recording the successful read in
/// `history`.
pub fn read_pair(
    db: &ShardedDb,
    pair: (Key, Key),
    history: &mut History,
) -> Result<(Option<Value>, Option<Value>)> {
    let (a, b) = pair;
    let mut last_err = ObladiError::Internal("no read attempt made".into());
    // Deadline- rather than count-based: under a loaded test machine a
    // pipelined epoch round can stall long enough that a fixed retry count
    // starves while the system is merely slow, not wrong.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let mut txn = match db.begin() {
            Ok(txn) => txn,
            Err(err) => {
                last_err = err;
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
        };
        let left = match txn.read(a) {
            Ok(value) => value,
            Err(err) if err.is_retryable() => {
                last_err = err;
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(err) => return Err(err),
        };
        let right = match txn.read(b) {
            Ok(value) => value,
            Err(err) if err.is_retryable() => {
                last_err = err;
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(err) => return Err(err),
        };
        let id = txn.id();
        let _ = txn.commit();
        let mut record = TxnRecord::new(id);
        record.read(a, left.clone());
        record.read(b, right.clone());
        record.commit(id);
        history.push(record);
        return Ok((left, right));
    }
    Err(last_err)
}

/// Polls `condition` until it holds or `deadline` elapses.
pub fn wait_for(what: &str, deadline: Duration, condition: &dyn Fn() -> bool) -> Result<()> {
    let until = Instant::now() + deadline;
    while !condition() {
        if Instant::now() >= until {
            return Err(ObladiError::Internal(format!(
                "timed out waiting for {what}"
            )));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

/// Classifies a post-recovery observation of the pair against the seeded
/// and transaction values.  `Err` = torn (the invariant violation).
fn classify(
    name: &str,
    observed: (Option<Value>, Option<Value>),
    old: &(Value, Value),
    new: &Option<(Value, Value)>,
) -> std::result::Result<bool, String> {
    let (left, right) = observed;
    if left.as_ref() == Some(&old.0) && right.as_ref() == Some(&old.1) {
        return Ok(false);
    }
    if let Some((new_a, new_b)) = new {
        if left.as_ref() == Some(new_a) && right.as_ref() == Some(new_b) {
            return Ok(true);
        }
    }
    Err(format!(
        "{name}: torn cross-shard state after recovery: left={left:?} right={right:?}"
    ))
}

// ----------------------------------------------------------------------
// Overlapping-epoch crash cases (pipelined epoch barrier)
// ----------------------------------------------------------------------

/// One overlapping-epoch crash case: the victim dies while one epoch is
/// *deciding* (its prepare records are in the WAL, its write-back possibly
/// mid-flight) and the next epoch is *executing* (its read batches are
/// appending path logs behind the decision).  The trigger arms on a
/// decision-path record so the crash is guaranteed to land inside that
/// window.
#[derive(Debug, Clone)]
pub struct OverlapCrashCase {
    /// Human-readable crash-point name (used in assertion messages).
    pub name: &'static str,
    /// `false` = the shard owning the first pair's first key crashes,
    /// `true` = the shard owning its second key.
    pub victim_second: bool,
    /// The deterministic trigger.
    pub trigger: CrashPoint,
}

/// What one overlapping-epoch case observed after the invariants passed.
#[derive(Debug, Clone)]
pub struct OverlapCrashReport {
    /// The case name.
    pub name: &'static str,
    /// In-doubt prepares the victim's recovery found.
    pub in_doubt: u64,
    /// In-doubt transactions recovery replayed from prepare records.
    pub replayed_commits: u64,
    /// Distinct in-doubt epochs whose read paths recovery replayed (2 =
    /// the crash caught both pipeline stages with logged reads).
    pub epochs_replayed: u64,
    /// Acknowledged commits per hammered pair at crash time.
    pub acked: [usize; 2],
    /// Total commit attempts per hammered pair.
    pub attempts: [usize; 2],
}

/// The overlapping-epoch crash schedule: points scattered through the
/// decide/execute overlap window, on either participant.  Every point arms
/// on the first 2PC prepare append (the moment a decision is provably in
/// flight) except the post-decision point, which arms on the epoch-commit
/// marker (the decision is durable, the next epoch's reads are in doubt).
pub fn overlap_crash_schedule() -> Vec<OverlapCrashCase> {
    let prepare = WalRecordKind::Prepare.tag();
    let path_log = WalRecordKind::PathLog.tag();
    let epoch_commit = WalRecordKind::EpochCommit.tag();
    let decision = WalRecordKind::Decision.tag();
    let mut cases = Vec::new();
    for victim_second in [false, true] {
        let side = if victim_second { "second" } else { "first" };
        cases.push(OverlapCrashCase {
            name: leak_name(format!("deciding-while-next-reads/{side}")),
            victim_second,
            trigger: CrashPoint::after_log_kind(prepare, CrashOp::LogAppendKind(path_log), 1),
        });
        cases.push(OverlapCrashCase {
            name: leak_name(format!("deciding-deep-in-next-reads/{side}")),
            victim_second,
            trigger: CrashPoint::after_log_kind(prepare, CrashOp::LogAppendKind(path_log), 3),
        });
        cases.push(OverlapCrashCase {
            name: leak_name(format!("write-back-vs-next-reads/{side}")),
            victim_second,
            trigger: CrashPoint::after_log_kind(prepare, CrashOp::BucketWrite, 4),
        });
        // Split-client write-back overlap points: with the ORAM client's
        // read plane and write-back engine on separate threads, the
        // decider's eviction reads and flush bucket writes run *while* the
        // next epoch's read batches are physically in flight.  The
        // slot-read points land inside an ORAM read phase of the overlap
        // window — the engine's eviction fetches (limbo keys set) or the
        // read plane's batch fetches, whichever the outage hits first —
        // which no log-append or bucket-write trigger can reach; the
        // bucket-write points fault the engine's first and a deep flush
        // write.  All must fate-share into an idempotent two-epoch
        // recovery.
        cases.push(OverlapCrashCase {
            name: leak_name(format!("engine-eviction-reads-vs-next-reads/{side}")),
            victim_second,
            trigger: CrashPoint::after_log_kind(prepare, CrashOp::SlotRead, 3),
        });
        cases.push(OverlapCrashCase {
            name: leak_name(format!("deep-overlap-slot-reads/{side}")),
            victim_second,
            trigger: CrashPoint::after_log_kind(prepare, CrashOp::SlotRead, 40),
        });
        // Maintenance-wave points.  The decision record is the last append
        // before the engine's write-back, whose wave logs every path it
        // owes and only then fetches them all at once: the first slot read
        // after the decision lands between the wave's path-log appends and
        // its fetch, a later one deep inside the one fetch (or, as above,
        // in a next-epoch read batch that got there first).
        cases.push(OverlapCrashCase {
            name: leak_name(format!("wave-logged-not-fetched/{side}")),
            victim_second,
            trigger: CrashPoint::after_log_kind(decision, CrashOp::SlotRead, 1),
        });
        cases.push(OverlapCrashCase {
            name: leak_name(format!("wave-nth-slot-read/{side}")),
            victim_second,
            trigger: CrashPoint::after_log_kind(decision, CrashOp::SlotRead, 25),
        });
        cases.push(OverlapCrashCase {
            name: leak_name(format!("writeback-engine-first-flush-write/{side}")),
            victim_second,
            trigger: CrashPoint::after_log_kind(prepare, CrashOp::BucketWrite, 1),
        });
        cases.push(OverlapCrashCase {
            name: leak_name(format!("writeback-engine-deep-flush/{side}")),
            victim_second,
            trigger: CrashPoint::after_log_kind(prepare, CrashOp::BucketWrite, 9),
        });
        cases.push(OverlapCrashCase {
            name: leak_name(format!("decided-next-epoch-in-doubt/{side}")),
            victim_second,
            trigger: CrashPoint::after_log_kind(epoch_commit, CrashOp::LogAppendKind(path_log), 2),
        });
    }
    cases
}

/// One commit attempt of a hammer thread: the tagged values written to the
/// pair, and whether the front door acknowledged the commit.
#[derive(Debug, Clone)]
pub struct PairAttempt {
    /// Value written to the pair's first key.
    pub value_a: Value,
    /// Value written to the pair's second key.
    pub value_b: Value,
    /// Whether the front door acknowledged the commit.
    pub acked: bool,
}

/// Continuously commits tagged values to `pair` until `stop()` holds,
/// recording *every* attempt (acknowledged or not) — an unacknowledged
/// attempt may still have committed if the crash ate the acknowledgement,
/// and the all-or-nothing classifier must be able to attribute it.
pub fn hammer_pair_tagged(
    db: &ShardedDb,
    pair: (Key, Key),
    tag: &[u8],
    stop: &dyn Fn() -> bool,
) -> (History, Vec<PairAttempt>) {
    hammer_pair_tagged_observed(db, pair, tag, stop, &|_| {})
}

/// [`hammer_pair_tagged`] with an observer called after every attempt —
/// the process-kill chaos harness uses it to trigger the `SIGKILL` after a
/// chosen number of acknowledged commits.
pub fn hammer_pair_tagged_observed(
    db: &ShardedDb,
    pair: (Key, Key),
    tag: &[u8],
    stop: &dyn Fn() -> bool,
    on_attempt: &dyn Fn(&PairAttempt),
) -> (History, Vec<PairAttempt>) {
    let (a, b) = pair;
    let mut history = History::new();
    let mut attempts = Vec::new();
    let mut seq = 0u32;
    while !stop() {
        let Ok(mut txn) = db.begin() else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        // A virgin transaction may be transparently re-stamped; the first
        // successful operation pins the id the tags must carry.
        let Ok(seen) = txn.read(a) else {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        let id = txn.id();
        let mut record = TxnRecord::new(id);
        record.read(a, seen);
        let value_a = tag_value(id, seq, tag);
        let value_b = tag_value(id, seq + 1, tag);
        seq += 2;
        record.write(a, value_a.clone());
        if txn.write(a, value_a.clone()).is_err() {
            record.abort();
            history.push(record);
            continue;
        }
        record.write(b, value_b.clone());
        if txn.write(b, value_b.clone()).is_err() {
            record.abort();
            history.push(record);
            continue;
        }
        let committed_as = match txn.commit_reported() {
            Ok((final_id, outcome)) if outcome.is_committed() => Some(final_id),
            _ => None,
        };
        let acked = committed_as.is_some();
        if let Some(final_id) = committed_as {
            // The twin-rebuild machinery may have re-stamped the
            // transaction; the final id is its version-order position.
            record.commit(final_id);
        } else {
            record.abort();
        }
        history.push(record);
        let attempt = PairAttempt {
            value_a,
            value_b,
            acked,
        };
        on_attempt(&attempt);
        attempts.push(attempt);
    }
    (history, attempts)
}

/// Classifies a post-recovery observation of one hammered pair: the visible
/// state must be the seed or exactly one attempt's pair (all-or-nothing per
/// epoch), and no acknowledged attempt may be newer than it (acknowledged
/// implies durable, and durability is in epoch order).  Returns the index
/// of the visible attempt (`None` = seed).
pub(crate) fn classify_hammered(
    name: &str,
    pair_name: &str,
    observed: &(Option<Value>, Option<Value>),
    old: &(Value, Value),
    attempts: &[PairAttempt],
) -> std::result::Result<Option<usize>, String> {
    let (left, right) = observed;
    let visible = if left.as_ref() == Some(&old.0) && right.as_ref() == Some(&old.1) {
        None
    } else {
        match attempts.iter().position(|attempt| {
            left.as_ref() == Some(&attempt.value_a) && right.as_ref() == Some(&attempt.value_b)
        }) {
            Some(index) => Some(index),
            None => {
                return Err(format!(
                    "{name}: {pair_name} torn after recovery: left={left:?} right={right:?}"
                ))
            }
        }
    };
    let last_acked = attempts.iter().rposition(|attempt| attempt.acked);
    if let Some(last_acked) = last_acked {
        if visible.is_none_or(|index| index < last_acked) {
            return Err(format!(
                "{name}: {pair_name} lost an acknowledged commit: visible {visible:?}, last \
                 acked {last_acked}"
            ));
        }
    }
    Ok(visible)
}

/// Drives one overlapping-epoch crash case end to end: two hammer threads
/// keep independent cross-shard pairs (both through the victim) hot so the
/// crash lands with one epoch deciding and the next executing, then the
/// victim recovers and the invariants are checked — all-or-nothing per
/// epoch, acknowledged-implies-durable with in-epoch-order durability,
/// recovery idempotence across both in-doubt epochs, serializability of the
/// merged history, and full 2PC decision drain.
pub fn run_overlap_crash_case(case: &OverlapCrashCase, seed: u64) -> Result<OverlapCrashReport> {
    let violation = |msg: String| {
        crate::dump_obs_report(case.name);
        ObladiError::Internal(format!("[{}] {msg}", case.name))
    };
    let deployment = open_faulty_deployment(seed)?;
    let db = &deployment.db;
    let pair1 = cross_shard_pair(db);
    let victim = if case.victim_second {
        db.router().route(pair1.1)
    } else {
        db.router().route(pair1.0)
    };
    let pair2 = cross_shard_pair_through(db, victim, pair1.0.max(pair1.1) + 1);
    let victim_fault = deployment.faults[victim].clone();
    let mut history = History::new();

    // Seed committed values on both pairs (no faults active yet).
    let old1 = write_pair_tagged(db, pair1, &mut history, 200, &|| false)
        .ok_or_else(|| violation("failed to seed pair 1".into()))?;
    let old2 = write_pair_tagged(db, pair2, &mut history, 200, &|| false)
        .ok_or_else(|| violation("failed to seed pair 2".into()))?;

    // Arm the victim, then hammer both pairs concurrently into the crash.
    victim_fault.set_plan(FaultPlan::crash_at(case.trigger));
    let stop_fault = victim_fault.clone();
    let stop = move || stop_fault.has_tripped();
    let ((history1, attempts1), (history2, attempts2)) = std::thread::scope(|scope| {
        let h2 = scope.spawn(|| hammer_pair_tagged(db, pair2, b"ovl2", &stop));
        let r1 = hammer_pair_tagged(db, pair1, b"ovl1", &stop);
        (r1, h2.join().expect("hammer thread panicked"))
    });
    history.extend(history1);
    history.extend(history2);

    wait_for(
        "the victim shard to self-crash",
        Duration::from_secs(20),
        &|| db.is_shard_crashed(victim),
    )?;

    // Recover (faults off) and observe both pairs.
    victim_fault.set_plan(FaultPlan::none());
    let report = db.recover_shard(victim)?;
    let observed1 = read_pair(db, pair1, &mut history)?;
    let observed2 = read_pair(db, pair2, &mut history)?;
    classify_hammered(case.name, "pair 1", &observed1, &old1, &attempts1).map_err(violation)?;
    classify_hammered(case.name, "pair 2", &observed2, &old2, &attempts2).map_err(violation)?;

    // Recovery idempotence across both in-doubt epochs: a second fault-free
    // crash + recovery must land on the same state.
    db.crash_shard(victim);
    db.recover_shard(victim)?;
    let observed1_again = read_pair(db, pair1, &mut history)?;
    let observed2_again = read_pair(db, pair2, &mut history)?;
    if observed1_again != observed1 || observed2_again != observed2 {
        return Err(violation(format!(
            "recovery not idempotent: {observed1:?}/{observed2:?} then \
             {observed1_again:?}/{observed2_again:?}"
        )));
    }

    // The whole observed history must be serializable.
    check_serializable(&history)
        .map_err(|violations| violation(format!("history not serializable: {violations:?}")))?;

    // Every 2PC decision must eventually retire.
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while db.pending_decisions() != 0 && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    if db.pending_decisions() != 0 {
        return Err(violation(format!(
            "{} 2PC decisions never retired",
            db.pending_decisions()
        )));
    }

    db.shutdown();
    Ok(OverlapCrashReport {
        name: case.name,
        in_doubt: report.in_doubt,
        replayed_commits: report.replayed_commits,
        epochs_replayed: report.epochs_replayed,
        acked: [
            attempts1.iter().filter(|a| a.acked).count(),
            attempts2.iter().filter(|a| a.acked).count(),
        ],
        attempts: [attempts1.len(), attempts2.len()],
    })
}

/// Drives one crash case end to end and checks every invariant (see the
/// module docs).  Returns the observation report for extra assertions.
pub fn run_shard_crash_case(case: &ShardCrashCase, seed: u64) -> Result<ShardCrashReport> {
    let violation = |msg: String| {
        crate::dump_obs_report(case.name);
        ObladiError::Internal(format!("[{}] {msg}", case.name))
    };
    let deployment = open_faulty_deployment(seed)?;
    let db = &deployment.db;
    let pair = cross_shard_pair(db);
    let victim = if case.victim_second {
        db.router().route(pair.1)
    } else {
        db.router().route(pair.0)
    };
    let victim_fault = deployment.faults[victim].clone();
    let mut history = History::new();

    // Seed committed values on both shards (no faults active yet).
    let old = write_pair_tagged(db, pair, &mut history, 100, &|| false)
        .ok_or_else(|| violation("failed to seed the cross-shard pair".into()))?;

    // Arm the victim and drive the transaction into the crash point.
    if let Some(trigger) = case.trigger {
        victim_fault.set_plan(FaultPlan::crash_at(trigger));
    }
    let fault = victim_fault.clone();
    let stop: Box<dyn Fn() -> bool> = match case.trigger {
        Some(_) => Box::new(move || fault.has_tripped()),
        None => Box::new(|| false),
    };
    let new = write_pair_tagged(db, pair, &mut history, 100, stop.as_ref());

    // Reach the crash: triggered cases fate-share into a self-crash once
    // the sticky outage bites the epoch driver; the post-durability case
    // crashes explicitly after the acknowledgement.
    let tripped = match case.trigger {
        Some(_) => {
            wait_for(
                "the victim shard to self-crash",
                Duration::from_secs(20),
                &|| db.is_shard_crashed(victim),
            )?;
            victim_fault.has_tripped()
        }
        None => {
            if new.is_none() {
                return Err(violation("post-durability case never committed".into()));
            }
            // The acknowledgement leads the epoch's durable tail now
            // (decision-durability ack), so "after full durability" has to
            // wait for the tail to drain: once two further global epochs
            // have published, the acked epoch's commit record is durable by
            // WAL order (a later epoch's records are only accepted behind
            // its predecessor's frontier).
            let settled = db.stats().global_epochs + 2;
            wait_for(
                "the acked epoch's durable tail",
                Duration::from_secs(10),
                &|| db.stats().global_epochs >= settled,
            )?;
            db.crash_shard(victim);
            true
        }
    };

    // Recover (faults off) and observe.
    victim_fault.set_plan(FaultPlan::none());
    let report = db.recover_shard(victim)?;
    let observed = read_pair(db, pair, &mut history)?;
    let committed_visible = classify(case.name, observed, &old, &new).map_err(violation)?;

    // --- Invariants. ---
    let acknowledged_commit = new.is_some();
    if acknowledged_commit && !committed_visible {
        return Err(violation(
            "acknowledged commit vanished after recovery".into(),
        ));
    }
    match case.expected {
        Expected::Abort if committed_visible => {
            return Err(violation(
                "crash point precedes the durable vote, yet the commit survived".into(),
            ))
        }
        Expected::Commit if !committed_visible => {
            return Err(violation(
                "vote was durable on every participant, yet the commit was lost".into(),
            ))
        }
        _ => {}
    }

    // Recovery idempotence: a second, fault-free crash + recovery must
    // land on the same state.
    db.crash_shard(victim);
    db.recover_shard(victim)?;
    let observed_again = read_pair(db, pair, &mut history)?;
    let visible_again = classify(case.name, observed_again, &old, &new).map_err(violation)?;
    if visible_again != committed_visible {
        return Err(violation(format!(
            "recovery is not idempotent: visible={committed_visible} then {visible_again}"
        )));
    }

    // The whole observed history must be serializable.
    check_serializable(&history)
        .map_err(|violations| violation(format!("history not serializable: {violations:?}")))?;

    // Every 2PC decision must eventually retire: participants acknowledge
    // on their epoch-driver threads (or during recovery), so wait for the
    // drain rather than sampling a racy instant.
    let drain_deadline = Instant::now() + Duration::from_secs(10);
    while db.pending_decisions() != 0 && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let pending_decisions_after = db.pending_decisions();
    if pending_decisions_after != 0 {
        return Err(violation(format!(
            "{pending_decisions_after} 2PC decisions never retired"
        )));
    }

    db.shutdown();
    Ok(ShardCrashReport {
        name: case.name,
        acknowledged_commit,
        tripped,
        committed_visible,
        in_doubt: report.in_doubt,
        replayed_commits: report.replayed_commits,
        pending_decisions_after,
    })
}
