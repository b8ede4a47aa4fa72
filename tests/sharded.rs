//! End-to-end tests of the sharded deployment: cross-shard atomic
//! visibility, serializability of concurrent multi-shard histories (checked
//! by the testkit oracle), and single-shard crash / recovery behind the
//! front door (the crash-window regression selects its case from the one
//! fault schedule of `obladi_testkit::chaos`).

use obladi::common::types::AbortReason;
use obladi::prelude::*;
use obladi_testkit::chaos::{commit_with_retries, cross_shard_pair};
use obladi_testkit::history::{
    check_serializable, parse_tag, tag_value, History, HistoryOp, TxnRecord, Violation,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn sharded_config(shards: usize) -> ShardConfig {
    let mut config = ShardConfig::small_for_tests(shards, 1_024);
    config.shard.epoch.batch_interval = Duration::from_millis(1);
    config
}

#[test]
fn cross_shard_transaction_commits_and_reads_back() {
    let db = ShardedDb::open(sharded_config(4)).unwrap();
    let (a, b) = cross_shard_pair(&db);

    commit_with_retries(&db, |txn| {
        txn.write(a, b"left".to_vec())?;
        txn.write(b, b"right".to_vec())
    })
    .unwrap();

    commit_with_retries(&db, |txn| {
        assert_eq!(txn.read(a)?, Some(b"left".to_vec()));
        assert_eq!(txn.read(b)?, Some(b"right".to_vec()));
        Ok(())
    })
    .unwrap();

    let stats = db.stats();
    assert!(stats.cross_shard_committed >= 1, "{stats:?}");
    assert!(stats.global_epochs >= 1);
    assert_eq!(stats.shards.len(), 4);
    db.shutdown();
}

#[test]
fn cross_shard_writes_become_visible_atomically() {
    // A writer repeatedly updates a two-shard pair to matching values while
    // a reader hammers both keys in one transaction.  Delayed-visibility
    // atomicity across shards means a reader that commits never observed a
    // torn pair (one shard's half updated, the other's not).  A reader may
    // see a write before its writer commits, but then its own outcome waits
    // on the writer's: a torn pair is a violation only if the reader
    // committed, and otherwise its reader must have aborted with the writer
    // (a cascading abort).
    let db = Arc::new(ShardedDb::open(sharded_config(3)).unwrap());
    let (a, b) = cross_shard_pair(&db);

    commit_with_retries(&*db, |txn| {
        txn.write(a, vec![0])?;
        txn.write(b, vec![0])
    })
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    type Observation = (Option<Value>, Option<Value>, Result<TxnOutcome>);
    let torn: Arc<Mutex<Vec<Observation>>> = Arc::new(Mutex::new(Vec::new()));

    std::thread::scope(|scope| {
        let reader_db = db.clone();
        let reader_stop = stop.clone();
        let reader_torn = torn.clone();
        let reader = scope.spawn(move || {
            while !reader_stop.load(Ordering::SeqCst) {
                let mut txn = match reader_db.begin() {
                    Ok(txn) => txn,
                    Err(_) => continue,
                };
                let left = match txn.read(a) {
                    Ok(v) => v,
                    Err(_) => continue,
                };
                let right = match txn.read(b) {
                    Ok(v) => v,
                    Err(_) => continue,
                };
                let outcome = txn.commit();
                if left != right {
                    reader_torn.lock().push((left, right, outcome));
                }
            }
        });

        // Writer: bump both halves in lockstep.
        for round in 1..=10u8 {
            commit_with_retries(&*db, |txn| {
                txn.write(a, vec![round])?;
                txn.write(b, vec![round])
            })
            .unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        reader.join().unwrap();
    });

    let torn = torn.lock();
    let committed: Vec<_> = (torn.iter())
        .filter(|(.., outcome)| matches!(outcome, Ok(TxnOutcome::Committed)))
        .collect();
    println!(
        "torn pairs seen: {} by readers that committed, {} by readers that aborted",
        committed.len(),
        torn.len() - committed.len()
    );
    assert!(
        committed.is_empty(),
        "committed readers observed torn cross-shard states: {committed:?}"
    );
    let cascading = |outcome: &Result<TxnOutcome>| {
        matches!(outcome, Ok(TxnOutcome::Aborted(AbortReason::Cascading)))
    };
    assert!(
        torn.iter().all(|(.., outcome)| cascading(outcome)),
        "a reader that saw a torn pair aborted, but not with its writer: {torn:?}"
    );
    let epoch_after = db.global_epoch();
    assert!(epoch_after >= 10, "ten commits need at least ten epochs");
    db.shutdown();
}

#[test]
fn concurrent_cross_shard_history_is_serializable() {
    // Several client threads run read-modify-write transactions over a small
    // hot key set that straddles all shards; every observed read and write
    // is recorded and the full history handed to the serializability oracle.
    let db = Arc::new(ShardedDb::open(sharded_config(3)).unwrap());
    let keys: Vec<Key> = (0..12u64).collect();
    {
        let shards_hit: std::collections::HashSet<usize> =
            keys.iter().map(|&k| db.router().route(k)).collect();
        assert!(shards_hit.len() >= 2, "key set must straddle shards");
    }

    let history = Arc::new(Mutex::new(History::new()));
    std::thread::scope(|scope| {
        for client in 0..4u64 {
            let db = db.clone();
            let history = history.clone();
            let keys = keys.clone();
            scope.spawn(move || {
                for round in 0..12u32 {
                    // Each attempt is a fresh transaction with a fresh record;
                    // only the final (committed or cleanly aborted) attempt
                    // is pushed into the history.
                    for _attempt in 0..25 {
                        let mut txn = match db.begin() {
                            Ok(txn) => txn,
                            Err(_) => continue,
                        };
                        let base = (client as usize * 31 + round as usize) % keys.len();
                        let read_key = keys[base];
                        let write_key = keys[(base + 5) % keys.len()];
                        let second_key = keys[(base + 7) % keys.len()];

                        // A virgin transaction may be transparently
                        // re-stamped, so the id is sampled only after the
                        // first successful operation pins it.
                        let observed = match txn.read(read_key) {
                            Ok(v) => v,
                            Err(_) => continue,
                        };
                        let mut record = TxnRecord::new(txn.id());
                        record.read(read_key, observed);

                        // From here on every attempt's record is pushed
                        // (committed or aborted): a concurrent transaction
                        // may observe an aborted attempt's buffered write,
                        // and the oracle can only attribute it if the
                        // writer is recorded.

                        let seq = round * 2;
                        let value = tag_value(record.id, seq, b"shard");
                        record.write(write_key, value.clone());
                        if txn.write(write_key, value).is_err() {
                            record.abort();
                            history.lock().push(record);
                            continue;
                        }

                        let value2 = tag_value(record.id, seq + 1, b"shard");
                        record.write(second_key, value2.clone());
                        if txn.write(second_key, value2).is_err() {
                            record.abort();
                            history.lock().push(record);
                            continue;
                        }

                        match txn.commit_reported() {
                            // The id the transaction finally serialized
                            // under is the version-order timestamp: a twin
                            // rebuild may have moved the transaction past
                            // the id its value tags carry.
                            Ok((final_id, outcome)) if outcome.is_committed() => {
                                record.commit(final_id);
                                history.lock().push(record);
                                break;
                            }
                            Ok(_) | Err(_) => {
                                record.abort();
                                history.lock().push(record);
                                // Retry with a fresh timestamp.
                                continue;
                            }
                        }
                    }
                }
            });
        }
    });

    let history = Arc::try_unwrap(history)
        .map_err(|_| ())
        .unwrap()
        .into_inner();
    assert!(
        history.committed_count() >= 20,
        "too few commits to be meaningful: {}",
        history.committed_count()
    );
    let report = match check_serializable(&history) {
        Ok(report) => report,
        Err(violation) => panic!(
            "sharded history must be serializable: {violation}\n{}",
            explain(&history, &violation)
        ),
    };
    assert_eq!(report.committed, history.committed_count());
    assert!(report.edges > 0, "the history must actually contend");
    db.shutdown();
}

/// Each cycle member's record, one line apiece: the id sampled at its first
/// read, the final id `commit_reported` gave it, its reads with the writer
/// tag each observed, and its writes.
fn explain(history: &History, violation: &Violation) -> String {
    let Violation::CycleDetected { cycle } = violation else {
        return String::new();
    };
    let tag = |value: Option<&[u8]>| match value.map(parse_tag) {
        None => "absent".to_string(),
        Some(None) => "untagged".to_string(),
        Some(Some(tag)) => format!("{}#{}", tag.txn, tag.seq),
    };
    let mut lines = Vec::new();
    for id in cycle {
        for record in history.transactions().iter().filter(|r| r.id == *id) {
            let (mut reads, mut writes) = (Vec::new(), Vec::new());
            for op in &record.ops {
                match op {
                    HistoryOp::Read { key, observed } => {
                        reads.push(format!("{key} <- {}", tag(observed.as_deref())))
                    }
                    HistoryOp::Write { key, value } => {
                        writes.push(format!("{key} = {}", tag(Some(value))))
                    }
                }
            }
            lines.push(format!(
                "txn sampled {} final {:?}: reads [{}] writes [{}]",
                record.id,
                record.commit_ts,
                reads.join(", "),
                writes.join(", ")
            ));
        }
    }
    lines.join("\n")
}

#[test]
fn a_cycle_is_explained_member_by_member() {
    // Write skew: each reads the key the other writes, both from the
    // initial state.
    let mut history = History::new();
    for (id, final_id, read, write) in [(394, 396, 1, 2), (385, 397, 2, 1)] {
        let mut record = TxnRecord::new(id);
        record.read(read, None);
        record.write(write, tag_value(id, 0, b"shard"));
        record.commit(final_id);
        history.push(record);
    }
    let violation = check_serializable(&history).unwrap_err();
    let explained = explain(&history, &violation);
    assert!(
        explained
            .contains("txn sampled 394 final Some(396): reads [1 <- absent] writes [2 = 394#0]"),
        "{explained}"
    );
    assert_eq!(explained.lines().count(), 2, "{explained}");
}

#[test]
fn single_shard_crash_and_recovery_behind_the_front_door() {
    let db = ShardedDb::open(sharded_config(3)).unwrap();

    // Spread committed data over all shards.
    for key in 0..24u64 {
        commit_with_retries(&db, |txn| txn.write(key, vec![key as u8; 4])).unwrap();
    }

    // Crash the shard owning key 0; the others must keep serving.
    let victim = db.router().route(0);
    db.crash_shard(victim);
    assert!(db.is_shard_crashed(victim));

    let mut served = 0;
    let mut refused = 0;
    for key in 0..24u64 {
        if db.router().route(key) == victim {
            // Keys on the crashed shard abort retryably.
            let mut txn = db.begin().unwrap();
            match txn.read(key) {
                Err(err) => {
                    assert!(err.is_retryable(), "unexpected error: {err}");
                    refused += 1;
                }
                Ok(_) => panic!("crashed shard served key {key}"),
            }
        } else {
            commit_with_retries(&db, |txn| {
                assert_eq!(txn.read(key)?, Some(vec![key as u8; 4]), "key {key}");
                Ok(())
            })
            .unwrap();
            served += 1;
        }
    }
    assert!(served > 0, "no key landed on a surviving shard");
    assert!(refused > 0, "no key landed on the crashed shard");

    // Cross-shard transactions touching the crashed shard abort retryably.
    let (a, b) = cross_shard_pair(&db);
    if db.router().route(a) == victim || db.router().route(b) == victim {
        let mut txn = db.begin().unwrap();
        let outcome = txn.read(a).and_then(|_| txn.read(b));
        if let Err(err) = outcome {
            assert!(err.is_retryable());
        }
    }

    // Recover the shard; every committed value must still be there.
    let report = db.recover_shard(victim).unwrap();
    assert!(report.recovered_epoch >= 1);
    for key in 0..24u64 {
        commit_with_retries(&db, |txn| {
            assert_eq!(txn.read(key)?, Some(vec![key as u8; 4]), "key {key}");
            Ok(())
        })
        .unwrap();
    }
    db.shutdown();
}

#[test]
fn shard_crash_between_commit_vote_and_epoch_commit_is_atomic_after_recovery() {
    // The exact ROADMAP scenario the durable-prepare protocol closes: a
    // shard votes to commit a cross-shard transaction (its prepare record
    // is durable), the peer makes its half durable, and the victim crashes
    // before its own epoch-commit record lands.  The testkit runner
    // drives the scenario and already enforces all-or-nothing visibility,
    // acknowledged-implies-durable, recovery idempotence, serializability
    // of the recorded history, and that every 2PC decision retires; this
    // regression pins the ROADMAP-specific expectations on top.
    use obladi_testkit::chaos::{case, run_case};

    let case = case("commit-record-lost/first");
    let report = run_case(&case, 0xD00D).unwrap_or_else(|err| panic!("{err}"));
    assert!(
        report.acknowledged_commit,
        "the peer committed, so the front door must report the commit: {report:?}"
    );
    assert!(
        report.committed_visible,
        "the voted transaction must be visible on all shards after recovery: {report:?}"
    );
    assert!(
        report.recovery.in_doubt >= 1 && report.recovery.replayed_commits >= 1,
        "recovery must find and replay the voted transaction: {report:?}"
    );
    assert_eq!(
        report.pending_decisions_after, 0,
        "every 2PC decision must retire once all participants are durable"
    );
}

#[test]
fn sharded_front_door_runs_the_generic_execute_api() {
    let db = ShardedDb::open(sharded_config(2)).unwrap();
    assert_eq!(db.engine_name(), "obladi-sharded");
    let value = db
        .execute_with_retries(25, &mut |txn| {
            txn.write(7, vec![7, 7])?;
            txn.read(7)
        })
        .unwrap();
    assert_eq!(value, Some(vec![7, 7]));
    db.shutdown();
}
