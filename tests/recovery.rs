//! Crash / recovery integration tests (§8): durability of committed epochs,
//! atomicity of uncommitted ones, repeated crashes, and recovery determinism.

use obladi::prelude::*;
use std::time::Duration;

fn test_db() -> ObladiDb {
    let mut config = ObladiConfig::small_for_tests(2_048);
    config.epoch.read_batches = 3;
    config.epoch.read_batch_size = 16;
    config.epoch.write_batch_size = 48;
    config.epoch.batch_interval = Duration::from_millis(1);
    config.epoch.checkpoint_every = 3;
    ObladiDb::open(config).unwrap()
}

fn put(db: &ObladiDb, key: Key, value: &[u8]) -> bool {
    let mut txn = match db.begin() {
        Ok(t) => t,
        Err(_) => return false,
    };
    if txn.write(key, value.to_vec()).is_err() {
        return false;
    }
    txn.commit().map(|o| o.is_committed()).unwrap_or(false)
}

/// Reads `key` in a transaction of its own; a read that lands in an epoch
/// whose batches are spent aborts retryably and is retried in the next.
fn get(db: &ObladiDb, key: Key) -> Option<Value> {
    db.execute_with_retries(20, &mut |txn| txn.read(key))
        .unwrap()
}

#[test]
fn committed_data_survives_a_crash() {
    let db = test_db();
    for k in 0..20u64 {
        assert!(put(&db, k, format!("value-{k}").as_bytes()));
    }
    db.crash();
    db.recover().unwrap();
    for k in 0..20u64 {
        assert_eq!(
            get(&db, k),
            Some(format!("value-{k}").into_bytes()),
            "key {k} lost after crash"
        );
    }
    db.shutdown();
}

#[test]
fn uncommitted_data_disappears_after_a_crash() {
    let db = test_db();
    assert!(put(&db, 1, b"durable"));
    // Start a transaction whose commit decision is still pending when the
    // proxy crashes.
    let mut doomed = db.begin().unwrap();
    doomed.write(2, b"ephemeral".to_vec()).unwrap();
    db.crash();
    assert!(!doomed.commit().unwrap().is_committed());
    db.recover().unwrap();
    assert_eq!(get(&db, 1), Some(b"durable".to_vec()));
    assert_eq!(get(&db, 2), None, "uncommitted write resurfaced");
    db.shutdown();
}

#[test]
fn repeated_crash_recover_cycles_preserve_all_committed_epochs() {
    let db = test_db();
    let mut expected = Vec::new();
    for round in 0..4u64 {
        for i in 0..5u64 {
            let key = round * 100 + i;
            if put(&db, key, &key.to_le_bytes()) {
                expected.push(key);
            }
        }
        db.crash();
        let report = db.recover().unwrap();
        assert!(report.total_ms >= 0.0);
    }
    for key in expected {
        assert_eq!(
            get(&db, key),
            Some(key.to_le_bytes().to_vec()),
            "key {key} lost across crash cycles"
        );
    }
    db.shutdown();
}

#[test]
fn recovery_rejects_operations_while_crashed_and_resumes_after() {
    let db = test_db();
    assert!(put(&db, 9, b"before"));
    db.crash();
    assert!(db.is_crashed());
    assert!(
        db.begin().is_err(),
        "crashed proxy must refuse transactions"
    );
    // Recovering twice in a row is an error the second time (not crashed).
    db.recover().unwrap();
    assert!(db.recover().is_err());
    // Normal service resumes.
    assert!(put(&db, 10, b"after"));
    assert_eq!(get(&db, 9), Some(b"before".to_vec()));
    assert_eq!(get(&db, 10), Some(b"after".to_vec()));
    db.shutdown();
}

#[test]
fn overwrites_recover_to_the_latest_committed_version() {
    let db = test_db();
    assert!(put(&db, 5, b"v1"));
    assert!(put(&db, 5, b"v2"));
    assert!(put(&db, 5, b"v3"));
    db.crash();
    db.recover().unwrap();
    assert_eq!(get(&db, 5), Some(b"v3".to_vec()));
    // And the database remains writable with correct semantics afterwards.
    assert!(put(&db, 5, b"v4"));
    assert_eq!(get(&db, 5), Some(b"v4".to_vec()));
    db.shutdown();
}

#[test]
fn crash_during_activity_from_multiple_threads_is_safe() {
    let db = std::sync::Arc::new(test_db());
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..3u64 {
            let db = db.clone();
            let stop = &stop;
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let key = 1_000 + t * 50 + (i % 50);
                    let _ = put(&db, key, &key.to_le_bytes());
                    i += 1;
                }
            });
        }
        // Let the writers make progress, then crash under them.
        std::thread::sleep(Duration::from_millis(80));
        db.crash();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    db.recover().unwrap();
    // The database must be consistent and serviceable; we don't know exactly
    // which writes committed, but every readable value must be well-formed.
    // Scan in small chunks so each verification transaction fits within one
    // epoch's read batches.
    for key in 1_000..1_150u64 {
        if let Some(value) = get(&db, key) {
            assert_eq!(value, key.to_le_bytes().to_vec(), "torn value at key {key}");
        }
    }
    db.shutdown();
}
