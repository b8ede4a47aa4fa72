//! Integrity tests for the malicious-server extension (Appendix A).
//!
//! The honest-but-curious model of the main paper assumes storage returns
//! what was written; Appendix A drops that assumption and reduces a
//! malicious server to denial of service by MACing every block with a
//! binding to its location and freshness counter.  These tests point the
//! ORAM client and the full proxy at a [`FaultyStore`] that corrupts,
//! replays or drops data, and verify the two properties that matter:
//!
//! 1. tampered data is *detected* (an `Integrity`/abort error, never a
//!    successful read of wrong bytes), and
//! 2. once the server behaves again, the data the client wrote is intact.

use obladi::crypto::KeyMaterial;
use obladi::oram::{ExecOptions, NoopPathLogger, OramReader, RingOram, WritebackEngine};
use obladi::prelude::*;
use obladi::storage::{FaultPlan, FaultyStore, InMemoryStore, UntrustedStore};
use std::sync::Arc;
use std::time::Duration;

/// An ORAM client over `store` with keys `0..64` loaded.
fn loaded_oram_over(store: Arc<dyn UntrustedStore>, seed: u64) -> (OramReader, WritebackEngine) {
    let config = OramConfig::small_for_tests(256).with_max_stash(2_048);
    let keys = KeyMaterial::for_tests(seed);
    let (reader, mut engine) = RingOram::new(config, &keys, store, ExecOptions::parallel(2), seed)
        .unwrap()
        .split();
    let writes: Vec<(Key, Value)> = (0..64).map(|k| (k, vec![k as u8; 8])).collect();
    for chunk in writes.chunks(32) {
        engine.write_batch(chunk, &NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
    }
    (reader, engine)
}

/// Reads `key` the way a single thread drives the halves: the batch, then
/// the maintenance it made due.
fn read((reader, engine): &mut (OramReader, WritebackEngine), key: Key) -> Result<Option<Value>> {
    let values = reader.read_batch(&[Some(key)], &NoopPathLogger)?;
    engine.run_pending_maintenance(&NoopPathLogger)?;
    Ok(values.into_iter().next().flatten())
}

#[test]
fn corrupted_slots_are_detected_and_never_served_as_data() {
    let faulty = Arc::new(FaultyStore::new(
        Arc::new(InMemoryStore::new()),
        FaultPlan::none(),
        1,
    ));
    let mut oram = loaded_oram_over(faulty.clone(), 1);

    // The server turns malicious: every slot read is corrupted.
    faulty.set_plan(FaultPlan::corrupt(1.0));
    let mut detected = 0;
    for key in 0..16u64 {
        match read(&mut oram, key) {
            Ok(value) => {
                // A successful read must still return the correct bytes
                // (e.g. served from the stash / epoch buffer, which the
                // adversary cannot touch).
                if let Some(value) = &value {
                    assert_eq!(
                        value,
                        &vec![key as u8; 8],
                        "tampered data served for key {key}"
                    );
                }
            }
            Err(err) => {
                assert!(
                    matches!(err, ObladiError::Integrity(_) | ObladiError::Storage(_)),
                    "unexpected error kind for key {key}: {err}"
                );
                detected += 1;
            }
        }
    }
    assert!(detected > 0, "no corruption was detected across 16 reads");
    assert!(faulty.injected_faults() > 0);
}

#[test]
fn stale_replays_are_detected_by_the_freshness_binding() {
    let faulty = Arc::new(FaultyStore::new(
        Arc::new(InMemoryStore::new()),
        FaultPlan::none(),
        2,
    ));
    // Honest phase: load the tree.
    let mut oram = loaded_oram_over(faulty.clone(), 2);

    // Malicious phase: the server starts answering slot reads with the
    // previous version of the bucket whenever it has one.  Operations may
    // legitimately fail from here on; what must never happen is a read
    // returning bytes other than the ones the client wrote.  Once an
    // operation has failed, the client state may no longer be usable (in
    // the full system the proxy aborts the epoch and recovers), so the test
    // stops at the first detection.
    faulty.set_plan(FaultPlan::stale(1.0));
    let mut detected = false;

    // Overwrite a few keys so buckets get rewritten and the faulty store
    // retains stale versions it can replay.
    let writes: Vec<(Key, Value)> = (0..16).map(|k| (k, vec![k as u8; 8])).collect();
    let engine = &mut oram.1;
    let write_result = engine
        .write_batch(&writes, &NoopPathLogger)
        .and_then(|()| engine.flush_writes(&NoopPathLogger));
    match write_result {
        Ok(()) => {
            for key in 0..64u64 {
                match read(&mut oram, key) {
                    Ok(value) => {
                        if let Some(value) = &value {
                            assert_eq!(
                                value,
                                &vec![key as u8; 8],
                                "stale data served for key {key}"
                            );
                        }
                    }
                    Err(err) => {
                        assert!(
                            matches!(err, ObladiError::Integrity(_) | ObladiError::Storage(_)),
                            "unexpected error kind: {err}"
                        );
                        detected = true;
                        break;
                    }
                }
            }
        }
        Err(err) => {
            // The eviction read phase already tripped the freshness check.
            assert!(
                matches!(err, ObladiError::Integrity(_) | ObladiError::Storage(_)),
                "unexpected error kind: {err}"
            );
            detected = true;
        }
    }

    // The freshness binding must have tripped whenever a replay was
    // actually injected.
    assert!(
        detected || faulty.injected_faults() == 0,
        "stale replays were injected ({}) but never detected",
        faulty.injected_faults()
    );
}

#[test]
fn proxy_aborts_transactions_instead_of_returning_tampered_data() {
    let faulty = Arc::new(FaultyStore::new(
        Arc::new(InMemoryStore::new()),
        FaultPlan::none(),
        3,
    ));
    let mut config = ObladiConfig::small_for_tests(1_024);
    config.epoch.read_batches = 2;
    config.epoch.read_batch_size = 8;
    config.epoch.write_batch_size = 16;
    config.epoch.batch_interval = Duration::from_millis(1);
    let db = ObladiDb::open_with(
        config,
        faulty.clone(),
        obladi::storage::TrustedCounter::new(),
        KeyMaterial::for_tests(3),
    )
    .unwrap();

    // Honest phase: load and verify.
    for key in 0..32u64 {
        let mut txn = db.begin().unwrap();
        txn.write(key, vec![key as u8; 8]).unwrap();
        assert!(txn.commit().unwrap().is_committed());
    }

    // Malicious phase: every slot read is corrupted.  Transactions that
    // need storage must abort; none may observe wrong bytes.
    faulty.set_plan(FaultPlan::corrupt(1.0));
    let mut aborted = 0;
    for key in 0..16u64 {
        let mut txn = match db.begin() {
            Ok(txn) => txn,
            Err(_) => {
                aborted += 1;
                continue;
            }
        };
        match txn.read(key) {
            Ok(Some(value)) => assert_eq!(value, vec![key as u8; 8], "tampered read at key {key}"),
            Ok(None) => {}
            Err(_) => aborted += 1,
        }
        let _ = txn.commit();
    }
    assert!(aborted > 0, "corruption never surfaced as an abort");

    // Honest again: after the malicious interlude the proxy's volatile ORAM
    // state may be arbitrarily out of sync with storage (failed epochs were
    // aborted mid-flight), so the proxy does what §8 prescribes — it treats
    // the episode like a crash and recovers from the durable checkpoint —
    // and every committed write must still be there.
    faulty.set_plan(FaultPlan::none());
    db.crash();
    db.recover().unwrap();
    for key in 0..32u64 {
        let mut value = None;
        for _ in 0..20 {
            let mut txn = db.begin().unwrap();
            match txn.read(key) {
                Ok(v) => {
                    value = v;
                    let _ = txn.commit();
                    break;
                }
                Err(err) if err.is_retryable() => continue,
                Err(err) => panic!("unexpected error after server recovered: {err}"),
            }
        }
        assert_eq!(
            value,
            Some(vec![key as u8; 8]),
            "key {key} damaged by the malicious phase"
        );
    }
    db.shutdown();
}

#[test]
fn storage_outage_is_reduced_to_denial_of_service() {
    // After `fail_after` operations the server refuses everything; the proxy
    // must degrade to aborting transactions, and resume correctly once the
    // outage ends (here: never, so we only check the abort path), without
    // panicking or wedging.
    let faulty = Arc::new(FaultyStore::new(
        Arc::new(InMemoryStore::new()),
        FaultPlan::none(),
        4,
    ));
    let mut config = ObladiConfig::small_for_tests(512);
    config.epoch.read_batches = 2;
    config.epoch.read_batch_size = 8;
    config.epoch.write_batch_size = 16;
    config.epoch.batch_interval = Duration::from_millis(1);
    let db = ObladiDb::open_with(
        config,
        faulty.clone(),
        obladi::storage::TrustedCounter::new(),
        KeyMaterial::for_tests(4),
    )
    .unwrap();

    for key in 0..8u64 {
        let mut txn = db.begin().unwrap();
        txn.write(key, vec![1; 4]).unwrap();
        let _ = txn.commit();
    }

    // Cut the server off entirely.
    faulty.set_plan(FaultPlan::fail_after(0));
    let mut committed = 0;
    for key in 0..8u64 {
        let mut txn = match db.begin() {
            Ok(txn) => txn,
            Err(_) => continue,
        };
        let _ = txn.read(key);
        if let Ok(outcome) = txn.commit() {
            if outcome.is_committed() {
                committed += 1;
            }
        }
    }
    // Read-only transactions can only commit if they were served entirely
    // from client-side state; they must never manufacture data.
    assert!(committed <= 8);
    db.shutdown();
}
