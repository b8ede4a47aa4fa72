//! Cross-crate integration tests: applications running end-to-end on the
//! Obladi proxy (workloads → proxy → MVTSO → ORAM → storage).

use obladi::prelude::*;
use obladi::workloads::{
    run_fixed_count, FreeHealthConfig, FreeHealthWorkload, SmallBankConfig, SmallBankWorkload,
    TpccConfig, TpccWorkload, Workload, YcsbConfig, YcsbWorkload,
};
use std::time::Duration;

/// A proxy configuration sized for integration tests: small tree, short
/// epochs, batches large enough for the application setup transactions.
fn test_db(num_objects: u64) -> ObladiDb {
    let mut config = ObladiConfig::small_for_tests(num_objects);
    // Enough read batches per epoch for the longest chain of *dependent*
    // reads the TPC-C transactions issue (each sequentially-issued read
    // consumes one batch, §6.4).
    config.epoch.read_batches = 40;
    config.epoch.read_batch_size = 16;
    config.epoch.write_batch_size = 160;
    config.epoch.batch_interval = Duration::from_millis(1);
    config.epoch.executor_threads = 4;
    // Application rows (TPC-C, YCSB) are larger than the tiny default test
    // block size.
    config.oram.block_size = 256;
    ObladiDb::open(config).expect("failed to open test proxy")
}

#[test]
fn smallbank_runs_on_obladi_and_conserves_money() {
    let db = test_db(4_096);
    let workload = SmallBankWorkload::new(SmallBankConfig {
        num_accounts: 40,
        hotspot_fraction: 0.1,
        hotspot_probability: 0.25,
    });
    workload.setup(&db).unwrap();

    let before = workload.total_balance(&db).unwrap();
    // SendPayment and Amalgamate only move money between accounts, so the
    // total balance is invariant under them (serializability + atomicity).
    let mut rng = obladi_common::rng::DetRng::new(11);
    let mut committed = 0;
    for i in 0..40 {
        let kind = if i % 2 == 0 {
            obladi::workloads::SmallBankTxn::SendPayment
        } else {
            obladi::workloads::SmallBankTxn::Amalgamate
        };
        if workload.run_txn(&db, kind, &mut rng).unwrap() {
            committed += 1;
        }
    }
    assert!(committed > 0, "some transactions must commit");

    let after = workload.total_balance(&db).unwrap();
    assert_eq!(
        after, before,
        "money created or destroyed by transfers: {before} -> {after}"
    );
    db.shutdown();
}

#[test]
fn ycsb_reads_see_committed_writes_on_obladi() {
    let db = test_db(2_048);
    let workload = YcsbWorkload::new(YcsbConfig {
        num_keys: 64,
        read_proportion: 0.5,
        ops_per_txn: 3,
        zipf_theta: 0.5,
        value_size: 24,
    });
    workload.setup(&db).unwrap();
    let stats = run_fixed_count(&db, &workload, 40, 5).unwrap();
    assert!(stats.committed > 0);
    db.shutdown();
}

#[test]
fn tpcc_new_orders_commit_on_obladi() {
    let db = test_db(4_096);
    let workload = TpccWorkload::new(TpccConfig::small());
    workload.setup(&db).unwrap();

    let mut rng = obladi_common::rng::DetRng::new(3);
    let mut committed = 0;
    for _ in 0..10 {
        if workload.new_order(&db, &mut rng).unwrap() {
            committed += 1;
        }
    }
    assert!(committed >= 5, "only {committed}/10 new orders committed");

    // District order counters must reflect the committed orders.
    let total_orders: u64 = (0..2)
        .map(|d| workload.district_next_order(&db, 0, d).unwrap())
        .sum();
    assert_eq!(total_orders as usize, committed);
    db.shutdown();
}

#[test]
fn freehealth_mix_runs_on_obladi() {
    let db = test_db(4_096);
    let workload = FreeHealthWorkload::new(FreeHealthConfig {
        users: 2,
        patients: 12,
        drugs: 8,
        episodes_per_patient: 1,
        list_limit: 2,
    });
    workload.setup(&db).unwrap();
    let stats = run_fixed_count(&db, &workload, 40, 21).unwrap();
    assert!(
        stats.committed as f64 / 40.0 > 0.5,
        "commit rate too low on Obladi: {}",
        stats.summary()
    );
    db.shutdown();
}

#[test]
fn same_workload_gives_same_final_state_on_obladi_and_2pl() {
    // Determinism check across engines: a single-threaded workload applied
    // to Obladi and to the plain 2PL engine must end in the same state.
    let obladi = test_db(2_048);
    let twopl = TwoPhaseLockingDb::new();

    let workload = YcsbWorkload::new(YcsbConfig {
        num_keys: 32,
        read_proportion: 0.0,
        ops_per_txn: 2,
        zipf_theta: 0.0,
        value_size: 16,
    });
    workload.setup(&obladi).unwrap();
    workload.setup(&twopl).unwrap();
    run_fixed_count(&obladi, &workload, 30, 77).unwrap();
    run_fixed_count(&twopl, &workload, 30, 77).unwrap();

    for key_index in 0..32u64 {
        let key = obladi::workloads::pack_key(1, key_index, 0, 0);
        let a = obladi
            .execute(&mut |txn: &mut dyn KvTransaction| txn.read(key))
            .unwrap();
        let b = twopl
            .execute(&mut |txn: &mut dyn KvTransaction| txn.read(key))
            .unwrap();
        assert_eq!(a, b, "state diverged at key index {key_index}");
    }
    obladi.shutdown();
}

#[test]
fn concurrent_clients_on_obladi_commit_their_writes() {
    let db = std::sync::Arc::new(test_db(4_096));
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let db = db.clone();
            scope.spawn(move || {
                for i in 0..6u64 {
                    let key = 10_000 + t * 100 + i;
                    loop {
                        let mut txn = db.begin().unwrap();
                        if txn.write(key, key.to_le_bytes().to_vec()).is_err() {
                            continue;
                        }
                        match txn.commit() {
                            Ok(outcome) if outcome.is_committed() => break,
                            _ => continue,
                        }
                    }
                }
            });
        }
    });
    // 24 dependent reads need 24 of one epoch's batches: an attempt that
    // starts late in an epoch aborts retryably, and so does every retry
    // inside that epoch — so retry in the next one, like any client.
    db.execute_with_retries(20, &mut |txn| {
        for t in 0..4u64 {
            for i in 0..6u64 {
                let key = 10_000 + t * 100 + i;
                assert_eq!(
                    txn.read(key)?,
                    Some(key.to_le_bytes().to_vec()),
                    "lost write for key {key}"
                );
            }
        }
        Ok(())
    })
    .expect("verification read failed");
    db.shutdown();
}
