//! Property-based tests (proptest) over the core data structures and the
//! ORAM: read-your-writes under arbitrary operation sequences, codec
//! roundtrips, stash/position-map invariants and MVTSO conflict rules.

use obladi_common::config::OramConfig;
use obladi_common::types::AbortReason;
use obladi_core::concurrency::{MvtsoManager, ReadOutcome};
use obladi_crypto::{Envelope, KeyMaterial};
use obladi_oram::{Block, ExecOptions, NoopPathLogger, PositionMap, RingOram, WritebackEngine};
use obladi_storage::{InMemoryStore, UntrustedStore};
use obladi_workloads::Row;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// An operation in the ORAM model test.
#[derive(Debug, Clone)]
enum Op {
    Write(u8, u8),
    Read(u8),
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Write(k % 64, v)),
        any::<u8>().prop_map(|k| Op::Read(k % 64)),
        Just(Op::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ORAM behaves like a plain map under any sequence of reads, writes
    /// and epoch flushes (read-your-writes, no lost or phantom values).
    #[test]
    fn oram_matches_reference_map(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let config = OramConfig::small_for_tests(128).with_max_stash(1_024);
        let keys = KeyMaterial::for_tests(11);
        let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
        let (reader, mut engine) = RingOram::new(config, &keys, store, ExecOptions::parallel(2), 5)
            .unwrap()
            .split();
        let mut reference: HashMap<u64, Vec<u8>> = HashMap::new();
        // One read from a single thread: the batch, then the maintenance
        // it made due.
        let read = |engine: &mut WritebackEngine, key: u64| {
            let got = reader.read_batch(&[Some(key)], &NoopPathLogger).unwrap();
            engine.run_pending_maintenance(&NoopPathLogger).unwrap();
            got[0].clone()
        };

        for op in ops {
            match op {
                Op::Write(k, v) => {
                    let key = k as u64;
                    let value = vec![v; 8];
                    engine.write_batch(&[(key, value.clone())], &NoopPathLogger).unwrap();
                    reference.insert(key, value);
                }
                Op::Read(k) => {
                    let key = k as u64;
                    prop_assert_eq!(read(&mut engine, key), reference.get(&key).cloned());
                }
                Op::Flush => {
                    engine.flush_writes(&NoopPathLogger).unwrap();
                }
            }
        }
        // Final sweep: every key the reference knows must be readable.
        engine.flush_writes(&NoopPathLogger).unwrap();
        for (key, value) in &reference {
            prop_assert_eq!(read(&mut engine, *key), Some(value.clone()));
        }
    }

    /// Envelope seal/open roundtrips for arbitrary payloads and bindings, and
    /// never opens under a different location or counter.
    #[test]
    fn envelope_roundtrip_and_binding(
        payload in prop::collection::vec(any::<u8>(), 0..200),
        location in any::<u64>(),
        counter in any::<u64>(),
    ) {
        let envelope = Envelope::new(&KeyMaterial::for_tests(3));
        let capacity = payload.len().max(1) + 16;
        let sealed = envelope.seal(location, counter, &payload, capacity).unwrap();
        prop_assert_eq!(envelope.open(location, counter, &sealed).unwrap(), payload);
        prop_assert!(envelope.open(location ^ 1, counter, &sealed).is_err());
        prop_assert!(envelope.open(location, counter.wrapping_add(1), &sealed).is_err());
    }

    /// Block and Row encodings are lossless for arbitrary contents.
    #[test]
    fn block_and_row_roundtrip(
        key in 0u64..u64::MAX - 1,
        leaf in any::<u64>(),
        value in prop::collection::vec(any::<u8>(), 0..128),
        nums in prop::collection::vec(any::<u64>(), 0..12),
        blob in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let block = Block::real(key, leaf, value);
        prop_assert_eq!(Block::decode(&block.encode()).unwrap(), block);

        let row = Row::with_blob(nums, blob);
        prop_assert_eq!(Row::decode(&row.encode()).unwrap(), row);
    }

    /// Position-map deltas reconstruct the map regardless of the update
    /// sequence, and padded encodings have workload-independent length.
    #[test]
    fn position_map_delta_reconstruction(
        updates in prop::collection::vec((0u64..64, 0u64..32), 1..100),
    ) {
        let mut original = PositionMap::new();
        let mut replica = PositionMap::new();
        for chunk in updates.chunks(10) {
            for (key, leaf) in chunk {
                original.set(*key, *leaf);
            }
            let delta = original.take_delta();
            let encoded = PositionMap::encode_delta(&delta, 16);
            // Padded length is a function of the pad size only.
            prop_assert_eq!(encoded.len(), PositionMap::encode_delta(&[], 16).len());
            let decoded = PositionMap::decode_delta(&encoded).unwrap();
            replica.apply_delta(&decoded);
        }
        for (key, leaf) in original.iter() {
            prop_assert_eq!(replica.get(key), Some(leaf));
        }
    }

    /// MVTSO never lets two transactions both commit after writing the same
    /// key when one of them should have been rejected, and committed tail
    /// writes always come from committed transactions.
    #[test]
    fn mvtso_conflicting_writers_resolve_consistently(
        txn_count in 2u64..8,
        key_count in 1u64..4,
        ops in prop::collection::vec((1u64..8, 0u64..4, any::<bool>()), 1..40),
    ) {
        let mut manager = MvtsoManager::new();
        for txn in 1..=txn_count {
            manager.begin(txn);
        }
        for key in 0..key_count {
            manager.register_base(key, Some(vec![0u8]));
        }
        for (txn, key, is_write) in ops {
            let txn = (txn % txn_count) + 1;
            let key = key % key_count;
            if !matches!(manager.status(txn), Some(obladi_core::TxnStatus::Active)) {
                continue;
            }
            if is_write {
                let _ = manager.write(txn, key, vec![txn as u8]);
            } else if let Ok(ReadOutcome::NeedsFetch) = manager.read(txn, key) {
                manager.register_base(key, Some(vec![0u8]));
            }
        }
        for txn in 1..=txn_count {
            if matches!(manager.status(txn), Some(obladi_core::TxnStatus::Active)) {
                let _ = manager.request_commit(txn);
            }
        }
        let (committed, aborted) = manager.finalize();
        // Every transaction ends in exactly one of the two sets.
        for txn in 1..=txn_count {
            let in_committed = committed.contains(&txn);
            let in_aborted = aborted.contains(&txn);
            prop_assert!(in_committed ^ in_aborted,
                "transaction {} is in neither or both of committed/aborted", txn);
        }
        // Tail writes must come from committed transactions only.
        for (_, value) in manager.committed_tail_writes() {
            let writer = value[0] as u64;
            prop_assert!(committed.contains(&writer) || writer == 0);
        }
    }

    /// Cascading aborts never leave a committed transaction that observed an
    /// aborted writer.
    #[test]
    fn cascading_aborts_are_transitive(chain_len in 2usize..8) {
        let mut manager = MvtsoManager::new();
        manager.register_base(0, Some(vec![0]));
        for txn in 1..=(chain_len as u64) {
            manager.begin(txn);
            // Each transaction reads the previous writer's value then writes.
            let _ = manager.read(txn, 0);
            let _ = manager.write(txn, 0, vec![txn as u8]);
        }
        // Abort the first writer; everything downstream must abort.
        let aborted = manager.abort(1, AbortReason::UserRequested);
        prop_assert_eq!(aborted.len(), chain_len);
    }
}
