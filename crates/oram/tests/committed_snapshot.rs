//! Snapshot isolation of the split client's committed state.
//!
//! Checkpoints describe the last *published* state, and nothing the two
//! planes do between two publishes may show in them: not reader batches
//! planning and ingesting on other threads, not the engine's own dummiless
//! writes.  The proptest takes full checkpoints before, during and after
//! concurrent reader batches and holds them byte-identical until the next
//! publish; the torture test holds one reader batch between its plan and
//! its fetch across two publishes and checks that the committed state keeps
//! accounting for the blocks in mid-air, and that the chain of checkpoints
//! records where they went once they land.

mod common;

use common::held_in_flight;
use obladi_common::config::OramConfig;
use obladi_common::types::{Key, Value};
use obladi_crypto::KeyMaterial;
use obladi_oram::metadata::KeyLocation;
use obladi_oram::{
    CheckpointSource, ExecOptions, MetaDelta, NoopPathLogger, OramMeta, OramReader, RingOram,
    WritebackEngine,
};
use obladi_storage::{InMemoryStore, UntrustedStore};
use proptest::prelude::*;
use std::sync::Arc;

const KEYSPACE: u64 = 64;

fn value_for(key: Key, round: u64) -> Value {
    let mut v = key.to_le_bytes().to_vec();
    v.extend_from_slice(&round.to_le_bytes());
    v
}

fn open_split(seed: u64) -> (OramReader, WritebackEngine, Arc<dyn UntrustedStore>) {
    let config = OramConfig::small_for_tests(KEYSPACE * 2);
    let keys = KeyMaterial::for_tests(seed);
    let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
    let oram = RingOram::new(config, &keys, store.clone(), ExecOptions::parallel(4), seed);
    let (reader, engine) = oram.expect("client must open").split();
    (reader, engine, store)
}

/// The even keys' values of `round`, applied to the live state only.
fn write_round(engine: &mut WritebackEngine, round: u64) {
    let writes: Vec<(Key, Value)> = (0..KEYSPACE)
        .filter(|k| k % 2 == 0)
        .map(|k| (k, value_for(k, round)))
        .collect();
    engine
        .write_batch(&writes, &NoopPathLogger)
        .expect("write batch");
}

/// One writes-then-flush round on the engine: mutates live state and
/// publishes it.
fn publish_round(engine: &mut WritebackEngine, round: u64) {
    write_round(engine, round);
    engine.flush_writes(&NoopPathLogger).expect("flush");
}

/// Four keys of residue `lane` (1 or 3) mod 4: odd, so disjoint from
/// `write_round`'s, and disjoint between the two lanes, as the split
/// client's caller contract requires of concurrent batches.
fn lane_reads(lane: u64, offset: u64) -> Vec<Option<Key>> {
    (0..4)
        .map(|i| Some(((offset + i) * 4 + lane) % KEYSPACE))
        .collect()
}

/// Runs `during` on this thread while two others drive reader batches.
fn with_concurrent_readers<T>(reader: &OramReader, seed: u64, during: impl FnOnce() -> T) -> T {
    std::thread::scope(|scope| {
        for lane in [1, 3] {
            let reader = reader.clone();
            scope.spawn(move || {
                for i in 0..6 {
                    reader
                        .read_batch(&lane_reads(lane, seed + i), &NoopPathLogger)
                        .expect("concurrent read");
                }
            });
        }
        during()
    })
}

fn check_case(seed: u64) -> std::result::Result<(), String> {
    let (reader, mut engine, _store) = open_split(seed);
    // Advance past the freshly initialised state so the committed state has
    // real history behind it.
    publish_round(&mut engine, 0);
    reader
        .read_batch(&lane_reads(1, seed), &NoopPathLogger)
        .map_err(|e| format!("warm-up read: {e}"))?;
    let full = |engine: &WritebackEngine| engine.checkpoint_full().expect("full checkpoint");

    let baseline = full(&engine);
    let during = with_concurrent_readers(&reader, seed, || {
        let mut taken: Vec<Vec<u8>> = (0..4).map(|_| full(&engine)).collect();
        // The engine's own plane moves the live state too.
        write_round(&mut engine, 1);
        taken.extend((0..4).map(|_| full(&engine)));
        taken
    });
    if during.iter().any(|bytes| *bytes != baseline) {
        return Err(format!(
            "a checkpoint taken during reads diverged (seed {seed})"
        ));
    }
    if full(&engine) != baseline {
        return Err(format!(
            "the checkpoint after the reads diverged (seed {seed})"
        ));
    }
    if engine.meta_snapshot().encode_full() == baseline {
        return Err(format!("the live state never moved (seed {seed})"));
    }

    // A publish is what moves it — here with reader batches in flight.
    with_concurrent_readers(&reader, seed + 7, || {
        engine.flush_writes(&NoopPathLogger).expect("flush")
    });
    let published = full(&engine);
    if published == baseline {
        return Err(format!("the publish was a no-op (seed {seed})"));
    }
    if published != engine.committed_meta().encode_full() {
        return Err(format!(
            "a full checkpoint is not the committed state (seed {seed})"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Full checkpoints taken before, during and after concurrent reader
    /// batches are byte-identical, and change only at a publish.
    #[test]
    fn checkpoints_between_two_publishes_are_identical(seed in 1u64..10_000) {
        if let Err(problem) = check_case(seed) {
            return Err(TestCaseError::fail(problem));
        }
    }
}

/// Whether `meta` holds `key` in the stash or in any bucket.
fn accounted_for(meta: &OramMeta, key: Key) -> bool {
    let everywhere: Vec<u64> = (0..meta.buckets.len() as u64).collect();
    meta.locate_key(key, &everywhere) != KeyLocation::Missing
}

/// Torture: one reader batch held in mid-air across two publishes.  Both
/// published states keep its targets where the last landed write put them;
/// once it is ingested, the next delta records where they went; and the
/// chain of checkpoints rebuilds a client that reads every key.
#[test]
fn a_batch_held_across_two_publishes_is_accounted_for_throughout() {
    const SEED: u64 = 0xdead_beef;
    let (reader, mut engine, store) = open_split(SEED);
    let load: Vec<(Key, Value)> = (0..KEYSPACE).map(|k| (k, value_for(k, 0))).collect();
    engine.write_batch(&load, &NoopPathLogger).unwrap();
    engine.flush_writes(&NoopPathLogger).unwrap();
    let mut replica = OramMeta::decode_full(&engine.checkpoint_full().unwrap()).unwrap();
    let mut apply_delta = |engine: &mut WritebackEngine, what: &str| {
        let delta = engine.checkpoint_delta(64).unwrap();
        replica.apply_delta(&MetaDelta::decode(&delta.encode()).unwrap());
        assert!(
            replica.encode_full() == engine.committed_meta().encode_full(),
            "full + deltas is not the committed state {what}"
        );
        delta
    };

    let (held, is_planned, let_go) = held_in_flight();
    let batch: Vec<Option<Key>> = (0..8).map(|i| Some(8 * i + 1)).collect();
    std::thread::scope(|scope| {
        // Dropped with this closure, unwinding or not.
        let let_go = let_go;
        // Planned against the buffered buckets the flush is about to write,
        // so its fence has nothing to wait for.
        write_round(&mut engine, 1);
        let before_plan = engine.meta_snapshot();
        let (second_reader, held, batch) = (reader.clone(), &held, &batch);
        let in_flight = scope.spawn(move || second_reader.read_batch(batch, held).unwrap());
        is_planned.recv().unwrap();
        let planned = engine.meta_snapshot();
        let mid_air: Vec<Key> = batch
            .iter()
            .flatten()
            .copied()
            .filter(|key| !accounted_for(&planned, *key))
            .collect();
        assert!(!mid_air.is_empty(), "no target of the batch left the tree");

        // Neither publish may lose the blocks in mid-air: each is where the
        // last landed write put it, at the leaf it had before the plan.
        let assert_patched_in = |engine: &WritebackEngine, what: &str| {
            let committed = engine.committed_meta();
            for &key in &mid_air {
                let leaf = before_plan.position.get(key);
                assert_eq!(committed.position.get(key), leaf, "key {key} {what}");
                let path = engine.geometry().path(leaf.unwrap());
                let at = committed.locate_key(key, &path);
                assert!(matches!(at, KeyLocation::Bucket(_)), "key {key} {what}");
            }
        };
        engine.flush_writes(&NoopPathLogger).unwrap();
        assert_patched_in(&engine, "after the first publish");
        apply_delta(&mut engine, "after the first publish");
        // The other reader moves the live state on, over the same buckets;
        // an empty flush publishes it (a write-back could not get past the
        // held batch's buckets: that is the per-bucket fence).
        for offset in 0..4 {
            let reads = lane_reads(3, offset);
            reader.read_batch(&reads, &NoopPathLogger).unwrap();
        }
        engine.flush_writes(&NoopPathLogger).unwrap();
        assert_patched_in(&engine, "after the second publish");
        apply_delta(&mut engine, "after the second publish");

        // Let it land: the blocks are in the stash, at their new leaves,
        // and the next delta says so.
        let_go.send(()).unwrap();
        let read = in_flight.join().expect("held reader panicked");
        for (request, value) in batch.iter().zip(read) {
            assert_eq!(value, Some(value_for(request.unwrap(), 0)));
        }
        engine.flush_writes(&NoopPathLogger).unwrap();
        let live = engine.meta_snapshot();
        let delta = apply_delta(&mut engine, "after the ingest");
        for &key in &mid_air {
            let landed = (key, live.position.get(key));
            assert_ne!(landed.1, before_plan.position.get(key), "key {key}");
            assert!(delta.position_delta.contains(&landed), "key {key}");
            assert!(delta.stash_added.iter().any(|b| b.key == key), "key {key}");
        }
    });

    let keys = KeyMaterial::for_tests(SEED);
    let rebuilt = RingOram::from_meta(replica, &keys, store, ExecOptions::parallel(4), 5);
    // The read plane alone: it writes nothing to the shared store.
    let (rebuilt, _engine) = rebuilt.split();
    for key in 0..KEYSPACE {
        let round = u64::from(key % 2 == 0);
        let read = rebuilt.read_batch(&[Some(key)], &NoopPathLogger).unwrap();
        assert_eq!(read[0], Some(value_for(key, round)), "key {key}");
    }
}
