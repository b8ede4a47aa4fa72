//! Snapshot isolation of the split client's committed state.
//!
//! Checkpoints describe the last *published* state, and nothing the two
//! planes do between two publishes may show in them: not reader batches
//! planning and ingesting on another thread, not the engine's own
//! dummiless writes.  The proptest takes full checkpoints before, during
//! and after a reader thread's batches and holds them byte-identical until
//! the next publish.  A flush publishes only while no reader batch is in
//! flight: the torture tests hold one batch between its plan and its fetch,
//! planned before a flush or during its bucket writes, and check that the
//! flush waits for it, that the published state accounts for the blocks
//! that were in mid-air, and that the chain of checkpoints records where
//! they went.

mod common;

use bytes::Bytes;
use common::held_in_flight;
use obladi_common::config::OramConfig;
use obladi_common::error::Result;
use obladi_common::types::{BucketId, Key, Value, Version};
use obladi_crypto::KeyMaterial;
use obladi_oram::metadata::KeyLocation;
use obladi_oram::{
    CheckpointSource, ExecOptions, MetaDelta, NoopPathLogger, OramMeta, OramReader, RingOram,
    WritebackEngine,
};
use obladi_storage::{BucketSnapshot, InMemoryStore, StoreStats, UntrustedStore};
use proptest::prelude::*;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const KEYSPACE: u64 = 64;

fn value_for(key: Key, round: u64) -> Value {
    let mut v = key.to_le_bytes().to_vec();
    v.extend_from_slice(&round.to_le_bytes());
    v
}

fn open_split(seed: u64) -> (OramReader, WritebackEngine, Arc<dyn UntrustedStore>) {
    open_split_on(seed, Arc::new(InMemoryStore::new()))
}

fn open_split_on(
    seed: u64,
    store: Arc<dyn UntrustedStore>,
) -> (OramReader, WritebackEngine, Arc<dyn UntrustedStore>) {
    let config = OramConfig::small_for_tests(KEYSPACE * 2);
    let keys = KeyMaterial::for_tests(seed);
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

/// Four distinct odd keys: disjoint from `write_round`'s, as the split
/// client's caller contract requires of keys read and written
/// concurrently.
fn odd_reads(offset: u64) -> Vec<Option<Key>> {
    (0..4)
        .map(|i| Some(((offset + i) * 2 + 1) % KEYSPACE))
        .collect()
}

/// Runs `during` on this thread while another drives reader batches.
fn with_concurrent_reader<T>(reader: &OramReader, seed: u64, during: impl FnOnce() -> T) -> T {
    std::thread::scope(|scope| {
        let reader = reader.clone();
        scope.spawn(move || {
            for i in 0..12 {
                reader
                    .read_batch(&odd_reads(seed + i), &NoopPathLogger)
                    .expect("concurrent read");
            }
        });
        during()
    })
}

fn check_case(seed: u64) -> std::result::Result<(), String> {
    let (reader, mut engine, _store) = open_split(seed);
    // Advance past the freshly initialised state so the committed state has
    // real history behind it.
    publish_round(&mut engine, 0);
    reader
        .read_batch(&odd_reads(seed), &NoopPathLogger)
        .map_err(|e| format!("warm-up read: {e}"))?;
    let full = |engine: &WritebackEngine| engine.checkpoint_full().expect("full checkpoint");

    let baseline = full(&engine);
    let during = with_concurrent_reader(&reader, seed, || {
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
    with_concurrent_reader(&reader, seed + 7, || {
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

    /// Full checkpoints taken before, during and after a reader thread's
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

/// How long a flush that should be waiting is given to return anyway.
const NOT_YET: Duration = Duration::from_millis(200);
/// How long anything that should happen is given to happen.
const SOON: Duration = Duration::from_secs(10);

/// Every key of `batch` is in the stash of `meta`, at the leaf it is mapped
/// to: where a landed read batch leaves its keys.
fn assert_in_stash_at_their_leaves(meta: &OramMeta, batch: &[Option<Key>], what: &str) {
    for &key in batch.iter().flatten() {
        let leaf = meta.position.get(key).expect("a loaded key is mapped");
        let in_stash = meta.stash.get(key).map(|(at, _)| at);
        assert_eq!(in_stash, Some(leaf), "key {key} {what}");
    }
}

/// Torture: a flush waits for a batch planned before it.  The batch is
/// planned against the buckets the flush is about to write, so it reads
/// none of them; the flush still must not publish past it.  Once it lands
/// the published state accounts for the blocks that were in mid-air, the
/// next delta records where they went, and the chain of checkpoints
/// rebuilds a client that reads every key.
#[test]
fn a_flush_waits_for_a_batch_planned_before_it() {
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
        write_round(&mut engine, 1);
        let before_plan = engine.meta_snapshot();
        let (held_reader, held, batch) = (reader.clone(), &held, &batch);
        let in_flight = scope.spawn(move || held_reader.read_batch(batch, held).unwrap());
        is_planned.recv_timeout(SOON).expect("the batch plans");
        let planned = engine.meta_snapshot();
        let mid_air: Vec<Key> = (batch.iter().flatten().copied())
            .filter(|key| !accounted_for(&planned, *key))
            .collect();
        assert!(!mid_air.is_empty(), "no target of the batch left the tree");

        let (flushed, has_flushed) = mpsc::channel();
        let engine = &mut engine;
        let flush = scope.spawn(move || {
            let result = engine.flush_writes(&NoopPathLogger);
            let _ = flushed.send(());
            result.map(|()| engine)
        });
        let early = has_flushed.recv_timeout(NOT_YET);
        assert_eq!(
            early,
            Err(RecvTimeoutError::Timeout),
            "the flush published past a batch in flight"
        );

        // Let it land: the flush publishes behind it, with the blocks in
        // the stash at their new leaves, and the next delta says so.
        let_go.send(()).unwrap();
        let read = in_flight.join().expect("held reader panicked");
        for (request, value) in batch.iter().zip(read) {
            assert_eq!(value, Some(value_for(request.unwrap(), 0)));
        }
        let engine = flush.join().expect("flush panicked").expect("flush");
        let committed = engine.committed_meta();
        assert_in_stash_at_their_leaves(&committed, batch, "after the publish");
        let delta = apply_delta(engine, "after the publish");
        // A remap may draw a key's old leaf again; the keys that moved must
        // show where to.
        let moved: Vec<_> = (mid_air.iter())
            .map(|&key| (key, committed.position.get(key)))
            .filter(|&(key, leaf)| leaf != before_plan.position.get(key))
            .collect();
        assert!(!moved.is_empty(), "no target of the batch moved");
        for landed in moved {
            assert!(delta.position_delta.contains(&landed), "key {}", landed.0);
        }
        for &key in &mid_air {
            assert!(delta.stash_added.iter().any(|b| b.key == key), "key {key}");
        }
        // A second, empty flush publishes again; its delta keeps the chain.
        engine.flush_writes(&NoopPathLogger).unwrap();
        apply_delta(engine, "after the second publish");
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

/// An in-memory store whose bucket writes, once [`ParkedWrites::park`] has
/// run, say so and wait until the test releases them.
#[derive(Default)]
struct ParkedWrites {
    inner: InMemoryStore,
    /// Tells the test a write is parked; the writes wait on the receiver
    /// until its sender is dropped.
    gate: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl ParkedWrites {
    /// Parks the bucket writes from now on: the returned receiver hears of
    /// each parked call, and dropping the returned sender releases them all
    /// (the test owns it where it can unwind, so a failed assertion
    /// releases them too).
    fn park(&self) -> (mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (parked, is_parked) = mpsc::channel();
        let (release, released) = mpsc::channel();
        *self.gate.lock().unwrap() = Some((parked, released));
        (is_parked, release)
    }
}

impl UntrustedStore for ParkedWrites {
    fn read_slot(&self, bucket: BucketId, slot: u32) -> Result<Bytes> {
        self.inner.read_slot(bucket, slot)
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<BucketSnapshot> {
        self.inner.read_bucket(bucket)
    }

    fn write_bucket(&self, bucket: BucketId, slots: Vec<Bytes>) -> Result<Version> {
        self.inner.write_bucket(bucket, slots)
    }

    fn write_buckets(&self, writes: Vec<(BucketId, Vec<Bytes>)>) -> Vec<Result<Version>> {
        // Held across the wait: the flush's other chunks queue behind it.
        if let Some((parked, released)) = &*self.gate.lock().unwrap() {
            let _ = parked.send(());
            let _ = released.recv();
        }
        self.inner.write_buckets(writes)
    }

    fn bucket_version(&self, bucket: BucketId) -> Result<Version> {
        self.inner.bucket_version(bucket)
    }

    fn revert_bucket(&self, bucket: BucketId, version: Version) -> Result<()> {
        self.inner.revert_bucket(bucket, version)
    }

    fn put_meta(&self, key: &str, value: Bytes) -> Result<()> {
        self.inner.put_meta(key, value)
    }

    fn get_meta(&self, key: &str) -> Result<Option<Bytes>> {
        self.inner.get_meta(key)
    }

    fn append_log(&self, record: Bytes) -> Result<u64> {
        self.inner.append_log(record)
    }

    fn read_log_from(&self, from: u64) -> Result<Vec<(u64, Bytes)>> {
        self.inner.read_log_from(from)
    }

    fn truncate_log(&self, up_to: u64) -> Result<()> {
        self.inner.truncate_log(up_to)
    }

    fn truncate_log_tail(&self, from: u64) -> Result<()> {
        self.inner.truncate_log_tail(from)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

/// A batch planned while a flush's bucket writes are on their way reads no
/// buffered bucket, so it plans and fetches beside them; but the flush must
/// not install their versions and publish until the batch has landed, or
/// the published state would miss the blocks the batch holds in mid-air.
#[test]
fn a_batch_planned_during_the_flush_writes_holds_the_publish() {
    const SEED: u64 = 0x5eed;
    let parked_store = Arc::new(ParkedWrites::default());
    let (reader, mut engine, _store) = open_split_on(SEED, parked_store.clone());
    let load: Vec<(Key, Value)> = (0..KEYSPACE).map(|k| (k, value_for(k, 0))).collect();
    engine.write_batch(&load, &NoopPathLogger).unwrap();
    engine.flush_writes(&NoopPathLogger).unwrap();

    let (held, is_planned, let_go) = held_in_flight();
    let batch: Vec<Option<Key>> = (0..8).map(|i| Some(8 * i + 1)).collect();
    write_round(&mut engine, 1);
    let before = engine.meta_snapshot();
    let engine = std::thread::scope(|scope| {
        // Dropped with this closure, unwinding or not.
        let let_go = let_go;
        let (is_parked, release) = parked_store.park();
        let (flushed, has_flushed) = mpsc::channel();
        let engine = &mut engine;
        let flush = scope.spawn(move || {
            let result = engine.flush_writes(&NoopPathLogger);
            let _ = flushed.send(());
            result.map(|()| engine)
        });
        is_parked.recv_timeout(SOON).expect("the flush writes");

        let (held_reader, held, batch) = (reader.clone(), &held, &batch);
        let in_flight = scope.spawn(move || held_reader.read_batch(batch, held).unwrap());
        is_planned
            .recv_timeout(SOON)
            .expect("a batch plans beside the writes");
        drop(release);
        let early = has_flushed.recv_timeout(NOT_YET);
        assert_eq!(
            early,
            Err(RecvTimeoutError::Timeout),
            "the flush published past a batch in flight"
        );

        let_go.send(()).unwrap();
        has_flushed
            .recv_timeout(SOON)
            .expect("the flush returns once the batch lands");
        let read = in_flight.join().expect("held reader panicked");
        for (request, value) in batch.iter().zip(read) {
            assert_eq!(value, Some(value_for(request.unwrap(), 0)));
        }
        flush.join().expect("flush panicked").expect("flush")
    });

    let committed = engine.committed_meta();
    assert_in_stash_at_their_leaves(&committed, &batch, "after the publish");
    assert!(
        committed.encode_full() == engine.meta_snapshot().encode_full(),
        "quiesced, the published state is the live one"
    );
    // The batch read some target from the store, not only from the buffer:
    // one whose bucket kept its version through the flush.
    let fetched = (batch.iter().flatten()).any(|&key| {
        let path = engine.geometry().path(before.position.get(key).unwrap());
        match before.locate_key(key, &path) {
            KeyLocation::Bucket(bucket) => {
                let bucket = bucket as usize;
                committed.buckets[bucket].version == before.buckets[bucket].version
            }
            _ => false,
        }
    });
    assert!(fetched, "no target of the batch was in mid-air");
}
