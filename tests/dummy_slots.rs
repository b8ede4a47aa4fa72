//! Nothing ever opens a dummy slot.
//!
//! A bucket image seals only its real blocks; every other slot is fresh
//! keystream bytes (`crates/oram/src/split.rs`, "Dummy slots"), which is
//! sound only if no code path opens one.  [`DummyTrap`] holds the test's key
//! material, classifies every slot of every bucket write by whether it opens
//! at its location and the version the write created, and answers every read
//! of a slot written as a dummy with *different* random bytes — so a path
//! that opened one would fail its MAC.  A seeded run of the split ORAM
//! client and its rebuild from `Full` + deltas, and an `ObladiDb` crash and
//! recovery, must read every key back over it.

use bytes::Bytes;
use obladi::common::config::SLOT_LOCATION_BITS;
use obladi::common::rng::DetRng;
use obladi::common::types::{BucketId, Version};
use obladi::crypto::{Envelope, KeyMaterial};
use obladi::oram::{CheckpointSource, ExecOptions, MetaDelta, NoopPathLogger, OramMeta, RingOram};
use obladi::prelude::*;
use obladi::storage::traits::{BucketSnapshot, StoreStats};
use obladi::storage::{InMemoryStore, UntrustedStore};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

fn keys() -> KeyMaterial {
    KeyMaterial::for_tests(0xD1)
}

/// An in-memory store that swaps every dummy slot it serves for fresh bytes.
struct DummyTrap {
    inner: InMemoryStore,
    envelope: Envelope,
    /// Per bucket version written: which physical slots do not open.
    dummies: Mutex<HashMap<(BucketId, Version), Vec<bool>>>,
    /// Slots written that open, slots written that do not, and reads of
    /// the latter answered with fresh bytes.
    counts: Mutex<(u64, u64, u64)>,
}

impl DummyTrap {
    fn new() -> Arc<Self> {
        Arc::new(DummyTrap {
            inner: InMemoryStore::new(),
            envelope: Envelope::new(&keys()),
            dummies: Mutex::new(HashMap::new()),
            counts: Mutex::new((0, 0, 0)),
        })
    }

    /// Asserts the run wrote both kinds of slot and read dummies back.
    fn assert_trapped(&self) {
        let (real, dummy, trapped) = *self.counts.lock();
        assert!(real > 0 && dummy > real, "{real} real, {dummy} dummy slots");
        assert!(trapped > 100, "only {trapped} dummy reads");
    }
}

impl UntrustedStore for DummyTrap {
    fn read_slot(&self, bucket: BucketId, slot: u32) -> Result<Bytes> {
        let bytes = self.inner.read_slot(bucket, slot)?;
        let version = self.inner.bucket_version(bucket)?;
        let dummies = self.dummies.lock();
        if !dummies
            .get(&(bucket, version))
            .is_some_and(|d| d[slot as usize])
        {
            return Ok(bytes);
        }
        drop(dummies);
        self.counts.lock().2 += 1;
        let mut fresh = vec![0u8; bytes.len()];
        Envelope::fill_dummy(&mut fresh);
        assert_ne!(fresh[..], bytes[..]);
        Ok(fresh.into())
    }
    fn read_bucket(&self, bucket: BucketId) -> Result<BucketSnapshot> {
        self.inner.read_bucket(bucket)
    }
    fn write_bucket(&self, bucket: BucketId, slots: Vec<Bytes>) -> Result<Version> {
        let version = self.inner.write_bucket(bucket, slots.clone())?;
        let location = |slot: usize| (bucket << SLOT_LOCATION_BITS) | slot as u64;
        let dummies: Vec<bool> = (slots.iter().enumerate())
            .map(|(slot, bytes)| {
                (self.envelope.open_bytes(location(slot), version, bytes)).is_err()
            })
            .collect();
        let dummy = dummies.iter().filter(|&&d| d).count() as u64;
        self.dummies.lock().insert((bucket, version), dummies);
        let mut counts = self.counts.lock();
        counts.0 += slots.len() as u64 - dummy;
        counts.1 += dummy;
        Ok(version)
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

#[test]
fn a_seeded_oram_run_and_its_rebuild_never_open_a_dummy() {
    const KEYS: u64 = 128;
    let trap = DummyTrap::new();
    let store: Arc<dyn UntrustedStore> = trap.clone();
    let config = OramConfig::small_for_tests(256);
    let exec = ExecOptions::parallel(2);
    let (reader, mut engine) = RingOram::new(config, &keys(), store.clone(), exec, 7)
        .unwrap()
        .split();
    let mut rng = DetRng::new(0xD0);
    let mut model: HashMap<Key, Value> = HashMap::new();
    let mut replica: Option<OramMeta> = None;
    for epoch in 0..60u64 {
        // Reads of distinct keys (some never written), then new keys and
        // overwrites; the flush publishes, a checkpoint follows.
        let mut seen = HashSet::new();
        let requests: Vec<Option<Key>> = (0..8)
            .map(|_| Some(rng.below(KEYS)).filter(|key| seen.insert(*key)))
            .collect();
        let read = reader.read_batch(&requests, &NoopPathLogger).unwrap();
        engine.run_pending_maintenance(&NoopPathLogger).unwrap();
        for (key, value) in requests.iter().zip(read) {
            if let Some(key) = key {
                assert_eq!(value.as_ref(), model.get(key), "epoch {epoch} key {key}");
            }
        }
        let writes: Vec<(Key, Value)> = (0..6)
            .map(|_| {
                (
                    rng.below(KEYS),
                    vec![epoch as u8; 1 + rng.below(24) as usize],
                )
            })
            .collect();
        engine.write_batch(&writes, &NoopPathLogger).unwrap();
        model.extend(writes);
        engine.flush_writes(&NoopPathLogger).unwrap();
        if epoch % 5 == 0 {
            let full = engine.checkpoint_full().unwrap();
            replica = Some(OramMeta::decode_full(&full).unwrap());
        } else {
            let delta = MetaDelta::decode(&engine.checkpoint_delta(64).unwrap().encode()).unwrap();
            replica
                .as_mut()
                .expect("a full checkpoint first")
                .apply_delta(&delta);
        }
    }
    let stats = engine.stats();
    assert!(
        stats.evictions > 0 && stats.early_reshuffles > 0,
        "{stats:?}"
    );
    assert!(stats.buffered_reads > 0, "{stats:?}");
    drop((reader, engine));

    // What recovery rebuilds: the last `Full` and the deltas behind it.
    let replica = replica.expect("checkpointed");
    let (reader, mut engine) = RingOram::from_meta(replica, &keys(), store, exec, 8).split();
    engine.revert_storage_to_meta().unwrap();
    for key in 0..KEYS {
        let read = reader.read_batch(&[Some(key), None], &NoopPathLogger);
        assert_eq!(
            read.unwrap()[0].as_ref(),
            model.get(&key),
            "key {key} rebuilt"
        );
        engine.run_pending_maintenance(&NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
    }
    trap.assert_trapped();
}

#[test]
fn an_obladi_crash_and_recovery_never_open_a_dummy() {
    let mut config = ObladiConfig::small_for_tests(512);
    config.epoch.batch_interval = Duration::from_millis(1);
    config.epoch.checkpoint_every = 3;
    let trap = DummyTrap::new();
    let db = ObladiDb::open_with(config, trap.clone(), TrustedCounter::new(), keys()).unwrap();
    let value = |key: Key, round: u64| format!("{key}-{round}").into_bytes();
    for round in 0..3u64 {
        // Round 0 writes every key, later rounds overwrite half of them.
        for key in (0..32u64).filter(|key| round == 0 || key % 2 == round % 2) {
            db.execute_with_retries(50, &mut |txn| txn.write(key, value(key, round)))
                .unwrap();
        }
        db.crash();
        db.recover().unwrap();
    }
    for key in 0..32u64 {
        let read = db
            .execute_with_retries(50, &mut |txn| txn.read(key))
            .unwrap();
        let round = if key % 2 == 0 { 2 } else { 1 };
        assert_eq!(read, Some(value(key, round)), "key {key} after recovery");
    }
    db.shutdown();
    trap.assert_trapped();
}
