//! Where the split client's physical I/O runs.  Over a store whose calls
//! wait for nothing (the in-memory store, a latency model that injects
//! none) each half calls the store on its own caller's thread: the reader's
//! fetch on the thread that runs the batch, the engine's waves and flush on
//! the thread that drives it, `init_tree` on the one that opens the client.
//! Over a store that waits, the same calls run on the worker pool.

use bytes::Bytes;
use obladi_common::config::{BackendKind, OramConfig};
use obladi_common::error::Result;
use obladi_common::latency::{LatencyModel, LatencyProfile};
use obladi_common::types::{BucketId, Key, Value, Version};
use obladi_crypto::KeyMaterial;
use obladi_oram::{ExecOptions, NoopPathLogger, OramReader, RingOram, WritebackEngine};
use obladi_storage::{BucketSnapshot, InMemoryStore, LatencyStore, StoreStats, UntrustedStore};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

/// Records the thread of every slot read and bucket write.
struct ThreadLog {
    inner: Arc<dyn UntrustedStore>,
    threads: Mutex<Vec<ThreadId>>,
}

impl ThreadLog {
    fn note(&self) {
        self.threads.lock().unwrap().push(thread::current().id());
    }

    /// The threads noted since the previous call.
    fn take(&self) -> Vec<ThreadId> {
        std::mem::take(&mut *self.threads.lock().unwrap())
    }
}

impl UntrustedStore for ThreadLog {
    fn read_slot(&self, bucket: BucketId, slot: u32) -> Result<Bytes> {
        self.note();
        self.inner.read_slot(bucket, slot)
    }

    fn read_slots(&self, reads: &[(BucketId, u32)]) -> Vec<Result<Bytes>> {
        self.note();
        self.inner.read_slots(reads)
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<BucketSnapshot> {
        self.inner.read_bucket(bucket)
    }

    fn write_bucket(&self, bucket: BucketId, slots: Vec<Bytes>) -> Result<Version> {
        self.note();
        self.inner.write_bucket(bucket, slots)
    }

    fn write_buckets(&self, writes: Vec<(BucketId, Vec<Bytes>)>) -> Vec<Result<Version>> {
        self.note();
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

    fn waits(&self) -> bool {
        self.inner.waits()
    }
}

/// A latency store over memory, with `mean` per read and per write.
fn latency(mean: Duration) -> Arc<dyn UntrustedStore> {
    let mut profile = LatencyProfile::for_backend(BackendKind::Dummy);
    profile.read = LatencyModel::with_mean(mean);
    profile.write = LatencyModel::with_mean(mean);
    Arc::new(LatencyStore::new(
        Arc::new(InMemoryStore::new()),
        profile,
        3,
    ))
}

/// The threads of each phase, each phase run on a thread of its own: the
/// client opened (`init_tree`), a write batch with its wave and flush, and
/// a read batch that must return the written values.
struct Phases {
    open: (ThreadId, Vec<ThreadId>),
    flush: (ThreadId, Vec<ThreadId>),
    fetch: (ThreadId, Vec<ThreadId>),
}

fn run_phases(inner: Arc<dyn UntrustedStore>, options: ExecOptions) -> Phases {
    let log = Arc::new(ThreadLog {
        inner,
        threads: Mutex::new(Vec::new()),
    });
    let store: Arc<dyn UntrustedStore> = log.clone();
    let on_a_thread = |phase: &mut (dyn FnMut() + Send)| {
        thread::scope(|scope| {
            let runner = scope.spawn(phase);
            let id = runner.thread().id();
            runner.join().unwrap();
            (id, log.take())
        })
    };

    let client: Mutex<Option<(OramReader, WritebackEngine)>> = Mutex::new(None);
    let open = on_a_thread(&mut || {
        let config = OramConfig::small_for_tests(64);
        let keys = KeyMaterial::for_tests(5);
        let opened = RingOram::new(config, &keys, store.clone(), options, 5).unwrap();
        *client.lock().unwrap() = Some(opened.split());
    });
    let (reader, mut engine) = client.into_inner().unwrap().unwrap();

    let writes: Vec<(Key, Value)> = (0..8).map(|key| (key, vec![key as u8; 4])).collect();
    let flush = on_a_thread(&mut || {
        engine
            .write_batch_padded(&writes, 8, &NoopPathLogger)
            .unwrap();
        engine.run_pending_maintenance(&NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
    });
    let fetch = on_a_thread(&mut || {
        let keys: Vec<Option<Key>> = (0..8).map(Some).collect();
        let values = reader.read_batch(&keys, &NoopPathLogger).unwrap();
        let expected: Vec<Option<Value>> = writes.iter().map(|(_, v)| Some(v.clone())).collect();
        assert_eq!(values, expected);
    });
    Phases { open, flush, fetch }
}

fn assert_on_caller(phases: &Phases, what: &str) {
    for (name, (caller, seen)) in [
        ("init_tree", &phases.open),
        ("wave and flush", &phases.flush),
        ("fetch", &phases.fetch),
    ] {
        assert!(!seen.is_empty(), "{what}: the {name} called no store");
        assert!(
            seen.iter().all(|id| id == caller),
            "{what}: the {name} called the store off its caller's thread"
        );
    }
}

#[test]
fn over_a_store_that_waits_for_nothing_each_half_runs_on_its_caller() {
    let memory = run_phases(Arc::new(InMemoryStore::new()), ExecOptions::parallel(4));
    assert_on_caller(&memory, "in-memory store");
    let zero = run_phases(latency(Duration::ZERO), ExecOptions::parallel(4));
    assert_on_caller(&zero, "zero-latency store");
}

#[test]
fn over_a_store_with_latency_each_half_runs_on_the_pool() {
    let phases = run_phases(latency(Duration::from_micros(50)), ExecOptions::parallel(4));
    for (name, (caller, seen)) in [
        ("init_tree", &phases.open),
        ("wave and flush", &phases.flush),
        ("fetch", &phases.fetch),
    ] {
        assert!(
            seen.len() > 1,
            "the {name} went out in {} chunk(s)",
            seen.len()
        );
        assert!(
            !seen.contains(caller),
            "the {name} called the store on its caller's thread"
        );
    }
    // Sequential options keep every call on the caller whatever the store.
    let sequential = run_phases(
        latency(Duration::from_micros(50)),
        ExecOptions::sequential(),
    );
    assert_on_caller(&sequential, "sequential options");
}
