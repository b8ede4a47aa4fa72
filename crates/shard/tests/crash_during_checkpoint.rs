//! Lock-order regression test for the decider's two rungs.
//!
//! The decider releases the next epoch's reserved batches once the write
//! batch and flush land, then checkpoints.  Between the two it must drop the
//! write-back engine before it takes the state lock, and take the engine
//! again only under it — the order `ObladiDb::crash` takes them in.  Here
//! shard 0's store parks the checkpoint's log append on a latch, so the
//! decider sits past the written-back rung, inside its checkpoint, while
//! another thread crashes the shard.  The crash must come back while the
//! latch still holds: it neither deadlocks against the decider nor waits out
//! its store I/O.  Recovery, which does wait for that I/O, then brings the
//! shard back with every acknowledged write readable.

use bytes::Bytes;
use obladi_common::config::ShardConfig;
use obladi_common::error::Result;
use obladi_common::types::{BucketId, Version};
use obladi_shard::ShardedDb;
use obladi_storage::wal::WalRecordKind;
use obladi_storage::{BucketSnapshot, InMemoryStore, StoreStats, UntrustedStore};
use obladi_testkit::chaos::{commit_with_retries, cross_shard_pair};
use parking_lot::{Condvar, Mutex};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(armed, parked)`: once armed, the next checkpoint append parks until
/// the latch is disarmed.
#[derive(Default)]
struct Latch {
    state: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl Latch {
    fn arm(&self) {
        self.state.lock().0 = true;
    }

    /// Waits until an append is parked on the latch.
    fn await_parked(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        while !state.1 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            self.changed.wait_for(&mut state, left);
        }
        true
    }

    fn is_parked(&self) -> bool {
        self.state.lock().1
    }

    fn release(&self) {
        self.state.lock().0 = false;
        self.changed.notify_all();
    }

    fn pass(&self, record: &Bytes) {
        let checkpoint = [
            WalRecordKind::CheckpointFull,
            WalRecordKind::CheckpointDelta,
        ]
        .map(WalRecordKind::tag);
        if !record.first().is_some_and(|kind| checkpoint.contains(kind)) {
            return;
        }
        let mut state = self.state.lock();
        if !state.0 {
            return;
        }
        state.1 = true;
        self.changed.notify_all();
        while state.0 {
            self.changed.wait(&mut state);
        }
        state.1 = false;
    }
}

/// An in-memory store whose checkpoint appends wait on a [`Latch`].
struct LatchedStore {
    inner: InMemoryStore,
    latch: Arc<Latch>,
}

impl UntrustedStore for LatchedStore {
    fn read_slot(&self, bucket: BucketId, slot: u32) -> Result<Bytes> {
        self.inner.read_slot(bucket, slot)
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<BucketSnapshot> {
        self.inner.read_bucket(bucket)
    }

    fn write_bucket(&self, bucket: BucketId, slots: Vec<Bytes>) -> Result<Version> {
        self.inner.write_bucket(bucket, slots)
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
        self.latch.pass(&record);
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
fn a_crash_during_the_checkpoint_returns_without_waiting_for_it() {
    let mut config = ShardConfig::small_for_tests(2, 512);
    config.shard.epoch.batch_interval = Duration::from_millis(1);
    let latch = Arc::new(Latch::default());
    let latched = LatchedStore {
        inner: InMemoryStore::new(),
        latch: latch.clone(),
    };
    let stores: Vec<Arc<dyn UntrustedStore>> =
        vec![Arc::new(latched), Arc::new(InMemoryStore::new())];
    let db = ShardedDb::open_with_stores(config, stores).unwrap();
    let (a, b) = cross_shard_pair(&db);
    commit_with_retries(&db, |txn| {
        txn.write(a, b"left".to_vec())?;
        txn.write(b, b"right".to_vec())
    })
    .unwrap();

    // Idle epochs checkpoint too: the next one parks shard 0's decider
    // inside `commit_epoch`, past the written-back rung.
    latch.arm();
    assert!(
        latch.await_parked(Duration::from_secs(10)),
        "no checkpoint append reached the latch"
    );
    let (returned, crash_returned) = mpsc::channel();
    let crashing = &db;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            crashing.crash_shard(0);
            returned.send(()).unwrap();
        });
        let crashed = crash_returned.recv_timeout(Duration::from_secs(10));
        let still_parked = latch.is_parked();
        latch.release();
        assert!(
            crashed.is_ok(),
            "crash_shard waited for the parked checkpoint (or deadlocked against the decider)"
        );
        assert!(
            still_parked,
            "the checkpoint left the latch before the crash returned"
        );
    });
    assert!(db.is_shard_crashed(0));

    db.recover_shard(0).unwrap();
    commit_with_retries(&db, |txn| {
        assert_eq!(txn.read(a)?, Some(b"left".to_vec()));
        assert_eq!(txn.read(b)?, Some(b"right".to_vec()));
        Ok(())
    })
    .unwrap();
    db.shutdown();
}
