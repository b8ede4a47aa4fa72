//! Latency-injecting wrapper emulating the storage backends of §11.2.
//!
//! [`LatencyStore`] delegates every operation to an inner store after
//! sleeping for a latency drawn from the backend's [`LatencyProfile`].  The
//! DynamoDB profile additionally caps the number of in-flight requests to
//! model the blocking HTTP client the paper calls out as the reason Dynamo
//! "peaks early" in Figure 10b.

use crate::traits::{BucketSnapshot, StoreStats, UntrustedStore};
use bytes::Bytes;
use obladi_common::error::Result;
use obladi_common::latency::{LatencyModel, LatencyProfile};
use obladi_common::rng::DetRng;
use obladi_common::types::{BucketId, Version};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// Counting semaphore used to bound in-flight requests.
struct Semaphore {
    permits: Mutex<usize>,
    available: Condvar,
}

impl Semaphore {
    fn new(permits: usize) -> Self {
        Semaphore {
            permits: Mutex::new(permits),
            available: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut permits = self.permits.lock();
        while *permits == 0 {
            self.available.wait(&mut permits);
        }
        *permits -= 1;
    }

    fn release(&self) {
        let mut permits = self.permits.lock();
        *permits += 1;
        self.available.notify_one();
    }
}

/// RAII guard for a semaphore permit.
struct Permit<'a> {
    sem: Option<&'a Semaphore>,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if let Some(sem) = self.sem {
            sem.release();
        }
    }
}

/// Wraps an [`UntrustedStore`] and injects per-operation latency.
pub struct LatencyStore {
    inner: Arc<dyn UntrustedStore>,
    profile: LatencyProfile,
    rng: Mutex<DetRng>,
    limiter: Option<Semaphore>,
}

impl LatencyStore {
    /// Creates a latency-injecting wrapper around `inner`.
    pub fn new(inner: Arc<dyn UntrustedStore>, profile: LatencyProfile, seed: u64) -> Self {
        let limiter = profile.max_in_flight.map(Semaphore::new);
        LatencyStore {
            inner,
            profile,
            rng: Mutex::new(DetRng::new(seed ^ 0x1a7e_9c11)),
            limiter,
        }
    }

    /// The latency profile in effect.
    pub fn profile(&self) -> &LatencyProfile {
        &self.profile
    }

    fn charge_read(&self) -> Permit<'_> {
        let permit = self.acquire_permit();
        let delay = {
            let mut rng = self.rng.lock();
            self.profile.read.sample(&mut rng)
        };
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        permit
    }

    fn charge_write(&self) -> Permit<'_> {
        let permit = self.acquire_permit();
        let delay = {
            let mut rng = self.rng.lock();
            self.profile.write.sample(&mut rng)
        };
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        permit
    }

    fn acquire_permit(&self) -> Permit<'_> {
        match &self.limiter {
            Some(sem) => {
                sem.acquire();
                Permit { sem: Some(sem) }
            }
            None => Permit { sem: None },
        }
    }
}

impl UntrustedStore for LatencyStore {
    fn read_slot(&self, bucket: BucketId, slot: u32) -> Result<Bytes> {
        let _permit = self.charge_read();
        self.inner.read_slot(bucket, slot)
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<BucketSnapshot> {
        let _permit = self.charge_read();
        self.inner.read_bucket(bucket)
    }

    fn write_bucket(&self, bucket: BucketId, slots: Vec<Bytes>) -> Result<Version> {
        let _permit = self.charge_write();
        self.inner.write_bucket(bucket, slots)
    }

    fn bucket_version(&self, bucket: BucketId) -> Result<Version> {
        self.inner.bucket_version(bucket)
    }

    fn revert_bucket(&self, bucket: BucketId, version: Version) -> Result<()> {
        let _permit = self.charge_write();
        self.inner.revert_bucket(bucket, version)
    }

    fn put_meta(&self, key: &str, value: Bytes) -> Result<()> {
        let _permit = self.charge_write();
        self.inner.put_meta(key, value)
    }

    fn get_meta(&self, key: &str) -> Result<Option<Bytes>> {
        let _permit = self.charge_read();
        self.inner.get_meta(key)
    }

    fn append_log(&self, record: Bytes) -> Result<u64> {
        let _permit = self.charge_write();
        self.inner.append_log(record)
    }

    fn read_log_from(&self, from: u64) -> Result<Vec<(u64, Bytes)>> {
        let _permit = self.charge_read();
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

    fn daemon_metrics(&self) -> Option<crate::proto::WireMetrics> {
        self.inner.daemon_metrics()
    }

    fn waits(&self) -> bool {
        let injects = |model: &LatencyModel| !model.mean.is_zero();
        injects(&self.profile.read) || injects(&self.profile.write) || self.inner.waits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryStore;
    use obladi_common::config::BackendKind;
    use std::time::{Duration, Instant};

    fn wrapped(profile: LatencyProfile) -> LatencyStore {
        LatencyStore::new(Arc::new(InMemoryStore::new()), profile, 7)
    }

    #[test]
    fn zero_latency_profile_is_fast() {
        let store = wrapped(LatencyProfile::for_backend(BackendKind::Dummy));
        let start = Instant::now();
        for i in 0..100 {
            store
                .write_bucket(i, vec![Bytes::from_static(b"x")])
                .unwrap();
            store.read_slot(i, 0).unwrap();
        }
        assert!(start.elapsed() < Duration::from_millis(200));
    }

    #[test]
    fn latency_is_actually_injected() {
        // 2 ms reads: 20 sequential reads must take at least ~30 ms.
        let mut profile = LatencyProfile::for_backend(BackendKind::Server);
        profile.read = obladi_common::latency::LatencyModel::with_mean(Duration::from_millis(2));
        let store = wrapped(profile);
        store
            .write_bucket(0, vec![Bytes::from_static(b"x")])
            .unwrap();
        let start = Instant::now();
        for _ in 0..20 {
            store.read_slot(0, 0).unwrap();
        }
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "elapsed {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn in_flight_limit_serialises_requests() {
        // A profile with a single permit forces sequential execution even
        // when called from many threads.
        let mut profile = LatencyProfile::for_backend(BackendKind::Dynamo).scaled(0.0);
        profile.max_in_flight = Some(1);
        profile.read = obladi_common::latency::LatencyModel::with_mean(Duration::from_millis(2));
        let store = Arc::new(wrapped(profile));
        store
            .write_bucket(0, vec![Bytes::from_static(b"x")])
            .unwrap();

        let start = Instant::now();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    store.read_slot(0, 0).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 20 reads * 2 ms each, fully serialised, is at least ~30 ms.
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "elapsed {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn waits_only_when_latency_is_injected() {
        let dummy = LatencyProfile::for_backend(BackendKind::Dummy);
        assert!(!wrapped(dummy).waits());
        let server = LatencyProfile::for_backend(BackendKind::Server);
        assert!(wrapped(server).waits());
        assert!(!wrapped(server.scaled(0.0)).waits());
        let mut writes_only = dummy;
        writes_only.write = LatencyModel::with_mean(Duration::from_millis(1));
        assert!(wrapped(writes_only).waits());
        // A zero profile over a waiting store still waits.
        let waiting: Arc<dyn UntrustedStore> = Arc::new(wrapped(server));
        assert!(LatencyStore::new(waiting, dummy, 7).waits());
    }

    #[test]
    fn delegates_functionality_to_inner() {
        let store = wrapped(LatencyProfile::for_backend(BackendKind::Dummy));
        store.put_meta("k", Bytes::from_static(b"v")).unwrap();
        assert!(store.get_meta("k").unwrap().is_some());
        store.append_log(Bytes::from_static(b"r")).unwrap();
        assert_eq!(store.read_log_from(0).unwrap().len(), 1);
        assert!(store.stats().total_requests() > 0);
    }
}
