//! Fault-injection wrapper for integrity and recovery testing.
//!
//! Appendix A reduces a malicious storage server to denial of service by
//! MACing every value with a freshness counter.  To test that the proxy
//! really detects substitution, staleness and corruption, [`FaultyStore`]
//! wraps any [`UntrustedStore`] and misbehaves according to a [`FaultPlan`]:
//! it can corrupt read payloads, replay stale bucket versions, or fail
//! operations outright after a configurable number of successes.

use crate::traits::{BucketSnapshot, StoreStats, UntrustedStore};
use bytes::Bytes;
use obladi_common::error::{ObladiError, Result};
use obladi_common::rng::DetRng;
use obladi_common::types::{BucketId, Version};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Operation class a [`CrashPoint`] fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashOp {
    /// An `append_log` whose framed record starts with this kind byte
    /// (see `WalRecordKind::tag`).
    LogAppendKind(u8),
    /// Any `append_log`.
    AnyLogAppend,
    /// Any `write_bucket`.
    BucketWrite,
    /// Any `read_slot` — the only way to land a crash *inside* an ORAM
    /// read phase (an eviction's path reads, a read batch's fetches),
    /// which issues no log appends or bucket writes of its own.
    SlotRead,
    /// Any `truncate_log` (WAL retention's cut).
    LogTruncate,
    /// Anything that changes what a later recovery finds: a log append, a
    /// bucket write or a log truncation.
    Mutation,
    /// Any fallible storage operation.
    AnyOp,
}

/// A deterministic, sticky crash trigger.
///
/// Crash-schedule tests need to kill a proxy at a *semantic* point in its
/// commit protocol ("after the prepare record is durable but before the
/// epoch-commit record"), which operation counts alone cannot express: how
/// many epochs elapse before the interesting transaction arrives depends on
/// timing.  A `CrashPoint` therefore (optionally) *arms* itself when a log
/// append of a given WAL kind byte is observed, then fires at the `nth`
/// matching operation after arming.  Once fired, every subsequent operation
/// fails too (the storage outage persists until the plan is replaced), so
/// the victim proxy deterministically fate-shares into a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Arm only once an `append_log` with this framed kind byte has been
    /// observed (`None` = armed from the start).  The arming append itself
    /// succeeds and does not count towards `nth`.
    pub arm_on_log_kind: Option<u8>,
    /// Which operation class fires the crash once armed.
    pub on: CrashOp,
    /// 1-based count of matching operations (after arming) at which the
    /// crash fires.
    pub nth: u64,
}

impl CrashPoint {
    /// Fires at the `nth` log append of `kind` (armed from the start).
    pub fn on_log_kind(kind: u8, nth: u64) -> Self {
        CrashPoint {
            arm_on_log_kind: None,
            on: CrashOp::LogAppendKind(kind),
            nth,
        }
    }

    /// Fires at the `nth` operation of class `on` after a log append of
    /// `arm_kind` has been observed.
    pub fn after_log_kind(arm_kind: u8, on: CrashOp, nth: u64) -> Self {
        CrashPoint {
            arm_on_log_kind: Some(arm_kind),
            on,
            nth,
        }
    }
}

/// What kind of misbehaviour to inject and how often.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Probability that a slot read returns corrupted bytes.
    pub corrupt_read_prob: f64,
    /// Probability that a slot read is served from a stale version of the
    /// bucket (if one is retained).
    pub stale_read_prob: f64,
    /// Fail every operation after this many successful ones
    /// (`u64::MAX` = never).
    pub fail_after: u64,
    /// Deterministic sticky crash trigger (see [`CrashPoint`]).
    pub crash_point: Option<CrashPoint>,
}

impl FaultPlan {
    /// A plan that never injects faults.
    pub fn none() -> Self {
        FaultPlan {
            corrupt_read_prob: 0.0,
            stale_read_prob: 0.0,
            fail_after: u64::MAX,
            crash_point: None,
        }
    }

    /// A plan whose only fault is the given deterministic crash point.
    pub fn crash_at(point: CrashPoint) -> Self {
        FaultPlan {
            crash_point: Some(point),
            ..FaultPlan::none()
        }
    }

    /// A plan that corrupts reads with probability `p`.
    pub fn corrupt(p: f64) -> Self {
        FaultPlan {
            corrupt_read_prob: p,
            ..FaultPlan::none()
        }
    }

    /// A plan that serves stale data with probability `p`.
    pub fn stale(p: f64) -> Self {
        FaultPlan {
            stale_read_prob: p,
            ..FaultPlan::none()
        }
    }

    /// A plan that makes every operation fail after `n` successes.
    pub fn fail_after(n: u64) -> Self {
        FaultPlan {
            fail_after: n,
            ..FaultPlan::none()
        }
    }
}

/// An [`UntrustedStore`] wrapper that misbehaves on purpose.
pub struct FaultyStore {
    inner: Arc<dyn UntrustedStore>,
    plan: Mutex<FaultPlan>,
    rng: Mutex<DetRng>,
    ops: AtomicU64,
    injected: AtomicU64,
    stale_cache: Mutex<std::collections::HashMap<BucketId, Vec<Bytes>>>,
    /// Crash-point trigger state (see [`CrashPoint`]).
    armed: AtomicBool,
    trigger_matches: AtomicU64,
    tripped: AtomicBool,
}

impl FaultyStore {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: Arc<dyn UntrustedStore>, plan: FaultPlan, seed: u64) -> Self {
        FaultyStore {
            inner,
            plan: Mutex::new(plan),
            rng: Mutex::new(DetRng::new(seed ^ 0xfa17)),
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            stale_cache: Mutex::new(std::collections::HashMap::new()),
            armed: AtomicBool::new(false),
            trigger_matches: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
        }
    }

    /// Number of faults injected so far.
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Whether the plan's [`CrashPoint`] has fired.  Once tripped, every
    /// operation fails until [`FaultyStore::set_plan`] installs a new plan.
    pub fn has_tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    /// Replaces the fault plan.
    ///
    /// Tests use this to behave correctly while the database is loaded and
    /// only then start misbehaving — the scenario Appendix A cares about,
    /// where an initially honest server turns malicious.  Resets any
    /// crash-point trigger state, ending a tripped outage.
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock() = plan;
        self.armed.store(false, Ordering::SeqCst);
        self.trigger_matches.store(0, Ordering::SeqCst);
        self.tripped.store(false, Ordering::SeqCst);
    }

    /// The currently active fault plan.
    pub fn plan(&self) -> FaultPlan {
        *self.plan.lock()
    }

    fn check_hard_failure(&self) -> Result<()> {
        let fail_after = self.plan.lock().fail_after;
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        if n >= fail_after {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(ObladiError::Storage(
                "injected hard failure (fail_after reached)".into(),
            ));
        }
        Ok(())
    }

    /// Evaluates the sticky crash trigger against one operation, named by
    /// the most specific [`CrashOp`] it is (`AnyOp` for the rest).  The
    /// firing operation fails, as does everything after it, so the
    /// deterministic crash point behaves like the start of a permanent
    /// outage.
    fn check_crash_point(&self, op: CrashOp) -> Result<()> {
        if self.tripped.load(Ordering::SeqCst) {
            return Err(ObladiError::Storage(
                "injected crash point (outage in effect)".into(),
            ));
        }
        let Some(point) = self.plan.lock().crash_point else {
            return Ok(());
        };
        if let Some(arm_kind) = point.arm_on_log_kind {
            if !self.armed.load(Ordering::SeqCst) {
                if op == CrashOp::LogAppendKind(arm_kind) {
                    self.armed.store(true, Ordering::SeqCst);
                }
                // The arming append itself succeeds and does not count.
                return Ok(());
            }
        }
        let mutation = matches!(
            op,
            CrashOp::LogAppendKind(_) | CrashOp::BucketWrite | CrashOp::LogTruncate
        );
        let matches = match point.on {
            CrashOp::AnyOp => true,
            CrashOp::Mutation => mutation,
            CrashOp::AnyLogAppend => matches!(op, CrashOp::LogAppendKind(_)),
            on => on == op,
        };
        if matches {
            let n = self.trigger_matches.fetch_add(1, Ordering::SeqCst) + 1;
            if n >= point.nth {
                self.tripped.store(true, Ordering::SeqCst);
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Err(ObladiError::Storage(
                    "injected crash point (trigger fired)".into(),
                ));
            }
        }
        Ok(())
    }

    fn maybe_corrupt(&self, data: Bytes) -> Bytes {
        let corrupt = {
            let probability = self.plan.lock().corrupt_read_prob;
            let mut rng = self.rng.lock();
            rng.chance(probability)
        };
        if corrupt && !data.is_empty() {
            self.injected.fetch_add(1, Ordering::Relaxed);
            let mut owned = data.to_vec();
            let mid = owned.len() / 2;
            owned[mid] ^= 0xa5;
            Bytes::from(owned)
        } else {
            data
        }
    }
}

impl UntrustedStore for FaultyStore {
    fn read_slot(&self, bucket: BucketId, slot: u32) -> Result<Bytes> {
        self.check_crash_point(CrashOp::SlotRead)?;
        self.check_hard_failure()?;
        let serve_stale = {
            let probability = self.plan.lock().stale_read_prob;
            let mut rng = self.rng.lock();
            rng.chance(probability)
        };
        if serve_stale {
            if let Some(old) = self
                .stale_cache
                .lock()
                .get(&bucket)
                .and_then(|slots| slots.get(slot as usize).cloned())
            {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Ok(old);
            }
        }
        let data = self.inner.read_slot(bucket, slot)?;
        Ok(self.maybe_corrupt(data))
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<BucketSnapshot> {
        self.check_crash_point(CrashOp::AnyOp)?;
        self.check_hard_failure()?;
        self.inner.read_bucket(bucket)
    }

    fn write_bucket(&self, bucket: BucketId, slots: Vec<Bytes>) -> Result<Version> {
        self.check_crash_point(CrashOp::BucketWrite)?;
        self.check_hard_failure()?;
        // Remember the previous version so stale reads can replay it later.
        if self.plan.lock().stale_read_prob > 0.0 {
            if let Ok(snapshot) = self.inner.read_bucket(bucket) {
                if !snapshot.slots.is_empty() {
                    self.stale_cache.lock().insert(bucket, snapshot.slots);
                }
            }
        }
        self.inner.write_bucket(bucket, slots)
    }

    fn bucket_version(&self, bucket: BucketId) -> Result<Version> {
        self.inner.bucket_version(bucket)
    }

    fn revert_bucket(&self, bucket: BucketId, version: Version) -> Result<()> {
        self.check_crash_point(CrashOp::AnyOp)?;
        self.check_hard_failure()?;
        self.inner.revert_bucket(bucket, version)
    }

    fn put_meta(&self, key: &str, value: Bytes) -> Result<()> {
        self.check_crash_point(CrashOp::AnyOp)?;
        self.check_hard_failure()?;
        self.inner.put_meta(key, value)
    }

    fn get_meta(&self, key: &str) -> Result<Option<Bytes>> {
        self.check_crash_point(CrashOp::AnyOp)?;
        self.check_hard_failure()?;
        match self.inner.get_meta(key)? {
            Some(v) => Ok(Some(self.maybe_corrupt(v))),
            None => Ok(None),
        }
    }

    fn append_log(&self, record: Bytes) -> Result<u64> {
        // An empty record has no kind byte; 0 is no kind's tag.
        let kind = record.first().copied().unwrap_or(0);
        self.check_crash_point(CrashOp::LogAppendKind(kind))?;
        self.check_hard_failure()?;
        self.inner.append_log(record)
    }

    fn read_log_from(&self, from: u64) -> Result<Vec<(u64, Bytes)>> {
        self.check_crash_point(CrashOp::AnyOp)?;
        self.check_hard_failure()?;
        self.inner.read_log_from(from)
    }

    fn truncate_log(&self, up_to: u64) -> Result<()> {
        self.check_crash_point(CrashOp::LogTruncate)?;
        self.inner.truncate_log(up_to)
    }

    fn truncate_log_tail(&self, from: u64) -> Result<()> {
        self.check_crash_point(CrashOp::AnyOp)?;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryStore;

    fn base() -> Arc<InMemoryStore> {
        let store = Arc::new(InMemoryStore::new());
        store
            .write_bucket(0, vec![Bytes::from_static(b"original")])
            .unwrap();
        store
    }

    #[test]
    fn no_faults_is_transparent() {
        let store = FaultyStore::new(base(), FaultPlan::none(), 1);
        for _ in 0..50 {
            assert_eq!(&store.read_slot(0, 0).unwrap()[..], b"original");
        }
        assert_eq!(store.injected_faults(), 0);
    }

    #[test]
    fn corruption_is_injected_at_roughly_the_requested_rate() {
        let store = FaultyStore::new(base(), FaultPlan::corrupt(0.5), 2);
        let mut corrupted = 0;
        for _ in 0..200 {
            if &store.read_slot(0, 0).unwrap()[..] != b"original" {
                corrupted += 1;
            }
        }
        assert!(corrupted > 50 && corrupted < 150, "corrupted {corrupted}");
        assert_eq!(store.injected_faults(), corrupted);
    }

    #[test]
    fn stale_reads_replay_previous_version() {
        let store = FaultyStore::new(base(), FaultPlan::stale(1.0), 3);
        store
            .write_bucket(0, vec![Bytes::from_static(b"updated!")])
            .unwrap();
        // With probability 1.0 every read now replays the stale version.
        assert_eq!(&store.read_slot(0, 0).unwrap()[..], b"original");
        assert!(store.injected_faults() > 0);
    }

    #[test]
    fn plan_can_be_swapped_at_runtime() {
        let store = FaultyStore::new(base(), FaultPlan::none(), 9);
        assert_eq!(&store.read_slot(0, 0).unwrap()[..], b"original");
        store.set_plan(FaultPlan::corrupt(1.0));
        assert_eq!(store.plan().corrupt_read_prob, 1.0);
        assert_ne!(&store.read_slot(0, 0).unwrap()[..], b"original");
        store.set_plan(FaultPlan::none());
        assert_eq!(&store.read_slot(0, 0).unwrap()[..], b"original");
    }

    #[test]
    fn hard_failure_kicks_in_after_n_operations() {
        let store = FaultyStore::new(base(), FaultPlan::fail_after(5), 4);
        let mut failures = 0;
        for _ in 0..10 {
            if store.read_slot(0, 0).is_err() {
                failures += 1;
            }
        }
        assert_eq!(failures, 5);
    }

    #[test]
    fn crash_point_fires_on_the_nth_append_of_a_kind_and_sticks() {
        let store = FaultyStore::new(
            base(),
            FaultPlan::crash_at(CrashPoint::on_log_kind(6, 2)),
            5,
        );
        // Kind 6 appends; the second one fires.
        assert!(store.append_log(Bytes::from_static(&[6, 0, 0])).is_ok());
        assert!(store.append_log(Bytes::from_static(&[4, 0, 0])).is_ok());
        assert!(!store.has_tripped());
        assert!(store.append_log(Bytes::from_static(&[6, 1, 1])).is_err());
        assert!(store.has_tripped());
        // Outage is sticky across every operation class.
        assert!(store.read_slot(0, 0).is_err());
        assert!(store.append_log(Bytes::from_static(&[1])).is_err());
        // Replacing the plan ends the outage.
        store.set_plan(FaultPlan::none());
        assert!(!store.has_tripped());
        assert!(store.read_slot(0, 0).is_ok());
    }

    #[test]
    fn armed_crash_point_ignores_everything_before_the_arming_append() {
        let store = FaultyStore::new(
            base(),
            FaultPlan::crash_at(CrashPoint::after_log_kind(6, CrashOp::BucketWrite, 1)),
            6,
        );
        // Bucket writes before the arming append do not count.
        for _ in 0..5 {
            store
                .write_bucket(0, vec![Bytes::from_static(b"pre")])
                .unwrap();
        }
        // Arming append succeeds...
        assert!(store.append_log(Bytes::from_static(&[6, 9, 9])).is_ok());
        // ...and the next bucket write fires.
        assert!(store
            .write_bucket(0, vec![Bytes::from_static(b"post")])
            .is_err());
        assert!(store.has_tripped());
    }

    #[test]
    fn mutation_crash_point_counts_appends_bucket_writes_and_truncations_only() {
        let point = CrashPoint {
            arm_on_log_kind: None,
            on: CrashOp::Mutation,
            nth: 4,
        };
        let store = FaultyStore::new(base(), FaultPlan::crash_at(point), 8);
        assert!(store.append_log(Bytes::from_static(&[1, 0])).is_ok());
        assert!(store.read_slot(0, 0).is_ok());
        assert!(store.write_bucket(0, vec![Bytes::new()]).is_ok());
        assert!(store.read_log_from(0).is_ok());
        assert!(store.truncate_log(1).is_ok());
        assert_eq!(store.read_log_from(0).unwrap().len(), 0);
        assert!(store.append_log(Bytes::from_static(&[4])).is_err());
        // The outage covers truncations too.
        assert!(store.truncate_log(0).is_err());
        assert!(store.truncate_log_tail(0).is_err());
    }

    #[test]
    fn truncate_crash_point_fails_the_cut_itself() {
        let point = CrashPoint::after_log_kind(3, CrashOp::LogTruncate, 1);
        let store = FaultyStore::new(base(), FaultPlan::crash_at(point), 8);
        assert!(store.truncate_log(0).is_ok(), "not armed yet");
        assert!(store.append_log(Bytes::from_static(&[3, 0])).is_ok());
        assert!(store.truncate_log(1).is_err());
        assert!(store.has_tripped());
    }

    #[test]
    fn armed_crash_point_counts_log_appends_after_arming() {
        let store = FaultyStore::new(
            base(),
            FaultPlan::crash_at(CrashPoint::after_log_kind(6, CrashOp::AnyLogAppend, 2)),
            7,
        );
        assert!(store.append_log(Bytes::from_static(&[2, 0])).is_ok());
        assert!(store.append_log(Bytes::from_static(&[6, 0])).is_ok()); // arms
        assert!(store.append_log(Bytes::from_static(&[2, 0])).is_ok()); // 1st after arming
        assert!(store.append_log(Bytes::from_static(&[4, 0])).is_err()); // 2nd fires
    }
}
