//! The store decorator: a pass-through [`UntrustedStore`] that times the
//! calls crossing the proxy → storage boundary.
//!
//! The engine makes on the order of 100k store calls a second, so the
//! decorator keeps one set of atomics per operation kind (calls, busy
//! time, payload bytes, a log-linear latency histogram) instead of a span
//! per call.  While disabled it forwards without reading the clock, which
//! lets one deployment serve the untraced and the traced slices of a run.

use bytes::Bytes;
use obladi_common::error::Result;
use obladi_common::types::{BucketId, Version};
use obladi_storage::traits::{BucketSnapshot, StoreStats};
use obladi_storage::{UntrustedStore, WireMetrics};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Operation kinds, by index into [`KIND_NAMES`].
#[derive(Clone, Copy)]
enum Kind {
    ReadSlot,
    ReadBucket,
    WriteBucket,
    BucketVersion,
    RevertBucket,
    PutMeta,
    GetMeta,
    AppendLog,
    ReadLog,
    TruncateLog,
}

/// Names of the kinds, in `Kind` order.
pub const KIND_NAMES: [&str; 10] = [
    "read_slot",
    "read_bucket",
    "write_bucket",
    "bucket_version",
    "revert_bucket",
    "put_meta",
    "get_meta",
    "append_log",
    "read_log",
    "truncate_log",
];

/// Eight sub-buckets per power of two: ~9% resolution over 1 ns .. 2^63 ns.
const HISTOGRAM_BUCKETS: usize = 62 * 8;

fn bucket_of(ns: u64) -> usize {
    if ns < 8 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros() as usize;
    let sub = ((ns >> (exp - 3)) & 7) as usize;
    (exp - 2) * 8 + sub
}

/// Lower edge of histogram bucket `index`, in nanoseconds (a float: the
/// upper edge of the last bucket is 2^64).
fn bucket_floor(index: usize) -> f64 {
    if index < 8 {
        return index as f64;
    }
    let exp = index / 8 + 2;
    (8 + index % 8) as f64 * 2f64.powi(exp as i32 - 3)
}

struct KindCounters {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    bytes: AtomicU64,
    histogram: Vec<AtomicU64>,
}

impl KindCounters {
    fn new() -> Self {
        KindCounters {
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            histogram: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Totals of one operation kind since the decorator was created.
#[derive(Debug, Clone, Default)]
pub struct KindTotals {
    pub calls: u64,
    pub busy_ns: u64,
    pub bytes: u64,
    histogram: Vec<u64>,
}

impl KindTotals {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &KindTotals) -> KindTotals {
        KindTotals {
            calls: self.calls - earlier.calls,
            busy_ns: self.busy_ns - earlier.busy_ns,
            bytes: self.bytes - earlier.bytes,
            histogram: self
                .histogram
                .iter()
                .zip(&earlier.histogram)
                .map(|(now, then)| now - then)
                .collect(),
        }
    }

    /// Adds `other` into `self`.
    fn merge(&mut self, other: &KindTotals) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.bytes += other.bytes;
        for (mine, theirs) in self.histogram.iter_mut().zip(&other.histogram) {
            *mine += theirs;
        }
    }

    /// Adds per-kind totals `part` into `sum` (across shards, or across
    /// traced slices); an empty `sum` takes `part`'s shape.
    pub fn merge_all(sum: &mut Vec<KindTotals>, part: &[KindTotals]) {
        if sum.is_empty() {
            *sum = part.to_vec();
        } else {
            for (total, other) in sum.iter_mut().zip(part) {
                total.merge(other);
            }
        }
    }

    /// Median call latency in microseconds, interpolated within the
    /// median's histogram bucket; 0 with no calls.
    pub fn p50_us(&self) -> f64 {
        let total: u64 = self.histogram.iter().sum();
        let rank = total as f64 / 2.0;
        let mut below = 0u64;
        for (index, count) in self.histogram.iter().enumerate() {
            if *count > 0 && (below + count) as f64 >= rank {
                let (floor, ceiling) = (bucket_floor(index), bucket_floor(index + 1));
                let within = (rank - below as f64) / *count as f64;
                return (floor + within * (ceiling - floor)) / 1_000.0;
            }
            below += count;
        }
        0.0
    }
}

/// Pass-through timing decorator around one shard's store.
pub struct TimedStore {
    inner: Arc<dyn UntrustedStore>,
    enabled: AtomicBool,
    kinds: Vec<KindCounters>,
}

impl TimedStore {
    /// Wraps `inner`; timing starts disabled.
    pub fn new(inner: Arc<dyn UntrustedStore>) -> Self {
        TimedStore {
            inner,
            enabled: AtomicBool::new(false),
            kinds: KIND_NAMES.iter().map(|_| KindCounters::new()).collect(),
        }
    }

    /// Turns timing on or off.  A statistic only: publishes nothing else.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Totals per kind, in [`KIND_NAMES`] order.
    pub fn totals(&self) -> Vec<KindTotals> {
        self.kinds
            .iter()
            .map(|k| KindTotals {
                calls: k.calls.load(Ordering::Relaxed),
                busy_ns: k.busy_ns.load(Ordering::Relaxed),
                bytes: k.bytes.load(Ordering::Relaxed),
                histogram: k
                    .histogram
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
            })
            .collect()
    }

    /// Runs `call`, attributing its time and `bytes_of(result)` to `kind`.
    fn timed<T>(
        &self,
        kind: Kind,
        call: impl FnOnce(&dyn UntrustedStore) -> Result<T>,
        bytes_of: impl FnOnce(&T) -> usize,
    ) -> Result<T> {
        if !self.enabled.load(Ordering::Relaxed) {
            return call(self.inner.as_ref());
        }
        let started = Instant::now();
        let result = call(self.inner.as_ref());
        let ns = started.elapsed().as_nanos() as u64;
        let counters = &self.kinds[kind as usize];
        counters.calls.fetch_add(1, Ordering::Relaxed);
        counters.busy_ns.fetch_add(ns, Ordering::Relaxed);
        counters.histogram[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        if let Ok(value) = &result {
            counters
                .bytes
                .fetch_add(bytes_of(value) as u64, Ordering::Relaxed);
        }
        result
    }
}

fn log_bytes(records: &[(u64, Bytes)]) -> usize {
    records.iter().map(|(_, data)| data.len()).sum()
}

impl UntrustedStore for TimedStore {
    fn read_slot(&self, bucket: BucketId, slot: u32) -> Result<Bytes> {
        self.timed(Kind::ReadSlot, |s| s.read_slot(bucket, slot), Bytes::len)
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<BucketSnapshot> {
        self.timed(
            Kind::ReadBucket,
            |s| s.read_bucket(bucket),
            |snapshot| snapshot.slots.iter().map(Bytes::len).sum(),
        )
    }

    fn write_bucket(&self, bucket: BucketId, slots: Vec<Bytes>) -> Result<Version> {
        let bytes: usize = slots.iter().map(Bytes::len).sum();
        self.timed(
            Kind::WriteBucket,
            |s| s.write_bucket(bucket, slots),
            |_| bytes,
        )
    }

    fn bucket_version(&self, bucket: BucketId) -> Result<Version> {
        self.timed(Kind::BucketVersion, |s| s.bucket_version(bucket), |_| 0)
    }

    fn revert_bucket(&self, bucket: BucketId, version: Version) -> Result<()> {
        self.timed(
            Kind::RevertBucket,
            |s| s.revert_bucket(bucket, version),
            |_| 0,
        )
    }

    fn put_meta(&self, key: &str, value: Bytes) -> Result<()> {
        let bytes = value.len();
        self.timed(Kind::PutMeta, |s| s.put_meta(key, value), |_| bytes)
    }

    fn get_meta(&self, key: &str) -> Result<Option<Bytes>> {
        self.timed(
            Kind::GetMeta,
            |s| s.get_meta(key),
            |value| value.as_ref().map_or(0, Bytes::len),
        )
    }

    fn append_log(&self, record: Bytes) -> Result<u64> {
        let bytes = record.len();
        self.timed(Kind::AppendLog, |s| s.append_log(record), |_| bytes)
    }

    fn read_log_from(&self, from: u64) -> Result<Vec<(u64, Bytes)>> {
        self.timed(
            Kind::ReadLog,
            |s| s.read_log_from(from),
            |records| log_bytes(records),
        )
    }

    fn read_log_page(&self, from: u64, max_bytes: usize) -> Result<(Vec<(u64, Bytes)>, bool)> {
        self.timed(
            Kind::ReadLog,
            |s| s.read_log_page(from, max_bytes),
            |(records, _)| log_bytes(records),
        )
    }

    fn truncate_log(&self, up_to: u64) -> Result<()> {
        self.timed(Kind::TruncateLog, |s| s.truncate_log(up_to), |_| 0)
    }

    fn truncate_log_tail(&self, from: u64) -> Result<()> {
        self.timed(Kind::TruncateLog, |s| s.truncate_log_tail(from), |_| 0)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn daemon_metrics(&self) -> Option<WireMetrics> {
        self.inner.daemon_metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obladi_storage::InMemoryStore;

    /// Every operation of the trait, in a fixed order, with the results a
    /// caller can observe.
    fn scripted(store: &dyn UntrustedStore) -> Vec<String> {
        let slot = |text: &'static [u8]| Bytes::from_static(text);
        let mut seen = Vec::new();
        seen.push(format!(
            "{:?}",
            store.write_bucket(3, vec![slot(b"a"), slot(b"bb")])
        ));
        seen.push(format!("{:?}", store.write_bucket(3, vec![slot(b"ccc")])));
        seen.push(format!("{:?}", store.read_slot(3, 0)));
        seen.push(format!("{:?}", store.read_slot(9, 0).is_err()));
        seen.push(format!("{:?}", store.read_bucket(3)));
        seen.push(format!("{:?}", store.bucket_version(3)));
        seen.push(format!("{:?}", store.revert_bucket(3, 1)));
        seen.push(format!("{:?}", store.read_slot(3, 1)));
        seen.push(format!("{:?}", store.put_meta("ckpt", slot(b"meta"))));
        seen.push(format!("{:?}", store.get_meta("ckpt")));
        seen.push(format!("{:?}", store.get_meta("absent")));
        for record in [&b"r0"[..], b"r1", b"r2", b"r3"] {
            seen.push(format!(
                "{:?}",
                store.append_log(Bytes::copy_from_slice(record))
            ));
        }
        seen.push(format!("{:?}", store.read_log_from(1)));
        seen.push(format!("{:?}", store.read_log_page(0, 15)));
        seen.push(format!("{:?}", store.truncate_log(1)));
        seen.push(format!("{:?}", store.truncate_log_tail(3)));
        seen.push(format!("{:?}", store.read_log_from(0)));
        seen.push(format!("{:?}", store.daemon_metrics().is_none()));
        seen
    }

    #[test]
    fn decorator_is_pass_through_enabled_or_not() {
        let bare = InMemoryStore::new();
        let expected = scripted(&bare);
        for enabled in [false, true] {
            let timed = TimedStore::new(Arc::new(InMemoryStore::new()));
            timed.set_enabled(enabled);
            assert_eq!(scripted(&timed), expected, "enabled = {enabled}");
            assert_eq!(timed.stats(), bare.stats(), "enabled = {enabled}");
            let calls: u64 = timed.totals().iter().map(|k| k.calls).sum();
            assert_eq!(calls > 0, enabled);
        }
        let timed = TimedStore::new(Arc::new(InMemoryStore::new()));
        scripted(&timed);
        timed.reset_stats();
        assert_eq!(timed.stats(), StoreStats::default());
    }

    #[test]
    fn totals_attribute_calls_and_bytes_to_their_kind() {
        let timed = TimedStore::new(Arc::new(InMemoryStore::new()));
        timed.set_enabled(true);
        let before = timed.totals();
        scripted(&timed);
        let after = timed.totals();
        let delta = |kind: Kind| after[kind as usize].since(&before[kind as usize]);
        assert_eq!(delta(Kind::WriteBucket).calls, 2);
        assert_eq!(delta(Kind::WriteBucket).bytes, 6);
        assert_eq!(delta(Kind::ReadSlot).calls, 3);
        assert_eq!(delta(Kind::ReadSlot).bytes, 5);
        assert_eq!(delta(Kind::AppendLog).calls, 4);
        assert_eq!(delta(Kind::AppendLog).bytes, 8);
        assert_eq!(delta(Kind::ReadLog).calls, 3);
        assert_eq!(delta(Kind::TruncateLog).calls, 2);
        assert!(delta(Kind::ReadSlot).p50_us() > 0.0);
        assert_eq!(delta(Kind::PutMeta).calls, 1);
        assert_eq!(KindTotals::default().p50_us(), 0.0);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in [
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            100,
            1_000,
            123_456,
            1 << 40,
            // Exactly representable as a float, unlike `u64::MAX`.
            3 << 61,
        ] {
            let index = bucket_of(ns);
            assert!(index >= last && index < HISTOGRAM_BUCKETS, "ns = {ns}");
            last = index;
            let (floor, ceiling) = (bucket_floor(index), bucket_floor(index + 1));
            assert!(floor <= ns as f64 && (ns as f64) < ceiling);
            assert!(ceiling - floor <= ns as f64 * 0.125 + 1.0);
        }
    }
}
