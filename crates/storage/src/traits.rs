//! The [`UntrustedStore`] trait: what the proxy assumes of cloud storage.
//!
//! The interface deliberately mirrors what Ring ORAM needs from a server:
//!
//! * reading a *single slot* of a bucket (the access phase reads one slot
//!   per bucket along a path, §4);
//! * replacing a whole bucket with a freshly permuted, re-encrypted set of
//!   slots (the eviction write phase), which creates a *new version* of the
//!   bucket rather than updating it in place — Obladi's shadow-paging
//!   recovery (§8) relies on being able to revert buckets to the version of
//!   the last durable epoch;
//! * an auxiliary metadata area and an append-only log for the recovery
//!   unit (checkpoints, read-path logs).
//!
//! Implementations must be thread-safe: the parallel ORAM executor issues
//! many requests concurrently from a worker pool.

use bytes::Bytes;
use obladi_common::error::Result;
use obladi_common::types::{BucketId, Version};

/// A snapshot of one bucket: its current version and the slot payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketSnapshot {
    /// Version number of the bucket (increments on every write).
    pub version: Version,
    /// Sealed slot payloads (length `Z + S` once the ORAM has initialised
    /// the bucket; empty for never-written buckets).
    pub slots: Vec<Bytes>,
}

/// Cumulative operation counters, used to report the "Network" column of
/// Table 11b and to sanity-check workload independence in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of slot reads served.
    pub slot_reads: u64,
    /// Number of bucket writes applied.
    pub bucket_writes: u64,
    /// Number of metadata reads (checkpoints fetched, log scans).
    pub meta_reads: u64,
    /// Number of metadata writes / log appends.
    pub meta_writes: u64,
    /// Total payload bytes read.
    pub bytes_read: u64,
    /// Total payload bytes written.
    pub bytes_written: u64,
}

impl StoreStats {
    /// Total number of requests of any kind.
    pub fn total_requests(&self) -> u64 {
        self.slot_reads + self.bucket_writes + self.meta_reads + self.meta_writes
    }

    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// The untrusted storage server.
///
/// All methods take `&self`; implementations use interior mutability and may
/// be called concurrently from many executor threads.
pub trait UntrustedStore: Send + Sync {
    /// Reads a single slot of a bucket.
    ///
    /// Returns the sealed slot bytes.  Reading a slot of a bucket that has
    /// never been written, or a slot index past the end of the bucket,
    /// returns a `Storage` error — the ORAM client never does this for a
    /// correctly initialised tree.
    fn read_slot(&self, bucket: BucketId, slot: u32) -> Result<Bytes>;

    /// Reads an entire bucket (used during recovery and by tests).
    fn read_bucket(&self, bucket: BucketId) -> Result<BucketSnapshot>;

    /// Replaces the contents of a bucket, creating a new version.
    ///
    /// Returns the new version number.
    fn write_bucket(&self, bucket: BucketId, slots: Vec<Bytes>) -> Result<Version>;

    /// Reads a chunk of `(bucket, slot)` pairs: one result per pair, in
    /// order, each what [`UntrustedStore::read_slot`] would return.
    ///
    /// The ORAM executor hands over each worker's share of a batch in one
    /// call.  The default issues the reads one by one, so wrappers that
    /// count, time, delay or fault *operations* see each; a store with a
    /// round trip to amortise overrides it to submit the whole chunk before
    /// waiting (the same requests, pipelined).
    fn read_slots(&self, reads: &[(BucketId, u32)]) -> Vec<Result<Bytes>> {
        let read = |&(bucket, slot)| self.read_slot(bucket, slot);
        reads.iter().map(read).collect()
    }

    /// Writes a chunk of buckets: one new version per bucket, in order, as
    /// [`UntrustedStore::write_bucket`]; the chunk form of `read_slots`.
    fn write_buckets(&self, writes: Vec<(BucketId, Vec<Bytes>)>) -> Vec<Result<Version>> {
        let write = |(bucket, slots)| self.write_bucket(bucket, slots);
        writes.into_iter().map(write).collect()
    }

    /// Current version of a bucket (0 if never written).
    fn bucket_version(&self, bucket: BucketId) -> Result<Version>;

    /// Reverts a bucket to an older version (shadow paging).  Reverting to
    /// the current version is a no-op; reverting to a version that has been
    /// garbage-collected returns a `Storage` error.
    fn revert_bucket(&self, bucket: BucketId, version: Version) -> Result<()>;

    /// Writes a metadata object (checkpoints, manifests).
    fn put_meta(&self, key: &str, value: Bytes) -> Result<()>;

    /// Reads a metadata object.
    fn get_meta(&self, key: &str) -> Result<Option<Bytes>>;

    /// Appends a record to the shared log and returns its sequence number
    /// (starting at 0).
    fn append_log(&self, record: Bytes) -> Result<u64>;

    /// Reads all log records with sequence number `>= from`, in order.
    fn read_log_from(&self, from: u64) -> Result<Vec<(u64, Bytes)>>;

    /// Reads log records with sequence number `>= from` until `max_bytes`
    /// of payload (plus per-record overhead) is reached; the flag reports
    /// whether records remain beyond the page.  At least one record is
    /// returned when any exists, however large.
    ///
    /// The remote-storage server pages `read_log_from` responses with
    /// this so a WAL that outgrew one wire frame transfers incrementally.
    /// The default materializes the full suffix and truncates — correct
    /// everywhere, efficient nowhere; stores that can should override it
    /// with a bounded scan.
    fn read_log_page(&self, from: u64, max_bytes: usize) -> Result<(Vec<(u64, Bytes)>, bool)> {
        let mut records = self.read_log_from(from)?;
        let mut budget = max_bytes;
        let mut keep = 0usize;
        for (_, data) in &records {
            let cost = 12 + data.len();
            if keep > 0 && cost > budget {
                break;
            }
            budget = budget.saturating_sub(cost);
            keep += 1;
        }
        let truncated = keep < records.len();
        records.truncate(keep);
        Ok((records, truncated))
    }

    /// Drops log records with sequence number `< up_to` (checkpointing).
    fn truncate_log(&self, up_to: u64) -> Result<()>;

    /// Drops log records with sequence number `>= from` (tail erasure).
    ///
    /// Recovery uses this to physically retire a *torn* final append (a
    /// record the crash left truncated or garbled).  Leaving the fragment
    /// in place would poison every later recovery: once fresh records are
    /// appended behind it, the fragment is no longer a tolerable tail but
    /// unexplained mid-log corruption.
    fn truncate_log_tail(&self, from: u64) -> Result<()>;

    /// Snapshot of the operation counters.
    fn stats(&self) -> StoreStats;

    /// Resets the operation counters (between benchmark phases).
    fn reset_stats(&self);

    /// Telemetry of the *process* hosting this store, when that process
    /// is not the caller's (the `obladi-stored` daemon records
    /// `daemon.*` metrics into its own registry, invisible to the proxy).
    /// In-process stores have nothing to add — their instrumentation
    /// already lands in the caller's registry — so the default is `None`.
    /// Wrappers should forward to their inner store.
    fn daemon_metrics(&self) -> Option<crate::proto::WireMetrics> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_stats_totals() {
        let stats = StoreStats {
            slot_reads: 10,
            bucket_writes: 5,
            meta_reads: 2,
            meta_writes: 3,
            bytes_read: 100,
            bytes_written: 200,
        };
        assert_eq!(stats.total_requests(), 20);
        assert_eq!(stats.total_bytes(), 300);
    }

    #[test]
    fn default_stats_are_zero() {
        let stats = StoreStats::default();
        assert_eq!(stats.total_requests(), 0);
        assert_eq!(stats.total_bytes(), 0);
    }
}
