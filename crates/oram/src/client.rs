//! The Ring ORAM client facade and Obladi's batched / parallel executor
//! (§4, §6.3, §7).
//!
//! The client implementation lives in [`crate::split`]: a concurrent
//! **read plane** ([`crate::split::OramReader`]) and a background
//! **write-back engine** ([`crate::split::WritebackEngine`]) sharing the
//! client state (position map, per-bucket metadata, stash, buffered-bucket
//! overlay) behind one fine-grained lock.  [`RingOram`] composes the two
//! halves back into the original single-threaded client surface — the
//! batch-oriented interface the Obladi proxy's recovery path, the baselines
//! and the benchmarks use:
//!
//! * [`RingOram::read_batch`] — executes one read batch: a metadata-only
//!   planning pass chooses exactly one slot per non-buffered bucket on each
//!   request's path, the physical reads are issued concurrently on a worker
//!   pool (intra- *and* inter-request parallelism), values are ingested into
//!   the stash, and any evictions that have come due (every `A` accesses)
//!   are performed with their bucket write-backs *deferred* into a local
//!   buffer;
//! * [`RingOram::write_batch`] — applies the epoch's write batch using
//!   dummiless writes (§6.3): new versions go straight to the stash, with no
//!   physical reads, while still advancing the eviction schedule;
//! * [`RingOram::flush_writes`] — seals and writes every buffered bucket
//!   back to storage, once per bucket (write deduplication), which is the
//!   only moment physical writes happen — and the moment the client state
//!   is published: checkpoints describe the last flush, not the live state;
//! * [`RingOram::access`] — a sequential single-operation interface used by
//!   the non-batched baseline of Figure 10a;
//! * [`RingOram::split`] — hands the two halves to a caller that wants to
//!   drive them from separate threads (the pipelined proxy: its executor
//!   thread owns the read plane, its decider thread the write-back engine,
//!   so epoch `N+1`'s reads overlap epoch `N`'s write-back I/O).
//!
//! Two deliberate deviations from canonical Ring ORAM, both documented in
//! DESIGN.md ("Deviations from canonical Ring ORAM"), keep the batched
//! implementation tractable without changing the behaviour the evaluation
//! measures: evictions owed in the middle of a batch are performed at the
//! end of that batch (the paper itself defers all physical writes to the
//! epoch boundary), and buckets that have already been logically rewritten
//! during the epoch are served from the local buffer instead of being
//! physically re-read (the paper's "reads are served locally from the
//! buffered buckets", §7).

use crate::codec::{Decoder, Encoder};
use crate::metadata::{MetaDelta, OramMeta};
use crate::split::{from_meta_split, new_split, CheckpointSource, OramReader, WritebackEngine};
use crate::tree::TreeGeometry;
use obladi_common::config::OramConfig;
use obladi_common::error::Result;
use obladi_common::types::{BucketId, Key, Value, Version};
use obladi_crypto::KeyMaterial;
use obladi_storage::UntrustedStore;
use std::sync::Arc;

/// How the executor runs physical I/O and write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Issue physical reads/writes concurrently on a worker pool.
    pub parallel: bool,
    /// Worker pool size (ignored when `parallel` is false).
    pub threads: usize,
    /// Defer bucket write-back to [`RingOram::flush_writes`] (delayed
    /// visibility).  When false every eviction writes its buckets
    /// immediately, as canonical Ring ORAM does.
    pub deferred_writes: bool,
    /// Seal blocks with ChaCha20 + HMAC.  Disabling isolates the ORAM's
    /// scheduling cost from its crypto cost (the `Parallel` vs
    /// `ParallelCrypto` series of Figure 10a).
    pub encrypt: bool,
    /// Initialise the tree by sharing one dummy slot image across each
    /// bucket instead of drawing every slot's bytes, which saves memory on
    /// the 1M-object figure trees.  Initialisation is a one-off, offline
    /// step in a real deployment; this flag never affects steady state.
    pub fast_init: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            parallel: true,
            threads: 8,
            deferred_writes: true,
            encrypt: true,
            fast_init: false,
        }
    }
}

impl ExecOptions {
    /// Canonical sequential Ring ORAM: no parallelism, immediate writes.
    pub fn sequential() -> Self {
        ExecOptions {
            parallel: false,
            threads: 1,
            deferred_writes: false,
            encrypt: true,
            fast_init: false,
        }
    }

    /// Parallel executor with `threads` workers and deferred writes.
    pub fn parallel(threads: usize) -> Self {
        ExecOptions {
            parallel: true,
            threads,
            deferred_writes: true,
            encrypt: true,
            fast_init: false,
        }
    }

    /// Disables encryption (the `Parallel` series of Figure 10a).
    pub fn without_crypto(mut self) -> Self {
        self.encrypt = false;
        self
    }

    /// Enables fast tree initialisation.
    pub fn with_fast_init(mut self) -> Self {
        self.fast_init = true;
        self
    }

    /// Enables or disables deferred (buffered) bucket write-back.
    pub fn with_deferred_writes(mut self, deferred: bool) -> Self {
        self.deferred_writes = deferred;
        self
    }
}

/// Operation counters exposed for benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OramStats {
    /// Logical read requests processed (including padded dummy requests).
    pub logical_reads: u64,
    /// Logical write requests processed.
    pub logical_writes: u64,
    /// Physical slot reads issued to storage.
    pub physical_reads: u64,
    /// Physical bucket writes issued to storage.
    pub physical_writes: u64,
    /// `evict_path` operations performed.
    pub evictions: u64,
    /// Early reshuffles performed.
    pub early_reshuffles: u64,
    /// Bucket reads served from the epoch-local buffer instead of storage.
    pub buffered_reads: u64,
    /// Largest stash occupancy observed.
    pub stash_peak: u64,
}

/// One physical slot read: which bucket, which physical slot, and the bucket
/// version expected (bound into the envelope MAC for freshness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRead {
    /// Bucket to read from.
    pub bucket: BucketId,
    /// Physical slot index.
    pub slot: u32,
    /// Expected bucket version.
    pub version: Version,
}

impl SlotRead {
    /// Encodes a list of slot reads (for the durability path log).
    pub fn encode_list(reads: &[SlotRead]) -> Vec<u8> {
        let mut out = Vec::new();
        Self::encode_list_into(reads, &mut out);
        out
    }

    /// Appends the encoding of `reads` to `out`.
    pub fn encode_list_into(reads: &[SlotRead], out: &mut Vec<u8>) {
        out.reserve(8 + reads.len() * 20);
        let mut enc = Encoder::new(out);
        enc.put_u64(reads.len() as u64);
        for r in reads {
            enc.put_u64(r.bucket);
            enc.put_u32(r.slot);
            enc.put_u64(r.version);
        }
    }

    /// Decodes a list written by [`SlotRead::encode_list`].
    pub fn decode_list(bytes: &[u8]) -> Result<Vec<SlotRead>> {
        let mut dec = Decoder::new(bytes);
        let count = dec.get_u64()? as usize;
        let mut reads = Vec::with_capacity(count);
        for _ in 0..count {
            reads.push(SlotRead {
                bucket: dec.get_u64()?,
                slot: dec.get_u32()?,
                version: dec.get_u64()?,
            });
        }
        dec.expect_end()?;
        Ok(reads)
    }
}

/// Receives the physical read set of a batch *before* it executes, so the
/// proxy can durably log it (§8: recovery replays the logged paths).
pub trait PathLogger: Send + Sync {
    /// Called with every physical read about to be issued.
    fn log_reads(&self, reads: &[SlotRead]) -> Result<()>;
}

/// A [`PathLogger`] that does nothing (durability disabled).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopPathLogger;

impl PathLogger for NoopPathLogger {
    fn log_reads(&self, _reads: &[SlotRead]) -> Result<()> {
        Ok(())
    }
}

/// The Ring ORAM client: the read plane and write-back engine composed back
/// into a single-threaded handle.
pub struct RingOram {
    reader: OramReader,
    engine: WritebackEngine,
    options: ExecOptions,
}

impl RingOram {
    /// Creates a client over `store`, initialising the tree on storage if it
    /// has never been written.
    pub fn new(
        config: OramConfig,
        keys: &KeyMaterial,
        store: Arc<dyn UntrustedStore>,
        options: ExecOptions,
        seed: u64,
    ) -> Result<Self> {
        let (reader, engine) = new_split(config, keys, store, options, seed)?;
        Ok(RingOram {
            reader,
            engine,
            options,
        })
    }

    /// Restores a client from previously checkpointed metadata without
    /// re-initialising storage (used by crash recovery).
    pub fn from_meta(
        meta: OramMeta,
        keys: &KeyMaterial,
        store: Arc<dyn UntrustedStore>,
        options: ExecOptions,
        seed: u64,
    ) -> Self {
        let (reader, engine) = from_meta_split(meta, keys, store, options, seed);
        RingOram {
            reader,
            engine,
            options,
        }
    }

    /// Splits the client into its two concurrently drivable halves.  The
    /// pipelined proxy hands the read plane to its epoch executor and the
    /// write-back engine to its epoch decider; the halves share the
    /// versioned client state, so all invariants keep holding while epoch
    /// `N+1`'s reads overlap epoch `N`'s write-back I/O.  The engine gets
    /// its own worker pool here (the facade shares one) so flush I/O never
    /// queues behind the read plane's fetches.
    pub fn split(self) -> (OramReader, WritebackEngine) {
        let mut engine = self.engine;
        engine.use_private_pool();
        (self.reader, engine)
    }

    /// The tree configuration.
    pub fn config(&self) -> &OramConfig {
        self.reader.config()
    }

    /// The tree geometry helper.
    pub fn geometry(&self) -> TreeGeometry {
        self.reader.geometry()
    }

    /// Operation counters.
    pub fn stats(&self) -> OramStats {
        self.reader.stats()
    }

    /// Resets the operation counters (between benchmark phases).
    pub fn reset_stats(&mut self) {
        self.reader.reset_stats();
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.reader.stash_len()
    }

    /// Number of buckets currently buffered locally (awaiting flush).
    pub fn buffered_buckets(&self) -> usize {
        self.engine.buffered_buckets()
    }

    /// Access to the underlying store (for stats in benches).
    pub fn store(&self) -> &Arc<dyn UntrustedStore> {
        self.reader.store()
    }

    /// A snapshot of the client metadata (tests and diagnostics).
    pub fn meta_snapshot(&self) -> OramMeta {
        self.engine.meta_snapshot()
    }

    /// Produces a delta checkpoint of the client metadata.  Fails if the
    /// read plane is poisoned (a fetched target block was lost in flight;
    /// see [`CheckpointSource`]).
    pub fn checkpoint_delta(&mut self, max_position_delta: usize) -> Result<MetaDelta> {
        CheckpointSource::checkpoint_delta(&mut self.engine, max_position_delta)
    }

    /// Produces a full checkpoint of the client metadata.  Fails if the
    /// read plane is poisoned (see [`CheckpointSource`]).
    pub fn checkpoint_full(&self) -> Result<Vec<u8>> {
        CheckpointSource::checkpoint_full(self)
    }

    // ------------------------------------------------------------------
    // Batched interface used by the Obladi proxy
    // ------------------------------------------------------------------

    /// Executes one read batch.  `requests[i] == None` denotes a padding
    /// (dummy) request that reads a uniformly random path.
    pub fn read_batch(
        &mut self,
        requests: &[Option<Key>],
        logger: &dyn PathLogger,
    ) -> Result<Vec<Option<Value>>> {
        let results = self.reader.read_batch(requests, logger)?;
        // Run any evictions / reshuffles that have come due, exactly where
        // the monolithic client ran them.
        self.engine.run_pending_maintenance(logger)?;
        if !self.options.deferred_writes {
            self.engine.flush_writes(logger)?;
        }
        Ok(results)
    }

    /// Applies a write batch using dummiless writes (§6.3): the new version
    /// of each object goes directly to the stash; no physical reads are
    /// issued, but the eviction schedule still advances.
    pub fn write_batch(&mut self, writes: &[(Key, Value)], logger: &dyn PathLogger) -> Result<()> {
        self.engine.write_batch(writes, logger)
    }

    /// Like [`RingOram::write_batch`], but pads the batch to `padded_to`
    /// logical writes so the eviction schedule (which advances once per `A`
    /// logical accesses) is independent of how many real writes the epoch
    /// produced — the workload-independence requirement of §6.2.
    pub fn write_batch_padded(
        &mut self,
        writes: &[(Key, Value)],
        padded_to: usize,
        logger: &dyn PathLogger,
    ) -> Result<()> {
        self.engine.write_batch_padded(writes, padded_to, logger)
    }

    /// Seals and writes every buffered bucket back to storage (one write per
    /// bucket — the last version wins) and clears the buffer.
    pub fn flush_writes(&mut self, logger: &dyn PathLogger) -> Result<()> {
        self.engine.flush_writes(logger)
    }

    /// Convenience sequential interface: a single read or write, with
    /// maintenance and write-back applied immediately.  Used by the
    /// sequential Ring ORAM baseline of Figure 10a.
    pub fn access(&mut self, key: Key, value: Option<Value>) -> Result<Option<Value>> {
        match value {
            Some(v) => {
                // A canonical Ring ORAM write performs a full path access;
                // we reproduce that here (the batched proxy path uses
                // dummiless writes instead).
                let previous = self.read_batch(&[Some(key)], &NoopPathLogger)?;
                self.write_batch(&[(key, v)], &NoopPathLogger)?;
                if !self.options.deferred_writes {
                    self.flush_writes(&NoopPathLogger)?;
                }
                Ok(previous.into_iter().next().flatten())
            }
            None => Ok(self
                .read_batch(&[Some(key)], &NoopPathLogger)?
                .into_iter()
                .next()
                .flatten()),
        }
    }

    // ------------------------------------------------------------------
    // Recovery support
    // ------------------------------------------------------------------

    /// Re-issues a previously logged set of physical reads, discarding the
    /// results.  Recovery replays the logged paths of the aborted epoch so
    /// the adversary observes a deterministic pattern (§8).
    pub fn replay_reads(&mut self, reads: &[SlotRead]) -> Result<()> {
        self.engine.replay_reads(reads)
    }

    /// Reverts every bucket on storage to the version recorded in the client
    /// metadata (shadow paging, §8).  Used by recovery to discard bucket
    /// writes from an epoch that did not commit.
    pub fn revert_storage_to_meta(&self) -> Result<()> {
        self.engine.revert_storage_to_meta()
    }

    /// Discards all epoch-local buffered state (aborting the epoch).
    pub fn discard_buffered(&mut self) {
        self.engine.discard_buffered()
    }
}

impl CheckpointSource for RingOram {
    fn checkpoint_full_into(&self, out: &mut Vec<u8>) -> Result<()> {
        self.engine.checkpoint_full_into(out)
    }

    fn checkpoint_delta(&mut self, max_position_delta: usize) -> Result<MetaDelta> {
        RingOram::checkpoint_delta(self, max_position_delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obladi_common::rng::DetRng;
    use obladi_storage::InMemoryStore;

    fn new_oram(num_objects: u64, options: ExecOptions) -> RingOram {
        let config = OramConfig::small_for_tests(num_objects);
        let keys = KeyMaterial::for_tests(1);
        let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
        RingOram::new(config, &keys, store, options, 99).unwrap()
    }

    fn value(tag: u64) -> Value {
        tag.to_le_bytes().to_vec()
    }

    #[test]
    fn constructing_a_client_reinitialises_a_previously_used_store() {
        // A fresh client has a fresh position map and fresh permutations, so
        // it must rewrite the tree it finds on storage; anything a previous
        // client stored there is gone, and the new client's own writes work.
        let config = OramConfig::small_for_tests(128);
        let keys = KeyMaterial::for_tests(1);
        let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());

        let mut first =
            RingOram::new(config, &keys, store.clone(), ExecOptions::default(), 7).unwrap();
        first
            .write_batch(&[(1, value(111))], &NoopPathLogger)
            .unwrap();
        first.flush_writes(&NoopPathLogger).unwrap();
        drop(first);

        let mut second = RingOram::new(config, &keys, store, ExecOptions::default(), 8).unwrap();
        let results = second.read_batch(&[Some(1)], &NoopPathLogger).unwrap();
        assert_eq!(
            results[0], None,
            "old client's data must not survive re-init"
        );

        // The second client is fully functional: write, flush, evict, read.
        let writes: Vec<(Key, Value)> = (0..32).map(|k| (k, value(k + 500))).collect();
        second.write_batch(&writes, &NoopPathLogger).unwrap();
        second.flush_writes(&NoopPathLogger).unwrap();
        for k in 0..32u64 {
            let results = second.read_batch(&[Some(k)], &NoopPathLogger).unwrap();
            assert_eq!(
                results[0],
                Some(value(k + 500)),
                "key {k} lost after re-init"
            );
            second.flush_writes(&NoopPathLogger).unwrap();
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut oram = new_oram(100, ExecOptions::default());
        oram.write_batch(&[(1, value(11)), (2, value(22))], &NoopPathLogger)
            .unwrap();
        let results = oram
            .read_batch(&[Some(1), Some(2), Some(3)], &NoopPathLogger)
            .unwrap();
        assert_eq!(results[0], Some(value(11)));
        assert_eq!(results[1], Some(value(22)));
        assert_eq!(results[2], None, "unwritten key reads as absent");
    }

    #[test]
    fn values_survive_flush_and_many_evictions() {
        let mut oram = new_oram(200, ExecOptions::default());
        let writes: Vec<(Key, Value)> = (0..64).map(|k| (k, value(k * 7))).collect();
        oram.write_batch(&writes, &NoopPathLogger).unwrap();
        oram.flush_writes(&NoopPathLogger).unwrap();

        // Drive many accesses (and therefore evictions) and re-check.
        for round in 0..6 {
            let reads: Vec<Option<Key>> = (0..64).map(Some).collect();
            let results = oram.read_batch(&reads, &NoopPathLogger).unwrap();
            for (k, result) in results.iter().enumerate() {
                assert_eq!(
                    result.as_ref(),
                    Some(&value(k as u64 * 7)),
                    "round {round} key {k}"
                );
            }
            oram.flush_writes(&NoopPathLogger).unwrap();
        }
        assert!(oram.stats().evictions > 0);
    }

    #[test]
    fn overwrites_return_latest_value() {
        let mut oram = new_oram(100, ExecOptions::default());
        oram.write_batch(&[(5, value(1))], &NoopPathLogger).unwrap();
        oram.write_batch(&[(5, value(2))], &NoopPathLogger).unwrap();
        oram.flush_writes(&NoopPathLogger).unwrap();
        let results = oram.read_batch(&[Some(5)], &NoopPathLogger).unwrap();
        assert_eq!(results[0], Some(value(2)));
        oram.write_batch(&[(5, value(3))], &NoopPathLogger).unwrap();
        let results = oram.read_batch(&[Some(5)], &NoopPathLogger).unwrap();
        assert_eq!(results[0], Some(value(3)));
    }

    #[test]
    fn dummy_requests_read_full_paths_but_return_nothing() {
        let mut oram = new_oram(100, ExecOptions::default());
        oram.write_batch(&[(1, value(1))], &NoopPathLogger).unwrap();
        oram.flush_writes(&NoopPathLogger).unwrap();
        let before = oram.stats().physical_reads;
        let results = oram.read_batch(&[None, None], &NoopPathLogger).unwrap();
        assert_eq!(results, vec![None, None]);
        let after = oram.stats().physical_reads;
        assert!(
            after > before,
            "padding requests must still touch storage ({before} -> {after})"
        );
    }

    #[test]
    fn sequential_mode_matches_parallel_results() {
        let mut seq = new_oram(100, ExecOptions::sequential());
        let mut par = new_oram(100, ExecOptions::parallel(4));
        let writes: Vec<(Key, Value)> = (0..32).map(|k| (k, value(k + 100))).collect();
        seq.write_batch(&writes, &NoopPathLogger).unwrap();
        par.write_batch(&writes, &NoopPathLogger).unwrap();
        par.flush_writes(&NoopPathLogger).unwrap();
        for k in 0..32 {
            let a = seq.read_batch(&[Some(k)], &NoopPathLogger).unwrap();
            let b = par.read_batch(&[Some(k)], &NoopPathLogger).unwrap();
            assert_eq!(a, b, "key {k}");
        }
    }

    #[test]
    fn access_api_reads_and_writes() {
        let mut oram = new_oram(100, ExecOptions::sequential());
        assert_eq!(oram.access(9, None).unwrap(), None);
        assert_eq!(oram.access(9, Some(value(5))).unwrap(), None);
        assert_eq!(oram.access(9, None).unwrap(), Some(value(5)));
        let old = oram.access(9, Some(value(6))).unwrap();
        assert_eq!(old, Some(value(5)));
        assert_eq!(oram.access(9, None).unwrap(), Some(value(6)));
    }

    #[test]
    fn unencrypted_mode_roundtrips() {
        let mut oram = new_oram(100, ExecOptions::default().without_crypto());
        oram.write_batch(&[(3, value(33))], &NoopPathLogger)
            .unwrap();
        oram.flush_writes(&NoopPathLogger).unwrap();
        let results = oram.read_batch(&[Some(3)], &NoopPathLogger).unwrap();
        assert_eq!(results[0], Some(value(33)));
    }

    #[test]
    fn deferred_mode_buffers_until_flush() {
        let mut oram = new_oram(200, ExecOptions::parallel(2));
        // Enough accesses to trigger at least one eviction.
        let writes: Vec<(Key, Value)> = (0..20).map(|k| (k, value(k))).collect();
        oram.write_batch(&writes, &NoopPathLogger).unwrap();
        assert!(oram.stats().evictions > 0);
        assert!(oram.buffered_buckets() > 0, "evictions should be buffered");
        let writes_before = oram.stats().physical_writes;
        assert_eq!(writes_before, 0, "no physical writes before flush");
        oram.flush_writes(&NoopPathLogger).unwrap();
        assert!(oram.stats().physical_writes > 0);
        assert_eq!(oram.buffered_buckets(), 0);
    }

    #[test]
    fn immediate_mode_never_buffers() {
        let mut oram = new_oram(200, ExecOptions::sequential());
        let writes: Vec<(Key, Value)> = (0..20).map(|k| (k, value(k))).collect();
        oram.write_batch(&writes, &NoopPathLogger).unwrap();
        assert_eq!(oram.buffered_buckets(), 0);
        assert!(oram.stats().physical_writes > 0);
    }

    #[test]
    fn stash_stays_bounded_under_load() {
        let mut oram = new_oram(256, ExecOptions::default());
        let mut rng = DetRng::new(5);
        for round in 0..20 {
            let writes: Vec<(Key, Value)> = (0..16)
                .map(|_| {
                    let k = rng.below(256);
                    (k, value(k))
                })
                .collect();
            oram.write_batch(&writes, &NoopPathLogger).unwrap();
            let reads: Vec<Option<Key>> = (0..16).map(|_| Some(rng.below(256))).collect();
            oram.read_batch(&reads, &NoopPathLogger).unwrap();
            oram.flush_writes(&NoopPathLogger).unwrap();
            assert!(
                oram.stash_len() <= oram.config().max_stash,
                "round {round}: stash {} exceeds bound {}",
                oram.stash_len(),
                oram.config().max_stash
            );
        }
    }

    #[test]
    fn path_logger_sees_all_physical_reads() {
        use parking_lot::Mutex;
        #[derive(Default)]
        struct CountingLogger {
            count: Mutex<usize>,
        }
        impl PathLogger for CountingLogger {
            fn log_reads(&self, reads: &[SlotRead]) -> Result<()> {
                *self.count.lock() += reads.len();
                Ok(())
            }
        }

        let mut oram = new_oram(100, ExecOptions::default());
        let logger = CountingLogger::default();
        oram.write_batch(&[(1, value(1)), (2, value(2))], &logger)
            .unwrap();
        oram.read_batch(&[Some(1), Some(2)], &logger).unwrap();
        let logged = *logger.count.lock();
        let issued = oram.stats().physical_reads as usize;
        assert_eq!(logged, issued, "every physical read must be logged first");
    }

    #[test]
    fn slot_read_list_roundtrip() {
        let reads = vec![
            SlotRead {
                bucket: 1,
                slot: 2,
                version: 3,
            },
            SlotRead {
                bucket: 100,
                slot: 0,
                version: 7,
            },
        ];
        let decoded = SlotRead::decode_list(&SlotRead::encode_list(&reads)).unwrap();
        assert_eq!(decoded, reads);
        assert!(SlotRead::decode_list(&[1, 2, 3]).is_err());
    }

    #[test]
    fn checkpoint_and_restore_preserve_data() {
        let mut oram = new_oram(128, ExecOptions::default());
        let writes: Vec<(Key, Value)> = (0..32).map(|k| (k, value(k + 7))).collect();
        oram.write_batch(&writes, &NoopPathLogger).unwrap();
        oram.flush_writes(&NoopPathLogger).unwrap();

        let checkpoint = oram.checkpoint_full().unwrap();
        let store = oram.store().clone();
        let keys = KeyMaterial::for_tests(1);
        drop(oram);

        let meta = OramMeta::decode_full(&checkpoint).unwrap();
        let mut recovered = RingOram::from_meta(meta, &keys, store, ExecOptions::default(), 123);
        for k in 0..32 {
            let result = recovered.read_batch(&[Some(k)], &NoopPathLogger).unwrap();
            assert_eq!(result[0], Some(value(k + 7)), "key {k} after restore");
        }
    }

    #[test]
    fn checkpoint_refuses_to_capture_a_lost_in_flight_block() {
        use obladi_storage::{FaultPlan, FaultyStore};
        // A read batch plans a physical target (the block leaves its bucket
        // metadata), then the fetch fails: the value never reaches the
        // stash.  A checkpoint of that state would lose the key durably —
        // the client must refuse until it is rebuilt.
        let config = OramConfig::small_for_tests(64);
        let keys = KeyMaterial::for_tests(1);
        let faulty = Arc::new(FaultyStore::new(
            Arc::new(InMemoryStore::new()),
            FaultPlan::none(),
            5,
        ));
        let mut oram = RingOram::new(
            config,
            &keys,
            faulty.clone() as Arc<dyn UntrustedStore>,
            ExecOptions::parallel(2),
            31,
        )
        .unwrap();
        let writes: Vec<(Key, Value)> = (0..32).map(|k| (k, value(k))).collect();
        oram.write_batch(&writes, &NoopPathLogger).unwrap();
        oram.flush_writes(&NoopPathLogger).unwrap();
        assert!(oram.checkpoint_full().is_ok(), "healthy client checkpoints");

        // Pick a key the evictions placed in the tree (not a stash hit):
        // only a *physical* target can be lost in flight.
        let meta = oram.meta_snapshot();
        let victim = (0..32u64)
            .find(|&k| !meta.stash.contains(k))
            .expect("at least one key must have been evicted into the tree");
        faulty.set_plan(FaultPlan::fail_after(0));
        assert!(
            oram.read_batch(&[Some(victim)], &NoopPathLogger).is_err(),
            "the injected storage outage must surface"
        );
        faulty.set_plan(FaultPlan::none());
        assert!(
            oram.checkpoint_full().is_err(),
            "a checkpoint must not capture the lost in-flight block"
        );
        assert!(
            oram.checkpoint_delta(16).is_err(),
            "delta checkpoints must refuse too"
        );
    }

    #[test]
    fn replay_reads_touches_storage_without_failing() {
        let mut oram = new_oram(100, ExecOptions::default());
        oram.write_batch(&[(1, value(1))], &NoopPathLogger).unwrap();
        oram.flush_writes(&NoopPathLogger).unwrap();
        let reads = vec![SlotRead {
            bucket: 0,
            slot: 0,
            version: 1,
        }];
        let before = oram.store().stats().slot_reads;
        oram.replay_reads(&reads).unwrap();
        assert!(oram.store().stats().slot_reads > before);
    }
}
