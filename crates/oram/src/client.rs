//! What every caller of the Ring ORAM client shares, and its one public
//! constructor (§4, §6.3, §7).
//!
//! The client lives in [`crate::split`]: a **read plane** ([`OramReader`],
//! one read batch in flight at a time) and a **write-back engine**
//! ([`WritebackEngine`]) sharing the client state (position map,
//! per-bucket metadata, stash, buffered-bucket overlay) behind one
//! fine-grained lock.  This module holds
//! the executor options ([`ExecOptions`]), the operation counters
//! ([`OramStats`]), the path-log types ([`SlotRead`], [`PathLogger`]) and
//! [`RingOram`], which builds a client — or restores one from checkpointed
//! metadata — and hands back the two halves.
//!
//! The pipelined proxy drives the halves from separate threads: its epoch
//! executor owns the read plane, its decider the engine, whose write batch
//! runs the epoch's owed maintenance once, after all of its writes, right
//! before the flush, so epoch `N+1`'s reads overlap epoch `N`'s write-back
//! I/O.  A caller that drives both from one thread (recovery, the Figure 10
//! and 11 reproductions, tests) runs the maintenance a read batch made due
//! right after it — `reader.read_batch(..)?; engine.run_pending_maintenance(..)?;`
//! — which in write-through mode (`deferred_writes: false`) also flushes
//! every path it rewrites.
//!
//! Two deliberate deviations from canonical Ring ORAM, both documented in
//! DESIGN.md ("Deviations from canonical Ring ORAM"), keep the batched
//! implementation tractable without changing the behaviour the evaluation
//! measures: evictions owed in the middle of a read or write batch are
//! performed at the end of that batch (the paper itself defers all
//! physical writes to the epoch boundary), and buckets that have already
//! been logically rewritten during the epoch are served from the local
//! buffer instead of being physically re-read (the paper's "reads are
//! served locally from the buffered buckets", §7).

use crate::codec::{Decoder, Encoder};
use crate::metadata::OramMeta;
use crate::split::{from_meta_split, new_split, OramReader, WritebackEngine};
use obladi_common::config::OramConfig;
use obladi_common::error::Result;
use obladi_common::types::{BucketId, Version};
use obladi_crypto::KeyMaterial;
use obladi_storage::UntrustedStore;
use std::sync::Arc;

/// How the executor runs physical I/O and write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Issue physical reads/writes concurrently on a worker pool.
    pub parallel: bool,
    /// Worker pool size per half of the split client.  Used only when
    /// `parallel` is set and the store's calls wait
    /// ([`UntrustedStore::waits`]); otherwise each half runs its physical
    /// I/O on its caller's thread.
    pub threads: usize,
    /// Defer bucket write-back to the epoch's
    /// [`WritebackEngine::flush_writes`] (delayed visibility).  When false
    /// each eviction is flushed as soon as it is applied, before the next is
    /// planned, as canonical Ring ORAM writes its buckets.
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
    /// Canonical sequential Ring ORAM: no parallelism, and each eviction
    /// flushed as soon as it is applied.
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

/// The public constructor of the split client with every level on
/// storage: `RingOram::new(..)` or `RingOram::from_meta(..)`, then
/// [`RingOram::split`] for the two halves.  A client that caches the top of
/// the tree (the proxy's) is built by [`crate::split::new_split`] /
/// [`crate::split::from_meta_split`], which these call with no cached level.
pub struct RingOram {
    reader: OramReader,
    engine: WritebackEngine,
}

impl RingOram {
    /// Creates a client over `store`, initialising the tree on storage.
    pub fn new(
        config: OramConfig,
        keys: &KeyMaterial,
        store: Arc<dyn UntrustedStore>,
        options: ExecOptions,
        seed: u64,
    ) -> Result<Self> {
        let (reader, engine) = new_split(config, keys, store, options, seed, 0)?;
        Ok(RingOram { reader, engine })
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
        let uncached = from_meta_split(meta, keys, store, options, seed, 0);
        let (reader, engine) = uncached.expect("an uncached client takes any metadata");
        RingOram { reader, engine }
    }

    /// The client's two halves.  They share the client state, and each has
    /// a worker pool of its own (over a store that waits), so flush I/O
    /// never queues behind the read plane's fetches when the halves run on
    /// separate threads.
    pub fn split(self) -> (OramReader, WritebackEngine) {
        (self.reader, self.engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::CheckpointSource;
    use obladi_common::rng::DetRng;
    use obladi_common::types::{Key, Value};
    use obladi_storage::InMemoryStore;

    fn new_oram(num_objects: u64, options: ExecOptions) -> (OramReader, WritebackEngine) {
        let config = OramConfig::small_for_tests(num_objects);
        let keys = KeyMaterial::for_tests(1);
        let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
        RingOram::new(config, &keys, store, options, 99)
            .unwrap()
            .split()
    }

    /// One read batch from a single thread: the batch, then the maintenance
    /// it made due.
    fn read(
        (reader, engine): &mut (OramReader, WritebackEngine),
        requests: &[Option<Key>],
        logger: &dyn PathLogger,
    ) -> Vec<Option<Value>> {
        let values = reader.read_batch(requests, logger).unwrap();
        engine.run_pending_maintenance(logger).unwrap();
        values
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

        let (_, mut first) = RingOram::new(config, &keys, store.clone(), ExecOptions::default(), 7)
            .unwrap()
            .split();
        first
            .write_batch(&[(1, value(111))], &NoopPathLogger)
            .unwrap();
        first.flush_writes(&NoopPathLogger).unwrap();
        drop(first);

        let mut second = RingOram::new(config, &keys, store, ExecOptions::default(), 8)
            .unwrap()
            .split();
        let results = read(&mut second, &[Some(1)], &NoopPathLogger);
        assert_eq!(
            results[0], None,
            "old client's data must not survive re-init"
        );

        // The second client is fully functional: write, flush, evict, read.
        let writes: Vec<(Key, Value)> = (0..32).map(|k| (k, value(k + 500))).collect();
        second.1.write_batch(&writes, &NoopPathLogger).unwrap();
        second.1.flush_writes(&NoopPathLogger).unwrap();
        for k in 0..32u64 {
            let results = read(&mut second, &[Some(k)], &NoopPathLogger);
            assert_eq!(
                results[0],
                Some(value(k + 500)),
                "key {k} lost after re-init"
            );
            second.1.flush_writes(&NoopPathLogger).unwrap();
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut oram = new_oram(100, ExecOptions::default());
        oram.1
            .write_batch(&[(1, value(11)), (2, value(22))], &NoopPathLogger)
            .unwrap();
        let results = read(&mut oram, &[Some(1), Some(2), Some(3)], &NoopPathLogger);
        assert_eq!(results[0], Some(value(11)));
        assert_eq!(results[1], Some(value(22)));
        assert_eq!(results[2], None, "unwritten key reads as absent");
    }

    #[test]
    fn values_survive_flush_and_many_evictions() {
        let mut oram = new_oram(200, ExecOptions::default());
        let writes: Vec<(Key, Value)> = (0..64).map(|k| (k, value(k * 7))).collect();
        oram.1.write_batch(&writes, &NoopPathLogger).unwrap();
        oram.1.flush_writes(&NoopPathLogger).unwrap();

        // Drive many accesses (and therefore evictions) and re-check.
        for round in 0..6 {
            let reads: Vec<Option<Key>> = (0..64).map(Some).collect();
            let results = read(&mut oram, &reads, &NoopPathLogger);
            for (k, result) in results.iter().enumerate() {
                assert_eq!(
                    result.as_ref(),
                    Some(&value(k as u64 * 7)),
                    "round {round} key {k}"
                );
            }
            oram.1.flush_writes(&NoopPathLogger).unwrap();
        }
        assert!(oram.1.stats().evictions > 0);
    }

    #[test]
    fn overwrites_return_latest_value() {
        let mut oram = new_oram(100, ExecOptions::default());
        oram.1
            .write_batch(&[(5, value(1))], &NoopPathLogger)
            .unwrap();
        oram.1
            .write_batch(&[(5, value(2))], &NoopPathLogger)
            .unwrap();
        oram.1.flush_writes(&NoopPathLogger).unwrap();
        let results = read(&mut oram, &[Some(5)], &NoopPathLogger);
        assert_eq!(results[0], Some(value(2)));
        oram.1
            .write_batch(&[(5, value(3))], &NoopPathLogger)
            .unwrap();
        let results = read(&mut oram, &[Some(5)], &NoopPathLogger);
        assert_eq!(results[0], Some(value(3)));
    }

    #[test]
    fn dummy_requests_read_full_paths_but_return_nothing() {
        let mut oram = new_oram(100, ExecOptions::default());
        oram.1
            .write_batch(&[(1, value(1))], &NoopPathLogger)
            .unwrap();
        oram.1.flush_writes(&NoopPathLogger).unwrap();
        let before = oram.0.stats().physical_reads;
        let results = read(&mut oram, &[None, None], &NoopPathLogger);
        assert_eq!(results, vec![None, None]);
        let after = oram.0.stats().physical_reads;
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
        seq.1.write_batch(&writes, &NoopPathLogger).unwrap();
        par.1.write_batch(&writes, &NoopPathLogger).unwrap();
        par.1.flush_writes(&NoopPathLogger).unwrap();
        for k in 0..32 {
            let a = read(&mut seq, &[Some(k)], &NoopPathLogger);
            let b = read(&mut par, &[Some(k)], &NoopPathLogger);
            assert_eq!(a, b, "key {k}");
        }
        assert_eq!(seq.1.buffered_buckets(), 0, "write-through never buffers");
    }

    #[test]
    fn unencrypted_mode_roundtrips() {
        let mut oram = new_oram(100, ExecOptions::default().without_crypto());
        oram.1
            .write_batch(&[(3, value(33))], &NoopPathLogger)
            .unwrap();
        oram.1.flush_writes(&NoopPathLogger).unwrap();
        let results = read(&mut oram, &[Some(3)], &NoopPathLogger);
        assert_eq!(results[0], Some(value(33)));
    }

    #[test]
    fn deferred_mode_buffers_until_flush() {
        let (_, mut engine) = new_oram(200, ExecOptions::parallel(2));
        // Enough accesses to trigger at least one eviction.
        let writes: Vec<(Key, Value)> = (0..20).map(|k| (k, value(k))).collect();
        engine.write_batch(&writes, &NoopPathLogger).unwrap();
        assert!(engine.stats().evictions > 0);
        assert!(
            engine.buffered_buckets() > 0,
            "evictions should be buffered"
        );
        let writes_before = engine.stats().physical_writes;
        assert_eq!(writes_before, 0, "no physical writes before flush");
        engine.flush_writes(&NoopPathLogger).unwrap();
        assert!(engine.stats().physical_writes > 0);
        assert_eq!(engine.buffered_buckets(), 0);
    }

    #[test]
    fn immediate_mode_never_buffers() {
        let (_, mut engine) = new_oram(200, ExecOptions::sequential());
        let writes: Vec<(Key, Value)> = (0..20).map(|k| (k, value(k))).collect();
        engine.write_batch(&writes, &NoopPathLogger).unwrap();
        assert_eq!(engine.buffered_buckets(), 0);
        assert!(engine.stats().physical_writes > 0);
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
            oram.1.write_batch(&writes, &NoopPathLogger).unwrap();
            let reads: Vec<Option<Key>> = (0..16).map(|_| Some(rng.below(256))).collect();
            read(&mut oram, &reads, &NoopPathLogger);
            oram.1.flush_writes(&NoopPathLogger).unwrap();
            let (stash, bound) = (oram.0.stash_len(), oram.0.config().max_stash);
            assert!(
                stash <= bound,
                "round {round}: stash {stash} exceeds bound {bound}"
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
        oram.1
            .write_batch(&[(1, value(1)), (2, value(2))], &logger)
            .unwrap();
        read(&mut oram, &[Some(1), Some(2)], &logger);
        let logged = *logger.count.lock();
        let issued = oram.0.stats().physical_reads as usize;
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
        let (_, mut engine) = new_oram(128, ExecOptions::default());
        let writes: Vec<(Key, Value)> = (0..32).map(|k| (k, value(k + 7))).collect();
        engine.write_batch(&writes, &NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();

        let checkpoint = engine.checkpoint_full().unwrap();
        let store = engine.store().clone();
        let keys = KeyMaterial::for_tests(1);
        drop(engine);

        let meta = OramMeta::decode_full(&checkpoint).unwrap();
        let mut recovered =
            RingOram::from_meta(meta, &keys, store, ExecOptions::default(), 123).split();
        for k in 0..32 {
            let result = read(&mut recovered, &[Some(k)], &NoopPathLogger);
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
        let (reader, mut engine) = RingOram::new(
            config,
            &keys,
            faulty.clone() as Arc<dyn UntrustedStore>,
            ExecOptions::parallel(2),
            31,
        )
        .unwrap()
        .split();
        let writes: Vec<(Key, Value)> = (0..32).map(|k| (k, value(k))).collect();
        engine.write_batch(&writes, &NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
        assert!(
            engine.checkpoint_full().is_ok(),
            "healthy client checkpoints"
        );

        // Pick a key the evictions placed in the tree (not a stash hit):
        // only a *physical* target can be lost in flight.
        let meta = engine.meta_snapshot();
        let victim = (0..32u64)
            .find(|&k| !meta.stash.contains(k))
            .expect("at least one key must have been evicted into the tree");
        faulty.set_plan(FaultPlan::fail_after(0));
        assert!(
            reader.read_batch(&[Some(victim)], &NoopPathLogger).is_err(),
            "the injected storage outage must surface"
        );
        faulty.set_plan(FaultPlan::none());
        assert!(
            engine.checkpoint_full().is_err(),
            "a checkpoint must not capture the lost in-flight block"
        );
        assert!(
            engine.checkpoint_delta(16).is_err(),
            "delta checkpoints must refuse too"
        );
    }

    #[test]
    fn replay_reads_touches_storage_without_failing() {
        let (_, mut engine) = new_oram(100, ExecOptions::default());
        engine
            .write_batch(&[(1, value(1))], &NoopPathLogger)
            .unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
        let reads = vec![SlotRead {
            bucket: 0,
            slot: 0,
            version: 1,
        }];
        let before = engine.store().stats().slot_reads;
        engine.replay_reads(&reads).unwrap();
        assert!(engine.store().stats().slot_reads > before);
    }
}
