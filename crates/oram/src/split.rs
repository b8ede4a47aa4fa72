//! The split ORAM client: a concurrent read plane and a write-back engine.
//!
//! A client that is one `&mut self` state machine cannot let epoch `N+1`'s
//! read batches overlap epoch `N`'s write-back: both serialize on the one
//! client lock, and the write-back's physical round-trips (the expensive
//! part, especially over a remote `obladi-stored` daemon) block every read
//! planned behind them.
//!
//! This module splits the client into two cooperating halves that share the
//! client state ([`OramMeta`], the buffered-bucket overlay, the eviction
//! schedule) behind one *fine-grained* lock:
//!
//! * [`OramReader`] — the **read plane**.  It serves `read_batch` by
//!   planning slot selections against the current metadata + buffered-bucket
//!   overlay (cheap, in-memory, under the lock), issuing the physical reads
//!   with the lock *released*, and ingesting the fetched blocks afterwards.
//!   It never rewrites a bucket and never writes storage.  It is `Clone`,
//!   and its clones share one admission: one read batch is in flight at a
//!   time, and a batch begun while another is in flight is refused.
//! * [`WritebackEngine`] — the **write-back engine**.  It owns dummiless
//!   `write_batch`es, the eviction/early-reshuffle schedule, `flush_writes`
//!   (the only moment bucket writes reach storage) and checkpoint
//!   production.  Its physical reads and writes also run outside the lock.
//!
//! Because every metadata mutation happens under the shared lock while all
//! physical I/O happens outside it, reader batches and an engine write-back
//! genuinely overlap in time.  Three protocols keep the interleavings safe:
//!
//! * **Limbo keys.**  When the engine plans a maintenance wave it marks the
//!   real blocks it is about to pull out of the tree as *in limbo*: they are
//!   physically in flight and findable nowhere.  A reader batch that
//!   requests a limbo key parks on the shared condvar until the key's path
//!   has been applied (at which point the key is in the stash, or placed in
//!   a buffered bucket, and the read resolves locally).
//! * **The committed snapshot, published between reader batches.**  The
//!   client state is *published* at the end of every flush into a copy
//!   checkpoints read (see the `committed` module), so nothing quiesces the
//!   read plane to checkpoint.  One rule orders the planes: a flush writes,
//!   and publishes, only while no reader batch is in flight.  It waits
//!   before it writes any bucket (a fetch planned before a bucket entered
//!   the buffered overlay could otherwise race that bucket's write and fail
//!   freshness verification), and again, under the lock it then installs
//!   and publishes in, before the publish (a batch's targets are between
//!   their buckets and the stash until it lands, and the published state
//!   must account for them).
//!   Batches planned during the writes never plan physical reads against
//!   buffered buckets — the overlay serves them — so they keep flowing.
//! * **Plan-time resolution.**  Reads whose target lives in the stash or in
//!   a buffered bucket capture the value at plan time, under the lock, so
//!   no concurrent eviction can whisk the block away between plan and
//!   ingest.
//!
//! The engine is driven by at most one thread (the proxy's epoch decider);
//! the read plane admits one batch at a time, like Obladi's batch manager,
//! which ships one padded read batch per Δ (the proxy runs its batches one
//! by one on its epoch executor, so it is never refused).  The parallelism
//! is inside a batch: over a store whose calls wait (a socket, a latency
//! model; [`UntrustedStore::waits`]) its physical fetches run on the worker
//! pool, each half with a pool of its own.  Over a store that waits for
//! nothing a hand-off to a worker buys no overlap, only a context switch
//! on a crowded host, so each half calls the store on its caller's
//! thread: the reader on the thread that runs the batch (the proxy's
//! epoch executor), the engine on the one that drives it (the decider, for
//! waves and the flush; the opening thread for `init_tree`).  The
//! caller keeps two rules, which the Obladi proxy keeps with its carry set
//! and its batch planner: the keys a batch reads are disjoint from the keys
//! written concurrently, and a batch carries each key once.
//!
//! # Write-back in waves
//!
//! The eviction schedule is deterministic and every rewritten bucket stays
//! buffered until the flush, so which slots eviction `k+1` reads from the
//! store does not depend on eviction `k`'s outcome.  A maintenance pass is
//! therefore one *wave* ([`WritebackEngine::run_pending_maintenance`]):
//!
//! 1. **Plan** (one lock hold): every owed eviction in schedule order, then
//!    the early reshuffles that are due and on none of those paths.  A
//!    bucket's `Z` reads are planned at the first path that reaches it,
//!    unless it is buffered — exactly where a one-path-at-a-time pass reads
//!    it, since that path's rewrite buffers it for every later one.
//! 2. **Fetch** (unlocked): one path-log record per path, then all of the
//!    wave's reads in one dispatch.
//! 3. **Apply** (one lock hold per path, in schedule order): the path's
//!    blocks enter the stash — from the wave's staging area, never earlier,
//!    so stash occupancy means what it did — or from the buffer where an
//!    earlier path rewrote the bucket; placement runs deepest-first; the
//!    path's limbo keys are released.
//!
//! A write batch owes its evictions too, and pays them the same way, after
//! the whole batch: its writes enter the stash, then one wave runs (§7
//! delays evictions to the end of a batch).  Every rewritten bucket waits
//! in the buffer for [`WritebackEngine::flush_writes`]; write-through mode
//! (`deferred_writes: false`) only flushes after every wave, and caps the
//! wave at one path, so each path reaches storage before the next is
//! planned.
//!
//! # Tree-top cache
//!
//! The top `cached_levels` levels of the tree ([`TreeGeometry::cached_levels`],
//! set by [`new_split`] / [`from_meta_split`]) are part of the stash: an
//! access reads one slot per *stored* level, an eviction or an early
//! reshuffle reads and rewrites stored buckets only, and `init_tree` and
//! `revert_storage_to_meta` never address a cached bucket.  A block whose
//! path leaves an eviction path above the first stored level is eligible
//! for none of the path's buckets, so it stays in the stash — where the
//! uncached client would have put it in a cached bucket.  The stash
//! therefore holds what the uncached client's stash and top levels hold
//! together, at most `Z * (2^cached_levels - 1)` more blocks, and the
//! store never learns anything about the cached levels.  The cached
//! buckets' metadata stays fresh and is checkpointed as before, so both
//! checkpoint layouts are unchanged.
//!
//! # Dummy slots
//!
//! The one `open_block` call, in `OramCore::fetch_slots`, opens only reads
//! flagged real (read targets, maintenance `valid_reals`), so a bucket image
//! seals only its real blocks: every other slot is keystream bytes
//! ([`Envelope::fill_dummy`]), or zeros in clear mode, and opening one fails.
//!
//! [`RingOram`](crate::client::RingOram) is the public constructor of the
//! pair.  A caller driving both halves from one thread runs
//! [`WritebackEngine::run_pending_maintenance`] after each read batch (the
//! `client` module docs).

use crate::block::Block;
use crate::bucket::BucketMeta;
use crate::client::{ExecOptions, OramStats, PathLogger, SlotRead};
use crate::committed::Committed;
use crate::metadata::{MetaDelta, OramMeta};
use crate::pool::ThreadPool;
use crate::tree::TreeGeometry;
use obladi_common::config::OramConfig;
use obladi_common::config::SLOT_LOCATION_BITS;
use obladi_common::error::{ObladiError, Result};
use obladi_common::rng::DetRng;
use obladi_common::types::{BucketId, Key, Leaf, Value, Version};
use obladi_crypto::envelope::PLAINTEXT_OFFSET;
use obladi_crypto::{Envelope, KeyMaterial};
use obladi_storage::UntrustedStore;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Test-only leak injection for the obliviousness auditor's mutation
/// check: when set, read batches *skip* the uniform dummy path that every
/// padding request must issue, so the number of physical reads per batch
/// follows real occupancy — the classic fixed-size-batch violation the
/// adversary-view auditor exists to catch.  Armed only by
/// `tests/trace_audit.rs`; CI fails if non-test code anywhere arms it.
static LEAK_SKIP_DUMMY_PADS: AtomicBool = AtomicBool::new(false);

/// Arms or disarms the dummy-pad leak (see [`LEAK_SKIP_DUMMY_PADS`]).
/// Process-global on purpose: the audit test flips it around a whole
/// workload cell, not per client.
pub fn set_leak_skip_dummy_pads(enabled: bool) {
    LEAK_SKIP_DUMMY_PADS.store(enabled, Ordering::SeqCst);
}

/// Produces the encrypted-checkpoint payloads durability logs at the end of
/// every epoch.  Implemented by the write-back engine, which reads the
/// committed snapshot, so a checkpoint can never capture a block that is
/// physically in flight and findable nowhere (a flush publishes only while
/// no reader batch is in flight).
///
/// Both methods fail when the read plane is *poisoned*: a read batch with
/// physical target blocks failed between plan and ingest, so a block that
/// was cleared from its bucket never reached the stash and the live
/// metadata no longer accounts for it.  Persisting that state would lose a
/// committed key durably; refusing makes the epoch fail instead, and the
/// proxy's fate-sharing crash + recovery rebuilds a clean client from the
/// last durable checkpoint.
pub trait CheckpointSource {
    /// Appends the complete client state (full checkpoint) to `out`, which
    /// may already hold bytes the caller reserved in front of it.
    fn checkpoint_full_into(&self, out: &mut Vec<u8>) -> Result<()>;
    /// Serialises the complete client state (full checkpoint).
    fn checkpoint_full(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.checkpoint_full_into(&mut out)?;
        Ok(out)
    }
    /// Produces a delta checkpoint: the changes since the last of either kind.
    fn checkpoint_delta(&mut self, max_position_delta: usize) -> Result<MetaDelta>;
}

/// All shared mutable client state, behind the one fine-grained lock.
struct SharedState {
    meta: OramMeta,
    /// Buckets logically rewritten this epoch, awaiting flush: real blocks
    /// placed in each (metadata lives in `meta.buckets`).  Shared with the
    /// flush's jobs, which seal them outside the lock.
    buffer: HashMap<BucketId, Arc<Vec<Block>>>,
    /// Buckets that ran out of valid dummy slots and need an early
    /// reshuffle before they can be accessed again.
    needs_reshuffle: HashSet<BucketId>,
    rng: DetRng,
    stats: OramStats,
    /// Keys whose blocks the engine is physically pulling towards the stash
    /// (planned into a maintenance wave, their path not yet applied).
    /// Readers wait for them.
    limbo: HashSet<Key>,
    /// Whether a reader batch has physical reads in flight (planned, not
    /// ingested); another batch is refused, and a flush waits, until it
    /// lands.
    in_flight: bool,
    /// The last published state (see the `committed` module).
    committed: Committed,
    /// Set when an operation failed after destructive metadata mutation:
    /// a read batch with physical targets failed between plan and ingest
    /// (or mid-plan, after an earlier request in the batch cleared its
    /// target), or an eviction / early reshuffle failed after pulling real
    /// blocks out of their buckets.  In every case a live value may no
    /// longer be accounted for anywhere in the metadata.  Checkpoints
    /// refuse to persist this state (see [`CheckpointSource`]) and every
    /// other operation fail-stops too (see [`check_poisoned`] — the *other*
    /// plane's threads must not keep planning against the corrupted
    /// metadata); only rebuilding the client — the proxy's crash + recovery
    /// path — clears it.
    poisoned: bool,
}

struct SharedOram {
    state: Mutex<SharedState>,
    cond: Condvar,
}

/// The immutable half of the client every handle shares.
#[derive(Clone)]
struct OramCore {
    config: OramConfig,
    geometry: TreeGeometry,
    store: Arc<dyn UntrustedStore>,
    envelope: Envelope,
    options: ExecOptions,
    shared: Arc<SharedOram>,
    /// `oram.split.exhausted_skips`, resolved once (a reader access bumps
    /// them under the shared lock): the total, then one per tree level.
    exhausted_skips: Arc<[obladi_obs::Counter]>,
    /// `oram.split.exhausted_target_reads`, likewise per level: targets read
    /// from a bucket with no valid dummy left, which a non-target access
    /// would have skipped.
    exhausted_target_reads: Arc<[obladi_obs::Counter]>,
    /// `oram.flush.slots_{sealed,filled}`, resolved once: per flush, the
    /// slots written as real blocks and as dummies.
    slots_sealed: obladi_obs::Histogram,
    slots_filled: obladi_obs::Histogram,
}

/// Where a planned access resolves its value.
enum Target {
    /// The block arrives in the physical read at this index.
    Physical(usize),
    /// Resolved at plan time (stash hit, buffered-bucket hit, or absent /
    /// padding) — no value will arrive from storage.
    Ready(Option<Value>),
}

/// Per-request plan produced by the metadata pass.
struct OpPlan {
    key: Option<Key>,
    new_leaf: Leaf,
    target: Target,
}

/// Builds a fresh split client whose top `cached_levels` levels live in
/// its stash (the module docs, "Tree-top cache"), and initialises the
/// stored levels on storage; `cached_levels` must stay below the leaf
/// level.  [`RingOram::new`](crate::client::RingOram) is this with no
/// cached level.
pub fn new_split(
    config: OramConfig,
    keys: &KeyMaterial,
    store: Arc<dyn UntrustedStore>,
    options: ExecOptions,
    seed: u64,
    cached_levels: u32,
) -> Result<(OramReader, WritebackEngine)> {
    config.validate()?;
    let mut rng = DetRng::new(seed ^ 0x0ead_cafe);
    let meta = OramMeta::new(config, &mut rng);
    let (reader, engine) = from_parts(meta, keys, store, options, rng, cached_levels)?;
    engine.init_tree()?;
    Ok((reader, engine))
}

/// Restores a split client from checkpointed metadata (crash recovery)
/// with the top `cached_levels` levels in its stash.  Fails, as
/// [`new_split`] does, if `cached_levels` reaches the leaf level, and if a
/// cached bucket's metadata holds a block: the client would never read it.
/// [`RingOram::from_meta`](crate::client::RingOram) is this with no
/// cached level.
pub fn from_meta_split(
    meta: OramMeta,
    keys: &KeyMaterial,
    store: Arc<dyn UntrustedStore>,
    options: ExecOptions,
    seed: u64,
    cached_levels: u32,
) -> Result<(OramReader, WritebackEngine)> {
    let rng = DetRng::new(seed ^ 0x5eed_0bad);
    from_parts(meta, keys, store, options, rng, cached_levels)
}

fn from_parts(
    meta: OramMeta,
    keys: &KeyMaterial,
    store: Arc<dyn UntrustedStore>,
    options: ExecOptions,
    rng: DetRng,
    cached_levels: u32,
) -> Result<(OramReader, WritebackEngine)> {
    let config = meta.config;
    if cached_levels >= config.levels {
        return Err(ObladiError::Config(format!(
            "{cached_levels} cached levels of a {}-level tree: the leaf level is always stored",
            config.levels
        )));
    }
    let geometry = TreeGeometry::new(&config).with_cached_levels(cached_levels);
    let stray = (0..geometry.first_stored_bucket())
        .find(|&bucket| meta.buckets[bucket as usize].num_real() > 0);
    if let Some(bucket) = stray {
        return Err(ObladiError::Config(format!(
            "bucket {bucket} holds a block, but the top {cached_levels} levels are cached"
        )));
    }
    let committed = Committed::new(&meta);
    let workers = pool_size(&options, store.as_ref());
    let per_level = |name: &str| -> Arc<[obladi_obs::Counter]> {
        let levels = (0..config.levels).map(|l| format!("{name}.level_{l}"));
        let names = std::iter::once(name.to_string()).chain(levels);
        names
            .map(|name| obladi_obs::global().counter(&name))
            .collect()
    };
    let core = OramCore {
        config,
        geometry,
        store,
        envelope: Envelope::new(keys),
        options,
        exhausted_skips: per_level("oram.split.exhausted_skips"),
        exhausted_target_reads: per_level("oram.split.exhausted_target_reads"),
        slots_sealed: obladi_obs::global().histogram("oram.flush.slots_sealed"),
        slots_filled: obladi_obs::global().histogram("oram.flush.slots_filled"),
        shared: Arc::new(SharedOram {
            state: Mutex::new(SharedState {
                meta,
                buffer: HashMap::new(),
                needs_reshuffle: HashSet::new(),
                rng,
                stats: OramStats::default(),
                limbo: HashSet::new(),
                in_flight: false,
                committed,
                poisoned: false,
            }),
            cond: Condvar::new(),
        }),
    };
    // A pool per half: the pipelined proxy runs them concurrently, and
    // flush I/O must not queue behind the read plane's fetches.
    let pool = || Arc::new(ThreadPool::new(workers));
    let reader = OramReader {
        core: core.clone(),
        pool: pool(),
    };
    let engine = WritebackEngine {
        core,
        pool: pool(),
        wave_cap: if options.deferred_writes {
            usize::MAX
        } else {
            1
        },
    };
    Ok((reader, engine))
}

// ----------------------------------------------------------------------
// Shared helpers (sealing, opening, fetching)
// ----------------------------------------------------------------------

/// Bytes one slot occupies on storage: a sealed envelope, or in
/// unencrypted mode `length || plaintext || zero padding`, so dummy and
/// real slots are the same length either way.
fn slot_len(encrypt: bool, capacity: usize) -> usize {
    if encrypt {
        Envelope::sealed_len(capacity)
    } else {
        CLEAR_LEN_PREFIX + capacity
    }
}

/// Length prefix of an unencrypted slot.
const CLEAR_LEN_PREFIX: usize = 4;

/// Writes one bucket image at `version`: `blocks[i]` goes to physical slot
/// `i`, `None` being a dummy — fresh keystream bytes, or zeros in clear
/// mode, since no dummy is ever opened (the module docs, "Dummy slots").
///
/// One allocation holds the whole bucket.  Each block's plaintext is
/// encoded straight into the place it is sealed in, and the returned
/// `Bytes` are windows onto that allocation.
pub(crate) fn seal_bucket(
    envelope: &Envelope,
    encrypt: bool,
    bucket: BucketId,
    version: Version,
    blocks: &[Option<&Block>],
    capacity: usize,
) -> Result<Vec<bytes::Bytes>> {
    let slot_len = slot_len(encrypt, capacity);
    let plaintext_at = if encrypt {
        PLAINTEXT_OFFSET
    } else {
        CLEAR_LEN_PREFIX
    };
    let mut image = Vec::with_capacity(blocks.len() * slot_len);
    for (slot, block) in blocks.iter().enumerate() {
        let slot_at = image.len();
        let Some(block) = block else {
            image.resize(slot_at + slot_len, 0);
            if encrypt {
                Envelope::fill_dummy(&mut image[slot_at..]);
            }
            continue;
        };
        image.resize(slot_at + plaintext_at, 0);
        block.encode_into(&mut image);
        let plaintext_len = image.len() - slot_at - plaintext_at;
        if plaintext_len > capacity {
            return Err(ObladiError::Codec(format!(
                "block of {plaintext_len} bytes exceeds slot capacity {capacity}"
            )));
        }
        image.resize(slot_at + slot_len, 0);
        let out = &mut image[slot_at..];
        if encrypt {
            let location = slot_location(bucket, slot as u32);
            envelope.seal_in_place(location, version, out, plaintext_len)?;
        } else {
            out[..CLEAR_LEN_PREFIX].copy_from_slice(&(plaintext_len as u32).to_le_bytes());
        }
    }
    let image = bytes::Bytes::from(image);
    Ok((0..blocks.len())
        .map(|slot| image.slice(slot * slot_len..(slot + 1) * slot_len))
        .collect())
}

/// Opens a slot payload fetched from storage.  The MAC is checked on the
/// fetched bytes as they lie; nothing is copied or decrypted before that.
fn open_block(
    envelope: &Envelope,
    encrypt: bool,
    read: SlotRead,
    bytes: &bytes::Bytes,
) -> Result<Block> {
    if encrypt {
        let location = slot_location(read.bucket, read.slot);
        let plain = envelope.open_bytes(location, read.version, bytes)?;
        Block::decode(&plain)
    } else {
        if bytes.len() < CLEAR_LEN_PREFIX {
            return Err(ObladiError::Codec("slot payload too short".into()));
        }
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        if bytes.len() < CLEAR_LEN_PREFIX + len {
            return Err(ObladiError::Codec("slot payload truncated".into()));
        }
        Block::decode(&bytes[CLEAR_LEN_PREFIX..CLEAR_LEN_PREFIX + len])
    }
}

/// Builds the full physical slot array of a bucket from its metadata and the
/// real blocks placed in it, laying the slots out in `physical` (a scratch
/// the caller reuses across buckets).  The two must name the same keys: a
/// real slot without its block would be written as a dummy, and the block
/// lost.
fn build_bucket_slots<'a>(
    envelope: &Envelope,
    encrypt: bool,
    bucket: BucketId,
    meta: &BucketMeta,
    blocks: &'a [Block],
    capacity: usize,
    physical: &mut Vec<Option<&'a Block>>,
) -> Result<Vec<bytes::Bytes>> {
    let mismatch = |what: String| ObladiError::Internal(format!("bucket {bucket}: {what}"));
    physical.clear();
    physical.resize(meta.perm.len(), None);
    for (logical, real) in meta.real.iter().enumerate() {
        if let Some((key, _)) = real {
            let block = blocks.iter().find(|block| block.key == *key);
            let block = block.ok_or_else(|| mismatch(format!("no block for key {key}")))?;
            physical[meta.perm[logical] as usize] = Some(block);
        }
    }
    if let Some(stray) = blocks
        .iter()
        .find(|block| meta.find_key(block.key).is_none())
    {
        return Err(mismatch(format!("key {} is in no slot", stray.key)));
    }
    seal_bucket(
        envelope,
        encrypt,
        bucket,
        meta.version + 1,
        physical,
        capacity,
    )
}

/// One worker's share of a bucket write-out (tree initialisation, flush):
/// seals its buckets, then hands the whole chunk to the store in one call.
/// One new version per bucket, in order; a sealing failure fails the chunk
/// before anything of it is written.
fn write_chunk(
    store: &dyn UntrustedStore,
    sealed: impl ExactSizeIterator<Item = Result<(BucketId, Vec<bytes::Bytes>)>>,
) -> Vec<Result<Version>> {
    let count = sealed.len();
    match sealed.collect::<Result<Vec<_>>>() {
        Ok(sealed) => store.write_buckets(sealed),
        Err(err) => vec![Err(err); count],
    }
}

/// Location tag binding a sealed slot to its bucket and physical position.
/// The slot takes the low [`SLOT_LOCATION_BITS`] bits, which is why
/// `OramConfig::validate` bounds `slots_per_bucket()`: a wider slot index
/// would alias the next bucket's slot 0.
fn slot_location(bucket: BucketId, slot: u32) -> u64 {
    debug_assert!((slot as u64) < (1 << SLOT_LOCATION_BITS));
    (bucket << SLOT_LOCATION_BITS) | slot as u64
}

impl OramCore {
    /// Fetches `reads` with no lock held: one dispatch, each worker handing
    /// its share to the store in one call.  Only reads flagged in `real`
    /// are opened; dummy reads are fetched (for obliviousness) but hold no
    /// block, and are discarded.  The caller accounts `stats.physical_reads`.
    fn fetch_slots(
        &self,
        pool: &ThreadPool,
        reads: Vec<SlotRead>,
        real: Vec<bool>,
    ) -> Result<Vec<Option<Block>>> {
        let envelope = self.envelope.clone();
        let encrypt = self.options.encrypt;
        let store = self.store.clone();
        let fetched = pool.map(reads.len(), move |range| {
            let wanted: Vec<(BucketId, u32)> = reads[range.clone()]
                .iter()
                .map(|read| (read.bucket, read.slot))
                .collect();
            let open = |(i, bytes): (usize, Result<bytes::Bytes>)| -> Result<Option<Block>> {
                let bytes = bytes?;
                if !real[i] {
                    return Ok(None);
                }
                open_block(&envelope, encrypt, reads[i], &bytes).map(Some)
            };
            range.zip(store.read_slots(&wanted)).map(open).collect()
        });
        fetched.into_iter().collect()
    }

    /// Common accessors used by both halves.
    fn stats(&self) -> OramStats {
        let state = self.shared.state.lock();
        let mut stats = state.stats;
        stats.stash_peak = state.meta.stash.peak() as u64;
        stats
    }

    fn stash_len(&self) -> usize {
        self.shared.state.lock().meta.stash.len()
    }

    fn buffered_buckets(&self) -> usize {
        self.shared.state.lock().buffer.len()
    }
}

// ----------------------------------------------------------------------
// Publishing
// ----------------------------------------------------------------------

/// Publishes the live client state as the committed one.  Runs at the end
/// of every flush (the decider's per-epoch commit point, including flushes
/// with an empty buffer) and at `init_tree`, never while a reader batch is
/// in flight: its physical targets are cleared from their buckets at plan
/// time and enter the stash only at ingest, so until it lands the live
/// state does not account for them.  Between batches the live state is the
/// committed one, so the publish simply copies it.
fn publish(state: &mut SharedState) {
    debug_assert!(!state.in_flight, "a publish beside a reader batch");
    state.committed.publish(&mut state.meta);
    obladi_obs::global()
        .counter("oram.split.generation_published")
        .inc();
}

/// Measures one *logical* limbo park of a reader batch: latches the first
/// actual block and yields exactly one sample per park, or none.
struct ParkMeter {
    started: Option<Instant>,
}

impl ParkMeter {
    fn new() -> Self {
        ParkMeter { started: None }
    }

    /// Called each time the batch is about to wait; only the first call
    /// (per meter) starts the clock — spurious wakeups re-enter here
    /// without restarting it.
    fn on_block(&mut self, now: Instant) {
        self.started.get_or_insert(now);
    }

    /// Total park duration, or `None` if the batch never blocked; resets
    /// the meter, so a later block starts a new park.
    fn finish(&mut self, now: Instant) -> Option<Duration> {
        self.started
            .take()
            .map(|s| now.saturating_duration_since(s))
    }
}

// ----------------------------------------------------------------------
// The read plane
// ----------------------------------------------------------------------

/// Worker-pool size for the given options over `store`: `threads` only
/// when a store call waits on something other than the calling CPU, so
/// that overlapping calls hides the waits; otherwise a pool of one, which
/// runs each half's work on its caller.
fn pool_size(options: &ExecOptions, store: &dyn UntrustedStore) -> usize {
    if options.parallel && store.waits() {
        options.threads
    } else {
        1
    }
}

/// The read plane of the split client (see the module docs).  Cloneable:
/// every clone shares the same client state, worker pool and admission —
/// one batch in flight across all of them.
#[derive(Clone)]
pub struct OramReader {
    core: OramCore,
    pool: Arc<ThreadPool>,
}

impl OramReader {
    /// The tree configuration.
    pub fn config(&self) -> &OramConfig {
        &self.core.config
    }

    /// The tree geometry helper.
    pub fn geometry(&self) -> TreeGeometry {
        self.core.geometry
    }

    /// Operation counters (shared with the engine).
    pub fn stats(&self) -> OramStats {
        self.core.stats()
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.core.stash_len()
    }

    /// Executes one read batch.  `requests[i] == None` denotes a padding
    /// (dummy) request that reads a uniformly random path.
    ///
    /// A batch begun while another is in flight, on any clone, fails with
    /// [`ObladiError::Internal`]; one that requests a limbo key waits for
    /// it.  The metadata pass runs under the shared lock; the physical
    /// reads run with it released, so engine write-backs overlap them in
    /// time.
    pub fn read_batch(
        &self,
        requests: &[Option<Key>],
        logger: &dyn PathLogger,
    ) -> Result<Vec<Option<Value>>> {
        // Phase 1 (locked): wait out limbo keys, then plan every request —
        // slot choices, position remaps and plan-time value capture are
        // atomic with respect to the engine.
        let (plans, physical) = {
            let mut state = self.core.shared.state.lock();
            let mut park = ParkMeter::new();
            loop {
                // Both re-checked after every wakeup: a concurrent failure
                // may poison the client while this batch is parked, and
                // planning against the corrupted metadata could double-read
                // consumed slots (see [`check_poisoned`]); a batch another
                // thread began meanwhile owns the admission.
                check_poisoned(&state)?;
                if state.in_flight {
                    return Err(ObladiError::Internal(
                        "a read batch is already in flight".into(),
                    ));
                }
                let blocked = requests
                    .iter()
                    .filter_map(|r| *r)
                    .any(|k| state.limbo.contains(&k));
                if !blocked {
                    if let Some(parked) = park.finish(Instant::now()) {
                        obladi_obs::global()
                            .histogram("oram.split.limbo_park_us")
                            .record_duration(parked);
                    }
                    break;
                }
                park.on_block(Instant::now());
                self.core.shared.cond.wait(&mut state);
            }
            let stored_levels = self.core.geometry.stored_levels().len();
            let mut physical: Vec<SlotRead> = Vec::with_capacity(requests.len() * stored_levels);
            let mut plans: Vec<OpPlan> = Vec::with_capacity(requests.len());
            for request in requests {
                if request.is_none() && LEAK_SKIP_DUMMY_PADS.load(Ordering::Relaxed) {
                    // Injected leak: the pad resolves without touching
                    // storage instead of reading a uniform random path.
                    plans.push(OpPlan {
                        key: None,
                        new_leaf: 0,
                        target: Target::Ready(None),
                    });
                    continue;
                }
                match plan_access(&self.core, &mut state, *request, &mut physical) {
                    Ok(plan) => plans.push(plan),
                    Err(err) => {
                        // Planning failed mid-batch (a buffered-hit stash
                        // insert overflowed).  The failing request loses
                        // nothing — the stash retains the block beyond its
                        // bound — but any *earlier* plan that chose a
                        // physical target has already cleared its block
                        // from the bucket metadata, and the fetch that
                        // would carry it to the stash will never be issued
                        // (the batch aborts before it is even registered
                        // in flight).  Poison the client so a concurrent
                        // engine checkpoint cannot persist the loss durably
                        // (see [`CheckpointSource`]).
                        if plans
                            .iter()
                            .any(|p| matches!(p.target, Target::Physical(_)))
                        {
                            state.poisoned = true;
                        }
                        return Err(err);
                    }
                }
            }
            state.stats.physical_reads += physical.len() as u64;
            // Register the batch *before* releasing the lock so a flush
            // cannot write or publish past it.
            state.in_flight = true;
            (plans, physical)
        };

        // Phase 2 (unlocked): log, then issue the physical reads.
        let mut real = vec![false; physical.len()];
        for plan in &plans {
            if let Target::Physical(idx) = plan.target {
                real[idx] = true;
            }
        }
        let has_targets = real.contains(&true);
        let fetched = (|| -> Result<Vec<Option<Block>>> {
            logger.log_reads(&physical)?;
            self.core.fetch_slots(&self.pool, physical, real)
        })();

        // Phase 3 (locked): deregister the batch on *every* path — a flush
        // must never wait on a fetch that has already failed, nor the next
        // batch be refused for it — then ingest the target blocks into the
        // stash, in the same hold, so a flush that wakes finds them there
        // (or the client poisoned).
        let mut state = self.core.shared.state.lock();
        state.in_flight = false;
        self.core.shared.cond.notify_all();
        let result = (|state: &mut SharedState| -> Result<Vec<Option<Value>>> {
            let mut raw = fetched?;
            let mut results = Vec::with_capacity(requests.len());
            for plan in plans {
                match plan.target {
                    Target::Ready(value) => results.push(value),
                    Target::Physical(idx) => {
                        let key = plan.key.expect("physical targets carry a key");
                        // Each physical index is targeted by exactly one
                        // plan, so the block can be moved out, not cloned.
                        let block = raw.get_mut(idx).and_then(|b| b.take()).ok_or_else(|| {
                            ObladiError::Internal("missing physical target block".into())
                        })?;
                        if block.key != key {
                            return Err(ObladiError::Integrity(format!(
                                "expected block for key {key}, found {}",
                                block.key
                            )));
                        }
                        // A concurrent dummiless write of the key would have
                        // left a newer version in the stash; never clobber it
                        // (the proxy's carry set rules this out, but the
                        // guard costs nothing and keeps the invariant local).
                        if !state.meta.stash.contains(key) {
                            state.meta.stash.insert(
                                key,
                                plan.new_leaf,
                                block.value.clone(),
                                self.core.config.max_stash,
                            )?;
                        }
                        results.push(Some(block.value));
                    }
                }
            }
            Ok(results)
        })(&mut state);
        if result.is_err() && has_targets {
            // A physical target block was cleared from its bucket at plan
            // time and never reached the stash: the live metadata no longer
            // accounts for it.  Poison the client so a concurrent engine
            // checkpoint cannot persist the loss durably before the
            // caller's fate-sharing crash lands (see [`CheckpointSource`]).
            state.poisoned = true;
        }
        result
    }
}

/// Plans one access under the shared lock: remaps the key, chooses exactly
/// one slot per non-buffered bucket on the path, and resolves stash /
/// buffered targets to their values immediately.
fn plan_access(
    core: &OramCore,
    state: &mut SharedState,
    request: Option<Key>,
    physical: &mut Vec<SlotRead>,
) -> Result<OpPlan> {
    state.stats.logical_reads += 1;
    state.meta.access_count += 1;

    let num_leaves = core.geometry.num_leaves();
    let (key, exists, old_leaf) = match request {
        Some(key) => match state.meta.position.get(key) {
            Some(leaf) => (Some(key), true, leaf),
            None => (Some(key), false, state.rng.below(num_leaves)),
        },
        None => (None, false, state.rng.below(num_leaves)),
    };
    let new_leaf = state.rng.below(num_leaves);

    // Remap immediately; the block itself moves to the stash at ingest (or
    // right here, for stash / buffered targets).
    if exists {
        if let Some(k) = key {
            state.meta.position.set(k, new_leaf);
            state.meta.stash.remap(k, new_leaf);
        }
    }

    let mut target = if exists {
        let k = key.expect("exists implies key");
        if state.meta.stash.contains(k) {
            Target::Ready(state.meta.stash.get(k).map(|(_, v)| v.clone()))
        } else {
            Target::Ready(None) // refined below if found in the tree
        }
    } else {
        Target::Ready(None)
    };
    let mut resolved = matches!(target, Target::Ready(Some(_)));

    for level in core.geometry.stored_levels() {
        let bucket = core.geometry.bucket_at(old_leaf, level);
        let level = level as usize;
        let is_buffered = state.buffer.contains_key(&bucket);
        let key_slot = match (key, exists) {
            (Some(k), true) => state.meta.buckets[bucket as usize].find_key(k),
            _ => None,
        };

        if is_buffered {
            // Served locally from the buffered bucket; no physical read.
            state.stats.buffered_reads += 1;
            if let Some(logical) = key_slot {
                if !resolved {
                    // Extract the block *now*, under the lock: it leaves the
                    // buffered bucket and moves to the stash, exactly as if
                    // it had left the tree.
                    let k = key.expect("key_slot implies key");
                    state.meta.bucket_mut(bucket).clear_real(logical);
                    let value = state.buffer.get_mut(&bucket).and_then(|blocks| {
                        let blocks = Arc::make_mut(blocks);
                        blocks
                            .iter()
                            .position(|b| b.key == k)
                            .map(|pos| blocks.remove(pos).value)
                    });
                    if let Some(value) = value {
                        state.meta.stash.insert(
                            k,
                            new_leaf,
                            value.clone(),
                            core.config.max_stash,
                        )?;
                        target = Target::Ready(Some(value));
                    }
                    resolved = true;
                }
            }
            continue;
        }

        if let Some(logical) = key_slot {
            if !resolved {
                let meta = state.meta.bucket_mut(bucket);
                if meta.valid_dummies().next().is_none() {
                    // Residual 3 of DESIGN.md's deviations from canonical
                    // Ring ORAM: this read shows the access was real.
                    core.exhausted_target_reads[0].inc();
                    core.exhausted_target_reads[1 + level].inc();
                }
                let slot = meta.mark_read(logical);
                meta.clear_real(logical);
                let version = meta.version;
                physical.push(SlotRead {
                    bucket,
                    slot,
                    version,
                });
                target = Target::Physical(physical.len() - 1);
                resolved = true;
                if state.meta.buckets[bucket as usize].needs_early_reshuffle() {
                    state.needs_reshuffle.insert(bucket);
                }
                continue;
            }
        }

        // Dummy read from this bucket.
        match state.meta.buckets[bucket as usize].pick_valid_dummy(&mut state.rng) {
            Some(logical) => {
                let meta = state.meta.bucket_mut(bucket);
                let slot = meta.mark_read(logical);
                let version = meta.version;
                physical.push(SlotRead {
                    bucket,
                    slot,
                    version,
                });
                if state.meta.buckets[bucket as usize].needs_early_reshuffle() {
                    state.needs_reshuffle.insert(bucket);
                }
            }
            None => {
                // The bucket has no valid dummies left; it will be
                // reshuffled during the engine's next maintenance pass.
                // Skipping the physical read here is the recovery action
                // canonical Ring ORAM avoids by reshuffling earlier.
                state.needs_reshuffle.insert(bucket);
                core.exhausted_skips[0].inc();
                core.exhausted_skips[1 + level].inc();
            }
        }
    }

    Ok(OpPlan {
        key,
        new_leaf,
        target,
    })
}

// ----------------------------------------------------------------------
// The write-back engine
// ----------------------------------------------------------------------

/// The background write-back engine of the split client (see the module
/// docs): dummiless writes, evictions, early reshuffles, flush, checkpoint
/// production and recovery support.
pub struct WritebackEngine {
    core: OramCore,
    pool: Arc<ThreadPool>,
    /// Most units one wave may hold: everything owed, except that
    /// write-through mode (`ExecOptions::sequential()`) flushes each path
    /// before it plans the next, as canonical Ring ORAM does — a wave of
    /// one.
    wave_cap: usize,
}

impl WritebackEngine {
    /// The tree configuration.
    pub fn config(&self) -> &OramConfig {
        &self.core.config
    }

    /// The tree geometry helper.
    pub fn geometry(&self) -> TreeGeometry {
        self.core.geometry
    }

    /// Operation counters (shared with the reader).
    pub fn stats(&self) -> OramStats {
        self.core.stats()
    }

    /// Number of buckets currently buffered locally (awaiting flush).
    pub fn buffered_buckets(&self) -> usize {
        self.core.buffered_buckets()
    }

    /// Access to the underlying store.
    pub fn store(&self) -> &Arc<dyn UntrustedStore> {
        &self.core.store
    }

    /// A snapshot of the *live* client metadata (tests and diagnostics);
    /// checkpoints describe [`WritebackEngine::committed_meta`] instead.
    pub fn meta_snapshot(&self) -> OramMeta {
        self.core.shared.state.lock().meta.clone()
    }

    /// The committed client metadata — what a full checkpoint taken now
    /// would encode (tests and diagnostics).
    pub fn committed_meta(&self) -> OramMeta {
        OramMeta::clone(&self.core.shared.state.lock().committed.meta())
    }

    // ------------------------------------------------------------------
    // Initialisation
    // ------------------------------------------------------------------

    fn init_tree(&self) -> Result<()> {
        // The tree is written unconditionally: a freshly constructed client
        // has fresh permutations and an empty position map, so any blocks a
        // previous client left on this store are unreadable garbage to it.
        let slots_per_bucket = self.core.config.slots_per_bucket() as usize;
        let capacity = Block::padded_capacity(self.core.config.block_size);
        let encrypt = self.core.options.encrypt;
        let envelope = self.core.envelope.clone();
        let fast = self.core.options.fast_init;

        let buckets: Vec<BucketId> = self.core.geometry.stored_buckets().collect();
        let store = self.core.store.clone();
        let results = self.pool.map(buckets.len(), move |range| {
            let seal = |index: usize| {
                let bucket = buckets[index];
                let slots: Vec<bytes::Bytes> = if fast {
                    let sealed = seal_bucket(&envelope, encrypt, bucket, 1, &[None], capacity)?;
                    vec![sealed[0].clone(); slots_per_bucket]
                } else {
                    let dummies = vec![None; slots_per_bucket];
                    seal_bucket(&envelope, encrypt, bucket, 1, &dummies, capacity)?
                };
                Ok((bucket, slots))
            };
            write_chunk(store.as_ref(), range.map(seal))
        });
        let mut state = self.core.shared.state.lock();
        for (bucket, version) in self.core.geometry.stored_buckets().zip(results) {
            state.meta.bucket_mut(bucket).version = version?;
        }
        // The initialised tree is the first state worth checkpointing.
        publish(&mut state);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Applies a write batch using dummiless writes (§6.3): the new version
    /// of each object goes directly to the stash; no physical reads are
    /// issued, but the eviction schedule still advances.
    pub fn write_batch(&mut self, writes: &[(Key, Value)], logger: &dyn PathLogger) -> Result<()> {
        self.write_batch_padded(writes, writes.len(), logger)
    }

    /// Like [`WritebackEngine::write_batch`], but pads the batch to
    /// `padded_to` logical writes so the eviction schedule is independent of
    /// how many real writes the epoch produced (§6.2).
    ///
    /// Every write enters the stash before the evictions the batch owes run,
    /// as one wave after the whole batch, so the store sees the same
    /// dispatches whatever the batch carried.  The stash must hold a batch's
    /// real writes beside what it already holds: the proxy's stash floor
    /// reserves a write batch, and recovery replays at most one epoch's
    /// committed writes.
    pub fn write_batch_padded(
        &mut self,
        writes: &[(Key, Value)],
        padded_to: usize,
        logger: &dyn PathLogger,
    ) -> Result<()> {
        // Validate every value first so a single oversized value cannot
        // leave the batch half-applied.
        for (key, value) in writes {
            if value.len() > self.core.config.block_size {
                return Err(ObladiError::Codec(format!(
                    "value for key {key} of {} bytes exceeds block size {}",
                    value.len(),
                    self.core.config.block_size
                )));
            }
        }
        {
            let mut state = self.core.shared.state.lock();
            check_poisoned(&state)?;
            for (key, value) in writes {
                dummiless_write(&self.core, &mut state, *key, value.clone())?;
            }
            // Padded (dummy) writes contribute to the access count only.
            let padding = padded_to.saturating_sub(writes.len()) as u64;
            state.meta.access_count += padding;
            state.stats.logical_writes += padding;
        }
        self.run_pending_maintenance(logger)?;
        if !self.core.options.deferred_writes {
            self.flush_writes(logger)?;
        }
        Ok(())
    }

    /// Seals and writes every buffered bucket back to storage (one write per
    /// bucket — the last version wins), clears the buffer, and publishes the
    /// resulting state.
    ///
    /// Writes, and publishes, only while no reader batch is in flight: it
    /// waits the in-flight batch out before it writes any bucket, and again
    /// before it installs the new versions and publishes.  The writes run
    /// with the shared lock released; batches planned meanwhile read no
    /// buffered bucket, and buckets leave the buffered overlay only after
    /// their write has landed, so they stay consistent (see the module
    /// docs).
    pub fn flush_writes(&mut self, _logger: &dyn PathLogger) -> Result<()> {
        type Job = (BucketId, Arc<BucketMeta>, Arc<Vec<Block>>);
        let jobs: Vec<Job> = {
            let mut state = self.core.shared.state.lock();
            if state.buffer.is_empty() {
                // Nothing to write, but the epoch still commits: publish,
                // so checkpoints capture the current state.
                self.wait_for_reader_batch(&mut state, "oram.split.publish_wait_us")?;
                publish(&mut state);
                return Ok(());
            }
            self.wait_for_reader_batch(&mut state, "oram.split.fence_drain_us")?;
            let mut jobs: Vec<Job> = (state.buffer.iter())
                .map(|(&bucket, blocks)| {
                    let meta = state.meta.buckets[bucket as usize].clone();
                    (bucket, meta, blocks.clone())
                })
                .collect();
            jobs.sort_by_key(|(b, _, _)| *b);
            jobs
        };
        let sealed: usize = jobs.iter().map(|(_, _, blocks)| blocks.len()).sum();
        let slots_per_bucket = self.core.config.slots_per_bucket() as usize;
        let slots = jobs.len() * slots_per_bucket;
        self.core.slots_sealed.record(sealed as u64);
        self.core
            .slots_filled
            .record(slots.saturating_sub(sealed) as u64);

        let capacity = Block::padded_capacity(self.core.config.block_size);
        let encrypt = self.core.options.encrypt;
        let envelope = self.core.envelope.clone();
        let store = self.core.store.clone();
        let flushed: Vec<BucketId> = jobs.iter().map(|(bucket, _, _)| *bucket).collect();
        let results = self.pool.map(jobs.len(), move |range| {
            let mut physical = Vec::with_capacity(slots_per_bucket);
            let sealed = jobs[range].iter().map(|(bucket, meta, blocks)| {
                let slots = build_bucket_slots(
                    &envelope,
                    encrypt,
                    *bucket,
                    meta,
                    blocks,
                    capacity,
                    &mut physical,
                );
                Ok((*bucket, slots?))
            });
            write_chunk(store.as_ref(), sealed)
        });

        let mut state = self.core.shared.state.lock();
        self.wait_for_reader_batch(&mut state, "oram.split.publish_wait_us")?;
        for (bucket, version) in flushed.into_iter().zip(results) {
            let version = version?;
            // The version install is a metadata mutation like any other:
            // until the publish below the committed state must keep pointing
            // at the bucket's *old* storage version (shadow paging reverts
            // to it on recovery).
            state.meta.bucket_mut(bucket).version = version;
            state.buffer.remove(&bucket);
            state.stats.physical_writes += 1;
        }
        publish(&mut state);
        Ok(())
    }

    /// Waits until no reader batch is in flight, checking the poison flag on
    /// every wakeup (a failed batch poisons the client as it lands), and
    /// records the wait in the histogram `metric`.  Returns with the lock
    /// held: nothing plans another batch before the caller drops it.
    fn wait_for_reader_batch(
        &self,
        state: &mut parking_lot::MutexGuard<'_, SharedState>,
        metric: &str,
    ) -> Result<()> {
        let started = Instant::now();
        loop {
            check_poisoned(state)?;
            if !state.in_flight {
                break;
            }
            self.core.shared.cond.wait(state);
        }
        obladi_obs::global()
            .histogram(metric)
            .record_duration(started.elapsed());
        Ok(())
    }

    // ------------------------------------------------------------------
    // Evictions, early reshuffles: the maintenance wave
    // ------------------------------------------------------------------

    /// Runs every eviction and early reshuffle that has come due, as one
    /// wave (see the module docs), and in write-through mode flushes each
    /// wave as soon as it is applied.  The proxy's decider runs it once per
    /// epoch, at the end of its write batch; a caller driving both halves
    /// from one thread, after every read batch too.
    pub fn run_pending_maintenance(&mut self, logger: &dyn PathLogger) -> Result<()> {
        while let Some(wave) = self.plan_wave()? {
            let record = |name, value| obladi_obs::global().histogram(name).record(value);
            record("oram.split.wave_paths", wave.units.len() as u64);
            record("oram.split.wave_reads", wave.reads.len() as u64);

            // ----- Fetch (lock released): one path-log record per unit,
            // each before any of its reads, then every read at once -----
            let Wave {
                units,
                reads,
                real,
                limbo,
                ..
            } = wave;
            let fetch_started = Instant::now();
            let fetched = (|| -> Result<Vec<Option<Block>>> {
                for unit in &units {
                    logger.log_reads(&reads[unit.reads.clone()])?;
                }
                self.core.fetch_slots(&self.pool, reads, real)
            })();
            let fetch_us = fetch_started.elapsed().as_micros() as u64;
            record("oram.split.wave_fetch_us", fetch_us);

            // ----- Apply (one lock hold per unit, in schedule order) -----
            let mut staged = match fetched {
                Ok(blocks) => Staged {
                    blocks,
                    limbo,
                    ..Staged::default()
                },
                Err(err) => {
                    self.abandon_wave(&mut self.core.shared.state.lock());
                    return Err(err);
                }
            };
            let mut longest_hold = Duration::ZERO;
            for unit in &units {
                let mut state = self.core.shared.state.lock();
                let hold_started = Instant::now();
                if let Err(err) = apply_unit(&self.core, &mut state, unit, &mut staged) {
                    self.abandon_wave(&mut state);
                    return Err(err);
                }
                self.core.shared.cond.notify_all();
                drop(state);
                longest_hold = longest_hold.max(hold_started.elapsed());
            }
            record("oram.split.apply_hold_us", longest_hold.as_micros() as u64);
            if !self.core.options.deferred_writes {
                self.flush_writes(logger)?;
            }
        }
        Ok(())
    }

    /// Test seam: caps a wave at `paths` units; `1` is the one-path-at-a-time
    /// schedule the differential tests and `maintenance/*` micro-benchmarks
    /// compare the wave against.
    #[doc(hidden)]
    pub fn cap_wave_for_tests(&mut self, paths: usize) {
        self.wave_cap = paths.max(1);
    }

    /// Plans the next wave under one hold of the shared lock: every owed
    /// eviction in schedule order, then the early reshuffles that are due
    /// and that no eviction of the wave subsumes.  `None` when nothing is
    /// owed.
    fn plan_wave(&self) -> Result<Option<Wave>> {
        let mut guard = self.core.shared.state.lock();
        let state = &mut *guard;
        check_poisoned(state)?;
        let geometry = self.core.geometry;

        // Evictions owed: one per `A` logical accesses.
        let owed = state.meta.access_count / self.core.config.a as u64;
        let first = state.meta.evict_count;
        let evictions = first..owed.min(first.saturating_add(self.wave_cap as u64));
        // Early reshuffles for exhausted buckets.
        let mut due: Vec<BucketId> = state.needs_reshuffle.iter().copied().collect();
        if evictions.is_empty() && due.is_empty() {
            return Ok(None);
        }
        let units = evictions.end - evictions.start + due.len() as u64;
        let mut wave = Wave::with_capacity(units as usize, geometry, self.core.config.z);
        for g in evictions {
            let unit = WaveUnit::new(geometry.evict_target(g), geometry.stored_levels(), true);
            wave.plan(state, geometry, unit);
        }

        due.sort_unstable();
        for bucket in due {
            if wave.units.len() >= self.wave_cap {
                break;
            }
            state.needs_reshuffle.remove(&bucket);
            // A bucket an eviction rewrites — in this wave, or earlier in
            // the epoch (it is buffered) — no longer needs it.
            if !wave.reached.contains(&bucket)
                && !state.buffer.contains_key(&bucket)
                && state.meta.buckets[bucket as usize].needs_early_reshuffle()
            {
                let leaf = geometry.subtree_leaves(bucket).start;
                let level = geometry.level_of(bucket);
                let unit = WaveUnit::new(leaf, level..level + 1, false);
                wave.plan(state, geometry, unit);
            }
        }

        if wave.units.is_empty() {
            return Ok(None);
        }
        // The real blocks are now physically in flight towards the staging
        // area and findable nowhere; readers must wait for them.
        state.limbo.extend(&wave.limbo);
        state.stats.physical_reads += wave.reads.len() as u64;
        Ok(Some(wave))
    }

    /// A wave failed after its plan: real blocks left their buckets (their
    /// slots consumed) or the stash for a rewrite that never landed.  Poison,
    /// so checkpoints refuse this state on their own whatever the caller
    /// does next, and wake readers parked on the wave's limbo keys to it.
    fn abandon_wave(&self, state: &mut SharedState) {
        state.poisoned = true;
        state.limbo.clear();
        self.core.shared.cond.notify_all();
    }

    // ------------------------------------------------------------------
    // Recovery support
    // ------------------------------------------------------------------

    /// Re-issues a previously logged set of physical reads, discarding the
    /// results (recovery replays the aborted epoch's access pattern, §8).
    pub fn replay_reads(&mut self, reads: &[SlotRead]) -> Result<()> {
        let store = self.core.store.clone();
        let wanted: Vec<(BucketId, u32)> = reads.iter().map(|r| (r.bucket, r.slot)).collect();
        self.pool.map(wanted.len(), move |range| {
            let replayed = store.read_slots(&wanted[range]);
            replayed.into_iter().map(drop).collect()
        });
        self.core.shared.state.lock().stats.physical_reads += reads.len() as u64;
        Ok(())
    }

    /// Reverts every stored bucket to the version recorded in the client
    /// metadata (shadow paging, §8).  A stored bucket the metadata has no
    /// version for was never written: the checkpointed client cached its
    /// level, so the cache depth shrank since, and the rebuild is refused.
    pub fn revert_storage_to_meta(&self) -> Result<()> {
        let versions: Vec<(BucketId, Version)> = {
            let state = self.core.shared.state.lock();
            self.core
                .geometry
                .stored_buckets()
                .map(|bucket| (bucket, state.meta.buckets[bucket as usize].version))
                .collect()
        };
        if let Some(&(bucket, _)) = versions.iter().find(|(_, version)| *version == 0) {
            return Err(ObladiError::Recovery(format!(
                "stored bucket {bucket} was never written: the checkpointed client kept \
                 its level in the stash, so the tree-top cache depth ({}) must not shrink \
                 across a recovery",
                self.core.geometry.cached_levels
            )));
        }
        for (bucket, expected) in versions {
            let current = self.core.store.bucket_version(bucket)?;
            if current != expected {
                self.core.store.revert_bucket(bucket, expected)?;
            }
        }
        Ok(())
    }
}

/// The error every operation on a poisoned client fails with.
fn poisoned_error() -> ObladiError {
    ObladiError::Integrity(
        "ORAM client is poisoned: a failed operation left a live value unaccounted for \
         in the metadata; reads, writes, maintenance and checkpoints are all refused \
         until the client is rebuilt (crash + recovery)"
            .into(),
    )
}

/// Fails if the client is poisoned (see [`SharedState::poisoned`]).  Every
/// operational surface — reads, writes, flush, maintenance, checkpoints —
/// calls this, so the refusal is self-contained: it does not depend on the
/// thread that observed the original failure aborting before another
/// thread touches the corrupted metadata (planning against it could
/// double-read consumed slots or fetch stale layouts).
fn check_poisoned(state: &SharedState) -> Result<()> {
    if state.poisoned {
        return Err(poisoned_error());
    }
    Ok(())
}

impl CheckpointSource for WritebackEngine {
    /// Serialises the committed state.  No quiescence: the state is read,
    /// and its window marked spent, in one hold of the lock concurrent
    /// reader batches plan under; encoding — the expensive part — runs with
    /// it released.  Refuses if a past fetch failed and left a block
    /// permanently unaccounted for (the poison flag; see
    /// [`CheckpointSource`]).
    fn checkpoint_full_into(&self, out: &mut Vec<u8>) -> Result<()> {
        let meta = {
            let mut guard = self.core.shared.state.lock();
            let state = &mut *guard;
            check_poisoned(state)?;
            state.committed.full_taken();
            state.committed.meta()
        };
        meta.encode_full_into(out);
        Ok(())
    }

    fn checkpoint_delta(&mut self, max_position_delta: usize) -> Result<MetaDelta> {
        let mut guard = self.core.shared.state.lock();
        let state = &mut *guard;
        check_poisoned(state)?;
        Ok(state.committed.take_delta(max_position_delta))
    }
}

/// A dummiless write (§6.3) under the shared lock; the caller has checked
/// the value's size.
fn dummiless_write(core: &OramCore, state: &mut SharedState, key: Key, value: Value) -> Result<()> {
    state.stats.logical_writes += 1;
    state.meta.access_count += 1;

    let new_leaf = state.rng.below(core.geometry.num_leaves());
    let old_leaf = state.meta.position.set(key, new_leaf);

    // Remove any stale copy so at most one copy of the key exists.
    if let Some(old_leaf) = old_leaf {
        if state.meta.stash.remove(key).is_none() {
            for level in core.geometry.stored_levels() {
                let bucket = core.geometry.bucket_at(old_leaf, level);
                if let Some(logical) = state.meta.buckets[bucket as usize].find_key(key) {
                    state.meta.bucket_mut(bucket).clear_real(logical);
                    if let Some(blocks) = state.buffer.get_mut(&bucket) {
                        Arc::make_mut(blocks).retain(|b| b.key != key);
                    }
                    break;
                }
            }
        }
    }

    state
        .meta
        .stash
        .insert(key, new_leaf, value, core.config.max_stash)?;
    Ok(())
}

/// One unit of a maintenance wave: a scheduled eviction path, or a single
/// bucket due an early reshuffle.
struct WaveUnit {
    /// The unit rewrites the buckets of `levels` on the path to `leaf`: an
    /// eviction's stored levels, or a reshuffled bucket's own level.
    leaf: Leaf,
    levels: std::ops::Range<u32>,
    /// A scheduled eviction (advances `evict_count`), not a reshuffle.
    eviction: bool,
    /// The unit's share of the wave's reads: one path-log record before the
    /// fetch, staged after it until the unit is applied.
    reads: std::ops::Range<usize>,
    /// The unit's share of the wave's limbo keys: the real blocks among
    /// those reads, in limbo until then.
    limbo: std::ops::Range<usize>,
}

impl WaveUnit {
    /// A unit not yet planned: it has no reads.
    fn new(leaf: Leaf, levels: std::ops::Range<u32>, eviction: bool) -> Self {
        WaveUnit {
            leaf,
            levels,
            eviction,
            reads: 0..0,
            limbo: 0..0,
        }
    }

    /// The buckets the unit rewrites, root first.
    fn buckets(&self, geometry: TreeGeometry) -> impl DoubleEndedIterator<Item = BucketId> {
        let leaf = self.leaf;
        (self.levels.clone()).map(move |level| geometry.bucket_at(leaf, level))
    }
}

/// A planned maintenance wave (see the module docs).
struct Wave {
    units: Vec<WaveUnit>,
    /// Every slot read of the wave, unit after unit.
    reads: Vec<SlotRead>,
    /// `real[i]`: read `i` fetches a real block; the rest pad with dummies.
    real: Vec<bool>,
    /// Keys of the real blocks read, unit after unit.
    limbo: Vec<Key>,
    /// Buckets some unit of the wave rewrites.
    reached: HashSet<BucketId>,
}

impl Wave {
    /// An empty wave with room for `units` units of a stored path each.
    fn with_capacity(units: usize, geometry: TreeGeometry, z: u32) -> Self {
        let buckets = units * geometry.stored_levels().len();
        let reads = buckets * z as usize;
        Wave {
            units: Vec::with_capacity(units),
            reads: Vec::with_capacity(reads),
            real: Vec::with_capacity(reads),
            limbo: Vec::with_capacity(reads),
            reached: HashSet::with_capacity(buckets),
        }
    }

    /// Plans one unit.  A bucket's reads are planned where a
    /// one-unit-at-a-time pass would issue them: at the first unit that
    /// reaches it, unless it is buffered.  Later units of the wave skip it
    /// for the same reason the sequential pass would — by then the earlier
    /// unit's rewrite has buffered it.
    fn plan(&mut self, state: &mut SharedState, geometry: TreeGeometry, mut unit: WaveUnit) {
        let (first_read, first_limbo) = (self.reads.len(), self.limbo.len());
        for bucket in unit.buckets(geometry) {
            if self.reached.insert(bucket) && !state.buffer.contains_key(&bucket) {
                plan_bucket_reads(state, bucket, self);
            }
        }
        unit.reads = first_read..self.reads.len();
        unit.limbo = first_limbo..self.limbo.len();
        self.units.push(unit);
    }
}

/// Plans a full-bucket maintenance read (every valid real slot plus dummy
/// padding to `Z` reads, as canonical Ring ORAM does) and marks the bucket
/// dirty.  The reals' keys join the wave's limbo keys — the caller
/// registers them so readers wait for the in-flight blocks.
fn plan_bucket_reads(state: &mut SharedState, bucket: BucketId, wave: &mut Wave) {
    let meta = state.meta.bucket_mut(bucket);
    let dummies_needed = meta.z().saturating_sub(meta.valid_reals().count());
    let mut plan_read = |meta: &mut BucketMeta, logical: usize, real: Option<Key>| {
        wave.reads.push(SlotRead {
            bucket,
            slot: meta.mark_read(logical),
            version: meta.version,
        });
        wave.real.push(real.is_some());
        wave.limbo.extend(real);
    };
    // Marking a slot read leaves the others' validity as it was, so this
    // visits exactly the valid reals the bucket held on entry.
    for logical in 0..meta.z() {
        if let (true, Some((key, _))) = (meta.valid[logical], meta.real[logical]) {
            plan_read(meta, logical, Some(key));
        }
    }
    for _ in 0..dummies_needed {
        match meta.pick_valid_dummy(&mut state.rng) {
            Some(logical) => plan_read(meta, logical, None),
            None => break,
        }
    }
}

/// A wave between its fetch and its last unit's apply.
#[derive(Default)]
struct Staged {
    /// The fetched blocks, by read: each unit takes its share.
    blocks: Vec<Option<Block>>,
    /// The wave's limbo keys: each unit releases its share.
    limbo: Vec<Key>,
    /// Keys of the blocks the unit being applied pulls off its path into
    /// the stash; sorted once all of them are in.
    pulled: Vec<Key>,
    /// A bucket's eligible stash blocks: `(not pulled, leaf, key)`.
    eligible: Vec<(bool, Leaf, Key)>,
}

/// Applies one unit of a wave under the shared lock — one critical section,
/// so no reader ever observes the gap between a block entering the stash
/// and its bucket being rewritten: the unit's blocks enter the stash (from
/// the staging area, or from the buffer where an earlier rewrite of this
/// epoch — an earlier unit of this wave included — holds the bucket), every
/// bucket is rewritten, deepest first, and the unit's keys leave limbo.
fn apply_unit(
    core: &OramCore,
    state: &mut SharedState,
    unit: &WaveUnit,
    staged: &mut Staged,
) -> Result<()> {
    check_poisoned(state)?;
    let pulled = &mut staged.pulled;
    pulled.clear();
    for bucket in unit.buckets(core.geometry) {
        if let Some(blocks) = state.buffer.remove(&bucket) {
            // The bucket's current contents live locally; pull them back
            // into the stash without physical reads.
            state.stats.buffered_reads += 1;
            for block in Arc::unwrap_or_clone(blocks) {
                ingest_evicted_block(core, state, block, pulled)?;
            }
            let meta = state.meta.bucket_mut(bucket);
            for logical in 0..meta.z() {
                meta.clear_real(logical);
            }
        }
    }
    // Each staged block is visited once; move it out, no clone.
    for block in staged.blocks[unit.reads.clone()]
        .iter_mut()
        .filter_map(Option::take)
    {
        ingest_evicted_block(core, state, block, pulled)?;
    }
    pulled.sort_unstable();
    for bucket in unit.buckets(core.geometry).rev() {
        place_eligible_blocks(core, state, bucket, staged);
    }
    if unit.eviction {
        state.meta.evict_count += 1;
        state.stats.evictions += 1;
    } else {
        state.stats.early_reshuffles += 1;
    }
    for key in &staged.limbo[unit.limbo.clone()] {
        state.limbo.remove(key);
    }
    Ok(())
}

/// Moves up to `Z` eligible stash blocks into `bucket` and installs the
/// rewritten bucket.  Shared by the eviction write phase and the
/// early-reshuffle re-place.
///
/// Blocks the unit `pulled` off its path go ahead of blocks already in the
/// stash, then by leaf and key.  Eligibility sets are nested prefixes of the path,
/// so the order decides *which* blocks stay behind, never how many; and as
/// a pulled block fits its old bucket, deepest-first re-places them all: a
/// unit adds no key to the stash (DESIGN.md, "Checkpoints").
fn place_eligible_blocks(
    core: &OramCore,
    state: &mut SharedState,
    bucket: BucketId,
    staged: &mut Staged,
) {
    let Staged {
        pulled, eligible, ..
    } = staged;
    let leaves = core.geometry.subtree_leaves(bucket);
    eligible.clear();
    let not_pulled = |key: Key| pulled.binary_search(&key).is_err();
    eligible.extend(
        (state.meta.stash.in_leaves(leaves)).map(|(leaf, key)| (not_pulled(key), leaf, key)),
    );
    // Keys are distinct, so the order is total.
    eligible.sort_unstable();
    eligible.truncate(core.config.z as usize);
    let mut placed: Vec<Block> = Vec::with_capacity(eligible.len());
    for &(_, _, key) in eligible.iter() {
        if let Some((leaf, value)) = state.meta.stash.remove(key) {
            placed.push(Block::real(key, leaf, value));
        }
    }
    rewrite_bucket(state, bucket, placed);
}

/// Installs fresh metadata for a logically rewritten bucket and buffers its
/// contents: they reach storage at the next [`WritebackEngine::flush_writes`],
/// in either write mode.
fn rewrite_bucket(state: &mut SharedState, bucket: BucketId, blocks: Vec<Block>) {
    let assignment = blocks.iter().map(|b| (b.key, b.leaf));
    (state.meta.bucket_mut(bucket)).rewrite(assignment, &mut state.rng);
    state.needs_reshuffle.remove(&bucket);
    state.buffer.insert(bucket, Arc::new(blocks));
}

/// Puts a block read during eviction back into the stash and notes its key
/// in `pulled`, discarding it if it is stale (superseded by a dummiless
/// write or remapped since).
fn ingest_evicted_block(
    core: &OramCore,
    state: &mut SharedState,
    block: Block,
    pulled: &mut Vec<Key>,
) -> Result<()> {
    if state.meta.stash.contains(block.key) {
        // A newer version already lives in the stash.
        return Ok(());
    }
    match state.meta.position.get(block.key) {
        Some(leaf) if leaf == block.leaf => {
            pulled.push(block.key);
            state
                .meta
                .stash
                .insert(block.key, block.leaf, block.value, core.config.max_stash)?;
            Ok(())
        }
        // Stale copy (remapped since) or deleted key: drop it.
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::NoopPathLogger;
    use obladi_common::config::OramConfig;
    use obladi_storage::{InMemoryStore, StoreRequest, StoreResponse, StoreService};
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    const KEY_A: Key = 7;
    const KEY_B: Key = 9;

    /// [`super::build_bucket_slots`] with a slot list of its own.
    fn build_bucket_slots(
        envelope: &Envelope,
        encrypt: bool,
        bucket: BucketId,
        meta: &BucketMeta,
        blocks: &[Block],
        capacity: usize,
    ) -> Result<Vec<bytes::Bytes>> {
        let slots = &mut Vec::new();
        super::build_bucket_slots(envelope, encrypt, bucket, meta, blocks, capacity, slots)
    }

    fn open(max_stash: usize) -> (OramReader, WritebackEngine) {
        let config = OramConfig::small_for_tests(64).with_max_stash(max_stash);
        let keys = KeyMaterial::for_tests(1);
        let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
        let options = ExecOptions {
            parallel: false,
            threads: 1,
            deferred_writes: true,
            encrypt: false,
            fast_init: false,
        };
        new_split(config, &keys, store, options, 1, 0).expect("client must open")
    }

    #[test]
    fn built_bucket_slots_have_one_length_and_open_only_where_they_were_sealed() {
        let config = OramConfig::small_for_tests(64);
        let capacity = Block::padded_capacity(config.block_size);
        let envelope = Envelope::new(&KeyMaterial::for_tests(1));
        let mut rng = DetRng::new(3);
        let mut meta = BucketMeta::fresh(config.z, config.s, &mut rng);
        meta.rewrite([(KEY_A, 1), (KEY_B, 2)], &mut rng);
        let blocks = [
            Block::real(KEY_A, 1, vec![0xAA; config.block_size]),
            Block::real(KEY_B, 2, Vec::new()),
        ];
        let bucket: BucketId = 5;
        let version = meta.version + 1;

        for encrypt in [true, false] {
            let slots =
                build_bucket_slots(&envelope, encrypt, bucket, &meta, &blocks, capacity).unwrap();
            assert_eq!(slots.len(), config.slots_per_bucket() as usize);
            let expected = if encrypt {
                Envelope::sealed_len(capacity)
            } else {
                4 + capacity
            };
            assert!(slots.iter().all(|slot| slot.len() == expected));

            let open = |slot: u32, bytes: &bytes::Bytes| {
                let read = SlotRead {
                    bucket,
                    slot,
                    version,
                };
                open_block(&envelope, encrypt, read, bytes)
            };
            let opened: Vec<Option<Block>> = (0..slots.len())
                .map(|slot| open(slot as u32, &slots[slot]).ok())
                .collect();
            for block in &blocks {
                let at = meta.perm[meta.find_key(block.key).unwrap()] as usize;
                assert_eq!(opened[at].as_ref(), Some(block), "at its permuted slot");
            }
            // Every other slot is a dummy, and nothing opens it.
            assert_eq!(opened.iter().flatten().count(), 2);
            if encrypt {
                // Bound to its physical slot: a sealed slot moved within
                // the bucket no longer verifies.
                assert!(matches!(open(1, &slots[0]), Err(ObladiError::Integrity(_))));
            }
        }

        let oversized = [Block::real(KEY_A, 1, vec![0; config.block_size + 1])];
        assert!(build_bucket_slots(&envelope, true, bucket, &meta, &oversized, capacity).is_err());
    }

    #[test]
    fn a_bucket_whose_metadata_and_blocks_disagree_fails_its_chunk_unwritten() {
        let config = OramConfig::small_for_tests(64);
        let capacity = Block::padded_capacity(config.block_size);
        let envelope = Envelope::new(&KeyMaterial::for_tests(1));
        let mut rng = DetRng::new(4);
        let mut meta = BucketMeta::fresh(config.z, config.s, &mut rng);
        meta.rewrite([(KEY_A, 1)], &mut rng);
        let block = |key: Key| Block::real(key, 1, vec![key as u8]);
        let build = |bucket: BucketId, blocks: &[Block]| {
            build_bucket_slots(&envelope, true, bucket, &meta, blocks, capacity)
        };
        assert!(build(3, &[block(KEY_A)]).is_ok());
        // The metadata names a key the buffer lacks (its slot would be
        // written as a dummy, and a later read of it fail), the buffer holds
        // a key the metadata does not name (the block would be lost), or both.
        for blocks in [vec![], vec![block(KEY_B)], vec![block(KEY_A), block(KEY_B)]] {
            let err = build(3, &blocks).expect_err("the image must be refused");
            assert!(matches!(err, ObladiError::Internal(_)), "{err:?}");
        }
        // Nothing of a chunk holding such a bucket reaches the store.
        let store = InMemoryStore::new();
        let chunk = [(2, vec![block(KEY_A)]), (3, vec![])];
        let sealed = chunk
            .iter()
            .map(|(bucket, blocks)| Ok((*bucket, build(*bucket, blocks)?)));
        assert!(write_chunk(&store, sealed).iter().all(Result::is_err));
        assert_eq!(store.bucket_version(2).unwrap(), 0, "bucket 2 unwritten");
    }

    /// Byte-value counts at every offset of a slot, over many slots.
    struct OffsetCounts {
        slots: u64,
        counts: Vec<[u64; 256]>,
    }

    impl OffsetCounts {
        fn new(slot_len: usize) -> Self {
            OffsetCounts {
                slots: 0,
                counts: vec![[0; 256]; slot_len],
            }
        }

        fn add(&mut self, slot: &[u8]) {
            self.slots += 1;
            for (counts, &byte) in self.counts.iter_mut().zip(slot) {
                counts[byte as usize] += 1;
            }
        }
    }

    /// Pearson's statistic over the byte values at one offset: of `a`
    /// against uniform, or — given `b` — of `a` and `b` against each other
    /// (homogeneity).  Either way 255 degrees of freedom.
    fn chi_squared(a: &OffsetCounts, b: Option<&OffsetCounts>, offset: usize) -> f64 {
        let mut stat = 0.0;
        for value in 0..256 {
            let observed = a.counts[offset][value] as f64;
            let Some(b) = b else {
                let expected = a.slots as f64 / 256.0;
                stat += (observed - expected).powi(2) / expected;
                continue;
            };
            let other = b.counts[offset][value] as f64;
            let total = (observed + other) / (a.slots + b.slots) as f64;
            for (observed, slots) in [(observed, a.slots), (other, b.slots)] {
                let expected = total * slots as f64;
                if expected > 0.0 {
                    stat += (observed - expected).powi(2) / expected;
                }
            }
        }
        stat
    }

    #[test]
    fn dummy_slots_are_indistinguishable_from_sealed_ones() {
        // 255 degrees of freedom: mean 255, sd 22.6.  420 is p ~ 4e-10 per
        // statistic, ~3e-7 over the 780 below; a zero-filled slot, or a
        // zeroed 12-byte nonce region, scores in the tens of thousands.
        const THRESHOLD: f64 = 420.0;
        const BUCKETS: u64 = 2_048;
        let config = OramConfig::small_for_tests(64).with_block_size(192);
        let capacity = Block::padded_capacity(config.block_size);
        let envelope = Envelope::new(&KeyMaterial::for_tests(5));
        let mut rng = DetRng::new(0xD0D0);
        let buckets: Vec<(BucketMeta, Vec<Block>)> = (0..BUCKETS)
            .map(|bucket| {
                // Full buckets and buckets with an empty real slot.
                let reals = config.z as u64 - bucket % 2;
                let blocks: Vec<Block> = (0..reals)
                    .map(|i| {
                        let value = (0..rng.below(193)).map(|_| rng.below(256) as u8).collect();
                        Block::real(bucket * 8 + i, rng.below(1 << 20), value)
                    })
                    .collect();
                let assignment: Vec<(Key, Leaf)> = blocks.iter().map(|b| (b.key, b.leaf)).collect();
                let mut meta = BucketMeta::fresh(config.z, config.s, &mut rng);
                meta.rewrite(assignment, &mut rng);
                (meta, blocks)
            })
            .collect();
        // Physical slots holding a real block, by the metadata alone.
        let is_real = |meta: &BucketMeta, slot: usize| {
            (0..meta.z())
                .any(|logical| meta.real[logical].is_some() && meta.perm[logical] as usize == slot)
        };

        let slot_len = Envelope::sealed_len(capacity);
        assert_eq!(slot_len, 260);
        let (mut real, mut dummy) = (OffsetCounts::new(slot_len), OffsetCounts::new(slot_len));
        for (bucket, (meta, blocks)) in buckets.iter().enumerate() {
            let slots =
                build_bucket_slots(&envelope, true, bucket as BucketId, meta, blocks, capacity)
                    .unwrap();
            for (slot, bytes) in slots.iter().enumerate() {
                assert_eq!(bytes.len(), slot_len);
                let class = if is_real(meta, slot) {
                    &mut real
                } else {
                    &mut dummy
                };
                class.add(bytes);
            }
        }
        assert_eq!(real.slots, BUCKETS * config.z as u64 - BUCKETS / 2);
        assert_eq!(dummy.slots, BUCKETS * config.s as u64 + BUCKETS / 2);
        for offset in 0..slot_len {
            for (class, against) in [(&real, None), (&dummy, None), (&real, Some(&dummy))] {
                let stat = chi_squared(class, against, offset);
                assert!(stat < THRESHOLD, "offset {offset}: chi-squared {stat:.0}");
            }
        }

        // Clear mode: a dummy is zeros, as long as a real slot.
        for (bucket, (meta, blocks)) in buckets.iter().take(64).enumerate() {
            let slots =
                build_bucket_slots(&envelope, false, bucket as BucketId, meta, blocks, capacity)
                    .unwrap();
            for (slot, bytes) in slots.iter().enumerate() {
                assert_eq!(bytes.len(), CLEAR_LEN_PREFIX + capacity);
                assert_eq!(
                    bytes.iter().all(|&b| b == 0),
                    !is_real(meta, slot),
                    "slot {slot}"
                );
            }
        }
    }

    /// Stages the exact mid-batch failure the poison flag guards against:
    /// `KEY_B` lives in a *buffered* root bucket with the stash already at
    /// its bound, so a read of `KEY_B` must overflow at plan time.  With
    /// `with_physical_target`, `KEY_A` additionally lives in the tree (the
    /// deepest bucket on leaf 0's path), so a batch that plans `KEY_A`
    /// first clears a physical target before `KEY_B`'s plan fails.
    fn stage_plan_overflow(engine: &WritebackEngine, with_physical_target: bool) {
        let geometry = engine.geometry();
        let max = engine.core.config.max_stash;
        let mut guard = engine.core.shared.state.lock();
        let state = &mut *guard;
        if with_physical_target {
            let bucket_a = *geometry.path(0).last().expect("path is never empty");
            state
                .meta
                .bucket_mut(bucket_a)
                .rewrite([(KEY_A, 0)], &mut state.rng);
            state.meta.position.set(KEY_A, 0);
        }
        let root = geometry.path(1)[0];
        state
            .meta
            .bucket_mut(root)
            .rewrite([(KEY_B, 1)], &mut state.rng);
        state.meta.position.set(KEY_B, 1);
        state
            .buffer
            .insert(root, Arc::new(vec![Block::real(KEY_B, 1, vec![0xBB])]));
        for i in 0..max {
            state
                .meta
                .stash
                .insert(1_000 + i as Key, 0, Vec::new(), max)
                .expect("filling the stash exactly to its bound cannot overflow");
        }
    }

    #[test]
    fn plan_failure_after_cleared_target_poisons_checkpoints() {
        let (reader, mut engine) = open(8);
        stage_plan_overflow(&engine, true);
        // KEY_A plans first and clears its block from the deepest bucket;
        // KEY_B's buffered hit then overflows the stash, aborting the batch
        // before KEY_A's fetch is ever issued.
        let err = reader
            .read_batch(&[Some(KEY_A), Some(KEY_B)], &NoopPathLogger)
            .expect_err("the buffered hit must overflow the stash");
        assert!(
            matches!(err, ObladiError::StashOverflow { .. }),
            "expected a stash overflow, got {err:?}"
        );
        // KEY_A is now cleared from its bucket and present in neither the
        // stash nor any fetch in flight: persisting this state would lose
        // it durably, so both checkpoint forms must refuse.
        let full = engine
            .checkpoint_full()
            .expect_err("checkpoint must refuse");
        assert!(full.to_string().contains("poisoned"), "got {full}");
        let delta = engine
            .checkpoint_delta(8)
            .expect_err("delta checkpoint must refuse");
        assert!(delta.to_string().contains("poisoned"), "got {delta}");
        // The refusal is self-contained: *every* operational surface
        // fail-stops, not just checkpoints — the other plane's thread must
        // not keep planning against the corrupted metadata.
        let read = reader
            .read_batch(&[Some(KEY_A)], &NoopPathLogger)
            .expect_err("reads must refuse a poisoned client");
        assert!(read.to_string().contains("poisoned"), "got {read}");
        let write = engine
            .write_batch(&[(KEY_A, vec![1])], &NoopPathLogger)
            .expect_err("writes must refuse a poisoned client");
        assert!(write.to_string().contains("poisoned"), "got {write}");
        let flush = engine
            .flush_writes(&NoopPathLogger)
            .expect_err("flush must refuse a poisoned client");
        assert!(flush.to_string().contains("poisoned"), "got {flush}");
    }

    #[test]
    fn plan_failure_without_cleared_target_stays_checkpointable() {
        let (reader, engine) = open(8);
        stage_plan_overflow(&engine, false);
        let err = reader
            .read_batch(&[Some(KEY_B)], &NoopPathLogger)
            .expect_err("the buffered hit must overflow the stash");
        assert!(
            matches!(err, ObladiError::StashOverflow { .. }),
            "expected a stash overflow, got {err:?}"
        );
        // Nothing was lost: the stash retains the block past its bound, so
        // the client state is consistent (if over-full) and checkpoints may
        // proceed.
        engine
            .checkpoint_full()
            .expect("no physical target was cleared, so the client is not poisoned");
    }

    // ------------------------------------------------------------------
    // Wave ≡ sequence, by counting
    // ------------------------------------------------------------------

    const WAVE_KEYS: u64 = 96;

    fn wave_options() -> ExecOptions {
        ExecOptions::parallel(2).without_crypto()
    }

    /// What every unit of a maintenance pass logs: the buckets it reads, in
    /// order, and how many reads.
    #[derive(Default)]
    struct UnitLog(Mutex<Vec<(Vec<BucketId>, usize)>>);

    impl PathLogger for UnitLog {
        fn log_reads(&self, reads: &[SlotRead]) -> Result<()> {
            let mut buckets: Vec<BucketId> = reads.iter().map(|r| r.bucket).collect();
            buckets.dedup();
            self.0.lock().push((buckets, reads.len()));
            Ok(())
        }
    }

    /// What a maintenance pass leaves behind whatever its wave size:
    /// placement sorts keys, so none of this depends on the RNG (which
    /// permutations and dummy choices do, and the two schedules consume it
    /// in different orders).
    fn rng_free_state(engine: &WritebackEngine) -> (Vec<Key>, Vec<Vec<Key>>, u64, usize) {
        let meta = engine.meta_snapshot();
        let mut stash: Vec<Key> = meta.stash.iter().map(|(key, _)| key).collect();
        stash.sort_unstable();
        let buckets = meta
            .buckets
            .iter()
            .map(|bucket| {
                let mut keys: Vec<Key> = bucket.real.iter().flatten().map(|(k, _)| *k).collect();
                keys.sort_unstable();
                keys
            })
            .collect();
        (stash, buckets, meta.evict_count, meta.stash.peak())
    }

    /// A loaded, flushed client, and its store.
    fn loaded_base(seed: u64) -> (OramReader, WritebackEngine, Arc<dyn UntrustedStore>) {
        let config = OramConfig::small_for_tests(WAVE_KEYS * 2);
        let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
        let keys = KeyMaterial::for_tests(1);
        let (reader, mut engine) =
            new_split(config, &keys, store.clone(), wave_options(), seed, 0).expect("client opens");
        let writes: Vec<(Key, Value)> = (0..WAVE_KEYS).map(|k| (k, vec![k as u8])).collect();
        engine.write_batch(&writes, &NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
        (reader, engine, store)
    }

    fn random_reads(rng: &mut DetRng, count: usize) -> Vec<Option<Key>> {
        let mut seen = HashSet::new();
        (0..count)
            .map(|_| Some(rng.below(WAVE_KEYS)).filter(|k| rng.below(4) > 0 && seen.insert(*k)))
            .collect()
    }

    /// A client restored from `meta` over `store` and driven — the same way
    /// for the same seed, and without a single store write — into owing
    /// maintenance: on two seeds of three an unflushed write batch leaves
    /// buffered buckets behind, then reader batches (which run no
    /// maintenance) make evictions come due and run the top of the tree out
    /// of dummies.
    fn owing_client(
        meta: &OramMeta,
        store: &Arc<dyn UntrustedStore>,
        seed: u64,
    ) -> (OramReader, WritebackEngine) {
        let keys = KeyMaterial::for_tests(1);
        let (reader, mut engine) =
            from_meta_split(meta.clone(), &keys, store.clone(), wave_options(), seed, 0).unwrap();
        let mut rng = DetRng::new(seed ^ 0x0a7e);
        if !seed.is_multiple_of(3) {
            let writes: Vec<(Key, Value)> = (0..8 + rng.below(16))
                .map(|_| (rng.below(WAVE_KEYS), vec![seed as u8]))
                .collect();
            engine.write_batch(&writes, &NoopPathLogger).unwrap();
        }
        for _ in 0..1 + rng.below(3) {
            let requests = random_reads(&mut rng, 8);
            reader.read_batch(&requests, &NoopPathLogger).unwrap();
        }
        (reader, engine)
    }

    #[test]
    fn a_wave_reads_and_leaves_what_one_path_at_a_time_does() {
        let (base_reader, mut base, store) = loaded_base(11);
        let mut rng = DetRng::new(77);
        let (mut multi_path, mut with_buffered, mut with_reshuffles) = (0, 0, 0);
        for seed in 0..240u64 {
            let meta = base.meta_snapshot();
            let (_, mut wave) = owing_client(&meta, &store, seed);
            let (_, mut sequence) = owing_client(&meta, &store, seed);
            assert_eq!(
                wave.meta_snapshot(),
                sequence.meta_snapshot(),
                "seed {seed}: the two clients must start from one state"
            );
            sequence.cap_wave_for_tests(1);
            let (wave_log, sequence_log) = (UnitLog::default(), UnitLog::default());
            let before = wave.stats();
            let buffered_before = wave.buffered_buckets();
            wave.run_pending_maintenance(&wave_log).unwrap();
            sequence.run_pending_maintenance(&sequence_log).unwrap();

            assert_eq!(
                *wave_log.0.lock(),
                *sequence_log.0.lock(),
                "seed {seed}: per unit, the same buckets and read count"
            );
            assert_eq!(
                rng_free_state(&wave),
                rng_free_state(&sequence),
                "seed {seed}: stash keys, bucket keys, evict_count, stash peak"
            );
            let (after, other) = (wave.stats(), sequence.stats());
            assert_eq!(after.evictions, other.evictions, "seed {seed}");
            assert_eq!(
                after.early_reshuffles, other.early_reshuffles,
                "seed {seed}"
            );
            assert_eq!(after.physical_reads, other.physical_reads, "seed {seed}");
            multi_path += (after.evictions - before.evictions >= 2) as u32;
            with_buffered += (buffered_before > 0) as u32;
            with_reshuffles += (after.early_reshuffles > before.early_reshuffles) as u32;

            // Move the base on, so the next seed starts somewhere else.
            let requests = random_reads(&mut rng, 6);
            base_reader.read_batch(&requests, &NoopPathLogger).unwrap();
            let key = rng.below(WAVE_KEYS);
            base.write_batch(&[(key, vec![seed as u8; 2])], &NoopPathLogger)
                .unwrap();
            base.flush_writes(&NoopPathLogger).unwrap();
        }
        assert!(multi_path >= 100, "waves of several paths: {multi_path}");
        assert!(with_buffered >= 100, "buffered states: {with_buffered}");
        assert!(
            with_reshuffles >= 50,
            "reshuffling passes: {with_reshuffles}"
        );
    }

    /// A store that counts the waves it is sent: a dispatch of slot reads
    /// behind fresh path-log records (see [`WaveLog`]) starts one, however
    /// many workers share it.
    struct WaveCountingStore {
        inner: Arc<dyn UntrustedStore>,
        logged: AtomicBool,
        waves: AtomicUsize,
    }

    impl StoreService for WaveCountingStore {
        fn call(&self, request: StoreRequest) -> Result<StoreResponse> {
            request.apply(self.inner.as_ref())
        }

        fn call_many(&self, requests: Vec<StoreRequest>) -> Vec<Result<StoreResponse>> {
            let reads = matches!(requests.first(), Some(StoreRequest::ReadSlot { .. }));
            if reads && self.logged.swap(false, Ordering::SeqCst) {
                self.waves.fetch_add(1, Ordering::SeqCst);
            }
            StoreRequest::apply_many(&requests, self.inner.as_ref())
        }
    }

    /// A [`UnitLog`] that also tells its [`WaveCountingStore`] that path-log
    /// records went out.
    struct WaveLog {
        units: UnitLog,
        store: Arc<WaveCountingStore>,
    }

    impl PathLogger for WaveLog {
        fn log_reads(&self, reads: &[SlotRead]) -> Result<()> {
            self.store.logged.store(true, Ordering::SeqCst);
            self.units.log_reads(reads)
        }
    }

    #[test]
    fn an_epoch_logs_as_many_path_records_with_no_real_write_as_with_a_full_batch() {
        const WRITE_BATCH: usize = 24;
        let (base_reader, mut base, store) = loaded_base(5);
        let mut rng = DetRng::new(3);
        for seed in 0..40u64 {
            let meta = base.meta_snapshot();
            // The epoch's path-log records, and the waves the store saw.
            let epoch_log = |writes: Vec<(Key, Value)>| {
                let counting = Arc::new(WaveCountingStore {
                    inner: store.clone(),
                    logged: AtomicBool::new(false),
                    waves: Default::default(),
                });
                let (_, mut engine) = owing_client(&meta, &(counting.clone() as _), seed);
                let log = WaveLog {
                    units: UnitLog::default(),
                    store: counting.clone(),
                };
                engine
                    .write_batch_padded(&writes, WRITE_BATCH, &log)
                    .unwrap();
                let waves = counting.waves.load(Ordering::SeqCst);
                (log.units.0.into_inner(), waves)
            };
            let batch = |first: Key| (first..first + WRITE_BATCH as u64).map(|k| (k, vec![0xEE]));
            let (idle, idle_waves) = epoch_log(Vec::new());
            assert!(!idle.is_empty(), "seed {seed}: the epoch owes maintenance");
            assert_eq!(idle_waves, 1, "seed {seed}: one wave pays what is owed");
            // New keys disturb no bucket: record for record the same log,
            // and the store sees the same dispatches.
            assert_eq!(
                (idle.clone(), idle_waves),
                epoch_log(batch(WAVE_KEYS).collect()),
                "seed {seed}"
            );
            // Overwrites may clear the last valid slot of an exhausted
            // bucket (one read fewer, the `exhausted_skips` residual); the
            // units — one `log_reads` call each — and the waves stay the
            // same.
            let (overwriting, overwriting_waves) = epoch_log(batch(seed % 64).collect());
            assert_eq!(
                idle.len(),
                overwriting.len(),
                "seed {seed}: units per epoch"
            );
            assert_eq!(
                idle_waves, overwriting_waves,
                "seed {seed}: waves per epoch"
            );
            let buckets = |log: &[(Vec<BucketId>, usize)]| -> usize {
                log.iter().map(|(buckets, _)| buckets.len()).sum()
            };
            assert!(buckets(&overwriting) <= buckets(&idle), "seed {seed}");

            let requests = random_reads(&mut rng, 6);
            base_reader.read_batch(&requests, &NoopPathLogger).unwrap();
            base.run_pending_maintenance(&NoopPathLogger).unwrap();
            base.flush_writes(&NoopPathLogger).unwrap();
        }
    }

    // ------------------------------------------------------------------
    // The stash between two checkpoints
    // ------------------------------------------------------------------

    /// `run_pending_maintenance`, asserting after every unit that it added
    /// no key to the stash.  Returns how many units found the stash occupied.
    fn maintenance_checking_units(engine: &mut WritebackEngine) -> usize {
        let mut over_a_stash = 0;
        while let Some(wave) = engine.plan_wave().unwrap() {
            let (units, reads, real) = (wave.units, wave.reads, wave.real);
            let blocks = engine.core.fetch_slots(&engine.pool, reads, real).unwrap();
            let limbo = wave.limbo;
            let mut staged = Staged {
                blocks,
                limbo,
                ..Staged::default()
            };
            for unit in &units {
                let mut state = engine.core.shared.state.lock();
                let before: HashSet<Key> = state.meta.stash.iter().map(|(key, _)| key).collect();
                apply_unit(&engine.core, &mut state, unit, &mut staged).unwrap();
                let added: Vec<Key> = (state.meta.stash.iter().map(|(key, _)| key))
                    .filter(|key| !before.contains(key))
                    .collect();
                assert!(added.is_empty(), "a unit left {added:?} in the stash");
                over_a_stash += usize::from(!before.is_empty());
            }
        }
        over_a_stash
    }

    /// `write_batch_padded`'s schedule over [`maintenance_checking_units`].
    fn write_checking_units(
        engine: &mut WritebackEngine,
        writes: &[(Key, Value)],
        padded_to: usize,
    ) -> usize {
        {
            let mut state = engine.core.shared.state.lock();
            for (key, value) in writes {
                dummiless_write(&engine.core, &mut state, *key, value.clone()).unwrap();
            }
            state.meta.access_count += (padded_to - writes.len()) as u64;
        }
        maintenance_checking_units(engine)
    }

    #[test]
    fn a_unit_adds_no_key_to_the_stash_and_a_window_adds_what_it_read_and_wrote() {
        const WRITE_BATCH: usize = 12;
        let (reader, mut engine, _store) = loaded_base(31);
        let mut rng = DetRng::new(0x57a5);
        let stash_of = |engine: &WritebackEngine| engine.meta_snapshot().stash;
        engine.checkpoint_full().unwrap();
        let mut checkpointed = stash_of(&engine);
        // What the window read and wrote for real, and what left the stash
        // in an earlier one.
        let (mut touched, mut real_ops) = (HashSet::new(), 0usize);
        let mut evicted: Vec<Key> = Vec::new();
        let (mut over_a_stash, mut buffered_hits, mut stash_overwrites) = (0, 0, 0);
        let (mut came_and_went, mut came_back_changed, mut largest) = (0, 0, 0);
        for epoch in 0..360u64 {
            let read = |count: usize, touched: &mut HashSet<Key>, rng: &mut DetRng| {
                let requests = random_reads(rng, count);
                touched.extend(requests.iter().flatten());
                reader.read_batch(&requests, &NoopPathLogger).unwrap();
                requests.iter().flatten().count()
            };
            for _ in 0..1 + rng.below(3) {
                real_ops += read(8, &mut touched, &mut rng);
            }
            // Fresh values for random keys, for one sitting in the stash and
            // for one an earlier window evicted (read back next epoch).
            let mut writes: HashMap<Key, Value> = (0..rng.below(WRITE_BATCH as u64 - 2))
                .map(|_| {
                    (
                        rng.below(WAVE_KEYS),
                        vec![epoch as u8; 1 + rng.below(30) as usize],
                    )
                })
                .collect();
            if let Some((key, _)) = stash_of(&engine).iter().next() {
                writes.insert(key, vec![0x55, epoch as u8]);
                stash_overwrites += 1;
            }
            if let Some(key) = evicted.pop() {
                writes.insert(key, vec![0x77, epoch as u8]);
            }
            let writes: Vec<(Key, Value)> = writes.into_iter().collect();
            touched.extend(writes.iter().map(|(key, _)| *key));
            real_ops += writes.len();
            over_a_stash += write_checking_units(&mut engine, &writes, WRITE_BATCH);
            // The next epoch's first batch lands before the flush, against
            // buffered buckets (depth 2), or between flush and checkpoint.
            let buffered_before = engine.stats().buffered_reads;
            if !epoch.is_multiple_of(3) {
                real_ops += read(8, &mut touched, &mut rng);
            }
            buffered_hits += usize::from(engine.stats().buffered_reads > buffered_before);
            engine.flush_writes(&NoopPathLogger).unwrap();
            let published = stash_of(&engine);
            let (mut next_touched, mut next_ops) = (HashSet::new(), 0);
            if epoch.is_multiple_of(4) {
                next_ops = read(8, &mut next_touched, &mut rng);
            }

            if epoch % 5 == 4 {
                engine.checkpoint_full().unwrap();
            } else {
                let delta = engine.checkpoint_delta(64).unwrap();
                assert_eq!(
                    (delta.stash_added.clone(), delta.stash_removed.clone()),
                    published.changes_since(&checkpointed),
                    "epoch {epoch}: against the last checkpoint of either kind"
                );
                let strangers: Vec<Key> = (delta.stash_added.iter().map(|b| b.key))
                    .filter(|key| !touched.contains(key))
                    .collect();
                assert!(strangers.is_empty(), "epoch {epoch}: {strangers:?} added");
                assert!(delta.stash_added.len() <= real_ops, "epoch {epoch}");
                largest = largest.max(delta.stash_added.len());
                came_back_changed += (delta.stash_added.iter())
                    .filter(|b| b.value.first() == Some(&0x77))
                    .count();
                evicted.extend(&delta.stash_removed);
            }
            came_and_went += (writes.iter())
                .filter(|(key, _)| !published.contains(*key) && !checkpointed.contains(*key))
                .count();
            checkpointed = published;
            (touched, real_ops) = (next_touched, next_ops);
        }
        assert!(over_a_stash >= 300, "units over a stash: {over_a_stash}");
        assert!(buffered_hits >= 100, "buffered reads: {buffered_hits}");
        assert!(stash_overwrites >= 100, "overwrites: {stash_overwrites}");
        assert!(came_and_went >= 300, "written and evicted: {came_and_went}");
        assert!(came_back_changed >= 20, "re-read: {came_back_changed}");
        assert!(largest >= 8, "largest change set: {largest}");
    }

    // ------------------------------------------------------------------
    // Faults inside a wave
    // ------------------------------------------------------------------

    /// Every key of a loaded base reads back from a client rebuilt over the
    /// base's last committed state, as recovery rebuilds it.
    fn assert_rebuilt_client_reads_everything(meta: OramMeta, store: Arc<dyn UntrustedStore>) {
        let keys = KeyMaterial::for_tests(1);
        let (reader, mut engine) =
            from_meta_split(meta, &keys, store, wave_options(), 9, 0).unwrap();
        engine.revert_storage_to_meta().unwrap();
        for key in 0..WAVE_KEYS {
            let read = reader.read_batch(&[Some(key)], &NoopPathLogger).unwrap();
            assert_eq!(
                read[0],
                Some(vec![key as u8]),
                "key {key} after the rebuild"
            );
            engine.run_pending_maintenance(&NoopPathLogger).unwrap();
            engine.flush_writes(&NoopPathLogger).unwrap();
        }
    }

    #[test]
    fn a_failed_slot_read_anywhere_in_a_wave_poisons_and_the_last_checkpoint_recovers() {
        use obladi_storage::{CrashOp, CrashPoint, FaultPlan, FaultyStore};
        let (_, base, store) = loaded_base(21);
        let meta = base.meta_snapshot();
        // The longest wave some owing client runs.
        let (wave_reads, seed) = (0..16u64)
            .map(|seed| {
                let healthy = UnitLog::default();
                let mut reference = owing_client(&meta, &store, seed).1;
                reference.run_pending_maintenance(&healthy).unwrap();
                let reads: usize = healthy.0.lock().iter().map(|(_, reads)| reads).sum();
                (reads, seed)
            })
            .max()
            .expect("sixteen seeds");
        assert!(wave_reads > 20, "a wave worth failing: {wave_reads} reads");
        // The first read of the wave (every path-log record of the wave is
        // out, nothing fetched), one in the middle, and the last.
        for nth in [1, wave_reads as u64 / 2, wave_reads as u64] {
            let faulty = Arc::new(FaultyStore::new(store.clone(), FaultPlan::none(), 5));
            let (reader, mut engine) =
                owing_client(&meta, &(faulty.clone() as Arc<dyn UntrustedStore>), seed);
            faulty.set_plan(FaultPlan::crash_at(CrashPoint {
                arm_on_log_kind: None,
                on: CrashOp::SlotRead,
                nth,
            }));
            let log = UnitLog::default();
            let err = engine.run_pending_maintenance(&log).unwrap_err();
            assert!(
                matches!(err, ObladiError::Storage(_)),
                "read {nth}: {err:?}"
            );
            assert!(faulty.has_tripped(), "read {nth}: the wave is that long");
            let logged: usize = log.0.lock().iter().map(|(_, reads)| reads).sum();
            assert_eq!(
                logged, wave_reads,
                "the whole wave is logged before its fetch"
            );
            // Poisoned: limbo is empty again (a parked reader wakes to the
            // refusal), and nothing persists or plans against this state.
            assert!(engine.core.shared.state.lock().limbo.is_empty());
            for refusal in [
                engine.checkpoint_full().unwrap_err(),
                engine.run_pending_maintenance(&log).unwrap_err(),
                reader.read_batch(&[Some(1)], &NoopPathLogger).unwrap_err(),
            ] {
                assert!(refusal.to_string().contains("poisoned"), "got {refusal}");
            }
        }
        assert_rebuilt_client_reads_everything(meta, store);
    }

    /// Logs the stash high-water mark at the start of every unit of a
    /// one-unit-at-a-time pass, i.e. once the unit before it is applied.
    struct PeakLog(OramReader, Mutex<Vec<u64>>);

    impl PathLogger for PeakLog {
        fn log_reads(&self, _reads: &[SlotRead]) -> Result<()> {
            self.1.lock().push(self.0.stats().stash_peak);
            Ok(())
        }
    }

    #[test]
    fn a_failure_between_two_paths_of_the_apply_keeps_the_earlier_ones_and_poisons() {
        // The apply does no I/O, so nothing a store does can fail it; a
        // stash one block too small does.  A one-unit-at-a-time pass tells
        // which unit first pushes the stash to a new high-water mark; a
        // bound one below that mark lets the units before it through and
        // fails that one — and the wave must do exactly the same.  The
        // owing client's write batch puts all its writes in the stash at
        // once, which usually sets a mark no later unit reaches: about one
        // seed in two hundred peaks after its first unit.
        let (_, base, store) = loaded_base(33);
        // Through the codec: a decoded stash forgets its old peak.
        let mut meta = OramMeta::decode_full(&base.meta_snapshot().encode_full()).unwrap();
        let staged = (0..1024u64).find_map(|seed| {
            let (reader, mut sequence) = owing_client(&meta, &store, seed);
            sequence.cap_wave_for_tests(1);
            let log = PeakLog(reader, Mutex::new(Vec::new()));
            sequence.run_pending_maintenance(&log).unwrap();
            let mut peaks = log.1.into_inner();
            peaks.push(sequence.stats().stash_peak);
            // `peaks[k + 1]` is the mark once unit `k` is applied.
            let failing = (1..peaks.len() - 1).find(|&k| peaks[k + 1] > peaks[k])?;
            Some((seed, failing, peaks[failing + 1] as usize - 1))
        });
        let (seed, failing, max_stash) = staged.expect("some seed peaks after its first unit");
        meta.config.max_stash = max_stash;

        let (reader, mut engine) = owing_client(&meta, &store, seed);
        let before = engine.stats();
        let log = UnitLog::default();
        let err = engine.run_pending_maintenance(&log).unwrap_err();
        assert!(matches!(err, ObladiError::StashOverflow { .. }), "{err:?}");
        let units = log.0.lock().len();
        assert!(units > failing, "one wave planned all {units} units");
        let after = engine.stats();
        let applied = (after.evictions - before.evictions)
            + (after.early_reshuffles - before.early_reshuffles);
        assert_eq!(applied, failing as u64, "the units before it stay applied");
        assert_eq!(
            engine.meta_snapshot().evict_count - meta.evict_count,
            after.evictions,
            "evict_count moves with each applied path, not with the wave"
        );
        // Poisoned, with the later units' limbo keys released: a reader
        // parked on one wakes to the refusal instead of waiting forever.
        assert!(engine.core.shared.state.lock().limbo.is_empty());
        for refusal in [
            engine.checkpoint_full().unwrap_err(),
            reader.read_batch(&[Some(2)], &NoopPathLogger).unwrap_err(),
        ] {
            assert!(refusal.to_string().contains("poisoned"), "got {refusal}");
        }
        meta.config.max_stash = base.config().max_stash;
        assert_rebuilt_client_reads_everything(meta, store);
    }

    #[test]
    fn park_meter_records_one_sample_per_logical_park() {
        // Instrumented clock: synthetic instants stand in for real waits.
        let t0 = Instant::now();
        let mut meter = ParkMeter::new();
        meter.on_block(t0);
        // Spurious condvar wakeups re-enter the wait loop; the clock must
        // not restart (the old code re-measured and double-counted here).
        meter.on_block(t0 + Duration::from_micros(50));
        meter.on_block(t0 + Duration::from_micros(120));
        assert_eq!(
            meter.finish(t0 + Duration::from_micros(200)),
            Some(Duration::from_micros(200)),
            "one sample spanning the whole logical park"
        );
        // Finishing spent the park: a second finish records nothing.
        assert_eq!(meter.finish(t0 + Duration::from_micros(300)), None);
    }

    #[test]
    fn park_meter_is_silent_when_the_batch_never_blocked() {
        let mut meter = ParkMeter::new();
        assert_eq!(
            meter.finish(Instant::now()),
            None,
            "unblocked batches must not record a park"
        );
    }

    /// Holds a read batch between its plan and its fetch until let go (or
    /// until the sender is dropped).
    struct HeldBatch {
        planned: mpsc::Sender<()>,
        let_go: Mutex<mpsc::Receiver<()>>,
    }

    impl PathLogger for HeldBatch {
        fn log_reads(&self, _reads: &[SlotRead]) -> Result<()> {
            let _ = self.planned.send(());
            let _ = self.let_go.lock().recv();
            Ok(())
        }
    }

    #[test]
    fn a_second_batch_is_refused_while_one_is_in_flight() {
        let (reader, mut engine) = open(64);
        let load: Vec<(Key, Value)> = (0..32).map(|k| (k, vec![k as u8])).collect();
        engine.write_batch(&load, &NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
        let meta = engine.meta_snapshot();
        let mut in_tree = (0..32).filter(|&key| !meta.stash.contains(key));
        let (first, second) = (in_tree.next().unwrap(), in_tree.next().unwrap());

        let (planned, is_planned) = mpsc::channel();
        let (let_go, held) = mpsc::channel();
        let held = HeldBatch {
            planned,
            let_go: Mutex::new(held),
        };
        std::thread::scope(|scope| {
            // Dropped with this closure, unwinding or not: a failed
            // assertion lets the held batch go.
            let let_go = let_go;
            let (one, held) = (reader.clone(), &held);
            let first_batch = scope.spawn(move || one.read_batch(&[Some(first)], held));
            is_planned.recv().unwrap();
            // Another clone, with the first batch's target in mid-air; on a
            // thread of its own, so a batch that waits fails the test
            // instead of hanging it.
            let (answer, answered) = mpsc::channel();
            let two = reader.clone();
            scope
                .spawn(move || answer.send(two.read_batch(&[Some(second), None], &NoopPathLogger)));
            let refused = answered.recv_timeout(Duration::from_secs(10));
            assert!(
                matches!(refused, Ok(Err(ObladiError::Internal(_)))),
                "a second batch beside the first: {refused:?}"
            );
            let_go.send(()).unwrap();
            let values = first_batch.join().unwrap().unwrap();
            assert_eq!(values, vec![Some(vec![first as u8])]);
        });
        // Once the first has landed, the next batch is admitted.
        let values = reader.read_batch(&[Some(second), None], &NoopPathLogger);
        assert_eq!(values.unwrap(), vec![Some(vec![second as u8]), None]);
    }

    #[test]
    fn cached_levels_hold_no_block_and_metadata_that_puts_one_there_is_refused() {
        let config = OramConfig::small_for_tests(64);
        let keys = KeyMaterial::for_tests(1);
        let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
        let (reader, mut engine) =
            new_split(config, &keys, store.clone(), wave_options(), 4, 2).unwrap();
        let writes: Vec<(Key, Value)> = (0..48).map(|k| (k, vec![k as u8])).collect();
        engine.write_batch(&writes, &NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
        let requests: Vec<Option<Key>> = (0..48).map(Some).collect();
        reader.read_batch(&requests, &NoopPathLogger).unwrap();
        engine.run_pending_maintenance(&NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
        let meta = engine.committed_meta();
        let cached_blocks =
            |meta: &OramMeta| -> usize { (0..3).map(|b| meta.buckets[b].num_real()).sum() };
        assert_eq!(cached_blocks(&meta), 0, "buckets 0-2 are the stash's");

        let mut stray = meta.clone();
        stray.bucket_mut(2).real[0] = Some((7, 2));
        let restored = |meta: &OramMeta, cached| {
            from_meta_split(
                meta.clone(),
                &keys,
                store.clone(),
                wave_options(),
                5,
                cached,
            )
        };
        assert!(
            restored(&stray, 1).is_ok(),
            "bucket 2 is stored below one level"
        );
        let refused = restored(&stray, 2).err().expect("bucket 2 is cached");
        let leaf_level = restored(&stray, config.levels).err();
        assert!(leaf_level.unwrap().to_string().contains("leaf level"));
        assert!(
            refused.to_string().contains("bucket 2 holds a block"),
            "{refused}"
        );

        // A shallower cache would store buckets 1 and 2, which no one wrote.
        let (_, same) = restored(&meta, 2).unwrap();
        same.revert_storage_to_meta()
            .expect("the same depth rebuilds");
        let (_, shallower) = restored(&meta, 1).unwrap();
        let shrunk = shallower.revert_storage_to_meta().unwrap_err();
        assert!(
            shrunk
                .to_string()
                .contains("stored bucket 1 was never written"),
            "{shrunk}"
        );
    }

    #[test]
    fn empty_flush_still_publishes() {
        let (reader, mut engine) = open(8);
        engine.checkpoint_delta(8).expect("delta after init");
        // A padding read moves the live state and buffers nothing; the
        // flush has nothing to write, and must publish all the same.
        reader.read_batch(&[None], &NoopPathLogger).unwrap();
        let accesses = engine.meta_snapshot().access_count;
        assert_ne!(engine.committed_meta().access_count, accesses);
        engine
            .flush_writes(&NoopPathLogger)
            .expect("empty flush succeeds");
        let delta = engine.checkpoint_delta(8).expect("delta after empty flush");
        assert_eq!(delta.access_count, accesses);
    }

    #[test]
    fn the_committed_state_moves_only_at_a_publish() {
        let (reader, mut engine) = open(64);
        engine
            .write_batch(&[(KEY_A, vec![0xAA])], &NoopPathLogger)
            .unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
        let before = engine.committed_meta().encode_full();
        // Both planes move the live state on; nothing is published.
        let read = reader.read_batch(&[Some(KEY_A), None], &NoopPathLogger);
        assert_eq!(read.unwrap()[0], Some(vec![0xAA]));
        engine
            .write_batch(&[(KEY_B, vec![0xBB])], &NoopPathLogger)
            .unwrap();
        assert_ne!(engine.meta_snapshot().encode_full(), before);
        assert_eq!(engine.committed_meta().encode_full(), before);
        assert_eq!(engine.checkpoint_full().unwrap(), before);
        engine.flush_writes(&NoopPathLogger).unwrap();
        assert_eq!(
            engine.committed_meta().encode_full(),
            engine.meta_snapshot().encode_full(),
            "quiesced, the published state is the live one"
        );
    }

    #[test]
    fn a_driver_that_never_checkpoints_holds_each_id_at_most_once() {
        const KEYS: u64 = 64;
        let (reader, mut engine) = open(64);
        let ids = KEYS as usize + engine.config().num_buckets() as usize;
        let mut rng = DetRng::new(5);
        let mut epoch = |engine: &mut WritebackEngine, round: u64| {
            let write = (rng.below(KEYS), vec![round as u8]);
            engine.write_batch(&[write], &NoopPathLogger).unwrap();
            let reads = [Some(rng.below(KEYS)), None];
            reader.read_batch(&reads, &NoopPathLogger).unwrap();
            engine.run_pending_maintenance(&NoopPathLogger).unwrap();
            engine.flush_writes(&NoopPathLogger).unwrap();
        };
        let pending = |engine: &WritebackEngine| {
            let state = engine.core.shared.state.lock();
            state.committed.pending_ids()
        };
        let mut most = 0;
        for round in 0..400 {
            epoch(&mut engine, round);
            most = most.max(pending(&engine));
            assert!(most <= ids, "round {round}: {most} ids pending of {ids}");
        }
        assert!(most > ids / 2, "the window filled up: {most} of {ids}");

        // However long the window ran, a `Full` spends it, and the deltas
        // behind it — one per publish or one per two — add up to the
        // committed state.
        let full = engine.checkpoint_full().unwrap();
        assert_eq!(pending(&engine), 0);
        let mut replica = OramMeta::decode_full(&full).unwrap();
        for round in 0..24 {
            epoch(&mut engine, round);
            if round % 3 == 2 {
                continue;
            }
            let delta = engine.checkpoint_delta(16).unwrap();
            replica.apply_delta(&MetaDelta::decode(&delta.encode()).unwrap());
            assert!(
                replica.encode_full() == engine.committed_meta().encode_full(),
                "round {round}"
            );
        }
    }
}
