//! The split client's allocation budget (DESIGN.md, "Allocation budget"):
//! in its steady state the client allocates only for what leaves it — a
//! sealed image and its handles per flushed bucket, a record per path-log
//! unit, the values of real blocks, the checkpoint it hands out — and
//! nothing per dummy access, bucket visit, rewrite or publish.
//!
//! A thread-local counting allocator counts this test thread's heap
//! allocations.  Over an `InMemoryStore` the client's pool is one, so every
//! store call and seal runs inline on the calling thread and is counted.

#![deny(unsafe_code)]

use obladi_common::config::OramConfig;
use obladi_common::rng::DetRng;
use obladi_common::types::{Key, Value};
use obladi_crypto::KeyMaterial;
use obladi_oram::split::new_split;
use obladi_oram::{CheckpointSource, ExecOptions, NoopPathLogger, OramReader, WritebackEngine};
use obladi_storage::InMemoryStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation of the
/// thread that makes it.
struct Counting;

fn count_one() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

#[allow(unsafe_code)]
// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc`, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc_zeroed`, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `realloc`, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's allocations while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `perf`'s YCSB shard: 2,048 objects (a 10-level tree, `Z = S = 4`,
/// `A = 7`), 192-byte blocks, a 4,096-block stash, and the proxy's cache
/// depth for its 128 reads an epoch (`proxy::cached_levels`): 5.
const OBJECTS: u64 = 2_048;
const CACHED_LEVELS: u32 = 5;
const READ_BATCHES: usize = 4;
const READ_BATCH: usize = 32;
const WRITE_BATCH: usize = 64;
/// Keys loaded before counting.
const LOADED: u64 = 1_024;
const SEED: u64 = 44;

fn value_of(key: Key) -> Value {
    vec![key as u8; 96]
}

/// A client with `LOADED` keys, driven as the proxy drives its own: the
/// proxy's execution options, evictions paid by the write batch.
fn loaded_client() -> (OramReader, WritebackEngine) {
    let mut config = OramConfig::small_for_tests(OBJECTS);
    config.block_size = 192;
    config.max_stash = 4_096;
    let keys = KeyMaterial::for_tests(SEED);
    let options = ExecOptions::parallel(2);
    let store = Arc::new(InMemoryStore::new());
    let (reader, mut engine) =
        new_split(config, &keys, store, options, SEED, CACHED_LEVELS).expect("client opens");
    let rows: Vec<(Key, Value)> = (0..LOADED).map(|key| (key, value_of(key))).collect();
    for chunk in rows.chunks(WRITE_BATCH) {
        engine
            .write_batch_padded(chunk, WRITE_BATCH, &NoopPathLogger)
            .expect("load");
        engine.flush_writes(&NoopPathLogger).expect("flush");
    }
    (reader, engine)
}

/// One epoch's read batches and write batch.
type EpochInputs = (Vec<Vec<Option<Key>>>, Vec<(Key, Value)>);

/// One epoch's inputs: `READ_BATCHES` batches of `READ_BATCH` requests,
/// half of each distinct keys and half padding, and a write batch of
/// `WRITE_BATCH / 2` of those keys, padded to `WRITE_BATCH`.
fn epoch_inputs(rng: &mut DetRng) -> EpochInputs {
    let reads = READ_BATCHES * READ_BATCH / 2;
    let keys = rng.choose_distinct(LOADED as usize, reads);
    let batches = keys
        .chunks(READ_BATCH / 2)
        .map(|chunk| {
            let mut batch: Vec<Option<Key>> = chunk.iter().map(|&k| Some(k as Key)).collect();
            batch.resize(READ_BATCH, None);
            batch
        })
        .collect();
    let writes = keys[..WRITE_BATCH / 2]
        .iter()
        .map(|&k| (k as Key, value_of(k as Key)))
        .collect();
    (batches, writes)
}

/// One proxy epoch: the read batches, the padded write batch (which pays
/// the epoch's evictions), the flush (which publishes) and a delta.
fn run_epoch(
    reader: &OramReader,
    engine: &mut WritebackEngine,
    batches: &[Vec<Option<Key>>],
    writes: &[(Key, Value)],
) {
    let logger = NoopPathLogger;
    for batch in batches {
        reader.read_batch(batch, &logger).expect("read batch");
    }
    engine
        .write_batch_padded(writes, WRITE_BATCH, &logger)
        .expect("write batch");
    engine.flush_writes(&logger).expect("flush");
    let delta = engine.checkpoint_delta(1_024).expect("delta");
    drop(delta.encode());
}

/// Right after a flush, a padded read batch of 64 dummy requests allocates
/// at most 2 times more than one of 32: an access costs nothing on the
/// heap, whatever the batch's length.  Before the hot path stopped
/// allocating, every extra access cost at least 6 — its path, and a
/// dummy-pick list per stored level — besides the copy-on-write clone of
/// every bucket it touched first after the publish.
#[test]
fn a_dummy_access_allocates_nothing() {
    let (reader, mut engine) = loaded_client();
    let mut rng = DetRng::new(SEED);
    for _ in 0..3 {
        let (batches, writes) = epoch_inputs(&mut rng);
        run_epoch(&reader, &mut engine, &batches, &writes);
    }
    let logger = NoopPathLogger;
    let padded_batch = |len: usize, engine: &mut WritebackEngine| {
        let pads = vec![None; len];
        let count = allocations_in(|| {
            reader.read_batch(&pads, &logger).expect("read batch");
        });
        engine
            .run_pending_maintenance(&logger)
            .expect("maintenance");
        engine.flush_writes(&logger).expect("flush");
        count
    };
    // Both sizes run twice, the first time to let the sets the client
    // keeps grow to the size.
    padded_batch(64, &mut engine);
    padded_batch(32, &mut engine);
    let of_64 = padded_batch(64, &mut engine);
    let of_32 = padded_batch(32, &mut engine);
    eprintln!("allocations: 64 dummies {of_64}, 32 dummies {of_32}");
    assert!(
        of_64 <= of_32 + 2,
        "64 dummy requests allocated {of_64} times, 32 allocated {of_32}: \
         a dummy access must not allocate"
    );
}

/// Measured on this test's epoch: 6,305 allocations before the hot path
/// stopped allocating (copy-on-write bucket clones, a path and dummy-pick
/// lists per access, three fresh lists per rewrite, a whole-stash clone per
/// publish and per delta), 1,674 after — most of them now the flush's
/// sealed images and the opened values of the blocks the evictions read.
/// The budget is 40% of the former.
const EPOCH_BUDGET: u64 = 6_305 * 2 / 5;

/// A steady-state epoch stays within `EPOCH_BUDGET` allocations.
#[test]
fn a_steady_state_epoch_stays_within_its_allocation_budget() {
    let (reader, mut engine) = loaded_client();
    let mut rng = DetRng::new(SEED);
    for _ in 0..3 {
        let (batches, writes) = epoch_inputs(&mut rng);
        run_epoch(&reader, &mut engine, &batches, &writes);
    }
    let (batches, writes) = epoch_inputs(&mut rng);
    let count = allocations_in(|| run_epoch(&reader, &mut engine, &batches, &writes));
    eprintln!("allocations: one epoch {count}, budget {EPOCH_BUDGET}");
    assert!(
        count <= EPOCH_BUDGET,
        "one epoch allocated {count} times, over its budget of {EPOCH_BUDGET}"
    );
}
