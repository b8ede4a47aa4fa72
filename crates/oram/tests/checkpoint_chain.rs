//! Differential test of the checkpoint chain: after every checkpoint, the
//! last full checkpoint plus every delta behind it — encoded, decoded and
//! applied, as recovery does — is the committed state the checkpoint captured
//! (position map, buckets, stash, counters: `encode_full` sorts all of
//! them), and a client rebuilt from it reads every key.  A delta holds a
//! stash *change set* against the previous checkpoint of either kind, so a
//! slip anywhere in the chain shows in every later comparison.
//!
//! The schedule is the pipelined proxy's: reader batches, the padded write
//! batch, the flush (which publishes), sometimes another
//! reader batch between the flush and the checkpoint (depth 2), then a full
//! checkpoint every fifth epoch and a delta otherwise — sequentially, and
//! with a second thread's read batch held in flight, between its plan and
//! its fetch, when every flush starts.  The split client refuses a batch
//! while another is in flight, so this thread reads nothing from the moment
//! one is held until it has landed; and a flush publishes only once it has
//! landed, so the flush runs on a thread of its own while the batch is let
//! go.  Both schedules also run on a client that caches the top of its
//! tree in its stash, and rebuild it with the same cache.

mod common;

use common::held_in_flight;
use obladi_common::config::{EpochConfig, OramConfig};
use obladi_common::rng::DetRng;
use obladi_common::types::{Key, Value};
use obladi_crypto::KeyMaterial;
use obladi_oram::split::{from_meta_split, new_split};
use obladi_oram::{
    CheckpointSource, ExecOptions, MetaDelta, NoopPathLogger, OramMeta, OramReader, WritebackEngine,
};
use obladi_storage::{InMemoryStore, UntrustedStore};
use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, Arc};

const KEYSPACE: u64 = 96;
const WRITE_BATCH: usize = 12;
const SEED: u64 = 23;
/// Of the schedules' 6-level tree, the cached runs keep 7 buckets in the
/// stash.
const CACHED_LEVELS: u32 = 3;

fn open(
    config: OramConfig,
    cached_levels: u32,
) -> (OramReader, WritebackEngine, Arc<dyn UntrustedStore>) {
    let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
    let keys = KeyMaterial::for_tests(SEED);
    let options = ExecOptions::parallel(2);
    let oram = new_split(config, &keys, store.clone(), options, SEED, cached_levels);
    let (reader, engine) = oram.expect("client opens");
    (reader, engine, store)
}

/// Up to `count` distinct keys of `keys`, padded to `count` requests.
fn requests(rng: &mut DetRng, keys: &[Key], count: usize) -> Vec<Option<Key>> {
    let mut seen = HashSet::new();
    (0..count)
        .map(|_| Some(keys[rng.below_usize(keys.len())]).filter(|k| seen.insert(*k)))
        .collect()
}

/// What recovery would rebuild: the last full checkpoint and the deltas
/// behind it, through their encodings.
struct Chain {
    replica: OramMeta,
    deltas_behind_full: usize,
    cached_levels: u32,
}

impl Chain {
    /// Takes epoch `epoch`'s checkpoint from `engine`, applies it, and holds
    /// the result against the committed state the checkpoint captured.
    fn checkpoint(&mut self, epoch: u64, engine: &mut WritebackEngine) {
        if epoch % 5 == 4 {
            self.replica = OramMeta::decode_full(&engine.checkpoint_full().unwrap()).unwrap();
            self.deltas_behind_full = 0;
        } else {
            let delta = engine.checkpoint_delta(64).unwrap();
            assert!(!delta.exceeds_pad(), "epoch {epoch}");
            self.replica
                .apply_delta(&MetaDelta::decode(&delta.encode()).unwrap());
            self.deltas_behind_full += 1;
        }
        // Only this thread publishes, so the committed state is still the
        // one the checkpoint captured.
        let captured = engine.committed_meta();
        assert!(
            self.replica.encode_full() == captured.encode_full(),
            "epoch {epoch}: full + {} deltas is not the checkpointed state",
            self.deltas_behind_full
        );
    }

    /// A client rebuilt from the chain reads what was committed.
    fn assert_reads(
        &self,
        epoch: u64,
        store: &Arc<dyn UntrustedStore>,
        model: &HashMap<Key, Value>,
    ) {
        let keys = KeyMaterial::for_tests(SEED);
        let options = ExecOptions::parallel(2);
        let replica = self.replica.clone();
        let rebuilt = from_meta_split(
            replica,
            &keys,
            store.clone(),
            options,
            5,
            self.cached_levels,
        );
        // The read plane alone: it writes nothing to the shared store.
        let (reader, _engine) = rebuilt.expect("the chain rebuilds");
        for key in 0..KEYSPACE {
            let read = reader.read_batch(&[Some(key)], &NoopPathLogger).unwrap();
            assert_eq!(
                read[0].as_ref(),
                model.get(&key),
                "epoch {epoch}, key {key}"
            );
        }
    }
}

fn run_epochs(epochs: u64, reads_in_flight: bool, cached_levels: u32) {
    let config = OramConfig::small_for_tests(KEYSPACE * 2);
    let (reader, mut engine, store) = open(config, cached_levels);
    assert_eq!(reader.geometry().cached_levels, cached_levels);
    let mut rng = DetRng::new(SEED ^ 0xc4a1);
    let mut model: HashMap<Key, Value> = (0..KEYSPACE).map(|k| (k, vec![k as u8; 3])).collect();
    let load: Vec<(Key, Value)> = model.clone().into_iter().collect();
    engine.write_batch(&load, &NoopPathLogger).unwrap();
    engine.flush_writes(&NoopPathLogger).unwrap();
    // Concurrently read and written key sets stay disjoint, as the proxy's
    // carry set keeps them: the second thread reads the odd keys only.
    let (even, odd): (Vec<Key>, Vec<Key>) = (0..KEYSPACE).partition(|key| key % 2 == 0);
    let mine = if reads_in_flight {
        even
    } else {
        (0..KEYSPACE).collect()
    };
    let (held, is_planned, let_go) = held_in_flight();
    let (to_plan, batches) = mpsc::channel::<Vec<Option<Key>>>();
    let (has_landed, landed) = mpsc::channel::<()>();

    std::thread::scope(|scope| {
        // Dropped with this closure, unwinding or not: a failed assertion
        // below releases the held reader and ends its loop.
        let (to_plan, let_go) = (to_plan, let_go);
        let (second_reader, held) = (reader.clone(), &held);
        scope.spawn(move || {
            for batch in batches {
                second_reader.read_batch(&batch, held).unwrap();
                has_landed.send(()).unwrap();
            }
        });
        let mut chain = Chain {
            replica: OramMeta::decode_full(&engine.checkpoint_full().unwrap()).unwrap(),
            deltas_behind_full: 0,
            cached_levels,
        };
        for epoch in 0..epochs {
            for _ in 0..1 + rng.below(3) {
                let batch = requests(&mut rng, &mine, 8);
                reader.read_batch(&batch, &NoopPathLogger).unwrap();
            }
            let writes: HashMap<Key, Value> = (0..rng.below_usize(WRITE_BATCH))
                .map(|_| {
                    let key = mine[rng.below_usize(mine.len())];
                    (key, vec![epoch as u8; 1 + rng.below_usize(24)])
                })
                .collect();
            let writes: Vec<(Key, Value)> = writes.into_iter().collect();
            engine
                .write_batch_padded(&writes, WRITE_BATCH, &NoopPathLogger)
                .unwrap();
            model.extend(writes);
            if epoch % 3 != 0 {
                // Against buffered buckets.
                let batch = requests(&mut rng, &mine, 8);
                reader.read_batch(&batch, &NoopPathLogger).unwrap();
            }
            if reads_in_flight {
                // Planned now, against the buffered buckets the flush is
                // about to write: the flush waits for it, and publishes
                // behind it, so this checkpoint records where its targets
                // went.
                to_plan.send(requests(&mut rng, &odd, 8)).unwrap();
                is_planned.recv().unwrap();
                std::thread::scope(|flushing| {
                    let flush = flushing.spawn(|| engine.flush_writes(&NoopPathLogger));
                    let_go.send(()).unwrap();
                    landed.recv().unwrap();
                    flush.join().unwrap().unwrap();
                });
            } else {
                engine.flush_writes(&NoopPathLogger).unwrap();
            }
            if epoch % 4 == 0 && !reads_in_flight {
                // Lands in the next delta, not in this one.
                let batch = requests(&mut rng, &mine, 8);
                reader.read_batch(&batch, &NoopPathLogger).unwrap();
            }
            chain.checkpoint(epoch, &mut engine);
            if !reads_in_flight && epoch % 16 == 9 {
                chain.assert_reads(epoch, &store, &model);
            }
        }
        drop(to_plan);
        if reads_in_flight {
            // Quiesced: the store holds exactly what the chain describes.
            engine.flush_writes(&NoopPathLogger).unwrap();
            chain.checkpoint(0, &mut engine);
        }
        chain.assert_reads(epochs, &store, &model);
    });
}

#[test]
fn full_plus_deltas_is_the_checkpointed_generation() {
    run_epochs(320, false, 0);
}

#[test]
fn full_plus_deltas_is_the_checkpointed_generation_with_reads_in_flight() {
    run_epochs(200, true, 0);
}

#[test]
fn full_plus_deltas_is_the_checkpointed_generation_with_cached_levels() {
    run_epochs(320, false, CACHED_LEVELS);
    run_epochs(200, true, CACHED_LEVELS);
}

/// The byte length of every delta record of one deployment.
fn delta_len(oram: &OramConfig, epoch: &EpochConfig, dirty_buckets: usize) -> usize {
    let window = epoch.max_position_delta();
    let slots = oram.slots_per_bucket() as usize;
    // Permutation, validity, `Z` real slots at their full length (the
    // shorter empty ones padded up behind a length prefix), counters.
    let bucket = (4 + 4 * slots) + slots + (4 + 17 * oram.z as usize + 4) + 4 + 8;
    let counters = 3 * 8;
    let positions = 4 + 8 + 17 * window;
    let added = 4 + 8 + window.min(oram.max_stash) * (20 + oram.block_size);
    let removed = 4 + 8 + 8 * oram.max_stash;
    let pads = 3 * 8;
    counters + positions + 8 + dirty_buckets * (8 + bucket) + added + removed + pads
}

#[test]
fn a_delta_is_as_long_as_the_configuration_says_whatever_the_epoch_did() {
    let epoch = EpochConfig::small_for_tests();
    assert_eq!(epoch.pipeline_depth, 2);
    let (batches, batch) = (epoch.read_batches as usize, epoch.read_batch_size);
    // A stash that holds a window's reads and writes beside an eviction's,
    // and evictions half as frequent as the default `A`: a write batch's
    // evictions run after all of its writes, so with the default a written
    // block seldom outlives its write-back, and most change sets would be
    // removals only.
    let mut config = OramConfig::small_for_tests(256).with_max_stash(128);
    config.a *= 2;
    let window = epoch.max_position_delta();
    let (reader, mut engine, _store) = open(config, 0);
    let keys: Vec<Key> = (0..200).collect();
    let load: Vec<(Key, Value)> = keys.iter().map(|k| (*k, vec![*k as u8; 32])).collect();
    for chunk in load.chunks(epoch.write_batch_size) {
        engine.write_batch(chunk, &NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
    }
    engine.checkpoint_full().unwrap();

    let mut rng = DetRng::new(SEED);
    let (mut saturated, mut idle) = (0, 0);
    let mut seen = HashSet::new();
    for round in 0..60u64 {
        // Every third window is as full as depth 2 allows: the read batches
        // of two epochs between two publishes, every slot of them and of
        // the write batch a different existing key.  Every third does
        // nothing, the rest something in between; values of every length.
        let mut distinct = rng.choose_distinct(keys.len(), window).into_iter();
        let mut next = |count: usize| -> Vec<Key> {
            let real = [count, 0, rng.below_usize(count + 1)][round as usize % 3];
            distinct.by_ref().take(real).map(|k| k as Key).collect()
        };
        for _ in 0..2 * batches {
            let mut requests: Vec<Option<Key>> = next(batch).into_iter().map(Some).collect();
            requests.resize(batch, None);
            reader.read_batch(&requests, &NoopPathLogger).unwrap();
        }
        let value = |key: Key| vec![round as u8; (key as usize * 7 + round as usize) % 33];
        let writes: Vec<(Key, Value)> = next(epoch.write_batch_size)
            .into_iter()
            .map(|key| (key, value(key)))
            .collect();
        engine
            .write_batch_padded(&writes, epoch.write_batch_size, &NoopPathLogger)
            .unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();

        let delta = engine.checkpoint_delta(window).unwrap();
        assert!(!delta.exceeds_pad(), "round {round}");
        let encoded = delta.encode();
        assert_eq!(
            encoded.len(),
            delta_len(&config, &epoch, delta.buckets.len()),
            "round {round}: {} positions, {} + {} stash entries",
            delta.position_delta.len(),
            delta.stash_added.len(),
            delta.stash_removed.len()
        );
        assert_eq!(MetaDelta::decode(&encoded).unwrap(), delta, "round {round}");
        saturated += usize::from(delta.position_delta.len() == window);
        idle += usize::from(delta.position_delta.len() < window / 4);
        seen.insert((delta.stash_added.len(), delta.stash_removed.len()));
    }
    assert!(saturated >= 20, "windows at the pad: {saturated}");
    assert!(idle >= 20, "idle windows: {idle}");
    assert!(seen.len() >= 10, "stash change sets seen: {seen:?}");
}
