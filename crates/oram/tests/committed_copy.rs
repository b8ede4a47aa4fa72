//! The invariant the committed copy rests on: a publish runs only between
//! reader batches, so at every publish the live client state *is* the
//! committed one, and the copy refreshed from the ids dirtied since the
//! previous publish describes it exactly.
//!
//! Seeded sequences of reader batches, padded write batches, maintenance
//! waves, checkpoints and flushes run on a fresh client and on one rebuilt
//! from a full checkpoint.  After every flush the committed state encodes
//! to the live state's bytes; between two flushes it stays byte-identical
//! while the live state moves.

use obladi_common::config::OramConfig;
use obladi_common::rng::DetRng;
use obladi_common::types::{Key, Value};
use obladi_crypto::KeyMaterial;
use obladi_oram::{
    CheckpointSource, ExecOptions, NoopPathLogger, OramMeta, OramReader, RingOram, WritebackEngine,
};
use obladi_storage::{InMemoryStore, UntrustedStore};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const KEYSPACE: u64 = 64;
const WRITE_BATCH: usize = 8;
const STEPS: usize = 160;

/// Up to `count` distinct keys, padded to `count` requests.
fn requests(rng: &mut DetRng, count: usize) -> Vec<Option<Key>> {
    let mut seen = HashSet::new();
    (0..count)
        .map(|_| Some(rng.below(KEYSPACE)).filter(|k| seen.insert(*k)))
        .collect()
}

/// Drives `STEPS` seeded operations and checks the invariant after each.
/// Ends on a flush, so the caller may checkpoint and rebuild.
fn drive(
    (reader, engine): &mut (OramReader, WritebackEngine),
    rng: &mut DetRng,
    model: &mut HashMap<Key, Value>,
    what: &str,
) {
    let live = |engine: &WritebackEngine| engine.meta_snapshot().encode_full();
    let committed = |engine: &WritebackEngine| engine.committed_meta().encode_full();
    let mut published = committed(engine);
    assert!(
        published == live(engine),
        "{what}: not quiesced at the start"
    );
    let mut moved = 0;
    for step in 0..=STEPS {
        let op = if step == STEPS { 5 } else { rng.below(6) };
        match op {
            0 | 1 => {
                let batch = requests(rng, 4);
                let values = reader.read_batch(&batch, &NoopPathLogger).unwrap();
                for (key, value) in batch.iter().zip(values) {
                    if let Some(key) = key {
                        assert_eq!(value.as_ref(), model.get(key), "{what}, step {step}");
                    }
                }
            }
            2 => {
                let writes: HashMap<Key, Value> = (0..rng.below_usize(WRITE_BATCH + 1))
                    .map(|_| {
                        (
                            rng.below(KEYSPACE),
                            vec![step as u8; 1 + rng.below_usize(16)],
                        )
                    })
                    .collect();
                let writes: Vec<(Key, Value)> = writes.into_iter().collect();
                engine
                    .write_batch_padded(&writes, WRITE_BATCH, &NoopPathLogger)
                    .unwrap();
                model.extend(writes);
            }
            3 => engine.run_pending_maintenance(&NoopPathLogger).unwrap(),
            4 => {
                // Checkpoints read the copy and spend the window; neither
                // moves the committed state.
                if rng.below(2) == 0 {
                    assert!(engine.checkpoint_full().unwrap() == published, "{what}");
                } else {
                    engine.checkpoint_delta(64).unwrap();
                }
            }
            _ => {
                engine.flush_writes(&NoopPathLogger).unwrap();
                published = committed(engine);
                assert!(
                    published == live(engine),
                    "{what}, step {step}: the published state is not the live one"
                );
                continue;
            }
        }
        assert!(
            committed(engine) == published,
            "{what}, step {step}: the committed state moved between publishes"
        );
        moved += usize::from(live(engine) != published);
    }
    assert!(
        moved > STEPS / 4,
        "{what}: the live state moved {moved} times"
    );
}

fn check_seed(seed: u64) {
    let config = OramConfig::small_for_tests(KEYSPACE * 2);
    let keys = KeyMaterial::for_tests(seed);
    let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
    let options = ExecOptions::parallel(2);
    let mut rng = DetRng::new(seed);
    let mut model = HashMap::new();

    let fresh = RingOram::new(config, &keys, store.clone(), options, seed);
    let mut client = fresh.expect("client opens").split();
    drive(
        &mut client,
        &mut rng,
        &mut model,
        &format!("fresh, seed {seed}"),
    );

    let meta = OramMeta::decode_full(&client.1.checkpoint_full().unwrap()).unwrap();
    drop(client);
    let mut rebuilt = RingOram::from_meta(meta, &keys, store, options, seed + 1).split();
    drive(
        &mut rebuilt,
        &mut rng,
        &mut model,
        &format!("rebuilt, seed {seed}"),
    );
}

#[test]
fn at_every_publish_the_committed_state_is_the_live_one() {
    for seed in 1..=6 {
        check_seed(seed);
    }
}
