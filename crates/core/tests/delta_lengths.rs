//! Checkpoint sizes are a function of the configuration: every
//! `CheckpointDelta` record a proxy logs has length `f(configuration, dirty
//! bucket count)`, and its position and stash sections one byte length
//! each, whatever the workload — uniform reads, half read-modify-writes of
//! values of every length, a hot key — at pipeline depths 1 and 2, and
//! across a crash and recovery in the middle.  (The dirty bucket count
//! follows the uniformly random paths, not the data; `DESIGN.md`,
//! "Checkpoints".)

use obladi_common::config::ObladiConfig;
use obladi_common::rng::DetRng;
use obladi_common::types::{Key, Value};
use obladi_core::{KvDatabase, ObladiDb};
use obladi_crypto::{Envelope, KeyMaterial};
use obladi_oram::MetaDelta;
use obladi_storage::wal::{WalRecordKind, WriteAheadLog};
use obladi_storage::{InMemoryStore, TrustedCounter, UntrustedStore};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// `durability.rs`'s location tag for delta checkpoints.
const LOC_DELTA: u64 = 0xA002;
const KEYS: u64 = 96;
const TXNS_PER_CLIENT: usize = 40;

#[derive(Clone, Copy, Debug)]
enum Mix {
    UniformReads,
    ReadModifyWrite,
    HotKey,
}

fn config(depth: u32) -> ObladiConfig {
    let mut config = ObladiConfig::small_for_tests(512);
    config.epoch.pipeline_depth = depth;
    config.epoch.batch_interval = Duration::from_millis(1);
    // One base checkpoint, then deltas only: retention keeps all of them.
    config.epoch.checkpoint_every = 100_000;
    config
}

fn put(db: &ObladiDb, writes: &[(Key, Value)]) {
    db.execute_with_retries(50, &mut |txn| {
        for (key, value) in writes {
            txn.write(*key, value.clone())?;
        }
        Ok(())
    })
    .expect("load commits");
}

fn client(db: &ObladiDb, mix: Mix, seed: u64) {
    let mut rng = DetRng::new(seed);
    for _ in 0..TXNS_PER_CLIENT {
        let key = match mix {
            Mix::HotKey if rng.below(10) > 0 => 7,
            _ => rng.below(KEYS),
        };
        let write = matches!(mix, Mix::ReadModifyWrite) && rng.below(2) == 0;
        let value = vec![seed as u8; rng.below_usize(33)];
        // Aborts (a spent epoch, a conflict) are part of the mix.
        let _ = db.execute_with_retries(5, &mut |txn| {
            txn.read(key)?;
            if write {
                txn.write(key, value.clone())?;
            }
            Ok(())
        });
    }
}

/// Runs `mix` on a fresh proxy and returns, per delta record it logged,
/// `(plaintext length, dirty buckets, position entries, stash entries)`.
fn delta_records(depth: u32, mix: Mix) -> Vec<(usize, usize, usize, usize)> {
    let config = config(depth);
    let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
    let keys = KeyMaterial::for_tests(config.seed);
    let db = ObladiDb::open_with(config, store.clone(), TrustedCounter::new(), keys.clone())
        .expect("proxy opens");
    let rows: Vec<(Key, Value)> = (0..KEYS).map(|k| (k, vec![k as u8; 20])).collect();
    for chunk in rows.chunks(8) {
        put(&db, chunk);
    }
    std::thread::scope(|scope| {
        for seed in [1, 2] {
            let db = &db;
            scope.spawn(move || client(db, mix, seed));
        }
    });
    // A recovered client's first delta is against its recovered stash.
    db.crash();
    db.recover().expect("recovers");
    client(&db, mix, 3);
    db.shutdown();

    let envelope = Envelope::new(&keys);
    let log = WriteAheadLog::new(store).read_from(0).expect("log reads");
    let deltas = log
        .iter()
        .filter(|record| record.kind == WalRecordKind::CheckpointDelta);
    deltas
        .map(|record| {
            let plain = envelope
                .open_bytes(LOC_DELTA, record.epoch, &record.payload)
                .expect("a delta opens under its epoch");
            let delta = MetaDelta::decode(&plain).expect("a delta decodes");
            assert!(!delta.exceeds_pad(), "epoch {}", record.epoch);
            let stash = delta.stash_added.len() + delta.stash_removed.len();
            let positions = delta.position_delta.len();
            (plain.len(), delta.buckets.len(), positions, stash)
        })
        .collect()
}

fn assert_one_length_per_dirty_bucket_count(depth: u32) {
    let oram = config(depth).oram;
    let slots = oram.slots_per_bucket() as usize;
    // A bucket entry at the length of a full bucket (see
    // `crates/oram/tests/checkpoint_chain.rs`).
    let bucket = 8 + (4 + 4 * slots) + slots + (4 + 17 * oram.z as usize + 4) + 4 + 8;
    // What is left of a record without its buckets: counters, pads and
    // the position and stash sections.
    let mut fixed_parts = HashSet::new();
    let (mut records, mut with_positions, mut with_stash) = (0, 0, 0);
    for mix in [Mix::UniformReads, Mix::ReadModifyWrite, Mix::HotKey] {
        for (len, dirty, positions, stash) in delta_records(depth, mix) {
            fixed_parts.insert(len - dirty * bucket);
            records += 1;
            with_positions += usize::from(positions > 0);
            with_stash += usize::from(stash > 0);
        }
    }
    assert!(records >= 60, "depth {depth}: {records} deltas");
    assert!(with_positions >= 30, "depth {depth}: {with_positions}");
    assert!(with_stash >= 5, "depth {depth}: {with_stash}");
    assert_eq!(fixed_parts.len(), 1, "depth {depth}: {fixed_parts:?}");

    let window = config(depth).epoch.max_position_delta();
    let positions = 4 + 8 + 17 * window;
    let added = 4 + 8 + window.min(oram.max_stash) * (20 + oram.block_size);
    let removed = 4 + 8 + 8 * oram.max_stash;
    let expected = 3 * 8 + positions + 8 + added + removed + 3 * 8;
    assert_eq!(fixed_parts, HashSet::from([expected]), "depth {depth}");
}

#[test]
fn every_delta_record_is_as_long_as_the_configuration_says_depth_1() {
    assert_one_length_per_dirty_bucket_count(1);
}

#[test]
fn every_delta_record_is_as_long_as_the_configuration_says_depth_2() {
    assert_one_length_per_dirty_bucket_count(2);
}
