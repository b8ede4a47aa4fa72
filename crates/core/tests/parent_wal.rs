//! The on-storage format is frozen: a store written by the parent commit
//! (PR 13, `90a72c4` — scalar kernels, copying `Envelope::seal`,
//! `Encoder::put_bytes` nesting, `WriteAheadLog::append` framing) must
//! recover under this code, byte layouts and MAC bindings included.
//!
//! `fixtures/wal_parent.txt` is that store after six committed epochs
//! (epoch 1 and 4 full checkpoints, the rest deltas, every one with path
//! logs) and a seventh that logged its read paths, a `Prepare` and its
//! `Decision` and then crashed: `counter <durable epoch>`, then
//! `bucket <id> <version> <slot hex>...` for every bucket's current image
//! and `log <seq> <frame hex>` for every WAL record.  Epoch `e` wrote key
//! `e` = eight bytes of `e` and key 10 = five bytes of `e`; the decided
//! epoch wrote key 12 = "decided" and key 3 = "over".

use bytes::Bytes;
use obladi_common::config::{EpochConfig, OramConfig};
use obladi_core::DurabilityManager;
use obladi_crypto::KeyMaterial;
use obladi_oram::{Block, ExecOptions, MetaDelta, NoopPathLogger};
use obladi_storage::wal::{WalRecordKind, WriteAheadLog};
use obladi_storage::{InMemoryStore, TrustedCounter, UntrustedStore};
use std::sync::Arc;

fn unhex(text: &str) -> Bytes {
    let digit = |b: u8| (b as char).to_digit(16).expect("hex digit") as u8;
    Bytes::from(
        text.as_bytes()
            .chunks_exact(2)
            .map(|pair| digit(pair[0]) << 4 | digit(pair[1]))
            .collect::<Vec<u8>>(),
    )
}

/// Rebuilds the parent's store: each bucket's current image at its recorded
/// version, and the log record for record.
fn restore(fixture: &str) -> (Arc<dyn UntrustedStore>, Arc<TrustedCounter>) {
    let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
    let counter = TrustedCounter::new();
    for line in fixture.lines() {
        let mut fields = line.split(' ');
        match fields.next() {
            Some("counter") => {
                counter.advance_epoch_to(fields.next().unwrap().parse().unwrap());
            }
            Some("bucket") => {
                let bucket: u64 = fields.next().unwrap().parse().unwrap();
                let version: u64 = fields.next().unwrap().parse().unwrap();
                let slots: Vec<Bytes> = fields.map(unhex).collect();
                // The store numbers versions by counting writes.
                for _ in 1..version {
                    store.write_bucket(bucket, slots.clone()).unwrap();
                }
                assert_eq!(store.write_bucket(bucket, slots).unwrap(), version);
            }
            Some("log") => {
                let seq: u64 = fields.next().unwrap().parse().unwrap();
                let frame = unhex(fields.next().unwrap());
                assert_eq!(store.append_log(frame).unwrap(), seq);
            }
            other => panic!("unknown fixture line {other:?}"),
        }
    }
    (store, counter)
}

#[test]
fn a_store_written_by_the_parent_commit_recovers() {
    let (store, counter) = restore(include_str!("fixtures/wal_parent.txt"));
    let kinds: Vec<WalRecordKind> = WriteAheadLog::new(store.clone())
        .read_from(0)
        .unwrap()
        .iter()
        .map(|record| record.kind)
        .collect();
    for kind in [
        WalRecordKind::PathLog,
        WalRecordKind::CheckpointFull,
        WalRecordKind::CheckpointDelta,
        WalRecordKind::EpochCommit,
        WalRecordKind::Prepare,
        WalRecordKind::Decision,
    ] {
        assert!(kinds.contains(&kind), "the fixture holds a {kind:?} record");
    }

    // The generator's configuration.
    let mut oram_config = OramConfig::small_for_tests(16);
    oram_config.max_stash = 24;
    let keys = KeyMaterial::for_tests(0xF1C5);
    let manager = DurabilityManager::new(
        &keys,
        store,
        counter.clone(),
        &EpochConfig::small_for_tests(),
    );
    let ((reader, mut engine), next_epoch, report) = manager
        .recover(oram_config, &keys, ExecOptions::default(), 17)
        .unwrap();

    // Six epochs from a full checkpoint plus two deltas; the seventh from
    // its decision record (its paths replayed first).
    assert_eq!(next_epoch, 8);
    assert_eq!(counter.epoch(), 7);
    assert_eq!(report.replayed_commits, 1);
    assert_eq!(report.epochs_replayed, 1);
    assert_eq!(report.dropped_records, 0);
    assert!(report.reads_replayed > 0);

    let mut read = |key: u64| {
        let value = reader.read_batch(&[Some(key)], &NoopPathLogger).unwrap();
        engine.run_pending_maintenance(&NoopPathLogger).unwrap();
        value[0].clone()
    };
    for epoch in [1u64, 2, 4, 5, 6] {
        assert_eq!(read(epoch), Some(vec![epoch as u8; 8]), "epoch {epoch}");
    }
    assert_eq!(read(10), Some(vec![6u8; 5]), "last committed overwrite");
    assert_eq!(read(12), Some(b"decided".to_vec()), "decided epoch");
    assert_eq!(read(3), Some(b"over".to_vec()), "decided overwrite");
    assert_eq!(read(13), None);
}

/// The delta layout this code writes (PR 19: a marker, then a stash change
/// set, every section padded to a byte length), frozen beside the parent's
/// store: `fixtures/delta_layout.txt` is the plaintext of one delta, in hex.
#[test]
fn the_delta_layout_this_code_writes_is_frozen() {
    let bucket = obladi_oram::BucketMeta {
        perm: vec![2, 0, 4, 1, 3],
        valid: vec![true, true, false, true, true],
        real: vec![None, Some((7, 5))],
        reads_since_shuffle: 1,
        version: 9,
    };
    let delta = MetaDelta {
        access_count: 1_000,
        evict_count: 250,
        position_delta: vec![(3, None), (7, Some(5)), (11, Some(2))],
        max_position_delta: 4,
        buckets: vec![(6, Arc::new(bucket))],
        stash_added: vec![
            Block::real(11, 2, b"eleven".to_vec()),
            Block::real(12, 0, Vec::new()),
        ],
        stash_removed: vec![3, 7],
        stash_replaced: false,
        stash_pad: 3,
        block_size: 8,
    };
    let golden = unhex(include_str!("fixtures/delta_layout.txt").trim());
    let encoded = delta.encode();
    let hex: String = encoded.iter().map(|byte| format!("{byte:02x}")).collect();
    assert!(
        encoded == golden[..],
        "the layout moved; this code writes {hex}"
    );
    assert_eq!(MetaDelta::decode(&golden).unwrap(), delta);
    // Marker, counters; three sections behind length prefixes, padded to 4
    // position entries, min(4, 3) blocks and 3 keys; one bucket of 5 slots
    // with Z = 2 real ones behind its id; the three pads.
    let sections = (4 + 8 + 4 * 17) + (4 + 8 + 3 * (20 + 8)) + (4 + 8 + 3 * 8);
    let bucket = 8 + (4 + 5 * 4) + 5 + (4 + 2 * 17 + 4) + 4 + 8;
    assert_eq!(golden.len(), 3 * 8 + sections + 8 + bucket + 3 * 8);
}
