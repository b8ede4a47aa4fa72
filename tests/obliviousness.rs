//! Workload-independence (obliviousness) tests.
//!
//! The security argument of §9 rests on the storage-visible behaviour being
//! generatable without knowledge of the workload: fixed-size padded batches,
//! uniformly distributed paths, every slot read at most once between bucket
//! rewrites.  These tests check those properties empirically on the trace
//! the store observed (`obladi_testkit::audit::RecordedOram`, the one
//! adversary recorder) under adversarially different workloads, with every
//! level on storage and with the top of the tree cached in the client.

use obladi_common::config::OramConfig;
use obladi_common::rng::DetRng;
use obladi_common::types::Key;
use obladi_obs::audit::{AuditKind, AuditOp};
use obladi_oram::NoopPathLogger;
use obladi_testkit::audit::{cached_bucket_op, leaf_histogram, slot_reread, RecordedOram};

/// The tree-top cache depth the cached runs use: 7 buckets of an 8-level tree.
const CACHED_LEVELS: u32 = 3;

fn build_oram(seed: u64, cached_levels: u32) -> RecordedOram {
    let config = OramConfig::small_for_tests(512).with_max_stash(2_048);
    let mut oram = RecordedOram::open(config, seed, cached_levels).unwrap();
    let writes: Vec<(Key, Vec<u8>)> = (0..256).map(|k| (k, vec![k as u8; 8])).collect();
    for chunk in writes.chunks(64) {
        oram.engine.write_batch(chunk, &NoopPathLogger).unwrap();
        oram.engine.flush_writes(&NoopPathLogger).unwrap();
    }
    oram
}

/// Runs `batches` fixed-size read batches drawn from `pick` and returns the
/// trace the store observed (fetches, maintenance and flushes) plus its
/// slot-read count per batch.
fn run_trace(
    oram: &mut RecordedOram,
    batches: usize,
    batch_size: usize,
    mut pick: impl FnMut(usize, &mut DetRng) -> Key,
    seed: u64,
) -> (Vec<AuditOp>, Vec<u64>) {
    let mut rng = DetRng::new(seed);
    let mut trace = Vec::new();
    let mut per_batch = Vec::new();
    for b in 0..batches {
        let requests: Vec<Option<Key>> = (0..batch_size)
            .map(|i| Some(pick(b * batch_size + i, &mut rng)))
            .collect();
        let (access, maintenance) = oram.read_batch_by_phase(&requests).unwrap();
        let seen = trace.len();
        trace.extend(access);
        trace.extend(maintenance);
        let slot_reads = trace[seen..]
            .iter()
            .filter(|op| op.kind == AuditKind::ReadSlot);
        per_batch.push(slot_reads.count() as u64);
    }
    assert_eq!(oram.ring.dropped(), 0, "the ring holds a whole batch");
    (trace, per_batch)
}

#[test]
fn hot_and_uniform_workloads_issue_identical_request_counts() {
    // A workload hammering one key and a uniform workload must generate the
    // same number of physical requests per batch — the count depends only on
    // the (fixed) batch structure, not on the keys.
    let mut hot_oram = build_oram(1, 0);
    let mut uni_oram = build_oram(1, 0);

    let (_, hot_counts) = run_trace(&mut hot_oram, 6, 16, |_, _| 7, 42);
    let (_, uni_counts) = run_trace(&mut uni_oram, 6, 16, |_, rng| rng.below(256), 43);

    assert_eq!(hot_counts.len(), uni_counts.len());
    for (batch, (h, u)) in hot_counts.iter().zip(uni_counts.iter()).enumerate() {
        let diff = (*h as i64 - *u as i64).abs() as f64;
        let scale = (*h).max(*u) as f64;
        assert!(
            diff / scale < 0.25,
            "batch {batch}: physical request counts diverge too much (hot={h}, uniform={u})"
        );
    }
}

#[test]
fn no_slot_is_read_twice_between_bucket_writes() {
    // The bucket invariant (§4): between two writes of a bucket, every
    // physical slot is read at most once — judged on the reads and writes
    // the store was asked for, reads interleaved with flushes.
    for cached in [0, CACHED_LEVELS] {
        let mut oram = build_oram(2, cached);
        let (trace, _) = run_trace(&mut oram, 8, 16, |_, rng| rng.below(256), 9);
        assert_eq!(slot_reread(&trace), None, "{cached} cached levels");
        assert_eq!(cached_bucket_op(&trace, cached), None);
        // The run is long enough to put the check to work: slots do get read
        // again, each time behind a rewrite of their bucket.
        let mut reads_only = trace;
        reads_only.retain(|op| op.kind != AuditKind::WriteBucket);
        assert!(slot_reread(&reads_only).is_some(), "{cached} cached levels");
    }
}

#[test]
fn accessed_buckets_cover_the_tree_uniformly() {
    // Repeated accesses to a *single* key must still touch leaves uniformly
    // (each access remaps the key to a fresh random leaf).  We check that
    // leaf-level buckets of the trace are spread over many distinct buckets
    // rather than concentrating on one path.
    for cached in [0, CACHED_LEVELS] {
        let mut oram = build_oram(3, cached);
        let (trace, _) = run_trace(&mut oram, 12, 16, |_, _| 42, 77);
        assert_eq!(cached_bucket_op(&trace, cached), None);

        let geometry = oram.reader.geometry();
        assert_eq!(geometry.cached_levels, cached);
        let leaf_bucket_hits = leaf_histogram(&trace, &geometry);
        let distinct = leaf_bucket_hits.iter().filter(|hits| **hits > 0).count() as u64;
        assert!(
            distinct >= geometry.num_leaves() / 3,
            "{cached} cached levels: accesses concentrated on {distinct} of {} leaf buckets — \
             paths are not uniform",
            geometry.num_leaves()
        );
        // No single leaf bucket should dominate the trace.
        let max_hits = leaf_bucket_hits.iter().copied().max().unwrap_or(0);
        let total_hits: u64 = leaf_bucket_hits.iter().sum();
        assert!(
            (max_hits as f64) < 0.35 * total_hits as f64,
            "{cached} cached levels: one leaf bucket absorbed {max_hits}/{total_hits} accesses"
        );
    }
}

#[test]
fn storage_request_volume_is_independent_of_key_skew() {
    // End-to-end variant through the proxy: the number of storage requests
    // per epoch must not depend on which keys transactions touch.
    use obladi::prelude::*;
    use std::time::Duration;

    let run = |hot: bool| -> (u64, u64) {
        let mut config = ObladiConfig::small_for_tests(1_024);
        config.epoch.read_batches = 2;
        config.epoch.read_batch_size = 8;
        config.epoch.write_batch_size = 16;
        config.epoch.batch_interval = Duration::from_millis(1);
        let db = ObladiDb::open(config).unwrap();
        // Preload.
        for chunk in (0..64u64).collect::<Vec<_>>().chunks(8) {
            let mut txn = db.begin().unwrap();
            for &k in chunk {
                txn.write(k, vec![k as u8; 8]).unwrap();
            }
            txn.commit().unwrap();
        }
        db.store().reset_stats();
        let mut rng = DetRng::new(5);
        for _ in 0..20 {
            let key = if hot { 3 } else { rng.below(64) };
            let mut txn = db.begin().unwrap();
            let _ = txn.read(key);
            let _ = txn.write(key, vec![9; 8]);
            let _ = txn.commit();
        }
        let epochs = db.stats().epochs.max(1);
        let reads = db.store().stats().slot_reads;
        db.shutdown();
        (reads / epochs, epochs)
    };

    let (hot_rate, _) = run(true);
    let (uni_rate, _) = run(false);
    let diff = (hot_rate as f64 - uni_rate as f64).abs();
    let scale = hot_rate.max(uni_rate) as f64;
    assert!(
        diff / scale < 0.3,
        "per-epoch storage request rate leaks skew: hot={hot_rate}, uniform={uni_rate}"
    );
}
