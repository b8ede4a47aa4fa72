//! The obliviousness oracle over adversary-view traces.
//!
//! `obladi_obs::audit` owns the trace format and the differential
//! comparison; this module packages what a *test* needs on top of it:
//! building a deployment whose stores record into one shared ring,
//! reducing recorded runs to [`TraceShape`]s, cross-checking a whole set
//! of contrasting workloads for pairwise indistinguishability, and the
//! positional check that slot reads spread over the tree identically —
//! a real request in a batch must be placed exactly like a dummy pad
//! (§9's "the adversary sees a fixed sequence of uniformly chosen
//! paths").  At the level of one ORAM client it adds §4's two invariants
//! on what the store observed: access-phase paths are uniform over the
//! leaves ([`RecordedOram`], [`leaf_histogram`]) and no slot is read
//! twice between two writes of its bucket ([`slot_reread`]); and of a
//! client that caches the top of its tree, that the store never hears of
//! a cached bucket ([`cached_bucket_op`]).

use obladi_common::config::OramConfig;
use obladi_common::error::Result;
use obladi_common::types::Key;
use obladi_crypto::KeyMaterial;
use obladi_obs::audit::{compare, AuditKind, AuditOp, AuditRing, AuditTolerances, TraceShape};
use obladi_oram::split::new_split;
use obladi_oram::{ExecOptions, NoopPathLogger, OramReader, TreeGeometry, WritebackEngine};
use obladi_storage::{InMemoryStore, RecordingStore, UntrustedStore};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Builds `shards` in-memory stores that all record into one fresh ring
/// (store ids are shard indices), for
/// [`ShardedDb::open_with_stores`](obladi_shard::ShardedDb).
pub fn recording_stores(shards: usize) -> (Vec<Arc<dyn UntrustedStore>>, Arc<AuditRing>) {
    let ring = Arc::new(AuditRing::default());
    let stores = (0..shards)
        .map(|index| {
            Arc::new(RecordingStore::new(
                Arc::new(InMemoryStore::new()),
                ring.clone(),
                index as u32,
            )) as Arc<dyn UntrustedStore>
        })
        .collect();
    (stores, ring)
}

/// Histogram of slot reads over tree levels (root = 0).  Every ORAM read
/// touches one slot per level of a uniformly chosen path, so the level
/// profile is a workload-independent constant — a skipped dummy or a
/// data-dependent path choice bends it.
pub fn level_profile(ops: &[AuditOp]) -> Vec<u64> {
    let mut counts: Vec<u64> = Vec::new();
    for op in ops {
        if op.kind != AuditKind::ReadSlot {
            continue;
        }
        let level = (63 - (op.addr + 1).leading_zeros() as u64) as usize;
        if counts.len() <= level {
            counts.resize(level + 1, 0);
        }
        counts[level] += 1;
    }
    counts
}

/// The shape of a recorded run of `epochs` epochs over `wall_us`, from the
/// `ops` its ring kept and the `dropped` ones it did not.  A run that
/// overflowed the ring left only its tail there: the epochs and the wall
/// time are scaled to that tail by its share of the operations (their rate
/// is the fixed rhythm itself), so per-epoch counts describe the ops kept.
pub fn recorded_shape(
    label: &str,
    ops: &[AuditOp],
    dropped: u64,
    wall_us: u64,
    epochs: u64,
) -> TraceShape {
    let kept = ops.len() as f64 / (ops.len() as u64 + dropped).max(1) as f64;
    let scale = |whole: u64| (whole as f64 * kept).round() as u64;
    TraceShape::from_ops(label, ops, scale(wall_us), scale(epochs))
}

/// The split halves of one ORAM client over a recording in-memory store:
/// the adversary's seat at a single client, for §4's invariants.
pub struct RecordedOram {
    /// The read plane.
    pub reader: OramReader,
    /// The write-back engine.
    pub engine: WritebackEngine,
    /// What the store has been asked since the last [`AuditRing::reset`].
    pub ring: Arc<AuditRing>,
}

impl RecordedOram {
    /// Opens a client over a fresh store that keeps the top
    /// `cached_levels` levels of its tree in its stash (0: none).
    pub fn open(config: OramConfig, seed: u64, cached_levels: u32) -> Result<Self> {
        let (mut stores, ring) = recording_stores(1);
        let (keys, options) = (KeyMaterial::for_tests(seed), ExecOptions::parallel(2));
        let store = stores.remove(0);
        let (reader, engine) = new_split(config, &keys, store, options, seed, cached_levels)?;
        Ok(RecordedOram {
            reader,
            engine,
            ring,
        })
    }

    /// Runs one read batch the way a single thread driving both halves
    /// sequences it and returns what the store saw of each phase: the
    /// batch's own fetches — one uniformly chosen path per request, whatever
    /// the workload (§4) — and then the maintenance that came due plus the
    /// flush, whose eviction reads follow the public reverse-lexicographic
    /// schedule and are no function of the workload.
    pub fn read_batch_by_phase(
        &mut self,
        requests: &[Option<Key>],
    ) -> Result<(Vec<AuditOp>, Vec<AuditOp>)> {
        self.ring.reset();
        self.reader.read_batch(requests, &NoopPathLogger)?;
        let access = self.ring.ops();
        self.engine.run_pending_maintenance(&NoopPathLogger)?;
        self.engine.flush_writes(&NoopPathLogger)?;
        let maintenance = self.ring.ops().split_off(access.len());
        Ok((access, maintenance))
    }
}

/// Histogram of the slot reads in `ops` that landed on leaf-level buckets,
/// by leaf label `0..num_leaves`.  Under the path invariant the leaf-level
/// accesses of a long access-phase trace are uniform over the leaves; this
/// is what the tests feed to [`crate::stats::chi_square_uniform`].
pub fn leaf_histogram(ops: &[AuditOp], geometry: &TreeGeometry) -> Vec<u64> {
    let first_leaf_bucket = geometry.num_leaves() - 1;
    let mut counts = vec![0u64; geometry.num_leaves() as usize];
    for op in ops.iter().filter(|op| op.kind == AuditKind::ReadSlot) {
        if let Some(count) = op
            .addr
            .checked_sub(first_leaf_bucket)
            .and_then(|leaf| counts.get_mut(leaf as usize))
        {
            *count += 1;
        }
    }
    counts
}

/// The bucket invariant of §4 on what the store observed: between two
/// writes (or reverts) of a bucket, no slot of it is read twice.  Returns
/// the first violation.
pub fn slot_reread(ops: &[AuditOp]) -> Option<String> {
    let mut read_since_write: HashMap<(u32, u64), HashSet<u32>> = HashMap::new();
    for op in ops {
        let bucket = (op.store, op.addr);
        match op.kind {
            AuditKind::WriteBucket | AuditKind::RevertBucket => {
                read_since_write.remove(&bucket);
            }
            AuditKind::ReadSlot if !read_since_write.entry(bucket).or_default().insert(op.slot) => {
                return Some(format!(
                    "slot {} of bucket {} (store {}) read twice between two writes of the bucket",
                    op.slot, op.addr, op.store
                ));
            }
            _ => {}
        }
    }
    None
}

/// The first operation in `ops` that addresses a bucket of the top
/// `cached_levels` levels — the levels a client with a tree-top cache keeps
/// to itself, so the store must never hear of them.
pub fn cached_bucket_op(ops: &[AuditOp], cached_levels: u32) -> Option<String> {
    let first_stored = (1u64 << cached_levels) - 1;
    let bucket_kinds = [
        AuditKind::ReadSlot,
        AuditKind::ReadBucket,
        AuditKind::WriteBucket,
        AuditKind::BucketVersion,
        AuditKind::RevertBucket,
    ];
    let op = ops
        .iter()
        .find(|op| bucket_kinds.contains(&op.kind) && op.addr < first_stored)?;
    Some(format!(
        "{} of bucket {} (store {}), one of the top {cached_levels} levels the client caches",
        op.kind.label(),
        op.addr,
        op.store
    ))
}

/// Checks the WAL retention rhythm of one trace: every shard truncates its
/// log once per `checkpoint_every` epochs — behind each acknowledged full
/// checkpoint — whatever the workload.  The count may be off by the cycle
/// the run started in and the one it stopped in, per shard.
pub fn truncation_rhythm_failure(
    shape: &TraceShape,
    shards: usize,
    checkpoint_every: u32,
) -> Option<String> {
    let seen = shape.kind(AuditKind::TruncateLog).count as f64;
    let expected = shards as f64 * shape.epochs as f64 / f64::from(checkpoint_every);
    let slack = 2.0 * shards as f64;
    ((seen - expected).abs() > slack).then(|| {
        format!(
            "{}: {seen} log truncations over {} epochs on {shards} shards, expected one per \
             {checkpoint_every} epochs per shard ({expected:.1} +- {slack})",
            shape.label, shape.epochs
        )
    })
}

/// Pairwise-compares every shape against every other, returning all
/// failure lines (empty means the whole set is indistinguishable).
/// Beyond the shape comparison, the slot-read *level profiles* of each
/// pair must agree in total-variation distance — the positional check
/// that real and dummy reads land on the tree identically.
pub fn cross_check(
    shapes: &[(TraceShape, Vec<u64>)],
    tol: &AuditTolerances,
    max_tvd: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for i in 0..shapes.len() {
        for j in i + 1..shapes.len() {
            let (a, profile_a) = &shapes[i];
            let (b, profile_b) = &shapes[j];
            let verdict = compare(a, b, tol);
            for failure in verdict.failures {
                failures.push(format!("{} vs {}: {}", a.label, b.label, failure));
            }
            if !profile_a.is_empty() || !profile_b.is_empty() {
                let tvd = crate::stats::total_variation_distance(profile_a, profile_b);
                if tvd > max_tvd {
                    failures.push(format!(
                        "{} vs {}: slot-read level profiles diverge (tvd {tvd:.3} > \
                         {max_tvd:.3}) — reads are not positionally uniform",
                        a.label, b.label
                    ));
                }
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_op(bucket: u64) -> AuditOp {
        AuditOp {
            at_us: 0,
            store: 0,
            kind: AuditKind::ReadSlot,
            addr: bucket,
            slot: 0,
            payload_len: 64,
            req_frame: 26,
            resp_frame: 82,
        }
    }

    #[test]
    fn level_profile_counts_heap_levels() {
        // Root (level 0), both level-1 buckets, one level-2 bucket.
        let ops = vec![read_op(0), read_op(1), read_op(2), read_op(3)];
        let profile = level_profile(&ops);
        assert_eq!(profile, vec![1, 2, 1]);
    }

    #[test]
    fn a_slot_may_be_read_again_only_behind_a_write_of_its_bucket() {
        let write = |bucket| AuditOp {
            kind: AuditKind::WriteBucket,
            ..read_op(bucket)
        };
        let other_slot = AuditOp {
            slot: 1,
            ..read_op(3)
        };
        let other_store = AuditOp {
            store: 1,
            ..read_op(3)
        };
        let fine = [read_op(3), other_slot, other_store, read_op(4)];
        assert_eq!(slot_reread(&fine), None);
        assert_eq!(slot_reread(&[read_op(3), write(3), read_op(3)]), None);
        let twice = slot_reread(&[read_op(3), write(4), read_op(3)]);
        assert!(twice.unwrap().contains("slot 0 of bucket 3"));
    }

    #[test]
    fn a_bucket_op_above_the_first_stored_level_is_reported() {
        let kind = |kind, bucket| AuditOp {
            kind,
            ..read_op(bucket)
        };
        // Two cached levels: buckets 0-2 never reach the store.
        let stored = [
            read_op(3),
            kind(AuditKind::WriteBucket, 6),
            kind(AuditKind::PutMeta, 0),
        ];
        assert_eq!(cached_bucket_op(&stored, 2), None);
        assert_eq!(cached_bucket_op(&[read_op(0)], 0), None);
        for op in [
            AuditKind::ReadSlot,
            AuditKind::RevertBucket,
            AuditKind::BucketVersion,
        ] {
            let seen = cached_bucket_op(&[read_op(5), kind(op, 2)], 2);
            assert!(seen.unwrap().contains("of bucket 2"), "{op:?}");
        }
    }

    #[test]
    fn leaf_histogram_counts_leaf_level_slot_reads_only() {
        // Four leaves: buckets 3..=6 of a seven-bucket tree.
        let geometry = TreeGeometry::with_levels(3);
        assert_eq!(geometry.num_leaves(), 4);
        let mut log = read_op(5);
        log.kind = AuditKind::AppendLog;
        let ops = [
            read_op(0),
            read_op(2),
            read_op(3),
            read_op(6),
            read_op(6),
            log,
        ];
        assert_eq!(leaf_histogram(&ops, &geometry), vec![1, 0, 0, 2]);
    }

    #[test]
    fn level_profile_ignores_other_kinds() {
        let mut op = read_op(0);
        op.kind = AuditKind::AppendLog;
        assert!(level_profile(&[op]).is_empty());
    }

    #[test]
    fn cross_check_flags_bent_level_profiles() {
        // Same shape, but one trace reads only the root: positionally
        // distinguishable even though counts and lengths agree.
        let flat: Vec<AuditOp> = (0..300).map(|i| read_op(i % 7)).collect();
        let bent: Vec<AuditOp> = (0..300).map(|_| read_op(0)).collect();
        let shapes = vec![
            (
                TraceShape::from_ops("flat", &flat, 1_000_000, 10),
                level_profile(&flat),
            ),
            (
                TraceShape::from_ops("bent", &bent, 1_000_000, 10),
                level_profile(&bent),
            ),
        ];
        let failures = cross_check(&shapes, &AuditTolerances::default(), 0.1);
        assert!(
            failures.iter().any(|f| f.contains("level profiles")),
            "{failures:?}"
        );
    }

    #[test]
    fn a_recorded_shape_counts_the_epochs_and_time_of_the_kept_tail() {
        let ops: Vec<AuditOp> = (0..300).map(|i| read_op(i % 7)).collect();
        let whole = recorded_shape("whole", &ops, 0, 1_000_000, 40);
        assert_eq!((whole.epochs, whole.wall_us), (40, 1_000_000));
        // A quarter of the run kept: a quarter of its epochs and time.
        let tail = recorded_shape("tail", &ops, 900, 1_000_000, 40);
        assert_eq!((tail.epochs, tail.wall_us), (10, 250_000));
        assert_eq!(tail.per_epoch(AuditKind::ReadSlot), 30.0);
    }

    #[test]
    fn truncation_rhythm_is_one_per_checkpoint_cycle_per_shard() {
        let trace = |truncations: u64| {
            let mut op = read_op(0);
            op.kind = AuditKind::TruncateLog;
            let ops = vec![op; truncations as usize];
            TraceShape::from_ops("t", &ops, 1_000_000, 40)
        };
        // 40 epochs, 2 shards, a full checkpoint every 4th: 20 cuts.
        assert_eq!(truncation_rhythm_failure(&trace(20), 2, 4), None);
        assert_eq!(truncation_rhythm_failure(&trace(17), 2, 4), None);
        assert!(truncation_rhythm_failure(&trace(0), 2, 4).is_some());
        assert!(truncation_rhythm_failure(&trace(40), 2, 4).is_some());
    }

    #[test]
    fn cross_check_accepts_identical_sets() {
        let ops: Vec<AuditOp> = (0..300).map(|i| read_op(i % 7)).collect();
        let shapes: Vec<(TraceShape, Vec<u64>)> = ["a", "b", "c"]
            .iter()
            .map(|label| {
                (
                    TraceShape::from_ops(label, &ops, 1_000_000, 10),
                    level_profile(&ops),
                )
            })
            .collect();
        let failures = cross_check(&shapes, &AuditTolerances::default(), 0.05);
        assert!(failures.is_empty(), "{failures:?}");
    }
}
