//! End-to-end adversary-view audit: a sharded deployment over recording
//! stores must produce indistinguishable traces under contrasting
//! workloads, and the auditor must catch an injected obliviousness leak.
//!
//! Complements `tests/obliviousness.rs` (the same recorder under one ORAM
//! client driven by hand): here it sits at the storage boundary of whole
//! deployments — the op kinds, physical addresses, sealed payload lengths,
//! wire-frame sizes and timing the *cloud* would see — and the
//! differential comparison is the testkit's standing oracle.  Every cell is
//! also held to §4's bucket invariant on what its stores observed.

use obladi_common::config::{ObladiConfig, ShardConfig};
use obladi_obs::audit::{AuditTolerances, TraceShape};
use obladi_shard::ShardedDb;
use obladi_testkit::audit::{
    cross_check, level_profile, recorded_shape, recording_stores, slot_reread,
    truncation_rhythm_failure,
};
use obladi_workloads::{run_deployment, YcsbConfig, YcsbWorkload};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const MAX_LEVEL_TVD: f64 = 0.12;

fn audit_config(depth: u32) -> ShardConfig {
    // Mirrors the bench sweep's shard template: 64-byte YCSB values (plus
    // row framing) need 192-byte blocks, and the epoch batches must be
    // large enough to absorb the workload's load phase.
    let mut shard = ObladiConfig::small_for_tests(2_048);
    shard.oram.block_size = 192;
    shard.oram.max_stash = 4_096;
    shard.epoch.batch_interval = Duration::from_millis(1);
    shard.epoch.read_batches = 4;
    shard.epoch.read_batch_size = 32;
    shard.epoch.write_batch_size = 64;
    shard.epoch.pipeline_depth = depth;
    ShardConfig {
        shards: SHARDS,
        shard,
        ..ShardConfig::default()
    }
}

/// Runs one recorded cell: a short YCSB burst against a fresh deployment
/// whose stores share an audit ring, reduced to the adversary-view shape.
fn run_cell(
    depth: u32,
    label: &str,
    read_proportion: f64,
    zipf_theta: f64,
) -> (TraceShape, Vec<u64>) {
    let (stores, ring) = recording_stores(SHARDS);
    let db = ShardedDb::open_with_stores(audit_config(depth), stores).unwrap();
    let workload = YcsbWorkload::new(YcsbConfig {
        num_keys: 512,
        read_proportion,
        ops_per_txn: 1,
        zipf_theta,
        value_size: 64,
    });
    let start = Instant::now();
    run_deployment(&db, &workload, 4, Duration::from_millis(700), 7).unwrap();
    let stats = db.stats();
    db.shutdown();
    let wall_us = start.elapsed().as_micros() as u64;
    let ops = ring.ops();
    assert!(!ops.is_empty(), "recorder captured nothing for {label}");
    assert_eq!(slot_reread(&ops), None, "{label}, depth {depth}");
    (
        recorded_shape(label, &ops, ring.dropped(), wall_us, stats.global_epochs),
        level_profile(&ops),
    )
}

/// One sequential test on purpose: the mutation phase arms a process-wide
/// leak knob, so it must not overlap the clean differential phase.
#[test]
fn adversary_view_audit_end_to_end() {
    let tol = AuditTolerances::default();

    // Phase 1 — differential: contrasting workloads (uniform read-only,
    // 50/50 read-write, skewed read-only) must be indistinguishable.
    let shapes = vec![
        run_cell(2, "read", 1.0, 0.6),
        run_cell(2, "rw50", 0.5, 0.6),
        run_cell(2, "zipf", 1.0, 0.95),
    ];
    let failures = cross_check(&shapes, &tol, MAX_LEVEL_TVD);
    assert!(
        failures.is_empty(),
        "contrasting workloads are distinguishable:\n  {}",
        failures.join("\n  ")
    );

    // WAL retention adds one op to the adversary's view, on a rhythm of its
    // own: every shard truncates its log once per `checkpoint_every` epochs
    // in every mix, at depth 1 as at depth 2.
    let mut cells = shapes;
    cells.push(run_cell(1, "read/d1", 1.0, 0.6));
    cells.push(run_cell(1, "rw50/d1", 0.5, 0.6));
    let checkpoint_every = audit_config(1).shard.epoch.checkpoint_every;
    for (shape, _) in &cells {
        let failure = truncation_rhythm_failure(shape, SHARDS, checkpoint_every);
        assert_eq!(failure, None);
    }

    // Phase 2 — mutation: skipping dummy pads makes the physical read
    // rate occupancy-dependent; the auditor must catch it, proving the
    // differential check has teeth.
    let clean = run_cell(2, "read", 1.0, 0.6);
    obladi_oram::set_leak_skip_dummy_pads(true);
    let mut leaky = run_cell(2, "read", 1.0, 0.6);
    obladi_oram::set_leak_skip_dummy_pads(false);
    leaky.0.label = "read-leaky".to_string();
    let failures = cross_check(&[clean, leaky], &tol, MAX_LEVEL_TVD);
    assert!(
        !failures.is_empty(),
        "auditor missed the injected dummy-pad leak"
    );
}
