//! End-to-end adversary-view audit, the repository's obliviousness gate: a
//! sharded deployment over recording stores must produce indistinguishable
//! traces under contrasting workloads and under contrasting offered loads
//! at pipeline depths 1 and 2, and the auditor must catch an injected
//! obliviousness leak at both depths.
//!
//! Complements `tests/obliviousness.rs` (the same recorder under one ORAM
//! client driven by hand): here it sits at the storage boundary of whole
//! deployments — the op kinds, physical addresses, sealed payload lengths,
//! wire-frame sizes and timing the *cloud* would see — and the
//! differential comparison is the testkit's standing oracle.  Every cell is
//! also held to §4's bucket invariant and to WAL retention's truncation
//! rhythm on what its stores observed, and to the tree-top cache: each
//! proxy caches the top levels of its tree, and no store op and no access
//! may reach them.

mod common;

use obladi_common::config::ShardConfig;
use obladi_obs::audit::{AuditTolerances, TraceShape};
use obladi_shard::ShardedDb;
use obladi_testkit::audit::{
    cached_bucket_op, cross_check, level_profile, recorded_shape, recording_stores, slot_reread,
    truncation_rhythm_failure,
};
use obladi_workloads::{run_closed_loop, Workload, YcsbConfig, YcsbWorkload};
use std::time::{Duration, Instant};

/// Maximum total-variation distance between slot-read level profiles.
/// Uniform path choice over the same tree keeps it well under this; the
/// dummy-skip leak bends the profile far past it.
const MAX_LEVEL_TVD: f64 = 0.12;

/// The contrasting workloads: `(label, read_proportion, zipf_theta)` —
/// uniform read-only, 50/50 read-write, skewed read-only.
const CONTRASTS: [(&str, f64, f64); 3] =
    [("read", 1.0, 0.6), ("rw50", 0.5, 0.6), ("zipf", 1.0, 0.95)];

/// The offered loads of the load contrast: one client, which leaves nearly
/// every slot a dummy, and enough to fill every batch of [`run_load_cell`].
const LOADS: [usize; 2] = [1, 96];

/// A recorded cell: its adversary-view shape and slot-read level profile.
type Cell = (TraceShape, Vec<u64>);

/// Runs one workload-contrast cell: 16 clients for 1 s on the shared
/// deployment.
fn run_cell(depth: u32, contrast: (&str, f64, f64), failures: &mut Vec<String>) -> Cell {
    let (label, read_proportion, zipf_theta) = contrast;
    let label = format!("{label}/d{depth}");
    let config = common::ycsb_shards(depth);
    let mix = (read_proportion, zipf_theta);
    record(label, config, mix, 16, Duration::from_secs(1), failures)
}

/// Runs one load-contrast cell: `clients` for 2 s of uniform reads on the
/// shared deployment with a Δ grid slow enough (8-slot batches 20 ms apart)
/// that [`LOADS`]' larger client count fills every batch.  Batches leave
/// only on the grid, so the store must not tell the loads apart by epoch
/// cadence or by any per-kind rate.
fn run_load_cell(depth: u32, clients: usize, failures: &mut Vec<String>) -> Cell {
    let label = format!("load-{clients}/d{depth}");
    let mut config = common::ycsb_shards(depth);
    config.shard.epoch.batch_interval = Duration::from_millis(20);
    config.shard.epoch.read_batch_size = 8;
    let (_, read_proportion, zipf_theta) = CONTRASTS[0];
    let (mix, run_for) = ((read_proportion, zipf_theta), Duration::from_secs(2));
    record(label, config, mix, clients, run_for, failures)
}

/// Records one cell — a YCSB burst of `clients` for `run_for`, with the
/// `(read_proportion, zipf_theta)` of `mix`, against a fresh deployment
/// whose stores share an audit ring — and adds to `failures` whatever
/// breaks §4's bucket invariant, the truncation rhythm or the tree-top
/// cache in it.  The trace starts after the workload's load phase, which is
/// the same in every cell and would only dilute a contrast.
fn record(
    label: String,
    config: ShardConfig,
    mix: (f64, f64),
    clients: usize,
    run_for: Duration,
    failures: &mut Vec<String>,
) -> Cell {
    let (read_proportion, zipf_theta) = mix;
    let (shards, checkpoint_every) = (config.shards, config.shard.epoch.checkpoint_every);
    let cached = obladi_core::proxy::cached_levels(&config.shard);
    if cached == 0 {
        failures.push(format!("{label}: the proxies cache no tree level"));
    }
    let skips = || -> Vec<u64> {
        let level = |l| format!("oram.split.exhausted_skips.level_{l}");
        let counter = |l| obladi_obs::global().counter(&level(l)).get();
        (0..cached).map(counter).collect()
    };
    let cached_skips = skips();
    let (stores, ring) = recording_stores(shards);
    let db = ShardedDb::open_with_stores(config, stores).unwrap();
    let workload = YcsbWorkload::new(YcsbConfig {
        num_keys: 1_024,
        read_proportion,
        ops_per_txn: 1,
        zipf_theta,
        value_size: 64,
    });
    workload.setup(&db).unwrap();
    ring.reset();
    let (start, loaded) = (Instant::now(), db.stats().global_epochs);
    run_closed_loop(&db, &workload, clients, run_for, 42);
    let epochs = db.stats().global_epochs - loaded;
    db.shutdown();
    let wall_us = start.elapsed().as_micros() as u64;
    let ops = ring.ops();
    assert!(!ops.is_empty(), "recorder captured nothing for {label}");
    let shape = recorded_shape(&label, &ops, ring.dropped(), wall_us, epochs);
    failures.extend(slot_reread(&ops).map(|reread| format!("{label}: {reread}")));
    failures.extend(cached_bucket_op(&ops, cached).map(|op| format!("{label}: {op}")));
    if skips() != cached_skips {
        failures.push(format!(
            "{label}: an access skipped a bucket of the {cached} cached levels"
        ));
    }
    failures.extend(truncation_rhythm_failure(&shape, shards, checkpoint_every));
    (shape, level_profile(&ops))
}

/// One line per cell: its per-kind per-epoch rates, so a failure reads
/// without a re-run.
fn describe(cells: &[Cell]) -> String {
    let lines: Vec<String> = cells
        .iter()
        .map(|(shape, _)| {
            let rates: Vec<String> = shape
                .kinds
                .iter()
                .filter(|(_, kind)| kind.count > 0)
                .map(|(kind, _)| format!("{}={:.1}/epoch", kind.label(), shape.per_epoch(*kind)))
                .collect();
            format!(
                "{}: {} ops over {} epochs in {} ms [{}]",
                shape.label,
                shape.total_ops,
                shape.epochs,
                shape.wall_us / 1_000,
                rates.join(", ")
            )
        })
        .collect();
    lines.join("\n  ")
}

/// One sequential test on purpose: the leak switch is process-wide, so a
/// leaky cell must not overlap a clean one.
#[test]
fn adversary_view_audit_end_to_end() {
    let tol = AuditTolerances::default();
    let mut failures = Vec::new();
    let mut cells = Vec::new();
    for depth in [1, 2] {
        // Differential: the contrasting workloads must be indistinguishable.
        let clean: Vec<Cell> = CONTRASTS
            .iter()
            .map(|&contrast| run_cell(depth, contrast, &mut failures))
            .collect();
        failures.extend(cross_check(&clean, &tol, MAX_LEVEL_TVD));

        // Load: a full batch of queued reads must not speed the clock.
        let loads: Vec<Cell> = LOADS
            .iter()
            .map(|&clients| run_load_cell(depth, clients, &mut failures))
            .collect();
        failures.extend(cross_check(&loads, &tol, MAX_LEVEL_TVD));
        cells.extend(loads);

        // Mutation: skipping dummy pads makes the physical read rate
        // occupancy-dependent; against the clean `read` cell the auditor
        // must catch it, or the differential check has no teeth.
        let (_, read_proportion, zipf_theta) = CONTRASTS[0];
        obladi_oram::set_leak_skip_dummy_pads(true);
        let leaky = run_cell(
            depth,
            ("read-leaky", read_proportion, zipf_theta),
            &mut failures,
        );
        obladi_oram::set_leak_skip_dummy_pads(false);
        if cross_check(&[clean[0].clone(), leaky.clone()], &tol, MAX_LEVEL_TVD).is_empty() {
            failures.push(format!(
                "depth {depth}: auditor missed the injected dummy-pad leak"
            ));
        }
        cells.extend(clean);
        cells.push(leaky);
    }
    assert!(
        failures.is_empty(),
        "adversary-view audit failed:\n  {}\ncells:\n  {}",
        failures.join("\n  "),
        describe(&cells)
    );
}
