//! Differential obliviousness audit over recorded adversary-view traces.
//!
//! The §9 security argument says the cloud's view — which physical
//! operations arrive, when, how large — is independent of the workload.
//! This experiment makes that claim executable: it runs contrasting
//! workloads (uniform read-only, 50/50 read-write, heavily skewed
//! read-only) against a 3-shard deployment whose stores all record into
//! an adversary-view ring, reduces each run to a [`TraceShape`], and
//! requires every pair to be indistinguishable (per-epoch physical-op
//! rates, sealed payload / wire-frame length sets, epoch cadence, and
//! the slot-read level profile) and every cell to truncate its logs on
//! WAL retention's fixed rhythm (once per `checkpoint_every` epochs per
//! shard).
//!
//! `--mutate` inverts the game to prove the auditor has teeth: it arms
//! the test-only leak in the ORAM client that skips dummy pads (making
//! the physical read rate occupancy-dependent) and *passes* only if the
//! auditor catches the leak.

use crate::fig_shard::shard_template;
use crate::opts::BenchOpts;
use obladi_common::config::ShardConfig;
use obladi_obs::audit::{AuditTolerances, TraceShape};
use obladi_shard::ShardedDb;
use obladi_testkit::audit::{
    cross_check, level_profile, recorded_shape, recording_stores, truncation_rhythm_failure,
};
use obladi_workloads::{run_deployment, YcsbConfig, YcsbWorkload};
use std::time::Instant;

/// Maximum total-variation distance between slot-read level profiles.
/// Uniform path choice over the same tree keeps observed TVD well under
/// this even for 1-second cells; the dummy-skip leak bends the profile
/// far past it.
pub const MAX_LEVEL_TVD: f64 = 0.12;

/// The contrasting workload cells: `(label, read_proportion, zipf_theta)`.
const CONTRASTS: [(&str, f64, f64); 3] =
    [("read", 1.0, 0.6), ("rw50", 0.5, 0.6), ("zipf", 1.0, 0.95)];

/// Shards every cell runs on.
const SHARDS: usize = 3;

/// Runs one recorded cell and reduces it to `(shape, level_profile)`.
fn run_cell(opts: &BenchOpts, depth: u32, label: &str) -> (TraceShape, Vec<u64>) {
    let (_, read_proportion, zipf_theta) = CONTRASTS
        .iter()
        .find(|(name, _, _)| *name == label)
        .copied()
        .unwrap_or((label, 1.0, 0.6));
    let mut config = ShardConfig {
        shards: SHARDS,
        shard: shard_template(opts),
        ..ShardConfig::default()
    };
    config.shard.epoch.pipeline_depth = depth;
    let (stores, ring) = recording_stores(SHARDS);
    let db = ShardedDb::open_with_stores(config, stores).expect("in-memory open cannot fail");
    let workload = YcsbWorkload::new(YcsbConfig {
        num_keys: if opts.full { 4_096 } else { 1_024 },
        read_proportion,
        ops_per_txn: 1,
        zipf_theta,
        value_size: 64,
    });
    let start = Instant::now();
    run_deployment(
        &db,
        &workload,
        opts.clients.max(8),
        opts.duration,
        opts.seed,
    )
    .expect("workload setup failed");
    let stats = db.stats();
    db.shutdown();
    let wall_us = start.elapsed().as_micros() as u64;
    let ops = ring.ops();
    let shape = recorded_shape(label, &ops, ring.dropped(), wall_us, stats.global_epochs);
    let profile = level_profile(&ops);
    (shape, profile)
}

fn print_shapes(depth: u32, shapes: &[(TraceShape, Vec<u64>)]) {
    for (shape, _) in shapes {
        let mut kinds: Vec<String> = Vec::new();
        for (kind, stats) in &shape.kinds {
            kinds.push(format!(
                "{}={:.1}/epoch",
                kind.label(),
                shape.per_epoch(*kind)
            ));
            let _ = stats;
        }
        println!(
            "depth {depth} {:>6}: {} ops over {} epochs ({:.1} epochs/s) [{}]",
            shape.label,
            shape.total_ops,
            shape.epochs,
            shape.epochs_per_sec(),
            kinds.join(", ")
        );
    }
}

/// Runs the differential audit; returns `true` if every contrasting pair
/// is indistinguishable at both pipeline depths.
pub fn run_clean(opts: &BenchOpts) -> bool {
    let tol = AuditTolerances::default();
    let mut all_pass = true;
    for depth in [1u32, 2] {
        let shapes: Vec<(TraceShape, Vec<u64>)> = CONTRASTS
            .iter()
            .map(|(label, _, _)| run_cell(opts, depth, label))
            .collect();
        print_shapes(depth, &shapes);
        let mut failures = cross_check(&shapes, &tol, MAX_LEVEL_TVD);
        // WAL retention's one new op: the same rhythm in every mix.
        let checkpoint_every = shard_template(opts).epoch.checkpoint_every;
        let rhythm = |(shape, _): &(TraceShape, Vec<u64>)| {
            truncation_rhythm_failure(shape, SHARDS, checkpoint_every)
        };
        failures.extend(shapes.iter().filter_map(rhythm));
        if failures.is_empty() {
            println!("depth {depth}: PASS — contrasting workloads are indistinguishable");
        } else {
            all_pass = false;
            println!("depth {depth}: FAIL — adversary can distinguish workloads:");
            for failure in &failures {
                println!("  {failure}");
            }
        }
    }
    all_pass
}

/// Runs the mutation check; returns `true` if the auditor *catches* the
/// injected dummy-pad leak (i.e. the leaky trace fails the comparison).
pub fn run_mutation(opts: &BenchOpts) -> bool {
    let clean = run_cell(opts, 1, "read");
    obladi_oram::set_leak_skip_dummy_pads(true);
    let leaky = run_cell(opts, 1, "read");
    obladi_oram::set_leak_skip_dummy_pads(false);
    let mut leaky = leaky;
    leaky.0.label = "read-leaky".to_string();
    let shapes = vec![clean, leaky];
    print_shapes(1, &shapes);
    let failures = cross_check(&shapes, &AuditTolerances::default(), MAX_LEVEL_TVD);
    if failures.is_empty() {
        println!("mutation check: FAIL — auditor missed the injected dummy-pad leak");
        false
    } else {
        println!("mutation check: PASS — auditor caught the injected leak:");
        for failure in &failures {
            println!("  {failure}");
        }
        true
    }
}

/// Entry point: clean differential audit, or the `--mutate` teeth check.
/// Returns `true` on success (the bin exits nonzero otherwise).
pub fn run_fig_trace_audit(opts: &BenchOpts, mutate: bool) -> bool {
    println!(
        "== Adversary-view trace audit ({}) ==",
        if mutate {
            "mutation check: injected leak must be caught"
        } else {
            "differential: contrasting workloads must be indistinguishable"
        }
    );
    if mutate {
        run_mutation(opts)
    } else {
        run_clean(opts)
    }
}
