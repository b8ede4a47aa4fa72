//! The observability layer's cost budget: the registry and the
//! adversary-view recorder stay on in release builds, so they must cost
//! under 1% of throughput.  The same YCSB load runs with recording enabled
//! and disabled in interleaved rounds (on/off/on/off...); the best round of
//! each arm is compared, since best-of-N is robust to one-sided scheduler
//! noise.
//!
//! Calibrated on release builds only (`cargo test --release --test
//! obs_overhead`).

mod common;

use obladi_shard::ShardedDb;
use obladi_testkit::audit::recording_stores;
use obladi_workloads::{run_deployment, YcsbConfig, YcsbWorkload};
use std::time::Duration;

const SEED: u64 = 42;
const CLIENTS: usize = 16;

/// Interleaved rounds per arm, and the length of each.
const ROUNDS: usize = 5;
const ROUND: Duration = Duration::from_secs(1);

/// Tolerated throughput loss with recording enabled.
const MAX_OVERHEAD: f64 = 0.01;

/// One round under one arm: committed/s of a 50/50 read-write load on one
/// shard over a recording store.  The recorder rides on the same switch, so
/// the enabled arm records every physical op and the disabled arm returns
/// early.
fn run_round(enabled: bool) -> f64 {
    obladi_obs::set_enabled(enabled);
    obladi_obs::global().reset();
    obladi_obs::trace::global().reset();
    let mut config = common::ycsb_shards(2);
    config.shards = 1;
    config.shard.seed = SEED;
    let (stores, _ring) = recording_stores(config.shards);
    let db = ShardedDb::open_with_stores(config, stores).unwrap();
    let workload = YcsbWorkload::new(YcsbConfig {
        num_keys: 1_024,
        read_proportion: 0.5,
        ops_per_txn: 1,
        zipf_theta: 0.6,
        value_size: 64,
    });
    let (_, stats) = run_deployment(&db, &workload, CLIENTS, ROUND, SEED).unwrap();
    db.shutdown();
    stats.throughput()
}

/// One sequential test on purpose: the switch and the registry are
/// process-wide.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing bounds are calibrated for release codegen"
)]
fn metrics_cost_under_one_percent() {
    let rounds: Vec<(f64, f64)> = (0..ROUNDS)
        .map(|_| (run_round(true), run_round(false)))
        .collect();
    obladi_obs::set_enabled(true);
    let best = |arm: fn(&(f64, f64)) -> f64| rounds.iter().map(arm).fold(0.0, f64::max);
    let (best_on, best_off) = (best(|r| r.0), best(|r| r.1));
    let overhead = 1.0 - best_on / best_off.max(f64::MIN_POSITIVE);
    let described: Vec<String> = rounds
        .iter()
        .map(|(on, off)| format!("on {on:.1}/s, off {off:.1}/s"))
        .collect();
    assert!(
        overhead <= MAX_OVERHEAD,
        "metrics overhead {:.2}% exceeds the {:.0}% budget (best on {best_on:.1}/s, \
         best off {best_off:.1}/s)\nrounds:\n  {}",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0,
        described.join("\n  ")
    );
}
