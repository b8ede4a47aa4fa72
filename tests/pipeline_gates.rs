//! The pipelined barrier's performance gates: on the shared 3-shard YCSB
//! deployment, pipeline depth 2 must keep committing at parity with depth 1
//! where storage is fast, must stay live on cross-shard transactions, must
//! acknowledge commits early, and every cell must attribute its time to the
//! proxy's phases in a well-formed metrics dump.
//!
//! The bounds were calibrated on release builds of 2-second cells; an
//! unoptimised build measures its own codegen, so the test runs in release
//! only (`cargo test --release --test pipeline_gates`).

mod common;

use obladi_common::stats::take_commit_latencies;
use obladi_obs::RegistrySnapshot;
use obladi_shard::ShardedDb;
use obladi_testkit::audit::recording_stores;
use obladi_workloads::{run_deployment, YcsbConfig, YcsbWorkload};
use std::time::Duration;

const SEED: u64 = 42;
const CLIENTS: usize = 16;
const CELL: Duration = Duration::from_secs(2);

/// The mixes: `(label, read_proportion, ops_per_txn)`, all over 1,024 keys
/// at θ 0.6.  Read-only isolates the pipeline's win (reads keep flowing
/// while a decision is in flight); the 50/50 mix also shows its cost; four
/// keys per transaction are almost always cross-shard on three shards.
const MIXES: [(&str, f64, usize); 3] = [("read", 1.0, 1), ("rw50", 0.5, 1), ("xshard4", 0.5, 4)];

/// Depth-2 committed/s over depth-1 on fast storage (`read`, `rw50`): the
/// pre-split collapse read 0.41, parity reads about 1.0.
const MIN_PARITY: f64 = 0.90;

/// The cross-shard liveness floors on `xshard4`, well under the depth-2
/// plateau the twin rebuilds restored: the ratio of committed/s, the depth-2
/// abort rate, and the depth-2 `pipeline_incompatible` aborts summed over
/// the shards.
const MIN_XSHARD_RATIO: f64 = 0.15;
const MAX_XSHARD_ABORT_RATE: f64 = 0.85;
const MAX_PIPELINE_INCOMPATIBLE: u64 = 300;

/// One measured cell: the front door's counts, the commit-latency median
/// and the registry as the cell left it.
struct Cell {
    label: String,
    committed_per_s: f64,
    abort_rate: f64,
    /// Cell seconds over the global epochs it completed.
    period_ms: f64,
    /// `None` when the cell acknowledged no commit.
    commit_p50_ms: Option<f64>,
    snapshot: RegistrySnapshot,
}

impl Cell {
    fn describe(&self) -> String {
        let p50 = self
            .commit_p50_ms
            .map_or("none".to_string(), |ms| format!("{ms:.2} ms"));
        format!(
            "{}: {:.1} committed/s, abort rate {:.3}, period {:.2} ms, commit p50 {p50}, \
             pipeline_incompatible {}",
            self.label,
            self.committed_per_s,
            self.abort_rate,
            self.period_ms,
            pipeline_incompatible(&self.snapshot)
        )
    }
}

/// Runs one mix at one depth on a fresh deployment.  The registry and the
/// commit-latency recorder are reset first, so the cell sees only its own
/// work; the snapshot is taken after shutdown, so the final write-backs and
/// checkpoints land in it.
fn run_cell((mix, read_proportion, ops_per_txn): (&str, f64, usize), depth: u32) -> Cell {
    obladi_obs::global().reset();
    obladi_obs::trace::global().reset();
    let _ = take_commit_latencies();
    let mut config = common::ycsb_shards(depth);
    config.shard.seed = SEED;
    let (stores, _ring) = recording_stores(config.shards);
    let db = ShardedDb::open_with_stores(config, stores).unwrap();
    let workload = YcsbWorkload::new(YcsbConfig {
        num_keys: 1_024,
        read_proportion,
        ops_per_txn,
        zipf_theta: 0.6,
        value_size: 64,
    });
    let (_, stats) = run_deployment(&db, &workload, CLIENTS, CELL, SEED).unwrap();
    let latencies = take_commit_latencies();
    let global_epochs = db.stats().global_epochs;
    db.shutdown();
    let attempts = stats.committed + stats.aborted;
    Cell {
        label: format!("{mix}/d{depth}"),
        committed_per_s: stats.throughput(),
        abort_rate: stats.aborted as f64 / attempts.max(1) as f64,
        period_ms: CELL.as_secs_f64() * 1_000.0 / global_epochs as f64,
        commit_p50_ms: (!latencies.is_empty()).then(|| latencies.median().as_secs_f64() * 1_000.0),
        snapshot: obladi_obs::global().snapshot(),
    }
}

fn pipeline_incompatible(snapshot: &RegistrySnapshot) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.ends_with(".abort.pipeline_incompatible"))
        .map(|(_, count)| count)
        .sum()
}

/// Early acknowledgement: a client learns its outcome at the decision, not
/// after the write-back, so the median commit wait stays under one period
/// at depth 1 and two at depth 2 (where the decision itself can ride
/// behind the previous epoch's write-back).
fn commit_latency_failure(cell: &Cell, depth: u32) -> Option<String> {
    let Some(p50) = cell.commit_p50_ms else {
        return Some(format!("{}: no commit latency recorded", cell.label));
    };
    if !(cell.period_ms.is_finite() && cell.period_ms > 0.0) {
        return Some(format!("{}: no global epoch completed", cell.label));
    }
    let bound = cell.period_ms * depth as f64;
    (p50 >= bound).then(|| {
        format!(
            "{}: commit p50 {p50:.2} ms not below {bound:.2} ms ({:.2} ms period)",
            cell.label, cell.period_ms
        )
    })
}

/// Per-stage attribution: the cell's snapshot holds a proxy phase span, and
/// its JSON dump passes the structural checks of the report's own test.
fn attribution_failures(cell: &Cell) -> Vec<String> {
    let label = &cell.label;
    let Some((name, phase)) = cell
        .snapshot
        .histograms
        .iter()
        .find(|(name, h)| name.starts_with("proxy.phase.") && h.count > 0)
    else {
        return vec![format!("{label}: no proxy phase span recorded")];
    };
    let json = obladi_obs::report::render_json(&cell.snapshot);
    let checks = [
        (
            "balanced braces",
            json.matches('{').count() == json.matches('}').count(),
        ),
        ("a counters section", json.contains("\"counters\"")),
        ("a gauges section", json.contains("\"gauges\"")),
        ("a histograms section", json.contains("\"histograms\"")),
        ("the phase span", json.contains(&format!("\"{name}\""))),
        (
            "the span's count",
            json.contains(&format!("\"count\": {}", phase.count)),
        ),
        (
            "no trailing comma",
            !json.contains(",\n}") && !json.contains(",\n  }"),
        ),
    ];
    checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(what, _)| format!("{label}: metrics JSON check failed: {what}"))
        .collect()
}

/// One sequential test on purpose: every cell resets the process-global
/// registry and commit-latency recorder.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing bounds are calibrated for release codegen"
)]
fn pipeline_depth_gates() {
    let mut failures = Vec::new();
    let mut cells = Vec::new();
    for mix in MIXES {
        let [d1, d2] = [1, 2].map(|depth| run_cell(mix, depth));
        let ratio = d2.committed_per_s / d1.committed_per_s.max(1e-9);
        let label = mix.0;
        if label == "xshard4" {
            if ratio < MIN_XSHARD_RATIO {
                failures.push(format!(
                    "xshard4: depth-2/depth-1 committed ratio {ratio:.3} < {MIN_XSHARD_RATIO}"
                ));
            }
            if d2.abort_rate > MAX_XSHARD_ABORT_RATE {
                failures.push(format!(
                    "xshard4: depth-2 abort rate {:.3} > {MAX_XSHARD_ABORT_RATE}",
                    d2.abort_rate
                ));
            }
            let incompatible = pipeline_incompatible(&d2.snapshot);
            if incompatible >= MAX_PIPELINE_INCOMPATIBLE {
                failures.push(format!(
                    "xshard4: {incompatible} pipeline_incompatible aborts at depth 2, \
                     not < {MAX_PIPELINE_INCOMPATIBLE}"
                ));
            }
        } else if ratio < MIN_PARITY {
            failures.push(format!(
                "{label}: depth-2/depth-1 committed ratio {ratio:.3} < {MIN_PARITY}"
            ));
        }
        if label == "read" {
            for (cell, depth) in [(&d1, 1), (&d2, 2)] {
                failures.extend(commit_latency_failure(cell, depth));
                failures.extend(attribution_failures(cell));
            }
        }
        cells.extend([d1, d2]);
    }
    let described: Vec<String> = cells.iter().map(Cell::describe).collect();
    assert!(
        failures.is_empty(),
        "pipeline gates failed:\n  {}\ncells:\n  {}",
        failures.join("\n  "),
        described.join("\n  ")
    );
}
