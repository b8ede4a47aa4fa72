//! Shard-count scale-out sweep (companion to Figure 10a's parallelism
//! study).
//!
//! Figure 10a shows how far *intra*-tree parallelism carries one ORAM;
//! this experiment measures what *inter*-tree parallelism adds: the same
//! YCSB load is driven through the sharded front door at increasing shard
//! counts, with a single unsharded proxy as the 1-shard baseline.  Each
//! shard runs a full independent proxy+ORAM pipeline, so the sweep exposes
//! both the scaling win (independent epoch pipelines) and the new costs
//! (the global epoch barrier, cross-shard commit votes).

use crate::harness::{
    fmt1, host_json, print_header, print_row, write_metrics_out, write_trace_out,
};
use crate::opts::BenchOpts;
use crate::profiles::StorageProfile;
use obladi_common::config::{ObladiConfig, ShardConfig};
use obladi_common::stats::LatencyRecorder;
use obladi_obs::audit::AuditRing;
use obladi_obs::HistogramSnapshot;
use obladi_shard::ShardedDb;
use obladi_storage::{RecordingStore, UntrustedStore};
use obladi_workloads::{
    run_deployment, SmallBankConfig, SmallBankWorkload, Workload, YcsbConfig, YcsbWorkload,
};
use std::sync::Arc;
use std::time::Duration;

/// Shard counts swept by the experiment (1 = unsharded baseline topology).
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

pub(crate) fn shard_template(opts: &BenchOpts) -> ObladiConfig {
    let mut config = ObladiConfig::small_for_tests(if opts.full { 8_192 } else { 2_048 });
    // YCSB rows (64-byte values plus row framing) must fit one ORAM block.
    config.oram.block_size = 192;
    config.oram.max_stash = 4_096;
    config.epoch.batch_interval = Duration::from_millis(1);
    config.epoch.read_batches = 4;
    config.epoch.read_batch_size = if opts.full { 64 } else { 32 };
    config.epoch.write_batch_size = if opts.full { 128 } else { 64 };
    config.seed = opts.seed;
    config
}

fn workload(opts: &BenchOpts, ops_per_txn: usize) -> YcsbWorkload {
    YcsbWorkload::new(YcsbConfig {
        num_keys: if opts.full { 4_096 } else { 1_024 },
        read_proportion: 0.5,
        ops_per_txn,
        zipf_theta: 0.6,
        value_size: 64,
    })
}

/// Runs one mix × shard-count cell against the shared Memory storage
/// profile, printing the row.
fn run_scaleout_cell<W: Workload>(opts: &BenchOpts, mix: &str, workload: &W, shards: usize) {
    let clients = opts.clients.max(32);
    let config = ShardConfig {
        shards,
        shard: shard_template(opts),
        ..ShardConfig::default()
    };
    let built = StorageProfile::Memory
        .build(shards, opts.seed)
        .expect("memory profile cannot fail");
    let db = match ShardedDb::open_with_stores(config, built.stores.clone()) {
        Ok(db) => db,
        Err(err) => {
            print_row(&[
                mix.to_string(),
                format!("obladi-{shards}shards"),
                format!("failed: {err}"),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
            return;
        }
    };
    let (label, stats) = run_deployment(&db, workload, clients, opts.duration, opts.seed)
        .expect("workload setup failed");
    let sharded = db.stats();
    let total = stats.committed + stats.aborted;
    let abort_rate = if total == 0 {
        0.0
    } else {
        stats.aborted as f64 / total as f64
    };
    let cross_share = if sharded.committed == 0 {
        0.0
    } else {
        sharded.cross_shard_committed as f64 / sharded.committed as f64
    };
    print_row(&[
        mix.to_string(),
        label,
        fmt1(stats.throughput()),
        format!("{abort_rate:.3}"),
        format!("{cross_share:.3}"),
        sharded.global_epochs.to_string(),
    ]);
    db.shutdown();
}

/// Runs the shard-count sweep, printing committed throughput, abort rate
/// and the share of committed transactions that spanned several shards.
///
/// Two YCSB mixes plus a SmallBank mix are swept.  Single-key YCSB
/// transactions model the partition-friendly traffic sharding exists for:
/// each transaction runs entirely on one shard, so independent epoch
/// pipelines multiply capacity.  Four-key YCSB is the adversarial mix: a
/// uniform router makes nearly every transaction cross-shard, exposing the
/// cost of the global epoch barrier and the unanimous commit vote.
/// SmallBank sits between them — realistic short transactions over
/// checking/savings account pairs (2–4 keys, hotspot-skewed), the first
/// step on the ROADMAP's "scale-out benchmarking depth" item.
pub fn run_fig_shard(opts: &BenchOpts) {
    print_header(
        "Shard scale-out — YCSB + SmallBank throughput vs shard count",
        &[
            "mix",
            "deployment",
            "committed_txn_s",
            "abort_rate",
            "cross_shard_share",
            "global_epochs",
        ],
    );
    for (mix, ops_per_txn) in [("1key", 1usize), ("4key", 4)] {
        let workload = workload(opts, ops_per_txn);
        for shards in SHARD_COUNTS {
            run_scaleout_cell(opts, mix, &workload, shards);
        }
    }
    let smallbank = SmallBankWorkload::new(SmallBankConfig {
        num_accounts: if opts.full { 1_024 } else { 256 },
        hotspot_fraction: 0.1,
        hotspot_probability: 0.25,
    });
    for shards in SHARD_COUNTS {
        run_scaleout_cell(opts, "smallbank", &smallbank, shards);
    }
}

/// Storage shapes swept by the pipeline experiment (from the shared
/// [`StorageProfile`] catalogue).  The skewed shape measures the barrier
/// pipeline's win (one slow shard holds the rendezvous open; at depth 2
/// the fast shards' next-epoch reads run inside that window), and — with
/// the split ORAM client — the uniform-latency and remote-socket shapes
/// now measure the *write-back* overlap: every shard's epoch `N` flush
/// round-trips (most expensive over the spawned `obladi-stored` daemons)
/// run while its own epoch `N+1` reads execute, instead of serializing
/// behind one client lock.
fn pipeline_profiles() -> Vec<StorageProfile> {
    vec![
        StorageProfile::Memory,
        StorageProfile::UniformLatency(Duration::from_micros(250)),
        StorageProfile::OneSlowShard {
            shard: 2,
            read_latency: Duration::from_millis(2),
        },
        StorageProfile::RemoteSocket,
    ]
}

/// One measured cell of the pipeline sweep.
struct PipelineCell {
    profile: String,
    mix: &'static str,
    depth: u32,
    committed_per_s: f64,
    abort_rate: f64,
    global_epochs: u64,
    epoch_period_ms: f64,
    /// Client-observed commit latency (commit request → acknowledged
    /// outcome) over the cell's committed transactions.
    commit_latency: LatencyRecorder,
    /// Per-stage time attribution: `(metric, snapshot)` for every pipeline
    /// phase histogram this cell exercised (proxy phases, split-client
    /// waits, the global epoch period).
    phases: Vec<(String, HistogramSnapshot)>,
    /// Abort causes aggregated across shards: `(cause_label, count)`.
    abort_causes: Vec<(String, u64)>,
}

/// Histogram prefixes that constitute the cell's per-stage attribution.
const PHASE_PREFIXES: [&str; 3] = ["proxy.phase.", "oram.split.", "shard.epoch."];

/// Named phase histograms plus aggregated `(cause, count)` abort totals.
type CellAttribution = (Vec<(String, HistogramSnapshot)>, Vec<(String, u64)>);

/// Extracts this cell's phase histograms and abort-cause counters from a
/// registry snapshot taken after the cell ran (the registry is reset before
/// each cell, so everything in the snapshot belongs to it).  Abort counters
/// are named `shard.{index}.abort.{cause}`; they are summed across shards
/// so the breakdown is by cause.
fn attribute_cell(snapshot: &obladi_obs::RegistrySnapshot) -> CellAttribution {
    let phases: Vec<(String, HistogramSnapshot)> = snapshot
        .histograms
        .iter()
        .filter(|(name, h)| h.count > 0 && PHASE_PREFIXES.iter().any(|p| name.starts_with(p)))
        .cloned()
        .collect();
    let mut causes: Vec<(String, u64)> = Vec::new();
    for (name, count) in &snapshot.counters {
        let Some(cause) = name.split(".abort.").nth(1) else {
            continue;
        };
        match causes.iter_mut().find(|(c, _)| c == cause) {
            Some((_, total)) => *total += count,
            None => causes.push((cause.to_string(), *count)),
        }
    }
    causes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    (phases, causes)
}

/// Sweeps storage latency profiles at pipeline depth 1 (stop-the-world
/// barrier) vs depth 2 (overlapped), on a 3-shard deployment under YCSB,
/// comparing the global epoch period and committed throughput.  Results go
/// to stdout and `BENCH_shard_pipeline.json`.
pub fn run_fig_shard_pipeline(opts: &BenchOpts) {
    print_header(
        "Pipelined epoch barrier — epoch period vs storage latency",
        &[
            "profile",
            "mix",
            "pipeline_depth",
            "committed_txn_s",
            "abort_rate",
            "global_epochs",
            "epoch_period_ms",
            "commit_p50_ms",
        ],
    );
    let clients = opts.clients.max(16);
    let shards = 3usize;
    let mut cells: Vec<PipelineCell> = Vec::new();
    // Every store is wrapped in the adversary-view recorder; the ring is
    // reset per cell so `--trace-out` captures the final cell's trace.
    let audit_ring = Arc::new(AuditRing::default());
    // Read-only isolates the pipeline's headline win (reads keep flowing
    // while a decision is in flight, instead of aborting in the parked
    // window); the 50/50 mix also shows its cost (reads of keys the
    // deciding epoch wrote pin to the pre-decision snapshot and wait);
    // 4-key transactions are almost always cross-shard on 3 shards, so
    // xshard4 attributes the cross-shard gap (gate waits, unanimous-vote
    // aborts) stage by stage; zipf is read-only under heavy key skew
    // (θ = 0.95), the contrast workload for the obliviousness auditor.
    for (mix, read_proportion, ops_per_txn, zipf_theta) in [
        ("read", 1.0f64, 1usize, 0.6f64),
        ("rw50", 0.5, 1, 0.6),
        ("xshard4", 0.5, 4, 0.6),
        ("zipf", 1.0, 1, 0.95),
    ] {
        if !opts.mix_selected(mix) {
            continue;
        }
        let workload = YcsbWorkload::new(YcsbConfig {
            num_keys: if opts.full { 4_096 } else { 1_024 },
            read_proportion,
            ops_per_txn,
            zipf_theta,
            value_size: 64,
        });
        for profile in pipeline_profiles() {
            let profile_name = profile.name();
            if !opts.profile_selected(&profile_name) {
                continue;
            }
            for depth in [1u32, 2] {
                // Each cell's snapshot must attribute only its own time,
                // and the commit-latency recorder only its own commits.
                obladi_obs::global().reset();
                obladi_obs::trace::global().reset();
                audit_ring.reset();
                let _ = obladi_common::stats::take_commit_latencies();
                let mut config = ShardConfig {
                    shards,
                    shard: shard_template(opts),
                    ..ShardConfig::default()
                };
                config.shard.epoch.pipeline_depth = depth;
                let built = profile
                    .build(shards, opts.seed)
                    .expect("in-process profiles cannot fail");
                let stores: Vec<Arc<dyn UntrustedStore>> = built
                    .stores
                    .iter()
                    .enumerate()
                    .map(|(index, store)| {
                        Arc::new(RecordingStore::new(
                            store.clone(),
                            audit_ring.clone(),
                            index as u32,
                        )) as Arc<dyn UntrustedStore>
                    })
                    .collect();
                let db = match ShardedDb::open_with_stores(config, stores) {
                    Ok(db) => db,
                    Err(err) => {
                        print_row(&[
                            profile_name.clone(),
                            mix.to_string(),
                            depth.to_string(),
                            format!("failed: {err}"),
                            "-".into(),
                            "-".into(),
                            "-".into(),
                            "-".into(),
                        ]);
                        continue;
                    }
                };
                let (_, stats) = run_deployment(&db, &workload, clients, opts.duration, opts.seed)
                    .expect("workload setup failed");
                let commit_latency = obladi_common::stats::take_commit_latencies();
                let sharded = db.stats();
                let total = stats.committed + stats.aborted;
                let abort_rate = if total == 0 {
                    0.0
                } else {
                    stats.aborted as f64 / total as f64
                };
                let epoch_period_ms = if sharded.global_epochs == 0 {
                    f64::INFINITY
                } else {
                    opts.duration.as_secs_f64() * 1000.0 / sharded.global_epochs as f64
                };
                print_row(&[
                    profile_name.clone(),
                    mix.to_string(),
                    depth.to_string(),
                    fmt1(stats.throughput()),
                    format!("{abort_rate:.3}"),
                    sharded.global_epochs.to_string(),
                    format!("{epoch_period_ms:.2}"),
                    format!("{:.2}", commit_latency.median().as_secs_f64() * 1000.0),
                ]);
                // Pull `daemon.*` metrics from any remote stores into the
                // local registry (as `daemon.{shard}.*`) while the
                // connections are still open, so `--metrics-out` unifies
                // cross-process telemetry.
                db.publish_daemon_metrics();
                db.shutdown();
                built.shutdown();
                // Snapshot after shutdown so final write-backs and
                // checkpoints land in the cell they belong to.
                let (phases, abort_causes) = attribute_cell(&obladi_obs::global().snapshot());
                cells.push(PipelineCell {
                    profile: profile_name.clone(),
                    mix,
                    depth,
                    committed_per_s: stats.throughput(),
                    abort_rate,
                    global_epochs: sharded.global_epochs,
                    epoch_period_ms,
                    commit_latency,
                    phases,
                    abort_causes,
                });
            }
        }
    }
    write_pipeline_json(opts, &cells);
    // The registry still holds the last cell's data; `--metrics-out`
    // captures it (CI's smoke step runs a single-cell sweep), and the
    // audit ring holds the last cell's adversary-view trace.
    write_metrics_out(opts);
    write_trace_out(opts, &audit_ring);
}

/// Records the sweep as `BENCH_shard_pipeline.json` (hand-formatted: the
/// vendored serde shim has no serializer).
fn write_pipeline_json(opts: &BenchOpts, cells: &[PipelineCell]) {
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"shard_pipeline\",\n  \"shards\": 3,\n  \"duration_s\": {:.1},\n  \
         \"seed\": {},\n  \"host\": {},\n  \"cells\": [\n",
        opts.duration.as_secs_f64(),
        opts.seed,
        host_json()
    ));
    for (index, cell) in cells.iter().enumerate() {
        let comma = if index + 1 == cells.len() { "" } else { "," };
        // A zero-epoch cell has an infinite period; `null` keeps the file
        // valid JSON (`inf` would not be).
        let period = if cell.epoch_period_ms.is_finite() {
            format!("{:.2}", cell.epoch_period_ms)
        } else {
            "null".to_string()
        };
        // Client-observed commit latency; `null` for a cell that committed
        // nothing (a zeroed distribution would read as "instant").
        let commit_ms = if cell.commit_latency.is_empty() {
            "null".to_string()
        } else {
            format!(
                "{{\"p50\": {:.2}, \"p99\": {:.2}, \"max\": {:.2}}}",
                cell.commit_latency.median().as_secs_f64() * 1000.0,
                cell.commit_latency.p99().as_secs_f64() * 1000.0,
                cell.commit_latency.max().as_secs_f64() * 1000.0,
            )
        };
        json.push_str(&format!(
            "    {{\"profile\": \"{}\", \"mix\": \"{}\", \"pipeline_depth\": {}, \
             \"committed_per_s\": {:.1}, \"abort_rate\": {:.3}, \"global_epochs\": {}, \
             \"epoch_period_ms\": {period}, \"commit_latency_ms\": {commit_ms},\n",
            cell.profile,
            cell.mix,
            cell.depth,
            cell.committed_per_s,
            cell.abort_rate,
            cell.global_epochs,
        ));
        // Per-stage time attribution: where the cell's milliseconds went.
        json.push_str("     \"phases\": {");
        for (i, (name, h)) in cell.phases.iter().enumerate() {
            let comma = if i + 1 == cell.phases.len() { "" } else { "," };
            json.push_str(&format!(
                "\n       \"{name}\": {{\"count\": {}, \"total_ms\": {:.1}, \"mean_us\": {:.1}, \
                 \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}{comma}",
                h.count,
                h.sum as f64 / 1000.0,
                h.mean(),
                h.p50(),
                h.p99(),
                h.max,
            ));
        }
        json.push_str("},\n");
        json.push_str("     \"abort_causes\": {");
        for (i, (cause, count)) in cell.abort_causes.iter().enumerate() {
            let comma = if i + 1 == cell.abort_causes.len() {
                ""
            } else {
                ","
            };
            json.push_str(&format!("\"{cause}\": {count}{comma}"));
        }
        json.push_str(&format!("}}}}{comma}\n"));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_shard_pipeline.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
}
