//! In-process vs remote-socket storage: what the process boundary costs,
//! and how much client-side pipelining buys back.
//!
//! The paper's proxy pays a network round trip for every ORAM slot it
//! touches, and survives that only because requests are batched; the
//! reproduction's `RemoteStore` client reproduces the trick by
//! multiplexing all executor threads onto one framed connection and
//! flushing whole bursts at once.  This experiment drives the same YCSB
//! load through a sharded deployment twice per mix — storage as
//! in-process trait objects, then storage across real sockets — and
//! records committed throughput plus the measured `requests / flushes`
//! ratio (`> 1` means concurrent requests genuinely shared wire
//! submissions).  Results go to stdout and `BENCH_transport.json`.

use crate::harness::{fmt1, host_json, print_header, print_row};
use crate::opts::BenchOpts;
use crate::profiles::StorageProfile;
use obladi_common::config::{ObladiConfig, ShardConfig};
use obladi_shard::ShardedDb;
use obladi_workloads::{run_deployment, YcsbConfig, YcsbWorkload};
use std::time::Duration;

/// Shard count of the transport experiment (small: the point is the
/// storage boundary, not scale-out).
const SHARDS: usize = 2;

fn shard_template(opts: &BenchOpts) -> ObladiConfig {
    let mut config = ObladiConfig::small_for_tests(if opts.full { 4_096 } else { 1_024 });
    config.oram.block_size = 192;
    config.oram.max_stash = 4_096;
    config.epoch.batch_interval = Duration::from_millis(1);
    config.epoch.read_batches = 4;
    config.epoch.read_batch_size = if opts.full { 64 } else { 32 };
    config.epoch.write_batch_size = if opts.full { 128 } else { 64 };
    // The pipelining ratio is executor concurrency made visible on the
    // wire: size the pool like a deployment, not like a unit test.
    config.epoch.executor_threads = 8;
    config.seed = opts.seed;
    config
}

/// One measured cell.
struct TransportCell {
    backend: String,
    mode: &'static str,
    mix: &'static str,
    committed_per_s: f64,
    abort_rate: f64,
    global_epochs: u64,
    requests: u64,
    flushes: u64,
    requests_per_flush: f64,
}

/// Runs the in-process vs remote-socket sweep over two YCSB mixes.
pub fn run_fig_transport(opts: &BenchOpts) {
    print_header(
        "Transport — in-process vs remote-socket storage",
        &[
            "backend",
            "mix",
            "committed_txn_s",
            "abort_rate",
            "global_epochs",
            "req_per_flush",
        ],
    );
    let clients = opts.clients.max(16);
    let mut cells: Vec<TransportCell> = Vec::new();
    for (mix, read_proportion) in [("read", 1.0f64), ("rw50", 0.5)] {
        let workload = YcsbWorkload::new(YcsbConfig {
            num_keys: if opts.full { 4_096 } else { 1_024 },
            read_proportion,
            ops_per_txn: 1,
            zipf_theta: 0.6,
            value_size: 64,
        });
        for profile in [StorageProfile::Memory, StorageProfile::RemoteSocket] {
            let backend = profile.name();
            let built = match profile.build(SHARDS, opts.seed) {
                Ok(built) => built,
                Err(err) => {
                    print_row(&[
                        backend,
                        mix.to_string(),
                        format!("failed: {err}"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                    continue;
                }
            };
            let config = ShardConfig {
                shards: SHARDS,
                shard: shard_template(opts),
                ..ShardConfig::default()
            };
            let db = match ShardedDb::open_with_stores(config, built.stores.clone()) {
                Ok(db) => db,
                Err(err) => {
                    print_row(&[
                        backend,
                        mix.to_string(),
                        format!("failed: {err}"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                    built.shutdown();
                    continue;
                }
            };
            // Measure the transport counters over the loaded window only:
            // tree initialisation at open is sequential-ish and would
            // dilute the pipelining ratio the run is demonstrating.
            let before = built.transport_stats();
            let (_, stats) = run_deployment(&db, &workload, clients, opts.duration, opts.seed)
                .expect("workload setup failed");
            let after = built.transport_stats();
            let sharded = db.stats();
            let total = stats.committed + stats.aborted;
            let abort_rate = if total == 0 {
                0.0
            } else {
                stats.aborted as f64 / total as f64
            };
            let window = obladi_transport::TransportStats {
                requests: after.requests - before.requests,
                flushes: after.flushes - before.flushes,
                ..Default::default()
            };
            let (requests, flushes) = (window.requests, window.flushes);
            let requests_per_flush = window.requests_per_flush();
            print_row(&[
                backend.clone(),
                mix.to_string(),
                fmt1(stats.throughput()),
                format!("{abort_rate:.3}"),
                sharded.global_epochs.to_string(),
                if flushes == 0 {
                    "-".into()
                } else {
                    format!("{requests_per_flush:.2}")
                },
            ]);
            cells.push(TransportCell {
                backend,
                mode: built.mode,
                mix,
                committed_per_s: stats.throughput(),
                abort_rate,
                global_epochs: sharded.global_epochs,
                requests,
                flushes,
                requests_per_flush,
            });
            // `daemon.*` metrics (op-log compaction pauses among them) join
            // the local registry for `--metrics-out`.
            db.publish_daemon_metrics();
            db.shutdown();
            built.shutdown();
        }
    }
    write_transport_json(opts, &cells);
}

/// Records the sweep as `BENCH_transport.json` (hand-formatted: the
/// vendored serde shim has no serializer).
fn write_transport_json(opts: &BenchOpts, cells: &[TransportCell]) {
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"bench\": \"transport\",\n  \"shards\": {SHARDS},\n  \"duration_s\": {:.1},\n  \
         \"seed\": {},\n  \"host\": {},\n  \"cells\": [\n",
        opts.duration.as_secs_f64(),
        opts.seed,
        host_json()
    ));
    for (index, cell) in cells.iter().enumerate() {
        let comma = if index + 1 == cells.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"mode\": \"{}\", \"mix\": \"{}\", \
             \"committed_per_s\": {:.1}, \"abort_rate\": {:.3}, \"global_epochs\": {}, \
             \"requests\": {}, \"flushes\": {}, \"requests_per_flush\": {:.2}}}{comma}\n",
            cell.backend,
            cell.mode,
            cell.mix,
            cell.committed_per_s,
            cell.abort_rate,
            cell.global_epochs,
            cell.requests,
            cell.flushes,
            cell.requests_per_flush,
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_transport.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(err) => eprintln!("could not write {path}: {err}"),
    }
}
