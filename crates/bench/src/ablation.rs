//! Ablation study over Obladi's design choices.
//!
//! The paper's evaluation sweeps epochs, batch sizes and backends; this
//! table isolates the individual proxy-level mechanisms DESIGN.md calls out
//! ("Proxy mechanisms") by switching exactly one of them off (or to a deliberately bad value) at
//! a time and re-running the same YCSB mix on the same backend:
//!
//! * `baseline` — the tuned configuration;
//! * `no-durability` — path logging and checkpointing disabled (upper
//!   bound on what durability costs, Table 11b's "Slowdown" column);
//! * `sequential-exec` — a single executor thread, i.e. no intra- or
//!   inter-request parallelism inside a batch (§7);
//! * `checkpoint-every-epoch` — full metadata checkpoints instead of deltas
//!   amortised over many epochs (Figure 11a's x = 1);
//! * `starved-reads` — too few read batches for the transaction's read
//!   chain, showing why §6.4 sizes `R` to the workload;
//! * `oversized-writes` — a write batch far larger than the write rate,
//!   paying padding for nothing.
//!
//! Reported per variant: committed throughput, mean / p99 latency, abort
//! rate, and physical ORAM requests per committed transaction.

use crate::harness::{fmt1, print_header, print_row};
use crate::opts::BenchOpts;
use obladi_common::config::{BackendKind, EpochConfig, ObladiConfig, OramConfig};
use obladi_core::proxy::ObladiDb;
use obladi_workloads::driver::{run_closed_loop, Workload};
use obladi_workloads::ycsb::{YcsbConfig, YcsbWorkload};
use std::time::Duration;

/// One ablation variant: a name and the configuration it runs with.
struct Variant {
    name: &'static str,
    config: ObladiConfig,
}

fn base_epoch_config() -> EpochConfig {
    EpochConfig::default()
        .with_read_batches(6)
        .with_read_batch_size(48)
        .with_write_batch_size(64)
        .with_batch_interval(Duration::from_millis(2))
        .with_executor_threads(32)
        .with_checkpoint_every(16)
        .with_durability(true)
}

fn base_config(opts: &BenchOpts) -> ObladiConfig {
    let num_keys = ycsb_config(opts).num_keys;
    ObladiConfig {
        oram: OramConfig::for_capacity(num_keys * 2, 16)
            .with_block_size(128)
            .with_max_stash(8_192),
        epoch: base_epoch_config(),
        backend: BackendKind::Server,
        latency_scale: opts.latency_scale,
        seed: opts.seed,
    }
}

fn ycsb_config(opts: &BenchOpts) -> YcsbConfig {
    YcsbConfig {
        num_keys: if opts.full { 10_000 } else { 1_000 },
        read_proportion: 0.5,
        ops_per_txn: 3,
        zipf_theta: 0.9,
        value_size: 64,
    }
}

fn variants(opts: &BenchOpts) -> Vec<Variant> {
    let base = base_config(opts);

    let mut no_durability = base.clone();
    no_durability.epoch.durability = false;

    let mut sequential = base.clone();
    sequential.epoch.executor_threads = 1;

    let mut checkpoint_heavy = base.clone();
    checkpoint_heavy.epoch.checkpoint_every = 1;

    let mut starved_reads = base.clone();
    starved_reads.epoch.read_batches = 1;

    let mut oversized_writes = base.clone();
    oversized_writes.epoch.write_batch_size = base.epoch.write_batch_size * 8;

    vec![
        Variant {
            name: "baseline",
            config: base,
        },
        Variant {
            name: "no-durability",
            config: no_durability,
        },
        Variant {
            name: "sequential-exec",
            config: sequential,
        },
        Variant {
            name: "checkpoint-every-epoch",
            config: checkpoint_heavy,
        },
        Variant {
            name: "starved-reads",
            config: starved_reads,
        },
        Variant {
            name: "oversized-writes",
            config: oversized_writes,
        },
    ]
}

/// Runs one variant and returns its table row.
fn run_variant(variant: &Variant, opts: &BenchOpts) -> Vec<String> {
    let workload = YcsbWorkload::new(ycsb_config(opts));
    let db = ObladiDb::open(variant.config.clone()).expect("failed to open proxy");
    workload.setup(&db).expect("workload setup failed");

    let stats = run_closed_loop(&db, &workload, opts.clients, opts.duration, opts.seed);
    let oram = db.oram_stats().unwrap_or_default();
    let physical = oram.physical_reads + oram.physical_writes;
    let per_txn = if stats.committed > 0 {
        physical as f64 / stats.committed as f64
    } else {
        f64::NAN
    };
    db.shutdown();

    vec![
        variant.name.to_string(),
        fmt1(stats.throughput()),
        fmt1(stats.latency.mean().as_secs_f64() * 1000.0),
        fmt1(stats.latency.p99().as_secs_f64() * 1000.0),
        format!("{:.2}", stats.abort_rate()),
        fmt1(per_txn),
    ]
}

/// Runs the full ablation table.
pub fn run_ablation(opts: &BenchOpts) {
    print_header(
        "Ablation — contribution of individual proxy mechanisms (YCSB, server backend)",
        &[
            "variant",
            "throughput (txn/s)",
            "mean latency (ms)",
            "p99 latency (ms)",
            "abort rate",
            "physical ops / committed txn",
        ],
    );
    for variant in variants(opts) {
        let row = run_variant(&variant, opts);
        print_row(&row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_configuration_is_valid() {
        let opts = BenchOpts::default();
        let all = variants(&opts);
        assert_eq!(all.len(), 6);
        for variant in &all {
            variant
                .config
                .validate()
                .unwrap_or_else(|err| panic!("variant {}: {err}", variant.name));
        }
        // The ablations differ from the baseline in exactly the advertised
        // dimension.
        assert!(!all[1].config.epoch.durability);
        assert_eq!(all[2].config.epoch.executor_threads, 1);
        assert_eq!(all[3].config.epoch.checkpoint_every, 1);
        assert_eq!(all[4].config.epoch.read_batches, 1);
        assert!(all[5].config.epoch.write_batch_size > all[0].config.epoch.write_batch_size);
    }

    #[test]
    fn baseline_variant_runs_under_smoke_options() {
        let opts = BenchOpts::smoke();
        let baseline = &variants(&opts)[0];
        let row = run_variant(baseline, &opts);
        assert_eq!(row.len(), 6);
        let throughput: f64 = row[1].parse().unwrap();
        assert!(throughput >= 0.0);
    }
}
