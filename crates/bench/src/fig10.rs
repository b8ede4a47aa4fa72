//! Figure 10: impact of parallelism, batching and epochs on the ORAM (§11.2).
//!
//! These experiments instantiate the Ring ORAM executor directly (no
//! transactions) with a 10K/100K-object tree and the four storage backends
//! of the paper: `dummy`, `server` (0.3 ms), `server WAN` (10 ms) and
//! `dynamo` (1 ms reads / 3 ms writes, bounded client parallelism).
//! `dummy` waits for nothing (`UntrustedStore::waits`), so the ORAM client
//! runs its batches on the calling thread: 10a's parallel cells for it are
//! marked `inline` and are not the paper's parallel number.

use crate::harness::{
    build_oram, fmt1, micro_oram_config, parallel_threads, print_header, print_row,
};
use crate::opts::BenchOpts;
use obladi_common::config::BackendKind;
use obladi_common::rng::DetRng;
use obladi_common::types::Key;
use obladi_oram::{ExecOptions, NoopPathLogger, OramReader, WritebackEngine};
use obladi_workloads::{FreeHealthConfig, FreeHealthWorkload};
use obladi_workloads::{SmallBankConfig, SmallBankWorkload, TpccConfig, TpccWorkload, Workload};
use std::time::Instant;

/// Number of keys pre-loaded into the micro-benchmark ORAM.
const PRELOADED_KEYS: u64 = 1_000;

/// The micro-benchmark ORAM's two halves, `PRELOADED_KEYS` keys loaded.
fn build(kind: BackendKind, opts: &BenchOpts, exec: ExecOptions) -> (OramReader, WritebackEngine) {
    let (reader, mut engine) = build_oram(kind, opts, exec, micro_oram_config(opts));
    let writes: Vec<(Key, Vec<u8>)> = (0..PRELOADED_KEYS)
        .map(|k| (k, vec![k as u8; 32]))
        .collect();
    for chunk in writes.chunks(256) {
        engine.write_batch(chunk, &NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
    }
    (reader, engine)
}

fn random_reads(rng: &mut DetRng, n: usize) -> Vec<Option<Key>> {
    (0..n).map(|_| Some(rng.below(PRELOADED_KEYS))).collect()
}

/// Runs `total_ops` logical reads through the ORAM in batches of
/// `batch_size`, each followed by the maintenance it made due, flushing
/// buffered writes every `batches_per_epoch` batches.  Returns (ops/s, mean
/// batch latency in ms).
fn run_oram_reads(
    (reader, engine): &mut (OramReader, WritebackEngine),
    batch_size: usize,
    total_ops: usize,
    batches_per_epoch: usize,
    rng: &mut DetRng,
) -> (f64, f64) {
    let batches = (total_ops / batch_size.max(1)).max(1);
    let start = Instant::now();
    let mut batch_latencies = Vec::with_capacity(batches);
    for batch in 0..batches {
        let requests = random_reads(rng, batch_size);
        let batch_start = Instant::now();
        reader.read_batch(&requests, &NoopPathLogger).unwrap();
        engine.run_pending_maintenance(&NoopPathLogger).unwrap();
        if (batch + 1) % batches_per_epoch.max(1) == 0 {
            engine.flush_writes(&NoopPathLogger).unwrap();
        }
        batch_latencies.push(batch_start.elapsed().as_secs_f64() * 1000.0);
    }
    engine.flush_writes(&NoopPathLogger).unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    let ops = (batches * batch_size) as f64;
    let mean_latency = batch_latencies.iter().sum::<f64>() / batch_latencies.len() as f64;
    (ops / elapsed, mean_latency)
}

/// Canonical sequential Ring ORAM: `ops` single-key reads, each followed by
/// the maintenance it made due — write-through mode flushes every eviction
/// as it is applied — and a flush, which writes nothing more but publishes.
/// Returns ops/s.
fn run_sequential_reads(
    (reader, engine): &mut (OramReader, WritebackEngine),
    ops: usize,
    rng: &mut DetRng,
) -> f64 {
    let start = Instant::now();
    for _ in 0..ops {
        let key = rng.below(PRELOADED_KEYS);
        reader.read_batch(&[Some(key)], &NoopPathLogger).unwrap();
        engine.run_pending_maintenance(&NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// Figure 10a: sequential vs parallel vs parallel+crypto throughput at batch
/// size 500.
pub fn run_fig10a(opts: &BenchOpts) {
    print_header(
        "Figure 10a — ORAM parallelism (batch size 500)",
        &[
            "backend",
            "sequential_ops_s",
            "parallel_ops_s",
            "parallel_crypto_ops_s",
        ],
    );
    let batch = if opts.full { 500 } else { 200 };
    let seq_ops = if opts.full { 400 } else { 60 };
    let par_ops = batch * 4;

    for kind in BackendKind::ALL {
        let mut rng = DetRng::new(opts.seed);
        // Sequential canonical Ring ORAM: one request at a time, immediate
        // write-back, crypto on.
        let mut seq = build(kind, opts, ExecOptions::sequential());
        let seq_tput = run_sequential_reads(&mut seq, seq_ops, &mut rng);

        // Parallel executor without crypto.
        let threads = parallel_threads(kind, opts);
        let mut par = build(kind, opts, ExecOptions::parallel(threads).without_crypto());
        let (par_tput, _) = run_oram_reads(&mut par, batch, par_ops, 1, &mut rng);

        // Parallel executor with crypto (the configuration Obladi uses).
        let mut parc = build(kind, opts, ExecOptions::parallel(threads));
        let (parc_tput, _) = run_oram_reads(&mut parc, batch, par_ops, 1, &mut rng);

        let inline = if parc.1.store().waits() {
            ""
        } else {
            " inline"
        };
        print_row(&[
            kind.name().to_string(),
            fmt1(seq_tput),
            fmt1(par_tput) + inline,
            fmt1(parc_tput) + inline,
        ]);
    }
}

/// Figure 10b/10c: throughput and latency as a function of batch size.
pub fn run_fig10bc(opts: &BenchOpts, print_latency: bool) {
    let title = if print_latency {
        "Figure 10c — batch size vs latency (ms per batch)"
    } else {
        "Figure 10b — batch size vs throughput (ops/s)"
    };
    let batch_sizes: Vec<usize> = if opts.full {
        vec![1, 10, 100, 500, 1000, 2000, 5000]
    } else {
        vec![1, 10, 100, 500, 1000]
    };
    let mut columns = vec!["backend".to_string()];
    columns.extend(batch_sizes.iter().map(|b| format!("b={b}")));
    print_header(
        title,
        &columns.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );

    for kind in BackendKind::ALL {
        let mut cells = vec![kind.name().to_string()];
        for &batch in &batch_sizes {
            let threads = parallel_threads(kind, opts);
            let mut oram = build(kind, opts, ExecOptions::parallel(threads));
            let mut rng = DetRng::new(opts.seed ^ batch as u64);
            let total = (batch * 3).clamp(60, if opts.full { 6000 } else { 2000 });
            let (tput, latency) = run_oram_reads(&mut oram, batch, total, 1, &mut rng);
            cells.push(if print_latency {
                fmt1(latency)
            } else {
                fmt1(tput)
            });
        }
        print_row(&cells);
    }
}

/// Figure 10d: effect of delayed visibility (buffered, deduplicated bucket
/// write-back) for an epoch of eight batches.
pub fn run_fig10d(opts: &BenchOpts) {
    print_header(
        "Figure 10d — delayed visibility (epoch of 8 batches)",
        &[
            "backend",
            "immediate_writeback_ops_s",
            "buffered_writeback_ops_s",
            "speedup",
        ],
    );
    let batch = if opts.full { 500 } else { 128 };
    let epoch_batches = 8;
    for kind in BackendKind::ALL {
        let threads = parallel_threads(kind, opts);
        let mut rng = DetRng::new(opts.seed);

        let mut normal = build(
            kind,
            opts,
            ExecOptions::parallel(threads).with_deferred_writes(false),
        );
        let (normal_tput, _) =
            run_oram_reads(&mut normal, batch, batch * epoch_batches, 1, &mut rng);

        let mut buffered = build(kind, opts, ExecOptions::parallel(threads));
        let (buffered_tput, _) = run_oram_reads(
            &mut buffered,
            batch,
            batch * epoch_batches,
            epoch_batches,
            &mut rng,
        );

        print_row(&[
            kind.name().to_string(),
            fmt1(normal_tput),
            fmt1(buffered_tput),
            format!("{:.2}x", buffered_tput / normal_tput.max(1e-9)),
        ]);
    }
}

/// Figure 10e: relative ORAM throughput as the epoch grows (batches per
/// epoch swept in powers of two), normalised to a one-batch epoch.
pub fn run_fig10e(opts: &BenchOpts) {
    let epoch_sizes: Vec<usize> = if opts.full {
        vec![1, 2, 4, 8, 16, 32, 64, 128]
    } else {
        vec![1, 2, 4, 8, 16, 32]
    };
    let mut columns = vec!["backend".to_string()];
    columns.extend(epoch_sizes.iter().map(|e| format!("epoch={e}")));
    print_header(
        "Figure 10e — epoch size impact on ORAM (relative throughput)",
        &columns.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );

    let batch = if opts.full { 256 } else { 96 };
    for kind in BackendKind::ALL {
        let threads = parallel_threads(kind, opts);
        let mut baseline = 0.0;
        let mut cells = vec![kind.name().to_string()];
        for &epoch in &epoch_sizes {
            let mut oram = build(kind, opts, ExecOptions::parallel(threads));
            let mut rng = DetRng::new(opts.seed ^ epoch as u64);
            let total = batch * epoch.max(4);
            let (tput, _) = run_oram_reads(&mut oram, batch, total, epoch, &mut rng);
            if epoch == 1 {
                baseline = tput;
            }
            cells.push(format!("{:.2}", tput / baseline.max(1e-9)));
        }
        print_row(&cells);
    }
}

/// Figure 10f: end-to-end Obladi throughput as a function of the epoch
/// duration (batch interval sweep) for the three applications.
pub fn run_fig10f(opts: &BenchOpts) {
    use crate::fig09::bench_obladi_only;
    let intervals_ms: Vec<u64> = if opts.full {
        vec![1, 2, 5, 10, 25, 50, 100]
    } else {
        vec![1, 3, 8, 20]
    };
    let mut columns = vec!["app".to_string()];
    columns.extend(intervals_ms.iter().map(|ms| format!("delta={ms}ms")));
    print_header(
        "Figure 10f — epoch duration vs application throughput (txn/s)",
        &columns.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );

    // SmallBank.
    {
        let workload = SmallBankWorkload::new(if opts.full {
            SmallBankConfig {
                num_accounts: 5_000,
                hotspot_fraction: 0.01,
                hotspot_probability: 0.25,
            }
        } else {
            SmallBankConfig {
                num_accounts: 400,
                hotspot_fraction: 0.05,
                hotspot_probability: 0.25,
            }
        });
        let rows = workload.config().num_accounts * 2;
        sweep_app(
            "smallbank",
            &workload,
            rows,
            &intervals_ms,
            opts,
            bench_obladi_only,
        );
    }
    // FreeHealth.
    {
        let workload = FreeHealthWorkload::new(if opts.full {
            FreeHealthConfig::benchmark()
        } else {
            FreeHealthConfig {
                users: 8,
                patients: 120,
                drugs: 40,
                episodes_per_patient: 2,
                list_limit: 3,
            }
        });
        let cfg = workload.config();
        let rows = cfg.users + cfg.drugs + cfg.patients * (2 + cfg.episodes_per_patient * 2);
        sweep_app(
            "freehealth",
            &workload,
            rows,
            &intervals_ms,
            opts,
            bench_obladi_only,
        );
    }
    // TPC-C.
    {
        let workload = TpccWorkload::new(if opts.full {
            TpccConfig::benchmark(4)
        } else {
            TpccConfig {
                warehouses: 1,
                districts_per_warehouse: 4,
                customers_per_district: 30,
                items: 100,
                last_names: 8,
                stock_level_orders: 3,
                max_order_lines: 5,
            }
        });
        let cfg = workload.config();
        let rows = cfg.items
            + cfg.warehouses
                * (1 + cfg.items
                    + cfg.districts_per_warehouse
                        * (1 + cfg.customers_per_district + cfg.last_names));
        sweep_app(
            "tpcc",
            &workload,
            rows,
            &intervals_ms,
            opts,
            bench_obladi_only,
        );
    }
}

fn sweep_app<W: Workload>(
    app: &str,
    workload: &W,
    rows: u64,
    intervals_ms: &[u64],
    opts: &BenchOpts,
    bench: fn(&str, &W, u64, u64, &BenchOpts) -> f64,
) {
    let mut cells = vec![app.to_string()];
    for &ms in intervals_ms {
        let tput = bench(app, workload, rows, ms, opts);
        cells.push(fmt1(tput));
    }
    print_row(&cells);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parallel executor against the sequential one on a high-latency
    /// backend: `(sequential ops/s, parallel ops/s)`.
    fn parallel_beats_sequential_on_wan(opts: &BenchOpts) -> (f64, f64) {
        let mut rng = DetRng::new(opts.seed);
        let mut seq = build(BackendKind::ServerWan, opts, ExecOptions::sequential());
        let seq_tput = run_sequential_reads(&mut seq, 10, &mut rng);

        let mut par = build(BackendKind::ServerWan, opts, ExecOptions::parallel(64));
        let (par_tput, _) = run_oram_reads(&mut par, 64, 128, 1, &mut rng);
        (seq_tput, par_tput)
    }

    #[test]
    fn parallelism_helps_on_wan_even_in_smoke_mode() {
        let mut opts = BenchOpts::smoke();
        // Give the WAN profile a real (but small) latency so parallelism
        // matters; the smoke profile would otherwise be latency-free.
        opts.latency_scale = 0.02;
        let (seq, par) = parallel_beats_sequential_on_wan(&opts);
        assert!(
            par > seq * 1.5,
            "parallel executor ({par:.1} ops/s) should clearly beat sequential ({seq:.1} ops/s)"
        );
    }

    #[test]
    fn run_oram_reads_reports_positive_numbers() {
        let opts = BenchOpts::smoke();
        let mut oram = build(BackendKind::Dummy, &opts, ExecOptions::parallel(2));
        let mut rng = DetRng::new(1);
        let (tput, latency) = run_oram_reads(&mut oram, 16, 64, 2, &mut rng);
        assert!(tput > 0.0);
        assert!(latency >= 0.0);
    }
}
