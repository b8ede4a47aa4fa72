//! Shared builders and table-printing helpers for the benchmark binaries.

use crate::opts::BenchOpts;
use obladi_common::config::{BackendKind, EpochConfig, ObladiConfig, OramConfig};
use obladi_common::latency::LatencyProfile;
use obladi_crypto::KeyMaterial;
use obladi_obs::Json;
use obladi_oram::{ExecOptions, OramReader, RingOram, WritebackEngine};
use obladi_storage::{InMemoryStore, LatencyStore, TrustedCounter, UntrustedStore};
use std::sync::Arc;
use std::time::Duration;

/// The host block of every figure: what the numbers were measured on, as
/// one JSON object — cores, CPU model and the crypto kernels
/// `obladi_crypto` selected there, so a table from a CPU without the SHA
/// extensions or AVX2 explains its own crypto cost.
fn host_json() -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|line| line.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::object([
        ("cores", cores.into()),
        ("cpu", cpu.into()),
        ("crypto_kernels", obladi_crypto::kernels::selected().into()),
    ])
}

/// Prints a table header row, under the host the table was measured on.
pub fn print_header(title: &str, columns: &[&str]) {
    println!();
    println!("== {title} ==");
    println!("host: {}", host_json().render());
    println!("{}", columns.join("\t"));
}

/// Prints a table data row.
pub fn print_row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// Formats a float with one decimal place.
pub fn fmt1(v: f64) -> String {
    format!("{v:.1}")
}

/// Dumps the global metrics registry as JSON to `--metrics-out <path>`, if
/// the flag was given.  Every benchmark binary calls this after its run so
/// any experiment's instrumentation can be captured without code changes.
pub fn write_metrics_out(opts: &BenchOpts) {
    let Some(path) = opts.metrics_out.as_deref() else {
        return;
    };
    let json = obladi_obs::report::render_json(&obladi_obs::global().snapshot());
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote metrics snapshot to {path}"),
        Err(err) => eprintln!("could not write metrics snapshot {path}: {err}"),
    }
}

/// Builds a latency-wrapped in-memory store for a backend kind.
pub fn build_store(kind: BackendKind, opts: &BenchOpts) -> Arc<dyn UntrustedStore> {
    let profile = LatencyProfile::for_backend(kind).scaled(opts.latency_scale);
    Arc::new(LatencyStore::new(
        Arc::new(InMemoryStore::new()),
        profile,
        opts.seed,
    ))
}

/// ORAM tree configuration used by the micro-benchmarks (Figure 10):
/// a 10K-object tree in quick mode, the paper's 100K-object tree with
/// `Z = 100` in `--full` mode.
pub fn micro_oram_config(opts: &BenchOpts) -> OramConfig {
    // The stash bound must accommodate a full batch of targets between
    // evictions (the executor defers maintenance to batch boundaries).
    if opts.full {
        OramConfig::for_capacity(100_000, 100)
            .with_block_size(64)
            .with_max_stash(16_384)
    } else {
        OramConfig::for_capacity(10_000, 16)
            .with_block_size(64)
            .with_max_stash(8_192)
    }
}

/// Builds an ORAM client over `kind` storage with the given executor
/// options, and hands back its two halves.
pub fn build_oram(
    kind: BackendKind,
    opts: &BenchOpts,
    exec: ExecOptions,
    config: OramConfig,
) -> (OramReader, WritebackEngine) {
    let store = build_store(kind, opts);
    let keys = KeyMaterial::for_tests(opts.seed);
    RingOram::new(config, &keys, store, exec.with_fast_init(), opts.seed)
        .expect("failed to build ORAM")
        .split()
}

/// Number of executor threads used for parallel ORAM runs.
pub fn parallel_threads(kind: BackendKind, opts: &BenchOpts) -> usize {
    match kind {
        // High-latency backends benefit from many outstanding requests.
        BackendKind::ServerWan => {
            if opts.full {
                256
            } else {
                128
            }
        }
        BackendKind::Dynamo => 64,
        BackendKind::Server => 64,
        BackendKind::Dummy => 16,
    }
}

/// Epoch configuration used for application benchmarks on Obladi, loosely
/// derived from the per-application settings of §11.1 but scaled to the
/// quick-mode table sizes.
pub fn app_epoch_config(app: &str, opts: &BenchOpts) -> EpochConfig {
    let scale = if opts.full { 4 } else { 1 };
    // Each sequentially-issued dependent read consumes one read batch
    // (§6.4), so R must cover the longest read chain of the application's
    // transactions: large for TPC-C (NewOrder/StockLevel walk items and
    // order lines one by one), moderate for FreeHealth, small for SmallBank.
    match app {
        // TPC-C: many read batches and a large write batch.
        "tpcc" => EpochConfig::default()
            .with_read_batches(20)
            .with_read_batch_size(32 * scale)
            .with_write_batch_size(256 * scale)
            .with_batch_interval(Duration::from_millis(2))
            .with_executor_threads(32)
            .with_checkpoint_every(16),
        // SmallBank: short homogeneous transactions, smaller epochs.
        "smallbank" => EpochConfig::default()
            .with_read_batches(4)
            .with_read_batch_size(64 * scale)
            .with_write_batch_size(96 * scale)
            .with_batch_interval(Duration::from_millis(3))
            .with_executor_threads(32)
            .with_checkpoint_every(16),
        // FreeHealth: read-heavy, many small read batches, small write batch.
        _ => EpochConfig::default()
            .with_read_batches(10)
            .with_read_batch_size(48 * scale)
            .with_write_batch_size(48 * scale)
            .with_batch_interval(Duration::from_millis(2))
            .with_executor_threads(32)
            .with_checkpoint_every(16),
    }
}

/// ORAM configuration for application benchmarks (sized to the loaded
/// tables).
pub fn app_oram_config(num_rows: u64, opts: &BenchOpts) -> OramConfig {
    let z = if opts.full { 32 } else { 16 };
    OramConfig::for_capacity(num_rows.max(1024) * 2, z)
        .with_block_size(160)
        .with_max_stash(4 * z as usize + 256)
}

/// Assembles a full Obladi configuration for an application benchmark.
pub fn app_obladi_config(
    app: &str,
    num_rows: u64,
    backend: BackendKind,
    opts: &BenchOpts,
) -> ObladiConfig {
    ObladiConfig {
        oram: app_oram_config(num_rows, opts),
        epoch: app_epoch_config(app, opts),
        backend,
        latency_scale: opts.latency_scale,
        seed: opts.seed,
    }
}

/// Builds a fresh trusted counter (helper so binaries avoid importing
/// storage directly).
pub fn counter() -> Arc<TrustedCounter> {
    TrustedCounter::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_config_scales_with_mode() {
        let quick = micro_oram_config(&BenchOpts::default());
        let full_opts = BenchOpts {
            full: true,
            ..BenchOpts::default()
        };
        let full = micro_oram_config(&full_opts);
        assert!(full.num_objects > quick.num_objects);
        assert_eq!(full.z, 100);
        quick.validate().unwrap();
        full.validate().unwrap();
    }

    #[test]
    fn app_configs_validate() {
        let opts = BenchOpts::default();
        for app in ["tpcc", "smallbank", "freehealth"] {
            let config = app_obladi_config(app, 5_000, BackendKind::Server, &opts);
            config.validate().unwrap();
        }
    }

    #[test]
    fn build_oram_smoke() {
        let opts = BenchOpts::smoke();
        let config = OramConfig::small_for_tests(256);
        let (reader, mut engine) =
            build_oram(BackendKind::Dummy, &opts, ExecOptions::parallel(2), config);
        let logger = obladi_oram::NoopPathLogger;
        engine.write_batch(&[(1, vec![1; 8])], &logger).unwrap();
        engine.flush_writes(&logger).unwrap();
        let out = reader.read_batch(&[Some(1)], &logger).unwrap();
        assert_eq!(out[0], Some(vec![1; 8]));
    }

    #[test]
    fn thread_counts_grow_with_latency() {
        let opts = BenchOpts::default();
        assert!(
            parallel_threads(BackendKind::ServerWan, &opts)
                > parallel_threads(BackendKind::Dummy, &opts)
        );
    }
}
