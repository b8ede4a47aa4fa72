//! Figure 11 / Table 11b: durability cost and recovery time (§11.3).

use crate::harness::{build_store, fmt1, print_header, print_row};
use crate::opts::BenchOpts;
use obladi_common::config::{BackendKind, EpochConfig, OramConfig};
use obladi_common::rng::DetRng;
use obladi_common::types::Key;
use obladi_core::DurabilityManager;
use obladi_crypto::KeyMaterial;
use obladi_oram::{ExecOptions, NoopPathLogger, OramReader, PathLogger, RingOram, WritebackEngine};
use obladi_storage::{TrustedCounter, UntrustedStore};
use std::sync::Arc;
use std::time::Instant;

/// Result of one durability run.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityRun {
    /// Throughput with durability enabled divided by throughput without
    /// (the "Slowdown" row of Table 11b, reported as a ratio ≤ 1).
    pub slowdown: f64,
    /// Total recovery time in milliseconds.
    pub recovery_ms: f64,
    /// Time reading recovery data from storage.
    pub network_ms: f64,
    /// Position-map restore time.
    pub position_ms: f64,
    /// Permutation/bucket-metadata restore time.
    pub permutation_ms: f64,
    /// Path-replay time.
    pub paths_ms: f64,
}

/// One client's epochs, logged and checkpointed through `manager` — which
/// does nothing of either when its durability is off (the baseline).
struct EpochRunner<'a> {
    reader: OramReader,
    engine: WritebackEngine,
    manager: &'a DurabilityManager,
    epoch: u64,
    batch_size: usize,
    rng: DetRng,
    keys: u64,
}

impl EpochRunner<'_> {
    /// One read batch of random keys, then the maintenance it made due.
    fn read_batch(&mut self, logger: &dyn PathLogger) {
        self.manager.begin_read_batch();
        let reads: Vec<Option<Key>> = (0..self.batch_size)
            .map(|_| Some(self.rng.below(self.keys)))
            .collect();
        self.reader.read_batch(&reads, logger).unwrap();
        self.engine.run_pending_maintenance(logger).unwrap();
    }

    /// Runs one epoch: a few read batches, a write batch, flush, checkpoint.
    fn run_epoch(&mut self) {
        let manager = self.manager;
        let logger = manager.logger_for(self.epoch);
        for _ in 0..3 {
            self.read_batch(&logger);
        }
        let writes: Vec<(Key, Vec<u8>)> = (0..self.batch_size / 2)
            .map(|_| {
                let k = self.rng.below(self.keys);
                (k, vec![k as u8; 32])
            })
            .collect();
        self.engine.write_batch(&writes, &logger).unwrap();
        self.engine.flush_writes(&logger).unwrap();
        manager.commit_epoch(self.epoch, &mut self.engine).unwrap();
        self.epoch += 1;
    }
}

/// Runs the durability experiment for one ORAM size: measures the
/// steady-state slowdown of checkpointing and the recovery-time breakdown.
pub fn durability_run(
    num_objects: u64,
    populated_keys: u64,
    checkpoint_every: u32,
    opts: &BenchOpts,
) -> DurabilityRun {
    let backend = BackendKind::Server;
    let store: Arc<dyn UntrustedStore> = build_store(backend, opts);
    let keys = KeyMaterial::for_tests(opts.seed);
    let z = if opts.full { 100 } else { 16 };
    let config = OramConfig::for_capacity(num_objects, z)
        .with_block_size(64)
        .with_max_stash(2_048);
    let epoch_config = EpochConfig::default()
        .with_checkpoint_every(checkpoint_every)
        .with_read_batch_size(64)
        .with_read_batches(3)
        .with_write_batch_size(64);
    let exec = ExecOptions::parallel(32).with_fast_init();
    let batch_size = 64;
    let epochs = if opts.full { 12 } else { 6 };
    // A client over `store` with keys `0..populated_keys` loaded, at epoch 1.
    let runner = |manager, store| {
        let (reader, mut engine) = RingOram::new(config, &keys, store, exec, opts.seed)
            .unwrap()
            .split();
        let writes: Vec<(Key, Vec<u8>)> = (0..populated_keys)
            .map(|k| (k, vec![k as u8; 32]))
            .collect();
        for chunk in writes.chunks(512) {
            engine.write_batch(chunk, &NoopPathLogger).unwrap();
            engine.flush_writes(&NoopPathLogger).unwrap();
        }
        EpochRunner {
            reader,
            engine,
            manager,
            epoch: 1,
            batch_size,
            rng: DetRng::new(opts.seed),
            keys: populated_keys,
        }
    };

    // --- Baseline: durability off. ---
    let baseline_manager = DurabilityManager::new(
        &keys,
        store.clone(),
        TrustedCounter::new(),
        &epoch_config.with_durability(false),
    );
    let mut baseline = runner(&baseline_manager, store);
    let start = Instant::now();
    for _ in 0..epochs {
        baseline.run_epoch();
    }
    let baseline_tput = (epochs * batch_size * 3) as f64 / start.elapsed().as_secs_f64();

    // --- Durability on, then crash and recover. ---
    let store2: Arc<dyn UntrustedStore> = build_store(backend, opts);
    let counter = TrustedCounter::new();
    let manager = DurabilityManager::new(&keys, store2.clone(), counter, &epoch_config);
    let mut durable = runner(&manager, store2);
    let start = Instant::now();
    for _ in 0..epochs {
        durable.run_epoch();
    }
    let durable_tput = (epochs * batch_size * 3) as f64 / start.elapsed().as_secs_f64();

    // Start an epoch that never commits (this is what recovery replays).
    durable.read_batch(&manager.logger_for(durable.epoch));
    drop(durable);

    let (_recovered, _epoch, report) = manager
        .recover(config, &keys, exec, opts.seed)
        .expect("recovery failed");

    DurabilityRun {
        slowdown: durable_tput / baseline_tput.max(1e-9),
        recovery_ms: report.total_ms,
        network_ms: report.network_ms,
        position_ms: report.position_ms,
        permutation_ms: report.permutation_ms,
        paths_ms: report.paths_ms,
    }
}

/// Figure 11a: throughput as a function of the full-checkpoint frequency.
pub fn run_fig11a(opts: &BenchOpts) {
    let frequencies: Vec<u32> = if opts.full {
        vec![1, 4, 16, 64, 256]
    } else {
        vec![1, 4, 16, 64]
    };
    print_header(
        "Figure 11a — checkpoint frequency vs relative throughput (100K-object ORAM)",
        &["checkpoint_every", "slowdown_vs_no_durability"],
    );
    let objects = if opts.full { 100_000 } else { 20_000 };
    for &freq in &frequencies {
        let run = durability_run(objects, 2_000, freq, opts);
        print_row(&[freq.to_string(), format!("{:.3}", run.slowdown)]);
    }
}

/// Table 11b: recovery-time breakdown per ORAM size.
pub fn run_fig11b(opts: &BenchOpts) {
    let sizes: Vec<(u64, u64, &str)> = if opts.full {
        vec![
            (10_000, 2_000, "10K"),
            (100_000, 5_000, "100K"),
            (1_000_000, 10_000, "1M"),
        ]
    } else {
        vec![(10_000, 1_000, "10K"), (50_000, 2_000, "50K")]
    };
    print_header(
        "Table 11b — recovery time breakdown (ms)",
        &[
            "size",
            "slowdown",
            "rec_time_ms",
            "network_ms",
            "pos_ms",
            "perm_ms",
            "paths_ms",
        ],
    );
    for (objects, populated, label) in sizes {
        let run = durability_run(objects, populated, 4, opts);
        print_row(&[
            label.to_string(),
            format!("{:.2}", run.slowdown),
            fmt1(run.recovery_ms),
            fmt1(run.network_ms),
            fmt1(run.position_ms),
            fmt1(run.permutation_ms),
            fmt1(run.paths_ms),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_run_smoke() {
        let opts = BenchOpts::smoke();
        let run = durability_run(2_000, 200, 2, &opts);
        assert!(run.slowdown > 0.0, "slowdown must be a positive ratio");
        assert!(run.recovery_ms >= 0.0);
        assert!(
            run.recovery_ms + 1e-9 >= 0.0_f64.max(run.paths_ms * 0.0),
            "sanity"
        );
    }
}
