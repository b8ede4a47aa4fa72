//! Closed-loop load driver and the [`Workload`] abstraction.
//!
//! The evaluation (§11) runs each application with a pool of closed-loop
//! clients for a fixed duration and reports committed-transaction throughput
//! and latency.  [`run_closed_loop`] reproduces that methodology: `clients`
//! threads repeatedly pick a transaction from the workload mix, execute it
//! against any [`KvDatabase`] engine, and record per-transaction latency and
//! commit/abort counts.

use obladi_common::error::Result;
use obladi_common::rng::DetRng;
use obladi_common::stats::{LatencyRecorder, RunStats};
use obladi_core::{FrontDoor, KvDatabase};
use std::time::{Duration, Instant};

/// Attempts a loader gives each of its transactions: a load transaction
/// that meets a retryable abort (an epoch boundary, a full batch, a denied
/// cross-shard vote) must be retried, or the database silently misses rows.
pub const SETUP_RETRIES: usize = 100;

/// A transactional workload (TPC-C, SmallBank, FreeHealth, YCSB).
pub trait Workload: Send + Sync {
    /// Loads the initial database state, retrying each load transaction up
    /// to [`SETUP_RETRIES`] times.
    fn setup<D: KvDatabase>(&self, db: &D) -> Result<()>;

    /// Executes one transaction chosen from the workload mix.
    ///
    /// Returns `Ok(true)` if the transaction committed, `Ok(false)` if it
    /// aborted for a retryable reason (counted as an abort, not an error).
    fn run_one<D: KvDatabase>(&self, db: &D, rng: &mut DetRng) -> Result<bool>;

    /// Workload name for reporting.
    fn name(&self) -> &'static str;
}

/// Runs `workload` against `db` with `clients` closed-loop threads for
/// `duration`, returning aggregate statistics.
pub fn run_closed_loop<D, W>(
    db: &D,
    workload: &W,
    clients: usize,
    duration: Duration,
    seed: u64,
) -> RunStats
where
    D: KvDatabase,
    W: Workload,
{
    let clients = clients.max(1);
    let deadline = Instant::now() + duration;
    let start = Instant::now();

    let mut per_thread: Vec<RunStats> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clients);
        for client in 0..clients {
            let mut rng = DetRng::new(seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            handles.push(scope.spawn(move || {
                let mut committed = 0u64;
                let mut aborted = 0u64;
                let mut latency = LatencyRecorder::new();
                while Instant::now() < deadline {
                    let txn_start = Instant::now();
                    match workload.run_one(db, &mut rng) {
                        Ok(true) => {
                            committed += 1;
                            latency.record(txn_start.elapsed());
                        }
                        Ok(false) => aborted += 1,
                        Err(err) if err.is_retryable() => aborted += 1,
                        Err(_) => aborted += 1,
                    }
                }
                RunStats::new(committed, aborted, Duration::ZERO, latency)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let elapsed = start.elapsed();
    let mut total = RunStats::new(0, 0, elapsed, LatencyRecorder::new());
    for stats in per_thread.drain(..) {
        total.committed += stats.committed;
        total.aborted += stats.aborted;
        total.latency.merge(&stats.latency);
    }
    total
}

/// Sets up `workload` on a deployment and drives it closed-loop, returning
/// the deployment's label together with the run statistics.
///
/// This is the entry point benchmarks use to compare *deployment shapes* —
/// a single proxy vs. a sharded front door with varying shard counts — with
/// identical load logic: anything implementing
/// [`FrontDoor`](obladi_core::FrontDoor) slots in.
pub fn run_deployment<D, W>(
    db: &D,
    workload: &W,
    clients: usize,
    duration: Duration,
    seed: u64,
) -> Result<(String, RunStats)>
where
    D: FrontDoor,
    W: Workload,
{
    workload.setup(db)?;
    let stats = run_closed_loop(db, workload, clients, duration, seed);
    Ok((db.deployment(), stats))
}

/// Runs exactly `count` transactions on a single thread (used by tests that
/// need determinism rather than wall-clock-driven load).
pub fn run_fixed_count<D, W>(db: &D, workload: &W, count: usize, seed: u64) -> Result<RunStats>
where
    D: KvDatabase,
    W: Workload,
{
    let mut rng = DetRng::new(seed);
    let mut committed = 0u64;
    let mut aborted = 0u64;
    let mut latency = LatencyRecorder::new();
    let start = Instant::now();
    for _ in 0..count {
        let txn_start = Instant::now();
        match workload.run_one(db, &mut rng) {
            Ok(true) => {
                committed += 1;
                latency.record(txn_start.elapsed());
            }
            Ok(false) => aborted += 1,
            Err(err) if err.is_retryable() => aborted += 1,
            Err(err) => return Err(err),
        }
    }
    Ok(RunStats::new(committed, aborted, start.elapsed(), latency))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ycsb::{YcsbConfig, YcsbWorkload};
    use obladi_core::TwoPhaseLockingDb;

    #[test]
    fn closed_loop_driver_produces_throughput() {
        let db = TwoPhaseLockingDb::new();
        let workload = YcsbWorkload::new(YcsbConfig {
            num_keys: 100,
            read_proportion: 0.5,
            ops_per_txn: 2,
            zipf_theta: 0.0,
            value_size: 16,
        });
        workload.setup(&db).unwrap();
        let stats = run_closed_loop(&db, &workload, 2, Duration::from_millis(100), 1);
        assert!(stats.committed > 0);
        assert!(stats.throughput() > 0.0);
    }

    #[test]
    fn fixed_count_driver_runs_exact_number() {
        let db = TwoPhaseLockingDb::new();
        let workload = YcsbWorkload::new(YcsbConfig::default_small());
        workload.setup(&db).unwrap();
        let stats = run_fixed_count(&db, &workload, 50, 3).unwrap();
        assert_eq!(stats.committed + stats.aborted, 50);
    }
}
