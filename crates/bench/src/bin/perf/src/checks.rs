//! Outsider correctness checks: what a client can conclude from the
//! acknowledgements it was given, with no access to the engine's state
//! (in the spirit of Tan et al., "Detecting Incorrect Behavior of Cloud
//! Databases as an Outsider").
//!
//! YCSB rows carry `[index, version]`, and every read-modify-write bumps
//! the version by one, so after the clients stop each key must sit at a
//! version no lower than the highest one acknowledged and no higher than
//! the highest one attempted — and, when no attempt ended in an unknown
//! outcome, at exactly the number of acknowledged read-modify-writes.
//! TPC-C districts hand out order ids one at a time, so their sum counts
//! committed NewOrders.

use crate::workloads::{
    check_ycsb_row, retry_read, tpcc_orders_placed, ycsb_key, Mix, Oracle, Spec, YCSB_KEYS,
};
use obladi_common::error::{ObladiError, Result};
use obladi_core::{KvDatabase, KvTransaction};
use obladi_shard::ShardedDb;
use obladi_workloads::encoding::read_row;

/// Reader threads of the final sweep.  A one-key transaction commits once
/// per epoch, so the sweep takes about `YCSB_KEYS / SWEEP_THREADS` epochs.
const SWEEP_THREADS: u64 = 64;

/// A swept key with its version, or how its row contradicts its key.
type SweptKey = (u64, std::result::Result<u64, String>);

/// Reads every YCSB key once and returns the versions found, by index.
fn sweep_versions(db: &ShardedDb, violations: &mut Vec<String>) -> Result<Vec<u64>> {
    let per_thread: Vec<Result<Vec<SweptKey>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SWEEP_THREADS)
            .map(|thread| {
                scope.spawn(move || {
                    (thread..YCSB_KEYS)
                        .step_by(SWEEP_THREADS as usize)
                        .map(|index| {
                            let key = ycsb_key(index);
                            let row = retry_read(|| {
                                db.execute(&mut |txn: &mut dyn KvTransaction| {
                                    read_row(txn, key)?.ok_or(ObladiError::KeyNotFound(key))
                                })
                            })?;
                            Ok((index, check_ycsb_row(index, &row)))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread panicked"))
            .collect()
    });
    let mut versions = vec![0; YCSB_KEYS as usize];
    for reads in per_thread {
        for (index, checked) in reads? {
            match checked {
                Ok(version) => versions[index as usize] = version,
                Err(violation) => violations.push(violation),
            }
        }
    }
    Ok(versions)
}

/// Compares swept versions with what the clients were told.
pub fn check_versions(versions: &[u64], oracles: &[Oracle], stage: &str) -> Vec<String> {
    let unknown: u64 = oracles.iter().map(|o| o.unknown).sum();
    let mut violations = Vec::new();
    for (index, found) in versions.iter().copied().enumerate() {
        let over = |field: fn(&Oracle) -> &Vec<u64>| oracles.iter().map(move |o| field(o)[index]);
        let acked = over(|o| &o.acked).max().unwrap_or(0);
        let attempted = over(|o| &o.attempted).max().unwrap_or(0).max(acked);
        let commits: u64 = over(|o| &o.rmw_commits).sum();
        if found < acked || found > attempted {
            violations.push(format!(
                "{stage}: key {index} is at version {found}, outside acknowledged {acked} ..= \
                 attempted {attempted}"
            ));
        } else if unknown == 0 && found != commits {
            violations.push(format!(
                "{stage}: key {index} is at version {found} after {commits} acknowledged \
                 read-modify-writes"
            ));
        }
    }
    violations
}

/// Compares the order ids handed out with the NewOrders acknowledged.
pub fn check_orders(placed: u64, oracles: &[Oracle], stage: &str) -> Vec<String> {
    let acked: u64 = oracles.iter().map(|o| o.new_orders).sum();
    let unknown: u64 = oracles.iter().map(|o| o.new_orders_unknown).sum();
    if placed < acked || placed > acked + unknown {
        vec![format!(
            "{stage}: districts handed out {placed} order ids for {acked} acknowledged NewOrders \
             (+{unknown} of unknown outcome)"
        )]
    } else {
        Vec::new()
    }
}

/// Runs the workload's final-state check against the live deployment.
pub fn verify(spec: &Spec, db: &ShardedDb, oracles: &[Oracle], stage: &str) -> Result<Vec<String>> {
    match spec.mix {
        Mix::Ycsb { .. } => {
            let mut violations = Vec::new();
            let versions = sweep_versions(db, &mut violations)?;
            violations.extend(check_versions(&versions, oracles, stage));
            Ok(violations)
        }
        Mix::Tpcc => Ok(check_orders(tpcc_orders_placed(db)?, oracles, stage)),
    }
}

/// Test only (`--break-check`): makes one expectation wrong, so a run
/// whose checks still pass is not checking.
pub fn corrupt_expectation(spec: &Spec, oracles: &mut [Oracle]) {
    match spec.mix {
        Mix::Ycsb { .. } => {
            let highest = oracles.iter().map(|o| o.attempted[0]).max().unwrap_or(0);
            oracles[0].acked[0] = highest.max(oracles[0].acked[0]) + 1;
        }
        Mix::Tpcc => oracles[0].new_orders += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(acked: u64, attempted: u64, commits: u64) -> Oracle {
        let mut oracle = Oracle::default();
        oracle.acked[5] = acked;
        oracle.attempted[5] = attempted;
        oracle.rmw_commits[5] = commits;
        oracle
    }

    fn versions(at_key_5: u64) -> Vec<u64> {
        let mut versions = vec![0; YCSB_KEYS as usize];
        versions[5] = at_key_5;
        versions
    }

    #[test]
    fn versions_must_match_the_acknowledged_history() {
        // Client A committed twice (last saw 3), client B once, one of B's
        // attempts (at version 4) aborted.
        let told = [oracle(3, 3, 2), oracle(2, 4, 1)];
        assert!(check_versions(&versions(3), &told, "t").is_empty());
        // A lost acknowledged write, a resurrected aborted write, and a
        // version no client ever tried to install.
        assert_eq!(check_versions(&versions(2), &told, "t").len(), 1);
        assert_eq!(check_versions(&versions(4), &told, "t").len(), 1);
        assert_eq!(check_versions(&versions(5), &told, "t").len(), 1);
    }

    #[test]
    fn an_unknown_outcome_widens_the_check_to_a_range() {
        let mut told = [oracle(3, 3, 2), oracle(2, 4, 1)];
        told[1].unknown = 1;
        assert!(check_versions(&versions(3), &told, "t").is_empty());
        assert!(check_versions(&versions(4), &told, "t").is_empty());
        assert_eq!(check_versions(&versions(5), &told, "t").len(), 1);
    }

    #[test]
    fn order_ids_count_acknowledged_new_orders() {
        let mut told = [Oracle::default(), Oracle::default()];
        told[0].new_orders = 4;
        told[1].new_orders = 3;
        assert!(check_orders(7, &told, "t").is_empty());
        assert_eq!(check_orders(6, &told, "t").len(), 1);
        assert_eq!(check_orders(8, &told, "t").len(), 1);
        told[1].new_orders_unknown = 1;
        assert!(check_orders(8, &told, "t").is_empty());
    }

    #[test]
    fn a_corrupted_expectation_is_caught() {
        for name in ["ycsb_rw50_mem", "tpcc_mem"] {
            let spec = Spec::by_name(name).unwrap();
            let mut told = [oracle(0, 0, 0), oracle(0, 0, 0)];
            corrupt_expectation(&spec, &mut told);
            let caught = match spec.mix {
                Mix::Ycsb { .. } => check_versions(&versions(0), &told, "t"),
                Mix::Tpcc => check_orders(0, &told, "t"),
            };
            assert_eq!(caught.len(), 1, "{name}");
        }
    }
}
