//! YCSB-style microbenchmark workload (§11: "Our microbenchmarks use the
//! YCSB workload generator").
//!
//! Each transaction performs a configurable number of point reads/updates on
//! keys drawn from a Zipfian (or uniform) distribution over a fixed key
//! population, matching the YCSB core workloads A–C depending on the
//! read/write mix.

use crate::driver::{Workload, SETUP_RETRIES};
use crate::encoding::{pack_key, read_row, write_row, Row};
use obladi_common::error::Result;
use obladi_common::rng::DetRng;
use obladi_common::zipf::Zipf;
use obladi_core::{KvDatabase, KvTransaction};

/// Table id used for YCSB rows.
const TABLE_YCSB: u8 = 1;

/// YCSB workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct YcsbConfig {
    /// Number of keys in the table.
    pub num_keys: u64,
    /// Fraction of operations that are reads (the rest are updates).
    pub read_proportion: f64,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Zipfian skew (0.0 = uniform, 0.99 = standard YCSB skew).
    pub zipf_theta: f64,
    /// Size of each value in bytes.
    pub value_size: usize,
}

impl YcsbConfig {
    /// A small configuration suitable for unit tests.
    pub fn default_small() -> Self {
        YcsbConfig {
            num_keys: 200,
            read_proportion: 0.5,
            ops_per_txn: 3,
            zipf_theta: 0.99,
            value_size: 32,
        }
    }
}

/// The YCSB workload generator.
pub struct YcsbWorkload {
    config: YcsbConfig,
    zipf: Zipf,
}

impl YcsbWorkload {
    /// Creates a workload from its configuration.
    pub fn new(config: YcsbConfig) -> Self {
        YcsbWorkload {
            zipf: Zipf::new(config.num_keys.max(1), config.zipf_theta),
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &YcsbConfig {
        &self.config
    }

    fn key_for(&self, index: u64) -> u64 {
        pack_key(TABLE_YCSB, index, 0, 0)
    }

    fn value_row(&self, index: u64, version: u64) -> Row {
        Row::with_blob(
            vec![index, version],
            vec![(index % 251) as u8; self.config.value_size],
        )
    }
}

impl Workload for YcsbWorkload {
    fn setup<D: KvDatabase>(&self, db: &D) -> Result<()> {
        // Load keys in chunks so each load transaction stays small enough
        // for Obladi's write batches.
        let chunk = 32u64;
        let mut start = 0u64;
        while start < self.config.num_keys {
            let end = (start + chunk).min(self.config.num_keys);
            db.execute_with_retries(SETUP_RETRIES, &mut |txn: &mut dyn KvTransaction| {
                for index in start..end {
                    write_row(txn, self.key_for(index), &self.value_row(index, 0))?;
                }
                Ok(())
            })?;
            start = end;
        }
        Ok(())
    }

    fn run_one<D: KvDatabase>(&self, db: &D, rng: &mut DetRng) -> Result<bool> {
        // Choose the operation mix and key set up front so aborted attempts
        // are comparable.
        let ops: Vec<(u64, bool)> = (0..self.config.ops_per_txn)
            .map(|_| {
                (
                    self.zipf.sample(rng),
                    rng.unit() < self.config.read_proportion,
                )
            })
            .collect();
        let result = db.execute(&mut |txn: &mut dyn KvTransaction| {
            for (index, is_read) in &ops {
                let key = self.key_for(*index);
                if *is_read {
                    read_row(txn, key)?;
                } else {
                    let current = read_row(txn, key)?;
                    let version = current.map(|r| r.num(1).unwrap_or(0)).unwrap_or(0);
                    write_row(txn, key, &self.value_row(*index, version + 1))?;
                }
            }
            Ok(())
        });
        match result {
            Ok(()) => Ok(true),
            Err(err) if err.is_retryable() => Ok(false),
            Err(err) => Err(err),
        }
    }

    fn name(&self) -> &'static str {
        "ycsb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_fixed_count;
    use obladi_core::TwoPhaseLockingDb;

    #[test]
    fn setup_populates_all_keys() {
        let db = TwoPhaseLockingDb::new();
        let workload = YcsbWorkload::new(YcsbConfig {
            num_keys: 50,
            read_proportion: 1.0,
            ops_per_txn: 1,
            zipf_theta: 0.0,
            value_size: 8,
        });
        workload.setup(&db).unwrap();
        db.execute(&mut |txn: &mut dyn KvTransaction| {
            for index in 0..50u64 {
                let row = read_row(txn, pack_key(TABLE_YCSB, index, 0, 0))?;
                assert!(row.is_some(), "key {index} must exist");
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn updates_bump_version_counters() {
        let db = TwoPhaseLockingDb::new();
        let workload = YcsbWorkload::new(YcsbConfig {
            num_keys: 10,
            read_proportion: 0.0,
            ops_per_txn: 2,
            zipf_theta: 0.0,
            value_size: 8,
        });
        workload.setup(&db).unwrap();
        let stats = run_fixed_count(&db, &workload, 30, 7).unwrap();
        assert!(stats.committed > 0);
        // At least one key must have a version greater than zero.
        let mut any_updated = false;
        db.execute(&mut |txn: &mut dyn KvTransaction| {
            for index in 0..10u64 {
                if let Some(row) = read_row(txn, pack_key(TABLE_YCSB, index, 0, 0))? {
                    if row.num(1)? > 0 {
                        any_updated = true;
                    }
                }
            }
            Ok(())
        })
        .unwrap();
        assert!(any_updated);
    }

    #[test]
    fn value_sizes_are_respected() {
        let workload = YcsbWorkload::new(YcsbConfig {
            num_keys: 5,
            read_proportion: 0.5,
            ops_per_txn: 1,
            zipf_theta: 0.0,
            value_size: 100,
        });
        assert_eq!(workload.value_row(1, 0).blob.len(), 100);
        assert_eq!(workload.name(), "ycsb");
    }
}
