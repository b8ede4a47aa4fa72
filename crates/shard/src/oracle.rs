//! The global timestamp oracle.
//!
//! MVTSO serializes transactions by timestamp, and a sharded deployment is
//! serializable only if that order is *total across shards*: every shard
//! must agree on the relative order of any two transactions.  The simplest
//! way to get there is a single monotonic counter all shards draw from —
//! the same design TrueTime-free systems (e.g. Percolator) use at rack
//! scale.  One atomic fetch-add per transaction is orders of magnitude
//! cheaper than the ORAM work the transaction triggers, so the oracle is
//! nowhere near the bottleneck.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic timestamp dispenser shared by every shard of a deployment.
#[derive(Debug)]
pub struct TimestampOracle {
    next: AtomicU64,
}

impl TimestampOracle {
    /// Creates an oracle whose first issued timestamp is `2` (timestamp `1`
    /// is reserved, matching the single-proxy generator's first value).
    pub fn new() -> Self {
        TimestampOracle {
            next: AtomicU64::new(1),
        }
    }

    /// Issues the next globally unique timestamp.
    pub fn next_ts(&self) -> u64 {
        self.next.fetch_add(1, Ordering::SeqCst) + 1
    }
}

impl Default for TimestampOracle {
    fn default() -> Self {
        TimestampOracle::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn timestamps_are_unique_and_monotonic_across_threads() {
        let oracle = Arc::new(TimestampOracle::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let oracle = oracle.clone();
            handles.push(std::thread::spawn(move || {
                let mut seen = Vec::new();
                for _ in 0..500 {
                    seen.push(oracle.next_ts());
                }
                seen
            }));
        }
        let mut all: Vec<u64> = Vec::new();
        for handle in handles {
            let seen = handle.join().unwrap();
            assert!(seen.windows(2).all(|w| w[0] < w[1]), "per-thread monotonic");
            all.extend(seen);
        }
        let unique: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "timestamps must never repeat");
    }
}
