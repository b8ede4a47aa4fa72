//! Sharded scale-out deployment of Obladi.
//!
//! A single Obladi proxy serializes every read and write batch through one
//! Ring ORAM tree, so its throughput is capped by one epoch pipeline no
//! matter how many cores the machine has (§7 of the paper parallelizes
//! *within* a tree, not across trees).  This crate scales *out* instead: it
//! runs `N` fully independent proxy+ORAM pipelines — each with its own
//! storage backend, write-ahead log and recovery unit — behind a single
//! transactional front door with the same `begin` / `read` / `write` /
//! `commit` surface as [`obladi_core::ObladiDb`].
//!
//! | Piece | Job |
//! |---|---|
//! | [`ShardRouter`] | keyed-hash key placement (workload-independent, leak-free) |
//! | [`TimestampOracle`] | one global MVTSO timestamp stream, so the serial order is total across shards |
//! | [`EpochCoordinator`] | epoch barrier + unanimous commit vote, so delayed visibility stays atomic across shards |
//! | [`ShardedDb`] / [`ShardedTxn`] | the front door |
//!
//! See `crates/shard/README.md` for why hashed placement leaks nothing
//! beyond a uniform distribution.
//!
//! # Quick start
//!
//! ```
//! use obladi_common::config::ShardConfig;
//! use obladi_shard::ShardedDb;
//!
//! // Four independent ORAM pipelines behind one front door.
//! let db = ShardedDb::open(ShardConfig::small_for_tests(4, 512)).unwrap();
//!
//! let mut txn = db.begin().unwrap();
//! for key in 0..8u64 {
//!     txn.write(key, vec![key as u8]).unwrap(); // routed across shards
//! }
//! assert!(txn.commit().unwrap().is_committed());
//!
//! let mut txn = db.begin().unwrap();
//! assert_eq!(txn.read(3).unwrap(), Some(vec![3]));
//! txn.commit().unwrap();
//! db.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coordinator;
pub mod db;
pub mod oracle;
pub mod rendezvous;
pub mod router;

pub use coordinator::{EpochCoordinator, ShardGate, TxnDecision};
pub use db::{select_leg_target, ShardedDb, ShardedStats, ShardedTxn};
pub use oracle::TimestampOracle;
pub use router::ShardRouter;
