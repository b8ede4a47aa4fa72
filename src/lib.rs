//! # Obladi — oblivious serializable transactions in the cloud
//!
//! This is the facade crate of a from-scratch Rust reproduction of
//! *Obladi: Oblivious Serializable Transactions in the Cloud* (Crooks et
//! al., OSDI 2018).  Obladi is a transactional key-value store that hides
//! **access patterns** from the storage provider: the provider learns
//! neither which objects are accessed, nor how often, nor whether
//! transactions commit — only a fixed, workload-independent rhythm of
//! padded read and write batches.
//!
//! The building blocks live in dedicated crates, all re-exported here:
//!
//! | Module | Contents |
//! |---|---|
//! | [`common`] | configuration (Table 1 parameters), errors, statistics |
//! | [`crypto`] | ChaCha20 / SHA-256 / HMAC and the sealed-block envelope |
//! | [`storage`] | untrusted storage backends, WAL, trusted counter |
//! | [`oram`] | Ring ORAM and the batched/parallel executor |
//! | [`core`] | the Obladi proxy: MVTSO, epochs, durability, baselines |
//! | [`shard`] | sharded scale-out: N proxy+ORAM pipelines behind one front door |
//! | [`transport`] | framed RPC to out-of-process storage + the `obladi-stored` daemon |
//! | [`workloads`] | TPC-C, SmallBank, FreeHealth, YCSB and the load driver |
//! | [`obs`] | zero-dependency metrics registry + epoch/txn span tracer |
//!
//! ## Quick start
//!
//! ```
//! use obladi::prelude::*;
//!
//! // A small in-memory deployment (see ObladiConfig for the real knobs).
//! let db = ObladiDb::open(ObladiConfig::small_for_tests(4_096)).unwrap();
//!
//! // Transactions execute concurrently; commits become visible at the end
//! // of the epoch (delayed visibility).
//! let mut txn = db.begin().unwrap();
//! txn.write(1, b"patient record".to_vec()).unwrap();
//! assert!(txn.commit().unwrap().is_committed());
//!
//! let mut txn = db.begin().unwrap();
//! assert_eq!(txn.read(1).unwrap(), Some(b"patient record".to_vec()));
//! txn.commit().unwrap();
//! db.shutdown();
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the harness that regenerates every figure and table of
//! the paper's evaluation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use obladi_common as common;
pub use obladi_core as core;
pub use obladi_crypto as crypto;
pub use obladi_obs as obs;
pub use obladi_oram as oram;
pub use obladi_shard as shard;
pub use obladi_storage as storage;
pub use obladi_transport as transport;
pub use obladi_workloads as workloads;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use obladi_common::config::{BackendKind, EpochConfig, ObladiConfig, OramConfig};
    pub use obladi_common::config::{ShardConfig, StorageBackend};
    pub use obladi_common::error::{ObladiError, Result};
    pub use obladi_common::types::{Key, TxnOutcome, Value};
    pub use obladi_core::{
        KvDatabase, KvTransaction, NoPrivDb, ObladiDb, ObladiTxn, TwoPhaseLockingDb,
    };
    pub use obladi_shard::{ShardedDb, ShardedTxn};
    pub use obladi_storage::TrustedCounter;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let db = ObladiDb::open(ObladiConfig::small_for_tests(256)).unwrap();
        let mut txn = db.begin().unwrap();
        txn.write(9, vec![1, 2, 3]).unwrap();
        assert!(txn.commit().unwrap().is_committed());
        db.shutdown();
    }
}
