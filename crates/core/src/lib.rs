//! The Obladi proxy: the paper's primary contribution.
//!
//! This crate assembles the substrates (`obladi-oram`, `obladi-storage`,
//! `obladi-crypto`) into the system described in §5–§8 of *Obladi: Oblivious
//! Serializable Transactions in the Cloud* (OSDI 2018):
//!
//! * [`concurrency`] — multiversioned timestamp ordering with write-read
//!   dependency tracking and cascading aborts (the concurrency control
//!   unit);
//! * [`proxy`] — the epoch-based proxy ([`proxy::ObladiDb`]): fixed-size
//!   read/write batches, deduplication and padding, delayed commit
//!   visibility, epoch fate sharing, crash and recovery entry points — the
//!   threads and I/O around the epoch lifecycle, which is itself a pure
//!   state machine (the private `epoch` module; overview in DESIGN.md);
//! * [`durability`] — write-ahead logging of read paths, delta/full
//!   checkpoints of proxy metadata, the trusted counter, and the recovery
//!   procedure of §8;
//! * [`baselines`] — the NoPriv and MySQL-like (strict 2PL) comparison
//!   systems of the evaluation;
//! * [`api`] — the engine-agnostic [`api::KvDatabase`] / [`api::KvTransaction`]
//!   traits that the workloads are written against.
//!
//! # Quick start
//!
//! ```
//! use obladi_core::proxy::ObladiDb;
//! use obladi_common::config::ObladiConfig;
//!
//! let db = ObladiDb::open(ObladiConfig::small_for_tests(1024)).unwrap();
//! let mut txn = db.begin().unwrap();
//! txn.write(1, b"hello".to_vec()).unwrap();
//! let outcome = txn.commit().unwrap();
//! assert!(outcome.is_committed());
//! db.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod baselines;
pub mod concurrency;
pub mod durability;
mod epoch;
pub mod proxy;

pub use api::{FrontDoor, KvDatabase, KvTransaction};
pub use baselines::{NoPrivDb, TwoPhaseLockingDb};
pub use concurrency::{CommitCandidate, MvtsoManager, ReadOutcome, TxnStatus};
pub use durability::{DurabilityManager, RecoveredTxns, RecoveryReport};
pub use proxy::{CandidateSource, EpochGate, ObladiDb, ObladiTxn, ProxyStats, TxnPreparer};
