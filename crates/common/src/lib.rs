//! Shared building blocks for the Obladi reproduction.
//!
//! This crate holds the vocabulary types used by every other crate in the
//! workspace: logical object identifiers, timestamps, epoch/batch counters,
//! the configuration structures of Table 1 in the paper, error types, seeded
//! randomness helpers, the latency models used to emulate the storage
//! backends of the evaluation (§11.2), a Zipfian sampler for YCSB, simple
//! latency/throughput statistics, and a pluggable clock so the epoch logic
//! can be driven deterministically in tests.
//!
//! Nothing in this crate knows about ORAM or transactions; it only provides
//! the substrate-independent pieces.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod config;
pub mod error;
pub mod latency;
pub mod rng;
pub mod stats;
pub mod types;
pub mod zipf;

pub use clock::{Clock, RealClock, TestClock};
pub use config::{BackendKind, EpochConfig, ObladiConfig, OramConfig, ShardConfig};
pub use error::{ObladiError, Result};
pub use latency::{LatencyModel, LatencyProfile};
pub use rng::DetRng;
pub use stats::{LatencyRecorder, RunStats};
pub use types::{BatchId, BucketId, EpochId, Key, Leaf, OpKind, Timestamp, TxnId, Value, Version};
pub use zipf::Zipf;
