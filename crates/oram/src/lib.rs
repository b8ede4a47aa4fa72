//! Ring ORAM and Obladi's batched / parallel ORAM executor.
//!
//! This crate implements the oblivious-storage substrate of the paper:
//!
//! * [`tree`] — binary tree geometry, deterministic reverse-lexicographic
//!   eviction order;
//! * [`block`] — block representation and fixed-size encoding;
//! * [`bucket`] — client-side per-bucket metadata (permutation map, validity
//!   bits, real-slot assignments);
//! * [`position_map`] / [`stash`] — the remaining client-side state, with
//!   padded serialization used by durability checkpoints;
//! * [`metadata`] — aggregate client state plus the full/delta checkpoint
//!   records; `committed` (private) — the one published snapshot of that
//!   state both records are read from;
//! * [`pool`] — the worker pool used for intra- and inter-request
//!   parallelism;
//! * [`split`] — the split client: [`split::OramReader`] (the concurrent
//!   read plane) and [`split::WritebackEngine`] (the background write-back
//!   engine), sharing the client state behind one fine-grained lock so a
//!   proxy can overlap one epoch's reads with the previous epoch's
//!   write-back I/O — between them the batched executor with dummiless
//!   writes, epoch-local bucket buffering (delayed visibility), early
//!   reshuffles, path logging hooks and recovery support;
//! * [`client`] — the executor options, operation counters and path-log
//!   types both halves share, and [`client::RingOram`], the constructor
//!   that builds (or restores) a client and hands back the two halves;
//!   [`split::new_split`] / [`split::from_meta_split`] build one that keeps
//!   the top levels of its tree in its stash (the proxy's tree-top cache).
//!
//! See DESIGN.md at the repository root for how these pieces map onto the
//! sections of the paper ("Paper map") and for the two documented
//! deviations from canonical Ring ORAM (batch-boundary evictions and
//! buffer-served reads).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod block;
pub mod bucket;
pub mod client;
pub mod codec;
mod committed;
pub mod metadata;
pub mod pool;
pub mod position_map;
pub mod split;
pub mod stash;
pub mod tree;

pub use block::Block;
pub use bucket::BucketMeta;
pub use client::{ExecOptions, NoopPathLogger, OramStats, PathLogger, RingOram, SlotRead};
pub use metadata::{MetaDelta, OramMeta};
pub use pool::ThreadPool;
pub use position_map::PositionMap;
pub use split::{set_leak_skip_dummy_pads, CheckpointSource, OramReader, WritebackEngine};
pub use stash::Stash;
pub use tree::TreeGeometry;
