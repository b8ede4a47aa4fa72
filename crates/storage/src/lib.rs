//! Untrusted cloud storage for the Obladi reproduction.
//!
//! The paper's storage server is an untrusted, fault-tolerant key-value
//! service holding two units (§5): the *ORAM tree* (encrypted buckets) and
//! the *recovery unit* (a write-ahead log plus checkpoints of proxy
//! metadata).  This crate provides both behind the [`UntrustedStore`] trait,
//! together with:
//!
//! * [`memory::InMemoryStore`] — the reference backend (a remote in-memory
//!   hashmap in the paper's evaluation);
//! * [`latency::LatencyStore`] — a wrapper injecting the latency profiles of
//!   §11.2 (`dummy`, `server`, `server WAN`, `dynamo`) and enforcing the
//!   DynamoDB client's bounded parallelism;
//! * [`faulty::FaultyStore`] — a fault-injection wrapper used by tests to
//!   exercise integrity verification and retry paths;
//! * [`wal::WriteAheadLog`] — sequence-numbered append-only log storage,
//!   cut behind each durable full checkpoint by the [`retention`] rule;
//! * [`counter::TrustedCounter`] — the persistent epoch/read-batch counter
//!   `F_epc` of Appendix A/B that survives proxy crashes;
//! * [`proto`] — the wire schema of every store operation, shared by the
//!   `obladi-transport` RPC layer and the `obladi-stored` daemon's op-log;
//! * [`disk::DurableStore`] — the daemon-side crash-safe store (in-memory
//!   state rebuilt from a checksummed, torn-tail-tolerant op-log);
//! * [`audit::RecordingStore`] — the adversary-view tap: records what an
//!   observer of this boundary sees (op kinds, addresses, sealed payload
//!   lengths, wire frame sizes) for the obliviousness auditor.
//!
//! Everything stored here is opaque bytes: encryption, MACs and padding are
//! applied by the proxy (`obladi-crypto::Envelope`) *before* data reaches
//! this crate, mirroring the trust boundary of the real system.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod counter;
pub mod disk;
pub mod faulty;
pub mod latency;
pub mod memory;
pub mod proto;
pub mod retention;
pub mod traits;
pub mod wal;

pub use audit::RecordingStore;
pub use counter::TrustedCounter;
pub use disk::{DurableStore, ReplaySummary};
pub use faulty::{CrashOp, CrashPoint, FaultPlan, FaultyStore};
pub use latency::LatencyStore;
pub use memory::InMemoryStore;
pub use proto::{
    StoreRequest, StoreResponse, WireError, WireErrorKind, WireHistogram, WireMetrics,
};
pub use traits::{BucketSnapshot, StoreStats, UntrustedStore};
pub use wal::WriteAheadLog;

use obladi_common::config::BackendKind;
use obladi_common::latency::LatencyProfile;
use std::sync::Arc;

/// Builds the storage stack used by the evaluation: an in-memory store
/// wrapped in the latency profile for `backend`, scaled by `latency_scale`.
pub fn build_backend(
    backend: BackendKind,
    latency_scale: f64,
    seed: u64,
) -> Arc<dyn UntrustedStore> {
    let base = Arc::new(InMemoryStore::new());
    let profile = LatencyProfile::for_backend(backend).scaled(latency_scale);
    Arc::new(LatencyStore::new(base, profile, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_backend_produces_working_store() {
        let store = build_backend(BackendKind::Server, 0.0, 1);
        store
            .write_bucket(3, vec![bytes::Bytes::from_static(b"slot")])
            .unwrap();
        let data = store.read_slot(3, 0).unwrap();
        assert_eq!(&data[..], b"slot");
    }
}
