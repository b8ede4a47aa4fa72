//! The adversary-view tap at the [`UntrustedStore`] boundary.
//!
//! [`audit_op`] is the one recorder: from a request and its response it
//! builds the trace entry an adversary co-located with the storage server
//! observes — the operation kind, the physical address (bucket, and slot
//! for a slot read), the sealed payload *length* (never plaintext —
//! everything below this boundary is already sealed by the proxy) and the
//! sizes of the two wire frames, measured off the `proto` encoder itself.
//! Both sides of the socket record through it, so an in-process trace and
//! a daemon's are the same trace:
//!
//! * [`RecordingStore`] wraps any store and records each request that
//!   succeeds into an [`AuditRing`] shared with the harness;
//! * [`record_server_op`] is the transport server loop's tap: an
//!   `obladi-stored` daemon records every request its socket carried into
//!   the process-global [`obladi_obs::audit`] ring.

use crate::proto::{StoreRequest, StoreResponse, StoreService, FRAME_OVERHEAD};
use crate::traits::UntrustedStore;
use bytes::Bytes;
use obladi_common::error::Result;
use obladi_obs::audit::{AuditKind, AuditOp, AuditRing};
use std::sync::Arc;

/// FNV-1a over a metadata key: a stable physical address for the trace
/// (the adversary sees the key bytes; the auditor only needs identity).
fn meta_addr(key: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn sealed(slots: &[Bytes]) -> usize {
    slots.iter().map(Bytes::len).sum()
}

/// The trace entry of `request`, answered by `response`, on store `store`
/// (the shard index).  `payload_len` is the sealed bytes the operation
/// carries, in whichever direction: slot, bucket, metadata value and log
/// record contents.  `at_us` is the ring's to stamp.
pub fn audit_op(store: u32, request: &StoreRequest, response: &StoreResponse) -> AuditOp {
    use StoreRequest as Q;
    let (kind, addr) = match request {
        Q::ReadSlot { bucket, .. } => (AuditKind::ReadSlot, *bucket),
        Q::ReadBucket { bucket } => (AuditKind::ReadBucket, *bucket),
        Q::WriteBucket { bucket, .. } => (AuditKind::WriteBucket, *bucket),
        Q::BucketVersion { bucket } => (AuditKind::BucketVersion, *bucket),
        Q::RevertBucket { bucket, .. } => (AuditKind::RevertBucket, *bucket),
        Q::PutMeta { key, .. } => (AuditKind::PutMeta, meta_addr(key)),
        Q::GetMeta { key } => (AuditKind::GetMeta, meta_addr(key)),
        Q::AppendLog { .. } => match response {
            StoreResponse::LogSeq(seq) => (AuditKind::AppendLog, *seq),
            _ => (AuditKind::AppendLog, 0),
        },
        Q::ReadLogFrom { from } => (AuditKind::ReadLog, *from),
        Q::TruncateLog { up_to: seq } | Q::TruncateLogTail { from: seq } => {
            (AuditKind::TruncateLog, *seq)
        }
        Q::Stats | Q::ResetStats | Q::Ping | Q::Shutdown | Q::MetricsSnapshot => {
            (AuditKind::Control, 0)
        }
    };
    let sent = match request {
        Q::WriteBucket { slots, .. } => sealed(slots),
        Q::PutMeta { value: data, .. } | Q::AppendLog { record: data } => data.len(),
        _ => 0,
    };
    let received = match response {
        StoreResponse::Slot(data) | StoreResponse::MetaValue(Some(data)) => data.len(),
        StoreResponse::Bucket(snapshot) => sealed(&snapshot.slots),
        StoreResponse::LogRecords { records, .. } => records.iter().map(|(_, r)| r.len()).sum(),
        _ => 0,
    };
    AuditOp {
        at_us: 0,
        store,
        kind,
        addr,
        slot: match request {
            Q::ReadSlot { slot, .. } => *slot,
            _ => 0,
        },
        payload_len: (sent + received) as u32,
        req_frame: (FRAME_OVERHEAD + request.encoded_len()) as u32,
        resp_frame: (FRAME_OVERHEAD + response.encoded_len()) as u32,
    }
}

/// Records one request the server loop executed, and the response it
/// sent, into the process-global audit ring — the `obladi-stored` daemon's
/// tap.
pub fn record_server_op(request: &StoreRequest, response: &StoreResponse) {
    obladi_obs::audit::global().record(audit_op(0, request, response));
}

/// A store wrapper recording the adversary-visible trace of every
/// operation into an [`AuditRing`] shared with the harness.
pub struct RecordingStore {
    inner: Arc<dyn UntrustedStore>,
    ring: Arc<AuditRing>,
    store_id: u32,
}

impl RecordingStore {
    /// Wraps `inner`, tagging every recorded operation with `store_id`
    /// (the shard index in multi-store harnesses).
    pub fn new(inner: Arc<dyn UntrustedStore>, ring: Arc<AuditRing>, store_id: u32) -> Self {
        RecordingStore {
            inner,
            ring,
            store_id,
        }
    }

    /// The ring this store records into.
    pub fn ring(&self) -> &Arc<AuditRing> {
        &self.ring
    }

    fn record(&self, request: &StoreRequest, response: &Result<StoreResponse>) {
        if let Ok(response) = response {
            self.ring.record(audit_op(self.store_id, request, response));
        }
    }
}

impl StoreService for RecordingStore {
    fn call(&self, request: StoreRequest) -> Result<StoreResponse> {
        let response = request.apply(self.inner.as_ref());
        self.record(&request, &response);
        response
    }

    /// The inner store gets the whole chunk (a remote store pipelines it);
    /// the trace still holds one entry per request that succeeded.
    fn call_many(&self, requests: Vec<StoreRequest>) -> Vec<Result<StoreResponse>> {
        let responses = StoreRequest::apply_many(&requests, self.inner.as_ref());
        for (request, response) in requests.iter().zip(&responses) {
            self.record(request, response);
        }
        responses
    }

    fn waits(&self) -> bool {
        self.inner.waits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryStore;

    fn recorded() -> (Arc<RecordingStore>, Arc<AuditRing>) {
        let ring = Arc::new(AuditRing::new(1024));
        let store = Arc::new(RecordingStore::new(
            Arc::new(InMemoryStore::new()),
            ring.clone(),
            3,
        ));
        (store, ring)
    }

    #[test]
    fn slot_reads_record_length_not_contents() {
        let (store, ring) = recorded();
        store
            .write_bucket(7, vec![Bytes::from_static(b"sealedsealed"); 2])
            .unwrap();
        store.read_slot(7, 1).unwrap();
        let ops = ring.ops();
        assert_eq!(ops.len(), 2);
        let read = ops[1];
        assert_eq!(read.kind, AuditKind::ReadSlot);
        assert_eq!(read.store, 3);
        assert_eq!((read.addr, read.slot), (7, 1));
        assert_eq!(read.payload_len, 12);
        // req: 13 framing + tag + bucket + slot; resp: 13 + tag + 4 + 12.
        assert_eq!(read.req_frame, 26);
        assert_eq!(read.resp_frame, 30);
    }

    #[test]
    fn equal_length_slots_are_trace_identical() {
        // The recorder must not leak contents: two buckets holding
        // different sealed bytes of equal length produce identical ops up
        // to address and time.
        let (store, ring) = recorded();
        store
            .write_bucket(1, vec![Bytes::from_static(b"aaaaaaaa")])
            .unwrap();
        store
            .write_bucket(2, vec![Bytes::from_static(b"zzzzzzzz")])
            .unwrap();
        ring.reset();
        store.read_slot(1, 0).unwrap();
        store.read_slot(2, 0).unwrap();
        let ops = ring.ops();
        assert_eq!(
            (
                ops[0].kind,
                ops[0].payload_len,
                ops[0].req_frame,
                ops[0].resp_frame
            ),
            (
                ops[1].kind,
                ops[1].payload_len,
                ops[1].req_frame,
                ops[1].resp_frame
            ),
        );
    }

    #[test]
    fn chunk_calls_record_one_entry_per_item_that_succeeded() {
        let (store, ring) = recorded();
        let slots = |fill: &'static [u8]| vec![Bytes::from_static(fill); 2];
        let written = store.write_buckets(vec![(4, slots(b"abcd")), (5, slots(b"efghij"))]);
        assert!(written.iter().all(Result::is_ok));
        // Bucket 9 was never written: its read fails and leaves no entry.
        let read = store.read_slots(&[(4, 1), (9, 0), (5, 0)]);
        assert!(read[0].is_ok() && read[1].is_err() && read[2].is_ok());
        let chunked = ring.ops();

        // The same operations one at a time leave the same trace.
        let (single, ring) = recorded();
        single.write_bucket(4, slots(b"abcd")).unwrap();
        single.write_bucket(5, slots(b"efghij")).unwrap();
        single.read_slot(4, 1).unwrap();
        assert!(single.read_slot(9, 0).is_err());
        single.read_slot(5, 0).unwrap();
        let shape = |op: &AuditOp| {
            let fields = (op.kind, op.addr, op.slot, op.payload_len);
            (fields, op.req_frame, op.resp_frame)
        };
        let expected: Vec<_> = ring.ops().iter().map(shape).collect();
        assert_eq!(chunked.iter().map(shape).collect::<Vec<_>>(), expected);
        assert_eq!(expected.len(), 4);
    }

    #[test]
    fn waits_is_forwarded() {
        let (store, _) = recorded();
        assert!(!UntrustedStore::waits(&*store));
        let profile = obladi_common::latency::LatencyProfile::for_backend(
            obladi_common::config::BackendKind::Server,
        );
        let inner = crate::latency::LatencyStore::new(Arc::new(InMemoryStore::new()), profile, 1);
        let ring = Arc::new(AuditRing::new(16));
        assert!(UntrustedStore::waits(&RecordingStore::new(
            Arc::new(inner),
            ring,
            0
        )));
    }

    #[test]
    fn meta_and_log_ops_map_to_their_kinds() {
        let (store, ring) = recorded();
        store
            .put_meta("ckpt/1", Bytes::from_static(b"state"))
            .unwrap();
        store.get_meta("ckpt/1").unwrap();
        store.get_meta("absent").unwrap();
        store.append_log(Bytes::from_static(b"wal")).unwrap();
        store.read_log_from(0).unwrap();
        store.truncate_log(1).unwrap();
        let kinds: Vec<AuditKind> = ring.ops().iter().map(|op| op.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AuditKind::PutMeta,
                AuditKind::GetMeta,
                AuditKind::GetMeta,
                AuditKind::AppendLog,
                AuditKind::ReadLog,
                AuditKind::TruncateLog,
            ]
        );
        let ops = ring.ops();
        assert_eq!(ops[0].addr, ops[1].addr, "same key, same address");
        assert_ne!(
            ops[1].addr, ops[2].addr,
            "distinct keys, distinct addresses"
        );
        assert_eq!(ops[0].payload_len, 5);
        assert_eq!(ops[2].payload_len, 0, "absent meta reads as empty");
    }

    #[test]
    fn server_tap_mirrors_the_frame_sizes() {
        obladi_obs::audit::global().reset();
        let request = StoreRequest::ReadSlot { bucket: 9, slot: 1 };
        let response = StoreResponse::Slot(Bytes::from_static(b"sealed!!"));
        record_server_op(&request, &response);
        let ops = obladi_obs::audit::global().ops();
        let op = *ops.last().expect("tap recorded");
        assert_eq!(op.kind, AuditKind::ReadSlot);
        assert_eq!((op.addr, op.slot), (9, 1));
        // Frames: 13 framing + the encoded message, as `obladi-transport`
        // sends it.
        assert_eq!(op.req_frame as usize, 13 + request.encode().len());
        assert_eq!(op.resp_frame as usize, 13 + response.encode().len());
        assert_eq!((op.req_frame, op.resp_frame), (26, 26));
        assert_eq!(op.payload_len, 8, "the sealed bytes, not their encoding");
        obladi_obs::audit::global().reset();
    }

    #[test]
    fn control_requests_are_control_ops_carrying_no_payload() {
        let stats = StoreResponse::Stats(Default::default());
        for (request, response) in [
            (StoreRequest::Stats, &stats),
            (StoreRequest::ResetStats, &StoreResponse::Unit),
            (StoreRequest::Ping, &StoreResponse::Pong(1)),
        ] {
            let op = audit_op(0, &request, response);
            assert_eq!(
                (op.kind, op.addr, op.payload_len),
                (AuditKind::Control, 0, 0)
            );
        }
    }
}
