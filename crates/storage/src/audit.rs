//! The adversary-view tap at the [`UntrustedStore`] boundary.
//!
//! [`RecordingStore`] wraps any store and records, for every operation,
//! exactly what an adversary co-located with the storage server observes:
//! the operation kind, the physical address (bucket, and slot for a slot
//! read), the sealed payload *length* (never plaintext — everything below
//! this boundary is already sealed by the proxy), and the wire frame sizes
//! the operation would occupy on the `obladi-transport` framing.  Frame
//! sizes are computed analytically from the `proto` encoding, so an
//! in-process store produces the same trace shape a real socket would carry
//! — the whole point is comparing traces across workloads, not across
//! transports.
//!
//! [`record_server_op`] is the other half of the tap: the transport
//! server loop calls it per decoded frame, so an `obladi-stored` daemon
//! records what *its* socket actually showed the network into the
//! process-global [`obladi_obs::audit`] ring.

use crate::proto::WireMetrics;
use crate::traits::{BucketSnapshot, StoreStats, UntrustedStore};
use bytes::Bytes;
use obladi_common::error::Result;
use obladi_common::types::{BucketId, Version};
use obladi_obs::audit::{AuditKind, AuditOp, AuditRing};
use std::sync::Arc;

/// Bytes the transport adds around a proto payload: the 4-byte length
/// prefix plus the 9-byte frame header (`id:u64 | op:u8`).
const FRAME_OVERHEAD: usize = 13;

/// Total on-the-wire size of a frame carrying `payload_len` proto bytes.
fn wire_frame(payload_len: usize) -> u32 {
    (FRAME_OVERHEAD + payload_len) as u32
}

/// One trace entry of `store`, for proto payloads of the given lengths; the
/// slot is 0 until a slot-read site sets its own.
fn op(
    store: u32,
    kind: AuditKind,
    addr: u64,
    payload_len: usize,
    req_payload: usize,
    resp_payload: usize,
) -> AuditOp {
    AuditOp {
        at_us: 0,
        store,
        kind,
        addr,
        slot: 0,
        payload_len: payload_len as u32,
        req_frame: wire_frame(req_payload),
        resp_frame: wire_frame(resp_payload),
    }
}

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

/// Maps a request opcode to the trace kind (the adversary reads the tag
/// byte off the frame header).
pub fn kind_for_request_opcode(opcode: u8) -> AuditKind {
    match opcode {
        0x01 => AuditKind::ReadSlot,
        0x02 => AuditKind::ReadBucket,
        0x03 => AuditKind::WriteBucket,
        0x04 => AuditKind::BucketVersion,
        0x05 => AuditKind::RevertBucket,
        0x06 => AuditKind::PutMeta,
        0x07 => AuditKind::GetMeta,
        0x08 => AuditKind::AppendLog,
        0x09 => AuditKind::ReadLog,
        0x0A | 0x0B => AuditKind::TruncateLog,
        _ => AuditKind::Control,
    }
}

/// Records one executed request into the process-global audit ring — the
/// `obladi-stored` server loop's tap.  `req_payload` is the decoded frame
/// payload (opcode byte included); `resp_payload_len` the encoded
/// response payload length.  The payload-length column strips only the
/// tag byte of whichever direction carries the data, so it is a
/// deterministic function of what crossed the socket.
pub fn record_server_op(opcode: u8, req_payload: &[u8], resp_payload_len: usize) {
    let kind = kind_for_request_opcode(opcode);
    // Requests whose first field is a u64 address (bucket or sequence).
    let addr = match opcode {
        0x01..=0x05 | 0x09..=0x0B if req_payload.len() >= 9 => {
            u64::from_le_bytes(req_payload[1..9].try_into().unwrap())
        }
        _ => 0,
    };
    // A slot read names its slot right behind the bucket.
    let slot = match opcode {
        0x01 if req_payload.len() >= 13 => {
            u32::from_le_bytes(req_payload[9..13].try_into().unwrap())
        }
        _ => 0,
    };
    let payload_len = match kind {
        AuditKind::WriteBucket | AuditKind::PutMeta | AuditKind::AppendLog => {
            req_payload.len().saturating_sub(1)
        }
        _ => resp_payload_len.saturating_sub(1),
    };
    let op = op(
        0,
        kind,
        addr,
        payload_len,
        req_payload.len(),
        resp_payload_len,
    );
    obladi_obs::audit::global().record(AuditOp { slot, ..op });
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

    /// Records a slot read that returned `len` sealed bytes.
    fn record_read_slot(&self, bucket: BucketId, slot: u32, len: usize) {
        // req: tag + bucket + slot; resp: tag + len-prefixed payload.
        let read = op(self.store_id, AuditKind::ReadSlot, bucket, len, 13, 5 + len);
        self.ring.record(AuditOp { slot, ..read });
    }

    /// The sealed length and request payload of a bucket write of `slots`,
    /// taken before the slots move into the inner store.
    fn write_sizes(slots: &[Bytes]) -> (usize, usize) {
        let sealed: usize = slots.iter().map(Bytes::len).sum();
        (sealed, 13 + 4 * slots.len() + sealed)
    }

    #[inline]
    fn record(
        &self,
        kind: AuditKind,
        addr: u64,
        payload_len: usize,
        req_payload: usize,
        resp_payload: usize,
    ) {
        let op = op(
            self.store_id,
            kind,
            addr,
            payload_len,
            req_payload,
            resp_payload,
        );
        self.ring.record(op);
    }
}

impl UntrustedStore for RecordingStore {
    fn read_slot(&self, bucket: BucketId, slot: u32) -> Result<Bytes> {
        let data = self.inner.read_slot(bucket, slot)?;
        self.record_read_slot(bucket, slot, data.len());
        Ok(data)
    }

    /// The inner store gets the whole chunk (a remote store pipelines it);
    /// the trace still holds one entry per read that succeeded.
    fn read_slots(&self, reads: &[(BucketId, u32)]) -> Vec<Result<Bytes>> {
        let results = self.inner.read_slots(reads);
        for (&(bucket, slot), result) in reads.iter().zip(&results) {
            if let Ok(data) = result {
                self.record_read_slot(bucket, slot, data.len());
            }
        }
        results
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<BucketSnapshot> {
        let snapshot = self.inner.read_bucket(bucket)?;
        let sealed: usize = snapshot.slots.iter().map(Bytes::len).sum();
        let resp = 13 + 4 * snapshot.slots.len() + sealed;
        self.record(AuditKind::ReadBucket, bucket, sealed, 9, resp);
        Ok(snapshot)
    }

    fn write_bucket(&self, bucket: BucketId, slots: Vec<Bytes>) -> Result<Version> {
        let (sealed, req) = Self::write_sizes(&slots);
        let version = self.inner.write_bucket(bucket, slots)?;
        self.record(AuditKind::WriteBucket, bucket, sealed, req, 9);
        Ok(version)
    }

    /// The chunk form of `write_bucket`, forwarded whole like `read_slots`.
    fn write_buckets(&self, writes: Vec<(BucketId, Vec<Bytes>)>) -> Vec<Result<Version>> {
        let sizes: Vec<(BucketId, (usize, usize))> = writes
            .iter()
            .map(|(bucket, slots)| (*bucket, Self::write_sizes(slots)))
            .collect();
        let results = self.inner.write_buckets(writes);
        for ((bucket, (sealed, req)), result) in sizes.into_iter().zip(&results) {
            if result.is_ok() {
                self.record(AuditKind::WriteBucket, bucket, sealed, req, 9);
            }
        }
        results
    }

    fn bucket_version(&self, bucket: BucketId) -> Result<Version> {
        let version = self.inner.bucket_version(bucket)?;
        self.record(AuditKind::BucketVersion, bucket, 0, 9, 9);
        Ok(version)
    }

    fn revert_bucket(&self, bucket: BucketId, version: Version) -> Result<()> {
        self.inner.revert_bucket(bucket, version)?;
        self.record(AuditKind::RevertBucket, bucket, 0, 17, 1);
        Ok(())
    }

    fn put_meta(&self, key: &str, value: Bytes) -> Result<()> {
        let req = 9 + key.len() + value.len();
        let sealed = value.len();
        self.inner.put_meta(key, value)?;
        self.record(AuditKind::PutMeta, meta_addr(key), sealed, req, 1);
        Ok(())
    }

    fn get_meta(&self, key: &str) -> Result<Option<Bytes>> {
        let value = self.inner.get_meta(key)?;
        let sealed = value.as_ref().map_or(0, Bytes::len);
        let resp = match &value {
            Some(value) => 6 + value.len(),
            None => 2,
        };
        self.record(
            AuditKind::GetMeta,
            meta_addr(key),
            sealed,
            5 + key.len(),
            resp,
        );
        Ok(value)
    }

    fn append_log(&self, record: Bytes) -> Result<u64> {
        let sealed = record.len();
        let seq = self.inner.append_log(record)?;
        self.record(AuditKind::AppendLog, seq, sealed, 5 + sealed, 9);
        Ok(seq)
    }

    fn read_log_from(&self, from: u64) -> Result<Vec<(u64, Bytes)>> {
        let records = self.inner.read_log_from(from)?;
        let sealed: usize = records.iter().map(|(_, data)| data.len()).sum();
        let resp = 6 + 12 * records.len() + sealed;
        self.record(AuditKind::ReadLog, from, sealed, 9, resp);
        Ok(records)
    }

    fn read_log_page(&self, from: u64, max_bytes: usize) -> Result<(Vec<(u64, Bytes)>, bool)> {
        let (records, truncated) = self.inner.read_log_page(from, max_bytes)?;
        let sealed: usize = records.iter().map(|(_, data)| data.len()).sum();
        let resp = 6 + 12 * records.len() + sealed;
        self.record(AuditKind::ReadLog, from, sealed, 9, resp);
        Ok((records, truncated))
    }

    fn truncate_log(&self, up_to: u64) -> Result<()> {
        self.inner.truncate_log(up_to)?;
        self.record(AuditKind::TruncateLog, up_to, 0, 9, 1);
        Ok(())
    }

    fn truncate_log_tail(&self, from: u64) -> Result<()> {
        self.inner.truncate_log_tail(from)?;
        self.record(AuditKind::TruncateLog, from, 0, 9, 1);
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        self.record(AuditKind::Control, 0, 0, 1, 49);
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.record(AuditKind::Control, 0, 0, 1, 1);
        self.inner.reset_stats();
    }

    fn daemon_metrics(&self) -> Option<WireMetrics> {
        self.inner.daemon_metrics()
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
        assert!(!store.waits());
        let profile = obladi_common::latency::LatencyProfile::for_backend(
            obladi_common::config::BackendKind::Server,
        );
        let inner = crate::latency::LatencyStore::new(Arc::new(InMemoryStore::new()), profile, 1);
        let ring = Arc::new(AuditRing::new(16));
        assert!(RecordingStore::new(Arc::new(inner), ring, 0).waits());
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
        use crate::proto::{StoreRequest, StoreResponse};
        obladi_obs::audit::global().reset();
        let request = StoreRequest::ReadSlot { bucket: 9, slot: 1 };
        let response = StoreResponse::Slot(Bytes::from_static(b"sealed!!"));
        let req_payload = request.encode();
        let resp_payload = response.encode();
        record_server_op(request.opcode(), &req_payload, resp_payload.len());
        let ops = obladi_obs::audit::global().ops();
        let op = *ops.last().expect("tap recorded");
        assert_eq!(op.kind, AuditKind::ReadSlot);
        assert_eq!((op.addr, op.slot), (9, 1));
        assert_eq!(op.req_frame, 26);
        assert_eq!(op.resp_frame, 26);
        assert_eq!(op.payload_len, 12, "tag stripped from the data direction");
        obladi_obs::audit::global().reset();
    }

    #[test]
    fn unknown_opcodes_fall_back_to_control() {
        assert_eq!(kind_for_request_opcode(0x0C), AuditKind::Control);
        assert_eq!(kind_for_request_opcode(0x7E), AuditKind::Control);
    }
}
