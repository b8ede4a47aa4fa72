//! Wire schema of the untrusted-storage RPC: every [`UntrustedStore`]
//! operation as a self-describing message.
//!
//! The paper's proxy talks to cloud storage over a network; this module
//! defines *what* crosses that wire.  `obladi-transport` frames these
//! messages onto sockets, and the `obladi-stored` daemon's durable op-log
//! persists the mutating subset verbatim — one encoding, three uses.
//!
//! It is also the one place that maps store calls to requests and back.
//! A store that adds something per request — a socket, an op-log, a trace,
//! a latency charge, a fault — implements [`StoreService`] and gets its
//! [`UntrustedStore`] from the blanket impl below; [`StoreRequest::apply`]
//! runs a request against any [`UntrustedStore`] (the daemon's server
//! loop, the op-log replay, every decorator's inner store).
//!
//! The encoding is deliberately hand-rolled (the workspace's serde is a
//! vendored no-op shim) and versioned at the *connection* level by the
//! transport handshake, not per message: a connection only ever carries one
//! protocol version.  All integers are little-endian; byte strings and
//! lists are length-prefixed.  Decoding is strict — trailing garbage,
//! truncated fields and unknown tags are `Codec` errors, never silently
//! tolerated, because a desynchronised stream to an *untrusted* server must
//! fail loudly rather than deliver attacker-shaped frames.

use crate::traits::{BucketSnapshot, StoreStats, UntrustedStore};
use bytes::Bytes;
use obladi_common::error::{ObladiError, Result};
use obladi_common::types::{BucketId, Version};

/// Upper bound on any single length field (64 MiB): a malicious or corrupt
/// peer must not be able to make the decoder allocate unbounded memory.
pub const MAX_WIRE_LEN: usize = 64 << 20;

/// Bytes the transport frames around each message: a u32 length prefix, a
/// u64 request id and the u8 opcode.
pub const FRAME_OVERHEAD: usize = 4 + 8 + 1;

/// Byte budget of one `ReadLogFrom` response page, comfortably inside the
/// frame decoder's bound; [`UntrustedStore::read_log_from`] over a
/// [`StoreService`] re-issues from the last sequence number until
/// `truncated` clears.
pub const LOG_PAGE_BYTES: usize = 8 << 20;

/// One request against the untrusted store, mirroring
/// [`UntrustedStore`](crate::UntrustedStore) method for method, plus the
/// connection-management operations the daemon needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreRequest {
    /// `read_slot(bucket, slot)`.
    ReadSlot {
        /// Bucket to read.
        bucket: BucketId,
        /// Slot index within the bucket.
        slot: u32,
    },
    /// `read_bucket(bucket)`.
    ReadBucket {
        /// Bucket to read.
        bucket: BucketId,
    },
    /// `write_bucket(bucket, slots)`.
    WriteBucket {
        /// Bucket to replace.
        bucket: BucketId,
        /// New sealed slot payloads.
        slots: Vec<Bytes>,
    },
    /// `bucket_version(bucket)`.
    BucketVersion {
        /// Bucket to query.
        bucket: BucketId,
    },
    /// `revert_bucket(bucket, version)` (shadow paging).
    RevertBucket {
        /// Bucket to revert.
        bucket: BucketId,
        /// Version to revert to.
        version: Version,
    },
    /// `put_meta(key, value)`.
    PutMeta {
        /// Metadata key.
        key: String,
        /// Metadata value.
        value: Bytes,
    },
    /// `get_meta(key)`.
    GetMeta {
        /// Metadata key.
        key: String,
    },
    /// `append_log(record)` (WAL append).
    AppendLog {
        /// Record payload.
        record: Bytes,
    },
    /// `read_log_from(from)` (WAL read).
    ReadLogFrom {
        /// First sequence number to return.
        from: u64,
    },
    /// `truncate_log(up_to)` (WAL checkpoint truncation).
    TruncateLog {
        /// Records below this sequence number are dropped.
        up_to: u64,
    },
    /// `truncate_log_tail(from)` (torn-tail retirement).
    TruncateLogTail {
        /// Records at or above this sequence number are dropped.
        from: u64,
    },
    /// `stats()`.
    Stats,
    /// `reset_stats()`.
    ResetStats,
    /// Liveness / readiness probe; the daemon answers with its protocol
    /// version.
    Ping,
    /// Graceful daemon shutdown: the server acknowledges, flushes its
    /// durable state and exits.
    Shutdown,
    /// Scrape of the daemon's own telemetry (`daemon.*` metrics), so
    /// remote-profile `--metrics-out` dumps can merge what each storage
    /// process observed instead of silently omitting it.
    MetricsSnapshot,
}

impl StoreRequest {
    /// The request's opcode tag (also carried in the transport frame
    /// header so the two can be cross-checked against desync).
    pub fn opcode(&self) -> u8 {
        match self {
            StoreRequest::ReadSlot { .. } => 0x01,
            StoreRequest::ReadBucket { .. } => 0x02,
            StoreRequest::WriteBucket { .. } => 0x03,
            StoreRequest::BucketVersion { .. } => 0x04,
            StoreRequest::RevertBucket { .. } => 0x05,
            StoreRequest::PutMeta { .. } => 0x06,
            StoreRequest::GetMeta { .. } => 0x07,
            StoreRequest::AppendLog { .. } => 0x08,
            StoreRequest::ReadLogFrom { .. } => 0x09,
            StoreRequest::TruncateLog { .. } => 0x0A,
            StoreRequest::TruncateLogTail { .. } => 0x0B,
            StoreRequest::Stats => 0x0C,
            StoreRequest::ResetStats => 0x0D,
            StoreRequest::Ping => 0x0E,
            StoreRequest::Shutdown => 0x0F,
            StoreRequest::MetricsSnapshot => 0x10,
        }
    }

    /// Whether the operation changes state the daemon must make durable
    /// before acknowledging (the op-log persistence criterion).
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            StoreRequest::WriteBucket { .. }
                | StoreRequest::RevertBucket { .. }
                | StoreRequest::PutMeta { .. }
                | StoreRequest::AppendLog { .. }
                | StoreRequest::TruncateLog { .. }
                | StoreRequest::TruncateLogTail { .. }
        )
    }

    /// Encodes the request (opcode byte followed by its fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        self.write(&mut buf);
        buf
    }

    /// Length of [`StoreRequest::encode`]'s output, without encoding.
    pub fn encoded_len(&self) -> usize {
        let mut len = 0;
        self.write(&mut len);
        len
    }

    fn write(&self, buf: &mut impl Sink) {
        buf.put(&[self.opcode()]);
        match self {
            StoreRequest::ReadSlot { bucket, slot } => {
                put_u64(buf, *bucket);
                put_u32(buf, *slot);
            }
            StoreRequest::ReadBucket { bucket } => put_u64(buf, *bucket),
            StoreRequest::WriteBucket { bucket, slots } => {
                put_u64(buf, *bucket);
                put_u32(buf, slots.len() as u32);
                for slot in slots {
                    put_bytes(buf, slot);
                }
            }
            StoreRequest::BucketVersion { bucket } => put_u64(buf, *bucket),
            StoreRequest::RevertBucket { bucket, version } => {
                put_u64(buf, *bucket);
                put_u64(buf, *version);
            }
            StoreRequest::PutMeta { key, value } => {
                put_bytes(buf, key.as_bytes());
                put_bytes(buf, value);
            }
            StoreRequest::GetMeta { key } => put_bytes(buf, key.as_bytes()),
            StoreRequest::AppendLog { record } => put_bytes(buf, record),
            StoreRequest::ReadLogFrom { from } => put_u64(buf, *from),
            StoreRequest::TruncateLog { up_to } => put_u64(buf, *up_to),
            StoreRequest::TruncateLogTail { from } => put_u64(buf, *from),
            StoreRequest::Stats
            | StoreRequest::ResetStats
            | StoreRequest::Ping
            | StoreRequest::Shutdown
            | StoreRequest::MetricsSnapshot => {}
        }
    }

    /// Decodes a request; the whole buffer must be consumed.
    pub fn decode(data: &[u8]) -> Result<StoreRequest> {
        let mut reader = Reader::new(data);
        let opcode = reader.u8()?;
        let request = match opcode {
            0x01 => StoreRequest::ReadSlot {
                bucket: reader.u64()?,
                slot: reader.u32()?,
            },
            0x02 => StoreRequest::ReadBucket {
                bucket: reader.u64()?,
            },
            0x03 => {
                let bucket = reader.u64()?;
                let count = reader.list_len(4)?;
                let mut slots = Vec::with_capacity(count);
                for _ in 0..count {
                    slots.push(reader.bytes()?);
                }
                StoreRequest::WriteBucket { bucket, slots }
            }
            0x04 => StoreRequest::BucketVersion {
                bucket: reader.u64()?,
            },
            0x05 => StoreRequest::RevertBucket {
                bucket: reader.u64()?,
                version: reader.u64()?,
            },
            0x06 => StoreRequest::PutMeta {
                key: reader.string()?,
                value: reader.bytes()?,
            },
            0x07 => StoreRequest::GetMeta {
                key: reader.string()?,
            },
            0x08 => StoreRequest::AppendLog {
                record: reader.bytes()?,
            },
            0x09 => StoreRequest::ReadLogFrom {
                from: reader.u64()?,
            },
            0x0A => StoreRequest::TruncateLog {
                up_to: reader.u64()?,
            },
            0x0B => StoreRequest::TruncateLogTail {
                from: reader.u64()?,
            },
            0x0C => StoreRequest::Stats,
            0x0D => StoreRequest::ResetStats,
            0x0E => StoreRequest::Ping,
            0x0F => StoreRequest::Shutdown,
            0x10 => StoreRequest::MetricsSnapshot,
            other => {
                return Err(ObladiError::Codec(format!(
                    "unknown store request opcode 0x{other:02X}"
                )))
            }
        };
        reader.finish()?;
        Ok(request)
    }
}

/// One response from the untrusted store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreResponse {
    /// Slot payload (`read_slot`).
    Slot(Bytes),
    /// Bucket snapshot (`read_bucket`).
    Bucket(BucketSnapshot),
    /// A version number (`write_bucket`, `bucket_version`).
    Version(Version),
    /// Success with no payload (`revert_bucket`, `put_meta`, truncations,
    /// `reset_stats`, `shutdown`).
    Unit,
    /// Metadata value, if present (`get_meta`).
    MetaValue(Option<Bytes>),
    /// Assigned log sequence number (`append_log`).
    LogSeq(u64),
    /// Log records (`read_log_from`).  `truncated` means the server hit
    /// its per-response byte budget and the client must re-issue the read
    /// from the last returned sequence number + 1 — a WAL that outgrew a
    /// single frame must page, not collapse the connection against the
    /// decoder's frame-size bound.
    LogRecords {
        /// The records, in sequence order.
        records: Vec<(u64, Bytes)>,
        /// Whether more records exist beyond this page.
        truncated: bool,
    },
    /// Operation counters (`stats`).
    Stats(StoreStats),
    /// Liveness reply carrying the daemon's protocol version (`ping`).
    Pong(u16),
    /// The daemon's own telemetry (`metrics_snapshot`).
    Metrics(WireMetrics),
    /// The operation failed on the server; carries the re-hydratable error.
    Err(WireError),
}

/// A flattened histogram for the wire: the summary fields of the obs
/// crate's histogram snapshot, without the bucket layout (which is an
/// implementation detail of the recording process).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireHistogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

/// A daemon's telemetry, flattened for the wire.  Name/value lists rather
/// than a fixed struct so the daemon can grow metrics without a protocol
/// bump; the proxy namespaces them per shard on arrival.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// `(name, total)` counter pairs.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` gauge pairs.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` histogram pairs.
    pub histograms: Vec<(String, WireHistogram)>,
}

/// A storage-server error flattened for the wire and re-hydrated client
/// side into the matching [`ObladiError`] variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Which [`ObladiError`] variant this maps to.
    pub kind: WireErrorKind,
    /// Human-readable context.
    pub message: String,
}

/// Error variants that can legitimately originate on the storage server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// Maps to [`ObladiError::Storage`].
    Storage,
    /// Maps to [`ObladiError::Codec`].
    Codec,
    /// Maps to [`ObladiError::Internal`].
    Internal,
}

impl WireError {
    /// Flattens an error for the wire.  Everything that is not obviously a
    /// codec or internal fault is reported as a storage fault — from the
    /// proxy's point of view the daemon *is* the storage.
    pub fn from_error(err: &ObladiError) -> WireError {
        let (kind, message) = match err {
            ObladiError::Storage(msg) => (WireErrorKind::Storage, msg.clone()),
            ObladiError::Codec(msg) => (WireErrorKind::Codec, msg.clone()),
            ObladiError::Internal(msg) => (WireErrorKind::Internal, msg.clone()),
            other => (WireErrorKind::Storage, other.to_string()),
        };
        WireError { kind, message }
    }

    /// Re-hydrates the error client side.
    pub fn into_error(self) -> ObladiError {
        match self.kind {
            WireErrorKind::Storage => ObladiError::Storage(self.message),
            WireErrorKind::Codec => ObladiError::Codec(self.message),
            WireErrorKind::Internal => ObladiError::Internal(self.message),
        }
    }

    fn kind_tag(&self) -> u8 {
        match self.kind {
            WireErrorKind::Storage => 0,
            WireErrorKind::Codec => 1,
            WireErrorKind::Internal => 2,
        }
    }

    fn kind_from_tag(tag: u8) -> Result<WireErrorKind> {
        match tag {
            0 => Ok(WireErrorKind::Storage),
            1 => Ok(WireErrorKind::Codec),
            2 => Ok(WireErrorKind::Internal),
            other => Err(ObladiError::Codec(format!(
                "unknown wire error kind {other}"
            ))),
        }
    }
}

impl StoreResponse {
    /// The response's tag byte.
    pub fn opcode(&self) -> u8 {
        match self {
            StoreResponse::Slot(_) => 0x81,
            StoreResponse::Bucket(_) => 0x82,
            StoreResponse::Version(_) => 0x83,
            StoreResponse::Unit => 0x84,
            StoreResponse::MetaValue(_) => 0x85,
            StoreResponse::LogSeq(_) => 0x86,
            StoreResponse::LogRecords { .. } => 0x87,
            StoreResponse::Stats(_) => 0x88,
            StoreResponse::Pong(_) => 0x89,
            StoreResponse::Metrics(_) => 0x8A,
            StoreResponse::Err(_) => 0xFF,
        }
    }

    /// Encodes the response (tag byte followed by its fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16);
        self.write(&mut buf);
        buf
    }

    /// Length of [`StoreResponse::encode`]'s output, without encoding.
    pub fn encoded_len(&self) -> usize {
        let mut len = 0;
        self.write(&mut len);
        len
    }

    fn write(&self, buf: &mut impl Sink) {
        buf.put(&[self.opcode()]);
        match self {
            StoreResponse::Slot(data) => put_bytes(buf, data),
            StoreResponse::Bucket(snapshot) => {
                put_u64(buf, snapshot.version);
                put_u32(buf, snapshot.slots.len() as u32);
                for slot in &snapshot.slots {
                    put_bytes(buf, slot);
                }
            }
            StoreResponse::Version(version) => put_u64(buf, *version),
            StoreResponse::Unit => {}
            StoreResponse::MetaValue(value) => match value {
                Some(value) => {
                    buf.put(&[1]);
                    put_bytes(buf, value);
                }
                None => buf.put(&[0]),
            },
            StoreResponse::LogSeq(seq) => put_u64(buf, *seq),
            StoreResponse::LogRecords { records, truncated } => {
                buf.put(&[u8::from(*truncated)]);
                put_u32(buf, records.len() as u32);
                for (seq, data) in records {
                    put_u64(buf, *seq);
                    put_bytes(buf, data);
                }
            }
            StoreResponse::Stats(stats) => {
                put_u64(buf, stats.slot_reads);
                put_u64(buf, stats.bucket_writes);
                put_u64(buf, stats.meta_reads);
                put_u64(buf, stats.meta_writes);
                put_u64(buf, stats.bytes_read);
                put_u64(buf, stats.bytes_written);
            }
            StoreResponse::Pong(version) => buf.put(&version.to_le_bytes()),
            StoreResponse::Metrics(metrics) => {
                put_u32(buf, metrics.counters.len() as u32);
                for (name, total) in &metrics.counters {
                    put_bytes(buf, name.as_bytes());
                    put_u64(buf, *total);
                }
                put_u32(buf, metrics.gauges.len() as u32);
                for (name, level) in &metrics.gauges {
                    put_bytes(buf, name.as_bytes());
                    put_u64(buf, *level as u64);
                }
                put_u32(buf, metrics.histograms.len() as u32);
                for (name, histogram) in &metrics.histograms {
                    put_bytes(buf, name.as_bytes());
                    put_u64(buf, histogram.count);
                    put_u64(buf, histogram.sum);
                    put_u64(buf, histogram.max);
                }
            }
            StoreResponse::Err(err) => {
                buf.put(&[err.kind_tag()]);
                put_bytes(buf, err.message.as_bytes());
            }
        }
    }

    /// Decodes a response; the whole buffer must be consumed.
    pub fn decode(data: &[u8]) -> Result<StoreResponse> {
        let mut reader = Reader::new(data);
        let opcode = reader.u8()?;
        let response = match opcode {
            0x81 => StoreResponse::Slot(reader.bytes()?),
            0x82 => {
                let version = reader.u64()?;
                let count = reader.list_len(4)?;
                let mut slots = Vec::with_capacity(count);
                for _ in 0..count {
                    slots.push(reader.bytes()?);
                }
                StoreResponse::Bucket(BucketSnapshot { version, slots })
            }
            0x83 => StoreResponse::Version(reader.u64()?),
            0x84 => StoreResponse::Unit,
            0x85 => match reader.u8()? {
                0 => StoreResponse::MetaValue(None),
                1 => StoreResponse::MetaValue(Some(reader.bytes()?)),
                other => {
                    return Err(ObladiError::Codec(format!(
                        "invalid option tag {other} in meta value"
                    )))
                }
            },
            0x86 => StoreResponse::LogSeq(reader.u64()?),
            0x87 => {
                let truncated = match reader.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(ObladiError::Codec(format!(
                            "invalid truncation flag {other} in log records"
                        )))
                    }
                };
                let count = reader.list_len(12)?;
                let mut records = Vec::with_capacity(count);
                for _ in 0..count {
                    let seq = reader.u64()?;
                    records.push((seq, reader.bytes()?));
                }
                StoreResponse::LogRecords { records, truncated }
            }
            0x88 => StoreResponse::Stats(StoreStats {
                slot_reads: reader.u64()?,
                bucket_writes: reader.u64()?,
                meta_reads: reader.u64()?,
                meta_writes: reader.u64()?,
                bytes_read: reader.u64()?,
                bytes_written: reader.u64()?,
            }),
            0x89 => StoreResponse::Pong(reader.u16()?),
            0x8A => {
                let count = reader.list_len(12)?;
                let mut counters = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = reader.string()?;
                    counters.push((name, reader.u64()?));
                }
                let count = reader.list_len(12)?;
                let mut gauges = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = reader.string()?;
                    gauges.push((name, reader.u64()? as i64));
                }
                let count = reader.list_len(28)?;
                let mut histograms = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = reader.string()?;
                    histograms.push((
                        name,
                        WireHistogram {
                            count: reader.u64()?,
                            sum: reader.u64()?,
                            max: reader.u64()?,
                        },
                    ));
                }
                StoreResponse::Metrics(WireMetrics {
                    counters,
                    gauges,
                    histograms,
                })
            }
            0xFF => {
                let kind = WireError::kind_from_tag(reader.u8()?)?;
                let message = reader.string()?;
                StoreResponse::Err(WireError { kind, message })
            }
            other => {
                return Err(ObladiError::Codec(format!(
                    "unknown store response opcode 0x{other:02X}"
                )))
            }
        };
        reader.finish()?;
        Ok(response)
    }

    /// Convenience: turns an error response into `Err`, anything else into
    /// `Ok(self)`.
    pub fn into_result(self) -> Result<StoreResponse> {
        match self {
            StoreResponse::Err(err) => Err(err.into_error()),
            other => Ok(other),
        }
    }
}

// ---------------------------------------------------------------------
// Store calls as requests
// ---------------------------------------------------------------------

impl StoreRequest {
    /// Runs the request against `store`: the one mapping from requests to
    /// [`UntrustedStore`] calls.  `ReadLogFrom` answers one page of
    /// [`LOG_PAGE_BYTES`], and `MetricsSnapshot` the store's
    /// [`UntrustedStore::daemon_metrics`] (an error when it has none);
    /// `Ping` and `Shutdown` address the server hosting a store and fail.
    pub fn apply(&self, store: &dyn UntrustedStore) -> Result<StoreResponse> {
        use StoreRequest as Q;
        use StoreResponse as R;
        Ok(match self {
            Q::ReadSlot { bucket, slot } => R::Slot(store.read_slot(*bucket, *slot)?),
            Q::ReadBucket { bucket } => R::Bucket(store.read_bucket(*bucket)?),
            Q::WriteBucket { bucket, slots } => {
                R::Version(store.write_bucket(*bucket, slots.clone())?)
            }
            Q::BucketVersion { bucket } => R::Version(store.bucket_version(*bucket)?),
            Q::RevertBucket { bucket, version } => R::unit(store.revert_bucket(*bucket, *version))?,
            Q::PutMeta { key, value } => R::unit(store.put_meta(key, value.clone()))?,
            Q::GetMeta { key } => R::MetaValue(store.get_meta(key)?),
            Q::AppendLog { record } => R::LogSeq(store.append_log(record.clone())?),
            Q::ReadLogFrom { from } => {
                let (records, truncated) = store.read_log_page(*from, LOG_PAGE_BYTES)?;
                R::LogRecords { records, truncated }
            }
            Q::TruncateLog { up_to } => R::unit(store.truncate_log(*up_to))?,
            Q::TruncateLogTail { from } => R::unit(store.truncate_log_tail(*from))?,
            Q::Stats => R::Stats(store.stats()),
            Q::ResetStats => {
                store.reset_stats();
                R::Unit
            }
            Q::MetricsSnapshot => R::Metrics(store.daemon_metrics().ok_or_else(|| {
                ObladiError::Storage("an in-process store has no daemon metrics".into())
            })?),
            Q::Ping | Q::Shutdown => {
                return Err(ObladiError::Storage(format!(
                    "{self:?} addresses the storage server, not a store"
                )))
            }
        })
    }

    /// Runs a chunk of requests against `store`: one result per request,
    /// in order.  A chunk of slot reads or of bucket writes reaches `store`
    /// whole (`read_slots` / `write_buckets`), so a store with a round trip
    /// to amortise pipelines it; any other chunk runs request by request.
    pub fn apply_many(
        requests: &[StoreRequest],
        store: &dyn UntrustedStore,
    ) -> Vec<Result<StoreResponse>> {
        let reads: Option<Vec<_>> = (requests.iter())
            .map(|request| match request {
                StoreRequest::ReadSlot { bucket, slot } => Some((*bucket, *slot)),
                _ => None,
            })
            .collect();
        if let Some(reads) = reads {
            let read = store.read_slots(&reads).into_iter();
            return read.map(|r| r.map(StoreResponse::Slot)).collect();
        }
        let writes: Option<Vec<_>> = (requests.iter())
            .map(|request| match request {
                StoreRequest::WriteBucket { bucket, slots } => Some((*bucket, slots.clone())),
                _ => None,
            })
            .collect();
        if let Some(writes) = writes {
            let written = store.write_buckets(writes).into_iter();
            return written.map(|r| r.map(StoreResponse::Version)).collect();
        }
        requests
            .iter()
            .map(|request| request.apply(store))
            .collect()
    }
}

impl StoreResponse {
    fn unit(done: Result<()>) -> Result<StoreResponse> {
        done.map(|()| StoreResponse::Unit)
    }
}

/// A store seen one request at a time.  The socket client, the daemon's
/// durable store and every store decorator implement this and nothing
/// else: the blanket impl below makes each an [`UntrustedStore`], and
/// [`StoreRequest::apply`] hands a request on to a wrapped store.
pub trait StoreService: Send + Sync {
    /// Executes one request.
    fn call(&self, request: StoreRequest) -> Result<StoreResponse>;

    /// Executes the requests of one `read_slots` / `write_buckets` chunk:
    /// one result per request, in order.  The default runs them one by
    /// one, so a store that checks, charges or counts operations sees each;
    /// a store that forwards a chunk whole overrides it with
    /// [`StoreRequest::apply_many`].
    fn call_many(&self, requests: Vec<StoreRequest>) -> Vec<Result<StoreResponse>> {
        let call = |request| self.call(request);
        requests.into_iter().map(call).collect()
    }

    /// [`UntrustedStore::waits`]; a wrapper forwards its inner store's.
    fn waits(&self) -> bool {
        false
    }
}

/// The variant `$pattern` of a response as `Ok($value)`, or an error.
macro_rules! answer {
    ($response:expr, $pattern:pat => $value:expr) => {
        match $response {
            $pattern => Ok($value),
            other => Err(ObladiError::Storage(format!(
                "unexpected store response {other:?}"
            ))),
        }
    };
}

/// The one mapping from [`UntrustedStore`] calls to requests.
impl<S: StoreService> UntrustedStore for S {
    fn read_slot(&self, bucket: BucketId, slot: u32) -> Result<Bytes> {
        let read = self.call(StoreRequest::ReadSlot { bucket, slot })?;
        answer!(read, StoreResponse::Slot(data) => data)
    }

    fn read_slots(&self, reads: &[(BucketId, u32)]) -> Vec<Result<Bytes>> {
        let request = |&(bucket, slot)| StoreRequest::ReadSlot { bucket, slot };
        let read = self.call_many(reads.iter().map(request).collect());
        let slot = |read: Result<_>| answer!(read?, StoreResponse::Slot(data) => data);
        read.into_iter().map(slot).collect()
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<BucketSnapshot> {
        let read = self.call(StoreRequest::ReadBucket { bucket })?;
        answer!(read, StoreResponse::Bucket(snapshot) => snapshot)
    }

    fn write_bucket(&self, bucket: BucketId, slots: Vec<Bytes>) -> Result<Version> {
        let written = self.call(StoreRequest::WriteBucket { bucket, slots })?;
        answer!(written, StoreResponse::Version(version) => version)
    }

    fn write_buckets(&self, writes: Vec<(BucketId, Vec<Bytes>)>) -> Vec<Result<Version>> {
        let request = |(bucket, slots)| StoreRequest::WriteBucket { bucket, slots };
        let written = self.call_many(writes.into_iter().map(request).collect());
        let version = |written: Result<_>| answer!(written?, StoreResponse::Version(v) => v);
        written.into_iter().map(version).collect()
    }

    fn bucket_version(&self, bucket: BucketId) -> Result<Version> {
        let version = self.call(StoreRequest::BucketVersion { bucket })?;
        answer!(version, StoreResponse::Version(version) => version)
    }

    fn revert_bucket(&self, bucket: BucketId, version: Version) -> Result<()> {
        let reverted = self.call(StoreRequest::RevertBucket { bucket, version })?;
        answer!(reverted, StoreResponse::Unit => ())
    }

    fn put_meta(&self, key: &str, value: Bytes) -> Result<()> {
        let key = key.to_string();
        answer!(self.call(StoreRequest::PutMeta { key, value })?, StoreResponse::Unit => ())
    }

    fn get_meta(&self, key: &str) -> Result<Option<Bytes>> {
        let key = key.to_string();
        let value = self.call(StoreRequest::GetMeta { key })?;
        answer!(value, StoreResponse::MetaValue(value) => value)
    }

    fn append_log(&self, record: Bytes) -> Result<u64> {
        let seq = self.call(StoreRequest::AppendLog { record })?;
        answer!(seq, StoreResponse::LogSeq(seq) => seq)
    }

    /// Follows the pages' truncation flag until the log is drained (a WAL
    /// that outgrew one wire frame transfers page by page).
    fn read_log_from(&self, from: u64) -> Result<Vec<(u64, Bytes)>> {
        let mut all: Vec<(u64, Bytes)> = Vec::new();
        loop {
            let next = all.last().map_or(from, |(seq, _)| seq + 1);
            let (records, truncated) = self.read_log_page(next, usize::MAX)?;
            // A truncated but empty page would loop forever: it ends the read.
            let more = truncated && !records.is_empty();
            all.extend(records);
            if !more {
                return Ok(all);
            }
        }
    }

    /// One page, cut further to `max_bytes` when that is below the page.
    fn read_log_page(&self, from: u64, max_bytes: usize) -> Result<(Vec<(u64, Bytes)>, bool)> {
        let page = self.call(StoreRequest::ReadLogFrom { from })?;
        let page = answer!(page, StoreResponse::LogRecords { records, truncated } => (records, truncated))?;
        let (records, cut) = crate::traits::within_budget(page.0, max_bytes);
        Ok((records, page.1 || cut))
    }

    fn truncate_log(&self, up_to: u64) -> Result<()> {
        answer!(self.call(StoreRequest::TruncateLog { up_to })?, StoreResponse::Unit => ())
    }

    fn truncate_log_tail(&self, from: u64) -> Result<()> {
        let truncated = self.call(StoreRequest::TruncateLogTail { from })?;
        answer!(truncated, StoreResponse::Unit => ())
    }

    /// `stats` is infallible: a store that cannot answer (a dead daemon)
    /// reports zeros rather than poisoning a stats scrape.
    fn stats(&self) -> StoreStats {
        match self.call(StoreRequest::Stats) {
            Ok(StoreResponse::Stats(stats)) => stats,
            _ => StoreStats::default(),
        }
    }

    fn reset_stats(&self) {
        let _ = self.call(StoreRequest::ResetStats);
    }

    fn daemon_metrics(&self) -> Option<WireMetrics> {
        match self.call(StoreRequest::MetricsSnapshot) {
            Ok(StoreResponse::Metrics(metrics)) => Some(metrics),
            _ => None,
        }
    }

    fn waits(&self) -> bool {
        StoreService::waits(self)
    }
}

// ---------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------

/// Where an encoding goes: its bytes, or only their count — so an
/// encoded length is read off the encoder itself.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl Sink for usize {
    fn put(&mut self, bytes: &[u8]) {
        *self += bytes.len();
    }
}

fn put_u32(buf: &mut impl Sink, value: u32) {
    buf.put(&value.to_le_bytes());
}

fn put_u64(buf: &mut impl Sink, value: u64) {
    buf.put(&value.to_le_bytes());
}

fn put_bytes(buf: &mut impl Sink, data: &[u8]) {
    put_u32(buf, data.len() as u32);
    buf.put(data);
}

/// Strict, bounds-checked cursor over an immutable buffer.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or_else(|| ObladiError::Codec("length overflow while decoding".into()))?;
        if end > self.data.len() {
            return Err(ObladiError::Codec(format!(
                "truncated message: wanted {len} bytes at offset {}, have {}",
                self.pos,
                self.data.len() - self.pos
            )));
        }
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A list length, bounded so hostile lengths cannot drive allocation:
    /// a claimed count of elements (each at least `min_element` encoded
    /// bytes) can never exceed what the remaining buffer could hold, so
    /// `Vec::with_capacity(count)` is bounded by the frame size the
    /// framing layer already capped.
    fn list_len(&mut self, min_element: usize) -> Result<usize> {
        let len = self.u32()? as usize;
        let remaining = self.data.len() - self.pos;
        if len > MAX_WIRE_LEN || len.saturating_mul(min_element.max(1)) > remaining {
            return Err(ObladiError::Codec(format!(
                "list length {len} cannot fit in {remaining} remaining bytes"
            )));
        }
        Ok(len)
    }

    fn bytes(&mut self) -> Result<Bytes> {
        let len = self.u32()? as usize;
        if len > MAX_WIRE_LEN {
            return Err(ObladiError::Codec(format!(
                "byte string length {len} exceeds wire maximum"
            )));
        }
        Ok(Bytes::from(self.take(len)?.to_vec()))
    }

    fn string(&mut self) -> Result<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| ObladiError::Codec("non-UTF-8 string on the wire".into()))
    }

    fn finish(self) -> Result<()> {
        if self.pos != self.data.len() {
            return Err(ObladiError::Codec(format!(
                "{} trailing bytes after message",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<StoreRequest> {
        vec![
            StoreRequest::ReadSlot { bucket: 7, slot: 3 },
            StoreRequest::ReadBucket { bucket: u64::MAX },
            StoreRequest::WriteBucket {
                bucket: 1,
                slots: vec![
                    Bytes::from_static(b"a"),
                    Bytes::new(),
                    Bytes::from_static(b"bc"),
                ],
            },
            StoreRequest::BucketVersion { bucket: 0 },
            StoreRequest::RevertBucket {
                bucket: 9,
                version: 4,
            },
            StoreRequest::PutMeta {
                key: "checkpoint/δ".into(),
                value: Bytes::from_static(b"state"),
            },
            StoreRequest::GetMeta { key: String::new() },
            StoreRequest::AppendLog {
                record: Bytes::from_static(b"wal record"),
            },
            StoreRequest::ReadLogFrom { from: 42 },
            StoreRequest::TruncateLog { up_to: 17 },
            StoreRequest::TruncateLogTail { from: 99 },
            StoreRequest::Stats,
            StoreRequest::ResetStats,
            StoreRequest::Ping,
            StoreRequest::Shutdown,
            StoreRequest::MetricsSnapshot,
        ]
    }

    fn all_responses() -> Vec<StoreResponse> {
        vec![
            StoreResponse::Slot(Bytes::from_static(b"sealed")),
            StoreResponse::Bucket(BucketSnapshot {
                version: 12,
                slots: vec![Bytes::from_static(b"x"), Bytes::new()],
            }),
            StoreResponse::Version(3),
            StoreResponse::Unit,
            StoreResponse::MetaValue(None),
            StoreResponse::MetaValue(Some(Bytes::from_static(b"v"))),
            StoreResponse::LogSeq(1000),
            StoreResponse::LogRecords {
                records: vec![(0, Bytes::from_static(b"r0")), (5, Bytes::new())],
                truncated: true,
            },
            StoreResponse::Stats(StoreStats {
                slot_reads: 1,
                bucket_writes: 2,
                meta_reads: 3,
                meta_writes: 4,
                bytes_read: 5,
                bytes_written: 6,
            }),
            StoreResponse::Pong(1),
            StoreResponse::Metrics(WireMetrics {
                counters: vec![
                    ("daemon.oplog.appends".into(), 17),
                    ("daemon.wedges".into(), 0),
                ],
                gauges: vec![("daemon.oplog.bytes".into(), -3)],
                histograms: vec![(
                    "daemon.compaction.pause_us".into(),
                    WireHistogram {
                        count: 2,
                        sum: 900,
                        max: 750,
                    },
                )],
            }),
            StoreResponse::Metrics(WireMetrics::default()),
            StoreResponse::Err(WireError {
                kind: WireErrorKind::Storage,
                message: "bucket 3 has never been written".into(),
            }),
        ]
    }

    #[test]
    fn encoded_lengths_are_read_off_the_encoder() {
        for request in all_requests() {
            assert_eq!(request.encoded_len(), request.encode().len(), "{request:?}");
        }
        for response in all_responses() {
            assert_eq!(
                response.encoded_len(),
                response.encode().len(),
                "{response:?}"
            );
        }
    }

    /// A service that adds nothing: through the blanket impl it must be
    /// indistinguishable from the store it wraps.
    struct Passthrough(crate::memory::InMemoryStore);

    impl StoreService for Passthrough {
        fn call(&self, request: StoreRequest) -> Result<StoreResponse> {
            request.apply(&self.0)
        }
    }

    fn scripted(store: &dyn UntrustedStore) -> Vec<String> {
        let slot = |text: &'static [u8]| Bytes::from_static(text);
        let mut seen = vec![
            format!("{:?}", store.write_bucket(3, vec![slot(b"a"), slot(b"bb")])),
            format!(
                "{:?}",
                store.write_buckets(vec![(3, vec![slot(b"c")]), (4, vec![])])
            ),
            format!("{:?}", store.read_slots(&[(3, 0), (9, 0), (4, 0)])),
            format!("{:?}", store.read_bucket(3)),
            format!("{:?}", store.bucket_version(3)),
            format!("{:?}", store.revert_bucket(3, 1)),
            format!("{:?}", store.read_slot(3, 1)),
            format!("{:?}", store.revert_bucket(3, 7).is_err()),
            format!("{:?}", store.put_meta("ckpt", slot(b"meta"))),
            format!("{:?}", store.get_meta("ckpt")),
            format!("{:?}", store.get_meta("absent")),
            format!("{:?}", store.stats()),
        ];
        store.reset_stats();
        seen.push(format!("{:?}", store.stats()));
        // (A page cut below `LOG_PAGE_BYTES` is read whole from the wrapped
        // store, so the byte counters part from here on.)
        for record in [&b"r0"[..], b"r1", b"r2", b"r3"] {
            seen.push(format!(
                "{:?}",
                store.append_log(Bytes::copy_from_slice(record))
            ));
        }
        seen.push(format!("{:?}", store.read_log_from(1)));
        seen.push(format!("{:?}", store.read_log_page(0, 15)));
        seen.push(format!("{:?}", store.truncate_log(1)));
        seen.push(format!("{:?}", store.truncate_log_tail(3)));
        seen.push(format!("{:?}", store.read_log_from(0)));
        seen.push(format!("{:?}", store.daemon_metrics()));
        seen.push(format!("{:?}", store.waits()));
        seen
    }

    #[test]
    fn a_service_that_adds_nothing_is_the_store_it_wraps() {
        let bare = crate::memory::InMemoryStore::new();
        let served = Passthrough(crate::memory::InMemoryStore::new());
        assert_eq!(scripted(&served), scripted(&bare));
    }

    #[test]
    fn control_requests_are_not_store_calls() {
        let store = crate::memory::InMemoryStore::new();
        for request in [
            StoreRequest::Ping,
            StoreRequest::Shutdown,
            StoreRequest::MetricsSnapshot,
        ] {
            assert!(request.apply(&store).is_err(), "{request:?}");
        }
    }

    #[test]
    fn requests_round_trip() {
        for request in all_requests() {
            let encoded = request.encode();
            assert_eq!(encoded[0], request.opcode());
            let decoded = StoreRequest::decode(&encoded).unwrap();
            assert_eq!(decoded, request, "round trip of {request:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for response in all_responses() {
            let encoded = response.encode();
            let decoded = StoreResponse::decode(&encoded).unwrap();
            assert_eq!(decoded, response, "round trip of {response:?}");
        }
    }

    #[test]
    fn opcodes_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for request in all_requests() {
            assert!(seen.insert(request.opcode()), "duplicate request opcode");
        }
        let mut seen = std::collections::HashSet::new();
        for response in all_responses() {
            seen.insert(response.opcode());
        }
        // MetaValue and Metrics each appear twice in the fixture list.
        assert_eq!(seen.len(), all_responses().len() - 2);
    }

    #[test]
    fn truncated_and_trailing_inputs_are_rejected() {
        let encoded = StoreRequest::ReadSlot { bucket: 7, slot: 3 }.encode();
        for cut in 0..encoded.len() {
            assert!(
                StoreRequest::decode(&encoded[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut padded = encoded.clone();
        padded.push(0);
        assert!(StoreRequest::decode(&padded).is_err(), "trailing byte");
    }

    #[test]
    fn unknown_opcodes_are_rejected() {
        assert!(StoreRequest::decode(&[0x7E]).is_err());
        assert!(StoreResponse::decode(&[0x10]).is_err());
        assert!(StoreRequest::decode(&[]).is_err());
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A WriteBucket claiming u32::MAX slots must fail fast on the
        // bounded list length, not attempt the allocation.
        let mut buf = vec![0x03];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(StoreRequest::decode(&buf).is_err());
    }

    #[test]
    fn wire_errors_re_hydrate() {
        let original = ObladiError::Storage("slot 9 out of range".into());
        let wire = WireError::from_error(&original);
        assert_eq!(wire.clone().into_error(), original);

        let codec = WireError::from_error(&ObladiError::Codec("bad".into()));
        assert_eq!(codec.kind, WireErrorKind::Codec);

        // Non-storage server-side faults flatten to Storage with context.
        let flattened = WireError::from_error(&ObladiError::KeyNotFound(3));
        assert_eq!(flattened.kind, WireErrorKind::Storage);
        assert!(flattened.message.contains("key not found"));
    }

    #[test]
    fn mutation_classification_matches_durability_needs() {
        let mutating = all_requests()
            .into_iter()
            .filter(StoreRequest::is_mutation)
            .count();
        assert_eq!(mutating, 6);
        assert!(!StoreRequest::Stats.is_mutation());
        assert!(!StoreRequest::Ping.is_mutation());
        assert!(!StoreRequest::MetricsSnapshot.is_mutation());
    }
}
