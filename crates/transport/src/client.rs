//! The client side of the storage RPC: [`RemoteStore`], an
//! [`UntrustedStore`] whose every method ships a framed request to an
//! `obladi-stored` daemon and waits for the matching response.
//!
//! # Pipelining and batched submission
//!
//! The ORAM executor issues many storage requests concurrently from a
//! worker pool, and the paper's whole batching architecture exists to
//! amortise round trips — so the client must not serialise one request per
//! round trip.  A [`RemoteStore`] multiplexes all callers onto **one
//! connection**:
//!
//! * each caller registers its request ids, hands the encoded frames to
//!   the *writer thread* as one message and blocks on a private channel —
//!   a chunk call (`read_slots` / `write_buckets`) queues every frame of
//!   the chunk before it waits for any reply;
//! * the writer drains every message queued at that moment into a single
//!   buffered write and flushes **once** per drain — a chunk shares a flush
//!   by construction, concurrent callers share flushes (and, on TCP,
//!   packets) on top: the `requests / flushes > 1` the benchmark asserts;
//! * a *reader thread* decodes response frames and wakes each caller by
//!   request id, so responses interleave freely with in-flight requests.
//!
//! # Failure model
//!
//! The daemon is untrusted *and* killable: any I/O error collapses the
//! whole connection — every in-flight caller gets a `Storage` error (the
//! proxy fate-shares storage faults into a crash + WAL recovery, so
//! "half-failed" batches must not linger).  The next call attempts exactly
//! one reconnect; while the daemon is down that fails fast, and once the
//! supervisor has respawned it the same `RemoteStore` transparently
//! reattaches — which is what lets recovery replay the WAL over the very
//! handle that watched the daemon die.

use crate::addr::{SocketSpec, Stream};
use crate::frame::{
    encode_frame, encode_hello, parse_hello, Frame, FrameDecoder, HELLO_LEN, PROTOCOL_VERSION,
};
use bytes::Bytes;
use obladi_common::error::{ObladiError, Result};
use obladi_common::types::{BucketId, Version};
use obladi_storage::traits::{BucketSnapshot, StoreStats};
use obladi_storage::{StoreRequest, StoreResponse, UntrustedStore};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Client-side transport counters, cumulative across reconnects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Requests submitted to the wire.
    pub requests: u64,
    /// Responses received and matched to a caller.
    pub responses: u64,
    /// Socket flushes issued by the writer (one per drained batch).
    pub flushes: u64,
    /// Connections (re-)established, the first included.
    pub connects: u64,
    /// Encoded frame bytes shipped to the daemon.
    pub bytes_tx: u64,
    /// Raw bytes received from the daemon.
    pub bytes_rx: u64,
}

impl TransportStats {
    /// Mean requests per flush — the pipelining/batching factor.  `1.0`
    /// means every request paid its own flush; larger means concurrent
    /// callers shared round-trip submissions.
    pub fn requests_per_flush(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.requests as f64 / self.flushes as f64
        }
    }

    /// Reconnects after the initial connection (kill/respawn survivals).
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }
}

/// Bound on one socket connect attempt.  `live()` holds the connection
/// mutex across a mid-run reconnect, so this is also the longest every
/// executor thread on the shard can be stalled behind an unreachable
/// daemon — keep it well under the request timeout.
const SOCKET_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Raw transport counters plus handles into the process-wide metrics
/// registry, resolved once per store so the hot paths never pay a
/// registry lookup.
struct Counters {
    requests: AtomicU64,
    responses: AtomicU64,
    flushes: AtomicU64,
    connects: AtomicU64,
    bytes_tx: AtomicU64,
    bytes_rx: AtomicU64,
    obs_requests: obladi_obs::Counter,
    obs_responses: obladi_obs::Counter,
    obs_flushes: obladi_obs::Counter,
    obs_connects: obladi_obs::Counter,
    obs_bytes_tx: obladi_obs::Counter,
    obs_bytes_rx: obladi_obs::Counter,
    obs_batch_per_flush: obladi_obs::Histogram,
}

impl Default for Counters {
    fn default() -> Self {
        let obs = obladi_obs::global();
        Counters {
            requests: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            bytes_tx: AtomicU64::new(0),
            bytes_rx: AtomicU64::new(0),
            obs_requests: obs.counter("remote.requests"),
            obs_responses: obs.counter("remote.responses"),
            obs_flushes: obs.counter("remote.flushes"),
            obs_connects: obs.counter("remote.connects"),
            obs_bytes_tx: obs.counter("remote.bytes_tx"),
            obs_bytes_rx: obs.counter("remote.bytes_rx"),
            obs_batch_per_flush: obs.histogram("remote.batch_per_flush"),
        }
    }
}

/// Where the reader delivers one response: the channel of the chunk the
/// request belongs to, and the request's index within that chunk.
type Waiter = (mpsc::Sender<(usize, Result<StoreResponse>)>, usize);
type PendingMap = Mutex<HashMap<u64, Waiter>>;

/// One live connection: writer queue, pending-response map, and the means
/// to tear it all down.
struct LiveConn {
    tx: crossbeam::channel::Sender<Vec<Frame>>,
    pending: Arc<PendingMap>,
    dead: Arc<AtomicBool>,
    stream: Stream,
}

impl LiveConn {
    fn close(&self) {
        self.dead.store(true, Ordering::SeqCst);
        self.stream.shutdown();
        fail_all(&self.pending, "connection closed");
    }
}

fn fail_all(pending: &PendingMap, why: &str) {
    let mut map = pending.lock();
    for (_, (waiter, index)) in map.drain() {
        let lost = ObladiError::Storage(format!("storage daemon connection lost: {why}"));
        let _ = waiter.send((index, Err(lost)));
    }
}

/// An [`UntrustedStore`] served by a storage daemon across a socket.
pub struct RemoteStore {
    spec: SocketSpec,
    conn: Mutex<Option<Arc<LiveConn>>>,
    next_id: AtomicU64,
    /// Arc-shared with the writer/reader threads, which may outlive the
    /// store by the instants it takes them to observe a teardown.
    counters: Arc<Counters>,
    request_timeout: Duration,
}

impl RemoteStore {
    /// Connects to the daemon at `spec`, retrying until `ready_timeout`
    /// elapses (a freshly spawned daemon needs a moment to bind).
    pub fn connect(spec: SocketSpec, ready_timeout: Duration) -> Result<RemoteStore> {
        let store = RemoteStore {
            spec,
            conn: Mutex::new(None),
            next_id: AtomicU64::new(1),
            counters: Arc::new(Counters::default()),
            request_timeout: Duration::from_secs(60),
        };
        let deadline = Instant::now() + ready_timeout;
        loop {
            match store.establish() {
                Ok(conn) => {
                    *store.conn.lock() = Some(conn);
                    return Ok(store);
                }
                Err(err) => {
                    if Instant::now() >= deadline {
                        return Err(ObladiError::Storage(format!(
                            "cannot reach storage daemon at {}: {err}",
                            store.spec
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// The daemon's endpoint.
    pub fn spec(&self) -> &SocketSpec {
        &self.spec
    }

    /// Cumulative transport counters.
    pub fn transport_stats(&self) -> TransportStats {
        TransportStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            responses: self.counters.responses.load(Ordering::Relaxed),
            flushes: self.counters.flushes.load(Ordering::Relaxed),
            connects: self.counters.connects.load(Ordering::Relaxed),
            bytes_tx: self.counters.bytes_tx.load(Ordering::Relaxed),
            bytes_rx: self.counters.bytes_rx.load(Ordering::Relaxed),
        }
    }

    /// Probes daemon liveness, returning its protocol version.
    pub fn ping(&self) -> Result<u16> {
        match self.call(StoreRequest::Ping)? {
            StoreResponse::Pong(version) => Ok(version),
            other => Err(unexpected("ping", &other)),
        }
    }

    /// Scrapes the daemon's own telemetry (`daemon.*` metrics).
    pub fn metrics_snapshot(&self) -> Result<obladi_storage::WireMetrics> {
        match self.call(StoreRequest::MetricsSnapshot)? {
            StoreResponse::Metrics(metrics) => Ok(metrics),
            other => Err(unexpected("metrics_snapshot", &other)),
        }
    }

    /// Asks the daemon to shut down gracefully (it acknowledges, flushes
    /// its durable state and exits).
    pub fn shutdown_server(&self) -> Result<()> {
        match self.call(StoreRequest::Shutdown)? {
            StoreResponse::Unit => Ok(()),
            other => Err(unexpected("shutdown", &other)),
        }
    }

    /// Drops the current connection (the next call reconnects).  Lets a
    /// supervisor force a clean reattach after respawning the daemon.
    pub fn disconnect(&self) {
        if let Some(conn) = self.conn.lock().take() {
            conn.close();
        }
    }

    /// Opens a socket, performs the version handshake and spawns the
    /// writer/reader threads.
    fn establish(&self) -> Result<Arc<LiveConn>> {
        let mut stream = Stream::connect(&self.spec, SOCKET_CONNECT_TIMEOUT)
            .map_err(|err| ObladiError::Storage(format!("connect {}: {err}", self.spec)))?;
        stream
            .write_all(&encode_hello(PROTOCOL_VERSION))
            .map_err(|err| ObladiError::Storage(format!("handshake send: {err}")))?;
        stream
            .flush()
            .map_err(|err| ObladiError::Storage(format!("handshake flush: {err}")))?;
        let mut hello = [0u8; HELLO_LEN];
        stream
            .read_exact(&mut hello)
            .map_err(|err| ObladiError::Storage(format!("handshake recv: {err}")))?;
        let server_version = parse_hello(&hello)?;
        if server_version != PROTOCOL_VERSION {
            return Err(ObladiError::Codec(format!(
                "protocol version mismatch: client speaks {PROTOCOL_VERSION}, server speaks \
                 {server_version}"
            )));
        }

        let pending: Arc<PendingMap> = Arc::new(Mutex::new(HashMap::new()));
        let dead = Arc::new(AtomicBool::new(false));
        let (tx, rx) = crossbeam::channel::unbounded::<Vec<Frame>>();

        // Writer: drain everything queued right now into one buffered
        // write, flush once — the batching the bench measures.
        let mut write_half = stream
            .try_clone()
            .map_err(|err| ObladiError::Storage(format!("stream clone: {err}")))?;
        let writer_dead = dead.clone();
        let writer_pending = pending.clone();
        let writer_counters = self.counters.clone();
        std::thread::Builder::new()
            .name("obladi-rpc-writer".into())
            .spawn(move || {
                let mut buf = Vec::with_capacity(16 * 1024);
                while let Ok(first) = rx.recv() {
                    buf.clear();
                    let mut drained = 0u64;
                    let mut next = Some(first);
                    while let Some(frames) = next {
                        for frame in &frames {
                            encode_frame(&mut buf, frame);
                        }
                        drained += frames.len() as u64;
                        next = rx.try_recv();
                    }
                    if write_half
                        .write_all(&buf)
                        .and_then(|_| write_half.flush())
                        .is_err()
                    {
                        writer_dead.store(true, Ordering::SeqCst);
                        fail_all(&writer_pending, "write failed");
                        return;
                    }
                    writer_counters.flushes.fetch_add(1, Ordering::Relaxed);
                    writer_counters
                        .bytes_tx
                        .fetch_add(buf.len() as u64, Ordering::Relaxed);
                    writer_counters.obs_flushes.inc();
                    writer_counters.obs_bytes_tx.add(buf.len() as u64);
                    writer_counters.obs_batch_per_flush.record(drained);
                }
                // Sender dropped: connection is being torn down.
            })
            .map_err(|err| ObladiError::Storage(format!("spawn writer: {err}")))?;

        // Reader: decode frames, wake waiters by id.
        let mut read_half = stream
            .try_clone()
            .map_err(|err| ObladiError::Storage(format!("stream clone: {err}")))?;
        let reader_dead = dead.clone();
        let reader_pending = pending.clone();
        let reader_counters = self.counters.clone();
        std::thread::Builder::new()
            .name("obladi-rpc-reader".into())
            .spawn(move || {
                let mut decoder = FrameDecoder::new();
                let mut chunk = [0u8; 64 * 1024];
                let why = loop {
                    let n = match read_half.read(&mut chunk) {
                        Ok(0) => break "peer closed".to_string(),
                        Ok(n) => n,
                        Err(err) => break err.to_string(),
                    };
                    reader_counters
                        .bytes_rx
                        .fetch_add(n as u64, Ordering::Relaxed);
                    reader_counters.obs_bytes_rx.add(n as u64);
                    decoder.extend(&chunk[..n]);
                    loop {
                        match decoder.next_frame() {
                            Ok(Some(frame)) => {
                                let waiter = reader_pending.lock().remove(&frame.id);
                                if let Some((waiter, index)) = waiter {
                                    reader_counters.responses.fetch_add(1, Ordering::Relaxed);
                                    reader_counters.obs_responses.inc();
                                    let response = StoreResponse::decode(&frame.payload)
                                        .and_then(StoreResponse::into_result);
                                    let _ = waiter.send((index, response));
                                }
                            }
                            Ok(None) => break,
                            Err(err) => {
                                reader_dead.store(true, Ordering::SeqCst);
                                fail_all(&reader_pending, &err.to_string());
                                return;
                            }
                        }
                    }
                };
                reader_dead.store(true, Ordering::SeqCst);
                fail_all(&reader_pending, &why);
            })
            .map_err(|err| ObladiError::Storage(format!("spawn reader: {err}")))?;

        self.counters.connects.fetch_add(1, Ordering::Relaxed);
        self.counters.obs_connects.inc();
        if self.counters.connects.load(Ordering::Relaxed) > 1 {
            obladi_obs::global().counter("remote.reconnects").inc();
            obladi_obs::trace::global().record("remote.reconnect", 0, 0);
        }
        Ok(Arc::new(LiveConn {
            tx,
            pending,
            dead,
            stream,
        }))
    }

    /// The current live connection, reconnecting once if it has died.
    fn live(&self) -> Result<Arc<LiveConn>> {
        let mut guard = self.conn.lock();
        if let Some(conn) = guard.as_ref() {
            if !conn.dead.load(Ordering::SeqCst) {
                return Ok(conn.clone());
            }
            conn.close();
            *guard = None;
        }
        let conn = self.establish()?;
        *guard = Some(conn.clone());
        Ok(conn)
    }

    /// Ships one request and blocks for its response.
    fn call(&self, request: StoreRequest) -> Result<StoreResponse> {
        self.call_many(vec![request])
            .pop()
            .expect("one result per request")
    }

    /// Ships a chunk of requests — every frame is registered and queued
    /// before any reply is awaited, so the writer sends them in one flush —
    /// and blocks for the responses: one result per request, in order.
    fn call_many(&self, requests: Vec<StoreRequest>) -> Vec<Result<StoreResponse>> {
        let count = requests.len();
        let first_id = self.next_id.fetch_add(count as u64, Ordering::Relaxed);
        let ids = first_id..first_id + count as u64;
        let frames = ids
            .clone()
            .zip(requests)
            .map(|(id, request)| Frame::for_message(id, request.encode()))
            .collect::<Result<Vec<Frame>>>();
        let (conn, frames) = match self.live().and_then(|conn| Ok((conn, frames?))) {
            Ok(ready) => ready,
            Err(err) => return vec![Err(err); count],
        };
        let (tx, rx) = mpsc::channel();
        {
            let mut pending = conn.pending.lock();
            for (index, id) in ids.clone().enumerate() {
                pending.insert(id, (tx.clone(), index));
            }
        }
        drop(tx);
        self.counters
            .requests
            .fetch_add(count as u64, Ordering::Relaxed);
        self.counters.obs_requests.add(count as u64);
        let mut results: Vec<Option<Result<StoreResponse>>> = vec![None; count];
        let fail_unanswered = |results: &mut Vec<Option<Result<StoreResponse>>>, why: &str| {
            let mut pending = conn.pending.lock();
            for (id, result) in ids.clone().zip(results.iter_mut()) {
                if pending.remove(&id).is_some() {
                    *result = Some(Err(ObladiError::Storage(why.into())));
                }
            }
        };
        if conn.tx.send(frames).is_err() {
            fail_unanswered(&mut results, "storage daemon connection lost: writer gone");
        }
        // Close the register/collapse race: if the reader declared the
        // connection dead between our liveness check and the inserts above,
        // its fail_all may have drained the map *before* our waiters were
        // in it — and a first write into a dead TCP socket can still
        // succeed into the kernel buffer, so nothing else would ever wake
        // us.  Entries still present on a dead connection we fail
        // ourselves; those gone, fail_all owned and has already answered.
        if conn.dead.load(Ordering::SeqCst) {
            let why = "storage daemon connection lost: died while requests were in flight";
            fail_unanswered(&mut results, why);
        }
        let deadline = Instant::now() + self.request_timeout;
        let unanswered = |results: &[Option<_>]| results.iter().filter(|r| r.is_none()).count();
        let mut waiting = unanswered(&results);
        while waiting > 0 {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok((index, result)) => {
                    results[index] = Some(result);
                    waiting -= 1;
                }
                Err(_) => {
                    let timeout = self.request_timeout;
                    let why = format!("storage requests {ids:?} timed out after {timeout:?}");
                    fail_unanswered(&mut results, &why);
                    conn.close();
                    // What is left was claimed by the reader: its replies
                    // are already on their way through the channel.
                    waiting = unanswered(&results);
                }
            }
        }
        results.into_iter().flatten().collect()
    }
}

impl Drop for RemoteStore {
    fn drop(&mut self) {
        self.disconnect();
    }
}

fn unexpected(what: &str, got: &StoreResponse) -> ObladiError {
    ObladiError::Storage(format!("unexpected response to {what}: {got:?}"))
}

impl UntrustedStore for RemoteStore {
    fn read_slot(&self, bucket: BucketId, slot: u32) -> Result<Bytes> {
        let mut one = self.read_slots(&[(bucket, slot)]);
        one.pop().expect("one result per read")
    }

    fn read_slots(&self, reads: &[(BucketId, u32)]) -> Vec<Result<Bytes>> {
        let requests = reads
            .iter()
            .map(|&(bucket, slot)| StoreRequest::ReadSlot { bucket, slot })
            .collect();
        let decode = |response| match response {
            StoreResponse::Slot(data) => Ok(data),
            other => Err(unexpected("read_slot", &other)),
        };
        let responses = self.call_many(requests).into_iter();
        responses.map(|r| r.and_then(decode)).collect()
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<BucketSnapshot> {
        match self.call(StoreRequest::ReadBucket { bucket })? {
            StoreResponse::Bucket(snapshot) => Ok(snapshot),
            other => Err(unexpected("read_bucket", &other)),
        }
    }

    fn write_bucket(&self, bucket: BucketId, slots: Vec<Bytes>) -> Result<Version> {
        let mut one = self.write_buckets(vec![(bucket, slots)]);
        one.pop().expect("one result per write")
    }

    fn write_buckets(&self, writes: Vec<(BucketId, Vec<Bytes>)>) -> Vec<Result<Version>> {
        let requests = writes
            .into_iter()
            .map(|(bucket, slots)| StoreRequest::WriteBucket { bucket, slots })
            .collect();
        let decode = |response| match response {
            StoreResponse::Version(version) => Ok(version),
            other => Err(unexpected("write_bucket", &other)),
        };
        let responses = self.call_many(requests).into_iter();
        responses.map(|r| r.and_then(decode)).collect()
    }

    fn bucket_version(&self, bucket: BucketId) -> Result<Version> {
        match self.call(StoreRequest::BucketVersion { bucket })? {
            StoreResponse::Version(version) => Ok(version),
            other => Err(unexpected("bucket_version", &other)),
        }
    }

    fn revert_bucket(&self, bucket: BucketId, version: Version) -> Result<()> {
        match self.call(StoreRequest::RevertBucket { bucket, version })? {
            StoreResponse::Unit => Ok(()),
            other => Err(unexpected("revert_bucket", &other)),
        }
    }

    fn put_meta(&self, key: &str, value: Bytes) -> Result<()> {
        let request = StoreRequest::PutMeta {
            key: key.to_string(),
            value,
        };
        match self.call(request)? {
            StoreResponse::Unit => Ok(()),
            other => Err(unexpected("put_meta", &other)),
        }
    }

    fn get_meta(&self, key: &str) -> Result<Option<Bytes>> {
        let request = StoreRequest::GetMeta {
            key: key.to_string(),
        };
        match self.call(request)? {
            StoreResponse::MetaValue(value) => Ok(value),
            other => Err(unexpected("get_meta", &other)),
        }
    }

    fn append_log(&self, record: Bytes) -> Result<u64> {
        match self.call(StoreRequest::AppendLog { record })? {
            StoreResponse::LogSeq(seq) => Ok(seq),
            other => Err(unexpected("append_log", &other)),
        }
    }

    fn read_log_from(&self, from: u64) -> Result<Vec<(u64, Bytes)>> {
        // The server pages large logs (a single frame must stay inside the
        // decoder's bound); follow the truncation flag until drained.
        let mut all = Vec::new();
        let mut next = from;
        loop {
            match self.call(StoreRequest::ReadLogFrom { from: next })? {
                StoreResponse::LogRecords { records, truncated } => {
                    let last_seq = records.last().map(|(seq, _)| *seq);
                    all.extend(records);
                    match (truncated, last_seq) {
                        (true, Some(last_seq)) => next = last_seq + 1,
                        // A truncated-but-empty page would loop forever;
                        // treat it as the server's final word.
                        _ => return Ok(all),
                    }
                }
                other => return Err(unexpected("read_log_from", &other)),
            }
        }
    }

    fn truncate_log(&self, up_to: u64) -> Result<()> {
        match self.call(StoreRequest::TruncateLog { up_to })? {
            StoreResponse::Unit => Ok(()),
            other => Err(unexpected("truncate_log", &other)),
        }
    }

    fn truncate_log_tail(&self, from: u64) -> Result<()> {
        match self.call(StoreRequest::TruncateLogTail { from })? {
            StoreResponse::Unit => Ok(()),
            other => Err(unexpected("truncate_log_tail", &other)),
        }
    }

    fn stats(&self) -> StoreStats {
        match self.call(StoreRequest::Stats) {
            Ok(StoreResponse::Stats(stats)) => stats,
            // The trait's stats() is infallible; a dead daemon reports
            // zeros rather than poisoning a stats scrape.
            _ => StoreStats::default(),
        }
    }

    fn reset_stats(&self) {
        let _ = self.call(StoreRequest::ResetStats);
    }

    fn daemon_metrics(&self) -> Option<obladi_storage::WireMetrics> {
        // Best-effort: a daemon that predates the request (or is down)
        // simply contributes nothing to the merged dump.
        self.metrics_snapshot().ok()
    }
}
