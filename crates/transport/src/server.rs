//! The server side of the storage RPC: a socket loop hosting any
//! [`UntrustedStore`] — the `obladi-stored` daemon wraps this around a
//! [`DurableStore`](obladi_storage::DurableStore), and tests host plain
//! in-memory stores in-process to get a real socket boundary without a
//! child process.
//!
//! One thread accepts connections (non-blocking, polling a stop flag);
//! each connection gets its own thread that performs the version
//! handshake, then decodes request frames, executes them against the
//! store, and writes responses back — batching all responses of one read
//! chunk into a single flush, mirroring the client's pipelined submission.
//! Requests on one connection execute in order; concurrency comes from
//! the proxy's many executor threads sharing the pipelined client, not
//! from per-request server threads.
//!
//! Shutdown is two-faced on purpose, because the chaos harness needs both:
//! *graceful* ([`ServerHandle::stop`], or a client `Shutdown` request)
//! drains connection threads and removes the socket file; *abrupt* is
//! simply `kill -9` of the hosting process — no flush, no goodbye, exactly
//! the crash the durable op-log and the proxy's WAL recovery must absorb.

use crate::addr::{Listener, SocketSpec, Stream};
use crate::frame::{
    encode_frame, encode_hello, parse_hello, Frame, FrameDecoder, HELLO_LEN, PROTOCOL_VERSION,
};
use obladi_common::error::{ObladiError, Result};
use obladi_storage::{
    StoreRequest, StoreResponse, UntrustedStore, WireError, WireHistogram, WireMetrics,
};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often blocked server loops re-check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Byte budget of one `read_log_from` response page, comfortably inside
/// the frame decoder's bound; clients re-issue from the last sequence
/// number until `truncated` clears.
const LOG_PAGE_BYTES: usize = 8 << 20;

/// A running storage server.
pub struct ServerHandle {
    spec: SocketSpec,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The endpoint the server actually bound (ephemeral TCP ports
    /// resolved).
    pub fn spec(&self) -> &SocketSpec {
        &self.spec
    }

    /// Whether a stop has been requested (by [`ServerHandle::stop`] or a
    /// client `Shutdown` request).
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Blocks until the server stops (a daemon main's parking spot).
    pub fn wait(&mut self) {
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }

    /// Requests a graceful stop and waits for the accept loop to drain.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wait();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `spec` and serves `store` until stopped.  Returns once the
/// listener is bound and accepting — a client connecting after this call
/// will not be refused.
pub fn serve(spec: &SocketSpec, store: Arc<dyn UntrustedStore>) -> Result<ServerHandle> {
    let listener = Listener::bind(spec)?;
    let bound = listener.local_spec()?;
    listener
        .set_nonblocking(true)
        .map_err(|err| ObladiError::Storage(format!("set_nonblocking: {err}")))?;
    let stop = Arc::new(AtomicBool::new(false));

    let accept_stop = stop.clone();
    let accept_thread = std::thread::Builder::new()
        .name("obladi-stored-accept".into())
        .spawn(move || {
            let mut conn_threads = Vec::new();
            while !accept_stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok(stream) => {
                        let store = store.clone();
                        let stop = accept_stop.clone();
                        match std::thread::Builder::new()
                            .name("obladi-stored-conn".into())
                            .spawn(move || serve_connection(stream, store, stop))
                        {
                            Ok(thread) => conn_threads.push(thread),
                            // Thread exhaustion: drop the connection (the
                            // client sees a closed socket and fails fast)
                            // and keep accepting — a panicking accept loop
                            // would leave the daemon half-dead, alive to
                            // the supervisor but deaf to every proxy.
                            Err(_) => std::thread::sleep(POLL_INTERVAL),
                        }
                    }
                    Err(err)
                        if err.kind() == std::io::ErrorKind::WouldBlock
                            || err.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    Err(_) => std::thread::sleep(POLL_INTERVAL),
                }
                conn_threads.retain(|thread| !thread.is_finished());
            }
            listener.cleanup();
            for thread in conn_threads {
                let _ = thread.join();
            }
        })
        .map_err(|err| ObladiError::Storage(format!("spawn accept loop: {err}")))?;

    Ok(ServerHandle {
        spec: bound,
        stop,
        accept_thread: Some(accept_thread),
    })
}

/// Handles one client connection until EOF, error or server stop.
fn serve_connection(mut stream: Stream, store: Arc<dyn UntrustedStore>, stop: Arc<AtomicBool>) {
    // Handshake: read the client hello, answer with ours.  On a version
    // mismatch the server still answers (so the client can produce a
    // precise diagnostic) and then closes without framing a single byte.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut hello = [0u8; HELLO_LEN];
    if stream.read_exact(&mut hello).is_err() {
        return;
    }
    let client_version = match parse_hello(&hello) {
        Ok(version) => version,
        Err(_) => return,
    };
    if stream.write_all(&encode_hello(PROTOCOL_VERSION)).is_err() || stream.flush().is_err() {
        return;
    }
    if client_version != PROTOCOL_VERSION {
        return;
    }

    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 64 * 1024];
    let mut out = Vec::with_capacity(16 * 1024);
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => n,
            Err(err)
                if err.kind() == std::io::ErrorKind::WouldBlock
                    || err.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        decoder.extend(&chunk[..n]);
        out.clear();
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    let (response, shutdown) = execute(&store, &frame);
                    let payload = response.encode();
                    // Adversary-view tap: this pair of frames is exactly
                    // what the network just carried.
                    obladi_storage::audit::record_server_op(
                        frame.opcode,
                        &frame.payload,
                        payload.len(),
                    );
                    let reply = Frame {
                        id: frame.id,
                        opcode: payload[0],
                        payload: bytes::Bytes::from(payload),
                    };
                    encode_frame(&mut out, &reply);
                    if shutdown {
                        let _ = stream.write_all(&out);
                        let _ = stream.flush();
                        stop.store(true, Ordering::SeqCst);
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Framing violation: this peer is desynchronised or
                    // hostile; drop the connection without a reply.
                    return;
                }
            }
        }
        if !out.is_empty() && (stream.write_all(&out).is_err() || stream.flush().is_err()) {
            return;
        }
    }
}

/// Executes one request; the bool asks the server to shut down gracefully.
fn execute(store: &Arc<dyn UntrustedStore>, frame: &Frame) -> (StoreResponse, bool) {
    let request = match StoreRequest::decode(&frame.payload) {
        Ok(request) => request,
        Err(err) => return (StoreResponse::Err(WireError::from_error(&err)), false),
    };
    let response = match request {
        StoreRequest::ReadSlot { bucket, slot } => {
            result_to_response(store.read_slot(bucket, slot).map(StoreResponse::Slot))
        }
        StoreRequest::ReadBucket { bucket } => {
            result_to_response(store.read_bucket(bucket).map(StoreResponse::Bucket))
        }
        StoreRequest::WriteBucket { bucket, slots } => result_to_response(
            store
                .write_bucket(bucket, slots)
                .map(StoreResponse::Version),
        ),
        StoreRequest::BucketVersion { bucket } => {
            result_to_response(store.bucket_version(bucket).map(StoreResponse::Version))
        }
        StoreRequest::RevertBucket { bucket, version } => result_to_response(
            store
                .revert_bucket(bucket, version)
                .map(|()| StoreResponse::Unit),
        ),
        StoreRequest::PutMeta { key, value } => {
            result_to_response(store.put_meta(&key, value).map(|()| StoreResponse::Unit))
        }
        StoreRequest::GetMeta { key } => {
            result_to_response(store.get_meta(&key).map(StoreResponse::MetaValue))
        }
        StoreRequest::AppendLog { record } => {
            result_to_response(store.append_log(record).map(StoreResponse::LogSeq))
        }
        // Paged: a WAL that outgrew one frame must not produce a frame
        // the client's decoder is bound to refuse, and the store-side
        // bounded scan keeps each page linear in what it returns.
        StoreRequest::ReadLogFrom { from } => result_to_response(
            store
                .read_log_page(from, LOG_PAGE_BYTES)
                .map(|(records, truncated)| StoreResponse::LogRecords { records, truncated }),
        ),
        StoreRequest::TruncateLog { up_to } => {
            result_to_response(store.truncate_log(up_to).map(|()| StoreResponse::Unit))
        }
        StoreRequest::TruncateLogTail { from } => {
            result_to_response(store.truncate_log_tail(from).map(|()| StoreResponse::Unit))
        }
        StoreRequest::Stats => StoreResponse::Stats(store.stats()),
        StoreRequest::ResetStats => {
            store.reset_stats();
            StoreResponse::Unit
        }
        StoreRequest::Ping => StoreResponse::Pong(PROTOCOL_VERSION),
        StoreRequest::Shutdown => return (StoreResponse::Unit, true),
        StoreRequest::MetricsSnapshot => StoreResponse::Metrics(daemon_metrics_snapshot()),
    };
    (response, false)
}

/// Scrapes this process's registry down to the daemon's own telemetry.
/// The filter lives server side on purpose: in-thread test servers share
/// the harness process's registry, and answering with everything would
/// mirror the whole proxy registry back per shard.
fn daemon_metrics_snapshot() -> WireMetrics {
    let snapshot = obladi_obs::global().snapshot();
    WireMetrics {
        counters: snapshot
            .counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("daemon."))
            .collect(),
        gauges: snapshot
            .gauges
            .into_iter()
            .filter(|(name, _)| name.starts_with("daemon."))
            .collect(),
        histograms: snapshot
            .histograms
            .into_iter()
            .filter(|(name, _)| name.starts_with("daemon."))
            .map(|(name, histogram)| {
                (
                    name,
                    WireHistogram {
                        count: histogram.count,
                        sum: histogram.sum,
                        max: histogram.max,
                    },
                )
            })
            .collect(),
    }
}

fn result_to_response(result: Result<StoreResponse>) -> StoreResponse {
    match result {
        Ok(response) => response,
        Err(err) => StoreResponse::Err(WireError::from_error(&err)),
    }
}
