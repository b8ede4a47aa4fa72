//! Process-isolated untrusted storage for the Obladi reproduction.
//!
//! The paper's deployment is a trusted proxy batching ORAM requests to
//! *untrusted cloud storage across a network* (§5) — but the seed
//! reproduction called its storage through an in-process trait object.
//! This crate makes the trust split physical:
//!
//! | Piece | Job |
//! |---|---|
//! | [`frame`] | length-prefixed, versioned frame codec with desync detection |
//! | [`SocketSpec`] | `unix:/path` / `tcp:host:port` endpoints, one type |
//! | [`RemoteStore`] | `StoreService` client: pipelined, batched, reconnecting |
//! | [`serve`] | server loop hosting any store behind a socket |
//! | [`StorageSupervisor`] | spawn / kill −9 / respawn `obladi-stored` daemons |
//! | `obladi-stored` | the daemon binary: [`DurableStore`](obladi_storage::DurableStore) behind [`serve`] |
//!
//! The RPC carries the [`obladi_storage::proto`] message schema — every
//! `UntrustedStore` operation, including the WAL appends/reads/truncations
//! the recovery unit depends on — so a `ShardedDb` can place each shard's
//! ORAM pipeline against its own out-of-process storage server
//! (`StorageBackend::RemoteSpawned` / `RemoteAddr`) with no semantic
//! change: crashes of a storage *process* surface as storage faults, the
//! proxy fate-shares into its existing crash + WAL-recovery path, and the
//! daemon's op-log guarantees every acknowledged operation survives
//! `kill -9`.
//!
//! Obliviousness is untouched by the move: the daemon sees exactly the
//! sealed, padded, fixed-rhythm request stream the in-process store saw —
//! the socket just makes the observer boundary honest.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod client;
pub mod frame;
pub mod server;
pub mod supervisor;

pub use addr::{Listener, SocketSpec, Stream};
pub use client::{RemoteStore, TransportStats};
pub use frame::{Frame, FrameDecoder, PROTOCOL_VERSION};
pub use server::{serve, ServerHandle};
pub use supervisor::{locate_stored_binary, StorageSupervisor, STORED_BIN_ENV};

#[cfg(test)]
mod tests {
    use super::*;
    use obladi_storage::{InMemoryStore, UntrustedStore};
    use std::sync::Arc;
    use std::time::Duration;

    fn spawn_memory_server() -> (ServerHandle, Arc<InMemoryStore>) {
        let store = Arc::new(InMemoryStore::new());
        let spec = SocketSpec::parse("tcp:127.0.0.1:0").unwrap();
        let handle = serve(&spec, store.clone() as Arc<dyn UntrustedStore>).unwrap();
        (handle, store)
    }

    #[test]
    fn remote_store_round_trips_every_operation() {
        let (mut handle, _) = spawn_memory_server();
        let client = RemoteStore::connect(handle.spec().clone(), Duration::from_secs(5)).unwrap();

        assert_eq!(client.ping().unwrap(), PROTOCOL_VERSION);
        let v1 = client
            .write_bucket(4, vec![bytes::Bytes::from_static(b"alpha")])
            .unwrap();
        assert_eq!(v1, 1);
        assert_eq!(&client.read_slot(4, 0).unwrap()[..], b"alpha");
        let snapshot = client.read_bucket(4).unwrap();
        assert_eq!(snapshot.version, 1);
        assert_eq!(snapshot.slots.len(), 1);
        client
            .write_bucket(4, vec![bytes::Bytes::from_static(b"beta")])
            .unwrap();
        client.revert_bucket(4, 1).unwrap();
        assert_eq!(client.bucket_version(4).unwrap(), 1);

        client
            .put_meta("ckpt", bytes::Bytes::from_static(b"m"))
            .unwrap();
        assert_eq!(
            client.get_meta("ckpt").unwrap(),
            Some(bytes::Bytes::from_static(b"m"))
        );
        assert_eq!(client.get_meta("absent").unwrap(), None);

        assert_eq!(
            client.append_log(bytes::Bytes::from_static(b"r0")).unwrap(),
            0
        );
        assert_eq!(
            client.append_log(bytes::Bytes::from_static(b"r1")).unwrap(),
            1
        );
        assert_eq!(client.read_log_from(0).unwrap().len(), 2);
        client.truncate_log(1).unwrap();
        assert_eq!(client.read_log_from(0).unwrap().len(), 1);
        client.truncate_log_tail(1).unwrap();
        assert_eq!(client.read_log_from(0).unwrap().len(), 0);

        let stats = client.stats();
        assert!(stats.bucket_writes >= 2);
        client.reset_stats();
        assert_eq!(client.stats().total_requests(), 0);

        // Server-side errors cross the wire as errors, not hangs.
        assert!(client.read_slot(999, 0).is_err());

        handle.stop();
    }

    #[test]
    fn pipelined_callers_share_flushes() {
        let (mut handle, _) = spawn_memory_server();
        let client =
            Arc::new(RemoteStore::connect(handle.spec().clone(), Duration::from_secs(5)).unwrap());
        client
            .write_bucket(1, vec![bytes::Bytes::from_static(b"seed")])
            .unwrap();

        std::thread::scope(|scope| {
            for _ in 0..8 {
                let client = client.clone();
                scope.spawn(move || {
                    for _ in 0..200 {
                        client.read_slot(1, 0).unwrap();
                    }
                });
            }
        });
        let stats = client.transport_stats();
        assert!(stats.requests >= 1600);
        assert_eq!(stats.responses, stats.requests);
        assert!(
            stats.requests_per_flush() > 1.0,
            "8 concurrent callers should share flushes, got {:?}",
            stats
        );
        handle.stop();
    }

    #[test]
    fn a_chunk_call_is_the_single_calls_pipelined_into_one_flush() {
        let (mut handle, store) = spawn_memory_server();
        let client = RemoteStore::connect(handle.spec().clone(), Duration::from_secs(5)).unwrap();
        let slots = |bucket: u64| vec![bytes::Bytes::from(bucket.to_le_bytes().to_vec())];

        let before = client.transport_stats();
        let versions = client.write_buckets((0..64).map(|b| (b, slots(b))).collect());
        assert!(versions.iter().all(|v| matches!(v, Ok(1))), "{versions:?}");
        // One unreadable slot in the middle fails alone, in its place.
        let mut reads: Vec<(u64, u32)> = (0..64).map(|b| (b, 0)).collect();
        reads[40] = (999, 0);
        let fetched = client.read_slots(&reads);
        assert_eq!(fetched.len(), 64);
        for (&(bucket, slot), result) in reads.iter().zip(&fetched) {
            assert_eq!(result, &store.read_slot(bucket, slot), "bucket {bucket}");
            assert_eq!(result, &client.read_slot(bucket, slot), "bucket {bucket}");
        }
        assert!(fetched[40].is_err() && fetched[39].is_ok() && fetched[41].is_ok());

        // Same wire requests as 128 single calls, in two flushes.
        let after = client.transport_stats();
        assert_eq!(after.requests - before.requests, 128 + 64);
        assert_eq!(after.responses, after.requests);
        assert_eq!(after.flushes - before.flushes, 2 + 64);
        assert_eq!(
            store.stats().slot_reads,
            3 * 64,
            "chunk, oracle, single calls"
        );
        assert!(client.read_slots(&[]).is_empty());
        handle.stop();
    }

    #[test]
    fn a_recorded_chunk_still_goes_out_in_one_flush() {
        let (mut handle, _) = spawn_memory_server();
        let client = RemoteStore::connect(handle.spec().clone(), Duration::from_secs(5)).unwrap();
        let client = Arc::new(client);
        let ring = Arc::new(obladi_obs::audit::AuditRing::new(1024));
        let recorded = obladi_storage::RecordingStore::new(client.clone(), ring.clone(), 0);
        assert!(recorded.waits());
        let slots = |bucket: u64| vec![bytes::Bytes::from(bucket.to_le_bytes().to_vec())];

        let before = client.transport_stats();
        let versions = recorded.write_buckets((0..32).map(|b| (b, slots(b))).collect());
        assert!(versions.iter().all(|v| matches!(v, Ok(1))), "{versions:?}");
        let reads: Vec<(u64, u32)> = (0..32).map(|b| (b, 0)).collect();
        let fetched = recorded.read_slots(&reads);
        assert!(fetched.iter().all(Result::is_ok));
        let after = client.transport_stats();
        assert_eq!(after.flushes - before.flushes, 2, "one flush per chunk");
        assert_eq!(ring.ops().len(), 64, "one trace entry per item");
        handle.stop();
    }

    #[test]
    fn a_remote_store_waits_and_the_store_it_serves_does_not() {
        let (mut handle, store) = spawn_memory_server();
        let client = RemoteStore::connect(handle.spec().clone(), Duration::from_secs(5)).unwrap();
        assert!(client.waits(), "a socket round trip is a wait");
        assert!(!store.waits(), "an in-memory store only computes");
        handle.stop();
    }

    /// A server that answers only the first `answered` slot reads of the
    /// first `expected` it receives, then drops the connection.
    fn spawn_half_answering_server(expected: usize, answered: usize) -> SocketSpec {
        use crate::frame::{encode_frame, encode_hello, HELLO_LEN};
        use obladi_storage::StoreResponse;
        use std::io::{Read, Write};
        let listener = Listener::bind(&SocketSpec::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let spec = listener.local_spec().unwrap();
        std::thread::spawn(move || {
            let mut stream = listener.accept().unwrap();
            let mut hello = [0u8; HELLO_LEN];
            stream.read_exact(&mut hello).unwrap();
            stream.write_all(&encode_hello(PROTOCOL_VERSION)).unwrap();
            let mut decoder = FrameDecoder::new();
            let mut requests = Vec::new();
            let mut chunk = [0u8; 4096];
            while requests.len() < expected {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "the client hung up early");
                decoder.extend(&chunk[..n]);
                while let Some(frame) = decoder.next_frame().unwrap() {
                    requests.push(frame);
                }
            }
            let mut out = Vec::new();
            for request in &requests[..answered] {
                let payload = StoreResponse::Slot(bytes::Bytes::from_static(b"ok")).encode();
                let reply = Frame::for_message(request.id, payload).unwrap();
                encode_frame(&mut out, &reply);
            }
            stream.write_all(&out).unwrap();
            stream.flush().unwrap();
            stream.shutdown();
        });
        spec
    }

    #[test]
    fn a_connection_dying_mid_chunk_fails_every_unanswered_waiter_promptly() {
        let spec = spawn_half_answering_server(16, 8);
        let client = RemoteStore::connect(spec, Duration::from_secs(5)).unwrap();
        let started = std::time::Instant::now();
        let results = client.read_slots(&[(1, 0); 16]);
        // Nowhere near the 60 s request timeout: the reader's collapse
        // wakes all eight waiters of the chunk at once.
        assert!(started.elapsed() < Duration::from_secs(10));
        assert_eq!(results.len(), 16);
        for (index, result) in results.iter().enumerate() {
            match result {
                Ok(data) => assert!(index < 8 && &data[..] == b"ok", "read {index}"),
                Err(err) => assert!(index >= 8 && err.to_string().contains("lost"), "{err}"),
            }
        }
        // Nothing lingers: the next call finds the daemon gone, at once.
        assert!(client.read_slot(1, 0).is_err());
        assert!(started.elapsed() < Duration::from_secs(20));
    }

    #[test]
    fn server_death_fails_fast_and_reconnect_recovers() {
        let (mut handle, _) = spawn_memory_server();
        let spec = handle.spec().clone();
        let client = RemoteStore::connect(spec.clone(), Duration::from_secs(5)).unwrap();
        client
            .write_bucket(1, vec![bytes::Bytes::from_static(b"x")])
            .unwrap();

        handle.stop();
        assert!(
            client.read_slot(1, 0).is_err(),
            "a dead server must surface as a storage error"
        );

        // A new server on the same endpoint: the same client reattaches.
        let store = Arc::new(InMemoryStore::new());
        store
            .write_bucket(1, vec![bytes::Bytes::from_static(b"y")])
            .unwrap();
        let mut handle2 = serve(&spec, store as Arc<dyn UntrustedStore>).unwrap();
        let value = client.read_slot(1, 0).unwrap();
        assert_eq!(&value[..], b"y");
        assert!(client.transport_stats().connects >= 2);
        handle2.stop();
    }

    #[test]
    fn large_log_reads_are_paged_not_collapsed() {
        // A WAL bigger than one response page must arrive whole through
        // the client's truncation-following loop — not produce a frame the
        // decoder would refuse (which would wedge recovery forever).
        let (mut handle, store) = spawn_memory_server();
        let record = bytes::Bytes::from(vec![7u8; 3 << 20]);
        for _ in 0..5 {
            store.append_log(record.clone()).unwrap();
        }
        let client = RemoteStore::connect(handle.spec().clone(), Duration::from_secs(5)).unwrap();
        let before = client.transport_stats().requests;
        let all = client.read_log_from(0).unwrap();
        assert_eq!(all.len(), 5);
        assert!(all.iter().all(|(_, data)| data.len() == 3 << 20));
        assert_eq!(
            all.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(
            client.transport_stats().requests - before >= 2,
            "15 MiB of log should take more than one 8 MiB page"
        );
        handle.stop();
    }

    #[test]
    fn graceful_shutdown_request_stops_the_server() {
        let (mut handle, _) = spawn_memory_server();
        let client = RemoteStore::connect(handle.spec().clone(), Duration::from_secs(5)).unwrap();
        client.shutdown_server().unwrap();
        handle.wait();
        assert!(handle.stop_requested());
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip() {
        let path =
            std::env::temp_dir().join(format!("obladi-transport-test-{}.sock", std::process::id()));
        let spec = SocketSpec::Unix(path.clone());
        let store = Arc::new(InMemoryStore::new());
        let mut handle = serve(&spec, store as Arc<dyn UntrustedStore>).unwrap();
        let client = RemoteStore::connect(spec, Duration::from_secs(5)).unwrap();
        client
            .write_bucket(2, vec![bytes::Bytes::from_static(b"uds")])
            .unwrap();
        assert_eq!(&client.read_slot(2, 0).unwrap()[..], b"uds");
        handle.stop();
        assert!(!path.exists(), "graceful stop must remove the socket file");
    }
}
