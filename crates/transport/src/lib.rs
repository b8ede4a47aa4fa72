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
//! | [`RemoteStore`] | `UntrustedStore` client: pipelined, batched, reconnecting |
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
