//! One recorder on both sides of the socket.
//!
//! The trace audit reads what the untrusted store observes from two taps:
//! `RecordingStore` around an in-process store, and the server loop's tap
//! inside a daemon.  Both must describe the same request stream the same
//! way — kind, address, slot, sealed payload length and the two frame
//! sizes — or a trace recorded in-process says nothing about what a socket
//! shows.  One scripted sequence covering every data request runs through
//! each, and the two recordings must agree entry by entry (only the
//! timestamp and the store tag may differ).

use bytes::Bytes;
use obladi_obs::audit::{AuditOp, AuditRing};
use obladi_storage::{InMemoryStore, RecordingStore, UntrustedStore};
use obladi_transport::{serve, RemoteStore, SocketSpec};
use std::sync::Arc;
use std::time::Duration;

/// Every data request, singly and in chunks, with contents of several
/// lengths (sealed slots of 8 bytes, a 40-byte checkpoint, log records of
/// 3, 17 and 64 bytes).
fn script(store: &dyn UntrustedStore) {
    let slots = |fill: u8| vec![Bytes::from(vec![fill; 8]); 3];
    store.write_bucket(5, slots(1)).unwrap();
    let written = store.write_buckets(vec![(6, slots(2)), (7, slots(3))]);
    assert!(written.iter().all(Result::is_ok));
    store.read_slot(5, 1).unwrap();
    let read = store.read_slots(&[(6, 0), (7, 2), (5, 0)]);
    assert!(read.iter().all(Result::is_ok));
    assert_eq!(store.read_bucket(6).unwrap().slots.len(), 3);
    assert_eq!(store.bucket_version(6).unwrap(), 1);
    store.write_bucket(6, slots(4)).unwrap();
    store.revert_bucket(6, 1).unwrap();
    store
        .put_meta("ckpt/1", Bytes::from(vec![9u8; 40]))
        .unwrap();
    assert!(store.get_meta("ckpt/1").unwrap().is_some());
    assert!(store.get_meta("absent").unwrap().is_none());
    for len in [3, 17, 64] {
        store.append_log(Bytes::from(vec![len as u8; len])).unwrap();
    }
    assert_eq!(store.read_log_from(1).unwrap().len(), 2);
    store.truncate_log(1).unwrap();
    store.truncate_log_tail(2).unwrap();
    assert!(store.stats().total_requests() > 0);
    store.reset_stats();
}

/// An entry without its timestamp and store tag.
fn shape(op: &AuditOp) -> AuditOp {
    AuditOp {
        at_us: 0,
        store: 0,
        ..*op
    }
}

#[test]
fn in_process_and_daemon_recordings_are_one_trace() {
    let ring = Arc::new(AuditRing::new(1024));
    let recorded = RecordingStore::new(Arc::new(InMemoryStore::new()), ring.clone(), 0);
    script(&recorded);
    let in_process: Vec<AuditOp> = ring.ops().iter().map(shape).collect();

    let tap = obladi_obs::audit::global();
    let listen = SocketSpec::parse("tcp:127.0.0.1:0").unwrap();
    let mut server = serve(&listen, Arc::new(InMemoryStore::new())).unwrap();
    let remote = RemoteStore::connect(server.spec().clone(), Duration::from_secs(5)).unwrap();
    tap.reset();
    script(&remote);
    let daemon: Vec<AuditOp> = tap.ops().iter().map(shape).collect();
    remote.disconnect();
    server.stop();

    // 11 bucket requests, 3 metadata ones, 3 appends, the log read, 2
    // truncations and 2 stats requests.
    assert_eq!(in_process.len(), 22);
    let differ: Vec<String> = (in_process.iter().zip(&daemon).enumerate())
        .filter(|(_, (ours, theirs))| ours != theirs)
        .map(|(index, (ours, theirs))| format!("entry {index}: {ours:?} vs {theirs:?}"))
        .collect();
    assert!(
        differ.is_empty(),
        "in-process vs daemon:\n{}",
        differ.join("\n")
    );
    assert_eq!(in_process.len(), daemon.len());
}
