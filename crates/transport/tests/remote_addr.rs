//! `StorageBackend::RemoteAddr` end to end: the deployment connects to
//! storage servers it does *not* supervise — the multi-machine shape,
//! here hosted on threads with real TCP sockets in between.  (Commits go
//! through the deadline-based retry helper of `obladi_testkit::chaos`.)

use obladi_common::config::{ShardConfig, StorageBackend};
use obladi_shard::ShardedDb;
use obladi_storage::{InMemoryStore, UntrustedStore};
use obladi_transport::{serve, SocketSpec};
use std::sync::Arc;
use std::time::Duration;

use obladi_testkit::chaos::commit_with_retries;

#[test]
fn sharded_db_over_remote_addr_tcp_servers() {
    // Two storage servers the deployment does not own.
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..2 {
        let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
        let handle = serve(&SocketSpec::parse("tcp:127.0.0.1:0").unwrap(), store).unwrap();
        addrs.push(handle.spec().to_string());
        handles.push(handle);
    }

    let mut config =
        ShardConfig::small_for_tests(2, 1_024).with_storage(StorageBackend::RemoteAddr(addrs));
    config.shard.epoch.batch_interval = Duration::from_millis(1);
    let db = ShardedDb::open(config).unwrap();

    // Unsupervised storage: the kill/respawn surface must refuse.
    assert!(!db.has_storage_supervisor());
    assert!(db.kill_shard_storage(0).is_err());
    assert!(db.respawn_shard_storage(0).is_err());

    // A cross-shard transaction commits and reads back across TCP.
    let key_a = 0u64;
    let key_b = (1..10_000u64)
        .find(|&k| db.router().route(k) != db.router().route(key_a))
        .expect("no cross-shard key found");
    commit_with_retries(&db, |txn| {
        txn.write(key_a, b"left".to_vec())?;
        txn.write(key_b, b"right".to_vec())
    })
    .expect("cross-shard write never committed");
    let mut seen = (None, None);
    commit_with_retries(&db, |txn| {
        seen = (txn.read(key_a)?, txn.read(key_b)?);
        Ok(())
    })
    .expect("cross-shard read never committed");
    assert_eq!(seen.0.as_deref(), Some(&b"left"[..]));
    assert_eq!(seen.1.as_deref(), Some(&b"right"[..]));

    db.shutdown();
    for handle in &mut handles {
        handle.stop();
    }
}

#[test]
fn remote_addr_config_rejects_wrong_address_count() {
    let config = ShardConfig::small_for_tests(2, 256)
        .with_storage(StorageBackend::RemoteAddr(vec!["tcp:127.0.0.1:1".into()]));
    assert!(ShardedDb::open(config).is_err());
}
