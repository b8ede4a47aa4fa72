//! Shared per-shard storage profiles for the scale-out experiments.
//!
//! The one place a benchmark says *what the storage under each shard looks
//! like*:
//!
//! * [`StorageProfile::Memory`] — bare in-memory stores (zero latency);
//! * [`StorageProfile::UniformLatency`] — every shard pays the same
//!   simulated round-trip latency;
//! * [`StorageProfile::OneSlowShard`] — a single straggler shard (the
//!   pipeline experiment's win case: everyone else overlaps its decision);
//! * [`StorageProfile::RemoteSocket`] — each shard talks framed RPC to
//!   its own storage server across a real socket: spawned `obladi-stored`
//!   daemons when the binary can be located, in-process socket servers
//!   otherwise (same wire, same codec, no child processes).

use obladi_common::config::BackendKind;
use obladi_common::error::Result;
use obladi_common::latency::{LatencyModel, LatencyProfile};
use obladi_storage::{InMemoryStore, LatencyStore, UntrustedStore};
use obladi_transport::{
    locate_stored_binary, serve, RemoteStore, ServerHandle, SocketSpec, StorageSupervisor,
    TransportStats,
};
use std::sync::Arc;
use std::time::Duration;

/// The storage shape under every shard of a benchmark deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageProfile {
    /// Bare in-memory stores: zero latency, in-process.
    Memory,
    /// Every shard's store simulates the same read/write latency.
    UniformLatency(Duration),
    /// One shard's *reads* are slow; the rest are bare memory.  The
    /// straggler holds the epoch rendezvous open, which is exactly the
    /// window the pipelined barrier monetises.
    OneSlowShard {
        /// Index of the straggler shard.
        shard: usize,
        /// Its simulated read latency.
        read_latency: Duration,
    },
    /// Each shard against its own storage server across a socket.
    RemoteSocket,
}

impl StorageProfile {
    /// Label used in table rows and the JSON records.
    pub fn name(&self) -> String {
        match self {
            StorageProfile::Memory => "memory".to_string(),
            StorageProfile::UniformLatency(latency) => {
                format!("uniform{}us", latency.as_micros())
            }
            StorageProfile::OneSlowShard {
                shard,
                read_latency,
            } => format!("slow-shard{shard}-{}ms", read_latency.as_millis()),
            StorageProfile::RemoteSocket => "remote-socket".to_string(),
        }
    }

    /// Builds one store per shard.  The returned [`BuiltStorage`] owns
    /// whatever infrastructure backs them (daemon processes or in-process
    /// socket servers) — keep it alive for the duration of the run.
    pub fn build(&self, shards: usize, seed: u64) -> Result<BuiltStorage> {
        let mut built = BuiltStorage {
            stores: Vec::with_capacity(shards),
            remotes: Vec::new(),
            mode: "in-process",
            supervisor: None,
            servers: Vec::new(),
        };
        match self {
            StorageProfile::Memory => {
                for _ in 0..shards {
                    built.stores.push(Arc::new(InMemoryStore::new()));
                }
            }
            StorageProfile::UniformLatency(latency) => {
                for index in 0..shards {
                    built.stores.push(latency_store(
                        flat_profile(*latency, *latency),
                        seed ^ (index as u64 + 1),
                    ));
                }
            }
            StorageProfile::OneSlowShard {
                shard,
                read_latency,
            } => {
                for index in 0..shards {
                    if index == *shard {
                        built.stores.push(latency_store(
                            flat_profile(*read_latency, Duration::ZERO),
                            seed ^ (index as u64 + 1),
                        ));
                    } else {
                        built.stores.push(Arc::new(InMemoryStore::new()));
                    }
                }
            }
            StorageProfile::RemoteSocket => match locate_stored_binary() {
                Ok(_) => {
                    let supervisor = StorageSupervisor::spawn(shards)?;
                    for index in 0..shards {
                        let remote = Arc::new(RemoteStore::connect(
                            supervisor.addr(index),
                            Duration::from_secs(10),
                        )?);
                        built.remotes.push(remote.clone());
                        built.stores.push(remote);
                    }
                    built.supervisor = Some(supervisor);
                    built.mode = "daemon";
                }
                Err(_) => {
                    // No daemon binary around (e.g. `cargo run -p
                    // obladi-bench` without building obladi-transport's
                    // bins): host the servers on threads instead.  The
                    // wire, codec and pipelining are identical; only the
                    // process boundary is missing.
                    for _ in 0..shards {
                        let server_store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
                        let spec = SocketSpec::parse("tcp:127.0.0.1:0")?;
                        let handle = serve(&spec, server_store)?;
                        let remote = Arc::new(RemoteStore::connect(
                            handle.spec().clone(),
                            Duration::from_secs(10),
                        )?);
                        built.remotes.push(remote.clone());
                        built.stores.push(remote);
                        built.servers.push(handle);
                    }
                    built.mode = "in-thread";
                }
            },
        }
        Ok(built)
    }
}

fn flat_profile(read: Duration, write: Duration) -> LatencyProfile {
    let mut profile = LatencyProfile::for_backend(BackendKind::Dummy);
    profile.read = LatencyModel::with_mean(read);
    profile.write = LatencyModel::with_mean(write);
    profile
}

fn latency_store(profile: LatencyProfile, seed: u64) -> Arc<dyn UntrustedStore> {
    Arc::new(LatencyStore::new(
        Arc::new(InMemoryStore::new()),
        profile,
        seed,
    ))
}

/// The stores built for one benchmark deployment, plus whatever backs
/// them.
pub struct BuiltStorage {
    /// One store per shard, in shard order (feed to
    /// `ShardedDb::open_with_stores`).
    pub stores: Vec<Arc<dyn UntrustedStore>>,
    /// The same stores as typed remote clients when the profile is
    /// [`StorageProfile::RemoteSocket`] (for transport statistics).
    pub remotes: Vec<Arc<RemoteStore>>,
    /// How the remote profile was realised: `daemon` (spawned
    /// `obladi-stored` processes), `in-thread` (socket servers on
    /// threads), or `in-process` for the non-remote profiles.
    pub mode: &'static str,
    supervisor: Option<StorageSupervisor>,
    servers: Vec<ServerHandle>,
}

impl BuiltStorage {
    /// Sum of the remote clients' transport counters (zeros for
    /// non-remote profiles).
    pub fn transport_stats(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for remote in &self.remotes {
            let stats = remote.transport_stats();
            total.requests += stats.requests;
            total.responses += stats.responses;
            total.flushes += stats.flushes;
            total.connects += stats.connects;
        }
        total
    }

    /// Tears down servers and daemons (also happens on drop).
    pub fn shutdown(mut self) {
        for server in &mut self.servers {
            server.stop();
        }
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.stop_all();
        }
    }
}
