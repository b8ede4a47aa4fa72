//! The four workloads: deployment geometry, seeded operation generators,
//! the loader, and the per-client oracle that remembers what an outsider
//! is entitled to expect of later reads.
//!
//! The engine's seed is fixed; `--seed` drives only the operations the
//! clients generate, so two runs with one seed send the engine the same
//! inputs.

use crate::stats::TPCC_KINDS;
use crate::store::TimedStore;
use obladi_common::config::{ObladiConfig, ShardConfig};
use obladi_common::error::{ObladiError, Result};
use obladi_common::rng::DetRng;
use obladi_common::types::{Key, Value};
use obladi_common::zipf::Zipf;
use obladi_core::{KvDatabase, KvTransaction};
use obladi_shard::ShardedDb;
use obladi_storage::{InMemoryStore, UntrustedStore};
use obladi_transport::{serve, RemoteStore, ServerHandle, SocketSpec, TransportStats};
use obladi_workloads::encoding::{read_row, write_row};
use obladi_workloads::{pack_key, Row, TpccConfig, TpccTxn, TpccWorkload, Workload};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Shards of every deployment, and closed-loop client threads of every
/// run (one per core of the host the load shape was sized on).  The client
/// API is blocking, so in-flight transactions = clients.
pub const SHARDS: usize = 2;
pub const CLIENTS: usize = 2;

/// YCSB table shape: same as `obladi_workloads::YcsbWorkload`, whose key
/// and row helpers are private.
pub const YCSB_KEYS: u64 = 1_024;
const YCSB_TABLE: u8 = 1;
const YCSB_VALUE_BYTES: usize = 64;
const YCSB_ZIPF_THETA: f64 = 0.6;

/// ORAM block size: YCSB and TPC-C rows (64-byte values plus row framing)
/// must fit one block.
pub const BLOCK_SIZE: usize = 192;

/// Attempts a client spends on one transaction before reporting it failed.
const MAX_ATTEMPTS: u32 = 200;

/// Where a shard's untrusted store lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// An `InMemoryStore` trait object in this process.
    Memory,
    /// An `InMemoryStore` behind `serve()` on a loopback TCP socket,
    /// reached through `RemoteStore`; the server runs on threads of this
    /// process.
    Socket,
}

/// Transaction mix of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// One-key transactions; `read_share` of them read-only, the rest
    /// read-modify-write.
    Ycsb { read_share: f64 },
    /// TPC-C over `TpccConfig::benchmark(1)`: NewOrder, Payment and
    /// OrderStatus in the standard proportions (see `Generator::next_kind`).
    Tpcc,
}

/// Per-shard ORAM and epoch geometry.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    pub objects_per_shard: u64,
    pub read_batches: u32,
    pub read_batch_size: usize,
    pub write_batch_size: usize,
}

/// `fig_shard`'s quick geometry.
const YCSB_GEOMETRY: Geometry = Geometry {
    objects_per_shard: 2_048,
    read_batches: 4,
    read_batch_size: 32,
    write_batch_size: 64,
};

/// Room for TPC-C's dependent read chains and, for a minute of NewOrders,
/// its growing order tables (3,531 rows loaded, ~60 added a second).  A
/// 16,384-object tree fits more but its epochs take a third longer, and the
/// fewer commits per window double the run-to-run spread.
///
/// A NewOrder of ten lines chains 23 dependent reads and each takes a read
/// batch, so an epoch must offer more than that from wherever in the epoch
/// the transaction starts.  With 20 batches the longest orders can only
/// abort and the rest abort whenever the epoch is too far gone: 2.0 attempts
/// per commit, rising to 2.8 when the host slows, which compounds with the
/// longer epoch and makes `committed_per_s` swing by a third.  With 32 it is
/// 1.2 attempts, steady, and more commits per second although the epoch is
/// longer.
const TPCC_GEOMETRY: Geometry = Geometry {
    objects_per_shard: 4_096,
    read_batches: 32,
    read_batch_size: 32,
    write_batch_size: 256,
};

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub storage: Storage,
    pub mix: Mix,
    pub geometry: Geometry,
    /// Rows per load transaction.
    pub load_chunk: usize,
    /// Whether `BENCHMARK.json` lists the workload, so that its end-to-end
    /// metrics are gated.  `ycsb_rw50_sock` is not: a slow spell of the host
    /// reads a third deeper through it than through the in-memory workloads,
    /// so two same-commit sets of runs do not agree within any bound the
    /// contract allows (see the README's calibration).
    pub gated: bool,
}

/// The workloads; the gated ones in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "ycsb_read_mem",
        why: "1-key read-only txns on in-memory stores: only the CPU durable tail (crypto, \
              ORAM write-back, checkpoint) works; transport and 2PC sit idle",
        storage: Storage::Memory,
        mix: Mix::Ycsb { read_share: 1.0 },
        geometry: YCSB_GEOMETRY,
        load_chunk: 32,
        gated: true,
    },
    Spec {
        name: "ycsb_rw50_mem",
        why: "same geometry, half read-modify-writes: write-batch fill, Decision WAL \
              records, the durable-ack rung; a read-path gain that taxes writes shows here",
        storage: Storage::Memory,
        mix: Mix::Ycsb { read_share: 0.5 },
        geometry: YCSB_GEOMETRY,
        load_chunk: 32,
        gated: true,
    },
    Spec {
        name: "ycsb_rw50_sock",
        why: "the rw50 mix with each store behind a loopback socket: frame codec, writer \
              coalescing and round trips dominate; compare with ycsb_rw50_mem for their cost",
        storage: Storage::Socket,
        mix: Mix::Ycsb { read_share: 0.5 },
        geometry: YCSB_GEOMETRY,
        load_chunk: 32,
        gated: false,
    },
    Spec {
        name: "tpcc_mem",
        why: "TPC-C (NewOrder, Payment, OrderStatus), the paper's headline app: dependent \
              read chains, cross-shard 2PC and vote aborts, which the one-key YCSB cells \
              barely touch",
        storage: Storage::Memory,
        mix: Mix::Tpcc,
        geometry: TPCC_GEOMETRY,
        load_chunk: 128,
        gated: true,
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|spec| spec.name == name)
    }

    /// The deployment configuration: `fig_shard`'s template at the shipped
    /// defaults (`pipeline_depth = 2`, durability on) with this workload's
    /// geometry.
    pub fn shard_config(&self) -> ShardConfig {
        let g = self.geometry;
        let mut shard = ObladiConfig::small_for_tests(g.objects_per_shard);
        shard.oram.block_size = BLOCK_SIZE;
        shard.oram.max_stash = 4_096;
        shard.epoch.batch_interval = Duration::from_millis(1);
        // The ORAM executor pool is sized to what it waits for: one thread
        // per core where store calls are CPU work, `EpochConfig::default()`'s
        // eight (as `fig_transport` sizes it) where they are round trips —
        // over sockets two threads leave the writer nothing to coalesce and
        // the epoch period wanders by a third from second to second.
        shard.epoch.executor_threads = match self.storage {
            Storage::Memory => 2,
            Storage::Socket => 8,
        };
        shard.epoch.read_batches = g.read_batches;
        shard.epoch.read_batch_size = g.read_batch_size;
        shard.epoch.write_batch_size = g.write_batch_size;
        ShardConfig {
            shards: SHARDS,
            shard,
            ..ShardConfig::default()
        }
    }

    /// The rows the loader writes, in load order.
    pub fn initial_rows(&self) -> Result<Vec<(Key, Value)>> {
        match self.mix {
            Mix::Ycsb { .. } => Ok((0..YCSB_KEYS)
                .map(|index| (ycsb_key(index), ycsb_row(index, 0).encode()))
                .collect()),
            Mix::Tpcc => {
                // TPC-C's key layout is private to the workload, so its own
                // loader runs against a recorder and the recorded rows go
                // through the real front door in larger transactions.
                let capture = CaptureDb::default();
                tpcc().setup(&capture)?;
                Ok(capture.into_rows())
            }
        }
    }
}

fn tpcc() -> TpccWorkload {
    TpccWorkload::new(TpccConfig::benchmark(1))
}

pub fn ycsb_key(index: u64) -> Key {
    pack_key(YCSB_TABLE, index, 0, 0)
}

/// Rows describe themselves: `[index, version]` plus an index-derived blob.
pub fn ycsb_row(index: u64, version: u64) -> Row {
    Row::with_blob(
        vec![index, version],
        vec![(index % 251) as u8; YCSB_VALUE_BYTES],
    )
}

/// A `KvDatabase` that records writes instead of applying them.
#[derive(Default)]
struct CaptureDb {
    rows: Mutex<Vec<(Key, Value)>>,
}

impl CaptureDb {
    fn into_rows(self) -> Vec<(Key, Value)> {
        self.rows.into_inner().expect("no loader thread panicked")
    }
}

struct CaptureTxn<'a>(&'a CaptureDb);

impl KvTransaction for CaptureTxn<'_> {
    fn read(&mut self, _key: Key) -> Result<Option<Value>> {
        Ok(None)
    }

    fn write(&mut self, key: Key, value: Value) -> Result<()> {
        self.0
            .rows
            .lock()
            .expect("no loader thread panicked")
            .push((key, value));
        Ok(())
    }

    fn id(&self) -> u64 {
        0
    }
}

impl KvDatabase for CaptureDb {
    fn execute<T>(&self, body: &mut dyn FnMut(&mut dyn KvTransaction) -> Result<T>) -> Result<T> {
        body(&mut CaptureTxn(self))
    }

    fn engine_name(&self) -> &'static str {
        "capture"
    }
}

/// An open deployment and whatever backs its stores.
pub struct Deployment {
    pub db: ShardedDb,
    /// The stores handed to the engine, in shard order (decorated when the
    /// deployment was opened for tracing).
    pub stores: Vec<Arc<dyn UntrustedStore>>,
    /// The timing decorators, when installed.
    pub timed: Vec<Arc<TimedStore>>,
    remotes: Vec<Arc<RemoteStore>>,
    servers: Vec<ServerHandle>,
}

impl Deployment {
    /// Opens an empty deployment of `spec`.  `decorate` installs the
    /// timing decorator around every shard's store.
    pub fn open(spec: &Spec, decorate: bool) -> Result<Deployment> {
        let mut stores: Vec<Arc<dyn UntrustedStore>> = Vec::new();
        let mut timed = Vec::new();
        let mut remotes = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..SHARDS {
            let mut store: Arc<dyn UntrustedStore> = match spec.storage {
                Storage::Memory => Arc::new(InMemoryStore::new()),
                Storage::Socket => {
                    let listen = SocketSpec::parse("tcp:127.0.0.1:0")?;
                    let server = serve(&listen, Arc::new(InMemoryStore::new()))?;
                    let remote = Arc::new(RemoteStore::connect(
                        server.spec().clone(),
                        Duration::from_secs(10),
                    )?);
                    servers.push(server);
                    remotes.push(remote.clone());
                    remote
                }
            };
            if decorate {
                let decorator = Arc::new(TimedStore::new(store));
                timed.push(decorator.clone());
                store = decorator;
            }
            stores.push(store);
        }
        let db = ShardedDb::open_with_stores(spec.shard_config(), stores.clone())?;
        Ok(Deployment {
            db,
            stores,
            timed,
            remotes,
            servers,
        })
    }

    /// Loads `rows` through the transactional front door: the client
    /// threads take alternate `chunk`-row transactions.
    pub fn load(&self, rows: &[(Key, Value)], chunk: usize) -> Result<()> {
        let chunks: Vec<&[(Key, Value)]> = rows.chunks(chunk).collect();
        let outcomes: Vec<Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let chunks = &chunks;
                    let db = &self.db;
                    scope.spawn(move || {
                        for chunk in chunks.iter().skip(client).step_by(CLIENTS) {
                            db.execute_with_retries(MAX_ATTEMPTS as usize, &mut |txn| {
                                for (key, value) in chunk.iter() {
                                    txn.write(*key, value.clone())?;
                                }
                                Ok(())
                            })?;
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("loader thread panicked"))
                .collect()
        });
        outcomes.into_iter().collect()
    }

    /// Sum of the remote clients' transport counters (zeros in memory).
    pub fn transport_stats(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for remote in &self.remotes {
            let stats = remote.transport_stats();
            total.requests += stats.requests;
            total.responses += stats.responses;
            total.flushes += stats.flushes;
            total.connects += stats.connects;
            total.bytes_tx += stats.bytes_tx;
            total.bytes_rx += stats.bytes_rx;
        }
        total
    }

    /// Stops the engine, then the socket servers, and waits for both.
    pub fn close(mut self) {
        self.db.shutdown();
        for server in &mut self.servers {
            server.stop();
        }
    }
}

/// What a client sets out to commit.  The inputs are drawn per attempt:
/// after a retryable abort the client moves on to fresh inputs of the same
/// kind (as a TPC-C terminal moves on to its next customer) until one
/// commits, so the committed mix equals the drawn mix.  Retrying the very
/// same inputs instead can phase-lock the two clients into aborting each
/// other for hundreds of epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    YcsbRead,
    YcsbUpdate,
    Tpcc(TpccTxn),
}

impl Kind {
    /// Span name of the kind's attempts.
    pub fn name(&self) -> &'static str {
        match self {
            Kind::YcsbRead => "ycsb_read",
            Kind::YcsbUpdate => "ycsb_update",
            Kind::Tpcc(kind) => TPCC_KINDS[*kind as usize],
        }
    }

    /// Index into `stats::TPCC_KINDS`; 0 for YCSB.
    pub fn tpcc_index(&self) -> usize {
        match self {
            Kind::Tpcc(kind) => *kind as usize,
            _ => 0,
        }
    }
}

/// Seeded operation source of one client.
pub struct Generator {
    mix: Mix,
    zipf: Zipf,
    tpcc: TpccWorkload,
    rng: DetRng,
}

impl Generator {
    pub fn new(spec: &Spec, seed: u64, client: usize) -> Self {
        Generator {
            mix: spec.mix,
            zipf: Zipf::new(YCSB_KEYS, YCSB_ZIPF_THETA),
            tpcc: tpcc(),
            rng: DetRng::new(seed).derive(client as u64 + 1),
        }
    }

    pub fn next_kind(&mut self) -> Kind {
        match self.mix {
            Mix::Ycsb { read_share } if self.rng.unit() < read_share => Kind::YcsbRead,
            Mix::Ycsb { .. } => Kind::YcsbUpdate,
            Mix::Tpcc => loop {
                // Delivery and StockLevel chain 100+ dependent reads once
                // orders exist; an epoch offers `read_batches` of them, so
                // on this geometry they can only ever abort.
                let kind = TpccTxn::sample(&mut self.rng);
                if !matches!(kind, TpccTxn::Delivery | TpccTxn::StockLevel) {
                    return Kind::Tpcc(kind);
                }
            },
        }
    }

    /// Attempts transactions of `kind` until one commits, one fails hard,
    /// or the attempts run out.  `before_attempt` runs ahead of every
    /// attempt.
    pub fn run<D: KvDatabase>(
        &mut self,
        db: &D,
        kind: Kind,
        oracle: &mut Oracle,
        mut before_attempt: impl FnMut(),
    ) -> OpOutcome {
        let new_order = kind == Kind::Tpcc(TpccTxn::NewOrder);
        for attempt in 1..=MAX_ATTEMPTS {
            before_attempt();
            let result = match kind {
                Kind::YcsbRead | Kind::YcsbUpdate => {
                    let index = self.zipf.sample(&mut self.rng);
                    ycsb_attempt(db, index, kind == Kind::YcsbRead, oracle)
                }
                Kind::Tpcc(txn) => self.tpcc.run_txn(db, txn, &mut self.rng),
            };
            match result {
                Ok(true) => {
                    oracle.new_orders += new_order as u64;
                    return OpOutcome {
                        committed: true,
                        attempts: attempt,
                    };
                }
                Ok(false) => {}
                Err(err) => {
                    // Not an abort: the attempt may or may not have committed.
                    oracle.unknown += 1;
                    oracle.new_orders_unknown += new_order as u64;
                    eprintln!(
                        "perf: {} failed with a non-retryable error: {err}",
                        kind.name()
                    );
                    return OpOutcome {
                        committed: false,
                        attempts: attempt,
                    };
                }
            }
        }
        OpOutcome {
            committed: false,
            attempts: MAX_ATTEMPTS,
        }
    }
}

/// What one client has been told, from which the checks derive what any
/// later read may return.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Per YCSB key: highest version this client saw acknowledged (its own
    /// committed write, or a committed read).
    pub acked: Vec<u64>,
    /// Per YCSB key: highest version this client tried to install.
    pub attempted: Vec<u64>,
    /// Per YCSB key: read-modify-writes acknowledged to this client.
    pub rmw_commits: Vec<u64>,
    /// NewOrder transactions acknowledged to this client.
    pub new_orders: u64,
    /// NewOrder attempts that ended in a non-retryable error, so may or
    /// may not have committed.
    pub new_orders_unknown: u64,
    /// Attempts of any kind with an unknown outcome.
    pub unknown: u64,
    /// Reads that contradicted what this client had been told.
    pub violations: Vec<String>,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle {
            acked: vec![0; YCSB_KEYS as usize],
            attempted: vec![0; YCSB_KEYS as usize],
            rmw_commits: vec![0; YCSB_KEYS as usize],
            new_orders: 0,
            new_orders_unknown: 0,
            unknown: 0,
            violations: Vec::new(),
        }
    }
}

/// Result of driving one kind to a commit (or giving up).
pub struct OpOutcome {
    pub committed: bool,
    pub attempts: u32,
}

/// Checks a YCSB row read for `index` against its self-description.
pub fn check_ycsb_row(index: u64, row: &Row) -> std::result::Result<u64, String> {
    let expected = ycsb_row(index, 0);
    match (row.nums.as_slice(), &row.blob) {
        ([found, version], blob) if *found == index && *blob == expected.blob => Ok(*version),
        _ => Err(format!(
            "key {index} returned a row describing index {:?} ({} blob bytes)",
            row.nums.first(),
            row.blob.len()
        )),
    }
}

/// One attempt of a YCSB op: `Ok(true)` committed, `Ok(false)` aborted
/// retryably.
fn ycsb_attempt<D: KvDatabase>(
    db: &D,
    index: u64,
    read: bool,
    oracle: &mut Oracle,
) -> Result<bool> {
    let key = ycsb_key(index);
    let slot = index as usize;
    let mut seen: Option<Row> = None;
    let mut wrote: Option<u64> = None;
    let result = db.execute(&mut |txn: &mut dyn KvTransaction| {
        let row = read_row(txn, key)?.ok_or(ObladiError::KeyNotFound(key))?;
        if !read {
            let next = row.num(1)? + 1;
            wrote = Some(next);
            write_row(txn, key, &ycsb_row(index, next))?;
        }
        seen = Some(row);
        Ok(())
    });
    if let Some(next) = wrote {
        oracle.attempted[slot] = oracle.attempted[slot].max(next);
    }
    match result {
        Ok(()) => {
            let row = seen.expect("a committed body ran to its end");
            match check_ycsb_row(index, &row) {
                Ok(version) if version < oracle.acked[slot] => oracle.violations.push(format!(
                    "key {index} read version {version} after version {} was acknowledged",
                    oracle.acked[slot]
                )),
                Ok(version) => {
                    oracle.acked[slot] = wrote.unwrap_or(version);
                    if wrote.is_some() {
                        oracle.rmw_commits[slot] += 1;
                    }
                }
                Err(violation) => oracle.violations.push(violation),
            }
            Ok(true)
        }
        Err(err) if err.is_retryable() => Ok(false),
        Err(err) => Err(err),
    }
}

/// Reads every district's next order id; their sum is the number of
/// NewOrder transactions that ever committed.
pub fn tpcc_orders_placed(db: &ShardedDb) -> Result<u64> {
    let workload = tpcc();
    let districts = workload.config().districts_per_warehouse;
    let reads: Vec<Result<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..districts)
            .map(|d| {
                let workload = &workload;
                scope.spawn(move || retry_read(|| workload.district_next_order(db, 0, d)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("district reader panicked"))
            .collect()
    });
    reads.into_iter().sum()
}

/// Retries a read-only probe across retryable aborts.
pub fn retry_read<T>(mut probe: impl FnMut() -> Result<T>) -> Result<T> {
    let mut attempts = 0;
    loop {
        match probe() {
            Err(err) if err.is_retryable() && attempts < MAX_ATTEMPTS => attempts += 1,
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_repeat_for_a_seed_and_differ_across_clients() {
        for spec in WORKLOADS {
            let ops = |seed, client| -> Vec<String> {
                let mut generator = Generator::new(&spec, seed, client);
                (0..50)
                    .map(|_| format!("{:?}/{}", generator.next_kind(), generator.rng.next_u64()))
                    .collect()
            };
            assert_eq!(ops(42, 0), ops(42, 0), "{}", spec.name);
            assert_ne!(ops(42, 0), ops(42, 1), "{}", spec.name);
            assert_ne!(ops(42, 0), ops(7, 0), "{}", spec.name);
        }
    }

    #[test]
    fn tpcc_rows_are_captured_once_each() {
        let rows = Spec::by_name("tpcc_mem").unwrap().initial_rows().unwrap();
        let mut keys: Vec<Key> = rows.iter().map(|(key, _)| *key).collect();
        let loaded = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), loaded);
        assert_eq!(loaded, 1_000 + 1_000 + 1 + 10 + 10 * 120 + 10 * 32);
    }

    #[test]
    fn ycsb_rows_describe_themselves() {
        assert_eq!(check_ycsb_row(7, &ycsb_row(7, 3)), Ok(3));
        assert!(check_ycsb_row(7, &ycsb_row(8, 3)).is_err());
        assert!(check_ycsb_row(7, &Row::new(vec![7])).is_err());
    }
}
