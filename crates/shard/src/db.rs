//! The sharded front door: [`ShardedDb`] and [`ShardedTxn`].
//!
//! `ShardedDb` runs `N` fully independent Obladi pipelines — each with its
//! own storage backend, Ring ORAM tree, MVTSO unit, epoch driver and
//! recovery unit — and presents the same `begin` / `read` / `write` /
//! `commit` surface as a single [`ObladiDb`].  Three shared pieces make the
//! ensemble behave like one serializable database:
//!
//! * the [`ShardRouter`](crate::ShardRouter) assigns every key to one shard
//!   by keyed hash, so any key's reads and writes always meet the same MVTSO
//!   unit;
//! * the [`TimestampOracle`](crate::TimestampOracle) stamps every
//!   transaction once, globally, so all shards serialize in the same order;
//! * the [`EpochCoordinator`](crate::EpochCoordinator) ends all shards'
//!   epochs at one rendezvous and vetoes any cross-shard transaction that is
//!   not unanimously ready, so delayed visibility stays atomic across
//!   shards.
//!
//! Transactions open their per-shard legs lazily on first access, which
//! keeps single-shard transactions (the overwhelming majority under a
//! uniform router) exactly as cheap as on an unsharded proxy.

use crate::coordinator::{EpochCoordinator, ShardGate, TxnDecision};
use crate::oracle::TimestampOracle;
use crate::router::ShardRouter;
use obladi_common::config::{ShardConfig, StorageBackend};
use obladi_common::error::{ObladiError, Result};
use obladi_common::types::{AbortReason, Key, TxnId, TxnOutcome, Value};
use obladi_core::durability::RecoveryReport;
use obladi_core::proxy::{ObladiDb, ObladiTxn, ProxyStats};
use obladi_core::{KvDatabase, KvTransaction};
use obladi_crypto::KeyMaterial;
use obladi_storage::{build_backend, TrustedCounter, UntrustedStore};
use obladi_transport::{RemoteStore, SocketSpec, StorageSupervisor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Aggregate statistics of a sharded deployment.
#[derive(Debug, Clone, Default)]
pub struct ShardedStats {
    /// Per-shard proxy statistics, indexed by shard.
    pub shards: Vec<ProxyStats>,
    /// Completed global epochs (coordinator rounds).
    pub global_epochs: u64,
    /// Transactions that committed through the front door.
    pub committed: u64,
    /// Transactions that aborted through the front door.
    pub aborted: u64,
    /// Committed transactions that spanned two or more shards.
    pub cross_shard_committed: u64,
}

/// How long remote-storage connects wait for a daemon to become ready.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// A sharded Obladi deployment behind a single transactional front door.
pub struct ShardedDb {
    shards: Vec<ObladiDb>,
    router: ShardRouter,
    oracle: TimestampOracle,
    coordinator: Arc<EpochCoordinator>,
    config: ShardConfig,
    committed: AtomicU64,
    aborted: AtomicU64,
    cross_shard_committed: AtomicU64,
    /// Owns the `obladi-stored` daemon processes when the deployment was
    /// opened with [`StorageBackend::RemoteSpawned`].
    supervisor: Option<StorageSupervisor>,
    /// Per-shard store handles, retained for operational scrapes
    /// ([`ShardedDb::publish_daemon_metrics`]) after the pipelines have
    /// consumed them.
    stores: Vec<Arc<dyn UntrustedStore>>,
}

impl ShardedDb {
    /// Opens `config.shards` independent proxies behind one front door,
    /// placing each shard's storage as `config.storage` directs:
    ///
    /// * [`StorageBackend::InProcess`] — trait-object stores in this
    ///   process (the seed deployment shape);
    /// * [`StorageBackend::RemoteSpawned`] — one `obladi-stored` daemon
    ///   process per shard, spawned and supervised by the deployment, each
    ///   shard's ORAM pipeline talking framed RPC over its own socket;
    /// * [`StorageBackend::RemoteAddr`] — daemons already running at the
    ///   given addresses (one per shard), connected to but not supervised.
    pub fn open(config: ShardConfig) -> Result<ShardedDb> {
        config.validate()?;
        match config.storage.clone() {
            StorageBackend::InProcess => {
                let stores = (0..config.shards)
                    .map(|index| {
                        let shard_config = config.shard_config(index);
                        build_backend(
                            shard_config.backend,
                            shard_config.latency_scale,
                            shard_config.seed,
                        )
                    })
                    .collect();
                ShardedDb::open_with_stores(config, stores)
            }
            StorageBackend::RemoteSpawned => {
                let supervisor = StorageSupervisor::spawn(config.shards)?;
                let stores = (0..config.shards)
                    .map(|index| {
                        RemoteStore::connect(supervisor.addr(index), CONNECT_TIMEOUT)
                            .map(|store| Arc::new(store) as Arc<dyn UntrustedStore>)
                    })
                    .collect::<Result<Vec<_>>>()?;
                let mut db = ShardedDb::open_with_stores(config, stores)?;
                db.supervisor = Some(supervisor);
                Ok(db)
            }
            StorageBackend::RemoteAddr(addrs) => {
                let stores = addrs
                    .iter()
                    .map(|addr| {
                        let spec = SocketSpec::parse(addr)?;
                        RemoteStore::connect(spec, CONNECT_TIMEOUT)
                            .map(|store| Arc::new(store) as Arc<dyn UntrustedStore>)
                    })
                    .collect::<Result<Vec<_>>>()?;
                ShardedDb::open_with_stores(config, stores)
            }
        }
    }

    /// Opens the deployment over caller-supplied per-shard storage backends.
    ///
    /// Fault-injection harnesses use this to wrap individual shards in
    /// `FaultyStore` so crashes can be triggered at precise points of the
    /// cross-shard commit protocol.
    pub fn open_with_stores(
        config: ShardConfig,
        stores: Vec<Arc<dyn UntrustedStore>>,
    ) -> Result<ShardedDb> {
        config.validate()?;
        if stores.len() != config.shards {
            return Err(ObladiError::Config(format!(
                "{} stores supplied for {} shards",
                stores.len(),
                config.shards
            )));
        }
        let keys = KeyMaterial::for_tests(config.shard.seed);
        let router = ShardRouter::new(&keys, config.shards);
        let coordinator =
            Arc::new(EpochCoordinator::new(config.shards).with_watchdog(config.barrier_watchdog));
        let mut shards = Vec::with_capacity(config.shards);
        for (index, store) in stores.iter().enumerate() {
            let shard_config = config.shard_config(index);
            let shard_keys = KeyMaterial::for_tests(shard_config.seed);
            let db = ObladiDb::open_with(
                shard_config,
                store.clone(),
                TrustedCounter::new(),
                shard_keys,
            )?;
            db.set_epoch_gate(Arc::new(ShardGate::new(coordinator.clone(), index)));
            shards.push(db);
        }
        Ok(ShardedDb {
            shards,
            router,
            oracle: TimestampOracle::new(),
            coordinator,
            config,
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            cross_shard_committed: AtomicU64::new(0),
            supervisor: None,
            stores,
        })
    }

    /// The deployment configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to one shard's proxy (tests, benches, operations).
    pub fn shard(&self, index: usize) -> &ObladiDb {
        &self.shards[index]
    }

    /// The router used for key placement.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Completed global epochs.
    pub fn global_epoch(&self) -> u64 {
        self.coordinator.global_epoch()
    }

    /// 2PC commit decisions still awaiting participant acknowledgements
    /// (a healthy deployment trends to zero; a nonzero steady state means
    /// some shard never made a voted transaction durable).
    pub fn pending_decisions(&self) -> usize {
        self.coordinator.machine().pending_decisions()
    }

    /// Pulls each storage daemon's own telemetry over the RPC transport
    /// and publishes it into this process's registry, namespaced
    /// `daemon.{shard}.{metric}`, so `--metrics-out` dumps stop silently
    /// omitting the daemon side on remote profiles.  Histograms arrive as
    /// wire summaries and land as `.count` / `.sum` / `.max` gauges.
    /// In-process stores contribute nothing (their metrics already live
    /// here); unreachable daemons are skipped.
    pub fn publish_daemon_metrics(&self) {
        let registry = obladi_obs::global();
        for (index, store) in self.stores.iter().enumerate() {
            let Some(metrics) = store.daemon_metrics() else {
                continue;
            };
            let local = |name: &str| {
                let rest = name.strip_prefix("daemon.").unwrap_or(name);
                format!("daemon.{index}.{rest}")
            };
            for (name, total) in &metrics.counters {
                registry.gauge(&local(name)).set(*total as i64);
            }
            for (name, level) in &metrics.gauges {
                registry.gauge(&local(name)).set(*level);
            }
            for (name, histogram) in &metrics.histograms {
                let base = local(name);
                registry
                    .gauge(&format!("{base}.count"))
                    .set(histogram.count as i64);
                registry
                    .gauge(&format!("{base}.sum"))
                    .set(histogram.sum as i64);
                registry
                    .gauge(&format!("{base}.max"))
                    .set(histogram.max as i64);
            }
        }
    }

    /// Aggregated statistics snapshot.
    pub fn stats(&self) -> ShardedStats {
        ShardedStats {
            shards: self.shards.iter().map(|s| s.stats()).collect(),
            global_epochs: self.coordinator.global_epoch(),
            committed: self.committed.load(Ordering::SeqCst),
            aborted: self.aborted.load(Ordering::SeqCst),
            cross_shard_committed: self.cross_shard_committed.load(Ordering::SeqCst),
        }
    }

    /// Begins a transaction stamped by the global timestamp oracle.  Shard
    /// legs open lazily on first access to a key the shard owns.
    ///
    /// Beginning never blocks on an epoch rollover or the coordinator: the
    /// transaction samples each shard's current epoch *generation* (before
    /// drawing its timestamp — the order matters, see
    /// [`ShardedDb::stamp`]), and each leg later verifies at open, inside
    /// the shard's own state lock, that the shard is still in that epoch.
    pub fn begin(&self) -> Result<ShardedTxn<'_>> {
        let (id, targets) = self.stamp();
        Ok(ShardedTxn {
            db: self,
            targets,
            primary: LegPlan::new(id, None, self.shards.len()),
            oplog: Vec::new(),
            rebuilds: 0,
            finished: false,
        })
    }

    /// Samples each shard's target epochs (executing generation plus the
    /// open deciding generation, if any — see
    /// [`obladi_core::ObladiDb::stamp_targets`]), *then* draws a global
    /// timestamp.  In that order a shard epoch rollover between the steps
    /// only makes the sampled generations stale (the leg open detects it
    /// and the transaction retries); the reverse order could smuggle a
    /// timestamp drawn before a rollover into the epoch after it, where it
    /// may be smaller than timestamps already folded into the epoch's base
    /// versions.
    fn stamp(&self) -> (TxnId, Vec<(u64, Option<u64>)>) {
        let targets = self
            .shards
            .iter()
            .map(|shard| shard.stamp_targets())
            .collect();
        (self.oracle.next_ts(), targets)
    }

    /// Crashes one shard: its volatile state is dropped, its in-flight
    /// transactions abort, and the coordinator excludes it from epoch
    /// rendezvous until [`ShardedDb::recover_shard`] brings it back.  The
    /// remaining shards keep serving transactions that do not touch it.
    pub fn crash_shard(&self, index: usize) {
        // Exclude the shard's votes *before* wiping it so a rendezvous
        // completing concurrently can neither count them nor block on it.
        self.coordinator.set_live(index, false);
        self.shards[index].crash();
    }

    /// Recovers a crashed shard from its recovery unit (§8) and re-admits it
    /// to the epoch rendezvous.
    ///
    /// In-doubt 2PC prepares found in the shard's WAL — transactions it
    /// voted to commit whose epoch never became durable — are resolved
    /// through the coordinator's decision log: committed ones are replayed
    /// from their prepare records and made durable *before* the shard
    /// rejoins (so cross-shard atomic visibility holds the moment it serves
    /// again), everything else is presumed aborted.
    pub fn recover_shard(&self, index: usize) -> Result<RecoveryReport> {
        let coordinator = self.coordinator.clone();
        let resolve =
            move |txn: TxnId| coordinator.machine().decision(txn) == TxnDecision::Committed;
        let (report, recovered) = self.shards[index].recover_resolving(&resolve)?;
        // Acknowledge everything this shard can vouch for — the halves just
        // replayed *and* prepares that were already durable before the
        // crash (the crash may have interrupted the normal epoch-durable
        // acknowledgement, which would pin the decision forever) — so fully
        // acknowledged decisions can retire, then rejoin the rendezvous.
        // The ids come from the recovery's own scan, not from the log as it
        // is now: the resumed proxy may already be retiring the records
        // behind its next acknowledged full checkpoint.
        let ack = |txns: &[TxnId]| self.coordinator.machine().ack_durable(index, txns);
        ack(&recovered.replayed);
        ack(&recovered.stale_prepared);
        self.coordinator.set_live(index, true);
        Ok(report)
    }

    /// Whether the given shard is currently crashed.
    pub fn is_shard_crashed(&self, index: usize) -> bool {
        self.shards[index].is_crashed()
    }

    /// Whether this deployment supervises its own storage daemons
    /// (`StorageBackend::RemoteSpawned`).
    pub fn has_storage_supervisor(&self) -> bool {
        self.supervisor.is_some()
    }

    /// OS process id of shard `index`'s storage daemon, when supervised
    /// and running.
    pub fn storage_daemon_pid(&self, index: usize) -> Option<u32> {
        self.supervisor.as_ref().and_then(|s| s.pid(index))
    }

    /// `SIGKILL`s shard `index`'s storage daemon — no flush, no goodbye.
    ///
    /// The shard's next storage operation fails, and the proxy fate-shares
    /// the fault into a shard crash; once the daemon is respawned
    /// ([`ShardedDb::respawn_shard_storage`]), [`ShardedDb::recover_shard`]
    /// replays the WAL over the daemon's op-log-restored state.  Only
    /// available on `RemoteSpawned` deployments.
    pub fn kill_shard_storage(&self, index: usize) -> Result<()> {
        match &self.supervisor {
            Some(supervisor) => supervisor.kill(index),
            None => Err(ObladiError::Config(
                "storage daemons are not supervised by this deployment".into(),
            )),
        }
    }

    /// Respawns shard `index`'s storage daemon over its existing data
    /// directory and waits for it to become ready.
    pub fn respawn_shard_storage(&self, index: usize) -> Result<()> {
        match &self.supervisor {
            Some(supervisor) => supervisor.respawn(index),
            None => Err(ObladiError::Config(
                "storage daemons are not supervised by this deployment".into(),
            )),
        }
    }

    /// Stops every shard's epoch driver, the coordinator and (when
    /// supervised) the storage daemons.
    pub fn shutdown(&self) {
        self.coordinator.shutdown();
        for shard in &self.shards {
            shard.shutdown();
        }
        // Daemons stop last: the epoch drivers above may still be flushing
        // their final write-backs through the sockets.
        if let Some(supervisor) = &self.supervisor {
            supervisor.stop_all();
        }
    }

    fn record_outcome(&self, outcome: &TxnOutcome, shards_touched: usize) {
        let obs = obladi_obs::global();
        if outcome.is_committed() {
            self.committed.fetch_add(1, Ordering::SeqCst);
            obs.counter("shard.txn.committed").inc();
            if shards_touched > 1 {
                self.cross_shard_committed.fetch_add(1, Ordering::SeqCst);
                obs.counter("shard.txn.cross_shard_committed").inc();
            }
        } else {
            self.aborted.fetch_add(1, Ordering::SeqCst);
            obs.counter("shard.txn.aborted").inc();
        }
    }
}

impl Drop for ShardedDb {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl obladi_core::FrontDoor for ShardedDb {
    fn deployment(&self) -> String {
        format!("obladi-{}shards", self.shards.len())
    }

    fn stop(&self) {
        self.shutdown();
    }
}

impl KvDatabase for ShardedDb {
    fn execute<T>(&self, body: &mut dyn FnMut(&mut dyn KvTransaction) -> Result<T>) -> Result<T> {
        let mut txn = self.begin()?;
        // A failed body drops the handle, which rolls every leg back.
        let value = body(&mut txn)?;
        obladi_core::api::commit_timed(|| txn.commit())?;
        Ok(value)
    }

    fn engine_name(&self) -> &'static str {
        "obladi-sharded"
    }
}

/// One candidate *epoch-set* for a transaction: a global timestamp plus the
/// per-shard legs opened against the epochs that decide at one rendezvous
/// class.
///
/// A [`ShardedTxn`] drives one plan at a time.  When the live plan's
/// epoch-set is contradicted — a rendezvous one of its legs cannot join, a
/// stale target generation, a declined late read, a conflict, a lost commit
/// vote — the plan is *discarded* (rolled back and forgotten) and the
/// transaction builds a *twin* plan under a fresh timestamp against freshly
/// sampled generations, replaying its operation log onto it.  The twin is
/// promoted only if every replayed read observes exactly what the client
/// already saw; a twin of an empty log is simply a restart.
struct LegPlan<'db> {
    /// The plan's own global MVTSO timestamp.
    id: TxnId,
    /// Which rendezvous the plan's legs decide at (see
    /// [`select_leg_target`]); `None` until the first leg fixes it.
    class: Option<u8>,
    subs: Vec<Option<ObladiTxn<'db>>>,
}

impl<'db> LegPlan<'db> {
    /// A plan with no legs open yet.  `class` pins the round class up
    /// front (a twin that knows its shard footprint); `None` leaves it to
    /// the first leg.
    fn new(id: TxnId, class: Option<u8>, shards: usize) -> LegPlan<'db> {
        LegPlan {
            id,
            class,
            subs: (0..shards).map(|_| None).collect(),
        }
    }

    /// Returns the plan's leg on `shard`, opening it against the right
    /// target generation if this is the first touch.
    ///
    /// The first leg fixes which rendezvous the plan decides at (its
    /// *round class*); later legs must pick whichever of their shard's
    /// target epochs decides at the same rendezvous.  Class 0 composes
    /// with every shard and is chosen whenever the first operation
    /// tolerates it: a write works fine in a deciding epoch, while a read
    /// wants the executing epoch's full fetch power — worth paying class 1
    /// (and its rendezvous mismatches) for.
    fn leg(
        &mut self,
        db: &'db ShardedDb,
        targets: &[(u64, Option<u64>)],
        shard: usize,
        for_write: bool,
    ) -> Result<&mut ObladiTxn<'db>> {
        if self.subs[shard].is_none() {
            let (exec_gen, deciding_gen) = targets[shard];
            let class = *self
                .class
                .get_or_insert(u8::from(deciding_gen.is_some() && !for_write));
            let target = select_leg_target(shard, class, exec_gen, deciding_gen)?;
            // The generation check runs inside the shard's own state lock,
            // atomically with its epoch rollover: a leg can never open in a
            // later epoch than its timestamp was sampled against, and no
            // coordinator rendezvous is consulted — opening a leg does not
            // block on an in-flight epoch decision.
            let sub = db.shards[shard].begin_at_generation(self.id, target)?;
            db.coordinator.machine().register(self.id, shard);
            self.subs[shard] = Some(sub);
        }
        Ok(self.subs[shard].as_mut().expect("leg just installed"))
    }

    /// Rolls back every opened leg of this plan.
    fn rollback_legs(&mut self) {
        for sub in &mut self.subs {
            if let Some(sub) = sub.take() {
                sub.rollback();
            }
        }
    }
}

/// One client-visible operation, recorded so a twin epoch-set can replay
/// the transaction and prove it observes the same history.
enum LoggedOp {
    /// A read and the value the client saw.
    Read(Key, Option<Value>),
    /// A write and the value it installed.
    Write(Key, Value),
}

/// A transaction spanning one or more shards of a [`ShardedDb`].
///
/// # Timestamps and shard epochs
///
/// Serializability across shards requires that a timestamp be *used* in the
/// same shard epoch it was *drawn* in: each epoch's ORAM base versions are
/// re-registered at timestamp 0, so a stale low timestamp operating in a
/// later epoch would read higher-timestamped data as if it preceded it.
/// Every shard leg therefore verifies, at open, that its shard is still in
/// the epoch generation sampled when the transaction was stamped — a purely
/// local check inside that shard's state lock, so opening a leg never
/// blocks on the (pipelined) epoch rendezvous.  A transaction that trips
/// that check (or any other retryable abort) rebuilds itself as a twin
/// epoch-set (below) — for one with no completed operation that is just a
/// re-stamp — and only aborts to the client when the twin cannot reproduce
/// its history.
///
/// # Dual-epoch legs
///
/// The first operation fixes the live plan's round class adaptively: a
/// read starting on a sealed shard takes class 1 (the shard's *executing*
/// epoch — full fetch power), everything else takes class 0 (sealed shards
/// contribute their deciding epochs, unsealed ones their executing epochs,
/// so the class composes with every shard).  Either way the plan places a
/// rendezvous bet the rest of the transaction can contradict: a class-1
/// leg cannot open on an unsealed shard
/// ([`ObladiError::PipelineIncompatible`]), while a class-0 leg in a
/// deciding epoch races that epoch's decision, its reads riding the
/// proxy's per-epoch late-read batch, which can *decline* once the spare
/// batch capacity runs out.  A contradicted bet no longer aborts the
/// client: the transaction re-stamps against freshly sampled generations
/// and replays its operation log onto a *twin* epoch-set — writes verbatim
/// and reads speculatively, each replayed read checked against the value
/// the client already observed.  If the whole log replays identically the
/// twin is promoted; a divergent read means the observed history is no
/// longer reproducible, and only then does the abort surface.  The replay
/// leans on MVTSO: a repeated read, or a read after the transaction's own
/// write, is answered from the epoch's version chain without spending a
/// read-batch slot, so only a key's first read can cost a fetch.
pub struct ShardedTxn<'db> {
    db: &'db ShardedDb,
    /// Per-shard target epochs sampled when the live plan's timestamp was
    /// drawn: the executing generation plus the open deciding generation,
    /// if any.  A leg may only open while its shard still hosts the chosen
    /// epoch.
    targets: Vec<(u64, Option<u64>)>,
    /// The live epoch-set, the one [`ShardedTxn::commit`] drives; replaced
    /// wholesale when a twin is promoted.
    primary: LegPlan<'db>,
    /// Every operation the client has completed, in order, with the values
    /// it observed — the replay script for twin rebuilds.
    oplog: Vec<LoggedOp>,
    /// Twin rebuilds consumed (bounded per transaction).
    rebuilds: u32,
    finished: bool,
}

impl<'db> ShardedTxn<'db> {
    /// The transaction's global MVTSO timestamp.
    ///
    /// Stable once the transaction has kept its live epoch-set: every
    /// retry, a re-stamp of a transaction with no completed operation
    /// included, moves it to a twin with its own timestamp — so
    /// record-keeping harnesses should sample the id after the
    /// transaction's outcome is known.
    pub fn id(&self) -> TxnId {
        self.primary.id
    }

    /// Maximum twin rebuilds per transaction: each rebuild replays the
    /// whole operation log, so the budget bounds the amplification a
    /// pathologically unlucky transaction can inflict on the read batches.
    const TWIN_REBUILDS: u32 = 3;

    /// Discards the live epoch-set and rebuilds the transaction as a
    /// *twin*, the front door's only retry.
    ///
    /// The contradicted primary is rolled back and forgotten *first*: a
    /// twin sharing a shard epoch with it would otherwise see its
    /// uncommitted writes (MVTSO hides only aborted versions) and diverge,
    /// or depend on it and cascade-abort with it.  Every caller aborts the
    /// transaction when the rebuild fails, so nothing is lost.
    ///
    /// The twin is a distinct transaction as far as MVTSO and the
    /// coordinator are concerned: a fresh timestamp drawn against freshly
    /// sampled shard generations (sampling before drawing preserves the
    /// [`ShardedDb::stamp`] ordering argument).  The operation log is
    /// replayed onto it — writes verbatim, reads through the twin's legs,
    /// each compared against the value the client already observed; MVTSO
    /// answers re-reads and reads of the transaction's own writes without
    /// a fetch.  Promotion happens only on *proven equivalence*: if every
    /// replayed operation succeeds and every read matches, the twin *is*
    /// the same transaction at a different serialization point.  A twin of
    /// an empty log is a plain re-stamp, left uncounted in `shard.twin.*`.
    fn rebuild_twin(&mut self, pending_shard: Option<usize>) -> Result<()> {
        self.primary.rollback_legs();
        self.db.coordinator.machine().forget(self.primary.id);
        let (id, targets) = self.db.stamp();
        // Unlike a first operation, a replay knows the transaction's shard
        // footprint, so the round class is picked against the freshly
        // sampled generations of exactly the shards the replay will touch —
        // the logged operations plus the shard of the operation whose
        // failure triggered the rebuild (that one is not in the log yet,
        // and ignoring it would re-trip the very contradiction being
        // escaped): if every one of them is sealed, class 1 gives the twin
        // full-power executing-epoch reads and a target that stays valid
        // until the rendezvous after next; if any is unsealed, only class 0
        // composes, its deciding-epoch reads riding the late-read batch.
        // An empty log leaves the class to the first leg, as `begin` does.
        let replaying = !self.oplog.is_empty();
        let obs = obladi_obs::global();
        if replaying {
            obs.counter("shard.twin.rebuilt").inc();
        }
        let class = replaying.then(|| {
            let all_sealed = self
                .oplog
                .iter()
                .map(|logged| match logged {
                    LoggedOp::Read(key, _) | LoggedOp::Write(key, _) => self.db.router.route(*key),
                })
                .chain(pending_shard)
                .all(|shard| targets[shard].1.is_some());
            u8::from(all_sealed)
        });
        let mut twin = LegPlan::new(id, class, self.db.shards.len());
        for logged in &self.oplog {
            let result = match logged {
                LoggedOp::Read(key, observed) => {
                    let shard = self.db.router.route(*key);
                    match twin
                        .leg(self.db, &targets, shard, false)
                        .and_then(|leg| leg.read(*key))
                    {
                        Ok(value) if value == *observed => Ok(()),
                        Ok(_) => Err((
                            "read_divergence",
                            ObladiError::TxnAborted(
                                "twin replay observed a different value".into(),
                            ),
                        )),
                        Err(err) => Err((err.cause_label(), err)),
                    }
                }
                LoggedOp::Write(key, value) => {
                    let shard = self.db.router.route(*key);
                    twin.leg(self.db, &targets, shard, true)
                        .and_then(|leg| leg.write(*key, value.clone()))
                        .map_err(|err| (err.cause_label(), err))
                }
            };
            if let Err((cause, err)) = result {
                twin.rollback_legs();
                self.db.coordinator.machine().forget(twin.id);
                obs.counter(&format!("shard.twin.discarded.{cause}")).inc();
                return Err(err);
            }
        }
        if replaying {
            obs.counter("shard.twin.promoted").inc();
        }
        self.primary = twin;
        self.targets = targets;
        Ok(())
    }

    /// Aborts every open leg and reports the transaction as aborted.
    fn abort_all(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.primary.rollback_legs();
        self.db.coordinator.machine().forget(self.primary.id);
        self.db
            .record_outcome(&TxnOutcome::Aborted(AbortReason::UserRequested), 0);
    }

    /// Runs one operation on the shard leg owning `key`, rebuilding the
    /// transaction as a twin epoch-set ([`ShardedTxn::rebuild_twin`]) and
    /// re-running the operation there when it hits a retryable abort.
    ///
    /// The sharded epoch barrier stretches the tail of every local epoch —
    /// the driver parks at the rendezvous with its read batches exhausted —
    /// so a leg that happens to open in that window gets a `BatchFull` or
    /// epoch-end abort through no fault of the transaction; a class-1 leg
    /// can meet an unsealed shard, a class-0 deciding leg's late read can
    /// decline.  Only when the twin cannot reproduce the client's observed
    /// history does the abort reach the client.
    fn run_on_leg<T>(
        &mut self,
        key: Key,
        for_write: bool,
        op: impl Fn(&mut ObladiTxn<'db>, Key) -> Result<T>,
    ) -> Result<T> {
        if self.finished {
            return Err(ObladiError::TxnAborted(
                "transaction already finished".into(),
            ));
        }
        let shard = self.db.router.route(key);
        let obs = obladi_obs::global();
        let err = loop {
            let result = self
                .primary
                .leg(self.db, &self.targets, shard, for_write)
                .and_then(|leg| op(leg, key));
            match result {
                Ok(value) => return Ok(value),
                Err(err) if err.is_retryable() && self.rebuilds < Self::TWIN_REBUILDS => {
                    self.rebuilds += 1;
                    obs.counter(&format!("shard.{shard}.retry.{}", err.cause_label()))
                        .inc();
                    // After `BatchFull` the shard's epoch has no spare
                    // read-batch budget left; a twin stamped into the same
                    // congested epoch would replay straight into the
                    // exhausted batches.  The shard's own retry rule lets
                    // the epoch roll over first, so the twin samples fresh
                    // capacity.
                    self.db.shards[shard].before_retry(&err);
                    if self.rebuild_twin(Some(shard)).is_err() {
                        break err;
                    }
                }
                Err(err) => break err,
            }
        };
        obs.counter(&format!("shard.{shard}.abort.{}", err.cause_label()))
            .inc();
        // The failing leg has aborted inside the shard; a partial
        // transaction must not survive on the others.
        self.abort_all();
        Err(err)
    }

    /// Reads `key` from the shard that owns it, recording the observation
    /// in the operation log.
    pub fn read(&mut self, key: Key) -> Result<Option<Value>> {
        let value = self.run_on_leg(key, false, |leg, key| leg.read(key))?;
        self.oplog.push(LoggedOp::Read(key, value.clone()));
        Ok(value)
    }

    /// Writes `key` on the shard that owns it, recording the write in the
    /// operation log.
    pub fn write(&mut self, key: Key, value: Value) -> Result<()> {
        self.run_on_leg(key, true, {
            let value = value.clone();
            move |leg, key| leg.write(key, value.clone())
        })?;
        self.oplog.push(LoggedOp::Write(key, value));
        Ok(())
    }

    /// Requests commit on every touched shard, waits for the coordinated
    /// epoch decision and returns it.
    ///
    /// The two-phase shape matters: commit is *requested* on every leg first
    /// (so all shards list the transaction as a candidate at the same epoch
    /// rendezvous), and only then are the outcomes collected.  The
    /// coordinator guarantees the legs agree — all commit in the same global
    /// epoch, or all abort.
    pub fn commit(mut self) -> Result<TxnOutcome> {
        self.commit_inner()
    }

    /// Commits like [`ShardedTxn::commit`] but also reports the id the
    /// transaction finally serialized under.
    ///
    /// A twin rebuild — mid-flight or inside the commit's own denied-vote
    /// retry loop — moves the transaction to a fresh timestamp, so an id
    /// sampled earlier can be stale by the time the decision lands.
    /// History-recording harnesses must order committed writers by their
    /// *actual* serialization point; this is the only way to learn it.
    pub fn commit_reported(mut self) -> Result<(TxnId, TxnOutcome)> {
        let outcome = self.commit_inner()?;
        Ok((self.primary.id, outcome))
    }

    fn commit_inner(&mut self) -> Result<TxnOutcome> {
        if self.finished {
            return Err(ObladiError::TxnAborted(
                "transaction already finished".into(),
            ));
        }
        self.finished = true;

        let shards_touched = self.primary.subs.iter().filter(|sub| sub.is_some()).count();

        // A transaction that touched nothing commits vacuously.
        if shards_touched == 0 {
            self.db.coordinator.machine().forget(self.primary.id);
            let outcome = TxnOutcome::Committed;
            self.db.record_outcome(&outcome, 0);
            return Ok(outcome);
        }

        let mut result = commit_plan(self.db, &mut self.primary);
        self.db.coordinator.machine().forget(self.primary.id);

        // A denied vote most often means the final legs' rendezvous
        // contradicted the live epoch-set — typically a deciding epoch
        // whose decision sampled its candidates before this commit request
        // arrived.  The denial is authoritative and all-or-nothing, so the
        // plan's fate is settled; but the *transaction* may still be
        // salvageable: rebuild it as a twin epoch-set (replaying the log,
        // validating every observed read) and drive the twin's two-phase
        // commit at its own rendezvous instead of surfacing a liveness
        // abort to the client.  A real conflict makes the replay diverge,
        // so genuine aborts still surface.
        while matches!(&result, Ok(outcome) if !outcome.is_committed())
            && self.rebuilds < Self::TWIN_REBUILDS
        {
            self.rebuilds += 1;
            if self.rebuild_twin(None).is_err() {
                break;
            }
            result = commit_plan(self.db, &mut self.primary);
            self.db.coordinator.machine().forget(self.primary.id);
        }

        match result {
            Ok(outcome) => {
                self.db.record_outcome(&outcome, shards_touched);
                Ok(outcome)
            }
            Err(err) => {
                self.db
                    .record_outcome(&TxnOutcome::Aborted(AbortReason::EpochEnd), shards_touched);
                Err(err)
            }
        }
    }

    /// Aborts the transaction on every shard it touched.
    pub fn rollback(mut self) {
        self.abort_all();
    }
}

impl KvTransaction for ShardedTxn<'_> {
    fn read(&mut self, key: Key) -> Result<Option<Value>> {
        ShardedTxn::read(self, key)
    }

    fn write(&mut self, key: Key, value: Value) -> Result<()> {
        ShardedTxn::write(self, key, value)
    }

    fn id(&self) -> u64 {
        self.primary.id
    }
}

impl Drop for ShardedTxn<'_> {
    fn drop(&mut self) {
        self.abort_all();
    }
}

/// Drives one leg plan's two-phase commit against the coordinated epoch
/// decision.
///
/// Phase 1 registers the commit request on every leg inside a commit-intake
/// window, so the whole burst is atomic with respect to the coordinator's
/// epoch decision (no decision can observe half of it).  A request failure
/// means the leg already aborted (conflict, cascading abort, crash); the
/// gate will then deny the transaction everywhere, so the remaining
/// outcomes are still collected to unpark cleanly before the error is
/// returned.
///
/// Phase 2 collects the coordinated outcomes.  The authoritative record of
/// a cross-shard fate is the coordinator's decision log: a leg can only
/// report `Committed` if the transaction was permitted, and the permit is
/// all-or-nothing across shards, so any committed leg — or a still-pending
/// commit decision, which covers the case where *every* participating leg
/// crashed after the decision — means the transaction is (or will be, once
/// recovery replays the durable prepares) committed everywhere.  Reporting
/// an abort in those cases would be the lie.
fn commit_plan<'db>(db: &'db ShardedDb, plan: &mut LegPlan<'db>) -> Result<TxnOutcome> {
    let legs: Vec<(usize, ObladiTxn<'db>)> = plan
        .subs
        .iter_mut()
        .enumerate()
        .filter_map(|(index, sub)| sub.take().map(|sub| (index, sub)))
        .collect();

    let mut request_error: Option<ObladiError> = None;
    let mut awaiting = Vec::with_capacity(legs.len());
    {
        let _intake = db.coordinator.begin_commit_intake();
        for (index, mut leg) in legs {
            match leg.request_commit() {
                Ok(()) => awaiting.push((index, leg)),
                Err(err) => {
                    obladi_obs::global()
                        .counter(&format!("shard.{index}.abort.{}", err.cause_label()))
                        .inc();
                    request_error = Some(match err {
                        ObladiError::TxnAborted(reason) => {
                            ObladiError::TxnAborted(format!("shard {index}: {reason}"))
                        }
                        other => other,
                    });
                }
            }
        }
    }

    let mut any_committed = false;
    let mut abort: Option<TxnOutcome> = None;
    for (_, leg) in awaiting {
        match leg.await_outcome()? {
            TxnOutcome::Committed => any_committed = true,
            aborted @ TxnOutcome::Aborted(_) => abort = Some(aborted),
        }
    }
    if let Some(err) = request_error {
        return Err(err);
    }
    if any_committed || db.coordinator.machine().was_committed(plan.id) {
        Ok(TxnOutcome::Committed)
    } else {
        Ok(abort.unwrap_or(TxnOutcome::Committed))
    }
}

/// Picks the epoch generation a leg on `shard` must open in so it decides
/// at its plan's fixed rendezvous (`class`), given the shard's sampled
/// target generations.
///
/// Class 0 — the shards' next rendezvous — composes with *every* shard: a
/// sealed shard contributes its deciding epoch, an unsealed one its
/// executing epoch.  Class 1 — the rendezvous after — joins only a sealed
/// shard's executing epoch, and `(1, None)` is its expected contradiction:
/// an unsealed shard offers no epoch deciding at that later rendezvous.  A
/// class-1 plan hitting that arm is not doomed — its opposite-class twin
/// (which composes) takes over via promotion, and only when no twin is
/// live does the error abort the transaction.  The typed
/// [`ObladiError::PipelineIncompatible`] — with the conflicting
/// generations attached — lets callers and tests tell this liveness
/// condition apart from real conflicts (and from capacity aborts).
pub fn select_leg_target(
    shard: usize,
    class: u8,
    exec_generation: u64,
    deciding_generation: Option<u64>,
) -> Result<u64> {
    match (class, deciding_generation) {
        (0, Some(deciding)) => Ok(deciding),
        (0, None) | (1, Some(_)) => Ok(exec_generation),
        _ => Err(ObladiError::PipelineIncompatible {
            shard,
            round_class: class,
            exec_generation,
            deciding_generation,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twin_replays_in_its_primarys_epoch_without_seeing_it() {
        // One-key batches 50 ms apart, 64 to an epoch: the test needs a
        // handful of batches, and neither shard rolls over within the
        // epoch's 3.2 s, so the twin replays in the very epoch its primary
        // read and wrote in.
        let mut config = ShardConfig::small_for_tests(2, 256);
        config.shard.epoch = config
            .shard
            .epoch
            .with_read_batches(64)
            .with_read_batch_size(1)
            .with_batch_interval(Duration::from_millis(50));
        let db = ShardedDb::open(config).unwrap();
        let on_shard = |shard| (0..).find(|&key| db.router().route(key) == shard).unwrap();
        let (a, b) = (on_shard(0), on_shard(1));
        let real_reads = || db.shard(0).stats().real_reads;
        let reads_before = real_reads();

        let mut txn = db.begin().unwrap();
        assert_eq!(txn.read(a).unwrap(), None);
        assert_eq!(txn.read(a).unwrap(), None);
        txn.write(a, vec![1]).unwrap();
        assert_eq!(txn.read(a).unwrap(), Some(vec![1]));
        let primary_id = txn.primary.id;
        // Trip a stale generation on shard 1 (see the test below): the
        // twin must replay past the primary's uncommitted write of `a`,
        // which only a primary discarded *before* the replay hides.
        txn.targets[1] = (u64::MAX, None);
        assert_eq!(
            txn.read(b).unwrap(),
            None,
            "the promoted twin serves the read"
        );
        assert!(
            txn.primary.id > primary_id,
            "the twin carries its own timestamp"
        );
        assert_eq!(
            txn.read(a).unwrap(),
            Some(vec![1]),
            "the twin reads its own write back"
        );
        assert!(
            real_reads() - reads_before <= 1,
            "MVTSO answers the replayed re-reads without another fetch"
        );
        txn.rollback();
        db.shutdown();
    }

    #[test]
    fn leg_targets_align_on_one_rendezvous() {
        // Class 0 composes with every shard: a sealed shard contributes its
        // deciding epoch, an unsealed one its executing epoch.
        assert_eq!(select_leg_target(0, 0, 7, Some(6)).unwrap(), 6);
        assert_eq!(select_leg_target(0, 0, 7, None).unwrap(), 7);
        // Class 1 needs the sealed shard's executing epoch.
        assert_eq!(select_leg_target(0, 1, 7, Some(6)).unwrap(), 7);
    }

    #[test]
    fn incompatible_phases_surface_as_a_typed_liveness_retry() {
        let err = select_leg_target(2, 1, 9, None).unwrap_err();
        match &err {
            ObladiError::PipelineIncompatible {
                shard,
                round_class,
                exec_generation,
                deciding_generation,
            } => {
                assert_eq!((*shard, *round_class), (2, 1));
                assert_eq!(*exec_generation, 9);
                assert_eq!(*deciding_generation, None);
            }
            other => panic!("expected PipelineIncompatible, got {other:?}"),
        }
        assert!(err.is_retryable(), "liveness retries must stay retryable");
        assert!(err.is_liveness_retry());
        // Real conflicts are NOT liveness retries.
        assert!(!ObladiError::TxnAborted("write-write conflict".into()).is_liveness_retry());
        let msg = err.to_string();
        assert!(
            msg.contains("shard 2") && msg.contains("generation 9"),
            "the conflicting generations must be in the message: {msg}"
        );
    }

    #[test]
    fn virgin_retry_restamps_with_freshly_sampled_targets() {
        let db = ShardedDb::open(ShardConfig::small_for_tests(2, 256)).unwrap();
        let mut setup = db.begin().unwrap();
        setup.write(7, vec![7]).unwrap();
        assert!(setup.commit().unwrap().is_committed());

        let mut txn = db.begin().unwrap();
        let stale_id = txn.primary.id;
        // Simulate the shard generations advancing out from under the
        // transaction between `begin` and its first operation: poison every
        // sampled target so the first leg-open trips the stale-generation
        // check.  The transparent restart must re-sample `stamp_targets`
        // fresh — re-deriving the leg plan from the poisoned generations
        // would fail the same way on every attempt.
        for target in &mut txn.targets {
            *target = (u64::MAX, None);
        }
        assert_eq!(
            txn.read(7).unwrap(),
            Some(vec![7]),
            "the restarted leg must serve the read"
        );
        assert!(
            txn.primary.id > stale_id,
            "restart must draw a fresh timestamp"
        );
        assert!(
            txn.targets.iter().all(|&(exec, _)| exec != u64::MAX),
            "restart must re-sample the shard targets, not reuse the stale ones"
        );
        assert!(txn.commit().unwrap().is_committed());
        db.shutdown();
    }
}
