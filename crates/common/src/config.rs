//! Configuration structures mirroring Table 1 of the paper.
//!
//! | Symbol   | Meaning                                   |
//! |----------|-------------------------------------------|
//! | `N`      | Number of real objects                    |
//! | `Z`      | Number of real slots per bucket           |
//! | `S`      | Number of dummy slots per bucket          |
//! | `A`      | Frequency of `evict_path` (every A ops)   |
//! | `L`      | Number of levels in the ORAM tree         |
//! | `R`      | Number of read batches per epoch          |
//! | `b_read` | Size of a read batch                      |
//! | `b_write`| Size of the write batch                   |
//! | `Δ`      | Batch frequency                           |
//!
//! The evaluation of the paper runs Ring ORAM with `Z = 100`, `S = 196`,
//! `A = 168` and trees of 7 / 11 / 14 levels for 10K / 100K / 1M objects.
//! [`OramConfig::for_capacity`] reproduces those choices from `N` and `Z`
//! using the analytical model of the Ring ORAM paper (`S ≈ 2Z - 4`,
//! `A ≈ 1.68 Z`, smallest tree whose total real capacity covers `N`).

use crate::error::{ObladiError, Result};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Bits of a sealed slot's MAC location that hold its physical slot index;
/// the bucket id sits above them (`(bucket << 12) | slot`).  The layout is
/// frozen — every slot on storage is MACed under it — so instead of
/// widening it [`OramConfig::validate`] bounds `Z + S` by what it can tell
/// apart: with more, slot 4096 of bucket `b` would share a location with
/// slot 0 of bucket `b + 1` and a malicious store could swap the two
/// undetected.
pub const SLOT_LOCATION_BITS: u32 = 12;

/// Which simulated storage backend the evaluation harness should use.
///
/// These correspond to the four backends of §11.2: a `dummy` backend that
/// stores nothing, a local in-memory server (0.3 ms ping), a WAN server
/// (10 ms ping) and a DynamoDB-like service (1 ms reads, 3 ms writes,
/// blocking client calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// Local dummy storage: returns a static block, ignores writes.
    Dummy,
    /// Remote in-memory hashmap reachable with ~0.3 ms round trips.
    Server,
    /// Remote in-memory hashmap reachable with ~10 ms round trips.
    ServerWan,
    /// DynamoDB-like cloud store: ~1 ms reads, ~3 ms writes, limited
    /// connection pool with blocking calls.
    Dynamo,
}

impl BackendKind {
    /// All backend kinds, in the order used by the paper's figures.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Dummy,
        BackendKind::Server,
        BackendKind::ServerWan,
        BackendKind::Dynamo,
    ];

    /// Human-readable name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Dummy => "dummy",
            BackendKind::Server => "server",
            BackendKind::ServerWan => "server WAN",
            BackendKind::Dynamo => "dynamo",
        }
    }
}

/// Ring ORAM tree parameters (§4 and Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OramConfig {
    /// `N`: number of real objects the tree must hold.
    pub num_objects: u64,
    /// `Z`: real slots per bucket.
    pub z: u32,
    /// `S`: dummy slots per bucket.
    pub s: u32,
    /// `A`: an `evict_path` is performed every `A` logical accesses.
    pub a: u32,
    /// `L`: number of levels in the tree (a tree with `L` levels has
    /// `2^(L-1)` leaves and `2^L - 1` buckets).
    pub levels: u32,
    /// Size in bytes of each value block stored in the ORAM.
    pub block_size: usize,
    /// Maximum number of blocks the stash may hold before the client
    /// reports [`ObladiError::StashOverflow`]. Also the size to which the
    /// stash is padded when checkpointed for durability (§8).
    pub max_stash: usize,
}

impl OramConfig {
    /// Derives a configuration for `num_objects` real objects with `z` real
    /// slots per bucket, following the analytical model used by the paper.
    ///
    /// # Examples
    ///
    /// ```
    /// use obladi_common::config::OramConfig;
    /// let cfg = OramConfig::for_capacity(100_000, 100);
    /// assert_eq!(cfg.z, 100);
    /// assert_eq!(cfg.s, 196);
    /// assert_eq!(cfg.a, 168);
    /// ```
    pub fn for_capacity(num_objects: u64, z: u32) -> Self {
        let z = z.max(1);
        // The Ring ORAM analytical model: S close to 2Z keeps early
        // reshuffles rare, A close to 1.68 Z keeps the stash bounded.  For
        // Z = 100 these give exactly the paper's S = 196, A = 168.
        let s = (2 * z).saturating_sub(4).max(1);
        let a = (((z as f64) * 1.68).round() as u32).max(1);
        let levels = Self::levels_for(num_objects, z);
        OramConfig {
            num_objects,
            z,
            s,
            a,
            levels,
            block_size: 128,
            max_stash: Self::default_max_stash(z),
        }
    }

    /// Small configuration convenient for unit tests: tiny buckets, frequent
    /// evictions, generous stash.
    pub fn small_for_tests(num_objects: u64) -> Self {
        let mut cfg = OramConfig::for_capacity(num_objects, 4);
        cfg.block_size = 32;
        cfg.max_stash = 512;
        cfg
    }

    /// Overrides the number of tree levels (the paper uses 7 / 11 / 14 for
    /// 10K / 100K / 1M objects).
    pub fn with_levels(mut self, levels: u32) -> Self {
        self.levels = levels.max(1);
        self
    }

    /// Overrides the block size in bytes.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size.max(1);
        self
    }

    /// Overrides the maximum stash size.
    pub fn with_max_stash(mut self, max_stash: usize) -> Self {
        self.max_stash = max_stash.max(1);
        self
    }

    /// Number of leaves of the tree (`2^(levels - 1)`).
    pub fn num_leaves(&self) -> u64 {
        1u64 << (self.levels - 1)
    }

    /// Total number of buckets (`2^levels - 1`).
    pub fn num_buckets(&self) -> u64 {
        (1u64 << self.levels) - 1
    }

    /// Number of slots per bucket (`Z + S`).
    pub fn slots_per_bucket(&self) -> u32 {
        self.z + self.s
    }

    /// Total real-slot capacity of the tree.
    pub fn capacity(&self) -> u64 {
        self.num_buckets() * self.z as u64
    }

    /// Validates that the configuration is internally consistent.
    pub fn validate(&self) -> Result<()> {
        if self.z == 0 {
            return Err(ObladiError::Config("Z must be at least 1".into()));
        }
        if self.s == 0 {
            return Err(ObladiError::Config("S must be at least 1".into()));
        }
        if self.a == 0 {
            return Err(ObladiError::Config("A must be at least 1".into()));
        }
        if self.levels == 0 || self.levels > 40 {
            return Err(ObladiError::Config(format!(
                "levels must be in 1..=40, got {}",
                self.levels
            )));
        }
        if self.capacity() < self.num_objects {
            return Err(ObladiError::Config(format!(
                "tree capacity {} cannot hold {} objects",
                self.capacity(),
                self.num_objects
            )));
        }
        if self.block_size == 0 {
            return Err(ObladiError::Config("block size must be non-zero".into()));
        }
        let slots = self.z as u64 + self.s as u64;
        if slots > 1 << SLOT_LOCATION_BITS {
            return Err(ObladiError::Config(format!(
                "Z + S = {slots} slots per bucket exceeds the {} a slot's MAC location can tell \
                 apart",
                1u64 << SLOT_LOCATION_BITS
            )));
        }
        Ok(())
    }

    /// Smallest number of levels whose real capacity covers `num_objects`.
    fn levels_for(num_objects: u64, z: u32) -> u32 {
        let mut levels = 1u32;
        while ((1u64 << levels) - 1) * z as u64 <= num_objects {
            levels += 1;
            if levels >= 40 {
                break;
            }
        }
        levels.max(2)
    }

    /// Default stash bound: the Ring ORAM analysis bounds the stash by a
    /// small multiple of Z plus a logarithmic term; we keep a comfortable
    /// margin because the stash is padded to this size when checkpointed.
    fn default_max_stash(z: u32) -> usize {
        (4 * z as usize).max(64)
    }
}

/// Epoch and batching parameters of the proxy (§6, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochConfig {
    /// `R`: number of read batches per epoch.
    pub read_batches: u32,
    /// `b_read`: number of logical slots in each read batch (padded with
    /// dummy requests when not full).
    pub read_batch_size: usize,
    /// `b_write`: number of logical slots in the single write batch.
    pub write_batch_size: usize,
    /// `Δ`: interval at which read batches are shipped to the ORAM
    /// executor when the proxy is driven by a timer.
    pub batch_interval: Duration,
    /// Number of worker threads per half of the parallel ORAM executor
    /// (read plane, write-back engine).  They overlap the round trips of a
    /// store that waits (a socket, a latency model); over an in-memory
    /// store each half runs on its caller (the epoch executor, the
    /// decider) and no worker is spawned.
    pub executor_threads: usize,
    /// How many epochs between full (rather than delta) checkpoints of the
    /// proxy metadata (Figure 11a sweeps this value).
    pub checkpoint_every: u32,
    /// Whether durability logging (path logs + checkpoints) is enabled.
    pub durability: bool,
    /// Epoch pipeline depth: how many epochs may be in flight on the proxy
    /// at once.  `1` finalises each epoch to durability before the next
    /// epoch's read batches start (the stop-the-world barrier); `2` lets
    /// epoch `N+1` execute its read batches while epoch `N`'s commit
    /// decision and write-back are still in flight (reads of keys the
    /// deciding epoch wrote are pinned to the pre-decision snapshot until
    /// the decision publishes).  Depths beyond 2 are not supported.
    pub pipeline_depth: u32,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            read_batches: 4,
            read_batch_size: 64,
            write_batch_size: 64,
            batch_interval: Duration::from_millis(5),
            executor_threads: 8,
            checkpoint_every: 16,
            durability: true,
            pipeline_depth: 2,
        }
    }
}

impl EpochConfig {
    /// An epoch configuration sized for OLTP-style workloads: many short
    /// transactions, a large write batch (the TPC-C configuration in §11.1
    /// uses a write batch of 2000).
    pub fn oltp() -> Self {
        EpochConfig {
            read_batches: 8,
            read_batch_size: 500,
            write_batch_size: 2000,
            batch_interval: Duration::from_millis(10),
            executor_threads: 16,
            checkpoint_every: 16,
            durability: true,
            pipeline_depth: 2,
        }
    }

    /// A small configuration for unit tests: tiny batches so epoch-overflow
    /// paths are easy to exercise, no timer dependence.
    pub fn small_for_tests() -> Self {
        EpochConfig {
            read_batches: 3,
            read_batch_size: 8,
            write_batch_size: 8,
            batch_interval: Duration::from_millis(1),
            executor_threads: 2,
            checkpoint_every: 4,
            durability: true,
            pipeline_depth: 2,
        }
    }

    /// Total number of logical read slots in an epoch (`R * b_read`).
    pub fn reads_per_epoch(&self) -> usize {
        self.read_batches as usize * self.read_batch_size
    }

    /// Upper bound on the position-map entries, and on the stash blocks,
    /// that can change between two consecutive checkpoints; used to pad
    /// checkpoint deltas (§8, Optimizations).  One epoch writes between two
    /// publishes of the ORAM client, but at depth 2 the read batches of two
    /// land.
    pub fn max_position_delta(&self) -> usize {
        self.pipeline_depth as usize * self.reads_per_epoch() + self.write_batch_size
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.read_batches == 0 {
            return Err(ObladiError::Config("R must be at least 1".into()));
        }
        if self.read_batch_size == 0 || self.write_batch_size == 0 {
            return Err(ObladiError::Config("batch sizes must be at least 1".into()));
        }
        if self.executor_threads == 0 {
            return Err(ObladiError::Config(
                "executor needs at least one thread".into(),
            ));
        }
        if self.checkpoint_every == 0 {
            return Err(ObladiError::Config(
                "checkpoint_every must be at least 1".into(),
            ));
        }
        if self.pipeline_depth == 0 || self.pipeline_depth > 2 {
            return Err(ObladiError::Config(format!(
                "pipeline_depth must be 1 or 2, got {}",
                self.pipeline_depth
            )));
        }
        Ok(())
    }

    /// Sets the number of read batches.
    pub fn with_read_batches(mut self, r: u32) -> Self {
        self.read_batches = r;
        self
    }

    /// Sets the read batch size.
    pub fn with_read_batch_size(mut self, b: usize) -> Self {
        self.read_batch_size = b;
        self
    }

    /// Sets the write batch size.
    pub fn with_write_batch_size(mut self, b: usize) -> Self {
        self.write_batch_size = b;
        self
    }

    /// Sets the batch interval.
    pub fn with_batch_interval(mut self, d: Duration) -> Self {
        self.batch_interval = d;
        self
    }

    /// Sets the number of executor threads.
    pub fn with_executor_threads(mut self, t: usize) -> Self {
        self.executor_threads = t;
        self
    }

    /// Enables or disables durability logging.
    pub fn with_durability(mut self, on: bool) -> Self {
        self.durability = on;
        self
    }

    /// Sets the full-checkpoint frequency.
    pub fn with_checkpoint_every(mut self, n: u32) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// Sets the epoch pipeline depth (1 = barrier, 2 = overlapped).
    pub fn with_pipeline_depth(mut self, depth: u32) -> Self {
        self.pipeline_depth = depth;
        self
    }
}

/// Top-level configuration combining the ORAM tree, the epoch machinery and
/// the storage backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObladiConfig {
    /// Ring ORAM parameters.
    pub oram: OramConfig,
    /// Epoch / batching parameters.
    pub epoch: EpochConfig,
    /// Which latency profile the storage backend simulates.
    pub backend: BackendKind,
    /// Scale factor applied to simulated latencies (1.0 = the paper's
    /// values; smaller values make benches faster without changing shape).
    pub latency_scale: f64,
    /// Seed for all randomness, making runs reproducible.
    pub seed: u64,
}

impl ObladiConfig {
    /// A configuration suitable for unit and integration tests.
    pub fn small_for_tests(num_objects: u64) -> Self {
        ObladiConfig {
            oram: OramConfig::small_for_tests(num_objects),
            epoch: EpochConfig::small_for_tests(),
            backend: BackendKind::Server,
            latency_scale: 0.0,
            seed: 0xB1AD_1234,
        }
    }

    /// Validates all nested configurations.
    pub fn validate(&self) -> Result<()> {
        self.oram.validate()?;
        self.epoch.validate()?;
        if !(0.0..=100.0).contains(&self.latency_scale) {
            return Err(ObladiError::Config(format!(
                "latency_scale must be in [0, 100], got {}",
                self.latency_scale
            )));
        }
        Ok(())
    }
}

impl Default for ObladiConfig {
    fn default() -> Self {
        ObladiConfig {
            oram: OramConfig::for_capacity(100_000, 100),
            epoch: EpochConfig::default(),
            backend: BackendKind::Server,
            latency_scale: 1.0,
            seed: 42,
        }
    }
}

/// Where a sharded deployment's untrusted storage servers live.
///
/// Obladi's trust model is a trusted proxy talking to *untrusted cloud
/// storage across a network* (§5).  The reproduction can host that storage
/// three ways, trading fidelity against convenience:
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StorageBackend {
    /// Storage lives in the proxy's own process as a trait object (the
    /// seed deployment shape).  Fastest, but the proxy↔storage boundary is
    /// only a trait, not a trust boundary.
    InProcess,
    /// Each shard's storage is an `obladi-stored` daemon process the
    /// deployment spawns, supervises and (on request) kills and respawns.
    /// Requests cross a Unix-domain socket with framed, pipelined RPC —
    /// the first real multi-machine-shaped boundary.
    RemoteSpawned,
    /// Each shard's storage is an already-running daemon at the given
    /// address (`unix:/path/to.sock` or `tcp:host:port`); one address per
    /// shard.  The deployment connects but does not supervise.
    RemoteAddr(Vec<String>),
}

impl StorageBackend {
    /// Human-readable name for logs and benchmark rows.
    pub fn name(&self) -> &'static str {
        match self {
            StorageBackend::InProcess => "in-process",
            StorageBackend::RemoteSpawned => "remote-spawned",
            StorageBackend::RemoteAddr(_) => "remote-addr",
        }
    }
}

/// Configuration of a sharded deployment: `shards` fully independent
/// proxy+ORAM pipelines behind one transactional front door (`obladi-shard`).
///
/// Each shard runs its own copy of the `shard` template configuration over
/// its own storage backend; only the seed is re-derived per shard so the
/// shards' ORAM permutations and leaf assignments are independent.  Keys are
/// placed by a keyed hash of the logical key, so the key space splits
/// uniformly and placement reveals nothing about the workload beyond what a
/// uniform random assignment would.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Number of independent shards (`>= 1`).
    pub shards: usize,
    /// Per-shard proxy configuration template.
    ///
    /// `shard.oram.num_objects` is the capacity of *one* shard, so a
    /// deployment holds `shards * num_objects` objects in total.
    pub shard: ObladiConfig,
    /// Where the shards' untrusted storage servers live.
    pub storage: StorageBackend,
    /// Watchdog deadline for the cross-shard epoch barrier: a shard parked
    /// at the rendezvous longer than this dumps barrier diagnostics to
    /// stderr and converts the park into a typed, retryable
    /// `BarrierStalled` error instead of hanging forever.  Generous by
    /// default — it should only ever fire on a genuine liveness bug (a dead
    /// shard that was never marked dead, a deadlocked prepare), never on a
    /// merely slow epoch.
    pub barrier_watchdog: Duration,
}

impl ShardConfig {
    /// A sharded configuration suitable for unit and integration tests:
    /// `shards` shards, each sized for `objects_per_shard` objects.
    pub fn small_for_tests(shards: usize, objects_per_shard: u64) -> Self {
        ShardConfig {
            shards,
            shard: ObladiConfig::small_for_tests(objects_per_shard),
            storage: StorageBackend::InProcess,
            barrier_watchdog: Duration::from_secs(15),
        }
    }

    /// Derives the configuration of shard `index`: the template with a
    /// per-shard seed (so randomness streams are independent across shards).
    pub fn shard_config(&self, index: usize) -> ObladiConfig {
        let mut config = self.shard.clone();
        // SplitMix64-style mixing keeps per-shard seeds independent even for
        // adjacent indices.
        let mut x = (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        config.seed = self.shard.seed ^ x;
        config
    }

    /// Sets the storage backend placement.
    pub fn with_storage(mut self, storage: StorageBackend) -> Self {
        self.storage = storage;
        self
    }

    /// Validates the shard count and the per-shard template.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(ObladiError::Config(
                "a sharded deployment needs at least one shard".into(),
            ));
        }
        if self.shards > 4096 {
            return Err(ObladiError::Config(format!(
                "shard count {} is implausibly large (max 4096)",
                self.shards
            )));
        }
        if let StorageBackend::RemoteAddr(addrs) = &self.storage {
            if addrs.len() != self.shards {
                return Err(ObladiError::Config(format!(
                    "{} storage addresses supplied for {} shards",
                    addrs.len(),
                    self.shards
                )));
            }
        }
        if self.barrier_watchdog.is_zero() {
            return Err(ObladiError::Config(
                "barrier_watchdog must be non-zero".into(),
            ));
        }
        self.shard.validate()
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            shard: ObladiConfig::default(),
            storage: StorageBackend::InProcess,
            barrier_watchdog: Duration::from_secs(30),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_are_reproduced() {
        let cfg = OramConfig::for_capacity(100_000, 100);
        assert_eq!(cfg.z, 100);
        assert_eq!(cfg.s, 196);
        assert_eq!(cfg.a, 168);
        // Paper: 10K objects -> 7 levels, 1M -> 14 levels.
        assert_eq!(OramConfig::for_capacity(10_000, 100).levels, 7);
        assert_eq!(OramConfig::for_capacity(1_000_000, 100).levels, 14);
    }

    #[test]
    fn tree_geometry_is_consistent() {
        let cfg = OramConfig::for_capacity(10_000, 100);
        assert_eq!(cfg.num_buckets(), (1 << cfg.levels) - 1);
        assert_eq!(cfg.num_leaves() * 2 - 1, cfg.num_buckets());
        assert!(cfg.capacity() >= cfg.num_objects);
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut cfg = OramConfig::for_capacity(1000, 4);
        cfg.z = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = OramConfig::for_capacity(1000, 4);
        cfg.levels = 1;
        assert!(cfg.validate().is_err(), "capacity too small must fail");

        // Slot 4096 would MAC under the next bucket's slot 0.
        let mut cfg = OramConfig::for_capacity(1000, 4);
        (cfg.z, cfg.s) = (100, 3996);
        cfg.validate().expect("4096 slots are slots 0..=4095");
        cfg.s += 1;
        assert!(cfg.validate().is_err(), "slot 4096 aliases the next bucket");
        (cfg.z, cfg.s) = (u32::MAX, u32::MAX);
        assert!(cfg.validate().is_err(), "the sum must not wrap");

        let mut cfg = EpochConfig::small_for_tests();
        cfg.read_batches = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ObladiConfig::small_for_tests(100);
        cfg.latency_scale = -1.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn epoch_capacity_helpers() {
        let cfg = EpochConfig::default()
            .with_read_batches(5)
            .with_read_batch_size(10)
            .with_write_batch_size(7);
        assert_eq!(cfg.reads_per_epoch(), 50);
        assert_eq!(cfg.pipeline_depth, 2);
        assert_eq!(cfg.max_position_delta(), 107);
        assert_eq!(cfg.with_pipeline_depth(1).max_position_delta(), 57);
    }

    #[test]
    fn small_test_configs_validate() {
        ObladiConfig::small_for_tests(500).validate().unwrap();
        EpochConfig::oltp().validate().unwrap();
        ObladiConfig::default().validate().unwrap();
    }

    #[test]
    fn shard_config_validates_and_derives_distinct_seeds() {
        let cfg = ShardConfig::small_for_tests(4, 256);
        cfg.validate().unwrap();
        let seeds: std::collections::HashSet<u64> =
            (0..4).map(|i| cfg.shard_config(i).seed).collect();
        assert_eq!(seeds.len(), 4, "per-shard seeds must be distinct");

        let mut bad = cfg.clone();
        bad.shards = 0;
        assert!(bad.validate().is_err());
        let mut bad = cfg.clone();
        bad.barrier_watchdog = Duration::ZERO;
        assert!(bad.validate().is_err(), "zero watchdog must fail");
        ShardConfig::default().validate().unwrap();
    }

    #[test]
    fn storage_backend_validates_address_count() {
        let cfg = ShardConfig::small_for_tests(2, 256)
            .with_storage(StorageBackend::RemoteAddr(vec!["unix:/tmp/a.sock".into()]));
        assert!(cfg.validate().is_err(), "one address for two shards");
        let cfg = ShardConfig::small_for_tests(1, 256)
            .with_storage(StorageBackend::RemoteAddr(vec!["unix:/tmp/a.sock".into()]));
        cfg.validate().unwrap();
        assert_eq!(StorageBackend::InProcess.name(), "in-process");
        assert_eq!(StorageBackend::RemoteSpawned.name(), "remote-spawned");
    }

    #[test]
    fn backend_names_match_paper_legends() {
        assert_eq!(BackendKind::Dummy.name(), "dummy");
        assert_eq!(BackendKind::ServerWan.name(), "server WAN");
        assert_eq!(BackendKind::ALL.len(), 4);
    }
}
