//! The deployment the end-to-end gates share, so the obliviousness audit
//! and the pipeline gates measure one configuration.

use obladi_common::config::{ObladiConfig, ShardConfig};
use std::time::Duration;

/// Three shards under YCSB at pipeline `depth`.  64-byte YCSB values (plus
/// row framing) need 192-byte blocks, and the epoch batches must be large
/// enough to absorb the workload's load phase.
pub fn ycsb_shards(depth: u32) -> ShardConfig {
    let mut shard = ObladiConfig::small_for_tests(2_048);
    shard.oram.block_size = 192;
    shard.oram.max_stash = 4_096;
    shard.epoch.batch_interval = Duration::from_millis(1);
    shard.epoch.read_batches = 4;
    shard.epoch.read_batch_size = 32;
    shard.epoch.write_batch_size = 64;
    shard.epoch.pipeline_depth = depth;
    ShardConfig {
        shards: 3,
        shard,
        ..ShardConfig::default()
    }
}
