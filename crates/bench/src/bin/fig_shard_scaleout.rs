//! Runs the shard-count scale-out sweep (YCSB through the sharded front
//! door at 1 / 2 / 4 / 8 shards).

#![forbid(unsafe_code)]
fn main() {
    let opts = obladi_bench::BenchOpts::from_args();
    obladi_bench::fig_shard::run_fig_shard(&opts);
    obladi_bench::harness::write_metrics_out(&opts);
}
