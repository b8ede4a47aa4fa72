//! Runs the pipelined-epoch-barrier sweep: barrier (depth 1) vs pipelined
//! (depth 2) global epoch period and throughput across storage latency
//! profiles, on a 3-shard deployment.  Records `BENCH_shard_pipeline.json`.

#![forbid(unsafe_code)]
fn main() {
    let opts = obladi_bench::BenchOpts::from_args();
    obladi_bench::fig_shard::run_fig_shard_pipeline(&opts);
}
