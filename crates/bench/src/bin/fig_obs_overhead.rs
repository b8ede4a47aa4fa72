//! Runs the observability-overhead cell: the same YCSB load with metrics
//! enabled vs disabled in interleaved best-of-N rounds, failing (non-zero
//! exit) if the enabled arm loses more than 1% throughput.

#![forbid(unsafe_code)]
fn main() {
    let opts = obladi_bench::BenchOpts::from_args();
    obladi_bench::obs_overhead::run_obs_overhead(&opts);
}
