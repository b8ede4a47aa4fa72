//! Regenerates Figure 9 (application throughput and latency).

#![forbid(unsafe_code)]
fn main() {
    let opts = obladi_bench::BenchOpts::from_args();
    obladi_bench::fig09::run_fig09(&opts);
    obladi_bench::harness::write_metrics_out(&opts);
}
