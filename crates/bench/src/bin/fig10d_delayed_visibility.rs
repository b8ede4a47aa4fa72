//! Regenerates Figure 10d (delayed visibility / buffered write-back).

#![forbid(unsafe_code)]
fn main() {
    let opts = obladi_bench::BenchOpts::from_args();
    obladi_bench::fig10::run_fig10d(&opts);
    obladi_bench::harness::write_metrics_out(&opts);
}
