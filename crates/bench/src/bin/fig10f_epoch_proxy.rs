//! Regenerates Figure 10f (epoch duration vs application throughput).

#![forbid(unsafe_code)]
fn main() {
    let opts = obladi_bench::BenchOpts::from_args();
    obladi_bench::fig10::run_fig10f(&opts);
    obladi_bench::harness::write_metrics_out(&opts);
}
