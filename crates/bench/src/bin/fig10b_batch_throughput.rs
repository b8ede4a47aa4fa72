//! Regenerates Figure 10b (batch size vs throughput).

#![forbid(unsafe_code)]
fn main() {
    let opts = obladi_bench::BenchOpts::from_args();
    obladi_bench::fig10::run_fig10bc(&opts, false);
    obladi_bench::harness::write_metrics_out(&opts);
}
