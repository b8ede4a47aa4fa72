//! Regenerates Figure 10c (batch size vs latency).

#![forbid(unsafe_code)]
fn main() {
    let opts = obladi_bench::BenchOpts::from_args();
    obladi_bench::fig10::run_fig10bc(&opts, true);
    obladi_bench::harness::write_metrics_out(&opts);
}
