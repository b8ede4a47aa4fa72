//! Regenerates Figure 10a (ORAM parallelism).

#![forbid(unsafe_code)]
fn main() {
    let opts = obladi_bench::BenchOpts::from_args();
    obladi_bench::fig10::run_fig10a(&opts);
    obladi_bench::harness::write_metrics_out(&opts);
}
