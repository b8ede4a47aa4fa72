//! Regenerates Figure 10e (epoch size impact on the ORAM).

#![forbid(unsafe_code)]
fn main() {
    let opts = obladi_bench::BenchOpts::from_args();
    obladi_bench::fig10::run_fig10e(&opts);
    obladi_bench::harness::write_metrics_out(&opts);
}
