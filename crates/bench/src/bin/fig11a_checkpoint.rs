//! Regenerates Figure 11a (checkpoint frequency vs throughput).

#![forbid(unsafe_code)]
fn main() {
    let opts = obladi_bench::BenchOpts::from_args();
    obladi_bench::fig11::run_fig11a(&opts);
    obladi_bench::harness::write_metrics_out(&opts);
}
