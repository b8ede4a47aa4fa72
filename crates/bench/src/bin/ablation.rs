//! Runs the ablation table over Obladi's proxy mechanisms (see
//! `obladi_bench::ablation`, and `DESIGN.md`, "Proxy mechanisms", for what
//! each one does).

#![forbid(unsafe_code)]
fn main() {
    let opts = obladi_bench::BenchOpts::from_args();
    obladi_bench::ablation::run_ablation(&opts);
    obladi_bench::harness::write_metrics_out(&opts);
}
