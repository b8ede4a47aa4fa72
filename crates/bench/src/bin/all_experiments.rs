//! Runs every figure and table of the evaluation in sequence.

#![forbid(unsafe_code)]
fn main() {
    let opts = obladi_bench::BenchOpts::from_args();
    println!("# Obladi reproduction — full evaluation run");
    println!("# mode: {}", if opts.full { "full" } else { "quick" });
    obladi_bench::fig10::run_fig10a(&opts);
    obladi_bench::fig10::run_fig10bc(&opts, false);
    obladi_bench::fig10::run_fig10bc(&opts, true);
    obladi_bench::fig10::run_fig10d(&opts);
    obladi_bench::fig10::run_fig10e(&opts);
    obladi_bench::fig11::run_fig11a(&opts);
    obladi_bench::fig11::run_fig11b(&opts);
    obladi_bench::fig09::run_fig09(&opts);
    obladi_bench::fig10::run_fig10f(&opts);
    obladi_bench::ablation::run_ablation(&opts);
    obladi_bench::fig_shard::run_fig_shard(&opts);
    obladi_bench::harness::write_metrics_out(&opts);
}
