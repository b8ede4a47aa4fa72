//! Adversary-view trace audit: runs contrasting workloads over recording
//! stores and requires their traces to be indistinguishable (the §9
//! obliviousness argument, made executable).  With `--mutate`, arms the
//! test-only dummy-pad leak and succeeds only if the auditor catches it.

#![forbid(unsafe_code)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mutate = args.iter().any(|arg| arg == "--mutate");
    let opts = obladi_bench::BenchOpts::from_args();
    if !obladi_bench::fig_trace_audit::run_fig_trace_audit(&opts, mutate) {
        std::process::exit(1);
    }
}
