//! Runs the storage-transport sweep: in-process trait-object storage vs
//! remote-socket storage (spawned `obladi-stored` daemons where the binary
//! is available), across two YCSB mixes, recording epoch throughput and
//! the client-side pipelining ratio.  Writes `BENCH_transport.json`.

#![forbid(unsafe_code)]
fn main() {
    let opts = obladi_bench::BenchOpts::from_args();
    obladi_bench::fig_transport::run_fig_transport(&opts);
    obladi_bench::harness::write_metrics_out(&opts);
}
