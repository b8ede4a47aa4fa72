//! Benchmark harness reproducing the tables and figures of §11.
//!
//! Each figure of the paper's evaluation has a corresponding module and a
//! thin binary wrapper (`cargo run -p obladi-bench --bin fig10a_parallelism`
//! etc.).  The binaries print the same rows / series the paper reports;
//! EXPERIMENTS.md at the repository root records a reference run next to the
//! paper's numbers.
//!
//! Runs are scaled so the default mode finishes in CI-sized time budgets:
//! simulated storage latencies are multiplied by [`BenchOpts::latency_scale`]
//! and table/tree sizes are reduced.  Pass `--full` for larger trees, longer
//! measurement windows and unscaled latencies; the *shape* of every result
//! (who wins, by how much, where crossovers happen) is preserved in both
//! modes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig_shard;
pub mod fig_trace_audit;
pub mod harness;
pub mod obs_overhead;
pub mod opts;
pub mod profiles;

pub use harness::{print_header, print_row};
pub use opts::BenchOpts;
