//! Benchmark harness reproducing the tables and figures of §11.
//!
//! Each figure of the paper's evaluation has a module and a thin binary:
//! `fig09_apps`, `fig10a_parallelism` to `fig10f_epoch_proxy`,
//! `fig11a_checkpoint`, `fig11b_recovery` and `ablation` print the rows /
//! series the paper reports, and `all_experiments` runs them all.  The
//! numbers of record are `perf`'s (`src/bin/perf/`, contract in
//! `BENCHMARK.json`), logged in `ROADMAP.md`; the pipeline's depth-parity,
//! commit-latency and metrics-cost gates are release-mode tests of the
//! facade crate (`tests/pipeline_gates.rs`, `tests/obs_overhead.rs`).
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
pub mod harness;
pub mod opts;

pub use harness::{print_header, print_row};
pub use opts::BenchOpts;
