//! Benchmark harness reproducing the tables and figures of §11.
//!
//! Each figure of the paper's evaluation has a module and a thin binary:
//! `fig09_apps`, `fig10a_parallelism` to `fig10f_epoch_proxy`,
//! `fig11a_checkpoint`, `fig11b_recovery` and `ablation` print the rows /
//! series the paper reports, and `all_experiments` runs them all;
//! `fig_shard_pipeline` and `fig_obs_overhead` measure the sharded pipeline
//! and the metrics cost.  The numbers of record are `perf`'s
//! (`src/bin/perf/`, contract in `BENCHMARK.json`), logged in `ROADMAP.md`.
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
pub mod harness;
pub mod obs_overhead;
pub mod opts;
pub mod profiles;

pub use harness::{print_header, print_row};
pub use opts::BenchOpts;
