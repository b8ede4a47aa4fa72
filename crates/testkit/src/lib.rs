//! Test oracles and harnesses for the Obladi reproduction.
//!
//! This crate is not part of the system itself; it packages the machinery
//! the integration tests and benchmarks use to *judge* the system:
//!
//! * [`history`] — recorded transaction histories and a black-box
//!   serializability checker (Adya-style direct serialization graph with
//!   cycle detection), plus value-tagging helpers that make every write
//!   attributable to its writer;
//! * [`recorder`] — thread-safe collection of per-transaction traces from
//!   concurrent client threads;
//! * [`stats`] — chi-square uniformity and total-variation distance used to
//!   compare adversary-visible traces across workloads;
//! * [`audit`] — the obliviousness oracle over `obladi_obs::audit`
//!   adversary-view traces, the one recorder of what the storage server
//!   sees: recording deployments and split clients, trace-shape reduction,
//!   the pairwise differential indistinguishability assertion, and the
//!   path-uniformity and bucket-invariant checks of §4/§9;
//! * [`chaos`] — the one fault schedule and the one case runner for the
//!   epoch fate-sharing guarantee of §8: every named crash point of the
//!   sharded 2PC commit path, the pipelined epoch overlap and the spawned
//!   storage daemons, driven through one sequence and judged by
//!   all-or-nothing visibility, acknowledged-implies-durable, recovery
//!   idempotence and serializability; plus the single-proxy script runner.
//!
//! Keeping these oracles in a dedicated crate keeps the system crates free
//! of test-only code while letting every test target (and the benches)
//! share one implementation of the checks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod chaos;
pub mod history;
pub mod recorder;
pub mod stats;

pub use audit::{cross_check, level_profile, recording_stores};
pub use chaos::{
    commit_with_retries, cross_shard_pair, put_acknowledged, read_with_retries, run_case,
    run_script_with_crash, schedule, CaseReport, CrashRun, Expected, Fault, FaultCase, Load,
};
pub use history::{
    check_serializable, parse_tag, tag_value, History, HistoryOp, SerializabilityReport, TxnRecord,
    Violation, WriteTag,
};
pub use recorder::{HistoryRecorder, TxnTrace};
pub use stats::{
    chi_square_critical, chi_square_uniform, is_plausibly_uniform, total_variation_distance,
};

/// Dumps the process-wide observability report to stderr, labelled with the
/// failing case.  The chaos runner calls this the moment an invariant
/// breaks, so a failing sweep ships its own diagnosis: phase timings,
/// abort-cause counters and the trace tail of the epochs leading into the
/// crash.
pub fn dump_obs_report(context: &str) {
    eprintln!("--- obs report at failure: {context} ---");
    eprintln!("{}", obladi_obs::report());
    // The text report shows only the trace tail's summary; the full ring
    // as JSON makes the failing run's phase sequence machine-grepable.
    eprintln!("--- span trace (json): {context} ---");
    eprintln!(
        "{}",
        obladi_obs::report::render_trace_json(&obladi_obs::trace::global().events())
    );
}
