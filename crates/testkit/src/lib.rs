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
//! * [`trace`] — a [`obladi_oram::client::PathLogger`] that records the
//!   physical access trace the storage server observes, with helpers for
//!   the path-uniformity and bucket-invariant checks of §4/§9;
//! * [`stats`] — chi-square uniformity and total-variation distance used to
//!   compare adversary-visible traces across workloads;
//! * [`audit`] — the obliviousness oracle over `obladi_obs::audit`
//!   adversary-view traces: recording deployments, trace-shape reduction
//!   and the pairwise differential indistinguishability assertion;
//! * [`chaos`] — a crash-point injection harness for the epoch fate-sharing
//!   durability guarantee of §8;
//! * [`shard_chaos`] — a deterministic crash-schedule explorer for the
//!   sharded 2PC commit path: it enumerates every prepare/vote/commit
//!   interleaving crash point of a cross-shard transaction and checks
//!   all-or-nothing visibility plus serializability after recovery.
//!
//! Keeping these oracles in a dedicated crate keeps the system crates free
//! of test-only code while letting every test target (and the benches)
//! share one implementation of the checks.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod chaos;
pub mod history;
pub mod proc_chaos;
pub mod recorder;
pub mod shard_chaos;
pub mod stats;
pub mod trace;

pub use audit::{assert_trace_indistinguishable, cross_check, level_profile, recording_stores};
pub use chaos::{put_acknowledged, read_with_retries, run_script_with_crash, CrashRun};
pub use history::{
    check_serializable, parse_tag, tag_value, History, HistoryOp, SerializabilityReport, TxnRecord,
    Violation, WriteTag,
};
pub use proc_chaos::{proc_kill_schedule, run_proc_kill_case, ProcKillCase, ProcKillReport};
pub use recorder::{HistoryRecorder, TxnTrace};
pub use shard_chaos::{
    crash_schedule, cross_shard_pair, cross_shard_pair_through, hammer_pair_tagged,
    hammer_pair_tagged_observed, open_faulty_deployment, overlap_crash_schedule,
    run_overlap_crash_case, run_shard_crash_case, Expected, FaultyDeployment, OverlapCrashCase,
    OverlapCrashReport, PairAttempt, ShardCrashCase, ShardCrashReport,
};
pub use stats::{
    chi_square_critical, chi_square_uniform, is_plausibly_uniform, total_variation_distance,
};
pub use trace::{leaf_histogram_of, TraceRecorder};

/// Dumps the process-wide observability report to stderr, labelled with the
/// failing case.  The chaos harnesses call this the moment an invariant
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
        obladi_obs::report::render_trace_json(&obladi_obs::trace::global().events(), 0)
    );
}
