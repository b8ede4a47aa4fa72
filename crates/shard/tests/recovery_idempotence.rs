//! Recovery idempotence for the durable cross-shard prepare protocol.
//!
//! Recovery itself can crash: the in-doubt replay writes buckets, appends a
//! checkpoint and an epoch-commit record, and any of those can fail.  The
//! protocol's answer is that the replay only becomes real atomically with
//! the epoch-commit record, so re-running recovery — after a failure at any
//! point of the replay — must converge to the same committed set as one
//! clean run.  This property test sweeps seeds, the victim side, and
//! whether a second crash is injected *during* the recovery replay: the
//! `commit-record-lost` and `replay-interrupted` cases of the one fault
//! schedule in `obladi_testkit::chaos`, whose runner re-crashes every case
//! once its 2PC decisions have retired and requires nothing in doubt and
//! the same state.

use obladi_testkit::chaos::{case, run_case};
use proptest::prelude::*;

/// Drives a cross-shard transaction into the voted-but-not-durable window
/// on the victim (commit record lost) and recovers — first through a crash
/// at the exact point where the replayed epoch would become durable, if
/// `crash_during_replay`.
fn run(seed: u64, victim_second: bool, crash_during_replay: bool) -> Result<(), String> {
    let family = ["commit-record-lost", "replay-interrupted"][usize::from(crash_during_replay)];
    let side = ["first", "second"][usize::from(victim_second)];
    let report =
        run_case(&case(&format!("{family}/{side}")), seed).map_err(|err| err.to_string())?;
    // The commit is acknowledged at decision durability, before the
    // epoch-commit append the trigger fires on; recovery must replay it.
    let replayed = report.tripped
        && report.acknowledged_commit
        && report.committed_visible
        && report.recovery.replayed_commits >= 1;
    let problem = || format!("expected an acknowledged commit replayed in doubt: {report:?}");
    replayed.then_some(()).ok_or_else(problem)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Running recovery twice — including a crash in the middle of the
    /// in-doubt replay — yields the same committed set as running it once.
    #[test]
    fn recovery_is_idempotent_across_replay_crashes(
        seed in 1u64..1_000,
        victim_second in any::<bool>(),
        crash_during_replay in any::<bool>(),
    ) {
        run(seed, victim_second, crash_during_replay).map_err(TestCaseError::fail)?;
    }
}

/// The deterministic worst case, pinned outside proptest so it always runs:
/// crash during the replay on both victim sides.
#[test]
fn interrupted_replay_converges_on_both_victim_sides() {
    for victim_second in [false, true] {
        run(77, victim_second, true)
            .unwrap_or_else(|problem| panic!("victim_second={victim_second}: {problem}"));
    }
}
