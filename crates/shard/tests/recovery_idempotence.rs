//! Recovery idempotence for the durable cross-shard prepare protocol.
//!
//! Recovery itself can crash: the in-doubt replay writes buckets, appends a
//! checkpoint and an epoch-commit record, and any of those can fail.  The
//! protocol's answer is that the replay only becomes real atomically with
//! the epoch-commit record, so re-running recovery — after a failure at any
//! point of the replay — must converge to the same committed set as one
//! clean run.  This property test sweeps seeds, the victim side, and
//! whether a second crash is injected *during* the recovery replay, reusing
//! the testkit's `shard_chaos` drive helpers.

use obladi_storage::wal::WalRecordKind;
use obladi_storage::{CrashOp, CrashPoint, FaultPlan};
use obladi_testkit::history::History;
use obladi_testkit::shard_chaos::{
    cross_shard_pair, open_faulty_deployment, read_pair, wait_for, write_pair_tagged,
};
use proptest::prelude::*;
use std::time::Duration;

fn run_case(seed: u64, victim_second: bool, crash_during_replay: bool) -> Result<(), String> {
    let deployment = open_faulty_deployment(seed).map_err(|e| format!("open failed: {e}"))?;
    let db = &deployment.db;
    let pair = cross_shard_pair(db);
    let victim = if victim_second {
        db.router().route(pair.1)
    } else {
        db.router().route(pair.0)
    };
    let fault = deployment.faults[victim].clone();
    let mut history = History::new();

    // Seed, then drive a cross-shard transaction into the voted-but-not-
    // durable window on the victim (commit record lost).
    write_pair_tagged(db, pair, &mut history, 100, &|| false)
        .ok_or_else(|| "failed to seed the pair".to_string())?;

    fault.set_plan(FaultPlan::crash_at(CrashPoint::after_log_kind(
        WalRecordKind::Prepare.tag(),
        CrashOp::LogAppendKind(WalRecordKind::EpochCommit.tag()),
        1,
    )));
    let stop_fault = fault.clone();
    let voted = write_pair_tagged(db, pair, &mut history, 100, &move || {
        stop_fault.has_tripped()
    });
    let voted = voted.ok_or_else(|| "voted transaction was not acknowledged".to_string())?;
    // The commit is acknowledged at decision durability — *before* the
    // epoch-commit append the trigger arms on — so the acknowledgement can
    // win the race against the trip; wait for the crash to land instead of
    // sampling the trigger at the instant of the ack.
    wait_for(
        "the victim shard to self-crash",
        Duration::from_secs(20),
        &|| db.is_shard_crashed(victim),
    )
    .map_err(|e| e.to_string())?;
    if !fault.has_tripped() {
        return Err("crash trigger never fired".into());
    }

    // First recovery — optionally crashed *during* the in-doubt replay, at
    // the exact point where the replayed epoch would become durable.
    if crash_during_replay {
        fault.set_plan(FaultPlan::crash_at(CrashPoint::on_log_kind(
            WalRecordKind::EpochCommit.tag(),
            1,
        )));
        if db.recover_shard(victim).is_ok() {
            return Err("recovery should have crashed during the replay".into());
        }
    }
    fault.set_plan(FaultPlan::none());
    let report = db
        .recover_shard(victim)
        .map_err(|e| format!("recovery failed: {e}"))?;
    if report.replayed_commits < 1 {
        return Err(format!("expected an in-doubt replay, got {report:?}"));
    }

    // The committed set after (possibly interrupted, then re-run) recovery:
    // the voted transaction's writes on both shards.
    let first = read_pair(db, pair, &mut history).map_err(|e| e.to_string())?;
    if first != (Some(voted.0.clone()), Some(voted.1.clone())) {
        return Err(format!("voted transaction incomplete: {first:?}"));
    }

    // Idempotence: recover again (clean crash, no faults) — same set.  The
    // reads above were cross-shard commits of their own, acknowledged at
    // their decision; let their epochs become durable first, or the crash
    // leaves *their* prepares in doubt.
    wait_for(
        "the read transactions' epochs to become durable",
        Duration::from_secs(20),
        &|| db.pending_decisions() == 0,
    )
    .map_err(|e| e.to_string())?;
    db.crash_shard(victim);
    let again = db
        .recover_shard(victim)
        .map_err(|e| format!("second recovery failed: {e}"))?;
    if again.in_doubt != 0 {
        return Err(format!(
            "nothing may remain in doubt after a durable replay: {again:?}"
        ));
    }
    let second = read_pair(db, pair, &mut history).map_err(|e| e.to_string())?;
    if second != first {
        return Err(format!(
            "recovery not idempotent: {first:?} then {second:?}"
        ));
    }
    db.shutdown();
    Ok(())
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
        if let Err(problem) = run_case(seed, victim_second, crash_during_replay) {
            return Err(TestCaseError::fail(problem));
        }
    }
}

/// The deterministic worst case, pinned outside proptest so it always runs:
/// crash during the replay on both victim sides.
#[test]
fn interrupted_replay_converges_on_both_victim_sides() {
    for victim_second in [false, true] {
        run_case(77, victim_second, true)
            .unwrap_or_else(|problem| panic!("victim_second={victim_second}: {problem}"));
    }
}
