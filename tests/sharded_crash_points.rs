//! Crash-point sweep over the sharded 2PC commit path.
//!
//! `tests/crash_points.rs` sweeps crash points over a single proxy; this
//! suite does the same for the cross-shard commit protocol and the
//! pipelined epoch barrier, selecting its cases from the one fault schedule
//! of `obladi_testkit::chaos` (`DESIGN.md`, "Fault schedules").  The one
//! case runner drives a 2-of-3-shard load into a chosen point of the
//! prepare/vote/write-back/checkpoint/commit sequence on one participant
//! (a deterministic `FaultyStore` trigger), recovers the victim, and checks
//! all-or-nothing visibility, acknowledged-implies-durable, recovery
//! idempotence, and serializability of the full recorded history.
//!
//! The fast tests below cover the qualitatively distinct regions (before
//! the durable vote / between vote and commit record / after the early
//! acknowledgement / after full durability / inside the decide-execute
//! overlap); the `#[ignore]`d sweeps run every in-process case of the
//! schedule on both participants and are exercised by the release chaos CI
//! job (`cargo test --release -- --ignored`).

use obladi_testkit::chaos::{
    case, run_case, schedule, CaseReport, Expected, Fault, FaultCase, Load,
};

fn run_case_by_name(name: &str, seed: u64) -> CaseReport {
    run_case(&case(name), seed).unwrap_or_else(|err| panic!("{err}"))
}

/// The in-process cases of the schedule under `load`, in schedule order.
fn in_process(load: Load) -> Vec<FaultCase> {
    let wanted =
        |case: &FaultCase| case.load == load && !matches!(case.fault, Fault::KillDaemon { .. });
    schedule().into_iter().filter(wanted).collect()
}

#[test]
fn crash_before_the_durable_vote_aborts_everywhere() {
    let report = run_case_by_name("prepare-append-fails/first", 0xA11CE);
    assert!(!report.acknowledged_commit, "{report:?}");
    assert!(!report.committed_visible, "{report:?}");
    assert!(report.tripped, "the crash point never fired: {report:?}");
    assert_eq!(
        report.recovery.in_doubt, 0,
        "a failed prepare append must leave nothing in doubt: {report:?}"
    );
}

#[test]
fn crash_between_vote_and_commit_record_is_finished_by_recovery() {
    // The exact ROADMAP window: the victim's vote is durable and the peer
    // commits, but the victim loses its epoch-commit record.
    let report = run_case_by_name("commit-record-lost/second", 0xB0B);
    assert!(report.acknowledged_commit, "{report:?}");
    assert!(report.committed_visible, "{report:?}");
    assert!(report.tripped, "{report:?}");
    assert!(
        report.recovery.in_doubt >= 1 && report.recovery.replayed_commits >= 1,
        "recovery must replay the in-doubt prepared commit: {report:?}"
    );
}

#[test]
fn crash_after_early_ack_before_write_back_replays_the_decision() {
    // The early-acknowledgement window: the epoch's decision record is
    // durable — the commit has been acknowledged to the parked client —
    // but the crash eats the write-back.  Recovery must replay the decided
    // epoch from the decision record alone so the acked writes survive.
    let report = run_case_by_name("acked-before-write-back/second", 0xDEC1);
    assert!(report.committed_visible, "{report:?}");
    assert!(report.tripped, "{report:?}");
    assert!(
        report.recovery.replayed_commits >= 1,
        "recovery must replay the decided epoch: {report:?}"
    );
}

#[test]
fn crash_after_full_durability_changes_nothing() {
    let report = run_case_by_name("after-durable-commit/first", 0xCAFE);
    assert!(report.acknowledged_commit, "{report:?}");
    assert!(report.committed_visible, "{report:?}");
    assert_eq!(
        report.recovery.replayed_commits, 0,
        "nothing is in doubt once the epoch is durable: {report:?}"
    );
}

#[test]
fn overlapping_epoch_crash_smoke() {
    // Fast tier of the overlapping-epoch sweep: one crash point inside the
    // decide/execute overlap window (pipelined epoch barrier).  The runner
    // checks all-or-nothing per epoch, acknowledged-implies-durable with
    // in-epoch-order durability, recovery idempotence across both in-doubt
    // epochs, serializability, and 2PC decision drain.
    let report = run_case_by_name("deciding-while-next-reads/first", 0x0E0E);
    assert!(
        report.attempts.iter().sum::<usize>() > 0,
        "the hammers never drove a transaction: {report:?}"
    );
}

#[test]
fn writeback_engine_crash_smoke() {
    // Fast tier of the split-client crash points: a slot-read outage inside
    // the decide/execute overlap window — the engine's eviction fetches
    // (limbo keys in flight) or the read plane's batch fetches, whichever
    // the outage hits first — and the two maintenance-wave points: the
    // wave's path-log records all appended but nothing fetched, and a read
    // deep inside its one fetch.  Each must fate-share into crash +
    // recovery and pass the same invariant battery (acknowledged values
    // read back, all-or-nothing, idempotent two-epoch recovery).
    for (name, seed) in [
        ("engine-eviction-reads-vs-next-reads/first", 0x5B11),
        ("wave-logged-not-fetched/first", 0x5B12),
        ("wave-nth-slot-read/second", 0x5B13),
    ] {
        let report = run_case_by_name(name, seed);
        assert!(
            report.attempts.iter().sum::<usize>() > 0,
            "{name}: the hammers never drove a transaction: {report:?}"
        );
    }
}

#[test]
#[ignore = "overlapping-epoch crash sweep (~20 deployments); run via the chaos CI job"]
fn every_overlapping_epoch_crash_point_recovers_cleanly() {
    let schedule = in_process(Load::Hammer);
    assert_eq!(
        schedule.len(),
        20,
        "the overlap sweep covers the 20 points of the golden list (incl. the split-client \
         slot-read, maintenance-wave and flush-write points)"
    );
    let mut two_epoch_replays = 0u32;
    for (index, case) in schedule.iter().enumerate() {
        let report =
            run_case(case, 0xBEEF ^ ((index as u64) << 5)).unwrap_or_else(|err| panic!("{err}"));
        assert!(report.tripped, "{}: crash point never fired", case.name);
        if report.recovery.epochs_replayed >= 2 {
            two_epoch_replays += 1;
        }
    }
    // The sweep's reason to exist: at least one point must catch the crash
    // with *both* pipeline stages holding logged work, so recovery proves
    // it can resolve two in-doubt epochs in order.
    assert!(
        two_epoch_replays > 0,
        "no case caught both in-doubt epochs; the overlap window was never hit"
    );
}

#[test]
#[ignore = "full crash-point sweep (~18 deployments); run via the chaos CI job"]
fn every_crash_point_recovers_to_an_all_or_nothing_outcome() {
    let schedule = in_process(Load::OneTxn);
    assert_eq!(
        schedule.len(),
        18,
        "the sweep covers the 16 distinct crash points of the golden list (incl. the \
         early-acknowledgement windows) and the interrupted replay, on either side"
    );
    for (index, case) in schedule.iter().enumerate() {
        let report =
            run_case(case, 0xC0FFEE ^ (index as u64) << 4).unwrap_or_else(|err| panic!("{err}"));
        assert!(report.tripped, "{}: crash point never fired", case.name);
        let expected = case.expected.expect("the point determines the outcome");
        match expected {
            Expected::Commit => assert!(
                report.committed_visible,
                "{}: durable vote lost: {report:?}",
                case.name
            ),
            Expected::Abort => assert!(
                !report.committed_visible,
                "{}: unvoted transaction surfaced: {report:?}",
                case.name
            ),
        }
        // Points between the durable vote and the commit record must
        // actually exercise the in-doubt replay path.
        if matches!(case.fault, Fault::Store(_)) && expected == Expected::Commit {
            assert!(
                report.recovery.replayed_commits >= 1,
                "{}: expected an in-doubt replay: {report:?}",
                case.name
            );
        }
    }
}
