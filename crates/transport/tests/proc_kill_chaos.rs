//! Process-kill chaos through the sharded front door: `kill -9` one
//! shard's `obladi-stored` daemon mid-epoch, respawn it, recover the
//! shard, and assert the full oracle battery (all-or-nothing,
//! acknowledged-implies-durable, recovery idempotence, serializability,
//! 2PC decision drain).  The cases are the `Fault::KillDaemon` rows of the
//! one fault schedule in `obladi_testkit::chaos`, run by the same
//! `run_case` as the in-process crash points: that the stores are spawned
//! daemons follows from the fault.
//!
//! A fast smoke case runs in the default tier; the full schedule (kill
//! depths × victim sides) is `#[ignore]`d for the release chaos job
//! (`cargo test --release -- --ignored`).

use obladi_testkit::chaos::{case, run_case, schedule, Fault};
use obladi_transport::STORED_BIN_ENV;

fn set_stored_bin() {
    std::env::set_var(STORED_BIN_ENV, env!("CARGO_BIN_EXE_obladi-stored"));
}

/// One representative case: the daemon dies after the first acknowledged
/// cross-shard commit, with both hammered pairs hot through the victim.
#[test]
fn storage_daemon_kill9_smoke() {
    set_stored_bin();
    let case = case("stored-kill9-after-1-acked/first");
    assert_eq!(case.fault, Fault::KillDaemon { after_acked: 1 });
    let report = run_case(&case, 0xD1E5_0001).unwrap();
    assert!(
        report.attempts.iter().sum::<usize>() > 0,
        "hammers never attempted anything: {report:?}"
    );
    let (before, after) = report.pids.expect("a spawned daemon has a pid");
    assert_ne!(before, after, "respawn must change the pid");
}

/// The full sweep: every kill depth on either side of the pair.
#[test]
#[ignore = "full process-kill sweep; run with --ignored in the release chaos job"]
fn storage_daemon_kill9_sweep() {
    set_stored_bin();
    let kills = schedule()
        .into_iter()
        .filter(|case| matches!(case.fault, Fault::KillDaemon { .. }));
    let mut failures = Vec::new();
    let mut ran = 0;
    for (index, case) in kills.enumerate() {
        ran += 1;
        match run_case(&case, 0xD1E5_1000 + index as u64) {
            Ok(report) => {
                println!(
                    "[{}] acked={:?} attempts={:?} in_doubt={} replayed={} pids={:?}",
                    report.name,
                    report.acked,
                    report.attempts,
                    report.recovery.in_doubt,
                    report.recovery.replayed_commits,
                    report.pids
                );
                let pids = report.pids;
                if pids.is_none_or(|(before, after)| before == after) {
                    failures.push(format!("{}: respawn kept the pid: {pids:?}", case.name));
                }
            }
            Err(err) => failures.push(format!("{}: {err}", case.name)),
        }
    }
    assert_eq!(ran, 6, "three kill depths on either side of the pair");
    assert!(
        failures.is_empty(),
        "failed cases:\n{}",
        failures.join("\n")
    );
}
