//! Crash-point sweep for the epoch fate-sharing guarantee (§8).
//!
//! `recovery.rs` exercises hand-picked crash scenarios; here a property test
//! sweeps the crash point across a scripted workload and checks, for every
//! position, that acknowledged commits survive recovery and unacknowledged
//! writes never resurface.  A second test replays the same script and crash
//! point twice and checks that the recovered state is identical — the
//! deterministic-recovery property that the read-path log exists to provide.
//!
//! This is the single-proxy script runner of `obladi_testkit::chaos`: an
//! `ObladiDb` with no epoch gate in front of it, which the sharded fault
//! schedule (`tests/sharded_crash_points.rs`) cannot reach.  Its
//! post-recovery reads retry against a deadline, not a count, so the sweep
//! does not depend on the host being idle.

use obladi::prelude::*;
use obladi_testkit::chaos::{put_acknowledged, read_with_retries, run_script_with_crash};
use proptest::prelude::*;
use std::time::Duration;

fn crash_config(seed: u64) -> ObladiConfig {
    let mut config = ObladiConfig::small_for_tests(1_024);
    config.epoch.read_batches = 2;
    config.epoch.read_batch_size = 8;
    config.epoch.write_batch_size = 16;
    config.epoch.batch_interval = Duration::from_millis(1);
    config.epoch.checkpoint_every = 3;
    config.seed = seed;
    config
}

fn script_from(keys: &[u8]) -> Vec<(Key, Value)> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| ((*k % 11) as Key, format!("value-{i}-{k}").into_bytes()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Epoch fate sharing holds for an arbitrary crash point in an arbitrary
    /// write script.
    #[test]
    fn acknowledged_commits_survive_any_crash_point(
        keys in prop::collection::vec(any::<u8>(), 4..16),
        crash_fraction in 0.0f64..1.0,
    ) {
        let script = script_from(&keys);
        let crash_after = ((script.len() as f64) * crash_fraction) as usize;
        let run = run_script_with_crash(crash_config(7), &script, crash_after)
            .expect("crash run failed to execute");
        prop_assert_eq!(
            run.acknowledged.len() + run.unacknowledged.len(),
            script.len()
        );
        if let Err(problem) = run.verify_durability() {
            run.db.shutdown();
            return Err(TestCaseError::fail(problem));
        }
        run.db.shutdown();
    }
}

#[test]
fn every_crash_point_in_a_short_script_preserves_acknowledged_writes() {
    // Exhaustive sweep over a short script: crash after 0, 1, …, n writes.
    let script: Vec<(Key, Value)> = (0..8u64)
        .map(|i| (i % 3, format!("round-{i}").into_bytes()))
        .collect();
    for crash_after in 0..=script.len() {
        let run = run_script_with_crash(crash_config(11), &script, crash_after)
            .unwrap_or_else(|err| panic!("crash point {crash_after}: run failed: {err}"));
        run.verify_durability()
            .unwrap_or_else(|problem| panic!("crash point {crash_after}: {problem}"));
        run.db.shutdown();
    }
}

#[test]
fn recovery_is_deterministic_for_identical_runs() {
    // Two runs with the same seed, script and crash point must recover to
    // the same application-visible state for the keys whose commits were
    // acknowledged in *both* runs (the overlap is what determinism can
    // promise once thread scheduling differs).
    let script: Vec<(Key, Value)> = (0..10u64)
        .map(|i| (i % 4, format!("det-{i}").into_bytes()))
        .collect();
    let run_a = run_script_with_crash(crash_config(23), &script, 5).unwrap();
    let run_b = run_script_with_crash(crash_config(23), &script, 5).unwrap();

    let state_a = run_a.expected_state();
    let state_b = run_b.expected_state();
    for (key, value) in &state_a {
        if let Some(other) = state_b.get(key) {
            if value == other {
                let got_a = read_with_retries(&run_a.db, *key).unwrap();
                let got_b = read_with_retries(&run_b.db, *key).unwrap();
                assert_eq!(got_a, got_b, "recovered state diverged for key {key}");
                assert_eq!(got_a, Some(value.clone()));
            }
        }
    }
    run_a.db.shutdown();
    run_b.db.shutdown();
}

#[test]
fn repeated_crashes_between_every_write_still_preserve_acknowledgements() {
    // The most hostile schedule: crash and recover after every single write.
    let config = crash_config(31);
    let db = ObladiDb::open(config).unwrap();
    let mut expected: Vec<(Key, Value)> = Vec::new();
    for i in 0..10u64 {
        let key = i % 4;
        let value = format!("hostile-{i}").into_bytes();
        let acknowledged = put_acknowledged(&db, key, &value);
        if acknowledged {
            expected.retain(|(k, _)| *k != key);
            expected.push((key, value));
        }
        db.crash();
        db.recover().unwrap();
    }
    for (key, value) in expected {
        assert_eq!(
            read_with_retries(&db, key).unwrap(),
            Some(value),
            "key {key} lost across repeated crashes"
        );
    }
    db.shutdown();
}
