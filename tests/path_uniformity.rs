//! Statistical checks on the physical access trace (§4 invariants, §9) —
//! the trace the *store* observed, recorded by the one adversary recorder
//! (`obladi_storage::RecordingStore` into an `AuditRing`), not the paths the
//! proxy logs.
//!
//! `obliviousness.rs` checks coarse properties (request counts, no
//! slot reuse, broad leaf coverage) with hand-rolled thresholds; these tests
//! use the `obladi-testkit` oracles to make the statistical claims precise:
//! the leaf-level access histogram of a long trace is consistent with a
//! uniform distribution (chi-square), the bucket invariant holds, and the
//! traces produced by two adversarially different workloads are close in
//! total-variation distance.

use obladi::obs::audit::AuditOp;
use obladi::oram::NoopPathLogger;
use obladi::prelude::*;
use obladi_testkit::audit::{leaf_histogram, slot_reread, RecordedOram};
use obladi_testkit::{is_plausibly_uniform, total_variation_distance};

fn build_oram(seed: u64) -> RecordedOram {
    let config = OramConfig::small_for_tests(512).with_max_stash(4_096);
    let mut oram = RecordedOram::open(config, seed, 0).unwrap();
    let writes: Vec<(Key, Value)> = (0..256).map(|k| (k, vec![k as u8; 8])).collect();
    for chunk in writes.chunks(64) {
        oram.engine.write_batch(chunk, &NoopPathLogger).unwrap();
        oram.engine.flush_writes(&NoopPathLogger).unwrap();
    }
    oram
}

/// Runs `batches` batches of `batch_size` reads picked by `pick`.
///
/// Returns what the store saw of the access phases (the batches' own
/// fetches, whose paths the path invariant makes uniform) and the whole
/// trace, maintenance included (eviction / reshuffle reads, which are
/// deterministic, and the flushes), for the invariant checks.
fn trace_of(
    oram: &mut RecordedOram,
    batches: usize,
    batch_size: usize,
    mut pick: impl FnMut(usize, &mut obladi::common::rng::DetRng) -> Key,
    seed: u64,
) -> (Vec<AuditOp>, Vec<AuditOp>) {
    let mut access_phase = Vec::new();
    let mut full = Vec::new();
    let mut rng = obladi::common::rng::DetRng::new(seed);
    for batch in 0..batches {
        let requests: Vec<Option<Key>> = (0..batch_size)
            .map(|i| Some(pick(batch * batch_size + i, &mut rng)))
            .collect();
        let (access, maintenance) = oram.read_batch_by_phase(&requests).unwrap();
        access_phase.extend(&access);
        full.extend(access);
        full.extend(maintenance);
    }
    assert_eq!(oram.ring.dropped(), 0, "the ring holds a whole batch");
    (access_phase, full)
}

#[test]
fn leaf_access_histogram_is_chi_square_uniform_even_for_a_hot_key() {
    // Every request hammers one key; the path invariant still spreads the
    // access-phase reads uniformly over the leaves.  (Eviction reads follow
    // the deterministic reverse-lexicographic schedule and are therefore
    // excluded: they are public information, not a function of the
    // workload.)
    let mut oram = build_oram(41);
    let (access_phase, full) = trace_of(&mut oram, 40, 16, |_, _| 99, 5);

    let geometry = oram.reader.geometry();
    assert_eq!(slot_reread(&full), None);
    let histogram = leaf_histogram(&access_phase, &geometry);
    assert!(
        histogram.iter().sum::<u64>() > 0,
        "trace recorded no leaf-level accesses"
    );
    assert!(
        is_plausibly_uniform(&histogram),
        "hot-key access-phase trace is not uniform over leaves: {histogram:?}"
    );
}

#[test]
fn hot_and_uniform_workload_traces_are_statistically_close() {
    let mut hot_oram = build_oram(42);
    let mut uniform_oram = build_oram(42);

    // Both workloads issue batches of 16 *distinct* keys (the proxy's
    // deduplication guarantees this in the full system); the hot workload
    // only ever touches 16 keys while the uniform one cycles over all 256.
    let (hot_access, hot_full) =
        trace_of(&mut hot_oram, 40, 16, |index, _| (index % 16) as Key, 11);
    let (uniform_access, uniform_full) = trace_of(
        &mut uniform_oram,
        40,
        16,
        |index, _| ((index * 97) % 256) as Key,
        12,
    );

    // The bucket invariant holds for both traces.  (Raw request *volume*
    // differs here because the hot working set is served from the stash —
    // the client-side caching of §6.3; the proxy restores a fixed volume by
    // padding its batches, which `proxy_level_trace_stays_uniform…` below
    // checks end to end.)
    assert_eq!(slot_reread(&hot_full), None);
    assert_eq!(slot_reread(&uniform_full), None);

    // The paths that *are* physically read stay uniformly distributed for
    // both workloads, so their access-phase leaf histograms are close in
    // total-variation distance.  (Two independent uniform samples of this
    // size typically land around 0.15–0.2; a workload-revealing skew pushes
    // the distance towards 1.)
    let geometry = hot_oram.reader.geometry();
    let distance = total_variation_distance(
        &leaf_histogram(&hot_access, &geometry),
        &leaf_histogram(&uniform_access, &geometry),
    );
    assert!(
        distance < 0.35,
        "hot vs uniform traces diverge (total variation distance {distance:.3})"
    );
}

#[test]
fn proxy_level_trace_stays_uniform_across_workload_skew() {
    // End-to-end: drive the full proxy with a heavily skewed workload and
    // check the per-epoch storage request counts are flat (the batch
    // structure is fixed) regardless of the skew.
    use std::time::Duration;

    let run = |hot: bool| -> Vec<u64> {
        let mut config = ObladiConfig::small_for_tests(1_024);
        config.epoch.read_batches = 2;
        config.epoch.read_batch_size = 8;
        config.epoch.write_batch_size = 16;
        config.epoch.batch_interval = Duration::from_millis(1);
        let db = ObladiDb::open(config).unwrap();
        for chunk in (0..64u64).collect::<Vec<_>>().chunks(8) {
            let mut txn = db.begin().unwrap();
            for &k in chunk {
                txn.write(k, vec![k as u8; 8]).unwrap();
            }
            txn.commit().unwrap();
        }
        db.store().reset_stats();
        let mut rng = obladi::common::rng::DetRng::new(9);
        let mut samples = Vec::new();
        for _ in 0..8 {
            let key = if hot { 5 } else { rng.below(64) };
            let mut txn = db.begin().unwrap();
            let _ = txn.read(key);
            let _ = txn.write(key, vec![2; 8]);
            let _ = txn.commit();
            let stats = db.store().stats();
            samples.push(stats.slot_reads + stats.bucket_writes);
        }
        db.shutdown();
        samples
    };

    let hot = run(true);
    let uniform = run(false);
    // Cumulative request counts grow at the same rate for both workloads;
    // compare the totals after the same number of transactions.
    let hot_total = *hot.last().unwrap() as f64;
    let uniform_total = *uniform.last().unwrap() as f64;
    let ratio = hot_total.max(uniform_total) / hot_total.min(uniform_total).max(1.0);
    assert!(
        ratio < 1.4,
        "storage request volume depends on key skew (hot {hot_total}, uniform {uniform_total})"
    );
}
