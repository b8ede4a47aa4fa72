//! Differential property test for the split ORAM client: the same seeded
//! epoch schedule, run through an [`OramReader`] / [`WritebackEngine`] pair
//! (a) from one thread, maintenance after every read batch, and (b) on two
//! *actually concurrent* threads, must produce identical committed
//! read/write semantics — every read observes exactly the value the model
//! (a plain `HashMap` oracle) prescribes, in both drivers.
//!
//! The concurrent driver mirrors the pipelined proxy's contract: epoch
//! `e`'s write batch is applied by the engine (evictions, flush) while the
//! *next* epoch's read batch runs on the reader, and the two key sets are
//! disjoint (the proxy's carry-pending set enforces exactly this).  The
//! physical access sequences legitimately differ between the two runs —
//! interleaving changes RNG consumption — but the values must not.  The
//! same holds between the engine's maintenance *wave* and the
//! one-path-at-a-time schedule it replaced (the `cap_wave_for_tests(1)`
//! seam): over several passes the shared RNG diverges, so here only values
//! are compared; `split.rs`'s unit tests compare one pass by counting.

use obladi_common::config::OramConfig;
use obladi_common::error::ObladiError;
use obladi_common::rng::DetRng;
use obladi_common::types::{Key, Value};
use obladi_crypto::KeyMaterial;
use obladi_oram::{
    ExecOptions, NoopPathLogger, OramReader, PathLogger, RingOram, SlotRead, WritebackEngine,
};
use obladi_storage::{InMemoryStore, UntrustedStore};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};

const KEYSPACE: u64 = 96;

fn value_for(key: Key, epoch: usize) -> Value {
    let mut v = key.to_le_bytes().to_vec();
    v.extend_from_slice(&(epoch as u64).to_le_bytes());
    v
}

/// One epoch of the schedule: the keys the epoch writes, and the keys the
/// *next* epoch reads while this epoch's write-back is in flight.  The two
/// sets are disjoint by construction (the proxy's carry-pending rule).
#[derive(Debug, Clone)]
struct EpochPlan {
    writes: Vec<Key>,
    next_reads: Vec<Key>,
}

fn schedule(seed: u64, epochs: usize) -> Vec<EpochPlan> {
    let mut rng = DetRng::new(seed ^ 0x5517_ab1e);
    (0..epochs)
        .map(|_| {
            let write_count = 4 + rng.below_usize(8);
            let writes: HashSet<Key> = (0..write_count).map(|_| rng.below(KEYSPACE)).collect();
            // Deduplicated, like the proxy's pending-fetch set: a repeated
            // key within one batch is defined to miss (both clients agree),
            // which the map model deliberately does not encode.
            let read_count = 4 + rng.below_usize(8);
            let mut seen = HashSet::new();
            let next_reads: Vec<Key> = (0..read_count * 3)
                .map(|_| rng.below(KEYSPACE))
                .filter(|k| !writes.contains(k) && seen.insert(*k))
                .take(read_count)
                .collect();
            let mut writes: Vec<Key> = writes.into_iter().collect();
            writes.sort_unstable();
            EpochPlan { writes, next_reads }
        })
        .collect()
}

fn open_split(seed: u64) -> (OramReader, WritebackEngine) {
    let config = OramConfig::small_for_tests(KEYSPACE * 2);
    let keys = KeyMaterial::for_tests(seed);
    let store: Arc<dyn UntrustedStore> = Arc::new(InMemoryStore::new());
    RingOram::new(config, &keys, store, ExecOptions::parallel(4), seed)
        .expect("client must open")
        .split()
}

/// Drives the schedule with the reader and engine on two concurrent
/// threads, returning each epoch's read observations.  `wave_cap` bounds
/// the engine's maintenance waves (`None`: everything owed at once).
fn run_concurrent(
    seed: u64,
    plans: &[EpochPlan],
    wave_cap: Option<usize>,
) -> Vec<Vec<Option<Value>>> {
    let (reader, mut engine) = open_split(seed);
    if let Some(paths) = wave_cap {
        engine.cap_wave_for_tests(paths);
    }
    let mut observations = Vec::with_capacity(plans.len());
    for (epoch, plan) in plans.iter().enumerate() {
        let writes: Vec<(Key, Value)> = plan
            .writes
            .iter()
            .map(|&k| (k, value_for(k, epoch)))
            .collect();
        let requests: Vec<Option<Key>> = plan.next_reads.iter().copied().map(Some).collect();
        let (reads, write_result) = std::thread::scope(|scope| {
            let engine = &mut engine;
            let writer = scope.spawn(move || -> obladi_common::error::Result<()> {
                // The engine's half of the epoch: dummiless writes, the
                // evictions they owe, and the physical flush.
                engine.write_batch(&writes, &NoopPathLogger)?;
                engine.flush_writes(&NoopPathLogger)?;
                Ok(())
            });
            // The reader's half: the next epoch's batch, concurrently.
            let reads = reader.read_batch(&requests, &NoopPathLogger);
            (reads, writer.join().expect("engine thread panicked"))
        });
        write_result.expect("write batch failed");
        observations.push(reads.expect("read batch failed"));
    }
    observations
}

/// Drives the same schedule from one thread, running the maintenance each
/// read batch made due right after it: reads of epoch `e+1` run *before*
/// epoch `e`'s writes apply, which is the same ordering the disjointness
/// guarantees for the concurrent run.
fn run_sequential(seed: u64, plans: &[EpochPlan]) -> Vec<Vec<Option<Value>>> {
    let (reader, mut engine) = open_split(seed);
    let mut observations = Vec::with_capacity(plans.len());
    for (epoch, plan) in plans.iter().enumerate() {
        let requests: Vec<Option<Key>> = plan.next_reads.iter().copied().map(Some).collect();
        let reads = reader
            .read_batch(&requests, &NoopPathLogger)
            .expect("read batch failed");
        engine
            .run_pending_maintenance(&NoopPathLogger)
            .expect("maintenance failed");
        observations.push(reads);
        let writes: Vec<(Key, Value)> = plan
            .writes
            .iter()
            .map(|&k| (k, value_for(k, epoch)))
            .collect();
        engine
            .write_batch(&writes, &NoopPathLogger)
            .expect("write batch failed");
        engine.flush_writes(&NoopPathLogger).expect("flush failed");
    }
    observations
}

/// What the model (a plain map) says each epoch's reads must observe.
fn run_model(plans: &[EpochPlan]) -> Vec<Vec<Option<Value>>> {
    let mut model: HashMap<Key, Value> = HashMap::new();
    let mut observations = Vec::with_capacity(plans.len());
    for (epoch, plan) in plans.iter().enumerate() {
        observations.push(
            plan.next_reads
                .iter()
                .map(|k| model.get(k).cloned())
                .collect(),
        );
        for &k in &plan.writes {
            model.insert(k, value_for(k, epoch));
        }
    }
    observations
}

fn check_case(seed: u64, epochs: usize) -> Result<(), String> {
    let plans = schedule(seed, epochs);
    let expected = run_model(&plans);
    for wave_cap in [None, Some(1)] {
        if run_concurrent(seed, &plans, wave_cap) != expected {
            return Err(format!(
                "concurrent split client diverged from the model (seed {seed}, waves capped \
                 at {wave_cap:?})"
            ));
        }
    }
    let sequential = run_sequential(seed, &plans);
    if sequential != expected {
        return Err(format!(
            "single-threaded split client diverged from the model (seed {seed})"
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The halves on two threads and on one observe exactly the values the
    /// model oracle prescribes, epoch for epoch.
    #[test]
    fn concurrent_and_single_threaded_halves_match_the_model(seed in 1u64..10_000) {
        if let Err(problem) = check_case(seed, 6) {
            return Err(TestCaseError::fail(problem));
        }
    }
}

/// A longer single-seed stress run: many epochs of concurrent reader/engine
/// traffic, then a full sweep read of the keyspace — catches fence/limbo
/// races the short proptest cases may miss.
#[test]
fn concurrent_stress_preserves_every_value() {
    let seed = 4242;
    let plans = schedule(seed, 24);
    let expected = run_model(&plans);
    let observed = run_concurrent(seed, &plans, None);
    assert_eq!(
        observed, expected,
        "a concurrent epoch observed a wrong value"
    );

    // Final sweep through a fresh concurrent run, then read back everything
    // sequentially on the reader and compare against the model's end state.
    let (reader, mut engine) = open_split(seed ^ 0xabc);
    let mut model: HashMap<Key, Value> = HashMap::new();
    for (epoch, plan) in plans.iter().enumerate() {
        let writes: Vec<(Key, Value)> = plan
            .writes
            .iter()
            .map(|&k| (k, value_for(k, epoch)))
            .collect();
        let requests: Vec<Option<Key>> = plan.next_reads.iter().copied().map(Some).collect();
        std::thread::scope(|scope| {
            let engine = &mut engine;
            let writer = scope.spawn(move || {
                engine.write_batch(&writes, &NoopPathLogger).unwrap();
                engine.flush_writes(&NoopPathLogger).unwrap();
            });
            reader.read_batch(&requests, &NoopPathLogger).unwrap();
            writer.join().expect("engine thread panicked");
        });
        for &k in &plan.writes {
            model.insert(k, value_for(k, epoch));
        }
    }
    for k in 0..KEYSPACE {
        let observed = reader
            .read_batch(&[Some(k)], &NoopPathLogger)
            .unwrap()
            .pop()
            .flatten();
        assert_eq!(
            observed,
            model.get(&k).cloned(),
            "key {k} after the stress run"
        );
        // Keep the buffered overlay drained so the next reads stay cheap.
        engine.run_pending_maintenance(&NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
    }
}

/// A path logger that parks the engine inside its first wave: the records
/// are logged in the fetch step, after the plan and before the apply.  A
/// test that unwinds drops the sender, and the wave fails: it releases its
/// limbo keys, and a reader parked on one wakes to the poisoned client.
struct WaveGate {
    planned: Mutex<Option<mpsc::Sender<()>>>,
    go: Mutex<mpsc::Receiver<()>>,
}

impl PathLogger for WaveGate {
    fn log_reads(&self, _reads: &[SlotRead]) -> obladi_common::error::Result<()> {
        if let Some(planned) = self.planned.lock().unwrap().take() {
            planned.send(()).expect("the test is waiting");
            let released = self.go.lock().unwrap().recv();
            released.map_err(|_| ObladiError::Internal("the test unwound".into()))?;
        }
        Ok(())
    }
}

/// Reader batches run while a wave sits between its plan and its apply: a
/// batch of keys the wave does not touch completes with the wave still
/// held, and a read of a limbo key returns — with the right value — only
/// once the wave has been released.
#[test]
fn reader_batches_run_while_a_wave_is_between_plan_and_apply() {
    let seed = 77;
    let (reader, mut engine) = open_split(seed);
    let value = |k: Key| value_for(k, 0);
    let writes: Vec<(Key, Value)> = (0..KEYSPACE).map(|k| (k, value(k))).collect();
    engine.write_batch(&writes, &NoopPathLogger).unwrap();
    engine.flush_writes(&NoopPathLogger).unwrap();
    // Reader batches run no maintenance: evictions come due.
    let warm: Vec<Option<Key>> = (0..24).map(Some).collect();
    reader.read_batch(&warm, &NoopPathLogger).unwrap();

    // The wave will pull every valid real block on the owed eviction paths
    // out of the tree (nothing is buffered after the flush), and on the
    // buckets due an early reshuffle: those keys are in limbo while it is
    // held.
    let meta = engine.meta_snapshot();
    let geometry = engine.geometry();
    let owed = meta.access_count / engine.config().a as u64;
    assert!(owed >= meta.evict_count + 2, "a wave of several paths");
    let valid_reals = |bucket: u64| -> Vec<Key> {
        let bucket = &meta.buckets[bucket as usize];
        let valid = |(slot, real): (usize, &Option<(Key, u64)>)| {
            real.filter(|_| bucket.valid[slot]).map(|(key, _)| key)
        };
        bucket.real.iter().enumerate().filter_map(valid).collect()
    };
    let evicted: HashSet<Key> = (meta.evict_count..owed)
        .flat_map(|g| geometry.path(geometry.evict_target(g)))
        .flat_map(valid_reals)
        .collect();
    let reshuffled = (0..meta.buckets.len() as u64)
        .filter(|&bucket| meta.buckets[bucket as usize].needs_early_reshuffle())
        .flat_map(valid_reals);
    let limbo_key = *evicted
        .iter()
        .min()
        .expect("the owed paths hold real blocks");
    let limbo: HashSet<Key> = evicted.iter().copied().chain(reshuffled).collect();
    let free: Vec<Key> = (24..KEYSPACE)
        .filter(|k| !limbo.contains(k))
        .take(8)
        .collect();
    assert_eq!(free.len(), 8);

    let (planned_tx, planned_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel();
    let gate = WaveGate {
        planned: Mutex::new(Some(planned_tx)),
        go: Mutex::new(go_rx),
    };
    let released = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Dropped with this closure, unwinding or not.
        let go_tx = go_tx;
        let engine = &mut engine;
        let gate = &gate;
        let maintenance = scope.spawn(move || engine.run_pending_maintenance(gate));
        planned_rx.recv().expect("the engine plans a wave");

        // The wave is planned and held.  Untouched keys read through — on a
        // thread of their own, so a batch parked on a key the prediction
        // missed fails the test instead of hanging it.
        let requests: Vec<Option<Key>> = free.iter().copied().map(Some).collect();
        let (answer, answered) = mpsc::channel();
        let free_reader = &reader;
        scope.spawn(move || answer.send(free_reader.read_batch(&requests, &NoopPathLogger)));
        let observed = answered.recv_timeout(std::time::Duration::from_secs(10));
        let expected: Vec<Option<Value>> = free.iter().map(|&k| Some(value(k))).collect();
        assert_eq!(
            observed.map(Result::unwrap),
            Ok(expected),
            "a batch beside the held wave"
        );

        // A limbo key parks its batch until its path has been applied.
        let (started_tx, started_rx) = mpsc::channel();
        let (reader, released) = (&reader, &released);
        let parked = scope.spawn(move || {
            started_tx.send(()).unwrap();
            let observed = reader.read_batch(&[Some(limbo_key)], &NoopPathLogger);
            (observed, released.load(Ordering::SeqCst))
        });
        started_rx.recv().unwrap();
        // Not what the assertions rest on (they hold for any interleaving):
        // it only makes it likely that the read is parked by now.
        std::thread::sleep(std::time::Duration::from_millis(30));
        released.store(true, Ordering::SeqCst);
        go_tx.send(()).unwrap();

        let (observed, after_release) = parked.join().expect("reader thread panicked");
        assert_eq!(observed.unwrap(), vec![Some(value(limbo_key))]);
        assert!(
            after_release,
            "a limbo read returned with its wave still held"
        );
        maintenance.join().expect("engine thread panicked").unwrap();
    });
    engine.flush_writes(&NoopPathLogger).unwrap();
    for k in 0..KEYSPACE {
        let observed = reader.read_batch(&[Some(k)], &NoopPathLogger).unwrap();
        assert_eq!(observed, vec![Some(value(k))], "key {k} after the wave");
        engine.run_pending_maintenance(&NoopPathLogger).unwrap();
        engine.flush_writes(&NoopPathLogger).unwrap();
    }
}
