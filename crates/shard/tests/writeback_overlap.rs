//! The split ORAM client's acceptance test: with the read plane and the
//! write-back engine on separate threads, an epoch `N+1` read batch starts
//! *and completes* while epoch `N`'s write-back — the eviction round-trips,
//! the bucket flush and the checkpoint, stretched here by write-latency-bound
//! storage — is still in flight.  PR 3's pipelined barrier could only overlap
//! the rendezvous and decision I/O; the write-back stayed serialized behind
//! the one `&mut` ORAM client, which is exactly what the split removes.
//!
//! The reserved half of epoch `N+1`'s batches waits only for `N`'s flush,
//! not for its checkpoint: one starts before `N`'s write-back window (which
//! ends after the checkpoint) closes.  And the batches are paced on a grid
//! `Δ` apart, so a batch held past its turn goes out as soon as the hold
//! lifts, and one that goes out late pushes back no later one.
//!
//! The depth-1 control shows the converse: with the pipeline disabled, no
//! next-epoch batch may even *start* inside the previous epoch's write-back
//! window.

use obladi_common::config::ObladiConfig;
use obladi_common::types::{EpochId, TxnId};
use obladi_core::proxy::{CandidateSource, EpochGate, ObladiDb, TxnPreparer};
use obladi_crypto::KeyMaterial;
use obladi_shard::{EpochCoordinator, ShardGate};
use obladi_storage::{InMemoryStore, LatencyStore, TrustedCounter, UntrustedStore};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `R`: the last `R / 2` batches of an epoch are the reserved ones.
const READ_BATCHES: usize = 4;

fn config(seed: u64, depth: u32, interval: Duration) -> ObladiConfig {
    let mut config = ObladiConfig::small_for_tests(256);
    config.epoch.batch_interval = interval;
    config.epoch.pipeline_depth = depth;
    config.epoch.read_batches = READ_BATCHES as u32;
    config.seed = seed;
    config
}

/// A store whose *writes* are slow: reads (the plane we want to keep hot)
/// cost nothing, while every bucket write-back pays a real round-trip.
fn write_latency_store(mean: Duration, seed: u64) -> Arc<dyn UntrustedStore> {
    let mut profile = obladi_common::latency::LatencyProfile::for_backend(
        obladi_common::config::BackendKind::Dummy,
    );
    profile.write = obladi_common::latency::LatencyModel::with_mean(mean);
    profile.read = obladi_common::latency::LatencyModel::with_mean(Duration::ZERO);
    Arc::new(LatencyStore::new(
        Arc::new(InMemoryStore::new()),
        profile,
        seed,
    ))
}

/// Timestamped gate events of one shard.
#[derive(Default)]
struct GateTrace {
    /// Write-back window per epoch: `write_back_starting` →
    /// `write_back_finished`.
    write_backs: Vec<(EpochId, Instant, Option<Instant>)>,
    /// Read-batch spans per epoch: `read_batch_starting` →
    /// `read_batch_finished` (batches run sequentially on the executor, so
    /// starts and finishes pair up in order).
    batch_starts: Vec<(EpochId, Instant)>,
    batch_finishes: Vec<(EpochId, Instant)>,
}

impl GateTrace {
    /// Pairs up starts and finishes into per-epoch batch spans.  The
    /// executor is a single thread, so within one epoch the i-th recorded
    /// finish belongs to the i-th recorded start.
    fn batch_spans(&self) -> Vec<(EpochId, Instant, Instant)> {
        let mut spans = Vec::new();
        let epochs: std::collections::BTreeSet<EpochId> =
            self.batch_starts.iter().map(|(e, _)| *e).collect();
        for epoch in epochs {
            let starts = self.batch_starts.iter().filter(|(e, _)| *e == epoch);
            let finishes = self.batch_finishes.iter().filter(|(e, _)| *e == epoch);
            for (&(_, start), &(_, finish)) in starts.zip(finishes) {
                if finish >= start {
                    spans.push((epoch, start, finish));
                }
            }
        }
        spans
    }

    /// The start of each batch of `epoch`, in dispatch order (one batch
    /// runs at a time, so the order is the index).
    fn starts_of(&self, epoch: EpochId) -> Vec<Instant> {
        let starts = self.batch_starts.iter().filter(|(e, _)| *e == epoch);
        starts.map(|&(_, start)| start).collect()
    }
}

/// Wraps a [`ShardGate`], timestamping write-back windows and batch spans.
struct InstrumentedGate {
    inner: ShardGate,
    trace: Arc<Mutex<GateTrace>>,
    /// How long each write-back waits before it starts (and before its
    /// start is recorded), which stretches the next epoch's reserved-batch
    /// hold by as much.
    write_back_delay: Duration,
}

impl EpochGate for InstrumentedGate {
    fn permit_commits(
        &self,
        epoch: EpochId,
        candidates: CandidateSource,
        preparer: TxnPreparer,
    ) -> obladi_common::error::Result<Vec<TxnId>> {
        self.inner.permit_commits(epoch, candidates, preparer)
    }

    fn read_batch_starting(&self, epoch: EpochId) {
        self.trace.lock().batch_starts.push((epoch, Instant::now()));
    }

    fn read_batch_finished(&self, epoch: EpochId) {
        self.trace
            .lock()
            .batch_finishes
            .push((epoch, Instant::now()));
    }

    fn write_back_starting(&self, epoch: EpochId) {
        std::thread::sleep(self.write_back_delay);
        self.trace
            .lock()
            .write_backs
            .push((epoch, Instant::now(), None));
    }

    fn write_back_finished(&self, epoch: EpochId) {
        let mut trace = self.trace.lock();
        if let Some(entry) = trace
            .write_backs
            .iter_mut()
            .rev()
            .find(|(e, _, end)| *e == epoch && end.is_none())
        {
            entry.2 = Some(Instant::now());
        }
    }

    fn epoch_durable(&self, epoch: EpochId, committed: &[TxnId]) {
        self.inner.epoch_durable(epoch, committed);
    }

    fn epoch_finalized(&self, epoch: EpochId) {
        self.inner.epoch_finalized(epoch);
    }

    fn proxy_crashed(&self) {
        self.inner.proxy_crashed();
    }

    fn proxy_recovered(&self) {
        self.inner.proxy_recovered();
    }

    fn proxy_stopping(&self) {
        self.inner.proxy_stopping();
    }
}

/// What a run varies: pipeline depth, `Δ`, the store's write latency and
/// the gate's write-back delay.
struct Run {
    depth: u32,
    interval: Duration,
    write_latency: Duration,
    write_back_delay: Duration,
}

impl Run {
    /// Depth `depth` at `Δ` = 1 ms over write-latency-bound storage.
    fn write_bound(depth: u32, write_latency: Duration) -> Run {
        Run {
            depth,
            interval: Duration::from_millis(1),
            write_latency,
            write_back_delay: Duration::ZERO,
        }
    }
}

/// Builds a 2-shard deployment for `run`, runs it for `epochs` global
/// epochs, and returns each shard's trace.
fn run_deployment(run: Run, epochs: u64) -> Vec<Arc<Mutex<GateTrace>>> {
    let coordinator = Arc::new(EpochCoordinator::new(2));
    let mut shards = Vec::new();
    let mut traces = Vec::new();
    for index in 0..2usize {
        let store = write_latency_store(run.write_latency, index as u64 + 31);
        let db = ObladiDb::open_with(
            config(index as u64 + 21, run.depth, run.interval),
            store,
            TrustedCounter::new(),
            KeyMaterial::for_tests(index as u64 + 21),
        )
        .unwrap();
        let trace = Arc::new(Mutex::new(GateTrace::default()));
        db.set_epoch_gate(Arc::new(InstrumentedGate {
            inner: ShardGate::new(coordinator.clone(), index),
            trace: trace.clone(),
            write_back_delay: run.write_back_delay,
        }));
        shards.push(db);
        traces.push(trace);
    }

    // Idle epochs still run padded read batches, advance the eviction
    // schedule and flush the resulting buffered buckets, so every epoch has
    // a real write-back window without any client traffic.
    let deadline = Instant::now() + Duration::from_secs(60);
    while coordinator.global_epoch() < epochs {
        assert!(
            Instant::now() < deadline,
            "deployment never completed {epochs} global epochs"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for shard in &shards {
        shard.shutdown();
    }
    traces
}

/// The acceptance assertion: at depth 2 some epoch `N+1` read batch starts
/// *and finishes* strictly inside epoch `N`'s write-back window.
#[test]
fn next_epoch_read_batch_completes_inside_previous_write_back() {
    let traces = run_deployment(Run::write_bound(2, Duration::from_millis(3)), 6);
    let mut contained = 0usize;
    for trace in &traces {
        let trace = trace.lock();
        let spans = trace.batch_spans();
        for &(epoch, wb_start, wb_end) in &trace.write_backs {
            let Some(wb_end) = wb_end else { continue };
            for &(batch_epoch, start, finish) in &spans {
                if batch_epoch == epoch + 1 && start > wb_start && finish < wb_end {
                    contained += 1;
                }
            }
        }
    }
    assert!(
        contained > 0,
        "no epoch N+1 read batch completed inside epoch N's write-back window; \
         the ORAM client's read plane is still serialized behind the write-back engine"
    );
}

/// A reserved batch of epoch `N+1` starts inside epoch `N`'s write-back
/// window, which closes only after the checkpoint: the hold lifts once the
/// flush has landed.  A hold that lasted until publish would never allow
/// this.
#[test]
fn a_reserved_batch_starts_before_the_previous_checkpoint_ends() {
    let traces = run_deployment(Run::write_bound(2, Duration::from_millis(3)), 6);
    let mut early = 0usize;
    for trace in &traces {
        let trace = trace.lock();
        for &(epoch, _, wb_end) in &trace.write_backs {
            let Some(wb_end) = wb_end else { continue };
            let starts = trace.starts_of(epoch + 1);
            let reserved = starts.iter().skip(READ_BATCHES.div_ceil(2));
            early += reserved.filter(|&&start| start < wb_end).count();
        }
    }
    assert!(
        early > 0,
        "no reserved batch of epoch N+1 started before epoch N's checkpoint finished"
    );
}

/// The grid contract on one shard's batch starts, in dispatch order: the
/// k-th batch after a rebase starts no earlier than the rebase's start +
/// kΔ − `jitter`, and a batch that starts more than Δ after its slot
/// rebases the grid.  A start is stamped a little after the dispatch the
/// proxy measures, so a batch within `jitter` of that threshold may have
/// rebased or not: the check follows both readings, as the earliest and the
/// latest slot the next batch may have, and holds each start to the
/// earliest.  A batch never goes out before its slot, so the next slot is
/// never more than Δ after a start;
/// before the first certain rebase the earliest slot is unknown.  Returns
/// the number of certain rebases.
fn assert_on_the_grid(starts: &[Instant], delta: Duration, jitter: Duration) -> usize {
    let mut earliest: Option<Instant> = None;
    let mut latest = match starts.first() {
        Some(&first) => first + delta,
        None => return 0,
    };
    let mut rebases = 0;
    for (index, &start) in starts.iter().enumerate().skip(1) {
        if let Some(slot) = earliest {
            assert!(
                start + jitter >= slot,
                "batch {index} started {:?} ahead of its slot on the Δ = {delta:?} grid",
                slot - start
            );
        }
        let may_keep = start.saturating_duration_since(latest) <= delta + jitter;
        let may_rebase = earliest.is_none_or(|slot| start > slot + delta - jitter);
        if !may_keep {
            rebases += 1;
        }
        // A slot is never after its batch's dispatch, so never after `start`.
        earliest = match may_keep {
            true => earliest.map(|slot| slot.min(start) + delta),
            false => Some(start + delta),
        };
        latest = match may_rebase {
            true => start + delta,
            false => (latest + delta).min(start + delta),
        };
    }
    rebases
}

/// Batches are paced on a grid `Δ` apart (`assert_on_the_grid`), and a
/// reserved batch held for longer than `Δ` goes out as soon as the hold
/// lifts instead of waiting a fresh `Δ`.  The gate delays every write-back
/// by `5Δ`, so every hold outlasts `Δ`.  The hold lifts after the flush,
/// before the checkpoint, so "less than `Δ/2` after the hold" implies less
/// than `Δ/2` after the write-back window closes — the bound checked here,
/// which a batch that waited a fresh `Δ` misses.
#[test]
fn batches_are_paced_on_a_delta_grid() {
    let delta = Duration::from_millis(20);
    let run = Run {
        depth: 2,
        interval: delta,
        write_latency: Duration::ZERO,
        write_back_delay: 5 * delta,
    };
    let traces = run_deployment(run, 5);
    let first_reserved = READ_BATCHES.div_ceil(2);
    let mut held = 0usize;
    for trace in &traces {
        let trace = trace.lock();
        // A start is stamped when the executor begins the batch's I/O, after
        // planning it: one that overlaps the checkpoint can wait a few ms
        // for a CPU (2 shards of unoptimised crypto on a small host).
        let jitter = delta / 4;
        let starts: Vec<Instant> = trace.batch_starts.iter().map(|&(_, at)| at).collect();
        let rebases = assert_on_the_grid(&starts, delta, jitter);
        assert!(rebases > 0, "no held batch rebased the grid");
        for &(epoch, wb_start, wb_end) in &trace.write_backs {
            let starts = trace.starts_of(epoch + 1);
            let (Some(wb_end), Some(&previous), Some(&reserved)) = (
                wb_end,
                starts.get(first_reserved - 1),
                starts.get(first_reserved),
            ) else {
                continue;
            };
            // The hold began Δ after `previous` and lasted past the start
            // of the write-back: longer than Δ.
            if wb_start < previous + 2 * delta {
                continue;
            }
            held += 1;
            let after = reserved.saturating_duration_since(wb_end);
            assert!(
                after < delta / 2,
                "epoch {}: the first reserved batch started {after:?} after epoch {epoch}'s \
                 write-back window closed",
                epoch + 1
            );
        }
    }
    assert!(held > 0, "no reserved batch was held for longer than Δ");
}

/// The depth-1 control: with the pipeline disabled the executor cannot even
/// *start* a next-epoch batch until the previous epoch's write-back (and
/// publish) completed — zero overlap, by construction.
#[test]
fn depth_one_never_overlaps_the_write_back_window() {
    let traces = run_deployment(Run::write_bound(1, Duration::from_millis(1)), 6);
    for trace in &traces {
        let trace = trace.lock();
        for &(epoch, wb_start, wb_end) in &trace.write_backs {
            let Some(wb_end) = wb_end else { continue };
            for &(batch_epoch, start) in &trace.batch_starts {
                assert!(
                    !(batch_epoch == epoch + 1 && start > wb_start && start < wb_end),
                    "depth 1 must not overlap: an epoch {} batch started inside epoch \
                     {epoch}'s write-back window",
                    epoch + 1
                );
            }
        }
    }
}
