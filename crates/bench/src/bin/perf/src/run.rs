//! One pass over one workload: set-up, warm-up, the measured window, the
//! outsider checks, and the arithmetic that turns counters and samples
//! into metric values.
//!
//! A pass is either untraced (no decorator in the call path; yields the
//! end-to-end metrics) or traced.  A traced pass cuts its window into
//! [`TRACE_SLICES`] equal slices and traces every second one, so traced
//! and untraced load alternate about once a second: the engine's rate
//! drifts and wanders over seconds, and only neighbouring slices see the
//! same engine.  Per-layer metrics add up the traced slices;
//! `trace.overhead_share` compares their commit rate with the rest.

use crate::checks;
use crate::client::{Span, TracedDb};
use crate::stats::{
    median, percentile, supported_tail, Values, ABORT_CAUSES, CORE_PHASES, STORE_KINDS, TPCC_KINDS,
};
use crate::store::{KindTotals, KIND_NAMES};
use crate::workloads::{Deployment, Generator, Mix, Oracle, Spec, CLIENTS, SHARDS};
use obladi_common::error::Result;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Slices of a traced window; the odd ones are traced.
const TRACE_SLICES: u32 = 24;

/// What one pass is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct PassOptions {
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Load discarded before the window opens.
    pub warmup: Duration,
    pub traced: bool,
    /// How many times to open and load; `setup_s` is the median.
    pub setups: usize,
    /// Test only: corrupt one expectation so the checks must fail.
    pub break_check: bool,
}

/// One generated transaction, driven to its end.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Completion time since the pass's origin.
    end_ns: u64,
    /// First begin to final acknowledgement, retries included.
    latency_ns: u64,
    /// The final attempt alone.
    attempt_ns: u64,
    attempts: u32,
    kind: usize,
    committed: bool,
    /// Whether it ran through the tracing decorator.
    traced: bool,
}

struct ClientResult {
    samples: Vec<Sample>,
    oracle: Oracle,
    spans: Vec<Span>,
}

/// Cumulative engine-side counters at one instant, flattened to names so
/// that windows subtract and traced slices add up key by key.
#[derive(Debug, Clone, Default)]
struct Counters {
    by_name: BTreeMap<String, f64>,
    /// The store decorators' totals per kind, summed over shards (empty
    /// when the pass installed none).
    timed: Vec<KindTotals>,
}

impl Counters {
    fn read(deployment: &Deployment, origin: Instant) -> Counters {
        let mut by_name = BTreeMap::new();
        let mut put = |name: String, value: f64| {
            by_name.insert(name, value);
        };
        put("ns".into(), origin.elapsed().as_nanos() as f64);
        put("cpu_s".into(), cpu_seconds());
        let sharded = deployment.db.stats();
        put("epochs".into(), sharded.global_epochs as f64);
        put("committed".into(), sharded.committed as f64);
        put("cross_shard".into(), sharded.cross_shard_committed as f64);
        let proxies = |field: fn(&obladi_core::ProxyStats) -> u64| -> f64 {
            sharded.shards.iter().map(|s| field(s) as f64).sum()
        };
        put("real_reads".into(), proxies(|s| s.real_reads));
        put("real_writes".into(), proxies(|s| s.real_writes));
        let stores = deployment.stores.iter().map(|s| s.stats().total_bytes());
        put("store_bytes".into(), stores.sum::<u64>() as f64);
        let oram = (0..SHARDS).filter_map(|i| deployment.db.shard(i).oram_stats());
        put(
            "evictions".into(),
            oram.map(|o| o.evictions).sum::<u64>() as f64,
        );
        let wire = deployment.transport_stats();
        put("wire.requests".into(), wire.requests as f64);
        put("wire.flushes".into(), wire.flushes as f64);
        put("wire.bytes_tx".into(), wire.bytes_tx as f64);
        put("wire.bytes_rx".into(), wire.bytes_rx as f64);
        let registry = obladi_obs::global().snapshot();
        for (name, total) in registry.counters {
            put(format!("counter.{name}"), total as f64);
        }
        for (name, histogram) in registry.histograms {
            put(format!("hist.{name}.count"), histogram.count as f64);
            put(format!("hist.{name}.sum"), histogram.sum as f64);
        }
        let mut timed = Vec::new();
        for decorator in &deployment.timed {
            KindTotals::merge_all(&mut timed, &decorator.totals());
        }
        Counters { by_name, timed }
    }

    /// Value of `name`; 0 for a counter the engine has not registered yet.
    fn get(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }

    fn seconds(&self) -> f64 {
        self.get("ns") / 1e9
    }

    /// `self - earlier`, key by key.
    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            by_name: self
                .by_name
                .iter()
                .map(|(name, value)| (name.clone(), value - earlier.get(name)))
                .collect(),
            timed: self
                .timed
                .iter()
                .zip(&earlier.timed)
                .map(|(now, then)| now.since(then))
                .collect(),
        }
    }

    /// Adds `other` into `self`, key by key.
    fn add(&mut self, other: &Counters) {
        for (name, value) in &other.by_name {
            *self.by_name.entry(name.clone()).or_insert(0.0) += value;
        }
        KindTotals::merge_all(&mut self.timed, &other.timed);
    }
}

/// Everything a pass produced.
pub struct PassReport {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Violations found by the checks; empty means correct.
    pub violations: Vec<String>,
    /// Per-client spans of the traced slices (empty when untraced).
    pub spans: Vec<Vec<Span>>,
    /// Sample count behind `txn_latency_p50_ms`.
    pub latency_samples: usize,
}

/// Opens and loads `setups` deployments, closing all but the last;
/// returns it with the median set-up time in seconds.
fn set_up(spec: &Spec, decorate: bool, setups: usize) -> Result<(Deployment, f64)> {
    let rows = spec.initial_rows()?;
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..setups.max(1) {
        if let Some(previous) = last.take() {
            Deployment::close(previous);
        }
        let started = Instant::now();
        let deployment = Deployment::open(spec, decorate)?;
        deployment.load(&rows, spec.load_chunk)?;
        seconds.push(started.elapsed().as_secs_f64());
        last = Some(deployment);
    }
    Ok((last.expect("at least one set-up ran"), median(&mut seconds)))
}

fn client_loop(
    deployment: &Deployment,
    spec: &Spec,
    seed: u64,
    client: usize,
    origin: Instant,
    stop: &AtomicBool,
    tracing: &AtomicBool,
) -> ClientResult {
    let db = &deployment.db;
    let mut generator = Generator::new(spec, seed, client);
    let traced_db = TracedDb::new(db, origin);
    let mut oracle = Oracle::default();
    let mut samples = Vec::new();
    let mut txn = client as u64;
    // Relaxed: both flags are plain signals that publish no other data.
    while !stop.load(Ordering::Relaxed) {
        let kind = generator.next_kind();
        let traced = tracing.load(Ordering::Relaxed);
        let started = Instant::now();
        let mut attempt_started = started;
        let mark = || attempt_started = Instant::now();
        let outcome = if traced {
            traced_db.label(txn, kind.name());
            generator.run(&traced_db, kind, &mut oracle, mark)
        } else {
            generator.run(db, kind, &mut oracle, mark)
        };
        let ended = Instant::now();
        samples.push(Sample {
            end_ns: (ended - origin).as_nanos() as u64,
            latency_ns: (ended - started).as_nanos() as u64,
            attempt_ns: (ended - attempt_started).as_nanos() as u64,
            attempts: outcome.attempts,
            kind: kind.tpcc_index(),
            committed: outcome.committed,
            traced,
        });
        txn += CLIENTS as u64;
    }
    ClientResult {
        samples,
        oracle,
        spans: traced_db.into_spans(),
    }
}

/// Iterations of the host probe: about a millisecond on the host this was
/// sized on, when it is quiet.
const PROBE_ITERATIONS: u32 = 500_000;
const PROBE_EVERY: Duration = Duration::from_millis(250);

/// Times a fixed add-rotate-xor loop that touches no memory and calls no
/// engine code: an independent witness of how fast the host's cores are
/// right now.  Returns microseconds.
fn host_probe_us() -> f64 {
    let started = Instant::now();
    let mut s = [0x6170_7865_u32, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
    for _ in 0..PROBE_ITERATIONS {
        s[0] = s[0].wrapping_add(s[1]);
        s[3] = (s[3] ^ s[0]).rotate_left(16);
        s[2] = s[2].wrapping_add(s[3]);
        s[1] = (s[1] ^ s[2]).rotate_left(12);
    }
    std::hint::black_box(s);
    started.elapsed().as_secs_f64() * 1e6
}

/// Sleeps for `duration`, probing the host every [`PROBE_EVERY`].
fn rest(duration: Duration, probes: &mut Vec<f64>) {
    let until = Instant::now() + duration;
    loop {
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(PROBE_EVERY));
        probes.push(host_probe_us());
    }
}

/// Sleeps through the window, probing the host.  A traced pass toggles
/// tracing at every slice boundary and returns the traced slices' counters,
/// added up.
fn hold_window(
    deployment: &Deployment,
    options: &PassOptions,
    origin: Instant,
    tracing: &AtomicBool,
    probes: &mut Vec<f64>,
) -> Option<Counters> {
    if !options.traced {
        rest(options.window, probes);
        return None;
    }
    let mut traced = Counters::default();
    for slice in 0..TRACE_SLICES {
        let on = slice % 2 == 1;
        for store in &deployment.timed {
            store.set_enabled(on);
        }
        tracing.store(on, Ordering::Relaxed);
        let before = on.then(|| Counters::read(deployment, origin));
        rest(options.window / TRACE_SLICES, probes);
        if let Some(before) = before {
            traced.add(&Counters::read(deployment, origin).since(&before));
        }
    }
    Some(traced)
}

/// Runs one pass of `spec`.
pub fn run_pass(spec: &Spec, options: &PassOptions) -> Result<PassReport> {
    let pass_started = Instant::now();
    let (deployment, setup_s) = set_up(spec, options.traced, options.setups)?;
    let set_up_done = pass_started.elapsed();
    let origin = Instant::now();
    let stop = AtomicBool::new(false);
    let tracing = AtomicBool::new(false);

    let mut probes = Vec::new();
    let (open, traced, close, clients) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (deployment, stop, tracing) = (&deployment, &stop, &tracing);
                scope.spawn(move || {
                    client_loop(
                        deployment,
                        spec,
                        options.seed,
                        client,
                        origin,
                        stop,
                        tracing,
                    )
                })
            })
            .collect();
        std::thread::sleep(options.warmup);
        let open = Counters::read(&deployment, origin);
        let traced = hold_window(&deployment, options, origin, &tracing, &mut probes);
        let close = Counters::read(&deployment, origin);
        stop.store(true, Ordering::Relaxed);
        let clients: Vec<ClientResult> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (open, traced, close, clients)
    });

    let load_done = pass_started.elapsed();
    let mut oracles: Vec<Oracle> = clients.iter().map(|c| c.oracle.clone()).collect();
    if options.break_check {
        checks::corrupt_expectation(spec, &mut oracles);
    }
    let mut violations: Vec<String> = oracles
        .iter_mut()
        .flat_map(|oracle| std::mem::take(&mut oracle.violations))
        .collect();
    violations.extend(checks::verify(
        spec,
        &deployment.db,
        &oracles,
        "before crash",
    )?);
    // Acknowledged implies durable: the same expectations must hold after
    // every shard lost its volatile state.
    let recover_ms = crash_and_recover(&deployment)?;
    violations.extend(checks::verify(
        spec,
        &deployment.db,
        &oracles,
        "after recovery",
    )?);
    eprintln!(
        "perf: {} pass took {:.1} s to set up, {:.1} s under load, {:.1} s to check",
        spec.name,
        set_up_done.as_secs_f64(),
        (load_done - set_up_done).as_secs_f64(),
        (pass_started.elapsed() - load_done).as_secs_f64(),
    );

    let window: Vec<Sample> = clients
        .iter()
        .flat_map(|c| c.samples.iter())
        .filter(|s| (s.end_ns as f64) >= open.get("ns") && (s.end_ns as f64) < close.get("ns"))
        .copied()
        .collect();
    let whole = close.since(&open);
    let mut values = Values::new();
    let mut latency_samples = 0;
    // Both passes: how fast the host was, and what a commit cost in CPU
    // time.  A slow spell of the host raises both; a change that makes the
    // engine do more raises only the second.
    values.insert("host.probe_us_p50".into(), median(&mut probes));
    values.insert(
        "host.cpu_ms_per_commit".into(),
        whole.get("cpu_s") * 1_000.0 / committed(&window) as f64,
    );
    if let Some(traced) = &traced {
        let spans: Vec<&Span> = clients.iter().flat_map(|c| c.spans.iter()).collect();
        per_layer_values(&mut values, spec, &window, &spans, &whole, traced);
        values.insert(
            "client.rate_decay".into(),
            rate_decay(&window, &open, &close),
        );
        values.insert(
            "core.recover_ms".into(),
            recover_ms.iter().sum::<f64>() / recover_ms.len() as f64,
        );
        let stash = (0..SHARDS).filter_map(|i| deployment.db.shard(i).oram_stats());
        values.insert(
            "oram.stash_peak".into(),
            stash.map(|o| o.stash_peak).max().unwrap_or(0) as f64,
        );
        values.insert("host.rss_mib_end".into(), rss_mib());
    } else {
        latency_samples = end_to_end_values(&mut values, &window, &whole);
        values.insert("setup_s".into(), setup_s);
    }
    deployment.close();
    Ok(PassReport {
        values,
        attempted: window.len() as u64,
        failed: window.iter().filter(|s| !s.committed).count() as u64,
        violations,
        spans: clients.into_iter().map(|c| c.spans).collect(),
        latency_samples,
    })
}

/// Crashes every shard, then recovers them side by side; returns each
/// shard's recovery time in ms.
fn crash_and_recover(deployment: &Deployment) -> Result<Vec<f64>> {
    let db = &deployment.db;
    for shard in 0..SHARDS {
        db.crash_shard(shard);
    }
    let recoveries: Vec<Result<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|shard| {
                scope.spawn(move || {
                    let started = Instant::now();
                    db.recover_shard(shard)?;
                    Ok(started.elapsed().as_secs_f64() * 1_000.0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("recovery thread panicked"))
            .collect()
    });
    recoveries.into_iter().collect()
}

fn committed(samples: &[Sample]) -> usize {
    samples.iter().filter(|s| s.committed).count()
}

/// Ascending latencies, in ms, of the committed samples.
fn sorted_ms(samples: &[Sample], field: impl Fn(&Sample) -> u64) -> Vec<f64> {
    let mut ms: Vec<f64> = samples
        .iter()
        .filter(|s| s.committed)
        .map(|s| field(s) as f64 / 1e6)
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// Fills the end-to-end metrics measured over the window; returns the
/// sample count behind the latency median.
fn end_to_end_values(values: &mut Values, window: &[Sample], whole: &Counters) -> usize {
    let commits = committed(window);
    let latencies = sorted_ms(window, |s| s.latency_ns);
    let attempts: u64 = window.iter().map(|s| s.attempts as u64).sum();
    values.insert("committed_per_s".into(), commits as f64 / whole.seconds());
    values.insert("txn_latency_p50_ms".into(), percentile(&latencies, 50.0));
    values.insert(
        "attempts_per_commit".into(),
        attempts as f64 / commits as f64,
    );
    values.insert(
        "store_bytes_per_epoch".into(),
        whole.get("store_bytes") / whole.get("epochs"),
    );
    latencies.len()
}

/// Commit rate of the window's last quarter over that of its first.
fn rate_decay(window: &[Sample], open: &Counters, close: &Counters) -> f64 {
    let quarter = (close.get("ns") - open.get("ns")) / 4.0;
    let commits_between = |from: f64, to: f64| {
        let inside =
            |s: &&Sample| s.committed && (s.end_ns as f64) >= from && (s.end_ns as f64) < to;
        window.iter().filter(inside).count() as f64
    };
    commits_between(close.get("ns") - quarter, close.get("ns"))
        / commits_between(open.get("ns"), open.get("ns") + quarter)
}

/// Fills every per-layer metric a run can observe in situ, from the
/// window's samples, the traced slices' spans and summed counters
/// (`traced`), and the whole window's counters (`whole`).
fn per_layer_values(
    values: &mut Values,
    spec: &Spec,
    window: &[Sample],
    spans: &[&Span],
    whole: &Counters,
    traced: &Counters,
) {
    let mut set = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    let (with, without): (Vec<Sample>, Vec<Sample>) = window.iter().partition(|s| s.traced);

    // client.*: spans for single calls, samples for whole transactions.
    let mut span_count = 0usize;
    for op in ["begin", "read", "write", "commit"] {
        let mut us: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == op)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        us.sort_by(f64::total_cmp);
        span_count += us.len();
        set(&format!("client.{op}_us_p50"), percentile(&us, 50.0));
        set(&format!("client.{op}_us_p95"), percentile(&us, 95.0));
    }
    set("client.spans", span_count as f64);
    let latencies = sorted_ms(&with, |s| s.latency_ns);
    set("client.txn_latency_p95_ms", percentile(&latencies, 95.0));
    if let Some(pct) = supported_tail(latencies.len()) {
        set("client.txn_latency_tail_pct", pct);
        set("client.txn_latency_tail_ms", percentile(&latencies, pct));
    }
    set(
        "client.attempt_latency_p50_ms",
        percentile(&sorted_ms(&with, |s| s.attempt_ns), 50.0),
    );
    let attempts: u64 = with.iter().map(|s| s.attempts as u64).sum();
    set(
        "client.abort_rate",
        1.0 - committed(&with) as f64 / attempts.max(1) as f64,
    );
    if spec.mix == Mix::Tpcc {
        for (index, kind) in TPCC_KINDS.iter().enumerate() {
            let of_kind: Vec<Sample> = with.iter().filter(|s| s.kind == index).copied().collect();
            set(
                &format!("client.tpcc.{kind}_p50_ms"),
                percentile(&sorted_ms(&of_kind, |s| s.latency_ns), 50.0),
            );
        }
    }
    let traced_s = traced.seconds();
    let traced_rate = committed(&with) as f64 / traced_s;
    let untraced_rate = committed(&without) as f64 / (whole.seconds() - traced_s);
    set("trace.overhead_share", 1.0 - traced_rate / untraced_rate);

    // shard.*
    let epochs = traced.get("epochs");
    set("shard.epoch_period_ms", traced_s * 1_000.0 / epochs);
    set("shard.epochs", epochs);
    set(
        "shard.cross_shard_share",
        traced.get("cross_shard") / traced.get("committed").max(1.0),
    );
    let mut other_aborts = 0.0;
    let mut by_cause = [0.0; ABORT_CAUSES.len()];
    for (name, count) in &traced.by_name {
        // `counter.shard.<index>.abort.<cause>`, one per shard and cause.
        let Some((_, cause)) = name
            .strip_prefix("counter.shard.")
            .and_then(|rest| rest.split_once(".abort."))
        else {
            continue;
        };
        match ABORT_CAUSES.iter().position(|known| *known == cause) {
            Some(index) => by_cause[index] += count,
            None => other_aborts += count,
        }
    }
    for (cause, count) in ABORT_CAUSES.iter().zip(by_cause) {
        set(&format!("shard.abort.{cause}"), count);
    }
    set("shard.abort.other", other_aborts);
    set(
        "shard.twin.rebuilt",
        traced.get("counter.shard.twin.rebuilt"),
    );

    // core.*: slot capacity against demand, ack rungs, engine phases.
    let g = spec.geometry;
    let read_slots = g.read_batches as f64 * g.read_batch_size as f64 * SHARDS as f64 * epochs;
    set("core.read_slots_per_s", read_slots / traced_s);
    set(
        "core.read_slot_demand_share",
        traced.get("real_reads") / read_slots,
    );
    set(
        "core.write_slot_demand_share",
        traced.get("real_writes") / (g.write_batch_size as f64 * SHARDS as f64 * epochs),
    );
    for rung in ["decision", "durable", "publish"] {
        set(
            &format!("core.acked_at_{rung}"),
            traced.get(&format!("counter.proxy.commit.acked_at_{rung}")),
        );
    }
    for phase in CORE_PHASES {
        let histogram = format!("hist.proxy.phase.{phase}_us");
        set(
            &format!("core.phase.{phase}_ms_mean"),
            traced.get(&format!("{histogram}.sum"))
                / traced.get(&format!("{histogram}.count")).max(1.0)
                / 1_000.0,
        );
    }
    set("oram.evictions_per_epoch", traced.get("evictions") / epochs);

    // storage.*: the decorators' totals over the traced slices, all shards.
    let mut busy_ns = 0u64;
    for (kind, total) in KIND_NAMES.iter().zip(&traced.timed) {
        busy_ns += total.busy_ns;
        if STORE_KINDS.contains(kind) {
            set(
                &format!("storage.{kind}.calls_per_epoch"),
                total.calls as f64 / epochs,
            );
            set(
                &format!("storage.{kind}.busy_ms_per_epoch"),
                total.busy_ns as f64 / 1e6 / epochs,
            );
            set(
                &format!("storage.{kind}.bytes_per_epoch"),
                total.bytes as f64 / epochs,
            );
            set(&format!("storage.{kind}.us_p50"), total.p50_us());
        }
    }
    set(
        "storage.busy_share",
        busy_ns as f64 / 1e9 / (traced_s * SHARDS as f64),
    );

    // transport.*: zero on in-memory stores.
    let flushes = traced.get("wire.flushes");
    if flushes > 0.0 {
        let wire_bytes = traced.get("wire.bytes_tx") + traced.get("wire.bytes_rx");
        set(
            "transport.requests_per_flush",
            traced.get("wire.requests") / flushes,
        );
        set(
            "transport.bytes_tx_per_epoch",
            traced.get("wire.bytes_tx") / epochs,
        );
        set(
            "transport.bytes_rx_per_epoch",
            traced.get("wire.bytes_rx") / epochs,
        );
        set(
            "transport.wire_overhead",
            wire_bytes / traced.get("store_bytes").max(1.0),
        );
    }
}

/// Ticks per second of the `/proc` CPU time fields (`USER_HZ`): 100 on
/// every Linux port.
const USER_HZ: f64 = 100.0;

/// CPU seconds this process has used so far, user plus system, all threads.
fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // The command name may hold spaces; fields count from its ")".
            let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
            let user: f64 = fields.next()?.parse().ok()?;
            let system: f64 = fields.next()?.parse().ok()?;
            Some((user + system) / USER_HZ)
        })
        .unwrap_or(0.0)
}

/// Resident set size of this process in MiB (0 where `/proc` is absent).
fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(pairs: &[(&str, f64)]) -> Counters {
        Counters {
            by_name: pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            timed: Vec::new(),
        }
    }

    #[test]
    fn traced_slices_add_up_key_by_key() {
        let at = |ns: f64, epochs: f64| counters(&[("ns", ns), ("epochs", epochs)]);
        let mut traced = Counters::default();
        traced.add(&at(2e9, 80.0).since(&at(1e9, 40.0)));
        // A counter the engine registers later counts from zero.
        let late = counters(&[("ns", 4e9), ("epochs", 150.0), ("counter.new", 3.0)]);
        traced.add(&late.since(&at(3e9, 120.0)));
        assert_eq!(traced.seconds(), 2.0);
        assert_eq!(traced.get("epochs"), 70.0);
        assert_eq!(traced.get("counter.new"), 3.0);
        assert_eq!(traced.get("absent"), 0.0);
    }
}
