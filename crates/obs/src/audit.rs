//! The adversary-view trace: what untrusted storage actually observes.
//!
//! Everything else in this crate instruments the *trusted* side — phase
//! timings, abort causes, pipeline occupancy.  This module records the
//! other vantage point: the sequence of storage operations an adversary
//! watching the cloud endpoint sees, reduced to exactly the information
//! the threat model grants it — operation kind, physical address (bucket,
//! and slot for a slot read), sealed payload *length* (never plaintext),
//! wire frame sizes, and timing.
//!
//! Two halves:
//!
//! * [`AuditRing`] — a bounded ring of [`AuditOp`]s.  The storage crate's
//!   `RecordingStore` wrapper and the `obladi-stored` server loop push
//!   into it.
//! * [`TraceShape`] / [`compare`] — the offline differential auditor: two
//!   traces from *contrasting* workloads are reduced to their
//!   adversary-visible shape (per-epoch op rates, length sets, cadence)
//!   and compared.  The security argument of the paper's §9 says the
//!   shapes must be indistinguishable; a workload-dependent difference is
//!   a leak, and [`AuditVerdict::failures`] names it.
//!
//! Recording honours the process-wide kill switch
//! ([`crate::set_enabled`]), so the overhead budget
//! (`tests/obs_overhead.rs`) A/Bs it along with the rest of the
//! instrumentation.

use crate::metrics::ENABLED;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Default number of operations the ring retains.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// The operation classes an adversary can distinguish by message tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AuditKind {
    /// A single-slot read (the ORAM access phase).
    ReadSlot,
    /// A whole-bucket read (recovery).
    ReadBucket,
    /// A bucket replacement (the eviction write phase).
    WriteBucket,
    /// A bucket-version query.
    BucketVersion,
    /// A shadow-paging revert.
    RevertBucket,
    /// A metadata write (checkpoints).
    PutMeta,
    /// A metadata read.
    GetMeta,
    /// A WAL append.
    AppendLog,
    /// A WAL read (recovery).
    ReadLog,
    /// A WAL truncation (either end).
    TruncateLog,
    /// A stats scrape or other control operation.
    Control,
}

impl AuditKind {
    /// Every kind, in tag order.
    pub const ALL: [AuditKind; 11] = [
        AuditKind::ReadSlot,
        AuditKind::ReadBucket,
        AuditKind::WriteBucket,
        AuditKind::BucketVersion,
        AuditKind::RevertBucket,
        AuditKind::PutMeta,
        AuditKind::GetMeta,
        AuditKind::AppendLog,
        AuditKind::ReadLog,
        AuditKind::TruncateLog,
        AuditKind::Control,
    ];

    /// Stable label used in exports and failure messages.
    pub fn label(&self) -> &'static str {
        match self {
            AuditKind::ReadSlot => "read_slot",
            AuditKind::ReadBucket => "read_bucket",
            AuditKind::WriteBucket => "write_bucket",
            AuditKind::BucketVersion => "bucket_version",
            AuditKind::RevertBucket => "revert_bucket",
            AuditKind::PutMeta => "put_meta",
            AuditKind::GetMeta => "get_meta",
            AuditKind::AppendLog => "append_log",
            AuditKind::ReadLog => "read_log",
            AuditKind::TruncateLog => "truncate_log",
            AuditKind::Control => "control",
        }
    }

    /// Whether the sealed payloads of this kind come from a fixed set of
    /// lengths (slots and buckets are constant-size sealed objects, so the
    /// auditor checks their length sets *exactly*; checkpoint and WAL
    /// payloads are variable-length and judged by rate only).
    pub fn fixed_length(&self) -> bool {
        matches!(
            self,
            AuditKind::ReadSlot | AuditKind::ReadBucket | AuditKind::WriteBucket
        )
    }
}

/// One adversary-visible operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditOp {
    /// Microseconds since the ring was created (or last reset).
    pub at_us: u64,
    /// Which storage endpoint (shard) served the operation.
    pub store: u32,
    /// The operation class.
    pub kind: AuditKind,
    /// Physical address: bucket id for bucket/slot operations, a hash of
    /// the key for metadata operations, 0 where not applicable.
    pub addr: u64,
    /// The slot of the bucket a slot read asked for; 0 for every other kind.
    pub slot: u32,
    /// Sealed payload bytes (response body for reads, request body for
    /// writes) — lengths only, never contents.
    pub payload_len: u32,
    /// Wire size of the request frame, as framed by `obladi-transport`.
    pub req_frame: u32,
    /// Wire size of the response frame.
    pub resp_frame: u32,
}

/// A bounded ring of adversary-visible operations (oldest dropped under
/// pressure, with an explicit drop counter).
pub struct AuditRing {
    started: Mutex<Instant>,
    capacity: usize,
    ops: Mutex<VecDeque<AuditOp>>,
    dropped: AtomicU64,
}

impl Default for AuditRing {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl AuditRing {
    /// Creates a ring retaining up to `capacity` operations.
    pub fn new(capacity: usize) -> Self {
        AuditRing {
            started: Mutex::new(Instant::now()),
            capacity: capacity.max(1),
            ops: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records `op`, stamped with the ring-relative time (its own `at_us`
    /// is ignored).
    #[inline]
    pub fn record(&self, mut op: AuditOp) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        op.at_us = self.started.lock().elapsed().as_micros() as u64;
        let mut ops = self.ops.lock();
        if ops.len() >= self.capacity {
            ops.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ops.push_back(op);
    }

    /// The retained operations, in record order.
    pub fn ops(&self) -> Vec<AuditOp> {
        self.ops.lock().iter().copied().collect()
    }

    /// Number of retained operations.
    pub fn len(&self) -> usize {
        self.ops.lock().len()
    }

    /// Whether the ring holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.lock().is_empty()
    }

    /// Operations dropped (oldest-first) since the last reset.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Clears the ring and restarts its clock.
    pub fn reset(&self) {
        let mut ops = self.ops.lock();
        ops.clear();
        self.dropped.store(0, Ordering::Relaxed);
        *self.started.lock() = Instant::now();
    }
}

/// The process-wide ring the `obladi-stored` server loop records into —
/// what *this process's* storage endpoint showed the network.
pub fn global() -> &'static AuditRing {
    static GLOBAL: OnceLock<AuditRing> = OnceLock::new();
    GLOBAL.get_or_init(AuditRing::default)
}

// ---------------------------------------------------------------------
// The differential auditor
// ---------------------------------------------------------------------

/// Per-kind reduction of a trace.
#[derive(Debug, Clone, Default)]
pub struct KindShape {
    /// Operations of this kind.
    pub count: u64,
    /// Distinct sealed payload lengths, sorted.
    pub payload_lengths: Vec<u32>,
    /// Distinct wire frame lengths (request and response), sorted.
    pub frame_lengths: Vec<u32>,
    /// Mean sealed payload length.
    pub mean_payload: f64,
}

/// The adversary-visible shape of one recorded trace: everything the
/// differential auditor compares, nothing it does not.
#[derive(Debug, Clone)]
pub struct TraceShape {
    /// Human label for failure messages (e.g. `"read/d2"`).
    pub label: String,
    /// Wall-clock span of the recording, microseconds.
    pub wall_us: u64,
    /// Global epochs the run completed (the fixed rhythm's beat count).
    pub epochs: u64,
    /// Total operations.
    pub total_ops: u64,
    /// Per-kind shapes, in [`AuditKind::ALL`] order (zero-count kinds
    /// included so indexing is stable).
    pub kinds: Vec<(AuditKind, KindShape)>,
}

impl TraceShape {
    /// Reduces a recorded trace to its shape.  `epochs` comes from the
    /// proxy's own accounting (the adversary could count checkpoint
    /// writes; the proxy's number is the same and already at hand).
    pub fn from_ops(label: &str, ops: &[AuditOp], wall_us: u64, epochs: u64) -> TraceShape {
        let mut kinds: Vec<(AuditKind, KindShape)> = AuditKind::ALL
            .iter()
            .map(|&k| (k, KindShape::default()))
            .collect();
        for op in ops {
            let slot = kinds
                .iter_mut()
                .find(|(k, _)| *k == op.kind)
                .expect("ALL covers every kind");
            let shape = &mut slot.1;
            shape.count += 1;
            shape.mean_payload += op.payload_len as f64;
            if let Err(at) = shape.payload_lengths.binary_search(&op.payload_len) {
                shape.payload_lengths.insert(at, op.payload_len);
            }
            for frame in [op.req_frame, op.resp_frame] {
                if let Err(at) = shape.frame_lengths.binary_search(&frame) {
                    shape.frame_lengths.insert(at, frame);
                }
            }
        }
        for (_, shape) in &mut kinds {
            if shape.count > 0 {
                shape.mean_payload /= shape.count as f64;
            }
        }
        TraceShape {
            label: label.to_string(),
            wall_us,
            epochs,
            total_ops: ops.len() as u64,
            kinds,
        }
    }

    /// The shape of one kind.
    pub fn kind(&self, kind: AuditKind) -> &KindShape {
        &self
            .kinds
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("ALL covers every kind")
            .1
    }

    /// Operations of `kind` per completed epoch.
    pub fn per_epoch(&self, kind: AuditKind) -> f64 {
        if self.epochs == 0 {
            0.0
        } else {
            self.kind(kind).count as f64 / self.epochs as f64
        }
    }
}

/// Tolerances the differential comparison applies.
#[derive(Debug, Clone, Copy)]
pub struct AuditTolerances {
    /// Maximum relative difference in per-epoch op rates.  Physical read
    /// counts are not *exactly* workload-independent here (a read of a
    /// bucket sitting in the engine's write buffer is served locally), so
    /// the bound mirrors the repo's long-standing obliviousness tests.
    pub rate_tol: f64,
    /// Maximum relative difference in epochs/second (the fixed rhythm).
    pub cadence_tol: f64,
    /// A kind participates in checks only if either trace saw at least
    /// this many of its operations (filters one-off control traffic).
    pub material_floor: u64,
}

impl Default for AuditTolerances {
    fn default() -> Self {
        AuditTolerances {
            rate_tol: 0.35,
            cadence_tol: 0.35,
            material_floor: 24,
        }
    }
}

/// The auditor's verdict: which checks ran, and every leak found.
#[derive(Debug, Clone)]
pub struct AuditVerdict {
    /// Number of individual checks performed.
    pub checks: usize,
    /// Human-readable description of every failed check.
    pub failures: Vec<String>,
}

impl AuditVerdict {
    /// Whether the traces are indistinguishable under the tolerances.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        if self.pass() {
            format!("PASS ({} checks)", self.checks)
        } else {
            format!(
                "FAIL ({} of {} checks): {}",
                self.failures.len(),
                self.checks,
                self.failures.join("; ")
            )
        }
    }
}

/// Completed epochs per second — the rhythm's cadence.
fn epochs_per_sec(shape: &TraceShape) -> f64 {
    if shape.wall_us == 0 {
        0.0
    } else {
        shape.epochs as f64 / (shape.wall_us as f64 / 1_000_000.0)
    }
}

fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Differentially compares two trace shapes.  Both traces must come from
/// runs the adversary could not tell apart; every failure names a
/// workload-dependent difference in what storage observed.
pub fn compare(a: &TraceShape, b: &TraceShape, tol: &AuditTolerances) -> AuditVerdict {
    let mut checks = 0usize;
    let mut failures: Vec<String> = Vec::new();

    // The rhythm must beat in both runs at all.
    checks += 1;
    if a.epochs == 0 || b.epochs == 0 {
        failures.push(format!(
            "no epoch rhythm: {} completed {} epochs, {} completed {}",
            a.label, a.epochs, b.label, b.epochs
        ));
        return AuditVerdict { checks, failures };
    }

    // Cadence: epochs per second is the batching clock, which must be
    // workload-independent.
    checks += 1;
    let (cadence_a, cadence_b) = (epochs_per_sec(a), epochs_per_sec(b));
    let cadence = rel_diff(cadence_a, cadence_b);
    if cadence > tol.cadence_tol {
        failures.push(format!(
            "epoch cadence diverges {:.0}%: {} at {cadence_a:.1}/s vs {} at {cadence_b:.1}/s",
            cadence * 100.0,
            a.label,
            b.label,
        ));
    }

    for &kind in &AuditKind::ALL {
        let ka = a.kind(kind);
        let kb = b.kind(kind);
        if ka.count.max(kb.count) < tol.material_floor {
            continue;
        }

        // A kind material in one trace must be material in the other.
        checks += 1;
        if ka.count.min(kb.count) == 0 {
            failures.push(format!(
                "{} ops appear only in one trace: {}={} vs {}={}",
                kind.label(),
                a.label,
                ka.count,
                b.label,
                kb.count
            ));
            continue;
        }

        // Per-epoch op rate: fixed-size padded batches mean the count of
        // physical operations per epoch cannot follow the workload.
        checks += 1;
        let rate = rel_diff(a.per_epoch(kind), b.per_epoch(kind));
        if rate > tol.rate_tol {
            failures.push(format!(
                "{} per-epoch rate leaks the workload ({:.0}% apart): {} at {:.1}/epoch vs {} \
                 at {:.1}/epoch",
                kind.label(),
                rate * 100.0,
                a.label,
                a.per_epoch(kind),
                b.label,
                b.per_epoch(kind)
            ));
        }

        // Sealed slots and buckets are constant-size objects: their
        // payload and wire-frame lengths must be drawn from the same
        // fixed set, exactly.  (Checkpoint/WAL payloads are variable by
        // design and judged by rate above; their residual length leakage
        // is a documented open item.)
        if kind.fixed_length() {
            checks += 1;
            if ka.payload_lengths != kb.payload_lengths {
                failures.push(format!(
                    "{} payload lengths differ: {} saw {:?} vs {} saw {:?}",
                    kind.label(),
                    a.label,
                    ka.payload_lengths,
                    b.label,
                    kb.payload_lengths
                ));
            }
            checks += 1;
            if ka.frame_lengths != kb.frame_lengths {
                failures.push(format!(
                    "{} wire frame lengths differ: {} saw {:?} vs {} saw {:?}",
                    kind.label(),
                    a.label,
                    ka.frame_lengths,
                    b.label,
                    kb.frame_lengths
                ));
            }
        }
    }

    AuditVerdict { checks, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(at_us: u64, kind: AuditKind, payload_len: u32) -> AuditOp {
        AuditOp {
            at_us,
            store: 0,
            kind,
            addr: 7,
            slot: 3,
            payload_len,
            req_frame: 26,
            resp_frame: 18 + payload_len,
        }
    }

    fn uniform_trace(label: &str, reads: u64, payload: u32, epochs: u64) -> TraceShape {
        let ops: Vec<AuditOp> = (0..reads)
            .map(|i| op(i * 10, AuditKind::ReadSlot, payload))
            .collect();
        TraceShape::from_ops(label, &ops, 1_000_000, epochs)
    }

    #[test]
    fn ring_bounds_and_resets() {
        let ring = AuditRing::new(4);
        for i in 0..6 {
            ring.record(AuditOp {
                addr: i,
                ..op(0, AuditKind::ReadSlot, 64)
            });
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 2);
        let ops = ring.ops();
        assert_eq!(ops.first().unwrap().addr, 2, "oldest dropped first");
        ring.reset();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn disabled_switch_silences_recording() {
        let ring = AuditRing::new(8);
        crate::set_enabled(false);
        ring.record(op(0, AuditKind::ReadSlot, 64));
        crate::set_enabled(true);
        assert!(ring.is_empty());
    }

    #[test]
    fn identical_shapes_pass() {
        let a = uniform_trace("a", 480, 64, 10);
        let b = uniform_trace("b", 500, 64, 10);
        let verdict = compare(&a, &b, &AuditTolerances::default());
        assert!(verdict.pass(), "{}", verdict.summary());
        assert!(verdict.checks >= 4);
    }

    #[test]
    fn rate_leak_is_caught() {
        // Half the per-epoch read rate: the fixed-size batch was violated.
        let a = uniform_trace("clean", 500, 64, 10);
        let b = uniform_trace("leaky", 250, 64, 10);
        let verdict = compare(&a, &b, &AuditTolerances::default());
        assert!(!verdict.pass());
        assert!(
            verdict
                .failures
                .iter()
                .any(|f| f.contains("per-epoch rate")),
            "{}",
            verdict.summary()
        );
    }

    #[test]
    fn length_leak_is_caught() {
        let a = uniform_trace("fixed", 500, 64, 10);
        let mut ops: Vec<AuditOp> = (0..500)
            .map(|i| op(i * 10, AuditKind::ReadSlot, 64))
            .collect();
        ops[3].payload_len = 96; // one unsealed-length slot leaks
        let b = TraceShape::from_ops("variable", &ops, 1_000_000, 10);
        let verdict = compare(&a, &b, &AuditTolerances::default());
        assert!(!verdict.pass());
        assert!(
            verdict
                .failures
                .iter()
                .any(|f| f.contains("payload lengths differ")),
            "{}",
            verdict.summary()
        );
    }

    #[test]
    fn cadence_leak_is_caught() {
        let a = uniform_trace("steady", 500, 64, 10);
        let b = uniform_trace("stalled", 500, 64, 3);
        let verdict = compare(&a, &b, &AuditTolerances::default());
        assert!(!verdict.pass());
        assert!(
            verdict.failures.iter().any(|f| f.contains("cadence")),
            "{}",
            verdict.summary()
        );
    }

    #[test]
    fn dead_rhythm_fails_immediately() {
        let a = uniform_trace("live", 100, 64, 10);
        let b = uniform_trace("dead", 100, 64, 0);
        let verdict = compare(&a, &b, &AuditTolerances::default());
        assert!(!verdict.pass());
    }

    #[test]
    fn immaterial_kinds_are_ignored() {
        let mut ops: Vec<AuditOp> = (0..500)
            .map(|i| op(i * 10, AuditKind::ReadSlot, 64))
            .collect();
        // A couple of control scrapes in one trace only must not fail the
        // comparison.
        ops.push(op(9_999, AuditKind::Control, 0));
        let a = TraceShape::from_ops("with-control", &ops, 1_000_000, 10);
        let b = uniform_trace("without", 500, 64, 10);
        let verdict = compare(&a, &b, &AuditTolerances::default());
        assert!(verdict.pass(), "{}", verdict.summary());
    }
}
