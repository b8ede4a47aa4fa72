//! In-house observability for the Obladi reproduction — no external
//! dependencies beyond the vendored `parking_lot` shim.
//!
//! Two halves:
//!
//! * [`metrics`] — a sharded, lock-free [`MetricsRegistry`] of monotonic
//!   counters, gauges, and log-bucketed histograms.  Writers touch one
//!   cache-line-padded atomic stripe each; readers build consistent-enough
//!   [`RegistrySnapshot`]s without stalling the pipeline.  Cheap enough to
//!   stay on in release sweeps (a bench cell asserts the overhead).
//! * [`trace`] — a span tracer: bounded per-thread rings of typed
//!   [`trace::TraceEvent`]s (what, which epoch, how long), merged on
//!   demand.  The tail of the trace is dumped by [`report`] next to the
//!   metric tables when a chaos sweep fails.
//! * [`audit`] — the adversary-view trace: a bounded ring of what
//!   untrusted storage observes (op kind, address, sealed lengths, frame
//!   sizes, timing) plus the differential auditor that asserts two
//!   workloads produced indistinguishable trace shapes.
//! * [`json`] — the one JSON writer every exported document goes through.
//!
//! Naming convention: flat dotted strings, `layer.scope.metric` —
//! `proxy.phase.gate_wait_us`, `shard.abort.pipeline_incompatible`,
//! `remote.bytes_tx`.  Durations are always microseconds and suffixed
//! `_us`.
//!
//! The whole layer sits behind one process-wide kill switch
//! ([`set_enabled`]) so the overhead bench can A/B the instrumented
//! binary against itself.

#![forbid(unsafe_code)]

pub mod audit;
pub mod json;
pub mod metrics;
pub mod report;
pub mod trace;

pub use audit::{AuditKind, AuditOp, AuditRing, AuditTolerances, AuditVerdict, TraceShape};
pub use json::Json;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, RegistrySnapshot,
};
pub use trace::{SpanGuard, SpanTracer, TraceEvent};

use std::sync::atomic::Ordering;
use std::sync::OnceLock;

/// The process-wide registry used by the pipeline's instrumentation
/// points.  Benches call [`MetricsRegistry::reset`] between cells.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Turns every recording site (metrics and traces, global or local) on or
/// off.  Reads of existing values still work while disabled.
pub fn set_enabled(enabled: bool) {
    metrics::ENABLED.store(enabled, Ordering::SeqCst);
}

/// Whether recording is currently enabled.
pub fn is_enabled() -> bool {
    metrics::ENABLED.load(Ordering::SeqCst)
}

/// Renders the global registry and the global tracer's tail as a
/// human-readable report.  Testkit dumps this on chaos-sweep failure.
pub fn report() -> String {
    report::render_text(&global().snapshot(), Some(trace::global()))
}
