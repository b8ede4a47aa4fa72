//! Renderers: a human-readable text report (chaos-failure dumps) and a
//! JSON snapshot through [`crate::json`] (the benches' `--metrics-out`
//! files).

use crate::json::Json;
use crate::metrics::{HistogramSnapshot, RegistrySnapshot};
use crate::trace::{SpanTracer, TraceEvent};
use std::fmt::Write as _;

/// How many trailing trace events the text report shows.
const REPORT_TRACE_TAIL: usize = 48;

/// Renders a registry snapshot (and optionally a tracer's tail) as a
/// human-readable report.
pub fn render_text(snapshot: &RegistrySnapshot, tracer: Option<&SpanTracer>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== obs report ===");
    if !snapshot.counters.is_empty() {
        let _ = writeln!(out, "-- counters --");
        for (name, value) in &snapshot.counters {
            let _ = writeln!(out, "{name:<48} {value:>12}");
        }
    }
    if !snapshot.gauges.is_empty() {
        let _ = writeln!(out, "-- gauges --");
        for (name, value) in &snapshot.gauges {
            let _ = writeln!(out, "{name:<48} {value:>12}");
        }
    }
    if !snapshot.histograms.is_empty() {
        let _ = writeln!(out, "-- histograms (us) --");
        let _ = writeln!(
            out,
            "{:<48} {:>9} {:>11} {:>9} {:>9} {:>9}",
            "name", "count", "mean", "p50", "p99", "max"
        );
        for (name, h) in &snapshot.histograms {
            let _ = writeln!(
                out,
                "{:<48} {:>9} {:>11.1} {:>9} {:>9} {:>9}",
                name,
                h.count,
                h.mean(),
                h.p50(),
                h.p99(),
                h.max
            );
        }
    }
    if let Some(tracer) = tracer {
        let events = tracer.events();
        let dropped = tracer.dropped();
        let tail_start = events.len().saturating_sub(REPORT_TRACE_TAIL);
        let _ = writeln!(
            out,
            "-- trace tail ({} of {} events, {} dropped) --",
            events.len() - tail_start,
            events.len(),
            dropped
        );
        for event in &events[tail_start..] {
            let _ = writeln!(
                out,
                "  t+{:>10}us epoch {:>6} {:<32} {:>9}us",
                event.at_us, event.epoch, event.kind, event.dur_us
            );
        }
    }
    out
}

/// `(name, value)` pairs as one JSON object.
fn named<T>(pairs: &[(String, T)], value: impl Fn(&T) -> Json) -> Json {
    Json::object(pairs.iter().map(|(name, v)| (name.as_str(), value(v))))
}

fn histogram(h: &HistogramSnapshot) -> Json {
    Json::object([
        ("count", h.count.into()),
        ("sum_us", h.sum.into()),
        ("mean_us", Json::Fixed(h.mean(), 1)),
        ("p50_us", h.p50().into()),
        ("p99_us", h.p99().into()),
        ("max_us", h.max.into()),
    ])
}

/// Renders a registry snapshot as a JSON object:
/// `{"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum_us,
/// mean_us, p50_us, p99_us, max_us}}}`.
pub fn render_json(snapshot: &RegistrySnapshot) -> String {
    Json::object([
        ("counters", named(&snapshot.counters, |&v| v.into())),
        ("gauges", named(&snapshot.gauges, |&v| v.into())),
        ("histograms", named(&snapshot.histograms, histogram)),
    ])
    .render()
}

/// Renders a tracer's merged events as a JSON array (newest last).
pub fn render_trace_json(events: &[TraceEvent]) -> String {
    let events = events.iter().map(|event| {
        Json::object([
            ("at_us", event.at_us.into()),
            ("epoch", event.epoch.into()),
            ("kind", event.kind.into()),
            ("dur_us", event.dur_us.into()),
        ])
    });
    Json::Array(events.collect()).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let registry = MetricsRegistry::new();
        registry.counter("shard.abort.batch_full").add(3);
        registry.gauge("proxy.pipeline.deciding").set(1);
        registry.histogram("proxy.phase.gate_wait_us").record(1500);
        registry.histogram("proxy.phase.gate_wait_us").record(300);
        registry
    }

    #[test]
    fn text_report_contains_all_sections() {
        let registry = sample_registry();
        let tracer = SpanTracer::new(8);
        tracer.record("proxy.write_back", 4, 250);
        let text = render_text(&registry.snapshot(), Some(&tracer));
        assert!(text.contains("shard.abort.batch_full"));
        assert!(text.contains("proxy.pipeline.deciding"));
        assert!(text.contains("proxy.phase.gate_wait_us"));
        assert!(text.contains("proxy.write_back"));
        assert!(text.contains("epoch      4"));
    }

    #[test]
    fn json_is_well_formed() {
        let registry = sample_registry();
        let json = render_json(&registry.snapshot());
        // Structural sanity without a JSON parser: balanced braces, the
        // three sections, no trailing commas before closers.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"shard.abort.batch_full\": 3"));
        assert!(json.contains("\"count\": 2"));
        assert!(!json.contains(",\n}"));
        assert!(!json.contains(",\n  }"));
    }

    #[test]
    fn trace_json_lists_events() {
        let tracer = SpanTracer::new(8);
        tracer.record("a", 1, 10);
        tracer.record("b", 2, 0);
        let json = render_trace_json(&tracer.events());
        assert!(json.contains("\"kind\": \"a\""));
        assert!(json.contains("\"epoch\": 2"));
        assert_eq!(json.matches('{').count(), 2);
        assert!(!json.contains(",\n]"));
    }
}
