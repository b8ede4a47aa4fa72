//! Order statistics, the metric name tables and the result-line writer.
//!
//! The two tables are the single source of metric names and units inside
//! the binary; a unit test holds them equal to `BENCHMARK.json`.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("committed_per_s", "1/s"),
    ("txn_latency_p50_ms", "ms"),
    ("attempts_per_commit", "ratio"),
    ("store_bytes_per_epoch", "B"),
    ("setup_s", "s"),
];

/// Store operation kinds reported, in table order: the ones the engine
/// calls in steady state.  The decorator times the rest too (`put_meta`,
/// `read_log`, `truncate_log`, ...) but they would read 0 on every run.
pub const STORE_KINDS: [&str; 3] = ["read_slot", "write_bucket", "append_log"];

/// Abort causes reported by name; everything else lands in `other`.
pub const ABORT_CAUSES: [&str; 4] = [
    "txn_aborted",
    "batch_full",
    "pipeline_incompatible",
    "barrier_stalled",
];

/// The TPC-C transaction kinds `tpcc_mem` draws, in `TpccTxn` declaration
/// order.
pub const TPCC_KINDS: [&str; 3] = ["new_order", "payment", "order_status"];

/// Engine phase histograms copied from `obladi_obs::global()`
/// (`proxy.phase.<name>_us`).
pub const CORE_PHASES: [&str; 6] = [
    "read_fetch",
    "gate_wait",
    "decision_log",
    "write_back",
    "checkpoint",
    "slot_wait",
];

/// `(name, unit)` of every per-layer metric.  A metric that does not apply
/// to a workload (TPC-C kinds on YCSB, `transport.*` on in-memory stores)
/// is printed as 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut table: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| table.push((name.to_string(), unit));
    for op in ["begin", "read", "write", "commit"] {
        add(&format!("client.{op}_us_p50"), "us");
        add(&format!("client.{op}_us_p95"), "us");
    }
    add("client.txn_latency_p95_ms", "ms");
    add("client.txn_latency_tail_ms", "ms");
    add("client.txn_latency_tail_pct", "pct");
    add("client.attempt_latency_p50_ms", "ms");
    add("client.abort_rate", "share");
    for kind in TPCC_KINDS {
        add(&format!("client.tpcc.{kind}_p50_ms"), "ms");
    }
    add("client.rate_decay", "ratio");
    add("client.spans", "count");
    add("shard.epoch_period_ms", "ms");
    add("shard.epochs", "count");
    add("shard.cross_shard_share", "share");
    for cause in ABORT_CAUSES {
        add(&format!("shard.abort.{cause}"), "count");
    }
    add("shard.abort.other", "count");
    add("shard.twin.rebuilt", "count");
    add("core.read_slots_per_s", "1/s");
    add("core.read_slot_demand_share", "share");
    add("core.write_slot_demand_share", "share");
    for rung in ["decision", "durable", "publish"] {
        add(&format!("core.acked_at_{rung}"), "count");
    }
    for phase in CORE_PHASES {
        add(&format!("core.phase.{phase}_ms_mean"), "ms");
    }
    add("core.recover_ms", "ms");
    add("core.mvtso_txn_ns", "ns");
    add("oram.read_batch_us", "us");
    add("oram.write_batch_us", "us");
    add("oram.flush_us", "us");
    add("oram.checkpoint_full_us", "us");
    add("oram.checkpoint_full_bytes", "B");
    add("oram.checkpoint_delta_us", "us");
    add("oram.stash_peak", "count");
    add("oram.evictions_per_epoch", "count");
    add("crypto.seal_slot_ns", "ns");
    add("crypto.open_slot_ns", "ns");
    add("crypto.seal_64k_mb_per_s", "MB/s");
    add("crypto.chacha20_mb_per_s", "MB/s");
    add("crypto.sha256_mb_per_s", "MB/s");
    for kind in STORE_KINDS {
        add(&format!("storage.{kind}.calls_per_epoch"), "count");
        add(&format!("storage.{kind}.busy_ms_per_epoch"), "ms");
        add(&format!("storage.{kind}.bytes_per_epoch"), "B");
        add(&format!("storage.{kind}.us_p50"), "us");
    }
    add("storage.busy_share", "share");
    add("storage.wal_append_us", "us");
    add("storage.oplog_append_us", "us");
    add("transport.requests_per_flush", "ratio");
    add("transport.bytes_tx_per_epoch", "B");
    add("transport.bytes_rx_per_epoch", "B");
    add("transport.wire_overhead", "ratio");
    add("transport.frame_codec_ns", "ns");
    add("transport.rtt_read_slot_us", "us");
    add("transport.rtt_write_bucket_us", "us");
    add("ledger.predicted_epoch_ms", "ms");
    add("ledger.unexplained_share", "share");
    add("trace.overhead_share", "share");
    add("host.rss_mib_end", "MiB");
    add("host.cpu_ms_per_commit", "ms");
    add("host.probe_us_p50", "us");
    table
}

/// Metric values by name; what a pass hands to the writer.
pub type Values = BTreeMap<String, f64>;

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest tail percentile a sample of `count` supports: the largest
/// candidate that still leaves at least ten samples beyond it.  `None`
/// below twenty samples, where even the median has fewer than ten beyond.
pub fn supported_tail(count: usize) -> Option<f64> {
    // (percentile, samples beyond it per thousand): whole numbers, so that
    // exactly ten samples beyond is not lost to rounding.
    [
        (99.9, 1),
        (99.0, 10),
        (95.0, 50),
        (90.0, 100),
        (75.0, 250),
        (50.0, 500),
    ]
    .into_iter()
    .find(|(_, beyond)| count * beyond >= 10_000)
    .map(|(pct, _)| pct)
}

fn json_number(value: f64) -> String {
    // JSON has no NaN or infinity; a metric that could not be computed
    // reads as 0, like one that does not apply.
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Renders `{"name": {"value": v, "unit": "u"}, ...}` for every row of
/// `table`, in table order; a name missing from `values` is printed as 0.
pub fn metrics_json<N: AsRef<str>>(table: &[(N, &str)], values: &Values) -> String {
    let rows: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let name = name.as_ref();
            let value = values.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// The result line of the benchmark contract: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics_json}}}"
    )
}

/// Escapes a string for inclusion in the on-disk JSON copies.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picker_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(99), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn median_and_percentile_are_order_statistics() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 95.0), 95.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let table = per_layer();
        assert!(table.len() <= 128, "{} per-layer metrics", table.len());
        let mut names: Vec<&str> = table
            .iter()
            .map(|(n, _)| n.as_str())
            .chain(END_TO_END.iter().map(|(n, _)| *n))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        let mut values = Values::new();
        values.insert("a".into(), f64::NAN);
        values.insert("b".into(), 1.25);
        let json = metrics_json(&[("a", "ms"), ("b", "s"), ("c", "count")], &values);
        assert_eq!(
            json,
            "{\"a\": {\"value\": 0, \"unit\": \"ms\"}, \"b\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"c\": {\"value\": 0, \"unit\": \"count\"}}"
        );
    }
}
