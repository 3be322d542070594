//! The metric catalogue, sample statistics and the result output.
//!
//! Standard output carries one row per context fact and per metric
//! (`context<TAB>key<TAB>value`, `metric<TAB>name<TAB>value<TAB>unit`) and,
//! as its last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Diagnostics go to standard error.

use crate::checks::Checks;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit, better)`. Every workload reports all of
/// them from the untraced run.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("commits_per_s", "1/s", "higher"),
];

/// Per-layer metrics: `(name, unit, better)`. Every workload reports all of
/// them from the traced run; a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("engine.events_s", "s", "lower"),
    ("engine.waves", "count", "lower"),
    ("scale.run_s", "s", "lower"),
    ("scale.run_1w_s", "s", "lower"),
    ("parallel.scale_speedup", "ratio", "higher"),
    ("store.put_chunk_ns", "ns", "lower"),
    ("store.commit_manifest_ns", "ns", "lower"),
    ("store.resident_mb", "MB", "lower"),
    ("store.bytes_per_client", "B", "lower"),
    ("store.drop_s", "s", "lower"),
    ("store.aggregate_s", "s", "lower"),
    ("store.chunk_puts", "count", "lower"),
    ("store.dedup_hit_ratio", "ratio", "higher"),
    ("store.unique_chunks", "count", "lower"),
    ("store.freed_chunks", "count", "higher"),
    ("store.reclaimed_mb", "MB", "higher"),
    ("kernel.sha256_mb_s", "MB/s", "higher"),
    ("kernel.cdc_mb_s", "MB/s", "higher"),
    ("kernel.lzss_text_mb_s", "MB/s", "higher"),
    ("kernel.lzss_random_mb_s", "MB/s", "higher"),
    ("kernel.chacha20_mb_s", "MB/s", "higher"),
    ("kernel.rsync_delta_mb_s", "MB/s", "higher"),
    ("pipeline.process_mb_s", "MB/s", "higher"),
    ("workload.generate_mb_s", "MB/s", "higher"),
    ("tcp.transfer_1mb_us", "us", "lower"),
    ("testbed.run_sync_ms.p50", "ms", "lower"),
    ("testbed.run_sync_ms.p90", "ms", "lower"),
    ("testbed.run_sync_ms.count", "count", "higher"),
    ("paper.table1_s", "s", "lower"),
    ("paper.fig4_s", "s", "lower"),
    ("paper.fig5_s", "s", "lower"),
    ("paper.fig6_s", "s", "lower"),
    ("fleet.run_s", "s", "lower"),
    ("fleet.run_1w_s", "s", "lower"),
    ("parallel.fleet_speedup", "ratio", "higher"),
    ("fleet.synced_rounds", "count", "higher"),
    ("fleet.restore_failures", "count", "lower"),
    ("fleet.uploaded_mb", "MB", "lower"),
    ("fleet.downloaded_mb", "MB", "lower"),
    ("trace.concurrency_peak_s", "s", "lower"),
    ("trace.histogram_s", "s", "lower"),
    ("trace.load_curve_s", "s", "lower"),
    ("report.to_json_s", "s", "lower"),
    ("proc.rss_after_events_mb", "MB", "lower"),
    ("proc.rss_after_run_mb", "MB", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("trace_overhead.ratio", "ratio", "lower"),
];

/// True when `name` is a valid metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Catalogue unit.
    pub unit: &'static str,
}

/// Builds the metrics of `catalogue` in catalogue order, reading each value
/// from `values` (0 for a name it does not hold).
pub fn from_catalogue(
    catalogue: &[(&'static str, &'static str, &str)],
    values: &[(&str, f64)],
) -> Vec<Metric> {
    catalogue
        .iter()
        .map(|&(name, unit, _)| {
            let value = values.iter().rev().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
            Metric { name, value, unit }
        })
        .collect()
}

/// The median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank percentile `p` (0–100) of `samples` (0 for none).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Formats a value so the JSON stays valid (non-finite values read 0).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The rows printed before the result line: the run context, then one row
/// per metric.
pub fn rows(context: &[(&str, String)], metrics: &[Metric]) -> String {
    let mut out = String::new();
    for (key, value) in context {
        let _ = writeln!(out, "context\t{key}\t{value}");
    }
    for m in metrics {
        let _ = writeln!(out, "metric\t{}\t{}\t{}", m.name, number(m.value), m.unit);
    }
    out
}

/// The result line: one JSON object on one line.
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed() == 0,
        checks.attempted(),
        checks.failed(),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 50.0), 5.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut checks = Checks::new();
        checks.check("ok", true);
        let metrics = vec![Metric { name: "wall_s", value: 1.25, unit: "s" }];
        assert_eq!(
            result_line(&checks, &metrics),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(number(f64::NAN), "0");
    }
}
