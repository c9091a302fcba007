//! Metric names and units, summary statistics, and the result line.

use crate::json;
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), as listed in `BENCHMARK.json`. Every
/// workload reports each of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_s", "s"),
    ("latency_serial_p50_s", "s"),
    ("rows_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_bytes", "bytes"),
];

/// Per-layer metrics (`--trace 1`), as listed in `BENCHMARK.json`. Every
/// workload reports each of them; a layer the workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("sql.parse_s", "s"),
    ("sql.plan_s", "s"),
    ("sql.execute_s", "s"),
    ("sql.session_residual_s", "s"),
    ("window.execute_s", "s"),
    ("window.plan_s", "s"),
    ("window.build_s", "s"),
    ("window.resolve_s", "s"),
    ("window.probe_s", "s"),
    ("window.unattributed_s", "s"),
    ("partition.partition_rows_s", "s"),
    ("partition.count", "count"),
    ("partition.max_rows", "rows"),
    ("order.key_eval_s", "s"),
    ("strategy.naive", "count"),
    ("strategy.incremental", "count"),
    ("strategy.ostree", "count"),
    ("strategy.segtree", "count"),
    ("strategy.mst", "count"),
    ("strategy.cacheless_partitions", "count"),
    ("artifacts.hit_ratio", "ratio"),
    ("artifacts.mst_builds", "count"),
    ("artifacts.inner_sorts", "count"),
    ("artifacts.bytes_built", "bytes"),
    ("artifacts.peak_resident_bytes", "bytes"),
    ("probe.block_queries", "count"),
    ("probe.cursor_probes", "count"),
    ("probe.gallop_ratio", "ratio"),
    ("vm.vm_rows", "count"),
    ("vm.interpreted_rows", "count"),
    ("vm.fallbacks", "count"),
    ("append.append_s", "s"),
    ("append.append_p95_s", "s"),
    ("table.append_rows_s", "s"),
    ("table.append_rows_share", "ratio"),
    ("append.output_table_s", "s"),
    ("append.fast_path_ratio", "ratio"),
    ("append.recomputed_partitions", "count"),
    ("append.forest_runs", "count"),
    ("append.rebuilt_per_row", "ratio"),
    ("append.forest_resident_bytes", "bytes"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that returned an error or an output whose digest
    /// differs from the verified reference.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample count behind each metric that summarizes several samples.
    pub samples: BTreeMap<&'static str, usize>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets a metric summarizing `samples` samples.
    pub fn set_sampled(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// Records one operation's outcome.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// One line per metric of `list`: name, value, unit and sample count.
    pub fn summary(&self, list: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in list {
            let v = self.values.get(name).copied().unwrap_or(f64::NAN);
            let n = self.samples.get(name).map_or(String::new(), |n| format!("  (n={n})"));
            out += &format!("  {name:<32} {v:>16.6} {unit}{n}\n");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, and every metric
    /// of `list` with its unit.
    pub fn result_line(&self, correct: bool, list: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .values
                    .get(name)
                    .copied()
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(name),
                    json::number(v),
                    json::string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The `q`-quantile of `xs` (linear interpolation between order
/// statistics); 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The process's resident-set high-water mark in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb * 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[], 0.95), 0.0);
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.95), 95.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
