//! The metric tables and the result line every run prints.

use std::collections::BTreeMap;

use crate::measure::{median, LatencySummary};

/// End-to-end metrics: name, unit, which direction is better.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("wall_s", "s", "lower"),
    ("sim_instr_per_s", "instr/s", "higher"),
    ("req_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics of the traced run. Times are host milliseconds per
/// operation (one app result, or one served request). A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 42] = [
    ("gpu.launch_ms", "ms", "lower"),
    ("gpu.ns_per_instr", "ns", "lower"),
    ("gpu.phase.exec_ms", "ms", "lower"),
    ("gpu.phase.exec_ns_per_event", "ns", "lower"),
    ("gpu.phase.ifetch_ms", "ms", "lower"),
    ("gpu.phase.ifetch_ns_per_event", "ns", "lower"),
    ("gpu.phase.data_memory_ms", "ms", "lower"),
    ("gpu.phase.data_memory_ns_per_event", "ns", "lower"),
    ("gpu.phase.stats_instr_ms", "ms", "lower"),
    ("gpu.phase.stats_instr_ns_per_event", "ns", "lower"),
    ("gpu.phase.stats_data_ms", "ms", "lower"),
    ("gpu.phase.stats_data_ns_per_event", "ns", "lower"),
    ("gpu.phase.dram_drain_ms", "ms", "lower"),
    ("gpu.phase.dram_drain_ns_per_event", "ns", "lower"),
    ("gpu.phase.other_ms", "ms", "lower"),
    ("gpu.phase.other_ns_per_event", "ns", "lower"),
    ("gpu.new_ms", "ms", "lower"),
    ("gpu.launch_shard_ms", "ms", "lower"),
    ("gpu.merge_shards_ms", "ms", "lower"),
    ("workloads.kernel_ms", "ms", "lower"),
    ("workloads.prepare_ms", "ms", "lower"),
    ("isa.derive_mask_ms", "ms", "lower"),
    ("store.load_ms", "ms", "lower"),
    ("store.save_ms", "ms", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.quarantined", "count", "lower"),
    ("power.evaluate_ms", "ms", "lower"),
    ("figures.render_ms", "ms", "lower"),
    ("campaign.setup_ms", "ms", "lower"),
    ("campaign.queue_wait_ms", "ms", "lower"),
    ("campaign.store_ms", "ms", "lower"),
    ("campaign.simulate_ms", "ms", "lower"),
    ("campaign.item_overhead_ms", "ms", "lower"),
    ("campaign.merge_ms", "ms", "lower"),
    ("campaign.assembly_ms", "ms", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.simulate_ms", "ms", "lower"),
    ("serve.attach_ratio", "ratio", "higher"),
    ("serve.store_hit_ratio", "ratio", "higher"),
    ("serve.simulations_per_request", "count", "lower"),
    ("serve.residual_ms", "ms", "lower"),
    ("trace_overhead_pct", "%", "lower"),
];

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Broken checks other than failed operations: each makes the run
    /// incorrect.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn end_to_end(
        wall_s: f64,
        sim_instr_per_s: f64,
        req_per_s: f64,
        latency_ms: &LatencySummary,
        setup_s: f64,
        peak_rss_mb: f64,
    ) -> Self {
        let values = [
            wall_s,
            sim_instr_per_s,
            req_per_s,
            latency_ms.p50,
            latency_ms.p99,
            setup_s,
            peak_rss_mb,
        ];
        Self {
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit, _), v)| (name, unit, v))
                .collect(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    pub fn with_counts(mut self, attempted: u64, failed: u64, mut errors: Vec<String>) -> Self {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.append(&mut errors);
        self
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The result line: one JSON object with every metric by name.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    finite(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// A human-readable table of the same numbers, plus `error_rate`.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit, v) in &self.metrics {
            out.push_str(&format!("  {name:<38} {v:>16.6} {unit}\n"));
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "  {:<38} {rate:>16.6} ({} failed of {} operations)\n",
            "error_rate", self.failed, self.attempted
        ));
        for e in &self.errors {
            out.push_str(&format!("  check failed: {e}\n"));
        }
        out
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed is a
/// bug the correct flag already reports, so print 0 rather than break
/// the line.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Per-layer samples from the traced cycles of a run; reported as
/// medians.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn push(&mut self, sample: Vec<(&'static str, f64)>) {
        for (name, v) in sample {
            assert!(
                PER_LAYER.iter().any(|(n, _, _)| *n == name),
                "{name} is not a per-layer metric"
            );
            self.samples.entry(name).or_default().push(v);
        }
    }

    /// Every per-layer metric: the median of its samples, or 0 for a
    /// layer this workload never reached.
    pub fn finish(mut self, trace_overhead_pct: f64) -> Outcome {
        self.push(vec![("trace_overhead_pct", trace_overhead_pct)]);
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let v = self.samples.get(name).map_or(0.0, |s| median(s));
                (name, unit, v)
            })
            .collect();
        Outcome {
            metrics,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvf_obs::json::{parse, Value};

    fn names(v: &Value, key: &str) -> Vec<(String, String, String)> {
        let Some(Value::Array(items)) = v.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let v = parse(&text).expect("BENCHMARK.json parses");
        let own = |t: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(names(&v, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&v, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_carries_every_metric_and_the_counts() {
        let latency = LatencySummary {
            count: 1000,
            p50: 1.5,
            p99: 9.25,
            windows: 1,
            tail: Some((99.0, 9.25)),
        };
        let out = Outcome::end_to_end(1.25, 7.5e5, 300.0, &latency, 0.5, 64.0).with_counts(
            812,
            0,
            Vec::new(),
        );
        let v = parse(&out.json()).expect("the result line is JSON");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(812.0));
        let metrics = v.get("metrics").expect("metrics");
        for (name, unit, _) in END_TO_END {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
        }
        assert_eq!(
            metrics
                .get("latency_p99_ms")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(9.25)
        );
        let failing =
            Outcome::end_to_end(1.0, 1.0, 1.0, &latency, 1.0, 1.0).with_counts(10, 1, Vec::new());
        assert!(!failing.correct());
    }

    #[test]
    fn layers_report_medians_and_zero_for_unreached_layers() {
        let mut layers = Layers::default();
        layers.push(vec![("gpu.launch_ms", 3.0)]);
        layers.push(vec![("gpu.launch_ms", 1.0)]);
        layers.push(vec![("gpu.launch_ms", 2.0)]);
        let out = layers.finish(1.5);
        let get = |name: &str| out.metrics.iter().find(|m| m.0 == name).map(|m| m.2);
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        assert_eq!(get("gpu.launch_ms"), Some(2.0));
        assert_eq!(get("serve.residual_ms"), Some(0.0));
        assert_eq!(get("trace_overhead_pct"), Some(1.5));
    }
}
