//! What one run reports: named metrics with units, counts of attempted
//! and failed operations, and human-readable notes.

use std::collections::BTreeMap;

/// End-to-end metric names and units, in `BENCHMARK.json` order. Every
/// workload reports each of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
];

/// Per-layer metric names, in `BENCHMARK.json` order. A traced run reports
/// each of them; a layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("lr-tensor.fft.busy_ms", "ms"),
    ("lr-tensor.fft.calls", "count"),
    ("lr-tensor.fft.calls_stockham", "count"),
    ("lr-tensor.fft.calls_rader", "count"),
    ("lr-tensor.fft.calls_bluestein", "count"),
    ("lr-tensor.fft.gflops_computed", "GFLOP/s"),
    ("lr-tensor.transfer.busy_ms", "ms"),
    ("lr-tensor.readout.busy_ms", "ms"),
    ("lr-tensor.simd.lane_share", "ratio"),
    ("lr-tensor.parallel.speedup_tN_over_t1", "x"),
    ("lr-tensor.plan_cache.entries", "count"),
    ("lr-optics.propagate.busy_ms", "ms"),
    ("lr-optics.adjoint.busy_ms", "ms"),
    ("lr-optics.transfer_cache.entries", "count"),
    ("lightridge.forward.busy_ms", "ms"),
    ("lightridge.backward.busy_ms", "ms"),
    ("lightridge.layer0.forward_ms", "ms"),
    ("lightridge.layer1.forward_ms", "ms"),
    ("lightridge.layer2.forward_ms", "ms"),
    ("lightridge.layer0.backward_ms", "ms"),
    ("lightridge.layer1.backward_ms", "ms"),
    ("lightridge.layer2.backward_ms", "ms"),
    ("lightridge.detector.read_ms", "ms"),
    ("lightridge.detector.backward_ms", "ms"),
    ("lightridge.eval.infer_ms", "ms"),
    ("lightridge.unattributed_frac", "ratio"),
    ("lightridge.step_ms", "ms"),
    ("lr-nn.loss.busy_ms", "ms"),
    ("lr-nn.adam.busy_ms", "ms"),
    ("lr-serve.queue_wait.p50_ms", "ms"),
    ("lr-serve.queue_wait.p99_ms", "ms"),
    ("lr-serve.queue_wait.samples", "count"),
    ("lr-serve.staging.p50_ms", "ms"),
    ("lr-serve.staging.p99_ms", "ms"),
    ("lr-serve.staging.samples", "count"),
    ("lr-serve.forward.p50_ms", "ms"),
    ("lr-serve.forward.p99_ms", "ms"),
    ("lr-serve.forward.samples", "count"),
    ("lr-serve.respond.p50_ms", "ms"),
    ("lr-serve.respond.p99_ms", "ms"),
    ("lr-serve.respond.samples", "count"),
    ("lr-serve.mean_executed_batch", "count"),
    ("lr-serve.batch_executions", "count"),
    ("lr-serve.stolen_frac", "ratio"),
    ("lr-serve.shard_skew", "ratio"),
    ("lr-serve.rejected", "count"),
    ("lr-serve.shed", "count"),
    ("lr-serve.deadline_expired", "count"),
    ("lr-serve.histogram_overflow", "count"),
    ("lr-net.recv.p50_ms", "ms"),
    ("lr-net.recv.p99_ms", "ms"),
    ("lr-net.decode.p50_ms", "ms"),
    ("lr-net.decode.p99_ms", "ms"),
    ("lr-net.wire_residual.p50_ms", "ms"),
    ("lr-net.protocol_errors", "count"),
    ("lr-net.request_errors", "count"),
    ("lr-net.refused", "count"),
    ("loadgen.sent", "count"),
    ("loadgen.late.p99_ms", "ms"),
    ("loadgen.threads", "count"),
    ("loadgen.connections", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.server_events", "count"),
];

/// Metrics and counts gathered by one workload run.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, (f64, &'static str)>,
    /// Operations attempted (requests, training steps, checked samples).
    pub attempted: u64,
    /// Operations that failed: typed errors, refusals, protocol errors,
    /// non-finite loss, bitwise mismatches.
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Every recorded metric, for the human-readable listing.
    pub fn all(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v.0, v.1))
    }

    /// The final result line: exactly the keys `correct`, `attempted`,
    /// `failed`, `metrics`, where `metrics` holds `names` (each with the
    /// unit given; a missing value reads 0).
    pub fn result_json(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.count(10, 0);
        r.set("a", 1.25, "ms");
        let line = r.result_json(&[("a", "ms"), ("b", "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
        r.count(1, 1);
        assert!(r
            .result_json(&[])
            .starts_with("{\"correct\": false, \"attempted\": 11, \"failed\": 1"));
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|p| p.0).collect();
        names.extend(END_TO_END.iter().map(|p| p.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
