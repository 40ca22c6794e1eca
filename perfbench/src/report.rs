//! Metric names, units and the one-line JSON result.
//!
//! The two lists below are the benchmark's contract with
//! `BENCHMARK.json` (a test keeps them identical): every run prints every
//! end-to-end metric with `--trace 0` and every per-layer metric with
//! `--trace 1`.

use std::collections::BTreeMap;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("functions_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("disasm.ms", "ms"),
    ("disasm.functions", "count"),
    ("features.ms", "ms"),
    ("retrieval.ms", "ms"),
    ("retrieval.pairs_kept", "count"),
    ("retrieval.pairs_pruned", "count"),
    ("retrieval.keep_ratio", "ratio"),
    ("nn.ms", "ms"),
    ("nn.pairs", "count"),
    ("refs.ms", "ms"),
    ("fuzz.ms", "ms"),
    ("fuzz.envs", "count"),
    ("vm.load_ms", "ms"),
    ("vm.loads", "count"),
    ("vm.exec_ms", "ms"),
    ("vm.executions", "count"),
    ("vm.validated_ratio", "ratio"),
    ("rank.ms", "ms"),
    ("diff.ms", "ms"),
    ("diff.calls", "count"),
    ("cache.lookup_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.extractions", "count"),
    ("dyncache.hit_ratio", "ratio"),
    ("cache.load_ms", "ms"),
    ("cache.save_ms", "ms"),
    ("cache.bytes", "bytes"),
    ("cache.quarantined", "count"),
    ("sched.job_ms", "ms"),
    ("sched.attempts", "count"),
    ("sched.retries", "count"),
    ("pool.tasks", "count"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("scand.server_ms", "ms"),
    ("scand.wait_ms", "ms"),
    ("scand.deduped", "count"),
    ("scand.rejected", "count"),
    ("gen.train_s", "s"),
    ("gen.image_s", "s"),
    ("gen.corpus_s", "s"),
    ("replay.wall_ms", "ms"),
    ("program.wall_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("attributed_share", "ratio"),
    ("trace_overhead", "ratio"),
    ("failed_share", "ratio"),
];

/// Metric values of one run, checked against the lists above.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `name` (which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.0.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run reports.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Metric values.
    pub metrics: Metrics,
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line. End-to-end metrics must all be present; per-layer
/// metrics a workload never exercises read 0.
///
/// # Panics
/// When an end-to-end metric is missing.
pub fn render(outcome: &Outcome, trace: bool) -> String {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let fields: Vec<String> = list
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.get(name).unwrap_or_else(|| {
                assert!(trace, "end-to-end metric {name} was not measured");
                0.0
            });
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let Value::Seq(items) = &doc[section] else {
            panic!("{section} is a list")
        };
        items
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), own(END_TO_END));
        assert_eq!(declared("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn rendered_lines_carry_exactly_the_declared_metrics() {
        let mut metrics = Metrics::default();
        for (name, _) in END_TO_END {
            metrics.set(name, 1.5);
        }
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        };
        for trace in [false, true] {
            let line = render(&outcome, trace);
            let doc: Value = serde_json::from_str(&line).expect("result line is JSON");
            let Value::Map(fields) = &doc["metrics"] else {
                panic!("metrics is an object")
            };
            let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            let list = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(names, list.iter().map(|(n, _)| *n).collect::<Vec<_>>());
            assert_eq!(doc["attempted"].as_u64(), Some(3));
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Metrics::default().set("no.such.metric", 1.0);
    }
}
