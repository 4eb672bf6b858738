//! Collects a run's metrics, correctness checks and provenance, and prints
//! them: one human-readable line per item, then the result as one JSON
//! object on the last line of standard output.

use std::io::{self, Write};

use crate::stats::Tally;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "cold_job_ref_p50",
    "warm_job_ref_p50",
    "peak_rss_mb",
    "triangle_ratio",
    "degree_ks",
    "attr_edge_similarity",
    "ok_in_limit_ratio",
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: [&str; 46] = [
    "core.fit_s",
    "core.fit_calls",
    "graph.thaw_s",
    "graph.freeze_s",
    "graph.stats_s",
    "graph.to_binary_s",
    "graph.agb_bytes",
    "graph.to_text_s",
    "graph.text_bytes",
    "graph.mmap_open_s",
    "graph.mmap_open_trusted_s",
    "models.rewire_s",
    "models.rewire_calls",
    "models.edge_sample_s",
    "models.edge_sample_calls",
    "models.attr_sample_s",
    "models.other_s",
    "models.release_edges",
    "models.edges_per_s",
    "models.edge_sample_t1_over_t2",
    "eval.profile_s",
    "eval.score_s",
    "service.admit_cold_s",
    "service.admit_hit_s",
    "service.ledger_spend_s",
    "service.ledger_spends",
    "service.store_lookup_s",
    "service.store_hit_ratio",
    "service.store_insert_s",
    "service.store_bytes",
    "service.run_s",
    "service.http_share_of_hit",
    "service.sheds_503",
    "service.sheds_429",
    "service.poll_useful_ratio",
    "loadgen.hit_ms_p50",
    "loadgen.hit_ms_tail",
    "loadgen.cold_ms_p50",
    "loadgen.cold_ms_tail",
    "loadgen.late_ms_tail",
    "loadgen.sent",
    "trace.overhead_ratio",
    "trace.coverage",
    "trace.untraced_job_s",
    "trace.traced_job_s",
    "host.reference_s",
];

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    info: Vec<String>,
    failures: Vec<String>,
    /// Attempted and failed requests or jobs of the measured phase.
    pub tally: Tally,
}

impl Report {
    /// Records a metric with its sample count and a short note (e.g. the
    /// percentile a tail stands for).
    pub fn metric(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &str,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: note.to_string(),
        });
    }

    /// Records a line of context (provenance, inputs, traffic shares).
    pub fn info(&mut self, line: impl Into<String>) {
        self.info.push(line.into());
    }

    /// Records a correctness check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    fn value_of(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().rev().find(|m| m.name == name)
    }

    /// Prints every item, then the JSON result carrying the `wanted`
    /// metrics. A wanted metric that is missing or not finite fails the run.
    pub fn emit(mut self, out: &mut impl Write, wanted: &[&str]) -> io::Result<()> {
        for name in wanted {
            match self.value_of(name) {
                Some(m) if m.value.is_finite() => {}
                Some(m) => self.failures.push(format!("metric {name} is {}", m.value)),
                None => self
                    .failures
                    .push(format!("metric {name} was not measured")),
            }
        }
        for line in &self.info {
            writeln!(out, "# {line}")?;
        }
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!(", {}", m.note)
            };
            writeln!(
                out,
                "metric {:<30} {:>16.6} {:<6} (n={}{note})",
                m.name, m.value, m.unit, m.samples
            )?;
        }
        let t = &self.tally;
        writeln!(
            out,
            "# requests/jobs: attempted={} ok={} shed_503={} shed_429={} client_4xx={} server_5xx={} io_errors={} job_failures={} fail_ratio={}",
            t.attempted, t.ok, t.shed_503, t.shed_429, t.client_4xx, t.server_5xx, t.io_errors, t.job_failures, t.fail_ratio()
        )?;
        for failure in &self.failures {
            writeln!(out, "# CHECK FAILED: {failure}")?;
        }
        let metrics: Vec<String> = wanted
            .iter()
            .map(|name| {
                let (value, unit) = self
                    .value_of(name)
                    .filter(|m| m.value.is_finite())
                    .map_or((0.0, ""), |m| (m.value, m.unit));
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            t.attempted.max(1),
            t.failed(),
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Outcome;

    /// The metric lists above are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_the_benchmark_definition() {
        let definition = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<String> {
            let start = definition.find(&format!("\"{key}\"")).expect(key);
            let body = &definition[start..];
            let end = body.find(']').expect("section ends");
            body[..end]
                .split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim()
                        .trim_start_matches('"')
                        .split('"')
                        .next()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(section("end_to_end"), END_TO_END);
        assert_eq!(section("per_layer"), PER_LAYER);
    }

    #[test]
    fn result_line_is_last_and_carries_every_wanted_metric() {
        let mut report = Report::default();
        report.metric("a", 1.5, "s", 3, "");
        report.metric("b", 2.0, "count", 1, "note");
        report.tally.record(Outcome::Ok);
        report.tally.record(Outcome::Shed503);
        let mut out = Vec::new();
        report.emit(&mut out, &["a", "b"]).unwrap();
        let text = String::from_utf8(out).unwrap();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_missing_metric_or_failed_check_makes_the_run_incorrect() {
        let mut report = Report::default();
        report.check(true, || "fine".into());
        let mut out = Vec::new();
        report.emit(&mut out, &["absent"]).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("\"correct\": false"));

        let mut report = Report::default();
        report.metric("present", 1.0, "s", 1, "");
        report.check(false, || "ledger mismatch".into());
        let mut out = Vec::new();
        report.emit(&mut out, &["present"]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("CHECK FAILED: ledger mismatch"));
        assert!(text.lines().last().unwrap().contains("\"correct\": false"));
    }
}
