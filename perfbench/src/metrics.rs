//! Metric names, units, and the result line the benchmark prints last.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! tests in this module keep the two in step.

use std::collections::BTreeMap;

/// One reported metric: its name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees: set-up time, packet throughput on
/// real threads, and the process's peak memory. Printed with tracing
/// off.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("pkts_per_s", "1/s"),
    def("peak_rss_mb", "MiB"),
];

/// The layer profile of the traced run. Each layer is timed from
/// outside, around calls into its public functions, or read from
/// counters the runtime already exposes.
pub const PER_LAYER: &[MetricDef] = &[
    def("frontend.ms", "ms"),
    def("structure.ms", "ms"),
    def("slice.ms", "ms"),
    def("slice.reported.ms", "ms"),
    def("symex.ms", "ms"),
    def("symex.reported.ms", "ms"),
    def("model.ms", "ms"),
    def("lint.ms", "ms"),
    def("compile.ms", "ms"),
    def("engine.other.ms", "ms"),
    def("setup.coverage", "ratio"),
    def("symex.paths", "count"),
    def("model.entries", "count"),
    def("compiled.nodes", "count"),
    def("ingest.ns_per_pkt", "ns"),
    def("dispatch.active.ns_per_pkt", "ns"),
    def("dispatch.wait.ns_per_pkt", "ns"),
    def("eval.bare.ns_per_pkt", "ns"),
    def("eval.bare.ns_per_pkt.p50", "ns"),
    def("eval.bare.ns_per_pkt.p99", "ns"),
    def("eval.bare.samples", "count"),
    def("eval.engine.ns_per_pkt", "ns"),
    def("supervise.ns_per_pkt", "ns"),
    def("tail.ms", "ms"),
    def("state.entries", "count"),
    def("driver.threaded_over_single", "ratio"),
    def("quarantined", "count"),
    def("fail.ms_per_pkt", "ms"),
    def("trace.overhead", "ratio"),
];

/// The metric-name grammar: `[A-Za-z0-9_.-]+`, at most 64 characters,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Unit grammar: at most 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The one-line JSON result: every metric of `defs`, by name with
    /// its unit, and nothing else. Fails on a missing, unknown or
    /// non-finite metric — each is a bug in the benchmark.
    pub fn render(&self, defs: &[MetricDef]) -> Result<String, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !defs.iter().any(|d| d.name == **k))
        {
            return Err(format!("metric `{extra}` is not in the reported set"));
        }
        let mut fields = Vec::with_capacity(defs.len());
        for d in defs {
            if !valid_name(d.name) || !valid_unit(d.unit) {
                return Err(format!(
                    "metric `{}` ({}) breaks the name or unit grammar",
                    d.name, d.unit
                ));
            }
            let v = self
                .values
                .get(d.name)
                .ok_or_else(|| format!("metric `{}` was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric `{}` is not finite: {v}", d.name));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                render_f64(*v),
                d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives (Display never uses exponent notation).
fn render_f64(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending-sorted, non-empty sample.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_support::json::Value;
    use std::collections::BTreeSet;

    fn manifest_names(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Value::as_array)
            .expect("metric section")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn names_follow_the_grammar_and_are_unique() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "metric {} defined twice", d.name);
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".lead"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn reported_sets_match_the_manifest() {
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(
                manifest_names(section),
                ours,
                "{section} differs from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn render_emits_every_metric_with_its_unit() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        for (i, d) in END_TO_END.iter().enumerate() {
            o.set(d.name, 0.25 + i as f64);
        }
        let line = o.render(END_TO_END).expect("complete outcome renders");
        let doc = Value::parse(&line).expect("result line is JSON");
        let metrics = doc.get("metrics").expect("metrics");
        for d in END_TO_END {
            let m = metrics.get(d.name).expect("metric present");
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit));
        }
        assert_eq!(doc.get("attempted").and_then(Value::as_int), Some(3));
    }

    #[test]
    fn render_refuses_missing_unknown_and_non_finite_metrics() {
        let mut o = Outcome::default();
        o.set("setup_s", 1.0);
        assert!(o.render(END_TO_END).is_err(), "missing metrics");
        for d in END_TO_END {
            o.set(d.name, 1.0);
        }
        o.set("pkts_per_s", f64::NAN);
        assert!(o.render(END_TO_END).is_err(), "NaN");
        o.set("pkts_per_s", 1.0);
        o.set("tail.ms", 1.0);
        assert!(
            o.render(END_TO_END).is_err(),
            "per-layer metric in the untraced set"
        );
    }

    #[test]
    fn quantiles_and_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50);
        assert_eq!(quantile_sorted(&s, 0.99), 99);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
    }
}
