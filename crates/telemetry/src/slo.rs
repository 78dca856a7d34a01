//! SLO declarations and grading: named metrics checked against declared
//! wall-clock (or count) targets.
//!
//! An [`Slo`] names a metric in the [`crate::Registry`], how to read it
//! (a histogram quantile, a histogram mean, or the raw gauge/counter
//! value), and two thresholds: the *target* (pass boundary, inclusive)
//! and a warn band that stretches to `target * warn_factor`. Evaluation
//! never panics and degrades to [`SloGrade::NoData`] when the metric is
//! absent or empty — telemetry must not take down the workload.
//!
//! The first consumer is the ROADMAP `planner.latency` SLO: strategy
//! calculation graded against the paper's interactive-replanning budget.
//!
//! # Examples
//!
//! ```
//! use fastt_telemetry::{Registry, Slo, SloGrade};
//!
//! let reg = Registry::new();
//! reg.observe("planner.latency", 0.004);
//! let slo = Slo::p95("planner.latency.p95", "planner.latency", 0.250);
//! assert_eq!(slo.evaluate(&reg).grade, SloGrade::Pass);
//! ```

use crate::json::Value;
use crate::metrics::{MetricValue, Registry};

/// Outcome band of an SLO evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloGrade {
    /// Observed ≤ target.
    Pass,
    /// target < observed ≤ target × warn_factor.
    Warn,
    /// Observed beyond the warn band.
    Fail,
    /// Metric missing or empty.
    NoData,
}

impl SloGrade {
    /// Upper-case label (`PASS` / `WARN` / `FAIL` / `NO-DATA`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SloGrade::Pass => "PASS",
            SloGrade::Warn => "WARN",
            SloGrade::Fail => "FAIL",
            SloGrade::NoData => "NO-DATA",
        }
    }
}

/// A declared service-level objective over one registry metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Slo {
    /// Display name, e.g. `planner.latency.p95`.
    pub name: String,
    /// Registry metric key the objective reads.
    pub metric: String,
    /// For histograms: the quantile to grade (`None` grades the mean).
    /// Ignored for counters and gauges.
    pub quantile: Option<f64>,
    /// Pass boundary (inclusive), in the metric's own unit.
    pub target: f64,
    /// Warn band multiplier: observations in `(target, target *
    /// warn_factor]` grade [`SloGrade::Warn`], beyond it [`SloGrade::Fail`].
    pub warn_factor: f64,
}

impl Slo {
    /// An SLO graded on the metric's p95 with the default 2× warn band.
    pub fn p95(name: &str, metric: &str, target: f64) -> Self {
        Slo {
            name: name.to_string(),
            metric: metric.to_string(),
            quantile: Some(0.95),
            target,
            warn_factor: 2.0,
        }
    }

    /// An SLO graded on the histogram mean (or the raw gauge/counter
    /// value) with the default 2× warn band.
    pub fn mean(name: &str, metric: &str, target: f64) -> Self {
        Slo {
            name: name.to_string(),
            metric: metric.to_string(),
            quantile: None,
            target,
            warn_factor: 2.0,
        }
    }

    /// Grades this objective against the registry's current readings.
    pub fn evaluate(&self, reg: &Registry) -> SloVerdict {
        let observed = match reg.get(&self.metric) {
            None => None,
            Some(MetricValue::Counter(c)) => Some(c as f64),
            Some(MetricValue::Gauge(g)) => Some(g),
            Some(MetricValue::Histogram(h)) => {
                if h.count == 0 {
                    None
                } else {
                    Some(match self.quantile {
                        Some(q) => h.quantile_bound(q),
                        None => h.mean(),
                    })
                }
            }
        };
        let warn_limit = self.target * self.warn_factor;
        let grade = match observed {
            None => SloGrade::NoData,
            Some(v) if v <= self.target => SloGrade::Pass,
            Some(v) if v <= warn_limit => SloGrade::Warn,
            Some(_) => SloGrade::Fail,
        };
        SloVerdict {
            slo: self.name.clone(),
            metric: self.metric.clone(),
            observed: observed.unwrap_or(f64::NAN),
            target: self.target,
            warn_limit,
            grade,
        }
    }
}

/// The result of grading one [`Slo`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    /// The objective's display name.
    pub slo: String,
    /// Metric key that was read.
    pub metric: String,
    /// The value graded (NaN when [`SloGrade::NoData`]).
    pub observed: f64,
    /// Declared pass boundary.
    pub target: f64,
    /// `target * warn_factor`, the fail boundary.
    pub warn_limit: f64,
    /// Outcome band.
    pub grade: SloGrade,
}

impl SloVerdict {
    /// One-line human rendering for reports.
    pub fn render(&self) -> String {
        if self.grade == SloGrade::NoData {
            format!(
                "{:<28} {:>8}  (metric {} empty)",
                self.slo,
                self.grade.as_str(),
                self.metric
            )
        } else {
            format!(
                "{:<28} {:>8}  observed {:.6} target {:.6} warn-limit {:.6}",
                self.slo,
                self.grade.as_str(),
                self.observed,
                self.target,
                self.warn_limit
            )
        }
    }

    /// JSON object form for BENCH dumps.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("slo", Value::from(self.slo.clone())),
            ("metric", Value::from(self.metric.clone())),
            ("observed", Value::from(self.observed)),
            ("target", Value::from(self.target)),
            ("warn_limit", Value::from(self.warn_limit)),
            ("grade", Value::from(self.grade.as_str())),
        ])
    }
}

/// Grades every objective in `slos` against `reg`.
pub fn evaluate_slos(slos: &[Slo], reg: &Registry) -> Vec<SloVerdict> {
    slos.iter().map(|s| s.evaluate(reg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slo(target: f64) -> Slo {
        Slo::p95("t.p95", "t", target)
    }

    #[test]
    fn boundaries_are_pinned() {
        // Histogram quantile_bound lands on a bucket upper bound; grade
        // with a gauge to pin exact boundary semantics.
        let reg = Registry::new();
        let s = Slo::mean("g", "g", 0.1); // warn band to 0.2

        reg.set_gauge("g", 0.1);
        assert_eq!(s.evaluate(&reg).grade, SloGrade::Pass, "target inclusive");
        reg.set_gauge("g", 0.100001);
        assert_eq!(s.evaluate(&reg).grade, SloGrade::Warn, "just over target");
        reg.set_gauge("g", 0.2);
        assert_eq!(
            s.evaluate(&reg).grade,
            SloGrade::Warn,
            "warn limit inclusive"
        );
        reg.set_gauge("g", 0.200001);
        assert_eq!(s.evaluate(&reg).grade, SloGrade::Fail, "beyond warn band");
    }

    #[test]
    fn histogram_quantile_is_graded() {
        let reg = Registry::new();
        for _ in 0..100 {
            reg.observe("t", 5e-4); // p95 bucket bound = 1e-3
        }
        assert_eq!(slo(1e-3).evaluate(&reg).grade, SloGrade::Pass);
        assert_eq!(slo(1e-4).evaluate(&reg).grade, SloGrade::Fail);
        let v = slo(1e-3).evaluate(&reg);
        assert_eq!(v.observed, 1e-3);
        assert_eq!(v.warn_limit, 2e-3);
    }

    /// A 0.127 s p95 against a 250 ms target passes on the fine buckets:
    /// with one bound per decade it read as 1 s and graded FAIL.
    #[test]
    fn fine_bucket_p95_under_target_passes() {
        let reg = Registry::new();
        reg.declare_histogram("planner.latency", &crate::FINE_BUCKETS);
        for _ in 0..100 {
            reg.observe("planner.latency", 0.127);
        }
        let v = Slo::p95("planner.latency.p95", "planner.latency", 0.25).evaluate(&reg);
        assert_eq!(v.grade, SloGrade::Pass, "observed {}", v.observed);
        assert!(v.observed >= 0.127 && v.observed < 0.127 * 1.259);
    }

    #[test]
    fn missing_or_empty_metric_is_no_data() {
        let reg = Registry::new();
        let v = slo(1.0).evaluate(&reg);
        assert_eq!(v.grade, SloGrade::NoData);
        assert!(v.observed.is_nan());
        assert!(v.render().contains("NO-DATA"));
    }

    #[test]
    fn counter_reads_raw_value() {
        let reg = Registry::new();
        reg.add("n", 7);
        let s = Slo::mean("n", "n", 10.0);
        assert_eq!(s.evaluate(&reg).grade, SloGrade::Pass);
        reg.add("n", 100);
        assert_eq!(s.evaluate(&reg).grade, SloGrade::Fail);
    }

    #[test]
    fn evaluate_slos_covers_all_and_json_renders() {
        let reg = Registry::new();
        reg.observe("t", 0.5);
        let list = vec![slo(1.0), Slo::p95("other", "missing", 1.0)];
        let verdicts = evaluate_slos(&list, &reg);
        assert_eq!(verdicts.len(), 2);
        assert_eq!(verdicts[0].grade, SloGrade::Pass);
        assert_eq!(verdicts[1].grade, SloGrade::NoData);
        let json = verdicts[0].to_json().to_string();
        let v = Value::parse(&json).unwrap();
        assert_eq!(v["grade"].as_str(), Some("PASS"));
    }
}
