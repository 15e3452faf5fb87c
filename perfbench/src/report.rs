//! The result line: `{"correct", "attempted", "failed", "metrics"}`.

use std::fmt::Write;

/// Named metrics with units, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(!self.entries.iter().any(|(n, _, _)| *n == name), "metric {name} recorded twice");
        self.entries.push((name, value, unit));
    }

    /// Human-readable listing for the run log.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name:<48} {value:>16.6} {unit}");
        }
        out
    }
}

/// Requests attempted and failed in a run; any output mismatch also fails
/// the run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub mismatches: usize,
}

impl Tally {
    pub fn add(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// Attempted requests that failed or returned a wrong output.
    pub fn failed_share(&self) -> f64 {
        (self.failed + self.mismatches) as f64 / self.attempted.max(1) as f64
    }
}

pub fn json_line(tally: &Tally, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted.max(1),
        tally.failed + tally.mismatches
    );
    for (i, (name, value, unit)) in metrics.entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.25, "ms");
        m.push("setup_s", 0.5, "s");
        let t = Tally { attempted: 10, failed: 1, mismatches: 0 };
        assert_eq!(
            json_line(&t, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"latency_ms\": \
             {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let bad = Tally { attempted: 10, failed: 0, mismatches: 2 };
        assert!(json_line(&bad, &m).starts_with("{\"correct\": false"));
        assert!((bad.failed_share() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn duplicate_metrics_are_a_bug() {
        let mut m = Metrics::default();
        m.push("a", 1.0, "ms");
        m.push("a", 2.0, "ms");
    }
}
