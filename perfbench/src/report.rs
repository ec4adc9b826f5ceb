//! The run report: a human-readable account of the run on standard
//! output, ending in the one-line JSON result.

use std::fmt::Write as _;

/// One measured value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, for timings.
    pub samples: Option<usize>,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// The metrics of the JSON result line.
    pub metrics: Vec<Metric>,
    /// Further values printed in the human-readable part only.
    pub details: Vec<Metric>,
    /// Free-form context lines (sample counts, tolerances, models).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// A per-layer metric of the traced run (its sample count is in the
    /// notes).
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metric(name, value, unit, None);
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.details.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Every check held and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable body: checks, metrics and details.
    pub fn body(&self) -> String {
        let mut s = String::new();
        for note in &self.notes {
            let _ = writeln!(s, "note: {note}");
        }
        for (name, ok) in &self.checks {
            let _ = writeln!(s, "check: {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        let _ = writeln!(
            s,
            "requests/steps attempted: {}, failed: {} (failed_share = {})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (kind, list) in [("metric", &self.metrics), ("detail", &self.details)] {
            for m in list {
                let n = m.samples.map(|n| format!(" (n={n})")).unwrap_or_default();
                let _ = writeln!(s, "{kind}: {} = {} {}{n}", m.name, m.value, m.unit);
            }
        }
        s
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values have no JSON form; `correct()` is false then.
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
