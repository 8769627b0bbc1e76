//! What one run prints: informational lines, one line per metric with its
//! unit and sample count, and the final JSON object.

use std::fmt::Write as _;

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value rests on, and anything else a reader
    /// needs to weigh it.
    pub note: String,
}

impl Metric {
    /// A metric resting on `samples` samples.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            note: format!("n={samples}"),
        }
    }
}

/// The outcome of one run of the benchmark command.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Lines printed before the metrics (configuration, calibration,
    /// digest).
    pub info: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Trials attempted.
    pub attempted: u64,
    /// Trials that panicked, returned an error, stalled or failed a check.
    pub failed: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
}

impl Report {
    /// Whether every trial and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Records a failed check.
    pub fn problem(&mut self, text: String) {
        self.problems.push(text);
    }

    /// The full standard output: info lines, `metric` lines, problems, and
    /// as its last line the JSON result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.info {
            let _ = writeln!(out, "{line}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "metric {} {} {} {}", m.name, m.value, m.unit, m.note);
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "trials attempted={} failed={} error_rate={rate}",
            self.attempted, self.failed
        );
        for p in &self.problems {
            let _ = writeln!(out, "problem {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// A finite number as JSON; a non-finite one (which makes the run
/// incorrect) as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
