//! The result of one benchmark run and its printed form: readable
//! `name = value unit` lines, then one JSON object as the last line.

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics, operation counts and correctness of one run (or of one
/// workload inside a run; see [`Report::absorb`]).
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Readable lines printed before the result (not part of the JSON).
    pub notes: Vec<String>,
    /// Failed correctness checks, one line each.
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Record a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record a readable-only line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a failed correctness check covering `ops` operations.
    pub fn fail_check(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops;
        self.errors.push(why.into());
    }

    /// The value of metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Fold a sub-report's counts, checks and notes into this one (not
    /// its metrics: the caller picks which to keep).
    pub fn absorb(&mut self, other: &Report, label: &str) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let tag = |s: &String| {
            if label.is_empty() {
                s.clone()
            } else {
                format!("{label}: {s}")
            }
        };
        self.errors.extend(other.errors.iter().map(tag));
        self.notes.extend(other.notes.iter().map(tag));
    }

    /// Whether every correctness check passed and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The last line of the run's output.
    pub fn json(&self) -> String {
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
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Print the readable lines, then the JSON result as the last line.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for e in &self.errors {
            println!("# CHECK FAILED: {e}");
        }
        for m in &self.metrics {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "# attempted={} failed={} fail_frac={frac} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        );
        println!("{}", self.json());
    }
}

/// JSON has no NaN or infinity; a non-finite value (a broken
/// measurement, which also makes the run incorrect) is written as -1 so
/// the result stays parseable.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_result_keys() {
        let mut r = Report::default();
        r.put("setup_s", 0.5, "s");
        r.put("a_p50_us", 12.25, "us");
        r.attempted = 10;
        let j = r.json();
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"a_p50_us\": {\"value\": 12.25, \"unit\": \"us\"}}}"
        );
        r.fail_check(2, "bad");
        assert!(r
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 2"));
    }
}
