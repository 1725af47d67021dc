//! The result line: one JSON object on the last line of standard output.

use std::fmt::Write as _;

use fsam_trace::json::Value;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// A run's outcome.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output mismatched or that errored.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Whether every operation produced the expected output.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The JSON result line. Non-finite values (which JSON cannot carry)
    /// and malformed or repeated names are refused.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for m in &self.metrics {
            if !valid_name(&m.name) || !seen.insert(m.name.as_str()) {
                return Err(format!("bad or repeated metric name {:?}", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            metrics.push((
                m.name.clone(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            ));
        }
        Ok(Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ])
        .to_json())
    }

    /// A human-readable table of the metrics, for standard error.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "  attempted {}  failed {}  correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        out
    }

    /// Prints the table to standard error and the JSON line last on
    /// standard output, then exits: 0 when every operation was correct,
    /// 1 otherwise.
    pub fn finish(self) -> ! {
        eprint!("{}", self.table());
        match self.to_json() {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        std::process::exit(if self.correct() { 0 } else { 1 })
    }
}

/// Whether `name` matches `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_metric_with_its_unit() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        o.push("setup_s", "s", 0.25);
        o.push("rate", "1/s", 12.5);
        assert_eq!(
            o.to_json().unwrap(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":\
             {\"setup_s\":{\"value\":0.25,\"unit\":\"s\"},\
             \"rate\":{\"value\":12.5,\"unit\":\"1/s\"}}}"
        );
    }

    #[test]
    fn refuses_bad_names_and_values() {
        let mut o = Outcome::default();
        o.push("a b", "s", 1.0);
        assert!(o.to_json().is_err());
        let mut o = Outcome::default();
        o.push("x", "s", f64::NAN);
        assert!(o.to_json().is_err());
        let mut o = Outcome::default();
        o.push("x", "s", 1.0);
        o.push("x", "s", 2.0);
        assert!(o.to_json().is_err());
        assert!(!Outcome::default().correct());
    }
}
