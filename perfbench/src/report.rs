//! Metric collection, order statistics and the result line.

use std::fmt::Write as _;

use serde::Value;

/// Median of a sample (mean of the middle pair when even); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a sample (the "type 7"
/// rule of R and NumPy); NaN when empty, which the result line renders
/// as `null`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value summarises (1 for a single measurement or an
    /// exact count).
    pub samples: usize,
}

/// Everything one benchmark run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted (solves, service jobs).
    pub attempted: u64,
    /// Operations that failed a check (non-convergence, breakdown,
    /// refused or shed job, residual or L2-error check missed).
    pub failed: u64,
    /// Free-form context for the provenance record (key, JSON value).
    pub notes: Vec<(String, Value)>,
}

impl Report {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_string(), value));
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Share of attempted operations that succeeded.
    pub fn success_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }

    /// The result object: the last line of standard output.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = vec![
                    ("value".to_string(), num(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.into())),
                ];
                (m.name.clone(), Value::Object(entry))
            })
            .collect();
        let result = Value::Object(vec![
            (
                "correct".into(),
                Value::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&result).expect("non-finite values render as null")
    }

    /// Human-readable table for stderr.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<36} {:>16.6} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }
}

/// A float for a JSON record: `null` when it is not finite (an empty
/// sample's median).
pub fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::F64(v)
    } else {
        Value::Null
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }
}
