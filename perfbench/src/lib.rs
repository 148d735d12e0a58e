//! The CAMPS repository benchmark.
//!
//! `timed` measures the end-to-end metrics with tracing off; `traced`
//! gives the per-layer numbers from a separate run that wraps calls into
//! each layer's public functions. `main.rs` is the command line.

pub mod provenance;
mod recorder;
mod spans;
pub mod timed;
pub mod traced;
pub mod workload;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, unique within a report.
    pub name: String,
    /// As measured.
    pub value: f64,
    /// `s`, `ms`, `count`, ...
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Checks every name is unique, made of `[A-Za-z0-9_.-]`, and every
/// value finite.
///
/// # Errors
/// The first offending metric.
pub fn check_metrics(metrics: &[Metric]) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    for m in metrics {
        let valid = !m.name.is_empty()
            && m.name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'));
        if !valid {
            return Err(format!("metric name `{}` is not [A-Za-z0-9_.-]+", m.name));
        }
        if !seen.insert(m.name.as_str()) {
            return Err(format!("metric `{}` reported twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric `{}` is not finite ({})", m.name, m.value));
        }
    }
    Ok(())
}

/// Checks `metrics` against the `section` list (`end_to_end` or
/// `per_layer`) of `BENCHMARK.json` text: every metric must be declared
/// there with the same unit, and, when `complete`, every declared metric
/// must be present.
///
/// # Errors
/// The first disagreement.
pub fn check_declared(
    benchmark_json: &str,
    section: &str,
    metrics: &[Metric],
    complete: bool,
) -> Result<(), String> {
    use serde::value::{lookup, Value};
    let doc: Value =
        serde_json::from_str(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Value::Map(top) = &doc else {
        return Err("BENCHMARK.json is not an object".into());
    };
    let Some(Value::Seq(list)) = lookup(top, section) else {
        return Err(format!("BENCHMARK.json has no `{section}` list"));
    };
    let mut declared = std::collections::HashMap::new();
    for entry in list {
        if let Value::Map(e) = entry {
            if let (Some(Value::Str(name)), Some(Value::Str(unit))) =
                (lookup(e, "name"), lookup(e, "unit"))
            {
                declared.insert(name.as_str(), unit.as_str());
            }
        }
    }
    for m in metrics {
        match declared.remove(m.name.as_str()) {
            Some(unit) if unit == m.unit => {}
            Some(unit) => {
                return Err(format!(
                    "`{}` is in {}, BENCHMARK.json says {unit}",
                    m.name, m.unit
                ))
            }
            None => return Err(format!("`{}` is not declared in {section}", m.name)),
        }
    }
    match declared.keys().next() {
        Some(name) if complete => Err(format!("declared `{name}` was not measured")),
        _ => Ok(()),
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// `values` is empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
