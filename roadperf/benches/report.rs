//! Metrics and the result line.

use crate::stats::{Quantile, Samples};

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Where the value comes from, e.g. `p99 of 52311 samples`.
    pub basis: String,
}

/// Collects metrics in the order they are reported.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// A value with the basis it was measured on.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, basis: impl Into<String>) {
        self.0.push(Metric { name: name.to_string(), value, unit, basis: basis.into() });
    }

    /// Percentile `p` of `samples` scaled by `scale` (e.g. seconds to
    /// microseconds), or the highest supported percentile below it, with
    /// the percentile and sample count recorded; `0` with no samples.
    pub fn quantile(
        &mut self,
        name: &str,
        samples: &Samples,
        p: f64,
        scale: f64,
        unit: &'static str,
    ) {
        match samples.at_or_below(p) {
            Some(Quantile { p: got, value, n }) => {
                let basis = if got == p {
                    format!("p{p} of {n} samples")
                } else {
                    format!("p{got} of {n} samples (too few for p{p})")
                };
                self.put(name, value * scale, unit, basis);
            }
            None => {
                self.put(name, 0.0, unit, format!("{} samples, none reportable", samples.len()))
            }
        }
    }
}

/// The last line the benchmark prints: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
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
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite number in JSON form with every digit Rust's shortest
/// round-trip formatting gives; a non-finite value (a bug) becomes `-1`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("qps", 1234.5678, "1/s", "");
        m.put("index_mb", 0.25, "MB", "");
        assert_eq!(
            result_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"qps\": {\"value\": 1234.5678, \"unit\": \"1/s\"}, \"index_mb\": {\"value\": 0.25, \"unit\": \"MB\"}}}"
        );
    }
}
