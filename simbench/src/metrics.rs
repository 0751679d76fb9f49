//! Named metrics, the summary statistics behind them, and the result
//! line the benchmark ends its standard output with.

use std::fmt::Write as _;

/// An ordered set of `(name, value, unit)` metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Appends a metric.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value or a repeated name: either is a bug
    /// in the benchmark, and neither can be written as valid JSON.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.entries.push((name, value, unit));
    }

    /// The value of metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    /// Metric names in recording order.
    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|&(n, _, _)| n)
    }

    /// One `name value unit` line per metric, for people.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.entries {
            writeln!(s, "  {name:<28} {value:>18.6} {unit}").expect("write to String");
        }
        s
    }

    /// The metrics as a JSON object of `{"value": v, "unit": u}` members.
    pub fn json(&self) -> String {
        let members: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", members.join(","))
    }
}

/// The benchmark's final line: correctness, operation counts, metrics.
pub fn result_line(attempted: usize, failed: usize, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics.json()
    )
}

/// The median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM` of
/// `/proc/self/status`), or `None` where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_is_valid_json() {
        let mut m = Metrics::default();
        m.push("job_wall_s", 1.25, "s");
        m.push("sim_refs_per_s", 1.0e7, "1/s");
        let line = result_line(4, 0, &m);
        let doc = probes::json::parse(&line).expect("result line parses");
        assert_eq!(doc.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|c| c.as_u64()), Some(4));
        let wall = doc.get("metrics").and_then(|m| m.get("job_wall_s"));
        assert_eq!(
            wall.and_then(|w| w.get("value")).and_then(|v| v.as_num()),
            Some(1.25)
        );
    }
}
