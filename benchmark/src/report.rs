//! Order statistics, and how a run's result is printed.

use ringstat::Json;

use crate::spec::Metric;

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Percentile by linear interpolation between the two nearest ranks (the
/// usual definition; `p = 0.5` is the median). An epoch window has only 8 or
/// 16 batches: nearest rank would make its p90 the slowest batch outright.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, frac) = (pos.floor() as usize, pos.fract());
            v[lo] + (v[(lo + 1).min(n - 1)] - v[lo]) * frac
        }
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Beyond the clamp the neighbouring pair is extrapolated, as
        // Python does.
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The fast side of a run's windows: the first quartile of times, the third
/// of rates. Interference on a shared host only ever adds time, and for
/// whole seconds at a stretch, so the middle window swings with the
/// neighbours while the fast quarter stays put (see README, "Noise").
pub fn fast_time(values: &[f64]) -> f64 {
    quartiles(values).0
}

pub fn fast_rate(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// What one run of one workload found.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the run's kind, in table order.
    pub metrics: Vec<(Metric, f64)>,
    /// Host fingerprint, sizes, digest, counters: written to `out/`.
    pub detail: Json,
}

/// Pairs every metric of `table` with its value among `named`, in table
/// order. Values carry their names so that no reordering of either list can
/// put a number under the wrong metric.
///
/// # Panics
/// If `named` lacks a metric of the table or holds one it does not have:
/// the two lists are both written in this package.
pub fn in_table_order(table: &[Metric], named: &[(&str, f64)]) -> Vec<(Metric, f64)> {
    assert_eq!(table.len(), named.len(), "one value per metric");
    table
        .iter()
        .map(|m| {
            let (_, value) = named
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("no value for metric {}", m.name));
            (*m, *value)
        })
        .collect()
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// The result line the driver reads: floats with all their digits.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(*v),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One line per metric, by name and with its unit.
    pub fn table(&self) -> String {
        self.metrics
            .iter()
            .map(|(m, v)| format!("  {:<34} {:>16.4} {}\n", m.name, v, m.unit))
            .collect()
    }
}

/// Rust prints the shortest digits that read back as the same `f64`; JSON
/// has no NaN or infinity, which a failed run reports as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn percentile_interpolates() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.75), 7.0);
        assert_eq!(percentile(&v, 1.0), 9.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
    }
}
