//! Order statistics for small samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here is the spread
//! the driver computes from the same numbers.

use crate::json::Value;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// First and third quartile. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // `delta` may exceed 4 or go below 0 at the clamped ends: the
        // exclusive method extrapolates there, as Python does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, or `None` when even the median does not (n < 20).
/// A percentile with fewer samples beyond it is a guess about the tail.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Linear-interpolated percentile `p` (0..=100) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// What is reported for one metric on one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    /// `(percentile, value)` when [`tail_percentile`] allows one.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            tail: tail_percentile(values.len()).map(|p| (p, percentile(values, p))),
        }
    }

    /// Interquartile distance as a share of the median (0 when the
    /// median is 0, which only exact zero counts produce).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self, unit: &str) -> Value {
        let mut pairs = vec![
            ("unit", Value::str(unit)),
            ("median", Value::Num(self.median)),
            ("q1", Value::Num(self.q1)),
            ("q3", Value::Num(self.q3)),
            ("min", Value::Num(self.min)),
            ("max", Value::Num(self.max)),
            ("n", Value::Num(self.n as f64)),
        ];
        if let Some((p, v)) = self.tail {
            pairs.push(("tail_percentile", Value::Num(p)));
            pairs.push(("tail_value", Value::Num(v)));
        }
        Value::obj(pairs)
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        let num = |k: &str| v.get(k)?.as_f64();
        Some(Summary {
            n: num("n")? as usize,
            median: num("median")?,
            q1: num("q1")?,
            q3: num("q3")?,
            min: num("min")?,
            max: num("max")?,
            tail: num("tail_percentile").zip(num("tail_value")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Reference values from CPython's `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let close = |a: (f64, f64), b: (f64, f64)| {
            assert!(
                (a.0 - b.0).abs() < 1e-12 && (a.1 - b.1).abs() < 1e-12,
                "{a:?} vs {b:?}"
            )
        };
        close(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        close(
            quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
            (2.75, 8.25),
        );
        close(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        close(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
        close(quartiles(&[2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 11.0]), (4.0, 9.0));
        close(quartiles(&[7.5]), (7.5, 7.5));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        for n in 0..20 {
            assert_eq!(tail_percentile(n), None, "n = {n}");
        }
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_of_five_repetitions_has_no_tail() {
        let s = Summary::of(&[2.0, 1.0, 3.0, 5.0, 4.0]);
        assert_eq!((s.n, s.median, s.min, s.max), (5, 3.0, 1.0, 5.0));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(s.tail, None);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::from_json(&s.to_json("s")), Some(s));
    }

    #[test]
    fn summary_of_many_samples_reports_the_allowed_tail() {
        let v: Vec<f64> = (0..40).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.tail.map(|t| t.0), Some(75.0));
        assert_eq!(Summary::from_json(&s.to_json("ms")), Some(s));
    }

    #[test]
    fn spread_of_an_all_zero_count_is_zero() {
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }
}
