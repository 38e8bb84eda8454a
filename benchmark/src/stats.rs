//! Order statistics over small samples of host timings.

/// Summary of a sample: minimum, quartiles and median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// `(median − min) ÷ min`: how far a typical repetition sat above the
    /// best one. A quiet host gives a few percent.
    pub fn wall_spread(&self) -> f64 {
        (self.median - self.min) / self.min
    }

    /// `(q3 − q1) ÷ median`: the inter-quartile spread the benchmark
    /// contract bounds.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// Sorted copy of `values`.
///
/// # Panics
///
/// Panics on NaN — timings and counts are never NaN.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Smallest value (`None` when empty).
pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().reduce(f64::min)
}

/// Median (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Quartile cut points `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so a spread computed here matches the one the benchmark
/// driver computes. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // j = i*(n+1)/4 clamped to 1..=n-1, delta = i*(n+1) - j*4
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Full summary; a single sample is its own min, median and quartiles.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let min = min(values)?;
    let median = median(values)?;
    let (q1, _, q3) = quartiles(values).unwrap_or((median, median, median));
    Some(Summary {
        n: values.len(),
        min,
        q1,
        median,
        q3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_median() {
        assert_eq!(min(&[]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(min(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([5,1,9,3,7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some((2.0, 5.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_spreads() {
        let s = summarize(&[1.0, 1.1, 1.2, 1.3, 2.0]).expect("non-empty");
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 1.2);
        assert!((s.wall_spread() - 0.2).abs() < 1e-12);
        // q1 = 1.05, q3 = 1.65
        assert!((s.iqr_share() - 0.5).abs() < 1e-12);
        let one = summarize(&[2.0]).expect("non-empty");
        assert_eq!((one.q1, one.median, one.q3), (2.0, 2.0, 2.0));
        assert_eq!(summarize(&[]), None);
    }
}
