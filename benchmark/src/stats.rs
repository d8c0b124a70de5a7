//! Order statistics for repeated runs. The quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive"
//! method), so a spread printed here matches one computed from the
//! same values in Python.

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles, `statistics.quantiles(values, n=4)`
/// style: `(q1, q3)`. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (data[0], data[0]),
        _ => {
            // Signed, as in Python: clamping `j` can make `delta`
            // negative or larger than `n` (extrapolation for tiny n).
            let n = 4i64;
            let (ld, m) = (ld as i64, ld as i64 + 1);
            let cut = |i: i64| {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = i * m - j * n;
                let (lo, hi) = (data[j as usize - 1], data[j as usize]);
                (lo * (n - delta) as f64 + hi * delta as f64) / n as f64
            };
            (cut(1), cut(3))
        }
    }
}

/// Median, quartiles and count of one metric over repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([7, 9], n=4) == [6.5, 8.0, 9.5]
        assert_eq!(quartiles(&[9.0, 7.0]), (6.5, 9.5));
        // statistics.quantiles([1, 2, 4, 8, 16, 32], n=4) == [1.75, 6.0, 20.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]), (1.75, 20.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn summary_holds_median_quartiles_and_count() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 1.5, 4.5, 5));
    }
}
