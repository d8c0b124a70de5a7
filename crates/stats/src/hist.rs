//! Fixed-width histograms over `f64` samples.

/// A fixed-width histogram over `[lo, hi)`. Out-of-range samples are
/// counted in the under/overflow tallies, not silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// If `bins == 0` or `lo >= hi` or either bound is not finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Build and fill in one step.
    pub fn of(samples: &[f64], lo: f64, hi: f64, bins: usize) -> Self {
        let mut h = Histogram::new(lo, hi, bins);
        for &x in samples {
            h.add(x);
        }
        h
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo || x.is_nan() {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Raw count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Total samples offered (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// In-range fraction of mass per bin (sums to ≤ 1; the remainder is
    /// under/overflow).
    pub fn fractions(&self) -> Vec<f64> {
        let total = self.total.max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_land_in_the_right_bins() {
        let h = Histogram::of(&[0.0, 0.5, 1.0, 1.5, 9.99], 0.0, 10.0, 10);
        assert_eq!(h.count(0), 2); // 0.0, 0.5
        assert_eq!(h.count(1), 2); // 1.0, 1.5
        assert_eq!(h.count(9), 1); // 9.99
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn boundaries_are_half_open() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(10.0); // == hi → overflow
        h.add(-0.0001);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn nan_counts_as_underflow() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(f64::NAN);
        assert_eq!(h.underflow(), 1);
    }

    #[test]
    fn bin_geometry() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bins(), 5);
        assert_eq!(h.bin_width(), 2.0);
        assert_eq!(h.bin_center(0), 1.0);
        assert_eq!(h.bin_center(4), 9.0);
    }

    #[test]
    fn fractions_sum_to_in_range_share() {
        let h = Histogram::of(&[1.0, 2.0, 3.0, 100.0], 0.0, 10.0, 10);
        let sum: f64 = h.fractions().iter().sum();
        assert!((sum - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn inverted_range_rejected() {
        Histogram::new(2.0, 1.0, 4);
    }
}
