//! Log-bucket (HDR-style) histograms for latency-class metrics.
//!
//! Fixed decade buckets would lose all shape information inside a
//! decade and could not be merged with sketches of a different layout.
//! A [`LogHistogram`] instead covers the full `u64` range with log₂
//! octaves split into 2⁴ = 16 sub-buckets, giving a worst-case relative
//! error of 1/16 ≈ 6 % at every scale while storing only the buckets
//! actually hit (a sparse, sorted list). Two sketches always merge
//! exactly — bucket layout is a property of the
//! type, not the instance — which is what lets per-worker registries
//! combine canonically.
//!
//! Everything is integer arithmetic on the observed values; recording
//! draws no randomness and never inspects caller state.

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUBBITS` equal-width buckets.
const SUBBITS: u32 = 4;
const SUBBUCKETS: u64 = 1 << SUBBITS;

/// A mergeable log-bucket histogram over `u64` values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// `(bucket index, count)` sorted by index; only non-zero buckets
    /// are stored.
    buckets: Vec<(u16, u64)>,
    /// Total observations.
    count: u64,
    /// Sum of observed values, saturating at `u64::MAX`.
    sum: u64,
    /// Smallest observed value (meaningless when `count == 0`).
    min: u64,
    /// Largest observed value.
    max: u64,
}

/// Bucket index for a value: identity below `SUBBUCKETS`, then
/// `(octave, mantissa)` packed so indices stay ordered by value.
fn bucket_index(v: u64) -> u16 {
    if v < SUBBUCKETS {
        return v as u16;
    }
    let e = 63 - v.leading_zeros(); // floor(log2 v) >= SUBBITS
    let shift = e - SUBBITS;
    let mantissa = (v >> shift) - SUBBUCKETS; // 0..SUBBUCKETS
    (((u64::from(shift) + 1) << SUBBITS) + mantissa) as u16
}

/// Inclusive lower bound of a bucket.
fn bucket_lower(index: u16) -> u64 {
    let wave = u64::from(index) >> SUBBITS;
    let sub = u64::from(index) & (SUBBUCKETS - 1);
    if wave == 0 {
        sub
    } else {
        (SUBBUCKETS + sub) << (wave - 1)
    }
}

/// Inclusive upper bound of a bucket.
fn bucket_upper(index: u16) -> u64 {
    let wave = u64::from(index) >> SUBBITS;
    if wave == 0 {
        bucket_lower(index)
    } else {
        bucket_lower(index) + ((1u64 << (wave - 1)) - 1)
    }
}

impl LogHistogram {
    /// An empty sketch.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = bucket_index(value);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observed value, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observed value, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the observations (0 when empty; saturated sums bias it
    /// low, which only matters after ~2⁶⁴ ns of accumulated latency).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile
    /// (`0.0 ..= 1.0`), `None` when empty. The answer is exact to the
    /// bucket's ≈6 % relative width.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(idx, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(idx).min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Non-zero buckets as `(lower, upper, count)`, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .map(|&(i, c)| (bucket_lower(i), bucket_upper(i), c))
    }

    /// Merge another sketch into this one. Always well-defined: the
    /// bucket layout is fixed by the type.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        for &(idx, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += c,
                Err(pos) => self.buckets.insert(pos, (idx, c)),
            }
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..16u64 {
            h.observe(v);
        }
        // One bucket per value below SUBBUCKETS.
        assert_eq!(h.buckets().count(), 16);
        for (lo, hi, c) in h.buckets() {
            assert_eq!(lo, hi);
            assert_eq!(c, 1);
        }
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(15));
        assert_eq!(h.sum(), (0..16).sum::<u64>());
    }

    #[test]
    fn exact_bucket_boundaries_land_in_their_own_bucket() {
        // Powers of two are the lower edges of their octaves; the value
        // one below must land in the previous bucket.
        for e in [4u32, 5, 10, 20, 40, 63] {
            let v = 1u64 << e;
            let at = bucket_index(v);
            let below = bucket_index(v - 1);
            assert!(below < at, "2^{e}: below={below} at={at}");
            assert_eq!(bucket_lower(at), v, "2^{e} is its bucket's lower bound");
            assert_eq!(bucket_upper(below), v - 1, "2^{e}-1 ends the bucket below");
        }
    }

    #[test]
    fn bounds_tile_the_u64_range() {
        // Consecutive indices abut exactly: upper(i) + 1 == lower(i+1).
        let last = bucket_index(u64::MAX);
        for i in 0..last {
            assert_eq!(
                bucket_upper(i) + 1,
                bucket_lower(i + 1),
                "gap or overlap at index {i}"
            );
        }
        assert_eq!(bucket_upper(last), u64::MAX);
    }

    #[test]
    fn zero_and_u64_max_are_recorded() {
        let mut h = LogHistogram::new();
        h.observe(0);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        // The sum saturates instead of wrapping.
        h.observe(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        assert_eq!(h.quantile(0.0), Some(0));
    }

    #[test]
    fn relative_error_is_within_a_sixteenth() {
        let mut h = LogHistogram::new();
        for e in 4..63 {
            let v = (1u64 << e) + (1u64 << (e - 1)) + 7; // mid-octave
            h.observe(v);
            let (lo, hi, _) = h.buckets().find(|&(lo, hi, _)| lo <= v && v <= hi).unwrap();
            let width = hi - lo + 1;
            assert!(
                (width as f64) / (lo as f64) <= 1.0 / 16.0 + 1e-12,
                "bucket [{lo},{hi}] too wide for {v}"
            );
        }
    }

    #[test]
    fn merge_empty_is_identity_both_ways() {
        let mut x = LogHistogram::new();
        for v in [3u64, 900, 1 << 33, u64::MAX] {
            x.observe(v);
        }
        let snapshot = x.clone();

        // merge(x, empty) == x
        x.merge(&LogHistogram::new());
        assert_eq!(x, snapshot);

        // merge(empty, x) == x
        let mut e = LogHistogram::new();
        e.merge(&snapshot);
        assert_eq!(e, snapshot);
    }

    #[test]
    fn merge_adds_counts_and_keeps_extremes() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.observe(100);
        a.observe(200);
        b.observe(100);
        b.observe(5_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), Some(100));
        assert_eq!(a.max(), Some(5_000_000));
        let hundred = a.buckets().find(|&(lo, hi, _)| lo <= 100 && 100 <= hi);
        assert_eq!(hundred.map(|(_, _, c)| c), Some(2));
    }

    #[test]
    fn quantile_relative_error_is_within_a_sixteenth() {
        // The helper exists so callers (session tables, reports) never
        // re-derive bucket math; its contract is ≤1/16 relative error
        // against the exact order statistic at every scale.
        for shift in [0u32, 8, 20, 40] {
            let mut h = LogHistogram::new();
            let values: Vec<u64> = (1..=5000u64).map(|v| v << shift).collect();
            for &v in &values {
                h.observe(v);
            }
            for q in [0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 1.0] {
                let rank = ((q * values.len() as f64).ceil() as usize).max(1);
                let exact = values[rank - 1] as f64;
                let approx = h.quantile(q).unwrap() as f64;
                assert!(
                    (approx - exact).abs() / exact <= 1.0 / 16.0 + 1e-12,
                    "q={q} shift={shift}: approx {approx} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn quantiles_walk_the_distribution() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((450..=560).contains(&p50), "p50 = {p50}");
        assert!((930..=1024).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
    }
}
