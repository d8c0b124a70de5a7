//! The simulator's own deterministic random number generator.
//!
//! `xoshiro256**` seeded through SplitMix64, implemented here (rather
//! than depending on a `rand` backend) so that experiment results are
//! bit-reproducible for a given seed regardless of dependency versions.
//! Each component that needs randomness gets a *forked* sub-stream via
//! [`SimRng::fork`], so adding a consumer never perturbs the draws seen
//! by existing consumers — the classic trap in seeded simulations.

/// Deterministic RNG: xoshiro256** with SplitMix64 seeding.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second normal deviate from Box-Muller.
    spare_normal: Option<f64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Seed a generator. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            spare_normal: None,
        }
    }

    /// Derive an independent sub-stream labelled by `stream`.
    ///
    /// Forking with different labels from the same parent yields
    /// decorrelated generators; forking with the same label twice yields
    /// identical ones (useful for replay).
    pub fn fork(&self, stream: u64) -> SimRng {
        // Mix the label into the parent state through SplitMix64.
        let mut sm = self.s[0] ^ self.s[2] ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93);
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
            spare_normal: None,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi]` (inclusive), unbiased via rejection.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        let span = span + 1;
        // Rejection sampling over the largest multiple of `span`.
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let v = self.next_u64();
            if v < zone {
                return lo + v % span;
            }
        }
    }

    /// Uniform usize in `[0, n)`; panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() needs a non-empty range");
        self.range_u64(0, n as u64 - 1) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Standard normal deviate (Box-Muller, with caching of the pair).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid log(0).
        let u1 = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * core::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Exponential deviate with the given mean (> 0).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Log-normal deviate parameterised by the *underlying* normal's
    /// `mu` and `sigma`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_stable_and_decorrelated() {
        let parent = SimRng::new(7);
        let mut c1 = parent.fork(1);
        let mut c1_again = parent.fork(1);
        let mut c2 = parent.fork(2);
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c1_again.next_u64());
        }
        let mut c1 = parent.fork(1);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_u64_respects_bounds_and_hits_ends() {
        let mut r = SimRng::new(4);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.range_u64(5, 9);
            assert!((5..=9).contains(&v));
            seen_lo |= v == 5;
            seen_hi |= v == 9;
        }
        assert!(seen_lo && seen_hi);
        assert_eq!(r.range_u64(3, 3), 3);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_frequency_is_roughly_p() {
        let mut r = SimRng::new(6);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq = {freq}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::new(8);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.15, "var = {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(9);
        let n = 100_000;
        let mean = (0..n).map(|_| r.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn log_normal_is_positive() {
        let mut r = SimRng::new(10);
        for _ in 0..1000 {
            assert!(r.log_normal(0.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn index_covers_range() {
        let mut r = SimRng::new(11);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[r.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn index_rejects_empty() {
        SimRng::new(0).index(0);
    }
}
