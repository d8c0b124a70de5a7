//! Simulated time: a nanosecond tick counter.
//!
//! All scheduling in the simulator is expressed in [`SimTime`]
//! (an absolute instant) and [`SimDuration`] (a span). Both are thin
//! newtypes over `u64` nanoseconds, so arithmetic is exact and runs are
//! bit-reproducible — no floating point drift in the clock.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// From fractional seconds (rounds to the nearest nanosecond;
    /// negative inputs clamp to zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e9).round() as u64)
    }

    /// As nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// As fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// As fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The time needed to serialise `bytes` onto a link of `bits_per_sec`.
    pub fn transmission(bytes: usize, bits_per_sec: u64) -> Self {
        assert!(bits_per_sec > 0, "link rate must be positive");
        SimDuration(mul_div(bytes as u64, 8 * 1_000_000_000, bits_per_sec))
    }

    /// Saturating multiply by an integer factor.
    pub fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }
}

/// `a * b / d`, floored, truncated to `u64` as the `u128` formula is.
/// Exact in `u64` whenever the product fits, which covers every
/// per-packet rate computation; the `u128` division runs only past
/// that.
pub(crate) fn mul_div(a: u64, b: u64, d: u64) -> u64 {
    match a.checked_mul(b) {
        Some(product) => product / d,
        None => (u128::from(a) * u128::from(b) / u128::from(d)) as u64,
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// An absolute instant of simulated time (nanoseconds since the start
/// of the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The run origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since origin.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds since origin.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Span since an earlier instant (saturates at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3000));
        assert_eq!(SimDuration::from_micros(5), SimDuration::from_nanos(5000));
        assert_eq!(
            SimDuration::from_secs_f64(0.25),
            SimDuration::from_millis(250)
        );
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn transmission_time_examples() {
        // 1500 bytes at 10 Mbit/s = 1.2 ms (the paper's client NIC).
        assert_eq!(
            SimDuration::transmission(1500, 10_000_000),
            SimDuration::from_micros(1200)
        );
        // 1 byte at 8 bit/s = 1 s.
        assert_eq!(SimDuration::transmission(1, 8), SimDuration::from_secs(1));
        // Zero bytes take zero time.
        assert_eq!(SimDuration::transmission(0, 56_000), SimDuration::ZERO);
    }

    /// The u64 fast path and the u128 fallback both equal the u128
    /// formula, on either side of the u64 overflow boundary.
    #[test]
    fn mul_div_matches_the_u128_formula_at_the_edges() {
        let formula = |a: u64, b: u64, d: u64| (a as u128 * b as u128 / d as u128) as u64;
        let bit_ns = 8 * 1_000_000_000;
        let boundary = u64::MAX / bit_ns;
        for bytes in [0, 1, 1500, boundary, boundary + 1, u64::MAX] {
            for bps in [1, 8, 56_000, 10_000_000, 1_000_000_000, u64::MAX] {
                assert_eq!(
                    mul_div(bytes, bit_ns, bps),
                    formula(bytes, bit_ns, bps),
                    "{bytes} B at {bps} bps"
                );
                assert_eq!(
                    mul_div(bytes, bps, bit_ns),
                    formula(bytes, bps, bit_ns),
                    "{bytes} ns busy at {bps} bps"
                );
            }
        }
        assert!(boundary.checked_mul(bit_ns).is_some());
        assert!((boundary + 1).checked_mul(bit_ns).is_none());
        // 1 B at 1 bps: 8 s; the boundary at 1 bps stays exact in u64.
        assert_eq!(SimDuration::transmission(1, 1), SimDuration::from_secs(8));
        assert_eq!(
            SimDuration::transmission(boundary as usize, 1).as_nanos(),
            boundary * bit_ns
        );
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn transmission_rejects_zero_rate() {
        let _ = SimDuration::transmission(1, 0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(40);
        assert_eq!(t.as_millis_f64(), 40.0);
        let u = t + SimDuration::from_millis(2);
        assert_eq!(u.since(t), SimDuration::from_millis(2));
        assert_eq!(t.since(u), SimDuration::ZERO); // saturates
        assert_eq!(u - t, SimDuration::from_millis(2));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_millis(40).to_string(), "40.000ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
        assert_eq!(
            (SimTime::ZERO + SimDuration::from_millis(1500)).to_string(),
            "1.500000s"
        );
    }

    #[test]
    fn ordering_is_by_instant() {
        let a = SimTime::ZERO + SimDuration::from_nanos(1);
        let b = SimTime::ZERO + SimDuration::from_nanos(2);
        assert!(a < b);
    }
}
