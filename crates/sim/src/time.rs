//! Picosecond-resolution virtual time.
//!
//! Two newtypes keep instants and durations from being confused:
//! [`Time`] is an absolute instant on the simulation clock and [`Dur`] is a
//! span. `Time + Dur = Time`, `Time - Time = Dur`, and both saturate rather
//! than wrap so cost-model arithmetic can never silently overflow.
//!
//! A `u64` of picoseconds covers ~213 days of simulated time, far beyond
//! any experiment in this repository.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub(crate) const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub(crate) const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// An absolute instant on the simulation clock, in picoseconds since start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);
    /// The farthest representable instant; used as an "infinite" deadline.
    pub const MAX: Time = Time(u64::MAX);

    /// Returns the instant `n` nanoseconds after the epoch.
    pub const fn from_ns(n: u64) -> Time {
        Time(n * PS_PER_NS)
    }

    /// Returns the instant `n` microseconds after the epoch.
    pub const fn from_us(n: u64) -> Time {
        Time(n * PS_PER_US)
    }

    /// Returns the instant `n` milliseconds after the epoch.
    pub const fn from_ms(n: u64) -> Time {
        Time(n * PS_PER_MS)
    }

    /// Returns the instant `n` seconds after the epoch.
    pub const fn from_secs(n: u64) -> Time {
        Time(n * PS_PER_S)
    }

    /// Returns this instant as (possibly fractional) nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Returns this instant as (possibly fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Returns this instant as (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Returns the span since `earlier`, or [`Dur::ZERO`] if `earlier` is
    /// in the future.
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub(crate) fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }
}

impl Dur {
    /// The zero-length span.
    pub const ZERO: Dur = Dur(0);

    /// Returns a span of `n` picoseconds.
    pub const fn from_ps(n: u64) -> Dur {
        Dur(n)
    }

    /// Returns a span of `n` nanoseconds.
    pub const fn from_ns(n: u64) -> Dur {
        Dur(n * PS_PER_NS)
    }

    /// Returns a span of `n` microseconds.
    pub const fn from_us(n: u64) -> Dur {
        Dur(n * PS_PER_US)
    }

    /// Returns a span of `n` milliseconds.
    pub const fn from_ms(n: u64) -> Dur {
        Dur(n * PS_PER_MS)
    }

    /// Returns a span of `n` seconds.
    pub const fn from_secs(n: u64) -> Dur {
        Dur(n * PS_PER_S)
    }

    /// Returns a span of `ns` (fractional) nanoseconds, rounding to the
    /// nearest picosecond. Negative inputs clamp to zero.
    pub fn from_ns_f64(ns: f64) -> Dur {
        if ns <= 0.0 {
            return Dur::ZERO;
        }
        Dur((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Returns a span of `s` (fractional) seconds, rounding to the nearest
    /// picosecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Dur {
        if s <= 0.0 {
            return Dur::ZERO;
        }
        Dur((s * PS_PER_S as f64).round() as u64)
    }

    /// Returns this span as (possibly fractional) nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Returns this span as (possibly fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Returns this span as (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Returns `true` if this span is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by an integer count, saturating on overflow.
    pub fn saturating_mul(self, n: u64) -> Dur {
        Dur(self.0.saturating_mul(n))
    }

    /// Divides the span into `n` equal parts (integer division).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub(crate) fn div_int(self, n: u64) -> Dur {
        Dur(self.0 / n)
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, rhs: Time) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        self.saturating_mul(rhs)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        self.div_int(rhs)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

fn fmt_ps(ps: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ps == u64::MAX {
        return write!(f, "inf");
    }
    if ps < PS_PER_NS {
        write!(f, "{ps}ps")
    } else if ps < PS_PER_US {
        write!(f, "{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else if ps < PS_PER_MS {
        write!(f, "{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps < PS_PER_S {
        write!(f, "{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else {
        write!(f, "{:.3}s", ps as f64 / PS_PER_S as f64)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t=")?;
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Dur::from_ns(1).0, 1_000);
        assert_eq!(Dur::from_us(1).0, 1_000_000);
        assert_eq!(Dur::from_ms(1).0, 1_000_000_000);
        assert_eq!(Dur::from_secs(1).0, 1_000_000_000_000);
        assert_eq!(Dur::from_secs(3).as_secs_f64(), 3.0);
        assert_eq!(Dur::from_ns(1500).as_us_f64(), 1.5);
    }

    #[test]
    fn fractional_ns_rounds_to_ps() {
        // 0.08 ns/byte is the per-byte serialization cost at 100 Gbps.
        assert_eq!(Dur::from_ns_f64(0.08).0, 80);
        assert_eq!(Dur::from_ns_f64(5.12).0, 5_120);
        assert_eq!(Dur::from_ns_f64(-1.0), Dur::ZERO);
    }

    #[test]
    fn time_dur_arithmetic() {
        let t = Time::from_ns(100);
        let d = Dur::from_ns(20);
        assert_eq!(t + d, Time::from_ns(120));
        assert_eq!(t - d, Time::from_ns(80));
        assert_eq!(Time::from_ns(120) - t, Dur::from_ns(20));
        // Saturating: subtracting a later instant yields zero.
        assert_eq!(t - Time::from_ns(200), Dur::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Time::MAX + Dur::from_secs(1), Time::MAX);
        assert_eq!(Dur(u64::MAX) + Dur::from_ns(1), Dur(u64::MAX));
        assert_eq!(Dur(u64::MAX).saturating_mul(2), Dur(u64::MAX));
        assert_eq!(Dur::ZERO - Dur::from_ns(1), Dur::ZERO);
    }

    #[test]
    fn dur_scaling() {
        assert_eq!(Dur::from_ns(10) * 3, Dur::from_ns(30));
        assert_eq!(Dur::from_ns(30) / 3, Dur::from_ns(10));
        let total: Dur = [Dur::from_ns(1), Dur::from_ns(2), Dur::from_ns(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Dur::from_ns(6));
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Time::from_ns(1);
        let b = Time::from_ns(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.saturating_since(a), Dur::from_ns(1));
        assert_eq!(a.saturating_since(b), Dur::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Dur::from_ps(500)), "500ps");
        assert_eq!(format!("{}", Dur::from_ns(5)), "5.000ns");
        assert_eq!(format!("{}", Dur::from_us(7)), "7.000us");
        assert_eq!(format!("{}", Dur::from_ms(2)), "2.000ms");
        assert_eq!(format!("{}", Dur::from_secs(1)), "1.000s");
        assert_eq!(format!("{}", Dur(u64::MAX)), "inf");
    }
}
