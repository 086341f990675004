//! Virtual time: instants and durations with microsecond resolution.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration of virtual time, stored as whole microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// From seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// From fractional milliseconds (rounds to the nearest microsecond).
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration((ms * 1_000.0).round().max(0.0) as u64)
    }

    /// As whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// As fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// As whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scales the duration by an integer factor. (Named `mul` for
    /// readability at call sites; the `std::ops::Mul` impl below defers to
    /// it.)
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration::mul(self, k)
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
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// An instant of virtual time, measured from the start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// From microseconds since start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// From seconds since start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole seconds since start (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds since start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Elapsed duration since `earlier`; saturates at zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_micros())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_micros();
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
        write!(f, "t+{}", SimDuration::from_micros(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(SimDuration::from_millis_f64(-4.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs(1).as_secs(), 1);
        assert!((SimDuration::from_micros(2_500).as_millis_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::from_secs(10);
        let t1 = t0 + SimDuration::from_millis(250);
        assert_eq!(t1.as_micros(), 10_250_000);
        assert_eq!(t1.since(t0), SimDuration::from_millis(250));
        assert_eq!(t0.since(t1), SimDuration::ZERO);
        assert_eq!(t1 - t0, SimDuration::from_millis(250));
        let mut t = t0;
        t += SimDuration::from_secs(1);
        assert_eq!(t.as_secs(), 11);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimTime::from_secs(1).to_string(), "t+1.000s");
    }

    #[test]
    fn saturating_and_scaling() {
        let a = SimDuration::from_millis(5);
        let b = SimDuration::from_millis(7);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_millis(2));
        assert_eq!(a.mul(3), SimDuration::from_millis(15));
    }
}
