//! Virtual time: absolute instants ([`SimTime`]) and spans ([`Duration`]),
//! both counted in integer nanoseconds so arithmetic is exact and
//! deterministic across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the virtual clock, in nanoseconds since the start
/// of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl SimTime {
    /// The origin of the virtual clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant; used as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Instant `nanos` nanoseconds after the origin.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Instant `secs` seconds after the origin.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since the origin (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the origin as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The longest representable span; used as an "infinity" sentinel.
    pub const MAX: Duration = Duration(u64::MAX);

    /// A span of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Duration(nanos)
    }

    /// A span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros * 1_000)
    }

    /// A span of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000_000)
    }

    /// A span of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000_000)
    }

    /// A span of `secs` seconds given as a float (rounds to nanoseconds).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        Duration((secs * 1e9).round() as u64)
    }

    /// The span in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Milliseconds as a float (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` when the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction; returns [`Duration::ZERO`] on underflow.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Scale the span by a non-negative float factor (rounds to nanoseconds).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> Duration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor: {factor}"
        );
        Duration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("Duration subtraction underflow"),
        )
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(Duration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Duration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(Duration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + Duration::from_millis(10);
        let u = t + Duration::from_millis(5);
        assert_eq!((u - t).as_millis(), 5);
        assert_eq!((u - Duration::from_millis(15)), SimTime::ZERO);
        assert_eq!(Duration::from_millis(4) * 3, Duration::from_millis(12));
        assert_eq!(Duration::from_millis(12) / 4, Duration::from_millis(3));
    }

    #[test]
    fn saturating_ops() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a), Duration::from_nanos(4));
        assert_eq!(
            Duration::from_nanos(1).saturating_sub(Duration::from_nanos(2)),
            Duration::ZERO
        );
    }

    #[test]
    fn float_conversions() {
        assert_eq!(Duration::from_secs_f64(0.25).as_millis(), 250);
        assert!((Duration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(Duration::from_millis(10).mul_f64(2.5).as_millis(), 25);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{:?}", SimTime::ZERO).is_empty());
        assert_eq!(format!("{:?}", Duration::from_nanos(5)), "5ns");
        assert_eq!(format!("{:?}", Duration::from_micros(5)), "5.000us");
        assert_eq!(format!("{:?}", Duration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{:?}", Duration::from_secs(5)), "5.000s");
    }
}
