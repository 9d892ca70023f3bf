//! Simulated time: microsecond-resolution instants and durations.
//!
//! [`SimTime`] is the *only* clock the engine and every protocol may
//! consult — wall-clock time never enters a trace-visible path (the
//! determinism contract, DESIGN.md §12). Time is a plain `u64` count of
//! microseconds since the start of the run; it advances exclusively by
//! event delivery, identically for every shard count.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in microseconds from the start of
/// the run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

/// A span of simulated time in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// Time zero (simulation start).
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from microseconds since simulation start.
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us)
    }

    /// Microseconds since simulation start.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since simulation start.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole seconds since simulation start.
    pub fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start, fractional.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier is in the future"),
        )
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000)
    }

    /// Constructs from seconds.
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000)
    }

    /// Microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole seconds.
    pub fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds, fractional.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0 * factor)
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    /// Saturates at time zero.
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.as_millis(), 2000);
        assert_eq!(d.as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis(1500).as_secs(), 1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        assert_eq!(t.as_millis(), 10);
        let later = t + SimDuration::from_millis(5);
        assert_eq!(later.since(t).as_millis(), 5);
        assert_eq!((SimDuration::from_secs(1) * 3).as_secs(), 3);
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_panics_backwards() {
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        let _ = SimTime::ZERO.since(t);
    }

    #[test]
    fn saturating_sub_duration() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(b - a, SimDuration::from_millis(1));
    }
}
