//! Virtual simulation time.
//!
//! Simulated time is a 64-bit count of nanoseconds. A `u64` nanosecond clock
//! wraps after ~584 simulated years, far beyond any network simulation
//! horizon, so saturating arithmetic is used only where an overflow could be
//! provoked by user input (e.g. scheduling at [`Time::MAX`]).

use core::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since the simulation epoch.
///
/// `Time` is also used for durations (the type is a plain instant/duration
/// scalar, like ns-3's `Time`).
///
/// # Examples
///
/// ```
/// use unison_core::Time;
///
/// let t = Time::from_micros(3);
/// assert_eq!(t + Time::from_nanos(500), Time::from_nanos(3_500));
/// assert_eq!(t.as_nanos(), 3_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);
    /// The largest representable time; used as "never" / +infinity.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Creates a time from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }

    /// Creates a time from a floating-point number of seconds.
    ///
    /// Negative inputs clamp to [`Time::ZERO`]; values beyond the `u64`
    /// nanosecond range clamp to [`Time::MAX`].
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return Time::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            Time::MAX
        } else {
            Time(ns as u64)
        }
    }

    /// Returns the time as nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the time as microseconds (integer division).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the time as milliseconds (integer division).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the time as floating-point seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition; `Time::MAX` is treated as +infinity.
    #[inline]
    pub const fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub const fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Returns `min(self, other)`.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns `max(self, other)`.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            return write!(f, "+inf");
        }
        if self.0 >= 1_000_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(
                f,
                "{}.{:03}s",
                self.0 / 1_000_000_000,
                (self.0 / 1_000_000) % 1_000
            )
        } else if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000) {
            write!(
                f,
                "{}.{:03}ms",
                self.0 / 1_000_000,
                (self.0 / 1_000) % 1_000
            )
        } else if self.0 >= 1_000 {
            write!(f, "{}.{:03}us", self.0 / 1_000, self.0 % 1_000)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Transmission rate in bits per second.
///
/// # Examples
///
/// ```
/// use unison_core::{DataRate, Time};
///
/// let r = DataRate::gbps(10);
/// // A 1250-byte packet at 10 Gbps takes 1 microsecond to serialize.
/// assert_eq!(r.tx_time(1250), Time::from_micros(1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DataRate(pub u64);

impl DataRate {
    /// Creates a rate from bits per second.
    #[inline]
    pub const fn bps(bits_per_sec: u64) -> Self {
        DataRate(bits_per_sec)
    }

    /// Creates a rate from megabits per second.
    #[inline]
    pub const fn mbps(mb: u64) -> Self {
        DataRate(mb * 1_000_000)
    }

    /// Creates a rate from gigabits per second.
    #[inline]
    pub const fn gbps(gb: u64) -> Self {
        DataRate(gb * 1_000_000_000)
    }

    /// Returns the rate in bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Serialization delay for `bytes` at this rate, rounded up to whole
    /// nanoseconds.
    ///
    /// A zero rate yields [`Time::MAX`] ("never completes"), which models a
    /// disconnected or administratively-down link.
    #[inline]
    pub fn tx_time(self, bytes: u32) -> Time {
        if self.0 == 0 {
            return Time::MAX;
        }
        // Below 2^30 bytes the product `bytes * 8 * 10^9` fits 64 bits, and
        // a packet always is: the 128-bit division (`__udivti3`, a call) is
        // kept for the sizes that need it.
        if bytes < 1 << 30 {
            return Time((bytes as u64 * 8_000_000_000).div_ceil(self.0));
        }
        let ns = (bytes as u128 * 8_000_000_000).div_ceil(self.0 as u128);
        Time(ns.min(u64::MAX as u128) as u64)
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 && self.0.is_multiple_of(1_000_000_000) {
            write!(f, "{}Gbps", self.0 / 1_000_000_000)
        } else if self.0 >= 1_000_000 && self.0.is_multiple_of(1_000_000) {
            write!(f, "{}Mbps", self.0 / 1_000_000)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_secs(1), Time::from_millis(1_000));
        assert_eq!(Time::from_millis(1), Time::from_micros(1_000));
        assert_eq!(Time::from_micros(1), Time::from_nanos(1_000));
    }

    #[test]
    fn float_roundtrip() {
        let t = Time::from_secs_f64(0.1);
        assert_eq!(t, Time::from_millis(100));
        assert!((t.as_secs_f64() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn float_clamps() {
        assert_eq!(Time::from_secs_f64(-1.0), Time::ZERO);
        assert_eq!(Time::from_secs_f64(1e30), Time::MAX);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Time::MAX.saturating_add(Time(1)), Time::MAX);
        assert_eq!(Time(3).saturating_sub(Time(5)), Time::ZERO);
    }

    #[test]
    fn min_max() {
        assert_eq!(Time(3).min(Time(5)), Time(3));
        assert_eq!(Time(3).max(Time(5)), Time(5));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 bps = 8/3 s = 2.666..e9 ns, rounds up.
        assert_eq!(DataRate::bps(3).tx_time(1), Time(2_666_666_667));
        assert_eq!(DataRate::gbps(100).tx_time(1500), Time(120));
    }

    #[test]
    fn tx_time_zero_rate_is_never() {
        assert_eq!(DataRate::bps(0).tx_time(1500), Time::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Time::from_secs(2).to_string(), "2.000s");
        assert_eq!(Time::from_micros(3).to_string(), "3.000us");
        assert_eq!(Time(42).to_string(), "42ns");
        assert_eq!(Time::MAX.to_string(), "+inf");
        assert_eq!(DataRate::gbps(10).to_string(), "10Gbps");
        assert_eq!(DataRate::mbps(100).to_string(), "100Mbps");
    }
}
