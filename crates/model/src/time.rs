//! Fixed-point time arithmetic.
//!
//! The paper expresses all durations in abstract "time units" with decimal
//! fractions (e.g. `1.75`, `15.05`). Floating point would make scheduler
//! tie-breaking fragile (and `f64` is not `Ord`), so [`Time`] stores
//! non-negative time as an integer count of **millitime** units
//! (1 time unit = 1000 ticks). All table values in the paper are exactly
//! representable.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Sub, SubAssign};
use core::str::FromStr;

use serde::{Deserialize, Serialize};

/// Number of ticks per paper "time unit".
pub const TICKS_PER_UNIT: u64 = 1000;

/// A non-negative instant or duration, in fixed-point time units.
///
/// `Time` is totally ordered, hashable and exact, which the schedulers rely
/// on for deterministic decisions.
///
/// # Example
///
/// ```
/// use ftbar_model::Time;
///
/// let a = Time::from_units(1.75);
/// let b = Time::from_units(0.25);
/// assert_eq!((a + b).to_string(), "2");
/// assert_eq!((a - b), Time::from_units(1.5));
/// assert!(a > b);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Time(u64);

impl Time {
    /// The zero time.
    pub const ZERO: Time = Time(0);

    /// The largest representable time; used as an "unreachable" sentinel by
    /// schedulers (never as a real date).
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from raw ticks (1/1000 of a time unit).
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Time {
        Time(ticks)
    }

    /// Returns the raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Creates a time from a (non-negative, finite) number of time units,
    /// rounding to the nearest tick.
    ///
    /// # Panics
    ///
    /// Panics if `units` is negative, NaN, or too large to represent.
    pub fn from_units(units: f64) -> Time {
        assert!(
            units.is_finite() && units >= 0.0,
            "time must be finite and non-negative, got {units}"
        );
        let ticks = units * TICKS_PER_UNIT as f64;
        assert!(
            ticks <= u64::MAX as f64 / 2.0,
            "time {units} overflows the tick representation"
        );
        Time(ticks.round() as u64)
    }

    /// Returns the value as floating-point time units.
    #[inline]
    pub fn as_units(self) -> f64 {
        self.0 as f64 / TICKS_PER_UNIT as f64
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// True if this is the zero time.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a non-negative scale factor, rounding to ticks.
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative or NaN, or on overflow.
    pub fn scale(self, k: f64) -> Time {
        assert!(k.is_finite() && k >= 0.0, "scale must be non-negative");
        Time::from_units(self.as_units() * k)
    }

    /// Returns the maximum of two times.
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the minimum of two times.
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for Time {
    type Output = Time;

    fn add(self, rhs: Time) -> Time {
        Time(self.0.checked_add(rhs.0).expect("time overflow"))
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;

    /// # Panics
    ///
    /// Panics on underflow (times are non-negative).
    fn sub(self, rhs: Time) -> Time {
        Time(self.0.checked_sub(rhs.0).expect("time underflow"))
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Time {
    type Output = Time;

    fn mul(self, rhs: u64) -> Time {
        Time(self.0.checked_mul(rhs).expect("time overflow"))
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    /// Formats as decimal time units without trailing zeros: `15.05`, `2`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let whole = self.0 / TICKS_PER_UNIT;
        let frac = self.0 % TICKS_PER_UNIT;
        if frac == 0 {
            write!(f, "{whole}")
        } else {
            let s = format!("{frac:03}");
            write!(f, "{whole}.{}", s.trim_end_matches('0'))
        }
    }
}

/// Error parsing a [`Time`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTimeError {
    input: String,
}

impl fmt::Display for ParseTimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid time literal `{}`", self.input)
    }
}

impl std::error::Error for ParseTimeError {}

impl FromStr for Time {
    type Err = ParseTimeError;

    /// Parses decimal time units: `"2"`, `"1.75"`, `"0.005"`.
    ///
    /// At most three fractional digits are accepted (the tick resolution).
    fn from_str(s: &str) -> Result<Time, ParseTimeError> {
        Time::parse_decimal(s.as_bytes()).ok_or_else(|| ParseTimeError {
            input: s.to_owned(),
        })
    }
}

impl Time {
    /// Parses decimal time units from bytes, as [`FromStr`] does: an
    /// optional `+`, whole digits, then optionally a dot and at most three
    /// fractional digits; either side of the dot may be empty, not both.
    /// `None` on any other text or when the time overflows.
    pub(crate) fn parse_decimal(s: &[u8]) -> Option<Time> {
        let (whole, frac) = match s.iter().position(|&b| b == b'.') {
            Some(dot) => (&s[..dot], &s[dot + 1..]),
            None => (s, &[][..]),
        };
        let digits = whole.strip_prefix(b"+").unwrap_or(whole);
        if (digits.is_empty() && (whole.len() == 1 || frac.is_empty())) || frac.len() > 3 {
            return None;
        }
        let mut units: u64 = 0;
        for &b in digits {
            if !b.is_ascii_digit() {
                return None;
            }
            units = units.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        }
        let mut ticks: u64 = 0;
        for i in 0..3 {
            let digit = match frac.get(i) {
                Some(&b) if b.is_ascii_digit() => u64::from(b - b'0'),
                Some(_) => return None,
                None => 0,
            };
            ticks = ticks * 10 + digit;
        }
        units
            .checked_mul(TICKS_PER_UNIT)
            .and_then(|t| t.checked_add(ticks))
            .map(Time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_units_round_trips_paper_values() {
        for v in [0.5, 1.0, 1.3, 1.4, 1.75, 1.25, 2.5, 15.05, 10.7, 4.35] {
            assert_eq!(Time::from_units(v).as_units(), v);
        }
    }

    #[test]
    fn display_trims_zeros() {
        assert_eq!(Time::from_units(2.0).to_string(), "2");
        assert_eq!(Time::from_units(15.05).to_string(), "15.05");
        assert_eq!(Time::from_units(0.5).to_string(), "0.5");
        assert_eq!(Time::from_units(0.005).to_string(), "0.005");
        assert_eq!(Time::ZERO.to_string(), "0");
    }

    #[test]
    fn parse_valid() {
        assert_eq!("1.75".parse::<Time>().unwrap(), Time::from_units(1.75));
        assert_eq!("2".parse::<Time>().unwrap(), Time::from_units(2.0));
        assert_eq!(".5".parse::<Time>().unwrap(), Time::from_units(0.5));
        assert_eq!("3.".parse::<Time>().unwrap(), Time::from_units(3.0));
        assert_eq!("0.005".parse::<Time>().unwrap(), Time::from_ticks(5));
        assert_eq!("+1.5".parse::<Time>().unwrap(), Time::from_ticks(1500));
        assert_eq!("007.010".parse::<Time>().unwrap(), Time::from_ticks(7010));
        assert_eq!(
            "18446744073709551.615".parse::<Time>().unwrap(),
            Time::from_ticks(u64::MAX)
        );
    }

    #[test]
    fn parse_invalid() {
        for s in [
            "",
            ".",
            "-1",
            "1.2345",
            "abc",
            "1.x",
            "1e3",
            "+",
            "+.5",
            "++1",
            "1+",
            "1.+5",
            "1.2.3",
            "18446744073709551616",
            "18446744073709552",
        ] {
            assert!(s.parse::<Time>().is_err(), "{s} should not parse");
        }
    }

    #[test]
    fn parse_display_round_trip() {
        for s in ["0", "1", "1.5", "15.05", "0.001", "123.456"] {
            let t: Time = s.parse().unwrap();
            assert_eq!(t.to_string(), s);
        }
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_units(1.5);
        let b = Time::from_units(0.25);
        assert_eq!(a + b, Time::from_units(1.75));
        assert_eq!(a - b, Time::from_units(1.25));
        assert_eq!(a * 3, Time::from_units(4.5));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let total: Time = [a, b, b].into_iter().sum();
        assert_eq!(total, Time::from_units(2.0));
    }

    #[test]
    fn scale() {
        assert_eq!(Time::from_units(2.0).scale(2.5), Time::from_units(5.0));
        assert_eq!(Time::from_units(3.0).scale(0.0), Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Time::from_units(1.0) - Time::from_units(2.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_units_panic() {
        let _ = Time::from_units(-1.0);
    }

    #[test]
    fn ordering_is_exact() {
        // 0.1 + 0.2 == 0.3 exactly in fixed point — the reason Time exists.
        let sum = Time::from_units(0.1) + Time::from_units(0.2);
        assert_eq!(sum, Time::from_units(0.3));
    }

    #[test]
    fn checked_ops() {
        assert!(Time::MAX.checked_add(Time::from_ticks(1)).is_none());
        assert_eq!(
            Time::from_ticks(5).checked_add(Time::from_ticks(6)),
            Some(Time::from_ticks(11))
        );
    }
}
