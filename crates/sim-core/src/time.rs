//! Nanosecond-resolution simulated time.
//!
//! All latencies in the workspace are expressed as [`Nanos`], a transparent
//! `u64` newtype. The paper reports stage costs between ~270 ns (page-cache
//! lookup) and ~91.5 µs (HDD access), so a `u64` nanosecond counter covers
//! multi-hour simulations without overflow.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span (or instant) of simulated time, in nanoseconds.
///
/// `Nanos` is used both for durations ("this RDMA read took 4.3 µs") and for
/// instants ("the page was prefetched at t = 120 µs"); the arithmetic is the
/// same and the simulator never mixes real wall-clock time in.
///
/// # Examples
///
/// ```
/// use leap_sim_core::Nanos;
///
/// let rdma = Nanos::from_micros_f64(4.3);
/// let lookup = Nanos::from_nanos(270);
/// assert_eq!((rdma + lookup).as_nanos(), 4_570);
/// assert!(rdma.as_micros_f64() > 4.2 && rdma.as_micros_f64() < 4.4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// The zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a duration from fractional microseconds (e.g. `4.3` µs RDMA).
    ///
    /// Negative inputs saturate to zero.
    pub fn from_micros_f64(us: f64) -> Self {
        if us <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((us * 1_000.0).round() as u64)
    }

    /// Creates a duration from fractional milliseconds.
    ///
    /// Negative inputs saturate to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        if ms <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((ms * 1_000_000.0).round() as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in microseconds as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration in milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the duration in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Returns true if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |acc, x| acc.saturating_add(x))
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Nanos::from_micros(4).as_nanos(), 4_000);
        assert_eq!(Nanos::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Nanos::from_micros_f64(4.3).as_nanos(), 4_300);
        assert_eq!(Nanos::from_millis_f64(0.0912).as_nanos(), 91_200);
    }

    #[test]
    fn negative_float_inputs_saturate_to_zero() {
        assert_eq!(Nanos::from_micros_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_millis_f64(-0.5), Nanos::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_micros(4);
        assert_eq!((a + b).as_nanos(), 14_000);
        assert_eq!((a - b).as_nanos(), 6_000);
        assert_eq!((a * 3).as_nanos(), 30_000);
        assert_eq!((a / 2).as_nanos(), 5_000);
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
    }

    #[test]
    fn min_max_and_is_zero() {
        let a = Nanos::from_nanos(5);
        let b = Nanos::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(Nanos::ZERO.is_zero());
        assert!(!a.is_zero());
    }

    #[test]
    fn display_uses_natural_units() {
        assert_eq!(format!("{}", Nanos::from_nanos(270)), "270ns");
        assert_eq!(format!("{}", Nanos::from_micros_f64(4.3)), "4.300us");
        assert_eq!(format!("{}", Nanos::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(2)), "2.000s");
    }

    #[test]
    fn sum_is_saturating() {
        let total: Nanos = vec![Nanos(u64::MAX), Nanos::from_nanos(10)]
            .into_iter()
            .sum();
        assert_eq!(total, Nanos(u64::MAX));
    }

    proptest! {
        #[test]
        fn prop_add_sub_round_trip(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let (a, b) = (Nanos(a), Nanos(b));
            prop_assert_eq!((a + b) - b, a);
        }

        #[test]
        fn prop_saturating_sub_never_underflows(a in any::<u64>(), b in any::<u64>()) {
            let r = Nanos(a).saturating_sub(Nanos(b));
            prop_assert!(r.as_nanos() <= a);
        }
    }
}
