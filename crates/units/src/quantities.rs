//! Secondary quantities: [`Ratio`], [`Seconds`], [`Amperes`], [`Volts`].

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// A dimensionless ratio or fraction (efficiency, derating factor, load
/// split share, throttle level, CPU utilization).
///
/// Most call sites want a value in `[0, 1]`; use [`Ratio::new_clamped`] to
/// enforce that. Plain [`Ratio::new`] permits any finite value (e.g. a 1.6
/// overload ratio on a breaker).
///
/// # Examples
///
/// ```
/// use capmaestro_units::Ratio;
///
/// let efficiency = Ratio::new_clamped(0.94);
/// let overload = Ratio::new(1.6); // 160 % of rating — fine for Ratio::new
/// assert!(overload.as_f64() > efficiency.as_f64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Ratio(f64);

impl Ratio {
    /// The ratio 0.
    pub const ZERO: Ratio = Ratio(0.0);
    /// The ratio 1.
    pub const ONE: Ratio = Ratio(1.0);

    /// Creates a ratio from any finite value.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `r` is NaN.
    #[inline]
    pub const fn new(r: f64) -> Self {
        debug_assert!(!r.is_nan(), "Ratio::new called with NaN");
        Ratio(r)
    }

    /// Creates a ratio clamped into `[0, 1]`.
    #[inline]
    pub fn new_clamped(r: f64) -> Self {
        Ratio(r.clamp(0.0, 1.0))
    }

    /// Returns the raw value.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Returns the complement `1 − self`.
    ///
    /// ```
    /// use capmaestro_units::Ratio;
    /// assert_eq!(Ratio::new(0.65).complement(), Ratio::new(0.35));
    /// ```
    #[inline]
    pub fn complement(self) -> Ratio {
        Ratio(1.0 - self.0)
    }

    /// Clamps into `[0, 1]`.
    #[inline]
    pub fn clamp_fraction(self) -> Ratio {
        Ratio(self.0.clamp(0.0, 1.0))
    }

    /// Returns the smaller of two ratios.
    #[inline]
    pub fn min(self, other: Ratio) -> Ratio {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }

    /// Returns the larger of two ratios.
    #[inline]
    pub fn max(self, other: Ratio) -> Ratio {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.0 * 100.0)
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    #[inline]
    fn mul(self, rhs: Ratio) -> Ratio {
        Ratio(self.0 * rhs.0)
    }
}

impl Mul<f64> for Ratio {
    type Output = f64;
    #[inline]
    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

impl Add for Ratio {
    type Output = Ratio;
    #[inline]
    fn add(self, rhs: Ratio) -> Ratio {
        Ratio(self.0 + rhs.0)
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    #[inline]
    fn sub(self, rhs: Ratio) -> Ratio {
        Ratio(self.0 - rhs.0)
    }
}

/// A duration in seconds, as used by control periods and trip curves.
///
/// The suite simulates time at whole-second granularity, but `Seconds`
/// stores `f64` so trip-curve math (e.g. "trips after 42.5 s at 160 %
/// load") stays exact.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero seconds.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `s` is NaN or negative.
    #[inline]
    pub const fn new(s: f64) -> Self {
        debug_assert!(!s.is_nan(), "Seconds::new called with NaN");
        debug_assert!(s >= 0.0, "Seconds::new called with negative duration");
        Seconds(s)
    }

    /// Returns the value in seconds.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Returns the smaller of two durations.
    #[inline]
    pub fn min(self, other: Seconds) -> Seconds {
        if other.0 < self.0 {
            other
        } else {
            self
        }
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: Seconds) -> Seconds {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} s", self.0)
    }
}

impl Add for Seconds {
    type Output = Seconds;
    #[inline]
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    #[inline]
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    #[inline]
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: f64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Div<Seconds> for Seconds {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

/// Electrical current in amperes (breaker nameplates are current ratings).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Amperes(f64);

impl Amperes {
    /// Creates a current value.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `a` is NaN.
    #[inline]
    pub const fn new(a: f64) -> Self {
        debug_assert!(!a.is_nan(), "Amperes::new called with NaN");
        Amperes(a)
    }

    /// Returns the value in amperes.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Amperes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} A", self.0)
    }
}

/// Electrical potential in volts (distribution voltages: 12.5 kV, 480 V,
/// 400 V line-to-line, 230 V line-to-neutral).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Volts(f64);

impl Volts {
    /// Creates a voltage value.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `v` is NaN.
    #[inline]
    pub const fn new(v: f64) -> Self {
        debug_assert!(!v.is_nan(), "Volts::new called with NaN");
        Volts(v)
    }

    /// Returns the value in volts.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Volts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} V", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_complement_and_clamp() {
        assert_eq!(Ratio::new(0.65).complement(), Ratio::new(0.35));
        assert_eq!(Ratio::new(1.7).clamp_fraction(), Ratio::ONE);
        assert_eq!(Ratio::new(-0.2).clamp_fraction(), Ratio::ZERO);
        assert_eq!(Ratio::new_clamped(3.0), Ratio::ONE);
    }

    #[test]
    fn ratio_arithmetic() {
        assert_eq!(Ratio::new(0.5) * Ratio::new(0.5), Ratio::new(0.25));
        assert_eq!(Ratio::new(0.5) * 100.0, 50.0);
        assert_eq!(Ratio::new(0.3) + Ratio::new(0.2), Ratio::new(0.5));
        assert!((Ratio::new(0.3) - Ratio::new(0.2)).as_f64() - 0.1 < 1e-12);
        assert_eq!(Ratio::new(0.4).min(Ratio::new(0.6)), Ratio::new(0.4));
        assert_eq!(Ratio::new(0.4).max(Ratio::new(0.6)), Ratio::new(0.6));
    }

    #[test]
    fn seconds_arithmetic() {
        let period = Seconds::new(8.0);
        assert_eq!(period + Seconds::new(8.0), Seconds::new(16.0));
        assert_eq!(period * 2.0, Seconds::new(16.0));
        assert_eq!(Seconds::new(16.0) / period, 2.0);
        let mut t = Seconds::ZERO;
        t += period;
        assert_eq!(t, period);
        assert_eq!(Seconds::new(3.0).min(Seconds::new(5.0)), Seconds::new(3.0));
        assert_eq!(Seconds::new(3.0).max(Seconds::new(5.0)), Seconds::new(5.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Ratio::new(0.825)), "82.5%");
        assert_eq!(format!("{}", Seconds::new(30.0)), "30.0 s");
        assert_eq!(format!("{}", Amperes::new(24.0)), "24.0 A");
        assert_eq!(format!("{}", Volts::new(230.0)), "230.0 V");
    }
}
