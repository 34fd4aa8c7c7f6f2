//! Diurnal (day/night) fleet-utilization patterns.
//!
//! The Fig. 8 distribution describes *how often* the fleet sits at each
//! average utilization; a [`DiurnalPattern`] describes *when*: the classic
//! interactive-service day curve, a sinusoid peaking in the afternoon.
//! Long-horizon simulations (`dcsim`, the scheduler
//! study) use it to drive demand through realistic peaks where capping
//! engages and troughs where it idles.

use core::f64::consts::PI;

use capmaestro_units::Ratio;

/// A sinusoidal day curve:
/// `u(t) = base + amplitude · sin(2π (t − peak_offset + period/4) / period)`
/// clamped to `[0, 1]`.
///
/// # Examples
///
/// ```
/// use capmaestro_workload::DiurnalPattern;
///
/// // A service peaking at 15:00 with base 40 % ± 25 %.
/// let day = DiurnalPattern::new(0.4, 0.25, 86_400.0, 15.0 * 3600.0);
/// let peak = day.utilization_at(15.0 * 3600.0);
/// let trough = day.utilization_at(3.0 * 3600.0);
/// assert!(peak.as_f64() > 0.6);
/// assert!(trough.as_f64() < 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalPattern {
    base: f64,
    amplitude: f64,
    period_s: f64,
    peak_at_s: f64,
}

impl DiurnalPattern {
    /// Creates a pattern.
    ///
    /// # Panics
    ///
    /// Panics unless `base ∈ [0, 1]`, `amplitude ≥ 0`, and
    /// `period_s > 0`.
    pub fn new(base: f64, amplitude: f64, period_s: f64, peak_at_s: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&base),
            "base utilization must be a fraction, got {base}"
        );
        assert!(amplitude >= 0.0, "amplitude must be non-negative");
        assert!(period_s > 0.0, "period must be positive");
        DiurnalPattern {
            base,
            amplitude,
            period_s,
            peak_at_s,
        }
    }

    /// The fleet-average utilization at time `t` (seconds).
    pub fn utilization_at(&self, t_s: f64) -> Ratio {
        let phase = 2.0 * PI * (t_s - self.peak_at_s) / self.period_s;
        let u = self.base + self.amplitude * phase.cos();
        Ratio::new_clamped(u)
    }

    /// The highest utilization the pattern reaches.
    pub fn peak(&self) -> Ratio {
        Ratio::new_clamped(self.base + self.amplitude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A typical interactive-service day: base 35 %, ±25 % swing, 24 h
    /// period peaking at 15:00.
    fn typical_day() -> DiurnalPattern {
        DiurnalPattern::new(0.35, 0.25, 86_400.0, 15.0 * 3600.0)
    }

    #[test]
    fn peak_lands_at_the_configured_hour() {
        let day = typical_day();
        let peak = day.utilization_at(15.0 * 3600.0);
        assert!((peak.as_f64() - 0.6).abs() < 1e-9);
        // Half a period later the pattern bottoms out.
        let trough = day.utilization_at(3.0 * 3600.0);
        assert!((trough.as_f64() - 0.1).abs() < 1e-9);
        assert_eq!(day.peak(), Ratio::new(0.6));
    }

    #[test]
    fn periodicity() {
        let day = typical_day();
        for hour in 0..24 {
            let t = hour as f64 * 3600.0;
            let a = day.utilization_at(t);
            let b = day.utilization_at(t + 86_400.0);
            assert!((a.as_f64() - b.as_f64()).abs() < 1e-9);
        }
    }

    #[test]
    fn clamped_to_fractions() {
        let extreme = DiurnalPattern::new(0.8, 0.5, 86_400.0, 0.0);
        for hour in 0..24 {
            let u = extreme.utilization_at(hour as f64 * 3600.0).as_f64();
            assert!((0.0..=1.0).contains(&u));
        }
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = DiurnalPattern::new(0.5, 0.1, 0.0, 0.0);
    }
}
