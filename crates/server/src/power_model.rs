//! The server power envelope and utilization→power curves.
//!
//! Table 4 fixes the envelope the paper simulates: idle 160 W,
//! `Pcap_min` 270 W, `Pcap_max` 490 W. Power demand as a function of CPU
//! utilization follows the Fan et al. model the paper cites (\[2\]):
//! `P(u) = P_idle + (P_busy − P_idle) · (2u − u^1.4)`.
//!
//! All powers here are **AC at the wall** — the quantity budgets are
//! written in. Conversion to the DC domain the node manager caps happens in
//! [`crate::PsuBank`].

use core::fmt;

use capmaestro_units::{Ratio, Watts};

/// Which utilization→power curve to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PowerCurve {
    /// Fan et al. \[2\]: `P = idle + (busy − idle)(2u − u^1.4)`. Slightly
    /// super-linear at low utilization, the empirical fit for warehouse
    /// servers. The paper's §6.4 methodology uses this.
    #[default]
    FanEtAl,
    /// Plain linear interpolation `P = idle + (busy − idle)·u`.
    Linear,
}

/// Default DVFS exponent: dynamic power ∝ f·V² with V ∝ f gives a cubic
/// relation between frequency (≈ application performance) and dynamic
/// power. The paper relies on this ("power consumption is linear or
/// superlinear with performance", §6.4): capping dynamic power by 42 %
/// costs only ~18 % throughput, the Fig. 6a measurement.
pub const DEFAULT_PERF_EXPONENT: f64 = 3.0;

/// The power envelope and demand curve of a server model.
///
/// # Examples
///
/// ```
/// use capmaestro_server::ServerPowerModel;
/// use capmaestro_units::{Ratio, Watts};
///
/// let m = ServerPowerModel::paper_default();
/// assert_eq!(m.power_at_utilization(Ratio::ZERO), Watts::new(160.0));
/// assert_eq!(m.power_at_utilization(Ratio::ONE), Watts::new(490.0));
/// assert!(m.power_at_utilization(Ratio::new(0.3)) > Watts::new(160.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerPowerModel {
    idle: Watts,
    cap_min: Watts,
    cap_max: Watts,
    curve: PowerCurve,
    perf_exponent: f64,
}

impl ServerPowerModel {
    /// Creates a model from its envelope.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < idle ≤ cap_min ≤ cap_max`.
    pub fn new(idle: Watts, cap_min: Watts, cap_max: Watts) -> Self {
        assert!(idle > Watts::ZERO, "idle power must be positive");
        assert!(
            idle <= cap_min,
            "idle power {idle} must not exceed Pcap_min {cap_min}"
        );
        assert!(
            cap_min <= cap_max,
            "Pcap_min {cap_min} must not exceed Pcap_max {cap_max}"
        );
        ServerPowerModel {
            idle,
            cap_min,
            cap_max,
            curve: PowerCurve::FanEtAl,
            perf_exponent: DEFAULT_PERF_EXPONENT,
        }
    }

    /// The Table 4 server: idle 160 W, Pcap_min 270 W, Pcap_max 490 W.
    pub fn paper_default() -> Self {
        ServerPowerModel::new(Watts::new(160.0), Watts::new(270.0), Watts::new(490.0))
    }

    /// Selects the utilization→power curve (builder-style).
    #[must_use]
    pub fn with_curve(mut self, curve: PowerCurve) -> Self {
        self.curve = curve;
        self
    }

    /// The DVFS performance exponent.
    pub fn perf_exponent(self) -> f64 {
        self.perf_exponent
    }

    /// Application performance delivered when throttling leaves `ratio` of
    /// the demanded *dynamic* power: `ratio^(1/exponent)`.
    ///
    /// ```
    /// use capmaestro_server::ServerPowerModel;
    /// use capmaestro_units::Ratio;
    ///
    /// let m = ServerPowerModel::paper_default();
    /// // 58 % of dynamic power still delivers ~83 % throughput (Fig. 6a).
    /// let perf = m.performance_at_dynamic_ratio(Ratio::new(0.577));
    /// assert!((perf.as_f64() - 0.832).abs() < 0.005);
    /// ```
    pub fn performance_at_dynamic_ratio(self, ratio: Ratio) -> Ratio {
        let r = ratio.clamp_fraction().as_f64();
        Ratio::new(r.powf(1.0 / self.perf_exponent))
    }

    /// Power drawn with the CPU idle.
    pub fn idle(self) -> Watts {
        self.idle
    }

    /// The lowest enforceable power cap (`Pcap_min`): power at the lowest
    /// performance state under the most demanding workload.
    pub fn cap_min(self) -> Watts {
        self.cap_min
    }

    /// The highest useful power cap (`Pcap_max`): power at the highest
    /// performance state; budget above this is wasted.
    pub fn cap_max(self) -> Watts {
        self.cap_max
    }

    /// The configured curve.
    pub fn curve(self) -> PowerCurve {
        self.curve
    }

    /// The dynamic range `Pcap_max − idle` that capping can modulate.
    pub fn dynamic_range(self) -> Watts {
        self.cap_max - self.idle
    }

    /// Power demanded at CPU utilization `u` (uncapped, full performance).
    ///
    /// `u` is clamped into `[0, 1]`.
    pub fn power_at_utilization(self, u: Ratio) -> Watts {
        let u = u.clamp_fraction().as_f64();
        let frac = match self.curve {
            PowerCurve::FanEtAl => 2.0 * u - u.powf(1.4),
            PowerCurve::Linear => u,
        };
        self.idle + self.dynamic_range() * frac.clamp(0.0, 1.0)
    }

    /// Inverse of [`ServerPowerModel::power_at_utilization`]: the highest
    /// utilization sustainable at power `p`. Clamps to `[0, 1]` outside the
    /// envelope.
    ///
    /// The Fan et al. curve is strictly increasing on `[0, 1]`, so a short
    /// bisection suffices.
    pub fn utilization_at_power(self, p: Watts) -> Ratio {
        if p <= self.idle {
            return Ratio::ZERO;
        }
        if p >= self.cap_max {
            return Ratio::ONE;
        }
        match self.curve {
            PowerCurve::Linear => Ratio::new((p - self.idle) / self.dynamic_range()),
            PowerCurve::FanEtAl => {
                let (mut lo, mut hi) = (0.0f64, 1.0f64);
                for _ in 0..60 {
                    let mid = 0.5 * (lo + hi);
                    if self.power_at_utilization(Ratio::new(mid)) < p {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                Ratio::new(0.5 * (lo + hi))
            }
        }
    }

    /// The *cap ratio* metric of §6.4: the fraction of dynamic power demand
    /// removed by a budget,
    /// `(demand − budget) / (demand − idle)`, clamped to `[0, 1]`; zero
    /// when the budget covers the demand or there is no dynamic demand.
    pub fn cap_ratio(self, demand: Watts, budget: Watts) -> Ratio {
        let dynamic = demand - self.idle;
        if dynamic <= Watts::ZERO {
            return Ratio::ZERO;
        }
        let shortfall = demand.saturating_sub(budget);
        Ratio::new_clamped(shortfall / dynamic)
    }
}

impl fmt::Display for ServerPowerModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "server model [idle {:.0}, cap {:.0}–{:.0}]",
            self.idle, self.cap_min, self.cap_max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_endpoints() {
        let m = ServerPowerModel::paper_default();
        assert_eq!(m.idle(), Watts::new(160.0));
        assert_eq!(m.cap_min(), Watts::new(270.0));
        assert_eq!(m.cap_max(), Watts::new(490.0));
        assert_eq!(m.dynamic_range(), Watts::new(330.0));
        assert_eq!(m.power_at_utilization(Ratio::ZERO), Watts::new(160.0));
        assert_eq!(m.power_at_utilization(Ratio::ONE), Watts::new(490.0));
    }

    #[test]
    fn fan_curve_is_monotonic_and_superlinear_low() {
        let m = ServerPowerModel::paper_default();
        let mut prev = Watts::ZERO;
        for i in 0..=100 {
            let p = m.power_at_utilization(Ratio::new(i as f64 / 100.0));
            assert!(p >= prev, "power must be non-decreasing in utilization");
            prev = p;
        }
        // 2u − u^1.4 > u for u in (0,1): the curve sits above linear.
        let linear = ServerPowerModel::paper_default().with_curve(PowerCurve::Linear);
        let u = Ratio::new(0.3);
        assert!(m.power_at_utilization(u) > linear.power_at_utilization(u));
    }

    #[test]
    fn utilization_clamps_out_of_range() {
        let m = ServerPowerModel::paper_default();
        assert_eq!(m.power_at_utilization(Ratio::new(1.5)), Watts::new(490.0));
        assert_eq!(m.power_at_utilization(Ratio::new(-0.5)), Watts::new(160.0));
    }

    #[test]
    fn inverse_roundtrip_fan() {
        let m = ServerPowerModel::paper_default();
        for i in 1..10 {
            let u = Ratio::new(i as f64 / 10.0);
            let p = m.power_at_utilization(u);
            let back = m.utilization_at_power(p);
            assert!(
                (back.as_f64() - u.as_f64()).abs() < 1e-9,
                "roundtrip failed at u={u}"
            );
        }
    }

    #[test]
    fn inverse_roundtrip_linear() {
        let m = ServerPowerModel::paper_default().with_curve(PowerCurve::Linear);
        let p = m.power_at_utilization(Ratio::new(0.4));
        assert_eq!(p, Watts::new(160.0 + 0.4 * 330.0));
        assert!((m.utilization_at_power(p).as_f64() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn inverse_clamps_envelope() {
        let m = ServerPowerModel::paper_default();
        assert_eq!(m.utilization_at_power(Watts::new(100.0)), Ratio::ZERO);
        assert_eq!(m.utilization_at_power(Watts::new(600.0)), Ratio::ONE);
    }

    #[test]
    fn cap_ratio_matches_paper_definition() {
        let m = ServerPowerModel::paper_default();
        // Demand 490, budget 325 ⇒ (490−325)/(490−160) = 0.5.
        assert!(
            (m.cap_ratio(Watts::new(490.0), Watts::new(325.0)).as_f64() - 0.5).abs() < 1e-12
        );
        // Budget covers demand ⇒ 0.
        assert_eq!(
            m.cap_ratio(Watts::new(300.0), Watts::new(350.0)),
            Ratio::ZERO
        );
        // No dynamic demand ⇒ 0 even with a tiny budget.
        assert_eq!(
            m.cap_ratio(Watts::new(160.0), Watts::new(0.0)),
            Ratio::ZERO
        );
        // Budget below idle clamps to 1.
        assert_eq!(
            m.cap_ratio(Watts::new(490.0), Watts::new(100.0)),
            Ratio::ONE
        );
    }

    #[test]
    #[should_panic(expected = "Pcap_min")]
    fn inverted_envelope_rejected() {
        let _ = ServerPowerModel::new(Watts::new(200.0), Watts::new(150.0), Watts::new(490.0));
    }

    #[test]
    fn display() {
        let m = ServerPowerModel::paper_default();
        assert_eq!(m.to_string(), "server model [idle 160 W, cap 270 W–490 W]");
    }
}
