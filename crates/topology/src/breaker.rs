//! Circuit-breaker model: ratings, derating, and inverse-time trip curves.
//!
//! The paper's safety argument (§2.1) rests on two properties of molded-case
//! circuit breakers:
//!
//! 1. **Derating** — conventional practice (NFPA 70 \[21\]) is to keep the
//!    sustained load at or below 80 % of the breaker's rating.
//! 2. **Trip delay** — breakers covered by UL 489 \[17\] tolerate overload for
//!    an amount of time that shrinks as the overload grows; at 160 % of the
//!    rating they operate for *at least 30 seconds* before tripping. Power
//!    capping must therefore bring a post-failure load back under the limit
//!    within that window.
//!
//! [`TripCurve`] captures the inverse-time characteristic, and
//! [`BreakerSim`] integrates thermal stress over simulated time so failure
//! experiments can check that capping really does win the race against the
//! breaker.

use core::fmt;

use capmaestro_units::{Ratio, Seconds, Watts};

/// Default sustained-load derating factor (80 % of rating, NFPA 70).
pub const DEFAULT_DERATING: Ratio = Ratio::new(0.8);

/// Default overload ratio at which the magnetic (instantaneous) trip fires.
pub const DEFAULT_INSTANTANEOUS_TRIP_RATIO: f64 = 10.0;

/// The minimum time a UL 489 breaker carries a 160 % overload before
/// tripping (paper §2.1).
pub const UL489_160PCT_TRIP_SECONDS: f64 = 30.0;

/// An inverse-time (I²t-style) thermal trip curve.
///
/// The curve is parameterized by a thermal constant `k` such that the trip
/// time at overload ratio `r > 1` is `k / (r² − 1)` seconds, and by an
/// instantaneous-trip threshold above which the breaker opens immediately
/// (the magnetic element). The default constant is calibrated to the UL 489
/// datum the paper uses: 30 s at 160 % load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripCurve {
    thermal_constant: f64,
    instantaneous_ratio: f64,
}

impl TripCurve {
    /// A UL-489-calibrated curve: 30 s at 160 % load, instantaneous trip at
    /// 10× rating.
    pub(crate) fn ul489() -> Self {
        // k / (1.6² − 1) = 30  ⇒  k = 30 × 1.56 = 46.8
        let k = UL489_160PCT_TRIP_SECONDS * (1.6 * 1.6 - 1.0);
        TripCurve {
            thermal_constant: k,
            instantaneous_ratio: DEFAULT_INSTANTANEOUS_TRIP_RATIO,
        }
    }

    /// Creates a curve from an explicit thermal constant and instantaneous
    /// trip ratio.
    ///
    /// # Panics
    ///
    /// Panics if `thermal_constant` is not positive or
    /// `instantaneous_ratio <= 1`.
    pub fn new(thermal_constant: f64, instantaneous_ratio: f64) -> Self {
        assert!(
            thermal_constant > 0.0,
            "trip curve thermal constant must be positive"
        );
        assert!(
            instantaneous_ratio > 1.0,
            "instantaneous trip ratio must exceed 1"
        );
        TripCurve {
            thermal_constant,
            instantaneous_ratio,
        }
    }

    /// Thermal stress accumulated per second at the given overload ratio.
    ///
    /// The breaker trips when accumulated stress reaches the thermal
    /// constant. Load at or below the rating *dissipates* stress at the same
    /// scale, modelling bimetal cooling.
    fn stress_rate(&self, overload: Ratio) -> f64 {
        let r = overload.as_f64();
        r * r - 1.0
    }

    /// The thermal constant `k` (trip threshold of the stress integral).
    pub(crate) fn thermal_constant(&self) -> f64 {
        self.thermal_constant
    }

    /// The overload ratio at which the magnetic element trips immediately.
    pub(crate) fn instantaneous_ratio(&self) -> f64 {
        self.instantaneous_ratio
    }
}

impl Default for TripCurve {
    fn default() -> Self {
        TripCurve::ul489()
    }
}

/// A circuit breaker (or breaker-equivalent limit on a transformer) at a
/// power-distribution point.
///
/// The rating is expressed in watts **per phase** (current ratings are
/// converted via [`capmaestro_units::three_phase_power`]). The derated limit
/// — rating × derating factor — is what power-capping budgets must respect
/// under sustained load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitBreaker {
    rating: Watts,
    derating: Ratio,
    curve: TripCurve,
}

impl CircuitBreaker {
    /// Creates a breaker with an explicit derating factor and the UL 489
    /// curve.
    ///
    /// # Panics
    ///
    /// Panics if the rating is not positive or the derating is outside
    /// `(0, 1]`.
    pub fn new(rating: Watts, derating: Ratio) -> Self {
        assert!(
            rating > Watts::ZERO,
            "breaker rating must be positive, got {rating}"
        );
        assert!(
            derating > Ratio::ZERO && derating <= Ratio::ONE,
            "breaker derating must be in (0, 1], got {derating}"
        );
        CircuitBreaker {
            rating,
            derating,
            curve: TripCurve::ul489(),
        }
    }

    /// Creates a breaker derated to the conventional 80 %.
    pub fn with_default_derating(rating: Watts) -> Self {
        CircuitBreaker::new(rating, DEFAULT_DERATING)
    }

    /// Replaces the trip curve (builder-style).
    #[must_use]
    pub fn with_curve(mut self, curve: TripCurve) -> Self {
        self.curve = curve;
        self
    }

    /// The nameplate rating per phase.
    pub fn rating(&self) -> Watts {
        self.rating
    }

    /// The derating factor applied for sustained load.
    pub fn derating(&self) -> Ratio {
        self.derating
    }

    /// The maximum sustained load: rating × derating.
    pub(crate) fn derated_limit(&self) -> Watts {
        self.rating * self.derating
    }

    /// The trip curve.
    pub fn curve(&self) -> &TripCurve {
        &self.curve
    }

    /// Overload ratio of a given load relative to the *full rating* (the
    /// quantity the trip curve acts on — derating only affects budgeting).
    pub(crate) fn overload_ratio(&self, load: Watts) -> Ratio {
        Ratio::new(load / self.rating)
    }
}

impl fmt::Display for CircuitBreaker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CB {:.0} (derated {:.0})",
            self.rating,
            self.derated_limit()
        )
    }
}

/// Dynamic state of a breaker: closed (conducting) or tripped (open).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Conducting normally.
    #[default]
    Closed,
    /// Tripped open; downstream power is lost.
    Tripped,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Tripped => write!(f, "tripped"),
        }
    }
}

/// Time-domain breaker simulation: integrates thermal stress under a varying
/// load and trips when the thermal budget is exhausted.
///
/// Used by the failure-injection experiments to verify the paper's safety
/// claim — that capping restores the load within the 30-second window and
/// the breaker never opens.
///
/// # Examples
///
/// ```
/// use capmaestro_topology::{BreakerSim, BreakerState, CircuitBreaker};
/// use capmaestro_units::{Seconds, Watts};
///
/// let cb = CircuitBreaker::with_default_derating(Watts::new(1000.0));
/// let mut sim = BreakerSim::new(cb);
/// // 160 % of rating for 29 s: holds. One more second: trips.
/// for _ in 0..29 {
///     sim.step(Watts::new(1600.0), Seconds::new(1.0));
/// }
/// assert_eq!(sim.state(), BreakerState::Closed);
/// sim.step(Watts::new(1600.0), Seconds::new(1.1));
/// assert_eq!(sim.state(), BreakerState::Tripped);
/// ```
#[derive(Debug, Clone)]
pub struct BreakerSim {
    breaker: CircuitBreaker,
    stress: f64,
    state: BreakerState,
}

impl BreakerSim {
    /// Creates a simulation for the given breaker, starting closed and cool.
    pub fn new(breaker: CircuitBreaker) -> Self {
        BreakerSim {
            breaker,
            stress: 0.0,
            state: BreakerState::Closed,
        }
    }

    /// The breaker being simulated.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Advances the simulation by `dt` under a constant `load`, returning
    /// the state afterwards.
    ///
    /// Overload accumulates stress; under-load cools the breaker back toward
    /// zero stress. An already-tripped breaker stays tripped (reset requires
    /// [`BreakerSim::reset`], modelling a manual re-close).
    pub fn step(&mut self, load: Watts, dt: Seconds) -> BreakerState {
        if self.state == BreakerState::Tripped {
            return self.state;
        }
        let ratio = self.breaker.overload_ratio(load);
        if ratio.as_f64() >= self.breaker.curve.instantaneous_ratio() {
            self.state = BreakerState::Tripped;
            return self.state;
        }
        let rate = self.breaker.curve.stress_rate(ratio);
        self.stress = (self.stress + rate * dt.as_f64()).max(0.0);
        if self.stress >= self.breaker.curve.thermal_constant() {
            self.state = BreakerState::Tripped;
        }
        self.state
    }

    /// Whether [`BreakerSim::step`] under `load` is the identity for every
    /// `dt ≥ 0`: a tripped breaker stays tripped, and a closed breaker with
    /// zero stress at or below its rating stays there, because the stress
    /// rate `r² − 1` is at most 0 and stress is clamped at 0. A breaker at
    /// rest need not be stepped.
    pub fn at_rest(&self, load: Watts) -> bool {
        self.state == BreakerState::Tripped || (self.stress == 0.0 && load <= self.breaker.rating)
    }

    /// Re-closes a tripped breaker and clears thermal stress.
    pub fn reset(&mut self) {
        self.stress = 0.0;
        self.state = BreakerState::Closed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The analytic trip times the thermal integrator is checked against.
    impl TripCurve {
        /// Time the breaker sustains a constant overload before tripping:
        /// `None` when `overload ≤ 1` (the breaker holds indefinitely at or
        /// below its rating), `Some(Seconds::ZERO)` at or above the
        /// instantaneous-trip ratio, `k / (r² − 1)` between.
        fn time_to_trip(&self, overload: Ratio) -> Option<Seconds> {
            let r = overload.as_f64();
            if r <= 1.0 {
                return None;
            }
            if r >= self.instantaneous_ratio {
                return Some(Seconds::ZERO);
            }
            Some(Seconds::new(self.thermal_constant / (r * r - 1.0)))
        }
    }

    impl CircuitBreaker {
        /// Time the breaker carries `load` before tripping, `None` if it holds.
        fn time_to_trip(&self, load: Watts) -> Option<Seconds> {
            self.curve.time_to_trip(self.overload_ratio(load))
        }
    }

    proptest! {
        /// Trip time is strictly decreasing in overload (inverse-time curve).
        #[test]
        fn trip_time_monotone(r1 in 1.01f64..9.9, delta in 0.01f64..2.0) {
            let curve = TripCurve::ul489();
            let r2 = (r1 + delta).min(9.99);
            let t1 = curve.time_to_trip(Ratio::new(r1)).unwrap();
            let t2 = curve.time_to_trip(Ratio::new(r2)).unwrap();
            prop_assert!(t2 <= t1, "trip({r2}) = {t2} > trip({r1}) = {t1}");
        }

        /// The thermal integrator agrees with the analytic trip time for
        /// constant overloads: the sim trips within one step of the curve.
        #[test]
        fn sim_matches_curve(overload in 1.2f64..5.0) {
            let cb = CircuitBreaker::with_default_derating(Watts::new(1000.0));
            let analytic = cb
                .curve()
                .time_to_trip(Ratio::new(overload))
                .unwrap()
                .as_f64();
            let mut sim = BreakerSim::new(cb);
            let mut tripped_at = None;
            for s in 0..10_000 {
                let state = sim.step(Watts::new(1000.0 * overload), Seconds::new(1.0));
                if state == BreakerState::Tripped {
                    tripped_at = Some((s + 1) as f64);
                    break;
                }
            }
            let t = tripped_at.expect("must trip under sustained overload");
            prop_assert!(
                (t - analytic).abs() <= 1.0 + 1e-9,
                "sim tripped at {t}s, curve says {analytic}s"
            );
        }
    }

    #[test]
    fn ul489_calibration() {
        let curve = TripCurve::ul489();
        let t = curve.time_to_trip(Ratio::new(1.6)).unwrap();
        assert!((t.as_f64() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn no_trip_at_or_below_rating() {
        let curve = TripCurve::ul489();
        assert!(curve.time_to_trip(Ratio::new(1.0)).is_none());
        assert!(curve.time_to_trip(Ratio::new(0.8)).is_none());
        assert!(curve.time_to_trip(Ratio::ZERO).is_none());
    }

    #[test]
    fn higher_overload_trips_faster() {
        let curve = TripCurve::ul489();
        let t16 = curve.time_to_trip(Ratio::new(1.6)).unwrap();
        let t20 = curve.time_to_trip(Ratio::new(2.0)).unwrap();
        let t40 = curve.time_to_trip(Ratio::new(4.0)).unwrap();
        assert!(t20 < t16);
        assert!(t40 < t20);
    }

    #[test]
    fn instantaneous_trip() {
        let curve = TripCurve::ul489();
        assert_eq!(
            curve.time_to_trip(Ratio::new(10.0)),
            Some(Seconds::ZERO)
        );
        assert_eq!(
            curve.time_to_trip(Ratio::new(25.0)),
            Some(Seconds::ZERO)
        );
    }

    #[test]
    #[should_panic(expected = "thermal constant")]
    fn invalid_thermal_constant_panics() {
        let _ = TripCurve::new(0.0, 10.0);
    }

    #[test]
    fn breaker_derated_limit() {
        let cb = CircuitBreaker::with_default_derating(Watts::new(750.0));
        assert_eq!(cb.derated_limit(), Watts::new(600.0));
        assert_eq!(cb.rating(), Watts::new(750.0));
        assert_eq!(cb.derating(), Ratio::new(0.8));
        // Table 4: a CDU rated at 6.9 kW per phase, derated to 80 %.
        let cdu = CircuitBreaker::with_default_derating(Watts::from_kilowatts(6.9));
        assert_eq!(cdu.derated_limit(), Watts::new(5_520.0));
    }

    #[test]
    fn breaker_custom_derating() {
        // Redundant-feed practice without capping: load each side to 40 %
        // so failover lands at 80 % (paper §2.1).
        let cb = CircuitBreaker::new(Watts::new(750.0), Ratio::new(0.4));
        assert_eq!(cb.derated_limit(), Watts::new(300.0));
    }

    #[test]
    #[should_panic(expected = "rating must be positive")]
    fn zero_rating_panics() {
        let _ = CircuitBreaker::with_default_derating(Watts::ZERO);
    }

    #[test]
    #[should_panic(expected = "derating")]
    fn derating_above_one_panics() {
        let _ = CircuitBreaker::new(Watts::new(100.0), Ratio::new(1.2));
    }

    #[test]
    fn breaker_time_to_trip_from_load() {
        let cb = CircuitBreaker::with_default_derating(Watts::new(1000.0));
        // Failure scenario from §2.1: both sides at 80 %, one fails, the
        // survivor sees 160 % → must hold ≥ 30 s.
        let t = cb.time_to_trip(Watts::new(1600.0)).unwrap();
        assert!(t.as_f64() >= 30.0 - 1e-9);
        assert!(cb.time_to_trip(Watts::new(800.0)).is_none());
    }

    #[test]
    fn breaker_sim_survives_capped_failover() {
        // Load spikes to 160 % for 14 s (the paper's worst-case response
        // time), then capping brings it back to 80 %: breaker must hold.
        let cb = CircuitBreaker::with_default_derating(Watts::new(1000.0));
        let mut sim = BreakerSim::new(cb);
        for _ in 0..14 {
            sim.step(Watts::new(1600.0), Seconds::new(1.0));
        }
        assert_eq!(sim.state(), BreakerState::Closed);
        for _ in 0..600 {
            sim.step(Watts::new(800.0), Seconds::new(1.0));
        }
        assert_eq!(sim.state(), BreakerState::Closed);
        // Cooling should have reduced the accumulated stress to zero.
        assert_eq!(sim.stress, 0.0);
    }

    #[test]
    fn breaker_sim_trips_without_capping() {
        let cb = CircuitBreaker::with_default_derating(Watts::new(1000.0));
        let mut sim = BreakerSim::new(cb);
        let mut tripped_at = None;
        for s in 0..120 {
            if sim.step(Watts::new(1600.0), Seconds::new(1.0)) == BreakerState::Tripped {
                tripped_at = Some(s + 1);
                break;
            }
        }
        // Must trip, and not before the 30 s UL 489 floor.
        let t = tripped_at.expect("breaker should trip under sustained 160 %");
        assert!((30..=31).contains(&t), "tripped at {t} s");
    }

    #[test]
    fn breaker_sim_instantaneous_trip_and_reset() {
        let cb = CircuitBreaker::with_default_derating(Watts::new(100.0));
        let mut sim = BreakerSim::new(cb);
        sim.step(Watts::new(5000.0), Seconds::new(0.001));
        assert_eq!(sim.state(), BreakerState::Tripped);
        // Stays tripped regardless of load.
        sim.step(Watts::ZERO, Seconds::new(100.0));
        assert_eq!(sim.state(), BreakerState::Tripped);
        sim.reset();
        assert_eq!(sim.state(), BreakerState::Closed);
    }

    /// `at_rest` is exactly where `step` is the identity: a closed breaker
    /// with zero stress at or below its rating keeps its state and stress
    /// bit-identical, while stress above 0 or load above the rating moves
    /// it.
    #[test]
    fn step_is_the_identity_exactly_at_rest() {
        let cb = CircuitBreaker::with_default_derating(Watts::new(1000.0));
        let bits = |sim: &BreakerSim| (sim.state(), sim.stress.to_bits());
        for load in [0.0, 1.0, 600.0, 999.999, 1000.0] {
            let mut sim = BreakerSim::new(cb);
            assert!(sim.at_rest(Watts::new(load)), "{load} W");
            for dt in [0.0, 1.0, 1e9] {
                let before = bits(&sim);
                sim.step(Watts::new(load), Seconds::new(dt));
                assert_eq!(bits(&sim), before, "{load} W, dt {dt}");
            }
        }
        // Above the rating, stress rises from 0.
        for load in [1000.001, 1600.0] {
            let mut sim = BreakerSim::new(cb);
            assert!(!sim.at_rest(Watts::new(load)), "{load} W");
            let before = bits(&sim);
            sim.step(Watts::new(load), Seconds::new(1.0));
            assert_ne!(bits(&sim), before, "{load} W");
        }
        // With stress above 0, even a light load cools it.
        let mut sim = BreakerSim::new(cb);
        sim.step(Watts::new(1600.0), Seconds::new(1.0));
        assert!(sim.stress > 0.0);
        assert!(!sim.at_rest(Watts::new(500.0)));
        let before = bits(&sim);
        sim.step(Watts::new(500.0), Seconds::new(1.0));
        assert_ne!(bits(&sim), before);
        // A tripped breaker is at rest under any load; a reset one is not
        // at rest above its rating.
        sim.step(Watts::new(20_000.0), Seconds::new(1.0));
        assert_eq!(sim.state(), BreakerState::Tripped);
        assert!(sim.at_rest(Watts::new(20_000.0)));
        let before = bits(&sim);
        sim.step(Watts::new(20_000.0), Seconds::new(1.0));
        assert_eq!(bits(&sim), before);
        sim.reset();
        assert!(!sim.at_rest(Watts::new(1200.0)));
        assert!(sim.at_rest(Watts::new(800.0)));
    }

    #[test]
    fn display_impls() {
        let cb = CircuitBreaker::with_default_derating(Watts::new(750.0));
        assert_eq!(cb.to_string(), "CB 750 W (derated 600 W)");
        assert_eq!(BreakerState::Closed.to_string(), "closed");
        assert_eq!(BreakerState::Tripped.to_string(), "tripped");
    }
}
