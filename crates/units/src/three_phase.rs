//! Three-phase power conversions.
//!
//! Data-center breakers are rated in amperes per phase while the power
//! managers in this suite budget in watts, so topology construction needs to
//! convert between the two. The paper's infrastructure (§2.1) distributes
//! three-phase 400 V line-to-line power, i.e. 230 V line-to-neutral, and a
//! "30 A three-phase breaker loaded to 24 A per phase" is the worked example
//! for the 80 % derating rule.

use crate::{Amperes, Volts, Watts};

/// The line-to-neutral (phase) voltage used throughout the paper's
/// infrastructure: 230 V.
pub const PHASE_VOLTAGE_V: Volts = Volts::new(230.0);

/// Converts a per-phase current rating into the equivalent per-phase power
/// at the given phase voltage (unity power factor).
///
/// ```
/// use capmaestro_units::{three_phase_power, PHASE_VOLTAGE_V, Amperes};
///
/// // A 30 A phase at 230 V carries 6.9 kW — the CDU rating in Table 4.
/// let p = three_phase_power(Amperes::new(30.0), PHASE_VOLTAGE_V);
/// assert!((p.as_kilowatts() - 6.9).abs() < 1e-9);
/// ```
pub fn three_phase_power(phase_current: Amperes, phase_voltage: Volts) -> Watts {
    Watts::new(phase_current.as_f64() * phase_voltage.as_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Converts a per-phase power into the line current drawn at the given
    /// phase voltage (unity power factor): the inverse the round trips
    /// check [`three_phase_power`] against.
    fn line_current(phase_power: Watts, phase_voltage: Volts) -> Amperes {
        Amperes::new(phase_power.as_f64() / phase_voltage.as_f64())
    }

    proptest! {
        #[test]
        fn three_phase_roundtrip(w in 1.0f64..1e6) {
            let i = line_current(Watts::new(w), PHASE_VOLTAGE_V);
            let back = three_phase_power(i, PHASE_VOLTAGE_V);
            prop_assert!(back.approx_eq(Watts::new(w), Watts::new(1e-6 * w)));
        }
    }

    #[test]
    fn cdu_rating_matches_table4() {
        // Table 4: CDUs rated at 6.9 kW each (per phase), i.e. a 30 A breaker.
        let p = three_phase_power(Amperes::new(30.0), PHASE_VOLTAGE_V);
        assert!((p.as_kilowatts() - 6.9).abs() < 1e-9);
    }

    #[test]
    fn roundtrip_power_current() {
        let i = Amperes::new(24.0);
        let p = three_phase_power(i, PHASE_VOLTAGE_V);
        let back = line_current(p, PHASE_VOLTAGE_V);
        assert!((back.as_f64() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn phase_voltage_constant() {
        assert_eq!(PHASE_VOLTAGE_V.as_f64(), 230.0);
    }
}
