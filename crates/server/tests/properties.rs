//! Property-based tests for the server power substrate.

use proptest::prelude::*;

use capmaestro_server::{PsuBank, Server, ServerConfig, ServerPowerModel};
use capmaestro_units::{Ratio, Watts};

proptest! {
    /// Effective shares of a bank always sum to one while any supply
    /// carries load.
    #[test]
    fn shares_sum_to_one(weights in prop::collection::vec(0.1f64..10.0, 1..5)) {
        let bank = PsuBank::new(
            weights
                .iter()
                .map(|&w| capmaestro_server::PowerSupply::new(w, Ratio::new(0.94)))
                .collect(),
        );
        let total: f64 = bank.effective_shares().iter().map(|r| r.as_f64()).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// The Fan et al. curve is monotone and stays inside the envelope.
    #[test]
    fn power_curve_monotone(u1 in 0.0f64..1.0, du in 0.0f64..1.0) {
        let m = ServerPowerModel::paper_default();
        let u2 = (u1 + du).min(1.0);
        let p1 = m.power_at_utilization(Ratio::new(u1));
        let p2 = m.power_at_utilization(Ratio::new(u2));
        prop_assert!(p2 >= p1 - Watts::new(1e-9));
        prop_assert!(p1 >= m.idle() && p1 <= m.cap_max());
    }

    /// Cap ratio is always a fraction, zero when uncapped.
    #[test]
    fn cap_ratio_bounds(demand in 160.0f64..490.0, budget in 0.0f64..600.0) {
        let m = ServerPowerModel::paper_default();
        let r = m.cap_ratio(Watts::new(demand), Watts::new(budget));
        prop_assert!(r >= Ratio::ZERO && r <= Ratio::ONE);
        if budget >= demand {
            prop_assert_eq!(r, Ratio::ZERO);
        }
    }

    /// Throttle telemetry and achieved power are consistent:
    /// power = idle + (demand − idle) × (1 − throttle).
    #[test]
    fn throttle_power_identity(demand in 170.0f64..490.0, cap_dc in 100.0f64..500.0) {
        let mut server = Server::new(ServerConfig::paper_default());
        server.set_offered_demand(Watts::new(demand));
        server.set_dc_cap(Watts::new(cap_dc));
        server.settle();
        let snap = server.sense();
        let m = server.config().model();
        let reconstructed = m.idle()
            + (Watts::new(demand) - m.idle()) * snap.throttle.complement();
        prop_assert!(
            snap.total_ac.approx_eq(reconstructed, Watts::new(1e-6)),
            "power {} vs reconstructed {reconstructed}",
            snap.total_ac
        );
    }
}
