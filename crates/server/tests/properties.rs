//! Property-based tests for the server power substrate.

use proptest::prelude::*;

use capmaestro_server::{PsuBank, Server, ServerConfig, ServerPowerModel};
use capmaestro_units::{Ratio, Seconds, Watts};

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

    /// AC loads split the wall power exactly.
    #[test]
    fn ac_loads_partition_total(split in 0.05f64..0.95, total in 0.0f64..2_000.0) {
        let bank = PsuBank::dual(split, Ratio::new(0.94));
        let loads = bank.ac_loads(Watts::new(total));
        let sum: Watts = loads.iter().sum();
        prop_assert!(sum.approx_eq(Watts::new(total), Watts::new(1e-6)));
    }

    /// AC↔DC conversion roundtrips through the bank efficiency.
    #[test]
    fn ac_dc_roundtrip(dc in 1.0f64..2_000.0, eff in 0.5f64..1.0) {
        let bank = PsuBank::dual(0.6, Ratio::new(eff));
        let ac = Watts::new(dc) / bank.efficiency();
        prop_assert!(ac >= Watts::new(dc)); // losses
        let back = bank.dc_for_total_ac(ac);
        prop_assert!(back.approx_eq(Watts::new(dc), Watts::new(1e-6)));
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

    /// DVFS performance never falls below the dynamic-power ratio and both
    /// are fractions.
    #[test]
    fn perf_exponent_softens_capping(ratio in 0.0f64..1.0) {
        let m = ServerPowerModel::paper_default();
        let perf = m.performance_at_dynamic_ratio(Ratio::new(ratio));
        prop_assert!(perf.as_f64() >= ratio - 1e-12);
        prop_assert!(perf >= Ratio::ZERO && perf <= Ratio::ONE);
    }

    /// Wherever the cap and demand land, a stepped server's power converges
    /// into the envelope and under the enforceable target.
    #[test]
    fn server_converges_to_enforceable_power(
        demand in 160.0f64..490.0,
        cap_dc in 50.0f64..600.0,
    ) {
        let mut server = Server::new(ServerConfig::paper_default());
        server.set_offered_demand(Watts::new(demand));
        server.set_dc_cap(Watts::new(cap_dc));
        for _ in 0..60 {
            server.step(Seconds::new(1.0));
        }
        let power = server.sense().total_ac;
        let m = server.config().model();
        prop_assert!(power >= m.idle() - Watts::new(1e-6));
        prop_assert!(power <= m.cap_max() + Watts::new(1e-6));
        // Power never exceeds demand.
        prop_assert!(power <= Watts::new(demand) + Watts::new(0.5));
        // If the cap binds, power tracks the enforceable target within 2 %.
        let cap_ac = Watts::new(cap_dc) / server.bank().efficiency();
        let target = if Watts::new(demand) <= cap_ac {
            Watts::new(demand)
        } else {
            cap_ac.max(server.min_achievable_ac(Watts::new(demand)))
        };
        prop_assert!(
            power.approx_eq(target, Watts::new(0.02 * 490.0)),
            "power {power} vs target {target}"
        );
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
