//! The assembled server: workload demand in, sensor telemetry out.

use core::fmt;

use capmaestro_units::{Ratio, Seconds, Watts};

use crate::node_manager::NodeManager;
use crate::power_model::ServerPowerModel;
use crate::psu::PsuBank;

/// Static configuration of a simulated server.
///
/// # Examples
///
/// ```
/// use capmaestro_server::{ServerConfig, PsuBank};
/// use capmaestro_units::Ratio;
///
/// // A Table 4 server whose first supply carries 65 % of the load —
/// // the paper's worst measured split mismatch.
/// let cfg = ServerConfig::paper_default().with_split(0.65);
/// assert_eq!(cfg.bank().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    model: ServerPowerModel,
    bank: PsuBank,
}

impl ServerConfig {
    /// Creates a configuration.
    pub fn new(model: ServerPowerModel, bank: PsuBank) -> Self {
        ServerConfig { model, bank }
    }

    /// The Table 4 server: paper power envelope, two equal supplies at
    /// 94 % efficiency, default node-manager dynamics.
    pub fn paper_default() -> Self {
        ServerConfig::new(
            ServerPowerModel::paper_default(),
            PsuBank::dual(0.5, Ratio::new(0.94)),
        )
    }

    /// Replaces the PSU bank with a dual bank splitting `first_share` /
    /// `1 − first_share` (builder-style).
    #[must_use]
    pub fn with_split(mut self, first_share: f64) -> Self {
        let efficiency = self.bank.supply(0).efficiency();
        self.bank = PsuBank::dual(first_share, efficiency);
        self
    }

    /// Replaces the PSU bank with a single supply (builder-style) — a
    /// single-corded server, as in the paper's §6.2 rig where one feed
    /// emulates a failure scenario.
    #[must_use]
    pub fn single_corded(mut self) -> Self {
        let efficiency = self.bank.supply(0).efficiency();
        self.bank = PsuBank::balanced(1, efficiency);
        self
    }

    /// Replaces the PSU bank (builder-style).
    #[must_use]
    pub fn with_bank(mut self, bank: PsuBank) -> Self {
        self.bank = bank;
        self
    }

    /// The power model.
    pub fn model(&self) -> ServerPowerModel {
        self.model
    }

    /// The PSU bank template.
    pub fn bank(&self) -> &PsuBank {
        &self.bank
    }

    /// The bank-level AC→DC efficiency.
    pub fn efficiency(&self) -> Ratio {
        self.bank.efficiency()
    }
}

/// One IPMI-equivalent sensor reading (paper §5: per-second reads of the
/// per-supply AC power monitors and the power-cap throttling level).
#[derive(Debug, PartialEq)]
pub struct SensorSnapshot {
    /// AC input power of each supply, indexed like the bank.
    pub supply_ac: Vec<Watts>,
    /// Total AC power at the wall.
    pub total_ac: Watts,
    /// DC power delivered to the planars.
    pub dc_power: Watts,
    /// Power-cap throttling level: 0 = full performance, 1 = maximally
    /// throttled.
    pub throttle: Ratio,
}

impl SensorSnapshot {
    /// An all-zero reading with no per-supply entries — the placeholder the
    /// slab cache starts from before the first refresh.
    pub(crate) fn empty() -> Self {
        SensorSnapshot {
            supply_ac: Vec::new(),
            total_ac: Watts::ZERO,
            dc_power: Watts::ZERO,
            throttle: Ratio::ZERO,
        }
    }

    /// A copy of this reading with every power field scaled by `factor`
    /// (throttle is left alone — it is a ratio, not a power). The building
    /// block for spike and gain faults.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> SensorSnapshot {
        SensorSnapshot {
            supply_ac: self.supply_ac.iter().map(|&w| w * factor).collect(),
            total_ac: self.total_ac * factor,
            dc_power: self.dc_power * factor,
            throttle: self.throttle,
        }
    }

    /// A copy of this reading with `delta` watts added to every power
    /// field (the per-supply values each absorb a share-proportional part
    /// so the reading stays internally consistent). The building block for
    /// additive Gaussian sensor noise.
    #[must_use]
    pub fn offset(&self, delta: Watts) -> SensorSnapshot {
        let total = self.total_ac.as_f64();
        let supply_ac = if total.abs() > f64::EPSILON {
            self.supply_ac
                .iter()
                .map(|&w| w + delta * (w.as_f64() / total))
                .collect()
        } else {
            self.supply_ac.clone()
        };
        SensorSnapshot {
            supply_ac,
            total_ac: self.total_ac + delta,
            dc_power: self.dc_power + delta,
            throttle: self.throttle,
        }
    }
}

// Manual impl so `clone_from` reuses the `supply_ac` allocation — the
// derived impl would fall back to a fresh clone, breaking the zero-alloc
// steady-state discipline of the sense scratch buffers.
impl Clone for SensorSnapshot {
    fn clone(&self) -> Self {
        SensorSnapshot {
            supply_ac: self.supply_ac.clone(),
            total_ac: self.total_ac,
            dc_power: self.dc_power,
            throttle: self.throttle,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.supply_ac.clone_from(&source.supply_ac);
        self.total_ac = source.total_ac;
        self.dc_power = source.dc_power;
        self.throttle = source.throttle;
    }
}

/// Per-server physics shared between [`Server`] and the SoA slab
/// ([`crate::slab`]). Keeping a single copy of the arithmetic is what makes
/// the slab stepping path bitwise-identical to the reference path by
/// construction.
pub(crate) mod physics {
    use super::{NodeManager, PsuBank, Ratio, SensorSnapshot, ServerPowerModel, Watts};

    /// Clamps an offered demand into the model envelope `[idle, Pcap_max]`.
    pub(crate) fn clamp_demand(model: ServerPowerModel, demand: Watts) -> Watts {
        demand.clamp(model.idle(), model.cap_max())
    }

    /// The lowest AC power throttling can reach for a given offered demand.
    ///
    /// Throttling scales *dynamic* power by at most the model's
    /// `(Pcap_min − idle) / (Pcap_max − idle)`; lighter workloads bottom
    /// out proportionally higher than `Pcap_min` only in dynamic terms.
    pub(crate) fn min_achievable_ac(model: ServerPowerModel, demand: Watts) -> Watts {
        let dyn_demand = (demand - model.idle()).clamp_non_negative();
        let floor_scale =
            (model.cap_min() - model.idle()) / (model.cap_max() - model.idle());
        model.idle() + dyn_demand * floor_scale
    }

    /// The AC power the node manager steers toward under the current cap
    /// and demand.
    pub(crate) fn target_ac(
        model: ServerPowerModel,
        node_manager: &NodeManager,
        bank: &PsuBank,
        offered_ac: Watts,
    ) -> Watts {
        match node_manager.ac_cap(bank.efficiency()) {
            None => offered_ac,
            Some(cap_ac) => {
                if offered_ac <= cap_ac {
                    offered_ac
                } else {
                    // The cap binds; it cannot push below the throttling
                    // floor for this workload.
                    cap_ac.max(min_achievable_ac(model, offered_ac))
                }
            }
        }
    }

    /// The power-cap throttling level for an offered/achieved pair.
    pub(crate) fn throttle(
        model: ServerPowerModel,
        offered_ac: Watts,
        achieved_ac: Watts,
    ) -> Ratio {
        let idle = model.idle();
        let dyn_demand = (offered_ac - idle).clamp_non_negative();
        if dyn_demand <= Watts::ZERO {
            return Ratio::ZERO;
        }
        let dyn_achieved = (achieved_ac - idle).clamp_non_negative();
        Ratio::new_clamped(1.0 - dyn_achieved / dyn_demand)
    }

    /// Refreshes `snap` in place from the server's current state, reusing
    /// the snapshot's `supply_ac` allocation. Values are bitwise-identical
    /// to [`super::Server::sense`].
    pub(crate) fn sense_into(
        model: ServerPowerModel,
        bank: &PsuBank,
        offered_ac: Watts,
        achieved_ac: Watts,
        snap: &mut SensorSnapshot,
    ) {
        bank.ac_loads_into(achieved_ac, &mut snap.supply_ac);
        snap.total_ac = achieved_ac;
        snap.dc_power = bank.dc_for_total_ac(achieved_ac);
        snap.throttle = throttle(model, offered_ac, achieved_ac);
    }
}

/// A simulated server under node-manager power capping.
///
/// Drive it by setting the offered (uncapped) power demand with
/// [`Server::set_offered_demand`] — or utilization via
/// [`Server::set_utilization`] — optionally command a DC cap, and advance
/// time with [`Server::step`]. Read telemetry with [`Server::sense`].
#[derive(Debug, Clone)]
pub struct Server {
    config: ServerConfig,
    bank: PsuBank,
    node_manager: NodeManager,
    /// Offered AC power demand at full performance.
    offered_ac: Watts,
    /// Smoothed achieved AC power at the wall.
    achieved_ac: Watts,
    /// Whether the server has input power at all (false after its last
    /// working supply's feed died).
    powered: bool,
}

impl Server {
    /// Creates an idle server.
    pub fn new(config: ServerConfig) -> Self {
        let bank = config.bank().clone();
        let idle = config.model().idle();
        Server {
            config,
            bank,
            node_manager: NodeManager::new(),
            offered_ac: idle,
            achieved_ac: idle,
            powered: true,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The live PSU bank (supplies may have failed or stood by since
    /// construction).
    pub fn bank(&self) -> &PsuBank {
        &self.bank
    }

    /// Mutable access to the PSU bank for failure injection.
    pub fn bank_mut(&mut self) -> &mut PsuBank {
        &mut self.bank
    }

    /// Sets the offered AC power demand (what the workload would draw at
    /// full performance). Clamped into the model envelope
    /// `[idle, Pcap_max]`.
    pub fn set_offered_demand(&mut self, demand: Watts) {
        self.offered_ac = physics::clamp_demand(self.config.model(), demand);
    }

    /// Sets the offered demand from a CPU utilization via the power curve.
    pub fn set_utilization(&mut self, u: Ratio) {
        self.offered_ac = self.config.model().power_at_utilization(u);
    }

    /// The current offered AC demand.
    pub fn offered_demand(&self) -> Watts {
        self.offered_ac
    }

    /// Commands a DC power cap (what a capping controller sends over IPMI).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not positive.
    pub fn set_dc_cap(&mut self, cap: Watts) {
        self.node_manager.set_dc_cap(cap);
    }

    /// The commanded DC cap, if any.
    pub fn dc_cap(&self) -> Option<Watts> {
        self.node_manager.dc_cap()
    }

    /// The AC power the node manager steers toward under the current cap
    /// and demand.
    fn target_ac(&self) -> Watts {
        physics::target_ac(
            self.config.model(),
            &self.node_manager,
            &self.bank,
            self.offered_ac,
        )
    }

    /// Whether the server currently has input power.
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// Connects or disconnects input power entirely. Losing power is
    /// instantaneous (no settling) — the server simply goes dark, as when
    /// the feed behind its last working supply dies.
    pub fn set_powered(&mut self, powered: bool) {
        self.powered = powered;
        if !powered {
            self.achieved_ac = Watts::ZERO;
        } else if self.achieved_ac < self.config.model().idle() {
            self.achieved_ac = self.config.model().idle();
        }
    }

    /// Advances the server by `dt`: the node manager moves actual power
    /// toward its target with first-order settling. Returns the new total
    /// AC power.
    pub fn step(&mut self, dt: Seconds) -> Watts {
        if !self.powered {
            self.achieved_ac = Watts::ZERO;
            return Watts::ZERO;
        }
        let target = self.target_ac();
        self.achieved_ac = self.node_manager.approach(self.achieved_ac, target, dt);
        self.achieved_ac
    }

    /// Reads the sensors (per-supply AC power, throttling level).
    pub fn sense(&self) -> SensorSnapshot {
        SensorSnapshot {
            supply_ac: self.bank.ac_loads(self.achieved_ac),
            total_ac: self.achieved_ac,
            dc_power: self.bank.dc_for_total_ac(self.achieved_ac),
            throttle: self.throttle(),
        }
    }

    /// The power-cap throttling level: the fraction of dynamic power
    /// removed relative to the offered demand.
    pub fn throttle(&self) -> Ratio {
        physics::throttle(self.config.model(), self.offered_ac, self.achieved_ac)
    }

    /// Achieved application performance as a fraction of uncapped
    /// performance — the quantity the paper's normalized-throughput plots
    /// report. Under DVFS, removing dynamic power costs less than
    /// proportional performance (the cubic
    /// [`DEFAULT_PERF_EXPONENT`](crate::power_model::DEFAULT_PERF_EXPONENT)).
    pub fn performance_fraction(&self) -> Ratio {
        self.config
            .model()
            .performance_at_dynamic_ratio(self.throttle().complement())
    }

    /// Instantly settles the server at its target power (skips transients —
    /// used by steady-state experiments and the Monte-Carlo planner).
    pub fn settle(&mut self) {
        self.achieved_ac = if self.powered {
            self.target_ac()
        } else {
            Watts::ZERO
        };
    }

    /// Decomposes the server into its state lanes for slab storage
    /// (`config`, live `bank`, live `node_manager`, `offered_ac`,
    /// `achieved_ac`, `powered`).
    pub(crate) fn into_parts(
        self,
    ) -> (ServerConfig, PsuBank, NodeManager, Watts, Watts, bool) {
        (
            self.config,
            self.bank,
            self.node_manager,
            self.offered_ac,
            self.achieved_ac,
            self.powered,
        )
    }
}

impl fmt::Display for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "server [demand {:.0}, power {:.0}, throttle {}]",
            self.offered_ac,
            self.achieved_ac,
            self.throttle()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
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
                cap_ac.max(physics::min_achievable_ac(m, Watts::new(demand)))
            };
            prop_assert!(
                power.approx_eq(target, Watts::new(0.02 * 490.0)),
                "power {power} vs target {target}"
            );
        }
    }

    fn server_with_split(split: f64) -> Server {
        Server::new(ServerConfig::paper_default().with_split(split))
    }

    #[test]
    fn starts_idle_and_uncapped() {
        let s = server_with_split(0.5);
        assert_eq!(s.offered_demand(), Watts::new(160.0));
        assert_eq!(s.sense().total_ac, Watts::new(160.0));
        assert_eq!(s.dc_cap(), None);
        assert_eq!(s.throttle(), Ratio::ZERO);
    }

    #[test]
    fn uncapped_server_follows_demand() {
        let mut s = server_with_split(0.5);
        s.set_offered_demand(Watts::new(430.0));
        for _ in 0..20 {
            s.step(Seconds::new(1.0));
        }
        assert!(s.sense().total_ac.approx_eq(Watts::new(430.0), Watts::new(1.0)));
        assert!(s.throttle().as_f64() < 0.01);
    }

    #[test]
    fn cap_binds_and_throttles() {
        let mut s = server_with_split(0.5);
        s.set_offered_demand(Watts::new(430.0));
        // Cap at 300 W AC: DC cap = 300 × k.
        let k = s.config().efficiency();
        s.set_dc_cap(Watts::new(300.0) * k);
        for _ in 0..30 {
            s.step(Seconds::new(1.0));
        }
        let snap = s.sense();
        assert!(snap.total_ac.approx_eq(Watts::new(300.0), Watts::new(2.0)));
        // throttle = 1 − (300−160)/(430−160) ≈ 0.481
        assert!((snap.throttle.as_f64() - 0.481).abs() < 0.02);
        assert!(s.performance_fraction().as_f64() > 0.5);
    }

    #[test]
    fn settles_within_six_seconds_like_node_manager() {
        let mut s = server_with_split(0.5);
        s.set_offered_demand(Watts::new(490.0));
        s.settle();
        let k = s.config().efficiency();
        s.set_dc_cap(Watts::new(300.0) * k);
        for _ in 0..6 {
            s.step(Seconds::new(1.0));
        }
        let gap = (s.sense().total_ac - Watts::new(300.0)).as_f64();
        assert!(gap.abs() < 0.05 * 190.0, "gap {gap} too large after 6 s");
    }

    #[test]
    fn cap_cannot_push_below_floor() {
        let mut s = server_with_split(0.5);
        s.set_offered_demand(Watts::new(490.0));
        s.set_dc_cap(Watts::new(50.0)); // far below Pcap_min
        s.settle();
        // Floor for a full-power workload is Pcap_min = 270 W AC.
        assert!(s.sense().total_ac.approx_eq(Watts::new(270.0), Watts::new(1e-6)));
    }

    #[test]
    fn min_achievable_scales_with_demand() {
        let model = server_with_split(0.5).config().model();
        let floor = |demand| physics::min_achievable_ac(model, Watts::new(demand));
        // Full-power workload floors at Pcap_min.
        assert!(floor(490.0).approx_eq(Watts::new(270.0), Watts::new(1e-9)));
        // A workload demanding 325 W (half dynamic range) floors halfway
        // between idle and Pcap_min.
        assert!(floor(325.0).approx_eq(Watts::new(215.0), Watts::new(1e-9)));
        // An idle server floors at idle.
        assert!(floor(160.0).approx_eq(Watts::new(160.0), Watts::new(1e-9)));
    }

    #[test]
    fn demand_clamped_to_envelope() {
        let mut s = server_with_split(0.5);
        s.set_offered_demand(Watts::new(1000.0));
        assert_eq!(s.offered_demand(), Watts::new(490.0));
        s.set_offered_demand(Watts::new(10.0));
        assert_eq!(s.offered_demand(), Watts::new(160.0));
    }

    #[test]
    fn utilization_demand() {
        let mut s = server_with_split(0.5);
        s.set_utilization(Ratio::ONE);
        assert_eq!(s.offered_demand(), Watts::new(490.0));
        s.set_utilization(Ratio::ZERO);
        assert_eq!(s.offered_demand(), Watts::new(160.0));
    }

    #[test]
    fn unequal_split_reflected_in_sensors() {
        let mut s = server_with_split(0.65);
        s.set_offered_demand(Watts::new(400.0));
        s.settle();
        let snap = s.sense();
        assert!((snap.supply_ac[0].as_f64() - 260.0).abs() < 1e-9);
        assert!((snap.supply_ac[1].as_f64() - 140.0).abs() < 1e-9);
        assert!(snap.dc_power < snap.total_ac); // conversion losses
    }

    #[test]
    fn supply_failure_shifts_sensed_load() {
        let mut s = server_with_split(0.65);
        s.set_offered_demand(Watts::new(400.0));
        s.settle();
        s.bank_mut().fail_supply(0);
        let snap = s.sense();
        assert_eq!(snap.supply_ac[0], Watts::ZERO);
        assert!(snap.supply_ac[1].approx_eq(Watts::new(400.0), Watts::new(1e-9)));
    }

    #[test]
    fn display() {
        let mut s = server_with_split(0.5);
        s.set_offered_demand(Watts::new(430.0));
        s.settle();
        assert_eq!(s.to_string(), "server [demand 430 W, power 430 W, throttle 0.0%]");
    }

    #[test]
    fn scaled_multiplies_all_power_fields() {
        let mut server = server_with_split(0.6);
        server.set_offered_demand(Watts::new(400.0));
        server.settle();
        let raw = server.sense();
        let spiked = raw.scaled(2.0);
        assert!((spiked.total_ac.as_f64() - 2.0 * raw.total_ac.as_f64()).abs() < 1e-9);
        for (s, r) in spiked.supply_ac.iter().zip(&raw.supply_ac) {
            assert!((s.as_f64() - 2.0 * r.as_f64()).abs() < 1e-9);
        }
        assert_eq!(spiked.throttle, raw.throttle);
    }

    #[test]
    fn offset_preserves_supply_consistency() {
        let mut server = server_with_split(0.6);
        server.set_offered_demand(Watts::new(400.0));
        server.settle();
        let raw = server.sense();
        let noisy = raw.offset(Watts::new(10.0));
        assert!((noisy.total_ac.as_f64() - raw.total_ac.as_f64() - 10.0).abs() < 1e-9);
        let supply_sum: f64 = noisy.supply_ac.iter().map(|w| w.as_f64()).sum();
        assert!(
            (supply_sum - noisy.total_ac.as_f64()).abs() < 1e-9,
            "per-supply readings must still sum to the total"
        );
    }
}
