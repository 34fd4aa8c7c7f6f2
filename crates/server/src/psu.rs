//! Redundant power supplies and their unequal load split.
//!
//! The paper's first key observation (§3.1) is that a server does **not**
//! split its load equally between its power supplies: the split is an
//! intrinsic property of the unit (up to a 65/35 split was measured) and
//! cannot be adjusted at runtime. Budgets must therefore be enforced per
//! supply, and the mismatch is what strands power (§4.4).

use core::fmt;

use capmaestro_units::{Ratio, Watts};

/// Operating state of one power supply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SupplyState {
    /// Sharing the server load normally.
    #[default]
    Active,
    /// In cold-standby (drawing no power) for efficiency (§3.1, \[34\]).
    Standby,
    /// Failed, or its upstream feed is dead.
    Failed,
}

impl SupplyState {
    /// Whether the supply currently carries load.
    pub fn carries_load(self) -> bool {
        matches!(self, SupplyState::Active)
    }

    /// Whether the supply is working (could carry load if activated).
    pub fn is_working(self) -> bool {
        !matches!(self, SupplyState::Failed)
    }
}

impl fmt::Display for SupplyState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupplyState::Active => write!(f, "active"),
            SupplyState::Standby => write!(f, "standby"),
            SupplyState::Failed => write!(f, "failed"),
        }
    }
}

/// One server power supply.
///
/// `weight` encodes the supply's intrinsic share of the server load
/// relative to its siblings: a two-supply bank with weights 0.65/0.35
/// reproduces the worst split mismatch the paper reports. Weights are
/// renormalized over the supplies that currently carry load, which models
/// the load shifting to the survivors when a supply fails or stands by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSupply {
    weight: f64,
    efficiency: Ratio,
    state: SupplyState,
}

impl PowerSupply {
    /// Creates an active supply with the given intrinsic load weight and
    /// AC→DC conversion efficiency.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not positive/finite or `efficiency` is outside
    /// `(0, 1]`.
    pub fn new(weight: f64, efficiency: Ratio) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "supply weight must be positive and finite, got {weight}"
        );
        assert!(
            efficiency > Ratio::ZERO && efficiency <= Ratio::ONE,
            "supply efficiency must be in (0, 1], got {efficiency}"
        );
        PowerSupply {
            weight,
            efficiency,
            state: SupplyState::Active,
        }
    }

    /// The intrinsic load weight.
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// The AC→DC conversion efficiency `k` (DC out / AC in).
    pub fn efficiency(&self) -> Ratio {
        self.efficiency
    }

    /// The operating state.
    pub fn state(&self) -> SupplyState {
        self.state
    }
}

/// The bank of power supplies installed in one server.
///
/// # Examples
///
/// ```
/// use capmaestro_server::PsuBank;
/// use capmaestro_units::{Ratio, Watts};
///
/// // The paper's measured worst case: a 65/35 split.
/// let bank = PsuBank::dual(0.65, Ratio::new(0.94));
/// let shares = bank.effective_shares();
/// let wall = Watts::new(470.0); // 470 W AC at the wall
/// assert!(((wall * shares[0]).as_f64() - 305.5).abs() < 1e-9);
/// assert!(((wall * shares[1]).as_f64() - 164.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PsuBank {
    supplies: Vec<PowerSupply>,
}

impl PsuBank {
    /// Creates a bank from explicit supplies.
    ///
    /// # Panics
    ///
    /// Panics if the bank is empty.
    pub fn new(supplies: Vec<PowerSupply>) -> Self {
        assert!(!supplies.is_empty(), "a server needs at least one supply");
        PsuBank { supplies }
    }

    /// A dual-supply bank where the first supply carries `first_share` of
    /// the load (e.g. `0.65`) and both convert at `efficiency`.
    ///
    /// # Panics
    ///
    /// Panics if `first_share` is outside `(0, 1)`.
    pub fn dual(first_share: f64, efficiency: Ratio) -> Self {
        assert!(
            first_share > 0.0 && first_share < 1.0,
            "first supply share must be in (0, 1), got {first_share}"
        );
        PsuBank::new(vec![
            PowerSupply::new(first_share, efficiency),
            PowerSupply::new(1.0 - first_share, efficiency),
        ])
    }

    /// A bank of `n` identical supplies sharing the load equally.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn balanced(n: usize, efficiency: Ratio) -> Self {
        assert!(n > 0, "a server needs at least one supply");
        PsuBank::new(vec![PowerSupply::new(1.0, efficiency); n])
    }

    /// The number of installed supplies.
    pub fn len(&self) -> usize {
        self.supplies.len()
    }

    /// Whether the bank is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.supplies.is_empty()
    }

    /// Borrow a supply.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn supply(&self, idx: usize) -> &PowerSupply {
        &self.supplies[idx]
    }

    /// All supplies.
    pub fn supplies(&self) -> &[PowerSupply] {
        &self.supplies
    }

    /// Number of *working* (non-failed) supplies — the `M` in the paper's
    /// capping controller (§4.2).
    pub fn working_count(&self) -> usize {
        self.supplies
            .iter()
            .filter(|s| s.state().is_working())
            .count()
    }

    /// Marks a supply failed (e.g. its feed died).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or this would fail the last working
    /// supply (the server would lose power — model that at the engine level
    /// by removing the server instead).
    pub fn fail_supply(&mut self, idx: usize) {
        assert!(
            self.working_count() > 1 || !self.supplies[idx].state.is_working(),
            "cannot fail the last working supply of a server"
        );
        self.supplies[idx].state = SupplyState::Failed;
    }

    /// Puts a supply in (or out of) cold standby.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range, the supply has failed, or this
    /// would leave no load-carrying supply.
    pub fn set_standby(&mut self, idx: usize, standby: bool) {
        assert!(
            self.supplies[idx].state != SupplyState::Failed,
            "a failed supply cannot change standby state"
        );
        if standby {
            let carrying = self
                .supplies
                .iter()
                .filter(|s| s.state().carries_load())
                .count();
            assert!(
                carrying > 1 || !self.supplies[idx].state.carries_load(),
                "cannot stand by the last load-carrying supply"
            );
            self.supplies[idx].state = SupplyState::Standby;
        } else {
            self.supplies[idx].state = SupplyState::Active;
        }
    }

    /// Restores a failed supply to active service.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn repair_supply(&mut self, idx: usize) {
        self.supplies[idx].state = SupplyState::Active;
    }

    /// The effective load share of each supply: intrinsic weights
    /// renormalized over the supplies currently carrying load. Failed and
    /// standby supplies get share 0.
    ///
    /// This is the `r` of the paper's capping-controller metrics ("we
    /// adjust it in practice based on how the load is actually split").
    pub fn effective_shares(&self) -> Vec<Ratio> {
        let total: f64 = self
            .supplies
            .iter()
            .filter(|s| s.state().carries_load())
            .map(|s| s.weight())
            .sum();
        self.supplies
            .iter()
            .map(|s| {
                if s.state().carries_load() && total > 0.0 {
                    Ratio::new(s.weight() / total)
                } else {
                    Ratio::ZERO
                }
            })
            .collect()
    }

    /// Iterates the effective load shares in supply order without
    /// allocating — same values as [`PsuBank::effective_shares`], for
    /// callers on the per-round hot path.
    pub(crate) fn effective_shares_iter(&self) -> impl Iterator<Item = Ratio> + '_ {
        let total: f64 = self
            .supplies
            .iter()
            .filter(|s| s.state().carries_load())
            .map(|s| s.weight())
            .sum();
        self.supplies.iter().map(move |s| {
            if s.state().carries_load() && total > 0.0 {
                Ratio::new(s.weight() / total)
            } else {
                Ratio::ZERO
            }
        })
    }

    /// The effective load share of one supply (see
    /// [`PsuBank::effective_shares`]); [`Ratio::ZERO`] when `idx` is out of
    /// range.
    pub fn effective_share(&self, idx: usize) -> Ratio {
        self.effective_shares_iter()
            .nth(idx)
            .unwrap_or(Ratio::ZERO)
    }

    /// Per-supply AC input power when the server draws `total_ac` at the
    /// wall.
    pub(crate) fn ac_loads(&self, total_ac: Watts) -> Vec<Watts> {
        self.effective_shares()
            .into_iter()
            .map(|r| total_ac * r)
            .collect()
    }

    /// Writes the per-supply AC input powers into `out` without allocating
    /// (beyond growing `out` to the bank size once) — same values as
    /// [`PsuBank::ac_loads`], for callers on the per-second hot path.
    pub(crate) fn ac_loads_into(&self, total_ac: Watts, out: &mut Vec<Watts>) {
        out.clear();
        out.extend(self.effective_shares_iter().map(|r| total_ac * r));
    }

    /// The bank-level AC→DC efficiency: the load-share-weighted mean of the
    /// carrying supplies' efficiencies (equals the common `k` when supplies
    /// are identical).
    pub fn efficiency(&self) -> Ratio {
        let k: f64 = self
            .supplies
            .iter()
            .zip(self.effective_shares_iter())
            .map(|(s, r)| s.efficiency().as_f64() * r.as_f64())
            .sum();
        if k > 0.0 {
            Ratio::new(k)
        } else {
            // No carrying supply: fall back to the first working one.
            self.supplies
                .iter()
                .find(|s| s.state().is_working())
                .map(|s| s.efficiency())
                .unwrap_or(Ratio::ONE)
        }
    }

    /// Total DC delivered for a given wall AC draw.
    pub(crate) fn dc_for_total_ac(&self, ac: Watts) -> Watts {
        ac * self.efficiency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
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
        fn ac_dc_roundtrips_at_any_efficiency(dc in 1.0f64..2_000.0, eff in 0.5f64..1.0) {
            let bank = PsuBank::dual(0.6, Ratio::new(eff));
            let ac = Watts::new(dc) / bank.efficiency();
            prop_assert!(ac >= Watts::new(dc)); // losses
            let back = bank.dc_for_total_ac(ac);
            prop_assert!(back.approx_eq(Watts::new(dc), Watts::new(1e-6)));
        }
    }

    const K: Ratio = Ratio::new(0.94);

    #[test]
    fn dual_bank_shares() {
        let bank = PsuBank::dual(0.65, K);
        let shares = bank.effective_shares();
        assert!((shares[0].as_f64() - 0.65).abs() < 1e-12);
        assert!((shares[1].as_f64() - 0.35).abs() < 1e-12);
        assert_eq!(bank.working_count(), 2);
    }

    #[test]
    fn balanced_bank_shares() {
        let bank = PsuBank::balanced(3, K);
        for share in bank.effective_shares() {
            assert!((share.as_f64() - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn failure_shifts_load_to_survivor() {
        let mut bank = PsuBank::dual(0.65, K);
        bank.fail_supply(0);
        let shares = bank.effective_shares();
        assert_eq!(shares[0], Ratio::ZERO);
        assert_eq!(shares[1], Ratio::ONE);
        assert_eq!(bank.working_count(), 1);
    }

    #[test]
    #[should_panic(expected = "last working supply")]
    fn cannot_fail_all_supplies() {
        let mut bank = PsuBank::dual(0.5, K);
        bank.fail_supply(0);
        bank.fail_supply(1);
    }

    #[test]
    fn standby_and_reactivate() {
        let mut bank = PsuBank::dual(0.65, K);
        bank.set_standby(1, true);
        assert_eq!(bank.effective_shares(), vec![Ratio::ONE, Ratio::ZERO]);
        // Standby supply still counts as working (it could be re-engaged).
        assert_eq!(bank.working_count(), 2);
        bank.set_standby(1, false);
        assert!((bank.effective_shares()[1].as_f64() - 0.35).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "last load-carrying supply")]
    fn cannot_stand_by_last_carrier() {
        let mut bank = PsuBank::dual(0.5, K);
        bank.set_standby(0, true);
        bank.set_standby(1, true);
    }

    #[test]
    fn repair_restores_split() {
        let mut bank = PsuBank::dual(0.65, K);
        bank.fail_supply(1);
        bank.repair_supply(1);
        assert!((bank.effective_shares()[1].as_f64() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn ac_loads_split_total() {
        let bank = PsuBank::dual(0.6, K);
        let loads = bank.ac_loads(Watts::new(500.0));
        assert!((loads[0].as_f64() - 300.0).abs() < 1e-9);
        assert!((loads[1].as_f64() - 200.0).abs() < 1e-9);
        let sum: Watts = loads.iter().sum();
        assert!(sum.approx_eq(Watts::new(500.0), Watts::new(1e-9)));
    }

    #[test]
    fn ac_dc_roundtrip() {
        let bank = PsuBank::dual(0.65, K);
        let dc = Watts::new(400.0);
        let ac = dc / bank.efficiency();
        assert!(ac > dc); // conversion losses
        let dc_back = bank.dc_for_total_ac(ac);
        assert!(dc_back.approx_eq(dc, Watts::new(1e-9)));
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn zero_efficiency_rejected() {
        let _ = PowerSupply::new(1.0, Ratio::ZERO);
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn non_positive_weight_rejected() {
        let _ = PowerSupply::new(0.0, K);
    }

    #[test]
    fn state_display_and_predicates() {
        assert_eq!(SupplyState::Active.to_string(), "active");
        assert_eq!(SupplyState::Standby.to_string(), "standby");
        assert_eq!(SupplyState::Failed.to_string(), "failed");
        assert!(SupplyState::Active.carries_load());
        assert!(!SupplyState::Standby.carries_load());
        assert!(SupplyState::Standby.is_working());
        assert!(!SupplyState::Failed.is_working());
    }
}
