//! The per-server leaf-control state machine (paper §4.2, §5): sense →
//! estimate → stale-hold → fail-safe → PI-cap, the work of a rack-level
//! worker whoever budgets above it. Both round loops drive it through the
//! same four transitions — observe a reading, [`LeafTable::age`] at the
//! round boundary, [`LeafControl::refresh_demand`] before the gather,
//! [`LeafControl::command`] once budgets came down — over one dense,
//! slot-indexed [`LeafTable`]; nothing on the warm path allocates.
//! DESIGN.md ("Leaf control") has the state diagram.

use std::collections::HashMap;

use capmaestro_server::{SensorSnapshot, ServerPowerModel};
use capmaestro_topology::ServerId;
use capmaestro_units::{Ratio, Watts};

use crate::capping::CappingController;
use crate::estimator::{DemandEstimator, SampleFate};

/// One server's control state.
#[derive(Debug, Default)]
pub(crate) struct LeafControl {
    estimator: DemandEstimator,
    /// Built on the first commanded cap, from the server's envelope then.
    controller: Option<CappingController>,
    /// Last *plausible* snapshot delivered over a telemetry channel — the
    /// only delivered data ever acted on, so a fault layer interposing on
    /// delivery affects estimation and enforcement alike. Stays `None`
    /// under a rack's own sensor, which is read live instead.
    pub(crate) delivered: Option<SensorSnapshot>,
    /// Whether a reading was accepted since the last aging.
    fresh: bool,
    /// Consecutive agings without an accepted reading.
    stale_rounds: u32,
    /// Fail-safe: the last aging left `stale_rounds` at or past the threshold.
    stale: bool,
    /// What the last [`LeafControl::refresh_demand`] settled on.
    pub(crate) demand: Watts,
}

impl LeafControl {
    /// Takes a reading delivered over a telemetry channel, screened
    /// against the server's power envelope. An implausible reading is
    /// discarded and does **not** count as a refresh, so a sensor
    /// returning garbage degrades exactly like a silent one.
    pub(crate) fn observe(&mut self, snap: &SensorSnapshot, model: ServerPowerModel) -> SampleFate {
        let (idle, cap_max) = (model.idle(), model.cap_max());
        let fate = self
            .estimator
            .push_screened(snap.throttle, snap.total_ac, idle, cap_max);
        if fate == SampleFate::Accepted {
            // clone_from reuses the held snapshot's allocation.
            match &mut self.delivered {
                Some(held) => held.clone_from(snap),
                None => self.delivered = Some(snap.clone()),
            }
            self.fresh = true;
        }
        fate
    }

    /// Takes a reading of a rack's own sensor: no channel that could
    /// corrupt it, so no screening (the spike filter would reject a genuine
    /// demand step), and nothing held — the sensor is at hand.
    pub(crate) fn observe_local(&mut self, snap: &SensorSnapshot) {
        self.estimator.push(snap.throttle, snap.total_ac);
        self.fresh = true;
    }

    /// Round boundary. Crossing `stale_after` clears the estimator:
    /// whatever the window held predates the outage, and an empty window
    /// rebuilds the demand from the first samples after recovery.
    fn age(&mut self, stale_after: u32) {
        if std::mem::take(&mut self.fresh) {
            self.stale_rounds = 0;
        } else {
            self.stale_rounds = self.stale_rounds.saturating_add(1);
            if self.stale_rounds == stale_after {
                self.estimator.clear();
            }
        }
        self.stale = self.stale_rounds >= stale_after;
    }

    /// Settles the AC demand to budget the server from: the estimate, else
    /// the last delivered reading, else `live`, within `[idle, cap_max]` —
    /// or, in fail-safe, `fail_safe` (default `cap_min`) within the
    /// capping range.
    pub(crate) fn refresh_demand(
        &mut self,
        model: ServerPowerModel,
        fail_safe: Option<Watts>,
        live: impl FnOnce() -> Watts,
    ) -> Watts {
        self.demand = if self.stale {
            fail_safe_demand(model, fail_safe)
        } else {
            self.estimator
                .estimate_with_idle(model.idle())
                .or_else(|| self.delivered.as_ref().map(|snap| snap.total_ac))
                .unwrap_or_else(live)
                .clamp(model.idle(), model.cap_max())
        };
        self.demand
    }

    /// Commands the DC cap for this round's `(supply index, AC budget)`
    /// pairs of the working supplies, measured against the last delivered
    /// snapshot (`live` when there is none). In fail-safe the feedback loop
    /// is bypassed and the cap forced to the fail-safe demand. `None` —
    /// keep the previous cap — when not stale and nothing was budgeted.
    pub(crate) fn command(
        &mut self,
        model: ServerPowerModel,
        efficiency: Ratio,
        fail_safe: Option<Watts>,
        budgets: impl Iterator<Item = (usize, Watts)>,
        live: impl FnOnce() -> SensorSnapshot,
    ) -> Option<Watts> {
        let mut budgets = budgets.peekable();
        if !self.stale {
            budgets.peek()?;
        }
        let controller = self.controller.get_or_insert_with(|| {
            CappingController::new(model.cap_min(), model.cap_max(), efficiency)
        });
        if self.stale {
            return Some(controller.force_dc_cap(fail_safe_demand(model, fail_safe) * efficiency));
        }
        let sensed;
        let snap = match &self.delivered {
            Some(snap) => snap,
            None => {
                sensed = live();
                &sensed
            }
        };
        Some(controller.update_pairs(budgets.map(|(idx, budget)| (budget, snap.supply_ac[idx]))))
    }
}

/// The AC demand a blind server is budgeted from and capped to.
fn fail_safe_demand(model: ServerPowerModel, fail_safe: Option<Watts>) -> Watts {
    fail_safe
        .unwrap_or_else(|| model.cap_min())
        .clamp(model.cap_min(), model.cap_max())
}

/// One [`LeafControl`] per server slot of its owner: a farm's id-ordered
/// slots for the plane, a rack's first-bound order for a worker.
#[derive(Debug, Default)]
pub(crate) struct LeafTable {
    /// Slot → server.
    ids: Vec<ServerId>,
    leaves: Vec<LeafControl>,
    /// Leaves in fail-safe as of the last [`LeafTable::age`].
    stale: usize,
    /// How many times [`LeafTable::fit`] re-laid the table.
    layout: u64,
}

impl LeafTable {
    /// Lays the table out over `ids` (slot `i` controls the `i`-th). A
    /// no-op when the layout is current, so owners call it on every use;
    /// otherwise records move with their server and new servers start
    /// fresh.
    pub(crate) fn fit(&mut self, ids: impl Iterator<Item = ServerId> + Clone) {
        if self.ids.iter().copied().eq(ids.clone()) {
            return;
        }
        let mut old: HashMap<ServerId, LeafControl> =
            self.ids.drain(..).zip(self.leaves.drain(..)).collect();
        self.ids.extend(ids);
        let moved = self.ids.iter().map(|id| old.remove(id).unwrap_or_default());
        self.leaves.extend(moved);
        self.stale = self.leaves.iter().filter(|leaf| leaf.stale).count();
        self.layout += 1;
    }

    /// Identifies the current slot layout: equal values, equal layouts.
    pub(crate) fn layout(&self) -> u64 {
        self.layout
    }

    /// The record in `slot`.
    pub(crate) fn leaf(&self, slot: usize) -> &LeafControl {
        &self.leaves[slot]
    }

    /// The record in `slot`, mutably.
    pub(crate) fn leaf_mut(&mut self, slot: usize) -> &mut LeafControl {
        &mut self.leaves[slot]
    }

    /// Ages every leaf one round and recounts the fail-safe ones.
    pub(crate) fn age(&mut self, stale_after: u32) {
        self.stale = 0;
        for leaf in &mut self.leaves {
            leaf.age(stale_after);
            self.stale += usize::from(leaf.stale);
        }
    }

    /// How many leaves the last [`LeafTable::age`] left in fail-safe.
    pub(crate) fn stale_count(&self) -> usize {
        self.stale
    }

    /// The servers in fail-safe, in slot order.
    pub(crate) fn stale_ids(&self) -> impl Iterator<Item = ServerId> + '_ {
        let slots = self.ids.iter().zip(&self.leaves);
        slots.filter(|(_, leaf)| leaf.stale).map(|(&id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STALE_AFTER: u32 = 3;

    /// idle 160 W, capping range 270–490 W.
    fn model() -> ServerPowerModel {
        ServerPowerModel::paper_default()
    }

    /// A single-supply reading of `watts`, unthrottled.
    fn reading(watts: f64) -> SensorSnapshot {
        SensorSnapshot {
            supply_ac: vec![Watts::new(watts)],
            total_ac: Watts::new(watts),
            dc_power: Watts::new(watts * 0.94),
            throttle: Ratio::ZERO,
        }
    }

    /// The demand of a leaf that has what it needs without a live read.
    fn demand(leaf: &mut LeafControl, fail_safe: Option<Watts>) -> Watts {
        leaf.refresh_demand(model(), fail_safe, || {
            panic!("fell through to the live sensor")
        })
    }

    /// The cap commanded for `budgets`, with no live sensor to fall back on.
    fn cap<const N: usize>(
        leaf: &mut LeafControl,
        eff: f64,
        fail_safe: Option<Watts>,
        budgets: [(usize, Watts); N],
    ) -> Option<Watts> {
        let live = || panic!("fell through to the live sensor");
        leaf.command(
            model(),
            Ratio::new(eff),
            fail_safe,
            budgets.into_iter(),
            live,
        )
    }

    #[test]
    fn ladder_holds_then_fails_safe_then_recovers() {
        let mut leaf = LeafControl::default();
        for _ in 0..8 {
            assert_eq!(leaf.observe(&reading(420.0), model()), SampleFate::Accepted);
        }
        // Fresh, then silence: stale-hold keeps the last estimate for
        // STALE_AFTER − 1 rounds…
        for _ in 0..STALE_AFTER {
            leaf.age(STALE_AFTER);
            assert!(!leaf.stale);
            assert_eq!(demand(&mut leaf, None), Watts::new(420.0));
        }
        // …then fail-safe: cap_min demand, estimator cleared, cap forced
        // without consulting budgets or sensors.
        leaf.age(STALE_AFTER);
        assert!(leaf.stale && leaf.estimator.is_empty());
        assert_eq!(demand(&mut leaf, None), model().cap_min());
        assert_eq!(
            cap(&mut leaf, 0.94, None, []),
            Some(model().cap_min() * 0.94)
        );

        // The first plausible reading recovers at the next round boundary,
        // the demand rebuilt from post-outage samples only, and the PI
        // step resumes from the forced cap: +50 W AC of headroom.
        leaf.observe(&reading(300.0), model());
        leaf.age(STALE_AFTER);
        assert!(!leaf.stale);
        assert_eq!(demand(&mut leaf, None), Watts::new(300.0));
        let stepped = cap(&mut leaf, 0.94, None, [(0, Watts::new(350.0))]);
        assert_eq!(stepped, Some((model().cap_min() + Watts::new(50.0)) * 0.94));
    }

    #[test]
    fn implausible_reading_counts_as_missing() {
        let mut leaf = LeafControl::default();
        leaf.observe(&reading(420.0), model());
        leaf.age(1);
        assert!(!leaf.stale);
        // 10 kW from a 490 W server: discarded, the held reading untouched.
        let fate = leaf.observe(&reading(10_000.0), model());
        assert_eq!(fate, SampleFate::RejectedImplausible);
        assert_eq!(leaf.delivered, Some(reading(420.0)));
        leaf.age(1);
        assert!(leaf.stale, "garbage must degrade like silence");
    }

    #[test]
    fn fail_safe_demand_is_clamped_into_the_capping_range() {
        let mut leaf = LeafControl::default();
        leaf.age(1);
        assert!(leaf.stale);
        for (configured, expected) in [(100.0, 270.0), (300.0, 300.0), (9e3, 490.0)] {
            let (fail_safe, expected) = (Some(Watts::new(configured)), Watts::new(expected));
            assert_eq!(demand(&mut leaf, fail_safe), expected);
            assert_eq!(cap(&mut leaf, 1.0, fail_safe, []), Some(expected));
        }
    }

    #[test]
    fn re_observation_reuses_the_held_snapshot_allocation() {
        let mut leaf = LeafControl::default();
        leaf.observe(&reading(420.0), model());
        let held = leaf.delivered.as_ref().unwrap().supply_ac.as_ptr();
        leaf.observe(&reading(420.0), model());
        leaf.observe(&reading(400.0), model());
        assert_eq!(leaf.delivered.as_ref().unwrap().supply_ac.as_ptr(), held);
        assert_eq!(leaf.delivered, Some(reading(400.0)));
    }

    #[test]
    fn local_sensor_is_read_live_and_an_unbudgeted_leaf_keeps_its_cap() {
        let mut leaf = LeafControl::default();
        let sensed = leaf.refresh_demand(model(), None, || Watts::new(333.0));
        assert_eq!(sensed, Watts::new(333.0));
        assert_eq!(cap(&mut leaf, 1.0, None, []), None);
        // A rack's own sensor feeds the estimate but is never held.
        leaf.observe_local(&reading(420.0));
        assert_eq!(leaf.delivered, None);
        assert_eq!(demand(&mut leaf, None), Watts::new(420.0));
        let budget = [(0, Watts::new(400.0))].into_iter();
        let stepped = leaf.command(model(), Ratio::ONE, None, budget, || reading(420.0));
        assert_eq!(stepped, Some(Watts::new(470.0)));
    }

    #[test]
    fn table_counts_stale_leaves_and_moves_records_with_their_server() {
        let mut table = LeafTable::default();
        table.fit([ServerId(3), ServerId(7)].into_iter());
        table.leaf_mut(0).observe(&reading(420.0), model());
        table.age(1);
        assert_eq!(table.stale_count(), 1);
        assert_eq!(table.stale_ids().collect::<Vec<_>>(), [ServerId(7)]);
        // A server joins ahead of both: records follow their ids.
        table.fit([ServerId(1), ServerId(3), ServerId(7)].into_iter());
        assert_eq!(table.leaf(1).delivered, Some(reading(420.0)));
        assert_eq!(table.stale_count(), 1);
        assert_eq!(table.stale_ids().collect::<Vec<_>>(), [ServerId(7)]);
    }
}
