//! The per-server leaf-control state machine (paper §4.2, §5): sense →
//! estimate → stale-hold → fail-safe → PI-cap, the work of a rack-level
//! worker whoever budgets above it. Both round loops drive it through the
//! same four transitions — observe a reading, [`LeafTable::age`] at the
//! round boundary, [`LeafControl::refresh_demand`] before the gather,
//! [`LeafControl::command`] once budgets came down — over one dense,
//! slot-indexed [`LeafTable`]; nothing on the warm path allocates.
//! DESIGN.md ("Leaf control") has the state diagram.
//!
//! The table also knows which leaves a transition could change. A leaf
//! whose estimator is saturated with its server's reading, which is fresh
//! and whose last command was a fixed point, is *settled*: on bit-equal
//! inputs every transition is the identity (the tests below prove each
//! one), so [`LeafTable::sweep`], [`LeafTable::age`] and
//! [`LeafTable::enforce`] visit only the leaves whose inputs changed —
//! and enforce also the leaves whose cap is still moving.

use std::collections::HashMap;

use capmaestro_server::{SensorSnapshot, ServerPowerModel};
use capmaestro_topology::ServerId;
use capmaestro_units::{Ratio, Watts};

use crate::capping::CappingController;
use crate::estimator::{DemandEstimator, SampleFate};

/// Consecutive control rounds without a plausible reading before a server
/// is declared stale. Rounds 1..N are the *stale-hold* bridge: the last
/// good estimate keeps being used, riding out transient sensor drops.
/// From round N on the server is in *fail-safe*: budgeted from, and
/// capped to, its `Pcap_min`, the most conservative budget still
/// guaranteed enforceable. Over-throttling a blind server is safe; a
/// tripped breaker is not.
pub const STALE_AFTER_ROUNDS: u32 = 3;

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
    /// Whether the last [`LeafControl::command`] was a fixed point: it
    /// left the controller's cap where it found it, so running it again on
    /// bit-equal inputs changes nothing.
    fixed: bool,
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

    /// Round boundary. Crossing [`STALE_AFTER_ROUNDS`] clears the
    /// estimator: whatever the window held predates the outage, and an
    /// empty window rebuilds the demand from the first samples after
    /// recovery.
    fn age(&mut self) {
        if std::mem::take(&mut self.fresh) {
            self.stale_rounds = 0;
        } else {
            self.stale_rounds = self.stale_rounds.saturating_add(1);
            if self.stale_rounds == STALE_AFTER_ROUNDS {
                self.estimator.clear();
            }
        }
        self.stale = self.stale_rounds >= STALE_AFTER_ROUNDS;
    }

    /// Settles the AC demand to budget the server from: the estimate, else
    /// the last delivered reading, else `live`, within `[idle, cap_max]` —
    /// or, in fail-safe, `cap_min`.
    pub(crate) fn refresh_demand(
        &mut self,
        model: ServerPowerModel,
        live: impl FnOnce() -> Watts,
    ) -> Watts {
        self.demand = if self.stale {
            model.cap_min()
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
    /// is bypassed and the cap forced to `cap_min`. `None` —
    /// keep the previous cap — when not stale and nothing was budgeted.
    pub(crate) fn command(
        &mut self,
        model: ServerPowerModel,
        efficiency: Ratio,
        budgets: impl Iterator<Item = (usize, Watts)>,
        live: impl FnOnce() -> SensorSnapshot,
    ) -> Option<Watts> {
        let mut budgets = budgets.peekable();
        if !self.stale && budgets.peek().is_none() {
            self.fixed = true;
            return None;
        }
        let before = self.controller.map(|c| c.desired_dc_cap().as_f64().to_bits());
        let controller = self.controller.get_or_insert_with(|| {
            CappingController::new(model.cap_min(), model.cap_max(), efficiency)
        });
        let cap = if self.stale {
            controller.force_dc_cap(model.cap_min() * efficiency)
        } else {
            let sensed;
            let snap = match &self.delivered {
                Some(snap) => snap,
                None => {
                    sensed = live();
                    &sensed
                }
            };
            controller.update_pairs(budgets.map(|(idx, budget)| (budget, snap.supply_ac[idx])))
        };
        // The cap is the controller's whole state: an update that returns
        // it unchanged returns it unchanged again on the same pairs.
        self.fixed = before == Some(cap.as_f64().to_bits());
        Some(cap)
    }

    /// Right after observing `snap` came to `fate`: whether observing it
    /// again would change nothing but the fresh flag — it was accepted (so
    /// it is the held snapshot) and it saturates the estimator.
    fn saturated_by(&self, snap: &SensorSnapshot, fate: SampleFate) -> bool {
        fate == SampleFate::Accepted && self.estimator.saturated_with(snap.throttle, snap.total_ac)
    }

    /// Whether `snap` is, bit for bit, the reading this leaf holds.
    pub(crate) fn holds(&self, snap: &SensorSnapshot) -> bool {
        let bits = |w: &Watts| w.as_f64().to_bits();
        self.delivered.as_ref().is_some_and(|held| {
            held.supply_ac.iter().map(bits).eq(snap.supply_ac.iter().map(bits))
                && bits(&held.total_ac) == bits(&snap.total_ac)
                && bits(&held.dc_power) == bits(&snap.dc_power)
                && held.throttle.as_f64().to_bits() == snap.throttle.as_f64().to_bits()
        })
    }
}

/// What became of a server since its leaf table last caught up with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Moved {
    /// Nothing its leaf reads.
    Nothing,
    /// Only its cap, which is no longer the one its leaf commanded.
    Cap,
    /// Its reading or its shape (configuration, supply bank).
    Server,
}

/// A set of table slots, one bit each.
#[derive(Debug, Default)]
struct SlotSet(Vec<u64>);

impl SlotSet {
    /// Makes the set hold all of the slots `0..len`, or none of them.
    fn reset(&mut self, len: usize, all: bool) {
        self.0.clear();
        self.0.resize(len.div_ceil(64), if all { u64::MAX } else { 0 });
        if all && !len.is_multiple_of(64) {
            self.0[len / 64] = (1 << (len % 64)) - 1;
        }
    }

    fn contains(&self, slot: usize) -> bool {
        self.0[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// Adds or removes `slot`; returns whether it was in the set.
    fn set(&mut self, slot: usize, on: bool) -> bool {
        let (word, bit) = (&mut self.0[slot / 64], 1 << (slot % 64));
        let was = *word & bit != 0;
        if on {
            *word |= bit;
        } else {
            *word &= !bit;
        }
        was
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| slots_of(w, word))
    }
}

/// The slots of the set's word `w` whose bits are set in `word`, ascending.
/// The word is copied, so the set may change while they are visited.
fn slots_of(w: usize, mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (word != 0).then(|| word.trailing_zeros() as usize)?;
        word &= word - 1;
        Some(w * 64 + bit)
    })
}

/// One [`LeafControl`] per server slot of its owner: a farm's id-ordered
/// slots for the plane, a rack's first-bound order for a worker.
///
/// For the plane it also tracks which leaves are not settled. A leaf out of
/// `observing` holds its server's current reading, accepted, and its
/// estimator is saturated with it; a leaf out of `dirty` is also fresh as
/// of its last aging, so aging, demand and tree input would not change it;
/// a leaf out of both `dirty` and `commanding` also commanded a fixed
/// point. `observing ⊆ dirty`, and a round visits `dirty` whole and
/// commands `dirty ∪ commanding`. [`LeafTable::sweep`],
/// [`LeafTable::enforce`] and [`LeafTable::age`] move leaves out as they
/// settle; [`LeafTable::absorb`] moves them back when their server moves.
#[derive(Debug, Default)]
pub(crate) struct LeafTable {
    /// Slot → server.
    ids: Vec<ServerId>,
    leaves: Vec<LeafControl>,
    /// Leaves in fail-safe as of the last [`LeafTable::age`].
    stale: usize,
    /// The owner's layout key the table is laid out for.
    fitted: Option<u64>,
    /// The owner's change generation the last [`LeafTable::absorb`] took.
    absorbed: u64,
    /// Leaves whose next reading may change them.
    observing: SlotSet,
    /// Leaves the next round visits.
    dirty: SlotSet,
    /// Leaves out of `dirty` whose last command moved their cap: the next
    /// round commands them again, and nothing else.
    commanding: SlotSet,
    /// Whether a sweep ran since the last aging. Every leaf it skipped was
    /// saturated with an accepted reading, so it counts as fresh until it
    /// rejoins `observing` (which then marks it fresh explicitly).
    swept: bool,
}

impl LeafTable {
    /// Lays the table out over `ids` (slot `i` controls the `i`-th), which
    /// the owner names by `key` — the farm's layout generation for the
    /// plane. A no-op while `key` is the one laid out, so owners call it on
    /// every use; otherwise records move with their server, new servers
    /// start fresh, and every leaf is revisited: the next sweep observes
    /// every reading and the next round visits every leaf.
    pub(crate) fn fit(&mut self, key: u64, ids: impl IntoIterator<Item = ServerId>) {
        if self.fitted == Some(key) {
            return;
        }
        // Every leaf a sweep skipped since the last aging is fresh: say so
        // while `observing`, laid out over the old slots, still tells which.
        if self.swept {
            for (slot, leaf) in self.leaves.iter_mut().enumerate() {
                leaf.fresh |= !self.observing.contains(slot);
            }
        }
        let mut old: HashMap<ServerId, LeafControl> =
            self.ids.drain(..).zip(self.leaves.drain(..)).collect();
        self.ids.extend(ids);
        let moved = self.ids.iter().map(|id| old.remove(id).unwrap_or_default());
        self.leaves.extend(moved);
        self.stale = self.leaves.iter().filter(|leaf| leaf.stale).count();
        self.fitted = Some(key);
        let n = self.leaves.len();
        self.observing.reset(n, true);
        self.dirty.reset(n, true);
        self.commanding.reset(n, false);
    }

    /// Slot `slot`'s server may have changed: observe its next reading
    /// and visit it next round.
    fn touch(&mut self, slot: usize) {
        if !self.observing.set(slot, true) && self.swept {
            self.leaves[slot].fresh = true;
        }
        self.dirty.set(slot, true);
    }

    /// Catches up with the owner's servers: `moved(slot, since, leaf)`
    /// tells what became of each one after the change generation the last
    /// call took, and `generation` is taken as the current one. A leaf
    /// still observing is skipped, as it is visited whole anyway.
    pub(crate) fn absorb(
        &mut self,
        generation: u64,
        moved: impl Fn(usize, u64, &LeafControl) -> Moved,
    ) {
        let since = std::mem::replace(&mut self.absorbed, generation);
        for slot in 0..self.leaves.len() {
            if self.observing.contains(slot) {
                continue;
            }
            match moved(slot, since, &self.leaves[slot]) {
                Moved::Nothing => {}
                Moved::Cap => {
                    self.commanding.set(slot, true);
                }
                Moved::Server => self.touch(slot),
            }
        }
    }

    /// Observes one delivered reading for `slot` (see
    /// [`LeafControl::observe`]), which may be any reading at all.
    pub(crate) fn observe(
        &mut self,
        slot: usize,
        snap: &SensorSnapshot,
        model: ServerPowerModel,
    ) -> SampleFate {
        self.touch(slot);
        self.leaves[slot].observe(snap, model)
    }

    /// A delivery of every server's current reading, which `read(slot)`
    /// gives with the server's envelope. Only the leaves in `observing`
    /// observe theirs, and each one its reading saturates leaves the set;
    /// observing would change the rest in nothing but the fresh flag,
    /// which `swept` records for all of them at once.
    pub(crate) fn sweep<'a>(
        &mut self,
        read: impl Fn(usize) -> (&'a SensorSnapshot, ServerPowerModel),
    ) {
        for w in 0..self.observing.0.len() {
            for slot in slots_of(w, self.observing.0[w]) {
                let (snap, model) = read(slot);
                let leaf = &mut self.leaves[slot];
                let fate = leaf.observe(snap, model);
                if leaf.saturated_by(snap, fate) {
                    self.observing.set(slot, false);
                }
            }
        }
        self.swept = true;
    }

    /// The record in `slot`.
    pub(crate) fn leaf(&self, slot: usize) -> &LeafControl {
        &self.leaves[slot]
    }

    /// The record in `slot`, mutably.
    pub(crate) fn leaf_mut(&mut self, slot: usize) -> &mut LeafControl {
        &mut self.leaves[slot]
    }

    /// Round boundary: ages one round each leaf this round visits, keeping
    /// the fail-safe count, and hands it to `visit` (where the owner
    /// refreshes its demand). The round visits the dirty leaves — every
    /// leaf when no sweep ran since the last aging, as then none is known
    /// fresh. A leaf it skips was fresh at its last aging and swept since,
    /// so aging keeps it fresh, and its demand is the same estimate.
    pub(crate) fn age(&mut self, mut visit: impl FnMut(usize, &mut LeafControl)) {
        if !self.swept {
            self.dirty.reset(self.leaves.len(), true);
        }
        for w in 0..self.dirty.0.len() {
            for slot in slots_of(w, self.dirty.0[w]) {
                let leaf = &mut self.leaves[slot];
                leaf.fresh |= self.swept && !self.observing.contains(slot);
                self.stale -= usize::from(leaf.stale);
                leaf.age();
                self.stale += usize::from(leaf.stale);
                if leaf.estimator.is_empty() {
                    // Cleared on entering fail-safe: no longer saturated.
                    self.observing.set(slot, true);
                }
                visit(slot, leaf);
            }
        }
        self.swept = false;
    }

    /// The slots this round visits, ascending: between
    /// [`LeafTable::age`] and [`LeafTable::enforce`], the ones `age` did.
    pub(crate) fn visiting(&self) -> impl Iterator<Item = usize> + '_ {
        self.dirty.iter()
    }

    /// Hands `command` each leaf this round commands — every leaf when
    /// `all`, as when a budget moved — then sorts it by what the next
    /// round must do: visit it whole, only command it (its inputs hold
    /// but its cap moved), or skip it. Returns how many leaves it
    /// commanded.
    pub(crate) fn enforce(
        &mut self,
        all: bool,
        mut command: impl FnMut(usize, &mut LeafControl),
    ) -> usize {
        let mut commanded = 0;
        for w in 0..self.dirty.0.len() {
            let word = if all {
                u64::MAX >> (64 - (self.leaves.len() - w * 64).min(64))
            } else {
                self.dirty.0[w] | self.commanding.0[w]
            };
            for slot in slots_of(w, word) {
                let leaf = &mut self.leaves[slot];
                command(slot, leaf);
                let quiet = leaf.stale_rounds == 0 && !self.observing.contains(slot);
                self.dirty.set(slot, !quiet);
                self.commanding.set(slot, quiet && !leaf.fixed);
                commanded += 1;
            }
        }
        commanded
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
    fn demand(leaf: &mut LeafControl) -> Watts {
        leaf.refresh_demand(model(), || panic!("fell through to the live sensor"))
    }

    /// The cap commanded for `budgets`, with no live sensor to fall back on.
    fn cap<const N: usize>(
        leaf: &mut LeafControl,
        eff: f64,
        budgets: [(usize, Watts); N],
    ) -> Option<Watts> {
        let live = || panic!("fell through to the live sensor");
        leaf.command(model(), Ratio::new(eff), budgets.into_iter(), live)
    }

    #[test]
    fn ladder_holds_then_fails_safe_then_recovers() {
        let mut leaf = LeafControl::default();
        for _ in 0..8 {
            assert_eq!(leaf.observe(&reading(420.0), model()), SampleFate::Accepted);
        }
        // Fresh, then silence: stale-hold keeps the last estimate for
        // STALE_AFTER_ROUNDS − 1 rounds…
        for _ in 0..STALE_AFTER_ROUNDS {
            leaf.age();
            assert!(!leaf.stale);
            assert_eq!(demand(&mut leaf), Watts::new(420.0));
        }
        // …then fail-safe: cap_min demand, estimator cleared, cap forced
        // without consulting budgets or sensors.
        leaf.age();
        assert!(leaf.stale && leaf.estimator.is_empty());
        assert_eq!(demand(&mut leaf), model().cap_min());
        assert_eq!(cap(&mut leaf, 0.94, []), Some(model().cap_min() * 0.94));

        // The first plausible reading recovers at the next round boundary,
        // the demand rebuilt from post-outage samples only, and the PI
        // step resumes from the forced cap: +50 W AC of headroom.
        leaf.observe(&reading(300.0), model());
        leaf.age();
        assert!(!leaf.stale);
        assert_eq!(demand(&mut leaf), Watts::new(300.0));
        let stepped = cap(&mut leaf, 0.94, [(0, Watts::new(350.0))]);
        assert_eq!(stepped, Some((model().cap_min() + Watts::new(50.0)) * 0.94));
    }

    #[test]
    fn implausible_reading_counts_as_missing() {
        let mut leaf = LeafControl::default();
        leaf.observe(&reading(420.0), model());
        leaf.age();
        assert_eq!(leaf.stale_rounds, 0);
        // 10 kW from a 490 W server: discarded, the held reading untouched.
        let fate = leaf.observe(&reading(10_000.0), model());
        assert_eq!(fate, SampleFate::RejectedImplausible);
        assert_eq!(leaf.delivered, Some(reading(420.0)));
        leaf.age();
        assert_eq!(leaf.stale_rounds, 1, "garbage must degrade like silence");
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
        let sensed = leaf.refresh_demand(model(), || Watts::new(333.0));
        assert_eq!(sensed, Watts::new(333.0));
        assert_eq!(cap(&mut leaf, 1.0, []), None);
        // A rack's own sensor feeds the estimate but is never held.
        leaf.observe_local(&reading(420.0));
        assert_eq!(leaf.delivered, None);
        assert_eq!(demand(&mut leaf), Watts::new(420.0));
        let budget = [(0, Watts::new(400.0))].into_iter();
        let stepped = leaf.command(model(), Ratio::ONE, budget, || reading(420.0));
        assert_eq!(stepped, Some(Watts::new(470.0)));
    }

    #[test]
    fn table_counts_stale_leaves_and_moves_records_with_their_server() {
        let mut table = LeafTable::default();
        table.fit(1, [ServerId(3), ServerId(7)]);
        table.observe(0, &reading(420.0), model());
        for _ in 0..STALE_AFTER_ROUNDS {
            table.age(|_, _| {});
        }
        assert_eq!(table.stale_count(), 1);
        assert_eq!(table.stale_ids().collect::<Vec<_>>(), [ServerId(7)]);
        // The same key is the same layout, whatever ids come with it.
        table.fit(1, []);
        assert_eq!(table.stale_ids().collect::<Vec<_>>(), [ServerId(7)]);
        // A server joins ahead of both: records follow their ids.
        table.fit(2, [ServerId(1), ServerId(3), ServerId(7)]);
        assert_eq!(table.leaf(1).delivered, Some(reading(420.0)));
        assert_eq!(table.stale_count(), 1);
        assert_eq!(table.stale_ids().collect::<Vec<_>>(), [ServerId(7)]);
    }

    /// Re-laying the table after a sweep marks fresh exactly the records
    /// the sweep skipped: a newcomer that takes a settled leaf's slot has
    /// read nothing, so its ladder starts at the next aging.
    #[test]
    fn a_newcomer_after_a_sweep_is_not_fresh() {
        let mut table = LeafTable::default();
        table.fit(1, (1..=4).map(ServerId));
        let snap = reading(400.0);
        for _ in 0..crate::estimator::DEFAULT_WINDOW {
            table.sweep(|_| (&snap, model()));
        }
        table.fit(2, (0..=4).map(ServerId));
        assert!(!table.leaf(0).fresh);
        assert!((1..=4).all(|slot| table.leaf(slot).fresh));
        table.age(|_, _| {});
        assert_eq!(table.leaf(0).stale_rounds, 1);
        assert!((1..=4).all(|slot| table.leaf(slot).stale_rounds == 0));
    }

    /// Observing the reading that saturates a leaf again is the identity,
    /// bar the fresh flag it sets.
    #[test]
    fn a_saturating_reading_observed_again_changes_only_freshness() {
        let mut leaf = LeafControl::default();
        let snap = SensorSnapshot { throttle: Ratio::new(0.2), ..reading(380.0) };
        let mut saturated_after = None;
        for n in 1..=20 {
            let fate = leaf.observe(&snap, model());
            if leaf.saturated_by(&snap, fate) && saturated_after.is_none() {
                saturated_after = Some(n);
            }
        }
        assert_eq!(saturated_after, Some(crate::estimator::DEFAULT_WINDOW));
        leaf.fresh = false;
        let before = format!("{leaf:?}");
        assert_eq!(leaf.observe(&snap, model()), SampleFate::Accepted);
        assert!(std::mem::take(&mut leaf.fresh));
        assert_eq!(format!("{leaf:?}"), before);

        // A rejected reading never saturates, however often it repeats.
        let dark = reading(0.0);
        for _ in 0..20 {
            let fate = leaf.observe(&dark, model());
            assert!(!leaf.saturated_by(&dark, fate));
        }
    }

    /// A command that returned the cap it found returns it again on the
    /// same pairs, leaving the leaf as it was; one that moved it does not
    /// count as settled.
    #[test]
    fn a_fixed_point_command_repeats_itself() {
        let settle = |budget: f64, rounds: usize| {
            let mut leaf = LeafControl::default();
            leaf.observe(&reading(400.0), model());
            leaf.age();
            let caps: Vec<_> = (0..rounds)
                .map(|_| cap(&mut leaf, 0.94, [(0, Watts::new(budget))]))
                .collect();
            (leaf, caps)
        };
        // Saturated high (uncapped), saturated low, and exactly on budget.
        for (budget, rounds) in [(480.0, 2), (100.0, 4), (400.0, 2)] {
            let (mut leaf, caps) = settle(budget, rounds);
            assert!(leaf.fixed, "budget {budget}: {caps:?}");
            let before = format!("{leaf:?}");
            assert_eq!(cap(&mut leaf, 0.94, [(0, Watts::new(budget))]), caps[rounds - 1]);
            assert_eq!(format!("{leaf:?}"), before, "budget {budget}");
        }
        // The first command builds the controller, so it never counts as
        // one; a cap still integrating does not either.
        assert!(!settle(480.0, 1).0.fixed);
        assert!(!settle(380.0, 3).0.fixed);
        // Nothing budgeted keeps the cap: trivially a fixed point.
        let (mut leaf, _) = settle(380.0, 3);
        assert_eq!(cap(&mut leaf, 0.94, []), None);
        assert!(leaf.fixed);
    }

    /// The table against a plain vector of records put through every
    /// transition on every leaf, as the plane did before it skipped settled
    /// leaves: a seeded mix of steady, changing, dropped, implausible and
    /// corrupted readings and of moving budgets, then a blackout long
    /// enough to clear settled leaves' estimators, leaves every record
    /// bit-identical, and once readings and budgets hold still the table
    /// visits nothing.
    #[test]
    fn skipping_settled_leaves_changes_no_bit() {
        const N: usize = 70; // two bitset words
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        let mut table = LeafTable::default();
        table.fit(1, (0..N as u32).map(ServerId));
        let mut plain: Vec<LeafControl> = (0..N).map(|_| LeafControl::default()).collect();
        let mut readings: Vec<SensorSnapshot> = (0..N).map(|i| reading(300.0 + i as f64)).collect();
        let mut budgets = vec![Watts::new(480.0); N];
        // Per slot, the generation its reading last changed at.
        let (mut changed, mut generation) = (vec![1u64; N], 1u64);
        let mut visited = Vec::new();
        for second in 0..560u64 {
            let churn = second < 240;
            let mut change = |slot: usize, snap: SensorSnapshot, readings: &mut Vec<_>| {
                generation += 1;
                changed[slot] = generation;
                readings[slot] = snap;
            };
            if churn && draw(3) == 0 {
                let slot = draw(N as u64) as usize;
                let watts = [0.0, 250.0, 330.0, 410.0][draw(4) as usize];
                let throttle = Ratio::new([0.0, 0.1, 0.3][draw(3) as usize]);
                change(slot, SensorSnapshot { throttle, ..reading(watts) }, &mut readings);
            }
            if second == 240 {
                // Quiet from here: every server back to a plausible steady reading.
                for slot in 0..N {
                    change(slot, reading(300.0 + slot as f64), &mut readings);
                }
            }
            let moved = |slot: usize, since: u64, leaf: &LeafControl| {
                if changed[slot] > since && !leaf.holds(&readings[slot]) {
                    Moved::Server
                } else {
                    Moved::Nothing
                }
            };
            let blackout = (320..352).contains(&second);
            match if churn { draw(10) } else if blackout { 9 } else { 0 } {
                // A delivery of every reading.
                0..=7 => {
                    table.absorb(generation, moved);
                    table.sweep(|slot| (&readings[slot], model()));
                    for (leaf, snap) in plain.iter_mut().zip(&readings) {
                        leaf.observe(snap, model());
                    }
                }
                // Faulted delivery: some readings dropped, some corrupted.
                8 => {
                    for slot in 0..N {
                        let snap = match draw(16) {
                            0 => readings[slot].scaled(25.0),
                            1 => readings[slot].scaled(0.9),
                            2 => readings[slot].clone(),
                            _ => continue,
                        };
                        table.observe(slot, &snap, model());
                        plain[slot].observe(&snap, model());
                    }
                }
                // Nothing delivered.
                _ => {}
            }
            if second % 8 != 7 {
                continue;
            }
            let budgets_moved = second == 247 || (churn && draw(3) == 0);
            if budgets_moved {
                for budget in &mut budgets {
                    let choice = if churn { draw(3) } else { 0 };
                    *budget = Watts::new([480.0, 330.0, 150.0][choice as usize]);
                }
            }
            let live = |slot: usize| readings[slot].total_ac;
            table.absorb(generation, moved);
            table.age(|slot, leaf| {
                leaf.refresh_demand(model(), || live(slot));
            });
            for (slot, leaf) in plain.iter_mut().enumerate() {
                leaf.age();
                leaf.refresh_demand(model(), || live(slot));
            }
            let command = |slot: usize, leaf: &mut LeafControl| {
                let budget = std::iter::once((0, budgets[slot]));
                leaf.command(model(), Ratio::new(0.94), budget, || readings[slot].clone());
            };
            visited.push(table.enforce(budgets_moved, command));
            plain.iter_mut().enumerate().for_each(|(slot, leaf)| command(slot, leaf));
            for (slot, leaf) in plain.iter().enumerate() {
                assert_eq!(
                    format!("{:?}", table.leaf(slot)),
                    format!("{leaf:?}"),
                    "slot {slot} after second {second}"
                );
            }
            let stale = plain.iter().filter(|leaf| leaf.stale).count();
            assert_eq!(table.stale_count(), stale);
        }
        assert!(visited[..30].iter().any(|&v| v > 0 && v < N), "{visited:?}");
        assert_eq!(visited[visited.len() - 20..], [0; 20], "{visited:?}");
    }
}
