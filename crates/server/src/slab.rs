//! Struct-of-arrays server storage for fleet-scale stepping.
//!
//! [`ServerSlab`] holds the state of every server in a farm as parallel
//! lanes (one `Vec` per field) instead of a map of [`Server`] structs.
//! Two things fall out of that layout:
//!
//! - **Cache-friendly sweeps.** Stepping touches `achieved_ac`,
//!   `offered_ac`, and the node-manager lane contiguously instead of
//!   chasing one heap allocation per server.
//! - **Event-driven stepping.** Two bitmaps track per-server state: an
//!   *active* bit (the server has not yet reached the exact `f64` fixed
//!   point of its first-order settling filter) and a *snap-ok* bit (the
//!   cached [`SensorSnapshot`] matches the current state). A quiescent
//!   server — unchanged demand, cap, supply split, and power state —
//!   costs zero arithmetic per tick; only its bitmap word is scanned.
//!   Skipping is *bitwise exact*: the active bit is cleared only when
//!   `approach(cur, target, dt)` returns `cur` bit-for-bit, and any
//!   mutation that could move the target sets the bit again. A cap write
//!   sets only the active bit: a reading depends on the power a cap lets
//!   the server reach, never on the cap, and the step that moves that
//!   power clears the snap-ok bit itself.
//!
//! The per-server arithmetic is shared with [`Server`] via
//! `server::physics`, which is what makes the slab path provably
//! bitwise-identical to the reference path rather than merely close.
//!
//! Accessor ergonomics are preserved through the [`ServerRef`] /
//! [`ServerMut`] views, which mirror the [`Server`] method surface.
//! Every mutator on [`ServerMut`] compares the new value against the old
//! one and dirties the server only on a real change — this is what lets a
//! converged fleet stay quiescent while the control plane re-commands the
//! same caps round after round.

use capmaestro_units::{Ratio, Seconds, Watts};

use crate::node_manager::NodeManager;
use crate::psu::PsuBank;
use crate::server::{physics, SensorSnapshot, Server, ServerConfig};

const WORD_BITS: usize = 64;

fn set_bit(words: &mut [u64], i: usize) {
    words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
}

fn clear_bit(words: &mut [u64], i: usize) {
    words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
}

fn get_bit(words: &[u64], i: usize) -> bool {
    words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
}

/// The valid-lane mask for a word covering `count` populated lanes.
fn word_mask(count: usize) -> u64 {
    if count >= WORD_BITS {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// Struct-of-arrays storage for a fleet of servers (see the module docs).
///
/// Index-addressed: the owner (the farm) maps stable server identities to
/// slot indices. Slots keep their index for the lifetime of the slab
/// except across [`ServerSlab::insert`], which shifts later slots up by
/// one (construction-time only).
#[derive(Debug, Clone)]
pub struct ServerSlab {
    configs: Vec<ServerConfig>,
    banks: Vec<PsuBank>,
    node_managers: Vec<NodeManager>,
    offered_ac: Vec<Watts>,
    achieved_ac: Vec<Watts>,
    powered: Vec<bool>,
    /// Bit i set ⇔ server i may still move on the next step.
    active: Vec<u64>,
    /// Bit i set ⇔ `snaps[i]` reflects the current server state.
    snap_ok: Vec<u64>,
    /// Cached sensor readings, refreshed lazily (see [`ServerSlab::refresh`]).
    snaps: Vec<SensorSnapshot>,
    /// Generation at which each cached snapshot last changed.
    changed_gen: Vec<u64>,
    /// Refresh generation that first sees each server's last change of
    /// shape: its configuration or its supply bank.
    reshaped_gen: Vec<u64>,
    /// Monotone refresh generation (bumped by [`ServerSlab::refresh`]).
    generation: u64,
    /// Bumped whenever slots are added or shifted.
    layout_gen: u64,
    /// The `dt` of the last step; a different `dt` re-activates everything
    /// (the fixed point of the settling filter is only stable for a
    /// constant `dt`).
    last_dt: f64,
}

impl Default for ServerSlab {
    fn default() -> Self {
        ServerSlab::new()
    }
}

impl ServerSlab {
    /// Creates an empty slab.
    pub fn new() -> Self {
        ServerSlab {
            configs: Vec::new(),
            banks: Vec::new(),
            node_managers: Vec::new(),
            offered_ac: Vec::new(),
            achieved_ac: Vec::new(),
            powered: Vec::new(),
            active: Vec::new(),
            snap_ok: Vec::new(),
            snaps: Vec::new(),
            changed_gen: Vec::new(),
            reshaped_gen: Vec::new(),
            generation: 1,
            layout_gen: 1,
            last_dt: f64::NAN,
        }
    }

    /// Number of servers stored.
    pub fn len(&self) -> usize {
        self.offered_ac.len()
    }

    /// Whether the slab is empty.
    pub fn is_empty(&self) -> bool {
        self.offered_ac.is_empty()
    }

    /// The current refresh generation (see [`ServerSlab::changed_since`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The layout generation, bumped whenever slot indices shift.
    pub fn layout_generation(&self) -> u64 {
        self.layout_gen
    }

    /// Whether slot `idx`'s cached snapshot changed after generation `gen`.
    pub fn changed_since(&self, idx: usize, gen: u64) -> bool {
        self.changed_gen[idx] > gen
    }

    /// Whether slot `idx`'s configuration or supply bank may have changed
    /// after refresh generation `gen` — a change its cached snapshot need
    /// not show (a dark server reads zero whatever its bank).
    pub fn reshaped_since(&self, idx: usize, gen: u64) -> bool {
        self.reshaped_gen[idx] > gen
    }

    /// The cached snapshot of slot `idx`. Only meaningful after a refresh
    /// pass; use [`ServerRef::sense`] for an always-correct reading.
    pub fn snapshot(&self, idx: usize) -> &SensorSnapshot {
        &self.snaps[idx]
    }

    /// Inserts a server at `pos`, shifting later slots up by one.
    /// Construction-time only: cost is O(n) and every cached snapshot is
    /// invalidated.
    ///
    /// # Panics
    ///
    /// Panics if `pos > len()`.
    pub fn insert(&mut self, pos: usize, server: Server) {
        let (config, bank, node_manager, offered, achieved, powered) =
            server.into_parts();
        self.configs.insert(pos, config);
        self.banks.insert(pos, bank);
        self.node_managers.insert(pos, node_manager);
        self.offered_ac.insert(pos, offered);
        self.achieved_ac.insert(pos, achieved);
        self.powered.insert(pos, powered);
        self.snaps.insert(pos, SensorSnapshot::empty());
        self.changed_gen.insert(pos, 0);
        self.reshaped_gen.insert(pos, 0);
        // Later bits shifted: rebuild the bitmaps conservatively.
        let words = self.len().div_ceil(WORD_BITS);
        self.active.clear();
        self.active.resize(words, 0);
        self.snap_ok.clear();
        self.snap_ok.resize(words, 0);
        self.mark_all_active();
        self.changed_gen.iter_mut().for_each(|g| *g = 0);
        self.layout_gen += 1;
    }

    /// Replaces the server at `pos`, keeping slot indices stable.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn replace(&mut self, pos: usize, server: Server) {
        let (config, bank, node_manager, offered, achieved, powered) =
            server.into_parts();
        self.configs[pos] = config;
        self.banks[pos] = bank;
        self.node_managers[pos] = node_manager;
        self.offered_ac[pos] = offered;
        self.achieved_ac[pos] = achieved;
        self.powered[pos] = powered;
        self.reshape(pos);
    }

    /// Borrows slot `idx` as a read view.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn view(&self, idx: usize) -> ServerRef<'_> {
        assert!(idx < self.len(), "slab slot {idx} out of range");
        ServerRef { slab: self, idx }
    }

    /// Borrows slot `idx` as a mutable view.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn view_mut(&mut self, idx: usize) -> ServerMut<'_> {
        assert!(idx < self.len(), "slab slot {idx} out of range");
        ServerMut { slab: self, idx }
    }

    /// Steps every active server by `dt`. A server whose achieved power lands bit-identical
    /// to its previous value has reached the settling filter's fixed point
    /// and is deactivated; one whose power moved has its cached snapshot
    /// invalidated. A `dt` different from the previous step re-activates
    /// every server first (fixed points are only stable under a constant
    /// `dt`).
    pub fn step(&mut self, dt: Seconds) {
        self.begin_step(dt);
        let n = self.len();
        for wi in 0..self.active.len() {
            let lane_base = wi * WORD_BITS;
            let valid = word_mask(n - lane_base.min(n));
            let mut pending = self.active[wi] & valid;
            while pending != 0 {
                let b = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let i = lane_base + b;
                let cur = self.achieved_ac[i];
                let next = if !self.powered[i] {
                    Watts::ZERO
                } else {
                    let target = physics::target_ac(
                        self.configs[i].model(),
                        &self.node_managers[i],
                        &self.banks[i],
                        self.offered_ac[i],
                    );
                    self.node_managers[i].approach(cur, target, dt)
                };
                if next.as_f64().to_bits() == cur.as_f64().to_bits() {
                    self.active[wi] &= !(1u64 << b);
                } else {
                    self.achieved_ac[i] = next;
                    self.snap_ok[wi] &= !(1u64 << b);
                }
            }
        }
    }

    /// Recomputes every stale cached snapshot in place (reusing each
    /// snapshot's `supply_ac` allocation) and stamps it with a fresh
    /// refresh generation.
    pub fn refresh(&mut self) {
        self.generation += 1;
        let n = self.len();
        for wi in 0..self.snap_ok.len() {
            let lane_base = wi * WORD_BITS;
            let valid = word_mask(n - lane_base.min(n));
            let mut stale = !self.snap_ok[wi] & valid;
            self.snap_ok[wi] |= stale;
            while stale != 0 {
                let b = stale.trailing_zeros() as usize;
                stale &= stale - 1;
                let i = lane_base + b;
                physics::sense_into(
                    self.configs[i].model(),
                    &self.banks[i],
                    self.offered_ac[i],
                    self.achieved_ac[i],
                    &mut self.snaps[i],
                );
                self.changed_gen[i] = self.generation;
            }
        }
    }

    /// A `dt` different from the previous step re-activates every server.
    fn begin_step(&mut self, dt: Seconds) {
        let dt_f = dt.as_f64();
        if self.last_dt.to_bits() != dt_f.to_bits() {
            self.last_dt = dt_f;
            self.mark_all_active();
        }
    }

    fn mark_all_active(&mut self) {
        let n = self.len();
        for (wi, word) in self.active.iter_mut().enumerate() {
            *word = word_mask(n - (wi * WORD_BITS).min(n));
        }
    }

    /// Marks slot `i` as needing a step and invalidates its cached
    /// snapshot.
    fn touch(&mut self, i: usize) {
        set_bit(&mut self.active, i);
        clear_bit(&mut self.snap_ok, i);
    }

    /// A cap write on slot `i`: the settling target may move, so the slot
    /// steps again, but its cached snapshot holds — sensing reads no cap,
    /// and a step that moves achieved power invalidates it there. Stamped
    /// with the generation the next refresh takes, so a reader catching
    /// up still sees the slot changed.
    fn recap(&mut self, i: usize) {
        set_bit(&mut self.active, i);
        self.changed_gen[i] = self.generation + 1;
    }

    /// [`ServerSlab::touch`] for a change of shape, stamped with the
    /// generation the next refresh takes.
    fn reshape(&mut self, i: usize) {
        self.touch(i);
        self.reshaped_gen[i] = self.generation + 1;
    }

    fn set_offered_demand(&mut self, i: usize, demand: Watts) {
        let v = physics::clamp_demand(self.configs[i].model(), demand);
        if v.as_f64().to_bits() != self.offered_ac[i].as_f64().to_bits() {
            self.offered_ac[i] = v;
            self.touch(i);
        }
    }

    fn set_utilization(&mut self, i: usize, u: Ratio) {
        let v = self.configs[i].model().power_at_utilization(u);
        if v.as_f64().to_bits() != self.offered_ac[i].as_f64().to_bits() {
            self.offered_ac[i] = v;
            self.touch(i);
        }
    }

    fn set_dc_cap(&mut self, i: usize, cap: Watts) {
        let cur = self.node_managers[i].dc_cap();
        if cur.map(|w| w.as_f64().to_bits()) != Some(cap.as_f64().to_bits()) {
            self.node_managers[i].set_dc_cap(cap);
            self.recap(i);
        }
    }

    fn clear_dc_cap(&mut self, i: usize) {
        if self.node_managers[i].dc_cap().is_some() {
            self.node_managers[i].clear_cap();
            self.recap(i);
        }
    }

    fn set_powered(&mut self, i: usize, powered: bool) {
        let old_powered = self.powered[i];
        let old_achieved = self.achieved_ac[i];
        self.powered[i] = powered;
        if !powered {
            self.achieved_ac[i] = Watts::ZERO;
        } else if self.achieved_ac[i] < self.configs[i].model().idle() {
            self.achieved_ac[i] = self.configs[i].model().idle();
        }
        let changed = old_powered != powered
            || old_achieved.as_f64().to_bits()
                != self.achieved_ac[i].as_f64().to_bits();
        if changed {
            self.touch(i);
        }
    }

    fn settle(&mut self, i: usize) {
        let target = if self.powered[i] {
            physics::target_ac(
                self.configs[i].model(),
                &self.node_managers[i],
                &self.banks[i],
                self.offered_ac[i],
            )
        } else {
            Watts::ZERO
        };
        if target.as_f64().to_bits() != self.achieved_ac[i].as_f64().to_bits() {
            self.achieved_ac[i] = target;
            self.touch(i);
        }
    }

    fn bank_mut(&mut self, i: usize) -> &mut PsuBank {
        // Conservative: any bank mutation may move the target and changes
        // the sensed per-supply loads.
        self.reshape(i);
        &mut self.banks[i]
    }
}

/// A read-only view of one slab slot, mirroring the [`Server`] accessor
/// surface. `Copy`, so it can be passed around like `&Server` was.
#[derive(Debug, Clone, Copy)]
pub struct ServerRef<'a> {
    slab: &'a ServerSlab,
    idx: usize,
}

impl<'a> ServerRef<'a> {
    /// The static configuration.
    pub fn config(self) -> &'a ServerConfig {
        &self.slab.configs[self.idx]
    }

    /// The live PSU bank (supplies may have failed or stood by since
    /// construction).
    pub fn bank(self) -> &'a PsuBank {
        &self.slab.banks[self.idx]
    }

    /// The current offered AC demand.
    pub fn offered_demand(self) -> Watts {
        self.slab.offered_ac[self.idx]
    }

    /// The smoothed achieved AC power at the wall.
    pub fn achieved_ac(self) -> Watts {
        self.slab.achieved_ac[self.idx]
    }

    /// The commanded DC cap, if any.
    pub fn dc_cap(self) -> Option<Watts> {
        self.slab.node_managers[self.idx].dc_cap()
    }

    /// Whether the server currently has input power.
    pub fn is_powered(self) -> bool {
        self.slab.powered[self.idx]
    }

    /// The lowest AC power throttling can reach for a given offered
    /// demand (see [`Server::min_achievable_ac`]).
    pub fn min_achievable_ac(self, demand: Watts) -> Watts {
        physics::min_achievable_ac(self.config().model(), demand)
    }

    /// Reads the sensors. Returns the cached snapshot when it is current;
    /// recomputes (bitwise-identically) otherwise.
    pub fn sense(self) -> SensorSnapshot {
        if get_bit(&self.slab.snap_ok, self.idx) {
            self.slab.snaps[self.idx].clone()
        } else {
            let mut snap = SensorSnapshot::empty();
            physics::sense_into(
                self.config().model(),
                self.bank(),
                self.offered_demand(),
                self.achieved_ac(),
                &mut snap,
            );
            snap
        }
    }

    /// The power-cap throttling level (see [`Server::throttle`]).
    pub fn throttle(self) -> Ratio {
        physics::throttle(
            self.config().model(),
            self.offered_demand(),
            self.achieved_ac(),
        )
    }

    /// Achieved application performance as a fraction of uncapped
    /// performance (see [`Server::performance_fraction`]).
    pub fn performance_fraction(self) -> Ratio {
        self.config()
            .model()
            .performance_at_dynamic_ratio(self.throttle().complement())
    }
}

/// A mutable view of one slab slot, mirroring the [`Server`] mutator
/// surface. Every mutator compares against the current value and dirties
/// the slot only on a real change, so re-commanding an unchanged cap or
/// demand keeps the server quiescent.
#[derive(Debug)]
pub struct ServerMut<'a> {
    slab: &'a mut ServerSlab,
    idx: usize,
}

impl ServerMut<'_> {
    /// Reborrows as a read view.
    pub fn as_ref(&self) -> ServerRef<'_> {
        ServerRef {
            slab: self.slab,
            idx: self.idx,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.slab.configs[self.idx]
    }

    /// The live PSU bank.
    pub fn bank(&self) -> &PsuBank {
        &self.slab.banks[self.idx]
    }

    /// Mutable access to the PSU bank for failure injection.
    /// Conservatively dirties the server: any bank change may move its
    /// settling target and its sensed per-supply loads.
    pub fn bank_mut(&mut self) -> &mut PsuBank {
        self.slab.bank_mut(self.idx)
    }

    /// The current offered AC demand.
    pub fn offered_demand(&self) -> Watts {
        self.slab.offered_ac[self.idx]
    }

    /// The smoothed achieved AC power at the wall.
    pub fn achieved_ac(&self) -> Watts {
        self.slab.achieved_ac[self.idx]
    }

    /// The commanded DC cap, if any.
    pub fn dc_cap(&self) -> Option<Watts> {
        self.slab.node_managers[self.idx].dc_cap()
    }

    /// Whether the server currently has input power.
    pub fn is_powered(&self) -> bool {
        self.slab.powered[self.idx]
    }

    /// Reads the sensors (see [`ServerRef::sense`]).
    pub fn sense(&self) -> SensorSnapshot {
        self.as_ref().sense()
    }

    /// The power-cap throttling level.
    pub fn throttle(&self) -> Ratio {
        self.as_ref().throttle()
    }

    /// Achieved application performance as a fraction of uncapped
    /// performance.
    pub fn performance_fraction(&self) -> Ratio {
        self.as_ref().performance_fraction()
    }

    /// The lowest AC power throttling can reach for a given offered
    /// demand.
    pub fn min_achievable_ac(&self, demand: Watts) -> Watts {
        self.as_ref().min_achievable_ac(demand)
    }

    /// Sets the offered AC power demand, clamped into the model envelope
    /// (see [`Server::set_offered_demand`]).
    pub fn set_offered_demand(&mut self, demand: Watts) {
        self.slab.set_offered_demand(self.idx, demand);
    }

    /// Sets the offered demand from a CPU utilization via the power curve.
    pub fn set_utilization(&mut self, u: Ratio) {
        self.slab.set_utilization(self.idx, u);
    }

    /// Commands a DC power cap (see [`Server::set_dc_cap`]).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is not positive.
    pub fn set_dc_cap(&mut self, cap: Watts) {
        self.slab.set_dc_cap(self.idx, cap);
    }

    /// Removes the DC cap.
    pub fn clear_dc_cap(&mut self) {
        self.slab.clear_dc_cap(self.idx);
    }

    /// Connects or disconnects input power entirely (see
    /// [`Server::set_powered`]).
    pub fn set_powered(&mut self, powered: bool) {
        self.slab.set_powered(self.idx, powered);
    }

    /// Instantly settles the server at its target power (see
    /// [`Server::settle`]).
    pub fn settle(&mut self) {
        self.slab.settle(self.idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;

    fn slab_of(n: usize) -> ServerSlab {
        let mut slab = ServerSlab::new();
        for i in 0..n {
            let mut server = Server::new(ServerConfig::paper_default());
            server.set_offered_demand(Watts::new(200.0 + i as f64));
            slab.insert(slab.len(), server);
        }
        slab
    }

    #[test]
    fn slab_step_matches_server_step_bitwise() {
        let mut reference: Vec<Server> = (0..130)
            .map(|i| {
                let mut s = Server::new(ServerConfig::paper_default());
                s.set_offered_demand(Watts::new(180.0 + i as f64 * 2.0));
                if i % 3 == 0 {
                    s.set_dc_cap(Watts::new(190.0));
                }
                s
            })
            .collect();
        let mut slab = ServerSlab::new();
        for s in &reference {
            slab.insert(slab.len(), s.clone());
        }
        let dt = Seconds::new(1.0);
        for _ in 0..40 {
            for s in &mut reference {
                s.step(dt);
            }
            slab.step(dt);
            for (i, s) in reference.iter().enumerate() {
                assert_eq!(
                    slab.view(i).achieved_ac().as_f64().to_bits(),
                    s.sense().total_ac.as_f64().to_bits(),
                );
            }
        }
    }

    #[test]
    fn converged_servers_deactivate_and_mutations_reactivate() {
        let mut slab = slab_of(70);
        let dt = Seconds::new(1.0);
        // Step to the fixed point: every server must eventually deactivate.
        for _ in 0..200 {
            slab.step(dt);
        }
        assert!(slab.active.iter().all(|&w| w == 0), "fleet not quiescent");
        // Re-commanding identical state keeps it quiescent.
        let same = slab.view(3).offered_demand();
        slab.view_mut(3).set_offered_demand(same);
        assert!(slab.active.iter().all(|&w| w == 0));
        // A real change re-activates exactly that server.
        slab.view_mut(69).set_offered_demand(Watts::new(400.0));
        assert!(get_bit(&slab.active, 69));
        assert_eq!(slab.active.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
    }

    /// A slab stepped to its fixed point and refreshed.
    fn settled_slab(n: usize) -> ServerSlab {
        let mut slab = slab_of(n);
        for _ in 0..200 {
            slab.step(Seconds::new(1.0));
        }
        slab.refresh();
        assert!(slab.active.iter().all(|&w| w == 0), "fleet not quiescent");
        slab
    }

    /// Whether some populated slot's snapshot is stale.
    fn any_stale(slab: &ServerSlab) -> bool {
        let n = slab.len();
        slab.snap_ok
            .iter()
            .enumerate()
            .any(|(wi, &w)| !w & word_mask(n - (wi * WORD_BITS).min(n)) != 0)
    }

    #[test]
    fn a_cap_write_that_does_not_bind_re_senses_nothing() {
        let bits = |w: Watts| w.as_f64().to_bits();
        for write in [
            |s: &mut ServerMut<'_>| s.set_dc_cap(Watts::new(400.0)),
            |s: &mut ServerMut<'_>| s.clear_dc_cap(),
        ] {
            let mut slab = settled_slab(70);
            slab.view_mut(66).set_dc_cap(Watts::new(450.0));
            slab.step(Seconds::new(1.0));
            slab.refresh();
            let seen = slab.generation();
            let achieved = slab.view(66).achieved_ac();
            let before = slab.snapshot(66).clone();
            write(&mut slab.view_mut(66));
            // The slot steps again, but its snapshot stays current.
            assert!(get_bit(&slab.active, 66));
            assert!(!any_stale(&slab), "a cap write invalidated a snapshot");
            slab.refresh();
            assert_eq!(slab.snapshot(66), &before);
            // Readers catching up still see the slot changed, and only it.
            let changed: Vec<usize> = (0..slab.len())
                .filter(|&i| slab.changed_since(i, seen))
                .collect();
            assert_eq!(changed, [66]);
            slab.step(Seconds::new(1.0));
            assert_eq!(bits(slab.view(66).achieved_ac()), bits(achieved));
            assert!(
                slab.active.iter().all(|&w| w == 0),
                "the step did not settle"
            );
            assert!(!any_stale(&slab));
        }
    }

    #[test]
    fn a_cap_write_that_binds_moves_power_and_re_senses() {
        let mut slab = settled_slab(70);
        let seen = slab.generation();
        let achieved = slab.view(60).achieved_ac();
        // 260 W offered; a 200 W DC cap is ≈ 213 W at the wall.
        slab.view_mut(60).set_dc_cap(Watts::new(200.0));
        assert!(!any_stale(&slab));
        slab.step(Seconds::new(1.0));
        let throttled = slab.view(60).achieved_ac();
        assert!(throttled < achieved, "{throttled} !< {achieved}");
        assert!(
            any_stale(&slab),
            "the step that moved power kept the snapshot"
        );
        slab.refresh();
        assert!(slab.changed_since(60, seen));
        assert_eq!(
            slab.snapshot(60).total_ac.as_f64().to_bits(),
            throttled.as_f64().to_bits()
        );
        assert_eq!(slab.snapshot(60), &slab.view(60).sense());
    }

    #[test]
    fn dt_change_reactivates_everything() {
        let mut slab = slab_of(10);
        for _ in 0..200 {
            slab.step(Seconds::new(1.0));
        }
        assert!(slab.active.iter().all(|&w| w == 0));
        slab.begin_step(Seconds::new(0.5));
        assert_eq!(
            slab.active.iter().map(|w| w.count_ones()).sum::<u32>() as usize,
            slab.len()
        );
    }

    #[test]
    fn cached_sense_matches_fresh_sense() {
        let mut slab = slab_of(67);
        let dt = Seconds::new(1.0);
        slab.step(dt);
        slab.refresh();
        for i in 0..slab.len() {
            let cached = slab.view(i).sense();
            // Recompute from scratch through the Server reference path.
            let mut server = Server::new(slab.view(i).config().clone());
            server.set_offered_demand(slab.view(i).offered_demand());
            server.settle();
            // Only compare structure here; exact equality is covered by
            // the step-identity test plus shared sense arithmetic.
            assert_eq!(cached.supply_ac.len(), server.sense().supply_ac.len());
            assert_eq!(
                cached.total_ac.as_f64().to_bits(),
                slab.view(i).achieved_ac().as_f64().to_bits()
            );
        }
    }
}
