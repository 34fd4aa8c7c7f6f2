//! The time-stepped simulation engine.
//!
//! Advances the world at 1 Hz: servers draw power with node-manager
//! settling, the control plane senses every second and re-budgets every
//! control period, breaker thermal models integrate stress, and scripted
//! [`Event`]s inject failures or workload changes. The figure-regeneration
//! harnesses step through [`Engine::run`], which records every observable
//! series into a [`Trace`]; the serving path steps through
//! [`Engine::step`], which records only the event logs.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use capmaestro_core::obs::{names, PhaseTimer};
use capmaestro_core::oplog::ReconcilePlan;
use capmaestro_core::plane::{ControlPlane, Farm, RoundReport};
use capmaestro_server::{SensorSnapshot, ServerRef, ServerSlab};
use capmaestro_topology::{BreakerSim, BreakerState, FeedId, NodeId, Phase, ServerId, SupplyIndex, Topology};
use capmaestro_units::{Seconds, Watts};

use crate::faults::{ChaosAction, ChaosPlan, FaultKind, FaultLayer, FlapSpec};
use crate::scenarios::Rig;

/// Engine timing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Seconds between control rounds (8 in the paper).
    pub control_period_s: u64,
    /// Whether the control plane runs at all. Disabling it simulates a
    /// data center *without* power capping — the baseline whose breakers
    /// trip during failures (the counterfactual behind Fig. 9's
    /// no-capping bar).
    pub control_enabled: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            control_period_s: 8,
            control_enabled: true,
        }
    }
}

/// A scripted event applied at a scheduled simulation second.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A whole power feed dies: its control trees are dropped and every
    /// supply on it fails over to the survivors.
    FailFeed(FeedId),
    /// Replace the per-tree root budgets (order matches the plane's
    /// remaining trees).
    SetRootBudgets(Vec<Watts>),
    /// Change one server's offered demand.
    SetDemand(ServerId, Watts),
    /// Change one server's priority (the job-scheduler hook of §7).
    SetPriority(ServerId, capmaestro_topology::Priority),
    /// Fail a single power supply of one server (the load shifts to its
    /// siblings; §3.1's second cause of feed imbalance).
    FailSupply(ServerId, SupplyIndex),
    /// Put a supply into (or out of) cold standby — the hot-spare mode of
    /// §3.1 \[34\].
    SetStandby(ServerId, SupplyIndex, bool),
    /// A failed feed returns to service: its control trees resume, the
    /// supplies on it are repaired, and servers that went dark power back
    /// up.
    RestoreFeed(FeedId),
    /// Inject a telemetry fault on one server's sense path (the physics
    /// is untouched — only what the control plane sees).
    InjectFault(ServerId, FaultKind),
    /// Clear any telemetry fault on one server.
    ClearFault(ServerId),
    /// Start flapping the telemetry feed: readings from every server on
    /// the power feed cycle between delivered and dropped per the spec.
    FlapTelemetry(FeedId, FlapSpec),
    /// Stop a flapping telemetry feed.
    StopFlap(FeedId),
}

/// Everything the engine recorded.
///
/// The per-series maps (`server_power`, `supply_power`, `throttle`,
/// `dc_cap`, `node_load`) hold one sample for every second stepped by
/// [`Engine::run`] / [`Engine::run_observed`], filled from batched append
/// buffers flushed when the run returns. Seconds stepped by
/// [`Engine::step`] record no series. The event logs (`trips`,
/// `lost_servers`, `stranded`) and `seconds` are live under every entry
/// point.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Total AC power per server.
    pub server_power: HashMap<ServerId, Vec<f64>>,
    /// Per-supply AC power.
    pub supply_power: HashMap<(ServerId, SupplyIndex), Vec<f64>>,
    /// Power-cap throttling level per server.
    pub throttle: HashMap<ServerId, Vec<f64>>,
    /// The DC cap each server holds (NaN before its first cap).
    pub dc_cap: HashMap<ServerId, Vec<f64>>,
    /// Load at every limited distribution node, keyed by `(feed, node)`.
    pub node_load: HashMap<(FeedId, NodeId), Vec<f64>>,
    /// Human-readable names for the recorded nodes.
    pub node_names: HashMap<(FeedId, NodeId), String>,
    /// Breaker trip events: `(second, feed, node name)`.
    pub trips: Vec<(u64, FeedId, String)>,
    /// Servers that lost all input power: `(second, server)`.
    pub lost_servers: Vec<(u64, ServerId)>,
    /// Stranded power reclaimed per control round: `(second, watts)`.
    pub stranded: Vec<(u64, f64)>,
    /// Seconds simulated.
    pub seconds: u64,
}

impl Trace {
    /// The recorded series for a node found by device name (first match
    /// across feeds).
    pub fn node_series(&self, name: &str) -> Option<&[f64]> {
        let key = self
            .node_names
            .iter()
            .find(|(_, n)| n.as_str() == name)?
            .0;
        self.node_load.get(key).map(|v| v.as_slice())
    }

    /// The recorded series for a node found by feed and device name.
    pub fn node_series_on(&self, feed: FeedId, name: &str) -> Option<&[f64]> {
        let key = self
            .node_names
            .iter()
            .find(|((f, _), n)| *f == feed && n.as_str() == name)?
            .0;
        self.node_load.get(key).map(|v| v.as_slice())
    }

    /// Total energy the fleet consumed over the trace, in watt-hours.
    pub fn total_energy_wh(&self) -> f64 {
        self.server_power
            .values()
            .map(|s| s.iter().sum::<f64>() / 3600.0)
            .sum()
    }

    /// Mean of the last `n` samples of a series. The window is clamped
    /// to the series length, and a degenerate window (empty series *or*
    /// `n == 0`) yields `0.0` rather than the `0.0 / 0` NaN a naive
    /// division would produce.
    pub fn tail_mean(series: &[f64], n: usize) -> f64 {
        let n = n.min(series.len());
        if n == 0 {
            return 0.0;
        }
        series[series.len() - n..].iter().sum::<f64>() / n as f64
    }
}

/// Marks a root key (one with no key above it) in [`LoadIndex::parent`].
const NO_KEY: u32 = u32::MAX;

/// The per-key breaker loads, kept current from one second to the next.
///
/// The power topology and the farm's slots never change under an engine,
/// so the layout is built once: each outlet's server slot and supply, the
/// loaded `(feed, node, phase)` keys, the key above each key, and each
/// key's contributing outlets. Index lists are flat CSR arrays (one
/// offsets array, one index array), not a `Vec` per key.
///
/// The loads themselves are incremental. A fill visits only the farm slots
/// the slab re-sensed since the last fill (its `changed_gen` lane against
/// the refresh generation), value-compares their outlets bit for bit, and
/// re-sums only the keys above an outlet that moved. Every key sums its
/// contributors in outlet order, so the loads stay bitwise identical to a
/// from-scratch rebuild. The first fill is the same walk: it starts from
/// all-zero loads with every slot unseen.
#[derive(Debug)]
struct LoadIndex {
    /// Per outlet, feed-major in outlet order: the farm slot of its server
    /// (`None` when the farm has no such server) and the supply index.
    outlets: Vec<(Option<u32>, u8)>,
    /// Per outlet: its own key, the first on its path to the root.
    outlet_key: Vec<u32>,
    /// Farm slot `s`'s outlets are `slot_outlets[row(&slot_offsets, s)]`,
    /// in outlet order.
    slot_offsets: Vec<u32>,
    slot_outlets: Vec<u32>,
    /// Key → slot in the load vector, assigned in first-touch order over
    /// the outlets.
    slots: HashMap<(FeedId, NodeId, Phase), usize>,
    /// Per key: the key of the node above it on the same feed and phase
    /// ([`NO_KEY`] at a root).
    parent: Vec<u32>,
    /// Key `k`'s contributing outlets are
    /// `contributors[row(&contributor_offsets, k)]`, in outlet order.
    contributor_offsets: Vec<u32>,
    contributors: Vec<u32>,
    /// Per outlet: its supply's load at the last fill.
    outlet_loads: Vec<Watts>,
    /// Per key: the load at the last fill.
    loads: Vec<Watts>,
    /// Keys awaiting a re-sum, each once (flagged in `stale`); its capacity
    /// is the key count, so a fill that moves every key allocates nothing.
    resum: Vec<u32>,
    stale: Vec<bool>,
    /// The slab refresh generation the last fill read (0 before the first).
    seen_gen: u64,
}

impl LoadIndex {
    fn build(topology: &Topology, farm: &Farm) -> Self {
        let mut outlets = Vec::new();
        let mut outlet_key = Vec::new();
        let mut slots = HashMap::new();
        let mut parent: Vec<u32> = Vec::new();
        // Contributors per key, turned into offsets below.
        let mut counts: Vec<u32> = Vec::new();
        for graph in topology.feeds() {
            for (outlet_node, outlet) in graph.outlets() {
                outlets.push((
                    farm.index_of(outlet.server).map(|s| s as u32),
                    outlet.supply.index() as u8,
                ));
                let mut below = NO_KEY;
                let mut node = Some(outlet_node);
                while let Some(n) = node {
                    let next = counts.len();
                    let key = *slots.entry((graph.feed(), n, outlet.phase)).or_insert(next);
                    if key == next {
                        counts.push(0);
                        parent.push(NO_KEY);
                    }
                    counts[key] += 1;
                    match below {
                        NO_KEY => outlet_key.push(key as u32),
                        below => parent[below as usize] = key as u32,
                    }
                    below = key as u32;
                    node = graph.parent(n);
                }
            }
        }
        let keys = counts.len();
        let contributor_offsets = prefix_offsets(&counts);
        let mut contributors = vec![0; contributor_offsets[keys] as usize];
        // `counts` becomes each key's fill cursor; outlets are visited in
        // order, so every key lists its contributors in outlet order.
        counts.copy_from_slice(&contributor_offsets[..keys]);
        for (oi, &leaf) in outlet_key.iter().enumerate() {
            let mut key = leaf;
            while key != NO_KEY {
                contributors[counts[key as usize] as usize] = oi as u32;
                counts[key as usize] += 1;
                key = parent[key as usize];
            }
        }
        let mut per_slot = vec![0; farm.len()];
        for &(slot, _) in &outlets {
            if let Some(s) = slot {
                per_slot[s as usize] += 1;
            }
        }
        let slot_offsets = prefix_offsets(&per_slot);
        let mut slot_outlets = vec![0; slot_offsets[farm.len()] as usize];
        per_slot.copy_from_slice(&slot_offsets[..farm.len()]);
        for (oi, &(slot, _)) in outlets.iter().enumerate() {
            if let Some(s) = slot {
                slot_outlets[per_slot[s as usize] as usize] = oi as u32;
                per_slot[s as usize] += 1;
            }
        }
        LoadIndex {
            outlet_loads: vec![Watts::ZERO; outlets.len()],
            outlets,
            outlet_key,
            slot_offsets,
            slot_outlets,
            slots,
            parent,
            contributor_offsets,
            contributors,
            loads: vec![Watts::ZERO; keys],
            resum: Vec::with_capacity(keys),
            stale: vec![false; keys],
            seen_gen: 0,
        }
    }

    /// Key `key`'s contributing outlets, in outlet order.
    fn contributors(&self, key: usize) -> &[u32] {
        &self.contributors[row(&self.contributor_offsets, key)]
    }

    /// Brings the per-key loads up to the slab's snapshot cache: the sum of
    /// supply powers at each key's outlet descendants, kept per phase
    /// because breaker ratings are per phase. Only slots re-sensed since
    /// the last fill are read, and only keys above a moved outlet re-sum.
    fn fill_loads(&mut self, slab: &ServerSlab) {
        for slot in 0..slab.len() {
            if !slab.changed_since(slot, self.seen_gen) {
                continue;
            }
            let supply_ac = &slab.snapshot(slot).supply_ac;
            for &oi in &self.slot_outlets[row(&self.slot_offsets, slot)] {
                let oi = oi as usize;
                let supply = self.outlets[oi].1 as usize;
                let load = supply_ac.get(supply).copied().unwrap_or(Watts::ZERO);
                if load.as_f64().to_bits() == self.outlet_loads[oi].as_f64().to_bits() {
                    continue;
                }
                self.outlet_loads[oi] = load;
                // Mark the outlet's keys up to the first one already marked
                // (whose own ancestors are marked with it).
                let mut key = self.outlet_key[oi];
                while key != NO_KEY && !self.stale[key as usize] {
                    self.stale[key as usize] = true;
                    self.resum.push(key);
                    key = self.parent[key as usize];
                }
            }
        }
        for &key in &self.resum {
            let key = key as usize;
            let mut total = Watts::ZERO;
            for &oi in self.contributors(key) {
                total += self.outlet_loads[oi as usize];
            }
            self.loads[key] = total;
            self.stale[key] = false;
        }
        self.resum.clear();
        self.seen_gen = slab.generation();
    }

    /// Asserts that the loads equal a from-scratch rebuild bitwise: every
    /// outlet read from the slab's cache, every key summed in contributor
    /// order. Every stepped second runs it under `cfg(test)`.
    #[cfg(test)]
    fn assert_matches_rebuild(&self, slab: &ServerSlab, second: u64) {
        let outlet_loads: Vec<Watts> = self
            .outlets
            .iter()
            .map(|&(slot, supply)| {
                slot.and_then(|s| slab.snapshot(s as usize).supply_ac.get(supply as usize).copied())
                    .unwrap_or(Watts::ZERO)
            })
            .collect();
        for (key, load) in self.loads.iter().enumerate() {
            let mut total = Watts::ZERO;
            for &oi in self.contributors(key) {
                total += outlet_loads[oi as usize];
            }
            assert_eq!(
                load.as_f64().to_bits(),
                total.as_f64().to_bits(),
                "key {key}: incremental {load} against rebuilt {total} at second {second}"
            );
        }
    }
}

/// Row `i` of a CSR index array, given its offsets array.
fn row(offsets: &[u32], i: usize) -> std::ops::Range<usize> {
    offsets[i] as usize..offsets[i + 1] as usize
}

/// CSR offsets from per-row counts: `counts.len() + 1` entries, the last
/// being the total.
fn prefix_offsets(counts: &[u32]) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut total = 0;
    offsets.push(0);
    for &c in counts {
        total += c;
        offsets.push(total);
    }
    offsets
}

/// Batched trace recording: per-second samples land in dense,
/// slot-indexed append buffers (pure `Vec` pushes — no hashing on the
/// per-second path), which are flushed into the [`Trace`] maps when a
/// run returns; only [`Engine::run_observed`] feeds it. The slot layout
/// is the farm's slots and the topology's limited nodes, both fixed for
/// the engine's lifetime.
#[derive(Debug)]
struct TraceRecorder {
    /// Supplies per server (length of its `supply_ac`).
    supply_counts: Vec<usize>,
    /// Prefix offsets of each server's supplies in `supply_power`.
    supply_offsets: Vec<usize>,
    server_power: Vec<Vec<f64>>,
    throttle: Vec<Vec<f64>>,
    dc_cap: Vec<Vec<f64>>,
    supply_power: Vec<Vec<f64>>,
    /// Limited nodes, in feed-major topology order.
    node_keys: Vec<(FeedId, NodeId)>,
    /// Per limited node: the `LoadIndex` slots of its present phases, in
    /// `Phase::ALL` order — summing in this order keeps the aggregate
    /// bit-identical to the per-phase `filter_map` it replaces.
    node_phase_slots: Vec<Vec<usize>>,
    node_load: Vec<Vec<f64>>,
}

impl TraceRecorder {
    /// Lays the buffers out over the farm's sensed snapshots and the
    /// static topology, registering node names on first touch.
    fn new(
        farm: &Farm,
        topology: &Topology,
        load_index: &LoadIndex,
        node_names: &mut HashMap<(FeedId, NodeId), String>,
    ) -> Self {
        let servers = farm.len();
        let mut supply_counts = Vec::with_capacity(servers);
        let mut supply_offsets = Vec::with_capacity(servers);
        let mut supplies_total = 0;
        for slot in 0..servers {
            let supplies = farm.slab().snapshot(slot).supply_ac.len();
            supply_counts.push(supplies);
            supply_offsets.push(supplies_total);
            supplies_total += supplies;
        }
        let mut node_keys = Vec::new();
        let mut node_phase_slots = Vec::new();
        for graph in topology.feeds() {
            for node in graph.iter() {
                if graph.device(node).effective_limit().is_none() {
                    continue;
                }
                let key = (graph.feed(), node);
                node_keys.push(key);
                node_phase_slots.push(
                    Phase::ALL
                        .iter()
                        .filter_map(|&p| load_index.slots.get(&(key.0, key.1, p)).copied())
                        .collect(),
                );
                node_names
                    .entry(key)
                    .or_insert_with(|| graph.device(node).name().to_string());
            }
        }
        TraceRecorder {
            supply_counts,
            supply_offsets,
            server_power: vec![Vec::new(); servers],
            throttle: vec![Vec::new(); servers],
            dc_cap: vec![Vec::new(); servers],
            supply_power: vec![Vec::new(); supplies_total],
            node_load: vec![Vec::new(); node_keys.len()],
            node_keys,
            node_phase_slots,
        }
    }

    /// Appends one second of samples from the farm's snapshot cache and
    /// live caps. Nothing here hashes or allocates beyond amortized series
    /// growth.
    fn push_second(&mut self, farm: &Farm, loads: &[Watts]) {
        for slot in 0..farm.len() {
            let snap = farm.slab().snapshot(slot);
            self.server_power[slot].push(snap.total_ac.as_f64());
            self.throttle[slot].push(snap.throttle.as_f64());
            let cap = farm.server_at(slot).dc_cap();
            self.dc_cap[slot].push(cap.map_or(f64::NAN, Watts::as_f64));
            let base = self.supply_offsets[slot];
            for (i, p) in snap.supply_ac.iter().enumerate() {
                self.supply_power[base + i].push(p.as_f64());
            }
        }
        for (k, slots) in self.node_phase_slots.iter().enumerate() {
            let mut load = Watts::ZERO;
            for &slot in slots {
                load += loads[slot];
            }
            self.node_load[k].push(load.as_f64());
        }
    }

    /// Drains every pending buffer into the trace maps, keying servers by
    /// `ids` (the farm's, slot order). Append-only: a key whose buffer is
    /// empty is left untouched, so flushing twice is a no-op and no
    /// spurious empty series appear.
    fn flush(&mut self, ids: &[ServerId], trace: &mut Trace) {
        for (slot, id) in ids.iter().enumerate() {
            if !self.server_power[slot].is_empty() {
                trace
                    .server_power
                    .entry(*id)
                    .or_default()
                    .append(&mut self.server_power[slot]);
            }
            if !self.throttle[slot].is_empty() {
                trace
                    .throttle
                    .entry(*id)
                    .or_default()
                    .append(&mut self.throttle[slot]);
            }
            if !self.dc_cap[slot].is_empty() {
                trace
                    .dc_cap
                    .entry(*id)
                    .or_default()
                    .append(&mut self.dc_cap[slot]);
            }
            let base = self.supply_offsets[slot];
            for i in 0..self.supply_counts[slot] {
                if !self.supply_power[base + i].is_empty() {
                    trace
                        .supply_power
                        .entry((*id, SupplyIndex(i as u8)))
                        .or_default()
                        .append(&mut self.supply_power[base + i]);
                }
            }
        }
        for (k, key) in self.node_keys.iter().enumerate() {
            if !self.node_load[k].is_empty() {
                trace
                    .node_load
                    .entry(*key)
                    .or_default()
                    .append(&mut self.node_load[k]);
            }
        }
    }
}

/// The time-stepped simulation engine.
///
/// # Examples
///
/// ```
/// use capmaestro_sim::engine::Engine;
/// use capmaestro_sim::scenarios::{priority_rig, RigConfig};
///
/// let rig = priority_rig(RigConfig::table2());
/// let mut engine = Engine::new(rig);
/// let trace = engine.run(120);
/// assert_eq!(trace.seconds, 120);
/// ```
#[derive(Debug)]
pub struct Engine {
    topology: Topology,
    farm: Farm,
    plane: ControlPlane,
    config: EngineConfig,
    /// One thermal model per `(breaker, phase)` key, with the key's
    /// [`LoadIndex`] slot.
    breakers: Vec<((FeedId, NodeId, Phase), usize, BreakerSim)>,
    /// Pending events, sorted by second; same-second events keep their
    /// scheduling order.
    events: VecDeque<(u64, Event)>,
    time_s: u64,
    trace: Trace,
    /// The last stepped second's per-key loads and their layout.
    load_index: LoadIndex,
    faults: FaultLayer,
    /// Route sensing through the fault layer even when it is quiet
    /// (differential-test knob proving the slow path is a true no-op).
    force_interposition: bool,
    /// Laid out on the first recorded second.
    recorder: Option<TraceRecorder>,
    /// The readings actually delivered to the control plane on the last
    /// interposed second (reusable buffer; see
    /// [`Engine::delivered_readings`]).
    delivered: Vec<(ServerId, SensorSnapshot)>,
    /// Whether the last stepped second sensed through the fault layer
    /// (i.e. `delivered` describes it).
    delivered_valid: bool,
    /// Root budgets staged by [`Engine::stage_root_budgets`], applied at
    /// the next control-round boundary (the serving subsystem's
    /// `POST /v1/budget` path).
    staged_budgets: Option<Vec<Watts>>,
}

impl Engine {
    /// Creates an engine over a rig with default timing.
    pub fn new(rig: Rig) -> Self {
        Engine::with_config(rig, EngineConfig::default())
    }

    /// Creates an engine with explicit timing.
    pub fn with_config(rig: Rig, config: EngineConfig) -> Self {
        let Rig {
            topology,
            farm,
            plane,
        } = rig;
        // One thermal model per (breaker, phase) that actually carries
        // outlets of that phase: exactly the breaker keys the load index
        // holds.
        let load_index = LoadIndex::build(&topology, &farm);
        let mut breakers = Vec::new();
        for graph in topology.feeds() {
            for node in graph.iter() {
                if let Some(cb) = graph.device(node).breaker() {
                    for phase in Phase::ALL {
                        let key = (graph.feed(), node, phase);
                        if let Some(&slot) = load_index.slots.get(&key) {
                            breakers.push((key, slot, BreakerSim::new(*cb)));
                        }
                    }
                }
            }
        }
        Engine {
            topology,
            farm,
            plane,
            config,
            breakers,
            events: VecDeque::new(),
            time_s: 0,
            trace: Trace::default(),
            load_index,
            faults: FaultLayer::new(0),
            force_interposition: false,
            recorder: None,
            delivered: Vec::new(),
            delivered_valid: false,
            staged_budgets: None,
        }
    }

    /// Schedules an event at an absolute simulation second, after every
    /// event already scheduled for that second. An event scheduled in the
    /// past applies at the next step.
    pub fn schedule(&mut self, at_s: u64, event: Event) -> &mut Self {
        let at = self.events.partition_point(|(t, _)| *t <= at_s);
        self.events.insert(at, (at_s, event));
        self
    }

    /// Schedules every episode of a chaos plan as inject/clear event
    /// pairs. An empty plan schedules nothing — the run stays
    /// bit-identical to one that never saw the plan.
    pub fn schedule_chaos(&mut self, plan: &ChaosPlan) -> &mut Self {
        for episode in plan.episodes() {
            match &episode.action {
                ChaosAction::Fault(server, kind) => {
                    self.schedule(
                        episode.start_s,
                        Event::InjectFault(*server, kind.clone()),
                    );
                    self.schedule(episode.end_s, Event::ClearFault(*server));
                }
                ChaosAction::Flap(feed, spec) => {
                    self.schedule(episode.start_s, Event::FlapTelemetry(*feed, *spec));
                    self.schedule(episode.end_s, Event::StopFlap(*feed));
                }
            }
        }
        self
    }

    /// The fault layer, for inspection (active faults, injection totals).
    pub fn fault_layer(&self) -> &FaultLayer {
        &self.faults
    }

    /// The current simulation second (seconds fully stepped so far).
    pub fn now_s(&self) -> u64 {
        self.time_s
    }

    /// Seconds between control rounds (8 in the paper).
    pub fn control_period_s(&self) -> u64 {
        self.config.control_period_s
    }

    /// Stages replacement per-tree root budgets to be applied at the
    /// *next* control-round boundary, not mid-period — the thread-safe
    /// seam behind the serving subsystem's `POST /v1/budget`. A later call
    /// before the boundary replaces the staged set. Staged budgets whose
    /// count no longer matches the plane's live trees (a feed failed in
    /// between) are discarded rather than applied.
    pub(crate) fn stage_root_budgets(&mut self, budgets: Vec<Watts>) -> &mut Self {
        self.staged_budgets = Some(budgets);
        self
    }

    /// Powers one server on or off outside the feed-failure machinery —
    /// the operator drain/undrain seam. Value-compared, so repeating the
    /// same state is free under event-driven stepping. Returns `false`
    /// for servers the farm does not hold.
    pub(crate) fn set_server_powered(&mut self, server: ServerId, powered: bool) -> bool {
        match self.farm.get_mut(server) {
            Some(mut srv) => {
                srv.set_powered(powered);
                true
            }
            None => false,
        }
    }

    /// Applies a reconciliation plan from the operator event log:
    /// budgets are *staged* (they land inside the next [`Engine::step`]
    /// at the round boundary, exactly like `POST /v1/budget` always has),
    /// while priorities, drains, and allocator switches apply to the
    /// plane immediately so the same round allocates with them. Returns
    /// the number of actions taken. An empty plan does nothing at all —
    /// the bit-identity guarantee the reconciler rests on.
    pub fn apply_reconcile_plan(&mut self, plan: &ReconcilePlan) -> usize {
        let mut applied = 0;
        if let Some(budgets) = &plan.root_budgets {
            self.stage_root_budgets(budgets.clone());
            applied += 1;
        }
        for &(server, priority) in &plan.priorities {
            match priority {
                Some(p) => self.plane.set_priority(server, p),
                None => self.plane.clear_priority(server),
            }
            applied += 1;
        }
        for &(server, powered) in &plan.power {
            if self.set_server_powered(server, powered) {
                applied += 1;
            }
        }
        if let Some(kind) = plan.allocator {
            self.plane.set_allocator(kind);
            applied += 1;
        }
        applied
    }

    /// Drops everything recorded so far and resets the trace to empty
    /// (series layouts are relearned on the next run). A long-running
    /// daemon calls this periodically to bound the event logs; since
    /// [`Engine::step`] records no series, that costs only their drop.
    pub fn reset_trace(&mut self) {
        self.recorder = None;
        let seconds = self.time_s;
        self.trace = Trace::default();
        self.trace.seconds = seconds;
    }

    /// The most recent control round's decisions, if any round ran.
    pub fn last_round_report(&self) -> Option<&RoundReport> {
        self.plane.last_report()
    }

    /// The sensor readings that were actually delivered to the control
    /// plane on the last stepped second, when that second sensed through
    /// the fault layer. `None` on quiet seconds (delivered ≡ physical, so
    /// cross-checking them is vacuous). The feed-level metering audit
    /// reconciles these against the physical farm state.
    pub(crate) fn delivered_readings(&self) -> Option<&[(ServerId, SensorSnapshot)]> {
        self.delivered_valid.then_some(self.delivered.as_slice())
    }

    /// The farm (e.g. for post-run inspection).
    pub fn farm(&self) -> &Farm {
        &self.farm
    }

    /// The control plane.
    pub fn plane(&self) -> &ControlPlane {
        &self.plane
    }

    /// Mutable access to the control plane, for what an operator or a
    /// harness changes on it between seconds: the recorder, priorities,
    /// the allocator, root budgets.
    pub fn plane_mut(&mut self) -> &mut ControlPlane {
        &mut self.plane
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    fn apply_event(&mut self, event: Event) {
        match event {
            Event::FailFeed(feed) => {
                self.plane.fail_feed(feed);
                // Fail every supply plugged into the dead feed. A server
                // whose *last* working supply was on that feed goes dark.
                let attachments: Vec<(ServerId, SupplyIndex)> = self
                    .topology
                    .feed(feed)
                    .map(|g| {
                        g.outlets()
                            .map(|(_, o)| (o.server, o.supply))
                            .collect()
                    })
                    .unwrap_or_default();
                for (server, supply) in attachments {
                    if let Some(mut srv) = self.farm.get_mut(server) {
                        let bank = srv.bank_mut();
                        if bank.working_count() > 1 {
                            bank.fail_supply(supply.index());
                        } else {
                            srv.set_powered(false);
                            self.trace.lost_servers.push((self.time_s, server));
                        }
                    }
                }
            }
            Event::SetRootBudgets(budgets) => {
                self.plane.set_root_budgets(budgets);
            }
            Event::SetDemand(server, demand) => {
                if let Some(mut srv) = self.farm.get_mut(server) {
                    srv.set_offered_demand(demand);
                }
            }
            Event::SetPriority(server, priority) => {
                self.plane.set_priority(server, priority);
            }
            Event::FailSupply(server, supply) => {
                if let Some(mut srv) = self.farm.get_mut(server) {
                    let bank = srv.bank_mut();
                    if bank.working_count() > 1 {
                        bank.fail_supply(supply.index());
                    } else {
                        srv.set_powered(false);
                        self.trace.lost_servers.push((self.time_s, server));
                    }
                }
            }
            Event::SetStandby(server, supply, standby) => {
                if let Some(mut srv) = self.farm.get_mut(server) {
                    // A failed supply keeps its state, and a server keeps
                    // its last load-carrying supply: such an event is void.
                    let bank = srv.bank();
                    let state = bank.supply(supply.index()).state();
                    let carrying = bank.supplies().iter().filter(|s| s.state().carries_load());
                    let last = standby && state.carries_load() && carrying.count() == 1;
                    if state.is_working() && !last {
                        srv.bank_mut().set_standby(supply.index(), standby);
                    }
                }
            }
            Event::RestoreFeed(feed) => {
                self.plane.restore_feed(feed);
                let attachments: Vec<(ServerId, SupplyIndex)> = self
                    .topology
                    .feed(feed)
                    .map(|g| {
                        g.outlets()
                            .map(|(_, o)| (o.server, o.supply))
                            .collect()
                    })
                    .unwrap_or_default();
                for (server, supply) in attachments {
                    if let Some(mut srv) = self.farm.get_mut(server) {
                        srv.bank_mut().repair_supply(supply.index());
                        if !srv.is_powered() {
                            srv.set_powered(true);
                        }
                    }
                }
                // Breakers on the restored feed start cool and closed.
                for ((f, _, _), _, sim) in &mut self.breakers {
                    if *f == feed {
                        sim.reset();
                    }
                }
            }
            Event::InjectFault(server, kind) => {
                self.plane
                    .recorder()
                    .counter_add(names::SIM_FAULT_EVENTS_TOTAL, 1);
                self.faults.inject(server, kind);
            }
            Event::ClearFault(server) => {
                self.faults.clear(server);
            }
            Event::FlapTelemetry(feed, spec) => {
                self.plane
                    .recorder()
                    .counter_add(names::SIM_FAULT_EVENTS_TOTAL, 1);
                let mut members: Vec<ServerId> = self
                    .topology
                    .feed(feed)
                    .map(|g| g.outlets().map(|(_, o)| o.server).collect())
                    .unwrap_or_default();
                members.sort_unstable();
                members.dedup();
                self.faults.start_flap(feed, members, spec, self.time_s);
            }
            Event::StopFlap(feed) => {
                self.faults.stop_flap(feed);
            }
        }
    }

    /// Appends the second just stepped to the series recorder, from the
    /// farm's snapshots and caps and the sweep's loads. Per-server and
    /// per-node series go into dense append buffers — one plain push per
    /// sample, no hashing. The displayed node load aggregates the phases
    /// (safety checks use the per-phase values against the per-phase
    /// ratings).
    fn record_series(&mut self) {
        let recorder = self.recorder.get_or_insert_with(|| {
            TraceRecorder::new(
                &self.farm,
                &self.topology,
                &self.load_index,
                &mut self.trace.node_names,
            )
        });
        recorder.push_second(&self.farm, &self.load_index.loads);
    }

    /// Runs the simulation for `seconds`, returning the accumulated trace
    /// with every series sample of those seconds. May be called repeatedly
    /// to continue a run.
    pub fn run(&mut self, seconds: u64) -> Trace {
        self.run_observed(seconds, |_| {})
    }

    /// Like [`Engine::run`], but calls `observer` after every fully
    /// stepped second — the hook the chaos soak harness uses to audit
    /// invariants against the live engine state each second.
    pub fn run_observed(
        &mut self,
        seconds: u64,
        mut observer: impl FnMut(&Engine),
    ) -> Trace {
        for _ in 0..seconds {
            self.step_second();
            self.record_series();
            observer(self);
        }
        if let Some(recorder) = &mut self.recorder {
            recorder.flush(self.farm.ids(), &mut self.trace);
        }
        self.trace.clone()
    }

    /// Advances the simulation by exactly one second, recording only the
    /// event logs (`trips`, `lost_servers`, `stranded`) and `seconds` —
    /// no series. This is the serving path (`serve::daemon::drive_second`),
    /// and the manual-stepping alternative to [`Engine::run`] for harnesses
    /// that read engine state, or mutate it (e.g. [`Engine::plane_mut`]),
    /// between seconds.
    pub fn step(&mut self) {
        self.step_second();
    }

    /// Advances the world by one second: events, sensing (through the
    /// fault layer when it is active), control, physics, breakers, and
    /// the event logs. Leaves the farm's snapshot cache current and the
    /// sweep's loads in `loads` for [`Engine::record_series`].
    fn step_second(&mut self) {
        let recorder = Arc::clone(self.plane.recorder());
        // Publish the logical clock so trace events carry simulated (not
        // wall) time; a no-op on every recorder except the trace one.
        recorder.trace_set_time_us(self.time_s.saturating_mul(1_000_000));
        recorder.counter_add(names::SIM_STEPS_TOTAL, 1);
        let _step_timer = PhaseTimer::start(&*recorder, names::SIM_STEP_SECONDS);
        {
            // Apply due events.
            while let Some((_, event)) = self.events.pop_front_if(|(t, _)| *t <= self.time_s) {
                self.apply_event(event);
            }

            // Sense (1 Hz) and control (every period). Telemetry delivery
            // runs through the fault layer whenever it could act; the
            // quiet path senses directly (identical result, no per-reading
            // dispatch).
            self.faults.tick(self.time_s);
            self.delivered.clear();
            self.delivered_valid = false;
            if self.faults.is_quiet() && !self.force_interposition {
                self.plane.sample(&mut self.farm);
            } else {
                self.farm.refresh();
                let farm = &self.farm;
                let faults = &mut self.faults;
                self.delivered
                    .extend(farm.ids().iter().enumerate().filter_map(|(slot, &id)| {
                        faults
                            .intercept(id, farm.slab().snapshot(slot).clone())
                            .map(|snap| (id, snap))
                    }));
                self.plane.record_snapshots(&self.farm, &self.delivered);
                self.delivered_valid = true;
            }
            if self.config.control_enabled && self.time_s.is_multiple_of(self.config.control_period_s) {
                if let Some(budgets) = self.staged_budgets.take() {
                    if budgets.len() == self.plane.trees().len() {
                        self.plane.set_root_budgets(budgets);
                    }
                }
                let report = self.plane.round(&mut self.farm);
                self.trace
                    .stranded
                    .push((self.time_s, report.stranded_reclaimed.as_f64()));
            }

            // Physics. The sweep steps every server and refreshes the
            // farm's snapshot cache, which feeds the load index, the
            // breaker models, and the series recorder without re-sensing.
            // Only servers the slab marked changed are re-sensed, only
            // their outlets are re-read, and only keys above a moved outlet
            // re-sum — a converged fleet costs no copies and no sums.
            self.farm.step_all(Seconds::new(1.0));
            self.farm.refresh();
            self.load_index.fill_loads(self.farm.slab());
            #[cfg(test)]
            self.load_index.assert_matches_rebuild(self.farm.slab(), self.time_s);
            // Each breaker's thermal model runs on its own phase's load
            // (ratings are per phase). A breaker at rest under its load
            // would step to itself, so it is skipped.
            let mut tripped_now: Vec<usize> = Vec::new();
            for ((feed, node, phase), slot, sim) in &mut self.breakers {
                let load = self.load_index.loads[*slot];
                if sim.at_rest(load) {
                    continue;
                }
                let before = sim.state();
                let after = sim.step(load, Seconds::new(1.0));
                if before == BreakerState::Closed && after == BreakerState::Tripped {
                    self.trace.trips.push((
                        self.time_s,
                        *feed,
                        format!(
                            "{} {phase}",
                            self.topology
                                .feed(*feed)
                                .map(|g| g.device(*node).name().to_string())
                                .unwrap_or_default()
                        ),
                    ));
                    tripped_now.push(*slot);
                }
            }
            // A tripped breaker interrupts downstream delivery: every
            // outlet contributing to its load loses its supply; a server
            // whose last working supply died goes dark (§2.1's
            // "downstream power delivery is interrupted, potentially
            // causing server power outage").
            for &slot in &tripped_now {
                for &outlet in self.load_index.contributors(slot) {
                    let (server_slot, supply) = self.load_index.outlets[outlet as usize];
                    let Some(server) = server_slot.map(|s| self.farm.ids()[s as usize]) else {
                        continue;
                    };
                    if let Some(mut srv) = self.farm.get_mut(server) {
                        let bank = srv.bank_mut();
                        if bank.working_count() > 1 {
                            bank.fail_supply(supply as usize);
                        } else {
                            srv.set_powered(false);
                            self.trace.lost_servers.push((self.time_s, server));
                        }
                    }
                }
            }
            // Trips changed the victims' supplies after the sweep; the
            // series record their post-trip readings.
            if !tripped_now.is_empty() {
                self.farm.refresh();
            }

            self.time_s += 1;
            self.trace.seconds = self.time_s;
        }
    }

    /// Runs one control round immediately (outside the 1 Hz loop) and
    /// returns its decisions — handy for reading converged steady-state
    /// budgets after [`Engine::run`].
    pub fn run_control_round(&mut self) -> capmaestro_core::plane::RoundReport {
        self.plane.sample(&mut self.farm);
        self.plane.round(&mut self.farm).clone()
    }

    /// Immutable view of everything recorded so far. The event logs
    /// (`trips`, `lost_servers`, `stranded`) are live every second; the
    /// per-series maps hold the seconds stepped by [`Engine::run`] /
    /// [`Engine::run_observed`] and are complete when those return.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Direct access to a server for assertions.
    pub fn server(&self, id: ServerId) -> Option<ServerRef<'_>> {
        self.farm.get(id)
    }
}

#[cfg(test)]
mod incremental_rounds;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{priority_rig, stranded_rig, RigConfig};
    use capmaestro_core::policy::PolicyKind;
    use capmaestro_server::SupplyState;
    use std::collections::BTreeSet;

    /// Strict (bitwise for NaN-capable series) trace equality.
    fn assert_traces_identical(a: &Trace, b: &Trace) {
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.server_power, b.server_power);
        assert_eq!(a.supply_power, b.supply_power);
        assert_eq!(a.throttle, b.throttle);
        assert_eq!(a.node_load, b.node_load);
        assert_eq!(a.trips, b.trips);
        assert_eq!(a.lost_servers, b.lost_servers);
        assert_eq!(a.stranded, b.stranded);
        // dc_cap may hold NaN before a server's first round; compare bits.
        assert_eq!(
            a.dc_cap.keys().collect::<BTreeSet<_>>(),
            b.dc_cap.keys().collect::<BTreeSet<_>>()
        );
        for (id, va) in &a.dc_cap {
            let vb = &b.dc_cap[id];
            assert_eq!(va.len(), vb.len());
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(x.to_bits(), y.to_bits(), "dc cap diverged for {id:?}");
            }
        }
    }

    /// Regression: `tail_mean` over a degenerate window must be `0.0`,
    /// never NaN. A window of `n == 0` used to divide by zero, and a
    /// window longer than a short history must clamp to what exists.
    #[test]
    fn tail_mean_handles_short_history_and_zero_window() {
        assert_eq!(Trace::tail_mean(&[], 10), 0.0);
        assert_eq!(Trace::tail_mean(&[], 0), 0.0);
        let short = [4.0, 8.0];
        // n == 0 on a non-empty series: the old code returned 0.0 / 0.
        let zero_window = Trace::tail_mean(&short, 0);
        assert!(
            zero_window == 0.0 && !zero_window.is_nan(),
            "zero window must be 0.0, got {zero_window}"
        );
        // Window longer than the history clamps to the full series.
        assert_eq!(Trace::tail_mean(&short, 5), 6.0);
        assert_eq!(Trace::tail_mean(&short, 1), 8.0);
    }

    #[test]
    fn empty_chaos_plan_is_bit_identical_to_plain_run() {
        // The plain run never touches the fault machinery; the chaos run
        // schedules an empty plan AND routes every reading through the
        // interposition path. Bit-identical traces prove the fault layer
        // is a true no-op when empty.
        let mut plain = Engine::new(priority_rig(RigConfig::table2()));
        let reference = plain.run(200);
        let mut chaos = Engine::new(priority_rig(RigConfig::table2()));
        chaos.schedule_chaos(&crate::faults::ChaosPlan::empty());
        chaos.force_interposition = true;
        let observed = chaos.run(200);
        assert_traces_identical(&reference, &observed);

        // Same property on the dual-feed rig with SPO on.
        let mut plain = Engine::new(stranded_rig(RigConfig::table3()));
        let reference = plain.run(120);
        let mut chaos = Engine::new(stranded_rig(RigConfig::table3()));
        chaos.schedule_chaos(&crate::faults::ChaosPlan::empty());
        chaos.force_interposition = true;
        let observed = chaos.run(120);
        assert_traces_identical(&reference, &observed);
    }

    #[test]
    fn dropped_telemetry_server_degrades_to_fail_safe_and_recovers() {
        let rig = priority_rig(RigConfig::table2());
        let sa = rig.server("SA");
        let mut engine = Engine::new(rig);
        engine.schedule(80, Event::InjectFault(sa, FaultKind::DropReading));
        engine.schedule(240, Event::ClearFault(sa));
        let trace = engine.run(440);
        // Healthy, high-priority SA gets its full 420 W demand.
        let before = Trace::tail_mean(&trace.server_power[&sa][..80], 10);
        assert!(before > 400.0, "healthy SA at {before}");
        // Default staleness (3 rounds × 8 s) has long since degraded SA to
        // its fail-safe cap_min cap — despite its priority. Over-throttling
        // a blind server is the safe failure mode (§4.2).
        let during = Trace::tail_mean(&trace.server_power[&sa][..240], 10);
        assert!(
            during < 300.0,
            "stale SA must be clamped to fail-safe, got {during}"
        );
        // Telemetry resumed at t=240: SA regains its demand.
        let after = Trace::tail_mean(&trace.server_power[&sa], 10);
        assert!(after > 400.0, "recovered SA at {after}");
        assert!(trace.trips.is_empty());
        assert_eq!(engine.fault_layer().injected_total(), 1);
    }

    #[test]
    fn flapping_telemetry_feed_stays_safe_without_degrading() {
        // Feed B's telemetry flaps (5 s delivered / 10 s dropped). Every
        // down phase is shorter than the staleness budget, so no server
        // should be declared stale — and the physical feed must stay
        // within budget throughout.
        let rig = stranded_rig(RigConfig::table3());
        let mut engine = Engine::new(rig);
        engine.schedule(
            80,
            Event::FlapTelemetry(FeedId::B, crate::faults::FlapSpec { up_s: 5, down_s: 10 }),
        );
        engine.schedule(240, Event::StopFlap(FeedId::B));
        let trace = engine.run(320);
        assert!(trace.trips.is_empty());
        assert!(engine.plane().stale_servers().is_empty());
        let y_top = trace
            .node_series_on(FeedId::B, "Y Top CB")
            .expect("Y top recorded");
        assert!(Trace::tail_mean(y_top, 20) <= 700.0 * 1.02);
    }

    #[test]
    fn feed_fail_restore_round_trip_returns_budgets_and_caps() {
        // Satellite: Event::FailFeed then Event::RestoreFeed through the
        // engine must return budgets and per-server caps to within
        // tolerance of their pre-fault values.
        let rig = stranded_rig(RigConfig::table3());
        let servers: Vec<ServerId> = ["SA", "SB", "SC", "SD"]
            .iter()
            .map(|n| rig.server(n))
            .collect();
        let mut engine = Engine::new(rig);
        engine.schedule(120, Event::FailFeed(FeedId::B));
        engine.schedule(240, Event::RestoreFeed(FeedId::B));
        // Healthy segment first; snapshot the converged budgets.
        engine.run(120);
        let pre = engine
            .last_round_report()
            .expect("a round ran")
            .clone();
        let trace = engine.run(360);
        let post = engine.last_round_report().expect("a round ran").clone();
        for &id in &servers {
            for supply in [SupplyIndex::FIRST, SupplyIndex::SECOND] {
                let (Some(b0), Some(b1)) = (
                    pre.supply_budget(id, supply),
                    post.supply_budget(id, supply),
                ) else {
                    continue;
                };
                assert!(
                    (b1.as_f64() - b0.as_f64()).abs() <= 0.02 * b0.as_f64() + 2.0,
                    "budget for {id:?}/{supply:?} should return: pre {b0}, post {b1}"
                );
            }
            let pre_p = Trace::tail_mean(&trace.server_power[&id][..120], 8);
            let post_p = Trace::tail_mean(&trace.server_power[&id], 8);
            assert!(
                (post_p - pre_p).abs() <= 0.02 * pre_p + 5.0,
                "power for {id:?} should return: pre {pre_p:.1}, post {post_p:.1}"
            );
        }
        // Both trees budget again from their original roots.
        assert_eq!(engine.plane().trees().len(), 2);
        assert_eq!(
            engine.plane().root_budgets_now(),
            vec![Watts::new(700.0), Watts::new(700.0)]
        );
    }

    #[test]
    fn priority_rig_reaches_table2_steady_state() {
        let rig = priority_rig(RigConfig::table2());
        let sa = rig.server("SA");
        let sb = rig.server("SB");
        let mut engine = Engine::new(rig);
        let trace = engine.run(160);

        // SA (high priority) ends near its full 420 W demand.
        let sa_power = Trace::tail_mean(&trace.server_power[&sa], 20);
        assert!(
            (sa_power - 420.0).abs() < 8.0,
            "SA steady power {sa_power}"
        );
        // SB is throttled toward Pcap_min.
        let sb_power = Trace::tail_mean(&trace.server_power[&sb], 20);
        assert!(sb_power < 290.0, "SB steady power {sb_power}");
        // Top CB load stays within the 1240 W budget (small transient
        // overshoot allowed).
        let top = trace.node_series("Top CB").expect("top CB recorded");
        let top_tail = Trace::tail_mean(top, 20);
        assert!(top_tail <= 1245.0, "top CB load {top_tail}");
    }

    #[test]
    fn no_breaker_trips_in_rig_runs() {
        let rig = priority_rig(RigConfig::table2());
        let mut engine = Engine::new(rig);
        let trace = engine.run(200);
        assert!(trace.trips.is_empty());
    }

    #[test]
    fn demand_change_event_tracked() {
        let rig = priority_rig(RigConfig::table2());
        let sb = rig.server("SB");
        let mut engine = Engine::new(rig);
        engine.schedule(60, Event::SetDemand(sb, Watts::new(200.0)));
        let trace = engine.run(150);
        let sb_power = Trace::tail_mean(&trace.server_power[&sb], 20);
        assert!(
            (sb_power - 200.0).abs() < 10.0,
            "SB should settle at its new 200 W demand, got {sb_power}"
        );
    }

    #[test]
    fn feed_failure_shifts_load_and_keeps_feeds_safe() {
        let config = RigConfig::table3().with_policy(PolicyKind::GlobalPriority);
        let rig = stranded_rig(config);
        let sc = rig.server("SC");
        let mut engine = Engine::new(rig);
        // At t=80 the Y side (feed B) dies; the X side inherits the full
        // 1400 W contractual budget.
        engine.schedule(80, Event::FailFeed(FeedId::B));
        engine.schedule(80, Event::SetRootBudgets(vec![Watts::new(1400.0)]));
        let trace = engine.run(240);

        // SC's Y-side supply carries nothing after the failure.
        let y_supply = &trace.supply_power[&(sc, SupplyIndex::SECOND)];
        assert!(y_supply[239] < 1.0, "Y supply still loaded: {}", y_supply[239]);
        // And its X-side supply carries the whole server.
        let x_supply = &trace.supply_power[&(sc, SupplyIndex::FIRST)];
        let total = &trace.server_power[&sc];
        assert!((x_supply[239] - total[239]).abs() < 1.0);
        assert!(trace.trips.is_empty());
    }

    #[test]
    fn stranded_power_reclaimed_only_with_spo() {
        let with = {
            let rig = stranded_rig(RigConfig::table3().with_spo(true));
            let mut engine = Engine::new(rig);
            let trace = engine.run(60);
            trace.stranded.iter().map(|(_, w)| *w).sum::<f64>()
        };
        let without = {
            let rig = stranded_rig(RigConfig::table3().with_spo(false));
            let mut engine = Engine::new(rig);
            let trace = engine.run(60);
            trace.stranded.iter().map(|(_, w)| *w).sum::<f64>()
        };
        assert!(with > 1.0, "SPO should find stranded power, got {with}");
        assert_eq!(without, 0.0);
    }

    #[test]
    fn trace_node_lookup() {
        let rig = stranded_rig(RigConfig::table3());
        let mut engine = Engine::new(rig);
        let trace = engine.run(10);
        assert!(trace.node_series_on(FeedId::A, "X Top CB").is_some());
        assert!(trace.node_series_on(FeedId::B, "Y Top CB").is_some());
        assert!(trace.node_series("nonexistent").is_none());
        assert_eq!(trace.seconds, 10);
    }

    #[test]
    fn single_supply_failure_shifts_load_and_stays_budgeted() {
        // SC loses its X-side supply at t=60: its Y-side supply picks up
        // the whole server and the controller keeps the Y feed safe.
        let rig = stranded_rig(RigConfig::table3());
        let sc = rig.server("SC");
        let mut engine = Engine::new(rig);
        engine.schedule(60, Event::FailSupply(sc, SupplyIndex::FIRST));
        let trace = engine.run(240);
        let x = &trace.supply_power[&(sc, SupplyIndex::FIRST)];
        let y = &trace.supply_power[&(sc, SupplyIndex::SECOND)];
        assert!(x[239] < 0.5, "failed supply still loaded: {}", x[239]);
        assert!(y[239] > 200.0, "survivor should carry the server: {}", y[239]);
        // The Y feed budget (700 W) is still respected at steady state.
        let y_top = trace
            .node_series_on(FeedId::B, "Y Top CB")
            .expect("Y top recorded");
        assert!(Trace::tail_mean(y_top, 20) <= 700.0 * 1.02);
        assert!(trace.trips.is_empty());
    }

    #[test]
    fn void_standby_events_are_ignored() {
        // SC's X-side supply fails at t=60; standing it by (or waking it)
        // afterwards is void, and so is standing by SC's Y-side supply,
        // its last carrying one. SD stands its second supply by, then its
        // first — its last carrying one — which is void too.
        let rig = stranded_rig(RigConfig::table3());
        let (sc, sd) = (rig.server("SC"), rig.server("SD"));
        let mut engine = Engine::new(rig);
        engine.schedule(60, Event::FailSupply(sc, SupplyIndex::FIRST));
        engine.schedule(70, Event::SetStandby(sc, SupplyIndex::FIRST, true));
        engine.schedule(71, Event::SetStandby(sc, SupplyIndex::FIRST, false));
        engine.schedule(72, Event::SetStandby(sc, SupplyIndex::SECOND, true));
        engine.schedule(80, Event::SetStandby(sd, SupplyIndex::SECOND, true));
        engine.schedule(90, Event::SetStandby(sd, SupplyIndex::FIRST, true));
        let trace = engine.run(160);
        let state = |id, supply: SupplyIndex| {
            engine.server(id).expect("farm server").bank().supply(supply.index()).state()
        };
        assert_eq!(state(sc, SupplyIndex::FIRST), SupplyState::Failed);
        assert_eq!(state(sc, SupplyIndex::SECOND), SupplyState::Active);
        assert_eq!(state(sd, SupplyIndex::FIRST), SupplyState::Active);
        assert_eq!(state(sd, SupplyIndex::SECOND), SupplyState::Standby);
        for id in [sc, sd] {
            assert!(engine.server(id).expect("farm server").is_powered());
        }
        let sd_first = &trace.supply_power[&(sd, SupplyIndex::FIRST)];
        assert!(sd_first[159] > 200.0, "SD's first supply carries it: {}", sd_first[159]);
        assert!(trace.trips.is_empty());
    }

    #[test]
    fn hot_spare_standby_consolidates_load() {
        // SD's second supply goes to cold standby at t=60 (hot-spare mode):
        // the first supply carries everything; leaving standby restores
        // the split.
        let rig = stranded_rig(RigConfig::table3());
        let sd = rig.server("SD");
        let mut engine = Engine::new(rig);
        engine.schedule(60, Event::SetStandby(sd, SupplyIndex::SECOND, true));
        engine.schedule(150, Event::SetStandby(sd, SupplyIndex::SECOND, false));
        let trace = engine.run(230);
        let first = &trace.supply_power[&(sd, SupplyIndex::FIRST)];
        let second = &trace.supply_power[&(sd, SupplyIndex::SECOND)];
        // During standby the second supply draws nothing.
        assert!(second[140] < 0.5, "standby supply loaded: {}", second[140]);
        let total_during = first[140] + second[140];
        assert!(total_during > 200.0);
        // After reactivation the intrinsic 46/54 split returns.
        let share_after = second[229] / (first[229] + second[229]);
        assert!(
            (share_after - 0.54).abs() < 0.02,
            "split after reactivation: {share_after}"
        );
        assert!(trace.trips.is_empty());
    }

    #[test]
    fn feed_failure_and_repair_round_trip() {
        // Feed B dies at t=60 and is repaired at t=200. SB (Y-only) goes
        // dark and must come back; SC/SD's split must return to normal;
        // the Y-side trees must budget again.
        let rig = stranded_rig(RigConfig::table3());
        let sb = rig.server("SB");
        let sc = rig.server("SC");
        let mut engine = Engine::new(rig);
        engine.schedule(60, Event::FailFeed(FeedId::B));
        engine.schedule(200, Event::RestoreFeed(FeedId::B));
        let trace = engine.run(340);

        // SB dark during the outage, alive again afterwards.
        assert!(trace.server_power[&sb][150] < 1.0, "SB should be dark");
        let sb_after = Trace::tail_mean(&trace.server_power[&sb], 20);
        assert!(
            sb_after > 300.0,
            "SB should recover after the repair, got {sb_after:.0}"
        );
        assert_eq!(trace.lost_servers, vec![(60, sb)]);

        // SC's Y-side supply carries load again at the end.
        let y = &trace.supply_power[&(sc, SupplyIndex::SECOND)];
        assert!(y[150] < 1.0);
        assert!(y[339] > 100.0, "SC Y supply should resume: {}", y[339]);

        // Both trees are budgeting again.
        assert_eq!(engine.plane().trees().len(), 2);
        assert!(trace.trips.is_empty());
    }

    #[test]
    fn dynamic_priority_promotion_shifts_power() {
        // SB starts low priority and capped; a scheduler promotes it to
        // P2 (above SA's P1) at t=80 — its power must rise toward demand
        // while SA yields.
        let rig = priority_rig(RigConfig::table2());
        let sa = rig.server("SA");
        let sb = rig.server("SB");
        let mut engine = Engine::new(rig);
        engine.schedule(
            80,
            Event::SetPriority(sb, capmaestro_topology::Priority(2)),
        );
        let trace = engine.run(200);
        let sb_before = Trace::tail_mean(&trace.server_power[&sb][..80], 10);
        let sb_after = Trace::tail_mean(&trace.server_power[&sb], 20);
        assert!(sb_before < 300.0, "SB should start capped: {sb_before}");
        assert!(
            sb_after > 400.0,
            "promoted SB should approach its 413 W demand: {sb_after}"
        );
        let sa_after = Trace::tail_mean(&trace.server_power[&sa], 20);
        assert!(sa_after < 300.0, "demoted-by-comparison SA should yield: {sa_after}");
    }

    #[test]
    fn same_second_events_apply_in_schedule_order_and_past_events_next_step() {
        let rig = priority_rig(RigConfig::table2());
        let sa = rig.server("SA");
        let mut engine = Engine::new(rig);
        let demand = |engine: &Engine| engine.server(sa).expect("SA").offered_demand();
        // Scheduled out of time order; the two t=5 events land in the
        // order they were scheduled, so the later one wins.
        engine.schedule(5, Event::SetDemand(sa, Watts::new(300.0)));
        engine.schedule(3, Event::SetDemand(sa, Watts::new(250.0)));
        engine.schedule(5, Event::SetDemand(sa, Watts::new(200.0)));
        for _ in 0..5 {
            engine.step();
        }
        assert_eq!(demand(&engine), Watts::new(250.0));
        engine.step();
        assert_eq!(demand(&engine), Watts::new(200.0));
        // An event scheduled in the past applies at the next step.
        engine.schedule(1, Event::SetDemand(sa, Watts::new(350.0)));
        assert_eq!(demand(&engine), Watts::new(200.0));
        engine.step();
        assert_eq!(demand(&engine), Watts::new(350.0));
    }

    /// `step` is the serving path: after N of them the series maps are
    /// empty, while the event logs and the clock match a recorded run of
    /// the same N seconds.
    #[test]
    fn step_records_the_event_logs_but_no_series() {
        // SPO reclaims stranded watts, and SB goes dark with feed B.
        let stranded = || {
            let mut engine = Engine::new(stranded_rig(RigConfig::table3().with_spo(true)));
            engine.schedule(40, Event::FailFeed(FeedId::B));
            engine
        };
        // Uncapped, the overloaded breaker trips.
        let overloaded = || {
            Engine::with_config(
                crate::scenarios::overloaded_breaker_rig(),
                EngineConfig {
                    control_enabled: false,
                    ..EngineConfig::default()
                },
            )
        };
        let builds: [&dyn Fn() -> Engine; 2] = [&stranded, &overloaded];
        let mut logged = [0, 0, 0];
        for build in builds {
            let reference = build().run(200);
            let mut stepped = build();
            for _ in 0..200 {
                stepped.step();
            }
            let trace = stepped.trace();
            assert!(trace.server_power.is_empty());
            assert!(trace.supply_power.is_empty());
            assert!(trace.throttle.is_empty());
            assert!(trace.dc_cap.is_empty());
            assert!(trace.node_load.is_empty());
            assert_eq!(trace.seconds, 200);
            assert_eq!(trace.trips, reference.trips);
            assert_eq!(trace.lost_servers, reference.lost_servers);
            assert_eq!(trace.stranded, reference.stranded);
            logged[0] += trace.trips.len();
            logged[1] += trace.lost_servers.len();
            logged[2] += trace.stranded.iter().filter(|(_, w)| *w > 0.0).count();
        }
        assert!(
            logged.iter().all(|&n| n > 0),
            "every log saw an entry: {logged:?}"
        );
    }

    /// The `dc_cap` series records each server's live cap, so a manual
    /// round's caps show up in the next recorded second.
    #[test]
    fn dc_cap_series_records_caps_of_a_manual_round() {
        let rig = priority_rig(RigConfig::table2());
        let ids: Vec<ServerId> = rig.farm.iter().map(|(id, _)| id).collect();
        let mut engine = Engine::new(rig);
        engine.run(121);
        let cut = engine.plane().root_budgets_now().iter().map(|&b| b * 0.8).collect();
        engine.plane_mut().set_root_budgets(cut);
        let report = engine.run_control_round();
        let trace = engine.run(1);
        assert_eq!(ids.len(), 4);
        for id in ids {
            let cap = report.dc_caps[&id];
            assert_eq!(engine.server(id).expect("farm server").dc_cap(), Some(cap));
            let series = &trace.dc_cap[&id];
            assert!(cap.as_f64() < series[120], "the cut lowers {id:?}'s cap");
            assert_eq!(series[121].to_bits(), cap.as_f64().to_bits(), "{id:?}");
        }
    }

    /// The incremental load index against a from-scratch rebuild. Every
    /// stepped second asserts (under `cfg(test)`, inside
    /// [`Engine::step`]) that the loads equal a rebuild bitwise
    /// ([`LoadIndex::assert_matches_rebuild`]); this test drives a seeded schedule through every way a
    /// supply load moves: demand steps, supply failures, standby, a feed
    /// lost and restored, telemetry faults (the interposed sense path), and
    /// uncapped breaker trips followed by a restore that re-closes them.
    #[test]
    fn incremental_loads_match_a_rebuild_every_second() {
        use crate::scenarios::{datacenter_rig, DataCenterRigConfig};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x10AD);
        let rig = datacenter_rig(&DataCenterRigConfig::small());
        let ids: Vec<ServerId> = rig.farm.ids().to_vec();
        let mut engine = Engine::new(rig);
        // Standby needs both supplies working, so each server gets one
        // kind of event: demand steps and telemetry faults, supply
        // failures, or standby spells outside feed B's outage.
        for _ in 0..60 {
            let server = ids[rng.random_range(0..ids.len())];
            let supply = SupplyIndex(rng.random_range(0..2));
            let at = rng.random_range(1..300);
            match server.0 % 3 {
                0 => {
                    let demand = Watts::new(rng.random_range(150.0..500.0));
                    engine.schedule(at, Event::SetDemand(server, demand));
                    let fault = FaultKind::NoisySensor { sigma_w: 5.0 };
                    engine.schedule(at, Event::InjectFault(server, fault));
                    engine.schedule(at + 10, Event::ClearFault(server));
                }
                1 => {
                    engine.schedule(at, Event::FailSupply(server, supply));
                }
                _ => {
                    let start = if at < 150 { at % 90 + 1 } else { at % 60 + 205 };
                    engine.schedule(start, Event::SetStandby(server, supply, true));
                    engine.schedule(start + 10, Event::SetStandby(server, supply, false));
                }
            }
        }
        engine.schedule(120, Event::FailFeed(FeedId::B));
        engine.schedule(200, Event::RestoreFeed(FeedId::B));
        let mut moved = 0;
        let mut interposed = 0;
        let mut last = engine.load_index.loads.clone();
        for _ in 0..300 {
            engine.step();
            moved += usize::from(engine.load_index.loads != last);
            interposed += usize::from(engine.delivered_readings().is_some());
            last.clone_from(&engine.load_index.loads);
        }
        assert!(moved > 100, "loads moved in only {moved} seconds");
        assert!(interposed > 0, "no second sensed through the fault layer");
        assert!(!engine.trace().lost_servers.is_empty(), "the feed loss darkened no server");

        // Uncapped and overloaded: feed A's loss trips every CDU phase on
        // feed B (the mirror of `without_capping_the_same_failure_trips_
        // breakers`). Restoring feed B re-closes its tripped breakers,
        // whose loads did not move, and repowers the fleet onto them, so
        // they must step again and trip a second time.
        let mut config = DataCenterRigConfig::small();
        config.utilization = 1.0;
        config.jitter_std = 0.0;
        config.params.servers_per_rack = 45;
        let mut engine = Engine::with_config(
            datacenter_rig(&config),
            EngineConfig {
                control_enabled: false,
                ..EngineConfig::default()
            },
        );
        engine.schedule(40, Event::FailFeed(FeedId::A));
        engine.schedule(420, Event::RestoreFeed(FeedId::B));
        for _ in 0..800 {
            engine.step();
        }
        let trips = &engine.trace().trips;
        let first = trips.iter().filter(|(t, _, _)| *t < 420).count();
        assert!(first > 0, "the overload tripped nothing");
        assert_eq!(trips.len(), 2 * first, "re-closed breakers trip again: {trips:?}");
        assert!(trips.iter().all(|(_, feed, _)| *feed == FeedId::B));
    }

    #[test]
    fn tail_mean_edge_cases() {
        assert_eq!(Trace::tail_mean(&[], 5), 0.0);
        assert_eq!(Trace::tail_mean(&[2.0, 4.0], 5), 3.0);
        assert_eq!(Trace::tail_mean(&[1.0, 2.0, 3.0, 4.0], 2), 3.5);
    }

    #[test]
    fn energy_accounting() {
        let rig = priority_rig(RigConfig::table2());
        let sa = rig.server("SA");
        let mut engine = Engine::new(rig);
        let trace = engine.run(3600); // one hour
        // SA runs at ~420 W all hour ⇒ ~420 Wh.
        let sa_wh = trace.server_power[&sa].iter().sum::<f64>() / 3600.0;
        assert!((sa_wh - 420.0).abs() < 15.0, "SA energy {sa_wh:.0} Wh");
        // Fleet total ≤ budget × 1 h.
        let total = trace.total_energy_wh();
        assert!(total <= 1240.0 * 1.02, "total {total:.0} Wh");
    }
}
