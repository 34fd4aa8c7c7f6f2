//! The CapMaestro control-plane service (paper §5).
//!
//! [`ControlPlane`] is the synchronous "integral service": every second it
//! records sensor samples ([`ControlPlane::sample`]), and every
//! control period (8 s in the paper) it runs one full round
//! ([`ControlPlane::round`]): estimate demands, gather metrics up every
//! control tree, allocate budgets down, optionally reclaim stranded power,
//! and command per-server DC caps through the capping controllers. The
//! per-server part of that — estimate, stale-hold, fail-safe, PI cap — is
//! the crate-private `leaf` state machine; this module drives it.
//!
//! The multi-threaded rack-/room-worker deployment of §5 lives in
//! [`crate::workers`]; it produces the same decisions, distributed.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use capmaestro_server::{SensorSnapshot, Server, ServerMut, ServerRef, ServerSlab};
use capmaestro_topology::{FeedId, ServerId, SupplyIndex};
use capmaestro_units::{Seconds, Watts};

use crate::alloc::{Allocator, AllocatorKind};
use crate::leaf::{LeafTable, Moved};
use crate::obs::{names, null_recorder, PhaseTimer, Recorder, RoundPhase};
use crate::policy::{CappingPolicy, PolicyKind};
use crate::spo::{optimize_stranded_power_in, SpoScratch};
use crate::tree::{Allocation, ControlTree, SupplyInput};

/// The population of servers under management, keyed by id.
///
/// Per-server state lives in a struct-of-arrays [`ServerSlab`] (sorted id
/// lane + state lanes), so the per-second hot path sweeps contiguous
/// memory instead of chasing a map of boxed servers. Accessors hand out
/// [`ServerRef`] / [`ServerMut`] views that mirror the old `&Server` /
/// `&mut Server` surface; iteration order is id order, as before.
///
/// Stepping is **event-driven**: servers at the exact `f64` fixed point of
/// their settling filter are skipped (see [`ServerSlab`]), which is a
/// bitwise no-op by construction.
#[derive(Debug, Default)]
pub struct Farm {
    /// Sorted server ids; position i maps to slab slot i.
    ids: Vec<ServerId>,
    slab: ServerSlab,
}

impl Farm {
    /// Creates an empty farm.
    pub fn new() -> Self {
        Farm::default()
    }

    /// Adds (or replaces) a server.
    pub fn insert(&mut self, id: ServerId, server: Server) {
        match self.ids.binary_search(&id) {
            Ok(pos) => self.slab.replace(pos, server),
            Err(pos) => {
                self.ids.insert(pos, id);
                self.slab.insert(pos, server);
            }
        }
    }

    /// Borrows a server.
    pub fn get(&self, id: ServerId) -> Option<ServerRef<'_>> {
        self.index_of(id).map(|i| self.slab.view(i))
    }

    /// Mutably borrows a server.
    pub fn get_mut(&mut self, id: ServerId) -> Option<ServerMut<'_>> {
        self.index_of(id).map(|i| self.slab.view_mut(i))
    }

    /// The slot index of a server id, if present (slots are id-ordered
    /// and stable until an insert of a new id).
    pub fn index_of(&self, id: ServerId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The managed server ids, sorted (slot i holds `ids()[i]`).
    pub fn ids(&self) -> &[ServerId] {
        &self.ids
    }

    /// Borrows the server in slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn server_at(&self, idx: usize) -> ServerRef<'_> {
        self.slab.view(idx)
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the farm is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates `(id, server)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ServerId, ServerRef<'_>)> + '_ {
        (0..self.ids.len()).map(move |i| (self.ids[i], self.slab.view(i)))
    }

    /// Visits every server mutably in id order as
    /// `(slot index, id, view)` — the replacement for the old `iter_mut`
    /// (mutable views borrow the whole slab, so they cannot be yielded by
    /// a `std` iterator).
    pub fn for_each_mut(&mut self, mut f: impl FnMut(usize, ServerId, ServerMut<'_>)) {
        for i in 0..self.ids.len() {
            f(i, self.ids[i], self.slab.view_mut(i));
        }
    }

    /// Advances every server by `dt`, event-driven (quiescent servers are
    /// skipped bit-exactly).
    pub fn step_all(&mut self, dt: Seconds) {
        self.slab.step(dt);
    }

    /// Reads every server's sensors into the farm's snapshot cache: only
    /// the snapshots of servers that changed since the last refresh are
    /// recomputed, in place, so the steady state allocates nothing.
    pub fn refresh(&mut self) {
        self.slab.refresh();
    }

    /// The slab behind the farm, slot-indexed like [`Farm::ids`]: its
    /// snapshot cache ([`ServerSlab::snapshot`]) is current as of the last
    /// refresh ([`Farm::refresh`], or a plane's sample or round, which
    /// refresh first), and its generations
    /// ([`ServerSlab::changed_since`]) name the slots a refresh re-sensed.
    pub fn slab(&self) -> &ServerSlab {
        &self.slab
    }

    /// Advances every server by `dt` and syncs `buf` to the refreshed
    /// snapshots. Kept for the benchmark seam's slab rows; the engine
    /// steps with [`Farm::step_all`] and reads the cache through
    /// [`Farm::slab`]. Quiescent servers cost ~zero: no stepping
    /// arithmetic, no re-sensing, no buffer write.
    pub fn step_and_sense_into(&mut self, dt: Seconds, buf: &mut SenseBuffer) {
        self.slab.step(dt);
        self.slab.refresh();
        // A full rebuild when the farm's slot layout changed since the
        // buffer last synced, otherwise `clone_from` on exactly the entries
        // whose snapshots changed — allocation-free in the steady state.
        let n = self.ids.len();
        if buf.layout_gen != self.slab.layout_generation() {
            buf.entries.clear();
            buf.entries.extend(
                (0..n).map(|i| (self.ids[i], self.slab.snapshot(i).clone())),
            );
            buf.layout_gen = self.slab.layout_generation();
        } else {
            for i in 0..n {
                if self.slab.changed_since(i, buf.seen_gen) {
                    buf.entries[i].1.clone_from(self.slab.snapshot(i));
                }
            }
        }
        buf.seen_gen = self.slab.generation();
    }
}

/// A copy of a farm's snapshot cache: `(id, snapshot)` entries in id
/// order, kept in sync with one [`Farm`] by [`Farm::step_and_sense_into`]
/// with zero steady-state allocation. Nothing in the product reads it —
/// the engine and the plane read the farm's own cache — and it stays
/// only because the benchmark seam's `server.slab.*` rows time it.
///
/// A buffer belongs to the farm it was first synced against — syncing it
/// against a different farm is a logic error (the change-tracking
/// generations would not line up).
#[derive(Debug, Default)]
pub struct SenseBuffer {
    entries: Vec<(ServerId, SensorSnapshot)>,
    /// Highest slab refresh generation this buffer has absorbed.
    seen_gen: u64,
    /// Slab layout generation the entry layout was built from.
    layout_gen: u64,
}

impl SenseBuffer {
    /// Creates an empty buffer (first sync does a full rebuild).
    pub fn new() -> Self {
        SenseBuffer::default()
    }

    /// The synced `(id, snapshot)` entries, in id order.
    pub fn entries(&self) -> &[(ServerId, SensorSnapshot)] {
        &self.entries
    }
}

/// Configuration of the control plane.
///
/// Construct with [`PlaneConfig::default`] and the chained `with_*`
/// builders (the same idiom as [`StalenessConfig`] and
/// `DeploymentConfig`):
///
/// ```
/// use capmaestro_core::plane::{PlaneConfig, StalenessConfig};
/// use capmaestro_core::policy::PolicyKind;
///
/// let config = PlaneConfig::default()
///     .with_policy(PolicyKind::LocalPriority)
///     .with_spo(false)
///     .with_staleness(StalenessConfig::default().with_stale_after_rounds(5));
/// assert!(!config.spo);
/// ```
#[derive(Debug, Clone)]
pub struct PlaneConfig {
    /// The capping policy.
    pub policy: PolicyKind,
    /// The budget-split allocator raced at every tree node (the paper's
    /// §4.3.2 waterfall by default; see [`crate::alloc`]).
    pub allocator: AllocatorKind,
    /// Whether to run the stranded-power optimization each round (§4.4).
    pub spo: bool,
    /// The control period (8 s in the paper's deployment).
    pub control_period: Seconds,
    /// The staleness watchdog knobs, applied at plane construction
    /// (reconfigure a live plane with [`ControlPlane::set_staleness`]).
    pub staleness: StalenessConfig,
    /// Where instrumentation goes (phase timings, counters, gauges).
    /// Defaults to [`crate::obs::NullRecorder`], which keeps the hot
    /// path allocation-free and bit-identical; attach a
    /// [`crate::obs::MetricsRegistry`] to export metrics.
    pub recorder: Arc<dyn Recorder>,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        PlaneConfig {
            policy: PolicyKind::GlobalPriority,
            allocator: AllocatorKind::Waterfall,
            spo: true,
            control_period: Seconds::new(8.0),
            staleness: StalenessConfig::default(),
            recorder: null_recorder(),
        }
    }
}

impl PartialEq for PlaneConfig {
    /// Recorders are compared by identity (`Arc::ptr_eq`): two configs
    /// are equal when they would drive the same rounds *and* report to
    /// the same sink.
    fn eq(&self, other: &Self) -> bool {
        self.policy == other.policy
            && self.allocator == other.allocator
            && self.spo == other.spo
            && self.control_period == other.control_period
            && self.staleness == other.staleness
            && Arc::ptr_eq(&self.recorder, &other.recorder)
    }
}

impl PlaneConfig {
    /// Returns the config with the capping policy replaced.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Returns the config with the budget-split allocator replaced.
    #[must_use]
    pub fn with_allocator(mut self, allocator: AllocatorKind) -> Self {
        self.allocator = allocator;
        self
    }

    /// Returns the config with stranded-power optimization on or off.
    #[must_use]
    pub fn with_spo(mut self, spo: bool) -> Self {
        self.spo = spo;
        self
    }

    /// Returns the config with the control period replaced.
    #[must_use]
    pub fn with_control_period(mut self, control_period: Seconds) -> Self {
        self.control_period = control_period;
        self
    }

    /// Returns the config with the staleness watchdog knobs replaced.
    #[must_use]
    pub fn with_staleness(mut self, staleness: StalenessConfig) -> Self {
        self.staleness = staleness;
        self
    }

    /// Returns the config with the instrumentation sink replaced.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }
}

/// The staleness watchdog / fail-safe degradation knobs (paper §4.2's
/// safety argument extended to telemetry faults).
///
/// Every control round, each managed server either refreshed its telemetry
/// since the last round (at least one *plausible* sensor reading was
/// delivered) or it did not. After `stale_after_rounds` consecutive rounds
/// without a refresh the server is declared **stale**: instead of trusting
/// a frozen demand estimate forever, the plane budgets it from a fail-safe
/// demand and clamps its DC cap to match. Over-throttling a blind server
/// is safe; a tripped breaker is not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessConfig {
    /// Consecutive telemetry-free control rounds before a server is
    /// declared stale. Rounds 1..N are the *stale-hold* bridge — the last
    /// good estimate keeps being used, riding out transient sensor drops.
    pub stale_after_rounds: u32,
    /// The AC demand a stale server is budgeted from. `None` (the
    /// default) means the server's own `Pcap_min` — the most conservative
    /// budget that is still guaranteed enforceable.
    pub fail_safe_demand: Option<Watts>,
}

impl Default for StalenessConfig {
    fn default() -> Self {
        StalenessConfig {
            stale_after_rounds: 3,
            fail_safe_demand: None,
        }
    }
}

impl StalenessConfig {
    /// Returns the config with the stale-declaration threshold replaced.
    #[must_use]
    pub fn with_stale_after_rounds(mut self, rounds: u32) -> Self {
        self.stale_after_rounds = rounds;
        self
    }

    /// Returns the config with the fail-safe demand replaced (`None`
    /// falls back to each server's `Pcap_min`).
    #[must_use]
    pub fn with_fail_safe_demand(mut self, demand: Option<Watts>) -> Self {
        self.fail_safe_demand = demand;
        self
    }
}

/// What one control round decided.
///
/// The round pipeline keeps one report and rewrites it in place: the
/// allocations' buffers are reused, and `dc_caps` is a dense slot-indexed
/// [`CapMap`], so commanding a leaf costs one store whether or not its cap
/// moved. The report keeps no index of its own: a `(server, supply)`
/// lookup probes each allocation's [`LeafIndex`](crate::tree::LeafIndex),
/// and the enforce pass reads budgets through the plane's slot-indexed
/// lanes.
#[derive(Debug)]
pub struct RoundReport {
    /// Final allocation per tree (post-SPO when enabled).
    pub allocations: Vec<Allocation>,
    /// Total stranded power reclaimed this round (zero when SPO is off).
    pub stranded_reclaimed: Watts,
    /// The DC cap commanded this round, per server commanded.
    pub dc_caps: CapMap,
}

// Manual impl so `clone_from` is field-wise: a held copy refreshed every
// round (the serving state's `/v1/report` source) reuses its maps and
// vectors instead of allocating a fresh report.
impl Clone for RoundReport {
    fn clone(&self) -> Self {
        RoundReport {
            allocations: self.allocations.clone(),
            stranded_reclaimed: self.stranded_reclaimed,
            dc_caps: self.dc_caps.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.allocations.clone_from(&source.allocations);
        self.stranded_reclaimed = source.stranded_reclaimed;
        self.dc_caps.clone_from(&source.dc_caps);
    }
}

/// A map from server id to the DC cap a round commanded it, laid out
/// densely over a farm's sorted ids: slot `i` holds the cap of the farm's
/// `i`-th server, zero when it was commanded none (a commanded cap is
/// always positive). Reads go by id, as on a `HashMap<ServerId, Watts>`;
/// the round writes by slot, so commanding a server costs one store and
/// no hash. Iteration is in id order.
#[derive(Default)]
pub struct CapMap {
    /// The farm's server ids, sorted: slot `i` is `ids[i]`'s.
    ids: Vec<ServerId>,
    /// Per slot, the commanded cap, or zero for none.
    caps: Vec<Watts>,
    /// How many slots hold a cap.
    len: usize,
}

impl CapMap {
    /// The cap commanded to `id`, if any. Tries slot `id.0` first (a farm
    /// numbered from zero without gaps keeps every id there), then a
    /// binary search.
    pub fn get(&self, id: &ServerId) -> Option<&Watts> {
        let slot = match self.ids.get(id.0 as usize) {
            Some(at) if at == id => id.0 as usize,
            _ => self.ids.binary_search(id).ok()?,
        };
        let cap = &self.caps[slot];
        (*cap != Watts::ZERO).then_some(cap)
    }

    /// Every `(id, cap)` pair, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&ServerId, &Watts)> + '_ {
        self.ids
            .iter()
            .zip(&self.caps)
            .filter(|(_, cap)| **cap != Watts::ZERO)
    }

    /// How many servers were commanded a cap.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no server was commanded a cap.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lays the map out over the sorted `ids`, with no cap anywhere.
    fn reset(&mut self, ids: &[ServerId]) {
        self.ids.clear();
        self.ids.extend_from_slice(ids);
        self.caps.clear();
        self.caps.resize(ids.len(), Watts::ZERO);
        self.len = 0;
    }

    /// The cap in `slot`: zero for none, or for a slot the layout does not
    /// have yet.
    fn at(&self, slot: usize) -> Watts {
        self.caps.get(slot).copied().unwrap_or(Watts::ZERO)
    }

    /// Stores `cap` in `slot`; zero removes it.
    fn set(&mut self, slot: usize, cap: Watts) {
        let was = std::mem::replace(&mut self.caps[slot], cap);
        self.len = self.len + usize::from(cap != Watts::ZERO) - usize::from(was != Watts::ZERO);
    }
}

// Manual impl so `clone_from` is field-wise and reuses both lanes.
impl Clone for CapMap {
    fn clone(&self) -> Self {
        CapMap {
            ids: self.ids.clone(),
            caps: self.caps.clone(),
            len: self.len,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.ids.clone_from(&source.ids);
        self.caps.clone_from(&source.caps);
        self.len = source.len;
    }
}

/// Map equality: the same ids carry the same caps, whatever the layouts.
impl PartialEq for CapMap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl std::ops::Index<&ServerId> for CapMap {
    type Output = Watts;

    /// # Panics
    ///
    /// Panics if `id` was commanded no cap.
    fn index(&self, id: &ServerId) -> &Watts {
        self.get(id)
            .unwrap_or_else(|| panic!("no DC cap commanded to {id}"))
    }
}

impl fmt::Debug for CapMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl RoundReport {
    /// Empty report, ready to be filled by a round.
    fn empty() -> Self {
        RoundReport {
            allocations: Vec::new(),
            stranded_reclaimed: Watts::ZERO,
            dc_caps: CapMap::default(),
        }
    }

    /// The final budget assigned to a supply, if any tree covers it (the
    /// first such tree, in tree order): at most one leaf-index probe per
    /// tree.
    pub fn supply_budget(&self, server: ServerId, supply: SupplyIndex) -> Option<Watts> {
        self.allocations
            .iter()
            .find_map(|a| a.supply_budget(server, supply))
    }

    /// The total budget a server received across its supplies.
    pub fn server_budget(&self, server: ServerId) -> Watts {
        self.allocations
            .iter()
            .flat_map(|a| a.supply_budgets())
            .filter(|(s, _, _)| *s == server)
            .map(|(_, _, w)| w)
            .sum()
    }

    /// Encode the report as a [`MetricsSnapshot`](crate::obs::MetricsSnapshot)
    /// so it can ride the existing `obs::json` exporter/parser pair: the
    /// serving subsystem's `GET /v1/report` renders this snapshot with
    /// [`json::snapshot`](crate::obs::json::snapshot) and clients round-trip
    /// it through [`json::parse`](crate::obs::json::parse).
    ///
    /// Counters carry the report's cardinalities (trees, capped servers);
    /// gauges carry the watt figures (per-tree root and leaf totals, per-
    /// server DC caps, stranded power reclaimed); there are no histograms.
    /// Names follow the registry convention (sorted, labels inline).
    pub fn metrics_snapshot(&self) -> crate::obs::MetricsSnapshot {
        use crate::obs::{CounterSample, GaugeSample, MetricsSnapshot};

        let counters = vec![
            CounterSample {
                name: "capmaestro_report_servers_capped".to_string(),
                value: self.dc_caps.len() as u64,
            },
            CounterSample {
                name: "capmaestro_report_trees".to_string(),
                value: self.allocations.len() as u64,
            },
        ];

        let mut gauges = Vec::with_capacity(self.dc_caps.len() + 2 * self.allocations.len() + 1);
        for (id, cap) in self.dc_caps.iter() {
            gauges.push(GaugeSample {
                name: format!("capmaestro_report_dc_cap_watts{{server=\"{}\"}}", id.0),
                value: cap.as_f64(),
            });
        }
        gauges.push(GaugeSample {
            name: "capmaestro_report_stranded_watts_reclaimed".to_string(),
            value: self.stranded_reclaimed.as_f64(),
        });
        for (tree, allocation) in self.allocations.iter().enumerate() {
            gauges.push(GaugeSample {
                name: format!("capmaestro_report_tree_leaf_watts{{tree=\"{tree}\"}}"),
                value: allocation.total_leaf_budget().as_f64(),
            });
            gauges.push(GaugeSample {
                name: format!("capmaestro_report_tree_root_watts{{tree=\"{tree}\"}}"),
                value: allocation.node_budget(0).as_f64(),
            });
        }
        gauges.sort_by(|a, b| a.name.cmp(&b.name));

        MetricsSnapshot {
            counters,
            gauges,
            histograms: Vec::new(),
        }
    }
}

/// How the per-tree root budgets are determined each round.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetSource {
    /// Fixed budgets, one per tree (operator-managed; must be updated by
    /// hand after a feed failure).
    Fixed(Vec<Watts>),
    /// One contractual budget **per phase**, shared across the redundant
    /// feeds and split each round proportionally to the feeds' estimated
    /// demand on that phase (paper Table 4: "700 kW per phase, split over
    /// two feeds"). Failover is automatic: when a feed's trees are gone,
    /// the survivor inherits the whole phase budget.
    SharedPerPhase(Watts),
}

/// Reusable buffers for the per-round hot path (the "RoundContext" of the
/// round-pipeline design): resolved root budgets, the cached
/// capping-policy object, the SPO scratch (which holds every per-tree round
/// state, with or without the stranded-power pass), and the round report
/// itself.
/// [`ControlPlane::round`] borrows these instead of allocating, so a
/// steady-state sequential round performs no heap allocation.
struct RoundContext {
    root_budgets: Vec<Watts>,
    /// Per tree, the [`BudgetSource::SharedPerPhase`] demand and the leaf
    /// generation it was summed at.
    tree_demands: Vec<(Option<u64>, Watts)>,
    phase_members: Vec<usize>,
    /// The policy object, rebuilt only when the configured kind changes.
    policy: Option<(PolicyKind, Box<dyn CappingPolicy + Send + Sync>)>,
    /// The budget-split allocator, rebuilt only when the configured kind
    /// changes.
    allocator: Option<(AllocatorKind, Box<dyn Allocator>)>,
    spo: SpoScratch,
    /// Farm slots ↔ tree leaves.
    lanes: Lanes,
    report: RoundReport,
    /// Whether `report` holds a completed round.
    valid: bool,
    /// Cumulative (summarized, dirty-skipped) gather totals already
    /// reported to the recorder, so each round reports only its delta.
    last_gather: (u64, u64),
}

impl Default for RoundContext {
    fn default() -> Self {
        RoundContext {
            root_budgets: Vec::new(),
            tree_demands: Vec::new(),
            phase_members: Vec::new(),
            policy: None,
            allocator: None,
            spo: SpoScratch::new(),
            lanes: Lanes::default(),
            report: RoundReport::empty(),
            valid: false,
            last_gather: (0, 0),
        }
    }
}

impl RoundContext {
    /// Drops the cached incremental allocation state (SPO routes, all
    /// per-tree round states and demands, and the lanes) — required when
    /// the tree set changes.
    fn invalidate_allocation_caches(&mut self) {
        self.spo.invalidate();
        self.tree_demands.clear();
        self.lanes.layout = None;
    }
}

/// A server supply's place in the trees: leaf slot `leaf` of tree `tree`.
#[derive(Debug, Clone, Copy)]
struct TreeLeaf {
    leaf: u32,
    tree: u16,
    supply: SupplyIndex,
    /// Whether enforcement reads the supply's budget here: the first tree
    /// covering the supply wins.
    budgeted: bool,
}

/// The round's slot-indexed map between farm slots and tree leaves, both
/// ways. Rebuilt only when the leaf table is re-laid or the tree set
/// changes; in between, a farm slot costs no `Farm::index_of` search and a
/// supply no hash probe.
#[derive(Debug, Default)]
struct Lanes {
    /// The leaf-table layout the lanes were built over; `None` until built
    /// and after the tree set changed.
    layout: Option<u64>,
    /// Per tree, the farm slot of each leaf slot's server.
    gather: Vec<Vec<u32>>,
    /// Server slot `i`'s tree leaves are `leaves[starts[i]..starts[i + 1]]`,
    /// by supply index, then tree index.
    starts: Vec<u32>,
    leaves: Vec<TreeLeaf>,
}

impl Lanes {
    /// Rebuilds the lanes over `farm`'s slots.
    ///
    /// # Panics
    ///
    /// Panics if a tree names a server the farm does not hold.
    fn rebuild(&mut self, layout: u64, farm: &Farm, trees: &[ControlTree]) {
        self.gather.resize_with(trees.len(), Vec::new);
        let mut by_slot = Vec::new();
        for (t, (tree, lane)) in trees.iter().zip(&mut self.gather).enumerate() {
            let index = tree.arena().leaf_index();
            let tree = u16::try_from(t).expect("at most 65 536 control trees");
            lane.clear();
            for leaf in 0..index.len() {
                let (server, supply) = index.pair(leaf);
                let slot = farm
                    .index_of(server)
                    .unwrap_or_else(|| panic!("tree references unknown {server}"));
                lane.push(slot as u32);
                let at = TreeLeaf { leaf: leaf as u32, tree, supply, budgeted: false };
                by_slot.push((slot as u32, at));
            }
        }
        // Stable: among trees covering the same supply, the first stays first.
        by_slot.sort_by_key(|&(slot, at)| (slot, at.supply));
        let servers = farm.len();
        self.starts.clear();
        self.starts.resize(servers + 1, 0);
        for &(slot, _) in &by_slot {
            self.starts[slot as usize + 1] += 1;
        }
        for i in 0..servers {
            self.starts[i + 1] += self.starts[i];
        }
        self.leaves.clear();
        let mut last = None;
        self.leaves.extend(by_slot.into_iter().map(|(slot, at)| {
            let budgeted = last.replace((slot, at.supply)) != Some((slot, at.supply));
            TreeLeaf { budgeted, ..at }
        }));
        self.layout = Some(layout);
    }

    /// Server slot `slot`'s tree leaves.
    fn of(&self, slot: usize) -> &[TreeLeaf] {
        &self.leaves[self.starts[slot] as usize..self.starts[slot + 1] as usize]
    }
}

impl fmt::Debug for RoundContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoundContext")
            .field("valid", &self.valid)
            .finish_non_exhaustive()
    }
}

/// Resolves the per-tree root budgets into `out`. For
/// [`BudgetSource::SharedPerPhase`], each phase's contractual budget is
/// split across that phase's trees proportionally to their estimated
/// demand (equal split when total demand is zero). `tree_demands` and
/// `members` are caller-owned scratch so the round hot path allocates
/// nothing; `tree_demands` also memoizes each tree's demand by its leaf
/// generation, so it must be cleared when the tree set changes.
fn resolve_root_budgets_into(
    trees: &[ControlTree],
    source: &BudgetSource,
    tree_demands: &mut Vec<(Option<u64>, Watts)>,
    members: &mut Vec<usize>,
    out: &mut Vec<Watts>,
) {
    out.clear();
    match source {
        BudgetSource::Fixed(budgets) => out.extend_from_slice(budgets),
        BudgetSource::SharedPerPhase(per_phase) => {
            // Demand per tree = Σ leaf demand × share, re-summed only for
            // a tree whose leaves changed since.
            tree_demands.resize(trees.len(), (None, Watts::ZERO));
            for (tree, (seen, total)) in trees.iter().zip(tree_demands.iter_mut()) {
                if *seen == Some(tree.leaf_generation()) {
                    continue;
                }
                *seen = Some(tree.leaf_generation());
                *total = Watts::ZERO;
                for idx in 0..tree.spec().len() {
                    if let (Some(input), true) =
                        (tree.input_at(idx), tree.spec().node(idx).is_leaf())
                    {
                        *total += input.demand * input.share;
                    }
                }
            }
            out.resize(trees.len(), Watts::ZERO);
            for phase in capmaestro_topology::Phase::ALL {
                members.clear();
                members.extend(
                    trees
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t.spec().phase() == phase)
                        .map(|(i, _)| i),
                );
                if members.is_empty() {
                    continue;
                }
                let total: Watts = members.iter().map(|&i| tree_demands[i].1).sum();
                for &i in members.iter() {
                    out[i] = if total > Watts::ZERO {
                        *per_phase * (tree_demands[i].1 / total)
                    } else {
                        *per_phase / members.len() as f64
                    };
                }
            }
        }
    }
}

/// The CapMaestro control-plane service.
///
/// # Examples
///
/// Managing the paper's Fig. 2 rig end to end:
///
/// ```
/// use capmaestro_core::plane::{ControlPlane, Farm, PlaneConfig};
/// use capmaestro_core::tree::ControlTree;
/// use capmaestro_server::{Server, ServerConfig};
/// use capmaestro_topology::presets::figure2_feed;
/// use capmaestro_units::{Seconds, Watts};
///
/// let topo = figure2_feed();
/// let trees: Vec<ControlTree> = topo
///     .control_tree_specs()
///     .into_iter()
///     .map(ControlTree::new)
///     .collect();
/// let mut farm = Farm::new();
/// for (id, _) in topo.servers() {
///     // The Fig. 2 rig is single-corded: one supply per server.
///     let mut server = Server::new(ServerConfig::paper_default().single_corded());
///     server.set_offered_demand(Watts::new(430.0));
///     server.settle();
///     farm.insert(id, server);
/// }
/// let mut plane = ControlPlane::new(trees, vec![Watts::new(1240.0)], PlaneConfig::default());
/// plane.sample(&mut farm);
/// let report = plane.round(&mut farm);
/// let sa = topo.server_by_name("SA").unwrap();
/// // The high-priority server is budgeted its full demand.
/// assert!(report.server_budget(sa) > Watts::new(420.0));
/// ```
#[derive(Debug)]
pub struct ControlPlane {
    trees: Vec<ControlTree>,
    budget_source: BudgetSource,
    config: PlaneConfig,
    /// Per-server control state, indexed by the farm's server slot.
    leaves: LeafTable,
    /// Dynamic priority overrides, e.g. from a job scheduler (§7's
    /// "coordination of job scheduling with power management").
    priority_overrides: HashMap<ServerId, capmaestro_topology::Priority>,
    /// Trees parked by [`ControlPlane::fail_feed`], with their fixed
    /// budgets where applicable, awaiting [`ControlPlane::restore_feed`].
    parked: Vec<(ControlTree, Option<Watts>)>,
    /// The topology's static priorities, snapshotted at construction so
    /// cleared overrides fall back correctly.
    static_priorities: HashMap<ServerId, capmaestro_topology::Priority>,
    /// Reusable round buffers (see [`RoundContext`]).
    ctx: RoundContext,
}

impl ControlPlane {
    /// Creates a plane over the given control trees and their root budgets.
    ///
    /// # Panics
    ///
    /// Panics if the numbers of trees and budgets differ.
    pub fn new(trees: Vec<ControlTree>, root_budgets: Vec<Watts>, config: PlaneConfig) -> Self {
        assert_eq!(
            trees.len(),
            root_budgets.len(),
            "one root budget per control tree is required"
        );
        ControlPlane::with_budget_source(trees, BudgetSource::Fixed(root_budgets), config)
    }

    /// Creates a plane with an explicit [`BudgetSource`] — use
    /// [`BudgetSource::SharedPerPhase`] for the paper's contractual-budget
    /// arrangement with automatic failover.
    /// # Panics
    ///
    /// Panics if `config.staleness.stale_after_rounds` is zero (see
    /// [`ControlPlane::set_staleness`]).
    pub fn with_budget_source(
        trees: Vec<ControlTree>,
        budget_source: BudgetSource,
        config: PlaneConfig,
    ) -> Self {
        if let BudgetSource::Fixed(budgets) = &budget_source {
            assert_eq!(
                trees.len(),
                budgets.len(),
                "one root budget per control tree is required"
            );
        }
        assert!(
            config.staleness.stale_after_rounds >= 1,
            "stale_after_rounds must be at least 1"
        );
        let mut static_priorities = HashMap::new();
        for tree in &trees {
            for (_, leaf) in tree.spec().leaves() {
                static_priorities.insert(leaf.server, leaf.priority);
            }
        }
        ControlPlane {
            trees,
            budget_source,
            config,
            leaves: LeafTable::default(),
            priority_overrides: HashMap::new(),
            parked: Vec::new(),
            static_priorities,
            ctx: RoundContext::default(),
        }
    }

    /// Reconfigures the staleness watchdog (defaults:
    /// [`StalenessConfig::default`]).
    ///
    /// # Panics
    ///
    /// Panics if `stale_after_rounds` is zero — every server would be
    /// permanently stale.
    pub fn set_staleness(&mut self, config: StalenessConfig) {
        assert!(
            config.stale_after_rounds >= 1,
            "stale_after_rounds must be at least 1"
        );
        self.config.staleness = config;
    }

    /// Replaces the instrumentation sink (e.g. attaching a
    /// [`crate::obs::MetricsRegistry`] to a plane built with the default
    /// [`crate::obs::NullRecorder`]).
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.config.recorder = recorder;
    }

    /// The instrumentation sink rounds report to.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.config.recorder
    }

    /// Servers the last round declared stale (no plausible telemetry for
    /// at least `stale_after_rounds` rounds), in id order.
    pub fn stale_servers(&self) -> Vec<ServerId> {
        self.leaves.stale_ids().collect()
    }

    /// How many servers the last round declared stale — the O(1) count
    /// behind [`ControlPlane::stale_servers`].
    pub fn stale_count(&self) -> usize {
        self.leaves.stale_count()
    }

    /// The per-tree root budgets the next round would resolve (the fixed
    /// budgets, or the demand-proportional split of a shared phase
    /// budget). Exposed for invariant auditing.
    pub fn root_budgets_now(&self) -> Vec<Watts> {
        self.resolve_root_budgets()
    }

    /// Resolves the per-tree root budgets for this round (see
    /// [`resolve_root_budgets_into`]).
    fn resolve_root_budgets(&self) -> Vec<Watts> {
        let mut out = Vec::new();
        let (mut demands, mut members) = (Vec::new(), Vec::new());
        resolve_root_budgets_into(
            &self.trees,
            &self.budget_source,
            &mut demands,
            &mut members,
            &mut out,
        );
        out
    }

    /// The configuration.
    pub fn config(&self) -> &PlaneConfig {
        &self.config
    }

    /// Switches the budget-split allocator for every subsequent round. The
    /// cached summaries stay (they do not depend on the allocator); each
    /// tree's budget memo is keyed by allocator, so the next round
    /// re-splits every node.
    pub fn set_allocator(&mut self, kind: AllocatorKind) {
        self.config.allocator = kind;
    }

    /// The managed control trees.
    pub fn trees(&self) -> &[ControlTree] {
        &self.trees
    }

    /// Replaces the per-tree root budgets (e.g. handing the contractual
    /// budget to the surviving feed after a failure).
    ///
    /// # Panics
    ///
    /// Panics if the count differs from the tree count.
    pub fn set_root_budgets(&mut self, budgets: Vec<Watts>) {
        assert_eq!(budgets.len(), self.trees.len());
        self.budget_source = BudgetSource::Fixed(budgets);
    }

    /// Parks all trees of a failed feed; returns how many were parked.
    /// With [`BudgetSource::Fixed`], callers must also
    /// [`ControlPlane::set_root_budgets`] for the remaining trees and mark
    /// the affected server supplies failed; with
    /// [`BudgetSource::SharedPerPhase`] the survivor inherits the phase
    /// budget automatically. [`ControlPlane::restore_feed`] reverses this
    /// after the repair.
    pub fn fail_feed(&mut self, feed: FeedId) -> usize {
        let mut removed = 0;
        let mut kept_trees = Vec::new();
        let mut kept_budgets = Vec::new();
        let fixed = match &mut self.budget_source {
            BudgetSource::Fixed(budgets) => Some(std::mem::take(budgets)),
            BudgetSource::SharedPerPhase(_) => None,
        };
        for (i, tree) in self.trees.drain(..).enumerate() {
            if tree.spec().feed() == feed {
                removed += 1;
                self.parked
                    .push((tree, fixed.as_ref().map(|f| f[i])));
            } else {
                if let Some(fixed) = &fixed {
                    kept_budgets.push(fixed[i]);
                }
                kept_trees.push(tree);
            }
        }
        self.trees = kept_trees;
        if fixed.is_some() {
            self.budget_source = BudgetSource::Fixed(kept_budgets);
        }
        // Tree indices shifted: the cached routes and incremental gather
        // states no longer line up with the tree list.
        self.ctx.invalidate_allocation_caches();
        removed
    }

    /// Returns a repaired feed's parked trees to service; returns how many
    /// were restored. With [`BudgetSource::Fixed`], each restored tree
    /// resumes the budget it held when parked (adjust afterwards via
    /// [`ControlPlane::set_root_budgets`] if the operator re-splits).
    pub fn restore_feed(&mut self, feed: FeedId) -> usize {
        let mut restored = 0;
        let mut still_parked = Vec::new();
        for (tree, budget) in self.parked.drain(..) {
            if tree.spec().feed() == feed {
                if let BudgetSource::Fixed(budgets) = &mut self.budget_source {
                    budgets.push(budget.unwrap_or(Watts::ZERO));
                }
                self.trees.push(tree);
                restored += 1;
            } else {
                still_parked.push((tree, budget));
            }
        }
        self.parked = still_parked;
        if restored > 0 {
            self.ctx.invalidate_allocation_caches();
        }
        restored
    }

    /// Overrides a server's priority from now on — the hook a job
    /// scheduler uses to communicate dynamic priorities (paper §7). Takes
    /// effect at the next control round.
    pub fn set_priority(
        &mut self,
        server: ServerId,
        priority: capmaestro_topology::Priority,
    ) {
        self.priority_overrides.insert(server, priority);
    }

    /// Removes a dynamic priority override, restoring the topology's
    /// static priority.
    pub fn clear_priority(&mut self, server: ServerId) {
        self.priority_overrides.remove(&server);
    }

    /// The priority the next control round will allocate this server at:
    /// its dynamic override when one is set, otherwise the static
    /// priority recorded at plane construction. `None` for servers the
    /// plane has never heard of. Auditors use this to check the
    /// priority-ordering invariant against the same view the allocator
    /// sees.
    pub fn effective_priority(
        &self,
        server: ServerId,
    ) -> Option<capmaestro_topology::Priority> {
        self.priority_overrides
            .get(&server)
            .or_else(|| self.static_priorities.get(&server))
            .copied()
    }

    /// The topology's static priority for a server, snapshotted at plane
    /// construction — the value [`ControlPlane::clear_priority`] falls
    /// back to. `None` for servers the plane has never heard of.
    pub fn static_priority(
        &self,
        server: ServerId,
    ) -> Option<capmaestro_topology::Priority> {
        self.static_priorities.get(&server).copied()
    }

    /// Records one per-second sensor sample for every server (throttle
    /// level and total AC power), read from the farm's snapshot cache:
    /// quiescent servers are not re-sensed. Only leaves a reading could
    /// change observe it; one whose estimator its unchanged reading already
    /// saturates would only be marked fresh, which the leaf table records
    /// for all of them at once. The steady state performs **no heap
    /// allocation** (`crates/sim/tests/zero_alloc.rs` covers this path),
    /// and a settled fleet visits no leaf.
    ///
    /// A plane manages one farm: the farm's layout and change generations
    /// are what tell it which servers changed.
    pub fn sample(&mut self, farm: &mut Farm) {
        let recorder = Arc::clone(&self.config.recorder);
        let _sense_timer = PhaseTimer::start(&*recorder, RoundPhase::Sense.metric_name());
        self.absorb(farm);
        let slab = &farm.slab;
        self.leaves
            .sweep(|slot| (slab.snapshot(slot), slab.view(slot).config().model()));
    }

    /// Brings the leaf table up to date with the farm: refreshes the
    /// farm's snapshot cache, lays the table out over the farm's slots, and
    /// tells it what became of every server that changed since the last
    /// call. A server whose reading and shape held only had its cap set —
    /// by its own leaf, unless the cap is not the one the leaf commanded.
    fn absorb(&mut self, farm: &mut Farm) {
        farm.slab.refresh();
        let slab = &farm.slab;
        let commanded = &self.ctx.report.dc_caps;
        self.leaves.fit(slab.layout_generation(), farm.ids.iter().copied());
        self.leaves.absorb(slab.generation(), |slot, since, leaf| {
            if !slab.changed_since(slot, since) {
                Moved::Nothing
            } else if slab.reshaped_since(slot, since) || !leaf.holds(slab.snapshot(slot)) {
                Moved::Server
            } else {
                let bits = |w: Watts| w.as_f64().to_bits();
                let ours = commanded.at(slot);
                let cap = slab.view(slot).dc_cap();
                if ours != Watts::ZERO && cap.map(bits) != Some(bits(ours)) {
                    Moved::Cap
                } else {
                    Moved::Nothing
                }
            }
        });
    }

    /// Feeds already-delivered sensor snapshots to the demand estimators —
    /// the path for callers (like the simulation engine) that sensed the
    /// farm this second anyway, possibly through a fault-injecting
    /// interposer. A reading absent from `snaps` models a dropped reading;
    /// one for a server the farm does not hold is ignored.
    ///
    /// Each reading is screened against the server's power envelope;
    /// implausible readings are discarded and do **not** count as a
    /// telemetry refresh, so a sensor returning garbage degrades exactly
    /// like a silent one.
    pub fn record_snapshots(&mut self, farm: &Farm, snaps: &[(ServerId, SensorSnapshot)]) {
        let recorder = Arc::clone(&self.config.recorder);
        let _sense_timer = PhaseTimer::start(&*recorder, RoundPhase::Sense.metric_name());
        self.leaves
            .fit(farm.slab.layout_generation(), farm.ids.iter().copied());
        // Readings come in id order, so a reading's slot is almost always
        // the one after its predecessor's; search only when it is not.
        let mut next = 0;
        for (id, snap) in snaps {
            let slot = if farm.ids().get(next) == Some(id) {
                next
            } else if let Some(slot) = farm.index_of(*id) {
                slot
            } else {
                continue;
            };
            next = slot + 1;
            let model = farm.server_at(slot).config().model();
            self.leaves.observe(slot, snap, model);
        }
    }

    /// The report of the last completed round, if any round has run since
    /// construction / [`ControlPlane::reset_round_cache`].
    pub fn last_report(&self) -> Option<&RoundReport> {
        if self.ctx.valid {
            Some(&self.ctx.report)
        } else {
            None
        }
    }

    /// Drops every reusable round buffer and cached incremental state, so
    /// the next sample observes every reading and the next round visits
    /// every leaf and runs the one round path cold, as a fresh plane
    /// would. Differential tests use this to compare warm rounds against
    /// cold ones; it is never required for correctness.
    pub fn reset_round_cache(&mut self) {
        self.ctx = RoundContext::default();
        self.leaves.revisit_all();
    }

    /// Runs one control round — estimate → gather → allocate (→ SPO) →
    /// enforce — writing the decisions into the plane-owned
    /// [`RoundReport`] and returning it (cached semantics: the report is
    /// also available afterwards via [`ControlPlane::last_report`]).
    ///
    /// A steady-state round performs **no heap allocation**: per-server
    /// state is a dense slot-indexed table, and root budgets, the policy
    /// object, per-tree gather states (reused incrementally — only
    /// subtrees with a dirtied leaf are re-summarized and re-split), SPO
    /// routes/overlays, the lanes, and the report buffers all live in the
    /// plane's round context. Every phase runs on the calling thread in id
    /// / tree-index order.
    ///
    /// The per-server phases visit only leaves whose inputs may have
    /// changed: a server whose state moved, a leaf still absorbing readings
    /// or still stepping its cap, every leaf after a round without a
    /// sample, and — for enforcement — every leaf when a budget moved.
    /// Any other leaf is settled, and each of its transitions would be the
    /// identity (see `leaf.rs`), so skipping it changes no bit.
    ///
    /// When a [`Recorder`] is attached ([`PlaneConfig::with_recorder`] /
    /// [`ControlPlane::set_recorder`]), the round reports per-phase wall
    /// times, the stale-server gauge, fail-safe cap enforcements, the
    /// stranded-watts-reclaimed gauge, the gather dirty-tracking counters,
    /// and how many leaves it commanded. With the default
    /// [`crate::obs::NullRecorder`] none of that is computed and the round
    /// is bit-identical to an uninstrumented one.
    pub fn round(&mut self, farm: &mut Farm) -> &RoundReport {
        let recorder = Arc::clone(&self.config.recorder);
        let recorder: &dyn Recorder = &*recorder;
        recorder.counter_add(names::ROUNDS_TOTAL, 1);
        let estimate_timer =
            PhaseTimer::start(recorder, RoundPhase::Estimate.metric_name());

        // 0. Age each visited leaf one round (fresh → stale-hold →
        //    fail-safe) and settle the demand its server is budgeted from:
        //    a stale server's is its fail-safe value, not a frozen estimate.
        let StalenessConfig {
            stale_after_rounds,
            fail_safe_demand: fail_safe,
        } = self.config.staleness;
        self.absorb(farm);
        self.leaves.age(stale_after_rounds, |slot, leaf| {
            let server = farm.server_at(slot);
            let model = server.config().model();
            leaf.refresh_demand(model, fail_safe, || server.sense().total_ac);
        });
        drop(estimate_timer);
        if recorder.enabled() {
            recorder.gauge_set(names::STALE_SERVERS, self.leaves.stale_count() as f64);
        }

        // 1. Refresh the visited leaves' tree inputs — every leaf's when the
        //    lanes were rebuilt — from those demands and the servers' live
        //    PSU state. The refresh value-compares against the tree's
        //    stored inputs, so unchanged leaves stay clean and the gather
        //    below reuses their cached metrics.
        let gather_timer = PhaseTimer::start(recorder, RoundPhase::Gather.metric_name());
        let relaid = self.ctx.lanes.layout != Some(self.leaves.layout());
        if relaid {
            self.ctx.lanes.rebuild(self.leaves.layout(), farm, &self.trees);
            self.ctx.report.dc_caps.reset(farm.ids());
        }
        {
            let overrides = &self.priority_overrides;
            let statics = &self.static_priorities;
            let farm_ref = &*farm;
            let leaves = &self.leaves;
            let lanes = &self.ctx.lanes;
            let input = |slot: usize, supply: SupplyIndex| {
                let srv = farm_ref.server_at(slot);
                let model = srv.config().model();
                SupplyInput {
                    demand: leaves.leaf(slot).demand,
                    cap_min: model.cap_min(),
                    cap_max: model.cap_max(),
                    share: srv.bank().effective_share(supply.index()),
                }
            };
            if !overrides.is_empty() {
                for tree in &mut self.trees {
                    tree.set_priorities_with(|server| {
                        overrides.get(&server).copied().unwrap_or_else(|| {
                            statics
                                .get(&server)
                                .copied()
                                .unwrap_or(capmaestro_topology::Priority::LOW)
                        })
                    });
                }
            }
            if relaid {
                for (tree, lane) in self.trees.iter_mut().zip(&lanes.gather) {
                    tree.set_slot_inputs_with(|leaf, _, supply| input(lane[leaf] as usize, supply));
                }
            } else {
                for slot in leaves.visiting() {
                    for at in lanes.of(slot) {
                        let tree = &mut self.trees[at.tree as usize];
                        tree.set_slot_input(at.leaf as usize, input(slot, at.supply));
                    }
                }
            }
        }
        drop(gather_timer);

        // 2. Allocate, with the stranded-power pass when it is on, tree by
        //    tree into the round context's reusable states.
        let trees = &self.trees;
        let RoundContext {
            root_budgets,
            tree_demands,
            phase_members,
            policy,
            allocator,
            spo,
            lanes,
            report,
            valid,
            last_gather,
        } = &mut self.ctx;
        resolve_root_budgets_into(
            trees,
            &self.budget_source,
            tree_demands,
            phase_members,
            root_budgets,
        );
        if policy.as_ref().map(|(kind, _)| *kind) != Some(self.config.policy) {
            *policy = Some((self.config.policy, self.config.policy.policy()));
        }
        let policy_dyn = policy.as_ref().expect("policy cached above").1.as_ref();
        if allocator.as_ref().map(|(kind, _)| *kind) != Some(self.config.allocator) {
            *allocator = Some((self.config.allocator, self.config.allocator.allocator()));
        }
        let allocator_dyn = allocator
            .as_ref()
            .expect("allocator cached above")
            .1
            .as_ref();
        report.stranded_reclaimed = optimize_stranded_power_in(
            trees,
            root_budgets,
            policy_dyn,
            allocator_dyn,
            self.config.spo,
            spo,
            &mut report.allocations,
            recorder,
        );
        if recorder.enabled() {
            recorder.gauge_set(
                names::STRANDED_WATTS_RECLAIMED,
                report.stranded_reclaimed.as_f64(),
            );
            // Dirty-tracking effectiveness: how many tree nodes the
            // incremental gather actually re-summarized vs skipped. The
            // states accumulate across rounds, so report deltas.
            let (summarized, skipped) = spo.gather_stats();
            recorder.counter_add(
                names::TREE_NODES_SUMMARIZED_TOTAL,
                summarized.saturating_sub(last_gather.0),
            );
            recorder.counter_add(
                names::TREE_NODES_DIRTY_SKIPPED_TOTAL,
                skipped.saturating_sub(last_gather.1),
            );
            *last_gather = (summarized, skipped);
        }

        // 3. Enforce, in id order: each leaf pairs its working supplies'
        //    budgets with its last *delivered* telemetry (never a direct
        //    sensor read — faults must affect enforcement too) and steps
        //    its capping controller; a stale leaf's cap is clamped straight
        //    to the fail-safe demand. Servers outside every tree keep their
        //    previous cap. Budgets are read through the lanes, and each
        //    commanded leaf stores its cap in its `dc_caps` slot.
        //    Unless a budget may have moved, only the visited leaves are
        //    commanded: any other one's inputs are bit-equal and its last
        //    command was a fixed point.
        let enforce_timer = PhaseTimer::start(recorder, RoundPhase::Enforce.metric_name());
        let settled = spo.settled();
        let RoundReport {
            allocations,
            dc_caps,
            ..
        } = report;
        let allocations = &*allocations;
        let Lanes {
            gather,
            starts,
            leaves: tree_leaves,
            ..
        } = lanes;
        let slab = &mut farm.slab;
        let leaves = &mut self.leaves;
        let commanded_leaves = leaves.enforce(relaid || !settled, |slot, leaf| {
            let mut server = slab.view_mut(slot);
            let model = server.config().model();
            let bank = server.bank();
            let own = &tree_leaves[starts[slot] as usize..starts[slot + 1] as usize];
            let budgets = own
                .iter()
                .filter(|at| at.budgeted && bank.effective_share(at.supply.index()).as_f64() > 0.0)
                .map(|at| {
                    let budget = allocations[at.tree as usize].leaf_budget(at.leaf as usize);
                    (at.supply.index(), budget)
                });
            let cap = leaf.command(model, bank.efficiency(), fail_safe, budgets, || server.sense());
            if let Some(cap) = cap {
                server.set_dc_cap(cap);
            }
            dc_caps.set(slot, cap.unwrap_or(Watts::ZERO));
        });
        drop(enforce_timer);
        if recorder.enabled() {
            recorder.counter_add(names::LEAVES_COMMANDED_TOTAL, commanded_leaves as u64);
        }
        let failsafe_caps = leaves.stale_count() as u64;
        if failsafe_caps > 0 || recorder.enabled() {
            recorder.counter_add(names::FAILSAFE_CAPS_TOTAL, failsafe_caps);
        }

        // 4. Trace: per-tree counter tracks (root budget, allocated
        //    budget, measured power) plus tree/rack naming, gated behind
        //    `trace_enabled()` so metrics-only and null recorders never
        //    pay for the tree walk. Iteration order is fixed (trees in
        //    index order, leaves in slot order), keeping traces of
        //    deterministic runs deterministic.
        if recorder.trace_enabled() {
            for (i, tree) in trees.iter().enumerate() {
                let tree_id = i as u32;
                let spec = tree.spec();
                let root = spec.node(0);
                recorder.trace_tree_meta(tree_id, None, &format!("{spec}"));
                for (lane, &child) in root.children.iter().enumerate() {
                    recorder.trace_tree_meta(
                        tree_id,
                        Some(lane as u32 + 1),
                        &spec.node(child).name,
                    );
                }
                recorder.trace_tree_counter(
                    tree_id,
                    crate::obs::trace::ROOT_BUDGET_W,
                    root_budgets[i].as_f64(),
                );
                recorder.trace_tree_counter(
                    tree_id,
                    crate::obs::trace::BUDGET_ALLOC_W,
                    allocations[i].total_leaf_budget().as_f64(),
                );
                let index = tree.arena().leaf_index();
                let mut measured = 0.0f64;
                for (leaf, &slot) in gather[i].iter().enumerate() {
                    let (_, supply) = index.pair(leaf);
                    if let Some(snap) = &leaves.leaf(slot as usize).delivered {
                        measured += snap.supply_ac[supply.index()].as_f64();
                    }
                }
                recorder.trace_tree_counter(tree_id, crate::obs::trace::POWER_W, measured);
            }
        }

        *valid = true;
        &self.ctx.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capmaestro_server::{ServerConfig, ServerPowerModel};
    use capmaestro_units::Ratio;
    use capmaestro_topology::presets::{figure2_feed, figure7a_rig};
    use capmaestro_topology::Topology;

    fn fig2_plane(policy: PolicyKind) -> (Topology, Farm, ControlPlane) {
        let topo = figure2_feed();
        let trees: Vec<ControlTree> = topo
            .control_tree_specs()
            .into_iter()
            .map(ControlTree::new)
            .collect();
        let mut farm = Farm::new();
        for (id, _) in topo.servers() {
            let mut server = Server::new(ServerConfig::paper_default().single_corded());
            server.set_offered_demand(Watts::new(420.0));
            server.settle();
            farm.insert(id, server);
        }
        let plane = ControlPlane::new(
            trees,
            vec![Watts::new(1240.0)],
            PlaneConfig::default().with_policy(policy).with_spo(false),
        );
        (topo, farm, plane)
    }

    /// Runs `periods` control periods of 8 s each with 1 Hz sensing.
    fn run_periods(plane: &mut ControlPlane, farm: &mut Farm, periods: usize) {
        for _ in 0..periods {
            for _ in 0..8 {
                plane.sample(farm);
                farm.step_all(Seconds::new(1.0));
            }
            plane.round(farm);
        }
    }

    /// The zero-alloc sense path: a buffer synced against a quiescent
    /// farm must not re-copy entries (no allocation, no writes), and a
    /// re-copy after a real change must reuse the entry's existing
    /// heap allocations. The fig. 2 servers start settled, so the step in
    /// each sync moves nothing.
    #[test]
    fn sense_buffer_sync_is_incremental_and_reuses_allocations() {
        let (topo, mut farm, _) = fig2_plane(PolicyKind::GlobalPriority);
        let dt = Seconds::new(1.0);
        let mut buf = SenseBuffer::new();
        farm.step_and_sense_into(dt, &mut buf);
        assert_eq!(buf.entries().len(), farm.len());
        for ((id, snap), (farm_id, server)) in buf.entries().iter().zip(farm.iter()) {
            assert_eq!((*id, snap), (farm_id, &server.sense()));
        }

        // Corrupt one synced entry, then sync again with nothing changed
        // in the farm: the corruption must survive, proving the sync
        // skipped the (unchanged) entry instead of re-copying it.
        let sentinel = Watts::new(-12345.0);
        buf.entries[0].1.total_ac = sentinel;
        farm.step_and_sense_into(dt, &mut buf);
        assert_eq!(buf.entries()[0].1.total_ac, sentinel);

        // Change that server for real: the next sync re-copies its entry
        // (overwriting the sentinel) while reusing the entry's per-supply
        // heap allocation rather than re-allocating it.
        let sa = topo.server_by_name("SA").unwrap();
        let slot = farm.index_of(sa).unwrap();
        let ptr_before = buf.entries()[slot].1.supply_ac.as_ptr();
        farm.get_mut(sa).unwrap().set_offered_demand(Watts::new(260.0));
        farm.get_mut(sa).unwrap().settle();
        farm.step_and_sense_into(dt, &mut buf);
        assert_ne!(buf.entries()[slot].1.total_ac, sentinel);
        assert_eq!(
            buf.entries()[slot].1,
            farm.get(sa).unwrap().sense(),
            "re-copied entry must match a fresh sense"
        );
        assert_eq!(
            buf.entries()[slot].1.supply_ac.as_ptr(),
            ptr_before,
            "re-copy must reuse the entry's existing allocation"
        );
    }

    /// The buffered sweep is the engine's, bit for bit:
    /// `step_and_sense_into` ≡ `step_all` + `refresh`, across seconds in
    /// which servers are mid-transient, freshly capped, and quiescent.
    #[test]
    fn step_and_sense_into_matches_step_all_then_refresh() {
        let (topo, mut fused, _) = fig2_plane(PolicyKind::GlobalPriority);
        let (_, mut separate, _) = fig2_plane(PolicyKind::GlobalPriority);
        let sa = topo.server_by_name("SA").unwrap();
        let sb = topo.server_by_name("SB").unwrap();
        let mut fused_buf = SenseBuffer::new();
        let dt = Seconds::new(1.0);
        for second in 0..24 {
            for farm in [&mut fused, &mut separate] {
                match second {
                    2 => farm.get_mut(sa).unwrap().set_offered_demand(Watts::new(260.0)),
                    9 => farm.get_mut(sb).unwrap().set_dc_cap(Watts::new(300.0)),
                    _ => {}
                }
            }
            fused.step_and_sense_into(dt, &mut fused_buf);
            separate.step_all(dt);
            separate.refresh();
            assert_eq!(fused_buf.entries().len(), separate.len());
            for (slot, (id_a, a)) in fused_buf.entries().iter().enumerate() {
                let (id_b, b) = (&separate.ids()[slot], separate.slab().snapshot(slot));
                assert_eq!(id_a, id_b);
                assert_eq!(a.total_ac.as_f64().to_bits(), b.total_ac.as_f64().to_bits());
                assert_eq!(a.throttle.as_f64().to_bits(), b.throttle.as_f64().to_bits());
                assert_eq!(a.supply_ac.len(), b.supply_ac.len());
                for (p_a, p_b) in a.supply_ac.iter().zip(&b.supply_ac) {
                    assert_eq!(p_a.as_f64().to_bits(), p_b.as_f64().to_bits());
                }
            }
        }
        // The transients were real: SA moved off its settled 420 W.
        let sa_slot = fused.index_of(sa).unwrap();
        assert!(fused_buf.entries()[sa_slot].1.total_ac < Watts::new(400.0));
    }

    #[test]
    fn global_priority_protects_sa_end_to_end() {
        let (topo, mut farm, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        run_periods(&mut plane, &mut farm, 8);
        let sa = topo.server_by_name("SA").unwrap();
        let sb = topo.server_by_name("SB").unwrap();
        // SA runs essentially unthrottled; SB is pushed near cap_min.
        assert!(
            farm.get(sa).unwrap().performance_fraction().as_f64() > 0.97,
            "SA perf {}",
            farm.get(sa).unwrap().performance_fraction()
        );
        let sb_power = farm.get(sb).unwrap().sense().total_ac;
        assert!(
            sb_power < Watts::new(300.0),
            "SB should be capped, at {sb_power}"
        );
    }

    #[test]
    fn total_power_respects_contractual_budget() {
        let (_, mut farm, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        run_periods(&mut plane, &mut farm, 10);
        let total: Watts = farm.iter().map(|(_, s)| s.sense().total_ac).sum();
        assert!(
            total <= Watts::new(1240.0) * 1.02,
            "total power {total} exceeds the 1240 W budget"
        );
    }

    #[test]
    fn no_priority_caps_everyone_equally() {
        let (topo, mut farm, mut plane) = fig2_plane(PolicyKind::NoPriority);
        run_periods(&mut plane, &mut farm, 8);
        let powers: Vec<f64> = topo
            .servers()
            .map(|(id, _)| farm.get(id).unwrap().sense().total_ac.as_f64())
            .collect();
        let min = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = powers.iter().cloned().fold(0.0, f64::max);
        assert!(max - min < 15.0, "powers should be similar: {powers:?}");
    }

    #[test]
    fn fail_feed_removes_trees() {
        let topo = figure7a_rig();
        let trees: Vec<ControlTree> = topo
            .control_tree_specs()
            .into_iter()
            .map(ControlTree::new)
            .collect();
        assert_eq!(trees.len(), 2);
        let mut plane = ControlPlane::new(
            trees,
            vec![Watts::new(700.0), Watts::new(700.0)],
            PlaneConfig::default(),
        );
        let removed = plane.fail_feed(FeedId::B);
        assert_eq!(removed, 1);
        assert_eq!(plane.trees().len(), 1);
        plane.set_root_budgets(vec![Watts::new(1400.0)]);
    }

    #[test]
    fn round_report_exposes_budgets() {
        let (topo, mut farm, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        plane.sample(&mut farm);
        let report = plane.round(&mut farm).clone();
        let sa = topo.server_by_name("SA").unwrap();
        assert!(report.supply_budget(sa, SupplyIndex::FIRST).is_some());
        assert!(report.server_budget(sa) > Watts::ZERO);
        assert_eq!(report.dc_caps.len(), 4);
        assert_eq!(report.stranded_reclaimed, Watts::ZERO); // SPO off
    }

    /// The `/v1/report` body of the Fig. 2 rig, byte for byte as the
    /// report rendered it when `dc_caps` was a `HashMap` sorted by id
    /// before rendering: after the first round, and after six, when the
    /// low-priority caps have walked down.
    #[test]
    fn report_body_is_unchanged_on_the_fig2_rig() {
        let caps = |a: &str, b: &str| {
            format!(
                r#"{{
  "counters": [
    {{"name": "capmaestro_report_servers_capped", "value": 4}},
    {{"name": "capmaestro_report_trees", "value": 1}}
  ],
  "gauges": [
    {{"name": "capmaestro_report_dc_cap_watts{{server=\"0\"}}", "value": 460.59999999999997}},
    {{"name": "capmaestro_report_dc_cap_watts{{server=\"1\"}}", "value": {a}}},
    {{"name": "capmaestro_report_dc_cap_watts{{server=\"2\"}}", "value": {b}}},
    {{"name": "capmaestro_report_dc_cap_watts{{server=\"3\"}}", "value": {b}}},
    {{"name": "capmaestro_report_stranded_watts_reclaimed", "value": 0}},
    {{"name": "capmaestro_report_tree_leaf_watts{{tree=\"0\"}}", "value": 1240}},
    {{"name": "capmaestro_report_tree_root_watts{{tree=\"0\"}}", "value": 1240}}
  ],
  "histograms": [
  ]
}}
"#
            )
        };
        let expected = [
            (1, caps("322.73333333333335", "322.7333333333333")),
            (6, caps("256.93344108059637", "256.93344108059637")),
        ];
        for (periods, want) in expected {
            let (_, mut farm, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
            run_periods(&mut plane, &mut farm, periods);
            let report = plane.last_report().expect("a round ran");
            let body = crate::obs::json::snapshot(&report.metrics_snapshot());
            assert_eq!(body, want, "after {periods} periods");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `CapMap` against a `HashMap` model under random sets, clears
        /// and relayouts. A layout is `n` ids `stride` apart from
        /// `first`: from zero without gaps every id sits in its own
        /// slot, otherwise lookups fall back to the binary search. Each
        /// op is `(kind, pick, watts)`: kind 0 sets slot `pick`'s cap,
        /// 1 clears it, 2 lays the map out afresh from `pick`.
        #[test]
        fn cap_map_matches_a_hash_map(
            ops in proptest::collection::vec((0usize..3, 0usize..4096, 1.0f64..600.0), 1..120),
        ) {
            let layout = |pick: usize| -> Vec<ServerId> {
                let (n, stride, first) = (pick % 70, 1 + pick / 70 % 3, (pick / 210 % 3) as u32);
                (0..n as u32).map(|i| ServerId(first + i * stride as u32)).collect()
            };
            let mut map = CapMap::default();
            let mut model: HashMap<ServerId, Watts> = HashMap::new();
            let mut ids: Vec<ServerId> = Vec::new();
            for (kind, pick, watts) in ops {
                match kind {
                    2 => {
                        ids = layout(pick);
                        map.reset(&ids);
                        model.clear();
                    }
                    _ if ids.is_empty() => continue,
                    0 => {
                        let slot = pick % ids.len();
                        map.set(slot, Watts::new(watts));
                        model.insert(ids[slot], Watts::new(watts));
                    }
                    _ => {
                        let slot = pick % ids.len();
                        map.set(slot, Watts::ZERO);
                        model.remove(&ids[slot]);
                    }
                }
                // Every id of the layout, and ids around and beyond it.
                let probes = ids.iter().copied().chain((0..220).map(ServerId));
                for id in probes {
                    proptest::prop_assert_eq!(map.get(&id), model.get(&id), "get {}", id);
                    if let Some(cap) = model.get(&id) {
                        proptest::prop_assert_eq!(&map[&id], cap);
                    }
                }
                let mut want: Vec<_> = model.iter().collect();
                want.sort_unstable_by_key(|(id, _)| **id);
                proptest::prop_assert_eq!(map.iter().collect::<Vec<_>>(), want);
                proptest::prop_assert_eq!(map.len(), model.len());
                proptest::prop_assert_eq!(map.is_empty(), model.is_empty());

                // Equal to the model laid out over only its own ids, and
                // to a field-wise copy; unequal once one cap moves.
                let mut own: Vec<ServerId> = model.keys().copied().collect();
                own.sort_unstable();
                let mut twin = CapMap::default();
                twin.reset(&own);
                for (slot, id) in own.iter().enumerate() {
                    twin.set(slot, model[id]);
                }
                proptest::prop_assert!(map == twin);
                let mut copy = CapMap::default();
                copy.clone_from(&map);
                proptest::prop_assert!(copy == map);
                if !own.is_empty() {
                    twin.set(0, twin.at(0) * 2.0);
                    proptest::prop_assert!(map != twin);
                }
            }
        }
    }

    #[test]
    fn supply_budget_index_matches_linear_scan_across_trees() {
        // Fig. 7a rig: two trees with SC/SD present in BOTH (dual-corded),
        // so the lanes must reproduce the first-tree-wins semantics
        // of the linear scan — including after a feed failure reshapes the
        // tree set and forces a rebuild.
        let topo = figure7a_rig();
        let trees: Vec<ControlTree> = topo
            .control_tree_specs()
            .into_iter()
            .map(ControlTree::new)
            .collect();
        let mut farm = Farm::new();
        for (id, info) in topo.servers() {
            let bank = match info.name() {
                "SA" | "SB" => capmaestro_server::PsuBank::balanced(1, Ratio::new(0.94)),
                _ => capmaestro_server::PsuBank::dual(0.5, Ratio::new(0.94)),
            };
            let mut server = Server::new(ServerConfig::paper_default().with_bank(bank));
            server.set_offered_demand(Watts::new(420.0));
            server.settle();
            farm.insert(id, server);
        }
        let servers: Vec<ServerId> = farm.iter().map(|(id, _)| id).collect();
        let mut plane = ControlPlane::new(
            trees,
            vec![Watts::new(700.0), Watts::new(700.0)],
            PlaneConfig::default().with_spo(true),
        );

        // Servers are farm slots in id order, so `servers[slot]` is the
        // server whose supplies the lane holds at `slot`.
        let check = |plane: &ControlPlane, servers: &[ServerId], when: &str| {
            let (report, lanes) = (&plane.ctx.report, &plane.ctx.lanes);
            let mut covered = 0usize;
            for (slot, &server) in servers.iter().enumerate() {
                let own = lanes.of(slot);
                for supply in [SupplyIndex::FIRST, SupplyIndex::SECOND] {
                    let laned = own.iter().find(|s| s.budgeted && s.supply == supply).map(|s| {
                        report.allocations[s.tree as usize].leaf_budget(s.leaf as usize)
                    });
                    let scanned = report
                        .allocations
                        .iter()
                        .find_map(|a| a.supply_budget(server, supply));
                    assert_eq!(
                        laned.map(|w| w.as_f64().to_bits()),
                        scanned.map(|w| w.as_f64().to_bits()),
                        "{when}: {server} {supply:?}"
                    );
                    assert_eq!(report.supply_budget(server, supply), scanned);
                    covered += usize::from(laned.is_some());
                }
            }
            assert!(covered > 0, "{when}: rig should cover some supplies");
        };

        plane.sample(&mut farm);
        plane.round(&mut farm);
        check(&plane, &servers, "initial round");

        // Feed failure drops a tree: tree indices shift and the lane must
        // be rebuilt rather than serve stale slots.
        plane.fail_feed(FeedId::B);
        plane.set_root_budgets(vec![Watts::new(1400.0)]);
        farm.for_each_mut(|_, _, mut server| {
            let bank = server.bank_mut();
            if bank.len() == 2 {
                bank.fail_supply(1);
            }
        });
        plane.sample(&mut farm);
        plane.round(&mut farm);
        check(&plane, &servers, "post-failover round");
    }

    /// Rounds command only leaves whose inputs changed — none once the
    /// fleet settles, some after a server moves, none once it settles
    /// again — and decide exactly what a twin plane that observes every
    /// reading and commands every leaf decides.
    #[test]
    fn a_settled_fleet_commands_no_leaf() {
        use crate::obs::MetricsRegistry;
        let (topo, mut farm, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        let (_, mut twin_farm, mut twin) = fig2_plane(PolicyKind::GlobalPriority);
        // 4 × 300 W fits under every limit: each server is budgeted its
        // demand or more, so its controller rests at cap_max.
        for f in [&mut farm, &mut twin_farm] {
            f.for_each_mut(|_, _, mut server| {
                server.set_offered_demand(Watts::new(300.0));
                server.settle();
            });
        }
        let registry = Arc::new(MetricsRegistry::new());
        plane.set_recorder(registry.clone());
        let commanded = || {
            let counters = registry.snapshot().counters;
            let found = counters.iter().find(|c| c.name == names::LEAVES_COMMANDED_TOTAL);
            found.map_or(0, |c| c.value)
        };
        let mut run = |periods: usize, farm: &mut Farm, twin_farm: &mut Farm| {
            let before = commanded();
            for _ in 0..periods {
                for _ in 0..8 {
                    plane.sample(farm);
                    twin.reset_round_cache();
                    twin.sample(twin_farm);
                    farm.step_all(Seconds::new(1.0));
                    twin_farm.step_all(Seconds::new(1.0));
                }
                let caps = plane.round(farm).dc_caps.clone();
                twin.reset_round_cache();
                assert_eq!(twin.round(twin_farm).dc_caps, caps);
                for ((_, a), (_, b)) in farm.iter().zip(twin_farm.iter()) {
                    let bits = |s: ServerRef<'_>| s.dc_cap().map(|w| w.as_f64().to_bits());
                    assert_eq!(bits(a), bits(b));
                }
                let (tree, twin_tree) = (&plane.trees()[0], &twin.trees()[0]);
                for idx in 0..tree.spec().len() {
                    assert_eq!(tree.input_at(idx), twin_tree.input_at(idx));
                }
            }
            commanded() - before
        };
        // The first round builds every controller, the second finds every
        // estimator saturated and every cap at rest.
        assert_eq!(run(2, &mut farm, &mut twin_farm), 8);
        assert_eq!(run(3, &mut farm, &mut twin_farm), 0);
        let sb = topo.server_by_name("SB").unwrap();
        for f in [&mut farm, &mut twin_farm] {
            f.get_mut(sb).unwrap().set_offered_demand(Watts::new(310.0));
        }
        // SB's power ramps toward it, its estimate follows, the budgets
        // move: every leaf is commanded until that settles.
        let moving: Vec<u64> = (0..12).map(|_| run(1, &mut farm, &mut twin_farm)).collect();
        assert_eq!(moving[0], 4, "{moving:?}");
        assert_eq!(moving[9..], [0, 0, 0], "{moving:?}");

        // A cap set from outside is commanded back, as every leaf's used
        // to be; a server swapped for one with another envelope but the
        // same reading is revisited whole.
        let sa = topo.server_by_name("SA").unwrap();
        for f in [&mut farm, &mut twin_farm] {
            f.get_mut(sa).unwrap().set_dc_cap(Watts::new(300.0));
        }
        assert_eq!(run(1, &mut farm, &mut twin_farm), 1);
        assert_eq!(run(1, &mut farm, &mut twin_farm), 0);
        let narrower = ServerPowerModel::new(Watts::new(160.0), Watts::new(270.0), Watts::new(470.0));
        for f in [&mut farm, &mut twin_farm] {
            let config = ServerConfig::paper_default().single_corded().with_model(narrower);
            let mut server = Server::new(config);
            server.set_offered_demand(Watts::new(300.0));
            server.settle();
            f.insert(sa, server);
        }
        assert!(run(1, &mut farm, &mut twin_farm) > 0);
    }

    #[test]
    fn demand_estimation_converges_under_capping() {
        // Even while capped, the estimator should keep a demand estimate
        // well above the measured (throttled) power.
        let (topo, mut farm, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        run_periods(&mut plane, &mut farm, 12);
        let sb = topo.server_by_name("SB").unwrap();
        let measured = farm.get(sb).unwrap().sense().total_ac;
        let estimate = plane.leaves.leaf(farm.index_of(sb).unwrap()).demand;
        assert!(
            estimate > measured + Watts::new(20.0),
            "estimate {estimate} should exceed measured {measured}"
        );
    }

    #[test]
    fn shared_budget_splits_by_demand_and_fails_over() {
        use crate::plane::BudgetSource;
        // Fig. 7a rig: SA (414 W) on feed A, SB (415 W) on feed B, SC/SD on
        // both. Shared phase budget 1400 W.
        let topo = figure7a_rig();
        let trees: Vec<ControlTree> = topo
            .control_tree_specs()
            .into_iter()
            .map(ControlTree::new)
            .collect();
        let mut farm = Farm::new();
        for (id, info) in topo.servers() {
            let split = match info.name() {
                "SA" | "SB" => 1.0,
                _ => 0.5,
            };
            let bank = if split == 1.0 {
                capmaestro_server::PsuBank::balanced(1, Ratio::new(0.94))
            } else {
                capmaestro_server::PsuBank::dual(0.5, Ratio::new(0.94))
            };
            let mut server = Server::new(ServerConfig::paper_default().with_bank(bank));
            server.set_offered_demand(Watts::new(420.0));
            server.settle();
            farm.insert(id, server);
        }
        let mut plane = ControlPlane::with_budget_source(
            trees,
            BudgetSource::SharedPerPhase(Watts::new(1400.0)),
            PlaneConfig::default()
                .with_policy(PolicyKind::GlobalPriority)
                .with_spo(false),
        );
        plane.sample(&mut farm);
        let report = plane.round(&mut farm).clone();
        // Both feeds' allocations together must not exceed the shared
        // phase budget.
        let total: Watts = report
            .allocations
            .iter()
            .map(|a| a.total_leaf_budget())
            .sum();
        assert!(total <= Watts::new(1400.0) * 1.001, "total {total}");
        // Feed A carries SA + halves of SC/SD: roughly 420 + 420 = 840 of
        // the 1680 W demand, so its share should exceed feed B's... they
        // are symmetric here (SA vs SB), so shares are near equal.
        // Now feed B dies: the survivor inherits the whole 1400 W without
        // any operator action.
        plane.fail_feed(FeedId::B);
        farm.for_each_mut(|_, _, mut server| {
            let bank = server.bank_mut();
            if bank.len() == 2 {
                bank.fail_supply(1);
            }
        });
        plane.sample(&mut farm);
        let report = plane.round(&mut farm).clone();
        let total_after: Watts = report
            .allocations
            .iter()
            .map(|a| a.total_leaf_budget())
            .sum();
        // SA + SC + SD demand ~420 each on the surviving feed: the shared
        // budget lets them all run uncapped (1260 < 1400).
        assert!(
            total_after > Watts::new(1200.0),
            "survivor should inherit the shared budget, got {total_after}"
        );
    }

    /// The ladder itself is unit-tested in `leaf`; this proves the plane
    /// drives it: the configured threshold and fail-safe demand apply, a
    /// dropped reading and a garbage one both count as missing, the forced
    /// cap lands on the farm, and returning telemetry recovers.
    #[test]
    fn telemetry_faults_walk_the_ladder_through_the_plane() {
        let (topo, mut farm, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        let sa = topo.server_by_name("SA").unwrap();
        let sb = topo.server_by_name("SB").unwrap();
        plane.set_staleness(
            StalenessConfig::default()
                .with_stale_after_rounds(2)
                .with_fail_safe_demand(Some(Watts::new(300.0))),
        );
        run_periods(&mut plane, &mut farm, 4);
        let healthy_cap = farm.get(sb).unwrap().dc_cap().unwrap();

        // SB goes dark and SA's sensor reads 25× too high (screened out).
        let faulty_period = |plane: &mut ControlPlane, farm: &mut Farm| {
            for _ in 0..8 {
                farm.refresh();
                let snaps: Vec<(ServerId, SensorSnapshot)> = (0..farm.len())
                    .map(|slot| (farm.ids()[slot], farm.slab().snapshot(slot)))
                    .filter(|(id, _)| *id != sb)
                    .map(|(id, snap)| match id == sa {
                        true => (id, snap.scaled(25.0)),
                        false => (id, snap.clone()),
                    })
                    .collect();
                plane.record_snapshots(farm, &snaps);
                farm.step_all(Seconds::new(1.0));
            }
            plane.round(farm);
        };
        faulty_period(&mut plane, &mut farm);
        assert_eq!(plane.stale_count(), 0, "stale-hold bridge, not yet stale");
        faulty_period(&mut plane, &mut farm);
        assert_eq!(plane.stale_servers(), vec![sa, sb]);
        assert_eq!(plane.stale_count(), 2);
        let forced = Watts::new(300.0) * farm.get(sb).unwrap().bank().efficiency();
        assert_eq!(farm.get(sb).unwrap().dc_cap(), Some(forced));

        // Telemetry returns: fresh at the next round, and the cleared
        // estimator re-learns the demand within two.
        run_periods(&mut plane, &mut farm, 2);
        assert_eq!(plane.stale_count(), 0);
        let recovered_cap = farm.get(sb).unwrap().dc_cap().unwrap();
        assert!(
            (recovered_cap.as_f64() - healthy_cap.as_f64()).abs() < 0.02 * healthy_cap.as_f64(),
            "cap should recover within 2% of {healthy_cap}, got {recovered_cap}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_stale_after_rejected() {
        let (_, _, mut plane) = fig2_plane(PolicyKind::GlobalPriority);
        plane.set_staleness(StalenessConfig {
            stale_after_rounds: 0,
            fail_safe_demand: None,
        });
    }

    #[test]
    #[should_panic(expected = "one root budget per control tree")]
    fn mismatched_budget_count_panics() {
        let topo = figure2_feed();
        let trees: Vec<ControlTree> = topo
            .control_tree_specs()
            .into_iter()
            .map(ControlTree::new)
            .collect();
        let _ = ControlPlane::new(trees, vec![], PlaneConfig::default());
    }
}
