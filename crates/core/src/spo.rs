//! Stranded-power optimization (paper §4.4).
//!
//! A server does not split load evenly across its supplies, so the budgets
//! two independent feed trees assign to the same server rarely match its
//! intrinsic split: the server's consumption is pinned by its most
//! constrained supply, leaving part of the other supply's budget *stranded*.
//!
//! SPO runs after the priority-aware allocation: it computes how much each
//! supply can actually use given every supply's budget and the split ratio,
//! shrinks stranded budgets to their usable amount, and re-runs the
//! allocation so the freed power reaches servers that were capped.
//!
//! [`optimize_stranded_power_in`] is the control plane's one allocate
//! path, with or without SPO. Its reference is the test-only
//! `capmaestro-spec` crate, which runs both passes from scratch.

use std::collections::HashMap;

use capmaestro_topology::{ServerId, SupplyIndex};
use capmaestro_units::Watts;

use crate::alloc::Allocator;
use crate::obs::{PhaseTimer, Recorder, RoundPhase};
use crate::policy::CappingPolicy;
use crate::tree::{Allocation, ControlTree, SupplyInput, TreeRoundState};

/// Stranded power below this threshold is ignored (measurement noise in a
/// real deployment; numerical noise here).
pub const STRAND_EPSILON: Watts = Watts::new(0.5);

/// One supply's position in the precomputed SPO routing table.
#[derive(Debug, Clone)]
struct RouteSupply {
    tree: u32,
    node: u32,
    slot: u32,
    supply: SupplyIndex,
}

/// A server's supplies across all trees, precomputed so strand detection
/// walks flat lists instead of rebuilding hash-keyed views every round.
#[derive(Debug, Clone)]
struct RouteServer {
    server: ServerId,
    supplies: Vec<RouteSupply>,
}

/// Reusable buffers for [`optimize_stranded_power_in`]: precomputed
/// per-server supply routes, per-tree [`TreeRoundState`]s for both passes,
/// pass-1 allocations, per-tree input overlays, and the last detection's
/// stranded total. Keep one per control plane and reuse it across rounds;
/// steady-state SPO then performs no heap allocation.
#[derive(Debug, Default)]
pub struct SpoScratch {
    routes_valid: bool,
    /// Sorted by server, each server's supplies by supply index: the
    /// `(server, supply)` order the stranded total is summed in.
    routes: Vec<RouteServer>,
    states1: Vec<TreeRoundState>,
    states2: Vec<TreeRoundState>,
    first: Vec<Allocation>,
    overlays: Vec<Vec<Option<SupplyInput>>>,
    /// The stranded total of the detection `overlays` hold; `None` until
    /// one ran over the current routes.
    detected: Option<Watts>,
    /// Whether the last round's final pass re-split nothing in any tree.
    settled: bool,
}

impl SpoScratch {
    /// Creates an empty scratch; the first round shapes it.
    pub fn new() -> Self {
        SpoScratch::default()
    }

    /// Invalidates the cached routes and round states. Must be called
    /// whenever the tree set changes (feed failure / restore): routes are
    /// keyed by tree index and leaf slot.
    pub fn invalidate(&mut self) {
        self.routes_valid = false;
        self.detected = None;
        for s in &mut self.states1 {
            s.invalidate();
        }
        for s in &mut self.states2 {
            s.invalidate();
        }
    }

    /// Cumulative `(summarized, dirty_skipped)` gather counts summed over
    /// both passes' round states.
    pub fn gather_stats(&self) -> (u64, u64) {
        self.states1
            .iter()
            .chain(&self.states2)
            .map(TreeRoundState::gather_stats)
            .fold((0, 0), |(s, k), (ds, dk)| (s + ds, k + dk))
    }

    /// Whether the last round's final pass (pass 2, or pass 1 without
    /// reclaim) re-split nothing in any tree, so every final leaf budget is
    /// the one of the round before.
    pub(crate) fn settled(&self) -> bool {
        self.settled
    }

    fn rebuild_routes(&mut self, trees: &[ControlTree]) {
        self.routes.clear();
        self.overlays.clear();
        let mut by_server: HashMap<ServerId, usize> = HashMap::new();
        for (t, tree) in trees.iter().enumerate() {
            self.overlays.push(vec![None; tree.spec().len()]);
            let leaf_index = tree.arena().leaf_index();
            for slot in 0..leaf_index.len() {
                let idx = leaf_index.node(slot);
                let Some(leaf) = tree.spec().node(idx).leaf else {
                    continue;
                };
                let entry = *by_server.entry(leaf.server).or_insert_with(|| {
                    self.routes.push(RouteServer {
                        server: leaf.server,
                        supplies: Vec::new(),
                    });
                    self.routes.len() - 1
                });
                self.routes[entry].supplies.push(RouteSupply {
                    tree: t as u32,
                    node: idx as u32,
                    slot: slot as u32,
                    supply: leaf.supply,
                });
            }
        }
        self.routes.sort_unstable_by_key(|route| route.server);
        for route in &mut self.routes {
            route.supplies.sort_by_key(|s| s.supply);
        }
        self.routes_valid = true;
        self.detected = None;
    }
}

/// One round's allocation with the stranded-power optimization (§4.4):
/// pass 1 allocates every tree, strand detection finds the budget each
/// supply cannot use given its server's split, and pass 2 re-allocates
/// with every stranded supply's demand shrunk to what its server can
/// draw. Tree `i` allocates `root_budgets[i]` with `allocator`; all trees
/// cover the same control period (in a redundant data center, the
/// per-feed trees of one phase). Writes the final allocations into `out`
/// (buffers reused) and returns the stranded power detected after pass 1,
/// summed in `(server, supply)` order.
///
/// Without `reclaim`, only pass 1 runs: its allocations go straight into
/// `out`, the Spo phase records zero and the result is zero.
///
/// Both passes run through [`ControlTree::allocate_in`] with round states
/// held in `scratch`, strand detection walks precomputed per-server
/// routes, and the pass-2 input shrink is an overlay on the trees. When
/// pass 1 changed nothing — no summary recomputed, no budget moved, in
/// any tree — the strands are those of the last detection: detection is
/// skipped, its overlays and total reused, and pass 2 skips its gather
/// walk and runs through the budget memo. Each `(server, supply)` must be
/// a leaf of at most one tree.
///
/// The caller must call [`SpoScratch::invalidate`] whenever the tree set
/// changes between rounds.
///
/// # Examples
///
/// ```
/// use capmaestro_core::alloc::WaterfallAllocator;
/// use capmaestro_core::obs::NullRecorder;
/// use capmaestro_core::policy::GlobalPriority;
/// use capmaestro_core::spo::{optimize_stranded_power_in, SpoScratch};
/// use capmaestro_core::tree::{ControlTree, SupplyInput};
/// use capmaestro_topology::presets::figure7a_rig;
/// use capmaestro_units::{Ratio, Watts};
///
/// let topo = figure7a_rig();
/// let mut trees: Vec<ControlTree> = topo
///     .control_tree_specs()
///     .into_iter()
///     .map(ControlTree::new)
///     .collect();
/// for tree in &mut trees {
///     // Dual-corded servers with a 60/40 split; single-corded at 1.0.
///     tree.set_inputs_with(|server, supply| SupplyInput {
///         demand: Watts::new(430.0),
///         cap_min: Watts::new(270.0),
///         cap_max: Watts::new(490.0),
///         share: if topo.supply_count(server) == 1 {
///             Ratio::ONE
///         } else if supply.index() == 0 {
///             Ratio::new(0.6)
///         } else {
///             Ratio::new(0.4)
///         },
///     });
/// }
/// let mut out = Vec::new();
/// let stranded = optimize_stranded_power_in(
///     &trees,
///     &[Watts::new(700.0), Watts::new(700.0)],
///     &GlobalPriority::new(),
///     &WaterfallAllocator,
///     true,
///     &mut SpoScratch::new(),
///     &mut out,
///     &NullRecorder,
/// );
/// // The split mismatch strands power on the first pass…
/// assert!(stranded > Watts::ZERO);
/// ```
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[allow(clippy::too_many_arguments)]
pub fn optimize_stranded_power_in(
    trees: &[ControlTree],
    root_budgets: &[Watts],
    policy: &dyn CappingPolicy,
    allocator: &dyn Allocator,
    reclaim: bool,
    scratch: &mut SpoScratch,
    out: &mut Vec<Allocation>,
    recorder: &dyn Recorder,
) -> Watts {
    assert_eq!(
        trees.len(),
        root_budgets.len(),
        "one root budget per tree is required"
    );
    let n = trees.len();
    if scratch.states1.len() != n {
        scratch.states1.resize_with(n, TreeRoundState::new);
        scratch.states2.resize_with(n, TreeRoundState::new);
    }
    let shape = |allocations: &mut Vec<Allocation>| {
        if allocations.len() != n {
            allocations.clear();
            allocations.resize_with(n, Allocation::default);
        }
    };
    shape(out);
    let first = if reclaim {
        shape(&mut scratch.first);
        &mut scratch.first
    } else {
        &mut *out
    };

    // Pass 1: plain allocation (incremental per tree). Attributed to the
    // Allocate phase; strand detection and pass 2 below are the Spo phase.
    let allocate_timer =
        PhaseTimer::start(recorder, RoundPhase::Allocate.metric_name());
    let mut settled = true;
    for i in 0..n {
        trees[i].allocate_in(
            root_budgets[i],
            policy,
            allocator,
            &mut scratch.states1[i],
            None,
            &mut first[i],
        );
        settled &= scratch.states1[i].settled();
    }
    drop(allocate_timer);
    if !reclaim {
        // Record an explicit zero so the phase series exists (and shows as
        // idle) on every configuration. An earlier detection no longer
        // describes pass 1.
        recorder.observe(RoundPhase::Spo.metric_name(), 0.0);
        scratch.detected = None;
        scratch.settled = settled;
        return Watts::ZERO;
    }
    let spo_timer = PhaseTimer::start(recorder, RoundPhase::Spo.metric_name());
    if !scratch.routes_valid || scratch.overlays.len() != n {
        scratch.rebuild_routes(trees);
    }

    let total = match scratch.detected {
        Some(total) if settled => {
            // The overlays stand, so pass 2 sees the last round's inputs.
            scratch.states2.iter_mut().for_each(TreeRoundState::keep_overlay);
            total
        }
        _ => detect_strands_in(trees, scratch),
    };
    scratch.detected = Some(total);

    // Pass 2: re-allocate with the shrunken inputs overlaid.
    for i in 0..n {
        trees[i].allocate_in(
            root_budgets[i],
            policy,
            allocator,
            &mut scratch.states2[i],
            Some(&scratch.overlays[i]),
            &mut out[i],
        );
    }
    scratch.settled = scratch.states2.iter().all(TreeRoundState::settled);
    drop(spo_timer);
    total
}

/// Strand detection over the precomputed routes into `scratch.overlays`:
/// per server, its demand clamped by its most constrained supply (budget
/// ÷ share); per supply, the budget above that share of it. Returns the
/// stranded total, summed in route order, which is `(server, supply)`
/// order.
fn detect_strands_in(trees: &[ControlTree], scratch: &mut SpoScratch) -> Watts {
    for overlay in &mut scratch.overlays {
        overlay.iter_mut().for_each(|o| *o = None);
    }
    let mut total = Watts::ZERO;
    for rs in &scratch.routes {
        let mut demand = Watts::ZERO;
        let mut cap_min = Watts::ZERO;
        let mut limit = f64::INFINITY;
        let mut any_input = false;
        for s in &rs.supplies {
            let Some(input) = trees[s.tree as usize].input_at(s.node as usize) else {
                continue;
            };
            any_input = true;
            demand = demand.max(input.demand);
            cap_min = cap_min.max(input.cap_min);
            let share = input.share.as_f64();
            if share > 0.0 {
                let budget = scratch.first[s.tree as usize].leaf_budget(s.slot as usize);
                limit = limit.min(budget.as_f64() / share);
            }
        }
        if !any_input {
            continue;
        }
        let demand = demand.max(cap_min);
        let actual = if limit.is_finite() {
            demand.min(Watts::new(limit))
        } else {
            demand
        };
        for s in &rs.supplies {
            let Some(&input) = trees[s.tree as usize].input_at(s.node as usize) else {
                continue;
            };
            let budget = scratch.first[s.tree as usize].leaf_budget(s.slot as usize);
            let usable = actual * input.share.as_f64();
            let strand = budget.saturating_sub(usable);
            if strand > STRAND_EPSILON {
                total += strand;
                scratch.overlays[s.tree as usize][s.node as usize] = Some(SupplyInput {
                    demand: actual,
                    cap_max: actual.max(input.cap_min),
                    ..input
                });
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::WaterfallAllocator;
    use crate::policy::GlobalPriority;
    use capmaestro_topology::presets::figure7a_rig;
    use capmaestro_topology::Topology;
    use capmaestro_units::Ratio;

    /// Builds the Fig. 7a rig trees with the paper's Table 3 demands and an
    /// uneven split for the dual-corded servers.
    fn fig7a_trees() -> (Topology, Vec<ControlTree>) {
        let topo = figure7a_rig();
        let demands = [
            ("SA", 414.0),
            ("SB", 415.0),
            ("SC", 433.0),
            ("SD", 439.0),
        ];
        let mut trees: Vec<ControlTree> = topo
            .control_tree_specs()
            .into_iter()
            .map(ControlTree::new)
            .collect();
        for tree in &mut trees {
            let topo_ref = &topo;
            tree.set_inputs_with(|server, supply| {
                let name = topo_ref.server(server).unwrap().name().to_string();
                let demand = demands
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, d)| *d)
                    .unwrap();
                // SA and SB are single-corded (share 1). SC and SD split
                // unevenly: X side carries 53 %, Y side 47 % for SC;
                // SD is 46/54 — mismatched splits strand power.
                let share = match (name.as_str(), supply.index()) {
                    ("SA", _) | ("SB", _) => 1.0,
                    ("SC", 0) => 0.53,
                    ("SC", _) => 0.47,
                    ("SD", 0) => 0.46,
                    _ => 0.54,
                };
                SupplyInput {
                    demand: Watts::new(demand),
                    cap_min: Watts::new(270.0),
                    cap_max: Watts::new(490.0),
                    share: Ratio::new(share),
                }
            });
        }
        (topo, trees)
    }

    const BUDGETS: [Watts; 2] = [Watts::new(700.0), Watts::new(700.0)];

    /// One round through `scratch`: `(stranded, final allocations)`.
    fn round_in(
        trees: &[ControlTree],
        budgets: &[Watts],
        reclaim: bool,
        scratch: &mut SpoScratch,
    ) -> (Watts, Vec<Allocation>) {
        let mut out = Vec::new();
        let stranded = optimize_stranded_power_in(
            trees,
            budgets,
            &GlobalPriority::new(),
            &WaterfallAllocator,
            reclaim,
            scratch,
            &mut out,
            &crate::obs::NullRecorder,
        );
        (stranded, out)
    }

    /// A cold round with the stranded-power pass.
    fn spo(trees: &[ControlTree], budgets: &[Watts]) -> (Watts, Vec<Allocation>) {
        round_in(trees, budgets, true, &mut SpoScratch::new())
    }

    /// The allocation before SPO: every tree allocated on its own.
    fn before_spo(trees: &[ControlTree], budgets: &[Watts]) -> Vec<Allocation> {
        trees
            .iter()
            .zip(budgets)
            .map(|(tree, &budget)| tree.allocate(budget, &GlobalPriority::new()))
            .collect()
    }

    fn budget_of(allocations: &[Allocation], server: ServerId) -> Watts {
        allocations
            .iter()
            .find_map(|a| a.supply_budget(server, SupplyIndex::FIRST))
            .unwrap()
    }

    #[test]
    fn detects_and_reclaims_stranded_power() {
        let (topo, trees) = fig7a_trees();
        let (stranded, after) = spo(&trees, &BUDGETS);

        // Something must be stranded: SC/SD splits cannot match the
        // independent X/Y allocations exactly.
        assert!(stranded > Watts::new(5.0));

        // SB (Y-side only, low priority, capped in pass 1) must gain power.
        let sb = topo.server_by_name("SB").unwrap();
        let before = budget_of(&before_spo(&trees, &BUDGETS), sb);
        let after = budget_of(&after, sb);
        assert!(
            after > before + Watts::new(5.0),
            "SB budget should grow: {before} -> {after}"
        );
    }

    #[test]
    fn high_priority_server_is_unaffected() {
        let (topo, trees) = fig7a_trees();
        let sa = topo.server_by_name("SA").unwrap();
        let before = budget_of(&before_spo(&trees, &BUDGETS), sa);
        let after = budget_of(&spo(&trees, &BUDGETS).1, sa);
        // SA was already fully served (high priority): its budget must not
        // shrink below its demand.
        assert!(before >= Watts::new(413.0));
        assert!(after >= Watts::new(413.0));
    }

    #[test]
    fn feed_budgets_still_respected_after_spo() {
        let (_, trees) = fig7a_trees();
        for (alloc, budget) in spo(&trees, &BUDGETS).1.iter().zip(&BUDGETS) {
            assert!(
                alloc.total_leaf_budget() <= *budget + Watts::new(1e-6),
                "post-SPO allocation exceeds feed budget"
            );
        }
    }

    #[test]
    fn no_strand_when_splits_match_budgets() {
        // A single-feed scenario (every server single-corded) strands
        // nothing: each supply's budget is exactly consumable.
        let topo = capmaestro_topology::presets::figure2_feed();
        let spec = topo.control_tree_specs().remove(0);
        let trees = [ControlTree::with_uniform(
            spec,
            SupplyInput {
                demand: Watts::new(430.0),
                cap_min: Watts::new(270.0),
                cap_max: Watts::new(490.0),
                share: Ratio::ONE,
            },
        )];
        let budgets = [Watts::new(1240.0)];
        let (stranded, after) = spo(&trees, &budgets);
        assert_eq!(stranded, Watts::ZERO);
        // Second pass equals the first.
        assert_eq!(after, before_spo(&trees, &budgets));
    }

    #[test]
    #[should_panic(expected = "one root budget per tree")]
    fn mismatched_lengths_panic() {
        let (_, trees) = fig7a_trees();
        let _ = spo(&trees, &[Watts::new(700.0)]);
    }

    #[test]
    fn without_reclaim_only_the_first_pass_runs() {
        let (_, trees) = fig7a_trees();
        let mut scratch = SpoScratch::new();
        let (stranded, out) = round_in(&trees, &BUDGETS, false, &mut scratch);
        assert_eq!(stranded, Watts::ZERO);
        assert_eq!(out, before_spo(&trees, &BUDGETS));
        assert!(!scratch.settled());
        let nodes: u64 = trees.iter().map(|t| t.spec().len() as u64).sum();
        assert_eq!(scratch.gather_stats(), (nodes, 0));

        // A repeat finds every node clean and settles; turning the pass on
        // afterwards detects afresh.
        round_in(&trees, &BUDGETS, false, &mut scratch);
        assert_eq!(scratch.gather_stats(), (nodes, nodes));
        assert!(scratch.settled());
        let (stranded, out) = round_in(&trees, &BUDGETS, true, &mut scratch);
        assert_eq!((stranded, out), spo(&trees, &BUDGETS));
    }

    #[test]
    fn a_repeated_round_skips_every_node_and_settles() {
        let (_, trees) = fig7a_trees();
        let mut scratch = SpoScratch::new();
        let first = round_in(&trees, &BUDGETS, true, &mut scratch);
        assert!(!scratch.settled());
        let (summarized, skipped) = scratch.gather_stats();
        // Both passes find every node clean, and count each one skipped,
        // walk or no walk.
        assert_eq!(round_in(&trees, &BUDGETS, true, &mut scratch), first);
        let nodes: u64 = trees.iter().map(|t| t.spec().len() as u64).sum();
        assert_eq!(scratch.gather_stats(), (summarized, skipped + 2 * nodes));
        assert!(scratch.settled());
    }

    /// The AC power every server can draw under `allocations` with the
    /// trees' own (unshrunk) inputs, summed: its demand clamped by its most
    /// constrained supply.
    fn served(trees: &[ControlTree], allocations: &[Allocation]) -> Watts {
        let mut servers: HashMap<ServerId, (Watts, f64)> = HashMap::new();
        for (tree, alloc) in trees.iter().zip(allocations) {
            let index = tree.arena().leaf_index();
            for slot in 0..index.len() {
                let input = tree.input_at(index.node(slot)).unwrap();
                let (demand, limit) = servers
                    .entry(index.pair(slot).0)
                    .or_insert((Watts::ZERO, f64::INFINITY));
                *demand = demand.max(input.demand.max(input.cap_min));
                *limit = limit.min(alloc.leaf_budget(slot).as_f64() / input.share.as_f64());
            }
        }
        servers
            .values()
            .map(|&(demand, limit)| demand.min(Watts::new(limit)))
            .sum()
    }

    #[test]
    fn spo_never_reduces_total_served_power() {
        let (_, trees) = fig7a_trees();
        let total_before = served(&trees, &before_spo(&trees, &BUDGETS));
        // Achievable consumption under the second allocation with the
        // ORIGINAL inputs (shares/demands unchanged physically).
        let total_after = served(&trees, &spo(&trees, &BUDGETS).1);
        assert!(
            total_after >= total_before - Watts::new(1e-6),
            "SPO reduced served power: {total_before} -> {total_after}"
        );
    }
}
