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

use capmaestro_units::Watts;

use crate::alloc::Allocator;
use crate::leaf::{Route, RouteTable};
use crate::obs::{PhaseTimer, Recorder, RoundPhase};
use crate::plane::TreeRow;
use crate::policy::CappingPolicy;
use crate::tree::{Allocation, ControlTree, SupplyInput};

/// Stranded power below this threshold is ignored (measurement noise in a
/// real deployment; numerical noise here).
pub const STRAND_EPSILON: Watts = Watts::new(0.5);

/// The cross-tree buffers of [`optimize_stranded_power_in`]: the trees'
/// route table and the last detection's stranded total. Keep one per
/// control plane and reuse it across rounds; with warm [`TreeRow`]s,
/// steady-state SPO then performs no heap allocation.
#[derive(Debug, Default)]
pub struct SpoScratch {
    /// One row per tree leaf: detection walks one server's run of rows at a
    /// time and sums the strands in table order. The control plane refits
    /// it with its lanes and enforces through it.
    routes: RouteTable,
    /// The stranded total of the detection the rows' overlays hold; `None`
    /// until one ran over the current routes.
    detected: Option<Watts>,
}

impl SpoScratch {
    /// Refits the route table over `trees`; the next SPO pass detects
    /// afresh.
    pub(crate) fn fit_routes(&mut self, trees: &[ControlTree]) {
        self.routes.fit(trees);
        self.detected = None;
    }

    /// The route table over the trees of the last round.
    pub(crate) fn routes(&self) -> &RouteTable {
        &self.routes
    }
}

/// One round's allocation with the stranded-power optimization (§4.4):
/// pass 1 allocates every tree, strand detection finds the budget each
/// supply cannot use given its server's split, and pass 2 re-allocates
/// with every stranded supply's demand shrunk to what its server can
/// draw. Tree `i` allocates `root_budgets[i]` with `allocator` through
/// `rows[i]`, which must serve tree `i` and no other for as long as it
/// lives (a [`TreeRow`] per tree, as the control plane keeps them); all
/// trees cover the same control period (in a redundant data center, the
/// per-feed trees of one phase). Writes the final allocations into `out`
/// (buffers reused) and returns the stranded power detected after pass 1,
/// summed in `(server, supply, tree)` order, beside whether the final pass
/// (pass 2, or pass 1 without reclaim) re-split nothing in any tree, so
/// that every final leaf budget is the one of the round before.
///
/// Without `reclaim`, only pass 1 runs: its allocations go straight into
/// `out`, the Spo phase records zero and the stranded power is zero.
///
/// Both passes run through [`ControlTree::allocate_in`] with the round
/// states each row holds, strand detection walks `scratch`'s route table
/// one server at a time, and the pass-2 input shrink is each row's overlay
/// on its tree. When pass 1 changed nothing — no summary recomputed, no
/// budget moved, in any tree — the strands are those of the last
/// detection: detection is skipped, its overlays and total reused, and
/// pass 2 skips its gather walk and runs through the budget memo. Each
/// `(server, supply)` must be a leaf of at most one tree.
///
/// `scratch` fits its route table to `trees` when it is empty; a caller
/// whose tree set changes between rounds refits it (the control plane
/// does so with its lanes).
///
/// # Examples
///
/// ```
/// use capmaestro_core::alloc::WaterfallAllocator;
/// use capmaestro_core::obs::NullRecorder;
/// use capmaestro_core::policy::GlobalPriority;
/// use capmaestro_core::plane::TreeRow;
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
/// let (stranded, _) = optimize_stranded_power_in(
///     &trees,
///     &[Watts::new(700.0), Watts::new(700.0)],
///     &GlobalPriority::new(),
///     &WaterfallAllocator,
///     true,
///     &mut [TreeRow::default(), TreeRow::default()],
///     &mut SpoScratch::default(),
///     &mut out,
///     &NullRecorder,
/// );
/// // The split mismatch strands power on the first pass…
/// assert!(stranded > Watts::ZERO);
/// ```
///
/// # Panics
///
/// Panics if the tree, budget and row counts differ.
#[allow(clippy::too_many_arguments)]
pub fn optimize_stranded_power_in(
    trees: &[ControlTree],
    root_budgets: &[Watts],
    policy: &dyn CappingPolicy,
    allocator: &dyn Allocator,
    reclaim: bool,
    rows: &mut [TreeRow],
    scratch: &mut SpoScratch,
    out: &mut Vec<Allocation>,
    recorder: &dyn Recorder,
) -> (Watts, bool) {
    assert!(
        trees.len() == root_budgets.len() && trees.len() == rows.len(),
        "one root budget and one row per tree is required"
    );
    // Every allocation is rewritten whole, so a reshaped report reuses
    // the buffers it had.
    out.resize_with(trees.len(), Allocation::default);

    // Pass 1: plain allocation (incremental per tree). Attributed to the
    // Allocate phase; strand detection and pass 2 below are the Spo phase.
    let allocate_timer =
        PhaseTimer::start(recorder, RoundPhase::Allocate.metric_name());
    let mut settled = true;
    for (i, (tree, row)) in trees.iter().zip(rows.iter_mut()).enumerate() {
        let (state, first) = (&mut row.pass1, if reclaim { &mut row.first } else { &mut out[i] });
        settled &= tree.allocate_in(root_budgets[i], policy, allocator, state, None, first);
    }
    drop(allocate_timer);
    if !reclaim {
        // Record an explicit zero so the phase series exists (and shows as
        // idle) on every configuration. An earlier detection no longer
        // describes pass 1.
        recorder.observe(RoundPhase::Spo.metric_name(), 0.0);
        scratch.detected = None;
        return (Watts::ZERO, settled);
    }
    let spo_timer = PhaseTimer::start(recorder, RoundPhase::Spo.metric_name());
    // A tree set without leaves rebuilds its empty routes every round,
    // which costs nothing.
    if scratch.routes.rows().is_empty() {
        scratch.fit_routes(trees);
    }

    let total = match scratch.detected {
        Some(total) if settled => {
            // The overlays stand, so pass 2 sees the last round's inputs.
            rows.iter_mut().for_each(|row| row.pass2.keep_overlay());
            total
        }
        _ => detect_strands_in(trees, rows, &scratch.routes),
    };
    scratch.detected = Some(total);

    // Pass 2: re-allocate with the shrunken inputs overlaid.
    let mut settled = true;
    for (i, (tree, row)) in trees.iter().zip(rows.iter_mut()).enumerate() {
        let (state, overlay, last) = (&mut row.pass2, Some(&row.overlay[..]), &mut out[i]);
        settled &= tree.allocate_in(root_budgets[i], policy, allocator, state, overlay, last);
    }
    drop(spo_timer);
    (total, settled)
}

/// Strand detection over the route table into the rows' overlays, one
/// server's run of rows at a time: per server, its demand clamped by its
/// most constrained supply (budget ÷ share); per supply, the budget above
/// that share of it. Returns the stranded total, summed in table order,
/// which is `(server, supply, tree)` order.
fn detect_strands_in(trees: &[ControlTree], rows: &mut [TreeRow], routes: &RouteTable) -> Watts {
    for (tree, row) in trees.iter().zip(rows.iter_mut()) {
        row.overlay.clear();
        row.overlay.resize(tree.arena().leaf_index().len(), None);
    }
    let input = |r: &Route| trees[r.tree as usize].slot_input(r.slot as usize);
    let budget =
        |rows: &[TreeRow], r: &Route| rows[r.tree as usize].first.leaf_budget(r.slot as usize);
    let mut total = Watts::ZERO;
    for supplies in routes.runs() {
        let mut demand = Watts::ZERO;
        let mut cap_min = Watts::ZERO;
        let mut limit = f64::INFINITY;
        let mut any_input = false;
        for s in supplies {
            let Some(input) = input(s) else {
                continue;
            };
            any_input = true;
            demand = demand.max(input.demand);
            cap_min = cap_min.max(input.cap_min);
            let share = input.share.as_f64();
            if share > 0.0 {
                limit = limit.min(budget(rows, s).as_f64() / share);
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
        for s in supplies {
            let Some(&input) = input(s) else {
                continue;
            };
            let usable = actual * input.share.as_f64();
            let strand = budget(rows, s).saturating_sub(usable);
            if strand > STRAND_EPSILON {
                total += strand;
                rows[s.tree as usize].overlay[s.slot as usize] = Some(SupplyInput {
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
    use std::collections::HashMap;

    use super::*;
    use crate::alloc::WaterfallAllocator;
    use capmaestro_topology::{ServerId, SupplyIndex};
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

    /// One row per tree of the Fig. 7a rig, and the scratch beside them.
    #[derive(Default)]
    struct Walk {
        rows: [TreeRow; 2],
        scratch: SpoScratch,
    }

    impl Walk {
        fn gather_stats(&self) -> (u64, u64) {
            let [(s1, k1), (s2, k2)] = self.rows.each_ref().map(TreeRow::gather_stats);
            (s1 + s2, k1 + k2)
        }
    }

    /// One round through `walk`: `(stranded, final allocations,
    /// settled)`.
    fn round_in(
        trees: &[ControlTree],
        budgets: &[Watts],
        reclaim: bool,
        walk: &mut Walk,
    ) -> (Watts, Vec<Allocation>, bool) {
        let mut out = Vec::new();
        let (stranded, settled) = optimize_stranded_power_in(
            trees,
            budgets,
            &GlobalPriority::new(),
            &WaterfallAllocator,
            reclaim,
            &mut walk.rows[..trees.len()],
            &mut walk.scratch,
            &mut out,
            &crate::obs::NullRecorder,
        );
        (stranded, out, settled)
    }

    /// A cold round with the stranded-power pass.
    fn spo(trees: &[ControlTree], budgets: &[Watts]) -> (Watts, Vec<Allocation>) {
        let (stranded, out, _) = round_in(trees, budgets, true, &mut Walk::default());
        (stranded, out)
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
    #[should_panic(expected = "one root budget and one row per tree")]
    fn mismatched_lengths_panic() {
        let (_, trees) = fig7a_trees();
        let _ = spo(&trees, &[Watts::new(700.0)]);
    }

    #[test]
    fn without_reclaim_only_the_first_pass_runs() {
        let (_, trees) = fig7a_trees();
        let mut walk = Walk::default();
        let (stranded, out, settled) = round_in(&trees, &BUDGETS, false, &mut walk);
        assert_eq!(stranded, Watts::ZERO);
        assert_eq!(out, before_spo(&trees, &BUDGETS));
        assert!(!settled);
        let nodes: u64 = trees.iter().map(|t| t.arena().len() as u64).sum();
        assert_eq!(walk.gather_stats(), (nodes, 0));

        // A repeat finds every node clean and settles; turning the pass on
        // afterwards detects afresh.
        let (.., settled) = round_in(&trees, &BUDGETS, false, &mut walk);
        assert_eq!(walk.gather_stats(), (nodes, nodes));
        assert!(settled);
        let (stranded, out, _) = round_in(&trees, &BUDGETS, true, &mut walk);
        assert_eq!((stranded, out), spo(&trees, &BUDGETS));
    }

    #[test]
    fn a_repeated_round_skips_every_node_and_settles() {
        let (_, trees) = fig7a_trees();
        let mut walk = Walk::default();
        let (stranded, out, settled) = round_in(&trees, &BUDGETS, true, &mut walk);
        assert!(!settled);
        let (summarized, skipped) = walk.gather_stats();
        // Both passes find every node clean, and count each one skipped,
        // walk or no walk.
        let (again, again_out, settled) = round_in(&trees, &BUDGETS, true, &mut walk);
        assert_eq!((again, again_out), (stranded, out));
        let nodes: u64 = trees.iter().map(|t| t.arena().len() as u64).sum();
        assert_eq!(walk.gather_stats(), (summarized, skipped + 2 * nodes));
        assert!(settled);
    }

    /// The AC power every server can draw under `allocations` with the
    /// trees' own (unshrunk) inputs, summed: its demand clamped by its most
    /// constrained supply.
    fn served(trees: &[ControlTree], allocations: &[Allocation]) -> Watts {
        let mut servers: HashMap<ServerId, (Watts, f64)> = HashMap::new();
        for (tree, alloc) in trees.iter().zip(allocations) {
            let index = tree.arena().leaf_index();
            for slot in 0..index.len() {
                let input = tree.slot_input(slot).unwrap();
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
