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

/// Result of a stranded-power optimization round.
#[derive(Debug, Clone)]
pub struct SpoOutcome {
    /// First-pass allocations, one per tree (before SPO).
    pub first: Vec<Allocation>,
    /// Second-pass allocations after stranded budgets were reclaimed.
    pub second: Vec<Allocation>,
    /// Stranded power found per supply in the first pass.
    pub stranded: HashMap<(ServerId, SupplyIndex), Watts>,
}

impl SpoOutcome {
    /// Total stranded power detected in the first pass.
    ///
    /// Summed in `(server, supply)` order: map iteration order varies per
    /// instance and f64 addition is not associative, so a fixed order
    /// keeps the reported total bit-identical across control planes.
    pub fn total_stranded(&self) -> Watts {
        let mut entries: Vec<(&(ServerId, SupplyIndex), &Watts)> =
            self.stranded.iter().collect();
        entries.sort_unstable_by_key(|(&key, _)| key);
        entries.into_iter().map(|(_, &w)| w).sum()
    }

    /// Final (post-SPO) budget for a supply, searching all trees.
    pub fn final_supply_budget(
        &self,
        server: ServerId,
        supply: SupplyIndex,
    ) -> Option<Watts> {
        self.second
            .iter()
            .find_map(|a| a.supply_budget(server, supply))
    }

    /// First-pass (pre-SPO) budget for a supply.
    pub fn initial_supply_budget(
        &self,
        server: ServerId,
        supply: SupplyIndex,
    ) -> Option<Watts> {
        self.first
            .iter()
            .find_map(|a| a.supply_budget(server, supply))
    }
}

/// Per-server view assembled across trees: supplies with their shares,
/// budgets, and the server's demand/cap_min.
#[derive(Debug, Clone)]
struct ServerView {
    demand: Watts,
    cap_min: Watts,
    /// `(tree index, server, supply, share, budget)`.
    supplies: Vec<(usize, SupplyIndex, f64, Watts)>,
}

fn collect_server_views(
    trees: &[ControlTree],
    allocations: &[Allocation],
) -> HashMap<ServerId, ServerView> {
    let mut views: HashMap<ServerId, ServerView> = HashMap::new();
    for (t, (tree, alloc)) in trees.iter().zip(allocations).enumerate() {
        for idx in 0..tree.spec().len() {
            let Some(leaf) = tree.spec().node(idx).leaf else {
                continue;
            };
            let Some(input) = tree.input_at(idx) else {
                continue;
            };
            let budget = alloc
                .supply_budget(leaf.server, leaf.supply)
                .unwrap_or(Watts::ZERO);
            let view = views.entry(leaf.server).or_insert_with(|| ServerView {
                demand: Watts::ZERO,
                cap_min: Watts::ZERO,
                supplies: Vec::new(),
            });
            view.demand = view.demand.max(input.demand);
            view.cap_min = view.cap_min.max(input.cap_min);
            view.supplies
                .push((t, leaf.supply, input.share.as_f64(), budget));
        }
    }
    views
}

/// The AC power a server will actually draw given its per-supply budgets:
/// its demand, clamped by the most constrained supply (budget ÷ share).
fn achievable_consumption(view: &ServerView) -> Watts {
    let mut limit = f64::INFINITY;
    for &(_, _, share, budget) in &view.supplies {
        if share > 0.0 {
            limit = limit.min(budget.as_f64() / share);
        }
    }
    let demand = view.demand.max(view.cap_min);
    if limit.is_finite() {
        demand.min(Watts::new(limit))
    } else {
        demand
    }
}

/// Runs the global priority-aware allocation on each tree, detects stranded
/// per-supply budget, shrinks it, and re-runs the allocation (paper §4.4).
///
/// `trees` and `root_budgets` are parallel: tree `i` allocates
/// `root_budgets[i]`. All trees must cover the same control period — in a
/// redundant data center they are the per-feed trees of one phase. Both
/// passes split budgets with `allocator`, the same one the plain
/// allocation rounds use.
///
/// This is the from-scratch reference (it clones the trees for pass 2);
/// the control plane's hot path is [`optimize_stranded_power_in`], which
/// is bit-identical to it.
///
/// # Examples
///
/// ```
/// use capmaestro_core::alloc::WaterfallAllocator;
/// use capmaestro_core::policy::GlobalPriority;
/// use capmaestro_core::spo::optimize_stranded_power;
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
/// let outcome = optimize_stranded_power(
///     &trees,
///     &[Watts::new(700.0), Watts::new(700.0)],
///     &GlobalPriority::new(),
///     &WaterfallAllocator,
/// );
/// // The split mismatch strands power on the first pass…
/// assert!(outcome.total_stranded() > Watts::ZERO);
/// ```
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn optimize_stranded_power(
    trees: &[ControlTree],
    root_budgets: &[Watts],
    policy: &dyn CappingPolicy,
    allocator: &dyn Allocator,
) -> SpoOutcome {
    assert_eq!(
        trees.len(),
        root_budgets.len(),
        "one root budget per tree is required"
    );

    // Pass 1: plain allocation.
    let first: Vec<Allocation> = trees
        .iter()
        .zip(root_budgets)
        .map(|(t, &b)| t.allocate_with(b, policy, allocator))
        .collect();

    let (stranded, adjusted) = detect_strands(trees, &first);

    // Pass 2: shrink stranded supplies' demand/constraint to what they can
    // use, then re-allocate so the freed power moves elsewhere on the feed.
    let mut trees2: Vec<ControlTree> = trees.to_vec();
    for tree in &mut trees2 {
        shrink_stranded_inputs(tree, &adjusted);
    }
    let second: Vec<Allocation> = trees2
        .iter()
        .zip(root_budgets)
        .map(|(t, &b)| t.allocate_with(b, policy, allocator))
        .collect();

    SpoOutcome {
        first,
        second,
        stranded,
    }
}

/// Finds stranded budget per supply after a first-pass allocation. The
/// detection couples trees (a dual-corded server's supplies live in
/// different trees). Returns `(stranded amount, achievable consumption)`
/// keyed by supply, the latter only for supplies worth shrinking.
#[allow(clippy::type_complexity)]
fn detect_strands(
    trees: &[ControlTree],
    first: &[Allocation],
) -> (
    HashMap<(ServerId, SupplyIndex), Watts>,
    HashMap<(ServerId, SupplyIndex), Watts>,
) {
    let views = collect_server_views(trees, first);
    let mut stranded = HashMap::new();
    let mut adjusted = HashMap::new();
    for (&server, view) in &views {
        let actual = achievable_consumption(view);
        for &(_, supply, share, budget) in &view.supplies {
            let usable = actual * share;
            let strand = budget.saturating_sub(usable);
            if strand > STRAND_EPSILON {
                stranded.insert((server, supply), strand);
                adjusted.insert((server, supply), actual);
            }
        }
    }
    (stranded, adjusted)
}

/// Shrinks a tree's stranded leaves' demand/constraint to their achievable
/// consumption (the pass-2 input adjustment).
fn shrink_stranded_inputs(
    tree: &mut ControlTree,
    adjusted: &HashMap<(ServerId, SupplyIndex), Watts>,
) {
    let spec_len = tree.spec().len();
    for idx in 0..spec_len {
        let Some(leaf) = tree.spec().node(idx).leaf else {
            continue;
        };
        let Some(&actual) = adjusted.get(&(leaf.server, leaf.supply)) else {
            continue;
        };
        let Some(&input) = tree.input_at(idx) else {
            continue;
        };
        let new_input = SupplyInput {
            demand: actual,
            cap_max: actual.max(input.cap_min),
            ..input
        };
        tree.set_supply_input(leaf.server, leaf.supply, new_input);
    }
}

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

    /// Whether the last round's second pass re-split nothing in any tree,
    /// so every final leaf budget is the one of the round before.
    pub(crate) fn settled(&self) -> bool {
        self.states2.iter().all(TreeRoundState::settled)
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

/// Allocation-free variant of [`optimize_stranded_power`] for the control
/// plane's hot path: both passes run through [`ControlTree::allocate_in`]
/// with round states held in `scratch`, strand detection walks precomputed
/// per-server routes, and the pass-2 input shrink is applied as an overlay
/// instead of cloning the trees. Writes the post-SPO allocations into
/// `second` (buffers reused) and returns the total stranded power detected
/// in the first pass, summed in `(server, supply)` order.
///
/// When pass 1 changed nothing — no summary recomputed, no budget moved,
/// in any tree — the strands are those of the last detection: detection is
/// skipped, its overlays and total reused, and pass 2 skips its gather walk
/// and runs through the budget memo.
///
/// Bit-identical to [`optimize_stranded_power`] on the same inputs, where
/// each `(server, supply)` is a leaf of at most one tree.
///
/// The caller must call [`SpoScratch::invalidate`] whenever the tree set
/// changes between rounds.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn optimize_stranded_power_in(
    trees: &[ControlTree],
    root_budgets: &[Watts],
    policy: &dyn CappingPolicy,
    allocator: &dyn Allocator,
    scratch: &mut SpoScratch,
    second: &mut Vec<Allocation>,
    recorder: &dyn Recorder,
) -> Watts {
    assert_eq!(
        trees.len(),
        root_budgets.len(),
        "one root budget per tree is required"
    );
    let n = trees.len();
    if !scratch.routes_valid || scratch.overlays.len() != n {
        scratch.rebuild_routes(trees);
    }
    if scratch.states1.len() != n {
        scratch.states1.resize_with(n, TreeRoundState::new);
        scratch.states2.resize_with(n, TreeRoundState::new);
    }
    if scratch.first.len() != n {
        scratch.first.clear();
        scratch.first.resize_with(n, Allocation::default);
    }
    if second.len() != n {
        second.clear();
        second.resize_with(n, Allocation::default);
    }

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
            &mut scratch.first[i],
        );
        settled &= scratch.states1[i].settled();
    }
    drop(allocate_timer);
    let spo_timer = PhaseTimer::start(recorder, RoundPhase::Spo.metric_name());

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
            &mut second[i],
        );
    }
    drop(spo_timer);
    total
}

/// Strand detection over the precomputed routes into `scratch.overlays` —
/// the same max/min/mul operations as `detect_strands`, so the results are
/// bit-identical. Returns the stranded total, summed in route order, which
/// is `(server, supply)` order.
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

    #[test]
    fn detects_and_reclaims_stranded_power() {
        let (topo, trees) = fig7a_trees();
        let budgets = vec![Watts::new(700.0), Watts::new(700.0)];
        let outcome = optimize_stranded_power(
            &trees,
            &budgets,
            &GlobalPriority::new(),
            &WaterfallAllocator,
        );

        // Something must be stranded: SC/SD splits cannot match the
        // independent X/Y allocations exactly.
        assert!(outcome.total_stranded() > Watts::new(5.0));

        // SB (Y-side only, low priority, capped in pass 1) must gain power.
        let sb = topo.server_by_name("SB").unwrap();
        let before = outcome
            .initial_supply_budget(sb, SupplyIndex::FIRST)
            .unwrap();
        let after = outcome.final_supply_budget(sb, SupplyIndex::FIRST).unwrap();
        assert!(
            after > before + Watts::new(5.0),
            "SB budget should grow: {before} -> {after}"
        );
    }

    #[test]
    fn high_priority_server_is_unaffected() {
        let (topo, trees) = fig7a_trees();
        let budgets = vec![Watts::new(700.0), Watts::new(700.0)];
        let outcome = optimize_stranded_power(
            &trees,
            &budgets,
            &GlobalPriority::new(),
            &WaterfallAllocator,
        );
        let sa = topo.server_by_name("SA").unwrap();
        let before = outcome
            .initial_supply_budget(sa, SupplyIndex::FIRST)
            .unwrap();
        let after = outcome.final_supply_budget(sa, SupplyIndex::FIRST).unwrap();
        // SA was already fully served (high priority): its budget must not
        // shrink below its demand.
        assert!(before >= Watts::new(413.0));
        assert!(after >= Watts::new(413.0));
    }

    #[test]
    fn feed_budgets_still_respected_after_spo() {
        let (_, trees) = fig7a_trees();
        let budgets = vec![Watts::new(700.0), Watts::new(700.0)];
        let outcome = optimize_stranded_power(
            &trees,
            &budgets,
            &GlobalPriority::new(),
            &WaterfallAllocator,
        );
        for (alloc, budget) in outcome.second.iter().zip(&budgets) {
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
        let tree = ControlTree::with_uniform(
            spec,
            SupplyInput {
                demand: Watts::new(430.0),
                cap_min: Watts::new(270.0),
                cap_max: Watts::new(490.0),
                share: Ratio::ONE,
            },
        );
        let outcome = optimize_stranded_power(
            &[tree],
            &[Watts::new(1240.0)],
            &GlobalPriority::new(),
            &WaterfallAllocator,
        );
        assert_eq!(outcome.total_stranded(), Watts::ZERO);
        // Second pass equals the first.
        assert_eq!(outcome.first[0], outcome.second[0]);
    }

    #[test]
    #[should_panic(expected = "one root budget per tree")]
    fn mismatched_lengths_panic() {
        let (_, trees) = fig7a_trees();
        let _ = optimize_stranded_power(
            &trees,
            &[Watts::new(700.0)],
            &GlobalPriority::new(),
            &WaterfallAllocator,
        );
    }

    #[test]
    fn scratch_spo_is_bit_identical_to_cloning_path() {
        let (_, mut trees) = fig7a_trees();
        let policy = GlobalPriority::new();
        let mut scratch = SpoScratch::new();
        let mut second = Vec::new();
        // Several rounds with different budgets and a demand change in the
        // middle, reusing the scratch throughout: every round must match the
        // cloning implementation bit for bit.
        let budget_rounds = [
            [Watts::new(700.0), Watts::new(700.0)],
            [Watts::new(650.0), Watts::new(720.0)],
            [Watts::new(650.0), Watts::new(720.0)],
            [Watts::new(820.0), Watts::new(600.0)],
            [Watts::new(820.0), Watts::new(600.0)],
        ];
        for (round, budgets) in budget_rounds.iter().enumerate() {
            let stats_before = scratch.gather_stats();
            if round == 2 {
                for tree in &mut trees {
                    tree.set_inputs_with(|server, _| {
                        let bump = if server.index() == 0 { 12.0 } else { 0.0 };
                        SupplyInput {
                            demand: Watts::new(414.0 + bump),
                            cap_min: Watts::new(270.0),
                            cap_max: Watts::new(490.0),
                            share: Ratio::new(0.5),
                        }
                    });
                }
            }
            let expected = optimize_stranded_power(&trees, budgets, &policy, &WaterfallAllocator);
            let total = optimize_stranded_power_in(
                &trees,
                budgets,
                &policy,
                &WaterfallAllocator,
                &mut scratch,
                &mut second,
                &crate::obs::NullRecorder,
            );
            assert_eq!(second, expected.second, "round {round} allocations differ");
            assert_eq!(
                total.as_f64().to_bits(),
                expected.total_stranded().as_f64().to_bits(),
                "round {round} stranded totals differ"
            );
            if round == 4 {
                // A repeat of the round before: both passes find every
                // node clean, and count each one skipped, walk or no walk.
                let nodes: u64 = trees.iter().map(|t| t.spec().len() as u64).sum();
                let (summarized, skipped) = scratch.gather_stats();
                assert_eq!(summarized, stats_before.0);
                assert_eq!(skipped - stats_before.1, 2 * nodes);
                assert!(scratch.settled());
            }
        }
    }

    #[test]
    fn spo_never_reduces_total_served_power() {
        let (_, trees) = fig7a_trees();
        let budgets = vec![Watts::new(700.0), Watts::new(700.0)];
        let outcome = optimize_stranded_power(
            &trees,
            &budgets,
            &GlobalPriority::new(),
            &WaterfallAllocator,
        );
        let views1 = collect_server_views(&trees, &outcome.first);
        let total_before: Watts = views1.values().map(achievable_consumption).sum();
        // Recompute achievable consumption under the second allocation with
        // the ORIGINAL inputs (shares/demands unchanged physically).
        let views2 = collect_server_views(&trees, &outcome.second);
        let total_after: Watts = views2.values().map(achievable_consumption).sum();
        assert!(
            total_after >= total_before - Watts::new(1e-6),
            "SPO reduced served power: {total_before} -> {total_after}"
        );
    }
}
