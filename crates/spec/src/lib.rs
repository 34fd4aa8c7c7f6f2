//! An executable specification of the allocation half of one CapMaestro
//! control round, written as plainly as the paper states it: gather every
//! tree's priority metrics bottom-up (§4.3.1), split budgets top-down
//! (§4.3.2), then reclaim stranded power with a second pass (§4.4).
//!
//! Nothing is cached here: no memo, generation stamp, pin or overlay.
//! Every call recomputes everything from the trees' current inputs. The
//! product's incremental round (`ControlPlane::round`, built on
//! `spo::optimize_stranded_power_in`) must equal it bit for bit, and the
//! differential suites compare the two. The spec keeps the product's
//! summation orders (children in spec order, strands in
//! `(server, supply)` order), which is what makes exact equality possible.
//!
//! Test-only: crates take it as a dev-dependency, never as a dependency
//! (`tests/api_guidelines.rs` checks every manifest).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;

use capmaestro_core::alloc::{AllocScratch, Allocator};
use capmaestro_core::metrics::{LeafInput, PriorityMetrics};
use capmaestro_core::policy::{CappingPolicy, PriorityVisibility};
use capmaestro_core::spo::STRAND_EPSILON;
use capmaestro_core::tree::{ControlTree, SupplyInput};
use capmaestro_topology::{ServerId, SupplyIndex};
use capmaestro_units::Watts;

/// One tree's budgets from a round.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeBudgets {
    /// Per spec node; a leaf's is its supply's budget.
    pub nodes: Vec<Watts>,
    /// The part of the root budget no child received.
    pub unallocated: Watts,
}

/// The allocation half of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Final budgets per tree: after the reclaim pass when it ran.
    pub trees: Vec<TreeBudgets>,
    /// Stranded power the first pass left, summed in `(server, supply)`
    /// order; zero without the reclaim pass.
    pub stranded: Watts,
}

/// The metrics-gathering phase (§4.3.1): per-node priority summaries,
/// bottom-up, with the policy deciding where levels collapse.
///
/// # Panics
///
/// Panics if any leaf lacks a [`SupplyInput`].
pub fn gather(tree: &ControlTree, policy: &dyn CappingPolicy) -> Vec<PriorityMetrics> {
    let spec = tree.spec();
    let n = spec.len();
    let mut metrics: Vec<PriorityMetrics> = vec![PriorityMetrics::empty(); n];
    for idx in (0..n).rev() {
        let node = spec.node(idx);
        if let Some(leaf) = &node.leaf {
            let input = tree
                .input_at(idx)
                .unwrap_or_else(|| panic!("leaf {idx} ({}) has no supply input set", node.name));
            metrics[idx] = PriorityMetrics::from_leaf(&LeafInput {
                demand: input.demand,
                cap_min: input.cap_min,
                cap_max: input.cap_max,
                share: input.share,
                priority: leaf.priority,
            });
        } else {
            let visibility = policy.visibility(tree.arena().context(idx));
            let children: Vec<PriorityMetrics> = node
                .children
                .iter()
                .map(|&c| seen(&metrics[c], visibility))
                .collect();
            metrics[idx] = PriorityMetrics::aggregate(children.iter(), node.limit);
        }
    }
    metrics
}

/// One round's allocation over trees that cover the same control period:
/// tree `i` splits `root_budgets[i]` with `allocator`. With `reclaim`,
/// the stranded-power optimization follows (§4.4): strands are detected
/// across trees (a dual-corded server's supplies live in different
/// trees), every stranded supply's demand shrinks to what its server can
/// draw, and every tree is allocated again.
///
/// # Panics
///
/// Panics if the slices have different lengths, or as [`gather`] does.
pub fn round(
    trees: &[ControlTree],
    root_budgets: &[Watts],
    policy: &dyn CappingPolicy,
    allocator: &dyn Allocator,
    reclaim: bool,
) -> Round {
    assert_eq!(
        trees.len(),
        root_budgets.len(),
        "one root budget per tree is required"
    );
    let allocate = |trees: &[ControlTree]| -> Vec<TreeBudgets> {
        trees
            .iter()
            .zip(root_budgets)
            .map(|(tree, &budget)| budget_down(tree, budget, policy, allocator))
            .collect()
    };
    let first = allocate(trees);
    if !reclaim {
        return Round {
            trees: first,
            stranded: Watts::ZERO,
        };
    }

    let strands = detect_strands(trees, &first);
    let mut shrunk = trees.to_vec();
    for tree in &mut shrunk {
        shrink_stranded_inputs(tree, &strands);
    }
    Round {
        trees: allocate(&shrunk),
        stranded: strands.values().map(|&(strand, _)| strand).sum(),
    }
}

/// A child's summary as its parent sees it under the policy.
fn seen(metrics: &PriorityMetrics, visibility: PriorityVisibility) -> PriorityMetrics {
    match visibility {
        PriorityVisibility::Full => metrics.clone(),
        PriorityVisibility::Blind => metrics.collapsed(),
    }
}

/// The budget-down phase (§4.3.2): clamps `root_budget` at the root's
/// limit, then visits parents before children (spec order), splitting
/// each node's budget over its children's summaries through `allocator`.
fn budget_down(
    tree: &ControlTree,
    root_budget: Watts,
    policy: &dyn CappingPolicy,
    allocator: &dyn Allocator,
) -> TreeBudgets {
    let metrics = gather(tree, policy);
    let arena = tree.arena();
    let root = tree.spec().root();
    let mut nodes = vec![Watts::ZERO; tree.spec().len()];
    nodes[root] = root_budget.min(arena.limit(root).unwrap_or(root_budget));
    let mut unallocated = root_budget - nodes[root];
    for idx in 0..nodes.len() {
        let children = arena.children_of(idx);
        if children.is_empty() {
            continue;
        }
        let visibility = policy.visibility(arena.context(idx));
        let summaries: Vec<PriorityMetrics> = children
            .iter()
            .map(|&c| seen(&metrics[c as usize], visibility))
            .collect();
        let mut split = Vec::new();
        let leftover = allocator.split(
            nodes[idx],
            &summaries,
            &mut AllocScratch::default(),
            &mut split,
        );
        for (&child, &budget) in children.iter().zip(&split) {
            nodes[child as usize] = budget;
        }
        if idx == root {
            unallocated += leftover;
        }
    }
    TreeBudgets { nodes, unallocated }
}

/// Per stranded supply: the budget it cannot use, and its server's
/// achievable consumption.
type Strands = BTreeMap<(ServerId, SupplyIndex), (Watts, Watts)>;

/// One server's supplies across every tree, with its demand and floor.
#[derive(Debug, Default)]
struct ServerView {
    demand: Watts,
    cap_min: Watts,
    /// `(supply, share, first-pass budget)`.
    supplies: Vec<(SupplyIndex, f64, Watts)>,
}

fn collect_server_views(
    trees: &[ControlTree],
    budgets: &[TreeBudgets],
) -> BTreeMap<ServerId, ServerView> {
    let mut views: BTreeMap<ServerId, ServerView> = BTreeMap::new();
    for (tree, budgets) in trees.iter().zip(budgets) {
        for idx in 0..tree.spec().len() {
            let Some(leaf) = tree.spec().node(idx).leaf else {
                continue;
            };
            let Some(input) = tree.input_at(idx) else {
                continue;
            };
            let view = views.entry(leaf.server).or_default();
            view.demand = view.demand.max(input.demand);
            view.cap_min = view.cap_min.max(input.cap_min);
            view.supplies
                .push((leaf.supply, input.share.as_f64(), budgets.nodes[idx]));
        }
    }
    views
}

/// The AC power a server will actually draw given its per-supply budgets:
/// its demand, clamped by the most constrained supply (budget ÷ share).
fn achievable_consumption(view: &ServerView) -> Watts {
    let mut limit = f64::INFINITY;
    for &(_, share, budget) in &view.supplies {
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

/// Finds the budget each supply cannot use after the first pass: per
/// stranded supply, `(stranded amount, its server's achievable
/// consumption)`, in `(server, supply)` order.
fn detect_strands(trees: &[ControlTree], first: &[TreeBudgets]) -> Strands {
    let mut strands = Strands::new();
    for (server, view) in collect_server_views(trees, first) {
        let actual = achievable_consumption(&view);
        for &(supply, share, budget) in &view.supplies {
            let strand = budget.saturating_sub(actual * share);
            if strand > STRAND_EPSILON {
                strands.insert((server, supply), (strand, actual));
            }
        }
    }
    strands
}

/// Shrinks a tree's stranded leaves' demand and constraint to their
/// server's achievable consumption: the second pass's inputs.
fn shrink_stranded_inputs(tree: &mut ControlTree, strands: &Strands) {
    for idx in 0..tree.spec().len() {
        let Some(leaf) = tree.spec().node(idx).leaf else {
            continue;
        };
        let Some(&(_, actual)) = strands.get(&(leaf.server, leaf.supply)) else {
            continue;
        };
        let Some(&input) = tree.input_at(idx) else {
            continue;
        };
        tree.set_supply_input(
            leaf.server,
            leaf.supply,
            SupplyInput {
                demand: actual,
                cap_max: actual.max(input.cap_min),
                ..input
            },
        );
    }
}
