//! Property-based tests for the allocation machinery.
//!
//! The most important property is the paper's central theorem (§4.3, proven
//! in its technical report): *a higher-priority server is throttled only
//! after every lower-priority server has been pushed to its minimum, as
//! long as the power limits allow*. We check it on flat trees (where no
//! intermediate limit can interfere) for arbitrary demands, priorities, and
//! budgets, together with conservation and safety invariants on arbitrary
//! hierarchies.

use proptest::prelude::*;

use capmaestro_core::policy::{GlobalPriority, LocalPriority, NoPriority};
use capmaestro_core::tree::{ControlTree, SupplyInput};
use capmaestro_topology::{
    ControlTreeSpec, FeedId, Phase, Priority, ServerId, SpecLeaf, SpecNode, SupplyIndex,
};
use capmaestro_units::{Ratio, Watts};

const CAP_MIN: f64 = 270.0;
const CAP_MAX: f64 = 490.0;
const EPS: f64 = 1e-6;

/// A strategy for a set of leaf (demand, priority) pairs.
fn leaves_strategy(max: usize) -> impl Strategy<Value = Vec<(f64, u8)>> {
    prop::collection::vec((CAP_MIN..CAP_MAX, 0u8..4), 1..max)
}

/// Builds a flat spec: one root with a limit, N leaves.
fn flat_tree(leaves: &[(f64, u8)], root_limit: f64) -> ControlTree {
    let mut spec = ControlTreeSpec::new(FeedId::A, Phase::L1);
    let root = spec.push_node(SpecNode {
        name: "root".into(),
        limit: Some(Watts::new(root_limit)),
        parent: None,
        children: vec![],
        leaf: None,
    });
    for (i, &(_, priority)) in leaves.iter().enumerate() {
        let leaf = spec.push_node(SpecNode {
            name: format!("s{i}"),
            limit: None,
            parent: Some(root),
            children: vec![],
            leaf: Some(SpecLeaf {
                server: ServerId(i as u32),
                supply: SupplyIndex::FIRST,
                priority: Priority(priority),
            }),
        });
        spec.node_mut(root).children.push(leaf);
    }
    let mut tree = ControlTree::new(spec);
    tree.set_inputs_with(|server, _| SupplyInput {
        demand: Watts::new(leaves[server.index()].0),
        cap_min: Watts::new(CAP_MIN),
        cap_max: Watts::new(CAP_MAX),
        share: Ratio::ONE,
    });
    tree
}

/// Builds a two-level spec with per-group limits, exercising hierarchy.
fn grouped_tree(groups: &[Vec<(f64, u8)>], group_limit: f64, root_limit: f64) -> ControlTree {
    let mut spec = ControlTreeSpec::new(FeedId::A, Phase::L1);
    let root = spec.push_node(SpecNode {
        name: "root".into(),
        limit: Some(Watts::new(root_limit)),
        parent: None,
        children: vec![],
        leaf: None,
    });
    let mut server = 0u32;
    let mut demands = Vec::new();
    for (g, leaves) in groups.iter().enumerate() {
        let group = spec.push_node(SpecNode {
            name: format!("g{g}"),
            limit: Some(Watts::new(group_limit)),
            parent: Some(root),
            children: vec![],
            leaf: None,
        });
        spec.node_mut(root).children.push(group);
        for &(demand, priority) in leaves {
            let leaf = spec.push_node(SpecNode {
                name: format!("g{g}s{server}"),
                limit: None,
                parent: Some(group),
                children: vec![],
                leaf: Some(SpecLeaf {
                    server: ServerId(server),
                    supply: SupplyIndex::FIRST,
                    priority: Priority(priority),
                }),
            });
            spec.node_mut(group).children.push(leaf);
            demands.push(demand);
            server += 1;
        }
    }
    let mut tree = ControlTree::new(spec);
    tree.set_inputs_with(|server, _| SupplyInput {
        demand: Watts::new(demands[server.index()]),
        cap_min: Watts::new(CAP_MIN),
        cap_max: Watts::new(CAP_MAX),
        share: Ratio::ONE,
    });
    tree
}

proptest! {
    /// Tree allocation never hands a node more than its limit and never
    /// hands leaves more than the root received, under every policy.
    #[test]
    fn allocation_safety(
        groups in prop::collection::vec(leaves_strategy(6), 1..4),
        budget in 500.0f64..20_000.0,
        group_limit in 800.0f64..3_000.0,
    ) {
        let tree = grouped_tree(&groups, group_limit, budget.max(1000.0));
        for policy in [
            &GlobalPriority::new() as &dyn capmaestro_core::policy::CappingPolicy,
            &LocalPriority::new(),
            &NoPriority::new(),
        ] {
            let alloc = tree.allocate(Watts::new(budget), policy);
            let arena = tree.arena();
            for idx in 0..arena.len() {
                if let Some(limit) = arena.limit(idx) {
                    prop_assert!(
                        alloc.node_budget(idx) <= limit + Watts::new(EPS),
                        "node {idx} exceeds its limit under {}",
                        policy.name()
                    );
                }
            }
            prop_assert!(
                alloc.total_leaf_budget() <= Watts::new(budget + EPS),
                "leaves exceed root budget under {}",
                policy.name()
            );
        }
    }

    /// THE PAPER'S THEOREM (flat-tree case): under Global Priority, if any
    /// server is budgeted less than its demand, every strictly
    /// lower-priority server sits at its minimum budget.
    #[test]
    fn priority_dominance_flat(
        leaves in leaves_strategy(10),
        budget_frac in 0.3f64..1.2,
    ) {
        let n = leaves.len() as f64;
        let total_demand: f64 = leaves.iter().map(|(d, _)| d).sum();
        let budget = (n * CAP_MIN).max(total_demand * budget_frac);
        // Generous root limit: only the budget constrains.
        let tree = flat_tree(&leaves, budget + 1.0);
        let alloc = tree.allocate(Watts::new(budget), &GlobalPriority::new());

        for (i, &(demand_i, pri_i)) in leaves.iter().enumerate() {
            let budget_i = alloc
                .supply_budget(ServerId(i as u32), SupplyIndex::FIRST)
                .unwrap();
            let effective_demand = demand_i.max(CAP_MIN);
            let capped = budget_i < Watts::new(effective_demand - 0.001);
            if !capped {
                continue;
            }
            for (j, &(_, pri_j)) in leaves.iter().enumerate() {
                if pri_j < pri_i {
                    let budget_j = alloc
                        .supply_budget(ServerId(j as u32), SupplyIndex::FIRST)
                        .unwrap();
                    prop_assert!(
                        budget_j <= Watts::new(CAP_MIN + 0.001),
                        "P{pri_i} server {i} is capped ({budget_i} < {demand_i}) while \
                         P{pri_j} server {j} holds {budget_j} above cap_min"
                    );
                }
            }
        }
    }

    /// Dominance also holds across branches when the intermediate limits
    /// do not bind (the Fig. 2 argument, generalized).
    #[test]
    fn priority_dominance_across_groups(
        g1 in leaves_strategy(5),
        g2 in leaves_strategy(5),
        budget_frac in 0.4f64..1.0,
    ) {
        let groups = vec![g1.clone(), g2.clone()];
        let all: Vec<(f64, u8)> = groups.concat();
        let total_demand: f64 = all.iter().map(|(d, _)| d.max(CAP_MIN)).sum();
        let budget = (all.len() as f64 * CAP_MIN).max(total_demand * budget_frac);
        // Group limits generous enough to never bind.
        let tree = grouped_tree(&groups, total_demand + 1.0, budget + 1.0);
        let alloc = tree.allocate(Watts::new(budget), &GlobalPriority::new());

        for (i, &(demand_i, pri_i)) in all.iter().enumerate() {
            let budget_i = alloc
                .supply_budget(ServerId(i as u32), SupplyIndex::FIRST)
                .unwrap();
            let capped = budget_i < Watts::new(demand_i.max(CAP_MIN) - 0.001);
            if !capped {
                continue;
            }
            for (j, &(_, pri_j)) in all.iter().enumerate() {
                if pri_j < pri_i {
                    let budget_j = alloc
                        .supply_budget(ServerId(j as u32), SupplyIndex::FIRST)
                        .unwrap();
                    prop_assert!(
                        budget_j <= Watts::new(CAP_MIN + 0.001),
                        "cross-group dominance violated: {i} (P{pri_i}) capped while \
                         {j} (P{pri_j}) holds {budget_j}"
                    );
                }
            }
        }
    }

    /// Allocation is deterministic: same inputs, same budgets.
    #[test]
    fn allocation_deterministic(leaves in leaves_strategy(8)) {
        let tree = flat_tree(&leaves, 5_000.0);
        let a = tree.allocate(Watts::new(2_000.0), &GlobalPriority::new());
        let b = tree.allocate(Watts::new(2_000.0), &GlobalPriority::new());
        prop_assert_eq!(a, b);
    }

    /// Monotonicity: growing the root budget never shrinks any leaf's
    /// budget (power only flows toward servers as headroom appears).
    #[test]
    fn allocation_monotone_in_budget(
        leaves in leaves_strategy(8),
        b1 in 0.0f64..5_000.0,
        extra in 0.0f64..2_000.0,
    ) {
        let n = leaves.len() as f64;
        let b1 = b1.max(n * CAP_MIN); // stay in the feasible regime
        let b2 = b1 + extra;
        let tree = flat_tree(&leaves, 10_000.0);
        let a1 = tree.allocate(Watts::new(b1), &GlobalPriority::new());
        let a2 = tree.allocate(Watts::new(b2), &GlobalPriority::new());
        for i in 0..leaves.len() {
            let w1 = a1
                .supply_budget(ServerId(i as u32), SupplyIndex::FIRST)
                .unwrap();
            let w2 = a2
                .supply_budget(ServerId(i as u32), SupplyIndex::FIRST)
                .unwrap();
            prop_assert!(
                w2 >= w1 - Watts::new(1e-6),
                "leaf {i} shrank from {w1} to {w2} when the budget grew {b1} -> {b2}"
            );
        }
    }

    /// Collapsing priorities (No Priority) still conserves and floors.
    #[test]
    fn no_priority_conserves_and_floors(
        leaves in leaves_strategy(8),
        extra in 0.0f64..3_000.0,
    ) {
        let n = leaves.len() as f64;
        let budget = n * CAP_MIN + extra;
        let tree = flat_tree(&leaves, budget + 1.0);
        let alloc = tree.allocate(Watts::new(budget), &NoPriority::new());
        let total = alloc.total_leaf_budget();
        prop_assert!(total <= Watts::new(budget + EPS));
        for i in 0..leaves.len() {
            let w = alloc
                .supply_budget(ServerId(i as u32), SupplyIndex::FIRST)
                .unwrap();
            prop_assert!(w >= Watts::new(CAP_MIN - EPS));
            prop_assert!(w <= Watts::new(CAP_MAX + EPS));
        }
    }
}

/// Promoted proptest regression (`properties.proptest-regressions`): a group
/// whose children's cap_min floors (4 × 270 W = 1080 W) exceed its own
/// 800 W limit must still never be budgeted above that limit, however large
/// the root budget is. The group-limit path used to hand the group its full
/// floor sum, overshooting the breaker rating the limit models.
#[test]
fn regression_group_limit_caps_infeasible_floors() {
    let groups = vec![vec![(270.0, 0), (270.0, 0), (270.0, 0), (270.0, 0)]];
    let budget: f64 = 9217.311100816274;
    let group_limit = 800.0;
    let tree = grouped_tree(&groups, group_limit, budget.max(1000.0));
    for policy in [
        &GlobalPriority::new() as &dyn capmaestro_core::policy::CappingPolicy,
        &LocalPriority::new(),
        &NoPriority::new(),
    ] {
        let alloc = tree.allocate(Watts::new(budget), policy);
        let arena = tree.arena();
        for idx in 0..arena.len() {
            if let Some(limit) = arena.limit(idx) {
                assert!(
                    alloc.node_budget(idx) <= limit + Watts::new(EPS),
                    "node {idx} budget {} exceeds its limit {limit} under {}",
                    alloc.node_budget(idx),
                    policy.name()
                );
            }
        }
        assert!(
            alloc.total_leaf_budget() <= Watts::new(budget + EPS),
            "leaves exceed root budget under {}",
            policy.name()
        );
    }
}
