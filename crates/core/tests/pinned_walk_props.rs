//! Property-based tests of the one §4.3 walk cut in two, the way the
//! distributed deployment cuts it: for every capping policy and allocator,
//!
//! - pinning every leaf parent to the summary the spec's cold gather
//!   (`capmaestro_spec::gather`) computed for it budgets the upper tree
//!   bit-identically to the full walk — also on a warm state after an
//!   input changed (re-pinned summaries dirty their ancestors);
//! - a deployment whose racks never report budgets every cut from its
//!   fail-safe summary, which equals a full gather with every demand at
//!   `cap_min`;
//! - a warm state's memoized budget-down walk, driven through leaf-input,
//!   root-budget, allocator and pin changes (and a double gather before one
//!   budget), budgets every node and leaf bit-identically to a fresh state.

use proptest::prelude::*;

use capmaestro_core::plane::Farm;
use capmaestro_core::tree::{Allocation, ControlTree, SupplyInput, TreeRoundState};
use capmaestro_core::workers::shared_farm;
use capmaestro_core::{
    AllocatorKind, DeploymentConfig, PolicyKind, PriorityMetrics, WorkerDeployment,
};
use capmaestro_server::{Server, ServerConfig};
use capmaestro_topology::presets::racks_feed;
use capmaestro_topology::Topology;
use capmaestro_units::{Ratio, Watts};

fn trees_of(topo: &Topology) -> Vec<ControlTree> {
    topo.control_tree_specs()
        .into_iter()
        .map(ControlTree::new)
        .collect()
}

fn leaf_input(demand: f64) -> SupplyInput {
    SupplyInput {
        demand: Watts::new(demand),
        cap_min: Watts::new(270.0),
        cap_max: Watts::new(490.0),
        share: Ratio::ONE,
    }
}

/// Every node budget, every leaf budget and the unallocated remainder, as
/// bits.
fn budget_bits(tree: &ControlTree, alloc: &Allocation) -> (Vec<u64>, Vec<u64>, u64) {
    let bits = |w: Watts| w.as_f64().to_bits();
    let nodes = (0..tree.spec().len()).map(|i| bits(alloc.node_budget(i)));
    let leaves = (0..alloc.leaf_index().len()).map(|s| bits(alloc.leaf_budget(s)));
    (nodes.collect(), leaves.collect(), bits(alloc.unallocated()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pinned_cuts_budget_like_the_full_walk(
        racks in 1usize..6,
        per_rack in 1usize..5,
        demands in prop::collection::vec(150.0f64..520.0, 24),
        per_server_budget in 250.0f64..500.0,
    ) {
        let mut tree = trees_of(&racks_feed(racks, per_rack)).remove(0);
        let root_budget = Watts::new(per_server_budget * (racks * per_rack) as f64);
        for policy in PolicyKind::ALL.map(PolicyKind::policy) {
            for allocator in AllocatorKind::ALL.map(AllocatorKind::allocator) {
                let (mut full, mut pinned) = (TreeRoundState::new(), TreeRoundState::new());
                let (mut want, mut got) = (Allocation::default(), Allocation::default());
                for shift in [0, 7] {
                    tree.set_inputs_with(|server, _| SupplyInput {
                        demand: Watts::new(demands[(server.index() + shift) % demands.len()]),
                        cap_min: Watts::new(270.0),
                        cap_max: Watts::new(490.0),
                        share: Ratio::ONE,
                    });
                    let summaries = capmaestro_spec::gather(&tree, policy.as_ref());
                    for (cut, summary) in summaries.iter().enumerate() {
                        if tree.arena().context(cut).is_leaf_parent {
                            tree.pin(&mut pinned, cut, summary);
                        }
                    }
                    let (p, a) = (policy.as_ref(), allocator.as_ref());
                    tree.allocate_in(root_budget, p, a, &mut full, None, &mut want);
                    tree.allocate_in(root_budget, p, a, &mut pinned, None, &mut got);
                    prop_assert_eq!(
                        tree.gather_in(p, &mut pinned, None),
                        tree.gather_in(p, &mut full, None),
                        "re-pinned cuts must dirty the root"
                    );
                    for idx in (0..tree.spec().len()).filter(|&i| !tree.spec().node(i).is_leaf()) {
                        let (w, g) = (want.node_budget(idx), got.node_budget(idx));
                        prop_assert_eq!(w.as_f64().to_bits(), g.as_f64().to_bits(), "node {}", idx);
                    }
                }
            }
        }
    }

    #[test]
    fn failsafe_summaries_are_the_gather_at_cap_min(
        racks in 1usize..5,
        per_rack in 1usize..4,
        per_server_budget in 250.0f64..500.0,
        kind in 0usize..3,
    ) {
        let topo = racks_feed(racks, per_rack);
        let root_budget = Watts::new(per_server_budget * (racks * per_rack) as f64);
        let server = Server::new(ServerConfig::paper_default().single_corded());
        let model = server.config().model();
        let mut farm = Farm::new();
        topo.servers().for_each(|(id, _)| farm.insert(id, server.clone()));

        let mut deployment = WorkerDeployment::spawn(
            trees_of(&topo),
            vec![root_budget],
            PolicyKind::GlobalPriority,
            shared_farm(farm),
            2,
            DeploymentConfig::default(),
        );
        deployment.set_allocator(AllocatorKind::ALL[kind]);
        (0..2).for_each(|w| deployment.kill_worker(w));
        let outcome = deployment.run_round(0);
        deployment.shutdown();

        let mut tree = trees_of(&topo).remove(0);
        tree.set_inputs_with(|_, _| SupplyInput {
            demand: model.cap_min(),
            cap_min: model.cap_min(),
            cap_max: model.cap_max(),
            share: Ratio::ONE,
        });
        let policy = PolicyKind::GlobalPriority.policy();
        let allocator = AllocatorKind::ALL[kind].allocator();
        let want = tree.allocate_with(root_budget, policy.as_ref(), allocator.as_ref());
        prop_assert_eq!(outcome.failsafe_cuts.len(), racks);
        for ((_, cut), budget) in outcome.cut_budgets {
            prop_assert_eq!(budget.as_f64().to_bits(), want.node_budget(cut).as_f64().to_bits());
        }
    }

    /// Each step is `(kind, pick, watts)`: 0 changes a few leaf inputs, 1
    /// the root budget, 2 switches the allocator without invalidating, 3
    /// changes a leaf and gathers twice before one budget, 4 (re-)pins a
    /// cut to another cut's summary.
    #[test]
    fn memoized_budget_walk_matches_a_fresh_one(
        racks in 1usize..6,
        per_rack in 1usize..5,
        demands in prop::collection::vec(150.0f64..520.0, 24),
        per_server_budget in 250.0f64..500.0,
        policy in 0usize..3,
        steps in prop::collection::vec((0usize..5, 0usize..24, 150.0f64..520.0), 1..12),
    ) {
        let mut tree = trees_of(&racks_feed(racks, per_rack)).remove(0);
        let servers = racks * per_rack;
        let policy = PolicyKind::ALL[policy].policy();
        let policy = policy.as_ref();
        let mut allocator = 0;
        let mut root_budget = Watts::new(per_server_budget * servers as f64);
        tree.set_inputs_with(|server, _| leaf_input(demands[server.index() % demands.len()]));
        let cuts: Vec<usize> = (0..tree.spec().len())
            .filter(|&i| tree.arena().context(i).is_leaf_parent)
            .collect();
        let mut pins: Vec<(usize, PriorityMetrics)> = Vec::new();
        let (mut warm, mut out) = (TreeRoundState::new(), Allocation::default());
        let warm_allocator = AllocatorKind::ALL[allocator].allocator();
        tree.allocate_in(root_budget, policy, warm_allocator.as_ref(), &mut warm, None, &mut out);

        let set_leaf = |tree: &mut ControlTree, k: usize, watts: f64| {
            let index = tree.arena().leaf_index();
            let (server, supply) = index.pair(k % index.len());
            tree.set_supply_input(server, supply, leaf_input(watts));
        };
        for (step, &(kind, pick, watts)) in steps.iter().enumerate() {
            match kind {
                0 => {
                    for k in [pick, pick * 7 + 3] {
                        set_leaf(&mut tree, k, watts);
                    }
                }
                1 => root_budget = Watts::new(watts * servers as f64),
                2 => allocator = (allocator + 1 + pick % 2) % AllocatorKind::ALL.len(),
                3 => {}
                _ => {
                    let summaries = capmaestro_spec::gather(&tree, policy);
                    let (cut, source) = (cuts[pick % cuts.len()], cuts[(pick / 2) % cuts.len()]);
                    tree.pin(&mut warm, cut, &summaries[source]);
                    pins.retain(|(c, _)| *c != cut);
                    pins.push((cut, summaries[source].clone()));
                }
            }
            let allocator_box = AllocatorKind::ALL[allocator].allocator();
            let a = allocator_box.as_ref();
            if kind == 3 {
                set_leaf(&mut tree, pick, watts);
                tree.gather_in(policy, &mut warm, None);
                tree.gather_in(policy, &mut warm, None);
                tree.budget_in(root_budget, policy, a, &mut warm, &mut out);
            } else {
                tree.allocate_in(root_budget, policy, a, &mut warm, None, &mut out);
            }

            let mut fresh = TreeRoundState::new();
            for (cut, summary) in &pins {
                tree.pin(&mut fresh, *cut, summary);
            }
            let mut want = Allocation::default();
            tree.allocate_in(root_budget, policy, a, &mut fresh, None, &mut want);
            prop_assert_eq!(budget_bits(&tree, &out), budget_bits(&tree, &want), "step {}", step);
        }
    }
}
