//! Property-based tests of the one §4.3 walk cut in two, the way the
//! distributed deployment cuts it: for every capping policy and allocator,
//!
//! - pinning every leaf parent to the summary a full gather computed for
//!   it budgets the upper tree bit-identically to the full walk — also on
//!   a warm state after an input changed (re-pinned summaries dirty their
//!   ancestors);
//! - a deployment whose racks never report budgets every cut from its
//!   fail-safe summary, which equals a full gather with every demand at
//!   `cap_min`.

use proptest::prelude::*;

use capmaestro_core::plane::Farm;
use capmaestro_core::tree::{Allocation, ControlTree, SupplyInput, TreeRoundState};
use capmaestro_core::workers::shared_farm;
use capmaestro_core::{AllocatorKind, DeploymentConfig, PolicyKind, WorkerDeployment};
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
                    let summaries = tree.gather(policy.as_ref());
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
}
