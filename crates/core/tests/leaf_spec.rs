//! The product's leaf control against the executable specification's leaf
//! half (`capmaestro_spec::Leaves`), which keeps plain per-server state and
//! steps every leaf every round: the plane's settled-leaf skip, its change
//! classification and its creeping-cap commanding, and the rack workers'
//! split of the round, must decide every tree input, every budget and every
//! cap bit for bit
//! as the spec does.

use std::sync::Arc;

use capmaestro_core::obs::{names, MetricsRegistry};
use capmaestro_core::plane::{BudgetSource, ControlPlane, Farm, PlaneConfig};
use capmaestro_core::tree::ControlTree;
use capmaestro_core::workers::shared_farm;
use capmaestro_core::{AllocatorKind, DeploymentConfig, PolicyKind, WorkerDeployment};
use capmaestro_server::{PsuBank, Server, ServerConfig, ServerPowerModel};
use capmaestro_spec::Leaves;
use capmaestro_topology::presets::{figure2_feed, racks_feed};
use capmaestro_topology::{ServerId, Topology};
use capmaestro_units::{Ratio, Seconds, Watts};

/// A settled single-corded farm over `topo`, the `i`-th server offered
/// `demand_of(i)` watts.
fn farm_over(topo: &Topology, demand_of: impl Fn(usize) -> f64) -> Farm {
    let mut farm = Farm::new();
    for (i, (id, _)) in topo.servers().enumerate() {
        let mut server = Server::new(ServerConfig::paper_default().single_corded());
        server.set_offered_demand(Watts::new(demand_of(i)));
        server.settle();
        farm.insert(id, server);
    }
    farm
}

fn trees_of(topo: &Topology) -> Vec<ControlTree> {
    topo.control_tree_specs()
        .into_iter()
        .map(ControlTree::new)
        .collect()
}

/// The Fig. 2 rig under Global Priority, 1240 W, SPO off.
fn fig2_plane(demand: f64) -> (Topology, Farm, ControlPlane) {
    let topo = figure2_feed();
    let farm = farm_over(&topo, |_| demand);
    let config = PlaneConfig::default()
        .with_policy(PolicyKind::GlobalPriority)
        .with_spo(false);
    let plane = ControlPlane::new(trees_of(&topo), vec![Watts::new(1240.0)], config);
    (topo, farm, plane)
}

/// Delivers every server's current reading to the spec, as a sample does.
fn observe_all(spec: &mut Leaves, farm: &Farm) {
    for (id, server) in farm.iter() {
        spec.observe(id, &server.sense(), server.config().model());
    }
}

/// Runs the spec's round beside the plane's last one and compares them.
fn check_round(spec: &mut Leaves, plane: &ControlPlane, farm: &Farm, at: &str) {
    let budgets = BudgetSource::Fixed(plane.root_budgets_now());
    let want = spec.round(farm, plane.trees(), &budgets, plane.config());
    want.assert_matches(plane, farm, at);
}

/// Rounds command only leaves whose inputs changed — none once the fleet
/// settles, some after a server moves, none once it settles again — and
/// decide exactly what the spec, which commands every leaf, decides.
#[test]
fn a_settled_fleet_commands_no_leaf() {
    // 4 × 300 W fits under every limit: each server is budgeted its demand
    // or more, so its controller rests at cap_max.
    let (topo, mut farm, mut plane) = fig2_plane(300.0);
    let registry = Arc::new(MetricsRegistry::new());
    plane.set_recorder(registry.clone());
    let commanded = || {
        let counters = registry.snapshot().counters;
        let found = counters
            .iter()
            .find(|c| c.name == names::LEAVES_COMMANDED_TOTAL);
        found.map_or(0, |c| c.value)
    };
    let mut spec = Leaves::default();
    let mut round = 0;
    let mut run = |periods: usize, farm: &mut Farm| {
        let before = commanded();
        for _ in 0..periods {
            for _ in 0..8 {
                plane.sample(farm);
                observe_all(&mut spec, farm);
                farm.step_all(Seconds::new(1.0));
            }
            plane.round(farm);
            round += 1;
            check_round(&mut spec, &plane, farm, &format!("round {round}"));
        }
        commanded() - before
    };
    // The first round builds every controller, the second finds every
    // estimator saturated and every cap at rest.
    assert_eq!(run(2, &mut farm), 8);
    assert_eq!(run(3, &mut farm), 0);
    let sb = topo.server_by_name("SB").unwrap();
    farm.get_mut(sb)
        .unwrap()
        .set_offered_demand(Watts::new(310.0));
    // SB's power ramps toward it, its estimate follows, the budgets move:
    // every leaf is commanded until that settles.
    let moving: Vec<u64> = (0..12).map(|_| run(1, &mut farm)).collect();
    assert_eq!(moving[0], 4, "{moving:?}");
    assert_eq!(moving[9..], [0, 0, 0], "{moving:?}");

    // A cap set from outside is commanded back; a server swapped for one
    // with another envelope but the same reading is revisited whole.
    let sa = topo.server_by_name("SA").unwrap();
    farm.get_mut(sa).unwrap().set_dc_cap(Watts::new(300.0));
    assert_eq!(run(1, &mut farm), 1);
    assert_eq!(run(1, &mut farm), 0);
    let narrower = ServerPowerModel::new(Watts::new(160.0), Watts::new(270.0), Watts::new(470.0));
    let mut server = Server::new(ServerConfig::new(
        narrower,
        PsuBank::balanced(1, Ratio::new(0.94)),
    ));
    server.set_offered_demand(Watts::new(300.0));
    server.settle();
    farm.insert(sa, server);
    assert!(run(1, &mut farm) > 0);
}

/// A server whose readings stop for five rounds walks stale-hold into
/// fail-safe while its demand drops unseen, then recovers on a window
/// rebuilt from post-outage readings only, as the spec's does.
#[test]
fn a_blind_server_fails_safe_and_recovers_as_the_spec_does() {
    let (topo, mut farm, mut plane) = fig2_plane(420.0);
    let sb = topo.server_by_name("SB").unwrap();
    let mut spec = Leaves::default();
    for second in 0..112 {
        if second == 20 {
            farm.get_mut(sb)
                .unwrap()
                .set_offered_demand(Watts::new(330.0));
        }
        if (16..56).contains(&second) {
            farm.refresh();
            let delivered: Vec<_> = farm
                .iter()
                .filter(|&(id, _)| id != sb)
                .map(|(id, s)| (id, s.sense()))
                .collect();
            plane.record_snapshots(&farm, &delivered);
            for (id, reading) in &delivered {
                spec.observe(*id, reading, farm.get(*id).unwrap().config().model());
            }
        } else {
            plane.sample(&mut farm);
            observe_all(&mut spec, &farm);
        }
        if second % 8 == 0 {
            plane.round(&mut farm);
            check_round(&mut spec, &plane, &farm, &format!("t={second}"));
            assert_eq!(
                plane.stale_servers().contains(&sb),
                (40..56).contains(&second),
                "t={second}"
            );
        }
        farm.step_all(Seconds::new(1.0));
    }
}

/// Servers joining a farm whose leaves a sweep skipped re-lay the leaf
/// table: 61 newcomers take it past one 64-slot word, and the next sample
/// and round go on as the spec's.
#[test]
fn a_farm_that_grows_after_a_sweep_is_relaid() {
    let (_, mut farm, mut plane) = fig2_plane(420.0);
    let mut spec = Leaves::default();
    plane.sample(&mut farm);
    observe_all(&mut spec, &farm);
    for id in 100..161 {
        let mut server = Server::new(ServerConfig::paper_default().single_corded());
        server.set_offered_demand(Watts::new(250.0));
        server.settle();
        farm.insert(ServerId(id), server);
    }
    for second in 0..24 {
        plane.sample(&mut farm);
        observe_all(&mut spec, &farm);
        if second % 8 == 7 {
            plane.round(&mut farm);
            check_round(&mut spec, &plane, &farm, &format!("t={second}"));
        }
        farm.step_all(Seconds::new(1.0));
    }
}

/// Servers that join after a round re-lay the round's lanes as well as
/// the leaf table: the rounds after the growth read budgets and store caps
/// through lanes built over the new slots.
#[test]
fn a_farm_that_grows_after_a_round_is_relaid() {
    let (_, mut farm, mut plane) = fig2_plane(420.0);
    let mut spec = Leaves::default();
    for second in 0..32 {
        if second == 12 {
            for id in 100..110 {
                let mut server = Server::new(ServerConfig::paper_default().single_corded());
                server.set_offered_demand(Watts::new(250.0));
                server.settle();
                farm.insert(ServerId(id), server);
            }
        }
        plane.sample(&mut farm);
        observe_all(&mut spec, &farm);
        if second % 8 == 7 {
            plane.round(&mut farm);
            check_round(&mut spec, &plane, &farm, &format!("t={second}"));
        }
        farm.step_all(Seconds::new(1.0));
    }
}

/// The threaded deployment (SPO off) runs the spec's walk over the spec's
/// inputs and the same leaf step under it: cut budgets and every server's
/// commanded DC cap agree to the bit, under every allocator, on the Fig. 2
/// rig and on a racks rig.
#[test]
fn distributed_matches_the_spec() {
    let bits = |w: Watts| w.as_f64().to_bits();
    for topo in [figure2_feed(), racks_feed(5, 3)] {
        let demand_of = |i: usize| 350.0 + 23.0 * (i % 6) as f64;
        let root_budgets = vec![Watts::new(310.0 * topo.server_count() as f64)];
        for kind in AllocatorKind::ALL {
            let farm = shared_farm(farm_over(&topo, demand_of));
            let want = {
                let farm = farm.read();
                let mut spec = Leaves::default();
                observe_all(&mut spec, &farm);
                let config = PlaneConfig::default()
                    .with_policy(PolicyKind::GlobalPriority)
                    .with_allocator(kind)
                    .with_spo(false);
                let budgets = BudgetSource::Fixed(root_budgets.clone());
                spec.round(&farm, &trees_of(&topo), &budgets, &config)
            };
            let mut deployment = WorkerDeployment::spawn(
                trees_of(&topo),
                root_budgets.clone(),
                PolicyKind::GlobalPriority,
                farm.clone(),
                2,
                DeploymentConfig::default(),
            );
            deployment.set_allocator(kind);
            let outcome = deployment.run_round(0);
            deployment.shutdown();

            assert_eq!(want.caps.values().flatten().count(), topo.server_count());
            for (id, server) in farm.read().iter() {
                let (cap, reference) = (server.dc_cap(), want.caps[&id]);
                assert_eq!(
                    cap.map(bits),
                    reference.map(bits),
                    "{kind}, {id}: distributed vs spec DC cap"
                );
            }

            assert!(outcome.failsafe_cuts.is_empty());
            assert!(!outcome.cut_budgets.is_empty());
            for ((t, cut), budget) in outcome.cut_budgets {
                let reference = want.allocation.trees[t].nodes[cut];
                assert_eq!(
                    bits(budget),
                    bits(reference),
                    "{kind}, cut {cut}: distributed {budget} vs spec {reference}"
                );
            }
        }
    }
}
