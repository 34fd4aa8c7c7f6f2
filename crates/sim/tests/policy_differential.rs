//! The live control plane against the executable specification: at every
//! round second, the round report's budgets must equal what
//! `capmaestro_spec::round` computes from scratch over the same trees and
//! root budgets, bit for bit. The plane runs warm the whole time, so the
//! budget memo, the gather skip, the strand-detection skip and the
//! settled-leaf skip are all compared against an independent reference,
//! not against a cold run of themselves. Both rigs run under seeded chaos
//! plus scripted demand and priority changes, for every capping policy
//! and allocator (one engine per pair), so the comparison covers hundreds
//! of distinct tree states, mid-fault and mid-recovery ones included. The
//! Fig. 2 rig runs without SPO, so it also pins the first pass alone.

use capmaestro_core::policy::PolicyKind;
use capmaestro_core::AllocatorKind;
use capmaestro_sim::engine::{Engine, Event};
use capmaestro_sim::faults::{ChaosConfig, ChaosPlan};
use capmaestro_sim::scenarios::{priority_rig, stranded_rig, Rig, RigConfig};
use capmaestro_topology::{FeedId, Priority, ServerId};
use capmaestro_units::Watts;

/// Every node budget, every leaf budget, every tree's unallocated
/// remainder and the stranded watts reclaimed, bitwise.
fn assert_report_matches_spec(engine: &Engine, at: &str) {
    let plane = engine.plane();
    let config = plane.config();
    let report = engine.last_round_report().expect("a round ran");
    let (policy, allocator) = (config.policy.policy(), config.allocator.allocator());
    let want = capmaestro_spec::round(
        plane.trees(),
        &plane.root_budgets_now(),
        policy.as_ref(),
        allocator.as_ref(),
        config.spo,
    );
    let bits = |w: Watts| w.as_f64().to_bits();
    assert_eq!(report.allocations.len(), want.trees.len(), "{at}: tree count");
    let trees = plane.trees().iter().zip(&report.allocations).zip(&want.trees);
    for (t, ((tree, got), want)) in trees.enumerate() {
        for (idx, &w) in want.nodes.iter().enumerate() {
            let g = got.node_budget(idx);
            assert_eq!(bits(g), bits(w), "{at}: tree {t} node {idx}: plane {g}, spec {w}");
        }
        let index = tree.arena().leaf_index();
        for slot in 0..index.len() {
            let (g, w) = (got.leaf_budget(slot), want.nodes[index.node(slot)]);
            assert_eq!(bits(g), bits(w), "{at}: tree {t} leaf {slot}: plane {g}, spec {w}");
        }
        assert_eq!(
            bits(got.unallocated()),
            bits(want.unallocated),
            "{at}: tree {t} unallocated"
        );
    }
    assert_eq!(
        bits(report.stranded_reclaimed),
        bits(want.stranded),
        "{at}: stranded watts reclaimed"
    );
}

/// A seeded chaos plan sized for a four-server rig run.
fn chaos_for(rig: &Rig, seconds: u64, seed: u64) -> ChaosPlan {
    let servers: Vec<ServerId> = rig.farm.iter().map(|(id, _)| id).collect();
    let feeds: Vec<FeedId> = rig.topology.feeds().iter().map(|g| g.feed()).collect();
    ChaosPlan::generate(
        &ChaosConfig {
            seconds,
            episodes: 8,
            min_duration_s: 8,
            max_duration_s: 24,
            settle_s: 16,
            quiesce_s: 24,
            ..ChaosConfig::default()
        },
        &servers,
        &feeds,
        seed,
    )
}

/// Runs `rig_for(policy, allocator)` for every policy and allocator under
/// its chaos plan and the scripted events, comparing each round second's
/// report against the spec.
fn run_against_spec(
    rig_for: impl Fn(PolicyKind, AllocatorKind) -> Rig,
    seconds: u64,
    seed: u64,
    script: &[(u64, Event)],
) {
    for policy in PolicyKind::ALL {
        for allocator in AllocatorKind::ALL {
            let rig = rig_for(policy, allocator);
            let chaos = chaos_for(&rig, seconds, seed);
            let mut engine = Engine::new(rig);
            engine.schedule_chaos(&chaos);
            for (at, event) in script {
                engine.schedule(*at, event.clone());
            }
            let mut rounds = 0;
            for s in 0..seconds {
                engine.step();
                if engine.trace().stranded.len() > rounds {
                    rounds = engine.trace().stranded.len();
                    assert_report_matches_spec(&engine, &format!("{policy} {allocator:?} t={s}"));
                }
            }
            assert!(rounds * 8 >= seconds as usize, "{rounds} rounds in {seconds} s");
        }
    }
}

/// The Fig. 2 priority rig (one tree, SPO off) under seeded chaos plus a
/// demand drop and a priority promotion.
#[test]
fn plane_matches_the_spec_under_fig2_chaos() {
    let rig = priority_rig(RigConfig::table2());
    let sa = rig.topology.server_by_name("SA").expect("SA");
    let sb = rig.topology.server_by_name("SB").expect("SB");
    let script = [
        (60, Event::SetDemand(sa, Watts::new(210.0))),
        (100, Event::SetPriority(sb, Priority::HIGH)),
    ];
    run_against_spec(
        |policy, allocator| {
            priority_rig(RigConfig::table2().with_policy(policy).with_allocator(allocator))
        },
        160,
        0xA110C,
        &script,
    );
}

/// The dual-feed stranded-power rig (two trees, uneven supply splits, SPO
/// on) under seeded chaos: the reclaim pass and its skip against the
/// spec's from-scratch two passes.
#[test]
fn plane_matches_the_spec_on_the_stranded_rig() {
    run_against_spec(
        |policy, allocator| {
            stranded_rig(RigConfig::table3().with_policy(policy).with_allocator(allocator))
        },
        96,
        0x57A4D,
        &[],
    );
}
