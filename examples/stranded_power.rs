//! Stranded power on redundant feeds, and how CapMaestro reclaims it.
//!
//! Reproduces the paper's §6.3 story: dual-corded servers never split
//! their load exactly the way two independent feeds budget it, so part of
//! one feed's budget is *stranded* — allocated, never drawn. The stranded
//! power optimization (SPO) detects the mismatch and re-budgets the power
//! to a server that actually needs it.
//!
//! ```text
//! cargo run --example stranded_power
//! ```

use capmaestro::core::alloc::WaterfallAllocator;
use capmaestro::core::policy::GlobalPriority;
use capmaestro::core::spo::optimize_stranded_power;
use capmaestro::sim::scenarios::{stranded_rig, RigConfig, STRANDED_RIG_X_SHARES};
use capmaestro::topology::presets::RIG_SERVER_NAMES;
use capmaestro::units::Watts;

fn main() {
    // Build the Fig. 7a rig: X and Y feeds with 700 W budgets each.
    // SA runs on X only, SB on Y only, SC/SD on both with uneven splits.
    let rig = stranded_rig(RigConfig::table3());
    println!("intrinsic X-side load shares: {STRANDED_RIG_X_SHARES:?}\n");

    // Pull the plane's trees apart and run the SPO pipeline directly so
    // both passes are visible.
    let trees = rig.plane.trees().to_vec();
    let mut trees = trees;
    for tree in &mut trees {
        // Seed leaf inputs from the servers' true state (the plane would
        // normally estimate these online).
        let farm = &rig.farm;
        tree.set_inputs_with(|server, supply| {
            let srv = farm.get(server).expect("rig server");
            let model = srv.config().model();
            let shares = srv.bank().effective_shares();
            capmaestro::core::tree::SupplyInput {
                demand: srv.offered_demand(),
                cap_min: model.cap_min(),
                cap_max: model.cap_max(),
                share: shares[supply.index()],
            }
        });
    }
    let budgets = vec![Watts::new(700.0), Watts::new(700.0)];
    let outcome = optimize_stranded_power(
        &trees,
        &budgets,
        &GlobalPriority::new(),
        &WaterfallAllocator,
    );

    println!("stranded power found in the first pass:");
    for ((server, supply), watts) in &outcome.stranded {
        let name = rig.topology.server(*server).expect("registered").name();
        println!("  {name} {supply}: {watts:.0}");
    }
    println!("  total: {:.0}\n", outcome.total_stranded());

    println!("per-supply budgets before -> after SPO:");
    for name in RIG_SERVER_NAMES {
        let id = rig.topology.server_by_name(name).expect("preset server");
        for (_, _, o) in rig.topology.supply_attachments(id) {
            let before = outcome
                .initial_supply_budget(id, o.supply)
                .unwrap_or(Watts::ZERO);
            let after = outcome
                .final_supply_budget(id, o.supply)
                .unwrap_or(Watts::ZERO);
            println!("  {name} {}: {before:.0} -> {after:.0}", o.supply);
        }
    }
    println!("\nthe freed Y-side watts flow to SB, the throttled Y-only server.");
}
