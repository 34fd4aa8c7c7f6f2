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

use capmaestro::core::plane::RoundReport;
use capmaestro::core::spo::STRAND_EPSILON;
use capmaestro::sim::scenarios::{stranded_rig, Rig, RigConfig, STRANDED_RIG_X_SHARES};
use capmaestro::topology::presets::RIG_SERVER_NAMES;
use capmaestro::units::Watts;

/// One control round of the Fig. 7a rig's plane (X and Y feeds with 700 W
/// budgets each; SA on X only, SB on Y only, SC/SD on both with uneven
/// splits), sensing the servers' settled, uncapped state.
fn first_round(spo: bool) -> (Rig, RoundReport) {
    let mut rig = stranded_rig(RigConfig::table3().with_spo(spo));
    rig.plane.sample(&mut rig.farm);
    let report = rig.plane.round(&mut rig.farm).clone();
    (rig, report)
}

fn main() {
    println!("intrinsic X-side load shares: {STRANDED_RIG_X_SHARES:?}\n");
    // The same round without SPO (the first pass alone) and with it.
    let (rig, before) = first_round(false);
    let (_, after) = first_round(true);

    // A server draws its demand, clamped by its most constrained supply
    // (budget ÷ share); whatever else a supply was budgeted is stranded.
    println!("stranded power found in the first pass:");
    for name in RIG_SERVER_NAMES {
        let id = rig.server(name);
        let server = rig.farm.get(id).expect("rig server");
        let shares = server.bank().effective_shares();
        let budgets: Vec<_> = rig
            .topology
            .supply_attachments(id)
            .into_iter()
            .map(|(_, _, o)| {
                let budget = before.supply_budget(id, o.supply).unwrap_or(Watts::ZERO);
                (o.supply, budget, shares[o.supply.index()].as_f64())
            })
            .collect();
        let demand = server.offered_demand().max(server.config().model().cap_min());
        let draw = budgets
            .iter()
            .filter(|&&(_, _, share)| share > 0.0)
            .fold(demand, |draw, &(_, budget, share)| {
                draw.min(Watts::new(budget.as_f64() / share))
            });
        for (supply, budget, share) in budgets {
            let strand = budget.saturating_sub(draw * share);
            if strand > STRAND_EPSILON {
                println!("  {name} {supply}: {strand:.0}");
            }
        }
    }
    println!("  total: {:.0}\n", after.stranded_reclaimed);

    println!("per-supply budgets before -> after SPO:");
    for name in RIG_SERVER_NAMES {
        let id = rig.server(name);
        for (_, _, o) in rig.topology.supply_attachments(id) {
            let before = before.supply_budget(id, o.supply).unwrap_or(Watts::ZERO);
            let after = after.supply_budget(id, o.supply).unwrap_or(Watts::ZERO);
            println!("  {name} {}: {before:.0} -> {after:.0}", o.supply);
        }
    }
    println!("\nthe freed Y-side watts flow to SB, the throttled Y-only server.");
}
