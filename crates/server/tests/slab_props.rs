//! The struct-of-arrays slab against a plain `Vec<Server>`: event-driven
//! stepping skips every server at the exact fixed point of its settling
//! filter, and caches each snapshot until the server changes. Both are
//! exact only if every mutator wakes the server it changed, so random
//! sequences of every `ServerMut` mutator, `dt` changes, `insert` and
//! `replace` run against the reference over several 64-slot bitmap words.
//! After every operation the slab is refreshed, and each slot's achieved
//! power and cached snapshot must equal its `Server` twin bit for bit.

use proptest::prelude::*;

use capmaestro_server::{Server, ServerConfig, ServerSlab, SupplyState};
use capmaestro_units::{Ratio, Seconds, Watts};

/// A server of one of four bank shapes, settling from its idle power
/// toward `demand`.
fn server(shape: usize, demand: f64) -> Server {
    let config = match shape % 4 {
        0 => ServerConfig::paper_default(),
        1 => ServerConfig::paper_default().with_split(0.62),
        2 => ServerConfig::paper_default().with_split(0.41),
        _ => ServerConfig::paper_default().single_corded(),
    };
    let mut server = Server::new(config);
    server.set_offered_demand(Watts::new(demand));
    server
}

/// Applies one bank operation to both twins, if it is legal on the
/// reference's bank: fail, repair, or toggle standby of one supply.
fn bank_op(reference: &mut Server, slab: &mut ServerSlab, pos: usize, pick: usize) {
    let bank = reference.bank();
    let supply = pick % bank.len();
    let state = bank.supply(supply).state();
    let carrying = bank.supplies().iter().filter(|s| s.state().carries_load()).count();
    let apply: fn(&mut capmaestro_server::PsuBank, usize) = match (pick / 4) % 3 {
        0 if bank.working_count() > 1 || !state.is_working() => |b, s| b.fail_supply(s),
        1 => |b, s| b.repair_supply(s),
        2 if state == SupplyState::Active && carrying > 1 => |b, s| b.set_standby(s, true),
        2 if state == SupplyState::Standby => |b, s| b.set_standby(s, false),
        _ => return,
    };
    apply(reference.bank_mut(), supply);
    apply(slab.view_mut(pos).bank_mut(), supply);
}

/// Every slot's achieved power and refreshed snapshot, as bits, against
/// the reference's.
fn assert_twins(slab: &ServerSlab, reference: &[Server], at: &str) {
    let bits = |w: Watts| w.as_f64().to_bits();
    assert_eq!(slab.len(), reference.len(), "{at}: length");
    for (i, server) in reference.iter().enumerate() {
        let want = server.sense();
        let view = slab.view(i);
        let got = slab.snapshot(i);
        assert_eq!(bits(view.achieved_ac()), bits(want.total_ac), "{at}: slot {i} achieved");
        assert_eq!(bits(got.total_ac), bits(want.total_ac), "{at}: slot {i} total_ac");
        assert_eq!(bits(got.dc_power), bits(want.dc_power), "{at}: slot {i} dc_power");
        assert_eq!(
            got.throttle.as_f64().to_bits(),
            want.throttle.as_f64().to_bits(),
            "{at}: slot {i} throttle"
        );
        let supplies = |s: &[Watts]| s.iter().map(|&w| bits(w)).collect::<Vec<_>>();
        assert_eq!(supplies(&got.supply_ac), supplies(&want.supply_ac), "{at}: slot {i} supply_ac");
        assert_eq!(view.dc_cap(), server.dc_cap(), "{at}: slot {i} dc_cap");
        assert_eq!(view.is_powered(), server.is_powered(), "{at}: slot {i} powered");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Each op is `(kind, pick, watts)`: kinds 0–6 are the `ServerMut`
    /// mutators (demand, utilization, cap, uncap, power, settle, bank) on
    /// slot `pick`; 7 changes `dt`; 8 inserts and 9 replaces a server; 10
    /// and above step the fleet `pick % 48 + 1` times.
    #[test]
    fn slab_matches_a_vec_of_servers(
        n in 130usize..200,
        demands in prop::collection::vec(100.0f64..520.0, 8),
        ops in prop::collection::vec((0usize..14, 0usize..4096, 100.0f64..520.0), 1..40),
    ) {
        let mut reference: Vec<Server> =
            (0..n).map(|i| server(i, demands[i % demands.len()])).collect();
        let mut slab = ServerSlab::new();
        for s in &reference {
            slab.insert(slab.len(), s.clone());
        }
        let mut dt = Seconds::new(1.0);
        slab.refresh();
        assert_twins(&slab, &reference, "start");
        for (step, &(kind, pick, watts)) in ops.iter().enumerate() {
            let pos = pick % reference.len();
            match kind {
                0..=5 => {
                    let (twin, mut view) = (&mut reference[pos], slab.view_mut(pos));
                    match kind {
                        0 => {
                            twin.set_offered_demand(Watts::new(watts));
                            view.set_offered_demand(Watts::new(watts));
                        }
                        1 => {
                            let u = Ratio::new((watts - 100.0) / 420.0);
                            twin.set_utilization(u);
                            view.set_utilization(u);
                        }
                        2 => {
                            twin.set_dc_cap(Watts::new(watts));
                            view.set_dc_cap(Watts::new(watts));
                        }
                        3 => {
                            twin.clear_dc_cap();
                            view.clear_dc_cap();
                        }
                        4 => {
                            twin.set_powered(pick % 3 != 0);
                            view.set_powered(pick % 3 != 0);
                        }
                        _ => {
                            twin.settle();
                            view.settle();
                        }
                    }
                }
                6 => bank_op(&mut reference[pos], &mut slab, pos, pick),
                7 => dt = Seconds::new([1.0, 0.5, 2.0][pick % 3]),
                8 => {
                    let at = pick % (reference.len() + 1);
                    let fresh = server(pick, watts);
                    reference.insert(at, fresh.clone());
                    slab.insert(at, fresh);
                }
                9 => {
                    let fresh = server(pick / 7, watts);
                    reference[pos] = fresh.clone();
                    slab.replace(pos, fresh);
                }
                _ => {
                    for _ in 0..pick % 48 + 1 {
                        for twin in &mut reference {
                            twin.step(dt);
                        }
                        slab.step(dt);
                    }
                }
            }
            slab.refresh();
            assert_twins(&slab, &reference, &format!("op {step} {:?}", (kind, pick, watts)));
        }
    }
}
