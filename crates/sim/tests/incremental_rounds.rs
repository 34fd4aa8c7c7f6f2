//! Differential tests for the incremental round pipeline: an engine
//! running the cached/dirty-tracked `ControlPlane::round` path every round
//! must stay bit-identical to one whose `RoundContext` is thrown away
//! and rebuilt from scratch every simulated second — on the Fig. 2 rig
//! under seeded chaos plans, and on a 1024-server data center under a
//! hand-written fault/priority/demand event storm.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

use capmaestro_core::plane::RoundReport;
use capmaestro_sim::engine::{Engine, Event, Trace};
use capmaestro_sim::faults::{ChaosConfig, ChaosPlan, FaultKind};
use capmaestro_sim::scenarios::{
    datacenter_rig, priority_rig, DataCenterRigConfig, RigConfig,
};
use capmaestro_topology::presets::DataCenterParams;
use capmaestro_topology::{FeedId, Priority, ServerId, SupplyIndex};
use capmaestro_units::Watts;
use proptest::prelude::*;

fn assert_series_identical<K: Hash + Eq + Debug>(
    what: &str,
    inc: &HashMap<K, Vec<f64>>,
    full: &HashMap<K, Vec<f64>>,
) {
    assert_eq!(inc.len(), full.len(), "{what}: different key sets");
    for (key, series_inc) in inc {
        let series_full = full
            .get(key)
            .unwrap_or_else(|| panic!("{what}: rebuilt trace missing {key:?}"));
        assert_eq!(series_inc.len(), series_full.len(), "{what} {key:?}: length");
        for (i, (a, b)) in series_inc.iter().zip(series_full).enumerate() {
            // Bit comparison (not ==) so NaN placeholders compare equal
            // and -0.0 vs 0.0 would be caught.
            assert_eq!(a.to_bits(), b.to_bits(), "{what} {key:?}[{i}]: {a} vs {b}");
        }
    }
}

fn assert_traces_identical(inc: &Trace, full: &Trace) {
    assert_series_identical("server_power", &inc.server_power, &full.server_power);
    assert_series_identical("supply_power", &inc.supply_power, &full.supply_power);
    assert_series_identical("throttle", &inc.throttle, &full.throttle);
    assert_series_identical("dc_cap", &inc.dc_cap, &full.dc_cap);
    assert_series_identical("node_load", &inc.node_load, &full.node_load);
    assert_eq!(inc.node_names, full.node_names);
    assert_eq!(inc.trips, full.trips);
    assert_eq!(inc.lost_servers, full.lost_servers);
    assert_eq!(inc.stranded, full.stranded);
    assert_eq!(inc.seconds, full.seconds);
}

/// Bitwise equality of two rounds' decisions: every commanded cap, the
/// budget of every `(server, supply)` pair, and the stranded watts.
fn assert_reports_identical(
    inc: &RoundReport,
    full: &RoundReport,
    pairs: &[(ServerId, SupplyIndex)],
    at: &str,
) {
    let bits = |w: Watts| w.as_f64().to_bits();
    assert_eq!(inc.dc_caps.len(), full.dc_caps.len(), "{at}: cap count");
    for (id, cap) in inc.dc_caps.iter() {
        let other = full.dc_caps[id];
        assert_eq!(bits(*cap), bits(other), "{at}: dc cap for {id}: {cap} vs {other}");
    }
    for &(server, supply) in pairs {
        let (a, b) = (inc.supply_budget(server, supply), full.supply_budget(server, supply));
        assert_eq!(a.map(bits), b.map(bits), "{at}: budget of {server}/{supply:?}");
    }
    assert_eq!(
        bits(inc.stranded_reclaimed),
        bits(full.stranded_reclaimed),
        "{at}: stranded watts"
    );
}

/// Runs the engine second by second, discarding the plane's cached
/// `RoundContext` (arena round state, reusable buffers, dirty stamps)
/// after every second so each control round rebuilds from scratch. Each
/// second goes through `run(1)`, the series-recording entry point, so the
/// returned trace carries every series sample to compare.
fn run_rebuilding_every_second(engine: &mut Engine, seconds: u64) -> Trace {
    for _ in 0..seconds {
        engine.run(1);
        engine.plane_mut().reset_round_cache();
    }
    engine.trace().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seeded chaos streams (dropped/stuck/noisy/spiking sensors and
    /// telemetry flaps) on the Fig. 2 rig: incremental rounds must be
    /// bit-identical to from-scratch rounds under fault injection.
    #[test]
    fn incremental_rounds_match_full_rebuild_under_chaos(seed in 0u64..10_000) {
        let config = ChaosConfig {
            seconds: 120,
            episodes: 4,
            min_duration_s: 8,
            max_duration_s: 20,
            settle_s: 16,
            quiesce_s: 24,
            ..ChaosConfig::default()
        };
        let rig = priority_rig(RigConfig::table2());
        let servers: Vec<ServerId> = rig.farm.iter().map(|(id, _)| id).collect();
        let feeds: Vec<FeedId> =
            rig.topology.feeds().iter().map(|g| g.feed()).collect();
        let plan = ChaosPlan::generate(&config, &servers, &feeds, seed);

        let mut incremental = Engine::new(rig);
        incremental.schedule_chaos(&plan);
        let trace_inc = incremental.run(config.seconds);

        let mut rebuilt = Engine::new(priority_rig(RigConfig::table2()));
        rebuilt.schedule_chaos(&plan);
        let trace_full = run_rebuilding_every_second(&mut rebuilt, config.seconds);

        assert_traces_identical(&trace_inc, &trace_full);
    }
}

/// A 1024-server data center (32 racks × 32) with SPO enabled: the Table
/// 4-style closed loop at the issue's "at least 1000 simulated servers"
/// scale, kept short enough for a debug-mode differential run.
fn large_dc() -> DataCenterRigConfig {
    DataCenterRigConfig {
        params: DataCenterParams {
            racks: 32,
            transformers_per_feed: 2,
            rpps_per_transformer: 4,
            cdus_per_rpp: 4,
            servers_per_rack: 32,
            ..DataCenterParams::default()
        },
        contractual_per_phase: Watts::from_kilowatts(700.0 * 32.0 / 162.0) * 0.95,
        utilization: 0.8,
        spo: true,
        ..DataCenterRigConfig::default()
    }
}

#[test]
fn incremental_rounds_match_full_rebuild_on_a_large_datacenter() {
    let config = large_dc();
    let mut incremental = Engine::new(datacenter_rig(&config));
    let mut rebuilt = Engine::new(datacenter_rig(&config));

    // A storm touching every dirty-tracking entry point: sensor faults,
    // a feed failure and restoration, and priority/demand edits.
    let ids: Vec<ServerId> = incremental.farm().iter().map(|(id, _)| id).collect();
    let events: Vec<(u64, Event)> = vec![
        (10, Event::InjectFault(ids[0], FaultKind::Spike { factor: 1.5 })),
        (12, Event::InjectFault(ids[17], FaultKind::DropReading)),
        (20, Event::FailFeed(FeedId::B)),
        (28, Event::ClearFault(ids[0])),
        (30, Event::SetPriority(ids[100], Priority::HIGH)),
        (32, Event::SetDemand(ids[511], Watts::new(150.0))),
        (34, Event::RestoreFeed(FeedId::B)),
    ];
    for (at, event) in &events {
        incremental.schedule(*at, event.clone());
        rebuilt.schedule(*at, event.clone());
    }

    // Every round second, the incremental plane decides exactly what its
    // twin decides from a rebuilt round context.
    let pairs: Vec<(ServerId, SupplyIndex)> = ids
        .iter()
        .flat_map(|&s| [(s, SupplyIndex::FIRST), (s, SupplyIndex::SECOND)])
        .collect();
    let period = incremental.control_period_s();
    let mut rounds = 0;
    let trace_inc = incremental.run_observed(48, |inc| {
        rebuilt.run(1);
        let second = inc.now_s() - 1;
        if second.is_multiple_of(period) {
            let report_inc = inc.last_round_report().expect("a round ran");
            let report_full = rebuilt.last_round_report().expect("a round ran");
            assert_reports_identical(report_inc, report_full, &pairs, &format!("t={second}"));
            rounds += 1;
        }
        rebuilt.plane_mut().reset_round_cache();
    });
    assert_eq!(rounds, 6);
    assert_traces_identical(&trace_inc, rebuilt.trace());

    // The converged round decisions match bitwise as well.
    let report_inc = incremental.run_control_round();
    let report_full = rebuilt.run_control_round();
    assert_reports_identical(&report_inc, &report_full, &pairs, "manual round");
}
