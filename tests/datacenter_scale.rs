//! Data-center-scale closed-loop tests: 18-rack (1/9th) Table 4 subset with
//! authentic device ratings, 216 dual-corded servers, six control trees,
//! live breaker thermal models, and a feed failure mid-run.
//!
//! This is the scenario the paper's whole design defends: one side of the
//! redundant infrastructure dies at full load, the surviving side's
//! breakers see up to doubled load, and capping must win the ≥30 s UL 489
//! race on every one of them while high-priority servers keep running.

use capmaestro::core::policy::PolicyKind;
use capmaestro::sim::engine::{Engine, EngineConfig, Event, Trace};
use capmaestro::sim::scenarios::{datacenter_rig, DataCenterRigConfig};
use capmaestro::topology::{FeedId, Priority, ServerId, SupplyIndex};
use capmaestro::units::Watts;

fn high_priority_ids(engine: &Engine) -> Vec<ServerId> {
    engine
        .topology()
        .servers()
        .filter(|(_, info)| info.priority() == Priority::HIGH)
        .map(|(id, _)| id)
        .collect()
}

#[test]
fn normal_operation_is_uncapped_at_typical_load() {
    let config = DataCenterRigConfig::small();
    let rig = datacenter_rig(&config);
    let n = rig.farm.len();
    assert_eq!(n, 18 * 12);
    let mut engine = Engine::new(rig);
    let trace = engine.run(60);
    assert!(trace.trips.is_empty());
    // At 30 % fleet utilization nothing should be throttled.
    let mut throttled = 0;
    for series in trace.throttle.values() {
        if series[59] > 0.01 {
            throttled += 1;
        }
    }
    assert!(
        throttled <= n / 50,
        "{throttled}/{n} servers throttled under typical load"
    );
}

#[test]
fn feed_failure_at_full_load_is_survived_at_scale() {
    let mut config = DataCenterRigConfig::small();
    config.utilization = 1.0; // worst case: everyone at full tilt
    config.jitter_std = 0.0;
    // 30/rack: past the 24/rack no-capping limit, so the emergency needs
    // real throttling (per phase: 180 × 490 W = 88 kW vs 74 kW budget).
    config.params.servers_per_rack = 30;
    let rig = datacenter_rig(&config);
    let mut engine = Engine::new(rig);
    // Warm up, then kill feed B. The shared per-phase contractual budget
    // moves to the survivor automatically.
    engine.schedule(40, Event::FailFeed(FeedId::B));
    let trace = engine.run(400);

    // The headline safety property: not one breaker tripped, anywhere,
    // even though the X side absorbed the whole load.
    assert!(
        trace.trips.is_empty(),
        "breakers tripped during scale failover: {:?}",
        trace.trips
    );

    // High-priority servers ride through: average high-priority throttle
    // at the end is tiny while low-priority servers carry the capping.
    let high = high_priority_ids(&engine);
    let mut high_throttle = 0.0;
    for id in &high {
        high_throttle += trace.throttle[id].last().unwrap();
    }
    high_throttle /= high.len() as f64;
    assert!(
        high_throttle < 0.05,
        "high-priority servers throttled {high_throttle:.3} on average"
    );

    let total: f64 = trace
        .server_power
        .values()
        .map(|s| *s.last().unwrap())
        .sum();
    // Per-phase contractual budget × 3 phases bounds the total.
    let budget = 3.0 * (700_000.0 / 9.0) * 0.95;
    assert!(
        total <= budget * 1.02,
        "total power {total:.0} exceeds the contractual {budget:.0}"
    );
}

#[test]
fn spo_reclaims_power_at_scale() {
    // With randomized split imbalance and both feeds alive, SPO should
    // find real stranded watts across the fleet.
    let mut config = DataCenterRigConfig::small();
    config.utilization = 0.85;
    config.spo = true;
    let rig = datacenter_rig(&config);
    let mut engine = Engine::new(rig);
    let trace = engine.run(60);
    let reclaimed: f64 = trace.stranded.iter().map(|(_, w)| *w).sum();
    assert!(
        reclaimed > 0.0,
        "SPO found nothing to reclaim across an imbalanced fleet"
    );
}

#[test]
fn demand_surge_under_capping_respects_every_level() {
    // Start typical, surge the whole fleet to 100 % at t=30 while both
    // feeds are up — the hierarchy (CDUs, RPPs, transformers, contract)
    // must hold everywhere.
    let mut config = DataCenterRigConfig::small();
    config.params.servers_per_rack = 30;
    let rig = datacenter_rig(&config);
    let ids: Vec<_> = rig.topology.servers().map(|(id, _)| id).collect();
    let mut engine = Engine::new(rig);
    for id in ids {
        engine.schedule(30, Event::SetDemand(id, Watts::new(490.0)));
    }
    let trace = engine.run(300);
    assert!(trace.trips.is_empty(), "trips: {:?}", trace.trips);
    // Spot-check a CDU series against its derated limit (aggregate over
    // 3 phases: 3 × 5.52 kW).
    let cdu = trace
        .node_series_on(FeedId::A, "X-CDU0.0.0")
        .expect("CDU recorded");
    let steady = Trace::tail_mean(cdu, 30);
    assert!(
        steady <= 3.0 * 5520.0 * 1.02,
        "CDU steady load {steady:.0} exceeds its derated limit"
    );
}

/// The counterfactual behind the whole paper: with capping disabled, the
/// same feed failure trips breakers and servers go dark; with CapMaestro
/// running, nothing trips (checked by `feed_failure_at_full_load_is_
/// survived_at_scale` above).
#[test]
fn without_capping_the_same_failure_trips_breakers() {
    let mut config = DataCenterRigConfig::small();
    config.utilization = 1.0;
    config.jitter_std = 0.0;
    // Maximum density: after failover each CDU phase carries 15 × 490 W =
    // 7.35 kW against a 6.9 kW rating (~107 %) — a slow thermal overload
    // that capping would remove but an uncapped center cannot.
    config.params.servers_per_rack = 45;
    let rig = datacenter_rig(&config);
    let mut engine = Engine::with_config(
        rig,
        EngineConfig {
            control_enabled: false,
            ..EngineConfig::default()
        },
    );
    engine.schedule(40, Event::FailFeed(FeedId::B));
    let trace = engine.run(900);
    assert!(
        !trace.trips.is_empty(),
        "uncapped failover should have tripped breakers"
    );
    // Tripped breakers interrupt downstream delivery: servers went dark.
    assert!(
        !trace.lost_servers.is_empty(),
        "tripped breakers should have blacked out servers"
    );
    // And the outage cascades past the first trip: the trips happen only
    // after the UL 489 tolerance window, not instantly.
    let first_trip = trace.trips[0].0;
    assert!(
        first_trip >= 40,
        "no breaker may trip before the failure at t=40 (got {first_trip})"
    );
    // The exact outage: every CDU phase on the surviving feed trips in
    // the same second and blacks out every server.
    assert_eq!((trace.trips.len(), trace.lost_servers.len()), (54, 810));
    let trip = |second: u64, name: &str| (second, FeedId::A, name.to_string());
    assert_eq!(trace.trips.first(), Some(&trip(387, "X-CDU0.0.0 L1")));
    assert_eq!(trace.trips.last(), Some(&trip(387, "X-CDU1.2.2 L3")));
    assert_eq!(trace.lost_servers.first(), Some(&(387, ServerId(0))));
    assert_eq!(trace.lost_servers.last(), Some(&(387, ServerId(809))));
    // A lost server reads dark in the very second it was lost.
    for &(second, server) in &trace.lost_servers {
        let at = second as usize;
        assert_eq!(trace.server_power[&server][at], 0.0, "{server:?} total at {second}");
        for supply in [SupplyIndex::FIRST, SupplyIndex::SECOND] {
            let load = trace.supply_power[&(server, supply)][at];
            assert_eq!(load, 0.0, "{server:?} {supply:?} at {second}");
        }
    }

    // The contrast: the identical scenario WITH CapMaestro running caps
    // the CDU overload away and nothing trips.
    let rig = datacenter_rig(&config);
    let mut engine = Engine::new(rig);
    engine.schedule(40, Event::FailFeed(FeedId::B));
    let trace = engine.run(900);
    assert!(
        trace.trips.is_empty(),
        "capping should prevent every trip: {:?}",
        trace.trips
    );
    assert!(trace.lost_servers.is_empty());
}

/// The priority promise quantified at scale: under the same emergency,
/// high-priority servers outperform low-priority ones by a wide margin.
#[test]
fn priority_gap_under_emergency() {
    let mut config = DataCenterRigConfig::small();
    config.utilization = 1.0;
    config.jitter_std = 0.0;
    config.params.servers_per_rack = 30;
    config.policy = PolicyKind::GlobalPriority;
    let rig = datacenter_rig(&config);
    let mut engine = Engine::new(rig);
    engine.schedule(40, Event::FailFeed(FeedId::B));
    engine.run(300);

    let mut high = (0.0, 0usize);
    let mut low = (0.0, 0usize);
    for (id, info) in engine.topology().servers() {
        let perf = engine
            .server(id)
            .expect("server exists")
            .performance_fraction()
            .as_f64();
        if info.priority() == Priority::HIGH {
            high = (high.0 + perf, high.1 + 1);
        } else {
            low = (low.0 + perf, low.1 + 1);
        }
    }
    let high_avg = high.0 / high.1 as f64;
    let low_avg = low.0 / low.1 as f64;
    assert!(
        high_avg > 0.98,
        "high-priority average performance {high_avg:.3}"
    );
    assert!(
        low_avg < high_avg - 0.05,
        "low priority should carry the capping: low {low_avg:.3} vs high {high_avg:.3}"
    );
}
