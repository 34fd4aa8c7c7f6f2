//! Differential test for the observability layer: an engine whose
//! control plane records into a live `MetricsRegistry` must make
//! bit-identical decisions to an uninstrumented one — recording reads
//! clocks and bumps atomics, but must never touch a control input.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

use capmaestro_core::obs::{names, MetricsRegistry, RoundPhase};
use capmaestro_sim::engine::{Engine, Event, Trace};
use capmaestro_sim::faults::{ChaosConfig, ChaosPlan};
use capmaestro_sim::scenarios::{datacenter_rig, priority_rig, DataCenterRigConfig, RigConfig};
use capmaestro_topology::{FeedId, ServerId};

fn assert_series_identical<K: Hash + Eq + Debug>(
    what: &str,
    instrumented: &HashMap<K, Vec<f64>>,
    plain: &HashMap<K, Vec<f64>>,
) {
    assert_eq!(instrumented.len(), plain.len(), "{what}: different key sets");
    for (key, series_a) in instrumented {
        let series_b = plain
            .get(key)
            .unwrap_or_else(|| panic!("{what}: plain trace missing {key:?}"));
        assert_eq!(series_a.len(), series_b.len(), "{what} {key:?}: length");
        for (i, (a, b)) in series_a.iter().zip(series_b).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} {key:?}[{i}]: {a} vs {b}");
        }
    }
}

fn assert_traces_identical(instrumented: &Trace, plain: &Trace) {
    assert_series_identical("server_power", &instrumented.server_power, &plain.server_power);
    assert_series_identical("supply_power", &instrumented.supply_power, &plain.supply_power);
    assert_series_identical("throttle", &instrumented.throttle, &plain.throttle);
    assert_series_identical("dc_cap", &instrumented.dc_cap, &plain.dc_cap);
    assert_series_identical("node_load", &instrumented.node_load, &plain.node_load);
    assert_eq!(instrumented.node_names, plain.node_names);
    assert_eq!(instrumented.trips, plain.trips);
    assert_eq!(instrumented.lost_servers, plain.lost_servers);
    assert_eq!(instrumented.stranded, plain.stranded);
    assert_eq!(instrumented.seconds, plain.seconds);
}

/// 200 s of the Fig. 2 rig (SPO on) under a seeded telemetry-fault
/// schedule, run twice: once with a registry recording every phase, once
/// with the default `NullRecorder`. Traces must match bit for bit, and
/// the registry must actually have recorded the run.
#[test]
fn instrumented_rounds_are_bit_identical_to_uninstrumented() {
    const SECONDS: u64 = 200;
    let config = ChaosConfig {
        seconds: SECONDS,
        episodes: 4,
        min_duration_s: 8,
        max_duration_s: 24,
        settle_s: 16,
        quiesce_s: 32,
    };
    let rig = priority_rig(RigConfig::table2().with_spo(true));
    let servers: Vec<ServerId> = rig.farm.iter().map(|(id, _)| id).collect();
    let feeds: Vec<FeedId> = rig.topology.feeds().iter().map(|g| g.feed()).collect();
    let plan = ChaosPlan::generate(&config, &servers, &feeds, 42);

    let registry = Arc::new(MetricsRegistry::new());
    let mut instrumented = Engine::new(rig);
    instrumented.plane_mut().set_recorder(registry.clone());
    instrumented.schedule_chaos(&plan);
    let trace_instrumented = instrumented.run(SECONDS);

    let mut plain = Engine::new(priority_rig(RigConfig::table2().with_spo(true)));
    plain.schedule_chaos(&plan);
    let trace_plain = plain.run(SECONDS);

    assert_traces_identical(&trace_instrumented, &trace_plain);

    // The instrumented run was actually observed: every phase histogram
    // is populated and the round counter matches the control cadence.
    let snap = registry.snapshot();
    for phase in RoundPhase::ALL {
        let count = snap
            .histograms
            .iter()
            .find(|h| h.name == phase.metric_name())
            .map(|h| h.count)
            .unwrap_or(0);
        assert!(count > 0, "phase {} was never observed", phase.label());
    }
    let rounds = snap
        .counters
        .iter()
        .find(|c| c.name == capmaestro_core::obs::names::ROUNDS_TOTAL)
        .map(|c| c.value)
        .unwrap_or(0);
    assert_eq!(rounds, SECONDS / 8, "one round per 8 s control period");
}

/// 60 s seeded-chaos soak with the serving stack attached and scraper
/// threads hammering `/v1/metrics`, `/v1/healthz`, and `/v1/report` the whole
/// time, against an unscraped twin of the same plan: serving mode reads
/// only published copies, so scraping must never perturb a control
/// decision. Traces must match bit for bit.
#[test]
fn scraped_engine_is_bit_identical_to_unscraped_twin() {
    use capmaestro_core::obs::prometheus;
    use capmaestro_serve::{client, HttpConfig, HttpServer, Router, ServeState};
    use std::sync::atomic::{AtomicBool, Ordering};

    const SECONDS: u64 = 60;
    let config = ChaosConfig {
        seconds: SECONDS,
        episodes: 2,
        min_duration_s: 4,
        max_duration_s: 8,
        settle_s: 8,
        quiesce_s: 16,
    };
    let rig = priority_rig(RigConfig::table2().with_spo(true));
    let servers: Vec<ServerId> = rig.farm.iter().map(|(id, _)| id).collect();
    let feeds: Vec<FeedId> = rig.topology.feeds().iter().map(|g| g.feed()).collect();
    let plan = ChaosPlan::generate(&config, &servers, &feeds, 42);

    // Twin A: live registry, HTTP server, and scrapers under load.
    let registry = Arc::new(MetricsRegistry::new());
    let mut scraped = Engine::new(priority_rig(RigConfig::table2().with_spo(true)));
    scraped.plane_mut().set_recorder(registry.clone());
    scraped.schedule_chaos(&plan);
    let state = Arc::new(ServeState::new(
        registry.clone(),
        scraped.control_period_s(),
    ));
    let router = Router::new(state.clone(), registry.clone());
    let mut server = HttpServer::bind(HttpConfig::default().with_workers(2), Arc::new(router))
        .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();

    let stop = Arc::new(AtomicBool::new(false));
    let mut scrapers = Vec::new();
    for endpoint in ["/v1/metrics", "/v1/healthz", "/v1/report"] {
        let addr = addr.clone();
        let stop = stop.clone();
        scrapers.push(std::thread::spawn(move || {
            let mut scrapes = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let response = client::get(&addr, endpoint).expect("scrape under soak");
                match endpoint {
                    "/v1/metrics" => {
                        assert_eq!(response.status, 200);
                        prometheus::validate(response.body_str().expect("utf-8"))
                            .expect("valid exposition during soak");
                    }
                    // /v1/healthz flips with wall-clock progress and /v1/report
                    // needs a first round: 200 or 503, never garbage.
                    _ => assert!(response.status == 200 || response.status == 503),
                }
                scrapes += 1;
            }
            scrapes
        }));
    }

    let period = scraped.control_period_s();
    let trace_scraped = scraped.run_observed(SECONDS, |engine| {
        // The observer runs post-step; the round fired when the pre-step
        // clock (now − 1) was on a period boundary.
        let round_ran = (engine.now_s() - 1).is_multiple_of(period);
        state.publish(engine, round_ran);
        // Yield so scrapers genuinely interleave with round execution on
        // small CI machines.
        std::thread::yield_now();
    });
    // Keep scraping a moment past the end, then stop and drain.
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    let mut total_scrapes = 0usize;
    for scraper in scrapers {
        total_scrapes += scraper.join().expect("scraper thread");
    }
    server.shutdown();
    assert!(total_scrapes > 0, "the soak must actually have been scraped");

    // Twin B: same plan, no registry, no server, no scrapers.
    let mut plain = Engine::new(priority_rig(RigConfig::table2().with_spo(true)));
    plain.schedule_chaos(&plan);
    let trace_plain = plain.run(SECONDS);

    assert_traces_identical(&trace_scraped, &trace_plain);
    assert_eq!(
        state.health().rounds_total,
        SECONDS.div_ceil(period), // rounds fire at t = 0, 8, …, 56
        "every round must have been published to the serving state"
    );
}

/// The gather counters count every round's work, a round that reshapes
/// the tree set included. Every tree keeps its round states through the
/// outage. After feed B fails, each dual-corded leaf of the surviving
/// trees carries its server's whole load, so both SPO passes re-summarize
/// every one of their nodes. After it returns, those leaves fall back to
/// their split, so both passes re-summarize every surviving node again;
/// the returning trees come back with the inputs they were parked with,
/// so their warm walks re-summarize nothing. The parked trees' counts
/// stay in the total, which never falls.
#[test]
fn a_feed_failure_round_counts_the_nodes_it_re_summarizes() {
    let config = DataCenterRigConfig {
        spo: true,
        ..DataCenterRigConfig::small()
    };
    let registry = Arc::new(MetricsRegistry::new());
    let mut engine = Engine::new(datacenter_rig(&config));
    engine.plane_mut().set_recorder(registry.clone());
    let summarized = || {
        let snap = registry.snapshot();
        let counter = snap
            .counters
            .iter()
            .find(|c| c.name == names::TREE_NODES_SUMMARIZED_TOTAL);
        counter.map_or(0, |c| c.value)
    };
    let nodes = |engine: &Engine| -> u64 {
        engine
            .plane()
            .trees()
            .iter()
            .map(|t| t.arena().len() as u64)
            .sum()
    };
    let period = engine.control_period_s();
    // Steps into the next round but one with `event` applied the second
    // before it; returns the nodes that round re-summarized.
    let round_after = |engine: &mut Engine, event: Event| {
        let round_at = engine.now_s().next_multiple_of(period) + period;
        engine.schedule(round_at - 1, event);
        while engine.now_s() < round_at {
            engine.step();
        }
        let before = summarized();
        engine.step();
        let after = summarized();
        assert!(after >= before, "the cumulative count fell");
        after - before
    };
    for _ in 0..4 * period {
        engine.step();
    }
    let all = nodes(&engine);
    let failed = round_after(&mut engine, Event::FailFeed(FeedId::B));
    let surviving = nodes(&engine);
    assert!(0 < surviving && surviving < all);
    assert_eq!(failed, 2 * surviving, "the feed-failure round");
    let restored = round_after(&mut engine, Event::RestoreFeed(FeedId::B));
    assert_eq!(restored, 2 * surviving, "the feed-restore round");
}
