//! The incremental round pipeline against the executable specification:
//! every control round of a warm plane must decide, bit for bit, what
//! `capmaestro_spec` decides with every leaf stepped and every tree input
//! recomputed — each tree node's input, each supply's budget, the stranded
//! watts, the servers in fail-safe and every commanded cap. The spec is handed every reading the
//! plane is delivered, so the harness drives the engine's second itself
//! (events, sensing through the fault layer when it could act, a round
//! every control period, physics; breakers play no part). It runs the
//! Fig. 2 rig under seeded chaos plans, and a 1024-server data center
//! under a hand-written fault/supply/priority/demand event storm.

use crate::engine::Event;
use crate::faults::{ChaosAction, ChaosConfig, ChaosPlan, FaultKind, FaultLayer};
use crate::scenarios::{datacenter_rig, priority_rig, DataCenterRigConfig, Rig, RigConfig};
use capmaestro_core::plane::{BudgetSource, ControlPlane, Farm};
use capmaestro_spec::Leaves;
use capmaestro_topology::presets::DataCenterParams;
use capmaestro_topology::{FeedId, Priority, ServerId, SupplyIndex, Topology};
use capmaestro_units::{Seconds, Watts};
use proptest::prelude::*;

/// Seconds between control rounds, as the engine's default.
const PERIOD: u64 = 8;

/// A rig's plane and farm stepped second by second beside the spec.
struct Harness {
    topology: Topology,
    farm: Farm,
    plane: ControlPlane,
    /// The rig's root budgets, as the spec resolves them.
    budgets: BudgetSource,
    faults: FaultLayer,
    /// Due at their second, in scheduling order.
    events: Vec<(u64, Event)>,
    spec: Leaves,
    now: u64,
    rounds: usize,
    /// Stranded watts reclaimed, summed over the checked rounds.
    stranded: Watts,
    /// Servers that left fail-safe at a checked round.
    failsafe_exits: usize,
    /// The servers in fail-safe after the last checked round.
    stale: Vec<ServerId>,
}

impl Harness {
    fn new(rig: Rig, budgets: BudgetSource, mut events: Vec<(u64, Event)>) -> Self {
        events.sort_by_key(|&(at, _)| at);
        let Rig {
            topology,
            farm,
            plane,
        } = rig;
        Harness {
            topology,
            farm,
            plane,
            budgets,
            faults: FaultLayer::new(0),
            events,
            spec: Leaves::default(),
            now: 0,
            rounds: 0,
            stranded: Watts::ZERO,
            failsafe_exits: 0,
            stale: Vec::new(),
        }
    }

    /// One second as the engine steps it, its round checked against the spec.
    fn second(&mut self) {
        let due: Vec<Event> = self
            .events
            .iter()
            .filter(|(at, _)| *at == self.now)
            .map(|(_, e)| e.clone())
            .collect();
        for event in due {
            self.apply(event);
        }
        self.faults.tick(self.now);
        if self.faults.is_quiet() {
            self.plane.sample(&mut self.farm);
            self.observe_all();
        } else {
            self.farm.refresh();
            let (farm, faults) = (&self.farm, &mut self.faults);
            let delivered: Vec<_> = farm
                .iter()
                .filter_map(|(id, server)| faults.intercept(id, server.sense()).map(|s| (id, s)))
                .collect();
            self.plane.record_snapshots(farm, &delivered);
            for (id, reading) in &delivered {
                let model = farm
                    .get(*id)
                    .expect("delivered for a farm server")
                    .config()
                    .model();
                self.spec.observe(*id, reading, model);
            }
        }
        if self.now.is_multiple_of(PERIOD) {
            self.round(&format!("t={}", self.now));
        }
        self.farm.step_all(Seconds::new(1.0));
        self.farm.refresh();
        self.now += 1;
    }

    /// A round outside the 1 Hz loop, after a clean sample of every server.
    fn manual_round(&mut self) {
        self.plane.sample(&mut self.farm);
        self.observe_all();
        self.round("manual round");
    }

    fn observe_all(&mut self) {
        for (id, server) in self.farm.iter() {
            self.spec
                .observe(id, &server.sense(), server.config().model());
        }
    }

    fn round(&mut self, at: &str) {
        self.plane.round(&mut self.farm);
        let want = self.spec.round(
            &self.farm,
            self.plane.trees(),
            &self.budgets,
            self.plane.config(),
        );
        want.assert_matches(&self.plane, &self.farm, at);
        self.rounds += 1;
        let report = self.plane.last_report().expect("a round ran");
        self.stranded += report.stranded_reclaimed;
        let stale = self.plane.stale_servers();
        self.failsafe_exits += self.stale.iter().filter(|id| !stale.contains(id)).count();
        self.stale = stale;
    }

    /// What `Engine::step` does with each event these scenarios schedule.
    fn apply(&mut self, event: Event) {
        let outlets = |feed: FeedId| -> Vec<(ServerId, SupplyIndex)> {
            let graph = self.topology.feed(feed).expect("a feed of the rig");
            graph.outlets().map(|(_, o)| (o.server, o.supply)).collect()
        };
        match event {
            Event::InjectFault(server, kind) => self.faults.inject(server, kind),
            Event::ClearFault(server) => self.faults.clear(server),
            Event::FlapTelemetry(feed, spec) => {
                let mut members: Vec<ServerId> =
                    outlets(feed).into_iter().map(|(s, _)| s).collect();
                members.sort_unstable();
                members.dedup();
                self.faults.start_flap(feed, members, spec, self.now);
            }
            Event::StopFlap(feed) => self.faults.stop_flap(feed),
            Event::SetPriority(server, priority) => self.plane.set_priority(server, priority),
            Event::FailSupply(server, supply) => {
                let mut server = self.farm.get_mut(server).expect("a rig server");
                if server.bank().working_count() > 1 {
                    server.bank_mut().fail_supply(supply.index());
                } else {
                    server.set_powered(false);
                }
            }
            Event::SetDemand(server, demand) => {
                self.farm
                    .get_mut(server)
                    .expect("a rig server")
                    .set_offered_demand(demand);
            }
            Event::FailFeed(feed) => {
                self.plane.fail_feed(feed);
                for (server, supply) in outlets(feed) {
                    let mut server = self.farm.get_mut(server).expect("a rig server");
                    let bank = server.bank_mut();
                    if bank.working_count() > 1 {
                        bank.fail_supply(supply.index());
                    } else {
                        server.set_powered(false);
                    }
                }
            }
            Event::RestoreFeed(feed) => {
                self.plane.restore_feed(feed);
                for (server, supply) in outlets(feed) {
                    let mut server = self.farm.get_mut(server).expect("a rig server");
                    server.bank_mut().repair_supply(supply.index());
                    if !server.is_powered() {
                        server.set_powered(true);
                    }
                }
            }
            other => panic!("not scheduled by these scenarios: {other:?}"),
        }
    }
}

/// A chaos plan's episodes as the engine schedules them: inject/clear
/// pairs and flap start/stop pairs.
fn chaos_events(plan: &ChaosPlan) -> Vec<(u64, Event)> {
    let mut events = Vec::new();
    for episode in plan.episodes() {
        let (start, end) = match &episode.action {
            ChaosAction::Fault(server, kind) => (
                Event::InjectFault(*server, kind.clone()),
                Event::ClearFault(*server),
            ),
            ChaosAction::Flap(feed, spec) => {
                (Event::FlapTelemetry(*feed, *spec), Event::StopFlap(*feed))
            }
        };
        events.push((episode.start_s, start));
        events.push((episode.end_s, end));
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seeded chaos streams (dropped/stuck/noisy/spiking sensors and
    /// telemetry flaps) on the Fig. 2 rig: every round under fault
    /// injection decides what the spec decides. One server is kept out of
    /// the random plan and goes dark for 48 s, long enough to enter
    /// fail-safe and leave it before the run ends, so every case walks the
    /// whole ladder. The single-corded rig cannot strand power; the
    /// 1 024-server storm below covers SPO.
    #[test]
    fn incremental_rounds_match_the_spec_under_chaos(seed in 0u64..10_000) {
        let config = ChaosConfig {
            seconds: 120,
            episodes: 4,
            min_duration_s: 8,
            max_duration_s: 20,
            settle_s: 16,
            quiesce_s: 24,
        };
        let rig = priority_rig(RigConfig::table2());
        let servers: Vec<ServerId> = rig.farm.iter().map(|(id, _)| id).collect();
        let (dark, random) = servers.split_last().expect("the rig has servers");
        let feeds: Vec<FeedId> =
            rig.topology.feeds().iter().map(|g| g.feed()).collect();
        let plan = ChaosPlan::generate(&config, random, &feeds, seed);
        let mut events = chaos_events(&plan);
        events.push((16, Event::InjectFault(*dark, FaultKind::DropReading)));
        events.push((64, Event::ClearFault(*dark)));

        let budgets = BudgetSource::Fixed(rig.plane.root_budgets_now());
        let mut harness = Harness::new(rig, budgets, events);
        for _ in 0..config.seconds {
            harness.second();
        }
        prop_assert_eq!(harness.rounds, 15);
        prop_assert!(harness.failsafe_exits >= 1, "no server left fail-safe");
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
fn incremental_rounds_match_the_spec_on_a_large_datacenter() {
    let config = large_dc();
    let rig = datacenter_rig(&config);

    // A storm touching every dirty-tracking entry point: sensor faults, a
    // feed failure and restoration, and priority/demand edits. Server 17
    // reports for a whole control period (nine samples), goes dark long
    // enough to enter fail-safe at t=32 and leave it at t=40, and its
    // demand drops while nobody hears it: a leaf that kept its pre-outage
    // window through fail-safe would estimate from stale samples the spec
    // has cleared.
    let ids: Vec<ServerId> = rig.farm.iter().map(|(id, _)| id).collect();
    let mut events: Vec<(u64, Event)> = vec![
        (9, Event::InjectFault(ids[17], FaultKind::DropReading)),
        (
            10,
            Event::InjectFault(ids[0], FaultKind::Spike { factor: 1.5 }),
        ),
        (18, Event::SetDemand(ids[17], Watts::new(250.0))),
        (20, Event::FailFeed(FeedId::B)),
        (33, Event::ClearFault(ids[17])),
        (28, Event::ClearFault(ids[0])),
        (30, Event::SetPriority(ids[100], Priority::HIGH)),
        (32, Event::SetDemand(ids[511], Watts::new(150.0))),
        (34, Event::RestoreFeed(FeedId::B)),
    ];
    // Rack 6 loses its feed-A supplies: the feed imbalance, under the
    // binding shared budget, strands power that SPO reclaims.
    let rack6 = &ids[6 * 32..7 * 32];
    events.extend(
        rack6
            .iter()
            .map(|&id| (1, Event::FailSupply(id, SupplyIndex::FIRST))),
    );
    let budgets = BudgetSource::SharedPerPhase(config.contractual_per_phase);
    let mut harness = Harness::new(rig, budgets, events);
    for _ in 0..48 {
        harness.second();
    }
    assert_eq!(harness.rounds, 6);
    // Not vacuous: SPO had power to reclaim, and a server recovered from
    // fail-safe, in rounds the spec checked.
    assert!(harness.stranded > Watts::ZERO, "no power was stranded");
    assert!(harness.failsafe_exits >= 1, "no server left fail-safe");

    // The converged round decisions match bitwise as well.
    harness.manual_round();
}
