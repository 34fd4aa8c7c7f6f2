//! The seam: every product item the benchmark touches is named in this
//! file and nowhere else (a self-test greps the other files), so when a
//! later change deletes or renames product surface, this one file is
//! what has to follow. README.md lists the entry points by role.
//!
//! Items are imported through crate-root re-exports where the product
//! has them; the rest (`daemon::drive_second`, `http::parse_request`,
//! the `obs` exporters, `wire`, the rig builders) only exist under their
//! module paths.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use capmaestro_core::metrics::LeafInput;
use capmaestro_core::obs::trace::{self as obs_trace, TraceRecorder};
use capmaestro_core::obs::{json as obs_json, names, prometheus, HistogramSample};
use capmaestro_core::wire;
use capmaestro_core::workers::{leaf_statics, shared_farm, SharedFarm};
use capmaestro_core::{
    reconcile_plan, AllocScratch, AllocatorKind, DeploymentConfig, DesiredState, DownMsg, Farm,
    MetricsRegistry, MetricsSnapshot, OpLog, PolicyKind, PriorityMetrics, RackWorker, Recorder,
    RoundPhase, UpMsg, WorkerDeployment,
};
use capmaestro_serve::daemon::drive_second as product_drive_second;
use capmaestro_serve::http::{parse_request as product_parse_request, ParseOutcome};
use capmaestro_serve::rig::build_farm;
use capmaestro_serve::{
    build_rig, rig_assignments, run_agent, AgentConfig, AgentReport, Handler, HttpConfig,
    HttpLimits, HttpServer, Request, RigSpec, Router, ServeState, SocketTransport,
    SocketTransportConfig,
};
use capmaestro_sim::procchaos::demand_at;
use capmaestro_sim::scenarios::{datacenter_rig, DataCenterRigConfig};
use capmaestro_sim::{Engine, Event, InvariantConfig, InvariantKind, InvariantTracker, Rig};
use capmaestro_topology::presets::DataCenterParams;
use capmaestro_topology::{FeedId, Priority, ServerId};
use capmaestro_units::{Ratio, Seconds, Watts};

use crate::digest::Digest;

pub use capmaestro_core::RoundOutcome;

// ---------------------------------------------------------------------------
// Rigs
// ---------------------------------------------------------------------------

/// Which data-centre rig an engine workload simulates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineRig {
    /// Table 4 fan-out scaled by transformers: 648 racks × 39 servers =
    /// 25 272 dual-corded servers, six trees, SPO on.
    Fleet { utilization: f64 },
    /// The real Table 4 centre: 162 racks × 24 = 3 888 servers at 0.90.
    Table4,
    /// `DataCenterRigConfig::small()`: 216 servers (`--smoke`, self-tests).
    Small { utilization: f64 },
}

pub fn engine_rig(rig: EngineRig, seed: u64) -> Rig {
    let config = match rig {
        EngineRig::Fleet { utilization } => DataCenterRigConfig {
            params: DataCenterParams {
                racks: 648,
                transformers_per_feed: 8,
                rpps_per_transformer: 9,
                cdus_per_rpp: 9,
                servers_per_rack: 39,
                ..DataCenterParams::default()
            },
            contractual_per_phase: Watts::from_kilowatts(700.0 * 648.0 / 162.0) * 0.95,
            utilization,
            spo: true,
            seed,
            ..DataCenterRigConfig::default()
        },
        EngineRig::Table4 => DataCenterRigConfig {
            utilization: 0.90,
            spo: true,
            seed,
            ..DataCenterRigConfig::default()
        },
        EngineRig::Small { utilization } => DataCenterRigConfig {
            utilization,
            spo: true,
            seed,
            ..DataCenterRigConfig::small()
        },
    };
    datacenter_rig(&config)
}

/// The room rig: `racks` single-corded racks behind one feed, 320 W of
/// budget against 420 W of demand per server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoomRig {
    pub racks: usize,
    pub servers_per_rack: usize,
}

impl RoomRig {
    fn spec(self) -> RigSpec {
        RigSpec::Racks {
            racks: self.racks,
            servers_per_rack: self.servers_per_rack,
        }
    }
}

// ---------------------------------------------------------------------------
// The engine daemon, assembled exactly as `serve::daemon::run` does
// ---------------------------------------------------------------------------

/// `capmaestrod`'s engine mode over an arbitrary rig (the binary itself
/// is hard-wired to the 4-server Table 2 rig): engine, registry,
/// forwarding trace recorder and serve state — and, for the workload
/// that has an operator, the file-backed oplog, router and HTTP server.
/// The benchmark never calls `set_parallelism`: product defaults apply.
pub struct EngineDaemon {
    engine: Engine,
    state: Arc<ServeState>,
    registry: Arc<MetricsRegistry>,
    trace: Arc<TraceRecorder>,
    operator_plane: Option<OperatorPlane>,
}

/// What only `operator_storm` assembles.
struct OperatorPlane {
    router: Arc<Router>,
    server: HttpServer,
}

/// `operator`: the oplog file and HTTP worker count of a daemon that
/// serves an operator; `None` leaves the state on its in-memory log with
/// no listener, so no operator-plane code runs beside the engine.
pub fn assemble_engine(rig: Rig, operator: Option<(&Path, usize)>) -> Result<EngineDaemon, String> {
    let registry = Arc::new(MetricsRegistry::new());
    let trace = Arc::new(TraceRecorder::new().with_forward(registry.clone() as Arc<dyn Recorder>));
    let mut engine = Engine::new(rig);
    engine.plane_mut().set_recorder(trace.clone());

    let mut state = ServeState::new(registry.clone(), engine.control_period_s())
        .with_policy_label(AllocatorKind::Waterfall.name());
    if let Some((oplog, _)) = operator {
        let (log, recovery) =
            OpLog::open(oplog).map_err(|e| format!("open oplog {}: {e}", oplog.display()))?;
        if recovery.recovered != 0 || recovery.truncated {
            return Err(format!("oplog {} is not fresh", oplog.display()));
        }
        state = state.with_oplog(log);
    }
    let state = Arc::new(state);
    let operator_plane = match operator {
        None => None,
        Some((_, http_workers)) => {
            let router =
                Arc::new(Router::new(state.clone(), registry.clone()).with_trace(trace.clone()));
            let http = HttpConfig::default()
                .with_addr("127.0.0.1:0")
                .with_workers(http_workers)
                .with_recorder(registry.clone());
            let server =
                HttpServer::bind(http, router.clone()).map_err(|e| format!("bind http: {e}"))?;
            Some(OperatorPlane { router, server })
        }
    };
    Ok(EngineDaemon {
        engine,
        state,
        registry,
        trace,
        operator_plane,
    })
}

impl EngineDaemon {
    /// Where the operator connects; `None` on a daemon without one.
    pub fn addr(&self) -> Option<SocketAddr> {
        self.operator_plane.as_ref().map(|p| p.server.local_addr())
    }

    pub fn now_s(&self) -> u64 {
        self.engine.now_s()
    }

    pub fn control_period_s(&self) -> u64 {
        self.engine.control_period_s()
    }

    /// One simulated second the way the daemon loop runs it. Returns
    /// whether the step fired a control round.
    pub fn drive_second(&mut self) -> bool {
        product_drive_second(&mut self.engine, &self.state)
    }

    /// `drive_second`, taken apart so each call can sit in its own
    /// span: whether the next step is a round boundary.
    pub fn at_boundary(&self) -> bool {
        self.engine
            .now_s()
            .is_multiple_of(self.engine.control_period_s())
    }

    pub fn reconcile(&mut self) -> usize {
        self.state.reconcile(&mut self.engine)
    }

    pub fn step(&mut self) {
        self.engine.step();
    }

    pub fn publish(&self, round_ran: bool) {
        self.state.publish(&self.engine, round_ran);
    }

    pub fn reset_trace(&mut self) {
        self.engine.reset_trace();
    }

    pub fn schedule_demand(&mut self, at_s: u64, server_slot: usize, watts: f64) {
        let id = self.engine.farm().ids()[server_slot];
        self.engine
            .schedule(at_s, Event::SetDemand(id, Watts::new(watts)));
    }

    pub fn schedule_feed_b(&mut self, at_s: u64, fail: bool) {
        let event = if fail {
            Event::FailFeed(FeedId::B)
        } else {
            Event::RestoreFeed(FeedId::B)
        };
        self.engine.schedule(at_s, event);
    }

    pub fn servers(&self) -> usize {
        self.engine.farm().len()
    }

    pub fn server_ids(&self) -> Vec<u32> {
        self.engine.farm().ids().iter().map(|id| id.0).collect()
    }

    /// Per tree: how many group nodes its arena has (the addressable
    /// range of `PATCH /v1/groups/{tree}.{node}/priority`).
    pub fn group_nodes(&self) -> Vec<usize> {
        self.engine
            .plane()
            .trees()
            .iter()
            .map(|t| t.arena().len() - t.arena().leaf_index().len())
            .collect()
    }

    pub fn root_budgets_now(&self) -> Vec<f64> {
        self.engine
            .plane()
            .root_budgets_now()
            .iter()
            .map(|w| w.as_f64())
            .collect()
    }

    pub fn applied_seq(&self) -> u64 {
        self.state.health().applied_seq
    }

    pub fn oplog_head(&self) -> u64 {
        self.state.oplog_head()
    }

    pub fn metrics(&self) -> MetricsRead {
        MetricsRead(self.registry.snapshot())
    }

    /// Folds the round that just ran into `digest`: every commanded DC
    /// cap in server-id order, then the stranded watts reclaimed.
    pub fn fold_round(&self, digest: &mut Digest) {
        let Some(report) = self.engine.last_round_report() else {
            return;
        };
        for id in self.engine.farm().ids() {
            match report.dc_caps.get(id) {
                Some(cap) => digest.fold_f64(cap.as_f64()),
                None => digest.fold_u64(u64::MAX),
            }
        }
        digest.fold_f64(report.stranded_reclaimed.as_f64());
    }

    /// Folds every server's present AC power into `digest`.
    pub fn fold_power(&self, digest: &mut Digest) {
        for (_, server) in self.engine.farm().iter() {
            digest.fold_f64(server.achieved_ac().as_f64());
        }
    }

    /// Σ leaf budgets ≤ root budget on every tree of the last round
    /// (budgets conserve down the tree); `Err` names the first tree
    /// that breaks it.
    pub fn check_conservation(&self) -> Result<(), String> {
        let Some(report) = self.engine.last_round_report() else {
            return Ok(());
        };
        for (tree, allocation) in report.allocations.iter().enumerate() {
            let leaves = allocation.total_leaf_budget().as_f64();
            let root = allocation.node_budget(0).as_f64();
            if leaves > root * (1.0 + 1e-9) + 1e-6 {
                return Err(format!(
                    "t={} tree {tree}: leaf budgets {leaves} W exceed root budget {root} W",
                    self.engine.now_s()
                ));
            }
        }
        Ok(())
    }

    /// `(dark servers, working supplies)` over the whole farm. A breaker
    /// trip cuts the supplies beneath it and a server that loses its last
    /// one goes dark, so on a rig where nobody is drained either shows
    /// here — read from the farm, not from the in-engine `Trace`.
    pub fn supply_census(&self) -> (usize, usize) {
        self.engine
            .farm()
            .iter()
            .fold((0, 0), |(dark, supplies), (_, server)| {
                (
                    dark + usize::from(!server.is_powered()),
                    supplies + server.bank().working_count(),
                )
            })
    }

    /// Share of powered servers whose cap is throttling them right now.
    pub fn throttled_share(&self) -> f64 {
        let throttled = self
            .engine
            .farm()
            .iter()
            .filter(|(_, s)| s.throttle().as_f64() > 1e-3)
            .count();
        throttled as f64 / self.engine.farm().len().max(1) as f64
    }

    /// The report body `publish` renders at a boundary, rendered here
    /// (snapshot build + JSON) for the standalone `core::obs` row.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        if let Some(report) = self.engine.last_round_report() {
            obs_json::snapshot_with_fields_into(
                &mut out,
                &[("policy", AllocatorKind::Waterfall.name())],
                &report.metrics_snapshot(),
            );
        }
        out
    }

    pub fn render_trace_tail(&self, last_s: u64) -> String {
        self.trace.render(Some(last_s))
    }

    /// Calls the router the way an HTTP worker does, without the socket.
    pub fn handle(&self, request: &HttpRequest) -> Option<u16> {
        let plane = self.operator_plane.as_ref()?;
        Some(plane.router.handle(&request.0).status)
    }

    /// Reopens the oplog file and checks that replaying it declares
    /// exactly what the live plane has converged to: the reconcile plan
    /// of the replayed state against the live engine must be empty.
    pub fn check_oplog_replay(&self, oplog: &Path) -> Result<(), String> {
        let (log, recovery) =
            OpLog::open(oplog).map_err(|e| format!("reopen oplog {}: {e}", oplog.display()))?;
        if recovery.truncated {
            return Err(format!(
                "reopened oplog dropped {} torn bytes",
                recovery.dropped_bytes
            ));
        }
        if log.head_seq() != self.state.oplog_head() {
            return Err(format!(
                "reopened oplog holds {} events, live head is {}",
                log.head_seq(),
                self.state.oplog_head()
            ));
        }
        let replayed = DesiredState::replay(log.events());
        let plan = reconcile_plan(&replayed, self.engine.plane(), self.engine.farm());
        if !plan.is_empty() {
            return Err(format!(
                "replayed oplog still plans {} actions against the live plane",
                plan.action_count()
            ));
        }
        Ok(())
    }

    /// Stops accepting, drains in-flight requests, joins the server's
    /// threads, then drops the engine — the daemon's shutdown order.
    pub fn shutdown(mut self) {
        if let Some(plane) = &mut self.operator_plane {
            plane.server.shutdown();
        }
    }
}

/// The chaos-soak safety invariants. `observe` is quadratic in leaves
/// per tree (≈270 ms at 25 272 servers, nine simulated seconds' worth),
/// so the traced pass calls it once per control period — on the last
/// second before the boundary, when the previous round's caps have had
/// the whole period to settle — and scales the sustain windows from
/// seconds to periods.
pub struct Invariants(InvariantTracker);

impl Invariants {
    pub fn per_period(period_s: u64) -> Self {
        let defaults = InvariantConfig::default();
        Invariants(InvariantTracker::new(InvariantConfig {
            sustain_s: (defaults.sustain_s / period_s).max(1),
            meter_sustain_s: (defaults.meter_sustain_s / period_s).max(1),
            ..defaults
        }))
    }

    pub fn observe(&mut self, daemon: &EngineDaemon) {
        self.0.observe(&daemon.engine);
    }

    /// Priority inversions counted so far.
    pub fn inversions(&self) -> u64 {
        self.0
            .violations()
            .iter()
            .filter(|v| v.kind == InvariantKind::PriorityInversion)
            .count() as u64
    }

    /// Violations as text, split into `(safety, priority inversions)`.
    /// The inversion check is existential per tree — *some* higher-
    /// priority server throttled while *some* lower-priority one has
    /// headroom — which demand churn satisfies by construction (a server
    /// whose demand just rose is throttled until the next round
    /// re-budgets it), so a churning workload counts inversions and is
    /// held to the count blessed for its seed, not to zero.
    pub fn violations(&self) -> (Vec<String>, Vec<String>) {
        let (safety, inversions): (Vec<_>, Vec<_>) = self
            .0
            .violations()
            .iter()
            .partition(|v| v.kind != InvariantKind::PriorityInversion);
        let text = |vs: Vec<&capmaestro_sim::Violation>| {
            vs.into_iter()
                .map(|v| format!("t={} {:?}: {}", v.second, v.kind, v.detail))
                .collect()
        };
        (text(safety), text(inversions))
    }
}

// ---------------------------------------------------------------------------
// The room daemon, assembled as `serve::daemon::run_room` and
// `capmaestro-agent` do
// ---------------------------------------------------------------------------

pub struct RoomDaemon {
    deployment: WorkerDeployment,
    state: ServeState,
    registry: Arc<MetricsRegistry>,
    live_budgets: Vec<Watts>,
    trees_total: usize,
    agents: Vec<JoinHandle<Result<AgentReport, String>>>,
    agent_registries: Vec<Arc<MetricsRegistry>>,
}

pub fn assemble_room(rig: RoomRig, agents: usize, demand_seed: u64) -> Result<RoomDaemon, String> {
    let spec = rig.spec();
    let dist = build_rig(spec);
    let trees_total = dist.trees.len();
    let assignments = rig_assignments(&dist, agents);
    // The farm is built only to capture the per-leaf fail-safe statics;
    // the servers themselves live in the agents.
    let statics = {
        let farm = build_farm(&dist.topo);
        leaf_statics(&dist.trees, &assignments, &farm)
    };

    let registry = Arc::new(MetricsRegistry::new());
    let transport = SocketTransport::bind(SocketTransportConfig::new(agents))
        .map_err(|e| format!("bind agent listener: {e}"))?;
    let agent_addr = transport.local_addr().to_string();

    let mut agent_registries = Vec::new();
    let mut handles = Vec::new();
    for worker in 0..agents {
        let agent_registry = Arc::new(MetricsRegistry::new());
        let mut config = AgentConfig::new(agent_addr.clone(), worker, agents, spec);
        config.demand_seed = Some(demand_seed);
        config.recorder = agent_registry.clone();
        // A controller that is gone must not leave the thread retrying
        // forever.
        config.max_connect_attempts = Some(20);
        agent_registries.push(agent_registry);
        handles.push(
            std::thread::Builder::new()
                .name(format!("bench-agent-{worker}"))
                .spawn(move || run_agent(&config))
                .map_err(|e| format!("spawn agent {worker}: {e}"))?,
        );
    }
    if !transport.wait_for_workers(Duration::from_secs(20)) {
        return Err("agents did not connect within 20 s".to_string());
    }

    let live_budgets = dist.root_budgets.clone();
    let deployment = WorkerDeployment::with_transport(
        dist.trees,
        dist.root_budgets,
        PolicyKind::GlobalPriority,
        assignments,
        &statics,
        Box::new(transport),
        DeploymentConfig::default().with_recorder(registry.clone()),
    );

    // Nobody operates the room: the state keeps its in-memory log and no
    // listener is bound, so `reconcile_distributed` finds nothing to do.
    let state = ServeState::new(registry.clone(), 1)
        .with_policy_label(AllocatorKind::Waterfall.name())
        .with_budgets_only();
    Ok(RoomDaemon {
        deployment,
        state,
        registry,
        live_budgets,
        trees_total,
        agents: handles,
        agent_registries,
    })
}

impl RoomDaemon {
    /// The four calls of one `run_room` loop iteration, separately so a
    /// traced pass can span each.
    pub fn reconcile(&mut self) {
        if let Some(target) = self.state.reconcile_distributed(&self.live_budgets) {
            self.deployment.set_root_budgets(target.clone());
            self.live_budgets = target;
        }
    }

    pub fn run_round(&mut self, round: u64) -> RoundOutcome {
        self.deployment.run_round(round)
    }

    pub fn advance(&mut self) -> bool {
        self.deployment.advance(1)
    }

    pub fn publish(&self, rounds_done: u64, outcome: &RoundOutcome) {
        let stale_racks = self
            .deployment
            .assignments()
            .iter()
            .filter(|a| {
                a.cuts
                    .iter()
                    .any(|(c, _)| outcome.failsafe_cuts.contains(c))
            })
            .count();
        self.state
            .publish_distributed(rounds_done, self.trees_total, stale_racks);
    }

    pub fn metrics(&self) -> MetricsRead {
        MetricsRead(self.registry.snapshot())
    }

    pub fn transport_violations(&self) -> u64 {
        self.deployment.transport_violations()
    }

    /// Shuts the deployment down and joins the agents. Returns the
    /// agents' summed local violations and their heartbeat round-trip
    /// histograms merged.
    pub fn shutdown(self) -> Result<RoomExit, String> {
        self.deployment.shutdown();
        let mut exit = RoomExit::default();
        for (worker, handle) in self.agents.into_iter().enumerate() {
            let report = handle
                .join()
                .map_err(|_| format!("agent {worker} panicked"))?
                .map_err(|e| format!("agent {worker}: {e}"))?;
            exit.agent_violations += report.violations_total;
            exit.agent_reconnects += report.reconnects;
        }
        for registry in &self.agent_registries {
            let read = MetricsRead(registry.snapshot());
            if let Some(h) = read.histogram(names::AGENT_HEARTBEAT_RTT_SECONDS) {
                exit.heartbeat.push(h);
            }
        }
        Ok(exit)
    }
}

#[derive(Debug, Default)]
pub struct RoomExit {
    pub agent_violations: u64,
    pub agent_reconnects: u64,
    heartbeat: Vec<HistogramSample>,
}

impl RoomExit {
    /// Median heartbeat round trip over all agents, in seconds, from
    /// the merged histogram buckets (upper bound of the median bucket),
    /// and the observation count.
    pub fn heartbeat_rtt_p50(&self) -> (f64, u64) {
        let total: u64 = self.heartbeat.iter().map(|h| h.count).sum();
        let Some(first) = self.heartbeat.first() else {
            return (0.0, 0);
        };
        if total == 0 {
            return (0.0, 0);
        }
        for (i, bucket) in first.buckets.iter().enumerate() {
            let cumulative: u64 = self
                .heartbeat
                .iter()
                .map(|h| h.buckets.get(i).map_or(0, |b| b.cumulative))
                .sum();
            if cumulative * 2 >= total {
                return (bucket.le, total);
            }
        }
        (first.buckets.last().map_or(0.0, |b| b.le), total)
    }
}

/// The same deployment over `ChannelTransport` (in-process threads,
/// shared farm): what a round costs without sockets and the wire codec.
pub struct ChannelRoom {
    deployment: WorkerDeployment,
    farm: SharedFarm,
    demand_seed: u64,
    ordinal: u64,
}

pub fn assemble_channel_room(rig: RoomRig, workers: usize, demand_seed: u64) -> ChannelRoom {
    let dist = build_rig(rig.spec());
    let farm = shared_farm(build_farm(&dist.topo));
    let deployment = WorkerDeployment::spawn(
        dist.trees,
        dist.root_budgets,
        PolicyKind::GlobalPriority,
        farm.clone(),
        workers,
        DeploymentConfig::default(),
    );
    ChannelRoom {
        deployment,
        farm,
        demand_seed,
        ordinal: 0,
    }
}

impl ChannelRoom {
    /// One round plus one simulated second, with the agents' seeded
    /// demand schedule applied to the shared farm the way an agent
    /// applies it to its own.
    pub fn round_and_advance(&mut self, round: u64) -> RoundOutcome {
        let outcome = self.deployment.run_round(round);
        {
            let mut farm = self.farm.write();
            let ids: Vec<ServerId> = farm.ids().to_vec();
            for id in ids {
                if let Some(demand) = demand_at(self.demand_seed, id, self.ordinal) {
                    if let Some(mut server) = farm.get_mut(id) {
                        server.set_offered_demand(demand);
                    }
                }
            }
        }
        self.ordinal += 1;
        self.deployment.advance(1);
        outcome
    }

    pub fn shutdown(self) {
        self.deployment.shutdown();
    }
}

/// Folds one round's cut budgets (sorted by cut id) into `digest`.
pub fn fold_outcome(outcome: &RoundOutcome, digest: &mut Digest) {
    for ((tree, cut), budget) in &outcome.cut_budgets {
        digest.fold_u64(*tree as u64);
        digest.fold_u64(*cut as u64);
        digest.fold_f64(budget.as_f64());
    }
}

pub fn failsafe_cuts(outcome: &RoundOutcome) -> usize {
    outcome.failsafe_cuts.len()
}

// ---------------------------------------------------------------------------
// Reading the plane's own instruments back
// ---------------------------------------------------------------------------

/// A registry snapshot: the ledger's per-phase rows are the `obs`
/// histograms read back, not a second set of stopwatches.
pub struct MetricsRead(MetricsSnapshot);

/// `(sum, count)` of one histogram, or of one counter as `(value, 1)`.
pub type SumCount = (f64, u64);

impl MetricsRead {
    fn histogram(&self, name: &str) -> Option<HistogramSample> {
        self.0.histograms.iter().find(|h| h.name == name).cloned()
    }

    fn sum_count(&self, name: &str) -> SumCount {
        self.histogram(name).map_or((0.0, 0), |h| (h.sum, h.count))
    }

    fn counter(&self, name: &str) -> u64 {
        self.0
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    pub fn sim_step(&self) -> SumCount {
        self.sum_count(names::SIM_STEP_SECONDS)
    }

    /// The six round phases in pipeline order: sense, estimate, gather,
    /// allocate, spo, enforce.
    pub fn round_phases(&self) -> [SumCount; 6] {
        RoundPhase::ALL.map(|phase| self.sum_count(phase.metric_name()))
    }

    /// Tree nodes `(summarised, dirty-skipped)` during gather.
    pub fn gather_nodes(&self) -> (u64, u64) {
        (
            self.counter(names::TREE_NODES_SUMMARIZED_TOTAL),
            self.counter(names::TREE_NODES_DIRTY_SKIPPED_TOTAL),
        )
    }

    pub fn reconcile_actions(&self) -> u64 {
        self.counter(names::SERVE_RECONCILE_ACTIONS_TOTAL)
    }

    pub fn oplog_appends(&self) -> u64 {
        self.counter(names::SERVE_OPLOG_APPENDS_TOTAL)
    }

    pub fn gather_timeouts(&self) -> u64 {
        self.counter(names::WORKER_GATHER_TIMEOUTS_TOTAL)
    }

    pub fn render_prometheus(&self) -> String {
        prometheus::render(&self.0)
    }
}

// ---------------------------------------------------------------------------
// Validators for scraped bodies
// ---------------------------------------------------------------------------

pub fn validate_prometheus(body: &str) -> Result<(), String> {
    prometheus::validate(body)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

pub fn validate_report(body: &str) -> Result<(), String> {
    obs_json::parse(body).map(|_| ()).map_err(|e| e.to_string())
}

pub fn validate_trace(body: &str) -> Result<(), String> {
    obs_trace::parse(body)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Standalone layer inputs
// ---------------------------------------------------------------------------

/// A settled farm and its sense buffer for the `server::slab` rows.
pub struct SlabBench {
    farm: Farm,
    buf: capmaestro_core::plane::SenseBuffer,
    flip: bool,
}

impl SlabBench {
    pub fn for_engine(rig: EngineRig, seed: u64) -> Self {
        Self::over(engine_rig(rig, seed).farm)
    }

    fn over(farm: Farm) -> Self {
        SlabBench {
            farm,
            buf: capmaestro_core::plane::SenseBuffer::new(),
            flip: false,
        }
    }

    pub fn servers(&self) -> usize {
        self.farm.len()
    }

    /// One fused step-and-sense sweep (1 simulated second).
    pub fn sweep(&mut self) {
        self.farm
            .step_and_sense_into(Seconds::new(1.0), &mut self.buf);
    }

    /// Changes every server's offered demand, so the next sweep finds
    /// the whole slab dirty.
    pub fn dirty_all(&mut self) {
        self.flip = !self.flip;
        let watts = if self.flip { 310.0 } else { 390.0 };
        self.farm
            .for_each_mut(|_, _, mut server| server.set_offered_demand(Watts::new(watts)));
    }
}

/// 39 children (one rack of the fleet rig) under a budget that binds:
/// the input of the `core::alloc` rows.
pub struct AllocBench {
    children: Vec<PriorityMetrics>,
    budget: Watts,
    scratch: AllocScratch,
    out: Vec<Watts>,
}

pub const ALLOC_POLICIES: [&str; 3] = ["waterfall", "waterfilling", "fair_share"];

impl AllocBench {
    pub fn new(seed: u64) -> Self {
        let mut rng = crate::stats::Rng::new(seed ^ 0xa110c);
        let children: Vec<PriorityMetrics> = (0..39)
            .map(|i| {
                PriorityMetrics::from_leaf(&LeafInput {
                    demand: Watts::new(rng.uniform(300.0, 490.0).round()),
                    cap_min: Watts::new(270.0),
                    cap_max: Watts::new(490.0),
                    share: Ratio::new(0.5),
                    priority: if i % 3 == 0 {
                        Priority::HIGH
                    } else {
                        Priority::LOW
                    },
                })
            })
            .collect();
        let demand: f64 = children.iter().map(|c| c.total_demand().as_f64()).sum();
        AllocBench {
            children,
            // 85 % of demand: above every floor, below every wish.
            budget: Watts::new(demand * 0.85),
            scratch: AllocScratch::default(),
            out: Vec::new(),
        }
    }

    pub fn children(&self) -> usize {
        self.children.len()
    }

    fn split_with(&mut self, allocator: &dyn capmaestro_core::Allocator) -> f64 {
        allocator
            .split(
                self.budget,
                &self.children,
                &mut self.scratch,
                &mut self.out,
            )
            .as_f64()
    }

    /// `iters` calls of `Allocator::split` with the allocator resolved
    /// once, as the plane's round context caches it; returns the summed
    /// unallocated remainders.
    pub fn split_many(&mut self, policy: &str, iters: usize) -> f64 {
        let kind: AllocatorKind = policy.parse().expect("a policy from ALLOC_POLICIES");
        let allocator = kind.allocator();
        let mut acc = 0.0;
        for _ in 0..iters {
            acc += std::hint::black_box(self.split_with(allocator.as_ref()));
        }
        acc
    }
}

/// One agent's real Gather answer and the Budgets message it gets back
/// for the room rig: the inputs of the `core::wire` rows.
pub struct WireBench {
    up: UpMsg,
    down: DownMsg,
    up_bytes: Vec<u8>,
    down_bytes: Vec<u8>,
    workers: usize,
}

impl WireBench {
    pub fn new(rig: RoomRig, workers: usize) -> Self {
        let dist = build_rig(rig.spec());
        let assignments = rig_assignments(&dist, workers);
        let farm = build_farm(&dist.topo);
        let budgets: Vec<((usize, usize), Watts)> = assignments
            .iter()
            .flat_map(|a| a.cuts.iter())
            .map(|(cut, leaves)| (*cut, Watts::new(320.0 * leaves.len() as f64)))
            .collect();
        let mut worker = RackWorker::new(
            assignments[0].clone(),
            dist.trees,
            PolicyKind::GlobalPriority,
        );
        let up = UpMsg::Metrics {
            worker: 0,
            round: 1,
            metrics: worker.gather(&farm),
        };
        let down = DownMsg::Budgets { round: 1, budgets };
        let up_bytes = wire::encode_up(&up);
        let down_bytes = wire::encode_down(&down);
        WireBench {
            up,
            down,
            up_bytes,
            down_bytes,
            workers,
        }
    }

    /// Payload bytes one round moves: every agent's metrics up and the
    /// full budget vector down to every agent (acks and heartbeats are
    /// a few bytes each and left out).
    pub fn bytes_per_round(&self) -> usize {
        self.workers * (self.up_bytes.len() + self.down_bytes.len())
    }

    pub fn encode_up(&self) -> usize {
        wire::encode_up(&self.up).len()
    }

    pub fn decode_up(&self) -> bool {
        wire::decode_up(&self.up_bytes).is_ok()
    }

    pub fn encode_down(&self) -> usize {
        wire::encode_down(&self.down).len()
    }

    pub fn decode_down(&self) -> bool {
        wire::decode_down(&self.down_bytes).is_ok()
    }
}

/// A file-backed oplog for the `core::oplog` rows.
pub struct OplogBench(OpLog);

impl OplogBench {
    pub fn open(path: &Path) -> Result<Self, String> {
        OpLog::open(path)
            .map(|(log, _)| OplogBench(log))
            .map_err(|e| format!("open oplog {}: {e}", path.display()))
    }

    /// Appends one tree-budget op under `key`; `true` when it was an
    /// idempotent replay of an earlier append.
    pub fn append(&mut self, key: &str, watts: f64) -> Result<bool, String> {
        self.0
            .append(
                0,
                Some(key),
                capmaestro_core::Op::SetTreeBudget {
                    tree: 0,
                    watts: Watts::new(watts),
                },
            )
            .map(|outcome| outcome.replayed())
            .map_err(|e| e.to_string())
    }
}

/// A parsed request, for calling `Handler::handle` directly.
pub struct HttpRequest(Request);

/// Parses `bytes` as the server's workers do; `None` unless it is one
/// complete request.
pub fn parse_request(bytes: &[u8]) -> Option<HttpRequest> {
    match product_parse_request(bytes, &HttpLimits::default()) {
        ParseOutcome::Complete { request, .. } => Some(HttpRequest(request)),
        ParseOutcome::Incomplete | ParseOutcome::Error(_) => None,
    }
}

/// A full trace ring (65 536 events) shaped like the plane's own
/// emission: per second a sim-step slice, per period six phase slices,
/// three plane counters and three counters per tree.
pub struct TraceBench(TraceRecorder);

impl TraceBench {
    pub fn full_ring(trees: u32) -> Self {
        let recorder = TraceRecorder::new();
        let mut second = 0u64;
        while recorder.dropped_events() == 0 {
            recorder.trace_set_time_us(second * 1_000_000);
            recorder.observe(names::SIM_STEP_SECONDS, 0.03);
            if second.is_multiple_of(8) {
                for phase in RoundPhase::ALL {
                    recorder.observe(phase.metric_name(), 0.004);
                }
                recorder.gauge_set(names::STALE_SERVERS, 0.0);
                recorder.gauge_set(names::STRANDED_WATTS_RECLAIMED, 1234.5);
                for tree in 0..trees {
                    recorder.trace_tree_counter(tree, obs_trace::ROOT_BUDGET_W, 886_666.6);
                    recorder.trace_tree_counter(tree, obs_trace::BUDGET_ALLOC_W, 880_000.1);
                    recorder.trace_tree_counter(tree, obs_trace::POWER_W, 870_000.7);
                }
            }
            second += 1;
        }
        TraceBench(recorder)
    }

    pub fn events(&self) -> usize {
        self.0.len()
    }

    pub fn render(&self, last_s: Option<u64>) -> String {
        self.0.render(last_s)
    }
}
