//! The runs behind the paper's tables and figures on the Fig. 2 and
//! Fig. 7a rigs. One run feeds every view that reads it.

use capmaestro_core::capping::CappingController;
use capmaestro_core::policy::{GlobalPriority, LocalPriority, PolicyKind};
use capmaestro_core::tree::{ControlTree, SupplyInput};
use capmaestro_server::{Server, ServerConfig};
use capmaestro_sim::engine::{Engine, Trace};
use capmaestro_sim::scenarios::{priority_rig, stranded_rig, RigConfig};
use capmaestro_topology::presets::{figure2_feed, RIG_SERVER_NAMES};
use capmaestro_topology::{FeedId, ServerId, SupplyIndex};
use capmaestro_units::{Ratio, Seconds, Watts};
use capmaestro_workload::{Schedule, WebServerModel};

/// The Apache-like web server whose throughput Figs. 6a and 7b report;
/// its peak is arbitrary, since the figures are normalized.
fn apache() -> WebServerModel {
    WebServerModel::new(1000.0, 5.0)
}

/// Table 1's budgets for SA..SD, in [`RIG_SERVER_NAMES`] order.
#[derive(Debug, Clone, Copy)]
pub struct Table1 {
    /// Under Local Priority (paper: 350/270/310/310 W).
    pub local: [Watts; 4],
    /// Under Global Priority (paper: 430/270/270/270 W).
    pub global: [Watts; 4],
}

/// Table 1: local vs. global priority budgets on the Fig. 2 feed, four
/// servers demanding 430 W each under a 1240 W budget, SA high priority.
pub fn table1() -> Table1 {
    let topo = figure2_feed();
    let spec = topo.control_tree_specs().remove(0);
    let tree = ControlTree::with_uniform(
        spec,
        SupplyInput {
            demand: Watts::new(430.0),
            cap_min: Watts::new(270.0),
            cap_max: Watts::new(490.0),
            share: Ratio::ONE,
        },
    );
    let local = tree.allocate(Watts::new(1240.0), &LocalPriority::new());
    let global = tree.allocate(Watts::new(1240.0), &GlobalPriority::new());
    let budget = |alloc: &capmaestro_core::Allocation, name: &str| {
        let id = topo.server_by_name(name).expect("preset server");
        alloc
            .supply_budget(id, SupplyIndex::FIRST)
            .expect("budgeted supply")
    };
    Table1 {
        local: RIG_SERVER_NAMES.map(|name| budget(&local, name)),
        global: RIG_SERVER_NAMES.map(|name| budget(&global, name)),
    }
}

/// Fig. 5's per-second series, 200 s long.
#[derive(Debug, Clone, Default)]
pub struct Fig5 {
    /// PS1's budget, watts.
    pub ps1_budget: Vec<f64>,
    /// PS1's AC power, watts.
    pub ps1_w: Vec<f64>,
    /// PS2's budget, watts.
    pub ps2_budget: Vec<f64>,
    /// PS2's AC power, watts.
    pub ps2_w: Vec<f64>,
    /// The DC cap the controller commands, watts.
    pub dc_cap: Vec<f64>,
    /// The throttle level, percent.
    pub throttle_pct: Vec<f64>,
}

/// Fig. 5: closed-loop enforcement of independent per-supply budgets.
///
/// A dual-supply server with an even split demands 460 W under the §4.2
/// capping controller, updated every 8 s. Both budgets start at 280 W;
/// PS2's drops to 200 W at t = 30 s and PS1's to 150 W at t = 110 s. The
/// paper reports power within 5 % of the budgets two control periods
/// (16 s) after each step.
pub fn fig5() -> Fig5 {
    let mut server = Server::new(ServerConfig::paper_default().with_split(0.5));
    server.set_offered_demand(Watts::new(460.0));
    server.settle();
    let model = server.config().model();
    let mut controller = CappingController::new(
        model.cap_min(),
        model.cap_max(),
        server.config().efficiency(),
    );
    let ps1_budget =
        Schedule::new(Watts::new(280.0)).then_at(Seconds::new(110.0), Watts::new(150.0));
    let ps2_budget =
        Schedule::new(Watts::new(280.0)).then_at(Seconds::new(30.0), Watts::new(200.0));

    let mut out = Fig5::default();
    let mut dc_cap = f64::NAN;
    for t in 0..200u64 {
        let now = Seconds::new(t as f64);
        let budgets = [ps1_budget.value_at(now), ps2_budget.value_at(now)];
        if t % 8 == 0 {
            let cap = controller.update(&budgets, &server.sense().supply_ac);
            server.set_dc_cap(cap);
            dc_cap = cap.as_f64();
        }
        server.step(Seconds::new(1.0));
        let snap = server.sense();
        out.ps1_budget.push(budgets[0].as_f64());
        out.ps1_w.push(snap.supply_ac[0].as_f64());
        out.ps2_budget.push(budgets[1].as_f64());
        out.ps2_w.push(snap.supply_ac[1].as_f64());
        out.dc_cap.push(dc_cap);
        out.throttle_pct.push(snap.throttle.as_f64() * 100.0);
    }
    out
}

/// One run of the §6.2 priority rig (Fig. 2 feed, Table 2's demands,
/// 1240 W budget); per-server arrays are SA..SD.
#[derive(Debug)]
pub struct PriorityRun {
    /// The rig's servers.
    pub ids: [ServerId; 4],
    /// Every recorded series of the run (Fig. 6b's breakers).
    pub trace: Trace,
    /// Normalized web throughput at the end of the run (Fig. 6a).
    pub throughput: [f64; 4],
    /// SA's web latency increase at the end of the run, as a fraction.
    pub sa_latency_increase: f64,
    /// Each server's budget from one more control round after the run
    /// (Table 2); NaN if a supply went unbudgeted.
    pub budgets: [f64; 4],
}

/// Runs the priority rig under `policy` for `seconds`, then one more
/// control round.
pub fn priority_run(policy: PolicyKind, seconds: u64) -> PriorityRun {
    let rig = priority_rig(RigConfig::table2().with_policy(policy));
    let ids = RIG_SERVER_NAMES.map(|name| rig.server(name));
    let mut engine = Engine::new(rig);
    let trace = engine.run(seconds);
    let perf = ids.map(|id| {
        engine
            .server(id)
            .expect("rig server")
            .performance_fraction()
    });
    let report = engine.run_control_round();
    PriorityRun {
        ids,
        trace,
        throughput: perf.map(|p| apache().at_performance(p).normalized_throughput.as_f64()),
        sa_latency_increase: apache().latency_increase(perf[0]),
        budgets: ids.map(|id| {
            report
                .supply_budget(id, SupplyIndex::FIRST)
                .map_or(f64::NAN, |w| w.as_f64())
        }),
    }
}

/// One 150 s run of the §6.3 stranded-power rig (Fig. 7a: 700 W per
/// feed; SA on the X side only, SB on the Y side only, SC and SD on
/// both). Per-server arrays are SA..SD; `[x, y]` pairs are feed sides.
#[derive(Debug)]
pub struct StrandedRun {
    /// Each server's X/Y supply budget from one more control round after
    /// the run, watts (`None` on a side it has no supply on, or unbudgeted).
    pub budget: [[Option<f64>; 2]; 4],
    /// Each server's X/Y supply draw after that round, watts.
    pub draw: [[f64; 2]; 4],
    /// Normalized web throughput at the end of the run (Fig. 7b).
    pub throughput: [f64; 4],
    /// SB's performance fraction at the end of the run.
    pub sb_perf: Ratio,
    /// SB's mean power over the last 20 s, watts.
    pub sb_steady_w: f64,
    /// Power on the Y feed's top breaker every second (Fig. 7c).
    pub y_side: Vec<f64>,
    /// Mean Y-side power over the last 30 s, watts.
    pub y_steady_w: f64,
}

/// Runs the stranded-power rig under `policy`, with SPO on or off.
pub fn stranded_run(policy: PolicyKind, spo: bool) -> StrandedRun {
    let rig = stranded_rig(RigConfig::table3().with_policy(policy).with_spo(spo));
    let ids = RIG_SERVER_NAMES.map(|name| rig.server(name));
    let mut engine = Engine::new(rig);
    let trace = engine.run(150);
    let perf = ids.map(|id| {
        engine
            .server(id)
            .expect("rig server")
            .performance_fraction()
    });
    let report = engine.run_control_round();
    let (mut budget, mut draw) = ([[None; 2]; 4], [[0.0; 2]; 4]);
    for (i, id) in ids.into_iter().enumerate() {
        let budget_of = |supply| report.supply_budget(id, supply).map(|w| w.as_f64());
        let ac = engine.server(id).expect("rig server").sense().supply_ac;
        // Supply 0 is the X side for SA/SC/SD; SB's only supply (index 0)
        // is on the Y side.
        let (b, d) = match i {
            0 => ([budget_of(SupplyIndex::FIRST), None], [ac[0].as_f64(), 0.0]),
            1 => ([None, budget_of(SupplyIndex::FIRST)], [0.0, ac[0].as_f64()]),
            _ => (
                [
                    budget_of(SupplyIndex::FIRST),
                    budget_of(SupplyIndex::SECOND),
                ],
                [ac[0].as_f64(), ac[1].as_f64()],
            ),
        };
        (budget[i], draw[i]) = (b, d);
    }
    let y_side = trace
        .node_series_on(FeedId::B, "Y Top CB")
        .expect("Y top CB recorded")
        .to_vec();
    StrandedRun {
        budget,
        draw,
        throughput: perf.map(|p| apache().at_performance(p).normalized_throughput.as_f64()),
        sb_perf: perf[1],
        sb_steady_w: Trace::tail_mean(&trace.server_power[&ids[1]], 20),
        y_steady_w: Trace::tail_mean(&y_side, 30),
        y_side,
    }
}
