//! The flagship reproduction test: Fig. 9's headline numbers at full
//! Table 4 scale, asserted exactly, the per-supply controller's settling
//! (Fig. 5), the typical-case load profile (Fig. 8), the priority rig's
//! steady state (Table 2, Fig. 6b) on the Fig. 2 rig, and the
//! stranded-power optimization's headline numbers (Table 3, Fig. 7b,
//! Fig. 7c) on the Fig. 7a rig.
//!
//! These are the values the whole paper argues toward. The typical-case
//! number (6318 for every policy) and the worst-case No Priority (3888)
//! and Global Priority (5832) anchors reproduce exactly; our Local
//! Priority variant lands one rack-step above the paper's (5022 vs 4860),
//! which the assertions bound rather than pin (see EXPERIMENTS.md). The
//! Fig. 5, Fig. 8, Table 2, Fig. 6b and SPO numbers are pinned to
//! EXPERIMENTS.md's values within its rounding, with the paper's value
//! quoted beside each.

use capmaestro::core::capping::CappingController;
use capmaestro::core::plane::RoundReport;
use capmaestro::core::policy::PolicyKind;
use capmaestro::server::{Server, ServerConfig};
use capmaestro::sim::capacity::{CapacityConfig, CapacityPlanner, Condition};
use capmaestro::sim::engine::{Engine, Trace};
use capmaestro::sim::scenarios::{priority_rig, stranded_rig, RigConfig};
use capmaestro::topology::presets::RIG_SERVER_NAMES;
use capmaestro::topology::{FeedId, SupplyIndex};
use capmaestro::units::{Seconds, Watts};
use capmaestro::workload::{google_like_profile, Schedule, WebServerModel};

fn planner() -> CapacityPlanner {
    CapacityPlanner::new(CapacityConfig {
        worst_trials: 10,
        typical_reps_per_bin: 1,
        ..CapacityConfig::default()
    })
}

#[test]
fn fig9_worst_case_no_priority_is_3888() {
    let n = planner().max_deployable(PolicyKind::NoPriority, Condition::WorstCase);
    assert_eq!(n, 3888, "paper: 3888");
}

#[test]
fn fig9_worst_case_global_priority_is_5832() {
    let n = planner().max_deployable(PolicyKind::GlobalPriority, Condition::WorstCase);
    assert_eq!(n, 5832, "paper: 5832 (+50% over no capping)");
}

#[test]
fn fig9_worst_case_local_priority_between_anchors() {
    let n = planner().max_deployable(PolicyKind::LocalPriority, Condition::WorstCase);
    assert!(
        (4860..=5184).contains(&n),
        "paper: 4860; ours lands at {n} (one rack step of tolerance)"
    );
}

#[test]
fn fig9_typical_case_is_6318_for_all_policies() {
    let planner = planner();
    for policy in PolicyKind::ALL {
        let n = planner.max_deployable(policy, Condition::Typical);
        assert_eq!(n, 6318, "paper: 6318 for {policy}");
    }
}

#[test]
fn fig10_global_high_priority_stays_uncapped_through_5832() {
    let planner = planner();
    let stats = planner.evaluate(36, PolicyKind::GlobalPriority, Condition::WorstCase);
    assert!(
        stats.cap_ratio_high < 1e-6,
        "high-priority cap ratio at 5832 servers should be zero, got {}",
        stats.cap_ratio_high
    );
    // And all-server cap ratios are identical across policies at this
    // density (total shed power is policy-independent).
    let none = planner.evaluate(36, PolicyKind::NoPriority, Condition::WorstCase);
    assert!((stats.cap_ratio_all - none.cap_ratio_all).abs() < 0.01);
}

/// One 150 s run of the Fig. 7a stranded-power rig (700 W per feed), as
/// the `table3`, `fig7b` and `fig7c` binaries run it.
struct StrandedRun {
    engine: Engine,
    trace: Trace,
    /// A control round after the run, for the settled budgets.
    report: RoundReport,
}

fn stranded_run(spo: bool) -> StrandedRun {
    let mut engine = Engine::new(stranded_rig(RigConfig::table3().with_spo(spo)));
    let trace = engine.run(150);
    let report = engine.run_control_round();
    StrandedRun { engine, trace, report }
}

impl StrandedRun {
    fn id(&self, name: &str) -> capmaestro::topology::ServerId {
        self.engine.topology().server_by_name(name).expect("rig server")
    }

    /// A supply's budget minus what it draws (Table 3's "stranded").
    fn stranded_w(&self, name: &str, supply: SupplyIndex) -> f64 {
        let id = self.id(name);
        let budget = self.report.supply_budget(id, supply).expect("budgeted supply");
        let drawn = self.engine.server(id).expect("rig server").sense().supply_ac[supply.index()];
        (budget.as_f64() - drawn.as_f64()).max(0.0)
    }

    /// SB's only supply is on the Y side.
    fn sb_budget_w(&self) -> f64 {
        let sb = self.id("SB");
        self.report.supply_budget(sb, SupplyIndex::FIRST).expect("SB budget").as_f64()
    }

    /// SB's Apache throughput normalized to uncapped (Fig. 7b).
    fn sb_throughput(&self) -> f64 {
        let perf = self.engine.server(self.id("SB")).expect("SB").performance_fraction();
        WebServerModel::new(1000.0, 5.0)
            .at_performance(perf)
            .normalized_throughput
            .as_f64()
    }

    /// Steady-state power on the Y feed's top breaker (Fig. 7c).
    fn y_side_w(&self) -> f64 {
        let series = self.trace.node_series_on(FeedId::B, "Y Top CB").expect("Y top CB");
        Trace::tail_mean(series, 30)
    }
}

/// `ours` rounds to `reported` at EXPERIMENTS.md's precision `step`.
fn assert_rounds_to(ours: f64, reported: f64, step: f64, what: &str) {
    assert!(
        (ours - reported).abs() <= step / 2.0,
        "{what}: ours {ours:.4}, EXPERIMENTS.md {reported}"
    );
}

#[test]
fn fig5_each_supply_settles_within_5_percent_of_its_budget_in_16_s() {
    // As the `fig5` binary runs it: a dual-supply server demanding 460 W,
    // capped every 8 s against per-supply budgets that start at 280 W;
    // PS2's drops to 200 W at t = 30 s and PS1's to 150 W at t = 110 s.
    let mut server = Server::new(ServerConfig::paper_default().with_split(0.5));
    server.set_offered_demand(Watts::new(460.0));
    server.settle();
    let model = server.config().model();
    let mut controller = CappingController::new(
        model.cap_min(),
        model.cap_max(),
        server.config().efficiency(),
    );
    let ps1 = Schedule::new(Watts::new(280.0)).then_at(Seconds::new(110.0), Watts::new(150.0));
    let ps2 = Schedule::new(Watts::new(280.0)).then_at(Seconds::new(30.0), Watts::new(200.0));
    let mut power = Vec::new();
    for t in 0..200u64 {
        let now = Seconds::new(t as f64);
        if t % 8 == 0 {
            let budgets = [ps1.value_at(now), ps2.value_at(now)];
            let cap = controller.update(&budgets, &server.sense().supply_ac);
            server.set_dc_cap(cap);
        }
        server.step(Seconds::new(1.0));
        let supply_ac = server.sense().supply_ac;
        power.push([supply_ac[0].as_f64(), supply_ac[1].as_f64()]);
    }
    // Paper: within 5 % of the assigned budgets within two control
    // periods (16 s) of each step. EXPERIMENTS.md: 0.0 % for PS2 at
    // t = 46 s and 0.2 % for PS1 at t = 126 s.
    let off_pct = |got: f64, budget: f64| (got - budget).abs() / budget * 100.0;
    let ps2_off = off_pct(power[30 + 16][1], 200.0);
    let ps1_off = off_pct(power[110 + 16][0], 150.0);
    assert!(ps2_off < 5.0 && ps1_off < 5.0, "paper: < 5 %; ours {ps2_off} %, {ps1_off} %");
    assert_rounds_to(ps2_off, 0.0, 0.1, "PS2 % off at t = 46 s");
    assert_rounds_to(ps1_off, 0.2, 0.1, "PS1 % off at t = 126 s");
}

#[test]
fn fig8_profile_is_beta_6_19_with_mean_0_240_sigma_0_084_and_a_thin_tail() {
    // Paper: a Google data center's load profile (raw data unpublished):
    // unimodal, most mass between 10 % and 50 %. EXPERIMENTS.md: our
    // Beta(6, 19) substitute has mean 0.240, σ 0.084, P(u > 0.5) < 1 %.
    let profile = google_like_profile();
    assert_rounds_to(profile.mean(), 0.240, 0.001, "mean");
    assert_rounds_to(profile.std_dev(), 0.084, 0.001, "σ");
    let tail = profile.prob_above(0.5);
    assert!(tail < 0.01, "P(u > 0.5) = {tail}, EXPERIMENTS.md: < 1 %");
    let bulk = profile.prob_above(0.1) - profile.prob_above(0.5);
    assert!(bulk > 0.5, "most mass between 10 % and 50 %, ours {bulk}");
}

#[test]
fn table2_budgets_per_policy_match_experiments() {
    // Paper (SA/SB/SC/SD): No Priority 314/306/311/316, Local Priority
    // 344/274/314/317, Global Priority 419/276/275/275.
    let ours = [
        (PolicyKind::NoPriority, [310.0, 309.0, 310.0, 311.0]),
        (PolicyKind::LocalPriority, [349.0, 270.0, 310.0, 311.0]),
        (PolicyKind::GlobalPriority, [420.0, 273.0, 273.0, 273.0]),
    ];
    for (policy, reported) in ours {
        // As the `table2` binary runs it: converge, then one more round.
        let mut engine = Engine::new(priority_rig(RigConfig::table2().with_policy(policy)));
        engine.run(120);
        let report = engine.run_control_round();
        for (name, reported) in RIG_SERVER_NAMES.into_iter().zip(reported) {
            let id = engine.topology().server_by_name(name).expect("rig server");
            let budget = report.supply_budget(id, SupplyIndex::FIRST).expect("budgeted supply");
            assert_rounds_to(budget.as_f64(), reported, 1.0, &format!("{policy} {name}"));
        }
    }
}

#[test]
fn fig6b_global_priority_holds_top_1240_left_693_right_547_without_trips() {
    // Paper: total power stays under the 1240 W top budget and the 750 W
    // child limits throughout, and no breaker trips.
    let mut engine = Engine::new(priority_rig(RigConfig::table2()));
    let trace = engine.run(160);
    let steady = |name: &str| Trace::tail_mean(trace.node_series(name).expect(name), 20);
    assert_rounds_to(steady("Top CB"), 1240.0, 1.0, "top CB");
    assert_rounds_to(steady("Left CB"), 693.0, 1.0, "left CB");
    assert_rounds_to(steady("Right CB"), 547.0, 1.0, "right CB");
    assert!(trace.trips.is_empty(), "no breaker may trip: {:?}", trace.trips);
}

#[test]
fn table3_spo_reclaims_the_y_side_strands_of_sc_and_sd() {
    let (without, with) = (stranded_run(false), stranded_run(true));
    // Paper: SC ≈ 27 W and SD ≈ 29 W stranded on the Y side without SPO.
    assert_rounds_to(without.stranded_w("SC", SupplyIndex::SECOND), 30.0, 1.0, "SC Y w/o SPO");
    assert_rounds_to(without.stranded_w("SD", SupplyIndex::SECOND), 35.0, 1.0, "SD Y w/o SPO");
    // Paper: none with SPO, on either side of any server.
    for run in [&without, &with] {
        for name in ["SA", "SC", "SD"] {
            assert_rounds_to(run.stranded_w(name, SupplyIndex::FIRST), 0.0, 1.0, name);
        }
    }
    for name in ["SB", "SC", "SD"] {
        let supply = if name == "SB" { SupplyIndex::FIRST } else { SupplyIndex::SECOND };
        assert_rounds_to(with.stranded_w(name, supply), 0.0, 1.0, &format!("{name} Y w/ SPO"));
    }
}

#[test]
fn table3_spo_raises_sb_budget_from_343_to_409() {
    // Paper: ≈ 346 → 413 W (+67 W).
    assert_rounds_to(stranded_run(false).sb_budget_w(), 343.0, 1.0, "SB budget w/o SPO");
    assert_rounds_to(stranded_run(true).sb_budget_w(), 409.0, 1.0, "SB budget w/ SPO");
}

#[test]
fn fig7b_spo_raises_sb_throughput_from_0_90_to_0_99() {
    // Paper: ≈ 0.88 → > 0.99.
    assert_rounds_to(stranded_run(false).sb_throughput(), 0.90, 0.01, "SB w/o SPO");
    assert_rounds_to(stranded_run(true).sb_throughput(), 0.99, 0.01, "SB w/ SPO");
}

#[test]
fn fig7c_spo_fills_the_y_side_from_635_to_700() {
    // Paper: a gap of ~67 W without SPO; the full 700 W budget with it.
    assert_rounds_to(stranded_run(false).y_side_w(), 635.0, 1.0, "Y side w/o SPO");
    assert_rounds_to(stranded_run(true).y_side_w(), 700.0, 1.0, "Y side w/ SPO");
}
