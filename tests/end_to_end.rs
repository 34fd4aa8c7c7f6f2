//! Cross-crate integration tests: the paper's headline results, end to end.
//! The rig runs come from `capmaestro_bench`, the same functions `repro`
//! prints.

use capmaestro::core::policy::PolicyKind;
use capmaestro::sim::capacity::{CapacityConfig, CapacityPlanner, Condition};
use capmaestro::sim::engine::Trace;
use capmaestro::topology::presets::{DataCenterParams, RIG_SERVER_NAMES};
use capmaestro::units::Watts;
use capmaestro_bench::{priority_run, stranded_run, table1};

/// Table 1, reproduced exactly.
#[test]
fn table1_budgets_match_paper_exactly() {
    let budgets = table1();
    let expectations = [
        ("SA", 430.0, 350.0),
        ("SB", 270.0, 270.0),
        ("SC", 270.0, 310.0),
        ("SD", 270.0, 310.0),
    ];
    for (name, expect_global, expect_local) in expectations {
        let i = RIG_SERVER_NAMES.iter().position(|n| *n == name).unwrap();
        let (g, l) = (budgets.global[i], budgets.local[i]);
        assert!(
            g.approx_eq(Watts::new(expect_global), Watts::new(0.5)),
            "{name}: global {g} != {expect_global}"
        );
        assert!(
            l.approx_eq(Watts::new(expect_local), Watts::new(0.5)),
            "{name}: local {l} != {expect_local}"
        );
    }
}

/// §6.2: the closed-loop rig converges to Table 2-like budgets and the
/// Fig. 6a throughput ordering.
#[test]
fn priority_rig_reproduces_fig6a_ordering() {
    let sa_throughput = PolicyKind::ALL.map(|policy| priority_run(policy, 150).throughput[0]);
    let (none, local, global) = (sa_throughput[0], sa_throughput[1], sa_throughput[2]);
    // Paper: 0.82 < 0.87 < 1.00.
    assert!(none < local && local < global, "{none} / {local} / {global}");
    assert!(global > 0.99, "global priority must not throttle SA: {global}");
    assert!((none - 0.82).abs() < 0.05, "no-priority SA ended at {none}");
    assert!((local - 0.87).abs() < 0.05, "local-priority SA ended at {local}");
}

/// §6.3: SPO recovers roughly the paper's ~67 W for SB.
#[test]
fn stranded_power_rig_reproduces_fig7() {
    let sb_power = [false, true].map(|spo| stranded_run(PolicyKind::GlobalPriority, spo).sb_steady_w);
    let gain = sb_power[1] - sb_power[0];
    assert!(
        (40.0..100.0).contains(&gain),
        "SPO should recover ~67 W for SB, got {gain:.1} (from {:.1} to {:.1})",
        sb_power[0],
        sb_power[1]
    );
}

/// §6.4 shape at reduced scale: global > local > none in the worst case,
/// and the global worst-case bound matches the analytic prediction
/// N/3 × (0.3·490 + 0.7·270) ≤ contractual per phase.
#[test]
fn capacity_ordering_and_analytic_bound() {
    let config = CapacityConfig {
        dc: DataCenterParams {
            racks: 18,
            transformers_per_feed: 2,
            rpps_per_transformer: 3,
            cdus_per_rpp: 3,
            ..DataCenterParams::default()
        },
        contractual_per_phase: Watts::from_kilowatts(700.0 / 9.0),
        worst_trials: 8,
        typical_reps_per_bin: 1,
        ..CapacityConfig::default()
    };
    let planner = CapacityPlanner::new(config);
    let none = planner.max_deployable(PolicyKind::NoPriority, Condition::WorstCase);
    let local = planner.max_deployable(PolicyKind::LocalPriority, Condition::WorstCase);
    let global = planner.max_deployable(PolicyKind::GlobalPriority, Condition::WorstCase);
    assert!(none < local && local <= global, "{none} / {local} / {global}");

    // Analytic ceiling for global: per-phase mixed minimum power must fit
    // into the contractual phase budget (with a transformer-limit slack).
    let per_phase_budget: f64 = 700_000.0 / 9.0 * 0.95;
    let mixed_min = 0.3 * 490.0 + 0.7 * 270.0;
    let analytic_n = (per_phase_budget / mixed_min * 3.0).floor() as usize;
    assert!(
        global <= analytic_n,
        "global {global} exceeds the analytic ceiling {analytic_n}"
    );
    assert!(
        global >= analytic_n * 8 / 10,
        "global {global} far below the analytic ceiling {analytic_n}"
    );
}

/// The whole §6.2 pipeline respects every breaker at every second.
#[test]
fn no_limit_violated_at_any_second() {
    let trace = priority_run(PolicyKind::GlobalPriority, 200).trace;
    let top = trace.node_series("Top CB").unwrap();
    let left = trace.node_series("Left CB").unwrap();
    let right = trace.node_series("Right CB").unwrap();
    // Transient tolerance: the node manager settles within 6 s, breakers
    // tolerate 160 % for ≥30 s; steady state must respect the limits.
    for t in 30..top.len() {
        assert!(top[t] <= 1400.0 * 1.02, "top CB exceeded at t={t}: {}", top[t]);
        assert!(left[t] <= 750.0 * 1.02, "left CB exceeded at t={t}: {}", left[t]);
        assert!(right[t] <= 750.0 * 1.02, "right CB exceeded at t={t}: {}", right[t]);
    }
    assert!(trace.trips.is_empty());
}

/// All four rig servers keep at least Pcap_min worth of power under every
/// policy — the "guaranteed minimum performance" promise.
#[test]
fn minimum_power_guaranteed_under_all_policies() {
    for policy in PolicyKind::ALL {
        let run = priority_run(policy, 150);
        for id in run.ids {
            let steady = Trace::tail_mean(&run.trace.server_power[&id], 20);
            assert!(
                steady >= 265.0,
                "{policy}: server {id} below Pcap_min at {steady:.1} W"
            );
        }
    }
}
