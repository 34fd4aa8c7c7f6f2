//! Chaos soak: seeded telemetry-fault schedules against the Fig. 2 rig
//! and a small data center, with per-second invariant checking.
//!
//! Each run generates a [`ChaosPlan`] (dropped/stuck/noisy/spiking
//! sensors, flapping feeds), schedules it on the engine, and observes
//! every simulated second with an [`InvariantTracker`]: per-tree budgets
//! respected by the physical load, caps inside the controllable range,
//! priority ordering preserved, and no breaker trips. After the schedule
//! drains, the harness measures how long the control plane takes to
//! return every per-supply budget (and the fleet's physical power) to
//! within 2 % of its pre-fault baseline; failing to recover inside the
//! quiesce window is itself a violation.
//!
//! ```text
//! cargo run --release -p capmaestro-bench --bin chaos \
//!     [-- --seconds N --seed S --seeds K --out PATH]
//! ```
//!
//! Results land in `BENCH_chaos.json`; the process exits non-zero if any
//! invariant was violated, so CI can gate on it.

use std::fmt::Write as _;
use std::sync::Arc;

use capmaestro_bench::{banner, Args, Table};
use capmaestro_core::obs::{names, MetricsRegistry, MetricsSnapshot};
use capmaestro_core::plane::RoundReport;
use capmaestro_sim::audit::{InvariantConfig, InvariantKind, InvariantTracker};
use capmaestro_sim::engine::Engine;
use capmaestro_sim::faults::{ChaosConfig, ChaosPlan};
use capmaestro_sim::scenarios::{
    datacenter_rig, priority_rig, DataCenterRigConfig, Rig, RigConfig,
};
use capmaestro_topology::{FeedId, ServerId, SupplyIndex};
use capmaestro_units::Watts;

/// Budget recovery tolerance: fractional part and absolute slack.
const RECOVERY_TOLERANCE: f64 = 0.02;
const RECOVERY_SLACK_W: f64 = 2.0;
const POWER_SLACK_W: f64 = 5.0;

/// One (rig, seed) soak outcome.
struct RunResult {
    rig: &'static str,
    seed: u64,
    servers: usize,
    episodes: usize,
    faults_injected: u64,
    /// `capmaestro_sim_fault_events_total` from the run's registry: the
    /// scheduled fault/flap events the engine applied.
    fault_events: u64,
    violations: Vec<String>,
    /// Server·seconds spent in fail-safe (stale) degradation — non-zero
    /// proves the schedule actually drove the degradation ladder rather
    /// than being absorbed silently.
    stale_server_seconds: u64,
    /// Seconds from the end of the last fault to full budget+power
    /// recovery (`None` when the run never left baseline, i.e. the plan
    /// held no effective disturbance).
    recovery_s: Option<u64>,
}

/// Scales the default chaos schedule down for short smoke runs while
/// keeping settle room before the first episode and a fault-free tail
/// for the recovery check.
fn chaos_config(seconds: u64) -> ChaosConfig {
    let defaults = ChaosConfig::default();
    let settle_s = defaults.settle_s.min(seconds / 5);
    let quiesce_s = defaults.quiesce_s.min(seconds / 4);
    let max_duration_s = defaults.max_duration_s.min(seconds / 6).max(8);
    ChaosConfig {
        seconds,
        episodes: ((seconds / 160) as usize).clamp(3, defaults.episodes),
        min_duration_s: defaults.min_duration_s.min(max_duration_s),
        max_duration_s,
        settle_s,
        quiesce_s,
        ..defaults
    }
}

fn total_power(engine: &Engine) -> f64 {
    engine
        .farm()
        .iter()
        .map(|(_, s)| s.sense().total_ac.as_f64())
        .sum()
}

fn budgets_match(
    base: &RoundReport,
    cur: &RoundReport,
    pairs: &[(ServerId, SupplyIndex)],
) -> bool {
    pairs.iter().all(|&(server, supply)| {
        match (
            base.supply_budget(server, supply),
            cur.supply_budget(server, supply),
        ) {
            (Some(b), Some(c)) => {
                (b.as_f64() - c.as_f64()).abs()
                    <= RECOVERY_TOLERANCE * b.as_f64().abs() + RECOVERY_SLACK_W
            }
            (None, None) => true,
            _ => false,
        }
    })
}

fn run_one(name: &'static str, rig: Rig, seconds: u64, seed: u64) -> RunResult {
    let servers: Vec<ServerId> = rig.farm.iter().map(|(id, _)| id).collect();
    let feeds: Vec<FeedId> = rig.topology.feeds().iter().map(|g| g.feed()).collect();
    let config = chaos_config(seconds);
    let plan = ChaosPlan::generate(&config, &servers, &feeds, seed);
    let first_start = plan
        .episodes()
        .first()
        .map(|e| e.start_s)
        .unwrap_or(seconds);
    let last_end = plan.last_fault_end_s();
    let pairs: Vec<(ServerId, SupplyIndex)> = servers
        .iter()
        .flat_map(|&s| [(s, SupplyIndex::FIRST), (s, SupplyIndex::SECOND)])
        .collect();

    // One registry per run observes the engine, the control plane, and
    // the tracker at once; after the run its counters are cross-checked
    // against the ground truth the harness already holds.
    let registry = Arc::new(MetricsRegistry::new());
    let mut engine = Engine::new(rig);
    engine.plane_mut().set_recorder(registry.clone());
    engine.schedule_chaos(&plan);
    let mut tracker = InvariantTracker::new(InvariantConfig::default())
        .with_recorder(registry.clone());

    // Baseline: the last control round fully before the first episode.
    let baseline_at = first_start.saturating_sub(8);
    let mut baseline: Option<(RoundReport, f64)> = None;
    let mut recovered_at: Option<u64> = None;
    let mut stale_server_seconds: u64 = 0;
    engine.run_observed(seconds, |e| {
        tracker.observe(e);
        stale_server_seconds += e.plane().stale_servers().len() as u64;
        let t = e.now_s();
        if baseline.is_none() && t >= baseline_at {
            if let Some(report) = e.last_round_report() {
                baseline = Some((report.clone(), total_power(e)));
            }
        }
        if t > last_end && recovered_at.is_none() {
            if let (Some((base, base_power)), Some(cur)) =
                (baseline.as_ref(), e.last_round_report())
            {
                let power_ok = (total_power(e) - base_power).abs()
                    <= RECOVERY_TOLERANCE * base_power + POWER_SLACK_W;
                if power_ok && budgets_match(base, cur, &pairs) {
                    recovered_at = Some(t);
                }
            }
        }
    });

    if recovered_at.is_none() {
        tracker.record(
            seconds,
            InvariantKind::Recovery,
            format!(
                "budgets/power did not return to the pre-fault baseline within \
                 {} s of the last fault clearing",
                seconds.saturating_sub(last_end)
            ),
        );
    }

    let mut violations: Vec<String> = tracker
        .violations()
        .iter()
        .map(|v| format!("[t={} {:?}] {}", v.second, v.kind, v.detail))
        .collect();

    // Metrics cross-check: the exported counters must agree with what the
    // harness observed directly, or the observability layer itself is
    // broken.
    let snap = registry.snapshot();
    let steps = counter(&snap, names::SIM_STEPS_TOTAL);
    if steps != seconds {
        violations.push(format!(
            "[metrics] {} reported {steps} steps, expected {seconds}",
            names::SIM_STEPS_TOTAL
        ));
    }
    let counted_violations = counter(&snap, names::INVARIANT_VIOLATIONS_TOTAL);
    if counted_violations != tracker.violations().len() as u64 {
        violations.push(format!(
            "[metrics] {} reported {counted_violations} violations, tracker holds {}",
            names::INVARIANT_VIOLATIONS_TOTAL,
            tracker.violations().len()
        ));
    }

    RunResult {
        rig: name,
        seed,
        servers: servers.len(),
        episodes: plan.episodes().len(),
        faults_injected: engine.fault_layer().injected_total(),
        fault_events: counter(&snap, names::SIM_FAULT_EVENTS_TOTAL),
        violations,
        stale_server_seconds,
        recovery_s: recovered_at.map(|t| t.saturating_sub(last_end)),
    }
}

/// Reads one counter from a snapshot (0 when never registered).
fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|c| c.name == name)
        .map(|c| c.value)
        .unwrap_or(0)
}

fn fig2_rig() -> Rig {
    priority_rig(RigConfig::table2())
}

/// The small data center, loaded so that capping actually binds: fleet
/// utilization 0.75 against a contractual budget ~17 % below the
/// resulting demand (the default small() rig runs uncapped, which would
/// make the soak vacuous).
fn small_dc_rig() -> Rig {
    datacenter_rig(&DataCenterRigConfig {
        utilization: 0.75,
        contractual_per_phase: Watts::from_kilowatts(30.0),
        ..DataCenterRigConfig::small()
    })
}

fn render_json(seconds: u64, seeds: &[u64], runs: &[RunResult]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"chaos_soak\",");
    let _ = writeln!(out, "  \"seconds\": {seconds},");
    let seed_list: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
    let _ = writeln!(out, "  \"seeds\": [{}],", seed_list.join(", "));
    let total: usize = runs.iter().map(|r| r.violations.len()).sum();
    let _ = writeln!(out, "  \"violations_total\": {total},");
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let recovery = r
            .recovery_s
            .map(|s| s.to_string())
            .unwrap_or_else(|| "null".to_string());
        let violations: Vec<String> = r
            .violations
            .iter()
            .map(|v| format!("\"{}\"", v.replace('"', "'")))
            .collect();
        let _ = write!(
            out,
            "    {{\"rig\": \"{}\", \"seed\": {}, \"servers\": {}, \
             \"episodes\": {}, \"faults_injected\": {}, \"fault_events\": {}, \
             \"stale_server_seconds\": {}, \"recovery_s\": {}, \
             \"violations\": [{}]}}",
            r.rig,
            r.seed,
            r.servers,
            r.episodes,
            r.faults_injected,
            r.fault_events,
            r.stale_server_seconds,
            recovery,
            violations.join(", ")
        );
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");

    // Recovery-time histogram in control-round (8 s) buckets.
    let times: Vec<u64> = runs.iter().filter_map(|r| r.recovery_s).collect();
    let buckets = times.iter().map(|t| t / 8).max().map(|b| b + 1).unwrap_or(0);
    out.push_str("  \"recovery_histogram\": {");
    for b in 0..buckets {
        let count = times.iter().filter(|&&t| t / 8 == b).count();
        let _ = write!(out, "\"{}-{} s\": {}", b * 8, (b + 1) * 8, count);
        if b + 1 < buckets {
            out.push_str(", ");
        }
    }
    out.push_str("}\n}\n");
    out
}

fn main() {
    let args = Args::capture();
    let seconds: u64 = args.get("seconds", 4000);
    let first_seed: u64 = args.get("seed", 1);
    let seed_count: u64 = args.get("seeds", 3);
    let out_path: String = args.get("out", "BENCH_chaos.json".to_string());
    let seeds: Vec<u64> = (first_seed..first_seed + seed_count.max(1)).collect();

    banner(
        "Chaos soak",
        "seeded telemetry faults vs fail-safe degradation, invariant-checked",
    );
    println!(
        "{} simulated seconds per run, seeds {:?}, rigs: fig2 + small datacenter\n",
        seconds, seeds
    );

    let mut runs = Vec::new();
    for &seed in &seeds {
        runs.push(run_one("fig2", fig2_rig(), seconds, seed));
        runs.push(run_one("small_dc", small_dc_rig(), seconds, seed));
    }

    let mut table = Table::new(vec![
        "Rig",
        "Seed",
        "Servers",
        "Episodes",
        "Faults",
        "Stale srv·s",
        "Recovery (s)",
        "Violations",
    ]);
    for r in &runs {
        table.row(vec![
            r.rig.to_string(),
            r.seed.to_string(),
            r.servers.to_string(),
            r.episodes.to_string(),
            r.faults_injected.to_string(),
            r.stale_server_seconds.to_string(),
            r.recovery_s
                .map(|s| s.to_string())
                .unwrap_or_else(|| "—".to_string()),
            r.violations.len().to_string(),
        ]);
    }
    print!("{}", table.render());
    println!();

    let json = render_json(seconds, &seeds, &runs);
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }

    let total: usize = runs.iter().map(|r| r.violations.len()).sum();
    if total > 0 {
        eprintln!("\n{total} invariant violation(s):");
        for r in &runs {
            for v in &r.violations {
                eprintln!("  {}/{}: {}", r.rig, r.seed, v);
            }
        }
        std::process::exit(1);
    }
    println!("all invariants held across {} runs.", runs.len());
}
