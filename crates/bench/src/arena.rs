//! Policy arena: race the budget-split allocators on identical seeded
//! scenarios.
//!
//! Every [`AllocatorKind`] (the paper's §4.3.2 waterfall, the projected
//! waterfilling solver, the FastCap-style fair-share solver) runs the
//! same seeded scenario schedule — a diurnal demand curve, a flash
//! crowd, and a feed failure mid-storm — and is scored on four metrics:
//!
//! - **throughput**: mean served fraction `Σ min(power, demand) / Σ demand`;
//! - **Jain's fairness index** over per-server mean served fractions;
//! - **stranded watts**: mean budget left unused while demand goes unmet;
//! - **convergence**: seconds after the headline disturbance until the
//!   fleet's power last exceeded the contractual budget envelope.

#![deny(clippy::missing_docs_in_private_items)]

use std::collections::HashMap;

use capmaestro_core::alloc::AllocatorKind;
use capmaestro_sim::engine::{Engine, Event};
use capmaestro_sim::scenarios::{priority_rig, stranded_rig, RigConfig};
use capmaestro_topology::ServerId;
use capmaestro_units::Watts;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Seconds ignored at the start of every run before metrics accumulate
/// (controller warm-up; all policies get the same grace).
const WARMUP_S: u64 = 24;

/// Fractional tolerance above the contractual budget that still counts
/// as "converged" (plus [`BUDGET_SLACK_W`] absolute).
const CONVERGENCE_TOL: f64 = 0.02;

/// Absolute slack on the budget envelope, in watts.
const BUDGET_SLACK_W: f64 = 5.0;

/// Unmet demand below this many watts does not count as starvation when
/// attributing stranded budget.
const UNMET_FLOOR_W: f64 = 5.0;

/// The arena's scenarios: `diurnal` and `flash_crowd` drive the Fig. 2
/// single-feed priority rig (1240 W budget), `feed_fail_storm` the Fig. 7a
/// dual-feed stranded-power rig (2 × 700 W).
pub const SCENARIOS: [&str; 3] = ["diurnal", "flash_crowd", "feed_fail_storm"];

/// One (scenario, policy, seed) outcome.
#[derive(Debug, Clone)]
pub struct ArenaRun {
    /// Scenario name, from [`SCENARIOS`].
    pub scenario: &'static str,
    /// Allocator under test.
    pub policy: AllocatorKind,
    /// Schedule seed.
    pub seed: u64,
    /// Simulated seconds.
    pub seconds: u64,
    /// Mean served fraction of demand, `[0, 1]`.
    pub throughput: f64,
    /// Jain's fairness index over per-server mean served fractions.
    pub jain: f64,
    /// Mean watts of budget left unused while at least 5 W of demand
    /// went unserved.
    pub stranded_w: f64,
    /// Seconds after the disturbance until fleet power last sat above
    /// the budget envelope (0 = never exceeded it).
    pub convergence_s: u64,
    /// Sanity-check failures (non-finite or out-of-range metrics).
    pub violations: Vec<String>,
}

/// Races every allocator on every scenario for each seed, `seconds`
/// simulated seconds per run, in scenario → policy → seed order.
pub fn policy_arena(seconds: u64, seeds: &[u64]) -> Vec<ArenaRun> {
    let mut runs = Vec::new();
    for scenario in SCENARIOS {
        for policy in AllocatorKind::ALL {
            for &seed in seeds {
                runs.push(run_one(scenario, policy, seed, seconds));
            }
        }
    }
    runs
}

/// Builds the scenario's engine for one (policy, seed): same schedule
/// for every policy, differing only in the allocator raced by the plane.
/// Returns the engine and the second the headline disturbance lands at.
fn build(scenario: &str, policy: AllocatorKind, seed: u64, seconds: u64) -> (Engine, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E3779B97F4A7C15);
    if scenario == "feed_fail_storm" {
        // Feed failure mid-storm: demands surge, then one of the two
        // feeds dies while every server still wants its storm demand,
        // collapsing the contractual envelope to the survivor. The
        // outage window is bounded — the survivors' cap_min floors
        // exceed the collapsed budget, so until the feed returns no
        // policy can reach the envelope and convergence measures
        // outage plus recovery speed, not run length.
        let rig = stranded_rig(RigConfig::table3().with_allocator(policy));
        let servers: Vec<ServerId> = rig.farm.iter().map(|(id, _)| id).collect();
        let feeds: Vec<_> = rig.topology.feeds().iter().map(|g| g.feed()).collect();
        let mut engine = Engine::new(rig);
        let storm_at = seconds / 4;
        let fail_at = storm_at + 12;
        for &id in &servers {
            let storm = 450.0 + rng.random::<f64>() * 40.0;
            engine.schedule(storm_at, Event::SetDemand(id, Watts::new(storm)));
        }
        let failed = feeds[feeds.len() - 1];
        engine.schedule(fail_at, Event::FailFeed(failed));
        engine.schedule(fail_at + 48, Event::RestoreFeed(failed));
        return (engine, fail_at);
    }
    let rig = priority_rig(RigConfig::table2().with_allocator(policy));
    let servers: Vec<ServerId> = rig.farm.iter().map(|(id, _)| id).collect();
    let mut engine = Engine::new(rig);
    if scenario == "diurnal" {
        // Per-server offset sinusoids around a feasible mean; the crest
        // pushes total demand past the 1240 W budget, so capping binds
        // for part of every cycle.
        let period = (seconds / 2).max(60) as f64;
        let budget = 1240.0;
        let specs: Vec<(f64, f64, f64)> = servers
            .iter()
            .map(|_| {
                let mid = 280.0 + rng.random::<f64>() * 30.0;
                let amp = 90.0 + rng.random::<f64>() * 60.0;
                let phase = rng.random::<f64>() * period;
                (mid, amp, phase)
            })
            .collect();
        let mut disturb = seconds / 2;
        let mut found = false;
        let mut t = 8;
        while t < seconds {
            let mut total = 0.0;
            for (&id, &(mid, amp, phase)) in servers.iter().zip(&specs) {
                let angle = (t as f64 + phase) / period * std::f64::consts::TAU;
                let demand = (mid + amp * angle.sin()).clamp(180.0, 490.0);
                total += demand;
                engine.schedule(t, Event::SetDemand(id, Watts::new(demand)));
            }
            if !found && total > budget {
                disturb = t;
                found = true;
            }
            t += 16;
        }
        return (engine, disturb);
    }
    // Flash crowd: a calm fleet spikes to near cap_max in one second,
    // holds, then subsides.
    let spike_at = seconds / 3;
    let spike_len = (seconds / 5).max(40);
    for &id in &servers {
        let calm = 270.0 + rng.random::<f64>() * 40.0;
        let crowd = 455.0 + rng.random::<f64>() * 35.0;
        let after = 290.0 + rng.random::<f64>() * 30.0;
        engine.schedule(1, Event::SetDemand(id, Watts::new(calm)));
        engine.schedule(spike_at, Event::SetDemand(id, Watts::new(crowd)));
        engine.schedule(
            spike_at + spike_len,
            Event::SetDemand(id, Watts::new(after)),
        );
    }
    (engine, spike_at)
}

/// Runs one (scenario, policy, seed) race and scores it.
fn run_one(scenario: &'static str, policy: AllocatorKind, seed: u64, seconds: u64) -> ArenaRun {
    let (mut engine, disturb_s) = build(scenario, policy, seed, seconds);

    // Per-server served-fraction accumulators and fleet-level series.
    let mut per_server: HashMap<ServerId, (f64, u64)> = HashMap::new();
    let mut throughput_sum = 0.0;
    let mut throughput_n: u64 = 0;
    let mut stranded_sum = 0.0;
    let mut stranded_n: u64 = 0;
    let mut last_over: Option<u64> = None;

    engine.run_observed(seconds, |e| {
        let t = e.now_s();
        let budget: f64 = e
            .plane()
            .root_budgets_now()
            .iter()
            .map(|b| b.as_f64())
            .sum();
        let mut served = 0.0;
        let mut demand_total = 0.0;
        let mut power_total = 0.0;
        for (id, s) in e.farm().iter() {
            let demand = s.offered_demand().as_f64();
            let power = s.sense().total_ac.as_f64();
            power_total += power;
            if demand <= 0.0 {
                continue;
            }
            let ratio = (power.min(demand) / demand).clamp(0.0, 1.0);
            served += power.min(demand);
            demand_total += demand;
            if t > WARMUP_S {
                let entry = per_server.entry(id).or_insert((0.0, 0));
                entry.0 += ratio;
                entry.1 += 1;
            }
        }
        if t > WARMUP_S && demand_total > 0.0 {
            throughput_sum += served / demand_total;
            throughput_n += 1;
            let unmet = demand_total - served;
            if unmet > UNMET_FLOOR_W {
                stranded_sum += (budget - power_total).max(0.0);
                stranded_n += 1;
            }
        }
        if t >= disturb_s && power_total > budget * (1.0 + CONVERGENCE_TOL) + BUDGET_SLACK_W {
            last_over = Some(t);
        }
    });

    let throughput = if throughput_n > 0 {
        throughput_sum / throughput_n as f64
    } else {
        1.0
    };
    let ratios: Vec<f64> = per_server
        .values()
        .map(|&(sum, n)| if n > 0 { sum / n as f64 } else { 0.0 })
        .collect();
    let jain = jain_index(&ratios);
    let stranded_w = if stranded_n > 0 {
        stranded_sum / stranded_n as f64
    } else {
        0.0
    };
    let convergence_s = last_over.map(|t| t + 1 - disturb_s).unwrap_or(0);

    let mut violations = Vec::new();
    if !throughput.is_finite() || !(0.0..=1.0 + 1e-9).contains(&throughput) {
        violations.push(format!("throughput out of range: {throughput}"));
    }
    if !jain.is_finite() || !(0.0..=1.0 + 1e-9).contains(&jain) {
        violations.push(format!("jain index out of range: {jain}"));
    }
    if !stranded_w.is_finite() || stranded_w < 0.0 {
        violations.push(format!("stranded watts out of range: {stranded_w}"));
    }
    if convergence_s > seconds {
        violations.push(format!("convergence {convergence_s} s exceeds the run"));
    }

    ArenaRun {
        scenario,
        policy,
        seed,
        seconds,
        throughput,
        jain,
        stranded_w,
        convergence_s,
        violations,
    }
}

/// Jain's fairness index `(Σx)² / (n · Σx²)`; 1.0 for an empty or
/// all-zero population (nothing to be unfair about).
fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if n == 0.0 || sq <= 0.0 {
        1.0
    } else {
        (sum * sum) / (n * sq)
    }
}
