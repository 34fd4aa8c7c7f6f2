//! The three engine workloads — `fleet_steady`, `fleet_churn`,
//! `operator_storm` — are one loop over one daemon assembly
//! ([`seam::assemble_engine`]), differing in rig, demand regime and
//! whether an operator is there. The measured window is a whole number
//! of fixed simulated cycles, closed by the first cycle end after
//! `--seconds` of wall time: every commit runs identical cycles, a
//! faster one runs more of them.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::catalog as cat;
use crate::client::{self, Plan};
use crate::digest::{self, Checkpoint, Digest};
use crate::host;
use crate::layers;
use crate::results::{Threads, WorkloadResult};
use crate::seam::{self, EngineDaemon, EngineRig, Invariants};
use crate::spans::Spans;
use crate::stats::{self, mix};
use crate::Ctx;

/// HTTP worker threads of the storm's daemon, the product's default.
const HTTP_WORKERS: usize = 2;

/// The storm operator's open-loop rate.
const STORM_RATE_HZ: f64 = 100.0;

/// Simulated seconds stepped before the window opens: node managers
/// settle, estimator windows fill, the first rounds land.
const WARMUP_S: u64 = 64;

/// Simulated seconds per cycle: the digest is checkpointed, a rate
/// sample is taken and the window may close at every cycle end.
const CYCLE_S: u64 = 64;

/// `Engine::reset_trace` cadence. The in-engine `Trace` grows ≈1.4 MB
/// per simulated second at 25 272 servers and nothing in serving mode
/// reads it; the daemon's own 3 600-step cadence would hold ≈5 GB.
const RESET_TRACE_EVERY_S: u64 = 256;

/// Set-ups timed per untraced run; `setup_s` is their median. At least
/// [`SETUP_REPEATS_MIN`]; a cheap set-up (a fifth of a second for the
/// Table 4 centre) is repeated until [`SETUP_BUDGET_S`] is spent or
/// [`SETUP_REPEATS_MAX`] is reached, so its median is as steady as an
/// expensive one's.
pub const SETUP_REPEATS_MIN: usize = 3;
pub const SETUP_REPEATS_MAX: usize = 15;
pub const SETUP_BUDGET_S: f64 = 3.0;

/// Whether another timed set-up should run.
pub fn setup_again(setups: &[f64]) -> bool {
    setups.len() < SETUP_REPEATS_MIN
        || (setups.len() < SETUP_REPEATS_MAX && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
}

/// Share of servers whose demand changes at each period boundary of
/// the churn workload, as one in `CHURN_ONE_IN`.
const CHURN_ONE_IN: u64 = 5;

/// Offsets into each churn cycle at which feed B fails and returns: two
/// of the cycle's eight rounds run on one feed.
const FEED_FAIL_AT: u64 = 24;
const FEED_RESTORE_AT: u64 = 40;

pub struct Spec {
    pub name: &'static str,
    rig: EngineRig,
    /// The seeded online demand feed and the feed loss.
    churn: bool,
    /// The operator plane and its open-loop operator.
    storm: bool,
}

pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let fleet = |utilization| {
        if smoke {
            EngineRig::Small { utilization }
        } else {
            EngineRig::Fleet { utilization }
        }
    };
    match name {
        cat::FLEET_STEADY => Some(Spec {
            name: cat::FLEET_STEADY,
            // Fig. 8 mode: nothing throttled.
            rig: fleet(0.30),
            churn: false,
            storm: false,
        }),
        cat::FLEET_CHURN => Some(Spec {
            name: cat::FLEET_CHURN,
            rig: fleet(0.90),
            churn: true,
            storm: false,
        }),
        cat::OPERATOR_STORM => Some(Spec {
            name: cat::OPERATOR_STORM,
            rig: if smoke {
                EngineRig::Small { utilization: 0.90 }
            } else {
                EngineRig::Table4
            },
            churn: false,
            storm: true,
        }),
        _ => None,
    }
}

/// The seeded online feed of the churn workload: which events are
/// pushed with `Engine::schedule` during the second before a boundary.
struct Feed {
    churn: bool,
    seed: u64,
    /// First simulated second of the measured window; cycles count
    /// from here.
    origin_s: u64,
    /// Whether the last feed event scheduled took feed B down.
    feed_b_down: bool,
}

impl Feed {
    /// Schedules whatever is due at the boundary the next step reaches.
    /// Returns how many events were pushed.
    fn before_second(&mut self, daemon: &mut EngineDaemon) -> u64 {
        let boundary = daemon.now_s() + 1;
        if !self.churn || !boundary.is_multiple_of(daemon.control_period_s()) {
            return 0;
        }
        let mut pushed = 0;
        let round_key = mix(self.seed ^ mix(boundary));
        for slot in 0..daemon.servers() {
            let word = mix(round_key ^ (slot as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            if word.is_multiple_of(CHURN_ONE_IN) {
                // Whole watts in 250..=490, exactly representable.
                let watts = 250.0 + ((word >> 8) % 241) as f64;
                daemon.schedule_demand(boundary, slot, watts);
                pushed += 1;
            }
        }
        if boundary >= self.origin_s {
            let fail = match (boundary - self.origin_s) % CYCLE_S {
                FEED_FAIL_AT => Some(true),
                FEED_RESTORE_AT => Some(false),
                _ => None,
            };
            if let Some(fail) = fail {
                daemon.schedule_feed_b(boundary, fail);
                self.feed_b_down = fail;
                pushed += 1;
            }
        }
        pushed
    }
}

/// A daemon that is warmed up and ready for its window.
struct Ready {
    daemon: EngineDaemon,
    /// The storm's oplog file.
    oplog: Option<PathBuf>,
    feed: Feed,
    steps: u64,
    /// Rounds that broke conservation or the supply census.
    bad_rounds: u64,
    failures: Vec<String>,
}

impl Ready {
    fn teardown(self) {
        self.daemon.shutdown();
        if let Some(oplog) = &self.oplog {
            let _ = std::fs::remove_file(oplog);
        }
    }

    /// The reset cadence shared by warm-up and window.
    fn after_second(&mut self, spans: Option<&mut Spans>) {
        self.steps += 1;
        if !self.steps.is_multiple_of(RESET_TRACE_EVERY_S) {
            return;
        }
        match spans {
            Some(spans) => {
                let id = spans.open("sim.engine.reset_trace");
                self.daemon.reset_trace();
                let _ = spans.close(id);
            }
            None => self.daemon.reset_trace(),
        }
    }

    /// What a fleet round must leave behind: budgets conserved down every
    /// tree, every server lit, and every supply working that the feed
    /// schedule has not taken away — a breaker trip or a lost server
    /// shows as a dead supply or a dark server.
    fn check_fleet_round(&mut self) {
        let mut wrong = Vec::new();
        if let Err(why) = self.daemon.check_conservation() {
            wrong.push(why);
        }
        let servers = self.daemon.servers();
        let supplies_each = if self.feed.feed_b_down { 1 } else { 2 };
        let (dark, supplies) = self.daemon.supply_census();
        if dark != 0 || supplies != servers * supplies_each {
            wrong.push(format!(
                "t={}: {dark} dark servers, {supplies} working supplies of {} (breaker trip or lost server)",
                self.daemon.now_s(),
                servers * supplies_each
            ));
        }
        if !wrong.is_empty() {
            self.bad_rounds += 1;
            let room = 8usize.saturating_sub(self.failures.len());
            self.failures.extend(wrong.into_iter().take(room));
        }
    }
}

fn setup(spec: &Spec, ctx: &Ctx, tag: &str) -> Result<Ready, String> {
    let rig = seam::engine_rig(spec.rig, ctx.seed);
    let oplog = if spec.storm {
        Some(ctx.tmp_file(&format!("{}-{tag}.oplog", spec.name))?)
    } else {
        None
    };
    let daemon = seam::assemble_engine(rig, oplog.as_deref().map(|path| (path, HTTP_WORKERS)))?;
    let mut ready = Ready {
        daemon,
        oplog,
        feed: Feed {
            churn: spec.churn,
            seed: ctx.seed,
            origin_s: WARMUP_S,
            feed_b_down: false,
        },
        steps: 0,
        bad_rounds: 0,
        failures: Vec::new(),
    };
    for _ in 0..WARMUP_S {
        ready.feed.before_second(&mut ready.daemon);
        let round_ran = ready.daemon.drive_second();
        if round_ran && !spec.storm {
            ready.check_fleet_round();
        }
        ready.after_second(None);
    }
    Ok(ready)
}

/// What one measured window produced.
struct Pass {
    sim_s: u64,
    /// Wall time of each loop iteration that fired a control round, ms.
    round_ms: Vec<f64>,
    /// `(applied_seq, returned_at)` per control boundary.
    boundaries: Vec<(u64, Instant)>,
    checkpoints: Vec<Checkpoint>,
    /// Wall time of every loop iteration — feed, `drive_second`, digest
    /// fold, checks, trace reset — observer time taken out.
    second_s: Vec<f64>,
    /// Priority inversions the tracker had counted at each checkpoint.
    inversions: Vec<u64>,
    events: u64,
    operator: client::Report,
    /// Where the operator spilled the bodies it scraped.
    spill: Option<PathBuf>,
}

/// Tracing state of the traced pass.
struct Tracing {
    spans: Spans,
    invariants: Invariants,
}

/// Starts the storm's operator against `daemon`.
fn start_operator(
    spec: &Spec,
    ctx: &Ctx,
    daemon: &EngineDaemon,
    stop: &Arc<AtomicBool>,
) -> Result<(std::thread::JoinHandle<client::Report>, PathBuf), String> {
    let addr = daemon.addr().ok_or("the storm's daemon has no listener")?;
    let spill = ctx.tmp_file(&format!("{}.scraped", spec.name))?;
    // Arenas are level-ordered: the second half of the group nodes is
    // the rack (CDU) level, 9–39 servers per group.
    let rack_groups = daemon
        .group_nodes()
        .into_iter()
        .map(|groups| (groups / 2, groups))
        .collect();
    let plan = Plan {
        addr,
        rate_hz: STORM_RATE_HZ,
        seed: ctx.seed,
        initial_budgets: daemon.root_budgets_now(),
        rack_groups,
        server_ids: daemon.server_ids(),
        spill: spill.clone(),
    };
    Ok((client::spawn(plan, stop.clone())?, spill))
}

fn measure(
    spec: &Spec,
    ctx: &Ctx,
    ready: &mut Ready,
    seconds: f64,
    mut tracing: Option<&mut Tracing>,
) -> Result<Pass, String> {
    let mut pass = Pass {
        sim_s: 0,
        round_ms: Vec::new(),
        boundaries: Vec::new(),
        checkpoints: Vec::new(),
        second_s: Vec::new(),
        inversions: Vec::new(),
        events: 0,
        operator: client::Report::default(),
        spill: None,
    };
    let mut digest = Digest::default();
    let stop = Arc::new(AtomicBool::new(false));
    let operator = if spec.storm {
        Some(start_operator(spec, ctx, &ready.daemon, &stop)?)
    } else {
        None
    };

    let start = Instant::now();
    loop {
        for _ in 0..CYCLE_S {
            let iteration = Instant::now();
            let mut observed = 0.0;
            let round_ran = second(ready, &mut pass, tracing.as_deref_mut());
            if round_ran {
                ready.daemon.fold_round(&mut digest);
                if !spec.storm {
                    ready.check_fleet_round();
                }
                pass.boundaries
                    .push((ready.daemon.applied_seq(), Instant::now()));
            }
            if ready.daemon.at_boundary() {
                // The next step is a boundary: the caps of the last
                // round have had their whole period to settle.
                if let Some(tracing) = tracing.as_deref_mut() {
                    let id = tracing.spans.open("bench.observe");
                    tracing.invariants.observe(&ready.daemon);
                    observed = tracing.spans.close(id);
                }
            }
            ready.after_second(tracing.as_deref_mut().map(|t| &mut t.spans));
            pass.second_s
                .push(iteration.elapsed().as_secs_f64() - observed);
        }
        pass.sim_s += CYCLE_S;
        ready.daemon.fold_power(&mut digest);
        pass.checkpoints
            .push((ready.daemon.now_s(), digest.value()));
        if let Some(tracing) = tracing.as_deref() {
            pass.inversions.push(tracing.invariants.inversions());
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    stop.store(true, Ordering::SeqCst);
    if let Some((handle, spill)) = operator {
        pass.operator = handle
            .join()
            .map_err(|_| "the operator thread panicked".to_string())?;
        pass.spill = Some(spill);
        // Drain: writes acknowledged in the last period land at the
        // next boundary, outside the window.
        for _ in 0..2 * ready.daemon.control_period_s() {
            if ready.daemon.applied_seq() == ready.daemon.oplog_head() {
                break;
            }
            if ready.daemon.drive_second() {
                pass.boundaries
                    .push((ready.daemon.applied_seq(), Instant::now()));
            }
            ready.after_second(None);
        }
    }
    Ok(pass)
}

/// One simulated second: the feed, then `drive_second` — as one call
/// when untraced, as its three calls under spans when traced.
fn second(ready: &mut Ready, pass: &mut Pass, tracing: Option<&mut Tracing>) -> bool {
    let Some(tracing) = tracing else {
        pass.events += ready.feed.before_second(&mut ready.daemon);
        let t = Instant::now();
        let round_ran = ready.daemon.drive_second();
        if round_ran {
            pass.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        return round_ran;
    };
    let spans = &mut tracing.spans;
    let iteration = spans.open("bench.second");
    let feed = spans.open("sim.engine.schedule");
    pass.events += ready.feed.before_second(&mut ready.daemon);
    let _ = spans.close(feed);

    let t = Instant::now();
    let boundary = ready.daemon.at_boundary();
    if boundary {
        let id = spans.open("serve.state.reconcile");
        ready.daemon.reconcile();
        let _ = spans.close(id);
    }
    let id = spans.open(if boundary {
        "sim.engine.step_boundary"
    } else {
        "sim.engine.step"
    });
    ready.daemon.step();
    let _ = spans.close(id);
    let id = spans.open(if boundary {
        "serve.state.publish_round"
    } else {
        "serve.state.publish"
    });
    ready.daemon.publish(boundary);
    let _ = spans.close(id);
    if boundary {
        pass.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let _ = spans.close(iteration);
    boundary
}

fn new_result(spec: &Spec, ctx: &Ctx, traced: bool) -> WorkloadResult {
    let threads = if spec.storm {
        Threads {
            generator: 1,
            http_workers: HTTP_WORKERS,
            agents: 0,
        }
    } else {
        Threads::default()
    };
    WorkloadResult::new(spec.name, traced, ctx, threads)
}

/// Checks shared by both modes once a window has closed.
fn check_pass(spec: &Spec, ctx: &Ctx, ready: &Ready, pass: &Pass, result: &mut WorkloadResult) {
    result.sim_seconds = pass.sim_s;
    result.attempted = pass.round_ms.len() as u64 + pass.operator.samples.len() as u64;
    result.failed = ready.bad_rounds + pass.operator.failed;
    result.failures.extend(ready.failures.iter().cloned());
    if spec.storm {
        check_operator_plane(ready, pass, result);
    } else {
        // The storm's writes land at wall-clock-dependent boundaries, so
        // it has no seed-pure digest; the fleet workloads do.
        result.checkpoints = pass.checkpoints.clone();
        result.inversions = pass.inversions.clone();
        result.check_expected(ctx);
    }
}

/// What the storm's daemon must have done with what the operator sent.
fn check_operator_plane(ready: &Ready, pass: &Pass, result: &mut WorkloadResult) {
    let daemon = &ready.daemon;
    result.failures.extend(
        pass.operator
            .failures
            .iter()
            .map(|f| format!("operator: {f}")),
    );
    if daemon.applied_seq() != daemon.oplog_head() {
        result.failures.push(format!(
            "applied_seq {} != oplog_head {} after drain",
            daemon.applied_seq(),
            daemon.oplog_head()
        ));
    }
    match daemon
        .addr()
        .ok_or_else(|| "no listener".to_string())
        .and_then(|addr| client::check_events(addr, &pass.operator))
    {
        Ok(head) if head == daemon.oplog_head() => {}
        Ok(head) => result.failures.push(format!(
            "/v1/events head {head} != oplog head {}",
            daemon.oplog_head()
        )),
        Err(why) => result.failures.push(format!("/v1/events: {why}")),
    }
    if let Some(oplog) = &ready.oplog {
        if let Err(why) = daemon.check_oplog_replay(oplog) {
            result.failures.push(why);
        }
    }
    let live = daemon.root_budgets_now();
    for (&tree, &declared) in &pass.operator.declared {
        if live.get(tree as usize).map(|w| w.to_bits()) != Some(declared.to_bits()) {
            result.failures.push(format!(
                "tree {tree}: declared {declared} W, plane resolves {:?}",
                live.get(tree as usize)
            ));
        }
    }
    if pass.operator.replays == 0 && pass.operator.samples.len() > 100 {
        result
            .failures
            .push("the storm never replayed a key".to_string());
    }
    if let Some(spill) = &pass.spill {
        let from = Instant::now();
        match client::validate_scraped(spill) {
            Ok(scraped) => {
                println!(
                    "scraped bodies: {} through the product's validators, {} large reports shape-checked, in {:.2} s",
                    scraped.validated,
                    scraped.shape_checked,
                    from.elapsed().as_secs_f64()
                );
                result.failed += scraped.failures.len() as u64;
                result.failures.extend(scraped.failures.into_iter().take(8));
            }
            Err(why) => result.failures.push(why),
        }
        let _ = std::fs::remove_file(spill);
    }
}

/// Simulated seconds per wall second of the window's typical cycle.
fn sim_rate(pass: &Pass) -> f64 {
    CYCLE_S as f64 / stats::typical_cycle(&pass.second_s, CYCLE_S as usize)
}

pub fn run_untraced(spec: &Spec, ctx: &Ctx) -> Result<WorkloadResult, String> {
    let mut result = new_result(spec, ctx, false);
    // The measured daemon is the first one this process builds, timed
    // from process start; the further set-ups behind `setup_s`'s median
    // run after its teardown.
    let mut ready = setup(spec, ctx, "setup0")?;
    let mut setups = vec![ctx.process_start.elapsed().as_secs_f64()];
    let pass = measure(spec, ctx, &mut ready, ctx.seconds as f64, None)?;
    // The daemon's peak, read before the benchmark's own checks (and the
    // further set-ups) could lift it.
    result.set(cat::PEAK_RSS_MB, host::peak_rss_mb(), 1);
    check_pass(spec, ctx, &ready, &pass, &mut result);

    result.set(cat::SIM_S_PER_WALL_S, sim_rate(&pass), pass.sim_s);
    result.set(
        cat::ROUND_MS_P50,
        stats::median(&pass.round_ms),
        pass.round_ms.len() as u64,
    );
    println!("{}", stats::tail_line("round_ms", &pass.round_ms));
    if spec.storm {
        pass.operator.print_latencies(&pass.boundaries);
    }
    ready.teardown();
    while setup_again(&setups) {
        let from = Instant::now();
        let again = setup(spec, ctx, &format!("setup{}", setups.len()))?;
        setups.push(from.elapsed().as_secs_f64());
        again.teardown();
    }
    result.set(cat::SETUP_S, stats::median(&setups), setups.len() as u64);

    Ok(result)
}

pub fn run_traced(spec: &Spec, ctx: &Ctx) -> Result<WorkloadResult, String> {
    let mut result = new_result(spec, ctx, true);
    let half = ctx.seconds as f64 / 2.0;

    // Reference pass: the same seeded schedule, untraced, in this
    // process — what the traced checkpoints and rate are held against.
    let mut reference = setup(spec, ctx, "reference")?;
    let reference_pass = measure(spec, ctx, &mut reference, half, None)?;
    result.failures.extend(reference.failures.iter().cloned());
    if let Some(spill) = &reference_pass.spill {
        let _ = std::fs::remove_file(spill);
    }
    reference.teardown();

    let mut ready = setup(spec, ctx, "traced")?;
    let mut tracing = Tracing {
        spans: Spans::default(),
        invariants: Invariants::per_period(ready.daemon.control_period_s()),
    };
    let before = ready.daemon.metrics();
    let allocs_before = host::arm_alloc_counter();
    let pass = measure(spec, ctx, &mut ready, half, Some(&mut tracing))?;
    let allocs = host::disarm_alloc_counter() - allocs_before;
    let after = ready.daemon.metrics();
    check_pass(spec, ctx, &ready, &pass, &mut result);

    let compared = if spec.storm {
        0
    } else {
        match digest::compare_prefix(&pass.checkpoints, &reference_pass.checkpoints) {
            Ok(n) => n,
            Err(why) => {
                result
                    .failures
                    .push(format!("traced digest differs from untraced: {why}"));
                0
            }
        }
    };
    // Drains and priority bands are the storm's own doing. On the fleet
    // every safety invariant must hold; priority inversions, which churn
    // produces by construction (see `Invariants::violations`), are the
    // counted exception: `check_expected` fails the blessed seed on any
    // count above what was blessed, and only a rig without churn is
    // held to zero.
    let (safety, inversions) = tracing.invariants.violations();
    let mut held_against: Vec<&String> = Vec::new();
    if !spec.storm {
        held_against.extend(&safety);
        if !spec.churn {
            held_against.extend(&inversions);
        }
    }
    result.failures.extend(
        held_against
            .iter()
            .take(8)
            .map(|v| format!("invariant: {v}")),
    );
    result.failed += held_against.len() as u64;

    let overhead = sim_rate(&pass) / sim_rate(&reference_pass);

    let summary = tracing.spans.summary();
    let span = |name: &str| {
        summary
            .get(name)
            .map_or((0.0, 0), |s| (s.total_ns as f64 * 1e-9, s.count))
    };
    let mean = |(sum, count): (f64, u64), scale: f64| {
        if count == 0 {
            0.0
        } else {
            sum / count as f64 * scale
        }
    };
    let delta = |a: seam::SumCount, b: seam::SumCount| (b.0 - a.0, b.1 - a.1);

    let steps = {
        let (a, b) = (span("sim.engine.step"), span("sim.engine.step_boundary"));
        (a.0 + b.0, a.1 + b.1)
    };
    let sim_step = delta(before.sim_step(), after.sim_step());
    let phases: Vec<seam::SumCount> = before
        .round_phases()
        .into_iter()
        .zip(after.round_phases())
        .map(|(a, b)| delta(a, b))
        .collect();
    let phase_sum: f64 = phases.iter().map(|p| p.0).sum();

    result.set(
        "serve.state.reconcile_us",
        mean(span("serve.state.reconcile"), 1e6),
        span("serve.state.reconcile").1,
    );
    result.set(
        "serve.state.publish_us",
        mean(span("serve.state.publish"), 1e6),
        span("serve.state.publish").1,
    );
    result.set(
        "serve.state.publish_round_us",
        mean(span("serve.state.publish_round"), 1e6),
        span("serve.state.publish_round").1,
    );
    result.set(
        "serve.state.reconcile_actions",
        (after.reconcile_actions() - before.reconcile_actions()) as f64,
        1,
    );
    result.set("sim.engine.step_ms", mean(steps, 1e3), steps.1);
    result.set(
        "sim.engine.flush_share",
        if steps.0 > 0.0 {
            1.0 - sim_step.0 / steps.0
        } else {
            0.0
        },
        steps.1.min(sim_step.1),
    );
    result.set(
        "sim.engine.physics_ms",
        mean((sim_step.0 - phase_sum, sim_step.1), 1e3),
        sim_step.1,
    );
    if spec.churn {
        result.set(
            "sim.engine.schedule_us_per_event",
            span("sim.engine.schedule").0 / pass.events.max(1) as f64 * 1e6,
            pass.events,
        );
    }
    result.set("sim.engine.events", pass.events as f64, 1);
    result.set(
        "sim.engine.reset_trace_ms",
        mean(span("sim.engine.reset_trace"), 1e3),
        span("sim.engine.reset_trace").1,
    );
    let boundary_ms = stats::sorted(&tracing.spans.durations_ms("sim.engine.step_boundary"));
    result.set(
        "sim.engine.boundary_ms_p90",
        stats::percentile(&boundary_ms, 0.90),
        boundary_ms.len() as u64,
    );
    for (name, phase) in [
        "core.plane.sense_ms",
        "core.plane.estimate_ms",
        "core.plane.gather_ms",
        "core.plane.allocate_ms",
        "core.plane.spo_ms",
        "core.plane.enforce_ms",
    ]
    .into_iter()
    .zip(&phases)
    {
        result.set(name, mean(*phase, 1e3), phase.1);
    }
    let (summarised, skipped) = {
        let (a, b) = (before.gather_nodes(), after.gather_nodes());
        (b.0 - a.0, b.1 - a.1)
    };
    result.set(
        "core.plane.gather_dirty_share",
        if summarised + skipped == 0 {
            0.0
        } else {
            summarised as f64 / (summarised + skipped) as f64
        },
        summarised + skipped,
    );
    result.set(
        "server.slab.throttled_share",
        ready.daemon.throttled_share(),
        ready.daemon.servers() as u64,
    );

    result.set("bench.trace_overhead_ratio", overhead, pass.sim_s);
    result.set(
        "bench.allocs_per_sim_s",
        allocs as f64 / pass.sim_s.max(1) as f64,
        pass.sim_s,
    );
    result.set(
        "bench.observe_ms",
        mean(span("bench.observe"), 1e3),
        span("bench.observe").1,
    );
    let loop_self = summary.get("bench.second").map_or(0.0, |s| {
        if s.total_ns == 0 {
            0.0
        } else {
            s.self_ns as f64 / s.total_ns as f64
        }
    });
    result.set("bench.loop_self_share", loop_self, span("bench.second").1);
    result.set("bench.digest_checkpoints", compared as f64, 1);
    result.set("bench.sim_seconds", pass.sim_s as f64, 1);
    result.set("bench.invariant_violations", safety.len() as f64, 1);
    result.set("bench.priority_inversions", inversions.len() as f64, 1);

    if spec.storm {
        pass.operator.print_latencies(&pass.boundaries);
        pass.operator.set_layer_rows(&pass.boundaries, &mut result);
        result.set(
            "core.oplog.appends",
            (after.oplog_appends() - before.oplog_appends()) as f64,
            1,
        );
        // Last of all: these append to the live oplog.
        layers::operator_rows(ctx, &ready.daemon, &mut result)?;
    }
    layers::engine_rows(spec.rig, ctx, &ready.daemon, &mut result);

    if let Err(e) = tracing
        .spans
        .write(&ctx.results_file(&format!("{}.spans.txt", spec.name)))
    {
        eprintln!("could not write spans: {e}");
    }
    println!(
        "accounting: step+reconcile+publish {:.3} s = flush {:.3} + sense {:.3} + round phases {:.3} + physics {:.3} + reconcile {:.3} + publish {:.3}; loop self {:.1} %",
        steps.0 + span("serve.state.reconcile").0 + span("serve.state.publish").0 + span("serve.state.publish_round").0,
        steps.0 - sim_step.0,
        phases[0].0,
        phase_sum - phases[0].0,
        sim_step.0 - phase_sum,
        span("serve.state.reconcile").0,
        span("serve.state.publish").0 + span("serve.state.publish_round").0,
        loop_self * 100.0,
    );
    ready.teardown();
    Ok(result)
}
