//! `room_socket`: the second round loop. A room controller drives
//! `WorkerDeployment` over `SocketTransport` on loopback against two
//! in-thread agents (`run_agent`), the way `run_room` and
//! `capmaestro-agent` do. One loop iteration is one control round plus
//! one simulated second of agent-side world time. Nobody operates the
//! room: no listener, no oplog file, no engine — the layers the other
//! three workloads measure are bypassed here.

use std::time::Instant;

use crate::catalog as cat;
use crate::digest::{self, Checkpoint, Digest};
use crate::engine_workload::setup_again;
use crate::host;
use crate::layers::{self, ROOM_AGENTS};
use crate::results::{Threads, WorkloadResult};
use crate::seam::{self, RoomDaemon, RoomExit, RoomRig};
use crate::spans::Spans;
use crate::stats;
use crate::Ctx;

/// Rounds run before the window opens: agents' estimators fill and the
/// first budgets land.
const WARMUP_ROUNDS: u64 = 16;

/// Rounds per cycle: the digest is checkpointed, a rate sample is taken
/// and the window may close every this many rounds.
const CYCLE_ROUNDS: u64 = 64;

/// Rounds of the `ChannelTransport` comparison in the traced run.
const CHANNEL_ROUNDS: u64 = 200;

struct Ready {
    daemon: RoomDaemon,
    next_round: u64,
    failures: Vec<String>,
}

#[derive(Default)]
struct Pass {
    rounds: u64,
    round_ms: Vec<f64>,
    advance_ms: Vec<f64>,
    checkpoints: Vec<Checkpoint>,
    /// Wall time of every loop iteration.
    iteration_s: Vec<f64>,
    failsafe_cuts: u64,
    bad_rounds: u64,
}

fn setup(rig: RoomRig, ctx: &Ctx) -> Result<Ready, String> {
    let daemon = seam::assemble_room(rig, ROOM_AGENTS, ctx.seed)?;
    let mut ready = Ready {
        daemon,
        next_round: 0,
        failures: Vec::new(),
    };
    let mut warmup = Pass::default();
    for _ in 0..WARMUP_ROUNDS {
        iteration(&mut ready, &mut warmup, None, None);
    }
    if warmup.bad_rounds > 0 {
        ready
            .failures
            .push(format!("{} warm-up rounds degraded", warmup.bad_rounds));
    }
    Ok(ready)
}

/// One `run_room` loop iteration: reconcile, round, advance, publish.
fn iteration(
    ready: &mut Ready,
    pass: &mut Pass,
    digest: Option<&mut Digest>,
    spans: Option<&mut Spans>,
) {
    let round = ready.next_round;
    let mut spans = spans;
    let open = |spans: &mut Option<&mut Spans>, name| spans.as_deref_mut().map(|s| s.open(name));
    let close = |spans: &mut Option<&mut Spans>, id| {
        if let (Some(s), Some(id)) = (spans.as_deref_mut(), id) {
            let _ = s.close(id);
        }
    };

    let whole = open(&mut spans, "bench.round");
    let id = open(&mut spans, "serve.state.reconcile");
    ready.daemon.reconcile();
    close(&mut spans, id);

    let id = open(&mut spans, "core.workers.run_round");
    let t = Instant::now();
    let outcome = ready.daemon.run_round(round);
    pass.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
    close(&mut spans, id);

    let id = open(&mut spans, "core.workers.advance");
    let t = Instant::now();
    let advanced = ready.daemon.advance();
    pass.advance_ms.push(t.elapsed().as_secs_f64() * 1e3);
    close(&mut spans, id);

    let id = open(&mut spans, "serve.state.publish_round");
    ready.daemon.publish(round + 1, &outcome);
    close(&mut spans, id);
    close(&mut spans, whole);

    let failsafe = seam::failsafe_cuts(&outcome) as u64;
    pass.failsafe_cuts += failsafe;
    if failsafe > 0 || !advanced {
        pass.bad_rounds += 1;
        if ready.failures.len() < 8 {
            ready.failures.push(format!(
                "round {round}: {failsafe} fail-safe cuts, advance acked: {advanced}"
            ));
        }
    }
    if let Some(digest) = digest {
        seam::fold_outcome(&outcome, digest);
    }
    ready.next_round += 1;
}

fn measure(ready: &mut Ready, seconds: f64, mut spans: Option<&mut Spans>) -> Pass {
    let mut pass = Pass::default();
    let mut digest = Digest::default();
    let start = Instant::now();
    loop {
        for _ in 0..CYCLE_ROUNDS {
            let from = Instant::now();
            iteration(ready, &mut pass, Some(&mut digest), spans.as_deref_mut());
            pass.iteration_s.push(from.elapsed().as_secs_f64());
        }
        pass.rounds += CYCLE_ROUNDS;
        pass.checkpoints.push((ready.next_round, digest.value()));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    pass
}

/// Rounds (each advancing one simulated second) per wall second of the
/// window's typical cycle.
fn rounds_per_s(pass: &Pass) -> f64 {
    CYCLE_ROUNDS as f64 / stats::typical_cycle(&pass.iteration_s, CYCLE_ROUNDS as usize)
}

fn new_result(ctx: &Ctx, traced: bool) -> WorkloadResult {
    let threads = Threads {
        generator: 0,
        http_workers: 0,
        agents: ROOM_AGENTS,
    };
    WorkloadResult::new(cat::ROOM_SOCKET, traced, ctx, threads)
}

fn check_pass(
    ctx: &Ctx,
    ready: &Ready,
    pass: &Pass,
    gather_timeouts: u64,
    result: &mut WorkloadResult,
) {
    result.sim_seconds = pass.rounds;
    result.attempted = pass.round_ms.len() as u64;
    result.failed = pass.bad_rounds;
    result.checkpoints = pass.checkpoints.clone();
    result.failures.extend(ready.failures.iter().cloned());
    if gather_timeouts > 0 {
        result
            .failures
            .push(format!("{gather_timeouts} gather timeouts"));
    }
    if ready.daemon.transport_violations() > 0 {
        result.failures.push(format!(
            "{} transport violations",
            ready.daemon.transport_violations()
        ));
    }
    result.check_expected(ctx);
}

fn check_exit(exit: &RoomExit, result: &mut WorkloadResult) {
    if exit.agent_violations > 0 {
        result
            .failures
            .push(format!("{} agent-side violations", exit.agent_violations));
    }
    if exit.agent_reconnects > 0 {
        result
            .failures
            .push(format!("{} agent reconnects", exit.agent_reconnects));
    }
}

pub fn run_untraced(ctx: &Ctx) -> Result<WorkloadResult, String> {
    let rig = layers::room_rig(ctx.smoke);
    let mut result = new_result(ctx, false);
    // As in the engine workloads: the measured daemon first, the
    // further timed set-ups after its teardown.
    let mut ready = setup(rig, ctx)?;
    let mut setups = vec![ctx.process_start.elapsed().as_secs_f64()];
    let timeouts_before = ready.daemon.metrics().gather_timeouts();
    let pass = measure(&mut ready, ctx.seconds as f64, None);
    let timeouts = ready.daemon.metrics().gather_timeouts() - timeouts_before;
    result.set(cat::PEAK_RSS_MB, host::peak_rss_mb(), 1);
    check_pass(ctx, &ready, &pass, timeouts, &mut result);

    result.set(cat::SIM_S_PER_WALL_S, rounds_per_s(&pass), pass.rounds);
    result.set(
        cat::ROUND_MS_P50,
        stats::median(&pass.round_ms),
        pass.round_ms.len() as u64,
    );
    println!("{}", stats::tail_line("round_ms", &pass.round_ms));
    check_exit(&ready.daemon.shutdown()?, &mut result);
    while setup_again(&setups) {
        let from = Instant::now();
        let again = setup(rig, ctx)?;
        setups.push(from.elapsed().as_secs_f64());
        check_exit(&again.daemon.shutdown()?, &mut result);
    }
    result.set(cat::SETUP_S, stats::median(&setups), setups.len() as u64);

    Ok(result)
}

pub fn run_traced(ctx: &Ctx) -> Result<WorkloadResult, String> {
    let rig = layers::room_rig(ctx.smoke);
    let mut result = new_result(ctx, true);
    let half = ctx.seconds as f64 / 2.0;

    let mut reference = setup(rig, ctx)?;
    let reference_pass = measure(&mut reference, half, None);
    result.failures.extend(reference.failures.iter().cloned());
    check_exit(&reference.daemon.shutdown()?, &mut result);

    let mut ready = setup(rig, ctx)?;
    let mut spans = Spans::default();
    let before = ready.daemon.metrics();
    let allocs_before = host::arm_alloc_counter();
    let pass = measure(&mut ready, half, Some(&mut spans));
    let allocs = host::disarm_alloc_counter() - allocs_before;
    let after = ready.daemon.metrics();
    let timeouts = after.gather_timeouts() - before.gather_timeouts();
    check_pass(ctx, &ready, &pass, timeouts, &mut result);

    let compared = match digest::compare_prefix(&pass.checkpoints, &reference_pass.checkpoints) {
        Ok(n) => n,
        Err(why) => {
            result
                .failures
                .push(format!("traced digest differs from untraced: {why}"));
            0
        }
    };
    let overhead = rounds_per_s(&pass) / rounds_per_s(&reference_pass);

    let summary = spans.summary();
    let mean_of = |name: &str, scale: f64| {
        summary.get(name).map_or((0.0, 0), |s| {
            (
                s.total_ns as f64 * 1e-9 / s.count.max(1) as f64 * scale,
                s.count,
            )
        })
    };
    let (v, n) = mean_of("serve.state.reconcile", 1e6);
    result.set("serve.state.reconcile_us", v, n);
    let (v, n) = mean_of("serve.state.publish_round", 1e6);
    result.set("serve.state.publish_round_us", v, n);
    result.set(
        "serve.state.reconcile_actions",
        (after.reconcile_actions() - before.reconcile_actions()) as f64,
        1,
    );
    let rounds = stats::sorted(&pass.round_ms);
    result.set(
        "core.workers.run_round_ms_p99",
        stats::percentile(&rounds, 0.99),
        rounds.len() as u64,
    );
    result.set(
        "core.workers.advance_ms",
        stats::mean(&pass.advance_ms),
        pass.advance_ms.len() as u64,
    );
    result.set("core.workers.gather_timeouts", timeouts as f64, 1);
    result.set("core.workers.failsafe_cuts", pass.failsafe_cuts as f64, 1);
    result.set(
        "serve.socket.transport_violations",
        ready.daemon.transport_violations() as f64,
        1,
    );
    result.set("bench.trace_overhead_ratio", overhead, pass.rounds);
    result.set(
        "bench.allocs_per_sim_s",
        allocs as f64 / pass.rounds.max(1) as f64,
        pass.rounds,
    );
    let loop_self = summary.get("bench.round").map_or(0.0, |s| {
        if s.total_ns == 0 {
            0.0
        } else {
            s.self_ns as f64 / s.total_ns as f64
        }
    });
    result.set("bench.loop_self_share", loop_self, pass.rounds);
    result.set("bench.digest_checkpoints", compared as f64, 1);
    result.set("bench.sim_seconds", pass.rounds as f64, 1);

    let exit = ready.daemon.shutdown()?;
    check_exit(&exit, &mut result);
    let (rtt_s, beats) = exit.heartbeat_rtt_p50();
    result.set("serve.socket.heartbeat_rtt_us_p50", rtt_s * 1e6, beats);
    result.set("serve.agent.violations", exit.agent_violations as f64, 1);
    layers::wire_rows(ctx, &mut result);

    // Socket minus channel is what the transport costs.
    let channel_rounds = if ctx.smoke {
        CHANNEL_ROUNDS / 4
    } else {
        CHANNEL_ROUNDS
    };
    let mut channel = seam::assemble_channel_room(rig, ROOM_AGENTS, ctx.seed);
    let mut channel_ms = Vec::new();
    for round in 0..WARMUP_ROUNDS + channel_rounds {
        let t = Instant::now();
        let outcome = channel.round_and_advance(round);
        if round >= WARMUP_ROUNDS {
            channel_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        if seam::failsafe_cuts(&outcome) > 0 {
            result
                .failures
                .push(format!("channel round {round} rode fail-safe"));
        }
    }
    channel.shutdown();
    result.set(
        "core.workers.round_ms_channel",
        stats::median(&channel_ms),
        channel_ms.len() as u64,
    );

    if let Err(e) = spans.write(&ctx.results_file(&format!("{}.spans.txt", cat::ROOM_SOCKET))) {
        eprintln!("could not write spans: {e}");
    }
    Ok(result)
}
