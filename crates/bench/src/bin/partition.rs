//! Partition chaos-soak over the *socket* control plane: a room
//! controller in this process, real `capmaestro-agent` rack processes,
//! and a seeded kill/freeze schedule against them.
//!
//! Each run builds a
//! [`PartitionPlan`](capmaestro_sim::procchaos::PartitionPlan): SIGKILL (torn connection,
//! process restart) and SIGSTOP/SIGCONT (open-but-silent socket, the
//! heartbeat-timeout path) faults against the agent fleet, with
//! recovery slack between faults and a fault-free quiet tail. Every
//! control round is invariant-checked through an [`InvariantTracker`]:
//! cut budgets must conserve each tree's root budget, agents' own
//! world-state audits (reported over the wire) must stay clean, and
//! every partitioned rack must leave fail-safe budgets within the quiet
//! tail — a rack still riding fail-safe at the end of the run is a
//! recovery violation.
//!
//! ```text
//! cargo run --release -p capmaestro-bench --bin partition \
//!     [-- --rounds N --seed S --seeds K --agents A --smoke --out PATH]
//! ```
//!
//! Results land in `BENCH_partition.json`; the process exits non-zero
//! if any invariant was violated, so CI can gate on it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use capmaestro_bench::{banner, Args, Table, PARTITION_FLAGS};
use capmaestro_core::obs::{names, MetricsRegistry, MetricsSnapshot};
use capmaestro_core::workers::leaf_statics;
use capmaestro_core::{DeploymentConfig, PolicyKind, WorkerDeployment};
use capmaestro_serve::rig::{build_farm, build_rig, rig_assignments, RigSpec};
use capmaestro_serve::socket::{SocketTransport, SocketTransportConfig};
use capmaestro_sim::audit::{InvariantConfig, InvariantKind, InvariantTracker};
use capmaestro_sim::procchaos::{partition_plan, ProcFault};

/// Conservation tolerance: relative part and absolute slack in watts.
const CONSERVE_REL: f64 = 1e-4;
const CONSERVE_SLACK_W: f64 = 0.5;

/// Wall-clock control period per round. The loop must pace like the real
/// daemon: recovery is physical (process restart, TCP connect,
/// handshake), so an unpaced loop would burn through the quiet tail in
/// microseconds and report false recovery failures.
const ROUND_PERIOD: Duration = Duration::from_millis(250);

/// One (seed) soak outcome.
struct RunResult {
    seed: u64,
    kills: u64,
    freezes: u64,
    /// Rounds in which at least one cut rode fail-safe budgets — proof
    /// the schedule drove the degradation ladder, not a silent no-op.
    failsafe_rounds: u64,
    /// `capmaestro_worker_respawns_total`: dead→alive transitions the
    /// deployment observed (agent reconnects after kills and thaws).
    worker_respawns: u64,
    /// Rounds into the quiet tail until the last fail-safe cut cleared
    /// (0 = the fleet was already clean when the tail began; `None`
    /// means it never cleared, which is also a recorded violation).
    recovery_rounds: Option<u64>,
    violations: Vec<String>,
}

/// Locates the `capmaestro-agent` binary: `$CAPMAESTRO_AGENT_BIN`
/// override first, then a sibling of this executable (both land in the
/// same cargo target directory).
fn agent_binary() -> PathBuf {
    if let Ok(path) = std::env::var("CAPMAESTRO_AGENT_BIN") {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("executable has a parent directory");
    let candidate = dir.join("capmaestro-agent");
    assert!(
        candidate.exists(),
        "capmaestro-agent not found at {}; build it first \
         (cargo build --release -p capmaestro-serve) or set CAPMAESTRO_AGENT_BIN",
        candidate.display()
    );
    candidate
}

/// Spawns one rack agent process against the controller at `addr`.
fn spawn_agent(bin: &PathBuf, addr: &str, worker: usize, agents: usize, spec: RigSpec, seed: u64) -> Child {
    Command::new(bin)
        .args([
            "--connect",
            addr,
            "--worker",
            &worker.to_string(),
            "--workers-total",
            &agents.to_string(),
            "--rig",
            &spec.to_arg(),
            "--demand-seed",
            &seed.to_string(),
            // Bounded retry so an agent orphaned by controller teardown
            // exits on its own instead of reconnecting forever.
            "--max-connect-attempts",
            "30",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn capmaestro-agent")
}

/// Sends a named signal (e.g. `-STOP`, `-CONT`) to a process.
fn signal(pid: u32, sig: &str) {
    let _ = Command::new("kill").arg(sig).arg(pid.to_string()).status();
}

/// Waits up to `grace` for a child to exit, then kills it. SIGKILL also
/// takes down a child still stopped by an unapplied SIGCONT.
fn reap(mut child: Child, grace: Duration) {
    let deadline = Instant::now() + grace;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(20)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return;
            }
        }
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

fn run_one(seed: u64, agents: usize, rounds: u64, quiet_tail: u64) -> RunResult {
    let spec = RigSpec::Racks {
        racks: agents,
        servers_per_rack: 2,
    };
    let rig = build_rig(spec);
    let assignments = rig_assignments(&rig, agents);
    let statics = {
        let farm = build_farm(&rig.topo);
        leaf_statics(&rig.trees, &assignments, &farm)
    };
    let root_budgets: Vec<f64> = rig.root_budgets.iter().map(|b| b.as_f64()).collect();

    let registry = Arc::new(MetricsRegistry::new());
    let transport =
        SocketTransport::bind(SocketTransportConfig::new(agents)).expect("bind agent listener");
    let addr = transport.local_addr().to_string();
    let mut deployment = WorkerDeployment::with_transport(
        rig.trees,
        rig.root_budgets,
        PolicyKind::GlobalPriority,
        assignments,
        &statics,
        Box::new(transport),
        DeploymentConfig::default()
            .with_gather_timeout(Duration::from_millis(400))
            .with_recorder(registry.clone()),
    );

    let bin = agent_binary();
    let mut children: Vec<Option<Child>> = (0..agents)
        .map(|w| Some(spawn_agent(&bin, &addr, w, agents, spec, seed)))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(15);
    while !(0..agents).all(|w| deployment.is_worker_alive(w)) {
        assert!(Instant::now() < deadline, "agent fleet never connected");
        thread::sleep(Duration::from_millis(10));
    }

    let plan = partition_plan(seed, agents, rounds, quiet_tail);
    let mut tracker = InvariantTracker::new(InvariantConfig::default());
    // (round, agent, restart?) — kills restart the process, freezes thaw it.
    let mut revive: Vec<(u64, usize, bool)> = Vec::new();
    let mut kills = 0u64;
    let mut freezes = 0u64;
    let mut failsafe_rounds = 0u64;
    let mut last_failsafe_round: Option<u64> = None;

    let mut next_round_at = Instant::now();
    for round in 0..rounds {
        // Pace: at least ROUND_PERIOD between consecutive round starts,
        // with no catch-up burst after a slow (degraded) round — a burst
        // would tear through the quiet tail faster than an agent can
        // exec and reconnect.
        if let Some(wait) = next_round_at.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        next_round_at = Instant::now() + ROUND_PERIOD;
        for (agent, fault) in plan.due(round) {
            match fault {
                ProcFault::Kill { down_rounds, .. } => {
                    if let Some(mut child) = children[agent].take() {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    kills += 1;
                    revive.push((round + down_rounds, agent, true));
                }
                ProcFault::Freeze { frozen_rounds, .. } => {
                    if let Some(child) = &children[agent] {
                        signal(child.id(), "-STOP");
                    }
                    freezes += 1;
                    revive.push((round + frozen_rounds, agent, false));
                }
            }
        }
        let (due_now, later): (Vec<_>, Vec<_>) = revive.into_iter().partition(|&(at, _, _)| at <= round);
        revive = later;
        for (_, agent, restart) in due_now {
            if restart {
                children[agent] = Some(spawn_agent(&bin, &addr, agent, agents, spec, seed));
            } else if let Some(child) = &children[agent] {
                signal(child.id(), "-CONT");
            }
        }

        let outcome = deployment.run_round(round);
        // advance() can miss acks while an agent is partitioned; the
        // agent catches up from its socket backlog or on reconnect.
        let _ = deployment.advance(1);

        // Conservation: the cut budgets of each tree must not exceed its
        // root budget, partitioned or not — fail-safe floors included.
        let mut per_tree: HashMap<usize, f64> = HashMap::new();
        for &((tree, _), b) in &outcome.cut_budgets {
            *per_tree.entry(tree).or_insert(0.0) += b.as_f64();
        }
        for (tree, sum) in per_tree {
            let root = root_budgets[tree];
            if sum > root * (1.0 + CONSERVE_REL) + CONSERVE_SLACK_W {
                tracker.record(
                    round,
                    InvariantKind::FeedBudget,
                    format!("tree {tree} cut budgets sum to {sum:.3} W over root {root:.3} W"),
                );
            }
        }
        if !outcome.failsafe_cuts.is_empty() {
            failsafe_rounds += 1;
            last_failsafe_round = Some(round);
        }
    }

    // Recovery: with every fault cleared before the quiet tail, no cut
    // may still be on fail-safe budgets when the run ends.
    let recovery_rounds = match last_failsafe_round {
        Some(last) if last + 1 >= rounds => {
            tracker.record(
                rounds,
                InvariantKind::Recovery,
                format!(
                    "fail-safe cuts still present in the final round \
                     ({} quiet rounds were available)",
                    quiet_tail
                ),
            );
            None
        }
        Some(last) => Some((last + 1).saturating_sub(plan.quiet_from)),
        None => Some(0),
    };

    let agent_violations = deployment.transport_violations();
    if agent_violations > 0 {
        tracker.record(
            rounds,
            InvariantKind::CapRange,
            format!("agents reported {agent_violations} world-state violations"),
        );
    }

    let snap = registry.snapshot();
    let worker_respawns = counter(&snap, names::WORKER_RESPAWNS_TOTAL);
    deployment.shutdown();
    for child in children.into_iter().flatten() {
        // The controller's Shutdown reached every *connected* agent, but
        // one mid-reconnect at teardown would spin on its backoff loop;
        // give each a grace period, then kill.
        reap(child, Duration::from_secs(5));
    }

    RunResult {
        seed,
        kills,
        freezes,
        failsafe_rounds,
        worker_respawns,
        recovery_rounds,
        violations: tracker
            .violations()
            .iter()
            .map(|v| format!("[round={} {:?}] {}", v.second, v.kind, v.detail))
            .collect(),
    }
}

fn render_json(agents: usize, rounds: u64, quiet_tail: u64, seeds: &[u64], runs: &[RunResult]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"partition_soak\",");
    let _ = writeln!(out, "  \"transport\": \"socket\",");
    let _ = writeln!(out, "  \"agents\": {agents},");
    let _ = writeln!(out, "  \"rounds\": {rounds},");
    let _ = writeln!(out, "  \"quiet_tail\": {quiet_tail},");
    let seed_list: Vec<String> = seeds.iter().map(|s| s.to_string()).collect();
    let _ = writeln!(out, "  \"seeds\": [{}],", seed_list.join(", "));
    let total: usize = runs.iter().map(|r| r.violations.len()).sum();
    let _ = writeln!(out, "  \"violations_total\": {total},");
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let recovery = r
            .recovery_rounds
            .map(|v| v.to_string())
            .unwrap_or_else(|| "null".to_string());
        let violations: Vec<String> = r
            .violations
            .iter()
            .map(|v| format!("\"{}\"", v.replace('"', "'")))
            .collect();
        let _ = write!(
            out,
            "    {{\"seed\": {}, \"kills\": {}, \"freezes\": {}, \
             \"failsafe_rounds\": {}, \"worker_respawns\": {}, \
             \"recovery_rounds\": {}, \"violations\": [{}]}}",
            r.seed,
            r.kills,
            r.freezes,
            r.failsafe_rounds,
            r.worker_respawns,
            recovery,
            violations.join(", ")
        );
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args = Args::parse_flags("partition", PARTITION_FLAGS, std::env::args().skip(1))
        .unwrap_or_else(|usage| {
            eprintln!("{usage}");
            std::process::exit(2);
        });
    let smoke = args.flag("smoke");
    let agents: usize = args.get("agents", 4);
    let rounds: u64 = args.get("rounds", if smoke { 18 } else { 40 });
    let quiet_tail: u64 = args.get("quiet-tail", if smoke { 6 } else { 8 });
    let first_seed: u64 = args.get("seed", 1);
    let seed_count: u64 = args.get("seeds", if smoke { 1 } else { 3 });
    let out_path: String = args.get("out", "BENCH_partition.json".to_string());
    let seeds: Vec<u64> = (first_seed..first_seed + seed_count.max(1)).collect();

    banner(
        "Partition soak",
        "kill/freeze chaos against socket rack agents, invariant-checked",
    );
    println!(
        "{agents} agent processes, {rounds} rounds per run (quiet tail {quiet_tail}), seeds {seeds:?}\n",
    );

    let mut runs = Vec::new();
    for &seed in &seeds {
        runs.push(run_one(seed, agents, rounds, quiet_tail));
    }

    let mut table = Table::new(vec![
        "Seed",
        "Kills",
        "Freezes",
        "Fail-safe rounds",
        "Respawns",
        "Recovery (rounds)",
        "Violations",
    ]);
    for r in &runs {
        table.row(vec![
            r.seed.to_string(),
            r.kills.to_string(),
            r.freezes.to_string(),
            r.failsafe_rounds.to_string(),
            r.worker_respawns.to_string(),
            r.recovery_rounds
                .map(|v| v.to_string())
                .unwrap_or_else(|| "—".to_string()),
            r.violations.len().to_string(),
        ]);
    }
    print!("{}", table.render());
    println!();

    let json = render_json(agents, rounds, quiet_tail, &seeds, &runs);
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => eprintln!("could not write {out_path}: {e}"),
    }

    let total: usize = runs.iter().map(|r| r.violations.len()).sum();
    if total > 0 {
        eprintln!("\n{total} invariant violation(s):");
        for r in &runs {
            for v in &r.violations {
                eprintln!("  seed {}: {}", r.seed, v);
            }
        }
        std::process::exit(1);
    }
    println!("all invariants held across {} runs.", runs.len());
}
