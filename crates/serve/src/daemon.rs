//! The `capmaestrod` run loop and its `--probe` smoke client.
//!
//! The daemon wires the paper's Table 2 priority rig (`priority_rig`)
//! into a long-running process: a seeded `sim::Engine` stepped in real
//! or accelerated time on the main thread, a [`MetricsRegistry`] wired
//! in as the control plane's recorder, and an [`HttpServer`] serving
//! [`Router`] over the published [`ServeState`]. One simulated second is
//! one engine step; at `--accel 1` a step also takes one wall-clock
//! second, at `--accel 0` the engine runs flat out (the mode ci.sh and
//! the probe use).
//!
//! Shutdown (handle, stdin quit, `--seconds`, or `--wall-limit-s`)
//! follows the protocol in DESIGN.md: stop accepting, drain in-flight
//! requests, join the server's threads, then drop the engine.

use std::io::BufRead;
use std::sync::Arc;
use std::time::{Duration, Instant};

use capmaestro_core::obs::trace::TraceRecorder;
use capmaestro_core::obs::{json, prometheus, MetricsRegistry, Recorder};
use capmaestro_core::oplog::OpLog;
use capmaestro_core::workers::leaf_statics;
use capmaestro_core::{AllocatorKind, DeploymentConfig, PolicyKind, WorkerDeployment};
use capmaestro_sim::scenarios::{priority_rig, RigConfig};
use capmaestro_sim::Engine;

use crate::client;
use crate::rig::{build_farm, build_rig, rig_assignments, RigSpec};
use crate::router::Router;
use crate::server::{HttpConfig, HttpServer, ShutdownHandle};
use crate::socket::{SocketTransport, SocketTransportConfig};
use crate::state::ServeState;

/// Configuration for one daemon run.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks an ephemeral port (announced on
    /// stdout).
    pub addr: String,
    /// Simulated seconds to run; 0 means run until told to stop.
    pub seconds: u64,
    /// Simulated seconds per wall-clock second; 0 runs flat out.
    pub accel: f64,
    /// HTTP worker threads.
    pub workers: usize,
    /// Whether the rig runs with supply-priority overdraw (SPO) on.
    pub spo: bool,
    /// The budget-split allocator the control plane races at every tree
    /// node, in engine and room mode alike (`--policy`; the paper's
    /// waterfall by default).
    pub allocator: AllocatorKind,
    /// Quit when stdin closes or delivers a `quit` line.
    pub quit_on_stdin: bool,
    /// Hard wall-clock stop, regardless of simulated progress.
    pub wall_limit: Option<Duration>,
    /// Room-controller mode: expect this many out-of-process rack agents
    /// over the socket transport instead of simulating in-process.
    /// 0 (the default) keeps the classic engine mode.
    pub agents: usize,
    /// Bind address for the agent control listener (room mode only);
    /// port 0 picks an ephemeral port, announced on stdout.
    pub agent_addr: String,
    /// The rig agents and controller independently build (room mode
    /// only). Defaults to `racks:<agents>:2`.
    pub rig: Option<RigSpec>,
    /// Persist the operator event log to this file; on startup the file
    /// is replayed so the declared state survives restarts. `None` keeps
    /// the log in memory only.
    pub oplog: Option<std::path::PathBuf>,
    /// Write the Perfetto JSON trace to this file at run boundaries
    /// (every 3 600 steps and on shutdown). `None`
    /// keeps traces reachable via `GET /v1/trace` only.
    pub trace: Option<std::path::PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:8080".to_string(),
            seconds: 0,
            accel: 1.0,
            workers: 2,
            spo: true,
            allocator: AllocatorKind::Waterfall,
            quit_on_stdin: false,
            wall_limit: None,
            agents: 0,
            agent_addr: "127.0.0.1:0".to_string(),
            rig: None,
            oplog: None,
            trace: None,
        }
    }
}

/// What the command line asked for.
#[derive(Debug, Clone)]
pub enum DaemonCommand {
    /// Run the daemon.
    Run(DaemonConfig),
    /// Probe a running daemon at this address and exit.
    Probe(String),
}

/// Usage text for `capmaestrod --help`.
pub const USAGE: &str = "\
capmaestrod — CapMaestro serving daemon

USAGE:
    capmaestrod [--addr HOST:PORT | --port PORT] [--seconds N] [--accel F]
                [--workers N] [--no-spo] [--policy NAME] [--quit-on-stdin]
                [--wall-limit-s N] [--oplog PATH] [--trace PATH]
    capmaestrod --agents N [--agent-addr HOST:PORT] [--rig SPEC] [...]
    capmaestrod --probe HOST:PORT

OPTIONS:
    --addr HOST:PORT   bind address (default 127.0.0.1:8080; port 0 = ephemeral)
    --port PORT        shorthand for --addr 127.0.0.1:PORT
    --seconds N        simulated seconds to run (default 0 = unbounded)
    --accel F          simulated seconds per wall second (default 1; 0 = flat out)
    --workers N        http worker threads (default 2)
    --no-spo           disable supply-priority overdraw in the rig
    --policy NAME      budget-split allocator: waterfall (default),
                       waterfilling, or fair_share
    --quit-on-stdin    exit when stdin closes or receives a 'quit' line
    --wall-limit-s N   hard wall-clock stop after N seconds
    --oplog PATH       persist the operator event log to PATH (replayed on
                       startup, so declared state survives restarts)
    --trace PATH       write the Perfetto JSON trace to PATH at run
                       boundaries and on shutdown (engine mode only)
    --agents N         room-controller mode: run the control plane over N
                       out-of-process capmaestro-agent rack workers
    --agent-addr ADDR  agent listener bind address (room mode; default
                       127.0.0.1:0, announced on stdout)
    --rig SPEC         rig both sides build: fig2 or racks:R:S (room mode;
                       default racks:<agents>:2)
    --probe ADDR       smoke-check a running daemon: scrape and validate
                       the /v1 surface, then drive an idempotent budget
                       mutation through the event log

ENDPOINTS:
    GET   /v1/metrics               Prometheus text exposition
    GET   /v1/healthz               liveness + oplog head / applied seq
    GET   /v1/report                JSON snapshot of the latest round
    GET   /v1/events?since=SEQ      operator events after SEQ
    GET   /v1/trace?last_s=N        Perfetto JSON trace (trailing N s)
    POST  /v1/budget                declare all root budgets, e.g. [1240]
    PUT   /v1/trees/{id}/budget     declare one tree's root budget
    PATCH /v1/groups/{t}.{n}/priority  declare/clear a group priority band
    POST  /v1/servers/{id}:drain    drain (power off) a server
    POST  /v1/servers/{id}:undrain  return a server to service
    PUT   /v1/allocator             declare the budget-split policy
";

/// Parse command-line arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<DaemonCommand, String> {
    let mut config = DaemonConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_for = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value_for("--addr")?,
            "--port" => {
                let port: u16 = value_for("--port")?
                    .parse()
                    .map_err(|_| "--port needs a number in 0..=65535".to_string())?;
                config.addr = format!("127.0.0.1:{port}");
            }
            "--seconds" => {
                config.seconds = value_for("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a non-negative integer".to_string())?;
            }
            "--accel" => {
                let accel: f64 = value_for("--accel")?
                    .parse()
                    .map_err(|_| "--accel needs a number".to_string())?;
                if !accel.is_finite() || accel < 0.0 {
                    return Err("--accel must be finite and >= 0".to_string());
                }
                config.accel = accel;
            }
            "--workers" => {
                config.workers = value_for("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs a positive integer".to_string())?;
            }
            "--no-spo" => config.spo = false,
            "--policy" => {
                config.allocator = value_for("--policy")?
                    .parse::<AllocatorKind>()
                    .map_err(|e| e.to_string())?;
            }
            "--quit-on-stdin" => config.quit_on_stdin = true,
            "--wall-limit-s" => {
                let secs: u64 = value_for("--wall-limit-s")?
                    .parse()
                    .map_err(|_| "--wall-limit-s needs a non-negative integer".to_string())?;
                config.wall_limit = Some(Duration::from_secs(secs));
            }
            "--agents" => {
                config.agents = value_for("--agents")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| "--agents needs a positive integer".to_string())?;
            }
            "--agent-addr" => config.agent_addr = value_for("--agent-addr")?,
            "--oplog" => config.oplog = Some(value_for("--oplog")?.into()),
            "--trace" => config.trace = Some(value_for("--trace")?.into()),
            "--rig" => config.rig = Some(RigSpec::parse(&value_for("--rig")?)?),
            "--probe" => return Ok(DaemonCommand::Probe(value_for("--probe")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n\n{USAGE}")),
        }
    }
    Ok(DaemonCommand::Run(config))
}

/// Steps between engine trace resets and `--trace` file writes. Serving
/// steps record no series, so the reset only bounds the engine's event
/// logs (breaker trips, lost servers, stranded watts per round).
const TRACE_RESET_PERIOD: u64 = 3600;

/// Advance the engine by one simulated second and publish the result.
///
/// Shared by the daemon loop and the endpoint tests so both reconcile
/// and publish identically. At each round boundary (pre-step clock a
/// period multiple) the operator reconciler runs first, so declared
/// budgets, priorities, drains, and allocator switches land in that
/// round. Returns whether this step fired a control round.
pub fn drive_second(engine: &mut Engine, state: &ServeState) -> bool {
    // Rounds fire when the pre-step clock is a period multiple.
    let round_ran = engine.now_s().is_multiple_of(engine.control_period_s());
    if round_ran {
        state.reconcile(engine);
    }
    engine.step();
    state.publish(engine, round_ran);
    round_ran
}

/// Run the daemon until a stop condition. Returns the number of
/// simulated seconds executed.
pub fn run(config: &DaemonConfig) -> Result<u64, String> {
    if config.agents > 0 {
        return run_room(config);
    }
    let rig = priority_rig(
        RigConfig::table2()
            .with_spo(config.spo)
            .with_allocator(config.allocator),
    );
    let registry = Arc::new(MetricsRegistry::new());
    // Engine mode always keeps the timeline: the ring is bounded, and
    // the trace recorder forwards every metric call to the registry so
    // /v1/metrics sees exactly what it always did.
    let trace = Arc::new(
        TraceRecorder::new().with_forward(registry.clone() as Arc<dyn Recorder>),
    );
    let mut engine = Engine::new(rig);
    engine.plane_mut().set_recorder(trace.clone());

    let mut state = ServeState::new(registry.clone(), engine.control_period_s())
        .with_policy_label(config.allocator.name());
    if let Some(path) = &config.oplog {
        let (log, recovery) = OpLog::open(path)
            .map_err(|e| format!("open oplog {}: {e}", path.display()))?;
        if recovery.truncated {
            eprintln!(
                "capmaestrod: oplog {}: dropped {} torn trailing bytes, recovered {} events",
                path.display(),
                recovery.dropped_bytes,
                recovery.recovered
            );
        }
        println!(
            "capmaestrod: oplog {} replayed {} events",
            path.display(),
            log.head_seq()
        );
        state = state.with_oplog(log);
    }
    let state = Arc::new(state);
    let router = Router::new(state.clone(), registry.clone()).with_trace(trace.clone());
    let http_config = HttpConfig::default()
        .with_addr(config.addr.clone())
        .with_workers(config.workers)
        .with_recorder(registry.clone());
    let mut server = HttpServer::bind(http_config, Arc::new(router))
        .map_err(|e| format!("bind {}: {e}", config.addr))?;

    // ci.sh and the tests parse this line for the ephemeral port.
    println!("capmaestrod: listening on http://{}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let shutdown = server.shutdown_handle();
    if config.quit_on_stdin {
        spawn_stdin_watcher(shutdown.clone());
    }

    let started = Instant::now();
    let step_wall = if config.accel > 0.0 {
        Some(Duration::from_secs_f64(1.0 / config.accel))
    } else {
        None
    };
    let mut steps: u64 = 0;
    while !shutdown.is_requested() {
        if config.seconds > 0 && steps >= config.seconds {
            break;
        }
        if let Some(limit) = config.wall_limit {
            if started.elapsed() >= limit {
                break;
            }
        }
        drive_second(&mut engine, &state);
        steps += 1;
        if steps.is_multiple_of(TRACE_RESET_PERIOD) {
            engine.reset_trace();
            write_trace_file(config.trace.as_deref(), &trace);
        }
        if let Some(step_wall) = step_wall {
            pace(step_wall, &shutdown);
        }
    }

    // Shutdown protocol: stop accepting, drain in-flight, join threads —
    // only then is the engine (still borrowed by nobody, but the state
    // the handlers read) allowed to go away.
    server.shutdown();
    write_trace_file(config.trace.as_deref(), &trace);
    drop(engine);
    Ok(steps)
}

/// Run the daemon as a room controller over out-of-process rack agents.
///
/// The world lives in the agents: the controller builds the rig only to
/// derive trees, assignments and the fail-safe statics, then drives
/// [`WorkerDeployment`] rounds over a [`SocketTransport`] listener whose
/// address is announced on stdout (`capmaestrod: agents connect to ...`).
/// One loop iteration is one control round plus one simulated second of
/// agent-side world time. `/v1/healthz` reports `degraded` with a non-zero
/// `stale_racks` count whenever any agent's cuts were budgeted from
/// fail-safe metrics this round — a partitioned, frozen, or dead agent
/// after the stale-hold window — and recovers when the agent reconnects.
fn run_room(config: &DaemonConfig) -> Result<u64, String> {
    let registry = Arc::new(MetricsRegistry::new());
    let (mut deployment, mut live_budgets) = room_deployment(config, registry.clone())?;
    let trees_total = live_budgets.len();

    let mut state = ServeState::new(registry.clone(), 1)
        .with_policy_label(config.allocator.name())
        .with_budgets_only();
    if let Some(path) = &config.oplog {
        let (log, recovery) = OpLog::open(path)
            .map_err(|e| format!("open oplog {}: {e}", path.display()))?;
        if recovery.truncated {
            eprintln!(
                "capmaestrod: oplog {}: dropped {} torn trailing bytes, recovered {} events",
                path.display(),
                recovery.dropped_bytes,
                recovery.recovered
            );
        }
        state = state.with_oplog(log);
    }
    let state = Arc::new(state);
    let router = Router::new(state.clone(), registry.clone());
    let http_config = HttpConfig::default()
        .with_addr(config.addr.clone())
        .with_workers(config.workers)
        .with_recorder(registry.clone());
    let mut server = HttpServer::bind(http_config, Arc::new(router))
        .map_err(|e| format!("bind {}: {e}", config.addr))?;
    println!("capmaestrod: listening on http://{}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let shutdown = server.shutdown_handle();
    if config.quit_on_stdin {
        spawn_stdin_watcher(shutdown.clone());
    }

    let started = Instant::now();
    let step_wall = if config.accel > 0.0 {
        Some(Duration::from_secs_f64(1.0 / config.accel))
    } else {
        None
    };
    let mut rounds: u64 = 0;
    while !shutdown.is_requested() {
        if config.seconds > 0 && rounds >= config.seconds {
            break;
        }
        if let Some(limit) = config.wall_limit {
            if started.elapsed() >= limit {
                break;
            }
        }
        if let Some(target) = state.reconcile_distributed(&live_budgets) {
            deployment.set_root_budgets(target.clone());
            live_budgets = target;
        }
        let outcome = deployment.run_round(rounds);
        deployment.advance(1);
        let stale_racks = deployment
            .assignments()
            .iter()
            .filter(|a| a.cuts.iter().any(|(c, _)| outcome.failsafe_cuts.contains(c)))
            .count();
        rounds += 1;
        state.publish_distributed(rounds, trees_total, stale_racks);
        if let Some(step_wall) = step_wall {
            pace(step_wall, &shutdown);
        }
    }

    server.shutdown();
    deployment.shutdown();
    Ok(rounds)
}

/// Binds the agent listener and builds the room's [`WorkerDeployment`]
/// over it, running `config.allocator`. Also returns the controller's view
/// of the declared root budgets, reconciled against the oplog every round.
fn room_deployment(
    config: &DaemonConfig,
    registry: Arc<MetricsRegistry>,
) -> Result<(WorkerDeployment, Vec<capmaestro_units::Watts>), String> {
    let spec = config.rig.unwrap_or(RigSpec::Racks {
        racks: config.agents,
        servers_per_rack: 2,
    });
    let rig = build_rig(spec);
    let assignments = rig_assignments(&rig, config.agents);
    // The farm is built only to capture the per-leaf fail-safe statics;
    // the servers themselves live in the agents.
    let statics = {
        let farm = build_farm(&rig.topo);
        leaf_statics(&rig.trees, &assignments, &farm)
    };
    let transport = SocketTransport::bind(
        SocketTransportConfig::new(config.agents).with_addr(config.agent_addr.clone()),
    )
    .map_err(|e| format!("bind agent listener {}: {e}", config.agent_addr))?;
    // ci.sh and the tests parse this line for the agent port.
    println!("capmaestrod: agents connect to {}", transport.local_addr());

    let live_budgets = rig.root_budgets.clone();
    let mut deployment = WorkerDeployment::with_transport(
        rig.trees,
        rig.root_budgets,
        PolicyKind::GlobalPriority,
        assignments,
        &statics,
        Box::new(transport),
        DeploymentConfig::default().with_recorder(registry),
    );
    deployment.set_allocator(config.allocator);
    Ok((deployment, live_budgets))
}

/// Write the full retained timeline to `path` (when `--trace` was
/// given), replacing any previous boundary's file. Failures are
/// reported but never take the daemon down: tracing is best-effort
/// observability, not the control loop.
fn write_trace_file(path: Option<&std::path::Path>, trace: &TraceRecorder) {
    let Some(path) = path else {
        return;
    };
    if let Err(e) = std::fs::write(path, trace.render(None)) {
        eprintln!("capmaestrod: write trace {}: {e}", path.display());
    }
}

/// Sleep `total` in small chunks, returning early on shutdown.
fn pace(total: Duration, shutdown: &ShutdownHandle) {
    let chunk = Duration::from_millis(50);
    let deadline = Instant::now() + total;
    while !shutdown.is_requested() {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        std::thread::sleep(chunk.min(deadline - now));
    }
}

/// Watch stdin; request shutdown on EOF or a `quit` line.
fn spawn_stdin_watcher(shutdown: ShutdownHandle) {
    std::thread::Builder::new()
        .name("serve-stdin".to_string())
        .spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                match line {
                    Ok(line) if line.trim() == "quit" => break,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            shutdown.request();
        })
        .expect("spawn serve-stdin thread");
}

/// Smoke-check a running daemon: every endpoint must answer and every
/// payload must validate. Returns a human-readable transcript.
pub fn probe(addr: &str) -> Result<String, String> {
    let mut transcript = String::new();

    let metrics = client::get(addr, "/v1/metrics")?;
    if metrics.status != 200 {
        return Err(format!("/v1/metrics answered {}", metrics.status));
    }
    let page = metrics.body_str()?;
    let samples = prometheus::validate(page)
        .map_err(|e| format!("/v1/metrics payload does not validate: {e}"))?;
    transcript.push_str(&format!("/v1/metrics: 200, {samples} valid sample lines\n"));

    let health = client::get(addr, "/v1/healthz")?;
    if health.status != 200 {
        return Err(format!(
            "/v1/healthz answered {}: {}",
            health.status,
            health.body_str().unwrap_or("<binary>")
        ));
    }
    transcript.push_str(&format!("/v1/healthz: 200, {}", health.body_str()?));

    let report = client::get(addr, "/v1/report")?;
    if report.status != 200 {
        return Err(format!("/v1/report answered {}", report.status));
    }
    json::parse(report.body_str()?)
        .map_err(|e| format!("/v1/report payload does not parse as json: {e}"))?;
    transcript.push_str("/v1/report: 200, parses as a metrics snapshot\n");

    let budget = client::post(addr, "/v1/budget", b"[1240]")?;
    if budget.status != 200 {
        return Err(format!(
            "POST /v1/budget answered {}: {}",
            budget.status,
            budget.body_str().unwrap_or("<binary>")
        ));
    }
    transcript.push_str(&format!("POST /v1/budget: 200, {}", budget.body_str()?));

    let key = [("Idempotency-Key", "probe-tree0")];
    let first = client::put(addr, "/v1/trees/0/budget", &key, b"1240")?;
    if first.status != 200 {
        return Err(format!(
            "PUT /v1/trees/0/budget answered {}: {}",
            first.status,
            first.body_str().unwrap_or("<binary>")
        ));
    }
    let replay = client::put(addr, "/v1/trees/0/budget", &key, b"1240")?;
    if replay.status != 200 || !replay.body_str()?.contains("\"replayed\":true") {
        return Err(format!(
            "idempotent replay answered {}: {}",
            replay.status,
            replay.body_str().unwrap_or("<binary>")
        ));
    }
    transcript.push_str("PUT /v1/trees/0/budget: 200, idempotent replay confirmed\n");

    let events = client::get(addr, "/v1/events")?;
    if events.status != 200 {
        return Err(format!("GET /v1/events answered {}", events.status));
    }
    let events_body = events.body_str()?;
    if !events_body.trim_start().starts_with("{\"head\":") {
        return Err(format!("/v1/events payload is malformed: {events_body}"));
    }
    if !events_body.contains("set_tree_budget") {
        return Err(format!(
            "/v1/events does not show the staged tree budget: {events_body}"
        ));
    }
    transcript.push_str("GET /v1/events: 200, staged mutation is in the log\n");

    let again = client::get(addr, "/v1/metrics")?;
    if again.status != 200 {
        return Err(format!("second /v1/metrics answered {}", again.status));
    }
    prometheus::validate(again.body_str()?)
        .map_err(|e| format!("second /v1/metrics payload does not validate: {e}"))?;
    transcript.push_str("probe: all endpoints healthy\n");
    Ok(transcript)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn policy_flag_selects_the_allocator() {
        let parsed = parse_args(&args(&["--policy", "waterfilling"])).expect("valid flag");
        match parsed {
            DaemonCommand::Run(config) => {
                assert_eq!(config.allocator, AllocatorKind::Waterfilling);
            }
            other => panic!("expected Run, got {other:?}"),
        }
        // Default stays the paper's waterfall.
        match parse_args(&[]).expect("empty args") {
            DaemonCommand::Run(config) => {
                assert_eq!(config.allocator, AllocatorKind::Waterfall);
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn unknown_policy_name_is_rejected_with_the_valid_list() {
        let err = parse_args(&args(&["--policy", "bogus"])).expect_err("bogus policy");
        assert!(err.contains("bogus"), "error names the offender: {err}");
        assert!(
            err.contains("waterfall") && err.contains("fair_share"),
            "error lists the valid policies: {err}"
        );
    }

    #[test]
    fn policy_reaches_the_room_deployment() {
        let config = DaemonConfig {
            agents: 2,
            allocator: AllocatorKind::FairShare,
            ..DaemonConfig::default()
        };
        let (deployment, budgets) =
            room_deployment(&config, Arc::new(MetricsRegistry::new())).expect("ephemeral bind");
        assert_eq!(deployment.allocator(), AllocatorKind::FairShare);
        assert_eq!(budgets.len(), 1, "racks:2:2 is one single-corded feed");
        deployment.shutdown();
    }
}
