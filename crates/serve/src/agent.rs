//! The rack agent: one rack worker as its own OS process.
//!
//! An agent builds the same rig as its room controller (see
//! [`crate::rig`]), claims its [`RackAssignment`] by worker index, and
//! owns a *local* farm of exactly the servers assigned to it — the
//! process boundary is also the simulation boundary, which is what the
//! server-disjointness of
//! [`rack_assignments`](capmaestro_core::workers::rack_assignments)
//! guarantees is safe.
//!
//! The loop is connection-scoped but the worker state is not: the
//! [`RackWorker`] (estimators, controllers) and the farm survive
//! reconnects, so a blip costs staleness, not history. Reconnection is
//! outbound with jittered exponential backoff; a received
//! [`DownMsg::Shutdown`] is terminal and the agent exits instead of
//! reconnecting.

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use capmaestro_core::obs::{names, null_recorder, Recorder};
use capmaestro_core::wire::{decode_down, encode_up};
use capmaestro_core::{DownMsg, Farm, RackWorker, UpMsg};
use capmaestro_sim::procchaos::demand_at;
use capmaestro_units::Seconds;

use crate::frame::{write_frame, FrameReader};
use crate::rig::{build_owned_farm, build_rig, rig_assignments, RigSpec};

/// Configuration of one agent process.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Controller address to connect to.
    pub addr: String,
    /// This agent's worker index in `[0, workers_total)`.
    pub worker: usize,
    /// Fleet size; must match the controller's.
    pub workers_total: usize,
    /// The rig both sides build.
    pub rig: RigSpec,
    /// Liveness probe period.
    pub heartbeat_interval: Duration,
    /// First reconnect backoff; doubles per failure.
    pub reconnect_base: Duration,
    /// Backoff ceiling.
    pub reconnect_cap: Duration,
    /// Consecutive failed connection attempts before giving up; `None`
    /// retries forever (the daemon default — a partitioned agent's job
    /// is to keep trying).
    pub max_connect_attempts: Option<u64>,
    /// Seed of the [`demand_at`] schedule applied while advancing, or
    /// `None` to hold demand constant.
    pub demand_seed: Option<u64>,
    /// Metrics sink ([`names::AGENT_RECONNECTS_TOTAL`],
    /// [`names::AGENT_HEARTBEAT_RTT_SECONDS`]).
    pub recorder: Arc<dyn Recorder>,
}

impl AgentConfig {
    /// An agent for worker `worker` of `workers_total`, connecting to
    /// `addr`, with test/bench-friendly defaults (100 ms heartbeats,
    /// 50 ms–1 s backoff, unlimited retries).
    pub fn new(addr: impl Into<String>, worker: usize, workers_total: usize, rig: RigSpec) -> Self {
        AgentConfig {
            addr: addr.into(),
            worker,
            workers_total,
            rig,
            heartbeat_interval: Duration::from_millis(100),
            reconnect_base: Duration::from_millis(50),
            reconnect_cap: Duration::from_secs(1),
            max_connect_attempts: None,
            demand_seed: None,
            recorder: null_recorder(),
        }
    }
}

/// What an agent did over its lifetime, reported on clean exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AgentReport {
    /// Rounds whose budgets this agent enforced.
    pub rounds_enforced: u64,
    /// Advance commands executed.
    pub advances: u64,
    /// Local invariant violations observed (also reported upstream in
    /// every [`UpMsg::Advanced`]).
    pub violations_total: u64,
    /// Times the agent re-established its controller connection after
    /// losing an established one.
    pub reconnects: u64,
}

/// Runs the agent until the controller says [`DownMsg::Shutdown`] or the
/// connection budget runs out.
///
/// Returns `Err` on configuration errors (bad worker index, fleet-shape
/// mismatch with the controller) and on connection exhaustion.
pub fn run_agent(config: &AgentConfig) -> Result<AgentReport, String> {
    if config.worker >= config.workers_total {
        return Err(format!(
            "worker index {} out of range for a fleet of {}",
            config.worker, config.workers_total
        ));
    }
    let rig = build_rig(config.rig);
    let assignments = rig_assignments(&rig, config.workers_total);
    let assignment = assignments[config.worker].clone();
    let mut farm = build_owned_farm(&assignment.owned);
    let mut worker = RackWorker::new(
        assignment,
        rig.trees,
        capmaestro_core::PolicyKind::GlobalPriority,
    );

    let mut report = AgentReport::default();
    let mut session = SessionState::default();
    let mut established_once = false;
    let mut attempts = 0u64;
    let mut backoff = config.reconnect_base;
    loop {
        match connect(config) {
            Ok(stream) => {
                if established_once {
                    report.reconnects += 1;
                    config.recorder.counter_add(names::AGENT_RECONNECTS_TOTAL, 1);
                }
                established_once = true;
                attempts = 0;
                backoff = config.reconnect_base;
                match serve_connection(stream, config, &mut worker, &mut farm, &mut report, &mut session) {
                    SessionEnd::Shutdown => return Ok(report),
                    SessionEnd::ConnectionLost => {}
                    SessionEnd::FleetMismatch(e) => return Err(e),
                }
            }
            Err(e) => {
                attempts += 1;
                if config.max_connect_attempts.is_some_and(|max| attempts >= max) {
                    return Err(format!(
                        "gave up connecting to {} after {attempts} attempts: {e}",
                        config.addr
                    ));
                }
            }
        }
        std::thread::sleep(jittered(backoff, config.worker as u64, attempts));
        backoff = (backoff * 2).min(config.reconnect_cap);
    }
}

/// Worker state that must survive reconnects but not restarts.
#[derive(Debug, Default)]
struct SessionState {
    /// Advance commands executed since process start: the round index of
    /// the demand schedule.
    advance_ordinal: u64,
    /// Heartbeat nonce sequence.
    next_nonce: u64,
}

/// Why a connection ended.
enum SessionEnd {
    /// The controller ordered a terminal shutdown.
    Shutdown,
    /// I/O failure — reconnect.
    ConnectionLost,
    /// The controller runs a different fleet shape — fatal.
    FleetMismatch(String),
}

fn connect(config: &AgentConfig) -> Result<TcpStream, String> {
    let addr = config
        .addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {}: {e}", config.addr))?
        .next()
        .ok_or_else(|| format!("{} resolves to nothing", config.addr))?;
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Pumps one established connection: handshake, then frames until the
/// connection dies or the controller says shutdown.
fn serve_connection(
    mut stream: TcpStream,
    config: &AgentConfig,
    worker: &mut RackWorker,
    farm: &mut Farm,
    report: &mut AgentReport,
    session: &mut SessionState,
) -> SessionEnd {
    let mut reader = FrameReader::new();
    let hello = encode_up(&UpMsg::Hello {
        worker: config.worker,
        workers_total: config.workers_total,
    });
    if write_frame(&mut stream, &hello, Duration::from_secs(2)).is_err() {
        return SessionEnd::ConnectionLost;
    }
    match read_msg(&mut reader, &mut stream, Instant::now() + Duration::from_secs(5)) {
        Ok(Some(DownMsg::Welcome { workers_total })) => {
            if workers_total != config.workers_total {
                return SessionEnd::FleetMismatch(format!(
                    "controller runs {} workers, agent configured for {}",
                    workers_total, config.workers_total
                ));
            }
        }
        Ok(Some(DownMsg::Shutdown)) => return SessionEnd::Shutdown,
        // No Welcome: the controller refused the slot (live duplicate) or
        // died mid-handshake. Back off and retry.
        Ok(Some(_)) | Ok(None) | Err(_) => return SessionEnd::ConnectionLost,
    }

    let mut next_heartbeat = Instant::now() + config.heartbeat_interval;
    // nonce -> send time of the heartbeat in flight.
    let mut in_flight: Option<(u64, Instant)> = None;
    loop {
        let msg = match read_msg(&mut reader, &mut stream, next_heartbeat) {
            Ok(msg) => msg,
            Err(_) => return SessionEnd::ConnectionLost,
        };
        match msg {
            None => {} // heartbeat tick
            Some(DownMsg::Gather { round, allocator }) => {
                worker.set_allocator(allocator);
                let metrics = worker.gather(farm);
                let up = encode_up(&UpMsg::Metrics {
                    worker: config.worker,
                    round,
                    metrics,
                });
                if write_frame(&mut stream, &up, Duration::from_secs(1)).is_err() {
                    return SessionEnd::ConnectionLost;
                }
            }
            Some(DownMsg::Budgets { round, budgets }) => {
                worker.enforce(farm, &budgets);
                report.rounds_enforced += 1;
                let up = encode_up(&UpMsg::Enforced {
                    worker: config.worker,
                    round,
                });
                if write_frame(&mut stream, &up, Duration::from_secs(1)).is_err() {
                    return SessionEnd::ConnectionLost;
                }
            }
            Some(DownMsg::Advance { seconds }) => {
                if let Some(seed) = config.demand_seed {
                    apply_demand_schedule(farm, seed, session.advance_ordinal);
                }
                for _ in 0..seconds {
                    farm.step_all(Seconds::new(1.0));
                }
                report.violations_total += audit_owned(farm);
                session.advance_ordinal += 1;
                report.advances += 1;
                let up = encode_up(&UpMsg::Advanced {
                    worker: config.worker,
                    seconds,
                    violations_total: report.violations_total,
                });
                if write_frame(&mut stream, &up, Duration::from_secs(1)).is_err() {
                    return SessionEnd::ConnectionLost;
                }
            }
            Some(DownMsg::HeartbeatAck { nonce }) => {
                if let Some((expected, sent)) = in_flight {
                    if nonce == expected {
                        config
                            .recorder
                            .observe(names::AGENT_HEARTBEAT_RTT_SECONDS, sent.elapsed().as_secs_f64());
                        in_flight = None;
                    }
                }
            }
            Some(DownMsg::Welcome { .. }) => {} // duplicate, harmless
            Some(DownMsg::Shutdown) => return SessionEnd::Shutdown,
        }
        if Instant::now() >= next_heartbeat {
            let nonce = session.next_nonce;
            session.next_nonce += 1;
            let up = encode_up(&UpMsg::Heartbeat {
                worker: config.worker,
                nonce,
            });
            if write_frame(&mut stream, &up, Duration::from_secs(1)).is_err() {
                return SessionEnd::ConnectionLost;
            }
            in_flight = Some((nonce, Instant::now()));
            next_heartbeat = Instant::now() + config.heartbeat_interval;
        }
    }
}

/// Reads and decodes one downstream message, or `None` on deadline.
fn read_msg(
    reader: &mut FrameReader,
    stream: &mut TcpStream,
    deadline: Instant,
) -> Result<Option<DownMsg>, ()> {
    match reader.read_frame(stream, deadline) {
        Ok(Some(payload)) => decode_down(&payload).map(Some).map_err(|_| ()),
        Ok(None) => Ok(None),
        Err(_) => Err(()),
    }
}

/// Applies the seeded demand schedule to every owned server.
fn apply_demand_schedule(farm: &mut Farm, seed: u64, ordinal: u64) {
    let ids: Vec<_> = farm.ids().to_vec();
    for id in ids {
        if let Some(demand) = demand_at(seed, id, ordinal) {
            if let Some(mut srv) = farm.get_mut(id) {
                srv.set_offered_demand(demand);
            }
        }
    }
}

/// Local invariant audit over the owned servers, the agent-side stand-in
/// for the central `InvariantTracker`: physical state must stay sane.
/// Commanded DC caps may legally sit outside `[Pcap_min, Pcap_max]` (the
/// node manager clamps at actuation), so the audit checks what a server
/// can never legitimately do: non-finite or negative power, a powered
/// server drawing beyond `Pcap_max` once throttling has anything to say,
/// or a throttle outside `[0, 1]`. Returns the breaches found this pass.
fn audit_owned(farm: &Farm) -> u64 {
    let mut breaches = 0u64;
    let eps = 1e-6;
    for (_, srv) in farm.iter() {
        let ac = srv.achieved_ac().as_f64();
        if !ac.is_finite() || ac < -eps {
            breaches += 1;
        }
        let model = srv.config().model();
        // Achieved DC power can never exceed Pcap_max; AC adds only
        // conversion loss, bounded by the bank's worst-case efficiency.
        let ac_ceiling = model.cap_max().as_f64() / srv.config().efficiency().as_f64().max(1e-3);
        if srv.is_powered() && ac > ac_ceiling * (1.0 + 1e-3) {
            breaches += 1;
        }
        let throttle = srv.throttle().as_f64();
        if !(0.0..=1.0 + 1e-9).contains(&throttle) {
            breaches += 1;
        }
    }
    breaches
}

/// Deterministic jitter: the backoff ±25 %, keyed on worker and attempt
/// so a partitioned fleet does not reconnect in lockstep.
fn jittered(base: Duration, worker: u64, attempt: u64) -> Duration {
    let mut x = worker
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(attempt)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 31;
    let frac = (x % 1000) as f64 / 1000.0; // [0, 1)
    base.mul_f64(0.75 + frac * 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_stays_within_band() {
        let base = Duration::from_millis(100);
        for worker in 0..8 {
            for attempt in 0..8 {
                let j = jittered(base, worker, attempt);
                assert!(j >= Duration::from_millis(75), "{j:?}");
                assert!(j <= Duration::from_millis(125), "{j:?}");
            }
        }
    }

    #[test]
    fn bad_worker_index_is_rejected() {
        let config = AgentConfig::new("127.0.0.1:1", 3, 2, RigSpec::Fig2);
        let err = run_agent(&config).expect_err("out-of-range index");
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn connect_exhaustion_reports_failure() {
        // Nothing listens on a bound-then-dropped ephemeral port.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let mut config = AgentConfig::new(addr, 0, 1, RigSpec::Fig2);
        config.max_connect_attempts = Some(2);
        config.reconnect_base = Duration::from_millis(1);
        let err = run_agent(&config).expect_err("nothing to connect to");
        assert!(err.contains("gave up"), "{err}");
    }
}
