//! End-to-end tests of the socket control plane: a room controller over
//! [`SocketTransport`] driving rack agents — in-thread library agents
//! for the protocol paths, and real `capmaestro-agent` processes for the
//! bitwise socket-vs-channel differential.

use std::io::Read;
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use capmaestro_core::wire::{encode_up, frame};
use capmaestro_core::workers::leaf_statics;
use capmaestro_core::{AllocatorKind, DeploymentConfig, PolicyKind, UpMsg, WorkerDeployment};
use capmaestro_serve::agent::{run_agent, AgentConfig};
use capmaestro_serve::rig::{build_farm, build_rig, rig_assignments, RigSpec};
use capmaestro_serve::socket::{SocketTransport, SocketTransportConfig};
use capmaestro_sim::procchaos::demand_at;

/// Builds a socket-backed deployment over `spec` with `workers` expected
/// agents, returning the deployment and the controller address.
fn socket_deployment(
    spec: RigSpec,
    workers: usize,
    config: DeploymentConfig,
) -> (WorkerDeployment, String) {
    let rig = build_rig(spec);
    let assignments = rig_assignments(&rig, workers);
    let statics = {
        // A throwaway farm, built only to capture the same per-leaf
        // statics every agent's local farm will exhibit.
        let farm = build_farm(&rig.topo);
        leaf_statics(&rig.trees, &assignments, &farm)
    };
    let transport =
        SocketTransport::bind(SocketTransportConfig::new(workers)).expect("bind transport");
    let addr = transport.local_addr().to_string();
    let deployment = WorkerDeployment::with_transport(
        rig.trees,
        rig.root_budgets,
        PolicyKind::GlobalPriority,
        assignments,
        &statics,
        Box::new(transport),
        config,
    );
    (deployment, addr)
}

/// Spawns a library agent on a thread (same wire protocol as the
/// binary, no process overhead).
fn thread_agent(addr: &str, worker: usize, workers: usize, spec: RigSpec) -> thread::JoinHandle<()> {
    let config = AgentConfig::new(addr.to_string(), worker, workers, spec);
    thread::Builder::new()
        .name(format!("test-agent-{worker}"))
        .spawn(move || {
            run_agent(&config).expect("agent exits on controller shutdown");
        })
        .expect("spawn test agent")
}

#[test]
fn fleet_connects_and_runs_rounds() {
    let spec = RigSpec::Fig2;
    let workers = 2;
    let (mut deployment, addr) =
        socket_deployment(spec, workers, DeploymentConfig::default());
    let agents: Vec<_> = (0..workers)
        .map(|w| thread_agent(&addr, w, workers, spec))
        .collect();

    // Wait for the fleet before round 0 so no round rides fail-safe.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !(0..workers).all(|w| deployment.is_worker_alive(w)) {
        assert!(Instant::now() < deadline, "fleet never connected");
        thread::sleep(Duration::from_millis(5));
    }

    let mut last = None;
    for round in 0..5 {
        let outcome = deployment.run_round(round);
        assert!(
            outcome.failsafe_cuts.is_empty(),
            "round {round} unexpectedly fail-safe: {:?}",
            outcome.failsafe_cuts
        );
        assert!(deployment.advance(1), "advance must ack");
        last = Some(outcome);
    }
    let last = last.expect("ran rounds");
    // Fig. 2 has two cut nodes (left and right CB), both budgeted.
    assert_eq!(last.cut_budgets.len(), 2);
    assert!(last.cut_budgets.iter().all(|&(_, b)| b.as_f64() > 0.0));
    assert_eq!(deployment.transport_violations(), 0);

    deployment.shutdown();
    for agent in agents {
        agent.join().expect("agent thread exits cleanly");
    }
}

#[test]
fn handshake_rejects_wrong_fleet_shape() {
    let (deployment, addr) = socket_deployment(RigSpec::Fig2, 2, DeploymentConfig::default());

    // Fleet-size mismatch: the controller must close without welcoming.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let hello = encode_up(&UpMsg::Hello {
        worker: 0,
        workers_total: 3,
    });
    use std::io::Write as _;
    stream.write_all(&frame(&hello)).expect("send hello");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    let mut buf = [0u8; 64];
    let n = stream.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "controller must close on a fleet-shape mismatch");
    assert!(!deployment.is_worker_alive(0));

    // Out-of-range worker index: same.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let hello = encode_up(&UpMsg::Hello {
        worker: 9,
        workers_total: 2,
    });
    stream.write_all(&frame(&hello)).expect("send hello");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    let n = stream.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "controller must close on a bad worker index");

    deployment.shutdown();
}

#[test]
fn garbage_after_handshake_tears_the_connection_down() {
    let (deployment, addr) = socket_deployment(RigSpec::Fig2, 1, DeploymentConfig::default());

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let hello = encode_up(&UpMsg::Hello {
        worker: 0,
        workers_total: 1,
    });
    use std::io::Write as _;
    stream.write_all(&frame(&hello)).expect("send hello");
    // Welcome comes back; then we turn hostile.
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    let mut buf = [0u8; 64];
    let n = stream.read(&mut buf).expect("welcome frame");
    assert!(n > 0, "expected a welcome");
    let deadline = Instant::now() + Duration::from_secs(2);
    while !deployment.is_worker_alive(0) {
        assert!(Instant::now() < deadline, "worker never registered");
        thread::sleep(Duration::from_millis(5));
    }

    // A 16 MiB length prefix: hostile, over the frame cap.
    stream
        .write_all(&(16u32 << 20).to_le_bytes())
        .expect("hostile prefix");
    let deadline = Instant::now() + Duration::from_secs(2);
    while deployment.is_worker_alive(0) {
        assert!(
            Instant::now() < deadline,
            "garbage must kill the connection"
        );
        thread::sleep(Duration::from_millis(5));
    }

    deployment.shutdown();
}

#[test]
fn shutdown_rack_degrades_to_failsafe_and_recovers_on_reconnect() {
    let spec = RigSpec::Racks {
        racks: 2,
        servers_per_rack: 2,
    };
    let workers = 2;
    let config = DeploymentConfig::default()
        .with_gather_timeout(Duration::from_millis(300))
        .with_stale_after_rounds(2);
    let (mut deployment, addr) = socket_deployment(spec, workers, config);
    let a0 = thread_agent(&addr, 0, workers, spec);
    let a1 = thread_agent(&addr, 1, workers, spec);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !(0..workers).all(|w| deployment.is_worker_alive(w)) {
        assert!(Instant::now() < deadline, "fleet never connected");
        thread::sleep(Duration::from_millis(5));
    }

    let mut round = 0u64;
    for _ in 0..3 {
        let outcome = deployment.run_round(round);
        assert!(outcome.failsafe_cuts.is_empty());
        deployment.advance(1);
        round += 1;
    }

    // Kill worker 0: terminal shutdown; its agent exits for good.
    deployment.kill_worker(0);
    a0.join().expect("killed agent exits");

    // Stale-hold bridges the first rounds, then its cuts go fail-safe.
    let worker0_cuts: Vec<_> = deployment.assignments()[0]
        .cuts
        .iter()
        .map(|&(cut, _)| cut)
        .collect();
    let mut saw_failsafe = false;
    for _ in 0..4 {
        let outcome = deployment.run_round(round);
        deployment.advance(1);
        round += 1;
        if worker0_cuts.iter().all(|c| outcome.failsafe_cuts.contains(c)) {
            saw_failsafe = true;
        }
    }
    assert!(saw_failsafe, "dead rack must reach the fail-safe rung");

    // A fresh agent process (thread) reconnects; recovery is automatic.
    let a0b = thread_agent(&addr, 0, workers, spec);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !deployment.is_worker_alive(0) {
        assert!(Instant::now() < deadline, "agent never reconnected");
        thread::sleep(Duration::from_millis(5));
    }
    let mut recovered = false;
    for _ in 0..4 {
        let outcome = deployment.run_round(round);
        deployment.advance(1);
        round += 1;
        if outcome.failsafe_cuts.is_empty() {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "reconnected rack must leave fail-safe");

    deployment.shutdown();
    a1.join().expect("agent 1 exits on shutdown");
    a0b.join().expect("reconnected agent exits on shutdown");
}

/// Spawns a real `capmaestro-agent` process against `addr`.
fn spawn_agent_process(addr: &str, worker: usize, workers: usize, spec: RigSpec, seed: u64) -> Child {
    Command::new(env!("CARGO_BIN_EXE_capmaestro-agent"))
        .args([
            "--connect",
            addr,
            "--worker",
            &worker.to_string(),
            "--workers-total",
            &workers.to_string(),
            "--rig",
            &spec.to_arg(),
            "--demand-seed",
            &seed.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn capmaestro-agent")
}

#[test]
fn socket_processes_match_channel_transport_bitwise() {
    for allocator in [AllocatorKind::Waterfall, AllocatorKind::FairShare] {
        socket_matches_channel_bitwise(allocator);
    }
}

/// One socket-vs-channel differential run under `allocator`, which both
/// deployments name to their racks in every `Gather`.
fn socket_matches_channel_bitwise(allocator: AllocatorKind) {
    let spec = RigSpec::Racks {
        racks: 4,
        servers_per_rack: 3,
    };
    let workers = 4;
    let seed = 7u64;
    let rounds = 12u64;

    // Reference: the in-process channel deployment over the full farm,
    // with the same seeded demand schedule applied before each advance.
    let reference: Vec<String> = {
        let rig = build_rig(spec);
        let farm = capmaestro_core::workers::shared_farm(build_farm(&rig.topo));
        let mut deployment = WorkerDeployment::spawn(
            rig.trees,
            rig.root_budgets,
            PolicyKind::GlobalPriority,
            farm.clone(),
            workers,
            DeploymentConfig::default(),
        );
        deployment.set_allocator(allocator);
        let mut lines = Vec::new();
        for round in 0..rounds {
            lines.push(deployment.run_round(round).wire_line());
            {
                let mut guard = farm.write();
                let ids: Vec<_> = guard.ids().to_vec();
                for id in ids {
                    if let Some(demand) = demand_at(seed, id, round) {
                        guard.get_mut(id).unwrap().set_offered_demand(demand);
                    }
                }
            }
            assert!(deployment.advance(1));
        }
        deployment.shutdown();
        lines
    };

    // Subject: the same deployment logic over agent *processes*.
    let config = DeploymentConfig::default().with_gather_timeout(Duration::from_secs(5));
    let (mut deployment, addr) = socket_deployment(spec, workers, config);
    deployment.set_allocator(allocator);
    let children: Vec<Child> = (0..workers)
        .map(|w| spawn_agent_process(&addr, w, workers, spec, seed))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !(0..workers).all(|w| deployment.is_worker_alive(w)) {
        assert!(Instant::now() < deadline, "agent fleet never connected");
        thread::sleep(Duration::from_millis(10));
    }

    let mut lines = Vec::new();
    for round in 0..rounds {
        let outcome = deployment.run_round(round);
        assert!(
            outcome.failsafe_cuts.is_empty(),
            "fault-free run must never ride fail-safe (round {round})"
        );
        lines.push(outcome.wire_line());
        assert!(deployment.advance(1), "advance must ack (round {round})");
    }
    assert_eq!(deployment.transport_violations(), 0);
    deployment.shutdown();

    for child in children {
        let out = child.wait_with_output().expect("agent exits");
        assert!(
            out.status.success(),
            "agent failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("violations_total=0"),
            "agent reported violations: {stdout}"
        );
    }

    assert_eq!(
        lines, reference,
        "{allocator}: socket rounds must be bit-identical to channel rounds"
    );
}
