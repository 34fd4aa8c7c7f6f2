//! Graceful-shutdown ordering under load, at the socket level.
//!
//! The shutdown protocol (stop accepting → drain queued and in-flight
//! connections → join workers) promises that an accepted connection is
//! never dropped without a response. These tests hammer a live server
//! with client threads while shutdown fires, and hold it to that: every
//! client that received at least one byte must have received a
//! *complete* response (zero-byte connection-level failures are the
//! only acceptable casualty — connections the listener never accepted).
//!
//! The worker-respawn ladder is covered at both layers: a panicking
//! handler kills an `HttpServer` pool worker (which the supervisor
//! replaces, counted in `capmaestro_serve_worker_respawns_total`), and
//! the `WorkerDeployment` kill → respawn → shutdown path from
//! `capmaestro-core` is exercised with a live registry.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use capmaestro_core::obs::{names, MetricsRegistry};
use capmaestro_core::policy::PolicyKind;
use capmaestro_core::tree::ControlTree;
use capmaestro_core::workers::{shared_farm, DeploymentConfig, WorkerDeployment};
use capmaestro_serve::client;
use capmaestro_serve::http::{Request, Response};
use capmaestro_serve::{Handler, HttpConfig, HttpServer};
use capmaestro_sim::scenarios::{priority_rig, RigConfig};
use capmaestro_units::Watts;

/// One client exchange, byte-accurate: returns the raw bytes received
/// (possibly empty) or a connection-level error.
fn raw_exchange(addr: &str) -> Result<Vec<u8>, std::io::Error> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(b"GET /work HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(bytes),
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
            Err(e) => {
                if bytes.is_empty() {
                    // Connection-level failure before any byte arrived.
                    return Err(e);
                }
                // Bytes then an error: surface what we got — the caller
                // will fail it as a torn response.
                return Ok(bytes);
            }
        }
    }
}

#[test]
fn shutdown_under_load_never_tears_a_started_response() {
    // A handler slow enough that shutdown always catches requests in
    // flight.
    struct SlowHandler;
    impl Handler for SlowHandler {
        fn handle(&self, _request: &Request) -> Response {
            std::thread::sleep(Duration::from_millis(5));
            Response::text(200, "slow but complete\n")
        }
    }

    let server = HttpServer::bind(
        HttpConfig::default().with_workers(3),
        Arc::new(SlowHandler),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();

    const CLIENTS: usize = 6;
    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let addr = addr.clone();
        let stop = stop.clone();
        clients.push(std::thread::spawn(move || {
            let mut complete = 0usize;
            let mut refused = 0usize;
            while !stop.load(Ordering::Relaxed) {
                match raw_exchange(&addr) {
                    Ok(bytes) if bytes.is_empty() => refused += 1,
                    Ok(bytes) => {
                        // One byte received ⇒ the whole response must be
                        // there and well-formed.
                        let response = client::parse_response(&bytes)
                            .expect("started responses must complete");
                        assert_eq!(response.status, 200);
                        complete += 1;
                    }
                    Err(_) => refused += 1,
                }
            }
            (complete, refused)
        }));
    }

    // Let the hammering establish, then shut down mid-flight. Joining
    // through a channel bounds the wait: a drain deadlock fails the test
    // instead of hanging it.
    std::thread::sleep(Duration::from_millis(200));
    let (done_tx, done_rx) = mpsc::channel();
    let shutdown_thread = std::thread::spawn(move || {
        let mut server = server;
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown must drain and finish, not deadlock");
    shutdown_thread.join().expect("shutdown thread");

    stop.store(true, Ordering::Relaxed);
    let mut total_complete = 0usize;
    for client_thread in clients {
        let (complete, _refused) = client_thread.join().expect("client thread");
        total_complete += complete;
    }
    assert!(
        total_complete > 0,
        "the load must have produced completed responses before shutdown"
    );
}

#[test]
fn shutdown_is_idempotent_and_drop_safe() {
    struct Ok200;
    impl Handler for Ok200 {
        fn handle(&self, _request: &Request) -> Response {
            Response::text(200, "ok\n")
        }
    }
    let mut server =
        HttpServer::bind(HttpConfig::default(), Arc::new(Ok200)).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    assert_eq!(client::get(&addr, "/").expect("pre-shutdown get").status, 200);

    server.shutdown();
    server.shutdown(); // second call is a no-op
    assert!(
        client::get(&addr, "/").is_err(),
        "after shutdown the listener must be gone"
    );
    drop(server); // Drop after explicit shutdown must not hang or panic
}

#[test]
fn panicking_handler_costs_one_connection_and_the_pool_respawns() {
    struct BoomHandler;
    impl Handler for BoomHandler {
        fn handle(&self, request: &Request) -> Response {
            if request.path() == "/boom" {
                panic!("handler blew up (deliberately, for the respawn test)");
            }
            Response::text(200, "alive\n")
        }
    }

    let registry = Arc::new(MetricsRegistry::new());
    // One worker: the panic provably kills the only thread serving, so a
    // later success proves the supervisor respawned it.
    let server = HttpServer::bind(
        HttpConfig::default()
            .with_workers(1)
            .with_recorder(registry.clone()),
        Arc::new(BoomHandler),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_string();

    assert_eq!(client::get(&addr, "/ok").expect("warm-up get").status, 200);

    // The panicking request loses its own response — acceptable — but
    // must not take the server down.
    let boom = client::get(&addr, "/boom");
    assert!(boom.is_err(), "the panicked connection gets no response");

    // The respawned worker serves again. Allow the supervisor a few
    // passes to notice the dead thread.
    let mut served = false;
    for _ in 0..100 {
        if let Ok(response) = client::get(&addr, "/ok") {
            assert_eq!(response.status, 200);
            served = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(served, "pool must respawn after a handler panic");

    let snapshot = registry.snapshot();
    let respawns = snapshot
        .counters
        .iter()
        .find(|c| c.name == names::SERVE_WORKER_RESPAWNS_TOTAL)
        .map(|c| c.value)
        .unwrap_or(0);
    assert!(
        respawns >= 1,
        "respawn must be counted in {}",
        names::SERVE_WORKER_RESPAWNS_TOTAL
    );
}

#[test]
fn deployment_worker_respawn_path_survives_kill_and_shutdown() {
    let rig = priority_rig(RigConfig::table2());
    let trees: Vec<ControlTree> = rig
        .topology
        .control_tree_specs()
        .into_iter()
        .map(ControlTree::new)
        .collect();
    let registry = Arc::new(MetricsRegistry::new());
    let shared = shared_farm(rig.farm);
    let mut deployment = WorkerDeployment::spawn(
        trees,
        vec![Watts::new(1240.0)],
        PolicyKind::GlobalPriority,
        shared,
        2,
        DeploymentConfig::default()
            .with_gather_timeout(Duration::from_millis(200))
            .with_recorder(registry.clone()),
    );

    deployment.run_round(0);
    assert!(deployment.is_worker_alive(0));

    deployment.kill_worker(0);
    assert!(!deployment.is_worker_alive(0));
    // Degraded round: gather budgets from the stale-hold bridge.
    deployment.run_round(1);

    // The first attempt is never held back by the backoff.
    assert!(deployment.respawn_worker(0), "respawn must be permitted");
    assert!(deployment.is_worker_alive(0));
    assert!(
        !deployment.respawn_worker(0),
        "a live worker must not be respawned"
    );
    deployment.run_round(2);
    deployment.shutdown();

    let snapshot = registry.snapshot();
    let respawns = snapshot
        .counters
        .iter()
        .find(|c| c.name == names::WORKER_RESPAWNS_TOTAL)
        .map(|c| c.value)
        .unwrap_or(0);
    assert_eq!(respawns, 1, "exactly one deployment respawn happened");
}
