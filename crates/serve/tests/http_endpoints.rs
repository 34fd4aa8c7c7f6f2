//! Socket-level tests of the serving endpoints: a real `HttpServer` on an
//! ephemeral port in front of a live `sim::Engine`, exercised with real
//! TCP connections through the crate's blocking client.

use std::sync::Arc;
use std::time::Duration;

use capmaestro_core::obs::{json, prometheus, MetricsRegistry};
use capmaestro_serve::client;
use capmaestro_serve::daemon::drive_second;
use capmaestro_serve::{HttpConfig, HttpServer, Router, ServeState};
use capmaestro_sim::scenarios::{priority_rig, stranded_rig, RigConfig};
use capmaestro_sim::Engine;

/// An engine + serve stack on an ephemeral port. The engine stays on the
/// test thread (mirroring the daemon, which steps it on main).
struct Stack {
    engine: Engine,
    state: Arc<ServeState>,
    server: HttpServer,
}

impl Stack {
    /// Build the Table 2 priority rig behind a fresh server.
    fn priority() -> Stack {
        Stack::new(Engine::new(priority_rig(RigConfig::table2().with_spo(true))))
    }

    /// Build the Table 3 stranded-power rig (two trees) behind a server.
    fn stranded() -> Stack {
        Stack::new(Engine::new(stranded_rig(RigConfig::table3())))
    }

    fn new(mut engine: Engine) -> Stack {
        let registry = Arc::new(MetricsRegistry::new());
        engine.plane_mut().set_recorder(registry.clone());
        let state = Arc::new(ServeState::new(
            registry.clone(),
            engine.control_period_s(),
        ));
        let router = Router::new(state.clone(), registry.clone());
        let server = HttpServer::bind(HttpConfig::default(), Arc::new(router))
            .expect("bind ephemeral port");
        Stack {
            engine,
            state,
            server,
        }
    }

    fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// Advance `seconds` of simulated time, exactly as the daemon does.
    fn drive(&mut self, seconds: u64) {
        for _ in 0..seconds {
            drive_second(&mut self.engine, &self.state);
        }
    }
}

#[test]
fn metrics_endpoint_serves_a_valid_prometheus_page() {
    let mut stack = Stack::priority();
    stack.drive(17); // three control rounds at the 8 s period

    let response = client::get(&stack.addr(), "/v1/metrics").expect("scrape /v1/metrics");
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("content-type"),
        Some(prometheus::CONTENT_TYPE)
    );
    let page = response.body_str().expect("utf-8 page");
    let samples = prometheus::validate(page).expect("exposition-grammar valid");
    assert!(samples > 0, "page should carry samples, got none:\n{page}");
    assert!(
        page.contains("capmaestro_rounds_total"),
        "live registry metrics missing from page"
    );
}

#[test]
fn report_endpoint_round_trips_through_the_json_parser() {
    let mut stack = Stack::priority();

    // Before any round: 503, not a broken payload.
    let early = client::get(&stack.addr(), "/v1/report").expect("early /v1/report");
    assert_eq!(early.status, 503);

    stack.drive(9); // two rounds (t=0 and t=8)
    let response = client::get(&stack.addr(), "/v1/report").expect("get /v1/report");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("content-type"), Some(json::CONTENT_TYPE));
    let parsed = json::parse(response.body_str().expect("utf-8 body"))
        .expect("report json parses as a metrics snapshot");
    let root = parsed
        .gauges
        .iter()
        .find(|g| g.name.contains("capmaestro_report_tree_root_watts"))
        .expect("report carries the root budget gauge");
    assert_eq!(root.value, 1240.0, "Table 2 rig runs a 1240 W root budget");
}

#[test]
fn report_carries_the_policy_label_and_still_parses() {
    let mut stack = Stack::priority();
    // Rebuild the state with a policy label, as the daemon does.
    let registry = stack.state.registry().clone();
    let state = Arc::new(
        ServeState::new(registry.clone(), stack.engine.control_period_s())
            .with_policy_label("waterfilling"),
    );
    let router = Router::new(state.clone(), registry);
    let server =
        HttpServer::bind(HttpConfig::default(), Arc::new(router)).expect("bind labeled server");
    let addr = server.local_addr().to_string();

    for _ in 0..9 {
        drive_second(&mut stack.engine, &state);
    }
    let response = client::get(&addr, "/v1/report").expect("get /v1/report");
    assert_eq!(response.status, 200);
    let body = response.body_str().expect("utf-8 body");
    assert!(
        body.contains("\"policy\": \"waterfilling\""),
        "report must name the active allocator: {body}"
    );
    json::parse(body).expect("labeled report still parses as a metrics snapshot");
}

/// Unhealthy before the first round, healthy once rounds run. The flip
/// back when rounds stall past the staleness window is `ServeState`'s
/// unit test (the window is at least 3 wall-clock seconds).
#[test]
fn healthz_reports_unhealthy_then_ok_once_rounds_run() {
    let mut stack = Stack::priority();
    let addr = stack.addr();

    // No round yet: unhealthy from the start.
    let before = client::get(&addr, "/v1/healthz").expect("initial /v1/healthz");
    assert_eq!(before.status, 503);
    let body = before.body_str().expect("utf-8 health").to_string();
    assert!(body.contains("\"status\":\"unhealthy\""), "body: {body}");

    stack.drive(9);
    let healthy = client::get(&addr, "/v1/healthz").expect("healthy /v1/healthz");
    assert_eq!(healthy.status, 200);
    let body = healthy.body_str().expect("utf-8 health").to_string();
    assert!(body.contains("\"status\":\"ok\""), "body: {body}");
    assert!(body.contains("\"rounds_total\":2"), "body: {body}");
}

#[test]
fn posted_budget_is_applied_at_the_next_round_boundary() {
    let mut stack = Stack::stranded();
    stack.drive(9); // rounds at t=0 and t=8 under the default 700 W feeds

    let before = stack.engine.plane().root_budgets_now();
    assert_eq!(before.len(), 2);
    assert_eq!(before[0].as_f64(), 700.0);

    let response =
        client::post(&stack.addr(), "/v1/budget", b"[650, 620]").expect("post /v1/budget");
    assert_eq!(
        response.status,
        200,
        "body: {:?}",
        response.body_str().unwrap_or("<binary>")
    );

    // Not applied mid-period: the engine picks it up at the boundary.
    stack.drive(7); // clock reaches 16; steps 9..=15 fire no round
    assert_eq!(stack.engine.plane().root_budgets_now()[0].as_f64(), 700.0);

    stack.drive(1); // the t=16 step fires the round with the staged budgets
    let after = stack.engine.plane().root_budgets_now();
    assert_eq!(after[0].as_f64(), 650.0);
    assert_eq!(after[1].as_f64(), 620.0);

    let report = stack.engine.last_round_report().expect("round report");
    assert_eq!(report.allocations[0].node_budget(0).as_f64(), 650.0);
    assert_eq!(report.allocations[1].node_budget(0).as_f64(), 620.0);
}

#[test]
fn bad_budget_payloads_are_rejected_with_400() {
    let mut stack = Stack::stranded();
    stack.drive(1);
    let addr = stack.addr();

    for (body, why) in [
        (&b"[700]"[..], "wrong arity for a two-tree rig"),
        (b"[700, 700, 700]", "wrong arity the other way"),
        (b"[700, -5]", "below the lower bound"),
        (b"[700, 99999999]", "above the upper bound"),
        (b"[700, NaN]", "not a number"),
        (b"{\"watts\": 700}", "not an array"),
        (b"", "empty body"),
    ] {
        let response = client::post(&addr, "/v1/budget", body).expect("post /v1/budget");
        assert_eq!(response.status, 400, "expected 400 for {why}");
    }
    // None of those staged anything.
    stack.drive(8);
    assert_eq!(stack.engine.plane().root_budgets_now()[0].as_f64(), 700.0);
}

#[test]
fn unknown_paths_and_wrong_methods_get_404_and_405() {
    let mut stack = Stack::priority();
    stack.drive(1);
    let addr = stack.addr();

    assert_eq!(client::get(&addr, "/nope").expect("404 get").status, 404);
    assert_eq!(
        client::post(&addr, "/v1/metrics", b"").expect("405 post").status,
        405
    );
    assert_eq!(client::get(&addr, "/v1/budget").expect("405 get").status, 405);
    // Query strings route to the path.
    assert_eq!(
        client::get(&addr, "/v1/healthz?verbose=1")
            .expect("query get")
            .status,
        200
    );
}

#[test]
fn concurrent_scrapes_see_complete_valid_expositions_while_engine_steps() {
    let mut stack = Stack::priority();
    stack.drive(1);
    let addr = stack.addr();

    const SCRAPERS: usize = 4;
    const SCRAPES_EACH: usize = 25;
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut scrapers = Vec::new();
    for _ in 0..SCRAPERS {
        let addr = addr.clone();
        let stop = stop.clone();
        scrapers.push(std::thread::spawn(move || {
            let mut ok = 0usize;
            for _ in 0..SCRAPES_EACH {
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
                let response = client::get(&addr, "/v1/metrics").expect("scrape under load");
                assert_eq!(response.status, 200);
                let page = response.body_str().expect("utf-8 page");
                prometheus::validate(page).expect("complete valid exposition under load");
                ok += 1;
            }
            ok
        }));
    }

    // Step the engine the whole time the scrapers hammer it.
    for _ in 0..40 {
        drive_second(&mut stack.engine, &stack.state);
        std::thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);

    let mut total = 0usize;
    for scraper in scrapers {
        total += scraper.join().expect("scraper thread");
    }
    assert!(total > 0, "at least some scrapes must have completed");
}
