//! Socket-level tests of the versioned `/v1` operator API: the event
//! log behind the mutation endpoints, idempotency keys, round-boundary
//! reconciliation, the retired unversioned paths, and the shared JSON
//! error envelope.

use std::sync::Arc;

use capmaestro_core::obs::trace::{self, TraceRecorder};
use capmaestro_core::obs::{MetricsRegistry, Recorder};
use capmaestro_serve::client;
use capmaestro_serve::daemon::drive_second;
use capmaestro_serve::{HttpConfig, HttpServer, Router, ServeState};
use capmaestro_sim::scenarios::{priority_rig, stranded_rig, RigConfig};
use capmaestro_sim::Engine;
use capmaestro_topology::Priority;

/// An engine + serve stack on an ephemeral port, as in http_endpoints.rs.
struct Stack {
    engine: Engine,
    state: Arc<ServeState>,
    server: HttpServer,
}

impl Stack {
    /// The Table 2 priority rig (one tree, four servers, 8 s period).
    fn priority() -> Stack {
        Stack::new(Engine::new(priority_rig(RigConfig::table2())))
    }

    /// The Table 3 stranded rig (two trees at 700 W, 8 s period).
    fn stranded() -> Stack {
        Stack::new(Engine::new(stranded_rig(RigConfig::table3())))
    }

    fn new(mut engine: Engine) -> Stack {
        let registry = Arc::new(MetricsRegistry::new());
        // As the daemon wires it: the trace recorder buffers the
        // timeline and forwards every metric call to the registry.
        let tracer = Arc::new(
            TraceRecorder::new().with_forward(registry.clone() as Arc<dyn Recorder>),
        );
        engine.plane_mut().set_recorder(tracer.clone());
        let state = Arc::new(ServeState::new(
            registry.clone(),
            engine.control_period_s(),
        ));
        let router = Router::new(state.clone(), registry.clone()).with_trace(tracer);
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
fn unversioned_paths_are_gone_and_answer_404_in_the_envelope() {
    let mut stack = Stack::priority();
    stack.drive(9);
    let addr = stack.addr();

    let old = [
        client::get(&addr, "/metrics").expect("old metrics path"),
        client::get(&addr, "/healthz").expect("old healthz path"),
        client::get(&addr, "/report").expect("old report path"),
        client::post(&addr, "/budget", b"[1240]").expect("old budget path"),
        client::put(&addr, "/metrics", &[], b"").expect("old path, other method"),
    ];
    for response in old {
        assert_eq!(response.status, 404);
        let body = response.body_str().expect("utf-8");
        assert!(
            body.starts_with("{\"error\":{\"code\":\"not_found\""),
            "body: {body}"
        );
    }
    // The /v1 paths they stood for still serve, and nothing was staged.
    for path in ["/v1/metrics", "/v1/healthz", "/v1/report"] {
        let status = client::get(&addr, path).expect("v1 path").status;
        assert_eq!(status, 200, "{path}");
    }
    let events = client::get(&addr, "/v1/events").expect("events");
    assert!(events.body_str().expect("utf-8").starts_with("{\"head\":0"));
}

#[test]
fn tree_budget_put_lands_at_the_next_round_boundary_and_only_on_that_tree() {
    let mut stack = Stack::stranded();
    stack.drive(9); // rounds at t=0 and t=8

    let response = client::put(
        &stack.addr(),
        "/v1/trees/1/budget",
        &[],
        b"{\"watts\": 640}",
    )
    .expect("put tree budget");
    assert_eq!(
        response.status,
        200,
        "body: {:?}",
        response.body_str().unwrap_or("<binary>")
    );

    // Not applied mid-period.
    stack.drive(6); // t = 15, still inside the period
    let mid = stack.engine.plane().root_budgets_now();
    assert_eq!(mid[1].as_f64(), 700.0);

    // Applied exactly at the t=16 boundary, tree 0 untouched.
    stack.drive(2);
    let after = stack.engine.plane().root_budgets_now();
    assert_eq!(after[0].as_f64(), 700.0);
    assert_eq!(after[1].as_f64(), 640.0);
}

#[test]
fn idempotency_keys_replay_equal_ops_and_conflict_on_different_ones() {
    let mut stack = Stack::stranded();
    stack.drive(1);
    let addr = stack.addr();
    let key = [("Idempotency-Key", "roll-2026-08")];

    let first = client::put(&addr, "/v1/trees/0/budget", &key, b"660").expect("first put");
    assert_eq!(first.status, 200);
    let first_body = first.body_str().expect("utf-8").to_string();
    assert!(first_body.contains("\"replayed\":false"), "{first_body}");

    // Same key, same op: replayed, same seq, nothing appended.
    let head_before = stack.state.oplog_head();
    let retry = client::put(&addr, "/v1/trees/0/budget", &key, b"660").expect("retry put");
    assert_eq!(retry.status, 200);
    let retry_body = retry.body_str().expect("utf-8").to_string();
    assert!(retry_body.contains("\"replayed\":true"), "{retry_body}");
    assert_eq!(
        stack.state.oplog_head(),
        head_before,
        "an idempotent replay must not append"
    );
    let seq = |body: &str| {
        body.split("\"seq\":")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .map(str::to_string)
    };
    assert_eq!(seq(&first_body), seq(&retry_body), "replay answers the original seq");

    // Same key, different op: 409 with the conflict code.
    let conflict =
        client::put(&addr, "/v1/trees/0/budget", &key, b"670").expect("conflicting put");
    assert_eq!(conflict.status, 409);
    let body = conflict.body_str().expect("utf-8");
    assert!(
        body.contains("\"code\":\"idempotency_conflict\""),
        "body: {body}"
    );
    assert_eq!(stack.state.oplog_head(), head_before, "conflicts append nothing");
}

#[test]
fn events_endpoint_streams_the_log_and_honors_since() {
    let mut stack = Stack::stranded();
    stack.drive(1);
    let addr = stack.addr();

    client::put(&addr, "/v1/trees/0/budget", &[], b"650").expect("first mutation");
    client::put(&addr, "/v1/trees/1/budget", &[], b"660").expect("second mutation");

    let all = client::get(&addr, "/v1/events").expect("all events");
    assert_eq!(all.status, 200);
    let body = all.body_str().expect("utf-8");
    assert!(body.starts_with("{\"head\":2,"), "body: {body}");
    assert!(body.contains("\"seq\":1"), "body: {body}");
    assert!(body.contains("\"seq\":2"), "body: {body}");
    assert!(body.contains("\"type\":\"set_tree_budget\""), "body: {body}");

    // since=1 excludes the first event but keeps the head watermark.
    let tail = client::get(&addr, "/v1/events?since=1").expect("tail events");
    let body = tail.body_str().expect("utf-8");
    assert!(body.starts_with("{\"head\":2,"), "body: {body}");
    assert!(!body.contains("\"seq\":1,"), "body: {body}");
    assert!(body.contains("\"seq\":2"), "body: {body}");

    // since past the head is an empty list, not an error.
    let empty = client::get(&addr, "/v1/events?since=99").expect("empty events");
    let body = empty.body_str().expect("utf-8");
    assert!(body.contains("\"events\":[]"), "body: {body}");

    // A garbage since is a 400 in the shared envelope.
    let bad = client::get(&addr, "/v1/events?since=soon").expect("bad since");
    assert_eq!(bad.status, 400);
    assert!(
        bad.body_str().expect("utf-8").starts_with("{\"error\":{"),
        "error envelope expected"
    );
}

#[test]
fn group_priority_patch_drives_every_server_under_the_node_and_null_reverts() {
    let mut stack = Stack::priority();
    stack.drive(1); // first round publishes the capability view
    let addr = stack.addr();

    // Arena level order for the Fig. 2 tree: 0 = Top CB, 1 = Left CB,
    // 2 = Right CB; SC and SD hang under the right breaker.
    let ids = stack.engine.farm().ids().to_vec();
    let (sc, sd) = (ids[2], ids[3]);
    assert_eq!(
        stack.engine.plane().effective_priority(sc),
        Some(Priority::LOW)
    );

    let raise = client::patch(
        &addr,
        "/v1/groups/0.2/priority",
        &[],
        b"{\"priority\": 1}",
    )
    .expect("patch group priority");
    assert_eq!(
        raise.status,
        200,
        "body: {:?}",
        raise.body_str().unwrap_or("<binary>")
    );

    stack.drive(8); // cross the t=8 boundary: the reconciler applies it
    assert_eq!(
        stack.engine.plane().effective_priority(sc),
        Some(Priority::HIGH),
        "SC sits under the declared group"
    );
    assert_eq!(
        stack.engine.plane().effective_priority(sd),
        Some(Priority::HIGH),
        "SD sits under the declared group"
    );
    // SA keeps its static high priority, SB its static low.
    assert_eq!(
        stack.engine.plane().effective_priority(ids[1]),
        Some(Priority::LOW),
        "SB is outside the group"
    );

    // null withdraws the band: covered servers revert to static.
    let clear = client::patch(&addr, "/v1/groups/0.2/priority", &[], b"{\"priority\": null}")
        .expect("clear group priority");
    assert_eq!(clear.status, 200);
    stack.drive(8);
    assert_eq!(
        stack.engine.plane().effective_priority(sc),
        Some(Priority::LOW),
        "SC reverts to its static priority"
    );
}

#[test]
fn drain_and_undrain_cycle_a_server_through_the_reconciler() {
    let mut stack = Stack::priority();
    stack.drive(1);
    let addr = stack.addr();
    let sd = stack.engine.farm().ids()[3];
    assert!(stack.engine.farm().get(sd).expect("sd").is_powered());

    let drain = client::post(&addr, &format!("/v1/servers/{}:drain", sd.0), b"")
        .expect("drain");
    assert_eq!(
        drain.status,
        200,
        "body: {:?}",
        drain.body_str().unwrap_or("<binary>")
    );
    stack.drive(8);
    assert!(
        !stack.engine.farm().get(sd).expect("sd").is_powered(),
        "declared drain powers the server down at the boundary"
    );

    let undrain = client::post(&addr, &format!("/v1/servers/{}:undrain", sd.0), b"")
        .expect("undrain");
    assert_eq!(undrain.status, 200);
    stack.drive(8);
    assert!(
        stack.engine.farm().get(sd).expect("sd").is_powered(),
        "declared undrain restores power"
    );
}

#[test]
fn healthz_watermarks_track_append_and_reconcile() {
    let mut stack = Stack::stranded();
    stack.drive(9);
    let addr = stack.addr();

    let before = client::get(&addr, "/v1/healthz").expect("healthz");
    let body = before.body_str().expect("utf-8");
    assert!(body.contains("\"oplog_head\":0"), "body: {body}");
    assert!(body.contains("\"applied_seq\":0"), "body: {body}");

    client::put(&addr, "/v1/trees/0/budget", &[], b"666").expect("mutate");
    let staged = client::get(&addr, "/v1/healthz").expect("healthz after append");
    let body = staged.body_str().expect("utf-8");
    assert!(
        body.contains("\"oplog_head\":1") && body.contains("\"applied_seq\":0"),
        "head advances before the boundary, applied lags: {body}"
    );

    stack.drive(8); // cross t=16: the reconciler catches up
    let converged = client::get(&addr, "/v1/healthz").expect("healthz after boundary");
    let body = converged.body_str().expect("utf-8");
    assert!(
        body.contains("\"oplog_head\":1") && body.contains("\"applied_seq\":1"),
        "reconciler converges the watermark: {body}"
    );
    assert_eq!(stack.engine.plane().root_budgets_now()[0].as_f64(), 666.0);
}

#[test]
fn every_failure_answers_the_one_json_error_envelope() {
    let mut stack = Stack::stranded();
    stack.drive(1);
    let addr = stack.addr();

    let cases: Vec<(u16, &str, client::HttpResponse)> = vec![
        (
            404,
            "not_found",
            client::get(&addr, "/v1/nope").expect("unknown v1 path"),
        ),
        (
            404,
            "not_found",
            client::get(&addr, "/nope").expect("unknown legacy path"),
        ),
        (
            405,
            "method_not_allowed",
            client::get(&addr, "/v1/budget").expect("wrong method"),
        ),
        (
            405,
            "method_not_allowed",
            client::post(&addr, "/v1/trees/0/budget", b"1").expect("post where put"),
        ),
        (
            400,
            "bad_request",
            client::put(&addr, "/v1/trees/zero/budget", &[], b"700").expect("bad tree id"),
        ),
        (
            400,
            "bad_budget",
            client::post(&addr, "/v1/budget", b"[700]").expect("wrong arity"),
        ),
        (
            404,
            "not_found",
            client::put(&addr, "/v1/trees/7/budget", &[], b"700").expect("unknown tree"),
        ),
        (
            404,
            "not_found",
            client::post(&addr, "/v1/servers/999:drain", b"").expect("unknown server"),
        ),
        (
            400,
            "bad_request",
            client::put(&addr, "/v1/allocator", &[], b"{\"policy\": \"magic\"}")
                .expect("unknown policy"),
        ),
    ];
    for (status, code, response) in cases {
        assert_eq!(response.status, status, "case {code}");
        let body = response.body_str().expect("utf-8 error body");
        assert!(
            body.starts_with("{\"error\":{\"code\":\""),
            "case {code}: body {body}"
        );
        assert!(
            body.contains(&format!("\"code\":\"{code}\"")),
            "case {code}: body {body}"
        );
        assert!(
            body.contains("\"message\":\""),
            "case {code}: body {body}"
        );
    }

    // Raw-parser failures wear the same envelope (http.rs converts).
    let raw = client::send_raw(
        &addr,
        b"GET /v1/healthz HTTP/9.9\r\nHost: x\r\nConnection: close\r\n\r\n",
    )
    .expect("bad version");
    assert_eq!(raw.status, 400);
    assert!(
        raw.body_str().expect("utf-8").starts_with("{\"error\":{"),
        "parser errors share the envelope"
    );
}

#[test]
fn wrong_methods_answer_405_with_allow_and_unknown_paths_404_in_the_envelope() {
    let mut stack = Stack::stranded();
    stack.drive(1);
    let addr = stack.addr();

    // GET on mutating-only routes: 405, the envelope, and an Allow
    // header naming the one accepted method (RFC 9110 §15.5.6).
    let cases: Vec<(&str, &str, client::HttpResponse)> = vec![
        (
            "/v1/allocator",
            "PUT",
            client::get(&addr, "/v1/allocator").expect("get on put-only"),
        ),
        (
            "/v1/budget",
            "POST",
            client::get(&addr, "/v1/budget").expect("get on post-only"),
        ),
        (
            "/v1/trees/0/budget",
            "PUT",
            client::get(&addr, "/v1/trees/0/budget").expect("get on put-only dynamic"),
        ),
        (
            "/v1/groups/0.1/priority",
            "PATCH",
            client::get(&addr, "/v1/groups/0.1/priority").expect("get on patch-only"),
        ),
        (
            "/v1/servers/1:drain",
            "POST",
            client::get(&addr, "/v1/servers/1:drain").expect("get on post-only action"),
        ),
        (
            "/v1/trace",
            "GET",
            client::post(&addr, "/v1/trace", b"").expect("post on get-only"),
        ),
    ];
    for (path, allow, response) in cases {
        assert_eq!(response.status, 405, "{path}");
        assert_eq!(
            response.header("allow"),
            Some(allow),
            "{path} must name the accepted method"
        );
        let body = response.body_str().expect("utf-8");
        assert!(
            body.starts_with("{\"error\":{\"code\":\"method_not_allowed\""),
            "{path}: body {body}"
        );
    }

    // Unknown /v1 paths — including near-misses of real dynamic routes —
    // are 404s in the same envelope.
    for path in [
        "/v1/nope",
        "/v1/trees/0/banana",
        "/v1/servers/1:reboot",
        "/v1/trace/extra",
    ] {
        let response = client::get(&addr, path).expect("unknown path");
        assert_eq!(response.status, 404, "{path}");
        let body = response.body_str().expect("utf-8");
        assert!(
            body.starts_with("{\"error\":{\"code\":\"not_found\""),
            "{path}: body {body}"
        );
    }
}

#[test]
fn trace_endpoint_serves_validating_documents_and_rejects_bad_last_s() {
    let mut stack = Stack::priority();
    stack.drive(17); // rounds at t = 0, 8, 16
    let addr = stack.addr();

    // A full download parses under the strict validator and carries the
    // per-tree counter tracks the plane emits every round.
    let full = client::get(&addr, "/v1/trace").expect("trace");
    assert_eq!(full.status, 200);
    assert_eq!(full.header("content-type"), Some(trace::CONTENT_TYPE));
    let parsed = trace::parse(full.body_str().expect("utf-8")).expect("trace validates");
    assert!(
        parsed.counter_tracks().len() >= 4,
        "tracks: {:?}",
        parsed.counter_tracks()
    );

    // last_s narrows the window by logical time; downloads are
    // idempotent (non-destructive), so the full view is still intact.
    let tail = client::get(&addr, "/v1/trace?last_s=4").expect("tail trace");
    assert_eq!(tail.status, 200);
    let tail_parsed = trace::parse(tail.body_str().expect("utf-8")).expect("tail validates");
    assert!(
        tail_parsed.events.len() < parsed.events.len(),
        "a 4 s cut of a 17 s run must drop events"
    );
    let again = client::get(&addr, "/v1/trace").expect("trace again");
    let again_parsed =
        trace::parse(again.body_str().expect("utf-8")).expect("second download validates");
    assert_eq!(
        again_parsed.events.len(),
        parsed.events.len(),
        "downloads must not drain the buffer"
    );

    // Bad last_s values: negative, non-numeric, u64 overflow — all 400s
    // in the shared envelope.
    for query in ["-5", "abc", "99999999999999999999999", "4.5", ""] {
        let bad = client::get(&addr, &format!("/v1/trace?last_s={query}"))
            .expect("bad last_s");
        assert_eq!(bad.status, 400, "last_s={query:?}");
        let body = bad.body_str().expect("utf-8");
        assert!(
            body.starts_with("{\"error\":{\"code\":\"bad_request\""),
            "last_s={query:?}: body {body}"
        );
    }

    // A router with no trace recorder attached answers 503, not 404:
    // the endpoint exists, tracing just isn't enabled (room mode).
    let registry = stack.state.registry().clone();
    let bare_state = Arc::new(ServeState::new(registry.clone(), 8));
    let bare = HttpServer::bind(
        HttpConfig::default(),
        Arc::new(Router::new(bare_state, registry)),
    )
    .expect("bind bare server");
    let off = client::get(&bare.local_addr().to_string(), "/v1/trace").expect("traceless");
    assert_eq!(off.status, 503);
    assert!(
        off.body_str()
            .expect("utf-8")
            .starts_with("{\"error\":{\"code\":\"unavailable\""),
        "disabled tracing wears the envelope"
    );
}

#[test]
fn allocator_put_switches_the_policy_and_relabels_the_report() {
    let mut stack = Stack::priority();
    // Label the state as the daemon would.
    let registry = stack.state.registry().clone();
    let state = Arc::new(
        ServeState::new(registry.clone(), stack.engine.control_period_s())
            .with_policy_label("waterfall"),
    );
    let router = Router::new(state.clone(), registry);
    let server =
        HttpServer::bind(HttpConfig::default(), Arc::new(router)).expect("bind labeled server");
    let addr = server.local_addr().to_string();

    for _ in 0..9 {
        drive_second(&mut stack.engine, &state);
    }
    let before = client::get(&addr, "/v1/report").expect("report");
    assert!(
        before.body_str().expect("utf-8").contains("\"policy\": \"waterfall\""),
        "report starts with the boot policy"
    );

    let switch = client::put(&addr, "/v1/allocator", &[], b"{\"policy\": \"waterfilling\"}")
        .expect("switch allocator");
    assert_eq!(
        switch.status,
        200,
        "body: {:?}",
        switch.body_str().unwrap_or("<binary>")
    );

    for _ in 0..8 {
        drive_second(&mut stack.engine, &state);
    }
    let after = client::get(&addr, "/v1/report").expect("report after switch");
    assert!(
        after.body_str().expect("utf-8").contains("\"policy\": \"waterfilling\""),
        "the reconciled allocator relabels the report"
    );
}
