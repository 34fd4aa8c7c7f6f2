//! `/v1/report` is rendered by the first reader after each round, from
//! the round report and policy label the engine thread published at the
//! boundary. Every round's body must be byte-identical to rendering that
//! round's `RoundReport::metrics_snapshot()` directly, labelled with the
//! policy current when the round was published.

use std::sync::Arc;

use capmaestro_core::obs::{json, MetricsRegistry};
use capmaestro_core::AllocatorKind;
use capmaestro_serve::client;
use capmaestro_serve::daemon::drive_second;
use capmaestro_serve::{HttpConfig, HttpServer, Router, ServeState};
use capmaestro_sim::scenarios::{priority_rig, RigConfig};
use capmaestro_sim::Engine;

/// The engine's latest round report, rendered directly.
fn direct_render(engine: &Engine, label: &str) -> String {
    let report = engine.last_round_report().expect("a round ran");
    let mut out = String::new();
    json::snapshot_with_fields_into(&mut out, &[("policy", label)], &report.metrics_snapshot());
    out
}

/// The body through the state (twice: rendered, then cached) and over
/// HTTP must all equal `want`.
fn assert_served(state: &ServeState, addr: &str, want: &str, at: u64) {
    assert_eq!(
        state.report_json().as_deref(),
        Some(want),
        "t={at}: first read"
    );
    assert_eq!(
        state.report_json().as_deref(),
        Some(want),
        "t={at}: cached read"
    );
    let response = client::get(addr, "/v1/report").expect("get /v1/report");
    assert_eq!(response.status, 200, "t={at}");
    assert_eq!(
        response.body_str().expect("utf-8 body"),
        want,
        "t={at}: over http"
    );
}

#[test]
fn every_round_report_body_matches_a_direct_render_byte_for_byte() {
    let mut engine = Engine::new(priority_rig(RigConfig::table2()));
    let registry = Arc::new(MetricsRegistry::new());
    engine.plane_mut().set_recorder(registry.clone());
    let state = Arc::new(
        ServeState::new(registry.clone(), engine.control_period_s())
            .with_policy_label(AllocatorKind::Waterfall.name()),
    );
    let router = Router::new(state.clone(), registry);
    let server = HttpServer::bind(HttpConfig::default(), Arc::new(router)).expect("bind");
    let addr = server.local_addr().to_string();

    // Before any round there is nothing to render: 503.
    assert_eq!(state.report_json(), None);
    let early = client::get(&addr, "/v1/report").expect("early /v1/report");
    assert_eq!(early.status, 503);

    let mut label = AllocatorKind::Waterfall.name();
    for second in 0..64u64 {
        if second == 36 {
            state
                .stage_allocator(AllocatorKind::Waterfilling, None)
                .expect("allocator op appended");
        }
        if second == 40 {
            // The boundary that applies the switch, taken apart as
            // `drive_second` runs it. Reconcile relabels the state before
            // the round; round 32's body, first read only now, keeps the
            // label it was published with.
            state.reconcile(&mut engine);
            assert_served(&state, &addr, &direct_render(&engine, label), second);
            engine.step();
            state.publish(&engine, true);
            label = AllocatorKind::Waterfilling.name();
        } else if !drive_second(&mut engine, &state) || second == 32 {
            // Round 32 stays unread until its label is stale.
            continue;
        }
        assert_served(&state, &addr, &direct_render(&engine, label), second);
    }
}
