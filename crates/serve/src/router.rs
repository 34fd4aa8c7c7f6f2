//! The endpoint table mapping parsed requests onto [`ServeState`].
//!
//! The versioned `/v1` surface:
//!
//! | Endpoint                          | Method | Body                                    |
//! |-----------------------------------|--------|-----------------------------------------|
//! | `/v1/metrics`                     | GET    | Prometheus text exposition               |
//! | `/v1/healthz`                     | GET    | JSON liveness (200 ok / 503 unhealthy)   |
//! | `/v1/report`                      | GET    | JSON snapshot of the latest round        |
//! | `/v1/events?since=SEQ`            | GET    | operator events with `seq > SEQ`         |
//! | `/v1/trace?last_s=N`              | GET    | Perfetto JSON trace (optionally trailing N s) |
//! | `/v1/budget`                      | POST   | JSON array of per-tree root watts        |
//! | `/v1/trees/{id}/budget`           | PUT    | `{"watts": W}` or a bare number          |
//! | `/v1/groups/{tree}.{node}/priority` | PATCH | `{"priority": P}` or `{"priority": null}` |
//! | `/v1/servers/{id}:drain`          | POST   | none                                     |
//! | `/v1/servers/{id}:undrain`        | POST   | none                                     |
//! | `/v1/allocator`                   | PUT    | `{"policy": "waterfall"}` or bare name   |
//!
//! Mutations accept an `Idempotency-Key` header: retrying with the same
//! key and the same body answers the original event's sequence number
//! without appending; the same key with a *different* body is a `409`.
//!
//! Every endpoint lives under `/v1`; any other path answers `404`. Known
//! paths with the wrong method answer `405` with an `Allow` header naming
//! the accepted method.
//! Every error body is the one JSON envelope
//! `{"error":{"code":...,"message":...}}` ([`ApiError`]), and every 4xx
//! bumps `capmaestro_serve_client_errors_total`.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use capmaestro_core::obs::trace::TraceRecorder;
use capmaestro_core::obs::{json, names, prometheus, Recorder};
use capmaestro_core::AllocatorKind;
use capmaestro_topology::ServerId;

use crate::http::{Request, Response};
use crate::server::Handler;
use crate::state::{OpRejection, ServeState};

/// A structured API failure: the HTTP status, a stable machine-readable
/// code, and a human-readable message. Rendered as the single error
/// envelope every handler answers with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// The HTTP status code.
    pub status: u16,
    /// A stable machine-readable code (`"bad_request"`, `"not_found"`,
    /// `"idempotency_conflict"`, …).
    pub code: &'static str,
    /// What went wrong, for humans.
    pub message: String,
}

impl ApiError {
    /// An error with an explicit status and code.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        ApiError {
            status,
            code,
            message: message.into(),
        }
    }

    /// `400 bad_request`.
    pub(crate) fn bad_request(message: impl Into<String>) -> Self {
        ApiError::new(400, "bad_request", message)
    }

    /// `404 not_found`.
    pub(crate) fn not_found(message: impl Into<String>) -> Self {
        ApiError::new(404, "not_found", message)
    }

    /// `405 method_not_allowed`.
    pub(crate) fn method_not_allowed() -> Self {
        ApiError::new(
            405,
            "method_not_allowed",
            "method not allowed on this endpoint",
        )
    }

    /// `503 unavailable`.
    pub fn unavailable(message: impl Into<String>) -> Self {
        ApiError::new(503, "unavailable", message)
    }

    /// The JSON `{"error":{...}}` envelope body.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.message.len());
        out.push_str("{\"error\":{\"code\":\"");
        out.push_str(self.code);
        out.push_str("\",\"message\":");
        json::write_str(&mut out, &self.message);
        out.push_str("}}\n");
        out
    }

    /// The HTTP response announcing this error.
    pub(crate) fn to_response(&self) -> Response {
        Response::new(self.status, json::CONTENT_TYPE, self.to_json())
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "api {} {}: {}", self.status, self.code, self.message)
    }
}

impl Error for ApiError {}

impl From<&OpRejection> for ApiError {
    fn from(rejection: &OpRejection) -> Self {
        let message = rejection.to_string();
        match rejection {
            OpRejection::Budget(_) => ApiError::new(400, "bad_budget", message),
            OpRejection::UnknownTree { .. }
            | OpRejection::UnknownGroup { .. }
            | OpRejection::UnknownServer(_) => ApiError::new(404, "not_found", message),
            OpRejection::Unsupported(_) => ApiError::new(501, "not_implemented", message),
            OpRejection::Conflict { .. } => {
                ApiError::new(409, "idempotency_conflict", message)
            }
            OpRejection::KeyTooLong { .. } => ApiError::new(400, "bad_request", message),
            OpRejection::Internal(_) => ApiError::new(500, "internal", message),
        }
    }
}

/// The daemon's [`Handler`]: routes requests onto shared serve state.
#[derive(Debug, Clone)]
pub struct Router {
    /// State published by the engine thread.
    state: Arc<ServeState>,
    /// Metrics sink for request/error counters.
    recorder: Arc<dyn Recorder>,
    /// Timeline exporter behind `GET /v1/trace`; `None` answers 503
    /// (tracing not enabled in this deployment).
    trace: Option<Arc<TraceRecorder>>,
}

impl Router {
    /// A router over `state`, counting into `recorder`.
    pub fn new(state: Arc<ServeState>, recorder: Arc<dyn Recorder>) -> Self {
        Router {
            state,
            recorder,
            trace: None,
        }
    }

    /// Serve `GET /v1/trace` from this trace recorder (builder style).
    pub fn with_trace(mut self, trace: Arc<TraceRecorder>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The shared state this router serves.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Render an [`ApiError`], counting 4xx into the client-error
    /// counter.
    fn error(&self, error: ApiError) -> Response {
        if (400..500).contains(&error.status) {
            self.recorder
                .counter_add(names::SERVE_CLIENT_ERRORS_TOTAL, 1);
        }
        error.to_response()
    }

    /// `GET /v1/metrics`.
    fn metrics(&self) -> Response {
        Response::new(200, prometheus::CONTENT_TYPE, self.state.metrics_page())
    }

    /// `GET /v1/healthz`.
    fn healthz(&self) -> Response {
        let health = self.state.health();
        let status = if health.healthy { 200 } else { 503 };
        Response::new(status, json::CONTENT_TYPE, health.to_json())
    }

    /// `GET /v1/report`.
    fn report(&self) -> Response {
        match self.state.report_json() {
            Some(body) => Response::new(200, json::CONTENT_TYPE, body),
            None => ApiError::unavailable("no control round has completed yet").to_response(),
        }
    }

    /// `GET /v1/events?since=SEQ`.
    fn events(&self, request: &Request) -> Response {
        let since = match request.query_param("since") {
            None => 0,
            Some(raw) => match raw.parse::<u64>() {
                Ok(n) => n,
                Err(_) => {
                    return self.error(ApiError::bad_request(
                        "since must be a non-negative integer sequence number",
                    ))
                }
            },
        };
        Response::new(200, json::CONTENT_TYPE, self.state.events_json(since))
    }

    /// `GET /v1/trace?last_s=N`: the retained timeline as a Perfetto
    /// JSON trace document, optionally cut to the trailing `N` simulated
    /// seconds. Non-destructive, so repeated downloads are idempotent.
    fn trace(&self, request: &Request) -> Response {
        let Some(trace) = &self.trace else {
            return self.error(ApiError::unavailable(
                "trace export is not enabled in this deployment",
            ));
        };
        let last_s = match request.query_param("last_s") {
            None => None,
            Some(raw) => match raw.parse::<u64>() {
                Ok(n) => Some(n),
                Err(_) => {
                    return self.error(ApiError::bad_request(
                        "last_s must be a non-negative integer number of seconds",
                    ))
                }
            },
        };
        Response::new(
            200,
            capmaestro_core::obs::trace::CONTENT_TYPE,
            trace.render(last_s),
        )
    }

    /// A `405` carrying the `Allow` header RFC 9110 requires.
    fn method_not_allowed(&self, allow: &'static str) -> Response {
        self.error(ApiError::method_not_allowed())
            .with_header("Allow", allow)
    }

    /// A successful mutation: the event's sequence number and whether it
    /// was an idempotent replay.
    fn staged(&self, outcome: capmaestro_core::oplog::AppendOutcome) -> Response {
        self.recorder
            .counter_add(names::SERVE_BUDGET_UPDATES_TOTAL, 1);
        Response::new(
            200,
            json::CONTENT_TYPE,
            format!(
                "{{\"status\":\"staged\",\"seq\":{},\"replayed\":{}}}\n",
                outcome.seq(),
                outcome.replayed()
            ),
        )
    }

    /// `POST /v1/budget`: a full per-tree root-budget vector.
    fn budget(&self, request: &Request) -> Response {
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return self.error(ApiError::bad_request("budget body is not valid utf-8"));
        };
        let Some(budgets) = parse_budgets(body) else {
            return self.error(ApiError::bad_request(
                "expected a json array of watts, e.g. [700, 700]",
            ));
        };
        match self.state.stage_budgets(&budgets, idempotency_key(request)) {
            Ok(outcome) => self.staged(outcome),
            Err(rejection) => self.error(ApiError::from(&rejection)),
        }
    }

    /// `PUT /v1/trees/{id}/budget`.
    fn tree_budget(&self, request: &Request, tree: &str) -> Response {
        let Ok(tree) = tree.parse::<u32>() else {
            return self.error(ApiError::bad_request("tree id must be an integer index"));
        };
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return self.error(ApiError::bad_request("budget body is not valid utf-8"));
        };
        let Some(watts) = parse_number_body(body, "watts") else {
            return self.error(ApiError::bad_request(
                "expected {\"watts\": W} or a bare number",
            ));
        };
        match self
            .state
            .stage_tree_budget(tree, watts, idempotency_key(request))
        {
            Ok(outcome) => self.staged(outcome),
            Err(rejection) => self.error(ApiError::from(&rejection)),
        }
    }

    /// `PATCH /v1/groups/{tree}.{node}/priority`.
    fn group_priority(&self, request: &Request, group: &str) -> Response {
        let parsed = group.split_once('.').and_then(|(tree, node)| {
            Some((tree.parse::<u32>().ok()?, node.parse::<u32>().ok()?))
        });
        let Some((tree, node)) = parsed else {
            return self.error(ApiError::bad_request(
                "group id must be {tree}.{node}, e.g. 0.2",
            ));
        };
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return self.error(ApiError::bad_request("priority body is not valid utf-8"));
        };
        let priority = match parse_priority_body(body) {
            Some(p) => p,
            None => {
                return self.error(ApiError::bad_request(
                    "expected {\"priority\": P} with P in 0..=255, or {\"priority\": null} to clear",
                ))
            }
        };
        match self
            .state
            .stage_group_priority(tree, node, priority, idempotency_key(request))
        {
            Ok(outcome) => self.staged(outcome),
            Err(rejection) => self.error(ApiError::from(&rejection)),
        }
    }

    /// `POST /v1/servers/{id}:drain` / `:undrain`.
    fn server_enabled(&self, request: &Request, server: &str, enabled: bool) -> Response {
        let Ok(server) = server.parse::<u32>() else {
            return self.error(ApiError::bad_request("server id must be an integer"));
        };
        match self.state.stage_server_enabled(
            ServerId(server),
            enabled,
            idempotency_key(request),
        ) {
            Ok(outcome) => self.staged(outcome),
            Err(rejection) => self.error(ApiError::from(&rejection)),
        }
    }

    /// `PUT /v1/allocator`.
    fn allocator(&self, request: &Request) -> Response {
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return self.error(ApiError::bad_request("allocator body is not valid utf-8"));
        };
        let Some(name) = parse_string_body(body, "policy") else {
            return self.error(ApiError::bad_request(
                "expected {\"policy\": \"waterfall\"} or a bare policy name",
            ));
        };
        let Ok(kind) = name.parse::<AllocatorKind>() else {
            return self.error(ApiError::bad_request(format!(
                "unknown policy {name:?}; valid policies: waterfall, waterfilling, fair_share"
            )));
        };
        match self.state.stage_allocator(kind, idempotency_key(request)) {
            Ok(outcome) => self.staged(outcome),
            Err(rejection) => self.error(ApiError::from(&rejection)),
        }
    }

    /// Routes under `/v1/` after the static table, or an error.
    fn route_v1_dynamic(&self, request: &Request, path: &str) -> Response {
        if let Some(rest) = path.strip_prefix("/v1/trees/") {
            if let Some(tree) = rest.strip_suffix("/budget") {
                if request.method != "PUT" {
                    return self.method_not_allowed("PUT");
                }
                return self.tree_budget(request, tree);
            }
        }
        if let Some(rest) = path.strip_prefix("/v1/groups/") {
            if let Some(group) = rest.strip_suffix("/priority") {
                if request.method != "PATCH" {
                    return self.method_not_allowed("PATCH");
                }
                return self.group_priority(request, group);
            }
        }
        if let Some(rest) = path.strip_prefix("/v1/servers/") {
            let action = rest
                .strip_suffix(":drain")
                .map(|server| (server, false))
                .or_else(|| rest.strip_suffix(":undrain").map(|server| (server, true)));
            if let Some((server, enabled)) = action {
                if request.method != "POST" {
                    return self.method_not_allowed("POST");
                }
                return self.server_enabled(request, server, enabled);
            }
        }
        self.error(ApiError::not_found("no such endpoint"))
    }
}

/// The first non-empty `Idempotency-Key` header value, if any.
fn idempotency_key(request: &Request) -> Option<&str> {
    request
        .header("idempotency-key")
        .map(str::trim)
        .filter(|key| !key.is_empty())
}

impl Handler for Router {
    fn handle(&self, request: &Request) -> Response {
        self.recorder.counter_add(names::SERVE_REQUESTS_TOTAL, 1);
        let path = request.path();
        match (request.method.as_str(), path) {
            // The versioned surface.
            ("GET", "/v1/metrics") => self.metrics(),
            ("GET", "/v1/healthz") => self.healthz(),
            ("GET", "/v1/report") => self.report(),
            ("GET", "/v1/events") => self.events(request),
            ("GET", "/v1/trace") => self.trace(request),
            ("POST", "/v1/budget") => self.budget(request),
            ("PUT", "/v1/allocator") => self.allocator(request),
            // Known paths, wrong method: 405 + the accepted method.
            (_, "/v1/metrics" | "/v1/healthz" | "/v1/report" | "/v1/events" | "/v1/trace") => {
                self.method_not_allowed("GET")
            }
            (_, "/v1/budget") => self.method_not_allowed("POST"),
            (_, "/v1/allocator") => self.method_not_allowed("PUT"),
            _ if path.starts_with("/v1/") => self.route_v1_dynamic(request, path),
            _ => self.error(ApiError::not_found("no such endpoint")),
        }
    }
}

/// Parse a budget-vector body: a JSON array of numbers (`[700, 700]`)
/// or, as a convenience for single-tree rigs, one bare number (`1240`).
fn parse_budgets(body: &str) -> Option<Vec<f64>> {
    let trimmed = body.trim();
    if let Some(inner) = trimmed
        .strip_prefix('[')
        .and_then(|rest| rest.strip_suffix(']'))
    {
        let inner = inner.trim();
        if inner.is_empty() {
            return Some(Vec::new());
        }
        inner
            .split(',')
            .map(|part| part.trim().parse::<f64>().ok())
            .collect()
    } else {
        trimmed.parse::<f64>().ok().map(|w| vec![w])
    }
}

/// The value of single-field object bodies: `{"field": <raw>}` yields
/// the raw value text, and a bare non-object body yields itself — the
/// two shapes the `/v1` mutation endpoints accept.
fn single_field_raw<'a>(body: &'a str, field: &str) -> Option<&'a str> {
    let trimmed = body.trim();
    let Some(inner) = trimmed
        .strip_prefix('{')
        .and_then(|rest| rest.strip_suffix('}'))
    else {
        return Some(trimmed);
    };
    let (name, value) = inner.split_once(':')?;
    let name = name.trim().strip_prefix('"')?.strip_suffix('"')?;
    (name == field).then(|| value.trim())
}

/// Parse `{"field": N}` or a bare number.
fn parse_number_body(body: &str, field: &str) -> Option<f64> {
    single_field_raw(body, field)?.parse::<f64>().ok()
}

/// Parse `{"field": "s"}`, a bare quoted string, or a bare word.
fn parse_string_body<'a>(body: &'a str, field: &str) -> Option<&'a str> {
    let raw = single_field_raw(body, field)?;
    let unquoted = raw
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .unwrap_or(raw);
    (!unquoted.is_empty()).then_some(unquoted)
}

/// Parse a priority body: `{"priority": P}` sets, `{"priority": null}`
/// (or bare `null`) clears. Returns `Some(Some(p))`, `Some(None)`, or
/// `None` on a malformed body.
fn parse_priority_body(body: &str) -> Option<Option<u8>> {
    let raw = single_field_raw(body, "priority")?;
    if raw == "null" {
        return Some(None);
    }
    raw.parse::<u8>().ok().map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_budget_bodies() {
        assert_eq!(parse_budgets("[700, 700]"), Some(vec![700.0, 700.0]));
        assert_eq!(parse_budgets(" [1240.5] "), Some(vec![1240.5]));
        assert_eq!(parse_budgets("1240"), Some(vec![1240.0]));
        assert_eq!(parse_budgets("[]"), Some(Vec::new()));
        assert_eq!(parse_budgets("[700, seven]"), None);
        assert_eq!(parse_budgets("{\"watts\": 700}"), None);
        assert_eq!(parse_budgets(""), None);
    }

    #[test]
    fn parses_single_field_bodies() {
        assert_eq!(parse_number_body("{\"watts\": 1240}", "watts"), Some(1240.0));
        assert_eq!(parse_number_body(" 1240.5 ", "watts"), Some(1240.5));
        assert_eq!(parse_number_body("{\"other\": 1}", "watts"), None);
        assert_eq!(parse_number_body("{\"watts\": x}", "watts"), None);
        assert_eq!(
            parse_string_body("{\"policy\": \"fair_share\"}", "policy"),
            Some("fair_share")
        );
        assert_eq!(parse_string_body("waterfall", "policy"), Some("waterfall"));
        assert_eq!(parse_string_body("", "policy"), None);
        assert_eq!(parse_priority_body("{\"priority\": 3}"), Some(Some(3)));
        assert_eq!(parse_priority_body("{\"priority\": null}"), Some(None));
        assert_eq!(parse_priority_body("null"), Some(None));
        assert_eq!(parse_priority_body("{\"priority\": 300}"), None);
    }

    #[test]
    fn api_error_envelope_is_well_formed_json() {
        let error = ApiError::bad_request("a \"quoted\" reason\nwith newline");
        let body = error.to_json();
        assert!(body.starts_with("{\"error\":{\"code\":\"bad_request\""));
        assert!(body.contains("\\\"quoted\\\""));
        assert!(body.contains("\\n"));
        assert_eq!(ApiError::method_not_allowed().status, 405);
        assert_eq!(ApiError::not_found("x").status, 404);
    }
}
