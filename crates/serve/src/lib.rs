//! Long-running serving mode for CapMaestro.
//!
//! The `obs` exporters (`prometheus::render`, `json::snapshot`) render on
//! demand; this crate makes them *scrapeable while a run is in flight* —
//! the serving mode the paper's §4.3 control plane implies (a persistent
//! daemon in the data center, not a batch job). Everything is built on
//! `std::net` — no new dependencies, matching the workspace's offline
//! constraint.
//!
//! Layers, bottom up:
//!
//! - [`http`] — a minimal HTTP/1.1 request parser (bounded head and body,
//!   strict grammar, fuzzed) and response writer. One request per
//!   connection, `Connection: close` always.
//! - [`server`] — [`server::HttpServer`]: a `TcpListener` accept loop, a
//!   small worker-thread pool with panic respawn, per-connection
//!   read/write timeouts, and a graceful [`server::ShutdownHandle`]
//!   (stop accepting → drain in-flight → join).
//! - [`state`] — [`state::ServeState`]: the shared-state seam between the
//!   engine thread and HTTP workers. Handlers only ever read pre-published
//!   state or append validated events to the operator log; they never
//!   touch the engine. The engine thread drains the log at each round
//!   boundary ([`state::ServeState::reconcile`]) and converges the live
//!   plane onto the declared [`capmaestro_core::oplog::DesiredState`].
//! - [`router`] — the versioned `/v1` endpoint table: `GET /v1/metrics`
//!   (Prometheus text exposition of the live registry), `GET /v1/healthz`
//!   (round liveness + degradation-ladder state + oplog watermarks),
//!   `GET /v1/report` (JSON snapshot of the latest `RoundReport`),
//!   `GET /v1/events?since=seq` (the operator event log), and the
//!   mutation surface — `POST /v1/budget`, `PUT /v1/trees/{id}/budget`,
//!   `PATCH /v1/groups/{tree}.{node}/priority`,
//!   `POST /v1/servers/{id}:drain` / `:undrain`, `PUT /v1/allocator` —
//!   all idempotency-keyed appends to the log, applied at the next round
//!   boundary. Failures share one JSON error envelope
//!   ([`router::ApiError`]).
//! - [`daemon`] — the `capmaestrod` run loop: a seeded [`capmaestro_sim`]
//!   scenario stepped in real or accelerated time behind the server, plus
//!   the `--probe` smoke client ci.sh uses.
//! - [`client`] — a tiny blocking HTTP client for tests and the probe;
//!   its response parser doubles as the well-formedness oracle for the
//!   parser fuzz suite.
//!
//! The distributed control plane rides the same TCP stack:
//!
//! - [`frame`] — deadline-bounded length-prefixed frame I/O over
//!   `TcpStream`, wrapping the versioned codec in `capmaestro_core::wire`.
//! - [`rig`] — the deterministic rig vocabulary controller and agents
//!   build independently (no topology ever crosses the wire).
//! - [`socket`] — [`socket::SocketTransport`]: the room controller's
//!   listener-side `Transport` implementation (outbound agents,
//!   heartbeat liveness, reconnect-as-respawn).
//! - [`agent`] — the rack agent loop behind the `capmaestro-agent`
//!   binary: one worker index, a local farm of owned servers, jittered
//!   reconnect backoff.
//!
//! See DESIGN.md "Serving mode" for the endpoint table, health semantics,
//! and the shutdown protocol, and "Distributed control plane" for the
//! wire format and partition semantics.

pub mod agent;
pub mod client;
pub mod daemon;
pub mod frame;
pub mod http;
pub mod rig;
pub mod router;
pub mod server;
pub mod socket;
pub mod state;

pub use agent::{run_agent, AgentConfig, AgentReport};
pub use frame::{write_frame, FrameReader};
pub use http::{HttpError, HttpLimits, Request, Response};
pub use rig::{build_owned_farm, build_rig, rig_assignments, DistRig, RigSpec};
pub use router::{ApiError, Router};
pub use server::{Handler, HttpConfig, HttpServer, ShutdownHandle};
pub use socket::{SocketTransport, SocketTransportConfig};
pub use state::{BudgetError, HealthSnapshot, OpRejection, ServeState};
