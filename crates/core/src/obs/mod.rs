//! In-process observability for the control plane: a [`Recorder`] sink
//! trait, an atomics-backed [`MetricsRegistry`], span-style
//! [`PhaseTimer`]s for the six round phases, and two text exporters
//! ([`prometheus::render`] and [`json::snapshot`]).
//!
//! Design constraints (see DESIGN.md "Observability"):
//!
//! - **No new dependencies.** Counters and gauges are `AtomicU64`s,
//!   histograms fixed-bucket atomic arrays, and both exporters are
//!   hand-rolled text writers with matching validators/parsers.
//! - **Free when off.** The default [`NullRecorder`] reports
//!   `enabled() == false`; instrumentation sites skip clock reads and
//!   derived-stat computation entirely, keeping the round hot path
//!   allocation-free and bit-identical (the `alloc` bench smoke and the
//!   sim `observability` differential test both enforce this).
//! - **Cheap when on.** The registry takes one read lock plus one
//!   relaxed atomic op per record; it allocates only the first time a
//!   metric name is registered, so a warmed registry keeps the hot path
//!   allocation-free too.
//!
//! Metric names are `&'static str` and may carry a fixed label set
//! inline, e.g. `capmaestro_round_phase_seconds{phase="sense"}`. The
//! Prometheus renderer splits the base name at `{` when emitting
//! `# TYPE` lines and merges the histogram `le` label into an existing
//! label set; the JSON exporter passes names through verbatim.

#![deny(clippy::missing_docs_in_private_items)]

pub mod json;
pub mod prometheus;
mod registry;
pub mod trace;

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

pub use registry::{
    BucketSample, CounterSample, GaugeSample, HistogramSample, MetricsRegistry,
    MetricsSnapshot, DEFAULT_BUCKETS,
};

/// Sink for instrumentation events.
///
/// Implementations must be cheap and non-blocking: they are called from
/// the control-round hot path. The two in-repo implementations are
/// [`NullRecorder`] (drops everything, `enabled() == false`) and
/// [`MetricsRegistry`] (atomics behind a read-mostly lock).
pub trait Recorder: fmt::Debug + Send + Sync {
    /// Whether events are actually being kept. Instrumentation sites use
    /// this to skip *preparing* data for the recorder (reading clocks,
    /// walking trees for counts) — the `counter_add`/`observe` calls
    /// themselves are unconditional no-ops when disabled.
    fn enabled(&self) -> bool;

    /// Add `delta` to the monotonically increasing counter `name`.
    fn counter_add(&self, name: &'static str, delta: u64);

    /// Set the gauge `name` to `value`, replacing the previous value.
    fn gauge_set(&self, name: &'static str, value: f64);

    /// Record one observation of `value` into the histogram `name`.
    fn observe(&self, name: &'static str, value: f64);

    /// Whether timeline (trace) events are being kept. Emission sites
    /// use this — not [`Recorder::enabled`] — to gate the per-tree walk
    /// that produces counter tracks, so a metrics-only recorder pays
    /// nothing for the trace seam. Defaults to `false`; only
    /// [`trace::TraceRecorder`] overrides it.
    fn trace_enabled(&self) -> bool {
        false
    }

    /// Publish the current logical time in microseconds; subsequent
    /// trace events are stamped with it. The sim engine calls this once
    /// per simulated second so traces are deterministic. No-op by
    /// default.
    fn trace_set_time_us(&self, _now_us: u64) {}

    /// Sample counter track `track` for control tree `tree` (e.g. root
    /// budget, allocated budget, measured power). No-op by default.
    fn trace_tree_counter(&self, _tree: u32, _track: &'static str, _value: f64) {}

    /// Name control tree `tree`'s timeline process (`thread: None`) or
    /// one of its rack lanes (`thread: Some(tid)`). Implementations
    /// deduplicate, so emitters may re-announce every round. No-op by
    /// default.
    fn trace_tree_meta(&self, _tree: u32, _thread: Option<u32>, _name: &str) {}
}

/// The default recorder: keeps nothing, costs nothing.
///
/// Every method is an empty body and `enabled()` is `false`, so
/// instrumented code paths degenerate to a virtual call per site and
/// never read the clock. This is what keeps the default hot path
/// bit-identical to the pre-instrumentation pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn counter_add(&self, _name: &'static str, _delta: u64) {}

    fn gauge_set(&self, _name: &'static str, _value: f64) {}

    fn observe(&self, _name: &'static str, _value: f64) {}
}

/// Convenience constructor for the shared default recorder handle used
/// by `PlaneConfig`/`DeploymentConfig` defaults.
pub fn null_recorder() -> Arc<dyn Recorder> {
    Arc::new(NullRecorder)
}

/// The six phases of a control round, in pipeline order.
///
/// `sense` covers telemetry delivery and plausibility screening
/// (`ControlPlane::record_snapshots`); the remaining five partition
/// `ControlPlane::round` itself. Each phase has a dedicated histogram
/// series under [`names::ROUND_PHASE_SECONDS`], labelled by phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundPhase {
    /// Telemetry delivery + plausibility screening (1 Hz sampling).
    Sense,
    /// Staleness bookkeeping and per-server demand estimation.
    Estimate,
    /// Tree refresh: leaf updates and dirty-tracked re-summarization.
    Gather,
    /// Budget allocation down the control trees (SPO pass 1 when SPO is
    /// enabled, the plain policy pass otherwise).
    Allocate,
    /// Stranded-power detection and the SPO reallocation pass.
    Spo,
    /// Cap enforcement: per-supply budgets into per-server DC caps.
    Enforce,
}

impl RoundPhase {
    /// All six phases in pipeline order.
    pub const ALL: [RoundPhase; 6] = [
        RoundPhase::Sense,
        RoundPhase::Estimate,
        RoundPhase::Gather,
        RoundPhase::Allocate,
        RoundPhase::Spo,
        RoundPhase::Enforce,
    ];

    /// The phase's label value (the `phase="…"` string).
    pub fn label(self) -> &'static str {
        match self {
            RoundPhase::Sense => "sense",
            RoundPhase::Estimate => "estimate",
            RoundPhase::Gather => "gather",
            RoundPhase::Allocate => "allocate",
            RoundPhase::Spo => "spo",
            RoundPhase::Enforce => "enforce",
        }
    }

    /// The full labelled histogram series name for this phase.
    pub fn metric_name(self) -> &'static str {
        match self {
            RoundPhase::Sense => "capmaestro_round_phase_seconds{phase=\"sense\"}",
            RoundPhase::Estimate => "capmaestro_round_phase_seconds{phase=\"estimate\"}",
            RoundPhase::Gather => "capmaestro_round_phase_seconds{phase=\"gather\"}",
            RoundPhase::Allocate => "capmaestro_round_phase_seconds{phase=\"allocate\"}",
            RoundPhase::Spo => "capmaestro_round_phase_seconds{phase=\"spo\"}",
            RoundPhase::Enforce => "capmaestro_round_phase_seconds{phase=\"enforce\"}",
        }
    }
}

/// Span-style timer: starts a clock on construction (only when the
/// recorder is enabled) and records the elapsed seconds into the named
/// histogram when dropped.
///
/// With a disabled recorder the timer never touches the clock, so the
/// instrumented code path stays bit-identical and free.
#[derive(Debug)]
#[must_use = "the span is recorded when the timer is dropped"]
pub struct PhaseTimer<'a> {
    /// Where the elapsed time is recorded on drop.
    recorder: &'a dyn Recorder,
    /// Histogram series the span is recorded into.
    name: &'static str,
    /// Span start; `None` when the recorder is disabled.
    start: Option<Instant>,
}

impl<'a> PhaseTimer<'a> {
    /// Start a span over `name`. Reads the clock only if
    /// `recorder.enabled()`.
    pub fn start(recorder: &'a dyn Recorder, name: &'static str) -> Self {
        let start = recorder.enabled().then(Instant::now);
        PhaseTimer {
            recorder,
            name,
            start,
        }
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.recorder.observe(self.name, start.elapsed().as_secs_f64());
        }
    }
}

/// Errors from the exporter validators/parsers
/// ([`prometheus::validate`] and [`json::parse`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line of Prometheus text exposition did not match the grammar.
    Exposition {
        /// 1-based line number of the offending line.
        line: usize,
        /// What failed to parse.
        reason: String,
    },
    /// A JSON snapshot was malformed.
    Json {
        /// Byte offset where parsing failed.
        offset: usize,
        /// What failed to parse.
        reason: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Exposition { line, reason } => {
                write!(f, "exposition line {line}: {reason}")
            }
            ParseError::Json { offset, reason } => {
                write!(f, "json offset {offset}: {reason}")
            }
        }
    }
}

impl Error for ParseError {}

/// Canonical metric names. Everything is prefixed `capmaestro_`;
/// counters end in `_total`, histograms carry their unit (`_seconds`),
/// and gauges name the quantity directly.
pub mod names {
    /// Counter: control rounds completed (`ControlPlane::round`).
    pub const ROUNDS_TOTAL: &str = "capmaestro_rounds_total";
    /// Histogram base name for per-phase round timings; the actual
    /// series carry a `phase` label (see
    /// [`RoundPhase::metric_name`](super::RoundPhase::metric_name)).
    pub const ROUND_PHASE_SECONDS: &str = "capmaestro_round_phase_seconds";
    /// Gauge: servers currently past the staleness threshold.
    pub const STALE_SERVERS: &str = "capmaestro_stale_servers";
    /// Counter: fail-safe cap enforcements on stale servers.
    pub const FAILSAFE_CAPS_TOTAL: &str = "capmaestro_failsafe_caps_total";
    /// Gauge: stranded watts reclaimed by SPO in the latest round.
    pub const STRANDED_WATTS_RECLAIMED: &str = "capmaestro_stranded_watts_reclaimed";
    /// Counter: tree nodes (re-)summarized during gather.
    pub const TREE_NODES_SUMMARIZED_TOTAL: &str = "capmaestro_tree_nodes_summarized_total";
    /// Counter: tree nodes skipped by dirty-tracking during gather.
    pub const TREE_NODES_DIRTY_SKIPPED_TOTAL: &str =
        "capmaestro_tree_nodes_dirty_skipped_total";
    /// Counter: leaves whose capping controller a round ran. A round
    /// commands only leaves whose inputs may have changed, so a settled
    /// fleet adds nothing.
    pub const LEAVES_COMMANDED_TOTAL: &str = "capmaestro_leaves_commanded_total";
    /// Counter: rack workers respawned after a death.
    pub const WORKER_RESPAWNS_TOTAL: &str = "capmaestro_worker_respawns_total";
    /// Counter: distributed gathers that hit the deadline with answers
    /// still missing.
    pub const WORKER_GATHER_TIMEOUTS_TOTAL: &str =
        "capmaestro_worker_gather_timeouts_total";
    /// Gauge: metric sets cut to fail-safe demand in the latest
    /// distributed round.
    pub const WORKER_FAILSAFE_CUTS: &str = "capmaestro_worker_failsafe_cuts";
    /// Counter: simulated seconds stepped by `sim::Engine`.
    pub const SIM_STEPS_TOTAL: &str = "capmaestro_sim_steps_total";
    /// Histogram: wall time per simulated second (steps/sec is
    /// `count / sum`).
    pub const SIM_STEP_SECONDS: &str = "capmaestro_sim_step_seconds";
    /// Counter: telemetry/feed fault events applied by the engine.
    pub const SIM_FAULT_EVENTS_TOTAL: &str = "capmaestro_sim_fault_events_total";
    /// Counter: invariant violations recorded by `audit::InvariantTracker`.
    pub const INVARIANT_VIOLATIONS_TOTAL: &str =
        "capmaestro_invariant_violations_total";
    /// Counter: HTTP requests accepted by the serving subsystem
    /// (`capmaestro-serve`), across all endpoints.
    pub const SERVE_REQUESTS_TOTAL: &str = "capmaestro_serve_requests_total";
    /// Counter: HTTP requests answered with a 4xx status (unknown path,
    /// wrong method, malformed body, out-of-bounds budget).
    pub const SERVE_CLIENT_ERRORS_TOTAL: &str =
        "capmaestro_serve_client_errors_total";
    /// Counter: accepted `POST /v1/budget` updates staged for the next
    /// round boundary.
    pub const SERVE_BUDGET_UPDATES_TOTAL: &str =
        "capmaestro_serve_budget_updates_total";
    /// Counter: HTTP worker threads respawned after a handler panic.
    pub const SERVE_WORKER_RESPAWNS_TOTAL: &str =
        "capmaestro_serve_worker_respawns_total";
    /// Counter: operator events appended to the oplog (idempotent
    /// replays not counted).
    pub const SERVE_OPLOG_APPENDS_TOTAL: &str =
        "capmaestro_serve_oplog_appends_total";
    /// Counter: reconciliation actions applied to converge the live
    /// plane onto the declared state (budget stages, priority updates,
    /// power flips, allocator switches).
    pub const SERVE_RECONCILE_ACTIONS_TOTAL: &str =
        "capmaestro_serve_reconcile_actions_total";
    /// Counter: times a rack agent re-established its outbound
    /// connection to the room controller (first connect not counted).
    pub const AGENT_RECONNECTS_TOTAL: &str = "capmaestro_agent_reconnects_total";
    /// Histogram: heartbeat round-trip time measured by a rack agent.
    pub const AGENT_HEARTBEAT_RTT_SECONDS: &str =
        "capmaestro_agent_heartbeat_rtt_seconds";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        let r = NullRecorder;
        assert!(!r.enabled());
        r.counter_add("x", 1);
        r.gauge_set("y", 1.0);
        r.observe("z", 1.0);
    }

    #[test]
    fn phase_timer_skips_clock_when_disabled() {
        let r = NullRecorder;
        let t = PhaseTimer::start(&r, names::SIM_STEP_SECONDS);
        assert!(t.start.is_none());
    }

    #[test]
    fn phase_timer_records_on_drop_when_enabled() {
        let reg = MetricsRegistry::new();
        {
            let _t = PhaseTimer::start(&reg, RoundPhase::Sense.metric_name());
        }
        let snap = reg.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.name, RoundPhase::Sense.metric_name());
        assert_eq!(h.count, 1);
        assert!(h.sum >= 0.0);
    }

    #[test]
    fn phase_names_cover_all_six_phases() {
        assert_eq!(RoundPhase::ALL.len(), 6);
        for phase in RoundPhase::ALL {
            assert!(phase.metric_name().starts_with(names::ROUND_PHASE_SECONDS));
            assert!(phase.metric_name().contains(phase.label()));
        }
    }

    #[test]
    fn parse_error_displays_lowercase() {
        let e = ParseError::Exposition {
            line: 3,
            reason: "bad name".to_string(),
        };
        let msg = e.to_string();
        assert!(msg.starts_with("exposition line 3"));
        assert!(!msg.ends_with('.'));
    }
}
