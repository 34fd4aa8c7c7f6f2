//! Perfetto-format timeline export: round phases as duration slices and
//! per-tree power/budget/cap signals as counter tracks, serialized in
//! Chrome's JSON trace-event format (loadable in `chrome://tracing` and
//! [Perfetto UI](https://ui.perfetto.dev)).
//!
//! Design constraints (see DESIGN.md "Trace export"):
//!
//! - **No new dependencies.** The JSON trace format is hand-rolled text,
//!   like the Prometheus and JSON snapshot exporters; the protobuf
//!   Perfetto format would need a codegen dependency.
//! - **Free when off.** Tracing rides the [`Recorder`] seam: the default
//!   [`super::NullRecorder`] inherits no-op `trace_*` methods, so the
//!   untraced hot path stays clock-free, allocation-free, and
//!   bit-identical (`crates/sim/tests/trace_differential.rs`).
//! - **Bounded when on.** Events land in a fixed-capacity ring
//!   ([`TraceBuffer`]) that drops oldest first and counts what it
//!   dropped; a long-running daemon can never grow without bound.
//! - **A tested contract.** [`parse`] is a strict validator (event
//!   kinds, B/E nesting balance per track, monotonic timestamps, finite
//!   counter values) that doubles as the golden/differential test oracle
//!   and rejects hostile or torn input without panicking.
//!
//! Timestamps are *simulated* microseconds (the engine publishes its
//! logical clock via [`Recorder::trace_set_time_us`]), so a trace of a
//! deterministic run is itself deterministic; only slice durations come
//! from the wall clock, and [`normalize`] zeroes them for byte-for-byte
//! golden comparisons.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use super::json::{write_str, Lexer};
use super::{names, ParseError, Recorder, RoundPhase};

/// The `Content-Type` an HTTP endpoint should declare for [`render`]ed
/// traces.
pub const CONTENT_TYPE: &str = "application/json";

/// Synthetic process id carrying the control plane's phase slices and
/// fleet-wide counter tracks.
pub const PID_PLANE: u32 = 1;

/// Synthetic process id of the first control tree; tree `i` is
/// `TREE_PID_BASE + i`. Each tree process carries its own counter
/// tracks and thread-metadata rows naming its racks.
pub const TREE_PID_BASE: u32 = 100;

/// Thread id (under [`PID_PLANE`]) of the engine's per-simulated-second
/// step slices.
pub const TID_SIM_STEP: u32 = 7;

/// Counter track: a tree's root budget in watts (what the allocator was
/// given).
pub const ROOT_BUDGET_W: &str = "root_budget_w";

/// Counter track: a tree's total allocated leaf budget in watts (what
/// the allocator handed out).
pub const BUDGET_ALLOC_W: &str = "budget_alloc_w";

/// Counter track: a tree's measured AC power in watts, summed over its
/// leaves' last delivered telemetry.
pub const POWER_W: &str = "power_w";

/// Counter track: servers currently past the staleness threshold.
pub const STALE_SERVERS: &str = "stale_servers";

/// Counter track: cumulative fail-safe cap enforcements.
pub const FAILSAFE_CUTS: &str = "failsafe_cuts";

/// Counter track: stranded watts reclaimed by SPO in the latest round.
pub const STRANDED_W: &str = "stranded_w";

/// Default [`TraceBuffer`] capacity in events. A Fig. 2 rig emits ~3
/// events per simulated second (sense + step slices every second, a
/// dozen more per 8 s round), so the default holds several hours.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// What one trace event is, mirroring the `ph` field of the JSON trace
/// format.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// `ph: "X"` — a complete slice with an explicit duration.
    Complete {
        /// Slice duration in microseconds.
        dur_us: u64,
    },
    /// `ph: "B"` — a slice begins on its `(pid, tid)` track.
    Begin,
    /// `ph: "E"` — the most recent open slice on the track ends.
    End,
    /// `ph: "C"` — one sample of a counter track.
    Counter {
        /// The sampled value; always finite (non-finite samples are
        /// refused at emission).
        value: f64,
    },
}

/// One timeline event on a `(pid, tid)` track.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event (slice or counter-track) name.
    pub name: Cow<'static, str>,
    /// Synthetic process id ([`PID_PLANE`], `TREE_PID_BASE + i`, …).
    pub pid: u32,
    /// Synthetic thread id within the process (phase lane, rack lane);
    /// counters ignore it and render without a `tid`.
    pub tid: u32,
    /// Timestamp in (simulated) microseconds.
    pub ts_us: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A `ph: "M"` metadata event naming a synthetic process or thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaEvent {
    /// The process being named.
    pub pid: u32,
    /// `Some(tid)` names a thread within `pid`; `None` names the process
    /// itself.
    pub tid: Option<u32>,
    /// The display name.
    pub name: String,
}

/// Fixed-capacity event ring: pushing past capacity evicts the oldest
/// event and counts it, so a long-running emitter is memory-bounded and
/// the loss is visible ([`TraceBuffer::dropped`]).
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    /// The retained events, oldest first.
    events: VecDeque<TraceEvent>,
    /// Maximum number of retained events (at least 1).
    capacity: usize,
    /// Events evicted to make room since construction (or the last
    /// [`TraceBuffer::clear`]).
    dropped: u64,
    /// Total events ever pushed (retained + evicted).
    pushed: u64,
}

impl TraceBuffer {
    /// A ring holding at most `capacity` events (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceBuffer {
            events: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
            pushed: 0,
        }
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
        self.pushed += 1;
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The ring's capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted to make room so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever pushed (retained + evicted).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Forget all retained events and reset the counters.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
        self.pushed = 0;
    }
}

/// Mutable state behind the [`TraceRecorder`]'s lock.
#[derive(Debug)]
struct Inner {
    /// The bounded event ring.
    buffer: TraceBuffer,
    /// Process/thread naming, kept *outside* the ring so eviction can
    /// never orphan a track's name; deduplicated by `(pid, tid)`.
    meta: Vec<MetaEvent>,
    /// The current logical timestamp in microseconds, published by the
    /// engine once per simulated second.
    now_us: u64,
    /// Running total behind the cumulative [`FAILSAFE_CUTS`] track (the
    /// metrics seam delivers deltas).
    failsafe_total: u64,
}

/// A [`Recorder`] that turns the existing metrics seam into a Perfetto
/// timeline: phase histograms become duration slices, the plane's
/// gauges/counters become counter tracks, and the trait's `trace_*`
/// extension points add per-tree counters and naming. All metric calls
/// are also forwarded to an optional inner recorder, so a daemon can
/// keep its Prometheus registry and gain tracing with one attachment.
#[derive(Debug)]
pub struct TraceRecorder {
    /// Ring, metadata, clock, cumulative counters.
    inner: Mutex<Inner>,
    /// Recorder every metric call is forwarded to (a `MetricsRegistry`
    /// in the daemon; `None` when tracing stands alone).
    forward: Option<Arc<dyn Recorder>>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// A recorder with the [`DEFAULT_CAPACITY`] ring.
    pub fn new() -> Self {
        TraceRecorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder whose ring holds at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut meta = vec![MetaEvent {
            pid: PID_PLANE,
            tid: None,
            name: "control plane".to_string(),
        }];
        for (i, phase) in RoundPhase::ALL.iter().enumerate() {
            meta.push(MetaEvent {
                pid: PID_PLANE,
                tid: Some(i as u32 + 1),
                name: phase.label().to_string(),
            });
        }
        meta.push(MetaEvent {
            pid: PID_PLANE,
            tid: Some(TID_SIM_STEP),
            name: "sim step".to_string(),
        });
        TraceRecorder {
            inner: Mutex::new(Inner {
                buffer: TraceBuffer::new(capacity),
                meta,
                now_us: 0,
                failsafe_total: 0,
            }),
            forward: None,
        }
    }

    /// Forward every metric call to `recorder` as well (builder style).
    pub fn with_forward(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.forward = Some(recorder);
        self
    }

    /// Lock the inner state, shrugging off poisoning: a panicked emitter
    /// must not take the exporter down with it.
    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current logical timestamp in microseconds.
    pub fn now_us(&self) -> u64 {
        self.locked().now_us
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.locked().buffer.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.locked().buffer.is_empty()
    }

    /// Events evicted by the ring so far.
    pub fn dropped_events(&self) -> u64 {
        self.locked().buffer.dropped()
    }

    /// Total events ever pushed into the ring.
    pub fn pushed_events(&self) -> u64 {
        self.locked().buffer.pushed()
    }

    /// Open a `B` slice on `(pid, tid)` at the current logical time.
    pub fn begin_slice(&self, pid: u32, tid: u32, name: impl Into<Cow<'static, str>>) {
        let mut inner = self.locked();
        let ts_us = inner.now_us;
        inner.buffer.push(TraceEvent {
            name: name.into(),
            pid,
            tid,
            ts_us,
            kind: EventKind::Begin,
        });
    }

    /// Close the most recent open slice on `(pid, tid)`.
    pub fn end_slice(&self, pid: u32, tid: u32, name: impl Into<Cow<'static, str>>) {
        let mut inner = self.locked();
        let ts_us = inner.now_us;
        inner.buffer.push(TraceEvent {
            name: name.into(),
            pid,
            tid,
            ts_us,
            kind: EventKind::End,
        });
    }

    /// Record a complete (`X`) slice on `(pid, tid)` at the current
    /// logical time.
    pub fn complete_slice(
        &self,
        pid: u32,
        tid: u32,
        name: impl Into<Cow<'static, str>>,
        dur_us: u64,
    ) {
        let mut inner = self.locked();
        let ts_us = inner.now_us;
        inner.buffer.push(TraceEvent {
            name: name.into(),
            pid,
            tid,
            ts_us,
            kind: EventKind::Complete { dur_us },
        });
    }

    /// Sample counter track `name` under process `pid`. Non-finite
    /// values are refused (the format cannot carry them).
    pub fn counter(&self, pid: u32, name: impl Into<Cow<'static, str>>, value: f64) {
        if !value.is_finite() {
            return;
        }
        let mut inner = self.locked();
        let ts_us = inner.now_us;
        inner.buffer.push(TraceEvent {
            name: name.into(),
            pid,
            tid: 0,
            ts_us,
            kind: EventKind::Counter { value },
        });
    }

    /// Name process `pid` (`tid: None`) or thread `(pid, tid)`. First
    /// name wins; repeats are deduplicated, so emitters may re-announce
    /// every round.
    pub fn name_track(&self, pid: u32, tid: Option<u32>, name: &str) {
        let mut inner = self.locked();
        if inner.meta.iter().any(|m| m.pid == pid && m.tid == tid) {
            return;
        }
        inner.meta.push(MetaEvent {
            pid,
            tid,
            name: name.to_string(),
        });
    }

    /// Render the retained events as a JSON trace document.
    ///
    /// `last_s: Some(n)` keeps only events in the trailing `n` simulated
    /// seconds (metadata is always included). Rendering is
    /// non-destructive — a `GET` is idempotent and never perturbs the
    /// emitting run; use [`TraceRecorder::drain`] to also clear.
    pub fn render(&self, last_s: Option<u64>) -> String {
        let inner = self.locked();
        let cutoff_us = last_s.map(|s| {
            inner.now_us.saturating_sub(s.saturating_mul(1_000_000))
        });
        render_document(&inner.buffer, cutoff_us, &inner.meta)
    }

    /// Render everything retained, then clear the ring (the `--trace`
    /// file writer's run-boundary flush).
    pub fn drain(&self) -> String {
        let mut inner = self.locked();
        let out = render_document(&inner.buffer, None, &inner.meta);
        inner.buffer.clear();
        out
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(forward) = &self.forward {
            forward.counter_add(name, delta);
        }
        if name == names::FAILSAFE_CAPS_TOTAL {
            let mut inner = self.locked();
            inner.failsafe_total += delta;
            let (ts_us, total) = (inner.now_us, inner.failsafe_total);
            inner.buffer.push(TraceEvent {
                name: Cow::Borrowed(FAILSAFE_CUTS),
                pid: PID_PLANE,
                tid: 0,
                ts_us,
                kind: EventKind::Counter {
                    value: total as f64,
                },
            });
        }
    }

    fn gauge_set(&self, name: &'static str, value: f64) {
        if let Some(forward) = &self.forward {
            forward.gauge_set(name, value);
        }
        let track = match name {
            names::STALE_SERVERS => STALE_SERVERS,
            names::STRANDED_WATTS_RECLAIMED => STRANDED_W,
            _ => return,
        };
        self.counter(PID_PLANE, track, value);
    }

    fn observe(&self, name: &'static str, value: f64) {
        if let Some(forward) = &self.forward {
            forward.observe(name, value);
        }
        let (label, tid) = if name == names::SIM_STEP_SECONDS {
            ("sim step", TID_SIM_STEP)
        } else {
            match RoundPhase::ALL
                .iter()
                .position(|p| p.metric_name() == name)
            {
                Some(i) => (RoundPhase::ALL[i].label(), i as u32 + 1),
                None => return,
            }
        };
        let dur_us = if value.is_finite() && value > 0.0 {
            (value * 1e6).round() as u64
        } else {
            0
        };
        self.complete_slice(PID_PLANE, tid, label, dur_us);
    }

    fn trace_enabled(&self) -> bool {
        true
    }

    fn trace_set_time_us(&self, now_us: u64) {
        self.locked().now_us = now_us;
    }

    fn trace_tree_counter(&self, tree: u32, track: &'static str, value: f64) {
        self.counter(TREE_PID_BASE.saturating_add(tree), track, value);
    }

    fn trace_tree_meta(&self, tree: u32, thread: Option<u32>, name: &str) {
        self.name_track(TREE_PID_BASE.saturating_add(tree), thread, name);
    }
}

/// Serialize the ring (optionally time-filtered) plus metadata as one
/// canonical JSON trace document.
///
/// Eviction (or a `last_s` cut) can strand an `E` whose `B` is gone;
/// such orphans are skipped here and counted as dropped, so the emitted
/// document always keeps B/E nesting balanced per track and the
/// `droppedEvents` tally stays honest: `dropped + emitted == pushed`
/// for an unfiltered render.
fn render_document(
    buffer: &TraceBuffer,
    cutoff_us: Option<u64>,
    meta: &[MetaEvent],
) -> String {
    // First pass: find orphaned `E` events (per-track depth going
    // negative) among the events that survive the time filter.
    let survives = |e: &TraceEvent| cutoff_us.is_none_or(|cut| e.ts_us >= cut);
    let mut depths: Vec<((u32, u32), i64)> = Vec::new();
    let mut orphans = 0u64;
    let mut filtered = 0u64;
    for event in buffer.iter() {
        if !survives(event) {
            filtered += 1;
            continue;
        }
        let delta = match event.kind {
            EventKind::Begin => 1,
            EventKind::End => -1,
            _ => continue,
        };
        let key = (event.pid, event.tid);
        let depth = match depths.iter_mut().find(|(k, _)| *k == key) {
            Some((_, d)) => d,
            None => {
                depths.push((key, 0));
                &mut depths.last_mut().expect("just pushed").1
            }
        };
        *depth += delta;
        if *depth < 0 {
            orphans += 1;
            *depth = 0;
        }
    }

    let dropped = buffer.dropped() + filtered + orphans;
    let mut out = String::with_capacity(256 + buffer.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":\"");
    let _ = write!(out, "{dropped}");
    out.push_str("\"},\"traceEvents\":[");
    let mut first = true;
    /// Append the separating newline between array elements.
    fn sep(out: &mut String, first: &mut bool) {
        if *first {
            *first = false;
        } else {
            out.push(',');
        }
        out.push('\n');
    }
    for m in meta {
        sep(&mut out, &mut first);
        out.push_str("{\"name\":");
        write_str(
            &mut out,
            if m.tid.is_some() {
                "thread_name"
            } else {
                "process_name"
            },
        );
        out.push_str(",\"ph\":\"M\",\"pid\":");
        let _ = write!(out, "{}", m.pid);
        if let Some(tid) = m.tid {
            let _ = write!(out, ",\"tid\":{tid}");
        }
        out.push_str(",\"args\":{\"name\":");
        write_str(&mut out, &m.name);
        out.push_str("}}");
    }
    // Second pass: emit, skipping orphaned `E`s the same way.
    depths.iter_mut().for_each(|(_, d)| *d = 0);
    for event in buffer.iter() {
        if !survives(event) {
            continue;
        }
        if matches!(event.kind, EventKind::Begin | EventKind::End) {
            let key = (event.pid, event.tid);
            let depth = match depths.iter_mut().find(|(k, _)| *k == key) {
                Some((_, d)) => d,
                None => unreachable!("track seen in first pass"),
            };
            match event.kind {
                EventKind::Begin => *depth += 1,
                EventKind::End => {
                    if *depth == 0 {
                        continue; // orphan, already counted
                    }
                    *depth -= 1;
                }
                _ => unreachable!(),
            }
        }
        sep(&mut out, &mut first);
        out.push_str("{\"name\":");
        write_str(&mut out, &event.name);
        out.push_str(",\"ph\":\"");
        out.push(match event.kind {
            EventKind::Complete { .. } => 'X',
            EventKind::Begin => 'B',
            EventKind::End => 'E',
            EventKind::Counter { .. } => 'C',
        });
        let _ = write!(out, "\",\"ts\":{}", event.ts_us);
        if let EventKind::Complete { dur_us } = event.kind {
            let _ = write!(out, ",\"dur\":{dur_us}");
        }
        let _ = write!(out, ",\"pid\":{}", event.pid);
        match event.kind {
            EventKind::Counter { value } => {
                out.push_str(",\"args\":{\"value\":");
                let _ = write!(out, "{value}");
                out.push_str("}}");
            }
            _ => {
                let _ = write!(out, ",\"tid\":{}}}", event.tid);
            }
        }
    }
    out.push_str("\n]}");
    out
}

/// A parsed (and therefore validated) trace document.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTrace {
    /// Timeline events in document order.
    pub events: Vec<TraceEvent>,
    /// Process/thread naming events.
    pub meta: Vec<MetaEvent>,
    /// The document's `droppedEvents` tally.
    pub dropped: u64,
}

impl ParsedTrace {
    /// Distinct counter-track identities `(pid, name)` in the document.
    pub fn counter_tracks(&self) -> Vec<(u32, String)> {
        let mut tracks: Vec<(u32, String)> = Vec::new();
        for event in &self.events {
            if matches!(event.kind, EventKind::Counter { .. }) {
                let key = (event.pid, event.name.to_string());
                if !tracks.contains(&key) {
                    tracks.push(key);
                }
            }
        }
        tracks
    }

    /// How many slice events (`X`/`B`) carry this name.
    pub fn slice_count(&self, name: &str) -> usize {
        self.events
            .iter()
            .filter(|e| {
                e.name == name
                    && matches!(e.kind, EventKind::Complete { .. } | EventKind::Begin)
            })
            .count()
    }
}

/// A non-negative integer token that fits in `u64`.
fn uint(lex: &mut Lexer<'_>) -> Result<u64, ParseError> {
    let text = lex.number()?;
    text.parse()
        .map_err(|_| lex.err(format!("expected unsigned integer, got {text:?}")))
}

/// A finite `f64` token.
fn finite(lex: &mut Lexer<'_>) -> Result<f64, ParseError> {
    let text = lex.number()?;
    match text.parse::<f64>() {
        Ok(value) if value.is_finite() => Ok(value),
        Ok(_) => Err(lex.err("counter value is not finite")),
        Err(_) => Err(lex.err(format!("expected number, got {text:?}"))),
    }
}

/// One raw field slot while parsing an event object.
#[derive(Debug, Default)]
struct RawEvent {
    /// `"name"`.
    name: Option<String>,
    /// `"ph"`.
    ph: Option<String>,
    /// `"ts"`.
    ts: Option<u64>,
    /// `"dur"`.
    dur: Option<u64>,
    /// `"pid"`.
    pid: Option<u64>,
    /// `"tid"`.
    tid: Option<u64>,
    /// `args.value` (counters).
    value: Option<f64>,
    /// `args.name` (metadata).
    args_name: Option<String>,
}

/// Parse one event object from the `traceEvents` array.
fn parse_event(lex: &mut Lexer<'_>) -> Result<RawEvent, ParseError> {
    let mut raw = RawEvent::default();
    lex.object(true, |lex, key| {
        match key.as_str() {
            "name" => raw.name = Some(lex.string()?),
            "ph" => raw.ph = Some(lex.string()?),
            "ts" => raw.ts = Some(uint(lex)?),
            "dur" => raw.dur = Some(uint(lex)?),
            "pid" => raw.pid = Some(uint(lex)?),
            "tid" => raw.tid = Some(uint(lex)?),
            "args" => lex.object(false, |lex, arg| {
                match arg.as_str() {
                    "value" => raw.value = Some(finite(lex)?),
                    "name" => raw.args_name = Some(lex.string()?),
                    other => return Err(lex.err(format!("unknown args field {other:?}"))),
                }
                Ok(())
            })?,
            other => return Err(lex.err(format!("unknown event field {other:?}"))),
        }
        Ok(())
    })?;
    Ok(raw)
}

/// The largest `pid`/`tid` the validator accepts (synthetic ids are
/// small; a huge one is hostile input).
const MAX_ID: u64 = u32::MAX as u64;

/// Parse and strictly validate a JSON trace document.
///
/// Beyond JSON well-formedness, this enforces the trace contract:
/// known event kinds only (`X`/`B`/`E`/`C`/`M`), required fields per
/// kind, finite counter values, non-decreasing timestamps in document
/// order, and per-track B/E nesting balance (an `E` with no open `B` on
/// its `(pid, tid)` track is an error; a still-open `B` at the end is
/// legal — the trace was cut mid-slice). Hostile or torn input yields
/// `Err`, never a panic. The golden and differential tests use this as
/// their oracle.
pub fn parse(text: &str) -> Result<ParsedTrace, ParseError> {
    let mut lex = Lexer::new(text);
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut meta: Vec<MetaEvent> = Vec::new();
    let mut dropped: Option<u64> = None;
    let mut seen_events = false;
    lex.object(false, |lex, key| {
        match key.as_str() {
            "displayTimeUnit" => {
                let unit = lex.string()?;
                if unit != "ms" && unit != "ns" {
                    return Err(lex.err(format!("unknown displayTimeUnit {unit:?}")));
                }
            }
            "otherData" => lex.object(false, |lex, field| {
                if field != "droppedEvents" {
                    return Err(lex.err(format!("unknown otherData field {field:?}")));
                }
                let raw = lex.string()?;
                let n = raw
                    .parse::<u64>()
                    .map_err(|_| lex.err(format!("droppedEvents is not a count: {raw:?}")))?;
                dropped = Some(n);
                Ok(())
            })?,
            "traceEvents" => {
                seen_events = true;
                lex.array(|lex| {
                    let raw = parse_event(lex)?;
                    ingest_event(lex, raw, &mut events, &mut meta)
                })?;
            }
            other => return Err(lex.err(format!("unknown trace field {other:?}"))),
        }
        Ok(())
    })?;
    lex.finish()?;
    if !seen_events {
        return Err(lex.err("document has no traceEvents array"));
    }
    validate(&events)?;
    Ok(ParsedTrace {
        events,
        meta,
        dropped: dropped.unwrap_or(0),
    })
}

/// Convert a raw parsed object into a typed event, enforcing per-kind
/// required fields.
fn ingest_event(
    lex: &Lexer<'_>,
    raw: RawEvent,
    events: &mut Vec<TraceEvent>,
    meta: &mut Vec<MetaEvent>,
) -> Result<(), ParseError> {
    let ph = raw.ph.as_deref().unwrap_or("");
    let name = raw
        .name
        .ok_or_else(|| lex.err("event missing name"))?;
    let pid = raw
        .pid
        .filter(|&p| p <= MAX_ID)
        .ok_or_else(|| lex.err("event missing (or oversized) pid"))? as u32;
    if raw.tid.is_some_and(|t| t > MAX_ID) {
        return Err(lex.err("oversized tid"));
    }
    if ph == "M" {
        if name != "process_name" && name != "thread_name" {
            return Err(lex.err(format!("unknown metadata event {name:?}")));
        }
        let display = raw
            .args_name
            .ok_or_else(|| lex.err("metadata event missing args.name"))?;
        if (name == "thread_name") != raw.tid.is_some() {
            return Err(lex.err("metadata tid must match thread_name/process_name"));
        }
        meta.push(MetaEvent {
            pid,
            tid: raw.tid.map(|t| t as u32),
            name: display,
        });
        return Ok(());
    }
    let ts_us = raw
        .ts
        .ok_or_else(|| lex.err(format!("{ph:?} event missing ts")))?;
    let kind = match ph {
        "X" => EventKind::Complete {
            dur_us: raw
                .dur
                .ok_or_else(|| lex.err("X event missing dur"))?,
        },
        "B" => EventKind::Begin,
        "E" => EventKind::End,
        "C" => EventKind::Counter {
            value: raw
                .value
                .ok_or_else(|| lex.err("C event missing args.value"))?,
        },
        other => return Err(lex.err(format!("unknown event kind {other:?}"))),
    };
    let tid = match kind {
        EventKind::Counter { .. } => raw.tid.unwrap_or(0) as u32,
        _ => raw
            .tid
            .ok_or_else(|| lex.err(format!("{ph:?} event missing tid")))? as u32,
    };
    events.push(TraceEvent {
        name: Cow::Owned(name),
        pid,
        tid,
        ts_us,
        kind,
    });
    Ok(())
}

/// Semantic validation over the parsed events: monotonic timestamps and
/// per-track B/E balance.
fn validate(events: &[TraceEvent]) -> Result<(), ParseError> {
    let mut last_ts = 0u64;
    let mut stacks: Vec<((u32, u32), Vec<&str>)> = Vec::new();
    for (i, event) in events.iter().enumerate() {
        if event.ts_us < last_ts {
            return Err(ParseError::Json {
                offset: i,
                reason: format!(
                    "timestamps go backwards: event {i} at {} after {}",
                    event.ts_us, last_ts
                ),
            });
        }
        last_ts = event.ts_us;
        let key = (event.pid, event.tid);
        match event.kind {
            EventKind::Begin => {
                match stacks.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, stack)) => stack.push(&event.name),
                    None => stacks.push((key, vec![&event.name])),
                }
            }
            EventKind::End => {
                let open = stacks
                    .iter_mut()
                    .find(|(k, _)| *k == key)
                    .and_then(|(_, stack)| stack.pop());
                match open {
                    None => {
                        return Err(ParseError::Json {
                            offset: i,
                            reason: format!(
                                "E event {i} ({}) has no open B on track {key:?}",
                                event.name
                            ),
                        })
                    }
                    Some(opened) if opened != event.name => {
                        return Err(ParseError::Json {
                            offset: i,
                            reason: format!(
                                "E event {i} ({}) crosses open slice {opened:?} on track {key:?}",
                                event.name
                            ),
                        })
                    }
                    Some(_) => {}
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Canonicalize a trace for golden comparison: parse (so only valid
/// traces normalize), zero every wall-clock-derived `dur`, and
/// re-render in canonical field order. Two runs of the same
/// deterministic scenario normalize to identical bytes.
pub fn normalize(text: &str) -> Result<String, ParseError> {
    let parsed = parse(text)?;
    let mut buffer = TraceBuffer::new(parsed.events.len().max(1));
    for mut event in parsed.events {
        if let EventKind::Complete { dur_us } = &mut event.kind {
            *dur_us = 0;
        }
        buffer.push(event);
    }
    // Rendering counts no drops here: capacity covers every event and
    // the original document's tally is wall-clock-independent only for
    // unfiltered renders, so the canonical form pins it to zero.
    Ok(render_document(&buffer, None, &parsed.meta))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = TraceBuffer::new(3);
        for i in 0..5u64 {
            ring.push(TraceEvent {
                name: Cow::Borrowed("e"),
                pid: 1,
                tid: 1,
                ts_us: i,
                kind: EventKind::Begin,
            });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.pushed(), 5);
        let kept: Vec<u64> = ring.iter().map(|e| e.ts_us).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest evicted first");
    }

    #[test]
    fn recorder_emits_phase_slices_and_counters() {
        let recorder = TraceRecorder::new();
        recorder.trace_set_time_us(8_000_000);
        recorder.observe(RoundPhase::Allocate.metric_name(), 0.25e-3);
        recorder.gauge_set(names::STALE_SERVERS, 2.0);
        recorder.counter_add(names::FAILSAFE_CAPS_TOTAL, 3);
        recorder.counter_add(names::FAILSAFE_CAPS_TOTAL, 1);
        recorder.trace_tree_counter(0, ROOT_BUDGET_W, 1240.0);
        recorder.trace_tree_meta(0, None, "tree 0");
        let parsed = parse(&recorder.render(None)).expect("valid trace");
        assert_eq!(parsed.slice_count("allocate"), 1);
        let tracks = parsed.counter_tracks();
        assert!(tracks.contains(&(PID_PLANE, STALE_SERVERS.to_string())));
        assert!(tracks.contains(&(TREE_PID_BASE, ROOT_BUDGET_W.to_string())));
        let failsafe: Vec<f64> = parsed
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Counter { value } if e.name == FAILSAFE_CUTS => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(failsafe, vec![3.0, 4.0], "failsafe track is cumulative");
        assert!(parsed.meta.iter().any(|m| m.name == "tree 0"));
    }

    #[test]
    fn non_finite_counters_are_refused() {
        let recorder = TraceRecorder::new();
        recorder.counter(PID_PLANE, "x", f64::NAN);
        recorder.counter(PID_PLANE, "x", f64::INFINITY);
        assert!(recorder.is_empty());
        // And the parser rejects them if someone crafts such a document.
        let doc = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"C\",\"ts\":0,\"pid\":1,\"args\":{\"value\":1e999}}]}";
        assert!(parse(doc).is_err());
    }

    #[test]
    fn orphaned_end_events_are_skipped_and_counted() {
        let recorder = TraceRecorder::with_capacity(2);
        recorder.begin_slice(1, 1, "a"); // evicted by the pushes below
        recorder.trace_set_time_us(1);
        recorder.end_slice(1, 1, "a"); // orphaned once "B a" is evicted
        recorder.trace_set_time_us(2);
        recorder.counter(1, "c", 5.0);
        let text = recorder.render(None);
        let parsed = parse(&text).expect("balanced after orphan skip");
        assert_eq!(parsed.events.len(), 1, "only the counter survives");
        // 1 evicted B + 1 orphaned E; everything pushed is accounted for.
        assert_eq!(parsed.dropped, 2);
        assert_eq!(
            parsed.dropped + parsed.events.len() as u64,
            recorder.pushed_events()
        );
    }

    #[test]
    fn last_s_filters_by_logical_time() {
        let recorder = TraceRecorder::new();
        recorder.trace_set_time_us(0);
        recorder.counter(1, "c", 1.0);
        recorder.trace_set_time_us(10_000_000);
        recorder.counter(1, "c", 2.0);
        let all = parse(&recorder.render(None)).expect("full");
        assert_eq!(all.events.len(), 2);
        let tail = parse(&recorder.render(Some(5))).expect("tail");
        assert_eq!(tail.events.len(), 1);
        assert_eq!(tail.dropped, 1, "filtered events are declared dropped");
    }

    #[test]
    fn parse_rejects_unbalanced_and_backwards_documents() {
        let orphan_e = "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"E\",\"ts\":0,\"pid\":1,\"tid\":1}]}";
        assert!(parse(orphan_e).is_err());
        let crossed = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":1},\
            {\"name\":\"b\",\"ph\":\"E\",\"ts\":1,\"pid\":1,\"tid\":1}]}";
        assert!(parse(crossed).is_err());
        let backwards = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":5,\"dur\":0,\"pid\":1,\"tid\":1},\
            {\"name\":\"b\",\"ph\":\"X\",\"ts\":4,\"dur\":0,\"pid\":1,\"tid\":1}]}";
        assert!(parse(backwards).is_err());
        let unknown_kind =
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"Q\",\"ts\":0,\"pid\":1,\"tid\":1}]}";
        assert!(parse(unknown_kind).is_err());
        // A still-open B at the cut is legal.
        let open_b = "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":1}]}";
        assert!(parse(open_b).is_ok());
    }

    #[test]
    fn parse_survives_torn_and_hostile_input() {
        let recorder = TraceRecorder::new();
        recorder.trace_set_time_us(1);
        recorder.begin_slice(1, 1, "a");
        recorder.end_slice(1, 1, "a");
        recorder.counter(1, "c", 1.5);
        let text = recorder.render(None);
        assert!(parse(&text).is_ok());
        for cut in 0..text.len() {
            assert!(parse(&text[..cut]).is_err(), "torn at byte {cut}");
        }
        for garbage in ["", "{", "null", "[1,2]", "{\"traceEvents\":[{}]}"] {
            assert!(parse(garbage).is_err(), "accepted {garbage:?}");
        }
    }

    #[test]
    fn normalize_is_idempotent_and_zeroes_durations() {
        let recorder = TraceRecorder::new();
        recorder.trace_set_time_us(3);
        recorder.complete_slice(1, 1, "a", 123);
        let text = recorder.render(None);
        let normal = normalize(&text).expect("normalizes");
        assert!(normal.contains("\"dur\":0"));
        assert!(!normal.contains("\"dur\":123"));
        assert_eq!(normalize(&normal).expect("idempotent"), normal);
    }

    #[test]
    fn forwarding_keeps_the_metrics_registry_live() {
        let registry = Arc::new(super::super::MetricsRegistry::new());
        let recorder =
            TraceRecorder::new().with_forward(registry.clone() as Arc<dyn Recorder>);
        recorder.counter_add(names::ROUNDS_TOTAL, 2);
        recorder.observe(RoundPhase::Sense.metric_name(), 0.5);
        let snap = registry.snapshot();
        assert_eq!(snap.counters[0].value, 2);
        assert_eq!(snap.histograms[0].count, 1);
    }
}
