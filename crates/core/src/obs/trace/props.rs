//! Property-based tests of the trace exporter contract:
//!
//! - any event sequence emitted through the `TraceRecorder` API renders
//!   to a document the strict [`parse`] validator accepts, and the parse
//!   round-trips the surviving events faithfully;
//! - the ring buffer never exceeds its capacity and always evicts
//!   oldest-first, with `dropped + kept == pushed`;
//! - [`normalize`] is idempotent on anything the recorder emits;
//! - the parser never panics on arbitrary byte mutations of a valid
//!   document (it may accept or reject, but must stay total).
//!
//! The vendored proptest has no shrinking or regression files; failing
//! cases get promoted to named unit tests in `obs::trace` instead.

use proptest::prelude::*;
use std::borrow::Cow;

use super::{normalize, parse, EventKind, TraceBuffer, TraceEvent, TraceRecorder};
use crate::obs::Recorder;

/// One scripted emitter action, generated from tuple strategies.
#[derive(Debug, Clone)]
enum Action {
    Advance(u64),
    Complete(u32, u32, u64),
    Counter(u32, f64),
    Meta(u32, Option<u32>),
}

/// Decode `(op, pid, tid, magnitude)` into an action; pids/tids are kept
/// tiny so events actually land on shared tracks.
fn action(op: u8, pid: u32, tid: u32, magnitude: u64) -> Action {
    match op % 4 {
        0 => Action::Advance(magnitude),
        1 => Action::Complete(pid, tid, magnitude),
        2 => Action::Counter(pid, magnitude as f64 / 7.0),
        _ => Action::Meta(pid, tid.is_multiple_of(2).then_some(tid)),
    }
}

/// Replay a script into a recorder, tracking how many events each step
/// *should* have pushed: every action but Advance/Meta pushes exactly one
/// event.
fn replay(recorder: &TraceRecorder, script: &[(u8, u32, u32, u64)]) -> u64 {
    let mut now = 0u64;
    let mut pushed = 0u64;
    for &(op, pid, tid, magnitude) in script {
        match action(op, pid % 3, tid % 3, magnitude % 10_000) {
            Action::Advance(by) => {
                now += by;
                recorder.trace_set_time_us(now);
            }
            Action::Complete(pid, tid, dur) => {
                recorder.complete_slice(pid, tid, "x", dur);
                pushed += 1;
            }
            Action::Counter(pid, value) => {
                recorder.counter(pid, "c", value);
                pushed += 1;
            }
            Action::Meta(pid, tid) => recorder.name_track(pid, tid, "t"),
        }
    }
    pushed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever an emitter does, the rendered document validates, and
    /// the drop accounting closes: declared drops + surviving events
    /// equal everything pushed.
    #[test]
    fn arbitrary_emissions_render_to_valid_traces(
        script in prop::collection::vec((0u8..4, 0u32..4, 0u32..4, 0u64..50_000), 0..120),
    ) {
        let recorder = TraceRecorder::new();
        let pushed = replay(&recorder, &script);
        prop_assert_eq!(recorder.locked().buffer.pushed(), pushed);
        let text = recorder.render(None);
        let parsed = parse(&text);
        prop_assert!(parsed.is_ok(), "render must validate: {:?}", parsed.err());
        let parsed = parsed.unwrap();
        prop_assert_eq!(parsed.dropped + parsed.events.len() as u64, pushed);
        // Canonical renders normalize idempotently.
        let normal = normalize(&text);
        prop_assert!(normal.is_ok());
        let normal = normal.unwrap();
        prop_assert_eq!(normalize(&normal).unwrap(), normal);
    }

    /// Same property under a tiny ring: overflow-heavy schedules must
    /// still produce valid, honestly-counted documents.
    #[test]
    fn overflowing_rings_stay_valid_and_honest(
        script in prop::collection::vec((0u8..4, 0u32..4, 0u32..4, 0u64..50_000), 0..120),
        capacity in 1usize..16,
    ) {
        let recorder = TraceRecorder::with_capacity(capacity);
        let pushed = replay(&recorder, &script);
        prop_assert!(recorder.len() <= capacity);
        prop_assert_eq!(recorder.dropped_events() + recorder.len() as u64, pushed);
        let parsed = parse(&recorder.render(None));
        prop_assert!(parsed.is_ok(), "overflowed render must validate: {:?}", parsed.err());
        // The document declares what the ring evicted.
        let parsed = parsed.unwrap();
        prop_assert_eq!(parsed.dropped + parsed.events.len() as u64, pushed);
    }

    /// The raw ring: capacity is never exceeded, eviction is strictly
    /// oldest-first (the survivors are exactly the trailing window), and
    /// the counters account for every push.
    #[test]
    fn buffer_caps_and_evicts_oldest_first(
        capacity in 1usize..32,
        pushes in 0usize..100,
    ) {
        let mut ring = TraceBuffer::new(capacity);
        for i in 0..pushes {
            ring.push(TraceEvent {
                name: Cow::Borrowed("e"),
                pid: 1,
                tid: 0,
                ts_us: i as u64,
                kind: EventKind::Counter { value: i as f64 },
            });
            prop_assert!(ring.len() <= capacity);
        }
        prop_assert_eq!(ring.pushed(), pushes as u64);
        prop_assert_eq!(ring.dropped(), pushes.saturating_sub(capacity) as u64);
        let kept: Vec<u64> = ring.iter().map(|e| e.ts_us).collect();
        let expected: Vec<u64> =
            (pushes.saturating_sub(capacity)..pushes).map(|i| i as u64).collect();
        prop_assert_eq!(kept, expected, "survivors must be the trailing window");
    }

    /// Parsing a surviving document recovers the events the renderer
    /// kept: kinds, tracks, timestamps, and counter values round-trip.
    #[test]
    fn rendered_events_round_trip_through_parse(
        counters in prop::collection::vec((0u32..4, 0u64..1_000_000, 0u64..9_000), 1..40),
    ) {
        let recorder = TraceRecorder::new();
        let mut now = 0u64;
        let mut expected = Vec::new();
        for &(pid, numer, advance) in &counters {
            now += advance;
            recorder.trace_set_time_us(now);
            let value = numer as f64 / 3.0;
            recorder.counter(pid, "c", value);
            expected.push((pid, now, value));
        }
        let parsed = parse(&recorder.render(None)).expect("valid");
        let got: Vec<(u32, u64, f64)> = parsed
            .events
            .iter()
            .map(|e| match e.kind {
                EventKind::Counter { value } => (e.pid, e.ts_us, value),
                ref other => panic!("unexpected event kind {other:?}"),
            })
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Total parser: arbitrary single-byte corruption of a valid
    /// document never panics, and if the mutant still parses, its
    /// events still satisfy the semantic invariants (enforced inside
    /// `parse` itself — this property just drives the input space).
    #[test]
    fn parser_is_total_under_byte_mutation(
        script in prop::collection::vec((0u8..4, 0u32..4, 0u32..4, 0u64..50_000), 1..40),
        index in 0usize..10_000,
        byte in 0u16..256,
    ) {
        let recorder = TraceRecorder::new();
        replay(&recorder, &script);
        let text = recorder.render(None);
        let mut bytes = text.into_bytes();
        let index = index % bytes.len();
        bytes[index] = byte as u8;
        // Invalid UTF-8 is rejected before the parser ever runs.
        if let Ok(mutant) = String::from_utf8(bytes) {
            let _ = parse(&mutant);
        }
    }
}
