//! Property-based fuzzing of the wire codec behind the socket transport.
//!
//! The contract under test: decoding is *total* — `decode_up`,
//! `decode_down`, and `split_frame` classify any byte sequence as a
//! message or a [`WireError`] without panicking or allocating beyond the
//! frame cap; every message the encoders can produce round-trips
//! *bit-exactly* (watts compare by `to_bits`, not `==`); no strict
//! prefix of a valid payload decodes; and framing survives arbitrary
//! re-chunking of the byte stream, as a socket delivers it.
//!
//! Failures found by earlier fuzz runs are promoted to the named
//! `regression_*` tests at the bottom (the vendored proptest does not
//! replay `.proptest-regressions`, so the inputs are pinned here
//! verbatim).

use proptest::prelude::*;

use capmaestro_core::metrics::{LeafInput, PriorityMetrics};
use capmaestro_core::wire::{
    decode_down, decode_up, encode_down, encode_up, frame, split_frame, WireError,
    MAX_FRAME_BYTES, WIRE_VERSION,
};
use capmaestro_core::{AllocatorKind, DownMsg, UpMsg};
use capmaestro_topology::Priority;
use capmaestro_units::{Ratio, Watts};

/// Appends a little-endian u32 (test-local mirror of the codec's
/// private writer, for crafting hostile payloads byte by byte).
fn le32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u64.
fn le64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Builds a metrics summary from fuzzed `(demand, priority)` leaves.
fn metrics_from(leaves: &[(f64, u8)], constraint: f64) -> PriorityMetrics {
    let per_leaf: Vec<PriorityMetrics> = leaves
        .iter()
        .map(|&(demand, priority)| {
            PriorityMetrics::from_leaf(&LeafInput {
                demand: Watts::new(demand),
                cap_min: Watts::new(270.0),
                cap_max: Watts::new(490.0),
                share: Ratio::ONE,
                priority: Priority(priority),
            })
        })
        .collect();
    PriorityMetrics::aggregate(per_leaf.iter(), Some(Watts::new(constraint)))
}

/// The up message addressed by `pick`, all fields fuzz-controlled.
fn up_message(pick: usize, a: u64, b: u64, leaves: &[(f64, u8)]) -> UpMsg {
    match pick {
        0 => UpMsg::Hello {
            worker: (a % 10_000) as usize,
            workers_total: (b % 10_000) as usize,
        },
        1 => UpMsg::Metrics {
            worker: (a % 10_000) as usize,
            round: b,
            metrics: vec![
                (((a % 7) as usize, (b % 11) as usize), metrics_from(leaves, 900.0)),
                ((8, 3), PriorityMetrics::empty()),
            ],
        },
        2 => UpMsg::Enforced {
            worker: (a % 10_000) as usize,
            round: b,
        },
        3 => UpMsg::Advanced {
            worker: (a % 10_000) as usize,
            seconds: (b % u32::MAX as u64) as u32,
            violations_total: a,
        },
        _ => UpMsg::Heartbeat {
            worker: (a % 10_000) as usize,
            nonce: b,
        },
    }
}

/// The down message addressed by `pick`.
fn down_message(pick: usize, a: u64, budgets: &[(usize, usize, f64)]) -> DownMsg {
    match pick {
        0 => DownMsg::Welcome {
            workers_total: (a % 10_000) as usize,
        },
        1 => DownMsg::Gather {
            round: a,
            allocator: AllocatorKind::ALL[(a % 3) as usize],
        },
        2 => DownMsg::Budgets {
            round: a,
            budgets: budgets
                .iter()
                .map(|&(t, c, w)| ((t, c), Watts::new(w)))
                .collect(),
        },
        3 => DownMsg::Advance {
            seconds: (a % u32::MAX as u64) as u32,
        },
        4 => DownMsg::HeartbeatAck { nonce: a },
        _ => DownMsg::Shutdown,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup never panics either decoder or the framer;
    /// a framing error is only ever an oversized length prefix.
    #[test]
    fn decoding_byte_soup_is_total(raw in prop::collection::vec(0usize..256, 0..600)) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let _ = decode_up(&bytes);
        let _ = decode_down(&bytes);
        match split_frame(&bytes) {
            Ok(None) => {}
            Ok(Some((payload, consumed))) => {
                assert!(consumed <= bytes.len());
                assert_eq!(payload.len() + 4, consumed);
            }
            Err(WireError::Oversized { len }) => assert!(len > MAX_FRAME_BYTES),
            Err(other) => panic!("split_frame may only fail Oversized, got {other:?}"),
        }
    }

    /// Soup behind a valid version byte and a plausible tag reaches the
    /// per-variant field decoders; still no panics, no huge allocations.
    #[test]
    fn valid_headers_over_soup_never_panic(
        tag in 0usize..9,
        raw in prop::collection::vec(0usize..256, 0..400),
    ) {
        let mut bytes = vec![WIRE_VERSION, tag as u8];
        bytes.extend(raw.iter().map(|&b| b as u8));
        let _ = decode_up(&bytes);
        let _ = decode_down(&bytes);
    }

    /// Every rack → room message round-trips to an equal message, and
    /// the re-encoding is byte-identical (the codec is canonical).
    #[test]
    fn up_messages_round_trip(
        pick in 0usize..5,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        leaves in prop::collection::vec((270.0f64..490.0, 0u8..4), 1..6),
    ) {
        let msg = up_message(pick, a, b, &leaves);
        let payload = encode_up(&msg);
        let decoded = decode_up(&payload).expect("encoder output must decode");
        assert_eq!(decoded, msg);
        assert_eq!(encode_up(&decoded), payload, "re-encoding must be canonical");
    }

    /// Every room → rack message round-trips, and watt quantities come
    /// back bit-exact — the differential tests depend on it.
    #[test]
    fn down_messages_round_trip_bit_exactly(
        pick in 0usize..6,
        a in 0u64..u64::MAX,
        budgets in prop::collection::vec((0usize..8, 0usize..64, 0.0f64..1.0e9), 0..12),
    ) {
        let msg = down_message(pick, a, &budgets);
        let payload = encode_down(&msg);
        let decoded = decode_down(&payload).expect("encoder output must decode");
        assert_eq!(decoded, msg);
        if let (DownMsg::Budgets { budgets: sent, .. }, DownMsg::Budgets { budgets: got, .. }) =
            (&msg, &decoded)
        {
            for ((_, s), (_, g)) in sent.iter().zip(got) {
                assert_eq!(s.as_f64().to_bits(), g.as_f64().to_bits());
            }
        }
    }

    /// No strict prefix of a valid payload decodes: truncation is always
    /// an error, never a shorter message (the grammar is prefix-free).
    #[test]
    fn strict_prefixes_never_decode(
        pick in 0usize..5,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        leaves in prop::collection::vec((270.0f64..490.0, 0u8..4), 1..4),
    ) {
        let up = encode_up(&up_message(pick, a, b, &leaves));
        for cut in 0..up.len() {
            assert!(decode_up(&up[..cut]).is_err(), "up prefix {cut}/{} decoded", up.len());
        }
        let down = encode_down(&down_message(pick, a, &[(0, 1, 320.0)]));
        for cut in 0..down.len() {
            assert!(decode_down(&down[..cut]).is_err(), "down prefix {cut}/{} decoded", down.len());
        }
    }

    /// A flipped version byte is always BadVersion; an out-of-range tag
    /// is always BadTag — corruption in the header never misdecodes.
    #[test]
    fn corrupt_headers_are_classified(
        pick in 0usize..6,
        a in 0u64..u64::MAX,
        version in 0usize..256,
        tag in 7usize..256,
    ) {
        let mut payload = encode_down(&down_message(pick, a, &[(0, 0, 1.0)]));
        if version as u8 != WIRE_VERSION {
            payload[0] = version as u8;
            assert_eq!(
                decode_down(&payload),
                Err(WireError::BadVersion { got: version as u8 })
            );
            payload[0] = WIRE_VERSION;
        }
        payload[1] = tag as u8;
        assert_eq!(decode_down(&payload), Err(WireError::BadTag { got: tag as u8 }));
        assert_eq!(decode_up(&payload), Err(WireError::BadTag { got: tag as u8 }));
    }

    /// A stream of frames survives arbitrary re-chunking: feeding the
    /// buffer in fuzz-sized slices recovers exactly the sent payloads,
    /// in order, regardless of how the bytes were split.
    #[test]
    fn frame_stream_survives_rechunking(
        picks in prop::collection::vec((0usize..6, 0u64..u64::MAX), 1..8),
        chunk_sizes in prop::collection::vec(1usize..40, 1..64),
    ) {
        let sent: Vec<Vec<u8>> = picks
            .iter()
            .map(|&(pick, a)| encode_down(&down_message(pick, a, &[(1, 2, 640.0)])))
            .collect();
        let stream: Vec<u8> = sent.iter().flat_map(|p| frame(p)).collect();

        let mut buf: Vec<u8> = Vec::new();
        let mut fed = 0usize;
        let mut chunks = chunk_sizes.iter().cycle();
        let mut received: Vec<Vec<u8>> = Vec::new();
        while fed < stream.len() || !buf.is_empty() {
            if let Some((payload, consumed)) = split_frame(&buf).expect("stream is well-formed") {
                received.push(payload.to_vec());
                buf.drain(..consumed);
                continue;
            }
            if fed == stream.len() {
                panic!("stream exhausted with {} buffered bytes", buf.len());
            }
            let take = (*chunks.next().unwrap()).min(stream.len() - fed);
            buf.extend_from_slice(&stream[fed..fed + take]);
            fed += take;
        }
        assert_eq!(received, sent);
    }

    /// Any length prefix over the cap tears the stream down, no matter
    /// what bytes follow — a hostile peer cannot provoke an allocation.
    #[test]
    fn oversized_prefixes_always_reject(
        over in 0usize..1_000_000,
        trailer in prop::collection::vec(0usize..256, 0..32),
    ) {
        let len = MAX_FRAME_BYTES + 1 + over;
        let mut buf = (len as u32).to_le_bytes().to_vec();
        buf.extend(trailer.iter().map(|&b| b as u8));
        assert_eq!(split_frame(&buf), Err(WireError::Oversized { len }));
    }
}

// ---------------------------------------------------------------------
// Promoted regressions (see `wire_fuzz.proptest-regressions`). The
// vendored proptest generates fresh cases only, so inputs that once
// failed are pinned here verbatim.
// ---------------------------------------------------------------------

/// The empty payload — a peer that frames zero bytes — is Truncated in
/// both directions, not an index panic on the missing version byte.
#[test]
fn regression_empty_payload_is_truncated() {
    assert_eq!(decode_up(&[]), Err(WireError::Truncated));
    assert_eq!(decode_down(&[]), Err(WireError::Truncated));
}

/// A payload holding only the version byte dies on the missing tag,
/// cleanly: Truncated, not BadTag on uninitialized memory.
#[test]
fn regression_version_only_payload_is_truncated() {
    assert_eq!(decode_up(&[WIRE_VERSION]), Err(WireError::Truncated));
    assert_eq!(decode_down(&[WIRE_VERSION]), Err(WireError::Truncated));
}

/// A zero-length frame is *valid framing* (four zero bytes, empty
/// payload) — the framer must hand the empty payload up, and only the
/// payload decoder calls it Truncated. Conflating the two layers once
/// dropped the three buffered bytes that followed.
#[test]
fn regression_zero_length_frame_splits_cleanly() {
    let mut buf = vec![0u8, 0, 0, 0];
    buf.extend_from_slice(&[9, 9, 9]);
    let (payload, consumed) = split_frame(&buf).unwrap().expect("complete frame");
    assert!(payload.is_empty());
    assert_eq!(consumed, 4);
    assert_eq!(decode_up(&[]), Err(WireError::Truncated));
}

/// A length prefix of exactly `MAX_FRAME_BYTES` is legal and must wait
/// for its bytes (`Ok(None)`), while one byte more is Oversized — no
/// off-by-one at the cap.
#[test]
fn regression_frame_cap_boundary() {
    let at_cap = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    assert_eq!(split_frame(&at_cap), Ok(None));
    let over = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
    assert_eq!(
        split_frame(&over),
        Err(WireError::Oversized {
            len: MAX_FRAME_BYTES + 1
        })
    );
}

/// A Budgets payload claiming `u32::MAX` entries inside a tiny buffer:
/// the count guard must reject it before reserving capacity.
#[test]
fn regression_hostile_budget_count_does_not_allocate() {
    let mut payload = vec![WIRE_VERSION, 3]; // down tag: Budgets
    le64(&mut payload, 0); // round
    le32(&mut payload, u32::MAX); // budget count
    assert_eq!(decode_down(&payload), Err(WireError::Truncated));
}

/// Negative zero is a *valid* watt value (`-0.0 < 0.0` is false) and
/// its sign bit must survive the round trip — the codec promises bit
/// patterns, not numeric equality.
#[test]
fn regression_negative_zero_watts_round_trips_bit_exactly() {
    let msg = DownMsg::Budgets {
        round: 0,
        budgets: vec![((0, 0), Watts::new(-0.0))],
    };
    let DownMsg::Budgets { budgets, .. } = decode_down(&encode_down(&msg)).unwrap() else {
        panic!("wrong variant");
    };
    assert_eq!(budgets[0].1.as_f64().to_bits(), (-0.0f64).to_bits());
}

/// Metrics whose priority levels arrive in ascending order are rejected
/// as BadValue by the summary validator — the decoder must not trust
/// the peer to have sorted them.
#[test]
fn regression_unsorted_priority_levels_are_rejected() {
    let mut payload = vec![WIRE_VERSION, 2]; // up tag: Metrics
    le32(&mut payload, 0); // worker
    le64(&mut payload, 0); // round
    le32(&mut payload, 1); // one (cut, metrics) entry
    le32(&mut payload, 0);
    le32(&mut payload, 0); // cut (0, 0)
    le64(&mut payload, 800.0f64.to_bits()); // constraint
    le32(&mut payload, 2); // two levels, ascending: invalid
    for priority in [0u8, 1] {
        payload.push(priority);
        le64(&mut payload, 270.0f64.to_bits()); // cap_min
        le64(&mut payload, 430.0f64.to_bits()); // demand
        le64(&mut payload, 430.0f64.to_bits()); // request
    }
    assert_eq!(
        decode_up(&payload),
        Err(WireError::BadValue {
            what: "priority levels must be strictly descending"
        })
    );
}

/// The allocator byte on `Gather` is input like any other: a byte naming
/// no allocator is a BadValue, and a `Gather` from an older wire version
/// (version 2 numbered the allocators 0/1/2) is refused at the version
/// check, not misread.
#[test]
fn unknown_allocator_tag_and_old_wire_version_are_rejected() {
    let mut payload = encode_down(&DownMsg::Gather {
        round: 9,
        allocator: AllocatorKind::FairShare,
    });
    assert_eq!(payload.last(), Some(&3), "fair_share is allocator byte 3");
    for unknown in [0, 4] {
        *payload.last_mut().unwrap() = unknown;
        assert_eq!(
            decode_down(&payload),
            Err(WireError::BadValue {
                what: "unknown allocator tag"
            })
        );
    }
    let mut v2 = vec![2, 2]; // version 2, down tag: Gather
    le64(&mut v2, 9); // round
    v2.push(1); // version 2's waterfilling byte
    assert_eq!(decode_down(&v2), Err(WireError::BadVersion { got: 2 }));
    assert_eq!(WIRE_VERSION, 3);
}
