//! Versioned, length-prefixed wire codec for the distributed control
//! plane.
//!
//! The rack ↔ room message schema ([`UpMsg`], [`DownMsg`]) travels over
//! in-process channels by default; the socket transport serializes the
//! same typed messages with this codec. The format is deliberately dumb:
//!
//! ```text
//! frame   := len:u32le payload            (len = payload byte length)
//! payload := version:u8 tag:u8 fields…
//! ```
//!
//! All integers are little-endian; watt quantities are IEEE-754 f64 bit
//! patterns (`f64::to_bits`, little-endian), so a value survives a
//! round-trip *bit-exactly* — the socket-vs-channel differential tests
//! depend on that. Decoding is total: any byte sequence either yields a
//! message or a [`WireError`], never a panic, and never allocates more
//! than the frame it was handed could justify.
//!
//! This module is the one home of the workspace's binary encoding: the
//! operator log ([`crate::oplog`]) frames, writes and reads its envelopes
//! through the same framing, `put_*` writers, bounds-checked reader and
//! allocator ↔ byte table.

use capmaestro_topology::Priority;
use capmaestro_units::Watts;
use core::fmt;
use std::error::Error;

use crate::alloc::AllocatorKind;
use crate::metrics::{MetricEntry, PriorityMetrics};
use crate::workers::{CutId, DownMsg, UpMsg};

/// Protocol version carried in every payload. Bump on any schema change;
/// decoders reject other versions outright (agents and controllers are
/// deployed together, so there is no cross-version negotiation).
pub const WIRE_VERSION: u8 = 3;

/// Upper bound on a single frame's payload, in bytes. Generous for the
/// schema (a 100k-leaf metrics report is still far below it) while
/// keeping a hostile or corrupt length prefix from provoking a huge
/// allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Why a frame or payload failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message did, or an element count
    /// promises more data than the payload holds.
    Truncated,
    /// The frame length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The length the prefix claimed.
        len: usize,
    },
    /// The payload's version byte is not [`WIRE_VERSION`].
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// The payload's tag byte names no message in this direction.
    BadTag {
        /// The tag byte received.
        got: u8,
    },
    /// A field held a semantically invalid value (non-finite or negative
    /// watts, unordered priority levels, an unknown allocator tag).
    BadValue {
        /// What was wrong.
        what: &'static str,
    },
    /// The message decoded but bytes were left over — a framing bug or
    /// corruption, either way untrustworthy.
    TrailingBytes {
        /// How many bytes were left.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Oversized { len } => {
                write!(f, "frame length {len} exceeds {MAX_FRAME_BYTES}")
            }
            WireError::BadVersion { got } => {
                write!(f, "wire version {got} (expected {WIRE_VERSION})")
            }
            WireError::BadTag { got } => write!(f, "unknown message tag {got}"),
            WireError::BadValue { what } => write!(f, "invalid field: {what}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
        }
    }
}

impl Error for WireError {}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Wraps a payload in a length-prefixed frame.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_FRAME_BYTES`] — encoders produce
/// payloads, so an oversized one is a programming error, not input.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_BYTES,
        "payload of {} bytes exceeds MAX_FRAME_BYTES",
        payload.len()
    );
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Tries to split one frame off the front of a receive buffer.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete frame
/// (read more and retry), `Ok(Some((payload, consumed)))` when it does —
/// the caller drains `consumed` bytes — and `Err` when the length prefix
/// is oversized, in which case the connection is unrecoverable (framing
/// is lost) and must be torn down.
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized { len });
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some((&buf[4..4 + len], 4 + len)))
}

// ---------------------------------------------------------------------------
// Primitive writers / readers
// ---------------------------------------------------------------------------

/// Byte-cursor over a payload; every `take_*` checks bounds.
pub(crate) struct Reader<'a> {
    /// The payload being decoded.
    buf: &'a [u8],
    /// Next unread byte.
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts a cursor at the front of `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub(crate) fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub(crate) fn take_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian u32.
    pub(crate) fn take_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub(crate) fn take_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a watt quantity, rejecting non-finite or negative values
    /// *before* constructing [`Watts`] (whose constructor asserts).
    pub(crate) fn take_watts(&mut self) -> Result<Watts, WireError> {
        let v = f64::from_bits(self.take_u64()?);
        if !v.is_finite() || v < 0.0 {
            return Err(WireError::BadValue {
                what: "watts must be finite and non-negative",
            });
        }
        Ok(Watts::new(v))
    }

    /// Reads an element count for items of at least `min_item_bytes`
    /// each, bounding it by the bytes actually present so a corrupt
    /// count cannot provoke a huge allocation.
    pub(crate) fn take_count(&mut self, min_item_bytes: usize) -> Result<usize, WireError> {
        let count = self.take_u32()? as usize;
        if count.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(count)
    }

    /// Reads an allocator byte (see [`put_allocator`]).
    pub(crate) fn take_allocator(&mut self) -> Result<AllocatorKind, WireError> {
        match self.take_u8()? {
            1 => Ok(AllocatorKind::Waterfall),
            2 => Ok(AllocatorKind::Waterfilling),
            3 => Ok(AllocatorKind::FairShare),
            _ => Err(WireError::BadValue {
                what: "unknown allocator tag",
            }),
        }
    }

    /// Asserts the payload was fully consumed.
    pub(crate) fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Appends a little-endian u16.
pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u32.
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u64.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a watt quantity as its f64 bit pattern.
pub(crate) fn put_watts(out: &mut Vec<u8>, w: Watts) {
    put_u64(out, w.as_f64().to_bits());
}

/// Appends an allocator as its stable byte, independent of enum order:
/// 1 waterfall, 2 waterfilling, 3 fair_share. The oplog persists these
/// bytes on disk, so they never change meaning.
pub(crate) fn put_allocator(out: &mut Vec<u8>, kind: AllocatorKind) {
    out.push(match kind {
        AllocatorKind::Waterfall => 1,
        AllocatorKind::Waterfilling => 2,
        AllocatorKind::FairShare => 3,
    });
}

/// Narrows a usize field to the u32 the wire carries.
///
/// # Panics
///
/// Panics if the value does not fit — worker indices and node counts are
/// far below 2³², so overflow is a programming error.
fn narrow(v: usize) -> u32 {
    u32::try_from(v).expect("wire field exceeds u32")
}

// ---------------------------------------------------------------------------
// Composite fields
// ---------------------------------------------------------------------------

/// Minimum encoded size of a `(CutId, Watts)` budget entry.
const BUDGET_ITEM_BYTES: usize = 4 + 4 + 8;
/// Minimum encoded size of a `(CutId, PriorityMetrics)` entry (empty
/// metrics: cut id + constraint + level count).
const METRICS_ITEM_BYTES: usize = 4 + 4 + 8 + 4;
/// Encoded size of one priority level entry.
const LEVEL_ITEM_BYTES: usize = 1 + 8 + 8 + 8;

/// Appends a cut id as two u32s.
fn put_cut(out: &mut Vec<u8>, cut: CutId) {
    put_u32(out, narrow(cut.0));
    put_u32(out, narrow(cut.1));
}

/// Reads a cut id.
fn take_cut(r: &mut Reader<'_>) -> Result<CutId, WireError> {
    Ok((r.take_u32()? as usize, r.take_u32()? as usize))
}

/// Appends a priority metrics summary: constraint, then the levels in
/// their stored (descending-priority) order.
fn put_metrics(out: &mut Vec<u8>, m: &PriorityMetrics) {
    put_watts(out, m.constraint());
    put_u32(out, narrow(m.levels().len()));
    for (priority, entry) in m.levels() {
        out.push(priority.level());
        put_watts(out, entry.cap_min);
        put_watts(out, entry.demand);
        put_watts(out, entry.request);
    }
}

/// Reads a priority metrics summary, re-validating level order and
/// value sanity via [`PriorityMetrics::from_raw_parts`].
fn take_metrics(r: &mut Reader<'_>) -> Result<PriorityMetrics, WireError> {
    let constraint = r.take_watts()?;
    let count = r.take_count(LEVEL_ITEM_BYTES)?;
    let mut levels = Vec::with_capacity(count);
    for _ in 0..count {
        let priority = Priority(r.take_u8()?);
        let cap_min = r.take_watts()?;
        let demand = r.take_watts()?;
        let request = r.take_watts()?;
        levels.push((
            priority,
            MetricEntry {
                cap_min,
                demand,
                request,
            },
        ));
    }
    PriorityMetrics::from_raw_parts(levels, constraint)
        .map_err(|what| WireError::BadValue { what })
}

// ---------------------------------------------------------------------------
// Message encode / decode
// ---------------------------------------------------------------------------

/// Tags for rack → room messages.
mod up_tag {
    /// `UpMsg::Hello`.
    pub const HELLO: u8 = 1;
    /// `UpMsg::Metrics`.
    pub const METRICS: u8 = 2;
    /// `UpMsg::Enforced`.
    pub const ENFORCED: u8 = 3;
    /// `UpMsg::Advanced`.
    pub const ADVANCED: u8 = 4;
    /// `UpMsg::Heartbeat`.
    pub const HEARTBEAT: u8 = 5;
}

/// Tags for room → rack messages.
mod down_tag {
    /// `DownMsg::Welcome`.
    pub const WELCOME: u8 = 1;
    /// `DownMsg::Gather`.
    pub const GATHER: u8 = 2;
    /// `DownMsg::Budgets`.
    pub const BUDGETS: u8 = 3;
    /// `DownMsg::Advance`.
    pub const ADVANCE: u8 = 4;
    /// `DownMsg::HeartbeatAck`.
    pub const HEARTBEAT_ACK: u8 = 5;
    /// `DownMsg::Shutdown`.
    pub const SHUTDOWN: u8 = 6;
}

/// Starts a payload with the version byte and a message tag.
fn header(tag: u8) -> Vec<u8> {
    vec![WIRE_VERSION, tag]
}

/// Checks the version byte and returns the tag.
fn open(r: &mut Reader<'_>) -> Result<u8, WireError> {
    let version = r.take_u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    r.take_u8()
}

/// Serializes a rack → room message (payload only; wrap with [`frame`]
/// before writing to a socket).
pub fn encode_up(msg: &UpMsg) -> Vec<u8> {
    match msg {
        UpMsg::Hello {
            worker,
            workers_total,
        } => {
            let mut out = header(up_tag::HELLO);
            put_u32(&mut out, narrow(*worker));
            put_u32(&mut out, narrow(*workers_total));
            out
        }
        UpMsg::Metrics {
            worker,
            round,
            metrics,
        } => {
            let mut out = header(up_tag::METRICS);
            put_u32(&mut out, narrow(*worker));
            put_u64(&mut out, *round);
            put_u32(&mut out, narrow(metrics.len()));
            for (cut, m) in metrics {
                put_cut(&mut out, *cut);
                put_metrics(&mut out, m);
            }
            out
        }
        UpMsg::Enforced { worker, round } => {
            let mut out = header(up_tag::ENFORCED);
            put_u32(&mut out, narrow(*worker));
            put_u64(&mut out, *round);
            out
        }
        UpMsg::Advanced {
            worker,
            seconds,
            violations_total,
        } => {
            let mut out = header(up_tag::ADVANCED);
            put_u32(&mut out, narrow(*worker));
            put_u32(&mut out, *seconds);
            put_u64(&mut out, *violations_total);
            out
        }
        UpMsg::Heartbeat { worker, nonce } => {
            let mut out = header(up_tag::HEARTBEAT);
            put_u32(&mut out, narrow(*worker));
            put_u64(&mut out, *nonce);
            out
        }
    }
}

/// Deserializes a rack → room message.
pub fn decode_up(payload: &[u8]) -> Result<UpMsg, WireError> {
    let mut r = Reader::new(payload);
    let tag = open(&mut r)?;
    let msg = match tag {
        up_tag::HELLO => UpMsg::Hello {
            worker: r.take_u32()? as usize,
            workers_total: r.take_u32()? as usize,
        },
        up_tag::METRICS => {
            let worker = r.take_u32()? as usize;
            let round = r.take_u64()?;
            let count = r.take_count(METRICS_ITEM_BYTES)?;
            let mut metrics = Vec::with_capacity(count);
            for _ in 0..count {
                let cut = take_cut(&mut r)?;
                let m = take_metrics(&mut r)?;
                metrics.push((cut, m));
            }
            UpMsg::Metrics {
                worker,
                round,
                metrics,
            }
        }
        up_tag::ENFORCED => UpMsg::Enforced {
            worker: r.take_u32()? as usize,
            round: r.take_u64()?,
        },
        up_tag::ADVANCED => UpMsg::Advanced {
            worker: r.take_u32()? as usize,
            seconds: r.take_u32()?,
            violations_total: r.take_u64()?,
        },
        up_tag::HEARTBEAT => UpMsg::Heartbeat {
            worker: r.take_u32()? as usize,
            nonce: r.take_u64()?,
        },
        got => return Err(WireError::BadTag { got }),
    };
    r.finish()?;
    Ok(msg)
}

/// Serializes a room → rack message (payload only; wrap with [`frame`]).
pub fn encode_down(msg: &DownMsg) -> Vec<u8> {
    match msg {
        DownMsg::Welcome { workers_total } => {
            let mut out = header(down_tag::WELCOME);
            put_u32(&mut out, narrow(*workers_total));
            out
        }
        DownMsg::Gather { round, allocator } => {
            let mut out = header(down_tag::GATHER);
            put_u64(&mut out, *round);
            put_allocator(&mut out, *allocator);
            out
        }
        DownMsg::Budgets { round, budgets } => {
            let mut out = header(down_tag::BUDGETS);
            put_u64(&mut out, *round);
            put_u32(&mut out, narrow(budgets.len()));
            for (cut, b) in budgets {
                put_cut(&mut out, *cut);
                put_watts(&mut out, *b);
            }
            out
        }
        DownMsg::Advance { seconds } => {
            let mut out = header(down_tag::ADVANCE);
            put_u32(&mut out, *seconds);
            out
        }
        DownMsg::HeartbeatAck { nonce } => {
            let mut out = header(down_tag::HEARTBEAT_ACK);
            put_u64(&mut out, *nonce);
            out
        }
        DownMsg::Shutdown => header(down_tag::SHUTDOWN),
    }
}

/// Deserializes a room → rack message.
pub fn decode_down(payload: &[u8]) -> Result<DownMsg, WireError> {
    let mut r = Reader::new(payload);
    let tag = open(&mut r)?;
    let msg = match tag {
        down_tag::WELCOME => DownMsg::Welcome {
            workers_total: r.take_u32()? as usize,
        },
        down_tag::GATHER => DownMsg::Gather {
            round: r.take_u64()?,
            allocator: r.take_allocator()?,
        },
        down_tag::BUDGETS => {
            let round = r.take_u64()?;
            let count = r.take_count(BUDGET_ITEM_BYTES)?;
            let mut budgets = Vec::with_capacity(count);
            for _ in 0..count {
                let cut = take_cut(&mut r)?;
                let b = r.take_watts()?;
                budgets.push((cut, b));
            }
            DownMsg::Budgets { round, budgets }
        }
        down_tag::ADVANCE => DownMsg::Advance {
            seconds: r.take_u32()?,
        },
        down_tag::HEARTBEAT_ACK => DownMsg::HeartbeatAck {
            nonce: r.take_u64()?,
        },
        down_tag::SHUTDOWN => DownMsg::Shutdown,
        got => return Err(WireError::BadTag { got }),
    };
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LeafInput;
    use capmaestro_units::Ratio;

    fn sample_metrics() -> PriorityMetrics {
        let high = PriorityMetrics::from_leaf(&LeafInput {
            demand: Watts::new(430.0),
            cap_min: Watts::new(270.0),
            cap_max: Watts::new(490.0),
            share: Ratio::ONE,
            priority: Priority::HIGH,
        });
        let low = PriorityMetrics::from_leaf(&LeafInput {
            demand: Watts::new(310.5),
            cap_min: Watts::new(270.0),
            cap_max: Watts::new(490.0),
            share: Ratio::new(0.5),
            priority: Priority::LOW,
        });
        PriorityMetrics::aggregate([&high, &low], Some(Watts::new(750.0)))
    }

    #[test]
    fn up_messages_round_trip() {
        let msgs = vec![
            UpMsg::Hello {
                worker: 3,
                workers_total: 8,
            },
            UpMsg::Metrics {
                worker: 1,
                round: 42,
                metrics: vec![((0, 5), sample_metrics()), ((2, 9), PriorityMetrics::empty())],
            },
            UpMsg::Enforced {
                worker: 0,
                round: u64::MAX,
            },
            UpMsg::Advanced {
                worker: 7,
                seconds: 8,
                violations_total: 123,
            },
            UpMsg::Heartbeat {
                worker: 2,
                nonce: 0xDEAD_BEEF_CAFE_F00D,
            },
        ];
        for msg in msgs {
            let payload = encode_up(&msg);
            assert_eq!(decode_up(&payload).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn down_messages_round_trip() {
        let msgs = vec![
            DownMsg::Welcome { workers_total: 4 },
            DownMsg::Gather {
                round: 7,
                allocator: AllocatorKind::FairShare,
            },
            DownMsg::Budgets {
                round: 7,
                budgets: vec![((0, 1), Watts::new(618.25)), ((0, 4), Watts::new(0.0))],
            },
            DownMsg::Advance { seconds: 8 },
            DownMsg::HeartbeatAck { nonce: 99 },
            DownMsg::Shutdown,
        ];
        for msg in msgs {
            let payload = encode_down(&msg);
            assert_eq!(decode_down(&payload).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn watts_survive_bit_exactly() {
        let tricky = Watts::new(0.1 + 0.2); // not representable exactly
        let payload = encode_down(&DownMsg::Budgets {
            round: 0,
            budgets: vec![((0, 0), tricky)],
        });
        let DownMsg::Budgets { budgets, .. } = decode_down(&payload).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(budgets[0].1.as_f64().to_bits(), tricky.as_f64().to_bits());
    }

    #[test]
    fn framing_round_trips_and_reports_incompleteness() {
        let payload = encode_down(&DownMsg::Gather {
            round: 3,
            allocator: AllocatorKind::Waterfall,
        });
        let framed = frame(&payload);
        // Partial prefixes: incomplete, not an error.
        for cut in 0..framed.len() {
            assert_eq!(split_frame(&framed[..cut]).unwrap(), None, "cut at {cut}");
        }
        let (got, consumed) = split_frame(&framed).unwrap().unwrap();
        assert_eq!(got, &payload[..]);
        assert_eq!(consumed, framed.len());
        // Two frames back to back: the split leaves the second intact.
        let mut two = framed.clone();
        two.extend_from_slice(&framed);
        let (_, consumed) = split_frame(&two).unwrap().unwrap();
        assert_eq!(&two[consumed..], &framed[..]);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            split_frame(&buf),
            Err(WireError::Oversized {
                len: MAX_FRAME_BYTES + 1
            })
        );
    }

    #[test]
    fn bad_version_and_tag_are_rejected() {
        let mut payload = encode_down(&DownMsg::Shutdown);
        payload[0] = 99;
        assert_eq!(decode_down(&payload), Err(WireError::BadVersion { got: 99 }));
        let mut payload = encode_down(&DownMsg::Shutdown);
        payload[1] = 200;
        assert_eq!(decode_down(&payload), Err(WireError::BadTag { got: 200 }));
        assert_eq!(decode_up(&[WIRE_VERSION, 250]), Err(WireError::BadTag { got: 250 }));
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let payload = encode_up(&UpMsg::Metrics {
            worker: 0,
            round: 1,
            metrics: vec![((0, 1), sample_metrics())],
        });
        for cut in 2..payload.len() {
            assert!(
                decode_up(&payload[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut padded = payload.clone();
        padded.push(0);
        assert_eq!(decode_up(&padded), Err(WireError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A Metrics payload claiming u32::MAX entries in a tiny buffer.
        let mut payload = header(up_tag::METRICS);
        put_u32(&mut payload, 0); // worker
        put_u64(&mut payload, 0); // round
        put_u32(&mut payload, u32::MAX); // entry count
        assert_eq!(decode_up(&payload), Err(WireError::Truncated));
    }

    #[test]
    fn non_finite_and_negative_watts_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut payload = header(down_tag::BUDGETS);
            put_u64(&mut payload, 0); // round
            put_u32(&mut payload, 1); // one budget
            put_u32(&mut payload, 0);
            put_u32(&mut payload, 0); // cut (0, 0)
            put_u64(&mut payload, bad.to_bits());
            assert_eq!(
                decode_down(&payload),
                Err(WireError::BadValue {
                    what: "watts must be finite and non-negative"
                }),
                "value {bad} must be rejected"
            );
        }
    }
}
