//! JSON snapshot exporter and a matching minimal parser.
//!
//! [`snapshot`] serializes a [`MetricsSnapshot`] to pretty-printed
//! JSON; [`parse`] reads it back, so the ci.sh smoke can assert the
//! export round-trips losslessly (`parse(snapshot(s)) == s`). There is
//! deliberately no serde in this workspace: this module is the one home
//! of JSON text in `obs` — [`write_str`] is the only string writer and
//! its lexer the only tokenizer (the trace validator reads through it
//! too). [`parse`] is recursive descent, bounded at 64 levels of nesting.
//!
//! Non-finite floats are not representable in JSON numbers; they are
//! written as the strings `"+Inf"`, `"-Inf"`, and `"NaN"` and accepted
//! back by the parser. Integers round-trip exactly up to 2^53 (they
//! pass through an `f64`).

use std::fmt::Write as _;

use super::registry::{
    BucketSample, CounterSample, GaugeSample, HistogramSample, MetricsSnapshot,
};
use super::ParseError;

/// The `Content-Type` an HTTP endpoint should declare for [`snapshot`]
/// output.
pub const CONTENT_TYPE: &str = "application/json";

/// Write an `f64` as a JSON value (string-encoding non-finite values).
fn fmt_f64(out: &mut String, value: f64) {
    if value == f64::INFINITY {
        out.push_str("\"+Inf\"");
    } else if value == f64::NEG_INFINITY {
        out.push_str("\"-Inf\"");
    } else if value.is_nan() {
        out.push_str("\"NaN\"");
    } else {
        let _ = write!(out, "{value}");
    }
}

/// Append `s` as a JSON string literal, escaping quotes, backslashes
/// and control characters: the one JSON string writer every exporter and
/// the serving layer's bodies use.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialize a snapshot to pretty-printed JSON.
pub fn snapshot(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    snapshot_with_fields_into(&mut out, &[], snap);
    out
}

/// Serialize a snapshot into an existing buffer (appending), so a
/// serving loop can reuse one `String` across exports. Extra top-level
/// string `fields` are rendered (escaped) before the metric arrays — how
/// the serving layer folds its `"policy"` label into `/v1/report` as a
/// genuine JSON field.
/// [`parse`] looks fields up by name, so documents with extras still
/// round-trip.
pub fn snapshot_with_fields_into(
    out: &mut String,
    fields: &[(&str, &str)],
    snap: &MetricsSnapshot,
) {
    out.push('{');
    for (name, value) in fields {
        out.push_str("\n  ");
        write_str(out, name);
        out.push_str(": ");
        write_str(out, value);
        out.push(',');
    }
    out.push_str("\n  \"counters\": [");
    for (i, c) in snap.counters.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"name\": ");
        write_str(out, &c.name);
        let _ = write!(out, ", \"value\": {}}}", c.value);
    }
    out.push_str("\n  ],\n  \"gauges\": [");
    for (i, g) in snap.gauges.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"name\": ");
        write_str(out, &g.name);
        out.push_str(", \"value\": ");
        fmt_f64(out, g.value);
        out.push('}');
    }
    out.push_str("\n  ],\n  \"histograms\": [");
    for (i, h) in snap.histograms.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"name\": ");
        write_str(out, &h.name);
        out.push_str(", \"sum\": ");
        fmt_f64(out, h.sum);
        let _ = write!(out, ", \"count\": {}, \"buckets\": [", h.count);
        for (j, b) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"le\": ");
            fmt_f64(out, b.le);
            let _ = write!(out, ", \"cumulative\": {}}}", b.cumulative);
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (via `f64`).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

/// The one JSON tokenizer in `obs`: whitespace, punctuation, string and
/// number tokens over a document, plus the object/array walks built on
/// them. Every method is total (an error, never a panic), so callers can
/// face hostile input. [`parse`] builds a value tree with it;
/// `trace::parse` streams its fixed schema through it.
pub(super) struct Lexer<'a> {
    /// The document.
    text: &'a str,
    /// Byte offset of the next unread byte; always a char boundary.
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `text`.
    pub(super) fn new(text: &'a str) -> Self {
        Lexer { text, pos: 0 }
    }

    /// An error at the current offset.
    pub(super) fn err(&self, reason: impl Into<String>) -> ParseError {
        ParseError::Json {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    /// The next non-whitespace byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// Consume `byte` (after whitespace) if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        if next {
            self.pos += 1;
        }
        next
    }

    /// Consume `byte` (after whitespace) or fail.
    pub(super) fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    /// Consume the literal `word` (`true`, `false`, `null`) at the
    /// cursor or fail.
    fn literal(&mut self, word: &str) -> Result<(), ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    /// After a container element: `true` on `,` (another element
    /// follows), `false` on `close` (the container ended).
    fn more(&mut self, close: u8) -> Result<bool, ParseError> {
        if self.eat(b',') {
            Ok(true)
        } else if self.eat(close) {
            Ok(false)
        } else {
            Err(self.err(format!("expected ',' or {:?}", close as char)))
        }
    }

    /// Walk one object, handing each key to `member`, which must consume
    /// the value. `{}` is refused unless `allow_empty`.
    pub(super) fn object(
        &mut self,
        allow_empty: bool,
        mut member: impl FnMut(&mut Self, String) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(b'{')?;
        if allow_empty && self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            member(self, key)?;
            if !self.more(b'}')? {
                return Ok(());
            }
        }
    }

    /// Walk one (possibly empty) array; `element` must consume each
    /// element.
    pub(super) fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(b'[')?;
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            element(self)?;
            if !self.more(b']')? {
                return Ok(());
            }
        }
    }

    /// A string literal, unescaped.
    pub(super) fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole: both
            // are ASCII, so the cut always lands on a char boundary.
            let rest = &self.text[self.pos..];
            let Some(run) = rest.bytes().position(|b| b == b'"' || b == b'\\') else {
                return Err(self.err("unterminated string"));
            };
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let Some(&escape) = self.text.as_bytes().get(self.pos) else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let c = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    c
                }
                _ => return Err(self.err("unknown escape")),
            });
        }
    }

    /// A number literal's raw text (digits, sign, point, exponent), for
    /// the caller to parse as the type it needs.
    pub(super) fn number(&mut self) -> Result<&'a str, ParseError> {
        self.peek();
        let start = self.pos;
        while self
            .text
            .as_bytes()
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected number"));
        }
        Ok(&self.text[start..self.pos])
    }

    /// Require that only whitespace remains.
    pub(super) fn finish(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing data")),
        }
    }
}

/// Deepest container nesting [`parse`] accepts. Snapshots nest four
/// deep; the bound keeps a hostile body from overflowing the stack.
const MAX_DEPTH: usize = 64;

/// Parse one value at `depth` containers deep.
fn value(lex: &mut Lexer<'_>, depth: usize) -> Result<Value, ParseError> {
    let next = lex.peek();
    if matches!(next, Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(lex.err(format!("nested deeper than {MAX_DEPTH}")));
    }
    match next {
        Some(b'{') => {
            let mut fields = Vec::new();
            lex.object(true, |lex, key| {
                fields.push((key, value(lex, depth + 1)?));
                Ok(())
            })?;
            Ok(Value::Obj(fields))
        }
        Some(b'[') => {
            let mut items = Vec::new();
            lex.array(|lex| {
                items.push(value(lex, depth + 1)?);
                Ok(())
            })?;
            Ok(Value::Arr(items))
        }
        Some(b'"') => lex.string().map(Value::Str),
        Some(b't') => lex.literal("true").map(|()| Value::Bool(true)),
        Some(b'f') => lex.literal("false").map(|()| Value::Bool(false)),
        Some(b'n') => lex.literal("null").map(|()| Value::Null),
        Some(_) => {
            let text = lex.number()?;
            text.parse().map(Value::Num).map_err(|_| lex.err("bad number"))
        }
        None => Err(lex.err("unexpected end of input")),
    }
}

/// Look up a field in a parsed object.
fn field<'v>(obj: &'v [(String, Value)], name: &str, at: &str) -> Result<&'v Value, ParseError> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| ParseError::Json {
            offset: 0,
            reason: format!("missing field {name:?} in {at}"),
        })
}

/// Interpret a value as an `f64`, accepting the string-encoded
/// non-finite sentinels.
fn as_f64(value: &Value, at: &str) -> Result<f64, ParseError> {
    match value {
        Value::Num(n) => Ok(*n),
        Value::Str(s) if s == "+Inf" => Ok(f64::INFINITY),
        Value::Str(s) if s == "-Inf" => Ok(f64::NEG_INFINITY),
        Value::Str(s) if s == "NaN" => Ok(f64::NAN),
        _ => Err(ParseError::Json {
            offset: 0,
            reason: format!("expected number in {at}"),
        }),
    }
}

/// Interpret a value as a non-negative integer.
fn as_u64(value: &Value, at: &str) -> Result<u64, ParseError> {
    match value {
        Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
        _ => Err(ParseError::Json {
            offset: 0,
            reason: format!("expected unsigned integer in {at}"),
        }),
    }
}

/// Interpret a value as a string.
fn as_str(value: &Value, at: &str) -> Result<String, ParseError> {
    match value {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(ParseError::Json {
            offset: 0,
            reason: format!("expected string in {at}"),
        }),
    }
}

/// Interpret a value as an array of objects.
fn as_objects<'v>(
    value: &'v Value,
    at: &str,
) -> Result<Vec<&'v [(String, Value)]>, ParseError> {
    let Value::Arr(items) = value else {
        return Err(ParseError::Json {
            offset: 0,
            reason: format!("expected array in {at}"),
        });
    };
    items
        .iter()
        .map(|item| match item {
            Value::Obj(fields) => Ok(fields.as_slice()),
            _ => Err(ParseError::Json {
                offset: 0,
                reason: format!("expected object in {at}"),
            }),
        })
        .collect()
}

/// Parse a JSON snapshot produced by [`snapshot`] back into a
/// [`MetricsSnapshot`].
pub fn parse(text: &str) -> Result<MetricsSnapshot, ParseError> {
    let mut lex = Lexer::new(text);
    let root = value(&mut lex, 0)?;
    lex.finish()?;
    let Value::Obj(root) = root else {
        return Err(ParseError::Json {
            offset: 0,
            reason: "top level must be an object".to_string(),
        });
    };

    let counters = as_objects(field(&root, "counters", "snapshot")?, "counters")?
        .into_iter()
        .map(|obj| {
            Ok(CounterSample {
                name: as_str(field(obj, "name", "counter")?, "counter name")?,
                value: as_u64(field(obj, "value", "counter")?, "counter value")?,
            })
        })
        .collect::<Result<_, ParseError>>()?;

    let gauges = as_objects(field(&root, "gauges", "snapshot")?, "gauges")?
        .into_iter()
        .map(|obj| {
            Ok(GaugeSample {
                name: as_str(field(obj, "name", "gauge")?, "gauge name")?,
                value: as_f64(field(obj, "value", "gauge")?, "gauge value")?,
            })
        })
        .collect::<Result<_, ParseError>>()?;

    let histograms = as_objects(field(&root, "histograms", "snapshot")?, "histograms")?
        .into_iter()
        .map(|obj| {
            let buckets = as_objects(field(obj, "buckets", "histogram")?, "buckets")?
                .into_iter()
                .map(|b| {
                    Ok(BucketSample {
                        le: as_f64(field(b, "le", "bucket")?, "bucket le")?,
                        cumulative: as_u64(
                            field(b, "cumulative", "bucket")?,
                            "bucket cumulative",
                        )?,
                    })
                })
                .collect::<Result<_, ParseError>>()?;
            Ok(HistogramSample {
                name: as_str(field(obj, "name", "histogram")?, "histogram name")?,
                buckets,
                sum: as_f64(field(obj, "sum", "histogram")?, "histogram sum")?,
                count: as_u64(field(obj, "count", "histogram")?, "histogram count")?,
            })
        })
        .collect::<Result<_, ParseError>>()?;

    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

#[cfg(test)]
mod tests {
    use super::super::registry::MetricsRegistry;
    use super::super::{Recorder, RoundPhase};
    use super::*;

    #[test]
    fn snapshot_round_trips_exactly() {
        let reg = MetricsRegistry::new();
        reg.counter_add("capmaestro_rounds_total", 41);
        reg.gauge_set("capmaestro_stale_servers", 0.0);
        reg.gauge_set("tricky \"gauge\"\n", -1.25e-7);
        for phase in RoundPhase::ALL {
            reg.observe(phase.metric_name(), 3.3e-5);
        }
        let snap = reg.snapshot();
        let text = snapshot(&snap);
        assert_eq!(parse(&text).expect("round trip"), snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = MetricsSnapshot::default();
        assert_eq!(parse(&snapshot(&snap)).expect("round trip"), snap);
    }

    #[test]
    fn non_finite_values_survive() {
        let snap = MetricsSnapshot {
            counters: vec![],
            gauges: vec![GaugeSample {
                name: "g".to_string(),
                value: f64::INFINITY,
            }],
            histograms: vec![],
        };
        let back = parse(&snapshot(&snap)).expect("round trip");
        assert_eq!(back.gauges[0].value, f64::INFINITY);
    }

    /// A fleet-sized `/v1/report` body (one `dc_cap_watts` gauge per
    /// server, > 1 MB) parses back equal, in time linear in its size.
    #[test]
    fn fleet_sized_report_round_trips_in_linear_time() {
        let snap = MetricsSnapshot {
            counters: vec![CounterSample {
                name: "capmaestro_report_servers_capped".to_string(),
                value: 20_000,
            }],
            gauges: (0..20_000u32)
                .map(|id| GaugeSample {
                    name: format!("capmaestro_report_dc_cap_watts{{server=\"{id}\"}}"),
                    value: 270.0 + f64::from(id) * 0.0625,
                })
                .chain([GaugeSample {
                    name: "non-ascii label: µ €  𝄞".to_string(),
                    value: -0.5,
                }])
                .collect(),
            histograms: vec![],
        };
        let text = snapshot(&snap);
        assert!(text.len() >= 1 << 20, "only {} bytes", text.len());
        let start = std::time::Instant::now();
        assert_eq!(parse(&text).expect("round trip"), snap);
        // The quadratic reader needed minutes for a megabyte.
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "parsing {} bytes took {:?}",
            text.len(),
            start.elapsed()
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "[]",
            "{\"counters\": [}",
            "{\"counters\": [], \"gauges\": []}",
            "{\"counters\": [{\"name\": \"x\", \"value\": -1}], \
             \"gauges\": [], \"histograms\": []}",
            "{\"counters\": [], \"gauges\": [], \"histograms\": []} trailing",
            // Nesting past the depth bound is refused, not recursed into
            // until the stack overflows.
            "[".repeat(200_000).as_str(),
            "{\"a\":".repeat(200_000).as_str(),
        ] {
            assert!(parse(bad).is_err(), "accepted {:?}", &bad[..bad.len().min(64)]);
        }
    }
}
