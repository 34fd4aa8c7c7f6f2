//! Property-based fuzzing of the HTTP request parser and response
//! writer.
//!
//! The contract under test: `parse_request` never panics on any byte
//! sequence, classifies every input as exactly one of
//! Complete/Incomplete/Error, only emits the statuses the server speaks
//! (400/413), stays prefix-monotone (a prefix of a valid request is
//! never an Error), and respects its size limits. On the write side,
//! every response the server can produce must parse under the strict
//! client parser (`client::parse_response`), which demands an exact
//! `Content-Length` — the well-formedness oracle.
//!
//! Failures found by earlier fuzz runs are promoted to the named
//! `regression_*` tests at the bottom (the vendored proptest does not
//! replay `.proptest-regressions`, so the inputs are pinned here
//! verbatim).

use proptest::prelude::*;

use super::{parse_request, HttpLimits, ParseOutcome, Response};
use crate::client;

/// Limits small enough for the fuzzer to reach both 413 paths.
fn tight_limits() -> HttpLimits {
    HttpLimits {
        max_head_bytes: 256,
        max_body_bytes: 128,
    }
}

/// Assert the invariants that must hold for *any* input.
fn check_invariants(bytes: &[u8], limits: &HttpLimits) {
    match parse_request(bytes, limits) {
        ParseOutcome::Complete { request, consumed } => {
            assert!(consumed <= bytes.len());
            assert!(!request.method.is_empty());
            assert!(request.target.starts_with('/'));
            assert!(request.body.len() <= limits.max_body_bytes);
        }
        ParseOutcome::Incomplete => {
            // Incomplete may only be claimed while the head (or body)
            // can still arrive within budget.
            let head_done = bytes.windows(4).any(|w| w == b"\r\n\r\n");
            assert!(head_done || bytes.len() < limits.max_head_bytes + 4);
        }
        ParseOutcome::Error(error) => {
            assert!(
                error.status == 400 || error.status == 413,
                "unexpected status {}",
                error.status
            );
            assert!(!error.reason.is_empty());
            // Every error must render as a parseable response.
            let rendered = error.to_response().to_bytes();
            let response =
                client::parse_response(&rendered).expect("error response must be well-formed");
            assert_eq!(response.status, error.status);
        }
    }
}

/// Render a syntactically valid request from fuzz components.
fn build_request(path_seg: &str, header_value: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = format!(
        "POST /{path_seg} HTTP/1.1\r\nHost: fuzz\r\nX-Fuzz: {header_value}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup never panics and always lands in one of the
    /// three outcomes with a server-speakable status.
    #[test]
    fn byte_soup_never_panics(raw in prop::collection::vec(0usize..256, 0..512)) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        check_invariants(&bytes, &tight_limits());
        check_invariants(&bytes, &HttpLimits::default());
    }

    /// Mostly-ASCII soup with CRLFs sprinkled in, so header parsing and
    /// the request-line grammar are actually exercised.
    #[test]
    fn ascii_soup_never_panics(raw in prop::collection::vec(32usize..127, 0..256)) {
        let mut bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let mut i = 20;
        while i < bytes.len() {
            bytes[i] = b'\r';
            if i + 1 < bytes.len() {
                bytes[i + 1] = b'\n';
            }
            i += 23;
        }
        check_invariants(&bytes, &tight_limits());
    }

    /// Every prefix of a valid request parses as Incomplete (or Complete
    /// at full length), never as an Error: truncation must not be
    /// mistaken for malformed input.
    #[test]
    fn truncated_valid_requests_are_never_errors(
        seg in prop::collection::vec(97usize..123, 0..12),
        value in prop::collection::vec(32usize..127, 0..20),
        body in prop::collection::vec(0usize..256, 0..40),
        cut_permille in 0usize..1001,
    ) {
        let seg: String = seg.iter().map(|&c| c as u8 as char).collect();
        let value: String = value
            .iter()
            .map(|&c| c as u8 as char)
            .filter(|c| *c != ':')
            .collect();
        let body: Vec<u8> = body.iter().map(|&b| b as u8).collect();
        let bytes = build_request(&seg, value.trim(), &body);
        let limits = HttpLimits::default();

        // The full request must be accepted...
        let ParseOutcome::Complete { request, consumed } = parse_request(&bytes, &limits) else {
            panic!("full request must parse: {bytes:?}");
        };
        assert_eq!(consumed, bytes.len());
        assert_eq!(request.body, body);

        // ...and any strict prefix must be Incomplete.
        let cut = bytes.len() * cut_permille / 1000;
        match parse_request(&bytes[..cut], &limits) {
            ParseOutcome::Error(error) => {
                panic!("prefix of length {cut}/{} became an error: {error}", bytes.len());
            }
            ParseOutcome::Complete { consumed, .. } => assert_eq!(consumed, cut),
            ParseOutcome::Incomplete => {}
        }
    }

    /// Oversized heads and bodies are rejected with 413, regardless of
    /// how far past the limit they run.
    #[test]
    fn oversized_requests_get_413(pad in 0usize..512, body_len in 129usize..4096) {
        let limits = tight_limits();

        let mut head_heavy = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        head_heavy.extend(std::iter::repeat_n(b'a', limits.max_head_bytes + pad));
        head_heavy.extend_from_slice(b"\r\n\r\n");
        let ParseOutcome::Error(error) = parse_request(&head_heavy, &limits) else {
            panic!("oversized head must error");
        };
        assert_eq!(error.status, 413);

        let body_heavy =
            format!("POST / HTTP/1.1\r\nContent-Length: {body_len}\r\n\r\n").into_bytes();
        let ParseOutcome::Error(error) = parse_request(&body_heavy, &limits) else {
            panic!("oversized body must error");
        };
        assert_eq!(error.status, 413);
    }

    /// A valid request followed by pipelined trailing bytes parses
    /// Complete with `consumed` covering exactly the first request.
    #[test]
    fn pipelined_trailers_are_not_consumed(
        body in prop::collection::vec(0usize..256, 0..40),
        trailer in prop::collection::vec(0usize..256, 1..64),
    ) {
        let body: Vec<u8> = body.iter().map(|&b| b as u8).collect();
        let mut bytes = build_request("x", "v", &body);
        let first_len = bytes.len();
        bytes.extend(trailer.iter().map(|&b| b as u8));

        let ParseOutcome::Complete { request, consumed } =
            parse_request(&bytes, &HttpLimits::default())
        else {
            panic!("pipelined request must parse");
        };
        assert_eq!(consumed, first_len);
        assert_eq!(request.body, body);
    }

    /// Every response the server can construct round-trips through the
    /// strict client parser with an exact Content-Length.
    #[test]
    fn responses_always_satisfy_the_client_oracle(
        status_pick in 0usize..7,
        body in prop::collection::vec(0usize..256, 0..200),
    ) {
        let status = [200u16, 400, 404, 405, 413, 500, 503][status_pick];
        let body: Vec<u8> = body.iter().map(|&b| b as u8).collect();
        let rendered = Response::new(status, "application/octet-stream", body.clone()).to_bytes();
        let response = client::parse_response(&rendered).expect("server response must parse");
        assert_eq!(response.status, status);
        assert_eq!(response.body, body);
    }
}

// ---------------------------------------------------------------------
// Promoted regressions (see `fuzz.proptest-regressions`).
// The vendored proptest generates fresh cases only, so inputs that once
// failed are pinned here verbatim.
// ---------------------------------------------------------------------

/// A bare-LF "request line" hides a second line inside the first token
/// stream: the parser must call it malformed (400), not treat the fold
/// as a header boundary.
#[test]
fn regression_bare_lf_request_line_is_400() {
    let outcome = parse_request(b"GET / HTTP/1.1\nHost: x\r\n\r\n", &HttpLimits::default());
    let ParseOutcome::Error(error) = outcome else {
        panic!("expected 400, got {outcome:?}");
    };
    assert_eq!(error.status, 400);
}

/// A request line with only method + target (no version) is 400, not a
/// slice panic on the missing third token.
#[test]
fn regression_missing_version_is_400() {
    let outcome = parse_request(b"GET /\r\n\r\n", &HttpLimits::default());
    let ParseOutcome::Error(error) = outcome else {
        panic!("expected 400, got {outcome:?}");
    };
    assert_eq!(error.status, 400);
}

/// Content-Length just past u64::MAX must be a clean 400 (parse error),
/// not an integer-overflow panic when computing the body span.
#[test]
fn regression_content_length_overflow_is_400() {
    let outcome = parse_request(
        b"POST / HTTP/1.1\r\nContent-Length: 18446744073709551616\r\n\r\n",
        &HttpLimits::default(),
    );
    let ParseOutcome::Error(error) = outcome else {
        panic!("expected 400, got {outcome:?}");
    };
    assert_eq!(error.status, 400);
    assert_eq!(error.reason, "malformed content-length");
}

/// A space inside the target splits the request line into four tokens:
/// 400, and specifically *not* a target plus garbage version.
#[test]
fn regression_space_in_target_is_400() {
    let outcome = parse_request(
        b"GET /metrics and/more HTTP/1.1\r\n\r\n",
        &HttpLimits::default(),
    );
    let ParseOutcome::Error(error) = outcome else {
        panic!("expected 400, got {outcome:?}");
    };
    assert_eq!(error.status, 400);
}

/// The head terminator straddling the head-size limit: a head of exactly
/// `max_head_bytes` is accepted, one byte more is 413 — no off-by-one
/// panic in the window search.
#[test]
fn regression_head_exactly_at_limit_boundary() {
    let limits = HttpLimits {
        max_head_bytes: 64,
        max_body_bytes: 16,
    };
    let head = b"GET / HTTP/1.1\r\nX-Pad: ";
    let mut at_limit = head.to_vec();
    at_limit.extend(std::iter::repeat_n(b'a', limits.max_head_bytes - head.len()));
    at_limit.extend_from_slice(b"\r\n\r\n");
    assert!(matches!(
        parse_request(&at_limit, &limits),
        ParseOutcome::Complete { .. }
    ));

    let mut over = head.to_vec();
    over.extend(std::iter::repeat_n(
        b'a',
        limits.max_head_bytes - head.len() + 1,
    ));
    over.extend_from_slice(b"\r\n\r\n");
    let ParseOutcome::Error(error) = parse_request(&over, &limits) else {
        panic!("one byte over the head limit must be 413");
    };
    assert_eq!(error.status, 413);
}

/// A NUL byte in the target is valid UTF-8 but not a valid target byte:
/// rejected by target validation (400), never served.
#[test]
fn regression_nul_byte_in_target_is_400() {
    let outcome = parse_request(b"GET /\x00 HTTP/1.1\r\n\r\n", &HttpLimits::default());
    let ParseOutcome::Error(error) = outcome else {
        panic!("expected 400, got {outcome:?}");
    };
    assert_eq!(error.status, 400);
}
