//! Minimal HTTP/1.1 request parsing and response writing.
//!
//! The parser is deliberately strict and bounded: a request head larger
//! than [`HttpLimits::max_head_bytes`] or a declared body larger than
//! [`HttpLimits::max_body_bytes`] is rejected with `413`; anything that
//! does not match the grammar (request line, header syntax, version,
//! content length) is rejected with `400`. It never panics on arbitrary
//! input — the proptest suite in `tests/http_parser_fuzz.rs` holds it to
//! that.
//!
//! The server speaks one request per connection and always answers
//! `Connection: close`, which keeps the state machine trivial and makes
//! responses atomic: a client either reads a complete response or the
//! connection drops before the first byte.

use std::error::Error;
use std::fmt;

/// Bounds applied while reading a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers (excluding the blank-line
    /// terminator). Exceeding it yields `413`.
    pub max_head_bytes: usize,
    /// Maximum bytes of declared `Content-Length`. Exceeding it yields
    /// `413`.
    pub max_body_bytes: usize,
}

/// The bounds the server reads every request under: an 8 KiB head and a
/// 64 KiB body. Also [`HttpLimits::default`].
pub(crate) const SERVER_LIMITS: HttpLimits = HttpLimits {
    max_head_bytes: 8 * 1024,
    max_body_bytes: 64 * 1024,
};

impl Default for HttpLimits {
    fn default() -> Self {
        SERVER_LIMITS
    }
}

/// Maximum number of header lines accepted before `400`.
const MAX_HEADERS: usize = 100;

/// Maximum request-target length accepted before `400`.
const MAX_TARGET_BYTES: usize = 2048;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The request target, verbatim (path plus optional `?query`).
    pub target: String,
    /// Headers in arrival order; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes; empty without one).
    pub body: Vec<u8>,
}

impl Request {
    /// The target's path component (everything before `?`).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or("")
    }

    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The first value of a query parameter (`?since=5&x=y` → `since` is
    /// `"5"`). Values are taken verbatim — no percent-decoding, which the
    /// numeric parameters this API uses never need.
    pub(crate) fn query_param(&self, name: &str) -> Option<&str> {
        let query = self.target.split_once('?')?.1;
        query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }
}

/// A request-level protocol error, carrying the HTTP status to answer
/// with (`400` bad syntax, `405` wrong method, `413` too large).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// The HTTP status code to respond with.
    pub status: u16,
    /// What was wrong, lowercase, for the response body.
    pub reason: String,
}

impl HttpError {
    /// A `400 Bad Request` error.
    pub(crate) fn bad_request(reason: impl Into<String>) -> Self {
        HttpError {
            status: 400,
            reason: reason.into(),
        }
    }

    /// A `413 Payload Too Large` error.
    pub(crate) fn too_large(reason: impl Into<String>) -> Self {
        HttpError {
            status: 413,
            reason: reason.into(),
        }
    }

    /// The response announcing this error, in the same JSON error
    /// envelope the router's `ApiError` uses. The reason strings are all
    /// static lowercase ASCII, so no escaping is needed.
    pub(crate) fn to_response(&self) -> Response {
        let code = match self.status {
            400 => "bad_request",
            405 => "method_not_allowed",
            413 => "payload_too_large",
            _ => "error",
        };
        Response::new(
            self.status,
            "application/json",
            format!(
                "{{\"error\":{{\"code\":\"{code}\",\"message\":\"{}\"}}}}\n",
                self.reason
            ),
        )
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "http {}: {}", self.status, self.reason)
    }
}

impl Error for HttpError {}

/// Result of parsing a (possibly partial) request buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// A complete request; `consumed` bytes of the buffer were used
    /// (pipelined trailing bytes are ignored — the connection closes
    /// after one response).
    Complete {
        /// The parsed request.
        request: Request,
        /// Bytes of the buffer belonging to this request.
        consumed: usize,
    },
    /// More bytes are needed.
    Incomplete,
    /// The bytes can never become a valid request.
    Error(HttpError),
}

/// Whether `method` looks like an HTTP token method (ASCII uppercase).
fn valid_method(method: &str) -> bool {
    !method.is_empty()
        && method.len() <= 16
        && method.bytes().all(|b| b.is_ascii_uppercase())
}

/// Whether `target` is an acceptable origin-form request target.
fn valid_target(target: &str) -> bool {
    target.starts_with('/')
        && target.len() <= MAX_TARGET_BYTES
        && target
            .bytes()
            .all(|b| (0x21..=0x7e).contains(&b) && b != b'"' && b != b'<' && b != b'>')
}

/// Whether `name` is a valid header field name (RFC 7230 token subset).
fn valid_header_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
}

/// Try to parse one request from the front of `buf`.
///
/// Returns [`ParseOutcome::Incomplete`] while the head terminator (or the
/// declared body) has not arrived yet, [`ParseOutcome::Error`] as soon as
/// the bytes are provably not a valid request within `limits`, and
/// [`ParseOutcome::Complete`] otherwise. Never panics on any input.
pub fn parse_request(buf: &[u8], limits: &HttpLimits) -> ParseOutcome {
    // Locate the head terminator within the head budget.
    let search_window = buf.len().min(limits.max_head_bytes + 4);
    let head_end = buf[..search_window]
        .windows(4)
        .position(|w| w == b"\r\n\r\n");
    let Some(head_end) = head_end else {
        if buf.len() >= limits.max_head_bytes + 4 {
            return ParseOutcome::Error(HttpError::too_large("request head too large"));
        }
        return ParseOutcome::Incomplete;
    };
    if head_end > limits.max_head_bytes {
        return ParseOutcome::Error(HttpError::too_large("request head too large"));
    }

    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return ParseOutcome::Error(HttpError::bad_request(
            "request head is not valid utf-8",
        ));
    };

    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return ParseOutcome::Error(HttpError::bad_request("malformed request line"));
    };
    if !valid_method(method) {
        return ParseOutcome::Error(HttpError::bad_request("malformed request method"));
    }
    if !valid_target(target) {
        return ParseOutcome::Error(HttpError::bad_request("malformed request target"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return ParseOutcome::Error(HttpError::bad_request("unsupported http version"));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        if headers.len() >= MAX_HEADERS {
            return ParseOutcome::Error(HttpError::bad_request("too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return ParseOutcome::Error(HttpError::bad_request("malformed header line"));
        };
        if !valid_header_name(name) {
            return ParseOutcome::Error(HttpError::bad_request("malformed header name"));
        }
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        match name.as_str() {
            "content-length" => {
                let Ok(n) = value.parse::<usize>() else {
                    return ParseOutcome::Error(HttpError::bad_request(
                        "malformed content-length",
                    ));
                };
                if content_length.is_some_and(|prev| prev != n) {
                    return ParseOutcome::Error(HttpError::bad_request(
                        "conflicting content-length headers",
                    ));
                }
                if n > limits.max_body_bytes {
                    return ParseOutcome::Error(HttpError::too_large(
                        "request body too large",
                    ));
                }
                content_length = Some(n);
            }
            "transfer-encoding" => {
                return ParseOutcome::Error(HttpError::bad_request(
                    "transfer-encoding is not supported",
                ));
            }
            _ => {}
        }
        headers.push((name, value));
    }

    let body_len = content_length.unwrap_or(0);
    let body_start = head_end + 4;
    let consumed = body_start + body_len;
    if buf.len() < consumed {
        return ParseOutcome::Incomplete;
    }
    ParseOutcome::Complete {
        request: Request {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            body: buf[body_start..consumed].to_vec(),
        },
        consumed,
    }
}

/// An HTTP response ready to be written: status, content type, optional
/// extra headers, body. The writer adds `Content-Length` and
/// `Connection: close`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (name, value), written verbatim after
    /// `Content-Type` — e.g. the `Allow` header of a `405`.
    pub extra_headers: Vec<(&'static str, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with an explicit content type.
    pub fn new(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type,
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response::new(status, "text/plain; charset=utf-8", body)
    }

    /// Adds one extra response header. Values must already be valid
    /// header text (no CR/LF); everything this server emits is.
    pub(crate) fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// The canonical reason phrase for the statuses this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialize the full response (status line, headers, body) to wire
    /// bytes.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n",
            self.status,
            Response::reason(self.status),
            self.content_type,
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        let _ = std::fmt::Write::write_fmt(
            &mut head,
            format_args!(
                "Content-Length: {}\r\nConnection: close\r\n\r\n",
                self.body.len()
            ),
        );
        let mut bytes = Vec::with_capacity(head.len() + self.body.len());
        bytes.extend_from_slice(head.as_bytes());
        bytes.extend_from_slice(&self.body);
        bytes
    }
}

#[cfg(test)]
mod fuzz;

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> ParseOutcome {
        parse_request(bytes, &HttpLimits::default())
    }

    #[test]
    fn parses_a_plain_get() {
        let bytes = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        let ParseOutcome::Complete { request, consumed } = parse(bytes) else {
            panic!("expected complete");
        };
        assert_eq!(request.method, "GET");
        assert_eq!(request.path(), "/metrics");
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(consumed, bytes.len());
        assert!(request.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body_and_ignores_pipelined_trailer() {
        let bytes = b"POST /budget HTTP/1.1\r\nContent-Length: 6\r\n\r\n[1240]GET / HTTP/1.1\r\n\r\n";
        let ParseOutcome::Complete { request, consumed } = parse(bytes) else {
            panic!("expected complete");
        };
        assert_eq!(request.body, b"[1240]");
        assert!(consumed < bytes.len());
    }

    #[test]
    fn partial_requests_are_incomplete() {
        assert_eq!(parse(b""), ParseOutcome::Incomplete);
        assert_eq!(parse(b"GET /metr"), ParseOutcome::Incomplete);
        assert_eq!(parse(b"GET / HTTP/1.1\r\n"), ParseOutcome::Incomplete);
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n12345"),
            ParseOutcome::Incomplete
        );
    }

    #[test]
    fn malformed_requests_get_400() {
        for bad in [
            b"GET\r\n\r\n".as_slice(),
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET nopath HTTP/1.1\r\n\r\n",
            b"GET / HTTP/0.9\r\n\r\n",
            b"GET / HTTP/1.1\r\nno_colon_here\r\n\r\n",
            b"GET / HTTP/1.1\r\n: empty name\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
        ] {
            match parse(bad) {
                ParseOutcome::Error(e) => assert_eq!(e.status, 400, "{bad:?}"),
                other => panic!("expected 400 for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_head_and_body_get_413() {
        let limits = HttpLimits {
            max_head_bytes: 64,
            max_body_bytes: 16,
        };
        let mut big_head = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        big_head.extend(std::iter::repeat_n(b'a', 128));
        assert_eq!(
            parse_request(&big_head, &limits),
            ParseOutcome::Error(HttpError::too_large("request head too large"))
        );
        assert_eq!(
            parse_request(b"POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n", &limits),
            ParseOutcome::Error(HttpError::too_large("request body too large"))
        );
    }

    #[test]
    fn response_bytes_carry_length_and_close() {
        let bytes = Response::text(200, "ok\n").to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
    }

    #[test]
    fn query_params_are_split_off_the_target() {
        let bytes = b"GET /v1/events?since=5&limit=2 HTTP/1.1\r\n\r\n";
        let ParseOutcome::Complete { request, .. } = parse(bytes) else {
            panic!("expected complete");
        };
        assert_eq!(request.path(), "/v1/events");
        assert_eq!(request.query_param("since"), Some("5"));
        assert_eq!(request.query_param("limit"), Some("2"));
        assert_eq!(request.query_param("missing"), None);
    }

    #[test]
    fn extra_headers_are_written_before_content_length() {
        let bytes = Response::text(200, "ok\n")
            .with_header("Deprecation", "true")
            .to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Deprecation: true\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
    }

    #[test]
    fn http_error_display_is_lowercase() {
        let msg = HttpError::bad_request("malformed request line").to_string();
        assert!(msg.chars().next().unwrap().is_lowercase());
        assert!(!msg.ends_with('.'));
    }
}
