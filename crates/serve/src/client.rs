//! A tiny blocking HTTP/1.1 client for tests, the `--probe` smoke mode,
//! and the parser fuzz suite (where [`parse_response`] is the
//! well-formedness oracle: every response the server writes must parse
//! here with an exact `Content-Length`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Headers in arrival order; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or an error naming the failure.
    pub fn body_str(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|e| format!("body is not utf-8: {e}"))
    }
}

/// Strictly parse a full response byte stream (as read to EOF from a
/// `Connection: close` server). Requires a `Content-Length` header whose
/// value equals the body length exactly — the server always sends one,
/// so any deviation is a server bug.
pub fn parse_response(bytes: &[u8]) -> Result<HttpResponse, String> {
    let head_end = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| "no head terminator in response".to_string())?;
    let head = std::str::from_utf8(&bytes[..head_end])
        .map_err(|e| format!("response head is not utf-8: {e}"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(format!("bad response version in {status_line:?}"));
    }
    let status: u16 = parts
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| format!("bad status code in {status_line:?}"))?;
    if parts.next().is_none() {
        return Err(format!("missing reason phrase in {status_line:?}"));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed response header {line:?}"))?;
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let body = bytes[head_end + 4..].to_vec();
    let declared: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .ok_or_else(|| "response has no content-length".to_string())?
        .1
        .parse()
        .map_err(|_| "malformed content-length in response".to_string())?;
    if declared != body.len() {
        return Err(format!(
            "content-length {declared} does not match body length {}",
            body.len()
        ));
    }

    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Default I/O timeout for [`get`]/[`post`]/[`send_raw`].
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Write `request_bytes` to `addr`, half-close, read to EOF, parse.
pub fn send_raw(addr: &str, request_bytes: &[u8]) -> Result<HttpResponse, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(CLIENT_TIMEOUT)))
        .map_err(|e| format!("set timeouts: {e}"))?;
    stream
        .write_all(request_bytes)
        .map_err(|e| format!("write request: {e}"))?;
    stream
        .shutdown(std::net::Shutdown::Write)
        .map_err(|e| format!("half-close: {e}"))?;
    let mut bytes = Vec::new();
    stream
        .read_to_end(&mut bytes)
        .map_err(|e| format!("read response: {e}"))?;
    if bytes.is_empty() {
        return Err("connection closed with no response bytes".to_string());
    }
    parse_response(&bytes)
}

/// Blocking `GET path` against `addr` (a `host:port` string).
pub fn get(addr: &str, path: &str) -> Result<HttpResponse, String> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    send_raw(addr, request.as_bytes())
}

/// Blocking `POST path` with a body against `addr`.
pub fn post(addr: &str, path: &str, body: &[u8]) -> Result<HttpResponse, String> {
    request(addr, "POST", path, &[], body)
}

/// Blocking request with an arbitrary method and extra headers (e.g.
/// `("Idempotency-Key", "retry-1")`) — the general form behind the `/v1`
/// mutation helpers.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<HttpResponse, String> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!(
        "Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    ));
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body);
    send_raw(addr, &bytes)
}

/// Blocking `PUT path` with a body and optional headers.
pub fn put(
    addr: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<HttpResponse, String> {
    request(addr, "PUT", path, headers, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_well_formed_response() {
        let response = parse_response(
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\nConnection: close\r\n\r\nok\n",
        )
        .unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.header("content-type"), Some("text/plain"));
        assert_eq!(response.body, b"ok\n");
    }

    #[test]
    fn rejects_length_mismatch_and_missing_length() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nok").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\nok").is_err());
        assert!(parse_response(b"garbage").is_err());
    }
}
