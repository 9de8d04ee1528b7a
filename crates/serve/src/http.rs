//! A deliberately small HTTP/1.1 codec over [`std::net::TcpStream`].
//!
//! The daemon serves structured JSON to trusted operators on a loopback or
//! LAN address; it does not need (and the offline build cannot take) a web
//! framework. This module covers exactly what the endpoints use: one request
//! per connection (`Connection: close`), `Content-Length` bodies with a hard
//! cap, query-string parsing with percent-decoding, and JSON responses.

use std::io::{self, BufRead, Write};
use std::time::Instant;

/// Largest request body the daemon accepts (ingest batches are documents,
/// not datasets — bulk loads belong to `deepdive run`).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Request line + each header line are capped to keep a hostile peer from
/// growing an unbounded buffer.
const MAX_LINE_BYTES: usize = 16 * 1024;
/// Header count cap: a peer streaming headers forever is shed with 431
/// rather than pinning a worker.
const MAX_HEADERS: usize = 64;
/// Body bytes read per deadline check, so a dribbling sender cannot dodge
/// the request deadline by keeping each individual read alive.
const BODY_CHUNK_BYTES: usize = 8 * 1024;

/// Read-side limits for one request: how large the body may be and how long
/// the whole parse (request line + headers + body) may take. The deadline is
/// the slowloris defense — the socket's `read_timeout` bounds each syscall,
/// this bounds their sum.
#[derive(Debug, Clone, Copy)]
pub struct ParseLimits {
    pub max_body: usize,
    pub deadline: Option<Instant>,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_body: MAX_BODY_BYTES,
            deadline: None,
        }
    }
}

/// True for the error kinds a timed-out blocking socket read produces.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// A parsed request: method, decoded path, decoded query pairs, raw body.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub query: Vec<(String, String)>,
    pub body: Vec<u8>,
}

/// Why a request could not be parsed, mapped onto a status code.
#[derive(Debug)]
pub enum ParseError {
    /// Network-level failure; no response possible.
    Io(io::Error),
    /// Malformed request; respond with this status and message.
    Bad { status: u16, message: String },
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

fn bad(status: u16, message: impl Into<String>) -> ParseError {
    ParseError::Bad {
        status,
        message: message.into(),
    }
}

/// Read one `\r\n`-terminated line, enforcing the line cap and the overall
/// request deadline. A socket-level read timeout or an expired deadline
/// becomes 408 — the peer stalled, answer and hang up instead of pinning
/// the worker silently.
fn read_line(r: &mut impl BufRead, deadline: Option<Instant>) -> Result<String, ParseError> {
    let mut line = Vec::new();
    loop {
        if past(deadline) {
            return Err(bad(408, "request header read timed out"));
        }
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && !line.is_empty() => break,
            Err(e) if is_timeout(&e) => {
                return Err(bad(408, "request header read timed out"));
            }
            Err(e) => return Err(ParseError::Io(e)),
        }
        if byte[0] == b'\n' {
            break;
        }
        if byte[0] != b'\r' {
            line.push(byte[0]);
        }
        if line.len() > MAX_LINE_BYTES {
            return Err(bad(431, "header line too long"));
        }
    }
    String::from_utf8(line).map_err(|_| bad(400, "header line is not UTF-8"))
}

/// Decode `%XX` escapes and `+`-for-space in a query component.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

impl Request {
    /// Parse one request from the stream under default limits (tests and
    /// simple embedding; the daemon passes explicit [`ParseLimits`]).
    pub fn parse(r: &mut impl BufRead) -> Result<Request, ParseError> {
        Request::parse_with(r, &ParseLimits::default())
    }

    /// Parse one request from the stream. Headers other than
    /// `Content-Length` are ignored — every response closes the connection.
    ///
    /// Failure taxonomy: 400 malformed syntax (including duplicate
    /// `Content-Length`), 408 the peer stalled past the deadline (headers
    /// or mid-body), 413 declared body over the cap — checked from the
    /// header alone, *before* any body byte is read, so an oversized upload
    /// is refused without the daemon paying to receive it — and 431
    /// oversized or too many header lines.
    pub fn parse_with(r: &mut impl BufRead, limits: &ParseLimits) -> Result<Request, ParseError> {
        let request_line = read_line(r, limits.deadline)?;
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| bad(400, "empty request line"))?
            .to_string();
        let target = parts
            .next()
            .ok_or_else(|| bad(400, "request line has no target"))?;
        let (raw_path, raw_query) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };

        let mut content_length: Option<usize> = None;
        let mut headers = 0usize;
        loop {
            let line = read_line(r, limits.deadline)?;
            if line.is_empty() {
                break;
            }
            headers += 1;
            if headers > MAX_HEADERS {
                return Err(bad(431, "too many header lines"));
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    let parsed = value
                        .trim()
                        .parse()
                        .map_err(|_| bad(400, "bad Content-Length"))?;
                    // Two Content-Length headers are a smuggling smell;
                    // reject even when they agree.
                    if content_length.replace(parsed).is_some() {
                        return Err(bad(400, "duplicate Content-Length"));
                    }
                }
            }
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > limits.max_body {
            // Reject from the declared length alone — the body is never read.
            return Err(bad(
                413,
                format!("request body over the {} byte cap", limits.max_body),
            ));
        }
        let mut body = vec![0u8; content_length];
        let mut filled = 0usize;
        while filled < body.len() {
            if past(limits.deadline) {
                return Err(bad(408, "client stalled mid-body"));
            }
            let chunk = (body.len() - filled).min(BODY_CHUNK_BYTES);
            match r.read(&mut body[filled..filled + chunk]) {
                Ok(0) => {
                    return Err(ParseError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "body shorter than Content-Length",
                    )))
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_timeout(&e) => return Err(bad(408, "client stalled mid-body")),
                Err(e) => return Err(ParseError::Io(e)),
            }
        }

        Ok(Request {
            method,
            path: percent_decode(raw_path),
            query: parse_query(raw_query),
            body,
        })
    }

    /// First value of a query parameter.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response ready to serialize; always `Connection: close`.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// Emitted as a `Retry-After: <secs>` header — load-shed (503) and
    /// rate-limited (429) responses tell the client when to come back.
    pub retry_after: Option<u64>,
    /// Extra response headers, emitted verbatim in order (RFC 7231 hints
    /// like `Allow` on 405, or `X-DD-Primary` forwarding a follower's
    /// rejected write).
    pub headers: Vec<(String, String)>,
    content_type: &'static str,
}

impl Response {
    pub fn json(status: u16, value: &serde_json::Value) -> Response {
        Response {
            status,
            body: serde_json::to_string_pretty(value).expect("a Value renders infallibly"),
            retry_after: None,
            headers: Vec::new(),
            content_type: "application/json",
        }
    }

    /// Standard error envelope: `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, &serde_json::json!({ "error": message }))
    }

    /// A raw (non-JSON) payload — the checkpoint bundle `GET /checkpoint`
    /// returns. The body is still UTF-8 text (every checkpoint artifact
    /// is), but framed for byte-exact reassembly, not for parsing as JSON.
    pub fn octet(status: u16, body: String) -> Response {
        Response {
            status,
            body,
            retry_after: None,
            headers: Vec::new(),
            content_type: "application/octet-stream",
        }
    }

    /// Attach a `Retry-After` header (seconds).
    pub fn with_retry_after(mut self, secs: u64) -> Response {
        self.retry_after = Some(secs);
        self
    }

    /// Attach an arbitrary response header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Render status line, headers and body into one buffer and hand it to
    /// `w` in a single `write_all` — one `send` on an unbuffered socket
    /// rather than one per format fragment.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut out = Vec::with_capacity(256 + self.body.len());
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
        )?;
        if let Some(secs) = self.retry_after {
            write!(out, "Retry-After: {secs}\r\n")?;
        }
        for (name, value) in &self.headers {
            write!(out, "{name}: {value}\r\n")?;
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.body.as_bytes());
        w.write_all(&out)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse_str(raw: &str) -> Result<Request, ParseError> {
        Request::parse(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_request_line_query_and_body() {
        let req = parse_str(
            "POST /documents?min_p=0.9&name=Barack%20Obama HTTP/1.1\r\n\
             Host: localhost\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/documents");
        assert_eq!(req.query_param("min_p"), Some("0.9"));
        assert_eq!(req.query_param("name"), Some("Barack Obama"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn rejects_oversized_bodies() {
        let raw = format!(
            "POST /documents HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match parse_str(&raw) {
            Err(ParseError::Bad { status: 413, .. }) => {}
            other => panic!("expected 413, got {other:?}"),
        }
    }

    #[test]
    fn oversized_body_is_rejected_before_any_body_byte_is_read() {
        // The reader holds headers declaring a huge body but zero body
        // bytes; the 413 must come from the header alone. (Were the body
        // read first, this would error UnexpectedEof instead.)
        let raw = format!(
            "POST /documents HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let mut reader = BufReader::new(raw.as_bytes());
        match Request::parse(&mut reader) {
            Err(ParseError::Bad { status: 413, .. }) => {}
            other => panic!("expected 413 before body read, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        let raw = "POST /documents HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody";
        match parse_str(raw) {
            Err(ParseError::Bad {
                status: 400,
                message,
            }) => {
                assert!(message.contains("duplicate"), "{message}");
            }
            other => panic!("expected 400, got {other:?}"),
        }
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut raw = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..100 {
            raw.push_str(&format!("X-Pad-{i}: x\r\n"));
        }
        raw.push_str("\r\n");
        match parse_str(&raw) {
            Err(ParseError::Bad { status: 431, .. }) => {}
            other => panic!("expected 431, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_is_408() {
        let limits = ParseLimits {
            max_body: MAX_BODY_BYTES,
            deadline: Some(Instant::now() - std::time::Duration::from_secs(1)),
        };
        let raw = "GET /healthz HTTP/1.1\r\n\r\n";
        match Request::parse_with(&mut BufReader::new(raw.as_bytes()), &limits) {
            Err(ParseError::Bad { status: 408, .. }) => {}
            other => panic!("expected 408, got {other:?}"),
        }
    }

    #[test]
    fn short_body_is_an_io_error_not_a_panic() {
        let raw = "POST /documents HTTP/1.1\r\nContent-Length: 10\r\n\r\nhi";
        match parse_str(raw) {
            Err(ParseError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn percent_decoding_handles_plus_and_escapes() {
        assert_eq!(percent_decode("a+b%2Fc%zz"), "a b/c%zz");
    }

    #[test]
    fn retry_after_header_is_emitted() {
        let mut out = Vec::new();
        Response::error(503, "shed")
            .with_retry_after(2)
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
    }

    #[test]
    fn response_carries_length_and_close() {
        let mut out = Vec::new();
        Response::json(200, &serde_json::json!({"ok": true}))
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Connection: close"));
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        assert!(text.contains(&format!("Content-Length: {}", body.len())));
    }

    /// A `Write` that records every `write` call it sees.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_is_written_in_one_call() {
        let mut w = CountingWriter::default();
        Response::error(503, "shed")
            .with_retry_after(1)
            .with_header("X-DD-Primary", "127.0.0.1:7000")
            .write_to(&mut w)
            .unwrap();
        assert_eq!(w.writes, 1, "status line, headers and body in one write");
        let text = String::from_utf8(w.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\nX-DD-Primary: 127.0.0.1:7000\r\n\r\n{"));
        assert!(text.ends_with('}'));
    }
}
