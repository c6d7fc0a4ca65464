//! A minimal HTTP/1.1 request parser and response writer.
//!
//! The offline dependency set has no HTTP crate, so the server speaks the
//! protocol through this module. Two front ends share one head-parsing
//! core (`parse_request_line`/`HeadFields` — single source of truth,
//! so their verdicts can never diverge):
//!
//! - [`RequestParser`]: the **incremental** push parser the epoll event
//!   loop drives. Bytes arrive in whatever fragments the kernel delivers
//!   ([`RequestParser::feed`]); [`RequestParser::poll`] yields a request
//!   exactly when one is complete. Its output is byte-identical to
//!   one-shot parsing **at every possible chunk boundary** — the
//!   property test battery in `tests/prop_parser.rs` holds the two front
//!   ends equal over arbitrary chunkings and pipelined interleavings;
//! - [`read_request`]: the one-shot reader over any [`BufRead`], the
//!   independent reference those tests (and the parse benchmark) hold
//!   the incremental parser against.
//!
//! Scope is deliberately narrow — the two methods the routes need,
//! `Content-Length` bodies only — but the narrow slice is implemented
//! carefully:
//!
//! - **keep-alive and pipelining** fall out of stateful parsing:
//!   back-to-back requests on one connection are consumed one at a time,
//!   responses written in order;
//! - **limits are typed**: an oversized body is [`HttpError::BodyTooLarge`]
//!   (→ 413), an oversized header block [`HttpError::HeadersTooLarge`]
//!   (→ 431), a protocol violation [`HttpError::Malformed`] (→ 400) — the
//!   service maps each to its status code;
//! - **idle is not an error**: the event loop tells an idle keep-alive
//!   connection from a peer mid-request with
//!   [`RequestParser::is_mid_request`] plus its own deadline bookkeeping.

use std::io::{BufRead, ErrorKind, Write};
use std::time::{Duration, Instant};

/// Upper bound on the request line plus all header bytes.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// Once a request's first byte has arrived, the peer gets this long to
/// deliver the rest. Within it, a slow writer, or a client like curl
/// waiting out its `Expect: 100-continue` grace period, is not a stalled
/// peer; past it, a slow-drip one is dropped.
pub const REQUEST_READ_DEADLINE: Duration = Duration::from_secs(10);

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, uppercase as received (`GET`, `POST`).
    pub method: String,
    /// Request target, e.g. `/v1/estimate`.
    pub target: String,
    /// Decoded body (empty when the request carries none).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, overridden by `Connection: close`).
    pub keep_alive: bool,
}

/// One response about to be written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Forces `Connection: close` regardless of the request's preference
    /// (set on errors after which the stream position is unreliable).
    pub close: bool,
}

impl HttpResponse {
    /// A 200 response with the given content type.
    pub fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status: 200,
            content_type,
            body: body.into(),
            close: false,
        }
    }

    /// A JSON response with an explicit status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json",
            body: body.into(),
            close: false,
        }
    }
}

/// Why a request could not be read off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed the connection cleanly between requests — the
    /// normal end of a keep-alive session, not a failure.
    Closed,
    /// The bytes violate the protocol (bad request line, bad
    /// `Content-Length`, an unsupported transfer coding, …) → 400.
    Malformed(String),
    /// The declared body exceeds the configured limit → 413.
    BodyTooLarge {
        /// The limit the body exceeded, bytes.
        limit: usize,
    },
    /// The request line + headers exceed [`MAX_HEADER_BYTES`] → 431.
    HeadersTooLarge,
    /// The transport failed mid-request (peer reset, stall, …); the
    /// connection is unusable and is dropped without a response.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::BodyTooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte limit")
            }
            HttpError::HeadersTooLarge => {
                write!(f, "request headers exceed {MAX_HEADER_BYTES} bytes")
            }
            HttpError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for HttpError {}

fn is_timeout(kind: ErrorKind) -> bool {
    // Unix read timeouts surface as WouldBlock, Windows as TimedOut.
    matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Reads one line (up to `\n`, with an optional `\r` stripped), bounding
/// the running header total. `budget` is decremented by the bytes
/// consumed; timeouts retry until `deadline`.
fn read_line(
    r: &mut impl BufRead,
    budget: &mut usize,
    deadline: Instant,
) -> Result<Vec<u8>, HttpError> {
    let mut line = Vec::new();
    loop {
        let buf = match r.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(e.kind()) => {
                if Instant::now() >= deadline {
                    return Err(HttpError::Io("peer stalled mid-request".into()));
                }
                continue;
            }
            Err(e) => return Err(HttpError::Io(e.to_string())),
        };
        if buf.is_empty() {
            return Err(HttpError::Io("connection closed mid-request".into()));
        }
        let (consumed, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                line.extend_from_slice(&buf[..pos]);
                (pos + 1, true)
            }
            None => {
                line.extend_from_slice(buf);
                (buf.len(), false)
            }
        };
        r.consume(consumed);
        *budget = budget.saturating_sub(consumed);
        if *budget == 0 {
            return Err(HttpError::HeadersTooLarge);
        }
        if done {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(line);
        }
        // Progress does not reset the clock: a slow-drip peer that stays
        // just under the socket timeout must still hit the deadline, or
        // it could pin a worker indefinitely.
        if Instant::now() >= deadline {
            return Err(HttpError::Io("peer stalled mid-request".into()));
        }
    }
}

/// Parses `METHOD TARGET HTTP/1.x` into `(method, target,
/// keep_alive_default)`. Shared by the blocking reader and the
/// incremental parser so both emit identical verdicts and messages.
fn parse_request_line(line: &str) -> Result<(String, String, bool), HttpError> {
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m.to_string(), t.to_string(), v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {line:?} (expected \"METHOD TARGET HTTP/1.x\")"
            )))
        }
    };
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(HttpError::Malformed(format!(
                "unsupported protocol version {other:?}"
            )))
        }
    };
    Ok((method, target, keep_alive_default))
}

/// The header fields this server interprets, folded line by line.
/// Shared by both parser front ends.
#[derive(Debug, Clone)]
struct HeadFields {
    keep_alive: bool,
    content_length: Option<usize>,
    expect_continue: bool,
}

impl HeadFields {
    fn new(keep_alive_default: bool) -> HeadFields {
        HeadFields {
            keep_alive: keep_alive_default,
            content_length: None,
            expect_continue: false,
        }
    }

    fn apply(&mut self, line: &str) -> Result<(), HttpError> {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!(
                "header line {line:?} has no colon"
            )));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| HttpError::Malformed(format!("bad content-length {value:?}")))?;
                if self.content_length.replace(n).is_some() {
                    return Err(HttpError::Malformed("duplicate content-length".into()));
                }
            }
            "transfer-encoding" => {
                // Chunked bodies are out of scope; reject rather than
                // silently misframe the stream.
                return Err(HttpError::Malformed(
                    "transfer-encoding is not supported (use content-length)".into(),
                ));
            }
            "connection" => {
                let tokens: Vec<String> = value
                    .split(',')
                    .map(|t| t.trim().to_ascii_lowercase())
                    .collect();
                if tokens.iter().any(|t| t == "close") {
                    self.keep_alive = false;
                } else if tokens.iter().any(|t| t == "keep-alive") {
                    self.keep_alive = true;
                }
            }
            "expect" if value.eq_ignore_ascii_case("100-continue") => {
                self.expect_continue = true;
            }
            _ => {}
        }
        Ok(())
    }
}

/// Reads and parses one request off the stream.
///
/// Returns [`HttpError::Closed`] on a clean EOF between requests; all
/// other variants are real failures. Pipelined requests are supported by
/// construction: this consumes exactly one request's bytes, leaving the
/// next request buffered.
///
/// `Expect: 100-continue` gets no interim response here — the body is
/// read on the normal deadline. The event loop answers it through
/// [`RequestParser::take_interim`].
pub fn read_request(r: &mut impl BufRead, max_body: usize) -> Result<HttpRequest, HttpError> {
    // Distinguish a clean close *before* committing to a request.
    loop {
        match r.fill_buf() {
            Ok([]) => return Err(HttpError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }

    let deadline = Instant::now() + REQUEST_READ_DEADLINE;
    let mut budget = MAX_HEADER_BYTES;
    let line = read_line(r, &mut budget, deadline)?;
    let line = String::from_utf8(line)
        .map_err(|_| HttpError::Malformed("request line is not UTF-8".into()))?;
    let (method, target, keep_alive_default) = parse_request_line(&line)?;

    let mut fields = HeadFields::new(keep_alive_default);
    loop {
        let line = read_line(r, &mut budget, deadline)?;
        if line.is_empty() {
            break;
        }
        let line = String::from_utf8(line)
            .map_err(|_| HttpError::Malformed("header line is not UTF-8".into()))?;
        fields.apply(&line)?;
    }
    let len = fields.content_length.unwrap_or(0);
    if len > max_body {
        return Err(HttpError::BodyTooLarge { limit: max_body });
    }
    let mut body = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut body[filled..]) {
            Ok(0) => return Err(HttpError::Io("connection closed mid-body".into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) => {}
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
        // Checked on every pass (not just timeouts) so a slow-drip body
        // cannot outlive the deadline by trickling bytes.
        if filled < len && Instant::now() >= deadline {
            return Err(HttpError::Io("peer stalled mid-body".into()));
        }
    }

    Ok(HttpRequest {
        method,
        target,
        body,
        keep_alive: fields.keep_alive,
    })
}

/// Where the incremental parser is inside the current request.
#[derive(Debug)]
enum ParseState {
    /// Waiting for (or mid-way through) the request line.
    Line,
    /// Request line parsed; folding header lines into `fields`.
    Headers {
        method: String,
        target: String,
        fields: HeadFields,
    },
    /// Head complete; accumulating `needed` body bytes.
    Body {
        method: String,
        target: String,
        keep_alive: bool,
        body: Vec<u8>,
        needed: usize,
    },
}

/// The incremental (push) HTTP parser driven by the epoll event loop.
///
/// Bytes arrive in arbitrary fragments via [`feed`](RequestParser::feed);
/// [`poll`](RequestParser::poll) consumes as much as possible and yields
/// a request exactly when one is complete. The state machine processes
/// header lines **eagerly, in arrival order** — exactly like the blocking
/// reader consumes the stream — so error verdicts and their precedence
/// (e.g. [`HttpError::HeadersTooLarge`] before a malformed-line 400 when
/// the budget runs out first) are identical at every chunk boundary. The
/// property battery in `tests/prop_parser.rs` pins this equivalence.
///
/// The header budget is chunk-independent: the parser fails with
/// [`HttpError::HeadersTooLarge`] exactly when the cumulative head bytes
/// (request line, headers, terminator, line endings included) reach
/// [`MAX_HEADER_BYTES`] — whether those bytes arrived in one fragment or
/// one-by-one.
///
/// After an error the parser is poisoned: every later `poll` returns the
/// same error. The event loop responds with the mapped status and closes,
/// so no bytes are ever parsed past a protocol failure.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Index of the first unconsumed byte in `buf`.
    start: usize,
    /// Head bytes consumed for the *current* request (budget bookkeeping).
    header_bytes: usize,
    state: ParseState,
    max_body: usize,
    /// Armed when a head with `Expect: 100-continue` and an acceptable
    /// body completes; drained by [`take_interim`](Self::take_interim).
    interim: bool,
    failed: Option<HttpError>,
}

impl RequestParser {
    /// A parser enforcing the given body limit (the header limit is the
    /// module-wide [`MAX_HEADER_BYTES`]).
    pub fn new(max_body: usize) -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            start: 0,
            header_bytes: 0,
            state: ParseState::Line,
            max_body,
            interim: false,
            failed: None,
        }
    }

    /// Appends bytes received from the peer. Consumed prefix is compacted
    /// away first, so the buffer never grows past one in-flight request
    /// plus whatever the peer pipelined ahead.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The one-shot `100 Continue` interim response, if the most recently
    /// completed head requested it with an acceptable body. The caller
    /// writes these bytes before the final response; an oversized body
    /// gets no interim, only the 413.
    pub fn take_interim(&mut self) -> Option<&'static [u8]> {
        if self.interim {
            self.interim = false;
            Some(b"HTTP/1.1 100 Continue\r\n\r\n")
        } else {
            None
        }
    }

    /// True when the parser has committed to a request (some head or body
    /// bytes consumed) or holds unconsumed buffered bytes. The event loop
    /// uses this to tell an *idle* keep-alive connection (safe to close
    /// on shutdown, no deadline) from a peer mid-request (read deadline
    /// applies).
    pub fn is_mid_request(&self) -> bool {
        !matches!(self.state, ParseState::Line) || self.start < self.buf.len()
    }

    /// Extracts the next complete line, maintaining the header budget
    /// exactly like the blocking reader: the budget is charged for every
    /// consumed byte (newline included) *and* for buffered partial-line
    /// bytes, and the check precedes returning a completed line.
    fn take_line(&mut self) -> Result<Option<Vec<u8>>, HttpError> {
        let pending = &self.buf[self.start..];
        match pending.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let mut line = pending[..pos].to_vec();
                self.start += pos + 1;
                self.header_bytes += pos + 1;
                if self.header_bytes >= MAX_HEADER_BYTES {
                    return Err(HttpError::HeadersTooLarge);
                }
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                Ok(Some(line))
            }
            None => {
                if self.header_bytes + pending.len() >= MAX_HEADER_BYTES {
                    return Err(HttpError::HeadersTooLarge);
                }
                Ok(None)
            }
        }
    }

    /// Advances the state machine as far as the buffered bytes allow.
    ///
    /// Returns `Ok(Some(_))` when a request completed, `Ok(None)` when
    /// more bytes are needed, and a (sticky) error on protocol failure.
    pub fn poll(&mut self) -> Result<Option<HttpRequest>, HttpError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        match self.poll_inner() {
            Err(e) => {
                self.failed = Some(e.clone());
                Err(e)
            }
            ok => ok,
        }
    }

    fn poll_inner(&mut self) -> Result<Option<HttpRequest>, HttpError> {
        loop {
            match &mut self.state {
                ParseState::Line => {
                    let Some(line) = self.take_line()? else {
                        return Ok(None);
                    };
                    let line = String::from_utf8(line)
                        .map_err(|_| HttpError::Malformed("request line is not UTF-8".into()))?;
                    let (method, target, keep_alive_default) = parse_request_line(&line)?;
                    self.state = ParseState::Headers {
                        method,
                        target,
                        fields: HeadFields::new(keep_alive_default),
                    };
                }
                ParseState::Headers { .. } => {
                    let Some(line) = self.take_line()? else {
                        return Ok(None);
                    };
                    if !line.is_empty() {
                        let line = String::from_utf8(line)
                            .map_err(|_| HttpError::Malformed("header line is not UTF-8".into()))?;
                        let ParseState::Headers { fields, .. } = &mut self.state else {
                            unreachable!("matched Headers above");
                        };
                        fields.apply(&line)?;
                        continue;
                    }
                    // Blank line: the head is complete.
                    let ParseState::Headers {
                        method,
                        target,
                        fields,
                    } = std::mem::replace(&mut self.state, ParseState::Line)
                    else {
                        unreachable!("matched Headers above");
                    };
                    let needed = fields.content_length.unwrap_or(0);
                    if needed > self.max_body {
                        // No interim response: the final answer is the 413.
                        return Err(HttpError::BodyTooLarge {
                            limit: self.max_body,
                        });
                    }
                    if fields.expect_continue && needed > 0 {
                        self.interim = true;
                    }
                    self.state = ParseState::Body {
                        method,
                        target,
                        keep_alive: fields.keep_alive,
                        body: Vec::with_capacity(needed),
                        needed,
                    };
                }
                ParseState::Body { .. } => {
                    // Disjoint borrows: the buffer is read while the state
                    // is mutated.
                    let RequestParser {
                        buf, start, state, ..
                    } = self;
                    let ParseState::Body {
                        method,
                        target,
                        keep_alive,
                        body,
                        needed,
                    } = state
                    else {
                        unreachable!("matched Body above");
                    };
                    let pending = &buf[*start..];
                    let take = (*needed - body.len()).min(pending.len());
                    body.extend_from_slice(&pending[..take]);
                    *start += take;
                    if body.len() < *needed {
                        return Ok(None);
                    }
                    let request = HttpRequest {
                        method: std::mem::take(method),
                        target: std::mem::take(target),
                        body: std::mem::take(body),
                        keep_alive: *keep_alive,
                    };
                    self.state = ParseState::Line;
                    self.header_bytes = 0;
                    return Ok(Some(request));
                }
            }
        }
    }
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Renders a response head (status line, headers, blank line) exactly as
/// [`write_response`] emits it. `keep_alive` is the connection's fate
/// *after* this response — the caller has already folded in the
/// response's `close` flag. The event loop writes this head followed by
/// a shared (`Arc`'d) body so cache hits copy nothing.
pub fn response_head(
    status: u16,
    content_type: &str,
    body_len: usize,
    keep_alive: bool,
) -> Vec<u8> {
    format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        body_len,
        if keep_alive { "keep-alive" } else { "close" },
    )
    .into_bytes()
}

/// Writes one response. `keep_alive` reflects the connection's fate after
/// this response (the `Connection` header tells the client).
pub fn write_response(
    w: &mut impl Write,
    resp: &HttpResponse,
    keep_alive: bool,
) -> std::io::Result<()> {
    let head = response_head(
        resp.status,
        resp.content_type,
        resp.body.len(),
        keep_alive && !resp.close,
    );
    w.write_all(&head)?;
    w.write_all(&resp.body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<HttpRequest, HttpError> {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()), 1024)
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse("GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert!(req.body.is_empty());
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_post_with_content_length_body() {
        let req = parse("POST /v1/estimate HTTP/1.1\r\ncontent-length: 4\r\n\r\n{\"a\"").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\"");
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        // Two requests written back-to-back: each read consumes exactly
        // one, leaving the second buffered for the next call.
        let raw = "POST /v1/estimate HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}\
                   GET /metrics HTTP/1.1\r\n\r\n";
        let mut r = Cursor::new(raw.as_bytes().to_vec());
        let first = read_request(&mut r, 1024).unwrap();
        assert_eq!(first.method, "POST");
        assert_eq!(first.body, b"{}");
        let second = read_request(&mut r, 1024).unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.target, "/metrics");
        assert_eq!(read_request(&mut r, 1024).unwrap_err(), HttpError::Closed);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse("GET / HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn oversized_body_is_a_typed_413() {
        let err = parse("POST /v1/estimate HTTP/1.1\r\ncontent-length: 2048\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::BodyTooLarge { limit: 1024 });
    }

    #[test]
    fn oversized_headers_are_a_typed_431() {
        let raw = format!(
            "GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n",
            "y".repeat(MAX_HEADER_BYTES)
        );
        assert_eq!(parse(&raw).unwrap_err(), HttpError::HeadersTooLarge);
    }

    #[test]
    fn malformed_inputs_are_typed_400s() {
        for raw in [
            "NONSENSE\r\n\r\n",
            "GET / HTTP/2.0\r\n\r\n",
            "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "POST / HTTP/1.1\r\ncontent-length: seven\r\n\r\n",
            "POST / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 1\r\n\r\nx",
            "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed(_))),
                "{raw:?} must be malformed"
            );
        }
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let err = parse("POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort").unwrap_err();
        assert!(matches!(err, HttpError::Io(_)), "{err:?}");
    }

    #[test]
    fn clean_eof_between_requests_is_closed() {
        assert_eq!(parse("").unwrap_err(), HttpError::Closed);
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let req = parse("GET /healthz HTTP/1.1\nhost: x\n\n").unwrap();
        assert_eq!(req.target, "/healthz");
    }

    /// One-shot reference: parse as many requests as the bytes hold,
    /// stopping at the first error (or clean end of input).
    fn oneshot_all(raw: &[u8], max_body: usize) -> (Vec<HttpRequest>, Option<HttpError>) {
        let mut r = Cursor::new(raw.to_vec());
        let mut out = Vec::new();
        loop {
            match read_request(&mut r, max_body) {
                Ok(req) => out.push(req),
                Err(HttpError::Closed) => return (out, None),
                // A truncated tail (EOF mid-request) ends the stream for
                // the blocking reader; the incremental parser just waits
                // for more bytes, so the comparison treats it as "no
                // verdict yet".
                Err(HttpError::Io(_)) => return (out, None),
                Err(e) => return (out, Some(e)),
            }
        }
    }

    /// Incremental counterpart: feed the same bytes split into the given
    /// chunks, polling after each feed.
    fn incremental_all(chunks: &[&[u8]], max_body: usize) -> (Vec<HttpRequest>, Option<HttpError>) {
        let mut parser = RequestParser::new(max_body);
        let mut out = Vec::new();
        for chunk in chunks {
            parser.feed(chunk);
            loop {
                match parser.poll() {
                    Ok(Some(req)) => out.push(req),
                    Ok(None) => break,
                    Err(e) => return (out, Some(e)),
                }
            }
        }
        (out, None)
    }

    #[test]
    fn incremental_parser_matches_oneshot_at_every_split_boundary() {
        // The load-bearing determinism check for non-blocking reads: for
        // each input — valid, pipelined, and each typed-error shape —
        // split the byte stream at EVERY position and require the
        // incremental parser to produce exactly the one-shot verdict.
        let big = format!(
            "GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n",
            "y".repeat(MAX_HEADER_BYTES)
        );
        let inputs: Vec<&[u8]> = vec![
            b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n",
            b"POST /v1/estimate HTTP/1.1\r\ncontent-length: 4\r\n\r\n{\"a\"",
            b"POST /v1/estimate HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}GET /metrics HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n",
            b"NONSENSE\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: seven\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: 2048\r\n\r\nxx",
            b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            b"GET /healthz HTTP/1.1\nhost: x\n\n",
            big.as_bytes(),
        ];
        for raw in inputs {
            let expected = oneshot_all(raw, 1024);
            for split in 0..=raw.len() {
                let got = incremental_all(&[&raw[..split], &raw[split..]], 1024);
                assert_eq!(
                    got,
                    expected,
                    "split at {split} diverged for {:?}",
                    String::from_utf8_lossy(raw)
                );
            }
            // Worst case: one byte at a time.
            let chunks: Vec<&[u8]> = raw.chunks(1).collect();
            assert_eq!(incremental_all(&chunks, 1024), expected);
        }
    }

    #[test]
    fn incremental_parser_reports_interim_and_midrequest_state() {
        let mut p = RequestParser::new(1024);
        assert!(!p.is_mid_request(), "fresh parser is idle");
        p.feed(b"POST / HTTP/1.1\r\nexpect: 100-continue\r\ncontent-le");
        assert_eq!(p.poll().unwrap(), None);
        assert!(p.is_mid_request());
        assert_eq!(p.take_interim(), None, "head not complete yet");
        p.feed(b"ngth: 2\r\n\r\n");
        assert_eq!(p.poll().unwrap(), None, "waiting on the body");
        assert_eq!(
            p.take_interim(),
            Some(b"HTTP/1.1 100 Continue\r\n\r\n".as_slice()),
            "interim armed as soon as the head completes"
        );
        assert_eq!(p.take_interim(), None, "interim is one-shot");
        p.feed(b"{}");
        let req = p.poll().unwrap().unwrap();
        assert_eq!(req.body, b"{}");
        assert!(!p.is_mid_request(), "back to idle between requests");
    }

    #[test]
    fn expect_100_continue_gets_an_interim_response() {
        // curl sends `Expect: 100-continue` for non-trivial POST bodies
        // and waits for the interim response before sending the body;
        // the parser must arm it once the head is accepted.
        let mut p = RequestParser::new(1024);
        p.feed(
            b"POST /v1/estimate HTTP/1.1\r\nexpect: 100-continue\r\ncontent-length: 2\r\n\r\n{}",
        );
        assert_eq!(p.poll().unwrap().unwrap().body, b"{}");
        assert_eq!(
            p.take_interim(),
            Some(b"HTTP/1.1 100 Continue\r\n\r\n".as_slice())
        );
        // Without the header no interim is armed…
        p.feed(b"POST / HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}");
        assert_eq!(p.poll().unwrap().unwrap().body, b"{}");
        assert_eq!(p.take_interim(), None);
        // …and an oversized declaration fails straight to 413, no 100.
        let mut p = RequestParser::new(1024);
        p.feed(b"POST / HTTP/1.1\r\nexpect: 100-continue\r\ncontent-length: 9999\r\n\r\n");
        assert_eq!(
            p.poll().unwrap_err(),
            HttpError::BodyTooLarge { limit: 1024 }
        );
        assert_eq!(p.take_interim(), None);
    }

    #[test]
    fn incremental_parser_errors_are_sticky() {
        let mut p = RequestParser::new(1024);
        p.feed(b"GET / HTTP/2.0\r\n\r\n");
        let first = p.poll().unwrap_err();
        assert!(matches!(first, HttpError::Malformed(_)));
        p.feed(b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(p.poll().unwrap_err(), first, "poisoned after failure");
    }

    #[test]
    fn incremental_parser_header_budget_is_chunk_independent() {
        // A head one byte under the limit parses; at the limit it fails —
        // regardless of how the bytes are chunked, and with the budget
        // verdict taking precedence over later parse errors, exactly like
        // the blocking reader's running-budget check.
        let head = "GET / HTTP/1.1\r\n";
        let fill = MAX_HEADER_BYTES - head.len() - "x-pad: \r\n".len() - 2 /* terminator */;
        let ok = format!("{head}x-pad: {}\r\n\r\n", "y".repeat(fill - 1));
        let over = format!("{head}x-pad: {}\r\n\r\n", "y".repeat(fill));
        assert_eq!(oneshot_all(ok.as_bytes(), 64).1, None);
        assert_eq!(
            oneshot_all(over.as_bytes(), 64).1,
            Some(HttpError::HeadersTooLarge)
        );
        for chunk_len in [1, 7, 4096, over.len()] {
            let chunks: Vec<&[u8]> = ok.as_bytes().chunks(chunk_len).collect();
            assert_eq!(incremental_all(&chunks, 64).1, None, "chunk={chunk_len}");
            let chunks: Vec<&[u8]> = over.as_bytes().chunks(chunk_len).collect();
            assert_eq!(
                incremental_all(&chunks, 64).1,
                Some(HttpError::HeadersTooLarge),
                "chunk={chunk_len}"
            );
        }
    }

    #[test]
    fn response_head_matches_write_response() {
        let resp = HttpResponse::ok("application/json", "{\"ok\":true}");
        let mut via_write = Vec::new();
        write_response(&mut via_write, &resp, true).unwrap();
        let mut via_head = response_head(resp.status, resp.content_type, resp.body.len(), true);
        via_head.extend_from_slice(&resp.body);
        assert_eq!(via_write, via_head);
    }

    #[test]
    fn responses_carry_length_and_connection_fate() {
        let mut out = Vec::new();
        write_response(&mut out, &HttpResponse::ok("text/plain", "ok\n"), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 3\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));

        let mut out = Vec::new();
        let mut resp = HttpResponse::json(400, "{}");
        resp.close = true;
        write_response(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: close\r\n"), "{text}");
        assert!(text.contains("content-type: application/json\r\n"));
    }
}
