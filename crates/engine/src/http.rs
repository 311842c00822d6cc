//! The workspace's one HTTP/1.1 codec.
//!
//! Every network edge frames and parses through this module: the
//! engine's `fairrank serve` front ([`crate::server`]), the router's
//! front, the router's pooled backend client and its readiness probe.
//! They therefore all enforce the same framing rules:
//!
//! * bodies are `content-length`-framed; a head carrying
//!   `Transfer-Encoding` is rejected (accepting a chunked body would
//!   desync keep-alive framing: the chunk stream would be parsed as the
//!   next message);
//! * repeated `Content-Length` headers with identical values are
//!   tolerated, conflicting ones are rejected (the request-smuggling
//!   ambiguity);
//! * a head is at most [`MAX_HEAD`] bytes and [`MAX_HEADERS`] header
//!   lines, a request body at most [`MAX_BODY`] bytes (response bodies
//!   are uncapped: a legitimate answer may outgrow its request);
//! * `Connection` is a comma-separated token list; HTTP/1.1 defaults to
//!   keep-alive, HTTP/1.0 closes unless the peer sends `keep-alive`.
//!
//! The head parsers ([`parse_request_head`], [`parse_response_head`])
//! are pure functions over bytes that return a head or [`Malformed`];
//! [`RequestReader`] and [`read_response`] are the socket loops around
//! them, and [`write_response`] / [`write_request`] are the framers.
//! A violation on a server edge is answered by [`reject`] with
//! `400 {"error":…}` and the connection is closed.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Largest accepted head (request or status line plus headers).
pub const MAX_HEAD: usize = 16 << 10;
/// Largest accepted header count — with the byte cap this bounds both
/// dimensions a slow-header peer could grow.
pub const MAX_HEADERS: usize = 128;
/// Largest accepted request body.
pub const MAX_BODY: usize = 16 << 20;
/// Socket-write timeout on server edges (a stalled reader must not pin
/// a thread).
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);
/// Read timeout once a request has started arriving: slow senders get
/// this much per read, independent of the (typically much shorter)
/// keep-alive idle timeout that governs waiting *between* requests.
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Scratch buffers above this size are shrunk after a request so one
/// huge body does not pin megabytes per connection thread forever.
pub(crate) const SCRATCH_TRIM: usize = 1 << 20;

/// `content-type` of every JSON response.
pub const JSON_CONTENT_TYPE: &str = "application/json";
/// Body of the `503` sent to a connection shed under overload
/// (`Retry-After` applies).
pub const OVERLOADED_BODY: &str = "{\"error\":\"server overloaded, retry later\"}";

/// A head or body that breaks the framing rules. The message becomes
/// the `400` body's `"error"` on server edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Malformed(pub String);

/// A parsed request head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHead<'a> {
    pub method: &'a str,
    pub path: &'a str,
    pub content_length: usize,
    /// The connection closes after this request: a `close` token, or
    /// an HTTP/1.0 (or older) request without a `keep-alive` token.
    pub close: bool,
}

/// A parsed response head: the fields the router's backend client
/// reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHead<'a> {
    pub status: u16,
    pub content_length: usize,
    /// Same rule as [`RequestHead::close`].
    pub close: bool,
    /// Empty when the header is absent.
    pub content_type: &'a str,
    pub retry_after: Option<u64>,
    pub trace_id: Option<&'a str>,
}

/// Position just past the head terminator (`\r\n\r\n`, tolerating bare
/// `\n\n`), or `None` while incomplete.
pub fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match buf.get(i + 1) {
                Some(b'\n') => return Some(i + 2),
                Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// The header fields the framing rules and the two parsers read.
#[derive(Default)]
struct Fields<'a> {
    content_length: Option<usize>,
    close_token: bool,
    keep_alive_token: bool,
    content_type: &'a str,
    retry_after: Option<u64>,
    trace_id: Option<&'a str>,
}

/// Split `head` into its start line and a parse of its header lines.
fn parse_head(head: &[u8]) -> Result<(&str, Fields<'_>), Malformed> {
    let head = std::str::from_utf8(head).map_err(|_| Malformed("header is not utf-8".into()))?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let start_line = lines.next().unwrap_or("");
    let mut fields = Fields::default();
    let mut header_count = 0usize;
    for line in lines {
        if line.is_empty() {
            continue; // the blank terminator line
        }
        header_count += 1;
        if header_count > MAX_HEADERS {
            return Err(Malformed(format!("more than {MAX_HEADERS} headers")));
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let parsed: usize = value
                .parse()
                .map_err(|_| Malformed("invalid content-length".into()))?;
            // repeated identical values are tolerated (RFC 9110 allows
            // folding them); conflicting ones make the framing ambiguous
            if fields
                .content_length
                .is_some_and(|previous| previous != parsed)
            {
                return Err(Malformed(
                    "conflicting duplicate content-length headers".into(),
                ));
            }
            fields.content_length = Some(parsed);
        } else if name.eq_ignore_ascii_case("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    fields.close_token = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    fields.keep_alive_token = true;
                }
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // rejected whether alone or combined with content-length
            return Err(Malformed(
                "transfer-encoding is not supported; send a content-length body".into(),
            ));
        } else if name.eq_ignore_ascii_case("content-type") {
            fields.content_type = value;
        } else if name.eq_ignore_ascii_case("retry-after") {
            fields.retry_after = value.parse().ok();
        } else if name.eq_ignore_ascii_case("x-trace-id") {
            fields.trace_id = Some(value);
        }
    }
    Ok((start_line, fields))
}

/// Parse a request head (`head` ends at [`find_head_end`]'s position).
/// A missing `Content-Length` means an empty body.
pub fn parse_request_head(head: &[u8]) -> Result<RequestHead<'_>, Malformed> {
    let (request_line, fields) = parse_head(head)?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(Malformed("malformed request line".into()));
    };
    // keep-alive is the HTTP/1.1 default; HTTP/1.0 (and anything
    // older) closes unless the peer opts in
    let http11 = parts.next() == Some("HTTP/1.1");
    let content_length = fields.content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(Malformed(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY} limit"
        )));
    }
    Ok(RequestHead {
        method,
        path,
        content_length,
        close: fields.close_token || (!http11 && !fields.keep_alive_token),
    })
}

/// Parse a response head. `Content-Length` is required: without it the
/// body would run to connection close, which keep-alive cannot frame.
/// Its value is not capped (see [`read_response`]).
pub fn parse_response_head(head: &[u8]) -> Result<ResponseHead<'_>, Malformed> {
    let (status_line, fields) = parse_head(head)?;
    let mut parts = status_line.split(' ');
    let version = parts.next().unwrap_or("");
    let status = parts
        .next()
        .filter(|code| code.len() == 3 && code.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|code| code.parse().ok());
    let Some(status) = status.filter(|_| version.starts_with("HTTP/")) else {
        return Err(Malformed("malformed status line".into()));
    };
    let content_length = fields
        .content_length
        .ok_or_else(|| Malformed("missing content-length".into()))?;
    Ok(ResponseHead {
        status,
        content_length,
        close: fields.close_token || (version != "HTTP/1.1" && !fields.keep_alive_token),
        content_type: fields.content_type,
        retry_after: fields.retry_after,
        trace_id: fields.trace_id,
    })
}

/// Everything but the body that [`write_response`] frames.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    pub status: u16,
    pub content_type: &'a str,
    pub keep_alive: bool,
    pub retry_after: Option<u64>,
    pub trace_id: Option<u64>,
    /// The replica that served a routed request.
    pub backend: Option<&'a str>,
    /// That replica's own `x-trace-id`.
    pub backend_trace_id: Option<&'a str>,
}

impl Frame<'static> {
    /// A JSON response with no optional headers.
    pub fn json(status: u16, keep_alive: bool) -> Frame<'static> {
        Frame {
            status,
            content_type: JSON_CONTENT_TYPE,
            keep_alive,
            retry_after: None,
            trace_id: None,
            backend: None,
            backend_trace_id: None,
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Serialize a complete response into `out`, clearing it first and
/// reusing its capacity (allocation-free on a warm buffer). Headers
/// come in one fixed order: `content-type`, `content-length`, then the
/// optional `retry-after`, `x-trace-id`, `x-backend`,
/// `x-backend-trace-id`, then `connection`.
pub fn write_response(out: &mut Vec<u8>, frame: &Frame<'_>, body: &[u8]) {
    out.clear();
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        frame.status,
        reason(frame.status),
        frame.content_type,
        body.len()
    );
    if let Some(secs) = frame.retry_after {
        let _ = write!(out, "retry-after: {secs}\r\n");
    }
    if let Some(id) = frame.trace_id {
        let _ = write!(out, "x-trace-id: {id}\r\n");
    }
    if let Some(backend) = frame.backend {
        let _ = write!(out, "x-backend: {backend}\r\n");
    }
    if let Some(id) = frame.backend_trace_id {
        let _ = write!(out, "x-backend-trace-id: {id}\r\n");
    }
    out.extend_from_slice(if frame.keep_alive {
        b"connection: keep-alive\r\n\r\n"
    } else {
        b"connection: close\r\n\r\n"
    });
    out.extend_from_slice(body);
}

/// Serialize a complete `content-length`-framed request into `out`,
/// clearing it first.
pub fn write_request(out: &mut Vec<u8>, method: &str, path: &str, body: &[u8], keep_alive: bool) {
    out.clear();
    let _ = write!(
        out,
        "{method} {path} HTTP/1.1\r\nhost: fairrank\r\ncontent-length: {}\r\n",
        body.len()
    );
    if !keep_alive {
        out.extend_from_slice(b"connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Append `{"error":<message as a JSON string>}` to `out`.
pub fn write_error(out: &mut String, message: &str) {
    out.push_str("{\"error\":");
    crate::json::write_string(message, out);
    out.push('}');
}

/// Append up to 4 KiB of stream bytes to `buf` (via a stack chunk, so
/// a warm `buf` never reallocates for small messages).
fn fill(stream: &mut impl Read, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut chunk = [0u8; 4096];
    let n = stream.read(&mut chunk)?;
    buf.extend_from_slice(&chunk[..n]);
    Ok(n)
}

/// Complete `body` to `content_length` bytes: first whatever of it is
/// already in `buffered`, then exact reads from `stream`. Returns how
/// many bytes of `buffered` it took. `body` grows by at most
/// [`MAX_BODY`] bytes per read, so an uncapped (response) length the
/// peer does not back with bytes costs no more than that.
fn read_body(
    stream: &mut impl Read,
    buffered: &[u8],
    content_length: usize,
    body: &mut Vec<u8>,
) -> std::io::Result<usize> {
    let taken = buffered.len().min(content_length);
    body.clear();
    body.reserve(content_length.min(MAX_BODY));
    body.extend_from_slice(&buffered[..taken]);
    while body.len() < content_length {
        let start = body.len();
        body.resize(content_length.min(start.saturating_add(MAX_BODY)), 0);
        stream.read_exact(&mut body[start..])?;
    }
    Ok(taken)
}

/// What [`RequestReader::next_request`] found on the connection.
#[derive(Debug, PartialEq, Eq)]
pub enum Incoming {
    /// A complete request is in the reader.
    Request,
    /// The peer went away: EOF or idle timeout at a request boundary,
    /// or a dead peer mid-head. Close without a response.
    Closed,
    /// The request breaks the framing rules: [`reject`] it and close.
    Malformed(Malformed),
}

/// The server-side socket loop around [`parse_request_head`]: one per
/// connection-serving thread, its buffers reused across requests and
/// connections (a warm request allocates nothing).
#[derive(Default)]
pub struct RequestReader {
    /// Socket bytes not yet consumed (with pipelining, bytes of the
    /// next request may already be here).
    buf: Vec<u8>,
    /// The current request, valid after [`Incoming::Request`].
    pub method: String,
    /// Query string included.
    pub path: String,
    pub body: Vec<u8>,
    /// The peer asked to close after this request.
    pub close: bool,
    /// The read timeout is [`REQUEST_READ_TIMEOUT`] (a request started
    /// arriving) and must go back to the idle timeout before the next
    /// wait.
    long_timeout: bool,
}

impl RequestReader {
    /// Prepare a freshly accepted connection: idle read timeout, write
    /// timeout, no Nagle delay (sequential request/response has nothing
    /// to coalesce). Drops bytes left over from a previous connection.
    pub fn begin(&mut self, stream: &TcpStream, idle_timeout: Duration) -> std::io::Result<()> {
        stream.set_read_timeout(Some(idle_timeout))?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        let _ = stream.set_nodelay(true);
        self.buf.clear();
        self.long_timeout = false;
        Ok(())
    }

    /// Read the next request: waits up to `idle_timeout` for its first
    /// byte, then up to the in-request timeout per read.
    pub fn next_request(&mut self, stream: &mut TcpStream, idle_timeout: Duration) -> Incoming {
        if self.long_timeout {
            if stream.set_read_timeout(Some(idle_timeout)).is_err() {
                return Incoming::Closed;
            }
            self.long_timeout = false;
        }
        let head_end = loop {
            if let Some(end) = find_head_end(&self.buf) {
                break end;
            }
            if self.buf.len() > MAX_HEAD {
                let message = if self.buf.contains(&b'\n') {
                    "header block too large"
                } else {
                    "header line too long"
                };
                return Incoming::Malformed(Malformed(message.into()));
            }
            if !self.buf.is_empty() {
                self.extend_timeout(stream);
            }
            match fill(stream, &mut self.buf) {
                Ok(0) | Err(_) => return Incoming::Closed,
                Ok(_) => {}
            }
        };
        let head = match parse_request_head(&self.buf[..head_end]) {
            Ok(head) => head,
            Err(error) => return Incoming::Malformed(error),
        };
        self.method.clear();
        self.method.push_str(head.method);
        self.path.clear();
        self.path.push_str(head.path);
        self.close = head.close;
        let content_length = head.content_length;
        if self.buf.len() - head_end < content_length {
            self.extend_timeout(stream);
        }
        match read_body(
            stream,
            &self.buf[head_end..],
            content_length,
            &mut self.body,
        ) {
            Ok(taken) => {
                self.buf.drain(..head_end + taken);
                Incoming::Request
            }
            Err(e) => Incoming::Malformed(Malformed(format!("cannot read body: {e}"))),
        }
    }

    fn extend_timeout(&mut self, stream: &TcpStream) {
        if !self.long_timeout {
            let _ = stream.set_read_timeout(Some(REQUEST_READ_TIMEOUT));
            self.long_timeout = true;
        }
    }

    /// Shrink buffers grown past 1 MiB by one huge request.
    pub fn trim(&mut self) {
        if self.buf.capacity() > SCRATCH_TRIM {
            self.buf.shrink_to(SCRATCH_TRIM);
        }
        if self.body.capacity() > SCRATCH_TRIM {
            self.body.shrink_to(SCRATCH_TRIM);
        }
    }
}

/// Read exactly one response: its head into `buf` (cleared first), its
/// body into `body`, whatever its length. Violations of the framing
/// rules surface as `InvalidData`, a peer closing mid-response as
/// `UnexpectedEof`.
pub fn read_response<'a>(
    stream: &mut impl Read,
    buf: &'a mut Vec<u8>,
    body: &mut Vec<u8>,
) -> std::io::Result<ResponseHead<'a>> {
    use std::io::{Error, ErrorKind};
    buf.clear();
    let head_end = loop {
        if let Some(end) = find_head_end(buf) {
            break end;
        }
        if buf.len() > MAX_HEAD {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "response head too large",
            ));
        }
        if fill(stream, buf)? == 0 {
            return Err(Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
    };
    let buf: &'a [u8] = buf;
    let head = parse_response_head(&buf[..head_end])
        .map_err(|Malformed(message)| Error::new(ErrorKind::InvalidData, message))?;
    read_body(stream, &buf[head_end..], head.content_length, body)?;
    Ok(head)
}

/// Half-close the write side, then briefly drain remaining input, so a
/// final response reaches a client that still has unread request bytes
/// in flight (closing with data pending in the receive queue turns into
/// an RST that destroys the response). `read_timeout` and `max_reads`
/// bound how long a dribbling client can hold the caller.
fn graceful_close(stream: &mut TcpStream, read_timeout: Duration, max_reads: usize) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(read_timeout));
    let mut sink = [0u8; 4096];
    for _ in 0..max_reads {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Answer a framing error with `400` and `body` (an `{"error":…}`
/// document, see [`write_error`]), then close: the connection's framing
/// can no longer be trusted.
pub fn reject(stream: &mut TcpStream, body: &str, out: &mut Vec<u8>) {
    write_response(out, &Frame::json(400, false), body.as_bytes());
    let _ = stream.write_all(out);
    graceful_close(stream, Duration::from_millis(250), 64);
}

/// Best-effort `503` for a connection the caller will not serve
/// (overload, thread exhaustion, drain), counted in `rejected`. Runs on
/// accept loops, so the drain budget after the write is tight.
pub fn shed(mut stream: TcpStream, body: &str, retry_after: Option<u64>, rejected: &AtomicU64) {
    rejected.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut out = Vec::with_capacity(256);
    let frame = Frame {
        retry_after,
        ..Frame::json(503, false)
    };
    write_response(&mut out, &frame, body.as_bytes());
    let _ = stream.write_all(&out);
    graceful_close(&mut stream, Duration::from_millis(100), 4);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_head_end_handles_crlf_and_bare_lf() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\nrest"), Some(16));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(find_head_end(b""), None);
    }
}
