//! Property tests for the shared HTTP/1.1 codec's pure head parsers:
//!
//! 1. framer → parser round trip: whatever [`write_response`] and
//!    [`write_request`] frame parses back to the same fields, also after
//!    the header lines are reordered, re-cased and re-spaced and the
//!    line endings switched between CRLF and bare LF;
//! 2. arbitrary bytes never panic a parser: each input yields either a
//!    head or `Malformed`;
//! 3. requests written to a socket in pieces split at any byte are read
//!    by [`RequestReader`] exactly as the pure parsers read them whole,
//!    pipelined bytes included.

use fairrank_engine::http::{
    find_head_end, parse_request_head, parse_response_head, read_response, write_request,
    write_response, Frame, Incoming, Malformed, RequestReader, MAX_BODY, MAX_HEADERS,
};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

/// splitmix64: the per-case source of layout choices.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Rewrite the head of a framed message: header lines shuffled, names
/// randomly re-cased, optional whitespace around values, CRLF or bare LF
/// line endings. The start line and the body are kept.
fn relayout(message: &[u8], mix: &mut Mix) -> Vec<u8> {
    let head_end = find_head_end(message).expect("framed message has a head");
    let head = std::str::from_utf8(&message[..head_end]).expect("framed head is utf-8");
    let mut lines: Vec<&str> = head.split("\r\n").filter(|l| !l.is_empty()).collect();
    let start_line = lines.remove(0);
    for i in (1..lines.len()).rev() {
        lines.swap(i, mix.below(i + 1));
    }
    let mut out = start_line.as_bytes().to_vec();
    eol(&mut out, mix);
    for line in lines {
        let (name, value) = line.split_once(": ").expect("framer writes `name: value`");
        for c in name.chars() {
            out.push(if mix.below(2) == 0 {
                c.to_ascii_uppercase() as u8
            } else {
                c as u8
            });
        }
        out.push(b':');
        out.extend_from_slice(mix.pick(&["", " ", "  ", "\t", " \t"]).as_bytes());
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(mix.pick(&["", " ", "\t"]).as_bytes());
        eol(&mut out, mix);
    }
    eol(&mut out, mix);
    out.extend_from_slice(&message[head_end..]);
    out
}

/// End a head line with CRLF or a bare LF.
fn eol(out: &mut Vec<u8>, mix: &mut Mix) {
    out.extend_from_slice(if mix.below(2) == 0 { b"\r\n" } else { b"\n" });
}

/// A reader that hands out its bytes in pieces of the given sizes, then
/// one byte at a time.
struct Pieces<'a> {
    data: &'a [u8],
    sizes: Vec<usize>,
}

impl Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = if self.sizes.is_empty() {
            1
        } else {
            self.sizes.remove(0)
        };
        let n = size.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn option<T>(values: Vec<T>) -> Option<T> {
    values.into_iter().next()
}

proptest! {
    #[test]
    fn framed_responses_parse_back_under_any_header_layout(
        status in 100u32..=599,
        body_len in 0usize..3000,
        keep_alive in any::<bool>(),
        retry_after in prop::collection::vec(0u64..100_000, 0..2),
        trace_id in prop::collection::vec(any::<u64>(), 0..2),
        backend_port in prop::collection::vec(1u32..=65535, 0..2),
        layout in any::<u64>(),
    ) {
        let mut mix = Mix(layout);
        let status = u16::try_from(status).expect("status fits u16");
        let body: Vec<u8> = (0..body_len).map(|i| b"{}[]\"ab\r\n"[i % 9]).collect();
        let backend = option(backend_port).map(|port| format!("127.0.0.1:{port}"));
        let content_type = mix.pick(&["application/json", "text/plain; version=0.0.4"]);
        let frame = Frame {
            status,
            content_type,
            keep_alive,
            retry_after: option(retry_after),
            trace_id: option(trace_id),
            backend: backend.as_deref(),
            backend_trace_id: backend.as_ref().map(|_| "42"),
        };
        let mut framed = Vec::new();
        write_response(&mut framed, &frame, &body);
        let message = relayout(&framed, &mut mix);

        let head_end = find_head_end(&message).expect("relaid head terminates");
        let head = parse_response_head(&message[..head_end]).expect("framed head parses");
        prop_assert_eq!(head.status, status);
        prop_assert_eq!(head.content_length, body_len);
        prop_assert_eq!(head.close, !keep_alive);
        prop_assert_eq!(head.content_type, content_type);
        prop_assert_eq!(head.retry_after, frame.retry_after);
        let trace = frame.trace_id.map(|id| id.to_string());
        prop_assert_eq!(head.trace_id, trace.as_deref());
        prop_assert_eq!(&message[head_end..], &body[..]);

        // the socket loop agrees, however the bytes trickle in
        let sizes = (0..4).map(|_| 1 + mix.below(700)).collect();
        let mut buf = Vec::new();
        let mut read_body = Vec::new();
        let read = read_response(&mut Pieces { data: &message, sizes }, &mut buf, &mut read_body)
            .expect("framed response reads");
        prop_assert_eq!(read, head);
        prop_assert_eq!(read_body, body);
    }

    #[test]
    fn framed_requests_parse_back_under_any_header_layout(
        method_index in 0usize..3,
        path_len in 1usize..40,
        body_len in 0usize..3000,
        keep_alive in any::<bool>(),
        layout in any::<u64>(),
    ) {
        let mut mix = Mix(layout);
        let method = ["GET", "POST", "DELETE"][method_index];
        let path: String = std::iter::once('/')
            .chain((1..path_len).map(|i| b"abc/?=&19"[(i * 7) % 9] as char))
            .collect();
        let body = vec![b'x'; body_len];
        let mut framed = Vec::new();
        write_request(&mut framed, method, &path, &body, keep_alive);
        // an HTTP/1.0 request closes unless it opts into keep-alive,
        // which the framer never does
        let http10 = mix.below(2) == 0;
        if http10 {
            let version = framed.windows(8).position(|w| w == b"HTTP/1.1").expect("version");
            framed[version + 7] = b'0';
        }
        let message = relayout(&framed, &mut mix);

        let head_end = find_head_end(&message).expect("relaid head terminates");
        let head = parse_request_head(&message[..head_end]).expect("framed head parses");
        prop_assert_eq!(head.method, method);
        prop_assert_eq!(head.path, path.as_str());
        prop_assert_eq!(head.content_length, body_len);
        prop_assert_eq!(head.close, !keep_alive || http10);
        prop_assert_eq!(&message[head_end..], &body[..]);
    }

    #[test]
    fn arbitrary_bytes_yield_a_head_or_malformed(
        pieces in prop::collection::vec(any::<u16>(), 0..120),
    ) {
        let bytes = http_ish(&pieces);
        let checks = |input: &[u8]| {
            match parse_request_head(input) {
                Ok(head) => assert!(head.content_length <= MAX_BODY && !head.method.is_empty()),
                Err(Malformed(message)) => assert!(!message.is_empty()),
            }
            match parse_response_head(input) {
                // response bodies are uncapped
                Ok(head) => assert!(head.status >= 100),
                Err(Malformed(message)) => assert!(!message.is_empty()),
            }
        };
        checks(&bytes);
        if let Some(end) = find_head_end(&bytes) {
            prop_assert!(end <= bytes.len());
            checks(&bytes[..end]);
        }
        let mut buf = Vec::new();
        let mut body = Vec::new();
        let sizes = pieces.iter().map(|p| 1 + usize::from(*p % 64)).collect();
        let _ = read_response(&mut Pieces { data: &bytes, sizes }, &mut buf, &mut body);
    }

    #[test]
    fn requests_written_in_pieces_read_as_when_whole(
        pieces in prop::collection::vec(any::<u16>(), 0..40),
        cuts in prop::collection::vec(any::<u16>(), 0..4),
        body_len in 0usize..400,
        layout in any::<u64>(),
    ) {
        let mut mix = Mix(layout);
        let body: Vec<u8> = (0..body_len).map(|i| b"{\"seed\":7}"[i % 10]).collect();
        let mut framed = Vec::new();
        write_request(&mut framed, "POST", "/rank", &body, mix.below(2) == 0);
        let mut message = relayout(&framed, &mut mix);
        // splice noise headers (possibly malformed ones) into the head
        let noise = http_ish(&pieces);
        let noise: Vec<u8> = noise.into_iter().filter(|&b| b != b'\n').collect();
        let at = message.iter().position(|&b| b == b'\n').expect("start line ends") + 1;
        message.splice(at..at, noise.into_iter().chain(*b"\r\n"));
        // and pipeline a second request behind it
        message.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");

        let mut cuts: Vec<usize> = cuts
            .iter()
            .map(|&cut| usize::from(cut) % (message.len() + 1))
            .collect();
        cuts.sort_unstable();
        prop_assert_eq!(read_in_pieces(&message, &cuts), read_whole(&message));
    }
}

/// What one [`RequestReader::next_request`] call yields.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Request {
        method: String,
        path: String,
        body: Vec<u8>,
        close: bool,
    },
    Closed,
    Malformed(String),
}

/// The outcomes a reader must produce for `message` followed by EOF,
/// derived from the pure parsers over the whole byte string.
fn read_whole(mut rest: &[u8]) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    loop {
        let Some(end) = find_head_end(rest) else {
            outcomes.push(Outcome::Closed);
            return outcomes;
        };
        let head = match parse_request_head(&rest[..end]) {
            Ok(head) => head,
            Err(Malformed(message)) => {
                outcomes.push(Outcome::Malformed(message));
                return outcomes;
            }
        };
        let Some(body) = rest[end..].get(..head.content_length) else {
            outcomes.push(Outcome::Malformed("cannot read body".into()));
            return outcomes;
        };
        outcomes.push(Outcome::Request {
            method: head.method.into(),
            path: head.path.into(),
            body: body.to_vec(),
            close: head.close,
        });
        rest = &rest[end + head.content_length..];
    }
}

/// Write `message` to a loopback socket in pieces split at `cuts`
/// (pausing between pieces so each arrives on its own), then EOF, and
/// collect what a [`RequestReader`] reads from the other end.
fn read_in_pieces(message: &[u8], cuts: &[usize]) -> Vec<Outcome> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (mut server, _) = listener.accept().expect("accept");
    client.set_nodelay(true).expect("nodelay");
    let pieces: Vec<Vec<u8>> = std::iter::once(0)
        .chain(cuts.iter().copied())
        .zip(cuts.iter().copied().chain(std::iter::once(message.len())))
        .map(|(from, to)| message[from..to].to_vec())
        .collect();
    let writer = std::thread::spawn(move || {
        for piece in pieces {
            // the reader may have given up on a malformed head already
            let _ = client.write_all(&piece);
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = client.shutdown(Shutdown::Write);
        client
    });

    let idle = Duration::from_secs(10);
    let mut reader = RequestReader::default();
    reader.begin(&server, idle).expect("configure socket");
    let mut outcomes = Vec::new();
    loop {
        let outcome = match reader.next_request(&mut server, idle) {
            Incoming::Request => Outcome::Request {
                method: reader.method.clone(),
                path: reader.path.clone(),
                body: reader.body.clone(),
                close: reader.close,
            },
            Incoming::Closed => Outcome::Closed,
            Incoming::Malformed(Malformed(message)) if message.starts_with("cannot read body") => {
                Outcome::Malformed("cannot read body".into())
            }
            Incoming::Malformed(Malformed(message)) => Outcome::Malformed(message),
        };
        let done = !matches!(outcome, Outcome::Request { .. });
        outcomes.push(outcome);
        if done {
            break;
        }
    }
    drop(writer.join().expect("writer thread"));
    outcomes
}

/// Bytes biased towards HTTP syntax: each `u16` picks a token (start
/// lines, header names, separators, numbers, line endings) or, a quarter
/// of the time, one raw byte.
fn http_ish(pieces: &[u16]) -> Vec<u8> {
    const TOKENS: &[&[u8]] = &[
        b"GET ",
        b"POST /rank ",
        b"HTTP/1.1",
        b"HTTP/1.0",
        b"HTTP/1.1 200 OK",
        b"HTTP/1.1 503 ",
        b"\r\n",
        b"\n",
        b"\r",
        b": ",
        b":",
        b",",
        b" ",
        b"content-length",
        b"Content-Length: 5",
        b"Transfer-Encoding: chunked",
        b"connection: keep-alive, close",
        b"retry-after",
        b"x-trace-id",
        b"content-type",
        b"0",
        b"17",
        b"99999999999999999999999",
        b"16777217",
        b"\xff\xfe",
        b"\xc3\xa9",
    ];
    let mut out = Vec::new();
    for &p in pieces {
        if p % 4 == 0 {
            out.push((p >> 8) as u8);
        } else {
            out.extend_from_slice(TOKENS[usize::from(p >> 2) % TOKENS.len()]);
        }
    }
    out
}

#[test]
fn header_cap_counts_lines_not_bytes() {
    let mut head = b"GET / HTTP/1.1\r\n".to_vec();
    for i in 0..MAX_HEADERS {
        head.extend_from_slice(format!("x-h{i}: v\r\n").as_bytes());
    }
    let at_cap = [head.clone(), b"\r\n".to_vec()].concat();
    assert!(parse_request_head(&at_cap).is_ok());
    head.extend_from_slice(b"x-one-more: v\r\n\r\n");
    assert_eq!(
        parse_request_head(&head),
        Err(Malformed(format!("more than {MAX_HEADERS} headers")))
    );
}
