//! The router front enforces the engine's HTTP framing rules: every
//! request that breaks them gets the engine's `400 {"error":…}` and the
//! connection closes, so nothing smuggled behind a bad frame is ever
//! answered. The differential test sends each malformed input to a bare
//! engine edge and to the router and requires the same status line and
//! the same body.
//!
//! The client here is raw bytes over a socket on purpose: it must not
//! share code with the codec it checks.

use fairrank_engine::server::{Server, ServerHandle};
use fairrank_engine::{Engine, EngineConfig};
use fairrank_router::server::{RouterHandle, RouterServer};
use fairrank_router::{RouterConfig, RouterCore};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A router with no backends: framing is decided before routing.
fn spawn_router() -> RouterHandle {
    RouterServer::bind("127.0.0.1:0", RouterCore::new(RouterConfig::default()))
        .expect("binding the router")
        .spawn()
        .expect("starting the router")
}

fn spawn_engine() -> ServerHandle {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        queue_capacity: 8,
        cache_capacity: 8,
        table_cache_capacity: 4,
        cache_shards: 0,
        ..EngineConfig::default()
    });
    Server::bind("127.0.0.1:0", engine)
        .expect("binding the engine")
        .spawn()
        .expect("starting the engine")
}

/// Send `request` and read until the server closes (or 10 s pass).
fn exchange(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connecting");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(request).expect("writing the request");
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

fn status_line(response: &str) -> &str {
    response.split("\r\n").next().unwrap_or("")
}

fn body(response: &str) -> &str {
    response.split_once("\r\n\r\n").map_or("", |(_, body)| body)
}

fn has_header(response: &str, line: &str) -> bool {
    let head = response.split_once("\r\n\r\n").map_or(response, |(h, _)| h);
    head.split("\r\n").any(|l| l.eq_ignore_ascii_case(line))
}

const CHUNKED_THEN_SMUGGLED: &[u8] =
    b"POST /rank HTTP/1.1\r\nhost: t\r\ntransfer-encoding: chunked\r\n\r\n\
    5\r\nhello\r\n0\r\n\r\nGET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";

/// A `GET /healthz` with exactly `count` headers, the last of them
/// `connection: close`.
fn many_headers(count: usize) -> Vec<u8> {
    let mut request = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 1..count {
        request.extend_from_slice(format!("x-h{i}: v\r\n").as_bytes());
    }
    request.extend_from_slice(b"connection: close\r\n\r\n");
    request
}

#[test]
fn chunked_body_is_rejected_and_the_smuggled_request_never_answered() {
    let router = spawn_router();
    let response = exchange(router.addr(), CHUNKED_THEN_SMUGGLED);
    assert!(
        status_line(&response).starts_with("HTTP/1.1 400"),
        "{response}"
    );
    assert!(has_header(&response, "connection: close"), "{response}");
    assert_eq!(response.matches("HTTP/1.1 ").count(), 1, "{response}");
    router.shutdown();
}

#[test]
fn conflicting_content_lengths_are_rejected() {
    let router = spawn_router();
    let response = exchange(
        router.addr(),
        b"POST /rank HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 7\r\n\r\n{}",
    );
    assert!(
        status_line(&response).starts_with("HTTP/1.1 400"),
        "{response}"
    );
    assert!(body(&response).contains("content-length"), "{response}");
    router.shutdown();
}

#[test]
fn more_than_128_headers_are_rejected() {
    let router = spawn_router();
    let response = exchange(router.addr(), &many_headers(129));
    assert!(
        status_line(&response).starts_with("HTTP/1.1 400"),
        "{response}"
    );
    let response = exchange(router.addr(), &many_headers(128));
    assert!(
        status_line(&response).starts_with("HTTP/1.1 200"),
        "{response}"
    );
    router.shutdown();
}

#[test]
fn http10_closes_unless_it_opts_into_keep_alive() {
    let router = spawn_router();
    let response = exchange(router.addr(), b"GET /healthz HTTP/1.0\r\n\r\n");
    assert!(
        status_line(&response).starts_with("HTTP/1.1 200"),
        "{response}"
    );
    assert!(has_header(&response, "connection: close"), "{response}");

    let mut stream = TcpStream::connect(router.addr()).expect("connecting");
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\nconnection: keep-alive\r\n\r\n")
        .expect("writing");
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("reading the head");
        head.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&head);
    assert!(has_header(&head, "connection: keep-alive"), "{head}");
    router.shutdown();
}

#[test]
fn garbage_request_line_gets_a_400_with_an_error_body() {
    let router = spawn_router();
    let response = exchange(router.addr(), b"GARBAGE\r\n\r\n");
    assert!(
        status_line(&response).starts_with("HTTP/1.1 400"),
        "{response}"
    );
    assert!(body(&response).starts_with("{\"error\":"), "{response}");
    router.shutdown();
}

#[test]
fn router_and_engine_reject_malformed_input_identically() {
    let engine = spawn_engine();
    let router = spawn_router();
    let mut inputs: Vec<Vec<u8>> = vec![
        CHUNKED_THEN_SMUGGLED.to_vec(),
        b"POST /rank HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 7\r\n\r\n{}".to_vec(),
        b"POST /rank HTTP/1.1\r\ncontent-length: two\r\n\r\n".to_vec(),
        b"POST /rank HTTP/1.1\r\ncontent-length: 16777217\r\n\r\n".to_vec(),
        b"GARBAGE\r\n\r\n".to_vec(),
        b"GET /\xff HTTP/1.1\r\n\r\n".to_vec(),
        many_headers(129),
    ];
    // a request line that never ends: cut off at the 16 KiB head cap
    let mut endless = b"GET /".to_vec();
    endless.extend(std::iter::repeat_n(b'A', 20 << 10));
    inputs.push(endless);
    for input in &inputs {
        let from_engine = exchange(engine.addr(), input);
        let from_router = exchange(router.addr(), input);
        let shown = String::from_utf8_lossy(&input[..input.len().min(80)]);
        assert!(
            status_line(&from_engine).starts_with("HTTP/1.1 400"),
            "{shown}: {from_engine}"
        );
        assert_eq!(
            status_line(&from_router),
            status_line(&from_engine),
            "{shown}"
        );
        assert_eq!(body(&from_router), body(&from_engine), "{shown}");
    }
    router.shutdown();
    engine.shutdown();
}
