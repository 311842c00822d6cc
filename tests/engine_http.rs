//! End-to-end client/server tests: round trips against a live
//! `fairrank-engine` HTTP server (responses identical to the
//! equivalent direct library calls), plus the keep-alive reactor
//! behaviours — sequential requests over one connection, the
//! max-requests cap, `Connection: close` handling, connection shedding
//! under overload, and a multi-threaded hammer whose `/stats` counters
//! must add up — and the asynchronous `/jobs` lifecycle: submit, poll
//! to completion with per-chunk results byte-identical to the sync
//! endpoints, cooperative cancellation mid-run, and 404s on unknown
//! ids.

use fairness_ranking::fairness::{FairnessBounds, GroupAssignment};
use fairness_ranking::pipeline::{Aggregator, FairAggregationPipeline, PostProcessor};
use fairness_ranking::ranking::Permutation;
use fairrank_engine::server::{Server, ServerConfig, ServerHandle};
use fairrank_engine::{Engine, EngineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn test_engine() -> Arc<Engine> {
    Engine::new(EngineConfig {
        workers: 4,
        queue_capacity: 64,
        cache_capacity: 64,
        table_cache_capacity: 16,
        cache_shards: 0,
        ..EngineConfig::default()
    })
}

fn start_server() -> ServerHandle {
    Server::bind("127.0.0.1:0", test_engine())
        .expect("binding an ephemeral port")
        .spawn()
        .expect("starting the server")
}

fn start_server_with(config: ServerConfig) -> (ServerHandle, Arc<Engine>) {
    let engine = test_engine();
    let handle = Server::bind_with("127.0.0.1:0", Arc::clone(&engine), config)
        .expect("binding an ephemeral port")
        .spawn()
        .expect("starting the server");
    (handle, engine)
}

fn http_post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connecting to the server");
    let request = format!(
        "POST {path} HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("HTTP status line");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// A keep-alive HTTP client: one connection, sequential requests,
/// responses framed by `content-length`. Deliberately independent of
/// `fairrank_engine::http`: it is the oracle the shared codec's framing
/// is checked against, so it must not be rebuilt on that codec.
struct KeepAliveClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One parsed keep-alive response.
struct Response {
    status: u16,
    head: String,
    body: String,
}

impl KeepAliveClient {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connecting to the server");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        KeepAliveClient {
            stream,
            buf: Vec::new(),
        }
    }

    /// Send one request; `close` adds `connection: close`.
    fn send(&mut self, method: &str, path: &str, body: &str, close: bool) {
        let connection = if close { "connection: close\r\n" } else { "" };
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: localhost\r\n{connection}content-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes()).unwrap();
    }

    /// Read one response off the connection.
    fn read_response(&mut self) -> Response {
        // buffer until the head terminator
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("reading response head");
            assert!(n > 0, "connection closed mid-response head");
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8(self.buf[..head_end].to_vec()).unwrap();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let content_length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .expect("content-length header");
        self.buf.drain(..head_end);
        while self.buf.len() < content_length {
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("reading response body");
            assert!(n > 0, "connection closed mid-response body");
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8(self.buf[..content_length].to_vec()).unwrap();
        self.buf.drain(..content_length);
        Response { status, head, body }
    }

    /// Convenience: send + read.
    fn request(&mut self, method: &str, path: &str, body: &str, close: bool) -> Response {
        self.send(method, path, body, close);
        self.read_response()
    }

    /// True when the server has closed the connection (EOF).
    fn server_closed(&mut self) -> bool {
        let mut byte = [0u8; 1];
        matches!(self.stream.read(&mut byte), Ok(0))
    }
}

/// Pull `"key":[…]` out of a JSON body as a vector of indices.
fn json_index_array(body: &str, key: &str) -> Vec<usize> {
    let marker = format!("\"{key}\":[");
    let start = body
        .find(&marker)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        + marker.len();
    let end = start + body[start..].find(']').expect("closing bracket");
    body[start..end]
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().expect("index"))
        .collect()
}

/// Pull a numeric `"key":value` out of a JSON body.
fn json_number(body: &str, key: &str) -> f64 {
    let marker = format!("\"{key}\":");
    let start = body
        .find(&marker)
        .unwrap_or_else(|| panic!("no {key} in {body}"))
        + marker.len();
    let end = body[start..]
        .find([',', '}'])
        .map(|i| start + i)
        .expect("value terminator");
    body[start..end].trim().parse().expect("number")
}

#[test]
fn pipeline_over_http_matches_library_call() {
    let server = start_server();
    let seed = 11u64;
    let (status, body) = http_post(
        server.addr(),
        "/pipeline",
        &format!(
            r#"{{"votes":[[0,1,2,3,4,5],[0,1,2,3,5,4],[1,0,2,3,4,5],[0,2,1,3,4,5]],"groups":[0,0,0,1,1,1],"method":"borda","post":"mallows","theta":0.7,"samples":15,"tolerance":0.2,"seed":{seed}}}"#
        ),
    );
    assert_eq!(status, 200, "{body}");

    // the same computation, straight through the library
    let votes: Vec<Permutation> = [
        vec![0, 1, 2, 3, 4, 5],
        vec![0, 1, 2, 3, 5, 4],
        vec![1, 0, 2, 3, 4, 5],
        vec![0, 2, 1, 3, 4, 5],
    ]
    .into_iter()
    .map(|v| Permutation::from_order(v).unwrap())
    .collect();
    let groups = GroupAssignment::new(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
    let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, 0.2);
    let mut rng = StdRng::seed_from_u64(seed);
    let lib = FairAggregationPipeline::new(
        Aggregator::Borda,
        PostProcessor::Mallows {
            theta: 0.7,
            samples: 15,
        },
    )
    .run(&votes, &groups, &bounds, &mut rng)
    .unwrap();

    assert_eq!(
        json_index_array(&body, "consensus"),
        lib.consensus.as_order()
    );
    assert_eq!(
        json_index_array(&body, "fair_ranking"),
        lib.fair_ranking.as_order()
    );
    assert_eq!(
        json_number(&body, "consensus_total_kt"),
        lib.consensus_total_kt as f64
    );
    assert_eq!(
        json_number(&body, "fair_total_kt"),
        lib.fair_total_kt as f64
    );
    assert_eq!(
        json_number(&body, "consensus_infeasible"),
        lib.consensus_infeasible as f64
    );
    assert_eq!(
        json_number(&body, "fair_infeasible"),
        lib.fair_infeasible as f64
    );
    server.shutdown();
}

#[test]
fn repeated_requests_hit_the_cache_and_stats_report_it() {
    let server = start_server();
    let body = r#"{"algorithm":"mallows","scores":[0.9,0.8,0.7,0.4,0.3,0.2],"groups":[0,0,0,1,1,1],"theta":1.0,"samples":10,"seed":5}"#;
    let (s1, r1) = http_post(server.addr(), "/rank", body);
    let (s2, r2) = http_post(server.addr(), "/rank", body);
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(r1, r2, "cached response must be byte-identical");
    let (status, stats) = http_get(server.addr(), "/stats");
    assert_eq!(status, 200);
    assert_eq!(json_number(&stats, "cache_hits"), 1.0, "{stats}");
    assert_eq!(json_number(&stats, "cache_misses"), 1.0, "{stats}");
    server.shutdown();
}

#[test]
fn healthz_and_aggregate_work_over_http() {
    let server = start_server();
    let (status, body) = http_get(server.addr(), "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (status, body) = http_post(
        server.addr(),
        "/aggregate",
        r#"{"method":"kemeny","votes":[[0,1,2],[0,1,2],[2,0,1]],"seed":3}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_index_array(&body, "ranking"), vec![0, 1, 2]);
    server.shutdown();
}

#[test]
fn concurrent_http_clients_get_consistent_answers() {
    let server = start_server();
    let addr = server.addr();
    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                http_post(
                    addr,
                    "/pipeline",
                    r#"{"votes":[[0,1,2,3],[1,0,2,3],[0,1,3,2]],"groups":[0,0,1,1],"method":"borda","post":"none","seed":9}"#,
                )
            })
        })
        .collect();
    let responses: Vec<(u16, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (status, body) in &responses {
        assert_eq!(*status, 200, "{body}");
        assert_eq!(
            body, &responses[0].1,
            "all clients must see the same result"
        );
    }
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_sequential_requests_on_one_connection() {
    let server = start_server();
    let mut client = KeepAliveClient::connect(server.addr());

    // 30 mixed requests on a single connection: good /rank bodies of
    // two different sizes, malformed JSON, and unknown algorithms —
    // every response must match its own request (status, ranking
    // length) with no state leaking between them
    for i in 0..30usize {
        match i % 5 {
            // small pool: 2 items
            0 | 3 => {
                let body = format!(
                    r#"{{"algorithm":"weakly-fair","scores":[0.9,0.1],"groups":[0,1],"seed":{i}}}"#
                );
                let response = client.request("POST", "/rank", &body, false);
                assert_eq!(response.status, 200, "request {i}: {}", response.body);
                let ranking = json_index_array(&response.body, "ranking");
                assert_eq!(ranking.len(), 2, "request {i}: {}", response.body);
            }
            // larger pool: 4 items
            1 => {
                let body = format!(
                    r#"{{"algorithm":"weakly-fair","scores":[0.9,0.8,0.4,0.3],"groups":[0,0,1,1],"seed":{i}}}"#
                );
                let response = client.request("POST", "/rank", &body, false);
                assert_eq!(response.status, 200, "request {i}: {}", response.body);
                let ranking = json_index_array(&response.body, "ranking");
                assert_eq!(ranking.len(), 4, "request {i}: {}", response.body);
            }
            // malformed JSON → 400, connection survives
            2 => {
                let response = client.request("POST", "/rank", "{nope", false);
                assert_eq!(response.status, 400, "request {i}: {}", response.body);
                assert!(response.body.contains("error"), "{}", response.body);
            }
            // unknown algorithm → 404, connection survives
            _ => {
                let response = client.request(
                    "POST",
                    "/rank",
                    r#"{"algorithm":"psychic","scores":[1.0]}"#,
                    false,
                );
                assert_eq!(response.status, 404, "request {i}: {}", response.body);
            }
        }
    }

    // keep-alive responses advertise it; an explicit close is honored
    let response = client.request("GET", "/healthz", "", false);
    assert!(
        response.head.contains("connection: keep-alive"),
        "{}",
        response.head
    );
    let response = client.request("GET", "/healthz", "", true);
    assert!(
        response.head.contains("connection: close"),
        "{}",
        response.head
    );
    assert!(
        client.server_closed(),
        "server must close after `Connection: close`"
    );
    server.shutdown();
}

#[test]
fn http_1_0_defaults_to_connection_close() {
    let server = start_server();
    // legacy HTTP/1.0 client, no keep-alive opt-in: the server must
    // close so EOF-framed clients terminate
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\nhost: localhost\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(response.contains("connection: close"), "{response}");

    // ... but an explicit HTTP/1.0 keep-alive opt-in is honored
    let mut client = KeepAliveClient::connect(server.addr());
    client
        .stream
        .write_all(b"GET /healthz HTTP/1.0\r\nhost: localhost\r\nconnection: keep-alive\r\n\r\n")
        .unwrap();
    let response = client.read_response();
    assert_eq!(response.status, 200);
    assert!(
        response.head.contains("connection: keep-alive"),
        "{}",
        response.head
    );
    let response = client.request("GET", "/healthz", "", false);
    assert_eq!(response.status, 200, "connection must still be usable");
    server.shutdown();
}

#[test]
fn chunked_transfer_encoding_is_rejected_and_closes() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // a chunked body would desync keep-alive framing, so the server
    // must refuse it outright and close the connection
    stream
        .write_all(
            b"POST /rank HTTP/1.1\r\nhost: localhost\r\ntransfer-encoding: chunked\r\n\r\n5\r\n{\"a\":\r\n0\r\n\r\n",
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("transfer-encoding"), "{response}");
    assert!(response.contains("connection: close"), "{response}");
    server.shutdown();
}

#[test]
fn keep_alive_responses_match_fresh_connection_responses() {
    let server = start_server();
    let body = r#"{"algorithm":"mallows","scores":[0.9,0.7,0.5,0.3],"groups":[0,0,1,1],"samples":10,"seed":21}"#;
    let (status, fresh) = http_post(server.addr(), "/rank", body);
    assert_eq!(status, 200, "{fresh}");

    let mut client = KeepAliveClient::connect(server.addr());
    for i in 0..5 {
        let response = client.request("POST", "/rank", body, false);
        assert_eq!(response.status, 200, "request {i}");
        assert_eq!(
            response.body, fresh,
            "keep-alive request {i} must be byte-identical to a fresh-connection request"
        );
    }
    server.shutdown();
}

#[test]
fn max_requests_per_connection_cap_closes_the_connection() {
    let (server, _engine) = start_server_with(ServerConfig {
        max_requests_per_conn: 3,
        ..ServerConfig::default()
    });
    let mut client = KeepAliveClient::connect(server.addr());
    for i in 0..3 {
        let response = client.request("GET", "/healthz", "", false);
        assert_eq!(response.status, 200);
        let expected = if i < 2 {
            "connection: keep-alive"
        } else {
            "connection: close"
        };
        assert!(
            response.head.contains(expected),
            "request {i}: {}",
            response.head
        );
    }
    assert!(
        client.server_closed(),
        "server must close after the per-connection request cap"
    );
    server.shutdown();
}

#[test]
fn idle_keep_alive_connection_is_closed_by_the_read_timeout() {
    let (server, _engine) = start_server_with(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut client = KeepAliveClient::connect(server.addr());
    let response = client.request("GET", "/healthz", "", false);
    assert_eq!(response.status, 200);
    // no next request: the server must hang up on its own
    std::thread::sleep(Duration::from_millis(900));
    assert!(client.server_closed(), "idle connection must be closed");
    server.shutdown();
}

#[test]
fn overloaded_reactor_sheds_connections_with_503_retry_after() {
    let (server, engine) = start_server_with(ServerConfig {
        io_threads: 1,
        pending_connections: 1,
        ..ServerConfig::default()
    });

    // occupy the single I/O worker: a keep-alive connection whose
    // response proves the worker has dequeued it and is now parked
    // reading the (never-sent) next request
    let mut occupant = KeepAliveClient::connect(server.addr());
    let response = occupant.request("GET", "/healthz", "", false);
    assert_eq!(response.status, 200);

    // fill the pending queue with a second connection (wait until the
    // accept loop has actually taken it)
    let _queued = TcpStream::connect(server.addr()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while engine
        .stats()
        .connections
        .load(std::sync::atomic::Ordering::Relaxed)
        < 2
    {
        assert!(std::time::Instant::now() < deadline, "accept loop stalled");
        std::thread::yield_now();
    }

    // the third connection must be shed loudly, not silently dropped
    let mut shed = TcpStream::connect(server.addr()).unwrap();
    let mut response = String::new();
    shed.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.contains("retry-after:"), "{response}");
    assert!(response.contains("overloaded"), "{response}");
    assert_eq!(
        engine
            .stats()
            .rejected_connections
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    drop(occupant);
    drop(_queued);
    server.shutdown();
}

fn http_delete(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "DELETE {path} HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Poll `GET /jobs/{id}` until its `status` is one of `terminal`,
/// with a generous deadline.
fn poll_job_until(addr: SocketAddr, id: u64, terminal: &[&str]) -> String {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = http_get(addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200, "{body}");
        if terminal
            .iter()
            .any(|t| body.contains(&format!("\"status\":\"{t}\"")))
        {
            return body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} never reached {terminal:?}: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn job_round_trip_matches_sync_endpoints_byte_for_byte() {
    let server = start_server();
    let addr = server.addr();

    // the three sync answers the job's chunks must reproduce exactly
    let rank_body = r#"{"algorithm":"mallows","scores":[0.9,0.7,0.5,0.3],"groups":[0,0,1,1],"samples":10,"seed":77}"#;
    let (status, sync_rank) = http_post(addr, "/rank", rank_body);
    assert_eq!(status, 200, "{sync_rank}");
    let aggregate_body = r#"{"method":"kemeny","votes":[[0,1,2],[0,1,2],[2,0,1]],"seed":3}"#;
    let (status, sync_aggregate) = http_post(addr, "/aggregate", aggregate_body);
    assert_eq!(status, 200, "{sync_aggregate}");
    let pipeline_body = r#"{"votes":[[0,1,2,3],[0,1,3,2],[1,0,2,3]],"groups":[0,0,1,1],"method":"borda","post":"mallows","theta":0.7,"samples":15,"tolerance":0.2,"seed":11}"#;
    let (status, sync_pipeline) = http_post(addr, "/pipeline", pipeline_body);
    assert_eq!(status, 200, "{sync_pipeline}");

    // one batch job covering all three routes
    let rank_chunk = format!(r#"{{"route":"rank",{}"#, &rank_body[1..]);
    let aggregate_chunk = format!(r#"{{"route":"aggregate",{}"#, &aggregate_body[1..]);
    let pipeline_chunk = format!(r#"{{"route":"pipeline",{}"#, &pipeline_body[1..]);
    let job_body = format!(r#"{{"chunks":[{rank_chunk},{aggregate_chunk},{pipeline_chunk}]}}"#);
    let (status, accepted) = http_post(addr, "/jobs", &job_body);
    assert_eq!(status, 202, "{accepted}");
    assert!(accepted.contains("\"chunks_total\":3"), "{accepted}");
    let id = json_number(&accepted, "id") as u64;

    let done = poll_job_until(addr, id, &["done", "failed", "cancelled"]);
    assert!(done.contains("\"status\":\"done\""), "{done}");
    assert!(done.contains("\"chunks_done\":3"), "{done}");
    // per-chunk results are byte-identical substrings of the status
    for sync in [&sync_rank, &sync_aggregate, &sync_pipeline] {
        assert!(
            done.contains(sync.as_str()),
            "job results must embed the sync body `{sync}`:\n{done}"
        );
    }

    // queue health surfaced in /stats
    let (status, stats) = http_get(addr, "/stats");
    assert_eq!(status, 200);
    assert_eq!(json_number(&stats, "jobs_completed"), 1.0, "{stats}");
    assert_eq!(json_number(&stats, "jobs_running"), 0.0, "{stats}");
    assert_eq!(json_number(&stats, "jobs_queued"), 0.0, "{stats}");
    assert!(
        json_number(&stats, "jobs_queue_high_water") >= 1.0,
        "{stats}"
    );
    server.shutdown();
}

#[test]
fn job_with_failing_chunk_reports_failure_and_keeps_prefix() {
    let server = start_server();
    let addr = server.addr();
    // chunk 0 succeeds; chunk 1 fails (gr-binary rejects 3 groups)
    let (status, accepted) = http_post(
        addr,
        "/jobs",
        r#"{"chunks":[
            {"algorithm":"weakly-fair","scores":[0.9,0.1],"groups":[0,1],"seed":1},
            {"algorithm":"gr-binary","scores":[1.0,0.5,0.2],"groups":[0,1,2],"seed":2},
            {"algorithm":"weakly-fair","scores":[0.9,0.1],"groups":[0,1],"seed":3}]}"#,
    );
    assert_eq!(status, 202, "{accepted}");
    let id = json_number(&accepted, "id") as u64;
    let done = poll_job_until(addr, id, &["done", "failed", "cancelled"]);
    assert!(done.contains("\"status\":\"failed\""), "{done}");
    assert!(done.contains("\"failed_chunk\":1"), "{done}");
    assert!(done.contains("\"chunks_done\":1"), "{done}");
    assert!(done.contains("algorithm failed"), "{done}");
    server.shutdown();
}

#[test]
fn job_cancellation_mid_run_stops_between_chunks() {
    use fairrank_engine::job::RankResult;
    use fairrank_engine::registry::{Algorithm, AlgorithmKind, Registry};
    use fairrank_engine::tables::ExecContext;

    /// A deliberately slow algorithm so the batch is mid-run when the
    /// DELETE lands.
    struct Sleepy;
    impl Algorithm for Sleepy {
        fn name(&self) -> &str {
            "sleepy"
        }
        fn kind(&self) -> AlgorithmKind {
            AlgorithmKind::PostProcessor
        }
        fn run(
            &self,
            job: &fairrank_engine::job::RankJob,
            _ctx: &ExecContext,
            _rng: &mut StdRng,
        ) -> Result<RankResult, fairrank_engine::EngineError> {
            std::thread::sleep(Duration::from_millis(20));
            Ok(RankResult {
                algorithm: job.algorithm.clone(),
                ranking: vec![0],
                consensus: None,
                metrics: vec![],
            })
        }
    }

    let mut registry = Registry::standard();
    registry.register(Arc::new(Sleepy));
    let engine = Engine::with_registry(EngineConfig::default(), registry);
    let server = Server::bind_with("127.0.0.1:0", engine, ServerConfig::default())
        .expect("binding an ephemeral port")
        .spawn()
        .expect("starting the server");
    let addr = server.addr();

    // 200 slow chunks with distinct seeds (no cache short-circuits)
    let chunks: Vec<String> = (0..200)
        .map(|i| format!(r#"{{"algorithm":"sleepy","scores":[1.0],"seed":{i}}}"#))
        .collect();
    let (status, accepted) = http_post(
        addr,
        "/jobs",
        &format!(r#"{{"chunks":[{}]}}"#, chunks.join(",")),
    );
    assert_eq!(status, 202, "{accepted}");
    let id = json_number(&accepted, "id") as u64;

    // wait until it is genuinely mid-run (some chunk finished)...
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = http_get(addr, &format!("/jobs/{id}"));
        if body.contains("\"status\":\"running\"") && json_number(&body, "chunks_done") >= 1.0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "{body}");
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...then cancel and watch it stop at a chunk boundary
    let (status, cancelled) = http_delete(addr, &format!("/jobs/{id}"));
    assert_eq!(status, 200, "{cancelled}");
    let done = poll_job_until(addr, id, &["done", "failed", "cancelled"]);
    assert!(done.contains("\"status\":\"cancelled\""), "{done}");
    let partial = json_number(&done, "chunks_done");
    assert!(
        (1.0..200.0).contains(&partial),
        "cancelled mid-run, finished {partial} of 200:\n{done}"
    );

    let (_, stats) = http_get(addr, "/stats");
    assert_eq!(json_number(&stats, "jobs_cancelled"), 1.0, "{stats}");
    server.shutdown();
}

#[test]
fn unknown_and_malformed_job_ids_are_404() {
    let server = start_server();
    let addr = server.addr();
    let (status, body) = http_get(addr, "/jobs/424242");
    assert_eq!(status, 404, "{body}");
    let (status, _) = http_delete(addr, "/jobs/424242");
    assert_eq!(status, 404);
    let (status, _) = http_get(addr, "/jobs/not-a-number");
    assert_eq!(status, 404);
    // DELETE on a non-jobs route is an unknown route, not a 405
    let (status, _) = http_delete(addr, "/rank");
    assert_eq!(status, 404);
    // malformed batch bodies are 400s
    let (status, _) = http_post(addr, "/jobs", r#"{"chunks":"nope"}"#);
    assert_eq!(status, 400);
    let (status, _) = http_post(addr, "/jobs", r#"{"chunks":[]}"#);
    assert_eq!(status, 400);
    let (status, body) = http_post(
        addr,
        "/jobs",
        r#"{"chunks":[{"route":"warp","algorithm":"weakly-fair","scores":[1.0]}]}"#,
    );
    assert_eq!(status, 400, "{body}");
    // unknown algorithm anywhere in the batch → 404, nothing queued
    let (status, _) = http_post(
        addr,
        "/jobs",
        r#"{"chunks":[{"algorithm":"psychic","scores":[1.0]}]}"#,
    );
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn metrics_endpoint_serves_valid_prometheus_text() {
    let server = start_server();
    let addr = server.addr();
    // traffic so the histograms and counters are non-trivial
    let (status, _) = http_post(
        addr,
        "/rank",
        r#"{"algorithm":"weakly-fair","scores":[0.9,0.1],"groups":[0,1],"seed":1}"#,
    );
    assert_eq!(status, 200);
    let (status, _) = http_post(addr, "/rank", "{nope");
    assert_eq!(status, 400);

    // raw request so the content-type header is visible
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let (head, body) = response.split_once("\r\n\r\n").expect("head/body split");
    assert!(
        head.contains("content-type: text/plain; version=0.0.4"),
        "{head}"
    );

    // the strict checker: HELP/TYPE lines, monotone cumulative
    // buckets, +Inf == _count for every histogram series
    fairrank_engine::stats::validate_prometheus_text(body).expect(body);
    for needle in [
        "# TYPE fairrank_http_requests_total counter",
        "# TYPE fairrank_http_request_duration_us histogram",
        "fairrank_http_request_duration_us_bucket{route=\"rank\",le=\"+Inf\"} 2",
        "fairrank_http_request_duration_us_count{route=\"rank\"} 2",
        "# TYPE fairrank_algorithm_duration_us histogram",
        "fairrank_algorithm_duration_us_count{algorithm=\"weakly-fair\"} 1",
        "fairrank_cache_misses_total 1",
        "fairrank_ready 1",
        "fairrank_workers 4",
    ] {
        assert!(body.contains(needle), "missing `{needle}` in:\n{body}");
    }
    server.shutdown();
}

#[test]
fn counters_above_2_pow_53_render_exactly_in_stats_and_metrics() {
    let (server, engine) = start_server_with(ServerConfig::default());
    let addr = server.addr();
    let big = (1u64 << 53) + 5; // 9007199254740997: unrepresentable as f64
    engine
        .stats()
        .queue_rejections
        .store(big, std::sync::atomic::Ordering::Relaxed);
    let (status, stats) = http_get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(
        stats.contains("\"queue_rejections\":9007199254740997"),
        "f64 would round to ...996: {stats}"
    );
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("fairrank_queue_rejections_total 9007199254740997\n"),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn surrogate_pair_json_round_trips_byte_exactly_through_rank() {
    let server = start_server();
    // the algorithm name carries an escaped astral-plane char; the 404
    // error echoes the *decoded* name, proving the surrogate pair was
    // decoded and re-emitted as raw UTF-8 — byte-exact round trip
    let (status, body) = http_post(
        server.addr(),
        "/rank",
        r#"{"algorithm":"go-\uD83D\uDE00-rank","scores":[1.0]}"#,
    );
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("go-😀-rank"), "{body}");
    // unpaired surrogates are a 400 with the parser's precise offset
    let (status, body) = http_post(
        server.addr(),
        "/rank",
        r#"{"algorithm":"\uD83D","scores":[1.0]}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unpaired high surrogate"), "{body}");
    server.shutdown();
}

#[test]
fn conflicting_duplicate_content_length_is_rejected() {
    let server = start_server();
    // conflicting values: ambiguous framing, must 400 + close
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(
            b"POST /rank HTTP/1.1\r\nhost: localhost\r\ncontent-length: 5\r\ncontent-length: 6\r\n\r\n{nope}",
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("conflicting duplicate"), "{response}");
    assert!(response.contains("connection: close"), "{response}");

    // identical duplicates are unambiguous and tolerated
    let body = r#"{"algorithm":"weakly-fair","scores":[0.9,0.1],"groups":[0,1]}"#;
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let request = format!(
        "POST /rank HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\ncontent-length: {len}\r\ncontent-length: {len}\r\n\r\n{body}",
        len = body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    server.shutdown();
}

#[test]
fn header_count_cap_rejects_header_bombs() {
    let server = start_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut request = String::from("GET /healthz HTTP/1.1\r\nhost: localhost\r\n");
    for i in 0..200 {
        use std::fmt::Write as _;
        let _ = write!(request, "x-pad-{i}: y\r\n");
    }
    request.push_str("\r\n");
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("headers"), "{response}");
    server.shutdown();
}

/// `Write` sink capturing access-log lines for inspection.
#[derive(Clone)]
struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn access_log_writes_one_json_line_per_request() {
    use fairrank_engine::server::AccessLog;
    let sink = SharedBuf(Arc::new(std::sync::Mutex::new(Vec::new())));
    let (server, _engine) = start_server_with(ServerConfig {
        access_log: Some(AccessLog::to_writer(Box::new(sink.clone()))),
        ..ServerConfig::default()
    });
    let addr = server.addr();

    let mut client = KeepAliveClient::connect(addr);
    let ok = client.request(
        "POST",
        "/rank",
        r#"{"algorithm":"weakly-fair","scores":[0.9,0.1],"groups":[0,1],"seed":3}"#,
        false,
    );
    assert_eq!(ok.status, 200);
    let bad = client.request("POST", "/nope", "{}", true);
    assert_eq!(bad.status, 404);
    server.shutdown();

    let raw = sink.0.lock().unwrap().clone();
    let text = String::from_utf8(raw).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    // every line is one structured JSON record
    for line in &lines {
        let record = fairrank_engine::json::Json::parse(line).unwrap_or_else(|e| {
            panic!("access-log line is not JSON ({e}): {line}");
        });
        for key in [
            "conn", "seq", "method", "path", "route", "status", "bytes", "us",
        ] {
            assert!(record.get(key).is_some(), "missing {key} in {line}");
        }
    }
    assert!(lines[0].contains("\"path\":\"/rank\""), "{}", lines[0]);
    assert!(lines[0].contains("\"route\":\"rank\""), "{}", lines[0]);
    assert!(lines[0].contains("\"status\":200"), "{}", lines[0]);
    assert!(lines[1].contains("\"status\":404"), "{}", lines[1]);
    assert!(lines[1].contains("\"seq\":2"), "{}", lines[1]);
    // both requests rode the same connection
    let conn = json_number(lines[0], "conn");
    assert_eq!(json_number(lines[1], "conn"), conn);
}

#[test]
fn graceful_drain_finishes_in_flight_work_and_sheds_new_connections() {
    use fairrank_engine::job::RankResult;
    use fairrank_engine::registry::{Algorithm, AlgorithmKind, Registry};
    use fairrank_engine::tables::ExecContext;
    use std::sync::mpsc::{channel, Sender};
    use std::sync::Mutex;

    /// Blocks mid-request until released, so the drain demonstrably
    /// begins while a request is in flight.
    struct Gated {
        release: Mutex<Option<std::sync::mpsc::Receiver<()>>>,
        started: Sender<()>,
    }
    impl Algorithm for Gated {
        fn name(&self) -> &str {
            "gated"
        }
        fn kind(&self) -> AlgorithmKind {
            AlgorithmKind::PostProcessor
        }
        fn run(
            &self,
            job: &fairrank_engine::job::RankJob,
            _ctx: &ExecContext,
            _rng: &mut StdRng,
        ) -> Result<RankResult, fairrank_engine::EngineError> {
            let _ = self.started.send(());
            if let Some(gate) = self.release.lock().unwrap().take() {
                let _ = gate.recv();
            }
            Ok(RankResult {
                algorithm: job.algorithm.clone(),
                ranking: vec![0],
                consensus: None,
                metrics: vec![],
            })
        }
    }

    let (release_tx, release_rx) = channel();
    let (started_tx, started_rx) = channel();
    let mut registry = Registry::standard();
    registry.register(Arc::new(Gated {
        release: Mutex::new(Some(release_rx)),
        started: started_tx,
    }));
    let engine = Engine::with_registry(EngineConfig::default(), registry);
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServerConfig {
            io_threads: 4,
            ..ServerConfig::default()
        },
    )
    .expect("binding an ephemeral port")
    .spawn()
    .expect("starting the server");
    let addr = server.addr();

    // readiness says ready pre-drain
    let mut ready_client = KeepAliveClient::connect(addr);
    let response = ready_client.request("GET", "/readyz", "", false);
    assert_eq!(response.status, 200);
    assert!(response.body.contains("\"ready\""), "{}", response.body);

    // an in-flight request: sent, executing, response not yet read
    let mut gated_client = KeepAliveClient::connect(addr);
    gated_client.send(
        "POST",
        "/rank",
        r#"{"algorithm":"gated","scores":[1.0],"seed":1}"#,
        false,
    );
    started_rx.recv_timeout(Duration::from_secs(10)).unwrap();

    server.begin_drain();

    // new connections are shed with an explicit 503 "draining" (poll:
    // the accept loop needs a moment to observe the stop flag)
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut probe = TcpStream::connect(addr).expect("listener still bound during drain");
        let mut response = String::new();
        let _ = probe.read_to_string(&mut response);
        if response.starts_with("HTTP/1.1 503") && response.contains("draining") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "drain shedding never engaged; last response: {response:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // an established keep-alive connection still gets its request
    // served — readiness now 503 — and is then closed
    let response = ready_client.request("GET", "/readyz", "", false);
    assert_eq!(response.status, 503);
    assert!(response.body.contains("draining"), "{}", response.body);
    assert!(
        response.head.contains("connection: close"),
        "{}",
        response.head
    );
    assert!(ready_client.server_closed());

    // the in-flight request completes (zero dropped requests) and the
    // connection closes afterwards
    release_tx.send(()).unwrap();
    let response = gated_client.read_response();
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(response.body.contains("\"gated\""), "{}", response.body);
    assert!(
        response.head.contains("connection: close"),
        "{}",
        response.head
    );
    assert!(gated_client.server_closed());

    server.shutdown();
    // post-drain the engine reports not-ready
    assert!(engine.is_draining());
}

#[test]
fn hammer_stats_counters_add_up() {
    let server = start_server();
    let addr = server.addr();
    const THREADS: usize = 4;
    const REQUESTS: usize = 40;

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = KeepAliveClient::connect(addr);
                for i in 0..REQUESTS {
                    // every 5th request is malformed (400); the rest
                    // are unique good jobs (each a cache miss)
                    if i % 5 == 4 {
                        let response = client.request("POST", "/rank", "{nope", false);
                        assert_eq!(response.status, 400);
                    } else {
                        let body = format!(
                            r#"{{"algorithm":"weakly-fair","scores":[0.9,0.1],"groups":[0,1],"seed":{}}}"#,
                            t * REQUESTS + i
                        );
                        let response = client.request("POST", "/rank", &body, false);
                        assert_eq!(response.status, 200, "{}", response.body);
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let (status, stats) = http_get(addr, "/stats");
    assert_eq!(status, 200);
    let bad = THREADS * (REQUESTS / 5);
    let good = THREADS * REQUESTS - bad;
    // + 1: the /stats request itself is counted before it is served
    assert_eq!(
        json_number(&stats, "http_requests"),
        (THREADS * REQUESTS + 1) as f64,
        "{stats}"
    );
    assert_eq!(json_number(&stats, "http_errors"), bad as f64, "{stats}");
    // every good job is unique → all misses, none coalesced or cached
    assert_eq!(json_number(&stats, "cache_misses"), good as f64, "{stats}");
    assert_eq!(json_number(&stats, "cache_hits"), 0.0, "{stats}");
    assert_eq!(
        json_number(&stats, "chunks_executed") + json_number(&stats, "chunks_failed"),
        good as f64,
        "{stats}"
    );
    // 4 hammer connections + this stats connection (the shutdown kick
    // may or may not land before the snapshot, so allow it)
    let connections = json_number(&stats, "connections");
    assert!(
        connections >= (THREADS + 1) as f64,
        "connections = {connections}: {stats}"
    );
    assert_eq!(json_number(&stats, "rejected_connections"), 0.0, "{stats}");
    // latency quantiles are live once requests have been served
    assert!(json_number(&stats, "latency_p99_us") >= json_number(&stats, "latency_p50_us"));
    assert!(json_number(&stats, "latency_p50_us") > 0.0, "{stats}");
    server.shutdown();
}
