//! HTTP serving-path throughput of the keep-alive I/O reactor.
//!
//! N client threads issue small `/rank` bodies, each client holding one
//! keep-alive connection for its whole batch.
//!
//! The request body is identical across requests, so after the first
//! execution every response is a result-cache hit and the measurement
//! isolates the HTTP layer — which is the layer this bench guards
//! (the reactor's warm path is allocation-free; see
//! `crates/engine/tests/alloc_audit.rs` for the counting-allocator
//! proof and `engine_throughput.rs` for the compute path).
//!
//! Not a criterion bench on purpose: it prints one JSON summary line
//! per mode so the perf trajectory can be tracked across PRs:
//!
//! ```text
//! {"bench":"http_throughput","mode":"reactor_keepalive",...,"req_per_s":NNNN}
//! ```
//!
//! Pass `--smoke` (CI does) for a 1-iteration-sized run that only
//! checks the harness completes.
//!
//! Pass `--router` for the cluster-scaling mode instead: the same
//! traffic is pushed through a `fairrank_router` front over 1, 2 and
//! 4 in-process backends (`--smoke --router` runs 2 backends only).
//! There the backends run a fixed-service-time algorithm with one
//! worker each and every request carries a fresh seed, so throughput
//! is bound by backend service capacity — the quantity sharding
//! actually multiplies — rather than by raw HTTP parsing on this
//! machine's core count.

use fairrank_engine::job::{RankJob, RankResult};
use fairrank_engine::registry::{Algorithm, AlgorithmKind, Registry};
use fairrank_engine::server::{Server, ServerConfig, ServerHandle};
use fairrank_engine::tables::ExecContext;
use fairrank_engine::{Engine, EngineConfig};
use fairrank_router::server::RouterServer;
use fairrank_router::{RouterConfig, RouterCore};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Small, fixed `/rank` body (result-cache hit after the first run).
const BODY: &str = r#"{"algorithm":"weakly-fair","scores":[0.9,0.8,0.4,0.3],"groups":[0,0,1,1],"tolerance":0.2,"seed":7}"#;

const CLIENT_THREADS: usize = 8;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if std::env::args().any(|a| a == "--router") {
        run_router_scaling(smoke);
        return;
    }
    let per_thread = if smoke { 25 } else { 1000 };

    let reactor = run_reactor(per_thread);
    if !smoke {
        // full-scale runs can feed the committed perf trajectory
        // (no-op unless FAIRRANK_BENCH_RECORD=1)
        bench::summary::record("http_throughput", &[("req_per_s_reactor", reactor)]);
    }
}

fn run_reactor(per_thread: usize) -> f64 {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        queue_capacity: 1024,
        cache_capacity: 1024,
        table_cache_capacity: 16,
        cache_shards: 0,
        ..EngineConfig::default()
    });
    let server = Server::bind("127.0.0.1:0", engine)
        .expect("binding an ephemeral port")
        .spawn()
        .expect("starting the server");
    let addr = server.addr();

    // warm: populate the result cache and any lazy state
    keep_alive_batch(addr, 1);

    let start = Instant::now();
    let handles: Vec<_> = (0..CLIENT_THREADS)
        .map(|_| std::thread::spawn(move || keep_alive_batch(addr, per_thread)))
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let elapsed = start.elapsed();
    server.shutdown();

    let total = CLIENT_THREADS * per_thread;
    let req_per_s = total as f64 / elapsed.as_secs_f64();
    println!(
        "{{\"bench\":\"http_throughput\",\"mode\":\"reactor_keepalive\",\"threads\":{CLIENT_THREADS},\"requests\":{total},\"elapsed_ms\":{:.1},\"req_per_s\":{req_per_s:.0}}}",
        elapsed.as_secs_f64() * 1e3
    );
    req_per_s
}

/// `count` sequential requests over one keep-alive connection.
fn keep_alive_batch(addr: SocketAddr, count: usize) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = format!(
        "POST /rank HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{BODY}",
        BODY.len()
    );
    let mut buf: Vec<u8> = Vec::new();
    for _ in 0..count {
        stream.write_all(request.as_bytes()).expect("write request");
        read_one_response(&mut stream, &mut buf);
    }
}

/// Read exactly one `content-length`-framed response from the stream.
/// Deliberately independent of `fairrank_engine::http`, like the test
/// clients in `tests/engine_http.rs`.
fn read_one_response(stream: &mut TcpStream, buf: &mut Vec<u8>) {
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    assert_status_200(&buf[..head_end]);
    let head = std::str::from_utf8(&buf[..head_end]).expect("utf-8 head");
    let content_length: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .expect("content-length header");
    while buf.len() < head_end + content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    buf.drain(..head_end + content_length);
}

fn assert_status_200(response: &[u8]) {
    assert!(
        response.starts_with(b"HTTP/1.1 200"),
        "unexpected response: {}",
        String::from_utf8_lossy(&response[..response.len().min(200)])
    );
}

// ---- cluster-scaling mode (`--router`) ----

/// Fixed per-request service time of the bench backends. Long enough
/// that queue wait dominates every other cost (HTTP parse, routing,
/// hashing are all microseconds), so observed throughput is
/// `backends × workers / SERVICE_TIME` — the quantity the router's
/// sharding is supposed to multiply.
const SERVICE_TIME: Duration = Duration::from_micros(1500);

const ROUTER_CLIENT_THREADS: usize = 16;

/// A deterministic stand-in algorithm that costs [`SERVICE_TIME`] of
/// wall clock instead of CPU: scaling stays measurable on the small
/// CI-sized machines this bench also runs on, where compute-bound
/// backends would all contend for the same cores.
struct FixedServiceTime;

impl Algorithm for FixedServiceTime {
    fn name(&self) -> &str {
        "bench-sleep"
    }
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::PostProcessor
    }
    fn run(
        &self,
        job: &RankJob,
        _ctx: &ExecContext,
        _rng: &mut rand::rngs::StdRng,
    ) -> Result<RankResult, fairrank_engine::EngineError> {
        std::thread::sleep(SERVICE_TIME);
        Ok(RankResult {
            algorithm: job.algorithm.clone(),
            ranking: vec![0],
            consensus: None,
            metrics: vec![],
        })
    }
}

fn spawn_sleep_backend() -> ServerHandle {
    let mut registry = Registry::standard();
    registry.register(Arc::new(FixedServiceTime));
    let engine = Engine::with_registry(
        EngineConfig {
            workers: 1,
            queue_capacity: 1024,
            cache_capacity: 1024,
            table_cache_capacity: 16,
            cache_shards: 0,
            ..EngineConfig::default()
        },
        registry,
    );
    Server::bind_with(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            // every pooled router connection pins one reactor I/O
            // worker for its lifetime; 16 clients need real headroom
            io_threads: 24,
            ..ServerConfig::default()
        },
    )
    .expect("binding a backend port")
    .spawn()
    .expect("starting the backend")
}

fn run_router_scaling(smoke: bool) {
    let per_thread = if smoke { 10 } else { 250 };
    let backend_counts: &[usize] = if smoke { &[2] } else { &[1, 2, 4] };
    let mut rates = Vec::new();
    for &count in backend_counts {
        rates.push((count, run_router_mode(count, per_thread)));
    }
    if smoke {
        return;
    }
    let base = rates[0].1;
    let scaling: Vec<(String, f64)> = rates
        .iter()
        .skip(1)
        .map(|&(count, rate)| (format!("scaling_{count}"), rate / base))
        .collect();
    for (key, value) in &scaling {
        println!(
            "{{\"bench\":\"http_throughput\",\"mode\":\"router_summary\",\"{key}\":{value:.2}}}"
        );
    }
    let mut metrics: Vec<(&str, f64)> = Vec::new();
    let rate_keys: Vec<String> = rates
        .iter()
        .map(|(count, _)| format!("router_req_per_s_{count}"))
        .collect();
    for (key, &(_, rate)) in rate_keys.iter().zip(&rates) {
        metrics.push((key.as_str(), rate));
    }
    for (key, value) in &scaling {
        metrics.push((key.as_str(), *value));
    }
    bench::summary::record("http_throughput", &metrics);
}

/// One router over `count` fixed-service-time backends, hammered by
/// [`ROUTER_CLIENT_THREADS`] keep-alive clients with all-distinct
/// seeds (every request misses the result cache and pays the full
/// service time).
fn run_router_mode(count: usize, per_thread: usize) -> f64 {
    let backends: Vec<ServerHandle> = (0..count).map(|_| spawn_sleep_backend()).collect();
    let core = RouterCore::new(RouterConfig {
        backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        probe_interval: Duration::from_millis(100),
        hedge_after: None,
        request_timeout: Duration::from_secs(30),
    });
    let router = RouterServer::bind("127.0.0.1:0", core)
        .expect("binding the router port")
        .spawn()
        .expect("starting the router");
    let addr = router.addr();
    wait_for_ready(addr, count);

    let start = Instant::now();
    let handles: Vec<_> = (0..ROUTER_CLIENT_THREADS)
        .map(|thread| {
            std::thread::spawn(move || {
                let seed_base = 1 + (thread * per_thread) as u64;
                seeded_keep_alive_batch(addr, per_thread, seed_base);
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let elapsed = start.elapsed();
    router.shutdown();
    for backend in backends {
        backend.shutdown();
    }

    let total = ROUTER_CLIENT_THREADS * per_thread;
    let req_per_s = total as f64 / elapsed.as_secs_f64();
    println!(
        "{{\"bench\":\"http_throughput\",\"mode\":\"router\",\"backends\":{count},\"threads\":{ROUTER_CLIENT_THREADS},\"requests\":{total},\"elapsed_ms\":{:.1},\"req_per_s\":{req_per_s:.0}}}",
        elapsed.as_secs_f64() * 1e3
    );
    req_per_s
}

fn wait_for_ready(addr: SocketAddr, count: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut stream = TcpStream::connect(addr).expect("connect to router");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n")
            .expect("write probe");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("read probe");
        let text = String::from_utf8_lossy(&response);
        if text.contains(&format!("\"backends_ready\":{count}")) {
            return;
        }
        assert!(Instant::now() < deadline, "backends never joined: {text}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `count` sequential requests over one keep-alive connection, each
/// with a distinct seed so no two requests share a cache entry.
fn seeded_keep_alive_batch(addr: SocketAddr, count: usize, seed_base: u64) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut buf: Vec<u8> = Vec::new();
    for offset in 0..count {
        let body = format!(
            r#"{{"algorithm":"bench-sleep","scores":[0.9,0.8,0.4,0.3],"groups":[0,0,1,1],"seed":{}}}"#,
            seed_base + offset as u64
        );
        let request = format!(
            "POST /rank HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).expect("write request");
        read_one_response(&mut stream, &mut buf);
    }
}
