//! In-process router ↔ engine integration: transparency
//! (byte-identical bodies, joined traces), empty-ring 503s, shed
//! retries, hedging, aggregated metrics and drain-driven job
//! resubmission — all over real sockets, no process spawning (the
//! real-binary fault-injection harness lives in
//! `crates/cli/tests/router_cluster.rs`).

use fairrank_engine::server::{Server, ServerConfig, ServerHandle};
use fairrank_engine::{Engine, EngineConfig};
use fairrank_router::server::{RouterHandle, RouterServer};
use fairrank_router::{RouterConfig, RouterCore};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One real engine backend on an ephemeral port. `io_threads` is set
/// explicitly (the auto default is one per CPU — a single thread on a
/// small CI box), because the router's pooled keep-alive connections
/// plus its probes hold backend I/O workers for as long as they live.
fn spawn_backend() -> ServerHandle {
    spawn_backend_with(Engine::new(test_engine_config()))
}

fn test_engine_config() -> EngineConfig {
    EngineConfig {
        workers: 2,
        queue_capacity: 256,
        cache_capacity: 256,
        table_cache_capacity: 16,
        cache_shards: 0,
        ..EngineConfig::default()
    }
}

fn spawn_backend_with(engine: Arc<Engine>) -> ServerHandle {
    Server::bind_with(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            io_threads: 8,
            ..ServerConfig::default()
        },
    )
    .expect("binding an ephemeral backend port")
    .spawn()
    .expect("starting the backend")
}

fn spawn_router(backends: Vec<String>, probe_ms: u64, hedge_after_us: u64) -> RouterHandle {
    let core = RouterCore::new(RouterConfig {
        backends,
        probe_interval: Duration::from_millis(probe_ms),
        hedge_after: (hedge_after_us > 0).then(|| Duration::from_micros(hedge_after_us)),
        request_timeout: Duration::from_secs(10),
    });
    RouterServer::bind("127.0.0.1:0", core)
        .expect("binding an ephemeral router port")
        .spawn()
        .expect("starting the router")
}

/// One-shot request; returns `(status, head, body)`.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let text = String::from_utf8_lossy(&response).to_string();
    let status: u16 = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {text}"));
    let head_end = text.find("\r\n\r\n").expect("head end") + 4;
    (
        status,
        text[..head_end].to_string(),
        text[head_end..].to_string(),
    )
}

fn header<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

/// Poll the router until all `count` backends joined the ring.
fn wait_ready(router: SocketAddr, count: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, _, body) = http(router, "GET", "/healthz", "");
        if body.contains(&format!("\"backends_ready\":{count}")) {
            return;
        }
        assert!(Instant::now() < deadline, "backends never joined: {body}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn rank_body(seed: u64) -> String {
    format!(
        r#"{{"algorithm":"weakly-fair","scores":[0.9,0.8,0.4,0.3],"groups":[0,0,1,1],"tolerance":0.2,"seed":{seed}}}"#
    )
}

#[test]
fn router_is_transparent_and_joins_traces() {
    let backend_a = spawn_backend();
    let backend_b = spawn_backend();
    let router = spawn_router(
        vec![backend_a.addr().to_string(), backend_b.addr().to_string()],
        30,
        0,
    );
    wait_ready(router.addr(), 2);

    for seed in 0..6u64 {
        let body = rank_body(seed);
        let (status, head, routed) = http(router.addr(), "POST", "/rank", &body);
        assert_eq!(status, 200, "{routed}");
        assert!(header(&head, "x-trace-id").is_some(), "{head}");
        assert!(header(&head, "x-backend-trace-id").is_some(), "{head}");
        let owner: SocketAddr = header(&head, "x-backend")
            .expect("x-backend")
            .parse()
            .unwrap();

        // the same request sent straight to the owning backend must be
        // byte-identical, and the backend traces its own hop too
        let (direct_status, direct_head, direct) = http(owner, "POST", "/rank", &body);
        assert_eq!(direct_status, 200);
        assert!(
            header(&direct_head, "x-trace-id").is_some(),
            "{direct_head}"
        );
        assert_eq!(routed, direct, "routed and direct bodies must match");
    }

    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[test]
fn empty_ring_is_a_well_formed_503_at_startup() {
    // a port that refuses connections: bind, read the port, drop
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let router = spawn_router(vec![dead_addr], 30, 0);
    std::thread::sleep(Duration::from_millis(100));

    let (status, _, body) = http(router.addr(), "GET", "/readyz", "");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("unready"), "{body}");
    for (method, path) in [
        ("POST", "/rank"),
        ("POST", "/aggregate"),
        ("POST", "/pipeline"),
        ("POST", "/jobs"),
    ] {
        let (status, _, body) = http(router.addr(), method, path, &rank_body(1));
        assert_eq!(status, 503, "{method} {path}: {body}");
        assert_eq!(body, "{\"error\":\"no backends ready\"}", "{method} {path}");
    }
    // unknown job ids are a local 404, not a hang
    let (status, _, body) = http(router.addr(), "GET", "/jobs/1", "");
    assert_eq!(status, 404, "{body}");

    router.shutdown();
}

#[test]
fn total_backend_loss_degrades_to_503_not_a_hang() {
    let backend = spawn_backend();
    let router = spawn_router(vec![backend.addr().to_string()], 30, 0);
    wait_ready(router.addr(), 1);
    let (status, _, _) = http(router.addr(), "POST", "/rank", &rank_body(3));
    assert_eq!(status, 200);

    backend.shutdown();
    // the first forward after the loss hits a connection error, which
    // evicts the backend on the spot — no probe round needed
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _, body) = http(router.addr(), "POST", "/rank", &rank_body(4));
        if status == 503 {
            assert_eq!(body, "{\"error\":\"no backends ready\"}");
            break;
        }
        assert!(Instant::now() < deadline, "router kept answering {status}");
        std::thread::sleep(Duration::from_millis(10));
    }
    router.shutdown();
}

/// A hand-rolled backend for shapes the engine won't produce on demand:
/// always-shedding (503 + Retry-After), very slow, or answering with a
/// body of the given length.
fn spawn_fake_backend(behavior: FakeBehavior) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            std::thread::spawn(move || serve_fake(stream, behavior));
        }
    });
    addr
}

#[derive(Clone, Copy)]
enum FakeBehavior {
    AlwaysShed,
    Slow(Duration),
    Huge(usize),
}

fn serve_fake(mut stream: TcpStream, behavior: FakeBehavior) {
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let mut buf = Vec::new();
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let content_length: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    while buf.len() < head_end + content_length {
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    let response = if head.starts_with("GET /readyz") {
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 20\r\nconnection: close\r\n\r\n{\"status\":\"ready\"}  ".to_string()
    } else {
        match behavior {
            FakeBehavior::AlwaysShed => {
                "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\nretry-after: 1\r\ncontent-length: 20\r\nconnection: close\r\n\r\n{\"error\":\"shedding\"}".to_string()
            }
            FakeBehavior::Slow(delay) => {
                std::thread::sleep(delay);
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 11\r\nconnection: close\r\n\r\n{\"ok\":true}".to_string()
            }
            FakeBehavior::Huge(len) => format!(
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {len}\r\nconnection: close\r\n\r\n"
            ),
        }
    };
    let _ = stream.write_all(response.as_bytes());
    if let (FakeBehavior::Huge(len), false) = (behavior, head.starts_with("GET /readyz")) {
        let _ = stream.write_all(&huge_body(len));
    }
}

/// `len` bytes of `0,1,2,…,9,0,…`.
fn huge_body(len: usize) -> Vec<u8> {
    (0..len).map(|i| b"0,1,2,3,4,5,6,7,8,9,"[i % 20]).collect()
}

/// Read a `fairrank_router_*` counter out of the router's /metrics.
fn router_counter(router: SocketAddr, name: &str) -> u64 {
    let (_, _, text) = http(router, "GET", "/metrics", "");
    text.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from scrape:\n{text}"))
}

#[test]
fn shed_503s_are_retried_on_the_next_owner() {
    let shedding = spawn_fake_backend(FakeBehavior::AlwaysShed);
    let backend = spawn_backend();
    let router = spawn_router(
        vec![shedding.to_string(), backend.addr().to_string()],
        30,
        0,
    );
    wait_ready(router.addr(), 2);

    for seed in 100..112u64 {
        let (status, head, body) = http(router.addr(), "POST", "/rank", &rank_body(seed));
        assert_eq!(status, 200, "{body}");
        // the shedding owner is always walked past to the real one
        assert_eq!(
            header(&head, "x-backend"),
            Some(backend.addr().to_string().as_str()),
            "{head}"
        );
    }
    assert!(
        router_counter(router.addr(), "fairrank_router_retries_total") >= 1,
        "some keys must have been owned by the shedding backend first"
    );

    router.shutdown();
    backend.shutdown();
}

#[test]
fn responses_larger_than_the_request_body_cap_are_forwarded() {
    // the 16 MiB cap bounds request bodies only: a well-formed answer
    // may be larger than its request, and must neither fail nor evict
    // the backend that sent it
    let len = fairrank_engine::http::MAX_BODY + 4096;
    let backend = spawn_fake_backend(FakeBehavior::Huge(len));
    let router = spawn_router(vec![backend.to_string()], 30, 0);
    wait_ready(router.addr(), 1);

    for seed in 300..302u64 {
        let (status, head, body) = http(router.addr(), "POST", "/rank", &rank_body(seed));
        assert_eq!(status, 200, "{head}");
        assert_eq!(
            header(&head, "content-length"),
            Some(len.to_string().as_str())
        );
        assert!(body.as_bytes() == huge_body(len).as_slice(), "body differs");
    }
    let (_, _, health) = http(router.addr(), "GET", "/healthz", "");
    assert!(health.contains("\"backends_ready\":1"), "{health}");
    assert_eq!(
        router_counter(router.addr(), "fairrank_router_retries_total"),
        0
    );

    router.shutdown();
}

#[test]
fn hedging_rescues_requests_stuck_on_a_slow_backend() {
    let slow = spawn_fake_backend(FakeBehavior::Slow(Duration::from_millis(600)));
    let backend = spawn_backend();
    let router = spawn_router(
        vec![slow.to_string(), backend.addr().to_string()],
        30,
        25_000, // hedge after 25 ms
    );
    wait_ready(router.addr(), 2);

    let started = Instant::now();
    for seed in 200..216u64 {
        let (status, _, body) = http(router.addr(), "POST", "/rank", &rank_body(seed));
        assert_eq!(status, 200, "{body}");
    }
    let elapsed = started.elapsed();
    assert!(
        router_counter(router.addr(), "fairrank_router_hedges_total") >= 1,
        "some of 16 random keys must have been owned by the slow backend"
    );
    // un-hedged, the ~8 slow-owned requests would block 600 ms each
    // (~5 s total); hedging caps each near the 25 ms trigger
    assert!(
        elapsed < Duration::from_secs(4),
        "hedging should have rescued the slow keys ({elapsed:?})"
    );

    router.shutdown();
    backend.shutdown();
}

#[test]
fn cluster_metrics_aggregate_and_stay_valid() {
    let backend_a = spawn_backend();
    let backend_b = spawn_backend();
    let router = spawn_router(
        vec![backend_a.addr().to_string(), backend_b.addr().to_string()],
        30,
        0,
    );
    wait_ready(router.addr(), 2);
    for seed in 300..308u64 {
        let (status, _, _) = http(router.addr(), "POST", "/rank", &rank_body(seed));
        assert_eq!(status, 200);
    }

    let (status, head, text) = http(router.addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        header(&head, "content-type").is_some_and(|ct| ct.starts_with("text/plain")),
        "{head}"
    );
    fairrank_engine::stats::validate_prometheus_text(&text)
        .unwrap_or_else(|e| panic!("aggregated scrape invalid: {e}\n{text}"));
    // router-own families and per-backend labels
    assert!(text.contains("fairrank_router_requests_total "), "{text}");
    assert!(text.contains("fairrank_router_backend_requests_total{backend=\""));
    assert!(text.contains("fairrank_router_backends_ready 2"), "{text}");
    // the engine's request counter summed across both scrapes must
    // cover at least the traffic we just sent through the router
    let served: f64 = text
        .lines()
        .filter_map(|line| line.strip_prefix("fairrank_http_requests_total "))
        .filter_map(|value| value.trim().parse::<f64>().ok())
        .sum();
    assert!(served >= 8.0, "summed request total too low:\n{text}");

    router.shutdown();
    backend_a.shutdown();
    backend_b.shutdown();
}

#[test]
fn draining_backend_jobs_are_resubmitted_and_finish() {
    use fairrank_engine::job::{RankJob, RankResult};
    use fairrank_engine::registry::{Algorithm, AlgorithmKind, Registry};
    use fairrank_engine::tables::ExecContext;
    use rand::rngs::StdRng;
    use std::sync::{Condvar, Mutex};

    /// Holds every sleepy chunk until the test opens it, so the drain
    /// always lands while the drained backend's batches are unfinished.
    #[derive(Default)]
    struct Gate {
        open: Mutex<bool>,
        opened: Condvar,
    }

    struct Sleepy(Arc<Gate>);
    impl Algorithm for Sleepy {
        fn name(&self) -> &str {
            "sleepy"
        }
        fn kind(&self) -> AlgorithmKind {
            AlgorithmKind::PostProcessor
        }
        fn run(
            &self,
            job: &RankJob,
            _ctx: &ExecContext,
            _rng: &mut StdRng,
        ) -> Result<RankResult, fairrank_engine::EngineError> {
            let mut open = self.0.open.lock().unwrap();
            while !*open {
                open = self.0.opened.wait(open).unwrap();
            }
            Ok(RankResult {
                algorithm: job.algorithm.clone(),
                ranking: vec![0],
                consensus: None,
                metrics: vec![],
            })
        }
    }

    fn sleepy_backend(gate: &Arc<Gate>) -> ServerHandle {
        let mut registry = Registry::standard();
        registry.register(Arc::new(Sleepy(Arc::clone(gate))));
        spawn_backend_with(Engine::with_registry(test_engine_config(), registry))
    }

    let gate = Arc::new(Gate::default());
    let backend_a = sleepy_backend(&gate);
    let backend_b = sleepy_backend(&gate);
    let addr_a = backend_a.addr().to_string();
    let router = spawn_router(vec![addr_a.clone(), backend_b.addr().to_string()], 20, 0);
    wait_ready(router.addr(), 2);

    // at least ten 20-chunk jobs, and more until the drained backend
    // owns more of them than its batch runners can hold: with the gate
    // shut, one of its jobs is then certainly still queued at the drain
    let runners = test_engine_config().job_runners;
    let mut job_ids = Vec::new();
    let mut owned_by_a = 0;
    let mut job = 0u64;
    while job < 10 || owned_by_a <= runners {
        assert!(job < 200, "backend A never owned {} jobs", runners + 1);
        let chunks: Vec<String> = (0..20)
            .map(|i| {
                format!(
                    r#"{{"algorithm":"sleepy","scores":[1.0],"seed":{}}}"#,
                    job * 1000 + i
                )
            })
            .collect();
        let body = format!(r#"{{"chunks":[{}]}}"#, chunks.join(","));
        let (status, head, response) = http(router.addr(), "POST", "/jobs", &body);
        assert_eq!(status, 202, "{response}");
        let backend = header(&head, "x-backend").unwrap_or_else(|| panic!("{head}"));
        owned_by_a += usize::from(backend == addr_a);
        let id: u64 = response
            .strip_prefix("{\"id\":")
            .and_then(|rest| rest.split(',').next()?.parse().ok())
            .unwrap_or_else(|| panic!("bad submit response: {response}"));
        job_ids.push(id);
        job += 1;
    }
    let (status, _, ready) = http(backend_a.addr(), "GET", "/readyz", "");
    assert_eq!(status, 200, "{ready}");
    assert!(
        !ready.contains("\"jobs_queued\":0"),
        "a job must be queued on the drained backend: {ready}"
    );

    // drain one backend mid-batch: its queued jobs are cancelled now,
    // its running ones finish once the gate opens (the shutdown blocks
    // until then, so it runs on its own thread)
    backend_a.begin_drain();
    *gate.open.lock().unwrap() = true;
    gate.opened.notify_all();
    let drainer = std::thread::spawn(move || backend_a.shutdown());

    // every poll must answer 200 and every job must reach done —
    // jobs stranded on the draining backend get resubmitted
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut done = vec![false; job_ids.len()];
    while !done.iter().all(|d| *d) {
        assert!(Instant::now() < deadline, "jobs never finished: {done:?}");
        for (index, id) in job_ids.iter().enumerate() {
            if done[index] {
                continue;
            }
            let (status, _, body) = http(router.addr(), "GET", &format!("/jobs/{id}"), "");
            assert_eq!(status, 200, "poll failed during drain: {body}");
            assert!(
                !body.contains("\"status\":\"failed\"")
                    && !body.contains("\"status\":\"cancelled\""),
                "job {id} was lost: {body}"
            );
            if body.contains("\"status\":\"done\"") {
                assert!(body.contains("\"chunks_done\":20"), "{body}");
                done[index] = true;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    drainer.join().unwrap();

    assert!(
        router_counter(router.addr(), "fairrank_router_resubmissions_total") >= 1,
        "the drained backend owned jobs that must have been re-placed"
    );

    router.shutdown();
    backend_b.shutdown();
}
