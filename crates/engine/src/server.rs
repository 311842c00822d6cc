//! HTTP/1.1 JSON API over `std::net::TcpListener` — no async runtime.
//!
//! Routes:
//!
//! | route               | body                                           |
//! |---------------------|------------------------------------------------|
//! | `POST /rank`        | `{"algorithm","scores",["groups"],…params}`    |
//! | `POST /aggregate`   | `{"method","votes",["groups"],…params}`        |
//! | `POST /pipeline`    | `{"votes","groups",["method","post"],…params}` |
//! | `POST /jobs`        | `{"chunks":[{["route"],…chunk body},…]}`       |
//! | `GET /jobs/{id}`    | — (status + per-chunk results when finished)   |
//! | `DELETE /jobs/{id}` | — (cooperative cancellation)                   |
//! | `GET /healthz`      | — (liveness; 200 even while draining)          |
//! | `GET /readyz`       | — (readiness; 503 once draining)               |
//! | `GET /stats`        | — (JSON counters)                              |
//! | `GET /metrics`      | — (Prometheus text exposition format)          |
//! | `GET /debug/traces` | — (flight recorder; `?route=`, `?algorithm=`)  |
//!
//! Every parsed request is assigned a trace ID (echoed in the
//! `x-trace-id` response header and the access log's `trace` field)
//! and its span breakdown — parse, cache lookup, queue wait, run,
//! serialize, write — is recorded into the engine's
//! [`FlightRecorder`](crate::trace::FlightRecorder), which
//! `GET /debug/traces` serves as JSON.
//!
//! Shared params: `theta`, `samples`, `criterion` (`ndcg`,
//! `infeasible` or `kendall`), `tolerance`, `noise_sd`, `k`, `seed`,
//! `protected`, `proportion`, `alpha` — the `fairrank` CLI's flags
//! under the same names and defaults (except `samples`, which
//! `fairrank rank` defaults to 1).
//!
//! Error mapping: malformed request → `400`, unknown algorithm or job
//! id → `404`, algorithm failure → `422`, full job queue or job store
//! → `503`, full pending-connection queue → `503` with `Retry-After`
//! before the socket is dropped. `POST /jobs` answers `202 Accepted`
//! with the job id to poll.
//!
//! # Concurrency model: a keep-alive I/O reactor
//!
//! The accept loop pushes accepted sockets onto a bounded channel
//! drained by a fixed pool of I/O worker threads
//! ([`ServerConfig::io_threads`], default one per CPU). Each worker
//! owns a connection for its whole lifetime and serves **sequential
//! HTTP/1.1 keep-alive requests** on it — honoring `Connection: close`,
//! an idle read timeout, and a max-requests-per-connection cap — so a
//! client issuing many small requests pays for one TCP handshake and
//! zero thread spawns. Jobs still funnel into the engine's bounded
//! worker pool, which is where admission control happens.
//!
//! Each I/O worker owns a [`ConnScratch`]: a reusable
//! [`RequestReader`], JSON arena and response buffers. Framing (head
//! parse, size caps, response framer) is the shared
//! [`crate::http`] codec. After warm-up, a request performs
//! **zero heap allocations in the HTTP layer** (head parse, JSON parse
//! via [`JsonArena`], response serialization via
//! [`RankResult::write_json`](crate::job::RankResult::write_json) and
//! [`http::write_response`]); only the
//! job layer (the owned `RankJob` handed to the engine) still
//! allocates. `crates/engine/tests/alloc_audit.rs` pins this with a
//! counting global allocator.

use crate::http::{self, write_error, Frame, Incoming, RequestReader};
use crate::job::{JobInput, JobParams, RankJob};
use crate::json::{Json, JsonArena, ValueRef};
use crate::registry::AlgorithmKind;
use crate::stats::{EngineStats, JobOrigin, RouteClass};
use crate::trace::{SpanRecorder, Trace, TraceHandle, TraceStr};
use crate::{duration_us, Engine, EngineError};
use std::fmt::Write as _;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-layer knobs (engine sizing lives in
/// [`EngineConfig`](crate::EngineConfig)).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// I/O worker threads owning connections (0 = one per CPU).
    pub io_threads: usize,
    /// Keep-alive cap: a connection is closed after serving this many
    /// requests (minimum 1).
    pub max_requests_per_conn: usize,
    /// Idle read timeout: a keep-alive connection with no next request
    /// within this window is closed.
    pub idle_timeout: Duration,
    /// Bounded accept → worker queue; connections beyond it are shed
    /// with `503` + `Retry-After`.
    pub pending_connections: usize,
    /// Optional structured access log: one JSON line per request
    /// (connection id, request sequence, method, path, route, status,
    /// body bytes, service µs). `None` disables logging entirely.
    pub access_log: Option<AccessLog>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            io_threads: 0,
            max_requests_per_conn: 1024,
            idle_timeout: Duration::from_secs(5),
            pending_connections: 1024,
            access_log: None,
        }
    }
}

/// Shared line-oriented sink for the structured access log. Cloning is
/// cheap (the writer is behind one mutex shared by every I/O worker);
/// each request appends exactly one `\n`-terminated JSON line.
#[derive(Clone)]
pub struct AccessLog {
    sink: Arc<Mutex<LogSink>>,
}

/// The writer behind an [`AccessLog`]. Files are kept as files (not
/// type-erased) so [`AccessLog::sync`] can `fsync` them on drain.
enum LogSink {
    File(std::fs::File),
    Writer(Box<dyn Write + Send>),
}

impl LogSink {
    fn writer(&mut self) -> &mut dyn Write {
        match self {
            LogSink::File(file) => file,
            LogSink::Writer(writer) => writer,
        }
    }
}

impl AccessLog {
    /// Log to any writer (tests pass an in-memory buffer).
    pub fn to_writer(writer: Box<dyn Write + Send>) -> AccessLog {
        AccessLog {
            sink: Arc::new(Mutex::new(LogSink::Writer(writer))),
        }
    }

    /// Append to a log file, creating it if needed.
    pub fn create(path: &str) -> std::io::Result<AccessLog> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(AccessLog {
            sink: Arc::new(Mutex::new(LogSink::File(file))),
        })
    }

    /// Log to standard error.
    pub fn stderr() -> AccessLog {
        AccessLog::to_writer(Box::new(std::io::stderr()))
    }

    /// Write one pre-formatted line (must include its `\n`). Errors
    /// are swallowed: a full disk must not take down serving.
    fn write_line(&self, line: &str) {
        if let Ok(mut sink) = self.sink.lock() {
            let writer = sink.writer();
            let _ = writer.write_all(line.as_bytes());
            let _ = writer.flush();
        }
    }

    /// Flush the sink and, for file sinks, `fsync` it to disk. The
    /// drain path calls this so the final log lines of a terminating
    /// process survive the exit (a buffered line lost to SIGTERM is a
    /// request that never happened as far as the operator can tell).
    pub fn sync(&self) {
        if let Ok(mut sink) = self.sink.lock() {
            let _ = sink.writer().flush();
            if let LogSink::File(file) = &*sink {
                let _ = file.sync_all();
            }
        }
    }
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AccessLog(..)")
    }
}

/// Monotonic connection ids for the access log.
static CONN_SEQ: AtomicU64 = AtomicU64::new(1);

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    /// Resolved at bind time so [`Server::local_addr`] is infallible.
    addr: SocketAddr,
    engine: Arc<Engine>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    control: DrainControl,
    thread: JoinHandle<()>,
}

/// Starts a graceful drain from any thread — the CLI's SIGTERM watcher
/// and the drain tests hold one of these.
///
/// `begin_drain` flips the engine into draining (readiness 503, new
/// batch jobs rejected, queued batches cancelled) and tells the accept
/// loop to stop feeding workers: in-flight keep-alive requests finish
/// and then close with `Connection: close`, new connections are shed
/// with `503` until the workers have wound down, and running batch
/// jobs keep executing (wait on
/// [`Engine::wait_batches_idle`](crate::Engine::wait_batches_idle)
/// after the HTTP side returns).
#[derive(Clone)]
pub struct DrainControl {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    engine: Arc<Engine>,
}

impl DrainControl {
    /// Begin the graceful drain (idempotent).
    pub fn begin_drain(&self) {
        self.engine.begin_drain();
        if !self.stop.swap(true, Ordering::SeqCst) {
            // kick the blocking accept() so it observes the flag
            let _ = TcpStream::connect(self.addr);
        }
    }
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) with
    /// the default [`ServerConfig`].
    pub fn bind(addr: &str, engine: Arc<Engine>) -> std::io::Result<Server> {
        Server::bind_with(addr, engine, ServerConfig::default())
    }

    /// Bind with explicit serving-layer knobs.
    pub fn bind_with(
        addr: &str,
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            engine,
            config,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can start a graceful drain while the server runs
    /// (grab it before [`Server::run`] consumes the server).
    pub fn drain_control(&self) -> DrainControl {
        DrainControl {
            stop: Arc::clone(&self.stop),
            addr: self.local_addr(),
            engine: Arc::clone(&self.engine),
        }
    }

    /// Begin a graceful drain (see [`DrainControl::begin_drain`]).
    pub fn begin_drain(&self) {
        self.drain_control().begin_drain();
    }

    /// Serve on the current thread; returns once a drain completes
    /// (all I/O workers wound down — batch runners may still be
    /// finishing, see [`Engine::wait_batches_idle`](crate::Engine::wait_batches_idle)).
    pub fn run(self) {
        let stop = Arc::clone(&self.stop);
        self.serve(&stop);
    }

    /// Serve on a background thread; the handle shuts it down. Errors
    /// when the accept thread cannot be spawned (thread exhaustion).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let control = self.drain_control();
        let stop = Arc::clone(&self.stop);
        let thread = std::thread::Builder::new()
            .name("fairrank-accept".to_string())
            .spawn(move || self.serve(&stop))?;
        Ok(ServerHandle { control, thread })
    }

    fn serve(self, stop: &Arc<AtomicBool>) {
        let io_threads = if self.config.io_threads == 0 {
            crate::tables::available_parallelism()
        } else {
            self.config.io_threads
        };
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(self.config.pending_connections.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<JoinHandle<()>> = (0..io_threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let engine = Arc::clone(&self.engine);
                let config = self.config.clone();
                let stop = Arc::clone(stop);
                std::thread::Builder::new()
                    .name(format!("fairrank-io-{i}"))
                    .spawn(move || io_worker(&rx, &engine, &config, &stop))
            })
            .filter_map(Result::ok)
            .collect();
        // thread exhaustion left us with zero I/O workers: serve
        // connections serially on the accept thread rather than
        // queueing them into a channel nobody drains
        let mut inline_scratch = ConnScratch::default();
        let rejected = &self.engine.stats().rejected_connections;
        for connection in self.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = connection else {
                // accept() fails in a tight loop under fd exhaustion —
                // back off instead of spinning at 100% CPU while the
                // worker threads drain
                std::thread::sleep(Duration::from_millis(20));
                continue;
            };
            EngineStats::bump(&self.engine.stats().connections);
            if workers.is_empty() {
                let _ = handle_connection(
                    stream,
                    &self.engine,
                    &mut inline_scratch,
                    &self.config,
                    stop,
                );
                continue;
            }
            match tx.try_send(stream) {
                Ok(()) => {}
                Err(mpsc::TrySendError::Full(stream)) => {
                    // every worker is busy and the backlog is full:
                    // tell the client to come back instead of silently
                    // hanging up on it
                    http::shed(stream, http::OVERLOADED_BODY, Some(1), rejected);
                }
                Err(mpsc::TrySendError::Disconnected(_)) => break,
            }
        }
        // disconnect the channel so idle workers observe shutdown;
        // connections already queued are still served (their first
        // response says `Connection: close`)
        drop(tx);
        // drain tail: keep answering brand-new connections with an
        // explicit 503 (instead of a hung or reset socket) until every
        // worker has finished its in-flight connections
        let _ = self.listener.set_nonblocking(true);
        while workers.iter().any(|worker| !worker.is_finished()) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    EngineStats::bump(&self.engine.stats().connections);
                    http::shed(stream, DRAINING_BODY, None, rejected);
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        for worker in workers {
            let _ = worker.join();
        }
        // every request that will ever be logged has been logged: make
        // the tail durable before the process exits
        if let Some(log) = &self.config.access_log {
            log.sync();
        }
    }
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.control.addr
    }

    /// Begin a graceful drain without waiting for it to finish (see
    /// [`DrainControl::begin_drain`]); `shutdown` joins afterwards.
    pub fn begin_drain(&self) {
        self.control.begin_drain();
    }

    /// A cloneable handle that can start the drain from another thread.
    pub fn drain_control(&self) -> DrainControl {
        self.control.clone()
    }

    /// Gracefully drain and join the accept thread (which in turn
    /// joins the I/O workers once their in-flight connections finish).
    pub fn shutdown(self) {
        self.control.begin_drain();
        let _ = self.thread.join();
        // let running batch jobs finish before tearing the engine down
        self.control.engine.wait_batches_idle();
    }
}

fn io_worker(
    rx: &Mutex<mpsc::Receiver<TcpStream>>,
    engine: &Arc<Engine>,
    config: &ServerConfig,
    stop: &AtomicBool,
) {
    let mut scratch = ConnScratch::default();
    loop {
        // holding the lock while blocked in recv() is the standard
        // shared-receiver pattern: exactly one idle worker waits on the
        // channel, the rest queue on the mutex
        let stream = {
            let receiver = crate::lock_recover(rx);
            receiver.recv()
        };
        match stream {
            Ok(stream) => {
                let _ = handle_connection(stream, engine, &mut scratch, config, stop);
            }
            // accept loop dropped the sender: shutdown
            Err(_) => return,
        }
    }
}

/// Per-I/O-worker reusable buffers. A warm request (buffers at
/// capacity from earlier requests) performs zero heap allocations in
/// the HTTP layer.
#[derive(Default)]
struct ConnScratch {
    /// The current request (method, path, body) and the socket bytes
    /// read past it.
    reader: RequestReader,
    /// JSON parse arena for request bodies.
    arena: JsonArena,
    /// Response body under construction.
    body_out: String,
    /// Fully framed response bytes (headers + body), written in one
    /// syscall.
    out: Vec<u8>,
    /// Access-log line under construction (reused per request).
    log_line: String,
    /// Per-request trace scratch (the span recorder `Arc` is pooled
    /// here so a warm traced request allocates nothing).
    trace: TraceScratch,
}

/// The pieces of a request's trace that the routing layer fills in:
/// HTTP-thread spans plus the engine-side [`SpanRecorder`] handed into
/// [`Engine::submit_traced`]. Reset at the start of every request.
#[derive(Default)]
struct TraceScratch {
    /// Engine-side span cells (cache lookup, queue wait, run),
    /// shared with the worker executing the job.
    spans: Arc<SpanRecorder>,
    /// Algorithm name for submit routes; empty otherwise.
    algorithm: TraceStr,
    /// Body JSON → job parse time.
    parse_us: u64,
    /// Result-JSON serialization time.
    serialize_us: u64,
}

impl TraceScratch {
    fn reset(&mut self) {
        self.spans.reset();
        self.algorithm = TraceStr::default();
        self.parse_us = 0;
        self.serialize_us = 0;
    }
}

impl ConnScratch {
    /// Shrink oversized buffers so one huge request does not pin its
    /// high-water mark per worker forever.
    fn trim(&mut self) {
        self.reader.trim();
        if self.body_out.capacity() > http::SCRATCH_TRIM {
            self.body_out.shrink_to(http::SCRATCH_TRIM);
        }
        if self.out.capacity() > http::SCRATCH_TRIM {
            self.out.shrink_to(http::SCRATCH_TRIM);
        }
        self.arena.shrink_to(http::SCRATCH_TRIM);
    }
}

fn handle_connection(
    mut stream: TcpStream,
    engine: &Arc<Engine>,
    scratch: &mut ConnScratch,
    config: &ServerConfig,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    scratch.reader.begin(&stream, config.idle_timeout)?;
    let stats = engine.stats();
    let conn_id = CONN_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut served = 0usize;
    loop {
        match scratch
            .reader
            .next_request(&mut stream, config.idle_timeout)
        {
            Incoming::Closed => return Ok(()),
            Incoming::Malformed(http::Malformed(message)) => {
                EngineStats::bump(&stats.http_requests);
                EngineStats::bump(&stats.http_errors);
                scratch.body_out.clear();
                write_error(&mut scratch.body_out, &message);
                if let Some(log) = &config.access_log {
                    // the head never parsed (or its body never
                    // arrived): log no method or path rather than a
                    // previous request's
                    write_access_line(
                        &mut scratch.log_line,
                        &AccessRecord {
                            conn: conn_id,
                            seq: served + 1,
                            method: "",
                            path: "",
                            route: RouteClass::Other,
                            status: 400,
                            bytes: scratch.body_out.len(),
                            micros: 0,
                            trace: None,
                        },
                        log,
                    );
                }
                http::reject(&mut stream, &scratch.body_out, &mut scratch.out);
                return Ok(());
            }
            Incoming::Request => {}
        }
        let started = Instant::now();
        EngineStats::bump(&stats.http_requests);
        served += 1;
        let trace_id = engine.flight_recorder().next_id();
        scratch.trace.reset();
        let (status, route) = route_request(engine, scratch, trace_id);
        // the stop check comes AFTER routing: a drain that began while
        // this request executed must close the connection right after
        // answering it, not one request later
        let keep_alive = !scratch.reader.close
            && served < config.max_requests_per_conn.max(1)
            && !stop.load(Ordering::Relaxed);
        if status >= 400 {
            EngineStats::bump(&stats.http_errors);
        }
        let content_type = if route == RouteClass::Metrics && status == 200 {
            METRICS_CONTENT_TYPE
        } else {
            http::JSON_CONTENT_TYPE
        };
        let frame = Frame {
            content_type,
            trace_id: Some(trace_id),
            ..Frame::json(status, keep_alive)
        };
        http::write_response(&mut scratch.out, &frame, scratch.body_out.as_bytes());
        let write_started = Instant::now();
        stream.write_all(&scratch.out)?;
        let write_us = duration_us(write_started.elapsed());
        let elapsed = started.elapsed();
        stats.latency.record(elapsed);
        stats.route_latency(route).record(elapsed);
        let spans = &scratch.trace.spans;
        engine.flight_recorder().record(&Trace {
            id: trace_id,
            conn: conn_id,
            seq: served as u64,
            status,
            cache_hit: spans.cache_hit.load(Ordering::Relaxed),
            route: route.as_str(),
            algorithm: scratch.trace.algorithm,
            parse_us: scratch.trace.parse_us,
            cache_us: spans.cache_us.load(Ordering::Relaxed),
            queue_us: spans.queue_us.load(Ordering::Relaxed),
            run_us: spans.run_us.load(Ordering::Relaxed),
            serialize_us: scratch.trace.serialize_us,
            write_us,
            total_us: duration_us(elapsed),
            end_us: engine.flight_recorder().now_us(),
            ..Trace::default()
        });
        if let Some(log) = &config.access_log {
            let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
            write_access_line(
                &mut scratch.log_line,
                &AccessRecord {
                    conn: conn_id,
                    seq: served,
                    method: &scratch.reader.method,
                    path: &scratch.reader.path,
                    route,
                    status,
                    bytes: scratch.body_out.len(),
                    micros,
                    trace: Some(trace_id),
                },
                log,
            );
        }
        scratch.trim();
        if !keep_alive {
            return Ok(());
        }
    }
}

/// The fields of one access-log line.
struct AccessRecord<'a> {
    conn: u64,
    seq: usize,
    method: &'a str,
    path: &'a str,
    route: RouteClass,
    status: u16,
    /// Response body size.
    bytes: usize,
    micros: u64,
    /// Trace ID joining the line to `GET /debug/traces`; `None` for
    /// requests rejected before a trace was assigned (malformed head).
    trace: Option<u64>,
}

/// Format and emit one structured access-log line:
/// `{"conn":…,"seq":…,"method":…,"path":…,"route":…,"status":…,"bytes":…,"us":…,"trace":…}`.
fn write_access_line(line: &mut String, record: &AccessRecord<'_>, log: &AccessLog) {
    line.clear();
    let _ = write!(
        line,
        "{{\"conn\":{},\"seq\":{},\"method\":",
        record.conn, record.seq
    );
    crate::json::write_string(record.method, line);
    line.push_str(",\"path\":");
    crate::json::write_string(record.path, line);
    let _ = write!(
        line,
        ",\"route\":\"{}\",\"status\":{},\"bytes\":{},\"us\":{}",
        record.route.as_str(),
        record.status,
        record.bytes,
        record.micros,
    );
    if let Some(trace) = record.trace {
        let _ = write!(line, ",\"trace\":{trace}");
    }
    line.push('}');
    line.push('\n');
    log.write_line(line);
}

/// Drain-shedding response body (no retry hint — this instance is
/// going away; clients should fail over).
const DRAINING_BODY: &str = "{\"error\":\"server draining\"}";

/// `content-type` of the Prometheus text exposition format.
const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Serialize a complete HTTP/1.1 JSON response into `out` through
/// [`http::write_response`] (allocation-free on a warm buffer).
pub fn write_response_into(
    out: &mut Vec<u8>,
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after_secs: Option<u32>,
) {
    let frame = Frame {
        retry_after: retry_after_secs.map(u64::from),
        ..Frame::json(status, keep_alive)
    };
    http::write_response(out, &frame, body.as_bytes());
}

/// Dispatch the request in the scratch, writing the response body into
/// `scratch.body_out` and returning the status code plus the
/// [`RouteClass`] the request was accounted to. `trace_id` is the
/// request's already-assigned trace ID; the submit routes thread it
/// (and the scratch's span recorder) into the engine.
fn route_request(
    engine: &Arc<Engine>,
    scratch: &mut ConnScratch,
    trace_id: u64,
) -> (u16, RouteClass) {
    let ConnScratch {
        reader,
        arena,
        body_out,
        trace,
        ..
    } = scratch;
    let body = &reader.body;
    body_out.clear();
    match (reader.method.as_str(), reader.path.as_str()) {
        ("GET", "/healthz") => {
            // liveness: answers 200 for as long as the process serves,
            // draining included (readiness is `/readyz`)
            let json = Json::object(vec![
                ("status", Json::String("ok".to_string())),
                (
                    "algorithms",
                    Json::Array(
                        engine
                            .registry()
                            .names()
                            .into_iter()
                            .map(|n| Json::String(n.to_string()))
                            .collect(),
                    ),
                ),
            ]);
            json.write_into(body_out);
            (200, RouteClass::Healthz)
        }
        ("GET", "/readyz") => {
            // readiness: flips to 503 the moment a drain begins, so
            // load balancers stop routing here before the listener
            // actually goes away. The body carries the batch-job queue
            // depth so a cluster router can reason about how much work
            // is still parked on a draining replica.
            let (queued, running, ..) = engine.job_store().counters();
            let draining = engine.is_draining();
            let status = if draining { "draining" } else { "ready" };
            let _ = write!(
                body_out,
                "{{\"status\":\"{status}\",\"draining\":{draining},\"jobs_queued\":{queued},\"jobs_running\":{running}}}"
            );
            (if draining { 503 } else { 200 }, RouteClass::Readyz)
        }
        ("GET", "/stats") => {
            engine.stats_json().write_into(body_out);
            (200, RouteClass::Stats)
        }
        ("GET", "/metrics") => {
            engine.render_metrics(body_out);
            (200, RouteClass::Metrics)
        }
        ("GET", path) if debug_traces_query(path).is_some() => {
            let query = debug_traces_query(path).unwrap_or("");
            let (route_filter, algorithm_filter) = parse_trace_filters(query);
            engine
                .flight_recorder()
                .write_json(body_out, route_filter, algorithm_filter);
            (200, RouteClass::DebugTraces)
        }
        ("POST", "/rank") => (
            submit_route(engine, Route::Rank, body, arena, body_out, trace_id, trace),
            RouteClass::Rank,
        ),
        ("POST", "/aggregate") => (
            submit_route(
                engine,
                Route::Aggregate,
                body,
                arena,
                body_out,
                trace_id,
                trace,
            ),
            RouteClass::Aggregate,
        ),
        ("POST", "/pipeline") => (
            submit_route(
                engine,
                Route::Pipeline,
                body,
                arena,
                body_out,
                trace_id,
                trace,
            ),
            RouteClass::Pipeline,
        ),
        ("POST", "/jobs") => (
            jobs_submit(engine, body, arena, body_out, trace_id, trace),
            RouteClass::JobsSubmit,
        ),
        ("GET", path) if path.strip_prefix("/jobs/").is_some() => (
            jobs_status(engine, &path["/jobs/".len()..], body_out),
            RouteClass::JobsGet,
        ),
        ("DELETE", path) if path.strip_prefix("/jobs/").is_some() => (
            jobs_cancel(engine, &path["/jobs/".len()..], body_out),
            RouteClass::JobsCancel,
        ),
        ("POST", _) | ("GET", _) | ("DELETE", _) => {
            write_error(body_out, "no such route");
            (404, RouteClass::Other)
        }
        _ => {
            write_error(body_out, "method not allowed");
            (405, RouteClass::Other)
        }
    }
}

/// The query string of a `/debug/traces` request, or `None` when
/// `path` is a different route entirely.
fn debug_traces_query(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("/debug/traces")?;
    if rest.is_empty() {
        Some("")
    } else {
        rest.strip_prefix('?')
    }
}

/// Parse `route=…&algorithm=…` filters for `GET /debug/traces`.
/// Unknown keys are ignored; values are matched exactly (labels are
/// plain identifiers, so no percent-decoding is needed).
fn parse_trace_filters(query: &str) -> (Option<&str>, Option<&str>) {
    let mut route = None;
    let mut algorithm = None;
    for pair in query.split('&') {
        match pair.split_once('=') {
            Some(("route", value)) if !value.is_empty() => route = Some(value),
            Some(("algorithm", value)) if !value.is_empty() => algorithm = Some(value),
            _ => {}
        }
    }
    (route, algorithm)
}

/// `POST /jobs`: parse `{"chunks":[…]}` (each chunk the body of a
/// sync route, plus an optional `"route"` discriminator defaulting to
/// `rank`), submit the batch, answer `202` with the id to poll. The
/// request's trace ID becomes the batch's parent trace so every chunk
/// trace links back to the submission that created it.
fn jobs_submit(
    engine: &Arc<Engine>,
    body: &[u8],
    arena: &mut JsonArena,
    out: &mut String,
    trace_id: u64,
    trace: &mut TraceScratch,
) -> u16 {
    let parse_started = Instant::now();
    let parsed = parse_jobs_body(body, arena);
    trace.parse_us = duration_us(parse_started.elapsed());
    let spec = match parsed {
        Ok(spec) => spec,
        Err(message) => {
            write_error(out, &message);
            return 400;
        }
    };
    match engine.submit_batch_traced(spec, trace_id) {
        Ok(job) => {
            let serialize_started = Instant::now();
            job.write_status_json(out);
            trace.serialize_us = duration_us(serialize_started.elapsed());
            202
        }
        Err(e) => {
            let status = match &e {
                EngineError::UnknownAlgorithm(_) => 404,
                EngineError::InvalidJob(_) => 400,
                EngineError::Algorithm(_) => 422,
                EngineError::Overloaded | EngineError::ShuttingDown => 503,
            };
            write_error(out, &e.to_string());
            status
        }
    }
}

/// Decode a `POST /jobs` body into a [`BatchSpec`](crate::batch::BatchSpec)
/// (UTF-8 check, JSON parse, spec extraction — every failure is a 400).
fn parse_jobs_body(body: &[u8], arena: &mut JsonArena) -> Result<crate::batch::BatchSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let doc = arena.parse(text).map_err(|e| e.to_string())?;
    parse_batch_spec(doc)
}

/// Cluster placement key for a request to `path` with `body`: the same
/// algorithm+input digest the result cache is keyed by, so a
/// consistent-hash router lands a request on the replica that already
/// holds its cached result. `None` when the route does not take a
/// rankable body or the body does not parse — the router then falls
/// back to a raw-byte hash and forwards anyway, letting the backend
/// produce its canonical 400.
pub fn ring_key(path: &str, body: &[u8], arena: &mut JsonArena) -> Option<u64> {
    let route = match path {
        "/rank" => Route::Rank,
        "/aggregate" => Route::Aggregate,
        "/pipeline" => Route::Pipeline,
        "/jobs" => return parse_jobs_body(body, arena).ok().map(|spec| spec.digest()),
        _ => return None,
    };
    parse_submit_body(body, arena, route)
        .ok()
        .map(|job| job.digest())
}

/// `GET /jobs/{id}`: status snapshot, with per-chunk results once the
/// job is terminal.
fn jobs_status(engine: &Arc<Engine>, id: &str, out: &mut String) -> u16 {
    let Some(job) = id.parse().ok().and_then(|id| engine.batch_job(id)) else {
        write_error(out, "no such job");
        return 404;
    };
    job.write_status_json(out);
    200
}

/// `DELETE /jobs/{id}`: request cooperative cancellation and return
/// the (possibly already terminal) status.
fn jobs_cancel(engine: &Arc<Engine>, id: &str, out: &mut String) -> u16 {
    let Some(job) = id.parse().ok().and_then(|id| engine.cancel_batch_job(id)) else {
        write_error(out, "no such job");
        return 404;
    };
    job.write_status_json(out);
    200
}

/// Parse the `POST /jobs` body into a [`BatchSpec`].
fn parse_batch_spec(doc: ValueRef<'_>) -> Result<crate::batch::BatchSpec, String> {
    if !doc.is_object() {
        return Err("request body must be a JSON object".to_string());
    }
    let chunks_value = doc
        .get("chunks")
        .ok_or("`chunks` (array of chunk objects) is required")?;
    let chunk_docs = chunks_value.as_array().ok_or("`chunks` must be an array")?;
    let mut chunks = Vec::with_capacity(chunks_value.len());
    for (index, chunk_doc) in chunk_docs.enumerate() {
        let route = match chunk_doc.get("route").map(|r| r.as_str()) {
            None => Route::Rank,
            Some(Some("rank")) => Route::Rank,
            Some(Some("aggregate")) => Route::Aggregate,
            Some(Some("pipeline")) => Route::Pipeline,
            Some(_) => {
                return Err(format!(
                    "chunk {index}: `route` must be `rank`, `aggregate` or `pipeline`"
                ))
            }
        };
        let job =
            parse_job(chunk_doc, route).map_err(|message| format!("chunk {index}: {message}"))?;
        chunks.push(job);
    }
    Ok(crate::batch::BatchSpec { chunks })
}

#[derive(Clone, Copy, PartialEq)]
enum Route {
    Rank,
    Aggregate,
    Pipeline,
}

fn submit_route(
    engine: &Arc<Engine>,
    route: Route,
    body: &[u8],
    arena: &mut JsonArena,
    out: &mut String,
    trace_id: u64,
    trace: &mut TraceScratch,
) -> u16 {
    let parse_started = Instant::now();
    let parsed = parse_submit_body(body, arena, route);
    trace.parse_us = duration_us(parse_started.elapsed());
    let job = match parsed {
        Ok(job) => job,
        Err(message) => {
            write_error(out, &message);
            return 400;
        }
    };
    trace.algorithm = TraceStr::new(&job.algorithm);
    // each route only accepts algorithms of its kind, so `POST /rank`
    // cannot invoke an aggregator and vice versa
    if let Some(algorithm) = engine.registry().get(&job.algorithm) {
        let expected = match route {
            Route::Rank => AlgorithmKind::PostProcessor,
            Route::Aggregate => AlgorithmKind::Aggregator,
            Route::Pipeline => AlgorithmKind::Pipeline,
        };
        if algorithm.kind() != expected {
            write_error(
                out,
                &format!("algorithm `{}` cannot be used on this route", job.algorithm),
            );
            return 400;
        }
    }
    let origin = match route {
        Route::Rank => JobOrigin::Rank,
        Route::Aggregate => JobOrigin::Aggregate,
        Route::Pipeline => JobOrigin::Pipeline,
    };
    let handle = TraceHandle {
        id: trace_id,
        spans: Arc::clone(&trace.spans),
    };
    match engine.submit_traced(job, origin, Some(&handle)) {
        Ok(result) => {
            let serialize_started = Instant::now();
            result.write_json(out);
            trace.serialize_us = duration_us(serialize_started.elapsed());
            200
        }
        Err(e) => {
            let status = match &e {
                EngineError::UnknownAlgorithm(_) => 404,
                EngineError::InvalidJob(_) => 400,
                EngineError::Algorithm(_) => 422,
                EngineError::Overloaded | EngineError::ShuttingDown => 503,
            };
            write_error(out, &e.to_string());
            status
        }
    }
}

/// Decode a sync-route body into a [`RankJob`] (UTF-8 check, JSON
/// parse, job extraction — every failure is a 400).
fn parse_submit_body(body: &[u8], arena: &mut JsonArena, route: Route) -> Result<RankJob, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let doc = arena.parse(text).map_err(|e| e.to_string())?;
    parse_job(doc, route)
}

fn parse_job(doc: ValueRef<'_>, route: Route) -> Result<RankJob, String> {
    if !doc.is_object() {
        return Err("request body must be a JSON object".to_string());
    }
    let params = parse_params(doc)?;

    let groups: Vec<usize> = match doc.get("groups") {
        None => Vec::new(),
        Some(value) => value
            .as_array()
            .ok_or("`groups` must be an array")?
            .map(|g| {
                g.as_usize()
                    .ok_or("`groups` entries must be non-negative integers")
            })
            .collect::<Result<_, _>>()?,
    };

    match route {
        Route::Rank => {
            let algorithm = doc
                .get("algorithm")
                .and_then(|v| v.as_str())
                .ok_or("`algorithm` (string) is required")?
                .to_string();
            let scores: Vec<f64> = doc
                .get("scores")
                .and_then(|v| v.as_array())
                .ok_or("`scores` (array of numbers) is required")?
                .map(|s| s.as_f64().ok_or("`scores` entries must be numbers"))
                .collect::<Result<_, _>>()?;
            Ok(RankJob {
                algorithm,
                input: JobInput::Scores { scores, groups },
                params,
            })
        }
        Route::Aggregate | Route::Pipeline => {
            let votes: Vec<Vec<usize>> = doc
                .get("votes")
                .and_then(|v| v.as_array())
                .ok_or("`votes` (array of rankings) is required")?
                .map(|vote| {
                    vote.as_array()
                        .ok_or("each vote must be an array")?
                        .map(|i| {
                            i.as_usize()
                                .ok_or("vote entries must be non-negative integers")
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<_, _>>()?;
            let algorithm = if route == Route::Pipeline {
                "pipeline".to_string()
            } else {
                doc.get("method")
                    .or_else(|| doc.get("algorithm"))
                    .and_then(|v| v.as_str())
                    .ok_or("`method` (string) is required")?
                    .to_string()
            };
            Ok(RankJob {
                algorithm,
                input: JobInput::Votes { votes, groups },
                params,
            })
        }
    }
}

fn parse_params(doc: ValueRef<'_>) -> Result<JobParams, String> {
    let mut params = JobParams::default();
    if let Some(v) = doc.get("theta") {
        params.theta = v.as_f64().ok_or("`theta` must be a number")?;
    }
    if let Some(v) = doc.get("samples") {
        params.samples = v
            .as_usize()
            .ok_or("`samples` must be a non-negative integer")?;
    }
    if let Some(v) = doc.get("criterion") {
        params.criterion = v
            .as_str()
            .and_then(crate::job::Criterion::parse)
            .ok_or("`criterion` must be one of ndcg, infeasible, kendall")?;
    }
    if let Some(v) = doc.get("tolerance") {
        params.tolerance = v.as_f64().ok_or("`tolerance` must be a number")?;
    }
    if let Some(v) = doc.get("noise_sd") {
        params.noise_sd = v.as_f64().ok_or("`noise_sd` must be a number")?;
    }
    if let Some(v) = doc.get("k") {
        params.k = Some(v.as_usize().ok_or("`k` must be a non-negative integer")?);
    }
    if let Some(v) = doc.get("seed") {
        params.seed = v.as_u64().ok_or("`seed` must be a non-negative integer")?;
    }
    if let Some(v) = doc.get("method") {
        params.method = v.as_str().ok_or("`method` must be a string")?.to_string();
    }
    if let Some(v) = doc.get("post") {
        params.post = v.as_str().ok_or("`post` must be a string")?.to_string();
    }
    if let Some(v) = doc.get("protected") {
        params.protected = v
            .as_usize()
            .ok_or("`protected` must be a non-negative integer")?;
    }
    if let Some(v) = doc.get("proportion") {
        params.proportion = Some(v.as_f64().ok_or("`proportion` must be a number")?);
    }
    if let Some(v) = doc.get("alpha") {
        params.alpha = v.as_f64().ok_or("`alpha` must be a number")?;
    }
    Ok(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use std::io::Read;

    fn start() -> ServerHandle {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            queue_capacity: 32,
            cache_capacity: 32,
            table_cache_capacity: 16,
            cache_shards: 0,
            ..EngineConfig::default()
        });
        Server::bind("127.0.0.1:0", engine)
            .unwrap()
            .spawn()
            .unwrap()
    }

    /// Minimal HTTP client for the tests: one request per connection,
    /// `connection: close` so `read_to_string` terminates.
    fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: fairrank\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn healthz_lists_algorithms() {
        let server = start();
        let (status, body) = http(server.addr(), "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"mallows\""), "{body}");
        assert!(body.contains("\"borda\""), "{body}");
        server.shutdown();
    }

    #[test]
    fn rank_round_trip() {
        let server = start();
        let (status, body) = http(
            server.addr(),
            "POST",
            "/rank",
            r#"{"algorithm":"weakly-fair","scores":[0.9,0.8,0.4,0.3],"groups":[0,0,1,1],"tolerance":0.2}"#,
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"ranking\":["), "{body}");
        assert!(body.contains("ndcg_within_selection"), "{body}");
        server.shutdown();
    }

    #[test]
    fn aggregate_round_trip() {
        let server = start();
        let (status, body) = http(
            server.addr(),
            "POST",
            "/aggregate",
            r#"{"method":"borda","votes":[[0,1,2],[0,1,2],[1,0,2]]}"#,
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"ranking\":[0,1,2]"), "{body}");
        server.shutdown();
    }

    #[test]
    fn stats_reports_cache_hits() {
        let server = start();
        let body = r#"{"algorithm":"weakly-fair","scores":[0.9,0.1],"groups":[0,1],"seed":7}"#;
        let (s1, _) = http(server.addr(), "POST", "/rank", body);
        let (s2, _) = http(server.addr(), "POST", "/rank", body);
        assert_eq!((s1, s2), (200, 200));
        let (status, stats) = http(server.addr(), "GET", "/stats", "");
        assert_eq!(status, 200);
        assert!(stats.contains("\"cache_hits\":1"), "{stats}");
        assert!(stats.contains("\"cache_misses\":1"), "{stats}");
        assert!(stats.contains("\"latency_p50_us\":"), "{stats}");
        assert!(stats.contains("\"latency_p99_us\":"), "{stats}");
        server.shutdown();
    }

    #[test]
    fn stats_reports_sampler_table_hits() {
        let server = start();
        // two mallows jobs with the same (n, θ) but different seeds:
        // distinct result-cache entries, one shared sampler table
        for seed in [1, 2] {
            let body = format!(
                r#"{{"algorithm":"mallows","scores":[0.9,0.7,0.5,0.3],"groups":[0,0,1,1],"samples":5,"seed":{seed}}}"#
            );
            let (status, response) = http(server.addr(), "POST", "/rank", &body);
            assert_eq!(status, 200, "{response}");
        }
        let (status, stats) = http(server.addr(), "GET", "/stats", "");
        assert_eq!(status, 200);
        assert!(stats.contains("\"sampler_table_hits\":1"), "{stats}");
        assert!(stats.contains("\"sampler_table_misses\":1"), "{stats}");
        assert!(stats.contains("\"sampler_table_entries\":1"), "{stats}");
        server.shutdown();
    }

    #[test]
    fn error_statuses() {
        let server = start();
        // malformed JSON → 400
        let (status, _) = http(server.addr(), "POST", "/rank", "{nope");
        assert_eq!(status, 400);
        // unknown algorithm → 404
        let (status, _) = http(
            server.addr(),
            "POST",
            "/rank",
            r#"{"algorithm":"psychic","scores":[1.0]}"#,
        );
        assert_eq!(status, 404);
        // wrong route for the algorithm's kind → 400
        let (status, _) = http(
            server.addr(),
            "POST",
            "/rank",
            r#"{"algorithm":"borda","scores":[1.0]}"#,
        );
        assert_eq!(status, 400);
        // algorithm failure (3 groups into gr-binary) → 422
        let (status, _) = http(
            server.addr(),
            "POST",
            "/rank",
            r#"{"algorithm":"gr-binary","scores":[1.0,0.5,0.2],"groups":[0,1,2]}"#,
        );
        assert_eq!(status, 422);
        // unknown route → 404
        let (status, _) = http(server.addr(), "GET", "/nope", "");
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn oversized_unterminated_header_is_rejected_not_buffered() {
        let server = start();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // a request line that never ends: the server must cut it off at
        // the header cap instead of buffering it forever (write just
        // past the cap, then stop, so the 400 isn't lost to a reset)
        let chunk = vec![b'A'; 20 << 10]; // 20 KiB > 16 KiB cap, no newline
        stream.write_all(b"GET /").unwrap();
        stream.write_all(&chunk).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(response.contains("header line too long"), "{response}");
        server.shutdown();
    }

    #[test]
    fn pipeline_round_trip_contains_both_rankings() {
        let server = start();
        let (status, body) = http(
            server.addr(),
            "POST",
            "/pipeline",
            r#"{"votes":[[0,1,2,3],[0,1,3,2],[1,0,2,3]],"groups":[0,0,1,1],"method":"borda","post":"mallows","theta":1.0,"samples":15,"tolerance":0.2,"seed":11}"#,
        );
        assert_eq!(status, 200, "{body}");
        for key in [
            "\"consensus\":[",
            "\"fair_ranking\":[",
            "consensus_total_kt",
            "fair_total_kt",
            "consensus_infeasible",
            "fair_infeasible",
        ] {
            assert!(body.contains(key), "missing {key} in {body}");
        }
        server.shutdown();
    }

    #[test]
    fn trace_header_joins_debug_traces_entry() {
        let server = start();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let body = r#"{"algorithm":"weakly-fair","scores":[0.9,0.1],"groups":[0,1]}"#;
        let request = format!(
            "POST /rank HTTP/1.1\r\nhost: fairrank\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        let trace_id: u64 = response
            .split("x-trace-id: ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|id| id.parse().ok())
            .expect("x-trace-id header");

        let (status, traces) = http(server.addr(), "GET", "/debug/traces?route=rank", "");
        assert_eq!(status, 200, "{traces}");
        assert!(traces.contains(&format!("\"id\":{trace_id}")), "{traces}");
        assert!(traces.contains("\"algorithm\":\"weakly-fair\""), "{traces}");
        assert!(traces.contains("\"run_us\":"), "{traces}");

        // a filter that matches nothing leaves both tracks empty
        let (status, filtered) = http(
            server.addr(),
            "GET",
            "/debug/traces?route=rank&algorithm=nope",
            "",
        );
        assert_eq!(status, 200);
        assert!(filtered.contains("\"recent\":[]"), "{filtered}");
        server.shutdown();
    }

    #[test]
    fn access_log_line_carries_trace_id() {
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let lines = Arc::new(Mutex::new(Vec::new()));
        let engine = Engine::new(EngineConfig {
            workers: 2,
            queue_capacity: 32,
            cache_capacity: 32,
            table_cache_capacity: 16,
            cache_shards: 0,
            ..EngineConfig::default()
        });
        let server = Server::bind_with(
            "127.0.0.1:0",
            engine,
            ServerConfig {
                access_log: Some(AccessLog::to_writer(Box::new(SharedBuf(Arc::clone(
                    &lines,
                ))))),
                ..ServerConfig::default()
            },
        )
        .unwrap()
        .spawn()
        .unwrap();
        let (status, _) = http(server.addr(), "GET", "/healthz", "");
        assert_eq!(status, 200);
        server.shutdown();
        let logged = String::from_utf8(lines.lock().unwrap().clone()).unwrap();
        let line = logged
            .lines()
            .find(|l| l.contains("\"path\":\"/healthz\""))
            .expect("healthz access-log line");
        assert!(line.contains("\"trace\":"), "{line}");
    }

    #[test]
    fn response_framer_writes_expected_bytes() {
        let mut out = Vec::new();
        write_response_into(&mut out, 503, "{}", false, Some(2));
        let text = String::from_utf8(out.clone()).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("retry-after: 2\r\n"), "{text}");
        assert!(text.contains("connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
        // reuse clears previous content
        write_response_into(&mut out, 200, "[1]", true, None);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
        assert!(!text.contains("retry-after"), "{text}");
        assert!(text.ends_with("\r\n\r\n[1]"), "{text}");
    }
}
