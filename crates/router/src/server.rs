//! The router's own HTTP front.
//!
//! Thread-per-connection with keep-alive: the router is I/O-bound (it
//! holds a connection open while a backend computes), so a blocked
//! thread per client connection is the right shape — unlike the
//! engine's reactor, there is no CPU work to protect. Live connection
//! threads are capped at `MAX_CONN_THREADS`; a connection past the
//! cap, or one whose thread the OS refuses, is shed with `503` +
//! `Retry-After: 1`. Buffers are per-connection and reused across
//! requests.
//!
//! Framing is the engine's codec ([`fairrank_engine::http`]): the same
//! size caps, the same rejection of `Transfer-Encoding` and
//! conflicting `Content-Length`, and the same `400 {"error":…}` +
//! close for a request that breaks them.
//!
//! Every response carries `x-trace-id` (the router's own id for the
//! hop). Forwarded responses add `x-backend` (the owning replica) and
//! `x-backend-trace-id` (the replica's `x-trace-id`), so a trace can
//! be joined across tiers. Bodies are forwarded byte-for-byte.

use crate::{jobs, metrics, ForwardOutcome, RouterCore};
use fairrank_engine::http::{self, Frame, Incoming, RequestReader};
use fairrank_engine::json::JsonArena;
use std::borrow::Cow;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Live client-connection threads; a connection past the cap is shed.
const MAX_CONN_THREADS: usize = 1024;

/// Keep-alive requests served per client connection.
const MAX_CONN_REQUESTS: usize = 1024;

/// Keep-alive idle timeout on client connections.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// A bound, not-yet-serving router front.
pub struct RouterServer {
    core: Arc<RouterCore>,
    listener: TcpListener,
}

/// Handle to a running router: address, stop flag, service threads.
pub struct RouterHandle {
    core: Arc<RouterCore>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl RouterServer {
    pub fn bind(addr: &str, core: Arc<RouterCore>) -> std::io::Result<RouterServer> {
        Ok(RouterServer {
            core,
            listener: TcpListener::bind(addr)?,
        })
    }

    /// Start the accept loop and the `/readyz` prober.
    pub fn spawn(self) -> std::io::Result<RouterHandle> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();

        let prober_core = Arc::clone(&self.core);
        let prober_stop = Arc::clone(&stop);
        let prober = std::thread::Builder::new().name("fairrank-router-probe".to_string());
        threads.push(prober.spawn(move || {
            // the first round runs immediately so the ring fills as
            // soon as backends answer, not one interval later
            while !prober_stop.load(Ordering::SeqCst) {
                prober_core.probe_once();
                let interval = prober_core.config.probe_interval;
                let mut slept = Duration::ZERO;
                // sleep in small slices so shutdown stays prompt
                while slept < interval && !prober_stop.load(Ordering::SeqCst) {
                    let slice = Duration::from_millis(20).min(interval - slept);
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
        })?);

        let accept_core = Arc::clone(&self.core);
        let accept_stop = Arc::clone(&stop);
        let listener = self.listener;
        let acceptor = std::thread::Builder::new().name("fairrank-router-accept".to_string());
        threads.push(acceptor.spawn(move || {
            accept_loop(&listener, &accept_core, &accept_stop, MAX_CONN_THREADS);
        })?);

        Ok(RouterHandle {
            core: self.core,
            addr,
            stop,
            threads,
        })
    }
}

impl RouterHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn core(&self) -> &Arc<RouterCore> {
        &self.core
    }

    /// Stop accepting and probing, then join the service threads.
    /// Connections mid-request finish their current response and
    /// close (the keep-alive loop re-checks the stop flag).
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // unblock the accept loop with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

/// Serve each accepted connection on its own thread while fewer than
/// `cap` are live; shed the rest (and any the OS refuses a thread for)
/// with `503` + `Retry-After: 1`.
fn accept_loop(listener: &TcpListener, core: &Arc<RouterCore>, stop: &Arc<AtomicBool>, cap: usize) {
    let live = Arc::new(AtomicUsize::new(0));
    let rejected = &core.stats.rejected_connections;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // the thread gets a dup of the socket so that on spawn failure
        // this loop still owns a handle to answer 503 on
        let admitted = live.load(Ordering::SeqCst) < cap
            && stream
                .try_clone()
                .and_then(|thread_stream| {
                    let core = Arc::clone(core);
                    let stop = Arc::clone(stop);
                    let slot = LiveSlot::take(&live);
                    std::thread::Builder::new()
                        .name("fairrank-router-conn".to_string())
                        .spawn(move || {
                            let _slot = slot;
                            handle_connection(&core, thread_stream, &stop);
                        })
                })
                .is_ok();
        if !admitted {
            http::shed(stream, http::OVERLOADED_BODY, Some(1), rejected);
        }
    }
}

/// One live connection thread, released on drop — also when the spawn
/// that was to own it fails and drops the closure.
struct LiveSlot(Arc<AtomicUsize>);

impl LiveSlot {
    fn take(live: &Arc<AtomicUsize>) -> LiveSlot {
        live.fetch_add(1, Ordering::SeqCst);
        LiveSlot(Arc::clone(live))
    }
}

impl Drop for LiveSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-connection reusable buffers.
struct ConnBuffers {
    reader: RequestReader,
    response: Vec<u8>,
    scratch: Vec<u8>,
    arena: JsonArena,
}

fn handle_connection(core: &Arc<RouterCore>, mut stream: TcpStream, stop: &Arc<AtomicBool>) {
    let mut buffers = ConnBuffers {
        reader: RequestReader::default(),
        response: Vec::with_capacity(4096),
        scratch: Vec::with_capacity(4096),
        arena: JsonArena::new(),
    };
    if buffers.reader.begin(&stream, IDLE_TIMEOUT).is_err() {
        return;
    }
    for served in 0..MAX_CONN_REQUESTS {
        match buffers.reader.next_request(&mut stream, IDLE_TIMEOUT) {
            Incoming::Closed => return,
            Incoming::Malformed(http::Malformed(message)) => {
                let mut body = String::new();
                http::write_error(&mut body, &message);
                http::reject(&mut stream, &body, &mut buffers.response);
                return;
            }
            Incoming::Request => {}
        }
        let keep_alive =
            !buffers.reader.close && served + 1 < MAX_CONN_REQUESTS && !stop.load(Ordering::SeqCst);
        let answer = dispatch(core, &mut buffers);
        let frame = Frame {
            status: answer.status,
            content_type: &answer.content_type,
            keep_alive,
            retry_after: answer.retry_after,
            trace_id: Some(next_trace_id()),
            backend: answer.backend.as_deref(),
            backend_trace_id: answer.backend_trace.as_deref(),
        };
        http::write_response(&mut buffers.response, &frame, &answer.body);
        if stream.write_all(&buffers.response).is_err() {
            return;
        }
        buffers.reader.trim();
        if !keep_alive {
            return;
        }
    }
}

/// A fully decided response, ready for framing.
struct Answer {
    status: u16,
    body: Vec<u8>,
    content_type: Cow<'static, str>,
    backend: Option<String>,
    backend_trace: Option<String>,
    retry_after: Option<u64>,
}

impl Answer {
    fn json(status: u16, body: String) -> Answer {
        Answer {
            status,
            body: body.into_bytes(),
            content_type: Cow::Borrowed(http::JSON_CONTENT_TYPE),
            backend: None,
            backend_trace: None,
            retry_after: None,
        }
    }

    fn no_backends() -> Answer {
        Answer::json(503, "{\"error\":\"no backends ready\"}".to_string())
    }
}

fn dispatch(core: &Arc<RouterCore>, buffers: &mut ConnBuffers) -> Answer {
    let ConnBuffers {
        reader,
        scratch,
        arena,
        ..
    } = buffers;
    let (method, path, body) = (reader.method.as_str(), reader.path.as_str(), &reader.body);
    match (method, path) {
        ("GET", "/healthz") => Answer::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"backends_configured\":{},\"backends_ready\":{}}}",
                core.backends().len(),
                core.ready_count()
            ),
        ),
        ("GET", "/readyz") => {
            let ready = core.ready_count();
            if ready > 0 {
                Answer::json(
                    200,
                    format!("{{\"status\":\"ready\",\"backends_ready\":{ready}}}"),
                )
            } else {
                Answer::json(
                    503,
                    "{\"status\":\"unready\",\"backends_ready\":0}".to_string(),
                )
            }
        }
        ("GET", "/metrics") => {
            let mut out = String::new();
            metrics::render(core, &mut out, scratch);
            Answer {
                status: 200,
                body: out.into_bytes(),
                content_type: Cow::Borrowed("text/plain; version=0.0.4"),
                backend: None,
                backend_trace: None,
                retry_after: None,
            }
        }
        ("POST", "/rank" | "/aggregate" | "/pipeline") => {
            let key = request_key(path, body, arena);
            match core.forward(method, path, body, key, scratch) {
                ForwardOutcome::NoBackends => Answer::no_backends(),
                ForwardOutcome::Forwarded { backend, response } => Answer {
                    status: response.status,
                    content_type: Cow::Owned(response.content_type),
                    retry_after: response.retry_after,
                    body: response.body,
                    backend: Some(backend),
                    backend_trace: response.trace_id,
                },
            }
        }
        ("POST", "/jobs") => {
            let key = request_key(path, body, arena);
            answer_from_job(jobs::submit(core, body, key, scratch))
        }
        ("GET", _) if path.starts_with("/jobs/") => {
            answer_from_job(jobs::poll(core, &path["/jobs/".len()..], "GET", scratch))
        }
        ("DELETE", _) if path.starts_with("/jobs/") => {
            answer_from_job(jobs::poll(core, &path["/jobs/".len()..], "DELETE", scratch))
        }
        ("GET" | "POST" | "DELETE", _) => {
            Answer::json(404, "{\"error\":\"no such route\"}".to_string())
        }
        _ => Answer::json(405, "{\"error\":\"method not allowed\"}".to_string()),
    }
}

fn answer_from_job(answer: jobs::JobAnswer) -> Answer {
    Answer {
        status: answer.status,
        body: answer.body,
        content_type: Cow::Borrowed(http::JSON_CONTENT_TYPE),
        backend: answer.backend,
        backend_trace: answer.backend_trace,
        retry_after: None,
    }
}

/// The ring key for a request: the engine's cache digest when the
/// body parses, a raw-byte FNV otherwise (the request is forwarded
/// either way — the backend owns the error response).
fn request_key(path: &str, body: &[u8], arena: &mut JsonArena) -> u64 {
    fairrank_engine::server::ring_key(path, body, arena).unwrap_or_else(|| {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &byte in body {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    })
}

fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouterConfig;
    use std::io::Read;

    #[test]
    fn connections_past_the_thread_cap_are_shed_with_503() {
        let core = RouterCore::new(RouterConfig::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let (core, stop) = (Arc::clone(&core), Arc::clone(&stop));
            std::thread::spawn(move || accept_loop(&listener, &core, &stop, 1))
        };
        // a served keep-alive connection holds the only slot
        let mut held = TcpStream::connect(addr).unwrap();
        let mut request = Vec::new();
        http::write_request(&mut request, "GET", "/healthz", b"", true);
        held.write_all(&request).unwrap();
        let mut first = [0u8; 12];
        held.read_exact(&mut first).unwrap();
        assert_eq!(&first, b"HTTP/1.1 200");

        let mut shed = TcpStream::connect(addr).unwrap();
        let mut response = String::new();
        shed.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(response.contains("retry-after: 1\r\n"), "{response}");
        assert_eq!(core.stats.rejected_connections.load(Ordering::Relaxed), 1);

        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        accept.join().unwrap();
    }
}
