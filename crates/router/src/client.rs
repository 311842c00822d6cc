//! Pooled keep-alive HTTP client for one backend.
//!
//! The router holds one [`BackendClient`] per configured backend. Each
//! client keeps a small pool of keep-alive [`TcpStream`]s; a request
//! checks a connection out, writes a `content-length`-framed request
//! into a caller-owned scratch buffer (the reactor's zero-alloc
//! discipline: buffers are reused across requests), reads exactly one
//! framed response, and returns the connection to the pool unless the
//! backend asked to close. Requests and responses go through the
//! engine's codec ([`fairrank_engine::http`]), so a backend response
//! that breaks its framing rules is a transport error.
//!
//! Connections are retired after [`POOL_CONN_REQUESTS`] uses —
//! deliberately below the backend's `--max-conn-requests` default
//! (1024) so it is the router, not the backend, that decides where a
//! connection ends, and a pooled stream is never stranded one write
//! past the backend's limit.

use fairrank_engine::http;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Requests served per pooled connection before it is retired.
const POOL_CONN_REQUESTS: usize = 512;

/// Idle connections kept per backend.
const POOL_IDLE_MAX: usize = 32;

/// A parsed backend response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub content_type: String,
    /// The backend's `x-trace-id`, re-exported to clients as
    /// `x-backend-trace-id` so traces join across tiers.
    pub trace_id: Option<String>,
    /// `Retry-After` seconds on a shed 503.
    pub retry_after: Option<u64>,
    /// Whether the backend asked to close the connection.
    keep_alive: bool,
}

struct PooledConn {
    stream: TcpStream,
    served: usize,
}

/// Keep-alive client for a single backend address.
pub struct BackendClient {
    addr: String,
    idle: Mutex<Vec<PooledConn>>,
    /// Requests currently inside [`BackendClient::request`].
    inflight: AtomicU64,
    /// Requests ever issued to this backend.
    requests: AtomicU64,
    /// Microsecond timestamp (router epoch) until which this backend
    /// is considered shedding (a 503 carried `Retry-After`).
    shed_until_us: AtomicU64,
}

impl BackendClient {
    pub fn new(addr: String) -> BackendClient {
        BackendClient {
            addr,
            idle: Mutex::new(Vec::new()),
            inflight: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            shed_until_us: AtomicU64::new(0),
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Record a `Retry-After: secs` shed observed at `now_us`.
    pub fn note_shed(&self, now_us: u64, secs: u64) {
        self.shed_until_us
            .store(now_us + secs * 1_000_000, Ordering::Relaxed);
    }

    pub fn is_shedding(&self, now_us: u64) -> bool {
        self.shed_until_us.load(Ordering::Relaxed) > now_us
    }

    /// Drop every pooled connection (backend left the ring).
    pub fn drop_pool(&self) {
        crate::lock_recover(&self.idle).clear();
    }

    /// Issue one request over a pooled connection. `scratch` is the
    /// caller's reusable read buffer. A send on a previously pooled
    /// stream that fails (the backend idled it out or died between
    /// requests) is retried once on a fresh connection; errors on a
    /// fresh connection are real backend failures and propagate.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
        timeout: Duration,
        scratch: &mut Vec<u8>,
    ) -> std::io::Result<Response> {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        self.requests.fetch_add(1, Ordering::Relaxed);
        let result = self.request_inner(method, path, body, timeout, scratch);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        result
    }

    fn request_inner(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
        timeout: Duration,
        scratch: &mut Vec<u8>,
    ) -> std::io::Result<Response> {
        loop {
            let (mut conn, reused) = self.checkout()?;
            conn.stream.set_read_timeout(Some(timeout))?;
            match exchange(&mut conn, method, path, body, scratch) {
                Ok(response) => {
                    if response.keep_alive && conn.served < POOL_CONN_REQUESTS {
                        self.check_in(conn);
                    }
                    return Ok(response);
                }
                // a reused stream may have been closed by the backend
                // while idle — retry exactly once on a fresh dial
                Err(_) if reused => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn checkout(&self) -> std::io::Result<(PooledConn, bool)> {
        if let Some(conn) = crate::lock_recover(&self.idle).pop() {
            return Ok((conn, true));
        }
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true).ok();
        Ok((PooledConn { stream, served: 0 }, false))
    }

    fn check_in(&self, conn: PooledConn) {
        let mut idle = crate::lock_recover(&self.idle);
        if idle.len() < POOL_IDLE_MAX {
            idle.push(conn);
        }
    }
}

/// Write one framed request and read one framed response.
fn exchange(
    conn: &mut PooledConn,
    method: &str,
    path: &str,
    body: &[u8],
    scratch: &mut Vec<u8>,
) -> std::io::Result<Response> {
    http::write_request(scratch, method, path, body, true);
    conn.stream.write_all(scratch)?;
    conn.served += 1;
    let mut response_body = Vec::new();
    let head = http::read_response(&mut conn.stream, scratch, &mut response_body)?;
    Ok(Response {
        status: head.status,
        body: response_body,
        content_type: head.content_type.to_string(),
        trace_id: head.trace_id.map(str::to_string),
        retry_after: head.retry_after,
        keep_alive: !head.close,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_window_expires() {
        let client = BackendClient::new("127.0.0.1:1".to_string());
        assert!(!client.is_shedding(0));
        client.note_shed(1_000, 2);
        assert!(client.is_shedding(5_000));
        assert!(!client.is_shedding(2_002_000));
    }
}
