//! `fairrank router` — a consistent-hash front for N `fairrank serve`
//! replicas.
//!
//! The router speaks the exact HTTP/JSON protocol the engine serves
//! (`POST /rank|/aggregate|/pipeline|/jobs`, `GET/DELETE /jobs/{id}`,
//! `GET /metrics|/healthz|/readyz`) and shards requests by the same
//! algorithm+input digest the engine's result cache is keyed by
//! ([`fairrank_engine::server::ring_key`]), so each request lands on
//! the replica that already holds its cached result. Responses are
//! forwarded byte-for-byte: a client cannot tell — except for the
//! extra `x-backend`/`x-backend-trace-id` headers — whether it spoke
//! to a replica or to the router.
//!
//! Membership is health-gated: a prober thread hits every backend's
//! `/readyz` on a fixed interval, and a replica that answers anything
//! but 200 (draining, dead, partitioned) leaves the ring. Connection
//! errors evict immediately, without waiting for the next probe. When
//! a replica leaves, every non-terminal batch job the router placed on
//! it is resubmitted to the key's next owner, so `GET /jobs/{id}`
//! keeps answering 200 across replica loss. Full failure semantics
//! are documented in `docs/CLUSTER.md`.

#![forbid(unsafe_code)]

pub mod client;
pub mod jobs;
pub mod metrics;
pub mod ring;
pub mod server;

use client::{BackendClient, Response};
use jobs::JobTable;
use ring::HashRing;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Lock `m`, recovering from poisoning. Every mutex in this crate
/// guards plain data (maps, connection pools) that stays structurally
/// valid even if a holder panicked mid-update, so one panicking
/// request must not turn every later request into a panic too.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`lock_recover`] for read-locking an `RwLock`.
pub(crate) fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`lock_recover`] for write-locking an `RwLock`.
pub(crate) fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Router configuration (CLI flags map onto this 1:1).
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Backend `host:port` addresses. The ring starts empty; backends
    /// join as the prober sees them answer `/readyz` with 200.
    pub backends: Vec<String>,
    /// `/readyz` probe interval.
    pub probe_interval: Duration,
    /// Hedge a slow request to the key's next owner after this long;
    /// `None` disables hedging (the default — requests are idempotent
    /// thanks to deterministic seeds, but hedges still double load).
    pub hedge_after: Option<Duration>,
    /// Per-attempt backend read timeout.
    pub request_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            backends: Vec::new(),
            probe_interval: Duration::from_millis(200),
            hedge_after: None,
            request_timeout: Duration::from_secs(30),
        }
    }
}

/// Router-own counters, exported under `fairrank_router_*` in the
/// aggregated `GET /metrics`.
#[derive(Default)]
pub struct RouterStats {
    /// Requests entering [`RouterCore::forward`].
    pub requests: AtomicU64,
    /// Extra owner attempts after a failed or shedding one.
    pub retries: AtomicU64,
    /// Hedge requests launched.
    pub hedges: AtomicU64,
    /// Batch jobs re-placed after their owner left the ring.
    pub resubmissions: AtomicU64,
    /// Ring membership transitions (joins + leaves).
    pub ring_churn: AtomicU64,
    /// Requests answered `503 no backends ready`.
    pub no_backend: AtomicU64,
    /// Client connections shed with `503` at the connection-thread cap
    /// or because no thread could be spawned.
    pub rejected_connections: AtomicU64,
}

/// Outcome of forwarding one request.
pub enum ForwardOutcome {
    /// A backend answered (any status — 4xx/5xx pass through).
    Forwarded { backend: String, response: Response },
    /// The ring was empty (or every owner died mid-walk).
    NoBackends,
}

/// Shared router state: the ring, one pooled client per backend, the
/// job table and the counters. Everything the HTTP front and the
/// prober thread touch lives here behind an `Arc`.
pub struct RouterCore {
    pub config: RouterConfig,
    backends: Vec<Arc<BackendClient>>,
    ready: Vec<AtomicBool>,
    ring: RwLock<HashRing>,
    pub stats: RouterStats,
    pub(crate) jobs: JobTable,
    epoch: Instant,
}

impl RouterCore {
    pub fn new(config: RouterConfig) -> Arc<RouterCore> {
        let backends = config
            .backends
            .iter()
            .map(|addr| Arc::new(BackendClient::new(addr.clone())))
            .collect::<Vec<_>>();
        let ready = backends.iter().map(|_| AtomicBool::new(false)).collect();
        Arc::new(RouterCore {
            config,
            backends,
            ready,
            ring: RwLock::new(HashRing::default()),
            stats: RouterStats::default(),
            jobs: JobTable::default(),
            epoch: Instant::now(),
        })
    }

    /// Microseconds since router start (the shed-window clock).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    pub fn backends(&self) -> &[Arc<BackendClient>] {
        &self.backends
    }

    pub fn client(&self, addr: &str) -> Option<&Arc<BackendClient>> {
        self.backends.iter().find(|c| c.addr() == addr)
    }

    /// Backends currently in the ring.
    pub fn ready_count(&self) -> usize {
        read_recover(&self.ring).len()
    }

    /// The failover-ordered owner list for `key` (owner first), as
    /// clients. Snapshot semantics: membership changes during the walk
    /// are handled by per-attempt error handling, not by re-reading.
    fn owners_for(&self, key: u64) -> Vec<Arc<BackendClient>> {
        let ring = read_recover(&self.ring);
        ring.owners(key)
            .into_iter()
            .filter_map(|addr| self.client(addr).cloned())
            .collect()
    }

    /// Rebuild the ring from the currently ready backends.
    fn rebuild_ring(&self) {
        let ready: Vec<&str> = self
            .backends
            .iter()
            .zip(&self.ready)
            .filter(|(_, ready)| ready.load(Ordering::SeqCst))
            .map(|(client, _)| client.addr())
            .collect();
        *write_recover(&self.ring) = HashRing::build(&ready);
    }

    /// A probe saw `addr` answer 200: (re)join the ring.
    fn mark_up(&self, index: usize) {
        if !self.ready[index].swap(true, Ordering::SeqCst) {
            self.stats.ring_churn.fetch_add(1, Ordering::Relaxed);
            self.rebuild_ring();
        }
    }

    /// `addr` failed (connection error or failed probe): leave the
    /// ring immediately, drop its pooled connections, and resubmit the
    /// batch jobs it owned to their keys' next owners.
    pub fn mark_down(&self, addr: &str) {
        let Some(index) = self.backends.iter().position(|c| c.addr() == addr) else {
            return;
        };
        if self.ready[index].swap(false, Ordering::SeqCst) {
            self.stats.ring_churn.fetch_add(1, Ordering::Relaxed);
            self.rebuild_ring();
            self.backends[index].drop_pool();
            jobs::resubmit_for(self, addr);
        }
    }

    /// One probe round: every backend's `/readyz`, one-shot
    /// connections (`connection: close`) so probes never pin a backend
    /// I/O worker the way pooled keep-alive connections would.
    pub fn probe_once(&self) {
        let timeout = self.config.probe_interval.max(Duration::from_millis(50));
        for (index, client) in self.backends.iter().enumerate() {
            if probe_ready(client.addr(), timeout) {
                self.mark_up(index);
            } else if self.ready[index].load(Ordering::SeqCst) {
                self.mark_down(client.addr());
            }
        }
    }

    /// Forward `method path body` to the owner of `key`, walking the
    /// failover sequence on errors and shed 503s. Each distinct owner
    /// is attempted at most once per request (bounded retry); the
    /// walk prefers owners outside their `Retry-After` window but
    /// falls back to shedding ones so a fully shed cluster still gets
    /// the request. An owner that fails at the transport level is
    /// evicted from the ring on the spot.
    pub fn forward(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
        key: u64,
        scratch: &mut Vec<u8>,
    ) -> ForwardOutcome {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let owners = self.owners_for(key);
        if owners.is_empty() {
            self.stats.no_backend.fetch_add(1, Ordering::Relaxed);
            return ForwardOutcome::NoBackends;
        }
        let now = self.now_us();
        let (mut ordered, shedding): (Vec<_>, Vec<_>) =
            owners.into_iter().partition(|c| !c.is_shedding(now));
        ordered.extend(shedding);

        let mut last_shed: Option<(String, Response)> = None;
        let mut index = 0;
        let mut attempts = 0u64;
        while index < ordered.len() {
            let primary = Arc::clone(&ordered[index]);
            let partner = match self.config.hedge_after {
                Some(_) if index + 1 < ordered.len() => Some(Arc::clone(&ordered[index + 1])),
                _ => None,
            };
            let consumed = 1 + usize::from(partner.is_some());
            if attempts > 0 {
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
            }
            attempts += 1;
            let results = match self.config.hedge_after {
                Some(hedge_after) => {
                    self.attempt_hedged(primary, partner, method, path, body, hedge_after)
                }
                None => {
                    let result =
                        primary.request(method, path, body, self.config.request_timeout, scratch);
                    vec![(primary, result)]
                }
            };
            for (backend, result) in results {
                match result {
                    Ok(response) if response.status == 503 => {
                        if let Some(secs) = response.retry_after {
                            backend.note_shed(self.now_us(), secs);
                        }
                        last_shed = Some((backend.addr().to_string(), response));
                    }
                    Ok(response) => {
                        return ForwardOutcome::Forwarded {
                            backend: backend.addr().to_string(),
                            response,
                        }
                    }
                    Err(_) => self.mark_down(backend.addr()),
                }
            }
            index += consumed;
        }
        // every owner either shed or died; a shed response is still a
        // well-formed answer (it carries Retry-After), so propagate it
        if let Some((backend, response)) = last_shed {
            return ForwardOutcome::Forwarded { backend, response };
        }
        self.stats.no_backend.fetch_add(1, Ordering::Relaxed);
        ForwardOutcome::NoBackends
    }

    /// Launch the primary attempt on its own thread; if no response
    /// arrives within `hedge_after`, launch the same request at the
    /// key's next owner and take whichever answers first. The loser's
    /// response is discarded (requests are idempotent: deterministic
    /// seeds make duplicate executions byte-identical).
    fn attempt_hedged(
        &self,
        primary: Arc<BackendClient>,
        partner: Option<Arc<BackendClient>>,
        method: &str,
        path: &str,
        body: &[u8],
        hedge_after: Duration,
    ) -> Vec<(Arc<BackendClient>, std::io::Result<Response>)> {
        type Attempt = (Arc<BackendClient>, std::io::Result<Response>);
        // bounded at 2: at most two attempts (primary + hedge) each
        // send exactly once, so neither send can ever block
        let (tx, rx) = mpsc::sync_channel::<Attempt>(2);
        let timeout = self.config.request_timeout;
        let spawn_attempt = |client: Arc<BackendClient>, tx: mpsc::SyncSender<Attempt>| {
            let run = {
                let (client, tx) = (Arc::clone(&client), tx.clone());
                let (method, path, body) = (method.to_string(), path.to_string(), body.to_vec());
                move || {
                    let mut scratch = Vec::new();
                    let result = client.request(&method, &path, &body, timeout, &mut scratch);
                    let _ = tx.send((client, result));
                }
            };
            if std::thread::Builder::new().spawn(run).is_err() {
                // no thread to overlap with: run the attempt inline
                // (the channel holds both possible sends, so this
                // cannot block)
                let mut scratch = Vec::new();
                let result = client.request(method, path, body, timeout, &mut scratch);
                let _ = tx.send((client, result));
            }
        };
        spawn_attempt(primary, tx.clone());
        let mut expected = 1;
        let mut results: Vec<Attempt> = Vec::with_capacity(2);
        match rx.recv_timeout(hedge_after) {
            Ok(first) => results.push(first),
            Err(_) => {
                if let Some(partner) = partner {
                    self.stats.hedges.fetch_add(1, Ordering::Relaxed);
                    spawn_attempt(partner, tx.clone());
                    expected = 2;
                }
            }
        }
        drop(tx);
        while results.len() < expected {
            match rx.recv() {
                Ok(attempt) => {
                    let winner = matches!(&attempt.1, Ok(response) if response.status != 503);
                    results.push(attempt);
                    if winner {
                        // the in-flight loser keeps running detached;
                        // its send lands in a closed channel
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        results
    }
}

/// One-shot `/readyz` probe: 200 within `timeout` means ready.
fn probe_ready(addr: &str, timeout: Duration) -> bool {
    use std::io::Write;
    let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
        return false;
    };
    if stream.set_read_timeout(Some(timeout)).is_err() {
        return false;
    }
    let mut buf = Vec::new();
    fairrank_engine::http::write_request(&mut buf, "GET", "/readyz", b"", false);
    if stream.write_all(&buf).is_err() {
        return false;
    }
    let mut body = Vec::new();
    fairrank_engine::http::read_response(&mut stream, &mut buf, &mut body)
        .is_ok_and(|head| head.status == 200)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_starts_empty_and_forward_reports_no_backends() {
        let core = RouterCore::new(RouterConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            ..RouterConfig::default()
        });
        assert_eq!(core.ready_count(), 0);
        let mut scratch = Vec::new();
        match core.forward("POST", "/rank", b"{}", 7, &mut scratch) {
            ForwardOutcome::NoBackends => {}
            ForwardOutcome::Forwarded { .. } => panic!("empty ring must not forward"),
        }
        assert_eq!(core.stats.no_backend.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn mark_down_of_unready_backend_is_a_no_op() {
        let core = RouterCore::new(RouterConfig {
            backends: vec!["127.0.0.1:1".to_string()],
            ..RouterConfig::default()
        });
        core.mark_down("127.0.0.1:1");
        core.mark_down("10.9.9.9:9");
        assert_eq!(core.stats.ring_churn.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn mark_up_then_down_counts_churn_and_updates_ring() {
        let core = RouterCore::new(RouterConfig {
            backends: vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()],
            ..RouterConfig::default()
        });
        core.mark_up(0);
        core.mark_up(1);
        core.mark_up(1); // idempotent
        assert_eq!(core.ready_count(), 2);
        core.mark_down("127.0.0.1:1");
        assert_eq!(core.ready_count(), 1);
        assert_eq!(core.stats.ring_churn.load(Ordering::Relaxed), 3);
    }
}
