//! **fairrank-engine** — the workspace's concurrent batch-serving
//! subsystem.
//!
//! The paper's pipeline (Mallows randomization around an aggregated
//! consensus, plus the group-aware post-processors) existed only as
//! one-shot library calls and a CLI. This crate turns it into a
//! long-lived service:
//!
//! * a [`registry::Registry`] where every aggregator (`borda`,
//!   `copeland`, `footrule`, `kemeny`, `markov`), every fair
//!   post-processor (`mallows`, `gr-binary`, `exact-kt`, `ipf`, …) and
//!   the two-stage `pipeline` is registered by name behind a common
//!   `RankJob → RankResult` trait object;
//! * an [`Engine`] running jobs on a fixed [`pool::WorkerPool`] with a
//!   bounded queue, per-job deterministic RNG seeding and an
//!   [`cache::LruCache`] keyed on the job digest (algorithm + input +
//!   params), so repeated queries are served from memory;
//! * an HTTP/1.1 JSON API ([`server`]) on `std::net::TcpListener` —
//!   `POST /rank`, `POST /aggregate`, `POST /pipeline`, `GET /healthz`,
//!   `GET /readyz`, `GET /stats`, `GET /metrics` — wired into the CLI
//!   as `fairrank serve`, framed by the workspace's one HTTP/1.1 codec
//!   ([`http`]), which the cluster router also speaks through;
//! * an operability layer: Prometheus metrics with per-route and
//!   per-algorithm latency histograms ([`stats`],
//!   [`Engine::render_metrics`]), an optional structured access log,
//!   and a graceful drain ([`Engine::begin_drain`],
//!   [`server::DrainControl`]) that finishes in-flight requests and
//!   running batch jobs while shedding new work.
//!
//! ```
//! use fairrank_engine::{Engine, EngineConfig};
//! use fairrank_engine::job::{JobInput, JobParams, RankJob};
//!
//! let engine = Engine::new(EngineConfig::default());
//! let job = RankJob {
//!     algorithm: "borda".to_string(),
//!     input: JobInput::Votes {
//!         votes: vec![vec![0, 1, 2], vec![0, 2, 1], vec![1, 0, 2]],
//!         groups: vec![],
//!     },
//!     params: JobParams::default(),
//! };
//! let result = engine.submit(job).unwrap();
//! assert_eq!(result.ranking, vec![0, 1, 2]);
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod cache;
pub mod http;
pub mod job;
pub mod json;
pub mod num;
mod plan;
pub mod pool;
pub mod registry;
pub mod server;
pub mod stats;
pub mod tables;
pub mod trace;

use batch::JobStore;
use cache::ShardedLru;
use job::{RankJob, RankResult};
use pool::{SubmitError, WorkerPool};
use registry::Registry;
use stats::{
    EngineStats, JobOrigin, LatencyHistogram, MetricFamily, MetricSample, MetricValue, RouteClass,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use tables::{ExecContext, TableCache};
use trace::{FlightRecorder, TraceHandle};

/// Lock `m`, recovering from poisoning. The request paths must not
/// unwind: every mutex in this crate guards plain bookkeeping (job
/// maps, queues, caches) that stays structurally valid even when a
/// holder panicked mid-update, so one panicking request must not turn
/// every later request into a panic too.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`lock_recover`] for a condvar wait.
pub(crate) fn wait_recover<'a, T>(
    cv: &std::sync::Condvar,
    guard: std::sync::MutexGuard<'a, T>,
) -> std::sync::MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Errors surfaced by the engine.
#[derive(Debug)]
pub enum EngineError {
    /// No algorithm with this name is registered.
    UnknownAlgorithm(String),
    /// The job payload is malformed for the chosen algorithm.
    InvalidJob(String),
    /// The algorithm itself failed (wrapped library error, chained via
    /// [`std::error::Error::source`]).
    Algorithm(Box<dyn std::error::Error + Send + Sync>),
    /// The bounded job queue is full — shed load and retry later.
    Overloaded,
    /// The engine is shutting down (or the job's worker died).
    ShuttingDown,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownAlgorithm(name) => write!(f, "unknown algorithm `{name}`"),
            EngineError::InvalidJob(m) => write!(f, "invalid job: {m}"),
            EngineError::Algorithm(e) => write!(f, "algorithm failed: {e}"),
            EngineError::Overloaded => write!(f, "job queue full"),
            EngineError::ShuttingDown => write!(f, "engine shutting down"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Algorithm(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl EngineError {
    /// A copy for broadcasting one failure to every coalesced waiter
    /// (the wrapped algorithm error is not `Clone`, so its message is
    /// preserved but the deeper source chain flattens to one level).
    fn duplicate(&self) -> EngineError {
        match self {
            EngineError::UnknownAlgorithm(s) => EngineError::UnknownAlgorithm(s.clone()),
            EngineError::InvalidJob(s) => EngineError::InvalidJob(s.clone()),
            EngineError::Algorithm(e) => EngineError::Algorithm(e.to_string().into()),
            EngineError::Overloaded => EngineError::Overloaded,
            EngineError::ShuttingDown => EngineError::ShuttingDown,
        }
    }
}

/// Engine sizing knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded job-queue capacity (jobs beyond it are rejected).
    pub queue_capacity: usize,
    /// LRU result-cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Sampler-table cache capacity in `(n, θ)` entries (0 disables).
    pub table_cache_capacity: usize,
    /// Shard count for the result and sampler-table caches (rounded up
    /// to a power of two; 0 picks a machine-appropriate count).
    pub cache_shards: usize,
    /// Batch-runner threads executing asynchronous `/jobs` batches
    /// (each runs one batch at a time, chunk by chunk).
    pub job_runners: usize,
    /// Batch-job store capacity: live + recently finished jobs kept
    /// for polling; the oldest finished jobs are evicted beyond it.
    pub job_capacity: usize,
    /// Flight-recorder ring capacity: the most recent traces kept for
    /// `GET /debug/traces`.
    pub trace_recent: usize,
    /// Flight-recorder slow-track capacity: the slowest traces kept.
    pub trace_slow: usize,
    /// Requests at/above this end-to-end duration (µs) enter the
    /// slow track (`--trace-slow-us`).
    pub trace_slow_us: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            queue_capacity: 256,
            cache_capacity: 1024,
            table_cache_capacity: 64,
            cache_shards: 0,
            job_runners: 2,
            job_capacity: 256,
            trace_recent: 128,
            trace_slow: 32,
            trace_slow_us: 10_000,
        }
    }
}

type JobOutcome = Result<Arc<RankResult>, EngineError>;

/// Saturating microsecond conversion for span arithmetic.
fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The serving engine: registry + worker pool + result cache + stats.
pub struct Engine {
    registry: Registry,
    pool: WorkerPool,
    cache: ShardedLru,
    /// Digest → waiters of the in-flight execution of that digest.
    /// Concurrent identical submissions coalesce onto one execution
    /// instead of stampeding the pool. Lock order: `inflight` may be
    /// held while taking a cache shard, never the other way around.
    inflight: Mutex<HashMap<u64, Vec<mpsc::SyncSender<JobOutcome>>>>,
    /// Shared per-run resources (the sampler-table cache), handed to
    /// every algorithm execution.
    exec: ExecContext,
    /// Asynchronous `/jobs` batches and their lifecycle counters.
    jobs: JobStore,
    /// Dedicated runners draining queued batches (separate from
    /// `pool`, so a long batch can never starve synchronous requests —
    /// its chunks still execute on `pool`, one at a time).
    batch_pool: WorkerPool,
    stats: EngineStats,
    /// Per-algorithm latency histograms (service time and queue wait),
    /// name-sorted and fixed at construction from the registry, so
    /// recording is a lock-free binary search + atomic add.
    algo_latency: Vec<AlgoLatency>,
    /// Bounded store of recent and slow request traces, served at
    /// `GET /debug/traces`.
    flight: FlightRecorder,
    /// Raised by [`Engine::begin_drain`]: new batch jobs are rejected,
    /// queued batches are cancelled, readiness reports not-ready.
    draining: AtomicBool,
}

/// One algorithm's latency series.
struct AlgoLatency {
    name: String,
    /// `Algorithm::run` wall-clock (`fairrank_algorithm_duration_us`).
    service: LatencyHistogram,
    /// Worker-pool queue wait (`fairrank_algorithm_queue_wait_us`).
    queue_wait: LatencyHistogram,
}

impl Engine {
    /// Build an engine with the standard registry.
    pub fn new(config: EngineConfig) -> Arc<Engine> {
        Engine::with_registry(config, Registry::standard())
    }

    /// Build an engine with a custom registry.
    pub fn with_registry(config: EngineConfig, registry: Registry) -> Arc<Engine> {
        let cache_shards = if config.cache_shards == 0 {
            ShardedLru::auto_shards(config.cache_capacity)
        } else {
            config.cache_shards
        };
        let table_shards = if config.cache_shards == 0 {
            ShardedLru::auto_shards(config.table_cache_capacity)
        } else {
            config.cache_shards
        };
        let mut algo_latency: Vec<AlgoLatency> = registry
            .names()
            .into_iter()
            .map(|name| AlgoLatency {
                name: name.to_string(),
                service: LatencyHistogram::new(),
                queue_wait: LatencyHistogram::new(),
            })
            .collect();
        algo_latency.sort_by(|a, b| a.name.cmp(&b.name));
        Arc::new(Engine {
            registry,
            pool: WorkerPool::new(config.workers, config.queue_capacity),
            cache: ShardedLru::new(config.cache_capacity, cache_shards),
            inflight: Mutex::new(HashMap::new()),
            jobs: JobStore::new(config.job_capacity),
            batch_pool: WorkerPool::new(config.job_runners, config.job_capacity),
            // divide the machine between concurrently running jobs:
            // workers × batch_threads ≲ CPU count, so wide-sample
            // fan-out cannot defeat the pool's bounded concurrency
            exec: ExecContext::new(Arc::new(TableCache::with_shards(
                config.table_cache_capacity,
                table_shards,
            )))
            .with_batch_threads((tables::available_parallelism() / config.workers.max(1)).max(1)),
            stats: EngineStats::new(),
            algo_latency,
            flight: FlightRecorder::new(
                config.trace_recent,
                config.trace_slow,
                config.trace_slow_us,
            ),
            draining: AtomicBool::new(false),
        })
    }

    /// Start draining: reject new batch jobs with
    /// [`EngineError::ShuttingDown`], cancel every still-queued batch
    /// job immediately, let running batches finish their remaining
    /// chunks, and report not-ready on `GET /readyz`. Synchronous
    /// submissions keep working so in-flight HTTP requests complete.
    /// Idempotent.
    pub fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.jobs.cancel_queued();
    }

    /// True once [`Engine::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Block until no batch job is queued or running — the drain tail
    /// `fairrank serve` waits on after the HTTP side has stopped, so
    /// running batches are never cut off mid-chunk.
    pub fn wait_batches_idle(&self) {
        loop {
            let (queued, running, ..) = self.jobs.counters();
            if queued == 0 && running == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Record one algorithm execution into its latency histograms.
    fn record_algo_latency(&self, name: &str, run: Duration, waited: Duration) {
        if let Ok(i) = self
            .algo_latency
            .binary_search_by(|a| a.name.as_str().cmp(name))
        {
            self.algo_latency[i].service.record(run);
            self.algo_latency[i].queue_wait.record(waited);
        }
    }

    /// The flight recorder behind `GET /debug/traces` — also the trace
    /// ID allocator ([`FlightRecorder::next_id`]).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The algorithm registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Engine counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The asynchronous batch-job store.
    pub fn job_store(&self) -> &JobStore {
        &self.jobs
    }

    /// The batch-runner pool (crate-internal: `submit_batch` feeds it).
    pub(crate) fn batch_pool(&self) -> &WorkerPool {
        &self.batch_pool
    }

    /// Snapshot of the stats JSON served at `GET /stats`.
    pub fn stats_json(&self) -> json::Json {
        self.stats.to_json(
            self.cache.len(),
            self.cache.capacity(),
            self.pool.workers(),
            &self.exec.tables,
            &self.jobs,
        )
    }

    /// Render the Prometheus text document served at `GET /metrics`
    /// into `out` (appending): every `/stats` counter as an exact
    /// integer, queue/cache gauges, readiness, and the per-route and
    /// per-algorithm latency histograms with cumulative buckets.
    pub fn render_metrics(&self, out: &mut String) {
        let s = &self.stats;
        let read = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        let (jobs_queued, jobs_running, jobs_completed, jobs_failed, jobs_cancelled, high_water) =
            self.jobs.counters();
        let route_samples: Vec<MetricSample<'_>> = RouteClass::ALL
            .iter()
            .map(|&route| MetricSample {
                labels: vec![("route", route.as_str())],
                value: MetricValue::Histogram(s.route_latency(route)),
            })
            .collect();
        let algo_samples: Vec<MetricSample<'_>> = self
            .algo_latency
            .iter()
            .map(|a| MetricSample {
                labels: vec![("algorithm", a.name.as_str())],
                value: MetricValue::Histogram(&a.service),
            })
            .collect();
        let algo_queue_samples: Vec<MetricSample<'_>> = self
            .algo_latency
            .iter()
            .map(|a| MetricSample {
                labels: vec![("algorithm", a.name.as_str())],
                value: MetricValue::Histogram(&a.queue_wait),
            })
            .collect();
        let origin_samples = |pick: fn(&EngineStats, JobOrigin) -> &LatencyHistogram| {
            JobOrigin::ALL
                .iter()
                .map(|&origin| MetricSample {
                    labels: vec![("route", origin.as_str())],
                    value: MetricValue::Histogram(pick(s, origin)),
                })
                .collect::<Vec<_>>()
        };
        let scalar = MetricFamily::scalar;
        let mut families = vec![
            scalar(
                "fairrank_uptime_seconds",
                "Seconds since the engine started",
                MetricValue::GaugeF64(s.uptime_seconds()),
            ),
            scalar(
                "fairrank_ready",
                "1 while serving, 0 once draining has begun",
                MetricValue::Gauge(u64::from(!self.is_draining())),
            ),
            scalar(
                "fairrank_workers",
                "Worker threads executing chunks",
                MetricValue::Gauge(self.pool.workers() as u64),
            ),
            scalar(
                "fairrank_workers_busy",
                "Worker threads currently executing a chunk",
                MetricValue::Gauge(self.pool.busy()),
            ),
            scalar(
                "fairrank_cache_hits_total",
                "Chunks served from the result cache",
                MetricValue::Counter(read(&s.cache_hits)),
            ),
            scalar(
                "fairrank_cache_misses_total",
                "Chunks that had to be executed",
                MetricValue::Counter(read(&s.cache_misses)),
            ),
            scalar(
                "fairrank_cache_entries",
                "Result-cache entries currently stored",
                MetricValue::Gauge(self.cache.len() as u64),
            ),
            scalar(
                "fairrank_cache_capacity",
                "Result-cache capacity",
                MetricValue::Gauge(self.cache.capacity() as u64),
            ),
            scalar(
                "fairrank_sampler_table_hits_total",
                "Sampler-table cache hits",
                MetricValue::Counter(self.exec.tables.hits()),
            ),
            scalar(
                "fairrank_sampler_table_misses_total",
                "Sampler-table cache misses (table builds)",
                MetricValue::Counter(self.exec.tables.misses()),
            ),
            scalar(
                "fairrank_sampler_table_entries",
                "Sampler tables currently cached",
                MetricValue::Gauge(self.exec.tables.len() as u64),
            ),
            scalar(
                "fairrank_chunks_executed_total",
                "Chunks completed successfully on a worker",
                MetricValue::Counter(read(&s.chunks_executed)),
            ),
            scalar(
                "fairrank_chunks_failed_total",
                "Chunks whose algorithm returned an error",
                MetricValue::Counter(read(&s.chunks_failed)),
            ),
            scalar(
                "fairrank_criterion_samples_abandoned_total",
                "Mallows samples dropped by the exact early-abandon bound",
                MetricValue::Counter(read(&s.criterion_samples_abandoned)),
            ),
            scalar(
                "fairrank_chunks_coalesced_total",
                "Submissions coalesced onto an identical in-flight chunk",
                MetricValue::Counter(read(&s.chunks_coalesced)),
            ),
            scalar(
                "fairrank_queue_rejections_total",
                "Chunks shed because the bounded queue was full",
                MetricValue::Counter(read(&s.queue_rejections)),
            ),
            scalar(
                "fairrank_jobs_queued",
                "Batch jobs waiting for a runner",
                MetricValue::Gauge(jobs_queued),
            ),
            scalar(
                "fairrank_jobs_running",
                "Batch jobs currently executing",
                MetricValue::Gauge(jobs_running),
            ),
            scalar(
                "fairrank_jobs_completed_total",
                "Batch jobs finished with every chunk successful",
                MetricValue::Counter(jobs_completed),
            ),
            scalar(
                "fairrank_jobs_failed_total",
                "Batch jobs stopped on a chunk error",
                MetricValue::Counter(jobs_failed),
            ),
            scalar(
                "fairrank_jobs_cancelled_total",
                "Batch jobs cancelled before completion",
                MetricValue::Counter(jobs_cancelled),
            ),
            scalar(
                "fairrank_jobs_queue_high_water",
                "Highest simultaneous batch-queue depth observed",
                MetricValue::Gauge(high_water),
            ),
            scalar(
                "fairrank_jobs_stored",
                "Batch jobs (any state) held for polling",
                MetricValue::Gauge(self.jobs.len() as u64),
            ),
            scalar(
                "fairrank_http_requests_total",
                "HTTP requests parsed",
                MetricValue::Counter(read(&s.http_requests)),
            ),
            scalar(
                "fairrank_http_errors_total",
                "HTTP responses with a 4xx/5xx status",
                MetricValue::Counter(read(&s.http_errors)),
            ),
            scalar(
                "fairrank_connections_total",
                "Connections accepted by the listener",
                MetricValue::Counter(read(&s.connections)),
            ),
            scalar(
                "fairrank_rejected_connections_total",
                "Connections shed with 503: with Retry-After when the backlog is full, without it while draining",
                MetricValue::Counter(read(&s.rejected_connections)),
            ),
            MetricFamily {
                name: "fairrank_http_request_duration_us",
                help:
                    "Per-route service latency in microseconds (request parsed to response written)",
                samples: route_samples,
            },
            MetricFamily {
                name: "fairrank_queue_wait_us",
                help: "Time chunks sat in the bounded worker-pool queue, in microseconds, \
                       by submission route (measured where the pool dequeues)",
                samples: origin_samples(EngineStats::queue_wait),
            },
            MetricFamily {
                name: "fairrank_service_us",
                help: "Algorithm execution time in microseconds, by submission route",
                samples: origin_samples(EngineStats::service),
            },
            MetricFamily {
                name: "fairrank_algorithm_duration_us",
                help: "Per-algorithm execution latency in microseconds, over the worker pool",
                samples: algo_samples,
            },
            MetricFamily {
                name: "fairrank_algorithm_queue_wait_us",
                help: "Per-algorithm worker-pool queue wait in microseconds",
                samples: algo_queue_samples,
            },
            scalar(
                "process_uptime_seconds",
                "Seconds since the engine process started",
                MetricValue::GaugeF64(s.uptime_seconds()),
            ),
        ];
        if let Some(process) = stats::process_self_metrics() {
            families.push(scalar(
                "process_resident_memory_bytes",
                "Resident set size from /proc/self/status",
                MetricValue::Gauge(process.rss_bytes),
            ));
            families.push(scalar(
                "process_open_fds",
                "Open file descriptors from /proc/self/fd",
                MetricValue::Gauge(process.open_fds),
            ));
        }
        stats::render_prometheus(&families, out);
    }

    /// Submit a job and wait for its result.
    ///
    /// The cache is consulted first (hits cost one `Arc` clone). A
    /// submission identical to a job already in flight coalesces onto
    /// that execution instead of running the algorithm again. On a
    /// genuine miss the job runs on the worker pool with an RNG seeded
    /// from `job.params.seed`, so results are reproducible regardless
    /// of which worker picks the job up. Returns
    /// [`EngineError::Overloaded`] without blocking when the bounded
    /// queue is full.
    pub fn submit(self: &Arc<Self>, job: RankJob) -> Result<Arc<RankResult>, EngineError> {
        self.submit_traced(job, JobOrigin::Direct, None)
    }

    /// [`Engine::submit`] with observability attribution: `origin`
    /// labels the queue-wait/service histograms in `GET /metrics`, and
    /// `trace` (when present) receives the engine-side spans — cache
    /// lookup on this thread, queue wait and run time from the worker
    /// — and threads its trace ID into the [`ExecContext`] handed to
    /// `Algorithm::run`. The HTTP layer and the batch runner call this
    /// so every request and every `/jobs` chunk shows up in
    /// `GET /debug/traces`.
    pub fn submit_traced(
        self: &Arc<Self>,
        job: RankJob,
        origin: JobOrigin,
        trace: Option<&TraceHandle>,
    ) -> Result<Arc<RankResult>, EngineError> {
        let algorithm = self
            .registry
            .get(&job.algorithm)
            .ok_or_else(|| EngineError::UnknownAlgorithm(job.algorithm.clone()))?;
        let lookup_started = Instant::now();
        let key = job.digest();

        // cache hit, coalesce onto an in-flight twin, or become the
        // owner of a new execution — decided under the inflight lock so
        // a completing twin cannot slip between the checks
        // bounded at 1: each waiter's sender delivers exactly one
        // outcome, so the completing owner never blocks on the send
        let (tx, rx) = mpsc::sync_channel::<JobOutcome>(1);
        {
            let mut inflight = lock_recover(&self.inflight);
            if let Some(hit) = self.cache.get(key) {
                EngineStats::bump(&self.stats.cache_hits);
                if let Some(t) = trace {
                    t.spans
                        .cache_us
                        .store(duration_us(lookup_started.elapsed()), Ordering::Relaxed);
                    t.spans.cache_hit.store(true, Ordering::Relaxed);
                }
                return Ok(hit);
            }
            if let Some(waiters) = inflight.get_mut(&key) {
                waiters.push(tx);
                EngineStats::bump(&self.stats.chunks_coalesced);
                drop(inflight);
                if let Some(t) = trace {
                    t.spans
                        .cache_us
                        .store(duration_us(lookup_started.elapsed()), Ordering::Relaxed);
                    // coalesced: served by the in-flight twin's
                    // execution, like a (slightly early) cache hit
                    t.spans.cache_hit.store(true, Ordering::Relaxed);
                }
                return rx.recv().map_err(|_| EngineError::ShuttingDown)?;
            }
            inflight.insert(key, vec![tx]);
        }
        if let Some(t) = trace {
            t.spans
                .cache_us
                .store(duration_us(lookup_started.elapsed()), Ordering::Relaxed);
        }

        let engine = Arc::clone(self);
        let trace = trace.cloned();
        let submitted = self.pool.try_submit(Box::new(move |waited| {
            engine.stats.queue_wait(origin).record(waited);
            if let Some(t) = &trace {
                t.spans
                    .queue_us
                    .store(duration_us(waited), Ordering::Relaxed);
            }
            let exec_traced;
            let exec = match &trace {
                Some(t) => {
                    exec_traced = engine.exec.clone().with_trace_id(t.id);
                    &exec_traced
                }
                None => &engine.exec,
            };
            // a panicking algorithm must still clear the in-flight
            // entry below, or every future twin of this job would
            // coalesce onto a dead execution and hang
            let run_started = Instant::now();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                registry::execute(&*algorithm, &job, exec)
            }))
            .unwrap_or_else(|_| {
                Err(EngineError::Algorithm(
                    "job panicked on a worker".to_string().into(),
                ))
            });
            let run_elapsed = run_started.elapsed();
            engine.record_algo_latency(&job.algorithm, run_elapsed, waited);
            engine.stats.service(origin).record(run_elapsed);
            if let Some(t) = &trace {
                t.spans
                    .run_us
                    .store(duration_us(run_elapsed), Ordering::Relaxed);
            }
            let outcome: JobOutcome = match run {
                Ok(result) => {
                    let result = Arc::new(result);
                    engine.cache.insert(key, Arc::clone(&result));
                    EngineStats::bump(&engine.stats.chunks_executed);
                    if let Some((_, v)) = result
                        .metrics
                        .iter()
                        .find(|(k, _)| k == "criterion_samples_abandoned")
                    {
                        engine
                            .stats
                            .criterion_samples_abandoned
                            .fetch_add(*v as u64, Ordering::Relaxed);
                    }
                    Ok(result)
                }
                Err(e) => {
                    EngineStats::bump(&engine.stats.chunks_failed);
                    Err(e)
                }
            };
            let waiters = lock_recover(&engine.inflight)
                .remove(&key)
                .unwrap_or_default();
            for waiter in waiters {
                let _ = waiter.send(match &outcome {
                    Ok(result) => Ok(Arc::clone(result)),
                    Err(e) => Err(e.duplicate()),
                });
            }
        }));
        match submitted {
            Ok(()) => {
                // only admitted jobs count as misses, so
                // misses == executed + failed holds in /stats
                EngineStats::bump(&self.stats.cache_misses);
            }
            Err(rejection) => {
                // disband the in-flight entry; anyone who coalesced
                // onto it in the meantime is told to retry
                let waiters = lock_recover(&self.inflight)
                    .remove(&key)
                    .unwrap_or_default();
                for waiter in waiters {
                    let _ = waiter.send(Err(EngineError::Overloaded));
                }
                return match rejection {
                    SubmitError::QueueFull => {
                        EngineStats::bump(&self.stats.queue_rejections);
                        Err(EngineError::Overloaded)
                    }
                    SubmitError::ShuttingDown => Err(EngineError::ShuttingDown),
                };
            }
        }
        rx.recv().map_err(|_| EngineError::ShuttingDown)?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use job::{JobInput, JobParams};
    use rand::rngs::StdRng;

    fn engine() -> Arc<Engine> {
        Engine::new(EngineConfig {
            workers: 2,
            queue_capacity: 32,
            cache_capacity: 8,

            table_cache_capacity: 16,
            cache_shards: 0,
            ..EngineConfig::default()
        })
    }

    fn borda_job(seed: u64) -> RankJob {
        RankJob {
            algorithm: "borda".to_string(),
            input: JobInput::Votes {
                votes: vec![vec![0, 1, 2, 3], vec![1, 0, 2, 3], vec![0, 1, 3, 2]],
                groups: vec![0, 0, 1, 1],
            },
            params: JobParams {
                seed,
                ..JobParams::default()
            },
        }
    }

    #[test]
    fn submit_runs_and_caches() {
        let e = engine();
        let first = e.submit(borda_job(1)).unwrap();
        let second = e.submit(borda_job(1)).unwrap();
        assert_eq!(first, second);
        assert!(
            Arc::ptr_eq(&first, &second),
            "second call must be a cache hit"
        );
        let json = e.stats_json().to_string();
        assert!(json.contains("\"cache_hits\":1"), "{json}");
        assert!(json.contains("\"cache_misses\":1"), "{json}");
    }

    #[test]
    fn different_seeds_are_different_cache_entries() {
        let e = engine();
        let _ = e.submit(borda_job(1)).unwrap();
        let _ = e.submit(borda_job(2)).unwrap();
        let json = e.stats_json().to_string();
        assert!(json.contains("\"cache_misses\":2"), "{json}");
    }

    #[test]
    fn unknown_algorithm_rejected_without_queueing() {
        let e = engine();
        let mut job = borda_job(1);
        job.algorithm = "psychic".to_string();
        assert!(matches!(
            e.submit(job),
            Err(EngineError::UnknownAlgorithm(_))
        ));
    }

    #[test]
    fn algorithm_errors_propagate() {
        let e = engine();
        let job = RankJob {
            algorithm: "borda".to_string(),
            input: JobInput::Votes {
                votes: vec![],
                groups: vec![],
            },
            params: JobParams::default(),
        };
        let err = e.submit(job).unwrap_err();
        assert!(matches!(err, EngineError::InvalidJob(_)), "{err}");
    }

    #[test]
    fn concurrent_submissions_from_many_threads() {
        let e = Engine::new(EngineConfig {
            workers: 4,
            queue_capacity: 256,
            cache_capacity: 256,

            table_cache_capacity: 16,
            cache_shards: 0,
            ..EngineConfig::default()
        });
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || {
                    for i in 0..8 {
                        let out = e.submit(borda_job(t * 8 + i)).unwrap();
                        assert_eq!(out.ranking.len(), 4);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let json = e.stats_json().to_string();
        assert!(json.contains("\"chunks_executed\":64"), "{json}");
    }

    #[test]
    fn identical_concurrent_jobs_coalesce_to_one_execution() {
        let e = Engine::new(EngineConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 64,

            table_cache_capacity: 16,
            cache_shards: 0,
            ..EngineConfig::default()
        });
        // a heavy job, raced by 8 threads: exactly one execution, the
        // other 7 either coalesce onto it or hit the cache afterwards
        let n = 80;
        let job = move || RankJob {
            algorithm: "mallows".to_string(),
            input: JobInput::Scores {
                scores: (0..n).map(|i| 1.0 - i as f64 / n as f64).collect(),
                groups: (0..n).map(|i| usize::from(i >= n / 2)).collect(),
            },
            params: JobParams {
                samples: 40,
                seed: 3,
                ..JobParams::default()
            },
        };
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || e.submit(job()).unwrap())
            })
            .collect();
        let results: Vec<Arc<RankResult>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results {
            assert_eq!(r, &results[0]);
        }
        let json = e.stats_json().to_string();
        assert!(
            json.contains("\"chunks_executed\":1"),
            "stampede must collapse to one execution: {json}"
        );
    }

    #[test]
    fn rejected_submissions_do_not_count_as_cache_misses() {
        use crate::registry::{Algorithm, AlgorithmKind};
        use std::sync::mpsc::{channel, Sender};

        // an algorithm that blocks until released, so the single
        // worker stays busy and the queue (capacity 1) fills up
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
                job: &RankJob,
                _ctx: &ExecContext,
                _rng: &mut StdRng,
            ) -> Result<RankResult, EngineError> {
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
        let mut registry = Registry::new();
        registry.register(Arc::new(Gated {
            release: Mutex::new(Some(release_rx)),
            started: started_tx,
        }));
        let e = Engine::with_registry(
            EngineConfig {
                workers: 1,
                queue_capacity: 1,
                cache_capacity: 8,

                table_cache_capacity: 16,
                cache_shards: 0,
                ..EngineConfig::default()
            },
            registry,
        );
        let gated_job = |seed| RankJob {
            algorithm: "gated".to_string(),
            input: JobInput::Scores {
                scores: vec![1.0],
                groups: vec![],
            },
            params: JobParams {
                seed,
                ..JobParams::default()
            },
        };

        // occupy the worker, then fill the queue
        let runner = {
            let e = Arc::clone(&e);
            let job = gated_job(1);
            std::thread::spawn(move || e.submit(job).unwrap())
        };
        started_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap();
        let queued = {
            let e = Arc::clone(&e);
            let job = gated_job(2);
            std::thread::spawn(move || e.submit(job).unwrap())
        };
        // wait until the queued job is actually enqueued
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !e.stats_json().to_string().contains("\"cache_misses\":2") {
            assert!(std::time::Instant::now() < deadline, "{}", e.stats_json());
            std::thread::yield_now();
        }

        // queue full: this submission must be rejected without
        // inflating the miss counter
        let err = e.submit(gated_job(3)).unwrap_err();
        assert!(matches!(err, EngineError::Overloaded), "{err}");
        let json = e.stats_json().to_string();
        assert!(json.contains("\"cache_misses\":2"), "{json}");
        assert!(json.contains("\"queue_rejections\":1"), "{json}");

        release_tx.send(()).unwrap();
        runner.join().unwrap();
        queued.join().unwrap();
    }

    #[test]
    fn error_source_chains() {
        use std::error::Error as _;
        let e = engine();
        let job = RankJob {
            algorithm: "gr-binary".to_string(),
            input: JobInput::Scores {
                scores: vec![1.0, 0.8, 0.6],
                groups: vec![0, 1, 2], // three groups: GrBinary must fail
            },
            params: JobParams::default(),
        };
        let err = e.submit(job).unwrap_err();
        assert!(matches!(err, EngineError::Algorithm(_)), "{err}");
        assert!(err.source().is_some(), "wrapped error must chain");
    }
}
