//! Engine-wide observability: counters, gauges and lock-free latency
//! histograms, exported as JSON over `GET /stats` and as Prometheus
//! text format over `GET /metrics`.
//!
//! The module is organized as a small labeled metrics registry:
//!
//! * [`LatencyHistogram`] — the lock-free log-scale histogram used for
//!   the global, per-route and per-algorithm latency series, with
//!   cumulative-bucket export (`LatencyHistogram::cumulative_le`)
//!   for the Prometheus `_bucket{le=…}` convention;
//! * [`EngineStats`] — the engine's counter block, including one
//!   histogram per [`RouteClass`];
//! * [`MetricFamily`] / [`render_prometheus`] — the exposition-format
//!   renderer: `# HELP`/`# TYPE` headers, exact `u64` values (no `f64`
//!   round-trip, so counters above 2^53 render digit-exact), labeled
//!   series, and cumulative histogram buckets;
//! * [`validate_prometheus_text`] — a strict checker used by the
//!   integration tests and the CI scrape step.

use crate::batch::JobStore;
use crate::json::Json;
use crate::num;
use crate::tables::TableCache;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of histogram buckets: 8 exact buckets for 0–7 µs plus 4
/// sub-buckets per power of two above that, covering the full `u64`
/// range.
const BUCKETS: usize = 8 + 61 * 4;

/// Lock-free log-scale latency histogram.
///
/// Values (microseconds) land in fixed buckets: exact below 8 µs, then
/// four sub-buckets per octave (relative error ≤ 12.5 %), the same
/// bucketing idea as HdrHistogram's low-precision mode. Recording is
/// one relaxed `fetch_add` — no locks, no allocation — so every
/// HTTP worker can record on the hot path.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    /// Sum of every recorded value (µs), for the Prometheus `_sum`
    /// series.
    sum_micros: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Record one latency sample.
    pub fn record(&self, elapsed: Duration) {
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.record_micros(micros);
    }

    /// Record one latency sample, in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Sum of every recorded value, in microseconds.
    fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Approximate `q`-quantile (`0 < q ≤ 1`) in microseconds; 0 when
    /// nothing has been recorded. Accurate to the bucket resolution
    /// (≤ 12.5 % above 8 µs).
    fn quantile_micros(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64 * q.clamp(0.0, 1.0)).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bucket_midpoint(idx);
            }
        }
        bucket_midpoint(BUCKETS - 1)
    }

    /// Cumulative counts at the given inclusive upper bounds (µs),
    /// plus the total sample count — the Prometheus
    /// `_bucket{le=…}`/`_count` export. Bounds must be ascending.
    /// Counts are monotone in `le` by construction and conservative:
    /// a bucket only counts toward a bound that covers its whole value
    /// range, so bounds of the form `2^k - 1` (the [`LATENCY_LE_US`]
    /// defaults) are **exact** — the count at such an `le` is
    /// precisely the number of samples ≤ `le`.
    fn cumulative_le(&self, bounds_us: &[u64]) -> (Vec<u64>, u64) {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let mut cums = Vec::with_capacity(bounds_us.len());
        let mut acc = 0u64;
        let mut idx = 0usize;
        for &le in bounds_us {
            // a bucket counts toward `le` when every value it can hold
            // is ≤ le (buckets are ordered by value range)
            while idx < BUCKETS && bucket_upper_exclusive(idx) <= le.saturating_add(1) {
                acc += counts[idx];
                idx += 1;
            }
            cums.push(acc);
        }
        let total = acc + counts[idx..].iter().sum::<u64>();
        (cums, total)
    }
}

/// Default `le` bounds (µs) for the Prometheus histogram export: 1 µs
/// to ~16.8 s in `2^k - 1` steps, so every bound lands exactly on an
/// internal bucket edge (zero approximation error in the cumulative
/// counts — see [`LatencyHistogram::cumulative_le`]).
const LATENCY_LE_US: [u64; 17] = [
    1, 3, 7, 15, 31, 63, 127, 255, 511, 1023, 4095, 16383, 65535, 262143, 1048575, 4194303,
    16777215,
];

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // ≥ 3
        let sub = ((v >> (exp - 2)) & 0b11) as usize;
        8 + (exp - 3) * 4 + sub
    }
}

/// Midpoint of a bucket's value range — the reported quantile value.
fn bucket_midpoint(idx: usize) -> u64 {
    if idx < 8 {
        idx as u64
    } else {
        let exp = 3 + (idx - 8) / 4;
        let sub = ((idx - 8) % 4) as u64;
        let lower = (1u64 << exp) + (sub << (exp - 2));
        lower + (1u64 << (exp - 2)) / 2
    }
}

/// Exclusive upper edge of a bucket's value range.
fn bucket_upper_exclusive(idx: usize) -> u64 {
    if idx < 8 {
        idx as u64 + 1
    } else {
        let exp = 3 + (idx - 8) / 4;
        let sub = ((idx - 8) % 4) as u64;
        let lower = (1u64 << exp) + (sub << (exp - 2));
        lower.saturating_add(1u64 << (exp - 2))
    }
}

/// HTTP routes tracked with their own latency histograms, the `route`
/// label of `fairrank_http_request_duration_us` in `GET /metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteClass {
    /// `POST /rank`
    Rank,
    /// `POST /aggregate`
    Aggregate,
    /// `POST /pipeline`
    Pipeline,
    /// `POST /jobs`
    JobsSubmit,
    /// `GET /jobs/{id}`
    JobsGet,
    /// `DELETE /jobs/{id}`
    JobsCancel,
    /// `GET /healthz`
    Healthz,
    /// `GET /readyz`
    Readyz,
    /// `GET /stats`
    Stats,
    /// `GET /metrics`
    Metrics,
    /// `GET /debug/traces`
    DebugTraces,
    /// Anything else (404s, bad methods, malformed requests).
    Other,
}

impl RouteClass {
    /// Every route class, in export order.
    pub const ALL: [RouteClass; 12] = [
        RouteClass::Rank,
        RouteClass::Aggregate,
        RouteClass::Pipeline,
        RouteClass::JobsSubmit,
        RouteClass::JobsGet,
        RouteClass::JobsCancel,
        RouteClass::Healthz,
        RouteClass::Readyz,
        RouteClass::Stats,
        RouteClass::Metrics,
        RouteClass::DebugTraces,
        RouteClass::Other,
    ];

    /// The `route` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            RouteClass::Rank => "rank",
            RouteClass::Aggregate => "aggregate",
            RouteClass::Pipeline => "pipeline",
            RouteClass::JobsSubmit => "jobs_submit",
            RouteClass::JobsGet => "jobs_get",
            RouteClass::JobsCancel => "jobs_cancel",
            RouteClass::Healthz => "healthz",
            RouteClass::Readyz => "readyz",
            RouteClass::Stats => "stats",
            RouteClass::Metrics => "metrics",
            RouteClass::DebugTraces => "debug_traces",
            RouteClass::Other => "other",
        }
    }

    fn index(self) -> usize {
        RouteClass::ALL
            .iter()
            .position(|&r| r == self)
            .expect("ALL covers every variant")
    }
}

/// Where a chunk submission came from — the `route` label of the
/// `fairrank_queue_wait_us` and `fairrank_service_us` histograms in
/// `GET /metrics`. Batch chunks get their own label (they share the
/// worker pool with synchronous requests but arrive via `/jobs`), and
/// direct library callers of [`Engine::submit`] are kept apart from
/// HTTP traffic.
///
/// [`Engine::submit`]: crate::Engine::submit
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOrigin {
    /// `POST /rank`
    Rank,
    /// `POST /aggregate`
    Aggregate,
    /// `POST /pipeline`
    Pipeline,
    /// A chunk of an asynchronous `/jobs` batch.
    Batch,
    /// A library caller outside the HTTP server.
    Direct,
}

impl JobOrigin {
    /// Every origin, in export order.
    pub const ALL: [JobOrigin; 5] = [
        JobOrigin::Rank,
        JobOrigin::Aggregate,
        JobOrigin::Pipeline,
        JobOrigin::Batch,
        JobOrigin::Direct,
    ];

    /// The `route` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            JobOrigin::Rank => "rank",
            JobOrigin::Aggregate => "aggregate",
            JobOrigin::Pipeline => "pipeline",
            JobOrigin::Batch => "batch",
            JobOrigin::Direct => "direct",
        }
    }

    fn index(self) -> usize {
        JobOrigin::ALL
            .iter()
            .position(|&o| o == self)
            .expect("ALL covers every variant")
    }
}

/// Monotonic counters shared by the engine and HTTP layer. All loads
/// and stores are `Relaxed`: the counters are advisory telemetry, not
/// synchronization points.
pub struct EngineStats {
    started: Instant,
    /// Jobs served straight from the LRU cache.
    pub cache_hits: AtomicU64,
    /// Jobs that had to be executed.
    pub cache_misses: AtomicU64,
    /// Jobs completed successfully on a worker.
    pub chunks_executed: AtomicU64,
    /// Jobs whose algorithm returned an error.
    pub chunks_failed: AtomicU64,
    /// Mallows samples dropped by the ranker's exact early-abandon
    /// bound before full evaluation (aggregated from each rank job's
    /// `criterion_samples_abandoned` metric).
    pub criterion_samples_abandoned: AtomicU64,
    /// Submissions coalesced onto an identical in-flight job.
    pub chunks_coalesced: AtomicU64,
    /// Jobs rejected because the queue was full.
    pub queue_rejections: AtomicU64,
    /// HTTP requests parsed (all routes; with keep-alive one
    /// connection can contribute many).
    pub http_requests: AtomicU64,
    /// HTTP responses with a 4xx/5xx status.
    pub http_errors: AtomicU64,
    /// Connections accepted by the listener.
    pub connections: AtomicU64,
    /// Connections shed with `503`: with `Retry-After` because the
    /// pending-connection queue was full, without it while draining.
    pub rejected_connections: AtomicU64,
    /// Per-request service latency (request parsed → response
    /// written).
    pub latency: LatencyHistogram,
    /// Per-route service latency, indexed by [`RouteClass`].
    route_latency: [LatencyHistogram; RouteClass::ALL.len()],
    /// Time chunks sat in the bounded worker-pool queue, indexed by
    /// [`JobOrigin`] (measured where the pool dequeues).
    queue_wait: [LatencyHistogram; JobOrigin::ALL.len()],
    /// `Algorithm::run` execution time, indexed by [`JobOrigin`].
    service: [LatencyHistogram; JobOrigin::ALL.len()],
}

impl EngineStats {
    /// Fresh counters; uptime starts now.
    pub fn new() -> Self {
        EngineStats {
            started: Instant::now(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            chunks_executed: AtomicU64::new(0),
            chunks_failed: AtomicU64::new(0),
            criterion_samples_abandoned: AtomicU64::new(0),
            chunks_coalesced: AtomicU64::new(0),
            queue_rejections: AtomicU64::new(0),
            http_requests: AtomicU64::new(0),
            http_errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            rejected_connections: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            route_latency: std::array::from_fn(|_| LatencyHistogram::new()),
            queue_wait: std::array::from_fn(|_| LatencyHistogram::new()),
            service: std::array::from_fn(|_| LatencyHistogram::new()),
        }
    }

    /// Bump a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The latency histogram of one route.
    pub fn route_latency(&self, route: RouteClass) -> &LatencyHistogram {
        &self.route_latency[route.index()]
    }

    /// The queue-wait histogram of one submission origin.
    pub fn queue_wait(&self, origin: JobOrigin) -> &LatencyHistogram {
        &self.queue_wait[origin.index()]
    }

    /// The service-time (`Algorithm::run`) histogram of one origin.
    pub fn service(&self, origin: JobOrigin) -> &LatencyHistogram {
        &self.service[origin.index()]
    }

    /// Seconds since the engine was built.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Snapshot as the `GET /stats` JSON body. The sampler-table cache
    /// and the batch-job store keep their own counters (they are
    /// shared below the chunk layer), so they are read here rather
    /// than mirrored.
    pub fn to_json(
        &self,
        cache_len: usize,
        cache_capacity: usize,
        workers: usize,
        tables: &TableCache,
        jobs: &JobStore,
    ) -> Json {
        // counters go through `Json::Integer`, not `Json::Number`:
        // the f64 path would silently round values above 2^53
        let read = |c: &AtomicU64| Json::Integer(c.load(Ordering::Relaxed));
        let int = |v: u64| Json::Integer(v);
        let (jobs_queued, jobs_running, jobs_completed, jobs_failed, jobs_cancelled, high_water) =
            jobs.counters();
        Json::object(vec![
            ("uptime_seconds", Json::Number(self.uptime_seconds())),
            ("workers", int(workers as u64)),
            ("cache_hits", read(&self.cache_hits)),
            ("cache_misses", read(&self.cache_misses)),
            ("cache_entries", int(cache_len as u64)),
            ("cache_capacity", int(cache_capacity as u64)),
            ("sampler_table_hits", int(tables.hits())),
            ("sampler_table_misses", int(tables.misses())),
            ("sampler_table_entries", int(tables.len() as u64)),
            ("chunks_executed", read(&self.chunks_executed)),
            ("chunks_failed", read(&self.chunks_failed)),
            (
                "criterion_samples_abandoned",
                read(&self.criterion_samples_abandoned),
            ),
            ("chunks_coalesced", read(&self.chunks_coalesced)),
            ("queue_rejections", read(&self.queue_rejections)),
            ("jobs_queued", int(jobs_queued)),
            ("jobs_running", int(jobs_running)),
            ("jobs_completed", int(jobs_completed)),
            ("jobs_failed", int(jobs_failed)),
            ("jobs_cancelled", int(jobs_cancelled)),
            ("jobs_queue_high_water", int(high_water)),
            ("jobs_stored", int(jobs.len() as u64)),
            ("http_requests", read(&self.http_requests)),
            ("http_errors", read(&self.http_errors)),
            ("connections", read(&self.connections)),
            ("rejected_connections", read(&self.rejected_connections)),
            ("latency_p50_us", int(self.latency.quantile_micros(0.50))),
            ("latency_p99_us", int(self.latency.quantile_micros(0.99))),
        ])
    }
}

impl Default for EngineStats {
    fn default() -> Self {
        EngineStats::new()
    }
}

/// Value of one exported metric sample.
pub enum MetricValue<'a> {
    /// Monotonic counter. Rendered digit-exact (no `f64` round-trip),
    /// so values above 2^53 survive.
    Counter(u64),
    /// Point-in-time integer gauge, also rendered digit-exact.
    Gauge(u64),
    /// Point-in-time float gauge (e.g. uptime seconds).
    GaugeF64(f64),
    /// A latency histogram, exported as cumulative `_bucket{le=…}`
    /// series plus `_sum` and `_count` (all in microseconds).
    Histogram(&'a LatencyHistogram),
}

impl MetricValue<'_> {
    /// The Prometheus `# TYPE` keyword for this value.
    fn type_str(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) | MetricValue::GaugeF64(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// One labeled sample inside a [`MetricFamily`].
pub struct MetricSample<'a> {
    /// `label="value"` pairs rendered inside `{…}` (empty for
    /// unlabeled metrics).
    pub labels: Vec<(&'static str, &'a str)>,
    /// The sample's value.
    pub value: MetricValue<'a>,
}

/// A named family of samples sharing one `# HELP`/`# TYPE` header —
/// the unit of the labeled metrics registry behind `GET /metrics`.
pub struct MetricFamily<'a> {
    /// Metric name (`fairrank_…`).
    pub name: &'static str,
    /// One-line human description.
    pub help: &'static str,
    /// The labeled samples. Every sample must be the same value kind.
    pub samples: Vec<MetricSample<'a>>,
}

impl<'a> MetricFamily<'a> {
    /// A single-sample unlabeled family.
    pub fn scalar(name: &'static str, help: &'static str, value: MetricValue<'a>) -> Self {
        MetricFamily {
            name,
            help,
            samples: vec![MetricSample {
                labels: Vec::new(),
                value,
            }],
        }
    }
}

/// Append `label="value"` pairs (plus an optional trailing `le`) as a
/// `{…}` block; nothing when there are no labels at all.
fn write_label_block(out: &mut String, labels: &[(&str, &str)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (name, value) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(name);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

/// Render the families as Prometheus text exposition format
/// (`# HELP`/`# TYPE` headers, exact integer values, cumulative
/// histogram buckets ending in `+Inf`), appending to `out`.
pub fn render_prometheus(families: &[MetricFamily<'_>], out: &mut String) {
    for family in families {
        let Some(first) = family.samples.first() else {
            continue;
        };
        let name = family.name;
        out.push_str("# HELP ");
        out.push_str(name);
        out.push(' ');
        out.push_str(&family.help.replace('\n', " "));
        out.push_str("\n# TYPE ");
        out.push_str(name);
        out.push(' ');
        out.push_str(first.value.type_str());
        out.push('\n');
        for sample in &family.samples {
            debug_assert_eq!(
                sample.value.type_str(),
                first.value.type_str(),
                "family {name} mixes metric kinds"
            );
            match &sample.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    write_sample(out, name, "", &sample.labels, None, *v);
                }
                MetricValue::GaugeF64(v) => {
                    out.push_str(name);
                    write_label_block(out, &sample.labels, None);
                    out.push(' ');
                    num::write_f64(*v, out);
                    out.push('\n');
                }
                MetricValue::Histogram(histogram) => {
                    let (cums, total) = histogram.cumulative_le(&LATENCY_LE_US);
                    let mut bound = String::new();
                    for (&le, &cum) in LATENCY_LE_US.iter().zip(&cums) {
                        bound.clear();
                        num::write_u64(le, &mut bound);
                        write_sample(out, name, "_bucket", &sample.labels, Some(&bound), cum);
                    }
                    write_sample(out, name, "_bucket", &sample.labels, Some("+Inf"), total);
                    let sum = histogram.sum_micros();
                    write_sample(out, name, "_sum", &sample.labels, None, sum);
                    write_sample(out, name, "_count", &sample.labels, None, total);
                }
            }
        }
    }
}

/// One integer sample line: `{name}{suffix}{labels} {value}`.
fn write_sample(
    out: &mut String,
    name: &str,
    suffix: &str,
    labels: &[(&str, &str)],
    le: Option<&str>,
    value: u64,
) {
    out.push_str(name);
    out.push_str(suffix);
    write_label_block(out, labels, le);
    out.push(' ');
    num::write_u64(value, out);
    out.push('\n');
}

/// Strictly validate a Prometheus text exposition document: every
/// sample needs a preceding `# HELP` and `# TYPE` for its family,
/// values must parse, histogram buckets must be cumulative (monotone
/// in order of appearance), and every histogram series needs an
/// `le="+Inf"` bucket equal to its `_count`. Used by the integration
/// tests and the CI scrape check.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    use std::collections::{HashMap, HashSet};

    #[derive(Default)]
    struct HistogramSeries {
        last_cum: Option<f64>,
        inf: Option<f64>,
        count: Option<f64>,
        has_sum: bool,
    }

    let mut helps: HashSet<&str> = HashSet::new();
    let mut types: HashMap<&str, &str> = HashMap::new();
    let mut histograms: HashMap<String, HistogramSeries> = HashMap::new();

    for (index, line) in text.lines().enumerate() {
        let n = index + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("HELP"), Some(name), Some(_)) => {
                    helps.insert(name);
                }
                (Some("TYPE"), Some(name), Some(kind)) => {
                    if !matches!(kind, "counter" | "gauge" | "histogram") {
                        return Err(format!("line {n}: unknown TYPE `{kind}`"));
                    }
                    if !helps.contains(name) {
                        return Err(format!("line {n}: TYPE for `{name}` without HELP"));
                    }
                    types.insert(name, kind);
                }
                _ => return Err(format!("line {n}: malformed comment `{line}`")),
            }
            continue;
        }

        // sample line: `name[{labels}] value`
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: no value in `{line}`"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {n}: non-numeric value `{value}`"))?;
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated label block"))?;
                (name, labels)
            }
            None => (series, ""),
        };

        // resolve the family: histogram sample suffixes map back to
        // the declared histogram name
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let stripped = name.strip_suffix(suffix)?;
                (types.get(stripped) == Some(&"histogram")).then_some(stripped)
            })
            .unwrap_or(name);
        let Some(kind) = types.get(family) else {
            return Err(format!("line {n}: sample `{name}` has no TYPE"));
        };

        if *kind == "histogram" {
            // key histogram series by family + labels minus `le`
            let base_labels: Vec<&str> = labels
                .split(',')
                .filter(|l| !l.is_empty() && !l.starts_with("le="))
                .collect();
            let key = format!("{family}|{}", base_labels.join(","));
            let series = histograms.entry(key).or_default();
            if name.ends_with("_bucket") {
                let le = labels
                    .split(',')
                    .find_map(|l| l.strip_prefix("le="))
                    .ok_or_else(|| format!("line {n}: bucket without le label"))?
                    .trim_matches('"');
                if let Some(last) = series.last_cum {
                    if value < last {
                        return Err(format!(
                            "line {n}: bucket le={le} count {value} < previous {last}"
                        ));
                    }
                }
                series.last_cum = Some(value);
                if le == "+Inf" {
                    series.inf = Some(value);
                }
            } else if name.ends_with("_sum") {
                series.has_sum = true;
            } else {
                series.count = Some(value);
            }
        }
    }

    for (key, series) in &histograms {
        let inf = series
            .inf
            .ok_or_else(|| format!("histogram `{key}` has no +Inf bucket"))?;
        let count = series
            .count
            .ok_or_else(|| format!("histogram `{key}` has no _count"))?;
        if inf != count {
            return Err(format!(
                "histogram `{key}`: +Inf bucket {inf} != _count {count}"
            ));
        }
        if !series.has_sum {
            return Err(format!("histogram `{key}` has no _sum"));
        }
    }
    Ok(())
}

/// Point-in-time process self-gauges for `GET /metrics`.
pub struct ProcessMetrics {
    /// Resident set size in bytes (`VmRSS` from `/proc/self/status`).
    pub rss_bytes: u64,
    /// Open file descriptors (`/proc/self/fd` entries, including the
    /// descriptor used to list them).
    pub open_fds: u64,
}

/// Read RSS and fd-count from `/proc/self`. Linux-only: on other
/// platforms (and on any read/parse failure) this returns `None` and
/// the corresponding metric families are simply absent.
#[cfg(target_os = "linux")]
pub fn process_self_metrics() -> Option<ProcessMetrics> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rss_kb: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    let open_fds = std::fs::read_dir("/proc/self/fd").ok()?.count() as u64;
    Some(ProcessMetrics {
        rss_bytes: rss_kb * 1024,
        open_fds,
    })
}

/// Read RSS and fd-count from `/proc/self` (always `None` off Linux).
#[cfg(not(target_os = "linux"))]
pub fn process_self_metrics() -> Option<ProcessMetrics> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_appear_in_json() {
        let s = EngineStats::new();
        EngineStats::bump(&s.cache_hits);
        EngineStats::bump(&s.cache_hits);
        EngineStats::bump(&s.cache_misses);
        EngineStats::bump(&s.rejected_connections);
        s.latency.record_micros(100);
        let tables = TableCache::new(8);
        tables.get_or_build(10, 1.0).unwrap();
        tables.get_or_build(10, 1.0).unwrap();
        let jobs = JobStore::new(4);
        let json = s.to_json(5, 100, 4, &tables, &jobs).to_string();
        assert!(json.contains("\"cache_hits\":2"), "{json}");
        assert!(json.contains("\"cache_misses\":1"), "{json}");
        assert!(json.contains("\"cache_entries\":5"), "{json}");
        assert!(json.contains("\"sampler_table_hits\":1"), "{json}");
        assert!(json.contains("\"sampler_table_misses\":1"), "{json}");
        assert!(json.contains("\"sampler_table_entries\":1"), "{json}");
        assert!(json.contains("\"workers\":4"), "{json}");
        assert!(json.contains("\"jobs_queued\":0"), "{json}");
        assert!(json.contains("\"jobs_running\":0"), "{json}");
        assert!(json.contains("\"jobs_completed\":0"), "{json}");
        assert!(json.contains("\"jobs_failed\":0"), "{json}");
        assert!(json.contains("\"jobs_cancelled\":0"), "{json}");
        assert!(json.contains("\"jobs_queue_high_water\":0"), "{json}");
        assert!(json.contains("\"rejected_connections\":1"), "{json}");
        assert!(json.contains("\"latency_p50_us\":"), "{json}");
        assert!(json.contains("\"latency_p99_us\":"), "{json}");
    }

    #[test]
    fn histogram_buckets_are_monotone_and_total() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_micros(0.5), 0);
        for v in [0u64, 1, 7, 8, 100, 1_000, 65_000, u64::MAX] {
            h.record_micros(v);
        }
        assert_eq!(h.count(), 8);
        // quantiles are non-decreasing in q
        let mut last = 0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile_micros(q);
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn histogram_quantiles_track_known_distribution() {
        let h = LatencyHistogram::new();
        // 99 samples at ~100 µs, 1 at ~10 ms
        for _ in 0..99 {
            h.record_micros(100);
        }
        h.record_micros(10_000);
        let p50 = h.quantile_micros(0.50);
        let p99 = h.quantile_micros(0.99);
        let p999 = h.quantile_micros(0.999);
        assert!((88..=113).contains(&p50), "p50 = {p50}");
        assert!((88..=113).contains(&p99), "p99 = {p99}");
        assert!((8_800..=11_300).contains(&p999), "p99.9 = {p999}");
    }

    #[test]
    fn cumulative_counts_are_exact_at_the_default_bounds() {
        let h = LatencyHistogram::new();
        let samples = [0u64, 1, 3, 4, 7, 8, 100, 1000, 100_000, 10_000_000];
        for v in samples {
            h.record_micros(v);
        }
        let (cums, total) = h.cumulative_le(&LATENCY_LE_US);
        assert_eq!(total, samples.len() as u64);
        for (le, cum) in LATENCY_LE_US.iter().zip(&cums) {
            let expected = samples.iter().filter(|&&v| v <= *le).count() as u64;
            assert_eq!(*cum, expected, "le={le}");
        }
        for pair in cums.windows(2) {
            assert!(pair[0] <= pair[1], "cumulative counts must be monotone");
        }
        assert_eq!(h.sum_micros(), samples.iter().sum::<u64>());
    }

    #[test]
    fn render_prometheus_is_valid_and_digit_exact_above_2_pow_53() {
        let histogram = LatencyHistogram::new();
        histogram.record_micros(5);
        histogram.record_micros(900);
        let big = (1u64 << 53) + 3;
        let families = [
            MetricFamily::scalar("t_requests_total", "requests", MetricValue::Counter(big)),
            MetricFamily::scalar("t_depth", "queue depth", MetricValue::Gauge(7)),
            MetricFamily {
                name: "t_latency_us",
                help: "latency",
                samples: vec![MetricSample {
                    labels: vec![("route", "rank")],
                    value: MetricValue::Histogram(&histogram),
                }],
            },
        ];
        let mut out = String::new();
        render_prometheus(&families, &mut out);
        validate_prometheus_text(&out).expect(&out);
        // the counter renders digit-exact — the f64 path would have
        // produced ...744 instead of ...995
        assert!(out.contains("t_requests_total 9007199254740995\n"), "{out}");
        assert!(out.contains("# TYPE t_requests_total counter"), "{out}");
        assert!(out.contains("# HELP t_depth queue depth"), "{out}");
        assert!(
            out.contains("t_latency_us_bucket{route=\"rank\",le=\"7\"} 1"),
            "{out}"
        );
        assert!(
            out.contains("t_latency_us_bucket{route=\"rank\",le=\"+Inf\"} 2"),
            "{out}"
        );
        assert!(
            out.contains("t_latency_us_sum{route=\"rank\"} 905"),
            "{out}"
        );
        assert!(
            out.contains("t_latency_us_count{route=\"rank\"} 2"),
            "{out}"
        );
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        // sample without TYPE
        assert!(validate_prometheus_text("orphan 1\n").is_err());
        // TYPE without HELP
        assert!(validate_prometheus_text("# TYPE x counter\nx 1\n").is_err());
        // non-monotone buckets
        let text = "# HELP h l\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n";
        assert!(validate_prometheus_text(text).is_err());
        // +Inf disagreeing with _count
        let text = "# HELP h l\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n";
        assert!(validate_prometheus_text(text).is_err());
        // non-numeric value
        assert!(validate_prometheus_text("# HELP g l\n# TYPE g gauge\ng nope\n").is_err());
        // a correct document passes
        let text = "# HELP g l\n# TYPE g gauge\ng{a=\"b\"} 2\n";
        validate_prometheus_text(text).unwrap();
    }

    #[test]
    fn route_classes_have_unique_labels() {
        let mut labels: Vec<&str> = RouteClass::ALL.iter().map(|r| r.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), RouteClass::ALL.len());
        // index() is a bijection onto 0..len
        for (i, route) in RouteClass::ALL.iter().enumerate() {
            assert_eq!(route.index(), i);
        }
    }

    #[test]
    fn job_origins_have_unique_labels() {
        let mut labels: Vec<&str> = JobOrigin::ALL.iter().map(|o| o.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), JobOrigin::ALL.len());
        for (i, origin) in JobOrigin::ALL.iter().enumerate() {
            assert_eq!(origin.index(), i);
        }
    }

    #[test]
    fn origin_histograms_record_independently() {
        let s = EngineStats::new();
        s.queue_wait(JobOrigin::Rank).record_micros(10);
        s.service(JobOrigin::Rank).record_micros(500);
        s.service(JobOrigin::Batch).record_micros(900);
        assert_eq!(s.queue_wait(JobOrigin::Rank).count(), 1);
        assert_eq!(s.queue_wait(JobOrigin::Batch).count(), 0);
        assert_eq!(s.service(JobOrigin::Rank).sum_micros(), 500);
        assert_eq!(s.service(JobOrigin::Batch).sum_micros(), 900);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn process_self_metrics_read_proc() {
        let m = process_self_metrics().expect("/proc/self should be readable on Linux");
        assert!(m.rss_bytes > 0);
        assert!(m.open_fds > 0);
    }

    #[test]
    fn bucket_index_matches_midpoint_ranges() {
        // every recorded value must land in a bucket whose midpoint is
        // within 12.5 % of it (above the exact range)
        for v in [8u64, 15, 16, 100, 999, 12_345, 1 << 40] {
            let mid = bucket_midpoint(bucket_index(v));
            let err = (mid as f64 - v as f64).abs() / v as f64;
            assert!(err <= 0.125, "v = {v}, midpoint = {mid}, err = {err}");
        }
        for v in 0..8u64 {
            assert_eq!(bucket_midpoint(bucket_index(v)), v);
        }
    }
}
