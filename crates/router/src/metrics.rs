//! Cluster-level `GET /metrics`: router-own counters followed by the
//! merged backend scrapes.
//!
//! Router-own families are one metric table (`ROUTER_METRICS`)
//! rendered through the engine's own exposition writer
//! ([`fairrank_engine::stats::render_prometheus`]), so they share its
//! formatting guarantees. Backend scrapes are then parsed and merged
//! **by (series name, labels)** under each family's [`Merge`] rule in
//! the engine's table ([`ENGINE_METRICS`]); a family the table does not
//! list sums. Summing makes a cluster-level `fairrank_workers` the total
//! worker count and adds histogram buckets bucket-by-bucket, which keeps
//! them cumulative because every scrape is; the two uptimes take the
//! largest value instead. `# HELP`/`# TYPE` headers are emitted once per
//! family in first-seen order, so the merged document still passes the
//! engine's strict [`validate_prometheus_text`] checker — which
//! `tests/router_serve.rs` asserts.
//!
//! [`validate_prometheus_text`]: fairrank_engine::stats::validate_prometheus_text

use crate::client::BackendClient;
use crate::RouterCore;
use fairrank_engine::num;
use fairrank_engine::stats::{
    render_prometheus, Merge, MetricDef, MetricSample, MetricValue, Reader, ENGINE_METRICS,
};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// One merged family: verbatim header lines plus merged samples in
/// first-seen order.
struct MergedFamily {
    help_line: String,
    type_line: String,
    /// How samples of this family from different backends combine.
    merge: Merge,
    /// `series → value`, where `series` is the full sample name
    /// including its label block (e.g. `x_bucket{route="rank",le="50"}`).
    order: Vec<String>,
    values: Vec<Value>,
}

/// A merged sample value. Integral samples (counters, gauges, bucket
/// counts, `_sum`s) merge exactly as `u64`, like the engine renders
/// them; anything else merges as `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    Int(u64),
    Float(f64),
}

impl Value {
    fn parse(text: &str) -> Option<Value> {
        match text.parse::<u64>() {
            Ok(v) => Some(Value::Int(v)),
            Err(_) => text.parse::<f64>().ok().map(Value::Float),
        }
    }

    fn as_f64(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Float(x) => x,
        }
    }

    fn merge(self, other: Value, rule: Merge) -> Value {
        match (rule, self, other) {
            (Merge::Sum, Value::Int(a), Value::Int(b)) if a.checked_add(b).is_some() => {
                Value::Int(a + b)
            }
            (Merge::Sum, a, b) => Value::Float(a.as_f64() + b.as_f64()),
            (Merge::Max, Value::Int(a), Value::Int(b)) => Value::Int(a.max(b)),
            (Merge::Max, a, b) => Value::Float(a.as_f64().max(b.as_f64())),
        }
    }
}

/// Render the full cluster scrape into `out`.
pub fn render(core: &RouterCore, out: &mut String, scratch: &mut Vec<u8>) {
    render_prometheus(ROUTER_METRICS, core, out);
    let mut families: Vec<MergedFamily> = Vec::new();
    for client in core.backends() {
        let scrape = client.request("GET", "/metrics", b"", Duration::from_secs(5), scratch);
        // a backend that cannot answer simply drops out of the sum;
        // fairrank_router_backends_ready already reports how many
        // scrapes the aggregate covers
        if let Ok(response) = scrape {
            if response.status == 200 {
                if let Ok(text) = std::str::from_utf8(&response.body) {
                    merge_scrape(&mut families, text);
                }
            }
        }
    }
    write_families(&families, out);
}

/// Render merged families in scrape order.
fn write_families(families: &[MergedFamily], out: &mut String) {
    for family in families {
        out.push_str(&family.help_line);
        out.push('\n');
        out.push_str(&family.type_line);
        out.push('\n');
        for (series, value) in family.order.iter().zip(&family.values) {
            out.push_str(series);
            out.push(' ');
            write_value(out, *value);
            out.push('\n');
        }
    }
}

fn load(counter: &std::sync::atomic::AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// One sample per backend, labeled `backend`.
fn per_backend(
    core: &RouterCore,
    value: fn(&BackendClient) -> MetricValue<'static>,
) -> Vec<MetricSample<'_>> {
    core.backends()
        .iter()
        .map(|client| MetricSample {
            labels: vec![("backend", client.addr())],
            value: value(client),
        })
        .collect()
}

/// The router's metric table: the `fairrank_router_*` families, in
/// document order.
static ROUTER_METRICS: &[MetricDef<RouterCore>] = &[
    MetricDef::new(
        "fairrank_router_requests_total",
        "Requests entering the router's forwarding path.",
        Reader::Counter(|core| load(&core.stats.requests)),
    ),
    MetricDef::new(
        "fairrank_router_retries_total",
        "Extra owner attempts after a failed or shedding one.",
        Reader::Counter(|core| load(&core.stats.retries)),
    ),
    MetricDef::new(
        "fairrank_router_hedges_total",
        "Hedge requests launched against a key's next owner.",
        Reader::Counter(|core| load(&core.stats.hedges)),
    ),
    MetricDef::new(
        "fairrank_router_resubmissions_total",
        "Batch jobs re-placed after their owner left the ring.",
        Reader::Counter(|core| load(&core.stats.resubmissions)),
    ),
    MetricDef::new(
        "fairrank_router_ring_churn_total",
        "Ring membership transitions (joins plus leaves).",
        Reader::Counter(|core| load(&core.stats.ring_churn)),
    ),
    MetricDef::new(
        "fairrank_router_no_backend_total",
        "Requests answered 503 because the ring was empty.",
        Reader::Counter(|core| load(&core.stats.no_backend)),
    ),
    MetricDef::new(
        "fairrank_router_rejected_connections_total",
        "Client connections shed with 503 at the connection-thread cap.",
        Reader::Counter(|core| load(&core.stats.rejected_connections)),
    ),
    MetricDef::new(
        "fairrank_router_backends_ready",
        "Backends currently in the hash ring.",
        Reader::Gauge(|core| core.ready_count() as u64),
    ),
    MetricDef::new(
        "fairrank_router_backends_configured",
        "Backends configured at startup.",
        Reader::Gauge(|core| core.backends().len() as u64),
    ),
    MetricDef::new(
        "fairrank_router_backend_inflight",
        "Requests currently in flight to each backend.",
        Reader::Samples(|core| per_backend(core, |c| MetricValue::Gauge(c.inflight()))),
    ),
    MetricDef::new(
        "fairrank_router_backend_requests_total",
        "Requests ever issued to each backend.",
        Reader::Samples(|core| per_backend(core, |c| MetricValue::Counter(c.requests()))),
    ),
];

/// The merge rule of a backend family: its [`ENGINE_METRICS`] row's,
/// or [`Merge::Sum`] for a family that table does not list.
fn merge_rule(name: &str) -> Merge {
    ENGINE_METRICS
        .iter()
        .find(|def| def.name == name)
        .map_or(Merge::Sum, |def| def.merge)
}

/// Fold one backend's scrape into the merged families. The engine
/// renders families as a `# HELP`/`# TYPE` header followed by its
/// samples, so a plain line scan with a "current family" cursor is a
/// faithful parse.
fn merge_scrape(families: &mut Vec<MergedFamily>, text: &str) {
    let mut current: Option<usize> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            let index = families.iter().position(|f| family_name(f) == name);
            current = Some(index.unwrap_or_else(|| {
                families.push(MergedFamily {
                    help_line: line.to_string(),
                    type_line: String::new(),
                    merge: merge_rule(name),
                    order: Vec::new(),
                    values: Vec::new(),
                });
                families.len() - 1
            }));
        } else if line.starts_with("# TYPE ") {
            if let Some(index) = current {
                if families[index].type_line.is_empty() {
                    families[index].type_line = line.to_string();
                }
            }
        } else if !line.is_empty() && !line.starts_with('#') {
            let Some(index) = current else { continue };
            let Some(space) = line.rfind(' ') else {
                continue;
            };
            let (series, value_text) = line.split_at(space);
            let Some(value) = Value::parse(value_text.trim()) else {
                continue;
            };
            let family = &mut families[index];
            match family.order.iter().position(|s| s == series) {
                Some(sample) => {
                    family.values[sample] = family.values[sample].merge(value, family.merge);
                }
                None => {
                    family.order.push(series.to_string());
                    family.values.push(value);
                }
            }
        }
    }
}

/// The family name out of a merged family's `# HELP` line.
fn family_name(family: &MergedFamily) -> &str {
    family
        .help_line
        .strip_prefix("# HELP ")
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or("")
}

/// Write a merged value the way the engine would: digit-exact for
/// integers, shortest round-trip decimal (`{}`) for floats.
fn write_value(out: &mut String, value: Value) {
    match value {
        Value::Int(v) => num::write_u64(v, out),
        Value::Float(x) => num::write_f64(x, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrank_engine::stats::validate_prometheus_text;

    const SCRAPE: &str = "\
# HELP fairrank_http_requests_total Requests served.
# TYPE fairrank_http_requests_total counter
fairrank_http_requests_total{route=\"rank\"} 10
fairrank_http_requests_total{route=\"aggregate\"} 2
# HELP fairrank_request_latency_us Request latency.
# TYPE fairrank_request_latency_us histogram
fairrank_request_latency_us_bucket{le=\"50\"} 3
fairrank_request_latency_us_bucket{le=\"+Inf\"} 12
fairrank_request_latency_us_sum 900
fairrank_request_latency_us_count 12
";

    #[test]
    fn merging_two_scrapes_sums_by_series() {
        let mut families = Vec::new();
        merge_scrape(&mut families, SCRAPE);
        merge_scrape(&mut families, SCRAPE);
        let mut out = String::new();
        write_families(&families, &mut out);
        assert!(out.contains("fairrank_http_requests_total{route=\"rank\"} 20"));
        assert!(out.contains("fairrank_request_latency_us_bucket{le=\"+Inf\"} 24"));
        assert!(out.contains("fairrank_request_latency_us_count 24"));
        validate_prometheus_text(&out).expect("merged scrape must stay valid");
    }

    #[test]
    fn integral_values_render_without_decimals() {
        let mut out = String::new();
        write_value(&mut out, Value::Float(42.0));
        out.push(' ');
        write_value(&mut out, Value::Float(1.5));
        assert_eq!(out, "42 1.5");
    }

    #[test]
    fn integral_samples_above_2_pow_53_sum_exactly() {
        // 2^53 + 1 is the first integer an f64 cannot hold
        let scrape = "\
# HELP fairrank_http_requests_total Requests served.
# TYPE fairrank_http_requests_total counter
fairrank_http_requests_total{route=\"rank\"} 9007199254740993
# HELP fairrank_uptime_seconds Uptime.
# TYPE fairrank_uptime_seconds gauge
fairrank_uptime_seconds 0.25
# HELP t_load_ratio A float gauge the engine's table does not list.
# TYPE t_load_ratio gauge
t_load_ratio 0.25
";
        let mut families = Vec::new();
        merge_scrape(&mut families, scrape);
        merge_scrape(&mut families, scrape);
        let mut out = String::new();
        write_families(&families, &mut out);
        assert!(
            out.contains("fairrank_http_requests_total{route=\"rank\"} 18014398509481986\n"),
            "{out}"
        );
        // uptime merges by max, an unlisted float family by f64 sum
        assert!(out.contains("fairrank_uptime_seconds 0.25\n"), "{out}");
        assert!(out.contains("t_load_ratio 0.5\n"), "{out}");
        validate_prometheus_text(&out).expect("merged scrape must stay valid");
    }

    #[test]
    fn uptimes_merge_by_max_and_workers_by_sum() {
        let scrape = |uptime: &str, workers: u64| {
            format!(
                "# HELP fairrank_uptime_seconds Uptime.\n\
                 # TYPE fairrank_uptime_seconds gauge\n\
                 fairrank_uptime_seconds {uptime}\n\
                 # HELP fairrank_workers Workers.\n\
                 # TYPE fairrank_workers gauge\n\
                 fairrank_workers {workers}\n\
                 # HELP process_uptime_seconds Uptime.\n\
                 # TYPE process_uptime_seconds gauge\n\
                 process_uptime_seconds {uptime}\n"
            )
        };
        let mut families = Vec::new();
        merge_scrape(&mut families, &scrape("10", 4));
        merge_scrape(&mut families, &scrape("12.5", 2));
        merge_scrape(&mut families, &scrape("11", 2));
        let mut out = String::new();
        write_families(&families, &mut out);
        assert!(out.contains("\nfairrank_uptime_seconds 12.5\n"), "{out}");
        assert!(out.contains("\nprocess_uptime_seconds 12.5\n"), "{out}");
        assert!(out.contains("\nfairrank_workers 8\n"), "{out}");
        validate_prometheus_text(&out).expect("merged scrape must stay valid");
    }
}
