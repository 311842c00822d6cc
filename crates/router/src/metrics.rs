//! Cluster-level `GET /metrics`: router-own counters followed by the
//! merged backend scrapes.
//!
//! Router-own families are rendered through the engine's own
//! exposition writer ([`fairrank_engine::stats::render_prometheus`]),
//! so they share its formatting guarantees. Backend scrapes are then
//! parsed and **summed by (series name, labels)** — counters add,
//! gauges add (a cluster-level `fairrank_engine_workers` is the total
//! worker count), histogram buckets add bucket-by-bucket, which keeps
//! cumulative bucket monotonicity because every scrape is
//! individually monotone. `# HELP`/`# TYPE` headers are emitted once
//! per family in first-seen order, so the merged document still
//! passes the engine's strict [`validate_prometheus_text`] checker —
//! which `tests/router_serve.rs` asserts.
//!
//! [`validate_prometheus_text`]: fairrank_engine::stats::validate_prometheus_text

use crate::RouterCore;
use fairrank_engine::num;
use fairrank_engine::stats::{render_prometheus, MetricFamily, MetricSample, MetricValue};
use std::sync::atomic::Ordering;
use std::time::Duration;

/// One merged family: verbatim header lines plus summed samples in
/// first-seen order.
struct MergedFamily {
    help_line: String,
    type_line: String,
    /// `series → value`, where `series` is the full sample name
    /// including its label block (e.g. `x_bucket{route="rank",le="50"}`).
    order: Vec<String>,
    values: Vec<Value>,
}

/// A summed sample value. Integral samples (counters, gauges, bucket
/// counts, `_sum`s) add up exactly as `u64`, like the engine renders
/// them; anything else adds up as `f64`.
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

    fn add(self, other: Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) if a.checked_add(b).is_some() => Value::Int(a + b),
            (a, b) => Value::Float(a.as_f64() + b.as_f64()),
        }
    }
}

/// Render the full cluster scrape into `out`.
pub fn render(core: &RouterCore, out: &mut String, scratch: &mut Vec<u8>) {
    render_router_families(core, out);
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

/// The `fairrank_router_*` families.
fn render_router_families(core: &RouterCore, out: &mut String) {
    let stats = &core.stats;
    let ready = core.ready_count() as u64;
    let mut families = vec![
        MetricFamily::scalar(
            "fairrank_router_requests_total",
            "Requests entering the router's forwarding path.",
            MetricValue::Counter(stats.requests.load(Ordering::Relaxed)),
        ),
        MetricFamily::scalar(
            "fairrank_router_retries_total",
            "Extra owner attempts after a failed or shedding one.",
            MetricValue::Counter(stats.retries.load(Ordering::Relaxed)),
        ),
        MetricFamily::scalar(
            "fairrank_router_hedges_total",
            "Hedge requests launched against a key's next owner.",
            MetricValue::Counter(stats.hedges.load(Ordering::Relaxed)),
        ),
        MetricFamily::scalar(
            "fairrank_router_resubmissions_total",
            "Batch jobs re-placed after their owner left the ring.",
            MetricValue::Counter(stats.resubmissions.load(Ordering::Relaxed)),
        ),
        MetricFamily::scalar(
            "fairrank_router_ring_churn_total",
            "Ring membership transitions (joins plus leaves).",
            MetricValue::Counter(stats.ring_churn.load(Ordering::Relaxed)),
        ),
        MetricFamily::scalar(
            "fairrank_router_no_backend_total",
            "Requests answered 503 because the ring was empty.",
            MetricValue::Counter(stats.no_backend.load(Ordering::Relaxed)),
        ),
        MetricFamily::scalar(
            "fairrank_router_rejected_connections_total",
            "Client connections shed with 503 at the connection-thread cap.",
            MetricValue::Counter(stats.rejected_connections.load(Ordering::Relaxed)),
        ),
        MetricFamily::scalar(
            "fairrank_router_backends_ready",
            "Backends currently in the hash ring.",
            MetricValue::Gauge(ready),
        ),
        MetricFamily::scalar(
            "fairrank_router_backends_configured",
            "Backends configured at startup.",
            MetricValue::Gauge(core.backends().len() as u64),
        ),
    ];
    let inflight: Vec<u64> = core.backends().iter().map(|c| c.inflight()).collect();
    let requests: Vec<u64> = core.backends().iter().map(|c| c.requests()).collect();
    families.push(MetricFamily {
        name: "fairrank_router_backend_inflight",
        help: "Requests currently in flight to each backend.",
        samples: core
            .backends()
            .iter()
            .zip(&inflight)
            .map(|(client, value)| MetricSample {
                labels: vec![("backend", client.addr())],
                value: MetricValue::Gauge(*value),
            })
            .collect(),
    });
    families.push(MetricFamily {
        name: "fairrank_router_backend_requests_total",
        help: "Requests ever issued to each backend.",
        samples: core
            .backends()
            .iter()
            .zip(&requests)
            .map(|(client, value)| MetricSample {
                labels: vec![("backend", client.addr())],
                value: MetricValue::Counter(*value),
            })
            .collect(),
    });
    render_prometheus(&families, out);
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
                Some(sample) => family.values[sample] = family.values[sample].add(value),
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

/// Write a summed value the way the engine would: digit-exact for
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
        assert!(out.contains("fairrank_uptime_seconds 0.5\n"), "{out}");
        validate_prometheus_text(&out).expect("merged scrape must stay valid");
    }
}
