//! Spawned-binary observability checks: start the real `fairrank
//! serve`, scrape `GET /metrics`, validate the Prometheus text format
//! with the engine's strict checker, then send SIGTERM and watch the
//! process drain and exit cleanly. This is the test the CI scrape step
//! runs. A second test checks that `/stats` is the unlabeled view of
//! `/metrics` on the live server, and a third that the server refuses
//! jobs whose cost or metrics the registry's input checks rule out.

use fairrank_engine::json::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Start `fairrank serve --port 0 …` and return the child plus the
/// ephemeral port announced on stdout.
fn spawn_serve(extra: &[&str]) -> (Child, u16, BufReader<std::process::ChildStdout>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fairrank"));
    cmd.args([
        "serve",
        "--port",
        "0",
        "--workers",
        "2",
        "--io-threads",
        "2",
    ])
    .args(extra)
    .stdout(Stdio::piped())
    .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawning fairrank serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("reading the banner");
    // "fairrank: serving on http://127.0.0.1:PORT (…)"
    let port: u16 = banner
        .split("127.0.0.1:")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|token| token.parse().ok())
        .unwrap_or_else(|| panic!("no port in banner: {banner:?}"));
    (child, port, reader)
}

fn http(port: u16, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connecting to fairrank");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
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
    let (head, body) = response.split_once("\r\n\r\n").expect("head/body split");
    (status, head.to_string(), body.to_string())
}

#[test]
fn serve_rejects_sparse_group_ids_and_overflowing_scores() {
    let (mut child, port, _stdout) = spawn_serve(&[]);
    let algorithms = [
        "weakly-fair",
        "mallows",
        "detconstsort",
        "ipf",
        "exact-kt",
        "gr-binary",
        "ilp",
        "fair-top-k",
        "fa-ir",
    ];
    for algorithm in algorithms {
        // a group id far past the pool size once cost seconds and
        // hundreds of MB (`exact-kt` aborted the process)
        let sparse = format!(
            r#"{{"algorithm":"{algorithm}","scores":[0.9,0.8,0.4,0.3],"groups":[0,1,2,10000000],"seed":1}}"#
        );
        let started = std::time::Instant::now();
        let (status, _, body) = http(port, "POST", "/rank", &sparse);
        assert_eq!(status, 400, "{algorithm}: {body}");
        assert!(body.contains("group id 10000000"), "{algorithm}: {body}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "{algorithm}: the refusal must not run the job"
        );
        // finite scores whose absolute sum overflows gave NaN metrics
        let huge = format!(
            r#"{{"algorithm":"{algorithm}","scores":[1e308,-1e308,0.5,0.25],"groups":[0,0,1,1],"seed":1}}"#
        );
        let (status, _, body) = http(port, "POST", "/rank", &huge);
        assert_eq!(status, 400, "{algorithm}: {body}");
    }
    let sparse_votes =
        r#"{"algorithm":"borda","votes":[[0,1,2,3],[1,0,2,3]],"groups":[0,1,2,10000000]}"#;
    let (status, _, body) = http(port, "POST", "/aggregate", sparse_votes);
    assert_eq!(status, 400, "{body}");
    // the process survived every refusal
    let (status, _, body) = http(port, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let _ = child.kill();
    let _ = child.wait();
}

/// The unlabeled samples of the counter and gauge families of a
/// `/metrics` document, by family name.
fn unlabeled_counters_and_gauges(metrics: &str) -> HashMap<String, u64> {
    let mut scalar_families = Vec::new();
    let mut samples = HashMap::new();
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line");
            if kind != "histogram" {
                scalar_families.push(name);
            }
        } else if !line.starts_with('#') && !line.contains('{') {
            let (name, value) = line.split_once(' ').expect("sample line");
            if scalar_families.contains(&name) {
                if let Ok(value) = value.parse() {
                    samples.insert(name.to_string(), value);
                }
            }
        }
    }
    samples
}

#[test]
fn serve_stats_is_the_unlabeled_view_of_metrics() {
    let (mut child, port, _stdout) = spawn_serve(&[]);
    let rank = r#"{"algorithm":"mallows","scores":[0.9,0.8,0.5,0.3],"groups":[0,0,1,1],"samples":10,"seed":3}"#;
    for _ in 0..2 {
        // the second one is a cache hit
        let (status, _, body) = http(port, "POST", "/rank", rank);
        assert_eq!(status, 200, "{body}");
    }
    let batch = r#"{"chunks":[{"route":"rank","algorithm":"weakly-fair","scores":[0.9,0.1],"groups":[0,1],"seed":1}]}"#;
    let (status, _, accepted) = http(port, "POST", "/jobs", batch);
    assert_eq!(status, 202, "{accepted}");
    let id = Json::parse(&accepted)
        .ok()
        .and_then(|doc| doc.get("id").and_then(Json::as_u64))
        .unwrap_or_else(|| panic!("bad submit response: {accepted}"));
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (_, _, body) = http(port, "GET", &format!("/jobs/{id}"), "");
        if body.contains("\"status\":\"done\"") {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "{body}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // the server counts its own requests, so /stats is checked against
    // the scrapes just before and just after it
    let scrape = || unlabeled_counters_and_gauges(&http(port, "GET", "/metrics", "").2);
    let before = scrape();
    let (status, _, stats) = http(port, "GET", "/stats", "");
    assert_eq!(status, 200, "{stats}");
    let after = scrape();
    let Ok(Json::Object(stats)) = Json::parse(&stats) else {
        panic!("/stats is not a JSON object: {stats}");
    };
    for (key, value) in &stats {
        if ["latency_p50_us", "latency_p99_us", "uptime_seconds"].contains(&key.as_str()) {
            continue;
        }
        let family = [format!("fairrank_{key}"), format!("fairrank_{key}_total")]
            .into_iter()
            .find(|name| before.contains_key(name))
            .unwrap_or_else(|| panic!("no /metrics family for /stats key `{key}`"));
        let value = value.as_u64().expect("integer /stats value");
        let (a, b) = (before[&family], after[&family]);
        assert!(
            a.min(b) <= value && value <= a.max(b),
            "`{key}` = {value}, `{family}` went {a} → {b}"
        );
    }
    for family in before.keys() {
        let Some(key) = family.strip_prefix("fairrank_") else {
            continue;
        };
        let key = key.strip_suffix("_total").unwrap_or(key);
        assert!(
            stats.iter().any(|(k, _)| k == key),
            "no /stats key for `{family}`"
        );
    }
    let stat = |key: &str| stats.iter().find(|(k, _)| k == key).unwrap().1.as_u64();
    assert_eq!(stat("cache_hits"), Some(1));
    assert_eq!(stat("jobs_completed"), Some(1));
    let _ = child.kill();
    let _ = child.wait();
}

#[test]
fn serve_scrapes_valid_metrics_and_drains_on_sigterm() {
    let (mut child, port, mut stdout) = spawn_serve(&[]);

    // generate some traffic so histograms are populated
    let (status, _, _) = http(
        port,
        "POST",
        "/rank",
        r#"{"algorithm":"weakly-fair","scores":[0.9,0.1],"groups":[0,1],"seed":1}"#,
    );
    assert_eq!(status, 200);
    let (status, _, body) = http(port, "GET", "/readyz", "");
    assert_eq!(status, 200, "{body}");

    // scrape and validate the exposition format
    let (status, head, metrics) = http(port, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        head.contains("content-type: text/plain; version=0.0.4"),
        "{head}"
    );
    fairrank_engine::stats::validate_prometheus_text(&metrics).expect(&metrics);
    for needle in [
        "# HELP fairrank_http_requests_total",
        "# TYPE fairrank_http_request_duration_us histogram",
        "fairrank_http_request_duration_us_bucket{route=\"rank\",le=\"+Inf\"} 1",
        "fairrank_algorithm_duration_us_count{algorithm=\"weakly-fair\"} 1",
        "fairrank_ready 1",
    ] {
        assert!(
            metrics.contains(needle),
            "missing `{needle}` in:\n{metrics}"
        );
    }

    // SIGTERM → self-pipe → graceful drain → clean exit
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("running kill -TERM");
    assert!(kill.success());
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let exit = loop {
        if let Some(status) = child.try_wait().expect("polling the child") {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "fairrank serve did not exit after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(exit.success(), "drained exit must be clean: {exit}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("drained, exiting"), "{rest:?}");
}
