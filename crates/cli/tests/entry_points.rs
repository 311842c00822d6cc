//! Differential test across entry points, in the xsv `Workdir` idiom:
//! each test writes CSV fixtures into a scratch directory, runs the
//! real `fairrank` binary on them, and checks that
//!
//! * `fairrank rank` (`aggregate`, `pipeline`) prints exactly what
//!   `POST /rank` (`/aggregate`, `/pipeline`) on `fairrank serve`
//!   returns for the same job, rendered as the command renders it;
//! * the same request forwarded through `fairrank router` returns a
//!   byte-identical body;
//! * the same jobs submitted as the chunks of one `POST /jobs` batch
//!   return byte-identical per-chunk bodies.
//!
//! The server runs with `--cache 0`, so every request and every chunk
//! is executed, not served from the result cache.

use fairrank_engine::job::Criterion;
use fairrank_engine::json::Json;
use fairrank_engine::registry::{AlgorithmKind, Registry};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

static WORKDIR_COUNT: AtomicUsize = AtomicUsize::new(0);

/// A scratch directory plus a handle on the compiled `fairrank` binary.
struct Workdir {
    dir: PathBuf,
}

impl Workdir {
    fn new(name: &str) -> Workdir {
        let id = WORKDIR_COUNT.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!(
            "fairrank_entry_points_{name}_{id}_{}",
            std::process::id()
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clearing stale workdir");
        }
        std::fs::create_dir_all(&dir).expect("creating workdir");
        Workdir { dir }
    }

    /// Write rows as a CSV file inside the workdir.
    fn create(&self, name: &str, rows: &[Vec<String>]) {
        let content: String = rows.iter().map(|r| r.join(",") + "\n").collect();
        std::fs::write(self.dir.join(name), content).expect("writing fixture");
    }

    /// Run `fairrank <args>` here and return stdout, panicking (with
    /// stderr) on failure.
    fn stdout(&self, args: &[String]) -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_fairrank"))
            .current_dir(&self.dir)
            .args(args)
            .output()
            .expect("spawning fairrank");
        assert!(
            out.status.success(),
            "fairrank {args:?} failed with {}:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("stdout is utf-8")
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One `fairrank serve --cache 0` and one `fairrank router` in front of
/// it, both killed when dropped.
struct Cluster {
    serve: Child,
    router: Child,
    serve_port: u16,
    router_port: u16,
}

/// Spawn the real binary with `args`, returning the child plus the
/// ephemeral port announced in its stdout banner.
fn spawn_fairrank(args: &[&str]) -> (Child, u16) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fairrank"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning fairrank");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("reading the banner");
    let port = banner
        .split("127.0.0.1:")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|token| token.parse().ok())
        .unwrap_or_else(|| panic!("no port in banner: {banner:?}"));
    (child, port)
}

impl Cluster {
    fn start() -> Cluster {
        // explicit --io-threads: the router holds pooled keep-alive
        // connections, and each one pins a reactor I/O worker for life
        let (serve, serve_port) = spawn_fairrank(&[
            "serve",
            "--port",
            "0",
            "--workers",
            "2",
            "--io-threads",
            "8",
            "--cache",
            "0",
        ]);
        let backend = format!("127.0.0.1:{serve_port}");
        let (router, router_port) = spawn_fairrank(&[
            "router",
            "--port",
            "0",
            "--probe-ms",
            "20",
            "--backend",
            &backend,
        ]);
        let cluster = Cluster {
            serve,
            router,
            serve_port,
            router_port,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (_, body) = http(router_port, "GET", "/healthz", "");
            if body.contains("\"backends_ready\":1") {
                break;
            }
            assert!(Instant::now() < deadline, "backend never joined: {body}");
            std::thread::sleep(Duration::from_millis(20));
        }
        cluster
    }

    /// POST `body` to `path` on the server and through the router;
    /// both must answer 200 with the same bytes.
    fn post(&self, path: &str, body: &str) -> String {
        let (status, direct) = http(self.serve_port, "POST", path, body);
        assert_eq!(status, 200, "POST {path} {body}: {direct}");
        let (status, routed) = http(self.router_port, "POST", path, body);
        assert_eq!(status, 200, "routed POST {path} {body}: {routed}");
        assert_eq!(
            routed, direct,
            "router changed the body of POST {path} {body}"
        );
        direct
    }

    /// Submit `chunks` (request bodies plus their `route`) as one
    /// `/jobs` batch and assert that its per-chunk results are
    /// byte-identical to the synchronous `bodies`.
    fn check_batch(&self, route: &str, chunks: &[String], bodies: &[String]) {
        let chunks: Vec<String> = chunks
            .iter()
            .map(|c| format!("{{\"route\":\"{route}\",{}", &c[1..]))
            .collect();
        let submit = format!("{{\"chunks\":[{}]}}", chunks.join(","));
        let (status, accepted) = http(self.serve_port, "POST", "/jobs", &submit);
        assert_eq!(status, 202, "{accepted}");
        let id: u64 = accepted
            .strip_prefix("{\"id\":")
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|digits| digits.parse().ok())
            .unwrap_or_else(|| panic!("bad submit response: {accepted}"));
        let deadline = Instant::now() + Duration::from_secs(60);
        let status_body = loop {
            let (status, body) = http(self.serve_port, "GET", &format!("/jobs/{id}"), "");
            assert_eq!(status, 200, "{body}");
            assert!(!body.contains("\"status\":\"failed\""), "{body}");
            if body.contains("\"status\":\"done\"") {
                break body;
            }
            assert!(Instant::now() < deadline, "job {id} never finished: {body}");
            std::thread::sleep(Duration::from_millis(10));
        };
        let results = format!("\"results\":[{}]}}", bodies.join(","));
        assert!(
            status_body.ends_with(&results),
            "/jobs chunk results differ from the synchronous bodies:\n{status_body}\nexpected tail:\n{results}"
        );
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in [&mut self.router, &mut self.serve] {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn http(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
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
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in: {response:?}"));
    let (_, body) = response.split_once("\r\n\r\n").expect("head/body split");
    (status, body.to_string())
}

/// `[a,b,…]` of displayable values.
fn json_array<T: std::fmt::Display>(items: &[T]) -> String {
    let items: Vec<String> = items.iter().map(ToString::to_string).collect();
    format!("[{}]", items.join(","))
}

/// Item indices of a JSON array field of a response body.
fn indices(doc: &Json, field: &str) -> Vec<usize> {
    doc.get(field)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("no `{field}` array in {doc}"))
        .iter()
        .map(|i| i.as_usize().expect("index"))
        .collect()
}

/// The `# name,value` footer the commands print for a response's
/// metrics: NDCG to 6 decimals, the P-fair percentage to 2, counts as
/// plain integers.
fn footer(doc: &Json) -> String {
    let Some(Json::Object(metrics)) = doc.get("metrics") else {
        panic!("no metrics object in {doc}");
    };
    metrics
        .iter()
        .map(|(name, value)| {
            let value = value.as_f64().expect("numeric metric");
            if name.starts_with("ndcg_") {
                format!("# {name},{value:.6}\n")
            } else if name == "pfair_percentage" {
                format!("# {name},{value:.2}\n")
            } else {
                format!("# {name},{value}\n")
            }
        })
        .collect()
}

fn parse(body: &str) -> Json {
    Json::parse(body).unwrap_or_else(|e| panic!("bad JSON body {body}: {e}"))
}

const CANDIDATES: usize = 40;

#[test]
fn rank_matches_http_router_and_jobs() {
    let wrk = Workdir::new("rank");
    // two-decimal scores with ties, so tie-breaking is exercised too;
    // group g1 comes first, so it is group id 0
    let ids: Vec<String> = (0..CANDIDATES).map(|i| format!("c{i}")).collect();
    let scores: Vec<f64> = (0..CANDIDATES)
        .map(|i| {
            format!("{:.2}", ((i * 29) % 43) as f64 / 43.0)
                .parse()
                .unwrap()
        })
        .collect();
    let groups: Vec<usize> = (0..CANDIDATES).map(|i| usize::from(i % 5 >= 3)).collect();
    let labels = ["g1", "g2"];
    let mut rows = vec![vec!["id".to_string(), "score".into(), "group".into()]];
    for i in 0..CANDIDATES {
        rows.push(vec![
            ids[i].clone(),
            scores[i].to_string(),
            labels[groups[i]].to_string(),
        ]);
    }
    wrk.create("pool.csv", &rows);

    // (flags, JSON fields) per case, beyond algorithm/theta/samples/seed
    let mut cases: Vec<(String, Vec<(&str, String)>)> = Vec::new();
    let registry = Registry::standard();
    for algorithm in registry.names_of_kind(AlgorithmKind::PostProcessor) {
        for samples in [1, 63, 64, 200] {
            for seed in [7, 8] {
                let base = vec![
                    ("algorithm", algorithm.to_string()),
                    ("theta", "0.5".to_string()),
                    ("samples", samples.to_string()),
                    ("seed", seed.to_string()),
                ];
                if algorithm == "mallows" {
                    for criterion in Criterion::ALL {
                        let mut flags = base.clone();
                        flags.push(("criterion", criterion.as_str().to_string()));
                        cases.push((algorithm.to_string(), flags));
                    }
                } else {
                    cases.push((algorithm.to_string(), base));
                }
            }
        }
    }
    // shortlists and a non-default protected group (a label on the
    // command line, its group id over HTTP)
    for algorithm in ["fair-top-k", "fa-ir"] {
        cases.push((
            algorithm.to_string(),
            vec![
                ("algorithm", algorithm.to_string()),
                ("k", "10".to_string()),
            ],
        ));
    }
    cases.push((
        "fa-ir".to_string(),
        vec![
            ("algorithm", "fa-ir".to_string()),
            ("protected", "g2".to_string()),
            ("proportion", "0.5".to_string()),
        ],
    ));

    let cluster = Cluster::start();
    let mut bodies = Vec::new();
    let mut requests = Vec::new();
    for (algorithm, flags) in &cases {
        let mut args = vec!["rank".to_string(), "--input".into(), "pool.csv".into()];
        let mut request = format!(
            "{{\"scores\":{},\"groups\":{}",
            json_array(&scores),
            json_array(&groups)
        );
        for (name, value) in flags {
            args.push(format!("--{name}"));
            args.push(value.clone());
            let value = match *name {
                "algorithm" | "criterion" => format!("\"{value}\""),
                "protected" => labels.iter().position(|l| l == value).unwrap().to_string(),
                _ => value.clone(),
            };
            request.push_str(&format!(",\"{name}\":{value}"));
        }
        request.push('}');

        let body = cluster.post("/rank", &request);
        let doc = parse(&body);
        let mut expected = String::from("rank,id,score,group\n");
        for (rank, &item) in indices(&doc, "ranking").iter().enumerate() {
            expected.push_str(&format!(
                "{},{},{},{}\n",
                rank + 1,
                ids[item],
                scores[item],
                labels[groups[item]]
            ));
        }
        expected.push_str(&footer(&doc));
        assert_eq!(
            wrk.stdout(&args),
            expected,
            "{algorithm}: fairrank {args:?}"
        );
        bodies.push(body);
        requests.push(request);
    }
    cluster.check_batch("rank", &requests, &bodies);
}

/// Vote-profile fixtures: the votes over labels `l0…l7` (the first
/// vote lists them in order, so label `lᵢ` is item `i`) and a group
/// per label.
fn vote_fixtures(wrk: &Workdir) -> (Vec<String>, Vec<Vec<usize>>, Vec<usize>) {
    let labels: Vec<String> = (0..8).map(|i| format!("l{i}")).collect();
    let votes: Vec<Vec<usize>> = (0..7)
        .map(|v| {
            let mut order: Vec<usize> = (0..8).collect();
            if v > 0 {
                order.sort_by_key(|&i| (i * (2 * v + 1) + v) % 8);
            }
            order
        })
        .collect();
    let groups: Vec<usize> = (0..8).map(|i| usize::from(i % 3 == 2)).collect();
    let rows: Vec<Vec<String>> = votes
        .iter()
        .map(|vote| vote.iter().map(|&i| labels[i].clone()).collect())
        .collect();
    wrk.create("votes.csv", &rows);
    let group_rows: Vec<Vec<String>> = (0..8)
        .map(|i| vec![labels[i].clone(), ["x", "y"][groups[i]].to_string()])
        .collect();
    wrk.create("groups.csv", &group_rows);
    (labels, votes, groups)
}

fn render_labels(labels: &[String], order: &[usize]) -> String {
    let line: Vec<&str> = order.iter().map(|&i| labels[i].as_str()).collect();
    line.join(",")
}

fn votes_json(votes: &[Vec<usize>]) -> String {
    let votes: Vec<String> = votes.iter().map(|v| json_array(v)).collect();
    format!("[{}]", votes.join(","))
}

#[test]
fn aggregate_matches_http_router_and_jobs() {
    let wrk = Workdir::new("aggregate");
    let (labels, votes, _) = vote_fixtures(&wrk);
    let cluster = Cluster::start();
    let mut bodies = Vec::new();
    let mut requests = Vec::new();
    for method in ["borda", "copeland", "footrule", "kemeny", "markov"] {
        for seed in [7, 8] {
            let request = format!(
                "{{\"method\":\"{method}\",\"votes\":{},\"seed\":{seed}}}",
                votes_json(&votes)
            );
            let body = cluster.post("/aggregate", &request);
            let doc = parse(&body);
            let expected = format!(
                "{}\n{}",
                render_labels(&labels, &indices(&doc, "ranking")),
                footer(&doc)
            );
            let args: Vec<String> = ["aggregate", "--input", "votes.csv", "--method", method]
                .iter()
                .map(ToString::to_string)
                .chain(["--seed".to_string(), seed.to_string()])
                .collect();
            assert_eq!(wrk.stdout(&args), expected, "fairrank {args:?}");
            bodies.push(body);
            requests.push(request);
        }
    }
    cluster.check_batch("aggregate", &requests, &bodies);
}

#[test]
fn pipeline_matches_http_router_and_jobs() {
    let wrk = Workdir::new("pipeline");
    let (labels, votes, groups) = vote_fixtures(&wrk);
    let cluster = Cluster::start();
    let mut bodies = Vec::new();
    let mut requests = Vec::new();
    for post in ["none", "mallows", "gr-binary", "exact-kt", "ipf"] {
        for method in ["borda", "kemeny"] {
            for seed in [7, 8] {
                let request = format!(
                    "{{\"votes\":{},\"groups\":{},\"method\":\"{method}\",\"post\":\"{post}\",\
                     \"theta\":0.5,\"tolerance\":0.2,\"seed\":{seed}}}",
                    votes_json(&votes),
                    json_array(&groups)
                );
                let body = cluster.post("/pipeline", &request);
                let doc = parse(&body);
                let expected = format!(
                    "consensus,{}\nfair,{}\n{}",
                    render_labels(&labels, &indices(&doc, "consensus")),
                    render_labels(&labels, &indices(&doc, "fair_ranking")),
                    footer(&doc)
                );
                let args: Vec<String> = [
                    "pipeline",
                    "--input",
                    "votes.csv",
                    "--groups",
                    "groups.csv",
                    "--method",
                    method,
                    "--post",
                    post,
                    "--theta",
                    "0.5",
                    "--tolerance",
                    "0.2",
                ]
                .iter()
                .map(ToString::to_string)
                .chain(["--seed".to_string(), seed.to_string()])
                .collect();
                assert_eq!(wrk.stdout(&args), expected, "fairrank {args:?}");
                bodies.push(body);
                requests.push(request);
            }
        }
    }
    cluster.check_batch("pipeline", &requests, &bodies);
}
