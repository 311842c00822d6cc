//! The HTTP workloads: `serve_cold` and `serve_reuse` against one
//! `fairrank serve --workers 1`, and `router_reuse` through `fairrank
//! router` over two such backends. `serve_reuse` is not in
//! `BENCHMARK.json`; it runs when named, as the single-server baseline
//! of `router_reuse`.

use crate::check::{self, Verdicts};
use crate::drive::{self, FirstBodies, Shot};
use crate::gen::{self, Catalogue};
use crate::http::Client;
use crate::procs::Server;
use crate::stats::{mean, median, percentile};
use crate::{trace, Opts, Report, Result};
use fairrank_engine::job::{JobInput, JobParams};
use fairrank_engine::json::Json;
use rand::Rng;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Share of `--seconds` spent in the open-loop phase; the closed-loop
/// phase takes the rest.
const OPEN_SHARE: f64 = 0.6;

/// Distinct candidate pools of `serve_cold` (requests cycle through
/// them; each request still has its own seed).
const COLD_POOLS: usize = 4;
const COLD_N: usize = 10_000;

/// Entries of the `serve_reuse` catalogue: 4× the server's default
/// 1024-entry result cache.
const REUSE_CATALOGUE: usize = 4096;
/// Zipf exponent of the catalogue draw.
const REUSE_ZIPF: f64 = 1.0;

/// A workload's fixed load and latency limit.
struct Spec {
    /// Open-loop arrival rate, requests per second.
    rate: f64,
    /// Latency limit of `slo_met_share`, ms.
    slo_ms: f64,
    /// Through the router over two backends, or one server.
    routed: bool,
    /// Requests the traced run replays in-process.
    replay: usize,
}

fn spec(workload: &str) -> Spec {
    match workload {
        "serve_cold" => Spec {
            rate: 25.0,
            slo_ms: 100.0,
            routed: false,
            replay: 32,
        },
        // the same rate for both, so they send the same stream on the
        // same schedule and differ only by the router hop
        "serve_reuse" => Spec {
            rate: 750.0,
            slo_ms: 10.0,
            routed: false,
            replay: 2000,
        },
        _ => Spec {
            rate: 750.0,
            slo_ms: 10.0,
            routed: true,
            replay: 2000,
        },
    }
}

/// The generated inputs of one run.
pub struct Plan {
    pub cat: Catalogue,
    /// Entry sent to warm up; in neither phase, so it never pre-fills
    /// the cache for them.
    pub warmup: usize,
    /// `(due offset in s, entry)` of the open-loop phase.
    pub open: Vec<(f64, usize)>,
    /// Entries of the closed-loop phase, in order.
    pub closed: Vec<usize>,
}

/// Room for the closed loop to run this many times faster than the
/// open-loop rate before it runs out of requests.
const CLOSED_HEADROOM: f64 = 16.0;

fn closed_len(spec: &Spec, seconds: f64) -> usize {
    (spec.rate * CLOSED_HEADROOM * seconds * (1.0 - OPEN_SHARE)) as usize + 64
}

/// `serve_cold`: mallows at n = 10⁴, θ = 0.6, m = 32; every request has
/// its own seed, so every request misses the result cache while the
/// sampler table for (10⁴, 0.6) stays cached.
fn cold_plan(seed: u64, seconds: f64, spec: &Spec) -> Plan {
    let mut rng = gen::rng(seed, 1);
    let mut cat = Catalogue::default();
    let params = JobParams {
        theta: 0.6,
        samples: 32,
        ..JobParams::default()
    };
    let heads: Vec<usize> = (0..COLD_POOLS)
        .map(|_| {
            let (scores, groups) = gen::biased_pool(&mut rng, COLD_N, 4);
            cat.push_head(
                "/rank",
                "mallows",
                JobInput::Scores { scores, groups },
                params.clone(),
            )
        })
        .collect();
    // job seeds stay below 2⁵³ so they survive a JSON number round trip
    let base = (seed % 1_000_000) * 10_000_000;
    let mut next = 0u64;
    let mut fresh = |cat: &mut Catalogue| {
        next += 1;
        cat.push_entry(heads[next as usize % COLD_POOLS], base + next)
    };
    let warmup = fresh(&mut cat);
    // paced rather than Poisson, and spaced so that requests do not
    // overlap: a request lasts over half the spacing, and two requests in
    // flight on a 2-vCPU host both take twice as long whenever the host
    // takes one vCPU away, so the p99 followed the share of overlapping
    // requests (0.4 at 30 req/s with wider jitter) and swung by 0.76
    let open = gen::paced_arrivals(spec.rate, seconds * OPEN_SHARE)
        .into_iter()
        .map(|t| (t, fresh(&mut cat)))
        .collect();
    let closed = (0..closed_len(spec, seconds))
        .map(|_| fresh(&mut cat))
        .collect();
    Plan {
        cat,
        warmup,
        open,
        closed,
    }
}

/// One kind of `serve_reuse` request: route, algorithm and size.
#[derive(Clone, Copy)]
enum Kind {
    Rank(&'static str, usize),
    Aggregate,
    Pipeline,
}

/// The kinds of 15 consecutive popularity ranks: 12 `/rank` (three
/// rankers at n ∈ {10, 100, 1000}, FA*IR at n = 10 only: its adjusted
/// table costs ~2.5 ms at n = 100 and ~0.2 s at n = 1000 on a 2-CPU Xeon
/// VM, and would make one algorithm set the tail of a workload meant to
/// stress the layers around the algorithms), 2 `/aggregate` and 1
/// `/pipeline`. Ranks cycle through it, so every seed has the same mix
/// at every popularity and only the data and job seeds change.
const REUSE_KINDS: [Kind; 15] = [
    Kind::Rank("weakly-fair", 10),
    Kind::Rank("mallows", 100),
    Kind::Rank("detconstsort", 1000),
    Kind::Rank("fa-ir", 10),
    Kind::Aggregate,
    Kind::Rank("weakly-fair", 100),
    Kind::Rank("mallows", 1000),
    Kind::Rank("detconstsort", 10),
    Kind::Rank("fa-ir", 10),
    Kind::Pipeline,
    Kind::Rank("weakly-fair", 1000),
    Kind::Rank("mallows", 10),
    Kind::Rank("detconstsort", 100),
    Kind::Rank("fa-ir", 10),
    Kind::Aggregate,
];

/// `serve_reuse` and `router_reuse`: a catalogue of small mixed
/// requests drawn by Zipf popularity, so most requests hit the result
/// cache and the misses insert and evict beside them. Catalogue entry
/// `r` is the `r`-th most popular.
fn reuse_plan(seed: u64, seconds: f64, spec: &Spec) -> Plan {
    let mut rng = gen::rng(seed, 3);
    let mut cat = Catalogue::default();
    for rank in 0..REUSE_CATALOGUE {
        let head = match REUSE_KINDS[rank % REUSE_KINDS.len()] {
            Kind::Rank(algorithm, n) => {
                let (scores, groups) = gen::biased_pool(&mut rng, n, 2 + rank % 2);
                cat.push_head(
                    "/rank",
                    algorithm,
                    JobInput::Scores { scores, groups },
                    JobParams::default(),
                )
            }
            kind => {
                // profiles of 4 to 8 items, cycling
                let items = 4 + (rank / REUSE_KINDS.len()) % 5;
                let votes = gen::vote_profile(&mut rng, items, 5);
                if let Kind::Aggregate = kind {
                    let params = JobParams {
                        method: "borda".to_string(),
                        ..JobParams::default()
                    };
                    cat.push_head("/aggregate", "borda", votes, params)
                } else {
                    cat.push_head("/pipeline", "pipeline", votes, JobParams::default())
                }
            }
        };
        cat.push_entry(head, rng.random_range(0..1_000_000u64));
    }
    let (scores, groups) = gen::biased_pool(&mut rng, 10, 2);
    let warm_head = cat.push_head(
        "/rank",
        "weakly-fair",
        JobInput::Scores { scores, groups },
        JobParams::default(),
    );
    let warmup = cat.push_entry(warm_head, 0);

    let zipf = gen::Zipf::new(REUSE_CATALOGUE, REUSE_ZIPF);
    let mut draws = gen::rng(seed, 4);
    let open = gen::poisson_arrivals(spec.rate, seconds * OPEN_SHARE)
        .into_iter()
        .map(|t| (t, zipf.sample(&mut draws)))
        .collect();
    let closed = (0..closed_len(spec, seconds))
        .map(|_| zipf.sample(&mut draws))
        .collect();
    Plan {
        cat,
        warmup,
        open,
        closed,
    }
}

/// The spawned processes of one set-up. Dropping it stops them all.
pub struct Deployment {
    /// The `serve` processes (the backends, when routed).
    pub backends: Vec<Server>,
    pub router: Option<Server>,
}

impl Deployment {
    /// Where clients send requests.
    pub fn front(&self) -> SocketAddr {
        self.router.as_ref().unwrap_or(&self.backends[0]).addr
    }

    fn peak_rss_mb(&self) -> Result<f64> {
        self.backends
            .iter()
            .chain(&self.router)
            .map(Server::peak_rss_mb)
            .sum()
    }
}

fn deploy(fairrank: &Path, routed: bool) -> Result<Deployment> {
    // one worker per server: with two, two requests in flight on a 2-vCPU
    // host both take twice as long whenever the host takes one vCPU away,
    // and the warm-up request warms only one of the workers
    if !routed {
        return Ok(Deployment {
            backends: vec![Server::spawn(fairrank, &["serve", "--workers", "1"])?],
            router: None,
        });
    }
    // each pooled router connection pins one backend I/O worker, so the
    // backends get I/O threads beyond the router's concurrency, as
    // docs/CLUSTER.md prescribes; otherwise readiness probes starve
    let backend = ["serve", "--workers", "1", "--io-threads", "8"];
    let backends = vec![
        Server::spawn(fairrank, &backend)?,
        Server::spawn(fairrank, &backend)?,
    ];
    let a = backends[0].addr.to_string();
    let b = backends[1].addr.to_string();
    let router = Server::spawn(fairrank, &["router", "--backend", &a, "--backend", &b])?;
    Ok(Deployment {
        backends,
        router: Some(router),
    })
}

/// Send the warm-up request until it is answered correctly (a router
/// answers 503 until its first probe admits the backends).
fn warm_up(front: SocketAddr, plan: &Plan, expected: &[u8]) -> Result<()> {
    let mut client = Client::new(front);
    let mut body = Vec::new();
    plan.cat.body_into(plan.warmup, &mut body);
    let path = plan.cat.head(plan.warmup).path;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(200) = client.send("POST", path, &body) {
            if client.body() == expected {
                return Ok(());
            }
            return Err("the warm-up answer differs from the in-process result".to_string());
        }
        if Instant::now() > deadline {
            return Err("no answer to the warm-up request within 30 s".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One set-up: generate the inputs, spawn the processes, warm up until
/// the first correct answer.
fn set_up(opts: &Opts, spec: &Spec) -> Result<(Plan, Deployment, f64)> {
    let started = Instant::now();
    let plan = match opts.workload.as_str() {
        "serve_cold" => cold_plan(opts.seed, opts.seconds, spec),
        _ => reuse_plan(opts.seed, opts.seconds, spec),
    };
    let deployment = deploy(&opts.fairrank, spec.routed)?;
    let (_, expected) = check::expected_body(&check::oracle_engine(), &plan.cat, plan.warmup)?;
    warm_up(deployment.front(), &plan, &expected)?;
    Ok((plan, deployment, started.elapsed().as_secs_f64()))
}

/// Counters from a server's own `GET /stats`.
pub fn server_stats(addr: SocketAddr) -> Result<Json> {
    let mut client = Client::new(addr);
    match client.send("GET", "/stats", b"") {
        Ok(200) => {
            let text = std::str::from_utf8(client.body()).map_err(|e| e.to_string())?;
            Json::parse(text).map_err(|e| format!("bad /stats body: {e}"))
        }
        other => Err(format!("GET /stats failed: {other:?}")),
    }
}

pub fn run(opts: &Opts) -> Result<Report> {
    let spec = spec(&opts.workload);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut current = None;
    for _ in 0..SETUPS {
        // stop the previous set-up's processes before the next starts
        drop(current.take());
        let (plan, deployment, seconds) = set_up(opts, &spec)?;
        setups.push(seconds);
        current = Some((plan, deployment));
    }
    let (plan, deployment) = current.expect("at least one set-up");
    let front = deployment.front();

    let first = FirstBodies::new(plan.cat.entries.len());
    let open = drive::open_loop(front, &plan.cat, &plan.open, &first);
    // read after the open loop, whose request count the seed fixes
    let peak_rss_mb = deployment.peak_rss_mb()?;
    let closed_for = Duration::from_secs_f64(opts.seconds * (1.0 - OPEN_SHARE));
    let (closed, closed_s) = drive::closed_loop(front, &plan.cat, &plan.closed, closed_for, &first);
    let counters = if opts.trace {
        deployment
            .backends
            .iter()
            .map(|s| server_stats(s.addr))
            .collect::<Result<Vec<_>>>()?
    } else {
        Vec::new()
    };
    let verdicts = check::verify(&plan.cat, &first)?;

    let mut report = Report::default();
    tally(&mut report, &verdicts, open.iter().chain(&closed));
    let latencies: Vec<f64> = open.iter().map(|s| s.latency_ms).collect();
    let late: Vec<f64> = open.iter().filter_map(|s| s.late_ms).collect();
    report.samples.insert("setup_s", setups.clone());
    report.samples.insert("latency_ms", latencies.clone());
    report.samples.insert("generator_late_ms", late.clone());

    if opts.trace {
        let replay: Vec<usize> = plan
            .open
            .iter()
            .take(spec.replay)
            .map(|&(_, e)| e)
            .collect();
        let backends: Vec<SocketAddr> = deployment.backends.iter().map(|s| s.addr).collect();
        let mut layers = trace::http(
            &plan.cat,
            &replay,
            &first,
            spec.routed.then_some(&backends[..]),
            percentile(&latencies, 50.0) * 1e3,
            &counters,
        )?;
        layers.insert("bench.generator_late_p99_ms", percentile(&late, 99.0));
        report.metrics = layers;
        return Ok(report);
    }

    let (windows, items_windows) = windowed_rates(&plan.cat, &verdicts, &closed, closed_s);
    report
        .samples
        .insert("throughput_windows_rps", windows.clone());
    let met = open
        .iter()
        .filter(|s| verdicts.correct(s) && s.latency_ms <= spec.slo_ms)
        .count();
    // over the distinct `/rank` jobs of the open loop, which the seed
    // fixes: the same winners give the same values
    let mut ranked: Vec<usize> = open
        .iter()
        .map(|s| s.entry)
        .filter(|&e| plan.cat.head(e).path == "/rank")
        .collect();
    ranked.sort_unstable();
    ranked.dedup();
    let quality = |name: &str| {
        let values: Vec<f64> = ranked
            .iter()
            .filter_map(|&e| verdicts.result(e).and_then(|r| r.metric(name)))
            .collect();
        mean(&values)
    };
    let m = &mut report.metrics;
    m.insert("setup_s", median(&setups));
    m.insert("latency_p50_ms", percentile(&latencies, 50.0));
    m.insert("latency_p99_ms", tail_p99(&open));
    m.insert("slo_met_share", met as f64 / open.len().max(1) as f64);
    m.insert("throughput_rps", median(&windows));
    m.insert("items_per_s", median(&items_windows));
    m.insert("peak_rss_mb", peak_rss_mb);
    m.insert("ndcg_vs_pool", quality("ndcg_vs_pool"));
    m.insert("pfair_percentage", quality("pfair_percentage"));
    m.insert("infeasible_index", quality("infeasible_index"));
    Ok(report)
}

/// Open-loop requests per block of the tail estimate: at least ten lie
/// beyond each block's 99th percentile.
const TAIL_BLOCK: usize = 1000;

/// The open loop's 99th-percentile latency. With at least two blocks of
/// [`TAIL_BLOCK`] requests, in schedule order, it is the median of the
/// blocks' p99s, so a short stall of the host moves one block, not the
/// result; fewer requests give the pooled p99.
fn tail_p99(open: &[Shot]) -> f64 {
    let blocks = open.len() / TAIL_BLOCK;
    if blocks < 2 {
        return percentile(&open.iter().map(|s| s.latency_ms).collect::<Vec<_>>(), 99.0);
    }
    let mut by_block = vec![Vec::new(); blocks];
    for shot in open {
        by_block[shot.seq * blocks / open.len()].push(shot.latency_ms);
    }
    let p99s: Vec<f64> = by_block.iter().map(|b| percentile(b, 99.0)).collect();
    median(&p99s)
}

/// Correct responses and candidates ranked in each whole second of the
/// closed loop. The metrics are their medians, so a short stall of the
/// host moves one window, not the result.
fn windowed_rates(
    cat: &Catalogue,
    verdicts: &Verdicts,
    closed: &[Shot],
    closed_s: f64,
) -> (Vec<f64>, Vec<f64>) {
    let windows = (closed_s.floor() as usize).max(1);
    let mut responses = vec![0.0; windows];
    let mut items = vec![0.0; windows];
    for shot in closed.iter().filter(|s| verdicts.correct(s)) {
        let w = shot.done_s.floor() as usize;
        if w < windows {
            responses[w] += 1.0;
            items[w] += cat.head(shot.entry).input.len() as f64;
        }
    }
    (responses, items)
}

/// Count attempts, failures and wrong outputs.
fn tally<'a>(report: &mut Report, verdicts: &Verdicts, shots: impl Iterator<Item = &'a Shot>) {
    for shot in shots {
        report.attempted += 1;
        if !verdicts.correct(shot) {
            report.failed += 1;
        }
        if verdicts.wrong(shot) {
            report.wrong += 1;
        }
    }
}
