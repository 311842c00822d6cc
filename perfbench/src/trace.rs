//! The traced run: each workload's exact inputs replayed in-process,
//! with a span around every call into a layer's public functions.
//!
//! Spans are recorded from this file only; nothing inside the program
//! changes. A request's root span covers the calls the server makes for
//! it, back to back. Each layer's self time is its span minus the child
//! spans inside it, and the self times must add up to the root spans
//! within [`RECONCILE_TOLERANCE`], or the run fails.

use crate::gen::Catalogue;
use crate::stats::{mean, median};
use crate::{drive::FirstBodies, Result, PER_LAYER};
use fair_baselines::weakly_fair_ranking;
use fair_mallows::{Criterion, MallowsFairRanker};
use fairness_metrics::infeasible::{pfair_percentage, two_sided_infeasible_index};
use fairness_metrics::{FairnessBounds, GroupAssignment};
use fairrank_engine::job::{JobInput, JobParams, RankJob};
use fairrank_engine::json::{Json, JsonArena};
use fairrank_engine::registry::Registry;
use fairrank_engine::server::{ring_key, write_response_into};
use fairrank_engine::stats::JobOrigin;
use fairrank_engine::tables::{ExecContext, TableCache};
use fairrank_engine::trace::{SpanRecorder, TraceHandle};
use fairrank_engine::{Engine, EngineConfig};
use fairrank_router::ring::HashRing;
use fairrank_router::{ForwardOutcome, RouterConfig, RouterCore};
use mallows_model::tables::SamplerTables;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Largest share of the traced root time that child spans may leave
/// uncovered, or over-cover, before the traced run fails.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// Requests the router replay forwards to the spawned backends.
const ROUTER_REPLAY: usize = 500;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Every per-layer metric at 0, for the layers a workload does not run.
pub fn zeroed() -> Layers {
    PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect()
}

/// Run `f` and return its value and its duration in µs.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = black_box(f());
    (value, started.elapsed().as_secs_f64() * 1e6)
}

/// Samples of each span, in µs (or a count), by metric name.
#[derive(Default)]
pub struct Spans(BTreeMap<&'static str, Vec<f64>>);

impl Spans {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }
}

/// Coverage bookkeeping for the reconciliation check.
#[derive(Default)]
pub struct Reconcile {
    root_us: f64,
    error_us: f64,
}

impl Reconcile {
    /// A root span and its consecutive children: whatever the children
    /// leave uncovered is unattributed time.
    pub fn root(&mut self, root_us: f64, children: &[f64]) {
        self.root_us += root_us;
        self.error_us += (root_us - children.iter().sum::<f64>()).abs();
    }

    /// A span whose children were measured separately: children that
    /// add up to more than their parent would give it a negative self
    /// time.
    pub fn nested(&mut self, parent_us: f64, children: &[f64]) {
        self.error_us += (children.iter().sum::<f64>() - parent_us).max(0.0);
    }

    /// The error share, or a loud failure beyond the tolerance.
    pub fn check(&self) -> Result<f64> {
        let share = self.error_us / self.root_us.max(f64::MIN_POSITIVE);
        if share > RECONCILE_TOLERANCE {
            return Err(format!(
                "per-layer self times miss the traced total by {:.1}% (tolerance {:.1}%)",
                share * 100.0,
                RECONCILE_TOLERANCE * 100.0
            ));
        }
        Ok(share)
    }
}

/// The engine's dense group assignment for a job's `groups` column.
pub fn group_assignment(groups: &[usize]) -> Result<GroupAssignment> {
    let num_groups = groups.iter().max().map_or(1, |&g| g + 1);
    GroupAssignment::new(groups.to_vec(), num_groups).map_err(|e| e.to_string())
}

/// The mallows path of `Algorithm::run`, one call per layer: centre,
/// table fetch (a cache hit, as on a warm server) and a cold build,
/// kernel, and the fairness report on the winner. `run_us` is the
/// measured `Algorithm::run` of the same job; the rest of it is the
/// metrics report. The winner must equal `expected`.
pub fn mallows_layers(
    scores: &[f64],
    groups: &GroupAssignment,
    params: &JobParams,
    tables: &TableCache,
    run_us: f64,
    expected: &[usize],
    spans: &mut Spans,
) -> Result<()> {
    if params.samples >= 64 {
        return Err("the replay covers the sequential kernel only (samples < 64)".to_string());
    }
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let n = scores.len();
    let bounds = FairnessBounds::from_assignment_with_tolerance(groups, params.tolerance);
    let ranker = MallowsFairRanker::new(
        params.theta,
        params.samples,
        Criterion::MaxNdcg(scores.to_vec()),
    )
    .map_err(|e| err(&e))?;
    let (center, centre_us) = time(|| weakly_fair_ranking(scores, groups, &bounds));
    let (table, fetch_us) = time(|| tables.get_or_build(n, params.theta));
    let table = table.map_err(|e| err(&e))?;
    let (built, build_us) = time(|| SamplerTables::new(n, params.theta));
    built.map_err(|e| err(&e))?;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let (out, kernel_us) = time(|| ranker.rank_with_tables(&center, &table, &mut rng));
    let out = out.map_err(|e| err(&e))?;
    if out.ranking.as_order() != expected {
        return Err("the replayed kernel chose another winner than the full run".to_string());
    }
    let (ii, infeasible_us) = time(|| two_sided_infeasible_index(&out.ranking, groups, &bounds));
    ii.map_err(|e| err(&e))?;
    let (pf, pfair_us) = time(|| pfair_percentage(&out.ranking, groups, &bounds));
    pf.map_err(|e| err(&e))?;
    spans.push("baselines.centre_us", centre_us);
    spans.push("tables.fetch_us", fetch_us);
    spans.push("tables.build_us", build_us);
    spans.push("mallows.kernel_us", kernel_us);
    spans.push("fairness.infeasible_us", infeasible_us);
    spans.push("fairness.pfair_us", pfair_us);
    spans.push(
        "fairness.report_us",
        run_us - centre_us - fetch_us - kernel_us,
    );
    spans.push("mallows.samples_drawn", out.samples_drawn as f64);
    spans.push("abandoned", out.samples_abandoned as f64);
    Ok(())
}

/// Medians of the algorithm-layer spans into `layers`.
pub fn algorithm_layers(spans: &Spans, layers: &mut Layers) {
    for name in [
        "registry.run_us",
        "baselines.centre_us",
        "tables.fetch_us",
        "tables.build_us",
        "mallows.kernel_us",
        "mallows.samples_drawn",
        "fairness.infeasible_us",
        "fairness.pfair_us",
        "fairness.report_us",
    ] {
        layers.insert(name, spans.median(name));
    }
    let drawn = spans.sum("mallows.samples_drawn");
    if drawn > 0.0 {
        layers.insert("mallows.abandon_rate", spans.sum("abandoned") / drawn);
    }
}

fn origin(path: &str) -> JobOrigin {
    match path {
        "/aggregate" => JobOrigin::Aggregate,
        "/pipeline" => JobOrigin::Pipeline,
        _ => JobOrigin::Rank,
    }
}

/// The request path of one HTTP replay pass, untraced: the calls the
/// server makes per request, with one timer around the whole pass.
fn untraced_pass(
    cat: &Catalogue,
    replay: &[usize],
    bodies: &[Vec<u8>],
    config: &EngineConfig,
) -> Result<f64> {
    let engine = Engine::new(config.clone());
    let jobs: Vec<RankJob> = replay.iter().map(|&e| cat.job(e)).collect();
    let mut arena = JsonArena::new();
    let mut out = String::new();
    let mut frame = Vec::new();
    let started = Instant::now();
    for ((job, body), &entry) in jobs.into_iter().zip(bodies).zip(replay) {
        let path = cat.head(entry).path;
        black_box(ring_key(path, body, &mut arena));
        let result = engine
            .submit_traced(job, origin(path), None)
            .map_err(|e| e.to_string())?;
        out.clear();
        result.write_json(&mut out);
        write_response_into(&mut frame, 200, &out, true, None);
        black_box(&frame);
    }
    Ok(started.elapsed().as_secs_f64() * 1e6)
}

/// The same pass with a span per layer. Returns the summed root spans
/// and the entries whose job ran (missed the cache).
fn traced_pass(
    cat: &Catalogue,
    replay: &[usize],
    bodies: &[Vec<u8>],
    config: &EngineConfig,
    first: &FirstBodies,
    spans: &mut Spans,
    rec: &mut Reconcile,
) -> Result<(f64, Vec<usize>)> {
    let engine = Engine::new(config.clone());
    let handle = TraceHandle {
        id: 1,
        spans: Arc::new(SpanRecorder::default()),
    };
    let mut arena = JsonArena::new();
    let mut out = String::new();
    let mut frame = Vec::new();
    let mut total_us = 0.0;
    let mut ran = Vec::new();
    for (body, &entry) in bodies.iter().zip(replay) {
        let path = cat.head(entry).path;
        let job = cat.job(entry);
        // ring_key = parse + decode + digest; parse and digest are
        // timed on their own, outside the root span
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let (_, parse_us) = time(|| arena.parse(text).is_ok());
        let (digest, digest_us) = time(|| job.digest());
        spans.push("job.canonical_bytes", job.canonical().len() as f64);
        handle.spans.reset();

        let root = Instant::now();
        let (key, ring_us) = time(|| ring_key(path, body, &mut arena));
        let (result, submit_us) = time(|| engine.submit_traced(job, origin(path), Some(&handle)));
        let result = result.map_err(|e| e.to_string())?;
        let (_, serialize_us) = time(|| {
            out.clear();
            result.write_json(&mut out);
        });
        let (_, frame_us) = time(|| write_response_into(&mut frame, 200, &out, true, None));
        let root_us = root.elapsed().as_secs_f64() * 1e6;

        if key != Some(digest) {
            return Err(format!(
                "entry {entry}: the body decodes to another job than generated"
            ));
        }
        if first.get(entry).is_some_and(|b| b != out.as_bytes()) {
            return Err(format!(
                "entry {entry}: the replay answered other bytes than the server"
            ));
        }
        let recorded = &handle.spans;
        let cache_us = recorded.cache_us.load(Ordering::Relaxed) as f64;
        let queue_us = recorded.queue_us.load(Ordering::Relaxed) as f64;
        let run_us = recorded.run_us.load(Ordering::Relaxed) as f64;
        if !recorded.cache_hit.load(Ordering::Relaxed) {
            ran.push(entry);
        }
        rec.root(root_us, &[ring_us, submit_us, serialize_us, frame_us]);
        rec.nested(ring_us, &[parse_us, digest_us]);
        rec.nested(submit_us, &[cache_us, queue_us, run_us]);
        total_us += root_us;
        spans.push("json.parse_us", parse_us);
        spans.push("server.ring_key_us", ring_us);
        spans.push("server.decode_us", ring_us - parse_us - digest_us);
        spans.push("server.frame_us", frame_us);
        spans.push("job.digest_us", digest_us);
        spans.push("job.serialize_us", serialize_us);
        spans.push("job.response_bytes", out.len() as f64);
        spans.push("cache.lookup_us", cache_us);
        spans.push("pool.queue_wait_us", queue_us);
        spans.push("root_us", root_us);
    }
    Ok((total_us, ran))
}

/// `Algorithm::run` called directly on each job that ran, and the
/// mallows ones split into their layers.
fn algorithm_replay(cat: &Catalogue, entries: &[usize], spans: &mut Spans) -> Result<()> {
    let registry = Registry::standard();
    let ctx = ExecContext::new(Arc::new(TableCache::new(64)));
    for &entry in entries {
        let job = cat.job(entry);
        let algorithm = registry
            .get(&job.algorithm)
            .ok_or_else(|| format!("no algorithm {}", job.algorithm))?;
        let mut rng = StdRng::seed_from_u64(job.params.seed);
        let (result, run_us) = time(|| algorithm.run(&job, &ctx, &mut rng));
        let result = result.map_err(|e| e.to_string())?;
        spans.push("registry.run_us", run_us);
        if let ("mallows", JobInput::Scores { scores, groups }) =
            (job.algorithm.as_str(), &job.input)
        {
            mallows_layers(
                scores,
                &group_assignment(groups)?,
                &job.params,
                &ctx.tables,
                run_us,
                &result.ranking,
                spans,
            )?;
        }
    }
    Ok(())
}

/// The router's placement and forwarding, replayed against the spawned
/// backends.
fn router_replay(
    cat: &Catalogue,
    replay: &[usize],
    bodies: &[Vec<u8>],
    backends: &[SocketAddr],
    first: &FirstBodies,
    spans: &mut Spans,
    rec: &mut Reconcile,
) -> Result<()> {
    let addrs: Vec<String> = backends.iter().map(SocketAddr::to_string).collect();
    let core = RouterCore::new(RouterConfig {
        backends: addrs.clone(),
        ..RouterConfig::default()
    });
    core.probe_once();
    let ring = HashRing::build(&addrs);
    let mut arena = JsonArena::new();
    let mut scratch = Vec::new();
    for (body, &entry) in bodies.iter().zip(replay).take(ROUTER_REPLAY) {
        let path = cat.head(entry).path;
        let root = Instant::now();
        let (key, ring_us) = time(|| ring_key(path, body, &mut arena).unwrap_or(0));
        let (_, owner_us) = time(|| ring.owner(key).map(str::len));
        let (outcome, forward_us) = time(|| core.forward("POST", path, body, key, &mut scratch));
        let root_us = root.elapsed().as_secs_f64() * 1e6;
        match outcome {
            ForwardOutcome::Forwarded { response, .. }
                if response.status == 200
                    && first
                        .get(entry)
                        .is_none_or(|b| b == response.body.as_slice()) => {}
            _ => return Err(format!("entry {entry}: forwarding to the backends failed")),
        }
        rec.root(root_us, &[ring_us, owner_us, forward_us]);
        spans.push("router.ring_key_us", ring_us);
        spans.push("router.owner_us", owner_us);
        spans.push("router.forward_us", forward_us);
    }
    Ok(())
}

/// Sum of one `/stats` counter over the servers.
fn counter(stats: &[Json], name: &str) -> f64 {
    stats
        .iter()
        .filter_map(|s| s.get(name).and_then(Json::as_f64))
        .sum()
}

/// Per-layer metrics of an HTTP workload. `e2e_p50_us` is the untraced
/// run's open-loop median and `stats` the spawned servers' `/stats`
/// after it; `backends` is set when the workload goes through the
/// router.
pub fn http(
    cat: &Catalogue,
    replay: &[usize],
    first: &FirstBodies,
    backends: Option<&[SocketAddr]>,
    e2e_p50_us: f64,
    stats: &[Json],
) -> Result<Layers> {
    let bodies: Vec<Vec<u8>> = replay
        .iter()
        .map(|&e| {
            let mut body = Vec::new();
            cat.body_into(e, &mut body);
            body
        })
        .collect();
    // one worker, like every spawned `serve`
    let config = EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    };
    let mut spans = Spans::default();
    let mut rec = Reconcile::default();
    // alternate untraced and traced passes, so neither always runs on
    // the warmer process
    let (mut untraced_us, mut traced_us) = (0.0, 0.0);
    let mut ran = Vec::new();
    for round in 0..2 {
        untraced_us += untraced_pass(cat, replay, &bodies, &config)?;
        let (total, misses) =
            traced_pass(cat, replay, &bodies, &config, first, &mut spans, &mut rec)?;
        traced_us += total;
        if round == 0 {
            ran = misses;
        }
    }
    ran.sort_unstable();
    ran.dedup();
    algorithm_replay(cat, &ran, &mut spans)?;
    if let Some(backends) = backends {
        router_replay(cat, replay, &bodies, backends, first, &mut spans, &mut rec)?;
    }

    let mut layers = zeroed();
    for name in [
        "json.parse_us",
        "server.ring_key_us",
        "server.decode_us",
        "server.frame_us",
        "job.digest_us",
        "job.canonical_bytes",
        "job.serialize_us",
        "job.response_bytes",
        "router.ring_key_us",
        "router.owner_us",
        "router.forward_us",
    ] {
        layers.insert(name, spans.median(name));
    }
    // the engine records these spans in whole µs, so their median would
    // be quantised; the mean keeps the resolution
    layers.insert("cache.lookup_us", mean(spans.get("cache.lookup_us")));
    layers.insert("pool.queue_wait_us", mean(spans.get("pool.queue_wait_us")));
    algorithm_layers(&spans, &mut layers);

    let root_p50_us = spans.median("root_us");
    match backends {
        Some(_) => {
            let forward_p50_us = spans.median("router.forward_us");
            layers.insert("server.io_us", forward_p50_us - root_p50_us);
            layers.insert("router.hop_us", e2e_p50_us - forward_p50_us);
        }
        None => {
            layers.insert("server.io_us", e2e_p50_us - root_p50_us);
        }
    }
    let hits = counter(stats, "cache_hits");
    let lookups = hits + counter(stats, "cache_misses");
    layers.insert("cache.hit_ratio", hits / lookups.max(1.0));
    layers.insert("cache.coalesced", counter(stats, "chunks_coalesced"));
    layers.insert("pool.rejections", counter(stats, "queue_rejections"));
    let table_hits = counter(stats, "sampler_table_hits");
    let table_lookups = table_hits + counter(stats, "sampler_table_misses");
    layers.insert("tables.hit_ratio", table_hits / table_lookups.max(1.0));
    layers.insert("bench.trace_overhead_share", traced_us / untraced_us - 1.0);
    layers.insert("bench.reconcile_error_share", rec.check()?);
    Ok(layers)
}
