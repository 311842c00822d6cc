//! Serving-engine hot path: cold submissions (cache miss → worker pool
//! → algorithm) versus cached submissions (LRU hit), plus raw registry
//! dispatch without the pool, across candidate-pool sizes.
//!
//! The cached case must come out ≥ 10× faster than the cold case — the
//! whole point of keying the LRU on (algorithm, input digest, params).

use criterion::{criterion_group, BenchmarkId, Criterion};
use fairrank_engine::job::{JobInput, JobParams, RankJob};
use fairrank_engine::registry::{self, Registry};
use fairrank_engine::tables::ExecContext;
use fairrank_engine::{Engine, EngineConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn mallows_job(n: usize, seed: u64) -> RankJob {
    let scores: Vec<f64> = (0..n).map(|i| 1.0 - i as f64 / n as f64).collect();
    let groups: Vec<usize> = (0..n).map(|i| usize::from(i >= n / 2)).collect();
    RankJob {
        algorithm: "mallows".to_string(),
        input: JobInput::Scores { scores, groups },
        params: JobParams {
            theta: 0.8,
            samples: 40,
            seed,
            ..JobParams::default()
        },
    }
}

fn engine() -> Arc<Engine> {
    Engine::new(EngineConfig {
        workers: 4,
        queue_capacity: 1024,
        cache_capacity: 4096,

        table_cache_capacity: 16,
        cache_shards: 0,
        ..EngineConfig::default()
    })
}

fn bench_cold_vs_cached(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/rank_mallows_n50");
    let n = 50;

    // cold: every submission is a distinct job (fresh seed → cache miss)
    let e = engine();
    let mut seed = 0u64;
    g.bench_function("cold", |b| {
        b.iter(|| {
            seed += 1;
            black_box(e.submit(mallows_job(n, seed)).unwrap())
        });
    });

    // cached: the identical job over and over (all hits after the first)
    let e = engine();
    e.submit(mallows_job(n, 1)).unwrap();
    g.bench_function("cached", |b| {
        b.iter(|| black_box(e.submit(mallows_job(n, 1)).unwrap()));
    });

    // registry dispatch without pool/cache, for reference
    let registry = Registry::standard();
    let algo = registry.get("mallows").unwrap();
    let job = mallows_job(n, 1);
    let ctx = ExecContext::default();
    g.bench_function("direct", |b| {
        b.iter(|| black_box(registry::execute(&*algo, &job, &ctx).unwrap()));
    });
    g.finish();
}

fn bench_pipeline_sizes(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/pipeline_borda_mallows");
    for n in [8usize, 16, 32] {
        let votes: Vec<Vec<usize>> = (0..5)
            .map(|v| {
                let mut order: Vec<usize> = (0..n).collect();
                order.rotate_left(v % n);
                order
            })
            .collect();
        let groups: Vec<usize> = (0..n).map(|i| usize::from(i >= n / 2)).collect();
        let e = engine();
        let mut seed = 0u64;
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                seed += 1;
                let job = RankJob {
                    algorithm: "pipeline".to_string(),
                    input: JobInput::Votes {
                        votes: votes.clone(),
                        groups: groups.clone(),
                    },
                    params: JobParams {
                        method: "borda".into(),
                        post: "mallows".into(),
                        samples: 5,
                        seed,
                        ..JobParams::default()
                    },
                };
                black_box(e.submit(job).unwrap())
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    targets = bench_cold_vs_cached, bench_pipeline_sizes
}
/// Seconds per iteration of `f`, after one warm-up call.
fn time_per_iter(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let started = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_secs_f64() / iters as f64
}

fn main() {
    benches();

    // Headline cold/cached pair for the committed perf trajectory
    // (no-op unless FAIRRANK_BENCH_RECORD=1) — the ≥ 10× cache claim
    // in numbers.
    let n = 50;
    let e = engine();
    let mut seed = 0u64;
    let cold_s = time_per_iter(20, || {
        seed += 1;
        black_box(e.submit(mallows_job(n, seed)).unwrap());
    });
    let e = engine();
    e.submit(mallows_job(n, 1)).unwrap();
    let cached_s = time_per_iter(2_000, || {
        black_box(e.submit(mallows_job(n, 1)).unwrap());
    });
    bench::summary::record(
        "engine_throughput",
        &[
            ("cold_ms", cold_s * 1e3),
            ("cached_us", cached_s * 1e6),
            ("cached_speedup", cold_s / cached_s),
        ],
    );
}
