//! Before/after bench for the sampler-table subsystem: the original
//! closed-form-per-stage, allocate-per-sample RIM path versus the
//! table-driven zero-allocation [`RimSampler`], plus the engine's
//! cross-request table cache (cold build vs hit).
//!
//! The acceptance target for the subsystem is `sample_many` at
//! `n = 1000, m = 100` running ≥ 3× faster through the table path;
//! `tables/old_closed_form` vs `tables/table_driven` measures exactly
//! that pair.
//!
//! The `tables/stage` legs time code drawing alone at `n = 10⁴` and
//! `θ ∈ {0.05, 0.6, 2}`, in ns per stage: the guide-table path
//! (`sample_code_into`) against the galloping oracle
//! (`sample_stage_reference`). Before any timing they assert that both
//! draw byte-identical codes and leave the RNG in the same state.

use criterion::{criterion_group, Criterion};
use fairrank_engine::tables::TableCache;
use mallows_model::tables::{sample_reference, SamplerTables};
use mallows_model::MallowsModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ranking_core::Permutation;
use std::hint::black_box;
use std::time::Duration;

const N: usize = 1000;
const M: usize = 100;
const THETA: f64 = 1.0;
/// Ranking length and dispersions of the stage-draw legs.
const STAGE_N: usize = 10_000;
const STAGE_THETAS: [f64; 3] = [0.05, 0.6, 2.0];

/// One code drawn stage by stage through the galloping oracle.
fn oracle_code_into(tables: &SamplerTables, code: &mut Vec<u32>, rng: &mut StdRng) {
    code.clear();
    code.extend((1..=tables.n()).map(|j| tables.sample_stage_reference(j, rng) as u32));
}

/// The guide-table path must draw the oracle's codes byte for byte and
/// consume the same randomness; checked before anything is timed.
fn assert_codes_match_oracle(tables: &SamplerTables) {
    for seed in 0..4 {
        let mut fast = StdRng::seed_from_u64(seed);
        let mut oracle = fast.clone();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for _ in 0..4 {
            tables.sample_code_into(tables.n(), &mut a, &mut fast);
            oracle_code_into(tables, &mut b, &mut oracle);
            assert_eq!(a, b, "codes differ at θ={}", tables.theta());
        }
        assert_eq!(
            fast,
            oracle,
            "RNG end state differs at θ={}",
            tables.theta()
        );
    }
}

/// The pre-table `sample_many`: one reference draw (closed-form stage
/// inversion, fresh code vector and decode) per sample.
fn sample_many_closed_form(center: &Permutation, rng: &mut StdRng) -> Vec<Permutation> {
    (0..M)
        .map(|_| sample_reference(center, THETA, rng))
        .collect()
}

fn bench_sample_many(c: &mut Criterion) {
    let center = Permutation::identity(N);
    let model = MallowsModel::new(center.clone(), THETA).unwrap();
    let mut g = c.benchmark_group("tables");

    let mut rng = bench::bench_rng();
    g.bench_function("old_closed_form/n1000_m100", |b| {
        b.iter(|| black_box(sample_many_closed_form(&center, &mut rng)));
    });

    let mut rng = bench::bench_rng();
    g.bench_function("table_driven/n1000_m100", |b| {
        b.iter(|| black_box(model.sample_many(M, &mut rng)));
    });

    // the streaming form the engine actually runs: no per-sample Vec at all
    let mut rng = bench::bench_rng();
    let mut sampler = model.sampler();
    let mut out = Permutation::identity(0);
    g.bench_function("table_driven_streaming/n1000_m100", |b| {
        b.iter(|| {
            for _ in 0..M {
                sampler.sample_into(&mut out, &mut rng);
                black_box(out.len());
            }
        });
    });
    g.finish();
}

/// Large-n serving legs: one streaming draw per iteration at
/// n = 10⁴ and 10⁵ (the criterion-kernel acceptance sizes). The
/// table stays O(n) floats and the decode is O(n log n) worst case,
/// so both sizes complete comfortably; the bench pins that claim.
fn bench_large_n(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables/large_n");
    for n in [10_000usize, 100_000] {
        let model = MallowsModel::new(Permutation::identity(n), THETA).unwrap();
        let mut sampler = model.sampler();
        let mut rng = bench::bench_rng();
        let mut out = Permutation::identity(0);
        g.bench_function(format!("table_driven_streaming/n{n}_m1"), |b| {
            b.iter(|| {
                sampler.sample_into(&mut out, &mut rng);
                black_box(out.len());
            });
        });
    }
    g.finish();
}

fn bench_stage_draws(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables/stage");
    for theta in STAGE_THETAS {
        let tables = SamplerTables::new(STAGE_N, theta).unwrap();
        assert_codes_match_oracle(&tables);
        let mut code = Vec::new();
        let mut rng = bench::bench_rng();
        g.bench_function(format!("guide/n{STAGE_N}_theta{theta}"), |b| {
            b.iter(|| {
                tables.sample_code_into(STAGE_N, &mut code, &mut rng);
                black_box(code.len());
            });
        });
        let mut rng = bench::bench_rng();
        g.bench_function(format!("oracle/n{STAGE_N}_theta{theta}"), |b| {
            b.iter(|| {
                oracle_code_into(&tables, &mut code, &mut rng);
                black_box(code.len());
            });
        });
    }
    g.finish();
}

/// Nanoseconds per stage of the guide path and of the oracle at `θ`.
fn stage_ns(theta: f64) -> (f64, f64) {
    let tables = SamplerTables::new(STAGE_N, theta).unwrap();
    assert_codes_match_oracle(&tables);
    let mut code = Vec::new();
    let mut rng = bench::bench_rng();
    let guide_s = time_per_iter(200, || {
        tables.sample_code_into(STAGE_N, &mut code, &mut rng);
        black_box(code.len());
    });
    let mut rng = bench::bench_rng();
    let oracle_s = time_per_iter(200, || {
        oracle_code_into(&tables, &mut code, &mut rng);
        black_box(code.len());
    });
    let per_stage = 1e9 / (STAGE_N - 1) as f64;
    (guide_s * per_stage, oracle_s * per_stage)
}

fn bench_table_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("tables/cache");
    g.bench_function("cold_build_n1000", |b| {
        b.iter(|| black_box(SamplerTables::new(N, THETA).unwrap()));
    });
    let cache = TableCache::new(8);
    cache.get_or_build(N, THETA).unwrap();
    g.bench_function("hit_n1000", |b| {
        b.iter(|| black_box(cache.get_or_build(N, THETA).unwrap()));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1200));
    targets = bench_sample_many, bench_large_n, bench_stage_draws, bench_table_cache
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

    // Headline pair for the committed perf trajectory (no-op unless
    // FAIRRANK_BENCH_RECORD=1): the before/after `sample_many` times
    // the acceptance target is stated against, plus the cache-hit cost.
    let center = Permutation::identity(N);
    let model = MallowsModel::new(center.clone(), THETA).unwrap();
    let mut rng = bench::bench_rng();
    let closed_form_s = time_per_iter(5, || {
        black_box(sample_many_closed_form(&center, &mut rng));
    });
    let mut rng = bench::bench_rng();
    let table_s = time_per_iter(5, || {
        black_box(model.sample_many(M, &mut rng));
    });
    let cache = TableCache::new(8);
    cache.get_or_build(N, THETA).unwrap();
    let cache_hit_s = time_per_iter(10_000, || {
        black_box(cache.get_or_build(N, THETA).unwrap());
    });
    // large-n serving legs: seconds per streaming draw at the
    // criterion-kernel acceptance sizes
    let large_n_ms: Vec<f64> = [10_000usize, 100_000]
        .iter()
        .map(|&n| {
            let model = MallowsModel::new(Permutation::identity(n), THETA).unwrap();
            let mut sampler = model.sampler();
            let mut rng = bench::bench_rng();
            let mut out = Permutation::identity(0);
            time_per_iter(10, || {
                sampler.sample_into(&mut out, &mut rng);
                black_box(out.len());
            }) * 1e3
        })
        .collect();
    // code drawing alone at n = 10⁴: ns per stage, guide path vs oracle
    let stage = STAGE_THETAS.map(stage_ns);
    for (theta, (guide, oracle)) in STAGE_THETAS.iter().zip(stage) {
        println!("stage draw n={STAGE_N} θ={theta}: guide {guide:.1} ns/stage, oracle {oracle:.1} ns/stage");
    }
    let [(g005, o005), (g06, o06), (g2, o2)] = stage;
    bench::summary::record(
        "sampler_tables",
        &[
            ("closed_form_ms", closed_form_s * 1e3),
            ("table_driven_ms", table_s * 1e3),
            ("speedup", closed_form_s / table_s),
            ("cache_hit_ns", cache_hit_s * 1e9),
            ("stream_n1e4_ms", large_n_ms[0]),
            ("stream_n1e5_ms", large_n_ms[1]),
            ("stage_ns_theta0_05", g005),
            ("stage_ns_theta0_05_oracle", o005),
            ("stage_ns_theta0_6", g06),
            ("stage_ns_theta0_6_oracle", o06),
            ("stage_ns_theta2", g2),
            ("stage_ns_theta2_oracle", o2),
        ],
    );
}
