//! The pipelined mallows kernel against the inline one.
//!
//! With a per-job thread budget of 2, a mallows job over at least
//! `fair_mallows::PIPELINE_MIN_N` items with enough samples (4096 items
//! need 4, 10⁴ need 2) is decoded and scored on a helper thread while
//! the request thread draws; with a budget of 1, or below the gate,
//! everything runs inline. The grid straddles the gate. The same job through `registry::execute`
//! must give byte-identical response bodies either way: the winner,
//! every metric and `criterion_samples_abandoned`.

use fair_mallows::PIPELINE_MIN_N;
use fairrank_engine::job::{Criterion, JobInput, JobParams, RankJob};
use fairrank_engine::registry::{execute, Registry};
use fairrank_engine::tables::{ExecContext, TableCache};
use std::sync::Arc;

/// A deterministic pool of `n` items in 4 groups, two of them with
/// lower scores (so the weakly-fair centre differs from the score
/// order).
fn pool(n: usize) -> (Vec<f64>, Vec<usize>) {
    let mut state = n as u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 29)
    };
    let groups: Vec<usize> = (0..n).map(|_| (next() % 4) as usize).collect();
    let scores = groups
        .iter()
        .map(|&g| {
            let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
            if g >= 2 {
                0.7 * u
            } else {
                u
            }
        })
        .collect();
    (scores, groups)
}

#[test]
fn thread_budget_does_not_change_mallows_bodies() {
    let registry = Registry::standard();
    let mallows = registry.get("mallows").expect("mallows is registered");
    let tables = Arc::new(TableCache::new(64));
    let inline = ExecContext::new(Arc::clone(&tables)).with_batch_threads(1);
    let pipelined = ExecContext::new(tables).with_batch_threads(2);
    let mut abandoned = 0.0;
    for n in [PIPELINE_MIN_N - 1, PIPELINE_MIN_N, 10_000] {
        let (scores, groups) = pool(n);
        let input = JobInput::Scores { scores, groups };
        for criterion in [Criterion::Ndcg, Criterion::Infeasible, Criterion::Kendall] {
            for theta in [0.0, 0.05, 0.6, 2.0, 40.0] {
                for samples in [1, 2, 15, 32] {
                    let job = RankJob {
                        algorithm: "mallows".to_string(),
                        input: input.clone(),
                        params: JobParams {
                            theta,
                            samples,
                            criterion,
                            seed: (n * 100 + samples) as u64,
                            ..JobParams::default()
                        },
                    };
                    let bodies: Vec<String> = [&inline, &pipelined]
                        .iter()
                        .map(|ctx| {
                            let result = execute(&*mallows, &job, ctx).expect("valid job");
                            abandoned +=
                                result.metric("criterion_samples_abandoned").unwrap_or(0.0);
                            let mut body = String::new();
                            result.write_json(&mut body);
                            body
                        })
                        .collect();
                    assert_eq!(
                        bodies[0], bodies[1],
                        "n={n} {criterion:?} θ={theta} m={samples}"
                    );
                }
            }
        }
    }
    assert!(abandoned > 0.0, "the grid must exercise the early abandon");
}
