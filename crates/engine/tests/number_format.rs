//! `fairrank_engine::num` against `core`'s `{}`.
//!
//! The number writers feed the CLI's ranking render, the JSON writer
//! and the job digest, so each must print exactly what `format!("{x}")`
//! prints. Each float property checks 64 cases × 16 384 values (over
//! 10⁶) of one class:
//!
//! 1. random bit patterns (NaN and the infinities included);
//! 2. subnormals and ±0;
//! 3. powers of ten, every ±1-ulp neighbour, and random values within
//!    2²⁰ ulps of a power of ten;
//! 4. short decimals (1 to 17 digits) at every magnitude from 1e-20 to
//!    1e20;
//! 5. integers around 2⁵³ and around 9·10¹⁵, the fast path's limit.
//!
//! The integer writer is checked at its edges and on random values,
//! and three jobs with edge floats pin `RankJob::digest()` to the
//! values the `write!`-based canonical form produced, so cache keys and
//! router placement do not move.

use fairrank_engine::job::{Criterion, JobInput, JobParams, RankJob};
use fairrank_engine::num;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Values per case: 64 cases × 16 384 = 1 048 576 per property.
const PER_CASE: usize = 16_384;

fn check(x: f64) {
    let mut got = String::new();
    num::write_f64(x, &mut got);
    assert_eq!(got, format!("{x}"), "bits {:#018x}", x.to_bits());
}

/// `PER_CASE` values of one class, drawn from a per-case seed.
fn each(seed: u64, mut draw: impl FnMut(&mut StdRng) -> f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..PER_CASE {
        check(draw(&mut rng));
    }
}

fn signed(x: f64, rng: &mut StdRng) -> f64 {
    if rng.next_u64() & 1 == 1 {
        -x
    } else {
        x
    }
}

/// `x` moved by `ulps` representable steps away from zero (toward it
/// when negative).
fn step(x: f64, ulps: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(ulps))
}

fn power_of_ten(e: i32) -> f64 {
    format!("1e{e}").parse().expect("a power of ten parses")
}

proptest! {
    #[test]
    fn random_bit_patterns_match_display(seed in any::<u64>()) {
        each(seed, |rng| f64::from_bits(rng.next_u64()));
    }

    #[test]
    fn subnormals_and_zeros_match_display(seed in any::<u64>()) {
        each(seed, |rng| {
            let bits = rng.next_u64();
            // one draw in 64 is ±0, the rest subnormal mantissas
            let mantissa = if bits & 63 == 0 { 0 } else { bits >> 12 };
            f64::from_bits(mantissa | (bits & 1 << 63))
        });
    }

    #[test]
    fn powers_of_ten_and_neighbours_match_display(seed in any::<u64>()) {
        each(seed, |rng| {
            let x = power_of_ten(rng.random_range(-323..=308));
            let ulps = match rng.random_range(0..4u32) {
                0 => 0,
                1 => 1,
                2 => -1,
                _ => rng.random_range(-(1i64 << 20)..=1 << 20),
            };
            signed(step(x, ulps), rng)
        });
    }

    #[test]
    fn short_decimals_match_display(seed in any::<u64>()) {
        each(seed, |rng| {
            let digits = rng.random_range(1..=17u32);
            let mantissa = rng.random_range(1..10u64.pow(digits));
            let exponent = rng.random_range(-20..=20) - digits as i32;
            let x: f64 = format!("{mantissa}e{exponent}").parse().expect("a decimal parses");
            signed(x, rng)
        });
    }

    #[test]
    fn integers_near_the_exact_limits_match_display(seed in any::<u64>()) {
        each(seed, |rng| {
            let base = [(1u64 << 53) as f64, 9.0e15][rng.random_range(0..2usize)];
            let ulps = rng.random_range(-(1i64 << 16)..=1 << 16);
            signed(step(base, ulps), rng)
        });
    }
}

#[test]
fn integer_writer_matches_display() {
    let mut rng = StdRng::seed_from_u64(7);
    let edges = [
        0,
        9,
        10,
        99,
        100,
        999_999,
        1_000_000,
        u64::MAX - 1,
        u64::MAX,
    ];
    let powers = (0..20).flat_map(|e| {
        let p = 10u64.pow(e);
        [p - 1, p, p + 1]
    });
    let random = (0..100_000).map(|_| rng.next_u64() >> rng.random_range(0..64u32));
    for v in edges.into_iter().chain(powers).chain(random) {
        let mut got = String::new();
        num::write_u64(v, &mut got);
        assert_eq!(got, v.to_string());
        got.clear();
        num::write_usize(v as usize, &mut got);
        assert_eq!(got, (v as usize).to_string());
    }
}

fn scores_job(scores: Vec<f64>, params: JobParams) -> RankJob {
    let groups = (0..scores.len()).map(|i| i % 3).collect();
    RankJob {
        algorithm: "mallows".to_string(),
        input: JobInput::Scores { scores, groups },
        params,
    }
}

#[test]
fn digests_of_edge_float_jobs_are_pinned() {
    let edge_scores = scores_job(
        vec![
            0.0,
            -0.0,
            0.1,
            0.30000000000000004,
            -2.5,
            1e-7,
            1e-20,
            5e-324,
            f64::MIN_POSITIVE,
            8.999999999999999e15,
            9e15,
            (1u64 << 53) as f64,
            1e21,
            f64::MAX,
        ],
        JobParams::default(),
    );
    let odd_params = scores_job(
        vec![0.95, 0.9, 0.85, 0.6, 123_456.789, 1e15 + 0.125],
        JobParams {
            theta: 0.6,
            samples: 8,
            criterion: Criterion::Infeasible,
            tolerance: 1e-9,
            noise_sd: 0.25,
            k: Some(4),
            seed: u64::MAX,
            proportion: Some(1.0 / 3.0),
            alpha: 0.05,
            ..JobParams::default()
        },
    );
    let votes = RankJob {
        algorithm: "pipeline".to_string(),
        input: JobInput::Votes {
            votes: vec![vec![0, 1, 2, 10], vec![10, 2, 1, 0], vec![2, 10, 0, 1]],
            groups: vec![0, 1, 0, 1],
        },
        params: JobParams {
            theta: 2.0f64.sqrt(),
            method: "borda".to_string(),
            ..JobParams::default()
        },
    };
    assert_eq!(edge_scores.digest(), 0xfd74_530d_836b_2b89);
    assert_eq!(odd_params.digest(), 0x50ee_cf95_5bd9_0f21);
    assert_eq!(votes.digest(), 0x170a_c157_fc62_234d);
}
