//! Property-based tests for the Mallows model family.

use mallows_model::tables::SamplerTables;
use mallows_model::{CayleyMallows, MallowsMixture, MallowsModel, TopKMallows};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ranking_core::lehmer::{self, DecodeScratch};
use ranking_core::{distance, Permutation};

fn permutation(n: usize) -> impl Strategy<Value = Permutation> {
    prop::collection::vec(any::<u64>(), n).prop_map(|keys| {
        let mut idx: Vec<usize> = (0..keys.len()).collect();
        idx.sort_by_key(|&i| keys[i]);
        Permutation::from_order(idx).expect("valid permutation")
    })
}

fn is_permutation_of(items: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    items.iter().all(|&i| {
        if i < n && !seen[i] {
            seen[i] = true;
            true
        } else {
            false
        }
    })
}

/// Hand-built codes around the decoder's edges: all zero, maximal
/// (`v = j−1`, the reversed centre), and offsets pinned to either side
/// of the window width (7, 8, 9) where the stage allows them.
fn edge_codes(n: usize, rng: &mut StdRng) -> Vec<Vec<u32>> {
    let capped = |v: u32| (0..n as u32).map(move |j| v.min(j)).collect::<Vec<u32>>();
    vec![
        vec![0; n],
        (0..n as u32).collect(),
        capped(7),
        capped(8),
        capped(9),
        (0..n as u32)
            .map(|j| [0u32, 7, 8, 9][rng.random_range(0..4usize)].min(j))
            .collect(),
    ]
}

/// Decodes `code` every way the library can and checks they agree: the
/// rank row mapped through the centre, the item decoder, and the
/// `Vec::insert` streaming decoder as the independent oracle.
fn assert_decoders_agree(center: &Permutation, code: &[u32], scratch: &mut DecodeScratch) {
    let n = center.len();
    let total = code.iter().map(|&v| u64::from(v)).sum();
    let mut ranks = Vec::new();
    lehmer::decode_ranks_into(code, total, scratch, &mut ranks);
    assert_eq!(ranks.len(), n + lehmer::WINDOW);
    let mapped: Vec<usize> = ranks[..n]
        .iter()
        .map(|&r| center.item_at(r as usize))
        .collect();
    let mut items = Permutation::identity(0);
    lehmer::decode_insertion_code_into(center, code, scratch, &mut items).unwrap();
    let mut oracle = Permutation::identity(0);
    lehmer::decode_streaming_into(center, &mut oracle, |j| code[j - 1] as usize);
    assert_eq!(mapped.as_slice(), oracle.as_order(), "rank row, n={n}");
    assert_eq!(items, oracle, "item decoder, n={n}");
    assert_eq!(distance::kendall_tau(&oracle, center).unwrap(), total);
}

proptest! {
    /// The centre-rank window decoder (with its Fenwick fallback for
    /// large code totals), mapped through the centre, decodes every
    /// code exactly like the item decoder and the `Vec::insert` oracle:
    /// sampled codes from θ = 0 (uniform, so the Fenwick path at larger
    /// n) to θ = 40 (all zero), and the hand-built edge codes.
    #[test]
    fn rank_decoder_matches_the_insert_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = DecodeScratch::new();
        let mut code = Vec::new();
        for n in [0usize, 1, 2, 7, 8, 9, 17, 127, 128, 600] {
            let center = Permutation::random(n, &mut rng);
            for theta in [0.0, 0.05, 0.6, 2.0, 40.0] {
                let tables = SamplerTables::new(n, theta).unwrap();
                tables.sample_code_into(n, &mut code, &mut rng);
                assert_decoders_agree(&center, &code, &mut scratch);
            }
            for edge in edge_codes(n, &mut rng) {
                assert_decoders_agree(&center, &edge, &mut scratch);
            }
        }
    }

    /// The guide-table stage sampler is the galloping search, draw for
    /// draw: the same code stage for stage and the same RNG end state,
    /// on both sides of the saturation point (θ = 0 never saturates,
    /// θ = 40 saturates at index 0) and for centres shorter than the
    /// table.
    #[test]
    fn sample_code_into_matches_the_galloping_oracle(seed in any::<u64>(), cut in any::<u64>()) {
        for n in [1usize, 2, 61, 62, 1000, 10_000] {
            for theta in [0.0, 1e-3, 0.05, 0.6, 2.0, 40.0] {
                let tables = SamplerTables::new(n, theta).unwrap();
                for len in [n, (cut % (n as u64 + 1)) as usize] {
                    let mut fast = StdRng::seed_from_u64(seed);
                    let mut oracle = fast.clone();
                    let mut code = Vec::new();
                    tables.sample_code_into(len, &mut code, &mut fast);
                    let expect: Vec<u32> = (1..=len)
                        .map(|j| tables.sample_stage_reference(j, &mut oracle) as u32)
                        .collect();
                    prop_assert_eq!(&code, &expect, "n={} θ={} len={}", n, theta, len);
                    prop_assert_eq!(&fast, &oracle, "RNG state, n={} θ={} len={}", n, theta, len);
                }
            }
        }
    }

    #[test]
    fn kt_samples_are_valid(center in permutation(12), theta in 0.0f64..4.0, seed in any::<u64>()) {
        let model = MallowsModel::new(center, theta).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = model.sample(&mut rng);
        prop_assert!(is_permutation_of(s.as_order(), 12));
    }

    #[test]
    fn cayley_samples_are_valid(center in permutation(11), theta in 0.0f64..4.0, seed in any::<u64>()) {
        let model = CayleyMallows::new(center.clone(), theta).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = model.sample(&mut rng);
        prop_assert!(is_permutation_of(s.as_order(), 11));
        // Cayley distance is at most n − 1
        prop_assert!(distance::cayley(&s, &center).unwrap() <= 10);
    }

    #[test]
    fn topk_samples_are_valid_prefixes(
        center in permutation(15),
        theta in 0.0f64..4.0,
        k in 0usize..=15,
        seed in any::<u64>(),
    ) {
        let sampler = TopKMallows::new(center, theta, k).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let top = sampler.sample(&mut rng);
        prop_assert_eq!(top.len(), k);
        let mut sorted = top.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k, "duplicates in top-k sample");
        prop_assert!(top.iter().all(|&i| i < 15));
    }

    #[test]
    fn ln_pmf_is_log_probability(center in permutation(6), pi in permutation(6), theta in 0.0f64..3.0) {
        let model = MallowsModel::new(center, theta).unwrap();
        let lp = model.ln_pmf(&pi).unwrap();
        prop_assert!(lp <= 1e-12, "ln pmf {} > 0", lp);
        let p = model.pmf(&pi).unwrap();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
    }

    #[test]
    fn cayley_ln_pmf_is_log_probability(center in permutation(6), pi in permutation(6), theta in 0.0f64..3.0) {
        let model = CayleyMallows::new(center, theta).unwrap();
        let lp = model.ln_pmf(&pi).unwrap();
        prop_assert!(lp <= 1e-12);
    }

    #[test]
    fn center_is_the_mode(center in permutation(7), pi in permutation(7), theta in 0.1f64..3.0) {
        let model = MallowsModel::new(center.clone(), theta).unwrap();
        prop_assert!(
            model.ln_pmf(&pi).unwrap() <= model.ln_pmf(&center).unwrap() + 1e-12,
            "centre must maximize the pmf"
        );
    }

    #[test]
    fn expected_distances_decrease_in_theta(n in 2usize..20) {
        let a = MallowsModel::new(Permutation::identity(n), 0.3).unwrap();
        let b = MallowsModel::new(Permutation::identity(n), 1.3).unwrap();
        prop_assert!(b.expected_kendall_tau() < a.expected_kendall_tau());
        let ca = CayleyMallows::new(Permutation::identity(n), 0.3).unwrap();
        let cb = CayleyMallows::new(Permutation::identity(n), 1.3).unwrap();
        prop_assert!(cb.expected_cayley() < ca.expected_cayley());
    }

    #[test]
    fn first_position_marginals_form_distribution(n in 2usize..30, theta in 0.0f64..4.0) {
        let sampler = TopKMallows::new(Permutation::identity(n), theta, 1).unwrap();
        let total: f64 = (0..n).map(|j| sampler.first_position_marginal(j)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "Σ = {}", total);
        // monotone decreasing in centre rank for θ > 0
        if theta > 1e-9 {
            for j in 1..n {
                prop_assert!(
                    sampler.first_position_marginal(j) <= sampler.first_position_marginal(j - 1) + 1e-12
                );
            }
        }
    }

    #[test]
    fn mixture_responsibilities_are_distributions(
        c1 in permutation(6),
        c2 in permutation(6),
        samples in prop::collection::vec(0u64..,.. 4),
    ) {
        let mix = MallowsMixture::new(
            vec![
                MallowsModel::new(c1, 0.8).unwrap(),
                MallowsModel::new(c2, 1.2).unwrap(),
            ],
            vec![0.4, 0.6],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(samples.first().copied().unwrap_or(7));
        let data: Vec<Permutation> = (0..5).map(|_| mix.sample(&mut rng)).collect();
        for row in mix.responsibilities(&data).unwrap() {
            prop_assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(row.iter().all(|&r| (0.0..=1.0 + 1e-12).contains(&r)));
        }
    }

    #[test]
    fn mixture_pmf_bounded_by_component_max(pi in permutation(5), w in 0.05f64..0.95) {
        let a = MallowsModel::new(Permutation::identity(5), 0.7).unwrap();
        let b = MallowsModel::new(Permutation::from_order(vec![4, 3, 2, 1, 0]).unwrap(), 1.1)
            .unwrap();
        let pa = a.pmf(&pi).unwrap();
        let pb = b.pmf(&pi).unwrap();
        let mix = MallowsMixture::new(vec![a, b], vec![w, 1.0 - w]).unwrap();
        let pm = mix.pmf(&pi).unwrap();
        prop_assert!(pm <= pa.max(pb) + 1e-12);
        prop_assert!(pm >= pa.min(pb) - 1e-12);
    }
}
