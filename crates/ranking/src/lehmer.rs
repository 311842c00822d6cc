//! Insertion codes (Lehmer-style) and their efficient decoding.
//!
//! The repeated insertion model (RIM) behind Mallows sampling describes
//! a permutation by an *insertion code* `v`: item `j` (1-based rank in
//! some reference order) is inserted so that `v[j−1] ∈ {0, …, j−1}` of
//! the previously inserted items end up after it.
//!
//! [`decode_ranks_into`] decodes a code into a row of *reference
//! ranks* (`u32`, `0..n`): slot `i` holds the reference rank of the
//! item at position `i`. Mapping the row through the reference gives
//! the permutation ([`decode_insertion_code_into`]). Two strategies,
//! picked per code from `Σ code`, write the identical row:
//!
//! * the **window** decoder inserts rank `j−1` at position
//!   `j−1−v[j−1]` by shifting the `v[j−1]` ranks after it one slot
//!   right. An offset below [`WINDOW`] is one fixed-width window copy
//!   (the row carries [`WINDOW`] slots of padding, so the copy never
//!   runs off its end), a larger one a `copy_within`. Its cost is `n`
//!   window copies plus the large offsets — small for the
//!   concentrated codes Mallows sampling draws at moderate `θ`, whose
//!   shift lengths are short but unpredictable;
//! * the **Fenwick** decoder places items in reverse insertion order
//!   into the `(j − v[j−1])`-th free slot, `O(n log n)` whatever the
//!   code (uniform codes, `θ → 0`).
//!
//! Samplers therefore stay deterministic under a fixed RNG whichever
//! strategy runs. [`decode_streaming_into`] keeps the plain
//! `Vec::insert` decode for stage values produced on the fly.

use crate::{Permutation, RankingError, Result};

/// Size at which the Fenwick decoder may overtake the window decoder
/// (measured by `bench/benches/ablation_sampler.rs`).
const FENWICK_THRESHOLD: usize = 128;

/// Width of the fixed window copy, and the padding a decoded rank row
/// carries after its `n` ranks.
pub const WINDOW: usize = 8;

/// Decode an insertion code against a reference ordering.
///
/// `reference.item_at(j-1)` is inserted with `code[j-1]` of the earlier
/// items placed after it. Errors when the code length mismatches or an
/// entry is out of its stage range (`code[j-1] ≥ j`).
pub fn decode_insertion_code(reference: &Permutation, code: &[usize]) -> Result<Permutation> {
    let code: Vec<u32> = code
        .iter()
        .map(|&v| {
            u32::try_from(v).map_err(|_| RankingError::NotAPermutation {
                len: reference.len(),
                offending: Some(v),
            })
        })
        .collect::<Result<_>>()?;
    let mut out = Permutation::identity(0);
    decode_insertion_code_into(reference, &code, &mut DecodeScratch::new(), &mut out)?;
    Ok(out)
}

/// Streaming insert decode: stage `j`'s inversion count is produced on
/// the fly by `stage(j)` (which must return a value in `0..j`) and the
/// item is inserted immediately, so no code buffer exists at all. `out`
/// is refilled in place, reusing its buffer.
///
/// Cost is `Σ stage(j)` moved elements — the right tool for samplers
/// whose stage values are concentrated near zero. For adversarial or
/// uniform codes prefer [`decode_insertion_code_into`], which can fall
/// back to the `O(n log n)` Fenwick path.
///
/// # Panics
/// Panics when `stage(j)` returns a value outside `0..j`.
pub fn decode_streaming_into(
    reference: &Permutation,
    out: &mut Permutation,
    mut stage: impl FnMut(usize) -> usize,
) {
    let n = reference.len();
    let order = out.order_mut();
    order.clear();
    order.reserve(n);
    for j in 1..=n {
        let v = stage(j);
        assert!(v < j, "stage {j} produced out-of-range inversion count {v}");
        order.insert(j - 1 - v, reference.item_at(j - 1));
    }
}

/// Reusable buffers for [`decode_insertion_code_into`] and
/// [`decode_ranks_into`], so hot sampling loops decode without
/// touching the allocator.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    tree: Vec<u32>,
    ranks: Vec<u32>,
}

impl DecodeScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        DecodeScratch::default()
    }
}

/// Decode a stage-valid insertion code into reference ranks, reusing
/// `ranks` and `scratch`: afterwards `ranks` holds `n + WINDOW`
/// entries, and `ranks[i]` for `i < n` is the reference rank of the
/// item at position `i` (the padding holds stale values).
///
/// `code_total` must be `Σ code` (the caller usually has it already: it
/// is the sample's Kendall tau distance to the reference). It only
/// picks the strategy — the window decoder while `Σ code` is at most
/// the Fenwick decoder's `O(n log n)` cost — and both write the same
/// row.
///
/// # Panics
/// When an entry is out of its stage range (`code[j-1] ≥ j`) or the
/// code is longer than `u32::MAX`.
pub fn decode_ranks_into(
    code: &[u32],
    code_total: u64,
    scratch: &mut DecodeScratch,
    ranks: &mut Vec<u32>,
) {
    let n = code.len();
    assert!(u32::try_from(n).is_ok(), "{n} ranks do not fit u32");
    let fenwick_cost = 2 * n as u64 * u64::from(usize::BITS - n.leading_zeros());
    if n < FENWICK_THRESHOLD || code_total <= fenwick_cost {
        decode_window(code, ranks);
    } else {
        decode_fenwick(code, &mut scratch.tree, ranks);
    }
}

/// Decode an insertion code into an existing permutation, reusing both
/// the output buffer and `scratch` — zero allocations once the buffers
/// have grown to size `n`. The rank row of [`decode_ranks_into`],
/// mapped through `reference`.
///
/// Errors (leaving `out` in an unspecified but valid-to-drop state)
/// when the code length mismatches or an entry is out of stage range.
pub fn decode_insertion_code_into(
    reference: &Permutation,
    code: &[u32],
    scratch: &mut DecodeScratch,
    out: &mut Permutation,
) -> Result<()> {
    let n = reference.len();
    if code.len() != n {
        return Err(RankingError::LengthMismatch {
            left: n,
            right: code.len(),
        });
    }
    for (idx, &v) in code.iter().enumerate() {
        if v as usize > idx {
            return Err(RankingError::NotAPermutation {
                len: n,
                offending: Some(v as usize),
            });
        }
    }
    let total = code.iter().map(|&v| u64::from(v)).sum();
    let mut ranks = std::mem::take(&mut scratch.ranks);
    decode_ranks_into(code, total, scratch, &mut ranks);
    let order = out.order_mut();
    order.clear();
    order.extend(ranks[..n].iter().map(|&r| reference.item_at(r as usize)));
    scratch.ranks = ranks;
    Ok(())
}

/// The window decoder: insert rank `j` at `j − v[j]`, shifting the
/// `v[j]` ranks behind it one slot right. Slots at and past the current
/// stage hold stale values, which the window copy moves harmlessly and
/// later stages overwrite before anything reads them.
fn decode_window(code: &[u32], ranks: &mut Vec<u32>) {
    let n = code.len();
    ranks.resize(n + WINDOW, 0);
    for (j, &v) in code.iter().enumerate() {
        let v = v as usize;
        let p = j - v;
        if v < WINDOW {
            // p + WINDOW + 1 ≤ j + WINDOW ≤ n + WINDOW − 1: in bounds
            ranks.copy_within(p..p + WINDOW, p + 1);
        } else {
            ranks.copy_within(p..j, p + 1);
        }
        ranks[p] = j as u32;
    }
}

/// The Fenwick decoder: process ranks in reverse insertion order; rank
/// `j−1`'s position among the first `j` items is `j − v[j−1]` (1-based),
/// and the slots still free are exactly those the first `j` items will
/// occupy, so it takes the `(j − v[j−1])`-th free slot (found by binary
/// lifting over a Fenwick tree of unit slot weights).
fn decode_fenwick(code: &[u32], tree: &mut Vec<u32>, ranks: &mut Vec<u32>) {
    let n = code.len();
    ranks.resize(n + WINDOW, 0);
    tree.clear();
    tree.resize(n + 1, 0);
    for i in 1..=n {
        tree[i] += 1;
        let next = i + (i & i.wrapping_neg());
        if next <= n {
            tree[next] += tree[i];
        }
    }
    let log = usize::BITS - n.leading_zeros();
    for j in (1..=n).rev() {
        // find the slot holding the `j − v`-th remaining unit …
        let mut k = (j - code[j - 1] as usize) as u32;
        let mut pos = 0usize;
        let mut step = 1usize << log;
        while step > 0 {
            let next = pos + step;
            if next <= n && tree[next] < k {
                k -= tree[next];
                pos = next;
            }
            step >>= 1;
        }
        // … remove it and place the rank there
        let mut i = pos + 1;
        while i <= n {
            tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
        ranks[pos] = (j - 1) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_code(n: usize, rng: &mut StdRng) -> Vec<u32> {
        (0..n)
            .map(|j| {
                if j == 0 {
                    0
                } else {
                    rng.random_range(0..=j) as u32
                }
            })
            .collect()
    }

    /// The `Vec::insert` decode of [`decode_streaming_into`] — the
    /// independent oracle both strategies must reproduce.
    fn streamed(reference: &Permutation, code: &[u32]) -> Permutation {
        let mut out = Permutation::identity(0);
        decode_streaming_into(reference, &mut out, |j| code[j - 1] as usize);
        out
    }

    fn mapped(reference: &Permutation, ranks: &[u32]) -> Permutation {
        Permutation::from_order(
            ranks[..reference.len()]
                .iter()
                .map(|&r| reference.item_at(r as usize))
                .collect(),
        )
        .unwrap()
    }

    /// Inverse of decoding: the insertion code of `pi` relative to
    /// `reference` (such that `decode_insertion_code(reference, code) == pi`).
    fn encode_insertion_code(reference: &Permutation, pi: &Permutation) -> Result<Vec<usize>> {
        if reference.len() != pi.len() {
            return Err(RankingError::LengthMismatch {
                left: reference.len(),
                right: pi.len(),
            });
        }
        let pos = pi.positions();
        let n = reference.len();
        // code[j-1] = # of earlier reference items placed after item j
        let mut code = vec![0usize; n];
        for (j, slot) in code.iter_mut().enumerate() {
            let item = reference.item_at(j);
            *slot = (0..j)
                .filter(|&i| pos[reference.item_at(i)] > pos[item])
                .count();
        }
        Ok(code)
    }

    #[test]
    fn zero_code_is_the_reference() {
        let r = Permutation::from_order(vec![3, 1, 0, 2]).unwrap();
        let out = decode_insertion_code(&r, &[0, 0, 0, 0]).unwrap();
        assert_eq!(out, r);
    }

    #[test]
    fn max_code_reverses_the_reference() {
        let r = Permutation::identity(5);
        let out = decode_insertion_code(&r, &[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(out.as_order(), &[4, 3, 2, 1, 0]);
    }

    #[test]
    fn decoders_agree_on_random_codes() {
        // both strategies, forced regardless of Σ code, against the
        // Vec::insert oracle
        let mut rng = StdRng::seed_from_u64(1);
        let (mut window, mut fenwick, mut tree) = (Vec::new(), Vec::new(), Vec::new());
        for n in [0usize, 1, 2, 9, 17, 130, 500] {
            let r = Permutation::random(n, &mut rng);
            for _ in 0..5 {
                let code = random_code(n, &mut rng);
                decode_window(&code, &mut window);
                decode_fenwick(&code, &mut tree, &mut fenwick);
                assert_eq!(window.len(), n + WINDOW);
                assert_eq!(&window[..n], &fenwick[..n], "n = {n}");
                assert_eq!(mapped(&r, &window), streamed(&r, &code), "n = {n}");
            }
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let r = Permutation::random(12, &mut rng);
            let pi = Permutation::random(12, &mut rng);
            let code = encode_insertion_code(&r, &pi).unwrap();
            assert_eq!(decode_insertion_code(&r, &code).unwrap(), pi);
        }
    }

    #[test]
    fn code_total_equals_kendall_tau_to_reference() {
        // Σ code = number of (earlier, later) pairs out of order = d_KT
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let r = Permutation::random(10, &mut rng);
            let pi = Permutation::random(10, &mut rng);
            let code = encode_insertion_code(&r, &pi).unwrap();
            let total: usize = code.iter().sum();
            let d = crate::distance::kendall_tau(&pi, &r).unwrap();
            assert_eq!(total as u64, d);
        }
    }

    #[test]
    fn invalid_codes_rejected() {
        let r = Permutation::identity(3);
        assert!(decode_insertion_code(&r, &[0, 0]).is_err());
        assert!(decode_insertion_code(&r, &[0, 2, 0]).is_err());
        assert!(decode_insertion_code(&r, &[1, 0, 0]).is_err());
        assert!(decode_insertion_code(&r, &[0, 0, usize::MAX]).is_err());
    }

    #[test]
    fn empty_code() {
        let r = Permutation::identity(0);
        assert_eq!(decode_insertion_code(&r, &[]).unwrap().len(), 0);
    }

    #[test]
    fn decode_into_matches_decode_on_random_codes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut scratch = DecodeScratch::new();
        let mut out = Permutation::identity(0);
        for n in [0usize, 1, 5, 64, 200, 400] {
            let r = Permutation::random(n, &mut rng);
            for _ in 0..5 {
                let code = random_code(n, &mut rng);
                decode_insertion_code_into(&r, &code, &mut scratch, &mut out).unwrap();
                assert_eq!(out, streamed(&r, &code), "n = {n}");
            }
        }
    }

    #[test]
    fn decode_into_concentrated_codes_take_the_insert_path() {
        // all-zero code (the θ → ∞ limit) must reproduce the reference
        // through the window path even for large n
        let n = 500;
        let r = Permutation::random(n, &mut StdRng::seed_from_u64(5));
        let mut scratch = DecodeScratch::new();
        let mut out = Permutation::identity(0);
        decode_insertion_code_into(&r, &vec![0; n], &mut scratch, &mut out).unwrap();
        assert_eq!(out, r);
    }

    #[test]
    fn decode_into_rejects_invalid_codes() {
        let r = Permutation::identity(3);
        let mut scratch = DecodeScratch::new();
        let mut out = Permutation::identity(3);
        assert!(decode_insertion_code_into(&r, &[0, 0], &mut scratch, &mut out).is_err());
        assert!(decode_insertion_code_into(&r, &[0, 2, 0], &mut scratch, &mut out).is_err());
    }
}
