//! The [`Permutation`] type: a total ranking of `n` items.

use crate::{RankingError, Result};
use rand::seq::SliceRandom;
use rand::Rng;

/// A permutation of the items `0..n`, i.e. a complete ranking.
///
/// Stored in *order form*: `order[k]` is the item occupying position `k`
/// (position `0` is the top of the ranking). The inverse *position form*
/// (`position[i]` = position of item `i`) is computed on demand by
/// [`Permutation::positions`] and cached by callers that need it hot.
///
/// ```
/// use ranking_core::Permutation;
/// let pi = Permutation::from_order(vec![2, 0, 1]).unwrap();
/// assert_eq!(pi.item_at(0), 2);        // item 2 ranked first
/// assert_eq!(pi.position_of(2), 0);
/// assert_eq!(pi.inverse().as_order(), &[1, 2, 0]); // position of each item
/// ```
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Permutation {
    order: Vec<usize>,
}

impl Clone for Permutation {
    fn clone(&self) -> Self {
        Permutation {
            order: self.order.clone(),
        }
    }

    /// Buffer-reusing clone: overwrites `self` in place without
    /// reallocating when capacity suffices. Hot sampling loops
    /// (`RimSampler`, the streaming Algorithm 1) rely on this to stay
    /// allocation-free while tracking a best-so-far permutation.
    fn clone_from(&mut self, source: &Self) {
        self.order.clone_from(&source.order);
    }
}

impl Permutation {
    /// The identity ranking `0, 1, …, n-1`.
    pub fn identity(n: usize) -> Self {
        Permutation {
            order: (0..n).collect(),
        }
    }

    /// Build from order form (`order[k]` = item at position `k`).
    ///
    /// Returns [`RankingError::NotAPermutation`] when `order` contains a
    /// duplicate or an out-of-range item.
    pub fn from_order(order: Vec<usize>) -> Result<Self> {
        let n = order.len();
        let mut seen = vec![false; n];
        for &item in &order {
            if item >= n || seen[item] {
                return Err(RankingError::NotAPermutation {
                    len: n,
                    offending: Some(item),
                });
            }
            seen[item] = true;
        }
        Ok(Permutation { order })
    }

    /// Build from position form (`position[i]` = position of item `i`).
    pub fn from_positions(positions: &[usize]) -> Result<Self> {
        let n = positions.len();
        let mut order = vec![usize::MAX; n];
        for (item, &pos) in positions.iter().enumerate() {
            if pos >= n || order[pos] != usize::MAX {
                return Err(RankingError::NotAPermutation {
                    len: n,
                    offending: Some(pos),
                });
            }
            order[pos] = item;
        }
        Ok(Permutation { order })
    }

    /// Build without validation. Intended for internal hot paths that have
    /// just produced a provably valid order vector.
    ///
    /// Debug builds still assert validity.
    pub fn from_order_unchecked(order: Vec<usize>) -> Self {
        debug_assert!(
            {
                let mut seen = vec![false; order.len()];
                order.iter().all(|&i| {
                    if i < seen.len() && !seen[i] {
                        seen[i] = true;
                        true
                    } else {
                        false
                    }
                })
            },
            "from_order_unchecked received a non-permutation"
        );
        Permutation { order }
    }

    /// In-place counterpart of [`Permutation::from_order_unchecked`]:
    /// hands the internal buffer to `fill`, which must leave it a valid
    /// order vector. Lets hot sampling paths rebuild a ranking without
    /// reallocating.
    ///
    /// Debug builds assert validity after the closure runs.
    pub fn refill_unchecked(&mut self, fill: impl FnOnce(&mut Vec<usize>)) {
        fill(&mut self.order);
        debug_assert!(
            {
                let mut seen = vec![false; self.order.len()];
                self.order.iter().all(|&i| {
                    if i < seen.len() && !seen[i] {
                        seen[i] = true;
                        true
                    } else {
                        false
                    }
                })
            },
            "refill_unchecked left a non-permutation"
        );
    }

    /// Ranking that sorts items by **descending** score, ties broken by
    /// ascending item index (deterministic). This is the paper's
    /// quality-optimal ranking `π*`.
    ///
    /// Scores sort as packed `(descending score, index)` keys in one
    /// unstable sort over plain integers: `−0.0` folds into `+0.0`, so
    /// on NaN-free scores the order equals the `partial_cmp`
    /// comparator's exactly. NaN ranks after every number, NaNs by
    /// index; the sort never panics.
    pub fn sorted_by_scores_desc(scores: &[f64]) -> Self {
        // the result is allocated before the transient keys, so
        // freeing the keys leaves no hole below it
        let mut order = Vec::with_capacity(scores.len());
        let mut keys: Vec<u128> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (u128::from(descending_key(s)) << 64) | i as u128)
            .collect();
        keys.sort_unstable();
        order.extend(keys.iter().map(|&key| key as u64 as usize));
        Permutation { order }
    }

    /// Uniformly random permutation (Fisher–Yates).
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        Permutation { order }
    }

    /// Number of ranked items.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the ranking contains no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Item occupying position `pos` (0 = top).
    ///
    /// # Panics
    /// Panics when `pos >= len()`.
    #[inline]
    pub fn item_at(&self, pos: usize) -> usize {
        self.order[pos]
    }

    /// Position of `item` — the paper's `σ(i)`. `O(n)`; use
    /// [`Permutation::positions`] when querying many items.
    pub fn position_of(&self, item: usize) -> usize {
        self.order
            .iter()
            .position(|&x| x == item)
            .expect("item not present in permutation")
    }

    /// Order form as a slice: `as_order()[k]` = item at position `k`.
    #[inline]
    pub fn as_order(&self) -> &[usize] {
        &self.order
    }

    /// Position form: `positions()[i]` = position of item `i`.
    pub fn positions(&self) -> Vec<usize> {
        let mut pos = vec![0usize; self.order.len()];
        for (p, &item) in self.order.iter().enumerate() {
            pos[item] = p;
        }
        pos
    }

    /// Group inverse: the permutation mapping items back to positions.
    pub fn inverse(&self) -> Permutation {
        Permutation {
            order: self.positions(),
        }
    }

    /// Composition `self ∘ other`: ranks items by applying `other` first,
    /// then `self` (`result.item_at(k) = self.item_at(other.item_at(k))`
    /// read as function composition on positions).
    ///
    /// Returns an error when lengths differ.
    pub fn compose(&self, other: &Permutation) -> Result<Permutation> {
        if self.len() != other.len() {
            return Err(RankingError::LengthMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        let order = other.order.iter().map(|&i| self.order[i]).collect();
        Ok(Permutation { order })
    }

    /// The relabelling `self` relative to `reference`: position form of
    /// `self` expressed in the item order of `reference`. Distances between
    /// `self` and `reference` equal distances between this output and the
    /// identity — the standard right-invariance reduction.
    pub fn relative_to(&self, reference: &Permutation) -> Result<Vec<usize>> {
        if self.len() != reference.len() {
            return Err(RankingError::LengthMismatch {
                left: self.len(),
                right: reference.len(),
            });
        }
        let pos_self = self.positions();
        Ok(reference.order.iter().map(|&item| pos_self[item]).collect())
    }

    /// Iterate over the items of the top-`k` prefix (`k` clamped to `n`).
    pub fn prefix(&self, k: usize) -> &[usize] {
        &self.order[..k.min(self.order.len())]
    }

    /// Truncate to the top-`k` items, re-labelling is **not** performed:
    /// the result is an incomplete ranking represented by the item slice.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        self.prefix(k).to_vec()
    }

    /// Swap the items at two positions.
    pub fn swap_positions(&mut self, a: usize, b: usize) {
        self.order.swap(a, b);
    }

    /// Consume into the order vector.
    pub fn into_order(self) -> Vec<usize> {
        self.order
    }

    /// Crate-internal mutable access to the order buffer, for decoders
    /// that refill a permutation in place (callers must restore the
    /// permutation invariant before returning).
    pub(crate) fn order_mut(&mut self) -> &mut Vec<usize> {
        &mut self.order
    }

    /// Enumerate all `n!` permutations of `n` items (test/bench helper;
    /// intended for `n <= 9`).
    pub fn enumerate_all(n: usize) -> Vec<Permutation> {
        let mut out = Vec::new();
        let mut cur: Vec<usize> = (0..n).collect();
        heap_permutations(&mut cur, n, &mut out);
        out
    }
}

fn heap_permutations(cur: &mut Vec<usize>, k: usize, out: &mut Vec<Permutation>) {
    if k <= 1 {
        out.push(Permutation { order: cur.clone() });
        return;
    }
    for i in 0..k {
        heap_permutations(cur, k - 1, out);
        if k.is_multiple_of(2) {
            cur.swap(i, k - 1);
        } else {
            cur.swap(0, k - 1);
        }
    }
}

impl std::fmt::Display for Permutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, item) in self.order.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "]")
    }
}

/// A score as a `u64` whose ascending order is the score's descending
/// order, with `−0.0` and `+0.0` mapped to one key (they compare equal)
/// and every NaN to the last key, after `−∞`.
fn descending_key(score: f64) -> u64 {
    if score.is_nan() {
        return u64::MAX;
    }
    let bits = if score == 0.0 { 0 } else { score.to_bits() };
    // negative floats order by inverted bits, positive ones above them
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    !ascending
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_maps_positions_to_items() {
        let p = Permutation::identity(5);
        for i in 0..5 {
            assert_eq!(p.item_at(i), i);
            assert_eq!(p.position_of(i), i);
        }
    }

    #[test]
    fn from_order_rejects_duplicates() {
        assert!(matches!(
            Permutation::from_order(vec![0, 1, 1]),
            Err(RankingError::NotAPermutation {
                offending: Some(1),
                ..
            })
        ));
    }

    #[test]
    fn from_order_rejects_out_of_range() {
        assert!(Permutation::from_order(vec![0, 3]).is_err());
    }

    #[test]
    fn from_positions_round_trips() {
        let p = Permutation::from_order(vec![2, 0, 3, 1]).unwrap();
        let q = Permutation::from_positions(&p.positions()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn inverse_of_inverse_is_identity_map() {
        let p = Permutation::from_order(vec![3, 1, 0, 2]).unwrap();
        assert_eq!(p.inverse().inverse(), p);
    }

    #[test]
    fn compose_with_inverse_yields_identity() {
        let p = Permutation::from_order(vec![3, 1, 0, 2]).unwrap();
        let id = p.compose(&p.inverse()).unwrap();
        assert_eq!(id, Permutation::identity(4));
    }

    #[test]
    fn compose_length_mismatch_errors() {
        let p = Permutation::identity(3);
        let q = Permutation::identity(4);
        assert!(matches!(
            p.compose(&q),
            Err(RankingError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn packed_keys_order_signs_zeros_and_infinities() {
        let scores = [
            -0.0,
            1.5,
            f64::NEG_INFINITY,
            0.0,
            -2.0,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1.5,
        ];
        let p = Permutation::sorted_by_scores_desc(&scores);
        assert_eq!(p.as_order(), &[5, 1, 8, 6, 0, 3, 7, 4, 2]);
        // NaN ranks after every number, NaNs by index
        let p =
            Permutation::sorted_by_scores_desc(&[0.5, f64::NAN, f64::NEG_INFINITY, -f64::NAN, 0.9]);
        assert_eq!(p.as_order(), &[4, 0, 2, 1, 3]);
    }

    #[test]
    fn sorted_by_scores_desc_orders_by_score() {
        let p = Permutation::sorted_by_scores_desc(&[0.1, 0.9, 0.5]);
        assert_eq!(p.as_order(), &[1, 2, 0]);
    }

    #[test]
    fn sorted_by_scores_breaks_ties_by_index() {
        let p = Permutation::sorted_by_scores_desc(&[0.5, 0.5, 0.9]);
        assert_eq!(p.as_order(), &[2, 0, 1]);
    }

    #[test]
    fn relative_to_self_is_identity() {
        let p = Permutation::from_order(vec![2, 0, 1]).unwrap();
        assert_eq!(p.relative_to(&p).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn prefix_clamps() {
        let p = Permutation::identity(3);
        assert_eq!(p.prefix(10), &[0, 1, 2]);
        assert_eq!(p.prefix(2), &[0, 1]);
    }

    #[test]
    fn random_is_valid_permutation() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in 0..20 {
            let p = Permutation::random(n, &mut rng);
            let mut sorted = p.as_order().to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn enumerate_all_has_factorial_size() {
        assert_eq!(Permutation::enumerate_all(0).len(), 1);
        assert_eq!(Permutation::enumerate_all(1).len(), 1);
        assert_eq!(Permutation::enumerate_all(4).len(), 24);
        // all distinct
        let all = Permutation::enumerate_all(4);
        let set: std::collections::HashSet<_> = all.iter().map(|p| p.as_order().to_vec()).collect();
        assert_eq!(set.len(), 24);
    }

    #[test]
    fn display_formats_order() {
        let p = Permutation::from_order(vec![1, 0]).unwrap();
        assert_eq!(format!("{p}"), "[1 0]");
    }
}
