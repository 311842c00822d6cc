//! Incomplete (top-`k`) rankings — the paper's `S_{≤d}`.
//!
//! Shortlists, search-result pages and committee selections are
//! *top-k lists*: an ordered subset of `k` of the `n` items. Comparing
//! two such lists needs care because an item may appear in one list
//! only; this module implements the standard measures of Fagin, Kumar &
//! Sivakumar ("Comparing top k lists", SODA'03):
//! [`TopKList::kendall_with_penalty`] is `K^{(p)}`, Kendall tau
//! generalized with an optimistic–neutral penalty `p ∈ [0, ½]` for
//! pairs whose relative order is unknowable.
//!
//! When both lists rank the whole universe (`k = n`), `K^{(p)}` equals
//! the ordinary Kendall tau distance for every `p` — the tests pin
//! this down.

use crate::{Permutation, RankingError, Result};

/// An ordered list of `k` distinct items from a universe `0..n`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TopKList {
    items: Vec<usize>,
    universe: usize,
}

impl TopKList {
    /// Build from ranked items (best first) over a universe of size
    /// `universe`. Errors on duplicates or out-of-range items.
    pub fn new(items: Vec<usize>, universe: usize) -> Result<Self> {
        let mut seen = vec![false; universe];
        for &item in &items {
            if item >= universe || seen[item] {
                return Err(RankingError::NotAPermutation {
                    len: universe,
                    offending: Some(item),
                });
            }
            seen[item] = true;
        }
        Ok(TopKList { items, universe })
    }

    /// The top-`k` prefix of a complete ranking.
    pub fn from_permutation(pi: &Permutation, k: usize) -> Self {
        TopKList {
            items: pi.prefix(k).to_vec(),
            universe: pi.len(),
        }
    }

    /// Number of ranked items `k`.
    pub fn k(&self) -> usize {
        self.items.len()
    }

    /// True when no items are ranked.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Ranked items, best first.
    pub fn items(&self) -> &[usize] {
        &self.items
    }

    /// 0-based position of `item`, or `None` when unranked.
    pub fn position_of(&self, item: usize) -> Option<usize> {
        self.items.iter().position(|&i| i == item)
    }

    /// Does the list contain `item`?
    pub fn contains(&self, item: usize) -> bool {
        self.position_of(item).is_some()
    }

    /// `K^{(p)}` — Kendall tau with penalty parameter `p ∈ [0, ½]`
    /// (Fagin et al., Def. 3.1). Pairs `{i, j}` over the union of the
    /// two lists contribute:
    ///
    /// 1. both ranked in both lists: `1` if the orders disagree;
    /// 2. both ranked in one list, exactly one ranked in the other:
    ///    `1` iff the doubly-ranked list contradicts the implied order
    ///    (the unranked item sits below everything ranked);
    /// 3. `i` only in one list, `j` only in the other: `1` always;
    /// 4. both ranked in one list, neither in the other: `p` (their
    ///    relative order in the second list is unknowable).
    ///
    /// Errors when the universes differ or `p ∉ [0, ½]`.
    pub fn kendall_with_penalty(&self, other: &TopKList, p: f64) -> Result<f64> {
        if self.universe != other.universe {
            return Err(RankingError::LengthMismatch {
                left: self.universe,
                right: other.universe,
            });
        }
        if !(0.0..=0.5).contains(&p) {
            return Err(RankingError::NotAPermutation {
                len: 0,
                offending: None,
            });
        }
        let union: Vec<usize> = self.union_items(other);
        let mut total = 0.0;
        for (a, &i) in union.iter().enumerate() {
            for &j in &union[a + 1..] {
                let pi = self.position_of(i);
                let pj = self.position_of(j);
                let qi = other.position_of(i);
                let qj = other.position_of(j);
                total += match ((pi, pj), (qi, qj)) {
                    // case 1: ranked in both
                    ((Some(a1), Some(b1)), (Some(a2), Some(b2))) => {
                        if (a1 < b1) == (a2 < b2) {
                            0.0
                        } else {
                            1.0
                        }
                    }
                    // case 4: both in self, neither in other
                    ((Some(_), Some(_)), (None, None)) => p,
                    ((None, None), (Some(_), Some(_))) => p,
                    // case 2: both in one, one of them in the other
                    ((Some(a1), Some(b1)), (Some(_), None)) => {
                        if a1 < b1 {
                            0.0
                        } else {
                            1.0
                        }
                    }
                    ((Some(a1), Some(b1)), (None, Some(_))) => {
                        if b1 < a1 {
                            0.0
                        } else {
                            1.0
                        }
                    }
                    ((Some(_), None), (Some(a2), Some(b2))) => {
                        if a2 < b2 {
                            0.0
                        } else {
                            1.0
                        }
                    }
                    ((None, Some(_)), (Some(a2), Some(b2))) => {
                        if b2 < a2 {
                            0.0
                        } else {
                            1.0
                        }
                    }
                    // case 3: i in one list only, j in the other only
                    ((Some(_), None), (None, Some(_))) => 1.0,
                    ((None, Some(_)), (Some(_), None)) => 1.0,
                    // unreachable: every union member is ranked in at
                    // least one list
                    ((None, None), _)
                    | (_, (None, None))
                    | ((Some(_), None), (Some(_), None))
                    | ((None, Some(_)), (None, Some(_))) => {
                        debug_assert!(false, "union item unranked in both lists");
                        0.0
                    }
                };
            }
        }
        Ok(total)
    }

    fn union_items(&self, other: &TopKList) -> Vec<usize> {
        let mut union = self.items.clone();
        union.extend(other.items.iter().copied().filter(|&i| !self.contains(i)));
        union
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance;

    fn list(items: &[usize], n: usize) -> TopKList {
        TopKList::new(items.to_vec(), n).unwrap()
    }

    #[test]
    fn new_rejects_duplicates_and_out_of_range() {
        assert!(TopKList::new(vec![0, 0], 3).is_err());
        assert!(TopKList::new(vec![5], 3).is_err());
        assert!(TopKList::new(vec![], 0).is_ok());
    }

    #[test]
    fn from_permutation_takes_prefix() {
        let pi = Permutation::from_order(vec![3, 1, 0, 2]).unwrap();
        let t = TopKList::from_permutation(&pi, 2);
        assert_eq!(t.items(), &[3, 1]);
    }

    #[test]
    fn kendall_identical_lists_is_zero() {
        let a = list(&[4, 2, 0], 5);
        assert_eq!(a.kendall_with_penalty(&a, 0.5).unwrap(), 0.0);
    }

    #[test]
    fn kendall_full_lists_match_permutation_distance() {
        let p1 = Permutation::from_order(vec![2, 0, 3, 1]).unwrap();
        let p2 = Permutation::from_order(vec![0, 1, 2, 3]).unwrap();
        let t1 = TopKList::from_permutation(&p1, 4);
        let t2 = TopKList::from_permutation(&p2, 4);
        let expect = distance::kendall_tau(&p1, &p2).unwrap() as f64;
        for p in [0.0, 0.25, 0.5] {
            assert_eq!(t1.kendall_with_penalty(&t2, p).unwrap(), expect);
        }
    }

    #[test]
    fn kendall_disjoint_lists_case3_and_case4() {
        // τ1 = [0,1], τ2 = [2,3] over n=4.
        // pairs: {0,1} case 4 → p; {2,3} case 4 → p;
        // {0,2},{0,3},{1,2},{1,3} case 3 → 1 each.
        let a = list(&[0, 1], 4);
        let b = list(&[2, 3], 4);
        for p in [0.0, 0.5] {
            let d = a.kendall_with_penalty(&b, p).unwrap();
            assert!((d - (4.0 + 2.0 * p)).abs() < 1e-12, "p={p}: {d}");
        }
    }

    #[test]
    fn kendall_case2_consistency() {
        // τ1 = [0,1], τ2 = [0,2] over n=3.
        // {0,1}: both in τ1, only 0 in τ2; τ1 has 0 ahead → 0.
        // {0,2}: both in τ2, only 0 in τ1; τ2 has 0 ahead → 0.
        // {1,2}: 1 only in τ1, 2 only in τ2 → 1.
        let a = list(&[0, 1], 3);
        let b = list(&[0, 2], 3);
        assert_eq!(a.kendall_with_penalty(&b, 0.5).unwrap(), 1.0);
        // flipped head order makes case-2 pairs discordant:
        // τ3 = [1,0]: {0,1} both in τ3, only 0 in τ2, τ3 has 1 ahead → 1.
        let c = list(&[1, 0], 3);
        assert_eq!(c.kendall_with_penalty(&b, 0.5).unwrap(), 2.0);
    }

    #[test]
    fn kendall_is_symmetric() {
        let a = list(&[0, 3, 1], 6);
        let b = list(&[5, 3, 2], 6);
        for p in [0.0, 0.3, 0.5] {
            assert_eq!(
                a.kendall_with_penalty(&b, p).unwrap(),
                b.kendall_with_penalty(&a, p).unwrap()
            );
        }
    }

    #[test]
    fn kendall_monotone_in_penalty() {
        let a = list(&[0, 1, 2], 8);
        let b = list(&[0, 5, 6], 8);
        let d0 = a.kendall_with_penalty(&b, 0.0).unwrap();
        let d5 = a.kendall_with_penalty(&b, 0.5).unwrap();
        assert!(d0 <= d5);
    }

    #[test]
    fn kendall_rejects_bad_input() {
        let a = list(&[0], 3);
        let b = list(&[0], 4);
        assert!(a.kendall_with_penalty(&b, 0.0).is_err());
        let c = list(&[1], 3);
        assert!(a.kendall_with_penalty(&c, 0.6).is_err());
    }
}
