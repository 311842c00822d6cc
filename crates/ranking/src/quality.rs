//! Ranking-quality measures (paper Section III-D): CG, DCG, IDCG, NDCG.
//!
//! The paper discounts the gain of the item at (1-based) rank `i` by
//! `1 / log(1 + i)`. The logarithm base cancels in NDCG; we expose it
//! anyway through [`Discount`] because DCG values themselves appear in
//! tests and benches. The default matches the common IR convention
//! (`log₂`), which is also what the paper's reference implementation uses.

use crate::{Permutation, RankingError, Result};

/// Discount function applied at 1-based rank `i`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Discount {
    /// `1 / log₂(1 + i)` — the standard NDCG discount (default).
    #[default]
    Log2,
    /// `1 / ln(1 + i)` — natural-log variant (identical NDCG).
    NaturalLog,
    /// No discount: plain cumulative gain.
    None,
}

impl Discount {
    /// Discount factor at 1-based rank `i ≥ 1`.
    #[inline]
    pub fn at(self, i: usize) -> f64 {
        debug_assert!(i >= 1);
        match self {
            Discount::Log2 => 1.0 / ((1 + i) as f64).log2(),
            Discount::NaturalLog => 1.0 / ((1 + i) as f64).ln(),
            Discount::None => 1.0,
        }
    }

    /// Materialized discount factors for ranks `1..=n`:
    /// `table(n)[i] == at(i + 1)`, bit for bit. Hot evaluation loops
    /// (the criterion kernels in `fair_mallows`) pay the transcendental
    /// log once per rank call instead of once per element per sample.
    pub fn table(self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.at(i + 1)).collect()
    }
}

/// Cumulative gain of the top-`k` prefix: `Σ s(π(i))`.
pub fn cumulative_gain(pi: &Permutation, scores: &[f64], k: usize) -> Result<f64> {
    check(pi, scores)?;
    Ok(pi.prefix(k).iter().map(|&item| scores[item]).sum())
}

/// Discounted cumulative gain of the top-`k` prefix with the given
/// discount: `Σ_{i=1..k} s(π(i)) / log(1 + i)`.
pub fn dcg_at(pi: &Permutation, scores: &[f64], k: usize, discount: Discount) -> Result<f64> {
    check(pi, scores)?;
    Ok(pi
        .prefix(k)
        .iter()
        .enumerate()
        .map(|(idx, &item)| scores[item] * discount.at(idx + 1))
        .sum())
}

/// DCG of the full ranking with the default (`log₂`) discount.
pub fn dcg(pi: &Permutation, scores: &[f64]) -> Result<f64> {
    dcg_at(pi, scores, pi.len(), Discount::Log2)
}

/// `Σ gains[i] · discounts[i]`: the DCG of gains listed in rank order
/// against a materialized discount table, summed in rank order. With a
/// [`Discount::table`] it is bit-identical to [`dcg_at`] over the same
/// ranked gains.
pub fn dcg_of(gains: impl IntoIterator<Item = f64>, discounts: &[f64]) -> f64 {
    gains.into_iter().zip(discounts).map(|(s, d)| s * d).sum()
}

/// The ideal side of NDCG for one score vector, computed once: the
/// score order `π*`, the log₂ discount table over every rank and the
/// full-list IDCG. Callers that need all three for the same scores
/// (the serving engine builds one per request) sort once instead of
/// once per measure.
#[derive(Debug, Clone)]
pub struct IdealDcg {
    order: Permutation,
    discounts: Vec<f64>,
    idcg: f64,
}

impl IdealDcg {
    /// Sort `scores` ([`Permutation::sorted_by_scores_desc`]) and
    /// derive the discount table and IDCG from that one order.
    pub fn new(scores: &[f64]) -> Self {
        let order = Permutation::sorted_by_scores_desc(scores);
        let discounts = Discount::Log2.table(scores.len());
        let idcg = dcg_of(order.as_order().iter().map(|&i| scores[i]), &discounts);
        IdealDcg {
            order,
            discounts,
            idcg,
        }
    }

    /// The score-descending order `π*`.
    pub fn order(&self) -> &Permutation {
        &self.order
    }

    /// `Discount::Log2.table(n)`.
    pub fn discounts(&self) -> &[f64] {
        &self.discounts
    }

    /// `idcg(scores)`, bit for bit.
    pub fn idcg(&self) -> f64 {
        self.idcg
    }
}

/// Ideal DCG: DCG of the score-descending ranking `π*` over the same
/// items, truncated at `k`.
pub fn idcg_at(scores: &[f64], k: usize, discount: Discount) -> f64 {
    let ideal = Permutation::sorted_by_scores_desc(scores);
    // `ideal` is valid by construction, scores length matches.
    dcg_at(&ideal, scores, k, discount).expect("ideal ranking is consistent")
}

/// IDCG of the full list with the default discount.
pub fn idcg(scores: &[f64]) -> f64 {
    idcg_at(scores, scores.len(), Discount::Log2)
}

/// Normalized DCG of the top-`k` prefix: `DCG@k / IDCG@k`.
///
/// When the ideal DCG is zero (all-zero scores) the ranking is trivially
/// optimal and NDCG is defined as 1.
pub fn ndcg_at(pi: &Permutation, scores: &[f64], k: usize, discount: Discount) -> Result<f64> {
    let d = dcg_at(pi, scores, k, discount)?;
    let ideal = idcg_at(scores, k, discount);
    if ideal == 0.0 {
        return Ok(1.0);
    }
    Ok(d / ideal)
}

/// NDCG of the full ranking with the default discount.
///
/// ```
/// use ranking_core::{Permutation, quality::ndcg};
/// let scores = [3.0, 2.0, 1.0];
/// let best = Permutation::identity(3);
/// assert!((ndcg(&best, &scores).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn ndcg(pi: &Permutation, scores: &[f64]) -> Result<f64> {
    ndcg_at(pi, scores, pi.len(), Discount::Log2)
}

fn check(pi: &Permutation, scores: &[f64]) -> Result<()> {
    if pi.len() != scores.len() {
        return Err(RankingError::LengthMismatch {
            left: pi.len(),
            right: scores.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discount_at_rank_one() {
        assert!((Discount::Log2.at(1) - 1.0).abs() < 1e-12);
        assert!((Discount::None.at(7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn discount_table_is_bit_identical_to_pointwise() {
        for d in [Discount::Log2, Discount::NaturalLog, Discount::None] {
            let table = d.table(200);
            assert_eq!(table.len(), 200);
            for (i, &v) in table.iter().enumerate() {
                assert_eq!(v.to_bits(), d.at(i + 1).to_bits());
            }
        }
        assert!(Discount::Log2.table(0).is_empty());
    }

    #[test]
    fn ideal_dcg_matches_the_pointwise_measures() {
        for s in [
            vec![0.3, -0.0, 0.8, 0.0, 0.8, -1.5],
            vec![0.0, -0.0],
            vec![2.5],
            vec![],
        ] {
            let ideal = IdealDcg::new(&s);
            assert_eq!(ideal.idcg().to_bits(), idcg(&s).to_bits());
            assert_eq!(ideal.discounts(), Discount::Log2.table(s.len()));
            let pi = Permutation::identity(s.len());
            let ranked = s.iter().copied();
            assert_eq!(
                dcg_of(ranked, ideal.discounts()).to_bits(),
                dcg(&pi, &s).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn cg_sums_prefix_scores() {
        let pi = Permutation::from_order(vec![2, 0, 1]).unwrap();
        let s = [1.0, 2.0, 4.0];
        assert!((cumulative_gain(&pi, &s, 2).unwrap() - 5.0).abs() < 1e-12);
        assert!((cumulative_gain(&pi, &s, 3).unwrap() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn dcg_known_value() {
        // scores in ranked order: 3, 2 → 3/log2(2) + 2/log2(3)
        let pi = Permutation::identity(2);
        let s = [3.0, 2.0];
        let expect = 3.0 / 1.0 + 2.0 / 3f64.log2();
        assert!((dcg(&pi, &s).unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn ndcg_of_ideal_is_one() {
        let s = [0.9, 0.5, 0.1, 0.7];
        let ideal = Permutation::sorted_by_scores_desc(&s);
        assert!((ndcg(&ideal, &s).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_of_worst_is_below_one() {
        let s = [3.0, 2.0, 1.0];
        let worst = Permutation::from_order(vec![2, 1, 0]).unwrap();
        let v = ndcg(&worst, &s).unwrap();
        assert!(v < 1.0 && v > 0.0);
    }

    #[test]
    fn ndcg_in_unit_interval_for_positive_scores() {
        let s = [0.3, 0.8, 0.2, 0.9, 0.4];
        for p in Permutation::enumerate_all(5) {
            let v = ndcg(&p, &s).unwrap();
            assert!((0.0..=1.0 + 1e-12).contains(&v), "ndcg {v}");
        }
    }

    #[test]
    fn ndcg_base_invariance() {
        let s = [0.3, 0.8, 0.2, 0.9];
        let p = Permutation::from_order(vec![1, 0, 3, 2]).unwrap();
        let a = ndcg_at(&p, &s, 4, Discount::Log2).unwrap();
        let b = ndcg_at(&p, &s, 4, Discount::NaturalLog).unwrap();
        assert!((a - b).abs() < 1e-12, "NDCG must be log-base invariant");
    }

    #[test]
    fn ndcg_all_zero_scores_is_one() {
        let s = [0.0, 0.0, 0.0];
        let p = Permutation::from_order(vec![2, 1, 0]).unwrap();
        assert!((ndcg(&p, &s).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dcg_length_mismatch_errors() {
        let p = Permutation::identity(3);
        assert!(dcg(&p, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn ndcg_at_k_only_considers_prefix() {
        let s = [3.0, 2.0, 1.0];
        // top-1 is already ideal even though the tail is reversed
        let p = Permutation::from_order(vec![0, 2, 1]).unwrap();
        assert!((ndcg_at(&p, &s, 1, Discount::Log2).unwrap() - 1.0).abs() < 1e-12);
        assert!(ndcg_at(&p, &s, 3, Discount::Log2).unwrap() < 1.0);
    }
}
