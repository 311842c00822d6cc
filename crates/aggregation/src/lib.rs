//! Rank aggregation — the upstream producer of central rankings.
//!
//! The paper (Section II and IV-A) situates its randomization after a
//! rank-aggregation step: "the central ranking could be either the
//! result of a rank aggregation problem or any ranking in general",
//! citing Wei et al. and Chakraborty et al., whose fair-aggregation
//! pipelines first aggregate votes into a near-optimal consensus and
//! then post-process it. This crate supplies that substrate:
//!
//! * [`mod@borda`] — positional (mean-rank) aggregation;
//! * [`mod@copeland`] — pairwise-majority aggregation;
//! * [`kemeny`] — the Kemeny consensus (minimum total Kendall tau):
//!   exact enumeration for small `n`, the KwikSort pivot approximation
//!   (Ailon, Charikar & Newman, JACM'08) and adjacent-swap local search
//!   refinement;
//! * [`footrule`] — footrule-optimal aggregation via minimum-cost
//!   matching (Dwork et al., WWW'01), a 2-approximation to Kemeny;
//! * [`markov`] — the MC3/MC4 Markov-chain aggregators of Dwork et al.;
//! * [`condorcet_winner`], [`is_condorcet_order`] and [`smith_set`] —
//!   Condorcet certificates for the heuristics.
//!
//! All aggregators consume a non-empty slice of equal-length complete
//! rankings ("votes") and produce a consensus [`Permutation`].

#![forbid(unsafe_code)]

pub mod borda;
mod condorcet;
pub mod copeland;
pub mod footrule;
pub mod kemeny;
pub mod markov;

pub use borda::borda;
pub use condorcet::{condorcet_winner, is_condorcet_order, smith_set};
pub use copeland::copeland;
pub use footrule::footrule_optimal;
pub use kemeny::{kemeny_exact, kwik_sort, local_search, total_kendall_distance};
pub use markov::{markov_chain_aggregate, ChainKind, MarkovConfig};

use ranking_core::Permutation;

/// Errors raised by aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregationError {
    /// At least one vote is required.
    NoVotes,
    /// Votes must all rank the same number of items.
    LengthMismatch {
        /// Length of the first vote.
        expected: usize,
        /// Length of the offending vote.
        got: usize,
    },
}

impl std::fmt::Display for AggregationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregationError::NoVotes => write!(f, "at least one vote is required"),
            AggregationError::LengthMismatch { expected, got } => {
                write!(f, "vote of length {got} does not match expected {expected}")
            }
        }
    }
}

impl std::error::Error for AggregationError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AggregationError>;

pub(crate) fn validate(votes: &[Permutation]) -> Result<usize> {
    let Some(first) = votes.first() else {
        return Err(AggregationError::NoVotes);
    };
    let n = first.len();
    for v in votes {
        if v.len() != n {
            return Err(AggregationError::LengthMismatch {
                expected: n,
                got: v.len(),
            });
        }
    }
    Ok(n)
}

/// Pairwise preference matrix: `at(a, b)` = number of votes ranking
/// `a` before `b`. The common input to Copeland, KwikSort and the
/// Kemeny lower bound.
///
/// Stored as one row-major flat `u32` buffer — one allocation and a
/// cache-friendly layout instead of `n` separate heap rows, which is
/// what the `O(n²)`-per-candidate Kemeny scoring loops walk over and
/// over. The tests keep the nested-`Vec` construction,
/// `pairwise_wins_nested`, as its oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WinsMatrix {
    n: usize,
    counts: Vec<u32>,
}

impl WinsMatrix {
    /// Number of items (the matrix is `n × n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Votes ranking `a` before `b` (0 on the diagonal).
    #[inline]
    pub fn at(&self, a: usize, b: usize) -> u32 {
        self.counts[a * self.n + b]
    }
}

/// Build the [`WinsMatrix`] of a vote profile.
pub fn pairwise_wins(votes: &[Permutation]) -> Result<WinsMatrix> {
    let n = validate(votes)?;
    let mut counts = vec![0u32; n * n];
    for v in votes {
        let order = v.as_order();
        for (i, &a) in order.iter().enumerate() {
            let row = &mut counts[a * n..(a + 1) * n];
            for &b in &order[i + 1..] {
                row[b] += 1;
            }
        }
    }
    Ok(WinsMatrix { n, counts })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nested-`Vec` pairwise preference matrix, `wins[a][b]` = votes
    /// ranking `a` before `b` — the original formulation, kept as the
    /// oracle the flat [`pairwise_wins`] is tested against.
    fn pairwise_wins_nested(votes: &[Permutation]) -> Result<Vec<Vec<usize>>> {
        let n = validate(votes)?;
        let mut wins = vec![vec![0usize; n]; n];
        for v in votes {
            let pos = v.positions();
            for a in 0..n {
                for b in 0..n {
                    if a != b && pos[a] < pos[b] {
                        wins[a][b] += 1;
                    }
                }
            }
        }
        Ok(wins)
    }

    #[test]
    fn validate_rejects_empty_and_mismatched() {
        assert_eq!(validate(&[]), Err(AggregationError::NoVotes));
        let votes = vec![Permutation::identity(3), Permutation::identity(4)];
        assert!(matches!(
            validate(&votes),
            Err(AggregationError::LengthMismatch {
                expected: 3,
                got: 4
            })
        ));
    }

    #[test]
    fn pairwise_wins_counts_majorities() {
        let votes = vec![
            Permutation::from_order(vec![0, 1, 2]).unwrap(),
            Permutation::from_order(vec![0, 2, 1]).unwrap(),
            Permutation::from_order(vec![1, 0, 2]).unwrap(),
        ];
        let w = pairwise_wins(&votes).unwrap();
        assert_eq!(w.at(0, 1), 2); // item 0 beats 1 in two votes
        assert_eq!(w.at(1, 0), 1);
        assert_eq!(w.at(0, 2), 3);
        assert_eq!(w.at(2, 0), 0);
        // antisymmetry: wins(a,b) + wins(b,a) = |votes|
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    assert_eq!(w.at(a, b) + w.at(b, a), 3);
                }
            }
        }
    }

    #[test]
    fn flat_wins_matrix_matches_nested_oracle() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(31);
        for n in [1usize, 2, 6, 13] {
            for votes_count in [1usize, 3, 8] {
                let votes: Vec<Permutation> = (0..votes_count)
                    .map(|_| Permutation::random(n, &mut rng))
                    .collect();
                let flat = pairwise_wins(&votes).unwrap();
                let nested = pairwise_wins_nested(&votes).unwrap();
                assert_eq!(flat.n(), n);
                for a in 0..n {
                    for b in 0..n {
                        assert_eq!(
                            flat.at(a, b) as usize,
                            nested[a][b],
                            "n = {n}, votes = {votes_count}, ({a}, {b})"
                        );
                    }
                }
            }
        }
    }
}
