//! Core ranking primitives for the fair-ranking reproduction.
//!
//! This crate provides the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Permutation`] — a ranking over `n` items, stored in *order form*
//!   (`order[k]` = item placed at position `k`) with cheap conversion to
//!   *position form* (`position[i]` = position of item `i`);
//! * [`distance`] — Kendall tau (naive and `O(n log n)`), footrule,
//!   Ulam, Cayley and Hamming distances between rankings;
//! * [`quality`] — DCG / IDCG / NDCG ranking-quality measures as used
//!   by the paper (Section III-D).
//!
//! Conventions
//! -----------
//! Items are identified by dense indices `0..n`. A [`Permutation`] `π`
//! maps *positions to items*: `π.item_at(0)` is the top-ranked item. The
//! paper writes `σ(i)` for the *position of item i*; that is
//! [`Permutation::position_of`]. Both views are kept consistent and all
//! distances accept permutations of equal length only.

#![forbid(unsafe_code)]

pub mod distance;
pub mod lehmer;
pub mod permutation;
pub mod quality;
pub mod toplist;

pub use permutation::Permutation;
pub use toplist::TopKList;

/// Errors produced by ranking-core operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankingError {
    /// The supplied vector was not a permutation of `0..n`
    /// (duplicate or out-of-range entry).
    NotAPermutation {
        /// Length of the offending input.
        len: usize,
        /// First offending value, if identifiable.
        offending: Option<usize>,
    },
    /// Two rankings that must have equal length did not.
    LengthMismatch {
        /// Length of the left operand.
        left: usize,
        /// Length of the right operand.
        right: usize,
    },
    /// An empty ranking where a non-empty one is required.
    Empty,
}

impl std::fmt::Display for RankingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankingError::NotAPermutation { len, offending } => match offending {
                Some(v) => write!(
                    f,
                    "input of length {len} is not a permutation (offending value {v})"
                ),
                None => write!(f, "input of length {len} is not a permutation"),
            },
            RankingError::LengthMismatch { left, right } => {
                write!(f, "rankings have mismatched lengths {left} and {right}")
            }
            RankingError::Empty => write!(f, "ranking must be non-empty"),
        }
    }
}

impl std::error::Error for RankingError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RankingError>;
