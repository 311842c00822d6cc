//! Baseline fair-ranking post-processors the paper compares against.
//!
//! * [`weakly_fair`] — constructs the weakly-P-fair, score-ordered input
//!   ranking that every algorithm in the paper's Section V-C consumes;
//! * [`mod@det_const_sort`] — DetConstSort (Geyik et al., KDD'19 /
//!   LinkedIn), with the paper's noisy `tempMinCounts` variant;
//! * [`ipf`] — ApproxMultiValuedIPF (Wei et al., SIGMOD'22):
//!   minimum-footrule P-fair re-ranking via min-weight bipartite
//!   matching with per-(group, rank) position windows, with the paper's
//!   noisy-weight variant;
//! * [`gr_binary`] — GrBinaryIPF: the mergesort-inspired exact
//!   Kendall-tau algorithm for two protected groups;
//! * [`multi_kt`] — the `n^{O(g)}` exact minimum-Kendall-tau fair
//!   ranking for any number of groups (Chakraborty et al., Thm. 3.4);
//! * [`ilp_ranking`] — the paper's ILP (Section IV-B): DCG-optimal
//!   `(α⃗, β⃗)`-fair ranking, solved exactly by a dynamic program over
//!   per-group prefix counts, cross-validated against `lp-solver`'s
//!   branch & bound, with the paper's noisy constraint relaxation;
//! * [`brute`] — exhaustive reference solvers used as test oracles.

#![forbid(unsafe_code)]

pub mod brute;
pub mod det_const_sort;
pub mod fa_ir;
pub mod gr_binary;
pub mod ilp_ranking;
pub mod ipf;
pub mod multi_kt;
pub mod top_k;
pub mod weakly_fair;

pub use det_const_sort::{det_const_sort, DetConstSortConfig};
pub use fa_ir::{fa_ir, FaIrConfig};
pub use gr_binary::gr_binary_ipf;
pub use ilp_ranking::{noisy_tables, optimal_fair_ranking_dp, optimal_fair_ranking_ilp};
pub use ipf::{approx_multi_valued_ipf, IpfConfig, IpfOutput};
pub use multi_kt::optimal_fair_ranking_kt;
pub use top_k::{fair_top_k, fair_top_k_ranking, FairnessMode};
pub use weakly_fair::{weakly_fair_from_order, weakly_fair_ranking};

/// Errors raised by the baseline algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// The fairness bounds admit no complete fair ranking.
    Infeasible,
    /// The algorithm requires exactly two protected groups.
    NotBinary {
        /// Number of groups supplied.
        got: usize,
    },
    /// Input shape mismatch (scores / groups / ranking lengths).
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        what: &'static str,
    },
    /// Propagated fairness-metrics error.
    Fairness(fairness_metrics::FairnessError),
    /// Propagated LP error.
    Lp(lp_solver::LpError),
    /// Propagated assignment error.
    Assignment(assignment_solver::AssignmentError),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Infeasible => write!(f, "no fair ranking satisfies the bounds"),
            BaselineError::NotBinary { got } => {
                write!(f, "algorithm requires exactly 2 groups, got {got}")
            }
            BaselineError::ShapeMismatch { what } => write!(f, "shape mismatch: {what}"),
            BaselineError::Fairness(e) => write!(f, "fairness error: {e}"),
            BaselineError::Lp(e) => write!(f, "lp error: {e}"),
            BaselineError::Assignment(e) => write!(f, "assignment error: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<fairness_metrics::FairnessError> for BaselineError {
    fn from(e: fairness_metrics::FairnessError) -> Self {
        BaselineError::Fairness(e)
    }
}

impl From<lp_solver::LpError> for BaselineError {
    fn from(e: lp_solver::LpError) -> Self {
        BaselineError::Lp(e)
    }
}

impl From<assignment_solver::AssignmentError> for BaselineError {
    fn from(e: assignment_solver::AssignmentError) -> Self {
        BaselineError::Assignment(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BaselineError>;
