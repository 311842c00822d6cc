//! **fair-mallows** — the paper's contribution (Algorithm 1): randomized
//! post-processing of rankings through Mallows noise, improving
//! P-fairness *without access to the protected attribute*.
//!
//! Given an input ranking `π₀` (e.g. score-sorted, or a weakly-fair
//! ranking w.r.t. whatever attributes *are* known), the algorithm
//!
//! 1. samples `m` permutations from the Mallows distribution
//!    `M(π₀, θ)`, and
//! 2. returns the best sample according to a [`Criterion`]
//!    (first sample, max NDCG, min Kendall tau, or min infeasible index
//!    w.r.t. known groups).
//!
//! Because the noise is oblivious to group membership, the output is
//! approximately P-fair with respect to **any** sufficiently large
//! protected group — including attributes never observed (the paper's
//! robustness claim, validated by its Figs. 5–7).
//!
//! ```
//! use fair_mallows::{Criterion, MallowsFairRanker};
//! use ranking_core::Permutation;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let scores = vec![0.9, 0.7, 0.5, 0.4, 0.2, 0.1];
//! let center = Permutation::sorted_by_scores_desc(&scores);
//! let ranker = MallowsFairRanker::new(1.0, 15, Criterion::MaxNdcg(scores)).unwrap();
//! let mut rng = StdRng::seed_from_u64(7);
//! let out = ranker.rank(&center, &mut rng).unwrap();
//! assert_eq!(out.ranking.len(), 6);
//! assert!(out.criterion_value <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod kernel;
pub mod noise;
pub mod oblivious;

pub use algorithm::{Criterion, MallowsFairRanker, RankOutput, PIPELINE_MIN_N};
pub use kernel::Precomputed;
pub use noise::{CenteredPlackettLuce, GenericFairRanker, NoiseModel};

/// Errors raised by the Mallows fair ranker.
#[derive(Debug, Clone, PartialEq)]
pub enum FairMallowsError {
    /// `num_samples` must be at least 1.
    NoSamples,
    /// Propagated Mallows-model error (bad θ, length mismatch).
    Mallows(mallows_model::MallowsError),
    /// Criterion payload does not match the centre's length.
    CriterionShape {
        /// Length expected by the criterion payload.
        expected: usize,
        /// Centre length supplied.
        got: usize,
    },
    /// Propagated fairness error from an infeasible-index criterion.
    Fairness(fairness_metrics::FairnessError),
}

impl std::fmt::Display for FairMallowsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FairMallowsError::NoSamples => write!(f, "num_samples must be ≥ 1"),
            FairMallowsError::Mallows(e) => write!(f, "mallows error: {e}"),
            FairMallowsError::CriterionShape { expected, got } => {
                write!(
                    f,
                    "criterion expects rankings of length {expected}, centre has {got}"
                )
            }
            FairMallowsError::Fairness(e) => write!(f, "fairness error: {e}"),
        }
    }
}

impl std::error::Error for FairMallowsError {}

impl From<mallows_model::MallowsError> for FairMallowsError {
    fn from(e: mallows_model::MallowsError) -> Self {
        FairMallowsError::Mallows(e)
    }
}

impl From<fairness_metrics::FairnessError> for FairMallowsError {
    fn from(e: fairness_metrics::FairnessError) -> Self {
        FairMallowsError::Fairness(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FairMallowsError>;

// Thread-safety audit: the serving engine (`fairrank_engine`) shares
// ranker instances across a fixed worker pool, so every public
// algorithm type in this crate must be `Send + Sync`. Checked at
// compile time; adding a non-thread-safe field (an `Rc`, a `RefCell`,
// a raw pointer) to any of these types breaks the build here rather
// than deep inside the engine.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MallowsFairRanker>();
    assert_send_sync::<Criterion>();
    assert_send_sync::<RankOutput>();
    assert_send_sync::<GenericFairRanker>();
    assert_send_sync::<CenteredPlackettLuce>();
    assert_send_sync::<Box<dyn NoiseModel>>();
    assert_send_sync::<mallows_model::MallowsModel>();
    assert_send_sync::<mallows_model::SamplerTables>();
    assert_send_sync::<mallows_model::RimSampler>();
    assert_send_sync::<FairMallowsError>();
};
