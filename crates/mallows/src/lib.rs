//! The Mallows permutation model `M(π₀, θ)` under the Kendall tau
//! distance (paper Section III-E).
//!
//! The probability of a permutation `π` is
//! `P[π | π₀, θ] = exp(−θ·d_KT(π, π₀)) / Z_n(θ)`, where the partition
//! function `Z_n(θ) = Π_{j=1..n} (1 − e^{−jθ}) / (1 − e^{−θ})` depends
//! only on `θ` and `n`.
//!
//! Provided here:
//!
//! * [`MallowsModel`] — exact sampling via the repeated insertion model
//!   (RIM), PMF / log-PMF, partition function and closed-form expected
//!   Kendall tau distance;
//! * [`mle`] — dispersion estimation (bisection on the monotone expected
//!   distance) and Borda centre estimation;
//! * [`dispersion`] — tuning `θ` to hit a target expected distance, the
//!   knob the paper's conclusions propose for a systematic noise
//!   methodology;
//! * [`tables`] — precomputed per-`(n, θ)` insertion-CDF tables
//!   ([`SamplerTables`]) and the zero-allocation [`RimSampler`] fast
//!   path the serving engine caches across requests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cayley;
pub mod dispersion;
mod generalized;
pub mod mle;
mod model;
mod plackett_luce;
pub mod tables;
pub mod truncated;

pub use cayley::CayleyMallows;
pub use generalized::GeneralizedMallows;
pub use model::MallowsModel;
pub use plackett_luce::PlackettLuce;
pub use tables::{RimSampler, SamplerTables};
pub use truncated::TopKMallows;

/// Errors raised by the Mallows model.
#[derive(Debug, Clone, PartialEq)]
pub enum MallowsError {
    /// θ must be non-negative and finite.
    InvalidTheta {
        /// The offending dispersion value.
        theta: f64,
    },
    /// Ranking-length mismatch with the centre.
    LengthMismatch {
        /// Length of the centre ranking.
        center: usize,
        /// Length of the queried ranking.
        other: usize,
    },
    /// Empty sample set where at least one sample is required.
    NoSamples,
}

impl std::fmt::Display for MallowsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MallowsError::InvalidTheta { theta } => write!(f, "invalid dispersion θ = {theta}"),
            MallowsError::LengthMismatch { center, other } => {
                write!(
                    f,
                    "centre has length {center} but ranking has length {other}"
                )
            }
            MallowsError::NoSamples => write!(f, "at least one sample is required"),
        }
    }
}

impl std::error::Error for MallowsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MallowsError>;
