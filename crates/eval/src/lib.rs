//! Statistics and reporting utilities for the experiment harness.
//!
//! * [`stats`] — summary statistics (mean, median, standard deviation,
//!   percentiles) over `f64` samples;
//! * [`bootstrap_ci`] — percentile bootstrap confidence intervals, the
//!   method the paper uses for every figure (`n = 1000` resamples);
//! * [`NormalSampler`] — Gaussian sampling via the Marsaglia polar
//!   method, replacing the `rand_distr` dependency (see DESIGN.md);
//! * [`hypothesis`] — nonparametric significance tests (Mann–Whitney U,
//!   χ² goodness of fit);
//! * [`table`] — plain-text table emitters used by the `experiments`
//!   binaries to print paper-style series.

#![forbid(unsafe_code)]

mod bootstrap;
pub mod hypothesis;
mod rand_ext;
pub mod stats;
pub mod table;

pub use bootstrap::{bootstrap_ci, BootstrapCi, Statistic};
pub use hypothesis::{chi_square_gof, mann_whitney_u, TestResult};
pub use rand_ext::NormalSampler;

/// Errors raised by statistical routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError {
    /// A test received an empty (or all-tied, for rank tests) sample.
    EmptySample,
    /// Paired inputs differ in length.
    LengthMismatch {
        /// Length of the left input.
        left: usize,
        /// Length of the right input.
        right: usize,
    },
    /// An expected-frequency cell was non-positive.
    InvalidExpected,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::EmptySample => write!(f, "sample is empty or fully tied"),
            EvalError::LengthMismatch { left, right } => {
                write!(f, "inputs have mismatched lengths {left} and {right}")
            }
            EvalError::InvalidExpected => write!(f, "expected frequencies must be positive"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EvalError>;
