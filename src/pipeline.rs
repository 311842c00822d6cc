//! End-to-end fair rank aggregation (Wei et al. / Chakraborty et al.
//! style): aggregate a vote profile into a consensus, then post-process
//! the consensus for fairness.
//!
//! The paper situates its Mallows randomization exactly here — "the
//! central ranking could be either the result of a rank aggregation
//! problem or any ranking in general" (Section IV-A). This module wires
//! the workspace's aggregators ([`rank_aggregation`]) to its fair
//! post-processors ([`fair_baselines`], [`fair_mallows`]) behind one
//! configuration type, so a downstream user gets the whole pipeline in
//! a single call:
//!
//! ```
//! use fairness_ranking::pipeline::{FairAggregationPipeline, Aggregator, PostProcessor};
//! use fairness_ranking::fairness::{FairnessBounds, GroupAssignment};
//! use fairness_ranking::ranking::Permutation;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let votes = vec![
//!     Permutation::from_order(vec![0, 1, 2, 3]).unwrap(),
//!     Permutation::from_order(vec![1, 0, 2, 3]).unwrap(),
//!     Permutation::from_order(vec![0, 1, 3, 2]).unwrap(),
//! ];
//! let groups = GroupAssignment::new(vec![0, 0, 1, 1], 2).unwrap();
//! let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, 0.25);
//! let pipeline = FairAggregationPipeline::new(
//!     Aggregator::Borda,
//!     PostProcessor::Mallows { theta: 1.0, samples: 15 },
//! );
//! let mut rng = StdRng::seed_from_u64(7);
//! let out = pipeline.run(&votes, &groups, &bounds, &mut rng).unwrap();
//! assert_eq!(out.fair_ranking.len(), 4);
//! ```

use fair_baselines::{approx_multi_valued_ipf, gr_binary_ipf, optimal_fair_ranking_kt, IpfConfig};
use fair_mallows::{Criterion, MallowsFairRanker};
use fairness_metrics::{infeasible, FairnessBounds, GroupAssignment};
use rand::Rng;
use rank_aggregation::markov::{markov_chain_aggregate, ChainKind, MarkovConfig};
use rank_aggregation::{borda, copeland, footrule_optimal, kwik_sort, local_search};
use ranking_core::Permutation;

/// Aggregation stage of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregator {
    /// Positional (mean-rank) aggregation.
    Borda,
    /// Pairwise-majority aggregation.
    Copeland,
    /// Footrule-optimal consensus via min-cost matching.
    Footrule,
    /// KwikSort pivot approximation polished by adjacent-swap local
    /// search — the workspace's best Kemeny heuristic.
    Kemeny,
    /// MC4 Markov-chain aggregation.
    MarkovMc4,
}

impl Aggregator {
    /// Every aggregation stage, in registry order.
    pub const ALL: [Aggregator; 5] = [
        Aggregator::Borda,
        Aggregator::Copeland,
        Aggregator::Footrule,
        Aggregator::Kemeny,
        Aggregator::MarkovMc4,
    ];

    /// Canonical name shared by the CLI, the serving engine's registry
    /// and the HTTP API.
    pub fn name(self) -> &'static str {
        match self {
            Aggregator::Borda => "borda",
            Aggregator::Copeland => "copeland",
            Aggregator::Footrule => "footrule",
            Aggregator::Kemeny => "kemeny",
            Aggregator::MarkovMc4 => "markov",
        }
    }

    /// Inverse of [`Aggregator::name`].
    pub fn parse(name: &str) -> Option<Aggregator> {
        Aggregator::ALL.into_iter().find(|a| a.name() == name)
    }
}

/// Fairness post-processing stage of the pipeline.
#[derive(Debug, Clone)]
pub enum PostProcessor {
    /// No post-processing: return the consensus unchanged (baseline).
    None,
    /// The paper's Algorithm 1: Mallows randomization around the
    /// consensus, keeping the sample closest in Kendall tau (the
    /// distance-efficiency objective of the aggregation setting).
    /// Group-oblivious — never reads the protected attribute.
    Mallows {
        /// Dispersion θ of the noise.
        theta: f64,
        /// Number of samples `m` (best-of-`m`).
        samples: usize,
    },
    /// GrBinaryIPF: exact minimum-Kendall-tau fair ranking (requires
    /// exactly two groups).
    GrBinaryIpf,
    /// Exact minimum-Kendall-tau fair ranking for any number of groups
    /// (`n^{O(g)}` count-vector DP; Chakraborty et al., Thm. 3.4).
    ExactKtDp,
    /// ApproxMultiValuedIPF: minimum-footrule fair matching (any number
    /// of groups).
    ApproxIpf,
}

impl PostProcessor {
    /// Canonical name of this stage.
    pub fn name(&self) -> &'static str {
        match self {
            PostProcessor::None => "none",
            PostProcessor::Mallows { .. } => "mallows",
            PostProcessor::GrBinaryIpf => "gr-binary",
            PostProcessor::ExactKtDp => "exact-kt",
            PostProcessor::ApproxIpf => "ipf",
        }
    }

    /// Inverse of [`PostProcessor::name`]; `theta`/`samples` provide
    /// the Mallows parameters (ignored by the other stages).
    pub fn parse(name: &str, theta: f64, samples: usize) -> Option<PostProcessor> {
        match name {
            "none" => Some(PostProcessor::None),
            "mallows" => Some(PostProcessor::Mallows { theta, samples }),
            "gr-binary" => Some(PostProcessor::GrBinaryIpf),
            "exact-kt" => Some(PostProcessor::ExactKtDp),
            "ipf" => Some(PostProcessor::ApproxIpf),
            _ => None,
        }
    }
}

/// A named pipeline configuration: which aggregator feeds which
/// post-processor. This is the single naming authority shared by
/// `fairrank pipeline`, the engine's algorithm registry and the
/// `POST /pipeline` HTTP endpoint, so a spec string accepted by one
/// surface is accepted by all of them.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Aggregation stage.
    pub aggregator: Aggregator,
    /// Post-processing stage.
    pub post: PostProcessor,
}

impl PipelineSpec {
    /// Parse stage names (`theta`/`samples` configure a Mallows stage).
    /// Returns `None` if either name is unknown.
    pub fn parse(method: &str, post: &str, theta: f64, samples: usize) -> Option<PipelineSpec> {
        Some(PipelineSpec {
            aggregator: Aggregator::parse(method)?,
            post: PostProcessor::parse(post, theta, samples)?,
        })
    }

    /// Instantiate the runnable pipeline.
    pub fn build(&self) -> FairAggregationPipeline {
        FairAggregationPipeline::new(self.aggregator, self.post.clone())
    }
}

/// Output of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// The consensus produced by the aggregation stage.
    pub consensus: Permutation,
    /// The fairness-post-processed ranking.
    pub fair_ranking: Permutation,
    /// Total Kendall tau distance of the consensus to the votes.
    pub consensus_total_kt: u64,
    /// Total Kendall tau distance of the fair ranking to the votes.
    pub fair_total_kt: u64,
    /// Two-sided infeasible index of the consensus.
    pub consensus_infeasible: usize,
    /// Two-sided infeasible index of the fair ranking.
    pub fair_infeasible: usize,
}

/// Errors raised by the pipeline (any stage).
#[derive(Debug)]
pub enum PipelineError {
    /// Aggregation-stage failure.
    Aggregation(rank_aggregation::AggregationError),
    /// Post-processing failure.
    Baseline(fair_baselines::BaselineError),
    /// Mallows-randomization failure.
    Mallows(fair_mallows::FairMallowsError),
    /// Metric evaluation failure.
    Fairness(fairness_metrics::FairnessError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Aggregation(e) => write!(f, "aggregation: {e}"),
            PipelineError::Baseline(e) => write!(f, "post-processing: {e}"),
            PipelineError::Mallows(e) => write!(f, "mallows: {e}"),
            PipelineError::Fairness(e) => write!(f, "fairness metric: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Aggregation(e) => Some(e),
            PipelineError::Baseline(e) => Some(e),
            PipelineError::Mallows(e) => Some(e),
            PipelineError::Fairness(e) => Some(e),
        }
    }
}

impl From<rank_aggregation::AggregationError> for PipelineError {
    fn from(e: rank_aggregation::AggregationError) -> Self {
        PipelineError::Aggregation(e)
    }
}
impl From<fair_baselines::BaselineError> for PipelineError {
    fn from(e: fair_baselines::BaselineError) -> Self {
        PipelineError::Baseline(e)
    }
}
impl From<fair_mallows::FairMallowsError> for PipelineError {
    fn from(e: fair_mallows::FairMallowsError) -> Self {
        PipelineError::Mallows(e)
    }
}
impl From<fairness_metrics::FairnessError> for PipelineError {
    fn from(e: fairness_metrics::FairnessError) -> Self {
        PipelineError::Fairness(e)
    }
}

/// An aggregation + fair post-processing pipeline (see module docs).
#[derive(Debug, Clone)]
pub struct FairAggregationPipeline {
    aggregator: Aggregator,
    post: PostProcessor,
}

impl FairAggregationPipeline {
    /// Assemble a pipeline from its two stages.
    pub fn new(aggregator: Aggregator, post: PostProcessor) -> Self {
        FairAggregationPipeline { aggregator, post }
    }

    /// The configured aggregation stage.
    pub fn aggregator(&self) -> Aggregator {
        self.aggregator
    }

    /// Run the pipeline on a vote profile.
    ///
    /// `groups`/`bounds` drive the group-aware post-processors and the
    /// reported infeasible indices; the Mallows stage ignores them for
    /// ranking (it is oblivious) but they still appear in the report.
    pub fn run<R: Rng + ?Sized>(
        &self,
        votes: &[Permutation],
        groups: &GroupAssignment,
        bounds: &FairnessBounds,
        rng: &mut R,
    ) -> Result<PipelineOutput, PipelineError> {
        let consensus = self.aggregate(votes, rng)?;
        let fair_ranking = self.post_process(&consensus, groups, bounds, rng)?;
        let consensus_total_kt = rank_aggregation::total_kendall_distance(&consensus, votes)?;
        let fair_total_kt = rank_aggregation::total_kendall_distance(&fair_ranking, votes)?;
        let consensus_infeasible =
            infeasible::two_sided_infeasible_index(&consensus, groups, bounds)?;
        let fair_infeasible =
            infeasible::two_sided_infeasible_index(&fair_ranking, groups, bounds)?;
        Ok(PipelineOutput {
            consensus,
            fair_ranking,
            consensus_total_kt,
            fair_total_kt,
            consensus_infeasible,
            fair_infeasible,
        })
    }

    fn aggregate<R: Rng + ?Sized>(
        &self,
        votes: &[Permutation],
        rng: &mut R,
    ) -> Result<Permutation, PipelineError> {
        Ok(match self.aggregator {
            Aggregator::Borda => borda(votes)?,
            Aggregator::Copeland => copeland(votes)?,
            Aggregator::Footrule => footrule_optimal(votes)?,
            Aggregator::Kemeny => {
                let start = kwik_sort(votes, rng)?;
                local_search(&start, votes)?
            }
            Aggregator::MarkovMc4 => markov_chain_aggregate(
                votes,
                &MarkovConfig {
                    kind: ChainKind::Majority,
                    ..Default::default()
                },
            )?,
        })
    }

    fn post_process<R: Rng + ?Sized>(
        &self,
        consensus: &Permutation,
        groups: &GroupAssignment,
        bounds: &FairnessBounds,
        rng: &mut R,
    ) -> Result<Permutation, PipelineError> {
        Ok(match &self.post {
            PostProcessor::None => consensus.clone(),
            PostProcessor::Mallows { theta, samples } => {
                let ranker = MallowsFairRanker::new(*theta, *samples, Criterion::MinKendallTau)?;
                ranker.rank(consensus, rng)?.ranking
            }
            PostProcessor::GrBinaryIpf => gr_binary_ipf(consensus, groups, bounds)?,
            PostProcessor::ExactKtDp => {
                optimal_fair_ranking_kt(consensus, groups, &bounds.tables(consensus.len()))?
            }
            PostProcessor::ApproxIpf => {
                approx_multi_valued_ipf(consensus, groups, bounds, &IpfConfig::default(), rng)?
                    .ranking
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn segregated_votes(n: usize, m: usize) -> Vec<Permutation> {
        // all voters agree on the identity → consensus is segregated when
        // groups are the two halves.
        vec![Permutation::identity(n); m]
    }

    fn halves(n: usize) -> (GroupAssignment, FairnessBounds) {
        let g = GroupAssignment::binary_split(n, n / 2);
        let b = FairnessBounds::from_assignment_with_tolerance(&g, 0.15);
        (g, b)
    }

    #[test]
    fn no_postprocessing_returns_consensus() {
        let votes = segregated_votes(8, 5);
        let (g, b) = halves(8);
        let p = FairAggregationPipeline::new(Aggregator::Borda, PostProcessor::None);
        let mut rng = StdRng::seed_from_u64(1);
        let out = p.run(&votes, &g, &b, &mut rng).unwrap();
        assert_eq!(out.consensus, out.fair_ranking);
        assert_eq!(out.consensus_total_kt, 0); // unanimous profile
    }

    #[test]
    fn every_aggregator_recovers_unanimous_profile() {
        let order = vec![2, 0, 3, 1, 4];
        let votes = vec![Permutation::from_order(order.clone()).unwrap(); 4];
        let (g, b) = halves(5);
        for agg in [
            Aggregator::Borda,
            Aggregator::Copeland,
            Aggregator::Footrule,
            Aggregator::Kemeny,
            Aggregator::MarkovMc4,
        ] {
            let p = FairAggregationPipeline::new(agg, PostProcessor::None);
            let mut rng = StdRng::seed_from_u64(3);
            let out = p.run(&votes, &g, &b, &mut rng).unwrap();
            assert_eq!(out.consensus.as_order(), &order[..], "{agg:?}");
        }
    }

    #[test]
    fn gr_binary_postprocessing_zeroes_infeasible_index() {
        let votes = segregated_votes(10, 3);
        let (g, b) = halves(10);
        let p = FairAggregationPipeline::new(Aggregator::Borda, PostProcessor::GrBinaryIpf);
        let mut rng = StdRng::seed_from_u64(5);
        let out = p.run(&votes, &g, &b, &mut rng).unwrap();
        assert!(
            out.consensus_infeasible > 0,
            "segregated consensus must violate"
        );
        assert_eq!(
            out.fair_infeasible, 0,
            "GrBinaryIPF must produce a fair ranking"
        );
        assert!(
            out.fair_total_kt >= out.consensus_total_kt,
            "fairness costs distance"
        );
    }

    #[test]
    fn exact_kt_dp_matches_gr_binary_on_two_groups() {
        let votes = segregated_votes(10, 3);
        let (g, b) = halves(10);
        let mut rng = StdRng::seed_from_u64(23);
        let merge = FairAggregationPipeline::new(Aggregator::Borda, PostProcessor::GrBinaryIpf)
            .run(&votes, &g, &b, &mut rng)
            .unwrap();
        let dp = FairAggregationPipeline::new(Aggregator::Borda, PostProcessor::ExactKtDp)
            .run(&votes, &g, &b, &mut rng)
            .unwrap();
        assert_eq!(dp.fair_infeasible, 0);
        assert_eq!(
            dp.fair_total_kt, merge.fair_total_kt,
            "both are exact minimizers"
        );
    }

    #[test]
    fn exact_kt_dp_handles_three_groups() {
        let votes = segregated_votes(9, 3);
        let g = GroupAssignment::new(vec![0, 0, 0, 1, 1, 1, 2, 2, 2], 3).unwrap();
        let b = FairnessBounds::from_assignment_with_tolerance(&g, 0.1);
        let mut rng = StdRng::seed_from_u64(29);
        let out = FairAggregationPipeline::new(Aggregator::Borda, PostProcessor::ExactKtDp)
            .run(&votes, &g, &b, &mut rng)
            .unwrap();
        assert!(out.fair_infeasible < out.consensus_infeasible);
    }

    #[test]
    fn approx_ipf_postprocessing_reduces_infeasible_index() {
        let votes = segregated_votes(12, 3);
        let (g, b) = halves(12);
        let p = FairAggregationPipeline::new(Aggregator::Kemeny, PostProcessor::ApproxIpf);
        let mut rng = StdRng::seed_from_u64(7);
        let out = p.run(&votes, &g, &b, &mut rng).unwrap();
        assert!(out.fair_infeasible < out.consensus_infeasible);
    }

    #[test]
    fn mallows_postprocessing_is_oblivious_but_reduces_ii_on_average() {
        let votes = segregated_votes(10, 3);
        let (g, b) = halves(10);
        let p = FairAggregationPipeline::new(
            Aggregator::Borda,
            PostProcessor::Mallows {
                theta: 0.3,
                samples: 1,
            },
        );
        let mut rng = StdRng::seed_from_u64(11);
        let trials = 30;
        let mut ii = 0usize;
        let mut base = 0usize;
        for _ in 0..trials {
            let out = p.run(&votes, &g, &b, &mut rng).unwrap();
            ii += out.fair_infeasible;
            base += out.consensus_infeasible;
        }
        assert!(
            ii < base,
            "Mallows noise should reduce mean II: {ii} vs baseline {base}"
        );
    }

    #[test]
    fn empty_votes_propagate_aggregation_error() {
        let (g, b) = halves(4);
        let p = FairAggregationPipeline::new(Aggregator::Borda, PostProcessor::None);
        let mut rng = StdRng::seed_from_u64(13);
        assert!(matches!(
            p.run(&[], &g, &b, &mut rng),
            Err(PipelineError::Aggregation(_))
        ));
    }

    #[test]
    fn gr_binary_with_three_groups_errors() {
        let votes = segregated_votes(9, 2);
        let g = GroupAssignment::new(vec![0, 0, 0, 1, 1, 1, 2, 2, 2], 3).unwrap();
        let b = FairnessBounds::from_assignment_with_tolerance(&g, 0.1);
        let p = FairAggregationPipeline::new(Aggregator::Borda, PostProcessor::GrBinaryIpf);
        let mut rng = StdRng::seed_from_u64(17);
        assert!(matches!(
            p.run(&votes, &g, &b, &mut rng),
            Err(PipelineError::Baseline(
                fair_baselines::BaselineError::NotBinary { .. }
            ))
        ));
    }
}
