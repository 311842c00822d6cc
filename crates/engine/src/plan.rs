//! The per-request score plan: one sort of a scored candidate pool,
//! shared by the weakly-fair centre, the Mallows kernel and the
//! metrics report.
//!
//! Each of those steps needs the pool's score order, and the report
//! and the centre need the integer bound steps too. [`ScorePlan::new`]
//! derives them once per request — the score order with its log₂
//! discount table and IDCG ([`IdealDcg`]), and the bounds compiled into
//! the event-driven infeasible kernel — and every step reads them from
//! here. The report then costs `O(n + steps)` over the winner.

use fair_baselines::weakly_fair_from_order;
use fair_mallows::Precomputed;
use fairness_metrics::infeasible::{self, CompiledInfeasible};
use fairness_metrics::{FairnessBounds, GroupAssignment};
use ranking_core::quality::{self, IdealDcg};
use ranking_core::Permutation;

/// Order, ideal DCG and compiled bounds of one scored pool.
pub(crate) struct ScorePlan<'j> {
    scores: &'j [f64],
    groups: GroupAssignment,
    tolerance: f64,
    bounds: FairnessBounds,
    ideal: IdealDcg,
    infeasible: CompiledInfeasible,
}

impl<'j> ScorePlan<'j> {
    /// Sort `scores` once and compile the pool's bounds (the groups'
    /// own proportions relaxed by `tolerance`) for every prefix.
    pub(crate) fn new(scores: &'j [f64], groups: GroupAssignment, tolerance: f64) -> Self {
        let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, tolerance);
        let infeasible = CompiledInfeasible::compile(&bounds, scores.len());
        ScorePlan {
            scores,
            groups,
            tolerance,
            bounds,
            ideal: IdealDcg::new(scores),
            infeasible,
        }
    }

    pub(crate) fn groups(&self) -> &GroupAssignment {
        &self.groups
    }

    pub(crate) fn bounds(&self) -> &FairnessBounds {
        &self.bounds
    }

    /// The score order `π*` (`Permutation::sorted_by_scores_desc`).
    pub(crate) fn order(&self) -> &Permutation {
        self.ideal.order()
    }

    /// The weakly-fair centre (`weakly_fair_ranking` of the pool).
    pub(crate) fn centre(&self) -> Permutation {
        weakly_fair_from_order(
            self.scores,
            &self.groups,
            self.order().as_order(),
            self.infeasible.steps(),
        )
    }

    /// The IDCG, discounts and compiled bounds for the Mallows kernel.
    pub(crate) fn precomputed(&self) -> Precomputed<'_> {
        Precomputed {
            ideal: Some(&self.ideal),
            infeasible: Some(&self.infeasible),
        }
    }

    /// Utility + fairness report for `ranking`, a full ranking or a
    /// top-k selection (the `fairrank rank` footer): NDCG within the
    /// selection and versus the pool ideal, infeasible index and
    /// P-fair percentage over the selected items, against bounds from
    /// the selection's own group proportions.
    ///
    /// Every value is bit-identical to scoring the selection on its own
    /// (sorting its scores for the IDCG, rebuilding its bounds): the
    /// DCG sums the same terms in the same order, a selection's score
    /// order is the pool's order filtered to it, and a full ranking's
    /// IDCG and bounds are the pool's.
    pub(crate) fn report(&mut self, ranking: &[usize]) -> Vec<(String, f64)> {
        let scores = self.scores;
        let k = ranking.len();
        let discounts = self.ideal.discounts();
        let dcg = quality::dcg_of(ranking.iter().map(|&i| scores[i]), discounts);
        let ids = self.groups.as_slice();
        let ranked_groups = ranking.iter().map(|&i| ids[i]);
        let (pool_idcg, selection_idcg, ii) = if k == scores.len() {
            let idcg = self.ideal.idcg();
            (idcg, idcg, self.infeasible.scan(ranked_groups).total())
        } else {
            let pool_order = self.ideal.order().as_order();
            let pool_idcg = quality::dcg_of(pool_order[..k].iter().map(|&i| scores[i]), discounts);
            let mut selected = vec![false; scores.len()];
            for &i in ranking {
                selected[i] = true;
            }
            let selection_order = pool_order.iter().filter(|&&i| selected[i]);
            let selection_idcg = quality::dcg_of(selection_order.map(|&i| scores[i]), discounts);
            let sub_groups = self.groups.subset(ranking);
            let sub_bounds =
                FairnessBounds::from_assignment_with_tolerance(&sub_groups, self.tolerance);
            let ii = CompiledInfeasible::compile(&sub_bounds, k)
                .scan(ranked_groups)
                .total();
            (pool_idcg, selection_idcg, ii)
        };
        let ndcg = if selection_idcg == 0.0 {
            1.0
        } else {
            dcg / selection_idcg
        };
        let mut metrics = vec![("ndcg_within_selection".to_string(), ndcg)];
        if pool_idcg > 0.0 {
            metrics.push(("ndcg_vs_pool".to_string(), dcg / pool_idcg));
        }
        metrics.push(("infeasible_index".to_string(), ii as f64));
        metrics.push((
            "pfair_percentage".to_string(),
            infeasible::pfair_from_index(ii, k),
        ));
        metrics
    }
}
