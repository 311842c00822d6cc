//! Compiled criterion-evaluation plans for the best-of-`m` loop.
//!
//! [`CriterionPlan::compile`] runs once per `rank` call and
//! materializes everything the per-sample evaluation would otherwise
//! recompute `m` times: the log₂ discount table (one transcendental
//! per element instead of one per element *per sample*), the ideal
//! DCG, per-part normalizers, and the infeasible-index bound-step
//! tables ([`CompiledInfeasible`]). A caller that already holds the
//! root criterion's ideal DCG or compiled bounds hands them over as
//! [`Precomputed`] and the plan borrows them instead of recomputing.
//! The plan is immutable and `Send + Sync`, so `rank_batched` shares
//! one across its worker threads; each thread owns a small
//! [`CriterionKernel`] scratch.
//!
//! Values are **bit-identical** to [`Criterion::objective`]: every
//! accumulator adds the same terms in the same order, and the final
//! combination mirrors the reference expression op for op.
//!
//! On top of the exact evaluation the kernel supports **exact monotone
//! early abandoning**: given the best objective so far, a sample is
//! dropped the moment a proven lower bound of its final objective can
//! no longer satisfy the strict `obj < best_obj` winner test. The
//! bounds are conservative about floating-point error (see
//! `node_bound`), so an abandoned sample is guaranteed to lose the
//! comparison it skipped — the selected winner and every tie-break are
//! identical to the unabridged scalar path.

use crate::{Criterion, FairMallowsError, Result};
use fairness_metrics::infeasible::CompiledInfeasible;
use fairness_metrics::FairnessError;
use ranking_core::quality::{self, Discount, IdealDcg};
use ranking_core::{distance, Permutation};
use std::borrow::Cow;

/// Constants of the criterion's *root* that the caller has already
/// derived for the ranking length, reused by the compiled plan instead
/// of recomputed. Each must come from the root's own inputs: `ideal`
/// from the [`Criterion::MaxNdcg`] scores, `infeasible` from the
/// [`Criterion::MinInfeasibleIndex`] bounds (debug builds check both).
/// Parts of a [`Criterion::Weighted`] root compile their own.
#[derive(Debug, Clone, Copy, Default)]
pub struct Precomputed<'p> {
    /// IDCG and log₂ discount table of the root NDCG scores.
    pub ideal: Option<&'p IdealDcg>,
    /// The root infeasible-index bounds compiled for the ranking
    /// length.
    pub infeasible: Option<&'p CompiledInfeasible>,
}

/// Widest spacing between abandon-bound checks in the fused scan. The
/// actual spacing adapts to the ranking length (see
/// [`check_interval`]) so short rankings still get mid-scan checks.
const CHECK_INTERVAL: usize = 64;

/// Bound-check spacing for rankings of `n` items: roughly eight checks
/// per scan, at least every [`CHECK_INTERVAL`] positions, and never
/// more often than every 4 positions (a check walks the criterion
/// tree, so back-to-back checks would dominate short scans).
fn check_interval(n: usize) -> usize {
    (n / 8).clamp(4, CHECK_INTERVAL)
}

/// One compiled criterion node, mirroring the [`Criterion`] tree.
enum Node {
    First,
    Ndcg {
        /// `quality::idcg(scores)`, bit-identical to the reference.
        idcg: f64,
        /// `Σ max(sᵢ, 0)` — caps the DCG any remaining suffix can add.
        pos_sum: f64,
        /// Absolute slack covering accumulated rounding in the DCG
        /// scan, so the abandon bound never overtakes the computed
        /// objective.
        slack: f64,
        /// Index into [`CriterionKernel`]'s NDCG accumulators.
        slot: usize,
    },
    Kendall,
    Infeasible {
        /// Index into [`CriterionKernel`]'s infeasible kernels.
        slot: usize,
    },
    /// `(weight, normalizer, child)` triples, combined exactly like
    /// `Criterion::objective` for `Criterion::Weighted`.
    Weighted(Vec<(f64, f64, Node)>),
}

/// Per-element work of the fused scan, flattened so the hot loop is a
/// short slice walk instead of a tree recursion.
enum ScanOp<'c> {
    /// `acc[slot] += scores[item] * discounts[idx]` (+ positive-score
    /// tracking for the abandon bound).
    Ndcg { scores: &'c [f64], slot: usize },
    /// Feed the item's group id to the compiled infeasible kernel.
    Infeasible { ids: &'c [usize], slot: usize },
}

/// A [`Criterion`] compiled for rankings of `n` items. Immutable;
/// build once per rank call, share by reference across threads.
pub(crate) struct CriterionPlan<'c> {
    n: usize,
    root: Node,
    ops: Vec<ScanOp<'c>>,
    /// `Discount::Log2.table(n)` — bit-identical to the pointwise calls
    /// the reference path makes. Empty when no NDCG part needs it.
    discounts: Cow<'c, [f64]>,
    ndcg_slots: usize,
    /// Compiled infeasible kernels with pristine scratch; each
    /// [`CriterionKernel`] clones its own working copies.
    inf_templates: Vec<CompiledInfeasible>,
    /// Whether every node yields a valid objective lower bound (all
    /// weights non-negative, NDCG normalizers positive).
    abandonable: bool,
    /// Extra margin subtracted from weighted-combination bounds to
    /// cover rounding of the combination itself. 0 for exact roots.
    abandon_slack: f64,
}

struct BuildCtx<'c> {
    ops: Vec<ScanOp<'c>>,
    ndcg_slots: usize,
    inf_templates: Vec<CompiledInfeasible>,
    need_discounts: bool,
}

impl<'c> CriterionPlan<'c> {
    /// Compile `criterion` for rankings of `n` items, validating every
    /// shape up front (the reference path re-validated per sample).
    pub(crate) fn compile(
        criterion: &'c Criterion,
        n: usize,
        pre: Precomputed<'c>,
    ) -> Result<CriterionPlan<'c>> {
        if let Some(ideal) = pre.ideal {
            check_len(ideal.discounts().len(), n)?;
        }
        let mut ctx = BuildCtx {
            ops: Vec::new(),
            ndcg_slots: 0,
            inf_templates: Vec::new(),
            need_discounts: false,
        };
        let root = build(criterion, n, &mut ctx, pre)?;
        let discounts = match pre.ideal {
            _ if !ctx.need_discounts => Cow::Owned(Vec::new()),
            Some(ideal) => Cow::Borrowed(ideal.discounts()),
            None => Cow::Owned(Discount::Log2.table(n)),
        };
        let abandonable = node_abandonable(&root);
        let abandon_slack = match &root {
            Node::Weighted(_) if abandonable => {
                // covers rounding when combining part bounds and when
                // the reference combines part objectives; magnitudes
                // are capped by node_magnitude
                64.0 * f64::EPSILON * (node_magnitude(&root, n) + 1.0)
            }
            _ => 0.0,
        };
        Ok(CriterionPlan {
            n,
            root,
            ops: ctx.ops,
            discounts,
            ndcg_slots: ctx.ndcg_slots,
            inf_templates: ctx.inf_templates,
            abandonable,
            abandon_slack,
        })
    }

    /// Ranking length this plan was compiled for.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// True when the objective is exactly the Kendall tau distance to
    /// the centre — then `Σ code` substitutes for decoding the sample.
    pub(crate) fn is_kendall_only(&self) -> bool {
        matches!(self.root, Node::Kendall)
    }

    /// Pre-decode abandon test: with nothing scanned yet, every
    /// accumulator is zero and the objective lower bound is a pure
    /// function of the plan constants and the sample's already-known
    /// Kendall term (`Σ code`). True means the sample provably cannot
    /// beat `best_obj` and need not even be decoded.
    pub(crate) fn abandons_predecode(&self, code_total: u64, best_obj: Option<f64>) -> bool {
        let Some(best) = best_obj else { return false };
        if !self.abandonable {
            return false;
        }
        let bound = bound_at_zero(&self.root, self, code_total);
        bound - self.abandon_slack >= best
    }
}

fn check_len(expected: usize, got: usize) -> Result<()> {
    if expected != got {
        return Err(FairMallowsError::CriterionShape { expected, got });
    }
    Ok(())
}

fn build<'c>(
    criterion: &'c Criterion,
    n: usize,
    ctx: &mut BuildCtx<'c>,
    pre: Precomputed<'_>,
) -> Result<Node> {
    match criterion {
        Criterion::FirstSample => Ok(Node::First),
        Criterion::MaxNdcg(scores) => {
            check_len(scores.len(), n)?;
            let idcg = match pre.ideal {
                Some(ideal) => {
                    debug_assert_eq!(ideal.idcg().to_bits(), quality::idcg(scores).to_bits());
                    ideal.idcg()
                }
                None => quality::idcg(scores),
            };
            let slot = ctx.ndcg_slots;
            ctx.ndcg_slots += 1;
            if idcg != 0.0 {
                // all-zero-score parts are the constant −1 and skip
                // the scan entirely, like the reference short-circuit
                ctx.need_discounts = true;
                ctx.ops.push(ScanOp::Ndcg { scores, slot });
            }
            let pos_sum = scores.iter().map(|s| s.max(0.0)).sum();
            let abs_sum: f64 = scores.iter().map(|s| s.abs()).sum();
            // recursive-summation error over n terms of magnitude
            // ≤ abs_sum is below n·ε·abs_sum; 8n + 64 leaves a wide
            // margin for the handful of bound-side operations
            let slack = (8.0 * n as f64 + 64.0) * f64::EPSILON * abs_sum;
            Ok(Node::Ndcg {
                idcg,
                pos_sum,
                slack,
                slot,
            })
        }
        Criterion::MinKendallTau => Ok(Node::Kendall),
        Criterion::MinInfeasibleIndex { groups, bounds } => {
            check_len(groups.len(), n)?;
            if bounds.num_groups() != groups.num_groups() {
                return Err(FairMallowsError::Fairness(
                    FairnessError::BoundsShapeMismatch {
                        got: bounds.num_groups(),
                        expected: groups.num_groups(),
                    },
                ));
            }
            let slot = ctx.inf_templates.len();
            ctx.inf_templates.push(match pre.infeasible {
                Some(compiled) => {
                    check_len(compiled.n(), n)?;
                    debug_assert_eq!(compiled.steps(), &bounds.steps(n));
                    compiled.clone()
                }
                None => CompiledInfeasible::compile(bounds, n),
            });
            ctx.ops.push(ScanOp::Infeasible {
                ids: groups.as_slice(),
                slot,
            });
            Ok(Node::Infeasible { slot })
        }
        Criterion::Weighted(parts) => {
            let mut built = Vec::with_capacity(parts.len());
            for (w, c) in parts {
                // same per-part normalizers as Criterion::objective
                let norm = match c {
                    Criterion::MinKendallTau => distance::max_kendall_tau(n).max(1) as f64,
                    Criterion::MinInfeasibleIndex { .. } => (2 * n.max(1)) as f64,
                    _ => 1.0,
                };
                built.push((*w, norm, build(c, n, ctx, Precomputed::default())?));
            }
            Ok(Node::Weighted(built))
        }
    }
}

/// Whether a node's [`node_bound`] is a true lower bound of its final
/// objective. NDCG needs a positive (or zero) ideal DCG — a negative
/// normalizer flips the bound direction; weighted parts need
/// non-negative weights to preserve the inequality.
fn node_abandonable(node: &Node) -> bool {
    match node {
        Node::First | Node::Kendall | Node::Infeasible { .. } => true,
        Node::Ndcg { idcg, .. } => *idcg >= 0.0,
        Node::Weighted(parts) => parts
            .iter()
            .all(|(w, _, c)| *w >= 0.0 && node_abandonable(c)),
    }
}

/// A cap on the magnitude of a node's objective (and of any bound the
/// kernel computes for it) — feeds the weighted-combination slack.
fn node_magnitude(node: &Node, n: usize) -> f64 {
    match node {
        Node::First => 0.0,
        Node::Kendall => distance::max_kendall_tau(n) as f64,
        Node::Ndcg {
            idcg,
            pos_sum,
            slack,
            ..
        } => {
            if *idcg == 0.0 {
                1.0
            } else {
                // |−dcg/idcg| ≤ (Σ|s| + slack)/|idcg|; pos_sum ≤ Σ|s|
                // and the full abs sum is recoverable from the slack
                // constant, but a generous multiple of pos_sum + 1
                // suffices because slack ≪ 1 relative terms
                3.0 * (pos_sum + slack) / idcg.abs() + 1.0
            }
        }
        Node::Infeasible { .. } => (2 * n) as f64,
        Node::Weighted(parts) => parts
            .iter()
            .map(|(w, norm, c)| w.abs() * node_magnitude(c, n) / norm)
            .sum(),
    }
}

/// Objective lower bound at prefix 0 (nothing scanned): plan constants
/// plus the exact Kendall term.
fn bound_at_zero(node: &Node, plan: &CriterionPlan<'_>, code_total: u64) -> f64 {
    match node {
        Node::First => 0.0,
        Node::Kendall => code_total as f64,
        Node::Ndcg {
            idcg,
            pos_sum,
            slack,
            ..
        } => {
            if *idcg == 0.0 {
                -1.0
            } else {
                let disc = plan.discounts.first().copied().unwrap_or(0.0);
                -((disc * pos_sum + slack) / idcg)
            }
        }
        Node::Infeasible { .. } => 0.0,
        Node::Weighted(parts) => parts
            .iter()
            .map(|(w, norm, c)| w * (bound_at_zero(c, plan, code_total) / norm))
            .sum(),
    }
}

/// NDCG accumulator state for one plan slot.
#[derive(Clone, Copy, Default)]
struct NdcgAcc {
    /// The running DCG — term by term identical to the reference sum.
    acc: f64,
    /// `Σ max(sᵢ, 0)` over placed items, for the remaining-gain bound.
    placed_pos: f64,
}

/// Per-thread mutable scratch for one [`CriterionPlan`].
pub(crate) struct CriterionKernel {
    ndcg: Vec<NdcgAcc>,
    inf: Vec<CompiledInfeasible>,
}

impl CriterionKernel {
    pub(crate) fn new(plan: &CriterionPlan<'_>) -> CriterionKernel {
        CriterionKernel {
            ndcg: vec![NdcgAcc::default(); plan.ndcg_slots],
            inf: plan.inf_templates.clone(),
        }
    }

    /// Evaluate one decoded sample.
    ///
    /// Returns `Some(objective)` — bit-identical to
    /// [`Criterion::objective`] — or `None` when `best_obj` is given
    /// and the sample was proven unable to satisfy `obj < best_obj`
    /// (exact early abandon; the sample cannot be the winner).
    ///
    /// `code_total`, when available, is the sample's exact Kendall tau
    /// distance to the centre read off its insertion code.
    pub(crate) fn evaluate(
        &mut self,
        plan: &CriterionPlan<'_>,
        sample: &Permutation,
        center: &Permutation,
        code_total: Option<u64>,
        best_obj: Option<f64>,
    ) -> Option<f64> {
        for acc in &mut self.ndcg {
            *acc = NdcgAcc::default();
        }
        for kernel in &mut self.inf {
            kernel.begin();
        }
        let order = sample.as_order();
        let n = order.len();
        let abandoning = plan.abandonable && best_obj.is_some();
        let interval = check_interval(n);
        let mut i = 0usize;
        while i < n {
            let stop = (i + interval).min(n);
            for (idx, &item) in order[i..stop].iter().enumerate().map(|(o, it)| (i + o, it)) {
                for op in &plan.ops {
                    match op {
                        ScanOp::Ndcg { scores, slot } => {
                            let s = scores[item];
                            let acc = &mut self.ndcg[*slot];
                            acc.acc += s * plan.discounts[idx];
                            acc.placed_pos += s.max(0.0);
                        }
                        ScanOp::Infeasible { ids, slot } => self.inf[*slot].place(ids[item]),
                    }
                }
            }
            i = stop;
            if abandoning && i < n {
                let best = best_obj.expect("abandoning implies a best");
                let bound = self.node_bound(&plan.root, plan, code_total, i);
                if bound - plan.abandon_slack >= best {
                    return None;
                }
            }
        }
        Some(self.final_objective(&plan.root, sample, center, code_total))
    }

    /// Proven lower bound of the final objective after `placed`
    /// positions have been scanned.
    ///
    /// Floating-point safety: for NDCG the remaining-gain cap is
    /// inflated by the plan's per-part slack, and correctly-rounded
    /// division by a positive IDCG is monotone, so the computed bound
    /// never exceeds the objective the full scan would compute. The
    /// integer parts (Kendall, infeasible) are exact. Weighted
    /// combinations add `plan.abandon_slack` at the comparison.
    fn node_bound(
        &self,
        node: &Node,
        plan: &CriterionPlan<'_>,
        code_total: Option<u64>,
        placed: usize,
    ) -> f64 {
        match node {
            Node::First => 0.0,
            Node::Kendall => match code_total {
                Some(d) => d as f64,
                // unknown distance: an always-valid (useless) bound —
                // only reachable through test harnesses, never the
                // streaming loop
                None => f64::NEG_INFINITY,
            },
            Node::Ndcg {
                idcg,
                pos_sum,
                slack,
                slot,
            } => {
                if *idcg == 0.0 {
                    return -1.0;
                }
                let acc = &self.ndcg[*slot];
                // every remaining position pays at most the next
                // discount, and only positive scores can add gain
                let disc = plan.discounts.get(placed).copied().unwrap_or(0.0);
                let remaining = (pos_sum - acc.placed_pos).max(0.0);
                -((acc.acc + disc * remaining + slack) / idcg)
            }
            Node::Infeasible { slot } => self.inf[*slot].total() as f64,
            Node::Weighted(parts) => parts
                .iter()
                .map(|(w, norm, c)| w * (self.node_bound(c, plan, code_total, placed) / norm))
                .sum(),
        }
    }

    /// The exact objective after a full scan — op for op the reference
    /// [`Criterion::objective`] expression over the accumulated state.
    fn final_objective(
        &self,
        node: &Node,
        sample: &Permutation,
        center: &Permutation,
        code_total: Option<u64>,
    ) -> f64 {
        match node {
            Node::First => 0.0,
            Node::Ndcg { idcg, slot, .. } => {
                if *idcg == 0.0 {
                    -1.0
                } else {
                    -(self.ndcg[*slot].acc / idcg)
                }
            }
            Node::Kendall => match code_total {
                Some(d) => d as f64,
                None => distance::kendall_tau(sample, center)
                    .expect("sample and centre share a length") as f64,
            },
            Node::Infeasible { slot } => self.inf[*slot].total() as f64,
            Node::Weighted(parts) => {
                let mut total = 0.0;
                for (w, norm, part) in parts {
                    total += *w * (self.final_objective(part, sample, center, code_total) / *norm);
                }
                total
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairness_metrics::{FairnessBounds, GroupAssignment};
    use mallows_model::MallowsModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scores(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 - i as f64 / n as f64).collect()
    }

    #[test]
    fn compiled_kernel_is_bit_identical_to_reference_objective() {
        let groups = GroupAssignment::binary_split(12, 6);
        let bounds = FairnessBounds::from_assignment(&groups);
        let s = scores(12);
        let criteria = [
            Criterion::MaxNdcg(s.clone()),
            Criterion::MinKendallTau,
            Criterion::MinInfeasibleIndex {
                groups: groups.clone(),
                bounds: bounds.clone(),
            },
            Criterion::Weighted(vec![
                (0.7, Criterion::MaxNdcg(s.clone())),
                (0.3, Criterion::MinInfeasibleIndex { groups, bounds }),
                (0.5, Criterion::MinKendallTau),
            ]),
        ];
        let center = Permutation::sorted_by_scores_desc(&s);
        let model = MallowsModel::new(center.clone(), 0.6).unwrap();
        for criterion in &criteria {
            let plan = CriterionPlan::compile(criterion, 12, Precomputed::default()).unwrap();
            let mut kernel = CriterionKernel::new(&plan);
            let mut rng = StdRng::seed_from_u64(13);
            for _ in 0..25 {
                let sample = model.sample(&mut rng);
                let fast = kernel
                    .evaluate(&plan, &sample, &center, None, None)
                    .expect("no abandon without a best");
                let reference = criterion.objective_value(&sample, &center).unwrap();
                assert_eq!(fast, reference);
            }
        }
    }

    #[test]
    fn abandon_never_drops_a_potential_winner() {
        // feed the kernel a descending best and verify every abandoned
        // sample's true objective really is ≥ the best at that moment
        let groups = GroupAssignment::new(vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 3], 4).unwrap();
        let bounds = FairnessBounds::from_assignment(&groups);
        let s = scores(10);
        let criterion = Criterion::Weighted(vec![
            (0.6, Criterion::MaxNdcg(s.clone())),
            (0.4, Criterion::MinInfeasibleIndex { groups, bounds }),
        ]);
        let center = Permutation::sorted_by_scores_desc(&s);
        let plan = CriterionPlan::compile(&criterion, 10, Precomputed::default()).unwrap();
        assert!(plan.abandonable);
        let mut kernel = CriterionKernel::new(&plan);
        let model = MallowsModel::new(center.clone(), 0.4).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let mut best = f64::INFINITY;
        let mut abandoned = 0;
        for _ in 0..200 {
            let sample = model.sample(&mut rng);
            let reference = criterion.objective_value(&sample, &center).unwrap();
            match kernel.evaluate(&plan, &sample, &center, None, Some(best)) {
                Some(obj) => {
                    assert_eq!(obj, reference);
                    if obj < best {
                        best = obj;
                    }
                }
                None => {
                    abandoned += 1;
                    assert!(
                        reference >= best,
                        "abandoned a sample with obj {reference} < best {best}"
                    );
                }
            }
        }
        assert!(abandoned > 0, "tight best should abandon something");
    }

    #[test]
    fn negative_weights_disable_abandoning() {
        let criterion = Criterion::Weighted(vec![(-1.0, Criterion::MinKendallTau)]);
        let plan = CriterionPlan::compile(&criterion, 6, Precomputed::default()).unwrap();
        assert!(!plan.abandonable);
        assert!(!plan.abandons_predecode(100, Some(-100.0)));
    }

    #[test]
    fn predecode_abandon_uses_the_exact_kendall_term() {
        let criterion = Criterion::Weighted(vec![(1.0, Criterion::MinKendallTau)]);
        let plan = CriterionPlan::compile(&criterion, 10, Precomputed::default()).unwrap();
        let norm = distance::max_kendall_tau(10) as f64;
        // best = 8/45: a code total of 9 cannot win, 7 still can
        assert!(plan.abandons_predecode(9, Some(8.0 / norm)));
        assert!(!plan.abandons_predecode(7, Some(8.0 / norm)));
        assert!(!plan.abandons_predecode(9, None));
    }
}
