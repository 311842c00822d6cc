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
//! one across its worker threads and the pipelined loop with its
//! evaluating thread; each thread owns a small [`CriterionKernel`]
//! scratch.
//!
//! Samples reach the kernel as rows of **centre ranks** (the decoder's
//! output, [`ranking_core::lehmer::decode_ranks_into`]), not item ids:
//! the plan gathers every per-item column it scans — NDCG gains and
//! group ids — in centre order once (`gain_c[r] = scores[centre[r]]`),
//! so a sample near the centre reads its columns almost sequentially.
//! The scan walks each check interval once per column with a local
//! accumulator, so no per-element dispatch over the criterion remains.
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

/// One scanned column, gathered in centre order (index = centre
/// rank), flattened so the scan is a short list of slice walks instead
/// of a tree recursion.
enum ScanOp {
    /// `acc[slot] += gains[rank] * discounts[idx]` (+ positive-gain
    /// tracking for the abandon bound).
    Ndcg { gains: Vec<f64>, slot: usize },
    /// Feed the rank's group id to the compiled infeasible kernel.
    Infeasible { groups: Vec<u32>, slot: usize },
}

/// A [`Criterion`] compiled for rankings of `n` items. Immutable;
/// build once per rank call, share by reference across threads.
pub(crate) struct CriterionPlan<'c> {
    n: usize,
    root: Node,
    ops: Vec<ScanOp>,
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

struct BuildCtx<'a> {
    /// The centre the scanned rank rows are relative to.
    center: &'a [usize],
    ops: Vec<ScanOp>,
    ndcg_slots: usize,
    inf_templates: Vec<CompiledInfeasible>,
    need_discounts: bool,
}

impl<'c> CriterionPlan<'c> {
    /// Compile `criterion` for rank rows relative to `center` (rankings
    /// of `center.len()` items), validating every shape up front (the
    /// reference path re-validated per sample).
    pub(crate) fn compile(
        criterion: &Criterion,
        center: &Permutation,
        pre: Precomputed<'c>,
    ) -> Result<CriterionPlan<'c>> {
        let n = center.len();
        if let Some(ideal) = pre.ideal {
            check_len(ideal.discounts().len(), n)?;
        }
        let mut ctx = BuildCtx {
            center: center.as_order(),
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

fn build(
    criterion: &Criterion,
    n: usize,
    ctx: &mut BuildCtx<'_>,
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
                let gains = ctx.center.iter().map(|&item| scores[item]).collect();
                ctx.ops.push(ScanOp::Ndcg { gains, slot });
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
            let ids = groups.as_slice();
            let groups = ctx
                .center
                .iter()
                .map(|&item| {
                    // group ids index per-group arrays, so they are
                    // far below u32::MAX in any assignment that fits
                    // memory; refuse rather than truncate
                    u32::try_from(ids[item]).map_err(|_| FairMallowsError::CriterionShape {
                        expected: u32::MAX as usize,
                        got: ids[item],
                    })
                })
                .collect::<Result<_>>()?;
            ctx.ops.push(ScanOp::Infeasible { groups, slot });
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

    /// Evaluate one decoded sample, given as its row of centre ranks
    /// (at least `plan.n()` entries; only the first `n` are read) and
    /// its exact Kendall tau distance to the centre, `code_total`.
    ///
    /// Returns `Some(objective)` — bit-identical to
    /// [`Criterion::objective`] of the sample's item order — or `None`
    /// when `best_obj` is given and the sample was proven unable to
    /// satisfy `obj < best_obj` (exact early abandon; the sample cannot
    /// be the winner).
    pub(crate) fn evaluate(
        &mut self,
        plan: &CriterionPlan<'_>,
        ranks: &[u32],
        code_total: u64,
        best_obj: Option<f64>,
    ) -> Option<f64> {
        for acc in &mut self.ndcg {
            *acc = NdcgAcc::default();
        }
        for kernel in &mut self.inf {
            kernel.begin();
        }
        let n = plan.n;
        let ranks = &ranks[..n];
        let abandoning = plan.abandonable && best_obj.is_some();
        let interval = check_interval(n);
        let mut i = 0usize;
        while i < n {
            let stop = (i + interval).min(n);
            let block = &ranks[i..stop];
            // one column at a time: each accumulator still adds its
            // terms in position order, so the sums are the reference's
            for op in &plan.ops {
                match op {
                    ScanOp::Ndcg { gains, slot } => {
                        let acc = &mut self.ndcg[*slot];
                        let (mut dcg, mut placed_pos) = (acc.acc, acc.placed_pos);
                        for (&rank, &disc) in block.iter().zip(&plan.discounts[i..stop]) {
                            let gain = gains[rank as usize];
                            dcg += gain * disc;
                            placed_pos += gain.max(0.0);
                        }
                        *acc = NdcgAcc {
                            acc: dcg,
                            placed_pos,
                        };
                    }
                    ScanOp::Infeasible { groups, slot } => {
                        let kernel = &mut self.inf[*slot];
                        for &rank in block {
                            kernel.place(groups[rank as usize] as usize);
                        }
                    }
                }
            }
            i = stop;
            if let (true, Some(best)) = (abandoning && i < n, best_obj) {
                let bound = self.node_bound(&plan.root, plan, code_total, i);
                if bound - plan.abandon_slack >= best {
                    return None;
                }
            }
        }
        Some(self.final_objective(&plan.root, code_total))
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
        code_total: u64,
        placed: usize,
    ) -> f64 {
        match node {
            Node::First => 0.0,
            Node::Kendall => code_total as f64,
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
    fn final_objective(&self, node: &Node, code_total: u64) -> f64 {
        match node {
            Node::First => 0.0,
            Node::Ndcg { idcg, slot, .. } => {
                if *idcg == 0.0 {
                    -1.0
                } else {
                    -(self.ndcg[*slot].acc / idcg)
                }
            }
            Node::Kendall => code_total as f64,
            Node::Infeasible { slot } => self.inf[*slot].total() as f64,
            Node::Weighted(parts) => {
                let mut total = 0.0;
                for (w, norm, part) in parts {
                    total += *w * (self.final_objective(part, code_total) / *norm);
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
    use mallows_model::SamplerTables;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ranking_core::lehmer::{self, DecodeScratch};

    fn scores(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 - i as f64 / n as f64).collect()
    }

    /// Draws Mallows samples around a centre as the kernel sees them:
    /// a rank row plus its code total, and the item order the
    /// reference objective scores.
    struct Draws {
        center: Permutation,
        tables: SamplerTables,
        rng: StdRng,
        code: Vec<u32>,
        scratch: DecodeScratch,
        ranks: Vec<u32>,
    }

    impl Draws {
        fn new(center: Permutation, theta: f64, seed: u64) -> Draws {
            let tables = SamplerTables::new(center.len(), theta).unwrap();
            Draws {
                center,
                tables,
                rng: StdRng::seed_from_u64(seed),
                code: Vec::new(),
                scratch: DecodeScratch::new(),
                ranks: Vec::new(),
            }
        }

        fn next(&mut self) -> (u64, Permutation) {
            let n = self.center.len();
            self.tables
                .sample_code_into(n, &mut self.code, &mut self.rng);
            let total = self.code.iter().map(|&v| u64::from(v)).sum();
            lehmer::decode_ranks_into(&self.code, total, &mut self.scratch, &mut self.ranks);
            let order = self.ranks[..n]
                .iter()
                .map(|&r| self.center.item_at(r as usize))
                .collect();
            (total, Permutation::from_order(order).unwrap())
        }
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
        // a centre that is not the score order, so the gathered
        // columns differ from the item-indexed ones
        let center = Permutation::from_order(vec![3, 0, 11, 5, 1, 8, 2, 10, 4, 9, 6, 7]).unwrap();
        for criterion in &criteria {
            let plan = CriterionPlan::compile(criterion, &center, Precomputed::default()).unwrap();
            let mut kernel = CriterionKernel::new(&plan);
            let mut draws = Draws::new(center.clone(), 0.6, 13);
            for _ in 0..25 {
                let (total, sample) = draws.next();
                let fast = kernel
                    .evaluate(&plan, &draws.ranks, total, None)
                    .expect("no abandon without a best");
                let reference = criterion.objective_value(&sample, &center).unwrap();
                assert_eq!(fast.to_bits(), reference.to_bits());
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
        let plan = CriterionPlan::compile(&criterion, &center, Precomputed::default()).unwrap();
        assert!(plan.abandonable);
        let mut kernel = CriterionKernel::new(&plan);
        let mut draws = Draws::new(center.clone(), 0.4, 77);
        let mut best = f64::INFINITY;
        let mut abandoned = 0;
        for _ in 0..200 {
            let (total, sample) = draws.next();
            let reference = criterion.objective_value(&sample, &center).unwrap();
            match kernel.evaluate(&plan, &draws.ranks, total, Some(best)) {
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
        let center = Permutation::identity(6);
        let plan = CriterionPlan::compile(&criterion, &center, Precomputed::default()).unwrap();
        assert!(!plan.abandonable);
        assert!(!plan.abandons_predecode(100, Some(-100.0)));
    }

    #[test]
    fn predecode_abandon_uses_the_exact_kendall_term() {
        let criterion = Criterion::Weighted(vec![(1.0, Criterion::MinKendallTau)]);
        let center = Permutation::identity(10);
        let plan = CriterionPlan::compile(&criterion, &center, Precomputed::default()).unwrap();
        let norm = distance::max_kendall_tau(10) as f64;
        // best = 8/45: a code total of 9 cannot win, 7 still can
        assert!(plan.abandons_predecode(9, Some(8.0 / norm)));
        assert!(!plan.abandons_predecode(7, Some(8.0 / norm)));
        assert!(!plan.abandons_predecode(9, None));
    }
}
