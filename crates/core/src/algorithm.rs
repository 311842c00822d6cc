//! Algorithm 1: fair ranking through Mallows noise.
//!
//! The sampling loop is the hottest path of the serving engine, so
//! [`MallowsFairRanker::rank`] streams samples through the selection
//! criterion instead of materializing them, in two stages that keep
//! the stream order:
//!
//! * **draw** — the calling thread, the only user of the RNG, draws
//!   each sample's insertion code (`u32`) and its total `Σ code`, the
//!   sample's exact Kendall tau distance to the centre;
//! * **evaluate** — in draw order, a sample whose pre-decode bound
//!   already loses is dropped; the rest are decoded into rows of
//!   centre ranks and scanned against the plan's centre-ordered
//!   columns, with the exact early-abandon thresholds of the best so
//!   far. Only the winner's row is mapped back to item ids.
//!
//! Decoding and scoring never feed back into the draw, so with a
//! thread budget of two or more, wide enough rankings and enough
//! samples, the evaluate stage runs on one scoped helper thread while
//! the caller keeps drawing. Otherwise it runs inline through the same
//! functions. Either way the winner, its tie-breaks, its objective
//! bits and the abandon count are those of one sequential pass.

use crate::kernel::{CriterionKernel, CriterionPlan, Precomputed};
use crate::{FairMallowsError, Result};
use fairness_metrics::{infeasible, FairnessBounds, GroupAssignment};
use mallows_model::tables::{RimSampler, SamplerTables};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranking_core::lehmer::{self, DecodeScratch};
use ranking_core::{distance, quality, Permutation};
use std::sync::mpsc;
use std::sync::Arc;

/// Shortest ranking whose evaluate stage moves to a helper thread when
/// the thread budget allows.
pub const PIPELINE_MIN_N: usize = 4096;

/// Fewest stage values (`n × m`) worth a helper thread. Starting and
/// joining one costs tens of microseconds, and a pipeline saves about
/// one stage's time per sample after the first: on a 2-vCPU host the
/// two paths broke even near 4 samples of 4096 items and 2 of 10⁴.
const PIPELINE_MIN_WORK: usize = 4 * PIPELINE_MIN_N;

/// Code buffers in flight between the drawing and the evaluating
/// thread: one being evaluated, one being drawn.
const PIPELINE_DEPTH: usize = 2;

/// Selection criterion for choosing among the `m` Mallows samples
/// (Algorithm 1, line 8: `choose_ranking(c, samples)`).
#[derive(Debug, Clone)]
pub enum Criterion {
    /// Keep the first sample — pure randomization (`m` is effectively 1).
    FirstSample,
    /// Keep the sample with the highest NDCG against these quality
    /// scores (indexed by item id).
    MaxNdcg(Vec<f64>),
    /// Keep the sample closest to the centre in Kendall tau distance.
    MinKendallTau,
    /// Keep the sample with the smallest two-sided infeasible index
    /// w.r.t. *known* groups. (The robustness story of the paper is that
    /// even [`Criterion::FirstSample`] helps unknown groups; this
    /// criterion additionally exploits whatever attributes are known.)
    MinInfeasibleIndex {
        /// Known group assignment.
        groups: GroupAssignment,
        /// Bounds the infeasible index is measured against.
        bounds: FairnessBounds,
    },
    /// Weighted combination of sub-criteria, each normalized to `[0, 1]`
    /// before weighting so the weights are comparable across units
    /// (NDCG is already in `[0, 1]`; Kendall tau is divided by
    /// `n(n−1)/2`; the infeasible index by `2n`). Lower is better.
    Weighted(Vec<(f64, Criterion)>),
}

impl Criterion {
    /// Lower-is-better objective value of one sample. NDCG is negated so
    /// that all criteria minimize.
    fn objective(&self, sample: &Permutation, center: &Permutation) -> Result<f64> {
        match self {
            Criterion::FirstSample => Ok(0.0),
            Criterion::MaxNdcg(scores) => Ok(-quality::ndcg(sample, scores).map_err(|_| {
                FairMallowsError::CriterionShape {
                    expected: scores.len(),
                    got: sample.len(),
                }
            })?),
            Criterion::MinKendallTau => Ok(distance::kendall_tau(sample, center)
                .expect("sample and centre share a length")
                as f64),
            Criterion::MinInfeasibleIndex { groups, bounds } => {
                Ok(infeasible::two_sided_infeasible_index(sample, groups, bounds)? as f64)
            }
            Criterion::Weighted(parts) => {
                let n = sample.len();
                let mut total = 0.0;
                for (w, c) in parts {
                    let raw = c.objective(sample, center)?;
                    let normalized = match c {
                        // MaxNdcg objectives are −NDCG ∈ [−1, 0]
                        Criterion::MaxNdcg(_) | Criterion::FirstSample => raw,
                        Criterion::MinKendallTau => {
                            raw / (distance::max_kendall_tau(n).max(1) as f64)
                        }
                        Criterion::MinInfeasibleIndex { .. } => raw / (2 * n.max(1)) as f64,
                        Criterion::Weighted(_) => raw, // nested: already normalized
                    };
                    total += w * normalized;
                }
                Ok(total)
            }
        }
    }

    /// The reported criterion value (NDCG un-negated for readability).
    fn report(&self, objective: f64) -> f64 {
        match self {
            Criterion::MaxNdcg(_) => -objective,
            _ => objective,
        }
    }

    /// Crate-internal access to the minimized objective (used by the
    /// generic noise-model ranker).
    #[doc(hidden)]
    pub fn objective_value(&self, sample: &Permutation, center: &Permutation) -> Result<f64> {
        self.objective(sample, center)
    }

    /// Crate-internal access to the reported value transform.
    pub(crate) fn report_value(&self, objective: f64) -> f64 {
        self.report(objective)
    }

    fn check_shape(&self, n: usize) -> Result<()> {
        match self {
            Criterion::MaxNdcg(scores) if scores.len() != n => {
                Err(FairMallowsError::CriterionShape {
                    expected: scores.len(),
                    got: n,
                })
            }
            Criterion::MinInfeasibleIndex { groups, .. } if groups.len() != n => {
                Err(FairMallowsError::CriterionShape {
                    expected: groups.len(),
                    got: n,
                })
            }
            Criterion::Weighted(parts) => {
                for (_, c) in parts {
                    c.check_shape(n)?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// Output of one [`MallowsFairRanker::rank`] call.
#[derive(Debug, Clone)]
pub struct RankOutput {
    /// The selected ranking.
    pub ranking: Permutation,
    /// Number of Mallows samples drawn.
    pub samples_drawn: usize,
    /// Criterion value of the winner (NDCG for [`Criterion::MaxNdcg`],
    /// Kendall tau distance for [`Criterion::MinKendallTau`], infeasible
    /// index for [`Criterion::MinInfeasibleIndex`], 0 for
    /// [`Criterion::FirstSample`]).
    pub criterion_value: f64,
    /// Samples dropped by the exact early-abandon bound before their
    /// full evaluation (they were proven unable to beat the best
    /// objective so far — the winner is unaffected). Surfaced by the
    /// serving engine as `criterion_samples_abandoned`.
    pub samples_abandoned: u64,
}

/// The paper's Algorithm 1: sample `m` rankings from `M(π₀, θ)` and keep
/// the best under a [`Criterion`].
#[derive(Debug, Clone)]
pub struct MallowsFairRanker {
    theta: f64,
    num_samples: usize,
    criterion: Criterion,
}

impl MallowsFairRanker {
    /// Create a ranker with dispersion `θ ≥ 0`, `m ≥ 1` samples and a
    /// selection criterion.
    pub fn new(theta: f64, num_samples: usize, criterion: Criterion) -> Result<Self> {
        if num_samples == 0 {
            return Err(FairMallowsError::NoSamples);
        }
        if !theta.is_finite() || theta < 0.0 {
            return Err(FairMallowsError::Mallows(
                mallows_model::MallowsError::InvalidTheta { theta },
            ));
        }
        Ok(MallowsFairRanker {
            theta,
            num_samples,
            criterion,
        })
    }

    /// Dispersion parameter θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Number of samples `m`.
    pub fn num_samples(&self) -> usize {
        self.num_samples
    }

    /// Run Algorithm 1 around the given centre.
    ///
    /// Draws `m` samples from `M(center, θ)` and returns the best under
    /// the criterion (with [`Criterion::FirstSample`] only one sample is
    /// drawn regardless of `m`). Samples stream through the criterion
    /// one at a time — nothing but the current candidate and the best
    /// so far is ever held, and after warm-up the loop allocates
    /// nothing.
    pub fn rank<R: Rng + ?Sized>(&self, center: &Permutation, rng: &mut R) -> Result<RankOutput> {
        let tables = Arc::new(SamplerTables::new(center.len(), self.theta)?);
        self.rank_with_tables(center, &tables, rng)
    }

    /// [`MallowsFairRanker::rank`] against a shared, possibly cached
    /// [`SamplerTables`] — the serving engine reuses one table across
    /// every request with the same `(n, θ)`.
    ///
    /// The table must have been built for this ranker's `θ` and for at
    /// least `center.len()` items.
    ///
    /// ```
    /// use fair_mallows::{Criterion, MallowsFairRanker};
    /// use mallows_model::tables::SamplerTables;
    /// use ranking_core::Permutation;
    /// use rand::{rngs::StdRng, SeedableRng};
    /// use std::sync::Arc;
    ///
    /// let ranker = MallowsFairRanker::new(1.0, 5, Criterion::MinKendallTau).unwrap();
    /// let tables = Arc::new(SamplerTables::new(12, 1.0).unwrap());
    /// let out = ranker
    ///     .rank_with_tables(&Permutation::identity(12), &tables, &mut StdRng::seed_from_u64(3))
    ///     .unwrap();
    /// assert_eq!(out.ranking.len(), 12);
    /// ```
    pub fn rank_with_tables<R: Rng + ?Sized>(
        &self,
        center: &Permutation,
        tables: &Arc<SamplerTables>,
        rng: &mut R,
    ) -> Result<RankOutput> {
        self.rank_precomputed(center, tables, Precomputed::default(), 1, rng)
    }

    /// [`MallowsFairRanker::rank_with_tables`] reusing constants the
    /// caller already derived for the criterion (see [`Precomputed`]),
    /// with a thread budget: at `threads ≥ 2` a ranking of at least
    /// [`PIPELINE_MIN_N`] items with enough samples (`n × m ≥ 4 ×
    /// PIPELINE_MIN_N`, `m ≥ 2`) is decoded and scored on a helper
    /// thread while this one draws (see the module docs). The result
    /// does not depend on `threads`.
    pub fn rank_precomputed<R: Rng + ?Sized>(
        &self,
        center: &Permutation,
        tables: &Arc<SamplerTables>,
        pre: Precomputed<'_>,
        threads: usize,
        rng: &mut R,
    ) -> Result<RankOutput> {
        let m = match self.criterion {
            Criterion::FirstSample => 1,
            _ => self.num_samples,
        };
        let plan = CriterionPlan::compile(&self.criterion, center, pre)?;
        let (obj, ranks, abandoned) = self.rank_streaming(tables, &plan, m, threads, rng)?;
        // free the gathered columns before the winner's item row exists
        drop(plan);
        Ok(RankOutput {
            ranking: items_of(center, &ranks),
            samples_drawn: m,
            criterion_value: self.criterion.report(obj),
            samples_abandoned: abandoned,
        })
    }

    /// The streaming best-of-`m` core: returns the raw (lower-is-
    /// better) objective, the winner's row of centre ranks and the
    /// number of samples dropped by the early-abandon bound.
    ///
    /// Codes are drawn here, on the calling thread, and evaluated in
    /// draw order by a [`Selection`] — on a helper thread when the
    /// budget and the sizes allow it, inline otherwise.
    fn rank_streaming<R: Rng + ?Sized>(
        &self,
        tables: &Arc<SamplerTables>,
        plan: &CriterionPlan<'_>,
        m: usize,
        threads: usize,
        rng: &mut R,
    ) -> Result<(f64, Vec<u32>, u64)> {
        if tables.theta() != self.theta {
            return Err(FairMallowsError::Mallows(
                mallows_model::MallowsError::InvalidTheta {
                    theta: tables.theta(),
                },
            ));
        }
        let n = plan.n();
        if tables.n() < n {
            return Err(FairMallowsError::Mallows(
                mallows_model::MallowsError::LengthMismatch {
                    center: n,
                    other: tables.n(),
                },
            ));
        }
        let mut selection = Selection::new(plan);
        let pipelined = threads >= 2
            && m >= 2
            && n >= PIPELINE_MIN_N
            && n.saturating_mul(m) >= PIPELINE_MIN_WORK
            && draw_pipelined(tables, plan, m, rng, &mut selection);
        if !pipelined {
            let mut code = Vec::with_capacity(n);
            for _ in 0..m {
                let total = draw_code(tables, n, &mut code, rng);
                selection.consume(plan, &code, total);
            }
        }
        debug_assert!(selection.have_best, "m ≥ 1 samples were drawn");
        Ok((selection.best_obj, selection.best, selection.abandoned))
    }

    /// The unabridged scalar reference of the streaming loop: draw,
    /// decode and fully evaluate every sample through
    /// [`Criterion::objective`], no compiled tables, no early abandon,
    /// no blocking — but the identical RNG stream and the identical
    /// strict `obj < best_obj` winner test.
    ///
    /// Property tests and the `criterion_kernels` bench pin
    /// [`MallowsFairRanker::rank_with_tables`] byte-identical to this
    /// path; it is not meant for production use.
    #[doc(hidden)]
    pub fn rank_with_tables_reference<R: Rng + ?Sized>(
        &self,
        center: &Permutation,
        tables: &Arc<SamplerTables>,
        rng: &mut R,
    ) -> Result<RankOutput> {
        self.criterion.check_shape(center.len())?;
        if tables.theta() != self.theta {
            return Err(FairMallowsError::Mallows(
                mallows_model::MallowsError::InvalidTheta {
                    theta: tables.theta(),
                },
            ));
        }
        let m = match self.criterion {
            Criterion::FirstSample => 1,
            _ => self.num_samples,
        };
        let mut sampler = RimSampler::from_tables(center.clone(), Arc::clone(tables))?;
        let mut current = Permutation::identity(0);
        let mut best = Permutation::identity(0);
        let mut best_obj = f64::INFINITY;
        let mut have_best = false;
        for _ in 0..m {
            sampler.sample_code(rng);
            sampler.decode_code_into(&mut current);
            let obj = self.criterion.objective(&current, center)?;
            if !have_best || obj < best_obj {
                std::mem::swap(&mut best, &mut current);
                best_obj = obj;
                have_best = true;
            }
        }
        Ok(RankOutput {
            ranking: best,
            samples_drawn: m,
            criterion_value: self.criterion.report(best_obj),
            samples_abandoned: 0,
        })
    }

    /// Deterministic parallel variant: split the `m` samples into
    /// `batches` independently seeded streams, run the batches on at
    /// most `threads` OS threads, and keep the best winner (ties
    /// broken by lowest batch index).
    ///
    /// The result depends only on `(center, θ, m, criterion,
    /// base_seed, batches)` — never on `threads` or scheduling: the
    /// *logical* batch split defines the RNG streams, the *physical*
    /// thread count only sets how many run at once (each thread owns a
    /// contiguous batch range; winners reduce in batch order). Callers
    /// that already own a thread budget (the serving engine) pass a
    /// `threads` matched to it without changing results. Note the
    /// sample streams differ from the sequential
    /// [`MallowsFairRanker::rank`] for the same seed; the distribution
    /// over outputs is identical.
    pub fn rank_batched(
        &self,
        center: &Permutation,
        tables: &Arc<SamplerTables>,
        base_seed: u64,
        batches: usize,
        threads: usize,
    ) -> Result<RankOutput> {
        self.rank_batched_precomputed(
            center,
            tables,
            Precomputed::default(),
            base_seed,
            batches,
            threads,
        )
    }

    /// [`MallowsFairRanker::rank_batched`] reusing constants the caller
    /// already derived for the criterion (see [`Precomputed`]).
    pub fn rank_batched_precomputed(
        &self,
        center: &Permutation,
        tables: &Arc<SamplerTables>,
        pre: Precomputed<'_>,
        base_seed: u64,
        batches: usize,
        threads: usize,
    ) -> Result<RankOutput> {
        let m = match self.criterion {
            Criterion::FirstSample => 1,
            _ => self.num_samples,
        };
        let batches = batches.clamp(1, m);
        let threads = threads.clamp(1, batches);
        let plan = CriterionPlan::compile(&self.criterion, center, pre)?;
        let plan = &plan;
        let run_batch = |b: usize| {
            // splitmix-style stream separation per batch
            let seed = base_seed.wrapping_add((b as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut rng = StdRng::seed_from_u64(seed);
            let batch_m = m / batches + usize::from(b < m % batches);
            // the batches already share the thread budget: no batch
            // starts a pipeline helper of its own
            self.rank_streaming(tables, plan, batch_m, 1, &mut rng)
        };
        type BatchOutcome = Option<Result<(f64, Vec<u32>, u64)>>;
        let mut outcomes: Vec<BatchOutcome> = Vec::new();
        outcomes.resize_with(batches, || None);
        if threads == 1 {
            for (b, slot) in outcomes.iter_mut().enumerate() {
                *slot = Some(run_batch(b));
            }
        } else {
            let mut chunks: Vec<&mut [BatchOutcome]> = Vec::new();
            let mut rest = outcomes.as_mut_slice();
            // thread t owns a contiguous range of batch indices
            for t in 0..threads {
                let take = batches / threads + usize::from(t < batches % threads);
                let (head, tail) = rest.split_at_mut(take);
                chunks.push(head);
                rest = tail;
            }
            std::thread::scope(|scope| {
                let mut start = 0usize;
                for chunk in chunks {
                    let first = start;
                    start += chunk.len();
                    let run_batch = &run_batch;
                    scope.spawn(move || {
                        for (offset, slot) in chunk.iter_mut().enumerate() {
                            *slot = Some(run_batch(first + offset));
                        }
                    });
                }
            });
        }
        let mut best: Option<(f64, Vec<u32>)> = None;
        let mut abandoned = 0u64;
        for outcome in outcomes {
            let (obj, ranks, batch_abandoned) = outcome.expect("every batch ran")?;
            abandoned += batch_abandoned;
            if best.as_ref().is_none_or(|(b, _)| obj < *b) {
                best = Some((obj, ranks));
            }
        }
        let (obj, ranks) = best.expect("at least one batch ran");
        Ok(RankOutput {
            ranking: items_of(center, &ranks),
            samples_drawn: m,
            criterion_value: self.criterion.report(obj),
            samples_abandoned: abandoned,
        })
    }
}

/// The evaluate stage: everything the selection keeps between samples.
/// All buffers are allocated where it is built, on the drawing thread.
struct Selection {
    kernel: CriterionKernel,
    scratch: DecodeScratch,
    /// The row being scored; a new winner swaps it with `best`.
    ranks: Vec<u32>,
    best: Vec<u32>,
    best_obj: f64,
    have_best: bool,
    abandoned: u64,
}

impl Selection {
    fn new(plan: &CriterionPlan<'_>) -> Selection {
        let row = plan.n() + lehmer::WINDOW;
        Selection {
            kernel: CriterionKernel::new(plan),
            scratch: DecodeScratch::new(),
            ranks: Vec::with_capacity(row),
            best: Vec::with_capacity(row),
            best_obj: f64::INFINITY,
            have_best: false,
            abandoned: 0,
        }
    }

    /// Evaluate the next sample of the stream (its code and `Σ code`)
    /// against the best so far, with the strict `obj < best_obj` winner
    /// test.
    fn consume(&mut self, plan: &CriterionPlan<'_>, code: &[u32], total: u64) {
        let threshold = self.have_best.then_some(self.best_obj);
        if plan.is_kendall_only() {
            // the objective is Σ code: decode only the (rare) winners
            let obj = total as f64;
            if threshold.is_none_or(|best| obj < best) {
                lehmer::decode_ranks_into(code, total, &mut self.scratch, &mut self.best);
                self.best_obj = obj;
                self.have_best = true;
            }
            return;
        }
        if plan.abandons_predecode(total, threshold) {
            self.abandoned += 1;
            return;
        }
        lehmer::decode_ranks_into(code, total, &mut self.scratch, &mut self.ranks);
        match self.kernel.evaluate(plan, &self.ranks, total, threshold) {
            None => self.abandoned += 1,
            Some(obj) => {
                if threshold.is_none_or(|best| obj < best) {
                    std::mem::swap(&mut self.best, &mut self.ranks);
                    self.best_obj = obj;
                    self.have_best = true;
                }
            }
        }
    }
}

/// Draw one insertion code of length `n` into `code`; returns `Σ code`.
fn draw_code<R: Rng + ?Sized>(
    tables: &SamplerTables,
    n: usize,
    code: &mut Vec<u32>,
    rng: &mut R,
) -> u64 {
    tables.sample_code_into(n, code, rng);
    code.iter().map(|&v| u64::from(v)).sum()
}

/// Draw `m` codes on this thread while one scoped helper thread feeds
/// them, in order, to `selection`. [`PIPELINE_DEPTH`] code buffers
/// circulate between the two, so neither allocates after the first
/// round. Returns false, having drawn nothing, when the helper cannot
/// be started; a panic on the helper resumes on this thread.
fn draw_pipelined<R: Rng + ?Sized>(
    tables: &SamplerTables,
    plan: &CriterionPlan<'_>,
    m: usize,
    rng: &mut R,
    selection: &mut Selection,
) -> bool {
    let n = plan.n();
    let (full_tx, full_rx) = mpsc::sync_channel::<(Vec<u32>, u64)>(PIPELINE_DEPTH);
    let (free_tx, free_rx) = mpsc::sync_channel::<Vec<u32>>(PIPELINE_DEPTH);
    std::thread::scope(|scope| {
        let helper = std::thread::Builder::new()
            .name("fairrank-evaluate".to_string())
            .spawn_scoped(scope, move || {
                for (code, total) in full_rx {
                    selection.consume(plan, &code, total);
                    // the drawing side stops receiving after its last draw
                    let _ = free_tx.send(code);
                }
            });
        let Ok(helper) = helper else {
            return false;
        };
        for i in 0..m {
            let mut code = if i < PIPELINE_DEPTH {
                Vec::with_capacity(n)
            } else {
                match free_rx.recv() {
                    Ok(code) => code,
                    // the helper is gone: its panic resumes below
                    Err(_) => break,
                }
            };
            let total = draw_code(tables, n, &mut code, rng);
            if full_tx.send((code, total)).is_err() {
                break;
            }
        }
        drop(full_tx);
        if let Err(panic) = helper.join() {
            std::panic::resume_unwind(panic);
        }
        true
    })
}

/// The winner's row of centre ranks as item ids.
fn items_of(center: &Permutation, ranks: &[u32]) -> Permutation {
    let order = ranks[..center.len()]
        .iter()
        .map(|&r| center.item_at(r as usize))
        .collect();
    Permutation::from_order_unchecked(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mallows_model::MallowsModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scores(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 - i as f64 / n as f64).collect()
    }

    #[test]
    fn zero_samples_rejected() {
        assert_eq!(
            MallowsFairRanker::new(1.0, 0, Criterion::FirstSample).unwrap_err(),
            FairMallowsError::NoSamples
        );
    }

    #[test]
    fn negative_theta_rejected() {
        assert!(MallowsFairRanker::new(-0.5, 1, Criterion::FirstSample).is_err());
    }

    #[test]
    fn first_sample_draws_exactly_one() {
        let r = MallowsFairRanker::new(0.5, 15, Criterion::FirstSample).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let out = r.rank(&Permutation::identity(10), &mut rng).unwrap();
        assert_eq!(out.samples_drawn, 1);
    }

    #[test]
    fn max_ndcg_beats_first_sample_on_average() {
        let s = scores(12);
        let center = Permutation::sorted_by_scores_desc(&s);
        let best_of = MallowsFairRanker::new(0.5, 15, Criterion::MaxNdcg(s.clone())).unwrap();
        let single = MallowsFairRanker::new(0.5, 1, Criterion::FirstSample).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 40;
        let mut ndcg_best = 0.0;
        let mut ndcg_single = 0.0;
        for _ in 0..trials {
            let a = best_of.rank(&center, &mut rng).unwrap();
            let b = single.rank(&center, &mut rng).unwrap();
            ndcg_best += quality::ndcg(&a.ranking, &s).unwrap();
            ndcg_single += quality::ndcg(&b.ranking, &s).unwrap();
        }
        assert!(
            ndcg_best > ndcg_single,
            "best-of-15 NDCG {ndcg_best} should beat single-sample {ndcg_single}"
        );
    }

    #[test]
    fn max_ndcg_reports_the_winner_value() {
        let s = scores(8);
        let center = Permutation::sorted_by_scores_desc(&s);
        let r = MallowsFairRanker::new(1.0, 10, Criterion::MaxNdcg(s.clone())).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let out = r.rank(&center, &mut rng).unwrap();
        let actual = quality::ndcg(&out.ranking, &s).unwrap();
        assert!((out.criterion_value - actual).abs() < 1e-12);
    }

    #[test]
    fn min_kendall_tau_selects_closest() {
        let center = Permutation::identity(10);
        let r = MallowsFairRanker::new(0.3, 25, Criterion::MinKendallTau).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let out = r.rank(&center, &mut rng).unwrap();
        let d = distance::kendall_tau(&out.ranking, &center).unwrap() as f64;
        assert_eq!(out.criterion_value, d);
        // 25 samples at θ=0.3 on n=10: winner should be well below the mean
        let model = MallowsModel::new(center, 0.3).unwrap();
        assert!(d <= model.expected_kendall_tau());
    }

    #[test]
    fn min_infeasible_index_criterion_reduces_ii() {
        // segregated centre: II high; best-of-30 must find a fairer sample
        let groups = GroupAssignment::binary_split(10, 5);
        let bounds = FairnessBounds::from_assignment(&groups);
        let center = Permutation::identity(10);
        let base_ii =
            infeasible::two_sided_infeasible_index(&center, &groups, &bounds).unwrap() as f64;
        let r = MallowsFairRanker::new(0.3, 30, Criterion::MinInfeasibleIndex { groups, bounds })
            .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let out = r.rank(&center, &mut rng).unwrap();
        assert!(
            out.criterion_value < base_ii,
            "best-of-30 II {} should beat the centre's {base_ii}",
            out.criterion_value
        );
    }

    #[test]
    fn criterion_shape_mismatch_detected() {
        let r = MallowsFairRanker::new(1.0, 5, Criterion::MaxNdcg(vec![1.0, 2.0])).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        assert!(matches!(
            r.rank(&Permutation::identity(4), &mut rng),
            Err(FairMallowsError::CriterionShape { .. })
        ));
    }

    #[test]
    fn weighted_criterion_balances_fairness_and_utility() {
        let groups = GroupAssignment::binary_split(10, 5);
        let bounds = FairnessBounds::from_assignment(&groups);
        let s = scores(10);
        let center = Permutation::sorted_by_scores_desc(&s);
        let combined = Criterion::Weighted(vec![
            (1.0, Criterion::MaxNdcg(s.clone())),
            (
                1.0,
                Criterion::MinInfeasibleIndex {
                    groups: groups.clone(),
                    bounds: bounds.clone(),
                },
            ),
        ]);
        let r = MallowsFairRanker::new(0.4, 30, combined).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let out = r.rank(&center, &mut rng).unwrap();
        // winner must weakly beat the centre on the combined objective
        let center_ii =
            infeasible::two_sided_infeasible_index(&center, &groups, &bounds).unwrap() as f64;
        let out_ii =
            infeasible::two_sided_infeasible_index(&out.ranking, &groups, &bounds).unwrap() as f64;
        let center_obj = -1.0 + center_ii / 20.0; // centre NDCG = 1
        let out_obj = -quality::ndcg(&out.ranking, &s).unwrap() + out_ii / 20.0;
        assert!(
            out_obj <= center_obj + 0.2,
            "combined {out_obj} vs centre {center_obj}"
        );
    }

    #[test]
    fn weighted_criterion_shape_checks_recursively() {
        let combined = Criterion::Weighted(vec![(1.0, Criterion::MaxNdcg(vec![1.0, 2.0]))]);
        let r = MallowsFairRanker::new(1.0, 3, combined).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        assert!(matches!(
            r.rank(&Permutation::identity(5), &mut rng),
            Err(FairMallowsError::CriterionShape { .. })
        ));
    }

    #[test]
    fn weighted_with_single_part_matches_plain_criterion_choice() {
        let center = Permutation::identity(8);
        let plain = MallowsFairRanker::new(0.6, 10, Criterion::MinKendallTau).unwrap();
        let wrapped = MallowsFairRanker::new(
            0.6,
            10,
            Criterion::Weighted(vec![(2.5, Criterion::MinKendallTau)]),
        )
        .unwrap();
        // same seed → same sample stream → same winner (positive weight
        // preserves the argmin)
        let a = plain.rank(&center, &mut StdRng::seed_from_u64(42)).unwrap();
        let b = wrapped
            .rank(&center, &mut StdRng::seed_from_u64(42))
            .unwrap();
        assert_eq!(a.ranking, b.ranking);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let r = MallowsFairRanker::new(0.8, 5, Criterion::MinKendallTau).unwrap();
        let center = Permutation::identity(15);
        let a = r.rank(&center, &mut StdRng::seed_from_u64(42)).unwrap();
        let b = r.rank(&center, &mut StdRng::seed_from_u64(42)).unwrap();
        assert_eq!(a.ranking, b.ranking);
    }

    #[test]
    fn cached_tables_reproduce_the_plain_path() {
        let r = MallowsFairRanker::new(0.7, 8, Criterion::MinKendallTau).unwrap();
        let center = Permutation::identity(20);
        let tables = std::sync::Arc::new(SamplerTables::new(20, 0.7).unwrap());
        let a = r.rank(&center, &mut StdRng::seed_from_u64(5)).unwrap();
        let b = r
            .rank_with_tables(&center, &tables, &mut StdRng::seed_from_u64(5))
            .unwrap();
        assert_eq!(a.ranking, b.ranking);
        assert_eq!(a.criterion_value, b.criterion_value);
    }

    #[test]
    fn mismatched_tables_rejected() {
        let r = MallowsFairRanker::new(0.7, 8, Criterion::MinKendallTau).unwrap();
        let center = Permutation::identity(20);
        let wrong_theta = std::sync::Arc::new(SamplerTables::new(20, 0.9).unwrap());
        assert!(r
            .rank_with_tables(&center, &wrong_theta, &mut StdRng::seed_from_u64(1))
            .is_err());
        let too_small = std::sync::Arc::new(SamplerTables::new(10, 0.7).unwrap());
        assert!(r
            .rank_with_tables(&center, &too_small, &mut StdRng::seed_from_u64(1))
            .is_err());
    }

    #[test]
    fn batched_rank_is_deterministic_and_thread_count_free() {
        let s = scores(16);
        let center = Permutation::sorted_by_scores_desc(&s);
        let r = MallowsFairRanker::new(0.5, 48, Criterion::MaxNdcg(s)).unwrap();
        let tables = std::sync::Arc::new(SamplerTables::new(16, 0.5).unwrap());
        let a = r.rank_batched(&center, &tables, 7, 4, 4).unwrap();
        // a different physical thread count must not change the result
        let b = r.rank_batched(&center, &tables, 7, 4, 2).unwrap();
        assert_eq!(a.ranking, b.ranking);
        assert_eq!(a.samples_drawn, 48);
        // a different batching changes the streams but stays valid
        let c = r.rank_batched(&center, &tables, 7, 3, 1).unwrap();
        assert_eq!(c.ranking.len(), 16);
        assert_eq!(c.samples_drawn, 48);
    }

    #[test]
    fn batched_rank_beats_single_sample_on_average() {
        let s = scores(12);
        let center = Permutation::sorted_by_scores_desc(&s);
        let batched = MallowsFairRanker::new(0.5, 32, Criterion::MaxNdcg(s.clone())).unwrap();
        let single = MallowsFairRanker::new(0.5, 1, Criterion::FirstSample).unwrap();
        let tables = std::sync::Arc::new(SamplerTables::new(12, 0.5).unwrap());
        let mut rng = StdRng::seed_from_u64(6);
        let mut ndcg_batched = 0.0;
        let mut ndcg_single = 0.0;
        for seed in 0..20 {
            let a = batched.rank_batched(&center, &tables, seed, 4, 2).unwrap();
            let b = single.rank(&center, &mut rng).unwrap();
            ndcg_batched += quality::ndcg(&a.ranking, &s).unwrap();
            ndcg_single += quality::ndcg(&b.ranking, &s).unwrap();
        }
        assert!(
            ndcg_batched > ndcg_single,
            "batched best-of-32 NDCG {ndcg_batched} should beat single-sample {ndcg_single}"
        );
    }

    #[test]
    fn streaming_rank_is_byte_identical_to_the_reference_path() {
        // streamed decode + compiled kernels + early abandon must pick
        // the exact winner (and report the exact objective) the
        // unabridged scalar path picks, on the same RNG stream
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
        let tables = std::sync::Arc::new(SamplerTables::new(12, 0.6).unwrap());
        for criterion in criteria {
            let ranker = MallowsFairRanker::new(0.6, 37, criterion).unwrap();
            for seed in 0..6 {
                let mut fast_rng = StdRng::seed_from_u64(seed);
                let mut ref_rng = StdRng::seed_from_u64(seed);
                let fast = ranker
                    .rank_with_tables(&center, &tables, &mut fast_rng)
                    .unwrap();
                let reference = ranker
                    .rank_with_tables_reference(&center, &tables, &mut ref_rng)
                    .unwrap();
                assert_eq!(fast.ranking, reference.ranking);
                assert_eq!(
                    fast.criterion_value.to_bits(),
                    reference.criterion_value.to_bits()
                );
            }
        }
    }
}
