//! The paper's ILP (Section IV-B): the DCG-optimal `(α⃗, β⃗)`-fair
//! ranking.
//!
//! ```text
//! max  Σᵢ Σⱼ s(i)·c(j)·x_ij
//! s.t. Σᵢ x_ij = 1                            ∀ position j
//!      Σⱼ x_ij ≤ 1                            ∀ item i
//!      ⌊β_p·ℓ⌋ ≤ Σ_{i∈G_p} Σ_{j≤ℓ} x_ij ≤ ⌈α_p·ℓ⌉   ∀ ℓ, ∀ group p
//!      x_ij ∈ {0, 1}
//! ```
//!
//! Two solvers are provided:
//!
//! * [`optimal_fair_ranking_dp`] — exact dynamic program over per-group
//!   prefix counts. Within a group, DCG-optimality forces descending
//!   score order (exchange argument with the decreasing discount), so
//!   the only decision per position is *which group* supplies the next
//!   item; the DP state is the per-group count vector. This solves the
//!   ILP exactly in time `O(n · |states| · g)` and handles the paper's
//!   German-Credit sweeps (n ≤ 100, g ≤ 4) in milliseconds.
//! * [`optimal_fair_ranking_ilp`] — the literal ILP via `lp-solver`
//!   branch & bound; exponential in the worst case, used to
//!   cross-validate the DP on small instances.
//!
//! The paper's noisy variant relaxes the constraints per (`ℓ`, `p`) by
//! half-normal slack: `⌊β_p·ℓ⌋ − X` and `⌈α_p·ℓ⌉ + Y` with
//! `X, Y ~ |N(0, σ)|` — reproduced by [`noisy_tables`].

use crate::{BaselineError, Result};
use eval_stats::NormalSampler;
use fairness_metrics::{bounds::BoundTables, FairnessBounds, GroupAssignment};
use lp_solver::{Problem, Relation};
use rand::Rng;
use ranking_core::quality::Discount;
use ranking_core::Permutation;
use std::collections::BTreeMap;

/// Build per-prefix integer bound tables relaxed by half-normal noise,
/// as in the paper's noisy-ILP experiments. `sigma = 0` reproduces the
/// vanilla tables.
pub fn noisy_tables<R: Rng + ?Sized>(
    bounds: &FairnessBounds,
    n: usize,
    sigma: f64,
    rng: &mut R,
) -> BoundTables {
    let mut tables = bounds.tables(n);
    if sigma > 0.0 {
        let mut noise = NormalSampler::new(0.0, sigma);
        for k in 0..n {
            for p in 0..bounds.num_groups() {
                let x = noise.sample(rng).abs();
                let y = noise.sample(rng).abs();
                let lo = tables.min[k][p] as f64 - x;
                let hi = tables.max[k][p] as f64 + y;
                tables.min[k][p] = lo.max(0.0).floor() as usize;
                tables.max[k][p] = hi.floor() as usize;
            }
        }
        tables.clamp();
    }
    tables
}

/// Exact DCG-optimal fair ranking by dynamic programming (see module
/// docs). Errors with [`BaselineError::Infeasible`] when the tables
/// admit no complete ranking.
pub fn optimal_fair_ranking_dp(
    scores: &[f64],
    groups: &GroupAssignment,
    tables: &BoundTables,
    discount: Discount,
) -> Result<Permutation> {
    let n = scores.len();
    if n != groups.len() {
        return Err(BaselineError::ShapeMismatch {
            what: "scores vs groups",
        });
    }
    if tables.len() != n {
        return Err(BaselineError::ShapeMismatch {
            what: "tables vs items",
        });
    }
    if n == 0 {
        return Ok(Permutation::identity(0));
    }
    let g = groups.num_groups();
    let sizes = groups.group_sizes();

    // Group members sorted by descending score: the t-th pick from group
    // p is always its t-th best member.
    let mut members: Vec<Vec<usize>> = (0..g).map(|p| groups.members(p)).collect();
    for m in &mut members {
        m.sort_by(|&a, &b| {
            scores[b]
                .partial_cmp(&scores[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
    }

    type State = Vec<u16>;
    // frontier: count-vector → best DCG so far
    // ordered maps: equal-value paths tie-break by state order, so the
    // result is the same in every process (hash order is per-process)
    let mut frontier: BTreeMap<State, f64> = BTreeMap::new();
    frontier.insert(vec![0u16; g], 0.0);
    // parents[ℓ]: state after position ℓ+1 → group chosen at that position
    let mut parents: Vec<BTreeMap<State, usize>> = Vec::with_capacity(n);

    for l in 0..n {
        let mut next: BTreeMap<State, f64> = BTreeMap::new();
        let mut parent: BTreeMap<State, usize> = BTreeMap::new();
        for (state, value) in &frontier {
            for p in 0..g {
                let cnt = state[p] as usize;
                if cnt >= sizes[p] {
                    continue;
                }
                // bounds at prefix ℓ+1 for the *new* counts
                let mut ok = true;
                for q in 0..g {
                    let c = state[q] as usize + usize::from(q == p);
                    if c < tables.min[l][q] || c > tables.max[l][q] {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    continue;
                }
                let gain = scores[members[p][cnt]] * discount.at(l + 1);
                let mut new_state = state.clone();
                new_state[p] += 1;
                let v = value + gain;
                match next.get_mut(&new_state) {
                    Some(existing) if *existing >= v => {}
                    _ => {
                        next.insert(new_state.clone(), v);
                        parent.insert(new_state, p);
                    }
                }
            }
        }
        if next.is_empty() {
            return Err(BaselineError::Infeasible);
        }
        frontier = next;
        parents.push(parent);
    }

    // Reconstruct the group sequence from the unique full state.
    let mut state: State = sizes.iter().map(|&s| s as u16).collect();
    debug_assert!(frontier.contains_key(&state));
    let mut group_seq = vec![0usize; n];
    for l in (0..n).rev() {
        let p = *parents[l]
            .get(&state)
            .expect("backpointer exists for reachable state");
        group_seq[l] = p;
        state[p] -= 1;
    }
    // Materialize items: t-th occurrence of group p takes its t-th best.
    let mut taken = vec![0usize; g];
    let mut order = Vec::with_capacity(n);
    for p in group_seq {
        order.push(members[p][taken[p]]);
        taken[p] += 1;
    }
    Ok(Permutation::from_order_unchecked(order))
}

/// The literal ILP via `lp-solver` branch & bound. Exponential worst
/// case — intended for `n ≤ 8` (cross-validation and the paper's ILP
/// column on small prefixes).
pub fn optimal_fair_ranking_ilp(
    scores: &[f64],
    groups: &GroupAssignment,
    tables: &BoundTables,
    discount: Discount,
) -> Result<Permutation> {
    let n = scores.len();
    if n != groups.len() {
        return Err(BaselineError::ShapeMismatch {
            what: "scores vs groups",
        });
    }
    if tables.len() != n {
        return Err(BaselineError::ShapeMismatch {
            what: "tables vs items",
        });
    }
    if n == 0 {
        return Ok(Permutation::identity(0));
    }
    let g = groups.num_groups();
    let var = |i: usize, j: usize| i * n + j;

    let mut objective = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            objective[var(i, j)] = scores[i] * discount.at(j + 1);
        }
    }
    let mut problem = Problem::maximize(objective);
    for v in 0..n * n {
        problem.set_integer(v, true);
        problem.set_upper_bound(v, 1.0)?;
    }
    // each position takes exactly one item
    for j in 0..n {
        problem.add_constraint(
            (0..n).map(|i| (var(i, j), 1.0)).collect(),
            Relation::Eq,
            1.0,
        )?;
    }
    // each item fills at most one position
    for i in 0..n {
        problem.add_constraint(
            (0..n).map(|j| (var(i, j), 1.0)).collect(),
            Relation::Le,
            1.0,
        )?;
    }
    // prefix group bounds
    for l in 1..=n {
        for p in 0..g {
            let coeffs: Vec<(usize, f64)> = groups
                .members(p)
                .into_iter()
                .flat_map(|i| (0..l).map(move |j| (var(i, j), 1.0)))
                .collect();
            problem.add_constraint(coeffs.clone(), Relation::Ge, tables.min[l - 1][p] as f64)?;
            problem.add_constraint(coeffs, Relation::Le, tables.max[l - 1][p] as f64)?;
        }
    }

    let solution = match lp_solver::solve_ilp(&problem) {
        Ok(s) => s,
        Err(lp_solver::LpError::Infeasible) => return Err(BaselineError::Infeasible),
        Err(e) => return Err(e.into()),
    };
    let mut order = vec![usize::MAX; n];
    for i in 0..n {
        for j in 0..n {
            if solution.values[var(i, j)] > 0.5 {
                order[j] = i;
            }
        }
    }
    if order.contains(&usize::MAX) {
        return Err(BaselineError::Infeasible);
    }
    Ok(Permutation::from_order_unchecked(order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use ranking_core::quality;

    fn dcg(pi: &Permutation, scores: &[f64]) -> f64 {
        quality::dcg_at(pi, scores, scores.len(), Discount::Log2).unwrap()
    }

    #[test]
    fn dp_breaks_score_ties_the_same_way_every_run() {
        // equal scores leave many optimal group sequences; the chosen
        // one must not depend on map iteration order
        let scores = vec![0.5; 12];
        let groups =
            GroupAssignment::new((0..12).map(|i| usize::from(i % 3 == 0)).collect(), 2).unwrap();
        let tables = FairnessBounds::from_assignment(&groups).tables(12);
        let first = optimal_fair_ranking_dp(&scores, &groups, &tables, Discount::Log2).unwrap();
        for _ in 0..16 {
            let again = optimal_fair_ranking_dp(&scores, &groups, &tables, Discount::Log2).unwrap();
            assert_eq!(again, first);
        }
    }

    #[test]
    fn dp_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..15 {
            let n = 6;
            let scores: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
            let groups =
                GroupAssignment::new((0..n).map(|i| (i + trial) % 2).collect(), 2).unwrap();
            let bounds = FairnessBounds::from_assignment(&groups);
            let tables = bounds.tables(n);
            let dp = optimal_fair_ranking_dp(&scores, &groups, &tables, Discount::Log2).unwrap();
            let (_, best) =
                brute::max_dcg_fair(&scores, &groups, &tables, Discount::Log2).expect("feasible");
            assert!(
                (dcg(&dp, &scores) - best).abs() < 1e-9,
                "trial {trial}: DP {} vs brute {best}",
                dcg(&dp, &scores)
            );
            assert!(brute::is_fair_tables(&dp, &groups, &tables));
        }
    }

    #[test]
    fn ilp_matches_dp() {
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..6 {
            let n = 5;
            let scores: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1.0)).collect();
            let groups =
                GroupAssignment::new((0..n).map(|i| (i * (trial + 1)) % 2).collect(), 2).unwrap();
            let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, 0.1);
            let tables = bounds.tables(n);
            let dp = optimal_fair_ranking_dp(&scores, &groups, &tables, Discount::Log2).unwrap();
            let ilp = optimal_fair_ranking_ilp(&scores, &groups, &tables, Discount::Log2).unwrap();
            assert!(
                (dcg(&dp, &scores) - dcg(&ilp, &scores)).abs() < 1e-6,
                "trial {trial}: DP and ILP objectives differ"
            );
        }
    }

    #[test]
    fn three_groups_dp() {
        let scores = [0.9, 0.8, 0.7, 0.3, 0.2, 0.1, 0.5, 0.4, 0.6];
        let groups = GroupAssignment::new(vec![0, 0, 0, 1, 1, 1, 2, 2, 2], 3).unwrap();
        let bounds = FairnessBounds::from_assignment(&groups);
        let tables = bounds.tables(9);
        let dp = optimal_fair_ranking_dp(&scores, &groups, &tables, Discount::Log2).unwrap();
        assert!(brute::is_fair_tables(&dp, &groups, &tables));
        let (_, best) = brute::max_dcg_fair(&scores, &groups, &tables, Discount::Log2).unwrap();
        assert!((dcg(&dp, &scores) - best).abs() < 1e-9);
    }

    #[test]
    fn unconstrained_dp_sorts_by_score() {
        let scores = [0.2, 0.9, 0.4, 0.7];
        let groups = GroupAssignment::alternating(4);
        let tables = FairnessBounds::new(vec![0.0, 0.0], vec![1.0, 1.0])
            .unwrap()
            .tables(4);
        let dp = optimal_fair_ranking_dp(&scores, &groups, &tables, Discount::Log2).unwrap();
        assert_eq!(
            dp.as_order(),
            Permutation::sorted_by_scores_desc(&scores).as_order()
        );
    }

    #[test]
    fn infeasible_tables_error() {
        let scores = [1.0, 2.0, 3.0, 4.0];
        let groups = GroupAssignment::new(vec![0, 1, 1, 1], 2).unwrap();
        let bounds = FairnessBounds::new(vec![0.8, 0.0], vec![1.0, 1.0]).unwrap();
        let tables = bounds.tables(4);
        assert_eq!(
            optimal_fair_ranking_dp(&scores, &groups, &tables, Discount::Log2),
            Err(BaselineError::Infeasible)
        );
        assert_eq!(
            optimal_fair_ranking_ilp(&scores, &groups, &tables, Discount::Log2),
            Err(BaselineError::Infeasible)
        );
    }

    #[test]
    fn noisy_tables_only_relax() {
        let groups = GroupAssignment::alternating(12);
        let bounds = FairnessBounds::from_assignment(&groups);
        let clean = bounds.tables(12);
        let mut rng = StdRng::seed_from_u64(5);
        let noisy = noisy_tables(&bounds, 12, 1.0, &mut rng);
        for k in 0..12 {
            for p in 0..2 {
                assert!(
                    noisy.min[k][p] <= clean.min[k][p],
                    "noise must lower minimums"
                );
                assert!(
                    noisy.max[k][p] >= clean.max[k][p].min(k + 1),
                    "noise must raise maximums"
                );
            }
        }
    }

    #[test]
    fn noisy_tables_never_cut_feasibility() {
        // relaxation ⊇ original feasible set, so the DP stays feasible
        let mut rng = StdRng::seed_from_u64(9);
        let scores: Vec<f64> = (0..10).map(|_| rng.random_range(0.0..1.0)).collect();
        let groups = GroupAssignment::alternating(10);
        let bounds = FairnessBounds::from_assignment(&groups);
        for seed in 0..10 {
            let mut nrng = StdRng::seed_from_u64(seed);
            let tables = noisy_tables(&bounds, 10, 1.0, &mut nrng);
            let out = optimal_fair_ranking_dp(&scores, &groups, &tables, Discount::Log2);
            assert!(out.is_ok(), "seed {seed}: relaxed tables became infeasible");
        }
    }

    #[test]
    fn zero_sigma_noisy_tables_are_clean() {
        let groups = GroupAssignment::alternating(8);
        let bounds = FairnessBounds::from_assignment(&groups);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(noisy_tables(&bounds, 8, 0.0, &mut rng), bounds.tables(8));
    }

    #[test]
    fn relaxed_dp_dcg_at_least_tight_dp_dcg() {
        let mut rng = StdRng::seed_from_u64(33);
        let scores: Vec<f64> = (0..8).map(|_| rng.random_range(0.0..1.0)).collect();
        let groups = GroupAssignment::binary_split(8, 4);
        let bounds = FairnessBounds::from_assignment(&groups);
        let tight =
            optimal_fair_ranking_dp(&scores, &groups, &bounds.tables(8), Discount::Log2).unwrap();
        let relaxed_tables = noisy_tables(&bounds, 8, 2.0, &mut rng);
        let relaxed =
            optimal_fair_ranking_dp(&scores, &groups, &relaxed_tables, Discount::Log2).unwrap();
        assert!(dcg(&relaxed, &scores) >= dcg(&tight, &scores) - 1e-9);
    }

    #[test]
    fn empty_instance() {
        let groups = GroupAssignment::new(vec![], 2).unwrap();
        let bounds = FairnessBounds::exact(vec![0.5, 0.5]).unwrap();
        let tables = bounds.tables(0);
        let out = optimal_fair_ranking_dp(&[], &groups, &tables, Discount::Log2).unwrap();
        assert_eq!(out.len(), 0);
    }
}
