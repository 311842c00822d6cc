//! Exact minimum-Kendall-tau P-fair ranking for **any** number of
//! groups (Chakraborty et al., NeurIPS'22, Theorem 3.4: fair rank
//! aggregation under Kendall tau is polynomial for constant `g`).
//!
//! Key structural fact: in a KT-optimal fair re-ranking each group's
//! items appear in *input order* (an exchange argument — swapping two
//! same-group items out of input order only adds inversions and leaves
//! every prefix count unchanged). The output is therefore determined by
//! the *group pattern* alone, and dynamic programming over per-group
//! count vectors `(c_1, …, c_g)` explores exactly the feasible patterns:
//!
//! * state: counts placed per group (`Π (n_p + 1)` states, the
//!   `n^{O(g)}` of the theorem);
//! * transition: append the next item of group `p` — its identity is
//!   forced (the `c_p + 1`-st member in input order), and the added
//!   inversions against the input are
//!   `Σ_q (c_q − min(c_q, before[i][q]))`, where `before[i][q]` counts
//!   members of group `q` the input ranks before item `i` (placed items
//!   of `q` are its first `c_q` in input order, so exactly
//!   `min(c_q, before)` of them precede `i` in the input);
//! * feasibility: the prefix-`k` counts must satisfy the bound tables.
//!
//! [`gr_binary_ipf`](crate::gr_binary_ipf) remains the `O(n log n)`
//! special case for two groups; the tests pin the two against each
//! other and against brute force.

use crate::{BaselineError, Result};
use fairness_metrics::bounds::BoundTables;
use fairness_metrics::GroupAssignment;
use ranking_core::Permutation;
use std::collections::BTreeMap;

/// Exact minimum-KT fair re-ranking of `sigma` under per-prefix bound
/// tables (any number of groups).
///
/// State space is `Π_p (|G_p| + 1)`; practical for `g ≤ 4` at the
/// paper's sizes (`n ≤ 100`). Errors with
/// [`BaselineError::Infeasible`] when no complete fair pattern exists
/// and [`BaselineError::ShapeMismatch`] on inconsistent inputs.
pub fn optimal_fair_ranking_kt(
    sigma: &Permutation,
    groups: &GroupAssignment,
    tables: &BoundTables,
) -> Result<Permutation> {
    let n = sigma.len();
    if groups.len() != n {
        return Err(BaselineError::ShapeMismatch {
            what: "ranking vs groups",
        });
    }
    if tables.len() != n {
        return Err(BaselineError::ShapeMismatch {
            what: "tables vs items",
        });
    }
    let g = groups.num_groups();
    let positions = sigma.positions();

    // members[p] in input (σ) order.
    let mut members: Vec<Vec<usize>> = (0..g).map(|p| groups.members(p)).collect();
    for m in &mut members {
        m.sort_by_key(|&item| positions[item]);
    }
    let sizes: Vec<usize> = members.iter().map(Vec::len).collect();

    // before[i][q] = members of group q that σ ranks before item i.
    // Computed by a sweep over σ's order: running per-group counts.
    let mut before = vec![vec![0usize; g]; n];
    let mut running = vec![0usize; g];
    for &item in sigma.as_order() {
        before[item].clone_from(&running);
        running[groups.group_of(item)] += 1;
    }

    // Forward DP over count vectors, layer by prefix length (sum of
    // counts); parents stored for reconstruction.
    // ordered maps: equal-value paths tie-break by state order, so the
    // result is the same in every process (hash order is per-process)
    let mut layer: BTreeMap<Vec<usize>, u64> = BTreeMap::new();
    layer.insert(vec![0usize; g], 0);
    // parent[(counts)] = group appended to reach `counts`
    let mut parents: Vec<BTreeMap<Vec<usize>, usize>> = Vec::with_capacity(n);

    for k in 1..=n {
        let mut next: BTreeMap<Vec<usize>, u64> = BTreeMap::new();
        let mut parent: BTreeMap<Vec<usize>, usize> = BTreeMap::new();
        for (counts, &cost) in &layer {
            for p in 0..g {
                if counts[p] >= sizes[p] {
                    continue;
                }
                let item = members[p][counts[p]];
                // inversions added against already-placed items
                let added: u64 = (0..g)
                    .map(|q| (counts[q] - counts[q].min(before[item][q])) as u64)
                    .sum();
                let mut c2 = counts.clone();
                c2[p] += 1;
                // prefix-k feasibility for every group
                if (0..g).any(|q| c2[q] < tables.min[k - 1][q] || c2[q] > tables.max[k - 1][q]) {
                    continue;
                }
                let candidate = cost + added;
                match next.get(&c2) {
                    Some(&best) if best <= candidate => {}
                    _ => {
                        next.insert(c2.clone(), candidate);
                        parent.insert(c2, p);
                    }
                }
            }
        }
        if next.is_empty() {
            return Err(BaselineError::Infeasible);
        }
        parents.push(parent);
        layer = next;
    }

    // Reconstruct from the full-count state.
    let mut counts = sizes.clone();
    let mut pattern = Vec::with_capacity(n);
    for k in (1..=n).rev() {
        let &p = parents[k - 1]
            .get(&counts)
            .expect("every surviving state has a recorded parent");
        pattern.push(p);
        counts[p] -= 1;
    }
    pattern.reverse();

    let mut heads = vec![0usize; g];
    let mut order = Vec::with_capacity(n);
    for p in pattern {
        order.push(members[p][heads[p]]);
        heads[p] += 1;
    }
    Ok(Permutation::from_order_unchecked(order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute;
    use crate::gr_binary_ipf;
    use fairness_metrics::FairnessBounds;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ranking_core::distance;

    fn tables_for(groups: &GroupAssignment, tolerance: f64) -> BoundTables {
        FairnessBounds::from_assignment_with_tolerance(groups, tolerance).tables(groups.len())
    }

    #[test]
    fn matches_gr_binary_on_two_groups() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..25 {
            let sigma = Permutation::random(10, &mut rng);
            let groups = GroupAssignment::binary_split(10, 5);
            let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, 0.1);
            let tables = bounds.tables(10);
            let a = optimal_fair_ranking_kt(&sigma, &groups, &tables).unwrap();
            let b = gr_binary_ipf(&sigma, &groups, &bounds).unwrap();
            let da = distance::kendall_tau(&a, &sigma).unwrap();
            let db = distance::kendall_tau(&b, &sigma).unwrap();
            assert_eq!(da, db, "DP {da} vs merge {db} on σ={sigma}");
        }
    }

    #[test]
    fn matches_brute_force_on_three_groups() {
        let mut rng = StdRng::seed_from_u64(11);
        let groups = GroupAssignment::new(vec![0, 1, 2, 0, 1, 2, 0], 3).unwrap();
        let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, 0.15);
        let tables = bounds.tables(7);
        for _ in 0..15 {
            let sigma = Permutation::random(7, &mut rng);
            let dp = optimal_fair_ranking_kt(&sigma, &groups, &tables).unwrap();
            let (_, d_brute) =
                brute::min_kendall_fair(&sigma, &groups, &bounds).expect("feasible instance");
            let d_dp = distance::kendall_tau(&dp, &sigma).unwrap();
            assert_eq!(d_dp, d_brute, "σ={sigma}: DP {d_dp} vs brute {d_brute}");
        }
    }

    #[test]
    fn output_is_fair_and_group_streams_keep_input_order() {
        let mut rng = StdRng::seed_from_u64(29);
        let groups = GroupAssignment::new(vec![0, 0, 1, 1, 2, 2, 2, 0], 3).unwrap();
        let tables = tables_for(&groups, 0.2);
        let sigma = Permutation::random(8, &mut rng);
        let out = optimal_fair_ranking_kt(&sigma, &groups, &tables).unwrap();
        // fairness of every prefix
        for k in 1..=8 {
            for p in 0..3 {
                let c = groups.count_in_prefix(out.as_order(), k, p);
                assert!(c >= tables.min[k - 1][p] && c <= tables.max[k - 1][p]);
            }
        }
        // within-group input order
        let positions = sigma.positions();
        for p in 0..3 {
            let ranked: Vec<usize> = out
                .as_order()
                .iter()
                .copied()
                .filter(|&i| groups.group_of(i) == p)
                .collect();
            assert!(
                ranked.windows(2).all(|w| positions[w[0]] < positions[w[1]]),
                "group {p} out of input order"
            );
        }
    }

    #[test]
    fn trivial_bounds_return_the_input() {
        let sigma = Permutation::from_order(vec![3, 0, 2, 1]).unwrap();
        let groups = GroupAssignment::new(vec![0, 1, 0, 1], 2).unwrap();
        let tables = FairnessBounds::new(vec![0.0, 0.0], vec![1.0, 1.0])
            .unwrap()
            .tables(4);
        let out = optimal_fair_ranking_kt(&sigma, &groups, &tables).unwrap();
        assert_eq!(out, sigma, "no constraints → zero-distance solution");
    }

    #[test]
    fn infeasible_bounds_error() {
        let sigma = Permutation::identity(4);
        let groups = GroupAssignment::new(vec![0, 0, 0, 1], 2).unwrap();
        // demand ⌊0.5·4⌋ = 2 of each group at k = 4: group 1 has only one
        let tables = FairnessBounds::new(vec![0.5, 0.5], vec![1.0, 1.0])
            .unwrap()
            .tables(4);
        assert!(matches!(
            optimal_fair_ranking_kt(&sigma, &groups, &tables),
            Err(BaselineError::Infeasible)
        ));
    }

    #[test]
    fn shape_mismatches_error() {
        let sigma = Permutation::identity(4);
        let groups = GroupAssignment::binary_split(5, 2);
        let tables = FairnessBounds::from_assignment(&groups).tables(5);
        assert!(optimal_fair_ranking_kt(&sigma, &groups, &tables).is_err());
    }
}
