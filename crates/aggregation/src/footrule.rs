//! Footrule-optimal aggregation via minimum-cost matching.
//!
//! Dwork, Kumar, Naor & Sivakumar (WWW'01): the ranking minimizing the
//! total Spearman footrule distance to the votes is computable in
//! polynomial time as a minimum-cost perfect matching between items and
//! positions with cost `Σ_v |pos_v(item) − position|`; by the
//! Diaconis–Graham inequality it is a 2-approximation to the Kemeny
//! consensus.

use crate::{validate, Result};
use assignment_solver::CostMatrix;
use ranking_core::Permutation;

/// The footrule-optimal aggregate of the votes.
pub fn footrule_optimal(votes: &[Permutation]) -> Result<Permutation> {
    let n = validate(votes)?;
    if n == 0 {
        return Ok(Permutation::identity(0));
    }
    let positions: Vec<Vec<usize>> = votes
        .iter()
        .map(ranking_core::Permutation::positions)
        .collect();
    let costs = CostMatrix::from_fn(n, |item, slot| {
        positions
            .iter()
            .map(|pos| pos[item].abs_diff(slot) as f64)
            .sum()
    })
    .expect("costs are finite");
    let sol = assignment_solver::solve(&costs).expect("square matrix");
    let mut order = vec![0usize; n];
    for (item, &slot) in sol.row_to_col.iter().enumerate() {
        order[slot] = item;
    }
    Ok(Permutation::from_order_unchecked(order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kemeny::total_kendall_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ranking_core::distance;

    /// Total footrule distance from `pi` to all votes.
    fn total_footrule_distance(pi: &Permutation, votes: &[Permutation]) -> u64 {
        votes
            .iter()
            .map(|v| distance::footrule(pi, v).unwrap())
            .sum()
    }

    #[test]
    fn unanimous_votes_are_optimal() {
        let v = Permutation::from_order(vec![2, 3, 1, 0]).unwrap();
        let out = footrule_optimal(&[v.clone(), v.clone()]).unwrap();
        assert_eq!(out, v);
    }

    #[test]
    fn matches_brute_force_footrule_minimum() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let votes: Vec<Permutation> =
                (0..5).map(|_| Permutation::random(6, &mut rng)).collect();
            let out = footrule_optimal(&votes).unwrap();
            let best = total_footrule_distance(&out, &votes);
            for pi in Permutation::enumerate_all(6) {
                assert!(total_footrule_distance(&pi, &votes) >= best);
            }
        }
    }

    #[test]
    fn two_approximation_to_kemeny() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let votes: Vec<Permutation> =
                (0..5).map(|_| Permutation::random(6, &mut rng)).collect();
            let foot = footrule_optimal(&votes).unwrap();
            let kemeny = crate::kemeny::kemeny_exact(&votes).unwrap();
            let foot_kt = total_kendall_distance(&foot, &votes).unwrap();
            let opt_kt = total_kendall_distance(&kemeny, &votes).unwrap();
            assert!(
                foot_kt <= 2 * opt_kt,
                "footrule aggregate KT {foot_kt} vs 2×{opt_kt}"
            );
        }
    }

    #[test]
    fn empty_votes_error() {
        assert!(footrule_optimal(&[]).is_err());
    }
}
