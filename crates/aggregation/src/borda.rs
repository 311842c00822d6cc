//! Borda (positional) aggregation.

use crate::{validate, Result};
use ranking_core::Permutation;

/// Borda aggregation: rank items by ascending mean position across the
/// votes (equivalently descending Borda score), ties broken by item
/// index. Consistent estimator of the centre of a Mallows mixture and a
/// 5-approximation to Kemeny.
pub fn borda(votes: &[Permutation]) -> Result<Permutation> {
    let n = validate(votes)?;
    let mut total_pos = vec![0u64; n];
    for v in votes {
        for (pos, &item) in v.as_order().iter().enumerate() {
            total_pos[item] += pos as u64;
        }
    }
    let mut items: Vec<usize> = (0..n).collect();
    items.sort_by(|&a, &b| total_pos[a].cmp(&total_pos[b]).then(a.cmp(&b)));
    Ok(Permutation::from_order_unchecked(items))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unanimous_votes_return_that_ranking() {
        let v = Permutation::from_order(vec![2, 0, 1]).unwrap();
        let out = borda(&[v.clone(), v.clone(), v.clone()]).unwrap();
        assert_eq!(out, v);
    }

    #[test]
    fn majority_preference_wins() {
        let a = Permutation::from_order(vec![0, 1, 2]).unwrap();
        let b = Permutation::from_order(vec![1, 0, 2]).unwrap();
        let out = borda(&[a.clone(), a.clone(), b]).unwrap();
        assert_eq!(out.as_order(), &[0, 1, 2]);
    }

    #[test]
    fn ties_break_by_item_index() {
        let a = Permutation::from_order(vec![0, 1]).unwrap();
        let b = Permutation::from_order(vec![1, 0]).unwrap();
        let out = borda(&[a, b]).unwrap();
        assert_eq!(out.as_order(), &[0, 1]);
    }

    #[test]
    fn empty_votes_error() {
        assert!(borda(&[]).is_err());
    }
}
