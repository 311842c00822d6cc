//! Property-based tests for fairness-metrics invariants.

use fairness_metrics::{infeasible, pfair, FairnessBounds, GroupAssignment};
use proptest::prelude::*;
use ranking_core::Permutation;

fn permutation(n: usize) -> impl Strategy<Value = Permutation> {
    prop::collection::vec(any::<u64>(), n).prop_map(|keys| {
        let mut idx: Vec<usize> = (0..keys.len()).collect();
        idx.sort_by_key(|&i| keys[i]);
        Permutation::from_order(idx).expect("valid permutation")
    })
}

fn assignment(n: usize, g: usize) -> impl Strategy<Value = GroupAssignment> {
    prop::collection::vec(0..g, n)
        .prop_map(move |v| GroupAssignment::new(v, g).expect("groups in range"))
}

proptest! {
    #[test]
    fn infeasible_index_bounded(pi in permutation(12), groups in assignment(12, 3)) {
        let b = FairnessBounds::from_assignment(&groups);
        let ii = infeasible::two_sided_infeasible_index(&pi, &groups, &b).unwrap();
        prop_assert!(ii <= 2 * 12);
    }

    #[test]
    fn pfair_percentage_in_range(pi in permutation(10), groups in assignment(10, 4)) {
        let b = FairnessBounds::from_assignment(&groups);
        let v = infeasible::pfair_percentage(&pi, &groups, &b).unwrap();
        prop_assert!((0.0..=100.0).contains(&v));
    }

    #[test]
    fn zero_index_iff_1_fair(pi in permutation(9), groups in assignment(9, 2)) {
        let b = FairnessBounds::from_assignment(&groups);
        let ii = infeasible::two_sided_infeasible_index(&pi, &groups, &b).unwrap();
        let fair = pfair::is_k_fair(&pi, &groups, &b, 1).unwrap();
        prop_assert_eq!(ii == 0, fair, "infeasible index {} vs fair {}", ii, fair);
    }

    #[test]
    fn widening_bounds_never_increases_index(
        pi in permutation(10),
        groups in assignment(10, 3),
        tol in 0.0f64..0.5,
    ) {
        let tight = FairnessBounds::from_assignment(&groups);
        let loose = FairnessBounds::from_assignment_with_tolerance(&groups, tol);
        let ii_tight = infeasible::two_sided_infeasible_index(&pi, &groups, &tight).unwrap();
        let ii_loose = infeasible::two_sided_infeasible_index(&pi, &groups, &loose).unwrap();
        prop_assert!(ii_loose <= ii_tight);
    }

    #[test]
    fn full_prefix_always_satisfies_exact_proportions(groups in assignment(8, 3), pi in permutation(8)) {
        // the length-n prefix contains every item, so counts equal sizes,
        // and floor/ceil of size never excludes the true size
        let b = FairnessBounds::from_assignment(&groups);
        let sizes = groups.group_sizes();
        let counts = groups.prefix_counts(pi.as_order());
        let last = &counts[7];
        for p in 0..groups.num_groups() {
            prop_assert_eq!(last[p], sizes[p]);
            prop_assert!(last[p] >= b.min_count(p, 8));
            prop_assert!(last[p] <= b.max_count(p, 8));
        }
    }

    #[test]
    fn weak_fairness_weaker_than_strong(
        pi in permutation(10),
        groups in assignment(10, 2),
        k in 1usize..10,
    ) {
        let b = FairnessBounds::from_assignment_with_tolerance(&groups, 0.1);
        if pfair::is_k_fair(&pi, &groups, &b, k).unwrap() {
            prop_assert!(pfair::is_weak_k_fair(&pi, &groups, &b, k).unwrap());
        }
    }

    #[test]
    fn violations_consistent_with_breakdown(pi in permutation(10), groups in assignment(10, 3)) {
        let b = FairnessBounds::from_assignment(&groups);
        let breakdown = infeasible::infeasible_breakdown(&pi, &groups, &b).unwrap();
        let details = pfair::violations(&pi, &groups, &b).unwrap();
        // every prefix counted by the breakdown has at least one detailed violation
        let lower_prefixes: std::collections::HashSet<_> = details
            .iter()
            .filter(|v| v.kind == pfair::ViolationKind::Lower)
            .map(|v| v.prefix)
            .collect();
        let upper_prefixes: std::collections::HashSet<_> = details
            .iter()
            .filter(|v| v.kind == pfair::ViolationKind::Upper)
            .map(|v| v.prefix)
            .collect();
        prop_assert_eq!(breakdown.lower_violations, lower_prefixes.len());
        prop_assert_eq!(breakdown.upper_violations, upper_prefixes.len());
    }
}

/// Arbitrary per-group proportion bounds: each group draws two values
/// in `[0, 1]` and uses the smaller as the lower proportion.
fn arbitrary_bounds(g: usize) -> impl Strategy<Value = FairnessBounds> {
    prop::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), g).prop_map(|pairs| {
        let (lower, upper): (Vec<f64>, Vec<f64>) = pairs
            .into_iter()
            .map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
            .unzip();
        FairnessBounds::new(lower, upper).expect("lower ≤ upper within [0, 1]")
    })
}

proptest! {
    #[test]
    fn bound_step_tables_replay_min_and_max_counts(
        bounds in arbitrary_bounds(4),
        n in 0usize..48,
    ) {
        let steps = bounds.steps(n);
        let tables = steps.materialize();
        prop_assert_eq!(&tables, &bounds.tables(n));
        for k in 1..=n {
            for p in 0..bounds.num_groups() {
                prop_assert_eq!(tables.min[k - 1][p], bounds.min_count(p, k));
                prop_assert_eq!(tables.max[k - 1][p], bounds.max_count(p, k));
            }
        }
    }

    #[test]
    fn compiled_infeasible_kernel_matches_naive_breakdown(
        pi in permutation(14),
        groups in assignment(14, 4),
        bounds in arbitrary_bounds(4),
    ) {
        let naive = infeasible::infeasible_breakdown_naive(&pi, &groups, &bounds).unwrap();
        let mut kernel = infeasible::CompiledInfeasible::compile(&bounds, 14);
        prop_assert_eq!(kernel.breakdown(&pi, &groups), naive);
        // a reused kernel must agree too: `breakdown` resets its state
        let reversed = Permutation::from_order(pi.as_order().iter().rev().copied().collect()).unwrap();
        let naive_rev = infeasible::infeasible_breakdown_naive(&reversed, &groups, &bounds).unwrap();
        prop_assert_eq!(kernel.breakdown(&reversed, &groups), naive_rev);
        prop_assert_eq!(kernel.breakdown(&pi, &groups), naive);
    }

    #[test]
    fn compiled_infeasible_matches_naive_under_tolerance_bounds(
        pi in permutation(12),
        groups in assignment(12, 3),
        tol in 0.0f64..0.6,
    ) {
        let bounds = FairnessBounds::from_assignment_with_tolerance(&groups, tol);
        let naive = infeasible::infeasible_breakdown_naive(&pi, &groups, &bounds).unwrap();
        let mut kernel = infeasible::CompiledInfeasible::compile(&bounds, 12);
        prop_assert_eq!(kernel.breakdown(&pi, &groups), naive);
    }
}
