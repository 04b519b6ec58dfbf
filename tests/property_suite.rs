//! Property-based tests (proptest) over the whole suite: the algebraic
//! laws of braid multiplication, the semantics of semi-local kernels, and
//! the equivalence of every LCS implementation on arbitrary inputs.

use proptest::prelude::*;

use semilocal_suite::apps::ApproxMatcher;
use semilocal_suite::baselines::{cipr_lcs, hyyro_lcs, prefix_rowmajor};
use semilocal_suite::bitpar::{bit_lcs_alphabet, bit_lcs_new2};
use semilocal_suite::braid::{
    parallel_steady_ant, steady_ant, steady_ant_combined, steady_ant_precalc,
    steady_ant_precalc_capped,
};
use semilocal_suite::perm::monge::distance_product_reference;
use semilocal_suite::perm::{DominanceTable, MergeSortTree, Permutation};
use semilocal_suite::semilocal::reference::BruteHMatrix;
use semilocal_suite::semilocal::simd::antidiag_combing_simd;
use semilocal_suite::semilocal::{
    antidiag_combing_branchless, hybrid_combing, iterative_combing, load_balanced_combing,
    par_antidiag_combing_branchless_sched, recursive_combing, EditDistances, Scheduling,
};

fn perm_of(n: usize) -> impl Strategy<Value = Permutation> {
    Just(n).prop_perturb(move |n, mut rng| {
        let mut forward: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            forward.swap(i, j);
        }
        Permutation::from_forward(forward).unwrap()
    })
}

fn arb_perm(max: usize) -> impl Strategy<Value = Permutation> {
    (1..=max).prop_flat_map(perm_of)
}

fn two_perms(max: usize) -> impl Strategy<Value = (Permutation, Permutation)> {
    (1..=max).prop_flat_map(|n| (perm_of(n), perm_of(n)))
}

fn three_perms(max: usize) -> impl Strategy<Value = (Permutation, Permutation, Permutation)> {
    (1..=max).prop_flat_map(|n| (perm_of(n), perm_of(n), perm_of(n)))
}

fn arb_string(max_len: usize, sigma: u8) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0..sigma, 0..=max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- braid multiplication laws ---------------------------------

    #[test]
    fn steady_ant_equals_definition((p, q) in two_perms(48)) {
        let want = distance_product_reference(&p, &q);
        prop_assert_eq!(steady_ant(&p, &q), want);
    }

    #[test]
    fn all_multiplier_variants_agree((p, q) in two_perms(64)) {
        let r = steady_ant(&p, &q);
        prop_assert_eq!(steady_ant_precalc(&p, &q), r.clone());
        prop_assert_eq!(steady_ant_combined(&p, &q), r.clone());
        prop_assert_eq!(parallel_steady_ant(&p, &q, 3), r);
    }

    #[test]
    fn precalc_cutoff_never_changes_the_product(
        (p, q) in two_perms(48), cutoff in 1usize..=5
    ) {
        prop_assert_eq!(
            steady_ant_precalc_capped(&p, &q, cutoff),
            steady_ant(&p, &q)
        );
    }

    #[test]
    fn demazure_product_is_associative((p, q, r) in three_perms(32)) {
        let left = steady_ant(&steady_ant(&p, &q), &r);
        let right = steady_ant(&p, &steady_ant(&q, &r));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn identity_is_a_unit(p in arb_perm(64)) {
        let id = Permutation::identity(p.len());
        prop_assert_eq!(steady_ant(&p, &id), p.clone());
        prop_assert_eq!(steady_ant(&id, &p), p);
    }

    #[test]
    fn demazure_product_is_idempotent_on_reversal(n in 1usize..64) {
        // the reversal is the absorbing "everything crossed" element
        let w0 = Permutation::reversal(n);
        prop_assert_eq!(steady_ant(&w0, &w0), w0.clone());
        // and absorbs any factor on either side
        let mut rng = semilocal_suite::datagen::seeded_rng(n as u64);
        let p = Permutation::random(n, &mut rng);
        prop_assert_eq!(steady_ant(&p, &w0), w0.clone());
        prop_assert_eq!(steady_ant(&w0, &p), w0);
    }

    // --- permutation substrate --------------------------------------

    #[test]
    fn merge_sort_tree_equals_scans(p in arb_perm(48)) {
        let t = MergeSortTree::new(&p);
        let n = p.len();
        for i in (0..=n).step_by(1 + n / 7) {
            for j in (0..=n).step_by(1 + n / 5) {
                prop_assert_eq!(t.dominance_sum(i, j), p.dominance_sum_scan(i, j));
            }
        }
    }

    #[test]
    fn dominance_table_roundtrips(p in arb_perm(48)) {
        prop_assert_eq!(DominanceTable::new(&p).recover(), p);
    }

    // --- semi-local kernels ------------------------------------------

    #[test]
    fn kernel_h_matrix_equals_brute_force(
        a in arb_string(10, 3), b in arb_string(10, 3)
    ) {
        let brute = BruteHMatrix::new(&a, &b);
        let scores = iterative_combing(&a, &b).index();
        let size = a.len() + b.len();
        for i in 0..=size {
            for j in 0..=size {
                prop_assert_eq!(scores.h(i, j), brute.get(i, j), "H[{}, {}]", i, j);
            }
        }
    }

    #[test]
    fn all_combers_agree(a in arb_string(40, 4), b in arb_string(40, 4)) {
        let reference = iterative_combing(&a, &b);
        prop_assert_eq!(&recursive_combing(&a, &b), &reference);
        prop_assert_eq!(&antidiag_combing_branchless(&a, &b), &reference);
        prop_assert_eq!(&load_balanced_combing(&a, &b), &reference);
        prop_assert_eq!(&hybrid_combing(&a, &b, 16), &reference);
    }

    #[test]
    fn string_substring_queries_equal_window_dp(
        a in arb_string(16, 3), b in arb_string(16, 3)
    ) {
        let scores = iterative_combing(&a, &b).index();
        for i in 0..=b.len() {
            for j in i..=b.len() {
                prop_assert_eq!(
                    scores.string_substring(i, j),
                    prefix_rowmajor(&a, &b[i..j])
                );
            }
        }
    }

    #[test]
    fn flip_theorem(a in arb_string(24, 3), b in arb_string(24, 3)) {
        prop_assert_eq!(
            iterative_combing(&a, &b).flip(),
            iterative_combing(&b, &a)
        );
    }

    #[test]
    fn kernel_lcs_bounds(a in arb_string(32, 2), b in arb_string(32, 2)) {
        let scores = iterative_combing(&a, &b).index();
        let lcs = scores.lcs();
        prop_assert!(lcs <= a.len().min(b.len()));
        // monotone in window inclusion
        if !b.is_empty() {
            prop_assert!(scores.string_substring(0, b.len() - 1) <= lcs + 1);
            prop_assert!(scores.string_substring(1, b.len()) <= lcs + 1);
        }
    }

    #[test]
    fn windows_linear_equals_pointwise(
        a in arb_string(24, 3), b in arb_string(24, 3), wsel in 0.0f64..1.0
    ) {
        prop_assume!(!b.is_empty());
        let w = 1 + ((b.len() - 1) as f64 * wsel) as usize;
        let scores = iterative_combing(&a, &b).index();
        prop_assert_eq!(scores.windows_linear(w), scores.windows(w));
    }

    #[test]
    fn h_row_equals_pointwise(a in arb_string(16, 3), b in arb_string(16, 3)) {
        let scores = iterative_combing(&a, &b).index();
        let size = a.len() + b.len();
        for i in (0..=size).step_by(1 + size / 5) {
            let row = scores.h_row(i);
            for (j, &v) in row.iter().enumerate() {
                prop_assert_eq!(v, scores.h(i, j));
            }
        }
    }

    #[test]
    fn simd_combing_equals_scalar(
        a in proptest::collection::vec(0u32..4, 1..128),
        b in proptest::collection::vec(0u32..4, 1..128),
    ) {
        prop_assert_eq!(antidiag_combing_simd(&a, &b), iterative_combing(&a, &b));
        // The same pair as bytes through the engine's scheduled comb: the
        // selected ISA's byte kernel on u16 strand lanes.
        let a: Vec<u8> = a.iter().map(|&c| c as u8).collect();
        let b: Vec<u8> = b.iter().map(|&c| c as u8).collect();
        prop_assert_eq!(
            par_antidiag_combing_branchless_sched(&a, &b, Scheduling::WorkSteal, 8),
            iterative_combing(&a, &b)
        );
    }

    #[test]
    fn edit_distance_triangle_inequality_on_windows(
        a in arb_string(12, 3), b in arb_string(20, 3)
    ) {
        prop_assume!(!b.is_empty());
        let d = EditDistances::new(&a, &b);
        // windows differ by one extension ⇒ distances differ by ≤ 1
        for j in 1..=b.len() {
            for i in 0..j {
                let here = d.distance(i, j) as i64;
                if j > i + 1 {
                    prop_assert!((here - d.distance(i, j - 1) as i64).abs() <= 1);
                    prop_assert!((here - d.distance(i + 1, j) as i64).abs() <= 1);
                }
            }
        }
    }

    #[test]
    fn minimal_windows_contain_the_pattern(
        a in arb_string(6, 2), b in arb_string(24, 2)
    ) {
        prop_assume!(!a.is_empty() && !b.is_empty());
        let m = ApproxMatcher::new(&a, &b);
        for occ in m.minimal_containing_windows() {
            prop_assert_eq!(occ.score, a.len());
            prop_assert_eq!(prefix_rowmajor(&a, &b[occ.start..occ.end]), a.len());
            // minimality in both directions
            if occ.end - occ.start > 1 {
                prop_assert!(
                    prefix_rowmajor(&a, &b[occ.start + 1..occ.end]) < a.len()
                );
                prop_assert!(
                    prefix_rowmajor(&a, &b[occ.start..occ.end - 1]) < a.len()
                );
            }
        }
    }

    // --- LCS implementation equivalence -------------------------------

    #[test]
    fn bit_parallel_equals_dp(a in arb_string(200, 2), b in arb_string(200, 2)) {
        let want = prefix_rowmajor(&a, &b);
        prop_assert_eq!(bit_lcs_new2(&a, &b), want);
        prop_assert_eq!(cipr_lcs(&a, &b), want);
        prop_assert_eq!(hyyro_lcs(&a, &b), want);
    }

    #[test]
    fn alphabet_extension_equals_dp(
        a in arb_string(120, 26), b in arb_string(120, 26)
    ) {
        prop_assert_eq!(bit_lcs_alphabet(&a, &b), prefix_rowmajor(&a, &b));
    }

    #[test]
    fn lcs_is_padding_invariant(
        a in arb_string(60, 2), b in arb_string(60, 2), pad in 1usize..70
    ) {
        // appending mutually non-matching symbols never changes the LCS
        // (the guarantee the bit-parallel padding relies on)
        let mut ax = a.clone();
        ax.extend(std::iter::repeat_n(7u8, pad));
        let mut bx = b.clone();
        bx.extend(std::iter::repeat_n(9u8, pad));
        prop_assert_eq!(
            prefix_rowmajor(&ax, &bx),
            prefix_rowmajor(&a, &b)
        );
        prop_assert_eq!(bit_lcs_alphabet(&ax, &bx), prefix_rowmajor(&a, &b));
    }
}
