//! Oracle tests for the output-sensitive edit-distance subsystem
//! (`slcs-osed`): the Landau–Vishkin diagonal BFS — exact and bounded —
//! against the O(nm) DP reference, against the LCS algorithms via the
//! classical distance/LCS identities, and on the boundary shapes the
//! BFS window arithmetic has to survive; and its direct 8-byte slide
//! (`lce`) against the suffix-array LCP oracle it replaced.

use proptest::prelude::*;

use semilocal_suite::baselines::{edit_distance as dp_edit_distance, prefix_rowmajor};
use semilocal_suite::datagen::{
    mutate_symbols, seeded_rng, similar_pair, uniform_string, MutationModel,
};
use semilocal_suite::osed::{
    edit_distance, edit_distance_bounded, lce, par_edit_distance, LcpOracle,
};

fn arb_string(max_len: usize, sigma: u8) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0..sigma, 0..=max_len)
}

/// A near-identical pair at one of the similarity levels the dispatcher
/// routes to osed, plus arbitrary-seed determinism.
fn similar_inputs(max_len: usize) -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (64..=max_len, 0u64..1 << 32, 0usize..3).prop_map(|(len, seed, which)| {
        let p = [0.002, 0.01, 0.05][which];
        similar_pair(&mut seeded_rng(seed), len, 4, p)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- the DP reference is the ground truth ----------------------

    #[test]
    fn bfs_matches_dp_on_arbitrary_strings(
        a in arb_string(64, 4), b in arb_string(64, 4)
    ) {
        prop_assert_eq!(edit_distance(&a, &b), dp_edit_distance(&a, &b));
    }

    #[test]
    fn bfs_matches_dp_on_similar_pairs((a, b) in similar_inputs(512)) {
        prop_assert_eq!(edit_distance(&a, &b), dp_edit_distance(&a, &b));
    }

    #[test]
    fn slide_matches_the_lcp_oracle_on_binary_strings(
        a in arb_string(96, 2), b in arb_string(96, 2)
    ) {
        // Two symbols make long runs, so most queries pass the oracle's
        // 8-byte probe into its RMQ and the slide's word loop.
        let oracle = LcpOracle::build(&a, &b);
        for i in 0..=a.len() {
            for j in 0..=b.len() {
                prop_assert_eq!(lce(&a, &b, i, j), oracle.lcp(i, j), "({}, {})", i, j);
            }
        }
    }

    // --- the alias and the bounded variant agree -------------------

    #[test]
    fn parallel_bfs_is_bit_equivalent((a, b) in similar_inputs(512)) {
        prop_assert_eq!(par_edit_distance(&a, &b), edit_distance(&a, &b));
    }

    #[test]
    fn bounded_bfs_is_exact_at_the_bound_and_none_below(
        a in arb_string(48, 4), b in arb_string(48, 4), slack in 0usize..4
    ) {
        let d = edit_distance(&a, &b);
        prop_assert_eq!(edit_distance_bounded(&a, &b, d + slack), Some(d));
        if d > 0 {
            prop_assert_eq!(edit_distance_bounded(&a, &b, d - 1), None);
        }
    }

    // --- consistency with the LCS half of the workspace ------------

    #[test]
    fn distance_is_sandwiched_by_the_lcs_identities(
        a in arb_string(64, 3), b in arb_string(64, 3)
    ) {
        // Unit-cost substitutions make Levenshtein at most the
        // indel-only distance n + m − 2·lcs and at least the
        // length-vs-subsequence bound max(n, m) − lcs.
        let lcs = prefix_rowmajor(&a, &b);
        let d = edit_distance(&a, &b);
        prop_assert!(d <= a.len() + b.len() - 2 * lcs);
        prop_assert!(d >= a.len().max(b.len()) - lcs);
    }

    #[test]
    fn deletion_only_pairs_hit_the_lcs_identity_exactly(
        seed in 0u64..1 << 32, len in 32usize..256
    ) {
        // When `b` is a subsequence of `a`, lcs = |b| and the optimal
        // alignment is pure deletion, so ed = n + m − 2·lcs exactly.
        let mut rng = seeded_rng(seed);
        let a = uniform_string(&mut rng, len, 4);
        let model = MutationModel { substitution: 0.0, insertion: 0.0, deletion: 0.1 };
        let b = mutate_symbols(&mut rng, &a, &model, 4);
        prop_assert_eq!(prefix_rowmajor(&a, &b), b.len());
        prop_assert_eq!(edit_distance(&a, &b), a.len() + b.len() - 2 * b.len());
    }
}

// --- boundary shapes ---------------------------------------------------

#[test]
fn empty_and_equal_inputs() {
    assert_eq!(edit_distance(b"", b""), 0);
    assert_eq!(edit_distance(b"", b"abc"), 3);
    assert_eq!(edit_distance(b"abc", b""), 3);
    assert_eq!(par_edit_distance(b"", b"abc"), 3);
    assert_eq!(edit_distance_bounded(b"", b"abc", 2), None);
    assert_eq!(edit_distance_bounded(b"", b"abc", 3), Some(3));
    let long = vec![7u8; 1000];
    assert_eq!(edit_distance(&long, &long), 0);
    assert_eq!(edit_distance_bounded(&long, &long, 0), Some(0));
}

#[test]
fn disjoint_alphabets_cost_one_substitution_per_overlap() {
    // No symbol ever matches, so the best alignment substitutes along
    // the shorter string and inserts the rest: max(n, m) edits.
    for (n, m) in [(1usize, 1usize), (5, 5), (3, 9), (40, 17)] {
        let a = vec![1u8; n];
        let b = vec![2u8; m];
        assert_eq!(edit_distance(&a, &b), n.max(m), "{n} vs {m}");
        assert_eq!(par_edit_distance(&a, &b), n.max(m));
        assert_eq!(dp_edit_distance(&a, &b), n.max(m));
    }
}

/// The `m + n = 2^16` boundary: diagonal ids and rows stay well inside
/// `i32`, the BFS window never indexes out of the frontier, and the
/// bounded variant is exact at `d` and proves `> d − 1`. (The DP oracle
/// is a thousand times too slow here; substitution-only mutation pins
/// the length so hamming distance is an upper bound and the length gap
/// a lower one.)
#[test]
fn two_power_sixteen_total_length_is_exact() {
    let mut rng = seeded_rng(95);
    let a = uniform_string(&mut rng, 1 << 15, 4);
    let model = MutationModel { substitution: 0.002, insertion: 0.0, deletion: 0.0 };
    let b = mutate_symbols(&mut rng, &a, &model, 4);
    assert_eq!(a.len() + b.len(), 1 << 16);
    let hamming = a.iter().zip(&b).filter(|(x, y)| x != y).count();
    let d = edit_distance(&a, &b);
    assert!(d <= hamming, "{d} > hamming {hamming}");
    assert_eq!(edit_distance_bounded(&a, &b, d), Some(d));
    if d > 0 {
        assert_eq!(edit_distance_bounded(&a, &b, d - 1), None);
    }
}

/// Checks the BFS, exact and bounded at `d` and `d − 1`, against the DP.
fn assert_bfs_matches_dp(a: &[u8], b: &[u8], label: &str) {
    let d = dp_edit_distance(a, b);
    assert_eq!(edit_distance(a, b), d, "{label}");
    assert_eq!(edit_distance_bounded(a, b, d), Some(d), "{label}: bounded at d");
    if d > 0 {
        assert_eq!(edit_distance_bounded(a, b, d - 1), None, "{label}: bounded at d - 1");
    }
}

/// Low-complexity families, where slides run longest and many alignments
/// tie: one-symbol runs with point edits (A^n vs A^m), (AC)^n against
/// shifted, stretched and edited copies, and period-7 tandem repeats
/// with a unit dropped or a symbol changed.
#[test]
fn low_complexity_families_match_dp() {
    for (n, m) in [(1usize, 1usize), (1, 9), (8, 9), (63, 64), (100, 37), (200, 200)] {
        let (a, b) = (vec![b'A'; n], vec![b'A'; m]);
        assert_bfs_matches_dp(&a, &b, &format!("A^{n} vs A^{m}"));
        let mut sub = b.clone();
        sub[m / 2] = b'C';
        assert_bfs_matches_dp(&a, &sub, &format!("A^{n} vs A^{m} with a C"));
        let mut ins = a.clone();
        ins.insert(n / 3, b'G');
        assert_bfs_matches_dp(&ins, &b, &format!("A^{n} with a G vs A^{m}"));
    }
    for n in [1usize, 4, 33, 100] {
        let ac = b"AC".repeat(n);
        assert_bfs_matches_dp(&ac, &b"AC".repeat(n + 3), &format!("(AC)^{n} vs (AC)^{}", n + 3));
        assert_bfs_matches_dp(&ac, &ac[1..], &format!("(AC)^{n} vs itself shifted by one"));
        let mut edited = ac.clone();
        edited[n] = b'T';
        edited.push(b'A');
        assert_bfs_matches_dp(&ac, &edited, &format!("(AC)^{n} vs an edited copy"));
    }
    let unit = b"ACGTTGA";
    for copies in [1usize, 3, 10, 30] {
        let a = unit.repeat(copies);
        assert_bfs_matches_dp(&a, &unit.repeat(copies + 2), &format!("{copies} vs +2 units"));
        let mut dropped = a.clone();
        dropped.drain(copies / 2 * 7..copies / 2 * 7 + 7);
        assert_bfs_matches_dp(&a, &dropped, &format!("{copies} units, one dropped"));
        let mut changed = a.clone();
        changed[copies * 7 / 3] = b'C';
        assert_bfs_matches_dp(&a, &changed, &format!("{copies} units, one changed"));
    }
}

/// Match runs of every length 0..=24 (so ending at every offset mod 8,
/// three times over) between two planted edits, over distinct bytes so
/// each slide stops exactly at the next edit; and pairs where one string
/// is a prefix of the other.
#[test]
fn match_runs_end_at_every_offset_mod_8_and_prefixes_cost_the_gap() {
    let base: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(7).wrapping_add(3)).collect();
    for first in 0..9 {
        for run in 0..=24 {
            let second = first + 1 + run;
            let mut sub = base.clone();
            sub[first] ^= 0x80;
            sub[second] ^= 0x80;
            assert_bfs_matches_dp(&base, &sub, &format!("substitutions at {first}, {second}"));
            let mut indel = base.clone();
            indel.remove(second);
            indel.insert(first, 0xff);
            assert_bfs_matches_dp(&base, &indel, &format!("insert at {first}, delete {second}"));
        }
    }
    let runs = [b'A'; 40];
    for len in 0..=40 {
        for s in [&base[..], &runs[..]] {
            assert_eq!(edit_distance(&s[..len], s), s.len() - len, "prefix {len} of {s:?}");
            assert_eq!(edit_distance(s, &s[..len]), s.len() - len, "{s:?} vs its prefix {len}");
        }
    }
}

/// The slide against the suffix-array oracle at every `(i, j)`, on
/// inputs that use all 256 byte values, long equal runs and repeats —
/// including `i = |a|` and `j = |b|`, where both answer 0.
#[test]
fn slide_matches_the_lcp_oracle_at_every_position() {
    let all: Vec<u8> = (0..=255).collect();
    let rotated = [&all[100..], &all[..100]].concat();
    let scattered: Vec<u8> = (0..300u32).map(|i| (i * 37 % 256) as u8).collect();
    let cases: [(&[u8], &[u8]); 6] = [
        (&all, &all),
        (&all, &rotated),
        (&scattered, &all),
        (b"abracadabra, abracadabra", b"abracedabracadabra"),
        (&[0u8; 40], &[0u8; 33]),
        (b"", &all),
    ];
    for (a, b) in cases {
        let oracle = LcpOracle::build(a, b);
        for i in 0..=a.len() {
            for j in 0..=b.len() {
                assert_eq!(lce(a, b, i, j), oracle.lcp(i, j), "({i}, {j}) of {a:?} vs {b:?}");
            }
        }
    }
}
