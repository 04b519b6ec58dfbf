//! Kernel-equivalence tests for the parallel anti-diagonal drivers: every
//! scheduling mode and element width must produce a kernel bit-identical
//! to the sequential row-major combing, for arbitrary inputs, for any
//! team size the pool happens to form, and at the `m + n = 2^16` capacity
//! boundary of the 16-bit variant.
//!
//! This binary pins `SLCS_PAR_GRAIN` (before any kernel runs, so the
//! once-resolved grain is deterministic) to a value small enough that the
//! team path actually activates on test-sized inputs — which also
//! exercises the env-override plumbing itself.

use proptest::prelude::*;

use semilocal_suite::semilocal::load_balanced::par_load_balanced_combing;
use semilocal_suite::semilocal::{
    iterative_combing, par_antidiag_combing, par_antidiag_combing_branchless,
    par_antidiag_combing_branchless_sched, par_antidiag_combing_u16, par_grain, Scheduling,
};

/// Sets the grain override exactly once, before the first `par_grain()`
/// call in this process. Every test calls this first.
fn small_grain() -> usize {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| std::env::set_var("SLCS_PAR_GRAIN", "48"));
    par_grain()
}

fn arb_string(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec((0u8..4).prop_map(|s| b"acgt"[s as usize]), 0..max)
}

#[test]
fn par_grain_env_override_is_observed() {
    assert_eq!(small_grain(), 48);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All default-grain parallel variants match the sequential kernel.
    #[test]
    fn parallel_variants_match_iterative((a, b) in (arb_string(220), arb_string(220))) {
        small_grain();
        let expected = iterative_combing(&a, &b);
        prop_assert_eq!(&par_antidiag_combing(&a, &b), &expected);
        prop_assert_eq!(&par_antidiag_combing_branchless(&a, &b), &expected);
        prop_assert_eq!(&par_antidiag_combing_u16(&a, &b), &expected);
        prop_assert_eq!(&par_load_balanced_combing(&a, &b), &expected);
    }

    /// Every scheduling mode agrees, across explicit grains that force
    /// multi-member teams and multi-chunk diagonals.
    #[test]
    fn scheduling_modes_match_iterative(
        (a, b) in (arb_string(180), arb_string(180)),
        grain in 1usize..64,
    ) {
        small_grain();
        let expected = iterative_combing(&a, &b);
        // Every fixed mode plus Auto (which resolves through the tuning
        // profile — builtin work stealing here, since tests run without
        // a perf/tuning.json in their working directory).
        for sched in Scheduling::FIXED.into_iter().chain([Scheduling::Auto]) {
            let got = par_antidiag_combing_branchless_sched(&a, &b, sched, grain);
            prop_assert_eq!(&got, &expected, "sched={:?} grain={}", sched, grain);
        }
    }
}

/// The u16 variants pack strand indices into 16 bits, so `m + n` may be
/// at most 65536. Exercise one short of that boundary, exactly that
/// boundary, and one past it (with a skewed shape so the test stays
/// fast). Past it only the scheduled sweep applies: its strands switch
/// to u32, where `par_antidiag_combing_u16` rightly panics.
#[test]
fn u16_boundary_at_exactly_two_pow_16() {
    small_grain();
    let mut rng = semilocal_suite::datagen::seeded_rng(7);
    let n = 200usize;
    for total in [(1usize << 16) - 1, 1 << 16, (1 << 16) + 1] {
        let m = total - n;
        let a = semilocal_suite::datagen::uniform_string(&mut rng, m, 4);
        let b = semilocal_suite::datagen::uniform_string(&mut rng, n, 4);
        let expected = iterative_combing(&a, &b);
        if total <= 1 << 16 {
            assert_eq!(par_antidiag_combing_u16(&a, &b), expected, "m={m} n={n}");
        }
        // The boundary must also hold under the coordinated sweeps with
        // a grain small enough to split the short diagonals: the barrier
        // team and the barrier-free work-stealing sweep.
        for sched in [Scheduling::Team, Scheduling::WorkSteal] {
            let got = par_antidiag_combing_branchless_sched(&a, &b, sched, 16);
            assert_eq!(got, expected, "{:?} m={m} n={n}", sched);
        }
    }
}

/// Team results are independent of the thread budget (and hence of the
/// team size actually formed).
#[test]
fn team_results_independent_of_thread_budget() {
    small_grain();
    let mut rng = semilocal_suite::datagen::seeded_rng(11);
    let a = semilocal_suite::datagen::uniform_string(&mut rng, 500, 4);
    let b = semilocal_suite::datagen::uniform_string(&mut rng, 350, 4);
    let expected = iterative_combing(&a, &b);
    for threads in [1usize, 2, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let got = pool.install(|| par_antidiag_combing_branchless(&a, &b));
        assert_eq!(got, expected, "threads={threads}");
        let lb = pool.install(|| par_load_balanced_combing(&a, &b));
        assert_eq!(lb, expected, "load-balanced threads={threads}");
    }
}
