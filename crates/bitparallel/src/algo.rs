//! The bit-parallel combing LCS drivers (Listing 8 of the paper and its
//! optimized variants), for binary and small non-binary alphabets.
//!
//! The grid is processed in `w × w` blocks along block anti-diagonals;
//! blocks on one block-diagonal are independent, which is where the
//! thread parallelism (`par_*`) applies. The three paper variants:
//!
//! * `bit_old` — Listing 8 **without** the memory-access optimization:
//!   every sub-grid anti-diagonal reloads and stores its words;
//! * `bit_new_1` — each block is loaded once, combed entirely in
//!   registers, and stored once;
//! * `bit_new_2` — additionally uses the optimized Boolean formula.
//!
//! The final LCS score is `|a| − popcount(h)` (Kernighan count) — padding
//! positions are masked to never match, which leaves the score intact.

use rayon::prelude::*;

use crate::block::{comb_block, step_original, Formula};
use crate::pack::{pack_plane, pack_plane_rev, planes_for, PackedPlane, W};

/// Block-diagonal geometry, mirroring the strand-level version: for
/// block diagonal `d`, blocks are `(h_word h0 + j, v_word v0 + j)`.
#[inline]
fn diag_ranges(hb: usize, vb: usize, d: usize) -> (usize, usize, usize) {
    let j_lo = d.saturating_sub(hb - 1);
    let j_hi = (d + 1).min(vb);
    let h0 = if d < hb { hb - 1 - d } else { 0 };
    (h0, j_lo, j_hi - j_lo)
}

/// How a variant traverses memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MemAccess {
    /// Reload words on every sub-grid anti-diagonal (`bit_old`).
    PerDiagonal,
    /// Load each block once into registers (`bit_new_1` / `bit_new_2`).
    PerBlock(Formula),
}

struct Packed<const P: usize> {
    a_bits: Vec<[u64; P]>,
    b_bits: Vec<[u64; P]>,
    a_valid: Vec<u64>,
    b_valid: Vec<u64>,
}

fn pack_all<const P: usize>(a: &[u8], b: &[u8]) -> Packed<P> {
    let mut a_planes: Vec<PackedPlane> = (0..P as u32).map(|p| pack_plane_rev(a, p)).collect();
    let mut b_planes: Vec<PackedPlane> = (0..P as u32).map(|p| pack_plane(b, p)).collect();
    let hb = a_planes[0].bits.len();
    let vb = b_planes[0].bits.len();
    let mut a_bits = vec![[0u64; P]; hb];
    let mut b_bits = vec![[0u64; P]; vb];
    for (g, word) in a_bits.iter_mut().enumerate() {
        for (p, plane) in a_planes.iter().enumerate() {
            word[p] = plane.bits[g];
        }
    }
    for (g, word) in b_bits.iter_mut().enumerate() {
        for (p, plane) in b_planes.iter().enumerate() {
            word[p] = plane.bits[g];
        }
    }
    let a_valid = std::mem::take(&mut a_planes[0].valid);
    let b_valid = std::mem::take(&mut b_planes[0].valid);
    Packed { a_bits, b_bits, a_valid, b_valid }
}

fn driver<const P: usize>(a: &[u8], b: &[u8], access: MemAccess, parallel: bool) -> usize {
    let m = a.len();
    let n = b.len();
    if m == 0 || n == 0 {
        return 0;
    }
    let packed = pack_all::<P>(a, b);
    let hb = packed.a_bits.len();
    let vb = packed.b_bits.len();
    let mut h = vec![!0u64; hb];
    let mut v = vec![0u64; vb];

    for d in 0..(hb + vb - 1) {
        let (h0, v0, len) = diag_ranges(hb, vb, d);
        let hs = &mut h[h0..h0 + len];
        let vs = &mut v[v0..v0 + len];
        let aw = &packed.a_bits[h0..h0 + len];
        let bw = &packed.b_bits[v0..v0 + len];
        let avw = &packed.a_valid[h0..h0 + len];
        let bvw = &packed.b_valid[v0..v0 + len];
        match access {
            MemAccess::PerBlock(formula) => {
                if parallel {
                    hs.par_iter_mut()
                        .with_min_len(64)
                        .zip(vs.par_iter_mut())
                        .zip(aw.par_iter().zip(bw.par_iter()))
                        .zip(avw.par_iter().zip(bvw.par_iter()))
                        .for_each(|(((h, v), (a, b)), (&av, &bv))| {
                            comb_block(h, v, a, b, av, bv, formula);
                        });
                } else {
                    for j in 0..len {
                        comb_block(&mut hs[j], &mut vs[j], &aw[j], &bw[j], avw[j], bvw[j], formula);
                    }
                }
            }
            MemAccess::PerDiagonal => {
                // bit_old: the inner-diagonal loop is OUTSIDE the block
                // loop, so every step re-touches memory (and, in the
                // parallel case, re-synchronizes and false-shares).
                for d_in in 0..(2 * W - 1) {
                    if parallel {
                        hs.par_iter_mut()
                            .with_min_len(256)
                            .zip(vs.par_iter_mut())
                            .zip(aw.par_iter().zip(bw.par_iter()))
                            .zip(avw.par_iter().zip(bvw.par_iter()))
                            .for_each(|(((h, v), (a, b)), (&av, &bv))| {
                                step_original(h, v, a, b, av, bv, d_in);
                            });
                    } else {
                        for j in 0..len {
                            step_original(
                                &mut hs[j], &mut vs[j], &aw[j], &bw[j], avw[j], bvw[j], d_in,
                            );
                        }
                    }
                }
            }
        }
    }
    hb * W - h.iter().map(|w| w.count_ones() as usize).sum::<usize>()
}

fn assert_binary(s: &[u8], name: &str) {
    assert!(s.iter().all(|&c| c <= 1), "{name} must be a binary string of 0/1 byte values");
}

/// `bit_old`: Listing 8 without the memory-access optimization.
pub fn bit_lcs_old(a: &[u8], b: &[u8]) -> usize {
    assert_binary(a, "a");
    assert_binary(b, "b");
    driver::<1>(a, b, MemAccess::PerDiagonal, false)
}

/// `bit_new_1`: per-block register processing, original formula.
pub fn bit_lcs_new1(a: &[u8], b: &[u8]) -> usize {
    assert_binary(a, "a");
    assert_binary(b, "b");
    driver::<1>(a, b, MemAccess::PerBlock(Formula::Original), false)
}

/// `bit_new_2`: per-block register processing, optimized formula — the
/// paper's fastest configuration (≈16× over hybrid combing, ≈29× over
/// iterative combing on binary strings of length 10⁶).
pub fn bit_lcs_new2(a: &[u8], b: &[u8]) -> usize {
    assert_binary(a, "a");
    assert_binary(b, "b");
    driver::<1>(a, b, MemAccess::PerBlock(Formula::Optimized), false)
}

/// Thread-parallel `bit_old` (Figure 9(a)'s slow configuration: one
/// barrier per sub-grid anti-diagonal plus false sharing).
pub fn par_bit_lcs_old(a: &[u8], b: &[u8]) -> usize {
    assert_binary(a, "a");
    assert_binary(b, "b");
    driver::<1>(a, b, MemAccess::PerDiagonal, true)
}

/// Thread-parallel `bit_new_1`.
pub fn par_bit_lcs_new1(a: &[u8], b: &[u8]) -> usize {
    assert_binary(a, "a");
    assert_binary(b, "b");
    driver::<1>(a, b, MemAccess::PerBlock(Formula::Original), true)
}

/// Thread-parallel `bit_new_2`.
pub fn par_bit_lcs_new2(a: &[u8], b: &[u8]) -> usize {
    assert_binary(a, "a");
    assert_binary(b, "b");
    driver::<1>(a, b, MemAccess::PerBlock(Formula::Optimized), true)
}

/// Small-alphabet extension (the paper's §6 future-work direction):
/// symbols are compared plane-wise (one XNOR per bit plane), everything
/// else — anti-diagonal blocks, carry-free combing, Kernighan count —
/// is unchanged. Supports byte alphabets up to 256 symbols. The σ
/// symbols in use are rank-coded first, so the pair takes ⌈log₂ σ⌉
/// planes whatever its byte values; cost grows by one XNOR+AND per
/// extra plane.
///
/// # Examples
///
/// ```
/// use slcs_bitpar::bit_lcs_alphabet;
/// // DNA as 0..=3
/// let a = [0u8, 1, 2, 3, 0, 1];
/// let b = [1u8, 2, 0, 3, 1];
/// assert_eq!(bit_lcs_alphabet(&a, &b), 4);
/// ```
pub fn bit_lcs_alphabet(a: &[u8], b: &[u8]) -> usize {
    dispatch_planes(a, b, false)
}

/// Thread-parallel [`bit_lcs_alphabet`].
pub fn par_bit_lcs_alphabet(a: &[u8], b: &[u8]) -> usize {
    dispatch_planes(a, b, true)
}

fn dispatch_planes(a: &[u8], b: &[u8], parallel: bool) -> usize {
    let (a, b, planes) = rank_code(a, b);
    let (a, b) = (&a[..], &b[..]);
    let access = MemAccess::PerBlock(Formula::Optimized);
    match planes {
        1 => driver::<1>(a, b, access, parallel),
        2 => driver::<2>(a, b, access, parallel),
        3 => driver::<3>(a, b, access, parallel),
        4 => driver::<4>(a, b, access, parallel),
        5 => driver::<5>(a, b, access, parallel),
        6 => driver::<6>(a, b, access, parallel),
        7 => driver::<7>(a, b, access, parallel),
        _ => driver::<8>(a, b, access, parallel),
    }
}

/// Rank-codes the σ distinct bytes `a` and `b` use to `0..σ`, in byte
/// order, and returns the coded copies with their plane count
/// ⌈log₂ σ⌉ (at least 1). The planes then follow σ, not the largest
/// byte value: ASCII "ACGT" needs 2, not 7. LCS only tests symbols for
/// equality, so the coding leaves the score unchanged.
fn rank_code(a: &[u8], b: &[u8]) -> (Vec<u8>, Vec<u8>, u32) {
    let mut seen = [false; 256];
    for &c in a.iter().chain(b) {
        seen[usize::from(c)] = true;
    }
    let mut rank = [0u8; 256];
    let mut sigma = 0usize;
    for c in (0..256).filter(|&c| seen[c]) {
        rank[c] = sigma as u8; // at most 255: one rank per distinct byte
        sigma += 1;
    }
    let code = |s: &[u8]| s.iter().map(|&c| rank[usize::from(c)]).collect();
    (code(a), code(b), planes_for(sigma.saturating_sub(1) as u8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};
    use slcs_baselines::prefix_rowmajor;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xB17A)
    }

    fn random_binary(rng: &mut impl rand::Rng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.random_range(0..2u8)).collect()
    }

    /// Reproduces the §4.4 / Figure 3 worked example end to end.
    #[test]
    fn paper_figure3_example() {
        let a = [1u8, 0, 0, 0];
        let b = [0u8, 1, 0, 0];
        let want = prefix_rowmajor(&a, &b);
        assert_eq!(want, 3);
        assert_eq!(bit_lcs_old(&a, &b), 3);
        assert_eq!(bit_lcs_new1(&a, &b), 3);
        assert_eq!(bit_lcs_new2(&a, &b), 3);
    }

    #[test]
    fn all_variants_match_dp_on_random_binary() {
        let mut rng = rng();
        for _ in 0..25 {
            let m = rng.random_range(0..300);
            let n = rng.random_range(0..300);
            let a = random_binary(&mut rng, m);
            let b = random_binary(&mut rng, n);
            let want = prefix_rowmajor(&a, &b);
            assert_eq!(bit_lcs_old(&a, &b), want, "old m={m} n={n}");
            assert_eq!(bit_lcs_new1(&a, &b), want, "new1 m={m} n={n}");
            assert_eq!(bit_lcs_new2(&a, &b), want, "new2 m={m} n={n}");
            assert_eq!(par_bit_lcs_old(&a, &b), want, "par old");
            assert_eq!(par_bit_lcs_new1(&a, &b), want, "par new1");
            assert_eq!(par_bit_lcs_new2(&a, &b), want, "par new2");
        }
    }

    #[test]
    fn word_boundary_lengths() {
        let mut rng = rng();
        for m in [1usize, 63, 64, 65, 128, 192, 200] {
            for n in [1usize, 64, 100, 128] {
                let a = random_binary(&mut rng, m);
                let b = random_binary(&mut rng, n);
                let want = prefix_rowmajor(&a, &b);
                assert_eq!(bit_lcs_new2(&a, &b), want, "m={m} n={n}");
            }
        }
    }

    #[test]
    fn identical_and_disjoint_inputs() {
        let ones = vec![1u8; 150];
        let zeros = vec![0u8; 150];
        assert_eq!(bit_lcs_new2(&ones, &ones), 150);
        assert_eq!(bit_lcs_new2(&ones, &zeros), 0);
        assert_eq!(bit_lcs_old(&ones, &zeros), 0);
        assert_eq!(bit_lcs_new2(&[], &ones), 0);
        assert_eq!(bit_lcs_new2(&ones, &[]), 0);
    }

    #[test]
    #[should_panic(expected = "binary string")]
    fn binary_variants_reject_larger_alphabets() {
        bit_lcs_new2(&[0, 1, 2], &[0, 1]);
    }

    #[test]
    fn alphabet_extension_matches_dp() {
        let mut rng = rng();
        for sigma in [2u8, 3, 4, 8, 26, 255] {
            for _ in 0..6 {
                let m = rng.random_range(0..200);
                let n = rng.random_range(0..200);
                let a: Vec<u8> = (0..m).map(|_| rng.random_range(0..sigma)).collect();
                let b: Vec<u8> = (0..n).map(|_| rng.random_range(0..sigma)).collect();
                let want = prefix_rowmajor(&a, &b);
                assert_eq!(bit_lcs_alphabet(&a, &b), want, "σ={sigma} m={m} n={n}");
                assert_eq!(par_bit_lcs_alphabet(&a, &b), want, "par σ={sigma}");
            }
        }
    }

    #[test]
    fn planes_follow_sigma_not_the_largest_byte() {
        let planes = |a: &[u8], b: &[u8]| rank_code(a, b).2;
        assert_eq!(planes(b"ACGTTGCA", b"GATTACA"), 2);
        assert_eq!(planes(&[0, 255, 0], &[255]), 1);
        assert_eq!(planes(b"TTTT", b"TT"), 1);
        assert_eq!(planes(b"", b""), 1);
        let all: Vec<u8> = (0..=255).collect();
        assert_eq!(planes(&all, b""), 8);
        let (a, b, _) = rank_code(b"TAG", b"GCT");
        assert_eq!((a, b), (vec![3, 0, 2], vec![2, 1, 3]), "ranks follow byte order");
    }

    #[test]
    fn ascii_pairs_and_their_rank_codes_both_match_dp() {
        let mut rng = rng();
        let mut ascii = |len: usize| -> Vec<u8> {
            (0..len).map(|_| b"ACGT"[rng.random_range(0..4usize)]).collect()
        };
        for (m, n) in [(1usize, 1usize), (63, 65), (150, 200), (300, 129)] {
            let (a, b) = (ascii(m), ascii(n));
            let want = prefix_rowmajor(&a, &b);
            let (ra, rb, planes) = rank_code(&a, &b);
            assert!(planes <= 2, "σ ≤ 4 takes at most 2 planes, got {planes}");
            assert_eq!(bit_lcs_alphabet(&a, &b), want, "ASCII m={m} n={n}");
            assert_eq!(bit_lcs_alphabet(&ra, &rb), want, "rank-coded m={m} n={n}");
            assert_eq!(par_bit_lcs_alphabet(&a, &b), want, "par ASCII m={m} n={n}");
        }
        let all: Vec<u8> = (0..=255).rev().collect();
        let mixed: Vec<u8> = (0..=255u8).map(|c| c.wrapping_mul(37)).collect();
        assert_eq!(bit_lcs_alphabet(&all, &mixed), prefix_rowmajor(&all, &mixed));
    }

    #[test]
    fn long_run_stress_against_dp() {
        let mut rng = rng();
        let a = random_binary(&mut rng, 2000);
        let b = random_binary(&mut rng, 1500);
        assert_eq!(bit_lcs_new2(&a, &b), prefix_rowmajor(&a, &b));
    }
}
