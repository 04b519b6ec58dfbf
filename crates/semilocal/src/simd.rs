//! Explicit SIMD anti-diagonal combing (x86-64), and the one place that
//! picks a diagonal kernel for the running CPU.
//!
//! The paper's `semi_antidiag_SIMD` is hand-written AVX2, and its §6
//! names AVX-512's *masked pairwise minimum/maximum* as a perfect match
//! for the combing inner loop:
//!
//! ```text
//! mismatch lanes:  h' = min(h, v), v' = max(h, v)   (swap iff h > v)
//! match lanes:     h' = v,         v' = h           (always swap)
//! ```
//!
//! Two kernel families implement it, each per diagonal slice with a
//! scalar (or masked) tail:
//!
//! * **bytes on `u16` strand lanes** — what
//!   [`par_antidiag_combing_branchless_sched`](crate::par_antidiag_combing_branchless_sched)
//!   hands to every sweep it drives when `m + n ≤ 2¹⁶` (the paper's
//!   16-bit variant, §4.1). AVX-512BW combs 32 lanes with the masked
//!   min/max above; AVX2 combs 16 lanes with unsigned min/max and the
//!   byte-equality mask sign-extended to 16 bits. Strand ids reach
//!   65535 at `m + n = 2¹⁶`, above `i16::MAX`, so every compare is
//!   unsigned.
//! * **`u32` characters on `u32` lanes** — [`antidiag_combing_simd`]:
//!   AVX-512F (16 lanes) or AVX2 (8 lanes, signed compares, exact while
//!   strand ids stay below `i32::MAX`).
//!
//! `selected` decides once per process: `avx512` when the CPU has
//! AVX-512 F+BW+VL, else `avx2`, else `scalar` (the portable branchless
//! loop). Every ISA yields the identical kernel (cross-tested): any
//! comparator order that respects the grid's dependencies does.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::sync::OnceLock;

use crate::antidiag::{branchless_slice, sweep};
use crate::kernel::SemiLocalKernel;

/// An instruction set a diagonal kernel is written for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// The portable branchless loop.
    Scalar,
    /// 256-bit AVX2.
    Avx2,
    /// 512-bit AVX-512 (F+BW+VL).
    Avx512,
}

impl Isa {
    /// Every ISA, worst to best. A value's position here is `isa as usize`.
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Avx2, Isa::Avx512];

    /// Stable label: STATS `simd=` and the `isa` of
    /// `slcs_comb_kernel_total`.
    pub fn token(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Whether the running CPU can execute this ISA's kernels.
    fn detected(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512vl")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// The ISAs the running CPU can execute, worst to best.
pub(crate) fn available() -> impl Iterator<Item = Isa> {
    Isa::ALL.into_iter().filter(|isa| isa.detected())
}

/// The ISA this process combs with: the best one the CPU has, chosen
/// on first use and fixed for the process.
pub(crate) fn selected() -> Isa {
    static SELECTED: OnceLock<Isa> = OnceLock::new();
    *SELECTED.get_or_init(|| available().last().unwrap_or(Isa::Scalar))
}

/// Label of the ISA this process combs with: the best one the CPU has,
/// chosen once.
pub fn simd_support() -> &'static str {
    selected().token()
}

/// Largest `m + n` whose strand ids fit `u16` lanes.
const U16_STRANDS: usize = 1 << 16;

/// The byte kernel
/// [`par_antidiag_combing_branchless_sched`](crate::par_antidiag_combing_branchless_sched)
/// hands its sweeps for an `m × n` grid: `selected` on `u16` strand
/// lanes while `m + n ≤ 2¹⁶`; `None` above that, where strands need
/// `u32` lanes and the sweeps run the scalar loop.
pub(crate) fn byte_kernel(m: usize, n: usize) -> Option<Isa> {
    (m + n <= U16_STRANDS).then(selected)
}

/// The ISA
/// [`par_antidiag_combing_branchless_sched`](crate::par_antidiag_combing_branchless_sched)
/// combs an `m × n` byte grid with — what the engine counts per comb.
pub fn comb_kernel(m: usize, n: usize) -> Isa {
    byte_kernel(m, n).unwrap_or(Isa::Scalar)
}

/// Anti-diagonal combing of `u32` characters with explicit SIMD on the
/// ISA this process selected ([`simd_support`] names it).
///
/// # Panics
///
/// Panics if `m + n ≥ i32::MAX` (AVX2 lane compares are signed).
pub fn antidiag_combing_simd(a: &[u32], b: &[u32]) -> SemiLocalKernel {
    assert!(a.len() + b.len() < i32::MAX as usize, "SIMD combing requires m + n < 2³¹");
    let isa = selected();
    sweep::<_, u32, _>(a, b, |ar, bs, hs, vs| {
        // SAFETY: `isa` comes from `selected`, which only returns ISAs
        // the running CPU has.
        unsafe { comb_diag_u32(isa, ar, bs, hs, vs) }
    })
}

/// Combs one diagonal slice of `u32` characters with `isa`'s kernel.
///
/// # Safety
///
/// The running CPU must support `isa` (`available` lists those).
unsafe fn comb_diag_u32(isa: Isa, ar: &[u32], bs: &[u32], hs: &mut [u32], vs: &mut [u32]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller guarantees AVX2.
        Isa::Avx2 => unsafe { diag_avx2(ar, bs, hs, vs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller guarantees AVX-512 F+BW+VL, a superset of
        // the AVX-512F this kernel needs.
        Isa::Avx512 => unsafe { diag_avx512(ar, bs, hs, vs) },
        _ => branchless_slice(ar, bs, hs, vs),
    }
}

/// Combs one diagonal slice of bytes on `u16` strand lanes with `isa`'s
/// kernel — the kernel
/// [`par_antidiag_combing_branchless_sched`](crate::par_antidiag_combing_branchless_sched)
/// hands to its sweeps.
///
/// # Safety
///
/// The running CPU must support `isa` (`available` lists those).
#[inline]
pub(crate) unsafe fn comb_diag_bytes(
    isa: Isa,
    ar: &[u8],
    bs: &[u8],
    hs: &mut [u16],
    vs: &mut [u16],
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller guarantees AVX2.
        Isa::Avx2 => unsafe { bytes_avx2(ar, bs, hs, vs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller guarantees AVX-512 F+BW+VL.
        Isa::Avx512 => unsafe { bytes_avx512(ar, bs, hs, vs) },
        _ => branchless_slice(ar, bs, hs, vs),
    }
}

/// One diagonal with AVX2: 8 lanes of `u32`, blend-based conditional swap.
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn diag_avx2(ar: &[u32], bs: &[u32], hs: &mut [u32], vs: &mut [u32]) {
    let len = ar.len().min(bs.len()).min(hs.len()).min(vs.len());
    let lanes = 8usize;
    let mut k = 0usize;
    // SAFETY: every pointer offset is bounded by the `k + lanes <= len` loop
    // guard, and the unaligned load/store intrinsics carry no alignment
    // requirement; the target feature is guaranteed by the caller's contract.
    unsafe {
        while k + lanes <= len {
            let h = _mm256_loadu_si256(hs.as_ptr().add(k).cast());
            let v = _mm256_loadu_si256(vs.as_ptr().add(k).cast());
            let ac = _mm256_loadu_si256(ar.as_ptr().add(k).cast());
            let bc = _mm256_loadu_si256(bs.as_ptr().add(k).cast());
            let meq = _mm256_cmpeq_epi32(ac, bc);
            // strand ids < 2³¹, so the signed compare is exact
            let mgt = _mm256_cmpgt_epi32(h, v);
            let p = _mm256_or_si256(meq, mgt);
            let nh = _mm256_blendv_epi8(h, v, p);
            let nv = _mm256_blendv_epi8(v, h, p);
            _mm256_storeu_si256(hs.as_mut_ptr().add(k).cast(), nh);
            _mm256_storeu_si256(vs.as_mut_ptr().add(k).cast(), nv);
            k += lanes;
        }
    }
    branchless_slice(&ar[k..], &bs[k..], &mut hs[k..], &mut vs[k..]);
}

/// One diagonal with AVX-512F: 16 lanes, the paper's masked min/max form.
///
/// # Safety
///
/// Requires AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn diag_avx512(ar: &[u32], bs: &[u32], hs: &mut [u32], vs: &mut [u32]) {
    let len = ar.len().min(bs.len()).min(hs.len()).min(vs.len());
    let lanes = 16usize;
    let mut k = 0usize;
    // SAFETY: every pointer offset is bounded by the `k + lanes <= len` loop
    // guard, and the unaligned load/store intrinsics carry no alignment
    // requirement; the target feature is guaranteed by the caller's contract.
    unsafe {
        while k + lanes <= len {
            let h = _mm512_loadu_si512(hs.as_ptr().add(k).cast());
            let v = _mm512_loadu_si512(vs.as_ptr().add(k).cast());
            let ac = _mm512_loadu_si512(ar.as_ptr().add(k).cast());
            let bc = _mm512_loadu_si512(bs.as_ptr().add(k).cast());
            let meq = _mm512_cmpeq_epu32_mask(ac, bc);
            // mismatch lanes sort the pair; match lanes swap outright:
            // h' = meq ? v : min(h, v);  v' = meq ? h : max(h, v)
            let hmin = _mm512_min_epu32(h, v);
            let hmax = _mm512_max_epu32(h, v);
            let nh = _mm512_mask_blend_epi32(meq, hmin, v);
            let nv = _mm512_mask_blend_epi32(meq, hmax, h);
            _mm512_storeu_si512(hs.as_mut_ptr().add(k).cast(), nh);
            _mm512_storeu_si512(vs.as_mut_ptr().add(k).cast(), nv);
            k += lanes;
        }
    }
    branchless_slice(&ar[k..], &bs[k..], &mut hs[k..], &mut vs[k..]);
}

/// One diagonal of bytes with AVX2: 16 `u16` strand lanes. The 16-byte
/// equality mask is sign-extended to 16 bits per lane (0xFF → 0xFFFF),
/// and the unsigned `min`/`max` sort the mismatch lanes.
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn bytes_avx2(ar: &[u8], bs: &[u8], hs: &mut [u16], vs: &mut [u16]) {
    let len = ar.len().min(bs.len()).min(hs.len()).min(vs.len());
    let lanes = 16usize;
    let mut k = 0usize;
    // SAFETY: every pointer offset is bounded by the `k + lanes <= len` loop
    // guard, and the unaligned load/store intrinsics carry no alignment
    // requirement; the target feature is guaranteed by the caller's contract.
    unsafe {
        while k + lanes <= len {
            let ac = _mm_loadu_si128(ar.as_ptr().add(k).cast());
            let bc = _mm_loadu_si128(bs.as_ptr().add(k).cast());
            let meq = _mm256_cvtepi8_epi16(_mm_cmpeq_epi8(ac, bc));
            let h = _mm256_loadu_si256(hs.as_ptr().add(k).cast());
            let v = _mm256_loadu_si256(vs.as_ptr().add(k).cast());
            let nh = _mm256_blendv_epi8(_mm256_min_epu16(h, v), v, meq);
            let nv = _mm256_blendv_epi8(_mm256_max_epu16(h, v), h, meq);
            _mm256_storeu_si256(hs.as_mut_ptr().add(k).cast(), nh);
            _mm256_storeu_si256(vs.as_mut_ptr().add(k).cast(), nv);
            k += lanes;
        }
    }
    branchless_slice(&ar[k..], &bs[k..], &mut hs[k..], &mut vs[k..]);
}

/// One diagonal of bytes with AVX-512BW: 32 `u16` strand lanes in the
/// paper's masked min/max form; the ragged tail runs the same
/// instructions under a lane mask instead of a scalar loop.
///
/// # Safety
///
/// Requires AVX-512 F+BW+VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn bytes_avx512(ar: &[u8], bs: &[u8], hs: &mut [u16], vs: &mut [u16]) {
    let len = ar.len().min(bs.len()).min(hs.len()).min(vs.len());
    let lanes = 32usize;
    let mut k = 0usize;
    // SAFETY: full-width offsets are bounded by the `k + lanes <= len`
    // loop guard; the tail's masked loads and stores touch only the
    // `len - k < 32` lanes its mask enables, all in bounds. The unaligned
    // intrinsics carry no alignment requirement, and the target features
    // are guaranteed by the caller's contract.
    unsafe {
        while k + lanes <= len {
            let ac = _mm256_loadu_si256(ar.as_ptr().add(k).cast());
            let bc = _mm256_loadu_si256(bs.as_ptr().add(k).cast());
            let meq = _mm256_cmpeq_epi8_mask(ac, bc);
            let h = _mm512_loadu_si512(hs.as_ptr().add(k).cast());
            let v = _mm512_loadu_si512(vs.as_ptr().add(k).cast());
            let nh = _mm512_mask_blend_epi16(meq, _mm512_min_epu16(h, v), v);
            let nv = _mm512_mask_blend_epi16(meq, _mm512_max_epu16(h, v), h);
            _mm512_storeu_si512(hs.as_mut_ptr().add(k).cast(), nh);
            _mm512_storeu_si512(vs.as_mut_ptr().add(k).cast(), nv);
            k += lanes;
        }
        if k < len {
            let live: __mmask32 = (1u32 << (len - k)) - 1;
            let ac = _mm256_maskz_loadu_epi8(live, ar.as_ptr().add(k).cast());
            let bc = _mm256_maskz_loadu_epi8(live, bs.as_ptr().add(k).cast());
            let meq = _mm256_cmpeq_epi8_mask(ac, bc);
            let h = _mm512_maskz_loadu_epi16(live, hs.as_ptr().add(k).cast());
            let v = _mm512_maskz_loadu_epi16(live, vs.as_ptr().add(k).cast());
            let nh = _mm512_mask_blend_epi16(meq, _mm512_min_epu16(h, v), v);
            let nv = _mm512_mask_blend_epi16(meq, _mm512_max_epu16(h, v), h);
            _mm512_mask_storeu_epi16(hs.as_mut_ptr().add(k).cast(), live, nh);
            _mm512_mask_storeu_epi16(vs.as_mut_ptr().add(k).cast(), live, nv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antidiag::{par_antidiag_combing_branchless_sched, Scheduling};
    use crate::iterative_combing;
    use rand::{RngExt, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x51D)
    }

    fn random_bytes(rng: &mut impl rand::Rng, len: usize, sigma: u16) -> Vec<u8> {
        (0..len).map(|_| rng.random_range(0..sigma) as u8).collect()
    }

    /// The sequential sweep with `isa`'s byte kernel on `u16` lanes.
    fn comb_bytes_with(isa: Isa, a: &[u8], b: &[u8]) -> SemiLocalKernel {
        assert!(isa.detected() && a.len() + b.len() <= U16_STRANDS);
        sweep::<_, u16, _>(a, b, |ar, bs, hs, vs| {
            // SAFETY: `isa` was detected on this CPU just above.
            unsafe { comb_diag_bytes(isa, ar, bs, hs, vs) }
        })
    }

    /// The sequential sweep with `isa`'s `u32` kernel.
    fn comb_u32_with(isa: Isa, a: &[u32], b: &[u32]) -> SemiLocalKernel {
        assert!(isa.detected());
        sweep::<_, u32, _>(a, b, |ar, bs, hs, vs| {
            // SAFETY: `isa` was detected on this CPU just above.
            unsafe { comb_diag_u32(isa, ar, bs, hs, vs) }
        })
    }

    /// Every byte kernel the host has, and the scheduled sweep, against
    /// the row-major oracle.
    fn check_bytes(a: &[u8], b: &[u8]) {
        let want = iterative_combing(a, b);
        for isa in available() {
            assert_eq!(comb_bytes_with(isa, a, b), want, "{isa:?} m={} n={}", a.len(), b.len());
        }
        assert_eq!(
            par_antidiag_combing_branchless_sched(a, b, Scheduling::WorkSteal, 16),
            want,
            "sched m={} n={}",
            a.len(),
            b.len()
        );
    }

    #[test]
    fn simd_matches_scalar_on_random_inputs() {
        let mut rng = rng();
        let isas: Vec<Isa> = available().collect();
        println!("kernels on this host: {isas:?}; selected: {}", simd_support());
        for _ in 0..20 {
            let m = rng.random_range(1..200);
            let n = rng.random_range(1..200);
            let a: Vec<u32> = (0..m).map(|_| rng.random_range(0..5)).collect();
            let b: Vec<u32> = (0..n).map(|_| rng.random_range(0..5)).collect();
            let want = iterative_combing(&a, &b);
            assert_eq!(antidiag_combing_simd(&a, &b), want, "m={m} n={n}");
            for &isa in &isas {
                assert_eq!(comb_u32_with(isa, &a, &b), want, "{isa:?} m={m} n={n}");
            }
            let a = random_bytes(&mut rng, m, 256);
            let b = random_bytes(&mut rng, n, 4);
            check_bytes(&a, &b);
        }
    }

    #[test]
    fn simd_handles_lane_boundary_lengths() {
        let mut rng = rng();
        for len in [7usize, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65] {
            let a: Vec<u32> = (0..len).map(|_| rng.random_range(0..3)).collect();
            let b: Vec<u32> = (0..len).map(|_| rng.random_range(0..3)).collect();
            assert_eq!(antidiag_combing_simd(&a, &b), iterative_combing(&a, &b), "len={len}");
            // Square grids reach diagonals of every length up to `len`;
            // a 150-long side makes most of the diagonals exactly `len`.
            let a = random_bytes(&mut rng, len, 3);
            check_bytes(&a, &random_bytes(&mut rng, len, 3));
            check_bytes(&a, &random_bytes(&mut rng, 150, 3));
            check_bytes(&random_bytes(&mut rng, 150, 3), &a);
        }
    }

    #[test]
    fn simd_empty_and_degenerate() {
        assert_eq!(antidiag_combing_simd(&[], &[1, 2]), iterative_combing::<u32>(&[], &[1, 2]));
        assert_eq!(antidiag_combing_simd(&[1], &[1]), iterative_combing::<u32>(&[1], &[1]));
        check_bytes(b"", b"ab");
        check_bytes(b"ab", b"");
        check_bytes(b"x", b"x");
        let mut rng = rng();
        for n in [1usize, 40, 100] {
            let s = random_bytes(&mut rng, n, 256);
            check_bytes(b"q", &s);
            check_bytes(&s, b"q");
        }
        // Every byte value, and a == b.
        let all: Vec<u8> = (0..=255).collect();
        let rotated: Vec<u8> = (0..=255u8).map(|c| c.wrapping_add(101)).collect();
        check_bytes(&all, &rotated);
        check_bytes(&all, &all);
        let a = random_bytes(&mut rng, 97, 256);
        check_bytes(&a, &a);
        // One repeated symbol on both sides: every cell is a match.
        check_bytes(&[0xFF; 70], &[0xFF; 45]);
        check_bytes(&[0; 33], &[0; 33]);
    }

    /// Strand ids reach 65535 at `m + n = 2¹⁶`, past `i16::MAX`, so a
    /// signed lane compare would mis-sort them. One past the boundary
    /// the scheduled sweep switches to `u32` strands.
    #[test]
    fn byte_kernels_hold_at_the_u16_strand_boundary() {
        let mut rng = rng();
        let n = 40usize;
        for total in [U16_STRANDS - 1, U16_STRANDS, U16_STRANDS + 1] {
            let a = random_bytes(&mut rng, total - n, 4);
            let b = random_bytes(&mut rng, n, 4);
            let want = iterative_combing(&a, &b);
            if total <= U16_STRANDS {
                for isa in available() {
                    assert_eq!(comb_bytes_with(isa, &a, &b), want, "{isa:?} m+n={total}");
                }
            }
            for sched in [Scheduling::Team, Scheduling::WorkSteal] {
                let got = par_antidiag_combing_branchless_sched(&a, &b, sched, 8);
                assert_eq!(got, want, "{sched:?} m+n={total}");
            }
        }
        assert_eq!(comb_kernel(U16_STRANDS - 1, 1), selected());
        assert_eq!(comb_kernel(U16_STRANDS, 1), Isa::Scalar);
    }

    #[test]
    fn support_reports_a_known_isa() {
        assert!(["avx512", "avx2", "scalar"].contains(&simd_support()));
        // The report is the selection: the best ISA the CPU has.
        let isas: Vec<Isa> = available().collect();
        assert_eq!(isas.first(), Some(&Isa::Scalar));
        assert_eq!(isas.last(), Some(&selected()));
        assert_eq!(simd_support(), selected().token());
        for (i, isa) in Isa::ALL.into_iter().enumerate() {
            assert_eq!(isa as usize, i);
        }
    }
}
