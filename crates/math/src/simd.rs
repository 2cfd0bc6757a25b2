//! Runtime-dispatched AVX2 kernels for the Harvey lazy forward NTT and the
//! coefficient-wise modular add/subtract.
//!
//! A kernel is dispatched only if it measures faster than the scalar loop
//! it replaces: `bench_kernels` races every vector kernel against its
//! scalar twin and fails below 1.0× (see DESIGN.md §12). x86_64 with AVX2
//! is the one vector backend; every other host runs the portable scalar
//! code. The inverse NTT and the Shoup multiply slice kernels stay scalar
//! on every host: AVX2 has no 64×64 high multiply, and emulating it from
//! four 32-bit partial products does not beat the scalar `mulx` in
//! kernels that are multiply-bound.
//!
//! This is the **only** module in the workspace that contains `unsafe`
//! code, and every unsafe token in it is one of exactly two shapes:
//!
//! 1. an unaligned vector load/store through a length-checked slice
//!    pointer (`_mm256_loadu_si256` / `_mm256_storeu_si256`), and
//! 2. a call from safe dispatch code into a `#[target_feature]` function,
//!    guarded by the one-time runtime CPU detection below.
//!
//! All lane arithmetic uses the safe-intrinsics-in-`target_feature`
//! rules (Rust ≥ 1.87). The crate root is `#![deny(unsafe_code)]` and this
//! module opts out locally; `choco-lint` pins the exact unsafe token count
//! in `lint.toml` (UNSAFE001/UNSAFE002: one crate-root relaxation, five
//! unsafe blocks here) so any new unsafe site fails CI until it is
//! reviewed.
//!
//! # Bit-identical by construction
//!
//! Every vector kernel performs the *same* integer operations as its
//! scalar twin in [`crate::modops`] / [`crate::ntt`] — Shoup high-half
//! multiplies, wrapping low-half multiplies, conditional subtractions —
//! just four lanes at a time. Modular arithmetic on `u64` is exact, so the
//! results are bit-identical, not merely numerically close; the property
//! suite in `crates/math/tests/prop_math.rs`, the cross-process check in
//! `crates/he/tests/schedule_race.rs` and the `CHOCO_SIMD=0/1` CI matrix
//! enforce this.
//!
//! # Dispatch model
//!
//! [`backend`] resolves once per process (`OnceLock`). `CHOCO_SIMD=0` (or
//! `scalar`) forces the scalar reference path; any other value, or none,
//! means detection: AVX2 when the CPU has it, scalar otherwise. Each public
//! op dispatches on the cached backend and returns scalar results through
//! the exact same code path the pre-SIMD library used, so scalar-only
//! hosts see zero behavior change.

// The workspace-wide forbid is relaxed to deny at the choco-math crate
// root precisely so this audited module can opt back in.
#![allow(unsafe_code)]

use crate::modops::{add_mod, mul_mod_shoup, sub_mod};
use std::sync::OnceLock;

/// The vectorization backend selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar code (also the forced `CHOCO_SIMD=0` mode).
    Scalar,
    /// 4×u64 lanes via AVX2 on x86_64.
    Avx2,
}

impl Backend {
    /// Stable lowercase name for logs and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }

    /// Whether this backend vectorizes (anything but scalar).
    pub fn is_vector(self) -> bool {
        !matches!(self, Backend::Scalar)
    }
}

/// The process-wide backend: detected once, then cached.
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(detect)
}

fn detect() -> Backend {
    let forced = std::env::var("CHOCO_SIMD").ok();
    if matches!(forced.as_deref().map(str::trim), Some("0" | "scalar")) {
        return Backend::Scalar;
    }
    if have_avx2() {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

fn have_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Minimum transform size the vector NTT paths accept; smaller inputs
/// (only reachable from unit tests — HE rings start at 1024) fall back to
/// scalar in the caller.
const MIN_VECTOR_N: usize = 8;

/// Vectorized in-place forward lazy NTT (Cooley–Tukey, bit-reversed
/// twiddles, final `[0,4q) → [0,q)` correction folded into the last
/// stage). Returns `false` when no vector backend is active — the caller
/// runs its scalar path instead.
///
/// `a.len()` must be a power of two and equal the twiddle table length.
pub fn ntt_forward_lazy(a: &mut [u64], psi_rev: &[u64], psi_rev_shoup: &[u64], q: u64) -> bool {
    if a.len() < MIN_VECTOR_N {
        return false;
    }
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: Backend::Avx2 is only returned after runtime
            // detection confirmed avx2 on this CPU.
            unsafe { avx2::ntt_forward(a, psi_rev, psi_rev_shoup, q) };
            true
        }
        _ => false,
    }
}

/// `a[i] = add_mod(a[i], b[i], q)` over whole rows, vectorized when a
/// backend is active (scalar fallback built in — callers never dispatch).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_mod_slices(a: &mut [u64], b: &[u64], q: u64) {
    assert_eq!(a.len(), b.len(), "row length mismatch");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if a.len() >= 4 => {
            // SAFETY: backend detection guards the feature.
            unsafe { avx2::add_mod_slices(a, b, q) }
        }
        _ => add_mod_slices_scalar(a, b, q),
    }
}

/// The scalar path of [`add_mod_slices`], bypassing dispatch, so benches
/// can race the two paths explicitly.
pub fn add_mod_slices_scalar(a: &mut [u64], b: &[u64], q: u64) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x = add_mod(*x, y, q);
    }
}

/// `a[i] = sub_mod(a[i], b[i], q)` over whole rows (see [`add_mod_slices`]).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub_mod_slices(a: &mut [u64], b: &[u64], q: u64) {
    assert_eq!(a.len(), b.len(), "row length mismatch");
    match backend() {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 if a.len() >= 4 => {
            // SAFETY: backend detection guards the feature.
            unsafe { avx2::sub_mod_slices(a, b, q) }
        }
        _ => sub_mod_slices_scalar(a, b, q),
    }
}

/// The scalar path of [`sub_mod_slices`], bypassing dispatch, so benches
/// can race the two paths explicitly.
pub fn sub_mod_slices_scalar(a: &mut [u64], b: &[u64], q: u64) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x = sub_mod(*x, y, q);
    }
}

/// `a[i] = mul_mod_shoup(a[i], b[i], b_shoup[i], q)`: the dyadic
/// (element-wise) product against an operand with per-coefficient Shoup
/// precomputation — e.g. a cached NTT-domain plaintext. A plain scalar
/// loop on every host (see the module docs for why there is no vector
/// twin); it lives here because external kernel timers call it by this
/// path.
///
/// # Panics
///
/// Panics if the slice lengths disagree.
pub fn dyadic_mul_shoup_slices(a: &mut [u64], b: &[u64], b_shoup: &[u64], q: u64) {
    assert_eq!(a.len(), b.len(), "row length mismatch");
    assert_eq!(a.len(), b_shoup.len(), "shoup row length mismatch");
    for ((x, &y), &ys) in a.iter_mut().zip(b).zip(b_shoup) {
        *x = mul_mod_shoup(*x, y, ys, q);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 kernels: 4×u64 lanes. AVX2 has no 64×64 vector multiply, so
    //! the 128-bit products are assembled from four `vpmuludq` 32×32→64
    //! partials. The forward NTT still wins because the branchy
    //! conditional subtractions become straight-line mask arithmetic.
    //!
    //! Signed comparisons (`vpcmpgtq`) stand in for the unsigned compares
    //! of the scalar code: every value here is below `4q < 2^63`, where
    //! the two orders agree.

    use super::{add_mod, sub_mod};
    use core::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    #[inline]
    fn load(src: &[u64]) -> __m256i {
        debug_assert!(src.len() >= 4);
        // SAFETY: the slice holds at least four elements (checked above in
        // debug builds, by construction in callers); unaligned load.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn store(dst: &mut [u64], v: __m256i) {
        debug_assert!(dst.len() >= 4);
        // SAFETY: the slice holds at least four elements; unaligned store.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }

    /// High 64 bits of the unsigned 64×64 product, lane-wise.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn mulhi_u64(a: __m256i, b: __m256i) -> __m256i {
        let lo32 = _mm256_set1_epi64x(0xFFFF_FFFF);
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let ll = _mm256_mul_epu32(a, b);
        let lh = _mm256_mul_epu32(a, b_hi);
        let hl = _mm256_mul_epu32(a_hi, b);
        let hh = _mm256_mul_epu32(a_hi, b_hi);
        // carry out of the middle 32-bit column: at most 3·(2^32−1), so the
        // column sum never overflows a u64 lane.
        let cross = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_srli_epi64::<32>(ll), _mm256_and_si256(hl, lo32)),
            _mm256_and_si256(lh, lo32),
        );
        _mm256_add_epi64(
            _mm256_add_epi64(hh, _mm256_srli_epi64::<32>(cross)),
            _mm256_add_epi64(_mm256_srli_epi64::<32>(hl), _mm256_srli_epi64::<32>(lh)),
        )
    }

    /// Low 64 bits of the product (wrapping), lane-wise.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn mullo_u64(a: __m256i, b: __m256i) -> __m256i {
        let a_hi = _mm256_srli_epi64::<32>(a);
        let b_hi = _mm256_srli_epi64::<32>(b);
        let ll = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
        _mm256_add_epi64(ll, _mm256_slli_epi64::<32>(cross))
    }

    /// [`crate::modops::mul_mod_shoup_lazy`] lane-wise: result in `[0, 2q)`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn shoup_lazy(a: __m256i, b: __m256i, b_shoup: __m256i, q: __m256i) -> __m256i {
        let hi = mulhi_u64(a, b_shoup);
        _mm256_sub_epi64(mullo_u64(a, b), mullo_u64(hi, q))
    }

    /// `if x >= bound { x - bound } else { x }` lane-wise. Valid while
    /// `x < 2^63` and `bound < 2^63` (signed compare).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn csub(x: __m256i, bound: __m256i) -> __m256i {
        let lt = _mm256_cmpgt_epi64(bound, x);
        _mm256_sub_epi64(x, _mm256_andnot_si256(lt, bound))
    }

    /// [`crate::modops::reduce_4q`] lane-wise.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn reduce_4q_v(x: __m256i, two_q: __m256i, q: __m256i) -> __m256i {
        csub(csub(x, two_q), q)
    }

    /// Two broadcast pairs: `[s0, s0, s1, s1]` from a 2-element slice.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn spread2(s: &[u64]) -> __m256i {
        debug_assert!(s.len() >= 2);
        _mm256_set_epi64x(s[1] as i64, s[1] as i64, s[0] as i64, s[0] as i64)
    }

    /// Forward lazy NTT with the final correction folded into the last
    /// (span-1) stage. `a.len()` is a power of two ≥ 8.
    #[target_feature(enable = "avx2")]
    pub fn ntt_forward(a: &mut [u64], psi_rev: &[u64], psi_rev_shoup: &[u64], q: u64) {
        let n = a.len();
        debug_assert!(n >= 8 && n.is_power_of_two());
        let qv = _mm256_set1_epi64x(q as i64);
        let two_q = _mm256_set1_epi64x((2 * q) as i64);
        let mut m = 1usize;
        let mut t = n >> 1;
        // Stages with butterfly span >= 4: one broadcast twiddle per block,
        // contiguous 4-lane loads on both block halves.
        while t >= 4 {
            for i in 0..m {
                let j1 = 2 * i * t;
                let s = _mm256_set1_epi64x(psi_rev[m + i] as i64);
                let s_sh = _mm256_set1_epi64x(psi_rev_shoup[m + i] as i64);
                // Exact-chunk iteration over the two block halves: the
                // compiler proves every lane access in range, so the loop
                // body is branch-free. Two independent butterflies per
                // 8-chunk keep the long Shoup multiply chains overlapped.
                let (lo_half, hi_half) = a[j1..j1 + 2 * t].split_at_mut(t);
                let (l8, l_rem) = lo_half.as_chunks_mut::<8>();
                let (h8, h_rem) = hi_half.as_chunks_mut::<8>();
                for (lc, hc) in l8.iter_mut().zip(h8.iter_mut()) {
                    let u0 = csub(load(&lc[..4]), two_q);
                    let u1 = csub(load(&lc[4..]), two_q);
                    let v0 = shoup_lazy(load(&hc[..4]), s, s_sh, qv);
                    let v1 = shoup_lazy(load(&hc[4..]), s, s_sh, qv);
                    store(&mut lc[..4], _mm256_add_epi64(u0, v0));
                    store(&mut lc[4..], _mm256_add_epi64(u1, v1));
                    store(
                        &mut hc[..4],
                        _mm256_add_epi64(u0, _mm256_sub_epi64(two_q, v0)),
                    );
                    store(
                        &mut hc[4..],
                        _mm256_add_epi64(u1, _mm256_sub_epi64(two_q, v1)),
                    );
                }
                // The t == 4 stage leaves one 4-lane remainder per half.
                let (l4, _) = l_rem.as_chunks_mut::<4>();
                let (h4, _) = h_rem.as_chunks_mut::<4>();
                for (lc, hc) in l4.iter_mut().zip(h4.iter_mut()) {
                    let u = csub(load(lc), two_q);
                    let v = shoup_lazy(load(hc), s, s_sh, qv);
                    store(lc, _mm256_add_epi64(u, v));
                    store(hc, _mm256_add_epi64(u, _mm256_sub_epi64(two_q, v)));
                }
            }
            m <<= 1;
            t >>= 1;
        }
        // Span-2 stage: blocks are [u0 u1 v0 v1]; two blocks per iteration,
        // gathered into u/v vectors with 128-bit-lane permutes.
        debug_assert_eq!(t, 2);
        {
            let (blocks, _) = a.as_chunks_mut::<8>();
            let (tw, _) = psi_rev[m..2 * m].as_chunks::<2>();
            let (tw_sh, _) = psi_rev_shoup[m..2 * m].as_chunks::<2>();
            for ((block, s2), s2_sh) in blocks.iter_mut().zip(tw).zip(tw_sh) {
                let v0 = load(&block[..4]);
                let v1 = load(&block[4..]);
                let u = _mm256_permute2x128_si256::<0x20>(v0, v1);
                let v = _mm256_permute2x128_si256::<0x31>(v0, v1);
                let s = spread2(s2);
                let s_sh = spread2(s2_sh);
                let uu = csub(u, two_q);
                let vv = shoup_lazy(v, s, s_sh, qv);
                let lo = _mm256_add_epi64(uu, vv);
                let hi = _mm256_add_epi64(uu, _mm256_sub_epi64(two_q, vv));
                store(&mut block[..4], _mm256_permute2x128_si256::<0x20>(lo, hi));
                store(&mut block[4..], _mm256_permute2x128_si256::<0x31>(lo, hi));
            }
            m <<= 1;
        }
        // Span-1 stage, fused with the [0,4q) -> [0,q) correction: pairs are
        // deinterleaved with unpack/permute so the last pass over the array
        // both finishes the transform and canonicalizes.
        {
            let (blocks, _) = a.as_chunks_mut::<8>();
            let (tw, _) = psi_rev[m..2 * m].as_chunks::<4>();
            let (tw_sh, _) = psi_rev_shoup[m..2 * m].as_chunks::<4>();
            for ((block, s4), s4_sh) in blocks.iter_mut().zip(tw).zip(tw_sh) {
                let v0 = load(&block[..4]);
                let v1 = load(&block[4..]);
                let e = _mm256_unpacklo_epi64(v0, v1); // [x0 x4 x2 x6]
                let o = _mm256_unpackhi_epi64(v0, v1); // [x1 x5 x3 x7]
                let u_vec = _mm256_permute4x64_epi64::<0b1101_1000>(e); // evens
                let v_vec = _mm256_permute4x64_epi64::<0b1101_1000>(o); // odds
                let s = load(s4);
                let s_sh = load(s4_sh);
                let uu = csub(u_vec, two_q);
                let vv = shoup_lazy(v_vec, s, s_sh, qv);
                let lo = reduce_4q_v(_mm256_add_epi64(uu, vv), two_q, qv);
                let hi = reduce_4q_v(_mm256_add_epi64(uu, _mm256_sub_epi64(two_q, vv)), two_q, qv);
                let lp = _mm256_permute4x64_epi64::<0b1101_1000>(lo); // [y0 y4 y2 y6]
                let hp = _mm256_permute4x64_epi64::<0b1101_1000>(hi); // [y1 y5 y3 y7]
                store(&mut block[..4], _mm256_unpacklo_epi64(lp, hp));
                store(&mut block[4..], _mm256_unpackhi_epi64(lp, hp));
            }
        }
    }

    /// Vector body + scalar tail for `add_mod` over rows.
    #[target_feature(enable = "avx2")]
    pub fn add_mod_slices(a: &mut [u64], b: &[u64], q: u64) {
        let qv = _mm256_set1_epi64x(q as i64);
        let len4 = a.len() & !3;
        let mut j = 0;
        while j < len4 {
            let s = _mm256_add_epi64(load(&a[j..j + 4]), load(&b[j..j + 4]));
            store(&mut a[j..j + 4], csub(s, qv));
            j += 4;
        }
        for (x, &y) in a[len4..].iter_mut().zip(&b[len4..]) {
            *x = add_mod(*x, y, q);
        }
    }

    /// Vector body + scalar tail for `sub_mod` over rows.
    #[target_feature(enable = "avx2")]
    pub fn sub_mod_slices(a: &mut [u64], b: &[u64], q: u64) {
        let qv = _mm256_set1_epi64x(q as i64);
        let len4 = a.len() & !3;
        let mut j = 0;
        while j < len4 {
            let x = load(&a[j..j + 4]);
            let y = load(&b[j..j + 4]);
            // borrow mask: add q back where y > x.
            let borrow = _mm256_cmpgt_epi64(y, x);
            let d = _mm256_sub_epi64(x, y);
            store(
                &mut a[j..j + 4],
                _mm256_add_epi64(d, _mm256_and_si256(borrow, qv)),
            );
            j += 4;
        }
        for (x, &y) in a[len4..].iter_mut().zip(&b[len4..]) {
            *x = sub_mod(*x, y, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_reports_a_name() {
        let b = backend();
        assert!(!b.name().is_empty());
        // On any host the scalar fallback must at least be reachable.
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
        assert!(!Backend::Scalar.is_vector());
        assert!(Backend::Avx2.is_vector());
        // Detection never selects AVX2 on a CPU without it.
        assert!(b == Backend::Scalar || have_avx2());
    }

    #[test]
    fn slice_ops_match_scalar_reference() {
        // Exercises whatever backend is active (including the tail path via
        // the odd length) against the modops reference.
        let q = (1u64 << 60) - 93; // any q < 2^61 works for add/sub
        let len = 1027;
        let a: Vec<u64> = (0..len as u64).map(|i| (i * 0x9E37_79B9) % q).collect();
        let b: Vec<u64> = (0..len as u64).map(|i| (i * 0x85EB_CA6B + 1) % q).collect();

        let mut add = a.clone();
        add_mod_slices(&mut add, &b, q);
        let mut sub = a.clone();
        sub_mod_slices(&mut sub, &b, q);
        for i in 0..len {
            assert_eq!(add[i], add_mod(a[i], b[i], q));
            assert_eq!(sub[i], sub_mod(a[i], b[i], q));
        }
    }
}
