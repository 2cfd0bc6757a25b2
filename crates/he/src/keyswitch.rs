//! RNS key switching with a reserved special prime (SEAL's hybrid method).
//!
//! Key switching re-encrypts a ciphertext component that is "keyed" to some
//! polynomial `s'` (a Galois image of the secret, or `s²` after a
//! multiplication) back to the secret key `s`. The RNS-decomposition +
//! special-prime construction keeps the added noise at a few bits — which is
//! exactly why the paper's rotations are cheap (Table 4: ~2 bits per
//! rotation) while masked permutations are not.
//!
//! For each data prime `q_j` the key holds a pair
//! `(b_j, a_j) = (−(a_j·s + e_j) + P·E_j·s',  a_j)` over the *full* modulus
//! `q·P`, where `E_j` is the CRT idempotent (`E_j ≡ 1 mod q_j`, `≡ 0` mod
//! every other data prime) and `P` is the special prime. Because the
//! idempotents behave identically under any prefix of the prime chain, one
//! key generated at the top level serves every CKKS level after rescaling.
//! Applying the key to an input `d` uses the plain residues `D_j = [d]_{q_j}`
//! as decomposition digits, accumulates `Σ_j D_j·(b_j, a_j)` over the active
//! primes plus `P`, and divides by `P` with rounding.

use crate::rnspoly::RnsPoly;
use choco_math::modops::{
    add_mod, center, inv_mod, mul_mod, pow_mod, reduce_signed, shoup_precompute,
};
use choco_math::ntt::apply_galois_ntt;
use choco_math::par;
use choco_math::poly;
use choco_math::pool::PolyPool;
use choco_math::rns::RnsBasis;
use choco_prng::Blake3Rng;

/// A key-switching key: one `(b_j, a_j)` pair per data prime, stored in NTT
/// form over the full basis (special prime last).
#[derive(Debug, Clone)]
pub struct KswitchKey {
    pairs: Vec<(RnsPoly, RnsPoly)>,
    full_prime_count: usize,
}

impl KswitchKey {
    /// Number of decomposition digits (= data prime count).
    pub fn digit_count(&self) -> usize {
        self.pairs.len()
    }

    /// Serialized size in bytes (`2 polys × k residues × N × 8` per digit).
    pub fn size_bytes(&self) -> usize {
        let n = self.pairs[0].0.degree();
        self.pairs.len() * 2 * self.full_prime_count * n * 8
    }

    /// The `(b_j, a_j)` digit pairs in NTT form (wire serialization).
    pub fn pairs(&self) -> &[(RnsPoly, RnsPoly)] {
        &self.pairs
    }

    /// Number of primes in the full basis the pairs are stored over.
    pub fn full_prime_count(&self) -> usize {
        self.full_prime_count
    }

    /// Reassembles a key from raw digit pairs (wire deserialization).
    ///
    /// Returns `None` when the shape is inconsistent: no digits, or a pair
    /// whose polynomials do not span `full_prime_count` residue rows.
    pub fn from_parts(pairs: Vec<(RnsPoly, RnsPoly)>, full_prime_count: usize) -> Option<Self> {
        if pairs.is_empty()
            || pairs.iter().any(|(b, a)| {
                b.row_count() != full_prime_count || a.row_count() != full_prime_count
            })
        {
            return None;
        }
        Some(KswitchKey {
            pairs,
            full_prime_count,
        })
    }
}

/// Generates a key-switching key taking `s'`-keyed components to `s`.
///
/// `s` and `s_prime` must be given over the full basis (all `k` primes,
/// special last); `data` is the prefix basis of the first `k − 1` primes.
// choco-lint: secret (public: full, data)
pub fn generate_ksk(
    s: &RnsPoly,
    s_prime: &RnsPoly,
    full: &RnsBasis,
    data: &RnsBasis,
    rng: &mut Blake3Rng,
) -> KswitchKey {
    let k = full.len();
    let d = data.len();
    assert!(
        k == d + 1,
        "full basis must be data basis plus special prime"
    );
    // choco-lint: allow(SEC001) row_count is public geometry, not key material
    assert_eq!(s.row_count(), k, "secret key must span the full basis");
    // choco-lint: allow(SEC001) row_count is public geometry, not key material
    assert_eq!(
        s_prime.row_count(),
        k,
        "target key must span the full basis"
    );
    let p_special = full.primes()[k - 1];

    let mut pairs = Vec::with_capacity(d);
    for j in 0..d {
        let a = RnsPoly::sample_uniform(rng, full);
        let e = RnsPoly::sample_error(rng, full);
        // b = -(a*s + e)
        let mut b = a.mul_poly(s, full);
        b.add_assign_poly(&e, full);
        b.neg_assign_poly(full);
        // Add P·E_j·s', which is nonzero only in residue row j where it
        // equals (P mod q_j)·s'.
        let qj = data.primes()[j];
        let w = p_special % qj;
        let sp_row = s_prime.row(j).to_vec();
        let row = b.row_mut(j);
        for (x, &sv) in row.iter_mut().zip(&sp_row) {
            *x = add_mod(*x, mul_mod(w, sv, qj), qj);
        }
        // Store in NTT form for fast application.
        let mut b_ntt = b;
        let mut a_ntt = a;
        b_ntt.ntt_forward(full);
        a_ntt.ntt_forward(full);
        pairs.push((b_ntt, a_ntt));
    }
    KswitchKey {
        pairs,
        full_prime_count: k,
    }
}

/// Applies a key-switching key to input component `d_poly` (given modulo the
/// level basis, a prefix of the data primes), returning `(delta_c0, c1_new)`
/// modulo the level basis such that `delta_c0 + c1_new·s ≈ d_poly·s'`.
///
/// `ks_basis` must contain the level's data primes followed by the special
/// prime (i.e. `level + 1` primes), and `level_basis` its prefix of data
/// primes. Both are precomputed by the scheme context.
pub fn apply_ksk(
    d_poly: &RnsPoly,
    ksk: &KswitchKey,
    ks_basis: &RnsBasis,
    level_basis: &RnsBasis,
) -> (RnsPoly, RnsPoly) {
    let hoisted = hoist_decompose(d_poly, ks_basis, level_basis);
    apply_ksk_hoisted(&hoisted, None, ksk, ks_basis, level_basis)
}

/// The NTT-form decomposition digits of a key-switch input, computed once
/// and reusable across many Galois elements ("hoisting").
///
/// Entry `j` holds `NTT_{q_i}([d]_{q_j} mod q_i)` for every prime `q_i` of
/// the ks basis. Because a Galois automorphism acts on NTT-domain data as a
/// pure index permutation ([`choco_math::ntt::galois_ntt_permutation`]),
/// rotating by `r` different steps costs one decomposition + `r` cheap
/// permute-and-accumulate passes instead of `r` full decompositions.
#[derive(Debug, Clone)]
pub struct HoistedDigits {
    digits: Vec<RnsPoly>,
    level: usize,
}

impl HoistedDigits {
    /// Number of data primes at the level this decomposition was taken.
    pub fn level(&self) -> usize {
        self.level
    }
}

/// Decomposes `d_poly` into NTT-form digits over `ks_basis` (the expensive
/// half of key switching: `level · (level+1)` modular reductions + forward
/// NTTs). The result feeds [`apply_ksk_hoisted`] any number of times.
pub fn hoist_decompose(
    d_poly: &RnsPoly,
    ks_basis: &RnsBasis,
    level_basis: &RnsBasis,
) -> HoistedDigits {
    let level = level_basis.len();
    assert_eq!(
        d_poly.row_count(),
        level,
        "input must be over the level basis"
    );
    assert_eq!(
        ks_basis.len(),
        level + 1,
        "ks basis must add the special prime"
    );
    let digits = par::par_map_range(level, |j| {
        // Digit D_j = [d]_{q_j}, interpreted as an integer polynomial and
        // re-reduced into every ks prime.
        let digit = d_poly.row(j);
        let rows = (0..=level)
            .map(|i| {
                let qi = ks_basis.primes()[i];
                let mut dmod = PolyPool::take_scratch(digit.len());
                for (x, &v) in dmod.iter_mut().zip(digit) {
                    *x = v % qi;
                }
                ks_basis.ntt_tables()[i].forward(&mut dmod);
                dmod
            })
            .collect();
        RnsPoly::from_rows(rows)
    });
    HoistedDigits { digits, level }
}

/// Applies a key-switching key to pre-decomposed digits, optionally
/// permuting each digit by a Galois NTT permutation first (`perm = None`
/// reproduces [`apply_ksk`] bit-for-bit).
///
/// With `Some(perm)` for the automorphism `x → x^e`, the permuted digits
/// are the RNS residues of the *signed* Galois image of each digit (sign
/// flips act as negation modulo every prime consistently), so the result is
/// a valid key-switch of the rotated input with the same noise bound as the
/// naive decompose-after-rotate path — the digit magnitudes are unchanged.
pub fn apply_ksk_hoisted(
    hoisted: &HoistedDigits,
    perm: Option<&[usize]>,
    ksk: &KswitchKey,
    ks_basis: &RnsBasis,
    level_basis: &RnsBasis,
) -> (RnsPoly, RnsPoly) {
    let (mut acc0, mut acc1) = hoisted_accumulate(hoisted, perm, ksk, ks_basis);
    acc0.ntt_inverse(ks_basis);
    acc1.ntt_inverse(ks_basis);
    (
        mod_down(&acc0, ks_basis, level_basis),
        mod_down(&acc1, ks_basis, level_basis),
    )
}

/// Like [`apply_ksk_hoisted`], but keeps the switched pair in the NTT
/// domain over `level_basis` (exactly the forward transform of the
/// [`apply_ksk_hoisted`] output — [`mod_down_ntt`] commutes with the NTT).
/// The fast path for kernels that consume rotations inside further
/// evaluation-domain arithmetic: only the special-prime row pays an
/// inverse transform.
pub fn apply_ksk_hoisted_ntt(
    hoisted: &HoistedDigits,
    perm: Option<&[usize]>,
    ksk: &KswitchKey,
    ks_basis: &RnsBasis,
    level_basis: &RnsBasis,
) -> (RnsPoly, RnsPoly) {
    let (acc0, acc1) = hoisted_accumulate(hoisted, perm, ksk, ks_basis);
    (
        mod_down_ntt(&acc0, ks_basis, level_basis),
        mod_down_ntt(&acc1, ks_basis, level_basis),
    )
}

/// Shared digit-MAC core of the hoisted key-switch paths: accumulates
/// `Σ_j perm(D_j) · ksk_j` in the NTT domain over the full ks basis. The
/// result still carries the special-prime factor `P`; callers divide it
/// out with [`mod_down`] / [`mod_down_ntt`] — immediately, or (second
/// hoisting) after summing several switched terms, paying one rounding for
/// the whole sum.
pub(crate) fn hoisted_accumulate(
    hoisted: &HoistedDigits,
    perm: Option<&[usize]>,
    ksk: &KswitchKey,
    ks_basis: &RnsBasis,
) -> (RnsPoly, RnsPoly) {
    let level = hoisted.level;
    let n = ks_basis.degree();
    assert_eq!(
        ks_basis.len(),
        level + 1,
        "ks basis must add the special prime"
    );
    assert!(level <= ksk.pairs.len(), "level exceeds key digit count");
    let k_storage = ksk.full_prime_count;

    // Accumulate in NTT form, one (acc0, acc1) row pair per ks prime. Rows
    // are independent, so this is the parallel axis; within a row the digit
    // order matches the sequential implementation, keeping results
    // bit-identical at any thread count.
    let rows: Vec<(Vec<u64>, Vec<u64>)> = par::par_map_range(level + 1, |i| {
        let qi = ks_basis.primes()[i];
        let storage_row = if i < level { i } else { k_storage - 1 };
        // Products are < 2^122 (primes stay below 2^61), so 32 of them fit
        // in a u128 accumulator; reduce lazily instead of per term. The
        // modular sum is unique, so this is bit-identical to eager
        // reduction.
        // choco-lint: lazy-domain
        let mut acc0 = PolyPool::take_zeroed_u128(n);
        let mut acc1 = PolyPool::take_zeroed_u128(n);
        let mut scratch = PolyPool::take_scratch(n);
        for (j, digit) in hoisted.digits.iter().enumerate() {
            if j > 0 && j % 32 == 0 {
                for v in acc0.iter_mut().chain(acc1.iter_mut()) {
                    *v %= qi as u128;
                }
            }
            let d_row = digit.row(i);
            let d: &[u64] = match perm {
                Some(p) => {
                    apply_galois_ntt(d_row, p, &mut scratch);
                    &scratch
                }
                None => d_row,
            };
            let (b_ntt, a_ntt) = &ksk.pairs[j];
            let b_row = b_ntt.row(storage_row);
            let a_row = a_ntt.row(storage_row);
            for (idx, &dv) in d.iter().enumerate() {
                acc0[idx] += dv as u128 * b_row[idx] as u128;
                acc1[idx] += dv as u128 * a_row[idx] as u128;
            }
        }
        let reduce = |acc: Vec<u128>| -> Vec<u64> {
            let mut out = PolyPool::take_scratch(acc.len());
            for (x, &v) in out.iter_mut().zip(&acc) {
                *x = (v % qi as u128) as u64;
            }
            PolyPool::recycle_u128(acc);
            out
        };
        let out = (reduce(acc0), reduce(acc1));
        PolyPool::recycle(scratch);
        // choco-lint: end-lazy-domain
        out
    });
    let (rows0, rows1): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
    (RnsPoly::from_rows(rows0), RnsPoly::from_rows(rows1))
}

/// Divides a polynomial over `ks_basis` (level primes + special prime last)
/// by the special prime `P` with rounding, producing a level-basis
/// polynomial: `out ≡ (x − [x]_P)·P^{-1} (mod q_i)`.
pub fn mod_down(x: &RnsPoly, ks_basis: &RnsBasis, level_basis: &RnsBasis) -> RnsPoly {
    let k = ks_basis.len();
    let n = ks_basis.degree();
    let p = ks_basis.primes()[k - 1];
    let xp = x.row(k - 1);
    let rows = par::par_map_range(level_basis.len(), |i| {
        let qi = level_basis.primes()[i];
        let inv_p = inv_mod(p % qi, qi);
        let inv_p_shoup = shoup_precompute(inv_p, qi);
        // Materialize the rounding correction as one delta row, then finish
        // with the vectorized subtract and the Shoup-scale pass — the same
        // sub_mod/mul_mod_shoup per element as the fused scalar loop.
        let mut delta = PolyPool::take_scratch(n);
        for (d, &v) in delta.iter_mut().zip(xp) {
            *d = reduce_signed(center(v, p), qi);
        }
        let mut row = PolyPool::take_copy(x.row(i));
        poly::sub_assign(&mut row, &delta, qi);
        poly::scalar_mul_shoup_assign(&mut row, inv_p, inv_p_shoup, qi);
        PolyPool::recycle(delta);
        row
    });
    RnsPoly::from_rows(rows)
}

/// NTT-domain [`mod_down`]: takes `x` in the evaluation domain over the ks
/// basis and returns the rounded scale-down still in the evaluation domain
/// over `level_basis`. Because the NTT is linear and the `P^{-1}` scaling
/// is pointwise, this equals `NTT(mod_down(iNTT(x)))` bit-for-bit while
/// paying only one inverse transform (the special-prime row, which feeds
/// the rounding correction) instead of one per row.
pub fn mod_down_ntt(x: &RnsPoly, ks_basis: &RnsBasis, level_basis: &RnsBasis) -> RnsPoly {
    let k = ks_basis.len();
    let p = ks_basis.primes()[k - 1];
    let mut xp = PolyPool::take_copy(x.row(k - 1));
    ks_basis.ntt_tables()[k - 1].inverse(&mut xp);
    let rows = par::par_map_range(level_basis.len(), |i| {
        let qi = level_basis.primes()[i];
        let inv_p = inv_mod(p % qi, qi);
        let inv_p_shoup = shoup_precompute(inv_p, qi);
        let mut delta = PolyPool::take_scratch(xp.len());
        for (d, &v) in delta.iter_mut().zip(&xp) {
            *d = reduce_signed(center(v, p), qi);
        }
        level_basis.ntt_tables()[i].forward(&mut delta);
        let mut row = PolyPool::take_copy(x.row(i));
        poly::sub_assign(&mut row, &delta, qi);
        poly::scalar_mul_shoup_assign(&mut row, inv_p, inv_p_shoup, qi);
        PolyPool::recycle(delta);
        row
    });
    PolyPool::recycle(xp);
    RnsPoly::from_rows(rows)
}

/// The Galois element for a row rotation by `steps` slots: `3^steps mod 2N`
/// (negative steps wrap around the half-row order `N/2`).
///
/// # Panics
///
/// Panics if `|steps| >= n/2` or `steps == 0`.
pub fn galois_element_rows(steps: i64, n: usize) -> u64 {
    let half = (n / 2) as i64;
    assert!(
        steps != 0 && steps.abs() < half,
        "rotation step out of range"
    );
    let s = steps.rem_euclid(half) as u64;
    let m = 2 * n as u64;
    pow_mod(3, s, m)
}

/// The Galois element for the row-swap (column rotation): `2N − 1`.
pub fn galois_element_columns(n: usize) -> u64 {
    2 * n as u64 - 1
}

/// The Galois element for a CKKS slot rotation by `steps`: `5^steps mod 2N`.
///
/// # Panics
///
/// Panics if `|steps| >= n/2` or `steps == 0`.
pub fn galois_element_ckks(steps: i64, n: usize) -> u64 {
    let half = (n / 2) as i64;
    assert!(
        steps != 0 && steps.abs() < half,
        "rotation step out of range"
    );
    let s = steps.rem_euclid(half) as u64;
    let m = 2 * n as u64;
    pow_mod(5, s, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco_math::prime::generate_ntt_primes;

    fn bases() -> (RnsBasis, RnsBasis) {
        let n = 256;
        let mut primes = generate_ntt_primes(40, n, 2);
        primes.extend(generate_ntt_primes(41, n, 1)); // special prime last
        let full = RnsBasis::new(n, &primes).unwrap();
        let data = full.prefix(2);
        (full, data)
    }

    #[test]
    fn keyswitch_preserves_relation_with_small_noise() {
        let (full, data) = bases();
        let mut rng = Blake3Rng::from_seed(b"ks test");
        let s = RnsPoly::sample_ternary(&mut rng, &full);
        let s_prime = RnsPoly::sample_ternary(&mut rng, &full);
        let d_in = RnsPoly::sample_uniform(&mut rng, &data);

        let ksk = generate_ksk(&s, &s_prime, &full, &data, &mut rng);
        let (k0, k1) = apply_ksk(&d_in, &ksk, &full, &data);

        // k0 + k1·s should equal d·s' up to small noise (all mod data basis).
        let s_data = s.prefix(data.len());
        let sp_data = s_prime.prefix(data.len());
        let mut got = k1.mul_poly(&s_data, &data);
        got.add_assign_poly(&k0, &data);
        let expect = d_in.mul_poly(&sp_data, &data);
        let mut diff = got;
        diff.sub_assign_poly(&expect, &data);
        let noise_bits = diff.centered_norm_log2(&data);
        // Expected noise ~ k · q_j · σ √N / P ≈ 2^10; anything below 2^25
        // proves the relation holds (a wrong implementation is ~2^79).
        assert!(
            noise_bits < 25.0,
            "keyswitch noise too large: 2^{noise_bits:.1}"
        );
    }

    #[test]
    fn keyswitch_works_at_reduced_level() {
        // Drop to a single data prime (as CKKS does after rescaling) and
        // check the same key still switches correctly.
        let n = 256;
        let mut primes = generate_ntt_primes(40, n, 2);
        primes.extend(generate_ntt_primes(41, n, 1));
        let full = RnsBasis::new(n, &primes).unwrap();
        let data = full.prefix(2);
        let level1 = full.prefix(1);
        let ks1 = RnsBasis::new(n, &[primes[0], primes[2]]).unwrap();

        let mut rng = Blake3Rng::from_seed(b"ks level");
        let s = RnsPoly::sample_ternary(&mut rng, &full);
        let s_prime = RnsPoly::sample_ternary(&mut rng, &full);
        let ksk = generate_ksk(&s, &s_prime, &full, &data, &mut rng);

        let d_in = RnsPoly::sample_uniform(&mut rng, &level1);
        let (k0, k1) = apply_ksk(&d_in, &ksk, &ks1, &level1);
        let s_l = s.prefix(1);
        let sp_l = s_prime.prefix(1);
        let mut got = k1.mul_poly(&s_l, &level1);
        got.add_assign_poly(&k0, &level1);
        let expect = d_in.mul_poly(&sp_l, &level1);
        let mut diff = got;
        diff.sub_assign_poly(&expect, &level1);
        assert!(
            diff.centered_norm_log2(&level1) < 25.0,
            "level-1 keyswitch failed"
        );
    }

    #[test]
    fn mod_down_divides_exact_multiples() {
        let (full, data) = bases();
        let p = *full.primes().last().unwrap();
        // x = P * y for small y → mod_down(x) == y exactly.
        let n = full.degree();
        let y_vals: Vec<i64> = (0..n as i64).map(|i| i % 17 - 8).collect();
        let mut x = RnsPoly::from_signed(&y_vals, &full);
        let scalars: Vec<u64> = full.primes().iter().map(|&q| p % q).collect();
        x.scalar_mul_per_row(&scalars, &full);
        let out = mod_down(&x, &full, &data);
        let expect = RnsPoly::from_signed(&y_vals, &data);
        assert_eq!(out, expect);
    }

    #[test]
    fn mod_down_rounds_to_nearest() {
        let (full, data) = bases();
        let p = *full.primes().last().unwrap();
        // x = P*y + r with |r| < P/2 → rounds to y.
        let n = full.degree();
        let mut vals: Vec<i64> = vec![0; n];
        vals[0] = 5;
        let mut x = RnsPoly::from_signed(&vals, &full);
        let scalars: Vec<u64> = full.primes().iter().map(|&q| p % q).collect();
        x.scalar_mul_per_row(&scalars, &full);
        // add small residual 3 (well below P/2)
        let mut resid = vec![0i64; n];
        resid[0] = 3;
        x.add_assign_poly(&RnsPoly::from_signed(&resid, &full), &full);
        let out = mod_down(&x, &full, &data);
        let (mag, neg) = out.coeff_centered(0, &data);
        assert!(!neg);
        assert_eq!(mag.to_u64(), 5);
    }

    #[test]
    fn galois_elements_are_odd_and_in_range() {
        let n = 8192;
        for steps in [1i64, 2, 5, -1, -7, 4095] {
            let e = galois_element_rows(steps, n);
            assert_eq!(e % 2, 1);
            assert!(e < 2 * n as u64);
        }
        assert_eq!(galois_element_columns(n), 2 * n as u64 - 1);
    }

    #[test]
    fn galois_rows_inverse_steps_compose_to_identity() {
        let n = 1024;
        let e1 = galois_element_rows(3, n);
        let e2 = galois_element_rows(-3, n);
        assert_eq!((e1 as u128 * e2 as u128 % (2 * n as u128)) as u64, 1);
    }

    #[test]
    #[should_panic(expected = "rotation step out of range")]
    fn galois_rejects_zero_step() {
        galois_element_rows(0, 1024);
    }
}
