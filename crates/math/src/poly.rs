//! Coefficient-wise polynomial helpers over a single prime modulus.
//!
//! Polynomials are plain `&[u64]` / `&mut [u64]` coefficient slices reduced
//! modulo `q`; the ring structure (`x^N + 1`) is supplied by the caller via
//! [`crate::ntt::NttTable`] where products are needed.

use crate::modops::{add_mod, mul_add_mod, mul_mod, mul_mod_shoup, neg_mod, sub_mod};

/// `a += b (mod q)` element-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_assign(a: &mut [u64], b: &[u64], q: u64) {
    assert_eq!(a.len(), b.len(), "polynomial length mismatch");
    crate::simd::add_mod_slices(a, b, q);
}

/// `a -= b (mod q)` element-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub_assign(a: &mut [u64], b: &[u64], q: u64) {
    assert_eq!(a.len(), b.len(), "polynomial length mismatch");
    crate::simd::sub_mod_slices(a, b, q);
}

/// `a = -a (mod q)` element-wise.
pub fn neg_assign(a: &mut [u64], q: u64) {
    for x in a.iter_mut() {
        *x = neg_mod(*x, q);
    }
}

/// `a ⊙= b (mod q)`: the dyadic (element-wise / evaluation-form) product.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dyadic_assign(a: &mut [u64], b: &[u64], q: u64) {
    assert_eq!(a.len(), b.len(), "polynomial length mismatch");
    for (x, &y) in a.iter_mut().zip(b) {
        *x = mul_mod(*x, y, q);
    }
}

/// `acc += a ⊙ b (mod q)`: fused dyadic multiply-accumulate, the inner step
/// of evaluation-form inner products. Avoids materialising the product.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dyadic_acc_assign(acc: &mut [u64], a: &[u64], b: &[u64], q: u64) {
    assert_eq!(acc.len(), a.len(), "polynomial length mismatch");
    assert_eq!(acc.len(), b.len(), "polynomial length mismatch");
    for ((x, &y), &z) in acc.iter_mut().zip(a).zip(b) {
        *x = mul_add_mod(y, z, *x, q);
    }
}

/// `a *= s (mod q)` for a scalar `s`.
pub fn scalar_mul_assign(a: &mut [u64], s: u64, q: u64) {
    let s = s % q;
    let s_shoup = crate::modops::shoup_precompute(s, q);
    scalar_mul_shoup_assign(a, s, s_shoup, q);
}

/// `a *= s (mod q)` by one Shoup-precomputed constant (`s < q`,
/// `s_shoup = shoup_precompute(s, q)`): the workhorse of mod-down
/// (`P^{-1}` scaling) and plaintext scaling.
pub fn scalar_mul_shoup_assign(a: &mut [u64], s: u64, s_shoup: u64, q: u64) {
    for x in a.iter_mut() {
        *x = mul_mod_shoup(*x, s, s_shoup, q);
    }
}

/// Applies the Galois automorphism `x → x^e` to a polynomial in coefficient
/// form over `Z_q[x]/(x^N + 1)`, writing into `out`.
///
/// `e` must be odd and in `[1, 2N)`. Coefficient `c_i · x^i` maps to
/// `± c_i · x^{(i·e mod 2N) mod N}` with a sign flip when `i·e mod 2N ≥ N`.
///
/// # Panics
///
/// Panics if `out.len() != a.len()`, if the length is not a power of two, or
/// if `e` is even.
pub fn apply_galois(a: &[u64], e: u64, q: u64, out: &mut [u64]) {
    let n = a.len();
    assert_eq!(out.len(), n, "galois output length mismatch");
    assert!(n.is_power_of_two(), "ring degree must be a power of two");
    assert!(e % 2 == 1, "galois element must be odd");
    let m = 2 * n as u64;
    out.fill(0);
    for (i, &c) in a.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let k = (i as u64 * e) % m;
        if k < n as u64 {
            out[k as usize] = add_mod(out[k as usize], c, q);
        } else {
            let idx = (k - n as u64) as usize;
            out[idx] = sub_mod(out[idx], c, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ntt::NttTable;
    use crate::prime::generate_ntt_primes;

    const Q: u64 = 97; // small prime for hand-checkable tests (not NTT use)

    #[test]
    fn add_sub_are_inverse() {
        let mut a = vec![1u64, 2, 3, 96];
        let b = vec![5u64, 96, 0, 50];
        let orig = a.clone();
        add_assign(&mut a, &b, Q);
        sub_assign(&mut a, &b, Q);
        assert_eq!(a, orig);
    }

    #[test]
    fn neg_twice_is_identity() {
        let mut a = vec![0u64, 1, 50, 96];
        let orig = a.clone();
        neg_assign(&mut a, Q);
        neg_assign(&mut a, Q);
        assert_eq!(a, orig);
    }

    #[test]
    fn dyadic_and_scalar() {
        let mut a = vec![2u64, 3];
        dyadic_assign(&mut a, &[10, 40], Q);
        assert_eq!(a, vec![20, 23]); // 3*40 = 120 = 23 mod 97
        scalar_mul_assign(&mut a, 2, Q);
        assert_eq!(a, vec![40, 46]);
    }

    #[test]
    fn galois_identity_element() {
        let a = vec![1u64, 2, 3, 4];
        let mut out = vec![0u64; 4];
        apply_galois(&a, 1, Q, &mut out);
        assert_eq!(out, a);
    }

    #[test]
    fn galois_x_to_x3_on_degree4() {
        // a = x. e=3 → x^3.
        let a = vec![0u64, 1, 0, 0];
        let mut out = vec![0u64; 4];
        apply_galois(&a, 3, Q, &mut out);
        assert_eq!(out, vec![0, 0, 0, 1]);
        // a = x^2, e=3 → x^6 = -x^2 (mod x^4+1).
        let a = vec![0u64, 0, 1, 0];
        apply_galois(&a, 3, Q, &mut out);
        assert_eq!(out, vec![0, 0, Q - 1, 0]);
    }

    #[test]
    fn galois_is_ring_homomorphism() {
        // aut(a*b) == aut(a)*aut(b) in Z_q[x]/(x^N+1).
        let n = 64;
        let q = generate_ntt_primes(30, n, 1)[0];
        let t = NttTable::new(n, q).unwrap();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 1) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 13 + 5) % q).collect();
        let e = 3u64;
        let prod = t.negacyclic_mul(&a, &b);
        let mut aut_prod = vec![0u64; n];
        apply_galois(&prod, e, q, &mut aut_prod);

        let mut aa = vec![0u64; n];
        let mut bb = vec![0u64; n];
        apply_galois(&a, e, q, &mut aa);
        apply_galois(&b, e, q, &mut bb);
        let prod_aut = t.negacyclic_mul(&aa, &bb);
        assert_eq!(aut_prod, prod_aut);
    }

    #[test]
    #[should_panic(expected = "galois element must be odd")]
    fn galois_rejects_even_element() {
        let a = vec![0u64; 8];
        let mut out = vec![0u64; 8];
        apply_galois(&a, 2, Q, &mut out);
    }
}
