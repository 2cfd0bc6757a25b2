//! Property-based tests for the arithmetic substrate (deterministic
//! quickprop harness; each property runs seeded random cases).

use choco_math::bigint::UBig;
use choco_math::modops::{add_mod, center, inv_mod, mul_mod, pow_mod, sub_mod};
use choco_math::ntt::{apply_galois_ntt, galois_ntt_permutation, NttTable};
use choco_math::par;
use choco_math::poly::apply_galois;
use choco_math::prime::generate_ntt_primes;
use choco_math::rns::RnsBasis;
use choco_quickprop::run_cases;

const Q: u64 = 1_152_921_504_606_830_593; // 60-bit prime

#[test]
fn modops_match_u128_semantics() {
    run_cases("modops match u128", 256, |g| {
        let (a, b) = (g.u64_below(Q), g.u64_below(Q));
        assert_eq!(
            add_mod(a, b, Q) as u128,
            (a as u128 + b as u128) % Q as u128
        );
        assert_eq!(
            mul_mod(a, b, Q) as u128,
            (a as u128 * b as u128) % Q as u128
        );
        assert_eq!(
            sub_mod(a, b, Q) as u128,
            (a as u128 + Q as u128 - b as u128) % Q as u128
        );
    });
}

#[test]
fn modular_inverse_is_inverse() {
    run_cases("inverse is inverse", 256, |g| {
        let a = g.u64_in(1, Q);
        let inv = inv_mod(a, Q);
        assert_eq!(mul_mod(a, inv, Q), 1);
    });
}

#[test]
fn pow_satisfies_exponent_addition() {
    run_cases("pow exponent addition", 128, |g| {
        let base = g.u64_in(1, Q);
        let e1 = g.u64_below(1000);
        let e2 = g.u64_below(1000);
        let lhs = pow_mod(base, e1 + e2, Q);
        let rhs = mul_mod(pow_mod(base, e1, Q), pow_mod(base, e2, Q), Q);
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn center_roundtrips() {
    run_cases("center roundtrip", 256, |g| {
        let a = g.u64_below(Q);
        let c = center(a, Q);
        let back = c.rem_euclid(Q as i64) as u64;
        assert_eq!(back, a);
        assert!(c.unsigned_abs() <= Q / 2 + 1);
    });
}

#[test]
fn ubig_add_sub_roundtrip() {
    run_cases("ubig add/sub roundtrip", 256, |g| {
        let x = UBig::from_limbs(&g.array_u64::<4>());
        let y = UBig::from_limbs(&g.array_u64::<3>());
        let sum = x.add(&y);
        assert_eq!(sum.sub(&y), x);
    });
}

#[test]
fn ubig_mul_matches_u128() {
    run_cases("ubig mul vs u128", 256, |g| {
        let (a, b) = (g.u64(), g.u64());
        let prod = UBig::from_u64(a).mul(&UBig::from_u64(b));
        assert_eq!(prod, UBig::from_u128(a as u128 * b as u128));
    });
}

#[test]
fn ubig_divrem_reconstructs() {
    run_cases("ubig divrem reconstructs", 256, |g| {
        let x = UBig::from_limbs(&g.array_u64::<5>());
        let y = UBig::from_limbs(&g.array_u64::<2>());
        if y.is_zero() {
            return; // discard the (astronomically rare) zero divisor
        }
        let (q, r) = x.divrem(&y);
        assert!(r < y);
        assert_eq!(q.mul(&y).add(&r), x);
    });
}

#[test]
fn ubig_shift_roundtrip() {
    run_cases("ubig shift roundtrip", 256, |g| {
        let x = UBig::from_limbs(&g.array_u64::<3>());
        let s = g.u64_below(130) as u32;
        assert_eq!(x.shl(s).shr(s), x);
    });
}

#[test]
fn ubig_mul_distributes() {
    run_cases("ubig mul distributes", 128, |g| {
        let x = UBig::from_limbs(&g.array_u64::<2>());
        let y = UBig::from_limbs(&g.array_u64::<2>());
        let z = UBig::from_limbs(&g.array_u64::<2>());
        assert_eq!(x.add(&y).mul(&z), x.mul(&z).add(&y.mul(&z)));
    });
}

#[test]
fn ntt_roundtrip_random_polys() {
    run_cases("ntt roundtrip", 16, |g| {
        let n = 256usize;
        let q = generate_ntt_primes(45, n, 1)[0];
        let table = NttTable::new(n, q).unwrap();
        let seed = g.u64();
        let orig: Vec<u64> = (0..n as u64)
            .map(|i| (i.wrapping_mul(seed | 1)) % q)
            .collect();
        let mut a = orig.clone();
        table.forward(&mut a);
        table.inverse(&mut a);
        assert_eq!(a, orig);
    });
}

#[test]
fn ntt_mul_commutes() {
    run_cases("ntt mul commutes", 16, |g| {
        let n = 128usize;
        let q = generate_ntt_primes(45, n, 1)[0];
        let table = NttTable::new(n, q).unwrap();
        let seed = g.u64();
        let a: Vec<u64> = (0..n as u64)
            .map(|i| (i.wrapping_mul(seed | 1)) % q)
            .collect();
        let b: Vec<u64> = (0..n as u64)
            .map(|i| (i.wrapping_add(seed >> 3)) % q)
            .collect();
        assert_eq!(table.negacyclic_mul(&a, &b), table.negacyclic_mul(&b, &a));
    });
}

#[test]
fn lazy_ntt_matches_strict_on_random_polys() {
    run_cases("lazy ntt matches strict", 24, |g| {
        let n = 1usize << g.usize_in(5, 10); // 32..512
        let bits = g.u64_in(30, 61) as u32;
        let q = generate_ntt_primes(bits, n, 1)[0];
        let table = NttTable::new(n, q).unwrap();
        let orig = g.vec_u64_below(n, q);

        let mut lazy = orig.clone();
        let mut strict = orig.clone();
        table.forward(&mut lazy);
        table.forward_strict(&mut strict);
        assert_eq!(lazy, strict, "forward diverged (n={n}, q={q})");

        table.inverse(&mut lazy);
        table.inverse_strict(&mut strict);
        assert_eq!(lazy, strict, "inverse diverged (n={n}, q={q})");
        assert_eq!(lazy, orig, "roundtrip lost data (n={n}, q={q})");
    });
}

#[test]
fn galois_ntt_permutation_matches_coefficient_automorphism() {
    run_cases("galois ntt permutation", 24, |g| {
        let n = 1usize << g.usize_in(4, 9); // 16..256
        let q = generate_ntt_primes(45, n, 1)[0];
        let table = NttTable::new(n, q).unwrap();
        let e = 2 * g.u64_below(n as u64) + 1; // odd element in [1, 2n)
        let a = g.vec_u64_below(n, q);

        // Coefficient-domain automorphism, then NTT.
        let mut coeff = vec![0u64; n];
        apply_galois(&a, e, q, &mut coeff);
        table.forward(&mut coeff);

        // NTT, then the pure evaluation-domain permutation.
        let mut ntt = a.clone();
        table.forward(&mut ntt);
        let perm = galois_ntt_permutation(n, e);
        let mut permuted = vec![0u64; n];
        apply_galois_ntt(&ntt, &perm, &mut permuted);

        assert_eq!(coeff, permuted, "galois mismatch (n={n}, e={e})");
    });
}

#[test]
fn parallel_primitives_match_sequential_at_any_thread_count() {
    // The workspace invariant: results are bit-identical no matter how many
    // worker threads run, because each worker owns a contiguous chunk.
    run_cases("parallel matches sequential", 12, |g| {
        let len = g.usize_in(1, 300);
        let q = 1_152_921_504_606_830_593u64;
        let data = g.vec_u64_below(len, q);

        let expect_map: Vec<u64> = data.iter().map(|&x| mul_mod(x, x, q)).collect();
        let mut expect_each = data.clone();
        for (i, v) in expect_each.iter_mut().enumerate() {
            *v = add_mod(*v, i as u64 % q, q);
        }

        for threads in [1usize, 2, par::num_threads().max(2)] {
            par::set_num_threads(threads);
            let mapped = par::par_map_range(len, |i| mul_mod(data[i], data[i], q));
            assert_eq!(mapped, expect_map, "par_map_range at {threads} threads");
            let mut each = data.clone();
            par::par_for_each_mut(&mut each, |i, v| *v = add_mod(*v, i as u64 % q, q));
            assert_eq!(each, expect_each, "par_for_each_mut at {threads} threads");
        }
        par::set_num_threads(0); // restore the environment default
    });
}

#[test]
fn rns_compose_decompose_roundtrip() {
    run_cases("rns compose/decompose", 16, |g| {
        let n = 64usize;
        let primes = generate_ntt_primes(50, n, 3);
        let basis = RnsBasis::new(n, &primes).unwrap();
        let x = UBig::from_limbs(&g.array_u64::<2>());
        if x >= *basis.modulus() {
            return; // discard values outside the RNS range
        }
        let residues = basis.decompose(&x);
        assert_eq!(basis.compose(&residues), x);
    });
}

#[test]
fn rns_compose_is_additive() {
    run_cases("rns compose additive", 16, |g| {
        let n = 64usize;
        let primes = generate_ntt_primes(50, n, 2);
        let basis = RnsBasis::new(n, &primes).unwrap();
        let (a, b) = (g.u64(), g.u64());
        let ra = basis.decompose(&UBig::from_u64(a));
        let rb = basis.decompose(&UBig::from_u64(b));
        let sum: Vec<u64> = ra
            .iter()
            .zip(&rb)
            .zip(basis.primes())
            .map(|((&x, &y), &q)| add_mod(x % q, y % q, q))
            .collect();
        let composed = basis.compose(&sum);
        let expect = UBig::from_u128(a as u128 + b as u128)
            .divrem(basis.modulus())
            .1;
        assert_eq!(composed, expect);
    });
}

/// Moduli sizes matched to the bench suite's parameter sets, plus the
/// 61-bit ceiling (`q` just below `2^61`, the lazy-reduction limit).
const SIMD_MOD_BITS: [u32; 6] = [30, 45, 55, 58, 60, 61];

#[test]
fn dispatched_ntt_bit_identical_to_scalar_and_strict() {
    // The dispatched forward transform must agree bit-for-bit with both the
    // scalar lazy path and the fully-reduced strict reference (the inverse,
    // scalar on every backend, with its strict reference and the input),
    // whatever backend `CHOCO_SIMD`/detection selected for this process
    // (ci.sh runs this suite under CHOCO_SIMD=0 and =1 × CHOCO_THREADS=1/4).
    let mut tables = Vec::new();
    for log_n in 10..=14 {
        let n = 1usize << log_n;
        for &bits in &SIMD_MOD_BITS {
            let q = generate_ntt_primes(bits, n, 1)[0];
            tables.push(NttTable::new(n, q).unwrap());
        }
    }
    run_cases("dispatched ntt bit identity", 2, |g| {
        for t in &tables {
            let (n, q) = (t.size(), t.modulus());
            let a: Vec<u64> = (0..n).map(|_| g.u64_below(q)).collect();
            let ctx = format!("n={n}, q={q} ({} bits)", 64 - q.leading_zeros());

            let mut fwd = a.clone();
            t.forward(&mut fwd);
            let mut fwd_scalar = a.clone();
            t.forward_scalar(&mut fwd_scalar);
            assert_eq!(fwd, fwd_scalar, "forward simd != scalar: {ctx}");
            let mut fwd_strict = a.clone();
            t.forward_strict(&mut fwd_strict);
            assert_eq!(fwd, fwd_strict, "forward lazy != strict: {ctx}");

            let mut inv = fwd.clone();
            t.inverse(&mut inv);
            let mut inv_strict = fwd.clone();
            t.inverse_strict(&mut inv_strict);
            assert_eq!(inv, inv_strict, "inverse lazy != strict: {ctx}");
            assert_eq!(inv, a, "roundtrip != identity: {ctx}");
        }
    });
}

#[test]
fn simd_slice_ops_match_scalar_reference() {
    use choco_math::simd;
    // The dispatched add/sub kernels must equal the modops reference.
    // Odd lengths exercise the vector tails; length < lane width exercises
    // the all-tail case.
    run_cases("simd slice ops match scalar", 48, |g| {
        let bits = SIMD_MOD_BITS[g.usize_in(0, SIMD_MOD_BITS.len() - 1)];
        let q = generate_ntt_primes(bits, 64, 1)[0];
        let len = g.usize_in(1, 131);
        let a: Vec<u64> = (0..len).map(|_| g.u64_below(q)).collect();
        let b: Vec<u64> = (0..len).map(|_| g.u64_below(q)).collect();

        let mut got = a.clone();
        simd::add_mod_slices(&mut got, &b, q);
        let want: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| add_mod(x, y, q)).collect();
        assert_eq!(got, want, "add_mod_slices (len {len}, q {q})");

        let mut got = a.clone();
        simd::sub_mod_slices(&mut got, &b, q);
        let want: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| sub_mod(x, y, q)).collect();
        assert_eq!(got, want, "sub_mod_slices (len {len}, q {q})");
    });
}
