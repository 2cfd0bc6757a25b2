//! Microtimings of single HE operations and math kernels. They run after
//! the timed phase, so they never load the op path.

use crate::lane::{err, Keys, Res};
use crate::stats::median;
use choco::compiler::CompilerScheme;
use choco_math::modops::shoup_precompute;
use choco_math::prime::generate_ntt_primes;
use choco_math::{simd, NttTable};
use choco_prng::Blake3Rng;
use std::hint::black_box;
use std::time::Instant;

/// Most timed repetitions per measurement; the median is reported.
const REPS: usize = 31;

/// Wall time one measurement aims to stay within.
const BUDGET_S: f64 = 0.5;

/// Median wall time of `f`, in milliseconds: one untimed call, then up to
/// [`REPS`] timed calls (at least 5), as many as fit in [`BUDGET_S`].
pub fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    let first = t0.elapsed().as_secs_f64();
    let reps = ((BUDGET_S / first.max(1e-9)) as usize).clamp(5, REPS);
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Median milliseconds of the four HE operations the workload programs
/// are made of, at `k`'s parameters.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeOps {
    pub rotate: f64,
    pub mul_plain: f64,
    pub add: f64,
    pub mul_relin: f64,
}

impl HeOps {
    pub fn mean(a: &HeOps, b: &HeOps) -> HeOps {
        HeOps {
            rotate: (a.rotate + b.rotate) / 2.0,
            mul_plain: (a.mul_plain + b.mul_plain) / 2.0,
            add: (a.add + b.add) / 2.0,
            mul_relin: (a.mul_relin + b.mul_relin) / 2.0,
        }
    }
}

/// Times rotate-by-1, plaintext multiply by a pre-encoded operand (what
/// the server's warm operand cache does), ciphertext add, and ciphertext
/// multiply with relinearization. `k`'s Galois keys must cover step 1.
pub fn he_ops<S: CompilerScheme>(k: &Keys<S>, seed: &[u8]) -> Res<HeOps> {
    let mut rng = Blake3Rng::from_seed_labeled(seed, "micro/he");
    let width = S::slot_width(&k.ctx);
    let reals: Vec<f64> = (0..width).map(|_| rng.next_f64() - 0.5).collect();
    let values = S::quantize_const(&k.ctx, &reals, 30);
    let a = S::encrypt(&k.ctx, &k.keys, &values, &mut rng).map_err(err("encrypt"))?;
    let b = S::encrypt(&k.ctx, &k.keys, &values, &mut rng).map_err(err("encrypt"))?;
    let operand = S::encode_for_mul(&k.ctx, &values, &a).map_err(err("encode"))?;
    // Each op runs once here, so an error surfaces as an error and not as
    // a timing of the error path.
    S::rotate(&k.ctx, &a, 1, &k.galois).map_err(err("rotate"))?;
    S::mul_operand(&k.ctx, &a, &operand).map_err(err("mul_plain"))?;
    S::add(&k.ctx, &a, &b).map_err(err("add"))?;
    S::mul_ct(&k.ctx, &a, &b, &k.relin).map_err(err("mul_relin"))?;
    Ok(HeOps {
        rotate: median_ms(|| S::rotate(&k.ctx, &a, 1, &k.galois)),
        mul_plain: median_ms(|| S::mul_operand(&k.ctx, &a, &operand)),
        add: median_ms(|| S::add(&k.ctx, &a, &b)),
        mul_relin: median_ms(|| S::mul_ct(&k.ctx, &a, &b, &k.relin)),
    })
}

/// Median microseconds of the forward NTT, inverse NTT and Shoup dyadic
/// multiply at degree `n` over a 50-bit NTT prime.
pub fn math_kernels(n: usize, seed: &[u8]) -> Res<[f64; 3]> {
    let q = generate_ntt_primes(50, n, 1)
        .first()
        .copied()
        .ok_or("no NTT prime")?;
    let table = NttTable::new(n, q).map_err(err("ntt table"))?;
    let mut rng = Blake3Rng::from_seed_labeled(seed, "micro/math");
    let mut a: Vec<u64> = (0..n).map(|_| rng.next_below(q)).collect();
    let b: Vec<u64> = (0..n).map(|_| rng.next_below(q)).collect();
    let b_shoup: Vec<u64> = b.iter().map(|&x| shoup_precompute(x, q)).collect();
    let src = a.clone();
    let (mut fwd, mut inv, mut dya) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        // Forward then inverse leaves `a` canonical for the next round.
        let t0 = Instant::now();
        table.forward(black_box(&mut a));
        fwd.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        table.inverse(black_box(&mut a));
        inv.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        simd::dyadic_mul_shoup_slices(black_box(&mut a), &b, &b_shoup, q);
        dya.push(t0.elapsed().as_secs_f64() * 1e6);
        a.copy_from_slice(&src);
    }
    Ok([median(&fwd), median(&inv), median(&dya)])
}
