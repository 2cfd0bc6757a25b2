//! Op-level kernel timing reporter for the HE runtime.
//!
//! Times the kernels the runtime rework targets — strict vs. lazy NTT,
//! BFV multiply, naive vs. hoisted rotation batches, and the
//! diagonal-method matvec through both the per-rotation path and the
//! fused double-hoisted `dot_rotations_plain` path — and reports the
//! speedups. Every vector kernel `choco_math::simd` dispatches is timed
//! against its scalar twin at 1k/4k/16k, and the run fails (exit 1) if any
//! of them is slower than scalar at any size, or if the forward-NTT peak
//! speedup is below 2.0×. It also times the scheme-generic
//! [`HeScheme::dot_diagonals`] entry point against a hand-inlined twin for
//! both BFV and CKKS, and fails if the trait indirection costs more than
//! measurement noise — the generic core is monomorphized, so there is no
//! dyn dispatch to pay for. Full mode additionally times the NTT-based
//! negacyclic product, CKKS set-C primitives and the two windowed-rotation
//! paths. `--json <path>` writes a machine-readable report
//! with the host it ran on (the committed baseline lives in
//! `BENCH_kernels.json`); `--smoke` shrinks the measurement windows and
//! skips the full-mode extras so CI can run the reporter as a gate without
//! inflating wall-clock time.

#![forbid(unsafe_code)]
use std::hint::black_box;

use choco::rotation::{windowed_rotate_masked, windowed_rotate_redundant, RedundantLayout};
use choco_bench::{git_rev, header, measure, note, time_str};
use choco_he::bfv::{BfvContext, Ciphertext, Plaintext};
use choco_he::ckks::{CkksCiphertext, CkksContext, CkksGaloisKeys};
use choco_he::params::HeParams;
use choco_he::{Bfv, Ckks, HeScheme};
use choco_math::ntt::NttTable;
use choco_math::prime::generate_ntt_primes;
use choco_math::simd;
use choco_prng::Blake3Rng;

struct Entry {
    name: String,
    seconds: f64,
    iters: usize,
}

/// Measures `f`, prints and records it as `name`, and returns its seconds
/// per iteration.
fn record(entries: &mut Vec<Entry>, window_ms: f64, name: &str, f: impl FnMut()) -> f64 {
    let (seconds, iters) = measure(window_ms, f);
    println!("{name:<44} {:>12} ({iters} iters)", time_str(seconds));
    entries.push(Entry {
        name: name.to_string(),
        seconds,
        iters,
    });
    seconds
}

fn seconds_of(entries: &[Entry], name: &str) -> f64 {
    entries
        .iter()
        .find(|e| e.name == name)
        .map(|e| e.seconds)
        .expect("entry recorded")
}

/// Interleaved measurement rounds per vector/scalar pair.
const RACE_ROUNDS: usize = 3;

/// Times a dispatched vector kernel against its scalar twin in
/// [`RACE_ROUNDS`] interleaved rounds, records the first round of each as
/// `<kernel>_scalar_<size>` / `<kernel>_simd_<size>`, and pushes the
/// speedup `simd_speedup_<kernel>_<size>`: the scalar side's min over the
/// rounds divided by the vector side's. Taking each side's min sheds
/// scheduler noise on loaded hosts.
fn race(
    entries: &mut Vec<Entry>,
    speedups: &mut Vec<(String, f64)>,
    window_ms: f64,
    kernel: &str,
    size: &str,
    mut scalar: impl FnMut(),
    mut vector: impl FnMut(),
) {
    let scalar_name = format!("{kernel}_scalar_{size}");
    let vector_name = format!("{kernel}_simd_{size}");
    let mut s_min = record(entries, window_ms, &scalar_name, &mut scalar);
    let mut v_min = record(entries, window_ms, &vector_name, &mut vector);
    for _ in 1..RACE_ROUNDS {
        s_min = s_min.min(measure(window_ms, &mut scalar).0);
        v_min = v_min.min(measure(window_ms, &mut vector).0);
    }
    speedups.push((format!("simd_speedup_{kernel}_{size}"), s_min / v_min));
}

fn json_escape_free(name: &str) -> &str {
    // Entry names are static identifiers; assert rather than escape.
    assert!(
        name.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
        "entry name {name:?} needs JSON escaping"
    );
    name
}

fn write_json(
    path: &str,
    mode: &str,
    threads: usize,
    backend: &str,
    entries: &[Entry],
    derived: &[(String, f64)],
) {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unset".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"choco-bench-kernels/2\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!(
        "  \"backend\": \"{}\",\n",
        json_escape_free(backend)
    ));
    out.push_str(&format!(
        "  \"host\": {{\"nproc\": {nproc}, \"CHOCO_SIMD\": \"{}\", \"CHOCO_THREADS\": \"{}\", \
         \"git_rev\": \"{}\"}},\n",
        env("CHOCO_SIMD").escape_default(),
        env("CHOCO_THREADS").escape_default(),
        git_rev().escape_default(),
    ));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"seconds_per_iter\": {:.9}, \"iters\": {}}}{sep}\n",
            json_escape_free(&e.name),
            e.seconds,
            e.iters
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"derived\": {\n");
    for (i, (name, value)) in derived.iter().enumerate() {
        let sep = if i + 1 == derived.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{}\": {value:.4}{sep}\n",
            json_escape_free(name)
        ));
    }
    out.push_str("  }\n}\n");
    std::fs::write(path, out).expect("write JSON report");
    println!("\nwrote {path}");
}

/// Per-diagonal path: one key-switch decomposition per rotation, one
/// multiply/add pair per diagonal (the pre-hoisting kernel shape).
fn matvec_naive(
    ctx: &BfvContext,
    ct: &Ciphertext,
    pts: &[Plaintext],
    gks: &choco_he::bfv::GaloisKeys,
) -> Ciphertext {
    let eval = ctx.evaluator();
    let mut acc = eval.multiply_plain(ct, &pts[0]);
    for (d, pt) in pts.iter().enumerate().skip(1) {
        let rot = eval.rotate_rows(ct, d as i64, gks).unwrap();
        acc = eval.add(&acc, &eval.multiply_plain(&rot, pt)).unwrap();
    }
    acc
}

/// Hoisted path: decompose once, permute per diagonal, and keep the whole
/// multiply/accumulate in the NTT domain (`dot_rotations_plain`).
fn matvec_hoisted(
    ctx: &BfvContext,
    ct: &Ciphertext,
    pts: &[Plaintext],
    gks: &choco_he::bfv::GaloisKeys,
) -> Ciphertext {
    let pairs: Vec<(i64, Plaintext)> = pts
        .iter()
        .enumerate()
        .map(|(d, p)| (d as i64, p.clone()))
        .collect();
    ctx.evaluator()
        .dot_rotations_plain(ct, &pairs, gks)
        .unwrap()
}

/// Hand-inlined twin of `<Bfv as HeScheme>::dot_diagonals`: encode each
/// diagonal, then the fused hoisted inner product. Any gap between this and
/// the trait call is pure indirection cost.
fn bfv_matvec_direct(
    ctx: &BfvContext,
    ct: &Ciphertext,
    diagonals: &[(i64, Vec<u64>)],
    gks: &choco_he::bfv::GaloisKeys,
) -> Ciphertext {
    let encoder = ctx.batch_encoder().unwrap();
    let pairs: Vec<(i64, Plaintext)> = diagonals
        .iter()
        .map(|(s, d)| (*s, encoder.encode(d).unwrap()))
        .collect();
    ctx.evaluator()
        .dot_rotations_plain(ct, &pairs, gks)
        .unwrap()
}

/// Hand-inlined twin of `<Ckks as HeScheme>::dot_diagonals`: one hoisted
/// decomposition across all shifts, then encode/multiply/accumulate.
fn ckks_matvec_direct(
    ctx: &CkksContext,
    ct: &CkksCiphertext,
    diagonals: &[(i64, Vec<f64>)],
    gks: &CkksGaloisKeys,
) -> CkksCiphertext {
    let steps: Vec<i64> = diagonals
        .iter()
        .map(|(s, _)| *s)
        .filter(|&s| s != 0)
        .collect();
    let rotated = ctx.rotate_many(ct, &steps, gks).unwrap();
    let mut by_step = rotated.into_iter();
    let mut acc: Option<CkksCiphertext> = None;
    for (shift, diag) in diagonals {
        let term_ct = if *shift == 0 {
            ct.clone()
        } else {
            by_step.next().unwrap()
        };
        let pt = ctx
            .encode_at(diag, term_ct.level(), ctx.default_scale())
            .unwrap();
        let term = ctx.multiply_plain(&term_ct, &pt).unwrap();
        acc = Some(match acc {
            None => term,
            Some(a) => ctx.add(&a, &term).unwrap(),
        });
    }
    acc.unwrap()
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = Some(args.next().expect("--json needs a path")),
            "--smoke" => smoke = true,
            other => panic!("unknown flag {other:?} (expected --json <path> or --smoke)"),
        }
    }
    let window_ms = if smoke { 15.0 } else { 250.0 };
    let mode = if smoke { "smoke" } else { "full" };
    let threads = choco_math::par::num_threads();
    let backend = simd::backend();
    println!(
        "simd backend: {} (CHOCO_SIMD={}), worker threads: {threads} (CHOCO_THREADS={})",
        backend.name(),
        std::env::var("CHOCO_SIMD").unwrap_or_else(|_| "unset".into()),
        std::env::var("CHOCO_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    let mut entries = Vec::new();

    header("kernel timings: NTT (n=4096, 55-bit prime)");
    let n = 4096;
    let q = generate_ntt_primes(55, n, 1)[0];
    let table = NttTable::new(n, q).unwrap();
    let mut rng = Blake3Rng::from_seed(b"bench kernels ntt");
    let mut buf: Vec<u64> = (0..n).map(|_| rng.next_below(q)).collect();
    // Repeated in-place transforms: the values churn but every iteration
    // does identical work, so the mean is a clean per-transform time.
    record(&mut entries, window_ms, "ntt_forward_lazy", || {
        table.forward(black_box(&mut buf))
    });
    record(&mut entries, window_ms, "ntt_forward_strict", || {
        table.forward_strict(black_box(&mut buf))
    });
    record(&mut entries, window_ms, "ntt_inverse_lazy", || {
        table.inverse(black_box(&mut buf))
    });
    record(&mut entries, window_ms, "ntt_inverse_strict", || {
        table.inverse_strict(black_box(&mut buf))
    });

    if !smoke {
        record(&mut entries, window_ms, "ntt_negacyclic_mul", || {
            black_box(table.negacyclic_mul(black_box(&buf), &buf));
        });
    }

    header("kernel timings: dyadic multiply (n=4096, 55-bit prime)");
    let dy_b: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % q).collect();
    let dy_b_shoup: Vec<u64> = dy_b
        .iter()
        .map(|&y| choco_math::modops::shoup_precompute(y, q))
        .collect();
    record(&mut entries, window_ms, "dyadic_mul_scalar", || {
        simd::dyadic_mul_shoup_slices(black_box(&mut buf), &dy_b, &dy_b_shoup, q)
    });

    header(&format!(
        "kernel timings: dispatched vector kernels vs scalar twins (backend: {})",
        backend.name()
    ));
    // Every kernel choco_math::simd dispatches is raced against the scalar
    // code it replaces at each benched size. Under a scalar backend both
    // sides run the same code, so the ratios are ~1.0x and not gated. The
    // kernels run in place on uniformly random residues (the shape of real
    // ciphertext data), so every call sees fresh data: re-running one fixed
    // input would train the branch predictor on the scalar side's
    // conditional subtractions and flatter it.
    let mut speedups: Vec<(String, f64)> = Vec::new();
    for (sz, size) in [(1024usize, "1k"), (4096, "4k"), (16384, "16k")] {
        let qs = generate_ntt_primes(55, sz, 1)[0];
        let ts = NttTable::new(sz, qs).unwrap();
        let other: Vec<u64> = (0..sz).map(|_| rng.next_below(qs)).collect();
        let mut sbuf: Vec<u64> = (0..sz).map(|_| rng.next_below(qs)).collect();
        let mut vbuf = sbuf.clone();
        race(
            &mut entries,
            &mut speedups,
            window_ms,
            "ntt_forward",
            size,
            || ts.forward_scalar(black_box(&mut sbuf)),
            || ts.forward(black_box(&mut vbuf)),
        );
        race(
            &mut entries,
            &mut speedups,
            window_ms,
            "add_mod",
            size,
            || simd::add_mod_slices_scalar(black_box(&mut sbuf), &other, qs),
            || simd::add_mod_slices(black_box(&mut vbuf), &other, qs),
        );
        race(
            &mut entries,
            &mut speedups,
            window_ms,
            "sub_mod",
            size,
            || simd::sub_mod_slices_scalar(black_box(&mut sbuf), &other, qs),
            || simd::sub_mod_slices(black_box(&mut vbuf), &other, qs),
        );
    }
    // The derived `simd_ntt_speedup` is the PEAK forward ratio across the
    // benched sizes: a fair summary, because every size runs the identical
    // butterfly kernels.
    let simd_ntt_speedup = speedups
        .iter()
        .filter(|(name, _)| name.starts_with("simd_speedup_ntt_forward_"))
        .map(|&(_, ratio)| ratio)
        .fold(0.0f64, f64::max);

    header("kernel timings: BFV ops (paper set B)");
    let params = HeParams::set_b();
    let ctx = BfvContext::new(&params).unwrap();
    let mut rng = Blake3Rng::from_seed(b"bench kernels bfv");
    let keys = ctx.keygen(&mut rng);
    let rk = ctx.relin_key(keys.secret_key(), &mut rng).unwrap();
    let cols = 16usize;
    let steps: Vec<i64> = (1..cols as i64).collect();
    let gks = ctx
        .galois_keys(keys.secret_key(), &steps, &mut rng)
        .unwrap();
    let encoder = ctx.batch_encoder().unwrap();
    let values: Vec<u64> = (0..params.degree() as u64).map(|i| i % 17).collect();
    let pt = encoder.encode(&values).unwrap();
    let ct = ctx.encryptor(keys.public_key()).encrypt(&pt, &mut rng);
    let eval = ctx.evaluator();
    record(&mut entries, window_ms, "bfv_multiply_relin", || {
        black_box(eval.multiply_relin(black_box(&ct), &ct, &rk).unwrap());
    });

    header("kernel timings: rotation batch (15 steps)");
    record(&mut entries, window_ms, "rotations_naive", || {
        for &s in &steps {
            black_box(eval.rotate_rows(black_box(&ct), s, &gks).unwrap());
        }
    });
    record(&mut entries, window_ms, "rotations_hoisted", || {
        black_box(eval.rotate_rows_many(black_box(&ct), &steps, &gks).unwrap());
    });

    header("kernel timings: diagonal matvec (16 diagonals)");
    let pts: Vec<Plaintext> = (0..cols as u64)
        .map(|d| {
            let diag: Vec<u64> = (0..params.degree() as u64).map(|i| (i + d) % 13).collect();
            encoder.encode(&diag).unwrap()
        })
        .collect();
    record(&mut entries, window_ms, "matvec_naive", || {
        black_box(matvec_naive(&ctx, black_box(&ct), &pts, &gks));
    });
    record(&mut entries, window_ms, "matvec_hoisted", || {
        black_box(matvec_hoisted(&ctx, black_box(&ct), &pts, &gks));
    });

    header("kernel timings: generic scheme core vs hand-inlined (BFV set B)");
    let diags_bfv: Vec<(i64, Vec<u64>)> = (0..cols as u64)
        .map(|d| {
            let diag: Vec<u64> = (0..params.degree() as u64).map(|i| (i + d) % 13).collect();
            (d as i64, diag)
        })
        .collect();
    record(&mut entries, window_ms, "bfv_matvec_direct", || {
        black_box(bfv_matvec_direct(&ctx, black_box(&ct), &diags_bfv, &gks));
    });
    record(&mut entries, window_ms, "bfv_matvec_generic", || {
        black_box(Bfv::dot_diagonals(&ctx, black_box(&ct), &diags_bfv, &gks).unwrap());
    });

    header("kernel timings: generic scheme core vs hand-inlined (CKKS set C)");
    let cparams = HeParams::set_c();
    let cctx = CkksContext::new(&cparams).unwrap();
    let mut crng = Blake3Rng::from_seed(b"bench kernels ckks");
    let ckeys = cctx.keygen(&mut crng);
    let ccols = 8usize;
    let csteps: Vec<i64> = (1..ccols as i64).collect();
    let cgks = cctx.galois_keys(ckeys.secret_key(), &csteps, &mut crng);
    let cvalues: Vec<f64> = (0..cctx.slot_count())
        .map(|i| (i % 17) as f64 * 0.25)
        .collect();
    let cpt = cctx.encode(&cvalues).unwrap();
    let cct = cctx.encrypt(&cpt, ckeys.public_key(), &mut crng).unwrap();
    let diags_ckks: Vec<(i64, Vec<f64>)> = (0..ccols)
        .map(|d| {
            let diag: Vec<f64> = (0..cctx.slot_count())
                .map(|i| ((i + d) % 13) as f64 * 0.125)
                .collect();
            (d as i64, diag)
        })
        .collect();
    record(&mut entries, window_ms, "ckks_matvec_direct", || {
        black_box(ckks_matvec_direct(
            &cctx,
            black_box(&cct),
            &diags_ckks,
            &cgks,
        ));
    });
    record(&mut entries, window_ms, "ckks_matvec_generic", || {
        black_box(Ckks::dot_diagonals(&cctx, black_box(&cct), &diags_ckks, &cgks).unwrap());
    });

    if !smoke {
        header("kernel timings: CKKS primitives (set C)");
        let crk = cctx.relin_key(ckeys.secret_key(), &mut crng);
        record(&mut entries, window_ms, "ckks_encode", || {
            black_box(cctx.encode(black_box(&cvalues)).unwrap());
        });
        record(&mut entries, window_ms, "ckks_encrypt", || {
            black_box(
                cctx.encrypt(black_box(&cpt), ckeys.public_key(), &mut crng)
                    .unwrap(),
            );
        });
        record(&mut entries, window_ms, "ckks_decrypt_decode", || {
            black_box(cctx.decode(&cctx.decrypt(black_box(&cct), ckeys.secret_key())));
        });
        record(&mut entries, window_ms, "ckks_multiply_relin", || {
            black_box(cctx.multiply_relin(black_box(&cct), &cct, &crk).unwrap());
        });
        record(&mut entries, window_ms, "ckks_rotate", || {
            black_box(cctx.rotate(black_box(&cct), 1, &cgks).unwrap());
        });

        header("kernel timings: windowed rotation by 3 (BFV set B, window 16)");
        let wgks = ctx
            .galois_keys(keys.secret_key(), &[3, -13], &mut rng)
            .unwrap();
        let layout = RedundantLayout::new(16, 4);
        let window: Vec<u64> = (1..=16).collect();
        let encryptor = ctx.encryptor(keys.public_key());
        let ct_red = encryptor.encrypt(&encoder.encode(&layout.pack(&window)).unwrap(), &mut rng);
        let ct_win = encryptor.encrypt(&encoder.encode(&window).unwrap(), &mut rng);
        record(&mut entries, window_ms, "windowed_rotate_redundant", || {
            black_box(
                windowed_rotate_redundant(&ctx, black_box(&ct_red), &layout, 3, &wgks).unwrap(),
            );
        });
        record(&mut entries, window_ms, "windowed_rotate_masked", || {
            black_box(windowed_rotate_masked(&ctx, black_box(&ct_win), 16, 3, &wgks).unwrap());
        });
    }

    // Gate measurement: a second, interleaved window per path; the min of
    // the two windows filters out scheduler/allocator noise that a single
    // back-to-back measurement is exposed to.
    let (bfv_direct2, _) = measure(window_ms, || {
        black_box(bfv_matvec_direct(&ctx, black_box(&ct), &diags_bfv, &gks));
    });
    let (bfv_generic2, _) = measure(window_ms, || {
        black_box(Bfv::dot_diagonals(&ctx, black_box(&ct), &diags_bfv, &gks).unwrap());
    });
    let (ckks_direct2, _) = measure(window_ms, || {
        black_box(ckks_matvec_direct(
            &cctx,
            black_box(&cct),
            &diags_ckks,
            &cgks,
        ));
    });
    let (ckks_generic2, _) = measure(window_ms, || {
        black_box(Ckks::dot_diagonals(&cctx, black_box(&cct), &diags_ckks, &cgks).unwrap());
    });

    let fwd = seconds_of(&entries, "ntt_forward_strict") / seconds_of(&entries, "ntt_forward_lazy");
    let inv = seconds_of(&entries, "ntt_inverse_strict") / seconds_of(&entries, "ntt_inverse_lazy");
    let rot = seconds_of(&entries, "rotations_naive") / seconds_of(&entries, "rotations_hoisted");
    let mv = seconds_of(&entries, "matvec_naive") / seconds_of(&entries, "matvec_hoisted");
    let bfv_overhead = seconds_of(&entries, "bfv_matvec_generic").min(bfv_generic2)
        / seconds_of(&entries, "bfv_matvec_direct").min(bfv_direct2);
    let ckks_overhead = seconds_of(&entries, "ckks_matvec_generic").min(ckks_generic2)
        / seconds_of(&entries, "ckks_matvec_direct").min(ckks_direct2);
    header("speedups (old / new)");
    println!("ntt_forward   {fwd:.2}x");
    println!("ntt_inverse   {inv:.2}x");
    println!("rotations     {rot:.2}x");
    println!("matvec        {mv:.2}x");
    header("simd speedups (scalar / simd; gate: every kernel >= 1.0x, forward NTT peak >= 2.0x)");
    for (name, ratio) in &speedups {
        println!(
            "{:<34} {ratio:.2}x",
            name.trim_start_matches("simd_speedup_")
        );
    }
    println!("ntt_forward peak                   {simd_ntt_speedup:.2}x");
    if backend.is_vector() {
        // A dispatched vector kernel must never lose to the scalar code it
        // replaces, and the forward NTT must at least double throughput at
        // some benched size.
        for (name, ratio) in &speedups {
            assert!(
                *ratio >= 1.0,
                "{name} is {ratio:.2}x with the {} backend (gate: >= 1.0x)",
                backend.name()
            );
        }
        assert!(
            simd_ntt_speedup >= 2.0,
            "simd forward NTT peak speedup is {simd_ntt_speedup:.2}x with the {} backend \
             (gate: >= 2.0x)",
            backend.name()
        );
    } else {
        note("scalar backend active: simd gates skipped");
    }
    header("generic-core overhead (generic / hand-inlined; gate: < 1.25x)");
    println!("bfv_matvec    {bfv_overhead:.3}x");
    println!("ckks_matvec   {ckks_overhead:.3}x");
    note(&format!("worker threads: {threads}"));
    // The gate: HeScheme::dot_diagonals is monomorphized, so anything past
    // measurement noise means a real regression (accidental dyn dispatch,
    // an extra clone on the hot path, ...).
    assert!(
        bfv_overhead < 1.25,
        "generic BFV matvec is {bfv_overhead:.3}x the hand-inlined path (gate: < 1.25x)"
    );
    assert!(
        ckks_overhead < 1.25,
        "generic CKKS matvec is {ckks_overhead:.3}x the hand-inlined path (gate: < 1.25x)"
    );

    if let Some(path) = json_path {
        let mut derived: Vec<(String, f64)> = [
            ("ntt_forward_speedup", fwd),
            ("ntt_inverse_speedup", inv),
            ("simd_ntt_speedup", simd_ntt_speedup),
            ("rotation_speedup", rot),
            ("matvec_speedup", mv),
            ("bfv_generic_overhead", bfv_overhead),
            ("ckks_generic_overhead", ckks_overhead),
        ]
        .map(|(name, value)| (name.to_string(), value))
        .to_vec();
        derived.extend(speedups);
        write_json(&path, mode, threads, backend.name(), &entries, &derived);
    }
}
