//! One benchmark run: boot the server, set up (several times, for a
//! steady set-up figure), run the timed phase, check every output and the
//! billing, and collect the metrics.

use crate::lane::{err, Res, SetupTimes};
use crate::micro::{math_kernels, median_ms};
use crate::stats::{median, tail, Tail};
use crate::trace::{op_coverage, Recorder, Span};
use crate::workloads::{auth_seed, setup, Generator, Kind, OpResult, Refs};
use choco::compiler::compile;
use choco::remote::{params_hash, program_from_wire};
use choco::CommLedger;
use choco_apps::client_ops::requantize;
use choco_he::params::HeParams;
use choco_math::pool::{PolyPool, PoolStats};
use choco_prng::Blake3Rng;
use choco_serve::{OffloadServer, ServeConfig, ServeStats, TenantRegistry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every check that did not hold (outputs, billing, traced-run checks).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Facts about the run that are not metrics: provenance, sample
    /// counts, which percentile the tail is.
    pub notes: Vec<(&'static str, String)>,
    /// Spans of the traced phase, one list per load thread.
    pub spans: Vec<Vec<Span>>,
    /// The parameter sets the workload's connections run under.
    pub params: Vec<HeParams>,
}

/// `(tenant, ledger)` per connection.
type Ledgers = Vec<(u64, CommLedger)>;

/// A server with the workload set up on it.
type Session = (OffloadServer, Vec<Box<dyn Generator>>, SetupTimes);

/// What one timed phase produced.
struct Phase {
    /// Per generator, the ops it finished.
    ops: Vec<Vec<OpResult>>,
    /// Ops that ended in an error instead of outputs.
    errors: Vec<String>,
    wall: Duration,
    spans: Vec<Vec<Span>>,
    server: (ServeStats, ServeStats),
    ledgers: (Ledgers, Ledgers),
    pool: (PoolStats, PoolStats),
}

impl Phase {
    fn all_ops(&self) -> impl Iterator<Item = &OpResult> {
        self.ops.iter().flatten()
    }

    fn count(&self) -> u64 {
        self.all_ops().count() as u64
    }

    fn attempted(&self) -> u64 {
        self.count() + self.errors.len() as u64
    }

    fn failed(&self) -> u64 {
        self.all_ops().filter(|o| !o.ok).count() as u64 + self.errors.len() as u64
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.all_ops()
            .map(|o| o.timing.latency.as_secs_f64() * 1e3)
            .collect()
    }

    /// Client time per op: the median op of each program's ops, averaged
    /// over the workload's program mix. Medians keep a few seconds of
    /// host contention from moving it.
    fn client_ms_per_op(&self) -> f64 {
        let mut groups: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
        for (g, ops) in self.ops.iter().enumerate() {
            for o in ops {
                let slot = o.evals.first().map_or(0, |e| e.0);
                groups
                    .entry((g, slot))
                    .or_default()
                    .push(ms(o.timing.client));
            }
        }
        let n: usize = groups.values().map(Vec::len).sum();
        let total: f64 = groups.values().map(|g| median(g) * g.len() as f64).sum();
        total / n.max(1) as f64
    }

    /// Client upload and download bytes over the phase.
    fn traffic(&self) -> (u64, u64) {
        let sum = |l: &[(u64, CommLedger)]| {
            l.iter().fold((0, 0), |(u, d), (_, x)| {
                (u + x.upload_bytes, d + x.download_bytes)
            })
        };
        let (u0, d0) = sum(&self.ledgers.0);
        let (u1, d1) = sum(&self.ledgers.1);
        (u1 - u0, d1 - d0)
    }
}

fn all_ledgers(generators: &[Box<dyn Generator>]) -> Ledgers {
    generators.iter().flat_map(|d| d.ledgers()).collect()
}

/// Server stats once every reply the clients have read is billed: the
/// server books a reply's bytes just after writing it, so the last one
/// can lag the client by a moment.
fn settled_stats(server: &OffloadServer, generators: &[Box<dyn Generator>]) -> ServeStats {
    let want: u64 = all_ledgers(generators)
        .iter()
        .map(|(_, l)| l.download_bytes)
        .sum();
    let start = Instant::now();
    loop {
        let stats = server.stats();
        if stats.book.combined().download_bytes >= want || start.elapsed() > Duration::from_secs(2)
        {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs every generator on its own thread for `seconds`, closed loop.
fn phase(
    server: &OffloadServer,
    generators: &mut [Box<dyn Generator>],
    next_op: &mut [u64],
    seconds: f64,
    trace: bool,
) -> Phase {
    let server0 = settled_stats(server, generators);
    let ledgers0 = all_ledgers(generators);
    let pool0 = PolyPool::stats();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_thread: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = generators
            .iter_mut()
            .zip(next_op.iter_mut())
            .map(|(d, k)| {
                s.spawn(move || {
                    let mut rec = Recorder::new(trace, start);
                    let (mut ops, mut errors) = (Vec::new(), Vec::new());
                    while Instant::now() < deadline {
                        let result = d.op(&mut rec, *k);
                        *k += 1;
                        match result {
                            Ok(r) => ops.push(r),
                            Err(e) => {
                                // A failed op may leave the connection
                                // mid-reply; this generator stops here.
                                errors.push(e);
                                break;
                            }
                        }
                    }
                    (ops, errors, rec.into_spans(), Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    (
                        Vec::new(),
                        vec!["load thread panicked".into()],
                        Vec::new(),
                        Instant::now(),
                    )
                })
            })
            .collect()
    });
    let end = per_thread.iter().map(|t| t.3).max().unwrap_or(start);
    let pool1 = PolyPool::stats();
    let server1 = settled_stats(server, generators);
    let mut phase = Phase {
        ops: Vec::new(),
        errors: Vec::new(),
        wall: end - start,
        spans: Vec::new(),
        server: (server0, server1),
        ledgers: (ledgers0, all_ledgers(generators)),
        pool: (pool0, pool1),
    };
    for (ops, errors, spans, _) in per_thread {
        phase.ops.push(ops);
        phase.errors.extend(errors);
        phase.spans.push(spans);
    }
    phase
}

fn bind(kind: Kind) -> Res<OffloadServer> {
    let mut registry = TenantRegistry::new();
    for t in kind.tenants() {
        registry.register(t, &auth_seed(t));
    }
    OffloadServer::bind("127.0.0.1:0", ServeConfig::default(), registry).map_err(err("bind"))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err("/proc/self/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line".to_string())
}

/// Client ledgers summed per tenant must equal the server's book: same
/// upload and download bytes, and no retransmit or recovery traffic on
/// either side.
fn billing_problems(clients: &[(u64, CommLedger)], book: &choco::LedgerBook) -> Vec<String> {
    let mut per_tenant: BTreeMap<u64, CommLedger> = BTreeMap::new();
    for (t, l) in clients {
        per_tenant.entry(*t).or_default().merge(l);
    }
    let mut problems = Vec::new();
    for (t, c) in &per_tenant {
        let s = book.get(*t).cloned().unwrap_or_default();
        if (c.upload_bytes, c.download_bytes) != (s.upload_bytes, s.download_bytes) {
            problems.push(format!(
                "tenant {t}: client billed {}/{} bytes up/down, server {}/{}",
                c.upload_bytes, c.download_bytes, s.upload_bytes, s.download_bytes
            ));
        }
        for (side, l) in [("client", c), ("server", &s)] {
            if l.retransmit_bytes != 0 || l.recovery_bytes != 0 {
                problems.push(format!(
                    "tenant {t}: {side} billed {} retransmit and {} recovery bytes",
                    l.retransmit_bytes, l.recovery_bytes
                ));
            }
        }
    }
    problems
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Boots a fresh server and sets the workload up on it, checking the cold
/// outputs. The first call computes the references.
fn set_up(
    kind: Kind,
    seed: &[u8],
    refs: &mut Option<Refs>,
    problems: &mut Vec<String>,
) -> Res<Session> {
    let server = bind(kind)?;
    let addr = server.addr().to_string();
    let mut times = SetupTimes::default();
    let mut generators = setup(kind, &addr, seed, &mut times)?;
    let mut cold = Vec::new();
    for d in generators.iter_mut() {
        cold.extend(d.cold(&mut times)?);
    }
    let r = match refs {
        Some(r) => Arc::clone(r),
        None => {
            let mut all = BTreeMap::new();
            for d in &generators {
                all.extend(d.references()?);
            }
            Arc::clone(refs.insert(Arc::new(all)))
        }
    };
    for (label, got) in cold {
        if r.get(&label) != Some(&got) {
            problems.push(format!(
                "cold evaluate of {label} differs from the local reference"
            ));
        }
    }
    for d in generators.iter_mut() {
        d.set_refs(Arc::clone(&r));
    }
    Ok((server, generators, times))
}

/// Untimed ops before the timed phase, so pools and caches are warm.
const WARMUP_S: f64 = 1.0;

pub fn run(args: &Args) -> Res<Outcome> {
    let seed = format!("offload-bench/{}/{}", args.kind.name(), args.seed).into_bytes();
    let mut problems = Vec::new();
    let mut refs: Option<Refs> = None;
    let (server, mut generators, first_setup) = set_up(args.kind, &seed, &mut refs, &mut problems)?;
    let mut next_op = vec![0u64; generators.len()];

    let warmup = phase(&server, &mut generators, &mut next_op, WARMUP_S, false);
    let (main, traced) = if args.trace {
        let half = args.seconds / 2.0;
        let plain = phase(&server, &mut generators, &mut next_op, half, false);
        let traced = phase(&server, &mut generators, &mut next_op, half, true);
        (plain, Some(traced))
    } else {
        (
            phase(&server, &mut generators, &mut next_op, args.seconds, false),
            None,
        )
    };
    // The peak of one session's set-up plus its steady state; the extra
    // set-ups below would only measure how the allocator reuses freed
    // sessions.
    let peak_rss = peak_rss_mb()?;

    let mut metrics: Vec<Metric> = Vec::new();
    let mut notes: Vec<(&'static str, String)> = Vec::new();
    let lat = main.latencies_ms();
    let t: Tail = tail(&lat, 10);
    let ops = main.count().max(1) as f64;
    notes.push(("ops", main.count().to_string()));
    // The tail is reported, not gated: on a shared host it measures the
    // worst seconds of neighbour load, and it did not repeat from run to
    // run within any bound a gate may use.
    notes.push(("latency_tail_ms", format!("{}", t.value)));
    notes.push(("tail_percentile", format!("{}", t.percentile)));
    notes.push(("tail_samples_beyond", t.beyond.to_string()));
    notes.push((
        "error_rate",
        format!("{}", ratio(main.failed(), main.attempted())),
    ));
    let phases: Vec<&Phase> = [&warmup, &main]
        .into_iter()
        .chain(traced.as_ref())
        .collect();
    let attempted: u64 = phases.iter().map(|p| p.attempted()).sum();
    let failed: u64 = phases.iter().map(|p| p.failed()).sum();
    let errors: Vec<&String> = phases.iter().flat_map(|p| &p.errors).collect();
    let mismatches = failed - errors.len() as u64;
    problems.extend(errors.into_iter().map(|e| format!("op failed: {e}")));
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} ops returned outputs that differ from the local reference"
        ));
    }

    let mut spans = Vec::new();
    if let Some(tp) = &traced {
        per_layer(
            &mut metrics,
            &mut notes,
            &mut problems,
            &generators,
            &main,
            tp,
            &seed,
        )?;
        spans = tp.spans.clone();
    } else {
        let (up, down) = main.traffic();
        metrics.extend([
            ("latency_p50_ms", median(&lat), "ms"),
            (
                "throughput_ops_s",
                main.count() as f64 / main.wall.as_secs_f64(),
                "1/s",
            ),
            ("client_ms_per_op", main.client_ms_per_op(), "ms"),
            ("upload_bytes_per_op", up as f64 / ops, "B"),
            ("download_bytes_per_op", down as f64 / ops, "B"),
            (
                "setup_upload_bytes",
                (first_setup.key_bytes + first_setup.body_bytes) as f64,
                "B",
            ),
            ("peak_rss_mb", peak_rss, "MB"),
        ]);
    }

    let mut params: Vec<HeParams> = Vec::new();
    for d in &generators {
        for (p, _) in d.slots() {
            if !params.contains(p) {
                params.push(p.clone());
            }
        }
    }
    let clients = all_ledgers(&generators);
    drop(generators);
    let final_stats = server.shutdown();
    problems.extend(billing_problems(&clients, &final_stats.book));

    // More set-ups, each on a fresh server, for a steady set-up figure.
    let mut setups = vec![first_setup];
    for _ in 1..args.setup_reps.max(1) {
        let (server, generators, times) = set_up(args.kind, &seed, &mut refs, &mut problems)?;
        drop(generators);
        server.shutdown();
        setups.push(times);
    }
    notes.push(("setup_reps", setups.len().to_string()));
    let setup_ms = |f: &dyn Fn(&SetupTimes) -> Duration| {
        median(&setups.iter().map(|s| ms(f(s))).collect::<Vec<_>>())
    };
    if args.trace {
        metrics.extend([
            ("client.keygen_ms", setup_ms(&|s| s.keygen), "ms"),
            ("remote.connect_ms", setup_ms(&|s| s.connect), "ms"),
            ("remote.setup_bytes", first_setup.key_bytes as f64, "B"),
            (
                "remote.cold_evaluate_ms",
                setup_ms(&|s| s.cold_evaluate),
                "ms",
            ),
        ]);
    } else {
        metrics.push(("setup_s", setup_ms(&|s| s.total()) / 1e3, "s"));
    }
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics,
        notes,
        spans,
        params,
    })
}

/// The per-layer metrics of a traced run, and the end-to-end metric each
/// should move, on the workload where it shows:
///
/// | metrics | moves | shows on |
/// |---|---|---|
/// | `client.keygen_ms`, `remote.connect_ms`, `remote.setup_bytes`, `remote.cold_evaluate_ms`, `compiler.compile_ms` | `setup_s`, `setup_upload_bytes` | `client_aided` |
/// | `client.encrypt_ms`, `client.decrypt_ms`, `client.cts_per_op`, `client.requantize_ms` | `client_ms_per_op`, `latency_p50_ms` | `client_aided` |
/// | `remote.evaluate_ms`, `remote.wait_ms` (evaluate minus `he.exec_ms`) | `latency_p50_ms`, `throughput_ops_s` | wait: `rtt_mix` |
/// | `he.exec_ms`, `he.*_ms`, `math.*_us`, `compiler.*_per_op` | `latency_p50_ms`, `throughput_ops_s` | `client_aided`, `tenant_batch` |
/// | `he.output_budget_bits` | nothing yet: the noise margin left | `rtt_mix`, `client_aided` |
/// | `math.pool.*_per_op` | `peak_rss_mb`, `latency_p50_ms` | all |
/// | `serve.sched.*` | `throughput_ops_s` | `tenant_batch` (1 elsewhere) |
/// | `serve.cache.*` | `latency_p50_ms`, `setup_s` | `rtt_mix` |
/// | `serve.eval.*`, `serve.isolation.*` | failed ops | 0 in a clean run |
/// | `serve.*_bytes` | cross-check of `upload_bytes_per_op`, `download_bytes_per_op` | all |
/// | `trace.*` | tracing overhead and span coverage of the op | all |
fn per_layer(
    metrics: &mut Vec<Metric>,
    notes: &mut Vec<(&'static str, String)>,
    problems: &mut Vec<String>,
    generators: &[Box<dyn Generator>],
    untraced: &Phase,
    tp: &Phase,
    seed: &[u8],
) -> Res<()> {
    let ops = tp.count().max(1) as f64;
    let calls = |name: &str| -> Vec<f64> {
        tp.all_ops()
            .flat_map(|o| o.timing.calls.iter())
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| ms(*d))
            .collect()
    };
    let enc = calls("client.encrypt");
    let dec = calls("client.decrypt");
    let req = calls("client.requantize");
    let requantize_ms = if req.is_empty() {
        // No client step between layers on this workload: what one would
        // cost on a row of 512 slot values.
        let mut rng = Blake3Rng::from_seed_labeled(seed, "micro/requantize");
        let row: Vec<u64> = (0..512).map(|_| rng.next_below(1 << 17)).collect();
        median_ms(|| requantize(&row))
    } else {
        median(&req)
    };

    // In-process evaluation floor per generator slot, and what each op's
    // evaluate calls spent beyond it.
    let exec: Vec<Vec<f64>> = generators.iter().map(|d| d.replay()).collect::<Res<_>>()?;
    let (mut eval_op, mut exec_op, mut wait_op) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_slot: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    let mut counts = [0u64; 4];
    for (di, ops) in tp.ops.iter().enumerate() {
        let slots = generators[di].slots();
        for o in ops {
            let evals: Vec<f64> = o
                .timing
                .calls
                .iter()
                .filter(|(n, _)| n.starts_with("remote.evaluate"))
                .map(|(_, d)| ms(*d))
                .collect();
            let mut floor = 0.0;
            for (&(slot, reqs), &e) in o.evals.iter().zip(&evals) {
                floor += exec[di].get(slot).copied().unwrap_or(0.0);
                per_slot.entry((di, slot)).or_default().push(e);
                if let Some((_, prog)) = slots.get(slot) {
                    let c = prog.compiled.counts;
                    for (acc, v) in
                        counts
                            .iter_mut()
                            .zip([c.rotations, c.pt_mults, c.ct_mults, c.rescales])
                    {
                        *acc += u64::from(v) * reqs as u64;
                    }
                }
            }
            let total: f64 = evals.iter().sum();
            eval_op.push(total);
            exec_op.push(floor);
            wait_op.push(total - floor);
        }
    }
    for ((di, slot), e) in &per_slot {
        let wait = median(e) - exec[*di][*slot];
        if wait < 0.0 {
            problems.push(format!(
                "generator {di} slot {slot}: remote evaluate median below the in-process floor by {:.3} ms",
                -wait
            ));
        }
    }

    // Server compile time: compiling each program once per parameter set,
    // as the server's cache keys it, from the wire form the server gets.
    let mut seen = BTreeSet::new();
    let mut compile_ms = 0.0;
    for d in generators {
        for (params, prog) in d.slots() {
            if seen.insert((params_hash(params), prog.prepared.program_ref)) {
                let source = program_from_wire(&prog.prepared.wire).map_err(err("program wire"))?;
                compile(&source, &prog.prepared.options).map_err(err("compile"))?;
                compile_ms += median_ms(|| compile(&source, &prog.prepared.options));
            }
        }
    }

    let he = generators.first().ok_or("no generator")?.he_ops()?;
    let mut budget: Option<f64> = None;
    for d in generators {
        if let Some(b) = d.output_budget()? {
            budget = Some(budget.map_or(b, |m: f64| m.min(b)));
        }
    }
    let math1k = math_kernels(1024, seed)?;
    let math8k = math_kernels(8192, seed)?;

    let (s0, s1) = (&tp.server.0.eval, &tp.server.1.eval);
    let sched_jobs = s1.sched.jobs - s0.sched.jobs;
    let sched_batches = s1.sched.batches - s0.sched.batches;
    let prog_hits = s1.cache.programs.hits - s0.cache.programs.hits;
    let prog_misses = s1.cache.programs.misses - s0.cache.programs.misses;
    let opnd_hits = s1.cache.operands.hits - s0.cache.operands.hits;
    let opnd_misses = s1.cache.operands.misses - s0.cache.operands.misses;
    let (b0, b1) = (tp.server.0.book.combined(), tp.server.1.book.combined());

    let mut coverage_min = 1.0f64;
    let mut self_ms = Vec::new();
    for spans in &tp.spans {
        for (cov, self_ns) in op_coverage(spans) {
            coverage_min = coverage_min.min(cov);
            self_ms.push(self_ns as f64 / 1e6);
        }
    }
    if coverage_min < 0.9 {
        problems.push(format!(
            "child spans cover only {:.1}% of an op",
            100.0 * coverage_min
        ));
    }
    let overhead = median(&tp.latencies_ms()) - median(&untraced.latencies_ms());
    notes.push(("traced_ops", tp.count().to_string()));
    notes.push(("trace_overhead_ms", format!("{overhead}")));

    metrics.extend([
        ("client.encrypt_ms", median(&enc), "ms"),
        ("client.decrypt_ms", median(&dec), "ms"),
        (
            "client.cts_per_op",
            (enc.len() + dec.len()) as f64 / ops,
            "count",
        ),
        ("client.requantize_ms", requantize_ms, "ms"),
        ("remote.evaluate_ms", median(&eval_op), "ms"),
        ("remote.wait_ms", median(&wait_op), "ms"),
        ("compiler.compile_ms", compile_ms, "ms"),
        ("compiler.rotations_per_op", counts[0] as f64 / ops, "count"),
        ("compiler.pt_mults_per_op", counts[1] as f64 / ops, "count"),
        ("compiler.ct_mults_per_op", counts[2] as f64 / ops, "count"),
        ("compiler.rescales_per_op", counts[3] as f64 / ops, "count"),
        ("he.exec_ms", median(&exec_op), "ms"),
        ("he.rotate_ms", he.rotate, "ms"),
        ("he.mul_plain_ms", he.mul_plain, "ms"),
        ("he.add_ms", he.add, "ms"),
        ("he.mul_relin_ms", he.mul_relin, "ms"),
        ("he.output_budget_bits", budget.unwrap_or(0.0), "bits"),
        ("math.ntt_forward_1024_us", math1k[0], "us"),
        ("math.ntt_inverse_1024_us", math1k[1], "us"),
        ("math.dyadic_mul_1024_us", math1k[2], "us"),
        ("math.ntt_forward_8192_us", math8k[0], "us"),
        ("math.ntt_inverse_8192_us", math8k[1], "us"),
        ("math.dyadic_mul_8192_us", math8k[2], "us"),
        (
            "math.pool.fresh_per_op",
            (tp.pool.1.fresh - tp.pool.0.fresh) as f64 / ops,
            "count",
        ),
        (
            "math.pool.reused_per_op",
            (tp.pool.1.reused - tp.pool.0.reused) as f64 / ops,
            "count",
        ),
        (
            "serve.sched.mean_batch",
            ratio(sched_jobs, sched_batches),
            "count",
        ),
        ("serve.sched.max_batch", s1.sched.max_batch as f64, "count"),
        (
            "serve.sched.batches_per_op",
            sched_batches as f64 / ops,
            "count",
        ),
        (
            "serve.cache.program_hit_ratio",
            ratio(prog_hits, prog_hits + prog_misses),
            "ratio",
        ),
        (
            "serve.cache.operand_hit_ratio",
            ratio(opnd_hits, opnd_hits + opnd_misses),
            "ratio",
        ),
        ("serve.cache.compiles", s1.cache.compiles as f64, "count"),
        (
            "serve.eval.errors",
            (s1.counters.errors - s0.counters.errors) as f64,
            "count",
        ),
        (
            "serve.eval.need_program",
            (s1.counters.need_program - s0.counters.need_program) as f64,
            "count",
        ),
        (
            "serve.isolation.shed_deadline",
            (s1.isolation.shed_deadline - s0.isolation.shed_deadline) as f64,
            "count",
        ),
        (
            "serve.isolation.bisections",
            (s1.isolation.bisections - s0.isolation.bisections) as f64,
            "count",
        ),
        (
            "serve.isolation.breaker_refusals",
            (s1.isolation.breaker_refusals - s0.isolation.breaker_refusals) as f64,
            "count",
        ),
        (
            "serve.upload_bytes",
            (b1.upload_bytes - b0.upload_bytes) as f64,
            "B",
        ),
        (
            "serve.download_bytes",
            (b1.download_bytes - b0.download_bytes) as f64,
            "B",
        ),
        (
            "serve.retransmit_bytes",
            (b1.retransmit_bytes - b0.retransmit_bytes) as f64,
            "B",
        ),
        ("trace.overhead_ms", overhead, "ms"),
        ("trace.coverage_min", coverage_min, "ratio"),
        ("trace.op_self_ms", median(&self_ms), "ms"),
    ]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(kind: Kind, trace: bool) -> Outcome {
        let out = run(&Args {
            kind,
            seed: 7,
            seconds: 0.4,
            trace,
            setup_reps: 2,
        })
        .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert!(
            out.problems.is_empty(),
            "{}: {:?}",
            kind.name(),
            out.problems
        );
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0);
        out
    }

    /// The metric names `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("key");
        let block = &text[start..];
        let block = &block[..block.find(']').expect("list end")];
        block
            .split("\"name\"")
            .skip(1)
            .filter_map(|s| s.split('"').nth(1).map(str::to_string))
            .collect()
    }

    fn names(out: &Outcome) -> Vec<String> {
        let mut n: Vec<String> = out.metrics.iter().map(|m| m.0.to_string()).collect();
        n.sort();
        n
    }

    #[test]
    fn every_workload_passes_the_correctness_gate_and_reports_every_metric() {
        let mut end_to_end = declared("end_to_end");
        let mut per_layer = declared("per_layer");
        end_to_end.sort();
        per_layer.sort();
        for kind in Kind::ALL {
            assert_eq!(names(&smoke(kind, false)), end_to_end, "{}", kind.name());
            let traced = smoke(kind, true);
            assert_eq!(names(&traced), per_layer, "{}", kind.name());
            let budget = traced
                .metrics
                .iter()
                .find(|m| m.0 == "he.output_budget_bits");
            assert!(
                budget.is_some_and(|m| m.1 > 0.0),
                "{}: {budget:?}",
                kind.name()
            );
        }
    }
}
