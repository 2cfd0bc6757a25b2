//! Socket-level chaos sweep over the client-aided chains: real TCP, real
//! server kills, real connection cuts.
//!
//! Each chain runs one program per step on a live `choco-serve`
//! evaluator; between steps the client decrypts, applies its non-linear
//! op and re-encrypts with seeded randomness:
//!
//! * conv → `client_ops::requantize` → FC at paper set A (BFV);
//! * PageRank iterations with a client refresh round between them (BFV
//!   and CKKS);
//! * K-Means: encrypted distances → client assign/update → re-encrypted
//!   centroids (CKKS).
//!
//! For every chain × scheme a fault is injected at the first and at the
//! last step: an `EvalChaos` hard kill at each `EvalStage` (a supervisor
//! then binds a successor over the same checkpoint directory on a new
//! port, and the client recovers through the eval journal), and a
//! `ChaosProxy` mid-frame cut of the eval connection (the first-step cut
//! leaves the server up; the last-step cut also restarts it over the same
//! checkpoint directory on a new port).
//!
//! Acceptance bar, per fault point:
//!
//! * every step's output wires **bit-identical** to the uninterrupted run
//!   and to the in-process reference;
//! * every primary ledger line exactly equal to the uninterrupted run's;
//! * `recovery_bytes > 0` in every faulted run, zero in the clean one;
//! * server-side: zero bad frames.

use choco::compiler::{CompilerScheme, Program};
use choco::protocol::CommLedger;
use choco::remote::{RemoteEvaluator, SessionSetup};
use choco::transport::frame::FRAME_OVERHEAD;
use choco::transport::tcp::{TcpOptions, HELLO_BYTES};
use choco::transport::{RetryPolicy, TransportError};
use choco_apps::circuits::{all_workloads, WorkloadCircuit};
use choco_apps::client_ops::requantize;
use choco_apps::distance::kmeans_update;
use choco_apps::remote::{workload_options, workload_params, RemoteWorkload, StepProgram};
use choco_he::params::{HeParams, SchemeType};
use choco_he::{Bfv, Ckks, HeScheme};
use choco_prng::Blake3Rng;
use choco_serve::{
    ChaosPlan, ChaosProxy, EvalChaos, EvalStage, OffloadServer, ServeConfig, ServeStats,
    TenantRegistry,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TENANT: u64 = 1;

/// Every step's output ciphertexts as wire bytes.
type Wires = Vec<Vec<Vec<u8>>>;

/// Runs a whole chain once — through the evaluator when given, in process
/// otherwise — with client randomness seeded afresh.
type ChainRun<S> = fn(&Chain<S>, Option<&mut RemoteEvaluator<S>>) -> Result<Wires, TransportError>;

/// A client-aided chain: the session's keys, its step programs, and the
/// client loop that strings the steps together.
struct Chain<S: CompilerScheme> {
    label: &'static str,
    session: RemoteWorkload<S>,
    programs: Vec<StepProgram>,
    run: ChainRun<S>,
}

impl<S: CompilerScheme> Chain<S> {
    /// Provisions keys for the union of every step's rotations.
    fn new(
        label: &'static str,
        params: &HeParams,
        programs: &[Program],
        galois_steps: Vec<i64>,
        run: ChainRun<S>,
    ) -> Self {
        let keys = WorkloadCircuit {
            name: label,
            program: programs[0].clone(),
            galois_steps,
        };
        Chain {
            label,
            session: RemoteWorkload::prepare(&keys, params, label.as_bytes())
                .unwrap_or_else(|e| panic!("{label}: prepare: {e}")),
            programs: programs
                .iter()
                .map(|p| StepProgram::new(p).unwrap_or_else(|e| panic!("{label}: {e}")))
                .collect(),
            run,
        }
    }

    fn rng(&self) -> Blake3Rng {
        Blake3Rng::from_seed_labeled(self.label.as_bytes(), "client")
    }

    fn encrypt(
        &self,
        values: &[S::Value],
        rng: &mut Blake3Rng,
    ) -> Result<S::Ciphertext, TransportError> {
        Ok(S::encrypt(
            &self.session.ctx,
            &self.session.keys,
            values,
            rng,
        )?)
    }

    fn decrypt(&self, ct: &S::Ciphertext) -> Result<Vec<S::Value>, TransportError> {
        Ok(S::decrypt(&self.session.ctx, &self.session.keys, ct)?)
    }
}

fn circuit(name: &str) -> WorkloadCircuit {
    all_workloads()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no {name} circuit"))
}

fn union_steps(circuits: &[&WorkloadCircuit]) -> Vec<i64> {
    let mut steps: Vec<i64> = circuits
        .iter()
        .flat_map(|c| c.galois_steps.iter().copied())
        .collect();
    steps.sort_unstable();
    steps.dedup();
    steps
}

/// conv → decrypt → requantize → re-encrypt → FC.
fn conv_fc_chain() -> Chain<Bfv> {
    let (conv, fc) = (circuit("dnn_conv"), circuit("pipeline"));
    Chain::new(
        "conv-fc/bfv",
        &HeParams::set_a(),
        &[conv.program.clone(), fc.program.clone()],
        union_steps(&[&conv, &fc]),
        |c, remote| {
            let mut rng = c.rng();
            let width = Bfv::slot_width(&c.session.ctx);
            let pixels: Vec<u64> = (0..width).map(|i| ((i * 7 + 3) % 16) as u64).collect();
            let first = (
                &c.programs[0],
                vec![("channels".to_string(), c.encrypt(&pixels, &mut rng)?)],
            );
            let mut stepped = false;
            c.session.run_chain(remote, first, |outs| {
                if std::mem::replace(&mut stepped, true) {
                    return Ok(None);
                }
                let conv = c.decrypt(&outs[0])?;
                let act = requantize(&conv[..width]);
                let ct = c.encrypt(&act, &mut rng)?;
                Ok(Some((
                    &c.programs[1],
                    vec![("activations".to_string(), ct)],
                )))
            })
        },
    )
}

/// Server-side PageRank iterations the client refreshes in between.
const PAGERANK_ITERATIONS: usize = 3;

/// PageRank iterations; between them the client decrypts and re-encrypts
/// the ranks (a refresh round: fresh noise, top level).
fn pagerank_chain<S: CompilerScheme>(scheme: SchemeType, label: &'static str) -> Chain<S> {
    let pr = circuit("pagerank");
    Chain::new(
        label,
        &workload_params(scheme).unwrap(),
        std::slice::from_ref(&pr.program),
        pr.galois_steps.clone(),
        |c, remote| {
            let mut rng = c.rng();
            let width = S::slot_width(&c.session.ctx);
            let uniform: Vec<f64> = (0..width)
                .map(|j| if j < 8 { 0.125 } else { 0.0 })
                .collect();
            let ranks = S::quantize_const(&c.session.ctx, &uniform, workload_options().scale_bits);
            let first = (
                &c.programs[0],
                vec![("ranks".to_string(), c.encrypt(&ranks, &mut rng)?)],
            );
            let mut done = 1;
            c.session.run_chain(remote, first, |outs| {
                if done == PAGERANK_ITERATIONS {
                    return Ok(None);
                }
                done += 1;
                let ranks = c.decrypt(&outs[0])?;
                let ct = c.encrypt(&ranks, &mut rng)?;
                Ok(Some((&c.programs[0], vec![("ranks".to_string(), ct)])))
            })
        },
    )
}

const KMEANS_POINTS: [[f64; 4]; 6] = [
    [0.0, 0.1, 0.0, 0.0],
    [0.1, 0.0, 0.1, 0.1],
    [0.05, 0.05, 0.0, 0.1],
    [2.0, 2.1, 2.0, 1.9],
    [2.1, 2.0, 1.9, 2.0],
    [1.9, 1.9, 2.1, 2.1],
];
const KMEANS_K: usize = 2;
const KMEANS_ITERATIONS: usize = 3;
/// One point-major block per (centroid, point) pair.
const BLOCK: usize = 4;

/// Squared distances from every centroid to every (server-plaintext)
/// point: block `c·n + b` holds centroid `c` minus point `b`, squared and
/// folded so the distance lands on the block's first slot.
fn kmeans_distance_program() -> Program {
    let n = KMEANS_POINTS.len();
    let mut neg = vec![0.0; KMEANS_K * n * BLOCK];
    for c in 0..KMEANS_K {
        for (b, p) in KMEANS_POINTS.iter().enumerate() {
            for (j, v) in p.iter().enumerate() {
                neg[(c * n + b) * BLOCK + j] = -v;
            }
        }
    }
    let mut prog = Program::new();
    let x = prog.input("centroids");
    let points = prog.constant(&neg);
    let d = prog.add_plain(x, points);
    let mut acc = prog.mul(d, d);
    let mut step = 1;
    while step < BLOCK {
        let r = prog.rotate(acc, step as i64);
        acc = prog.add(acc, r);
        step <<= 1;
    }
    prog.output(acc);
    prog
}

/// Centroid `c` replicated into each of its point blocks.
fn pack_centroids(centroids: &[Vec<f64>], width: usize) -> Vec<f64> {
    let n = KMEANS_POINTS.len();
    let mut slots = vec![0.0; width];
    for (c, centroid) in centroids.iter().enumerate() {
        for b in 0..n {
            let at = (c * n + b) * BLOCK;
            slots[at..at + centroid.len()].copy_from_slice(centroid);
        }
    }
    slots
}

/// Encrypted distances → client assignment and centroid update →
/// re-encrypted centroids.
fn kmeans_chain() -> Chain<Ckks> {
    Chain::new(
        "kmeans/ckks",
        &workload_params(SchemeType::Ckks).unwrap(),
        &[kmeans_distance_program()],
        vec![1, 2],
        |c, remote| {
            let mut rng = c.rng();
            let width = Ckks::slot_width(&c.session.ctx);
            let points: Vec<Vec<f64>> = KMEANS_POINTS.iter().map(|p| p.to_vec()).collect();
            let init = vec![vec![0.5; 4], vec![1.5; 4]];
            let first = (
                &c.programs[0],
                vec![(
                    "centroids".to_string(),
                    c.encrypt(&pack_centroids(&init, width), &mut rng)?,
                )],
            );
            let mut done = 1;
            c.session.run_chain(remote, first, |outs| {
                if done == KMEANS_ITERATIONS {
                    return Ok(None);
                }
                done += 1;
                let slots = c.decrypt(&outs[0])?;
                let n = points.len();
                let dists: Vec<Vec<f64>> = (0..KMEANS_K)
                    .map(|k| (0..n).map(|b| slots[(k * n + b) * BLOCK]).collect())
                    .collect();
                let centroids = kmeans_update(&points, &dists);
                let ct = c.encrypt(&pack_centroids(&centroids, width), &mut rng)?;
                Ok(Some((&c.programs[0], vec![("centroids".to_string(), ct)])))
            })
        },
    )
}

fn assert_primary_lines_match(label: &str, base: &CommLedger, got: &CommLedger) {
    assert_eq!(got.upload_bytes, base.upload_bytes, "{label}: upload_bytes");
    assert_eq!(
        got.download_bytes, base.download_bytes,
        "{label}: download_bytes"
    );
    assert_eq!(got.uploads, base.uploads, "{label}: uploads");
    assert_eq!(got.downloads, base.downloads, "{label}: downloads");
    assert_eq!(got.rounds, base.rounds, "{label}: rounds");
    assert_eq!(
        got.refresh_rounds, base.refresh_rounds,
        "{label}: refresh_rounds"
    );
}

fn scratch_dir(label: &str) -> PathBuf {
    let slug: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let dir = std::env::temp_dir().join(format!("choco-chaos-tcp-{slug}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn auth_seed(label: &str) -> Vec<u8> {
    format!("chaos-tcp tenant {label}").into_bytes()
}

fn bind_server(label: &str, dir: &Path, eval_chaos: EvalChaos) -> OffloadServer {
    let mut registry = TenantRegistry::new();
    registry.register(TENANT, &auth_seed(label));
    let config = ServeConfig {
        max_sessions: 4,
        worker_poll_ms: 10,
        checkpoint_dir: Some(dir.to_path_buf()),
        eval_chaos,
        ..ServeConfig::default()
    };
    OffloadServer::bind("127.0.0.1:0", config, registry).expect("bind chaos server")
}

fn connect<S: CompilerScheme>(
    chain: &Chain<S>,
    addr: &Arc<Mutex<String>>,
    session: u64,
) -> RemoteEvaluator<S> {
    // A wide receive deadline: under heavy test parallelism the default
    // can fire from CPU starvation alone, turning a clean step into a
    // recovery.
    let opts = TcpOptions {
        recv_deadline_ms: 20_000,
        ..TcpOptions::default()
    };
    let policy = RetryPolicy {
        max_attempts: 8,
        base_backoff_ms: 20,
        max_backoff_ms: 500,
        round_timeout_ms: 10_000,
    };
    chain
        .session
        .connect_reliable(
            Arc::clone(addr),
            &auth_seed(chain.label),
            TENANT,
            session,
            &opts,
            policy,
        )
        .unwrap_or_else(|e| panic!("{}: connect: {e}", chain.label))
}

fn assert_clean_server(point: &str, stats: &ServeStats) {
    assert_eq!(stats.bad_frames, 0, "{point}: server saw bad frames");
}

/// Hard-kills the server at `stage`'s `nth` occurrence; a supervisor binds
/// the successor over the same checkpoint directory on a new port and
/// repoints the client. Returns the run's wires and client ledger.
fn run_with_kill<S: CompilerScheme>(
    chain: &Chain<S>,
    point: &str,
    session: u64,
    stage: EvalStage,
    nth: u32,
) -> (Wires, CommLedger) {
    let dir = scratch_dir(point);
    let chaos = EvalChaos {
        kill: Some((stage, nth)),
        ..EvalChaos::default()
    };
    let server_a = bind_server(chain.label, &dir, chaos);
    let addr = Arc::new(Mutex::new(server_a.addr().to_string()));
    let (sup_addr, sup_dir, sup_point) = (Arc::clone(&addr), dir.clone(), point.to_string());
    let label = chain.label;
    let supervisor = std::thread::spawn(move || {
        let start = Instant::now();
        while !server_a.was_hard_killed() {
            assert!(
                start.elapsed() < Duration::from_secs(120),
                "{sup_point}: kill never fired"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats_a = server_a.shutdown();
        let server_b = bind_server(label, &sup_dir, EvalChaos::default());
        *sup_addr.lock().unwrap() = server_b.addr().to_string();
        (stats_a, server_b)
    });
    let mut client = connect(chain, &addr, session);
    let wires = (chain.run)(chain, Some(&mut client))
        .unwrap_or_else(|e| panic!("{point}: chain did not survive the kill: {e}"));
    let ledger = *client.ledger();
    drop(client);
    let (stats_a, server_b) = supervisor.join().expect("supervisor panicked");
    let stats_b = server_b.shutdown();
    assert!(
        stats_b.eval.journal.reported_dead >= 1,
        "{point}: successor reported no dead requests"
    );
    assert_clean_server(point, &stats_a);
    assert_clean_server(point, &stats_b);
    let _ = std::fs::remove_dir_all(&dir);
    (wires, ledger)
}

/// Cuts the eval connection mid-frame once `cut_at` client→server bytes
/// have crossed the proxy; with `restart`, the server is then drained and
/// rebound over the same checkpoint directory on a new port.
fn run_with_cut<S: CompilerScheme>(
    chain: &Chain<S>,
    point: &str,
    session: u64,
    cut_at: u64,
    restart: bool,
) -> (Wires, CommLedger) {
    let dir = scratch_dir(point);
    let server_a = bind_server(chain.label, &dir, EvalChaos::default());
    let plan = ChaosPlan {
        kill_after_bytes: Some(cut_at),
        ..ChaosPlan::default()
    };
    let proxy = ChaosProxy::spawn(server_a.addr(), plan).expect("spawn chaos proxy");
    let addr = Arc::new(Mutex::new(proxy.addr().to_string()));
    let (sup_addr, sup_dir, label) = (Arc::clone(&addr), dir.clone(), chain.label);
    let proxy = Arc::new(proxy);
    let sup_proxy = Arc::clone(&proxy);
    let supervisor = std::thread::spawn(move || {
        if !restart {
            return (server_a, None);
        }
        let start = Instant::now();
        while !sup_proxy.killed() && start.elapsed() < Duration::from_secs(120) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats_a = server_a.shutdown();
        let server_b = bind_server(label, &sup_dir, EvalChaos::default());
        *sup_addr.lock().unwrap() = server_b.addr().to_string();
        (server_b, Some(stats_a))
    });
    let mut client = connect(chain, &addr, session);
    let wires = (chain.run)(chain, Some(&mut client))
        .unwrap_or_else(|e| panic!("{point}: chain did not survive the cut: {e}"));
    let ledger = *client.ledger();
    drop(client);
    assert!(
        proxy.killed(),
        "{point}: the planned mid-frame cut never fired"
    );
    let (server, stats_a) = supervisor.join().expect("supervisor panicked");
    if let Some(stats_a) = stats_a {
        assert_clean_server(point, &stats_a);
    }
    let stats = server.shutdown();
    assert_clean_server(point, &stats);
    let _ = std::fs::remove_dir_all(&dir);
    (wires, ledger)
}

/// The full sweep for one chain: in-process reference, uninterrupted
/// remote run, then every fault point at the first and the last step.
fn sweep<S: CompilerScheme>(chain: &Chain<S>) {
    let label = chain.label;
    let reference = (chain.run)(chain, None).unwrap_or_else(|e| panic!("{label}: local: {e}"));
    let steps = u32::try_from(reference.len()).unwrap();
    assert!(steps >= 2, "{label}: a chain needs at least two steps");

    // Uninterrupted baseline over the same reliable client path.
    let dir = scratch_dir(&format!("{label} baseline"));
    let server = bind_server(label, &dir, EvalChaos::default());
    let addr = Arc::new(Mutex::new(server.addr().to_string()));
    let mut client = connect(chain, &addr, 0);
    let base =
        (chain.run)(chain, Some(&mut client)).unwrap_or_else(|e| panic!("{label}: baseline: {e}"));
    assert_eq!(base, reference, "{label}: remote chain != in-process chain");
    let base_ledger = *client.ledger();
    assert_eq!(base_ledger.recovery_bytes, 0, "{label}: baseline recovery");
    assert_eq!(
        base_ledger.retransmit_bytes, 0,
        "{label}: baseline retransmit"
    );
    drop(client);
    let stats = server.shutdown();
    assert_clean_server(label, &stats);
    // A fault-free run bills exactly what the client's ledger says.
    let book = stats.book.get(TENANT).expect("baseline book entry");
    assert_eq!(book.upload_bytes, base_ledger.upload_bytes, "{label}: book");
    assert_eq!(book.download_bytes, base_ledger.download_bytes, "{label}");
    let _ = std::fs::remove_dir_all(&dir);

    // Client→server bytes of the baseline: the hello, then one frame per
    // billed upload (the session setup first, the last step's request
    // last). The cuts land 1000 bytes into the first request and 1000
    // bytes before the end of the last one.
    let setup = SessionSetup {
        params: chain.session.params.clone(),
        relin_wire: S::relin_to_wire(&chain.session.relin),
        galois_wire: S::galois_to_wire(&chain.session.galois),
    };
    let frame_bytes = |payload: u64, frames: u64| payload + frames * FRAME_OVERHEAD as u64;
    let first_cut = (HELLO_BYTES as u64) + frame_bytes(setup.to_wire().len() as u64, 1) + 1_000;
    let last_cut = (HELLO_BYTES as u64)
        + frame_bytes(base_ledger.upload_bytes, u64::from(base_ledger.uploads))
        - 1_000;

    let stages = [
        EvalStage::Accept,
        EvalStage::Coalesce,
        EvalStage::MidEval,
        EvalStage::PreReply,
    ];
    let mut session = 0;
    for (at, nth, cut_at) in [("first", 1, first_cut), ("last", steps, last_cut)] {
        // The cut points alternate: the first-step cut leaves the server
        // up, the last-step cut also restarts it.
        let restart = nth == steps;
        let faults = stages
            .iter()
            .map(|&stage| Some(stage))
            .chain(std::iter::once(None));
        for fault in faults {
            session += 1;
            let (point, (wires, ledger)) = match fault {
                Some(stage) => {
                    let point = format!("{label} kill@{stage:?} at the {at} step");
                    let run = run_with_kill(chain, &point, session, stage, nth);
                    (point, run)
                }
                None => {
                    let point = format!("{label} cut (restart: {restart}) at the {at} step");
                    let run = run_with_cut(chain, &point, session, cut_at, restart);
                    (point, run)
                }
            };
            assert_eq!(
                wires, base,
                "{point}: outputs differ from the uninterrupted run"
            );
            assert_primary_lines_match(&point, &base_ledger, &ledger);
            assert!(
                ledger.recovery_bytes > 0,
                "{point}: recovery billed no bytes"
            );
        }
    }
}

/// A bit flipped in-flight inside an eval request frame must surface as a
/// typed error, never a panic and never a wrong result: the keyed-BLAKE3
/// tag rejects the frame server-side (counted in `bad_frames`, connection
/// left up), the client's receive deadline turns the missing answer into
/// a typed `TimeoutExceeded`, and a clean follow-up connection still
/// computes the bit-exact local reference.
#[test]
fn corrupted_eval_frame_is_typed_never_wrong() {
    let label = "corrupt";
    let dir = scratch_dir("tcp/corrupt/eval");
    let server = bind_server(label, &dir, EvalChaos::default());

    let params = workload_params(SchemeType::Bfv).unwrap();
    let w = RemoteWorkload::<Bfv>::prepare(&circuit("pagerank"), &params, b"corrupt-frame keys")
        .unwrap();
    let local = w.local_output_wires().unwrap();

    // The flip lands 200 bytes into the first request frame, right behind
    // the hello and the session-setup frame, so setup passes untouched and
    // only the request is mangled.
    let setup = SessionSetup {
        params: w.params.clone(),
        relin_wire: Bfv::relin_to_wire(&w.relin),
        galois_wire: Bfv::galois_to_wire(&w.galois),
    };
    let plan = ChaosPlan {
        corrupt_at_byte: Some((HELLO_BYTES + FRAME_OVERHEAD + setup.to_wire().len() + 200) as u64),
        corrupt_seed: 5,
        ..ChaosPlan::default()
    };
    let proxy = ChaosProxy::spawn(server.addr(), plan).expect("spawn chaos proxy");

    let opts = TcpOptions {
        recv_deadline_ms: 500,
        ..TcpOptions::default()
    };
    let mut through_proxy = RemoteEvaluator::<Bfv>::connect(
        &proxy.addr().to_string(),
        &auth_seed(label),
        TENANT,
        1,
        &w.params,
        &w.relin,
        &w.galois,
        &opts,
    )
    .expect("session setup must cross the proxy untouched");
    let err = through_proxy
        .evaluate(&w.prepared, &w.input_refs())
        .expect_err("a corrupted request frame must not yield a result");
    assert!(
        matches!(err, TransportError::TimeoutExceeded { .. }),
        "expected a typed timeout for the dropped frame, got {err}"
    );
    assert!(proxy.corrupted(), "the planned bit flip never fired");
    drop(through_proxy);
    proxy.stop();
    let mangled = server.stats().bad_frames;
    assert_eq!(mangled, 1, "server must reject exactly the mangled frame");

    // A clean, direct connection still computes the right answer — the
    // corruption cost a round trip, never correctness.
    let mut direct = RemoteEvaluator::<Bfv>::connect(
        &server.addr().to_string(),
        &auth_seed(label),
        TENANT,
        2,
        &w.params,
        &w.relin,
        &w.galois,
        &TcpOptions::default(),
    )
    .expect("clean connect after corruption");
    let out = direct
        .evaluate(&w.prepared, &w.input_refs())
        .expect("clean evaluate after corruption");
    let wires: Vec<Vec<u8>> = out.iter().map(Bfv::ct_to_wire).collect();
    assert_eq!(wires, local, "clean retry must match the local reference");
    drop(direct);

    let stats = server.shutdown();
    assert_eq!(
        stats.bad_frames, mangled,
        "the clean session saw bad frames"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_tcp_conv_requantize_fc_bfv_set_a() {
    sweep(&conv_fc_chain());
}

#[test]
fn chaos_tcp_pagerank_bfv() {
    sweep(&pagerank_chain::<Bfv>(SchemeType::Bfv, "pagerank/bfv"));
}

#[test]
fn chaos_tcp_pagerank_ckks() {
    sweep(&pagerank_chain::<Ckks>(SchemeType::Ckks, "pagerank/ckks"));
}

#[test]
fn chaos_tcp_kmeans_ckks() {
    sweep(&kmeans_chain());
}
