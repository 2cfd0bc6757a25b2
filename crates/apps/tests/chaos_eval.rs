//! Eval-pipeline chaos sweep: hard kills at every evaluation stage, plus
//! poison-job isolation, deadline shedding, and circuit-breaker recovery —
//! all over real loopback TCP.
//!
//! `chaos_tcp.rs` proves multi-step client-aided chains survive kills and
//! socket loss at their first and last steps. This suite proves a single
//! pipelined batch survives the server process dying mid-batch, at every
//! stage of a request's life:
//!
//! * **Accept** — journaled but never scheduled;
//! * **Coalesce** — queued, died in the batching window;
//! * **MidEval** — died with the kernel invocation in flight;
//! * **PreReply** — evaluated, died before the response write.
//!
//! For each stage × both schemes, a supervisor restarts the server over
//! the same checkpoint directory, the client recovers through the eval
//! journal (redial → re-setup → dead-request query → resend), and the run
//! must end with **bit-identical** output ciphertext wire bytes and
//! **exactly** the uninterrupted run's primary ledger lines — resends land
//! on `recovery_bytes`/`retransmit_bytes`, never on the primary lines.
//!
//! The isolation tests then prove the scheduler's blast-radius bounds: a
//! poison job co-batched with three healthy tenants is bisected out
//! (healthy results correct and billed), its program group is quarantined
//! (second submission refused without entering the scheduler), a stalled
//! dispatch sheds past-deadline jobs with a typed response the client
//! retries through, and an error storm trips the tenant's breaker open —
//! typed `Unavailable` — until a half-open probe succeeds.

use choco::compiler::Program;
use choco::protocol::CommLedger;
use choco::remote::PreparedProgram;
use choco::transport::tcp::TcpOptions;
use choco::transport::{RetryPolicy, TransportError};
use choco_apps::circuits::{all_workloads, WorkloadCircuit};
use choco_apps::remote::{workload_options, workload_params, RemoteWorkload};
use choco_he::params::SchemeType;
use choco_he::{Bfv, Ckks, HeScheme};
use choco_serve::{
    EvalChaos, EvalStage, IsolationConfig, OffloadServer, ServeConfig, TenantRegistry,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const TENANT: u64 = 1;
const COPIES: usize = 3;

fn tenant_seed(tenant: u64) -> String {
    format!("chaos-eval tenant {tenant}")
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn scratch_dir(label: &str) -> PathBuf {
    let slug: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let dir = std::env::temp_dir().join(format!("choco-chaos-eval-{slug}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bind_server(dir: &Path, tenants: u64, eval_chaos: EvalChaos) -> OffloadServer {
    let mut registry = TenantRegistry::new();
    for t in 1..=tenants {
        registry.register(t, tenant_seed(t).as_bytes());
    }
    let config = ServeConfig {
        checkpoint_dir: Some(dir.to_path_buf()),
        batch_window_ms: 60,
        eval_chaos,
        ..ServeConfig::default()
    };
    OffloadServer::bind("127.0.0.1:0", config, registry).expect("bind chaos-eval server")
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_backoff_ms: 20,
        max_backoff_ms: 500,
        round_timeout_ms: 10_000,
    }
}

/// Client options with a widened recv deadline. Chaos-eval clients spend
/// long stretches waiting on an open-but-silent connection (batch windows,
/// bisection re-runs, injected dispatch stalls), and under heavy test
/// parallelism the default 2 s deadline can fire from CPU starvation alone.
fn wide_opts() -> TcpOptions {
    TcpOptions {
        recv_deadline_ms: 10_000,
        ..TcpOptions::default()
    }
}

fn assert_primary_lines_match(label: &str, base: &CommLedger, got: &CommLedger) {
    assert_eq!(got.upload_bytes, base.upload_bytes, "{label}: upload_bytes");
    assert_eq!(
        got.download_bytes, base.download_bytes,
        "{label}: download_bytes"
    );
    assert_eq!(got.uploads, base.uploads, "{label}: uploads");
    assert_eq!(got.downloads, base.downloads, "{label}: downloads");
}

/// The full kill sweep for one scheme: an uninterrupted baseline, then a
/// hard kill at each eval stage with a supervisor-driven restart over the
/// same checkpoint directory.
fn kill_sweep<S: choco::compiler::CompilerScheme>(scheme: SchemeType, label: &str) {
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(scheme).unwrap();
    let prep_seed = format!("chaos-eval keys {label}");
    let w = RemoteWorkload::<S>::prepare(circuit, &params, prep_seed.as_bytes())
        .unwrap_or_else(|e| panic!("{label}: prepare: {e}"));
    let local = w.local_output_wires().unwrap();
    let opts = wide_opts();

    // Uninterrupted baseline through the same reliable client path.
    let dir = scratch_dir(&format!("{label}-baseline"));
    let server = bind_server(&dir, 1, EvalChaos::default());
    let addr = Arc::new(Mutex::new(server.addr().to_string()));
    let mut client = w
        .connect_reliable(
            addr,
            tenant_seed(TENANT).as_bytes(),
            TENANT,
            0,
            &opts,
            policy(),
        )
        .unwrap_or_else(|e| panic!("{label}: baseline connect: {e}"));
    let base_wires = w
        .drive_to_completion(&mut client, COPIES)
        .unwrap_or_else(|e| panic!("{label}: baseline batch: {e}"));
    for copy in &base_wires {
        assert_eq!(copy, &local, "{label}: baseline remote != local");
    }
    let base_ledger = *client.ledger();
    assert_eq!(base_ledger.recovery_bytes, 0, "{label}: baseline recovery");
    assert_eq!(
        base_ledger.retransmit_bytes, 0,
        "{label}: baseline retransmit"
    );
    drop(client);
    let stats = server.shutdown();
    // No-crash run: exact per-tenant ledger-vs-book equality.
    let book = stats.book.get(TENANT).expect("baseline book entry");
    assert_eq!(book.upload_bytes, base_ledger.upload_bytes, "{label}: book");
    assert_eq!(book.download_bytes, base_ledger.download_bytes);
    let _ = std::fs::remove_dir_all(&dir);

    let stages = [
        EvalStage::Accept,
        EvalStage::Coalesce,
        EvalStage::MidEval,
        EvalStage::PreReply,
    ];
    for (i, &stage) in stages.iter().enumerate() {
        let point = format!("{label} kill@{stage:?}");
        let dir = scratch_dir(&point);
        let server_a = bind_server(
            &dir,
            1,
            EvalChaos {
                kill: Some((stage, 1)),
                ..EvalChaos::default()
            },
        );
        let addr = Arc::new(Mutex::new(server_a.addr().to_string()));

        // Supervisor: wait for the kill, reclaim the dead instance, bind a
        // successor over the same checkpoint dir, repoint the client.
        let sup_addr = Arc::clone(&addr);
        let sup_dir = dir.clone();
        let sup_point = point.clone();
        let supervisor = std::thread::spawn(move || {
            let start = Instant::now();
            while !server_a.was_hard_killed() {
                assert!(
                    start.elapsed() < Duration::from_secs(30),
                    "{sup_point}: kill never fired"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            let stats_a = server_a.shutdown();
            let server_b = bind_server(&sup_dir, 1, EvalChaos::default());
            *lock(&sup_addr) = server_b.addr().to_string();
            (stats_a, server_b)
        });

        let session = 1 + i as u64;
        let mut client = w
            .connect_reliable(
                Arc::clone(&addr),
                tenant_seed(TENANT).as_bytes(),
                TENANT,
                session,
                &opts,
                policy(),
            )
            .unwrap_or_else(|e| panic!("{point}: connect: {e}"));
        let wires = w
            .drive_to_completion(&mut client, COPIES)
            .unwrap_or_else(|e| panic!("{point}: batch did not survive the kill: {e}"));
        assert_eq!(
            wires, base_wires,
            "{point}: outputs differ from the uninterrupted run"
        );
        let ledger = *client.ledger();
        assert_primary_lines_match(&point, &base_ledger, &ledger);
        assert!(
            ledger.recovery_bytes > 0,
            "{point}: recovery billed no bytes"
        );
        drop(client);

        let (stats_a, server_b) = supervisor.join().expect("supervisor panicked");
        assert!(
            stats_a.eval.journal.accepted > 0,
            "{point}: dead server journaled no accepts"
        );
        if stage == EvalStage::Accept {
            // The kill fires during the first request's admission, so the
            // later requests were never journaled. They are resent outside
            // the journal-confirmed recovery line: as retransmits when
            // their first transmission had already left the client, or on
            // the primary upload line when the kill beat the send — the
            // exact-equality check above pins that split either way.
            assert_eq!(
                stats_a.eval.journal.accepted, 1,
                "{point}: kill@Accept must leave the later requests unjournaled"
            );
        }
        let stats_b = server_b.shutdown();
        assert!(
            stats_b.eval.journal.reported_dead >= 1,
            "{point}: successor reported no dead requests"
        );
        assert_eq!(stats_b.bad_frames, 0, "{point}: successor saw bad frames");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn kill_at_every_eval_stage_recovers_bit_identical_bfv() {
    kill_sweep::<Bfv>(SchemeType::Bfv, "eval/bfv");
}

#[test]
fn kill_at_every_eval_stage_recovers_bit_identical_ckks() {
    kill_sweep::<Ckks>(SchemeType::Ckks, "eval/ckks");
}

/// One poison job co-batched with three healthy tenants: all four submit
/// the *same program* under the same parameters (one coalesced group), but
/// the poison tenant's session uploaded no Galois keys, so only its
/// evaluation faults. Bisection must rescue the healthy three, the poison
/// group is quarantined, and a second submission is refused without
/// entering the scheduler.
#[test]
fn poison_job_is_bisected_out_and_quarantined_healthy_tenants_unharmed() {
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    // Same program (same program_ref), no key coverage: compiles fine,
    // faults at execution — a poison program the static path can't see.
    let poison_circuit = WorkloadCircuit {
        galois_steps: vec![],
        ..circuit.clone()
    };
    let params = workload_params(SchemeType::Bfv).unwrap();

    let mut registry = TenantRegistry::new();
    for t in 1..=4 {
        registry.register(t, tenant_seed(t).as_bytes());
    }
    let config = ServeConfig {
        // A wide window so all four tenants' requests coalesce into one
        // scheduler dispatch.
        batch_window_ms: 300,
        ..ServeConfig::default()
    };
    let server = OffloadServer::bind("127.0.0.1:0", config, registry).unwrap();
    let addr = server.addr().to_string();

    let barrier = Arc::new(Barrier::new(4));
    let healthy: Vec<_> = (1u64..=3)
        .map(|tenant| {
            let addr = addr.clone();
            let circuit = circuit.clone();
            let params = params.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let seed = format!("poison-iso tenant {tenant}");
                let w = RemoteWorkload::<Bfv>::prepare(&circuit, &params, seed.as_bytes()).unwrap();
                let local = w.local_output_wires().unwrap();
                let mut client = choco::remote::RemoteEvaluator::<Bfv>::connect(
                    &addr,
                    tenant_seed(tenant).as_bytes(),
                    tenant,
                    0,
                    &w.params,
                    &w.relin,
                    &w.galois,
                    &wide_opts(),
                )
                .unwrap();
                let inputs = w.input_refs();
                barrier.wait();
                let outs = client
                    .evaluate(&w.prepared, &inputs)
                    .unwrap_or_else(|e| panic!("healthy tenant {tenant} failed: {e}"));
                let wires: Vec<Vec<u8>> = outs.iter().map(Bfv::ct_to_wire).collect();
                assert_eq!(
                    wires, local,
                    "healthy tenant {tenant}: result corrupted by co-batched poison job"
                );
                *client.ledger()
            })
        })
        .collect();

    // Poison tenant on this thread (keys cover no rotations).
    let pw =
        RemoteWorkload::<Bfv>::prepare(&poison_circuit, &params, b"poison-iso tenant 4").unwrap();
    let mut poison_client = choco::remote::RemoteEvaluator::<Bfv>::connect(
        &addr,
        tenant_seed(4).as_bytes(),
        4,
        0,
        &pw.params,
        &pw.relin,
        &pw.galois,
        &wide_opts(),
    )
    .unwrap();
    let poison_inputs = pw.input_refs();
    barrier.wait();
    match poison_client.evaluate(&pw.prepared, &poison_inputs) {
        Err(TransportError::Rejected(msg)) => {
            assert!(
                msg.contains("execution failed"),
                "poison refusal should name the execution fault: {msg}"
            );
        }
        Err(e) => panic!("poison job: expected a typed execution refusal, got {e}"),
        Ok(_) => panic!("poison job evaluated successfully without Galois keys"),
    }
    let ledgers: Vec<_> = healthy
        .into_iter()
        .map(|h| h.join().expect("healthy tenant panicked"))
        .collect();

    // Second submission of the quarantined program: typed refusal straight
    // from the quarantine list — the scheduler never sees the job.
    let before = server.stats().eval;
    match poison_client.evaluate(&pw.prepared, &poison_inputs) {
        Err(TransportError::Quarantined(reason)) => {
            assert!(
                reason.contains("execution failed"),
                "quarantine should carry the original fault: {reason}"
            );
        }
        Err(e) => panic!("expected Quarantined, got {e}"),
        Ok(_) => panic!("quarantined program evaluated successfully"),
    }
    let after = server.stats().eval;
    assert_eq!(
        after.sched.jobs, before.sched.jobs,
        "quarantined resubmission entered the scheduler"
    );
    assert_eq!(
        after.counters.requests, before.counters.requests,
        "quarantined resubmission counted as an accepted request"
    );
    assert_eq!(after.isolation.quarantine_refusals, 1);

    let stats = server.shutdown();
    assert_eq!(stats.eval.isolation.quarantined, 1);
    assert!(stats.eval.isolation.faults >= 1);
    assert!(
        stats.eval.isolation.bisections >= 1,
        "poison job was never co-batched: {:?}",
        stats.eval
    );
    assert!(stats.eval.sched.max_batch >= 2, "{:?}", stats.eval.sched);
    // Healthy tenants billed exactly: book equals each client's own ledger.
    for (tenant, ledger) in ledgers.iter().enumerate() {
        let tenant = tenant as u64 + 1;
        let book = stats
            .book
            .get(tenant)
            .unwrap_or_else(|| panic!("tenant {tenant} missing from book"));
        assert_eq!(book.upload_bytes, ledger.upload_bytes, "tenant {tenant}");
        assert_eq!(
            book.download_bytes, ledger.download_bytes,
            "tenant {tenant}"
        );
        assert_eq!(book.downloads, ledger.downloads, "tenant {tenant}");
    }
}

/// A stalled dispatch round (chaos) holds the queue past the job's
/// deadline: the scheduler sheds it with a typed `DeadlineExceeded`, the
/// client retries on the retransmit line, and the second round completes
/// with the correct result.
#[test]
fn stalled_dispatch_sheds_past_deadline_jobs_and_client_retries() {
    let circuits = all_workloads();
    let circuit = circuits.iter().find(|w| w.name == "pagerank").unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    let w = RemoteWorkload::<Bfv>::prepare(circuit, &params, b"deadline-shed").unwrap();
    let local = w.local_output_wires().unwrap();

    let mut registry = TenantRegistry::new();
    registry.register(TENANT, tenant_seed(TENANT).as_bytes());
    let config = ServeConfig {
        batch_window_ms: 10,
        eval_chaos: EvalChaos {
            stall: Some((1, 400)),
            ..EvalChaos::default()
        },
        ..ServeConfig::default()
    };
    let server = OffloadServer::bind("127.0.0.1:0", config, registry).unwrap();
    let addr = server.addr().to_string();

    let mut client = choco::remote::RemoteEvaluator::<Bfv>::connect(
        &addr,
        tenant_seed(TENANT).as_bytes(),
        TENANT,
        0,
        &w.params,
        &w.relin,
        &w.galois,
        &wide_opts(),
    )
    .unwrap();
    client.set_deadline_ms(Some(80));
    let inputs = w.input_refs();
    let outs = client
        .evaluate(&w.prepared, &inputs)
        .unwrap_or_else(|e| panic!("shed request never completed: {e}"));
    let wires: Vec<Vec<u8>> = outs.iter().map(Bfv::ct_to_wire).collect();
    assert_eq!(wires, local, "post-shed retry returned a wrong result");
    let ledger = *client.ledger();
    assert!(
        ledger.retransmit_bytes > 0,
        "shed retry must bill the retransmit line"
    );

    let stats = server.shutdown();
    assert_eq!(
        stats.eval.isolation.shed_deadline, 1,
        "{:?}",
        stats.eval.isolation
    );
    assert_eq!(stats.eval.counters.errors, 0);
}

/// A compiler-IR program whose single rotation the session's (empty)
/// Galois key set cannot cover — compiles cleanly, faults at execution.
fn uncovered_rotation_program(step: i64) -> Program {
    let mut p = Program::new();
    let x = p.input("x");
    let r = p.rotate(x, step);
    let y = p.add(x, r);
    p.output(y);
    p
}

/// A rotation-free probe program the same (keyless) session *can* run.
fn rotation_free_circuit() -> WorkloadCircuit {
    let mut p = Program::new();
    let x = p.input("x");
    let c = p.constant(&[0.25, 0.5, 0.75, 1.0]);
    let m = p.mul_plain(x, c);
    let y = p.add_plain(m, c);
    p.output(y);
    WorkloadCircuit {
        name: "breaker-probe",
        program: p,
        galois_steps: vec![],
    }
}

/// An error storm trips the tenant's circuit breaker: subsequent requests
/// get a typed `Unavailable { retry_after_ms }` without touching the
/// pipeline, and after the cool-down a half-open probe closes the breaker
/// again — proven end-to-end through the client's retry loop.
#[test]
fn error_storm_trips_breaker_and_half_open_probe_recovers() {
    let params = workload_params(SchemeType::Bfv).unwrap();
    let probe = rotation_free_circuit();
    let w = RemoteWorkload::<Bfv>::prepare(&probe, &params, b"breaker storm").unwrap();
    let local = w.local_output_wires().unwrap();

    let mut registry = TenantRegistry::new();
    registry.register(TENANT, tenant_seed(TENANT).as_bytes());
    let config = ServeConfig {
        batch_window_ms: 5,
        isolation: IsolationConfig {
            breaker_threshold: 2,
            breaker_window: 8,
            breaker_cooldown_ms: 150,
            ..IsolationConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = OffloadServer::bind("127.0.0.1:0", config, registry).unwrap();
    let addr = server.addr().to_string();

    let mut client = choco::remote::RemoteEvaluator::<Bfv>::connect(
        &addr,
        tenant_seed(TENANT).as_bytes(),
        TENANT,
        0,
        &w.params,
        &w.relin,
        &w.galois,
        &wide_opts(),
    )
    .unwrap();
    let inputs = w.input_refs();

    // Two distinct poison programs → two error outcomes → breaker opens.
    for step in [1i64, 2] {
        let poison =
            PreparedProgram::new(&uncovered_rotation_program(step), &workload_options()).unwrap();
        match client.evaluate(&poison, &inputs) {
            Err(TransportError::Rejected(msg)) => {
                assert!(msg.contains("execution failed"), "{msg}");
            }
            Err(e) => panic!("storm program {step}: expected typed refusal, got {e}"),
            Ok(_) => panic!("storm program {step} evaluated without its Galois key"),
        }
    }

    // The healthy probe rides through the open breaker: typed Unavailable
    // absorbed by the client's retry loop, half-open probe succeeds.
    let outs = client
        .evaluate(&w.prepared, &inputs)
        .unwrap_or_else(|e| panic!("probe never recovered through the breaker: {e}"));
    let wires: Vec<Vec<u8>> = outs.iter().map(Bfv::ct_to_wire).collect();
    assert_eq!(wires, local, "post-breaker probe returned a wrong result");
    let ledger = *client.ledger();
    assert!(
        ledger.retransmit_bytes > 0,
        "breaker retries must bill the retransmit line"
    );

    let stats = server.shutdown();
    assert!(
        stats.eval.isolation.breaker_refusals >= 1,
        "{:?}",
        stats.eval.isolation
    );
    assert_eq!(stats.eval.isolation.quarantined, 2);
}
