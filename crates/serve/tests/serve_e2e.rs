//! End-to-end serving tests over real loopback TCP, driven through the
//! remote evaluator.
//!
//! * concurrency: eight tenants evaluate concurrently with zero failures,
//!   every result bit-identical to local execution, and each tenant's
//!   server book equal to its client's ledger;
//! * admission: the session over the limit gets a *typed*
//!   `Overloaded { active, limit }`, and capacity freed by a disconnect is
//!   reusable;
//! * a uniformly delayed link merely slows the run down: no recovery, no
//!   retransmission.

use choco::remote::RemoteEvaluator;
use choco::transport::tcp::TcpOptions;
use choco::transport::TransportError;
use choco_apps::circuits::all_workloads;
use choco_apps::remote::{workload_params, RemoteWorkload};
use choco_he::params::SchemeType;
use choco_he::{Bfv, HeScheme};
use choco_serve::{ChaosPlan, ChaosProxy, OffloadServer, ServeConfig, TenantRegistry};
use std::time::{Duration, Instant};

fn tenant_seed(tenant: u64) -> String {
    format!("e2e tenant {tenant}")
}

fn registry(tenants: u64) -> TenantRegistry {
    let mut reg = TenantRegistry::new();
    for t in 1..=tenants {
        reg.register(t, tenant_seed(t).as_bytes());
    }
    reg
}

/// The PageRank circuit under BFV, with keys and inputs seeded per tenant.
fn workload(tenant: u64) -> RemoteWorkload<Bfv> {
    let circuit = all_workloads()
        .into_iter()
        .find(|w| w.name == "pagerank")
        .unwrap();
    let params = workload_params(SchemeType::Bfv).unwrap();
    RemoteWorkload::prepare(&circuit, &params, tenant_seed(tenant).as_bytes()).unwrap()
}

fn connect(
    addr: &str,
    tenant: u64,
    session: u64,
    w: &RemoteWorkload<Bfv>,
) -> Result<RemoteEvaluator<Bfv>, TransportError> {
    RemoteEvaluator::connect(
        addr,
        tenant_seed(tenant).as_bytes(),
        tenant,
        session,
        &w.params,
        &w.relin,
        &w.galois,
        &TcpOptions::default(),
    )
}

/// Evaluates `w` once through `client` and checks it against local
/// execution.
fn evaluate_bit_identical(client: &mut RemoteEvaluator<Bfv>, w: &RemoteWorkload<Bfv>) {
    let outs = client.evaluate(&w.prepared, &w.input_refs()).unwrap();
    let wires: Vec<Vec<u8>> = outs.iter().map(Bfv::ct_to_wire).collect();
    assert_eq!(wires, w.local_output_wires().unwrap(), "remote != local");
}

#[test]
fn eight_concurrent_sessions_complete_with_zero_failures() {
    let config = ServeConfig {
        max_sessions: 16,
        ..ServeConfig::default()
    };
    let server = OffloadServer::bind("127.0.0.1:0", config, registry(8)).unwrap();
    let addr = server.addr().to_string();

    let handles: Vec<_> = (1..=8u64)
        .map(|tenant| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let w = workload(tenant);
                let local = w.local_output_wires()?;
                let mut client = connect(&addr, tenant, 0, &w)?;
                let inputs = w.input_refs();
                let batch = [inputs.as_slice(), inputs.as_slice()];
                for outs in client.evaluate_batch(&w.prepared, &batch)? {
                    let wires: Vec<Vec<u8>> = outs.iter().map(Bfv::ct_to_wire).collect();
                    assert_eq!(wires, local, "tenant {tenant}: remote != local");
                }
                Ok::<_, TransportError>(*client.ledger())
            })
        })
        .collect();
    let mut ledgers = Vec::new();
    for (i, handle) in handles.into_iter().enumerate() {
        let outcome = handle.join().expect("client thread panicked");
        ledgers.push(outcome.unwrap_or_else(|e| panic!("client {} failed: {e}", i + 1)));
    }

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 8);
    assert_eq!(stats.rejected_overload, 0);
    assert_eq!(stats.bad_frames, 0);
    assert_eq!(stats.eval.counters.errors, 0);
    assert_eq!(stats.book.tenants(), 8);
    // Per-tenant reconciliation: the server billed exactly the requests
    // and responses each client counted, and nothing was resent.
    for (tenant, ledger) in (1u64..).zip(&ledgers) {
        assert_eq!(ledger.retransmit_bytes, 0, "tenant {tenant}");
        assert_eq!(ledger.recovery_bytes, 0, "tenant {tenant}");
        let book = stats.book.get(tenant).copied().unwrap();
        assert_eq!(book.uploads, ledger.uploads, "tenant {tenant}");
        assert_eq!(book.upload_bytes, ledger.upload_bytes, "tenant {tenant}");
        assert_eq!(book.downloads, ledger.downloads, "tenant {tenant}");
        assert_eq!(
            book.download_bytes, ledger.download_bytes,
            "tenant {tenant}"
        );
    }
}

#[test]
fn session_over_the_limit_gets_typed_overloaded_and_capacity_recovers() {
    let config = ServeConfig {
        max_sessions: 8,
        worker_poll_ms: 10,
        ..ServeConfig::default()
    };
    let server = OffloadServer::bind("127.0.0.1:0", config, registry(1)).unwrap();
    let addr = server.addr().to_string();
    let w = workload(1);

    // Fill all 8 admission slots with live evaluator sessions.
    let mut held: Vec<_> = (0..8)
        .map(|session| connect(&addr, 1, session, &w).unwrap())
        .collect();
    let start = Instant::now();
    while server.active_sessions() < 8 {
        assert!(start.elapsed() < Duration::from_secs(5), "admission lagged");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The 9th concurrent session is refused with the typed error.
    match connect(&addr, 1, 8, &w) {
        Err(TransportError::Overloaded { active, limit }) => {
            assert_eq!(active, 8);
            assert_eq!(limit, 8);
        }
        Err(other) => panic!("expected Overloaded, got {other}"),
        Ok(_) => panic!("expected Overloaded, got an admitted session"),
    }

    // Freeing one slot makes the next session admissible again, and it
    // evaluates correctly next to the sessions still held.
    drop(held.pop());
    let start = Instant::now();
    let mut client = loop {
        match connect(&addr, 1, 9, &w) {
            Ok(client) => break client,
            Err(TransportError::Overloaded { .. }) if start.elapsed() < Duration::from_secs(5) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("connect after capacity freed: {e}"),
        }
    };
    evaluate_bit_identical(&mut client, &w);
    evaluate_bit_identical(&mut held[0], &w);
    drop((client, held));
    let stats = server.shutdown();
    assert!(stats.rejected_overload >= 1);
    assert_eq!(stats.accepted, 9);
}

#[test]
fn uniformly_delayed_link_completes_without_recovery() {
    let server = OffloadServer::bind("127.0.0.1:0", ServeConfig::default(), registry(1)).unwrap();
    let plan = ChaosPlan {
        delay_ms: 2,
        ..ChaosPlan::default()
    };
    let proxy = ChaosProxy::spawn(server.addr(), plan).unwrap();
    let w = workload(1);
    let mut client = connect(&proxy.addr().to_string(), 1, 0, &w).unwrap();
    evaluate_bit_identical(&mut client, &w);
    evaluate_bit_identical(&mut client, &w);
    let ledger = *client.ledger();
    assert_eq!(ledger.recovery_bytes, 0);
    assert_eq!(ledger.retransmit_bytes, 0);
    drop(client);
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.bad_frames, 0);
    let book = stats.book.get(1).copied().unwrap();
    assert_eq!(book.upload_bytes, ledger.upload_bytes);
    assert_eq!(book.download_bytes, ledger.download_bytes);
}
