//! Per-connection remote-evaluation state and request handling.
//!
//! An admitted connection becomes an evaluator session with its first
//! [`SessionSetup`] payload: the server rebuilds the tenant's parameter
//! set from the recipe, deserializes the uploaded relinearization and
//! Galois keys, and pins an [`EvalSession`] to the connection. Subsequent
//! [`EvalRequest`] payloads resolve their program through the global
//! [`ServeCache`] and are submitted to the [`BatchScheduler`]; the
//! executed response comes back to the connection worker over its reply
//! channel, which writes it to the socket and bills the download.
//!
//! Admission is fault-isolated: a quarantined `(params_hash,
//! program_ref)` is refused with a typed `Quarantined` response before
//! the scheduler ever sees it, and a tenant whose circuit breaker is open
//! gets a typed `Unavailable { retry_after_ms }`. Admitted requests are
//! journaled ([`crate::journal::JournalSet`]) *before* scheduling, so a
//! hard-killed server can later tell the resuming client exactly which
//! requests died. A `CRJ1` journal query answers with that dead set.
//!
//! Everything here is typed-error territory: malformed setups, unknown
//! programs, cross-scheme key blobs, and failed kernels all become
//! [`EvalResponse`] messages (or `NeedProgram` round trips) — a hostile
//! or buggy client can never panic a worker.

use crate::cache::{EvalScheme, ProgramLookup, ServeCache};
use crate::chaos::{EvalChaosState, EvalStage};
use crate::isolate::{Admission, Isolation};
use crate::journal::{input_digest, JournalSet};
use crate::sched::{BatchScheduler, Job, JobFault, JobOutcome};
use choco::remote::{
    EvalRequest, EvalResponse, SessionSetup, JOURNAL_MAGIC, REQUEST_MAGIC, SETUP_MAGIC,
};
use choco_he::params::SchemeType;
use choco_he::{Bfv, Ckks};
use std::collections::HashMap;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::cache::CachedProgram;

/// Counts of eval-protocol events (beyond what the caches track).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalCounters {
    /// Session setups accepted.
    pub setups: u64,
    /// Evaluate requests admitted to the scheduler.
    pub requests: u64,
    /// `NeedProgram` round trips answered.
    pub need_program: u64,
    /// Typed error responses produced (setup or evaluate).
    pub errors: u64,
    /// `CRJ1` journal queries answered.
    pub journal_queries: u64,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Scheme-typed evaluation state for one connection: context + uploaded
/// evaluation keys. Only *evaluation* keys live here — the server never
/// sees a secret key.
pub struct SchemeSession<S: EvalScheme> {
    /// The rebuilt context.
    pub ctx: S::Context,
    /// The tenant's relinearization key.
    pub relin: S::RelinKey,
    /// The tenant's Galois keys (the rotation steps its programs use).
    pub galois: S::GaloisKeys,
    /// BLAKE3 of the parameter recipe — half of every cache key.
    pub params_hash: [u8; 32],
}

/// A connection's evaluation state, once a setup has been accepted.
pub enum EvalSession {
    /// BFV session.
    Bfv(Arc<SchemeSession<Bfv>>),
    /// CKKS session.
    Ckks(Arc<SchemeSession<Ckks>>),
}

/// Everything one payload dispatch needs, bundled so the worker threads a
/// single context through instead of seven loose references.
pub struct EvalContext<'a> {
    /// The connection's evaluation session (set by the setup payload).
    pub session: &'a mut Option<EvalSession>,
    /// Global program/operand cache.
    pub cache: &'a Arc<ServeCache>,
    /// The batching scheduler jobs are submitted to.
    pub sched: &'a BatchScheduler,
    /// Shared protocol counters.
    pub counters: &'a Mutex<EvalCounters>,
    /// The connection's reply channel (scheduler → worker).
    pub reply: &'a Sender<Vec<u8>>,
    /// The authenticated tenant behind this connection.
    pub tenant: u64,
    /// The connection's session id (journal key, with the tenant).
    pub conn_session: u64,
    /// Quarantine + breaker state, checked at admission.
    pub isolation: &'a Arc<Isolation>,
    /// The in-flight eval journal.
    pub journal: &'a Arc<JournalSet>,
    /// Deterministic fault plan, if any.
    pub chaos: Option<&'a Arc<EvalChaosState>>,
    /// Flips the server's hard-kill switch (invoked by chaos triggers).
    pub hard_kill: &'a (dyn Fn() + Sync),
}

/// What the connection worker should do with one handled payload.
pub enum EvalOutcome {
    /// Write this response payload now (setup acks, `NeedProgram`, typed
    /// refusals and errors, journal answers).
    Immediate(Vec<u8>),
    /// A job was queued; the response will arrive on the reply channel.
    Submitted,
    /// The chaos plan hard-killed the server while handling this payload:
    /// write nothing, the connection is dying.
    Dropped,
}

/// Handles one `EvalRequest`-frame payload (already tag-verified by the
/// frame layer). Never panics; every failure is a typed response.
pub fn handle_eval_payload(payload: &[u8], ctx: &mut EvalContext) -> EvalOutcome {
    if payload.get(..4) == Some(SETUP_MAGIC.as_slice()) {
        return handle_setup(payload, ctx.session, ctx.counters);
    }
    if payload.get(..4) == Some(REQUEST_MAGIC.as_slice()) {
        return handle_request(payload, ctx);
    }
    if payload.get(..4) == Some(JOURNAL_MAGIC.as_slice()) {
        let dead = ctx.journal.dead_requests(ctx.tenant, ctx.conn_session);
        lock(ctx.counters).journal_queries += 1;
        return EvalOutcome::Immediate(
            EvalResponse::DeadRequests {
                request_ids: dead.into_iter().map(|d| d.request_id).collect(),
            }
            .to_wire(),
        );
    }
    lock(ctx.counters).errors += 1;
    EvalOutcome::Immediate(
        EvalResponse::Error {
            request_id: 0,
            message: "unrecognized eval payload magic".into(),
        }
        .to_wire(),
    )
}

fn error_response(counters: &Mutex<EvalCounters>, request_id: u64, message: String) -> EvalOutcome {
    lock(counters).errors += 1;
    EvalOutcome::Immediate(
        EvalResponse::Error {
            request_id,
            message,
        }
        .to_wire(),
    )
}

fn handle_setup(
    payload: &[u8],
    session: &mut Option<EvalSession>,
    counters: &Mutex<EvalCounters>,
) -> EvalOutcome {
    let setup = match SessionSetup::from_wire(payload) {
        Ok(s) => s,
        Err(e) => return error_response(counters, 0, format!("bad session setup: {e}")),
    };
    let built = match setup.params.scheme() {
        SchemeType::Bfv => build_session::<Bfv>(&setup).map(EvalSession::Bfv),
        SchemeType::Ckks => build_session::<Ckks>(&setup).map(EvalSession::Ckks),
    };
    match built {
        Ok(s) => {
            *session = Some(s);
            lock(counters).setups += 1;
            EvalOutcome::Immediate(EvalResponse::SetupOk.to_wire())
        }
        Err(e) => error_response(counters, 0, format!("session setup refused: {e}")),
    }
}

fn build_session<S: EvalScheme>(
    setup: &SessionSetup,
) -> Result<Arc<SchemeSession<S>>, choco_he::HeError> {
    let ctx = S::context(&setup.params)?;
    let relin = S::relin_from_wire(&setup.relin_wire)?;
    let galois = S::galois_from_wire(&setup.galois_wire)?;
    Ok(Arc::new(SchemeSession {
        ctx,
        relin,
        galois,
        params_hash: choco::remote::params_hash(&setup.params),
    }))
}

fn handle_request(payload: &[u8], ctx: &mut EvalContext) -> EvalOutcome {
    let req = match EvalRequest::from_wire(payload) {
        Ok(r) => r,
        Err(e) => return error_response(ctx.counters, 0, format!("bad eval request: {e}")),
    };
    let request_id = req.request_id;
    match &*ctx.session {
        None => error_response(
            ctx.counters,
            request_id,
            "evaluate before session setup (upload keys first)".into(),
        ),
        Some(EvalSession::Bfv(s)) => submit_eval::<Bfv>(Arc::clone(s), req, ctx),
        Some(EvalSession::Ckks(s)) => submit_eval::<Ckks>(Arc::clone(s), req, ctx),
    }
}

fn submit_eval<S: EvalScheme>(
    sess: Arc<SchemeSession<S>>,
    req: EvalRequest,
    ctx: &mut EvalContext,
) -> EvalOutcome {
    let request_id = req.request_id;
    let group = (sess.params_hash, req.program_ref);
    if let Some(reason) = ctx.isolation.check_quarantine(&group) {
        return EvalOutcome::Immediate(EvalResponse::Quarantined { request_id, reason }.to_wire());
    }
    let lookup =
        ctx.cache
            .lookup_or_compile::<S>(sess.params_hash, req.program_ref, req.program.as_ref());
    let prog = match lookup {
        Ok(ProgramLookup::Ready(p)) => p,
        Ok(ProgramLookup::NeedProgram) => {
            lock(ctx.counters).need_program += 1;
            return EvalOutcome::Immediate(EvalResponse::NeedProgram { request_id }.to_wire());
        }
        Err(msg) => {
            return error_response(ctx.counters, request_id, format!("program rejected: {msg}"))
        }
    };
    // Breaker last — the final gate before journaling and scheduling, so
    // every admitted request (half-open probes included) is guaranteed to
    // become a job whose outcome feeds back into the breaker. Checking it
    // earlier lets a `NeedProgram` exchange consume the probe slot and
    // wedge the tenant half-open with no outcome ever recorded.
    if let Admission::Refuse { retry_after_ms } = ctx.isolation.admit(ctx.tenant) {
        return EvalOutcome::Immediate(
            EvalResponse::Unavailable {
                request_id,
                retry_after_ms,
            }
            .to_wire(),
        );
    }
    // The accept is journaled (and flushed) before the scheduler sees the
    // job: a hard kill anywhere downstream leaves the accept on disk with
    // no matching deliver, which is exactly what the restarted server
    // reports as dead.
    ctx.journal.accept(
        ctx.tenant,
        ctx.conn_session,
        request_id,
        &req.program_ref,
        &input_digest(&req.inputs),
    );
    if let Some(chaos) = ctx.chaos {
        if chaos.kill_at(EvalStage::Accept) {
            (ctx.hard_kill)();
            return EvalOutcome::Dropped;
        }
    }
    let deadline = req
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let inputs = req.inputs;
    let chaos = ctx.chaos.map(Arc::clone);
    let reply = ctx.reply.clone();
    ctx.sched.submit(Job {
        group,
        tenant: ctx.tenant,
        deadline,
        shed_response: EvalResponse::DeadlineExceeded { request_id }.to_wire(),
        run: Box::new(move || {
            if chaos.as_deref().is_some_and(EvalChaosState::fail_this_job) {
                let reason = "chaos: injected evaluation fault".to_string();
                return JobOutcome {
                    response: EvalResponse::Error {
                        request_id,
                        message: reason.clone(),
                    }
                    .to_wire(),
                    fault: Some(JobFault {
                        reason,
                        poison: true,
                    }),
                };
            }
            run_request::<S>(&sess, &prog, request_id, &inputs)
        }),
        deliver: Box::new(move |payload| {
            // A dead receiver means the connection is gone; nothing to do.
            let _ = reply.send(payload);
        }),
    });
    lock(ctx.counters).requests += 1;
    EvalOutcome::Submitted
}

/// Executes one request against the shared cached program. Runs on a
/// scheduler thread; the shared operand cache makes warm evaluations skip
/// every plaintext encode while staying bit-identical (the cache stores
/// exactly what the uncached path would compute). Execution failures are
/// *poison* faults (they indict the program; the scheduler bisects and
/// quarantines); rejected input blobs are job-local faults.
fn run_request<S: EvalScheme>(
    sess: &SchemeSession<S>,
    prog: &CachedProgram<S>,
    request_id: u64,
    inputs: &[(String, Vec<u8>)],
) -> JobOutcome {
    let mut named: HashMap<String, S::Ciphertext> = HashMap::new();
    for (name, wire) in inputs {
        match S::ct_from_wire(wire) {
            Ok(ct) => {
                named.insert(name.clone(), ct);
            }
            Err(e) => {
                let reason = format!("input {name:?} rejected: {e}");
                return JobOutcome {
                    response: EvalResponse::Error {
                        request_id,
                        message: reason.clone(),
                    }
                    .to_wire(),
                    fault: Some(JobFault {
                        reason,
                        poison: false,
                    }),
                };
            }
        }
    }
    match prog.compiled.execute_encrypted_cached::<S>(
        &sess.ctx,
        &named,
        &sess.relin,
        &sess.galois,
        &prog.operands,
    ) {
        Ok(outs) => JobOutcome {
            response: EvalResponse::Outputs {
                request_id,
                outputs: outs.iter().map(|ct| S::ct_to_wire(ct)).collect(),
            }
            .to_wire(),
            fault: None,
        },
        Err(e) => {
            let reason = format!("execution failed: {e}");
            JobOutcome {
                response: EvalResponse::Error {
                    request_id,
                    message: reason.clone(),
                }
                .to_wire(),
                fault: Some(JobFault {
                    reason,
                    poison: true,
                }),
            }
        }
    }
}
