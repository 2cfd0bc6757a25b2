//! The offload server: a batching, caching remote HE evaluator.
//!
//! [`OffloadServer`] listens on a real TCP socket. Each connection starts
//! with the authenticated hello handshake from
//! [`choco::transport::tcp`]: the server looks the tenant up in its
//! [`TenantRegistry`], checks the keyed auth tag, applies admission
//! control, and answers with a typed ack. Admitted connections get a
//! dedicated worker thread that reads length-prefixed frames, verifies
//! their keyed-BLAKE3 tags (batches are verified on the `choco-math::par`
//! pool), and handles `EvalRequest` frames — the remote-evaluation
//! protocol (`choco::remote`): a session-key upload promotes the
//! connection to an evaluator ([`crate::eval::EvalSession`]), and evaluate
//! calls are resolved through the global program/operand cache
//! ([`crate::cache::ServeCache`]) and coalesced across connections by the
//! [`crate::sched::BatchScheduler`] before real kernel work runs.
//! Responses come back to the worker over a reply channel and are written
//! as `EvalResponse` frames under a server-side sequence counter. A frame
//! that fails its tag, or that verifies but carries any other kind, is
//! counted in [`ServeStats::bad_frames`] and never answered.
//!
//! **Billing.** Every verified request payload is billed to its tenant as
//! `upload_bytes` and every delivered response payload as
//! `download_bytes`. Request sequence numbers are monotonic per client
//! connection, so there are no duplicates to tell apart: a client's
//! resends after a reconnect are new frames, which the client bills to its
//! own `retransmit_bytes`/`recovery_bytes` lines. The attribution rule is
//! per-request, not per-batch: batching shares kernels and caches — never
//! bytes — so on a fault-free run the per-tenant book equals the client's
//! ledger exactly, batched or sequential.
//!
//! **Drain.** [`OffloadServer::drain`] stops admitting, flushes every
//! scheduled batch through the [`crate::sched::BatchScheduler`], and lets
//! every worker deliver its pending eval responses and finish its current
//! read, returning once the server is idle. The eval journal
//! ([`crate::journal::JournalSet`]) is the only durable server state: a
//! server bound later over the same checkpoint directory reports requests
//! a predecessor accepted but never answered.

use crate::cache::{EvalCacheStats, ServeCache};
use crate::chaos::{EvalChaos, EvalChaosState, EvalStage};
use crate::eval::{handle_eval_payload, EvalContext, EvalCounters, EvalOutcome, EvalSession};
use crate::isolate::{Isolation, IsolationConfig, IsolationStats};
use crate::journal::{JournalSet, JournalStats};
use crate::registry::TenantRegistry;
use crate::sched::{BatchScheduler, SchedHooks, SchedStats};
use choco::remote::EvalResponse;
use choco::transport::frame::{decode_frame, encode_frame, FrameKind};
use choco::transport::tcp::{decode_hello, encode_ack, BlobIo, HelloStatus, HELLO_BYTES};
use choco::transport::{TagKey, MAX_FRAME_BYTES};
use choco::LedgerBook;
use choco_math::par;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How many already-buffered frames a worker verifies as one parallel
/// batch.
const VERIFY_BATCH: usize = 32;

/// Server tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission limit: concurrent sessions beyond this are refused with a
    /// typed `Overloaded` ack, never silently queued.
    pub max_sessions: u32,
    /// Handshake read/write timeout, in milliseconds.
    pub io_timeout_ms: u64,
    /// Worker read poll, in milliseconds: the granularity at which idle
    /// workers notice a drain request.
    pub worker_poll_ms: u64,
    /// Per-frame size bound (prefixes beyond it are rejected before any
    /// allocation).
    pub max_frame_bytes: u64,
    /// Where the eval journal lives (opened at bind, so a restarted server
    /// reports its predecessor's unanswered requests). `None` disables
    /// persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Compiled programs cached per scheme before LRU eviction kicks in
    /// (0 = unbounded).
    pub program_cache_capacity: usize,
    /// Batch coalescing window: how long the scheduler lets compatible
    /// evaluate requests accumulate before executing them as one batch.
    pub batch_window_ms: u64,
    /// Quarantine/circuit-breaker tuning.
    pub isolation: IsolationConfig,
    /// Deterministic eval fault plan (tests only; default injects
    /// nothing).
    pub eval_chaos: EvalChaos,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_sessions: 64,
            io_timeout_ms: 5_000,
            worker_poll_ms: 50,
            max_frame_bytes: MAX_FRAME_BYTES,
            checkpoint_dir: None,
            program_cache_capacity: 32,
            batch_window_ms: 4,
            isolation: IsolationConfig::default(),
            eval_chaos: EvalChaos::default(),
        }
    }
}

/// Hello/admission counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    accepted: u64,
    resumed: u64,
    rejected_overload: u64,
    rejected_unknown_tenant: u64,
    rejected_bad_auth: u64,
    rejected_draining: u64,
    rejected_malformed: u64,
    bad_frames: u64,
}

/// A point-in-time (or final) view of the server's accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections admitted (hello verified, under the session limit).
    pub accepted: u64,
    /// Subset of `accepted` that carried the resume flag.
    pub resumed: u64,
    /// Hellos refused with `Overloaded`.
    pub rejected_overload: u64,
    /// Hellos refused with `UnknownTenant`.
    pub rejected_unknown_tenant: u64,
    /// Hellos refused with `BadAuth`.
    pub rejected_bad_auth: u64,
    /// Hellos refused because the server was draining.
    pub rejected_draining: u64,
    /// Connections dropped before a well-formed hello arrived.
    pub rejected_malformed: u64,
    /// Frames on admitted connections that failed tag verification or
    /// were not eval requests — never answered, never billed.
    pub bad_frames: u64,
    /// Per-tenant traffic ledgers (see the module docs for semantics).
    pub book: LedgerBook,
    /// Remote-evaluation accounting.
    pub eval: EvalStats,
}

impl ServeStats {
    /// Renders the stats as one machine-readable JSON line — what the
    /// `choco-serve` `stats` stdin command prints. Hand-rolled (the
    /// workspace takes no serialization dependency); every value is an
    /// unsigned integer, so no escaping is ever needed.
    pub fn to_json_line(&self) -> String {
        let total = self.book.combined();
        let c = &self.eval.counters;
        let cache = &self.eval.cache;
        let s = &self.eval.sched;
        let i = &self.eval.isolation;
        let j = &self.eval.journal;
        format!(
            concat!(
                "{{\"accepted\":{},\"resumed\":{},\"rejected\":{},\"bad_frames\":{},",
                "\"tenants\":{},\"upload_bytes\":{},\"download_bytes\":{},",
                "\"retransmit_bytes\":{},\"recovery_bytes\":{},",
                "\"eval\":{{\"setups\":{},\"requests\":{},\"need_program\":{},",
                "\"errors\":{},\"journal_queries\":{}}},",
                "\"cache\":{{\"program_hits\":{},\"program_misses\":{},",
                "\"compiles\":{},\"operand_hits\":{},\"operand_misses\":{}}},",
                "\"sched\":{{\"jobs\":{},\"batches\":{},\"coalesced\":{},",
                "\"max_batch\":{}}},",
                "\"isolation\":{{\"quarantined\":{},\"quarantine_refusals\":{},",
                "\"open_breakers\":{},\"breaker_refusals\":{},\"bisections\":{},",
                "\"shed_deadline\":{},\"faults\":{}}},",
                "\"journal\":{{\"accepted\":{},\"delivered\":{},",
                "\"reported_dead\":{}}}}}"
            ),
            self.accepted,
            self.resumed,
            self.rejected_overload
                + self.rejected_unknown_tenant
                + self.rejected_bad_auth
                + self.rejected_draining
                + self.rejected_malformed,
            self.bad_frames,
            self.book.tenants(),
            total.upload_bytes,
            total.download_bytes,
            total.retransmit_bytes,
            total.recovery_bytes,
            c.setups,
            c.requests,
            c.need_program,
            c.errors,
            c.journal_queries,
            cache.programs.hits,
            cache.programs.misses,
            cache.compiles,
            cache.operands.hits,
            cache.operands.misses,
            s.jobs,
            s.batches,
            s.coalesced,
            s.max_batch,
            i.quarantined,
            i.quarantine_refusals,
            i.open_breakers,
            i.breaker_refusals,
            i.bisections,
            i.shed_deadline,
            i.faults,
            j.accepted,
            j.delivered,
            j.reported_dead,
        )
    }
}

/// Remote-evaluation accounting: protocol events, cache effectiveness,
/// and batching behavior. The steady-state proof is
/// `cache.compiles` and `cache.operands.misses` staying flat while
/// `counters.requests` grows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Setup/request/error event counts.
    pub counters: EvalCounters,
    /// Program + operand cache counters.
    pub cache: EvalCacheStats,
    /// Batch scheduler counters.
    pub sched: SchedStats,
    /// Quarantine, breaker, bisection, and shed counters.
    pub isolation: IsolationStats,
    /// In-flight journal counters.
    pub journal: JournalStats,
}

struct Shared {
    config: ServeConfig,
    registry: TenantRegistry,
    stop: AtomicBool,
    draining: AtomicBool,
    active: Mutex<u32>,
    counters: Mutex<Counters>,
    book: Mutex<LedgerBook>,
    eval_cache: Arc<ServeCache>,
    eval_counters: Mutex<EvalCounters>,
    sched: BatchScheduler,
    isolation: Arc<Isolation>,
    journals: Arc<JournalSet>,
    chaos: Option<Arc<EvalChaosState>>,
    /// Set when the chaos plan "kills" the server: workers stop writing,
    /// the accept loop exits, nothing is persisted — the in-process
    /// equivalent of the process dying mid-pipeline.
    hard_killed: Arc<AtomicBool>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A running server instance. Dropping it stops the accept loop; call
/// [`OffloadServer::shutdown`] for a graceful drain with final stats.
pub struct OffloadServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl OffloadServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), opens
    /// the eval journal in the checkpoint directory, and starts accepting
    /// connections.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration errors.
    pub fn bind(addr: &str, config: ServeConfig, registry: TenantRegistry) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let isolation = Arc::new(Isolation::new(config.isolation));
        let journals = Arc::new(JournalSet::open(config.checkpoint_dir.as_deref()));
        let chaos = (config.eval_chaos != EvalChaos::default())
            .then(|| Arc::new(EvalChaosState::new(config.eval_chaos)));
        let hard_killed = Arc::new(AtomicBool::new(false));
        let kill_switch = Arc::clone(&hard_killed);
        let hooks = SchedHooks {
            isolation: Arc::clone(&isolation),
            chaos: chaos.clone(),
            on_kill: Some(Box::new(move || {
                kill_switch.store(true, Ordering::SeqCst);
            })),
        };
        let shared = Arc::new(Shared {
            eval_cache: Arc::new(ServeCache::new(config.program_cache_capacity)),
            eval_counters: Mutex::new(EvalCounters::default()),
            sched: BatchScheduler::with_hooks(config.batch_window_ms, hooks),
            isolation,
            journals,
            chaos,
            hard_killed,
            config,
            registry,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            active: Mutex::new(0),
            counters: Mutex::new(Counters::default()),
            book: Mutex::new(LedgerBook::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(OffloadServer {
            addr: local,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently admitted sessions.
    pub fn active_sessions(&self) -> u32 {
        *lock(&self.shared.active)
    }

    /// Snapshot of the accounting state.
    pub fn stats(&self) -> ServeStats {
        let c = *lock(&self.shared.counters);
        ServeStats {
            accepted: c.accepted,
            resumed: c.resumed,
            rejected_overload: c.rejected_overload,
            rejected_unknown_tenant: c.rejected_unknown_tenant,
            rejected_bad_auth: c.rejected_bad_auth,
            rejected_draining: c.rejected_draining,
            rejected_malformed: c.rejected_malformed,
            bad_frames: c.bad_frames,
            book: lock(&self.shared.book).clone(),
            eval: EvalStats {
                counters: *lock(&self.shared.eval_counters),
                cache: self.shared.eval_cache.stats(),
                sched: self.shared.sched.stats(),
                isolation: self.shared.isolation.stats(),
                journal: self.shared.journals.stats(),
            },
        }
    }

    /// Whether a chaos plan (or [`OffloadServer::hard_kill`]) has "killed"
    /// this server instance.
    pub fn was_hard_killed(&self) -> bool {
        self.shared.hard_killed.load(Ordering::SeqCst)
    }

    /// Simulates the process dying right now: workers stop writing and
    /// close their sockets (an orderly FIN — responses already written
    /// flush to the client) and the accept loop exits. The journal keeps
    /// whatever accepts were flushed, so a server bound later over the
    /// same checkpoint directory reports the unanswered requests as dead.
    pub fn hard_kill(&self) {
        self.shared.hard_killed.store(true, Ordering::SeqCst);
    }

    /// Stops admitting, flushes every scheduled batch, and waits for every
    /// worker to deliver pending responses and exit (bounded by the worker
    /// poll plus the handshake timeout).
    pub fn drain(&self) {
        if self.shared.hard_killed.load(Ordering::SeqCst) {
            // A dead process drains nothing; its journal is the only
            // record it leaves behind.
            return;
        }
        self.shared.draining.store(true, Ordering::SeqCst);
        let budget = Duration::from_millis(
            self.shared.config.io_timeout_ms + 4 * self.shared.config.worker_poll_ms + 1_000,
        );
        // Scheduled batches first: workers exiting on the drain flag block
        // on their in-flight responses, which only arrive once the
        // scheduler has executed them.
        let _ = self.shared.sched.flush(budget);
        let start = Instant::now();
        while *lock(&self.shared.active) > 0 && start.elapsed() < budget {
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// Graceful shutdown: [`OffloadServer::drain`], stop the accept loop,
    /// and return the final stats.
    pub fn shutdown(mut self) -> ServeStats {
        self.drain();
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.stats()
    }
}

impl Drop for OffloadServer {
    fn drop(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) && !shared.hard_killed.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_shared = Arc::clone(shared);
                thread::spawn(move || serve_connection(stream, &conn_shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Runs the hello handshake; on admission, runs the worker loop on this
/// same thread until the connection dies or the server drains.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let mut io = BlobIo::new(stream, shared.config.max_frame_bytes);
    let _ = io.stream().set_write_timeout(Some(Duration::from_millis(
        shared.config.io_timeout_ms.max(1),
    )));

    let hello = match io.read_msg(HELLO_BYTES, shared.config.io_timeout_ms) {
        Ok(Some(bytes)) => match decode_hello(&bytes) {
            Ok(h) => h,
            Err(_) => {
                lock(&shared.counters).rejected_malformed += 1;
                return;
            }
        },
        _ => {
            lock(&shared.counters).rejected_malformed += 1;
            return;
        }
    };

    if shared.draining.load(Ordering::SeqCst) {
        lock(&shared.counters).rejected_draining += 1;
        let _ = io.write_all(&encode_ack(HelloStatus::Draining));
        return;
    }
    let Some(key) = shared.registry.key_for(hello.tenant) else {
        lock(&shared.counters).rejected_unknown_tenant += 1;
        let _ = io.write_all(&encode_ack(HelloStatus::UnknownTenant));
        return;
    };
    if !hello.verify(&key) {
        lock(&shared.counters).rejected_bad_auth += 1;
        let _ = io.write_all(&encode_ack(HelloStatus::BadAuth));
        return;
    }
    {
        // Admission control: typed refusal, never a silent queue.
        let mut active = lock(&shared.active);
        if *active >= shared.config.max_sessions {
            let status = HelloStatus::Overloaded {
                active: *active,
                limit: shared.config.max_sessions,
            };
            drop(active);
            lock(&shared.counters).rejected_overload += 1;
            let _ = io.write_all(&encode_ack(status));
            return;
        }
        *active += 1;
    }
    if io.write_all(&encode_ack(HelloStatus::Ok)).is_err() {
        *lock(&shared.active) -= 1;
        return;
    }
    {
        let mut c = lock(&shared.counters);
        c.accepted += 1;
        if hello.resume {
            c.resumed += 1;
        }
    }

    conn_worker(&mut io, shared, hello.tenant, hello.session, &key);
    *lock(&shared.active) -= 1;
}

/// Per-connection state the worker threads through its loop: the eval
/// session (set by key upload), the reply channel eval jobs answer on,
/// and the server-side response sequence counter.
struct ConnState {
    eval_session: Option<EvalSession>,
    reply_tx: mpsc::Sender<Vec<u8>>,
    reply_rx: mpsc::Receiver<Vec<u8>>,
    /// Jobs submitted to the scheduler whose responses are not yet
    /// written back.
    pending: u64,
    /// Sequence counter for server-originated `EvalResponse` frames.
    resp_seq: u64,
}

impl ConnState {
    fn new() -> Self {
        let (reply_tx, reply_rx) = mpsc::channel();
        ConnState {
            eval_session: None,
            reply_tx,
            reply_rx,
            pending: 0,
            resp_seq: 0,
        }
    }
}

/// The per-connection loop: read frames, verify batches in parallel, bill
/// and evaluate `EvalRequest` frames, count everything else as bad. Exits
/// on disconnect, I/O error, or drain — after flushing pending eval
/// responses, so draining mid-batch never abandons delivered-but-unwritten
/// results.
fn conn_worker(io: &mut BlobIo, shared: &Arc<Shared>, tenant: u64, session: u64, key: &TagKey) {
    let poll = shared.config.worker_poll_ms.max(1);
    let mut conn = ConnState::new();
    loop {
        // Deliver any eval responses that finished since the last read.
        if flush_ready_responses(io, shared, tenant, session, key, &mut conn).is_err() {
            break;
        }
        if shared.stop.load(Ordering::SeqCst)
            || shared.draining.load(Ordering::SeqCst)
            || shared.hard_killed.load(Ordering::SeqCst)
        {
            break;
        }
        // While evaluations are in flight their results land on the reply
        // channel, not the socket — poll short so a finished response is
        // written within milliseconds instead of waiting out the full
        // read deadline (which would bound every evaluate round trip from
        // below by `worker_poll_ms`).
        let deadline = if conn.pending > 0 { poll.min(2) } else { poll };
        let first = match io.read_blob(deadline) {
            Ok(Some(wire)) => wire,
            Ok(None) => continue,
            Err(_) => break,
        };
        // Opportunistically batch frames that are already buffered so the
        // tag checks run data-parallel on the par pool — and so a client
        // pipelining evaluate requests gets them submitted to the batch
        // scheduler in one round.
        let mut batch = vec![first];
        while batch.len() < VERIFY_BATCH {
            match io.read_blob(0) {
                Ok(Some(wire)) => batch.push(wire),
                _ => break,
            }
        }
        let verified = par::par_map(&batch, |_, wire| decode_frame(wire, key));
        let mut dead = false;
        for decoded in verified {
            let frame = match decoded {
                Ok(frame) if frame.kind == FrameKind::EvalRequest => frame,
                _ => {
                    lock(&shared.counters).bad_frames += 1;
                    continue;
                }
            };
            lock(&shared.book)
                .bill(tenant)
                .record_upload(frame.payload.len());
            let hard_killed = Arc::clone(&shared.hard_killed);
            let hard_kill = move || hard_killed.store(true, Ordering::SeqCst);
            let mut ctx = EvalContext {
                session: &mut conn.eval_session,
                cache: &shared.eval_cache,
                sched: &shared.sched,
                counters: &shared.eval_counters,
                reply: &conn.reply_tx,
                tenant,
                conn_session: session,
                isolation: &shared.isolation,
                journal: &shared.journals,
                chaos: shared.chaos.as_ref(),
                hard_kill: &hard_kill,
            };
            match handle_eval_payload(&frame.payload, &mut ctx) {
                EvalOutcome::Immediate(payload) => {
                    if write_response(io, shared, tenant, session, key, &mut conn, &payload)
                        .is_err()
                    {
                        dead = true;
                        break;
                    }
                }
                EvalOutcome::Submitted => conn.pending += 1,
                EvalOutcome::Dropped => {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            break;
        }
    }
    if !shared.hard_killed.load(Ordering::SeqCst) {
        drain_pending_responses(io, shared, tenant, session, key, &mut conn);
    }
}

/// Writes one `EvalResponse` frame under the server's own sequence
/// counter. The download is billed — and the delivery journaled — only
/// *after* the socket accepted the bytes, so a hard kill can never bill a
/// response the client had no chance to receive.
#[allow(clippy::too_many_arguments)]
fn write_response(
    io: &mut BlobIo,
    shared: &Arc<Shared>,
    tenant: u64,
    session: u64,
    key: &TagKey,
    conn: &mut ConnState,
    payload: &[u8],
) -> Result<(), ()> {
    if shared.hard_killed.load(Ordering::SeqCst) {
        return Err(());
    }
    let request_id = EvalResponse::peek_request_id(payload);
    if request_id.is_some() {
        // PreReply kill-point: the response exists but the process dies
        // before the write. Only evaluation answers count occurrences —
        // setup acks and journal answers are not replies to jobs.
        if let Some(chaos) = shared.chaos.as_deref() {
            if chaos.kill_at(EvalStage::PreReply) {
                shared.hard_killed.store(true, Ordering::SeqCst);
                return Err(());
            }
        }
    }
    let wire = encode_frame(FrameKind::EvalResponse, conn.resp_seq, payload, key);
    conn.resp_seq += 1;
    io.write_all(&wire).map_err(|_| ())?;
    lock(&shared.book)
        .bill(tenant)
        .record_download(payload.len());
    if let Some(id) = request_id {
        shared.journals.deliver(tenant, session, id);
    }
    Ok(())
}

/// Delivers already-completed eval responses without blocking.
fn flush_ready_responses(
    io: &mut BlobIo,
    shared: &Arc<Shared>,
    tenant: u64,
    session: u64,
    key: &TagKey,
    conn: &mut ConnState,
) -> Result<(), ()> {
    while let Ok(payload) = conn.reply_rx.try_recv() {
        conn.pending -= 1;
        write_response(io, shared, tenant, session, key, conn, &payload)?;
    }
    Ok(())
}

/// Blocks until every submitted job has answered (bounded by the I/O
/// timeout per response) and writes the results out. Runs on every worker
/// exit path — including drain — so scheduled batches are never abandoned
/// with a client still waiting. Write failures keep draining the channel
/// (the jobs still finish; there is just no one to tell).
fn drain_pending_responses(
    io: &mut BlobIo,
    shared: &Arc<Shared>,
    tenant: u64,
    session: u64,
    key: &TagKey,
    conn: &mut ConnState,
) {
    let budget = Duration::from_millis(shared.config.io_timeout_ms.max(1));
    let mut sink_only = false;
    while conn.pending > 0 {
        match conn.reply_rx.recv_timeout(budget) {
            Ok(payload) => {
                conn.pending -= 1;
                if !sink_only
                    && write_response(io, shared, tenant, session, key, conn, &payload).is_err()
                {
                    sink_only = true;
                }
            }
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco::transport::tcp::{dial_io, Redialer, TcpOptions};
    use choco::transport::TransportError;

    fn registry() -> TenantRegistry {
        let mut reg = TenantRegistry::new();
        reg.register(1, b"serve unit tenant 1");
        reg
    }

    fn tenant_key() -> TagKey {
        TagKey::from_session_seed(b"serve unit tenant 1")
    }

    #[test]
    fn relay_kind_frames_are_counted_bad_and_never_echoed() {
        let server =
            OffloadServer::bind("127.0.0.1:0", ServeConfig::default(), registry()).unwrap();
        let key = tenant_key();
        let opts = TcpOptions::default();
        let mut io = dial_io(&server.addr().to_string(), &key, 1, 1, false, &opts).unwrap();
        // Correctly tagged frames of every non-eval kind: the server has
        // no protocol that answers them.
        let kinds = [
            FrameKind::BfvCiphertext,
            FrameKind::KeyMaterial,
            FrameKind::Control,
        ];
        for (seq, kind) in kinds.into_iter().enumerate() {
            io.write_all(&encode_frame(kind, seq as u64, b"payload bytes", &key))
                .unwrap();
        }
        let start = Instant::now();
        while server.stats().bad_frames < kinds.len() as u64 {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "bad frames never counted"
            );
            thread::sleep(Duration::from_millis(2));
        }
        assert!(
            matches!(io.read_blob(100), Ok(None)),
            "a relay-kind frame was answered"
        );
        drop(io);
        let stats = server.shutdown();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.bad_frames, kinds.len() as u64);
        assert_eq!(stats.book.tenants(), 0, "bad frames must not be billed");
        assert!(stats.to_json_line().contains("\"bad_frames\":3,"));
    }

    #[test]
    fn stats_json_line_is_wellformed_and_single_line() {
        let server =
            OffloadServer::bind("127.0.0.1:0", ServeConfig::default(), registry()).unwrap();
        let line = server.shutdown().to_json_line();
        assert!(!line.contains('\n'), "must be a single line");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert_eq!(line.matches('"').count() % 2, 0, "quotes must balance");
        for field in [
            "\"accepted\":",
            "\"bad_frames\":",
            "\"upload_bytes\":",
            "\"eval\":{",
            "\"sched\":{",
            "\"isolation\":{\"quarantined\":",
            "\"journal\":{\"accepted\":",
        ] {
            assert!(line.contains(field), "missing {field} in {line}");
        }
    }

    #[test]
    fn unknown_tenant_and_bad_auth_are_refused() {
        let server =
            OffloadServer::bind("127.0.0.1:0", ServeConfig::default(), registry()).unwrap();
        let addr = server.addr().to_string();
        let opts = TcpOptions::default();
        let wrong = TagKey::from_session_seed(b"not the tenant seed");
        assert!(matches!(
            dial_io(&addr, &tenant_key(), 99, 1, false, &opts),
            Err(TransportError::Rejected(msg)) if msg.contains("unknown tenant")
        ));
        assert!(matches!(
            dial_io(&addr, &wrong, 1, 1, false, &opts),
            Err(TransportError::Rejected(msg)) if msg.contains("authentication")
        ));
        let stats = server.shutdown();
        assert_eq!(stats.rejected_unknown_tenant, 1);
        assert_eq!(stats.rejected_bad_auth, 1);
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn over_admission_is_typed_overloaded() {
        let config = ServeConfig {
            max_sessions: 1,
            ..ServeConfig::default()
        };
        let server = OffloadServer::bind("127.0.0.1:0", config, registry()).unwrap();
        let addr = server.addr().to_string();
        let key = tenant_key();
        let opts = TcpOptions::default();
        let _held = dial_io(&addr, &key, 1, 1, false, &opts).unwrap();
        // Give the worker a beat to be counted active, then over-admit.
        let start = Instant::now();
        loop {
            match dial_io(&addr, &key, 1, 2, false, &opts) {
                Err(TransportError::Overloaded { active, limit }) => {
                    assert_eq!(active, 1);
                    assert_eq!(limit, 1);
                    break;
                }
                Ok(_) | Err(_) if start.elapsed() < Duration::from_secs(5) => {
                    thread::sleep(Duration::from_millis(10));
                }
                other => {
                    let _ = other;
                    unreachable!("expected Overloaded within 5s");
                }
            }
        }
        let stats = server.shutdown();
        assert!(stats.rejected_overload >= 1);
    }

    #[test]
    fn draining_server_refuses_and_redialer_backs_off() {
        let server =
            OffloadServer::bind("127.0.0.1:0", ServeConfig::default(), registry()).unwrap();
        server.drain();
        let addr = server.addr().to_string();
        assert!(matches!(
            dial_io(&addr, &tenant_key(), 1, 1, false, &TcpOptions::default()),
            Err(TransportError::Rejected(msg)) if msg.contains("draining")
        ));
        // The redialer treats draining as transient and exhausts retries.
        let mut redialer = Redialer::new(addr, b"serve unit tenant 1", 1, 1);
        redialer.policy.max_attempts = 2;
        redialer.policy.base_backoff_ms = 1;
        assert!(matches!(
            redialer.dial_fresh_io(),
            Err(TransportError::RetriesExhausted { attempts: 2, .. })
        ));
        let stats = server.shutdown();
        assert!(stats.rejected_draining >= 3);
    }
}
