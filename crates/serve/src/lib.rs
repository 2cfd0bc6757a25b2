//! `choco-serve`: the offload protocol's remote peer over real TCP.
//!
//! The [`crate::server::OffloadServer`] is a **batching, caching HE
//! evaluator** for the remote-evaluation protocol (`choco::remote`):
//! clients upload their evaluation keys once, then stream evaluate
//! requests that reference compiled programs by hash; the server
//! coalesces compatible requests across connections and tenants into
//! batched kernel invocations and caches compiled programs plus NTT-domain
//! plaintext operands so steady-state traffic does zero recompilation and
//! zero re-encoding. The secret key never leaves the client: the paper's
//! client-aided chains run one program per step here, with the client's
//! decrypt → non-linear op → re-encrypt in between. What the server adds
//! around the evaluator:
//!
//! * a per-tenant key [`registry::TenantRegistry`] and an authenticated
//!   hello handshake (a client that does not know the tenant seed is
//!   rejected before any frame is exchanged),
//! * admission control with a typed `Overloaded` refusal instead of
//!   silent queueing,
//! * per-connection worker threads that verify frame batches on the
//!   `choco-math::par` pool,
//! * the global [`cache::ServeCache`] (LRU over `(params_hash,
//!   program_ref)` with hit/miss/eviction counters) and the
//!   [`sched::BatchScheduler`] (windowed cross-connection coalescing),
//! * graceful drain: admission stops, scheduled batches are flushed and
//!   pending results delivered before the workers exit,
//! * fault isolation ([`isolate::Isolation`]): poison-program quarantine
//!   with batch bisection in the scheduler (healthy co-batched jobs still
//!   succeed), per-tenant circuit breakers with typed
//!   `Unavailable { retry_after_ms }` refusals, and per-job dispatch
//!   deadlines with typed `DeadlineExceeded` shedding,
//! * the in-flight eval [`journal::JournalSet`], the only durable server
//!   state: accepted requests are journaled before scheduling and marked
//!   off after delivery, so a hard-killed server's successor can tell a
//!   resuming client exactly which requests died and must be resent, and
//! * [`chaos::ChaosProxy`], a socket-level fault injector for the chaos
//!   tests (mid-frame connection kills, per-chunk delays, seeded
//!   bit-flips), plus [`chaos::EvalChaos`], the in-process eval-pipeline
//!   fault plan (stage kills, injected job faults, dispatch stalls).

#![forbid(unsafe_code)]
// Panics hide protocol bugs: outside tests, prefer typed errors (PR 1's
// robustness audit). New `unwrap`/`expect` calls in library code must either
// be converted to `Result` or carry a `# Panics` contract at the public API.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cache;
pub mod chaos;
pub mod eval;
pub mod isolate;
pub mod journal;
pub mod registry;
pub mod sched;
pub mod server;

pub use cache::{CachedProgram, EvalCacheStats, ProgramLookup, ServeCache};
pub use chaos::{ChaosPlan, ChaosProxy, EvalChaos, EvalChaosState, EvalStage};
pub use eval::{EvalCounters, EvalSession};
pub use isolate::{Isolation, IsolationConfig, IsolationStats};
pub use journal::{DeadRequest, JournalSet, JournalStats};
pub use registry::TenantRegistry;
pub use sched::{BatchScheduler, SchedStats};
pub use server::{EvalStats, OffloadServer, ServeConfig, ServeStats};
