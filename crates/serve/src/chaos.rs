//! Socket-level fault injection for the chaos tests.
//!
//! [`ChaosProxy`] sits between a client and an [`crate::OffloadServer`] on
//! loopback and forwards bytes in both directions — until its
//! [`ChaosPlan`] says otherwise. Unlike the in-memory
//! `choco::transport::fault::FaultyChannel` (which perturbs whole frames),
//! the proxy works on raw socket bytes, so it can cut a connection *in the
//! middle of a frame* or delay individual TCP segments: exactly the
//! failures a real network produces and the frame layer must absorb.
//!
//! The kill fires once, on the client→server direction of the first
//! connection that crosses the byte threshold; connections dialed after
//! the kill pass through clean, so a client redial/resume succeeds. The
//! bit-flip corruption mode likewise fires once, at a byte offset, but
//! leaves the connection up — the frame tag, not EOF, must reject it.
//!
//! [`EvalChaos`]/[`EvalChaosState`] are the *in-process* counterpart:
//! deterministic nth-occurrence triggers inside the evaluation pipeline
//! (hard-kill at a stage, fault the nth job, stall the nth dispatch
//! round), mirroring the `CrashPlan` idiom used for session records.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// What the proxy does to the traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Cut both directions after this many client→server bytes have been
    /// forwarded (counted across connections; fires once). Choose a value
    /// inside a frame to simulate a mid-frame connection loss.
    pub kill_after_bytes: Option<u64>,
    /// Sleep this long before forwarding each chunk, both directions —
    /// a crude high-latency link (delayed request and response delivery).
    pub delay_ms: u64,
    /// Flip one bit of the client→server byte at this offset (counted
    /// across connections; fires once), leaving the connection up — a
    /// corrupted-in-flight frame the keyed-BLAKE3 tag must catch.
    pub corrupt_at_byte: Option<u64>,
    /// Seed choosing *which* bit flips (deterministic: `seed % 8`), so a
    /// corruption sweep can walk all eight without new plumbing.
    pub corrupt_seed: u64,
}

struct ProxyState {
    plan: ChaosPlan,
    stop: AtomicBool,
    forwarded_c2s: AtomicU64,
    killed: AtomicBool,
    corrupted: AtomicBool,
}

/// A running loopback proxy. Stops (and closes its listener) on drop.
pub struct ChaosProxy {
    addr: SocketAddr,
    state: Arc<ProxyState>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral loopback port, forwarding to
    /// `upstream` per `plan`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn spawn(upstream: SocketAddr, plan: ChaosPlan) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ProxyState {
            plan,
            stop: AtomicBool::new(false),
            forwarded_c2s: AtomicU64::new(0),
            killed: AtomicBool::new(false),
            corrupted: AtomicBool::new(false),
        });
        let accept_state = Arc::clone(&state);
        let accept = thread::spawn(move || accept_loop(&listener, upstream, &accept_state));
        Ok(ChaosProxy {
            addr,
            state,
            accept: Some(accept),
        })
    }

    /// The address clients should dial instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the planned kill has fired.
    pub fn killed(&self) -> bool {
        self.state.killed.load(Ordering::SeqCst)
    }

    /// Whether the planned bit-flip has fired.
    pub fn corrupted(&self) -> bool {
        self.state.corrupted.load(Ordering::SeqCst)
    }

    /// Stops the proxy (idempotent; also runs on drop).
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.halt();
    }
}

fn accept_loop(listener: &TcpListener, upstream: SocketAddr, state: &Arc<ProxyState>) {
    while !state.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _peer)) => {
                let Ok(server) = TcpStream::connect(upstream) else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                spawn_pump(client, server, state);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn spawn_pump(client: TcpStream, server: TcpStream, state: &Arc<ProxyState>) {
    let (Ok(client2), Ok(server2)) = (client.try_clone(), server.try_clone()) else {
        let _ = client.shutdown(Shutdown::Both);
        let _ = server.shutdown(Shutdown::Both);
        return;
    };
    let c2s_state = Arc::clone(state);
    thread::spawn(move || pump(client, server, &c2s_state, true));
    let s2c_state = Arc::clone(state);
    thread::spawn(move || pump(server2, client2, &s2c_state, false));
}

/// Copies bytes `from` → `to`, applying the plan. `count_for_kill` marks
/// the client→server direction, the only one the byte-kill counts.
fn pump(mut from: TcpStream, mut to: TcpStream, state: &Arc<ProxyState>, count_for_kill: bool) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = to.set_nodelay(true);
    let mut buf = [0u8; 4096];
    loop {
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let got = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => break,
        };
        if state.plan.delay_ms > 0 {
            thread::sleep(Duration::from_millis(state.plan.delay_ms));
        }
        let mut owned: Vec<u8>;
        let mut chunk = buf.get(..got).unwrap_or(&[]);
        let counted = state.plan.kill_after_bytes.is_some() || state.plan.corrupt_at_byte.is_some();
        if count_for_kill && counted && !state.killed.load(Ordering::SeqCst) {
            let before = state.forwarded_c2s.fetch_add(got as u64, Ordering::SeqCst);
            if let Some(offset) = state.plan.corrupt_at_byte {
                if offset >= before
                    && offset < before + got as u64
                    && !state.corrupted.swap(true, Ordering::SeqCst)
                {
                    // Flip one seed-chosen bit in place; the connection
                    // stays up so the tag check, not EOF, must reject it.
                    owned = chunk.to_vec();
                    let idx = (offset - before) as usize;
                    if let Some(byte) = owned.get_mut(idx) {
                        *byte ^= 1u8 << (state.plan.corrupt_seed % 8);
                    }
                    chunk = owned.as_slice();
                }
            }
            if let Some(threshold) = state.plan.kill_after_bytes {
                if before + got as u64 >= threshold && !state.killed.swap(true, Ordering::SeqCst) {
                    // Forward only up to the threshold, then cut both
                    // directions mid-frame.
                    let keep = (threshold.saturating_sub(before)) as usize;
                    chunk = chunk.get(..keep.min(chunk.len())).unwrap_or(&[]);
                    if !chunk.is_empty() {
                        let _ = to.write_all(chunk).and_then(|_| to.flush());
                    }
                    break;
                }
            }
        }
        if to.write_all(chunk).and_then(|_| to.flush()).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Evaluation stage at which an [`EvalChaos`] kill can fire, in pipeline
/// order: request admission, batch coalescing, mid-evaluation, and just
/// before the response is written back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalStage {
    /// The request was admitted (and journaled) but not yet scheduled.
    Accept,
    /// The scheduler closed a coalescing window and formed batches.
    Coalesce,
    /// A batch's jobs are being evaluated.
    MidEval,
    /// The response is built and about to be written to the socket.
    PreReply,
}

/// Deterministic in-process fault plan for the evaluation pipeline — the
/// eval-side sibling of the server's `CrashPlan`. Every trigger is an
/// "nth occurrence" (1-based) so a sweep can walk kill-points one by one
/// and replay bit-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalChaos {
    /// Hard-kill the server at the nth occurrence of the given stage.
    pub kill: Option<(EvalStage, u32)>,
    /// Inject a typed evaluation fault into the nth job executed.
    pub fail_job: Option<u32>,
    /// Stall the nth dispatch round by this many milliseconds before the
    /// deadline check runs, forcing queued jobs past their deadline.
    pub stall: Option<(u32, u64)>,
}

/// Shared occurrence counters for an [`EvalChaos`] plan. One instance is
/// threaded through the scheduler and eval hooks; each trigger fires at
/// most once.
#[derive(Debug, Default)]
pub struct EvalChaosState {
    plan: EvalChaos,
    stages: [AtomicU64; 4],
    jobs: AtomicU64,
    rounds: AtomicU64,
    kill_fired: AtomicBool,
}

impl EvalChaosState {
    /// State for `plan` with all counters at zero.
    pub fn new(plan: EvalChaos) -> Self {
        EvalChaosState {
            plan,
            ..EvalChaosState::default()
        }
    }

    /// Counts one occurrence of `stage`; returns `true` exactly when the
    /// plan's kill matches this stage and this occurrence number.
    pub fn kill_at(&self, stage: EvalStage) -> bool {
        let idx = stage as usize;
        let seen = self
            .stages
            .get(idx)
            .map(|c| c.fetch_add(1, Ordering::SeqCst) + 1)
            .unwrap_or(0);
        match self.plan.kill {
            Some((s, nth)) if s == stage && u64::from(nth) == seen => {
                self.kill_fired.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }

    /// Counts one executed job; returns `true` exactly for the planned
    /// nth job, which the evaluator must then fail with a typed error.
    pub fn fail_this_job(&self) -> bool {
        let seen = self.jobs.fetch_add(1, Ordering::SeqCst) + 1;
        matches!(self.plan.fail_job, Some(nth) if u64::from(nth) == seen)
    }

    /// Counts one dispatch round; returns the planned stall duration for
    /// the nth round, `None` otherwise.
    pub fn stall_this_round(&self) -> Option<Duration> {
        let seen = self.rounds.fetch_add(1, Ordering::SeqCst) + 1;
        match self.plan.stall {
            Some((nth, ms)) if u64::from(nth) == seen => Some(Duration::from_millis(ms)),
            _ => None,
        }
    }

    /// Whether the planned kill has fired.
    pub fn kill_fired(&self) -> bool {
        self.kill_fired.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial upstream echo: whatever arrives is written back.
    fn echo_upstream() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo upstream");
        let addr = listener.local_addr().expect("echo upstream addr");
        thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                thread::spawn(move || {
                    let mut stream = stream;
                    let mut buf = [0u8; 1024];
                    while let Ok(n) = stream.read(&mut buf) {
                        if n == 0 || stream.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn clean_plan_forwards_both_directions() {
        let proxy = ChaosProxy::spawn(echo_upstream(), ChaosPlan::default()).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.write_all(b"over the proxy").unwrap();
        let mut got = [0u8; 14];
        conn.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"over the proxy");
        assert!(!proxy.killed());
    }

    #[test]
    fn kill_fires_once_and_later_connections_pass() {
        let plan = ChaosPlan {
            kill_after_bytes: Some(4),
            ..ChaosPlan::default()
        };
        let proxy = ChaosProxy::spawn(echo_upstream(), plan).unwrap();
        let mut first = TcpStream::connect(proxy.addr()).unwrap();
        first.write_all(b"0123456789").unwrap();
        // The cut drops the connection: reads end in EOF or reset.
        let mut sink = Vec::new();
        let _ = first.read_to_end(&mut sink);
        assert!(sink.len() <= 4, "at most 4 bytes may cross, got {sink:?}");
        assert!(proxy.killed());

        let mut second = TcpStream::connect(proxy.addr()).unwrap();
        second.write_all(b"after the kill").unwrap();
        let mut got = [0u8; 14];
        second.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"after the kill");
    }

    #[test]
    fn corruption_flips_exactly_one_seeded_bit_and_keeps_the_connection() {
        let plan = ChaosPlan {
            corrupt_at_byte: Some(2),
            corrupt_seed: 11, // bit 3
            ..ChaosPlan::default()
        };
        let proxy = ChaosProxy::spawn(echo_upstream(), plan).unwrap();
        let mut conn = TcpStream::connect(proxy.addr()).unwrap();
        conn.write_all(b"payload").unwrap();
        let mut got = [0u8; 7];
        conn.read_exact(&mut got).unwrap();
        let mut expect = *b"payload";
        expect[2] ^= 1 << 3;
        assert_eq!(got, expect, "exactly byte 2, bit 3 flipped");
        assert!(proxy.corrupted());
        assert!(!proxy.killed());
        // Fires once: a later round trips through unmodified.
        conn.write_all(b"clean").unwrap();
        let mut clean = [0u8; 5];
        conn.read_exact(&mut clean).unwrap();
        assert_eq!(&clean, b"clean");
    }

    #[test]
    fn eval_chaos_triggers_fire_on_exact_occurrences() {
        let state = EvalChaosState::new(EvalChaos {
            kill: Some((EvalStage::MidEval, 2)),
            fail_job: Some(3),
            stall: Some((1, 40)),
        });
        assert!(!state.kill_at(EvalStage::Accept));
        assert!(!state.kill_at(EvalStage::MidEval));
        assert!(!state.kill_fired());
        assert!(state.kill_at(EvalStage::MidEval), "second MidEval kills");
        assert!(state.kill_fired());
        assert!(!state.kill_at(EvalStage::MidEval), "fires once");
        assert!(!state.fail_this_job() && !state.fail_this_job());
        assert!(state.fail_this_job(), "third job faults");
        assert!(!state.fail_this_job());
        assert_eq!(state.stall_this_round(), Some(Duration::from_millis(40)));
        assert_eq!(state.stall_this_round(), None);
    }
}
