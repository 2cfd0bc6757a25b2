//! Step-granular resumable workload drivers for crash-tolerant offloading.
//!
//! Each workload of the suite gets a driver that advances in discrete
//! steps, so a caller can interleave [`Session::checkpoint`] between steps
//! and, after a crash ([`choco::transport::TransportError::Crashed`] or a
//! real process death), rebuild both session and workload from the last
//! checkpoint with [`Session::resume`] + `restore` and continue exactly
//! where the run left off:
//!
//! * [`ResumablePagerank`] — one refresh burst per step (BFV or CKKS);
//! * [`ResumableConvLayer`] — one upload step, then one output channel per
//!   step; after a resume, [`ResumableConvLayer::recover`] re-uploads the
//!   server-side input ciphertext from its checkpointed wire bytes, billed
//!   to [`choco::CommLedger::recovery_bytes`];
//! * [`ResumablePipeline`] — one network stage per step (conv1, conv2,
//!   FC), with sentinel verification of the FC output via
//!   [`Session::download_checked`];
//! * [`ResumableKmeans`] — one K-Means iteration per step.
//!
//! Determinism contract: a step is a pure function of the workload's
//! progress state and the session state at the step boundary — every
//! random draw comes from the checkpointed client RNG. Replaying a crashed
//! step from the last checkpoint therefore reproduces the uninterrupted
//! run's ciphertexts bit for bit, and the primary ledger lines (uploads,
//! downloads, bytes, rounds, refreshes) land on identical totals; only
//! `retransmit_bytes`, `recovery_bytes` and the simulated clock may
//! differ. The crash-point sweep in `tests/chaos_sweep.rs` enforces this
//! for every workload × crash point.
//!
//! Progress blobs carry only the *mutable* workload state; static
//! configuration (graph, weights, image, point set) is plaintext the
//! restarted client binary already has and is passed back to `restore`.
//! Integrity comes from the checkpoint seal around the whole blob;
//! `restore` still validates shape and never panics on garbage.

use crate::distance::{encrypted_distances, kmeans_update, PackingVariant};
use crate::dnn::{conv_taps, run_encrypted_conv_layer};
use crate::pagerank::Graph;
use crate::pipeline::{max_pool2x2, requantize, LenetLikeSpec, LenetLikeWeights};
use choco::linalg::{accumulate_channels, matvec_diagonals, replicate_for_matvec, stacked_conv};
use choco::rotation::RedundantLayout;
use choco::stacking::StackedLayout;
use choco::transport::{Channel, Session, TransportError};
use choco_he::{Bfv, Ckks, HeError, HeScheme};
use std::marker::PhantomData;

/// Common surface of the step-granular resumable drivers.
pub trait ResumableWorkload {
    /// Serializes the mutable workload state for a session checkpoint.
    fn progress(&self) -> Vec<u8>;

    /// Whether every step has completed.
    fn is_done(&self) -> bool;

    /// Wire bytes of the most recently downloaded result ciphertext (empty
    /// until the first download) — the bit-identity witness crash sweeps
    /// compare against the uninterrupted run.
    fn final_ct_wire(&self) -> &[u8];
}

fn bad_progress(msg: impl Into<String>) -> TransportError {
    TransportError::BadCheckpoint(format!("workload progress: {}", msg.into()))
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_u64s(out: &mut Vec<u8>, v: &[u64]) {
    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_f64s(out: &mut Vec<u8>, v: &[f64]) {
    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
    for x in v {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

/// Bounds-checked cursor over a progress blob. The enclosing checkpoint
/// seal already guarantees integrity; this guards against version and
/// programming mismatches with typed errors instead of panics.
struct ProgressReader<'a> {
    rest: &'a [u8],
}

impl<'a> ProgressReader<'a> {
    fn new(bytes: &'a [u8], magic: &[u8; 4]) -> Result<Self, TransportError> {
        let mut r = ProgressReader { rest: bytes };
        let got = r.take(4)?;
        if got != magic {
            return Err(bad_progress(format!(
                "expected magic {magic:?}, found {got:?}"
            )));
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TransportError> {
        if self.rest.len() < n {
            return Err(bad_progress("truncated"));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, TransportError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, TransportError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, TransportError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn bytes(&mut self) -> Result<&'a [u8], TransportError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn u64s(&mut self) -> Result<Vec<u64>, TransportError> {
        let count = self.u32()? as usize;
        let mut v = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            v.push(self.u64()?);
        }
        Ok(v)
    }

    fn f64s(&mut self) -> Result<Vec<f64>, TransportError> {
        let count = self.u32()? as usize;
        let mut v = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            v.push(f64::from_bits(self.u64()?));
        }
        Ok(v)
    }

    fn finish(self) -> Result<(), TransportError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(bad_progress("trailing bytes"))
        }
    }
}

// ---------------------------------------------------------------------------
// PageRank
// ---------------------------------------------------------------------------

const PAGERANK_MAGIC: &[u8; 4] = b"RPG1";

/// Burst-granular resumable PageRank: each step is one refresh burst of
/// the client-aided loop in [`crate::pagerank::pagerank_encrypted`] —
/// quantize + encrypt + upload, `burst` encrypted iterations, download,
/// decrypt + renormalize. Generic over the HE scheme like the one-shot
/// runner.
#[derive(Debug, Clone)]
pub struct ResumablePagerank<S: HeScheme> {
    graph: Graph,
    damping: f64,
    total_iterations: u32,
    iters_per_refresh: u32,
    scale_bits: u32,
    ranks: Vec<f64>,
    done: u32,
    final_wire: Vec<u8>,
    _scheme: PhantomData<S>,
}

impl<S: HeScheme> ResumablePagerank<S> {
    /// Starts a fresh run at the uniform rank vector.
    ///
    /// # Errors
    ///
    /// [`HeError::Mismatch`] (wrapped) for a zero refresh cadence or an
    /// empty graph.
    pub fn new(
        graph: &Graph,
        damping: f64,
        total_iterations: u32,
        iters_per_refresh: u32,
        scale_bits: u32,
    ) -> Result<Self, TransportError> {
        if iters_per_refresh < 1 {
            return Err(HeError::Mismatch("need at least one iteration per refresh".into()).into());
        }
        if graph.is_empty() {
            return Err(HeError::Mismatch("empty graph".into()).into());
        }
        let n = graph.len();
        Ok(ResumablePagerank {
            graph: graph.clone(),
            damping,
            total_iterations,
            iters_per_refresh,
            scale_bits,
            ranks: vec![1.0 / n as f64; n],
            done: 0,
            final_wire: Vec::new(),
            _scheme: PhantomData,
        })
    }

    /// Rebuilds the driver from checkpointed progress plus the static
    /// configuration the restarted client still has.
    ///
    /// # Errors
    ///
    /// [`TransportError::BadCheckpoint`] on malformed or mismatched blobs.
    pub fn restore(
        graph: &Graph,
        damping: f64,
        total_iterations: u32,
        iters_per_refresh: u32,
        scale_bits: u32,
        progress: &[u8],
    ) -> Result<Self, TransportError> {
        let mut fresh = Self::new(
            graph,
            damping,
            total_iterations,
            iters_per_refresh,
            scale_bits,
        )?;
        let mut r = ProgressReader::new(progress, PAGERANK_MAGIC)?;
        let done = r.u32()?;
        let ranks = r.f64s()?;
        let final_wire = r.bytes()?.to_vec();
        r.finish()?;
        if done > total_iterations {
            return Err(bad_progress("iteration counter exceeds the schedule"));
        }
        if ranks.len() != graph.len() {
            return Err(bad_progress("rank vector does not match the graph"));
        }
        if ranks.iter().any(|x| !x.is_finite()) {
            return Err(bad_progress("non-finite rank"));
        }
        fresh.done = done;
        fresh.ranks = ranks;
        fresh.final_wire = final_wire;
        Ok(fresh)
    }

    /// Current rank vector (final answer once [`Self::is_done`]).
    pub fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// Runs one refresh burst.
    ///
    /// # Errors
    ///
    /// Transport and HE errors exactly as the one-shot runner; a crashed
    /// session surfaces [`TransportError::Crashed`] with the workload
    /// state untouched since the last completed step.
    pub fn step<C: Channel>(&mut self, session: &mut Session<S, C>) -> Result<(), TransportError> {
        if self.is_done() {
            return Ok(());
        }
        let n = self.graph.len();
        let width = session.server().slot_width();
        if 2 * n > width {
            return Err(HeError::Mismatch("graph too large for one ciphertext row".into()).into());
        }
        let ctx = session.server().context().clone();
        let burst = self
            .iters_per_refresh
            .min(self.total_iterations - self.done);

        let qm: Vec<Vec<S::Value>> = self
            .graph
            .transition
            .iter()
            .map(|row| {
                let damped: Vec<f64> = row.iter().map(|&v| self.damping * v).collect();
                S::quantize(&ctx, &damped, self.scale_bits, 1)
            })
            .collect();
        let teleport = (1.0 - self.damping) / n as f64;
        let mask_plain: Vec<S::Value> = {
            let mut mask = vec![0.0f64; width];
            for s in mask.iter_mut().take(n) {
                *s = 1.0;
            }
            S::quantize(&ctx, &mask, self.scale_bits, 0)
        };

        let qr = S::quantize(&ctx, &self.ranks, self.scale_bits, 1);
        let replicated = replicate_for_matvec(&qr, width);
        let ct = session.client_mut().encrypt(&replicated)?;
        let uploaded = session.upload(&ct)?;
        let mut at_server = session.guard(&uploaded)?;

        session.compute_tick()?;
        for it in 0..burst {
            at_server = matvec_diagonals(session.server(), &at_server, &qm)?;
            let mut tvec = vec![0.0f64; width];
            for s in tvec.iter_mut().take(n) {
                *s = teleport;
            }
            let tq = S::quantize(&ctx, &tvec, self.scale_bits, it + 2);
            at_server = session.server().add_plain(&at_server, &tq)?;
            if it + 1 < burst {
                let masked = session.server().mul_plain(&at_server, &mask_plain)?;
                let copy = session.server().rotate(&masked, -(n as i64))?;
                at_server = session.server().add(&masked, &copy)?;
            }
        }
        let back = session.download(&at_server)?;
        self.final_wire = S::ct_to_wire(&back);
        session.ledger_mut().end_round();

        let slots = session.client_mut().decrypt(&back)?;
        let stripped = S::dequantize(&ctx, &slots[..n], self.scale_bits, burst + 1);
        self.ranks.copy_from_slice(&stripped);
        let sum: f64 = self.ranks.iter().sum();
        for r in self.ranks.iter_mut() {
            *r /= sum;
        }
        self.done += burst;
        Ok(())
    }
}

impl<S: HeScheme> ResumableWorkload for ResumablePagerank<S> {
    fn progress(&self) -> Vec<u8> {
        let mut out = PAGERANK_MAGIC.to_vec();
        out.extend_from_slice(&self.done.to_le_bytes());
        put_f64s(&mut out, &self.ranks);
        put_bytes(&mut out, &self.final_wire);
        out
    }

    fn is_done(&self) -> bool {
        self.done >= self.total_iterations
    }

    fn final_ct_wire(&self) -> &[u8] {
        &self.final_wire
    }
}

// ---------------------------------------------------------------------------
// Convolution layer
// ---------------------------------------------------------------------------

const CONV_MAGIC: &[u8; 4] = b"RCV1";

/// Channel-granular resumable encrypted convolution layer (BFV). Step 0
/// packs + encrypts + uploads the stacked input; each later step computes
/// one output channel server-side and downloads it. Because the input
/// ciphertext lives on the (crashed) server across steps, resuming
/// requires [`Self::recover`], which re-uploads its checkpointed wire
/// bytes billed to `recovery_bytes` — never re-encrypting, so the client
/// RNG stream stays on the uninterrupted run's schedule.
#[derive(Debug, Clone)]
pub struct ResumableConvLayer {
    input: Vec<Vec<u64>>,
    weights: Vec<Vec<Vec<u64>>>,
    h: usize,
    w: usize,
    f: usize,
    /// Wire bytes of the input ciphertext at the server (empty = not yet
    /// uploaded). Updated after each guard, since a refresh replaces it.
    uploaded: Vec<u8>,
    maps: Vec<Vec<u64>>,
    final_wire: Vec<u8>,
}

impl ResumableConvLayer {
    /// Starts a fresh layer run.
    ///
    /// # Errors
    ///
    /// [`HeError::Mismatch`] (wrapped) for empty inputs or weights.
    pub fn new(
        input: &[Vec<u64>],
        weights: &[Vec<Vec<u64>>],
        h: usize,
        w: usize,
        f: usize,
    ) -> Result<Self, TransportError> {
        if input.is_empty() || weights.is_empty() {
            return Err(HeError::Mismatch("empty conv input or weights".into()).into());
        }
        Ok(ResumableConvLayer {
            input: input.to_vec(),
            weights: weights.to_vec(),
            h,
            w,
            f,
            uploaded: Vec::new(),
            maps: Vec::new(),
            final_wire: Vec::new(),
        })
    }

    /// Rebuilds the driver from checkpointed progress.
    ///
    /// # Errors
    ///
    /// [`TransportError::BadCheckpoint`] on malformed or mismatched blobs.
    pub fn restore(
        input: &[Vec<u64>],
        weights: &[Vec<Vec<u64>>],
        h: usize,
        w: usize,
        f: usize,
        progress: &[u8],
    ) -> Result<Self, TransportError> {
        let mut fresh = Self::new(input, weights, h, w, f)?;
        let mut r = ProgressReader::new(progress, CONV_MAGIC)?;
        let uploaded = r.bytes()?.to_vec();
        let count = r.u32()? as usize;
        if count > weights.len() {
            return Err(bad_progress("more channel maps than output channels"));
        }
        let mut maps = Vec::with_capacity(count);
        for _ in 0..count {
            let m = r.u64s()?;
            if m.len() != h * w {
                return Err(bad_progress("channel map has the wrong pixel count"));
            }
            maps.push(m);
        }
        let final_wire = r.bytes()?.to_vec();
        r.finish()?;
        if count > 0 && uploaded.is_empty() {
            return Err(bad_progress("channel maps recorded before any upload"));
        }
        fresh.uploaded = uploaded;
        fresh.maps = maps;
        fresh.final_wire = final_wire;
        Ok(fresh)
    }

    fn layout(&self) -> StackedLayout {
        let red = (self.f / 2) * (self.w + 1);
        StackedLayout::new(self.input.len(), RedundantLayout::new(self.h * self.w, red))
    }

    /// Per-output-channel feature maps computed so far (all of them once
    /// [`Self::is_done`]).
    pub fn maps(&self) -> &[Vec<u64>] {
        &self.maps
    }

    /// Re-establishes server-side state after a [`Session::resume`]: if
    /// the input ciphertext was already uploaded, sends its stored wire
    /// bytes again through [`Session::recover_upload`] (billed to
    /// `recovery_bytes`). Call once, before the next [`Self::step`].
    ///
    /// # Errors
    ///
    /// Transport errors from the recovery upload.
    pub fn recover<C: Channel>(
        &mut self,
        session: &mut Session<Bfv, C>,
    ) -> Result<(), TransportError> {
        if !self.uploaded.is_empty() {
            let delivered = session.recover_upload(&self.uploaded)?;
            self.uploaded = Bfv::ct_to_wire(&delivered);
        }
        Ok(())
    }

    /// Runs the next step: the initial upload, or one output channel.
    ///
    /// # Errors
    ///
    /// Transport and HE errors as
    /// [`crate::dnn::run_encrypted_conv_layer`]; capacity overflows are
    /// [`HeError::Mismatch`].
    pub fn step<C: Channel>(
        &mut self,
        session: &mut Session<Bfv, C>,
    ) -> Result<(), TransportError> {
        if self.is_done() {
            return Ok(());
        }
        let layout = self.layout();
        if self.uploaded.is_empty() {
            if !layout.fits(session.server().context().degree() / 2) {
                return Err(HeError::Mismatch(
                    "layer too large for one ciphertext; split across ciphertexts".into(),
                )
                .into());
            }
            let slots = layout.pack(&self.input);
            let ct = session.client_mut().encrypt_slots(&slots)?;
            let at_server = session.upload(&ct)?;
            self.uploaded = Bfv::ct_to_wire(&at_server);
            return Ok(());
        }

        let at_server = Bfv::ct_from_wire(&self.uploaded)?;
        let at_server = session.guard(&at_server)?;
        self.uploaded = Bfv::ct_to_wire(&at_server);
        session.compute_tick()?;
        let taps = conv_taps(
            &self.weights[self.maps.len()],
            self.input.len(),
            self.f,
            self.w,
        );
        let conv = stacked_conv(session.server(), &at_server, &layout, &taps)?;
        let acc = accumulate_channels(session.server(), &conv, &layout)?;
        let back = session.download(&acc)?;
        self.final_wire = Bfv::ct_to_wire(&back);
        let slots = session.client_mut().decrypt_slots(&back)?;
        self.maps.push(layout.extract(&slots)[0].clone());
        if self.is_done() {
            session.ledger_mut().end_round();
        }
        Ok(())
    }
}

impl ResumableWorkload for ResumableConvLayer {
    fn progress(&self) -> Vec<u8> {
        let mut out = CONV_MAGIC.to_vec();
        put_bytes(&mut out, &self.uploaded);
        out.extend_from_slice(&(self.maps.len() as u32).to_le_bytes());
        for m in &self.maps {
            put_u64s(&mut out, m);
        }
        put_bytes(&mut out, &self.final_wire);
        out
    }

    fn is_done(&self) -> bool {
        self.maps.len() == self.weights.len()
    }

    fn final_ct_wire(&self) -> &[u8] {
        &self.final_wire
    }
}

// ---------------------------------------------------------------------------
// Whole-network pipeline
// ---------------------------------------------------------------------------

const PIPELINE_MAGIC: &[u8; 4] = b"RPL1";

/// Stage-granular resumable LeNet-style inference: step 0 runs the first
/// encrypted convolution (plus client requantize/pool), step 1 the second,
/// step 2 the fully-connected layer. The FC download goes through
/// [`Session::download_checked`] with the class-0 logit as a sentinel —
/// the client can compute it exactly from its own plaintext features, so
/// a server returning an inconsistent result surfaces as
/// [`choco::transport::TransportError::SentinelMismatch`] instead of a
/// silently wrong argmax.
#[derive(Debug, Clone)]
pub struct ResumablePipeline {
    spec: LenetLikeSpec,
    weights: LenetLikeWeights,
    image: Vec<u64>,
    stage: u8,
    pooled1: Vec<Vec<u64>>,
    pooled2: Vec<Vec<u64>>,
    logits: Vec<u64>,
    final_wire: Vec<u8>,
}

impl ResumablePipeline {
    /// Starts a fresh inference.
    ///
    /// # Errors
    ///
    /// [`HeError::Mismatch`] (wrapped) when the image does not match the
    /// spec geometry.
    pub fn new(
        spec: &LenetLikeSpec,
        weights: &LenetLikeWeights,
        image: &[u64],
    ) -> Result<Self, TransportError> {
        if image.len() != spec.img * spec.img {
            return Err(HeError::Mismatch(format!(
                "image has {} pixels, spec wants {}x{}",
                image.len(),
                spec.img,
                spec.img
            ))
            .into());
        }
        if spec.classes == 0 {
            return Err(HeError::Mismatch("need at least one output class".into()).into());
        }
        Ok(ResumablePipeline {
            spec: *spec,
            weights: weights.clone(),
            image: image.to_vec(),
            stage: 0,
            pooled1: Vec::new(),
            pooled2: Vec::new(),
            logits: Vec::new(),
            final_wire: Vec::new(),
        })
    }

    /// Rebuilds the driver from checkpointed progress.
    ///
    /// # Errors
    ///
    /// [`TransportError::BadCheckpoint`] on malformed or mismatched blobs.
    pub fn restore(
        spec: &LenetLikeSpec,
        weights: &LenetLikeWeights,
        image: &[u64],
        progress: &[u8],
    ) -> Result<Self, TransportError> {
        let mut fresh = Self::new(spec, weights, image)?;
        let mut r = ProgressReader::new(progress, PIPELINE_MAGIC)?;
        let stage = r.u8()?;
        if stage > 3 {
            return Err(bad_progress("unknown pipeline stage"));
        }
        let read_maps = |r: &mut ProgressReader, want_maps: usize, want_len: usize| {
            let count = r.u32()? as usize;
            if count != want_maps {
                return Err(bad_progress("pooled map count mismatch"));
            }
            let mut maps = Vec::with_capacity(count);
            for _ in 0..count {
                let m = r.u64s()?;
                if m.len() != want_len {
                    return Err(bad_progress("pooled map size mismatch"));
                }
                maps.push(m);
            }
            Ok(maps)
        };
        let p1 = spec.img / 2;
        let p2 = p1 / 2;
        if stage >= 1 {
            fresh.pooled1 = read_maps(&mut r, spec.conv1_ch, p1 * p1)?;
        }
        if stage >= 2 {
            fresh.pooled2 = read_maps(&mut r, spec.conv2_ch, p2 * p2)?;
        }
        if stage >= 3 {
            let logits = r.u64s()?;
            if logits.len() != spec.classes {
                return Err(bad_progress("logit count mismatch"));
            }
            fresh.logits = logits;
        }
        fresh.final_wire = r.bytes()?.to_vec();
        r.finish()?;
        fresh.stage = stage;
        Ok(fresh)
    }

    /// Raw class scores (complete once [`Self::is_done`]).
    pub fn logits(&self) -> &[u64] {
        &self.logits
    }

    /// Predicted class (argmax of the logits).
    pub fn class(&self) -> usize {
        self.logits
            .iter()
            .enumerate()
            .max_by_key(|&(_, v)| *v)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Runs the next network stage.
    ///
    /// # Errors
    ///
    /// Transport and HE errors as [`crate::pipeline::run_encrypted`];
    /// [`choco::transport::TransportError::SentinelMismatch`] when the FC
    /// reply contradicts the client-computed class-0 logit.
    pub fn step<C: Channel>(
        &mut self,
        session: &mut Session<Bfv, C>,
    ) -> Result<(), TransportError> {
        let spec = self.spec;
        let p1 = spec.img / 2;
        match self.stage {
            0 => {
                let maps1 = run_encrypted_conv_layer(
                    session,
                    std::slice::from_ref(&self.image),
                    &self.weights.conv1,
                    spec.img,
                    spec.img,
                    spec.filter,
                )?;
                self.pooled1 = maps1
                    .iter()
                    .map(|m| max_pool2x2(&requantize(m), spec.img, spec.img))
                    .collect();
                self.stage = 1;
            }
            1 => {
                let maps2 = run_encrypted_conv_layer(
                    session,
                    &self.pooled1,
                    &self.weights.conv2,
                    p1,
                    p1,
                    spec.filter,
                )?;
                self.pooled2 = maps2
                    .iter()
                    .map(|m| max_pool2x2(&requantize(m), p1, p1))
                    .collect();
                self.stage = 2;
            }
            2 => {
                let row = session.server().context().degree() / 2;
                let t = session.server().context().plain_modulus();
                let mut features = Vec::with_capacity(spec.fc_inputs());
                for m in &self.pooled2 {
                    features.extend_from_slice(m);
                }
                // The sentinel: class 0's logit, computed exactly in
                // plaintext (mod t, u128 accumulation) from state the
                // client already holds.
                let expected0 =
                    self.weights.fc[0]
                        .iter()
                        .zip(&features)
                        .fold(0u64, |acc, (w, x)| {
                            ((acc as u128 + (*w as u128 * *x as u128) % t as u128) % t as u128)
                                as u64
                        });
                let ct = session
                    .client_mut()
                    .encrypt_slots(&replicate_for_matvec(&features, row))?;
                let uploaded = session.upload(&ct)?;
                let at_server = session.guard(&uploaded)?;
                session.compute_tick()?;
                let logits_ct = matvec_diagonals(session.server(), &at_server, &self.weights.fc)?;
                let (back, slots) = session.download_checked(&logits_ct, &[(0, expected0)], 0.0)?;
                self.final_wire = Bfv::ct_to_wire(&back);
                session.ledger_mut().end_round();
                self.logits = slots[..spec.classes].to_vec();
                self.stage = 3;
            }
            _ => {}
        }
        Ok(())
    }
}

impl ResumableWorkload for ResumablePipeline {
    fn progress(&self) -> Vec<u8> {
        let mut out = PIPELINE_MAGIC.to_vec();
        out.push(self.stage);
        if self.stage >= 1 {
            out.extend_from_slice(&(self.pooled1.len() as u32).to_le_bytes());
            for m in &self.pooled1 {
                put_u64s(&mut out, m);
            }
        }
        if self.stage >= 2 {
            out.extend_from_slice(&(self.pooled2.len() as u32).to_le_bytes());
            for m in &self.pooled2 {
                put_u64s(&mut out, m);
            }
        }
        if self.stage >= 3 {
            put_u64s(&mut out, &self.logits);
        }
        put_bytes(&mut out, &self.final_wire);
        out
    }

    fn is_done(&self) -> bool {
        self.stage >= 3
    }

    fn final_ct_wire(&self) -> &[u8] {
        &self.final_wire
    }
}

// ---------------------------------------------------------------------------
// K-Means
// ---------------------------------------------------------------------------

const KMEANS_MAGIC: &[u8; 4] = b"RKM1";

/// Round-granular resumable K-Means (CKKS): each step is one full
/// iteration — an encrypted distance round per centroid plus the client's
/// plaintext assignment/update — mirroring
/// [`crate::distance::kmeans_encrypted`].
#[derive(Debug, Clone)]
pub struct ResumableKmeans {
    variant: PackingVariant,
    points: Vec<Vec<f64>>,
    max_iterations: u32,
    tolerance: f64,
    centroids: Vec<Vec<f64>>,
    iterations: u32,
    converged: bool,
    finished: bool,
    final_wire: Vec<u8>,
}

impl ResumableKmeans {
    /// Starts a fresh clustering run.
    ///
    /// # Errors
    ///
    /// [`HeError::Mismatch`] (wrapped) for empty points or centroids.
    pub fn new(
        variant: PackingVariant,
        points: &[Vec<f64>],
        initial_centroids: &[Vec<f64>],
        max_iterations: u32,
        tolerance: f64,
    ) -> Result<Self, TransportError> {
        if points.is_empty() || initial_centroids.is_empty() {
            return Err(HeError::Mismatch(
                "k-means needs at least one point and one centroid".into(),
            )
            .into());
        }
        Ok(ResumableKmeans {
            variant,
            points: points.to_vec(),
            max_iterations,
            tolerance,
            centroids: initial_centroids.to_vec(),
            iterations: 0,
            converged: false,
            finished: max_iterations == 0,
            final_wire: Vec::new(),
        })
    }

    /// Rebuilds the driver from checkpointed progress.
    ///
    /// # Errors
    ///
    /// [`TransportError::BadCheckpoint`] on malformed or mismatched blobs.
    pub fn restore(
        variant: PackingVariant,
        points: &[Vec<f64>],
        initial_centroids: &[Vec<f64>],
        max_iterations: u32,
        tolerance: f64,
        progress: &[u8],
    ) -> Result<Self, TransportError> {
        let mut fresh = Self::new(
            variant,
            points,
            initial_centroids,
            max_iterations,
            tolerance,
        )?;
        let mut r = ProgressReader::new(progress, KMEANS_MAGIC)?;
        let iterations = r.u32()?;
        let converged = r.u8()?;
        let finished = r.u8()?;
        let k = r.u32()? as usize;
        if k != initial_centroids.len() {
            return Err(bad_progress("centroid count mismatch"));
        }
        let d = points[0].len();
        let mut centroids = Vec::with_capacity(k);
        for _ in 0..k {
            let c = r.f64s()?;
            if c.len() != d {
                return Err(bad_progress("centroid dimension mismatch"));
            }
            centroids.push(c);
        }
        let final_wire = r.bytes()?.to_vec();
        r.finish()?;
        if converged > 1 || finished > 1 {
            return Err(bad_progress("flag byte out of range"));
        }
        if iterations > max_iterations {
            return Err(bad_progress("iteration counter exceeds the budget"));
        }
        fresh.iterations = iterations;
        fresh.converged = converged == 1;
        fresh.finished = finished == 1;
        fresh.centroids = centroids;
        fresh.final_wire = final_wire;
        Ok(fresh)
    }

    /// Current centroids (final once [`Self::is_done`]).
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Whether the run converged within tolerance.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Runs one K-Means iteration.
    ///
    /// # Errors
    ///
    /// Transport and HE errors from the distance kernels.
    pub fn step<C: Channel>(
        &mut self,
        session: &mut Session<Ckks, C>,
    ) -> Result<(), TransportError> {
        if self.is_done() {
            return Ok(());
        }
        let mut dists = Vec::with_capacity(self.centroids.len());
        let mut last_wire = Vec::new();
        for c in &self.centroids {
            session.compute_tick()?;
            let res = encrypted_distances(self.variant, session, c, &self.points)?;
            last_wire = res.reply_wire;
            dists.push(res.distances);
        }
        self.final_wire = last_wire;
        self.iterations += 1;
        let updated = kmeans_update(&self.points, &dists);
        let movement = self
            .centroids
            .iter()
            .zip(&updated)
            .flat_map(|(a, b)| a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)))
            .fold(0.0f64, f64::max);
        self.centroids = updated;
        if movement < self.tolerance * self.tolerance {
            self.converged = true;
        }
        if self.converged || self.iterations >= self.max_iterations {
            self.finished = true;
        }
        Ok(())
    }
}

impl ResumableWorkload for ResumableKmeans {
    fn progress(&self) -> Vec<u8> {
        let mut out = KMEANS_MAGIC.to_vec();
        out.extend_from_slice(&self.iterations.to_le_bytes());
        out.push(self.converged as u8);
        out.push(self.finished as u8);
        out.extend_from_slice(&(self.centroids.len() as u32).to_le_bytes());
        for c in &self.centroids {
            put_f64s(&mut out, c);
        }
        put_bytes(&mut out, &self.final_wire);
        out
    }

    fn is_done(&self) -> bool {
        self.finished
    }

    fn final_ct_wire(&self) -> &[u8] {
        &self.final_wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::{pagerank_encrypted, pagerank_plain, pagerank_rotation_steps};
    use crate::pipeline::{run_plain, seeded_weights};
    use choco::transport::LinkConfig;
    use choco_he::params::HeParams;

    fn small_graph() -> Graph {
        Graph::from_adjacency(&[vec![1, 2], vec![2], vec![0], vec![0, 2]])
    }

    #[test]
    fn resumable_pagerank_matches_one_shot_runner_exactly() {
        let g = small_graph();
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 24).unwrap();
        let oneshot =
            pagerank_encrypted::<Bfv>(&g, 0.85, 4, 1, &params, 10, LinkConfig::direct()).unwrap();

        let steps = pagerank_rotation_steps(g.len());
        let mut session = Session::<Bfv>::direct(&params, b"pagerank", &steps).unwrap();
        let mut w = ResumablePagerank::<Bfv>::new(&g, 0.85, 4, 1, 10).unwrap();
        while !w.is_done() {
            w.step(&mut session).unwrap();
        }
        // Same seed, same draw schedule: bit-identical ranks and matching
        // primary ledger lines.
        assert_eq!(w.ranks(), &oneshot.ranks[..]);
        assert_eq!(session.ledger().upload_bytes, oneshot.ledger.upload_bytes);
        assert_eq!(session.ledger().rounds, oneshot.ledger.rounds);
        assert!(!w.final_ct_wire().is_empty());
    }

    #[test]
    fn resumable_pipeline_matches_plain_twin_and_checks_sentinel() {
        let spec = LenetLikeSpec::tiny();
        let weights = seeded_weights(&spec, b"pipeline test");
        let image: Vec<u64> = (0..spec.img * spec.img)
            .map(|i| ((i * 7 + 3) % 16) as u64)
            .collect();
        let params = HeParams::bfv_insecure(1024, &[45, 45, 46], 18).unwrap();
        let steps = crate::pipeline::all_rotation_steps(&spec, params.degree() / 2);
        let mut session = Session::<Bfv>::direct(&params, b"pipe", &steps).unwrap();
        let mut w = ResumablePipeline::new(&spec, &weights, &image).unwrap();
        while !w.is_done() {
            w.step(&mut session).unwrap();
        }
        let t = session.server().context().plain_modulus();
        let (logits, class) = run_plain(&spec, &weights, &image, t);
        assert_eq!(w.logits(), &logits[..]);
        assert_eq!(w.class(), class);
    }

    #[test]
    fn progress_blobs_roundtrip_and_reject_garbage() {
        let g = small_graph();
        let mut w = ResumablePagerank::<Bfv>::new(&g, 0.85, 4, 1, 10).unwrap();
        w.done = 2;
        w.ranks = vec![0.4, 0.3, 0.2, 0.1];
        w.final_wire = vec![7; 33];
        let blob = w.progress();
        let back = ResumablePagerank::<Bfv>::restore(&g, 0.85, 4, 1, 10, &blob).unwrap();
        assert_eq!(back.progress(), blob);

        // Truncations and a wrong magic are typed errors, never panics.
        for cut in 0..blob.len() {
            let err = ResumablePagerank::<Bfv>::restore(&g, 0.85, 4, 1, 10, &blob[..cut]);
            assert!(matches!(err, Err(TransportError::BadCheckpoint(_))));
        }
        let err = ResumablePagerank::<Bfv>::restore(&g, 0.85, 4, 1, 10, KMEANS_MAGIC);
        assert!(matches!(err, Err(TransportError::BadCheckpoint(_))));
        // A rank vector that doesn't match the graph is rejected.
        let other = Graph::from_adjacency(&[vec![1], vec![0]]);
        let err = ResumablePagerank::<Bfv>::restore(&other, 0.85, 4, 1, 10, &blob);
        assert!(matches!(err, Err(TransportError::BadCheckpoint(_))));
    }

    #[test]
    fn plain_reference_still_converges() {
        // Anchor: the resumable driver's answer is compared against the
        // one-shot runner above; that runner is itself anchored here.
        let g = small_graph();
        let r = pagerank_plain(&g, 0.85, 50);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
