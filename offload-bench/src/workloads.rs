//! The three workloads. Each is a set of load generators, one per load
//! thread; a generator owns its connections and runs one op at a time
//! (closed loop: a client-aided client cannot send its next request before
//! it has decrypted the last reply).

use crate::lane::{
    encrypt_all, err, reference, seeded_request, wires, Conn, Lane, Prog, Request, Res, SetupTimes,
    Wires,
};
use crate::micro::{he_ops, HeOps};
use crate::trace::{OpScope, OpTiming, Recorder};
use choco::compiler::{CompilerScheme, ExecCache};
use choco::CommLedger;
use choco_apps::circuits::{all_workloads, WorkloadCircuit};
use choco_apps::client_ops::requantize;
use choco_apps::remote::workload_params;
use choco_he::params::{HeParams, SchemeType};
use choco_he::{Bfv, Ckks, HeScheme};
use choco_prng::Blake3Rng;
use choco_serve::cache::EvalScheme;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Reference output wires, keyed by request label.
pub type Refs = Arc<BTreeMap<String, Wires>>;

/// Requests kept per program: ops cycle through this pool.
pub const POOL: usize = 8;

/// Replays per program when measuring the in-process evaluation floor.
const REPLAYS: usize = 7;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    RttMix,
    TenantBatch,
    ClientAided,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::RttMix, Kind::TenantBatch, Kind::ClientAided];

    pub fn name(self) -> &'static str {
        match self {
            Kind::RttMix => "rtt_mix",
            Kind::TenantBatch => "tenant_batch",
            Kind::ClientAided => "client_aided",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Tenants this workload's connections authenticate as.
    pub fn tenants(self) -> Vec<u64> {
        match self {
            Kind::TenantBatch => vec![1, 2],
            Kind::RttMix | Kind::ClientAided => vec![1],
        }
    }
}

/// One finished op.
pub struct OpResult {
    pub timing: OpTiming,
    /// Per evaluate call, in call order: the generator's program slot and
    /// how many requests the call carried.
    pub evals: Vec<(usize, usize)>,
    /// Whether every output matched its reference bit for bit.
    pub ok: bool,
}

pub trait Generator: Send {
    /// Runs op `k`: encrypts, evaluates remotely, decrypts, then checks
    /// every output against its reference.
    fn op(&mut self, rec: &mut Recorder, k: u64) -> Res<OpResult>;
    /// The set-up's first, cold evaluation of every program, timed into
    /// `times`; returns the outputs by request label.
    fn cold(&mut self, times: &mut SetupTimes) -> Res<Vec<(String, Wires)>>;
    /// Every pooled request's reference outputs, computed in-process.
    fn references(&self) -> Res<BTreeMap<String, Wires>>;
    fn set_refs(&mut self, refs: Refs);
    /// `(tenant, ledger)` per connection.
    fn ledgers(&self) -> Vec<(u64, CommLedger)>;
    /// Program per slot, with the parameters it runs under.
    fn slots(&self) -> Vec<(&HeParams, &Prog)>;
    /// The in-process evaluation floor per slot, in milliseconds, for the
    /// request shape an op's evaluate call carries.
    fn replay(&self) -> Res<Vec<f64>>;
    fn he_ops(&self) -> Res<HeOps>;
    /// Lowest noise budget, in bits, over the BFV reference outputs.
    fn output_budget(&self) -> Res<Option<f64>>;
}

fn check(refs: &Refs, label: &str, got: Wires) -> bool {
    refs.get(label) == Some(&got)
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

fn circuit(name: &str) -> Res<WorkloadCircuit> {
    all_workloads()
        .into_iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("no {name} circuit"))
}

/// An evaluation's output ciphertexts and their decryptions.
type Outputs<S> = (
    Vec<<S as HeScheme>::Ciphertext>,
    Vec<Vec<<S as HeScheme>::Value>>,
);

/// Encrypts, evaluates and decrypts one request on `lane`.
fn eval_op<S: CompilerScheme>(
    rec: &mut Recorder,
    op: &mut OpScope,
    lane: &mut Lane<S>,
    p: usize,
    seed: &[u8],
    req: &Request<S::Value>,
) -> Res<Outputs<S>> {
    let cts = lane.encrypt(rec, op, seed, req)?;
    let prog = lane.progs.get(p).ok_or("program index out of range")?;
    let named: Vec<(&str, &S::Ciphertext)> =
        prog.inputs.iter().map(String::as_str).zip(&cts).collect();
    let client = &mut lane.client;
    let out = rec
        .call(op, "remote.evaluate", || {
            client.evaluate(&prog.prepared, &named)
        })
        .map_err(err("evaluate"))?;
    let plain = lane.decrypt(rec, op, &out)?;
    Ok((out, plain))
}

/// Reference outputs of every request in `pool` (indexed program, set).
fn pool_refs<S: CompilerScheme>(
    lane: &Lane<S>,
    seed: &[u8],
    pool: &[Vec<Request<S::Value>>],
    out: &mut BTreeMap<String, Wires>,
) -> Res<()> {
    for (prog, reqs) in lane.progs.iter().zip(pool) {
        for req in reqs {
            let cts = encrypt_all(&lane.k, seed, req)?;
            out.insert(
                req.label.clone(),
                wires::<S>(&reference(&lane.k, prog, &cts)?),
            );
        }
    }
    Ok(())
}

/// The fastest of [`REPLAYS`] in-process runs of program `p` on batches of
/// `batch` pooled requests, after one warm-up run fills the operand cache.
/// The fastest, not the median: a floor must not rise with whatever else
/// shares the host while it is measured.
fn replay_ms<S: EvalScheme + Sync>(
    lane: &Lane<S>,
    seed: &[u8],
    p: usize,
    reqs: &[Request<S::Value>],
    batch: usize,
) -> Res<f64> {
    let cache = ExecCache::<S>::unbounded();
    let sets: Vec<Vec<S::Ciphertext>> = reqs
        .iter()
        .map(|r| encrypt_all(&lane.k, seed, r))
        .collect::<Res<_>>()?;
    let pick = |r: usize| -> Vec<Vec<S::Ciphertext>> {
        (0..batch)
            .map(|i| sets[(r * batch + i) % sets.len()].clone())
            .collect()
    };
    lane.replay(p, &pick(0), &cache)?;
    let mut floor = f64::INFINITY;
    for r in 0..REPLAYS {
        floor = floor.min(lane.replay(p, &pick(r), &cache)?.as_secs_f64() * 1e3);
    }
    Ok(floor)
}

fn min_bfv_budget(lane: &Lane<Bfv>, refs: &Refs, prefix: &str) -> Res<Option<f64>> {
    let mut min: Option<f64> = None;
    for (_, outs) in refs
        .range(prefix.to_string()..)
        .take_while(|(l, _)| l.starts_with(prefix))
    {
        for w in outs {
            let ct = Bfv::ct_from_wire(w).map_err(err("reference wire"))?;
            let bits = Bfv::health(&lane.k.ctx, &lane.k.keys, &ct);
            min = Some(min.map_or(bits, |m: f64| m.min(bits)));
        }
    }
    Ok(min)
}

fn seeded_pool<S: CompilerScheme>(
    lane: &Lane<S>,
    seed: &[u8],
    label: &str,
) -> Vec<Vec<Request<S::Value>>> {
    lane.progs
        .iter()
        .map(|prog| {
            (0..POOL)
                .map(|s| {
                    seeded_request::<S>(
                        &lane.k.ctx,
                        prog,
                        seed,
                        format!("{label}/{}/{s}", prog.name),
                    )
                })
                .collect()
        })
        .collect()
}

/// Cold-evaluates set 0 of every program in `pool`.
fn cold_pool<S: CompilerScheme>(
    lane: &mut Lane<S>,
    seed: &[u8],
    pool: &[Vec<Request<S::Value>>],
    times: &mut SetupTimes,
    out: &mut Vec<(String, Wires)>,
) -> Res<()> {
    for (p, reqs) in pool.iter().enumerate() {
        let req = reqs.first().ok_or("empty pool")?;
        let cts = encrypt_all(&lane.k, seed, req)?;
        let outs = lane.cold_evaluate(p, &cts, times)?;
        out.push((req.label.clone(), wires::<S>(&outs)));
    }
    Ok(())
}

/// The secret a tenant authenticates its frames with.
pub fn auth_seed(tenant: u64) -> Vec<u8> {
    format!("offload-bench tenant {tenant}").into_bytes()
}

/// Opens the workload's connections (timed into `times`) and returns its
/// generators. Every connection has its own `(tenant, session)` pair.
pub fn setup(
    kind: Kind,
    addr: &str,
    seed: &[u8],
    times: &mut SetupTimes,
) -> Res<Vec<Box<dyn Generator>>> {
    let auth: Vec<Vec<u8>> = (0..=2).map(auth_seed).collect();
    let conn = |tenant: u64, session: u64| Conn {
        addr,
        auth_seed: &auth[tenant as usize],
        tenant,
        session,
    };
    let circuits = all_workloads();
    let all: Vec<&WorkloadCircuit> = circuits.iter().collect();
    let progs = || circuits.iter().map(Prog::new).collect::<Res<Vec<_>>>();
    match kind {
        Kind::RttMix => {
            let steps = union_steps(&all);
            let bfv_params = workload_params(SchemeType::Bfv).map_err(err("params"))?;
            let ckks_params = workload_params(SchemeType::Ckks).map_err(err("params"))?;
            let bfv = Lane::<Bfv>::open(
                &bfv_params,
                &steps,
                progs()?,
                seed,
                "rtt/bfv",
                conn(1, 1),
                times,
            )?;
            let ckks = Lane::<Ckks>::open(
                &ckks_params,
                &steps,
                progs()?,
                seed,
                "rtt/ckks",
                conn(1, 2),
                times,
            )?;
            let bfv_pool = seeded_pool(&bfv, seed, "rtt/bfv");
            let ckks_pool = seeded_pool(&ckks, seed, "rtt/ckks");
            Ok(vec![Box::new(RttMix {
                seed: seed.to_vec(),
                bfv,
                ckks,
                bfv_pool,
                ckks_pool,
                refs: Refs::default(),
            })])
        }
        Kind::TenantBatch => {
            let steps = union_steps(&all);
            let params = workload_params(SchemeType::Bfv).map_err(err("params"))?;
            let mut generators: Vec<Box<dyn Generator>> = Vec::new();
            for t in 0..2u64 {
                let label = format!("batch/t{t}");
                let lane = Lane::<Bfv>::open(
                    &params,
                    &steps,
                    progs()?,
                    seed,
                    &label,
                    conn(t + 1, 1),
                    times,
                )?;
                let pool = seeded_pool(&lane, seed, &label);
                generators.push(Box::new(TenantBatch {
                    seed: seed.to_vec(),
                    label,
                    lane,
                    pool,
                    offset: 2 * t,
                    refs: Refs::default(),
                }));
            }
            Ok(generators)
        }
        Kind::ClientAided => {
            let conv = circuit("dnn_conv")?;
            let fc = circuit("pipeline")?;
            let steps = union_steps(&[&conv, &fc]);
            let lane = Lane::<Bfv>::open(
                &HeParams::set_a(),
                &steps,
                vec![Prog::new(&conv)?, Prog::new(&fc)?],
                seed,
                "aided",
                conn(1, 1),
                times,
            )?;
            let width = Bfv::slot_width(&lane.k.ctx);
            let images = (0..POOL)
                .map(|s| {
                    let label = format!("aided/conv/{s}");
                    let mut rng = Blake3Rng::from_seed_labeled(seed, &format!("{label}/values"));
                    let pixels = (0..width).map(|_| rng.next_below(16)).collect();
                    Request {
                        values: vec![pixels],
                        label,
                    }
                })
                .collect();
            Ok(vec![Box::new(ClientAided {
                seed: seed.to_vec(),
                lane,
                images,
                refs: Refs::default(),
            })])
        }
    }
}

/// `rtt_mix`: one request in flight, cycling the four circuits under BFV
/// and CKKS on one connection per scheme.
struct RttMix {
    seed: Vec<u8>,
    bfv: Lane<Bfv>,
    ckks: Lane<Ckks>,
    bfv_pool: Vec<Vec<Request<u64>>>,
    ckks_pool: Vec<Vec<Request<f64>>>,
    refs: Refs,
}

impl Generator for RttMix {
    fn op(&mut self, rec: &mut Recorder, k: u64) -> Res<OpResult> {
        let slot = (k % 8) as usize;
        let (p, set) = (slot / 2, (k / 8) as usize % POOL);
        let mut op = rec.begin(k);
        let (label, got) = if slot.is_multiple_of(2) {
            let req = &self.bfv_pool[p][set];
            let (out, plain) = eval_op(rec, &mut op, &mut self.bfv, p, &self.seed, req)?;
            black_box(plain);
            (&req.label, wires::<Bfv>(&out))
        } else {
            let req = &self.ckks_pool[p][set];
            let (out, plain) = eval_op(rec, &mut op, &mut self.ckks, p, &self.seed, req)?;
            black_box(plain);
            (&req.label, wires::<Ckks>(&out))
        };
        let timing = rec.end(op);
        Ok(OpResult {
            timing,
            evals: vec![(slot, 1)],
            ok: check(&self.refs, label, got),
        })
    }

    fn cold(&mut self, times: &mut SetupTimes) -> Res<Vec<(String, Wires)>> {
        let mut out = Vec::new();
        cold_pool(&mut self.bfv, &self.seed, &self.bfv_pool, times, &mut out)?;
        cold_pool(&mut self.ckks, &self.seed, &self.ckks_pool, times, &mut out)?;
        Ok(out)
    }

    fn references(&self) -> Res<BTreeMap<String, Wires>> {
        let mut out = BTreeMap::new();
        pool_refs(&self.bfv, &self.seed, &self.bfv_pool, &mut out)?;
        pool_refs(&self.ckks, &self.seed, &self.ckks_pool, &mut out)?;
        Ok(out)
    }

    fn set_refs(&mut self, refs: Refs) {
        self.refs = refs;
    }

    fn ledgers(&self) -> Vec<(u64, CommLedger)> {
        vec![
            (self.bfv.tenant, self.bfv.ledger()),
            (self.ckks.tenant, self.ckks.ledger()),
        ]
    }

    fn slots(&self) -> Vec<(&HeParams, &Prog)> {
        self.bfv
            .progs
            .iter()
            .zip(&self.ckks.progs)
            .flat_map(|(b, c)| [(&self.bfv.k.params, b), (&self.ckks.k.params, c)])
            .collect()
    }

    fn replay(&self) -> Res<Vec<f64>> {
        let mut ms = Vec::new();
        for p in 0..self.bfv.progs.len() {
            ms.push(replay_ms(&self.bfv, &self.seed, p, &self.bfv_pool[p], 1)?);
            ms.push(replay_ms(&self.ckks, &self.seed, p, &self.ckks_pool[p], 1)?);
        }
        Ok(ms)
    }

    fn he_ops(&self) -> Res<HeOps> {
        Ok(HeOps::mean(
            &he_ops(&self.bfv.k, &self.seed)?,
            &he_ops(&self.ckks.k, &self.seed)?,
        ))
    }

    fn output_budget(&self) -> Res<Option<f64>> {
        min_bfv_budget(&self.bfv, &self.refs, "rtt/bfv/")
    }
}

/// `tenant_batch`: one tenant per generator, each looping pipelined batches
/// of four requests and cycling the circuits; the second tenant starts
/// two circuits ahead, so two program groups meet in the scheduler.
struct TenantBatch {
    seed: Vec<u8>,
    /// This tenant's request-label prefix.
    label: String,
    lane: Lane<Bfv>,
    pool: Vec<Vec<Request<u64>>>,
    offset: u64,
    refs: Refs,
}

/// Requests per pipelined batch.
const BATCH: usize = 4;

impl Generator for TenantBatch {
    fn op(&mut self, rec: &mut Recorder, k: u64) -> Res<OpResult> {
        let p = ((k + self.offset) % self.pool.len() as u64) as usize;
        let reqs: Vec<&Request<u64>> = (0..BATCH)
            .map(|i| &self.pool[p][(BATCH * k as usize + i) % POOL])
            .collect();
        let mut op = rec.begin(k);
        let mut cts = Vec::with_capacity(BATCH);
        for req in &reqs {
            cts.push(self.lane.encrypt(rec, &mut op, &self.seed, req)?);
        }
        let prog = &self.lane.progs[p];
        let named: Vec<Vec<(&str, &choco_he::bfv::Ciphertext)>> = cts
            .iter()
            .map(|c| prog.inputs.iter().map(String::as_str).zip(c).collect())
            .collect();
        let batch: Vec<&[(&str, &choco_he::bfv::Ciphertext)]> =
            named.iter().map(Vec::as_slice).collect();
        let client = &mut self.lane.client;
        let outs = rec
            .call(&mut op, "remote.evaluate_batch", || {
                client.evaluate_batch(&prog.prepared, &batch)
            })
            .map_err(err("evaluate_batch"))?;
        for out in &outs {
            black_box(self.lane.decrypt(rec, &mut op, out)?);
        }
        let timing = rec.end(op);
        let ok = outs.len() == BATCH
            && reqs
                .iter()
                .zip(&outs)
                .all(|(req, out)| check(&self.refs, &req.label, wires::<Bfv>(out)));
        Ok(OpResult {
            timing,
            evals: vec![(p, BATCH)],
            ok,
        })
    }

    fn cold(&mut self, times: &mut SetupTimes) -> Res<Vec<(String, Wires)>> {
        let mut out = Vec::new();
        cold_pool(&mut self.lane, &self.seed, &self.pool, times, &mut out)?;
        Ok(out)
    }

    fn references(&self) -> Res<BTreeMap<String, Wires>> {
        let mut out = BTreeMap::new();
        pool_refs(&self.lane, &self.seed, &self.pool, &mut out)?;
        Ok(out)
    }

    fn set_refs(&mut self, refs: Refs) {
        self.refs = refs;
    }

    fn ledgers(&self) -> Vec<(u64, CommLedger)> {
        vec![(self.lane.tenant, self.lane.ledger())]
    }

    fn slots(&self) -> Vec<(&HeParams, &Prog)> {
        self.lane
            .progs
            .iter()
            .map(|p| (&self.lane.k.params, p))
            .collect()
    }

    fn replay(&self) -> Res<Vec<f64>> {
        (0..self.pool.len())
            .map(|p| replay_ms(&self.lane, &self.seed, p, &self.pool[p], BATCH))
            .collect()
    }

    fn he_ops(&self) -> Res<HeOps> {
        he_ops(&self.lane.k, &self.seed)
    }

    fn output_budget(&self) -> Res<Option<f64>> {
        // Only this tenant's outputs: the other's decrypt under another key.
        min_bfv_budget(&self.lane, &self.refs, &format!("{}/", self.label))
    }
}

/// `client_aided`: a LeNet-style inference at paper set A with the
/// client's non-linear step between the layers: conv, decrypt,
/// requantize, re-encrypt, fully connected, decrypt.
struct ClientAided {
    seed: Vec<u8>,
    lane: Lane<Bfv>,
    images: Vec<Request<u64>>,
    refs: Refs,
}

const CONV: usize = 0;
const FC: usize = 1;

/// The fully connected layer's request: the client's requantized view of
/// the conv layer's first slot row.
fn fc_request(conv_plain: &[u64], width: usize, set: usize) -> Request<u64> {
    Request {
        values: vec![requantize(&conv_plain[..width.min(conv_plain.len())])],
        label: format!("aided/fc/{set}"),
    }
}

impl ClientAided {
    fn width(&self) -> usize {
        Bfv::slot_width(&self.lane.k.ctx)
    }

    /// The chain run in-process: conv, requantize, seeded re-encrypt, FC.
    fn local_chain(&self, set: usize) -> Res<(Wires, Request<u64>, Wires)> {
        let k = &self.lane.k;
        let cts = encrypt_all(&self.lane.k, &self.seed, &self.images[set])?;
        let conv = reference(k, &self.lane.progs[CONV], &cts)?;
        let first = conv.first().ok_or("conv has no output")?;
        let plain = Bfv::decrypt(&k.ctx, &k.keys, first).map_err(err("decrypt"))?;
        let req = fc_request(&plain, self.width(), set);
        let cts = encrypt_all(&self.lane.k, &self.seed, &req)?;
        let fc = reference(k, &self.lane.progs[FC], &cts)?;
        Ok((wires::<Bfv>(&conv), req, wires::<Bfv>(&fc)))
    }
}

impl Generator for ClientAided {
    fn op(&mut self, rec: &mut Recorder, k: u64) -> Res<OpResult> {
        let set = k as usize % POOL;
        let width = self.width();
        let mut op = rec.begin(k);
        let (conv, plain) = eval_op(
            rec,
            &mut op,
            &mut self.lane,
            CONV,
            &self.seed,
            &self.images[set],
        )?;
        let first = plain.first().ok_or("conv has no output")?;
        let req = rec.call(&mut op, "client.requantize", || {
            fc_request(first, width, set)
        });
        let (fc, plain) = eval_op(rec, &mut op, &mut self.lane, FC, &self.seed, &req)?;
        black_box(plain);
        let timing = rec.end(op);
        let ok = check(&self.refs, &self.images[set].label, wires::<Bfv>(&conv))
            && check(&self.refs, &req.label, wires::<Bfv>(&fc));
        Ok(OpResult {
            timing,
            evals: vec![(CONV, 1), (FC, 1)],
            ok,
        })
    }

    fn cold(&mut self, times: &mut SetupTimes) -> Res<Vec<(String, Wires)>> {
        let cts = encrypt_all(&self.lane.k, &self.seed, &self.images[0])?;
        let conv = self.lane.cold_evaluate(CONV, &cts, times)?;
        let first = conv.first().ok_or("conv has no output")?;
        let plain =
            Bfv::decrypt(&self.lane.k.ctx, &self.lane.k.keys, first).map_err(err("decrypt"))?;
        let req = fc_request(&plain, self.width(), 0);
        let cts = encrypt_all(&self.lane.k, &self.seed, &req)?;
        let fc = self.lane.cold_evaluate(FC, &cts, times)?;
        Ok(vec![
            (self.images[0].label.clone(), wires::<Bfv>(&conv)),
            (req.label, wires::<Bfv>(&fc)),
        ])
    }

    fn references(&self) -> Res<BTreeMap<String, Wires>> {
        let mut out = BTreeMap::new();
        for set in 0..POOL {
            let (conv, req, fc) = self.local_chain(set)?;
            out.insert(self.images[set].label.clone(), conv);
            out.insert(req.label, fc);
        }
        Ok(out)
    }

    fn set_refs(&mut self, refs: Refs) {
        self.refs = refs;
    }

    fn ledgers(&self) -> Vec<(u64, CommLedger)> {
        vec![(self.lane.tenant, self.lane.ledger())]
    }

    fn slots(&self) -> Vec<(&HeParams, &Prog)> {
        self.lane
            .progs
            .iter()
            .map(|p| (&self.lane.k.params, p))
            .collect()
    }

    fn replay(&self) -> Res<Vec<f64>> {
        let fc_reqs = (0..REPLAYS.min(POOL))
            .map(|set| self.local_chain(set).map(|(_, req, _)| req))
            .collect::<Res<Vec<_>>>()?;
        Ok(vec![
            replay_ms(&self.lane, &self.seed, CONV, &self.images, 1)?,
            replay_ms(&self.lane, &self.seed, FC, &fc_reqs, 1)?,
        ])
    }

    fn he_ops(&self) -> Res<HeOps> {
        he_ops(&self.lane.k, &self.seed)
    }

    fn output_budget(&self) -> Res<Option<f64>> {
        min_bfv_budget(&self.lane, &self.refs, "aided/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::Keys;

    /// A pooled request's encrypted inputs and its reference outputs, as
    /// wire bytes, for `circuit` under scheme `S`.
    fn inputs_and_reference<S: CompilerScheme>(
        scheme: SchemeType,
        name: &str,
        seed: &[u8],
    ) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let c = circuit(name).unwrap();
        let prog = Prog::new(&c).unwrap();
        let keys = Keys::<S>::generate(
            &workload_params(scheme).unwrap(),
            &c.galois_steps,
            seed,
            "t",
        )
        .unwrap();
        let req = seeded_request::<S>(&keys.ctx, &prog, seed, format!("t/{name}/0"));
        let cts = encrypt_all(&keys, seed, &req).unwrap();
        let out = reference(&keys, &prog, &cts).unwrap();
        (wires::<S>(&cts), wires::<S>(&out))
    }

    #[test]
    fn same_seed_same_inputs_and_references_other_seed_different() {
        for (a, b, c) in [
            (
                inputs_and_reference::<Bfv>(SchemeType::Bfv, "pagerank", b"seed 1"),
                inputs_and_reference::<Bfv>(SchemeType::Bfv, "pagerank", b"seed 1"),
                inputs_and_reference::<Bfv>(SchemeType::Bfv, "pagerank", b"seed 2"),
            ),
            (
                inputs_and_reference::<Ckks>(SchemeType::Ckks, "distance", b"seed 1"),
                inputs_and_reference::<Ckks>(SchemeType::Ckks, "distance", b"seed 1"),
                inputs_and_reference::<Ckks>(SchemeType::Ckks, "distance", b"seed 2"),
            ),
        ] {
            assert_eq!(a, b);
            assert_ne!(a.0, c.0, "inputs must depend on the seed");
            assert_ne!(a.1, c.1, "references must depend on the seed");
        }
    }

    #[test]
    fn fc_request_requantizes_the_first_row() {
        let plain: Vec<u64> = (0..8).map(|i| i * 1000).collect();
        let req = fc_request(&plain, 4, 3);
        assert_eq!(req.values, vec![requantize(&plain[..4])]);
        assert_eq!(req.label, "aided/fc/3");
    }
}
