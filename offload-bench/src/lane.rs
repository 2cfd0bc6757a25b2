//! One client connection: its keys, its programs, its remote session, and
//! the seeded requests it sends.
//!
//! Everything a lane does through a layer goes through that layer's public
//! API: keys and ciphertexts through `HeScheme`, programs through
//! `choco::compiler` and `PreparedProgram`, evaluation through
//! `RemoteEvaluator`.

use crate::trace::{OpScope, Recorder};
use choco::compiler::{compile, CompiledProgram, CompilerScheme, ExecCache, Op};
use choco::remote::{PreparedProgram, RemoteEvaluator};
use choco::transport::tcp::TcpOptions;
use choco::CommLedger;
use choco_apps::circuits::WorkloadCircuit;
use choco_apps::remote::workload_options;
use choco_he::params::HeParams;
use choco_prng::Blake3Rng;
use choco_serve::cache::EvalScheme;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A boxed error message; every failure the benchmark meets is reported,
/// never unwrapped.
pub type Res<T> = Result<T, String>;

pub fn err<E: std::fmt::Display>(context: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// A workload program: its wire form for the server and its compiled twin
/// for the local reference.
pub struct Prog {
    pub name: &'static str,
    pub prepared: PreparedProgram,
    pub compiled: CompiledProgram,
    /// Declared input names, in declaration order.
    pub inputs: Vec<String>,
}

impl Prog {
    pub fn new(circuit: &WorkloadCircuit) -> Res<Self> {
        let options = workload_options();
        let prepared =
            PreparedProgram::new(&circuit.program, &options).map_err(err(circuit.name))?;
        let compiled = compile(&circuit.program, &options).map_err(err(circuit.name))?;
        let inputs = circuit
            .program
            .ops()
            .iter()
            .filter_map(|op| match op {
                Op::Input(name) => Some(name.clone()),
                _ => None,
            })
            .collect();
        Ok(Prog {
            name: circuit.name,
            prepared,
            compiled,
            inputs,
        })
    }
}

/// The client's key material for one connection.
pub struct Keys<S: CompilerScheme> {
    pub params: HeParams,
    pub ctx: S::Context,
    pub keys: S::KeyBundle,
    pub relin: S::RelinKey,
    pub galois: S::GaloisKeys,
}

impl<S: CompilerScheme> Keys<S> {
    /// Context, secret key, relinearization key and Galois keys over
    /// `steps`, all drawn from `seed` under `label`.
    pub fn generate(params: &HeParams, steps: &[i64], seed: &[u8], label: &str) -> Res<Self> {
        let ctx = S::context(params).map_err(err("context"))?;
        let mut rng = Blake3Rng::from_seed_labeled(seed, &format!("{label}/keys"));
        let keys = S::keygen(&ctx, &mut rng);
        let relin = S::relin_key(&ctx, &keys, &mut rng).map_err(err("relin key"))?;
        let galois = S::galois_keys(&ctx, &keys, steps, &mut rng).map_err(err("galois keys"))?;
        Ok(Keys {
            params: params.clone(),
            ctx,
            keys,
            relin,
            galois,
        })
    }
}

/// One request's plaintext inputs and the label its encryption randomness
/// is drawn under, so every encryption of it gives the same ciphertexts.
#[derive(Clone, Debug, PartialEq)]
pub struct Request<V> {
    pub values: Vec<Vec<V>>,
    pub label: String,
}

/// Seeded inputs for `prog`: one vector of `width` reals per declared
/// input, quantized the way the compiler quantizes constants.
pub fn seeded_request<S: CompilerScheme>(
    ctx: &S::Context,
    prog: &Prog,
    seed: &[u8],
    label: String,
) -> Request<S::Value> {
    let width = S::slot_width(ctx);
    let mut rng = Blake3Rng::from_seed_labeled(seed, &format!("{label}/values"));
    let values = prog
        .inputs
        .iter()
        .map(|_| {
            let reals: Vec<f64> = (0..width)
                .map(|_| (rng.next_below(13) as f64 - 6.0) / 8.0)
                .collect();
            S::quantize_const(ctx, &reals, prog.compiled.options.scale_bits)
        })
        .collect();
    Request { values, label }
}

/// The randomness `req` is encrypted with, drawn from its label, so every
/// encryption of it gives the same ciphertexts.
pub fn encryption_rng<V>(seed: &[u8], req: &Request<V>) -> Blake3Rng {
    Blake3Rng::from_seed_labeled(seed, &format!("{}/enc", req.label))
}

/// A request's ciphertexts, outside any op.
pub fn encrypt_all<S: CompilerScheme>(
    k: &Keys<S>,
    seed: &[u8],
    req: &Request<S::Value>,
) -> Res<Vec<S::Ciphertext>> {
    let mut rng = encryption_rng(seed, req);
    req.values
        .iter()
        .map(|v| S::encrypt(&k.ctx, &k.keys, v, &mut rng).map_err(err("encrypt")))
        .collect()
}

/// The local reference: `prog` executed in-process on `cts`.
pub fn reference<S: CompilerScheme>(
    k: &Keys<S>,
    prog: &Prog,
    cts: &[S::Ciphertext],
) -> Res<Vec<S::Ciphertext>> {
    let named: HashMap<String, S::Ciphertext> = prog
        .inputs
        .iter()
        .cloned()
        .zip(cts.iter().cloned())
        .collect();
    let compiled = &prog.compiled;
    compiled
        .execute_encrypted::<S>(&k.ctx, &named, &k.relin, &k.galois)
        .map_err(err("local execute"))
}

/// Ciphertexts in their wire form, the form outputs are compared in.
pub type Wires = Vec<Vec<u8>>;

pub fn wires<S: CompilerScheme>(cts: &[S::Ciphertext]) -> Wires {
    cts.iter().map(|ct| S::ct_to_wire(ct)).collect()
}

/// A connected lane.
pub struct Lane<S: CompilerScheme> {
    pub k: Keys<S>,
    pub client: RemoteEvaluator<S>,
    pub tenant: u64,
    pub progs: Vec<Prog>,
}

/// Where one lane's set-up time went.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub keygen: Duration,
    pub connect: Duration,
    pub cold_evaluate: Duration,
    /// Key upload (the `SessionSetup` payload).
    pub key_bytes: u64,
    /// Program bodies attached to first-use requests.
    pub body_bytes: u64,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.keygen + self.connect + self.cold_evaluate
    }
}

/// Identity of one connection to the server.
#[derive(Clone, Copy, Debug)]
pub struct Conn<'a> {
    pub addr: &'a str,
    pub auth_seed: &'a [u8],
    pub tenant: u64,
    pub session: u64,
}

impl<S: CompilerScheme> Lane<S> {
    /// Generates keys over `steps` and connects (both timed into `times`).
    pub fn open(
        params: &HeParams,
        steps: &[i64],
        progs: Vec<Prog>,
        seed: &[u8],
        label: &str,
        conn: Conn<'_>,
        times: &mut SetupTimes,
    ) -> Res<Self> {
        let t0 = Instant::now();
        let k = Keys::<S>::generate(params, steps, seed, label)?;
        times.keygen += t0.elapsed();
        let t0 = Instant::now();
        let client = RemoteEvaluator::<S>::connect(
            conn.addr,
            conn.auth_seed,
            conn.tenant,
            conn.session,
            &k.params,
            &k.relin,
            &k.galois,
            &TcpOptions::default(),
        )
        .map_err(err("connect"))?;
        times.connect += t0.elapsed();
        times.key_bytes += client.ledger().upload_bytes;
        Ok(Lane {
            k,
            client,
            tenant: conn.tenant,
            progs,
        })
    }

    /// The first, cold evaluation of program `p` on `cts` (body upload and
    /// server compile), timed into `times`.
    pub fn cold_evaluate(
        &mut self,
        p: usize,
        cts: &[S::Ciphertext],
        times: &mut SetupTimes,
    ) -> Res<Vec<S::Ciphertext>> {
        let prog = self.progs.get(p).ok_or("program index out of range")?;
        let named: Vec<(&str, &S::Ciphertext)> =
            prog.inputs.iter().map(String::as_str).zip(cts).collect();
        let t0 = Instant::now();
        let out = self
            .client
            .evaluate(&prog.prepared, &named)
            .map_err(err("cold evaluate"))?;
        times.cold_evaluate += t0.elapsed();
        times.body_bytes += body_bytes(prog);
        Ok(out)
    }

    pub fn ledger(&self) -> CommLedger {
        *self.client.ledger()
    }

    /// One op's encrypt calls, each timed as `client.encrypt`; the
    /// ciphertexts equal [`encrypt_all`]'s.
    pub fn encrypt(
        &self,
        rec: &mut Recorder,
        op: &mut OpScope,
        seed: &[u8],
        req: &Request<S::Value>,
    ) -> Res<Vec<S::Ciphertext>> {
        let mut rng = encryption_rng(seed, req);
        req.values
            .iter()
            .map(|v| {
                rec.call(op, "client.encrypt", || {
                    S::encrypt(&self.k.ctx, &self.k.keys, v, &mut rng).map_err(err("encrypt"))
                })
            })
            .collect()
    }

    /// One op's decrypt calls, each timed as `client.decrypt`.
    pub fn decrypt(
        &self,
        rec: &mut Recorder,
        op: &mut OpScope,
        cts: &[S::Ciphertext],
    ) -> Res<Vec<Vec<S::Value>>> {
        cts.iter()
            .map(|ct| {
                rec.call(op, "client.decrypt", || {
                    S::decrypt(&self.k.ctx, &self.k.keys, ct).map_err(err("decrypt"))
                })
            })
            .collect()
    }

    /// Replays program `p` in-process on `batch` the way the server runs
    /// a batch (members on scoped threads, shared operand cache), and
    /// returns the wall time. The cache is warm, as the server's is in
    /// steady state.
    pub fn replay(
        &self,
        p: usize,
        batch: &[Vec<S::Ciphertext>],
        cache: &ExecCache<S>,
    ) -> Res<Duration>
    where
        S: EvalScheme + Sync,
    {
        let prog = self.progs.get(p).ok_or("program index out of range")?;
        let named: Vec<HashMap<String, S::Ciphertext>> = batch
            .iter()
            .map(|cts| {
                prog.inputs
                    .iter()
                    .cloned()
                    .zip(cts.iter().cloned())
                    .collect()
            })
            .collect();
        let (compiled, k) = (&prog.compiled, &self.k);
        let (ctx, relin, galois) = (&k.ctx, &k.relin, &k.galois);
        let run = |inputs: &HashMap<String, S::Ciphertext>| {
            compiled
                .execute_encrypted_cached::<S>(ctx, inputs, relin, galois, cache)
                .map(|_| ())
                .map_err(err("replay"))
        };
        let t0 = Instant::now();
        match named.as_slice() {
            [one] => run(one)?,
            many => std::thread::scope(|s| {
                let handles: Vec<_> = many
                    .iter()
                    .map(|inputs| s.spawn(move || run(inputs)))
                    .collect();
                handles
                    .into_iter()
                    .try_for_each(|h| h.join().map_err(|_| "replay panicked".to_string())?)
            })?,
        }
        Ok(t0.elapsed())
    }
}

/// Bytes a program body adds to the evaluate request that carries it.
pub fn body_bytes(prog: &Prog) -> u64 {
    let size = |with_body: bool| {
        let req = choco::remote::EvalRequest {
            request_id: 0,
            program_ref: prog.prepared.program_ref,
            program: with_body.then(|| (prog.prepared.wire.clone(), prog.prepared.options)),
            deadline_ms: None,
            inputs: Vec::new(),
        };
        req.to_wire().len() as u64
    };
    size(true) - size(false)
}
