//! The repository benchmark: client-aided encrypted offload through the
//! real `choco-serve` evaluator, booted in-process.
//!
//! ```text
//! offload-bench --workload <rtt_mix|tenant_batch|client_aided> --seed <n>
//!               --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, measured from spans
//! recorded around every call into a layer, and the spans are written to
//! `--spans` (default `.bench_spans/<workload>-<seed>.csv`). The line
//! before it is a report with the run's provenance. The exit code is 0
//! only when every output matched the local reference bit for bit, client
//! and server billing agreed, and (traced) the trace checks held.

#![forbid(unsafe_code)]

mod lane;
mod micro;
mod run;
mod stats;
mod trace;
mod workloads;

use run::{Args, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Kind;

const USAGE: &str = "usage: offload-bench --workload <rtt_mix|tenant_batch|client_aided> \
--seed <n> --seconds <s> --trace <0|1> [--spans <path>]";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Cli {
    args: Args,
    spans: Option<PathBuf>,
}

fn parse() -> Result<Cli, String> {
    let mut it = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut spans = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{USAGE}");
    Ok(Cli {
        args: Args {
            kind: kind.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            setup_reps: SETUP_REPS,
        },
        spans,
    })
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; NaN and infinities are not JSON, so they become null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn report_line(cli: &Cli, out: &Outcome) -> String {
    let a = &cli.args;
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let params: Vec<String> = out
        .params
        .iter()
        .map(|p| {
            format!(
                "{{\"scheme\":\"{:?}\",\"n\":{},\"primes\":{:?},\"t\":{},\"scale_bits\":{}}}",
                p.scheme(),
                p.degree(),
                p.primes(),
                p.plain_modulus(),
                p.scale_bits()
            )
        })
        .collect();
    let mut fields = vec![
        format!("\"workload\":{}", json_str(a.kind.name())),
        format!("\"seed\":{}", a.seed),
        format!("\"seconds\":{}", json_num(a.seconds)),
        format!("\"trace\":{}", a.trace),
        format!("\"nproc\":{nproc}"),
        format!(
            "\"simd_backend\":{}",
            json_str(&format!("{:?}", choco_math::simd::backend()))
        ),
        format!("\"par_threads\":{}", choco_math::par::num_threads()),
        format!("\"CHOCO_THREADS\":{}", json_str(&env("CHOCO_THREADS"))),
        format!("\"CHOCO_SIMD\":{}", json_str(&env("CHOCO_SIMD"))),
        format!("\"git_rev\":{}", json_str(&git_rev())),
        format!("\"params\":[{}]", params.join(",")),
        format!("\"attempted\":{}", out.attempted),
        format!("\"failed\":{}", out.failed),
    ];
    fields.extend(
        out.notes
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", json_str(v))),
    );
    let problems: Vec<String> = out.problems.iter().map(|p| json_str(p)).collect();
    fields.push(format!("\"problems\":[{}]", problems.join(",")));
    format!("{{\"report\":{{{}}}}}", fields.join(","))
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":{}}}",
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.problems.is_empty() && out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("offload-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run::run(&cli.args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("offload-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cli.args.trace {
        let path = cli.spans.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                ".bench_spans/{}-{}.csv",
                cli.args.kind.name(),
                cli.args.seed
            ))
        });
        if let Err(e) = trace::write_csv(&path, &out.spans) {
            eprintln!("offload-bench: writing spans to {}: {e}", path.display());
        }
    }
    for p in &out.problems {
        eprintln!("offload-bench: check failed: {p}");
    }
    println!("{}", report_line(&cli, &out));
    println!("{}", result_line(&out));
    if out.problems.is_empty() && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
