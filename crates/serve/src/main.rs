//! `choco-serve` — run the remote HE evaluator on a real socket.
//!
//! ```text
//! choco-serve --addr 127.0.0.1:7470 --tenant 1=my-session-seed
//! ```
//!
//! The process serves until it reads `drain` (or EOF — the
//! SIGTERM-equivalent in this libc-free build) on stdin, then drains
//! gracefully: admission stops, scheduled batches are flushed and pending
//! responses delivered. With `--checkpoint-dir`, accepted requests are
//! journaled there, and a later `choco-serve` over the same directory
//! tells reconnecting clients which requests a hard-killed predecessor
//! never answered.

#![forbid(unsafe_code)]

use choco_serve::{OffloadServer, ServeConfig, ServeStats, TenantRegistry};
use std::io::BufRead;
use std::path::PathBuf;

const USAGE: &str = "\
choco-serve: remote HE evaluator

USAGE:
  choco-serve [--addr HOST:PORT] [--max-sessions N] [--io-timeout-ms MS]
              [--checkpoint-dir DIR] [--tenant ID=SEED]...

OPTIONS:
  --addr HOST:PORT      listen address (default 127.0.0.1:7470; port 0 picks
                        an ephemeral port)
  --max-sessions N      admission limit; further hellos get a typed
                        Overloaded ack (default 64)
  --io-timeout-ms MS    handshake/write timeout (default 5000)
  --checkpoint-dir DIR  keep the eval journal here: accepted requests are
                        journaled, and a restart over the same directory
                        reports the ones that were never answered
  --tenant ID=SEED      register a tenant (repeatable); the seed must equal
                        the client's session seed

Runtime commands on stdin: `stats` prints a one-line JSON snapshot (serve,
eval, cache, scheduler, isolation, and journal counters), `drain` (or EOF)
drains gracefully and exits.";

fn fail(msg: &str) -> ! {
    eprintln!("choco-serve: {msg}\n\n{USAGE}");
    std::process::exit(2)
}

fn need(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
}

fn parse_u64(value: &str, flag: &str) -> u64 {
    value
        .parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: {value:?} is not a number")))
}

fn print_stats(stats: &ServeStats, active: u32) {
    let total = stats.book.combined();
    println!(
        "active={active} accepted={} resumed={} overloaded={} unknown_tenant={} \
         bad_auth={} draining={} malformed={} bad_frames={}",
        stats.accepted,
        stats.resumed,
        stats.rejected_overload,
        stats.rejected_unknown_tenant,
        stats.rejected_bad_auth,
        stats.rejected_draining,
        stats.rejected_malformed,
        stats.bad_frames,
    );
    println!(
        "tenants={} requests={} upload_bytes={} responses={} download_bytes={}",
        stats.book.tenants(),
        total.uploads,
        total.upload_bytes,
        total.downloads,
        total.download_bytes,
    );
}

fn main() {
    let mut addr = "127.0.0.1:7470".to_string();
    let mut config = ServeConfig::default();
    let mut registry = TenantRegistry::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = need(&mut args, "--addr"),
            "--max-sessions" => {
                config.max_sessions = u32::try_from(parse_u64(
                    &need(&mut args, "--max-sessions"),
                    "--max-sessions",
                ))
                .unwrap_or_else(|_| fail("--max-sessions out of range"));
            }
            "--io-timeout-ms" => {
                config.io_timeout_ms =
                    parse_u64(&need(&mut args, "--io-timeout-ms"), "--io-timeout-ms");
            }
            "--checkpoint-dir" => {
                config.checkpoint_dir = Some(PathBuf::from(need(&mut args, "--checkpoint-dir")));
            }
            "--tenant" => {
                let spec = need(&mut args, "--tenant");
                let Some((id, seed)) = spec.split_once('=') else {
                    fail(&format!("--tenant {spec:?}: expected ID=SEED"));
                };
                registry.register(parse_u64(id, "--tenant"), seed.as_bytes());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    if registry.is_empty() {
        fail("no tenants registered; pass at least one --tenant ID=SEED");
    }

    let tenants = registry.len();
    let server = OffloadServer::bind(&addr, config.clone(), registry)
        .unwrap_or_else(|e| fail(&format!("bind {addr}: {e}")));
    println!(
        "choco-serve listening on {} ({tenants} tenants, max {} sessions)",
        server.addr(),
        config.max_sessions
    );

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        match line.trim() {
            "" => {}
            "stats" => println!("{}", server.stats().to_json_line()),
            "drain" | "quit" | "exit" => break,
            other => println!("unknown command {other:?} (try: stats, drain)"),
        }
    }

    println!("choco-serve: draining...");
    let stats = server.shutdown();
    print_stats(&stats, 0);
    println!("choco-serve: drained");
}
