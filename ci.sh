#!/usr/bin/env bash
# The full local CI gate: build, tests, lints, formatting.
#
# This is the same bar every PR must clear. It is offline-friendly — the
# workspace has no registry dependencies, so `cargo` never touches the
# network.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> offload-bench build (its own workspace)"
# The repo benchmark (offload-bench/) is a separate Cargo workspace, so the
# workspace build never compiles it, yet it imports the library crates
# (choco_math::simd among them). Building it here makes an API break fail
# CI instead of the benchmark pipeline.
cargo build --release --offline --manifest-path offload-bench/Cargo.toml

echo "==> choco-verify (static circuit verification, both schemes)"
# The abstract interpreter (crates/verify) must accept all four paper
# workloads under both the BFV set-A and CKKS set-C parameter sets before
# the tests run; any diagnostic is a hard failure (exit 1). The committed
# per-node dump must match what the verifier computes now — regenerate
# with: cargo run --release -q --bin choco-verify -- --json > VERIFY_workloads.json
cargo run --release -q --bin choco-verify -- --scheme both > /dev/null
cargo run --release -q --bin choco-verify -- --json > /tmp/VERIFY_workloads.json
diff -u VERIFY_workloads.json /tmp/VERIFY_workloads.json

echo "==> cargo test (all workspace members)"
cargo test -q --workspace

echo "==> parallel/sequential equivalence suite (CHOCO_THREADS=1)"
CHOCO_THREADS=1 cargo test -q -p choco-math --test prop_math
CHOCO_THREADS=1 cargo test -q -p choco-he --test prop_he

echo "==> parallel/sequential equivalence suite (CHOCO_THREADS=4)"
CHOCO_THREADS=4 cargo test -q -p choco-math --test prop_math
CHOCO_THREADS=4 cargo test -q -p choco-he --test prop_he

echo "==> simd/scalar equivalence suite (CHOCO_SIMD=0 and =1, both thread counts)"
# The dispatched kernels (AVX2 forward NTT and modular add/sub) must be
# bit-identical whichever backend runs them. prop_math asserts dispatched
# == scalar == strict inside one process, and prop_he's properties must
# hold under each setting at every thread count. The backend is fixed once
# per process, so the cross-process comparison lives in schedule_race: it
# re-runs itself under CHOCO_SIMD=0 and requires the forced-scalar
# pipeline's ciphertext bytes to equal its own dispatched-path bytes.
CHOCO_SIMD=0 CHOCO_THREADS=1 cargo test -q -p choco-math --test prop_math
CHOCO_SIMD=0 CHOCO_THREADS=4 cargo test -q -p choco-he --test prop_he
CHOCO_SIMD=1 CHOCO_THREADS=1 cargo test -q -p choco-math --test prop_math
CHOCO_SIMD=1 CHOCO_THREADS=4 cargo test -q -p choco-he --test prop_he
CHOCO_SIMD=1 cargo test -q -p choco-he --test schedule_race

echo "==> zero-alloc steady state (PolyPool counters, both schemes)"
# Warm keyswitch -> hoisted rotation -> matvec loops must not touch the
# allocator for polynomial buffers (crates/he/tests/zero_alloc.rs).
cargo test -q --release -p choco-he --test zero_alloc

echo "==> chaos soak: crash-point sweep under both thread counts"
# The seeded kill/checkpoint-resume matrix (crates/apps/tests/chaos_sweep.rs):
# every crash point must replay to a bit-identical final ciphertext with
# primary ledger lines matching the uninterrupted run. Runs under both
# worker-pool configurations to catch scheduling-dependent state leaking
# into checkpoints.
CHOCO_THREADS=1 cargo test -q -p choco-apps --test chaos_sweep
CHOCO_THREADS=4 cargo test -q -p choco-apps --test chaos_sweep

echo "==> socket chaos: client-aided chains under kills, cuts and restarts + serve e2e"
# Real-socket counterpart of the chaos sweep (crates/apps/tests/chaos_tcp.rs):
# the client-aided chains (conv -> requantize -> FC, PageRank with refresh
# rounds, K-Means) run one program per step on the remote evaluator; a hard
# kill at every eval stage and a mid-frame proxy cut, each at the first and
# the last step, must recover (server restarts over the same eval-journal
# directory) to outputs bit-identical to the uninterrupted and in-process
# runs with exact primary billing. Runs under both worker-pool
# configurations. serve_e2e covers eight concurrent tenants, typed
# Overloaded with capacity recovery, and a delayed link.
CHOCO_THREADS=1 cargo test -q -p choco-apps --test chaos_tcp
CHOCO_THREADS=4 cargo test -q -p choco-apps --test chaos_tcp
cargo test -q -p choco-serve

echo "==> eval chaos: fault-isolated remote evaluation sweep"
# Kill-point sweep over every evaluation stage x both schemes
# (crates/apps/tests/chaos_eval.rs): hard server kills mid-evaluation must
# drive to completion through reconnects with bit-identical outputs and
# exact primary-ledger billing; poison jobs bisect out of batches, breakers
# trip and recover, and restarted servers report dead requests from the
# journal. The hard timeout guards against a retry loop that never
# converges.
timeout 300 cargo test -q -p choco-apps --test chaos_eval

echo "==> loopback serve smoke: real server process + load generator"
# Boots the choco-serve binary on an ephemeral port, runs the remote-eval
# bench clients against it over loopback (--smoke --batch 4), checks the
# stats JSON line and drains it via stdin; then restarts it over the same
# eval-journal directory and requires a clean second run. The hard timeout
# guards CI against a hung accept loop or a drain that never converges.
timeout 120 ./scripts/serve_smoke.sh

echo "==> remote-eval batching gate: pipelined batches vs sequential round trips"
# The batching scheduler must coalesce a pipelined batch of 4 evaluate
# requests into shared kernel dispatches and beat 4 sequential round trips
# on throughput. The report (same shape as the committed BENCH_serve.json)
# must show a clean run — zero failed clients, zero server-side eval
# errors — and, when the host has the cores to fan a batch out (>= 4), a
# >= 2.0x throughput speedup. On starved runners the ratio is reported
# but not asserted (the parallel dispatch has nothing to run on).
# --faults additionally sweeps the fault-injection kinds (clean baseline,
# bisected poison, shed deadline) against dedicated chaos servers; a
# result that differs from the local reference fails the run.
CHOCO_THREADS=1 timeout 300 ./target/release/choco-serve-bench \
    --smoke --batch 4 --faults --json /tmp/bench_serve_batch.json
grep -q '"failed_clients": 0' /tmp/bench_serve_batch.json \
    || { cat /tmp/bench_serve_batch.json; echo "ci: batch bench had failed clients"; exit 1; }
grep -q '"errors": 0' /tmp/bench_serve_batch.json \
    || { cat /tmp/bench_serve_batch.json; echo "ci: server reported eval errors"; exit 1; }
grep -q '"wrong_results": 0' /tmp/bench_serve_batch.json \
    || { cat /tmp/bench_serve_batch.json; echo "ci: injected faults produced wrong results"; exit 1; }
grep -q '"failed_rounds": 0' /tmp/bench_serve_batch.json \
    || { cat /tmp/bench_serve_batch.json; echo "ci: fault-injection rounds failed"; exit 1; }
speedup=$(sed -n 's/.*"speedup": \([0-9.]*\).*/\1/p' /tmp/bench_serve_batch.json)
if [ "$(nproc)" -ge 4 ]; then
    awk -v s="$speedup" 'BEGIN { exit !(s >= 2.0) }' \
        || { cat /tmp/bench_serve_batch.json; echo "ci: batch-4 speedup ${speedup}x < 2.0x"; exit 1; }
    echo "ci: batch-4 throughput speedup ${speedup}x (gate: >= 2.0x)"
else
    echo "ci: nproc $(nproc) < 4 — speedup ratio measured at ${speedup}x, not asserted"
fi

echo "==> kernel bench reporter (smoke mode + generic-core and simd gates)"
# Besides the kernel timings, bench_kernels asserts that the scheme-generic
# HeScheme::dot_diagonals path stays within noise (< 1.25x) of a
# hand-inlined twin for both BFV and CKKS — the generic protocol core is
# monomorphized, so any measurable gap is a regression. When the AVX2
# backend is active it also races every dispatched vector kernel (forward
# NTT, add_mod, sub_mod) against its scalar twin at 1k/4k/16k and fails if
# any ratio is below 1.0x or the forward-NTT peak is below 2.0x; on
# scalar-only hosts those gates are skipped (a note in the report, not a
# failure).
cargo run --release -q -p choco-bench --bin bench_kernels -- --smoke --json /tmp/bench_kernels_smoke.json

echo "==> choco-lint (secret-independence, lazy-reduction, panic/unsafe audit)"
# The committed lint.toml pins every allowlisted site by exact count; any
# drift (new or removed sites) fails here. To regenerate after an audited
# change: cargo run --release -q -p choco-lint -- --fix-allowlist, then
# review the diff (git diff lint.toml) and replace any TODO reasons before
# committing.
cargo run --release -q -p choco-lint -- --workspace

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "CI green."
