#!/usr/bin/env bash
# Loopback smoke test for the choco-serve binary, two phases:
#   1. boot the real server process on an ephemeral port, run the
#      remote-eval load generator against it over TCP (--batch 4), take a
#      stats snapshot, and drain gracefully via stdin;
#   2. restart the server over the same checkpoint directory (the eval
#      journal lives there) and run the same clients again — the restarted
#      server must serve a clean second run, and the directory must hold
#      only eval-journal files.
# ci.sh wraps this in a hard `timeout` so a hung accept loop or a
# non-converging drain fails CI instead of wedging it.
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE=target/release/choco-serve
BENCH=target/release/choco-serve-bench
[[ -x $SERVE && -x $BENCH ]] || cargo build --release -q -p choco-serve

workdir=$(mktemp -d)
serve_pid=""

cleanup() {
    exec 3>&- 2>/dev/null || true
    [[ -n $serve_pid ]] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

# Boots choco-serve reading stdin from a fifo held open on fd 3; sets
# $serve_pid and $addr. $1 names the phase (log + fifo suffix).
boot_server() {
    local phase=$1
    log="$workdir/serve-$phase.log"
    local fifo="$workdir/stdin-$phase.fifo"
    mkfifo "$fifo"
    # Port 0 = kernel-assigned ephemeral port; the server prints the real one.
    "$SERVE" --addr 127.0.0.1:0 --max-sessions 8 \
        --checkpoint-dir "$workdir/ckpt" \
        --tenant 1=serve-bench-tenant-1 --tenant 2=serve-bench-tenant-2 \
        <"$fifo" >"$log" 2>&1 &
    serve_pid=$!
    exec 3>"$fifo" # hold the write end open so the server doesn't see EOF

    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^choco-serve listening on \([0-9.:]*\).*/\1/p' "$log")
        [[ -n $addr ]] && break
        kill -0 "$serve_pid" 2>/dev/null || { cat "$log"; echo "serve_smoke: server died at startup ($phase)"; exit 1; }
        sleep 0.1
    done
    [[ -n $addr ]] || { cat "$log"; echo "serve_smoke: server never reported its address ($phase)"; exit 1; }
    echo "serve_smoke: server up on $addr (pid $serve_pid, phase $phase)"
}

drain_server() {
    echo stats >&3
    echo drain >&3
    exec 3>&-
    wait "$serve_pid"
    serve_pid=""
    grep -q "choco-serve: drained" "$log" || { cat "$log"; echo "serve_smoke: no clean drain marker"; exit 1; }
}

# Runs the bench clients against $addr and checks they all succeeded and
# the server's stats line reports no bad frames. $1 names the phase.
run_clients() {
    local report="$workdir/bench-$1.json"
    "$BENCH" --addr "$addr" --smoke --batch 4 --json "$report"
    drain_server
    grep -q '"failed_clients": 0' "$report" || { cat "$report"; echo "serve_smoke: $1 bench reported failures"; exit 1; }
    # The stdin `stats` command must answer with one machine-readable JSON
    # line covering serve + eval + isolation + journal counters.
    grep -q '^{"accepted":.*"bad_frames":0,.*"isolation":{"quarantined":.*"journal":{"accepted":' "$log" \
        || { cat "$log"; echo "serve_smoke: $1 stats line missing or reports bad frames"; exit 1; }
}

# Phase 1: fresh server, clean run, graceful drain.
boot_server first
run_clients first
ls "$workdir/ckpt"/*.cej >/dev/null 2>&1 || { ls -la "$workdir/ckpt" || true; echo "serve_smoke: no eval journal in the checkpoint dir"; exit 1; }

# Phase 2: restart over the same checkpoint dir; the successor must serve
# the same clients cleanly, and the journal stays the only durable state.
boot_server second
run_clients second
if ls "$workdir/ckpt" | grep -qv '\.cej$'; then
    ls -la "$workdir/ckpt"; echo "serve_smoke: checkpoint dir holds files besides the eval journal"; exit 1
fi

echo "serve_smoke: OK (clean run + drain + restart over the same checkpoint dir)"
