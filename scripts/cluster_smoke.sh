#!/usr/bin/env bash
# Cluster smoke: three bdb-clusterd workers on localhost (one of which
# crashes mid-run), a 12-workload coordinator run over TCP, and a
# byte-for-byte diff against the serial engine's output.
#
# This is the multi-process twin of crates/cluster/tests/tcp_smoke.rs:
# same contract, but with real worker processes, real injected process
# death (exit 3), and the real bdb-clusterd/cluster-smoke binaries.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOADS="${WORKLOADS:-12}"
OUT="$(mktemp -d)"
# Workers start inside command substitutions (subshells), so their pids
# go to files the cleanup can read, not to a shell array.
cleanup() {
    for pidfile in "$OUT"/*.pid; do
        [ -f "$pidfile" ] && kill "$(cat "$pidfile")" 2>/dev/null || true
    done
    rm -rf "$OUT"
}
trap cleanup EXIT

echo "== build =="
cargo build -q --release -p bdb-cluster --bins

CLUSTERD=target/release/bdb_clusterd
SMOKE=target/release/cluster_smoke

# Workers must profile, not serve stale bytes, so the smoke is hermetic.
export BDB_NO_CACHE=1

start_worker() { # args: logfile, extra flags...
    local log="$1"; shift
    "$CLUSTERD" --listen 127.0.0.1:0 "$@" >"$log" 2>"$log.err" &
    echo $! >"$log.pid"
    # Scrape the ephemeral port from the "listening on <addr>" line.
    for _ in $(seq 1 100); do
        if addr=$(grep -m1 '^listening on ' "$log" | cut -d' ' -f3) && [ -n "$addr" ]; then
            echo "$addr"
            return 0
        fi
        sleep 0.1
    done
    echo "worker did not report its address ($log)" >&2
    return 1
}

echo "== start 3 workers (one crashes on its 2nd task) =="
A=$(start_worker "$OUT/w0.log")
B=$(start_worker "$OUT/w1.log" --fault-crash-task 1)
C=$(start_worker "$OUT/w2.log")
echo "workers: $A $B (crashing) $C"

echo "== serial baseline =="
"$SMOKE" --workloads "$WORKLOADS" >"$OUT/serial.jsonl"

# Every frame on the wire is a checksummed BDBC record, so this leg is
# also the wire-encoding check: the merged bytes must equal the serial
# baseline exactly.
echo "== distributed run (BDBC frames) =="
"$SMOKE" --workloads "$WORKLOADS" --cluster "$A,$B,$C" >"$OUT/cluster.jsonl"

echo "== byte-for-byte diff =="
diff "$OUT/serial.jsonl" "$OUT/cluster.jsonl"
echo "cluster smoke OK: $(wc -l <"$OUT/serial.jsonl") profiles byte-identical despite an injected worker crash"

# Replay-enabled pass: the trace-once/replay-many sweep path
# (BDB_SWEEP_MODE=fused) must leave distributed task payloads and the
# merged bytes untouched. Worker B already died on its injected fault,
# so this run also proves the surviving pair still merges identically.
echo "== replay-enabled distributed run (BDB_SWEEP_MODE=fused) =="
BDB_SWEEP_MODE=fused "$SMOKE" --workloads "$WORKLOADS" --cluster "$A,$C" >"$OUT/cluster_replay.jsonl"
diff "$OUT/serial.jsonl" "$OUT/cluster_replay.jsonl"
echo "replay smoke OK: fused sweep mode leaves the distributed merge byte-identical"

# Crash-safety leg: a journaled coordinator is killed with SIGKILL
# mid-run, then a --resume rerun must preload the journaled shards and
# still merge byte-identically to the serial baseline. A delay-only
# worker (no crash fault, so it serves sessions forever) paces the run
# so the kill reliably lands in the middle.
echo "== kill -9 mid-run, then resume from the journal =="
D=$(start_worker "$OUT/w3.log" --fault-delay-ms 250)
J="$OUT/run.wal"
"$SMOKE" --workloads "$WORKLOADS" --cluster "$D" --journal "$J" \
    >"$OUT/killed.jsonl" 2>"$OUT/killed.err" &
VICTIM=$!
# Wait for the journal to hold real progress (start frame + >=1 task
# record) before pulling the trigger.
for _ in $(seq 1 300); do
    if [ -f "$J" ] && [ "$(wc -c <"$J")" -ge 1024 ]; then
        break
    fi
    sleep 0.1
done
[ -f "$J" ] && [ "$(wc -c <"$J")" -ge 1024 ] || {
    echo "journal never accumulated a completed task; cannot test resume" >&2
    exit 1
}
kill -9 "$VICTIM" 2>/dev/null || true
wait "$VICTIM" 2>/dev/null || true
echo "killed coordinator with $(wc -c <"$J") journal bytes on disk"

"$SMOKE" --workloads "$WORKLOADS" --cluster "$D" --journal "$J" --resume \
    >"$OUT/resumed.jsonl" 2>"$OUT/resumed.err"
PRELOADED=$(sed -n 's/.*journal preloaded \([0-9][0-9]*\) of.*/\1/p' "$OUT/resumed.err")
[ "${PRELOADED:-0}" -ge 1 ] || {
    echo "resume run did not preload any journaled shard:" >&2
    cat "$OUT/resumed.err" >&2
    exit 1
}
diff "$OUT/serial.jsonl" "$OUT/resumed.jsonl"
echo "resume smoke OK: $PRELOADED journaled shards reused; merged bytes identical to serial after kill -9"
