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
# The kill -9 leg's worker alone gets a cache directory of its own.
export BDB_NO_CACHE=1

start_worker() { # args: logfile, extra flags... (WORKER_ENV: env(1) arguments)
    local log="$1"; shift
    # shellcheck disable=SC2086 # WORKER_ENV is a word list by design
    env ${WORKER_ENV:-} "$CLUSTERD" --listen 127.0.0.1:0 "$@" >"$log" 2>"$log.err" &
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

# Surviving-pair pass: worker B already died on its injected fault, so
# a fresh run over A and C alone must still merge byte-identically to
# the serial baseline.
echo "== surviving pair after the crash (A+C) =="
"$SMOKE" --workloads "$WORKLOADS" --cluster "$A,$C" >"$OUT/cluster_survivors.jsonl"
diff "$OUT/serial.jsonl" "$OUT/cluster_survivors.jsonl"
echo "survivor smoke OK: the surviving pair merges byte-identically to serial"

# Crash-safety leg: the coordinator is killed with SIGKILL mid-run and
# rerun. Nothing records the first run's progress except worker D's
# cache, so the rerun dispatches every task again; D must answer the
# ones it already cached without simulating them, and the merge must
# still equal the serial baseline. D is a delay-only worker (no crash
# fault, so it serves sessions forever), which paces the run so the
# kill reliably lands in the middle.
echo "== kill -9 mid-run, then rerun over the worker's cache =="
DCACHE="$OUT/d-cache"
D=$(WORKER_ENV="-u BDB_NO_CACHE BDB_CACHE_DIR=$DCACHE" start_worker "$OUT/w3.log" --fault-delay-ms 250)
cached_entries() { find "$DCACHE" -maxdepth 1 -name '*.bin' 2>/dev/null | wc -l; }
# The rerun is the one session that serves every task.
rerun_line() { grep "session with .* done ($WORKLOADS tasks, " "$OUT/w3.log.err" | tail -n 1; }
"$SMOKE" --workloads "$WORKLOADS" --cluster "$D" \
    >"$OUT/killed.jsonl" 2>"$OUT/killed.err" &
VICTIM=$!
for _ in $(seq 1 300); do
    [ "$(cached_entries)" -ge 1 ] && break
    sleep 0.1
done
kill -9 "$VICTIM" 2>/dev/null || true
wait "$VICTIM" 2>/dev/null || true
# Entries only accumulate (no cache cap here), so K taken after the kill
# is a floor on what the rerun finds cached.
K=$(cached_entries)
[ "$K" -ge 1 ] || {
    echo "worker D never cached a completed task; cannot test the rerun" >&2
    exit 1
}
echo "killed coordinator with $K entries in worker D's cache"

"$SMOKE" --workloads "$WORKLOADS" --cluster "$D" >"$OUT/resumed.jsonl" 2>"$OUT/resumed.err"
diff "$OUT/serial.jsonl" "$OUT/resumed.jsonl"
# The worker logs its session line after the coordinator's Bye.
for _ in $(seq 1 100); do
    [ -n "$(rerun_line)" ] && break
    sleep 0.1
done
M=$(rerun_line | sed -n 's/.*done ([0-9]* tasks, \([0-9]*\) computed).*/\1/p')
[ -n "$M" ] || {
    echo "worker D logged no finished rerun session:" >&2
    cat "$OUT/w3.log.err" >&2
    exit 1
}
[ "$M" -le $((WORKLOADS - K)) ] || {
    echo "rerun recomputed cached work: $M computed with $K of $WORKLOADS cached" >&2
    exit 1
}
echo "rerun smoke OK: $M of $WORKLOADS recomputed with $K cached; merged bytes identical to serial after kill -9"
