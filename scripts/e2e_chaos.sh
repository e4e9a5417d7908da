#!/usr/bin/env bash
# End-to-end proof of the robustness stack: crash-recovery, the engine's
# retry ladder, and seeded fault injection, at the process level.
#
# Leg 1 (seeded faults): launch cmd/statestore with a -faults plan
# (delay + disk-delay pressure on every shard listener), run the full
# five-phase pipeline against it, and diff the emitted KNN graph byte
# for byte against a fault-free in-process run of the same preset
# topology. Then boot a second statestore with the identical spec and
# assert the printed fault-plan digest is identical — same seed, same
# fault sequence, which is what makes a chaos failure replayable.
#
# Leg 2 (crash + recovery): run the two shards as two separate
# statestore processes (-shard/-shards with a shared -datadir), start a
# longer knnrun whose engine retry budget (-iterretries) outlasts a
# shard restart, SIGKILL one shard mid-run, restart it over the same
# data directory (journal replay — the shard's one file, compacted at
# each commit — and lease fencing), and require
# the healed run's graph to be byte-identical to the fault-free
# reference; the iterations that had to restart their compute are
# listed from the "attempts" column of knnrun's rows.
# Run via `make e2e-chaos`.
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="$(mktemp -d)"
FAULTY_PID=""
FAULTY2_PID=""
SHARD0_PID=""
SHARD1_PID=""
cleanup() {
  for pid in "$FAULTY_PID" "$FAULTY2_PID" "$SHARD0_PID" "$SHARD1_PID"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

# wait_ready <logfile> <pid> <what>: poll for statestore's ready line.
wait_ready() {
  local log=$1 pid=$2 what=$3
  for _ in $(seq 1 100); do
    grep -q "statestore: ready" "$log" 2>/dev/null && return 0
    kill -0 "$pid" 2>/dev/null || { echo "$what died:"; cat "$log"; exit 1; }
    sleep 0.1
  done
  echo "$what never became ready"; cat "$log"; exit 1
}

echo "== building binaries"
go build -o "$WORK/statestore" ./cmd/statestore
go build -o "$WORK/knnrun" ./cmd/knnrun

# Shared run parameters; every run below must emit the same graph.
RUN_ARGS=(-users 600 -items 1500 -k 8 -m 8 -iters 4 -execworkers 2 -prefetch 2 -writeback -seed 5)

echo "== fault-free in-process reference run"
"$WORK/knnrun" "${RUN_ARGS[@]}" -dumpgraph "$WORK/ref.graph" >"$WORK/ref.log"

# --- Leg 1: seeded fault plan, graph unchanged, digest reproducible ---

# Delay-class faults only: stalls on every accepted conn plus injected
# device latency. These slow every exchange without erroring any, so
# the run needs no retry ladder at all — pure latency chaos. (Drop and
# torn-frame pressure is exercised at the package level by
# TestEngineHealsUnderSeededFaults, where which conn draws which
# schedule is pinned; at process level the accept order of concurrent
# workers is not deterministic, so an error-class plan here would make
# the script timing-dependent.)
FAULT_SPEC="seed=42,delay=0.3,maxdelay=2ms,diskdelay=0.2,maxdiskdelay=1ms"

echo "== launching statestore (2 shards, -faults \"$FAULT_SPEC\")"
"$WORK/statestore" -listen 127.0.0.1:7821,127.0.0.1:7822 -partitions 8 \
  -faults "$FAULT_SPEC" >"$WORK/faulty.log" &
FAULTY_PID=$!
wait_ready "$WORK/faulty.log" "$FAULTY_PID" "faulty statestore"
grep -q "fault plan" "$WORK/faulty.log" || { echo "FAIL: no fault-plan digest line"; cat "$WORK/faulty.log"; exit 1; }

echo "== run against the fault-injected shards"
"$WORK/knnrun" "${RUN_ARGS[@]}" -netstore 127.0.0.1:7821,127.0.0.1:7822 \
  -dumpgraph "$WORK/faults.graph" >"$WORK/faults.log"

echo "== diffing fault-injected graph against the reference"
if ! cmp "$WORK/ref.graph" "$WORK/faults.graph"; then
  echo "FAIL: injected faults changed the computed graph"
  exit 1
fi
echo "PASS: graph byte-identical under the seeded fault plan"

echo "== same seed, same digest: booting a second statestore with the identical spec"
"$WORK/statestore" -listen 127.0.0.1:7823,127.0.0.1:7824 -partitions 8 \
  -faults "$FAULT_SPEC" >"$WORK/faulty2.log" &
FAULTY2_PID=$!
wait_ready "$WORK/faulty2.log" "$FAULTY2_PID" "second faulty statestore"
DIGEST1=$(grep "fault plan" "$WORK/faulty.log")
DIGEST2=$(grep "fault plan" "$WORK/faulty2.log")
if [ "$DIGEST1" != "$DIGEST2" ]; then
  echo "FAIL: same spec printed different digests:"
  echo "  $DIGEST1"
  echo "  $DIGEST2"
  exit 1
fi
echo "PASS: fault-plan digest reproduced: ${DIGEST1#statestore: }"
kill "$FAULTY_PID" "$FAULTY2_PID" 2>/dev/null || true
FAULTY_PID=""; FAULTY2_PID=""

# --- Leg 2: SIGKILL one shard mid-run, restart it over its datadir ---

DATADIR="$WORK/data"
SHARD_FLAGS=(-partitions 8 -shards 2 -datadir "$DATADIR")

echo "== launching the 2 shards as separate processes (shared -datadir)"
"$WORK/statestore" -listen 127.0.0.1:7825 -shard 0 "${SHARD_FLAGS[@]}" >"$WORK/shard0.log" &
SHARD0_PID=$!
"$WORK/statestore" -listen 127.0.0.1:7826 -shard 1 "${SHARD_FLAGS[@]}" >"$WORK/shard1.log" &
SHARD1_PID=$!
wait_ready "$WORK/shard0.log" "$SHARD0_PID" "shard 0"
wait_ready "$WORK/shard1.log" "$SHARD1_PID" "shard 1"

# The engine's ladder is the only one above the client's per-op retries:
# a budget of 6 pauses 0.25+0.5+1+2+4+8 s between compute restarts,
# which outlasts the SIGKILL + restart below with room to spare.
echo "== starting the chaos run (knnrun -iterretries 6)"
"$WORK/knnrun" "${RUN_ARGS[@]}" -netstore 127.0.0.1:7825,127.0.0.1:7826 \
  -iterretries 6 -dumpgraph "$WORK/chaos.graph" >"$WORK/chaos.log" &
KNNRUN_PID=$!

# Wait until iteration 1's stats line appears — the run is mid-flight,
# with iterations still ahead of it — then crash shard 1 (SIGKILL: no
# graceful close, the journal is the truth) and restart it over the
# same data directory.
KILLED=0
while kill -0 "$KNNRUN_PID" 2>/dev/null; do
  if grep -qE '^[[:space:]]+1[[:space:]]' "$WORK/chaos.log" 2>/dev/null; then
    kill -9 "$SHARD1_PID" 2>/dev/null
    wait "$SHARD1_PID" 2>/dev/null || true
    KILLED=1
    break
  fi
  sleep 0.02
done
if [ "$KILLED" != 1 ]; then
  echo "FAIL: run finished before the crash landed — enlarge the workload"
  cat "$WORK/chaos.log"
  exit 1
fi
echo "== shard 1 SIGKILLed mid-run; journal on disk:"
ls -l "$DATADIR/shard1" || { echo "FAIL: shard 1 left no durable state"; exit 1; }

echo "== restarting shard 1 over the same datadir"
"$WORK/statestore" -listen 127.0.0.1:7826 -shard 1 "${SHARD_FLAGS[@]}" >"$WORK/shard1b.log" &
SHARD1_PID=$!
wait_ready "$WORK/shard1b.log" "$SHARD1_PID" "restarted shard 1"

wait "$KNNRUN_PID" || { echo "FAIL: chaos run did not heal:"; cat "$WORK/chaos.log"; exit 1; }

echo "== diffing healed-run graph against the fault-free reference"
if ! cmp "$WORK/ref.graph" "$WORK/chaos.graph"; then
  echo "FAIL: the healed run's graph differs from the fault-free reference"
  exit 1
fi
LINES=$(wc -l <"$WORK/ref.graph")
echo "PASS: shard crashed and recovered mid-run; graph byte-identical ($LINES users)"
# The last column of knnrun's iteration rows is IterationStats.Attempts:
# above 1, the engine healed that iteration by restarting its compute.
# A restart quick enough for the client's per-op retries to ride out,
# with no lease held across it, needs no engine-level heal, so this is
# reported, not required.
awk '$1 ~ /^[0-9]+$/ && $NF > 1 { print "iteration " $1 " healed on compute attempt " $NF; healed = 1 }
     END { if (!healed) print "(no iteration had to restart its compute: the outage was absorbed below the engine)" }' "$WORK/chaos.log"
