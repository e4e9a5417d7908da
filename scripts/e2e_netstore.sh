#!/usr/bin/env bash
# End-to-end proof of the network state store and the serving tier:
# launch cmd/statestore with 2 shards, run the full five-phase
# pipeline once in-process and once against the live store (same
# seed/topology), and diff the two emitted KNN graphs byte for byte.
# Then bring up read replicas (statestore -replicaof) and cmd/knnserve,
# run knnrun with -serveviews, query knnserve over HTTP while the run
# is active, fire a read-only knnload burst at the replica-backed and
# primary-only front ends mid-run, push a profile update through
# POST /v1/profile, and diff the serving run's graph against its own
# in-process reference. Then run a write-mixed knnload burst, drain
# the queued updates through one more serving iteration, and assert the
# pushed profile entry is visible over HTTP. Finally queue a whole-user
# add (PUT /v1/profile/{id}) and a delete (DELETE), drain both through
# a knnrun -staleness delta pass, and assert the added user is served,
# the deleted user 404s, and /v1/staleness answers.
# Run via `make e2e-netstore`.
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="$(mktemp -d)"
STATESTORE_PID=""
REPLICA_PID=""
KNNSERVE_PID=""
KNNSERVE_PRIMARY_PID=""
cleanup() {
  for pid in "$STATESTORE_PID" "$REPLICA_PID" "$KNNSERVE_PID" "$KNNSERVE_PRIMARY_PID"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$WORK/statestore" ./cmd/statestore
go build -o "$WORK/knnrun" ./cmd/knnrun

# Shared run parameters: a fixed preset topology, two full iterations.
RUN_ARGS=(-users 600 -items 1500 -k 8 -m 8 -iters 2 -execworkers 2 -prefetch 2 -writeback -seed 5)

echo "== in-process reference run"
"$WORK/knnrun" "${RUN_ARGS[@]}" -dumpgraph "$WORK/inprocess.graph" >"$WORK/inprocess.log"

echo "== launching statestore (2 shards)"
"$WORK/statestore" -listen 127.0.0.1:7761,127.0.0.1:7762 -partitions 8 >"$WORK/statestore.log" &
STATESTORE_PID=$!
for _ in $(seq 1 100); do
  grep -q "statestore: ready" "$WORK/statestore.log" 2>/dev/null && break
  kill -0 "$STATESTORE_PID" 2>/dev/null || { echo "statestore died:"; cat "$WORK/statestore.log"; exit 1; }
  sleep 0.1
done
grep -q "statestore: ready" "$WORK/statestore.log" || { echo "statestore never became ready"; cat "$WORK/statestore.log"; exit 1; }

echo "== network-store run against the live shards"
"$WORK/knnrun" "${RUN_ARGS[@]}" -netstore 127.0.0.1:7761,127.0.0.1:7762 -dumpgraph "$WORK/netstore.graph" >"$WORK/netstore.log"

echo "== diffing emitted graphs"
if ! cmp "$WORK/inprocess.graph" "$WORK/netstore.graph"; then
  echo "FAIL: network-store graph differs from the in-process graph"
  exit 1
fi
LINES=$(wc -l <"$WORK/inprocess.graph")
echo "PASS: graphs are byte-identical ($LINES users)"

# --- Serving tier: replicas + knnserve answering during an active run ---

echo "== building knnserve and knnload"
go build -o "$WORK/knnserve" ./cmd/knnserve
go build -o "$WORK/knnload" ./cmd/knnload

echo "== launching replicas (statestore -replicaof)"
"$WORK/statestore" -listen 127.0.0.1:7771,127.0.0.1:7772 \
  -replicaof 127.0.0.1:7761,127.0.0.1:7762 -partitions 8 >"$WORK/replicas.log" &
REPLICA_PID=$!
for _ in $(seq 1 100); do
  grep -q "statestore: ready" "$WORK/replicas.log" 2>/dev/null && break
  kill -0 "$REPLICA_PID" 2>/dev/null || { echo "replicas died:"; cat "$WORK/replicas.log"; exit 1; }
  sleep 0.1
done
grep -q "statestore: ready" "$WORK/replicas.log" || { echo "replicas never became ready"; cat "$WORK/replicas.log"; exit 1; }

echo "== launching knnserve (reads via replicas)"
"$WORK/knnserve" -listen 127.0.0.1:7781 -store 127.0.0.1:7761,127.0.0.1:7762 \
  -replicas 127.0.0.1:7771,127.0.0.1:7772 -partitions 8 >"$WORK/knnserve.log" &
KNNSERVE_PID=$!
for _ in $(seq 1 100); do
  curl -fsS http://127.0.0.1:7781/healthz >/dev/null 2>&1 && break
  kill -0 "$KNNSERVE_PID" 2>/dev/null || { echo "knnserve died:"; cat "$WORK/knnserve.log"; exit 1; }
  sleep 0.1
done
curl -fsS http://127.0.0.1:7781/healthz >/dev/null || { echo "knnserve never became healthy"; cat "$WORK/knnserve.log"; exit 1; }

echo "== launching a second knnserve (primary-only reads, for the tier comparison)"
"$WORK/knnserve" -listen 127.0.0.1:7782 -store 127.0.0.1:7761,127.0.0.1:7762 \
  -partitions 8 >"$WORK/knnserve_primary.log" &
KNNSERVE_PRIMARY_PID=$!
for _ in $(seq 1 100); do
  curl -fsS http://127.0.0.1:7782/healthz >/dev/null 2>&1 && break
  kill -0 "$KNNSERVE_PRIMARY_PID" 2>/dev/null || { echo "primary knnserve died:"; cat "$WORK/knnserve_primary.log"; exit 1; }
  sleep 0.1
done
curl -fsS http://127.0.0.1:7782/healthz >/dev/null || { echo "primary knnserve never became healthy"; cat "$WORK/knnserve_primary.log"; exit 1; }

# Longer run so phase 4 is still active when the lookups land; its own
# in-process reference proves -serveviews leaves the graph untouched.
SERVE_ARGS=(-users 600 -items 1500 -k 8 -m 8 -iters 4 -execworkers 2 -prefetch 2 -writeback -seed 5)

echo "== in-process reference for the serving run"
"$WORK/knnrun" "${SERVE_ARGS[@]}" -dumpgraph "$WORK/serve_ref.graph" >"$WORK/serve_ref.log"

echo "== serving run (netstore + -serveviews), querying knnserve mid-run"
"$WORK/knnrun" "${SERVE_ARGS[@]}" -netstore 127.0.0.1:7761,127.0.0.1:7762 -serveviews \
  -dumpgraph "$WORK/serving.graph" >"$WORK/serving.log" &
KNNRUN_PID=$!

MIDRUN_OK=0
while kill -0 "$KNNRUN_PID" 2>/dev/null; do
  if curl -fsS http://127.0.0.1:7781/v1/neighbors/0 >"$WORK/midrun.json" 2>/dev/null; then
    MIDRUN_OK=1
    break
  fi
  sleep 0.05
done
# Mid-run Zipfian burst: read-only (writes would drain into phase 5 and
# change the graph vs the in-process reference), same fixed seed against
# the replica-backed and primary-only front ends. knnload exits non-zero
# on any protocol error; transient 404s on the primary tier (views
# republish one partition at a time) count as misses, not errors.
echo "== knnload read-only burst against both read tiers, mid-run"
if ! "$WORK/knnload" \
  -target replicas=http://127.0.0.1:7781 -target primary=http://127.0.0.1:7782 \
  -users 600 -ops 600 -rate 1500 -zipf 1.1 -writefrac 0 -profilefrac 0.3 \
  -window 200ms -conc 4 -seed 42 >"$WORK/knnload.log"; then
  echo "FAIL: knnload burst saw protocol errors"
  cat "$WORK/knnload.log"
  exit 1
fi
grep -q "comparison (per op type, across targets):" "$WORK/knnload.log" || {
  echo "FAIL: knnload printed no cross-target comparison"; cat "$WORK/knnload.log"; exit 1; }
echo "knnload burst clean; tail of the report:"
tail -n 12 "$WORK/knnload.log"

wait "$KNNRUN_PID" || { echo "serving run failed:"; cat "$WORK/serving.log"; exit 1; }
if [ "$MIDRUN_OK" != 1 ]; then
  echo "FAIL: knnserve never answered a lookup while the run was active"
  cat "$WORK/knnserve.log"
  exit 1
fi
grep -q '"neighbors":' "$WORK/midrun.json" || { echo "FAIL: bad mid-run answer:"; cat "$WORK/midrun.json"; exit 1; }
echo "mid-run lookup answered: $(cat "$WORK/midrun.json")"

# A profile pushed through HTTP must be accepted into the update queue.
curl -fsS -X POST http://127.0.0.1:7781/v1/profile \
  -d '{"updates":[{"user":0,"op":"set","item":9999,"weight":1.5}]}' >"$WORK/push.json"
grep -q '"queued":1' "$WORK/push.json" || { echo "FAIL: push not queued:"; cat "$WORK/push.json"; exit 1; }

curl -fsS http://127.0.0.1:7781/v1/stats >"$WORK/stats.json"
echo "== serving-tier stats: $(cat "$WORK/stats.json")"
grep -q '"version":1' "$WORK/stats.json" || {
  echo "FAIL: /v1/stats is not the v1 document"; exit 1; }

echo "== diffing serving-run graph against its in-process reference"
if ! cmp "$WORK/serve_ref.graph" "$WORK/serving.graph"; then
  echo "FAIL: -serveviews (with live replicas + knnserve) changed the graph"
  exit 1
fi
echo "PASS: serving tier answered mid-run and the graph stayed byte-identical"

# --- Write path end to end: knnload writes drain into phase 5 ---

echo "== knnload write-mixed burst (updates queue on the primaries)"
if ! "$WORK/knnload" -target replicas=http://127.0.0.1:7781 \
  -users 600 -items 1500 -ops 200 -rate 2000 -zipf 1.1 -writefrac 0.2 \
  -window 200ms -conc 4 -seed 43 >"$WORK/knnload_write.log"; then
  echo "FAIL: write-mixed knnload burst saw protocol errors"
  cat "$WORK/knnload_write.log"
  exit 1
fi

# A known marker update, then one more serving iteration to drain the
# queue through phase 5 and republish views with the post-update
# profiles.
curl -fsS -X POST http://127.0.0.1:7781/v1/profile \
  -d '{"updates":[{"user":0,"op":"set","item":4242,"weight":1.5}]}' >/dev/null
echo "== drain iteration (knnrun -iters 1 -serveviews)"
"$WORK/knnrun" -users 600 -items 1500 -k 8 -m 8 -iters 1 -execworkers 2 -prefetch 2 \
  -writeback -seed 5 -netstore 127.0.0.1:7761,127.0.0.1:7762 -serveviews >"$WORK/drain.log"

curl -fsS http://127.0.0.1:7781/v1/profile/0 >"$WORK/profile0.json"
grep -q '"item":4242' "$WORK/profile0.json" || {
  echo "FAIL: pushed update not visible after drain:"; cat "$WORK/profile0.json"; exit 1; }
echo "PASS: knnload bursts clean and pushed updates are served after the drain iteration"

# --- Whole-user mutations end to end: PUT/DELETE drain through a delta
# pass (knnrun -staleness) and the serving tier reflects them ---

echo "== queueing a whole-user add (PUT) and a delete (DELETE) over HTTP"
curl -fsS -X PUT http://127.0.0.1:7781/v1/profile/600 \
  -d '{"items":[{"item":7,"weight":2.5},{"item":4242,"weight":1.0}]}' >"$WORK/put.json"
grep -q '"op":"upsert"' "$WORK/put.json" || { echo "FAIL: PUT not queued:"; cat "$WORK/put.json"; exit 1; }
curl -fsS -X DELETE http://127.0.0.1:7781/v1/profile/599 >"$WORK/del.json"
grep -q '"op":"delete"' "$WORK/del.json" || { echo "FAIL: DELETE not queued:"; cat "$WORK/del.json"; exit 1; }

echo "== delta run (knnrun -staleness): drain mutations, then iterate"
"$WORK/knnrun" -users 600 -items 1500 -k 8 -m 8 -iters 2 -execworkers 2 -prefetch 2 \
  -writeback -seed 5 -staleness 0.5 \
  -netstore 127.0.0.1:7761,127.0.0.1:7762 -serveviews >"$WORK/delta.log"
grep -q "delta: 1 adds, 0 upserts, 1 deletes" "$WORK/delta.log" || {
  echo "FAIL: delta pass did not commit the queued mutations:"; cat "$WORK/delta.log"; exit 1; }

echo "== added user is served, deleted user is gone"
curl -fsS http://127.0.0.1:7781/v1/neighbors/600 >"$WORK/added.json"
grep -q '"neighbors":\[[0-9]' "$WORK/added.json" || {
  echo "FAIL: added user 600 has no served neighbors:"; cat "$WORK/added.json"; exit 1; }
DEL_CODE=$(curl -s -o "$WORK/deleted.json" -w '%{http_code}' http://127.0.0.1:7781/v1/profile/599)
[ "$DEL_CODE" = 404 ] || { echo "FAIL: deleted user 599 still served ($DEL_CODE):"; cat "$WORK/deleted.json"; exit 1; }

echo "== staleness endpoint serves the engine's published drift table"
curl -fsS http://127.0.0.1:7781/v1/staleness >"$WORK/staleness.json"
grep -q '"threshold":0.5' "$WORK/staleness.json" || {
  echo "FAIL: staleness doc missing or wrong threshold:"; cat "$WORK/staleness.json"; exit 1; }

echo "PASS: whole-user add/delete drained through the delta pass and the serving tier reflects them"
