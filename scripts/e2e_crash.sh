#!/usr/bin/env bash
# Crash-recovery end-to-end: a durable trieserve (-data, -fsync 1) is
# filled with acknowledged inserts, checkpointed mid-fill via POST
# /wal/snapshot, filled further, then killed with SIGKILL — no drain, no
# WAL close. A fresh process over the same directory must recover every
# acknowledged key (verified over the wire) and its /snapshot scrape
# must show both snapshot-loaded keys and replayed log-tail ops, proving
# recovery exercised BOTH halves of the durability path rather than one
# covering for the other. The cycle runs twice: on the default geometry
# (one trie shard, one WAL stripe), then at -shards 16 -walshards 4 with
# key ranges straddling shard and stripe boundaries, where a stripe's
# checkpoint walk crosses trie shards.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
log="$workdir/trieserve.log"
cleanup() {
  [ -n "${srv_pid:-}" ] && kill -9 "$srv_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/trieserve" ./cmd/trieserve
go build -o "$workdir/trieload" ./cmd/trieload

start_server() {
  : >"$log"
  "$workdir/trieserve" -addr 127.0.0.1:0 -metrics 127.0.0.1:0 -u 65536 \
    -data "$datadir" -fsync 1 "$@" >"$log" 2>&1 &
  srv_pid=$!
  for i in $(seq 1 50); do
    grep -q 'metrics on' "$log" 2>/dev/null && break
    kill -0 "$srv_pid" 2>/dev/null || { echo "trieserve died at startup:"; cat "$log"; exit 1; }
    sleep 0.1
  done
  addr=$(sed -n 's/.* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$log" | head -1)
  murl=$(sed -n 's/.*metrics on \(http:\/\/[^/]*\).*/\1/p' "$log" | head -1)
  [ -n "$addr" ] && [ -n "$murl" ] || { echo "could not parse addresses from:"; cat "$log"; exit 1; }
}

# cycle NAME FROM1 TO1 FROM2 TO2 [trieserve flags...]: fill [FROM1, TO1),
# checkpoint, fill [FROM2, TO2), SIGKILL, restart, verify both ranges
# over the wire and that recovery loaded TO1−FROM1 snapshot keys and
# replayed a log tail.
cycle() {
  local name=$1 from1=$2 to1=$3 from2=$4 to2=$5
  shift 5
  datadir="$workdir/data-$name"
  start_server "$@"
  echo "e2e-crash[$name]: durable server at $addr (data: $datadir)"

  # Phase 1: acknowledged inserts, then force a consistent snapshot — the
  # recovery below must load these keys from the snapshot files.
  "$workdir/trieload" -addr "$addr" -fillfrom "$from1" -fill "$to1"
  curl -fsS -X POST "$murl/wal/snapshot" >/dev/null
  # Phase 2: more acknowledged inserts — these live only in the log tail,
  # so recovery must REPLAY them.
  "$workdir/trieload" -addr "$addr" -fillfrom "$from2" -fill "$to2"

  # The crash: SIGKILL, mid-everything. No flush, no close.
  kill -9 "$srv_pid"
  wait "$srv_pid" 2>/dev/null || true
  srv_pid=

  start_server "$@"
  echo "e2e-crash[$name]: restarted at $addr"
  grep -q 'recovered' "$log" || { echo "no recovery line in:"; cat "$log"; exit 1; }

  # Every acknowledged key must have survived the SIGKILL.
  "$workdir/trieload" -addr "$addr" -verifyfrom "$from1" -verify "$to1"
  "$workdir/trieload" -addr "$addr" -verifyfrom "$from2" -verify "$to2"

  # The wal.recovery.* counters must show both recovery paths ran.
  snapshot=$(curl -fsS "$murl/snapshot" 2>/dev/null || wget -qO- "$murl/snapshot")
  echo "$snapshot" | WANT_SNAP=$((to1 - from1)) NAME=$name python3 -c '
import json, os, sys
s = json.load(sys.stdin)
c = s["counters"]
want, name = int(os.environ["WANT_SNAP"]), os.environ["NAME"]
snap_keys = c.get("wal.recovery.snapshot_keys", 0)
replayed = c.get("wal.recovery.replayed_ops", 0)
assert snap_keys == want, f"snapshot keys: {snap_keys}, want {want}"
assert replayed > 0, f"no log-tail ops replayed: {replayed}"
print(f"e2e-crash[{name}]: recovered {snap_keys} snapshot keys + {replayed} replayed ops")
'

  kill -TERM "$srv_pid"
  rc=0
  wait "$srv_pid" || rc=$?
  [ "$rc" -eq 0 ] || { echo "post-recovery drain exited $rc:"; cat "$log"; exit 1; }
  srv_pid=
  echo "e2e-crash[$name]: recovery verified"
}

cycle default 0 512 512 768
# Shards are 4096 keys wide and stripes 16384: phase 1 straddles the
# shard 0/1 boundary inside stripe 0, phase 2 the stripe 0/1 boundary.
cycle sharded 3584 4608 16000 16768 -shards 16 -walshards 4
