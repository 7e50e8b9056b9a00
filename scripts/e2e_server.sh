#!/usr/bin/env bash
# End-to-end smoke for the server layer: a real trieserve binary on a
# loopback socket, driven over the network by the open-loop load
# generator, metrics scraped from the merged /snapshot, and a graceful
# SIGTERM drain verified by exit code. This is the one place the whole
# stack — wire protocol, per-connection coalesced sweeps, window
# backpressure, obs exposition, signal handling — runs as separate
# processes, the way the daemon is actually deployed.
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

# Ephemeral ports; the binary prints the bound addresses.
"$workdir/trieserve" -addr 127.0.0.1:0 -metrics 127.0.0.1:0 -u 65536 >"$log" 2>&1 &
srv_pid=$!

for i in $(seq 1 50); do
  grep -q 'metrics on' "$log" 2>/dev/null && break
  kill -0 "$srv_pid" 2>/dev/null || { echo "trieserve died at startup:"; cat "$log"; exit 1; }
  sleep 0.1
done
addr=$(sed -n 's/.* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$log" | head -1)
murl=$(sed -n 's/.*metrics on \(http:\/\/[^/]*\).*/\1/p' "$log" | head -1)
[ -n "$addr" ] && [ -n "$murl" ] || { echo "could not parse addresses from:"; cat "$log"; exit 1; }
echo "e2e: server at $addr, metrics at $murl"

# Open-loop load over real TCP; -minops makes the driver itself assert
# that a sane fraction of the offered 20k/s over 2s actually completed.
"$workdir/trieload" -addr "$addr" -duration 2s -rate 20000 -conns 4 \
  -window 128 -mix update-heavy -u 65536 -minops 10000

# The scrape must show coalesced ingest: non-zero batched updates and
# sweeps, and zero per-op updates (coalescing is the default mode).
snapshot=$(curl -fsS "$murl/snapshot" 2>/dev/null || wget -qO- "$murl/snapshot")
echo "$snapshot" | python3 -c '
import json, sys
s = json.load(sys.stdin)
c = s["counters"]
batched = c.get("server.ops.update.batched", 0)
sweeps = c.get("server.batch.sweeps", 0)
perop = c.get("server.ops.update.perop", 0)
assert batched > 0, f"no batched updates recorded: {batched}"
assert sweeps > 0, f"no sweeps recorded: {sweeps}"
assert perop == 0, f"per-op updates on the coalescing path: {perop}"
print(f"e2e: scraped {batched} batched updates across {sweeps} sweeps")
'

# Graceful drain: SIGTERM, then the process must exit cleanly on its own.
kill -TERM "$srv_pid"
rc=0
wait "$srv_pid" || rc=$?
[ "$rc" -eq 0 ] || { echo "trieserve drain exited $rc:"; cat "$log"; exit 1; }
grep -q 'draining' "$log" || { echo "no drain message in:"; cat "$log"; exit 1; }
srv_pid=
echo "e2e: graceful drain verified"
