#!/usr/bin/env bash
# Integration smoke test for the network query service: boots
# `qgp_cli serve` on an ephemeral loopback port, drives it with the
# `qgp_cli delta` client and a scripted python3 client (query /
# malformed line / retired algo name / retired request field / delta /
# stats ops), then stops it cleanly via the shutdown op and checks the
# exit code.
#
#   tools/service_smoke.sh <path-to-qgp_cli> [workdir]
#
# Exits non-zero if the server fails to boot, any check fails, or the
# server does not shut down cleanly within the timeout.
set -euo pipefail

CLI=${1:?usage: service_smoke.sh <path-to-qgp_cli> [workdir]}
WORK=${2:-$(mktemp -d)}
LOG="$WORK/serve.log"

"$CLI" generate social "$WORK/graph.txt" --size=300 --seed=7 >/dev/null

"$CLI" serve "$WORK/graph.txt" --port=0 --allow-shutdown --result-cache \
  >"$LOG" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

# The ephemeral port is announced as "listening on 127.0.0.1:<port>".
PORT=""
for _ in $(seq 1 100); do
  PORT=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$LOG" || true)
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$LOG"; exit 1; }
  sleep 0.1
done
[ -n "$PORT" ] || { echo "server never announced a port"; cat "$LOG"; exit 1; }

# The CLI delta client: one batched mutation over the wire (set
# semantics make re-adding a present edge a harmless no-op, so this is
# stable across generator tweaks). The reply line carries the version
# and the counts, each read through the checked integer decoding.
"$CLI" delta "$PORT" +v:person +e:0,1,follow --tag=cli-1 \
  | grep -q "^delta applied: version=1 +v=1 -v=0 +e=[01] -e=0 " \
  || { echo "cli delta failed"; exit 1; }

python3 - "$PORT" <<'EOF'
import json, socket, sys

port = int(sys.argv[1])
sock = socket.create_connection(("127.0.0.1", port), timeout=30)
reader = sock.makefile("r")

def call(line):
    sock.sendall(line.encode() + b"\n")
    return json.loads(reader.readline())

# A pattern in the parser DSL: two person nodes linked by a follow edge.
pattern = "node x0 person\nnode x1 person\nedge x0 x1 follow\nfocus x0\n"

r = call(json.dumps({"op": "query", "pattern": pattern, "tag": "smoke-1"}))
assert r["ok"], r
assert r["tag"] == "smoke-1", r
assert isinstance(r["answers"], list) and len(r["answers"]) > 0, r

# The same query again: served from the result cache.
r = call(json.dumps({"op": "query", "pattern": pattern, "tag": "smoke-2"}))
assert r["ok"] and r["result_cache_hit"], r

# Malformed input gets a structured error, not a dropped connection.
r = call("this is not json")
assert not r["ok"] and r["error"]["code"] == "InvalidArgument", r
r = call(json.dumps({"op": "query", "pattern": pattern, "bogus_key": 1}))
assert not r["ok"] and r["error"]["code"] == "InvalidArgument", r

# The enumeration baselines are not served: "enum" is an unknown algo,
# and the next query on the same connection still answers (auto
# resolves to qmatch, so it replays the cached result).
r = call(json.dumps({"op": "query", "pattern": pattern, "algo": "enum"}))
assert not r["ok"] and r["error"]["code"] == "InvalidArgument", r
assert "unknown algo 'enum'" in r["error"]["message"], r
r = call(json.dumps({"op": "query", "pattern": pattern, "algo": "auto",
                     "tag": "after-enum"}))
assert r["ok"] and r["tag"] == "after-enum" and r["algo"] == "qmatch", r
assert r["result_cache_hit"], r

# The engine has one cache and no bypass: "share_cache" is an unknown
# request field, and the connection keeps answering from that cache.
r = call(json.dumps({"op": "query", "pattern": pattern,
                     "share_cache": False}))
assert not r["ok"] and r["error"]["code"] == "InvalidArgument", r
assert "unknown request field 'share_cache'" in r["error"]["message"], r
r = call(json.dumps({"op": "query", "pattern": pattern,
                     "tag": "after-share-cache"}))
assert r["ok"] and r["tag"] == "after-share-cache", r
assert r["result_cache_hit"], r

# Stats reflect the traffic so far (the CLI delta already ran).
r = call(json.dumps({"op": "stats"}))
assert r["ok"], r
assert r["service"]["queries_ok"] == 4, r
assert r["service"]["malformed"] == 4, r
assert r["service"]["deltas_ok"] == 1, r
assert r["engine"]["result_hits"] == 3, r

# A delta over the wire: tombstone one current answer; the version
# bumps, the cached result is invalidated, and the re-query no longer
# reports the removed vertex.
pre = call(json.dumps({"op": "query", "pattern": pattern, "tag": "pre-d"}))
assert pre["ok"] and len(pre["answers"]) > 0, pre
victim = pre["answers"][0]
r = call(json.dumps({"op": "delta", "remove_vertices": [victim],
                     "tag": "d-1"}))
assert r["ok"] and r["op"] == "delta" and r["tag"] == "d-1", r
assert r["graph_version"] == 2, r          # cli delta was version 1
assert r["vertices_removed"] == 1, r
post = call(json.dumps({"op": "query", "pattern": pattern, "tag": "post-d"}))
assert post["ok"] and not post["result_cache_hit"], post
assert victim not in post["answers"], post

# A broken delta is a structured error, not a dropped connection.
r = call(json.dumps({"op": "delta", "remove_vertices": [10**9]}))
assert not r["ok"] and r["error"]["code"] == "InvalidArgument", r

r = call(json.dumps({"op": "stats"}))
assert r["service"]["deltas_ok"] == 2, r
assert r["service"]["deltas_failed"] == 1, r
assert r["engine"]["deltas"] == 2, r
# Robustness counters are on the wire (additive keys).
assert r["service"]["shed"] == 0, r
assert r["engine"]["timeouts"] == 0, r
assert r["engine"]["cancellations"] == 0, r

# A query with a generous end-to-end deadline succeeds normally, and
# timeout_ms on a non-query op is a structured error.
r = call(json.dumps({"op": "query", "pattern": pattern, "tag": "deadline-1",
                     "timeout_ms": 30000}))
assert r["ok"] and r["tag"] == "deadline-1", r
r = call(json.dumps({"op": "stats", "timeout_ms": 5}))
assert not r["ok"] and r["error"]["code"] == "InvalidArgument", r

# Clean shutdown.
r = call(json.dumps({"op": "shutdown"}))
assert r["ok"] and r["op"] == "shutdown", r
print("client checks passed")
EOF

for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "server did not exit after shutdown op"; cat "$LOG"; exit 1
fi
wait "$SERVER_PID"
trap - EXIT

grep -q "^served " "$LOG" || { echo "missing final stats"; cat "$LOG"; exit 1; }

# Second boot: SIGTERM must trigger the same graceful drain as the
# shutdown op — the server announces the signal, drains, prints the
# final summary and exits 0 (not the default signal death).
LOG2="$WORK/serve_sigterm.log"
"$CLI" serve "$WORK/graph.txt" --port=0 --drain-timeout=1000 \
  >"$LOG2" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  grep -q "^listening on " "$LOG2" && break
  kill -0 "$SERVER_PID" 2>/dev/null || { cat "$LOG2"; exit 1; }
  sleep 0.1
done
kill -TERM "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "server did not exit after SIGTERM"; cat "$LOG2"; exit 1
fi
wait "$SERVER_PID" || { echo "non-zero exit after SIGTERM"; cat "$LOG2"; exit 1; }
trap - EXIT
grep -q "caught signal 15, draining" "$LOG2" \
  || { echo "missing drain announcement"; cat "$LOG2"; exit 1; }
grep -q "^served " "$LOG2" || { echo "missing final stats"; cat "$LOG2"; exit 1; }

echo "service smoke test passed"
