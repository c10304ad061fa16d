#!/usr/bin/env bash
# Crash-recovery smoke test for the disk-backed storage engine.
#
# Two scenarios, both over a real mope_serverd + mope_shell loopback pair,
# with the data directory only ever holding ciphertexts:
#
#   1. Checkpointed kill: load TPC-H into a fresh --data-dir, record the
#      answer to an encrypted range query, kill -9 the daemon, restart on
#      the same directory and require the exact same answer over the wire.
#
#   2. Mid-load kill (WAL replay): start a bigger load on a second fresh
#      directory and kill -9 while the WAL is still growing — before the
#      bootstrap checkpoint. The restart must report crash recovery, serve
#      the replayed prefix, and a further restart must serve the identical
#      count (recovery is idempotent).
#
# Scenario 1 additionally runs with --blackbox: the crash flight recorder
# persists after every dispatch, so the box a kill -9 leaves behind must
# decode via --dump-blackbox and its last trace id must name the final
# query the server finished before dying.
#
# On failure, if SMOKE_ARTIFACT_DIR is set the black box and server log are
# copied there for CI to upload.
#
# Usage: tools/smoke_recovery.sh [BUILD_DIR]   (default: build)

set -eu

BUILD_DIR="${1:-build}"
SERVERD="$BUILD_DIR/tools/mope_serverd"
MOPE_SHELL="$BUILD_DIR/examples/example_mope_shell"
for bin in "$SERVERD" "$MOPE_SHELL"; do
  if [ ! -x "$bin" ]; then
    echo "smoke_recovery: missing binary $bin (build first)" >&2
    exit 1
  fi
done

dir1="$(mktemp -d)"
dir2="$(mktemp -d)"
server_log="$(mktemp)"
blackbox="$dir1/blackbox.bin"
server_pid=""
cleanup() {
  rc=$?
  # Preserve the crash evidence for CI's failure artifact before the temp
  # dirs vanish.
  if [ "$rc" -ne 0 ] && [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACT_DIR" 2>/dev/null || true
    cp -f "$blackbox" "$SMOKE_ARTIFACT_DIR/" 2>/dev/null || true
    cp -f "$blackbox.fatal" "$SMOKE_ARTIFACT_DIR/" 2>/dev/null || true
    cp -f "$server_log" "$SMOKE_ARTIFACT_DIR/smoke_recovery_server.log" \
        2>/dev/null || true
  fi
  [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
  [ -n "$server_pid" ] && wait "$server_pid" 2>/dev/null || true
  rm -rf "$dir1" "$dir2" "$server_log"
}
trap cleanup EXIT

QUERY='SELECT COUNT(*) FROM lineitem WHERE l_shipdate BETWEEN 100 AND 400'

# start_daemon SCALE DATA_DIR [EXTRA_FLAGS...]: boot serverd, wait for it to
# listen, and set $port / $server_pid.
start_daemon() {
  scale="$1"
  data_dir="$2"
  shift 2
  : >"$server_log"
  "$SERVERD" --tpch --scale "$scale" --port 0 --data-dir "$data_dir" "$@" \
      2>"$server_log" &
  server_pid=$!
  port=""
  for _ in $(seq 1 600); do
    port="$(sed -n 's/.*event=listening .*port=\([0-9][0-9]*\).*/\1/p' \
            "$server_log" | head -n 1)"
    [ -n "$port" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "smoke_recovery: server exited during startup" >&2
      cat "$server_log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "smoke_recovery: server never started listening" >&2
    cat "$server_log" >&2
    exit 1
  fi
}

# count_query: run $QUERY against $port and print the bare count.
count_query() {
  "$MOPE_SHELL" --connect "127.0.0.1:$port" -c "$QUERY" |
      sed -n 's/^ *\([0-9][0-9]*\) *$/\1/p' | head -n 1
}

hard_kill() {
  kill -9 "$server_pid" 2>/dev/null || true
  wait "$server_pid" 2>/dev/null || true
  server_pid=""
}

# --- Scenario 1: kill after checkpoint, answers must be identical. ---------
start_daemon 0.002 "$dir1" --blackbox "$blackbox"
echo "smoke_recovery: daemon up on port $port (data dir $dir1)"
grep -q "event=checkpointed" "$server_log" || {
  echo "smoke_recovery: fresh data dir was not checkpointed after load" >&2
  cat "$server_log" >&2
  exit 1
}
expected="$(count_query)"
if [ -z "$expected" ] || [ "$expected" -eq 0 ]; then
  echo "smoke_recovery: baseline query returned no count" >&2
  exit 1
fi
echo "smoke_recovery: baseline count = $expected"

# The final statement before the kill: its trace id must be the last one the
# flight recorder persisted (the recorder writes after every dispatch, so
# even SIGKILL cannot lose the completed query).
explain_out="$("$MOPE_SHELL" --connect "127.0.0.1:$port" \
    -c "EXPLAIN ANALYZE $QUERY")"
final_trace="$(echo "$explain_out" |
    sed -n 's/^ *profile\.trace_id=\([0-9][0-9]*\)$/\1/p')"
if [ -z "$final_trace" ]; then
  echo "smoke_recovery: EXPLAIN ANALYZE reported no profile.trace_id" >&2
  echo "$explain_out" >&2
  exit 1
fi
hard_kill
echo "smoke_recovery: daemon killed with SIGKILL"

for f in wal.log storage.meta; do
  [ -f "$dir1/$f" ] || {
    echo "smoke_recovery: $f missing from data dir after kill" >&2
    exit 1
  }
done

# --- Black box: the kill-9 corpse must name the final query. ---------------
[ -f "$blackbox" ] || {
  echo "smoke_recovery: --blackbox file missing after SIGKILL" >&2
  exit 1
}
dump="$("$SERVERD" --dump-blackbox "$blackbox")"
echo "$dump" | grep -q "server.dispatch.done" || {
  echo "smoke_recovery: black box has no dispatch.done events" >&2
  echo "$dump" >&2
  exit 1
}
box_trace="$(echo "$dump" |
    sed -n 's/^blackbox\.last_trace_id=\([0-9][0-9]*\)$/\1/p')"
if [ "$box_trace" != "$final_trace" ]; then
  echo "smoke_recovery: black box last trace id ($box_trace) does not" \
       "match the final query ($final_trace)" >&2
  echo "$dump" | tail -n 20 >&2
  exit 1
fi
echo "smoke_recovery: black box last trace id matches final query" \
     "($final_trace)"

start_daemon 0.002 "$dir1"
grep -q "event=recovered .*tables=1" "$server_log" || {
  echo "smoke_recovery: restart did not recover the table" >&2
  cat "$server_log" >&2
  exit 1
}
actual="$(count_query)"
if [ "$actual" != "$expected" ]; then
  echo "smoke_recovery: count mismatch after restart:" \
       "expected $expected got ${actual:-none}" >&2
  exit 1
fi
echo "smoke_recovery: post-restart count matches ($actual)"
hard_kill

# --- Scenario 2: kill mid-load, WAL replay must yield a stable prefix. -----
: >"$server_log"
"$SERVERD" --tpch --scale 0.02 --port 0 --data-dir "$dir2" 2>"$server_log" &
server_pid=$!
killed_midload=""
for _ in $(seq 1 2000); do
  if grep -q "event=checkpointed" "$server_log"; then
    break  # load finished before we pulled the trigger
  fi
  wal_size="$(stat -c %s "$dir2/wal.log" 2>/dev/null || echo 0)"
  if [ "$wal_size" -gt 200000 ]; then
    kill -9 "$server_pid"
    killed_midload=1
    break
  fi
  sleep 0.01
done
wait "$server_pid" 2>/dev/null || true
server_pid=""
if [ -z "$killed_midload" ]; then
  echo "smoke_recovery: load finished before mid-load kill; raise --scale" >&2
  exit 1
fi
echo "smoke_recovery: daemon killed mid-load (wal.log at $wal_size bytes)"

start_daemon 0.02 "$dir2"
grep -q "crash_recovery=true" "$server_log" || {
  echo "smoke_recovery: restart did not report WAL replay" >&2
  cat "$server_log" >&2
  exit 1
}
replayed="$(count_query)"
if [ -z "$replayed" ]; then
  echo "smoke_recovery: query after WAL replay returned no count" >&2
  exit 1
fi
echo "smoke_recovery: WAL replay served prefix count = $replayed"
hard_kill

# Recovery must be idempotent: a second restart serves the same answer.
start_daemon 0.02 "$dir2"
again="$(count_query)"
if [ "$again" != "$replayed" ]; then
  echo "smoke_recovery: recovered count unstable across restarts:" \
       "$replayed then ${again:-none}" >&2
  exit 1
fi
echo "smoke_recovery: recovery idempotent across restarts ($again)"
kill -TERM "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "smoke_recovery: OK"
