#!/usr/bin/env bash
# Live two-process smoke test for the client/server split + observability.
#
# Boots a real mope_serverd (TPC-H lineitem, l_shipdate MOPE-encrypted) with
# the full telemetry surface on: disk-backed storage, HTTP exposition,
# leakage audit, and slow-query tracing. A mope_shell proxy runs one
# encrypted query over loopback TCP, then the script asserts:
#
#   - the \serverstats wire endpoint reports the frames the query cost,
#   - GET /metrics serves Prometheus text with storage.wal fsync quantiles
#     and leakage.* gauges, /healthz reports the attached storage, /statusz
#     is JSON,
#   - the query (over a deliberately tiny --slow-query-ms) produced one
#     structured slow_query log line whose trace id matches the exported
#     Chrome trace, and that trace contains WAL + checkpoint spans,
#   - a live EXPLAIN ANALYZE over TCP prints the per-operator plan with
#     actuals plus the server-attributed resource vector, and the trace's
#     engine.batches_received reconciles *exactly* with the
#     engine_batches_received delta between two /metrics scrapes bracketing
#     the statement,
#   - the daemon's sampled query log (--query-log-sample) carries the same
#     profile, joinable by the EXPLAIN ANALYZE trace id,
#   - the in-process time-series sampler (--sample-every-ms) accumulates
#     history: GET /vars returns >= 3 samples of leakage.gap.margin with
#     monotonically increasing timestamps,
#   - a low-threshold alert rule fires: GET /alertz reports it firing and
#     the structured log carries the matching event=alert line,
#   - shutdown writes the --metrics-out file atomically and the --metrics
#     stderr dump still works.
#
# Usage: tools/smoke_remote.sh [BUILD_DIR]   (default: build)

set -eu

BUILD_DIR="${1:-build}"
SERVERD="$BUILD_DIR/tools/mope_serverd"
MOPE_SHELL="$BUILD_DIR/examples/example_mope_shell"
for bin in "$SERVERD" "$MOPE_SHELL"; do
  if [ ! -x "$bin" ]; then
    echo "smoke_remote: missing binary $bin (build first)" >&2
    exit 1
  fi
done
CURL="curl -sf --max-time 10"

server_log="$(mktemp)"
data_dir="$(mktemp -d)"
trace_file="$(mktemp -u)"    # written atomically by the daemon
metrics_file="$(mktemp -u)"  # written atomically at shutdown
cleanup() {
  kill "$server_pid" 2>/dev/null || true
  wait "$server_pid" 2>/dev/null || true
  rm -rf "$server_log" "$data_dir" "$trace_file" "$trace_file.query" \
      "$metrics_file"
}

# Port 0 = ephemeral: the daemon logs the ports it actually bound
# (event=listening / event=http_listening), so parallel CI jobs never
# collide. --slow-query-ms 0.001 makes every request "slow" so the query
# below deterministically exercises the trace-export path, and
# --checkpoint-every 1 puts real WAL + checkpoint work inside it.
# --sample-every-ms 200 keeps history accumulating fast enough to assert on;
# the alert rule's threshold is deliberately trivial (any served frame) so
# the firing edge is deterministic once the first query lands.
"$SERVERD" --tpch --scale 0.002 --port 0 --metrics \
    --data-dir "$data_dir" --http-port 0 --audit \
    --slow-query-ms 0.001 --slow-query-trace "$trace_file" \
    --checkpoint-every 1 --metrics-out "$metrics_file" \
    --query-log-sample 1 --sample-every-ms 200 \
    --alert-rule 'frames_served_nonzero: net.server.frames_served >= 1' \
    2>"$server_log" &
server_pid=$!
trap cleanup EXIT

# wait_for_port EVENT: poll the structured log for `event=EVENT ... port=N`
# and print N.
wait_for_port() {
  local found=""
  for _ in $(seq 1 300); do
    found="$(sed -n "s/.*event=$1 .*port=\([0-9][0-9]*\).*/\1/p" \
             "$server_log" | head -n 1)"
    [ -n "$found" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "smoke_remote: server exited during startup" >&2
      cat "$server_log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$found" ]; then
    echo "smoke_remote: never saw event=$1 in the log" >&2
    cat "$server_log" >&2
    exit 1
  fi
  echo "$found"
}

port="$(wait_for_port listening)"
http_port="$(wait_for_port http_listening)"
echo "smoke_remote: daemon up on port $port (http on $http_port)"

# One encrypted query over the wire. The shell re-derives the key from the
# shared seed; the daemon only ever sees ciphertext ranges.
query_out="$("$MOPE_SHELL" --connect "127.0.0.1:$port" \
    -c 'SELECT COUNT(*) FROM lineitem WHERE l_shipdate BETWEEN 100 AND 400')"
echo "$query_out"
echo "$query_out" | grep -q '^(1 rows)$' || {
  echo "smoke_remote: remote query did not return a result row" >&2
  exit 1
}
echo "$query_out" | grep -q '\[traffic: .* real + .* fake queries' || {
  echo "smoke_remote: traffic line missing from query output" >&2
  exit 1
}

# Snapshot the slow-query export now: every frame is "slow" at this
# threshold, so later traffic (\serverstats below) would overwrite it with
# a trace that never touched storage.
if [ ! -f "$trace_file" ]; then
  echo "smoke_remote: slow-query Chrome trace was never exported" >&2
  cat "$server_log" >&2
  exit 1
fi
trace_snapshot="$trace_file.query"
cp "$trace_file" "$trace_snapshot"

# The live stats endpoint: fetch the server's registry over the wire and
# check the daemon accounted for the frames the query just cost it.
stats_out="$("$MOPE_SHELL" --connect "127.0.0.1:$port" -c '\serverstats')"
frames="$(echo "$stats_out" |
          awk '$1 == "net.server.frames_served" {print $2}')"
batches="$(echo "$stats_out" |
           awk '$1 == "engine.batches_received" {print $2}')"
if [ -z "$frames" ] || [ "$frames" -eq 0 ]; then
  echo "smoke_remote: net.server.frames_served is zero or missing" >&2
  echo "$stats_out" >&2
  exit 1
fi
if [ -z "$batches" ] || [ "$batches" -eq 0 ]; then
  echo "smoke_remote: engine.batches_received is zero or missing" >&2
  echo "$stats_out" >&2
  exit 1
fi
echo "smoke_remote: stats endpoint live ($frames frames, $batches batches)"

# --- HTTP exposition over a real scrape. -----------------------------------
metrics_scrape="$($CURL "http://127.0.0.1:$http_port/metrics")"
echo "$metrics_scrape" | grep -q '^storage_wal_fsync_ns_p50 ' || {
  echo "smoke_remote: /metrics missing storage_wal_fsync_ns quantiles" >&2
  echo "$metrics_scrape" >&2
  exit 1
}
echo "$metrics_scrape" | grep -q '^leakage_' || {
  echo "smoke_remote: /metrics missing leakage.* gauges" >&2
  exit 1
}
echo "$metrics_scrape" | grep -q '^net_server_frames_served [1-9]' || {
  echo "smoke_remote: /metrics frame counter zero or missing" >&2
  exit 1
}
healthz="$($CURL "http://127.0.0.1:$http_port/healthz")"
echo "$healthz" | grep -q '^ok$' || {
  echo "smoke_remote: /healthz did not report ok" >&2
  echo "$healthz" >&2
  exit 1
}
echo "$healthz" | grep -q '^storage=attached$' || {
  echo "smoke_remote: /healthz did not report attached storage" >&2
  echo "$healthz" >&2
  exit 1
}
$CURL "http://127.0.0.1:$http_port/statusz" | grep -q '"leakage"' || {
  echo "smoke_remote: /statusz missing leakage verdict" >&2
  exit 1
}
$CURL "http://127.0.0.1:$http_port/statusz" | grep -q '"queries"' || {
  echo "smoke_remote: /statusz missing queries summary" >&2
  exit 1
}
echo "smoke_remote: /metrics + /healthz + /statusz live"

# --- Time-series history: /vars accumulates leakage.gap.margin. ------------
# At 200ms per sample three samples take ~600ms; poll rather than sleep so
# the happy path stays fast. Timestamps must be strictly increasing — the
# ring preserves sample order.
vars_json=""
points=0
for _ in $(seq 1 100); do
  vars_json="$($CURL \
      "http://127.0.0.1:$http_port/vars?metric=leakage.gap.margin&window=16" \
      || true)"
  points="$(echo "$vars_json" | grep -o '\[[0-9][0-9]*,-\{0,1\}[0-9][0-9]*\]' \
            | wc -l)"
  [ "$points" -ge 3 ] && break
  sleep 0.2
done
if [ "$points" -lt 3 ]; then
  echo "smoke_remote: /vars never accumulated 3 leakage.gap.margin samples" >&2
  echo "$vars_json" >&2
  exit 1
fi
echo "$vars_json" | grep -q '"name":"leakage.gap.margin"' || {
  echo "smoke_remote: /vars response names the wrong series" >&2
  echo "$vars_json" >&2
  exit 1
}
echo "$vars_json" | grep -o '\[[0-9][0-9]*,-\{0,1\}[0-9][0-9]*\]' |
    sed 's/\[\([0-9]*\),.*/\1/' | sort -cn || {
  echo "smoke_remote: /vars timestamps are not monotonically increasing" >&2
  echo "$vars_json" >&2
  exit 1
}
echo "smoke_remote: /vars history live ($points samples of leakage.gap.margin)"

# --- Alert rule fires and lands in both /alertz and the log. ---------------
# The rule breaches as soon as one frame is served; the engine evaluates on
# the next sampling tick, so poll briefly for the firing edge.
alertz_json=""
for _ in $(seq 1 100); do
  alertz_json="$($CURL "http://127.0.0.1:$http_port/alertz" || true)"
  echo "$alertz_json" | grep -q '"firing":[1-9]' && break
  sleep 0.2
done
echo "$alertz_json" | grep -q '"firing":[1-9]' || {
  echo "smoke_remote: /alertz never reported a firing rule" >&2
  echo "$alertz_json" >&2
  exit 1
}
echo "$alertz_json" |
    grep -q '"name":"frames_served_nonzero","rule":"frames_served_nonzero: net.server.frames_served >= 1","firing":true' || {
  echo "smoke_remote: /alertz does not show frames_served_nonzero firing" >&2
  echo "$alertz_json" >&2
  exit 1
}
grep -q 'event=alert rule=frames_served_nonzero state=firing' "$server_log" || {
  echo "smoke_remote: no event=alert log line for frames_served_nonzero" >&2
  grep "event=alert" "$server_log" >&2 || true
  exit 1
}
echo "smoke_remote: alert frames_served_nonzero firing (/alertz <-> log)"

# --- Live EXPLAIN ANALYZE <-> /metrics reconciliation. ---------------------
# Bracket one EXPLAIN ANALYZE with two /metrics scrapes: the profile's
# server-attributed batch count must equal the registry counter's delta —
# same numbers, two independent exposition paths. Nothing else talks to the
# daemon in between, so the comparison is exact.
batches_before="$($CURL "http://127.0.0.1:$http_port/metrics" |
                  awk '$1 == "engine_batches_received" {print $2}')"
explain_out="$("$MOPE_SHELL" --connect "127.0.0.1:$port" \
    -c 'EXPLAIN ANALYZE SELECT COUNT(*) FROM lineitem WHERE l_shipdate BETWEEN 100 AND 400')"
echo "$explain_out" | grep -q 'actual rows=' || {
  echo "smoke_remote: EXPLAIN ANALYZE printed no per-operator actuals" >&2
  echo "$explain_out" >&2
  exit 1
}
echo "$explain_out" | grep -q '^  net\.client\.roundtrips=' || {
  echo "smoke_remote: EXPLAIN ANALYZE resource vector missing wire bytes" >&2
  echo "$explain_out" >&2
  exit 1
}
profile_batches="$(echo "$explain_out" |
    sed -n 's/^ *engine\.batches_received=\([0-9][0-9]*\)$/\1/p')"
if [ -z "$profile_batches" ] || [ "$profile_batches" -eq 0 ]; then
  echo "smoke_remote: profile carries no engine.batches_received" >&2
  echo "$explain_out" >&2
  exit 1
fi
batches_after="$($CURL "http://127.0.0.1:$http_port/metrics" |
                 awk '$1 == "engine_batches_received" {print $2}')"
delta="$((batches_after - batches_before))"
if [ "$delta" -ne "$profile_batches" ]; then
  echo "smoke_remote: profile batches ($profile_batches) != /metrics delta" \
       "($batches_after - $batches_before = $delta)" >&2
  exit 1
fi
echo "smoke_remote: EXPLAIN ANALYZE profile reconciles with /metrics" \
     "($profile_batches batches)"

# The sampled query log carries the same profile, joinable by trace id.
explain_trace="$(echo "$explain_out" |
    sed -n 's/^ *trace_id=\([0-9][0-9]*\)$/\1/p')"
if [ -z "$explain_trace" ]; then
  echo "smoke_remote: EXPLAIN ANALYZE reported no trace_id" >&2
  echo "$explain_out" >&2
  exit 1
fi
grep -q "event=query .*trace_id=$explain_trace .*engine\.batches_received=" \
    "$server_log" || {
  echo "smoke_remote: no event=query log line with trace_id=$explain_trace" >&2
  grep "event=query" "$server_log" | head -n 3 >&2 || true
  exit 1
}
echo "smoke_remote: sampled query log joins trace $explain_trace"

# --- Slow-query log line <-> Chrome trace correlation. ---------------------
trace_id="$(sed -n 's/.*"trace_id":"\([0-9][0-9]*\)".*/\1/p' \
            "$trace_snapshot")"
if [ -z "$trace_id" ]; then
  echo "smoke_remote: exported trace carries no trace id" >&2
  cat "$trace_snapshot" >&2
  exit 1
fi
grep -q "event=slow_query .*trace=$trace_id\$" "$server_log" || {
  echo "smoke_remote: no slow_query log line with trace=$trace_id" >&2
  grep "event=slow_query" "$server_log" >&2 || true
  exit 1
}
for span in storage.wal.sync storage.checkpoint server.checkpoint; do
  grep -q "\"name\":\"$span\"" "$trace_snapshot" || {
    echo "smoke_remote: exported trace missing span $span" >&2
    cat "$trace_snapshot" >&2
    exit 1
  }
done
echo "smoke_remote: slow query trace $trace_id correlated (log <-> export)"

# Clean shutdown; --metrics dumps the registry as Prometheus text on stderr
# and --metrics-out writes the same text to a file atomically.
kill -TERM "$server_pid"
wait "$server_pid"
trap 'rm -rf "$server_log" "$data_dir" "$trace_file" "$metrics_file"' EXIT
grep -q '^net_server_frames_served [1-9]' "$server_log" || {
  echo "smoke_remote: --metrics dump missing nonzero frame counter" >&2
  cat "$server_log" >&2
  exit 1
}
if [ ! -f "$metrics_file" ]; then
  echo "smoke_remote: --metrics-out file was not written" >&2
  exit 1
fi
grep -q '^storage_wal_fsync_ns_p50 ' "$metrics_file" || {
  echo "smoke_remote: --metrics-out missing fsync quantiles" >&2
  cat "$metrics_file" >&2
  exit 1
}
echo "smoke_remote: OK"
