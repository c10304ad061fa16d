#!/usr/bin/env bash
# Checks that mope_serverd parses its numeric flags strictly: every garbage
# value below must make the daemon exit with status 2 and an error naming
# the flag, before it loads any data or binds a port. With --tpch an
# accepted value would load TPC-H and serve; the timeout turns that into a
# failure instead of a hang.
#
# Usage: tools/check_serverd_flags.sh PATH/TO/mope_serverd

set -u

SERVERD="${1:?usage: check_serverd_flags.sh PATH/TO/mope_serverd}"
failed=0

expect_rejected() {
  local flag="$1" value="$2" out status
  out=$(timeout 60 "$SERVERD" --tpch --port 0 "$flag" "$value" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 2 ] || ! printf '%s' "$out" | grep -q -- "$flag"; then
    echo "FAIL: $flag '$value' exited $status: $out" >&2
    failed=1
  fi
}

# A proxy holding the intended key could decrypt nothing from a daemon that
# read --seed zz as seed 0.
expect_rejected --seed zz
expect_rejected --seed -1
expect_rejected --seed +1
expect_rejected --seed " 1"
expect_rejected --seed 1x
expect_rejected --seed 0x
expect_rejected --seed 18446744073709551616
expect_rejected --audit-domain 0xZZ
expect_rejected --audit-domain 365.5
expect_rejected --scale abc
expect_rejected --scale 0
expect_rejected --scale -0.5
expect_rejected --scale inf
expect_rejected --scale nan
expect_rejected --scale "0.002 "
expect_rejected --slow-query-ms -1
expect_rejected --slow-query-ms nan
expect_rejected --slow-query-ms 5ms
expect_rejected --workers 0
expect_rejected --workers 257
expect_rejected --workers 4.0
expect_rejected --checkpoint-every -3
expect_rejected --checkpoint-every 99999999999999999999
expect_rejected --query-log-sample 1.5
expect_rejected --sample-every-ms +5

exit "$failed"
