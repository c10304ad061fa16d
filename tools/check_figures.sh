#!/usr/bin/env bash
# Byte-identity gate for the paper-figure benches.
#
# Every bench/baselines/BENCH_fig*.json names one figure bench (QueryU,
# QueryP[ρ], the cost sweeps and the adaptive buffer). Each runs from fixed
# seeds, so a fresh report must equal the committed one byte for byte: any
# difference is a change in what the query algorithms emit. This script runs
# each bench in a temporary directory, prints `diff -u` for every report that
# differs, and exits 1 if any does.
#
# Usage: tools/check_figures.sh <build-dir>     (e.g. tools/check_figures.sh build)
#
# Refresh a baseline only for a change that is meant to move a figure, and
# say why in the change.
set -euo pipefail

build="$(cd "${1:?usage: $0 <build-dir>}" && pwd)"
baselines="$(cd "$(dirname "$0")/../bench/baselines" && pwd)"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

status=0
for baseline in "$baselines"/BENCH_fig*.json; do
  report="$(basename "$baseline")"
  name="${report#BENCH_}"
  name="${name%.json}"
  (cd "$out" && "$build/bench/bench_$name" > /dev/null)
  if ! diff -u "$baseline" "$out/$report"; then
    echo "FAIL: $report differs from bench/baselines/$report" >&2
    status=1
  fi
done
[[ $status -eq 0 ]] && echo "figure reports byte-identical to bench/baselines/"
exit $status
