#!/usr/bin/env python3
"""Compare two sets of BENCH_<name>.json reports and flag regressions.

Each bench emits BENCH_<name>.json ({"bench": name, "rows": [{k: v}, ...]})
via bench::JsonReport. This tool pairs up a baseline set and a candidate set
(directories, or explicit file lists), matches rows by their identity keys
(every field except the measured ones), prints per-metric deltas, and exits
non-zero when any *regression-direction* relative delta exceeds the
threshold.

Which fields are measurements, and which direction is bad:

  * numeric fields named in --higher-worse (default: value, bandwidth,
    requests, ms, chi2) regress when they grow;
  * numeric fields named in --lower-worse (default: margin, confidence)
    regress when they shrink;
  * every other field (strings and remaining numerics alike) is identity —
    it names the data point.

Typical use (CI compares a fresh run against the committed perf trajectory):

  python3 tools/bench_compare.py --baseline bench/baselines --candidate . \
      --threshold 0.25

Exit status: 0 within threshold (or nothing to compare), 1 regression(s),
2 usage error. Missing counterpart files or rows are reported but are not
failures — benches come and go; only a measured regression fails. With
--require-rows a baseline row that has no candidate counterpart (its
report missing, or an identity field changed) is a failure too: a gate
whose rows pin exact counts or a server-visible stream must not pass
because a changed row stopped matching its baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_HIGHER_WORSE = ("value", "bandwidth", "requests", "ms", "chi2")
DEFAULT_LOWER_WORSE = ("margin", "confidence")


def load_reports(spec: str) -> dict[str, list[dict]]:
    """Loads {bench name: rows} from a directory of BENCH_*.json or a single
    file path."""
    path = Path(spec)
    files = sorted(path.glob("BENCH_*.json")) if path.is_dir() else [path]
    reports: dict[str, list[dict]] = {}
    for file in files:
        try:
            doc = json.loads(file.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench_compare: skipping {file}: {err}", file=sys.stderr)
            continue
        name = doc.get("bench", file.stem)
        rows = doc.get("rows", [])
        if isinstance(rows, list):
            reports[name] = [r for r in rows if isinstance(r, dict)]
    return reports


def row_identity(row: dict, measured: set[str]) -> tuple:
    """The hashable identity of a row: every non-measured field."""
    return tuple(sorted(
        (k, v) for k, v in row.items() if k not in measured
    ))


def compare(baseline: dict[str, list[dict]], candidate: dict[str, list[dict]],
            higher_worse: set[str], lower_worse: set[str],
            threshold: float, require_rows: bool = False) -> int:
    measured = higher_worse | lower_worse
    regressions = 0
    compared = 0
    missing = 0
    for bench in sorted(baseline):
        if bench not in candidate:
            print(f"  [missing] {bench}: no candidate report")
            missing += len(baseline[bench])
            continue
        base_rows = {row_identity(r, measured): r for r in baseline[bench]}
        cand_rows = {row_identity(r, measured): r for r in candidate[bench]}
        for identity in sorted(base_rows, key=str):
            if identity not in cand_rows:
                print(f"  [missing] {bench}: row {dict(identity)} gone")
                missing += 1
                continue
            base, cand = base_rows[identity], cand_rows[identity]
            for key in sorted(measured & base.keys() & cand.keys()):
                b, c = base[key], cand[key]
                if not isinstance(b, (int, float)) or isinstance(b, bool):
                    continue
                if not isinstance(c, (int, float)) or isinstance(c, bool):
                    continue
                compared += 1
                delta = c - b
                rel = delta / abs(b) if b != 0 else (0.0 if c == 0 else
                                                     float("inf"))
                bad = (key in higher_worse and rel > threshold) or \
                      (key in lower_worse and rel < -threshold)
                label = dict(identity)
                marker = "REGRESSION" if bad else "ok"
                print(f"  [{marker}] {bench} {label} {key}: "
                      f"{b:g} -> {c:g} ({rel:+.1%})")
                regressions += int(bad)
    print(f"bench_compare: {compared} metric(s) compared, "
          f"{regressions} regression(s) past {threshold:.0%}")
    if require_rows and missing:
        print(f"bench_compare: {missing} baseline row(s) without a candidate "
              "counterpart (--require-rows)")
        return 1
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True,
                        help="directory of BENCH_*.json (or one file)")
    parser.add_argument("--candidate", required=True,
                        help="directory of BENCH_*.json (or one file)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression threshold (default 0.25)")
    parser.add_argument("--higher-worse", nargs="*",
                        default=list(DEFAULT_HIGHER_WORSE),
                        help="numeric fields that regress by growing")
    parser.add_argument("--lower-worse", nargs="*",
                        default=list(DEFAULT_LOWER_WORSE),
                        help="numeric fields that regress by shrinking")
    parser.add_argument("--require-rows", action="store_true",
                        help="fail when a baseline row has no candidate "
                             "counterpart")
    args = parser.parse_args(argv)
    if args.threshold < 0:
        print("bench_compare: threshold must be >= 0", file=sys.stderr)
        return 2

    baseline = load_reports(args.baseline)
    candidate = load_reports(args.candidate)
    if not baseline:
        print(f"bench_compare: no baseline reports under {args.baseline} "
              "(nothing to compare; passing)")
        return 0
    return compare(baseline, candidate, set(args.higher_worse),
                   set(args.lower_worse), args.threshold, args.require_rows)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
