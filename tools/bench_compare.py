#!/usr/bin/env python3
"""Diff two perf-bench snapshots benchmark by benchmark.

The perf benches merge their full-run results into bench/out/BENCH_PERF.json
(one section per bench binary; see bench/perf_bench_main.h). Run with
--benchmark_repetitions=N, a bench writes one entry per repetition under
the same name. This script also reads google-benchmark's own JSON output
(--benchmark_out=FILE --benchmark_out_format=json), whose per-repetition
"iteration" runs it uses the same way.

For every benchmark present in both snapshots it reports the median ns/op
of each side with its interquartile range (IQR) and the change of the
medians. When the two IQRs overlap the change is within the spread of the
repetitions and is printed as `unresolved` instead of a percentage; a
benchmark with a single repetition on each side has a zero-width IQR, so
it always gets a percentage. What appeared or disappeared is listed too.

Usage:
  tools/bench_compare.py OLD.json NEW.json
  tools/bench_compare.py --threshold 10 bench/out/BENCH_PERF.json /tmp/new.json

Exit status is 0 unless a benchmark present in the baseline disappeared
from the candidate (coverage must never silently shrink), or --threshold
is given and some benchmark's median slowed down by more than that
percentage with non-overlapping IQRs; both exit 1 — usable as a cheap
perf gate. Stdlib only; no third-party dependencies.
"""

import argparse
import json
import statistics
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    """-> {(binary, bench_name): [ns_per_op, ...]}, one value per repetition."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    samples = {}
    if isinstance(doc.get("benchmarks"), list):
        # google-benchmark's own JSON: one file is one binary.
        for run in doc["benchmarks"]:
            if run.get("run_type", "iteration") != "iteration":
                continue
            if run.get("error_occurred"):
                continue
            name = run.get("run_name", run["name"])
            ns = run["real_time"] * _UNIT_NS[run.get("time_unit", "ns")]
            samples.setdefault(("", name), []).append(ns)
        return samples
    for binary, entries in sorted(doc.items()):
        for entry in entries:
            samples.setdefault((binary, entry["name"]), []).append(
                entry["ns_per_op"])
    return samples


def summarize(values):
    """-> (median, q1, q3) of the repetitions."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def fmt_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g}{unit}"
    return f"{ns:.3g}ns"


def fmt_side(median, q1, q3, reps):
    if reps == 1:
        return f"{fmt_ns(median):>9}"
    return f"{fmt_ns(median):>9} [{fmt_ns(q1)}..{fmt_ns(q3)}] x{reps}"


def display(binary, name):
    return f"{binary}:{name}" if binary else name


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="baseline snapshot")
    ap.add_argument("new", help="candidate snapshot")
    ap.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="PCT",
        help="exit 1 if any benchmark's median ns/op regressed by more "
        "than PCT%% with non-overlapping IQRs",
    )
    args = ap.parse_args()

    old = load(args.old)
    new = load(args.new)

    common = sorted(set(old) & set(new))
    added = sorted(set(new) - set(old))
    removed = sorted(set(old) - set(new))

    regressions = []
    corrupt = []
    unresolved = 0
    width = max((len(display(b, n)) for b, n in common), default=0)
    for key in common:
        o_med, o_q1, o_q3 = summarize(old[key])
        n_med, n_q1, n_q3 = summarize(new[key])
        prefix = (
            f"{display(*key):<{width}}  "
            f"{fmt_side(o_med, o_q1, o_q3, len(old[key]))} -> "
            f"{fmt_side(n_med, n_q1, n_q3, len(new[key]))}  "
        )
        if o_med <= 0:
            # A non-positive baseline is a corrupt or truncated snapshot,
            # not a benchmark that got infinitely faster; printing 0.0%
            # here would silently mask the broken comparison.
            corrupt.append((key, o_med))
            print(prefix + "   n/a  (baseline corrupt)")
            continue
        if o_q1 <= n_q3 and n_q1 <= o_q3 and (o_q1 < o_q3 or n_q1 < n_q3):
            unresolved += 1
            print(prefix + "unresolved")
            continue
        delta = (n_med - o_med) / o_med * 100.0
        print(prefix + f"{delta:+7.1f}%")
        if args.threshold is not None and delta > args.threshold:
            regressions.append((key, delta))

    for key in added:
        med, _, _ = summarize(new[key])
        print(f"{display(*key)}  NEW  {fmt_ns(med)}")
    for key in removed:
        print(f"{display(*key)}  REMOVED")

    print(
        f"\n{len(common)} compared ({unresolved} unresolved), "
        f"{len(added)} new, {len(removed)} removed",
        file=sys.stderr,
    )
    if corrupt:
        print(
            f"WARNING: {len(corrupt)} benchmark(s) have a non-positive "
            "baseline ns/op (corrupt or truncated baseline?); their deltas "
            "are not comparable:",
            file=sys.stderr,
        )
        for key, old_ns in corrupt:
            print(f"  {display(*key)}  baseline ns/op = {old_ns}",
                  file=sys.stderr)
    if regressions:
        print(
            f"FAIL: {len(regressions)} benchmark(s) regressed past "
            f"{args.threshold:.1f}%:",
            file=sys.stderr,
        )
        for key, delta in regressions:
            print(f"  {display(*key)}  {delta:+.1f}%", file=sys.stderr)
        return 1
    if removed:
        print(
            f"FAIL: {len(removed)} benchmark(s) removed from the baseline:",
            file=sys.stderr,
        )
        for key in removed:
            print(f"  {display(*key)}", file=sys.stderr)
        return 1
    if args.threshold is not None and corrupt:
        # A perf gate cannot pass rows it could not compare.
        print(
            f"FAIL: {len(corrupt)} benchmark(s) could not be gated against "
            "a corrupt baseline",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
