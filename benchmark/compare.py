#!/usr/bin/env python3
"""Compares benchmark result files from a parent commit and a change.

    python3 benchmark/compare.py --parent P1.json P2.json ... \
        [--change C1.json C2.json ...] [--claim METRIC:WORKLOAD] \
        [--benchmark BENCHMARK.json]
    python3 benchmark/compare.py --self-test

Each file is what `benchmark/run.sh --out FILE` writes: a JSON array of
run records (or one record). Pair i is the i-th parent run of a workload
with the i-th change run of it; run the pairs alternately, parent first in
one pair and the change first in the next, with the same seed per pair.

For every (metric, workload) it prints each side's median and quartiles
(statistics.quantiles, n=4) and a verdict:

  regression  the change's median is worse than the parent's by more than
              the metric's bound (BENCHMARK.json);
  unresolved  the parent's own quartile spread is wider than the bound, so
              no-regression cannot be shown -- unless every change run reads
              better than every parent run;
  ok          neither.

With only --parent it prints the medians, quartiles and spreads of one
set of runs (how steady the benchmark is). --claim checks a named gain by
the choosing-metrics rule: at least 10 pairs, the change wins at least
nine tenths of them (ties count for neither), and the medians differ by
more than the parent's quartile spread. Exit status 1 on any regression
or an unmet claim. Standard library only.
"""

import argparse
import json
import math
import os
import statistics
import sys


def load_records(paths):
    """Every run record in the given files, in file order."""
    records = []
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        records.extend(data if isinstance(data, list) else [data])
    return records


def by_workload(records):
    """workload -> metric -> list of values, in record order."""
    out = {}
    for rec in records:
        metrics = out.setdefault(rec["workload"], {})
        for name, m in rec["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def summary(values):
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def worse_by(parent_med, change_med, better):
    """How much worse the change's median is, as a share of the parent's."""
    if parent_med == 0:
        return 0.0 if change_med == parent_med else float("inf")
    delta = (change_med - parent_med) / abs(parent_med)
    return delta if better == "lower" else -delta


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(parent, change, better, bound):
    """'regression', 'unresolved' or 'ok' for one (metric, workload)."""
    p_med, _, _, p_spread = summary(parent)
    c_med = statistics.median(change)
    if worse_by(p_med, c_med, better) > bound:
        return "regression"
    all_better = all(is_better(c, p, better) for c in change for p in parent)
    if p_spread > bound and not all_better:
        return "unresolved"
    return "ok"


def claim_met(parent, change, better):
    """The choosing-metrics rule for a gain; returns (met, wins, pairs)."""
    pairs = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if is_better(c, p, better))
    _, p_q1, p_q3, _ = summary(parent)
    gap = abs(statistics.median(change) - statistics.median(parent))
    met = pairs >= 10 and wins >= math.ceil(0.9 * pairs) and gap > p_q3 - p_q1
    return met, wins, pairs


def metric_specs(benchmark_path):
    with open(benchmark_path) as f:
        spec = json.load(f)
    specs = {m["name"]: m for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        specs.setdefault(m["name"], m)
    return specs


def fmt(v):
    return f"{v:.6g}"


def report(args):
    specs = metric_specs(args.benchmark)
    parent = by_workload(load_records(args.parent))
    change = by_workload(load_records(args.change)) if args.change else None
    failed = False
    header = ["workload", "metric", "bound", "parent median [q1, q3]",
              "spread"]
    if change is not None:
        header += ["change median [q1, q3]", "worse by", "verdict"]
    rows = [header]
    for workload in sorted(parent):
        for name, p_vals in parent[workload].items():
            spec = specs.get(name, {"better": "lower"})
            bound = spec.get("bound")
            p_med, p_q1, p_q3, p_spread = summary(p_vals)
            row = [workload, name, "-" if bound is None else fmt(bound),
                   f"{fmt(p_med)} [{fmt(p_q1)}, {fmt(p_q3)}] n={len(p_vals)}",
                   f"{p_spread:.4f}"]
            if change is not None:
                c_vals = change.get(workload, {}).get(name)
                if not c_vals:
                    row += ["missing", "-", "missing"]
                    failed = True
                else:
                    c_med, c_q1, c_q3, _ = summary(c_vals)
                    v = "-" if bound is None else verdict(
                        p_vals, c_vals, spec["better"], bound)
                    failed |= v == "regression"
                    row += [f"{fmt(c_med)} [{fmt(c_q1)}, {fmt(c_q3)}] "
                            f"n={len(c_vals)}",
                            f"{worse_by(p_med, c_med, spec['better']):+.4f}",
                            v]
            elif bound is not None and p_spread > bound:
                row[-1] += " (wider than the bound)"
            rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())

    for claim in args.claim:
        name, _, workload = claim.partition(":")
        p_vals = parent.get(workload, {}).get(name)
        c_vals = (change or {}).get(workload, {}).get(name)
        if not p_vals or not c_vals:
            print(f"claim {claim}: no runs of both sides")
            failed = True
            continue
        met, wins, pairs = claim_met(p_vals, c_vals,
                                     specs.get(name, {})["better"])
        print(f"claim {claim}: change wins {wins} of {pairs} pairs -> "
              f"{'MET' if met else 'NOT MET'}")
        failed |= not met
    return 1 if failed else 0


def self_test():
    failures = []

    def expect(ok, what):
        if not ok:
            failures.append(what)

    med, q1, q3, spread = summary([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    expect((med, q1, q3) == (5.5, 2.75, 8.25), "quartiles match statistics")
    expect(abs(spread - 1.0) < 1e-12, "spread is (q3 - q1) / median")
    expect(summary([4])[3] == 0.0, "one run has no spread")
    steady = [100 + i * 0.1 for i in range(10)]
    expect(verdict(steady, [x * 1.05 for x in steady], "lower", 0.10) == "ok",
           "5% worse is within a 10% bound")
    expect(verdict(steady, [x * 1.2 for x in steady], "lower",
                   0.10) == "regression", "20% worse is a regression")
    expect(verdict(steady, [x * 0.8 for x in steady], "higher",
                   0.10) == "regression", "direction follows 'better'")
    noisy = [50, 150, 80, 120, 100, 60, 140, 90, 110, 70]
    expect(verdict(noisy, noisy, "lower", 0.10) == "unresolved",
           "a spread wider than the bound is unresolved")
    expect(verdict(noisy, [10] * 10, "lower", 0.10) == "ok",
           "unless every change run beats every parent run")
    expect(claim_met(steady, [x * 0.9 for x in steady], "lower")[0],
           "ten winning pairs meet a claim")
    expect(not claim_met(steady[:9], [x * 0.9 for x in steady[:9]],
                         "lower")[0], "a claim needs ten pairs")
    mixed = [x * 0.9 for x in steady[:8]] + [x * 1.1 for x in steady[8:]]
    expect(not claim_met(steady, mixed, "lower")[0],
           "8 of 10 wins do not meet a claim")
    expect(not claim_met(noisy, [x - 1 for x in noisy], "lower")[0],
           "a gap inside the parent's spread does not meet a claim")
    for what in failures:
        print(f"self-test FAILED: {what}", file=sys.stderr)
    print(f"compare.py self-test: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", default=[])
    ap.add_argument("--change", nargs="+", default=[])
    ap.add_argument("--claim", action="append", default=[],
                    help="METRIC:WORKLOAD that the change claims to improve")
    ap.add_argument("--benchmark",
                    default=os.path.join(here, "..", "BENCHMARK.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent:
        ap.error("--parent needs at least one result file")
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
