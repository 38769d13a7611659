#!/usr/bin/env python3
"""Compare two end-to-end results files against BENCHMARK.json's bounds.

    python3 e2ebench/perf_check.py BASE.json NEW.json
                                   [--base-set N] [--new-set N]

BASE and NEW are files written by `e2ebench/run.py --all --out FILE` (use
several seeds per workload: the spread between them is what separates a
change from noise). --base-set/--new-set pick one set of a multi-set file,
so two sets of one file can be compared with each other.

For every (workload, end-to-end metric) pair it compares the medians of
the two sides. The spread of a side is the distance between the first and
third quartile of its runs as a share of their median. A pair is
  regression  NEW's median is worse than BASE's by more than the bound,
              and both spreads are within the bound;
  unresolved  either spread exceeds the bound, unless every NEW run reads
              better than every BASE run (then: better);
  better      NEW's median is better by more than BASE's spread;
  ok          otherwise.
Prints one row per workload and exits 1 on any regression or any
incorrect NEW run, else 0. Python 3 standard library only.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path, want_set):
    with open(path) as f:
        data = json.load(f)
    runs = [r for r in data["runs"] if want_set is None or r.get("set") == want_set]
    by_workload = {}
    for r in runs:
        by_workload.setdefault(r["workload"], []).append(r)
    return by_workload


def spread(values):
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else None


def judge(base, new, spec):
    """Returns (cell text, status) for one metric of one workload."""
    bound = spec["bound"]
    sign = 1.0 if spec["better"] == "lower" else -1.0
    b_med, n_med = statistics.median(base), statistics.median(new)
    worse = sign * (n_med - b_med) / b_med if b_med else 0.0
    spreads = [spread(base), spread(new)]
    if sign > 0:
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if None in spreads or max(spreads) > bound:
        status = "better" if all_better else "unresolved"
    elif worse > bound:
        status = "REGRESSION"
    elif -worse > spreads[0]:
        status = "better"
    else:
        status = "ok"
    text = "%s %.4g->%.4g (%+.1f%% worse, spread %s) %s" % (
        spec["name"], b_med, n_med, 100 * worse,
        "/".join("n/a" if s is None else "%.1f%%" % (100 * s) for s in spreads),
        status)
    return text, status


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--base-set", type=int)
    p.add_argument("--new-set", type=int)
    p.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    base = load_runs(args.base, args.base_set)
    new = load_runs(args.new, args.new_set)
    failed = False
    for w in [w["name"] for w in bench["workloads"]]:
        if w not in base or w not in new:
            print("%-13s missing from %s" % (w, "BASE" if w not in base else "NEW"))
            continue
        cells = []
        for spec in bench["end_to_end"]:
            b = [r["metrics"][spec["name"]] for r in base[w]]
            n = [r["metrics"][spec["name"]] for r in new[w]]
            text, status = judge(b, n, spec)
            cells.append(text)
            failed = failed or status == "REGRESSION"
        incorrect = sum(1 for r in new[w] if not r["correct"] or r["failed"])
        failed = failed or incorrect > 0
        print("%-13s runs=%d/%d incorrect=%d | %s" % (
            w, len(base[w]), len(new[w]), incorrect, " | ".join(cells)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
