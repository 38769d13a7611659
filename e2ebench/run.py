#!/usr/bin/env python3
"""FexIoT end-to-end benchmark: build, run, check, report.

One run of one workload (the form BENCHMARK.json names):

    python3 e2ebench/run.py --workload audit-logs --seed 1 --seconds 15 --trace 0

builds e2ebench/ (CMake, into $CARGO_TARGET_DIR or .bench_build), runs the
workload in its own process with a worker pool as wide as the CPUs this
process may use, prints one human-readable row on stderr, and prints one
JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics (from
untraced execution); with --trace 1 they are its per_layer metrics.

Every workload, one row each, with a results file:

    python3 e2ebench/run.py --all [--seed N] [--seeds K] [--sets S]
                            [--seconds S] [--trace-dir DIR] [--out FILE]

Determinism smoke check (tiny inputs, a few seconds per workload):

    python3 e2ebench/run.py --smoke

Python 3 standard library only.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["audit-logs", "audit-graphs", "serve-steady", "serve-churn", "federate"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=1):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(code)


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e), 2)


def build():
    """Configures (once) and builds bench_e2e; returns the binary path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "fexiot.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found: run from a full FexIoT checkout" % needed, 2)
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "bench_e2e",
                  "-j", str(cpus())])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=log,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if rc != 0:
                fail("build failed (exit %d); see %s" % (rc, log_path))
    return os.path.join(build_dir, "bench_e2e")


def run_binary(binary, workload, seed, seconds, trace, threads=None,
               extra=()):
    """Runs one workload process; returns its parsed JSON report."""
    env = dict(os.environ)
    if threads is not None:
        env["FEXIOT_THREADS"] = str(threads)
    env.setdefault("FEXIOT_THREADS", str(cpus()))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, proc.returncode))
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("%s printed no JSON report" % workload)


def correct(report):
    return bool(report["correct"]) and report["failed"] == 0


def row(report, metric_names):
    cells = []
    for name in metric_names:
        m = report["metrics"].get(name) or report["per_layer"].get(name)
        if m is not None:
            cells.append("%s=%.6g %s" % (name, m["value"], m["unit"]))
    status = "ok" if correct(report) else "INCORRECT %s" % report["errors"][:3]
    return "%-13s seed=%-3s %s attempted=%d failed=%d [%s]" % (
        report["workload"], report["seed"], " ".join(cells),
        report["attempted"], report["failed"], status)


def result_line(report, specs):
    """The last stdout line: exactly the metrics BENCHMARK.json lists."""
    metrics = {}
    source = report["per_layer"] if report["trace"] else report["metrics"]
    for spec in specs:
        m = source.get(spec["name"])
        if m is None:
            fail("workload did not report metric %s" % spec["name"])
        metrics[spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    return {"correct": correct(report), "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def git_sha():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if sha.returncode != 0:
        return "unknown"
    return sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def run_all(args, bench):
    binary = build()
    names = [m["name"] for m in bench["end_to_end"]]
    runs = []
    provenance = None
    # The sets interleave, and alternate which runs first, so that drift of
    # the host's speed over the recording hits every set alike.
    for i, seed in enumerate(range(args.seed, args.seed + args.seeds)):
        for workload in WORKLOADS:
            sets = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
            for s in sets:
                rep = run_binary(binary, workload, seed, args.seconds, False)
                rep["set"] = s
                provenance = rep["provenance"]
                runs.append(rep)
                print(row(rep, names), file=sys.stderr, flush=True)
    summary = {}
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        for workload in WORKLOADS:
            jsonl = os.path.join(args.trace_dir, workload + ".jsonl")
            rep = run_binary(binary, workload, args.seed, args.seconds, True,
                             extra=["--trace-out", jsonl])
            print(row(rep, [m["name"] for m in bench["per_layer"]]),
                  file=sys.stderr, flush=True)
            summary[workload] = {
                "seed": rep["seed"], "correct": correct(rep),
                "per_layer": {k: v["value"] for k, v in rep["per_layer"].items()},
                "spans": rep["spans"], "info": rep["info"]}
    prov = dict(provenance or {})
    prov.update({"git_sha": git_sha(), "seconds": args.seconds,
                 "seeds": list(range(args.seed, args.seed + args.seeds)),
                 "sets": args.sets})
    if args.trace_dir:
        with open(os.path.join(args.trace_dir, "summary.json"), "w") as f:
            json.dump({"bench": "e2e_trace", "provenance": prov,
                       "workloads": summary}, f, indent=1)
            f.write("\n")
    result = {"bench": "e2e", "provenance": prov, "runs": [
        {k: r[k] for k in ("workload", "seed", "set", "correct", "errors",
                           "attempted", "failed", "digest", "info")}
        | {"metrics": {k: v["value"] for k, v in r["metrics"].items()}}
        for r in runs]}
    out = args.out or os.path.join(ROOT, ".bench_build", "BENCH_e2e.json")
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print("wrote " + out, file=sys.stderr)
    return 0 if all(correct(r) for r in runs) else 1


def smoke():
    """Tiny inputs: every workload at 1 thread and at every CPU, untraced
    and traced. Outputs must be correct with no failed operation, and the
    output digests (audit verdicts and explanations, serve embeddings by
    request, federate FlResult) identical across the three runs. Two
    set-ups per run make the audit warm-up compare Analyze with the traced
    call sequence, and every serve run checks incremental graph parity."""
    binary = build()
    ok = True
    n = cpus()
    for workload in WORKLOADS:
        reports = [
            run_binary(binary, workload, 1, 0.5, trace, threads,
                       extra=["--smoke", "--setup-reps", "2"])
            for threads, trace in ((1, False), (n, False), (n, True))]
        digests = {r["digest"] for r in reports}
        good = all(correct(r) for r in reports) and len(digests) == 1
        ok = ok and good
        print("%-13s %s digest=%s threads=1,%d traced=0,0,1" % (
            workload, "PASS" if good else "FAIL", ",".join(sorted(digests)), n))
        for r in reports:
            if not correct(r):
                print("  errors: %s failed=%d" % (r["errors"][:5], r["failed"]))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--trace-dir")
    p.add_argument("--out")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.smoke:
        return smoke()
    if args.all:
        return run_all(args, bench)
    if args.workload is None:
        p.error("one of --workload, --all or --smoke is required")
    binary = build()
    rep = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace == 1)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    print(row(rep, [s["name"] for s in specs]), file=sys.stderr)
    print(json.dumps(result_line(rep, specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
