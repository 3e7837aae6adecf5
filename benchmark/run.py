#!/usr/bin/env python3
"""Run one workload of the VARAN benchmark and print its metrics.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload serve-read --seed 7 --seconds 20 --trace 0

The script builds benchmark/bench.exe, micro.exe and calib.exe with
dune, then runs the workload's jobs one after another, each in a child
process: the serving workloads' native baseline and capacity search
once, then the fixed-rate run again and again (at least three times) for
as long as the next one still ends within --seconds. Virtual metrics
must come out identical in every job of a run. Host metrics are medians
over the jobs; wall_s and setup_s are first divided by the host's
slowdown, which calib.exe measures before and after every job. With
--trace 1 it runs the workload untraced, then
traced, then the per-layer host-time rows, and reports the per-layer
metrics instead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Per-metric medians and quartiles, and the traced run's span trace, go
to .bench_out/. The exit code is non-zero when a check fails, and
nothing is printed when the benchmark cannot be built or run.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BUILD = os.path.join("_build", "default", "benchmark")
EXE = os.path.join(BUILD, "bench.exe")
MICRO = os.path.join(BUILD, "micro.exe")
CALIB = os.path.join(BUILD, "calib.exe")
TIMED = ("wall_s", "setup_s")  # host times reported at the reference speed
OUT = ".bench_out"
SERVING = ("serve-read", "serve-replicated-write")
MIN_REPS = 3
BUILD_TIMEOUT = 850
RUN_BUDGET = 170  # seconds after the build; the run must end within 180


def die(msg):
    print("benchmark: " + msg, file=sys.stderr)
    sys.exit(1)


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET
        self.slowdown = None  # the host's, measured after the last job

    def last_line(self, cmd, what):
        left = self.deadline - time.monotonic()
        if left <= 0:
            die("out of time before " + what)
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            die("%s did not finish in time" % what)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            die("%s exited with %d" % (what, p.returncode))
        return lines[-1]

    def calibrate(self):
        return float(self.last_line([CALIB], "calibration"))

    def job(self, kind, trace_out=None):
        if kind == "micro":
            cmd = [MICRO]
        else:
            cmd = [EXE, "--workload", self.workload, "--seed", str(self.seed), "--job", kind]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        before = self.slowdown if self.slowdown is not None else self.calibrate()
        result = json.loads(self.last_line(cmd, "job " + kind))
        self.slowdown = self.calibrate()
        # Divide out the host's slowdown around the job (see calib.ml).
        slowdown = (before + self.slowdown) / 2
        for name in TIMED:
            if name in result["host"]:
                result["host"][name] = [v / slowdown for v in result["host"][name]]
        result["host"]["slowdown"] = [slowdown]
        return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload " + args.workload)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./benchmark/bench.exe",
             "./benchmark/micro.exe", "./benchmark/calib.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if build.returncode != 0:
        die("build failed")

    run = Runner(args.workload, args.seed)
    out_dir = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    os.makedirs(out_dir, exist_ok=True)
    start = time.monotonic()
    extras, reps, traced = [], [], []
    if args.trace == 0:
        if args.workload in SERVING:
            extras.append(run.job("extra"))
        while True:
            t = time.monotonic()
            reps.append(run.job("fixed"))
            now = time.monotonic()
            # Stop once another rep as long as this one would end late.
            if len(reps) >= MIN_REPS and (now - start) + (now - t) > args.seconds:
                break
        declared = spec["end_to_end"]
    else:
        # Untraced reps for the tracing-overhead ratio, then the traced
        # rep and the per-layer host-time rows.
        while not reps or time.monotonic() - start < args.seconds / 3:
            reps.append(run.job("fixed"))
        traced.append(run.job("fixed", trace_out=os.path.join(out_dir, "trace.json")))
        extras.append(run.job("micro"))
        declared = spec["per_layer"]
    jobs = extras + reps + traced

    failures = [f for j in jobs for f in j["failures"]]
    # A seed fixes every virtual metric: all fixed-rate runs, traced or
    # not, must agree on them exactly.
    for j in reps[1:] + traced:
        if j["virtual"] != reps[0]["virtual"]:
            failures.append("virtual metrics differ between runs of one seed")

    samples = {}
    for j in jobs:
        for name, vs in j["host"].items():
            samples.setdefault(name, []).extend(vs)
    for name in ("wall_s", "peak_heap_mb"):
        samples[name] = [v for j in reps for v in j["host"][name]]
    values = {}
    for j in extras + reps:
        values.update(j["virtual"])
    for name, vs in samples.items():
        values[name] = statistics.median(vs)
    if traced:
        layers = dict((m["name"], 0.0) for m in spec["per_layer"])
        for j in traced + extras:
            for name, v in j["layers"].items():
                if name not in layers:
                    failures.append("undeclared per-layer metric " + name)
                layers[name] = v
        layers["trace.wall_ratio"] = (traced[0]["host"]["wall_s"][0]
                                      / statistics.median(samples["wall_s"]))
        values = layers

    metrics = {}
    for m in declared:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            failures.append("metric %s missing" % m["name"])
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    with open(os.path.join(out_dir, "metrics.json"), "w") as f:
        summary = {}
        for name, vs in sorted(samples.items()):
            q1, med, q3 = quartiles(vs)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(vs)}
        json.dump({"workload": args.workload, "seed": args.seed,
                   "virtual": reps[0]["virtual"], "host": summary,
                   "layers": values if traced else {},
                   "failures": failures}, f, indent=1, sort_keys=True)
        f.write("\n")

    for msg in failures:
        print("check failed: " + msg, file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(j["attempted"] for j in jobs),
        "failed": sum(j["failed"] for j in jobs),
        "metrics": metrics,
    }))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
