#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

Runs each workload as two sets of runs of the same code, every run with
its own seed and BENCHMARK.json's run_seconds, and reports per
end-to-end metric:

  spread  the distance between the first and third quartile of a set's
          values (statistics.quantiles, n=4) as a share of their median;
  drift   how far the second set's median is from the first's, either
          way, as a share of the first's.

Both are compared with the metric's bound in BENCHMARK.json, setup_s
included. A set's spread or the drift above the bound fails the check; a
spread above a third of the bound is flagged as not yet steady. The
default of ten runs per set is the acceptance check; fewer runs make a
quicker, noisier probe (spr_all then pools both sets).

Run from the repository root:

  python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...]

Raw results go to .bench_build/perfbench/steadiness-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {res}")
    return res, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first, second):
    m1 = statistics.median(first)
    return abs(statistics.median(second) - m1) / m1


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workload", action="append",
                    help="workload to check (default: all)")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    raw = {}
    ok = True
    for w in workloads:
        sets = []
        for k in range(2):
            runs = []
            for i in range(args.runs):
                seed = 1000 * (k + 1) + i
                res, wall = run_once(bench["command"], w, seed, bench["run_seconds"])
                runs.append({"seed": seed, "wall_s": wall, "metrics": res["metrics"]})
                print(f"{w} set {k + 1} seed {seed}: {wall:.1f}s wall, "
                      + " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g}"
                                 for m in metrics), flush=True)
            sets.append(runs)
        raw[w] = sets
        print(f"\n{w}: 2 sets of {args.runs} runs")
        print(f"  {'metric':<14} {'bound':>6} " + " ".join(
            f"{'med' + str(k + 1):>9} {'spr' + str(k + 1):>6}" for k in range(2))
            + f" {'spr_all':>7} {'drift':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            spreads = [spread(v) for v in vals]
            allv = [x for v in vals for x in v]
            d = drift(vals[0], vals[1])
            verdict = "ok"
            if max(spreads) > bound:
                verdict, ok = "FAIL spread", False
            elif d > bound:
                verdict, ok = "FAIL drift", False
            elif max(spreads) > bound / 3:
                verdict = "unsteady (spread > bound/3)"
            print(f"  {name:<14} {bound:>6.2f} " + " ".join(
                f"{statistics.median(v):>9.4g} {s:>6.3f}" for v, s in zip(vals, spreads))
                + f" {spread(allv):>7.3f} {d:>7.3f}  {verdict}")
        walls = [r["wall_s"] for runs in sets for r in runs]
        print(f"  run wall time: median {statistics.median(walls):.1f}s, max {max(walls):.1f}s\n", flush=True)

    out = os.path.join(".bench_build", "perfbench", time.strftime("steadiness-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(raw, f, indent=1)
    print(f"raw results: {out}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
