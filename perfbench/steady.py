#!/usr/bin/env python3
"""Steadiness report for perfbench.

Runs the benchmark several times per workload, each run with another seed,
and prints for every metric its median, its quartiles and its quartile
spread ((q3 - q1) / median, from statistics.quantiles(values, n=4)) next to
the metric's bound in BENCHMARK.json. Run from the repository root:

    python3 perfbench/steady.py --runs 10                      # all workloads
    python3 perfbench/steady.py --workloads store-hit --runs 5
    python3 perfbench/steady.py --runs 10 --save a.json        # keep the values
    python3 perfbench/steady.py --runs 10 --against a.json     # compare medians

Run i uses seed i. It exits non-zero when a run fails, a run prints other
metric names or units than BENCHMARK.json lists, a spread exceeds its
bound, or (with --against) a median is worse than the saved one by more
than the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return res["metrics"]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse(better, old, new):
    """Share by which new is worse than old (negative when better)."""
    if old == 0:
        return 0.0
    return (new - old) / old if better == "lower" else (old - new) / old


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--save", default="", help="write the measured values to this JSON file")
    ap.add_argument("--against", default="", help="compare medians with values saved by --save")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    specs = bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in specs}
    workloads = [w for w in opts.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    seconds = opts.seconds or bench["run_seconds"]
    before = {}
    if opts.against:
        with open(opts.against) as f:
            before = json.load(f)

    ok = True
    saved = {}
    for w in workloads:
        values = {name: [] for name in units}
        for seed in range(1, opts.runs + 1):
            metrics = run_once(bench["command"], w, seed, seconds)
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != units:
                print(f"{w} seed {seed}: metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(units.items())}")
                return 1
            for name in units:
                values[name].append(metrics[name]["value"])
            print(f"  {w} seed {seed}: " + " ".join(f"{n}={metrics[n]['value']:.6g}" for n in sorted(units)), flush=True)
        saved[w] = values
        print(f"{w}: {opts.runs} runs of {seconds}s")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in specs:
            name, bound = m["name"], m["bound"]
            q1, med, q3 = spread(values[name])
            s = (q3 - q1) / med if med else 0.0
            verdict = "ok" if s <= bound / 3 else ("over a third of bound" if s <= bound else "OVER BOUND")
            if s > bound:
                ok = False
            line = f"  {name:18} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} {bound:6.3f}  {verdict}"
            if w in before:
                old = statistics.median(before[w][name])
                d = worse(m["better"], old, med)
                line += f"  vs saved median {old:.6g}: {100 * d:+.2f}% worse"
                if d > bound:
                    ok = False
                    line += "  REGRESSION"
            print(line, flush=True)
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
