#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]
                                [--trace 0|1] [--out FILE] [--against FILE]

For every metric: the median over the seeds and the interquartile
distance as a share of that median (statistics.quantiles(values, n=4)),
next to the metric's bound in BENCHMARK.json.  --out saves the raw
values as JSON; --against compares these medians with a saved set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"seed {seed}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--against")
    a = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(a.seeds):
        r = run_once(a.workload, seed, seconds, a.trace)
        if not r["correct"] or r["failed"]:
            raise SystemExit(f"seed {seed}: correct={r['correct']} failed={r['failed']}")
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
              flush=True)
    base = json.load(open(a.against)) if a.against else {}
    print(f"{'metric':28} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        if name in base:
            bmed = statistics.median(base[name])
            better = next((m["better"] for m in bench["end_to_end"] if m["name"] == name), "lower")
            worse = (med - bmed) / bmed if better == "lower" else (bmed - med) / bmed
            verdict += f"  vs saved {bmed:.4g}: worse by {worse:+.3f}"
        print(f"{name:28} {med:12.4f} {spread:8.4f} {bound if bound is not None else '':>6}  {verdict}")
    if a.out:
        json.dump(values, open(a.out, "w"))


if __name__ == "__main__":
    main()
