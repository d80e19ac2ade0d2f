#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs the benchmark (untraced, run_seconds from BENCHMARK.json) on every
workload for ten seeds, as two sets of runs of the same code, and prints
for every end-to-end metric of every workload: each set's median and
quartiles, the spread (interquartile distance as a share of the median,
as statistics.quantiles(n=4) gives the quartiles), and how far the second
median moved in the metric's worse direction. Both are checked against
the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py

Exits 1 if a check fails or a run reports a wrong answer.
"""
import json
import statistics
import subprocess
import sys

SETS = 2
SEEDS = 10


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    runs = []  # (set, workload, seed, result)
    for k in range(SETS):
        for i in range(SEEDS):
            seed = 1 + 1000 * k + i
            for w in workloads:
                res = run_once(w, seed, bench["run_seconds"])
                runs.append((k, w, seed, res))
                print(f"set {k} {w} seed {seed}: " + " ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.5g}" for m in metrics),
                    file=sys.stderr, flush=True)

    failed = False
    for _, w, seed, res in runs:
        if not res["correct"] or res["failed"]:
            print(f"WRONG ANSWERS: {w} seed {seed}: {res['failed']} of {res['attempted']} failed")
            failed = True
    print(f"{'workload':<15} {'metric':<14} {'set':>3} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6} {'drift':>7}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for k in range(SETS):
                vals = [r["metrics"][name]["value"] for kk, ww, _, r in runs if kk == k and ww == w]
                med, q1, q3, sp = spread(vals)
                meds.append(med)
                drift = ""
                verdict = []
                if sp > bound:
                    verdict.append("SPREAD>BOUND")
                    failed = True
                elif sp > bound / 3:
                    verdict.append("spread>bound/3")
                if len(meds) == 2 and meds[0]:
                    d = (meds[1] - meds[0]) / meds[0]
                    worse = d if m["better"] == "lower" else -d
                    drift = f"{worse:+.3f}"
                    if worse > bound:
                        verdict.append("DRIFT>BOUND")
                        failed = True
                print(f"{w:<15} {name:<14} {k:>3} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                      f"{sp:>7.3f} {bound:>6.2f} {drift:>7}  {' '.join(verdict) or 'ok'}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
