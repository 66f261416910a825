#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same code and compare them.

Usage, from the repository root:

    python3 bench/steadiness.py [--workload NAME ...] [--runs 10] [--sets 2]
                                [--seconds S] [--first-seed 1]

Every run is a fresh ``bench/run.py`` process with its own seed; set A uses
seeds first-seed .. first-seed+runs-1 and set B the next ``runs`` seeds.
For each workload and end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over the median) and the shift of
B's median against A's in the worse direction, and says whether both stay
within the metric's bound from BENCHMARK.json. The spread of ``setup_s`` is
shown but only its shift is held to the bound. It also compares the share
of failed operations between the sets, which must be identical. With
``--sets 1`` it only reports one set's spreads (a cheaper tuning run).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_set(workload, seeds, seconds):
    results = []
    for seed in seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print(f"  {workload} seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} wall={wall:.1f}s",
              flush=True)
    return results


def describe(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    summary = {}
    all_ok = True
    for workload in args.workload or names:
        sets = []
        for s in range(args.sets):
            first = args.first_seed + s * args.runs
            sets.append(run_set(workload, range(first, first + args.runs), args.seconds))
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
        share_ok = len(set().union(*shares)) == 1
        print(f"{workload}: failed share {sorted(set().union(*shares))} "
              f"{'identical' if share_ok else 'DIFFERS'}; correct="
              f"{all(r['correct'] for runs in sets for r in runs)}")
        all_ok &= share_ok and all(r["correct"] for runs in sets for r in runs)
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [describe([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            ok = all(st["spread"] <= bound for st in stats) or name == "setup_s"
            line = f"  {name:18s} bound {bound:.2f}"
            for label, st in zip("AB", stats):
                line += (f" | {label} median {st['median']:.5g} "
                         f"[{st['q1']:.5g}, {st['q3']:.5g}] spread {st['spread']:.3f}")
            shift = None
            if len(stats) == 2:
                a, b = stats[0]["median"], stats[1]["median"]
                shift = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                ok &= shift <= bound
                line += f" | worse by {shift:+.3f}"
            line += " | ok" if ok else " | OUT OF BOUND"
            print(line)
            all_ok &= ok
            summary[workload][name] = {"sets": stats, "worse_by": shift, "ok": ok}
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(summary, indent=1))
    print("all within bounds" if all_ok else "SOME METRICS OUT OF BOUND")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
