#!/usr/bin/env python3
"""Run one grandam benchmark workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, one process each

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
grandam is imported from ``src/`` next to this directory; without it the
run stops with exit code 2. See README.md for the workloads and metrics.
"""

import os

# One BLAS thread for this process and every child it starts (set before numpy loads).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

NAMES = ("equivalence", "norm-large", "conv-trials", "cli-subcommands")
SETUP_REPEATS = 3   # set-ups per run: this process plus two set-up-only children

# per-layer metric -> (span name, field); fields are per timed operation
PER_LAYER = {
    "grand.grand_norm.calls": ("grand.grand_norm", "calls"),
    "grand.grand_norm.self_ms": ("grand.grand_norm", "self_ms"),
    "core.lp_norm.calls": ("core.lp_norm", "calls"),
    "core.lp_norm.ms": ("core.lp_norm", "ms"),
    "amalgam.control_function.calls": ("amalgam.control_function", "calls"),
    "amalgam.control_function.self_ms": ("amalgam.control_function", "self_ms"),
    "amalgam.translate_window.ms": ("amalgam.translate_window", "ms"),
    "amalgam.validate_bupu.calls": ("amalgam.validate_bupu", "calls"),
    "amalgam.validate_bupu.ms": ("amalgam.validate_bupu", "ms"),
    "amalgam.equivalence_report.self_ms": ("amalgam.equivalence_report", "self_ms"),
    "convolution.convolve.calls": ("convolution.convolve", "calls"),
    "convolution.convolve.ms": ("convolution.convolve", "ms"),
    "convolution.submultiplicativity_check.self_ms":
        ("convolution.submultiplicativity_check", "self_ms"),
    "convolution.first_convolve_ms": None,
    "iofmt.load_function.ms": ("iofmt.load_function", "ms"),
    "iofmt.render_report.ms": ("iofmt.render_report", "ms"),
    "cli.start_ms": None,
    "cli.main.self_ms": ("cli.main", "self_ms"),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for repeats)")
    return ap.parse_args(argv)


def fail(msg):
    sys.stderr.write(f"bench: {msg}\n")
    sys.exit(2)


def quantile(sorted_vals, q):
    """Linear-interpolation quantile of an ascending list."""
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def setup_child(args):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def per_layer_metrics(spans, op_ids, extra):
    from tracer import summarize
    n = len(op_ids)
    totals = summarize(spans, op_ids)
    metrics = {}
    for metric, source in PER_LAYER.items():
        if source is None:
            value = extra.get(metric, 0.0)
        else:
            calls, total, self_t = totals.get(source[0], (0, 0.0, 0.0))
            value = {"calls": calls / n, "ms": 1e3 * total / n,
                     "self_ms": 1e3 * self_t / n}[source[1]]
        unit = "count" if metric.endswith(".calls") else "ms"
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def first_convolve_ms(spans):
    from tracer import SETUP_OP
    times = [t1 - t0 for name, t0, t1, _, op in spans
             if op == SETUP_OP and name == "convolution.convolve"]
    return 1e3 * sum(times) / len(times) if times else 0.0


def run_one(args):
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_one(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_one(args, workdir):
    t_start = time.perf_counter()
    import grandam  # the import is part of set-up
    if Path(grandam.__file__).resolve().parent != SRC / "grandam":
        fail(f"grandam was imported from {grandam.__file__}, not from {SRC}")
    import workloads
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, bool(args.trace))
    wl.setup()
    setup_times = [time.perf_counter() - t_start]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_times[0]}))
        return 0
    if not args.trace:
        setup_times += [setup_child(args) for _ in range(SETUP_REPEATS - 1)]

    cycle = wl.cycle
    n_ops = wl.rounds(args.seconds) * len(cycle)
    kept, latencies, timed_ids = {}, [], []
    failed, errors, problems = 0, [], []

    clock = time.perf_counter
    phase_start = clock()
    for k in range(n_ops):
        op = cycle[k % len(cycle)]
        if not op.timed:
            continue
        inp = wl.prepare(k, op)
        if tracer:
            tracer.op = k
        try:
            t0 = clock()
            raw = wl.run(op, inp)
            t1 = clock()
        except Exception as err:  # an operation that raises is a failed operation
            failed += 1
            errors.append(f"op {k} ({op.label}) raised {err!r}")
            continue
        finally:
            if tracer:
                tracer.op = None
        latencies.append(t1 - t0)
        timed_ids.append(k)
        kept[k] = wl.keep(k, op, inp, raw)
    phase = clock() - phase_start
    if not latencies:
        fail("no timed operation completed: " + "; ".join(errors[:3]))
    wl.timed_phase_done(kept)
    peak_rss = wl.peak_rss_mb()

    # untimed operations: the float-range cases of norm-large
    for k in range(n_ops):
        op = cycle[k % len(cycle)]
        if op.timed:
            continue
        try:
            kept[k] = wl.run(op, wl.prepare(k, op))
        except Exception as err:
            failed += 1
            errors.append(f"op {k} ({op.label}) raised {err!r}")

    t_check = clock()
    for k, value in sorted(kept.items()):
        op = cycle[k % len(cycle)]
        verdict = wl.check(k, op, value, wl.deep(k))
        failed += verdict.failed
        if verdict.problem:
            problems.append(verdict.problem)
    check_s = clock() - t_check
    correct = not problems
    for msg in (errors + problems)[:20]:
        sys.stderr.write(f"bench: {msg}\n")

    completed = len(latencies)
    by_label = {}
    for k, t in zip(timed_ids, latencies):
        by_label.setdefault(cycle[k % len(cycle)].label, []).append(t)
    info = {"workload": args.workload, "seed": args.seed, "timed_ops": completed,
            "timed_phase_s": phase, "throughput_ops_s": completed / phase,
            "check_s": check_s, "trace": args.trace,
            "p50_ms_by_op": {label: 1e3 * quantile(sorted(ts), 0.5)
                             for label, ts in by_label.items()}}
    if tracer:
        spans = tracer.spans
        extra = {"convolution.first_convolve_ms": first_convolve_ms(spans)}
        if hasattr(wl, "trace_spans"):
            child_spans, starts = wl.trace_spans(kept, len(spans))
            spans = spans + child_spans
            extra["cli.start_ms"] = 1e3 * sum(starts) / len(starts)
        metrics = per_layer_metrics(spans, timed_ids, extra)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", "w",
                  encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    else:
        lat = sorted(latencies)
        setup = sorted(setup_times)
        metrics = {
            "throughput_ops_s": {"value": completed / phase, "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * quantile(lat, 0.5), "unit": "ms"},
            "latency_p90_ms": {"value": 1e3 * quantile(lat, 0.9), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
            "setup_s": {"value": quantile(setup, 0.5), "unit": "s"},
        }
        info["setup_samples_s"] = setup_times
    result = {"correct": correct, "attempted": n_ops, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process; a table, then one JSON line per workload."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"{name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:48s} {m['value']:14.6g} {m['unit']}")
    for name, res in results.items():
        print(json.dumps({"workload": name, **res}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "grandam" / "__init__.py").is_file():
        fail(f"no grandam sources at {SRC}; run from a checkout of the repository")
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.workload == "all":
        return run_all(args)
    compileall.compile_dir(str(SRC), quiet=1)   # the build: byte-compile grandam
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
