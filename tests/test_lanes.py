"""Large inputs evaluated on two lanes give the bits of the sequential scan.

``grand._norm_sup`` shares the epsilon grid, and the probes of a polish at
an end of the ladder, between the calling thread and one worker thread
once an input has ``grand._LANE_MIN_ATOMS`` atoms. These tests force the
lane path by patching the threshold and the CPU count, so they run the
same on any host.
"""

import json
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from grandam import grand
from grandam.core import (INTERVAL, GrandExponent, MeasureSpace, SampledFunction,
                          make_epsilon_grid)

EXPONENTS = ((2.0, 0.0), (3.0, 1e-6), (1.5, 0.5), (2.5, 3.0))


def _space(kind, n):
    if kind == "cyclic":
        return MeasureSpace.cyclic(n)
    if kind == "counting":
        return MeasureSpace.counting(n)
    return MeasureSpace(np.random.default_rng(n).uniform(0.5, 2.0, n), INTERVAL)


def _inputs(n):
    rng = np.random.default_rng(n + 1)
    spike = np.full(n, 1e-3)
    spike[n // 3] = 1e3
    return {"uniform": rng.uniform(-1.0, 1.0, n), "lognormal": rng.lognormal(0.0, 2.0, n),
            "one-spike": spike, "cauchy": rng.standard_cauchy(n)}


@pytest.fixture
def lanes(monkeypatch):
    """set(on) switches the lane path on or off; r-norm calls land in ``calls``."""
    calls = []
    kernel = grand._weighted_r_norm

    def counted(*args):
        calls.append(args[2])
        return kernel(*args)

    monkeypatch.setattr(grand, "_weighted_r_norm", counted)
    monkeypatch.setattr(grand, "_usable_cpus", lambda: 2)

    def set_lanes(on):
        monkeypatch.setattr(grand, "_LANE_MIN_ATOMS", 1 if on else 2 ** 62)
        calls.clear()

    set_lanes.calls = calls
    return set_lanes


def _bits(abs_vals, weights, exp, grid):
    profile, norms = grand._norm_sup(abs_vals, weights, exp, grid)
    return ([(e.hex(), v.hex()) for e, v in profile.entries], profile.argmax_eps.hex(),
            profile.sup_value.hex(), [x.hex() for x in norms])


@pytest.mark.parametrize("kind", ["cyclic", "counting", "interval"])
@pytest.mark.parametrize("n", [2 ** 14, 20000, 2 ** 16])
def test_lane_profiles_equal_the_sequential_ones(lanes, n, kind):
    sp = _space(kind, n)
    for name, values in _inputs(n).items():
        abs_vals = np.abs(values)
        for p, theta in EXPONENTS:
            e = GrandExponent(p, theta)
            grid = make_epsilon_grid(e)
            lanes(False)
            want = _bits(abs_vals, sp.weights, e, grid)
            sequential_calls = len(lanes.calls)
            lanes(True)
            assert _bits(abs_vals, sp.weights, e, grid) == want, (name, p, theta)
            assert len(lanes.calls) >= sequential_calls
    assert any(t.name.startswith("grandam-lane") for t in threading.enumerate())


def test_a_probe_off_the_prefetched_path_is_evaluated_afresh(lanes):
    # On a two-point grid the bracket is the whole range, and the grid's best
    # point is its top end; the peak of eps^(1/(2-eps)) * ||spike||_(2-eps),
    # where (2 - eps)/eps + ln(eps) = ln(n), lies inside (near eps = 0.16),
    # so the polish leaves the rising path.
    n = 2 ** 14
    spike = np.zeros(n)
    spike[7] = 1.0
    sp = MeasureSpace.cyclic(n)
    e = GrandExponent(2.0, 1.0)
    grid = make_epsilon_grid(e, points=2)
    lanes(False)
    want = _bits(spike, sp.weights, e, grid)
    sequential_calls = len(lanes.calls)
    lanes(True)
    assert _bits(spike, sp.weights, e, grid) == want
    assert len(lanes.calls) > sequential_calls
    assert 0.1 < float.fromhex(want[1]) < 0.25


def test_worker_keeps_the_callers_error_state(lanes):
    # pytest turns RuntimeWarnings into errors; the worker must see the
    # caller's np.errstate(over="ignore"), which is a context variable.
    # The caller holds its item until the worker has taken the other one.
    lanes(True)
    on_worker = threading.Event()

    def overflow(x):
        if threading.current_thread().name == "grandam-lane":
            on_worker.set()
        else:
            on_worker.wait(timeout=30)
        return float((np.array([x]) ** 400.0)[0])

    with np.errstate(over="ignore"):
        out = grand._on_two_lanes(overflow, [1e10, 1e10])
    assert on_worker.is_set()
    assert out == [np.inf, np.inf]

    n = 2 ** 16
    e = GrandExponent(3.0, 0.0)
    grid = make_epsilon_grid(e)
    base = SampledFunction(MeasureSpace.cyclic(n),
                           np.random.default_rng(0).uniform(-1.0, 1.0, n))
    # 1e160 leaves range for every r in [2, 3]; top ** (p - eps) with this
    # top reaches 2^1024.5 at the grid's second-highest eps, a point that
    # the kernel must try and then rescale, on whichever lane takes it
    top = 2.0 ** (1024.5 / (e.p - grid.eps_values[-2]))
    for c in (1e160, top / float(np.max(base.abs_values()))):
        value = grand.grand_norm(base.scaled(c), e, grid)
        assert value == pytest.approx(c * grand.grand_norm(base, e, grid), rel=1e-12)


def test_a_slow_worker_leaves_the_rest_to_the_caller(lanes):
    # the worker sleeps on the one item it takes; the caller does the rest
    lanes(True)
    on_worker = []

    def fn(x):
        if threading.current_thread().name == "grandam-lane":
            on_worker.append(x)
            time.sleep(0.2)
        return 2 * x

    assert grand._on_two_lanes(fn, list(range(40))) == [2 * x for x in range(40)]
    assert len(on_worker) <= 1


def test_concurrent_callers_share_one_worker(lanes, monkeypatch):
    # more callers than CPUs, switching threads often, and no worker yet:
    # every caller gets its own values back, and one worker is started
    e = GrandExponent(2.0, 1.0)
    fs = [SampledFunction(MeasureSpace.cyclic(256),
                          np.random.default_rng(seed).uniform(-1.0, 1.0, 256))
          for seed in range(4)]
    lanes(False)
    want = [grand.grand_norm(f, e) for f in fs]
    lanes(True)
    monkeypatch.setattr(grand, "_lane", None)
    before = set(threading.enumerate())
    got = [[] for _ in fs]
    start = threading.Barrier(len(fs))

    def work(i):
        start.wait(timeout=60)
        for _ in range(5):
            got[i].append(grand.grand_norm(fs[i], e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 5 for w in want]
    started = [t for t in threading.enumerate() if t not in before and t.name == "grandam-lane"]
    assert len(started) == 1


def _python(script, timeout=120):
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_a_forked_child_gets_a_lane_of_its_own():
    out = _python("""
        import json, os, signal, threading
        import numpy as np
        import grandam as ga
        from grandam import grand
        grand._usable_cpus = lambda: 2
        n = grand._LANE_MIN_ATOMS
        f = ga.SampledFunction(ga.MeasureSpace.cyclic(n),
                               np.random.default_rng(3).uniform(-1.0, 1.0, n))
        e = ga.GrandExponent(2.0, 1.0)
        want = ga.grand_norm(f, e)   # starts the parent's worker thread
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)   # a child waiting on the parent's thread hangs
            same = ga.grand_norm(f, e) == want
            own = any(t.name == "grandam-lane" for t in threading.enumerate())
            os._exit(0 if same and own else 1)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"status": status}))
    """)
    assert out == {"status": 0}


def test_inputs_below_the_threshold_start_no_thread_and_import_nothing():
    out = _python("""
        import json, sys, threading
        import numpy as np
        import grandam as ga
        from grandam import grand
        grand._usable_cpus = lambda: 2
        n = grand._LANE_MIN_ATOMS - 1
        fs = [ga.SampledFunction(sp, np.random.default_rng(4).uniform(-1.0, 1.0, n))
              for sp in (ga.MeasureSpace.cyclic(n), ga.MeasureSpace.counting(n))]
        modules = set(sys.modules)
        for f in fs:
            for p, theta in ((2.0, 0.0), (2.5, 1.0)):
                e = ga.GrandExponent(p, theta)
                ga.grand_norm(f, e)
                ga.lp_norm(f, p)
        small = {"threads": threading.active_count(),
                 "modules": sorted(set(sys.modules) - modules)}
        big = ga.SampledFunction(ga.MeasureSpace.cyclic(n + 1), np.ones(n + 1))
        ga.grand_norm(big, ga.GrandExponent(2.0, 1.0))
        print(json.dumps({"small": small, "threads_at_threshold": threading.active_count()}))
    """)
    assert out == {"small": {"threads": 1, "modules": []}, "threads_at_threshold": 2}
