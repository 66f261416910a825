"""The four benchmark workloads.

Each workload is a closed loop with one client. ``cycle`` lists the
operations of one round, and a run attempts a whole number of rounds, so
every run holds the same mix. Inputs come from numpy's generator seeded
with (seed, operation index): a check regenerates them after the timed
phase instead of keeping them in memory.

The harness in ``run.py`` calls, per operation: ``prepare`` (untimed, builds
the input), ``run`` (timed), ``keep`` (untimed, reduces the output to what
the checks need) and, after the timed phase, ``check``.
"""

import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np

import grandam as ga
import reference as ref

SETUP_STREAM = 2 ** 32 - 1  # generator stream for set-up inputs, apart from op ids

NORM_EXPONENTS = ((2.0, 1.0), (1.5, 0.5), (3.0, 0.0), (2.5, 2.0))
CONV_GROUPS = (((2048,), "probability"), ((32, 64), "probability"), ((2048,), "counting"))
CONV_EXPONENTS = ((2.0, 1.0), (3.0, 0.5), (2.5, 0.0))


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple
    timed: bool = True


@dataclass
class Verdict:
    failed: bool = False      # the operation failed (counted, not a wrong result)
    problem: str = None       # a wrong result: the run is not correct


class Workload:
    name = ""
    cycle = ()
    min_timed_ops = 100
    nominal_round_s = 1.0   # one round's timed phase on a 2-CPU reference machine
    deep_every = 1          # compare every deep_every-th round against references

    def __init__(self, seed, workdir, trace):
        self.seed = seed
        self.workdir = workdir
        self.trace = trace

    def rng(self, k):
        return np.random.default_rng((self.seed, k))

    def rounds(self, seconds):
        timed = sum(1 for op in self.cycle if op.timed)
        return max(math.ceil(self.min_timed_ops / timed),
                   round(seconds / self.nominal_round_s))

    def deep(self, k):
        return (k // len(self.cycle)) % self.deep_every == 0

    def keep(self, k, op, inp, raw):
        return raw

    def timed_phase_done(self, kept):
        pass

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _mismatch(what, got, want, rel=ref.REL_TOL):
    if _close(got, want, rel):
        return None
    return f"{what}: {got!r} vs reference {want!r} (rel tol {rel:g})"


# ----------------------------------------------------------------------


class Equivalence(Workload):
    """Section 2: equivalence_report on Z_128 with a 4-atom window and BUPU."""

    name = "equivalence"
    N = 128
    WINDOW = (0, 1, 2, 3)
    BLOCK = 4
    TRIPLES = ((2.0, 2.0, 1.0), (1.5, 3.0, 0.5), (3.0, 1.5, 0.0), (2.5, 2.0, 2.0))
    cycle = tuple(Op(f"p={p},q={q},theta={th}", (p, q, th)) for p, q, th in TRIPLES)
    nominal_round_s = 0.40
    deep_every = 17

    def setup(self):
        self.space = ga.MeasureSpace.cyclic(self.N)
        self.window = ga.Window(self.space, self.WINDOW)
        self.bupu = ga.make_uniform_bupu(self.space, self.BLOCK)
        self.grids = {}
        for p, q, th in self.TRIPLES:
            le, ge = ga.GrandExponent(p, th), ga.GrandExponent(q, th)
            self.grids[(p, q, th)] = (le, ge, ga.make_epsilon_grid(le),
                                      ga.make_epsilon_grid(ge))
        rng = np.random.default_rng((self.seed, SETUP_STREAM))
        for op in self.cycle:   # first call with each pair of grids
            self.run(op, self._function(rng))

    def _function(self, rng):
        return ga.SampledFunction(self.space, rng.uniform(-1.0, 1.0, self.N))

    def prepare(self, k, op):
        return self._function(self.rng(k))

    def run(self, op, f):
        le, ge, lg, gg = self.grids[op.args]
        return ga.equivalence_report(f, self.window, self.bupu, le, ge, lg, gg)

    def check(self, k, op, report, deep):
        p, q, th = op.args
        if not report.within_bounds:
            return Verdict(problem=f"op {k}: within_bounds is false ({report.ratios})")
        f = self.prepare(k, op).values
        w = 1.0 / self.N
        problems = []
        if th == 0.0:
            classical = ref.classical_amalgam_fsum(f, w, self.WINDOW, p, q)
            problems.append(_mismatch(f"op {k} continuous (theta=0)",
                                      report.continuous, classical, 1e-12))
        if deep:
            problems.append(_mismatch(f"op {k} continuous", report.continuous,
                                      ref.amalgam_norm(f, w, self.WINDOW, p, q, th)))
            pieces = ref.block_piece_norms(f, w, self.BLOCK, p, th)
            problems.append(_mismatch(f"op {k} discrete", report.discrete,
                                      ref.grand_norm(pieces, np.ones(pieces.size), q, th)))
            problems.append(_mismatch(f"op {k} step", report.step,
                                      ref.grand_norm(np.repeat(pieces, self.BLOCK), w, q, th)))
        problems = [msg for msg in problems if msg]
        return Verdict(problem="; ".join(problems) if problems else None)


# ----------------------------------------------------------------------


class NormLarge(Workload):
    """One grand norm of a 65 536-atom function per operation.

    Probability weights (grand_norm) alternate with counting measure
    (grand_sequence_norm). Each round ends with two untimed float-range
    operations on a fixed input scaled by 1e160 and 1e-170, checked by
    homogeneity N(c f) = |c| N(f).
    """

    name = "norm-large"
    N = 65536
    EXPONENTS = NORM_EXPONENTS
    REPEATS = 112
    SCALES = (1e160, 1e-170)
    # theta = 0, p = 3 on probability weights: both scales leave float range
    # for r near p, whatever the input.
    FAULT_EXPONENT = (3.0, 0.0)
    FAULT_INPUT_SEED = 0
    COMBOS = tuple(Op(f"{m},p={p},theta={th}", (m, p, th))
                   for p, th in NORM_EXPONENTS for m in ("probability", "counting"))
    cycle = COMBOS * REPEATS + tuple(
        Op(f"probability,p=3.0,theta=0.0,scale={c:g}", ("scaled", c), timed=False)
        for c in SCALES)
    nominal_round_s = 30.0

    def setup(self):
        self.spaces = {"probability": ga.MeasureSpace.cyclic(self.N),
                       "counting": ga.MeasureSpace.counting(self.N)}
        self.grids = {}
        for p, th in self.EXPONENTS:
            e = ga.GrandExponent(p, th)
            self.grids[(p, th)] = (e, ga.make_epsilon_grid(e))
        rng = np.random.default_rng((self.seed, SETUP_STREAM))
        for op in self.COMBOS:   # first call with each space and grid
            self.run(op, ga.SampledFunction(self.spaces[op.args[0]],
                                            rng.uniform(-1.0, 1.0, self.N)))

    def deep(self, k):
        # once per run for each combination; theta = 0 on probability
        # weights is checked against the fsum Lp norm on every operation
        op = self.cycle[k]
        return k < len(self.COMBOS) and not (op.args[0] == "probability" and op.args[2] == 0.0)

    def _fault_base(self):
        return np.random.default_rng(self.FAULT_INPUT_SEED).uniform(-1.0, 1.0, self.N)

    def prepare(self, k, op):
        if op.args[0] == "scaled":
            return ga.SampledFunction(self.spaces["probability"],
                                      self._fault_base() * op.args[1])
        return ga.SampledFunction(self.spaces[op.args[0]],
                                  self.rng(k).uniform(-1.0, 1.0, self.N))

    def run(self, op, f):
        kind = op.args[0]
        if kind == "scaled":
            e, grid = self.grids[self.FAULT_EXPONENT]
            return ga.grand_norm(f, e, grid)
        e, grid = self.grids[op.args[1:]]
        if kind == "counting":
            return ga.grand_sequence_norm(f, e, grid)
        return ga.grand_norm(f, e, grid)

    def check(self, k, op, value, deep):
        kind = op.args[0]
        if kind == "scaled":
            e, grid = self.grids[self.FAULT_EXPONENT]
            base = ga.SampledFunction(self.spaces["probability"], self._fault_base())
            want = abs(op.args[1]) * ga.grand_norm(base, e, grid)
            return Verdict(failed=not (math.isfinite(value) and _close(value, want, 1e-9)))
        if not (math.isfinite(value) and value > 0.0):
            return Verdict(problem=f"op {k} ({op.label}): value {value!r}")
        p, th = op.args[1:]
        f = self.prepare(k, op).values
        w = self.spaces[kind].weights
        problems = []
        if th == 0.0 and kind == "probability":
            problems.append(_mismatch(f"op {k} ({op.label}) vs fsum Lp", value,
                                      ref.lp_norm_fsum(f, w, p), 1e-12))
        if deep:
            problems.append(_mismatch(f"op {k} ({op.label})", value,
                                      ref.grand_norm(f, w, p, th)))
        problems = [msg for msg in problems if msg]
        return Verdict(problem="; ".join(problems) if problems else None)


# ----------------------------------------------------------------------


class ConvTrials(Workload):
    """Section 3: submultiplicativity_check on groups of order 2048."""

    name = "conv-trials"
    ORDER = 2048
    GROUPS = CONV_GROUPS
    EXPONENTS = CONV_EXPONENTS
    cycle = tuple(Op(f"{'x'.join(f'Z_{n}' for n in fac)} {norm},p={p},theta={th}",
                     (gi, ei))
                  for ei, (p, th) in enumerate(CONV_EXPONENTS)
                  for gi, (fac, norm) in enumerate(CONV_GROUPS))
    nominal_round_s = 0.23
    deep_every = 65

    def setup(self):
        self.groups = [ga.FiniteAbelianGroup(fac, norm) for fac, norm in self.GROUPS]
        self.grids = []
        for p, th in self.EXPONENTS:
            e = ga.GrandExponent(p, th)
            self.grids.append((e, ga.make_epsilon_grid(e)))
        rng = np.random.default_rng((self.seed, SETUP_STREAM))
        # The first call on each group builds its difference table; together
        # the three calls also use every grid once.
        for gi in range(len(self.groups)):
            self.run(Op("setup", (gi, gi)), self._pair(rng, gi))

    def _pair(self, rng, gi):
        space = self.groups[gi].space
        return (ga.SampledFunction(space, rng.random(self.ORDER)),
                ga.SampledFunction(space, rng.random(self.ORDER)))

    def prepare(self, k, op):
        return self._pair(self.rng(k), op.args[0])

    def run(self, op, fg):
        gi, ei = op.args
        e, grid = self.grids[ei]
        return ga.submultiplicativity_check(fg[0], fg[1], self.groups[gi], e, grid)

    def keep(self, k, op, inp, report):
        summary = (report.hypotheses_met, report.warning, report.passed,
                   all(row.passed for row in report.per_eps), len(report.per_eps))
        return (summary, report if self.deep(k) else None)

    def check(self, k, op, kept, deep):
        (hypotheses, warning, passed, rows_passed, n_rows), report = kept
        gi, ei = op.args
        group = self.groups[gi]
        e, grid = self.grids[ei]
        if n_rows != grid.eps_values.size:
            return Verdict(problem=f"op {k}: {n_rows} per-eps rows")
        if group.is_probability:
            if not (hypotheses and passed and rows_passed):
                return Verdict(problem=f"op {k} ({op.label}): probability group failed "
                                       f"(passed={passed}, rows={rows_passed})")
        elif hypotheses or warning != "hypotheses-not-met":
            return Verdict(problem=f"op {k} ({op.label}): counting group claims hypotheses")
        if not deep:
            return Verdict()
        f, g = self.prepare(k, op)
        w = group.space.weights
        want = ref.convolve_axis_roll(f.values, g.values, group.factors, group.haar_weight)
        got = ga.convolve(f, g, group).values
        scale = float(np.max(np.abs(want)))
        if float(np.max(np.abs(got - want))) > 1e-12 * scale:
            return Verdict(problem=f"op {k} ({op.label}): convolution differs from axis roll")
        problems = [
            _mismatch(f"op {k} lhs", report.lhs, ref.grand_norm(want, w, e.p, e.theta)),
            _mismatch(f"op {k} rhs", report.rhs,
                      ref.grand_norm(f.values, w, e.p, e.theta)
                      * ref.grand_norm(g.values, w, e.p, e.theta)),
        ]
        for row in report.per_eps[::8]:
            r = e.p - row.eps
            problems.append(_mismatch(f"op {k} per-eps lhs at eps={row.eps:g}", row.lhs,
                                      ref.lp_norm_fsum(want, w, r), 1e-12))
        problems = [msg for msg in problems if msg]
        return Verdict(problem="; ".join(problems) if problems else None)


# ----------------------------------------------------------------------


class CliSubcommands(Workload):
    """One ``python -m grandam`` process per operation, seven subcommands in turn.

    Inputs are sized so that loading, computing and rendering are a visible
    share beside interpreter start-up, with no subcommand far longer than
    the rest. The reported memory is that of the largest child.
    """

    name = "cli-subcommands"
    WITNESS_M = 400
    # (label, config, arguments after the global flags)
    COMMANDS = (
        ("norm", {"exponents": {"p": 2.5, "theta": 1.0}},
         ("norm", "--f", "{dir}/norm.csv")),
        ("profile", {"exponents": {"p": 1.5, "theta": 0.5}},
         ("profile", "--f", "{dir}/profile.jsonl", "--csv", "{dir}/profile.csv")),
        ("amalgam", {"space": {"atoms": 96}, "exponents": {"p": 2.0, "q": 3.0, "theta": 1.0},
                     "window": {"size": 4}},
         ("amalgam", "--f", "{dir}/amalgam.jsonl")),
        ("bupu-validate", {"space": {"atoms": 512}, "bupu": {"block_size": 4}},
         ("bupu-validate",)),
        ("conv-check", {"space": {"atoms": 512}, "exponents": {"p": 2.5, "theta": 0.5}},
         ("conv-check", "--f", "{dir}/conv_f.csv", "--g", "{dir}/conv_g.jsonl")),
        ("witness", {"exponents": {"p": 2.5}}, ("witness", "--m", str(WITNESS_M))),
        ("equivalence", {"space": {"atoms": 48}, "exponents": {"p": 2.0, "q": 2.0, "theta": 1.0},
                         "window": {"size": 4}, "bupu": {"block_size": 4}},
         ("equivalence", "--f", "{dir}/equivalence.csv")),
    )
    # file name -> atoms (probability weights on Z_n)
    FILES = {"norm.csv": 16384, "profile.jsonl": 8192, "amalgam.jsonl": 96,
             "conv_f.csv": 512, "conv_g.jsonl": 512, "equivalence.csv": 48}
    cycle = tuple(Op(label, (i,)) for i, (label, _, _) in enumerate(COMMANDS))
    nominal_round_s = 1.85
    launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_launch.py")

    def setup(self):
        rng = np.random.default_rng((self.seed, SETUP_STREAM))
        self.functions = {}
        for name, n in self.FILES.items():
            f = ga.SampledFunction(ga.MeasureSpace.cyclic(n), rng.random(n))
            ga.write_function(f, os.path.join(self.workdir, name))
            self.functions[name] = f
        self.argv, self.outs = [], []
        for label, config, args in self.COMMANDS:
            cfg_path = os.path.join(self.workdir, f"{label}.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(dict(config, seed=self.seed), fh)
            out = os.path.join(self.workdir, f"{label}.out.json")
            self.outs.append(out)
            self.argv.append(["--config", cfg_path, "--out", out]
                             + [a.format(dir=self.workdir) for a in args])
        self.env = dict(os.environ)
        self.expected = {}
        for op in self.cycle:   # first use of every input file and config
            code, _, _ = self._spawn(["-m", "grandam"] + self.argv[op.args[0]], op.label)
            if code != 0:
                raise RuntimeError(f"set-up run of {op.label} exited {code}")

    def _spawn(self, args, label):
        err = os.path.join(self.workdir, f"{label}.stderr")
        actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 2, err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + args, self.env,
                             file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        return os.waitstatus_to_exitcode(status), usage.ru_maxrss, t0

    def _spans_path(self, k):
        return os.path.join(self.workdir, f"spans-{k}.json")

    def prepare(self, k, op):
        argv = self.argv[op.args[0]]
        if self.trace:
            return [self.launcher, self._spans_path(k), str(k)] + argv
        return ["-m", "grandam"] + argv

    def run(self, op, args):
        return self._spawn(args, op.label)

    def keep(self, k, op, args, raw):
        code, maxrss, t0 = raw
        out = self.outs[op.args[0]]
        with open(out, "rb") as fh:
            report = fh.read()
        os.remove(out)
        return code, maxrss, t0, report

    def peak_rss_mb(self):
        return self._peak_kb / 1024.0

    def timed_phase_done(self, kept):
        self._peak_kb = max(v[1] for v in kept.values())

    def trace_spans(self, kept, offset):
        """Spans of the launcher processes, to be appended at index ``offset``.

        Also returns each operation's start-up time: from spawning the
        process until grandam was imported.
        """
        spans = []
        start = []
        for k, (_, _, t0, _) in sorted(kept.items()):
            with open(self._spans_path(k), encoding="utf-8") as fh:
                doc = json.load(fh)
            base = offset + len(spans)
            for name, a, b, parent, op in doc["spans"]:
                spans.append([name, a, b, parent + base if parent >= 0 else -1, op])
            start.append(doc["imported_at"] - t0)
        return spans, start

    def _library_doc(self, i):
        """What the library computes for the inputs of subcommand ``i``."""
        label, cfg, _ = self.COMMANDS[i]
        exps = cfg.get("exponents", {})
        p, q, th = exps.get("p", 2.0), exps.get("q", 2.0), exps.get("theta", 1.0)
        local, glob = ga.GrandExponent(p, th), ga.GrandExponent(q, th)
        lg, gg = ga.make_epsilon_grid(local), ga.make_epsilon_grid(glob)
        fn = self.functions
        if label == "norm":
            return {"value": ga.grand_norm(fn["norm.csv"], local, lg)}
        if label == "profile":
            prof = ga.epsilon_profile(fn["profile.jsonl"], local, lg)
            return {"sup_value": prof.sup_value, "argmax_eps": prof.argmax_eps,
                    "entries": len(prof.entries)}
        if label == "amalgam":
            f = fn["amalgam.jsonl"]
            return {"value": ga.amalgam_norm(f, ga.Window(f.space, (0, 1, 2, 3)),
                                             local, glob, lg, gg)}
        if label == "bupu-validate":
            bupu = ga.make_uniform_bupu(ga.MeasureSpace.cyclic(512), 4)
            return {"pieces": len(bupu), "all_passed": ga.validate_bupu(bupu).all_passed}
        if label == "conv-check":
            group = ga.FiniteAbelianGroup.cyclic(512)
            f = ga.SampledFunction(group.space, fn["conv_f.csv"].values)
            g = ga.SampledFunction(group.space, fn["conv_g.jsonl"].values)
            rep = ga.submultiplicativity_check(f, g, group, local, lg)
            return {"lhs": rep.lhs, "rhs": rep.rhs, "ratio": rep.ratio, "passed": rep.passed}
        if label == "witness":
            rep = ga.noncompact_witness(self.WITNESS_M, p)
            return {"ratio_m": rep.ratio_m, "ratio_2m": rep.ratio_2m}
        f = fn["equivalence.csv"]
        rep = ga.equivalence_report(f, ga.Window(f.space, (0, 1, 2, 3)),
                                    ga.make_uniform_bupu(f.space, 4), local, glob, lg, gg)
        return {"norms": {"continuous": rep.continuous, "discrete": rep.discrete,
                          "step": rep.step}, "within_bounds": rep.within_bounds}

    def _check_doc(self, i, doc):
        label = self.COMMANDS[i][0]
        result = doc["result"]
        want = self._library_doc(i)
        problems = []
        if label == "witness":
            p = result["p"]
            problems.append(_mismatch("witness ratio_m", result["ratio_m"],
                                      ref.witness_ratio(self.WITNESS_M, p), 1e-12))
            problems.append(_mismatch("witness ratio_2m", result["ratio_2m"],
                                      ref.witness_ratio(2 * self.WITNESS_M, p), 1e-12))
        for key, value in want.items():
            got = len(result[key]) if key == "entries" else result[key]
            if isinstance(value, dict):
                for sub, v in value.items():
                    problems.append(_mismatch(f"{label} {key}.{sub}", got[sub], v, 1e-15))
            elif isinstance(value, (bool, int)):
                problems.append(None if got == value else f"{label} {key}: {got} != {value}")
            else:
                problems.append(_mismatch(f"{label} {key}", got, value, 1e-15))
        return [msg for msg in problems if msg]

    def check(self, k, op, kept, deep):
        code, _, _, report = kept
        if code != 0:
            return Verdict(problem=f"op {k} ({op.label}) exited {code}")
        if op.label not in self.expected:
            problems = self._check_doc(op.args[0], json.loads(report))
            if problems:
                return Verdict(problem="; ".join(problems))
            self.expected[op.label] = report
        elif report != self.expected[op.label]:
            return Verdict(problem=f"op {k} ({op.label}): report differs from the first run")
        return Verdict()


WORKLOADS = {wl.name: wl for wl in (Equivalence, NormLarge, ConvTrials, CliSubcommands)}
