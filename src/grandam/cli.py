"""Command line front end.

Subcommands compute norms and run the diagnostic checks, reading an
optional JSON config for the grid, space, exponents, window and
partition parameters. Reports are canonical JSON (sorted keys, fixed
float width), so a given config and seed always produce byte-identical
output. Exit status: 0 when everything passed, 1 when a checked property
was violated, 2 for input errors.
"""

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .amalgam import (Window, amalgam_norm, equivalence_report,
                      make_uniform_bupu, validate_bupu)
from .convolution import (FiniteAbelianGroup, noncompact_witness,
                          submultiplicativity_check)
from .core import (COUNTING, CYCLIC, INTERVAL, PROBABILITY, GrandExponent,
                   MeasureSpace, SampledFunction, make_epsilon_grid)
from .grand import closure_criterion, epsilon_profile, grand_norm
from .iofmt import load_function, profile_csv_text, render_report, typed_value

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2

SCHEMA_VERSION = 1


# config section -> {key: (RunConfig field, type)}; "" is the top level
_LAYOUT = {
    "eps_grid": {"points": ("grid_points", int),
                 "min_eps_fraction": ("min_eps_fraction", float),
                 "tolerance": ("tolerance", float)},
    "space": {"kind": ("space_kind", str), "atoms": ("atoms", int),
              "normalization": ("normalization", str)},
    "exponents": {key: (key, float) for key in ("p", "q", "theta")},
    "window": {"size": ("window_size", int), "members": ("window_members", list)},
    "bupu": {"block_size": ("block_size", int)},
    "": {"seed": ("seed", int), "trials": ("trials", int)},
}


def _reject_unknown(section, allowed, where):
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r} in {where}")


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters with defaults for every section."""

    grid_points: int = 64
    min_eps_fraction: float = 1e-6
    tolerance: float = 1e-9
    space_kind: str = "cyclic"
    atoms: int = 16
    normalization: str = PROBABILITY
    p: float = 2.0
    q: float = 2.0
    theta: float = 1.0
    window_size: int = None
    window_members: tuple = None
    block_size: int = 4
    seed: int = 0
    trials: int = 100

    @classmethod
    def from_dict(cls, data):
        """Typed fields from a parsed config; names the key of any bad value."""
        _reject_unknown(data, set(_LAYOUT) - {""} | set(_LAYOUT[""]), "config")
        kw = {}
        for name, keys in _LAYOUT.items():
            section = data if name == "" else data.get(name, {})
            where = name or "config"
            if not isinstance(section, dict):
                raise ValueError(f"config key {name!r} must be an object")
            if name:
                _reject_unknown(section, keys, where)
            for key, (attr, kind) in keys.items():
                if key in section:
                    kw[attr] = typed_value(section[key], kind, f"{where}.{key}")
        if "window_members" in kw:
            kw["window_members"] = tuple(typed_value(m, int, "window.members[]")
                                         for m in kw["window_members"])
            if "window_size" in kw:
                raise ValueError("window takes either size or members, not both")
        if kw.get("space_kind", "cyclic") not in ("cyclic", "interval", "counting"):
            raise ValueError(f"unknown space kind {kw['space_kind']!r}")
        if kw.get("normalization", PROBABILITY) not in (PROBABILITY, COUNTING):
            raise ValueError(f"unknown normalization {kw['normalization']!r}")
        if kw.get("trials", 1) < 1:
            raise ValueError(f"trials (={kw['trials']}) must be >= 1")
        return cls(**kw)

    @classmethod
    def load(cls, path):
        if path is None:
            return cls()
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}: invalid JSON ({err.msg})") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)

    # -- builders ---------------------------------------------------

    def build_space(self):
        if self.space_kind == "cyclic":
            return MeasureSpace.cyclic(self.atoms, self.normalization)
        if self.space_kind == "interval":
            return MeasureSpace.interval(self.atoms, self.normalization)
        return MeasureSpace.counting(self.atoms)

    def build_group(self):
        if self.space_kind != "cyclic":
            raise ValueError("convolution commands need a cyclic space")
        return FiniteAbelianGroup.cyclic(self.atoms, self.normalization)

    def local_exponent(self):
        return GrandExponent(self.p, self.theta)

    def global_exponent(self):
        return GrandExponent(self.q, self.theta)

    def build_grid(self, exp):
        return make_epsilon_grid(
            exp, points=self.grid_points,
            min_eps=self.min_eps_fraction * exp.eps_max, tol=self.tolerance)

    def build_window(self, space):
        if self.window_members is not None:
            return Window(space, self.window_members)
        size = self.window_size if self.window_size is not None else self.block_size
        if not 1 <= size <= space.size:
            raise ValueError(f"window size (={size}) must lie in 1..{space.size}")
        return Window(space, tuple(range(size)))

    def geometry(self):
        return CYCLIC if self.space_kind == "cyclic" else INTERVAL


def _load_for_config(path, fmt, config, expect_space=None):
    f = load_function(path, fmt=fmt, geometry=config.geometry())
    if expect_space is not None:
        if not expect_space.compatible_with(f.space):
            raise ValueError(
                f"{path}: weights do not match the configured space "
                f"({expect_space.size} atoms, {config.normalization})")
        f = SampledFunction(expect_space, f.values)
    return f


def _trial_reports(seed, trials, space, arity, check):
    """``check`` on ``arity`` fresh uniform random functions, once per trial."""
    rng = np.random.default_rng(seed)
    return [check(*(SampledFunction(space, rng.random(space.size)) for _ in range(arity)))
            for _ in range(trials)]


# ----------------------------------------------------------------------
# subcommands: each takes (args, config, seed) and returns (exit_code, report_doc)


def cmd_norm(args, config, seed):
    exp = config.local_exponent()
    grid = config.build_grid(exp)
    f = _load_for_config(args.f, args.format, config)
    value = grand_norm(f, exp, grid)
    closure = closure_criterion(f, exp, grid)
    return EXIT_OK, {
        "value": value,
        "p": exp.p,
        "theta": exp.theta,
        "atoms": f.space.size,
        "closure": closure.to_doc(),
    }


def cmd_profile(args, config, seed):
    exp = config.local_exponent()
    grid = config.build_grid(exp)
    f = _load_for_config(args.f, args.format, config)
    profile = epsilon_profile(f, exp, grid)
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(profile_csv_text(profile))
    return EXIT_OK, {
        "sup_value": profile.sup_value,
        "argmax_eps": profile.argmax_eps,
        "entries": [{"eps": e, "value": v} for e, v in profile.entries],
        "p": exp.p,
        "theta": exp.theta,
    }


def cmd_amalgam(args, config, seed):
    local = config.local_exponent()
    glob = config.global_exponent()
    space = config.build_space()
    window = config.build_window(space)
    f = _load_for_config(args.f, args.format, config, expect_space=space)
    value = amalgam_norm(f, window, local, glob,
                         config.build_grid(local), config.build_grid(glob))
    return EXIT_OK, {
        "value": value,
        "window_mass": window.mass,
        "window_size": window.size,
        "p": local.p,
        "q": glob.p,
        "theta": local.theta,
    }


def cmd_bupu_validate(args, config, seed):
    space = config.build_space()
    bupu = make_uniform_bupu(space, config.block_size)
    report = validate_bupu(bupu)
    doc = {
        "block_size": config.block_size,
        "pieces": len(bupu),
        "ragged": bupu.ragged,
        "conditions": report.to_doc(),
        "all_passed": report.all_passed,
    }
    return (EXIT_OK if report.all_passed else EXIT_VIOLATION), doc


def cmd_conv_check(args, config, seed):
    exp = config.local_exponent()
    grid = config.build_grid(exp)
    group = config.build_group()
    if (args.f is None) != (args.g is None):
        raise ValueError("conv-check needs both --f and --g, or neither")
    if args.f is not None:
        f = _load_for_config(args.f, args.format, config, expect_space=group.space)
        g = _load_for_config(args.g, args.format, config, expect_space=group.space)
        report = submultiplicativity_check(f, g, group, exp, grid)
        failed = report.hypotheses_met and not report.passed
        return (EXIT_VIOLATION if failed else EXIT_OK), report.to_doc()
    reports = _trial_reports(seed, config.trials, group.space, 2,
                             lambda f, g: submultiplicativity_check(f, g, group, exp, grid))
    failures = sum(not r.passed for r in reports)
    doc = {
        "trials": config.trials,
        "seed": seed,
        "failures": failures,
        "worst": max(reports, key=lambda r: r.ratio).to_doc(),  # first maximum
    }
    failed = group.is_probability and failures > 0
    return (EXIT_VIOLATION if failed else EXIT_OK), doc


def cmd_witness(args, config, seed):
    p = args.p if args.p is not None else config.p
    report = noncompact_witness(args.m, p)
    return (EXIT_OK if report.growing else EXIT_VIOLATION), report.to_doc()


def cmd_equivalence(args, config, seed):
    local = config.local_exponent()
    glob = config.global_exponent()
    space = config.build_space()
    window = config.build_window(space)
    bupu = make_uniform_bupu(space, config.block_size)
    local_grid = config.build_grid(local)
    global_grid = config.build_grid(glob)
    if args.f is not None:
        f = _load_for_config(args.f, args.format, config, expect_space=space)
        report = equivalence_report(f, window, bupu, local, glob,
                                    local_grid, global_grid)
        code = EXIT_OK if report.within_bounds else EXIT_VIOLATION
        return code, report.to_doc()
    reports = _trial_reports(seed, config.trials, space, 1,
                             lambda f: equivalence_report(f, window, bupu, local, glob,
                                                          local_grid, global_grid))
    failures = sum(not r.within_bounds for r in reports)
    ratios = (r.ratios["continuous_over_discrete"] for r in reports)
    doc = {
        "trials": config.trials,
        "seed": seed,
        "failures": failures,
        "bounds": dict(reports[-1].bounds),
        "worst_continuous_over_discrete": max((r for r in ratios if r is not None),
                                              default=None),
    }
    return (EXIT_VIOLATION if failures else EXIT_OK), doc


# ----------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grandam",
        description="Grand Lebesgue and amalgam norm computations on finite models.")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="write the report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, helptext, needs_f=False, needs_g=False):
        sp = sub.add_parser(name, help=helptext)
        sp.set_defaults(handler=handler)
        if needs_f:
            sp.add_argument("--f", help="sampled function file")
        if needs_g:
            sp.add_argument("--g", help="second sampled function file")
        sp.add_argument("--format", choices=("csv", "jsonl"),
                        help="function file format (default: by extension)")
        return sp

    # The handlers are module globals read when the parser is built, so a
    # caller that rebinds cli.cmd_* before calling main sees its own.
    add("norm", cmd_norm, "grand Lebesgue norm of a function", needs_f=True)
    prof = add("profile", cmd_profile, "epsilon profile behind the norm", needs_f=True)
    prof.add_argument("--csv", help="also write eps,value rows to this CSV file")
    add("amalgam", cmd_amalgam, "windowed amalgam norm of a function", needs_f=True)
    add("bupu-validate", cmd_bupu_validate,
        "build and validate the configured uniform partition")
    add("conv-check", cmd_conv_check, "convolution submultiplicativity check",
        needs_f=True, needs_g=True)
    wit = add("witness", cmd_witness, "growth witness on the counting model")
    wit.add_argument("--m", type=int, default=2, help="half box width (default 2)")
    wit.add_argument("--p", type=float, help="exponent (default: config p)")
    add("equivalence", cmd_equivalence, "continuous vs discrete amalgam comparison",
        needs_f=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.load(args.config)
        seed = args.seed if args.seed is not None else config.seed
        code, result = args.handler(args, config, seed)
        text = render_report({"schema_version": SCHEMA_VERSION, "command": args.command,
                              "result": result})
    except (ValueError, OSError) as err:
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command,
               "error": str(err)}
        sys.stderr.write(render_report(doc))
        return EXIT_INPUT

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
