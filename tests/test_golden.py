"""Byte-for-byte CLI reports for every subcommand.

The inputs and the expected reports live in ``tests/golden/``. They use
fixed seeds and small sizes, so any change to a number, a key or the
layout of a report shows up here. After a deliberate report change,
regenerate the corpus from the repository root with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from grandam.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (config, arguments after the global flags); "{g}" is GOLDEN and
# "{tmp}" a scratch directory. Every config gets written to {g}/<name>.json.
CASES = {
    "norm_cyclic": ({"exponents": {"p": 2.5, "theta": 1.0}},
                    ["norm", "--f", "{g}/f16.csv"]),
    "norm_interval": ({"space": {"kind": "interval", "atoms": 12},
                       "exponents": {"p": 3.0, "theta": 0.5}},
                      ["norm", "--f", "{g}/line12.jsonl"]),
    "profile_csv": ({"exponents": {"p": 1.5, "theta": 0.5}},
                    ["profile", "--f", "{g}/f16.csv", "--csv", "{tmp}/profile.csv"]),
    # two grid points six decades apart of twelve: the golden polish runs
    # into its step cap, so this case pins the cap
    "profile_two_point_ladder": ({"exponents": {"p": 2.0, "theta": 0.0},
                                  "eps_grid": {"points": 2, "min_eps_fraction": 1e-12}},
                                 ["profile", "--f", "{g}/f16.csv"]),
    "norm_tolerance": ({"eps_grid": {"tolerance": 1e-6}},
                       ["norm", "--f", "{g}/f16.csv"]),
    "amalgam_cyclic": ({"space": {"atoms": 16},
                        "exponents": {"p": 2.0, "q": 3.0, "theta": 1.0},
                        "window": {"size": 3}},
                       ["amalgam", "--f", "{g}/f16.csv"]),
    "amalgam_interval": ({"space": {"kind": "interval", "atoms": 12},
                          "exponents": {"p": 2.5, "q": 2.0, "theta": 0.5},
                          "window": {"members": [0, 2, 3]}},
                         ["amalgam", "--f", "{g}/line12.jsonl"]),
    "amalgam_counting": ({"space": {"kind": "counting", "atoms": 10},
                          "exponents": {"p": 2.0, "q": 2.0, "theta": 0.0},
                          "window": {"size": 2}},
                         ["amalgam", "--f", "{g}/seq10.csv"]),
    "bupu_validate": ({"space": {"atoms": 20}, "bupu": {"block_size": 4}},
                      ["bupu-validate"]),
    "bupu_validate_ragged": ({"space": {"kind": "interval", "atoms": 22},
                              "bupu": {"block_size": 4}},
                             ["bupu-validate"]),
    "conv_check_pair": ({"exponents": {"p": 2.5, "theta": 0.5}},
                        ["conv-check", "--f", "{g}/f16.csv", "--g", "{g}/g16.jsonl"]),
    "conv_check_trials": ({"space": {"atoms": 12}, "seed": 7, "trials": 3},
                          ["conv-check"]),
    "conv_check_counting_trials": ({"space": {"atoms": 8, "normalization": "counting"},
                                    "exponents": {"p": 1.5, "theta": 1.0},
                                    "seed": 3, "trials": 2},
                                   ["conv-check"]),
    "witness": ({"exponents": {"p": 2.5}}, ["witness", "--m", "8"]),
    "equivalence_single": ({"exponents": {"p": 2.0, "q": 2.0, "theta": 1.0},
                            "window": {"size": 3}, "bupu": {"block_size": 4}},
                           ["equivalence", "--f", "{g}/f16.csv"]),
    "equivalence_members": ({"exponents": {"p": 2.5, "q": 1.5, "theta": 0.5},
                             "window": {"members": [0, 2, 5]}, "bupu": {"block_size": 4}},
                            ["equivalence", "--f", "{g}/f16.csv"]),
    "equivalence_trials": ({"space": {"atoms": 12}, "window": {"size": 2},
                            "bupu": {"block_size": 3}, "seed": 11, "trials": 3},
                           ["equivalence"]),
}


def run_case(name, tmp):
    """Run one case in-process; returns (exit code, report text, extra files)."""
    _, args = CASES[name]
    argv = [a.format(g=GOLDEN, tmp=tmp) for a in args]
    out = Path(tmp) / "report.json"
    code = main(["--config", str(GOLDEN / f"{name}.json"), "--out", str(out), *argv])
    extra = {}
    if "--csv" in argv:
        extra["csv"] = Path(argv[argv.index("--csv") + 1]).read_text(encoding="utf-8")
    return code, out.read_text(encoding="utf-8"), extra


def expected_text(name, code, report, extra):
    text = f"exit {code}\n{report}"
    for key in sorted(extra):
        text += f"--- {key}\n{extra[key]}"
    return text


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, tmp_path):
    got = expected_text(name, *run_case(name, tmp_path))
    want = (GOLDEN / f"{name}.expected").read_text(encoding="utf-8")
    assert got == want


def _write_inputs():
    from grandam.core import MeasureSpace, SampledFunction
    from grandam.iofmt import write_function

    rng = np.random.default_rng(20190121)
    cyc = MeasureSpace.cyclic(16)
    write_function(SampledFunction(cyc, rng.random(16)), GOLDEN / "f16.csv")
    write_function(SampledFunction(cyc, rng.random(16)), GOLDEN / "g16.jsonl")
    line = MeasureSpace.interval(12)
    write_function(SampledFunction(line, rng.uniform(-1.0, 1.0, 12)), GOLDEN / "line12.jsonl")
    seq = MeasureSpace.counting(10)
    write_function(SampledFunction(seq, rng.uniform(-2.0, 2.0, 10)), GOLDEN / "seq10.csv")


def regenerate():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    _write_inputs()
    for name, (config, _) in CASES.items():
        (GOLDEN / f"{name}.json").write_text(json.dumps(config, sort_keys=True) + "\n",
                                             encoding="utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            text = expected_text(name, *run_case(name, tmp))
        (GOLDEN / f"{name}.expected").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
