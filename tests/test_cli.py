import contextlib
import importlib
import importlib.util
import io
import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grandam.amalgam import Window, amalgam_norm
from grandam.cli import RunConfig, main
from grandam.core import (COUNTING, GrandExponent, MeasureSpace,
                          SampledFunction, make_epsilon_grid)
from grandam.grand import grand_norm
from grandam.iofmt import write_function


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "grandam", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    sp = MeasureSpace.cyclic(16)
    rng = np.random.default_rng(51)
    f = SampledFunction(sp, rng.random(16))
    g = SampledFunction(sp, rng.random(16))
    write_function(f, tmp / "f.csv")
    write_function(g, tmp / "g.jsonl")
    cfg = {
        "space": {"kind": "cyclic", "atoms": 16},
        "exponents": {"p": 2, "q": 2, "theta": 1},
        "window": {"size": 4},
        "bupu": {"block_size": 4},
        "seed": 5,
        "trials": 8,
    }
    (tmp / "cfg.json").write_text(json.dumps(cfg))
    return tmp, f, g


def test_norm_command_matches_library(workdir):
    tmp, f, _ = workdir
    code, out, err = run_cli("--config", str(tmp / "cfg.json"),
                             "norm", "--f", str(tmp / "f.csv"))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "norm"
    e = GrandExponent(2.0, 1.0)
    want = grand_norm(f, e, make_epsilon_grid(e))
    assert doc["result"]["value"] == pytest.approx(want, rel=1e-15)
    assert doc["result"]["closure"]["applicable"] is True


def test_profile_command_writes_csv(workdir):
    tmp, _, _ = workdir
    csv_path = tmp / "prof.csv"
    code, out, _ = run_cli("--config", str(tmp / "cfg.json"), "profile",
                           "--f", str(tmp / "f.csv"), "--csv", str(csv_path))
    assert code == 0
    doc = json.loads(out)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "eps,value"
    assert len(lines) == len(doc["result"]["entries"]) + 1
    assert doc["result"]["sup_value"] >= max(
        e["value"] for e in doc["result"]["entries"]) - 1e-15


def test_amalgam_command_matches_library(workdir):
    tmp, f, _ = workdir
    code, out, _ = run_cli("--config", str(tmp / "cfg.json"),
                           "amalgam", "--f", str(tmp / "f.csv"))
    assert code == 0
    doc = json.loads(out)
    e = GrandExponent(2.0, 1.0)
    grid = make_epsilon_grid(e)
    want = amalgam_norm(f, Window(f.space, tuple(range(4))), e, e, grid, grid)
    assert doc["result"]["value"] == pytest.approx(want, rel=1e-15)
    assert doc["result"]["window_mass"] == pytest.approx(0.25)


def test_bupu_validate_command(workdir):
    tmp, _, _ = workdir
    code, out, _ = run_cli("--config", str(tmp / "cfg.json"), "bupu-validate")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["all_passed"] is True
    assert doc["result"]["pieces"] == 4
    assert doc["result"]["conditions"]["a"]["passed"] is True


def test_conv_check_pair(workdir):
    tmp, _, _ = workdir
    code, out, _ = run_cli("--config", str(tmp / "cfg.json"), "conv-check",
                           "--f", str(tmp / "f.csv"), "--g", str(tmp / "g.jsonl"))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["passed"] is True
    assert doc["result"]["hypotheses_met"] is True


def test_conv_check_trials_deterministic(workdir):
    tmp, _, _ = workdir
    code1, out1, _ = run_cli("--config", str(tmp / "cfg.json"), "conv-check")
    code2, out2, _ = run_cli("--config", str(tmp / "cfg.json"), "conv-check")
    assert code1 == code2 == 0
    assert out1 == out2                      # byte-identical reruns
    doc = json.loads(out1)
    assert doc["result"]["trials"] == 8
    assert doc["result"]["failures"] == 0
    assert doc["result"]["seed"] == 5


def test_seed_override(workdir):
    tmp, _, _ = workdir
    _, out, _ = run_cli("--config", str(tmp / "cfg.json"), "--seed", "9",
                        "conv-check")
    assert json.loads(out)["result"]["seed"] == 9


def test_conv_check_violation_exit_code(tmp_path):
    # constants on a probability group at p = 3/2, theta = 1: ratio 2 > 1.
    cfg = {"space": {"kind": "cyclic", "atoms": 8},
           "exponents": {"p": 1.5, "theta": 1}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    one = SampledFunction.constant(MeasureSpace.cyclic(8), 1.0)
    write_function(one, tmp_path / "one.csv")
    code, out, _ = run_cli("--config", str(tmp_path / "cfg.json"), "conv-check",
                           "--f", str(tmp_path / "one.csv"),
                           "--g", str(tmp_path / "one.csv"))
    assert code == 1
    doc = json.loads(out)
    assert doc["result"]["passed"] is False
    assert doc["result"]["ratio"] == pytest.approx(2.0, rel=1e-9)


def test_conv_check_counting_warns_but_exits_zero(tmp_path):
    cfg = {"space": {"kind": "cyclic", "atoms": 8, "normalization": "counting"},
           "exponents": {"p": 1.5, "theta": 1}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    one = SampledFunction.constant(MeasureSpace.cyclic(8, COUNTING), 1.0)
    write_function(one, tmp_path / "one.csv")
    code, out, _ = run_cli("--config", str(tmp_path / "cfg.json"), "conv-check",
                           "--f", str(tmp_path / "one.csv"),
                           "--g", str(tmp_path / "one.csv"))
    assert code == 0                         # hypotheses not met: report only
    doc = json.loads(out)
    assert doc["result"]["warning"] == "hypotheses-not-met"
    assert doc["result"]["passed"] is False


def test_witness_command(workdir):
    tmp, _, _ = workdir
    code, out, _ = run_cli("witness", "--m", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["growing"] is True
    assert doc["result"]["m"] == 4
    code, out, _ = run_cli("witness", "--m", "4", "--p", "1.0")
    assert code == 1                         # flat ratios: nothing grows
    assert json.loads(out)["result"]["growing"] is False


def test_equivalence_single_function(workdir):
    tmp, _, _ = workdir
    code, out, _ = run_cli("--config", str(tmp / "cfg.json"), "equivalence",
                           "--f", str(tmp / "f.csv"))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["within_bounds"] is True
    b = doc["result"]["bounds"]
    r = doc["result"]["ratios"]["continuous_over_discrete"]
    assert b["c_low"] <= r <= b["c_up"]


def test_equivalence_trials(workdir):
    tmp, _, _ = workdir
    code, out, _ = run_cli("--config", str(tmp / "cfg.json"), "equivalence")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["failures"] == 0
    assert doc["result"]["worst_continuous_over_discrete"] <= doc["result"]["bounds"]["c_up"]


def test_out_flag_writes_file(workdir):
    tmp, _, _ = workdir
    dest = tmp / "report.json"
    code, out, _ = run_cli("--config", str(tmp / "cfg.json"), "--out", str(dest),
                           "norm", "--f", str(tmp / "f.csv"))
    assert code == 0
    assert out == ""
    doc = json.loads(dest.read_text())
    assert doc["command"] == "norm"


def test_input_errors_exit_two(workdir, tmp_path):
    tmp, _, _ = workdir
    code, out, err = run_cli("norm", "--f", str(tmp_path / "missing.csv"))
    assert code == 2
    assert "error" in json.loads(err)

    bad = tmp_path / "bad.csv"
    bad.write_text("index,weight,value\n0,1.0,2.0\n0,1.0,3.0\n")
    code, _, err = run_cli("norm", "--f", str(bad))
    assert code == 2
    assert "duplicate index 0" in json.loads(err)["error"]

    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"spaces": {}}')
    code, _, err = run_cli("--config", str(cfg), "bupu-validate")
    assert code == 2
    assert "unknown config key" in json.loads(err)["error"]

    cfg.write_text("{not json")
    code, _, err = run_cli("--config", str(cfg), "bupu-validate")
    assert code == 2
    assert "invalid JSON" in json.loads(err)["error"]

    cfg.write_text('{"space": {"atoms": 0}}')
    code, _, err = run_cli("--config", str(cfg), "bupu-validate")
    assert code == 2
    assert "at least one atom" in json.loads(err)["error"]
    code, _, err = run_cli("--config", str(cfg), "amalgam", "--f", str(tmp / "f.csv"))
    assert code == 2
    assert "at least one atom" in json.loads(err)["error"]


def test_weight_mismatch_rejected(workdir, tmp_path):
    tmp, _, _ = workdir
    # counting-weighted file against the probability-space config
    f = SampledFunction.constant(MeasureSpace.cyclic(16, COUNTING), 1.0)
    write_function(f, tmp_path / "fc.csv")
    code, _, err = run_cli("--config", str(tmp / "cfg.json"), "amalgam",
                           "--f", str(tmp_path / "fc.csv"))
    assert code == 2
    assert "do not match" in json.loads(err)["error"]


def test_usage_errors(workdir):
    code, _, _ = run_cli("frobnicate")
    assert code == 2
    code, _, _ = run_cli()
    assert code == 2
    tmp, _, _ = workdir
    code, _, err = run_cli("--config", str(tmp / "cfg.json"), "conv-check",
                           "--f", str(tmp / "f.csv"))
    assert code == 2
    assert "both" in json.loads(err)["error"]


def test_traced_names_resolve_to_functions():
    # bench/tracer.py rebinds these module attributes to time each layer.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for qual in tracer.TRACED:
        mod_name, func = qual.split(".")
        module = importlib.import_module(f"grandam.{mod_name}")
        assert inspect.isfunction(getattr(module, func, None)), qual


def test_dispatch_reads_rebound_handlers(monkeypatch, tmp_path):
    # a tracer times cli.cmd_* by rebinding them before calling main
    import grandam.cli as cli
    calls = []
    original = cli.cmd_witness

    def wrapped(*args):
        calls.append(args[2])
        return original(*args)

    monkeypatch.setattr(cli, "cmd_witness", wrapped)
    code, _, _ = run_in_process(tmp_path, {"seed": 4}, "witness", "--m", "3")
    assert code == 0
    assert calls == [4]


def run_in_process(tmp_path, config, *args):
    """cli.main on a config written to tmp_path; returns (code, stdout, stderr)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(cfg), *args])
    return code, out.getvalue(), err.getvalue()


def test_norm_of_huge_values_is_finite(tmp_path):
    # |f|^p overflows here; the report must still carry the scaled norm
    f = SampledFunction(MeasureSpace.cyclic(16),
                        1e160 * np.random.default_rng(8).random(16))
    write_function(f, tmp_path / "big.csv")
    code, out, err = run_in_process(tmp_path, {}, "norm", "--f", str(tmp_path / "big.csv"))
    assert code == 0, err
    e = GrandExponent(2.0, 1.0)
    want = 1e160 * grand_norm(f.scaled(1e-160), e, make_epsilon_grid(e))
    assert json.loads(out)["result"]["value"] == pytest.approx(want, rel=1e-12)


def test_conv_check_overflow_is_one_error_document(workdir, tmp_path):
    # f * g leaves float range; stderr must hold the error document alone,
    # with no numpy warning printed ahead of it
    tmp, _, _ = workdir
    big = SampledFunction(MeasureSpace.cyclic(16),
                          1e160 * np.random.default_rng(9).random(16))
    write_function(big, tmp_path / "big.csv")
    code, out, err = run_cli("--config", str(tmp / "cfg.json"), "conv-check",
                             "--f", str(tmp_path / "big.csv"),
                             "--g", str(tmp_path / "big.csv"))
    assert code == 2
    assert out == ""
    assert "convolution overflowed" in json.loads(err)["error"]


@pytest.mark.parametrize("command", ["norm", "profile"])
def test_overflowing_weighted_norm_is_an_input_error(tmp_path, command):
    # the weight 2^1000 is in range, the weighted norm of 2e10 is not
    f = SampledFunction(MeasureSpace.cyclic(2), np.array([1e10, 2e10]))
    write_function(f, tmp_path / "f.csv")
    code, out, err = run_in_process(tmp_path, {"exponents": {"p": 3.0, "theta": 1000}},
                                    command, "--f", str(tmp_path / "f.csv"))
    assert code == 2
    assert out == ""
    assert "weighted norm" in json.loads(err)["error"]
    assert "overflowed at eps" in json.loads(err)["error"]


@pytest.mark.parametrize("command, p, theta", [
    ("norm", 3.0, 1100), ("profile", 3.0, 1100), ("amalgam", 3.0, 1100),
    ("equivalence", 3.0, 1100), ("conv-check", 1.5, 2000),
])
def test_exponent_weight_out_of_float_range_is_an_input_error(workdir, tmp_path, command,
                                                              p, theta):
    # (p - 1)^theta leaves float range; the run must end in one error document
    f = str(workdir[0] / "f.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exponents": {"p": p, "theta": theta}}))
    files = ["--f", f, "--g", f] if command == "conv-check" else ["--f", f]
    code, out, err = run_cli("--config", str(cfg), command, *files)
    assert code == 2
    assert out == ""
    assert "theta" in json.loads(err)["error"]


@pytest.mark.parametrize("command", ["witness", "bupu-validate"])
def test_format_is_offered_only_beside_a_function_file(command):
    code, out, _ = run_cli(command, "--format", "csv")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("command", ["conv-check", "equivalence"])
def test_zero_trials_is_an_input_error(tmp_path, command):
    code, out, err = run_in_process(tmp_path, {"trials": 0}, command)
    assert code == 2
    assert out == ""
    assert "trials" in json.loads(err)["error"]


@pytest.mark.parametrize("config, key", [
    ({"space": 5}, "'space' must be an object"),
    ({"eps_grid": []}, "'eps_grid' must be an object"),
    ({"eps_grid": {"points": None}}, "eps_grid.points"),
    ({"eps_grid": {"points": 8.5}}, "eps_grid.points"),
    ({"space": {"atoms": "16"}}, "space.atoms"),
    ({"space": {"normalization": "uniform"}}, "normalization"),
    ({"exponents": {"p": True}}, "exponents.p"),
    ({"window": {"members": [0, 1.5]}}, "window.members"),
    ({"seed": None}, "config.seed"),
    ({"trials": 2.0}, "config.trials"),
    ({"eps_grid": {"refinement_rounds": 4}}, "refinement_rounds"),
])
def test_mistyped_config_names_the_key(tmp_path, config, key):
    code, _, err = run_in_process(tmp_path, config, "witness")
    assert code == 2
    assert key in json.loads(err)["error"]


@pytest.mark.parametrize("row, key", [
    ('{"i": 0.7, "w": 0.5, "v": 1.0}', "line 1: i"),
    ('{"i": true, "w": 0.5, "v": 1.0}', "line 1: i"),
    ('{"i": null, "w": 0.5, "v": 1.0}', "line 1: i"),
    ('{"i": 0, "w": null, "v": 1.0}', "line 1: w"),
    ('{"i": 0, "w": "0.5", "v": 1.0}', "line 1: w"),
    ('{"i": 0, "w": 0.5, "v": null}', "line 1: v"),
    ('{"i": 0, "w": 0.5, "v": [1.0]}', "line 1: v"),
])
def test_mistyped_jsonl_row_names_the_line(tmp_path, row, key):
    path = tmp_path / "f.jsonl"
    path.write_text(row + "\n" + '{"i": 1, "w": 0.5, "v": 2.0}\n')
    code, _, err = run_in_process(tmp_path, {}, "norm", "--f", str(path))
    assert code == 2
    assert key in json.loads(err)["error"]


_BAD_VALUES = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                        st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
                        st.floats(0.1, 9.9).filter(lambda x: not x.is_integer()))
_SECTIONS = {"eps_grid": ["points", "min_eps_fraction", "tolerance"],
             "space": ["kind", "atoms", "normalization"],
             "exponents": ["p", "q", "theta"],
             "window": ["size", "members"],
             "bupu": ["block_size"]}


@st.composite
def _malformed_configs(draw):
    section = draw(st.sampled_from(sorted(_SECTIONS) + [""]))
    if section == "":
        return {draw(st.sampled_from(["seed", "trials"])): draw(_BAD_VALUES)}
    if draw(st.booleans()):          # the whole section is not an object
        return {section: draw(_BAD_VALUES.filter(lambda v: not isinstance(v, dict)))}
    key = draw(st.sampled_from(_SECTIONS[section] + ["bogus"]))
    value = draw(_BAD_VALUES)
    if key in ("p", "q", "theta", "min_eps_fraction", "tolerance"):
        value = draw(_BAD_VALUES.filter(lambda v: not isinstance(v, float)))
    if key == "members" and isinstance(value, list):
        value = value + [None]
    return {section: {key: value}}


@settings(max_examples=50, deadline=None)
@given(config=_malformed_configs())
def test_malformed_config_always_exits_two(tmp_path_factory, config):
    code, out, err = run_in_process(tmp_path_factory.mktemp("h"), config, "bupu-validate")
    assert code == 2
    assert out == ""
    assert set(json.loads(err)) == {"schema_version", "command", "error"}


_GARBAGE = st.text(alphabet="abxyz_ ", min_size=1, max_size=4)   # parses as no number
_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])


def _csv_line(row):
    return ",".join(v if isinstance(v, str) else repr(v) for v in row)


@st.composite
def _malformed_function_files(draw):
    """(suffix, bytes): a table of one to six atoms with exactly one defect."""
    fmt = draw(st.sampled_from(["csv", "jsonl"]))
    n = draw(st.integers(1, 6))
    rows = [[i, draw(st.floats(1e-3, 1e3)), draw(st.floats(-1e3, 1e3))] for i in range(n)]
    k = draw(st.integers(0, n - 1))
    defect = draw(st.sampled_from(["index", "duplicate", "weight", "value", "empty",
                                   "bytes", "garbage", "shape"]))
    if defect == "index":          # leaves a gap in 0..n-1
        rows[k][0] = draw(st.sampled_from([-1, n, n + 3]))
    elif defect == "duplicate":
        rows.append(list(rows[k]))
    elif defect == "weight":
        rows[k][1] = draw(st.one_of(st.sampled_from([0.0, -1.0]), _NON_FINITE))
    elif defect == "value":
        rows[k][2] = draw(_NON_FINITE)
    elif defect == "empty":
        rows = []
    elif defect == "garbage":      # a field that is not a number
        rows[k][draw(st.integers(0, 2))] = draw(_GARBAGE)
    if fmt == "csv":
        lines = ["index,weight,value"] + [_csv_line(r) for r in rows]
        if defect == "shape":      # four fields or two
            line = lines[k + 1]
            lines[k + 1] = draw(st.sampled_from([line + ",1.0", line.rsplit(",", 1)[0]]))
    else:
        lines = [json.dumps(dict(zip("iwv", r))) for r in rows]
        if defect == "shape":
            obj = dict(zip("iwv", rows[k]))
            lines[k] = draw(st.sampled_from([
                json.dumps({**obj, "x": 1}), json.dumps(rows[k]),
                json.dumps({"i": obj["i"], "w": obj["w"]}),
                json.dumps({**obj, "i": obj["i"] + 0.5}), lines[k][:-1]]))
    data = ("\n".join(lines) + "\n").encode()
    if defect == "bytes":          # not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff\xfe" + data[at:]
    return fmt, data


@settings(max_examples=100, deadline=None)
@given(case=_malformed_function_files())
def test_malformed_function_file_always_exits_two(tmp_path_factory, case):
    fmt, data = case
    tmp = tmp_path_factory.mktemp("h")
    path = tmp / f"f.{fmt}"
    path.write_bytes(data)
    code, out, err = run_in_process(tmp, {}, "norm", "--f", str(path))
    assert code == 2
    assert out == ""
    assert set(json.loads(err)) == {"schema_version", "command", "error"}


def test_readme_config_example_is_accepted():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("### Config file")[1].split("```json")[1].split("```")[0]
    config = RunConfig.from_dict(json.loads(example))
    assert config.grid_points == 64
    assert config.trials == 100
