import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grandam.core import (CYCLIC, GrandExponent, INTERVAL, MeasureSpace,
                          SampledFunction, make_epsilon_grid)
from grandam.grand import epsilon_profile
from grandam.iofmt import (canonical_json, load_function, profile_csv_text,
                           render_report, sniff_format, write_function)

from oracles import reference_load_function


def test_sniff_format():
    assert sniff_format("f.csv") == "csv"
    assert sniff_format("f.jsonl") == "jsonl"
    assert sniff_format("f.dat") == "csv"
    assert sniff_format("f.dat", "jsonl") == "jsonl"
    with pytest.raises(ValueError, match="format"):
        sniff_format("f.csv", "xml")


def test_csv_round_trip_bit_exact(tmp_path):
    # weights 1/3 exercise values with no short decimal form
    sp = MeasureSpace(np.full(6, 1.0 / 3.0))
    rng = np.random.default_rng(41)
    f = SampledFunction(sp, rng.standard_normal(6) * 1e3)
    path = tmp_path / "f.csv"
    write_function(f, path)
    g = load_function(path)
    assert np.array_equal(f.values, g.values)
    assert np.array_equal(f.space.weights, g.space.weights)


def test_jsonl_round_trip_bit_exact(tmp_path):
    sp = MeasureSpace.cyclic(5)
    f = SampledFunction(sp, np.array([0.1, -2.5, 1e-17, 3.0, 7.25]))
    path = tmp_path / "f.jsonl"
    write_function(f, path)
    g = load_function(path)
    assert np.array_equal(f.values, g.values)


def test_loaded_space_is_cyclic_with_the_file_weights(tmp_path):
    # an interval space's function comes back on Z_n with the same weights;
    # loading takes no geometry
    sp = MeasureSpace(np.array([0.5, 1.0, 2.0, 0.25]), geometry=INTERVAL)
    path = tmp_path / "f.csv"
    write_function(SampledFunction.constant(sp, 1.0), path)
    g = load_function(path)
    assert g.space.geometry == CYCLIC
    assert np.array_equal(g.space.weights, sp.weights)
    with pytest.raises(TypeError):
        load_function(path, geometry=INTERVAL)


def test_write_rejects_complex(tmp_path):
    sp = MeasureSpace.cyclic(3)
    f = SampledFunction(sp, np.array([1 + 1j, 0j, 2j]))
    with pytest.raises(ValueError, match="real"):
        write_function(f, tmp_path / "f.csv")


def test_duplicate_index_names_both_lines(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("index,weight,value\n0,1.0,2.0\n1,1.0,9.0\n0,1.0,3.0\n")
    with pytest.raises(ValueError, match=r"line 4: duplicate index 0 \(first seen on line 2\)"):
        load_function(path)


def test_field_count_error_line(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("index,weight,value\n0,1.0\n")
    with pytest.raises(ValueError, match="line 2: expected 3"):
        load_function(path)


def test_unparseable_number_error_line(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("0,1.0,2.0\n1,one,2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_function(path)


def test_bad_weight_rejected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("0,1.0,2.0\n1,0.0,2.0\n")
    with pytest.raises(ValueError, match=r"line 2: weight \(=0.0\)"):
        load_function(path)


def test_missing_index_rejected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("0,1.0,2.0\n2,1.0,2.0\n")
    with pytest.raises(ValueError, match="enumerate 0..1"):
        load_function(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("index,weight,value\n")
    with pytest.raises(ValueError, match="no rows"):
        load_function(path)


def test_jsonl_errors(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text('{"i": 0, "w": 1.0, "v": 2.0}\nnot json\n')
    with pytest.raises(ValueError, match="line 2: invalid JSON"):
        load_function(path)
    path.write_text('{"i": 0, "w": 1.0}\n')
    with pytest.raises(ValueError, match="keys i, w, v"):
        load_function(path)


def test_blank_lines_ignored(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("index,weight,value\n\n0,1.0,2.0\n\n1,1.0,3.0\n")
    f = load_function(path)
    assert list(f.values) == [2.0, 3.0]


# Fields and their defects: a non-number (a boolean, null or list in JSON),
# a non-positive or non-finite number, a negative, huge or fractional
# index, an integer too large for a float.
_GOOD_WEIGHT = st.floats(1e-3, 1e3)
_GOOD_VALUE = st.floats(-1e3, 1e3)
_BAD_FIELD = st.sampled_from(["abc", "", "1.2.3", "0x10", True, None, [1]])
_BAD_WEIGHT = st.sampled_from([0.0, -1.0, -0.0, math.inf, -math.inf, math.nan, 10 ** 400])
_BAD_VALUE = st.sampled_from([math.inf, -math.inf, math.nan])
_BAD_INDEX = st.sampled_from([-1, 9, 12, 10 ** 30, 2 ** 63, 1.5])
_HEADERS = ["index,weight,value", "Index, Weight, Value", " INDEX ,weight,VaLuE",
            "index,weight", "idx,weight,value", "index;weight;value"]
_BLANKS = ["", "   ", "\t"]


def _csv_field(x):
    return repr(x) if isinstance(x, float) else str(x)


def _shape_defects(fmt, line, obj):
    """Lines of the wrong shape in place of ``line``: a field too many or too few,
    spaced fields for CSV; cut, list-shaped or with wrong keys for JSON."""
    if fmt == "csv":
        return [line + ",1.0", line.rsplit(",", 1)[0], line.replace(",", " , ")]
    return [line[:-1], line[:len(line) // 2], json.dumps(list(obj.values())),
            json.dumps({**obj, "x": 1}), json.dumps({"i": obj["i"], "w": obj["w"]})]


@st.composite
def _defective_function_files(draw):
    """(format, bytes): a table of zero to eight rows with up to four defects."""
    fmt = draw(st.sampled_from(["csv", "jsonl"]))
    n = draw(st.integers(0, 8))
    rows = [[i, draw(_GOOD_WEIGHT), draw(_GOOD_VALUE)] for i in draw(st.permutations(range(n)))]
    kinds = st.sampled_from(["duplicate", "index", "weight", "value", "field", "shape"])
    defects = draw(st.lists(kinds, max_size=4)) if n else []
    for defect in defects:
        k = draw(st.integers(0, n - 1))
        if defect == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[k]))
        elif defect == "field":
            rows[k][draw(st.integers(0, 2))] = draw(_BAD_FIELD)
        elif defect != "shape":
            field = ["index", "weight", "value"].index(defect)
            rows[k][field] = draw((_BAD_INDEX, _BAD_WEIGHT, _BAD_VALUE)[field])
    objs = [dict(zip("iwv", r)) for r in rows]
    lines = ([",".join(map(_csv_field, r)) for r in rows] if fmt == "csv"
             else [json.dumps(obj) for obj in objs])
    for _ in range(defects.count("shape")):
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = draw(st.sampled_from(_shape_defects(fmt, lines[k], objs[k])))
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(_HEADERS + _BLANKS if fmt == "csv" else _BLANKS))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    end = draw(st.sampled_from(["\n", "\r\n", ""]))
    data = (end or "\n").join(lines).encode() + end.encode()
    if draw(st.integers(0, 9)) == 9:       # not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return fmt, data


def _outcome(read, path, fmt):
    """The arrays a reader returns, as bytes, or its exception's type and message."""
    try:
        f = read(path, fmt)
    except Exception as err:   # every exception, whatever its type, is an outcome
        return type(err), str(err)
    return f.space.weights.tobytes(), f.values.tobytes(), f.space.geometry


@settings(max_examples=400, deadline=None)
@given(case=_defective_function_files())
def test_reader_matches_the_reference_reader(tmp_path_factory, case):
    fmt, data = case
    path = tmp_path_factory.mktemp("r") / f"f.{fmt}"
    path.write_bytes(data)
    assert _outcome(load_function, path, fmt) == _outcome(reference_load_function, path, fmt)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_long_file_fails_on_its_bytes_before_its_rows(tmp_path, fmt):
    # a bad field on line 2 and bytes that are not UTF-8 at the very end:
    # decoding fails before any line is parsed, on both readers
    rng = random.Random(17)
    rows = [(i, rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0)) for i in range(4000)]
    rows[1] = (1, "one", 0.5)
    lines = [",".join(map(_csv_field, r)) if fmt == "csv" else json.dumps(dict(zip("iwv", r)))
             for r in rows]
    path = tmp_path / f"f.{fmt}"
    path.write_bytes(("\n".join(lines) + "\n").encode() + b"\xfe\n")
    got = _outcome(load_function, path, fmt)
    assert got == _outcome(reference_load_function, path, fmt)
    assert got[0] is UnicodeDecodeError


@pytest.mark.parametrize("field", ["w", "v"])
def test_integers_at_the_end_of_float_range(tmp_path, field):
    # 2^1024 - 2^970 is the least integer that rounds past the largest double
    edge = 2 ** 1024 - 2 ** 970
    for sign in (1, -1):
        for big in (edge - 1, edge):
            path = tmp_path / "f.jsonl"
            path.write_text(json.dumps({"i": 0, "w": 0.5, "v": 1.0, field: sign * big}) + "\n")
            got = _outcome(load_function, path, "jsonl")
            assert got == _outcome(reference_load_function, path, "jsonl")
            assert (got[0] is ValueError) == (big == edge or field == "w" and sign < 0)


def test_profile_csv_text_shape():
    e = GrandExponent(2.0, 1.0)
    sp = MeasureSpace.cyclic(4)
    prof = epsilon_profile(SampledFunction.constant(sp, 1.0), e,
                           make_epsilon_grid(e, points=8))
    text = profile_csv_text(prof)
    lines = text.splitlines()
    assert lines[0] == "eps,value"
    assert len(lines) == len(prof.entries) + 1
    eps0, val0 = lines[1].split(",")
    assert float(eps0) == prof.entries[0][0]
    assert float(val0) == prof.entries[0][1]


def test_canonical_json_layout():
    doc = {"b": 1, "a": {"y": True, "x": None}, "list": [1.5, "s"]}
    text = canonical_json(doc)
    assert text.index('"a"') < text.index('"b"') < text.index('"list"')
    assert '"x": null' in text
    assert '"y": true' in text


def test_canonical_json_floats():
    assert canonical_json(1.0) == "1.0"
    assert canonical_json(0.5) == "0.5"
    assert float(canonical_json(0.1)) == 0.1
    assert canonical_json(3) == "3"
    with pytest.raises(ValueError, match="finite"):
        canonical_json(float("inf"))
    with pytest.raises(ValueError, match="serialize"):
        canonical_json({"a": object()})


def test_render_report_deterministic():
    doc = {"z": [1, 2, {"k": 0.25}], "a": "text"}
    assert render_report(doc) == render_report(doc)
    assert render_report(doc).endswith("\n")
