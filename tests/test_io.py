import numpy as np
import pytest

from grandam.core import (CYCLIC, GrandExponent, INTERVAL, MeasureSpace,
                          SampledFunction, make_epsilon_grid)
from grandam.grand import epsilon_profile
from grandam.iofmt import (canonical_json, load_function, profile_csv_text,
                           render_report, sniff_format, write_function)


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
