"""File formats: sampled-function tables, profile CSVs, canonical reports.

Function files carry one atom per line as (index, weight, value), either
as CSV with a header or as JSON lines with keys i/w/v. A row parser per
format reads one line; the loader parses every line, then checks the rows
in file order and places them in one pass. Reports are emitted through
a small canonical JSON writer (sorted keys, seventeen significant digits
for floats, LF line endings) so that identical inputs always produce
byte-identical output.
"""

import json
import math

import numpy as np

from .core import MeasureSpace, SampledFunction

CSV = "csv"
JSONL = "jsonl"


def sniff_format(path, fmt=None):
    if fmt is not None:
        if fmt not in (CSV, JSONL):
            raise ValueError(f"format (={fmt!r}) must be {CSV!r} or {JSONL!r}")
        return fmt
    name = str(path).lower()
    if name.endswith(".jsonl"):
        return JSONL
    return CSV


def _csv_row(line, lineno):
    """(index, weight, value) of a stripped CSV line, or None for the header."""
    parts = line.split(",")
    try:
        if len(parts) == 3:
            return int(parts[0]), float(parts[1]), float(parts[2])
        err = "expected 3 comma-separated fields"
    except ValueError as exc:
        err = exc
    if line.lower().replace(" ", "") != "index,weight,value":
        raise ValueError(f"line {lineno}: {err}")


_NUMBER = (int, float)   # the JSON number types; booleans do not count as numbers
_KEYS = {"i", "w", "v"}    # the keys of a JSON line
_KINDS = (("i", int), ("w", float), ("v", float))


def typed_value(value, kind, where):
    """A parsed JSON ``value`` checked against ``kind`` (int, float, str or list).

    Integers pass as floats, unless they leave float range; booleans pass
    as neither. ``where`` names the offending key or line in the error.
    """
    accepted = _NUMBER if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{where} (={value!r}) must be of type {kind.__name__}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{where} is an integer too large for a float") from None


def _jsonl_row(line, lineno):
    """(index, weight, value) of a stripped JSON line."""
    try:
        obj = json.loads(line)
    except ValueError as err:   # a JSONDecodeError, or an integer past Python's digit limit
        raise ValueError(f"line {lineno}: invalid JSON ({getattr(err, 'msg', err)})") from None
    if not isinstance(obj, dict) or obj.keys() != _KEYS:
        raise ValueError(f"line {lineno}: expected an object with keys i, w, v")
    i, w, v = obj["i"], obj["w"], obj["v"]
    if type(i) is int and type(w) in _NUMBER and type(v) in _NUMBER:
        try:
            return i, float(w), float(v)
        except OverflowError:
            pass   # typed_value names the key
    return tuple(typed_value(obj[key], kind, f"line {lineno}: {key}") for key, kind in _KINDS)


def load_function(path, fmt=None):
    """Read a sampled function (and its measure space) from a table file.

    The space is cyclic (Z_n) with the file's weights. Indices must
    enumerate 0..n-1 without gaps or repeats, and weights must be
    positive; every complaint names the offending line.
    """
    row = _csv_row if sniff_format(path, fmt) == CSV else _jsonl_row
    linenos, rows = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh.readlines(), start=1):   # all decoded before any is parsed
            if (line := raw.strip()) and (parsed := row(line, lineno)):
                linenos.append(lineno)
                rows.append(parsed)
    n = len(rows)
    if not n:
        raise ValueError(f"{path}: no rows")
    weights, values = np.empty(n), np.empty(n)
    seen = {}
    for lineno, (idx, w, v) in zip(linenos, rows):
        if (first := seen.setdefault(idx, lineno)) != lineno:
            raise ValueError(f"line {lineno}: duplicate index {idx} (first seen on line {first})")
        if not w > 0.0:
            raise ValueError(f"line {lineno}: weight (={w}) must be > 0")
        if not (math.isfinite(w) and math.isfinite(v)):
            raise ValueError(f"line {lineno}: weight and value must be finite")
        if 0 <= idx < n:   # any other index leaves a gap, reported below
            weights[idx], values[idx] = w, v
    missing = sorted(set(range(n)).difference(seen))[:3]
    if missing:
        raise ValueError(f"indices must enumerate 0..{n - 1}; missing {missing}")
    return SampledFunction(MeasureSpace(weights), values)


def write_function(f, path, fmt=None):
    """Write a sampled function so that loading it back is bit-exact."""
    fmt = sniff_format(path, fmt)
    if np.iscomplexobj(f.values):
        raise ValueError("function files carry real values only")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == CSV:
            fh.write("index,weight,value\n")
            for i in range(f.space.size):
                fh.write(f"{i},{float(f.space.weights[i])!r},"
                         f"{float(f.values[i])!r}\n")
        else:
            for i in range(f.space.size):
                fh.write(json.dumps({"i": i, "w": float(f.space.weights[i]),
                                     "v": float(f.values[i])}) + "\n")


def profile_csv_text(profile):
    """CSV body for an epsilon profile: header then eps,value rows."""
    out = ["eps,value"]
    for eps, val in profile.entries:
        out.append(f"{float(eps)!r},{float(val)!r}")
    return "\n".join(out) + "\n"


def _fmt_float(x):
    if not math.isfinite(x):
        raise ValueError("reports must contain finite numbers only")
    s = f"{x:.17g}"
    if "." not in s and "e" not in s and "E" not in s and "n" not in s:
        s += ".0"
    return s


def canonical_json(doc, indent=0):
    """Serialize to JSON with sorted keys and 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if doc is None:
        return "null"
    if doc is True:
        return "true"
    if doc is False:
        return "false"
    if isinstance(doc, (int, np.integer)):
        return str(int(doc))
    if isinstance(doc, (float, np.floating)):
        return _fmt_float(float(doc))
    if isinstance(doc, str):
        return json.dumps(doc)
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        items = []
        for key in sorted(doc):
            if not isinstance(key, str):
                raise ValueError("report keys must be strings")
            items.append(f"{inner}{json.dumps(key)}: {canonical_json(doc[key], indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(doc, (list, tuple)):
        if not len(doc):
            return "[]"
        items = [f"{inner}{canonical_json(v, indent + 1)}" for v in doc]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise ValueError(f"cannot serialize {type(doc).__name__} into a report")


def render_report(doc):
    return canonical_json(doc) + "\n"
