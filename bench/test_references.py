"""The benchmark's references agree with the brute-force oracles of tests/oracles.py.

Run from the repository root:

    python3 -m pytest bench/test_references.py -q

Small sizes only; the oracles loop in plain Python.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import oracles  # noqa: E402
import reference as ref  # noqa: E402

CASES = [(2.0, 1.0), (1.5, 0.5), (3.0, 0.0), (2.5, 2.0), (1.25, 0.0), (4.0, 3.0)]


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


@pytest.mark.parametrize("p,theta", CASES)
@pytest.mark.parametrize("scale", [1.0, 0.25])
def test_grand_norm_matches_oracle(p, theta, scale):
    rng = np.random.default_rng(7)
    vals = rng.uniform(-1.0, 1.0, 12)
    w = rng.random(12) + 0.05
    want = oracles.brute_grand_norm(list(vals), list(w), p, theta, scale)
    assert _rel(ref.grand_norm(vals, w, p, theta, scale), want) < 1e-10


def test_grand_norm_rows_match_row_by_row():
    rng = np.random.default_rng(8)
    rows = rng.uniform(-1.0, 1.0, (6, 4))
    rows[2] = 0.0
    got = ref.grand_norm_rows(rows, 1.0 / 24, 2.5, 1.0)
    for row, value in zip(rows, got):
        want = oracles.brute_grand_norm(list(row), [1.0 / 24] * 4, 2.5, 1.0)
        assert value == want == 0.0 or _rel(value, want) < 1e-10


@pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.7])
def test_lp_norm_fsum_matches_oracle(r):
    rng = np.random.default_rng(9)
    vals = rng.uniform(-1.0, 1.0, 50)
    w = rng.random(50)
    assert _rel(ref.lp_norm_fsum(vals, w, r), oracles.brute_lp_norm(vals, w, r)) < 1e-13


@pytest.mark.parametrize("p,theta", CASES[:4])
def test_amalgam_norms_match_oracles(p, theta):
    n, q = 16, 2.0
    rng = np.random.default_rng(10)
    vals = rng.uniform(-1.0, 1.0, n)
    w = 1.0 / n
    members = (0, 1, 2, 3)

    def translate(qm, x):
        return {(m + x) % n for m in qm}

    want = oracles.brute_amalgam(list(vals), [w] * n, n, members, translate,
                                 p, theta, q, theta)
    assert _rel(ref.amalgam_norm(vals, w, members, p, q, theta), want) < 1e-10

    pieces = [[1.0 if 4 * i <= j < 4 * i + 4 else 0.0 for j in range(n)] for i in range(4)]
    want = oracles.brute_discrete_amalgam(list(vals), [w] * n, pieces, p, theta, q, theta)
    got = ref.grand_norm(ref.block_piece_norms(vals, w, 4, p, theta), np.ones(4), q, theta)
    assert _rel(got, want) < 1e-10


def test_classical_amalgam_is_theta_zero_amalgam():
    rng = np.random.default_rng(11)
    vals = rng.uniform(-1.0, 1.0, 16)
    got = ref.classical_amalgam_fsum(vals, 1.0 / 16, (0, 1, 2), 3.0, 1.5)
    want = ref.amalgam_norm(vals, 1.0 / 16, (0, 1, 2), 3.0, 1.5, 0.0)
    assert _rel(got, want) < 1e-12


@pytest.mark.parametrize("n,haar", [(12, 1.0 / 12), (9, 1.0)])
def test_axis_roll_convolution_matches_oracle(n, haar):
    rng = np.random.default_rng(12)
    f, g = rng.random(n), rng.random(n)
    want = oracles.brute_convolve(list(f), list(g), [haar] * n, n)
    np.testing.assert_allclose(ref.convolve_axis_roll(f, g, (n,), haar), want,
                               rtol=1e-13, atol=0.0)


def test_axis_roll_convolution_on_a_product_group():
    fac = (3, 4)
    rng = np.random.default_rng(13)
    f, g = rng.random(12), rng.random(12)
    want = np.zeros(12)
    for x in range(12):
        for y in range(12):
            d = ((x // 4 - y // 4) % 3) * 4 + (x % 4 - y % 4) % 4
            want[x] += f[y] * g[d] / 12.0
    np.testing.assert_allclose(ref.convolve_axis_roll(f, g, fac, 1.0 / 12), want,
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("m,p", [(2, 2.0), (5, 2.5), (9, 1.5)])
def test_witness_closed_form_matches_oracle(m, p):
    box = [1.0] * m + [0.0] * m
    conv = oracles.brute_convolve(box, box, [1.0] * (2 * m), 2 * m)
    want = oracles.brute_lp_norm(conv, [1.0] * (2 * m), p) \
        / oracles.brute_lp_norm(box, [1.0] * (2 * m), p) ** 2
    assert _rel(ref.witness_ratio(m, p), want) < 1e-13
    if p == 2.0 and m == 2:
        assert math.isclose(ref.witness_ratio(m, p), math.sqrt(6.0) / 2.0, rel_tol=1e-15)
