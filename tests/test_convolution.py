import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import grandam
from grandam.amalgam import Window
from grandam.convolution import (_BLOCK_ROWS, FiniteAbelianGroup,
                                 _box_self_convolution,
                                 amalgam_submultiplicativity_check, convolve,
                                 noncompact_witness, submultiplicativity_check)
from grandam.core import (COUNTING, PROBABILITY, GrandExponent, MeasureSpace,
                          SampledFunction, lp_norm, make_epsilon_grid)
from grandam import grand
from grandam.grand import grand_norm

from oracles import (brute_convolve, brute_group_convolve, full_gather, identity_element,
                     translated)


def test_group_basics():
    g = FiniteAbelianGroup.cyclic(6)
    assert g.order == 6
    assert g.haar_weight == pytest.approx(1 / 6)
    assert g.is_probability
    gc = FiniteAbelianGroup.cyclic(6, COUNTING)
    assert gc.haar_weight == 1.0
    assert not gc.is_probability
    with pytest.raises(ValueError, match="factors"):
        FiniteAbelianGroup((0, 3))


def test_slab_convolution_frozen_triangle():
    # chi_{0,1} * chi_{0,1} on a wide enough counting group: (1, 2, 1, 0).
    g = FiniteAbelianGroup.cyclic(4, COUNTING)
    box = SampledFunction.indicator(g.space, [0, 1])
    conv = convolve(box, box, g)
    assert list(conv.values) == [1.0, 2.0, 1.0, 0.0]


def test_identity_element():
    for norm in (None, COUNTING):
        g = (FiniteAbelianGroup.cyclic(7) if norm is None
             else FiniteAbelianGroup.cyclic(7, COUNTING))
        rng = np.random.default_rng(31)
        f = SampledFunction(g.space, rng.random(7))
        e = identity_element(g)
        np.testing.assert_allclose(convolve(f, e, g).values, f.values, rtol=1e-14)
        np.testing.assert_allclose(convolve(e, f, g).values, f.values, rtol=1e-14)


def test_convolution_commutes_and_translates():
    g = FiniteAbelianGroup.cyclic(9)
    rng = np.random.default_rng(32)
    f = SampledFunction(g.space, rng.random(9))
    h = SampledFunction(g.space, rng.random(9))
    np.testing.assert_allclose(convolve(f, h, g).values,
                               convolve(h, f, g).values, rtol=1e-13)
    # translating one factor translates the convolution
    np.testing.assert_allclose(convolve(translated(f, 4), h, g).values,
                               translated(convolve(f, h, g), 4).values, rtol=1e-13)


def test_convolution_oracle_agreement():
    rng = np.random.default_rng(33)
    for norm in (None, COUNTING):
        g = (FiniteAbelianGroup.cyclic(11) if norm is None
             else FiniteAbelianGroup.cyclic(11, COUNTING))
        f = SampledFunction(g.space, rng.random(11))
        h = SampledFunction(g.space, rng.random(11))
        want = brute_convolve(list(f.values), list(h.values),
                              list(g.space.weights), 11)
        np.testing.assert_allclose(convolve(f, h, g).values, want, rtol=1e-12)


def test_product_group_convolution():
    # Z_2 x Z_2 with counting weights: delta_(0,1) * delta_(1,0) = delta_(1,1).
    g = FiniteAbelianGroup((2, 2), COUNTING)
    a = SampledFunction.indicator(g.space, [1])   # (0,1)
    b = SampledFunction.indicator(g.space, [2])   # (1,0)
    conv = convolve(a, b, g)
    assert list(conv.values) == [0.0, 0.0, 0.0, 1.0]


@pytest.mark.parametrize("factors", [(4, 6), (2, 3, 5)])
@pytest.mark.parametrize("normalization", [PROBABILITY, COUNTING])
def test_product_group_convolution_matches_digit_sum(factors, normalization):
    g = FiniteAbelianGroup(factors, normalization)
    rng = np.random.default_rng(37)
    f = SampledFunction(g.space, rng.uniform(-1.0, 1.0, g.order))
    h = SampledFunction(g.space, rng.uniform(-1.0, 1.0, g.order))
    want = brute_group_convolve(list(f.values), list(h.values), g.haar_weight, factors)
    np.testing.assert_allclose(convolve(f, h, g).values, want, rtol=1e-12, atol=1e-15)


def _bit_mismatches():
    """Groups on which ``convolve`` differs in any bit from the full gather."""
    cases = [(n,) for n in range(1, 301)]
    cases += [(k * _BLOCK_ROWS + 1,) for k in (1, 2, 16, 32)]   # a one-row tail
    cases += [(3, 5, 7), (2, 3, 5, 7), (32, 64)]
    rng = np.random.default_rng(38)
    bad = []
    for factors in cases:
        for normalization in (PROBABILITY, COUNTING):
            g = FiniteAbelianGroup(factors, normalization)
            f = SampledFunction(g.space, rng.uniform(-1.0, 1.0, g.order))
            h = SampledFunction(g.space, rng.uniform(-1.0, 1.0, g.order))
            want = full_gather(h.values, factors) @ (f.values * g.haar_weight)
            got = convolve(f, h, g).values
            if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
                bad.append((factors, normalization))
    return bad


def test_blocked_convolve_keeps_the_full_gather_bits():
    # Above about 680 atoms a threaded BLAS splits the rows of the full
    # order^2 product among its threads, which moves the reference's own
    # bits; convolve's blocks stay below that size. So the comparison runs
    # in a child process with one BLAS thread.
    src = Path(grandam.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    proc = subprocess.run(
        [sys.executable, "-c", "from test_convolution import _bit_mismatches as m; print(m())"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _hashes():
    """SHA-256 of ``convolve`` on groups past 7 000 atoms, one of them with a one-row tail."""
    out = []
    for factors in [(8193,), (8217,), (3, 2731)]:
        g = FiniteAbelianGroup(factors)
        rng = np.random.default_rng(39)
        f = SampledFunction(g.space, rng.uniform(-1.0, 1.0, g.order))
        h = SampledFunction(g.space, rng.uniform(-1.0, 1.0, g.order))
        out.append(hashlib.sha256(convolve(f, h, g).values.tobytes()).hexdigest())
    return out


def test_convolve_bits_do_not_depend_on_the_blas_thread_count():
    # one block of 64 rows of Z_8193 is past the size at which OpenBLAS
    # threads a matrix-vector product; the blocks shrink to stay below it
    src = Path(grandam.__file__).resolve().parents[1]
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
        proc = subprocess.run(
            [sys.executable, "-c", "from test_convolution import _hashes; print(_hashes())"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout)
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("factors", [(4096,), (64, 64), (2,) * 11])
def test_convolve_memory_within_its_documented_budget(factors):
    # O(block * order + 2^k * order): one block of rows plus the copy of g
    # doubled along each of the k factor axes, which np.tile builds through
    # a half-size intermediate. On Z_4096 that is about 4 MiB, far below
    # the 128 MiB of the order^2 gather; on Z_2^11 the copy alone is order^2
    g = FiniteAbelianGroup(factors)
    rng = np.random.default_rng(41)
    f = SampledFunction(g.space, rng.random(g.order))
    h = SampledFunction(g.space, rng.random(g.order))
    tracemalloc.start()
    try:
        convolve(f, h, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2 * 65 + 1.5 * 2 ** len(factors)) * g.order * 8   # blocks of <= 65 rows


def test_convolve_overflow_is_a_value_error():
    g = FiniteAbelianGroup.cyclic(16)
    big = SampledFunction(g.space, 1e160 * np.random.default_rng(42).random(16))
    with pytest.raises(ValueError, match="convolution overflowed"):
        convolve(big, big, g)


def test_l1_norm_multiplicative_for_nonnegative():
    g = FiniteAbelianGroup.cyclic(8)
    rng = np.random.default_rng(34)
    f = SampledFunction(g.space, rng.random(8))
    h = SampledFunction(g.space, rng.random(8))
    assert lp_norm(convolve(f, h, g), 1.0) == pytest.approx(
        lp_norm(f, 1.0) * lp_norm(h, 1.0), rel=1e-13)


def test_convolve_rejects_foreign_functions():
    g = FiniteAbelianGroup.cyclic(4)
    f = SampledFunction.constant(MeasureSpace.cyclic(5), 1.0)
    with pytest.raises(ValueError, match="group's space"):
        convolve(f, f, g)


def test_submultiplicativity_holds_for_p_at_least_two():
    rng = np.random.default_rng(35)
    for p, theta in ((2.0, 0.0), (2.0, 1.0), (3.0, 1.0)):
        e = GrandExponent(p, theta)
        grid = make_epsilon_grid(e)
        g = FiniteAbelianGroup.cyclic(16)
        for _ in range(10):
            f = SampledFunction(g.space, rng.random(16))
            h = SampledFunction(g.space, rng.random(16))
            rep = submultiplicativity_check(f, h, g, e, grid)
            assert rep.hypotheses_met
            assert rep.warning is None
            assert rep.passed, rep.ratio
            assert all(row.passed for row in rep.per_eps)


def test_submultiplicativity_fails_below_two_with_constants():
    # f = g = 1 on a probability group, p = 3/2, theta = 1: each norm is
    # sup eps^(2/(1-2eps)) < 1 while the convolution is again 1, so the
    # ratio is forced above 1. The certified fallback (p-1)^(-theta) = 2
    # still holds.
    g = FiniteAbelianGroup.cyclic(8)
    one = SampledFunction.constant(g.space, 1.0)
    e = GrandExponent(1.5, 1.0)
    rep = submultiplicativity_check(one, one, g, e, make_epsilon_grid(e))
    assert rep.hypotheses_met
    assert not rep.passed
    assert rep.ratio == pytest.approx(2.0, rel=1e-9)
    assert rep.provable_bound == pytest.approx(2.0)
    assert rep.ratio <= rep.provable_bound * (1 + 1e-9)
    assert all(row.passed for row in rep.per_eps)   # each layer still obeys Young


def test_submultiplicativity_counting_warns():
    g = FiniteAbelianGroup.cyclic(8, COUNTING)
    box = SampledFunction.indicator(g.space, range(4))
    e = GrandExponent(2.0, 1.0)
    rep = submultiplicativity_check(box, box, g, e, make_epsilon_grid(e))
    assert not rep.hypotheses_met
    assert rep.warning == "hypotheses-not-met"
    # the eps = 1 layer (an l1 identity for indicators) dominates both
    # grand norms here, but the intermediate layers violate the classical
    # inequality; those per-eps failures are the counting-model signal.
    assert any(not row.passed for row in rep.per_eps)
    doc = rep.to_doc()
    assert doc["warning"] == "hypotheses-not-met"
    assert len(doc["per_eps"]) == len(make_epsilon_grid(e).eps_values)


@pytest.mark.parametrize("factors", [(48,), (4, 6)])
@pytest.mark.parametrize("normalization", [PROBABILITY, COUNTING])
@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_per_eps_rows_are_the_plain_lp_norms(factors, normalization, theta):
    g = FiniteAbelianGroup(factors, normalization)
    rng = np.random.default_rng(40)
    f = SampledFunction(g.space, rng.uniform(-1.0, 1.0, g.order))
    h = SampledFunction(g.space, rng.random(g.order))
    e = GrandExponent(2.5, theta)
    grid = make_epsilon_grid(e)
    rep = submultiplicativity_check(f, h, g, e, grid)
    conv = convolve(f, h, g)
    assert rep.lhs == grand_norm(conv, e, grid)
    assert rep.rhs == grand_norm(f, e, grid) * grand_norm(h, e, grid)
    assert [row.eps for row in rep.per_eps] == grid.eps_values.tolist()
    for row in rep.per_eps:
        r = e.p - row.eps
        assert row.lhs == lp_norm(conv, r)
        assert row.rhs == lp_norm(f, r) * lp_norm(h, r)


def test_the_check_reads_the_pruned_ladder(monkeypatch):
    # the three suprema are pruned, and only the grid points pruning left
    # out are evaluated for the per-eps table; every module that calls the
    # r-norm kernel counts
    calls = []
    kernel = grandam.core._weighted_r_norm

    def count(*args):
        calls.append(args[2])
        return kernel(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("grandam") and hasattr(module, "_weighted_r_norm"):
            monkeypatch.setattr(module, "_weighted_r_norm", count)
    g = FiniteAbelianGroup.cyclic(2048)
    rng = np.random.default_rng(2048)
    f = SampledFunction(g.space, rng.uniform(0.0, 1.0, g.order))
    h = SampledFunction(g.space, rng.uniform(0.0, 1.0, g.order))
    e = GrandExponent(2.0, 1.0)
    grid = make_epsilon_grid(e)
    rep = submultiplicativity_check(f, h, g, e, grid)
    assert len(calls) <= 200   # 318 with three full tables
    conv = convolve(f, h, g)
    (conv_sup, conv_ladder), (f_sup, f_ladder), (h_sup, h_ladder) = (
        grand._norm_sup(x.abs_values(), x.space.weights, e, grid, table=True)
        for x in (conv, f, h))
    assert rep.lhs.hex() == conv_sup.sup_value.hex()
    assert rep.rhs.hex() == (f_sup.sup_value * h_sup.sup_value).hex()
    for row, nc, nf, nh in zip(rep.per_eps, conv_ladder.norms, f_ladder.norms,
                               h_ladder.norms):
        r = e.p - row.eps
        assert row.lhs.hex() == nc.hex() == lp_norm(conv, r).hex()
        assert row.rhs.hex() == (nf * nh).hex() == (lp_norm(f, r) * lp_norm(h, r)).hex()


def test_amalgam_algebra_certified_constant():
    rng = np.random.default_rng(36)
    g = FiniteAbelianGroup.cyclic(16)
    Q = Window(g.space, (0, 1, 2, 3))
    for theta in (0.0, 1.0):
        e = GrandExponent(2.0, theta)
        grid = make_epsilon_grid(e)
        for _ in range(5):
            f = SampledFunction(g.space, rng.random(16))
            h = SampledFunction(g.space, rng.random(16))
            rep = amalgam_submultiplicativity_check(f, h, g, Q, e, e, grid, grid)
            assert rep.hypotheses_met
            assert rep.passed
            assert rep.ratio <= rep.constant_c * (1 + 1e-9)
            assert rep.decoupled_bound > 0.0
            assert set(rep.components) == {"phi_q", "g_w", "m_q",
                                           "window_mass", "atom_weight"}


def test_witness_frozen_ratio():
    rep = noncompact_witness(2, 2.0)
    assert rep.ratio_m == pytest.approx(math.sqrt(6.0) / 2.0, abs=1e-12)
    assert rep.ratio_m == pytest.approx(1.2247448713915890, abs=1e-6)
    assert rep.growing
    doc = rep.to_doc()
    assert doc["growing"] is True


def test_witness_ratios_grow_along_doubling():
    prev = 1.0
    for m in (2, 4, 8, 16, 32):
        rep = noncompact_witness(m, 2.0)
        assert rep.ratio_m > prev
        assert rep.ratio_2m > rep.ratio_m
        prev = rep.ratio_m


def test_box_self_convolution_keeps_the_convolve_bits():
    # the witness builds its triangle directly; these are the bits the
    # O(m^2) convolution on Z_2m with counting weights gives
    for m in range(2, 40):
        group = FiniteAbelianGroup.cyclic(2 * m, COUNTING)
        box = SampledFunction.indicator(group.space, range(m))
        want = convolve(box, box, group).values
        got = _box_self_convolution(m)
        assert got.space.is_counting and got.space.size == 2 * m
        assert got.values.tobytes() == want.tobytes(), m


@pytest.mark.parametrize("normalization", [PROBABILITY, COUNTING])
def test_amalgam_algebra_warning_restates_hypotheses(normalization):
    g = FiniteAbelianGroup.cyclic(8, normalization)
    box = SampledFunction.indicator(g.space, range(4))
    e = GrandExponent(2.0, 1.0)
    grid = make_epsilon_grid(e)
    rep = amalgam_submultiplicativity_check(box, box, g, Window(g.space, (0, 1)),
                                            e, e, grid, grid)
    assert rep.hypotheses_met == (normalization == PROBABILITY)
    doc = rep.to_doc()
    if rep.hypotheses_met:
        assert rep.warning is None and "warning" not in doc
    else:
        assert rep.warning == doc["warning"] == "hypotheses-not-met"


def test_witness_growth_rate_matches_exponent():
    # r(2m)/r(m) approaches 2^(1 - 1/p); at p = 2 that is sqrt(2).
    rep = noncompact_witness(64, 2.0)
    assert rep.ratio_2m / rep.ratio_m == pytest.approx(math.sqrt(2.0), rel=2e-2)


def test_witness_flat_at_p_one():
    # ||f*g||_1 = ||f||_1 ||g||_1 for indicators, so nothing grows.
    rep = noncompact_witness(4, 1.0)
    assert rep.ratio_m == pytest.approx(1.0, rel=1e-12)
    assert not rep.growing


def test_witness_argument_validation():
    with pytest.raises(ValueError, match="m "):
        noncompact_witness(1, 2.0)
    with pytest.raises(ValueError, match="p "):
        noncompact_witness(2, 0.5)
