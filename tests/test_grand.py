import os
import subprocess
import sys

import numpy as np
import pytest

from grandam.core import (INTERVAL, GrandExponent, MeasureSpace, SampledFunction,
                          grand_factor, lp_norm, make_epsilon_grid)
from grandam.grand import (closure_criterion, embedding_constants,
                           epsilon_profile, grand_norm, grand_sequence_norm)

from oracles import brute_grand_norm


def _grid(p, theta, **kw):
    return make_epsilon_grid(GrandExponent(p, theta), **kw)


def test_constant_one_probability_p2_theta1():
    # sup_eps eps^(1/(2-eps)) over (0,1] is reached at eps = 1 with value 1.
    sp = MeasureSpace.cyclic(8)
    f = SampledFunction.constant(sp, 1.0)
    e = GrandExponent(2.0, 1.0)
    assert grand_norm(f, e, _grid(2.0, 1.0)) == 1.0


def test_theta_zero_reduces_to_lp_exactly():
    rng = np.random.default_rng(2)
    for p in (1.5, 2.0, 3.0):
        e = GrandExponent(p, 0.0)
        grid = _grid(p, 0.0)
        for _ in range(20):
            n = int(rng.integers(4, 64))
            sp = MeasureSpace.cyclic(n) if rng.random() < 0.5 else MeasureSpace.interval(n)
            f = SampledFunction(sp, rng.random(n))
            assert grand_norm(f, e, grid) == lp_norm(f, p)


def test_definitional_lower_bound_every_grid_eps():
    # The sup dominates each of its candidates exactly, including raw
    # grid evaluations: no refinement step may fall below one of them.
    rng = np.random.default_rng(3)
    sp = MeasureSpace.cyclic(16)
    e = GrandExponent(2.5, 1.0)
    grid = _grid(2.5, 1.0)
    for _ in range(10):
        f = SampledFunction(sp, rng.random(16))
        gn = grand_norm(f, e, grid)
        for eps in grid.eps_values:
            eps = float(eps)
            assert grand_factor(eps, e) * lp_norm(f, e.p - eps) <= gn


def test_grand_norm_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(2, 24))
        sp = (MeasureSpace.cyclic(n), MeasureSpace.interval(n),
              MeasureSpace.counting(n))[int(rng.integers(0, 3))]
        f = SampledFunction(sp, rng.random(n) * 5.0)
        p = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
        theta = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        e = GrandExponent(p, theta)
        got = grand_norm(f, e, _grid(p, theta))
        want = brute_grand_norm(list(f.values), list(sp.weights), p, theta)
        assert got == pytest.approx(want, rel=1e-10)


def test_grand_norm_homogeneity_and_triangle():
    rng = np.random.default_rng(6)
    sp = MeasureSpace.cyclic(12)
    e = GrandExponent(2.0, 1.0)
    grid = _grid(2.0, 1.0)
    for _ in range(15):
        f = SampledFunction(sp, rng.standard_normal(12))
        g = SampledFunction(sp, rng.standard_normal(12))
        c = float(rng.uniform(0.1, 4.0))
        assert grand_norm(f.scaled(c), e, grid) == pytest.approx(
            c * grand_norm(f, e, grid), rel=1e-10)
        assert grand_norm(f + g, e, grid) <= (
            grand_norm(f, e, grid) + grand_norm(g, e, grid)) * (1 + 1e-10)


def test_grand_norm_translation_invariant_on_cyclic():
    rng = np.random.default_rng(7)
    sp = MeasureSpace.cyclic(10)
    e = GrandExponent(2.0, 1.0)
    grid = _grid(2.0, 1.0)
    f = SampledFunction(sp, rng.random(10))
    base = grand_norm(f, e, grid)
    for s in range(10):
        assert grand_norm(f.translated(s), e, grid) == pytest.approx(base, rel=1e-14)


def test_theta_monotone_for_small_p():
    # All eps weights sit in (0,1] when p <= 2, so a larger theta can
    # only shrink every candidate and with it the supremum.
    rng = np.random.default_rng(8)
    sp = MeasureSpace.cyclic(20)
    for p in (1.5, 2.0):
        f = SampledFunction(sp, rng.random(20))
        norms = [grand_norm(f, GrandExponent(p, th), _grid(p, th))
                 for th in (0.0, 0.5, 1.0, 2.0)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_zero_function():
    sp = MeasureSpace.cyclic(6)
    e = GrandExponent(2.0, 1.0)
    assert grand_norm(SampledFunction.zero(sp), e, _grid(2.0, 1.0)) == 0.0


def test_grid_mismatch_rejected():
    sp = MeasureSpace.cyclic(6)
    f = SampledFunction.constant(sp, 1.0)
    with pytest.raises(ValueError, match="tops out"):
        grand_norm(f, GrandExponent(3.0, 1.0), _grid(2.0, 1.0))


def test_sequence_norm_of_delta_is_one():
    # Single unit atom: sup_eta eta^(theta/(2-eta)) * 1 = 1 at eta = 1.
    sp = MeasureSpace.counting(6)
    d = SampledFunction.indicator(sp, [0])
    e = GrandExponent(2.0, 1.0)
    assert grand_sequence_norm(d, e, _grid(2.0, 1.0)) == 1.0


def test_sequence_norm_theta0_degenerates_to_l1():
    # Counting norms decrease in the exponent, so with no eps weight the
    # sup sits at the bottom exponent p - eps_max = 1.
    sp = MeasureSpace.counting(5)
    u = SampledFunction(sp, np.array([3.0, 1.0, 0.5, 2.0, 0.25]))
    e = GrandExponent(2.0, 0.0)
    assert grand_sequence_norm(u, e, _grid(2.0, 0.0)) == pytest.approx(6.75, rel=1e-12)


def test_sequence_norm_needs_counting_measure():
    sp = MeasureSpace.cyclic(4)
    f = SampledFunction.constant(sp, 1.0)
    with pytest.raises(ValueError, match="counting"):
        grand_sequence_norm(f, GrandExponent(2.0, 1.0))


def test_profile_sup_equals_norm_exactly():
    rng = np.random.default_rng(9)
    sp = MeasureSpace.interval(14)
    e = GrandExponent(2.0, 1.0)
    grid = _grid(2.0, 1.0)
    f = SampledFunction(sp, rng.random(14))
    prof = epsilon_profile(f, e, grid)
    assert prof.sup_value == grand_norm(f, e, grid)
    assert max(v for _, v in prof.entries) == prof.sup_value
    assert prof.value_at(prof.argmax_eps) == prof.sup_value


def test_profile_contains_grid_and_zero_entry():
    e = GrandExponent(2.0, 1.0)
    grid = _grid(2.0, 1.0, points=16)
    sp = MeasureSpace.cyclic(8)
    f = SampledFunction.constant(sp, 2.0)
    prof = epsilon_profile(f, e, grid)
    eps_seen = [eps for eps, _ in prof.entries]
    for eps in grid.eps_values:
        assert float(eps) in eps_seen
    assert 0.0 in eps_seen
    assert prof.value_at(0.0) == 0.0     # theta > 0 boundary candidate
    with pytest.raises(KeyError):
        prof.value_at(0.123456)


def test_profile_values_vanish_towards_zero():
    rng = np.random.default_rng(10)
    sp = MeasureSpace.cyclic(32)
    e = GrandExponent(2.0, 1.0)
    grid = _grid(2.0, 1.0)
    f = SampledFunction(sp, rng.random(32))
    prof = epsilon_profile(f, e, grid)
    small = [v for eps, v in prof.entries if eps > 0.0][:5]
    assert all(a < b for a, b in zip(small, small[1:]))


def test_closure_criterion_theta_positive():
    rng = np.random.default_rng(12)
    sp = MeasureSpace.cyclic(16)
    e = GrandExponent(2.0, 1.0)
    grid = _grid(2.0, 1.0)
    f = SampledFunction(sp, rng.random(16) + 0.5)
    rep = closure_criterion(f, e, grid, tol=1e-4)
    assert rep.applicable
    assert rep.in_closure
    assert 0.0 < rep.limit_estimate < 1e-4
    assert rep.eps_at == pytest.approx(grid.eps_min ** 2 / grid.eps_max)


def test_closure_criterion_theta_zero_not_applicable():
    sp = MeasureSpace.cyclic(8)
    f = SampledFunction.constant(sp, 3.0)
    rep = closure_criterion(f, GrandExponent(2.0, 0.0), _grid(2.0, 0.0))
    assert not rep.applicable
    assert not rep.in_closure
    assert rep.limit_estimate == pytest.approx(3.0)
    doc = rep.to_doc()
    assert doc["applicable"] is False


def test_embedding_constants_sandwich():
    rng = np.random.default_rng(13)
    for p, theta in ((1.5, 1.0), (2.0, 0.0), (2.0, 1.0), (3.0, 2.0)):
        e = GrandExponent(p, theta)
        grid = _grid(p, theta)
        n = int(rng.integers(4, 40))
        sp = MeasureSpace.cyclic(n)
        f = SampledFunction(sp, rng.random(n) + 0.01)
        gn = grand_norm(f, e, grid)
        for eps in (float(grid.eps_values[0]), float(grid.eps_values[len(grid.eps_values) // 2]),
                    e.eps_max):
            con = embedding_constants(e, eps, sp, grid)
            assert gn <= con.c_upper * lp_norm(f, p) * (1 + 1e-10)
            assert lp_norm(f, p - eps) <= con.c_lower * gn * (1 + 1e-10)
            assert con.eps == eps


@pytest.mark.parametrize("space", [
    MeasureSpace.cyclic(7),
    MeasureSpace.counting(12),
    MeasureSpace(np.array([0.5, 2.0, 1.25, 0.1]), INTERVAL),
], ids=["probability", "counting", "interval"])
def test_embedding_upper_constant_is_attained_by_constants(space):
    one = SampledFunction.constant(space, 1.0)
    for p, theta in ((1.5, 1.0), (2.0, 0.0), (2.0, 1.0), (3.0, 2.0), (1.2, 3.0)):
        e = GrandExponent(p, theta)
        con = embedding_constants(e, e.eps_max, space)
        assert grand_norm(one, e) == pytest.approx(con.c_upper * lp_norm(one, p), rel=1e-15)


def test_embedding_constants_reject_an_underflowing_weight():
    # 1e-6^(700/(2 - 1e-6)) is below the float range, so c_lower would be 1/0
    with pytest.raises(ValueError, match=r"eps \(=1e-06\)"):
        embedding_constants(GrandExponent(2.0, 700.0), 1e-6, MeasureSpace.cyclic(4))


@pytest.mark.parametrize("p, theta", [(3.0, 1100.0), (1.5, 2000.0), (1e300, 3.0)])
def test_exponent_weight_must_stay_in_float_range(p, theta):
    with pytest.raises(ValueError) as err:
        GrandExponent(p, theta)
    assert f"theta (={theta})" in str(err.value) and f"p (={p})" in str(err.value)


def test_p_two_takes_any_theta():
    # the weight eps^(theta/(2-eps)) tops out at 1 on (0, 1], reached at eps = 1
    f = SampledFunction(MeasureSpace.cyclic(8), np.arange(8.0))
    assert grand_norm(f, GrandExponent(2.0, 1e300)) == lp_norm(f, 1.0)


def test_embedding_constants_probability_theta0():
    # Mass 1 and no eps weight: both directions collapse to constant 1.
    sp = MeasureSpace.cyclic(8)
    e = GrandExponent(2.0, 0.0)
    con = embedding_constants(e, 1.0, sp, _grid(2.0, 0.0))
    assert con.c_upper == 1.0
    assert con.c_lower == 1.0


def test_overflowing_weighted_norm_is_refused_with_its_eps():
    # (p - 1)^theta = 2^1000 is finite, but times a norm near 2e10 it is not
    f = SampledFunction(MeasureSpace.cyclic(2), np.array([1e10, 2e10]))
    e = GrandExponent(3.0, 1000.0)
    with pytest.raises(ValueError, match=r"overflowed at eps \(=[0-9.e+-]+\)"):
        grand_norm(f, e)
    with pytest.raises(ValueError, match="overflowed"):
        epsilon_profile(f, e)


@pytest.mark.parametrize("c", [1e160, 1e-170, 1e300, 1e-300])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_homogeneity_near_float_limits(c, p, theta):
    # |f|^r leaves float range for these scales; the norm must not
    rng = np.random.default_rng(17)
    e = GrandExponent(p, theta)
    grid = _grid(p, theta)
    for sp in (MeasureSpace.cyclic(16), MeasureSpace.counting(16)):
        f = SampledFunction(sp, rng.uniform(-1.0, 1.0, 16))
        assert grand_norm(f.scaled(c), e, grid) == pytest.approx(
            c * grand_norm(f, e, grid), rel=1e-12)
        assert lp_norm(f.scaled(c), p) == pytest.approx(c * lp_norm(f, p), rel=1e-12)


def test_float_range_norms_of_the_large_fault_input_are_pinned():
    # norm-large's float-range operations: 65 536 atoms, p = 3, theta = 0.
    # A dot over more than 10 000 atoms has bits that depend on the BLAS
    # thread count, so the pin is taken with one thread.
    script = (
        "import numpy as np, grandam as ga\n"
        "f = ga.SampledFunction(ga.MeasureSpace.cyclic(65536),\n"
        "                       np.random.default_rng(0).uniform(-1.0, 1.0, 65536))\n"
        "e = ga.GrandExponent(3.0, 0.0)\n"
        "print(repr(ga.grand_norm(f.scaled(1e160), e)), repr(ga.grand_norm(f.scaled(1e-170), e)))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["6.294755701928522e+159", "6.294755701928521e-171"]
