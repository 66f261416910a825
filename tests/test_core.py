import math

import numpy as np
import pytest

from grandam.core import (_TINY, COUNTING, CYCLIC, INTERVAL, EpsilonGrid,
                          GrandExponent, MeasureSpace, SampledFunction, _extent,
                          _weighted_r_norm, grand_factor, lp_norm, make_epsilon_grid)

from grandam.amalgam import Bupu, Window, make_uniform_bupu, translate_window
from grandam.convolution import noncompact_witness

from oracles import brute_negate, brute_translate


def _moved(sp, members, shift):
    return translate_window(Window(sp, members), shift).members


def test_cyclic_space_is_probability():
    sp = MeasureSpace.cyclic(8)
    assert sp.size == 8
    assert sp.geometry == CYCLIC
    assert sp.total_mass == pytest.approx(1.0)
    assert sp.is_probability
    assert sp.uniform_weight() == pytest.approx(0.125)


def test_counting_space_unit_weights():
    sp = MeasureSpace.counting(5)
    assert sp.is_counting
    assert not sp.is_probability
    assert sp.total_mass == 5.0
    assert sp.geometry == INTERVAL


def test_cyclic_counting_normalization():
    sp = MeasureSpace.cyclic(6, COUNTING)
    assert sp.is_counting
    assert sp.geometry == CYCLIC


def test_bad_space_arguments():
    with pytest.raises(ValueError, match="non-empty"):
        MeasureSpace(np.array([]))
    for empty in (MeasureSpace.cyclic, MeasureSpace.interval, MeasureSpace.counting):
        with pytest.raises(ValueError, match="at least one atom"):
            empty(0)
    with pytest.raises(ValueError, match="> 0"):
        MeasureSpace(np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="geometry"):
        MeasureSpace(np.ones(3), geometry="torus")
    with pytest.raises(ValueError, match="normalization"):
        MeasureSpace.cyclic(4, "uniform")


def test_weights_are_frozen():
    sp = MeasureSpace.cyclic(4)
    with pytest.raises(ValueError):
        sp.weights[0] = 2.0


def test_cyclic_translation_wraps():
    sp = MeasureSpace.cyclic(8)
    assert sp.translate_index(6, 3) == 1
    assert sp.translate_index(0, -1) == 7
    assert sp.negate_index(3) == 5
    assert sp.negate_index(0) == 0


def test_interval_translation_clips():
    sp = MeasureSpace.interval(8)
    assert sp.translate_index(2, 3) == 5
    assert sp.translate_index(6, 3) is None
    assert _moved(sp, (6, 7), 3) == ()
    assert _moved(sp, (0, 1, 6), 1) == (1, 2, 7)


def test_product_group_translation():
    # Z_2 x Z_3 laid out row-major: index = 3 a + b.
    sp = MeasureSpace.product((2, 3))
    assert sp.size == 6
    assert sp.translate_index(5, 4) == 0    # (1,2) + (1,1) = (0,0)
    assert sp.negate_index(4) == 5          # -(1,1) = (1,2), index 3*1+2
    with pytest.raises(ValueError, match="factors"):
        MeasureSpace(np.ones(5), CYCLIC, factors=(2, 3))


@pytest.mark.parametrize("factors", [(8,), (2, 3), (4, 3, 2)])
def test_translation_matches_digit_loop(factors):
    sp = MeasureSpace.product(factors)
    n = sp.size
    shifts = range(-n - 3, 2 * n + 3)           # negative and >= n included
    for i in range(n):
        assert sp.negate_index(i) == brute_negate(i, factors)
        for s in shifts:
            want = brute_translate(i, s, factors)
            assert sp.translate_index(i, s) == want
            assert _moved(sp, (i,), s) == (want,)
    f = SampledFunction(sp, np.arange(float(n)))
    for s in shifts:
        want = tuple(sorted(brute_translate(i, s, factors) for i in range(0, n, 2)))
        assert _moved(sp, range(0, n, 2), s) == want
        moved = f.translated(s).values               # (T_s f)(x + s) = f(x)
        assert all(moved[brute_translate(x, s, factors)] == x for x in range(n))


def test_interval_translation_matches_clipping_loop():
    sp = MeasureSpace.interval(6)
    for s in range(-8, 9):
        for i in range(6):
            want = i + s if 0 <= i + s < 6 else None
            assert sp.translate_index(i, s) == want
        assert _moved(sp, range(6), s) == tuple(
            i + s for i in range(6) if 0 <= i + s < 6)


def test_sampled_function_basics():
    sp = MeasureSpace.cyclic(4)
    f = SampledFunction(sp, np.array([1.0, -2.0, 0.0, 3.0]))
    assert list(f.abs_values()) == [1.0, 2.0, 0.0, 3.0]
    g = SampledFunction.indicator(sp, [1, 3])
    assert list(g.values) == [0.0, 1.0, 0.0, 1.0]
    assert list(f.pointwise_mul(g).values) == [0.0, -2.0, 0.0, 3.0]
    assert list(f.scaled(-1.0).values) == [-1.0, 2.0, 0.0, -3.0]
    assert list((f + g).values) == [1.0, -1.0, 0.0, 4.0]
    assert list((f - g).values) == [1.0, -3.0, 0.0, 2.0]


@pytest.mark.parametrize("op", [
    lambda f, g: f + g, lambda f, g: f - g, lambda f, g: f.pointwise_mul(g),
], ids=["add", "sub", "pointwise_mul"])
def test_pointwise_ops_reject_other_space(op):
    f = SampledFunction.constant(MeasureSpace.cyclic(4), 1.0)
    g = SampledFunction.constant(MeasureSpace.interval(4, COUNTING), 1.0)
    with pytest.raises(ValueError, match="same space"):
        op(f, g)


def test_sampled_function_validation():
    sp = MeasureSpace.cyclic(4)
    with pytest.raises(ValueError, match="shape"):
        SampledFunction(sp, np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        SampledFunction(sp, np.array([1.0, np.inf, 0.0, 0.0]))
    f = SampledFunction.zero(sp)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_restriction_zeroes_outside():
    sp = MeasureSpace.cyclic(5)
    f = SampledFunction.constant(sp, 2.0)
    r = f.restricted((0, 4))
    assert list(r.values) == [2.0, 0.0, 0.0, 0.0, 2.0]


def test_translation_cyclic_and_interval():
    cyc = MeasureSpace.cyclic(5)
    f = SampledFunction(cyc, np.arange(5.0))
    assert list(f.translated(2).values) == [3.0, 4.0, 0.0, 1.0, 2.0]
    line = MeasureSpace.interval(5)
    g = SampledFunction(line, np.arange(5.0))
    assert list(g.translated(2).values) == [0.0, 0.0, 0.0, 1.0, 2.0]
    assert list(g.translated(-2).values) == [2.0, 3.0, 4.0, 0.0, 0.0]


def test_grand_exponent_validation():
    e = GrandExponent(2.5, 1.0)
    assert e.eps_max == pytest.approx(1.5)
    with pytest.raises(ValueError, match="p "):
        GrandExponent(1.0, 0.0)
    with pytest.raises(ValueError, match="theta"):
        GrandExponent(2.0, -0.5)


def test_lp_norm_counting_frozen_value():
    sp = MeasureSpace.counting(2)
    f = SampledFunction(sp, np.array([1.5, 0.5]))
    assert lp_norm(f, 2.0) == 1.5811388300841898
    assert lp_norm(f, 1.0) == pytest.approx(2.0)
    assert lp_norm(f, math.inf) == 1.5


def _plain_then_rescaled(a, w, r):
    """The r-norm from the plain pass, or from a / 2^k when that pass leaves range."""
    s = float(np.dot(w, a ** r))
    if _TINY <= s < math.inf:
        return s ** (1.0 / r)
    top = float(np.max(a))
    if top == 0.0:
        return 0.0
    scale = math.ldexp(1.0, math.frexp(top)[1] - 1)
    return scale * float(np.dot(w, (a / scale) ** r)) ** (1.0 / r)


def test_r_norm_skips_only_plain_passes_that_must_fail():
    # tops on both sides of the overflow and underflow bounds keep the bits
    # of the plain pass and its fallback
    rng = np.random.default_rng(21)
    weights = (np.ones(8), np.full(8, 1.0 / 8), rng.uniform(1e-3, 1e3, 8))
    for r in (1.0, 1.5, 2.0, 3.0):
        bounds = np.r_[np.linspace(1020.0, 1026.0, 25), np.linspace(-1030.0, -1016.0, 29)]
        for log2_top in np.minimum(bounds / r, 1023.99):
            a = rng.uniform(0.0, 1.0, 8) * 2.0 ** log2_top
            a[3] = 2.0 ** log2_top
            for w in weights:
                with np.errstate(over="ignore"):
                    got = _weighted_r_norm(a, w, r, _extent(a, w))
                    assert got.hex() == _plain_then_rescaled(a, w, r).hex(), (r, log2_top)
    zero = np.zeros(4)
    assert _weighted_r_norm(zero, np.ones(4), 2.0, _extent(zero, np.ones(4))) == 0.0


def test_r_norm_out_of_range_takes_no_plain_pass():
    # the plain pass would overflow or underflow here; it is not taken at all
    with np.errstate(over="raise", under="raise"):
        for v, w in ((1e200, 1.0), (1e-200, 1.0), (1e100, 1e-300)):
            a, wa = np.array([v]), np.array([w])
            got = _weighted_r_norm(a, wa, 2.0, _extent(a, wa))
            assert got == pytest.approx(v * math.sqrt(w), rel=1e-15)


def test_lp_norm_rejects_sub_one():
    sp = MeasureSpace.counting(2)
    f = SampledFunction(sp, np.ones(2))
    with pytest.raises(ValueError, match="must be >= 1"):
        lp_norm(f, 0.5)


def test_lp_norm_probability_average():
    # On a probability space the norm of a constant is that constant.
    sp = MeasureSpace.cyclic(7)
    f = SampledFunction.constant(sp, 3.0)
    for r in (1.0, 2.0, 5.0):
        assert lp_norm(f, r) == pytest.approx(3.0)


def test_grand_factor_frozen_value():
    # eps = 1/2, p = 3.5, theta = 2: (1/2)^(2/3).
    assert grand_factor(0.5, GrandExponent(3.5, 2.0)) == 0.6299605249474366
    assert grand_factor(1.0, GrandExponent(2.0, 1.0)) == 1.0


def test_grand_factor_range():
    e = GrandExponent(2.0, 1.0)
    with pytest.raises(ValueError, match="eps"):
        grand_factor(0.0, e)
    with pytest.raises(ValueError, match="eps"):
        grand_factor(1.5, e)


def test_grand_factor_monotone_in_eps():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = 1.0 + float(rng.uniform(0.1, 4.0))
        theta = float(rng.uniform(0.0, 3.0))
        e = GrandExponent(p, theta)
        eps = np.sort(rng.uniform(1e-9, e.eps_max, size=8))
        fac = [grand_factor(float(x), e) for x in eps]
        assert all(a <= b + 1e-15 for a, b in zip(fac, fac[1:]))


def test_grand_factor_steps_small_on_dense_grid():
    # Resolution guard: a 704-point ladder moves the eps weight by less
    # than 10% between neighbours for every in-scope exponent pair. The
    # steepest spot is the top of the range when eps_max > 1, where the
    # log-slope grows like theta * (1 + eps ln eps / (p - eps)); the
    # default 64-point ladder leans on golden refinement near the
    # maximizer instead of raw density.
    for p, theta in ((1.5, 1.0), (3.0, 2.0), (2.0, 1.0)):
        e = GrandExponent(p, theta)
        grid = make_epsilon_grid(e, points=704)
        fac = [grand_factor(float(x), e) for x in grid.eps_values]
        steps = [abs(b - a) / a for a, b in zip(fac, fac[1:])]
        assert max(steps) < 0.10


def test_make_epsilon_grid_frozen_points():
    grid = make_epsilon_grid(GrandExponent(2.0, 1.0), points=3, min_eps=0.25)
    assert list(grid.eps_values) == [0.25, 0.5, 1.0]
    assert grid.eps_min == 0.25
    assert grid.eps_max == 1.0


def test_grid_endpoints_pinned():
    e = GrandExponent(1.5, 1.0)
    grid = make_epsilon_grid(e)
    assert grid.eps_max == e.eps_max
    assert grid.eps_min == pytest.approx(1e-6 * 0.5)


def _bupu_with_centers(centers):
    b = make_uniform_bupu(MeasureSpace.cyclic(8), 4)
    return Bupu(functions=b.functions, centers=centers, window=b.window, sup_bound=1.0)


@pytest.mark.parametrize("build, name", [
    (lambda: translate_window(Window(MeasureSpace.cyclic(8), (0, 1)), 1.7), "shift"),
    (lambda: Window(MeasureSpace.cyclic(8), (0.7, 2)), "window members"),
    (lambda: SampledFunction.indicator(MeasureSpace.cyclic(4), [1.9]), "members"),
    (lambda: MeasureSpace.product((2.5, 4)), "group factors"),
    (lambda: _bupu_with_centers((0.9, 4.2)), "centers"),
    (lambda: noncompact_witness(2.9, 2.0), "m"),
], ids=["translate", "window", "indicator", "product", "bupu", "witness"])
def test_non_integer_index_is_refused_not_truncated(build, name):
    with pytest.raises(ValueError, match=rf"^{name} \(=.*\) must be integral"):
        build()


def test_integral_values_of_any_type_are_indices():
    sp = MeasureSpace.cyclic(8)
    assert translate_window(Window(sp, (0, 1)), np.int64(2)).members == (2, 3)
    assert translate_window(Window(sp, (0, 1)), 2.0).members == (2, 3)
    assert Window(sp, (2.0, np.uint8(1))).members == (1, 2)
    assert MeasureSpace.product((2.0, np.int32(4))).factors == (2, 4)
    assert _bupu_with_centers((0.0, np.int64(4))).centers == (0, 4)
    assert noncompact_witness(np.int16(3), 2.0).m == 3


def test_grid_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        EpsilonGrid(np.array([0.5, 0.5, 1.0]))
    with pytest.raises(ValueError, match="> 0"):
        EpsilonGrid(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="min_eps"):
        make_epsilon_grid(GrandExponent(2.0, 1.0), min_eps=2.0)
    with pytest.raises(ValueError, match="points"):
        make_epsilon_grid(GrandExponent(2.0, 1.0), points=1)


def test_homogeneity_and_triangle_lp():
    rng = np.random.default_rng(5)
    sp = MeasureSpace.interval(12)
    for _ in range(25):
        f = SampledFunction(sp, rng.standard_normal(12))
        g = SampledFunction(sp, rng.standard_normal(12))
        c = float(rng.uniform(-3.0, 3.0))
        r = float(rng.choice([1.0, 1.7, 2.0, 4.0]))
        assert lp_norm(f.scaled(c), r) == pytest.approx(abs(c) * lp_norm(f, r), rel=1e-12)
        assert lp_norm(f + g, r) <= lp_norm(f, r) + lp_norm(g, r) + 1e-12
