"""A pruned supremum is the float of the full table.

``grand._norm_sup`` evaluates only the grid points, and polishes only the
brackets, that a certified bound cannot rule out; with ``table=True`` it
evaluates the whole grid. These tests compare the two by ``float.hex``
and count the r-norm calls of each; the last ones run the polish that the
top-end certificate skips, and the golden steps it bounds.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grandam import grand
from grandam.amalgam import Window, discrete_space_norm
from grandam.core import (INTERVAL, GrandExponent, MeasureSpace, SampledFunction, _extent,
                          lp_norm, make_epsilon_grid)
from grandam.grand import epsilon_profile, grand_norm, grand_sequence_norm

THETAS = (0.0, 1e-6, 1e-3, 0.5, 3.0)
KINDS = ("uniform", "lognormal", "one-spike", "constant", "cauchy")


def _space(kind, n, seed=0):
    if kind == "cyclic":
        return MeasureSpace.cyclic(n)
    if kind == "counting":
        return MeasureSpace.counting(n)
    return MeasureSpace(np.random.default_rng(seed).uniform(0.5, 2.0, n), INTERVAL)


def _values(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, n)
    if kind == "lognormal":
        return rng.lognormal(0.0, 2.0, n)
    if kind == "one-spike":
        spike = np.full(n, 1e-3)
        spike[n // 3] = 1e3
        return spike
    if kind == "constant":
        return np.full(n, 0.7)
    return rng.standard_cauchy(n)


@pytest.fixture
def counted(monkeypatch):
    """r-norm calls made through ``grand`` land in the returned list."""
    calls = []
    kernel = grand._weighted_r_norm

    def count(*args):
        calls.append(args[2])
        return kernel(*args)

    monkeypatch.setattr(grand, "_weighted_r_norm", count)
    return calls


def _both(calls, abs_vals, weights, exp, grid):
    """(table profile, its calls, pruned profile, its calls)."""
    calls.clear()
    table = grand._norm_sup(abs_vals, weights, exp, grid, table=True)[0]
    table_calls = len(calls)
    calls.clear()
    pruned = grand._norm_sup(abs_vals, weights, exp, grid)[0]
    return table, table_calls, pruned, len(calls)


def _hex(profile):
    return ([(e.hex(), v.hex()) for e, v in profile.entries], profile.argmax_eps.hex(),
            profile.sup_value.hex())


# the counter is cleared before each count, so one per test is enough
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(space=st.sampled_from(["cyclic", "interval", "counting"]),
       n=st.sampled_from([1, 2, 3, 64, 1000]),
       kind=st.sampled_from(KINDS),
       scale=st.sampled_from([1.0, 1e160, 1e-160]),
       p=st.sampled_from([1.2, 1.5, 2.0, 3.0, 5.0]),
       theta=st.sampled_from(THETAS),
       points=st.sampled_from([2, 64]),
       seed=st.integers(0, 2 ** 16))
def test_pruned_supremum_is_the_full_tables_float(counted, space, n, kind, scale, p, theta,
                                                   points, seed):
    sp = _space(space, n, seed)
    abs_vals = np.abs(_values(kind, n, seed)) * scale
    e = GrandExponent(p, theta)
    grid = make_epsilon_grid(e, points=points)
    table, table_calls, pruned, pruned_calls = _both(counted, abs_vals, sp.weights, e, grid)
    assert pruned.sup_value.hex() == table.sup_value.hex()
    assert pruned_calls <= table_calls
    assert set(pruned.entries) <= set(table.entries)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.sampled_from([1, 3, 64, 1000]),
       kind=st.sampled_from(KINDS),
       mass=st.sampled_from([0.25, 1.0, 3.0, 1e-3, 1e3]),
       p=st.sampled_from([1.5, 2.0, 3.0]),
       theta=st.sampled_from(THETAS),
       points=st.sampled_from([2, 64]),
       seed=st.integers(0, 2 ** 16))
def test_pruned_supremum_with_scaled_weights(counted, n, kind, mass, p, theta, points, seed):
    # every atom weighs ``mass``, as in the discrete translate-step norm
    abs_vals = np.abs(_values(kind, n, seed))
    e = GrandExponent(p, theta)
    grid = make_epsilon_grid(e, points=points)
    table, table_calls, pruned, pruned_calls = _both(counted, abs_vals, np.ones(n) * mass, e,
                                                     grid)
    assert pruned.sup_value.hex() == table.sup_value.hex()
    assert pruned_calls <= table_calls


@pytest.mark.parametrize("atom_weight", [0.25, 1.0, 3.0])
@pytest.mark.parametrize("p, theta", [(2.0, 0.0), (2.0, 1.0), (3.0, 1e-3), (1.5, 3.0)])
def test_discrete_space_norm_takes_the_full_tables_float(atom_weight, p, theta):
    # four disjoint full translates of a two-atom window of mass 2 * atom_weight
    amb = MeasureSpace(np.full(8, atom_weight))
    U = Window(amb, (0, 1))
    e = GrandExponent(p, theta)
    grid = make_epsilon_grid(e)
    for seed in range(4):
        lam = SampledFunction(MeasureSpace.counting(4), _values("lognormal", 4, seed))
        table = grand._norm_sup(lam.abs_values(), np.full(4, U.mass), e, grid, table=True)[0]
        got = discrete_space_norm(lam, U, [0, 2, 4, 6], e, grid)
        assert got.hex() == table.sup_value.hex()


@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("space", ["cyclic", "counting", "interval"])
def test_lane_sized_pruned_supremum_is_the_full_tables_float(counted, scaled, space):
    # 2^14 atoms make a long ladder; ``scaled`` multiplies the weights by 3,
    # as a window mass other than 1 does in the discrete translate-step norm
    n = 2 ** 14
    weights = _space(space, n, n).weights * (3.0 if scaled else 1.0)
    for kind in ("uniform", "one-spike", "cauchy"):
        abs_vals = np.abs(_values(kind, n, n + 1))
        for p, theta in ((2.0, 0.0), (3.0, 1e-6), (1.5, 0.5), (2.5, 3.0)):
            e = GrandExponent(p, theta)
            grid = make_epsilon_grid(e)
            table, table_calls, pruned, pruned_calls = _both(counted, abs_vals, weights, e,
                                                             grid)
            assert pruned.sup_value.hex() == table.sup_value.hex(), (kind, p, theta)
            assert pruned_calls <= table_calls


FLAT = ([(space, kind, 1) for space in ("cyclic", "counting") for kind in KINDS]
        + [("cyclic", "constant", n) for n in (2, 64, 1000)])


@pytest.mark.parametrize("space, kind, n", FLAT)
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_flat_profiles_turn_pruning_off(counted, space, kind, n, p):
    # at theta = 0, one atom of weight 1, or a constant on a probability
    # space, has ||f||_r flat in r: the values differ by rounding alone, so
    # no bound can tell the grid points apart (an atom of another weight w
    # gives w^(1/r) |a|, which is not flat)
    e = GrandExponent(p, 0.0)
    sp = _space(space, n)
    abs_vals = np.abs(_values(kind, n, 5))
    table, table_calls, pruned, pruned_calls = _both(counted, abs_vals, sp.weights, e,
                                                     make_epsilon_grid(e))
    assert _hex(pruned) == _hex(table)
    assert pruned_calls == table_calls


def test_any_value_out_of_range_turns_pruning_off(counted):
    # the same overflow as below: the first pass meets it, and the full
    # table names the first eps that overflows
    abs_vals = np.array([1e10, 2e10])
    e = GrandExponent(3.0, 1000.0)
    grid = make_epsilon_grid(e)
    msgs = []
    for table in (True, False):
        counted.clear()
        with pytest.raises(ValueError) as err:
            grand._norm_sup(abs_vals, np.full(2, 0.5), e, grid, table=table)
        msgs.append((str(err.value), len(counted)))
    assert msgs[0] == msgs[1]


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 16, 100, 1000]),
       kind=st.sampled_from(["uniform", "lognormal", "one-spike", "cauchy"]),
       p=st.sampled_from([1.2, 1.5, 2.0, 2.5, 3.0, 5.0]),
       theta=st.sampled_from([0.0, 1e-6, 1e-3, 0.5, 1.0, 3.0]),
       seed=st.integers(0, 2 ** 16))
def test_counting_norms_sit_at_the_top_of_the_ladder(n, kind, p, theta, seed):
    # with every atom of weight 1, ||f||_r does not increase with r and the
    # epsilon weight increases with eps, so the supremum is taken at
    # eps = p - 1, where it is (p - 1)^theta * ||f||_1
    u = SampledFunction(MeasureSpace.counting(n), _values(kind, n, seed))
    e = GrandExponent(p, theta)
    want = (p - 1.0) ** theta * lp_norm(u, 1)
    got = grand_sequence_norm(u, e)
    if n == 1 and theta == 0.0:
        # flat in exact arithmetic: another grid point may win by rounding,
        # by at most (2 + |ln a|) u in (|a|^r)^(1/r) (measured below 0.88 of it)
        a = abs(float(u.values[0]))
        assert abs(got - want) <= (2.0 + abs(math.log(a))) * 2.0 ** -52 * want
        return
    assert abs(got - want) <= 4 * math.ulp(want)
    assert epsilon_profile(u, e).argmax_eps == e.eps_max


@pytest.mark.parametrize("p, theta", [(2.0, 1.0), (1.5, 0.5), (3.0, 0.0), (2.5, 2.0)])
def test_a_large_counting_norm_takes_few_r_norms(counted, p, theta):
    # the free bound drops the ladder below the top's neighbour (at theta =
    # 0 below one point more), and the certificate skips the top polish
    n = 2 ** 16
    u = SampledFunction(MeasureSpace.counting(n),
                        np.random.default_rng(16).uniform(-1.0, 1.0, n))
    e = GrandExponent(p, theta)
    value = grand_sequence_norm(u, e)
    assert len(counted) == (3 if theta == 0.0 else 2)
    counted.clear()
    assert value == epsilon_profile(u, e).sup_value
    assert len(counted) >= 106


@pytest.mark.parametrize("p, theta", [(2.0, 1.0), (1.5, 0.5), (2.5, 2.0), (3.0, 0.0)])
def test_a_large_probability_norm_takes_few_r_norms(counted, p, theta):
    # uniform data on probability weights peaks at the top of the ladder
    # when theta > 0: the piecewise certificate closes the gap below the
    # top (at p = 1.5 after one bisection) and skips the top polish; at
    # theta = 0 the eps -> 0 value wins, and the top point and one below
    # it leave no gap that can reach it
    n = 2 ** 16
    f = SampledFunction(MeasureSpace.cyclic(n), np.random.default_rng(16).uniform(-1.0, 1.0, n))
    e = GrandExponent(p, theta)
    value = grand_norm(f, e)
    assert len(counted) == {(2.0, 1.0): 2, (1.5, 0.5): 3, (2.5, 2.0): 2, (3.0, 0.0): 3}[p, theta]
    counted.clear()
    profile = epsilon_profile(f, e)
    assert value == profile.sup_value
    assert profile.argmax_eps == (e.eps_max if theta > 0.0 else 0.0)
    assert len(counted) >= 106


@pytest.mark.parametrize("space, total", [("counting", 1000.0), ("cyclic", 1.0),
                                          ("interval", 1e-3)])
@pytest.mark.parametrize("p, theta", [(2.0, 0.0), (2.0, 1.0), (3.0, 1e-3), (1.5, 3.0)])
def test_the_free_bound_covers_every_grid_point_below_it(space, total, p, theta):
    # max |f| * (total weight)^(1/r) is exact for a constant f, so a bound
    # that drops that factor, or takes it at the end of the region where it
    # is smaller (the top end when total < 1, the bottom one when > 1),
    # falls below the weighted norm at some grid point
    n = 1000
    weights = _space(space, n, n).weights
    weights = weights * (total / float(np.sum(weights)))
    e = GrandExponent(p, theta)
    grid = make_epsilon_grid(e)
    for kind in ("constant", "uniform", "one-spike"):
        abs_vals = np.abs(_values(kind, n, n))
        for mass in (0.25, 1.0, 3.0):
            scaled = weights * mass
            delta = grand._rounding_margin(n, scaled, p, _extent(abs_vals, scaled))
            ladder = grand._norm_sup(abs_vals, scaled, e, grid, table=True)[1]
            for k in range(len(ladder.eps)):
                most = max(ladder.vals[:k + 1])
                assert most <= ladder.free_bound(k) * (1.0 + delta), (kind, mass, k)


def _weighted(abs_vals, weights, exp):
    """The weighted norm at eps, computed as ``_norm_sup`` computes it."""
    extent = _extent(abs_vals, weights)
    p, theta = exp.p, exp.theta

    def g(eps):
        r = p - eps
        return (eps ** (theta / r)) * grand._weighted_r_norm(abs_vals, weights, r, extent)
    return g


@pytest.mark.parametrize("p, theta", [(2.0, 1.0), (1.5, 0.5), (2.5, 2.0), (3.0, 1e-3),
                                      (1.2, 3.0)])
def test_a_skipped_top_end_polish_could_not_have_won(monkeypatch, p, theta):
    skipped = []
    certify = grand._Ladder.top_end_bound

    def spy(ladder, i, tol, floor):
        bound = certify(ladder, i, tol, floor)
        if bound * (1.0 + grand._SLACK) < floor:
            skipped.append(bound)
        return bound

    monkeypatch.setattr(grand._Ladder, "top_end_bound", spy)
    e = GrandExponent(p, theta)
    grid = make_epsilon_grid(e)
    lo, hi = grid.eps_values[-2:].tolist()
    fired = 0
    for space, mass in (("cyclic", 1.0), ("interval", 1.0), ("counting", 1.0),
                        ("counting", 3.0), ("interval", 0.25)):
        for n in (1, 3, 64, 1000):
            weights = _space(space, n, n).weights * mass
            for kind in KINDS:
                abs_vals = np.abs(_values(kind, n, n + 1))
                skipped.clear()
                best = grand._norm_sup(abs_vals, weights, e, grid)[0].sup_value
                if not skipped:
                    continue
                fired += 1
                probes = []
                grand._golden_max(_weighted(abs_vals, weights, e), lo, hi,
                                  grid.relative_tolerance, probes)
                for eps, v in probes:
                    assert v <= skipped[0] * (1.0 + grand._SLACK), (space, n, kind, eps)
                    assert v < best, (space, n, kind, eps)
    assert fired >= 40


@pytest.mark.parametrize("p, theta", [(2.0, 1.0), (1.5, 0.5), (2.5, 2.0), (3.0, 1e-3),
                                      (1.2, 3.0)])
def test_a_gap_the_certificate_closed_holds_no_grid_value_above_its_floor(monkeypatch, p,
                                                                           theta):
    # the plan asks the certificate only about the top's lower neighbour, a
    # gap with no grid point inside, so a closing call on a wider gap comes
    # from the rounds: the grid points it dropped lie below that call's floor
    closed = []
    certify = grand._Ladder.top_end_bound

    def spy(ladder, i, tol, floor):
        bound = certify(ladder, i, tol, floor)
        if bound * (1.0 + grand._SLACK) < floor and i < len(ladder.eps) - 2:
            closed.append((i, floor))
        return bound

    monkeypatch.setattr(grand._Ladder, "top_end_bound", spy)
    e = GrandExponent(p, theta)
    grid = make_epsilon_grid(e)
    fired = 0
    for space, mass in (("cyclic", 1.0), ("interval", 1.0), ("counting", 1.0),
                        ("counting", 3.0), ("interval", 0.25)):
        for n in (64, 1000, 2 ** 12):
            weights = _space(space, n, n).weights * mass
            for kind in KINDS:
                abs_vals = np.abs(_values(kind, n, n + 1))
                closed.clear()
                pruned = grand._norm_sup(abs_vals, weights, e, grid)[0]
                if not closed:
                    continue
                fired += 1
                table, ladder = grand._norm_sup(abs_vals, weights, e, grid, table=True)
                assert pruned.sup_value.hex() == table.sup_value.hex()
                for i, floor in closed:
                    for k in range(i + 1, len(ladder.eps) - 1):
                        assert ladder.vals[k] < floor, (space, n, kind, i, k)
    assert fired >= 25


@pytest.mark.parametrize("space", ["cyclic", "counting"])
@pytest.mark.parametrize("p, theta", [(2.0, 1.0), (1.5, 0.5), (2.5, 2.0)])
def test_a_certificate_short_of_the_floor_never_drops_its_gap(monkeypatch, space, p, theta):
    # a bound just above the floor proves nothing: the gap it was asked
    # about is bisected (a grid point inside it gets evaluated) or has none
    # inside, and the scan is the one a certificate that never closes gives
    asked = []

    def short(ladder, i, tol, floor):
        asked.append(i)
        return math.nextafter(floor, math.inf)

    n = 2 ** 16
    abs_vals = np.abs(np.random.default_rng(16).uniform(-1.0, 1.0, n))
    weights = _space(space, n).weights
    e = GrandExponent(p, theta)
    grid = make_epsilon_grid(e)

    def scan(certificate):
        monkeypatch.setattr(grand._Ladder, "top_end_bound", certificate)
        return grand._norm_sup(abs_vals, weights, e, grid)

    pruned, ladder = scan(short)
    top = len(ladder.eps) - 1
    assert asked
    for i in asked:
        assert i == top - 1 or any(ladder.norms[k] is not None for k in range(i + 1, top))
    never, never_ladder = scan(lambda ladder, i, tol, floor: math.inf)
    assert _hex(pruned) == _hex(never)
    assert _norm_hex(ladder.norms) == _norm_hex(never_ladder.norms)
    table = grand._norm_sup(abs_vals, weights, e, grid, table=True)[0]
    assert pruned.sup_value.hex() == table.sup_value.hex()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 5000),
       zero_share=st.sampled_from([0.0, 0.1, 0.5, 0.95]),
       scale=st.sampled_from([1.0, 1e150, 1e-150]),
       spike=st.booleans(),
       weights=st.sampled_from(["cyclic", "counting", "random"]),
       p=st.floats(1.1, 6.0),
       theta=st.sampled_from([0.0, 1e-6, 0.3, 1.0, 2.0, 5.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pruned_supremum_matches_the_table_on_random_inputs(n, zero_share, scale, spike,
                                                            weights, p, theta, seed):
    # zero atoms, extreme scales, single spikes, and probability, counting
    # and random positive weights: the pruned supremum is the table's float
    rng = np.random.default_rng(seed)
    if spike:
        abs_vals = np.full(n, 1e-3)
        abs_vals[rng.integers(n)] = 1e3
    else:
        abs_vals = rng.uniform(0.0, 1.0, n)
    abs_vals[rng.random(n) < zero_share] = 0.0
    abs_vals *= scale
    w = rng.lognormal(0.0, 2.0, n) if weights == "random" else _space(weights, n).weights
    e = GrandExponent(p, theta)
    grid = make_epsilon_grid(e)
    table = grand._norm_sup(abs_vals, w, e, grid, table=True)[0]
    assert grand._norm_sup(abs_vals, w, e, grid)[0].sup_value.hex() == table.sup_value.hex()


def _spike(n):
    spike = np.zeros(n)
    spike[7] = 1.0
    return spike, MeasureSpace.cyclic(n).weights


# each weighted norm peaks inside the top bracket, above the grid's best
# point at the top: one atom of weight w, where theta ((p - e)/e + ln e) =
# -ln w puts the peak, on the default grid; a spike on a three-point grid
TOP_BRACKET_PEAKS = ([("atom", w, 64, 2.0, 1.0) for w in (0.33, 0.35, 0.36)]
                     + [("spike", n, 3, p, theta) for n in (64, 1000)
                        for p, theta in ((2.0, 1.0), (1.5, 2.0))])


@pytest.mark.parametrize("kind, w_or_n, points, p, theta", TOP_BRACKET_PEAKS)
def test_a_maximum_inside_the_top_bracket_keeps_its_polish(counted, kind, w_or_n, points, p,
                                                           theta):
    abs_vals, weights = ((np.ones(1), np.full(1, w_or_n)) if kind == "atom"
                         else _spike(w_or_n))
    e = GrandExponent(p, theta)
    grid = make_epsilon_grid(e, points=points)
    table, _, pruned, _ = _both(counted, abs_vals, weights, e, grid)
    grid_values = [v for eps, v in table.entries if eps in grid.eps_values.tolist()]
    assert max(grid_values) == grid_values[-1] < table.sup_value
    assert pruned.sup_value.hex() == table.sup_value.hex()


def test_no_polish_probes_nearer_the_top_than_the_certified_gap():
    # any polish probes below the path on which every comparison rises
    # (a monotone stand-in), whatever its values; the gap the certificate
    # uses must keep that path's nearest probe below hi - gap
    rng = np.random.default_rng(2024)
    stand_ins = (lambda e: e, lambda e: rng.random())
    checked = 0
    for trial in range(3000):
        hi = float(10.0 ** rng.uniform(-6.0, 1.0))
        lo = hi * (float(rng.uniform(0.0, 0.99)) if trial % 2
                   else 1.0 - float(10.0 ** rng.uniform(-13.0, -1.0)))
        tol = float(10.0 ** rng.uniform(-12.0, -3.0))
        gap = grand._probe_gap(lo, hi, tol)
        if gap is None:
            continue
        checked += 1
        for g in stand_ins:
            path = []
            grand._golden_max(g, lo, hi, tol, path)
            assert max(eps for eps, _ in path) <= hi - gap, (lo, hi, tol)
    assert checked > 2900


def test_a_top_end_bound_within_rounding_of_the_best_keeps_the_polish(monkeypatch):
    # computed values are off by up to rho, so a bound below the best by
    # less than delta proves nothing and the top-end polish stays planned
    n = 2 ** 11
    sp = MeasureSpace.cyclic(n)
    abs_vals = np.abs(_values("uniform", n, n))
    e = GrandExponent(2.0, 1.0)
    grid = make_epsilon_grid(e)
    extent = _extent(abs_vals, sp.weights)
    delta = grand._rounding_margin(n, sp.weights, e.p, extent)

    def plan():
        ladder = grand._Ladder(grid, e,
                               lambda r: grand._weighted_r_norm(abs_vals, sp.weights, r, extent),
                               extent)
        return grand._prune(ladder, 0.0, delta, grid.relative_tolerance), ladder

    skip, ladder = plan()
    assert skip == []   # the certificate holds: no polish
    best = ladder.vals[-1]
    near = best * (1.0 - 2.0 * grand._SLACK)
    assert best * (1.0 - delta) < near < best
    monkeypatch.setattr(grand._Ladder, "top_end_bound", lambda ladder, i, tol, floor: near)
    assert plan()[0] == [len(grid.eps_values) - 1]


def _pad(vals, weights, rng):
    """``vals`` and ``weights`` with zero atoms of random weight at random positions."""
    n = vals.size
    m = n + n // 2 + 1
    slots = np.sort(rng.choice(m, n, replace=False))
    padded, padded_w = np.zeros(m), rng.uniform(0.5, 2.0, m)
    padded[slots], padded_w[slots] = vals, weights
    return padded, padded_w


def _norm_hex(norms):
    return [None if v is None else v.hex() for v in norms]


@pytest.mark.parametrize("n", [7, 100, 2 ** 14])
@pytest.mark.parametrize("p, theta", [(2.0, 0.0), (2.0, 1.0), (1.5, 0.5), (3.0, 1e-3)])
@pytest.mark.parametrize("seed", [0, 1])
def test_a_zero_padded_row_gives_the_compacted_rows_bits(n, p, theta, seed):
    # a zero atom adds exactly 0 to sum w a^r, so the engine drops it and
    # the padded row reaches the kernel as the compacted one
    rng = np.random.default_rng([n, seed])
    vals = rng.lognormal(0.0, 1.0, n)
    weights = 10.0 ** rng.uniform(-1.0, 1.0, n)
    padded, padded_w = _pad(vals, weights, rng)
    e = GrandExponent(p, theta)
    grid = make_epsilon_grid(e)
    for table in (False, True):
        got, got_ladder = grand._norm_sup(padded, padded_w, e, grid, table=table)
        want, want_ladder = grand._norm_sup(vals, weights, e, grid, table=table)
        assert _hex(got) == _hex(want)
        assert _norm_hex(got_ladder.norms) == _norm_hex(want_ladder.norms)
    dense = SampledFunction(MeasureSpace(weights, INTERVAL), vals)
    sparse = SampledFunction(MeasureSpace(padded_w, INTERVAL), padded)
    for r in (1.0, p - 0.25, p, 2.0 * p, math.inf):
        assert lp_norm(sparse, r).hex() == lp_norm(dense, r).hex()
