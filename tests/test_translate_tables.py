"""Translate tables against the boolean incidence and dense pieces they replaced.

Partition validation, well-spread checks and the equivalence geometry
read each translate as a row of atoms, and a partition holds its values
on those rows only. ``oracles.brute_translates`` keeps the older model,
one boolean per (translate, atom), ``oracles.dense_pieces`` one value
per (piece, atom), and the checks built on them; the two must agree
exactly, sums and mu_diff to the last bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grandam.amalgam import (Bupu, Window, control_function, equivalence_report,
                             make_triangular_bupu, make_uniform_bupu, well_spread_check)
from grandam.core import GrandExponent, MeasureSpace, SampledFunction, make_epsilon_grid

from oracles import (brute_bupu_checks, brute_overlap_geometry, brute_translates,
                     brute_well_spread)

E = GrandExponent(2.0, 0.0)
GRID = make_epsilon_grid(E, points=4)


@st.composite
def spaces(draw, interval=True):
    kind = draw(st.sampled_from(["cyclic", "interval", "product"] if interval
                                else ["cyclic", "product"]))
    if kind == "product":
        return MeasureSpace.product(draw(st.sampled_from([(2, 3), (4, 4), (2, 2, 3), (3, 5)])))
    n = draw(st.integers(1, 40))
    return MeasureSpace.cyclic(n) if kind == "cyclic" else MeasureSpace.interval(n)


def _members(draw, n, most=6):
    return draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, most), unique=True))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), space=spaces())
def test_well_spread_matches_incidence(data, space):
    n = space.size
    members = _members(data.draw, n)
    family = data.draw(st.lists(st.integers(-2 * n, 2 * n), max_size=10))
    family += data.draw(st.sampled_from([[], family[:2]]))     # duplicate shifts
    rep = well_spread_check(family, Window(space, members))
    assert (rep.is_u_dense, rep.separation_partition_count) == brute_well_spread(
        space, members, family)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), space=spaces(), kind=st.sampled_from(["uniform", "triangular", "broken"]))
def test_validation_matches_incidence(data, space, kind):
    n = space.size
    spacings = [s for s in range(2, n // 2 + 1) if n % s == 0 and space.factors == (n,)]
    if kind == "uniform":
        try:
            bupu = make_uniform_bupu(space, data.draw(st.integers(1, n)))
        except ValueError:      # blocks that straddle a factor of a product group
            return
    elif kind == "triangular" and spacings:
        bupu = make_triangular_bupu(space, data.draw(st.sampled_from(spacings)))
    else:   # random values, nonzero ones on the clipped slots of intervals among them
        centers = data.draw(st.lists(st.integers(-2 * n, 2 * n), min_size=1, max_size=8))
        window = Window(space, _members(data.draw, n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        shape = (len(centers), window.size)
        bupu = Bupu(rng.integers(0, 2, shape) * rng.uniform(-1.5, 1.5, shape), centers, window,
                    1.0)
    rep = bupu.validation
    assert (rep.sum_deviation.hex(), rep.sup_measured, rep.support_violations,
            rep.max_overlap) == brute_bupu_checks(bupu)
    assert bupu.supports.shape == bupu.values.shape == (len(bupu), bupu.window.size)


def _comb_partition(space, block, stride):
    """Indicators of the comb {0, stride, ..} of ``block`` teeth, tiling Z_n."""
    n = space.size
    window = Window(space, range(0, block * stride, stride))
    centers = [t + s for s in range(0, n, block * stride) for t in range(stride)]
    return Bupu(np.ones((len(centers), block)), centers, window, 1.0)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), space=spaces(interval=False), comb=st.booleans())
def test_equivalence_geometry_matches_incidence(data, space, comb):
    n = space.size
    if comb and space.factors == (n,):
        block = data.draw(st.sampled_from([b for b in range(1, n + 1) if n % b == 0]))
        stride = data.draw(st.sampled_from([d for d in range(1, n // block + 1)
                                            if n % (block * d) == 0]))
        bupu = _comb_partition(space, block, stride)
    else:
        last = space.factors[-1]
        blocks = [b for b in range(1, n + 1) if n % b == 0 and (last % b == 0 or b % last == 0)]
        bupu = make_uniform_bupu(space, data.draw(st.sampled_from(blocks)))
    qmembers = _members(data.draw, n, most=5)
    f = SampledFunction(space, np.random.default_rng(n).random(n))
    rep = equivalence_report(f, Window(space, qmembers), bupu, E, E, GRID, GRID)
    kappa, mu_diff, cover_count = brute_overlap_geometry(qmembers, bupu)
    assert rep.stats["kappa"] == kappa
    assert rep.stats["mu_diff"].hex() == mu_diff.hex()
    assert rep.stats["cover_count"] == cover_count


def test_oracle_incidence_clips_on_intervals():
    inc = brute_translates(MeasureSpace.interval(5), (0, 2), (-1, 3))
    assert inc.tolist() == [[False, True, False, False, False],
                            [False, False, False, True, False]]


def test_equivalence_report_memory_is_linear_in_atoms():
    # the incidence of every Q + x over all atoms held 16 MiB here, and its
    # product with the (pieces, atoms) supports 4 MiB more
    n = 4096
    sp = MeasureSpace.cyclic(n)
    bupu = make_uniform_bupu(sp, 4)
    f = SampledFunction(sp, np.random.default_rng(n).random(n))
    grid = make_epsilon_grid(E)
    tracemalloc.start()
    try:
        rep = equivalence_report(f, Window(sp, (0, 1, 2, 3)), bupu, E, E, grid, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.stats["kappa"] == 2 and rep.stats["cover_count"] == 1
    assert peak <= 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_uniform_partition_memory_is_linear_in_atoms():
    # one n-atom array per piece held 32 MiB here
    tracemalloc.start()
    try:
        make_uniform_bupu(MeasureSpace.cyclic(4096), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
    bupu = make_uniform_bupu(MeasureSpace.cyclic(65536), 4)     # 8 GiB as n-atom pieces
    assert bupu.supports[-1].tolist() == [65532, 65533, 65534, 65535]
    assert bupu.validation.all_passed


@pytest.mark.parametrize("space", [MeasureSpace.cyclic(20000), MeasureSpace.product((10, 40, 50))],
                         ids=["cyclic", "product"])
def test_translate_indices_reads_long_shift_columns(space):
    # numpy's unravel_index once read rows 8193 on of an (N, 1) column as row 8192
    shifts = np.random.default_rng(space.size).integers(-space.size, 2 * space.size, 20000)
    got = space.translate_indices(np.array([[0, 7]]), shifts[:, None])
    want = [[space.translate_indices(0, s), space.translate_indices(7, s)] for s in shifts]
    assert got.tolist() == np.array(want).tolist()


def test_control_function_past_8193_atoms():
    # theta = 0 on one atom of weight 2^-14: the eps -> 0 value |f(x)| * 2^-7, exactly
    n = 16384
    sp = MeasureSpace.cyclic(n)
    control = control_function(SampledFunction(sp, np.arange(float(n))), Window(sp, (0,)), E,
                               GRID)
    assert control.values.tolist() == (np.arange(float(n)) / 128).tolist()


def test_well_spread_singletons_past_8193_atoms():
    sp = MeasureSpace.cyclic(16384)
    rep = well_spread_check(range(sp.size), Window(sp, (0,)))
    assert (rep.is_u_dense, rep.separation_partition_count) == (True, 1)
