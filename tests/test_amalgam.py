import numpy as np
import pytest

from grandam import amalgam
from grandam.amalgam import (Bupu, Window, amalgam_norm, control_function,
                             discrete_amalgam_norm, discrete_space_bounds,
                             discrete_space_norm, equivalence_report,
                             make_triangular_bupu, make_uniform_bupu,
                             step_function_from_coefficients, translate_window,
                             validate_bupu, well_spread_check)
from grandam.core import (COUNTING, GrandExponent, MeasureSpace,
                          SampledFunction, make_epsilon_grid)
from grandam.grand import grand_norm, grand_sequence_norm

from oracles import (brute_amalgam, brute_discrete_amalgam, brute_grand_norm, brute_translate,
                     dense_pieces, restricted, translated, zero)

E20 = GrandExponent(2.0, 0.0)
E21 = GrandExponent(2.0, 1.0)
G20 = make_epsilon_grid(E20)
G21 = make_epsilon_grid(E21)


def test_window_basics():
    sp = MeasureSpace.cyclic(8)
    w = Window(sp, (3, 1, 0))
    assert w.members == (0, 1, 3)
    assert w.size == 3
    assert w.mass == pytest.approx(3.0 / 8.0)
    with pytest.raises(ValueError, match="distinct"):
        Window(sp, (3, 1, 1, 0))
    with pytest.raises(ValueError, match="index atoms"):
        Window(sp, (0, 8))


def test_window_translation_preserves_mass_on_cyclic():
    sp = MeasureSpace.cyclic(12)
    w = Window(sp, (0, 1, 2))
    for x in range(12):
        assert translate_window(w, x).mass == w.mass


def test_window_translation_clips_on_interval():
    sp = MeasureSpace.interval(8)
    w = Window(sp, (6, 7))
    assert translate_window(w, 3).members == ()
    assert translate_window(w, 3).mass == 0.0
    with pytest.raises(ValueError, match="at least one atom"):
        translate_window(w, 3).require_nonempty()


def test_control_function_frozen_example():
    # Z_8, f = chi_{0,1}, Q = {0,1}: the restriction to Q+0 keeps both
    # atoms, giving sqrt(2/8) = 1/2 with p = 2 and no eps weight.
    sp = MeasureSpace.cyclic(8)
    f = SampledFunction.indicator(sp, [0, 1])
    F = control_function(f, Window(sp, (0, 1)), E20, G20)
    assert F.values[0] == pytest.approx(0.5, abs=1e-14)
    expected = [0.5, np.sqrt(1 / 8), 0.0, 0.0, 0.0, 0.0, 0.0, np.sqrt(1 / 8)]
    np.testing.assert_allclose(F.values, expected, atol=1e-14)


def test_amalgam_norm_frozen_example():
    sp = MeasureSpace.cyclic(8)
    f = SampledFunction.indicator(sp, [0, 1])
    got = amalgam_norm(f, Window(sp, (0, 1)), E20, E20, G20, G20)
    assert got == pytest.approx(0.25, abs=1e-14)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("space, members", [
    (MeasureSpace.cyclic(12), (0, 1, 2, 3)),
    (MeasureSpace.interval(10), (0, 6, 7, 8)),     # shifts >= 4 keep only atom 0 + x
    (MeasureSpace.interval(7), (5, 6)),            # shifts >= 2 clip the whole window
    (MeasureSpace.counting(9), (0, 4)),
    (MeasureSpace.product((4, 6)), (0, 1, 7)),
], ids=["cyclic", "interval", "interval-empty", "counting", "Z4xZ6"])
@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_control_function_keeps_the_restricted_bits(space, members, theta):
    # the reference restricts f to each translate built digit by digit
    # (cyclic) or by clipping (interval), then takes one grand norm each
    n = space.size
    if space.factors is None:
        translate = [[m + x for m in members if 0 <= m + x < n] for x in range(n)]
    else:
        translate = [[brute_translate(m, x, space.factors) for m in members]
                     for x in range(n)]
    exp = GrandExponent(2.0, theta)
    grid = make_epsilon_grid(exp)
    rng = np.random.default_rng(28)
    f = SampledFunction(space, rng.standard_normal(n))
    got = control_function(f, Window(space, members), exp, grid).values
    want = [grand_norm(restricted(f, translate[x]), exp, grid) for x in range(n)]
    assert _bits(got) == _bits(want)


def test_control_function_reads_one_translate_table(monkeypatch):
    calls = {"translate_window": 0, "grand_norm": 0}
    for name in calls:
        original = getattr(amalgam, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(amalgam, name, counting)
    sp = MeasureSpace.cyclic(16)
    control_function(SampledFunction(sp, np.arange(16.0)), Window(sp, (0, 1, 2, 3)), E21, G21)
    assert calls == {"translate_window": 0, "grand_norm": 0}


def test_control_monotone_in_window():
    rng = np.random.default_rng(21)
    sp = MeasureSpace.cyclic(10)
    f = SampledFunction(sp, rng.random(10))
    small = control_function(f, Window(sp, (0, 1)), E21, G21)
    large = control_function(f, Window(sp, (0, 1, 2, 3)), E21, G21)
    assert np.all(small.values <= large.values * (1 + 1e-12))


def test_control_translation_covariance():
    rng = np.random.default_rng(22)
    sp = MeasureSpace.cyclic(9)
    f = SampledFunction(sp, rng.random(9))
    Q = Window(sp, (0, 1, 2))
    F = control_function(f, Q, E21, G21)
    for s in range(9):
        Fs = control_function(translated(f, s), Q, E21, G21)
        np.testing.assert_allclose(Fs.values, translated(F, s).values, rtol=1e-12)


@pytest.mark.parametrize("window_atoms", [16, 4])
def test_window_from_another_space_is_rejected(window_atoms):
    # a Z_16 window indexed past Z_8; a Z_4 window's translates wrap mod 4
    # and would silently miss atoms 4..7
    f = SampledFunction(MeasureSpace.cyclic(8), np.arange(8.0))
    window = Window(MeasureSpace.cyclic(window_atoms), (2, 3))
    with pytest.raises(ValueError, match="same space"):
        control_function(f, window, E21, G21)
    with pytest.raises(ValueError, match="same space"):
        amalgam_norm(f, window, E21, E21, G21, G21)
    bupu = make_uniform_bupu(f.space, 4)
    with pytest.raises(ValueError, match="same space"):
        equivalence_report(f, window, bupu, E21, E21, G21, G21)
    # a partition on the window's space passes its own checks; the norms refuse it
    other = Bupu(np.ones((window_atoms // 2, 2)), range(-2, window_atoms - 2, 2), window, 1.0)
    assert other.validation.all_passed
    with pytest.raises(ValueError, match="same space"):
        discrete_amalgam_norm(f, other, E21, E21, G21, G21)
    with pytest.raises(ValueError, match="same space"):
        equivalence_report(f, Window(f.space, (2, 3)), other, E21, E21, G21, G21)


def test_window_on_an_equal_space_is_accepted():
    f = SampledFunction(MeasureSpace.cyclic(8), np.arange(8.0))
    window = Window(MeasureSpace.cyclic(8), (0, 1))
    assert amalgam_norm(f, window, E21, E21, G21, G21) == \
        amalgam_norm(f, Window(f.space, (0, 1)), E21, E21, G21, G21)


def test_amalgam_norm_oracle_agreement():
    rng = np.random.default_rng(23)
    sp = MeasureSpace.cyclic(8)
    Q = Window(sp, (0, 1, 2))

    def translate(members, x):
        return [brute_translate(m, x, (8,)) for m in members]

    for _ in range(5):
        f = SampledFunction(sp, rng.random(8))
        got = amalgam_norm(f, Q, E21, E20, G21, G20)
        want = brute_amalgam(list(f.values), list(sp.weights), 8, Q.members,
                             translate, 2.0, 1.0, 2.0, 0.0)
        assert got == pytest.approx(want, rel=1e-10)


def test_uniform_bupu_structure():
    sp = MeasureSpace.cyclic(16)
    bupu = make_uniform_bupu(sp, 4)
    assert len(bupu) == 4
    assert bupu.centers == (0, 4, 8, 12)
    assert not bupu.ragged
    assert bupu.sup_bound == 1.0
    total = sum(dense_pieces(bupu))
    np.testing.assert_array_equal(total, np.ones(16))


def test_uniform_bupu_ragged_flag():
    sp = MeasureSpace.cyclic(10)
    bupu = make_uniform_bupu(sp, 4)
    assert bupu.ragged
    assert len(bupu) == 3
    assert validate_bupu(bupu).all_passed


def test_uniform_bupu_validation_report():
    sp = MeasureSpace.cyclic(12)
    rep = validate_bupu(make_uniform_bupu(sp, 3))
    assert rep.all_passed
    assert rep.sum_deviation == 0.0
    assert rep.sup_measured == 1.0
    assert rep.support_violations == 0
    assert rep.max_overlap == 1
    doc = rep.to_doc()
    assert doc["a"]["passed"] and doc["d"]["max_overlap"] == 1


def test_broken_partition_is_reported_not_raised():
    sp = MeasureSpace.cyclic(6)
    bupu = Bupu(values=np.full((1, 6), 0.5), centers=(0,),
                window=Window(sp, tuple(range(6))), sup_bound=1.0)
    rep = validate_bupu(bupu)
    assert not rep.passed_a
    assert rep.sum_deviation == pytest.approx(0.5)
    assert not rep.all_passed


def test_partition_values_are_a_real_finite_row_per_center():
    window = Window(MeasureSpace.cyclic(4), (0, 1))
    bupu = Bupu(values=[[1, 1], [1, 1]], centers=(0, 2), window=window, sup_bound=1.0)
    assert bupu.validation.all_passed
    assert bupu.values.dtype == float and not bupu.values.flags.writeable
    assert bupu.space is window.space and len(bupu) == 2
    for bad in (np.ones((2, 3)), np.ones(4), np.ones((1, 2)), [[1.0, np.nan], [1.0, 1.0]],
                [[1.0, np.inf], [1.0, 1.0]], np.ones((2, 2), dtype=complex), [["a", "b"]] * 2):
        with pytest.raises(ValueError, match=r"^partition values must be real and finite"):
            Bupu(values=bad, centers=(0, 2), window=window, sup_bound=1.0)
    with pytest.raises(ValueError, match="cannot be empty"):
        Bupu(values=np.ones((0, 2)), centers=(), window=window, sup_bound=1.0)


def test_partition_is_validated_once():
    bupu = make_uniform_bupu(MeasureSpace.cyclic(12), 3)
    assert validate_bupu(bupu) is validate_bupu(bupu)
    assert validate_bupu(bupu) is bupu.validation
    assert bupu.supports is bupu.supports
    assert not bupu.supports.flags.writeable
    assert bupu.supports.shape == (4, 3)


def _count_translates(monkeypatch):
    calls = []
    original = amalgam._translate_table

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(amalgam, "_translate_table", counting)
    return calls


def test_equivalence_report_builds_one_incidence(monkeypatch):
    # the factory already validated the partition and built its supports,
    # which the step function reuses; the report adds the Q translates of
    # the control function and of the geometry
    sp = MeasureSpace.cyclic(16)
    bupu = make_uniform_bupu(sp, 4)
    q = Window(sp, (0, 1, 2, 3))
    calls = _count_translates(monkeypatch)
    equivalence_report(SampledFunction.indicator(sp, [0]), q, bupu, E21, E21, G21, G21)
    assert [args[0] for args in calls] == [q, q]


def test_discrete_amalgam_norm_reuses_the_validation(monkeypatch):
    sp = MeasureSpace.cyclic(12)
    bupu = make_triangular_bupu(sp, 4)
    calls = _count_translates(monkeypatch)
    discrete_amalgam_norm(SampledFunction.constant(sp, 1.0), bupu, E21, E21, G21, G21)
    assert calls == []


def test_broken_partition_is_rejected_by_the_norms():
    sp = MeasureSpace.cyclic(6)
    half = SampledFunction.constant(sp, 0.5)
    bupu = Bupu(values=np.full((1, 6), 0.5), centers=(0,),
                window=Window(sp, tuple(range(6))), sup_bound=1.0)
    with pytest.raises(ValueError, match="fails its conditions"):
        discrete_amalgam_norm(half, bupu, E21, E21, G21, G21)
    with pytest.raises(ValueError, match="fails its conditions"):
        equivalence_report(half, Window(sp, (0,)), bupu, E21, E21, G21, G21)


@pytest.mark.parametrize("factors, straddling", [
    ((3, 5), {2, 3, 4, 6, 7, 8, 9}),
    ((4, 4), {3, 5, 6, 7}),
    ((2, 3, 4), {3, 5, 6, 7, 8, 9, 10, 11}),
])
def test_uniform_blocks_must_be_group_translates(factors, straddling):
    # a flat block that straddles a factor is no translate of {0..b-1}
    sp = MeasureSpace.product(factors)
    for b in range(1, sp.size + 1):
        if b in straddling:
            with pytest.raises(ValueError, match=rf"^blocks of {b} .* factors \({factors[0]}, "):
                make_uniform_bupu(sp, b)
        else:
            assert make_uniform_bupu(sp, b).validation.support_violations == 0


def test_partition_spacings_may_be_integral_floats():
    sp = MeasureSpace.cyclic(8)
    assert make_uniform_bupu(sp, 4.0).centers == make_uniform_bupu(sp, 4).centers
    assert _bits(dense_pieces(make_triangular_bupu(sp, 4.0))[1]) == _bits(
        dense_pieces(make_triangular_bupu(sp, 4))[1])


def test_triangular_bupu_overlap_two():
    sp = MeasureSpace.cyclic(16)
    bupu = make_triangular_bupu(sp, 4)
    assert len(bupu) == 4
    rep = validate_bupu(bupu)
    assert rep.all_passed
    assert rep.max_overlap == 2
    total = sum(dense_pieces(bupu))
    np.testing.assert_allclose(total, np.ones(16), atol=1e-15)


def test_triangular_bupu_requirements():
    with pytest.raises(ValueError, match="spacing"):
        make_triangular_bupu(MeasureSpace.cyclic(10), 4)
    with pytest.raises(ValueError, match="cyclic"):
        make_triangular_bupu(MeasureSpace.interval(8), 4)
    # spacing divides n, but a single hat's 2*spacing - 1 atoms wrap onto itself
    for n in (3, 4, 8):
        with pytest.raises(ValueError, match=r"spacing \(="):
            make_triangular_bupu(MeasureSpace.cyclic(n), n)


@pytest.mark.parametrize("n, spacing", [(4, 2), (12, 3), (16, 4), (30, 5), (64, 8)])
def test_triangular_bupu_matches_modular_hats(n, spacing):
    sp = MeasureSpace.cyclic(n)
    bupu = make_triangular_bupu(sp, spacing)
    assert bupu.centers == tuple(range(0, n, spacing))
    assert bupu.window.members == tuple(sorted({d % n for d in range(1 - spacing, spacing)}))
    for c, psi in zip(bupu.centers, dense_pieces(bupu)):
        want = np.zeros(n)
        for d in range(1 - spacing, spacing):
            want[(c + d) % n] = (spacing - abs(d)) / spacing
        assert _bits(psi) == _bits(want)
    assert bupu.validation.all_passed


def test_well_spread_uniform_blocks():
    sp = MeasureSpace.cyclic(16)
    rep = well_spread_check((0, 4, 8, 12), Window(sp, (0, 1, 2, 3)))
    assert rep.is_u_dense
    assert rep.separation_partition_count == 1
    assert rep.is_u_dense


def test_well_spread_overlapping_family():
    sp = MeasureSpace.cyclic(16)
    rep = well_spread_check((0, 4, 8, 12), Window(sp, tuple(range(6))))
    assert rep.is_u_dense
    assert rep.separation_partition_count == 2


def test_well_spread_sparse_family_not_dense():
    sp = MeasureSpace.cyclic(16)
    rep = well_spread_check((0,), Window(sp, (0, 1)))
    assert not rep.is_u_dense
    assert not rep.is_u_dense


def test_step_function_placement():
    sp = MeasureSpace.cyclic(8)
    U = Window(sp, (0, 1))
    s = step_function_from_coefficients([2.0, -1.0], U, [0, 4])
    assert list(s.values) == [2.0, 2.0, 0.0, 0.0, -1.0, -1.0, 0.0, 0.0]


def test_step_function_rejects_overlap_and_clipping():
    sp = MeasureSpace.cyclic(8)
    U = Window(sp, (0, 1))
    with pytest.raises(ValueError, match="overlap"):
        step_function_from_coefficients([1.0, 1.0], U, [0, 1])
    line = MeasureSpace.interval(8)
    with pytest.raises(ValueError, match="clips"):
        step_function_from_coefficients([1.0], Window(line, (6, 7)), [3])


def test_discrete_space_norm_frozen_example():
    # U has mass 1/4; a single unit coefficient gives
    # sup_eta (1/4)^(1/(2-eta)) = (1/4)^(1/2) = 1/2 at the eta -> 0 end.
    amb = MeasureSpace.cyclic(16)
    U = Window(amb, (0, 1, 2, 3))
    lam = SampledFunction.indicator(MeasureSpace.counting(4), [0])
    got = discrete_space_norm(lam, U, [0, 4, 8, 12], E20, G20)
    assert got == 0.5
    assert discrete_space_bounds(U, E20) == (0.25, 0.5)


def test_discrete_space_norm_unit_mass_bitwise():
    # Window mass exactly 1 makes the step norm and the plain sequence
    # norm run through identical arithmetic: equality holds to the bit.
    amb = MeasureSpace.cyclic(12, COUNTING)
    U = Window(amb, (5,))
    assert U.mass == 1.0
    rng = np.random.default_rng(24)
    lam = SampledFunction(MeasureSpace.counting(12), rng.random(12))
    family = list(range(12))
    for exp, grid in ((E21, G21), (E20, G20)):
        a = discrete_space_norm(lam, U, family, exp, grid)
        b = grand_sequence_norm(lam, exp, grid)
        assert a == b


def test_discrete_space_norm_at_atom_weights_below_the_normal_range():
    # the window mass is every weight of the coefficients' r-norm; a mass
    # below the normal range still gives the dense scan's value
    rng = np.random.default_rng(26)
    for atom_weight in (1e-310, 1e-320):
        U = Window(MeasureSpace(np.full(8, atom_weight)), (0, 1))
        for p, th in ((2.0, 0.0), (2.0, 1.0), (3.0, 1e-3), (1.5, 3.0)):
            e = GrandExponent(p, th)
            lam = rng.lognormal(0.0, 2.0, 4)
            got = discrete_space_norm(SampledFunction(MeasureSpace.counting(4), lam), U,
                                      [0, 2, 4, 6], e)
            want = brute_grand_norm(lam, np.ones(4), p, th, scale=U.mass)
            assert abs(got - want) <= 1e-10 * want, (atom_weight, p, th)


def test_discrete_space_norm_pinched_by_bounds():
    rng = np.random.default_rng(25)
    amb = MeasureSpace.cyclic(16)
    U = Window(amb, (0, 1, 2, 3))
    family = [0, 4, 8, 12]
    lsp = MeasureSpace.counting(4)
    for p, th in ((1.5, 0.0), (2.0, 1.0), (3.0, 1.0)):
        e = GrandExponent(p, th)
        g = make_epsilon_grid(e)
        lo, hi = discrete_space_bounds(U, e)
        for _ in range(5):
            lam = SampledFunction(lsp, rng.random(4))
            step = discrete_space_norm(lam, U, family, e, g)
            seq = grand_sequence_norm(lam, e, g)
            assert lo * seq * (1 - 1e-12) <= step <= hi * seq * (1 + 1e-12)


def test_discrete_space_norm_input_checks():
    amb = MeasureSpace.cyclic(8)
    U = Window(amb, (0, 1))
    lam_bad = SampledFunction(MeasureSpace.cyclic(2), np.ones(2))
    with pytest.raises(ValueError, match="counting"):
        discrete_space_norm(lam_bad, U, [0, 4], E20, G20)
    lam = SampledFunction(MeasureSpace.counting(2), np.ones(2))
    with pytest.raises(ValueError, match="one translate per"):
        discrete_space_norm(lam, U, [0, 2, 4], E20, G20)
    with pytest.raises(ValueError, match="overlap"):
        discrete_space_norm(lam, U, [0, 1], E20, G20)


def test_discrete_amalgam_oracle_agreement():
    rng = np.random.default_rng(26)
    sp = MeasureSpace.cyclic(12)
    bupu = make_uniform_bupu(sp, 4)
    pieces = dense_pieces(bupu).tolist()
    for _ in range(4):
        f = SampledFunction(sp, rng.random(12))
        got = discrete_amalgam_norm(f, bupu, E21, E21, G21, G21)
        want = brute_discrete_amalgam(list(f.values), list(sp.weights),
                                      pieces, 2.0, 1.0, 2.0, 1.0)
        assert got == pytest.approx(want, rel=1e-10)


def test_equivalence_report_within_bounds():
    rng = np.random.default_rng(27)
    sp = MeasureSpace.cyclic(16)
    Q = Window(sp, (0, 1, 2, 3))
    bupu = make_uniform_bupu(sp, 4)
    for p, q, th in ((2.0, 2.0, 0.0), (2.0, 2.0, 1.0), (1.5, 3.0, 1.0)):
        le, ge = GrandExponent(p, th), GrandExponent(q, th)
        lg, gg = make_epsilon_grid(le), make_epsilon_grid(ge)
        for _ in range(3):
            f = SampledFunction(sp, rng.random(16))
            rep = equivalence_report(f, Q, bupu, le, ge, lg, gg)
            assert rep.within_bounds
            r = rep.ratios["continuous_over_discrete"]
            assert rep.bounds["c_low"] <= r <= rep.bounds["c_up"]
            rs = rep.ratios["step_over_discrete"]
            assert rep.bounds["m_low"] * (1 - 1e-9) <= rs
            assert rs <= rep.bounds["m_high"] * (1 + 1e-9)


def test_equivalence_zero_function_degenerate_ratios():
    sp = MeasureSpace.cyclic(8)
    rep = equivalence_report(zero(sp), Window(sp, (0, 1)),
                             make_uniform_bupu(sp, 2), E21, E21, G21, G21)
    assert rep.continuous == 0.0
    assert rep.ratios["continuous_over_discrete"] is None
    assert rep.within_bounds


def test_equivalence_rejects_ragged_and_noncyclic():
    sp = MeasureSpace.cyclic(10)
    f = SampledFunction.constant(sp, 1.0)
    with pytest.raises(ValueError, match="ragged"):
        equivalence_report(f, Window(sp, (0, 1)), make_uniform_bupu(sp, 4),
                           E21, E21, G21, G21)
    line = MeasureSpace.interval(8)
    g = SampledFunction.constant(line, 1.0)
    with pytest.raises(ValueError, match="cyclic"):
        equivalence_report(g, Window(line, (0, 1)), make_uniform_bupu(line, 2),
                           E21, E21, G21, G21)


def test_equivalence_stats_describe_instance():
    sp = MeasureSpace.cyclic(16)
    f = SampledFunction.indicator(sp, [0])
    rep = equivalence_report(f, Window(sp, (0, 1, 2, 3)),
                             make_uniform_bupu(sp, 4), E21, E21, G21, G21)
    assert rep.stats["kappa"] == 2          # a Q translate meets at most 2 blocks
    assert rep.stats["cover_count"] == 1    # one Q translate covers one block
    assert rep.stats["window_mass"] == pytest.approx(0.25)
    assert rep.stats["atom_weight"] == pytest.approx(1 / 16)


def test_equivalence_rejects_overlapping_supports_before_any_norm(monkeypatch):
    calls = []
    engine = amalgam._norm_sup

    def counting(*args, **kwargs):
        calls.append(args[0].size)
        return engine(*args, **kwargs)

    monkeypatch.setattr(amalgam, "_norm_sup", counting)
    sp = MeasureSpace.cyclic(12)
    bupu = make_triangular_bupu(sp, 4)
    with pytest.raises(ValueError, match="overlap"):
        equivalence_report(SampledFunction.constant(sp, 1.0), Window(sp, (0, 1, 2, 3)),
                           bupu, E21, E21, G21, G21)
    assert calls == []


@pytest.mark.parametrize("space", [MeasureSpace.cyclic(64), MeasureSpace.interval(64),
                                   MeasureSpace.product((8, 8))])
def test_local_norms_get_rows_of_window_atoms_only(monkeypatch, space):
    # each row handed to the engine lives on one translate's atoms, never on all n
    sizes = []
    engine = amalgam._norm_sup

    def recording(abs_vals, weights, *args, **kwargs):
        assert abs_vals.shape == weights.shape
        sizes.append(abs_vals.size)
        return engine(abs_vals, weights, *args, **kwargs)

    monkeypatch.setattr(amalgam, "_norm_sup", recording)
    rng = np.random.default_rng(32)
    vals = rng.standard_normal(64)
    vals[rng.random(64) < 0.2] = 0.0
    f = SampledFunction(space, vals)
    Q = Window(space, (0, 1, 9, 10))
    control_function(f, Q, E21, G21)
    assert len(sizes) == 64   # one row per translate; none is clipped away here
    assert max(sizes) <= Q.size
    partitions = [make_uniform_bupu(space, 8)]
    if space.factors == (64,):
        partitions.append(make_triangular_bupu(space, 4))
    for bupu in partitions:
        sizes.clear()
        discrete_amalgam_norm(f, bupu, E21, E21, G21, G21)
        assert len(sizes) == len(bupu)
        assert max(sizes) <= bupu.window.size
