"""Acceptance gate: nine release criteria, one printed verdict line each.

Each test prints "[PASS] <criterion>" or "[FAIL] <criterion> <detail>"
before asserting, so a plain run of this file reads as a checklist.
Tolerances are fixed here on purpose; loosening them is a release
decision, not a test edit.
"""

import numpy as np

from grandam.amalgam import (Window, amalgam_norm, equivalence_report,
                             make_uniform_bupu, translate_window)
from grandam.convolution import (FiniteAbelianGroup,
                                 amalgam_submultiplicativity_check,
                                 noncompact_witness, submultiplicativity_check)
from grandam.core import (COUNTING, GrandExponent, MeasureSpace,
                          SampledFunction, lp_norm, make_epsilon_grid)
from grandam.grand import (closure_criterion, embedding_constants,
                           epsilon_profile, grand_norm, grand_sequence_norm)

from oracles import (brute_convolve, brute_discrete_amalgam, brute_grand_norm, dense_pieces,
                     restricted)

_GRIDS = {}


def _grid(p, theta):
    key = (p, theta)
    if key not in _GRIDS:
        _GRIDS[key] = make_epsilon_grid(GrandExponent(p, theta))
    return _GRIDS[key]


def _verdict(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}" + (f"  ({detail})" if detail and not ok else "")
    print(line)
    assert ok, line


def test_01_theta_zero_reduces_to_lebesgue():
    # |grand_norm(f,(p,0)) - lp_norm(f,p)| <= 1e-8 * lp_norm(f,p)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(8, 257))
        sp = (MeasureSpace.cyclic(n) if rng.random() < 0.5
              else MeasureSpace.interval(n))
        f = SampledFunction(sp, rng.random(n))
        for p in (1.5, 2.0, 3.0):
            e = GrandExponent(p, 0.0)
            ref = lp_norm(f, p)
            err = abs(grand_norm(f, e, _grid(p, 0.0)) - ref) / ref
            worst = max(worst, err)
    _verdict("theta-zero reduction to the Lebesgue norm (tol 1e-8)",
             worst <= 1e-8, f"worst rel err {worst:.3e}")


def test_02_embedding_sandwich_all_grid_eps():
    # grand <= C_upper * Lp  and  L^(p-eps) <= C_lower(eps) * grand,
    # slack 1e-10 relative, at every grid eps.
    rng = np.random.default_rng(102)
    combos = ((1.5, 1.0), (2.0, 0.0), (2.0, 1.0), (3.0, 2.0))
    sizes = (4, 8, 16, 32, 64)
    cons_cache = {}
    bad = 0
    for k in range(1000):
        p, theta = combos[k % len(combos)]
        n = sizes[(k // len(combos)) % len(sizes)]
        e = GrandExponent(p, theta)
        grid = _grid(p, theta)
        sp = MeasureSpace.cyclic(n)
        key = (p, theta, n)
        if key not in cons_cache:
            cons_cache[key] = [embedding_constants(e, float(eps), sp, grid)
                               for eps in grid.eps_values]
        f = SampledFunction(sp, rng.random(n) + 1e-3)
        gn = grand_norm(f, e, grid)
        pn = lp_norm(f, p)
        for con in cons_cache[key]:
            if not gn <= con.c_upper * pn * (1.0 + 1e-10):
                bad += 1
            if not lp_norm(f, p - con.eps) <= con.c_lower * gn * (1.0 + 1e-10):
                bad += 1
    _verdict("embedding chain sandwich at every grid eps (slack 1e-10)",
             bad == 0, f"{bad} violations")


def test_03_closure_criterion_vanishing_tail():
    # theta = 1: limit estimate below 1e-4 and a monotone decay along the
    # five smallest grid points.
    rng = np.random.default_rng(103)
    e = GrandExponent(2.0, 1.0)
    grid = _grid(2.0, 1.0)
    bad = 0
    for _ in range(100):
        n = int(rng.integers(8, 65))
        sp = MeasureSpace.cyclic(n)
        f = SampledFunction(sp, rng.random(n) + 1e-3)
        rep = closure_criterion(f, e, grid, tol=1e-4)
        if not (rep.applicable and rep.in_closure and rep.limit_estimate < 1e-4):
            bad += 1
            continue
        values = dict(epsilon_profile(f, e, grid).entries)
        tail = [values[float(eps)] for eps in grid.eps_values[:5]]
        if not all(a < b for a, b in zip(tail, tail[1:])):
            bad += 1
    _verdict("closure criterion tail vanishes (theta=1, tol 1e-4)",
             bad == 0, f"{bad} functions failed")


def test_04_unit_mass_identity_and_mass_bounds():
    from grandam.amalgam import discrete_space_bounds, discrete_space_norm
    rng = np.random.default_rng(104)
    combos = ((2.0, 1.0), (1.5, 1.0), (3.0, 0.5), (2.0, 0.0))
    mism = 0
    for k in range(1000):
        n = int(rng.integers(4, 25))
        amb = MeasureSpace.cyclic(n, COUNTING)
        U = Window(amb, (int(rng.integers(0, n)),))
        lam = SampledFunction(MeasureSpace.counting(n), rng.random(n))
        p, theta = combos[k % len(combos)]
        e = GrandExponent(p, theta)
        grid = _grid(p, theta)
        a = discrete_space_norm(lam, U, list(range(n)), e, grid)
        b = grand_sequence_norm(lam, e, grid)
        if a != b:                      # bit-for-bit, not approximately
            mism += 1
    bad_bounds = 0
    setups = []
    for normalization, label in ((None, "quarter"), (COUNTING, "four")):
        amb = (MeasureSpace.cyclic(16) if normalization is None
               else MeasureSpace.cyclic(16, COUNTING))
        setups.append((Window(amb, (0, 1, 2, 3)), [0, 4, 8, 12]))
    lsp = MeasureSpace.counting(4)
    for k in range(1000):
        U, fam = setups[k % 2]
        p, theta = combos[k % len(combos)]
        e = GrandExponent(p, theta)
        grid = _grid(p, theta)
        lam = SampledFunction(lsp, rng.random(4))
        step = discrete_space_norm(lam, U, fam, e, grid)
        seq = grand_sequence_norm(lam, e, grid)
        lo, hi = discrete_space_bounds(U, e)
        if not (lo * seq * (1.0 - 1e-12) <= step <= hi * seq * (1.0 + 1e-12)):
            bad_bounds += 1
    ok = mism == 0 and bad_bounds == 0
    _verdict("translate-step norm: unit-mass bit identity and mass-1/4, mass-4 "
             "bounds (slack 1e-12)", ok,
             f"{mism} bit mismatches, {bad_bounds} bound violations")


def test_05_continuous_discrete_equivalence_within_bounds():
    rng = np.random.default_rng(105)
    models = []
    for n, block in ((16, 4), (64, 8)):
        sp = MeasureSpace.cyclic(n)
        models.append((sp, Window(sp, tuple(range(block))),
                       make_uniform_bupu(sp, block)))
    combos = ((2.0, 2.0, 0.0), (2.0, 2.0, 1.0), (1.5, 3.0, 1.0))
    bad = 0
    for p, q, theta in combos:
        le, ge = GrandExponent(p, theta), GrandExponent(q, theta)
        lg, gg = _grid(p, theta), _grid(q, theta)
        for i in range(500):
            sp, Q, bupu = models[0] if i < 350 else models[1]
            f = SampledFunction(sp, rng.random(sp.size))
            rep = equivalence_report(f, Q, bupu, le, ge, lg, gg)
            r = rep.ratios["continuous_over_discrete"]
            inside = (rep.within_bounds and r is not None
                      and rep.bounds["c_low"] * (1 - 1e-9) <= r
                      and r <= rep.bounds["c_up"] * (1 + 1e-9))
            if not inside:
                bad += 1
    mass_exact = all(
        translate_window(Q, x).mass == Q.mass
        for sp, Q, _ in models for x in range(sp.size))
    ok = bad == 0 and mass_exact
    _verdict("continuous vs discrete amalgam ratio inside per-instance bounds; "
             "window translate mass exact", ok,
             f"{bad} out-of-bounds, mass_exact={mass_exact}")


def test_06_grand_submultiplicativity_on_probability_groups():
    rng = np.random.default_rng(106)
    sizes = (8,) * 4 + (16,) * 4 + (64,) * 2     # 1000 pairs per combo
    bad = 0
    for p, theta in ((2.0, 0.0), (2.0, 1.0), (3.0, 1.0)):
        e = GrandExponent(p, theta)
        grid = _grid(p, theta)
        groups = {n: FiniteAbelianGroup.cyclic(n) for n in set(sizes)}
        for k in range(1000):
            g = groups[sizes[k % len(sizes)]]
            f = SampledFunction(g.space, rng.random(g.order))
            h = SampledFunction(g.space, rng.random(g.order))
            rep = submultiplicativity_check(f, h, g, e, grid)
            if not (rep.ratio <= 1.0 + 1e-12
                    and all(row.passed for row in rep.per_eps)):
                bad += 1
    _verdict("grand-norm submultiplicativity ratio <= 1 + 1e-12 with all "
             "per-eps rows", bad == 0, f"{bad} failing pairs")


def test_07_growth_witness_on_counting_model():
    r2 = noncompact_witness(2, 2.0).ratio_m
    frozen_ok = abs(r2 - 1.2247448713915890) <= 1e-6
    ratios = [noncompact_witness(m, 2.0).ratio_m for m in (2, 4, 8, 16, 32)]
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    _verdict("widening-box witness: r(2) = sqrt(6)/2 (tol 1e-6) and strict "
             "growth over m in {2,4,8,16,32}",
             frozen_ok and increasing,
             f"r(2)={r2!r}, increasing={increasing}")


def test_08_amalgam_algebra_certified_constant():
    rng = np.random.default_rng(108)
    grp = FiniteAbelianGroup.cyclic(16)
    Q = Window(grp.space, (0, 1, 2, 3))
    e1, e0 = GrandExponent(2.0, 1.0), GrandExponent(2.0, 0.0)
    g1, g0 = _grid(2.0, 1.0), _grid(2.0, 0.0)
    bad = 0
    classical_mism = 0
    for k in range(500):
        f = SampledFunction(grp.space, rng.random(16))
        h = SampledFunction(grp.space, rng.random(16))
        if k % 2 == 0:
            rep = amalgam_submultiplicativity_check(f, h, grp, Q, e1, e1, g1, g1)
        else:
            rep = amalgam_submultiplicativity_check(f, h, grp, Q, e0, e0, g0, g0)
            # theta = 0 must agree with the classical amalgam norm built
            # from plain Lp blocks, to the last bit.
            control = np.array([lp_norm(restricted(
                f,                 translate_window(Q, x).members), 2.0) for x in range(16)])
            classical = lp_norm(SampledFunction(grp.space, control), 2.0)
            if amalgam_norm(f, Q, e0, e0, g0, g0) != classical:
                classical_mism += 1
        if not (rep.passed and rep.ratio <= rep.constant_c * (1 + 1e-9)):
            bad += 1
    ok = bad == 0 and classical_mism == 0
    _verdict("amalgam convolution ratio bounded by the per-instance constant; "
             "theta=0 matches the classical amalgam algebra", ok,
             f"{bad} over constant, {classical_mism} classical mismatches")


def test_09_oracle_equivalence():
    rng = np.random.default_rng(109)
    tol = 1e-10
    worst = 0.0
    bad = 0
    for _ in range(100):                      # grand_norm vs dense scan
        n = int(rng.integers(2, 33))
        sp = (MeasureSpace.cyclic(n), MeasureSpace.interval(n),
              MeasureSpace.counting(n))[int(rng.integers(0, 3))]
        f = SampledFunction(sp, rng.random(n) * 10.0 ** float(rng.integers(-2, 3)))
        p = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
        theta = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        got = grand_norm(f, GrandExponent(p, theta), _grid(p, theta))
        want = brute_grand_norm(list(f.values), list(sp.weights), p, theta)
        rel = abs(got - want) / max(want, 1e-300)
        worst = max(worst, rel)
        if rel > tol:
            bad += 1
    from grandam.amalgam import discrete_amalgam_norm
    for k in range(100):                      # discrete amalgam vs brute
        n = (8, 12, 16)[k % 3]
        sp = MeasureSpace.cyclic(n)
        bupu = make_uniform_bupu(sp, 4)
        f = SampledFunction(sp, rng.random(n))
        p, theta = ((2.0, 1.0), (1.5, 1.0), (2.0, 0.0), (3.0, 1.0))[k % 4]
        e = GrandExponent(p, theta)
        got = discrete_amalgam_norm(f, bupu, e, e, _grid(p, theta), _grid(p, theta))
        want = brute_discrete_amalgam(
            list(f.values), list(sp.weights),
            dense_pieces(bupu).tolist(), p, theta, p, theta)
        rel = abs(got - want) / max(want, 1e-300)
        worst = max(worst, rel)
        if rel > tol:
            bad += 1
    from grandam.convolution import convolve
    for k in range(100):                      # convolve vs nested sums
        n = int(rng.integers(2, 33))
        grp = (FiniteAbelianGroup.cyclic(n, COUNTING) if k % 2
               else FiniteAbelianGroup.cyclic(n))
        f = SampledFunction(grp.space, rng.random(n))
        h = SampledFunction(grp.space, rng.random(n))
        got = convolve(f, h, grp).values
        want = np.array(brute_convolve(list(f.values), list(h.values),
                                       list(grp.space.weights), n))
        scale = float(np.max(np.abs(want))) or 1.0
        rel = float(np.max(np.abs(got - want))) / scale
        worst = max(worst, rel)
        if rel > tol:
            bad += 1
    _verdict("independent oracle agreement for grand, discrete amalgam and "
             "convolution (rel 1e-10)", bad == 0,
             f"{bad} mismatches, worst rel {worst:.3e}")
