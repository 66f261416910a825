"""Slow reference implementations used to pin expected values.

Everything here is deliberately written against plain Python floats and
loops, with a dense scan plus ternary polish instead of the package's
coarse grid plus golden refinement, so the two sides share no code
paths beyond the defining formulas. Three numpy models stand in for code
the package no longer has: ``full_gather`` is the order^2 matrix that
``convolve`` used to build whole, ``brute_translates`` the boolean
incidence of window translates over every atom that partitions, well-spread
checks and the equivalence geometry used before they read translate tables,
and ``dense_pieces`` a partition's pieces as one value per atom, as they
were held before a partition kept only its values on its translates. All
three pin the bits of what replaced them. ``reference_load_function`` is
the function-file reader as it was with one line loop per format and
separate passes that check and fill the rows; it pins every outcome of the
reader that replaced it, arrays and error messages alike. One outcome was
moved since: a JSON weight or value that is an integer too large for a
float (it rounds past the largest double) is a ``ValueError`` naming its
line and key, where the old reader let an ``OverflowError`` escape.
"""

import json
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from grandam.core import MeasureSpace, SampledFunction, _integers

SCAN_POINTS = 4096
TINY_FRACTION = 1e-12


# Sampled-function arithmetic and translation that the package does not
# carry: it computes every norm and check from the values, translate tables
# and the supremum engine, so only the tests build functions this way.

def zero(space):
    return SampledFunction(space, np.zeros(space.size))


def restricted(f, members):
    """Pointwise product with the indicator of ``members``."""
    mask = np.zeros(f.space.size, dtype=bool)
    mask[_integers(members, "members")] = True
    return SampledFunction(f.space, np.where(mask, f.values, 0.0))


def translated(f, shift):
    """(T_s f)(x) = f(x - s); zero extension on interval spaces."""
    target = f.space.translate_indices(f.space.points, shift)
    kept = target >= 0
    out = np.zeros_like(f.values)
    out[target[kept]] = f.values[kept]
    return SampledFunction(f.space, out)


def scaled(f, c):
    return SampledFunction(f.space, c * f.values)


def _same_space(f, g, what):
    if not f.space.compatible_with(g.space):
        raise ValueError(f"{what} needs functions on the same space")


def add(f, g):
    _same_space(f, g, "sum")
    return SampledFunction(f.space, f.values + g.values)


def sub(f, g):
    _same_space(f, g, "difference")
    return SampledFunction(f.space, f.values - g.values)


def identity_element(group):
    """The delta at 0 of a finite abelian group, scaled so its Haar integral is one."""
    vals = np.zeros(group.order)
    vals[0] = 1.0 / group.haar_weight
    return SampledFunction(group.space, vals)


def brute_lp_norm(values, weights, r):
    total = 0.0
    for w, v in zip(weights, values):
        total += w * abs(v) ** r
    return total ** (1.0 / r)


def _grand_candidate(values, weights, p, theta, scale, eps):
    r = p - eps
    return (eps ** (theta / r)) * (scale ** (1.0 / r)) * brute_lp_norm(values, weights, r)


def _ternary_polish(fun, lo, hi, iters=200):
    for _ in range(iters):
        if hi - lo <= 1e-15 * hi:
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if fun(m1) < fun(m2):
            lo = m1
        else:
            hi = m2
    mid = 0.5 * (lo + hi)
    return max(fun(lo), fun(mid), fun(hi))


def brute_grand_norm(values, weights, p, theta, scale=1.0, include_zero=True):
    """Dense-scan supremum of eps^(theta/(p-eps)) scale^(1/(p-eps)) ||f||_{p-eps}."""
    eps_max = p - 1.0
    lo = eps_max * TINY_FRACTION
    ratio = (eps_max / lo) ** (1.0 / (SCAN_POINTS - 1))
    grid = [lo * ratio ** k for k in range(SCAN_POINTS - 1)] + [eps_max]
    fun = lambda eps: _grand_candidate(values, weights, p, theta, scale, eps)
    vals = [fun(eps) for eps in grid]
    best = max(vals)
    order = sorted(range(len(grid)), key=lambda i: vals[i], reverse=True)
    polished = 0
    for i in order:
        left = vals[i - 1] if i > 0 else -math.inf
        right = vals[i + 1] if i + 1 < len(grid) else -math.inf
        if vals[i] < left or vals[i] < right:
            continue
        blo = grid[i - 1] if i > 0 else grid[0]
        bhi = grid[i + 1] if i + 1 < len(grid) else grid[-1]
        best = max(best, _ternary_polish(fun, blo, bhi))
        polished += 1
        if polished == 3:
            break
    if include_zero:
        if theta == 0.0:
            best = max(best, (scale ** (1.0 / p)) * brute_lp_norm(values, weights, p))
        else:
            best = max(best, 0.0)
    return best


def brute_convolve(fvals, gvals, weights, n):
    """Cyclic convolution by nested loops, weights as the Haar measure."""
    out = []
    for x in range(n):
        acc = 0.0
        for y in range(n):
            acc += fvals[y] * gvals[(x - y) % n] * weights[y]
        out.append(acc)
    return out


def brute_discrete_amalgam(fvals, ambient_weights, pieces, p_loc, th_loc,
                           p_glob, th_glob):
    """Per-piece local grand norms, then a grand sequence norm over pieces."""
    seq = []
    for psi in pieces:
        prod = [a * b for a, b in zip(fvals, psi)]
        seq.append(brute_grand_norm(prod, ambient_weights, p_loc, th_loc))
    ones = [1.0] * len(seq)
    return brute_grand_norm(seq, ones, p_glob, th_glob)


def brute_amalgam(fvals, weights, n, qmembers, translate, p_loc, th_loc,
                  p_glob, th_glob):
    """Windowed control by restriction, then a global grand norm of it."""
    control = []
    for x in range(n):
        members = translate(qmembers, x)
        masked = [v if i in members else 0.0 for i, v in enumerate(fvals)]
        control.append(brute_grand_norm(masked, weights, p_loc, th_loc))
    return brute_grand_norm(control, weights, p_glob, th_glob)


def digits(index, factors):
    """Mixed-radix digits of ``index`` modulo the group order, row-major."""
    rem = index % math.prod(factors)
    out = []
    for k in reversed(factors):
        out.append(rem % k)
        rem //= k
    return tuple(reversed(out))


def undigits(ds, factors):
    index = 0
    for d, k in zip(ds, factors):
        index = index * k + d % k
    return index


def brute_translate(index, shift, factors):
    """index + shift in Z_n1 x ... x Z_nk, digit by digit."""
    return undigits([a + b for a, b in zip(digits(index, factors), digits(shift, factors))],
                    factors)


def brute_negate(index, factors):
    return undigits([-a for a in digits(index, factors)], factors)


def brute_group_convolve(fvals, gvals, weight, factors):
    """sum_y f(y) g(x - y) weight on a product group, x - y taken digit by digit."""
    n = math.prod(factors)
    out = []
    for x in range(n):
        acc = 0.0
        for y in range(n):
            acc += fvals[y] * gvals[brute_translate(x, brute_negate(y, factors), factors)] * weight
        out.append(acc)
    return out


def full_gather(g, factors):
    """gathered[x, y] = g(x - y) on Z_n1 x ... x Z_nk, as one order^2 array.

    Along each factor axis of length k, the doubled and reversed copy R
    satisfies R[a + b] = g(-1 - a - b), so the window at a = k - 1 - x
    holds g(x - b) at offset b. ``full_gather(g, factors) @ (f * weight)``
    is the convolution as one matrix-vector product.
    """
    k = len(factors)
    doubled = np.tile(g.reshape(factors), (2,) * k)[(slice(None, None, -1),) * k]
    windows = sliding_window_view(doubled, factors)
    rows = tuple(slice(n - 1, None, -1) for n in factors)
    return np.ascontiguousarray(windows[rows]).reshape(g.size, g.size)


def _moved(space, member, shift):
    """member + shift: digit by digit on a cyclic space, None where it leaves an interval."""
    if space.factors is not None:
        return brute_translate(member, shift, space.factors)
    return member + shift if 0 <= member + shift < space.size else None


def brute_translates(space, members, shifts):
    """Boolean incidence [i, x]: atom x lies in members + shifts[i], moved atom by atom."""
    inc = np.zeros((len(shifts), space.size), dtype=bool)
    for i, s in enumerate(shifts):
        for m in members:
            x = _moved(space, m, s)
            if x is not None:
                inc[i, x] = True
    return inc


def dense_pieces(bupu):
    """The (pieces, atoms) array of the partition: psi_i as one value per atom.

    ``values[i, j]`` goes to window member j moved by centers[i]; a value
    whose atom leaves an interval has no place and is dropped.
    """
    dense = np.zeros((len(bupu), bupu.space.size))
    for i, (c, row) in enumerate(zip(bupu.centers, bupu.values)):
        for m, v in zip(bupu.window.members, row):
            x = _moved(bupu.space, m, c)
            if x is not None:
                dense[i, x] = v
    return dense


def brute_well_spread(space, members, family):
    """(U-dense, colour count): greedy colouring of the translates' intersection matrix."""
    inc = brute_translates(space, members, family)
    meets = inc @ inc.T
    colors = []
    for i in range(len(inc)):
        used = {colors[j] for j in range(i) if meets[i, j]}
        c = 0
        while c in used:
            c += 1
        colors.append(c)
    return bool(inc.any(axis=0).all()), max(colors, default=-1) + 1


def brute_bupu_checks(bupu):
    """(sum deviation as float.hex, sup, support violations, max overlap) of the dense pieces.

    The sum adds whole pieces in piece order. The nonzero values that
    ``dense_pieces`` drops are the support violations, and count for the
    sup; the overlap comes from the incidence of the supports.
    """
    dense, total = dense_pieces(bupu), np.zeros(bupu.space.size)
    for psi in dense:
        total = total + psi
    lost = [v for c, row in zip(bupu.centers, bupu.values)
            for m, v in zip(bupu.window.members, row)
            if v != 0.0 and _moved(bupu.space, m, c) is None]
    sup = max([float(np.max(np.abs(dense))), *map(abs, lost)])
    inc = brute_translates(bupu.space, bupu.window.members, bupu.centers)
    return float(np.max(np.abs(total - 1.0))).hex(), sup, len(lost), int(inc.sum(axis=0).max())


def brute_overlap_geometry(qmembers, bupu):
    """(kappa, mu_diff, cover_count) of every Q + x against the partition supports.

    kappa counts the supports one Q + x meets; mu_diff sums, per support,
    the weights of the x whose Q + x meets it, in ascending x; the cover
    count is a greedy sweep of all Q + x over the first support.
    """
    sp = bupu.space
    supports = brute_translates(sp, bupu.window.members, bupu.centers)
    q = brute_translates(sp, qmembers, range(sp.size))
    meets = q @ supports.T
    kappa = int(meets.sum(axis=1).max())
    mu_diff = max(float(np.sum(sp.weights[hits])) for hits in meets.T)
    uncovered = supports[0].copy()
    count = 0
    while uncovered.any():
        uncovered &= ~q[int(np.argmax(np.count_nonzero(q & uncovered, axis=1)))]
        count += 1
    return kappa, mu_diff, count


def _parse_rows_csv(lines):
    rows = []
    for lineno, raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.lower().replace(" ", "") == "index,weight,value":
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 comma-separated fields")
        try:
            idx = int(parts[0])
            w = float(parts[1])
            v = float(parts[2])
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
        rows.append((lineno, idx, w, v))
    return rows


_NUMBER = (int, float)


def _typed_value(value, kind, where):
    accepted = _NUMBER if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{where} (={value!r}) must be of type {kind.__name__}")
    if kind is float and isinstance(value, int) and abs(value) >= 2 ** 1024 - 2 ** 970:
        raise ValueError(f"{where} is an integer too large for a float")
    return kind(value)


def _parse_rows_jsonl(lines):
    rows = []
    for lineno, raw in lines:
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"line {lineno}: invalid JSON ({err.msg})") from None
        except ValueError as err:   # an integer of more digits than Python converts
            raise ValueError(f"line {lineno}: invalid JSON ({err})") from None
        if not isinstance(obj, dict) or set(obj) != {"i", "w", "v"}:
            raise ValueError(f"line {lineno}: expected an object with keys i, w, v")
        i, w, v = (_typed_value(obj[key], kind, f"line {lineno}: {key}")
                   for key, kind in (("i", int), ("w", float), ("v", float)))
        rows.append((lineno, i, w, v))
    return rows


def reference_load_function(path, fmt):
    """The sampled function in a ``fmt`` ("csv" or "jsonl") table file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = list(enumerate(fh.readlines(), start=1))
    rows = _parse_rows_csv(lines) if fmt == "csv" else _parse_rows_jsonl(lines)
    if not rows:
        raise ValueError(f"{path}: no rows")
    seen = {}
    for lineno, idx, w, v in rows:
        if idx in seen:
            raise ValueError(f"line {lineno}: duplicate index {idx} "
                             f"(first seen on line {seen[idx]})")
        seen[idx] = lineno
        if not w > 0.0:
            raise ValueError(f"line {lineno}: weight (={w}) must be > 0")
        if not (math.isfinite(w) and math.isfinite(v)):
            raise ValueError(f"line {lineno}: weight and value must be finite")
    n = len(rows)
    expected = set(range(n))
    if set(seen) != expected:
        missing = sorted(expected - set(seen))[:3]
        raise ValueError(f"indices must enumerate 0..{n - 1}; missing {missing}")
    weights = np.empty(n)
    values = np.empty(n)
    for _, idx, w, v in rows:
        weights[idx] = w
        values[idx] = v
    space = MeasureSpace(weights)
    return SampledFunction(space, values)
