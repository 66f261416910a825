"""Slow reference implementations used to pin expected values.

Everything here is deliberately written against plain Python floats and
loops, with a dense scan plus ternary polish instead of the package's
coarse grid plus golden refinement, so the two sides share no code
paths beyond the defining formulas. The one numpy helper, ``full_gather``,
is the order^2 matrix that ``convolve`` used to build whole; it pins the
bits of the block-by-block product.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SCAN_POINTS = 4096
TINY_FRACTION = 1e-12


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
