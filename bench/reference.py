"""Independent references that the benchmark checks grandam's outputs against.

Nothing here imports grandam. The grand norm is a dense geometric scan of
the epsilon range, twelve decades deep, followed by a ternary polish of the
two best local maxima, evaluated for a whole batch of rows at once; grandam
uses a 64-point grid with a scalar golden-section search instead. Lp norms
are summed with ``math.fsum``, convolutions roll the second factor along
every group axis, and the widening-box witness uses its closed form.
"""

import math

import numpy as np

SCAN_POINTS = 512
TINY_FRACTION = 1e-12
POLISH_STEPS = 60  # each step keeps 2/3 of the bracket: (2/3)^60 < 3e-11

# Relative agreement demanded between grandam and these references. Both
# sides locate the same smooth supremum; what is left is rounding.
REL_TOL = 1e-9


def grand_norm_rows(values, weights, p, theta, scale=1.0):
    """sup over eps in (0, p-1] of eps^(theta/r) scale^(1/r) ||row||_r, r = p - eps.

    ``values`` is an (m, k) batch of rows (or one row); ``weights`` is one
    weight per column, or a scalar for uniform weights. Returns the m
    suprema, including the eps -> 0 limit.
    """
    a = np.abs(np.atleast_2d(np.asarray(values, dtype=float)))
    m, k = a.shape
    w = np.broadcast_to(np.asarray(weights, dtype=float), (k,))
    emax = p - 1.0

    def g(eps):
        r = p - eps
        s = a ** r[:, None] @ w
        return eps ** (theta / r) * scale ** (1.0 / r) * s ** (1.0 / r)

    grid = np.geomspace(emax * TINY_FRACTION, emax, SCAN_POINTS)
    vals = np.stack([g(np.full(m, e)) for e in grid], axis=1)
    best = vals.max(axis=1)

    left = np.concatenate([np.full((m, 1), -np.inf), vals[:, :-1]], axis=1)
    right = np.concatenate([vals[:, 1:], np.full((m, 1), -np.inf)], axis=1)
    ranked = np.where((vals >= left) & (vals >= right), vals, -np.inf)
    rows = np.arange(m)
    for _ in range(2):
        top = np.argmax(ranked, axis=1)
        present = np.isfinite(ranked[rows, top])
        ranked[rows, top] = -np.inf
        lo = np.where(present, grid[np.maximum(top - 1, 0)], grid[top])
        hi = np.where(present, grid[np.minimum(top + 1, SCAN_POINTS - 1)], grid[top])
        for _ in range(POLISH_STEPS):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            rising = g(m1) < g(m2)
            lo = np.where(rising, m1, lo)
            hi = np.where(rising, hi, m2)
        best = np.maximum.reduce([best, g(lo), g(hi), g(0.5 * (lo + hi))])

    if theta == 0.0:
        limit = scale ** (1.0 / p) * (a ** p @ w) ** (1.0 / p)
        best = np.maximum(best, limit)
    return best


def grand_norm(values, weights, p, theta, scale=1.0):
    """Reference grand norm of one function."""
    return float(grand_norm_rows(values, weights, p, theta, scale)[0])


def lp_norm_fsum(values, weights, r):
    """(sum_i w_i |v_i|^r)^(1/r) with an exactly rounded sum."""
    terms = np.asarray(weights, dtype=float) * np.abs(np.asarray(values, dtype=float)) ** r
    return math.fsum(terms.tolist()) ** (1.0 / r)


def window_rows(values, members, n):
    """Row x holds the values on the cyclic translate members + x of Z_n."""
    idx = (np.arange(n)[:, None] + np.asarray(members)[None, :]) % n
    return np.asarray(values)[idx]


def amalgam_norm(values, weight, members, p, q, theta):
    """Windowed amalgam norm on Z_n with uniform atom weight ``weight``."""
    n = len(values)
    local = grand_norm_rows(window_rows(values, members, n), weight, p, theta)
    return grand_norm(local, np.full(n, weight), q, theta)


def classical_amalgam_fsum(values, weight, members, p, q):
    """The theta = 0 amalgam norm (L^p locally, L^q globally), fsum throughout."""
    n = len(values)
    rows = window_rows(values, members, n)
    local = [lp_norm_fsum(row, np.full(len(members), weight), p) for row in rows]
    return lp_norm_fsum(local, np.full(n, weight), q)


def block_piece_norms(values, weight, block, p, theta):
    """Local grand norms of f on consecutive blocks (the uniform BUPU pieces)."""
    rows = np.asarray(values).reshape(-1, block)
    return grand_norm_rows(rows, weight, p, theta)


def convolve_axis_roll(fvals, gvals, factors, haar_weight):
    """(f * g)(x) = sum_y f(y) g(x - y) haar, rolling g along every factor axis."""
    fac = tuple(factors)
    F = np.asarray(fvals, dtype=float).reshape(fac)
    Gm = np.asarray(gvals, dtype=float).reshape(fac)
    out = np.zeros(fac)
    axes = tuple(range(len(fac)))
    for y in np.ndindex(*fac):
        out += F[y] * np.roll(Gm, y, axis=axes)
    return (out * haar_weight).ravel()


def witness_ratio(m, p):
    """Closed form of ||chi_[0,m) * chi_[0,m)||_p / ||chi_[0,m)||_p^2 on counting Z_2m."""
    total = 2.0 * math.fsum(float(k) ** p for k in range(1, m)) + float(m) ** p
    return total ** (1.0 / p) / float(m) ** (2.0 / p)
