"""Grand Lebesgue norms and their epsilon-supremum machinery.

The central object is

    sup over eps in (0, p-1] of  eps^(theta/(p-eps)) * ||f||_{p-eps}

computed by scanning an epsilon grid, polishing the best grid points with
a golden-section search, and admitting the eps -> 0 boundary value as one
more candidate. On a probability space with theta = 0 that boundary value
is the plain Lp norm, which makes the theta = 0 reduction exact rather
than grid-limited.

Every supremum the package takes is the supremum of a norm: grand norms,
sequence norms (counting measure), the discrete translate-step norms used
by amalgam discretization and, through the constant function, the upper
embedding constant all run through ``_norm_sup``, the one evaluation path.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (_TINY, MeasureSpace, SampledFunction, _weighted_r_norm, grand_factor,
                   lp_norm, make_epsilon_grid)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 200   # step cap of each golden-section polish


@dataclass(frozen=True)
class EpsilonProfile:
    """All evaluated (eps, weighted norm) pairs from one supremum scan.

    Entries cover the grid, every refinement probe and, at eps = 0.0, the
    boundary candidate; ``sup_value`` is the largest value among them and
    ``argmax_eps`` the first eps reaching it.
    """

    entries: tuple
    argmax_eps: float
    sup_value: float

    def value_at(self, eps):
        for e, v in self.entries:
            if e == eps:
                return v
        raise KeyError(f"eps (={eps}) was not evaluated")


def _golden_max(g, lo, hi, rel_tol, record):
    """Golden-section maximisation on [lo, hi]; every probe lands in ``record``."""
    if hi <= lo:
        return
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    gc = g(c)
    record.append((c, gc))
    gd = g(d)
    record.append((d, gd))
    it = 0
    while (hi - lo) > rel_tol * hi and it < _GOLDEN_STEPS:
        if gc < gd:
            lo, c, gc = c, d, gd
            d = lo + _INV_PHI * (hi - lo)
            gd = g(d)
            record.append((d, gd))
        else:
            hi, d, gd = d, c, gc
            c = hi - _INV_PHI * (hi - lo)
            gc = g(c)
            record.append((c, gc))
        it += 1


def _sup_over_grid(g, grid, zero_limit, vals):
    """Supremum of ``g`` over the grid with golden refinement.

    ``vals`` holds g at the grid points, in grid order. Refinement
    brackets the two best local maxima of the grid scan, so a secondary
    hump cannot be silently dropped. ``zero_limit`` is the eps -> 0
    boundary value; it only takes over when it strictly beats everything
    actually evaluated.
    """
    eps = grid.eps_values.tolist()
    n = len(vals)
    probes = []
    local = [i for i in range(n)
             if (i == 0 or vals[i] >= vals[i - 1])
             and (i == n - 1 or vals[i] >= vals[i + 1])]
    local.sort(key=lambda i: vals[i], reverse=True)
    for k in local[:2]:
        _golden_max(g, eps[max(k - 1, 0)], eps[min(k + 1, n - 1)],
                    grid.relative_tolerance, probes)

    entries = list(zip(eps, vals)) + probes + [(0.0, zero_limit)]
    best_eps, best_val = max(entries, key=lambda t: t[1])   # first maximum wins
    entries.sort(key=lambda t: t[0])
    return EpsilonProfile(tuple(entries), best_eps, best_val)


def _norm_sup(abs_vals, weights, exp, grid, scale_base=1.0):
    """Engine shared by every grand-type norm.

    Evaluates  eps^(theta/(p-eps)) * scale_base^(1/(p-eps)) * ||.||_{p-eps}
    over the grid. ``scale_base`` = 1 gives the plain grand norm; the
    discrete translate-step norm passes the window mass instead, making
    the two code paths bit-identical whenever that mass is exactly 1.

    Returns the profile and the plain norms ||.||_{p-eps} at the grid
    points, in grid order, so a caller that tabulates them need not
    evaluate them again. Powers that overflow are rescaled inside the
    r-norm kernel, so overflow warnings are off for the whole scan.
    """
    p = exp.p
    theta = exp.theta

    def weight(eps):
        r = p - eps
        return (eps ** (theta / r)) * scale_base ** (1.0 / r)

    def g(eps):
        return weight(eps) * _weighted_r_norm(abs_vals, weights, p - eps)

    with np.errstate(over="ignore"):
        eps = grid.eps_values.tolist()
        norms = [_weighted_r_norm(abs_vals, weights, p - e) for e in eps]
        if theta == 0.0:
            zero_limit = scale_base ** (1.0 / p) * _weighted_r_norm(abs_vals, weights, p)
        else:
            # eps^(theta/(p-eps)) -> 0 while the norm stays bounded.
            zero_limit = 0.0
        vals = [weight(e) * norm for e, norm in zip(eps, norms)]
        profile = _sup_over_grid(g, grid, zero_limit, vals)
    return profile, norms


def _resolve_grid(exp, grid):
    if grid is None:
        return make_epsilon_grid(exp)
    if grid.eps_max != exp.eps_max:
        raise ValueError(
            f"grid tops out at {grid.eps_max}, expected p - 1 = {exp.eps_max}")
    return grid


def grand_norm(f, exp, grid=None):
    """Grand Lebesgue norm of ``f`` for the exponent pair ``exp``.

    With theta = 0 on a probability space this returns the Lp norm exactly
    (the eps -> 0 candidate wins); with theta > 0 the supremum typically
    sits in the interior or at eps = p - 1 and the golden polish locates it.
    """
    return epsilon_profile(f, exp, grid).sup_value


def grand_sequence_norm(u, exp, grid=None):
    """Grand sequence norm; demands counting measure on the index set."""
    if not u.space.is_counting:
        raise ValueError("grand_sequence_norm needs unit weights (counting measure)")
    return grand_norm(u, exp, grid)


def epsilon_profile(f, exp, grid=None):
    """Profile of the weighted norms behind ``grand_norm``.

    The profile's ``sup_value`` is what ``grand_norm`` returns for the
    same inputs.
    """
    return _norm_sup(f.abs_values(), f.space.weights, exp, _resolve_grid(exp, grid))[0]


@dataclass(frozen=True)
class ClosureReport:
    """Vanishing-limit diagnostic for membership in the closure of L^p.

    ``applicable`` is False when theta = 0, where the weighted norm tends
    to the Lp norm instead of zero and the criterion says nothing.
    """

    applicable: bool
    in_closure: bool
    limit_estimate: float
    eps_at: float
    tol: float

    def to_doc(self):
        return asdict(self)


def closure_criterion(f, exp, grid=None, tol=1e-6):
    """Estimate lim eps -> 0 of the weighted norm and compare against ``tol``.

    The estimate is taken one full ladder extension below the grid, at
    eps_min * (eps_min / eps_max), so the default grid probes at about
    1e-12 * (p - 1). On a finite atomic space with theta > 0 the true
    limit is zero for every f, and the reported value shows the rate.
    """
    grid = _resolve_grid(exp, grid)
    if exp.theta == 0.0:
        return ClosureReport(False, False, lp_norm(f, exp.p), 0.0, tol)
    eps0 = grid.eps_min
    eps_tail = eps0 * (eps0 / grid.eps_max)
    val = grand_factor(eps_tail, exp) * lp_norm(f, exp.p - eps_tail)
    return ClosureReport(True, val < tol, val, eps_tail, tol)


@dataclass(frozen=True)
class EmbeddingConstants:
    """Constants for the two-sided comparison with Lp and L^(p-eps).

        grand_norm(f)     <= c_upper * lp_norm(f, p)
        lp_norm(f, p-eps) <= c_lower * grand_norm(f)
    """

    c_upper: float
    c_lower: float
    eps: float


def embedding_constants(exp, eps, space, grid=None):
    """Explicit constants for the chain L^p -> grand -> L^(p-eps).

    On a finite measure space the embedding L^p -> grand is sharp on
    constants (weighted power mean inequality), so the upper constant is
    the norm ratio ||1||_grand / ||1||_p. The Lr norms of 1 depend on the
    total mass alone, so one atom of that mass stands in for the space.
    The lower constant is the reciprocal epsilon weight at the requested eps.
    """
    weight = grand_factor(eps, exp)  # validates the eps range too
    if weight < _TINY:
        raise ValueError(f"eps (={eps}) puts the epsilon weight {weight} "
                         f"below the normal float range")
    one = SampledFunction.constant(MeasureSpace([space.total_mass]), 1.0)
    c_upper = grand_norm(one, exp, grid) / lp_norm(one, exp.p)
    return EmbeddingConstants(c_upper, 1.0 / weight, float(eps))
