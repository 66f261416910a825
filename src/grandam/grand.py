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

Inputs of at least 2^14 atoms (``_LANE_MIN_ATOMS``), in a process allowed
on two or more CPUs, are evaluated on two lanes: the calling thread and
one worker thread share the grid points, and the polish probes at an end
of the ladder, each taking the next point neither has taken. The
crossover, with one BLAS thread on two CPUs, lies between 2^11 and 2^12
atoms; 2^14 leaves room for slower thread hand-offs, and every smaller
input runs as before, on the calling thread alone. A profile has the same
bits on either path for a given BLAS setting. The bits of any r-norm over
more than 10 000 atoms already depend on the BLAS thread count (OpenBLAS
splits a longer dot product between its threads). With OpenBLAS's default
threading its spinning workers occupy the second CPU, and the lanes give
the same bits but no gain (0-20 % slower at 2^16 atoms, measured); set
OPENBLAS_NUM_THREADS=1 to let them pay.
"""

import contextvars
import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .core import (_TINY, MeasureSpace, SampledFunction, _extent, _weighted_r_norm,
                   grand_factor, lp_norm, make_epsilon_grid)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 200   # step cap of each golden-section polish
_LANE_MIN_ATOMS = 2 ** 14   # inputs this large are evaluated on two lanes
_lane = None   # job queue of the one worker thread, started on first use
_lane_lock = threading.Lock()


def _reset_lane():
    global _lane, _lane_lock
    _lane, _lane_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    # a forked child has no worker thread, whatever the parent had
    os.register_at_fork(after_in_child=_reset_lane)


def _serve(jobs):
    while True:
        context, job, reply = jobs.get()
        try:
            context.run(job)
        except BaseException as err:   # raised again by the caller
            reply.put(err)
        else:
            reply.put(None)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _on_two_lanes(fn, args):
    """``[fn(a) for a in args]``, computed by the calling thread and the worker together.

    Each lane takes the next item no lane has taken, so a worker slowed by
    a busy CPU leaves more of the list to the caller instead of holding it
    up; the caller waits only for an item the worker has taken. ``fn``
    never returns None. The worker runs in a copy of the caller's context,
    so numpy error states set by the caller hold there too.
    """
    global _lane
    from queue import SimpleQueue   # loaded by the first large input only
    with _lane_lock:
        if _lane is None:
            _lane = SimpleQueue()
            threading.Thread(target=_serve, args=(_lane,), name="grandam-lane",
                             daemon=True).start()
        jobs = _lane
    out = [None] * len(args)
    order = iter(range(len(args)))
    taking = threading.Lock()

    def drain():
        while True:
            with taking:
                i = next(order, None)
            if i is None:
                return
            out[i] = fn(args[i])

    reply = SimpleQueue()
    jobs.put((contextvars.copy_context(), drain, reply))
    drain()
    if None in out:   # an item is still on the worker, or failed there
        err = reply.get()
        if err is not None:
            raise err
    return out


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


def _sup_over_grid(g, grid, zero_limit, vals, batch=None):
    """Supremum of ``g`` over the grid with golden refinement.

    ``vals`` holds g at the grid points, in grid order. Refinement
    brackets the two best local maxima of the grid scan, so a secondary
    hump cannot be silently dropped. ``zero_limit`` is the eps -> 0
    boundary value; it only takes over when it strictly beats everything
    actually evaluated.

    ``batch``, when given, maps a list of points to their g values all at
    once. A bracket at an end of the ladder then has its probes evaluated
    ahead: they are the probes ``_golden_max`` makes on a strictly monotone
    stand-in (rising towards the end), and the polish itself reads them
    back, evaluating afresh any probe off that path. Every probe and value
    is the one the plain polish gives.
    """
    eps = grid.eps_values.tolist()
    n = len(vals)
    probes = []
    local = [i for i in range(n)
             if (i == 0 or vals[i] >= vals[i - 1])
             and (i == n - 1 or vals[i] >= vals[i + 1])]
    local.sort(key=lambda i: vals[i], reverse=True)
    for k in local[:2]:
        lo, hi = eps[max(k - 1, 0)], eps[min(k + 1, n - 1)]
        h = g
        if batch is not None and k in (0, n - 1):
            path = []
            stand_in = (lambda e: e) if k == n - 1 else (lambda e: -e)
            _golden_max(stand_in, lo, hi, grid.relative_tolerance, path)
            points = [e for e, _ in path]
            ahead = dict(zip(points, batch(points)))

            def h(e, ahead=ahead):
                v = ahead.get(e)
                return g(e) if v is None else v
        _golden_max(h, lo, hi, grid.relative_tolerance, probes)

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
    r-norm kernel, so overflow warnings are off for the whole scan; a
    weighted norm that still overflows raises ``ValueError``.

    Large inputs are evaluated on two lanes (see the module docstring);
    each r-norm is the same call on either lane, with the same bits.
    """
    p = exp.p
    theta = exp.theta
    extent = _extent(abs_vals, weights)

    def weight(eps):
        r = p - eps
        return (eps ** (theta / r)) * scale_base ** (1.0 / r)

    def r_norm(r):
        return _weighted_r_norm(abs_vals, weights, r, extent)

    def g(eps):
        return weight(eps) * r_norm(p - eps)

    lanes = abs_vals.size >= _LANE_MIN_ATOMS and _usable_cpus() >= 2
    with np.errstate(over="ignore"):
        eps = grid.eps_values.tolist()
        rs = [p - e for e in eps]
        norms = _on_two_lanes(r_norm, rs) if lanes else [r_norm(r) for r in rs]
        if theta == 0.0:
            zero_limit = scale_base ** (1.0 / p) * r_norm(p)
        else:
            # eps^(theta/(p-eps)) -> 0 while the norm stays bounded.
            zero_limit = 0.0
        vals = [weight(e) * norm for e, norm in zip(eps, norms)]
        batch = (lambda points: _on_two_lanes(g, points)) if lanes else None
        profile = _sup_over_grid(g, grid, zero_limit, vals, batch)
    if profile.sup_value == math.inf:
        at = next(e for e, v in profile.entries if v == math.inf)
        raise ValueError(f"the weighted norm eps^(theta/(p-eps)) * ||f||_(p-eps) "
                         f"overflowed at eps (={at})")
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
