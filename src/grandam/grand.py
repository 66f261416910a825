"""Grand Lebesgue norms and their epsilon-supremum machinery.

The central object is

    sup over eps in (0, p-1] of  eps^(theta/(p-eps)) * ||f||_{p-eps}

computed over an epsilon grid, a golden-section polish around the best
grid points, and the eps -> 0 boundary value as one more candidate. On a
probability space with theta = 0 that boundary value is the plain Lp
norm, which makes the theta = 0 reduction exact rather than grid-limited.

Every supremum the package takes is the supremum of a norm: grand norms,
sequence norms (counting measure), the discrete translate-step norms used
by amalgam discretization and, through the constant function, the upper
embedding constant all run through ``_norm_sup``, the one evaluation path.

Every supremum is pruned except the one ``epsilon_profile`` (so the
``profile`` CLI) takes, whose entries are a report: certified upper
bounds on the weighted norm leave out the grid points, and the polish at
the top of the ladder, that cannot win, so the value is the float the
full table gives. Pruning starts from the top of the ladder: the top
grid point sets a floor, and a bound from max |f| and the total weight,
which costs no r-norm, drops the low ladder under it.
``submultiplicativity_check`` takes the pruned suprema and then
evaluates the grid points they left out, for its per-eps table. On 2^16
uniform atoms with the default 64-point grid the full table takes
106-108 r-norm evaluations; pruned, counting weights take 2-3 and
probability weights 3 at theta = 0 and 2-3 at theta > 0, where the
maximum sits at the top of the ladder and a bound cut into pieces proves
that no polish probe, and no grid point below the top, can beat it.
``_norm_sup`` holds the proof.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (_TINY, MeasureSpace, SampledFunction, _extent, _support, _weighted_r_norm,
                   grand_factor, lp_norm, make_epsilon_grid)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 200   # step cap of each golden-section polish
_TOP_PIECES = 48   # most pieces of a top-end certificate
_U = 2.0 ** -53   # unit roundoff
_SLACK = 2.0 ** -40   # eta of the pruning bound, and the fixed part of its delta
_ABS = 2.0 ** -1070   # absolute slack for weights below the normal range


@dataclass(frozen=True)
class EpsilonProfile:
    """All evaluated (eps, weighted norm) pairs from one supremum scan.

    Entries cover the grid, every refinement probe and, at eps = 0.0, the
    boundary candidate; ``sup_value`` is the largest value among them and
    ``argmax_eps`` the first eps reaching it. A pruned scan inside
    ``_norm_sup`` keeps only the grid points it evaluated; every profile
    a public function returns is a full table.
    """

    entries: tuple
    argmax_eps: float
    sup_value: float


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


def _profile(points, probes, zero_limit):
    """The profile of grid points, then probes, then the eps -> 0 value; the first maximum wins."""
    entries = points + probes + [(0.0, zero_limit)]
    best_eps, best_val = max(entries, key=lambda t: t[1])
    entries.sort(key=lambda t: t[0])
    return EpsilonProfile(tuple(entries), best_eps, best_val)


def _probe_gap(lo, hi, tol):
    """A distance below ``hi`` closer than which no polish of [lo, hi] probes, or None.

    (1 - phi) * min(hi - lo, phi * tol * lo), less a rounding allowance of
    16 u hi; None where that distance is lost in rounding. See ``_norm_sup``.
    """
    gap = (1.0 - _INV_PHI) * min(hi - lo, _INV_PHI * tol * lo)
    return gap - 16.0 * _U * hi if gap >= 2.0 ** -48 * hi else None


def _rounding_margin(size, weights, p, extent):
    """delta of ``_prune``, or None where its proof does not apply.

    See ``_norm_sup`` for the derivation.
    """
    top, log2_top = extent[:2]
    w_lo, w_hi = float(weights.min()), float(weights.max())
    if not top * min(w_lo, 1.0) >= _TINY:
        return None
    log2_lo = math.log2(w_lo)
    log2_sum = min(log2_lo, max(-1022.0, log2_lo + min(log2_top, p * log2_top)))
    rho = (size * _U / (1.0 - size * _U)
           + size * (w_hi * (p / 2.0 + 16.0) + 1.0) * 2.0 ** (-1074.0 - log2_sum)
           + _SLACK)
    return 3.0 * rho if rho < 0.1 else None


class _Ladder:
    """The grid points of one supremum, evaluated on demand.

    At an evaluated index i, with r_i = p - eps_i: ``norms[i]`` is
    ||f||_(r_i) under the weights, which carry any mass (a window's), and
    ``vals[i]`` is eps_i^(theta/r_i) times it, the weighted norm (``weigh``,
    which polish probes go through too). Entries not evaluated are None.
    ``extent`` is ``core._extent`` of the input.
    """

    def __init__(self, grid, exp, r_norm, extent):
        self.eps = grid.eps_values.tolist()
        self.p, self.theta = exp.p, exp.theta
        self.r_norm = r_norm
        # max |f| and the total weight (``core._extent``) for ``free_bound``
        self.top, self.total = extent[0], extent[3]
        self.norms, self.vals = [None] * len(self.eps), [None] * len(self.eps)

    def fill(self):
        """Evaluate every grid point not yet evaluated; returns ``norms``."""
        with np.errstate(over="ignore"):
            self.evaluate(range(len(self.eps)))
        return self.norms

    def evaluate(self, indices):
        """Evaluate the grid points at ``indices`` not yet evaluated; returns those."""
        eps, p, norms = self.eps, self.p, self.norms
        todo = [i for i in indices if norms[i] is None]
        for i in todo:
            norms[i] = self.r_norm(p - eps[i])
            self.vals[i] = self.weigh(eps[i], norms[i])
        return todo

    def weigh(self, e, norm):
        """eps^(theta/(p-eps)) * ``norm`` at eps = e."""
        return e ** (self.theta / (self.p - e)) * norm

    def at(self, e):
        """The weighted norm at any eps = e, evaluated afresh and not kept."""
        return self.weigh(e, self.r_norm(self.p - e))

    def peaks(self):
        """The full table's two best local maxima, best first (ties: the lower eps)."""
        vals, last = self.vals, len(self.vals) - 1
        local = [i for i, v in enumerate(vals)
                 if (i == 0 or v >= vals[i - 1]) and (i == last or v >= vals[i + 1])]
        return sorted(local, key=lambda i: vals[i], reverse=True)[:2]

    def gap_bound(self, i, j):
        """Bound on the weighted norm over [eps_i, eps_j]; both ends evaluated, i < j."""
        return self.piece_bound(self.eps[j], max(self.norms[i], self.norms[j]))

    def piece_bound(self, c, norm):
        """Bound on the weighted norm where eps <= c and ||f|| (mass included) <= ``norm``."""
        return (c ** (self.theta / (self.p - c)) + _ABS) * norm + _ABS

    def free_bound(self, k):
        """Bound on the weighted norm over [eps_0, eps_k], from max |f| and the total weight.

        ||f||_r <= top * (total weight)^(1/r), so no r-norm is evaluated; inf
        for a total weight below the normal range. See ``_norm_sup``.
        """
        a, c, p, total = self.eps[0], self.eps[k], self.p, self.total
        if not total >= _TINY:
            return math.inf
        return self.piece_bound(c, self.top * max(total ** (1.0 / (p - a)),
                                                  total ** (1.0 / (p - c))))

    def top_end_bound(self, i, tol, floor):
        """Bound on the weighted norm over [eps_i, b], i below the top index.

        b lies below the top eps by the least distance at which a polish of
        the top bracket may probe (``_probe_gap``); the bound is inf where
        that distance is lost in rounding. Where the norm falls towards the
        top, [eps_i, b] is cut into pieces, each about as wide as a bound
        below ``floor`` allows, and the largest piece bound is returned; the
        cut stops at the first piece whose bound reaches ``floor``, and the
        bound is inf when the pieces would run out (``_TOP_PIECES``) before
        reaching b. See ``_norm_sup``.
        """
        eps, p, theta = self.eps, self.p, self.theta
        hi = eps[-1]
        gap = _probe_gap(eps[-2], hi, tol)
        if gap is None or not floor > 0.0:
            return math.inf
        b = hi - gap
        n_i, n_j = self.norms[i], self.norms[-1]
        q_i = 1.0 / (p - eps[i])
        d = 1.0 / (p - hi) - q_i
        # ||f||_r <= n_i^(1-t) n_j^t where 1/r = (1-t)/r_i + t/r_j (Lyapunov);
        # t is rounded towards the side that makes the bound larger, and so is
        # the log ratio of the end norms
        log_i, log_j = (math.log(n_i), math.log(n_j)) if n_i > 0.0 < n_j else (0.0, 0.0)
        spread = abs(log_i - log_j) - 4.0 * _U * (abs(log_i) + abs(log_j) + 1.0)
        if not (d > 2.0 ** -30 and spread > 0.0):
            return self.piece_bound(b, max(n_i, n_j))
        if n_i < n_j:
            # rising towards the top: one piece, with the norm bound at b
            t = (1.0 / (p - b) - q_i) / d + 8.0 * _U / d + 8.0 * _U
            norm = n_j * math.exp(-((1.0 - t) - 2.0 * _U) * spread) if t < 1.0 else n_j
            return self.piece_bound(b, norm)

        # falling towards the top: on a piece [a, c] the norm bound is taken at
        # a and the epsilon weight at c. In logs that weight is h(c) below, and
        # the next c solves h(c) = ln(floor / norm) along the steeper of the
        # secant of h over [a, b] and its tangent at a; the piece's bound is
        # then computed, and decides.
        h_b = theta * math.log(b) / (p - b)
        a, worst = eps[i], -math.inf
        for left in reversed(range(_TOP_PIECES)):
            t = (1.0 / (p - a) - q_i) / d - 8.0 * _U / d - 8.0 * _U
            norm = n_i * math.exp(-t * spread) if t > 0.0 else n_i
            goal = math.log(floor / norm) - 2.0 * _SLACK
            log_a = math.log(a)
            h_a = theta * log_a / (p - a)
            if h_b <= goal:
                c = b
            elif not h_a < goal:
                c = a
            else:
                slope_a = theta * ((p - a) / a + log_a) / (p - a) ** 2
                c = a + (goal - h_a) * min((b - a) / (h_b - h_a), 1.0 / slope_a)
            bound = self.piece_bound(c, norm)
            worst = max(worst, bound)
            if not bound * (1.0 + _SLACK) < floor or c >= b:
                return worst
            if (b - c) * ((b - c) / (b - a)) ** left > gap:
                return math.inf   # shrinking at this rate, the pieces run out first
            a = c
        return math.inf


def _prune(ladder, zero_limit, delta, tol):
    """Branch-and-bound over the grid (see ``_norm_sup``).

    Returns the grid indices whose brackets must still be polished (none,
    or the grid's best point), or None when pruning is off for the call.
    """
    vals = ladder.vals
    n = len(vals)
    if not math.isfinite(zero_limit):
        return None
    ladder.evaluate([n - 1])
    if not math.isfinite(vals[-1]):
        return None
    # the free bound drops [eps_0, eps_k] for the largest k below the top it
    # keeps under the floor (k = -1: none); it grows with k, so bisect
    floor = max(vals[-1], zero_limit) * (1.0 - delta)
    k, above = -1, n - 1
    while above - k > 1:
        mid = (k + above) // 2
        if ladder.free_bound(mid) * (1.0 + _SLACK) < floor:
            k = mid
        else:
            above = mid
    done = sorted({max(k, 0), n - 1})
    new = ladder.evaluate(done)
    bounds = {}
    while True:
        if not all(map(math.isfinite, [vals[i] for i in new])):
            return None
        grid_best = max([vals[i] for i in done])
        best = max(grid_best, zero_limit)
        floor = best * (1.0 - delta)
        mids = []
        for i, j in zip(done, done[1:]):
            bound = bounds.get((i, j))
            if bound is None:
                bound = bounds[i, j] = ladder.gap_bound(i, j)
            open_gap = j - i > 1 and not bound * (1.0 + _SLACK) < floor
            if open_gap and j == n - 1 and vals[j] == grid_best:
                # the top holds the best grid value so far: the top-end
                # certificate covers the gap, and is kept only if it closes it
                certified = ladder.top_end_bound(i, tol, floor)
                open_gap = not certified * (1.0 + _SLACK) < floor
                if not open_gap:
                    bounds[i, j] = certified
            if open_gap:
                mids.append((i + j) // 2)
        if not mids:
            break
        new = ladder.evaluate(mids)
        done = sorted(done + new)

    top = next(i for i in done if vals[i] == grid_best)
    plan = []
    for pos, k in enumerate(done):
        v = vals[k]
        if ((k > 0 and vals[k - 1] is not None and vals[k - 1] > v)
                or (k < n - 1 and vals[k + 1] is not None and vals[k + 1] > v)):
            continue   # an evaluated neighbour lies above: not a local maximum
        if k == top == n - 1 and n > 1:
            # a certificate the rounds kept on the top's left gap covers its bracket
            bound = bounds[done[pos - 1], k]
            if not bound * (1.0 + _SLACK) < floor:
                bound = ladder.top_end_bound(done[pos - 1], tol, floor)
        else:
            sides = [bounds[done[pos - 1], k]] if pos > 0 else []
            if pos + 1 < len(done):
                sides.append(bounds[k, done[pos + 1]])
            bound = max(sides, default=-math.inf)
        if bound * (1.0 + _SLACK) < floor:
            continue
        if k != top or best != grid_best:
            return None
        plan.append(k)
    return plan


def _norm_sup(abs_vals, weights, exp, grid, table=False):
    """Engine shared by every grand-type norm.

    Takes the supremum of  eps^(theta/(p-eps)) * ||.||_{p-eps}  over the
    grid, the polish probes and, for theta = 0, the eps -> 0 value
    ||.||_p, where ||.||_r is the r-norm under ``weights``. The discrete
    translate-step norm passes the window mass as every weight. The sums
    run over the atoms where the input is nonzero (``core._support``).

    Returns the profile and the ``_Ladder``: its ``norms`` are the plain
    norms ||.||_{p-eps} at the grid points, in grid order (None at a point
    not evaluated), and ``_Ladder.fill`` evaluates the rest. Powers that
    overflow are rescaled inside the r-norm kernel, so overflow warnings
    are off for the whole scan; a weighted norm that still overflows
    raises ``ValueError``.

    Every supremum runs one sequence: evaluate the ladder, choose a plan
    (the grid indices whose brackets are polished), polish, and build the
    profile. Pruning (below) evaluates only the points that may win and
    plans at most the grid's best point; the profile holds the points
    evaluated, and its ``sup_value`` is the full table's float. With
    ``table``, or when the proof below does not go through, every grid
    point is evaluated and the plan is the table's two best local maxima,
    so a secondary hump cannot be silently dropped.

    Pruning. The first pass evaluates the top grid point and, at theta = 0,
    the eps -> 0 value; the larger sets the floor, best * (1 - delta). The
    free bound (below) on [eps_0, eps_k] grows with k, so at most six
    bisection steps on the default grid find the largest k below the top
    index whose free bound * (1 + eta) stays under the floor (a k is kept
    only when its own computed bound passed, so the proof does not need the
    computed bounds to be monotone). Every grid point in [eps_0, eps_k] is
    dropped without an r-norm, and the pass evaluates point max(k, 0).
    Each round then bounds the weighted norm on every gap between
    neighbouring evaluated points, and evaluates the middle grid point of
    each gap whose bound can still reach the best value found. A gap is
    dropped when bound * (1 + eta) < best * (1 - delta).
    The bound on [eps_i, eps_j] is the product of two bounds:

    - eps^(theta/(p-eps)) rises with eps on (0, p-1], since the derivative
      of its logarithm is theta/r^2 * (r/eps + ln eps) with r = p - eps, and
      r/eps + ln eps, which falls in eps, is 1/(p-1) + ln(p-1) >= 1 at
      eps = p - 1. So it is at most its value at eps_j.
    - Lyapunov (Hoelder) interpolation: for 1/r = (1-t)/r_i + t/r_j with
      t in [0, 1], ||f||_r <= ||f||_(r_i)^(1-t) ||f||_(r_j)^t for any
      positive weights. The right side is log-linear in t, so it is at
      most the larger of the two end norms. The kernel's exponent
      fl(p - eps) is monotone in eps, so every point of the gap is
      evaluated at an r in [r_j, r_i].

    The free bound (``_Ladder.free_bound``) on [eps_0, eps_k] takes the
    same first factor and replaces the second by one that needs no
    r-norm: with top = max |f| and W the total weight of the support,
    sum_i w_i a_i^r <= top^r W, so ||f||_r <= top W^(1/r). W^(1/r) is
    monotone in 1/r, so over the exponents fl(p - eps) of the region, which
    lie between fl(p - eps_k) and fl(p - eps_0), it is at most the larger
    of its two end values. Its rounding fits in rho (below): W is the
    computed sum of the weights (``core._extent``), within gamma_n of the
    exact sum since its terms are nonnegative, and with 1/r <= 1 the power
    moves that by no more; the power itself and the rounding of 1/r add at
    most 16 u + 2u |ln W| <= 1436 u, part of the rest below 2^-40. So the
    computed free bound is at least the exact one times 1 - rho, as a
    Lyapunov bound from computed norms is, and delta = 3 rho covers both.
    A W below the normal range, where W^(1/r) may be subnormal and lose
    its relative accuracy, gives no free bound. The dropped region counts
    as the left gap of point k.

    A gap (eps_i, top) that the two-factor bound cannot drop, while the
    top grid point holds the best grid value so far, goes to the top-end
    certificate (below) before it is bisected. The certificate bounds
    [eps_i, b], and b lies above the top's lower neighbour (the probe gap
    is less than (1 - phi) times the top bracket's width), so it covers
    every grid point of the gap and every probe of the top polish. It
    becomes the gap's bound only when it closes the gap, and the plan
    reuses it for the top, whose final left neighbour is then i: no point
    in a dropped gap is evaluated. Two points keep this sound:
    - A certificate that closed a gap at an earlier, lower floor stays
      valid. The floor only guides where the pieces are cut; a
      certificate that closed returns its largest piece bound over pieces
      that reach b, a bound on all of [eps_i, b] whatever the floor. And
      the floor only rises, since best is a maximum over a growing set of
      values, so the bound stays under every later floor.
    - A certificate that failed is never kept. It stops cutting at the
      first piece whose bound reaches the floor, before it has covered
      the gap, so its value bounds only part of the region.

    After the rounds, every point not evaluated lies in a dropped gap or in
    the region the free bound dropped, and is below the best value, so the
    grid's best point (the first to reach the grid maximum) is the one the
    full table polishes first. Its bracket is polished exactly as in the
    full table, unless it lies at an end of the ladder and a bound proves
    no probe can win. Every other
    point that may be a local maximum (no evaluated neighbour above it)
    must have both gaps beside it dropped, or pruning is off for the call:
    the full table polishes its second-best local maximum too. Pruning is
    also off when the eps -> 0 value beats the grid and the grid's best
    bracket cannot be dropped, when any value evaluated is not finite (so
    an overflow names the eps the full table names), and when a bound is
    not finite (it never prunes).

    The probes of a top-end polish of [lo, hi] (``_probe_gap``). With u =
    2^-53 and phi the float ``_INV_PHI``, every probe is computed from the
    current bracket [l, h] as fl(l + fl(phi fl(h - l))) or
    fl(h - fl(phi fl(h - l))), so it is at most h; and h only moves down,
    to a probe. So a polish follows the path on which every comparison
    rises (h = hi throughout) until it first moves h, and probes below
    that probe afterwards: no polish probes nearer to hi than that one
    path does. On it, let D_k = hi - (the k-th new probe d), with
    D_-2 = hi - lo and D_-1 = hi - c_0. Probe d_(k+1) is made from the
    bracket [d_(k-1), hi], and hi - fl(l + fl(phi fl(hi - l))) lies within
    2.25 u hi of (1 - phi)(hi - l) (the roundings of hi - l and of the
    product move phi (hi - l) by at most 1.24 u hi, that of the sum, at
    most hi, by u hi); so D_(k+1) = (1 - phi) D_(k-1) + e_k with
    |e_k| <= 2.25 u hi, D_0 likewise from D_-2, and D_-1 = phi D_-2 + e.
    Against the exact sequence, (1 - phi)^(m+1) D_-2 at k = 2m and
    phi (1 - phi)^m D_-2 at k = 2m - 1, the errors stay below
    2.25 u hi / phi < 3.7 u hi, and the exact sequence falls by at least
    phi (1 - phi)(1 - 2u) over three steps. Probe d_(k+1) is made only
    after the loop test fl(hi - d_(k-2)) > fl(tol hi) has passed, so
    D_(k-2) > tol hi >= tol lo, and D_(k+1) > phi (1 - phi) tol lo
    - 5.1 u hi; the first two probes lie at least (1 - phi)(hi - lo)
    - 2.3 u hi below hi. The computed distance
    (1 - phi) min(hi - lo, phi tol lo), less 16 u hi, and hi less it,
    carry at most 3 u hi more rounding; so every probe lies in [lo, b],
    b = hi - that distance. The allowance is needed: on random narrow
    brackets the nearest probe comes closer than the exact distance by
    almost u hi. It is not used when the distance is below 2^-48 hi.

    The certificate of a top-end bracket (``_Ladder.top_end_bound``)
    bounds the weighted norm on [eps_i, b] piece by piece. On a piece
    [a, c] it takes the epsilon weight at c and the interpolation bound
    n_i^(1-t) n_j^t at the end of the piece where it is largest.
    t = (1/r - 1/r_i)/(1/r_j - 1/r_i) rises with eps, and the kernel's
    exponent at every point of [a, c] lies in [fl(p - c), fl(p - a)]. So where n_i >= n_j (the norm falls
    towards the top) it is taken at a, with t and ln(n_i/n_j) rounded
    down, and the region is cut into pieces; where n_i < n_j it is taken
    at b, with t rounded up, and one piece covers the region. (1/r is at
    most 1 + 2u here, so each of t's three differences and two quotients
    is off by at most 3u/(1/r_j - 1/r_i) + u; 8u/(1/r_j - 1/r_i) + 8u
    covers them.) Each piece bound is the two-factor bound above on a
    piece of the gap, so the largest over the pieces bounds the region.
    The next piece end solves, in logs, epsilon weight at c = floor /
    (norm bound at a), along the steeper of the secant over [a, b] and the
    tangent at a; since the computed piece bound decides, that choice
    needs no proof. The cut stops at the first piece whose bound reaches
    the floor. It gives up (inf) after ``_TOP_PIECES`` pieces, or as soon
    as the pieces left, each shrinking the rest of the region at the rate
    of the last one, would not bring it within the probe gap of b: the
    pieces then close in on a point the bound cannot clear, such as a
    maximum inside the bracket, or too slowly to pay.

    delta, the rounding margin (``_rounding_margin``). With u = 2^-53,
    powers within 16 ulps (glibc's pow is within 1) and n atoms in the
    support (a zero atom adds exactly 0, so the atoms dropped move no
    sum), a computed weighted norm lies within a relative rho of the exact
    one at the same eps:
    - the dot product of n nonnegative terms: gamma_n = n u / (1 - n u);
    - terms below the normal range add at most n (w_max (p/2 + 16) + 1)
      2^-1074 absolutely against a sum of at least
      min(w_min, max(2^-1022, w_min min(top, top^p))), for each pass of
      the kernel (the second divides by a power of two, which rounds only
      below the normal range; the third, whose largest term is 1, by top;
      the fourth lifts the weights by a power of two, which is exact);
    - the rest, below 2^-40: the powers of the terms and of the root, the
      rounding of 1/r and theta/r, which moves x^e by at most
      2u |ln x^e| <= 1420 u for the epsilon weight, 745 u for the root, two
      products (in the fourth pass one more, and the power 2^(-shift/r)
      that undoes the lift), and in the third pass the quotients a / top,
      each within u, which move each term by a factor within (1 +- u)^r
      and so the norm by one within 1 +- u.
    The bounds are built from computed values too, so delta = 3 rho, which
    covers both sides; eta = 2^-40 covers the bound's own arithmetic, and
    an absolute 2^-1070 covers weights below the normal range. At 2^16
    atoms delta is about 2.5e-11. Pruning is off where the proof needs
    more: a top value times min(w_min, 1) below the normal range, or
    rho >= 0.1.
    """
    abs_vals, weights = _support(abs_vals, weights)
    p = exp.p
    tol = grid.relative_tolerance
    extent = _extent(abs_vals, weights)

    def r_norm(r):
        return _weighted_r_norm(abs_vals, weights, r, extent)

    ladder = _Ladder(grid, exp, r_norm, extent)
    with np.errstate(over="ignore"):
        # for theta > 0, eps^(theta/(p-eps)) -> 0 while the norm stays bounded
        zero_limit = r_norm(p) if exp.theta == 0.0 else 0.0
        delta = None if table else _rounding_margin(abs_vals.size, weights, p, extent)
        plan = None if delta is None else _prune(ladder, zero_limit, delta, tol)
        if plan is None:
            ladder.fill()
            plan = ladder.peaks()
        eps = ladder.eps
        probes = []
        for k in plan:
            _golden_max(ladder.at, eps[max(k - 1, 0)], eps[min(k + 1, len(eps) - 1)], tol,
                        probes)
        points = [(e, v) for e, v in zip(eps, ladder.vals) if v is not None]
        profile = _profile(points, probes, zero_limit)
    if profile.sup_value == math.inf:
        at = next(e for e, v in profile.entries if v == math.inf)
        raise ValueError(f"the weighted norm eps^(theta/(p-eps)) * ||f||_(p-eps) "
                         f"overflowed at eps (={at})")
    return profile, ladder


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
    grid = _resolve_grid(exp, grid)
    return _norm_sup(f.abs_values(), f.space.weights, exp, grid)[0].sup_value


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
    return _norm_sup(f.abs_values(), f.space.weights, exp, _resolve_grid(exp, grid),
                     table=True)[0]


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
