"""Weighted atomic measure spaces and the Lp primitives built on them.

Every domain here is a finite list of atoms with strictly positive weights,
so integrals are finite sums and each norm identity can be checked to
floating point accuracy. Translation follows the space geometry: cyclic
spaces wrap around (finite abelian groups, componentwise for products),
interval spaces shift and drop whatever leaves the domain, which amounts
to extending functions by zero.

Norms sum over the atoms where |f| > 0 (``_support``), so zero padding
moves no bits. The r-norm kernel (``_weighted_r_norm``) takes one BLAS dot
product, split between the BLAS threads above 10 000 atoms: the bits of a
norm over that many nonzero atoms depend on OPENBLAS_NUM_THREADS, those of
a window row only if the window is that large. Each setting is deterministic.
"""

import math
from dataclasses import dataclass

import numpy as np

_TINY = float(np.finfo(float).tiny)   # smallest normal float
_LOG_MAX = math.log(np.finfo(float).max)

CYCLIC = "cyclic"
INTERVAL = "interval"

PROBABILITY = "probability"
COUNTING = "counting"

_GEOMETRIES = (CYCLIC, INTERVAL)
_NORMALIZATIONS = (PROBABILITY, COUNTING)


def _integers(values, what):
    """``values`` as np.intp; the first entry that is not integral (2.0 is, 1.7 is not) raises."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return arr.astype(np.intp, copy=False)
    bad = values
    if arr.dtype.kind == "f":
        rest = arr[~((np.abs(arr) < 2.0 ** 62) & (np.trunc(arr) == arr))]
        if rest.size == 0:
            return arr.astype(np.intp)
        bad = float(rest[0])
    raise ValueError(f"{what} (={bad!r}) must be integral")


def _group_factors(factors):
    fac = tuple(_integers(factors, "group factors").tolist())
    if not fac or any(k <= 0 for k in fac):
        raise ValueError("group factors must be positive integers")
    return fac


def _normalized_weights(n, normalization):
    if normalization not in _NORMALIZATIONS:
        raise ValueError(f"normalization (={normalization!r}) must be one of {_NORMALIZATIONS}")
    if n < 1:
        raise ValueError(f"a space needs at least one atom, got {n}")
    if normalization == PROBABILITY:
        return np.full(n, 1.0 / n)
    return np.ones(n)


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """A finite family of weighted atoms together with a translation rule.

    Atoms are indexed 0..size-1. On a cyclic space ``factors`` gives the
    axes of the group Z_n1 x ... x Z_nk laid out in row-major order, and
    translation acts componentwise; a plain Z_n has the single factor
    (n,), which is also the default. Interval spaces have no factors.
    Instances are immutable and safe to share.
    """

    weights: np.ndarray
    geometry: str = CYCLIC
    factors: tuple = None

    def __post_init__(self):
        w = np.array(self.weights, dtype=float, copy=True)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must form a non-empty 1-d sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("every atom weight must be finite and > 0")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if self.geometry not in _GEOMETRIES:
            raise ValueError(f"geometry (={self.geometry!r}) must be one of {_GEOMETRIES}")
        if self.geometry == CYCLIC:
            fac = _group_factors(self.factors or (w.size,))
            if math.prod(fac) != w.size:
                raise ValueError(
                    f"product of factors {fac} must equal the atom count {w.size}")
            object.__setattr__(self, "factors", fac)
        elif self.factors is not None:
            raise ValueError("factored (product group) spaces must be cyclic")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def cyclic(cls, n, normalization=PROBABILITY):
        """Z_n with uniform weights (1/n for probability, 1 for counting)."""
        return cls(_normalized_weights(n, normalization), CYCLIC)

    @classmethod
    def interval(cls, n, normalization=PROBABILITY):
        """n atoms on a line segment; translations clip at the ends."""
        return cls(_normalized_weights(n, normalization), INTERVAL)

    @classmethod
    def counting(cls, n):
        """Index set {0..n-1} with counting measure, for sequence norms."""
        return cls(_normalized_weights(n, COUNTING), INTERVAL)

    @classmethod
    def product(cls, factors, normalization=PROBABILITY):
        """Product group Z_n1 x ... x Z_nk, flattened row-major."""
        fac = _group_factors(factors)
        return cls(_normalized_weights(math.prod(fac), normalization), CYCLIC, fac)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def size(self):
        return int(self.weights.size)

    @property
    def points(self):
        return np.arange(self.size)

    @property
    def total_mass(self):
        return float(np.sum(self.weights))

    @property
    def is_probability(self):
        return abs(self.total_mass - 1.0) <= 1e-12

    @property
    def is_counting(self):
        return bool(np.all(self.weights == 1.0))

    def uniform_weight(self):
        """The common atom weight; raises when the weights are not uniform."""
        w0 = float(self.weights[0])
        if not np.all(self.weights == w0):
            raise ValueError("space does not carry uniform atom weights")
        return w0

    def compatible_with(self, other):
        """Whether ``other`` has the same atoms, weights and translation rule."""
        return other is self or (other.geometry == self.geometry
                                 and other.factors == self.factors
                                 and np.array_equal(other.weights, self.weights))

    # ------------------------------------------------------------------
    # translation: reads the row-major mixed-radix layout (as convolve does)

    def translate_indices(self, indices, shift):
        """Atoms ``indices`` shifted by ``shift``; -1 marks atoms clipped away.

        ``indices`` and ``shift`` broadcast against each other. A cyclic
        shift is a group element given by its flat index (taken modulo the
        order) and is added digit by digit; an interval shift moves along
        the line and drops whatever leaves it.
        """
        idx = _integers(indices, "indices")
        shift = _integers(shift, "shift")
        if self.geometry == INTERVAL:
            t = idx + shift
            return np.where((t >= 0) & (t < self.size), t, -1)
        fac = self.factors
        # numpy 2.4's unravel_index misreads (N, 1) arrays past 8193 rows: unravel them flat
        unravel = lambda a: [d.reshape(a.shape) for d in np.unravel_index(a.ravel(), fac)]
        digits = zip(unravel(idx), unravel(shift % self.size))
        return np.ravel_multi_index(tuple(a + b for a, b in digits), fac, mode="wrap")


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """One real or complex value per atom of a measure space."""

    space: MeasureSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if np.iscomplexobj(v):
            v = np.array(v, dtype=complex, copy=True)
        else:
            v = np.array(v, dtype=float, copy=True)
        if v.shape != (self.space.size,):
            raise ValueError(
                f"values have shape {v.shape}, expected ({self.space.size},)")
        if not np.all(np.isfinite(v)):
            raise ValueError("function values must all be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, space, value):
        return cls(space, np.full(space.size, value))

    @classmethod
    def indicator(cls, space, members):
        vals = np.zeros(space.size)
        vals[_integers(members, "members")] = 1.0
        return cls(space, vals)

    def abs_values(self):
        return np.abs(self.values)


@dataclass(frozen=True)
class GrandExponent:
    """Exponent pair (p, theta) with p > 1 and theta >= 0.

    The associated epsilon range is the half-open interval (0, p - 1];
    theta = 0 switches the epsilon weight off entirely. theta * |ln(p - 1)|
    stays below ln(max float), so (p - 1)^theta and (p - 1)^-theta are finite,
    and p - 1 is exact (p below 2^53), so the top of the ladder, r = p - (p - 1),
    is 1.
    """

    p: float
    theta: float

    def __post_init__(self):
        p = float(self.p)
        theta = float(self.theta)
        if not math.isfinite(p) or p <= 1.0:
            raise ValueError(f"p (={p}) must be finite and > 1")
        if not math.isfinite(theta) or theta < 0.0:
            raise ValueError(f"theta (={theta}) must be finite and >= 0")
        if theta * abs(math.log(p - 1.0)) >= _LOG_MAX:
            raise ValueError(f"theta (={theta}) is too large for p (={p}): "
                             f"(p - 1)^theta leaves float range")
        if p - (p - 1.0) != 1.0:
            raise ValueError(f"p (={p}) is too large: p - 1 is not exact in floats")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "theta", theta)

    @property
    def eps_max(self):
        return self.p - 1.0


def _support(abs_vals, weights):
    """(|f|, weights) on the atoms where |f| > 0, in atom order; every atom when f is 0."""
    nonzero = abs_vals != 0.0
    if nonzero.all() or not nonzero.any():
        return abs_vals, weights
    return abs_vals[nonzero], weights[nonzero]


def _extent(abs_vals, weights):
    """(max a, log2 of it, log2 of the total weight, the total weight) for ``_weighted_r_norm``.

    Callers read it once per input and pass it to every r-norm of that input.
    """
    top = float(np.max(abs_vals))
    log2_top = math.log2(top) if top > 0.0 else -math.inf
    mass = float(np.sum(weights))
    return top, log2_top, math.log2(mass), mass


def _weighted_r_norm(abs_vals, weights, r, extent):
    """(sum_i w_i a_i^r)^(1/r) for a fixed finite exponent r >= 1.

    ``extent`` is ``_extent(abs_vals, weights)``.
    When the plain sum leaves the normal float range (it overflows, or
    underflows while some a_i is nonzero), the sum is taken again over
    a / 2^k with max a in [2^k, 2^(k+1)). Dividing by a power of two is
    exact, and homogeneity gives 2^k times the rescaled norm. Every sum
    that stays in range keeps its bits. For a huge r, (max a / 2^k)^r in
    [1, 2^r) may overflow still (r above about 7 * 10^4 when max a is not
    a power of two); then the sum is taken a third time, over a / max a,
    whose largest term is exactly 1. Each quotient rounds by at most u, so
    each term moves by a factor within (1 +- u)^r and the norm by one
    within (1 +- u). When the rescaled sum is still below the normal range
    (so are the weights, in total below 1), it is taken once more over the
    weights lifted by 2^shift, which puts their total in [1, 2); the lift
    is exact, and 2^(-shift/r) undoes it, its integer part through ldexp.

    The plain pass is skipped only when it must fail: when top^r
    overflows (r * log2(top) >= 1025, a binade past 2^1024), or when the
    sum, at most (total weight) * top^r, is below 2^-1024 (two binades
    under the smallest normal). Every other input takes the plain pass
    first, so no value changes; the skip spares the slow libm path of
    powers that leave float range.
    """
    top, log2_top, log2_mass, _ = extent
    r_log2_top = r * log2_top
    if r_log2_top < 1025.0 and log2_mass + r_log2_top >= -1024.0:
        s = float(np.dot(weights, abs_vals ** r))
        if _TINY <= s < math.inf:
            return s ** (1.0 / r)
    if top == 0.0:
        return 0.0
    scale = math.ldexp(1.0, math.frexp(top)[1] - 1)
    s = float(np.dot(weights, (abs_vals / scale) ** r))
    if s == math.inf:
        # (top / 2^k)^r may still overflow when r is huge: divide by top
        # itself, so the largest term is exactly 1 and the sum at most the
        # total weight
        scale = top
        s = float(np.dot(weights, (abs_vals / top) ** r))
    if s < _TINY and extent[3] < 1.0:
        shift = 1 - math.frexp(extent[3])[1]
        s = float(np.dot(np.ldexp(weights, shift), (abs_vals / scale) ** r))
        whole, part = divmod(shift, r)
        mantissa, exponent = math.frexp(scale)
        return math.ldexp(mantissa * s ** (1.0 / r) * 2.0 ** (-part / r), exponent - int(whole))
    return scale * s ** (1.0 / r)


def lp_norm(f, r):
    """Weighted Lp norm of a sampled function.

    ``r`` may be any finite exponent >= 1 or ``math.inf`` for the sup norm;
    anything below 1 is rejected because it no longer gives a norm.
    """
    abs_vals, weights = _support(f.abs_values(), f.space.weights)
    if r == math.inf:
        return float(np.max(abs_vals))
    r = float(r)
    if not math.isfinite(r) or r < 1.0:
        raise ValueError(f"r (={r}) must be >= 1 (math.inf for the sup norm)")
    # powers that overflow are rescaled inside the kernel
    with np.errstate(over="ignore"):
        return _weighted_r_norm(abs_vals, weights, r, _extent(abs_vals, weights))


def grand_factor(eps, exp):
    """The epsilon weight eps^(theta/(p-eps)) applied to the L^(p-eps) norm."""
    eps = float(eps)
    if not 0.0 < eps <= exp.eps_max:
        raise ValueError(
            f"eps (={eps}) must lie in (0, {exp.eps_max}] for p = {exp.p}")
    return eps ** (exp.theta / (exp.p - eps))


@dataclass(frozen=True, eq=False)
class EpsilonGrid:
    """Strictly increasing evaluation points for the epsilon supremum.

    The supremum is taken over these points, a golden-section polish
    around the best two of them, and the eps -> 0 boundary value (the
    epsilon range is open at zero). ``relative_tolerance`` is the bracket
    width, relative to its upper end, at which the polish stops.
    """

    eps_values: np.ndarray
    relative_tolerance: float = 1e-9

    def __post_init__(self):
        eps = np.array(self.eps_values, dtype=float, copy=True)
        if eps.ndim != 1 or eps.size == 0:
            raise ValueError("eps_values must form a non-empty 1-d sequence")
        if not np.all(np.isfinite(eps)) or eps[0] <= 0.0:
            raise ValueError("every grid eps must be finite and > 0")
        if np.any(np.diff(eps) <= 0.0):
            raise ValueError("eps_values must be strictly increasing")
        eps.setflags(write=False)
        object.__setattr__(self, "eps_values", eps)
        if not self.relative_tolerance > 0.0:
            raise ValueError("relative_tolerance must be > 0")

    @property
    def eps_min(self):
        return float(self.eps_values[0])

    @property
    def eps_max(self):
        return float(self.eps_values[-1])


def make_epsilon_grid(exp, points=64, min_eps=None, tol=1e-9):
    """Geometric epsilon grid from ``min_eps`` up to p - 1 inclusive.

    The default lower end sits at 1e-6 * (p - 1), six decades below the
    top; any supremum taken over the grid is later refined near its best
    points, so a coarse geometric ladder is enough here.
    """
    if points < 2:
        raise ValueError(f"points (={points}) must be >= 2")
    hi = exp.eps_max
    if min_eps is None:
        min_eps = 1e-6 * hi
    min_eps = float(min_eps)
    if not 0.0 < min_eps < hi:
        raise ValueError(f"min_eps (={min_eps}) must lie in (0, {hi})")
    eps = np.geomspace(min_eps, hi, points)
    eps[0] = min_eps
    eps[-1] = hi
    return EpsilonGrid(eps, tol)
