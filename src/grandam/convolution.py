"""Convolution on finite abelian groups and algebra diagnostics.

Probability normalization (Haar weight 1/order) models a compact group,
where the grand norm is submultiplicative: each L^(p-eps) level obeys the
convolution inequality, and for p >= 2 the eps = p - 1 endpoint carries
enough weight to close the supremum argument with constant one. Counting
normalization models a slab of the integers, where submultiplicativity
genuinely fails, with a witness ratio that grows like m^(1 - 1/p) along
widening indicator boxes.

Convolutions are evaluated by direct summation: row x of the matrix
g(x - y) is a window of a strided view over g laid out along the group's
factor axes, and each call copies 64 such rows at a time into one
matrix-vector product. Memory is O(64 * order + 2^k * order) for k
factor axes: one block of rows plus the copy of g doubled along each
of its k axes, which the view reads. On a cyclic group or a product of a few
factors that stays far below order^2; on a product of many factors of
two, such as Z_2^11, the doubled copy itself reaches order^2. A block
never has a single row: numpy sends a one-row product to a plain dot,
whose summation order differs from the matrix-vector kernel, so a lone
last row joins the block before it. Every output then keeps the bits of
the single full-matrix product taken with one BLAS thread. At the sizes
treated here (a few thousand atoms) this is exact, obviously correct,
and fast enough that no transform tricks are worth their roundoff.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (COUNTING, PROBABILITY, MeasureSpace, SampledFunction,
                   lp_norm)
from .grand import _norm_sup, _resolve_grid, grand_norm


@dataclass(frozen=True, eq=False)
class FiniteAbelianGroup:
    """Z_n1 x ... x Z_nk with uniform Haar weights.

    ``normalization`` selects the weight per element: 1/order makes the
    group a probability space (total Haar mass one, the compact model),
    while counting weights model a finite stretch of a discrete group.
    Order, Haar weight and compactness are read off ``space``, the group's
    measure space. The group keeps no tables: :func:`convolve` gathers the
    rows g(x - y) afresh on each call, one block of rows at a time.
    """

    factors: tuple
    normalization: str = PROBABILITY
    space: MeasureSpace = field(init=False, repr=False)

    def __post_init__(self):
        space = MeasureSpace.product(self.factors, self.normalization)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "factors", space.factors)

    @classmethod
    def cyclic(cls, n, normalization=PROBABILITY):
        return cls((n,), normalization)

    @property
    def order(self):
        return self.space.size

    @property
    def haar_weight(self):
        return self.space.uniform_weight()

    @property
    def is_probability(self):
        return self.space.is_probability

    def identity_element(self):
        """The delta at 0 scaled so its Haar integral is one."""
        vals = np.zeros(self.order)
        vals[0] = 1.0 / self.haar_weight
        return SampledFunction(self.space, vals)


# Rows of g(x - y) gathered per matrix-vector product. Heights of 8 to 128
# keep the kernel's bits; heights of 2 or 3 rows do not.
_BLOCK_ROWS = 64


def _row_blocks(n):
    """[start, end) row ranges of at most _BLOCK_ROWS + 1 rows, none of one row."""
    starts = list(range(0, n, _BLOCK_ROWS))
    if n - starts[-1] == 1 and len(starts) > 1:
        starts.pop()
    return zip(starts, starts[1:] + [n])


def convolve(f, g, group):
    """(f * g)(x) = sum_y f(y) g(x - y) haar_weight, by direct summation.

    Along each factor axis of length k, the doubled and reversed copy R
    of g satisfies R[a + b] = g(-1 - a - b), so the window at
    a = k - 1 - x holds g(x - b) at offset b; ``rows`` is that window
    view indexed by the digits of x. R is built by tiling the reversed g,
    which lays it out forward in memory, so every block copies forward.
    """
    if not (group.space.compatible_with(f.space) and group.space.compatible_with(g.space)):
        raise ValueError("both functions must live on the group's space")
    factors, n = group.factors, group.order
    flip = (slice(None, None, -1),) * len(factors)
    doubled = np.tile(g.values.reshape(factors)[flip], (2,) * len(factors))
    rows = sliding_window_view(doubled, factors)[tuple(slice(k - 1, None, -1) for k in factors)]
    x_digits = np.unravel_index(np.arange(n), factors)
    v = f.values * group.haar_weight
    out = np.empty(n, dtype=np.result_type(g.values, v))
    with np.errstate(over="ignore", invalid="ignore"):
        for s, e in _row_blocks(n):
            out[s:e] = rows[tuple(d[s:e] for d in x_digits)].reshape(e - s, n) @ v
    if not np.isfinite(out).all():
        raise ValueError("the convolution overflowed: some value of f * g is not finite")
    return SampledFunction(group.space, out)


@dataclass(frozen=True)
class PerEpsRow:
    """One level of the layerwise convolution inequality."""

    eps: float
    lhs: float
    rhs: float
    passed: bool

    def to_doc(self):
        return {"eps": self.eps, "lhs": self.lhs, "rhs": self.rhs,
                "passed": self.passed}


@dataclass(frozen=True)
class SubmultiplicativityReport:
    """Grand-norm convolution inequality on one group.

    ``ratio`` compares ||f*g|| against ||f|| ||g||; on probability groups
    with p >= 2 the supremum argument closes with constant one, and
    ``provable_bound`` records the constant (p-1)^(-theta) that the
    eps = p - 1 endpoint always certifies (above one only when p < 2).
    ``hypotheses_met`` is False on counting-normalized groups, where the
    compactness hypothesis fails; the numbers are still reported.
    """

    lhs: float
    rhs: float
    ratio: float
    threshold: float
    passed: bool
    provable_bound: float
    hypotheses_met: bool
    warning: str
    per_eps: tuple

    def to_doc(self):
        doc = {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "threshold": self.threshold,
            "passed": self.passed,
            "provable_bound": self.provable_bound,
            "hypotheses_met": self.hypotheses_met,
            "per_eps": [row.to_doc() for row in self.per_eps],
        }
        if self.warning is not None:
            doc["warning"] = self.warning
        return doc


def submultiplicativity_check(f, g, group, exp, grid=None, tol=1e-12):
    """Check ||f*g|| <= ||f|| ||g|| in the grand norm, layer by layer.

    The per-eps table holds the raw L^(p-eps) inequality (no epsilon
    weight), which is the inner step of the supremum argument and holds
    on any probability-normalized group. Its norms are the ones the three
    grand-norm scans evaluated at the grid points, the same floats that
    ``lp_norm(h, p - eps)`` returns.
    """
    grid = _resolve_grid(exp, grid)
    conv = convolve(f, g, group)
    (conv_sup, conv_norms), (f_sup, f_norms), (g_sup, g_norms) = (
        _norm_sup(h.abs_values(), h.space.weights, exp, grid) for h in (conv, f, g))
    lhs = conv_sup.sup_value
    rhs = f_sup.sup_value * g_sup.sup_value

    rows = []
    for eps, row_lhs, nf_r, ng_r in zip(grid.eps_values.tolist(), conv_norms,
                                        f_norms, g_norms):
        row_rhs = nf_r * ng_r
        rows.append(PerEpsRow(eps, row_lhs, row_rhs, row_lhs <= row_rhs * (1.0 + tol)))

    ratio = lhs / rhs if rhs != 0.0 else (math.inf if lhs > 0.0 else 0.0)
    threshold = 1.0 + tol
    hypotheses = group.is_probability
    warning = None if hypotheses else "hypotheses-not-met"
    return SubmultiplicativityReport(
        lhs=lhs, rhs=rhs, ratio=ratio, threshold=threshold,
        passed=ratio <= threshold,
        provable_bound=exp.eps_max ** (-exp.theta),
        hypotheses_met=hypotheses, warning=warning, per_eps=tuple(rows))


@dataclass(frozen=True)
class AmalgamAlgebraReport:
    """Amalgam-norm convolution inequality with a per-instance constant.

    ``constant_c`` chains the grand-norm ratio through the measured
    equivalences between amalgam and grand norms on the group, so the
    claim here is ratio <= constant_c, not constant one. The decoupled
    product ||f||_(p-grand) * ||g||_(q-grand) is reported alongside so
    the gap between the amalgam inequality and that shortcut is visible.
    """

    lhs: float
    rhs: float
    ratio: float
    constant_c: float
    passed: bool
    grand_ratio: float
    decoupled_bound: float
    lhs_over_decoupled: float
    components: dict
    hypotheses_met: bool
    warning: str

    def to_doc(self):
        doc = {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "constant_c": self.constant_c,
            "passed": self.passed,
            "grand_ratio": self.grand_ratio,
            "decoupled_bound": self.decoupled_bound,
            "lhs_over_decoupled": self.lhs_over_decoupled,
            "components": dict(self.components),
            "hypotheses_met": self.hypotheses_met,
        }
        if self.warning is not None:
            doc["warning"] = self.warning
        return doc


def amalgam_submultiplicativity_check(f, g, group, qwindow, local_exp, global_exp,
                                      local_grid=None, global_grid=None, slack=1e-9):
    """Check the convolution inequality in the windowed amalgam norm.

    The certified constant is

        phi_q * grand_ratio / (g_w * m_q)^2

    where phi_q = (q-1)^theta bounds the global epsilon weight, g_w is
    the global grand norm of a single-atom indicator, which is exactly
    sup (eta^theta w)^(1/(q-eta)), and m_q pinches the window-mass
    covering bound; all three are computed for this group, window and
    grid.
    """
    from .amalgam import amalgam_norm  # local import to avoid a cycle

    qwindow.require_nonempty()
    local_grid = _resolve_grid(local_exp, local_grid)
    global_grid = _resolve_grid(global_exp, global_grid)
    conv = convolve(f, g, group)

    lhs = amalgam_norm(conv, qwindow, local_exp, global_exp, local_grid, global_grid)
    wf = amalgam_norm(f, qwindow, local_exp, global_exp, local_grid, global_grid)
    wg = amalgam_norm(g, qwindow, local_exp, global_exp, local_grid, global_grid)
    rhs = wf * wg

    gf = grand_norm(f, local_exp, local_grid)
    gg = grand_norm(g, local_exp, local_grid)
    gc = grand_norm(conv, local_exp, local_grid)
    grand_ratio = gc / (gf * gg) if gf * gg != 0.0 else 0.0

    w_atom = group.space.uniform_weight()
    phi_q = global_exp.eps_max ** global_exp.theta
    g_w = grand_norm(SampledFunction.indicator(group.space, (0,)), global_exp, global_grid)
    mu_q = qwindow.mass
    m_q = min(mu_q, mu_q ** (1.0 / local_exp.p))
    constant_c = phi_q * grand_ratio / (g_w * m_q) ** 2

    decoupled = gf * grand_norm(g, global_exp, global_grid)
    ratio = lhs / rhs if rhs != 0.0 else (math.inf if lhs > 0.0 else 0.0)
    passed = rhs == 0.0 or ratio <= constant_c * (1.0 + slack)
    hypotheses = group.is_probability
    return AmalgamAlgebraReport(
        lhs=lhs, rhs=rhs, ratio=ratio, constant_c=constant_c, passed=passed,
        grand_ratio=grand_ratio, decoupled_bound=decoupled,
        lhs_over_decoupled=(lhs / decoupled if decoupled != 0.0 else 0.0),
        components={"phi_q": phi_q, "g_w": g_w, "m_q": m_q,
                    "window_mass": mu_q, "atom_weight": w_atom},
        hypotheses_met=hypotheses,
        warning=None if hypotheses else "hypotheses-not-met")


@dataclass(frozen=True)
class WitnessReport:
    """Growth witness against submultiplicativity on counting models."""

    m: int
    p: float
    ratio_m: float
    ratio_2m: float

    @property
    def growing(self):
        return self.ratio_2m > self.ratio_m > 1.0

    def to_doc(self):
        return {"m": self.m, "p": self.p, "ratio_m": self.ratio_m,
                "ratio_2m": self.ratio_2m, "growing": self.growing}


def _box_ratio(m, p):
    """||chi_[0,m) * chi_[0,m)||_p / ||chi_[0,m)||_p^2 on a counting slab."""
    group = FiniteAbelianGroup.cyclic(2 * m, COUNTING)
    box = SampledFunction.indicator(group.space, range(m))
    conv = convolve(box, box, group)   # support [0, 2m-2]: no wraparound
    return lp_norm(conv, p) / lp_norm(box, p) ** 2


def noncompact_witness(m, p):
    """Widening-box witness: the ratio r(m) grows like m^(1 - 1/p).

    r(2) = sqrt(6)/2 at p = 2; any uniform convolution bound would force
    the ratios to stay bounded, so their growth rules out an algebra
    norm on the counting model.
    """
    m = int(m)
    if m < 2:
        raise ValueError(f"m (={m}) must be >= 2")
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise ValueError(f"p (={p}) must be finite and >= 1")
    return WitnessReport(m=m, p=p, ratio_m=_box_ratio(m, p),
                         ratio_2m=_box_ratio(2 * m, p))
