"""Wiener amalgam norms over finite models, and their discretizations.

A window Q picks out local behaviour: the control function
F(x) = ||f * chi_{Q+x}|| (a grand norm per translate) is itself a sampled
function, and the amalgam norm is a second grand norm applied to F. On
the discrete side, a bounded uniform partition of unity (BUPU) chops f
into pieces f*psi_i whose local norms form a sequence, measured by the
grand sequence norm. The equivalence report compares the two routes and
carries explicit two-sided constants derived from window masses, overlap
counts and covering numbers, so every ratio it prints can be checked
against a bound computed for that exact instance.
"""

from dataclasses import dataclass

import numpy as np

from .core import (CYCLIC, MeasureSpace, SampledFunction, lp_norm)
from .grand import (_norm_sup, _resolve_grid, grand_norm, grand_sequence_norm)


@dataclass(frozen=True, eq=False)
class Window:
    """A subset of atoms acting as the local neighbourhood Q.

    Translates of a window may be empty after clipping at an interval
    boundary; operations that need actual content call
    :meth:`require_nonempty` up front.
    """

    space: MeasureSpace
    members: tuple

    def __post_init__(self):
        mem = tuple(sorted(int(m) for m in self.members))
        if len(set(mem)) != len(mem):
            raise ValueError("window members must be distinct")
        if mem and (mem[0] < 0 or mem[-1] >= self.space.size):
            raise ValueError("window members must index atoms of the space")
        object.__setattr__(self, "members", mem)

    @property
    def mass(self):
        if not self.members:
            return 0.0
        return float(np.sum(self.space.weights[list(self.members)]))

    @property
    def size(self):
        return len(self.members)

    def require_nonempty(self):
        if not self.members:
            raise ValueError("window must contain at least one atom")
        return self


def translate_window(window, shift):
    """Q + shift, clipped to the domain when the geometry is an interval."""
    return Window(window.space, window.space.translate_points(window.members, shift))


def control_function(f, window, exp, grid=None):
    """x -> grand norm of f restricted to Q + x, as a sampled function.

    Empty translates (interval clipping) contribute the value 0.
    """
    window.require_nonempty()
    grid = _resolve_grid(exp, grid)
    sp = f.space
    vals = np.empty(sp.size)
    for x in range(sp.size):
        wx = translate_window(window, x)
        vals[x] = grand_norm(f.restricted(wx.members), exp, grid)
    return SampledFunction(sp, vals)


def amalgam_norm(f, window, local_exp, global_exp, local_grid=None, global_grid=None):
    """Amalgam norm: a global grand norm of the windowed control function."""
    control = control_function(f, window, local_exp, local_grid)
    return grand_norm(control, global_exp, _resolve_grid(global_exp, global_grid))


# ----------------------------------------------------------------------
# bounded uniform partitions of unity


@dataclass(frozen=True, eq=False)
class Bupu:
    """A bounded uniform partition of unity on a measure space.

    ``functions[i]`` is psi_i, supported inside window + centers[i], with
    sup norms at most ``sup_bound`` and pointwise sum identically one.
    ``ragged`` flags construction from blocks that did not divide the
    space evenly.
    """

    functions: tuple
    centers: tuple
    window: Window
    sup_bound: float
    ragged: bool = False

    def __post_init__(self):
        if len(self.functions) != len(self.centers):
            raise ValueError("need exactly one center per partition member")
        if not self.functions:
            raise ValueError("partition of unity cannot be empty")
        sp = self.functions[0].space
        for psi in self.functions:
            if psi.space is not sp:
                raise ValueError("all partition members must share one space")
        self.window.require_nonempty()
        object.__setattr__(self, "centers", tuple(int(c) for c in self.centers))

    @property
    def space(self):
        return self.functions[0].space

    def __len__(self):
        return len(self.functions)


def make_uniform_bupu(space, block_size):
    """Indicator BUPU from consecutive blocks of ``block_size`` atoms.

    A last block shorter than the rest is allowed but flagged via
    ``ragged``; all four partition conditions hold by construction and
    are re-checked before returning.
    """
    n = space.size
    if not 1 <= block_size <= n:
        raise ValueError(f"block_size (={block_size}) must lie in 1..{n}")
    functions = []
    centers = []
    for start in range(0, n, block_size):
        block = range(start, min(start + block_size, n))
        functions.append(SampledFunction.indicator(space, block))
        centers.append(start)
    bupu = Bupu(
        functions=tuple(functions),
        centers=tuple(centers),
        window=Window(space, tuple(range(block_size))),
        sup_bound=1.0,
        ragged=(n % block_size != 0),
    )
    report = validate_bupu(bupu)
    assert report.all_passed, "uniform blocks must satisfy the partition conditions"
    return bupu


def make_triangular_bupu(space, spacing):
    """Overlapping hat-function BUPU with centers every ``spacing`` atoms.

    Adjacent hats interpolate linearly and sum to one; each support has
    width 2*spacing - 1, so neighbouring translates overlap (count 2).
    Only cyclic spaces whose size is a multiple of ``spacing`` qualify.
    """
    n = space.size
    if space.geometry != CYCLIC or len(space.factors) > 1:
        raise ValueError("triangular partitions need a plain cyclic space")
    if spacing < 2 or n % spacing != 0:
        raise ValueError(f"spacing (={spacing}) must be >= 2 and divide {n}")
    functions = []
    centers = []
    for c in range(0, n, spacing):
        vals = np.zeros(n)
        for d in range(-(spacing - 1), spacing):
            vals[(c + d) % n] = (spacing - abs(d)) / spacing
        functions.append(SampledFunction(space, vals))
        centers.append(c)
    rel = sorted({d % n for d in range(-(spacing - 1), spacing)})
    bupu = Bupu(
        functions=tuple(functions),
        centers=tuple(centers),
        window=Window(space, tuple(rel)),
        sup_bound=1.0,
        ragged=False,
    )
    report = validate_bupu(bupu)
    assert report.all_passed, "hat functions must satisfy the partition conditions"
    return bupu


@dataclass(frozen=True)
class BupuValidation:
    """Measured outcome of the four partition-of-unity conditions.

    (a) the pointwise sum is one, (b) sup norms respect the declared
    bound, (c) supports sit inside the translated window, (d) the
    translate family has finite overlap. Failures are reported, never
    raised, so broken partitions can be inspected.
    """

    sum_deviation: float
    passed_a: bool
    sup_measured: float
    sup_bound: float
    passed_b: bool
    support_violations: int
    passed_c: bool
    max_overlap: int
    passed_d: bool

    @property
    def all_passed(self):
        return self.passed_a and self.passed_b and self.passed_c and self.passed_d

    def to_doc(self):
        return {
            "a": {"passed": self.passed_a, "sum_deviation": self.sum_deviation},
            "b": {"passed": self.passed_b, "sup_measured": self.sup_measured,
                  "sup_bound": self.sup_bound},
            "c": {"passed": self.passed_c, "support_violations": self.support_violations},
            "d": {"passed": self.passed_d, "max_overlap": self.max_overlap},
        }


def _translate_table(space, members, shifts):
    """Row i holds the atoms of members + shifts[i]; -1 marks clipped atoms."""
    return space.translate_indices(np.reshape(members, (1, -1)), np.reshape(shifts, (-1, 1)))


def _translates(space, members, shifts):
    """Boolean incidence: entry [i, x] says whether atom x lies in members + shifts[i]."""
    table = _translate_table(space, members, shifts)
    inc = np.zeros((len(table), space.size + 1), dtype=bool)
    inc[np.arange(len(table))[:, None], table] = True   # clipped atoms land in the spare column
    return inc[:, :space.size]


def validate_bupu(bupu, tol=1e-12):
    """Check the four partition conditions and report measured quantities."""
    sp = bupu.space
    total = np.zeros(sp.size)
    for psi in bupu.functions:
        total = total + psi.values.real
    sum_dev = float(np.max(np.abs(total - 1.0)))

    sup_measured = max(lp_norm(psi, np.inf) for psi in bupu.functions)

    supports = _translates(sp, bupu.window.members, bupu.centers)
    nonzero = np.array([psi.values != 0.0 for psi in bupu.functions])
    violations = int(np.count_nonzero(nonzero & ~supports))
    overlap = int(supports.sum(axis=0).max())

    return BupuValidation(
        sum_deviation=sum_dev,
        passed_a=sum_dev <= tol,
        sup_measured=sup_measured,
        sup_bound=bupu.sup_bound,
        passed_b=sup_measured <= bupu.sup_bound + tol,
        support_violations=violations,
        passed_c=violations == 0,
        max_overlap=overlap,
        passed_d=True,  # finite index families always have finite overlap
    )


# ----------------------------------------------------------------------
# well-spread families and the translate-step norm


@dataclass(frozen=True)
class WellSpreadReport:
    """U-density plus relative separation of a translate family."""

    is_u_dense: bool
    is_relatively_separated: bool
    separation_partition_count: int

    @property
    def is_well_spread(self):
        return self.is_u_dense and self.is_relatively_separated

    def to_doc(self):
        return {
            "is_u_dense": self.is_u_dense,
            "is_relatively_separated": self.is_relatively_separated,
            "separation_partition_count": self.separation_partition_count,
        }


def well_spread_check(family, window, space):
    """Check whether translates of the window along ``family`` cover and split.

    The partition count comes from greedy colouring of the translate
    intersection graph: translates of one colour are pairwise disjoint.
    """
    window.require_nonempty()
    translates = _translates(space, window.members, family)
    dense = bool(translates.any(axis=0).all())
    meets = translates @ translates.T

    colors = []
    for i in range(len(translates)):
        used = {colors[j] for j in range(i) if meets[i, j]}
        c = 0
        while c in used:
            c += 1
        colors.append(c)
    count = (max(colors) + 1) if colors else 0
    return WellSpreadReport(dense, True, count)


def _disjoint_full_translates(window, family):
    """Translated windows for a separated family; errors if they clip or meet.

    Returns the (len(family), window.size) table of translated atoms.
    """
    table = _translate_table(window.space, window.members, family)
    clipped = np.flatnonzero((table < 0).any(axis=1))
    if clipped.size:
        raise ValueError(f"translate by {family[clipped[0]]} clips the window; "
                         "family is not usable")
    if np.unique(table).size != table.size:
        raise ValueError("window translates overlap; family is not separated")
    return table


def step_function_from_coefficients(coeffs, window, family):
    """sum_i coeffs[i] * chi_{window + family[i]} on the window's space.

    Translates must be disjoint and unclipped, so the step function takes
    each coefficient on exactly one full window copy.
    """
    window.require_nonempty()
    table = _disjoint_full_translates(window, family)
    if len(coeffs) != len(table):
        raise ValueError("need exactly one coefficient per translate")
    vals = np.zeros(window.space.size)
    vals[table] = np.asarray(coeffs, dtype=float)[:, None]
    return SampledFunction(window.space, vals)


def discrete_space_norm(lam, window, family, exp, grid=None):
    """Grand norm of the translate-step function sum_i |lam_i| chi_{U + x_i}.

    For disjoint full translates the step function's r-norm factors as
    mass(U)^(1/r) times the plain sequence r-norm, so the value is
    computed through the shared engine with the window mass as scale
    base. With mass(U) exactly 1 every floating point operation matches
    ``grand_sequence_norm`` on the same grid, bit for bit.
    """
    if not lam.space.is_counting:
        raise ValueError("coefficients must live on a counting-measure index set")
    if len(family) != lam.space.size:
        raise ValueError("need exactly one translate per coefficient")
    window.require_nonempty()
    _disjoint_full_translates(window, family)
    grid = _resolve_grid(exp, grid)
    return _norm_sup(lam.abs_values(), lam.space.weights, exp, grid,
                     scale_base=window.mass)[0].sup_value


def discrete_space_bounds(window, exp):
    """Two-sided pinch mass(U)^(1/(p-eps)) between step and sequence norms.

    The pinch factor is monotone in eps, so its extremes sit at the
    endpoints of the closed range [0, p-1]; the eps -> 0 end belongs to
    the candidate set whenever the grid admits the boundary value.
    """
    mu = window.require_nonempty().mass
    ends = (mu ** (1.0 / exp.p), mu ** (1.0 / (exp.p - exp.eps_max)))
    return min(ends), max(ends)


def _piece_norms(f, bupu, local_exp, local_grid):
    """The sequence i -> ||f psi_i|| on a counting index set."""
    seq = [grand_norm(f.pointwise_mul(psi), local_exp, local_grid)
           for psi in bupu.functions]
    return SampledFunction(MeasureSpace.counting(len(seq)), np.array(seq))


def discrete_amalgam_norm(f, bupu, local_exp, global_exp,
                          local_grid=None, global_grid=None):
    """Grand sequence norm of the per-piece local norms i -> ||f psi_i||."""
    report = validate_bupu(bupu)
    if not report.all_passed:
        raise ValueError("partition of unity fails its conditions; see validate_bupu")
    seq = _piece_norms(f, bupu, local_exp, _resolve_grid(local_exp, local_grid))
    return grand_sequence_norm(seq, global_exp, global_grid)


# ----------------------------------------------------------------------
# continuous vs discrete equivalence


def _greedy_cover_count(translates, target):
    """Number of rows of ``translates`` a greedy sweep needs to cover ``target``.

    Both are boolean incidence over the atoms; ties go to the first row.
    """
    uncovered = target.copy()
    count = 0
    while uncovered.any():
        gains = np.count_nonzero(translates & uncovered, axis=1)
        best = int(np.argmax(gains))
        if gains[best] == 0:
            raise ValueError("window translates cannot cover the target set")
        uncovered &= ~translates[best]
        count += 1
    return count


@dataclass(frozen=True)
class EquivalenceReport:
    """Continuous, discrete and step amalgam norms with per-instance bounds.

    ``bounds`` certifies two comparisons: the continuous/discrete ratio
    lies in [c_low, c_up], and the step/discrete ratio in [m_low, m_high].
    Both pairs are derived from this instance's window masses, overlap
    count and covering number, not quoted from anywhere.
    """

    continuous: float
    discrete: float
    step: float
    ratios: dict
    bounds: dict
    stats: dict
    bupu_validation: BupuValidation
    within_bounds: bool

    def to_doc(self):
        return {
            "norms": {"continuous": self.continuous, "discrete": self.discrete,
                      "step": self.step},
            "ratios": dict(self.ratios),
            "bounds": dict(self.bounds),
            "stats": dict(self.stats),
            "bupu_validation": self.bupu_validation.to_doc(),
            "within_bounds": self.within_bounds,
        }


def _ratio(a, b):
    if b == 0.0:
        return None
    return a / b


def equivalence_report(f, qwindow, bupu, local_exp, global_exp,
                       local_grid=None, global_grid=None, slack=1e-9):
    """Compare the windowed amalgam norm against its BUPU discretization.

    Requires a cyclic space with uniform weights and an unflagged,
    disjoint-block partition; those are the hypotheses under which the
    reported constants are honest:

    * c_up: each windowed restriction of f is dominated by the partition
      pieces it meets, which smears the piece norms over translates of
      the difference window U - Q (overlap count kappa, mass mu_diff);
      maximising kappa^((q-eta-1)/(q-eta)) * mu_diff^(1/(q-eta)) over the
      eta range gives the constant.
    * c_low: covering U by ``cover_count`` translates of Q bounds each
      piece norm by sampled control values, losing at most the sup bound,
      the covering number and one atom weight.
    * m_low/m_high: the exact mass pinch between the step-function norm
      and the plain sequence norm.
    """
    qwindow.require_nonempty()
    if bupu.ragged:
        raise ValueError("equivalence reports exclude ragged partitions")
    sp = f.space
    if sp.geometry != CYCLIC:
        raise ValueError("equivalence bounds are derived for cyclic spaces only")
    w_atom = sp.uniform_weight()
    validation = validate_bupu(bupu)
    if not validation.all_passed:
        raise ValueError("partition of unity fails its conditions; see validate_bupu")

    local_grid = _resolve_grid(local_exp, local_grid)
    global_grid = _resolve_grid(global_exp, global_grid)

    # the three norms under comparison
    cont = amalgam_norm(f, qwindow, local_exp, global_exp, local_grid, global_grid)
    seq = _piece_norms(f, bupu, local_exp, local_grid)
    disc = grand_sequence_norm(seq, global_exp, global_grid)
    step_fn = step_function_from_coefficients(seq.values, bupu.window, bupu.centers)
    step = grand_norm(step_fn, global_exp, global_grid)

    # instance geometry: overlap count and difference-window mass ...
    supports = _translates(bupu.space, bupu.window.members, bupu.centers)
    q_translates = _translates(sp, qwindow.members, sp.points)
    meets = q_translates @ supports.T        # [x, i]: Q + x meets U + y_i
    kappa = int(meets.sum(axis=1).max())
    mu_diff = max(float(np.sum(sp.weights[hits])) for hits in meets.T)

    # ... and the covering number of one support window by Q translates
    cover_count = _greedy_cover_count(q_translates, supports[0])

    q = global_exp.p
    c_up = max((kappa ** (q - 1.0) * mu_diff) ** (1.0 / q), mu_diff)
    inv_w = max(1.0 / w_atom, (1.0 / w_atom) ** (1.0 / q))
    c_low = 1.0 / (bupu.sup_bound * cover_count * inv_w)
    m_low, m_high = discrete_space_bounds(bupu.window, global_exp)

    ratios = {
        "continuous_over_discrete": _ratio(cont, disc),
        "step_over_discrete": _ratio(step, disc),
        "continuous_over_step": _ratio(cont, step),
    }
    within = True
    r = ratios["continuous_over_discrete"]
    if r is not None:
        within = within and c_low * (1.0 - slack) <= r <= c_up * (1.0 + slack)
    r = ratios["step_over_discrete"]
    if r is not None:
        within = within and m_low * (1.0 - slack) <= r <= m_high * (1.0 + slack)

    return EquivalenceReport(
        continuous=cont,
        discrete=disc,
        step=step,
        ratios=ratios,
        bounds={"c_low": c_low, "c_up": c_up, "m_low": m_low, "m_high": m_high},
        stats={"kappa": kappa, "mu_diff": mu_diff, "cover_count": cover_count,
               "sup_bound": bupu.sup_bound, "atom_weight": w_atom,
               "window_mass": bupu.window.mass, "q_window_mass": qwindow.mass},
        bupu_validation=validation,
        within_bounds=within,
    )
