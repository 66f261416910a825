"""Wiener amalgam norms over finite models, and their discretizations.

A window Q picks out local behaviour: the control function
F(x) = ||f * chi_{Q+x}|| (a grand norm on the atoms of Q + x) is a
sampled function, and the amalgam norm is a second grand norm of F. A
bounded uniform partition of unity (BUPU) holds each psi_i as its values
on one window translate; the local norms of the pieces f*psi_i, each on
those atoms, form a sequence for the grand sequence norm. The equivalence
report compares the two routes with explicit two-sided constants derived
from window masses, overlap counts and covering numbers, so every ratio
it prints can be checked against a bound computed for that instance.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import CYCLIC, MeasureSpace, SampledFunction, _integers
from .grand import (_norm_sup, _resolve_grid, grand_norm, grand_sequence_norm)

_PARTITION_TOL = 1e-12   # absolute, on the sum-to-one and sup-bound conditions
_SLACK = 1e-9            # relative, on each equivalence ratio against its bounds


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
        mem = tuple(sorted(_integers(self.members, "window members").tolist()))
        if len(set(mem)) != len(mem):
            raise ValueError("window members must be distinct")
        if mem and (mem[0] < 0 or mem[-1] >= self.space.size):
            raise ValueError("window members must index atoms of the space")
        object.__setattr__(self, "members", mem)

    @property
    def mass(self):
        return float(np.sum(self.space.weights[list(self.members)]))

    @property
    def size(self):
        return len(self.members)

    def require_nonempty(self):
        if not self.members:
            raise ValueError("window must contain at least one atom")
        return self


def _translate_table(window, shifts):
    """Row i holds the atoms of window + shifts[i]; -1 marks clipped atoms."""
    return window.space.translate_indices(np.reshape(window.members, (1, -1)),
                                          np.reshape(shifts, (-1, 1)))


def _row_atoms(table):
    """The unclipped atoms of each row of a translate table, in ascending order."""
    for row in np.sort(table, axis=1):
        yield row[row >= 0]


def translate_window(window, shift):
    """Q + shift, clipped to the domain when the geometry is an interval."""
    return Window(window.space, next(_row_atoms(_translate_table(window, [shift]))).tolist())


def _local_norms(rows, exp, grid):
    """Grand norm of each (|values|, weights) row through the engine; 0.0 for an empty row."""
    return np.array([_norm_sup(vals, w, exp, grid)[0].sup_value if vals.size else 0.0
                     for vals, w in rows])


def control_function(f, window, exp, grid=None):
    """x -> grand norm of f on the atoms of Q + x, as a sampled function.

    Empty translates (interval clipping) contribute the value 0.
    """
    window.require_nonempty()
    if not window.space.compatible_with(f.space):
        raise ValueError("window and function must live on the same space")
    sp, abs_vals = f.space, f.abs_values()
    rows = ((abs_vals[atoms], sp.weights[atoms])
            for atoms in _row_atoms(_translate_table(window, sp.points)))
    return SampledFunction(sp, _local_norms(rows, exp, _resolve_grid(exp, grid)))


def amalgam_norm(f, window, local_exp, global_exp, local_grid=None, global_grid=None):
    """Amalgam norm: a global grand norm of the windowed control function."""
    control = control_function(f, window, local_exp, local_grid)
    return grand_norm(control, global_exp, _resolve_grid(global_exp, global_grid))


# ----------------------------------------------------------------------
# bounded uniform partitions of unity


@dataclass(frozen=True, eq=False)
class Bupu:
    """A bounded uniform partition of unity on the window's space, as |U| values per piece.

    ``values[i, j]`` is psi_i at atom ``supports[i, j]`` of window +
    centers[i], and psi_i is zero elsewhere. The pieces should have sup
    norms at most ``sup_bound`` and sum to one. ``ragged`` flags blocks
    that did not divide the space evenly. A broken partition can still be
    built; its ``validation`` says which conditions fail.
    """

    values: np.ndarray
    centers: tuple
    window: Window
    sup_bound: float
    ragged: bool = False

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(_integers(self.centers, "centers").tolist()))
        if not self.centers:
            raise ValueError("partition of unity cannot be empty")
        self.window.require_nonempty()
        vals, shape = np.asarray(self.values), (len(self.centers), self.window.size)
        if vals.dtype.kind not in "biuf" or vals.shape != shape or not np.isfinite(vals).all():
            raise ValueError(f"partition values must be real and finite, of shape {shape} "
                             f"(a row of window values per center), not {vals.dtype} {vals.shape}")
        vals = vals.astype(float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def space(self):
        return self.window.space

    def __len__(self):
        return len(self.centers)

    @cached_property
    def supports(self):
        """Read-only translate table: row i is window + centers[i], -1 where clipped."""
        table = _translate_table(self.window, self.centers)
        table.setflags(write=False)
        return table

    @cached_property
    def validation(self):
        """The four partition conditions, read off the table on first access and kept.

        Each atom sums its pieces in piece order. Condition (c) counts the
        nonzero values on clipped slots, outside the domain: 0 on a cyclic space.
        """
        table, vals = self.supports, self.values
        kept = table >= 0
        total = np.bincount(table[kept], weights=vals[kept], minlength=self.space.size)
        sum_dev = float(np.max(np.abs(total - 1.0)))
        sup_measured = float(np.max(np.abs(vals)))
        violations = int(np.count_nonzero(vals[~kept]))
        overlap = int(np.bincount(table[kept], minlength=1).max())
        return BupuValidation(
            sum_deviation=sum_dev,
            passed_a=sum_dev <= _PARTITION_TOL,
            sup_measured=sup_measured,
            sup_bound=self.sup_bound,
            passed_b=sup_measured <= self.sup_bound + _PARTITION_TOL,
            support_violations=violations,
            passed_c=violations == 0,
            max_overlap=overlap,
            passed_d=True,  # finite index families always have finite overlap
        )


def make_uniform_bupu(space, block_size):
    """Indicator BUPU from consecutive blocks of ``block_size`` atoms.

    Piece i is one on the atoms of its translate-table row that lie in the
    flat block c_i .. c_i + block_size - 1. A short last block is allowed
    but flagged via ``ragged``. The partition conditions are checked
    before returning; on a product group a block that straddles a factor
    leaves an atom that no piece covers, and that raises ``ValueError``.
    """
    n = space.size
    block_size = int(_integers(block_size, "block_size"))
    if not 1 <= block_size <= n:
        raise ValueError(f"block_size (={block_size}) must lie in 1..{n}")
    window = Window(space, range(block_size))
    centers = np.arange(0, n, block_size)[:, None]
    table = _translate_table(window, centers)
    bupu = Bupu((table >= centers) & (table < centers + block_size), centers.ravel(), window,
                sup_bound=1.0, ragged=n % block_size != 0)
    if not bupu.validation.all_passed:   # a block straddles a factor of a product group
        raise ValueError(f"blocks of {block_size} consecutive atoms are not translates of "
                         f"one window in the group with factors {space.factors}")
    return bupu


def make_triangular_bupu(space, spacing):
    """Overlapping hat-function BUPU with centers every ``spacing`` atoms.

    Adjacent hats interpolate linearly and sum to one; each support has
    width 2*spacing - 1, so neighbouring translates overlap (count 2).
    Every piece holds one row: member m of the hat window sits at offset
    m or m - n and takes (spacing - |offset|) / spacing. Only cyclic
    spaces of two or more whole periods of ``spacing`` qualify.
    """
    n = space.size
    spacing = int(_integers(spacing, "spacing"))
    if space.geometry != CYCLIC or len(space.factors) > 1:
        raise ValueError("triangular partitions need a plain cyclic space")
    if spacing < 2 or n % spacing != 0 or n < 2 * spacing:
        raise ValueError(f"spacing (={spacing}) must be >= 2, divide {n} "
                         f"and be at most {n // 2}")
    hat = Window(space, np.arange(1 - spacing, spacing) % n)
    offsets = (np.array(hat.members) + spacing - 1) % n - (spacing - 1)   # m, or m - n
    profile = (spacing - np.abs(offsets)) / spacing
    bupu = Bupu(np.tile(profile, (n // spacing, 1)), range(0, n, spacing), hat, sup_bound=1.0)
    assert bupu.validation.all_passed, "hat functions must satisfy the partition conditions"
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


def validate_bupu(bupu):
    """The partition's four conditions with measured quantities (``bupu.validation``)."""
    return bupu.validation


# ----------------------------------------------------------------------
# well-spread families and the translate-step norm


@dataclass(frozen=True)
class WellSpreadReport:
    """U-density of a translate family, which is well spread exactly when it is
    U-dense, and the count of the disjoint subfamilies it splits into (any finite one does)."""

    is_u_dense: bool
    separation_partition_count: int


def well_spread_check(family, window):
    """Check whether translates of the window along ``family`` cover and split.

    The partition count comes from greedy colouring of the translate
    intersection graph: translates of one colour are pairwise disjoint.
    Each translate takes the least colour that no earlier translate on
    one of its atoms holds.
    """
    window.require_nonempty()
    table = _translate_table(window, family)
    dense = bool(np.bincount(table[table >= 0], minlength=window.space.size).all())

    held = {}   # atom -> colours of the earlier translates on it
    count = 0
    for atoms in map(np.ndarray.tolist, _row_atoms(table)):
        used = set().union(*(held.get(a, ()) for a in atoms))
        c = 0
        while c in used:
            c += 1
        for a in atoms:
            held.setdefault(a, set()).add(c)
        count = max(count, c + 1)
    return WellSpreadReport(dense, count)


def _disjoint_full_translates(window, family):
    """Translated windows for a separated family; errors if they clip or meet.

    Returns the (len(family), window.size) table of translated atoms.
    """
    table = _translate_table(window, family)
    clipped = np.flatnonzero((table < 0).any(axis=1))
    if clipped.size:
        raise ValueError(f"translate by {family[clipped[0]]} clips the window; "
                         "family is not usable")
    if np.bincount(table.ravel(), minlength=1).max() > 1:
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

    For disjoint full translates the step function's r-norm is the r-norm
    of the coefficients with every index weighing mass(U), so the shared
    engine takes the window mass as every weight. With mass(U) exactly 1
    those are the counting weights, and every floating point operation
    matches ``grand_sequence_norm`` on the same grid, bit for bit.
    """
    if not lam.space.is_counting:
        raise ValueError("coefficients must live on a counting-measure index set")
    if len(family) != lam.space.size:
        raise ValueError("need exactly one translate per coefficient")
    window.require_nonempty()
    _disjoint_full_translates(window, family)
    return _norm_sup(lam.abs_values(), np.full(len(family), window.mass), exp,
                     _resolve_grid(exp, grid))[0].sup_value


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
    """i -> ||f psi_i|| on a counting index set, psi_i on its unclipped atoms, ascending."""
    if not f.space.compatible_with(bupu.space):
        raise ValueError("pointwise product needs functions on the same space")
    order = np.argsort(bupu.supports, axis=1)
    table, values = (np.take_along_axis(a, order, axis=1) for a in (bupu.supports, bupu.values))
    rows = ((np.abs(f.values[atoms[kept]] * psi[kept]), f.space.weights[atoms[kept]])
            for atoms, psi, kept in zip(table, values, table >= 0))
    seq = _local_norms(rows, local_exp, local_grid)
    return SampledFunction(MeasureSpace.counting(len(seq)), seq)


def discrete_amalgam_norm(f, bupu, local_exp, global_exp,
                          local_grid=None, global_grid=None):
    """Grand sequence norm of the per-piece local norms i -> ||f psi_i||."""
    if not bupu.validation.all_passed:
        raise ValueError("partition of unity fails its conditions; see validate_bupu")
    seq = _piece_norms(f, bupu, local_exp, _resolve_grid(local_exp, local_grid))
    return grand_sequence_norm(seq, global_exp, global_grid)


# ----------------------------------------------------------------------
# continuous vs discrete equivalence


def _greedy_cover_count(covers):
    """Rows a greedy sweep takes to cover every column of the boolean ``covers``.

    Each step takes the first row that covers the most columns left.
    """
    uncovered, count = np.ones(covers.shape[1], dtype=bool), 0
    while uncovered.any():
        gains = np.count_nonzero(covers & uncovered, axis=1)
        if not gains.any():
            raise ValueError("window translates cannot cover the target set")
        uncovered &= ~covers[np.argmax(gains)]
        count += 1
    return count


def _overlap_geometry(qwindow, bupu):
    """(kappa, mu_diff, cover_count) of the Q translates against disjoint partition supports.

    kappa is the most supports one Q + x meets; mu_diff the largest mass
    of the x whose Q + x meets one support, summed in ascending x. The
    first support is covered by the Q + x that meet it, in ascending x;
    the others would gain nothing, so the greedy sweep picks the same rows.
    """
    sp, supports = qwindow.space, bupu.supports
    piece = np.empty(sp.size, dtype=np.intp)    # cyclic: every atom in exactly one support
    piece[supports] = np.arange(len(supports))[:, None]
    q_table = _translate_table(qwindow, sp.points)
    ids = np.sort(piece[q_table], axis=1)       # row x: the piece of each atom of Q + x
    kappa = int(np.max(1 + np.count_nonzero(np.diff(ids, axis=1), axis=1)))

    keys = np.sort(ids * sp.size + sp.points[:, None], axis=None)
    pairs = keys[np.diff(keys, prepend=-1) != 0]           # (piece, x), by piece then x
    xs = np.split(pairs % sp.size, np.flatnonzero(np.diff(pairs // sp.size)) + 1)
    mu_diff = max(float(np.sum(sp.weights[x])) for x in xs)

    width = supports.shape[1]
    slot = np.full(sp.size, width)              # column of each atom of the first support
    slot[supports[0]] = np.arange(width)
    meeting = q_table[(ids == 0).any(axis=1)]
    covers = np.zeros((len(meeting), width + 1), dtype=bool)   # the last column is spare
    covers[np.arange(len(meeting))[:, None], slot[meeting]] = True
    return kappa, mu_diff, _greedy_cover_count(covers[:, :width])


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


def _within(ratio, low, high):
    """Whether a ratio (None when undefined) lies in [low, high] up to the slack."""
    return ratio is None or low * (1.0 - _SLACK) <= ratio <= high * (1.0 + _SLACK)


def equivalence_report(f, qwindow, bupu, local_exp, global_exp,
                       local_grid=None, global_grid=None):
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
    validation = bupu.validation
    if not validation.all_passed:
        raise ValueError("partition of unity fails its conditions; see validate_bupu")
    if validation.max_overlap > 1:
        raise ValueError("equivalence reports need a partition whose supports do not "
                         f"overlap; these overlap {validation.max_overlap} deep")

    local_grid = _resolve_grid(local_exp, local_grid)
    global_grid = _resolve_grid(global_exp, global_grid)

    # the three norms under comparison
    cont = amalgam_norm(f, qwindow, local_exp, global_exp, local_grid, global_grid)
    seq = _piece_norms(f, bupu, local_exp, local_grid)
    disc = grand_sequence_norm(seq, global_exp, global_grid)
    # validation proved the supports disjoint, and a cyclic space clips no translate
    step_vals = np.zeros(bupu.space.size)
    step_vals[bupu.supports] = seq.values[:, None]
    step = grand_norm(SampledFunction(bupu.space, step_vals), global_exp, global_grid)

    kappa, mu_diff, cover_count = _overlap_geometry(qwindow, bupu)

    q = global_exp.p
    if (q - 1.0) * math.log2(kappa) + math.log2(mu_diff) < 1023.0:
        smeared = (kappa ** (q - 1.0) * mu_diff) ** (1.0 / q)
    else:   # kappa^(q-1) leaves float range: take the q-th root factor by factor
        smeared = kappa ** ((q - 1.0) / q) * mu_diff ** (1.0 / q)
    c_up = max(smeared, mu_diff)
    inv_w = max(1.0 / w_atom, (1.0 / w_atom) ** (1.0 / q))
    c_low = 1.0 / (bupu.sup_bound * cover_count * inv_w)
    m_low, m_high = discrete_space_bounds(bupu.window, global_exp)

    ratios = {
        "continuous_over_discrete": _ratio(cont, disc),
        "step_over_discrete": _ratio(step, disc),
        "continuous_over_step": _ratio(cont, step),
    }
    within = (_within(ratios["continuous_over_discrete"], c_low, c_up)
              and _within(ratios["step_over_discrete"], m_low, m_high))

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
