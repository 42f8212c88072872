"""Inequality chains bounding norms and projection defects under corridors.

Every operation returns a :class:`BoundChain`: an ordered, labeled list of
values that must be nondecreasing (left to right) for the inequality to
hold. Chains are checked at a single tolerance policy, relative 1e-9 against
the largest magnitude in the chain with an absolute floor of 1e-12.

Conditional bounds verify admissibility first and raise
:class:`HypothesisFailed` otherwise; evaluating them on inadmissible inputs
is a caller bug. Each chain keeps the hypothesis reports it was checked
under, and is verified when they all hold.

The corridor width factor M implemented by :func:`m_factor` uses the
difference form (|hi| - |lo|)^2 in its numerator; this is the form for which
the quadratic norm bound and the projection-defect bound are equivalent, and
the identity (1/4) M^2 + 1 == (1/4) sum (|hi|+|lo|)^2 / re_sum pins it down.

Each chain's values come from one rank-polymorphic kernel (the ``_*_values``
functions), which reads its arguments from a :class:`Slot` (a vector with
its family and corridor) or a :class:`Pair` of slots, over any leading batch
shape. The public functions validate their inputs, check the hypothesis, run
the kernel on a batch of one and wrap the result in a :class:`BoundChain`;
fuzz campaigns build the same slots over a chunk of bundles and run the same
kernels, which :mod:`orthobound.catalog` names for each selector. For the
norm, counterpart and Grüss chains the step after the hypothesis check (the
corridor and report rules, the labels, the kernel) is one ``_*_chain``
helper, which an integral instance also calls on the slots and reports it
keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .admissibility import (
    DEFAULT_HYPOTHESIS_TOL,
    Corridors,
    HypothesisReport,
    ScalarCorridor,
    check_hypothesis,
)
from .errors import (
    BadExponent,
    BadLambda,
    FloatRangeExceeded,
    HypothesisFailed,
    NonpositiveReSum,
    ZeroVector,
)
from .family import OrthonormalFamily, _coefficients, validate_family
from .space import Vector, _inner, abs2, inner, norm_sq, tree_sum

# Single tolerance policy for every chain assertion.
CHAIN_REL_TOL = 1e-9
CHAIN_ABS_TOL = 1e-12

# The tolerance Corollary 2.5's one-member family {y/||y||} is validated at.
UNIT_TOLERANCE = 1e-12


def _chain_slacks(values: np.ndarray) -> np.ndarray:
    """Consecutive differences of chain values (..., length)."""
    return values[..., 1:] - values[..., :-1]


def _chain_tolerance(values: np.ndarray) -> np.ndarray:
    """The tolerance policy for each chain (..., length)."""
    return np.maximum(CHAIN_ABS_TOL, CHAIN_REL_TOL * np.abs(values).max(axis=-1))


def _chain_holds(values: np.ndarray) -> np.ndarray:
    """Whether each chain (..., length) holds at the tolerance policy."""
    tol = _chain_tolerance(values)
    slacks = _chain_slacks(values)
    return np.all(slacks >= -tol[..., None], axis=-1)


@dataclass(frozen=True)
class BoundChain:
    """Ordered labeled inequality chain; holds iff values are nondecreasing.
    ``reports`` are the hypothesis reports it was evaluated under, in order."""

    labels: tuple[str, ...]
    values: tuple[float, ...]
    reports: tuple[HypothesisReport, ...] = ()

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        values = tuple(float(v) for v in self.values)
        if len(labels) != len(values) or len(values) < 2:
            raise ValueError("chain needs equally many labels and values, at least two")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    @property
    def tolerance(self) -> float:
        return float(_chain_tolerance(np.array(self.values)))

    @property
    def slacks(self) -> tuple[float, ...]:
        return tuple(float(s) for s in _chain_slacks(np.array(self.values)))

    @property
    def all_hold(self) -> bool:
        return bool(_chain_holds(np.array(self.values)))

    @property
    def verified(self) -> bool:
        """Whether every hypothesis the chain was evaluated under holds."""
        return all(r.holds for r in self.reports)

    @property
    def min_slack(self) -> float:
        return min(self.slacks)


@dataclass(frozen=True)
class MFactor:
    """Aggregate corridor width factor M with its ingredients."""

    value: float
    numerator_terms: tuple[float, ...]
    denominator: float


class Slot:
    """A vector with the family and the corridor it is checked under, and its
    sign-form value, over any leading batch shape: coordinates (..., dim),
    family rows (..., count, dim), a :class:`ScalarCorridor` or
    :class:`Corridors`. The kernels read their arguments from slots, and each
    argument is computed once however many chains read it."""

    def __init__(self, coords, matrix, corridor=None, sign=None, a=None):
        self.coords = coords
        self.matrix = matrix
        self.corridor = corridor
        self.sign = sign
        if a is not None:
            self.a = a  # computed by a public call, which checks the dimensions

    @cached_property
    def a(self) -> np.ndarray:
        """The coefficients <x, e_i>."""
        return _coefficients(self.coords, self.matrix)

    @cached_property
    def nsq(self) -> np.ndarray:
        """||x||^2."""
        return tree_sum(abs2(self.coords))

    @cached_property
    def s(self) -> np.ndarray:
        """sum_i |<x, e_i>|^2."""
        return tree_sum(abs2(self.a))

    @cached_property
    def m(self) -> np.ndarray:
        """The corridor width factor M."""
        return _m_factor(self.corridor)[0]

    @property
    def defect(self) -> np.ndarray:
        """The projection defect ||x||^2 - sum_i |<x, e_i>|^2."""
        return self.nsq - self.s


class Pair:
    """Two slots over one family and their inner product <x, y>; ``z`` is
    Theorem 4.1's combination lam*x + (1-lam)*y where there is one."""

    def __init__(self, x: Slot, y: Slot, p=None, z: Slot | None = None):
        self.x = x
        self.y = y
        self.z = z
        if p is not None:
            self.p = p  # a public call's inner(x, y), exactly real when x is y

    @cached_property
    def p(self) -> np.ndarray:
        return _inner(self.x.coords, self.y.coords)

    @cached_property
    def defect(self) -> np.ndarray:
        """<x, y> - sum_i <x, e_i><e_i, y>."""
        return self.p - tree_sum(np.multiply(self.x.a, np.conj(self.y.a)))


def _slot(
    x: Vector, fam: OrthonormalFamily, corridor=None, report: HypothesisReport | None = None
) -> Slot:
    """The batch of one of a public call."""
    sign = None if report is None else report.cond_i_value
    return Slot(*fam._operands(x), corridor, sign, fam.coefficients(x))


def _pair(x: Vector, y: Vector, fam: OrthonormalFamily, cx=None, cy=None, reports=(None, None)):
    """The batch of one of a public call on a pair."""
    p = inner(x, y)
    return Pair(_slot(x, fam, cx, reports[0]), _slot(y, fam, cy, reports[1]), p)


def _positive(*corridors) -> None:
    """Raise :class:`NonpositiveReSum` for the first corridor whose re_sum is
    not positive."""
    for c in corridors:
        if not c.re_sum > 0.0:
            raise NonpositiveReSum(float(c.re_sum))


def _admit(reports: tuple, which=("x", "y")) -> None:
    """Raise :class:`HypothesisFailed` for the first report that does not
    hold, named by ``which``."""
    for name, report in zip(which, reports):
        if not report.holds:
            raise HypothesisFailed(name, report)


def _require(
    x: Vector,
    fam: OrthonormalFamily,
    corridor: ScalarCorridor,
    tol: float,
    which: str,
) -> HypothesisReport:
    """Check the hypothesis, then admit its report."""
    report = check_hypothesis(x, fam, corridor, tol)
    _admit((report,), (which,))
    return report


def _require_pair(x, y, fam, cx, cy, tol) -> tuple[Pair, tuple[HypothesisReport, ...]]:
    """Check the hypotheses of x, then of y; the pair and the two reports."""
    reports = (_require(x, fam, cx, tol, "x"), _require(y, fam, cy, tol, "y"))
    return _pair(x, y, fam, cx, cy, reports), reports


def _float_pow(base, exponent: float) -> np.ndarray:
    """Elementwise Python float ``**`` (the C library ``pow``), which
    ``np.power`` does not reproduce bit for bit."""
    b = np.asarray(base, dtype=np.float64)
    return np.array([v**exponent for v in b.ravel().tolist()]).reshape(b.shape)


def bessel_defect(x: Vector, fam: OrthonormalFamily) -> float:
    """||x||^2 - sum_i |<x, e_i>|^2; nonnegative for any x, no corridor needed."""
    return float(_slot(x, fam).defect)


def gruss_defect(x: Vector, y: Vector, fam: OrthonormalFamily) -> complex:
    """<x, y> - sum_i <x, e_i><e_i, y>, the truncated-expansion defect."""
    return complex(_pair(x, y, fam).defect)


def m_factor(corridor: ScalarCorridor) -> MFactor:
    """Corridor width factor M = sqrt(sum_i t_i / re_sum) with

    t_i = (|hi_i| - |lo_i|)^2 + 4 (|hi_i * conj(lo_i)| - Re(hi_i * conj(lo_i))).

    Requires re_sum > 0. For a real corridor 0 < m <= M this reduces to
    (M - m) / sqrt(m M).
    """
    _positive(corridor)
    value, terms = _m_factor(corridor)
    return MFactor(float(value), tuple(float(t) for t in terms), corridor.re_sum)


def _m_factor(c) -> tuple[np.ndarray, np.ndarray]:
    """Kernel of :func:`m_factor`: the value M and its numerator terms."""
    hi_abs = np.abs(c.hi)
    lo_abs = np.abs(c.lo)
    cross = np.multiply(c.hi, np.conj(c.lo))
    # |hi||lo| - Re(hi conj(lo)) is nonnegative; clamp away rounding dust.
    gap = np.maximum(hi_abs * lo_abs - cross.real, 0.0)
    terms = (hi_abs - lo_abs) ** 2 + 4.0 * gap
    return np.sqrt(tree_sum(terms) / c.re_sum), terms


def norm_bound_linear(
    x: Vector,
    fam: OrthonormalFamily,
    corridor: ScalarCorridor,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
) -> BoundChain:
    """||x|| <= (1/2) sum_i Re[hi_i conj(a_i) + conj(lo_i) a_i] / sqrt(re_sum),

    where a_i = <x, e_i>.
    """
    report = check_hypothesis(x, fam, corridor, tol)
    return _linear_chain(_slot(x, fam, corridor), report)


def _linear_chain(x: Slot, report: HypothesisReport) -> BoundChain:
    """The chain of :func:`norm_bound_linear` from the slot of x and its
    report: raises HypothesisFailed, then NonpositiveReSum."""
    _admit((report,))
    _positive(x.corridor)
    return BoundChain(("||x||", "corridor linear bound"), _linear_values(x), (report,))


def _linear_values(x: Slot) -> tuple:
    c = x.corridor
    numerator = tree_sum(
        (np.multiply(c.hi, np.conj(x.a)) + np.multiply(np.conj(c.lo), x.a)).real
    )
    return np.sqrt(x.nsq), 0.5 * numerator / np.sqrt(c.re_sum)


_SPLIT_LABELS = {
    "max_sum": "corridor bound (max widths * sum coeffs)",
    "sum_max": "corridor bound (sum widths * max coeff)",
}


def _check_exponent(p: float | None) -> None:
    if p is None or not (p > 1.0) or math.isinf(p):
        raise BadExponent(f"holder variant needs finite p > 1, got {p}")


def norm_bound_quadratic(
    x: Vector,
    fam: OrthonormalFamily,
    corridor: ScalarCorridor,
    variant: str = "cbs",
    p: float | None = None,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
) -> BoundChain:
    """Reverse Bessel norm bounds.

    variant "cbs" bounds ||x||^2 by
    (1/4) sum (|hi|+|lo|)^2 / re_sum * sum |a_i|^2; the "max_sum",
    "holder" (with exponent p > 1) and "sum_max" variants bound ||x||
    by (1/2) / sqrt(re_sum) times the corresponding split of
    sum (|hi_i|+|lo_i|) |a_i|. Labels state which level is used.
    """
    report = check_hypothesis(x, fam, corridor, tol)
    return _quadratic_chain(_slot(x, fam, corridor), report, variant, p)


def _quadratic_chain(
    x: Slot, report: HypothesisReport, variant: str = "cbs", p=None
) -> BoundChain:
    """The chain of :func:`norm_bound_quadratic` from the slot of x and its
    report: raises HypothesisFailed, then NonpositiveReSum, then the
    variant's errors."""
    _admit((report,))
    _positive(x.corridor)
    if variant == "cbs":
        labels = ("||x||^2", "corridor quadratic bound (cbs)")
    elif variant == "holder":
        _check_exponent(p)
        labels = ("||x||", f"corridor bound (holder p={p:g})")
    elif variant in _SPLIT_LABELS:
        labels = ("||x||", _SPLIT_LABELS[variant])
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return BoundChain(labels, _quadratic_values(x, variant, p), (report,))


def _quadratic_values(x: Slot, variant: str = "cbs", p: float | None = None) -> tuple:
    c = x.corridor
    widths = np.abs(c.hi) + np.abs(c.lo)
    if variant == "cbs":
        return x.nsq, 0.25 * tree_sum(widths**2) / c.re_sum * x.s
    a_abs = np.abs(x.a)
    if variant == "max_sum":
        split = widths.max(axis=-1) * tree_sum(a_abs)
    elif variant == "holder":
        q = p / (p - 1.0)
        split = _float_pow(tree_sum(widths**p), 1.0 / p) * _float_pow(
            tree_sum(a_abs**q), 1.0 / q
        )
    else:  # "sum_max"
        split = a_abs.max(axis=-1) * tree_sum(widths)
    return np.sqrt(x.nsq), 0.5 * split / np.sqrt(c.re_sum)


def bessel_counterpart(
    x: Vector,
    fam: OrthonormalFamily,
    corridor: ScalarCorridor,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
) -> BoundChain:
    """0 <= ||x||^2 - sum |a_i|^2 <= (1/4) M^2 sum |a_i|^2.

    For a real corridor with 0 <= m_i <= M_i the width factor reduces to
    sum (M_i - m_i)^2 / sum M_i m_i.
    """
    report = check_hypothesis(x, fam, corridor, tol)
    return _counterpart_chain(_slot(x, fam, corridor), report)


def _counterpart_chain(x: Slot, report: HypothesisReport) -> BoundChain:
    """The chain of :func:`bessel_counterpart` from the slot of x and its
    report: raises HypothesisFailed, then NonpositiveReSum."""
    _admit((report,))
    _positive(x.corridor)
    labels = ("0", "projection defect", "corridor defect bound")
    return BoundChain(labels, _counterpart_values(x), (report,))


def _counterpart_values(x: Slot) -> tuple:
    return 0.0, x.defect, 0.25 * (x.m * x.m) * x.s


@dataclass(frozen=True)
class SchwarzCounterparts:
    """The four reverse-Schwarz chains for a pair (x, y) under (delta, Delta)."""

    norm_product: BoundChain
    norm_product_gap: BoundChain
    norm_product_sq: BoundChain
    norm_product_sq_gap: BoundChain
    report: HypothesisReport

    def chains(self) -> dict[str, BoundChain]:
        return {name: getattr(self, name) for name in _SCHWARZ_LABELS}


_SCHWARZ_LABELS = {
    "norm_product": ("||x|| ||y||", "midrange bound", "modulus bound"),
    "norm_product_gap": ("0", "||x|| ||y|| - |<x,y>|", "corridor gap bound"),
    "norm_product_sq": ("||x||^2 ||y||^2", "squared corridor bound"),
    "norm_product_sq_gap": ("0", "||x||^2 ||y||^2 - |<x,y>|^2", "squared corridor gap bound"),
}


def schwarz_counterparts(
    x: Vector,
    y: Vector,
    delta: complex,
    Delta: complex,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
) -> SchwarzCounterparts:
    """Reverse Schwarz bounds for ||x|| ||y|| against |<x, y>|.

    Requires the admissibility of x for the single-member family {y/||y||}
    with corridor (delta ||y||, Delta ||y||), then Re(Delta conj(delta)) > 0.
    Square roots of the corridor product use sqrt(Re(Delta conj(delta))) in
    denominators and sqrt(|Delta conj(delta)|) inside the gap numerator; the
    two coincide when Delta conj(delta) is real positive.
    """
    delta = complex(delta)
    Delta = complex(Delta)
    with np.errstate(over="ignore"):
        ny2 = norm_sq(y)
    if ny2 == 0.0:
        raise ZeroVector("y must be nonzero")
    if not math.isfinite(ny2):
        raise FloatRangeExceeded(f"||y||^2 overflows the float range: {ny2!r}")
    ends = Corridors.build([delta], [Delta])
    failed, error = ends.nonfinite(("delta", "Delta"))
    if failed:
        raise error()
    ys = Slot(y.coords, None, ends)
    unit, lo, hi = _schwarz_frame(ys)
    fam = validate_family([Vector(unit[0], real_mode=y.real_mode)], tolerance=UNIT_TOLERANCE)
    real_pair = (
        x.real_mode and y.real_mode and delta.imag == 0.0 and Delta.imag == 0.0
    )
    corridor = ScalarCorridor(lo, hi, real_mode=real_pair)
    report = _require(x, fam, corridor, tol, "x")
    _positive(ends)
    values = _schwarz_values(Pair(_slot(x, fam, corridor), ys, inner(x, y)))
    chains = (BoundChain(_SCHWARZ_LABELS[name], v, (report,)) for name, v in values.items())
    return SchwarzCounterparts(*chains, report)


def _schwarz_frame(y: Slot) -> tuple:
    """Corollary 2.5's family {y/||y||} and corridor (delta ||y||, Delta ||y||)
    from y and its corridor (delta, Delta): the member rows (..., 1, dim),
    then the two sides (..., 1)."""
    ny = np.sqrt(y.nsq)[..., None]
    return (y.coords / ny)[..., None, :], y.corridor.lo * ny, y.corridor.hi * ny


def _schwarz_values(pair: Pair) -> dict:
    """The four reverse-Schwarz chains by name, from x admissible for
    {y/||y||} and y with its corridor (delta, Delta)."""
    nsq_x, ny2, p = pair.x.nsq, pair.y.nsq, pair.p
    delta, Delta = pair.y.corridor.lo[..., 0], pair.y.corridor.hi[..., 0]
    re_dd = np.multiply(Delta, np.conj(delta)).real
    root_re = np.sqrt(re_dd)
    nx = np.sqrt(nsq_x)
    ny = np.sqrt(ny2)
    p_abs = np.abs(p)
    p_sq = p_abs * p_abs
    big = np.abs(Delta)
    small = np.abs(delta)
    abs_dd = big * small
    mid = 0.5 * (np.multiply(Delta, np.conj(p)) + np.multiply(np.conj(delta), p)).real / root_re
    width = big + small
    gap_factor = (
        np.square(np.sqrt(big) - np.sqrt(small)) + 2.0 * (np.sqrt(abs_dd) - root_re)
    ) / root_re
    sq_gap_factor = (np.square(big - small) + 4.0 * (abs_dd - re_dd)) / re_dd
    chains = (
        (nx * ny, mid, 0.5 * width * p_abs / root_re),
        (0.0, nx * ny - p_abs, 0.5 * gap_factor * p_abs),
        (nx * nx * ny2, 0.25 * (width * width) / re_dd * p_sq),
        (0.0, nx * nx * ny2 - p_sq, 0.25 * sq_gap_factor * p_sq),
    )
    return dict(zip(_SCHWARZ_LABELS, chains))


def gruss_refined_sqrt(
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    cx: ScalarCorridor,
    cy: ScalarCorridor,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
) -> BoundChain:
    """|defect| <= r_x r_y - sqrt(sign_x) sqrt(sign_y) <= r_x r_y,

    where sign_x, sign_y are the sign-form values of the two admissibility
    conditions and r_x, r_y the corridor radii.
    """
    pair, reports = _require_pair(x, y, fam, cx, cy, tol)
    labels = ("|defect|", "sign-form refined bound", "radius product")
    return BoundChain(labels, _refined_sqrt_values(pair), reports)


def _refined_sqrt_values(pair: Pair) -> tuple:
    x, y = pair.x, pair.y
    outer = x.corridor.radius * y.corridor.radius
    correction = np.sqrt(np.maximum(x.sign, 0.0)) * np.sqrt(np.maximum(y.sign, 0.0))
    return np.abs(pair.defect), outer - correction, outer


def gruss_refined_midpoint(
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    cx: ScalarCorridor,
    cy: ScalarCorridor,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
) -> BoundChain:
    """|defect| <= r_x r_y - sum_i |mid_x,i - a_i| |mid_y,i - b_i| <= r_x r_y."""
    pair, reports = _require_pair(x, y, fam, cx, cy, tol)
    labels = ("|defect|", "midpoint refined bound", "radius product")
    return BoundChain(labels, _refined_midpoint_values(pair), reports)


def _refined_midpoint_values(pair: Pair) -> tuple:
    cx, cy = pair.x.corridor, pair.y.corridor
    correction = tree_sum(np.abs(cx.midpoints - pair.x.a) * np.abs(cy.midpoints - pair.y.a))
    outer = cx.radius * cy.radius
    return np.abs(pair.defect), outer - correction, outer


def schwarz_step(x: Vector, y: Vector, fam: OrthonormalFamily) -> BoundChain:
    """|defect(x, y)|^2 <= defect(x, x) * defect(y, y), valid for any inputs."""
    labels = ("|defect|^2", "projection defect product")
    return BoundChain(labels, _schwarz_step_values(_pair(x, y, fam)))


def _schwarz_step_values(pair: Pair) -> tuple:
    d_abs = np.abs(pair.defect)
    return d_abs * d_abs, pair.x.defect * pair.y.defect


def gruss_bound(
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    cx: ScalarCorridor,
    cy: ScalarCorridor,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
) -> BoundChain:
    """0 <= |defect| <= (1/4) M(cx) M(cy) (sum |a_i|^2)^(1/2) (sum |b_i|^2)^(1/2)."""
    return _gruss_chain(*_require_pair(x, y, fam, cx, cy, tol))


def _gruss_chain(pair: Pair, reports: tuple) -> BoundChain:
    """The chain of :func:`gruss_bound` from the pair and the reports of x
    and y: raises HypothesisFailed for x, then for y, then NonpositiveReSum."""
    _admit(reports)
    _positive(pair.x.corridor, pair.y.corridor)
    return BoundChain(("0", "|defect|", "corridor width bound"), _gruss_values(pair), reports)


def _gruss_values(pair: Pair) -> tuple:
    x, y = pair.x, pair.y
    return 0.0, np.abs(pair.defect), 0.25 * x.m * y.m * np.sqrt(x.s) * np.sqrt(y.s)


def single_vector_ratio_chain(
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    cx: ScalarCorridor,
    cy: ScalarCorridor,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
) -> BoundChain:
    """|<x,y> / (<x,e><e,y>) - 1| <= (1/4) M(cx) M(cy) for a one-member family.

    Requires <x,e> conj(<y,e>) to be nonzero.
    """
    if fam.count != 1:
        raise ValueError("ratio form needs a single-member family")
    pair, reports = _require_pair(x, y, fam, cx, cy, tol)
    if not _ratio_defined(pair):
        raise ZeroVector("coefficients <x,e>, <y,e> must be nonzero")
    _positive(cx, cy)
    labels = ("|<x,y>/(<x,e><e,y>) - 1|", "corridor width bound")
    return BoundChain(labels, _ratio_values(pair), reports)


def _ratio_denominator(pair: Pair) -> np.ndarray:
    return np.multiply(pair.x.a[..., 0], np.conj(pair.y.a[..., 0]))


def _ratio_defined(pair: Pair) -> np.ndarray:
    """Where the ratio form is defined: a one-member family, and
    <x,e> conj(<y,e>) nonzero. The form is scale-free, so this is the only
    condition, at every scale."""
    return (pair.x.a.shape[-1] == 1) & (_ratio_denominator(pair) != 0.0)


def _ratio_values(pair: Pair) -> tuple:
    return np.abs(np.divide(pair.p, _ratio_denominator(pair)) - 1.0), 0.25 * pair.x.m * pair.y.m


def companion_bound(
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    corridor: ScalarCorridor,
    lam: float,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
) -> BoundChain:
    """Re(defect(x, y)) <= M^2 sum |<z, e_i>|^2 / (16 lam (1 - lam)),

    with z = lam*x + (1-lam)*y required to be admissible for the corridor.
    """
    if not 0.0 < lam < 1.0:
        raise BadLambda(f"lambda must lie strictly in (0, 1), got {lam}")
    z = Vector(_mix(x.coords, y.coords, lam), real_mode=x.real_mode and y.real_mode)
    report = _require(z, fam, corridor, tol, "lam*x + (1-lam)*y")
    _positive(corridor)
    pair = _pair(x, y, fam)
    pair.z = _slot(z, fam, corridor)
    return BoundChain(("Re(defect)", "companion bound"), _companion_values(pair, lam), (report,))


def _mix(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """The combination lam*x + (1-lam)*y whose admissibility Theorem 4.1 needs."""
    return lam * x + (1.0 - lam) * y


def _companion_values(pair: Pair, lam: float) -> tuple:
    z = pair.z
    return pair.defect.real, z.m * z.m * z.s / (16.0 * lam * (1.0 - lam))
