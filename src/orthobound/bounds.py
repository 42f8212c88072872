"""Inequality chains bounding norms and projection defects under corridors.

Every operation returns a :class:`BoundChain`: an ordered, labeled list of
values that must be nondecreasing (left to right) for the inequality to
hold. Chains are checked at a single tolerance policy, relative 1e-9 against
the largest magnitude in the chain with an absolute floor of 1e-12.

Conditional bounds admit their instance first and raise
:class:`HypothesisFailed` otherwise; evaluating them on inadmissible inputs
is a caller bug. Each chain keeps the hypothesis reports it was admitted
under. A chain's values are finite: a chain, or a free form, that overflows
the float range raises :class:`FloatRangeExceeded`.

The corridor width factor M implemented by :func:`m_factor` uses the
difference form (|hi| - |lo|)^2 in its numerator; this is the form for which
the quadratic norm bound and the projection-defect bound are equivalent, and
the identity (1/4) M^2 + 1 == (1/4) sum (|hi|+|lo|)^2 / re_sum pins it down.

Each kind of instance (:data:`orthobound.catalog.KINDS`) has one builder,
a ``_*_kind`` function: over any leading batch shape, it applies the
owners' batched rules in order through the caller's ``check`` and returns a
:class:`Slot` or a :class:`Pair` of slots with its reports. A campaign
registers the rules on a chunk; the batch of one (:func:`_one`) raises the
first failure, in the lane of :func:`orthobound.family._operands`. An x
slot is checked by the rules whose batch of one is ``check_hypothesis``
(:func:`orthobound.admissibility._admit`). Corollary 2.5's builder runs in
two halves, the frame (:func:`_schwarz_y`, on the corridor (delta, Delta)
its caller built) and then x (:func:`_schwarz_x`), so that a campaign draws
x in the frame the builder checks. Each chain is a :class:`Step` (its
checks after the build, its labels and its rank-polymorphic ``_*_values``
kernel): a public function is its kind's batch of one followed by its step,
which the catalog and an integral instance (whose slots are the x kind's
batch of one) also run on the instances they hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from . import admissibility
from .admissibility import DEFAULT_HYPOTHESIS_TOL, HypothesisReport, ScalarCorridor
from .errors import (
    BadExponent,
    BadLambda,
    DimensionMismatch,
    FloatRangeExceeded,
    HypothesisFailed,
    NonpositiveReSum,
    ZeroVector,
)
from .family import OrthonormalFamily, _coefficients, _dims, _gram_check, _operands
from .space import Vector, _inner, _nonfinite, _quotient, _raise, _same_dims, abs2, tree_sum

# Single tolerance policy for every chain assertion.
CHAIN_REL_TOL = 1e-9
CHAIN_ABS_TOL = 1e-12

# The tolerance Corollary 2.5's one-member family {y/||y||} is validated at.
UNIT_TOLERANCE = 1e-12


def _chain_slacks(values: np.ndarray) -> np.ndarray:
    """Consecutive differences of chain values (..., length)."""
    return values[..., 1:] - values[..., :-1]


def _chain_tolerance(values: np.ndarray, starts=(0,)) -> np.ndarray:
    """The tolerance policy for each chain of ``values`` (..., links), whose
    last axis holds chains side by side: chain j is the segment of links
    from ``starts[j]`` to the next start, or to the end. Returns (..., chains)."""
    top = reduce(np.maximum, _by_chain(np.abs(values), starts, values.shape[-1]))
    return np.maximum(CHAIN_ABS_TOL, CHAIN_REL_TOL * top)


def _chain_holds(values: np.ndarray, starts=(0,)) -> np.ndarray:
    """Whether each chain of ``values`` (..., links), segmented by ``starts``
    as for :func:`_chain_tolerance`, holds at the tolerance policy: every
    slack within it is at least -tolerance. The slack between the last link
    of one chain and the first of the next is no slack of either and is
    ignored. Returns (..., chains)."""
    floor = -_chain_tolerance(values, starts)
    slacks = _by_chain(_chain_slacks(values), starts, values.shape[-1], 1)
    return reduce(np.logical_and, (s >= floor for s in slacks))


def _by_chain(table: np.ndarray, starts, links: int, skip: int = 0):
    """The entries of each chain in ``table`` (..., columns), the links or,
    with ``skip`` 1, the slacks of chains segmented by ``starts`` in a table
    of ``links`` links: for k = 0, 1, ... up to the longest chain, the
    (..., chains) array of each chain's k-th entry, its last one repeated
    past its end."""
    starts = np.asarray(starts, dtype=np.intp)
    last = np.append(starts[1:], links) - starts - (skip + 1)
    for k in range(last.max() + 1):
        yield table[..., starts + np.minimum(k, last)]


@dataclass(frozen=True)
class BoundChain:
    """Ordered labeled inequality chain; holds iff values are nondecreasing.
    ``reports`` are the hypothesis reports it was admitted under, in order.
    Its values are finite: a value that is not raises :class:`FloatRangeExceeded`."""

    labels: tuple[str, ...]
    values: tuple[float, ...]
    reports: tuple[HypothesisReport, ...] = ()

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        values = tuple(float(v) for v in self.values)
        if len(labels) != len(values) or len(values) < 2:
            raise ValueError("chain needs equally many labels and values, at least two")
        if not all(map(math.isfinite, values)):
            raise FloatRangeExceeded(
                f"the chain {' <= '.join(labels)} overflows the float range: {values!r}"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    @property
    def tolerance(self) -> float:
        return float(_chain_tolerance(np.array(self.values))[0])

    @property
    def slacks(self) -> tuple[float, ...]:
        return tuple(float(s) for s in _chain_slacks(np.array(self.values)))

    @property
    def all_hold(self) -> bool:
        return bool(_chain_holds(np.array(self.values))[0])

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
    family rows (..., count, dim), a :class:`ScalarCorridor`, checked or
    built over the batch shape. The kernels read their arguments from slots,
    and each argument is computed once however many chains read it."""

    def __init__(self, coords, matrix, corridor=None, sign=None):
        self.coords = coords
        self.matrix = matrix
        self.corridor = corridor
        self.sign = sign

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

    def __init__(self, x: Slot, y: Slot):
        self.x = x
        self.y = y

    @cached_property
    def p(self) -> np.ndarray:
        """<x, y>; where both slots hold one coordinate array, ||x||^2, which
        is exactly real, as :func:`inner` makes <x, x>."""
        if self.x.coords is self.y.coords:
            return self.x.nsq
        return _inner(self.x.coords, self.y.coords)

    @cached_property
    def defect(self) -> np.ndarray:
        """<x, y> - sum_i <x, e_i><e_i, y>."""
        return self.p - _inner(self.x.a, self.y.a)


class Step(NamedTuple):
    """A chain after its instance is built. Called on the instance, its
    reports (by :class:`HypothesisFailed` name) and the selector's parameters,
    it admits the reports, requires ``defined`` and a positive Re-sum of the
    corridors at the attribute paths ``positive``, makes the labels
    (``labels(**params)`` raises a bad variant) and runs the kernel ``values``
    with overflow ignored, whose chains raise :class:`FloatRangeExceeded`
    unless their values are finite; Corollary 2.5's labels, values and
    chains are by name."""

    labels: tuple | dict | Callable
    values: Callable
    positive: tuple[str, ...] = ()
    defined: Callable | None = None

    def __call__(self, inst, reports: dict, **params):
        for which, report in reports.items():
            if not report.holds:
                raise HypothesisFailed(which, report)
        if self.defined is not None and not self.defined(inst):
            raise ZeroVector("coefficients <x,e>, <y,e> must be nonzero")
        for path in self.positive:
            _positive(attrgetter(path)(inst))
        labels = self.chain_labels(**params)
        with np.errstate(over="ignore", invalid="ignore"):
            values = self.values(inst, **params)
        admitted = tuple(reports.values())
        if isinstance(labels, dict):
            return {name: BoundChain(labels[name], values[name], admitted) for name in labels}
        return BoundChain(labels, values, admitted)

    def chain_labels(self, **params) -> tuple | dict:
        """The labels of its chain, or of its chains by name, at ``params``."""
        return self.labels(**params) if callable(self.labels) else self.labels


def _positive(c) -> None:
    """Raise :class:`NonpositiveReSum` unless the corridor's re_sum is positive."""
    if not c.re_sum > 0.0:
        raise NonpositiveReSum(float(c.re_sum))


def _x_kind(check, x, fam, corridor, tol=DEFAULT_HYPOTHESIS_TOL, which="x", admit=True):
    """x under its family and corridor by the rules of :func:`check_hypothesis`,
    then, if ``admit``, a failed sign test raising :class:`HypothesisFailed`
    named ``which``; the slot and its report."""
    sign, failed, report = admissibility._admit(check, x, fam, corridor, tol)
    if admit:
        check(failed, lambda row=(): HypothesisFailed(which, report(row)))
    return Slot(x, fam[0], corridor, sign), {which: report}


def _pair_kind(check, x, y, fam, cx, cy, tol: float = DEFAULT_HYPOTHESIS_TOL):
    """x, then y, admitted under one family."""
    (xs, rx), (ys, ry) = _x_kind(check, x, fam, cx, tol), _x_kind(check, y, fam, cy, tol, "y")
    return Pair(xs, ys), {**rx, **ry}


def _companion_kind(check, x, y, fam, corridor, tol: float = DEFAULT_HYPOTHESIS_TOL, *, lam):
    """Theorem 4.1: lam in (0, 1), x and y of one dim, and z = lam*x + (1-lam)*y
    finite and admitted."""
    check(not 0.0 < lam < 1.0, lambda row=(): BadLambda(
        f"lambda must lie strictly in (0, 1), got {lam}"))
    check(*_same_dims(x, y))
    z = lam * x + (1.0 - lam) * y
    check(*_nonfinite(z))
    pair = Pair(Slot(x, fam[0]), Slot(y, fam[0]))
    pair.z, reports = _x_kind(check, z, fam, corridor, tol, "lam*x + (1-lam)*y")
    return pair, reports


def _schwarz_kind(check, x, y, delta, Delta, tol: float = DEFAULT_HYPOTHESIS_TOL):
    """Corollary 2.5: the corridor (delta, Delta), its frame
    (:func:`_schwarz_y`), then x admitted under it."""
    ends = ScalarCorridor.build(delta[..., None], Delta[..., None])
    return _schwarz_x(check, x, _schwarz_y(check, y, ends), tol)


def _schwarz_y(check, y, ends: ScalarCorridor) -> tuple:
    """Corollary 2.5's first half: y and its corridor ``ends`` (delta, Delta),
    then the frame, in which a campaign draws x. Returns y's slot, the family
    {y/||y||} as (rows, gram residual), in the dtype of y, and its corridor
    (delta ||y||, Delta ||y||)."""
    ys = Slot(y, None, ends)
    with np.errstate(over="ignore"):
        ny2 = ys.nsq
    check(ny2 == 0.0, lambda row=(): ZeroVector("y must be nonzero"))
    check(~np.isfinite(ny2), lambda row=(): FloatRangeExceeded(
        f"||y||^2 overflows the float range: {float(ny2[row])!r}"))
    check(*ys.corridor.nonfinite(("delta", "Delta")))
    unit, lo, hi = _schwarz_frame(ys)
    check(*_nonfinite(unit[..., 0, :]))
    residual, *rule = _gram_check(unit, UNIT_TOLERANCE)
    check(*rule)
    corridor = ScalarCorridor.build(lo, hi)
    check(*corridor.nonfinite())
    return ys, (unit, residual), corridor


def _schwarz_x(check, x, frame: tuple, tol: float = DEFAULT_HYPOTHESIS_TOL):
    """Corollary 2.5's second half: x admitted under the frame
    :func:`_schwarz_y` returned."""
    ys, fam, corridor = frame
    check(*_nonfinite(x))
    xs, reports = _x_kind(check, x, fam, corridor, tol)
    return Pair(xs, ys), reports


def _schwarz_frame(y: Slot) -> tuple:
    """Corollary 2.5's family {y/||y||} and corridor (delta ||y||, Delta ||y||)
    from y and its corridor (delta, Delta): the member rows (..., 1, dim),
    then the two sides (..., 1)."""
    ny = np.sqrt(y.nsq)[..., None]
    return _quotient(y.coords, ny)[..., None, :], y.corridor.lo * ny, y.corridor.hi * ny


def _free_kind(check, x, y, fam, tol: float = DEFAULT_HYPOTHESIS_TOL):
    """Two vectors under no corridor, by the dim rule of :func:`inner` and
    then the vector-dim rule."""
    rows = fam[0]
    check(*_same_dims(x, y))
    check(*_dims(x, rows))
    return Pair(Slot(x, rows), Slot(y, rows)), {}


def _one(build, *fields, tol: float = DEFAULT_HYPOTHESIS_TOL, **params) -> tuple:
    """The batch of one of ``build`` on the fields the public functions take,
    in their lane (:func:`family._operands`): a failed rule raises at once.
    The instance, whose slots compute the coefficients and <x, y> its chains
    read, as a campaign chunk's do, and its reports."""
    inst, reports = build(_raise, *_operands(*fields), tol, **params)
    return inst, {which: report() for which, report in reports.items()}


# The chains: each public function and its kernel.


def _float_pow(base, exponent: float) -> np.ndarray:
    """Elementwise Python float ``**`` (the C library ``pow``), which
    ``np.power`` does not reproduce bit for bit."""
    b = np.asarray(base, dtype=np.float64)
    return np.array([v**exponent for v in b.ravel().tolist()]).reshape(b.shape)


def _in_range(what: str, value):
    """``value`` (a number or numbers) if it is finite, else the
    :class:`FloatRangeExceeded` naming ``what``; its caller ignores overflow."""
    if not np.isfinite(value).all():
        raise FloatRangeExceeded(f"{what} overflows the float range: {value!r}")
    return value


@np.errstate(over="ignore", invalid="ignore")
def bessel_defect(x: Vector, fam: OrthonormalFamily) -> float:
    """||x||^2 - sum_i |<x, e_i>|^2; nonnegative for any x, no corridor needed."""
    return _in_range("the projection defect", float(_one(_free_kind, x, x, fam)[0].x.defect))


@np.errstate(over="ignore", invalid="ignore")
def gruss_defect(x: Vector, y: Vector, fam: OrthonormalFamily) -> complex:
    """<x, y> - sum_i <x, e_i><e_i, y>, the truncated-expansion defect."""
    return _in_range("the defect", complex(_one(_free_kind, x, y, fam)[0].defect))


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
    return _LINEAR(*_one(_x_kind, x, fam, corridor, tol=tol))


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
    return _QUADRATIC(*_one(_x_kind, x, fam, corridor, tol=tol), variant=variant, p=p)


def _quadratic_labels(variant: str = "cbs", p: float | None = None) -> tuple:
    """The labels of a variant; raises its exponent's or name's error."""
    if variant == "cbs":
        return ("||x||^2", "corridor quadratic bound (cbs)")
    if variant == "holder":
        if p is None or not (p > 1.0) or math.isinf(p):
            raise BadExponent(f"holder variant needs finite p > 1, got {p}")
        return ("||x||", f"corridor bound (holder p={p:g})")
    if variant in _SPLIT_LABELS:
        return ("||x||", _SPLIT_LABELS[variant])
    raise ValueError(f"unknown variant {variant!r}")


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
    return _COUNTERPART(*_one(_x_kind, x, fam, corridor, tol=tol))


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
    pair, reports = _one(_schwarz_kind, x, y, delta, Delta, tol=tol)
    return SchwarzCounterparts(**_SCHWARZ(pair, reports), report=reports["x"])


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
    return _REFINED_SQRT(*_one(_pair_kind, x, y, fam, cx, cy, tol=tol))


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
    return _REFINED_MIDPOINT(*_one(_pair_kind, x, y, fam, cx, cy, tol=tol))


def _refined_midpoint_values(pair: Pair) -> tuple:
    cx, cy = pair.x.corridor, pair.y.corridor
    correction = tree_sum(np.abs(cx.midpoints - pair.x.a) * np.abs(cy.midpoints - pair.y.a))
    outer = cx.radius * cy.radius
    return np.abs(pair.defect), outer - correction, outer


def schwarz_step(x: Vector, y: Vector, fam: OrthonormalFamily) -> BoundChain:
    """|defect(x, y)|^2 <= defect(x, x) * defect(y, y), valid for any inputs."""
    return _SCHWARZ_STEP(*_one(_free_kind, x, y, fam))


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
    return _GRUSS(*_one(_pair_kind, x, y, fam, cx, cy, tol=tol))


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
    return _RATIO(*_one(_pair_kind, x, y, fam, cx, cy, tol=tol))


def _ratio_denominator(pair: Pair) -> np.ndarray:
    return np.multiply(pair.x.a[..., 0], np.conj(pair.y.a[..., 0]))


def _ratio_defined(pair: Pair) -> np.ndarray:
    """Where the ratio form is defined: a one-member family, and
    <x,e> conj(<y,e>) nonzero. The form is scale-free, so this is the only
    condition, at every scale."""
    return (pair.x.a.shape[-1] == 1) & (_ratio_denominator(pair) != 0.0)


def _ratio_values(pair: Pair) -> tuple:
    return np.abs(_quotient(pair.p, _ratio_denominator(pair)) - 1.0), 0.25 * pair.x.m * pair.y.m


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
    return _COMPANION(*_one(_companion_kind, x, y, fam, corridor, tol=tol, lam=lam), lam=lam)


def _companion_values(pair: Pair, lam: float) -> tuple:
    z = pair.z
    return pair.defect.real, z.m * z.m * z.s / (16.0 * lam * (1.0 - lam))



# The step of each chain, by the name the catalog gives it.
_PROJECTION_FLOOR = Step(  # nonnegative, up to rounding relative to ||x||^2
    ("floor", "projection defect"), lambda pair: (-1e-10 * pair.x.nsq, pair.x.defect)
)
_LINEAR = Step(("||x||", "corridor linear bound"), _linear_values, ("corridor",))
_QUADRATIC = Step(_quadratic_labels, _quadratic_values, ("corridor",))
_COUNTERPART = Step(
    ("0", "projection defect", "corridor defect bound"), _counterpart_values, ("corridor",)
)
_SCHWARZ = Step(_SCHWARZ_LABELS, _schwarz_values, ("y.corridor",))
_REFINED_SQRT = Step(
    ("|defect|", "sign-form refined bound", "radius product"), _refined_sqrt_values
)
_REFINED_MIDPOINT = Step(
    ("|defect|", "midpoint refined bound", "radius product"), _refined_midpoint_values
)
_SCHWARZ_STEP = Step(("|defect|^2", "projection defect product"), _schwarz_step_values)
_GRUSS = Step(
    ("0", "|defect|", "corridor width bound"), _gruss_values, ("x.corridor", "y.corridor")
)
_RATIO = Step(
    ("|<x,y>/(<x,e><e,y>) - 1|", "corridor width bound"), _ratio_values,
    ("x.corridor", "y.corridor"), _ratio_defined,
)
_COMPANION = Step(("Re(defect)", "companion bound"), _companion_values, ("z.corridor",))
