"""Inequality chains bounding norms and projection defects under corridors.

Every operation returns a :class:`BoundChain`: an ordered, labeled list of
values that must be nondecreasing (left to right) for the inequality to
hold. Chains are checked at a single tolerance policy, relative 1e-9 against
the largest magnitude in the chain with an absolute floor of 1e-12.

Conditional bounds verify admissibility first and raise
:class:`HypothesisFailed` otherwise; evaluating them on inadmissible inputs
is a caller bug. Passing ``force=True`` evaluates anyway; each chain keeps
the hypothesis reports it was checked under, and is verified when they all
hold.

The corridor width factor M implemented by :func:`m_factor` uses the
difference form (|hi| - |lo|)^2 in its numerator; this is the form for which
the quadratic norm bound and the projection-defect bound are equivalent, and
the identity (1/4) M^2 + 1 == (1/4) sum (|hi|+|lo|)^2 / re_sum pins it down.

Each chain's values come from one rank-polymorphic kernel (the ``_*_values``
functions, over arrays with any leading batch shape). The public functions
validate their inputs, check the hypothesis and wrap the kernel's
batch-of-one result in a :class:`BoundChain`; fuzz campaigns run the same
kernels over a whole campaign at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admissibility import (
    DEFAULT_HYPOTHESIS_TOL,
    HypothesisReport,
    ScalarCorridor,
    check_hypothesis,
)
from .errors import (
    BadExponent,
    BadLambda,
    HypothesisFailed,
    NonpositiveReSum,
    ZeroVector,
)
from .family import OrthonormalFamily, validate_family
from .space import Vector, abs2, inner, norm_sq, tree_sum

# Single tolerance policy for every chain assertion.
CHAIN_REL_TOL = 1e-9
CHAIN_ABS_TOL = 1e-12


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


def _require(
    x: Vector,
    fam: OrthonormalFamily,
    corridor: ScalarCorridor,
    tol: float,
    force: bool,
    which: str,
    positive_re_sum: bool = False,
) -> HypothesisReport:
    """Check the hypothesis. ``positive_re_sum`` rejects re_sum <= 0 after the
    report's own errors (dimension, identity) and before HypothesisFailed."""
    report = check_hypothesis(x, fam, corridor, tol)
    if positive_re_sum and not corridor.re_sum > 0.0:
        raise NonpositiveReSum(corridor.re_sum)
    if not report.holds and not force:
        raise HypothesisFailed(which, report)
    return report


def _coeff_power_sum(coeffs: np.ndarray) -> np.ndarray:
    return tree_sum(abs2(coeffs))


def _float_pow(base, exponent: float) -> np.ndarray:
    """Elementwise Python float ``**`` (the C library ``pow``), which
    ``np.power`` does not reproduce bit for bit."""
    b = np.asarray(base, dtype=np.float64)
    return np.array([v**exponent for v in b.ravel().tolist()]).reshape(b.shape)


def bessel_defect(x: Vector, fam: OrthonormalFamily) -> float:
    """||x||^2 - sum_i |<x, e_i>|^2; nonnegative for any x, no corridor needed."""
    return float(norm_sq(x) - _coeff_power_sum(fam.coefficients(x)))


def gruss_defect(x: Vector, y: Vector, fam: OrthonormalFamily) -> complex:
    """<x, y> - sum_i <x, e_i><e_i, y>, the truncated-expansion defect."""
    return complex(_gruss_defect(inner(x, y), fam.coefficients(x), fam.coefficients(y)))


def _gruss_defect(p, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel of :func:`gruss_defect` from <x, y> and the coefficients of x, y."""
    return p - tree_sum(np.multiply(a, np.conj(b)))


def m_factor(corridor: ScalarCorridor) -> MFactor:
    """Corridor width factor M = sqrt(sum_i t_i / re_sum) with

    t_i = (|hi_i| - |lo_i|)^2 + 4 (|hi_i * conj(lo_i)| - Re(hi_i * conj(lo_i))).

    Requires re_sum > 0. For a real corridor 0 < m <= M this reduces to
    (M - m) / sqrt(m M).
    """
    if not corridor.re_sum > 0.0:
        raise NonpositiveReSum(corridor.re_sum)
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
    force: bool = False,
) -> BoundChain:
    """||x|| <= (1/2) sum_i Re[hi_i conj(a_i) + conj(lo_i) a_i] / sqrt(re_sum),

    where a_i = <x, e_i>.
    """
    report = _require(x, fam, corridor, tol, force, "x", positive_re_sum=True)
    return BoundChain(
        labels=("||x||", "corridor linear bound"),
        values=_linear_values(norm_sq(x), fam.coefficients(x), corridor),
        reports=(report,),
    )


def _linear_values(nsq, a: np.ndarray, c) -> tuple:
    numerator = tree_sum(
        (np.multiply(c.hi, np.conj(a)) + np.multiply(np.conj(c.lo), a)).real
    )
    return np.sqrt(nsq), 0.5 * numerator / np.sqrt(c.re_sum)


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
    force: bool = False,
) -> BoundChain:
    """Reverse Bessel norm bounds.

    variant "cbs" bounds ||x||^2 by
    (1/4) sum (|hi|+|lo|)^2 / re_sum * sum |a_i|^2; the "max_sum",
    "holder" (with exponent p > 1) and "sum_max" variants bound ||x||
    by (1/2) / sqrt(re_sum) times the corresponding split of
    sum (|hi_i|+|lo_i|) |a_i|. Labels state which level is used.
    """
    report = _require(x, fam, corridor, tol, force, "x", positive_re_sum=True)
    if variant == "cbs":
        labels = ("||x||^2", "corridor quadratic bound (cbs)")
    elif variant == "holder":
        _check_exponent(p)
        labels = ("||x||", f"corridor bound (holder p={p:g})")
    elif variant in _SPLIT_LABELS:
        labels = ("||x||", _SPLIT_LABELS[variant])
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return BoundChain(
        labels=labels,
        values=_quadratic_values(norm_sq(x), fam.coefficients(x), corridor, variant, p),
        reports=(report,),
    )


def _quadratic_values(nsq, a: np.ndarray, c, variant: str, p: float | None) -> tuple:
    widths = np.abs(c.hi) + np.abs(c.lo)
    if variant == "cbs":
        return nsq, 0.25 * tree_sum(widths**2) / c.re_sum * _coeff_power_sum(a)
    a_abs = np.abs(a)
    if variant == "max_sum":
        split = widths.max(axis=-1) * tree_sum(a_abs)
    elif variant == "holder":
        q = p / (p - 1.0)
        split = _float_pow(tree_sum(widths**p), 1.0 / p) * _float_pow(
            tree_sum(a_abs**q), 1.0 / q
        )
    else:  # "sum_max"
        split = a_abs.max(axis=-1) * tree_sum(widths)
    return np.sqrt(nsq), 0.5 * split / np.sqrt(c.re_sum)


def bessel_counterpart(
    x: Vector,
    fam: OrthonormalFamily,
    corridor: ScalarCorridor,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
    force: bool = False,
) -> BoundChain:
    """0 <= ||x||^2 - sum |a_i|^2 <= (1/4) M^2 sum |a_i|^2.

    For a real corridor with 0 <= m_i <= M_i the width factor reduces to
    sum (M_i - m_i)^2 / sum M_i m_i.
    """
    report = _require(x, fam, corridor, tol, force, "x")
    mf = m_factor(corridor)
    s = _coeff_power_sum(fam.coefficients(x))
    return BoundChain(
        labels=("0", "projection defect", "corridor defect bound"),
        values=_counterpart_values(norm_sq(x), s, mf.value),
        reports=(report,),
    )


def _counterpart_values(nsq, s, m) -> tuple:
    return 0.0, nsq - s, 0.25 * (m * m) * s


@dataclass(frozen=True)
class SchwarzCounterparts:
    """The four reverse-Schwarz chains for a pair (x, y) under (delta, Delta)."""

    norm_product: BoundChain
    norm_product_gap: BoundChain
    norm_product_sq: BoundChain
    norm_product_sq_gap: BoundChain
    report: HypothesisReport

    def chains(self) -> dict[str, BoundChain]:
        return {
            "norm_product": self.norm_product,
            "norm_product_gap": self.norm_product_gap,
            "norm_product_sq": self.norm_product_sq,
            "norm_product_sq_gap": self.norm_product_sq_gap,
        }


_SCHWARZ_LABELS = (
    ("||x|| ||y||", "midrange bound", "modulus bound"),
    ("0", "||x|| ||y|| - |<x,y>|", "corridor gap bound"),
    ("||x||^2 ||y||^2", "squared corridor bound"),
    ("0", "||x||^2 ||y||^2 - |<x,y>|^2", "squared corridor gap bound"),
)


def schwarz_counterparts(
    x: Vector,
    y: Vector,
    delta: complex,
    Delta: complex,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
    force: bool = False,
) -> SchwarzCounterparts:
    """Reverse Schwarz bounds for ||x|| ||y|| against |<x, y>|.

    Requires Re(Delta conj(delta)) > 0 and the admissibility of x for the
    single-member family {y/||y||} with corridor (delta ||y||, Delta ||y||).
    Square roots of the corridor product use sqrt(Re(Delta conj(delta))) in
    denominators and sqrt(|Delta conj(delta)|) inside the gap numerator; the
    two coincide when Delta conj(delta) is real positive.
    """
    delta = complex(delta)
    Delta = complex(Delta)
    ny2 = norm_sq(y)
    if ny2 == 0.0:
        raise ZeroVector("y must be nonzero")
    re_dd = float(np.multiply(Delta, np.conj(delta)).real)
    if not re_dd > 0.0:
        raise NonpositiveReSum(re_dd)
    ny = math.sqrt(ny2)
    unit = Vector(y.coords / ny, real_mode=y.real_mode)
    fam = validate_family([unit], tolerance=1e-12)
    real_pair = (
        x.real_mode and y.real_mode and delta.imag == 0.0 and Delta.imag == 0.0
    )
    corridor = ScalarCorridor([delta * ny], [Delta * ny], real_mode=real_pair)
    report = _require(x, fam, corridor, tol, force, "x")
    values = _schwarz_values(norm_sq(x), ny2, inner(x, y), delta, Delta)
    chains = (
        BoundChain(labels, v, (report,))
        for labels, v in zip(_SCHWARZ_LABELS, values)
    )
    return SchwarzCounterparts(*chains, report)


def _schwarz_values(nsq_x, ny2, p, delta, Delta) -> tuple:
    """The four reverse-Schwarz chains from ||x||^2, ||y||^2, <x, y> and the
    corridor ends (delta, Delta)."""
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
    return (
        (nx * ny, mid, 0.5 * width * p_abs / root_re),
        (0.0, nx * ny - p_abs, 0.5 * gap_factor * p_abs),
        (nx * nx * ny2, 0.25 * (width * width) / re_dd * p_sq),
        (0.0, nx * nx * ny2 - p_sq, 0.25 * sq_gap_factor * p_sq),
    )


def gruss_refined_sqrt(
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    cx: ScalarCorridor,
    cy: ScalarCorridor,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
    force: bool = False,
) -> BoundChain:
    """|defect| <= r_x r_y - sqrt(sign_x) sqrt(sign_y) <= r_x r_y,

    where sign_x, sign_y are the sign-form values of the two admissibility
    conditions and r_x, r_y the corridor radii.
    """
    rep_x = _require(x, fam, cx, tol, force, "x")
    rep_y = _require(y, fam, cy, tol, force, "y")
    return BoundChain(
        labels=("|defect|", "sign-form refined bound", "radius product"),
        values=_refined_sqrt_values(
            np.abs(gruss_defect(x, y, fam)),
            cx.radius,
            cy.radius,
            rep_x.cond_i_value,
            rep_y.cond_i_value,
        ),
        reports=(rep_x, rep_y),
    )


def _refined_sqrt_values(d_abs, rx, ry, sign_x, sign_y) -> tuple:
    outer = rx * ry
    correction = np.sqrt(np.maximum(sign_x, 0.0)) * np.sqrt(np.maximum(sign_y, 0.0))
    return d_abs, outer - correction, outer


def gruss_refined_midpoint(
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    cx: ScalarCorridor,
    cy: ScalarCorridor,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
    force: bool = False,
) -> BoundChain:
    """|defect| <= r_x r_y - sum_i |mid_x,i - a_i| |mid_y,i - b_i| <= r_x r_y."""
    rep_x = _require(x, fam, cx, tol, force, "x")
    rep_y = _require(y, fam, cy, tol, force, "y")
    return BoundChain(
        labels=("|defect|", "midpoint refined bound", "radius product"),
        values=_refined_midpoint_values(
            np.abs(gruss_defect(x, y, fam)),
            fam.coefficients(x),
            fam.coefficients(y),
            cx,
            cy,
        ),
        reports=(rep_x, rep_y),
    )


def _refined_midpoint_values(d_abs, a: np.ndarray, b: np.ndarray, cx, cy) -> tuple:
    correction = tree_sum(np.abs(cx.midpoints - a) * np.abs(cy.midpoints - b))
    outer = cx.radius * cy.radius
    return d_abs, outer - correction, outer


def schwarz_step(x: Vector, y: Vector, fam: OrthonormalFamily) -> BoundChain:
    """|defect(x, y)|^2 <= defect(x, x) * defect(y, y), valid for any inputs."""
    return BoundChain(
        labels=("|defect|^2", "projection defect product"),
        values=_schwarz_step_values(
            gruss_defect(x, y, fam), bessel_defect(x, fam), bessel_defect(y, fam)
        ),
    )


def _schwarz_step_values(d, defect_x, defect_y) -> tuple:
    d_abs = np.abs(d)
    return d_abs * d_abs, defect_x * defect_y


def gruss_bound(
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    cx: ScalarCorridor,
    cy: ScalarCorridor,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
    force: bool = False,
) -> BoundChain:
    """0 <= |defect| <= (1/4) M(cx) M(cy) (sum |a_i|^2)^(1/2) (sum |b_i|^2)^(1/2)."""
    rep_x = _require(x, fam, cx, tol, force, "x")
    rep_y = _require(y, fam, cy, tol, force, "y")
    return BoundChain(
        labels=("0", "|defect|", "corridor width bound"),
        values=_gruss_values(
            np.abs(gruss_defect(x, y, fam)),
            m_factor(cx).value,
            m_factor(cy).value,
            _coeff_power_sum(fam.coefficients(x)),
            _coeff_power_sum(fam.coefficients(y)),
        ),
        reports=(rep_x, rep_y),
    )


def _gruss_values(d_abs, mx, my, sx, sy) -> tuple:
    return 0.0, d_abs, 0.25 * mx * my * np.sqrt(sx) * np.sqrt(sy)


def single_vector_ratio_chain(
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    cx: ScalarCorridor,
    cy: ScalarCorridor,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
    force: bool = False,
) -> BoundChain:
    """|<x,y> / (<x,e><e,y>) - 1| <= (1/4) M(cx) M(cy) for a one-member family.

    Requires both coefficients to be nonzero.
    """
    if fam.count != 1:
        raise ValueError("ratio form needs a single-member family")
    rep_x = _require(x, fam, cx, tol, force, "x")
    rep_y = _require(y, fam, cy, tol, force, "y")
    denom = np.multiply(fam.coefficients(x)[0], np.conj(fam.coefficients(y)[0]))
    if denom == 0.0:
        raise ZeroVector("coefficients <x,e>, <y,e> must be nonzero")
    return BoundChain(
        labels=("|<x,y>/(<x,e><e,y>) - 1|", "corridor width bound"),
        values=_ratio_values(inner(x, y), denom, m_factor(cx).value, m_factor(cy).value),
        reports=(rep_x, rep_y),
    )


def _ratio_values(p, denom, mx, my) -> tuple:
    return np.abs(np.divide(p, denom) - 1.0), 0.25 * mx * my


def companion_bound(
    x: Vector,
    y: Vector,
    fam: OrthonormalFamily,
    corridor: ScalarCorridor,
    lam: float,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
    force: bool = False,
) -> BoundChain:
    """Re(defect(x, y)) <= M^2 sum |<z, e_i>|^2 / (16 lam (1 - lam)),

    with z = lam*x + (1-lam)*y required to be admissible for the corridor.
    """
    if not 0.0 < lam < 1.0:
        raise BadLambda(f"lambda must lie strictly in (0, 1), got {lam}")
    z = Vector(_mix(x.coords, y.coords, lam), real_mode=x.real_mode and y.real_mode)
    report = _require(z, fam, corridor, tol, force, "lam*x + (1-lam)*y")
    mf = m_factor(corridor)
    return BoundChain(
        labels=("Re(defect)", "companion bound"),
        values=_companion_values(
            gruss_defect(x, y, fam).real,
            mf.value,
            _coeff_power_sum(fam.coefficients(z)),
            lam,
        ),
        reports=(report,),
    )


def _mix(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """The combination lam*x + (1-lam)*y whose admissibility Theorem 4.1 needs."""
    return lam * x + (1.0 - lam) * y


def _companion_values(d_re, m, s, lam: float) -> tuple:
    return d_re, m * m * s / (16.0 * lam * (1.0 - lam))
