"""Sharpness sweeps, incomparability search, and the equality-case catalog.

The sweeps instantiate the extremal two-dimensional construction
e = (1/sqrt(2), 1/sqrt(2)), x = (lo/sqrt(2), hi/sqrt(2)) with lo = 1 - eps,
hi = 1 + eps. For that instance the projection defect simplifies to
(hi - lo)^2 / 4 exactly; the sweep uses this cancellation-free form so the
reported ratio defect/bound tracks 1 - eps^2 to near machine precision even
for tiny eps, while the full bound chain is still evaluated for validity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .admissibility import CorridorSpec, ScalarCorridor, admissible_point, check_hypothesis
from .bounds import (
    bessel_counterpart,
    bessel_defect,
    gruss_bound,
    gruss_refined_midpoint,
    gruss_refined_sqrt,
    norm_bound_quadratic,
)
from .catalog import SWEEP_TARGETS
from .errors import BadEpsilon, ChainViolated, WitnessNotFound
from .family import OrthonormalFamily, random_family, validate_family
from .space import Vector

# Incomparability search stays on small instances: existence is all that is
# needed and small draws keep runs under a second.
_SEARCH_DIM = 6
_SEARCH_COUNT = 3
_WITNESS_MARGIN = 1e-9


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    ratio: float
    bound: float
    defect: float


def _r2_construction(eps: float):
    lo = 1.0 - eps
    hi = 1.0 + eps
    c = 1.0 / math.sqrt(2.0)
    fam = validate_family([Vector([c, c], real_mode=True)])
    corridor = ScalarCorridor([lo], [hi], real_mode=True)
    x = Vector([lo * c, hi * c], real_mode=True)
    return fam, corridor, x, lo, hi


def sharpness_sweep(target: str, eps_grid: Sequence[float]) -> list[SweepRow]:
    """Ratio of bounded quantity to bound along an extremal family.

    ``thm21``  : x = lo * e against the quadratic norm bound; ratio
                 lo*hi / ((hi+lo)/2)^2.
    ``cor23``  : the plane construction against the defect bound; ratio
                 approaches 1 as eps -> 0, showing the 1/4 prefactor cannot
                 shrink.
    ``cor32``  : the same construction in both slots of the pair bound
                 (Theorem 3.1), whose |defect|/bound is 1 - eps^2; the
                 rows give its squared form
                 |defect|^2 <= (1/16) M^2 M'^2 S S', whose ratio
                 (1 - eps^2)^2 pins the 1/16 prefactor.
    """
    if target not in SWEEP_TARGETS:
        raise ValueError(f"unknown sweep target {target!r}")
    rows = []
    for eps in eps_grid:
        if not 0.0 < eps < 1.0:
            raise BadEpsilon(f"eps must lie strictly in (0, 1), got {eps}")
        if target == "thm21":
            lo, hi = 1.0 - eps, 1.0 + eps
            fam = validate_family([Vector([1.0], real_mode=True)])
            corridor = ScalarCorridor([lo], [hi], real_mode=True)
            x = Vector([lo], real_mode=True)
            chain = norm_bound_quadratic(x, fam, corridor)
            if not chain.all_hold:
                raise ChainViolated(f"the thm21 construction at eps={eps!r}", chain)
            ratio = chain.values[0] / chain.values[1]
            rows.append(SweepRow(eps, ratio, chain.values[1], chain.values[0]))
            continue
        fam, corridor, x, lo, hi = _r2_construction(eps)
        chains = [bessel_counterpart(x, fam, corridor)]
        if target == "cor32":
            chains.append(gruss_bound(x, x, fam, corridor, corridor))
        for chain in chains:
            if not chain.all_hold:
                raise ChainViolated(f"the {target} construction at eps={eps!r}", chain)
        defect = 0.25 * (hi - lo) ** 2  # exact defect of this construction
        bound = chains[0].values[2]
        if target == "cor23":
            rows.append(SweepRow(eps, defect / bound, bound, defect))
        else:  # cor32: both slots carry the same construction
            ratio = defect / bound
            rows.append(SweepRow(eps, ratio * ratio, bound * bound, defect * defect))
    return rows


def sweep_rows_to_csv(rows: Iterable[SweepRow]) -> str:
    lines = ["epsilon,ratio,bound,defect"]
    for r in rows:
        lines.append(f"{r.epsilon!r},{r.ratio!r},{r.bound!r},{r.defect!r}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ComparisonWitness:
    """One instance on which one refinement strictly beats the other."""

    direction: str  # "sqrt_tighter" | "midpoint_tighter"
    trial: int
    refined_sqrt: float
    refined_midpoint: float
    margin: float
    family: OrthonormalFamily
    x: Vector
    y: Vector
    cx: ScalarCorridor
    cy: ScalarCorridor


@dataclass(frozen=True)
class ComparisonResult:
    sqrt_tighter: ComparisonWitness
    midpoint_tighter: ComparisonWitness
    trials_used: int


def bound_comparison_search(seed: int, trials: int) -> ComparisonResult:
    """Search for witnesses that neither pair refinement dominates the other.

    Draws random admissible pairs and keeps the first instance in each
    direction. Raises :class:`WitnessNotFound` naming the missing direction
    when the trial budget runs out; failures are reported, never fabricated.
    A negative budget is malformed input and raises :class:`ValueError`.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    rng = np.random.default_rng(seed)
    spec = CorridorSpec()
    found: dict[str, ComparisonWitness] = {}
    trial = 0
    while trial < trials and len(found) < 2:
        trial += 1
        fam = random_family(_SEARCH_DIM, _SEARCH_COUNT, rng)
        cx = spec.sample(fam.count, rng)
        cy = spec.sample(fam.count, rng)
        # Alternate centered and boundary instances: centered draws favor the
        # sign-form refinement, boundary draws the midpoint refinement.
        if trial % 2 == 0:
            slack_x = slack_y = rng.uniform(0.0, 0.2)
        else:
            slack_x = slack_y = rng.uniform(0.9, 1.0)
        x = admissible_point(fam, cx, rng, slack_x)
        y = admissible_point(fam, cy, rng, slack_y)
        chain_sqrt = gruss_refined_sqrt(x, y, fam, cx, cy)
        chain_mid = gruss_refined_midpoint(x, y, fam, cx, cy)
        v_sqrt = chain_sqrt.values[1]
        v_mid = chain_mid.values[1]
        scale = max(1.0, abs(v_sqrt), abs(v_mid))
        if v_sqrt < v_mid - _WITNESS_MARGIN * scale and "sqrt_tighter" not in found:
            found["sqrt_tighter"] = ComparisonWitness(
                "sqrt_tighter", trial, v_sqrt, v_mid, v_mid - v_sqrt, fam, x, y, cx, cy
            )
        if v_mid < v_sqrt - _WITNESS_MARGIN * scale and "midpoint_tighter" not in found:
            found["midpoint_tighter"] = ComparisonWitness(
                "midpoint_tighter", trial, v_sqrt, v_mid, v_sqrt - v_mid, fam, x, y, cx, cy
            )
    for direction in ("sqrt_tighter", "midpoint_tighter"):
        if direction not in found:
            raise WitnessNotFound(direction, trials)
    return ComparisonResult(found["sqrt_tighter"], found["midpoint_tighter"], trial)


@dataclass(frozen=True)
class EqualityCase:
    name: str
    quantity: str
    observed: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.observed) <= self.tolerance


@dataclass(frozen=True)
class EqualityCaseReport:
    cases: tuple[EqualityCase, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)


def equality_cases() -> EqualityCaseReport:
    """Catalog of exact-equality and boundary instances with predicted slacks."""
    cases: list[EqualityCase] = []

    # Zero-width corridor at its own value: quadratic bound is an equality.
    fam1 = validate_family([Vector([1.0], real_mode=True)])
    corr_eq = ScalarCorridor([1.0], [1.0], real_mode=True)
    x_eq = Vector([1.0], real_mode=True)
    chain = norm_bound_quadratic(x_eq, fam1, corr_eq)
    cases.append(
        EqualityCase("x=m*e with m=M", "quadratic chain slack", chain.slacks[0], 1e-12)
    )

    # Lower corridor endpoint: the sign form sits exactly on its boundary.
    corr_lo = ScalarCorridor([1.0], [2.0], real_mode=True)
    rep = check_hypothesis(Vector([1.0], real_mode=True), fam1, corr_lo)
    cases.append(
        EqualityCase("x=m*e, m<M", "sign-form value", rep.cond_i_value, 1e-12)
    )

    # Plane construction: boundary admissibility and the predicted ratio.
    eps = 0.25
    fam2, corr2, x2, lo, hi = _r2_construction(eps)
    rep2 = check_hypothesis(x2, fam2, corr2)
    cases.append(
        EqualityCase("plane construction", "sign-form value", rep2.cond_i_value, 1e-12)
    )
    chain2 = bessel_counterpart(x2, fam2, corr2)
    ratio = (0.25 * (hi - lo) ** 2) / chain2.values[2]
    cases.append(
        EqualityCase(
            "plane construction",
            "ratio minus (1 - eps^2)",
            ratio - (1.0 - eps * eps),
            1e-12,
        )
    )

    # Centered zero-width corridor: every defect collapses to zero.
    fam3 = validate_family([Vector(row, real_mode=True) for row in np.eye(3)[:2]])
    corr3 = ScalarCorridor([0.7, -0.4], [0.7, -0.4], real_mode=True)
    center = fam3.combine(corr3.midpoints)
    cases.append(
        EqualityCase("centered zero-width corridor", "radius", corr3.radius, 1e-12)
    )
    cases.append(
        EqualityCase(
            "centered zero-width corridor",
            "projection defect",
            bessel_defect(center, fam3),
            1e-12,
        )
    )
    chain3 = bessel_counterpart(center, fam3, corr3)
    cases.append(
        EqualityCase(
            "centered zero-width corridor",
            "defect bound",
            chain3.values[2],
            1e-12,
        )
    )
    return EqualityCaseReport(tuple(cases))
