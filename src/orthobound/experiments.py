"""Sharpness sweeps, incomparability search, and the equality-case catalog.

Each runs the paper's chains through the catalog,
:func:`orthobound.catalog.evaluate`, on instances written as their
instance-file fields. The sweeps instantiate the extremal constructions: the
line x = lo*e, and the plane e = (1/sqrt(2), 1/sqrt(2)),
x = (lo/sqrt(2), hi/sqrt(2)) with lo = 1 - eps, hi = 1 + eps, whose
projection defect simplifies to (hi - lo)^2 / 4 exactly. The plane sweeps
report this cancellation-free form, so the ratio defect/bound tracks
1 - eps^2 to near machine precision even for tiny eps, while the full bound
chain is still evaluated for validity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .admissibility import CorridorSpec, ScalarCorridor, admissible_point
from .bounds import bessel_defect
from .catalog import SWEEP_TARGETS, evaluate, evaluate_many
from .errors import BadEpsilon, ChainViolated, WitnessNotFound
from .family import random_family, validate_family
from .jsonio import FAMILY, X, X_CORRIDOR, Y, Y_CORRIDOR
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


def _instance(members, x, lo, hi) -> dict:
    """The fields of a real instance: the family of ``members``, and x in
    both slots of a pair, each under the corridor (lo, hi)."""
    x = Vector(x, real_mode=True)
    corridor = ScalarCorridor(lo, hi, real_mode=True)
    fam = validate_family([Vector(e, real_mode=True) for e in members])
    return {FAMILY: fam, X: x, X_CORRIDOR: corridor, Y: x, Y_CORRIDOR: corridor}


def _construction(target: str, lo: float, hi: float) -> dict:
    """The extremal instance of ``target`` under the corridor (lo, hi): the
    line x = lo*e for thm21, else the plane."""
    if target == "thm21":
        return _instance([[1.0]], [lo], [lo], [hi])
    c = 1.0 / math.sqrt(2.0)
    return _instance([[c, c]], [lo * c, hi * c], [lo], [hi])


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

    An eps too small for 1 - eps and 1 + eps to differ gives the plane a
    corridor of zero width, whose bound is 0, and raises :class:`BadEpsilon`.
    """
    if target not in SWEEP_TARGETS:
        raise ValueError(f"unknown sweep target {target!r}")
    rows = []
    for eps in eps_grid:
        if not 0.0 < eps < 1.0:
            raise BadEpsilon(f"eps must lie strictly in (0, 1), got {eps}")
        lo, hi = 1.0 - eps, 1.0 + eps
        if lo == hi and target != "thm21":
            raise BadEpsilon(f"eps={eps!r} gives the {target} corridor zero width in floats")
        inst = _construction(target, lo, hi)
        results = evaluate_many(SWEEP_TARGETS[target], inst)
        chains = [results[selector]["main"] for selector in SWEEP_TARGETS[target]]
        for chain in chains:
            if not chain.all_hold:
                raise ChainViolated(f"the {target} construction at eps={eps!r}", chain)
        if target == "thm21":
            norm_sq, bound = chains[0].values
            rows.append(SweepRow(eps, norm_sq / bound, bound, norm_sq))
            continue
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
    instance: dict  # its fields by instance-file name


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
        inst = {FAMILY: fam, X: x, X_CORRIDOR: cx, Y: y, Y_CORRIDOR: cy}
        chains = evaluate_many(("thm1.1", "thm2"), inst)  # one build of the pair
        v_sqrt = chains["thm1.1"]["main"].values[1]
        v_mid = chains["thm2"]["main"].values[1]
        scale = max(1.0, abs(v_sqrt), abs(v_mid))
        if v_sqrt < v_mid - _WITNESS_MARGIN * scale and "sqrt_tighter" not in found:
            found["sqrt_tighter"] = ComparisonWitness(
                "sqrt_tighter", trial, v_sqrt, v_mid, v_mid - v_sqrt, inst
            )
        if v_mid < v_sqrt - _WITNESS_MARGIN * scale and "midpoint_tighter" not in found:
            found["midpoint_tighter"] = ComparisonWitness(
                "midpoint_tighter", trial, v_sqrt, v_mid, v_sqrt - v_mid, inst
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
    # Zero-width corridor at its own value: quadratic bound is an equality.
    level = evaluate("thm2.1", _construction("thm21", 1.0, 1.0))["main"]
    # Lower corridor endpoint: the sign form sits exactly on its boundary.
    lower = evaluate("thm2.1", _construction("thm21", 1.0, 2.0))["main"]
    # Plane construction: boundary admissibility and the predicted ratio.
    eps = 0.25
    lo, hi = 1.0 - eps, 1.0 + eps
    plane = evaluate("cor2.3", _construction("cor23", lo, hi))["main"]
    # Centered zero-width corridor, x at its center: every defect collapses to zero.
    centered = _instance(np.eye(3)[:2], [0.7, -0.4, 0.0], [0.7, -0.4], [0.7, -0.4])
    return EqualityCaseReport((
        EqualityCase("x=m*e with m=M", "quadratic chain slack", level.slacks[0], 1e-12),
        EqualityCase("x=m*e, m<M", "sign-form value", lower.reports[0].cond_i_value, 1e-12),
        EqualityCase(
            "plane construction", "sign-form value", plane.reports[0].cond_i_value, 1e-12
        ),
        EqualityCase(
            "plane construction",
            "ratio minus (1 - eps^2)",
            (0.25 * (hi - lo) ** 2) / plane.values[2] - (1.0 - eps * eps),
            1e-12,
        ),
        EqualityCase(
            "centered zero-width corridor", "radius", centered[X_CORRIDOR].radius, 1e-12
        ),
        EqualityCase(
            "centered zero-width corridor",
            "projection defect",
            bessel_defect(centered[X], centered[FAMILY]),
            1e-12,
        ),
        EqualityCase(
            "centered zero-width corridor",
            "defect bound",
            evaluate("cor2.3", centered)["main"].values[2],
            1e-12,
        ),
    ))
