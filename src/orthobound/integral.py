"""Weighted-L2 instances reduced to the coordinate setting through embedding.

Every weighted quantity here is obtained by embedding sampled functions and
calling the coordinate-space operations, so integral results agree with
their discrete counterparts exactly (shared code path, zero tolerance). The
family's samples are embedded in one pass by the kernel behind ``embed``, so
its matrix is bit for bit the stacked member embeddings.

"Almost everywhere" for a discrete measure means: at every node with
positive point mass w_j * rho_j; zero-mass nodes are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .admissibility import HypothesisReport, ScalarCorridor
from .bounds import _COUNTERPART, _GRUSS, _LINEAR, _QUADRATIC, BoundChain, Pair, Slot
from .bounds import _one, _positive, _x_kind
from .errors import DimensionMismatch, SandwichViolated
from .family import (
    OrthonormalFamily,
    QUADRATURE_TOLERANCE,
    _embedded_family,
    _require_members,
    _samples_key,
    _stacked_samples,
)
from .space import QuadratureGrid, SampledFunction, Vector, _require_samples, embed


@dataclass(frozen=True)
class IntegralInstance:
    """Embedded weighted-space instance, ready for the coordinate bounds.

    :func:`integral_instance` builds x's slot and report, and y's when there
    is a y, by the x kind's batch of one. Each chain method runs its public
    bound's step on them, which admits the reports and raises the public
    bound's errors in its order, without checking the hypothesis again.
    """

    family: OrthonormalFamily
    x: Vector
    cx: ScalarCorridor
    report_x: HypothesisReport
    y: Vector | None
    cy: ScalarCorridor | None
    report_y: HypothesisReport | None
    _x: Slot = field(repr=False, compare=False)
    _y: Slot | None = field(repr=False, compare=False)

    def linear_chain(self) -> BoundChain:
        return _LINEAR(self._x, {"x": self.report_x})

    def quadratic_chain(self, variant: str = "cbs", p: float | None = None) -> BoundChain:
        return _QUADRATIC(self._x, {"x": self.report_x}, variant=variant, p=p)

    def bessel_chain(self) -> BoundChain:
        return _COUNTERPART(self._x, {"x": self.report_x})

    def gruss_chain(self) -> BoundChain:
        if self.y is None:
            raise ValueError("instance has no second function")
        return _GRUSS(Pair(self._x, self._y), {"x": self.report_x, "y": self.report_y})


def integral_instance(
    f: SampledFunction,
    fam_fns: Sequence[SampledFunction],
    grid: QuadratureGrid,
    cx: ScalarCorridor,
    g: SampledFunction | None = None,
    cy: ScalarCorridor | None = None,
) -> IntegralInstance:
    """Embed functions and family, evaluating the admissibility reports.

    The discrete report is exactly the quadrature evaluation of the weighted
    admissibility conditions, since both run through the same embedded
    arithmetic. Each function is checked once by the rules of
    :func:`check_hypothesis`, at the band max(1e-10, 10 * count *
    gram_residual), and the instance's chains are judged under it.
    """
    fam = _embedded_family(fam_fns, grid, QUADRATURE_TOLERANCE)
    # the identity band must dominate the family's orthonormality error
    tol = max(1e-10, 10.0 * fam.count * fam.gram_residual)
    x = embed(f, grid)
    xs, reports = _one(_x_kind, x, fam, cx, tol=tol, admit=False)
    y = ys = None
    if g is not None:
        if cy is None:
            raise ValueError("second function supplied without its corridor")
        y = embed(g, grid)
        ys, more = _one(_x_kind, y, fam, cy, tol=tol, which="y", admit=False)
        reports.update(more)
    elif cy is not None:
        raise ValueError("corridor supplied without its second function")
    return IntegralInstance(fam, x, cx, reports["x"], y, cy, reports.get("y"), xs, ys)


@dataclass(frozen=True)
class SandwichReport:
    """Pointwise bracketing margins over the positive-mass nodes."""

    min_lower_margin: float
    min_upper_margin: float
    worst_lower_node: int
    worst_upper_node: int
    corridor: ScalarCorridor

    @property
    def passed(self) -> bool:
        return self.min_lower_margin >= 0.0 and self.min_upper_margin >= 0.0


def sandwich_check(
    f: SampledFunction,
    fam_fns: Sequence[SampledFunction],
    grid: QuadratureGrid,
    m: Sequence[float],
    big_m: Sequence[float],
) -> SandwichReport:
    """Check sum_i m_i f_i(s) <= f(s) <= sum_i M_i f_i(s) at positive-mass nodes.

    Real-space only, with m_i, M_i >= 0 and sum M_i m_i > 0. Success makes
    the integrand of the weighted sign condition pointwise nonnegative, so
    the embedded instance is admissible for the corridor (m, M).

    Raises :class:`SandwichViolated` with the worst node and margin when the
    bracketing fails.

    The envelopes read the basis's samples as one table, stacked once per
    basis and kept with the embedded families (see
    :func:`orthobound.family._stacked_samples`). On a grid whose every node
    has positive mass the margins are read over all nodes, without a gather;
    the worst nodes are grid node indices either way.
    """
    _require_members(fam_fns)
    if not f.real_mode or not all(fi.real_mode for fi in fam_fns):
        raise ValueError("sandwich conditions require real-space functions")
    m = np.asarray(m, dtype=np.float64).reshape(-1)
    big_m = np.asarray(big_m, dtype=np.float64).reshape(-1)
    if m.size != len(fam_fns) or big_m.size != len(fam_fns):
        raise DimensionMismatch(
            f"{m.size}/{big_m.size} corridor entries for {len(fam_fns)} functions"
        )
    # the finiteness rule first; for real sides re_sum is sum_i M_i m_i
    corridor = ScalarCorridor(m, big_m, real_mode=True)
    if np.any(m < 0.0) or np.any(big_m < 0.0):
        raise ValueError("sandwich coefficients must be nonnegative")
    _positive(corridor)
    for fi in (f, *fam_fns):
        _require_samples(fi, grid)

    table = _stacked_samples(_samples_key(fam_fns))  # real mode: float64 rows
    lower_margins = f.values - m @ table
    upper_margins = big_m @ table - f.values
    active = grid.active
    if active.size < grid.size:  # the margins at the positive-mass nodes
        lower_margins, upper_margins = lower_margins[active], upper_margins[active]
    i_lo = int(np.argmin(lower_margins))
    i_up = int(np.argmin(upper_margins))
    report = SandwichReport(
        min_lower_margin=float(lower_margins[i_lo]),
        min_upper_margin=float(upper_margins[i_up]),
        worst_lower_node=int(active[i_lo]),
        worst_upper_node=int(active[i_up]),
        corridor=corridor,
    )
    if report.min_lower_margin < 0.0:
        raise SandwichViolated("lower", report.worst_lower_node, report.min_lower_margin)
    if report.min_upper_margin < 0.0:
        raise SandwichViolated("upper", report.worst_upper_node, report.min_upper_margin)
    return report
