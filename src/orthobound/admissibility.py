"""Scalar corridors and the two equivalent admissibility conditions.

A corridor assigns each family index a pair of scalars (phi_i, Phi_i). A
vector x is admissible when either of two equivalent conditions holds:

  sign form:  Re< sum_i Phi_i e_i - x, x - sum_i phi_i e_i >  >=  0
  ball form:  || x - sum_i (phi_i + Phi_i)/2 e_i ||  <=  radius

with radius = (1/2) * (sum_i |Phi_i - phi_i|^2)^(1/2). For an exactly
orthonormal family the two quantities are linked by the algebraic identity

  sign_value == radius^2 - ball_residual^2,

which this module asserts on every evaluation; a violation beyond the
tolerance band means the family's gram residual is too large for the
requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .errors import DimensionMismatch, FloatRangeExceeded, IdentityViolation, NonfiniteCorridor
from .family import OrthonormalFamily
from .space import Vector, abs2, tree_sum

DEFAULT_HYPOTHESIS_TOL = 1e-10

RngLike = Union[np.random.Generator, int, None]


class Corridors(NamedTuple):
    """Corridor sides and their aggregates along leading batch axes.

    The batched counterpart of :class:`ScalarCorridor`, with the same
    attribute names so the kernels accept either. ``sides`` (..., 3, count)
    holds hi, lo and the midpoints (lo + hi) / 2, written once in the order
    the sign and ball forms read them; ``hi``, ``lo`` and ``midpoints`` are
    read-only views of it. The aggregates ``re_sum`` and ``radius`` have the
    leading shape.
    """

    sides: np.ndarray
    re_sum: np.ndarray
    radius: np.ndarray

    @property
    def hi(self) -> np.ndarray:
        return self.sides[..., 0, :]

    @property
    def lo(self) -> np.ndarray:
        return self.sides[..., 1, :]

    @property
    def midpoints(self) -> np.ndarray:
        return self.sides[..., 2, :]

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")
    def build(cls, lo, hi) -> "Corridors":
        """The corridors with sides ``lo`` and ``hi``, of one shape; sides too
        large for the aggregates give non-finite ones quietly, which
        :meth:`nonfinite` reports."""
        lo = np.asarray(lo, dtype=np.complex128)
        hi = np.asarray(hi, dtype=np.complex128)
        sides = np.empty(lo.shape[:-1] + (3,) + lo.shape[-1:], dtype=np.complex128)
        sides[..., 0, :] = hi
        sides[..., 1, :] = lo
        np.multiply(0.5, lo + hi, out=sides[..., 2, :])
        sides.flags.writeable = False
        re_sum = tree_sum(np.multiply(hi, np.conj(lo)).real)
        return cls(sides, re_sum, 0.5 * np.sqrt(tree_sum(abs2(hi - lo))))

    def nonfinite(self, sides: tuple[str, str] = ("lo", "hi")) -> tuple:
        """The finiteness rule: the mask of corridors whose re_sum or radius is
        not finite, as they are whenever a side is not, and ``error(row)``,
        the error of one, which names the first non-finite side by ``sides``."""

        def error(row=()):
            for name, side in zip(sides, (self.lo[row], self.hi[row])):
                if not np.isfinite(side).all():
                    return ValueError(f"corridor {name} must be finite")
            return NonfiniteCorridor(float(self.re_sum[row]), float(self.radius[row]))

        return ~(np.isfinite(self.re_sum) & np.isfinite(self.radius)), error


@dataclass(frozen=True)
class ScalarCorridor:
    """Per-index scalar pairs (lo_i, hi_i) with eagerly cached aggregates.

    ``re_sum`` is sum_i Re(hi_i * conj(lo_i)); ``radius`` and ``midpoints``
    are the ball-form data. All three are recomputable from lo/hi, which the
    test suite uses as its oracle. It is the batch of one of
    :class:`Corridors`: ``sides`` is its stacked (3, count) array, and
    ``lo``, ``hi`` and ``midpoints`` are read-only views of it.
    """

    lo: np.ndarray
    hi: np.ndarray
    real_mode: bool = False
    re_sum: float = field(init=False)
    radius: float = field(init=False)
    midpoints: np.ndarray = field(init=False)
    sides: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.complex128).reshape(-1)
        hi = np.asarray(self.hi, dtype=np.complex128).reshape(-1)
        if lo.size == 0 or lo.size != hi.size:
            raise ValueError(
                f"corridor sides must be nonempty and equal length, got {lo.size} and {hi.size}"
            )
        agg = Corridors.build(lo, hi)
        failed, error = agg.nonfinite()
        if failed:
            raise error()
        if self.real_mode:
            for name, arr in (("lo", lo), ("hi", hi)):
                if arr.imag.any():
                    raise ValueError(f"real_mode corridor {name} has imaginary parts")
        object.__setattr__(self, "sides", agg.sides)
        object.__setattr__(self, "hi", agg.hi)
        object.__setattr__(self, "lo", agg.lo)
        object.__setattr__(self, "midpoints", agg.midpoints)
        object.__setattr__(self, "re_sum", float(agg.re_sum))
        object.__setattr__(self, "radius", float(agg.radius))

    @property
    def size(self) -> int:
        return self.lo.size

    def scaled(self, t: float) -> "ScalarCorridor":
        """Corridor for the scaled instance t*x (t real > 0)."""
        return ScalarCorridor(t * self.lo, t * self.hi, self.real_mode)


@dataclass(frozen=True)
class HypothesisReport:
    """Both admissibility forms evaluated on one instance."""

    cond_i_value: float
    cond_ii_residual: float
    radius: float
    holds: bool


def check_hypothesis(
    x: Vector,
    fam: OrthonormalFamily,
    corridor: ScalarCorridor,
    tol: float = DEFAULT_HYPOTHESIS_TOL,
) -> HypothesisReport:
    """Evaluate the sign form and the ball form, asserting their identity.

    ``holds`` is the non-strict sign test cond_i_value >= -tol * max(1, r^2),
    so boundary instances (the extremal constructions) pass. Raises
    :class:`IdentityViolation` when the two forms disagree beyond the
    tolerance band, which signals a family too loose for ``tol``.
    """
    if corridor.size != fam.count:
        raise DimensionMismatch(
            f"corridor has {corridor.size} entries for a family of {fam.count}"
        )
    if x.dim != fam.dim:
        raise DimensionMismatch(f"vector dim {x.dim} != family dim {fam.dim}")
    return _hypothesis(x.coords, fam.matrix, corridor, tol, fam.gram_residual)[2]()


@np.errstate(over="ignore", invalid="ignore")
def _hypothesis(x, matrix, corridor, tol: float, gram_residual) -> tuple:
    """Kernel of :func:`check_hypothesis` for vectors (..., dim), families
    (..., count, dim) with their gram residuals, under ``corridor`` (a
    :class:`ScalarCorridor` or :class:`Corridors`).

    Both tests use the band tol * max(1, r^2): the identity gap between the
    two forms must lie within it, and the sign form must not fall below it.
    A vector too large for the float range overflows the forms quietly; under
    a finite band such a row fails a test, since its sign value is -inf or
    NaN or its gap is infinite, and ``report`` checks the forms themselves.
    Returns the sign-form value, the mask of rows that fail either test, and
    ``report(row)``, which raises the row's :class:`FloatRangeExceeded` or
    :class:`IdentityViolation` or returns its :class:`HypothesisReport`.
    """
    ends = corridor.sides @ matrix
    cond_i = tree_sum(np.multiply(ends[..., 0, :] - x, np.conj(x - ends[..., 1, :])).real)
    residual = np.sqrt(tree_sum(abs2(x - ends[..., 2, :])))
    r2 = corridor.radius * corridor.radius
    gap = cond_i - (r2 - residual * residual)
    band = tol * np.maximum(1.0, r2)
    broken = abs(gap) > band
    holds = cond_i >= -band

    def report(row=()):
        sign, ball = float(cond_i[row]), float(residual[row])
        if not (math.isfinite(sign) and math.isfinite(ball)):
            raise FloatRangeExceeded(
                f"admissibility forms overflow the float range: sign value {sign!r}, "
                f"ball residual {ball!r}"
            )
        if broken[row]:
            gram = np.asarray(gram_residual)[row]
            raise IdentityViolation(float(gap[row]), float(band[row]), float(gram))
        radius = np.asarray(corridor.radius)[row]
        return HypothesisReport(sign, ball, float(radius), bool(holds[row]))

    return cond_i, broken | ~holds, report


@dataclass(frozen=True)
class CorridorSpec:
    """Recipe for sampling random corridors.

    Centers are drawn uniformly from [center_low, center_high] (with a random
    phase in complex mode); per-index half-widths uniformly from
    [0, width_high]. With the default ranges every sampled corridor has
    re_sum > 0; widening the center range across zero produces corridors that
    downstream bounds must reject.
    """

    mode: str = "complex"
    center_low: float = 1.0
    center_high: float = 2.0
    width_high: float = 0.9

    def __post_init__(self):
        if self.mode not in ("real", "complex"):
            raise ValueError(f"unknown corridor mode {self.mode!r}")
        for name in ("center_low", "center_high", "width_high"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.center_low <= self.center_high:
            raise ValueError("center_low must not exceed center_high")
        if not math.isfinite(self.center_high - self.center_low):
            raise ValueError("center_high - center_low must be finite")
        if self.width_high < 0.0:
            raise ValueError("width_high must be nonnegative")

    @cached_property
    def _ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """(low, high - low) per part of a draw, as a column each: centers,
        widths, and in complex mode a phase after each."""
        ranges = [(self.center_low, self.center_high), (0.0, self.width_high)]
        if self.mode == "complex":
            ranges = [ranges[0], (0.0, 2.0 * math.pi), ranges[1], (0.0, 2.0 * math.pi)]
        return np.array([[lo] for lo, _ in ranges]), np.array([[hi - lo] for lo, hi in ranges])

    @property
    def _parts(self) -> int:
        """Rows of unit uniforms one corridor draws: 2 in real mode, 4 in complex."""
        return 2 if self.mode == "real" else 4

    def sample(self, count: int, rng: RngLike = None) -> ScalarCorridor:
        lo, hi = self._sides(np.random.default_rng(rng).random((self._parts, count)))
        return ScalarCorridor(lo, hi, real_mode=self.mode == "real")

    def _sides(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Corridor sides (lo, hi) from unit uniforms ``u`` (..., parts, count).

        Part j of a draw is low_j + (high_j - low_j) * u, element by element
        the arithmetic of ``Generator.uniform(low_j, high_j)``, so the sides
        equal those of drawing each part with ``uniform`` from the same stream.
        """
        low, scale = self._ranges
        v = low + scale * u
        if self.mode == "real":
            centers, widths = v[..., 0, :], v[..., 1, :]
        else:  # the magnitudes (parts 0 and 2) times their phases (parts 1 and 3)
            polar = np.multiply(v[..., 0::2, :], np.exp(1j * v[..., 1::2, :]))
            centers, widths = polar[..., 0, :], polar[..., 1, :]
        return centers - widths, centers + widths


def admissible_point(
    fam: OrthonormalFamily,
    corridor: ScalarCorridor,
    rng: RngLike,
    slack: float,
) -> Vector:
    """Corridor center plus a random full-space direction of norm slack*radius.

    The returned vector satisfies the ball form by construction (slack in
    [0, 1]), hence also the sign form.
    """
    if not 0.0 <= slack <= 1.0:
        raise ValueError("slack must lie in [0, 1]")
    rng = np.random.default_rng(rng)
    real = fam.real_mode and corridor.real_mode
    u = rng.standard_normal(fam.dim)
    if not real:
        u = u + 1j * rng.standard_normal(fam.dim)
    return Vector(_admissible_points(fam.matrix, corridor, u, slack), real_mode=real)


def _admissible_points(matrix, corridor, u, slack):
    """Kernel of :func:`admissible_point`: the corridor center plus the
    direction ``u`` (..., dim) rescaled to norm slack * radius."""
    center = (corridor.midpoints[..., None, :] @ matrix)[..., 0, :]
    u_norm = np.sqrt(tree_sum(abs2(u)))
    radius = corridor.radius
    moves = (u_norm > 0.0) & (radius > 0.0)
    scale = np.where(moves, slack * radius / np.where(moves, u_norm, 1.0), 0.0)
    return center + scale[..., None] * u
