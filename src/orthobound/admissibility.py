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

Corridors have one type, :class:`ScalarCorridor`: its constructor checks
one corridor, and :meth:`ScalarCorridor.build` makes them over any leading
batch shape without checks. The sign form, like a corridor's Re-sum, is the
real part of :func:`~orthobound.space._inner`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Union

import numpy as np

from .errors import DimensionMismatch, FloatRangeExceeded, IdentityViolation, NonfiniteCorridor
from .family import OrthonormalFamily, _dims, _operands
from .space import Vector, _inner, _raise, abs2, tree_sum

DEFAULT_HYPOTHESIS_TOL = 1e-10

if TYPE_CHECKING:  # naming np.random here would load it into every process
    RngLike = Union[np.random.Generator, int, None]


@dataclass(frozen=True, eq=False)
class ScalarCorridor:
    """Per-index scalar pairs (lo_i, hi_i) with eagerly cached aggregates.

    ``re_sum`` is sum_i Re(hi_i * conj(lo_i)); ``radius`` and ``midpoints``
    are the ball-form data. All three are recomputable from lo/hi, which the
    test suite uses as its oracle. ``sides`` is the stacked (3, count) array
    of hi, lo and the midpoints (lo + hi) / 2, in the order the sign and ball
    forms read them, float64 in real mode (the real parts) and complex128
    otherwise; ``hi``, ``lo`` and ``midpoints`` are read-only views of it.
    Corridors compare and hash by identity.

    The constructor checks one corridor. :meth:`build` makes corridors over
    any leading batch shape without checks, whose aggregates are arrays of
    that shape, and :meth:`nonfinite` is their finiteness rule; the kernels
    read either.
    """

    lo: np.ndarray
    hi: np.ndarray
    real_mode: bool = False
    re_sum: float = field(init=False)
    radius: float = field(init=False)
    midpoints: np.ndarray = field(init=False)
    sides: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dtype = None if self.real_mode else np.complex128
        lo, hi = np.asarray(self.lo, dtype).reshape(-1), np.asarray(self.hi, dtype).reshape(-1)
        if lo.size == 0 or lo.size != hi.size:
            raise ValueError(
                f"corridor sides must be nonempty and equal length, got {lo.size} and {hi.size}"
            )
        agg = self.build(lo, hi)
        _raise(*agg.nonfinite())
        if self.real_mode and not agg.real_mode:
            for name, arr in (("lo", agg.lo), ("hi", agg.hi)):
                if arr.imag.any():
                    raise ValueError(f"real_mode corridor {name} has imaginary parts")
            agg = self.build(agg.lo.real, agg.hi.real)
        self.__dict__.update(  # the frozen fields, set once
            agg.__dict__, real_mode=self.real_mode,
            re_sum=float(agg.re_sum), radius=float(agg.radius),
        )

    @classmethod
    @np.errstate(over="ignore", invalid="ignore")
    def build(cls, lo, hi) -> "ScalarCorridor":
        """The corridors with sides ``lo`` and ``hi``, of one shape (..., count),
        unchecked: sides too large for the aggregates give non-finite ones
        quietly, which :meth:`nonfinite` reports. Real sides give real-mode
        corridors, complex ones complex-mode corridors."""
        dtype = np.result_type(lo, hi, np.float64)  # float64, or complex128 for complex sides
        lo, hi = np.asarray(lo, dtype=dtype), np.asarray(hi, dtype=dtype)
        sides = np.empty(lo.shape[:-1] + (3,) + lo.shape[-1:], dtype=dtype)
        sides[..., 0, :] = hi
        sides[..., 1, :] = lo
        np.multiply(0.5, lo + hi, out=sides[..., 2, :])
        sides.flags.writeable = False
        return cls._of(sides, _inner(hi, lo).real, 0.5 * np.sqrt(tree_sum(abs2(hi - lo))))

    @classmethod
    def _of(cls, sides: np.ndarray, re_sum, radius) -> "ScalarCorridor":
        """The corridor of stacked ``sides`` with the aggregates given, unchecked."""
        c = object.__new__(cls)
        c.__dict__.update(
            lo=sides[..., 1, :], hi=sides[..., 0, :], real_mode=sides.dtype.kind == "f",
            re_sum=re_sum, radius=radius, midpoints=sides[..., 2, :], sides=sides,
        )
        return c

    def complex_twin(self) -> "ScalarCorridor":
        """This corridor with its sides cast to complex128 and its aggregates
        kept, which its complex-mode twin has bit for bit."""
        return self._of(self.sides.astype(np.complex128), self.re_sum, self.radius)

    def nonfinite(self, sides: tuple[str, str] = ("lo", "hi")) -> tuple:
        """The finiteness rule of built corridors: the mask of those whose
        re_sum or radius is not finite, as they are whenever a side is not,
        and ``error(row)``, the error of one, which names the first
        non-finite side by ``sides``."""

        def error(row=()):
            for name, side in zip(sides, (self.lo[row], self.hi[row])):
                if not np.isfinite(side).all():
                    return ValueError(f"corridor {name} must be finite")
            return NonfiniteCorridor(float(self.re_sum[row]), float(self.radius[row]))

        return ~(np.isfinite(self.re_sum) & np.isfinite(self.radius)), error

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

    The batch of one of :func:`_admit`, which raises a failed rule's error
    (ValueError unless ``tol`` is positive and finite) and returns the report
    where a bound raises :class:`HypothesisFailed`. ``holds`` is the
    non-strict sign test cond_i_value >= -tol * max(1, r^2), so boundary
    instances (the extremal constructions) pass. Raises
    :class:`IdentityViolation` when the two forms disagree beyond the
    tolerance band, which signals a family too loose for ``tol``.
    """
    return _admit(_raise, *_operands(x, fam, corridor), tol)[2]()


def _admit(check, x, fam: tuple, corridor, tol: float) -> tuple:
    """The rules of vectors x (..., dim) under a family (rows, gram residual)
    and corridor, in order: through ``check``, the tolerance (positive and
    finite), the corridor size and the vector dim; then :func:`_hypothesis`,
    whose results it returns."""
    rows, gram_residual = fam
    count, size = rows.shape[-2], corridor.hi.shape[-1]
    check(not 0.0 < tol < math.inf, lambda row=(): ValueError("tol must be positive and finite"))
    check(size != count, lambda row=(): DimensionMismatch(
        f"corridor has {size} entries for a family of {count}"))
    check(*_dims(x, rows))
    return _hypothesis(x, rows, corridor, tol, gram_residual)


@np.errstate(over="ignore", invalid="ignore")
def _hypothesis(x, matrix, corridor, tol: float, gram_residual) -> tuple:
    """Kernel of :func:`check_hypothesis` for vectors (..., dim), families
    (..., count, dim) with their gram residuals, under ``corridor`` (a
    :class:`ScalarCorridor`, checked or built).

    Both tests use the band tol * max(1, r^2): the identity gap between the
    two forms must lie within it, and the sign form must not fall below it.
    A vector too large for the float range overflows the forms quietly; under
    a finite band such a row fails a test, since its sign value is -inf or
    NaN or its gap is infinite, and ``report`` checks the forms themselves.
    Returns the sign-form value, the mask of rows that fail either test, and
    ``report(row)``, which raises the row's :class:`FloatRangeExceeded` or
    :class:`IdentityViolation` or returns its :class:`HypothesisReport`.
    """
    if matrix.dtype.kind == "c":
        ends = corridor.sides @ matrix
    else:  # as (matrix^T sides^T)^T, dgemm sums over the members in order as zgemm does;
        # as sides @ matrix it splits the sum at 16+ members (OpenBLAS 0.3.31, AVX-512)
        ends = (matrix.swapaxes(-1, -2) @ corridor.sides.swapaxes(-1, -2)).swapaxes(-1, -2)
    cond_i = _inner(ends[..., 0, :] - x, x - ends[..., 1, :]).real
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
    # a real center too is the complex128 product's: dgemv sums in another order
    center = np.matmul(corridor.midpoints[..., None, :], matrix, dtype=np.complex128)[..., 0, :]
    if matrix.dtype.kind == corridor.midpoints.dtype.kind == "f":
        center = center.real
    u_norm = np.sqrt(tree_sum(abs2(u)))
    radius = corridor.radius
    moves = (u_norm > 0.0) & (radius > 0.0)
    scale = np.where(moves, slack * radius / np.where(moves, u_norm, 1.0), 0.0)
    return center + scale[..., None] * u
