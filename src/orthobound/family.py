"""Construction and validation of finite orthonormal families.

A family is stored as an immutable (count x dim) matrix with its measured
gram residual, the maximum deviation |<e_i, e_j> - delta_ij| over all pairs.
Validation never trusts the caller: the residual is always recomputed with
the same pairwise summation used by the inner product, so it can be
re-asserted post hoc.

Tolerance guidance: exact-arithmetic constructions validate at 1e-10,
quadrature-assembled families at 1e-8. Inequality checks downstream should
use tolerances at least 10x the family residual; the admissibility identity
check surfaces families that are too loose for a requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyFamily, GramResidualExceeded, RankDeficient
from .space import QuadratureGrid, SampledFunction, Vector, abs2, embed, tree_sum

DEFAULT_TOLERANCE = 1e-10
QUADRATURE_TOLERANCE = 1e-8

# A coordinate counts as "significant" for the phase convention once its
# magnitude clears this fraction of the unit vector's norm.
_PHASE_SIGNIFICANCE = 1e-8


def _gram_check(matrix: np.ndarray, tolerance: float) -> tuple:
    """The gram rule over families (..., count, dim), members as rows: each
    residual max |G - I| of the pairwise-summed Gram matrix, the mask of
    residuals above ``tolerance``, and ``error(row)``, the error of one."""
    products = np.multiply(matrix[..., :, None, :], np.conj(matrix)[..., None, :, :])
    count = matrix.shape[-2]
    deviation = np.abs(tree_sum(products) - np.eye(count))
    flat = deviation.reshape(deviation.shape[:-2] + (-1,))
    residual, worst = flat.max(axis=-1), flat.argmax(axis=-1)
    return residual, residual > tolerance, lambda row=(): GramResidualExceeded(
        float(residual[row]), divmod(int(worst[row]), count), tolerance
    )


def _orthonormal_rows(a: np.ndarray) -> np.ndarray:
    """Rows of Q from the QR factorization of each (dim x count) matrix in ``a``."""
    q, _ = np.linalg.qr(a)
    return np.ascontiguousarray(np.swapaxes(q, -1, -2))


def _coefficients(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """<x, e_i> for every row e_i of ``matrix`` (..., count, dim), pairwise-summed."""
    return tree_sum(np.multiply(np.conj(matrix), x[..., None, :]))


def _validated(matrix: np.ndarray, tolerance: float, real_mode: bool) -> "OrthonormalFamily":
    residual, failed, error = _gram_check(matrix, tolerance)
    if failed:
        raise error()
    return OrthonormalFamily(matrix, float(residual), tolerance, real_mode)


@dataclass(frozen=True)
class OrthonormalFamily:
    """Validated finite orthonormal family {e_i}."""

    matrix: np.ndarray
    gram_residual: float
    tolerance: float
    real_mode: bool = False

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
            raise EmptyFamily("family matrix must be a nonempty 2-D array")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if not 0.0 <= self.gram_residual <= self.tolerance:
            raise ValueError(
                f"gram residual {self.gram_residual!r} outside [0, tolerance]"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def count(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def members(self) -> tuple[Vector, ...]:
        return tuple(Vector(row, self.real_mode) for row in self.matrix)

    def coefficients(self, x: Vector) -> np.ndarray:
        """Per-member coefficients <x, e_i>, pairwise-summed."""
        if x.dim != self.dim:
            raise DimensionMismatch(f"vector dim {x.dim} != family dim {self.dim}")
        return _coefficients(self.matrix, x.coords)

    def combine(self, coeffs: Sequence[complex]) -> Vector:
        """Linear combination sum_i c_i e_i."""
        c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if c.size != self.count:
            raise DimensionMismatch(
                f"{c.size} coefficients for a family of {self.count} vectors"
            )
        out = c @ self.matrix
        return Vector(out, self.real_mode and not np.any(out.imag != 0.0))


def validate_family(
    members: Sequence[Vector], tolerance: float = DEFAULT_TOLERANCE
) -> OrthonormalFamily:
    """Check a candidate family against the identity Gram matrix.

    Raises:
        EmptyFamily: no members were supplied.
        DimensionMismatch: members live in different dimensions.
        GramResidualExceeded: worst pairwise deviation is above ``tolerance``.
    """
    if len(members) == 0:
        raise EmptyFamily("family must contain at least one vector")
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    dim = members[0].dim
    for k, v in enumerate(members):
        if v.dim != dim:
            raise DimensionMismatch(f"member {k} has dim {v.dim}, expected {dim}")
    matrix = np.stack([v.coords for v in members])
    return _validated(matrix, tolerance, all(v.real_mode for v in members))


def _fix_phase(w: np.ndarray) -> np.ndarray:
    """Rotate so the first significant coordinate is real and positive."""
    mags = np.abs(w)
    significant = np.nonzero(mags > _PHASE_SIGNIFICANCE)[0]
    k = int(significant[0]) if significant.size else int(np.argmax(mags))
    pivot = w[k]
    if pivot == 0.0:
        return w
    return w * (np.conj(pivot) / abs(pivot))


def gram_schmidt(
    raw: Sequence[Vector], tolerance: float = DEFAULT_TOLERANCE
) -> OrthonormalFamily:
    """Modified Gram-Schmidt with one reorthogonalization pass.

    Output vectors follow the deterministic phase convention (first
    significant coordinate real positive). Raises :class:`RankDeficient` when
    a vector's residual norm falls below ``tolerance`` times its input norm.
    """
    if len(raw) == 0:
        raise EmptyFamily("no vectors to orthonormalize")
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    dim = raw[0].dim
    accepted: list[np.ndarray] = []
    real_mode = all(v.real_mode for v in raw)
    for k, v in enumerate(raw):
        if v.dim != dim:
            raise DimensionMismatch(f"vector {k} has dim {v.dim}, expected {dim}")
        w = np.array(v.coords, dtype=np.complex128)
        input_norm = math.sqrt(float(tree_sum(abs2(w))))
        for _ in range(2):  # MGS + one reorthogonalization pass
            for u in accepted:
                w = w - tree_sum(w * np.conj(u)) * u
        residual_norm = math.sqrt(float(tree_sum(abs2(w))))
        if residual_norm < tolerance * input_norm or residual_norm == 0.0:
            raise RankDeficient(k, residual_norm, input_norm)
        accepted.append(_fix_phase(w / residual_norm))
    return validate_family(
        [Vector(u, real_mode and not np.any(u.imag != 0.0)) for u in accepted],
        tolerance,
    )


def _check_size(dim: int, count: int) -> None:
    if count < 1 or count > dim:
        raise ValueError(f"need 1 <= count <= dim, got count={count}, dim={dim}")


def random_family(
    dim: int,
    count: int,
    rng: np.random.Generator | int,
    real: bool = False,
    tolerance: float = DEFAULT_TOLERANCE,
) -> OrthonormalFamily:
    """Random orthonormal family via QR of a Gaussian matrix (fuzzing helper)."""
    _check_size(dim, count)
    rng = np.random.default_rng(rng)
    a = rng.standard_normal((dim, count))
    if not real:
        a = a + 1j * rng.standard_normal((dim, count))
    return _validated(_orthonormal_rows(a), tolerance, real)


def trig_samples(count: int, grid: QuadratureGrid) -> list[SampledFunction]:
    """First ``count`` members of the weighted trigonometric system on [0, 2*pi].

    Order: 1/sqrt(2*pi), cos(s)/sqrt(pi), sin(s)/sqrt(pi), cos(2s)/sqrt(pi), ...
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    s = grid.nodes
    out = [SampledFunction(np.full(grid.size, 1.0 / math.sqrt(2.0 * math.pi)), True)]
    k = 1
    while len(out) < count:
        out.append(SampledFunction(np.cos(k * s) / math.sqrt(math.pi), True))
        if len(out) < count:
            out.append(SampledFunction(np.sin(k * s) / math.sqrt(math.pi), True))
        k += 1
    return out


def legendre_samples(count: int, grid: QuadratureGrid) -> list[SampledFunction]:
    """First ``count`` normalized Legendre polynomials sampled on the grid.

    Normalization sqrt((2k+1)/2) makes them orthonormal for the unit density
    on [-1, 1].
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    out = []
    for k in range(count):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        values = np.polynomial.legendre.legval(grid.nodes, coeffs)
        out.append(SampledFunction(values * math.sqrt((2 * k + 1) / 2.0), True))
    return out


def builtin_family(
    kind: str,
    count: int,
    grid: QuadratureGrid | None = None,
    tolerance: float | None = None,
) -> OrthonormalFamily:
    """Built-in families: ``canonical``, ``trig`` (on [0, 2*pi]), ``legendre``.

    The trig and legendre kinds require a quadrature grid fine enough for the
    sampled members to validate; a too-coarse grid raises
    :class:`GramResidualExceeded` rather than silently degrading.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if kind == "canonical":
        tol = DEFAULT_TOLERANCE if tolerance is None else tolerance
        members = [Vector(row, True) for row in np.eye(count)]
        return validate_family(members, tol)
    if kind in ("trig", "legendre"):
        if grid is None:
            raise ValueError(f"{kind} family requires a quadrature grid")
        tol = QUADRATURE_TOLERANCE if tolerance is None else tolerance
        samples = (trig_samples if kind == "trig" else legendre_samples)(count, grid)
        return validate_family([embed(f, grid) for f in samples], tol)
    raise ValueError(f"unknown family kind {kind!r}")
