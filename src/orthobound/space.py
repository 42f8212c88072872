"""Scalars, vectors, and the discrete weighted measure space.

Scalars are plain ``complex`` values. Vectors wrap an immutable 1-D
``complex128`` coordinate array together with a ``real_mode`` flag; the flag
rejects nonzero imaginary parts at construction instead of introducing a
separate real type hierarchy. Weighted function spaces are realized at desk
scale by a quadrature grid (nodes, weights, density) plus per-node samples;
``embed`` maps samples into an ordinary coordinate vector so every weighted
inner product is, by construction, an ordinary one.

All reductions go through :func:`tree_sum`, a balanced pairwise summation,
so rounding drift stays bounded and results are reproducible. The tolerance
constants used elsewhere in the package assume this summation scheme.

The numeric kernels of the package (the private functions the public API
wraps) are rank-polymorphic: they take arrays with any leading batch shape,
reduce along the last axis, and give every instance of a batch the same bits
as a call on that instance alone. The scalar API is the batch-of-one case
(an empty batch shape) and the fuzz campaigns the batch-of-many case. Two
rules keep that promise: elementwise ufuncs round each element the same way
whatever the array length, and complex products are written
``np.multiply(a, b)``, never ``a * b`` on a temporary, because numpy may run
the operator in place on a large temporary through a complex loop that
rounds differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatch

Scalar = complex
ScalarLike = Union[complex, float, int]


def tree_sum(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum along ``axis`` with a balanced binary (pairwise) reduction.

    The data is zero-padded to the next power of two so the reduction tree is
    perfect; appending exact zeros does not change the result but makes the
    evaluation order independent of how callers chunk their data.
    """
    a = np.asarray(values)
    if axis not in (-1, a.ndim - 1):
        a = np.moveaxis(a, axis, -1)
    n = a.shape[-1]
    if n == 0:
        return np.zeros(a.shape[:-1], dtype=a.dtype)
    target = 1 << (n - 1).bit_length() if n > 1 else 1
    if target != n:
        padded = np.zeros(a.shape[:-1] + (target,), dtype=a.dtype)
        padded[..., :n] = a
        a = padded
    while a.shape[-1] > 1:
        a = a[..., 0::2] + a[..., 1::2]
    return a[..., 0]


def abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 computed as re^2 + im^2, avoiding the square root of ``abs``."""
    z = np.asarray(z)
    if np.iscomplexobj(z):
        return z.real**2 + z.imag**2
    return z * z


def _frozen_complex(values, *, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True).reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite (no NaN/Inf)")
    arr.flags.writeable = False
    return arr


def _frozen_real(values, *, name: str, nonnegative: bool = False) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True).reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN/Inf)")
    if nonnegative and np.any(arr < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Vector:
    """Finite-dimensional vector over C, or over R when ``real_mode`` is set.

    Coordinates are copied into an immutable ``complex128`` array; instances
    are safe to share across threads.
    """

    coords: np.ndarray
    real_mode: bool = False

    def __post_init__(self):
        arr = _frozen_complex(self.coords, name="coords")
        if self.real_mode and np.any(arr.imag != 0.0):
            raise ValueError("real_mode vector has a nonzero imaginary part")
        object.__setattr__(self, "coords", arr)

    @property
    def dim(self) -> int:
        return self.coords.size

    def __add__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} != dim {other.dim}")
        return Vector(self.coords + other.coords, self.real_mode and other.real_mode)

    def __sub__(self, other: "Vector") -> "Vector":
        if not isinstance(other, Vector):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} != dim {other.dim}")
        return Vector(self.coords - other.coords, self.real_mode and other.real_mode)

    def __rmul__(self, t: ScalarLike) -> "Vector":
        t = complex(t)
        return Vector(t * self.coords, self.real_mode and t.imag == 0.0)

    __mul__ = __rmul__


def inner(x: Vector, y: Vector) -> complex:
    """<x, y> = sum_k x_k * conj(y_k): linear in x, conjugate-linear in y.

    The self inner product is assembled from squared magnitudes, so
    ``inner(x, x)`` is exactly real and nonnegative (hardware FMA contraction
    would otherwise leave dust in the imaginary part).
    """
    if x.dim != y.dim:
        raise DimensionMismatch(f"dim {x.dim} != dim {y.dim}")
    if x is y:
        return complex(float(tree_sum(abs2(x.coords))))
    return complex(_inner(x.coords, y.coords))


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kernel of :func:`inner` over coordinate arrays (..., dim)."""
    return tree_sum(np.multiply(x, np.conj(y)))


def norm_sq(x: Vector) -> float:
    """||x||^2 as a sum of squared component magnitudes; exactly >= 0."""
    return float(tree_sum(abs2(x.coords)))


def norm(x: Vector) -> float:
    return math.sqrt(norm_sq(x))


@dataclass(frozen=True)
class QuadratureGrid:
    """Discrete weighted measure: nodes s_j, weights w_j >= 0, density rho_j >= 0.

    At least one product w_j * rho_j must be strictly positive so the induced
    inner product is not identically zero.
    """

    nodes: np.ndarray
    weights: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        nodes = _frozen_real(self.nodes, name="nodes")
        weights = _frozen_real(self.weights, name="weights", nonnegative=True)
        density = _frozen_real(self.density, name="density", nonnegative=True)
        if not (nodes.size == weights.size == density.size):
            raise ValueError(
                f"length mismatch: nodes {nodes.size}, weights {weights.size}, "
                f"density {density.size}"
            )
        if not np.any(weights * density > 0.0):
            raise ValueError("all products w_j * rho_j vanish")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "density", density)

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def point_mass(self) -> np.ndarray:
        """Per-node measure w_j * rho_j."""
        return self.weights * self.density


@dataclass(frozen=True)
class SampledFunction:
    """Function values sampled at the nodes of some grid, one value per node."""

    values: np.ndarray
    real_mode: bool = False

    def __post_init__(self):
        arr = _frozen_complex(self.values, name="values")
        if self.real_mode and np.any(arr.imag != 0.0):
            raise ValueError("real_mode function has a nonzero imaginary part")
        object.__setattr__(self, "values", arr)

    @property
    def size(self) -> int:
        return self.values.size


def embed(f: SampledFunction, grid: QuadratureGrid) -> Vector:
    """Coordinate vector k -> f(s_k) * sqrt(w_k * rho_k).

    This realizes the weighted space isometrically: by construction the
    weighted inner product of two sampled functions is literally the plain
    inner product of their embeddings; see :func:`grid_inner`.
    """
    if f.size != grid.size:
        raise DimensionMismatch(
            f"function has {f.size} samples but grid has {grid.size} nodes"
        )
    return Vector(f.values * np.sqrt(grid.point_mass), real_mode=f.real_mode)


def grid_inner(f: SampledFunction, g: SampledFunction, grid: QuadratureGrid) -> complex:
    """sum_j w_j rho_j f(s_j) conj(g(s_j)), evaluated through the embedding.

    Sharing the embedding code path makes the isometry
    ``inner(embed(f), embed(g)) == grid_inner(f, g, grid)`` hold exactly, not
    merely up to rounding.
    """
    return inner(embed(f, grid), embed(g, grid))


def gauss_legendre_grid(
    n: int,
    a: float = -1.0,
    b: float = 1.0,
    density: Sequence[float] | None = None,
) -> QuadratureGrid:
    """Gauss-Legendre nodes/weights mapped affinely from [-1, 1] to [a, b]."""
    if n < 1:
        raise ValueError("need at least one quadrature node")
    if not (b > a):
        raise ValueError("interval must satisfy b > a")
    t, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (b - a) * t + 0.5 * (b + a)
    weights = 0.5 * (b - a) * w
    rho = np.ones(n) if density is None else np.asarray(density, dtype=np.float64)
    return QuadratureGrid(nodes, weights, rho)
