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

The kernels take float64 operands for an all-real instance (family, vectors
and corridors in real mode: the family's real rows, ``coords.real``,
``sides.real``), else complex128, and give the complex path's bits and types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import DimensionMismatch

Scalar = complex
ScalarLike = Union[complex, float, int]


# The two halves of every level of the tree: even and odd positions.
_EVEN = (Ellipsis, slice(0, None, 2))
_ODD = (Ellipsis, slice(1, None, 2))


def tree_sum(values: np.ndarray) -> np.ndarray:
    """Sum along the last axis with a balanced binary (pairwise) reduction.

    The data is zero-padded to the next power of two so the reduction tree is
    perfect; appending exact zeros does not change the result but makes the
    evaluation order independent of how callers chunk their data.
    """
    a = np.asarray(values)
    del values  # a large input passed without a name is freed after its first level
    n = a.shape[-1]
    if n & (n - 1):  # not a power of two
        padded = np.zeros(a.shape[:-1] + (1 << n.bit_length(),), dtype=a.dtype)
        padded[..., :n] = a
        a = padded
    elif n == 0:
        return np.zeros(a.shape[:-1], dtype=a.dtype)
    while a.shape[-1] > 1:
        a = a[_EVEN] + a[_ODD]
    return a[..., 0]


def _real_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a_k b_k of float64 arrays as the real part of the complex128 sum:
    numpy's complex product (a fused multiply-add) is +0.0 where a factor is
    zero, where the float64 one may be -0.0, which only an all -0.0 sum keeps."""
    total = tree_sum(np.multiply(a, b))
    if np.count_nonzero(total) < total.size:
        total = np.where(((a == 0.0) | (b == 0.0)).any(axis=-1) & (total == 0.0), 0.0, total)
    return total


def abs2(z: np.ndarray) -> np.ndarray:
    """|z|^2 computed as re^2 + im^2, avoiding the square root of ``abs``."""
    z = np.asarray(z)
    if z.dtype.kind == "c":
        return np.square(z.real) + np.square(z.imag)
    return z * z


def _nonfinite(values: np.ndarray, name: str = "coords") -> tuple:
    """The finiteness rule over arrays (..., n): the mask of rows holding a
    NaN or an Inf, and ``error(row)``, the error of one such row."""
    failed = ~np.isfinite(values).all(axis=-1)
    return failed, lambda row=(): ValueError(f"{name} must be finite (no NaN/Inf)")


def _frozen(values, *, name: str, dtype=np.complex128, nonnegative: bool = False) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True).reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    failed, error = _nonfinite(arr, name)
    if failed:
        raise error()
    if nonnegative and np.any(arr < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Vector:
    """Finite-dimensional vector over C, or over R when ``real_mode`` is set.

    Coordinates are copied into an immutable ``complex128`` array; instances
    are safe to share across threads, and compare and hash by identity.
    """

    coords: np.ndarray
    real_mode: bool = False

    def __post_init__(self):
        arr = _frozen(self.coords, name="coords")
        if self.real_mode and arr.imag.any():
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


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Discrete weighted measure: nodes s_j, weights w_j >= 0, density rho_j >= 0.

    At least one product w_j * rho_j must be strictly positive so the induced
    inner product is not identically zero. Grids compare and hash by identity.
    """

    nodes: np.ndarray
    weights: np.ndarray
    density: np.ndarray
    point_mass: np.ndarray = field(init=False, repr=False)  # per-node measure w_j * rho_j
    root_mass: np.ndarray = field(init=False, repr=False)  # sqrt(w_j * rho_j), for embed
    active: np.ndarray = field(init=False, repr=False)  # the j with w_j * rho_j > 0

    def __post_init__(self):
        nodes = _frozen(self.nodes, name="nodes", dtype=np.float64)
        weights = _frozen(self.weights, name="weights", dtype=np.float64, nonnegative=True)
        density = _frozen(self.density, name="density", dtype=np.float64, nonnegative=True)
        if not (nodes.size == weights.size == density.size):
            raise ValueError(
                f"length mismatch: nodes {nodes.size}, weights {weights.size}, "
                f"density {density.size}"
            )
        mass = weights * density
        active = np.flatnonzero(mass > 0.0)
        if active.size == 0:
            raise ValueError("all products w_j * rho_j vanish")
        root_mass = np.sqrt(mass)
        for arr in (mass, root_mass, active):
            arr.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "point_mass", mass)
        object.__setattr__(self, "root_mass", root_mass)
        object.__setattr__(self, "active", active)

    @property
    def size(self) -> int:
        return self.nodes.size


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Function values sampled at the nodes of some grid, one value per node.

    The samples are copied into one read-only, C-contiguous array: float64 in
    real mode, where complex samples must have zero imaginary parts and only
    their real parts are kept (so the sign of a -0.0 imaginary part is not),
    else complex128. Sampled functions compare and hash by identity.
    """

    values: np.ndarray
    real_mode: bool = False

    def __post_init__(self):
        arr = _frozen(self.values, name="values")
        if self.real_mode:
            if np.any(arr.imag != 0.0):
                raise ValueError("real_mode function has a nonzero imaginary part")
            arr = np.array(arr.real)
            arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def size(self) -> int:
        return self.values.size


def embed(f: SampledFunction, grid: QuadratureGrid) -> Vector:
    """Coordinate vector k -> f(s_k) * sqrt(w_k * rho_k).

    This realizes the weighted space isometrically: by construction the
    weighted inner product of two sampled functions is literally the plain
    inner product of their embeddings; see :func:`grid_inner`. It is the
    batch of one of :func:`_embedded`, the kernel that also embeds a whole
    family in one pass, so a family member's coordinates equal its
    ``embed`` bit for bit.
    """
    _require_samples(f, grid)
    return Vector(_embedded(f.values, grid), real_mode=f.real_mode)


def _require_samples(f: SampledFunction, grid: QuadratureGrid) -> None:
    """The size rule of the embedding: one sample per node."""
    if f.size != grid.size:
        raise DimensionMismatch(
            f"function has {f.size} samples but grid has {grid.size} nodes"
        )


def _embedded(values: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Kernel of :func:`embed` over sample arrays (..., grid.size), float64
    or complex128: float64 samples give the real parts of the products of
    their complex128 casts bit for bit. A product beyond the float range
    overflows quietly: the finiteness rule of the caller reports it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.multiply(values, grid.root_mass)


def grid_inner(f: SampledFunction, g: SampledFunction, grid: QuadratureGrid) -> complex:
    """sum_j w_j rho_j f(s_j) conj(g(s_j)), evaluated through the embedding.

    Sharing the embedding code path makes the isometry
    ``inner(embed(f), embed(g)) == grid_inner(f, g, grid)`` hold exactly, not
    merely up to rounding.
    """
    return inner(embed(f, grid), embed(g, grid))


# Newton from Tricomi's guess reaches the 2e-16 step size in 3-4 steps for
# every n; the cap only turns a regression into an error instead of a hang.
_NEWTON_STEP_TOL = 2e-16
_NEWTON_MAX_STEPS = 10
# Solved rules kept by _gauss_legendre: 16 bytes a node, so 32 KiB at n = 2048.
_RULES_KEPT = 16


def _legendre_newton(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) for |x| < 1, by the three-term recurrence in O(n) per point.

    Each step is ``((2k + 1) x P_k - k P_{k-1}) / (k + 1)``, evaluated in place
    in that order through three rotating buffers, so no step allocates."""
    p_prev = np.ones_like(x)
    p = x.copy()
    t = np.empty_like(x)
    for k in range(1, n):
        np.multiply(x, 2 * k + 1, out=t)
        t *= p
        p_prev *= k  # P_{k-1} is not read again
        t -= p_prev
        t /= k + 1
        p_prev, p, t = p, t, p_prev
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=_RULES_KEPT)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point rule on [-1, 1], read-only,
    solved once per ``n`` (the _RULES_KEPT most recently used are kept).

    Newton's method on the recurrence from Tricomi's asymptotic guess, on the
    positive roots only (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013);
    the negative half is their mirror image.
    """
    m = n // 2
    k = np.arange(1, m + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2)) * (1.0 - (n - 1) / (8.0 * n**3))
    for _ in range(_NEWTON_MAX_STEPS):
        p, dp = _legendre_newton(n, x)
        step = p / dp
        x -= step
        if not np.any(np.abs(step) > _NEWTON_STEP_TOL):
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes for n={n} did not converge")
    x = np.concatenate((x, np.zeros(n % 2)))  # an odd-degree P_n has the root 0
    _, dp = _legendre_newton(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    rule = (
        np.concatenate((-x[:m], x[m:], x[:m][::-1])),
        np.concatenate((w[:m], w[m:], w[:m][::-1])),
    )
    for arr in rule:
        arr.flags.writeable = False
    return rule


def gauss_legendre_grid(n: int, a: float = -1.0, b: float = 1.0) -> QuadratureGrid:
    """Gauss-Legendre nodes/weights mapped affinely from [-1, 1] to [a, b],
    with unit density.

    The positive roots of P_n start from Tricomi's asymptotic guess
    ``cos(pi (4k - 1) / (4n + 2)) (1 - (n - 1) / (8 n^3))`` and are refined by
    vectorised Newton steps, each evaluating P_{n-1} and P_n by the
    three-term recurrence, until the largest step is at most 2e-16. The
    weights are ``2 / ((1 - x)(1 + x) P_n'(x)^2)`` at the converged roots,
    and both halves are mirrored, so the nodes are exactly antisymmetric (0
    in the middle for odd n) and the weights exactly symmetric on [-1, 1].
    This costs O(n^2) time and O(n) memory, where numpy's ``leggauss``
    eigensolve costs O(n^3) and O(n^2): a cold n = 2048 solve takes about
    0.045 s and 0.18 MB of arrays instead of about 0.8 s and 33 MB (2-vCPU
    Xeon). The rule on [-1, 1] is solved once per n and kept, so a later grid
    of the same size, on any interval, is a memo hit that only maps it.
    Against a 50-digit oracle the node errors stay within 2e-16, and the
    relative weight errors within 1e-13 for n <= 64 and about 6e-11 at
    n = 2048 (``leggauss``: 1e-12 and 6e-8).

    The interval is mapped through ``0.5*b - 0.5*a`` and ``0.5*a + 0.5*b``,
    so intervals as wide as the float range do not overflow.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"number of nodes must be an integer, got {n!r}")
    n = int(n)
    if n < 1:
        raise ValueError("need at least one quadrature node")
    if not (b > a):
        raise ValueError("interval must satisfy b > a")
    t, w = _gauss_legendre(n)
    half = 0.5 * b - 0.5 * a
    nodes = half * t + (0.5 * a + 0.5 * b)
    weights = half * w
    return QuadratureGrid(nodes, weights, np.ones(n))
