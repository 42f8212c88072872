"""Construction and validation of finite orthonormal families.

A family is stored as an immutable (count x dim) matrix, float64 in real
mode, with its measured gram residual, max |<e_i, e_j> - delta_ij|.
Validation never trusts the caller: the residual is always recomputed with
the same pairwise summation used by the inner product, so it can be
re-asserted post hoc. The gram rule sums the Gram matrix in blocks of member
rows, so validating a family of ``count`` members in ``dim`` coordinates
takes O(count * dim) working memory, not a count x count x dim tensor.

A basis embedded on a grid is embedded and validated once per process: an
``lru_cache`` of the last 64 families keys each on its tolerance and the
immutable bytes it was embedded from, each member's samples with its real
flag and the grid's root masses. A later call whose bytes equal those
returns that same immutable family; the embedding, finiteness and gram rules
run on a miss only. The members' samples are stacked once too: a second
``lru_cache`` of 64 read-only tables keys each on the samples alone, so a miss
on a basis already stacked (another grid or tolerance) and every
:func:`~orthobound.integral.sandwich_check` on it read that table.

Tolerance guidance: exact-arithmetic constructions validate at 1e-10,
quadrature-assembled families at 1e-8. Inequality checks downstream should
use tolerances at least 10x the family residual; the admissibility identity
check surfaces families that are too loose for a requested tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyFamily, GramResidualExceeded
from .space import (
    QuadratureGrid,
    SampledFunction,
    Vector,
    _embedded,
    _inner,
    _nonfinite,
    _raise,
    _require_samples,
    _sealed,
    tree_sum,
)

try:  # the QR gufuncs np.linalg.qr wraps: a private module, named so since numpy 2
    from numpy.linalg._umath_linalg import qr_r_raw as _qr_r_raw, qr_reduced as _qr_reduced
except ImportError:
    _qr_r_raw = _qr_reduced = None

DEFAULT_TOLERANCE = 1e-10
QUADRATURE_TOLERANCE = 1e-8


@lru_cache(maxsize=64)
def _identity(count: int) -> np.ndarray:
    """The read-only identity of size ``count``, built once per size."""
    eye = np.eye(count)
    eye.flags.writeable = False
    return eye


# Bytes of pairwise products the gram rule holds at once: 1 MiB. A
# 200-bundle campaign chunk (4 members in 8 complex dimensions, 400 KiB of
# products) is one block; a 16 x 2048 real basis (4 MiB) is four.
_GRAM_BLOCK_BYTES = 1 << 20


@np.errstate(over="ignore", invalid="ignore")
def _gram_check(matrix: np.ndarray, tolerance: float) -> tuple:
    """The gram rule over families (..., count, dim), members as rows: each
    residual max |G - I| of the pairwise-summed Gram matrix, the mask of
    residuals not within ``tolerance``, and ``error(row)``, the error of one.
    A NaN or Inf entry, or products that overflow, give an Inf or NaN
    residual, which fails quietly."""
    count = matrix.shape[-2]
    conj = np.conj(matrix)[..., None, :, :]
    # The products of a block of member rows with every member, (..., rows,
    # count, dim), hold at most _GRAM_BLOCK_BYTES (a block holds at least one
    # row), so the rule's working memory is O(count * dim) beyond the
    # (..., count, count) Gram. Products are elementwise and tree_sum sums
    # each row on its own, so the Gram is the one-tensor Gram bit for bit. A
    # family within the budget is one block: one call, and no copy. Passed
    # without a name, a block's products are freed once their first level is
    # summed.
    rows = max(1, _GRAM_BLOCK_BYTES // max(1, conj.nbytes))
    blocks = [
        tree_sum(np.multiply(matrix[..., i:i + rows, None, :], conj))
        for i in range(0, count, rows)
    ]
    gram = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-2)
    deviation = np.abs(gram - _identity(count))
    flat = deviation.reshape(deviation.shape[:-2] + (-1,))
    residual = flat.max(axis=-1)
    return residual, ~(residual <= tolerance), lambda row=(): GramResidualExceeded(
        float(residual[row]), divmod(int(flat[row].argmax()), count), tolerance
    )


def _raise_qr_error(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


@np.errstate(call=_raise_qr_error, invalid="call", over="ignore", divide="ignore", under="ignore")
def _qr(a: np.ndarray) -> np.ndarray:
    """Q of the reduced QR factorization of each (dim x count) matrix in
    ``a``, float64 or complex128: ``np.linalg.qr(a)[0]`` bit for bit.

    It calls the two gufuncs ``np.linalg.qr`` runs, ``qr_r_raw`` (Householder
    vectors and their scalars) then ``qr_reduced`` (Q), under the same error
    state, so a failure LAPACK flags raises ``LinAlgError`` as it does there;
    it skips the wrapper's checks and the triangle R it builds and discards.
    Without the private module it calls ``np.linalg.qr``.
    """
    if _qr_r_raw is None:
        return np.linalg.qr(a)[0]
    # qr_r_raw overwrites its argument with the Householder vectors
    complex_input = np.iscomplexobj(a)
    a = np.array(a, dtype=np.complex128 if complex_input else np.float64)
    raw, reduced = ("D->D", "DD->D") if complex_input else ("d->d", "dd->d")
    tau = _qr_r_raw(a, signature=raw)
    return _qr_reduced(a, tau, signature=reduced)


def _orthonormal_rows(a: np.ndarray) -> np.ndarray:
    """Rows of Q from the QR factorization of each (dim x count) matrix in
    ``a``, by :func:`_qr`: the scalar API's one matrix and a campaign's stack."""
    return np.ascontiguousarray(np.swapaxes(_qr(a), -1, -2))


def _coefficients(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """<x, e_i> for every row e_i of ``matrix`` (..., count, dim), pairwise-summed:
    conj(<e_i, x>), summed as <conj(e_i), conj(x)>, whose products conj(e_ik) x_k
    keep the sign of a zero imaginary part that conjugating the sum would flip
    (``ndarray.conj`` of a float64 array is the array itself)."""
    return _inner(matrix.conj(), x.conj()[..., None, :])


def _real_lane(*fields) -> bool:
    """The lane rule: an instance's kernels read float64 operands if all its
    fields are real (in real mode, or scalars with no imaginary part)."""
    for f in fields:
        if not (f.real_mode if hasattr(f, "real_mode") else complex(f).imag == 0):
            return False
    return True


def _operands(*fields) -> list:
    """Kernel operands of an instance's fields as stored: vector coordinates,
    (family matrix, gram residual), corridors, 0-d scalars. Out of the lane
    (:func:`_real_lane`), real ones are cast to complex128, a real corridor
    by its ``complex_twin``, which keeps its aggregates."""
    real = _real_lane(*fields)
    out = []
    for f in fields:
        if isinstance(f, Vector):
            out.append(f.coords if real else f.coords.astype(np.complex128, copy=False))
        elif isinstance(f, OrthonormalFamily):
            m = f.matrix if real else f.matrix.astype(np.complex128, copy=False)
            out.append((m, f.gram_residual))
        elif hasattr(f, "real_mode"):  # a corridor
            out.append(f.complex_twin() if f.real_mode and not real else f)
        else:
            out.append(np.asarray(complex(f).real if real else complex(f)))
    return out


def _dims(x: np.ndarray, rows: np.ndarray) -> tuple:
    """The vector-dim rule of vectors (..., n) under family rows (..., dim)."""
    n, dim = x.shape[-1], rows.shape[-1]
    return n != dim, lambda row=(): DimensionMismatch(f"vector dim {n} != family dim {dim}")


@dataclass(frozen=True, eq=False)
class OrthonormalFamily:
    """Validated finite orthonormal family {e_i}, the rows of ``matrix``.

    The constructor applies, in order, the tolerance rule (positive and
    finite), the shape rule, the real rule (no imaginary part in real mode)
    and the gram rule on its read-only copy of the matrix, float64 and
    C-contiguous in real mode, else complex128, and stores both. Families
    compare and hash by identity.
    """

    matrix: np.ndarray
    tolerance: float = DEFAULT_TOLERANCE
    real_mode: bool = False
    gram_residual: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive")
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
            raise EmptyFamily("family matrix must be a nonempty 2-D array")
        if self.real_mode and np.iscomplexobj(m) and np.any(m.imag != 0.0):
            raise ValueError("real_mode family has a nonzero imaginary part")
        m = np.array(m.real, np.float64, order="C") if self.real_mode else np.array(m, complex)
        residual, *rule = _gram_check(m, self.tolerance)
        _raise(*rule)
        m.setflags(write=False)  # setflags costs a third of flags.writeable on a small family
        self.__dict__.update(matrix=m, gram_residual=float(residual))  # the frozen fields

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
        """Per-member coefficients <x, e_i>, pairwise-summed, in their lane."""
        coords, (rows, _) = _operands(x, self)
        _raise(*_dims(coords, rows))
        return _coefficients(coords, rows).astype(np.complex128, copy=False)

    def combine(self, coeffs: Sequence[complex]) -> Vector:
        """Linear combination sum_i c_i e_i."""
        c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
        if c.size != self.count:
            raise DimensionMismatch(
                f"{c.size} coefficients for a family of {self.count} vectors"
            )
        out = c @ self.matrix
        return Vector(out, self.real_mode and not np.any(out.imag != 0.0))


def _require_members(members: Sequence) -> None:
    """The empty-family rule, for members given as vectors or functions."""
    if len(members) == 0:
        raise EmptyFamily("family must contain at least one vector")


def validate_family(
    members: Sequence[Vector], tolerance: float = DEFAULT_TOLERANCE
) -> OrthonormalFamily:
    """Check a candidate family against the identity Gram matrix.

    Raises:
        EmptyFamily: no members were supplied.
        DimensionMismatch: members live in different dimensions.
        GramResidualExceeded: worst pairwise deviation is above ``tolerance``.
    """
    _require_members(members)
    dim = members[0].dim
    for k, v in enumerate(members):
        if v.dim != dim:
            raise DimensionMismatch(f"member {k} has dim {v.dim}, expected {dim}")
    matrix = np.stack([v.coords for v in members])
    return OrthonormalFamily(matrix, tolerance, all(v.real_mode for v in members))


# Validated embedded families kept by _validated_family, and stacked sample
# tables kept by _stacked_samples, the least recently used evicted first.
_FAMILIES_KEPT = 64


@lru_cache(maxsize=_FAMILIES_KEPT)
def _stacked_samples(samples: tuple) -> np.ndarray:
    """The (count, nodes) table of members given as (sample bytes, real
    flag), float64 rows if every member is real, else complex128: a view of
    an immutable ``bytes`` copy, so no flag makes it writeable. A basis is
    stacked once however many families and sandwiches read it."""
    table = np.stack([np.frombuffer(b, np.float64 if real else complex) for b, real in samples])
    return _sealed(table).reshape(table.shape)


@lru_cache(maxsize=_FAMILIES_KEPT)
def _validated_family(samples: tuple, root_mass: bytes, tolerance: float) -> OrthonormalFamily:
    """The family of members given as (sample bytes, real flag) embedded by
    the root masses ``root_mass``: the embedding, finiteness and gram rules
    in that order, on the members' table from :func:`_stacked_samples`."""
    matrix = _embedded(_stacked_samples(samples), np.frombuffer(root_mass))
    failed, error = _nonfinite(matrix)
    _raise(failed.any(), error)
    return OrthonormalFamily(matrix, tolerance, all(real for _, real in samples))


def _embedded_family(
    fns: Sequence[SampledFunction], grid: QuadratureGrid, tolerance: float
) -> OrthonormalFamily:
    """The validated family of the embeddings of ``fns`` on ``grid``, in one pass.

    Its matrix equals the stacked coordinates of the members' ``embed``
    vectors bit for bit, and it raises what :func:`validate_family` raises on
    those vectors, except that every size mismatch is reported before any
    non-finite embedding.

    The empty and size rules run here; the rest runs in
    :func:`_validated_family`, which keeps the family it builds keyed by the
    tolerance and the bytes the embedding reads: each member's samples with
    its real flag (which fixes their dtype) and the grid's root masses.
    Those arrays are views of immutable ``bytes`` (see ``SampledFunction``
    and ``QuadratureGrid``), so equal bytes, compared exactly (-0.0 is not
    0.0), return the same immutable family without embedding, finiteness or
    gram rule. A family that fails a rule raises and is not kept; its
    members' stacked table (:func:`_stacked_samples`) is.
    """
    _require_members(fns)
    for f in fns:
        _require_samples(f, grid)
    return _validated_family(_samples_key(fns), grid.root_mass.base, tolerance)


def _samples_key(fns: Sequence[SampledFunction]) -> tuple:
    """The cache key of members' samples: each one's immutable sample bytes
    with its real flag, which fixes their dtype."""
    return tuple((f.values.base, f.real_mode) for f in fns)


def _check_size(dim: int, count: int) -> None:
    if count < 1 or count > dim:
        raise ValueError(f"need 1 <= count <= dim, got count={count}, dim={dim}")


def random_family(
    dim: int,
    count: int,
    rng: np.random.Generator | int,
    real: bool = False,
) -> OrthonormalFamily:
    """Random orthonormal family via QR of a Gaussian matrix (fuzzing helper)."""
    _check_size(dim, count)
    rng = np.random.default_rng(rng)
    a = rng.standard_normal((dim, count))
    if not real:
        a = a + 1j * rng.standard_normal((dim, count))
    return OrthonormalFamily(_orthonormal_rows(a), DEFAULT_TOLERANCE, real)


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
