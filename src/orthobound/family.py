"""Construction and validation of finite orthonormal families.

A family is stored as an immutable (count x dim) matrix with its measured
gram residual, the maximum deviation |<e_i, e_j> - delta_ij| over all pairs.
Validation never trusts the caller: the residual is always recomputed with
the same pairwise summation used by the inner product, so it can be
re-asserted post hoc. The gram rule sums the Gram matrix in blocks of member
rows, so validating a family of ``count`` members in ``dim`` coordinates
takes O(count * dim) working memory, not a count x count x dim tensor.

A basis embedded on a grid is embedded and validated once per process: the
family of its first call is kept in a small memo with copies of the samples
and grid masses it came from. A later call at the same tolerance and real
flag whose samples and point masses equal those copies byte for byte returns
that same immutable family; the embedding, finiteness and gram rules run on
a miss only.

Tolerance guidance: exact-arithmetic constructions validate at 1e-10,
quadrature-assembled families at 1e-8. Inequality checks downstream should
use tolerances at least 10x the family residual; the admissibility identity
check surfaces families that are too loose for a requested tolerance.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyFamily, GramResidualExceeded
from .space import (
    QuadratureGrid,
    SampledFunction,
    Vector,
    _embedded,
    _nonfinite,
    _real_dot,
    _require_samples,
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
    """<x, e_i> for every row e_i of ``matrix`` (..., count, dim), pairwise-summed."""
    if matrix.dtype.kind == "f":
        return _real_dot(matrix, x[..., None, :])
    return tree_sum(np.multiply(np.conj(matrix), x[..., None, :]))


@dataclass(frozen=True, eq=False)
class OrthonormalFamily:
    """Validated finite orthonormal family {e_i}, the rows of ``matrix``.

    The constructor applies, in order, the tolerance rule (positive and
    finite), the shape rule, the real rule (no imaginary part in real mode)
    and the gram rule, and stores the residual it measured and, in real mode,
    its rows as read-only float64 ``real_rows`` (else None). Families compare
    and hash by identity.
    """

    matrix: np.ndarray
    tolerance: float = DEFAULT_TOLERANCE
    real_mode: bool = False
    gram_residual: float = field(init=False)
    real_rows: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive")
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
            raise EmptyFamily("family matrix must be a nonempty 2-D array")
        if self.real_mode and np.iscomplexobj(m) and np.any(m.imag != 0.0):
            raise ValueError("real_mode family has a nonzero imaginary part")
        # The complex products of a real family have zero imaginary parts and
        # the real products as real parts: its gram rule runs on its real rows.
        rows = np.array(m.real, dtype=np.float64, order="C") if self.real_mode else None
        residual, failed, error = _gram_check(m if rows is None else rows, self.tolerance)
        if failed:
            raise error()
        m = np.array(m, dtype=np.complex128, copy=True)
        m.setflags(write=False)  # setflags costs a third of flags.writeable on a small family
        if rows is not None:
            rows.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "gram_residual", float(residual))
        object.__setattr__(self, "real_rows", rows)

    @property
    def count(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def members(self) -> tuple[Vector, ...]:
        return tuple(Vector(row, self.real_mode) for row in self.matrix)

    def _operands(self, x: Vector, corridor=None) -> tuple:
        """(coords, rows) of x and the family, float64 for an all-real instance."""
        if self.real_mode and x.real_mode and (corridor is None or corridor.real_mode):
            return x.coords.real, self.real_rows
        return x.coords, self.matrix

    def coefficients(self, x: Vector) -> np.ndarray:
        """Per-member coefficients <x, e_i>, pairwise-summed."""
        if x.dim != self.dim:
            raise DimensionMismatch(f"vector dim {x.dim} != family dim {self.dim}")
        return _coefficients(*self._operands(x)).astype(np.complex128, copy=False)

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


# Validated embedded families, least recently used first, each keyed by the
# family it keeps and holding the samples and grid masses it was embedded
# from, as bytes: each member's own samples, 8 bytes a node for a real-mode
# function (float64) and 16 for a complex one, so a basis mixing the two is
# compared as its members hold it. The memo holds at most _MEMO_BYTES of
# entries (sample copies, masses, matrix and real rows), and _MEMO_FAMILIES
# of them so that tiny families cannot fill the budget with per-object
# overhead. A hit is decided by the caller's samples and grid masses, byte
# for byte; the embedding and finiteness rules run on a miss only.
_MEMO_BYTES = 8 << 20
_MEMO_FAMILIES = 64
_memo: OrderedDict = OrderedDict()
_memo_lock = threading.Lock()


class _Kept(NamedTuple):
    """A validated embedded family and the inputs it was embedded from."""

    route: tuple  # tolerance, each member's real flag and grid size
    samples: tuple  # each member's samples, as bytes
    masses: bytes  # the grid's point masses
    family: OrthonormalFamily

    @property
    def nbytes(self) -> int:
        arrays = (a for a in (self.family.matrix, self.family.real_rows) if a is not None)
        return sum(map(len, self.samples)) + len(self.masses) + sum(a.nbytes for a in arrays)


def _kept_family(
    fns: Sequence[SampledFunction], masses: bytes, route: tuple
) -> OrthonormalFamily | None:
    """The kept family whose route matches and whose masses and every
    member's samples equal the given ones byte for byte, or None."""
    with _memo_lock:
        kept = list(_memo.values())
    for entry in reversed(kept):  # most recently used first
        if entry.route == route and entry.masses == masses and all(
            f.values.tobytes() == s for f, s in zip(fns, entry.samples)
        ):
            with _memo_lock:
                if entry.family in _memo:
                    _memo.move_to_end(entry.family)
            return entry.family
    return None


def _embedded_family(
    fns: Sequence[SampledFunction], grid: QuadratureGrid, tolerance: float
) -> OrthonormalFamily:
    """The validated family of the embeddings of ``fns`` on ``grid``, in one pass.

    Its matrix equals the stacked coordinates of the members' ``embed``
    vectors bit for bit, and it raises what :func:`validate_family` raises on
    those vectors, except that every size mismatch is reported before any
    non-finite embedding.

    A basis is looked up before it is embedded. The tolerance, each member's
    real flag (which fixes its sample dtype, so equal bytes are equal sample
    counts) and the grid size route the lookup; a hit needs every member's
    samples and the grid's point masses to equal, byte for byte (so -0.0 is
    not 0.0), the copies kept when the family was validated, and returns
    that same family after one read of the inputs. Equal samples and masses
    embed to equal bytes, which passed the finiteness and gram rules, so a
    hit runs neither. A miss runs the size, embedding, finiteness and gram
    rules in that order, and keeps the family with copies of its inputs.
    """
    route = (tolerance, tuple(f.real_mode for f in fns), grid.size)
    real_mode = all(route[1])
    masses = grid.point_mass.tobytes()
    fam = _kept_family(fns, masses, route)
    if fam is not None:
        return fam
    _require_members(fns)
    for f in fns:
        _require_samples(f, grid)
    values = np.stack([f.values for f in fns])
    matrix = _embedded(values, grid)
    failed, error = _nonfinite(matrix)
    if failed.any():
        raise error()
    fam = OrthonormalFamily(matrix, tolerance, real_mode)
    entry = _Kept(route, tuple(f.values.tobytes() for f in fns), masses, fam)
    if entry.nbytes <= _MEMO_BYTES:
        with _memo_lock:
            _memo[fam] = entry
            while len(_memo) > _MEMO_FAMILIES or (
                sum(e.nbytes for e in _memo.values()) > _MEMO_BYTES
            ):
                _memo.popitem(last=False)
    return fam


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
