import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from orthobound import (
    DimensionMismatch,
    EmptyFamily,
    GramResidualExceeded,
    OrthonormalFamily,
    QuadratureGrid,
    SampledFunction,
    Vector,
    embed,
    family,
    gauss_legendre_grid,
    random_family,
    validate_family,
)
from orthobound.family import (
    QUADRATURE_TOLERANCE,
    _embedded_family,
    _gram_check,
    _orthonormal_rows,
    _samples_key,
    legendre_samples,
    trig_samples,
)
from orthobound.space import grid_inner, tree_sum
from conftest import complex_twin


def test_canonical_basis_residual_zero():
    fam = validate_family([Vector(row, True) for row in np.eye(3)], 1e-12)
    assert fam.gram_residual == 0.0
    assert fam.count == 3 and fam.dim == 3


def test_duplicate_vector_rejected():
    e = Vector([1.0, 0.0], True)
    with pytest.raises(GramResidualExceeded) as exc:
        validate_family([e, e])
    assert exc.value.residual == pytest.approx(1.0)
    assert exc.value.pair in ((0, 1), (1, 0))


def test_diagonal_unit_vector():
    c = 1.0 / math.sqrt(2.0)
    fam = validate_family([Vector([c, c], True)])
    assert fam.gram_residual <= 1e-15


def test_empty_family():
    with pytest.raises(EmptyFamily):
        validate_family([])


def test_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        validate_family([Vector([1.0]), Vector([0.0, 1.0])])


def test_builtin_trig_residual():
    grid = gauss_legendre_grid(64, 0.0, 2.0 * math.pi)
    fam = _embedded_family(trig_samples(5, grid), grid, QUADRATURE_TOLERANCE)
    assert fam.gram_residual <= 1e-8


def test_builtin_legendre_residual():
    grid = gauss_legendre_grid(32)
    fam = _embedded_family(legendre_samples(4, grid), grid, QUADRATURE_TOLERANCE)
    assert fam.gram_residual <= 1e-10


def test_builtin_trig_too_coarse():
    grid = gauss_legendre_grid(3, 0.0, 2.0 * math.pi)
    with pytest.raises(GramResidualExceeded):
        _embedded_family(trig_samples(5, grid), grid, QUADRATURE_TOLERANCE)


def test_trig_samples_normalized():
    grid = gauss_legendre_grid(64, 0.0, 2.0 * math.pi)
    fns = trig_samples(5, grid)
    for f in fns:
        assert grid_inner(f, f, grid).real == pytest.approx(1.0, abs=1e-12)


def test_legendre_samples_orthogonal():
    grid = gauss_legendre_grid(16)
    fns = legendre_samples(4, grid)
    assert grid_inner(fns[1], fns[3], grid).real == pytest.approx(0.0, abs=1e-14)


def test_family_type_enforces_residual_invariant():
    # the constructor measures the residual itself: a member of norm 2 is
    # rejected, not certified at a residual its caller claims
    with pytest.raises(GramResidualExceeded) as exc:
        OrthonormalFamily(np.array([[2.0, 0.0]]), 1e-10, True)
    assert exc.value.residual == 3.0
    fam = OrthonormalFamily(np.eye(2))
    assert (fam.gram_residual, fam.tolerance, fam.real_mode) == (0.0, 1e-10, False)


@pytest.mark.parametrize("fill", [np.nan, np.inf, complex(0.0, np.inf), 1e200])
def test_family_type_rejects_an_entry_out_of_float_range(fill):
    matrix = np.eye(2, dtype=np.complex128)
    matrix[1, 0] = fill
    with pytest.raises(GramResidualExceeded) as exc:
        OrthonormalFamily(matrix)
    assert not exc.value.residual <= 1e-10


def test_family_type_applies_its_rules_in_order():
    bad_shape = np.zeros((0, 2))
    with pytest.raises(ValueError, match="^tolerance must be positive$"):
        OrthonormalFamily(bad_shape, math.inf)
    with pytest.raises(EmptyFamily):
        OrthonormalFamily(bad_shape, 1e-10, True)
    with pytest.raises(ValueError, match="real_mode family has a nonzero imaginary part"):
        OrthonormalFamily(np.array([[2.0, 1e-300j]]), 1e-10, True)  # before the gram rule
    fam = OrthonormalFamily(np.array([[1.0, 0.0j]]), 1e-10, True)
    assert fam.real_mode and fam.matrix.dtype == np.float64


def test_random_family_validates(rng):
    fam = random_family(10, 6, rng)
    assert fam.gram_residual <= 1e-12
    fam_r = random_family(5, 5, rng, real=True)
    assert fam_r.real_mode
    assert np.all(fam_r.matrix.imag == 0.0)


@pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan"), float("inf")])
def test_validate_family_rejects_a_nonpositive_tolerance(tolerance):
    # the tolerance rule comes before the gram rule, whose residual would
    # otherwise exceed a tolerance of 0 or -1
    members = [Vector(row) for row in random_family(8, 4, 0).matrix]
    with pytest.raises(ValueError, match="^tolerance must be positive$"):
        validate_family(members, tolerance)


def test_validate_family_reports_mismatched_dims_before_a_bad_tolerance():
    with pytest.raises(DimensionMismatch, match="member 1 has dim 3, expected 2"):
        validate_family([Vector([1.0, 0.0]), Vector([0.0, 1.0, 0.0])], tolerance=0.0)


def test_coefficients_roundtrip(rng):
    fam = random_family(7, 4, rng)
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = fam.combine(coeffs)
    assert np.allclose(fam.coefficients(v), coeffs, atol=1e-12)


# ---------------------------------------------------------------------------
# one-pass embedding and the real-arithmetic gram rule: bit for bit


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _embedded_bases(nodes=2048, count=16):
    """(grid, samples) of the trig and Legendre families."""
    trig = gauss_legendre_grid(nodes, 0.0, 2.0 * math.pi)
    legendre = gauss_legendre_grid(nodes)
    return [(trig, trig_samples(count, trig)), (legendre, legendre_samples(count, legendre))]


def _assert_real_gram_matches_complex(matrix, tolerance):
    """The gram rule on a real family's real parts gives the residual, the
    mask and the error of the rule on its complex128 matrix."""
    ref = _gram_check(np.asarray(matrix, dtype=np.complex128), tolerance)
    got = _gram_check(np.ascontiguousarray(np.real(matrix)), tolerance)
    assert _bits(got[0]) == _bits(ref[0])
    assert got[1] == ref[1]
    assert str(got[2]()) == str(ref[2]())
    assert got[2]().pair == ref[2]().pair


@pytest.mark.parametrize("dim, count", [(8, 4), (2048, 16), (16, 16), (5, 1)])
def test_real_gram_rule_matches_complex_on_random_families(dim, count):
    rng = np.random.default_rng(dim * 100 + count)
    for _ in range(20):
        _assert_real_gram_matches_complex(
            _orthonormal_rows(rng.standard_normal((dim, count))), 1e-10
        )


def test_real_gram_rule_matches_complex_on_loose_family():
    rows = _orthonormal_rows(np.random.default_rng(9).standard_normal((8, 4)))
    rows[2] *= 1.0 + 1e-6
    _assert_real_gram_matches_complex(rows, 1e-10)
    members = [Vector(row, True) for row in rows]
    with pytest.raises(GramResidualExceeded) as exc:
        validate_family(members)
    assert str(exc.value) == str(_gram_check(rows.astype(np.complex128), 1e-10)[2]())
    assert exc.value.pair == (2, 2)


def test_real_gram_rule_matches_complex_on_embedded_families():
    for grid, fns in _embedded_bases():
        fam = _embedded_family(fns, grid, QUADRATURE_TOLERANCE)
        _assert_real_gram_matches_complex(fam.matrix, 1e-8)
        assert fam.gram_residual == float(_gram_check(fam.matrix, 1e-8)[0])


def _one_tensor_gram(matrix):
    """The reference gram rule: the residuals and the flattened deviations
    |G - I| of the Gram matrix summed from the whole (..., count, count, dim)
    product tensor."""
    count = matrix.shape[-2]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = tree_sum(np.multiply(matrix[..., :, None, :], np.conj(matrix)[..., None, :, :]))
        deviation = np.abs(gram - np.eye(count))
    flat = deviation.reshape(deviation.shape[:-2] + (-1,))
    return flat.max(axis=-1), flat


def _assert_gram_rule_matches_one_tensor(monkeypatch, matrix, blocks, tolerance=1e-10):
    """The gram rule sums ``matrix`` in ``blocks`` calls of tree_sum and gives
    the reference's residual bytes, mask, and the error of every failing
    family, whose worst pair is the first in row-major order."""
    calls = []
    monkeypatch.setattr(family, "tree_sum", lambda a: calls.append(a.shape) or tree_sum(a))
    residual, failed, error = _gram_check(matrix, tolerance)
    assert len(calls) == blocks
    expected, flat = _one_tensor_gram(matrix)
    assert _bits(residual) == _bits(expected)
    assert np.array_equal(failed, ~(expected <= tolerance))
    for row in map(tuple, np.argwhere(failed)):
        pair = divmod(int(flat[row].argmax()), matrix.shape[-2])
        reference = GramResidualExceeded(float(expected[row]), pair, tolerance)
        assert str(error(row)) == str(reference)
        assert error(row).pair == pair
        assert _bits(error(row).residual) == _bits(reference.residual)


def _random_rows(batch, count, dim, complex_input, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(batch + (dim, count))
    if complex_input:
        a = a + 1j * rng.standard_normal(a.shape)
    return _orthonormal_rows(a)


# (batch, count, dim, complex, blocks): batches of one and campaign chunks,
# then bases split into several blocks, one with a shorter last block
_GRAM_CASES = [
    ((), 4, 8, False, 1),
    ((), 4, 8, True, 1),
    ((), 8, 16, False, 1),
    ((), 8, 16, True, 1),
    ((200,), 4, 8, True, 1),
    ((1024,), 4, 8, True, 2),
    ((), 16, 2048, False, 4),
    ((), 40, 4096, False, 40),
    ((), 10, 2048, True, 4),  # blocks of 3, 3, 3 and 1 rows
]


@pytest.mark.parametrize("batch, count, dim, complex_input, blocks", _GRAM_CASES)
def test_blocked_gram_rule_matches_the_one_tensor_rule(
    monkeypatch, batch, count, dim, complex_input, blocks
):
    matrix = _random_rows(batch, count, dim, complex_input)
    _assert_gram_rule_matches_one_tensor(monkeypatch, matrix, blocks)


@pytest.mark.parametrize("fill", [-0.0, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "batch, count, dim, complex_input, blocks", [c for c in _GRAM_CASES if c[4] > 1]
)
def test_blocked_gram_rule_keeps_signed_zeros_and_nonfinite_entries(
    monkeypatch, fill, batch, count, dim, complex_input, blocks
):
    # the last member, in the last block: a row of -0.0 fails with residual 1;
    # a NaN or an Inf entry fails with a NaN or Inf residual; in a campaign
    # chunk, only the families given the entry fail
    matrix = _random_rows(batch, count, dim, complex_input, seed=1)
    hit = (slice(None, None, 337),) if batch else ()
    if fill == 0.0:
        matrix[hit + (-1,)] = fill
    else:
        matrix[hit + (-1, 5)] = fill
    _assert_gram_rule_matches_one_tensor(monkeypatch, matrix, blocks)


def test_blocked_gram_rule_reports_a_worst_pair_in_a_later_block(monkeypatch):
    matrix = _random_rows((), 16, 2048, False)
    matrix[14] *= 1.0 + 1e-6  # blocks of 4 rows: member 14 is in the last
    _assert_gram_rule_matches_one_tensor(monkeypatch, matrix, 4)
    assert _gram_check(matrix, 1e-10)[2]().pair == (14, 14)


@pytest.mark.parametrize("scale, pair", [(1.5, (1, 1)), (1.0, (1, 12))])
def test_blocked_gram_rule_breaks_a_tie_across_blocks_in_row_major_order(
    monkeypatch, scale, pair
):
    # members 1 and 12 lie in the first and last of four blocks: scaled
    # alike, their diagonal deviations tie; sharing a coordinate, (1, 12)
    # ties with (12, 1)
    matrix = np.eye(16, 2048)
    matrix[[1, 12]] *= scale
    if scale == 1.0:
        matrix[12, 1] = 0.25
    _assert_gram_rule_matches_one_tensor(monkeypatch, matrix, 4)
    assert _gram_check(matrix, 1e-10)[2]().pair == pair


def test_gram_rule_memory_is_linear_in_members():
    grid = gauss_legendre_grid(4096)
    fns = legendre_samples(32, grid)
    tracemalloc.start()
    try:
        fam = _embedded_family(fns, grid, QUADRATURE_TOLERANCE)  # a miss: the cache is cold
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the stacked samples and the matrix are 1 MiB each; the 32 x 32 x 4096
    # product tensor alone would be 32 MiB
    assert peak < 2 * fam.matrix.nbytes + 4 * 2**20
    # the caches keep the matrix and one stacked table of the samples, and no
    # other copy of the samples or root masses their keys hold
    table = family._stacked_samples(_samples_key(fns))
    assert kept < fam.matrix.nbytes + table.nbytes + grid.root_mass.nbytes


def test_one_pass_embedding_matches_member_embeddings():
    for grid, fns in _embedded_bases():
        members = [embed(f, grid) for f in fns]
        fam = _embedded_family(fns, grid, 1e-8)
        assert _bits(fam.matrix) == _bits(np.stack([v.coords for v in members]))
        assert fam.real_mode
        assert fam.gram_residual == validate_family(members, 1e-8).gram_residual


def test_one_pass_embedding_keeps_signed_zeros_and_complex_members():
    # a zero-mass node, negative zeros and a complex member: signs of zeros
    # and the real flag as the per-member embeddings have them
    grid = QuadratureGrid([0.0, 1.0, 2.0], [0.5, 0.0, 0.5], [1.0, 1.0, 1.0])
    fns = [
        SampledFunction([-0.0, -1.0, 1.0], True),
        SampledFunction([complex(-0.0, 1.0), complex(2.0, -0.0), complex(-1.0, -0.0)]),
    ]
    members = [embed(f, grid) for f in fns]
    fam = _embedded_family(fns, grid, 10.0)
    assert _bits(fam.matrix) == _bits(np.stack([v.coords for v in members]))
    assert not fam.real_mode
    assert fam.gram_residual == validate_family(members, 10.0).gram_residual


def _numpy_q_rows(a):
    return np.swapaxes(np.linalg.qr(a)[0], -1, -2)


def _qr_inputs(complex_input):
    """Single matrices (dim x count), a transposed view, and stacks shaped as
    a campaign's chunk of families (n, dim, count)."""
    rng = np.random.default_rng(11 + complex_input)

    def draw(*shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if complex_input else a

    return [draw(8, 4), draw(1, 1), draw(16, 8), draw(5, 5), draw(4, 8).T, draw(64, 8, 4),
            draw(3, 16, 16)]


@pytest.mark.parametrize("complex_input", [False, True])
def test_orthonormal_rows_equal_numpy_qr_bit_for_bit(complex_input):
    for a in _qr_inputs(complex_input):
        before = a.copy()
        rows = _orthonormal_rows(a)
        assert rows.flags.c_contiguous
        assert _bits(rows) == _bits(_numpy_q_rows(a))
        assert _bits(a) == _bits(before)  # the gufunc overwrites only a copy


@pytest.mark.parametrize("complex_input", [False, True])
def test_qr_fallback_gives_the_same_bits(monkeypatch, complex_input):
    inputs = _qr_inputs(complex_input)
    fast = [_orthonormal_rows(a) for a in inputs]
    fam = random_family(8, 4, 5, real=not complex_input)
    monkeypatch.setattr(family, "_qr_r_raw", None)  # as without numpy's private module
    for a, rows in zip(inputs, fast):
        assert _bits(_orthonormal_rows(a)) == _bits(rows)
    assert _bits(random_family(8, 4, 5, real=not complex_input).matrix) == _bits(fam.matrix)


@pytest.mark.parametrize("fill", [np.nan, np.inf])
def test_orthonormal_rows_of_nonfinite_input_match_numpy_qr(fill):
    # LAPACK reports no error on a NaN or an Inf entry, so np.linalg.qr raises
    # nothing and returns a Q with NaNs; the gufunc route returns its bits
    for a in (_qr_inputs(False)[0], _qr_inputs(True)[5]):
        a[..., 2, 1] = fill
        assert _bits(_orthonormal_rows(a)) == _bits(_numpy_q_rows(a))


def test_a_failure_flagged_by_the_qr_gufunc_raises_linalgerror(monkeypatch):
    # LAPACK's argument errors reach numpy as the invalid flag, which both
    # routes turn into LinAlgError; a stand-in gufunc raises that flag
    if family._qr_r_raw is None:
        pytest.skip("numpy's QR gufuncs are not available")
    from numpy.linalg import _umath_linalg

    def flagged(a, signature):
        return np.sqrt(np.full(a.shape[:-2] + (min(a.shape[-2:]),), -1.0))

    monkeypatch.setattr(_umath_linalg, "qr_r_raw", flagged)
    monkeypatch.setattr(family, "_qr_r_raw", flagged)
    a = _qr_inputs(True)[0]
    with pytest.raises(np.linalg.LinAlgError) as ref:
        np.linalg.qr(a)
    with pytest.raises(np.linalg.LinAlgError) as got:
        _orthonormal_rows(a)
    assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# the cache of validated embedded families


def _unit_basis(*values):
    """Members [1, 0, 0] and [0, 1, 0] on three unit-mass nodes, the first
    with its samples replaced by ``values`` when given."""
    grid = QuadratureGrid([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    first = np.array(values or (1.0, 0.0, 0.0))
    return grid, [SampledFunction(first, True), SampledFunction([0.0, 1.0, 0.0], True)]


def test_an_embedded_family_is_validated_once(gram_checks):
    grid = gauss_legendre_grid(64, 0.0, 2.0 * math.pi)
    fns = trig_samples(5, grid)
    fam = _embedded_family(fns, grid, QUADRATURE_TOLERANCE)
    # equal samples in new objects embed to the same bytes: a hit
    copies = [SampledFunction(f.values.copy(), True) for f in fns]
    assert _embedded_family(copies, grid, QUADRATURE_TOLERANCE) is fam
    assert _embedded_family(fns, grid, QUADRATURE_TOLERANCE) is fam
    assert len(gram_checks) == 1


@pytest.mark.parametrize(
    "values",
    [(np.nextafter(1.0, 2.0), 0.0, 0.0), (1.0, -0.0, 0.0)],
    ids=["one-ulp", "negative-zero"],
)
def test_a_sample_changed_in_its_bits_is_a_miss(gram_checks, values):
    grid, fns = _unit_basis()
    _, changed_fns = _unit_basis(*values)
    fam = _embedded_family(fns, grid, 1e-8)
    changed = _embedded_family(changed_fns, grid, 1e-8)
    assert changed is not fam
    assert _bits(changed.matrix) != _bits(fam.matrix)
    # both are kept, each hit by its own bytes
    assert _embedded_family(changed_fns, grid, 1e-8) is changed
    assert _embedded_family(fns, grid, 1e-8) is fam
    assert len(gram_checks) == 2


def test_a_lookup_key_shared_by_other_bytes_is_a_miss(gram_checks):
    # the first member's samples permuted: the same tolerance, real flags
    # and sizes, other bytes
    grid, fns = _unit_basis()
    _, permuted_fns = _unit_basis(0.0, 0.0, 1.0)
    fam = _embedded_family(fns, grid, 1e-8)
    permuted = _embedded_family(permuted_fns, grid, 1e-8)
    assert permuted is not fam
    assert family._validated_family.cache_info().currsize == 2
    assert _bits(permuted.matrix) == _bits(np.stack([embed(f, grid).coords for f in permuted_fns]))
    # both are kept, each hit by its own bytes
    assert _embedded_family(permuted_fns, grid, 1e-8) is permuted
    assert _embedded_family(fns, grid, 1e-8) is fam
    assert len(gram_checks) == 2


def test_a_hit_runs_no_embedding_finiteness_or_gram_rule(monkeypatch, gram_checks):
    calls = []
    for name in ("_embedded", "_nonfinite"):
        rule = getattr(family, name)
        monkeypatch.setattr(
            family, name, lambda *args, rule=rule, name=name: calls.append(name) or rule(*args)
        )
    grid = gauss_legendre_grid(64, 0.0, 2.0 * math.pi)
    fns = trig_samples(5, grid)
    fam = _embedded_family(fns, grid, QUADRATURE_TOLERANCE)
    assert (calls, len(gram_checks)) == (["_embedded", "_nonfinite"], 1)
    copies = [SampledFunction(f.values.copy(), True) for f in fns]
    assert _embedded_family(copies, grid, QUADRATURE_TOLERANCE) is fam
    assert _embedded_family(fns, grid, QUADRATURE_TOLERANCE) is fam
    assert (calls, len(gram_checks)) == (["_embedded", "_nonfinite"], 1)


def test_samples_and_root_masses_refuse_to_be_made_writeable():
    # the cache keys on the bytes these arrays view, so they cannot change in place
    grid, fns = _unit_basis()
    for arr in (fns[0].values, SampledFunction([1j, 0.0, 0.0]).values, grid.root_mass):
        assert isinstance(arr.base, bytes) and arr.base == arr.tobytes()
        with pytest.raises(ValueError):
            arr.flags.writeable = True
        with pytest.raises(ValueError):
            arr[0] = 2.0


def test_a_grid_is_read_by_the_bytes_of_its_root_masses(gram_checks):
    grid, fns = _unit_basis()
    fam = _embedded_family(fns, grid, 1e-8)
    # other nodes, weights and density, the same root masses: a hit
    same = QuadratureGrid([5.0, 6.0, 7.0], [0.5, 1.0, 0.25], [2.0, 1.0, 4.0])
    assert _embedded_family(fns, same, 1e-8) is fam
    # another mass at the node where both members vanish: the same embedding, a miss
    other = QuadratureGrid([0.0, 1.0, 2.0], [1.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    changed = _embedded_family(fns, other, 1e-8)
    assert changed is not fam and _bits(changed.matrix) == _bits(fam.matrix)
    assert len(gram_checks) == 2


def test_samples_holding_a_prefix_of_the_kept_bytes_are_a_miss(gram_checks):
    grid, fns = _unit_basis()
    _embedded_family(fns, grid, 1e-8)
    short = [SampledFunction(fns[0].values[:2], True), fns[1]]
    with pytest.raises(DimensionMismatch, match="function has 2 samples but grid has 3 nodes"):
        _embedded_family(short, grid, 1e-8)
    assert len(gram_checks) == 1


def test_a_hit_reads_the_samples_and_masses_in_place():
    grid = gauss_legendre_grid(2048, -1.0, 1.0)
    fns = legendre_samples(16, grid)
    fam = _embedded_family(fns, grid, QUADRATURE_TOLERANCE)
    tracemalloc.start()
    try:
        assert _embedded_family(fns, grid, QUADRATURE_TOLERANCE) is fam
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048 * 8  # less than one copy of a member's samples


def test_samples_that_embed_to_the_same_bytes_are_kept_apart(gram_checks):
    # the first member differs only at a node of zero mass, where both embed to 0
    grid = QuadratureGrid([0.0, 1.0, 2.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0])
    fns = [SampledFunction([1.0, 0.0, 1.0], True), SampledFunction([0.0, 1.0, 0.0], True)]
    others = [SampledFunction([1.0, 0.0, 2.0], True), fns[1]]
    fam = _embedded_family(fns, grid, 1e-8)
    other = _embedded_family(others, grid, 1e-8)
    assert other is not fam
    assert _bits(other.matrix) == _bits(fam.matrix)
    assert family._validated_family.cache_info().currsize == 2
    assert _embedded_family(others, grid, 1e-8) is other
    assert _embedded_family(fns, grid, 1e-8) is fam
    assert len(gram_checks) == 2


def test_a_different_tolerance_or_real_flag_is_a_miss(gram_checks):
    grid, fns = _unit_basis()
    fam = _embedded_family(fns, grid, 1e-8)
    looser = _embedded_family(fns, grid, 1e-6)
    complex_fns = [SampledFunction(f.values) for f in fns]  # the same samples, as complex128
    not_real = _embedded_family(complex_fns, grid, 1e-8)
    assert len({id(fam), id(looser), id(not_real)}) == 3
    assert (looser.tolerance, not_real.real_mode) == (1e-6, False)
    assert _bits(not_real.matrix.real) == _bits(fam.matrix)
    assert len(gram_checks) == 3


def test_a_real_family_keeps_its_float64_matrix_once():
    rows = _orthonormal_rows(np.random.default_rng(3).standard_normal((8, 4)))
    fam = OrthonormalFamily(rows, 1e-10, True)
    assert fam.matrix is not rows and fam.matrix.dtype == np.float64
    assert fam.matrix.flags.c_contiguous and not fam.matrix.flags.writeable
    assert fam.matrix.base is None  # the one copy, which the gram rule ran on
    assert _bits(fam.matrix) == _bits(rows)
    assert not hasattr(fam, "real_rows")
    assert OrthonormalFamily(rows.astype(complex), 1e-10).matrix.dtype == np.complex128


def test_a_basis_mixing_real_and_complex_members_is_kept_by_their_own_bytes(gram_checks):
    grid, fns = _unit_basis()
    mixed = [fns[0], SampledFunction(fns[1].values)]
    fam = _embedded_family(mixed, grid, 1e-8)
    copies = [SampledFunction(f.values.copy(), f.real_mode) for f in mixed]
    assert _embedded_family(copies, grid, 1e-8) is fam
    assert [len(f.values.base) for f in mixed] == [3 * 8, 3 * 16]  # the bytes of its key
    assert len(gram_checks) == 1


def test_a_member_of_the_other_mode_with_the_same_bytes_is_a_miss(gram_checks):
    # 4 float64 samples are the bytes of 2 complex ones, and 4 complex of 8
    # float64: a member whose mode differs from the kept one's is a miss, so
    # its sample count is checked against the grid
    grid = QuadratureGrid([0.0, 1.0, 2.0, 3.0], [1.0] * 4, [1.0] * 4)
    first = SampledFunction([1.0, 0.0, 0.0, 0.0])
    real = SampledFunction([0.0, 1.0, 0.0, 0.0], True)
    cplx = SampledFunction([0.0, 0.0, 1.0, 0.0])
    for kept, other in (
        (real, SampledFunction(real.values.view(complex))),
        (cplx, SampledFunction(cplx.values.view(np.float64), True)),
    ):
        assert other.values.tobytes() == kept.values.tobytes()
        fam = _embedded_family([first, kept], grid, 1e-8)
        copy = SampledFunction(kept.values, kept.real_mode)
        assert _embedded_family([first, copy], grid, 1e-8) is fam
        with pytest.raises(DimensionMismatch):
            _embedded_family([first, other], grid, 1e-8)
    assert len(gram_checks) == 2


def test_a_real_function_given_negative_zero_imaginary_parts_hits_its_real_twin(gram_checks):
    # the sign of a zero imaginary part is not kept in real mode (see
    # SampledFunction), so these samples are the bytes of the float ones
    grid, fns = _unit_basis()
    fam = _embedded_family(fns, grid, 1e-8)
    samples = np.stack([f.values for f in fns]).astype(complex)
    samples.imag = -0.0
    assert _embedded_family([SampledFunction(v, True) for v in samples], grid, 1e-8) is fam
    assert len(gram_checks) == 1


def test_real_samples_embed_as_their_complex_twins_do():
    for grid, fns in _embedded_bases():
        twins = [complex_twin(f) for f in fns]
        for f, twin in zip(fns, twins):
            got, ref = embed(f, grid).coords, embed(twin, grid).coords
            assert _bits(got.real) == _bits(ref.real)
            assert not np.signbit(got.imag).any()
        fam = _embedded_family(fns, grid, QUADRATURE_TOLERANCE)
        ref = _embedded_family(twins, grid, QUADRATURE_TOLERANCE)
        assert fam.real_mode and not ref.real_mode
        assert _bits(fam.matrix) == _bits(ref.matrix.real)
        assert not ref.matrix.imag.any()
        assert fam.gram_residual == ref.gram_residual
        assert [len(f.values.base) for f in fns] == [grid.size * 8] * len(fns)


def test_the_least_recently_used_family_is_evicted(gram_checks):
    grid, fns = _unit_basis()
    tolerances = [1e-8 * (k + 1) for k in range(family._FAMILIES_KEPT + 1)]
    first, second, *_ = [_embedded_family(fns, grid, t) for t in tolerances[:-1]]  # full
    assert _embedded_family(fns, grid, tolerances[0]) is first  # now the most recent
    _embedded_family(fns, grid, tolerances[-1])  # evicts second
    assert family._validated_family.cache_info().currsize == family._FAMILIES_KEPT
    assert _embedded_family(fns, grid, tolerances[0]) is first
    assert _embedded_family(fns, grid, tolerances[1]) is not second
    assert len(gram_checks) == family._FAMILIES_KEPT + 2


def test_threads_racing_on_eviction_each_get_their_own_family():
    # one tolerance more than the cache keeps, cycled by every thread: inserts
    # evict while other threads look up and insert the same keys
    grid, fns = _unit_basis()
    tolerances = [1e-8 * (k + 1) for k in range(family._FAMILIES_KEPT + 1)]
    expected = _bits(_embedded_family(fns, grid, 1e-8).matrix)
    workers, calls = 4, 300  # more threads than a small runner has cores
    start = threading.Barrier(workers)

    def build(k):
        start.wait(timeout=30)
        wrong = 0
        for i in range(calls):
            tolerance = tolerances[(k + i) % len(tolerances)]
            fam = _embedded_family(fns, grid, tolerance)
            wrong += fam.tolerance != tolerance or _bits(fam.matrix) != expected
        return wrong

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            runs = [pool.submit(build, k) for k in range(workers)]
            assert [run.result(timeout=60) for run in runs] == [0] * workers
    finally:
        sys.setswitchinterval(switch)
    assert family._validated_family.cache_info().currsize == family._FAMILIES_KEPT
