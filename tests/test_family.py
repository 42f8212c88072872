import math

import numpy as np
import pytest

from orthobound import (
    DimensionMismatch,
    EmptyFamily,
    GramResidualExceeded,
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
    legendre_samples,
    trig_samples,
)
from orthobound.space import grid_inner


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
    from orthobound import OrthonormalFamily

    with pytest.raises(ValueError):
        OrthonormalFamily(np.eye(2), gram_residual=1e-3, tolerance=1e-10)
    with pytest.raises(ValueError):
        OrthonormalFamily(np.eye(2), gram_residual=0.0, tolerance=0.0)


def test_random_family_validates(rng):
    fam = random_family(10, 6, rng)
    assert fam.gram_residual <= 1e-12
    fam_r = random_family(5, 5, rng, real=True)
    assert fam_r.real_mode
    assert np.all(fam_r.matrix.imag == 0.0)


@pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan")])
def test_random_family_rejects_a_nonpositive_tolerance(tolerance):
    # the tolerance rule comes before the gram rule, whose residual would
    # otherwise exceed a tolerance of 0 or -1
    with pytest.raises(ValueError, match="^tolerance must be positive$"):
        random_family(8, 4, 0, tolerance=tolerance)


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
