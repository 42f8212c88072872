import itertools
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthobound import (
    BadExponent,
    BadLambda,
    BoundChain,
    CorridorSpec,
    DimensionMismatch,
    FloatRangeExceeded,
    HypothesisFailed,
    NonpositiveReSum,
    ScalarCorridor,
    Vector,
    ZeroVector,
    admissible_point,
    bessel_counterpart,
    bessel_defect,
    check_hypothesis,
    companion_bound,
    gruss_bound,
    gruss_defect,
    gruss_refined_midpoint,
    gruss_refined_sqrt,
    inner,
    m_factor,
    norm,
    norm_bound_linear,
    norm_bound_quadratic,
    norm_sq,
    random_family,
    schwarz_counterparts,
    schwarz_step,
    single_vector_ratio_chain,
    validate_family,
)
from orthobound import HypothesisReport, OrthoboundError, admissibility, bounds, catalog, family
from orthobound.family import OrthonormalFamily, legendre_samples, trig_samples
from orthobound.integral import integral_instance, sandwich_check
from orthobound.jsonio import FAMILY, X, X_CORRIDOR, Y, Y_CORRIDOR
from orthobound.space import SampledFunction, gauss_legendre_grid
from conftest import admissible_instance, random_vector

SQ2 = math.sqrt(2.0)


def unit_family():
    return validate_family([Vector([1.0], True)])


def diag_family():
    c = 1.0 / SQ2
    return validate_family([Vector([c, c], True)])


# ---------------------------------------------------------------------------
# defects


def test_bessel_defect_on_span():
    fam = validate_family([Vector([1.0, 0.0], True)])
    assert bessel_defect(Vector([1.0, 0.0], True), fam) == pytest.approx(0.0, abs=1e-15)


def test_bessel_defect_plane_example():
    # ||x||^2 = 5, |<x,e>|^2 = 4 -> defect 1
    fam = diag_family()
    x = Vector([1.0 / SQ2, 3.0 / SQ2], True)
    assert bessel_defect(x, fam) == pytest.approx(1.0, rel=1e-12)


def test_bessel_defect_orthogonal_component():
    fam = validate_family([Vector([1.0, 0.0], True)])
    x = Vector([0.0, 2.5], True)
    assert bessel_defect(x, fam) == pytest.approx(norm_sq(x))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_bessel_defect_nonnegative_everywhere(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 12))
    fam = random_family(dim, int(rng.integers(1, dim + 1)), rng)
    x = random_vector(dim, rng, scale=3.0)
    assert bessel_defect(x, fam) >= -1e-10 * norm_sq(x)


def test_gruss_defect_single_member():
    fam = validate_family([Vector([1.0, 0.0], True)])
    e = Vector([1.0, 0.0], True)
    assert gruss_defect(e, e, fam) == pytest.approx(0.0)


def test_gruss_defect_diagonal_equals_bessel(rng):
    fam = random_family(6, 3, rng)
    x = random_vector(6, rng)
    d = gruss_defect(x, x, fam)
    assert d.imag == pytest.approx(0.0, abs=1e-12)
    assert d.real == pytest.approx(bessel_defect(x, fam), rel=1e-10, abs=1e-12)


def test_gruss_defect_residual_oracle(rng):
    # oracle: inner product of the explicitly projected residual vectors
    fam = random_family(7, 4, rng)
    x = random_vector(7, rng)
    y = random_vector(7, rng)
    rx = x - fam.combine(fam.coefficients(x))
    ry = y - fam.combine(fam.coefficients(y))
    assert gruss_defect(x, y, fam) == pytest.approx(inner(rx, ry), abs=1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_schwarz_step_everywhere(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 12))
    fam = random_family(dim, int(rng.integers(1, dim + 1)), rng)
    x = random_vector(dim, rng, scale=2.0)
    y = random_vector(dim, rng, scale=2.0)
    d = abs(gruss_defect(x, y, fam)) ** 2
    tol = 1e-10 * max(1.0, norm_sq(x)) * max(1.0, norm_sq(y))
    assert d <= (bessel_defect(x, fam) + tol) * (bessel_defect(y, fam) + tol)
    assert schwarz_step(x, y, fam).all_hold


# ---------------------------------------------------------------------------
# corridor width factor


def test_m_factor_single_real():
    mf = m_factor(ScalarCorridor([1.0], [4.0], real_mode=True))
    assert mf.value == pytest.approx(3.0 / 2.0, rel=1e-12)  # (M-m)/sqrt(mM)


def test_m_factor_zero_width():
    mf = m_factor(ScalarCorridor([2.0], [2.0], real_mode=True))
    assert mf.value == 0.0


def test_m_factor_purely_imaginary_upper():
    with pytest.raises(NonpositiveReSum):
        m_factor(ScalarCorridor([1.0], [1j]))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_m_factor_identity(seed):
    # (1/4) M^2 + 1 == (1/4) sum (|hi|+|lo|)^2 / re_sum
    rng = np.random.default_rng(seed)
    corr = CorridorSpec().sample(int(rng.integers(1, 9)), rng)
    mf = m_factor(corr)
    lhs = 0.25 * mf.value**2 + 1.0
    rhs = 0.25 * float(np.sum((np.abs(corr.hi) + np.abs(corr.lo)) ** 2)) / corr.re_sum
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_m_factor_plus_sign_counterexample():
    # the printed plus form breaks the identity on this corridor
    corr = ScalarCorridor([1.0], [1.0 + 0.5j])
    mf = m_factor(corr)
    rhs = 0.25 * float(np.sum((np.abs(corr.hi) + np.abs(corr.lo)) ** 2)) / corr.re_sum
    assert 0.25 * mf.value**2 + 1.0 == pytest.approx(rhs, rel=1e-12)
    plus_sq = float(
        np.sum(
            (np.abs(corr.hi) + np.abs(corr.lo)) ** 2
            + 4.0 * (np.abs(corr.hi * np.conj(corr.lo)) - (corr.hi * np.conj(corr.lo)).real)
        )
    ) / corr.re_sum
    assert abs(0.25 * plus_sq + 1.0 - rhs) > 0.1


# ---------------------------------------------------------------------------
# norm bounds


def test_linear_bound_equality_case():
    chain = norm_bound_linear(Vector([1.0], True), unit_family(),
                              ScalarCorridor([1.0], [1.0], real_mode=True))
    assert chain.values == (1.0, 1.0)
    assert chain.all_hold


def test_linear_bound_hand_value():
    chain = norm_bound_linear(Vector([1.0], True), unit_family(),
                              ScalarCorridor([1.0], [4.0], real_mode=True))
    assert chain.values[0] == pytest.approx(1.0)
    assert chain.values[1] == pytest.approx(1.25)  # (4 + 1) / (2 sqrt(4))


def test_linear_bound_random_centers(rng):
    for _ in range(50):
        fam, corr, x = admissible_instance(rng, slack=0.0)
        assert norm_bound_linear(x, fam, corr).all_hold


def test_quadratic_equality_at_matching_point():
    chain = norm_bound_quadratic(Vector([2.0], True), unit_family(),
                                 ScalarCorridor([2.0], [2.0], real_mode=True))
    assert chain.values[0] == pytest.approx(chain.values[1], rel=1e-12)


def test_quadratic_hand_value():
    chain = norm_bound_quadratic(Vector([2.0], True), unit_family(),
                                 ScalarCorridor([1.0], [3.0], real_mode=True))
    assert chain.values == pytest.approx((4.0, 16.0 / 3.0))


def test_holder_two_matches_cbs(rng):
    for _ in range(30):
        fam, corr, x = admissible_instance(rng)
        cbs = norm_bound_quadratic(x, fam, corr)
        h2 = norm_bound_quadratic(x, fam, corr, "holder", 2.0)
        assert math.sqrt(cbs.values[0]) == pytest.approx(h2.values[0], rel=1e-12)
        assert math.sqrt(cbs.values[1]) == pytest.approx(h2.values[1], rel=1e-12)


def test_quadratic_variants_hold(rng):
    for _ in range(30):
        fam, corr, x = admissible_instance(rng)
        for variant, p in (("max_sum", None), ("holder", 3.0), ("sum_max", None)):
            assert norm_bound_quadratic(x, fam, corr, variant, p).all_hold


def test_holder_bad_exponent():
    fam, corr, x = unit_family(), ScalarCorridor([1.0], [2.0], real_mode=True), Vector([1.5], True)
    with pytest.raises(BadExponent):
        norm_bound_quadratic(x, fam, corr, "holder", 1.0)
    with pytest.raises(BadExponent):
        norm_bound_quadratic(x, fam, corr, "holder", None)


def test_hypothesis_failed_carries_its_report():
    fam = unit_family()
    corr = ScalarCorridor([1.0], [2.0], real_mode=True)
    far = Vector([40.0], True)
    with pytest.raises(HypothesisFailed) as exc:
        norm_bound_quadratic(far, fam, corr)
    assert exc.value.report.cond_ii_residual > exc.value.report.radius


def test_nonpositive_re_sum_rejected():
    fam = unit_family()
    corr = ScalarCorridor([-1.0], [1.0], real_mode=True)
    with pytest.raises(NonpositiveReSum):
        norm_bound_linear(Vector([0.0], True), fam, corr)


# ---------------------------------------------------------------------------
# projection-defect counterpart


def test_bessel_counterpart_plane_construction():
    fam = diag_family()
    corr = ScalarCorridor([1.0], [3.0], real_mode=True)
    x = Vector([1.0 / SQ2, 3.0 / SQ2], True)
    chain = bessel_counterpart(x, fam, corr)
    assert chain.values[0] == 0.0
    assert chain.values[1] == pytest.approx(1.0, rel=1e-12)
    assert chain.values[2] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert chain.all_hold


def test_bessel_counterpart_zero_chain():
    fam = validate_family([Vector(row, True) for row in np.eye(2)])
    corr = ScalarCorridor([0.4, 0.8], [0.4, 0.8], real_mode=True)
    x = fam.combine(corr.midpoints)
    chain = bessel_counterpart(x, fam, corr)
    assert all(abs(v) <= 1e-12 for v in chain.values)
    assert chain.all_hold


@pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
def test_bessel_counterpart_ratio(eps):
    fam = diag_family()
    lo, hi = 1.0 - eps, 1.0 + eps
    corr = ScalarCorridor([lo], [hi], real_mode=True)
    x = Vector([lo / SQ2, hi / SQ2], True)
    chain = bessel_counterpart(x, fam, corr)
    assert chain.values[1] / chain.values[2] == pytest.approx(1.0 - eps * eps, abs=1e-11)


def test_real_corridor_reduces_to_difference_form(rng):
    # for real corridors the width factor matches sum (M-m)^2 / sum Mm
    m = rng.uniform(0.5, 1.5, 4)
    w = rng.uniform(0.0, 0.4, 4)
    corr = ScalarCorridor(m, m + w, real_mode=True)
    expected = math.sqrt(float(np.sum(w**2)) / float(np.sum((m + w) * m)))
    assert m_factor(corr).value == pytest.approx(expected, rel=1e-12)


@given(st.integers(0, 2**31 - 1), st.floats(0.25, 4.0))
@settings(max_examples=100, deadline=None)
def test_scale_equivariance(seed, t):
    rng = np.random.default_rng(seed)
    fam = random_family(6, 3, rng)
    corr = CorridorSpec().sample(3, rng)
    x = admissible_point(fam, corr, rng, rng.uniform())
    base = bessel_counterpart(x, fam, corr)
    scaled = bessel_counterpart(t * x, fam, corr.scaled(t))
    assert scaled.all_hold == base.all_hold
    for a, b in zip(scaled.values, base.values):
        assert a == pytest.approx(t * t * b, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# reverse Schwarz record


def test_schwarz_hand_example():
    # x=(1,2), y=(0,1), delta=1, Delta=3: boundary instance of the sign form
    x = Vector([1.0, 2.0], True)
    y = Vector([0.0, 1.0], True)
    pack = schwarz_counterparts(x, y, 1.0, 3.0)
    s3 = math.sqrt(3.0)
    assert pack.norm_product.values == pytest.approx((math.sqrt(5.0), 4.0 / s3, 4.0 / s3))
    assert pack.norm_product_gap.values == pytest.approx(
        (0.0, math.sqrt(5.0) - 2.0, (4.0 - 2.0 * s3) / s3)
    )
    assert pack.norm_product_sq.values == pytest.approx((5.0, 16.0 / 3.0))
    assert pack.norm_product_sq_gap.values == pytest.approx((0.0, 1.0, 4.0 / 3.0))
    assert all(c.all_hold for c in pack.chains().values())


def test_schwarz_equality_x_equals_y(rng):
    x = random_vector(5, rng)
    pack = schwarz_counterparts(x, x, 1.0, 1.0)
    v = pack.norm_product_sq.values
    assert v[0] == pytest.approx(v[1], rel=1e-12)  # ||x||^4 <= (1/4) 4 ||x||^4
    assert all(c.all_hold for c in pack.chains().values())


def test_schwarz_reduction_oracle(rng):
    # chains must agree with the norm bounds on e = y/||y||, scaled corridor
    for _ in range(25):
        y = random_vector(6, rng)
        ny = norm(y)
        corr1 = CorridorSpec().sample(1, rng)
        delta, Delta = complex(corr1.lo[0]), complex(corr1.hi[0])
        fam1 = validate_family([Vector(y.coords / ny)], tolerance=1e-12)
        scaled = ScalarCorridor([delta * ny], [Delta * ny])
        x = admissible_point(fam1, scaled, rng, rng.uniform())
        pack = schwarz_counterparts(x, y, delta, Delta)
        lin = norm_bound_linear(x, fam1, scaled)
        quad = norm_bound_quadratic(x, fam1, scaled)
        assert pack.norm_product.values[0] == pytest.approx(lin.values[0] * ny, rel=1e-12)
        assert pack.norm_product.values[1] == pytest.approx(lin.values[1] * ny, rel=1e-12)
        assert pack.norm_product_sq.values[0] == pytest.approx(quad.values[0] * ny * ny, rel=1e-12)
        assert pack.norm_product_sq.values[1] == pytest.approx(quad.values[1] * ny * ny, rel=1e-12)
        assert all(c.all_hold for c in pack.chains().values())


def test_schwarz_gap_chain_is_shifted_norm_chain(rng):
    # gap chain = norm chain minus |<x,y>| term for term
    for _ in range(25):
        y = random_vector(4, rng)
        corr1 = CorridorSpec().sample(1, rng)
        delta, Delta = complex(corr1.lo[0]), complex(corr1.hi[0])
        ny = norm(y)
        fam1 = validate_family([Vector(y.coords / ny)], tolerance=1e-12)
        x = admissible_point(fam1, ScalarCorridor([delta * ny], [Delta * ny]), rng, rng.uniform())
        pack = schwarz_counterparts(x, y, delta, Delta)
        p_abs = abs(inner(x, y))
        assert pack.norm_product_gap.values[1] == pytest.approx(
            pack.norm_product.values[0] - p_abs, rel=1e-9, abs=1e-12
        )
        assert pack.norm_product_gap.values[2] == pytest.approx(
            pack.norm_product.values[2] - p_abs, rel=1e-9, abs=1e-12
        )


def test_schwarz_rejects_zero_y():
    with pytest.raises(ZeroVector):
        schwarz_counterparts(Vector([1.0]), Vector([0.0]), 1.0, 2.0)


def test_schwarz_rejects_overflowing_y():
    # ||y||^2 = 1e400 overflows: a float-range fault of y, not a family fault
    with pytest.raises(FloatRangeExceeded, match=r"^\|\|y\|\|\^2 overflows the float range"):
        schwarz_counterparts(Vector([1.0, 2.0]), Vector([1e200, 0.0]), 1e150, 2e150)


def test_schwarz_rejects_nonpositive_product():
    with pytest.raises(NonpositiveReSum):
        schwarz_counterparts(Vector([1.0]), Vector([1.0]), 1.0, 1j)


# ---------------------------------------------------------------------------
# pair refinements


def test_refined_sqrt_centered_x(rng):
    fam = random_family(6, 3, rng)
    spec = CorridorSpec()
    cx = spec.sample(3, rng)
    cy = spec.sample(3, rng)
    x = admissible_point(fam, cx, rng, 0.0)
    y = admissible_point(fam, cy, rng, rng.uniform())
    rep_y = check_hypothesis(y, fam, cy)
    chain = gruss_refined_sqrt(x, y, fam, cx, cy)
    outer = cx.radius * cy.radius
    expected = outer - cx.radius * math.sqrt(max(rep_y.cond_i_value, 0.0))
    assert chain.values[1] == pytest.approx(expected, rel=1e-9, abs=1e-12)
    assert chain.values[2] == pytest.approx(outer, rel=1e-12)
    assert chain.all_hold


def test_refined_sqrt_identity_substitution(rng):
    # with both vectors centered the correction equals the radius product
    fam = random_family(5, 2, rng)
    spec = CorridorSpec()
    cx, cy = spec.sample(2, rng), spec.sample(2, rng)
    x = admissible_point(fam, cx, rng, 0.0)
    y = admissible_point(fam, cy, rng, 0.0)
    chain = gruss_refined_sqrt(x, y, fam, cx, cy)
    assert chain.values[1] == pytest.approx(0.0, abs=1e-9)
    assert chain.values[0] <= chain.tolerance


def test_refined_midpoint_centered_collapses_to_outer(rng):
    fam = random_family(6, 3, rng)
    spec = CorridorSpec()
    cx, cy = spec.sample(3, rng), spec.sample(3, rng)
    x = admissible_point(fam, cx, rng, 0.0)
    y = admissible_point(fam, cy, rng, 0.0)
    chain = gruss_refined_midpoint(x, y, fam, cx, cy)
    assert chain.values[1] == pytest.approx(chain.values[2], rel=1e-9, abs=1e-12)


def test_refined_midpoint_diagonal_slack(rng):
    fam = random_family(6, 3, rng)
    cx = CorridorSpec().sample(3, rng)
    x = admissible_point(fam, cx, rng, 0.7)
    chain = gruss_refined_midpoint(x, x, fam, cx, cx)
    a = fam.coefficients(x)
    slack = float(np.sum(np.abs(cx.midpoints - a) ** 2))
    assert chain.values[2] - chain.values[1] == pytest.approx(slack, rel=1e-9, abs=1e-12)
    assert chain.all_hold


def test_refined_zero_width_zero_chain():
    fam = validate_family([Vector([1.0, 0.0], True), Vector([0.0, 1.0], True)])
    c = ScalarCorridor([0.5, 0.25], [0.5, 0.25], real_mode=True)
    x = fam.combine(c.midpoints)
    for op in (gruss_refined_sqrt, gruss_refined_midpoint):
        chain = op(x, x, fam, c, c)
        assert all(abs(v) <= 1e-12 for v in chain.values)


def test_refined_reports_failing_vector(rng):
    fam = random_family(4, 2, rng)
    spec = CorridorSpec()
    cx, cy = spec.sample(2, rng), spec.sample(2, rng)
    x = admissible_point(fam, cx, rng, 0.5)
    bad_y = Vector(10.0 + np.zeros(4) + 0j)
    with pytest.raises(HypothesisFailed) as exc:
        gruss_refined_sqrt(x, bad_y, fam, cx, cy)
    assert exc.value.which == "y"


# ---------------------------------------------------------------------------
# corridor pair bound and companion


def test_gruss_bound_diagonal_consistency(rng):
    # y = x reduces to the squared defect relation of bessel_counterpart
    for _ in range(20):
        fam, corr, x = admissible_instance(rng)
        g = gruss_bound(x, x, fam, corr, corr)
        b = bessel_counterpart(x, fam, corr)
        assert g.values[1] == pytest.approx(b.values[1], rel=1e-10, abs=1e-12)
        assert g.values[2] == pytest.approx(b.values[2], rel=1e-10, abs=1e-12)


def test_gruss_bound_single_member_matches_ratio_form(rng):
    for _ in range(20):
        fam = random_family(5, 1, rng)
        spec = CorridorSpec()
        c1, c2 = spec.sample(1, rng), spec.sample(1, rng)
        x = admissible_point(fam, c1, rng, rng.uniform())
        y = admissible_point(fam, c2, rng, rng.uniform())
        chain = gruss_bound(x, y, fam, c1, c2)
        assert chain.all_hold
        a = complex(fam.coefficients(x)[0])
        b = complex(fam.coefficients(y)[0])
        if abs(a) > 1e-9 and abs(b) > 1e-9:
            ratio = single_vector_ratio_chain(x, y, fam, c1, c2)
            assert ratio.all_hold
            # same inequality divided through by |<x,e><e,y>|
            assert ratio.values[0] == pytest.approx(
                chain.values[1] / abs(a * b.conjugate()), rel=1e-9
            )


@pytest.mark.parametrize("scale", [1.0, 2.0**-400, 2.0**400])
def test_ratio_chain_on_a_zero_coefficient(scale):
    # <x,e> = 0 with sign form scale^2 under (-1, 1) * scale, whose Re-sum is
    # -scale^2: the public ratio function finds the zero coefficient before
    # any corridor, while the catalog leaves the ratio chain out and the
    # Gruss chain, run first, finds the Re-sum
    fam = validate_family([Vector([1.0, 0.0])])
    x, y = Vector([0.0, 0.0]), Vector([1.5 * scale, 0.0])
    cx = ScalarCorridor([-scale], [scale])
    cy = ScalarCorridor([scale], [2.0 * scale])
    assert check_hypothesis(x, fam, cx).cond_i_value == scale * scale
    with pytest.raises(ZeroVector, match=r"^coefficients <x,e>, <y,e> must be nonzero$"):
        single_vector_ratio_chain(x, y, fam, cx, cy)
    fields = {FAMILY: fam, X: x, X_CORRIDOR: cx, Y: y, Y_CORRIDOR: cy}
    with pytest.raises(NonpositiveReSum) as exc:
        catalog.evaluate("cor3.3", fields)
    assert exc.value.value == -scale * scale


def test_gruss_bound_real_single_vector_factor():
    # real corridors a<A, b<B on one member: bound factor (A-a)(B-b)/(4 sqrt(abAB))
    fam = validate_family([Vector([1.0, 0.0], True)])
    a_, A_, b_, B_ = 1.0, 2.0, 0.5, 3.0
    cx = ScalarCorridor([a_], [A_], real_mode=True)
    cy = ScalarCorridor([b_], [B_], real_mode=True)
    x = Vector([(a_ + A_) / 2, 0.1], True)
    y = Vector([(b_ + B_) / 2, -0.2], True)
    chain = gruss_bound(x, y, fam, cx, cy)
    ax = fam.coefficients(x)[0]
    by = fam.coefficients(y)[0]
    factor = (A_ - a_) * (B_ - b_) / (4.0 * math.sqrt(a_ * A_ * b_ * B_))
    assert chain.values[2] == pytest.approx(factor * abs(ax) * abs(by), rel=1e-12)


def test_companion_reduces_to_defect_bound(rng):
    for _ in range(20):
        fam, corr, x = admissible_instance(rng)
        comp = companion_bound(x, x, fam, corr, 0.5)
        bes = bessel_counterpart(x, fam, corr)
        assert comp.values[0] == pytest.approx(bes.values[1], rel=1e-10, abs=1e-12)
        assert comp.values[1] == pytest.approx(bes.values[2], rel=1e-10, abs=1e-12)


def test_companion_lambda_scaling(rng):
    fam, corr, z = admissible_instance(rng, slack=0.3)
    x = random_vector(6, rng)
    lam_small, lam_half = 0.01, 0.5
    y_small = Vector((z.coords - lam_small * x.coords) / (1 - lam_small))
    y_half = Vector((z.coords - lam_half * x.coords) / (1 - lam_half))
    b_small = companion_bound(x, y_small, fam, corr, lam_small)
    b_half = companion_bound(x, y_half, fam, corr, lam_half)
    assert b_small.values[1] / b_half.values[1] == pytest.approx(
        (0.25) / (lam_small * (1 - lam_small)), rel=1e-9
    )


def test_companion_intermediate_oracle(rng):
    # independent middle expression: ||z - proj z||^2 / (4 lam (1-lam))
    for _ in range(20):
        fam, corr, z = admissible_instance(rng)
        lam = float(rng.uniform(0.1, 0.9))
        x = random_vector(6, rng)
        y = Vector((z.coords - lam * x.coords) / (1 - lam))
        chain = companion_bound(x, y, fam, corr, lam)
        resid = z - fam.combine(fam.coefficients(z))
        middle = norm_sq(resid) / (4.0 * lam * (1.0 - lam))
        assert gruss_defect(x, y, fam).real <= middle + 1e-9 * max(1.0, middle)
        assert middle <= chain.values[1] * (1 + 1e-9) + 1e-12


def test_companion_bad_lambda(rng):
    fam, corr, x = admissible_instance(rng)
    for lam in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(BadLambda):
            companion_bound(x, x, fam, corr, lam)


def test_companion_of_vectors_of_two_dims_raises_dimension_mismatch(rng):
    # after the lambda rule, before z = lam*x + (1-lam)*y is formed; the
    # message gruss_defect gives
    fam, corr, x = admissible_instance(rng)
    y = random_vector(7, rng)
    with pytest.raises(BadLambda):
        companion_bound(x, y, fam, corr, 1.0)
    with pytest.raises(DimensionMismatch) as ref:
        gruss_defect(x, y, fam)
    for first, second, dims in ((x, y, "dim 6 != dim 7"), (y, x, "dim 7 != dim 6")):
        with pytest.raises(DimensionMismatch, match=f"^{dims}$"):
            companion_bound(first, second, fam, corr, 0.5)
    assert str(ref.value) == "dim 6 != dim 7"


# ---------------------------------------------------------------------------
# chain plumbing


def test_chain_tolerance_policy():
    chain = BoundChain(("a", "b"), (1.0, 1.0 - 1e-10))
    assert chain.all_hold  # inside relative band
    chain2 = BoundChain(("a", "b"), (1.0, 0.9))
    assert not chain2.all_hold
    assert chain2.slacks == (0.9 - 1.0,)
    chain3 = BoundChain(("a", "b"), (0.0, -1e-13))
    assert chain3.all_hold  # absolute floor


def test_chains_side_by_side_get_the_verdicts_they_get_alone():
    # the slacks across chain boundaries (3 -> -5 in the first row, 2 ->
    # -1e-13 and 0 -> -5 in the second, which holds the table reversed) are
    # no slacks of either chain
    chains = [(1.0, 2.0, 3.0), (-5.0, -5.0 - 1e-8), (0.0, -1e-13), (2.0, 1.0, 3.0)]
    table = np.array([v for c in chains for v in c])
    starts, ends = [0, 3, 5, 7], [3, 5, 7, 10]
    batch = np.stack([table, table[::-1]])
    holds = bounds._chain_holds(batch, starts)
    tolerance = bounds._chain_tolerance(batch, starts)
    for row, expected in zip(batch, ([True, False, True, False], [False, True, True, False])):
        alone = [BoundChain(("a",) * (b - a), row[a:b]) for a, b in zip(starts, ends)]
        assert [c.all_hold for c in alone] == expected
    for got_holds, got_tolerance, row in zip(holds, tolerance, batch):
        alone = [BoundChain(("a",) * (b - a), row[a:b]) for a, b in zip(starts, ends)]
        assert got_holds.tolist() == [c.all_hold for c in alone]
        assert got_tolerance.tolist() == [c.tolerance for c in alone]


_SEGMENT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.floats(1e-12, 1.0 - 1e-12).map(statistics.NormalDist().inv_cdf),  # N(0, 1)
)


@st.composite
def _segmented_tables(draw):
    """A table of 1-3 rows and 2-30 links, cut into chains of 2-4 links:
    (table, starts, ends)."""
    lengths = draw(st.lists(st.integers(2, 4), min_size=1, max_size=15))
    ends = [e for e in itertools.accumulate(lengths) if e <= 30]
    starts = [0] + ends[:-1]
    rows = draw(st.integers(1, 3))
    values = draw(st.lists(_SEGMENT_VALUES, min_size=rows * ends[-1], max_size=rows * ends[-1]))
    return np.array(values).reshape(rows, ends[-1]), starts, ends


def _policy_alone(chain) -> tuple[float, bool]:
    """The tolerance policy applied to one chain alone, in Python floats: its
    tolerance max(1e-12, 1e-9 max|v|), NaN if it holds a NaN, and whether
    every slack is at least -tolerance."""
    tol = math.nan if any(map(math.isnan, chain)) else max(1e-12, 1e-9 * max(map(abs, chain)))
    return tol, all(b - a >= -tol for a, b in zip(chain, chain[1:]))


@settings(max_examples=300, deadline=None)
@given(_segmented_tables(), st.data())
def test_chain_segments_are_judged_as_each_chain_alone(segmented, data):
    table, starts, ends = segmented
    with np.errstate(invalid="ignore", over="ignore"):
        holds = bounds._chain_holds(table, starts)
        tolerance = bounds._chain_tolerance(table, starts)
    for row, got_holds, got_tolerance in zip(table.tolist(), holds, tolerance):
        alone = [_policy_alone(row[a:b]) for a, b in zip(starts, ends)]
        np.testing.assert_array_equal(got_tolerance, [tol for tol, _ in alone])
        assert got_holds.tolist() == [ok for _, ok in alone]
    # a NaN or an inf planted in one chain leaves every other verdict as it was
    j = data.draw(st.integers(0, len(starts) - 1))
    link = data.draw(st.integers(starts[j], ends[j] - 1))
    planted = table.copy()
    planted[data.draw(st.integers(0, len(table) - 1)), link] = data.draw(
        st.sampled_from([math.nan, math.inf, -math.inf])
    )
    with np.errstate(invalid="ignore", over="ignore"):
        again = bounds._chain_holds(planted, starts)
        again_tolerance = bounds._chain_tolerance(planted, starts)
    others = [k for k in range(len(starts)) if k != j]
    assert (again[:, others] == holds[:, others]).all()
    np.testing.assert_array_equal(again_tolerance[:, others], tolerance[:, others])


def test_chain_requires_labels():
    with pytest.raises(ValueError):
        BoundChain(("a",), (1.0, 2.0))


@pytest.mark.parametrize(
    "values, shown",
    [
        ((1.0, math.nan, 2.0), "(1.0, nan, 2.0)"),
        ((1.0, 2.0, math.inf), "(1.0, 2.0, inf)"),
        ((-math.inf, 1.0, 2.0), "(-inf, 1.0, 2.0)"),
    ],
)
def test_a_chain_with_a_value_beyond_the_float_range_is_refused(values, shown):
    with pytest.raises(FloatRangeExceeded) as exc:
        BoundChain(("a", "b", "c"), values)
    assert str(exc.value) == f"the chain a <= b <= c overflows the float range: {shown}"


# ---------------------------------------------------------------------------
# the float64 lane of all-real instances: the complex path's bits

# zeros of both signs, magnitudes near 1e+-300 and the least subnormal; a
# corridor side takes the small ones, under which its aggregates stay finite
_SMALL = (0.0, -0.0, 1e-300, -1e-300, 5e-324)
_SPECIALS = _SMALL + (1e300, -1e300)


def _complex_path(mp):
    """Every instance takes the complex128 operands, as all did before the lane."""
    mp.setattr(family, "_real_lane", lambda *fields: False)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _outcome(call):
    """What ``call`` returns, or the type and message of what it raises (a
    RuntimeWarning is raised under the suite's warning filter)."""
    try:
        return call()
    except (OrthoboundError, ArithmeticError, ValueError, RuntimeWarning) as exc:
        return type(exc).__name__, str(exc)


def _report_bits(fam, x, corridor, tol):
    def call():
        r = check_hypothesis(x, fam, corridor, tol)
        return _bits([r.cond_i_value, r.cond_ii_residual, r.radius]), r.holds, r

    return _outcome(call)


def _lane_outcomes(fam, x, cx, y, cy, tol=1e-10):
    """Coefficients, hypothesis reports and the chains of the instance."""
    a = fam.coefficients(x)
    assert a.dtype == np.complex128 and not a.imag.any()
    out = [_bits(a.real), _bits(fam.coefficients(y).real)]
    rx, ry = _report_bits(fam, x, cx, tol), _report_bits(fam, y, cy, tol)
    out += [rx[:2], ry[:2]]
    if len(rx) == 3 and len(ry) == 3:
        for bound in (norm_bound_linear, norm_bound_quadratic, bessel_counterpart):
            chain = _outcome(lambda: bound(x, fam, cx, tol=tol))
            out.append(_bits(chain.values) if isinstance(chain, BoundChain) else chain)
        chain = _outcome(lambda: gruss_bound(x, y, fam, cx, cy, tol))
        out.append(_bits(chain.values) if isinstance(chain, BoundChain) else chain)
    return out


def _assert_lane_matches_complex_path(*instance):
    lane = _lane_outcomes(*instance)
    with pytest.MonkeyPatch.context() as mp:
        _complex_path(mp)
        assert _lane_outcomes(*instance) == lane


def _real_family(rng, dim, count, signed_units):
    if not signed_units:
        return random_family(dim, count, rng, real=True)
    # unit rows of either sign, with zeros of both signs elsewhere
    rows = np.where(rng.random((count, dim)) < 0.5, 0.0, -0.0)
    rows[np.arange(count), rng.permutation(dim)[:count]] = rng.choice([1.0, -1.0], count)
    return OrthonormalFamily(rows, 1e-10, True)


def _with_specials(rng, values, specials=_SPECIALS):
    v = np.array(values, dtype=np.float64)
    hit = rng.random(v.shape) < 0.3
    v[hit] = rng.choice(specials, int(hit.sum()))
    return v


def _real_vector(rng, fam, corridor, kind):
    if kind == "admissible":
        return admissible_point(fam, corridor, rng, rng.uniform())
    if kind == "corner":  # sum_i hi_i e_i, where the sign form is zero
        return Vector(corridor.hi @ fam.matrix, True)
    return Vector(_with_specials(rng, rng.standard_normal(fam.dim)), True)


@given(
    st.integers(1, 16),
    st.integers(1, 16),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from([1.0, 1e-150, 1e150, 1e-300]),
    st.sampled_from(["admissible", "corner", "special"]),
)
@settings(max_examples=300, deadline=None)
def test_the_lane_gives_the_complex_paths_bits(dim, count, seed, signed_units, scale, kind):
    count = min(count, dim)
    rng = np.random.default_rng(seed)
    fam = _real_family(rng, dim, count, signed_units)
    spec = CorridorSpec("real", scale, 2.0 * scale, 0.9 * scale)
    cx, cy = (
        ScalarCorridor(*(_with_specials(rng, s, _SMALL) for s in (c.lo.real, c.hi.real)), True)
        for c in (spec.sample(count, rng), spec.sample(count, rng))
    )
    x = _real_vector(rng, fam, cx, kind)
    y = _real_vector(rng, fam, cy, "admissible")
    _assert_lane_matches_complex_path(fam, x, cx, y, cy)


@pytest.mark.parametrize("dim", [17, 20, 25, 36, 41])
def test_the_lane_gives_the_complex_paths_bits_beyond_16_members(dim):
    # dgemm in the plain layout splits the member sum at these shapes
    rng = np.random.default_rng(dim)
    for count in (16, min(dim, 24)):
        fam = random_family(dim, count, rng, real=True)
        for _ in range(5):
            cx, cy = (CorridorSpec("real").sample(count, rng) for _ in range(2))
            x, y = (admissible_point(fam, c, rng, rng.uniform()) for c in (cx, cy))
            _assert_lane_matches_complex_path(fam, x, cx, y, cy)


@pytest.mark.parametrize("kind", ["trig", "legendre"])
def test_the_lane_gives_the_complex_paths_bits_on_a_2048_node_instance(kind):
    a, b = (0.0, 2.0 * math.pi) if kind == "trig" else (-1.0, 1.0)
    grid = gauss_legendre_grid(2048, a, b)
    fns = (trig_samples if kind == "trig" else legendre_samples)(16, grid)
    table = np.stack([fi.values.real for fi in fns])
    rng = np.random.default_rng(21)
    sandwiches = []
    for _ in range(2):  # f = sum c_i f_i + t f_0 lies between c and c + 0.5 e_0
        c = rng.uniform(0.1, 1.0, 16) / np.arange(1, 17)
        f = SampledFunction(c @ table + rng.uniform(0.1, 0.4) * table[0], True)
        big = c.copy()
        big[0] += 0.5
        sandwiches.append((f, sandwich_check(f, fns, grid, c, big).corridor))

    def chains():
        (f, cf), (g, cg) = sandwiches
        inst = integral_instance(f, fns, grid, cf, g, cg)
        names = ("linear_chain", "quadratic_chain", "bessel_chain", "gruss_chain")
        reports = (inst.report_x, inst.report_y)
        values = [getattr(inst, name)().values for name in names] + [
            [r.cond_i_value, r.cond_ii_residual, r.radius] for r in reports
        ]
        return [_bits(v) for v in values]

    lane = chains()
    with pytest.MonkeyPatch.context() as mp:
        _complex_path(mp)
        assert chains() == lane
    inst = integral_instance(sandwiches[0][0], fns, grid, sandwiches[0][1])
    _assert_lane_matches_complex_path(inst.family, inst.x, inst.cx, inst.x, inst.cx)


@pytest.fixture
def kernel_operands(monkeypatch):
    """The dtypes of the (vector, family rows) each kernel call reads, by
    kernel: the hypothesis, and the coefficients a slot computes."""
    seen = []
    coefficients, hypothesis = bounds._coefficients, admissibility._hypothesis

    def spy_coefficients(x, matrix):
        seen.append(("coefficients", x.dtype, matrix.dtype))
        return coefficients(x, matrix)

    def spy_hypothesis(x, matrix, *args):
        seen.append(("hypothesis", x.dtype, matrix.dtype))
        return hypothesis(x, matrix, *args)

    monkeypatch.setattr(bounds, "_coefficients", spy_coefficients)
    monkeypatch.setattr(admissibility, "_hypothesis", spy_hypothesis)
    return seen


_F, _C = np.dtype(np.float64), np.dtype(np.complex128)


@pytest.mark.parametrize(
    "x_real, corridor_mode, dtype",
    [
        (True, "real", _F),
        (False, "real", _C),
        (True, "complex", _C),  # one lane per instance, though the coefficients read no corridor
    ],
    ids=["all-real", "complex-x", "complex-corridor"],
)
def test_only_an_all_real_instance_reaches_the_kernels_in_float64(
    kernel_operands, x_real, corridor_mode, dtype
):
    rng = np.random.default_rng(5)
    fam = random_family(6, 3, rng, real=True)
    corridor = CorridorSpec(corridor_mode).sample(3, rng)
    x = admissible_point(fam, CorridorSpec("real").sample(3, rng), rng, 0.5)
    x = x if x_real else Vector(x.coords + 1e-3j)
    # x is drawn for another corridor: a tolerance this wide admits it, so
    # both kernels run (an instance that fails admission computes no coefficients)
    _outcome(lambda: norm_bound_linear(x, fam, corridor, tol=1e6))
    assert kernel_operands == [("hypothesis", dtype, dtype), ("coefficients", dtype, dtype)]


def test_an_integral_instance_takes_the_lane_through_the_public_kernels(kernel_operands):
    grid = gauss_legendre_grid(64, 0.0, 2.0 * math.pi)
    fns = trig_samples(5, grid)
    f = SampledFunction(fns[0].values + 0.25 * fns[1].values, True)
    cf = ScalarCorridor([0.5, 0.0, 0.0, 0.0, 0.0], [1.5, 0.5, 0.0, 0.0, 0.0], True)
    inst = integral_instance(f, fns, grid, cf)
    assert inst.bessel_chain().all_hold
    assert kernel_operands == [("hypothesis", _F, _F), ("coefficients", _F, _F)]


def test_the_complex_path_reaches_every_kernel(kernel_operands, monkeypatch):
    rng = np.random.default_rng(5)
    fam = random_family(6, 3, rng, real=True)
    cx, cy = (CorridorSpec("real").sample(3, rng) for _ in range(2))
    x, y = (admissible_point(fam, c, rng, 0.5) for c in (cx, cy))
    grid = gauss_legendre_grid(64, 0.0, 2.0 * math.pi)
    fns = trig_samples(5, grid)
    f = SampledFunction(fns[0].values + 0.25 * fns[1].values, True)
    cf = ScalarCorridor([0.5, 0.0, 0.0, 0.0, 0.0], [1.5, 0.5, 0.0, 0.0, 0.0], True)
    _complex_path(monkeypatch)
    assert norm_bound_linear(x, fam, cx).all_hold
    assert gruss_bound(x, y, fam, cx, cy).all_hold
    assert check_hypothesis(x, fam, cx).holds
    inst = integral_instance(f, fns, grid, cf)
    assert all(getattr(inst, c)().all_hold for c in ("bessel_chain", "linear_chain"))
    h, c = "hypothesis", "coefficients"
    assert [k for k, _, _ in kernel_operands] == [h, c, h, h, c, c, h, h, c]
    assert {dtype for _, *dtypes in kernel_operands for dtype in dtypes} == {_C}


# ---------------------------------------------------------------------------
# mixed real and complex instances: the real values cast to complex128


def _twin(value):
    """The complex-mode twin of a real-mode value: its array cast to complex128."""
    if isinstance(value, Vector):
        return Vector(value.coords.astype(np.complex128))
    if isinstance(value, OrthonormalFamily):
        return OrthonormalFamily(value.matrix.astype(np.complex128), value.tolerance)
    if isinstance(value, ScalarCorridor):
        return ScalarCorridor(value.lo.astype(np.complex128), value.hi.astype(np.complex128))
    return value


def _encoded(out):
    """Every bit of what a public function returned, or its error."""
    if isinstance(out, BoundChain):
        return out.labels, _bits(out.values), tuple(map(_encoded, out.reports))
    if isinstance(out, HypothesisReport):
        return _bits([out.cond_i_value, out.cond_ii_residual, out.radius]), out.holds
    if isinstance(out, tuple):  # an error, as _outcome gives it
        return out
    return np.asarray(out, dtype=np.complex128).tobytes()


def _mixed_outcomes(fam, x, cx, y, cy):
    calls = [
        lambda: fam.coefficients(x),
        lambda: inner(x, y),
        lambda: check_hypothesis(x, fam, cx, 1e6),
        lambda: norm_bound_linear(x, fam, cx, tol=1e6),
        lambda: norm_bound_quadratic(x, fam, cx, "holder", 3.0, tol=1e6),
        lambda: bessel_counterpart(x, fam, cx, tol=1e6),
        lambda: gruss_bound(x, y, fam, cx, cy, tol=1e6),
        lambda: gruss_refined_sqrt(x, y, fam, cx, cy, tol=1e6),
        lambda: gruss_refined_midpoint(x, y, fam, cx, cy, tol=1e6),
        lambda: companion_bound(x, y, fam, cx, 0.5, tol=1e6),
        lambda: bessel_defect(x, fam),
        lambda: gruss_defect(x, y, fam),
        lambda: schwarz_step(x, y, fam),
    ]
    return [_encoded(_outcome(call)) for call in calls]


def _mixed_instance(rng, real_family, x_real, corridor_real):
    dim = int(rng.integers(1, 9))
    count = int(rng.integers(1, dim + 1))
    fam = random_family(dim, count, rng, real=real_family)
    spec = CorridorSpec("real" if corridor_real else "complex")
    cx, cy = spec.sample(count, rng), spec.sample(count, rng)
    x, y = (admissible_point(_twin(fam), _twin(c), rng, rng.uniform()) for c in (cx, cy))
    if x_real:  # the real parts of points of the complex twins, zeros of both signs
        x, y = (Vector(_with_specials(rng, v.coords.real, _SMALL), True) for v in (x, y))
    return fam, x, cx, y, cy


@pytest.mark.parametrize(
    "real_family, x_real, corridor_real",
    [(True, False, True), (False, True, False), (False, False, True), (False, True, True)],
    ids=["real-family-complex-x", "complex-family-real-x", "real-corridor-complex-family",
         "complex-family-only"],
)
def test_a_mixed_instance_gives_the_bits_of_its_complex_twin(real_family, x_real, corridor_real):
    rng = np.random.default_rng(27)
    for _ in range(40):
        fam, x, cx, y, cy = _mixed_instance(rng, real_family, x_real, corridor_real)
        mixed = _mixed_outcomes(fam, x, cx, y, cy)
        assert mixed == _mixed_outcomes(*map(_twin, (fam, x, cx, y, cy)))


def test_a_mixed_instance_casts_its_real_corridor_and_builds_none(monkeypatch):
    # out of the lane a real corridor's sides are cast to complex128 and its
    # aggregates kept: no corridor is built, and the bits are the twin's
    rng = np.random.default_rng(8)
    fam = random_family(8, 4, rng, real=True)
    cx, cy = CorridorSpec("real").sample(4, rng), CorridorSpec("real").sample(4, rng)
    x, y = (Vector(admissible_point(fam, c, rng, 0.5).coords + 1e-3j) for c in (cx, cy))
    expected = _mixed_outcomes(*map(_twin, (fam, x, cx, y, cy)))
    built = []
    post_init, build = ScalarCorridor.__post_init__, ScalarCorridor.build

    def spy(self):
        built.append("ScalarCorridor")
        post_init(self)

    monkeypatch.setattr(ScalarCorridor, "__post_init__", spy)
    monkeypatch.setattr(
        ScalarCorridor, "build", staticmethod(lambda lo, hi: built.append("build") or build(lo, hi))
    )
    assert _mixed_outcomes(fam, x, cx, y, cy) == expected
    assert built == []


@pytest.mark.parametrize("real", [True, False])
def test_free_forms_that_overflow_raise_a_typed_error(real):
    # finite vectors near 1e200: ||x||^2 and <x, y> overflow; under the
    # suite's warning filter an escaped RuntimeWarning would fail this test
    rng = np.random.default_rng(3)
    fam = random_family(3, 2, rng, real=real)
    huge = random_vector(3, rng, real=real, scale=1e200)
    small = random_vector(3, rng, real=real)
    calls = (lambda: bessel_defect(huge, fam), lambda: gruss_defect(huge, huge, fam),
             lambda: schwarz_step(huge, small, fam), lambda: schwarz_step(small, huge, fam))
    for call in calls:
        with pytest.raises(FloatRangeExceeded, match="overflows the float range"):
            call()
    assert math.isfinite(bessel_defect(small, fam))
    assert schwarz_step(small, small, fam).all_hold


@pytest.mark.parametrize("real_family", [True, False])
def test_the_self_defect_reads_x_x_as_the_squared_norm(real_family):
    # <x, x> is ||x||^2, exactly real, as inner(x, x) is: the imaginary part
    # of gruss_defect(x, x, fam) is the coefficient term's alone
    rng = np.random.default_rng(12)
    fam = random_family(5, 3, rng, real=real_family)
    x = random_vector(5, rng, real=False)
    a = fam.coefficients(x)
    expected = norm_sq(x) - inner(Vector(a), Vector(a.copy()))
    assert np.complex128(gruss_defect(x, x, fam)).tobytes() == np.complex128(expected).tobytes()
    # where the coefficient products are exact, so is the defect: 13 + 0j
    units = OrthonormalFamily(np.eye(4)[:2].astype(complex))
    exact = Vector([1 + 2j, 0.5 - 1j, 3j, -2.0])
    defect = gruss_defect(exact, exact, units)
    assert (defect.real, defect.imag, math.copysign(1.0, defect.imag)) == (13.0, 0.0, 1.0)
