import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthobound import (
    BadExponent,
    BadLambda,
    BoundChain,
    CorridorSpec,
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


def test_hypothesis_failed_and_force():
    fam = unit_family()
    corr = ScalarCorridor([1.0], [2.0], real_mode=True)
    far = Vector([40.0], True)
    with pytest.raises(HypothesisFailed) as exc:
        norm_bound_quadratic(far, fam, corr)
    assert exc.value.report.cond_ii_residual > exc.value.report.radius
    chain = norm_bound_quadratic(far, fam, corr, force=True)
    assert not chain.verified


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


def test_chain_requires_labels():
    with pytest.raises(ValueError):
        BoundChain(("a",), (1.0, 2.0))
