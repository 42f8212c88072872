import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthobound import (
    CorridorSpec,
    FloatRangeExceeded,
    ScalarCorridor,
    Vector,
    admissible_point,
    bessel_counterpart,
    check_hypothesis,
    jsonio,
    random_family,
    validate_family,
)
from orthobound.admissibility import _hypothesis
from conftest import random_vector


def test_corridor_cached_aggregates_recomputable(rng):
    lo = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    hi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    c = ScalarCorridor(lo, hi)
    assert c.re_sum == pytest.approx(float(np.sum((hi * np.conj(lo)).real)), abs=1e-14)
    assert c.radius == pytest.approx(0.5 * math.sqrt(float(np.sum(np.abs(hi - lo) ** 2))), abs=1e-14)
    assert np.allclose(c.midpoints, (lo + hi) / 2.0)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def test_corridor_sides_are_read_only_views_of_one_stack(rng):
    lo = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    hi = lo + rng.uniform(0.1, 1.0, 5)
    inputs = lo.copy(), hi.copy()
    c = ScalarCorridor(*inputs)
    inputs[0][:] = 0.0  # the corridor keeps its own copy of the sides
    assert c.sides.shape == (3, 5)
    for view, expected in ((c.hi, hi), (c.lo, lo), (c.midpoints, 0.5 * (lo + hi))):
        assert np.shares_memory(view, c.sides)
        assert not view.flags.writeable
        assert _bits(view) == _bits(expected)
        with pytest.raises(ValueError):
            view[0] = 1.0
    assert _bits(c.sides) == _bits(np.stack([hi, lo, 0.5 * (lo + hi)]))


def test_a_real_corridor_holds_its_sides_once_in_float64(rng):
    lo = rng.standard_normal(5)
    lo[:2] = 0.0, -0.0
    hi = lo + rng.uniform(0.0, 1.0, 5)
    for given in ((lo, hi), (lo.astype(complex), hi.astype(complex)), (list(lo), hi)):
        c = ScalarCorridor(*given, real_mode=True)
        assert c.sides.dtype == np.float64 and c.sides.shape == (3, 5)
        assert c.sides.flags.c_contiguous and not c.sides.flags.writeable
        assert c.sides.base is None  # the one array; lo, hi and midpoints are views of it
        for view in (c.hi, c.lo, c.midpoints):
            assert view.base is c.sides and view.dtype == np.float64
        # the aggregates and sides are the complex corridor's, bit for bit
        twin = ScalarCorridor(lo.astype(complex), hi.astype(complex))
        assert twin.sides.dtype == np.complex128
        assert _bits(c.sides) == _bits(twin.sides.real)
        assert (_bits(c.re_sum), _bits(c.radius)) == (_bits(twin.re_sum), _bits(twin.radius))
    assert ScalarCorridor(lo, hi).sides.dtype == np.complex128


def test_a_real_corridor_drops_the_sign_of_a_negative_zero_imaginary_part():
    lo = np.array([complex(1.0, -0.0), complex(-0.0, -0.0)])
    c = ScalarCorridor(lo, lo + 1.0, real_mode=True)
    assert _bits(c.lo) == _bits(np.array([1.0, -0.0]))
    assert np.signbit(ScalarCorridor(lo, lo + 1.0).lo.imag).all()


def test_a_real_corridor_applies_the_finiteness_rule_before_the_real_rule():
    with pytest.raises(ValueError, match="^corridor hi must be finite$"):
        ScalarCorridor([1.0, 1j], [1.0, complex(math.inf, 1.0)], real_mode=True)
    with pytest.raises(ValueError, match="^real_mode corridor lo has imaginary parts$"):
        ScalarCorridor([1.0, 1j], [1.0, 2.0], real_mode=True)


@pytest.mark.parametrize("mode", ["real", "complex"])
def test_batched_corridor_rows_equal_scalar_corridors(mode):
    # row k of a batched build is the ScalarCorridor of row k, bit for bit
    spec = CorridorSpec(mode)
    for count in (1, 3, 4, 7):
        u = np.random.default_rng(count).random((50, spec._parts, count))
        batch = ScalarCorridor.build(*spec._sides(u))
        assert batch.sides.shape == (50, 3, count) and not batch.sides.flags.writeable
        for k in range(50):
            one = ScalarCorridor(*spec._sides(u[k]), real_mode=mode == "real")
            assert _bits(one.sides) == _bits(batch.sides[k])
            assert one.re_sum == float(batch.re_sum[k])
            assert one.radius == float(batch.radius[k])


def test_scaled_and_json_round_trip_keep_the_sides(rng):
    c = CorridorSpec().sample(4, rng)
    t = 0.37
    scaled = c.scaled(t)
    assert _bits(scaled.sides) == _bits(ScalarCorridor(t * c.lo, t * c.hi).sides)
    data = jsonio.corridor_to_json(c)
    back = jsonio.corridor_from_json(data["phi"], data["Phi"])
    assert _bits(back.sides) == _bits(c.sides)
    assert (back.re_sum, back.radius) == (c.re_sum, c.radius)


def test_corridor_validation():
    with pytest.raises(ValueError):
        ScalarCorridor([], [])
    with pytest.raises(ValueError):
        ScalarCorridor([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        ScalarCorridor([1.0], [1j], real_mode=True)


def test_center_of_corridor_holds():
    fam = validate_family([Vector(row, True) for row in np.eye(3)[:2]])
    c = ScalarCorridor([1.0, 0.5], [2.0, 1.5], real_mode=True)
    x = fam.combine(c.midpoints)
    rep = check_hypothesis(x, fam, c)
    assert rep.holds
    assert rep.cond_ii_residual == pytest.approx(0.0, abs=1e-15)
    assert rep.cond_i_value == pytest.approx(rep.radius**2, rel=1e-12)


def test_lower_endpoint_boundary():
    # single member, real corridor, x at the lower endpoint: exact boundary
    fam = validate_family([Vector([1.0], True)])
    c = ScalarCorridor([1.0], [4.0], real_mode=True)
    rep = check_hypothesis(Vector([1.0], True), fam, c)
    assert rep.cond_i_value == pytest.approx(0.0, abs=1e-15)
    assert rep.holds


def test_plane_construction_boundary():
    s = 1.0 / math.sqrt(2.0)
    fam = validate_family([Vector([s, s], True)])
    c = ScalarCorridor([1.0], [3.0], real_mode=True)
    x = Vector([1.0 * s, 3.0 * s], True)
    rep = check_hypothesis(x, fam, c)
    assert rep.cond_i_value == pytest.approx(0.0, abs=1e-14)
    assert rep.holds


@given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_random_admissible_satisfies_ball_form(seed, slack):
    rng = np.random.default_rng(seed)
    fam = random_family(6, 3, rng)
    corr = CorridorSpec().sample(fam.count, rng)
    x = admissible_point(fam, corr, rng, slack)
    rep = check_hypothesis(x, fam, corr)
    assert rep.holds
    assert rep.cond_ii_residual <= rep.radius * (1.0 + 1e-12)


def test_random_admissible_slack_zero_is_center(rng):
    fam = random_family(5, 3, rng)
    corr = CorridorSpec().sample(fam.count, rng)
    x = admissible_point(fam, corr, rng, 0.0)
    rep = check_hypothesis(x, fam, corr)
    assert rep.cond_ii_residual == pytest.approx(0.0, abs=1e-14)


def test_random_admissible_slack_one_is_boundary(rng):
    fam = random_family(5, 3, rng)
    corr = CorridorSpec().sample(fam.count, rng)
    x = admissible_point(fam, corr, rng, 1.0)
    rep = check_hypothesis(x, fam, corr)
    assert rep.cond_ii_residual == pytest.approx(corr.radius, rel=1e-12)
    assert abs(rep.cond_i_value) <= 1e-12 * max(1.0, corr.radius**2)


def test_admissible_point_bad_slack(rng):
    fam = random_family(4, 2, rng)
    corr = CorridorSpec().sample(2, rng)
    with pytest.raises(ValueError):
        admissible_point(fam, corr, rng, 1.5)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_identity_and_equivalence(seed):
    # sign form and ball form agree through the algebraic identity,
    # admissible or not
    rng = np.random.default_rng(seed)
    real = bool(rng.integers(2))
    dim = int(rng.integers(1, 17))
    count = int(rng.integers(1, min(dim, 8) + 1))
    fam = random_family(dim, count, rng, real=real)
    corr = CorridorSpec(mode="real" if real else "complex").sample(count, rng)
    x = random_vector(dim, rng, real=real, scale=2.0)
    rep = check_hypothesis(x, fam, corr)
    scale = max(1.0, rep.radius**2)
    gap = rep.cond_i_value - (rep.radius**2 - rep.cond_ii_residual**2)
    assert abs(gap) <= 1e-10 * scale
    band = 1e-10 * scale
    if abs(rep.cond_i_value) > band:
        assert (rep.cond_i_value >= 0.0) == (rep.cond_ii_residual <= rep.radius)
        assert rep.holds == (rep.cond_i_value >= 0.0)


@given(st.integers(0, 2**31 - 1), st.floats(0.125, 8.0))
@settings(max_examples=100, deadline=None)
def test_scaling_covariance(seed, t):
    rng = np.random.default_rng(seed)
    fam = random_family(6, 3, rng)
    corr = CorridorSpec().sample(fam.count, rng)
    x = admissible_point(fam, corr, rng, rng.uniform())
    rep = check_hypothesis(x, fam, corr)
    rep_t = check_hypothesis(t * x, fam, corr.scaled(t))
    assert rep_t.cond_i_value == pytest.approx(t * t * rep.cond_i_value, rel=1e-9, abs=1e-12)
    assert rep_t.holds == rep.holds


def test_degenerate_corridor_center_only():
    fam = validate_family([Vector([1.0, 0.0], True), Vector([0.0, 1.0], True)])
    c = ScalarCorridor([0.3, -0.2], [0.3, -0.2], real_mode=True)
    assert c.radius == 0.0
    center = fam.combine(c.midpoints)
    assert check_hypothesis(center, fam, c).holds
    off = Vector(center.coords + np.array([0.1, 0.0]), True)
    assert not check_hypothesis(off, fam, c).holds


def test_loose_family_breaks_identity():
    from orthobound import IdentityViolation

    eps = 1e-4
    skewed = validate_family(
        [
            Vector([1.0, 0.0], True),
            Vector([eps, math.sqrt(1.0 - eps * eps)], True),
        ],
        tolerance=1e-3,
    )
    c = ScalarCorridor([0.0, 0.0], [2.0, 2.0], real_mode=True)
    with pytest.raises(IdentityViolation) as exc:
        check_hypothesis(Vector([1.0, 1.0], True), skewed, c, tol=1e-10)
    assert exc.value.gram_residual == skewed.gram_residual
    # a tolerance respecting the documented 10x-residual rule succeeds
    report = check_hypothesis(Vector([1.0, 1.0], True), skewed, c, tol=1e-2)
    assert report.holds


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_hypothesis_tolerance_must_be_positive_and_finite(tol):
    # an infinite band would pass any finite sign value, a NaN one every test
    fam = validate_family([Vector([1.0, 0.0], True), Vector([0.0, 1.0], True)])
    c = ScalarCorridor([1.0, 1.0], [2.0, 2.0], real_mode=True)
    x = Vector([100.0, 0.0], True)
    assert check_hypothesis(x, fam, c).cond_i_value < -9000.0
    with pytest.raises(ValueError, match="^tol must be positive and finite$"):
        check_hypothesis(x, fam, c, tol)
    with pytest.raises(ValueError, match="^tol must be positive and finite$"):
        bessel_counterpart(x, fam, c, tol=tol)


def test_overflowing_forms_raise_typed_error():
    # finite x whose sign form and ball residual overflow: a typed error,
    # and no RuntimeWarning (tier-1 turns warnings into errors)
    fam = validate_family([Vector([1.0], True)])
    c = ScalarCorridor([1.0], [2.0], real_mode=True)
    with pytest.raises(FloatRangeExceeded) as exc:
        check_hypothesis(Vector([1e200], True), fam, c)
    assert str(exc.value) == (
        "admissibility forms overflow the float range: sign value -inf, ball residual inf"
    )
    assert check_hypothesis(Vector([1e150], True), fam, c).cond_i_value == pytest.approx(-1e300)


def test_overflowing_forms_flagged_in_batches():
    # the batched rule flags the overflowing row only, and reports the others
    fam = validate_family([Vector([1.0], True)])
    x = np.array([[1.5], [1e200], [1e150]])  # the float64 lane of the real family
    corridors = ScalarCorridor.build(np.ones((3, 1)), np.full((3, 1), 2.0))
    mats = np.broadcast_to(fam.matrix, (3, 1, 1))
    _, failed, report = _hypothesis(x, mats, corridors, 1e-10, np.zeros(3))
    assert failed.tolist() == [False, True, True]  # row 2 is finite but fails the sign test
    assert report(0).holds
    assert report(2).cond_i_value == pytest.approx(-1e300)
    with pytest.raises(FloatRangeExceeded):
        report(1)


def test_spec_rejection_possible():
    rng = np.random.default_rng(5)
    spec = CorridorSpec(mode="real", center_low=-0.5, center_high=0.5, width_high=0.9)
    samples = [spec.sample(3, rng) for _ in range(200)]
    assert any(c.re_sum <= 0.0 for c in samples)
    assert any(c.re_sum > 0.0 for c in samples)


def test_corridor_spec_default_positive(rng):
    spec = CorridorSpec()
    assert all(spec.sample(4, rng).re_sum > 0.0 for _ in range(100))


def _sample_reference(spec, count, rng):
    """Sides of one corridor drawn part by part with ``Generator.uniform``:
    centers, their phases, half-widths, their phases (no phases in real mode)."""
    centers = rng.uniform(spec.center_low, spec.center_high, count)
    if spec.mode == "complex":
        centers = centers * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, count))
    widths = rng.uniform(0.0, spec.width_high, count)
    if spec.mode == "complex":
        widths = widths * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, count))
    return centers - widths, centers + widths


@pytest.mark.parametrize("mode", ["real", "complex"])
@pytest.mark.parametrize(
    "ranges", [(1.0, 2.0, 0.9), (-3.5, -0.25, 1.7), (-0.5, 0.5, 0.0), (0.75, 0.75, 0.4)]
)
def test_sample_keeps_the_uniform_stream(mode, ranges):
    spec = CorridorSpec(mode, *ranges)
    for seed in (0, 1, 202, 2**40 + 3):
        for count in range(1, 9):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = spec.sample(count, rng)
            lo, hi = _sample_reference(spec, count, ref_rng)
            dtype = float if mode == "real" else complex
            assert got.lo.tobytes() == np.asarray(lo, dtype=dtype).tobytes()
            assert got.hi.tobytes() == np.asarray(hi, dtype=dtype).tobytes()
            assert rng.random() == ref_rng.random()  # the same number of draws


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"center_low": 2.0, "center_high": 1.0}, "center_low must not exceed center_high"),
        ({"center_high": math.inf}, "center_high must be finite"),
        ({"center_low": math.nan}, "center_low must be finite"),
        ({"center_low": -1e308, "center_high": 1e308}, "center_high - center_low must be finite"),
        ({"width_high": math.inf}, "width_high must be finite"),
        ({"width_high": math.nan}, "width_high must be finite"),
        ({"width_high": -0.1}, "width_high must be nonnegative"),
    ],
)
def test_corridor_spec_rejects_bad_ranges(kwargs, message):
    for mode in ("real", "complex"):
        with pytest.raises(ValueError, match=re.escape(message)):
            CorridorSpec(mode, **kwargs)
