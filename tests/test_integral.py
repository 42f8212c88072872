import hashlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import orthobound.bounds
from orthobound import (
    DimensionMismatch,
    EmptyFamily,
    GramResidualExceeded,
    HypothesisFailed,
    NonpositiveReSum,
    QuadratureGrid,
    SampledFunction,
    SandwichViolated,
    ScalarCorridor,
    Vector,
    admissible_point,
    admissibility,
    bessel_counterpart,
    check_hypothesis,
    embed,
    family,
    gauss_legendre_grid,
    gruss_bound,
    integral_instance,
    norm_bound_linear,
    norm_bound_quadratic,
    sandwich_check,
    validate_family,
)
from orthobound.family import (
    QUADRATURE_TOLERANCE,
    _embedded_family,
    _samples_key,
    legendre_samples,
    trig_samples,
)
from orthobound.space import grid_inner
from conftest import complex_twin


@pytest.fixture(scope="module")
def trig_setup():
    grid = gauss_legendre_grid(64, 0.0, 2.0 * math.pi)
    fns = trig_samples(5, grid)
    return grid, fns


def real_corridor(rng, count):
    centers = rng.uniform(0.5, 1.5, count)
    widths = rng.uniform(0.0, 0.4, count)
    return ScalarCorridor(centers - widths, centers + widths, real_mode=True)


def test_center_function_residual_zero(trig_setup, rng):
    grid, fns = trig_setup
    corr = real_corridor(rng, len(fns))
    table = np.stack([f.values.real for f in fns])
    f = SampledFunction(corr.midpoints.real @ table, True)
    inst = integral_instance(f, fns, grid, corr)
    assert inst.report_x.cond_ii_residual <= 1e-12
    assert inst.report_x.holds


def test_perturbed_center_admissible_and_chain_holds(trig_setup, rng):
    grid, fns = trig_setup
    corr = real_corridor(rng, len(fns))
    table = np.stack([f.values.real for f in fns])
    perturbation = 1e-3 * rng.standard_normal(grid.size)
    f = SampledFunction(corr.midpoints.real @ table + perturbation, True)
    inst = integral_instance(f, fns, grid, corr)
    assert inst.report_x.holds
    assert inst.bessel_chain().all_hold
    assert inst.quadratic_chain().all_hold
    assert inst.linear_chain().all_hold


def test_random_admissible_maps_back_to_functions(trig_setup, rng):
    # draw an admissible coordinate vector over the embedded family, pull it
    # back through the (positive-mass) embedding, and re-check as a function
    grid, fns = trig_setup
    fam = validate_family([embed(fi, grid) for fi in fns], 1e-8)
    corr = real_corridor(rng, len(fns))
    for _ in range(20):
        x = admissible_point(fam, corr, rng, rng.uniform())
        f = SampledFunction(x.coords.real / np.sqrt(grid.point_mass), True)
        inst = integral_instance(f, fns, grid, corr)
        assert inst.report_x.holds
        assert inst.bessel_chain().all_hold


def test_pair_bound_shares_code_path(trig_setup, rng):
    grid, fns = trig_setup
    cx = real_corridor(rng, len(fns))
    cy = real_corridor(rng, len(fns))
    table = np.stack([f.values.real for f in fns])
    f = SampledFunction(cx.midpoints.real @ table + 1e-3 * rng.standard_normal(grid.size), True)
    g = SampledFunction(cy.midpoints.real @ table + 1e-3 * rng.standard_normal(grid.size), True)
    inst = integral_instance(f, fns, grid, cx, g, cy)
    direct = gruss_bound(
        embed(f, grid), embed(g, grid), inst.family, cx, cy
    )
    assert inst.gruss_chain().values == direct.values  # bit for bit


def test_report_matches_direct_embedded_check(trig_setup, rng):
    grid, fns = trig_setup
    corr = real_corridor(rng, len(fns))
    table = np.stack([f.values.real for f in fns])
    f = SampledFunction(corr.midpoints.real @ table + 1e-3 * rng.standard_normal(grid.size), True)
    inst = integral_instance(f, fns, grid, corr)
    fam = validate_family([embed(fi, grid) for fi in fns], 1e-8)
    direct = check_hypothesis(embed(f, grid), fam, corr, tol=max(1e-10, 10 * fam.count * fam.gram_residual))
    assert inst.report_x == direct


def test_coarse_grid_rejected():
    grid = gauss_legendre_grid(3, 0.0, 2.0 * math.pi)
    fns = trig_samples(5, grid)
    corr = ScalarCorridor([1.0] * 5, [2.0] * 5, real_mode=True)
    f = SampledFunction(np.ones(grid.size), True)
    with pytest.raises(GramResidualExceeded):
        integral_instance(f, fns, grid, corr)


def test_integral_instance_builds_one_vector(trig_setup, rng, monkeypatch):
    # the family is embedded in one pass: x is the only Vector built
    grid, fns = trig_setup
    built = []
    post_init = Vector.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Vector, "__post_init__", counting)
    inst = integral_instance(SampledFunction(np.ones(grid.size), True), fns, grid,
                             real_corridor(rng, len(fns)))
    assert built == [inst.x]


def test_stray_second_corridor_rejected(trig_setup, rng):
    grid, fns = trig_setup
    corr = real_corridor(rng, len(fns))
    f = SampledFunction(np.ones(grid.size), True)
    with pytest.raises(ValueError, match="^corridor supplied without its second function$"):
        integral_instance(f, fns, grid, corr, cy=corr)


# Each instance chain with the public bound it reproduces, called on the
# instance's own vectors, family and corridors.
PUBLIC = {
    "linear_chain": lambda inst: norm_bound_linear(inst.x, inst.family, inst.cx),
    "quadratic_chain": lambda inst, *a: norm_bound_quadratic(inst.x, inst.family, inst.cx, *a),
    "bessel_chain": lambda inst: bessel_counterpart(inst.x, inst.family, inst.cx),
    "gruss_chain": lambda inst: gruss_bound(inst.x, inst.y, inst.family, inst.cx, inst.cy),
}


def centered(fns, corridor, shift=0.0):
    """The function at ``corridor``'s center plus ``shift`` (samples or a scalar)."""
    table = np.stack([fi.values.real for fi in fns])
    return SampledFunction(corridor.midpoints.real @ table + shift, True)


@pytest.mark.parametrize(
    "method, args",
    [
        ("linear_chain", ()),
        ("quadratic_chain", ()),
        ("quadratic_chain", ("max_sum",)),
        ("quadratic_chain", ("holder", 3.0)),
        ("quadratic_chain", ("sum_max",)),
        ("bessel_chain", ()),
        ("gruss_chain", ()),
    ],
)
def test_instance_chain_equals_its_public_bound(trig_setup, rng, method, args):
    grid, fns = trig_setup
    cx, cy = real_corridor(rng, len(fns)), real_corridor(rng, len(fns))
    f = centered(fns, cx, 1e-3 * rng.standard_normal(grid.size))
    g = centered(fns, cy, 1e-3 * rng.standard_normal(grid.size))
    inst = integral_instance(f, fns, grid, cx, g, cy)
    chain = getattr(inst, method)(*args)
    direct = PUBLIC[method](inst, *args)
    assert chain.labels == direct.labels
    assert chain.values == direct.values  # bit for bit
    reports = (inst.report_x, inst.report_y) if method == "gruss_chain" else (inst.report_x,)
    assert all(a is b for a, b in zip(chain.reports, reports, strict=True))


def test_instance_chains_check_each_function_once(trig_setup, rng, monkeypatch):
    grid, fns = trig_setup
    checks, passes = [], []
    coefficients, hypothesis = orthobound.bounds._coefficients, admissibility._hypothesis

    def counting_check(x, *args):
        checks.append(x)
        return hypothesis(x, *args)

    def counting_coefficients(x, matrix):  # the kernel of a slot's coefficients
        passes.append(x)
        return coefficients(x, matrix)

    monkeypatch.setattr(admissibility, "_hypothesis", counting_check)
    monkeypatch.setattr(orthobound.bounds, "_coefficients", counting_coefficients)
    cx, cy = real_corridor(rng, len(fns)), real_corridor(rng, len(fns))
    inst = integral_instance(centered(fns, cx), fns, grid, cx, centered(fns, cy), cy)
    for method, args in (("bessel_chain", ()), ("quadratic_chain", ()),
                         ("quadratic_chain", ("holder", 3.0)), ("linear_chain", ()),
                         ("gruss_chain", ())):
        assert getattr(inst, method)(*args).all_hold
    coords = [v.coords.tobytes() for v in (inst.x, inst.y)]
    assert [c.tobytes() for c in checks] == [a.tobytes() for a in passes] == coords


# The corridor (-1, 1) per member has re_sum -count.
@pytest.mark.parametrize(
    "x_admissible, y_admissible, re_sum_positive, raised",
    [
        (False, True, True, dict.fromkeys(PUBLIC, HypothesisFailed)),
        (True, False, True, {"gruss_chain": HypothesisFailed}),
        (False, False, True, dict.fromkeys(PUBLIC, HypothesisFailed)),
        (True, True, False, dict.fromkeys(PUBLIC, NonpositiveReSum)),
        # every chain admits its hypothesis before its Re-sum rule
        (False, True, False, dict.fromkeys(PUBLIC, HypothesisFailed)),
    ],
)
def test_instance_chain_raises_its_public_error(
    trig_setup, rng, x_admissible, y_admissible, re_sum_positive, raised
):
    grid, fns = trig_setup
    count = len(fns)
    if re_sum_positive:
        corr = real_corridor(rng, count)
    else:
        corr = ScalarCorridor([-1.0] * count, [1.0] * count, real_mode=True)
    inside = centered(fns, corr)
    # 3 more on the constant member than a real_corridor center: outside corr
    outside = centered(fns, real_corridor(rng, count), 3.0 * fns[0].values.real)
    f = inside if x_admissible else outside
    g = inside if y_admissible else outside
    inst = integral_instance(f, fns, grid, corr, g, corr)
    assert (inst.report_x.holds, inst.report_y.holds) == (x_admissible, y_admissible)
    for method, public in PUBLIC.items():
        if method not in raised:
            assert getattr(inst, method)().all_hold
            continue
        with pytest.raises(raised[method]) as ref:
            public(inst)
        with pytest.raises(raised[method]) as got:
            getattr(inst, method)()
        assert str(got.value) == str(ref.value)
        if raised[method] is HypothesisFailed:
            which, report = ("x", inst.report_x) if not x_admissible else ("y", inst.report_y)
            assert got.value.which == which and got.value.report is report


FAMILY_ERRORS = [
    ([], 1e-8, EmptyFamily, "family must contain at least one vector"),
    ([np.ones(3)], 1e-8, DimensionMismatch, "function has 3 samples but grid has 4 nodes"),
    ([np.ones(4), np.ones(3)], 1e-8, DimensionMismatch,
     "function has 3 samples but grid has 4 nodes"),
    ([np.ones(4), np.full(4, 1e300)], 1e-8, ValueError, "coords must be finite (no NaN/Inf)"),
    ([np.ones(4)], 0.0, ValueError, "tolerance must be positive"),
]


@pytest.mark.parametrize("fam_fns, tolerance, expected, message", FAMILY_ERRORS)
def test_family_errors_match_member_embeddings(fam_fns, tolerance, expected, message):
    # the one-pass family raises what validating the per-member embeddings raises
    grid = QuadratureGrid(np.arange(4.0), np.full(4, 1e300), np.ones(4))
    fns = [SampledFunction(values, True) for values in fam_fns]
    corr = ScalarCorridor([1.0], [2.0], real_mode=True)  # the family fails first
    f = SampledFunction(np.ones(4), True)
    with pytest.raises(expected) as ref:
        validate_family([embed(fi, grid) for fi in fns], tolerance)
    with pytest.raises(expected) as got:
        _embedded_family(fns, grid, tolerance)
    assert str(got.value) == str(ref.value) == message
    if tolerance == QUADRATURE_TOLERANCE:  # the tolerance integral_instance embeds with
        with pytest.raises(expected) as got:
            integral_instance(f, fns, grid, corr)
        assert str(got.value) == message


def test_family_errors_are_never_kept():
    for _ in range(2):
        for case in FAMILY_ERRORS:
            test_family_errors_match_member_embeddings(*case)
        test_coarse_grid_rejected()
    assert family._validated_family.cache_info().currsize == 0


def test_family_size_errors_come_before_nonfinite_embeddings():
    # a member that overflows before one of the wrong size: the per-member
    # path reports the overflow, the one-pass family the size
    grid = QuadratureGrid(np.arange(4.0), np.full(4, 1e300), np.ones(4))
    fns = [SampledFunction(np.full(4, 1e300), True), SampledFunction(np.ones(3), True)]
    corr = ScalarCorridor([1.0, 1.0], [2.0, 2.0], real_mode=True)
    with pytest.raises(DimensionMismatch):
        integral_instance(SampledFunction(np.ones(4), True), fns, grid, corr)


# ---------------------------------------------------------------------------
# sandwich conditions


def normalized_constant_setup():
    grid = QuadratureGrid([0.0, 1.0], [0.5, 0.5], [1.0, 1.0])
    one = SampledFunction([1.0, 1.0], True)
    return grid, [one]


def test_sandwich_exact_lower_edge():
    grid, fns = normalized_constant_setup()
    f = SampledFunction(fns[0].values.real.copy(), True)
    report = sandwich_check(f, fns, grid, [1.0], [2.0])
    assert report.passed
    assert report.min_lower_margin == 0.0


def test_sandwich_constant_example():
    # family {1} on a normalized grid, m=1, M=2, f = 1.5
    grid, fns = normalized_constant_setup()
    f = SampledFunction([1.5, 1.5], True)
    report = sandwich_check(f, fns, grid, [1.0], [2.0])
    assert report.passed
    inst = integral_instance(f, fns, grid, report.corridor)
    chain = inst.bessel_chain()
    assert chain.values[1] == pytest.approx(0.0, abs=1e-12)  # defect
    assert chain.values[2] == pytest.approx(0.28125, rel=1e-12)  # (1/4)(1/2)(1.5^2)


def test_sandwich_violation_at_positive_node():
    grid, fns = normalized_constant_setup()
    f = SampledFunction([0.5, 1.5], True)
    with pytest.raises(SandwichViolated) as exc:
        sandwich_check(f, fns, grid, [1.0], [2.0])
    assert exc.value.side == "lower"
    assert exc.value.node == 0
    assert exc.value.margin == pytest.approx(-0.5)


def test_sandwich_ignores_zero_mass_nodes():
    grid = QuadratureGrid([0.0, 1.0, 2.0], [0.5, 0.0, 0.5], [1.0, 1.0, 1.0])
    one = SampledFunction([1.0, 1.0, 1.0], True)
    f = SampledFunction([1.5, -9.0, 1.5], True)  # dips only where w = 0
    report = sandwich_check(f, [one], grid, [1.0], [2.0])
    assert report.passed


def test_worst_nodes_are_grid_node_indices_with_zero_mass_nodes_before_them(rng):
    # the margins dip lowest at nodes 2 and 5; give them zero mass and the
    # worst positive-mass nodes, 7 and 11, are reported by their grid index
    full = gauss_legendre_grid(64, 0.0, 2.0 * math.pi)
    fns = trig_samples(5, full)
    table = np.stack([fi.values for fi in fns])
    m = rng.uniform(0.1, 1.0, len(fns))
    big_m = m.copy()
    big_m[0] += 0.5
    share = rng.uniform(0.2, 0.8, full.size)  # of the width (M - m) @ table = 0.5 f_0
    share[[2, 5, 7, 11]] = 0.001, 0.999, 0.01, 0.99
    f = SampledFunction(m @ table + share * 0.5 * table[0], True)
    weights = full.weights.copy()
    weights[[0, 2, 3, 5]] = 0.0
    gathered = QuadratureGrid(full.nodes, weights, full.density)
    for grid, worst in ((full, (2, 5)), (gathered, (7, 11))):
        report = sandwich_check(f, fns, grid, m, big_m)
        active = np.flatnonzero(grid.point_mass > 0.0)
        lower = f.values[active] - (m @ table)[active]
        upper = (big_m @ table)[active] - f.values[active]
        assert (report.min_lower_margin, report.worst_lower_node) == (
            float(lower.min()), int(active[lower.argmin()]))
        assert (report.min_upper_margin, report.worst_upper_node) == (
            float(upper.min()), int(active[upper.argmin()]))
        assert (report.worst_lower_node, report.worst_upper_node) == worst
    # a violation at a positive-mass node after zero-mass ones names its grid index
    share[7] = -0.5
    with pytest.raises(SandwichViolated) as exc:
        sandwich_check(SampledFunction(m @ table + share * 0.5 * table[0], True),
                       fns, gathered, m, big_m)
    assert (exc.value.side, exc.value.node) == ("lower", 7)


def test_sandwich_requires_real_mode():
    grid, fns = normalized_constant_setup()
    f = SampledFunction([1.0 + 0j, 1.0 + 1e-3j])
    with pytest.raises(ValueError):
        sandwich_check(f, fns, grid, [1.0], [2.0])


def test_sandwich_requires_positive_cross_sum():
    grid, fns = normalized_constant_setup()
    f = SampledFunction([0.0, 0.0], True)
    with pytest.raises(NonpositiveReSum):
        sandwich_check(f, fns, grid, [0.0], [2.0])


@pytest.mark.parametrize(
    "m, big_m, message",
    [
        ([math.nan], [2.0], "corridor lo must be finite"),
        ([1.0], [math.nan], "corridor hi must be finite"),
        ([1.0], [math.inf], "corridor hi must be finite"),
        ([-math.inf], [2.0], "corridor lo must be finite"),
    ],
)
def test_sandwich_rejects_nonfinite_coefficients(m, big_m, message):
    # the corridor's finiteness rule comes before the sign and cross-sum rules
    grid, fns = normalized_constant_setup()
    f = SampledFunction([1.5, 1.5], True)
    with pytest.raises(ValueError, match=f"^{message}$"):
        sandwich_check(f, fns, grid, m, big_m)


def test_sandwich_and_instance_reject_an_empty_family_alike():
    grid, _ = normalized_constant_setup()
    f = SampledFunction([1.5, 1.5], True)
    message = "^family must contain at least one vector$"
    with pytest.raises(EmptyFamily, match=message):
        sandwich_check(f, [], grid, [], [])
    with pytest.raises(EmptyFamily, match=message):
        integral_instance(f, [], grid, ScalarCorridor([1.0], [2.0], real_mode=True))


def test_sandwich_implies_admissibility(trig_setup, rng):
    # pointwise mix of the envelopes always lands inside the ball form
    grid, fns = trig_setup
    table = np.stack([f.values.real for f in fns])
    for _ in range(50):
        m = rng.uniform(0.0, 1.0, len(fns))
        big = m.copy()
        big[0] += rng.uniform(0.1, 1.0)  # widen only the positive constant member
        theta = rng.uniform(0.0, 1.0, grid.size)
        f = SampledFunction(theta * (m @ table) + (1 - theta) * (big @ table), True)
        report = sandwich_check(f, fns, grid, m, big)
        assert report.passed
        inst = integral_instance(f, fns, grid, report.corridor)
        assert inst.report_x.holds
        assert inst.report_x.cond_i_value >= 0.0


def _sandwiched(fns, rng, lift=0.5):
    """f = sum c_i f_i + t f_0 on a basis whose member 0 is a positive
    constant, with the corridor (c, c + lift e_0) that brackets it."""
    table = np.stack([fi.values for fi in fns])
    coeffs = rng.uniform(0.1, 1.0, len(fns)) / np.arange(1, len(fns) + 1)
    f = SampledFunction(coeffs @ table + rng.uniform(0.2, 0.8) * lift * table[0], True)
    big_m = coeffs.copy()
    big_m[0] += lift
    return f, coeffs, big_m


@pytest.mark.parametrize("basis, nodes, count", [("trig", 64, 5), ("legendre", 2048, 16)])
def test_real_samples_certify_as_their_complex_twins_do(rng, basis, nodes, count):
    if basis == "trig":
        grid = gauss_legendre_grid(nodes, 0.0, 2.0 * math.pi)
        fns = trig_samples(count, grid)
    else:
        grid = gauss_legendre_grid(nodes)
        fns = legendre_samples(count, grid)
    (f, m, big_m), (g, gm, big_gm) = _sandwiched(fns, rng), _sandwiched(fns, rng)
    twins = [complex_twin(fi) for fi in fns]
    # sandwich_check takes real-mode functions only: its margins against the
    # same rule on the twins' complex128 samples
    report = sandwich_check(f, fns, grid, m, big_m)
    table = np.stack([t.values.real for t in twins])
    fv = complex_twin(f).values.real
    active = np.nonzero(grid.point_mass > 0.0)[0]
    lower, upper = fv[active] - (m @ table)[active], (big_m @ table)[active] - fv[active]
    assert (report.min_lower_margin, report.worst_lower_node) == (
        float(lower.min()), int(active[lower.argmin()]))
    assert (report.min_upper_margin, report.worst_upper_node) == (
        float(upper.min()), int(active[upper.argmin()]))
    got = np.array(grid_inner(f, g, grid))
    assert got.tobytes() == np.array(grid_inner(complex_twin(f), complex_twin(g), grid)).tobytes()
    cx, cy = report.corridor, sandwich_check(g, fns, grid, gm, big_gm).corridor
    inst = integral_instance(f, fns, grid, cx, g, cy)
    ref = integral_instance(complex_twin(f), twins, grid, cx, complex_twin(g), cy)
    assert inst.family.real_mode and inst.x.real_mode and not ref.x.real_mode
    for method in ("bessel_chain", "quadratic_chain", "linear_chain", "gruss_chain"):
        got, want = getattr(inst, method)(), getattr(ref, method)()
        assert [v.hex() for v in got.values] == [v.hex() for v in want.values], method


def test_a_real_f_and_a_complex_g_give_the_gruss_chain_of_their_complex_twins(rng):
    # each slot is built in its own lane, f's in float64 and g's in
    # complex128, and the chain reads their <x, y> and coefficients as built
    grid = gauss_legendre_grid(64, 0.0, 2.0 * math.pi)
    fns = trig_samples(5, grid)
    (f, m, big_m), (g, gm, big_gm) = _sandwiched(fns, rng), _sandwiched(fns, rng)
    cx = sandwich_check(f, fns, grid, m, big_m).corridor
    cy = sandwich_check(g, fns, grid, gm, big_gm).corridor
    mixed = integral_instance(f, fns, grid, cx, complex_twin(g), cy)
    twins = [complex_twin(fi) for fi in fns]
    ref = integral_instance(complex_twin(f), twins, grid, cx, complex_twin(g), cy)
    assert (mixed._x.a.dtype, mixed._y.a.dtype) == (np.float64, np.complex128)
    got, want = mixed.gruss_chain(), ref.gruss_chain()
    assert [v.hex() for v in got.values] == [v.hex() for v in want.values]


def test_benchmark_shaped_ops_are_pinned(rng):
    # the quadrature benchmark's op: a sandwich, its instance and three chains
    # on 16 x 2048 real bases, f built as the benchmark builds it. Every
    # figure the op yields is in the digest, so a moved bit fails here.
    digest = hashlib.sha256()
    for grid, basis in ((gauss_legendre_grid(2048, 0.0, 2.0 * math.pi), trig_samples),
                        (gauss_legendre_grid(2048), legendre_samples)):
        fns = basis(16, grid)
        for _ in range(3):
            f, m, big_m = _sandwiched(fns, rng)
            s = sandwich_check(f, fns, grid, m, big_m)
            inst = integral_instance(f, fns, grid, s.corridor)
            chains = (inst.bessel_chain(), inst.quadratic_chain(), inst.linear_chain())
            digest.update(repr((
                s.min_lower_margin, s.min_upper_margin, s.worst_lower_node, s.worst_upper_node,
                s.corridor.sides.tobytes(), s.corridor.re_sum, s.corridor.radius,
                inst.family.gram_residual, inst.report_x, [c.values for c in chains],
            )).encode())
    assert digest.hexdigest() == "429fa53ab284b0c46a6ebc6e31e0e0799cfe8bc03f9c9ab6b66ee0f59efb0259"


# ---------------------------------------------------------------------------
# one stacked sample table per basis


@pytest.fixture
def stacks(monkeypatch):
    """The arrays np.stack is called on, in order."""
    seen = []
    stack = np.stack

    def counting(arrays, *args, **kwargs):
        seen.append(arrays)
        return stack(arrays, *args, **kwargs)

    monkeypatch.setattr(np, "stack", counting)
    return seen


def test_a_basis_is_stacked_once_for_its_sandwiches_and_families(rng, stacks):
    grid = gauss_legendre_grid(64, 0.0, 2.0 * math.pi)
    fns = trig_samples(5, grid)
    f, m, big_m = _sandwiched(fns, rng)
    stacks.clear()
    first = sandwich_check(f, fns, grid, m, big_m)
    assert len(stacks) == 1
    # a second sandwich, and a family miss on the stacked basis, stack nothing
    second = sandwich_check(f, fns, grid, m, big_m)
    assert (second.min_lower_margin, second.min_upper_margin) == (
        first.min_lower_margin, first.min_upper_margin)
    integral_instance(f, fns, grid, first.corridor)
    assert family._validated_family.cache_info().misses == 1
    assert len(stacks) == 1
    info = family._stacked_samples.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_the_stacked_table_is_read_only_and_read_by_its_sample_bytes(rng):
    grid = gauss_legendre_grid(64, 0.0, 2.0 * math.pi)
    fns = trig_samples(5, grid)
    table = family._stacked_samples(_samples_key(fns))
    assert table.dtype == np.float64 and table.shape == (5, 64)
    assert table.tobytes() == np.stack([fi.values for fi in fns]).tobytes()
    with pytest.raises(ValueError):
        table.flags.writeable = True
    with pytest.raises(ValueError):
        table[0, 0] = 2.0
    # samples copied into new objects: the same table, for a sandwich and a family
    copies = [SampledFunction(fi.values.copy(), True) for fi in fns]
    assert family._stacked_samples(_samples_key(copies)) is table
    f, m, big_m = _sandwiched(copies, rng)
    sandwich_check(f, copies, grid, m, big_m)
    _embedded_family(copies, grid, QUADRATURE_TOLERANCE)
    info = family._stacked_samples.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    # a complex member makes a complex128 table of the same values
    mixed = family._stacked_samples(_samples_key([fns[0], complex_twin(fns[1])]))
    assert mixed.dtype == np.complex128 and mixed.tobytes() == table[:2].astype(complex).tobytes()


# ---------------------------------------------------------------------------
# one validated family per basis


def chain_record(inst):
    """Every value an instance with a second function yields, in exact reprs."""
    chains = [getattr(inst, method)().values for method in PUBLIC]
    return repr((inst.family.gram_residual, inst.report_x, inst.report_y, chains))


def noisy_pair(fns, grid, rng):
    cx, cy = real_corridor(rng, len(fns)), real_corridor(rng, len(fns))
    f = centered(fns, cx, 1e-3 * rng.standard_normal(grid.size))
    g = centered(fns, cy, 1e-3 * rng.standard_normal(grid.size))
    return f, cx, g, cy


def test_instances_on_one_basis_share_its_family(trig_setup, rng, gram_checks):
    grid, fns = trig_setup
    f, cx, g, cy = noisy_pair(fns, grid, rng)
    first = integral_instance(f, fns, grid, cx)
    second = integral_instance(g, fns, grid, cy)
    assert second.family is first.family
    assert len(gram_checks) == 1


def test_chain_values_are_the_same_bits_with_the_memo_cold_and_warm(trig_setup, rng):
    grid, fns = trig_setup
    f, cx, g, cy = noisy_pair(fns, grid, rng)
    records = []
    for cold in (True, False, True):
        if cold:
            family._validated_family.cache_clear()
        records.append(chain_record(integral_instance(f, fns, grid, cx, g, cy)))
    assert records[0] == records[1] == records[2]


def test_threads_building_instances_at_once_get_the_same_bits(trig_setup, rng):
    grid, fns = trig_setup
    f, cx, g, cy = noisy_pair(fns, grid, rng)
    expected = chain_record(integral_instance(f, fns, grid, cx, g, cy))
    family._validated_family.cache_clear()
    workers, calls = 4, 10  # more threads than a small runner has cores
    start = threading.Barrier(workers)

    def build():
        start.wait(timeout=30)
        return [chain_record(integral_instance(f, fns, grid, cx, g, cy)) for _ in range(calls)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            runs = [pool.submit(build) for _ in range(workers)]
            records = [record for run in runs for record in run.result(timeout=60)]
    finally:
        sys.setswitchinterval(switch)
    assert records == [expected] * (workers * calls)
