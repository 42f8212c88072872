"""The batched fuzz campaign against a sequential reference loop.

``reference_fuzz`` evaluates one bundle at a time through the public scalar
functions, each rebuilt from its own row of the stream that ``run_fuzz``
promises: trial k reads outputs [kS, (k+1)S) of ``PCG64(seed)``, laid out
by the reference's own count of the draw sites. ``run_fuzz`` draws a whole
chunk first and evaluates it over a leading trial axis; the two must agree
bit for bit: same draws, same chain values, same summary (key order
included), same first error.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from orthobound import (
    BoundChain,
    CorridorSpec,
    FloatRangeExceeded,
    FuzzConfig,
    FuzzSummary,
    GramResidualExceeded,
    HypothesisFailed,
    IdentityViolation,
    NonfiniteCorridor,
    OrthoboundError,
    ScalarCorridor,
    Vector,
    admissibility,
    bessel_counterpart,
    bessel_defect,
    bounds,
    companion_bound,
    family,
    fuzz,
    gruss_bound,
    gruss_refined_midpoint,
    gruss_refined_sqrt,
    norm,
    norm_bound_linear,
    norm_bound_quadratic,
    norm_sq,
    random_family,
    run_fuzz,
    schwarz_counterparts,
    schwarz_step,
    single_vector_ratio_chain,
    validate_family,
)

LAMBDAS = (0.1, 0.5, 0.9)


def _stream(seed, start):
    """A generator whose next output is output ``start`` of ``PCG64(seed)``."""
    return np.random.Generator(np.random.PCG64(seed).advance(start))


def _row_layout(config):
    """Where a bundle's draws lie in its row: slices of its normals and of
    its row by site, the row's Gaussian width and its stride. Gaussian
    uniforms come first, rounded up to even; every site has its columns."""
    d, k = config.dim, config.family_size
    real = config.mode == "real"
    parts = 2 if real else 4  # a corridor's parts: the corridor has the mode
    vec = d if real else 2 * d  # a vector or a point's direction
    normals = [("fam", k * vec), ("x", vec), ("y", vec)]
    uniforms = [("cx", parts * k), ("cy", parts * k), ("x", 1), ("y", 1)]
    for lam in LAMBDAS:
        normals += [(f"z{lam}", vec), (f"xa{lam}", vec)]
        uniforms += [(f"cz{lam}", parts * k), (f"z{lam}", 1)]
    normals += [("yv", vec), ("xs", vec), ("f1", vec), ("p1", vec), ("p2", vec)]
    normals += [("xr", vec), ("yr", vec)]
    uniforms += [("c25", parts), ("xs", 1), ("c1", parts), ("c2", parts), ("p1", 1), ("p2", 1)]

    def slices(sites, at):
        out = {}
        for name, size in sites:
            out[name] = slice(at, at + size)
            at += size
        return out, at

    normal_at, gauss = slices(normals, 0)
    gauss += gauss % 2
    uniform_at, stride = slices(uniforms, gauss)
    return normal_at, uniform_at, gauss, stride


def _box_muller(u):
    """Normals from an even number of uniforms: radii from the first half,
    angles from the second, each pair's cosine normal then its sine normal."""
    r = np.sqrt(-2.0 * np.log1p(-u[: u.size // 2]))
    t = 2.0 * np.pi * u[u.size // 2 :]
    return np.concatenate([r * np.cos(t), r * np.sin(t)])


def reference_fuzz(config, chains=None):
    """One bundle at a time through the public API; appends every recorded
    (selector, trial, values) to ``chains`` when given."""
    spec = config.spec()
    if config.count:
        random_family(config.dim, config.family_size, 0)  # the campaign's size check
    real = config.mode == "real"
    d = config.dim
    normal_at, uniform_at, gauss, stride = _row_layout(config)
    summary = FuzzSummary()
    want = set(config.selectors)

    def record(selector, chain, trial):
        summary.checked[selector] = summary.checked.get(selector, 0) + 1
        slack = chain.min_slack
        if selector not in summary.min_slack or slack < summary.min_slack[selector]:
            summary.min_slack[selector] = slack
        if not chain.all_hold:
            summary.violations.append(
                {"selector": selector, "trial": trial, "values": list(chain.values)}
            )
        if chains is not None:
            chains.append((selector, trial, chain.values))

    for trial in range(config.count):
        row = _stream(config.seed, trial * stride).random(stride)
        normals = _box_muller(row[:gauss])

        def family(name, count):
            # what random_family makes of these normals: the Q of their QR
            a = normals[normal_at[name]]
            if not real:
                a = a[: d * count] + 1j * a[d * count :]
            q = np.linalg.qr(a.reshape(d, count))[0]
            return validate_family([Vector(e, real_mode=real) for e in q.T])

        def direction(name, real=real):
            w = normals[normal_at[name]]
            return w if real else w[:d] + 1j * w[d:]

        def vector(name):
            return Vector(direction(name), real_mode=real)

        def corridor(name, count):
            # CorridorSpec.sample on the stream at the corridor's first column
            corr = spec.sample(count, _stream(config.seed, trial * stride + uniform_at[name].start))
            if corr.re_sum <= 0.0:
                summary.rejected += 1
                return None
            return corr

        def point(name, fam, corr):
            # admissible_point with this direction and slack
            real_point = fam.real_mode and corr.real_mode
            u = direction(name, real_point)
            slack = float(row[uniform_at[name]][0])
            coords = admissibility._admissible_points(fam.matrix, corr, u, slack)
            return Vector(coords, real_mode=real_point)

        fam = family("fam", config.family_size)
        cx = corridor("cx", fam.count)
        cy = corridor("cy", fam.count)
        if cx is None or cy is None:
            continue
        summary.evaluated += 1
        x = point("x", fam, cx)
        y = point("y", fam, cy)

        if "thm2.1" in want:
            record("thm2.1", norm_bound_quadratic(x, fam, cx), trial)
        if "eq2.6" in want:
            record("eq2.6", norm_bound_linear(x, fam, cx), trial)
        if "eq2.11:max" in want:
            record("eq2.11:max", norm_bound_quadratic(x, fam, cx, "max_sum"), trial)
        if "eq2.11:holder:3" in want:
            record(
                "eq2.11:holder:3",
                norm_bound_quadratic(x, fam, cx, "holder", 3.0),
                trial,
            )
        if "eq2.11:sum" in want:
            record("eq2.11:sum", norm_bound_quadratic(x, fam, cx, "sum_max"), trial)
        if "cor2.3" in want:
            record("cor2.3", bessel_counterpart(x, fam, cx), trial)
        if "thm1.1" in want:
            record("thm1.1", gruss_refined_sqrt(x, y, fam, cx, cy), trial)
        if "thm2" in want:
            record("thm2", gruss_refined_midpoint(x, y, fam, cx, cy), trial)
        if "thm3.1" in want:
            record("thm3.1", gruss_bound(x, y, fam, cx, cy), trial)

        for lam in LAMBDAS:
            key = f"thm4.1:{lam}"
            if key not in want:
                continue
            corr_z = corridor(f"cz{lam}", fam.count)
            if corr_z is None:
                continue
            z = point(f"z{lam}", fam, corr_z)
            xa = vector(f"xa{lam}")
            # a real campaign rounds this quotient as the complex128 one
            yb = Vector(
                np.divide(z.coords - lam * xa.coords, 1.0 - lam, dtype=complex),
                real_mode=z.real_mode and xa.real_mode,
            )
            record(key, companion_bound(xa, yb, fam, corr_z, lam), trial)

        if "cor2.5" in want:
            yv = vector("yv")
            corr1 = corridor("c25", 1)
            if corr1 is not None:
                ny = norm(yv)
                # the frame's quotient, rounded as the complex128 one
                unit = Vector(np.divide(yv.coords, ny, dtype=complex), real_mode=yv.real_mode)
                fam1 = validate_family([unit], tolerance=1e-12)
                delta = complex(corr1.lo[0])
                big_delta = complex(corr1.hi[0])
                corr_x = ScalarCorridor(
                    [delta * ny], [big_delta * ny], real_mode=corr1.real_mode and yv.real_mode
                )
                xs = point("xs", fam1, corr_x)
                pack = schwarz_counterparts(xs, yv, delta, big_delta)
                for name, chain in pack.chains().items():
                    record(f"cor2.5:{name}", chain, trial)

        if "cor3.3" in want:
            fam_single = family("f1", 1)
            c1 = corridor("c1", 1)
            c2 = corridor("c2", 1)
            if c1 is not None and c2 is not None:
                xs = point("p1", fam_single, c1)
                ys = point("p2", fam_single, c2)
                record("cor3.3", gruss_bound(xs, ys, fam_single, c1, c2), trial)
                a = fam_single.coefficients(xs)[0]
                b = fam_single.coefficients(ys)[0]
                if _ratio_defined(a, b):
                    record(
                        "cor3.3:ratio",
                        single_vector_ratio_chain(xs, ys, fam_single, c1, c2),
                        trial,
                    )

        if "bessel-defect" in want or "schwarz-step" in want:
            xr = vector("xr")
            yr = vector("yr")
            if "bessel-defect" in want:
                chain = BoundChain(
                    ("floor", "projection defect"),
                    (-1e-10 * norm_sq(xr), bessel_defect(xr, fam)),
                )
                record("bessel-defect", chain, trial)
            if "schwarz-step" in want:
                record("schwarz-step", schwarz_step(xr, yr, fam), trial)

    return summary


def _ratio_defined(a, b):
    """Where the reference records the ratio form: <x,e> conj(<y,e>) nonzero."""
    return a * b.conjugate() != 0.0


def _bits(values):
    return tuple(float(v).hex() for v in values)


def _summary_bits(s):
    """Everything a summary holds, floats as exact bit patterns, dicts in order."""
    return (
        s.evaluated,
        s.rejected,
        [(v["selector"], v["trial"], _bits(v["values"])) for v in s.violations],
        [(k, float(v).hex()) for k, v in s.min_slack.items()],
        list(s.checked.items()),
    )


def _batched_chains(config):
    out = {}
    for _, _, records in fuzz._chunks(config):
        for key, trials, values in records:
            for trial, row in zip(trials.tolist(), values):
                out[(key, trial)] = _bits(row)
    return out


CONFIGS = {
    "complex-all": FuzzConfig(seed=202, count=300),
    "real-cor2.3": FuzzConfig(seed=203, count=300, mode="real", selectors=("cor2.3",)),
    # the CLI's rejecting spec: four-member corridors are all rejected, and
    # single-member ones mix rejection and acceptance within a bundle
    "real-rejecting": FuzzConfig(
        seed=7, count=40, mode="real", corridor=CorridorSpec("real", -0.5, 0.5)
    ),
    "real-rejecting-single": FuzzConfig(
        seed=7, count=400, family_size=1, mode="real", corridor=CorridorSpec("real", -0.5, 0.5)
    ),
    "complex-rejecting": FuzzConfig(
        seed=8, count=80, corridor=CorridorSpec("complex", 0.2, 1.0, 0.9)
    ),
    "real-all": FuzzConfig(seed=9, count=100, mode="real"),
    "thm4.1:0.5": FuzzConfig(seed=10, count=100, selectors=("thm4.1:0.5",)),
    "cor2.5": FuzzConfig(seed=11, count=100, selectors=("cor2.5",)),
    "cor3.3": FuzzConfig(seed=12, count=100, selectors=("cor3.3",)),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batched_matches_sequential_reference(name):
    config = CONFIGS[name]
    chains = []
    reference = reference_fuzz(config, chains)
    batched = run_fuzz(config)
    assert _summary_bits(batched) == _summary_bits(reference)
    assert _batched_chains(config) == {(k, t): _bits(v) for k, t, v in chains}


@pytest.mark.parametrize("name", ["complex-all", "real-rejecting-single"])
def test_each_trial_replays_alone_from_its_offset(name, monkeypatch):
    config = CONFIGS[name]
    monkeypatch.setattr(fuzz, "CHUNK", 16)
    stride = fuzz.layout(config)[2]
    assert stride == _row_layout(config)[3]
    alone = [
        fuzz._chunk(config, _stream(config.seed, k * stride), range(k, k + 1))
        for k in range(config.count)
    ]
    chains = {}
    for _, _, records in alone:
        for key, trials, values in records:
            chains[(key, int(trials[0]))] = _bits(values[0])
    # every trial: the first, each chunk boundary and the last among them
    assert chains == _batched_chains(config)
    summary = FuzzSummary()
    for chunk in alone:
        fuzz._fold(summary, *chunk)
    assert _summary_bits(summary) == _summary_bits(run_fuzz(config))


def test_stride_at_the_defaults():
    assert fuzz.layout(FuzzConfig())[1:] == (304, 404)


def test_layout_does_not_depend_on_the_selectors():
    config = CONFIGS["complex-all"]
    alone = _batched_chains(dataclasses.replace(config, selectors=("cor2.3",)))
    everything = _batched_chains(config)
    assert alone == {kt: v for kt, v in everything.items() if kt[0] == "cor2.3"}
    assert len(alone) == config.count


def test_ratio_form_is_checked_at_every_scale():
    # the ratio form is scale-free: a corridor spec scaled by 2^-40 scales
    # every draw exactly, so it must be checked on the same bundles
    unit = CorridorSpec()
    t = 2.0**-40
    tiny = CorridorSpec(unit.mode, t * unit.center_low, t * unit.center_high, t * unit.width_high)
    counts = []
    for spec in (unit, tiny):
        summary = run_fuzz(FuzzConfig(seed=9, count=300, corridor=spec, selectors=("cor3.3",)))
        counts.append((summary.checked["cor3.3:ratio"], summary.min_slack["cor3.3:ratio"]))
    assert counts[0] == counts[1]
    assert counts[0][0] == 300


def test_rejecting_specs_really_reject():
    assert run_fuzz(CONFIGS["real-rejecting"]).evaluated == 0
    for name in ("real-rejecting-single", "complex-rejecting"):
        summary = run_fuzz(CONFIGS[name])
        assert 0 < summary.evaluated < CONFIGS[name].count
        assert summary.rejected > CONFIGS[name].count - summary.evaluated


def test_chunk_boundaries_do_not_change_the_campaign(monkeypatch):
    config = FuzzConfig(seed=13, count=90, mode="real", corridor=CorridorSpec("real", -0.3, 1.0))
    whole = _summary_bits(run_fuzz(config))
    monkeypatch.setattr(fuzz, "CHUNK", 16)
    assert _summary_bits(run_fuzz(config)) == whole


@pytest.mark.parametrize("name, chunk", [("real-rejecting-single", None),
                                         ("complex-rejecting", None),
                                         ("real-rejecting-single", 16)])
def test_faults_on_rejected_bundles_never_surface(name, chunk, monkeypatch):
    # A chunk computes every bundle, rejected ones included; wherever a
    # corridor is rejected, plant NaN points and failed hypotheses. Only the
    # bundles that evaluate an instance alone may be checked, counted or
    # recorded, so the campaign must give the summary it gives unpatched,
    # which is the reference's.
    config = CONFIGS[name]
    if chunk is not None:
        monkeypatch.setattr(fuzz, "CHUNK", chunk)
    clean = _summary_bits(reference_fuzz(config))
    assert _summary_bits(run_fuzz(config)) == clean
    points, hypothesis = fuzz._admissible_points, admissibility._hypothesis

    def nan_points(matrix, corridor, u, slack):
        out = points(matrix, corridor, u, slack)
        return np.where((corridor.re_sum <= 0.0)[..., None], np.nan, out)

    def failed_hypothesis(x, matrix, corridor, tol, gram_residual):
        sign, failed, report = hypothesis(x, matrix, corridor, tol, gram_residual)
        return sign, failed | (corridor.re_sum <= 0.0), report

    monkeypatch.setattr(fuzz, "_admissible_points", nan_points)
    monkeypatch.setattr(admissibility, "_hypothesis", failed_hypothesis)
    summary = run_fuzz(config)
    assert summary.rejected > 0
    assert _summary_bits(summary) == clean


def test_planted_inadmissible_draw_raises_the_reference_error(monkeypatch):
    kernel = admissibility._admissible_points

    def planted(matrix, corridor, u, slack):
        # points drawn with slack above 0.97 land at three times the radius
        return kernel(matrix, corridor, u, np.where(slack > 0.97, 3.0 * slack, slack))

    monkeypatch.setattr(admissibility, "_admissible_points", planted)
    monkeypatch.setattr(fuzz, "_admissible_points", planted)
    config = FuzzConfig(seed=202, count=200)
    with pytest.raises(OrthoboundError) as ref:
        reference_fuzz(config)
    with pytest.raises(OrthoboundError) as got:
        run_fuzz(config)
    assert isinstance(ref.value, HypothesisFailed)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)
    assert got.value.which == ref.value.which
    assert got.value.report == ref.value.report


def _same_first_error(config, expected):
    """Run the reference and the campaign, which must both fail with the same
    error of type ``expected``; returns it."""
    with np.errstate(all="ignore"), pytest.raises((OrthoboundError, ValueError)) as ref:
        reference_fuzz(config)
    with pytest.raises((OrthoboundError, ValueError)) as got:
        run_fuzz(config)
    assert type(ref.value) is expected
    assert type(got.value) is expected
    assert str(got.value) == str(ref.value)
    return ref.value


def _planted_qr(monkeypatch, plant):
    """Every QR, the reference's ``np.linalg.qr`` and the package's seam
    ``family._qr``, which the campaign's and ``random_family``'s QR go
    through, returns ``plant(a, Q)`` for its matrix ``a`` in place of Q."""
    qr = np.linalg.qr

    def planted(a):
        q, r = qr(a)
        return plant(a, q), r

    monkeypatch.setattr(np.linalg, "qr", planted)
    monkeypatch.setattr(family, "_qr", lambda a: plant(a, qr(a)[0]))


def test_planted_loose_family_raises_the_reference_error(monkeypatch):
    # families whose first raw entry exceeds 1 come out 1e-6 too long
    def plant(a, q):
        return q * np.where(a[..., 0, 0].real > 1.0, 1.0 + 1e-6, 1.0)[..., None, None]

    _planted_qr(monkeypatch, plant)
    error = _same_first_error(FuzzConfig(seed=202, count=100), GramResidualExceeded)
    assert error.residual > 1e-6


def test_planted_identity_violation_raises_the_reference_error(monkeypatch):
    # each member leans 4.5e-11 towards every other one: the gram residual,
    # about 9e-11, passes at 1e-10, but on real corridors, whose widths
    # share one sign, the two admissibility forms then differ by more than
    # their band
    def plant(a, q):
        k = q.shape[-1]
        return q @ (np.eye(k) + 4.5e-11 * (np.ones((k, k)) - np.eye(k)))

    _planted_qr(monkeypatch, plant)
    error = _same_first_error(FuzzConfig(seed=9, count=100, mode="real"), IdentityViolation)
    assert error.gram_residual <= 1e-10


@pytest.mark.parametrize("fault, expected", [("unit", GramResidualExceeded),
                                             ("corridor", NonfiniteCorridor)])
def test_planted_corollary_2_5_frame_raises_the_reference_error(monkeypatch, fault, expected):
    frame = bounds._schwarz_frame

    def planted(y):
        # where y's first coordinate exceeds 1: a unit member 1e-9 too long,
        # or a corridor whose aggregates overflow
        unit, lo, hi = frame(y)
        hit = y.coords[..., :1].real > 1.0
        if fault == "unit":
            return unit * np.where(hit, 1.0 + 1e-9, 1.0)[..., None], lo, hi
        return unit, np.where(hit, 1e200 * lo, lo), np.where(hit, 1e200 * hi, hi)

    monkeypatch.setattr(bounds, "_schwarz_frame", planted)
    _same_first_error(FuzzConfig(seed=11, count=100, selectors=("cor2.5",)), expected)


def test_a_chunk_builds_corollary_2_5_frame_once(monkeypatch):
    # the campaign draws x in the frame its builder checks
    frame, calls = bounds._schwarz_frame, []
    monkeypatch.setattr(bounds, "_schwarz_frame", lambda y: calls.append(y) or frame(y))
    run_fuzz(FuzzConfig(seed=11, count=100, selectors=("cor2.5",)))
    assert len(calls) == 1


def test_a_chunk_builds_corollary_2_5_corridors_once_each(monkeypatch):
    # (delta, Delta), drawn and checked by the chunk, then the frame's corridor
    build, shapes = admissibility.ScalarCorridor.build.__func__, []

    def spy(cls, lo, hi):
        shapes.append(np.shape(lo))
        return build(cls, lo, hi)

    monkeypatch.setattr(admissibility.ScalarCorridor, "build", classmethod(spy))
    run_fuzz(FuzzConfig(seed=11, count=100, selectors=("cor2.5",)))
    assert shapes.count((100, 1)) == 2


def test_a_real_campaign_runs_the_float64_lane(monkeypatch):
    # every kernel operand of a real campaign is float64, as its draws are
    hypothesis, seen = admissibility._hypothesis, set()

    def spy(x, matrix, corridor, *args):
        seen.add((x.dtype, matrix.dtype, corridor.sides.dtype))
        return hypothesis(x, matrix, corridor, *args)

    monkeypatch.setattr(admissibility, "_hypothesis", spy)
    run_fuzz(FuzzConfig(seed=1, count=50, mode="real"))
    assert seen == {(np.dtype(np.float64),) * 3}


def _planted_points(monkeypatch, plant):
    """Points drawn with slack above 0.97 become ``plant(points)``."""
    kernel = admissibility._admissible_points

    def planted(matrix, corridor, u, slack):
        points = kernel(matrix, corridor, u, slack)
        return np.where(np.asarray(slack > 0.97)[..., None], plant(points), points)

    monkeypatch.setattr(admissibility, "_admissible_points", planted)
    monkeypatch.setattr(fuzz, "_admissible_points", planted)


def test_planted_nonfinite_point_raises_the_reference_error(monkeypatch):
    _planted_points(monkeypatch, lambda points: np.full_like(points, np.nan))
    error = _same_first_error(FuzzConfig(seed=202, count=100), ValueError)
    assert str(error) == "coords must be finite (no NaN/Inf)"


def test_planted_overflowing_point_raises_the_reference_error(monkeypatch):
    # finite points of magnitude 1e200 overflow the admissibility forms
    _planted_points(monkeypatch, lambda points: points * 1e200)
    error = _same_first_error(FuzzConfig(seed=202, count=100), FloatRangeExceeded)
    assert str(error).startswith("admissibility forms overflow the float range")


def test_planted_nonfinite_solved_y_raises_the_reference_error(monkeypatch):
    # points scaled to a largest coordinate of 1.5e308 stay finite, but
    # y = (z - 0.9 x) / 0.1 overflows there
    _planted_points(
        monkeypatch,
        lambda points: points * (1.5e308 / np.abs(points).max(axis=-1, keepdims=True)),
    )
    config = FuzzConfig(seed=202, count=100, selectors=("thm4.1:0.9",))
    run_fuzz(dataclasses.replace(config, selectors=("bessel-defect",)))  # the points pass
    error = _same_first_error(config, ValueError)
    assert str(error) == "coords must be finite (no NaN/Inf)"


def test_nonfinite_corridor_aggregates_raise_typed_error():
    corr = ScalarCorridor([1.0 + 0.5j, 2.0], [1.5 - 0.2j, 2.5])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonfiniteCorridor) as exc:
        corr.scaled(1e155)
    assert isinstance(exc.value, ValueError)
    assert not math.isfinite(exc.value.re_sum)
    assert corr.scaled(1e150).re_sum == pytest.approx(corr.re_sum * 1e300)


def test_nonfinite_corridor_in_campaign_matches_reference():
    config = FuzzConfig(seed=5, count=20, corridor=CorridorSpec("complex", 1e155, 2e155, 0.9))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonfiniteCorridor) as ref:
        reference_fuzz(config)
    with pytest.raises(NonfiniteCorridor) as got:
        run_fuzz(config)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize(
    "config",
    [
        FuzzConfig(seed=2, count=5, mode="quaternion"),
        FuzzConfig(count=0, mode="quaternion"),
        FuzzConfig(seed=1, count=5, mode="quaternion", corridor=CorridorSpec("complex")),
        FuzzConfig(seed=1, count=5, mode="real", corridor=CorridorSpec("complex")),
        FuzzConfig(seed=1, count=5, mode="complex", corridor=CorridorSpec("real")),
    ],
)
def test_invalid_config_raises_the_reference_error(config):
    with pytest.raises(ValueError) as ref:
        reference_fuzz(config)
    with pytest.raises(ValueError) as got:
        run_fuzz(config)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("count, family_size", [(3, 4), (0, 5)])
def test_family_larger_than_dim_is_rejected_at_construction(count, family_size):
    with pytest.raises(ValueError) as ref:
        random_family(2, family_size, 0)
    with pytest.raises(ValueError) as got:
        FuzzConfig(count=count, dim=2, family_size=family_size)
    assert str(got.value) == str(ref.value)


def test_unknown_selectors_are_rejected():
    with pytest.raises(ValueError, match=r"'thm2\.1 '.*'thm9'"):
        FuzzConfig(seed=1, count=50, selectors=("thm2.1 ", "cor2.3", "thm9"))


def test_empty_selectors_are_rejected():
    with pytest.raises(ValueError, match="fuzz selectors must not be empty"):
        FuzzConfig(seed=1, count=5, selectors=())


def test_campaign_that_evaluated_nothing_is_not_ok():
    summary = run_fuzz(CONFIGS["real-rejecting"])
    assert (summary.evaluated, summary.violations) == (0, [])
    assert summary.rejected > 0 and not summary.ok
    assert run_fuzz(FuzzConfig(count=0)).ok


@pytest.mark.usefixtures("halved_counterpart")
def test_a_campaign_reports_violations_across_chunks_as_the_reference(monkeypatch):
    # violations in one chunk (trials 5 and 6) and in later chunks of 16
    monkeypatch.setattr(fuzz, "CHUNK", 16)
    config = FuzzConfig(seed=202, count=300, mode="real")
    summary = run_fuzz(config)
    assert _summary_bits(summary) == _summary_bits(reference_fuzz(config))
    assert not summary.ok
    trials = [v["trial"] for v in summary.violations]
    assert trials[:3] == [5, 6, 18] and len({t // fuzz.CHUNK for t in trials}) > 10
    assert {v["selector"] for v in summary.violations} == {"cor2.3"}


@pytest.mark.parametrize("mode", ["complex", "real"])
@pytest.mark.parametrize("lo, chain", [
    (1e150, "||x|| <= corridor bound (holder p=3)"),
    (1e-160, "|<x,y>/(<x,e><e,y>) - 1| <= corridor width bound"),
])
def test_a_chain_that_overflows_raises_the_reference_error(mode, lo, chain):
    # a chunk checks its chain values by the finiteness rule of BoundChain,
    # so an infinite value cannot widen its own tolerance and hold
    config = FuzzConfig(seed=3, count=5, mode=mode, corridor=CorridorSpec(mode, lo, 2 * lo, 0.9 * lo))
    error = _same_first_error(config, FloatRangeExceeded)
    assert str(error).startswith(f"the chain {chain} overflows the float range: (")


def _same_campaign(config):
    """The campaign, in chunks of 16, and the reference give the same summary
    and chain values, bit for bit; returns the summary."""
    chains = []
    reference = reference_fuzz(config, chains)
    summary = run_fuzz(config)
    assert _summary_bits(summary) == _summary_bits(reference)
    assert _batched_chains(config) == {(k, t): _bits(v) for k, t, v in chains}
    return summary


def test_rows_a_defined_mask_drops_are_neither_checked_nor_recorded(monkeypatch):
    # the ratio form planted as undefined where Re<x,e> < Re<y,e>, in the
    # campaign's step and in the reference alike
    monkeypatch.setattr(fuzz, "CHUNK", 16)
    defined = bounds._RATIO.defined

    def planted(pair):
        return defined(pair) & (pair.x.a[..., 0].real >= pair.y.a[..., 0].real)

    monkeypatch.setattr(bounds, "_RATIO", bounds._RATIO._replace(defined=planted))
    monkeypatch.setattr(sys.modules[__name__], "_ratio_defined",
                        lambda a, b: a * b.conjugate() != 0.0 and a.real >= b.real)
    summary = _same_campaign(FuzzConfig(seed=12, count=100, selectors=("cor3.3",)))
    assert 0 < summary.checked["cor3.3:ratio"] < summary.checked["cor3.3"] == 100
    kept = [len(trials) for _, _, table in fuzz._chunks(FuzzConfig(seed=12, count=100))
            for key, trials, _ in table if key == "cor3.3:ratio"]
    # dropped in part in every chunk of 16, and in whole in the last, of 4
    assert 0 < min(kept[:-1]) and max(kept) < 16 and kept[-1] == 0


def test_a_least_slack_that_ties_zeros_of_both_signs_is_the_first(monkeypatch):
    # schwarz-step planted as (0, +-0), the sign of Re x_0: its least slack
    # is a zero in every row, and the first one of the campaign wins
    monkeypatch.setattr(fuzz, "CHUNK", 16)

    def planted(pair):
        return 0.0, np.copysign(0.0, pair.x.coords[..., 0].real)

    monkeypatch.setattr(bounds, "_SCHWARZ_STEP", bounds._SCHWARZ_STEP._replace(values=planted))
    config = FuzzConfig(seed=1, count=40, selectors=("schwarz-step",))
    summary = _same_campaign(config)
    signs = [math.copysign(1.0, v[1]) for _, _, table in fuzz._chunks(config)
             for _, _, values in table for v in values]
    assert set(signs[:16]) == {1.0, -1.0}
    assert math.copysign(1.0, summary.min_slack["schwarz-step"]) == signs[0]


def test_a_selector_first_live_in_a_later_chunk_keeps_its_place(monkeypatch):
    # one-member corridors about 0 are mostly rejected: cor3.3 has no live
    # row in the first chunks of 16, one chunk none at all, and a later
    # chunk has some
    monkeypatch.setattr(fuzz, "CHUNK", 16)
    config = FuzzConfig(seed=8, count=160, family_size=1, mode="real",
                        corridor=CorridorSpec("real", -0.5, 0.5))
    keys = [[key for key, _, _ in table] for _, _, table in fuzz._chunks(config)]
    assert "thm2.1" in keys[0] and "cor3.3" not in keys[0] and [] in keys
    assert any("cor3.3" in k for k in keys)
    summary = _same_campaign(config)
    assert list(summary.checked).index("cor3.3") > list(summary.checked).index("thm2.1")
