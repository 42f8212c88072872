import pytest

from orthobound import (
    BadEpsilon,
    BoundChain,
    ChainViolated,
    WitnessNotFound,
    bound_comparison_search,
    equality_cases,
    sharpness_sweep,
)
from orthobound import admissibility, bounds
from orthobound.experiments import sweep_rows_to_csv


def test_cor23_ratio_formula():
    rows = sharpness_sweep("cor23", [0.5, 0.1, 0.01])
    assert [r.ratio for r in rows] == pytest.approx([0.75, 0.99, 0.9999], abs=1e-12)


def test_thm21_ratio_formula():
    rows = sharpness_sweep("thm21", [0.5, 0.01])
    assert rows[0].ratio == pytest.approx(0.75, abs=1e-12)
    assert rows[1].ratio == pytest.approx(1 - 1e-4, abs=1e-12)


def test_cor32_squares_ratio():
    rows = sharpness_sweep("cor32", [0.5, 0.1])
    assert rows[0].ratio == pytest.approx(0.75**2, abs=1e-12)
    assert rows[1].ratio == pytest.approx(0.99**2, abs=1e-12)


def test_sweep_monotone_toward_one():
    eps = [0.5, 0.3, 0.1, 0.05, 0.01, 0.001]
    rows = sharpness_sweep("cor23", eps)
    ratios = [r.ratio for r in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert max(ratios) >= 1 - eps[-1] ** 2 - 1e-12


def test_sweep_rejects_bad_epsilon():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(BadEpsilon):
            sharpness_sweep("cor23", [bad])


@pytest.mark.parametrize("eps", [1e-17, 1e-300])
@pytest.mark.parametrize("target", ["cor23", "cor32"])
def test_sweep_rejects_an_epsilon_below_float_resolution(target, eps):
    # 1 - eps == 1 + eps: the plane's corridor has zero width and its bound is 0
    with pytest.raises(BadEpsilon, match="zero width"):
        sharpness_sweep(target, [0.1, eps])


def test_sweep_unknown_target():
    with pytest.raises(ValueError):
        sharpness_sweep("nope", [0.5])


def test_sweep_csv_layout():
    csv = sweep_rows_to_csv(sharpness_sweep("cor23", [0.5]))
    lines = csv.strip().split("\n")
    assert lines[0] == "epsilon,ratio,bound,defect"
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.5
    assert float(fields[1]) == pytest.approx(0.75)


def test_witnesses_found_both_directions():
    result = bound_comparison_search(seed=7, trials=10_000)
    w1, w2 = result.sqrt_tighter, result.midpoint_tighter
    assert w1.refined_sqrt < w1.refined_midpoint
    assert w2.refined_midpoint < w2.refined_sqrt
    assert w1.margin > 0 and w2.margin > 0


def test_witness_search_admits_each_pair_once(monkeypatch):
    # thm1.1 and thm2 each build the trial's pair once: one hypothesis kernel
    # per (vector, corridor) per selector, so 2 per selector per trial
    kernel, calls = admissibility._hypothesis, []
    monkeypatch.setattr(admissibility, "_hypothesis", lambda *a: calls.append(a) or kernel(*a))
    result = bound_comparison_search(seed=7, trials=10_000)
    assert len(calls) == 2 * 2 * result.trials_used


def test_witness_search_zero_trials():
    with pytest.raises(WitnessNotFound):
        bound_comparison_search(seed=7, trials=0)


def test_witness_search_reports_direction():
    # one trial cannot produce both directions
    with pytest.raises(WitnessNotFound) as exc:
        bound_comparison_search(seed=7, trials=1)
    assert exc.value.direction in ("sqrt_tighter", "midpoint_tighter")


def test_equality_catalog_passes():
    report = equality_cases()
    assert report.all_passed
    names = {c.name for c in report.cases}
    assert "plane construction" in names
    assert "centered zero-width corridor" in names


# Each sweep with the step of a chain it evaluates, by the bound that runs it.
_SWEPT_STEPS = {
    "thm21-norm_bound_quadratic": ("thm21", "_QUADRATIC"),
    "cor23-bessel_counterpart": ("cor23", "_COUNTERPART"),
    "cor32-bessel_counterpart": ("cor32", "_COUNTERPART"),
    "cor32-gruss_bound": ("cor32", "_GRUSS"),
}


@pytest.mark.parametrize("target, step", list(_SWEPT_STEPS.values()), ids=list(_SWEPT_STEPS))
def test_sweep_raises_on_failing_chain(monkeypatch, target, step):
    # a raised error, not an assert, so the check survives python -O
    failing = BoundChain(("lhs", "bound"), (2.0, 1.0))
    # the catalog looks each chain's step up at call time, and reads its ``defined``
    def failing_step(*args, **kw):
        return failing

    failing_step.defined = None
    monkeypatch.setattr(bounds, step, failing_step)
    with pytest.raises(ChainViolated) as exc:
        sharpness_sweep(target, [0.1])
    assert exc.value.chain is failing
