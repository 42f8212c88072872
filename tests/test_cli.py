import json
import math
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from orthobound import (
    CorridorSpec,
    FuzzConfig,
    Vector,
    admissible_point,
    bessel_counterpart,
    check_hypothesis,
    companion_bound,
    gruss_bound,
    gruss_refined_midpoint,
    gruss_refined_sqrt,
    jsonio,
    norm_bound_linear,
    norm_bound_quadratic,
    random_family,
    schwarz_counterparts,
    single_vector_ratio_chain,
)
from orthobound.catalog import SELECTORS
from orthobound.cli import SWEEP_EPS, main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_instance(tmp_path, payload, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def inadmissible(tmp_path):
    return write_instance(
        tmp_path,
        {
            "family": {"members": [[[1.0, 0.0]]]},
            "x": [[5.0, 0.0]],
            "phi": [[1.0, 0.0]],
            "Phi": [[2.0, 0.0]],
        },
    )


def test_check_shipped_plane_construction(capsys):
    rc, out, _ = run(
        capsys, "check", "--instance", str(DATA / "cor23_construction.json"),
        "--bound", "cor2.3",
    )
    assert rc == 0
    report = json.loads(out)
    assert report["holds"]
    assert report["chains"]["main"]["ratio"] == pytest.approx(0.99, abs=1e-12)


def test_check_centered_instance_near_zero_chain(capsys):
    rc, out, _ = run(
        capsys, "check", "--instance", str(DATA / "centered_instance.json"),
        "--bound", "cor2.3",
    )
    assert rc == 0
    chain = json.loads(out)["chains"]["main"]
    assert chain["values"][1] == pytest.approx(0.0, abs=1e-12)


def test_check_inadmissible_exit_two(capsys, inadmissible):
    rc, out, _ = run(capsys, "check", "--instance", inadmissible, "--bound", "cor2.3")
    assert rc == 2
    report = json.loads(out)
    assert report["report"]["cond_ii_residual"] > report["report"]["radius"]


def test_check_force_marks_unverified(capsys, inadmissible):
    rc, out, _ = run(
        capsys, "check", "--instance", inadmissible, "--bound", "cor2.3", "--force"
    )
    assert rc == 2
    report = json.loads(out)
    assert report["chains"]["main"]["verified"] is False


def test_check_missing_file(capsys, tmp_path):
    rc, _, err = run(
        capsys, "check", "--instance", str(tmp_path / "nope.json"), "--bound", "cor2.3"
    )
    assert rc == 1
    assert "error" in err


def test_check_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, "check", "--instance", str(path), "--bound", "cor2.3")
    assert rc == 1
    assert "malformed" in err


def test_check_unknown_selector(capsys, inadmissible):
    rc, _, err = run(capsys, "check", "--instance", inadmissible, "--bound", "thm9.9")
    assert rc == 1
    assert "selector" in err


def test_check_missing_fields_reported(capsys, tmp_path):
    path = write_instance(tmp_path, {"x": [[1.0, 0.0]]})
    rc, _, err = run(capsys, "check", "--instance", path, "--bound", "thm2.1")
    assert rc == 1
    assert "family" in err


def test_check_pair_bound(capsys, tmp_path):
    c = 1 / math.sqrt(2)
    path = write_instance(
        tmp_path,
        {
            "family": {"members": [[[c, 0.0], [c, 0.0]]]},
            "x": [[1.0 * c, 0.0], [3.0 * c, 0.0]],
            "y": [[1.0 * c, 0.0], [3.0 * c, 0.0]],
            "phi": [[1.0, 0.0]],
            "Phi": [[3.0, 0.0]],
            "gamma": [[1.0, 0.0]],
            "Gamma": [[3.0, 0.0]],
        },
    )
    rc, out, _ = run(capsys, "check", "--instance", path, "--bound", "thm3.1")
    assert rc == 0
    report = json.loads(out)
    assert report["chains"]["main"]["all_hold"]


def test_check_refinement_selectors(capsys, tmp_path):
    c = 1 / math.sqrt(2)
    path = write_instance(
        tmp_path,
        {
            "family": {"members": [[[c, 0.0], [c, 0.0]]]},
            "x": [[1.0 * c, 0.0], [3.0 * c, 0.0]],
            "y": [[2.0 * c, 0.0], [2.0 * c, 0.0]],
            "phi": [[1.0, 0.0]],
            "Phi": [[3.0, 0.0]],
            "gamma": [[1.5, 0.0]],
            "Gamma": [[2.5, 0.0]],
        },
    )
    for bound in ("thm1.1", "thm2", "cor3.3", "thm4.1:0.5"):
        rc, out, _ = run(capsys, "check", "--instance", path, "--bound", bound)
        assert rc == 0, bound
        report = json.loads(out)
        assert all(c["all_hold"] for c in report["chains"].values()), bound
    rc, out, _ = run(capsys, "check", "--instance", path, "--bound", "cor3.3")
    assert "ratio_form" in json.loads(out)["chains"]


def test_check_schwarz_selector(capsys, tmp_path):
    path = write_instance(
        tmp_path,
        {
            "x": [[1.0, 0.0], [2.0, 0.0]],
            "y": [[0.0, 0.0], [1.0, 0.0]],
            "delta": [1.0, 0.0],
            "Delta": [3.0, 0.0],
        },
    )
    rc, out, _ = run(capsys, "check", "--instance", path, "--bound", "cor2.5")
    assert rc == 0
    report = json.loads(out)
    assert len(report["chains"]) == 4


_PAIR_INSTANCE = {
    "family": {"members": [[[1.0, 0.0]]]},
    "x": [[1.5, 0.0]],
    "phi": [[1.0, 0.0]],
    "Phi": [[2.0, 0.0]],
    "y": [[1.2, 0.0]],
    "gamma": [[1.0, 0.0]],
    "Gamma": [[2.0, 0.0]],
}
_SCHWARZ_INSTANCE = {"x": [1.0, 2.0], "y": [0.0, 1.0], "delta": 1.0, "Delta": 3.0}


@pytest.mark.parametrize(
    "bound, fields, message",
    [
        ("cor2.3", {"phi": [1.0], "Phi": [1e200]},
         "corridor aggregates are not finite: re_sum 1e+200, radius inf"),
        ("cor2.5", {"delta": math.nan}, "corridor delta must be finite"),
        ("cor2.5", {"Delta": math.inf}, "corridor Delta must be finite"),
        ("thm3.1", {"gamma": [math.nan]}, "y corridor phi: coords must be finite (no NaN/Inf)"),
        ("thm2.1", {"Phi": [[2.0, math.inf]]}, "Phi: coords must be finite (no NaN/Inf)"),
        ("cor2.3", {"x": [1e200]},
         "admissibility forms overflow the float range: sign value -inf, ball residual inf"),
        # json reads `true` as 1 and accepts `Infinity`, under which this
        # family of norm 2 would load and reach the chain
        ("cor2.3", {"family": {"members": [[2.0]], "tolerance": True}},
         "family.tolerance: expected a positive finite number"),
        ("cor2.3", {"family": {"members": [[2.0]], "tolerance": math.inf}},
         "family.tolerance: expected a positive finite number"),
    ],
)
def test_nonfinite_corridor_input_fails_with_one_typed_error(
    capsys, tmp_path, bound, fields, message
):
    base = _SCHWARZ_INSTANCE if bound == "cor2.5" else _PAIR_INSTANCE
    path = write_instance(tmp_path, {**base, **fields})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, "check", "--instance", path, "--bound", bound)
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    assert [str(w.message) for w in caught] == []


def test_check_holder_selector(capsys, tmp_path):
    path = write_instance(
        tmp_path,
        {
            "family": {"members": [[[1.0, 0.0]]]},
            "x": [[1.5, 0.0]],
            "phi": [[1.0, 0.0]],
            "Phi": [[2.0, 0.0]],
        },
    )
    for bound in ("eq2.11:max", "eq2.11:sum", "eq2.11:holder:3", "thm4.1:0.5", "eq2.6"):
        rc, out, _ = run(capsys, "check", "--instance", path, "--bound", bound)
        if bound.startswith("thm4.1"):
            assert rc == 1  # y is required for the companion bound
        else:
            assert rc == 0


def test_fuzz_exit_zero(capsys):
    rc, out, _ = run(capsys, "fuzz", "--seed", "42", "--count", "30")
    assert rc == 0
    summary = json.loads(out)
    assert summary["violations"] == []
    assert summary["evaluated"] == 30
    assert all(v > -1e-9 for v in summary["min_slack"].values())


def test_fuzz_count_zero(capsys):
    rc, out, _ = run(capsys, "fuzz", "--seed", "1", "--count", "0")
    assert rc == 0
    assert json.loads(out)["evaluated"] == 0


def test_fuzz_rejects_negative_count(capsys):
    rc, out, err = run(capsys, "fuzz", "--count", "-5")
    assert (rc, out) == (1, "")
    assert "fuzz count must be nonnegative, got -5" in err
    with pytest.raises(ValueError):
        FuzzConfig(count=-1)


def test_fuzz_rejects_infinite_center_range(capsys):
    rc, out, err = run(capsys, "fuzz", "--seed", "1", "--count", "3", "--center-range=1,inf")
    assert (rc, out) == (1, "")
    assert "center_high must be finite" in err


def test_fuzz_real_mode_negative_spec_counts_rejects(capsys):
    rc, out, _ = run(
        capsys, "fuzz", "--seed", "3", "--count", "40", "--mode", "real",
        "--center-range=-0.5,0.5",
    )
    assert rc == 1  # every corridor rejected: the campaign checked nothing
    summary = json.loads(out)
    assert summary["rejected"] > 0


def test_fuzz_determinism(capsys):
    rc1, out1, _ = run(capsys, "fuzz", "--seed", "11", "--count", "20")
    rc2, out2, _ = run(capsys, "fuzz", "--seed", "11", "--count", "20")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_sweep_writes_expected_csv(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    rc, _, _ = run(
        capsys, "sweep", "--target", "cor23", "--eps", "0.5,0.1,0.01",
        "--out", str(out_csv),
    )
    assert rc == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "epsilon,ratio,bound,defect"
    ratios = [float(line.split(",")[1]) for line in lines[1:]]
    assert ratios == pytest.approx([0.75, 0.99, 0.9999], abs=1e-12)


def test_sweep_cor32_target(capsys, tmp_path):
    out_csv = tmp_path / "sweep32.csv"
    rc, _, _ = run(
        capsys, "sweep", "--target", "cor32", "--eps", "0.5", "--out", str(out_csv)
    )
    assert rc == 0
    ratio = float(out_csv.read_text().strip().split("\n")[1].split(",")[1])
    assert ratio == pytest.approx(0.75**2, abs=1e-12)


def test_sweep_empty_eps(capsys, tmp_path):
    out_csv = tmp_path / "nothing.csv"
    rc, _, err = run(capsys, "sweep", "--target", "cor23", "--eps", "", "--out", str(out_csv))
    assert rc == 1
    assert not out_csv.exists()


def test_sweep_bad_eps(capsys, tmp_path):
    rc, _, err = run(
        capsys, "sweep", "--target", "cor23", "--eps", "1.5",
        "--out", str(tmp_path / "x.csv"),
    )
    assert rc == 1


def test_sweep_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "sweep", "--target", "cor23", "--eps", "0.1,0.01", "--out", str(a))
    run(capsys, "sweep", "--target", "cor23", "--eps", "0.1,0.01", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("family,nodes", [("trig", 64), ("legendre", 32)])
def test_integral_demo(capsys, family, nodes):
    rc, out, _ = run(
        capsys, "integral-demo", "--family", family, "--nodes", str(nodes),
        "--count", "4",
    )
    assert rc == 0
    report = json.loads(out)
    assert report["gram_residual"] <= 1e-8
    assert report["hypothesis"]["holds"]
    assert all(c["all_hold"] for c in report["chains"].values())


@pytest.mark.parametrize("family", ["trig", "legendre"])
def test_integral_demo_benchmark_scale(capsys, family):
    rc, out, _ = run(
        capsys, "integral-demo", "--family", family, "--nodes", "2048", "--count", "16",
    )
    assert rc == 0
    report = json.loads(out)
    assert report["gram_residual"] <= 1e-8
    assert report["hypothesis"]["holds"]
    assert all(c["all_hold"] for c in report["chains"].values())


def test_integral_demo_coarse_grid_fails(capsys):
    rc, _, err = run(capsys, "integral-demo", "--family", "trig", "--nodes", "3")
    assert rc == 1
    assert "residual" in err


def test_env_tolerance_override(capsys, inadmissible, monkeypatch):
    monkeypatch.setenv("ORTHOBOUND_TOL", "1e6")  # absurdly loose: everything holds
    rc, _, _ = run(capsys, "check", "--instance", inadmissible, "--bound", "cor2.3")
    assert rc == 0
    monkeypatch.setenv("ORTHOBOUND_TOL", "not-a-number")
    rc, _, err = run(capsys, "check", "--instance", inadmissible, "--bound", "cor2.3")
    assert rc == 1
    assert "ORTHOBOUND_TOL" in err


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_tolerance_must_be_positive_and_finite(capsys, monkeypatch, value):
    check = ("check", "--instance", str(DATA / "cor23_construction.json"), "--bound", "cor2.3")
    rc, out, err = run(capsys, *check, f"--tolerance={value}")
    assert (rc, out) == (1, "")
    assert "--tolerance: tolerance must be positive and finite" in err
    monkeypatch.setenv("ORTHOBOUND_TOL", value)
    rc, out, err = run(capsys, *check)
    assert (rc, out) == (1, "")
    assert "ORTHOBOUND_TOL: tolerance must be positive and finite" in err
    # an explicit --tolerance takes precedence over the environment
    rc, _, _ = run(capsys, *check, "--tolerance=1e-10")
    assert rc == 0


def test_sweep_default_eps_grid(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    rc, _, _ = run(capsys, "sweep", "--target", "cor23", "--out", str(out_csv))
    assert rc == 0
    rows = out_csv.read_text().strip().split("\n")[1:]
    assert len(rows) == 7
    assert [float(r.split(",")[0]) for r in rows] == [float(e) for e in SWEEP_EPS.split(",")]


def test_witnesses_writes_both_directions(capsys, tmp_path):
    out_json = tmp_path / "witnesses.json"
    rc, out, _ = run(capsys, "witnesses", "--seed", "7", "--trials", "10000",
                     "--out", str(out_json))
    assert rc == 0
    written = json.loads(out_json.read_text())
    assert json.loads(out)["trials_used"] == written["trials_used"] <= 10000
    sqrt_w, mid_w = written["sqrt_tighter"], written["midpoint_tighter"]
    assert sqrt_w["direction"] == "sqrt_tighter"
    assert sqrt_w["refined_sqrt"] < sqrt_w["refined_midpoint"]
    assert mid_w["direction"] == "midpoint_tighter"
    assert mid_w["refined_midpoint"] < mid_w["refined_sqrt"]
    # the witness instance is a check instance file on which its bound holds
    path = write_instance(tmp_path, sqrt_w["instance"])
    rc, out, _ = run(capsys, "check", "--instance", path, "--bound", "thm1.1")
    assert rc == 0
    assert json.loads(out)["chains"]["main"]["values"][1] == sqrt_w["refined_sqrt"]


def test_witnesses_budget_too_small(capsys, tmp_path):
    rc, _, err = run(capsys, "witnesses", "--trials", "1", "--out", str(tmp_path / "w.json"))
    assert rc == 1
    assert "error" in err


def _plane_instance():
    """One real member in R^2: cor3.3's ratio form applies."""
    c = 1 / math.sqrt(2)
    return {
        "family": {"members": [[[c, 0.0], [c, 0.0]]]},
        "x": [[1.0 * c, 0.0], [3.0 * c, 0.0]],
        "y": [[2.0 * c, 0.0], [2.0 * c, 0.0]],
        "phi": [[1.0, 0.0]],
        "Phi": [[3.0, 0.0]],
        "gamma": [[1.5, 0.0]],
        "Gamma": [[2.5, 0.0]],
        "delta": [0.25, 0.0],
        "Delta": [1.5, 0.0],
    }


def _complex_instance():
    """Three complex members in C^5; x and y share the corridor, so their
    midpoint is admissible, and (delta, Delta) is centred on <x,y>/||y||^2."""
    rng = np.random.default_rng(31)
    fam = random_family(5, 3, rng)
    corr = CorridorSpec().sample(3, rng)
    x = admissible_point(fam, corr, rng, 0.2)
    y = admissible_point(fam, corr, rng, 0.2)
    t = np.vdot(y.coords, x.coords) / np.vdot(y.coords, y.coords)
    s = 1.1 * np.linalg.norm(x.coords - t * y.coords) / np.linalg.norm(y.coords)
    corridor = jsonio.corridor_to_json(corr)
    return {
        "family": jsonio.family_to_json(fam),
        "x": jsonio.vector_to_json(x),
        "y": jsonio.vector_to_json(y),
        **corridor,
        "gamma": corridor["phi"],
        "Gamma": corridor["Phi"],
        "delta": jsonio.scalar_to_json(t - s),
        "Delta": jsonio.scalar_to_json(t + s),
    }


def _decode(data):
    return SimpleNamespace(
        fam=jsonio.family_from_json(data["family"]),
        x=jsonio.vector_from_json(data["x"], "x"),
        y=jsonio.vector_from_json(data["y"], "y"),
        cx=jsonio.corridor_from_json(data["phi"], data["Phi"]),
        cy=jsonio.corridor_from_json(data["gamma"], data["Gamma"]),
        delta=jsonio.scalar_from_json(data["delta"], "delta"),
        Delta=jsonio.scalar_from_json(data["Delta"], "Delta"),
    )


def _pair(v):
    return v.x, v.y, v.fam, v.cx, v.cy


def _ratio_form(v):
    if v.fam.count != 1:
        return {}
    return {"ratio_form": single_vector_ratio_chain(*_pair(v))}


# each selector's chains and hypothesis reports, written out against the public API
REFERENCE = {
    "thm2.1": lambda v: {"main": norm_bound_quadratic(v.x, v.fam, v.cx)},
    "eq2.6": lambda v: {"main": norm_bound_linear(v.x, v.fam, v.cx)},
    "eq2.11:max": lambda v: {"main": norm_bound_quadratic(v.x, v.fam, v.cx, "max_sum")},
    "eq2.11:sum": lambda v: {"main": norm_bound_quadratic(v.x, v.fam, v.cx, "sum_max")},
    "eq2.11:holder:3": lambda v: {
        "main": norm_bound_quadratic(v.x, v.fam, v.cx, "holder", 3.0)
    },
    "cor2.3": lambda v: {"main": bessel_counterpart(v.x, v.fam, v.cx)},
    "cor2.5": lambda v: schwarz_counterparts(v.x, v.y, v.delta, v.Delta).chains(),
    "thm1.1": lambda v: {"main": gruss_refined_sqrt(*_pair(v))},
    "thm2": lambda v: {"main": gruss_refined_midpoint(*_pair(v))},
    "thm3.1": lambda v: {"main": gruss_bound(*_pair(v))},
    "cor3.3": lambda v: {"main": gruss_bound(*_pair(v)), **_ratio_form(v)},
    "thm4.1:0.5": lambda v: {"main": companion_bound(v.x, v.y, v.fam, v.cx, 0.5)},
}


def _reference_reports(bound, v):
    if bound == "cor2.5":
        return {"x": schwarz_counterparts(v.x, v.y, v.delta, v.Delta).report}
    if bound == "thm4.1:0.5":
        z = Vector(0.5 * v.x.coords + 0.5 * v.y.coords, real_mode=v.x.real_mode and v.y.real_mode)
        return {"combined": check_hypothesis(z, v.fam, v.cx)}
    reports = {"x": check_hypothesis(v.x, v.fam, v.cx)}
    if bound in ("thm1.1", "thm2", "thm3.1", "cor3.3"):
        reports["y"] = check_hypothesis(v.y, v.fam, v.cy)
    return reports


@pytest.mark.parametrize("make", [_plane_instance, _complex_instance])
@pytest.mark.parametrize("bound", sorted(REFERENCE))
def test_check_equals_public_api(capsys, tmp_path, bound, make):
    data = make()
    v = _decode(data)
    chains = REFERENCE[bound](v)
    reports = _reference_reports(bound, v)
    encoded = {}
    for name, chain in chains.items():
        encoded[name] = jsonio.chain_to_json(chain)
        if chain.values[-1] != 0.0:
            encoded[name]["ratio"] = chain.values[-2] / chain.values[-1]
    expected = {
        "bound": bound,
        "hypothesis": {k: jsonio.report_to_json(r) for k, r in reports.items()},
        "chains": encoded,
        "holds": True,
    }
    assert all(r.holds for r in reports.values())
    assert all(c.all_hold and c.verified for c in chains.values())
    rc, out, _ = run(capsys, "check", "--instance", write_instance(tmp_path, data),
                     "--bound", bound)
    assert (rc, json.loads(out)) == (0, expected)
    assert ("ratio_form" in chains) == (bound == "cor3.3" and make is _plane_instance)


def test_readme_selector_table_matches_the_catalog():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Bound selectors", 1)[1].split("\n### ", 1)[0]
    listed = re.findall(r"^\| `([^`]+)`", section, flags=re.MULTILINE)
    names = {sel.partition(":")[0] for sel in listed}
    assert names == set(SELECTORS)
    for sel in listed:
        name, colon, _ = sel.partition(":")
        assert bool(colon) == (SELECTORS[name].params is not None), sel
