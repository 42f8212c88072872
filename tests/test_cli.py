import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import orthobound
from orthobound import (
    CorridorSpec,
    FloatRangeExceeded,
    FuzzConfig,
    HypothesisFailed,
    ScalarCorridor,
    Vector,
    admissible_point,
    bessel_counterpart,
    bound_comparison_search,
    check_hypothesis,
    companion_bound,
    gruss_bound,
    gruss_refined_midpoint,
    gruss_refined_sqrt,
    jsonio,
    norm,
    norm_bound_linear,
    norm_bound_quadratic,
    random_family,
    schwarz_counterparts,
    single_vector_ratio_chain,
    validate_family,
)
from orthobound import admissibility, bounds, catalog, cli, experiments, fuzz, integral
from orthobound.catalog import KINDS, SELECTORS, SWEEP_TARGETS
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


# The sha256 of the stdout of each command, run in-process: the outputs every
# refactor of the evaluation path must leave byte for byte as they are.
GOLDEN_STDOUTS = [
    (("check", "--instance", str(DATA / "cor23_construction.json"), "--bound", "cor2.3"),
     "f22f0ca22072c16aa7347fa9fa33192d951e779c46503cef9675ed3cfee7ee85"),
    (("check", "--instance", str(DATA / "centered_instance.json"), "--bound", "cor2.3"),
     "8fe8c150292a57a041af5c000512c5e13c3834fe7e11bc72041e9aac1bcf9b7e"),
    (("fuzz", "--seed", "42", "--count", "30"),
     "23f518f67acb157205440bf18ad41feec23e6eadc7d30262cbc5f9698d867988"),
    (("integral-demo", "--family", "trig"),
     "a133d2915633d456be647f42a487ecb673c924f0a96359361e0b8ce8a71bbec2"),
    (("integral-demo", "--family", "legendre"),
     "2d71ebb28104ebe27a3a47c186261e71f8a22ffcd812db5fd6fa8b1dcb3834ed"),
]


@pytest.mark.parametrize(
    "argv, digest", GOLDEN_STDOUTS,
    ids=["check-cor23", "check-centered", "fuzz-42", "integral-trig", "integral-legendre"],
)
def test_golden_stdouts(capsys, argv, digest):
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("bound, message", [
    ("eq2.11:holder:x", "bad holder exponent in 'eq2.11:holder:x'"),
    ("eq2.11:bogus", "unknown eq2.11 variant 'eq2.11:bogus'"),
    ("thm4.1:x", "bad lambda in 'thm4.1:x'"),
])
def test_check_bad_selector_parameter_fails_before_reading_the_file(capsys, tmp_path, bound,
                                                                    message):
    missing = str(tmp_path / "nope.json")
    rc, out, err = run(capsys, "check", "--instance", missing, "--bound", bound)
    assert (rc, out, err) == (1, "", f"error: --bound: {message}\n")


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


def test_check_companion_of_vectors_of_two_dims_is_a_typed_error(capsys, tmp_path):
    c = 1 / math.sqrt(2)
    path = write_instance(
        tmp_path,
        {
            "family": {"members": [[[c, 0.0], [c, 0.0]]]},
            "x": [[1.0 * c, 0.0], [3.0 * c, 0.0]],
            "y": [[2.0 * c, 0.0], [2.0 * c, 0.0], [1.0, 0.0]],
            "phi": [[1.0, 0.0]],
            "Phi": [[3.0, 0.0]],
        },
    )
    assert run(capsys, "check", "--instance", path, "--bound", "thm4.1:0.5") == (
        1, "", "error: dim 2 != dim 3\n"
    )


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
        ("thm3.1", {"gamma": [math.nan]}, "gamma: coords must be finite (no NaN/Inf)"),
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


_HUGE = 10**400  # a JSON integer beyond the float range


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"x": [_HUGE]}, "x[0]: integer too large for a float"),
        ({"x": [[1.5, _HUGE]]}, "x[0]: integer too large for a float"),
        ({"phi": [_HUGE]}, "phi[0]: integer too large for a float"),
        ({"Phi": [[2.0, 0.0], [_HUGE, 0.0]]}, "Phi[1]: integer too large for a float"),
        ({"y": [[-_HUGE, 0.0]]}, "y[0]: integer too large for a float"),
        ({"gamma": [-_HUGE]}, "gamma[0]: integer too large for a float"),
        ({"Gamma": [[2.0, _HUGE]]}, "Gamma[0]: integer too large for a float"),
        ({"delta": _HUGE}, "delta: integer too large for a float"),
        ({"Delta": [3.0, _HUGE]}, "Delta: integer too large for a float"),
        ({"family": {"members": [[_HUGE]]}}, "family.members[0][0]: integer too large for a float"),
        ({"family": {"members": [[[1.0, 0.0]], [[0.0, _HUGE]]]}},
         "family.members[1][0]: integer too large for a float"),
        ({"family": {"members": [[[1.0, 0.0]]], "tolerance": _HUGE}},
         "family.tolerance: expected a positive finite number"),
        ({"family": {"members": [[[1.0, 0.0]]], "tolerance": -_HUGE}},
         "family.tolerance: expected a positive finite number"),
    ],
    ids=["x", "x-pair", "phi", "Phi-pair", "y-pair", "gamma", "Gamma-pair", "delta",
         "Delta-pair", "member", "member-pair", "tolerance", "negative-tolerance"],
)
def test_an_integer_beyond_the_float_range_is_a_format_error(capsys, tmp_path, fields, message):
    path = write_instance(tmp_path, {**_PAIR_INSTANCE, "delta": 1.0, "Delta": 3.0, **fields})
    rc, out, err = run(capsys, "check", "--instance", path, "--bound", "cor2.3")
    assert (rc, out, err) == (1, "", f"error: {message}\n")


# JSON literals json.dumps cannot write: a float beyond the float range, and
# the constants json reads as inf and nan
_LITERALS = {'"HUGE"': "1e400", '"-HUGE"': "-1e400", '"INF"': "Infinity", '"NAN"': "NaN"}


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"x": [1.5, "HUGE"]}, "x[1]: number too large for a float"),
        ({"x": [[1.5, 0.0], [2.0, "-HUGE"]]}, "x[1]: number too large for a float"),
        ({"Phi": [["HUGE", 0.0]]}, "Phi[0]: number too large for a float"),
        ({"gamma": ["-HUGE"]}, "gamma[0]: number too large for a float"),
        ({"delta": "HUGE"}, "delta: number too large for a float"),
        ({"family": {"members": [[[1.0, 0.0]], [[0.0, "HUGE"]]]}},
         "family.members[1][0]: number too large for a float"),
        ({"family": {"members": [[[1.0, 0.0]]], "tolerance": "HUGE"}},
         "family.tolerance: expected a positive finite number"),
        ({"x": [1.5, "INF"]}, "x: coords must be finite (no NaN/Inf)"),
        ({"Phi": [["NAN", 0.0]]}, "Phi: coords must be finite (no NaN/Inf)"),
    ],
    ids=["x", "x-pair", "Phi-pair", "gamma", "delta", "member-pair", "tolerance",
         "Infinity", "NaN"],
)
def test_a_float_literal_beyond_the_float_range_is_reported_at_its_element(
    capsys, tmp_path, fields, message
):
    text = json.dumps({**_PAIR_INSTANCE, "delta": 1.0, "Delta": 3.0, **fields})
    for placeholder, literal in _LITERALS.items():
        text = text.replace(placeholder, literal)
    path = tmp_path / "instance.json"
    path.write_text(text)
    rc, out, err = run(capsys, "check", "--instance", str(path), "--bound", "cor2.3")
    assert (rc, out, err) == (1, "", f"error: {message}\n")


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


@pytest.mark.usefixtures("halved_counterpart")
def test_fuzz_with_violations_exits_one_and_lists_them(capsys):
    rc, out, err = run(capsys, "fuzz", "--mode", "real", "--seed", "202", "--count", "200")
    assert (rc, err) == (1, "")
    summary = json.loads(out)
    assert [v["trial"] for v in summary["violations"]][:3] == [5, 6, 18]
    expected = fuzz.run_fuzz(fuzz.FuzzConfig(seed=202, count=200, mode="real"))
    assert summary["violations"] == expected.violations


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


@pytest.mark.parametrize("raw", ["a,b", "1", "1,2,3"])
def test_fuzz_rejects_a_malformed_center_range(capsys, raw):
    rc, out, err = run(capsys, "fuzz", "--count", "1", f"--center-range={raw}")
    assert (rc, out) == (1, "")
    assert "argument --center-range: expected LO,HI" in err
    assert "_range_arg" not in err


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


def test_fuzz_with_an_overflowing_chain_exits_one_naming_it(capsys):
    rc, out, err = run(capsys, "fuzz", "--center-range=1e150,2e150", "--width", "9e149",
                       "--count", "3", "--seed", "3")
    assert (rc, out) == (1, "")
    assert err.startswith(
        "error: the chain ||x|| <= corridor bound (holder p=3) overflows the float range: (")


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


@pytest.mark.parametrize("eps", ["1e-17", "1e-300"])
@pytest.mark.parametrize("target", ["thm21", "cor23", "cor32"])
def test_sweep_at_an_epsilon_below_float_resolution(capsys, tmp_path, target, eps):
    out_csv = tmp_path / "tiny.csv"
    rc, out, err = run(capsys, "sweep", "--target", target, "--eps", eps, "--out", str(out_csv))
    if target == "thm21":  # the line's bound stays positive
        assert (rc, err) == (0, "")
        assert out_csv.read_text() == f"epsilon,ratio,bound,defect\n{float(eps)!r},1.0,1.0,1.0\n"
    else:  # the plane's corridor has zero width, and so has its bound
        assert (rc, out) == (1, "")
        message = f"eps={float(eps)!r} gives the {target} corridor zero width in floats"
        assert err == f"error: {message}\n"
        assert not out_csv.exists()


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


def test_an_inadmissible_integral_demo_exits_two(capsys, monkeypatch):
    # the demo's instance under the zero-width corridor at m, which its f
    # (lifted above m on the constant member) leaves
    build = integral.integral_instance

    def at_m(f, fns, grid, cx, *rest):
        return build(f, fns, grid, ScalarCorridor(cx.lo, cx.lo, real_mode=True), *rest)

    monkeypatch.setattr(integral, "integral_instance", at_m)
    rc, out, err = run(capsys, "integral-demo", "--family", "trig")
    assert (rc, out) == (2, "")
    assert err.startswith("inadmissible: ")


def test_integral_demo_coarse_grid_fails(capsys):
    rc, _, err = run(capsys, "integral-demo", "--family", "trig", "--nodes", "3")
    assert rc == 1
    assert "residual" in err


def test_loose_tolerance_admits(capsys, inadmissible):
    rc, _, _ = run(
        capsys, "check", "--instance", inadmissible, "--bound", "cor2.3",
        "--tolerance", "1e6",  # absurdly loose: everything holds
    )
    assert rc == 0


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_tolerance_must_be_positive_and_finite(capsys, value):
    check = ("check", "--instance", str(DATA / "cor23_construction.json"), "--bound", "cor2.3")
    rc, out, err = run(capsys, *check, f"--tolerance={value}")
    assert (rc, out) == (1, "")
    assert "--tolerance: tolerance must be positive and finite" in err


_SHIPPED = ("--instance", "data/cor23_construction.json")


@pytest.mark.parametrize("argv, usage, message", [
    (("check", *_SHIPPED), "orthobound check",
     "the following arguments are required: --bound"),
    (("check", *_SHIPPED, "--bound", "cor2.3", "--tolerance", "abc"), "orthobound check",
     "argument --tolerance: invalid float value: 'abc'"),
    (("check", *_SHIPPED, "--bound", "cor2.3", "--force"), "orthobound",
     "unrecognized arguments: --force"),
    (("fuzz", "--count", "x"), "orthobound fuzz", "argument --count: invalid int value: 'x'"),
    (("sweep", "--target", "cor23", "--eps", "0.5,abc", "--out", "x.csv"), "orthobound sweep",
     "argument --eps: expected comma-separated numbers"),
    ((), "orthobound", "the following arguments are required: command"),
], ids=["no-bound", "bad-tolerance", "force", "bad-count", "bad-eps", "bare"])
def test_argument_errors_exit_one(capsys, argv, usage, message):
    # exit 2 is reserved for an inadmissible instance
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err.startswith(f"usage: {usage} ")
    assert err.endswith(f"{usage}: error: {message}\n")


@pytest.mark.parametrize("argv", [("--help",), ("check", "--help")])
def test_help_exits_zero(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert out.startswith("usage: orthobound")


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


def _nudged_sqrt(monkeypatch):
    """Patch the step of thm1.1 to raise its refined value by 2^-20
    relative; the unpatched step."""
    original = bounds._REFINED_SQRT

    def nudged(pair):
        lhs, refined, outer = original.values(pair)
        return lhs, refined * (1 + 2**-20), outer

    monkeypatch.setattr(bounds, "_REFINED_SQRT", original._replace(values=nudged))
    return original


def test_a_patched_bound_reaches_the_witness_search_and_check_alike(
    capsys, tmp_path, monkeypatch
):
    # both run thm1.1 through the catalog, which looks the step up at call time
    original = _nudged_sqrt(monkeypatch)
    witness = bound_comparison_search(7, 10_000).sqrt_tighter
    args = [witness.instance[field] for field in KINDS["pair"].fields]
    unpatched = original(*bounds._one(KINDS["pair"].build, *args)).values[1]
    assert witness.refined_sqrt == unpatched * (1 + 2**-20) != unpatched
    path = write_instance(tmp_path, jsonio.instance_to_json(witness.instance))
    rc, out, _ = run(capsys, "check", "--instance", path, "--bound", "thm1.1")
    assert (rc, json.loads(out)["chains"]["main"]["values"][1]) == (0, witness.refined_sqrt)
    monkeypatch.undo()
    rc, out, _ = run(capsys, "check", "--instance", path, "--bound", "thm1.1")
    assert (rc, json.loads(out)["chains"]["main"]["values"][1]) == (0, unpatched)


def test_witnesses_budget_too_small(capsys, tmp_path):
    rc, _, err = run(capsys, "witnesses", "--trials", "1", "--out", str(tmp_path / "w.json"))
    assert rc == 1
    assert "error" in err


def test_witnesses_rejects_a_negative_budget(capsys, tmp_path):
    # malformed input, not a search that found nothing
    out_json = tmp_path / "w.json"
    rc, out, err = run(capsys, "witnesses", "--trials", "-3", "--out", str(out_json))
    assert (rc, out) == (1, "")
    assert "trials must be nonnegative, got -3" in err
    assert not out_json.exists()
    with pytest.raises(ValueError, match="^trials must be nonnegative, got -3$"):
        bound_comparison_search(7, -3)


def run_fresh_main(*argv: str) -> tuple[int, list[str]]:
    """``python -m orthobound *argv`` in a fresh interpreter at the repository
    root, with this checkout's package importable: its exit code and the
    modules it loaded."""
    code = (
        "import json, runpy, sys\n"
        f"sys.argv = ['orthobound', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('orthobound', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    json.dump([exc.code, sorted(sys.modules)], sys.stderr)\n"
    )
    src = Path(orthobound.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stderr.splitlines()[-1])
    return rc, modules


def test_check_loads_only_the_modules_it_runs():
    rc, modules = run_fresh_main(
        "check", "--instance", "data/cor23_construction.json", "--bound", "cor2.3"
    )
    assert rc == 0
    assert "orthobound.bounds" in modules
    unused = ("orthobound.experiments", "orthobound.fuzz", "orthobound.integral",
              "numpy.random")
    assert [m for m in modules if m in unused] == []


@pytest.mark.parametrize("engine, argv", [
    ("orthobound.fuzz", ("fuzz", "--seed", "1", "--count", "20")),
    ("orthobound.experiments",
     ("sweep", "--target", "cor23", "--eps", "0.1", "--out", "{tmp}/s.csv")),
    ("orthobound.experiments", ("witnesses", "--out", "{tmp}/w.json")),
    ("orthobound.integral", ("integral-demo", "--family", "trig")),
], ids=["fuzz", "sweep", "witnesses", "integral-demo"])
def test_commands_load_their_engines_when_run(tmp_path, engine, argv):
    rc, modules = run_fresh_main(*(a.format(tmp=tmp_path) for a in argv))
    assert rc == 0
    assert engine in modules


# Every name the package exported before its engines were loaded on first use.
PACKAGE_NAMES = {
    "admissibility": ("CorridorSpec", "HypothesisReport", "ScalarCorridor",
                      "admissible_point", "check_hypothesis"),
    "bounds": ("BoundChain", "MFactor", "SchwarzCounterparts", "bessel_counterpart",
               "bessel_defect", "companion_bound", "gruss_bound", "gruss_defect",
               "gruss_refined_midpoint", "gruss_refined_sqrt", "m_factor",
               "norm_bound_linear", "norm_bound_quadratic", "schwarz_counterparts",
               "schwarz_step", "single_vector_ratio_chain"),
    "errors": ("BadEpsilon", "BadExponent", "BadLambda", "ChainViolated",
               "DimensionMismatch", "EmptyFamily", "FloatRangeExceeded",
               "GramResidualExceeded", "HypothesisFailed", "IdentityViolation",
               "InstanceFormatError", "NonfiniteCorridor", "NonpositiveReSum",
               "OrthoboundError", "SandwichViolated", "WitnessNotFound", "ZeroVector"),
    "experiments": ("ComparisonResult", "EqualityCaseReport", "SweepRow",
                    "bound_comparison_search", "equality_cases", "sharpness_sweep"),
    "family": ("OrthonormalFamily", "random_family", "validate_family"),
    "fuzz": ("FuzzConfig", "FuzzSummary", "run_fuzz"),
    "integral": ("IntegralInstance", "SandwichReport", "integral_instance", "sandwich_check"),
    "space": ("QuadratureGrid", "SampledFunction", "Scalar", "Vector", "embed",
              "gauss_legendre_grid", "grid_inner", "inner", "norm", "norm_sq", "tree_sum"),
}


@pytest.mark.parametrize("module", sorted(PACKAGE_NAMES))
def test_package_names_are_the_objects_their_modules_define(module):
    defining = importlib.import_module(f"orthobound.{module}")
    for name in PACKAGE_NAMES[module]:
        namespace: dict = {}
        exec(f"from orthobound import {name}", namespace)
        assert namespace[name] is getattr(defining, name), name
        assert name in dir(orthobound)


def test_a_misspelt_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'run_fuz'"):
        orthobound.run_fuz
    with pytest.raises(ImportError):
        exec("from orthobound import run_fuz", {})


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
        # x for the one-member family {y/||y||} and the corridor (delta, Delta) ||y||
        ny = norm(v.y)
        unit = validate_family([Vector(v.y.coords / ny, v.y.real_mode)], tolerance=1e-12)
        real = v.x.real_mode and v.y.real_mode and v.delta.imag == 0.0 == v.Delta.imag
        corridor = ScalarCorridor([v.delta * ny], [v.Delta * ny], real_mode=real)
        return {"x": check_hypothesis(v.x, unit, corridor)}
    if bound == "thm4.1:0.5":
        z = Vector(0.5 * v.x.coords + 0.5 * v.y.coords, real_mode=v.x.real_mode and v.y.real_mode)
        return {"combined": check_hypothesis(z, v.fam, v.cx)}
    reports = {"x": check_hypothesis(v.x, v.fam, v.cx)}
    if bound in ("thm1.1", "thm2", "thm3.1", "cor3.3"):
        reports["y"] = check_hypothesis(v.y, v.fam, v.cy)
    return reports


@pytest.mark.parametrize("make", [_plane_instance, _complex_instance])
@pytest.mark.parametrize("bound", sorted(REFERENCE))
def test_check_equals_public_api(capsys, tmp_path, monkeypatch, bound, make):
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
    assert all(c.all_hold for c in chains.values())
    kernel, calls = admissibility._hypothesis, []
    monkeypatch.setattr(admissibility, "_hypothesis", lambda *a: calls.append(a) or kernel(*a))
    rc, out, _ = run(capsys, "check", "--instance", write_instance(tmp_path, data),
                     "--bound", bound)
    assert (rc, json.loads(out)) == (0, expected)
    assert ("ratio_form" in chains) == (bound == "cor3.3" and make is _plane_instance)
    # one hypothesis kernel per (vector, corridor) slot: the instance is built
    # once, whatever number of chains its selector runs
    assert len(calls) == len(reports)


# Per selector: the vector that lies far outside its corridor ball, and the
# report that then fails (the other vector, where there is one, is admissible).
_FAR_SLOT = {
    **dict.fromkeys(("thm2.1", "eq2.6", "eq2.11:max", "eq2.11:sum", "eq2.11:holder:3",
                     "cor2.3", "cor2.5"), ("x", "x")),
    **dict.fromkeys(("thm1.1", "thm2", "thm3.1", "cor3.3"), ("y", "y")),
    "thm4.1:0.5": ("y", "combined"),
}
# the name HypothesisFailed gives each report
_WHICH = {"x": "x", "y": "y", "combined": "lam*x + (1-lam)*y"}


@pytest.mark.parametrize("bound", sorted(REFERENCE))
def test_check_inadmissible_names_the_failing_slot(capsys, tmp_path, bound):
    far, slot = _FAR_SLOT[bound]
    data = {**_plane_instance(), far: [[50.0, 0.0], [-50.0, 0.0]]}
    v = _decode(data)
    reports = _reference_reports(bound, v)
    assert [k for k, r in reports.items() if not r.holds] == [slot]
    with pytest.raises(HypothesisFailed) as exc:
        REFERENCE[bound](v)
    assert exc.value.which == _WHICH[slot]
    rc, out, _ = run(capsys, "check", "--instance", write_instance(tmp_path, data),
                     "--bound", bound)
    expected = {
        "bound": bound,
        "hypothesis_failed": _WHICH[slot],
        "report": jsonio.report_to_json(reports[slot]),
    }
    assert (rc, json.loads(out)) == (2, expected)


# x = 5 over the family {1} under the corridor (-1, 1), whose Re-sum is -1,
# and y the same; Corollary 2.5's (delta, Delta) = (-1, 1) around y = 1
_NONPOSITIVE = {"family": {"members": [[1.0]]}, "x": [5.0], "phi": [-1.0], "Phi": [1.0],
                "y": [5.0], "gamma": [-1.0], "Gamma": [1.0]}
_NONPOSITIVE_SCHWARZ = {"x": [5.0], "y": [1.0], "delta": -1.0, "Delta": 1.0}


@pytest.mark.parametrize("bound", sorted(REFERENCE))
def test_an_inadmissible_instance_exits_two_whatever_its_re_sum(capsys, tmp_path, bound):
    # every bound admits its hypothesis before it asks for a positive Re-sum
    data = _NONPOSITIVE_SCHWARZ if bound == "cor2.5" else _NONPOSITIVE
    rc, out, err = run(capsys, "check", "--instance", write_instance(tmp_path, data),
                       "--bound", bound)
    payload = json.loads(out)
    assert (rc, err, payload["report"]["holds"]) == (2, "", False)
    assert payload["hypothesis_failed"] == _WHICH["combined" if bound == "thm4.1:0.5" else "x"]


# Admissible instances whose chains overflow: ||x||^2 ||y||^2 = 1e400 in
# Corollary 2.5's squared chains, and 16 lam (1 - lam) = 1.6e-309 under
# Theorem 4.1's bound on the plane
_OVERFLOWS = {
    "cor2.5": ({"x": [1e100, 0.0], "y": [1e100, 0.0], "delta": 0.5, "Delta": 2.0},
               "||x||^2 ||y||^2 <= squared corridor bound", "(inf, inf)"),
    "thm4.1:1e-310": (_plane_instance(), "Re(defect) <= companion bound",
                      "(8.881784197001252e-16, inf)"),
}


@pytest.mark.parametrize("bound", sorted(_OVERFLOWS))
def test_a_chain_that_overflows_is_a_typed_error(capsys, tmp_path, bound):
    data, labels, values = _OVERFLOWS[bound]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(capsys, "check", "--instance", write_instance(tmp_path, data),
                           "--bound", bound)
    message = f"the chain {labels} overflows the float range: {values}"
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    assert [str(w.message) for w in caught] == []
    v = _decode({**_plane_instance(), **data})  # the public API raises the same error
    with pytest.raises(FloatRangeExceeded) as exc:
        if bound == "cor2.5":
            schwarz_counterparts(v.x, v.y, v.delta, v.Delta)
        else:
            companion_bound(v.x, v.y, v.fam, v.cx, 1e-310)
    assert str(exc.value) == message


def _strict(name):
    raise ValueError(f"{name} is not JSON")


def test_a_ratio_beyond_the_float_range_is_left_out(capsys, tmp_path):
    # finite values, the defect 8.8e-13 over the bound 2.8e-321: their ratio
    # overflows, and stdout stays strict JSON
    data = {"family": {"members": [[1.0, 0.0]]}, "x": [1.5e-160, 9.4e-7],
            "phi": [1e-160], "Phi": [2e-160]}
    rc, out, _ = run(capsys, "check", "--instance", write_instance(tmp_path, data),
                     "--bound", "cor2.3")
    chain = json.loads(out, parse_constant=_strict)["chains"]["main"]
    assert rc == 0 and "ratio" not in chain
    assert chain["values"][1] / chain["values"][2] == math.inf
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._emit({"ratio": math.inf})


def test_the_shipped_construction_is_the_sweeps_plane():
    data = json.loads((DATA / "cor23_construction.json").read_text())
    shipped = jsonio.instance_from_json(data)
    built = experiments._construction("cor23", 1.0 - 0.1, 1.0 + 0.1)
    assert shipped["family"].matrix.tobytes() == built["family"].matrix.tobytes()
    assert shipped["x"].coords.tobytes() == built["x"].coords.tobytes()
    for side in ("lo", "hi"):
        got, want = getattr(shipped["phi/Phi"], side), getattr(built["phi/Phi"], side)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("eps", [0.5, 0.01])
@pytest.mark.parametrize("target", sorted(SWEEP_TARGETS))
def test_every_construction_is_a_check_ready_file(capsys, tmp_path, target, eps):
    """Each sweep's instance, written as an instance file: check gives the
    chains the sweep evaluates, bit for bit."""
    inst = experiments._construction(target, 1.0 - eps, 1.0 + eps)
    path = write_instance(tmp_path, jsonio.instance_to_json(inst))
    for bound in SWEEP_TARGETS[target]:
        rc, out, err = run(capsys, "check", "--instance", path, "--bound", bound)
        assert (rc, err) == (0, "")
        got = [v.hex() for v in json.loads(out)["chains"]["main"]["values"]]
        assert got == [v.hex() for v in catalog.evaluate(bound, inst)["main"].values], bound


def test_evaluate_names_the_fields_a_selector_reads_that_an_instance_lacks():
    x = Vector([1.0], real_mode=True)
    with pytest.raises(orthobound.InstanceFormatError,
                       match=r"^family,phi/Phi: required by bound selector 'cor2.3'$"):
        catalog.evaluate("cor2.3", {"x": x})


def _row_fields(kind, inst, row, real):
    """Row ``row`` of an instance a campaign drew, as the fields of its kind."""

    def vector(slot):
        return Vector(slot.coords[row], real_mode=real)

    def family(slot):
        return validate_family([Vector(e, real_mode=real) for e in slot.matrix[row]])

    def corridor(slot):
        return ScalarCorridor(slot.corridor.lo[row], slot.corridor.hi[row], real_mode=real)

    if kind == "x":
        values = (vector(inst), family(inst), corridor(inst))
    elif kind == "schwarz":
        ends = inst.y.corridor
        values = (vector(inst.x), vector(inst.y), ends.lo[row, 0], ends.hi[row, 0])
    else:  # a pair; Theorem 4.1's corridor is the one of its combination z
        corridors = (inst.z,) if kind == "companion" else (inst.x, inst.y)
        values = (vector(inst.x), vector(inst.y), family(inst.x), *map(corridor, corridors))
    return dict(zip(KINDS[kind].fields, values))


@pytest.mark.parametrize("mode", ["complex", "real"])
@pytest.mark.parametrize("seed", [202, 203])
def test_a_campaign_instance_survives_the_file_format(capsys, tmp_path, monkeypatch, seed, mode):
    """Every instance of the first 20 bundles, written as an instance file:
    check gives the chain values the campaign recorded, bit for bit."""
    config = FuzzConfig(seed=seed, count=20, mode=mode)
    drawn = {}
    draw = fuzz._Evaluation.drawn

    def keep(self, kind, tail=None, params=None):
        drawn[kind, tail] = draw(self, kind, tail, params)
        return drawn[kind, tail]

    monkeypatch.setattr(fuzz._Evaluation, "drawn", keep)
    ((_, _, records),) = fuzz._chunks(config)
    recorded = {
        (key, trial): [float(v).hex() for v in row]
        for key, trials, values in records for trial, row in zip(trials.tolist(), values)
    }
    compared = 0
    for key, entry, tail in catalog.campaign_keys():
        if KINDS[entry.kind].fields is None:
            continue
        live, inst = drawn[entry.kind, tail]
        for trial in np.flatnonzero(live).tolist():
            fields = _row_fields(entry.kind, inst, trial, mode == "real")
            path = write_instance(tmp_path, jsonio.instance_to_json(fields))
            rc, out, err = run(capsys, "check", "--instance", path, "--bound", key)
            assert (rc, err) == (0, ""), (key, trial)
            chains = {}
            for name, chain in json.loads(out)["chains"].items():
                suffix = {"main": "", "ratio_form": "ratio"}.get(name, name)
                chains[f"{key}:{suffix}" if suffix else key] = [v.hex() for v in chain["values"]]
            expected = {k: v for (k, t), v in recorded.items() if t == trial
                        and (k == key or k.startswith(key + ":"))}
            assert chains == expected, (key, trial)
            compared += len(chains)
    # at these seeds every bundle is live for every key and defines the ratio
    # form: 12 keys of one chain, cor2.5's four and cor3.3's two
    assert compared == 20 * 18


def test_readme_selector_table_matches_the_catalog():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Bound selectors", 1)[1].split("\n### ", 1)[0]
    listed = re.findall(r"^\| `([^`]+)`", section, flags=re.MULTILINE)
    names = {sel.partition(":")[0] for sel in listed}
    assert names == set(SELECTORS)
    for sel in listed:
        name, colon, _ = sel.partition(":")
        assert bool(colon) == (SELECTORS[name].params is not None), sel


def test_readme_kind_table_matches_the_catalog():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Instance files", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `([^`|]+)` +\|([^|]*)\|([^|]*)\|$", section, flags=re.MULTILINE)
    assert [kind for kind, _, _ in rows] == list(KINDS)
    for kind, selectors, fields in rows:
        assert re.findall(r"`([^`]+)`", selectors) == [
            name for name, entry in SELECTORS.items() if entry.kind == kind
        ], kind
        assert re.findall(r"`([^`]+)`", fields) == [
            key for field in KINDS[kind].fields or () for key in field.split("/")
        ], kind
