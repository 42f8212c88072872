"""Smoke test of the benchmark harness at a tiny size.

    python -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {
    "fuzz-campaign": lambda seed: workloads.FuzzCampaign(seed, bundles=3, pool_size=2),
    "hypothesis-screen": lambda seed: workloads.HypothesisScreen(seed, pool_size=16),
    "cli-check": lambda seed: workloads.CliCheck(seed),
    "quadrature-large": lambda seed: workloads.QuadratureLarge(
        seed, nodes=64, members=4, pool_size=2
    ),
}
LAYER_METRICS = run.layer_metrics(name for name, _, _ in workloads.TRACED)


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    result, record = run.measure(TINY[name](3), 0.05, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = LAYER_METRICS if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(isinstance(v, float) and math.isfinite(v) for v in values.values())
    assert record["digest"] and record["error_ratio"] == 0.0
    if not trace:
        assert all(v > 0.0 for v in values.values())
        return
    details = record["details"]
    assert details["span_nesting_errors"] == 0
    assert all(ns >= 0 for ns in details["self_ns"].values())
    assert all(values[k] >= 0.0 for k in values if k.endswith((".self_share", ".calls_per_item")))
    assert (tmp_path / f"{name}-seed3-trace1.spans.npz").is_file()


def test_traced_and_untraced_runs_share_the_digest(tmp_path):
    first, _ = run.measure(TINY["hypothesis-screen"](5), 0.02, False, tmp_path)
    digests = [
        run.measure(TINY["hypothesis-screen"](5), 0.02, trace, tmp_path)[1]["digest"]
        for trace in (False, True)
    ]
    other = run.measure(TINY["hypothesis-screen"](6), 0.02, False, tmp_path)[1]["digest"]
    assert digests[0] == digests[1] != other


def test_meter_samples_the_kernel_and_scales_to_reference_speed():
    with hostspeed.Meter() as meter:
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
    count = len(meter.reps)
    assert count >= hostspeed.MIN_REPS and meter.spent > sum(meter.reps)
    time.sleep(0.01)
    assert len(meter.reps) == count  # the timer is off once the meter exits
    meter.reps[:] = [2 * hostspeed.REF_NS] * hostspeed.MIN_REPS
    assert meter.scale(0) == 0.5


def test_untraced_record_keeps_wall_clock_figures(tmp_path):
    result, record = run.measure(TINY["hypothesis-screen"](3), 0.2, False, tmp_path)
    details = record["details"]
    assert details["wall_items_per_s"] > 0.0 and details["wall_latency_p50_ms"] > 0.0
    assert len(record["setup_wall_s_reps"]) == len(record["setup_s_reps"]) == run.SETUP_REPS
    assert details["host_scale_blocks"] >= 1
    assert all(f > 0.0 for f in details["host_scale_quartiles"])


def test_spans_nest_within_their_op():
    wl = TINY["fuzz-campaign"](7)
    wl.setup()
    tracer = Tracer(workloads.TRACED)
    tracer.install()
    try:
        for j, inp in enumerate(wl.pool):
            root = tracer.begin_op(j)
            wl.op(wl.prepare(inp))
            tracer.end_op(root)
    finally:
        tracer.uninstall()
    a = tracer.arrays()
    roots = {int(a["op"][i]): i for i in range(a["name"].size) if a["name"][i] == 0}
    assert len(roots) == len(wl.pool)
    for i in range(a["name"].size):
        r = roots[int(a["op"][i])]
        assert a["start"][r] <= a["start"][i] <= a["end"][i] <= a["end"][r]
    assert tracer.nesting_errors() == 0
    totals = tracer.totals()
    assert totals["space.tree_sum"][0] > 0
    assert all(own >= 0 for _, _, own in totals.values())


def test_uninstall_restores_every_binding():
    from orthobound import bounds, family, space

    before = (space.tree_sum, bounds.tree_sum, family.random_family,
              space.Vector.__init__, family.OrthonormalFamily.coefficients)
    tracer = Tracer(workloads.TRACED)
    tracer.install()
    assert bounds.tree_sum is not before[1] and space.tree_sum is not before[0]
    tracer.uninstall()
    after = (space.tree_sum, bounds.tree_sum, family.random_family,
             space.Vector.__init__, family.OrthonormalFamily.coefficients)
    assert all(a is b for a, b in zip(after, before))


def test_checks_reject_wrong_outputs():
    screen = TINY["hypothesis-screen"](9)
    screen.setup()
    inp = screen.pool[1]
    fam, corr, x, rep = screen.op(screen.prepare(inp))
    screen.check(inp, (fam, corr, x, rep))
    bad = dataclasses.replace(rep, cond_i_value=rep.cond_i_value + 1.0)
    with pytest.raises(workloads.CheckFailed):
        screen.check(inp, (fam, corr, x, bad))

    campaign = TINY["fuzz-campaign"](9)
    campaign.setup()
    summary = campaign.op(campaign.pool[0])
    summary.violations.append({"selector": "thm2.1", "trial": 0, "values": [1.0, 0.5]})
    with pytest.raises(workloads.CheckFailed):
        campaign.check(campaign.pool[0], summary)
