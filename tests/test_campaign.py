"""The draw phase of a fuzz campaign: its generator calls, the keys it
records against the selector catalog, and the lazy import that keeps the
engine out of processes that run no campaign."""

import os
import pathlib
import subprocess
import sys

import numpy as np

import orthobound
from orthobound import FuzzConfig, bounds, catalog, fuzz, run_fuzz


class CountingGenerator:
    """A ``Generator`` stand-in that counts calls to its methods."""

    def __init__(self, seed, calls):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.calls = calls

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return counted


def test_draw_makes_one_generator_call_per_chunk(monkeypatch):
    calls = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: CountingGenerator(seed, calls))
    monkeypatch.setattr(fuzz, "CHUNK", 16)
    summary = run_fuzz(FuzzConfig(seed=5, count=50))  # complex, all selectors: four chunks
    assert summary.evaluated == 50
    assert calls == ["random"] * 4


def test_campaign_records_the_catalog_expansion():
    expected = []
    for key, entry, _ in catalog.campaign_keys():
        for chain in entry.chains:
            if chain.name is None:  # the public function returns named chains
                expected += [f"{key}:{name}" for name in bounds._SCHWARZ_LABELS]
            else:
                expected.append(f"{key}:{chain.suffix}" if chain.suffix else key)
    assert list(fuzz.ALL_SELECTORS) == [key for key, _, _ in catalog.campaign_keys()]
    named = ["norm_product", "norm_product_gap", "norm_product_sq", "norm_product_sq_gap"]
    assert {f"cor2.5:{name}" for name in named} | {"cor3.3:ratio"} <= set(expected)
    summary = run_fuzz(FuzzConfig(seed=5, count=50))  # complex, all selectors
    assert list(summary.checked) == expected


def test_importing_the_package_leaves_the_engine_out():
    code = (
        "import sys, orthobound\n"
        "before = 'orthobound.campaign' in sys.modules\n"
        "orthobound.run_fuzz(orthobound.FuzzConfig(count=1))\n"
        "print(before, 'orthobound.campaign' in sys.modules)\n"
    )
    src = pathlib.Path(orthobound.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "True"]
