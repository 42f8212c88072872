"""The draw phase of a fuzz campaign: its generator calls, and the lazy
import that keeps the engine out of processes that run no campaign."""

import os
import pathlib
import subprocess
import sys

import numpy as np

import orthobound
from orthobound import FuzzConfig, fuzz, run_fuzz


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
