"""Seeded fuzz campaigns running every bound on random admissible instances.

One "bundle" (trial) draws a family plus admissible vectors and corridors for
each kind of bound and evaluates the selected chains. The selectors and their
campaign parameters come from the catalog, :data:`orthobound.catalog.SELECTORS`.
Corridors whose re_sum fails to be positive are rejected and counted, never
silently repaired. Disjoint seeds give independent shards.

The stream. A campaign draws from one ``PCG64(seed)`` stream, as
``np.random.default_rng(seed)`` makes it, and only uniforms in [0, 1):
``Generator.random`` takes exactly one 64-bit output per double. Every
bundle takes a fixed stride of S of them, so bundle k owns outputs
[kS, (k+1)S), and its draws are those of ``PCG64(seed).advance(k * S)``.
A static layout (:func:`orthobound.campaign.layout`) gives each draw site
of a bundle (families, corridors, slacks, point directions, free vectors)
its columns of the row. It depends only on ``mode``, ``dim``,
``family_size`` and the corridor mode, never on the selectors or on a
rejection: a site that is not used leaves its columns unread. With the
defaults S = 404, 304 of them for Gaussians. Those come first, their count
rounded up to even, and give as many standard normals by Box-Muller: the
first half are radii sqrt(-2 log1p(-u)), the second half angles 2 pi u,
and each pair gives its cosine normal and its sine normal. A slack is one
uniform as drawn; corridor parts are mapped to their ranges by the
arithmetic of :meth:`CorridorSpec.sample`.

A campaign runs in chunks of ``CHUNK`` bundles, each in two phases
(:mod:`orthobound.campaign`):

* Draw. One ``rng.random((n, S))`` call fills a row per bundle, and
  Box-Muller turns its Gaussian columns into normals.
* Evaluate. Families (one stacked QR), corridors, admissible points,
  admissibility reports and every selected chain are computed over the
  leading bundle axis by the kernels the scalar API runs on a batch of one,
  on the rows whose corridors were accepted. Each (vector, corridor)
  hypothesis is evaluated once per bundle.

Contract: a fixed seed fixes every draw, every chain value (bitwise equal
to what the public scalar functions give on the same instance) and the
summary, including the order of its violations and keys; a bundle replayed
alone from (seed, trial) gives the values it gives within its campaign. A
campaign that fails raises the error that evaluating its bundles one at a
time, in order, would raise first. This holds by construction: each check on
an instance is the batched rule that the scalar constructor applies to a
batch of one, and the chunk raises its first failure through that rule's
own error builder. The bits hold within one numpy build
and CPU dispatch: Box-Muller uses numpy's SIMD ``log1p``, ``cos`` and
``sin``, which may round differently on another instruction set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .admissibility import CorridorSpec
from .bounds import _chain_holds, _chain_slacks
from .catalog import campaign_keys
from .family import _check_size

# Every selector key a campaign can run, in the order a bundle records them.
ALL_SELECTORS = tuple(key for key, _, _ in campaign_keys())

# Trials drawn and evaluated together; bounds the memory of a campaign.
CHUNK = 1024


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 0
    count: int = 1000
    dim: int = 8
    family_size: int = 4
    mode: str = "complex"
    corridor: CorridorSpec | None = None
    selectors: tuple[str, ...] = ALL_SELECTORS

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"fuzz count must be nonnegative, got {self.count}")
        if not self.selectors:
            raise ValueError("fuzz selectors must not be empty")
        unknown = [s for s in self.selectors if s not in ALL_SELECTORS]
        if unknown:
            raise ValueError(f"unknown fuzz selectors: {', '.join(map(repr, unknown))}")
        _check_size(self.dim, self.family_size)

    def spec(self) -> CorridorSpec:
        default = CorridorSpec(mode=self.mode)  # rejects an unknown mode
        return default if self.corridor is None else self.corridor


@dataclass
class FuzzSummary:
    evaluated: int = 0
    rejected: int = 0
    violations: list[dict] = field(default_factory=list)
    min_slack: dict[str, float] = field(default_factory=dict)
    checked: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No violations, and some bundle was evaluated unless none was drawn."""
        return not self.violations and not (self.rejected > 0 and self.evaluated == 0)


def run_fuzz(config: FuzzConfig) -> FuzzSummary:
    """Run ``config.count`` bundles; returns per-selector minimum slacks."""
    summary = FuzzSummary()
    for chunk in _chunks(config):
        _fold(summary, *chunk)
    return summary


def _chunks(config: FuzzConfig):
    """Draw and evaluate the campaign chunk by chunk; yields what
    :func:`_chunk` returns for each."""
    config.spec()  # an unknown corridor mode fails even a campaign of no bundles
    rng = np.random.default_rng(config.seed)
    for start in range(0, config.count, CHUNK):
        yield _chunk(config, rng, range(start, min(start + CHUNK, config.count)))


def _chunk(config: FuzzConfig, rng: np.random.Generator, trials: range):
    """Draw ``trials`` from ``rng``, positioned at the first trial's row, and
    evaluate them; returns what :func:`~orthobound.campaign.evaluate` returns."""
    # The engine is the package's largest module; importing it here keeps it
    # out of every process that never runs a campaign.
    from .campaign import draw, evaluate

    # A failing chunk also evaluates the rows behind its first error, so
    # their overflow would warn about values the error already reports.
    with np.errstate(all="ignore"):
        return evaluate(config, trials, draw(config, rng, len(trials)))


def _fold(summary: FuzzSummary, evaluated: int, rejected: int, records: list) -> None:
    """Add one chunk to the summary in the order of evaluating its bundles one
    at a time: trial by trial, and within a trial in record order."""
    summary.evaluated += evaluated
    summary.rejected += rejected
    new_keys = []
    violations = []
    for pos, (key, trials, values) in enumerate(records):
        if not trials.size:
            continue
        slacks = _chain_slacks(values)
        least = float(slacks.flat[np.argmin(slacks)])
        if key not in summary.checked:
            new_keys.append((int(trials[0]), pos, key, least))
        elif least < summary.min_slack[key]:
            summary.min_slack[key] = least
        summary.checked[key] = summary.checked.get(key, 0) + int(trials.size)
        for row in np.flatnonzero(~_chain_holds(values)):
            violations.append(
                (int(trials[row]), pos, {"selector": key, "trial": int(trials[row]),
                                         "values": [float(v) for v in values[row]]})
            )
    for _, _, key, least in sorted(new_keys):
        summary.checked[key] = summary.checked.pop(key)
        summary.min_slack[key] = least
    summary.violations.extend(v for _, _, v in sorted(violations, key=lambda t: t[:2]))
