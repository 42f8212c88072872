"""Seeded fuzz campaigns running every bound on random admissible instances.

One "bundle" (trial) draws a family plus admissible vectors and corridors for
each kind of bound and evaluates the selected chains. Corridors whose re_sum
fails to be positive are rejected and counted, never silently repaired.
Disjoint seeds give independent shards.

A bundle makes its generator calls in this order: the family's Gaussians;
the x and y corridors; if both are accepted, the slack and direction of x,
then of y; per selected thm4.1 lambda, a corridor and, if it is accepted,
the slack and direction of z and a free vector; for cor2.5, a free y and a
one-member corridor and, if accepted, a point; for cor3.3, a one-member
family, two corridors and, if both are accepted, two points; for
bessel-defect and schwarz-step, two free vectors.

A campaign runs in chunks of ``CHUNK`` bundles, each in two phases
(:mod:`orthobound.campaign`):

* Draw. A tight loop makes the chunk's draws in that order and keeps them
  raw; it builds no vector, corridor or chain. Adjacent draws of one kind
  form a run that one generator call fills: ``standard_normal(out=...)``
  for Gaussians, ``random(out=...)`` for uniforms. The generator fills
  arrays element by element, so merged calls give the same values. Each
  run lands in a contiguous slice of one of two buffers, Gaussians and
  uniforms, a row per bundle with columns in draw order. Uniforms stay in
  [0, 1); a slack is one of them as drawn (``uniform()`` is ``random()``),
  and corridor parts are mapped to their ranges in the evaluate phase.
  Without rejections the draw order does not branch, so the loop first
  assumes that no corridor is rejected, and a bundle with every selector
  in complex mode takes 17 calls. If the chunk's corridors prove
  otherwise, the chunk is drawn again from the same generator state with
  runs split at each acceptance test, which sits inside the loop and uses
  the same expression as :class:`ScalarCorridor`, because a rejection
  changes which draws follow.
* Evaluate. Corridor parts are mapped from their unit uniforms with
  ``low + (high - low) * u``, the arithmetic ``Generator.uniform`` does per
  element, so every side equals the side drawn with ``uniform``.
  Families (one stacked QR), corridors, admissible points,
  admissibility reports and every selected chain are computed over the
  leading bundle axis by the kernels the scalar API runs on a batch of one.
  Each (vector, corridor) hypothesis is evaluated once per bundle.

Contract: a fixed seed fixes the generator stream, call for call, and with
it every draw, every chain value (bitwise equal to what the public scalar
functions give on the same instance) and the summary, including the order
of its violations and keys. A campaign that fails raises the error that
evaluating its bundles one at a time, in order, would raise first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .admissibility import CorridorSpec
from .bounds import _chain_holds, _chain_slacks
from .family import _check_size

ALL_SELECTORS = (
    "thm1.1",
    "thm2",
    "thm2.1",
    "eq2.6",
    "eq2.11:max",
    "eq2.11:holder:3",
    "eq2.11:sum",
    "cor2.3",
    "cor2.5",
    "thm3.1",
    "cor3.3",
    "thm4.1:0.1",
    "thm4.1:0.5",
    "thm4.1:0.9",
    "bessel-defect",
    "schwarz-step",
)

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
        unknown = [s for s in self.selectors if s not in ALL_SELECTORS]
        if unknown:
            raise ValueError(f"unknown fuzz selectors: {', '.join(map(repr, unknown))}")

    def spec(self) -> CorridorSpec:
        if self.corridor is not None:
            return self.corridor
        return CorridorSpec(mode=self.mode)


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
    :func:`~orthobound.campaign.evaluate` returns for each."""
    # The engine is the package's largest module; importing it here keeps it
    # out of every process that never runs a campaign.
    from .campaign import draw, evaluate

    config.spec()  # an unknown corridor mode fails even a campaign of no bundles
    if config.count > 0:
        _check_size(config.dim, config.family_size)
    rng = np.random.default_rng(config.seed)
    for start in range(0, config.count, CHUNK):
        trials = range(start, min(start + CHUNK, config.count))
        state = rng.bit_generator.state
        # A failing chunk also evaluates the rows behind its first error, so
        # their overflow would warn about values the error already reports.
        with np.errstate(all="ignore"):
            chunk = evaluate(config, trials, *draw(config, rng, trials, exact=False), False)
            if chunk is None:
                rng.bit_generator.state = state
                chunk = evaluate(config, trials, *draw(config, rng, trials, exact=True), True)
        yield chunk


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
