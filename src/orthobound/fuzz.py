"""Seeded fuzz campaigns running every bound on random admissible instances.

One "bundle" (trial) draws a family plus admissible vectors and corridors for
each kind of bound and evaluates the selected chains. The selectors, their
campaign parameters and the kernel of each chain come from the catalog,
:data:`orthobound.catalog.SELECTORS`; each entry names the kind of instance
it reads (``x``, ``pair``, ``companion``, ``schwarz``, ``single`` or
``free``, :data:`orthobound.catalog.KINDS`), which a chunk draws when a
selected entry first reads it. Corridors whose re_sum fails to be positive
are rejected and counted, never silently repaired. Disjoint seeds give
independent shards.

The stream. A campaign draws from one ``PCG64(seed)`` stream, as
``np.random.default_rng(seed)`` makes it, and only uniforms in [0, 1):
``Generator.random`` takes exactly one 64-bit output per double. Every
bundle takes a fixed stride of S of them, so bundle k owns outputs
[kS, (k+1)S), and its draws are those of ``PCG64(seed).advance(k * S)``.
A static layout (:func:`layout`) gives each draw site of a bundle
(families, corridors, slacks, point directions, free vectors) its columns
of the row. It depends only on ``mode``, ``dim`` and ``family_size``, never
on the selectors or on a rejection: a site that is not used leaves its
columns unread. With the defaults S = 404, 304 of them for Gaussians.
Those come first, their count rounded up to even, and Box-Muller
(:func:`_box_muller`) turns them into as many standard normals. A slack is
one uniform as drawn; corridor parts are mapped to their ranges by the
arithmetic of :meth:`CorridorSpec.sample`.

A campaign runs in chunks of ``CHUNK`` bundles, each in two phases:

* Draw (:func:`draw`). One ``rng.random((n, S))`` call fills a row per
  bundle, and its Gaussian columns become normals.
* Evaluate (:func:`evaluate`). Families (one stacked QR), corridors and
  admissible points come from the draws over the leading bundle axis; each
  kind's builder in :mod:`orthobound.bounds`, which the scalar API runs on a
  batch of one, admits its instance from them once per bundle, and each
  selected chain's kernel runs on it. Every array keeps one row per bundle;
  a mask per instance picks the bundles whose corridors were accepted,
  which alone are checked, counted and recorded.

Contract: a fixed seed fixes every draw, every chain value (bitwise equal
to what the public scalar functions give on the same instance) and the
summary, including the order of its violations and keys; a bundle replayed
alone from (seed, trial) gives the values it gives within its campaign. A
campaign that fails raises the error that evaluating its bundles one at a
time, in order, would raise first. This holds by construction: a draw is
checked by the batched rules of the modules that own its types, and an
instance by its kind's builder, which the public functions run on a batch of
one; the chunk only registers each rule, in bundle order, and raises its
first failure through that rule's own error builder. The bits hold within
one numpy build and CPU dispatch:
Box-Muller uses numpy's SIMD ``log1p``, ``cos`` and ``sin``, which may round
differently on another instruction set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import bounds
from .admissibility import DEFAULT_HYPOTHESIS_TOL, CorridorSpec, Corridors, _admissible_points
from .bounds import Pair, _chain_holds, _chain_slacks
from .catalog import SELECTORS, Selector, campaign_keys
from .family import DEFAULT_TOLERANCE, _check_size, _gram_check, _orthonormal_rows
from .space import _nonfinite

# Every selector key a campaign can run, in the order a bundle records them.
ALL_SELECTORS = tuple(key for key, _, _ in campaign_keys())

# Trials drawn and evaluated together; bounds the memory of a campaign.
CHUNK = 1024

_GAUSS, _UNIT = 0, 1  # the two kinds of draws


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
        """The corridor recipe: ``corridor``, which must be of ``mode``, else
        the default of ``mode``."""
        default = CorridorSpec(mode=self.mode)  # rejects an unknown mode
        if self.corridor is None:
            return default
        if self.corridor.mode != self.mode:
            raise ValueError(
                f"corridor mode {self.corridor.mode!r} differs from fuzz mode {self.mode!r}"
            )
        return self.corridor


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
    config.spec()  # a bad corridor mode fails even a campaign of no bundles
    rng = np.random.default_rng(config.seed)
    for start in range(0, config.count, CHUNK):
        yield _chunk(config, rng, range(start, min(start + CHUNK, config.count)))


def _chunk(config: FuzzConfig, rng: np.random.Generator, trials: range):
    """Draw ``trials`` from ``rng``, positioned at the first trial's row, and
    evaluate them; returns what :func:`evaluate` returns."""
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


def _sites(config: FuzzConfig):
    """The draw sites of a bundle in bundle order: a name, then its pieces
    as (kind, shape). A point draws a slack, then a direction."""
    parts = config.spec()._parts
    d, k = config.dim, config.family_size
    real = config.mode == "real"
    vec = (_GAUSS, (d,) if real else (2 * d,))  # a random vector or a point's direction
    slack = (_UNIT, ())

    def family(count):
        return (_GAUSS, (d, count) if real else (2, d, count))

    def corridor(count):
        return (_UNIT, (parts, count))

    yield "fam", family(k)
    yield "cx", corridor(k)
    yield "cy", corridor(k)
    yield "x", slack, vec
    yield "y", slack, vec
    for tail in (t for e in SELECTORS.values() if e.kind == "companion" for t in e.tails):
        yield f"cz{tail}", corridor(k)
        yield f"z{tail}", slack, vec, vec  # z, then the free x
    yield "yv", vec
    yield "c25", corridor(1)
    yield "xs", slack, vec
    yield "f1", family(1)
    yield "c1", corridor(1)
    yield "c2", corridor(1)
    yield "p1", slack, vec
    yield "p2", slack, vec
    yield "xr", vec, vec


def layout(config: FuzzConfig) -> tuple[dict, int, int]:
    """Where each site of a bundle lies in its row of uniforms.

    Returns the sites by name, each a list of (kind, start, stop, shape)
    column ranges into its kind's block; the Gaussian block's width G,
    rounded up to even for Box-Muller; and the stride S = G + the uniform
    block's width. Every site is placed whatever the selectors and whatever
    is rejected, so bundle k owns outputs [kS, (k+1)S) of the stream.
    """
    cols, table = [0, 0], {}
    for name, *pieces in _sites(config):
        placed = table[name] = []
        for kind, shape in pieces:
            start = cols[kind]
            cols[kind] += math.prod(shape)
            placed.append((kind, start, cols[kind], shape))
    gauss = cols[_GAUSS] + cols[_GAUSS] % 2
    return table, gauss, gauss + cols[_UNIT]


def draw(config: FuzzConfig, rng: np.random.Generator, n: int) -> dict:
    """Draw ``n`` bundles by one generator call: a row of S uniforms each.

    Returns every site by name as a tuple of arrays, one per piece, with a
    row per bundle. :func:`_box_muller` turns the row's first G uniforms into
    Gaussians; corridor parts and slacks stay raw in [0, 1).
    """
    table, gauss, stride = layout(config)
    u = rng.random((n, stride))
    _box_muller(u[:, :gauss])
    blocks = (u[:, :gauss], u[:, gauss:])
    return {
        name: tuple(blocks[kind][:, a:b].reshape((n,) + shape) for kind, a, b, shape in pieces)
        for name, pieces in table.items()
    }


def _box_muller(u: np.ndarray) -> None:
    """Turn an even number of uniforms in [0, 1) per row into as many
    standard normals, in place: the first half give the radii
    sqrt(-2 log(1 - u)), the second half the angles 2 pi u, and each pair
    gives its cosine normal, then its sine normal."""
    half = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log1p(-u[..., :half]))
    t = 2.0 * np.pi * u[..., half:]
    np.multiply(r, np.cos(t), out=u[..., :half])
    np.multiply(r, np.sin(t), out=u[..., half:])


def evaluate(config: FuzzConfig, trials: range, sites: dict):
    """Evaluate one chunk of draws, a row per bundle in every array.

    Each instance comes with the mask ``live`` of the bundles that would
    evaluate it alone; the kernels are row-independent, so the other rows
    are computed and ignored. Returns (evaluated, rejected, records) with
    one record (key, trials, values) per recorded chain, in the order a
    bundle records them. A corridor counts as rejected where a bundle
    evaluated alone would draw it: the x and y corridors always, the others
    of the selected chains only when those two are accepted. Raises the
    chunk's first error.
    """
    e = _Evaluation(config, np.asarray(trials), sites)
    every = np.ones(len(e.trials), dtype=bool)
    e.fam = e.families(every, *sites["fam"])
    (cx, x_ok), (cy, y_ok) = (e.corridor(every, *sites[c]) for c in ("cx", "cy"))
    e.live = x_ok & y_ok
    e.xy = [(e.point(e.live, e.fam, c, *sites[v]), c) for v, c in (("x", cx), ("y", cy))]
    want = set(config.selectors)
    for key, entry, tail in campaign_keys():
        if key in want:
            e.run(key, entry, tail)
    if e.first is not None:
        _, error, row = e.first
        raise error(row)
    return int(e.live.sum()), e.rejected, e.records


class _Evaluation:
    """What the evaluation of one chunk shares: its trials and draws, the
    family and admissible pair of each bundle with the mask ``live`` of
    those whose x and y corridors were accepted, the instances built from
    them, its rejected corridors, its chain records, and its first failed
    check in bundle order (by trial, then by the order of registration)."""

    def __init__(self, config: FuzzConfig, trials: np.ndarray, sites: dict):
        self.spec = config.spec()
        self.d = config.dim
        self.real = config.mode == "real"
        self.trials = trials
        self.sites = sites
        self.instances: dict = {}
        self.rejected = 0
        self.records: list = []
        self.step = 0
        self.first = None

    def check(self, live: np.ndarray, failed: np.ndarray, error) -> None:
        """Register one rule on the ``live`` rows, as its owner returns it:
        the mask of failed rows and ``error(row)``, which builds (or raises)
        the exception of one; only the chunk's first is built."""
        self.step += 1
        if failed is False:  # an argument rule that holds for the whole chunk
            return
        rows = np.flatnonzero(failed & live)
        if rows.size:
            key = (int(self.trials[rows[0]]), self.step)
            if self.first is None or key < self.first[0]:
                self.first = (key, error, rows[0])

    def build(self, live: np.ndarray, build, *fields, **params):
        """(live, instance): a builder's instance of fields drawn for ``live``."""
        return live, build(partial(self.check, live), *fields, DEFAULT_HYPOTHESIS_TOL, **params)[0]

    def run(self, key: str, entry: Selector, tail: str | None) -> None:
        """Record the chains of selector ``key`` on the live rows of its instance."""
        params = entry.params(key, tail) if tail else {}
        live, inst = self.drawn(entry.kind, tail, params)
        if not live.any():
            return
        for chain in entry.chains:
            values = getattr(bounds, chain.step).values(inst, **params)
            named = values if chain.name is None else {chain.suffix: values}
            keep = live if chain.when is None else live & chain.when(inst)
            for suffix, v in named.items():
                stacked = np.stack(np.broadcast_arrays(*v), axis=-1)
                record_key = f"{key}:{suffix}" if suffix else key
                self.records.append((record_key, self.trials[keep], stacked[keep]))

    def drawn(self, kind: str, tail: str | None = None, params: dict | None = None):
        """The instance ``kind`` of the chunk as (live, instance). It is
        drawn once, except the companion instance: it is drawn once per
        tail, from that tail's sites, and serves that key alone, so it is
        not kept."""
        if kind == "companion":
            return self._companion(tail, **params)
        if kind not in self.instances:
            self.instances[kind] = getattr(self, f"_{kind}")()
        return self.instances[kind]

    def vectors(self, w: np.ndarray) -> np.ndarray:
        """Random vectors or point directions from their normals, stored
        complex as Vector stores them."""
        d = self.d
        return w.astype(np.complex128) if self.real else w[..., :d] + 1j * w[..., d:]

    def families(self, live: np.ndarray, raw: np.ndarray) -> tuple:
        mats = _orthonormal_rows(raw if self.real else raw[:, 0] + 1j * raw[:, 1])
        res, *rule = _gram_check(mats, DEFAULT_TOLERANCE)
        self.check(live, *rule)
        return np.asarray(mats, dtype=np.complex128), res

    def corridor(self, live: np.ndarray, u: np.ndarray):
        """The corridors drawn as unit uniforms ``u``, checked and counted on
        the ``live`` rows, with the mask of those that stay live: accepted,
        or with an aggregate that is NaN, which the finiteness rule reports."""
        c = Corridors.build(*self.spec._sides(u))
        self.check(live, *c.nonfinite())
        rejected = live & (c.re_sum <= 0.0)
        self.rejected += int(rejected.sum())
        return c, live & ~rejected

    def finite(self, live: np.ndarray, v: np.ndarray) -> np.ndarray:
        self.check(live, *_nonfinite(v))
        return v

    def point(self, live, fam, c, slack, w) -> np.ndarray:
        return self.finite(live, _admissible_points(fam[0], c, self.vectors(w), slack))

    def _x(self):
        """The admissible x of the bundle's family."""
        (x, cx), _ = self.xy
        return self.build(self.live, bounds._x_kind, x, self.fam, cx)

    def _pair(self):
        """The admissible pair (x, y) of the bundle's family; x is the x kind's."""
        live, x = self.drawn("x")
        y, cy = self.xy[1]
        return live, Pair(x, self.build(live, bounds._x_kind, y, self.fam, cy, which="y")[1])

    def _companion(self, tail: str, lam: float):
        """Theorem 4.1 at ``lam``: z admissible, x free, y solved from z."""
        cz, live = self.corridor(self.live, *self.sites[f"cz{tail}"])
        slack, w, xw = self.sites[f"z{tail}"]
        z = self.point(live, self.fam, cz, slack, w)
        xa = self.vectors(xw)
        yb = self.finite(live, (z - lam * xa) / (1.0 - lam))
        return self.build(live, bounds._companion_kind, xa, yb, self.fam, cz, lam=lam)

    def _schwarz(self):
        """Corollary 2.5: y and its corridor (delta, Delta), then x
        admissible in the frame the builder's first half builds of them."""
        ends, live = self.corridor(self.live, *self.sites["c25"])
        y = self.vectors(*self.sites["yv"])
        check = partial(self.check, live)
        frame = bounds._schwarz_y(check, y, ends.lo[..., 0], ends.hi[..., 0])
        _, (unit, _), corridor = frame
        slack, w = self.sites["xs"]
        x = _admissible_points(unit, corridor, self.vectors(w), slack)
        return live, bounds._schwarz_x(check, x, frame, DEFAULT_HYPOTHESIS_TOL)[0]

    def _single(self):
        """Corollary 3.3: a pair over a one-member family."""
        fam = self.families(self.live, *self.sites["f1"])
        (c1, x_ok), (c2, y_ok) = (self.corridor(self.live, *self.sites[c]) for c in ("c1", "c2"))
        live = x_ok & y_ok
        xs = self.point(live, fam, c1, *self.sites["p1"])
        ys = self.point(live, fam, c2, *self.sites["p2"])
        return self.build(live, bounds._pair_kind, xs, ys, fam, c1, c2)

    def _free(self):
        """Two vectors under no corridor."""
        xr, yr = map(self.vectors, self.sites["xr"])
        return self.build(self.live, bounds._free_kind, xr, yr, self.fam)
