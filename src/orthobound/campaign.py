"""One chunk of a fuzz campaign, drawn and then evaluated as a batch.

:func:`layout` places every draw site of a bundle at fixed columns of a row
of uniforms; :func:`draw` fills a row per trial with one generator call and
cuts it into the sites; :func:`evaluate` builds every family, corridor,
admissible point and admissibility report of the chunk at once and runs the
selected chains over the leading trial axis. Every array keeps one row per
bundle; a mask per instance picks the bundles whose corridors were accepted,
which alone are checked, counted and recorded. The selectors, their
parameters and the kernel of each chain come from :mod:`orthobound.catalog`;
each entry names the instance it reads (``x``, ``pair``, ``companion``,
``schwarz``, ``single`` or ``free``), which :class:`_Evaluation` draws when
a selected entry first reads it. Only this module knows the draw sites;
:mod:`orthobound.fuzz` describes the stream. Every check on the drawn
instances is the batched rule of the module that owns the type, the rule its
scalar constructor applies to a batch of one; the chunk only registers each
rule, in bundle order.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .admissibility import DEFAULT_HYPOTHESIS_TOL, Corridors, _admissible_points, _hypothesis
from .bounds import UNIT_TOLERANCE, Pair, Slot, _mix, _schwarz_frame
from .catalog import SELECTORS, Selector, campaign_keys
from .errors import HypothesisFailed
from .family import DEFAULT_TOLERANCE, _gram_check, _orthonormal_rows
from .space import _nonfinite

if TYPE_CHECKING:
    from .fuzz import FuzzConfig

_GAUSS, _UNIT = 0, 1  # the two kinds of draws


def _sites(config: FuzzConfig):
    """The draw sites of a bundle in bundle order: a name, then its pieces
    as (kind, shape). A point draws a slack, then a direction."""
    spec = config.spec()
    d, k = config.dim, config.family_size
    real = config.mode == "real"
    vec = (_GAUSS, (d,) if real else (2 * d,))  # a random vector
    pt = (_GAUSS, (d,) if real and spec.mode == "real" else (2 * d,))  # a point's direction
    slack = (_UNIT, ())

    def family(count):
        return (_GAUSS, (d, count) if real else (2, d, count))

    def corridor(count):
        return (_UNIT, (spec._parts, count))

    yield "fam", family(k)
    yield "cx", corridor(k)
    yield "cy", corridor(k)
    yield "x", slack, pt
    yield "y", slack, pt
    for tail in (t for e in SELECTORS.values() if e.draws == "companion" for t in e.tails):
        yield f"cz{tail}", corridor(k)
        yield f"z{tail}", slack, pt, vec  # z, then the free x
    yield "yv", vec
    yield "c25", corridor(1)
    yield "xs", slack, pt
    yield "f1", family(1)
    yield "c1", corridor(1)
    yield "c2", corridor(1)
    yield "p1", slack, pt
    yield "p2", slack, pt
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
    e.fam, e.gres = e.families(every, *sites["fam"])
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
    those whose x and y corridors were accepted, the instances drawn from
    them, its rejected corridors, its chain records, and its first failed
    check in bundle order (by trial, then by the order of registration)."""

    def __init__(self, config: FuzzConfig, trials: np.ndarray, sites: dict):
        self.spec = config.spec()
        self.d = config.dim
        self.real = config.mode == "real"
        self.real_pt = self.real and self.spec.mode == "real"
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
        rows = np.flatnonzero(failed & live)
        if rows.size:
            key = (int(self.trials[rows[0]]), self.step)
            if self.first is None or key < self.first[0]:
                self.first = (key, error, rows[0])

    def run(self, key: str, entry: Selector, tail: str | None) -> None:
        """Record the chains of selector ``key`` on the live rows of its instance."""
        params = entry.params(key, tail) if tail else {}
        live, inst = self.drawn(entry.draws, tail, params)
        if not live.any():
            return
        for chain in entry.chains:
            values = chain.values(inst, **params)
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
        """Random vectors from their normals, stored complex as Vector stores them."""
        d = self.d
        return w.astype(np.complex128) if self.real else w[..., :d] + 1j * w[..., d:]

    def directions(self, w: np.ndarray) -> np.ndarray:
        """Admissible-point directions from their normals (real for real points)."""
        d = self.d
        return w if self.real_pt else w[..., :d] + 1j * w[..., d:]

    def families(self, live: np.ndarray, raw: np.ndarray):
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

    def point(self, live, mats, c, slack, w) -> np.ndarray:
        return self.finite(live, _admissible_points(mats, c, self.directions(w), slack))

    def slot(self, live, x, mats, c, gres, which: str) -> Slot:
        """x with its family and corridor, its admissibility checked as the
        bounds check it."""
        sign, failed, report = _hypothesis(x, mats, c, DEFAULT_HYPOTHESIS_TOL, gres)
        self.check(live, failed, lambda i: HypothesisFailed(which, report(i)))
        return Slot(x, mats, c, sign)

    def _x(self):
        """The admissible x of the bundle's family."""
        (x, cx), _ = self.xy
        return self.live, self.slot(self.live, x, self.fam, cx, self.gres, "x")

    def _pair(self):
        """The admissible pair (x, y) of the bundle's family."""
        live, x = self.drawn("x")
        y, cy = self.xy[1]
        return live, Pair(x, self.slot(live, y, self.fam, cy, self.gres, "y"))

    def _companion(self, tail: str, lam: float):
        """Theorem 4.1 at ``lam``: z admissible, x free, y solved from z."""
        cz, live = self.corridor(self.live, *self.sites[f"cz{tail}"])
        slack, w, xw = self.sites[f"z{tail}"]
        z = self.point(live, self.fam, cz, slack, w)
        xa = self.vectors(xw)
        yb = self.finite(live, (z - lam * xa) / (1.0 - lam))
        z2 = self.slot(live, _mix(xa, yb, lam), self.fam, cz, self.gres, "lam*x + (1-lam)*y")
        return live, Pair(Slot(xa, self.fam), Slot(yb, self.fam), z=z2)

    def _schwarz(self):
        """Corollary 2.5: x admissible for {y/||y||} under (delta ||y||, Delta ||y||)."""
        c1, live = self.corridor(self.live, *self.sites["c25"])
        y = Slot(self.vectors(*self.sites["yv"]), None, c1)
        unit, lo, hi = _schwarz_frame(y)
        self.finite(live, unit[:, 0])
        res, *rule = _gram_check(unit, UNIT_TOLERANCE)
        self.check(live, *rule)
        corr_x = Corridors.build(lo, hi)
        self.check(live, *corr_x.nonfinite())
        xs = self.point(live, unit, corr_x, *self.sites["xs"])
        return live, Pair(self.slot(live, xs, unit, corr_x, res, "x"), y)

    def _single(self):
        """Corollary 3.3: a pair over a one-member family."""
        fam, gres = self.families(self.live, *self.sites["f1"])
        (c1, x_ok), (c2, y_ok) = (self.corridor(self.live, *self.sites[c]) for c in ("c1", "c2"))
        live = x_ok & y_ok
        xs = self.point(live, fam, c1, *self.sites["p1"])
        ys = self.point(live, fam, c2, *self.sites["p2"])
        x = self.slot(live, xs, fam, c1, gres, "x")
        return live, Pair(x, self.slot(live, ys, fam, c2, gres, "y"))

    def _free(self):
        """Two vectors under no corridor."""
        xr, yr = map(self.vectors, self.sites["xr"])
        return self.live, Pair(Slot(xr, self.fam), Slot(yr, self.fam))
