"""One chunk of a fuzz campaign, drawn and then evaluated as a batch.

:func:`layout` places every draw site of a bundle at fixed columns of a row
of uniforms; :func:`draw` fills a row per trial with one generator call and
cuts it into the sites; :func:`evaluate` builds every family, corridor,
admissible point and admissibility report of the chunk at once, on the rows
whose corridors were accepted, and runs the selected chains over the
leading trial axis. The selectors, their parameters and the kernel of each
chain come from :mod:`orthobound.catalog`; each entry names the instance it
reads (``x``, ``pair``, ``companion``, ``schwarz``, ``single`` or ``free``),
which :class:`_Evaluation` draws when a selected entry first reads it. Only
this module knows the draw sites; :mod:`orthobound.fuzz` describes the
stream. Every check on the drawn instances is the batched rule of the module
that owns the type, the rule its scalar constructor applies to a batch of
one; the chunk only registers each rule, in bundle order.
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
    """Evaluate one chunk of draws.

    Returns (evaluated, rejected, records) with one record (key, trials,
    values) per recorded chain, in the order a bundle records them. A
    corridor counts as rejected where a bundle evaluated alone would draw
    it: the x and y corridors always, the others of the selected chains
    only when those two are accepted. Raises the chunk's first error.
    """
    e = _Evaluation(config)
    trials = np.asarray(trials)
    mats, gres = e.families(*sites["fam"], trials)
    cx, cx_ok = e.corridor(*sites["cx"], trials)
    cy, cy_ok = e.corridor(*sites["cy"], trials)
    ok = cx_ok & cy_ok
    e.ev = trials[ok]
    if e.ev.size:
        e.fam, e.gres, cx, cy = _keep(ok, mats, gres, cx, cy)
        del mats
        e.sites = {name: _keep(ok, *pieces) for name, pieces in sites.items()}
        e.xy = [(e.point(e.ev, e.fam, c, *e.sites[v]), c) for v, c in (("x", cx), ("y", cy))]
        want = set(config.selectors)
        for key, entry, tail in campaign_keys():
            if key in want:
                e.run(key, entry, tail)
    if e.first is not None:
        _, error, row = e.first
        raise error(row)
    return int(e.ev.size), e.rejected, e.records


class _Evaluation:
    """What the evaluation of one chunk shares: the draws of its evaluated
    bundles ``ev`` with their family and admissible pair, the instances drawn
    from them, its rejected corridors, its chain records, and its first
    failed check in bundle order (by trial, then by the order in which checks
    are registered)."""

    def __init__(self, config: FuzzConfig):
        self.spec = config.spec()
        self.d = config.dim
        self.real = config.mode == "real"
        self.real_pt = self.real and self.spec.mode == "real"
        self.sites: dict = {}
        self.instances: dict = {}
        self.rejected = 0
        self.records: list = []
        self.step = 0
        self.first = None

    def check(self, trials: np.ndarray, failed: np.ndarray, error) -> None:
        """Register one rule over rows ``trials``, as its owner returns it:
        the mask of failed rows and ``error(row)``, which builds (or raises)
        the exception of one; only the chunk's first is built."""
        self.step += 1
        rows = np.flatnonzero(failed)
        if rows.size:
            key = (int(trials[rows[0]]), self.step)
            if self.first is None or key < self.first[0]:
                self.first = (key, error, rows[0])

    def run(self, key: str, entry: Selector, tail: str | None) -> None:
        """Record the chains of selector ``key`` on the instance its entry reads."""
        params = entry.params(key, tail) if tail else {}
        drawn = self.drawn(entry.draws, tail, params)
        if drawn is None:
            return
        rows, inst = drawn
        for chain in entry.chains:
            values = chain.values(inst, **params)
            named = values if chain.name is None else {chain.suffix: values}
            keep = slice(None) if chain.when is None else chain.when(inst)
            for suffix, v in named.items():
                stacked = np.stack(np.broadcast_arrays(*v), axis=-1)
                record_key = f"{key}:{suffix}" if suffix else key
                self.records.append((record_key, rows[keep], stacked[keep]))

    def drawn(self, kind: str, tail: str | None = None, params: dict | None = None):
        """The instance ``kind`` of the chunk as (rows, instance), or None
        when every row's corridors were rejected. It is drawn once, except
        the companion instance: it is drawn once per tail, from that tail's
        sites, and serves that key alone, so it is not kept."""
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

    def families(self, raw: np.ndarray, trials: np.ndarray):
        mats = _orthonormal_rows(raw if self.real else raw[:, 0] + 1j * raw[:, 1])
        res, *rule = _gram_check(mats, DEFAULT_TOLERANCE)
        self.check(trials, *rule)
        return np.asarray(mats, dtype=np.complex128), res

    def corridor(self, u: np.ndarray, trials: np.ndarray):
        """The corridors drawn as unit uniforms ``u``, checked and counted,
        with the mask of accepted ones."""
        c = Corridors.build(*self.spec._sides(u))
        self.check(trials, *c.nonfinite())
        rejected = c.re_sum <= 0.0
        self.rejected += int(rejected.sum())
        return c, ~rejected

    def finite(self, trials: np.ndarray, v: np.ndarray) -> np.ndarray:
        self.check(trials, *_nonfinite(v))
        return v

    def point(self, trials, mats, c, slack, w) -> np.ndarray:
        return self.finite(trials, _admissible_points(mats, c, self.directions(w), slack))

    def slot(self, trials, x, mats, c, gres, which: str) -> Slot:
        """x with its family and corridor, its admissibility checked as the
        bounds check it."""
        sign, failed, report = _hypothesis(x, mats, c, DEFAULT_HYPOTHESIS_TOL, gres)
        self.check(trials, failed, lambda i: HypothesisFailed(which, report(i)))
        return Slot(x, mats, c, sign)

    def _x(self):
        """The admissible x of the bundle's family."""
        (x, cx), _ = self.xy
        return self.ev, self.slot(self.ev, x, self.fam, cx, self.gres, "x")

    def _pair(self):
        """The admissible pair (x, y) of the bundle's family."""
        rows, x = self.drawn("x")
        y, cy = self.xy[1]
        return rows, Pair(x, self.slot(rows, y, self.fam, cy, self.gres, "y"))

    def _companion(self, tail: str, lam: float):
        """Theorem 4.1 at ``lam``: z admissible, x free, y solved from z."""
        cz, z_ok = self.corridor(*self.sites[f"cz{tail}"], self.ev)
        rows = self.ev[z_ok]
        if not rows.size:
            return None
        fam, gres, cz = _keep(z_ok, self.fam, self.gres, cz)
        slack, w, xw = _keep(z_ok, *self.sites[f"z{tail}"])
        z = self.point(rows, fam, cz, slack, w)
        xa = self.vectors(xw)
        yb = self.finite(rows, (z - lam * xa) / (1.0 - lam))
        z2 = self.slot(rows, _mix(xa, yb, lam), fam, cz, gres, "lam*x + (1-lam)*y")
        return rows, Pair(Slot(xa, fam), Slot(yb, fam), z=z2)

    def _schwarz(self):
        """Corollary 2.5: x admissible for {y/||y||} under (delta ||y||, Delta ||y||)."""
        yv = self.vectors(*self.sites["yv"])
        c1, c1_ok = self.corridor(*self.sites["c25"], self.ev)
        rows = self.ev[c1_ok]
        if not rows.size:
            return None
        yv, c1 = _keep(c1_ok, yv, c1)
        y = Slot(yv, None, c1)
        unit, lo, hi = _schwarz_frame(y)
        self.finite(rows, unit[:, 0])
        res, *rule = _gram_check(unit, UNIT_TOLERANCE)
        self.check(rows, *rule)
        corr_x = Corridors.build(lo, hi)
        self.check(rows, *corr_x.nonfinite())
        xs = self.point(rows, unit, corr_x, *_keep(c1_ok, *self.sites["xs"]))
        return rows, Pair(self.slot(rows, xs, unit, corr_x, res, "x"), y)

    def _single(self):
        """Corollary 3.3: a pair over a one-member family."""
        fam, gres = self.families(*self.sites["f1"], self.ev)
        c1, c1_ok = self.corridor(*self.sites["c1"], self.ev)
        c2, c2_ok = self.corridor(*self.sites["c2"], self.ev)
        both = c1_ok & c2_ok
        rows = self.ev[both]
        if not rows.size:
            return None
        fam, gres, c1, c2 = _keep(both, fam, gres, c1, c2)
        xs = self.point(rows, fam, c1, *_keep(both, *self.sites["p1"]))
        ys = self.point(rows, fam, c2, *_keep(both, *self.sites["p2"]))
        x = self.slot(rows, xs, fam, c1, gres, "x")
        return rows, Pair(x, self.slot(rows, ys, fam, c2, gres, "y"))

    def _free(self):
        """Two vectors under no corridor."""
        xr, yr = map(self.vectors, self.sites["xr"])
        return self.ev, Pair(Slot(xr, self.fam), Slot(yr, self.fam))


def _keep(mask: np.ndarray, *items) -> tuple:
    """The rows of each array or :class:`Corridors` where ``mask`` holds;
    no copies when it holds everywhere, as it does without rejections."""
    if mask.all():
        return items
    return tuple(i.take(mask) if isinstance(i, Corridors) else i[mask] for i in items)

