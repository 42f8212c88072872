"""One chunk of a fuzz campaign, drawn and then evaluated as a batch.

:func:`layout` places every draw site of a bundle at fixed columns of a row
of uniforms; :func:`draw` fills a row per trial with one generator call and
cuts it into the sites; :func:`evaluate` builds every family, corridor,
admissible point and admissibility report of the chunk at once and
evaluates the selected chains over the leading trial axis with the kernels
of the scalar API, on the rows whose corridors were accepted. Only these
functions know the draw sites; :mod:`orthobound.fuzz` describes the stream.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .admissibility import (
    DEFAULT_HYPOTHESIS_TOL,
    Corridors,
    HypothesisReport,
    _admissible_points,
    _hypothesis,
)
from .bounds import (
    _coeff_power_sum,
    _companion_values,
    _counterpart_values,
    _gruss_defect,
    _gruss_values,
    _linear_values,
    _m_factor,
    _mix,
    _quadratic_values,
    _ratio_values,
    _refined_midpoint_values,
    _refined_sqrt_values,
    _schwarz_step_values,
    _schwarz_values,
)
from .errors import (
    GramResidualExceeded,
    HypothesisFailed,
    IdentityViolation,
    NonfiniteCorridor,
)
from .family import DEFAULT_TOLERANCE, _coefficients, _gram_residual, _orthonormal_rows
from .space import _inner, abs2, tree_sum

if TYPE_CHECKING:
    from .fuzz import FuzzConfig

_X_CHAINS = ("thm2.1", "eq2.6", "eq2.11:max", "eq2.11:holder:3", "eq2.11:sum", "cor2.3")
_PAIR_CHAINS = ("thm1.1", "thm2", "thm3.1")
_LAMBDAS = (0.1, 0.5, 0.9)
_HOLDER_P = 3.0  # the exponent of the "eq2.11:holder:3" selector
_UNIT_TOLERANCE = 1e-12  # the tolerance schwarz_counterparts validates {y/||y||} at
_SCHWARZ_CHAINS = ("norm_product", "norm_product_gap", "norm_product_sq", "norm_product_sq_gap")

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
    for lam in _LAMBDAS:
        yield f"cz{lam}", corridor(k)
        yield f"z{lam}", slack, pt, vec  # z, then the free x
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

    Returns (evaluated, rejected, records) with one record (selector, trials,
    values) per selected chain, in the order a bundle records them. A
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
    ev = trials[ok]
    if ev.size:
        fam, gres, cx, cy = _keep(ok, mats, gres, cx, cy)
        del mats
        e.sites = {name: _keep(ok, *pieces) for name, pieces in sites.items()}
        # one group per block of a bundle; their arrays die with them
        e.main(ev, fam, gres, cx, cy)
        for lam in _LAMBDAS:
            if f"thm4.1:{lam}" in e.want:
                e.companion(ev, fam, gres, lam)
        if "cor2.5" in e.want:
            e.schwarz(ev)
        if "cor3.3" in e.want:
            e.single(ev)
        if "bessel-defect" in e.want or "schwarz-step" in e.want:
            e.free_pair(ev, fam)
    if e.first is not None:
        raise e.first[1]
    return int(ev.size), e.rejected, e.records


class _Evaluation:
    """What the evaluation of one chunk shares: the draws of its evaluated
    bundles, its rejected corridors, its chain records, and its first failed
    check in bundle order (by trial, then by the order in which checks are
    registered)."""

    def __init__(self, config: FuzzConfig):
        self.spec = config.spec()
        self.want = set(config.selectors)
        self.d = config.dim
        self.real = config.mode == "real"
        self.real_pt = self.real and self.spec.mode == "real"
        self.sites: dict = {}
        self.rejected = 0
        self.records: list = []
        self.step = 0
        self.first = None

    def check(self, trials: np.ndarray, failed: np.ndarray, error) -> None:
        """Register one check over rows ``trials``; ``error(row)`` builds the
        exception of a failed row."""
        self.step += 1
        rows = np.flatnonzero(failed)
        if rows.size:
            key = (int(trials[rows[0]]), self.step)
            if self.first is None or key < self.first[0]:
                self.first = (key, error(rows[0]))

    def record(self, key: str, trials: np.ndarray, values: tuple) -> None:
        self.records.append((key, trials, np.stack(np.broadcast_arrays(*values), axis=-1)))

    def vectors(self, w: np.ndarray) -> np.ndarray:
        """Random vectors from their normals, stored complex as Vector stores them."""
        d = self.d
        return w.astype(np.complex128) if self.real else w[..., :d] + 1j * w[..., d:]

    def directions(self, w: np.ndarray) -> np.ndarray:
        """Admissible-point directions from their normals (real for real points)."""
        d = self.d
        return w if self.real_pt else w[..., :d] + 1j * w[..., d:]

    def families(self, raw: np.ndarray, trials: np.ndarray, tolerance=DEFAULT_TOLERANCE):
        mats = _orthonormal_rows(raw if self.real else raw[:, 0] + 1j * raw[:, 1])
        res, arg = _gram_residual(mats)
        count = mats.shape[-2]
        self.check(
            trials,
            res > tolerance,
            lambda i: GramResidualExceeded(float(res[i]), divmod(int(arg[i]), count), tolerance),
        )
        return np.asarray(mats, dtype=np.complex128), res

    def corridor(self, u: np.ndarray, trials: np.ndarray):
        """The corridors drawn as unit uniforms ``u``, checked and counted,
        with the mask of accepted ones."""
        c = Corridors.build(*self.spec._sides(u))
        self.check(trials, ~c.finite, lambda i: _corridor_error(c, i))
        rejected = c.re_sum <= 0.0
        self.rejected += int(rejected.sum())
        return c, ~rejected

    def finite(self, trials: np.ndarray, v: np.ndarray) -> np.ndarray:
        self.check(
            trials,
            ~np.isfinite(v).all(axis=-1),
            lambda i: ValueError("coords must be finite (no NaN/Inf)"),
        )
        return v

    def point(self, trials, mats, c, slack, w) -> np.ndarray:
        return self.finite(trials, _admissible_points(mats, c, self.directions(w), slack))

    def hypothesis(self, trials, x, mats, c, gres, which: str) -> np.ndarray:
        """Check admissibility as the bounds do; returns the sign-form values."""
        cond_i, residual, gap, band = _hypothesis(x, mats, c, DEFAULT_HYPOTHESIS_TOL)
        broken = np.abs(gap) > band
        holds = cond_i >= -band

        def error(i):
            if broken[i]:
                return IdentityViolation(float(gap[i]), float(band[i]), float(gres[i]))
            report = HypothesisReport(
                float(cond_i[i]), float(residual[i]), float(c.radius[i]), False
            )
            return HypothesisFailed(which, report)

        self.check(trials, broken | ~holds, error)
        return cond_i

    def main(self, ev, fam, gres, cx, cy) -> None:
        """The admissible pair (x, y): single-vector and pair chains."""
        want = self.want
        x = self.point(ev, fam, cx, *self.sites["x"])
        y = self.point(ev, fam, cy, *self.sites["y"])
        if not want.intersection(_X_CHAINS + _PAIR_CHAINS):
            return
        sign_x = self.hypothesis(ev, x, fam, cx, gres, "x")
        a, nsq_x = _coefficients(fam, x), tree_sum(abs2(x))
        s_x, m_x = _coeff_power_sum(a), _m_factor(cx)[0]
        if want.intersection(_PAIR_CHAINS):
            sign_y = self.hypothesis(ev, y, fam, cy, gres, "y")
            b = _coefficients(fam, y)
            d_abs = np.abs(_gruss_defect(_inner(x, y), a, b))
        if "thm2.1" in want:
            self.record("thm2.1", ev, _quadratic_values(nsq_x, a, cx, "cbs", None))
        if "eq2.6" in want:
            self.record("eq2.6", ev, _linear_values(nsq_x, a, cx))
        if "eq2.11:max" in want:
            self.record("eq2.11:max", ev, _quadratic_values(nsq_x, a, cx, "max_sum", None))
        if "eq2.11:holder:3" in want:
            self.record("eq2.11:holder:3", ev, _quadratic_values(nsq_x, a, cx, "holder", _HOLDER_P))
        if "eq2.11:sum" in want:
            self.record("eq2.11:sum", ev, _quadratic_values(nsq_x, a, cx, "sum_max", None))
        if "cor2.3" in want:
            self.record("cor2.3", ev, _counterpart_values(nsq_x, s_x, m_x))
        if "thm1.1" in want:
            values = _refined_sqrt_values(d_abs, cx.radius, cy.radius, sign_x, sign_y)
            self.record("thm1.1", ev, values)
        if "thm2" in want:
            self.record("thm2", ev, _refined_midpoint_values(d_abs, a, b, cx, cy))
        if "thm3.1" in want:
            s_y, m_y = _coeff_power_sum(b), _m_factor(cy)[0]
            self.record("thm3.1", ev, _gruss_values(d_abs, m_x, m_y, s_x, s_y))

    def companion(self, ev, fam, gres, lam: float) -> None:
        """Theorem 4.1 at ``lam``: z admissible, x free, y solved from z."""
        cz, z_ok = self.corridor(*self.sites[f"cz{lam}"], ev)
        rows = ev[z_ok]
        if not rows.size:
            return
        fam, gres, cz = _keep(z_ok, fam, gres, cz)
        slack, w, xw = _keep(z_ok, *self.sites[f"z{lam}"])
        z = self.point(rows, fam, cz, slack, w)
        xa = self.vectors(xw)
        yb = self.finite(rows, (z - lam * xa) / (1.0 - lam))
        z2 = _mix(xa, yb, lam)
        self.hypothesis(rows, z2, fam, cz, gres, "lam*x + (1-lam)*y")
        defect = _gruss_defect(_inner(xa, yb), _coefficients(fam, xa), _coefficients(fam, yb))
        s_z = _coeff_power_sum(_coefficients(fam, z2))
        values = _companion_values(defect.real, _m_factor(cz)[0], s_z, lam)
        self.record(f"thm4.1:{lam}", rows, values)

    def schwarz(self, ev) -> None:
        """Corollary 2.5: x admissible for {y/||y||} under (delta ||y||, Delta ||y||)."""
        yv = self.vectors(*self.sites["yv"])
        c1, c1_ok = self.corridor(*self.sites["c25"], ev)
        rows = ev[c1_ok]
        if not rows.size:
            return
        yv, c1 = _keep(c1_ok, yv, c1)
        ny2 = tree_sum(abs2(yv))
        ny = np.sqrt(ny2)
        unit = self.finite(rows, yv / ny[:, None])[:, None, :]
        res, _ = _gram_residual(unit)
        self.check(
            rows,
            res > _UNIT_TOLERANCE,
            lambda i: GramResidualExceeded(float(res[i]), (0, 0), _UNIT_TOLERANCE),
        )
        corr_x = Corridors.build(c1.lo * ny[:, None], c1.hi * ny[:, None])
        self.check(rows, ~corr_x.finite, lambda i: _corridor_error(corr_x, i))
        xs = self.point(rows, unit, corr_x, *_keep(c1_ok, *self.sites["xs"]))
        self.hypothesis(rows, xs, unit, corr_x, res, "x")
        chains = _schwarz_values(tree_sum(abs2(xs)), ny2, _inner(xs, yv), c1.lo[:, 0], c1.hi[:, 0])
        for name, values in zip(_SCHWARZ_CHAINS, chains):
            self.record(f"cor2.5:{name}", rows, values)

    def single(self, ev) -> None:
        """Corollary 3.3: a pair over a one-member family, and its ratio form."""
        fam, gres = self.families(*self.sites["f1"], ev)
        c1, c1_ok = self.corridor(*self.sites["c1"], ev)
        c2, c2_ok = self.corridor(*self.sites["c2"], ev)
        both = c1_ok & c2_ok
        rows = ev[both]
        if not rows.size:
            return
        fam, gres, c1, c2 = _keep(both, fam, gres, c1, c2)
        xs = self.point(rows, fam, c1, *_keep(both, *self.sites["p1"]))
        ys = self.point(rows, fam, c2, *_keep(both, *self.sites["p2"]))
        self.hypothesis(rows, xs, fam, c1, gres, "x")
        self.hypothesis(rows, ys, fam, c2, gres, "y")
        a, b = _coefficients(fam, xs), _coefficients(fam, ys)
        p = _inner(xs, ys)
        m1, m2 = _m_factor(c1)[0], _m_factor(c2)[0]
        d_abs = np.abs(_gruss_defect(p, a, b))
        s1, s2 = _coeff_power_sum(a), _coeff_power_sum(b)
        self.record("cor3.3", rows, _gruss_values(d_abs, m1, m2, s1, s2))
        # Python's abs (the C hypot), as for one instance: np.abs may differ in the last bit
        pairs = zip(a[:, 0].tolist(), b[:, 0].tolist())
        gate = np.array([abs(u) > 1e-9 and abs(v) > 1e-9 for u, v in pairs], dtype=bool)
        if gate.any():
            denom = np.multiply(a[gate, 0], np.conj(b[gate, 0]))
            ratio = _ratio_values(p[gate], denom, m1[gate], m2[gate])
            self.record("cor3.3:ratio", rows[gate], ratio)

    def free_pair(self, ev, fam) -> None:
        """The projection defect and the Schwarz step on two unconstrained vectors."""
        xr, yr = map(self.vectors, self.sites["xr"])
        ar, br = _coefficients(fam, xr), _coefficients(fam, yr)
        nsq_r = tree_sum(abs2(xr))
        defect_x = nsq_r - _coeff_power_sum(ar)
        if "bessel-defect" in self.want:
            self.record("bessel-defect", ev, (-1e-10 * nsq_r, defect_x))
        if "schwarz-step" in self.want:
            defect_y = tree_sum(abs2(yr)) - _coeff_power_sum(br)
            d_r = _gruss_defect(_inner(xr, yr), ar, br)
            self.record("schwarz-step", ev, _schwarz_step_values(d_r, defect_x, defect_y))


def _keep(mask: np.ndarray, *items) -> tuple:
    """The rows of each array or :class:`Corridors` where ``mask`` holds;
    no copies when it holds everywhere, as it does without rejections."""
    if mask.all():
        return items
    return tuple(i.take(mask) if isinstance(i, Corridors) else i[mask] for i in items)


def _corridor_error(c: Corridors, i: int) -> Exception:
    for name, side in (("lo", c.lo[i]), ("hi", c.hi[i])):
        if not np.isfinite(side).all():
            return ValueError(f"corridor {name} must be finite")
    return NonfiniteCorridor(float(c.re_sum[i]), float(c.radius[i]))
