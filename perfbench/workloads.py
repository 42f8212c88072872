"""The four certification workloads, driven through orthobound's public API.

Each workload builds a fixed pool of inputs from the benchmark seed in
``setup`` and cycles through it, one operation at a time (closed loop, one
client). ``prepare`` makes the per-operation arguments outside the timed
region, ``op`` is the timed call into the package, and ``check`` verifies the
output and returns a record of the values it produced; the runner hashes the
records of the first pass into the output digest and requires every later
pass to reproduce them exactly.

Package names are looked up through their modules at call time, so the
tracer's rebinding reaches every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from orthobound import admissibility, cli, family, fuzz, integral, jsonio, space

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


class CheckFailed(Exception):
    """An operation's output is not what the paper's inequalities require."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def derive_seed(seed: int, *words: int) -> int:
    return int(np.random.SeedSequence([seed, *words]).generate_state(1, np.uint64)[0])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Workload:
    name = ""
    items_per_op = 1
    # peak memory is that of the child processes the ops start
    measures_children = False

    def __init__(self, seed: int):
        self.seed = seed
        self.pool: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, inp):
        return inp

    def op(self, arg):
        raise NotImplementedError

    def traced_op(self, arg):
        """The operation timed in the traced run; the same call unless the
        untraced one leaves the process."""
        return self.op(arg)

    def check(self, inp, out) -> tuple:
        raise NotImplementedError

    def rejected(self, out) -> int:
        """Sampled corridors the operation rejected."""
        return 0


class FuzzCampaign(Workload):
    """One ``run_fuzz`` campaign per op, in the acceptance-criterion-2 shape."""

    name = "fuzz-campaign"
    # Every chain the campaign must evaluate once per bundle; ``cor3.3:ratio``
    # is skipped when a coefficient is within 1e-9 of zero.
    SELECTORS = (
        "thm1.1", "thm2", "thm2.1", "eq2.6", "eq2.11:max", "eq2.11:holder:3",
        "eq2.11:sum", "cor2.3", "cor2.5:norm_product", "cor2.5:norm_product_gap",
        "cor2.5:norm_product_sq", "cor2.5:norm_product_sq_gap", "thm3.1",
        "cor3.3", "thm4.1:0.1", "thm4.1:0.5", "thm4.1:0.9",
        "bessel-defect", "schwarz-step",
    )

    def __init__(self, seed: int, bundles: int = 200, pool_size: int = 8):
        super().__init__(seed)
        self.items_per_op = bundles
        self.pool_size = pool_size

    def _config(self, seed: int, count: int):
        return fuzz.FuzzConfig(seed=seed, count=count, dim=8, family_size=4, mode="complex")

    def setup(self) -> None:
        self.pool = [derive_seed(self.seed, 1, k) for k in range(self.pool_size)]
        fuzz.run_fuzz(self._config(derive_seed(self.seed, 0), 8))

    def op(self, campaign_seed):
        return fuzz.run_fuzz(self._config(campaign_seed, self.items_per_op))

    def rejected(self, out) -> int:
        return out.rejected

    def check(self, inp, out) -> tuple:
        bundles = self.items_per_op
        require(out.ok, f"{len(out.violations)} chain violations")
        require(out.rejected == 0, f"{out.rejected} corridors rejected")
        require(out.evaluated == bundles, f"{out.evaluated} of {bundles} bundles evaluated")
        for key in self.SELECTORS:
            require(out.checked.get(key) == bundles, f"{key} checked {out.checked.get(key)} times")
        extra = set(out.checked) - set(self.SELECTORS) - {"cor3.3:ratio"}
        require(not extra, f"unexpected selectors {sorted(extra)}")
        require(out.checked.get("cor3.3:ratio", 0) <= bundles, "cor3.3:ratio over-counted")
        return (
            out.evaluated,
            out.rejected,
            tuple(sorted(out.checked.items())),
            tuple(sorted(out.min_slack.items())),
        )


class HypothesisScreen(Workload):
    """One acceptance-criterion-1 instance per op: family, corridor, vector, check."""

    name = "hypothesis-screen"
    BAND = 1e-10  # the criterion-1 identity band, relative to max(1, radius^2)

    def __init__(self, seed: int, pool_size: int = 4096):
        super().__init__(seed)
        self.pool_size = pool_size
        self.specs = {
            True: admissibility.CorridorSpec(mode="real"),
            False: admissibility.CorridorSpec(mode="complex"),
        }

    def setup(self) -> None:
        rng = np.random.default_rng(derive_seed(self.seed, 2))
        pool = []
        for k in range(self.pool_size):
            dim = int(rng.integers(1, 17))
            count = int(rng.integers(1, min(dim, 8) + 1))
            real = k % 2 == 0
            near_boundary = (k // 2) % 2 == 1
            pool.append((dim, count, real, near_boundary, derive_seed(self.seed, 3, k)))
        self.pool = pool
        for inp in pool[:64]:
            self.op(self.prepare(inp))

    def prepare(self, inp):
        return inp, np.random.default_rng(inp[4])

    def op(self, arg):
        (dim, count, real, near_boundary, _), rng = arg
        fam = family.random_family(dim, count, rng, real=real)
        corr = self.specs[real].sample(count, rng)
        u = rng.standard_normal(dim)
        if not real:
            u = u + 1j * rng.standard_normal(dim)
        if near_boundary:
            # corridor center plus an offset of up to twice the radius
            center = corr.midpoints @ fam.matrix
            reach = rng.uniform(0.0, 2.0) * max(corr.radius, 0.1)
            u = center + (reach / np.linalg.norm(u)) * u
        x = space.Vector(u, real_mode=real)
        return fam, corr, x, admissibility.check_hypothesis(x, fam, corr)

    def check(self, inp, out) -> tuple:
        fam, corr, x, rep = out
        scale = max(1.0, rep.radius**2)
        band = self.BAND * scale
        gap = rep.cond_i_value - (rep.radius**2 - rep.cond_ii_residual**2)
        require(abs(gap) <= band, f"identity gap {gap:.3e}")
        if abs(rep.cond_i_value) > band:
            require(
                (rep.cond_i_value >= 0.0) == (rep.cond_ii_residual <= rep.radius),
                "sign and ball forms disagree",
            )
        require(rep.holds == (rep.cond_i_value >= -band), "holds flag")
        # the same quantities recomputed with plain numpy reductions
        m, xc = fam.matrix, x.coords
        upper = np.sum(corr.hi[:, None] * m, axis=0)
        lower = np.sum(corr.lo[:, None] * m, axis=0)
        center = np.sum(corr.midpoints[:, None] * m, axis=0)
        cond_ref = float(np.sum(((upper - xc) * np.conj(xc - lower)).real))
        require(abs(rep.cond_i_value - cond_ref) <= 1e-9 * scale, "sign form value")
        require(
            math.isclose(rep.cond_ii_residual, float(np.linalg.norm(xc - center)),
                         rel_tol=1e-9, abs_tol=1e-12),
            "ball form residual",
        )
        require(
            math.isclose(rep.radius, 0.5 * float(np.linalg.norm(corr.hi - corr.lo)),
                         rel_tol=1e-9, abs_tol=1e-12),
            "corridor radius",
        )
        return rep.cond_i_value, rep.cond_ii_residual, rep.radius, rep.holds


class CliCheck(Workload):
    """One ``python -m orthobound check`` subprocess per op."""

    name = "cli-check"
    measures_children = True

    def __init__(self, seed: int):
        super().__init__(seed)
        self.dir = OUT / f"cli-inputs-{seed}"

    def _instances(self, rng) -> list[tuple[str, dict]]:
        spec = admissibility.CorridorSpec()

        def point(fam, corr):
            return admissibility.admissible_point(fam, corr, rng, rng.uniform(0.1, 0.9))

        def single(fam, corr, x):
            return {"family": jsonio.family_to_json(fam), "x": jsonio.vector_to_json(x),
                    **jsonio.corridor_to_json(corr)}

        def pair(count):
            fam = family.random_family(8, count, rng)
            cx, cy = spec.sample(count, rng), spec.sample(count, rng)
            data = single(fam, cx, point(fam, cx))
            y_corridor = jsonio.corridor_to_json(cy)
            data.update(y=jsonio.vector_to_json(point(fam, cy)),
                        gamma=y_corridor["phi"], Gamma=y_corridor["Phi"])
            return data

        out = []
        for bound in ("thm2.1", "eq2.6", "eq2.11:max", "eq2.11:sum", "eq2.11:holder:3", "cor2.3"):
            fam = family.random_family(8, 4, rng)
            corr = spec.sample(4, rng)
            out.append((bound, single(fam, corr, point(fam, corr))))
        for bound in ("thm1.1", "thm2", "thm3.1"):
            out.append((bound, pair(4)))
        out.append(("cor3.3", pair(1)))

        lam = 0.5
        fam = family.random_family(8, 4, rng)
        corr = spec.sample(4, rng)
        z = point(fam, corr)
        xa = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        yb = space.Vector((z.coords - lam * xa) / (1.0 - lam))
        companion = single(fam, corr, space.Vector(xa))
        companion["y"] = jsonio.vector_to_json(yb)
        out.append((f"thm4.1:{lam}", companion))

        yv = space.Vector(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        c1 = spec.sample(1, rng)
        ny = space.norm(yv)
        unit = family.validate_family([space.Vector(yv.coords / ny)], tolerance=1e-12)
        corr_x = admissibility.ScalarCorridor(c1.lo * ny, c1.hi * ny)
        out.append(("cor2.5", {
            "x": jsonio.vector_to_json(point(unit, corr_x)),
            "y": jsonio.vector_to_json(yv),
            "delta": jsonio.scalar_to_json(c1.lo[0]),
            "Delta": jsonio.scalar_to_json(c1.hi[0]),
        }))
        return out

    def setup(self) -> None:
        rng = np.random.default_rng(derive_seed(self.seed, 4))
        self.dir.mkdir(parents=True, exist_ok=True)
        pool = []
        for k, (bound, data) in enumerate(self._instances(rng)):
            path = self.dir / f"{k:02d}-{bound.replace(':', '_')}.json"
            path.write_text(json.dumps(data))
            pool.append((path, bound, ("holds", None)))

        # outside the ball: the sign form is negative, so check exits 2
        fam = family.random_family(8, 4, rng)
        corr = admissibility.CorridorSpec().sample(4, rng)
        u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        far = corr.midpoints @ fam.matrix + (3.0 * corr.radius / np.linalg.norm(u)) * u
        path = self.dir / "inadmissible.json"
        path.write_text(json.dumps({"family": jsonio.family_to_json(fam),
                                    "x": jsonio.vector_to_json(space.Vector(far)),
                                    **jsonio.corridor_to_json(corr)}))
        pool.append((path, "thm2.1", ("inadmissible", "x")))

        data = ROOT / "data"
        pool.append((data / "centered_instance.json", "cor2.3", ("holds", None)))
        pool.append((data / "cor23_construction.json", "cor2.3", ("holds", None)))
        # a corridor-only file: check rejects it as an instance
        pool.append((data / "mfactor_sign_counterexample.json", "thm2.1",
                     ("error", "x: missing required field")))
        self.pool = pool
        self.op(pool[0])

    def _argv(self, inp) -> list[str]:
        path, bound, _ = inp
        return ["check", "--instance", os.path.relpath(path, ROOT), "--bound", bound]

    def op(self, inp):
        proc = subprocess.run(
            [sys.executable, "-m", "orthobound", *self._argv(inp)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def traced_op(self, inp):
        """``cli.main`` in this process, for the traced per-layer breakdown."""
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(self._argv(inp))
        finally:
            os.chdir(cwd)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, inp, out) -> tuple:
        _, bound, (kind, detail) = inp
        code, stdout, stderr = out
        if kind == "error":
            require(code == 1, f"exit code {code}, expected 1")
            require(stdout == "" and detail in stderr, f"stderr {stderr!r}")
            return code, stderr
        payload = json.loads(stdout)
        require(payload.get("bound") == bound, "bound echoed")
        if kind == "inadmissible":
            require(code == 2, f"exit code {code}, expected 2")
            require(payload.get("hypothesis_failed") == detail, "hypothesis_failed field")
            require(payload["report"]["holds"] is False, "report holds field")
        else:
            require(code == 0, f"exit code {code}, expected 0: {stderr.strip()}")
            require(payload.get("holds") is True, "holds field")
            chains = payload["chains"]
            require(bool(chains) and all(c["all_hold"] for c in chains.values()), "chain holds")
            require(all(h["holds"] for h in payload["hypothesis"].values()), "hypothesis holds")
            if bound == "cor2.5":
                require(len(chains) == 4, f"{len(chains)} reverse-Schwarz chains")
        return code, stdout


class QuadratureLarge(Workload):
    """Weighted-L2 certification on a large Gauss-Legendre grid."""

    name = "quadrature-large"
    LIFT = 0.5

    def __init__(self, seed: int, nodes: int = 2048, members: int = 16, pool_size: int = 32):
        super().__init__(seed)
        self.nodes = nodes
        self.members = members
        self.pool_size = pool_size

    def setup(self) -> None:
        grids = {
            "trig": space.gauss_legendre_grid(self.nodes, 0.0, 2.0 * math.pi),
            "legendre": space.gauss_legendre_grid(self.nodes, -1.0, 1.0),
        }
        bases = {
            "trig": family.trig_samples(self.members, grids["trig"]),
            "legendre": family.legendre_samples(self.members, grids["legendre"]),
        }
        rng = np.random.default_rng(derive_seed(self.seed, 5))
        pool = []
        for k in range(self.pool_size):
            kind = ("trig", "legendre")[k % 2]
            fns = bases[kind]
            table = np.stack([fi.values.real for fi in fns])
            # f = sum c_i f_i + t f_0 with member 0 constant and positive, so
            # m = c and M = c + LIFT e_0 bracket f at every node
            coeffs = rng.uniform(0.1, 1.0, self.members) / np.arange(1, self.members + 1)
            t = rng.uniform(0.2, 0.8) * self.LIFT
            f = space.SampledFunction(coeffs @ table + t * table[0], real_mode=True)
            big_m = coeffs.copy()
            big_m[0] += self.LIFT
            pool.append((f, fns, grids[kind], coeffs, big_m))
        self.pool = pool
        self.op(pool[0])

    def op(self, inp):
        f, fns, grid, m, big_m = inp
        sandwich = integral.sandwich_check(f, fns, grid, m, big_m)
        inst = integral.integral_instance(f, fns, grid, sandwich.corridor)
        chains = (inst.bessel_chain(), inst.quadratic_chain(), inst.linear_chain())
        return sandwich, inst, chains

    def check(self, inp, out) -> tuple:
        f, _, grid, _, _ = inp
        sandwich, inst, chains = out
        require(sandwich.passed, "sandwich")
        require(inst.report_x.holds, "admissibility of the embedded instance")
        require(all(c.all_hold for c in chains), "chain holds")
        norm_ref = math.sqrt(float(np.sum(grid.point_mass * f.values.real**2)))
        require(math.isclose(chains[2].values[0], norm_ref, rel_tol=1e-9), "weighted norm")
        return (
            sandwich.min_lower_margin,
            sandwich.min_upper_margin,
            inst.family.gram_residual,
            inst.report_x.cond_i_value,
            inst.report_x.cond_ii_residual,
            *(v for c in chains for v in c.values),
        )


WORKLOADS = {w.name: w for w in (FuzzCampaign, HypothesisScreen, CliCheck, QuadratureLarge)}

# (span name, module, attribute) of every traced boundary; the span name is
# the prefix of the layer's per-layer metrics.
TRACED = [
    ("space.tree_sum", "orthobound.space", "tree_sum"),
    ("space.Vector", "orthobound.space", "Vector"),
    ("space.embed", "orthobound.space", "embed"),
    ("family.random_family", "orthobound.family", "random_family"),
    ("family.OrthonormalFamily.coefficients", "orthobound.family", "OrthonormalFamily.coefficients"),
    ("family.validate_family", "orthobound.family", "validate_family"),
    ("admissibility.check_hypothesis", "orthobound.admissibility", "check_hypothesis"),
    ("admissibility.CorridorSpec.sample", "orthobound.admissibility", "CorridorSpec.sample"),
    ("admissibility.admissible_point", "orthobound.admissibility", "admissible_point"),
    ("admissibility.ScalarCorridor", "orthobound.admissibility", "ScalarCorridor"),
    *(
        (f"bounds.{fn}", "orthobound.bounds", fn)
        for fn in (
            "norm_bound_linear", "norm_bound_quadratic", "bessel_counterpart",
            "bessel_defect", "gruss_defect", "schwarz_counterparts",
            "gruss_refined_sqrt", "gruss_refined_midpoint", "schwarz_step",
            "gruss_bound", "single_vector_ratio_chain", "companion_bound", "m_factor",
        )
    ),
    ("fuzz.run_fuzz", "orthobound.fuzz", "run_fuzz"),
    ("integral.sandwich_check", "orthobound.integral", "sandwich_check"),
    ("integral.integral_instance", "orthobound.integral", "integral_instance"),
    ("jsonio.family_from_json", "orthobound.jsonio", "family_from_json"),
    ("jsonio.vector_from_json", "orthobound.jsonio", "vector_from_json"),
    ("jsonio.corridor_from_json", "orthobound.jsonio", "corridor_from_json"),
]
