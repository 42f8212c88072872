"""The public bounds' outcomes over a fixed sweep of good and bad arguments,
pinned by digest: each call's value bits, hypothesis reports, or error type
and message.

The sweep crosses one- and two-member families (real and complex) with
good, far, zero, 1e200, complex and wrong-length vectors; positive,
nonpositive and mismatched corridors; bad tolerances and lambdas; non-finite
or nonpositive (delta, Delta); and random mixed real/complex instances. A
refactor of the admission path that moves a rule, a message or a bit
changes the digest of the public function whose call moved: each function's
lines are digested on their own. On a mismatch, ``python
tests/test_error_order.py`` prints one line per call, to diff against a
checkout of the previous commit.
"""

import hashlib
import math
import warnings

import numpy as np

from orthobound import (
    BoundChain,
    CorridorSpec,
    HypothesisReport,
    MFactor,
    OrthoboundError,
    ScalarCorridor,
    SchwarzCounterparts,
    Vector,
    admissible_point,
    bessel_counterpart,
    bessel_defect,
    check_hypothesis,
    companion_bound,
    gruss_bound,
    gruss_defect,
    gruss_refined_midpoint,
    gruss_refined_sqrt,
    m_factor,
    norm_bound_linear,
    norm_bound_quadratic,
    random_family,
    schwarz_counterparts,
    schwarz_step,
    single_vector_ratio_chain,
)

SWEEP_CALLS = 16_526
# The sha256 of each public function's lines, in sweep order, by function.
SWEEP_SHA256 = {
    "bessel_counterpart": "de66b44d2c6840e6237fe596790eca11b01b00624cdb320defb7963712861136",
    "bessel_defect": "1d8979ccfcd48881d68c7cecf433e10e07c89756aa923ff32d42d5e84e181685",
    "check_hypothesis": "a51bd42e5a9aea1f88e676bb444a441d4b8294eb5c24636e9b3caaf6101e470f",
    "companion_bound": "2edd8ffcefc155382483ab525465ddd2e65f9f3a7ece198283b9ca0342f459c8",
    "gruss_bound": "280cb298574011b8cc1567163e37f3d7841d452115e9b4df4bcf79da11ed025c",
    "gruss_defect": "115c73e271591e3693f477ef7ad560adf3dfae8fd1341e11e75712f790a163ce",
    "gruss_refined_midpoint": "b6246db53ea92c17166f79534922d6243670bba5be6bf9b8869be45aa69cc524",
    "gruss_refined_sqrt": "13d6290c6e09410d04b5801ee5008577de693f56ae957826c9a7d7275abaf32a",
    "m_factor": "1bc8da2c03171f28be73ecf32586baa8fbd3752b0f33827df67ad6e744c9765b",
    "norm_bound_linear": "8b6044435a73962a73f21a5629c49a4a5fb180f90d258329cfa2809d22d7a0df",
    "norm_bound_quadratic": "54496444f8171152ed7d540daa84d8df0e0b3c6668b40a4439a965bfbc75b857",
    "schwarz_counterparts": "75a03c32aeb46ccdc6e323a30d7ee70d43d315226df4959a6882c37f052ee860",
    "schwarz_step": "24882b665bf13d9f2673f97aeaae6c700b21dbbe4bbacce21ffecdf0be8b3f56",
    "single_vector_ratio_chain": "bc224f24d1d797dc9fdd1f00c65046fb52567faf2f4c7ffeb714396a1eb34c46",
}

# The public function each label names, by the label's first field.
_FUNCTIONS = {
    "check_hypothesis": "check_hypothesis",
    "linear": "norm_bound_linear",
    "quadratic": "norm_bound_quadratic",
    "counterpart": "bessel_counterpart",
    "sqrt": "gruss_refined_sqrt",
    "midpoint": "gruss_refined_midpoint",
    "gruss": "gruss_bound",
    "ratio": "single_vector_ratio_chain",
    "bessel_defect": "bessel_defect",
    "gruss_defect": "gruss_defect",
    "schwarz_step": "schwarz_step",
    "companion": "companion_bound",
    "companion-z": "companion_bound",
    "schwarz": "schwarz_counterparts",
    "m_factor": "m_factor",
}

_TOLS = (1e-10, 0.0, -1.0, math.inf, math.nan, 1e6)
_PAIR_TOLS = (1e-10, math.nan)
_LAMS = (0.5, 0.0, 1.0, math.nan, 0.25)
_ENDS = ((1.0, 2.0), (1 + 1j, 2 - 0.5j), (math.inf, 2.0), (1.0, math.nan), (-1.0, 1.0),
         (0.0, 0.0), (2.0, 1.0), (1e300, 1e300))
_VARIANTS = (("cbs", None), ("holder", 3.0), ("holder", 0.5), ("max_sum", None),
             ("sum_max", None), ("bogus", None))


def _bits(values) -> str:
    return np.asarray(values, dtype=np.float64).tobytes().hex()


def _encode(out):
    if isinstance(out, BoundChain):
        return ("chain", out.labels, _bits(out.values), tuple(map(_encode, out.reports)))
    if isinstance(out, HypothesisReport):
        return ("report", _bits([out.cond_i_value, out.cond_ii_residual, out.radius]), out.holds)
    if isinstance(out, SchwarzCounterparts):
        return ("schwarz", tuple(map(_encode, out.chains().values())), _encode(out.report))
    if isinstance(out, MFactor):
        return ("m", _bits([out.value, *out.numerator_terms, out.denominator]))
    return ("scalar", np.complex128(out).tobytes().hex())


def _outcome(call) -> tuple:
    try:
        return _encode(call())
    except (OrthoboundError, ArithmeticError, ValueError, RuntimeWarning) as exc:
        return type(exc).__name__, str(exc)


def _families(rng):
    for count in (1, 2):
        for real in (True, False):
            yield f"{'real' if real else 'cplx'}{count}", random_family(3, count, rng, real=real)


def _corridors(rng, fam):
    k, mode = fam.count, "real" if fam.real_mode else "complex"
    yield "pos", CorridorSpec(mode).sample(k, rng)
    if fam.real_mode:
        yield "pos-cplx", CorridorSpec("complex").sample(k, rng)
    yield "nonpos", ScalarCorridor(-np.ones(k), np.ones(k), True)
    yield "mismatch", CorridorSpec(mode).sample(k + 1, rng)


def _vectors(rng, fam, corridor):
    good = admissible_point(fam, corridor, rng, 0.5)
    real = good.real_mode
    yield "good", good
    yield "far", Vector(5.0 * good.coords + 3.0, real)
    yield "zero", Vector(np.zeros(fam.dim), real)
    yield "huge", Vector(1e200 * good.coords, real)
    yield "cplx", Vector(good.coords + 0.5j)
    yield "dim", Vector(np.ones(fam.dim + 1), real)


def _single_calls(fam, c, x, tol):
    yield "check_hypothesis", lambda: check_hypothesis(x, fam, c, tol)
    yield "linear", lambda: norm_bound_linear(x, fam, c, tol)
    for variant, p in _VARIANTS:
        yield f"quadratic:{variant}:{p}", lambda: norm_bound_quadratic(x, fam, c, variant, p, tol)
    yield "counterpart", lambda: bessel_counterpart(x, fam, c, tol)


def _pair_calls(fam, cx, cy, x, y, tol):
    for name, fn in (("sqrt", gruss_refined_sqrt), ("midpoint", gruss_refined_midpoint),
                     ("gruss", gruss_bound), ("ratio", single_vector_ratio_chain)):
        yield name, lambda fn=fn: fn(x, y, fam, cx, cy, tol)


def _free_calls(fam, x, y):
    yield "bessel_defect", lambda: bessel_defect(x, fam)
    yield "gruss_defect", lambda: gruss_defect(x, y, fam)
    yield "schwarz_step", lambda: schwarz_step(x, y, fam)


def _sweep_calls():
    rng = np.random.default_rng(2024)
    for fname, fam in _families(rng):
        corridors = dict(_corridors(rng, fam))
        pos = corridors["pos"]
        vectors = dict(_vectors(rng, fam, pos))
        for cname, c in corridors.items():
            yield f"m_factor|{fname}|{cname}", lambda c=c: m_factor(c)
            for vname, x in vectors.items():
                for tol in _TOLS:
                    for name, call in _single_calls(fam, c, x, tol):
                        yield f"{name}|{fname}|{cname}|{vname}|{tol!r}", call
        pairs = [("pos", "pos"), ("pos", "nonpos"), ("nonpos", "pos"), ("pos", "mismatch"),
                 ("mismatch", "pos")]
        for (nx, ny) in pairs:
            cx, cy = corridors[nx], corridors[ny]
            for (vx, x) in vectors.items():
                for (vy, y) in vectors.items():
                    for tol in _PAIR_TOLS:
                        for name, call in _pair_calls(fam, cx, cy, x, y, tol):
                            yield f"{name}|{fname}|{nx},{ny}|{vx},{vy}|{tol!r}", call
        for (vx, x) in vectors.items():
            for (vy, y) in vectors.items():
                for name, call in _free_calls(fam, x, y):
                    yield f"{name}|{fname}|{vx},{vy}", call
                for lam in _LAMS:
                    for cname in ("pos", "nonpos", "mismatch"):
                        c = corridors[cname]
                        yield (f"companion|{fname}|{cname}|{vx},{vy}|{lam!r}",
                               lambda x=x, y=y, c=c, lam=lam: companion_bound(x, y, fam, c, lam))
                # y solved from an admissible z, so that z = lam*x + (1-lam)*y is admitted
                z = admissible_point(fam, pos, rng, 0.5)
                if x.dim == z.dim:
                    yb = Vector(2.0 * z.coords - x.coords, x.real_mode and z.real_mode)
                    for tol in _PAIR_TOLS:
                        yield (f"companion-z|{fname}|{vx}|{tol!r}",
                               lambda x=x, yb=yb, tol=tol:
                               companion_bound(x, yb, fam, pos, 0.5, tol))
                for delta, Delta in _ENDS:
                    for tol in _PAIR_TOLS:
                        yield (f"schwarz|{fname}|{vx},{vy}|{delta!r},{Delta!r}|{tol!r}",
                               lambda x=x, y=y, d=delta, D=Delta, tol=tol:
                               schwarz_counterparts(x, y, d, D, tol))
    for k in range(60):  # random mixed real/complex instances
        count = int(rng.integers(1, 4))
        fam = random_family(4, count, rng, real=bool(rng.integers(2)))
        cx, cy = (CorridorSpec(("real", "complex")[int(rng.integers(2))]).sample(count, rng)
                  for _ in range(2))
        x, y = (admissible_point(fam, c, rng, float(rng.uniform())) for c in (cx, cy))
        if k % 3 == 0:  # pushed out of its ball, maybe out of the corridor
            x = Vector(1.3 * x.coords, x.real_mode)
        label = f"random{k}"
        for name, call in _single_calls(fam, cx, x, 1e-10):
            yield f"{name}|{label}", call
        for name, call in _pair_calls(fam, cx, cy, x, y, 1e-10):
            yield f"{name}|{label}", call
        for name, call in _free_calls(fam, x, y):
            yield f"{name}|{label}", call
        yield f"companion|{label}", lambda fam=fam, x=x, y=y, cx=cx: companion_bound(
            x, y, fam, cx, 0.5)
        yield f"schwarz|{label}", lambda x=x, y=y, cx=cx: schwarz_counterparts(
            x, y, cx.lo[0], cx.hi[0])


def sweep_lines() -> list[str]:
    """One line per call: its label and its encoded outcome. A RuntimeWarning
    is raised (and recorded) whatever the caller's warning filters."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return [f"{label} -> {_outcome(call)!r}" for label, call in _sweep_calls()]


def sweep_digests(lines: list[str]) -> dict[str, str]:
    """The sha256 of each public function's lines, in sweep order, by function."""
    by_function: dict[str, list[str]] = {}
    for line in lines:
        name = _FUNCTIONS[line.split("|", 1)[0].split(":", 1)[0]]
        by_function.setdefault(name, []).append(line)
    return {
        name: hashlib.sha256("\n".join(group).encode()).hexdigest()
        for name, group in sorted(by_function.items())
    }


def test_the_error_order_sweep_is_unchanged():
    lines = sweep_lines()
    outcomes = "\n".join(lines)
    for kind in ("'chain'", "'report'", "'schwarz'", "'m'", "'scalar'", "'HypothesisFailed'",
                 "'DimensionMismatch'", "'NonpositiveReSum'", "'FloatRangeExceeded'",
                 "'ZeroVector'", "'BadLambda'", "'BadExponent'", "'NonfiniteCorridor'",
                 "'ValueError'"):
        assert kind in outcomes, kind
    assert "'RuntimeWarning'" not in outcomes  # an overflow raises FloatRangeExceeded
    assert "broadcast" not in outcomes  # a dim mismatch raises DimensionMismatch
    assert len(lines) == SWEEP_CALLS
    assert sweep_digests(lines) == SWEEP_SHA256


if __name__ == "__main__":
    print("\n".join(sweep_lines()))
