"""Command-line front end: single-instance checks, fuzz campaigns, sweeps,
the refinement incomparability witnesses and the weighted-quadrature demo.

``check`` runs one entry of the catalog of bound selectors,
:data:`orthobound.catalog.SELECTORS`: each entry names the instance fields
it needs and the public :mod:`orthobound.bounds` functions it calls.

Exit codes: 0 when every requested hypothesis and chain holds, 2 when an
instance is inadmissible for the requested bound, 1 for I/O or validation
problems. The split lets CI tell "bound violated" (a library bug) apart from
"instance inadmissible" (a user input problem).

The environment variable ORTHOBOUND_TOL overrides the default admissibility
tolerance, and ``check --tolerance`` overrides both.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import bounds, jsonio
from .admissibility import DEFAULT_HYPOTHESIS_TOL, CorridorSpec
from .catalog import SELECTORS, Selector
from .errors import HypothesisFailed, InstanceFormatError, OrthoboundError
from .experiments import (
    SWEEP_TARGETS,
    bound_comparison_search,
    sharpness_sweep,
    sweep_rows_to_csv,
)
from .family import trig_samples, legendre_samples
from .fuzz import FuzzConfig, run_fuzz
from .integral import integral_instance, sandwich_check
from .space import SampledFunction, gauss_legendre_grid

SWEEP_EPS = "0.5,0.3,0.1,0.05,0.01,0.005,0.001"


def _tolerance(cli_value: float | None) -> float:
    """The admissibility tolerance: ``--tolerance``, else ORTHOBOUND_TOL, else
    the default; either source must give a positive finite number."""
    source, raw = "--tolerance", cli_value
    if raw is None:
        source, raw = "ORTHOBOUND_TOL", os.environ.get("ORTHOBOUND_TOL")
        if raw is None:
            return DEFAULT_HYPOTHESIS_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise InstanceFormatError(source, f"not a number: {raw!r}") from exc
    if not 0.0 < tol < math.inf:
        raise InstanceFormatError(source, "tolerance must be positive and finite")
    return tol


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 1


def _corridor(data: dict, lo: str, hi: str, path: str = ""):
    if lo not in data and hi not in data:
        return None
    if lo not in data or hi not in data:
        raise InstanceFormatError(f"{lo}/{hi}", "both corridor sides are required")
    return jsonio.corridor_from_json(data[lo], data[hi], path)


def _load_instance(path: str) -> dict:
    """The instance file's values by field name; absent fields are None."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceFormatError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(path, f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceFormatError("$", "instance must be a JSON object")
    if "x" not in data:
        raise InstanceFormatError("x", "missing required field")

    def field(key, decode):
        return decode(data[key], key) if key in data else None

    return {
        "family": field("family", jsonio.family_from_json),
        "x": jsonio.vector_from_json(data["x"], "x"),
        "phi/Phi": _corridor(data, "phi", "Phi"),
        "y": field("y", jsonio.vector_from_json),
        "gamma/Gamma": _corridor(data, "gamma", "Gamma", "y corridor "),
        "delta": field("delta", jsonio.scalar_from_json),
        "Delta": field("Delta", jsonio.scalar_from_json),
    }


def _parse_selector(raw: str) -> tuple[str, Selector, dict]:
    """A ``--bound`` value: its catalog name, entry and keyword arguments."""
    name, colon, tail = raw.partition(":")
    entry = SELECTORS.get(name)
    if entry is None or entry.fields is None or bool(colon) != (entry.params is not None):
        raise InstanceFormatError("--bound", f"unknown bound selector {raw!r}")
    return name, entry, entry.params(raw, tail) if colon else {}


def _evaluate(entry: Selector, inst: dict, params: dict, tol: float, force: bool) -> dict:
    """The chains of a selector by JSON name, in call order."""
    vectors = ["x"] + [f for f in entry.fields if f == "y"]
    args = [inst[f] for f in vectors + [f for f in entry.fields if f != "y"]]
    chains: dict[str, bounds.BoundChain] = {}
    for chain in entry.chains:
        if chain.when is None or chain.when(bounds._pair(*args)):
            # looked up at call time, so a patched bounds function takes effect
            result = getattr(bounds, chain.function)(*args, **params, tol=tol, force=force)
            chains.update(result.chains() if chain.name is None else {chain.name: result})
    return chains


def cmd_check(args) -> int:
    tol = _tolerance(args.tolerance)
    name, entry, params = _parse_selector(args.bound)
    inst = _load_instance(args.instance)
    missing = [field for field in entry.fields if inst[field] is None]
    if missing:
        raise InstanceFormatError(",".join(missing), f"required by bound selector {name!r}")
    payload: dict = {"bound": args.bound}
    try:
        chains = _evaluate(entry, inst, params, tol, args.force)
    except HypothesisFailed as exc:
        payload["hypothesis_failed"] = exc.which
        payload["report"] = jsonio.report_to_json(exc.report)
        _emit(payload)
        return 2

    reports = dict(zip(entry.hypotheses, next(iter(chains.values())).reports))
    payload["hypothesis"] = {k: jsonio.report_to_json(r) for k, r in reports.items()}
    payload["chains"] = {}
    for chain_name, chain in chains.items():
        encoded = jsonio.chain_to_json(chain)
        if chain.values[-1] != 0.0:
            encoded["ratio"] = chain.values[-2] / chain.values[-1]
        payload["chains"][chain_name] = encoded
    hyps_hold = all(r.holds for r in reports.values())
    chains_hold = all(c.all_hold for c in chains.values())
    payload["holds"] = hyps_hold and chains_hold
    _emit(payload)
    if not hyps_hold:
        return 2
    return 0 if chains_hold else 1


def cmd_fuzz(args) -> int:
    lo, hi = args.center_range
    spec = CorridorSpec(
        mode=args.mode, center_low=lo, center_high=hi, width_high=args.width
    )
    config = FuzzConfig(
        seed=args.seed,
        count=args.count,
        dim=args.dim,
        family_size=args.family,
        mode=args.mode,
        corridor=spec,
    )
    summary = run_fuzz(config)
    _emit(
        {
            "seed": args.seed,
            "count": args.count,
            "evaluated": summary.evaluated,
            "rejected": summary.rejected,
            "violations": summary.violations,
            "min_slack": {k: summary.min_slack[k] for k in sorted(summary.min_slack)},
            "checked": {k: summary.checked[k] for k in sorted(summary.checked)},
        }
    )
    return 0 if summary.ok else 1


def cmd_sweep(args) -> int:
    eps = [float(tok) for tok in args.eps.split(",") if tok.strip()]
    if not eps:
        return _fail("empty epsilon list; no file written")
    rows = sharpness_sweep(args.target, eps)
    csv_text = sweep_rows_to_csv(rows)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    _emit({"target": args.target, "rows": len(rows), "out": args.out})
    return 0


def _witness_to_json(w) -> dict:
    """A :class:`~orthobound.experiments.ComparisonWitness` with its instance
    in the instance-file format that ``check`` reads."""
    cy = jsonio.corridor_to_json(w.cy)
    return {
        "direction": w.direction,
        "trial": w.trial,
        "refined_sqrt": w.refined_sqrt,
        "refined_midpoint": w.refined_midpoint,
        "margin": w.margin,
        "instance": {
            "family": jsonio.family_to_json(w.family),
            "x": jsonio.vector_to_json(w.x),
            "y": jsonio.vector_to_json(w.y),
            **jsonio.corridor_to_json(w.cx),
            "gamma": cy["phi"],
            "Gamma": cy["Phi"],
        },
    }


def cmd_witnesses(args) -> int:
    result = bound_comparison_search(args.seed, args.trials)
    witnesses = {
        "seed": args.seed,
        "trials_used": result.trials_used,
        "sqrt_tighter": _witness_to_json(result.sqrt_tighter),
        "midpoint_tighter": _witness_to_json(result.midpoint_tighter),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(witnesses, fh, indent=2, sort_keys=True)
    _emit({"seed": args.seed, "trials_used": result.trials_used, "out": args.out})
    return 0


def cmd_integral_demo(args) -> int:
    if args.family == "trig":
        grid = gauss_legendre_grid(args.nodes, 0.0, 2.0 * np.pi)
        fam_fns = trig_samples(args.count, grid)
    else:
        grid = gauss_legendre_grid(args.nodes, -1.0, 1.0)
        fam_fns = legendre_samples(args.count, grid)

    # Deterministic sandwich instance: f = sum c_i f_i + lift * f_0 / 2 with
    # M raised on the constant member only, so the bracketing holds pointwise.
    count = len(fam_fns)
    coeffs = np.array([1.0 / (i + 1.0) for i in range(count)])
    lift = 0.5
    table = np.stack([fi.values.real for fi in fam_fns])
    f = SampledFunction(coeffs @ table + 0.5 * lift * table[0], real_mode=True)
    m = coeffs.copy()
    big_m = coeffs.copy()
    big_m[0] += lift
    sandwich = sandwich_check(f, fam_fns, grid, m, big_m)
    inst = integral_instance(f, fam_fns, grid, sandwich.corridor)
    chains = {
        "bessel_counterpart": inst.bessel_chain(),
        "quadratic": inst.quadratic_chain(),
        "linear": inst.linear_chain(),
    }
    payload = {
        "family": args.family,
        "nodes": args.nodes,
        "count": count,
        "gram_residual": inst.family.gram_residual,
        "sandwich": {
            "min_lower_margin": sandwich.min_lower_margin,
            "min_upper_margin": sandwich.min_upper_margin,
        },
        "hypothesis": jsonio.report_to_json(inst.report_x),
        "chains": {k: jsonio.chain_to_json(c) for k, c in chains.items()},
    }
    _emit(payload)
    ok = inst.report_x.holds and all(c.all_hold for c in chains.values())
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthobound",
        description="Evaluate and stress-test corridor bounds over orthonormal families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate one instance file")
    p_check.add_argument("--instance", required=True, help="instance JSON file")
    p_check.add_argument("--bound", required=True, help="bound selector")
    p_check.add_argument("--tolerance", type=float, default=None)
    p_check.add_argument("--force", action="store_true",
                         help="evaluate even when the hypothesis fails")
    p_check.set_defaults(func=cmd_check)

    p_fuzz = sub.add_parser("fuzz", help="random admissible instances through every bound")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--count", type=int, default=100)
    p_fuzz.add_argument("--dim", type=int, default=8)
    p_fuzz.add_argument("--family", type=int, default=4)
    p_fuzz.add_argument("--mode", choices=("real", "complex"), default="complex")
    p_fuzz.add_argument("--center-range", type=_range_arg, default=(1.0, 2.0),
                        metavar="LO,HI", help="corridor center range")
    p_fuzz.add_argument("--width", type=float, default=0.9,
                        help="max corridor half-width")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_sweep = sub.add_parser("sweep", help="sharpness sweep along the extremal family")
    p_sweep.add_argument("--target", choices=SWEEP_TARGETS, required=True)
    p_sweep.add_argument("--eps", default=SWEEP_EPS,
                         help="comma-separated values in (0,1) (default: %(default)s)")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_wit = sub.add_parser("witnesses",
                           help="instances on which each pair refinement beats the other")
    p_wit.add_argument("--seed", type=int, default=7)
    p_wit.add_argument("--trials", type=int, default=10_000, help="search budget")
    p_wit.add_argument("--out", default="witnesses.json", help="JSON output path")
    p_wit.set_defaults(func=cmd_witnesses)

    p_demo = sub.add_parser("integral-demo", help="weighted-quadrature demonstration")
    p_demo.add_argument("--family", choices=("trig", "legendre"), required=True)
    p_demo.add_argument("--nodes", type=int, default=64)
    p_demo.add_argument("--count", type=int, default=5)
    p_demo.set_defaults(func=cmd_integral_demo)
    return parser


def _range_arg(raw: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected LO,HI")
    return float(parts[0]), float(parts[1])


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisFailed as exc:
        sys.stderr.write(f"inadmissible: {exc}\n")
        return 2
    except (OrthoboundError, OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
