"""Command-line front end: single-instance checks, fuzz campaigns, sweeps,
the refinement incomparability witnesses and the weighted-quadrature demo.

``check`` reads an instance file through :mod:`orthobound.jsonio` and runs
one entry of the catalog of bound selectors on it by
:func:`orthobound.catalog.evaluate`. The other commands import their engines
(fuzz, experiments, integral) when they run, so a ``check`` process never
loads them.

Exit codes: 0 when every requested hypothesis and chain holds, 2 when an
instance is inadmissible for the requested bound, 1 for argument, I/O or
validation problems. The split lets CI tell "bound violated" (a library bug)
apart from "instance inadmissible" (a user input problem).

``check --tolerance`` overrides the default admissibility tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import jsonio
from .admissibility import DEFAULT_HYPOTHESIS_TOL, CorridorSpec
from .catalog import KINDS, SWEEP_TARGETS, evaluate, parse_selector
from .errors import HypothesisFailed, InstanceFormatError, OrthoboundError
from .family import trig_samples, legendre_samples
from .space import SampledFunction, gauss_legendre_grid

SWEEP_EPS = "0.5,0.3,0.1,0.05,0.01,0.005,0.001"


def _tolerance(cli_value: float | None) -> float:
    """The admissibility tolerance: ``--tolerance``, which must be positive and
    finite, else the default."""
    if cli_value is None:
        return DEFAULT_HYPOTHESIS_TOL
    if not 0.0 < cli_value < math.inf:
        raise InstanceFormatError("--tolerance", "tolerance must be positive and finite")
    return cli_value


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fail(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 1


def _load_instance(path: str) -> dict:
    """The instance file's fields by name (see
    :func:`orthobound.jsonio.instance_from_json`)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=jsonio.parse_float)
    except OSError as exc:
        raise InstanceFormatError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(path, f"malformed JSON: {exc}") from exc
    return jsonio.instance_from_json(data)


def cmd_check(args) -> int:
    tol = _tolerance(args.tolerance)
    _, entry, _ = parse_selector(args.bound)  # a bad selector before a bad file
    inst = _load_instance(args.instance)
    payload: dict = {"bound": args.bound}
    try:
        chains = evaluate(args.bound, inst, tol)
    except HypothesisFailed as exc:
        payload["hypothesis_failed"] = exc.which
        payload["report"] = jsonio.report_to_json(exc.report)
        _emit(payload)
        return 2

    reports = zip(KINDS[entry.kind].reports, next(iter(chains.values())).reports, strict=True)
    payload["hypothesis"] = {k: jsonio.report_to_json(r) for k, r in reports}
    payload["chains"] = {}
    for chain_name, chain in chains.items():
        encoded = jsonio.chain_to_json(chain)
        if chain.values[-1] != 0.0:
            encoded["ratio"] = chain.values[-2] / chain.values[-1]
        payload["chains"][chain_name] = encoded
    chains_hold = all(c.all_hold for c in chains.values())
    payload["holds"] = chains_hold
    _emit(payload)
    return 0 if chains_hold else 1


def cmd_fuzz(args) -> int:
    from .fuzz import FuzzConfig, run_fuzz

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
    from .experiments import sharpness_sweep, sweep_rows_to_csv

    if not args.eps:
        return _fail("empty epsilon list; no file written")
    rows = sharpness_sweep(args.target, args.eps)
    csv_text = sweep_rows_to_csv(rows)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    _emit({"target": args.target, "rows": len(rows), "out": args.out})
    return 0


def _witness_to_json(w) -> dict:
    """A :class:`~orthobound.experiments.ComparisonWitness` with its instance
    in the instance-file format that ``check`` reads."""
    return {
        "direction": w.direction,
        "trial": w.trial,
        "refined_sqrt": w.refined_sqrt,
        "refined_midpoint": w.refined_midpoint,
        "margin": w.margin,
        "instance": jsonio.instance_to_json(w.instance),
    }


def cmd_witnesses(args) -> int:
    from .experiments import bound_comparison_search

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
    from .integral import integral_instance, sandwich_check

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
    table = np.stack([fi.values for fi in fam_fns])
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
    p_sweep.add_argument("--eps", type=_numbers_arg, default=SWEEP_EPS,
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
    try:
        lo, hi = map(float, raw.split(","))
    except ValueError:  # not two parts, or a part that is not a number
        raise argparse.ArgumentTypeError("expected LO,HI") from None
    return lo, hi


def _numbers_arg(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated numbers") from None


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has written the usage line and message
        return 1 if exc.code else 0  # exit 2 means an inadmissible instance here
    try:
        return args.func(args)
    except HypothesisFailed as exc:
        sys.stderr.write(f"inadmissible: {exc}\n")
        return 2
    except (OrthoboundError, OSError, ValueError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
