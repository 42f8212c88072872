"""JSON encodings for vectors, grids, families, corridors, and reports.

Complex scalars travel as two-element arrays [re, im]; decoding also accepts
bare numbers for real data. Decode errors carry the path of the offending
field.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from .admissibility import HypothesisReport, ScalarCorridor
from .bounds import BoundChain
from .errors import InstanceFormatError
from .family import DEFAULT_TOLERANCE, OrthonormalFamily, validate_family
from .space import QuadratureGrid, SampledFunction, Vector


def scalar_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def scalar_from_json(data: Any, path: str) -> complex:
    if isinstance(data, (int, float)) and not isinstance(data, bool):
        return complex(data)
    if (
        isinstance(data, (list, tuple))
        and len(data) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in data)
    ):
        return complex(data[0], data[1])
    raise InstanceFormatError(path, "expected a number or a [re, im] pair")


def vector_to_json(v: Vector) -> list[list[float]]:
    return [scalar_to_json(z) for z in v.coords]


def _at(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ValueError it raises reported at ``path``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise InstanceFormatError(path, str(exc)) from exc


def _sampled(data: Any, path: str, build):
    """The :class:`Vector` or :class:`SampledFunction` ``build`` of the
    scalars at ``path``, real when no scalar has an imaginary part."""
    arr = np.array(scalars_from_json(data, path), dtype=np.complex128)
    return _at(path, build, arr, real_mode=not np.any(arr.imag != 0.0))


def vector_from_json(data: Any, path: str) -> Vector:
    return _sampled(data, path, Vector)


def scalars_from_json(data: Any, path: str) -> list[complex]:
    if not isinstance(data, list) or not data:
        raise InstanceFormatError(path, "expected a nonempty list of scalars")
    return [scalar_from_json(v, f"{path}[{k}]") for k, v in enumerate(data)]


def grid_to_json(grid: QuadratureGrid) -> dict:
    return {
        "nodes": [float(v) for v in grid.nodes],
        "weights": [float(v) for v in grid.weights],
        "rho": [float(v) for v in grid.density],
    }


def grid_from_json(data: Any, path: str = "grid") -> QuadratureGrid:
    if not isinstance(data, Mapping):
        raise InstanceFormatError(path, "expected an object with nodes/weights/rho")
    return _at(path, QuadratureGrid, data.get("nodes", []), data.get("weights", []),
               data.get("rho", []))


def function_to_json(f: SampledFunction) -> list[list[float]]:
    return [scalar_to_json(z) for z in f.values]


def function_from_json(data: Any, path: str) -> SampledFunction:
    return _sampled(data, path, SampledFunction)


def family_to_json(fam: OrthonormalFamily) -> dict:
    return {
        "members": [vector_to_json(v) for v in fam.members],
        "gram_residual": fam.gram_residual,
        "tolerance": fam.tolerance,
    }


def family_from_json(data: Any, path: str = "family") -> OrthonormalFamily:
    if not isinstance(data, Mapping) or "members" not in data:
        raise InstanceFormatError(path, "expected an object with a 'members' list")
    raw = data["members"]
    if not isinstance(raw, list) or not raw:
        raise InstanceFormatError(f"{path}.members", "expected a nonempty list")
    members = [
        vector_from_json(m, f"{path}.members[{k}]") for k, m in enumerate(raw)
    ]
    tolerance = data.get("tolerance", DEFAULT_TOLERANCE)
    if not isinstance(tolerance, (int, float)) or not tolerance > 0:
        raise InstanceFormatError(f"{path}.tolerance", "expected a positive number")
    try:
        return validate_family(members, float(tolerance))
    except Exception as exc:
        raise InstanceFormatError(path, str(exc)) from exc


def corridor_to_json(c: ScalarCorridor) -> dict:
    return {
        "phi": [scalar_to_json(z) for z in c.lo],
        "Phi": [scalar_to_json(z) for z in c.hi],
    }


def corridor_from_json(
    lo_data: Any, hi_data: Any, path: str = ""
) -> ScalarCorridor:
    """Each side is decoded, and checked finite, at its own path; sides too
    large for the aggregates raise :class:`NonfiniteCorridor`."""
    lo = _sampled(lo_data, f"{path}phi", Vector)
    hi = _sampled(hi_data, f"{path}Phi", Vector)
    if lo.dim != hi.dim:
        raise InstanceFormatError(
            f"{path}Phi", f"length {hi.dim} does not match phi length {lo.dim}"
        )
    return ScalarCorridor(lo.coords, hi.coords, real_mode=lo.real_mode and hi.real_mode)


def report_to_json(report: HypothesisReport) -> dict:
    return {
        "cond_i_value": report.cond_i_value,
        "cond_ii_residual": report.cond_ii_residual,
        "radius": report.radius,
        "holds": report.holds,
    }


def chain_to_json(chain: BoundChain) -> dict:
    return {
        "labels": list(chain.labels),
        "values": list(chain.values),
        "all_hold": chain.all_hold,
        "slacks": list(chain.slacks),
        "verified": chain.verified,
    }
