"""JSON encodings for scalars, vectors, families, corridors, reports, and
the instance files that ``orthobound check`` reads.

Complex scalars travel as two-element arrays [re, im]; decoding also accepts
bare numbers for real data. Decode errors carry the path of the offending
field. The instance-file format is written once, in :data:`_FIELDS`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Mapping

import numpy as np

from .admissibility import HypothesisReport, ScalarCorridor
from .bounds import BoundChain
from .errors import InstanceFormatError
from .family import DEFAULT_TOLERANCE, OrthonormalFamily, validate_family
from .space import Vector


def scalar_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _is_number(data: Any) -> bool:
    return isinstance(data, (int, float)) and not isinstance(data, bool)


def parse_float(literal: str) -> Any:
    """``json.load``'s hook for instance files: a float literal that overflows
    reads as its bytes, a type no JSON value has, not as inf (``NaN`` and
    ``Infinity`` are not float literals)."""
    return literal.encode() if math.isinf(value := float(literal)) else value


def scalar_from_json(data: Any, path: str) -> complex:
    try:
        if _is_number(data):
            return complex(data)
        if isinstance(data, (list, tuple)) and len(data) == 2 and all(map(_is_number, data)):
            return complex(data[0], data[1])
    except OverflowError:  # a JSON integer beyond the float range
        raise InstanceFormatError(path, "integer too large for a float") from None
    if any(isinstance(part, bytes) for part in (data if isinstance(data, list) else [data])):
        raise InstanceFormatError(path, "number too large for a float")
    raise InstanceFormatError(path, "expected a number or a [re, im] pair")


def vector_to_json(v: Vector) -> list[list[float]]:
    return [scalar_to_json(z) for z in v.coords]


def vector_from_json(data: Any, path: str) -> Vector:
    """The :class:`Vector` of the scalars at ``path``, real when no scalar
    has an imaginary part; a ValueError it raises is reported at ``path``."""
    arr = np.array(scalars_from_json(data, path), dtype=np.complex128)
    try:
        return Vector(arr, real_mode=not np.any(arr.imag != 0.0))
    except ValueError as exc:
        raise InstanceFormatError(path, str(exc)) from exc


def scalars_from_json(data: Any, path: str) -> list[complex]:
    if not isinstance(data, list) or not data:
        raise InstanceFormatError(path, "expected a nonempty list of scalars")
    return [scalar_from_json(v, f"{path}[{k}]") for k, v in enumerate(data)]


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
    try:
        tolerance = float(tolerance) if _is_number(tolerance) else math.nan
    except OverflowError:  # a JSON integer beyond the float range
        tolerance = math.inf
    if not 0.0 < tolerance < math.inf:
        raise InstanceFormatError(f"{path}.tolerance", "expected a positive finite number")
    try:
        return validate_family(members, tolerance)
    except Exception as exc:
        raise InstanceFormatError(path, str(exc)) from exc


def corridor_to_json(c: ScalarCorridor, lo_key: str = "phi", hi_key: str = "Phi") -> dict:
    return {
        lo_key: [scalar_to_json(z) for z in c.lo],
        hi_key: [scalar_to_json(z) for z in c.hi],
    }


def corridor_from_json(
    lo_data: Any, hi_data: Any, lo_key: str = "phi", hi_key: str = "Phi"
) -> ScalarCorridor:
    """Each side is decoded, and checked finite, at its own key; sides too
    large for the aggregates raise :class:`NonfiniteCorridor`."""
    lo = vector_from_json(lo_data, lo_key)
    hi = vector_from_json(hi_data, hi_key)
    if lo.dim != hi.dim:
        raise InstanceFormatError(
            hi_key, f"length {hi.dim} does not match {lo_key} length {lo.dim}"
        )
    return ScalarCorridor(lo.coords, hi.coords, real_mode=lo.real_mode and hi.real_mode)


# The fields of an instance file in decode order, each with the type of its
# value, whose codec is <type>_from_json and <type>_to_json. A corridor field
# is named "lo/hi" after the keys of its two sides.
_FIELDS = {
    "family": "family",
    "x": "vector",
    "phi/Phi": "corridor",
    "y": "vector",
    "gamma/Gamma": "corridor",
    "delta": "scalar",
    "Delta": "scalar",
}
FAMILY, X, X_CORRIDOR, Y, Y_CORRIDOR, DELTA_LO, DELTA_HI = _FIELDS


def _codec(name: str, way: str) -> Callable:
    """A codec of field ``name``, looked up at call time, so that a patched
    one takes effect."""
    return globals()[f"{_FIELDS[name]}_{way}_json"]


def instance_from_json(data: Any) -> dict:
    """Every field of an instance file by name, in decode order; a field the
    file does not give is None. x is required, and a corridor needs both
    sides. Every field given is decoded, whichever bound reads it."""
    if not isinstance(data, dict):
        raise InstanceFormatError("$", "instance must be a JSON object")
    if X not in data:
        raise InstanceFormatError(X, "missing required field")
    fields = {}
    for name in _FIELDS:
        keys = name.split("/")
        given = [key in data for key in keys]
        if any(given) and not all(given):
            raise InstanceFormatError(name, "both corridor sides are required")
        decode = _codec(name, "from")
        fields[name] = decode(*(data[key] for key in keys), *keys) if all(given) else None
    return fields


def instance_to_json(fields: Mapping) -> dict:
    """The instance file of ``fields``, values by field name."""
    data = {}
    for name, value in fields.items():
        if "/" in name:
            data.update(_codec(name, "to")(value, *name.split("/")))
        else:
            data[name] = _codec(name, "to")(value)
    return data


def report_to_json(report: HypothesisReport) -> dict:
    return dataclasses.asdict(report)


def chain_to_json(chain: BoundChain) -> dict:
    return {
        "labels": list(chain.labels),
        "values": list(chain.values),
        "all_hold": chain.all_hold,
        "slacks": list(chain.slacks),
    }
