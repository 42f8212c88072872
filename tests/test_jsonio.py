import numpy as np
import pytest

from orthobound import (
    InstanceFormatError,
    NonfiniteCorridor,
    QuadratureGrid,
    Vector,
    validate_family,
)
from orthobound import jsonio


def test_scalar_roundtrip():
    assert jsonio.scalar_to_json(1.5 - 2j) == [1.5, -2.0]
    assert jsonio.scalar_from_json([1.5, -2.0], "z") == 1.5 - 2j
    assert jsonio.scalar_from_json(3, "z") == 3.0 + 0j


def test_scalar_rejects_junk():
    for bad in ("x", [1.0], [1.0, 2.0, 3.0], [True, 0.0], None):
        with pytest.raises(InstanceFormatError):
            jsonio.scalar_from_json(bad, "z")


def test_vector_roundtrip(rng):
    v = Vector(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    data = jsonio.vector_to_json(v)
    back = jsonio.vector_from_json(data, "x")
    assert np.array_equal(back.coords, v.coords)


def test_vector_real_mode_inferred():
    v = jsonio.vector_from_json([[1.0, 0.0], [2.0, 0.0]], "x")
    assert v.real_mode


def test_vector_error_path():
    with pytest.raises(InstanceFormatError) as exc:
        jsonio.vector_from_json([[1.0, 0.0], "bad"], "x")
    assert exc.value.path == "x[1]"


def test_grid_roundtrip():
    grid = QuadratureGrid([0.0, 1.0], [0.5, 0.5], [1.0, 2.0])
    back = jsonio.grid_from_json(jsonio.grid_to_json(grid))
    assert np.array_equal(back.nodes, grid.nodes)
    assert np.array_equal(back.weights, grid.weights)
    assert np.array_equal(back.density, grid.density)


def test_grid_errors():
    with pytest.raises(InstanceFormatError):
        jsonio.grid_from_json({"nodes": [0.0], "weights": [-1.0], "rho": [1.0]})


def test_family_roundtrip():
    fam = validate_family([Vector(r, True) for r in np.eye(2)])
    data = jsonio.family_to_json(fam)
    assert data["gram_residual"] == 0.0
    back = jsonio.family_from_json(data)
    assert np.array_equal(back.matrix, fam.matrix)


def test_family_revalidates_on_load():
    data = {"members": [[[1.0, 0.0]], [[1.0, 0.0]]]}  # duplicated member
    with pytest.raises(InstanceFormatError):
        jsonio.family_from_json(data)


def test_family_requires_members():
    with pytest.raises(InstanceFormatError):
        jsonio.family_from_json({"tolerance": 1e-10})


def test_function_roundtrip(rng):
    from orthobound import SampledFunction

    f = SampledFunction(rng.standard_normal(3), True)
    back = jsonio.function_from_json(jsonio.function_to_json(f), "f")
    assert np.array_equal(back.values, f.values)
    assert back.real_mode


def test_corridor_roundtrip(rng):
    lo = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    hi = lo + 0.3
    c = jsonio.corridor_from_json(
        [jsonio.scalar_to_json(z) for z in lo],
        [jsonio.scalar_to_json(z) for z in hi],
    )
    assert np.allclose(c.lo, lo) and np.allclose(c.hi, hi)


def test_corridor_length_mismatch():
    with pytest.raises(InstanceFormatError):
        jsonio.corridor_from_json([[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]])


@pytest.mark.parametrize(
    "decode, detail",
    [
        (jsonio.vector_from_json, "coords must be finite (no NaN/Inf)"),
        (jsonio.function_from_json, "values must be finite (no NaN/Inf)"),
    ],
)
def test_nonfinite_samples_are_reported_at_their_path(decode, detail):
    with pytest.raises(InstanceFormatError) as exc:
        decode([1.0, [0.0, float("nan")]], "f")
    assert (exc.value.path, exc.value.detail) == ("f", detail)


def test_nonfinite_corridor_side_is_reported_at_its_path():
    with pytest.raises(InstanceFormatError) as exc:
        jsonio.corridor_from_json([1.0], [float("inf")], "y corridor ")
    assert exc.value.path == "y corridor Phi"


def test_overflowing_corridor_keeps_its_own_type():
    with pytest.raises(NonfiniteCorridor):
        jsonio.corridor_from_json([1.0], [1e200])
