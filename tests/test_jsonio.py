import numpy as np
import pytest

from orthobound import (
    InstanceFormatError,
    NonfiniteCorridor,
    ScalarCorridor,
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
    ],
)
def test_nonfinite_samples_are_reported_at_their_path(decode, detail):
    with pytest.raises(InstanceFormatError) as exc:
        decode([1.0, [0.0, float("nan")]], "f")
    assert (exc.value.path, exc.value.detail) == ("f", detail)


def test_nonfinite_corridor_side_is_reported_at_its_path():
    with pytest.raises(InstanceFormatError) as exc:
        jsonio.corridor_from_json([1.0], [float("inf")], "gamma", "Gamma")
    assert exc.value.path == "Gamma"


def test_overflowing_corridor_keeps_its_own_type():
    with pytest.raises(NonfiniteCorridor):
        jsonio.corridor_from_json([1.0], [1e200])


_PAIR = {"family": {"members": [[1.0]]}, "x": [1.5], "phi": [1.0], "Phi": [2.0],
         "y": [1.2], "gamma": [1.0], "Gamma": [2.0]}


def test_instance_round_trip():
    fields = {
        "family": validate_family([Vector([0.6, 0.8j])]),
        "x": Vector([1.0, 2.0 - 1.0j]),
        "phi/Phi": ScalarCorridor([1.0 + 0.5j], [2.0 - 0.25j]),
        "y": Vector([0.5, -1.0]),
        "gamma/Gamma": ScalarCorridor([0.5], [3.0]),
        "delta": 0.25 + 1.0j,
        "Delta": 4.0,
    }
    data = jsonio.instance_to_json(fields)
    assert set(data) == {"family", "x", "phi", "Phi", "y", "gamma", "Gamma", "delta", "Delta"}
    back = jsonio.instance_from_json(data)
    assert list(back) == list(fields)  # decode order
    assert np.array_equal(back["family"].matrix, fields["family"].matrix)
    for name in ("x", "y"):
        assert np.array_equal(back[name].coords, fields[name].coords)
        assert back[name].real_mode == (name == "y")
    for name in ("phi/Phi", "gamma/Gamma"):
        assert np.array_equal(back[name].lo, fields[name].lo)
        assert np.array_equal(back[name].hi, fields[name].hi)
    assert (back["delta"], back["Delta"]) == (0.25 + 1.0j, 4.0)


def test_instance_fields_not_given_are_none():
    back = jsonio.instance_from_json({"x": [1.0]})
    assert [name for name, value in back.items() if value is not None] == ["x"]


@pytest.mark.parametrize("data, path, detail", [
    ([1.0], "$", "instance must be a JSON object"),
    ({"y": [1.0]}, "x", "missing required field"),
    # the first bad field in decode order: family, x, phi/Phi, y, gamma/Gamma
    ({**_PAIR, "family": {}, "x": "bad"}, "family", "expected an object with a 'members' list"),
    ({**_PAIR, "x": "bad", "Phi": "bad"}, "x", "expected a nonempty list of scalars"),
    ({**_PAIR, "y": "bad", "Gamma": "bad"}, "y", "expected a nonempty list of scalars"),
    ({k: v for k, v in _PAIR.items() if k != "Phi"}, "phi/Phi", "both corridor sides are required"),
    ({**_PAIR, "gamma": [float("nan")]}, "gamma", "coords must be finite (no NaN/Inf)"),
    ({**_PAIR, "Gamma": [1.0, 2.0]}, "Gamma", "length 2 does not match gamma length 1"),
    ({**_PAIR, "Phi": [1.0, 2.0]}, "Phi", "length 2 does not match phi length 1"),
    ({"x": [1.0], "delta": True, "Delta": 1.0}, "delta", "expected a number or a [re, im] pair"),
])
def test_instance_errors_name_the_files_keys(data, path, detail):
    with pytest.raises(InstanceFormatError) as exc:
        jsonio.instance_from_json(data)
    assert (exc.value.path, exc.value.detail) == (path, detail)
