import hashlib
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthobound import (
    DimensionMismatch,
    OrthonormalFamily,
    QuadratureGrid,
    SampledFunction,
    ScalarCorridor,
    Vector,
    embed,
    gauss_legendre_grid,
    grid_inner,
    inner,
    norm,
    norm_sq,
    tree_sum,
)
from orthobound import space

finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=10.0
)


def test_inner_unit_vector():
    assert inner(Vector([1.0, 0.0]), Vector([1.0, 0.0])) == 1.0


def test_inner_orthogonal_coordinates():
    assert inner(Vector([1j, 0.0]), Vector([0.0, 1.0])) == 0.0


def test_inner_complex_example():
    # (1+i)*conj(1) + 2*conj(i) = 1 - i
    assert inner(Vector([1 + 1j, 2.0]), Vector([1.0, 1j])) == pytest.approx(1 - 1j)


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner(Vector([1.0]), Vector([1.0, 2.0]))


def test_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        Vector([float("nan"), 1.0])
    with pytest.raises(ValueError):
        Vector([complex(0, float("inf"))])
    with pytest.raises(ValueError, match=r"^values must be finite \(no NaN/Inf\)$"):
        SampledFunction([1.0, complex(0.0, float("nan"))])


def test_real_mode_rejects_imaginary():
    with pytest.raises(ValueError):
        Vector([1.0, 1j], real_mode=True)


def test_vector_immutable():
    v = Vector([1.0, 2.0])
    with pytest.raises(ValueError):
        v.coords[0] = 5.0


@given(st.lists(finite_complex, min_size=1, max_size=16), st.data())
@settings(max_examples=200)
def test_conjugate_symmetry(xs, data):
    ys = data.draw(
        st.lists(finite_complex, min_size=len(xs), max_size=len(xs))
    )
    x, y = Vector(np.array(xs)), Vector(np.array(ys))
    lhs = inner(x, y)
    rhs = inner(y, x)
    assert abs(lhs - rhs.conjugate()) <= 1e-12 * max(1.0, abs(lhs))


@given(st.lists(finite_complex, min_size=1, max_size=16))
@settings(max_examples=200)
def test_positivity(xs):
    x = Vector(np.array(xs))
    v = inner(x, x)
    assert v.imag == 0.0
    assert v.real >= 0.0
    assert norm_sq(x) >= 0.0


def test_tree_sum_matches_plain_sum(rng):
    for n in (1, 2, 3, 7, 8, 100, 1000):
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert complex(tree_sum(a)) == pytest.approx(complex(np.sum(a)), abs=1e-10)
    m = rng.standard_normal((5, 9))
    assert np.allclose(tree_sum(m), m.sum(axis=1))
    assert np.allclose(tree_sum(m.T), m.sum(axis=0))


def _pairwise_reference(values):
    """The perfect tree over ``values`` zero-padded to a power of two, one
    Python addition at a time (IEEE, as numpy adds each element)."""
    level = list(values)
    while len(level) & (len(level) - 1):
        level.append(0.0)
    while len(level) > 1:
        level = [level[i] + level[i + 1] for i in range(0, len(level), 2)]
    return level[0] if level else 0.0


@pytest.mark.parametrize("complex_input", [False, True])
def test_tree_sum_follows_the_padded_tree_bit_for_bit(complex_input):
    rng = np.random.default_rng(17)
    for n in range(0, 34):
        for batch in ((), (3,), (2, 2)):
            shape = batch + (n,)
            a = rng.standard_normal(shape) * np.exp(20.0 * rng.standard_normal(shape))
            if complex_input:
                a = a + 1j * rng.standard_normal(shape)
            a[rng.random(shape) < 0.3] = -0.0  # signed zeros: the padding adds +0.0
            for values in (a, np.full_like(a, -0.0)):
                got = tree_sum(values)
                assert got.shape == batch and got.dtype == a.dtype
                rows = values.reshape(math.prod(batch), n).tolist()
                expected = np.array([_pairwise_reference(r) for r in rows], dtype=a.dtype)
                assert got.tobytes() == expected.reshape(batch).tobytes()


def test_grid_inner_normalized_measure():
    grid = QuadratureGrid([0.0, 1.0], [0.5, 0.5], [1.0, 1.0])
    one = SampledFunction([1.0, 1.0], True)
    assert grid_inner(one, one, grid) == pytest.approx(1.0, abs=1e-15)


def test_grid_inner_disjoint_supports():
    grid = QuadratureGrid([0.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    f = SampledFunction([1.0, 0.0], True)
    g = SampledFunction([0.0, 1.0], True)
    assert grid_inner(f, g, grid) == 0.0


def test_grid_inner_two_node_sum():
    grid = QuadratureGrid([0.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    f = SampledFunction([1.0, 2.0], True)
    g = SampledFunction([3.0, 4.0], True)
    assert grid_inner(f, g, grid) == pytest.approx(11.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        QuadratureGrid([0.0], [1.0, 2.0], [1.0])  # length mismatch
    with pytest.raises(ValueError):
        QuadratureGrid([0.0], [-1.0], [1.0])  # negative weight
    with pytest.raises(ValueError):
        QuadratureGrid([0.0, 1.0], [1.0, 0.0], [0.0, 2.0])  # all masses vanish


def test_point_masses_are_computed_once_and_read_only():
    weights, density = [0.5, 1e-300, 3.0, 0.0], [1.0, 1e-10, 1.0 / 3.0, 2.0]
    grid = QuadratureGrid([0.0, 1.0, 2.0, 3.0], weights, density)
    mass = np.array(weights) * np.array(density)
    assert grid.point_mass.tobytes() == mass.tobytes()
    assert grid.root_mass.tobytes() == np.sqrt(mass).tobytes()
    assert grid.active.tolist() == [0, 1, 2]  # 1e-300 * 1e-10 underflows to 0
    assert grid.active.tobytes() == np.nonzero(mass > 0.0)[0].tobytes()
    for name in ("point_mass", "root_mass", "active"):
        assert getattr(grid, name) is getattr(grid, name)
        assert not getattr(grid, name).flags.writeable


def test_real_mode_samples_are_one_contiguous_float64_array():
    strided = np.arange(8.0)[::2]  # not contiguous
    for given in (strided, strided.astype(complex), [0.0, 2.0, 4.0, 6.0]):
        f = SampledFunction(given, True)
        assert f.values.dtype == np.float64
        assert f.values.flags.c_contiguous and not f.values.flags.writeable
        assert f.values.tobytes() == strided.tobytes()
    assert not np.shares_memory(SampledFunction(strided, True).values, strided)
    assert SampledFunction(strided).values.dtype == np.complex128


def test_real_mode_drops_the_sign_of_a_negative_zero_imaginary_part():
    # the imaginary part of a real-mode sample is zero and not kept: samples
    # given as complex numbers with -0.0 imaginary parts are their real parts
    grid = QuadratureGrid([0.0, 1.0, 2.0], [1.0, 4.0, 0.0], [1.0, 1.0, 1.0])
    given = np.array([complex(1.0, -0.0), complex(-2.0, -0.0), complex(-0.0, -0.0)])
    f = SampledFunction(given, True)
    assert f.values.tobytes() == np.array([1.0, -2.0, -0.0]).tobytes()
    coords = embed(f, grid).coords
    assert not np.signbit(coords.imag).any()
    assert coords.tobytes() == embed(SampledFunction(given.real, True), grid).coords.tobytes()
    # a complex-mode function keeps the sign
    assert np.signbit(SampledFunction(given).values.imag).all()


def test_a_real_vector_holds_one_contiguous_float64_array():
    strided = np.arange(8.0)[::2]  # not contiguous
    for given in (strided, strided.astype(complex), [0.0, 2.0, 4.0, 6.0], [0, 2, 4, 6]):
        v = Vector(given, True)
        assert v.coords.dtype == np.float64
        assert v.coords.flags.c_contiguous and not v.coords.flags.writeable
        assert v.coords.base is None  # held once: its own array, not a view of a copy
        assert v.coords.tobytes() == strided.tobytes()
    assert not np.shares_memory(Vector(strided, True).coords, strided)
    assert Vector(strided).coords.dtype == np.complex128
    # elementwise operations stay in the mode of their operands
    x, y = Vector([1.0, -2.0], True), Vector([0.5, 3.0], True)
    for v in (x + y, x - y, 2.0 * x, (1 + 0j) * x):
        assert v.real_mode and v.coords.dtype == np.float64
    assert (x + Vector([1j, 0.0])).coords.dtype == np.complex128
    assert ((1 + 1j) * x).coords.dtype == np.complex128


def test_a_real_vector_drops_the_sign_of_a_negative_zero_imaginary_part():
    # a real-mode vector keeps only the real parts of complex coordinates,
    # so a -0.0 imaginary part leaves no trace; a complex vector keeps it
    given = np.array([complex(1.0, -0.0), complex(-2.0, -0.0), complex(-0.0, -0.0)])
    assert Vector(given, True).coords.tobytes() == np.array([1.0, -2.0, -0.0]).tobytes()
    assert np.signbit(Vector(given).coords.imag).all()
    # its inner products are the complex128 ones of its +0.0-imaginary twin
    y = Vector([3.0, -1.0, 0.5], True)
    twin = Vector(given.real.astype(complex))
    assert np.complex128(inner(Vector(given, True), y)).tobytes() == np.complex128(
        inner(twin, Vector(y.coords.astype(complex)))).tobytes()


def test_embed_zero_function():
    grid = QuadratureGrid([0.0, 1.0], [1.0, 2.0], [1.0, 1.0])
    v = embed(SampledFunction([0.0, 0.0], True), grid)
    assert np.all(v.coords == 0.0)


def test_embed_single_node():
    grid = QuadratureGrid([0.0], [4.0], [1.0])
    v = embed(SampledFunction([3.0], True), grid)
    assert v.coords[0] == pytest.approx(6.0)  # 3 * sqrt(4)


def test_embed_overflow_raises_only_the_finiteness_error():
    # 1e300 * sqrt(1e300) overflows; the pytest config turns a RuntimeWarning
    # into an error, so the finiteness rule must be the only report
    grid = QuadratureGrid([0.0, 1.0], [1e300, 1e300], [1.0, 1.0])
    with pytest.raises(ValueError, match=r"^coords must be finite \(no NaN/Inf\)$"):
        embed(SampledFunction([1e300, 1.0], True), grid)


def test_embed_length_mismatch():
    grid = QuadratureGrid([0.0], [1.0], [1.0])
    with pytest.raises(DimensionMismatch):
        embed(SampledFunction([1.0, 2.0], True), grid)


@given(st.integers(0, 2**31 - 1), st.integers(1, 40))
@settings(max_examples=100)
def test_embedding_isometry_exact(seed, n):
    rng = np.random.default_rng(seed)
    grid = QuadratureGrid(
        np.arange(n, dtype=float),
        rng.uniform(0.0, 2.0, n),
        rng.uniform(0.1, 1.5, n),
    )
    f = SampledFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    g = SampledFunction(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    exact = inner(embed(f, grid), embed(g, grid)) - grid_inner(f, g, grid)
    assert exact == 0.0  # shared code path: identical summation order
    # independent oracle: direct weighted sum
    direct = complex(np.sum(grid.weights * grid.density * f.values * np.conj(g.values)))
    assert grid_inner(f, g, grid) == pytest.approx(direct, abs=1e-10)


def test_gauss_legendre_grid_integrates_polynomials():
    grid = gauss_legendre_grid(8, 0.0, 2.0)
    # integral of s^3 over [0, 2] = 4
    cubic = SampledFunction(grid.nodes**3, True)
    one = SampledFunction(np.ones(grid.size), True)
    assert grid_inner(cubic, one, grid) == pytest.approx(4.0)


def _oracle_root(n, start):
    """Root of P_n near ``start`` and its Gauss weight, to 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(start)
        while True:
            p_prev, p = mpmath.mpf(1), x
            for k in range(1, n):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            dp = n * (p_prev - x * p) / (1 - x * x)
            step = p / dp
            x -= step
            if abs(step) < mpmath.mpf(10) ** -40:
                return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64, 2048])
def test_gauss_legendre_grid_matches_oracle(n):
    grid = gauss_legendre_grid(n)
    t, w = grid.nodes, grid.weights
    sampled = range(n) if n <= 64 else (0, 1, n // 4, n // 2 - 1, n // 2, 3 * n // 4, n - 2, n - 1)
    w_tol = 1e-13 if n <= 64 else 1e-9  # leggauss misses the n = 2048 bound at 6.3e-8
    for i in sampled:
        x, wx = _oracle_root(n, t[i])
        assert abs(float(x - t[i])) <= 2e-16
        assert abs(float((w[i] - wx) / wx)) <= w_tol
    assert np.all(np.diff(t) > 0.0)
    assert np.array_equal(t, -t[::-1])
    assert np.array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2.0) <= 1e-15
    m = min(n, 16)  # P_j P_k has degree <= 2n - 2, integrated exactly
    v = np.polynomial.legendre.legvander(t, m - 1)
    gram = v.T @ (w[:, None] * v)
    assert np.allclose(gram, np.diag(2.0 / (2.0 * np.arange(m) + 1.0)), rtol=0.0, atol=1e-14)


def test_gauss_legendre_grid_memory_is_linear():
    tracemalloc.start()
    try:
        space._gauss_legendre.cache_clear()  # measure a solve, not a memo hit
        gauss_legendre_grid(2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # one 2048 x 2048 companion matrix is 32 MiB


def test_gauss_legendre_grid_bytes_are_pinned():
    # neither the kept rule nor the in-place recurrence may move a grid's bytes
    digest = hashlib.sha256()
    for n in (1, 2, 3, 5, 7, 8, 64, 2047, 2048):
        for a, b in ((-1.0, 1.0), (0.0, 2.0 * math.pi)):
            grid = gauss_legendre_grid(n, a, b)
            digest.update(grid.nodes.tobytes())
            digest.update(grid.weights.tobytes())
    assert digest.hexdigest() == "a05dfa90fc6a9394bb337dfd092594db800158438f76ee38f66d1e0b95b9d082"


def test_a_rule_is_solved_once_per_size(monkeypatch):
    space._gauss_legendre.cache_clear()
    calls = []
    solve = space._legendre_newton
    monkeypatch.setattr(space, "_legendre_newton", lambda n, x: calls.append(n) or solve(n, x))
    gauss_legendre_grid(37)
    solved = len(calls)
    assert solved >= 2  # Newton steps, then the weight pass
    gauss_legendre_grid(37, 0.0, 2.0 * math.pi)
    assert len(calls) == solved


@pytest.mark.parametrize("n", [1, 2, 7, 64, 2048])
def test_a_kept_rule_is_read_only_and_equals_a_cold_solve(n):
    gauss_legendre_grid(n)
    t, w = space._gauss_legendre(n)
    cold_t, cold_w = space._gauss_legendre.__wrapped__(n)
    assert t.tobytes() == cold_t.tobytes() and w.tobytes() == cold_w.tobytes()
    for arr in (t, w):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    grid = gauss_legendre_grid(n)  # a hit: the grid gets its own arrays
    assert not np.shares_memory(grid.nodes, t)
    assert not np.shares_memory(grid.weights, w)


@pytest.mark.parametrize("n", [0, 2.5, True])
def test_an_invalid_size_is_rejected_before_the_lookup(n):
    before = space._gauss_legendre.cache_info()
    with pytest.raises((TypeError, ValueError)):
        gauss_legendre_grid(n)
    after = space._gauss_legendre.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert after.currsize == before.currsize


def test_gauss_legendre_grid_wide_interval():
    # b - a overflows; the half-length 0.5*b - 0.5*a does not
    unit = gauss_legendre_grid(4)
    grid = gauss_legendre_grid(4, -1e308, 1e308)
    assert np.array_equal(grid.nodes, 1e308 * unit.nodes)
    assert np.array_equal(grid.weights, 1e308 * unit.weights)


def test_gauss_legendre_grid_affine_map():
    unit = gauss_legendre_grid(7)
    grid = gauss_legendre_grid(np.int64(7), 0.25, 3.0)
    assert np.array_equal(grid.nodes, 0.5 * (3.0 - 0.25) * unit.nodes + 0.5 * (3.0 + 0.25))
    assert np.array_equal(grid.weights, 0.5 * (3.0 - 0.25) * unit.weights)


@pytest.mark.parametrize(
    "n,a,b,error",
    [
        (0, -1.0, 1.0, ValueError),
        (-3, -1.0, 1.0, ValueError),
        (4, 1.0, 1.0, ValueError),
        (4, 1.0, -1.0, ValueError),
        (2.5, -1.0, 1.0, TypeError),
        (4.0, -1.0, 1.0, TypeError),
        (True, -1.0, 1.0, TypeError),
        (np.True_, -1.0, 1.0, TypeError),
    ],
)
def test_gauss_legendre_grid_rejects(n, a, b, error):
    with pytest.raises(error):
        gauss_legendre_grid(n, a, b)


def test_norm_examples():
    v = Vector([3.0, 4.0], True)
    assert norm(v) == pytest.approx(5.0)
    assert norm_sq(v) == pytest.approx(25.0)
    assert math.isclose(norm(Vector([1j])), 1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Vector([1.0, 2.0]),
        lambda: QuadratureGrid([0.0, 1.0], [0.5, 0.5], [1.0, 1.0]),
        lambda: SampledFunction([1.0, 2.0]),
        lambda: OrthonormalFamily(np.eye(2)),
        lambda: ScalarCorridor([1.0], [2.0]),
    ],
    ids=["Vector", "QuadratureGrid", "SampledFunction", "OrthonormalFamily", "ScalarCorridor"],
)
def test_array_types_compare_and_hash_by_identity(make):
    a, b = make(), make()  # equal contents, two objects
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) != hash(b)
    assert {a: "a", b: "b"}[a] == "a"
    assert len({a, b, a}) == 2
