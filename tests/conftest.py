import numpy as np
import pytest

from orthobound import (
    CorridorSpec,
    SampledFunction,
    Vector,
    admissible_point,
    family,
    random_family,
)


@pytest.fixture(autouse=True)
def cold_family_memo():
    """Each test starts with no validated embedded family and no stacked
    sample table kept, so a test that counts gram checks or stacks does not
    depend on the tests before it."""
    family._validated_family.cache_clear()
    family._stacked_samples.cache_clear()


@pytest.fixture
def gram_checks(monkeypatch):
    """The matrices the gram rule runs on, in order."""
    seen = []
    check = family._gram_check

    def counting(matrix, tolerance):
        seen.append(matrix)
        return check(matrix, tolerance)

    monkeypatch.setattr(family, "_gram_check", counting)
    return seen


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_vector(dim, rng, real=False, scale=1.0):
    u = rng.standard_normal(dim)
    if not real:
        u = u + 1j * rng.standard_normal(dim)
    return Vector(scale * u, real_mode=real)


def admissible_instance(rng, dim=6, count=3, real=False, slack=None):
    """Family, corridor, and an admissible vector for it."""
    fam = random_family(dim, count, rng, real=real)
    spec = CorridorSpec(mode="real" if real else "complex")
    corr = spec.sample(count, rng)
    s = rng.uniform() if slack is None else slack
    x = admissible_point(fam, corr, rng, s)
    return fam, corr, x


def complex_twin(f):
    """The complex-mode function with the samples of ``f``, as complex128."""
    return SampledFunction(f.values.astype(complex))
