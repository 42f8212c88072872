"""Numerical certification of reverse-Bessel and Gruss-type bounds.

Evaluates, certifies, and stress-tests corridor-conditioned inequality
chains over finite orthonormal families in real or complex inner product
spaces, together with their weighted-quadrature realizations and the
extremal constructions that pin the 1/4 and 1/16 prefactors.
"""

import importlib

from .admissibility import (
    CorridorSpec,
    HypothesisReport,
    ScalarCorridor,
    admissible_point,
    check_hypothesis,
)
from .bounds import (
    BoundChain,
    MFactor,
    SchwarzCounterparts,
    bessel_counterpart,
    bessel_defect,
    companion_bound,
    gruss_bound,
    gruss_defect,
    gruss_refined_midpoint,
    gruss_refined_sqrt,
    m_factor,
    norm_bound_linear,
    norm_bound_quadratic,
    schwarz_counterparts,
    schwarz_step,
    single_vector_ratio_chain,
)
from .errors import (
    BadEpsilon,
    BadExponent,
    BadLambda,
    ChainViolated,
    DimensionMismatch,
    EmptyFamily,
    FloatRangeExceeded,
    GramResidualExceeded,
    HypothesisFailed,
    IdentityViolation,
    InstanceFormatError,
    NonfiniteCorridor,
    NonpositiveReSum,
    OrthoboundError,
    SandwichViolated,
    WitnessNotFound,
    ZeroVector,
)
from .family import (
    OrthonormalFamily,
    random_family,
    validate_family,
)
from .space import (
    QuadratureGrid,
    SampledFunction,
    Scalar,
    Vector,
    embed,
    gauss_legendre_grid,
    grid_inner,
    inner,
    norm,
    norm_sq,
    tree_sum,
)

__version__ = "0.1.0"

# Names whose modules ``orthobound check`` never runs: each is looked up in
# its module on access (PEP 562), so ``import orthobound`` and every process
# that does not use them skip loading those modules.
_LAZY = {
    **dict.fromkeys(
        ("ComparisonResult", "EqualityCaseReport", "SweepRow", "bound_comparison_search",
         "equality_cases", "sharpness_sweep"),
        "experiments",
    ),
    **dict.fromkeys(("FuzzConfig", "FuzzSummary", "run_fuzz"), "fuzz"),
    **dict.fromkeys(
        ("IntegralInstance", "SandwichReport", "integral_instance", "sandwich_check"),
        "integral",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
