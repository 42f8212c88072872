"""Exception types shared across the package."""

from __future__ import annotations


class OrthoboundError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(OrthoboundError):
    """Operands live in spaces of different dimension."""


class EmptyFamily(OrthoboundError):
    """An orthonormal family must contain at least one vector."""


class GramResidualExceeded(OrthoboundError):
    """Gram matrix deviates from the identity by more than the tolerance."""

    def __init__(self, residual: float, pair: tuple[int, int], tolerance: float):
        self.residual = residual
        self.pair = pair
        self.tolerance = tolerance
        super().__init__(
            f"gram residual {residual:.3e} at pair {pair} exceeds tolerance {tolerance:.3e}"
        )


class IdentityViolation(OrthoboundError):
    """The two admissibility forms disagree beyond what rounding permits.

    Raised when the identity linking the sign condition and the ball
    condition breaks; in practice this means the family's gram residual is
    too large for the requested tolerance.
    """

    def __init__(self, gap: float, tolerance: float, gram_residual: float):
        self.gap = gap
        self.tolerance = tolerance
        self.gram_residual = gram_residual
        super().__init__(
            f"admissibility identity gap {gap:.3e} exceeds tolerance {tolerance:.3e} "
            f"(family gram residual {gram_residual:.3e})"
        )


class HypothesisFailed(OrthoboundError):
    """A conditional bound was requested on an inadmissible instance."""

    def __init__(self, which: str, report):
        self.which = which
        self.report = report
        super().__init__(
            f"admissibility fails for {which}: residual {report.cond_ii_residual:.6g} "
            f"> radius {report.radius:.6g} (sign form {report.cond_i_value:.6g} < 0)"
        )


class NonpositiveReSum(OrthoboundError):
    """sum_i Re(Phi_i * conj(phi_i)) must be strictly positive."""

    def __init__(self, value: float):
        self.value = value
        super().__init__(f"corridor has nonpositive Re-sum {value:.6g}")


class NonfiniteCorridor(OrthoboundError, ValueError):
    """A corridor's cached re_sum or radius overflowed to inf or NaN.

    Finite sides can still overflow the aggregates (at magnitudes near
    1e155), so the check runs on the aggregates themselves. Also a
    ``ValueError``, which callers catching invalid input already handle.
    """

    def __init__(self, re_sum: float, radius: float):
        self.re_sum = re_sum
        self.radius = radius
        super().__init__(
            f"corridor aggregates are not finite: re_sum {re_sum!r}, radius {radius!r}"
        )


class ChainViolated(OrthoboundError):
    """An inequality chain that must hold on a known construction does not."""

    def __init__(self, where: str, chain):
        self.where = where
        self.chain = chain
        super().__init__(
            f"chain fails on {where}: values {chain.values}, slacks {chain.slacks}"
        )


class BadExponent(OrthoboundError):
    """Holder exponent must satisfy p > 1."""


class BadLambda(OrthoboundError):
    """Mixing weight must lie strictly inside (0, 1)."""


class BadEpsilon(OrthoboundError):
    """Sweep parameter must lie strictly inside (0, 1)."""


class ZeroVector(OrthoboundError):
    """A nonzero vector is required."""


class FloatRangeExceeded(OrthoboundError):
    """A quantity computed from finite inputs overflowed to inf or NaN.

    Finite vectors beyond about 1e154 overflow their squared norms, and with
    them the admissibility forms; such an instance lies outside the float
    range of the checks and is rejected instead of judged on inf or NaN.
    """


class SandwichViolated(OrthoboundError):
    """Pointwise bracketing fails at a node with positive measure."""

    def __init__(self, side: str, node: int, margin: float):
        self.side = side
        self.node = node
        self.margin = margin
        super().__init__(
            f"{side} envelope violated at node {node} with margin {margin:.6g}"
        )


class WitnessNotFound(OrthoboundError):
    """Random search exhausted its trial budget without a witness."""

    def __init__(self, direction: str, trials: int):
        self.direction = direction
        self.trials = trials
        super().__init__(f"no witness for direction '{direction}' in {trials} trials")


class InstanceFormatError(OrthoboundError):
    """Malformed instance JSON; `path` locates the offending field."""

    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"{path}: {detail}")
