"""The paper's catalog of bounds: every selector that ``orthobound check``,
the sweeps, the equality cases, the witness search and fuzz campaigns know,
written once.

An entry of :data:`SELECTORS` names its instance kind in :data:`KINDS`,
which gives the instance fields the entry reads and the JSON names of the
hypothesis reports. The entry gives the parser of a ``name:tail`` parameter
and, for each chain, the public :mod:`orthobound.bounds` function with its
JSON chain name. :func:`evaluate` is the one way to run a selector on one
instance, given by its instance-file fields. An entry also gives what a
campaign needs: the parameter tails it runs, and for each chain the kernel
that the public function runs on a batch of one, which the campaign runs on
a chunk of the instances it draws for the kind (see :mod:`orthobound.fuzz`).
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, NamedTuple

from . import bounds, jsonio
from .admissibility import DEFAULT_HYPOTHESIS_TOL
from .errors import InstanceFormatError
from .jsonio import DELTA_HI, DELTA_LO, FAMILY, X, X_CORRIDOR, Y, Y_CORRIDOR


class Chain(NamedTuple):
    """One chain of a selector.

    ``name`` is its JSON name in ``check``'s output, None when ``function``
    returns named chains; ``function`` is the public :mod:`orthobound.bounds`
    function :func:`evaluate` calls, None for an entry only campaigns run.
    ``values`` is its kernel: given the instance and the parsed parameters,
    the chain's values, or the named chains' values by name. A campaign
    records it under the selector key, plus ``:suffix`` when there is one.
    ``when``, given the instance, holds where the chain is defined;
    :func:`evaluate` asks it on a batch of one.
    """

    name: str | None
    function: str | None
    values: Callable
    suffix: str = ""
    when: Callable | None = None


class Kind(NamedTuple):
    """One kind of instance: the fields :func:`evaluate` reads, in the order
    the public functions take them (None for a kind only campaigns draw), and
    the JSON names of the hypothesis reports its chains carry, in checking
    order."""

    fields: tuple[str, ...] | None
    reports: tuple[str, ...]


_PAIR = Kind((X, Y, FAMILY, X_CORRIDOR, Y_CORRIDOR), ("x", "y"))

KINDS: dict[str, Kind] = {
    "x": Kind((X, FAMILY, X_CORRIDOR), ("x",)),  # Theorem 2.1, Corollary 2.3
    "pair": _PAIR,  # Theorems 1.1, 2 and 3.1
    "single": _PAIR,  # Corollary 3.3: a pair over a one-member family
    "companion": Kind((X, Y, FAMILY, X_CORRIDOR), ("combined",)),  # Theorem 4.1
    "schwarz": Kind((X, Y, DELTA_LO, DELTA_HI), ("x",)),  # Corollary 2.5
    "free": Kind(None, ()),  # vectors under no corridor
}


class Selector(NamedTuple):
    """One entry of the bound catalog.

    ``kind`` names its instance in :data:`KINDS`. ``params`` parses the tail
    of "name:tail" into keyword arguments of the public function and of the
    kernels; ``tails`` are the parameter tails a campaign runs.
    """

    kind: str
    chains: tuple[Chain, ...]
    params: Callable[[str, str], dict] | None = None
    tails: tuple[str, ...] = ()


def _number(raw: str, text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise InstanceFormatError("--bound", f"bad {what} in {raw!r}") from exc


def _split_params(raw: str, tail: str) -> dict:
    """eq2.11's split of the corridor bound: ``max``, ``sum`` or ``holder:p``."""
    if tail == "max":
        return {"variant": "max_sum"}
    if tail == "sum":
        return {"variant": "sum_max"}
    if tail.startswith("holder:"):
        return {"variant": "holder", "p": _number(raw, tail[len("holder:"):], "holder exponent")}
    raise InstanceFormatError("--bound", f"unknown eq2.11 variant {raw!r}")


def _lambda_params(raw: str, tail: str) -> dict:
    """thm4.1's mixing weight lambda."""
    return {"lam": _number(raw, tail, "lambda")}


def _projection_floor(pair: bounds.Pair) -> tuple:
    """The projection defect of a free vector over the family: nonnegative, up
    to rounding relative to ||x||^2."""
    return -1e-10 * pair.x.nsq, pair.x.defect


def _main(function: str | None, values: Callable) -> tuple[Chain]:
    return (Chain("main", function, values),)


# In the order a campaign records its chains.
SELECTORS: dict[str, Selector] = {
    "thm2.1": Selector("x", _main("norm_bound_quadratic", bounds._quadratic_values)),
    "eq2.6": Selector("x", _main("norm_bound_linear", bounds._linear_values)),
    "eq2.11": Selector(
        "x", _main("norm_bound_quadratic", bounds._quadratic_values), _split_params,
        tails=("max", "holder:3", "sum"),
    ),
    "cor2.3": Selector("x", _main("bessel_counterpart", bounds._counterpart_values)),
    "thm1.1": Selector("pair", _main("gruss_refined_sqrt", bounds._refined_sqrt_values)),
    "thm2": Selector("pair", _main("gruss_refined_midpoint", bounds._refined_midpoint_values)),
    "thm3.1": Selector("pair", _main("gruss_bound", bounds._gruss_values)),
    "thm4.1": Selector(
        "companion", _main("companion_bound", bounds._companion_values), _lambda_params,
        tails=("0.1", "0.5", "0.9"),
    ),
    "cor2.5": Selector("schwarz", (Chain(None, "schwarz_counterparts", bounds._schwarz_values),)),
    "cor3.3": Selector("single", (
        Chain("main", "gruss_bound", bounds._gruss_values),
        Chain("ratio_form", "single_vector_ratio_chain", bounds._ratio_values, "ratio",
              bounds._ratio_defined),
    )),
    "bessel-defect": Selector("free", _main(None, _projection_floor)),
    "schwarz-step": Selector("free", _main(None, bounds._schwarz_step_values)),
}


# The extremal constructions ``orthobound sweep`` runs
# (:func:`orthobound.experiments.sharpness_sweep`), each with the selectors
# whose chains it evaluates.
SWEEP_TARGETS = {"thm21": ("thm2.1",), "cor23": ("cor2.3",), "cor32": ("cor2.3", "thm3.1")}


def parse_selector(raw: str) -> tuple[str, Selector, dict]:
    """A selector ``name`` or ``name:tail`` that runs on one instance: its
    catalog name, entry and keyword arguments."""
    name, colon, tail = raw.partition(":")
    entry = SELECTORS.get(name)
    if (entry is None or KINDS[entry.kind].fields is None
            or bool(colon) != (entry.params is not None)):
        raise InstanceFormatError("--bound", f"unknown bound selector {raw!r}")
    return name, entry, entry.params(raw, tail) if colon else {}


def evaluate(
    selector: str, fields: Mapping, tol: float = DEFAULT_HYPOTHESIS_TOL
) -> dict[str, bounds.BoundChain]:
    """The chains of ``selector`` on the instance whose fields are keyed by
    their instance-file names, by JSON name in call order; a chain is left
    out where its ``when`` does not hold. A field the selector's kind reads
    that ``fields`` lacks (or gives as None) raises
    :class:`InstanceFormatError`, naming every such field in decode order."""
    name, entry, params = parse_selector(selector)
    reads = KINDS[entry.kind].fields
    missing = [field for field in jsonio._FIELDS if field in reads and fields.get(field) is None]
    if missing:
        raise InstanceFormatError(",".join(missing), f"required by bound selector {name!r}")
    args = [fields[field] for field in reads]
    chains: dict[str, bounds.BoundChain] = {}
    for chain in entry.chains:
        if chain.when is None or chain.when(bounds._pair(*args)):
            # looked up at call time, so a patched bounds function takes effect
            result = getattr(bounds, chain.function)(*args, **params, tol=tol)
            chains.update(result.chains() if chain.name is None else {chain.name: result})
    return chains


def campaign_keys() -> Iterator[tuple[str, Selector, str | None]]:
    """Every selector key a campaign can run, with its entry and its tail
    (None for an entry without tails), in catalog order."""
    for name, entry in SELECTORS.items():
        for tail in entry.tails or (None,):
            yield (name if tail is None else f"{name}:{tail}"), entry, tail
