"""The paper's catalog of bounds: every selector that ``orthobound check``
and fuzz campaigns know, written once.

An entry of :data:`SELECTORS` gives what ``check`` needs: the instance
fields, the parser of a ``name:tail`` parameter, the JSON names of the
hypothesis reports and, for each chain, the public :mod:`orthobound.bounds`
function with its JSON chain name. It also gives what a campaign needs: the
parameter tails it runs, the instance it draws (see
:mod:`orthobound.campaign`), and for each chain the kernel that the public
function runs on a batch of one, which the campaign runs on a chunk.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from . import bounds
from .errors import InstanceFormatError


class Chain(NamedTuple):
    """One chain of a selector.

    ``name`` is its JSON name in ``check``'s output, None when ``function``
    returns named chains; ``function`` is the public :mod:`orthobound.bounds`
    function ``check`` calls (looked up at call time), None for an entry
    only campaigns run. ``values`` is its kernel: given the instance and the
    parsed parameters, the chain's values, or the named chains' values by
    name. A campaign records it under the selector key, plus ``:suffix`` when
    there is one. ``when``, given the instance, holds where the chain is
    defined; ``check`` asks it on a batch of one.
    """

    name: str | None
    function: str | None
    values: Callable
    suffix: str = ""
    when: Callable | None = None


class Selector(NamedTuple):
    """One entry of the bound catalog.

    ``fields`` are the instance fields ``check`` needs besides x, in the order
    an error lists the missing ones, or None for an entry only campaigns run.
    Every public function takes x, y if needed, then the other fields in that
    order. ``params`` parses the tail of "name:tail" into keyword arguments
    of the public function and of the kernels; ``hypotheses`` are the JSON
    names of the reports the chains were checked under, in the order the
    bound checked them. ``draws`` names the instance a campaign draws for the
    entry, one per tail where ``per_tail`` holds; ``tails`` are the parameter
    tails a campaign runs.
    """

    fields: tuple[str, ...] | None
    draws: str
    chains: tuple[Chain, ...]
    params: Callable[[str, str], dict] | None = None
    hypotheses: tuple[str, ...] = ("x", "y")
    tails: tuple[str, ...] = ()
    per_tail: bool = False


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


_X = ("family", "phi/Phi")
_PAIR = ("family", "phi/Phi", "y", "gamma/Gamma")


def _main(function: str | None, values: Callable) -> tuple[Chain]:
    return (Chain("main", function, values),)


# In the order a campaign records its chains.
SELECTORS: dict[str, Selector] = {
    "thm2.1": Selector(_X, "x", _main("norm_bound_quadratic", bounds._quadratic_values)),
    "eq2.6": Selector(_X, "x", _main("norm_bound_linear", bounds._linear_values)),
    "eq2.11": Selector(
        _X, "x", _main("norm_bound_quadratic", bounds._quadratic_values), _split_params,
        tails=("max", "holder:3", "sum"),
    ),
    "cor2.3": Selector(_X, "x", _main("bessel_counterpart", bounds._counterpart_values)),
    "thm1.1": Selector(_PAIR, "pair", _main("gruss_refined_sqrt", bounds._refined_sqrt_values)),
    "thm2": Selector(
        _PAIR, "pair", _main("gruss_refined_midpoint", bounds._refined_midpoint_values)
    ),
    "thm3.1": Selector(_PAIR, "pair", _main("gruss_bound", bounds._gruss_values)),
    "thm4.1": Selector(
        ("family", "phi/Phi", "y"), "companion",
        _main("companion_bound", bounds._companion_values), _lambda_params, ("combined",),
        tails=("0.1", "0.5", "0.9"), per_tail=True,
    ),
    "cor2.5": Selector(("y", "delta", "Delta"), "schwarz", (
        Chain(None, "schwarz_counterparts", bounds._schwarz_values),
    )),
    "cor3.3": Selector(_PAIR, "single", (
        Chain("main", "gruss_bound", bounds._gruss_values),
        Chain("ratio_form", "single_vector_ratio_chain", bounds._ratio_values, "ratio",
              bounds._ratio_defined),
    )),
    "bessel-defect": Selector(None, "free", _main(None, _projection_floor)),
    "schwarz-step": Selector(None, "free", _main(None, bounds._schwarz_step_values)),
}


def campaign_keys() -> Iterator[tuple[str, Selector, str | None]]:
    """Every selector key a campaign can run, with its entry and its tail
    (None for an entry without tails), in catalog order."""
    for name, entry in SELECTORS.items():
        for tail in entry.tails or (None,):
            yield (name if tail is None else f"{name}:{tail}"), entry, tail
