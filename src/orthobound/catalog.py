"""The paper's catalog of bounds: every selector that ``orthobound check``,
the sweeps, the equality cases, the witness search and fuzz campaigns know,
written once.

An entry of :data:`SELECTORS` names its instance kind in :data:`KINDS`:
the fields the kind's builder reads and the JSON names of its reports. The
entry gives the parser of a ``name:tail`` parameter, the tails a campaign
runs and, for each chain, its JSON name and its step in
:mod:`orthobound.bounds`. :func:`evaluate`, the one way to run a selector on
one instance, builds the instance once, as a batch of one, and runs every
chain's step on it; :func:`evaluate_many` runs several selectors on one
instance, with one build per builder. A campaign builds the kind over a
chunk and runs each step's kernel (see :mod:`orthobound.fuzz`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from . import bounds, jsonio
from .admissibility import DEFAULT_HYPOTHESIS_TOL
from .errors import InstanceFormatError
from .jsonio import DELTA_HI, DELTA_LO, FAMILY, X, X_CORRIDOR, Y, Y_CORRIDOR


class Chain(NamedTuple):
    """One chain of a selector.

    ``step`` names its :class:`~orthobound.bounds.Step`, looked up at call
    time, so a patched step takes effect; ``name`` is its JSON name in
    ``check``'s output (None when its step gives named chains); a campaign
    records its kernel under the selector key, plus ``:suffix`` if any. The
    chain is run on the instances where its step's ``defined`` holds."""

    step: str
    name: str | None = "main"
    suffix: str = ""


class Kind(NamedTuple):
    """One kind of instance: the fields :func:`evaluate` reads, in the order
    the public functions take them (None for a kind only campaigns draw);
    the JSON names of its reports, in checking order; and ``build``, its
    builder in :mod:`orthobound.bounds`, which takes those fields, the
    tolerance and the selector parameters named in ``params``."""

    fields: tuple[str, ...] | None
    reports: tuple[str, ...]
    build: Callable
    params: tuple[str, ...] = ()


_PAIR = Kind((X, Y, FAMILY, X_CORRIDOR, Y_CORRIDOR), ("x", "y"), bounds._pair_kind)

KINDS: dict[str, Kind] = {
    "x": Kind((X, FAMILY, X_CORRIDOR), ("x",), bounds._x_kind),  # Theorem 2.1, Corollary 2.3
    "pair": _PAIR,  # Theorems 1.1, 2 and 3.1
    "single": _PAIR,  # Corollary 3.3: a pair over a one-member family
    "companion": Kind(  # Theorem 4.1
        (X, Y, FAMILY, X_CORRIDOR), ("combined",), bounds._companion_kind, ("lam",)
    ),
    "schwarz": Kind((X, Y, DELTA_LO, DELTA_HI), ("x",), bounds._schwarz_kind),  # Corollary 2.5
    "free": Kind(None, (), bounds._free_kind),  # vectors under no corridor
}


class Selector(NamedTuple):
    """One entry of the bound catalog.

    ``kind`` names its instance in :data:`KINDS`. ``params`` parses the tail
    of "name:tail" into keyword arguments of the steps (and of the builder
    where its kind names them); ``tails`` are the parameter tails a campaign
    runs.
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


# In the order a campaign records its chains.
SELECTORS: dict[str, Selector] = {
    "thm2.1": Selector("x", (Chain("_QUADRATIC"),)),
    "eq2.6": Selector("x", (Chain("_LINEAR"),)),
    "eq2.11": Selector(
        "x", (Chain("_QUADRATIC"),), _split_params, tails=("max", "holder:3", "sum"),
    ),
    "cor2.3": Selector("x", (Chain("_COUNTERPART"),)),
    "thm1.1": Selector("pair", (Chain("_REFINED_SQRT"),)),
    "thm2": Selector("pair", (Chain("_REFINED_MIDPOINT"),)),
    "thm3.1": Selector("pair", (Chain("_GRUSS"),)),
    "thm4.1": Selector(
        "companion", (Chain("_COMPANION"),), _lambda_params, tails=("0.1", "0.5", "0.9")
    ),
    "cor2.5": Selector("schwarz", (Chain("_SCHWARZ", None),)),
    "cor3.3": Selector("single", (
        Chain("_GRUSS"),
        Chain("_RATIO", "ratio_form", "ratio"),
    )),
    "bessel-defect": Selector("free", (Chain("_PROJECTION_FLOOR"),)),
    "schwarz-step": Selector("free", (Chain("_SCHWARZ_STEP"),)),
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
    their instance-file names, by JSON name in catalog order, all on one
    build; a chain is left out where its step's ``defined`` does not hold. A field the
    selector's kind reads that ``fields`` lacks (or gives as None) raises
    :class:`InstanceFormatError`, naming every such field in decode order."""
    return evaluate_many((selector,), fields, tol)[selector]


def evaluate_many(
    selectors: Iterable[str], fields: Mapping, tol: float = DEFAULT_HYPOTHESIS_TOL
) -> dict[str, dict[str, bounds.BoundChain]]:
    """:func:`evaluate` of each of ``selectors`` in turn on one instance, by
    selector: selectors whose kinds have one builder, given the same builder
    parameters, share one build of the instance."""
    builds: dict = {}
    out = {}
    for selector in selectors:
        name, entry, params = parse_selector(selector)
        kind = KINDS[entry.kind]
        reads = kind.fields
        missing = [f for f in jsonio._FIELDS if f in reads and fields.get(f) is None]
        if missing:
            raise InstanceFormatError(",".join(missing), f"required by bound selector {name!r}")
        built = {k: params[k] for k in kind.params}  # the parameters the builder reads
        key = (kind.build, tuple(built.items()))
        if key not in builds:
            builds[key] = bounds._one(kind.build, *(fields[f] for f in reads), tol=tol, **built)
        inst, reports = builds[key]
        chains: dict[str, bounds.BoundChain] = {}
        for chain in entry.chains:
            step = getattr(bounds, chain.step)
            if step.defined is None or step.defined(inst):
                result = step(inst, reports, **params)
                chains.update(result if chain.name is None else {chain.name: result})
        out[selector] = chains
    return out


def campaign_keys() -> Iterator[tuple[str, Selector, str | None]]:
    """Every selector key a campaign can run, with its entry and its tail
    (None for an entry without tails), in catalog order."""
    for name, entry in SELECTORS.items():
        for tail in entry.tails or (None,):
            yield (name if tail is None else f"{name}:{tail}"), entry, tail
