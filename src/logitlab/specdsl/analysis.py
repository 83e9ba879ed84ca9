"""Structural statistics of a specification against a data dictionary.

These counts describe the written model, not the estimated one: a
parameter is generic if it appears in at least two utilities, an
interaction is a product mixing an attribute with a covariate (counted
once even when a generic coefficient repeats it per alternative), and
transformation counting covers log, sqrt, pow, box-cox and piecewise
nodes (exp is treated as plain arithmetic).  ASCs count as present only
when a free one is actually referenced; a spec whose constants are all
fixed behaves as if it had none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from logitlab.specdsl.expr import (
    BoxCox,
    Call1,
    Expr,
    Mul,
    Piecewise,
    Pow,
    children,
    iter_nodes,
    param_names,
    var_names,
)
from logitlab.specdsl.parser import SpecDslError, UtilitySpec

if TYPE_CHECKING:
    from logitlab.dataset import DataDictionary


class UnknownVariable(SpecDslError):
    """An expression references a column the dictionary does not define."""


@dataclass(frozen=True)
class SpecStats:
    n_params: int  # free (estimated) parameters
    n_vars: int  # distinct dataset variables referenced
    has_asc: bool
    n_generic: int  # taste params used by two or more alternatives
    n_altspecific: int  # remaining taste params
    n_socioeconomic: int  # distinct covariates referenced
    n_transformations: int
    n_interactions: int


def check_variables(spec: UtilitySpec, dictionary: DataDictionary) -> None:
    """Raise :class:`UnknownVariable` for the first utility naming a column the dictionary lacks."""
    known = set(dictionary.variable_names)
    for alt in spec.alternatives:
        unknown = sorted(var_names(spec.utilities[alt]) - known)
        if unknown:
            raise UnknownVariable(
                f"utility of '{alt}' references unknown variable '{unknown[0]}'"
            )


def _mixes_kinds(node: Expr, kind_of: dict[str, str]) -> bool:
    kinds = {kind_of[v] for v in var_names(node) if v in kind_of}
    return "attribute" in kinds and "covariate" in kinds


def _interaction_key(node: Expr, kind_of, quantity_of) -> tuple:
    """Identity of one interaction, invariant across alternatives.

    A generic interaction repeats per alternative with only the attribute
    column changing (time_car, time_bus, ...), so the key keeps parameter
    and covariate names but reduces attributes to their quantity tags.
    """
    names = var_names(node)
    covariates = frozenset(v for v in names if kind_of.get(v) == "covariate")
    quantities = frozenset(
        quantity_of[v] for v in names if kind_of.get(v) == "attribute"
    )
    return (frozenset(param_names(node)), covariates, quantities)


def _interaction_keys(
    expr: Expr, kind_of, quantity_of, out: set, in_product: bool = False
) -> None:
    """Collect attribute-by-covariate products.

    Only the topmost multiplication of a product chain forms a key, so
    ``b * time * female`` is one interaction, not two: the descent passes
    "inside a product" only to the children of a ``*``.
    """
    product = isinstance(expr, Mul)
    if product and not in_product and _mixes_kinds(expr, kind_of):
        out.add(_interaction_key(expr, kind_of, quantity_of))
    for child in children(expr):
        _interaction_keys(child, kind_of, quantity_of, out, product)


def analyze_structure(spec: UtilitySpec, dictionary: DataDictionary) -> SpecStats:
    """Count the structural features of a spec.

    Raises :class:`UnknownVariable` if any referenced variable is missing
    from the dictionary.
    """
    check_variables(spec, dictionary)
    kind_of = {e.name: e.kind for e in dictionary.entries}
    quantity_of = {e.name: e.quantity for e in dictionary.entries}
    users = spec.users

    n_params = len(spec.free_parameters)
    all_vars: set[str] = set()
    n_transformations = 0
    interactions: set[tuple] = set()
    for alt in spec.alternatives:
        expr = spec.utilities[alt]
        all_vars |= var_names(expr)
        _interaction_keys(expr, kind_of, quantity_of, interactions)
        for node in iter_nodes(expr):
            if isinstance(node, (Pow, BoxCox, Piecewise)):
                n_transformations += 1
            elif isinstance(node, Call1) and node.fn in ("log", "sqrt"):
                n_transformations += 1

    n_generic = 0
    n_altspecific = 0
    for p in spec.parameters:
        if p.role != "taste":
            continue
        if len(users.get(p.name, ())) >= 2:
            n_generic += 1
        else:
            n_altspecific += 1

    n_socioeconomic = sum(1 for v in all_vars if kind_of[v] == "covariate")

    return SpecStats(
        n_params=n_params,
        n_vars=len(all_vars),
        has_asc=spec.has_asc,
        n_generic=n_generic,
        n_altspecific=n_altspecific,
        n_socioeconomic=n_socioeconomic,
        n_transformations=n_transformations,
        n_interactions=len(interactions),
    )
