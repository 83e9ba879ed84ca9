"""Fit statistics and behavioural quantities derived from estimates.

Time and cost coefficients are identified structurally, never by name: a
taste parameter counts as a time (cost) coefficient when it multiplies an
attribute whose dictionary entry is tagged ``quantity: time`` (``cost``)
in a plain main-effect term.  Interactions with covariates and any
transformed terms stay out of the ratio, so the value of time is reported
at the covariate baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from logitlab import LogitlabError
from logitlab.dataset import DataDictionary
from logitlab.engine.bfgs import EstimationResult
from logitlab.specdsl.expr import Const, Div, Expr, Mul, Param, Var
from logitlab.specdsl.parser import UtilitySpec, additive_terms

SIGNIFICANCE_T = 1.96


class MissingCoefficient(LogitlabError):
    """No alternative carries both a time and a cost main effect."""


@dataclass(frozen=True)
class FitStats:
    loglik: float = field(metadata={"missing": -math.inf})
    k: int
    n: int
    aic: float = field(metadata={"missing": math.inf})
    bic: float = field(metadata={"missing": math.inf})


@dataclass(frozen=True)
class VotEstimate:
    """Value of time in cost units per time unit (pounds per minute)."""

    value: float
    per_alternative: dict[str, float]
    reliable: bool
    notes: str


@dataclass(frozen=True)
class CoreTerm:
    """One main-effect appearance of a taste parameter on time or cost.

    ``scale`` folds in constant factors and the term's sign, so the
    effective marginal (dis)utility is ``estimate * scale``.
    """

    parameter: str
    alternative: str
    quantity: str  # time | cost
    scale: float


def information_criteria(loglik: float, k: int, n: int) -> FitStats:
    return FitStats(
        loglik=loglik,
        k=k,
        n=n,
        aic=2.0 * k - 2.0 * loglik,
        bic=k * math.log(n) - 2.0 * loglik,
    )


def rho_squared(loglik: float, null_loglik: float) -> float:
    return 1.0 - loglik / null_loglik


def _factorize(term: Expr) -> list[Expr] | None:
    """Flatten a product chain; None when a divisor is not a non-zero constant."""
    if isinstance(term, Mul):
        left = _factorize(term.left)
        right = _factorize(term.right)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(term, Div):
        num = _factorize(term.left)
        if num is None or not isinstance(term.right, Const) or term.right.value == 0.0:
            return None
        return num + [Const(1.0 / term.right.value)]
    return [term]


def core_terms(spec: UtilitySpec, dictionary: DataDictionary) -> list[CoreTerm]:
    """All time/cost main-effect terms, in utility order.

    A qualifying term is a product of exactly one free taste parameter,
    exactly one time- or cost-tagged attribute, and constants.
    """
    roles = {p.name: p.role for p in spec.parameters}
    free = {p.name for p in spec.free_parameters}
    quantity = {
        e.name: e.quantity for e in dictionary.entries if e.kind == "attribute"
    }
    out: list[CoreTerm] = []
    for alt in spec.alternatives:
        for sign, term in additive_terms(spec.utilities[alt]):
            factors = _factorize(term)
            if factors is None:
                continue
            scale = float(sign)
            params: list[str] = []
            tagged: list[str] = []
            ok = True
            for f in factors:
                if isinstance(f, Const):
                    scale *= f.value
                elif isinstance(f, Param):
                    params.append(f.name)
                elif isinstance(f, Var):
                    q = quantity.get(f.name, "other")
                    if q in ("time", "cost"):
                        tagged.append(f.name)
                    else:
                        ok = False  # covariate or untagged attribute
                else:
                    ok = False  # transformed term
            if not ok or len(params) != 1 or len(tagged) != 1:
                continue
            name = params[0]
            if roles.get(name) != "taste" or name not in free:
                continue
            out.append(CoreTerm(name, alt, quantity[tagged[0]], scale))
    return out


def value_of_time(
    result: EstimationResult, spec: UtilitySpec, dictionary: DataDictionary
) -> VotEstimate:
    """Mean over alternatives of beta_time / beta_cost from main effects.

    Alternatives missing either coefficient are skipped; if none qualify,
    raises :class:`MissingCoefficient`.
    """
    terms = core_terms(spec, dictionary)
    by_alt: dict[str, dict[str, float]] = {}
    involved: dict[str, set[str]] = {}
    for t in terms:
        slot = by_alt.setdefault(t.alternative, {"time": 0.0, "cost": 0.0})
        slot[t.quantity] += result.coefficient(t.parameter) * t.scale
        involved.setdefault(t.alternative, set()).add(t.parameter)

    per_alt: dict[str, float] = {}
    used_params: set[str] = set()
    for alt in spec.alternatives:
        slot = by_alt.get(alt)
        if not slot:
            continue
        has_time = any(t.alternative == alt and t.quantity == "time" for t in terms)
        has_cost = any(t.alternative == alt and t.quantity == "cost" for t in terms)
        if not (has_time and has_cost) or slot["cost"] == 0.0:
            continue
        per_alt[alt] = slot["time"] / slot["cost"]
        used_params |= involved[alt]

    if not per_alt:
        raise MissingCoefficient(
            "no alternative has both a time and a cost main-effect coefficient"
        )

    reliable = True
    weak: list[str] = []
    for name in sorted(used_params):
        t = result.t_ratio(name)
        if not (math.isfinite(t) and abs(t) >= SIGNIFICANCE_T):
            reliable = False
            weak.append(name)

    value = sum(per_alt.values()) / len(per_alt)
    notes = f"averaged over {len(per_alt)} alternative(s); interactions excluded"
    if weak:
        notes += "; insignificant: " + ", ".join(weak)
    return VotEstimate(value=value, per_alternative=per_alt, reliable=reliable, notes=notes)
