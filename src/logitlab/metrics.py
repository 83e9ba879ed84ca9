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
from typing import TYPE_CHECKING

from logitlab import LogitlabError
from logitlab.engine.result import EstimationResult
from logitlab.specdsl.expr import Const, Div, Expr, Mul, Param, Var
from logitlab.specdsl.parser import UtilitySpec, additive_terms

if TYPE_CHECKING:
    from logitlab.dataset import DataDictionary

SIGNIFICANCE_T = 1.96


class MissingCoefficient(LogitlabError):
    """No alternative carries both a time and a cost main effect."""


@dataclass(frozen=True)
class ResultsFile:
    """The keys of an ``estimate --out`` file that ``metrics`` and ``validate`` read:
    a fit of ``spec_text`` to ``n_obs`` observations, one row per free parameter."""

    spec_text: UtilitySpec
    n_obs: int
    estimation: EstimationResult

    def __post_init__(self) -> None:
        if self.n_obs < 1:
            raise ValueError(f"'n_obs' is {self.n_obs}, not a positive count")
        rows, free = list(self.estimation.names), [p.name for p in self.spec_text.free_parameters]
        if rows != free:
            raise ValueError(f"'estimation' has rows {rows}, not the spec's free parameters {free}")


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
    by_alt: dict[str, dict[str, float]] = {}  # alternative -> quantity -> summed marginal utility
    for t in terms:
        slot = by_alt.setdefault(t.alternative, {})
        slot[t.quantity] = slot.get(t.quantity, 0.0) + result.coefficient(t.parameter) * t.scale
    per_alt = {
        alt: slot["time"] / slot["cost"]
        for alt, slot in by_alt.items()
        if "time" in slot and slot.get("cost", 0.0) != 0.0
    }
    if not per_alt:
        raise MissingCoefficient(
            "no alternative has both a time and a cost main-effect coefficient"
        )

    used_params = {t.parameter for t in terms if t.alternative in per_alt}
    weak = [
        name for name in sorted(used_params)
        if not (math.isfinite(t_ratio := result.t_ratio(name)) and abs(t_ratio) >= SIGNIFICANCE_T)
    ]

    value = sum(per_alt.values()) / len(per_alt)
    notes = f"averaged over {len(per_alt)} alternative(s); interactions excluded"
    if weak:
        notes += "; insignificant: " + ", ".join(weak)
    return VotEstimate(value=value, per_alternative=per_alt, reliable=not weak, notes=notes)
