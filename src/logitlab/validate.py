"""Inclusion rules and behavioural plausibility checks.

A converged model with alternative-specific constants and well-signed
time/cost coefficients is included; everything else is excluded under a
single label with precedence nonconvergence, then positive sign, then
missing ASCs.  Statistical insignificance is recorded but never excludes
a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from logitlab.engine.result import EstimationResult
from logitlab.metrics import SIGNIFICANCE_T, core_terms
from logitlab.specdsl.parser import UtilitySpec

if TYPE_CHECKING:
    from logitlab.dataset import DataDictionary

INCLUDED = "included"
EXCLUDED_NO_ASC = "excluded_no_asc"
EXCLUDED_NONCONVERGENCE = "excluded_nonconvergence"
EXCLUDED_POSITIVE_SIGN = "excluded_positive_sign"


@dataclass(frozen=True)
class SignViolation:
    parameter: str
    estimate: float


@dataclass(frozen=True)
class ValidationReport:
    has_asc: bool
    converged: bool
    sign_violations: tuple[SignViolation, ...]
    insignificant_core: tuple[str, ...]
    exclusion: str
    notes: str = ""

    @property
    def included(self) -> bool:
        return self.exclusion == INCLUDED


def _unidentified(spec: UtilitySpec) -> bool:
    """Whether ASCs cover every alternative and none is fixed as the reference."""
    users = spec.users
    ascs = [p for p in spec.parameters if p.role == "asc" and p.name in users]
    covered = {alt for p in ascs for alt in users[p.name]}
    return bool(ascs) and all(p.fixed is None for p in ascs) and covered == set(spec.alternatives)


def check_model(
    result: EstimationResult, spec: UtilitySpec, dictionary: DataDictionary
) -> ValidationReport:
    """Apply the inclusion rules to one estimated spec.

    Sign and significance checks cover time/cost main effects only; the
    effective sign folds in any constant factors in the term.
    """
    has_asc = spec.has_asc
    terms = core_terms(spec, dictionary)
    violations = [
        SignViolation(parameter=name, estimate=result.coefficient(name))
        for name in dict.fromkeys(
            t.parameter for t in terms if result.coefficient(t.parameter) * t.scale > 0.0
        )
    ]
    weak = tuple(
        name for name in dict.fromkeys(t.parameter for t in terms)
        if math.isfinite(t_ratio := result.t_ratio(name)) and abs(t_ratio) < SIGNIFICANCE_T
    )

    if not result.converged:
        exclusion = EXCLUDED_NONCONVERGENCE
    elif violations:
        exclusion = EXCLUDED_POSITIVE_SIGN
    elif not has_asc:
        exclusion = EXCLUDED_NO_ASC
    else:
        exclusion = INCLUDED

    notes = []
    if _unidentified(spec):
        notes.append("unidentified_asc: full ASC set with no fixed reference")
    if not result.converged:
        notes.append(f"stopped on {result.convergence_reason}, hessian_pd={result.hessian_pd}")
    return ValidationReport(
        has_asc=has_asc,
        converged=result.converged,
        sign_violations=tuple(violations),
        insignificant_core=weak,
        exclusion=exclusion,
        notes="; ".join(notes),
    )

