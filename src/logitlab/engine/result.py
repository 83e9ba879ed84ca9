"""What one maximum-likelihood run yields, as it is persisted.

:func:`~logitlab.engine.bfgs.estimate` builds an :class:`EstimationResult`;
``metrics``, ``validate``, ``runner`` and ``report`` decode and read one.
This module imports no numpy, so a process that only reads results never
loads it; the three array properties import it when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Why iteration stopped, as estimate records it.
CONVERGENCE_REASONS = ("gradient_tolerance", "max_iterations", "line_search_failure", "non_finite")


@dataclass(frozen=True)
class ParameterEstimate:
    """One free parameter's row of an :class:`EstimationResult`."""

    name: str
    estimate: float
    std_error: float
    t_ratio: float


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of one maximum-likelihood run.

    ``converged`` requires both the gradient criterion and a negative
    definite Hessian; ``convergence_reason`` records why iteration
    stopped, which is informative even for failed runs.  Every estimate is
    finite, and so is the null log-likelihood, which is negative; a
    ``loglik`` that could not be computed is -inf.  Standard errors and
    t-ratios are NaN when the Hessian is
    singular or indefinite.  ``estimates``, ``std_errors`` and ``t_ratios``
    return arrays and import numpy when called.
    """

    parameters: tuple[ParameterEstimate, ...]
    loglik: float = field(metadata={"missing": -math.inf})
    null_loglik: float
    iterations: int
    converged: bool
    convergence_reason: str  # one of CONVERGENCE_REASONS
    hessian_pd: bool

    def __post_init__(self) -> None:
        names = self.names
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"'parameters' has more than one row for '{name}'")
        if not -math.inf < self.null_loglik < 0.0:
            raise ValueError(f"'null_loglik' is {self.null_loglik}, not a finite negative number")
        if self.loglik > 0.0:
            raise ValueError(f"'loglik' is {self.loglik}, above 0")
        for p in self.parameters:
            if not math.isfinite(p.estimate):
                raise ValueError(
                    f"'parameters' has estimate {p.estimate} for '{p.name}', not a finite number"
                )
        if self.convergence_reason not in CONVERGENCE_REASONS:
            raise ValueError(
                f"'convergence_reason' is '{self.convergence_reason}',"
                f" not one of {list(CONVERGENCE_REASONS)}"
            )
        if self.converged != (self.convergence_reason == "gradient_tolerance" and self.hessian_pd):
            raise ValueError(
                f"'converged' is {str(self.converged).lower()} with 'convergence_reason'"
                f" '{self.convergence_reason}' and 'hessian_pd' {str(self.hessian_pd).lower()}"
            )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    @property
    def estimates(self) -> np.ndarray:
        import numpy as np

        return np.array([p.estimate for p in self.parameters])

    @property
    def std_errors(self) -> np.ndarray:
        import numpy as np

        return np.array([p.std_error for p in self.parameters])

    @property
    def t_ratios(self) -> np.ndarray:
        import numpy as np

        return np.array([p.t_ratio for p in self.parameters])

    @property
    def n_free(self) -> int:
        return len(self.parameters)

    def coefficient(self, name: str) -> float:
        return self.parameters[self.names.index(name)].estimate

    def t_ratio(self, name: str) -> float:
        return self.parameters[self.names.index(name)].t_ratio
