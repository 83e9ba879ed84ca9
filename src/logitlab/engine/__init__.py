"""MNL likelihood evaluation and maximum-likelihood estimation.

The kernel evaluates the utilities that binding compiled, with plain
floats for the parameters; the softmax runs in one (n, J) buffer and
gives the same log-likelihood bits as the masked-copy formula with numpy
row reductions (below eight alternatives).  The
per-observation scores are ``Σⱼ (yₙⱼ − Pₙⱼ) ∂Vₙⱼ/∂θ`` with ``y`` the
one-hot choice.  The derivatives ∂V/∂θ are the design that binding
caches for each utility's affine terms, plus the derivatives of the
other terms, from a pass with forward-mode dual numbers over only the
parameters those terms contain.  The gradient at a step the line search
accepted reuses the probabilities of that step's value pass.
The optimizer is BFGS started from the BHHH inverse ``(SᵀS)⁻¹`` of the
per-observation scores, with an Armijo backtracking line search that
ignores changes within the log-likelihood's rounding.  Standard errors
and t-ratios are classical, from a finite-difference Hessian of the
log-likelihood at the optimum.
"""

from logitlab.engine.dual import Dual
from logitlab.engine.kernel import (
    NonFiniteUtility,
    log_likelihood,
    loglik_and_gradient,
    loglik_and_scores,
    null_loglik,
    probabilities,
    probability_matrix,
)
from logitlab.engine.bfgs import EstimationResult, estimate

__all__ = [
    "Dual",
    "NonFiniteUtility",
    "log_likelihood",
    "loglik_and_gradient",
    "loglik_and_scores",
    "null_loglik",
    "probabilities",
    "probability_matrix",
    "EstimationResult",
    "estimate",
]
