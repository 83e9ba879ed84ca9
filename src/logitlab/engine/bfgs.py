"""Maximum-likelihood estimation via BFGS with backtracking.

The inverse-Hessian approximation starts from the BHHH estimate
``(SᵀS)⁻¹``, built from the per-observation scores ``S`` at the start
values (Berndt, Hall, Hall and Hausman 1974), so the first steps are
scaled to the data; when ``SᵀS`` is near singular (collinear parameters)
it starts from the identity.  The Armijo test accepts a rise of -loglik
within its rounding (``LL_ROUNDING`` relative), so steps near the optimum
whose gain is below the log-likelihood's precision still move the
gradient towards the stopping test instead of backtracking to a no-op.

Standard errors and t-ratios are classical: from the inverse of a
finite-difference Hessian at the optimum.

Everything here is deterministic: fixed start values, fixed step policy,
no randomness, so repeated runs on the same inputs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from logitlab.engine.kernel import (
    log_likelihood,
    loglik_and_gradient,
    loglik_and_scores,
    null_loglik,
)
from logitlab.specdsl.binding import BoundModel

ARMIJO_C = 1e-4
SHRINK = 0.5
MAX_BACKTRACKS = 60
HESSIAN_STEP = 1e-4  # relative FD step for std errors
PD_TOL = 1e-8  # relative eigenvalue floor for "positive definite"
LL_ROUNDING = 1e-15  # relative rise of -loglik the Armijo test ignores
MAX_ITERS = 500
GRAD_TOL = 1e-6  # scaled by max(1, |LL|/n_obs): see estimate


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
    stopped, which is informative even for failed runs.  Standard errors
    and t-ratios are NaN when the Hessian is singular or indefinite.
    """

    parameters: tuple[ParameterEstimate, ...]
    loglik: float = field(metadata={"missing": -math.inf})
    null_loglik: float = field(metadata={"missing": -math.inf})
    iterations: int
    converged: bool
    convergence_reason: str  # gradient_tolerance | max_iterations | line_search_failure | non_finite
    hessian_pd: bool

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.parameters)

    @property
    def estimates(self) -> np.ndarray:
        return np.array([p.estimate for p in self.parameters])

    @property
    def std_errors(self) -> np.ndarray:
        return np.array([p.std_error for p in self.parameters])

    @property
    def t_ratios(self) -> np.ndarray:
        return np.array([p.t_ratio for p in self.parameters])

    @property
    def n_free(self) -> int:
        return len(self.parameters)

    def coefficient(self, name: str) -> float:
        return self.parameters[self.names.index(name)].estimate

    def t_ratio(self, name: str) -> float:
        return self.parameters[self.names.index(name)].t_ratio


def _rows(names: tuple[str, ...], theta, se, t) -> tuple[ParameterEstimate, ...]:
    """One row per free parameter from the estimate, standard error and t-ratio arrays."""
    return tuple(map(ParameterEstimate, names, theta.tolist(), se.tolist(), t.tolist()))


def _fd_hessian(model: BoundModel, theta: np.ndarray) -> np.ndarray:
    """Central differences of the exact gradient, symmetrized."""
    k = len(theta)
    H = np.empty((k, k))
    for i in range(k):
        h = HESSIAN_STEP * max(1.0, abs(theta[i]))
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        _, g_up = loglik_and_gradient(model, up)
        _, g_down = loglik_and_gradient(model, down)
        H[:, i] = (g_up - g_down) / (2.0 * h)
    return 0.5 * (H + H.T)


def _positive_definite(M: np.ndarray) -> bool:
    eigs = np.linalg.eigvalsh(M)
    return bool(eigs[0] > PD_TOL * max(eigs[-1], 1.0))


def _bhhh_inverse(S: np.ndarray) -> np.ndarray:
    """``(SᵀS)⁻¹`` from (n, k) scores, or the identity when SᵀS is not PD."""
    info = S.T @ S
    if S.shape[1] == 0 or not _positive_definite(info):
        return np.eye(S.shape[1])
    return np.linalg.inv(info)


def _curvature(model: BoundModel, theta: np.ndarray) -> tuple[bool, np.ndarray, np.ndarray]:
    """(hessian_pd, std_errors, t_ratios) at a candidate optimum."""
    k = len(theta)
    if k == 0:
        return True, np.empty(0), np.empty(0)
    H = _fd_hessian(model, theta)
    nan = np.full(k, np.nan)
    if not np.all(np.isfinite(H)):
        return False, nan, nan
    neg = -H
    if not _positive_definite(neg):
        return False, nan, nan
    cov = np.linalg.inv(neg)
    var = np.diag(cov).copy()
    var[var < 0] = np.nan
    se = np.sqrt(var)
    with np.errstate(all="ignore"):
        t = np.where(se > 0, theta / se, np.nan)
    return True, se, t


def estimate(model: BoundModel) -> EstimationResult:
    """Maximize the log-likelihood from the spec's start values.

    The gradient criterion scales with model size: iteration stops once
    max |gradient| is at most ``GRAD_TOL * max(1, |LL|/n_obs)``, or after
    ``MAX_ITERS`` iterations.
    """
    theta = np.array(model.start, dtype=float)
    k = len(theta)
    ll0 = null_loglik(model.dataset)
    ll, S = loglik_and_scores(model, theta)
    grad = S.sum(axis=0)

    if not math.isfinite(ll):
        nan = np.full(k, np.nan)
        return EstimationResult(
            _rows(model.free_names, theta, nan, nan), ll, ll0, 0, False, "non_finite", False
        )

    B = _bhhh_inverse(S)  # inverse Hessian approximation of -loglik
    reason = "max_iterations"
    iterations = 0
    for _ in range(MAX_ITERS):
        tol_eff = GRAD_TOL * max(1.0, abs(ll) / max(model.n_obs, 1))
        if k == 0 or float(np.abs(grad).max(initial=0.0)) <= tol_eff:
            reason = "gradient_tolerance"
            break

        gf = -grad
        d = -B @ gf
        slope = float(gf @ d)
        if slope >= 0.0:  # stale curvature, restart from steepest ascent
            B = np.eye(k)
            d = -gf
            slope = float(gf @ d)

        alpha = 1.0
        new_ll = -math.inf
        new_theta = theta
        for _ in range(MAX_BACKTRACKS):
            cand = theta + alpha * d
            # Armijo test needs only the value; the gradient pass runs
            # once after acceptance and reuses the probabilities this
            # value pass keeps on the model.
            cand_ll = log_likelihood(model, cand)
            if math.isfinite(cand_ll) and (
                -cand_ll <= -ll + ARMIJO_C * alpha * slope + LL_ROUNDING * abs(ll)
            ):
                new_ll = cand_ll
                new_theta = cand
                break
            alpha *= SHRINK
        else:
            reason = "line_search_failure"
            break

        _, new_grad = loglik_and_gradient(model, new_theta)
        if not np.all(np.isfinite(new_grad)):
            reason = "non_finite"
            break

        s = new_theta - theta
        y = -(new_grad - grad)  # gradient change of -loglik
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            rho = 1.0 / sy
            I = np.eye(k)
            V = I - rho * np.outer(s, y)
            B = V @ B @ V.T + rho * np.outer(s, s)

        theta, ll, grad = new_theta, new_ll, new_grad
        iterations += 1

    hessian_pd, se, t = _curvature(model, theta)
    converged = reason == "gradient_tolerance" and hessian_pd
    return EstimationResult(
        parameters=_rows(model.free_names, theta, se, t),
        loglik=ll,
        null_loglik=ll0,
        iterations=iterations,
        converged=converged,
        convergence_reason=reason,
        hessian_pd=hessian_pd,
    )
