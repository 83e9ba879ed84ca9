"""Maximum-likelihood estimation by Newton steps with backtracking.

Each step solves ``I d = g`` for the gradient ``g`` and the MNL
information matrix ``I`` at the current parameters
(:func:`~logitlab.engine.kernel.loglik_gradient_and_information`).  For
utilities linear in the parameters ``I`` is minus the exact Hessian of the
log-likelihood, which is globally concave, so the steps are Newton's;
otherwise ``I`` is the expected information and the steps are Fisher
scoring.  The minimum-norm least-squares solve gives a step where ``I`` is
singular: collinear parameters, or a Box-Cox shape whose utility terms
vanish at the start values.  The Armijo test accepts a rise of -loglik
within its rounding (``LL_ROUNDING`` relative), so steps near the optimum
whose gain is below the log-likelihood's precision still move the
gradient towards the stopping test instead of backtracking to a no-op.
The Armijo test needs only a value pass; the accepted trial's pass goes on
to the information pass, which reuses its probabilities.

Standard errors and t-ratios are classical: from the inverse of a
finite-difference Hessian at the optimum.

Everything here is deterministic: fixed start values, fixed step policy,
no randomness, so repeated runs on the same inputs are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from logitlab.engine.kernel import (
    log_likelihood,
    loglik_and_gradient,
    loglik_gradient_and_information,
    null_loglik,
)
from logitlab.engine.result import EstimationResult, ParameterEstimate
from logitlab.specdsl.binding import BoundModel

ARMIJO_C = 1e-4
SHRINK = 0.5
MAX_BACKTRACKS = 60
HESSIAN_STEP = 1e-4  # relative FD step for std errors
PD_TOL = 1e-8  # relative eigenvalue floor for "positive definite"
LL_ROUNDING = 1e-15  # relative rise of -loglik the Armijo test ignores
MAX_ITERS = 500
GRAD_TOL = 1e-6  # scaled by max(1, |LL|/n_obs): see estimate


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
    ll, grad, info = loglik_gradient_and_information(model, log_likelihood(model, theta))

    if not math.isfinite(ll):
        nan = np.full(k, np.nan)
        return EstimationResult(
            _rows(model.free_names, theta, nan, nan), ll, ll0, 0, False, "non_finite", False
        )

    reason = "max_iterations"
    iterations = 0
    for _ in range(MAX_ITERS):
        tol_eff = GRAD_TOL * max(1.0, abs(ll) / max(model.n_obs, 1))
        if k == 0 or float(np.abs(grad).max(initial=0.0)) <= tol_eff:
            reason = "gradient_tolerance"
            break

        d = np.linalg.lstsq(info, grad, rcond=None)[0]
        slope = -float(grad @ d)  # of -loglik along d

        alpha = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = log_likelihood(model, theta + alpha * d)
            if math.isfinite(trial.loglik) and (
                -trial.loglik <= -ll + ARMIJO_C * alpha * slope + LL_ROUNDING * abs(ll)
            ):
                break
            alpha *= SHRINK
        else:
            reason = "line_search_failure"
            break

        new_ll, new_grad, new_info = loglik_gradient_and_information(model, trial)
        if not math.isfinite(new_ll):
            reason = "non_finite"
            break

        theta, ll, grad, info = trial.theta, new_ll, new_grad, new_info
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
