"""MNL choice probabilities, log-likelihood, exact gradient and scores.

Utilities are evaluated for every row at once; unavailable alternatives
are masked out before the softmax, so their probabilities are exactly
zero and whatever the expressions produced on those rows (often NaN,
e.g. log of a zeroed attribute) never propagates.

The log-likelihood returns ``-inf`` instead of raising when a wild
parameter step drives utilities non-finite or the chosen probability
underflows; the optimizer treats that as a rejected step.  The finiteness
test looks at the whole utility matrix first and masks out unavailable
cells only when that fails, so the usual all-finite pass makes no copy.

The value pass shifts, exponentiates and normalises one (n, J) buffer
and reduces over the J alternatives column by column.  It gives the same
bits as the textbook masked-copy softmax with numpy's row max and row sum
(``tests/test_engine.py`` keeps that formula as its reference) for fewer
than eight alternatives, where numpy's row sum also adds left to right.

The scores are the textbook MNL score ``Σⱼ (yₙⱼ − Pₙⱼ) ∂Vₙⱼ/∂θ`` with
``y`` the one-hot choice, one contraction of the residuals ``Y − P``
with ``G = ∂V/∂θ``; the gradient contracts over the rows as well.  The
residuals are formed in P's buffer, as ``-P`` plus 1 at each row's chosen
cell.  ``G`` is the model's cached design when binding found every
utility affine in the parameters, and comes from a dual-number pass
otherwise.

On the design path a value pass keeps its (log-likelihood, P) on the
model (``BoundModel.kept``), so the gradient an optimizer asks for at the
step it just accepted skips the utilities and the softmax.  The plain
value walk is the utility source of both passes there, so the kept P has
the bits a fresh pass would compute.  Each value pass replaces the entry,
a -inf one is not kept, and a gradient pass pops it before writing the
residuals into its buffer, so it serves at most one gradient.  The dual
path computes V through duals and always makes its own pass.
"""

from __future__ import annotations

import math

import numpy as np

from logitlab.dataset import Dataset
from logitlab.engine.dual import DUAL_FUNCS, Dual
from logitlab.specdsl.binding import BoundModel


class NonFiniteUtility(Exception):
    """An expression evaluated to NaN or infinity where it matters."""


def _check_theta(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise NonFiniteUtility("parameter vector contains non-finite values")
    return theta


def probability_matrix(V: np.ndarray, avail: np.ndarray) -> np.ndarray:
    """Row-wise softmax over available alternatives, exact 0 elsewhere.

    Utilities are shifted by the row max over available alternatives
    before exponentiation.  Rows with non-finite available utilities
    come out as NaN; callers decide whether that is an error or a
    rejected optimization step.

    One (n, J) buffer is shifted, exponentiated and normalised in place;
    the row max and the row sum (left to right) run column by column.
    """
    with np.errstate(all="ignore"):
        E = np.where(avail, V, -np.inf)
        shift = E[:, 0].copy()
        for column in E.T[1:]:
            np.maximum(shift, column, out=shift)
        E -= shift[:, None]
        np.exp(E, out=E)
        total = E[:, 0].copy()
        for column in E.T[1:]:
            total += column
        E /= total[:, None]
        return E


def probabilities(model: BoundModel, theta, row_index: int) -> dict[str, float]:
    """Choice probabilities for one row, keyed by alternative."""
    theta = _check_theta(theta)
    V = model.utility_matrix(theta)[row_index : row_index + 1]
    avail = model.avail[row_index : row_index + 1]
    if not np.all(np.isfinite(V[avail])):
        raise NonFiniteUtility(f"non-finite utility in row {row_index}")
    P = probability_matrix(V, avail)[0]
    return {alt: float(P[j]) for j, alt in enumerate(model.alternatives)}


def log_likelihood(model: BoundModel, theta) -> float:
    """Sum of log chosen-probabilities; -inf when evaluation breaks down.

    On the design path the pass is kept for one gradient at the same θ.
    """
    theta = _check_theta(theta)
    model.kept.clear()
    ll, P = _loglik_from_utilities(model.utility_matrix(theta), model.avail, model.choice_idx)
    if P is not None and model.design is not None:
        model.kept[theta.tobytes()] = ll, P
    return ll


def _loglik_from_utilities(V, avail, choice_idx) -> tuple[float, np.ndarray | None]:
    """(log-likelihood, probability matrix); P is None when LL is -inf."""
    if not np.isfinite(V).all() and not np.isfinite(np.where(avail, V, 0.0)).all():
        return -math.inf, None
    P = probability_matrix(V, avail)
    chosen = np.take_along_axis(P, choice_idx[:, None], axis=1)[:, 0]
    if np.any(chosen <= 0.0):
        return -math.inf, None
    return float(np.log(chosen).sum()), P


def utility_jacobian(model: BoundModel, theta) -> tuple[np.ndarray, np.ndarray]:
    """Utilities (n, J) and their exact derivatives ∂V/∂θ (n, J, k).

    One dual-number pass; derivatives are zeroed on unavailable cells.
    """
    n, J, k = model.n_obs, model.n_alts, model.n_free
    V = np.empty((n, J))
    G = np.zeros((n, J, k))
    env = model.param_env(theta, lift=lambda v, i: Dual.seed(v, i, k))
    with np.errstate(all="ignore"):
        for j, expr in enumerate(model.utilities):
            res = model.utility_values(expr, env, DUAL_FUNCS)
            if isinstance(res, Dual):
                V[:, j] = np.broadcast_to(res.val, (n,))
                G[:, j, :] = np.broadcast_to(res.grad, (n, k))
            else:
                V[:, j] = np.broadcast_to(res, (n,))
    return V, np.where(model.avail[:, :, None], G, 0.0)


def _residuals(model: BoundModel, theta) -> tuple[float, np.ndarray | None, np.ndarray]:
    """Log-likelihood, ``Y - P`` and ``G = ∂V/∂θ``; the residuals are None when LL is -inf.

    ``Y`` is the one-hot choice.  ``G`` is the model's cached design when
    its utilities are affine in the parameters (utilities then come from
    the plain value walk, or the value pass kept at this θ), and a
    dual-number pass otherwise.
    """
    theta = _check_theta(theta)
    if model.design is None:
        V, G = utility_jacobian(model, theta)
        ll, P = _loglik_from_utilities(V, model.avail, model.choice_idx)
    else:
        G = model.design
        ll, P = model.kept.pop(theta.tobytes(), None) or _loglik_from_utilities(
            model.utility_matrix(theta), model.avail, model.choice_idx
        )
    if P is None:
        return ll, None, G
    np.negative(P, out=P)
    P[np.arange(model.n_obs), model.choice_idx] += 1.0
    return ll, P, G


def loglik_and_scores(model: BoundModel, theta) -> tuple[float, np.ndarray]:
    """Log-likelihood and the (n, k) per-observation scores ``Σⱼ (yₙⱼ − Pₙⱼ) ∂Vₙⱼ/∂θ``.

    The scores are NaN-filled when the log-likelihood is -inf.
    """
    ll, R, G = _residuals(model, theta)
    S = None if R is None else np.einsum("nj,njk->nk", R, G)
    if S is None or not np.all(np.isfinite(S)):
        return -math.inf, np.full((model.n_obs, model.n_free), np.nan)
    return ll, S


def loglik_and_gradient(model: BoundModel, theta) -> tuple[float, np.ndarray]:
    """Log-likelihood and its exact gradient ``Σₙ Σⱼ (yₙⱼ − Pₙⱼ) ∂Vₙⱼ/∂θ``.

    One contraction over rows and alternatives, without the (n, k)
    scores.  The gradient is NaN-filled when the log-likelihood is -inf.
    """
    ll, R, G = _residuals(model, theta)
    grad = None if R is None else np.einsum("nj,njk->k", R, G)
    if grad is None or not np.all(np.isfinite(grad)):
        return -math.inf, np.full(model.n_free, np.nan)
    return ll, grad


def null_loglik(dataset: Dataset) -> float:
    """Log-likelihood of equal shares over each row's available set.

    fsum keeps the result exact up to one rounding, so a dataset with a
    constant availability count reproduces -n*log(count) bit-for-bit.
    """
    return -math.fsum(map(math.log, dataset.avail.sum(axis=1).tolist()))
