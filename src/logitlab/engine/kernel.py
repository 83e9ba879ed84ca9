"""MNL choice probabilities, log-likelihood, exact gradient and scores.

Utilities are evaluated for a block of rows at once; unavailable
alternatives are masked out before the softmax, so their probabilities
are exactly zero and whatever the expressions produced on those rows
(often NaN, e.g. log of a zeroed attribute) never propagates.

Each pass splits the rows into fixed blocks of ``ROW_BLOCK`` rows.  Per
block it writes the utilities into its rows of one (n, J) buffer (and,
on the dual path, ∂V/∂θ into its rows of one (n, J, k) buffer), tests
them, forms the probabilities in place and writes its log chosen
probabilities.  A pass over more than ``ROW_BLOCK`` rows runs its blocks
on a thread pool sized to the CPUs the process may use, created on the
first such pass; a smaller pass, or a process with one CPU, runs in the
calling thread and never imports ``concurrent.futures``.  Every reduction
runs once over the full arrays in the calling thread: the log-likelihood
sum, the gradient and score contractions, and the ``-inf`` verdict (one
failed block fails the pass).  So every result is bit-identical to a
one-thread pass, whatever the block size and the number of threads, and
there is no thread setting.  Each block enters its own ``np.errstate``,
which holds only in the thread that enters it.

The log-likelihood returns ``-inf`` instead of raising when a wild
parameter step drives utilities non-finite or the chosen probability
underflows; the optimizer treats that as a rejected step.  The finiteness
test looks at a block's whole utility matrix first and masks out
unavailable cells only when that fails, so the usual all-finite pass
makes no copy.

The value pass shifts, exponentiates and normalises each block's
utilities in place and reduces over the J alternatives column by column.
It gives the same bits as the textbook masked-copy softmax with numpy's
row max and row sum (``tests/test_engine.py`` keeps that formula as its
reference) for fewer than eight alternatives, where numpy's row sum also
adds left to right.

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
import os
from typing import Callable

import numpy as np

from logitlab.dataset import Dataset
from logitlab.engine.dual import DUAL_FUNCS, Dual
from logitlab.specdsl.binding import ALL_ROWS, BoundModel

ROW_BLOCK = 25_000  # rows per block of a pass's per-row work
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None  # created by the first pass with more than one block


class NonFiniteUtility(Exception):
    """An expression evaluated to NaN or infinity where it matters."""


def _check_theta(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise NonFiniteUtility("parameter vector contains non-finite values")
    return theta


def _row_blocks(n: int, work) -> list:
    """``work(rows)`` for each block of ``ROW_BLOCK`` rows of ``n``, results in row order.

    Several blocks run on a thread pool of ``WORKERS`` threads; one block,
    or one worker, runs in the calling thread.  One block is ``ALL_ROWS``.
    """
    global _pool
    if n <= ROW_BLOCK:
        return [work(ALL_ROWS)]
    blocks = [slice(start, min(start + ROW_BLOCK, n)) for start in range(0, n, ROW_BLOCK)]
    if WORKERS < 2:
        return [work(rows) for rows in blocks]
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="logitlab-rows")
    return list(_pool.map(work, blocks))


def probability_matrix(V: np.ndarray, avail: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax over available alternatives, exact 0 elsewhere.

    Utilities are shifted by the row max over available alternatives
    before exponentiation.  Rows with non-finite available utilities
    come out as NaN; callers decide whether that is an error or a
    rejected optimization step.

    One (n, J) buffer is shifted, exponentiated and normalised in place;
    the row max and the row sum (left to right) run column by column.
    The probabilities go to ``out`` when given, which may be ``V``
    itself, and to that buffer otherwise.
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
        return np.divide(E, total[:, None], out=E if out is None else out)


def probabilities(model: BoundModel, theta, row_index: int) -> dict[str, float]:
    """Choice probabilities for one row, keyed by alternative."""
    theta = _check_theta(theta)
    if not 0 <= row_index < model.n_obs:
        raise IndexError(f"row_index {row_index} is out of range for {model.n_obs} rows")
    rows = slice(row_index, row_index + 1)
    V = model.utility_matrix(theta, rows)
    avail = model.avail[rows]
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
    ll, P = _value_pass(model, theta)
    if P is not None and model.design is not None:
        model.kept[theta.tobytes()] = ll, P
    return ll


def _value_pass(model: BoundModel, theta: np.ndarray) -> tuple[float, np.ndarray | None]:
    """(log-likelihood, P) with utilities from the plain value walk, block by block."""
    V = np.empty((model.n_obs, model.n_alts))
    fill = lambda rows: model.utility_matrix(theta, rows, out=V[rows])
    return _loglik_from_utilities(V, model.avail, model.choice_idx, fill)


def _loglik_from_utilities(V, avail, choice_idx, fill=None) -> tuple[float, np.ndarray | None]:
    """(log-likelihood, probability matrix); P is None when LL is -inf.

    Each block of rows first calls ``fill(rows)``, when given, to write its
    utilities into ``V[rows]``; then it tests them, forms its probabilities
    in V's buffer and writes its log chosen probabilities.  The verdict and
    the sum over all rows run in the calling thread, so the result does not
    depend on the blocks.
    """
    log_chosen = np.empty(len(V))

    def block(rows) -> bool:
        if fill is not None:
            fill(rows)
        Vb, ab = V[rows], avail[rows]
        if not np.isfinite(Vb).all() and not np.isfinite(np.where(ab, Vb, 0.0)).all():
            return False
        P = probability_matrix(Vb, ab, out=Vb)
        chosen = np.take_along_axis(P, choice_idx[rows, None], axis=1)[:, 0]
        if np.any(chosen <= 0.0):
            return False
        np.log(chosen, out=log_chosen[rows])  # chosen > 0: no floating-point warning
        return True

    if not all(_row_blocks(len(V), block)):
        return -math.inf, None
    return float(log_chosen.sum()), V


def _dual_rows(model: BoundModel, theta) -> tuple[np.ndarray, np.ndarray, Callable[[slice], None]]:
    """Buffers for V (n, J) and G = ∂V/∂θ (n, J, k), and ``fill(rows)``, which
    writes both on ``rows`` by one dual-number pass and zeroes G's unavailable cells."""
    n, J, k = model.n_obs, model.n_alts, model.n_free
    V = np.empty((n, J))
    G = np.zeros((n, J, k))
    env = model.param_env(theta, lift=lambda v, i: Dual.seed(v, i, k))

    def fill(rows) -> None:
        Vb, Gb = V[rows], G[rows]
        m = len(Vb)
        with np.errstate(all="ignore"):
            for j, expr in enumerate(model.utilities):
                res = model.utility_values(expr, env, DUAL_FUNCS, rows)
                if isinstance(res, Dual):
                    Vb[:, j] = np.broadcast_to(res.val, (m,))
                    Gb[:, j, :] = np.broadcast_to(res.grad, (m, k))
                else:
                    Vb[:, j] = np.broadcast_to(res, (m,))
        Gb[~model.avail[rows]] = 0.0

    return V, G, fill


def utility_jacobian(model: BoundModel, theta) -> tuple[np.ndarray, np.ndarray]:
    """Utilities (n, J) and their exact derivatives ∂V/∂θ (n, J, k).

    One dual-number pass over row blocks; derivatives are zeroed on
    unavailable cells.
    """
    V, G, fill = _dual_rows(model, theta)
    _row_blocks(model.n_obs, fill)
    return V, G


def _residuals(model: BoundModel, theta) -> tuple[float, np.ndarray | None, np.ndarray]:
    """Log-likelihood, ``Y - P`` and ``G = ∂V/∂θ``; the residuals are None when LL is -inf.

    ``Y`` is the one-hot choice.  ``G`` is the model's cached design when
    its utilities are affine in the parameters (utilities then come from
    the plain value walk, or the value pass kept at this θ), and a
    dual-number pass otherwise.
    """
    theta = _check_theta(theta)
    if model.design is None:
        V, G, fill = _dual_rows(model, theta)
        ll, P = _loglik_from_utilities(V, model.avail, model.choice_idx, fill)
    else:
        G = model.design
        ll, P = model.kept.pop(theta.tobytes(), None) or _value_pass(model, theta)
    if P is None:
        return ll, None, G

    def residuals(rows) -> None:
        R = np.negative(P[rows], out=P[rows])
        R[np.arange(len(R)), model.choice_idx[rows]] += 1.0

    _row_blocks(model.n_obs, residuals)
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
