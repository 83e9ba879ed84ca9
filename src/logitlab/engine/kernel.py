"""MNL choice probabilities, log-likelihood, exact gradient and scores.

Utilities are evaluated for a block of rows at once; unavailable
alternatives are masked out before the softmax, so their probabilities
are exactly zero and whatever the expressions produced on those rows
(often NaN, e.g. log of a zeroed attribute) never propagates.

Each pass splits the rows into fixed blocks of ``ROW_BLOCK`` rows.  Per
block it writes the utilities into its rows of one (n, J) buffer, tests
them, forms the probabilities in place and writes its log chosen
probabilities.  A pass over more than ``ROW_BLOCK`` rows runs its blocks,
and then its per-parameter sums, on a thread pool sized to the CPUs the
process may use, created on the first such pass; a smaller pass, or a
process with one CPU, runs in the calling thread and never imports
``concurrent.futures``.  No reduction is split by the blocks: the
log-likelihood sum and the ``-inf`` verdict (one failed block fails the
pass) run once over the full arrays in the calling thread, and each
parameter's gradient or score sum is one numpy call over all rows.  So
every result is bit-identical to a one-thread pass, whatever the block
size and the number of threads, and there is no thread setting.  Each
block enters its own ``np.errstate``, which holds only in the thread that
enters it.

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
``y`` the one-hot choice; the gradient sums over the rows as well.
``Y − P`` is formed in P's buffer, as ``-P`` plus 1 at each row's chosen
cell.  ∂V/∂θ is stored parameter-first, (k, n, J), so each parameter's
slab is a contiguous (n, J) array laid out as ``Y − P`` is, and each
parameter's gradient or scores are one task: one ``np.einsum`` of
``Y − P`` with that slab.  Binding split each utility into its affine
terms, whose derivatives it cached as the design, and the residual terms.
So the tasks take the design's slabs and, for the residuals' own
parameters, the slabs of the residuals' derivatives at θ from one
forward-mode dual-number pass (:func:`jacobian`, which also built the
design), whose sums are added to the design's.  An all-affine spec has no
residual parameters and makes no dual pass.

A value pass keeps its (log-likelihood, P) on the model
(``BoundModel.kept``), so the gradient an optimizer asks for at the step
it just accepted skips the utilities and the softmax.  Every pass forms
the utilities with the same compiled functions on float parameters, so
the kept P has the bits a fresh pass would compute.  Each value pass
replaces the entry, a -inf one is not kept, and a gradient pass pops it
before writing ``Y − P`` into its buffer, so it serves at most one
gradient.
"""

from __future__ import annotations

import math
import os

import numpy as np

from logitlab.dataset import Dataset
from logitlab.engine.dual import Dual
from logitlab.specdsl.binding import ALL_ROWS, BoundModel

ROW_BLOCK = 25_000  # rows per block of a pass's per-row work
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None  # created by the first pass with more than one block


class NonFiniteUtility(Exception):
    """An expression evaluated to NaN or infinity where it matters."""


def _check_theta(model: BoundModel, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.n_free,):
        raise ValueError(
            f"theta has shape {theta.shape}; the model has {model.n_free} free parameters"
        )
    if not np.all(np.isfinite(theta)):
        raise NonFiniteUtility("parameter vector contains non-finite values")
    return theta


def _row_blocks(n: int, work) -> list:
    """``work(rows)`` for each block of ``ROW_BLOCK`` rows of ``n``, results in row order.

    One block is ``ALL_ROWS``; several run as :func:`_tasks` of a pass over ``n`` rows.
    """
    if n <= ROW_BLOCK:
        return [work(ALL_ROWS)]
    blocks = [slice(start, min(start + ROW_BLOCK, n)) for start in range(0, n, ROW_BLOCK)]
    return _tasks(n, work, blocks)


def _tasks(n: int, work, items) -> list:
    """``work(item)`` for each item, results in order, as part of a pass over ``n`` rows.

    A pass over more than ``ROW_BLOCK`` rows runs them on a thread pool of
    ``WORKERS`` threads; a smaller pass, or one worker, in the calling thread.
    """
    global _pool
    if n <= ROW_BLOCK or WORKERS < 2:
        return [work(item) for item in items]
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="logitlab-rows")
    return list(_pool.map(work, items))


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


def log_likelihood(model: BoundModel, theta) -> float:
    """Sum of log chosen-probabilities; -inf when evaluation breaks down.

    The pass is kept for one gradient at the same θ.
    """
    theta = _check_theta(model, theta)
    model.kept.clear()
    ll, P = _value_pass(model, theta)
    if P is not None:
        model.kept[theta.tobytes()] = ll, P
    return ll


def _value_pass(model: BoundModel, theta: np.ndarray) -> tuple[float, np.ndarray | None]:
    """(log-likelihood, P) from the compiled utilities, block by block."""
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


def jacobian(model: BoundModel, utilities, theta, idx, out: np.ndarray | None = None) -> np.ndarray:
    """∂/∂θ (len(idx), n, J) of one compiled expression per alternative, over the
    free parameters at indices ``idx`` only: one dual-number pass over row blocks,
    zero on unavailable cells, written into ``out`` (zeros) when given."""
    k = len(idx)
    G = np.zeros((k, model.n_obs, model.n_alts)) if out is None else out
    args = theta.tolist()
    for col, i in enumerate(idx):
        args[i] = Dual.seed(args[i], col, k)

    def fill(rows) -> None:
        Gb = G[:, rows]
        with np.errstate(all="ignore"):
            for j, utility in enumerate(utilities):
                res = utility(rows, args)
                if isinstance(res, Dual):
                    Gb[:, :, j] = np.broadcast_to(res.grad, (Gb.shape[1], k)).T
        Gb[:, ~model.avail[rows]] = 0.0

    _row_blocks(model.n_obs, fill)
    return G


def _score_pass(model: BoundModel, theta, per_row: bool) -> tuple[float, np.ndarray | None]:
    """Log-likelihood and ``Y − P`` contracted with ∂V/∂θ, over the alternatives,
    and over the rows too unless ``per_row``; None when LL is -inf.  ∂V/∂θ is
    the design plus, on the residuals' parameters, their Jacobian at θ.
    P comes from the value pass kept at this θ or a fresh one."""
    theta = _check_theta(model, theta)
    ll, P = model.kept.pop(theta.tobytes(), None) or _value_pass(model, theta)
    if P is None:
        return ll, None

    def residuals(rows) -> None:
        R = np.negative(P[rows], out=P[rows])
        R[np.arange(len(R)), model.choice_idx[rows]] += 1.0

    _row_blocks(model.n_obs, residuals)  # P's buffer now holds Y - P
    slabs = [*model.design]
    if model.residual_idx:
        slabs += [*jacobian(model, model.residuals, theta, model.residual_idx)]
    subscripts = "nj,nj->n" if per_row else "nj,nj->"
    sums = np.empty((model.n_obs, len(slabs)) if per_row else len(slabs))
    contract = lambda q: np.einsum(subscripts, P, slabs[q], out=sums[..., q])
    _tasks(model.n_obs, contract, range(len(slabs)))
    out = sums[..., : model.n_free]
    if model.residual_idx:
        out[..., model.residual_idx] += sums[..., model.n_free :]
    return ll, out


def loglik_and_scores(model: BoundModel, theta) -> tuple[float, np.ndarray]:
    """Log-likelihood and the (n, k) per-observation scores ``Σⱼ (yₙⱼ − Pₙⱼ) ∂Vₙⱼ/∂θ``.

    The scores are NaN-filled when the log-likelihood is -inf.
    """
    ll, S = _score_pass(model, theta, per_row=True)
    if S is None or not np.all(np.isfinite(S)):
        return -math.inf, np.full((model.n_obs, model.n_free), np.nan)
    return ll, S


def loglik_and_gradient(model: BoundModel, theta) -> tuple[float, np.ndarray]:
    """Log-likelihood and its exact gradient ``Σₙ Σⱼ (yₙⱼ − Pₙⱼ) ∂Vₙⱼ/∂θ``.

    One sum over rows and alternatives per parameter, without the (n, k)
    scores.  The gradient is NaN-filled when the log-likelihood is -inf.
    """
    ll, grad = _score_pass(model, theta, per_row=False)
    if grad is None or not np.all(np.isfinite(grad)):
        return -math.inf, np.full(model.n_free, np.nan)
    return ll, grad


def null_loglik(dataset: Dataset) -> float:
    """Log-likelihood of equal shares over each row's available set.

    fsum keeps the result exact up to one rounding, so a dataset with a
    constant availability count reproduces -n*log(count) bit-for-bit.
    """
    return -math.fsum(map(math.log, dataset.avail.sum(axis=1).tolist()))
