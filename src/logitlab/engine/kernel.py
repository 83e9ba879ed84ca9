"""MNL choice probabilities, log-likelihood, exact gradient and information matrix.

Utilities are evaluated for a block of rows at once; unavailable
alternatives are masked out before the softmax, so their probabilities
are exactly zero and whatever the expressions produced on those rows
(often NaN, e.g. log of a zeroed attribute) never propagates.

Each pass splits the rows into the fixed blocks of ``binding.row_blocks``,
``binding.ROW_BLOCK`` rows each, the blocks bind fills its design in.  Per
block, the value pass writes the utilities into its columns of one (J, n)
buffer, tests them, forms the probabilities in
place and writes its log chosen probabilities.  A pass over more than
one block runs its blocks, and then its sums, on a
thread pool sized to the CPUs the process may use, created on the first
such pass; a smaller pass, or a process with one CPU, runs in the calling
thread and never imports ``concurrent.futures``.  No reduction is split by the blocks: the
log-likelihood sum and the ``-inf`` verdict (one failed block fails the
pass) run once over the full arrays in the calling thread, and each
parameter's gradient sum, and each row of the information matrix, is one
numpy call over all rows.  So
every result is bit-identical to a one-thread pass, whatever the block
size and the number of threads, and there is no thread setting.  Each
block enters its own ``np.errstate``, which holds only in the thread that
enters it.

The log-likelihood returns ``-inf`` instead of raising when a wild
parameter step drives utilities non-finite; the optimizer treats that as a
rejected step.  The finiteness test looks at a block's whole utility matrix
first and, only when that fails, tests the available cells and puts 0.0 in
the unavailable ones, so the usual all-finite pass makes no copy.

Every per-cell array of a pass is alternative-major, (…, J, n), one
alternative's cells per contiguous row: the utilities, P, the availability
weights and, parameter by parameter, ∂V/∂θ.  The softmax
(:func:`_softmax`) works on whole rows: the row max over
available cells (a utility plus the log of its 0/1 availability weight),
the shift, the exponential, the total added left to right and the
division.  The exponential never sees ``-inf``, for which numpy's SIMD
``exp`` takes a slow path: it gets ``min(V − shift, 0)``, equal to
``V − shift`` on available cells and finite on the others, and its result
is multiplied by the weight, so unavailable cells are exactly 0.  Each
row's log chosen probability is its shifted chosen utility minus the log of
the total, so a chosen probability that underflows still adds its exact log
to the log-likelihood.  These
are the elementwise steps and the reduction order of the textbook
masked-copy softmax with numpy's row max and row sum (``tests/test_engine.py``
keeps that formula as its reference) for fewer than eight alternatives,
where numpy's row sum also adds left to right, so the log-likelihood and
the probabilities have its bits.  The weight, its log and each row's
chosen cell are made once per model, when ``BoundModel`` is constructed.

The gradient is the textbook MNL score ``Σₙ Σⱼ (yₙⱼ − Pₙⱼ) ∂Vₙⱼ/∂θ`` with
``y`` the one-hot choice.  ``Y − P`` is ``−P`` with 1.0 added on each row's
chosen cell, which has the bits of ``Y − P`` because ``1.0 + (−p)`` is
``1.0 − p`` exactly.  A pass builds ∂V/∂θ at θ once, as a list of one
(J, n) slab per parameter.  Along a parameter that only the utilities'
affine terms read, the slab is binding's cached design.  Along the others,
``residual_idx``, it is the compiled utilities' derivative along that
parameter's unit vector (:func:`jacobian`), which each utility gives from
one forward-mode pass over its tree.  Each parameter's gradient is one
task: one ``np.einsum`` of ``Y − P`` with its slab.  An all-affine spec
has no residual parameters and evaluates no derivative at θ.

The information matrix ``Σₙ Σⱼ Pₙⱼ (Gₙⱼ − Ḡₙ)(Gₙⱼ − Ḡₙ)ᵀ``, with G = ∂V/∂θ
and ``Ḡₙ = Σⱼ Pₙⱼ Gₙⱼ``, is minus the Hessian of the log-likelihood when
the utilities are linear in θ, and the expected information otherwise
(Train, *Discrete Choice Methods with Simulation*, ch. 8).  Its pass
(:func:`loglik_gradient_and_information`) is the gradient pass plus one
(k, J, n) array of centred slabs: one task per parameter subtracts Ḡ from
the gradient's slab, and one task per row of the upper triangle sums the
products of P, that row's centred slab and each later one.

A value pass (:func:`log_likelihood`) returns a :class:`ValuePass`: θ, the
log-likelihood and P.  The optimizer hands the pass of the step it accepts
to the information pass, which skips the utilities and the softmax; no pass
writes to the model.  Every pass forms the utilities with the same compiled
functions on float parameters, so a handed-on P has the bits a fresh pass
would compute.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

import numpy as np

from logitlab import LogitlabError
from logitlab.dataset import Dataset
from logitlab.specdsl import binding
from logitlab.specdsl.binding import BoundModel, row_blocks

WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None  # created by the first pass with more than one block


class NonFiniteUtility(LogitlabError):
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


def _tasks(n: int, work, items) -> list:
    """``work(item)`` for each item, results in order, as part of a pass over ``n`` rows.

    A pass over more than ``binding.ROW_BLOCK`` rows runs them on a thread pool
    of ``WORKERS`` threads; a smaller pass, or one worker, in the calling thread.
    """
    global _pool
    if n <= binding.ROW_BLOCK or WORKERS < 2:
        return [work(item) for item in items]
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="logitlab-rows")
    return list(_pool.map(work, items))


def _softmax(
    V: np.ndarray, weight: np.ndarray, log_weight: np.ndarray, choice: np.ndarray
) -> np.ndarray:
    """Choice probabilities, in place, of the finite (J, rows) utilities ``V`` over
    the cells where ``weight`` is 1.0 (``log_weight`` 0.0), as the module docstring
    describes; 0.0 on the other cells.  Returns each row's log probability of its
    ``choice``."""
    with np.errstate(all="ignore"):
        shift = V[0] + log_weight[0]
        masked = np.empty_like(shift)
        for row, log_w in zip(V[1:], log_weight[1:]):
            np.maximum(shift, np.add(row, log_w, out=masked), out=shift)
        V -= shift
        np.minimum(V, 0.0, out=V)
        shifted = V[choice, np.arange(len(choice))]
        np.exp(V, out=V)
        V *= weight
        total = V[0].copy()
        for row in V[1:]:
            total += row
        V /= total
        return shifted - np.log(total)


class ValuePass(NamedTuple):
    """One value pass at ``theta``: its log-likelihood and the (J, n) probabilities,
    None when the log-likelihood is -inf."""

    theta: np.ndarray
    loglik: float
    P: np.ndarray | None


def log_likelihood(model: BoundModel, theta) -> ValuePass:
    """Sum of log chosen-probabilities, -inf when evaluation breaks down, and the
    probabilities it was formed from.

    Each block of rows writes its utilities into its columns of one (J, n)
    buffer, tests them, forms its probabilities in place and writes its log
    chosen probabilities.  The verdict and the sum over all rows run in the
    calling thread, so the result does not depend on the blocks.
    """
    theta = _check_theta(model, theta)
    P = np.empty((model.n_alts, model.n_obs))
    weight, log_weight, choice = model.avail_weight, model.avail_log, model.choice_idx
    log_chosen = np.empty(model.n_obs)

    def block(rows) -> bool:
        V = P[:, rows]
        model.utility_matrix(theta, rows, out=V)
        if not np.isfinite(V).all():
            finite = np.where(model.avail[rows].T, V, 0.0)  # 0.0 stands in on unavailable cells
            if not np.isfinite(finite).all():
                return False
            V[...] = finite
        log_chosen[rows] = _softmax(V, weight[:, rows], log_weight[:, rows], choice[rows])
        return True

    if not all(_tasks(model.n_obs, block, row_blocks(model.n_obs))):
        return ValuePass(theta, -math.inf, None)
    ll = float(log_chosen.sum())  # -inf where V − shift or the sum overflows
    return ValuePass(theta, ll, P if ll > -math.inf else None)


def jacobian(model: BoundModel, theta, idx) -> np.ndarray:
    """(len(idx), J, n) ∂V/∂θ at θ over the free parameters at indices ``idx``
    only, laid out as the design: each compiled utility's derivative along those
    parameters' unit vectors, all in one call per row block, zero on unavailable
    cells.  The kernel runs it on ``residual_idx``."""
    G = np.zeros((len(idx), model.n_alts, model.n_obs))
    values = theta.tolist()
    seeds = np.eye(model.n_free)[:, list(idx), None]  # seeds[i]: (len(idx), 1), parameter i's seeds

    def fill(rows) -> None:
        Gb = G[:, :, rows]
        with np.errstate(all="ignore"):
            for j, utility in enumerate(model.utilities):
                _, derivative = utility(rows, values, seeds)
                if derivative is not None:
                    Gb[:, j] = derivative
        Gb[:, ~model.avail[rows].T] = 0.0

    _tasks(model.n_obs, fill, row_blocks(model.n_obs))
    return G


def _score_pass(model: BoundModel, value: ValuePass, information: bool) -> tuple:
    """(log-likelihood, ``Y − P`` contracted with ∂V/∂θ over alternatives and rows)
    and, if ``information``, the information matrix, from a value pass.  ∂V/∂θ is
    the design and, along ``residual_idx``, the utilities' Jacobian at the pass's θ.
    LL -inf, with NaN gradient and matrix, when the value pass failed or a result is
    not finite."""
    k = model.n_free
    failed = (-math.inf, np.full(k, np.nan), np.full((k, k), np.nan))[: 2 + information]
    if value.P is None:
        return failed
    R = np.negative(value.P)  # Y − P: 1.0 + (−P) is 1.0 − P on the chosen cells
    R.ravel()[model.chosen_cell] += 1.0
    G = [*model.design]
    if model.residual_idx:
        for q, slab in zip(model.residual_idx, jacobian(model, value.theta, model.residual_idx)):
            G[q] = slab
    grad = np.empty(k)
    _tasks(model.n_obs, lambda q: np.einsum("jn,jn->", R, G[q], out=grad[..., q]), range(k))
    outputs = (grad, _information(model, value.P, G)) if information else (grad,)
    if not all(np.isfinite(x).all() for x in outputs):
        return failed
    return (value.loglik, *outputs)


def _information(model: BoundModel, P: np.ndarray, G: list) -> np.ndarray:
    """The information matrix from the (J, n) probabilities and the gradient's
    (J, n) slabs ``G`` of ∂V/∂θ, as the module docstring describes; each row of
    the upper triangle is one call, mirrored below the diagonal."""
    k = model.n_free
    C = np.empty((k, model.n_alts, model.n_obs))
    info = np.empty((k, k))

    def centre(q: int) -> None:
        with np.errstate(all="ignore"):  # a non-finite slab fails the pass, not a warning
            np.subtract(G[q], np.einsum("jn,jn->n", P, G[q]), out=C[q])

    def row(q: int) -> None:
        np.einsum("jn,jn,ljn->l", P, C[q], C[q:], out=info[q, q:])
        info[q:, q] = info[q, q:]

    _tasks(model.n_obs, centre, range(k))
    _tasks(model.n_obs, row, range(k))
    return info


def loglik_and_gradient(model: BoundModel, theta) -> tuple[float, np.ndarray]:
    """Log-likelihood and its exact gradient ``Σₙ Σⱼ (yₙⱼ − Pₙⱼ) ∂Vₙⱼ/∂θ`` at θ.

    The gradient is NaN-filled when the log-likelihood is -inf.
    """
    return _score_pass(model, log_likelihood(model, theta), information=False)


def loglik_gradient_and_information(
    model: BoundModel, value: ValuePass
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood, its exact gradient and the (k, k) MNL information matrix
    ``Σₙ Σⱼ Pₙⱼ (∂Vₙⱼ/∂θ − Σᵢ Pₙᵢ ∂Vₙᵢ/∂θ)(…)ᵀ`` at the θ of a value pass, from
    its probabilities; minus the Hessian of the log-likelihood when the utilities
    are linear in θ.

    Gradient and matrix are NaN-filled when the log-likelihood is -inf.
    """
    return _score_pass(model, value, information=True)


def null_loglik(dataset: Dataset) -> float:
    """Log-likelihood of equal shares over each row's available set.

    fsum keeps the result exact up to one rounding, so a dataset with a
    constant availability count reproduces -n*log(count) bit-for-bit.
    """
    return -math.fsum(map(math.log, dataset.avail.sum(axis=1).tolist()))
