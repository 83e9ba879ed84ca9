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
product summed for the gradient or the information matrix is one numpy
call over all rows.  So
every result is bit-identical to a one-thread pass, whatever the block
size and the number of threads, and there is no thread setting.  Each
task enters its own ``np.errstate``, which holds only in the thread that
enters it.

The log-likelihood returns ``-inf`` instead of raising when a wild
parameter step drives utilities non-finite; the optimizer treats that as a
rejected step.  The finiteness test looks at a block's whole utility matrix
first and, only when that fails, tests the available cells and puts 0.0 in
the unavailable ones, so the usual all-finite pass makes no copy.

Every per-cell array of a pass is alternative-major, (…, J, n), one
alternative's cells per contiguous row: the utilities, P, the availability
weights and, alternative by alternative, ∂V/∂θ.  The softmax
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
``1.0 − p`` exactly.  A pass builds ∂V/∂θ at θ once, as one stack of rows per
alternative j (:func:`_stacks`): row i of stack j is ∂Vⱼ/∂θ along the
parameter ``BoundModel.reads[j][i]``, so a (parameter, alternative) pair whose
utility does not name the parameter has no row and adds nothing.  Along a
parameter that only the utilities' affine terms read, the row is binding's
stored design row.  Along the others, ``residual_idx``, it is the compiled
utilities' derivative along that parameter's unit vector (:func:`jacobian`),
which each utility gives from one forward-mode pass over its tree.  An
all-affine spec has no residual parameters, evaluates no derivative at θ and
copies no row.  Each alternative is one task: one ``np.einsum`` of its row of
``Y − P`` with its stack gives ``⟨(Y − P)ⱼ, x_qj⟩`` for each parameter q it
reads.  Parameter q's gradient is the sum of these over the alternatives, in
alternative order, added one after another.

The information matrix ``Σₙ Σⱼ Pₙⱼ (Gₙⱼ − Ḡₙ)(Gₙⱼ − Ḡₙ)ᵀ``, with G = ∂V/∂θ
and ``Ḡₙ = Σⱼ Pₙⱼ Gₙⱼ``, is minus the Hessian of the log-likelihood when
the utilities are linear in θ, and the expected information otherwise
(Train, *Discrete Choice Methods with Simulation*, ch. 8).  Its pass
(:func:`loglik_gradient_and_information`) is the gradient pass plus the
one-sided centred form of the matrix: since ``Σⱼ Pₙⱼ (Gₙⱼ − Ḡₙ) = 0``,
entry (q, r) is ``Σⱼ Σₙ Pₙⱼ x_qj (x_rj − Ḡ_r)``, with only q's side uncentred.
One task per alternative j forms the products ``Pⱼ x_qj`` of its rows.  One
task per parameter q adds its rows' products into Ḡ_q, in alternative order,
and writes each centred row ``x_qj − Ḡ_q``.  One task per parameter q then
contracts, for each of its rows, ``Pⱼ x_qj`` with the centred rows of the
parameters r ≥ q that alternative j reads, in one ``np.einsum``, and with
``−Ḡ_r`` for each later r that it does not read (whose ``x_rj`` is 0).
Entry (q, r) of the upper triangle is the sum of these over q's
alternatives, in alternative order, added one after another, and is
mirrored below the diagonal.  On the shipped data this stays within 3e-14
of the textbook contraction of two centred sides (in units of
``√(I_qq I_rr)``), also with every time attribute shifted by 1e4, where the
uncentred ``Σⱼ PⱼXⱼXⱼᵀ − ḠḠᵀ`` loses digits to the common offset.  The
products, the centred rows and Ḡ live in one buffer that each thread keeps
for its next pass of the same size, as fresh memory would be zeroed by the
kernel first.

A value pass (:func:`log_likelihood`) returns a :class:`ValuePass`: θ, the
log-likelihood and P.  The optimizer hands the pass of the step it accepts
to the information pass, which skips the utilities and the softmax; no pass
writes to the model.  Every pass forms the utilities with the same compiled
functions on float parameters, so a handed-on P has the bits a fresh pass
would compute.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from typing import NamedTuple

import numpy as np

from logitlab import LogitlabError
from logitlab.dataset import Dataset
from logitlab.specdsl import binding
from logitlab.specdsl.binding import BoundModel, row_blocks

WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None  # created by the first pass with more than one block
_scratch = threading.local()  # each thread's information-pass buffer, kept for its next pass


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
    """``work(item)`` for each item, results in order, as part of a pass over ``n``
    rows, each under ``np.errstate(all="ignore")``: a non-finite result fails the
    pass, not a warning.

    A pass over more than ``binding.ROW_BLOCK`` rows runs them on a thread pool
    of ``WORKERS`` threads; a smaller pass, or one worker, in the calling thread.
    """
    global _pool
    if n <= binding.ROW_BLOCK or WORKERS < 2:
        with np.errstate(all="ignore"):
            return [work(item) for item in items]
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="logitlab-rows")
    return list(_pool.map(lambda item: _quietly(work, item), items))


def _quietly(work, item):
    with np.errstate(all="ignore"):  # errstate holds only in the thread that enters it
        return work(item)


def _softmax(
    V: np.ndarray, weight: np.ndarray, log_weight: np.ndarray, choice: np.ndarray
) -> np.ndarray:
    """Choice probabilities, in place, of the finite (J, rows) utilities ``V`` over
    the cells where ``weight`` is 1.0 (``log_weight`` 0.0), as the module docstring
    describes; 0.0 on the other cells.  Returns each row's log probability of its
    ``choice``."""
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
        for j, utility in enumerate(model.utilities):
            _, derivative = utility(rows, values, seeds)
            if derivative is not None:
                Gb[:, j] = derivative
        Gb[:, ~model.avail[rows].T] = 0.0

    _tasks(model.n_obs, fill, row_blocks(model.n_obs))
    return G


def _stacks(model: BoundModel, theta: np.ndarray) -> list[np.ndarray]:
    """Per alternative j, the (len(reads[j]), n) rows ∂Vⱼ/∂θ at θ along the
    parameters ``model.reads[j]``, in that order: the stored design rows and, along
    ``residual_idx``, rows of the utilities' Jacobian at θ."""
    if not model.residual_idx:
        return list(model.design)
    jac = dict(zip(model.residual_idx, jacobian(model, theta, model.residual_idx)))
    stacks = []
    for j, (reads, idx, X) in enumerate(zip(model.reads, model.design_idx, model.design)):
        if len(idx) == len(reads):
            stacks.append(X)
            continue
        stack = np.empty((len(reads), model.n_obs))
        stored = dict(zip(idx, X))
        for i, q in enumerate(reads):
            stack[i] = stored[q] if q in stored else jac[q][j]
        stacks.append(stack)
    return stacks


def _score_pass(model: BoundModel, value: ValuePass, information: bool) -> tuple:
    """(log-likelihood, ``Y − P`` contracted with ∂V/∂θ over alternatives and rows)
    and, if ``information``, the information matrix, from a value pass, over the
    rows of :func:`_stacks`.  LL -inf, with NaN gradient and matrix, when the value
    pass failed or a result is not finite."""
    k = model.n_free
    if value.P is not None:
        stacks = _stacks(model, value.theta)
        outputs = (_gradient(model, value.P, stacks),)
        if information:
            outputs += (_information(model, value.P, stacks),)
        if all(np.isfinite(x).all() for x in outputs):
            return (value.loglik, *outputs)
    return (-math.inf, np.full(k, np.nan), np.full((k, k), np.nan))[: 2 + information]


def _gradient(model: BoundModel, P: np.ndarray, stacks: list) -> np.ndarray:
    """The gradient from the (J, n) probabilities and the stacks of ∂V/∂θ, as the
    module docstring describes."""
    R = np.negative(P)  # Y − P: 1.0 + (−P) is 1.0 − P on the chosen cells
    R.ravel()[model.chosen_cell] += 1.0
    parts = np.zeros((model.n_alts, model.n_free))  # row j: ⟨Rⱼ, x_qj⟩ for each q that alternative j reads

    def score(j: int) -> None:
        if model.reads[j]:
            parts[j, list(model.reads[j])] = np.einsum("n,qn->q", R[j], stacks[j])

    _tasks(model.n_obs, score, range(model.n_alts))
    return functools.reduce(np.add, parts)  # added one after another, in alternative order


def _work_buffer(size: int) -> np.ndarray:
    """The calling thread's buffer of ``size`` floats, the one its last call got
    when that had the same size: fresh memory costs the kernel's page zeroing,
    about 3 ms of a 100k-row information pass."""
    buffer = getattr(_scratch, "buffer", None)
    if buffer is None or buffer.size != size:
        buffer = _scratch.buffer = np.empty(size)
    return buffer


class _Layout(NamedTuple):
    """Where the information pass keeps each row, from the parameters each
    alternative reads (``BoundModel.reads``)."""

    start: tuple  # each alternative's first row in the products and in the centred rows; their length
    rows: tuple  # per parameter q, its rows in alternative order: (j, i, start[j] + i), q = reads[j][i]
    unread: tuple  # per parameter q, per row: the parameters r > q that its alternative does not read
    scatter: np.ndarray  # flat index into (J, k, k) of each entry of the alternatives' blocks, in order
    upper: tuple  # the indices of the upper triangle of a (k, k) matrix


@functools.lru_cache(maxsize=64)
def _layout(reads: tuple, k: int) -> _Layout:
    start = np.cumsum([0, *map(len, reads)]).tolist()
    rows = tuple(
        tuple((j, alt.index(q), start[j] + alt.index(q)) for j, alt in enumerate(reads) if q in alt)
        for q in range(k)
    )
    unread = tuple(
        tuple(tuple(r for r in range(q + 1, k) if r not in reads[j]) for j, _, _ in rows[q]) for q in range(k)
    )
    scatter = np.array(
        [(j * k + q) * k + r for j, alt in enumerate(reads) for q in alt for r in alt], dtype=np.intp
    )
    scatter.flags.writeable = False  # the cache hands the same layout to every pass
    return _Layout(tuple(start), rows, unread, scatter, np.triu_indices(k, 1))


def _information(model: BoundModel, P: np.ndarray, stacks: list) -> np.ndarray:
    """The information matrix from the (J, n) probabilities and the stacks of
    ∂V/∂θ, as the module docstring describes."""
    k, J, n = model.n_free, model.n_alts, model.n_obs
    start, rows, unread, scatter, upper = _layout(model.reads, k)
    work = _work_buffer((2 * start[-1] + k) * n)
    W, C = work[: 2 * start[-1] * n].reshape(2, -1, n)  # Pⱼ x_qj and x_qj − Ḡ_q, laid out as the stacks
    mean = work[2 * start[-1] * n :].reshape(k, n)  # Ḡ
    # [j][i, i']: ⟨Pⱼ x_qj, x_rj − Ḡ_r⟩ for q, r = reads[j][i], reads[j][i'], i' ≥ i
    blocks = [np.zeros((len(reads), len(reads))) for reads in model.reads]
    # [j, q, r]: blocks[j] and, where alternative j reads q but not r > q, −⟨Pⱼ x_qj, Ḡ_r⟩
    parts = np.zeros((J, k, k))

    def weigh(j: int) -> None:
        np.multiply(P[j], stacks[j], out=W[start[j]:start[j + 1]])

    def centre(q: int) -> None:
        own = [row for _, _, row in rows[q]]
        if len(own) < 2:
            mean[q] = W[own[0]] if own else 0.0
        else:
            np.add(W[own[0]], W[own[1]], out=mean[q])
            for row in own[2:]:
                mean[q] += W[row]
        for j, i, row in rows[q]:
            np.subtract(stacks[j][i], mean[q], out=C[row])

    def dots(q: int) -> None:
        for (j, i, row), others in zip(rows[q], unread[q]):
            np.einsum("n,rn->r", W[row], C[row:start[j + 1]], out=blocks[j][i, i:])
            for r in others:  # x_rj is 0, so its centred value is −Ḡ_r
                parts[j, q, r] = -np.einsum("n,n->", W[row], mean[r])

    _tasks(n, weigh, range(J))
    _tasks(n, centre, range(k))
    _tasks(n, dots, range(k))
    parts.ravel()[scatter] = np.concatenate([block.ravel() for block in blocks])
    info = functools.reduce(np.add, parts)  # added one after another, in alternative order
    info.T[upper] = info[upper]
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

    ``-Σₙ log cₙ`` over each row's availability count cₙ, rounded once: each
    distinct count c that m rows share adds ``m·log c``, a dyadic rational, in
    exact integer arithmetic, and the total is rounded to the nearest float, as
    ``math.fsum`` over the rows' logs would round it.  So a dataset with a
    constant availability count reproduces ``-n*log(count)`` bit-for-bit.
    """
    counts = np.bincount(np.count_nonzero(dataset.avail, axis=1)).tolist()
    terms = [(m * a, b) for c, m in enumerate(counts) if m for a, b in [math.log(c).as_integer_ratio()]]
    scale = max((b for _, b in terms), default=1)  # every b is a power of two
    return -(sum(a * (scale // b) for a, b in terms) / scale)  # int / int rounds once
