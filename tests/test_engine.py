"""Compiled derivatives, the MNL kernel and the Newton estimator."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import threading
import types
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from logitlab import dataset as ds
from logitlab.engine import bfgs, kernel
from logitlab.jsonio import from_json
from logitlab.llmgate import client, extract
from logitlab.specdsl import binding, parser
from logitlab.specdsl.expr import (
    Add, BoxCox, Call1, Const, Div, Mul, Neg, Param, Piecewise, Pow, Sub, Var, param_names,
)

from conftest import BEST_SPEC, BOXCOX_SPEC, FIXTURES, ROOT, SYNTH_CSV, SYNTH_DICT
from dual import Dual, Envelope, walk
from test_specdsl import EXPRS

RNG_SEED = 977


# -- small purpose-built datasets --------------------------------------------


def binary_dataset(tmp_path, n=240, seed=RNG_SEED):
    """Two alternatives, one attribute difference, full availability."""
    rng = np.random.default_rng(seed)
    dict_md = (
        "| name | kind | alternative | units | description |\n"
        "| --- | --- | --- | --- | --- |\n"
        "| av_a | availability | a | 0/1 | a |\n"
        "| av_b | availability | b | 0/1 | b |\n"
        "| choice | choice |  |  | chosen |\n"
        "| x_a | attribute | a |  | level |\n"
        "| x_b | attribute | b |  | level |\n"
    )
    rows = ["av_a,av_b,choice,x_a,x_b"]
    b_true = -0.7
    for _ in range(n):
        xa, xb = rng.uniform(0, 4), rng.uniform(0, 4)
        u = b_true * (xa - xb)
        p = 1.0 / (1.0 + math.exp(-u))
        rows.append(f"1,1,{'a' if rng.random() < p else 'b'},{xa:.4f},{xb:.4f}")
    csv_p = tmp_path / "b.csv"
    dict_p = tmp_path / "b.md"
    csv_p.write_text("\n".join(rows) + "\n", encoding="utf-8")
    dict_p.write_text(dict_md, encoding="utf-8")
    return ds.load_dataset(csv_p, dict_p)


BINARY_SPEC = "spec bin\nalt a b\nparam b_x generic\nU(a) = b_x * x_a\nU(b) = b_x * x_b\n"


def full_availability_clone(data: ds.Dataset) -> ds.Dataset:
    return dataclasses.replace(data, avail=np.ones_like(data.avail))


# -- dual numbers, the test-side reference for compiled derivatives -------------


def test_dual_arithmetic_chain_rule():
    x = Dual.seed(3.0, 0, 2)
    y = Dual.seed(0.5, 1, 2)
    z = (x * y + x / y - y.power(2.0)).log() * 2.0 - x.sqrt()
    f = lambda a, b: math.log(a * b + a / b - b * b) * 2.0 - math.sqrt(a)
    h = 1e-7
    fd_x = (f(3.0 + h, 0.5) - f(3.0 - h, 0.5)) / (2 * h)
    fd_y = (f(3.0, 0.5 + h) - f(3.0, 0.5 - h)) / (2 * h)
    np.testing.assert_allclose(np.asarray(z.grad).ravel(), [fd_x, fd_y], rtol=1e-6)


def test_dual_interops_with_arrays():
    # column data enters as plain arrays on the right of a seeded Dual
    x = Dual.seed(2.0, 0, 1)
    arr = np.array([1.0, 10.0, 100.0])
    z = x * arr + arr
    np.testing.assert_allclose(np.asarray(z.val), arr * 2.0 + arr)
    np.testing.assert_allclose(
        np.broadcast_to(z.grad, (3, 1)).ravel(), arr
    )


# -- gradient suite: every node type ------------------------------------------

GRAD_SPEC = """spec everything
alt car bus air rail

param asc_bus
param asc_air
param asc_rail
param b_time generic
param b_cost generic
param b_tb generic
param b_neg generic
param b_exp generic
param b_log generic
param b_sqrt generic
param b_pow generic
param b_bc generic
param lambda_inc
param b_r1
param b_r2
param b_r3

U(car) = b_time * time_car + b_cost * cost_car + b_tb * time_car * business \\
         + b_neg * (-income) + b_log * log(income) - b_sqrt * sqrt(income)
U(bus) = asc_bus + b_time * time_bus + b_cost * cost_bus / 100 \\
         + b_pow * pow(time_bus / 60, 2) + 0.5
U(air) = asc_air + b_time * time_air + b_exp * exp(-cost_air / 50) \\
         + b_bc * boxcox(income, lambda_inc)
U(rail) = asc_rail + b_time * time_rail \\
          + piecewise(time_rail, 120, 240, b_r1, b_r2, b_r3)
"""


@pytest.fixture(scope="module")
def grad_model(synth_data):
    return binding.bind(parser.parse_spec(GRAD_SPEC), synth_data)


def test_gradient_matches_central_differences_at_20_points(grad_model):
    """Analytic gradient vs central differences, every node type exercised."""
    rng = np.random.default_rng(RNG_SEED)
    k = grad_model.n_free
    worst = 0.0
    for _ in range(20):
        theta = rng.normal(0.0, 0.05, size=k)
        theta[grad_model.free_names.index("lambda_inc")] = rng.uniform(0.2, 1.2)
        ll, grad = kernel.loglik_and_gradient(grad_model, theta)
        assert math.isfinite(ll)
        fd = np.empty(k)
        for i in range(k):
            h = 1e-5 * max(1.0, abs(theta[i]))
            up, dn = theta.copy(), theta.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                kernel.log_likelihood(grad_model, up).loglik
                - kernel.log_likelihood(grad_model, dn).loglik
            ) / (2 * h)
        # relative to the FD value, guarded for genuinely tiny entries
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-6, f"max relative gradient error {worst:.3e}"


def test_gradient_handles_boxcox_shape_near_zero(grad_model):
    theta = np.zeros(grad_model.n_free)
    i = grad_model.free_names.index("lambda_inc")
    ll0, g0 = kernel.loglik_and_gradient(grad_model, theta)  # shape exactly 0
    assert math.isfinite(ll0) and np.all(np.isfinite(g0))
    theta[i] = 1e-9
    ll1, g1 = kernel.loglik_and_gradient(grad_model, theta)
    np.testing.assert_allclose(ll0, ll1, atol=1e-6)
    np.testing.assert_allclose(g0, g1, atol=1e-4)


# -- row blocks -------------------------------------------------------------------

POOL = max(2, kernel.WORKERS)  # two threads at least, so the pool also runs on one CPU
BLOCKINGS = {
    "default": (binding.ROW_BLOCK, 1),
    "default-pool": (binding.ROW_BLOCK, POOL),
    "blocks_of_7": (7, 1),
    "blocks_of_7-pool": (7, POOL),
}


@contextlib.contextmanager
def row_blocks(row_block: int, workers: int):
    """Kernel passes, and bind's design fill, in blocks of ``row_block`` rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binding, "ROW_BLOCK", row_block)
        mp.setattr(kernel, "WORKERS", workers)
        yield


def unblocked(fn, *args):
    """``fn(*args)`` with each pass in one block in the calling thread: the reference."""
    with row_blocks(2**62, 1):
        return fn(*args)


def probabilities(model: binding.BoundModel, theta) -> np.ndarray:
    """(n, J) choice probabilities at θ: the (J, n) ones the value pass returns."""
    value = kernel.log_likelihood(model, theta)
    assert math.isfinite(value.loglik)
    return value.P.T


def information(model: binding.BoundModel, theta) -> tuple:
    """The information pass at θ, handed a fresh value pass."""
    return kernel.loglik_gradient_and_information(model, kernel.log_likelihood(model, theta))


def table_model(V: np.ndarray, avail: np.ndarray, choice_idx: np.ndarray) -> binding.BoundModel:
    """A model with no free parameters whose utilities are the columns of ``V``."""
    n, J = V.shape
    return binding.BoundModel(
        spec=None, dataset=None, alternatives=tuple(f"alt{j}" for j in range(J)),
        utilities=tuple((lambda rows, theta, d, v=V[:, j]: (v[rows], None)) for j in range(J)),
        free_names=(), start=np.empty(0), avail=avail, choice_idx=choice_idx,
        reads=((),) * J, design=(np.empty((0, n)),) * J, residual_idx=(),
    )


@pytest.fixture(params=BLOCKINGS.values(), ids=BLOCKINGS)
def blocking(request):
    """Every kernel pass of the test runs in these (ROW_BLOCK, WORKERS)."""
    with row_blocks(*request.param):
        yield request.param


# -- the split derivatives vs one dual pass over everything -----------------------


def fixed_values(model: binding.BoundModel) -> dict[str, float]:
    return {p.name: p.fixed for p in model.spec.parameters if p.fixed is not None}


def utility_exprs(model: binding.BoundModel) -> list:
    return [model.spec.utilities[alt] for alt in model.alternatives]


def walked_gradient(model: binding.BoundModel, expr, rows, theta, algebra=Dual) -> np.ndarray:
    """(rows, k) ∂expr/∂θ at θ on ``rows`` from a tree walk with every free parameter a
    seeded ``algebra`` number: one dual-number pass."""
    k = model.n_free
    columns = {name: column[rows] for name, column in model.dataset.columns.items()}
    seeds = {name: algebra.seed(v, i, k) for i, (name, v) in enumerate(zip(model.free_names, theta))}
    with np.errstate(all="ignore"):
        res = walk(expr, columns, {**fixed_values(model), **seeds})
    n = len(range(*rows.indices(model.n_obs)))
    return np.broadcast_to(res.grad if isinstance(res, Dual) else 0.0, (n, k))


def walk_jacobian(model: binding.BoundModel, exprs, theta, algebra=Dual) -> np.ndarray:
    """(k, J, n) ∂/∂θ of one expression per alternative from one dual-number pass over
    every free parameter, zero on unavailable cells: the reference for compiled
    derivatives.  With ``algebra=Envelope``, the size each is rounded to."""
    theta = np.asarray(theta, dtype=float).tolist()
    G = np.stack([walked_gradient(model, e, binding.ALL_ROWS, theta, algebra).T for e in exprs], axis=1)
    G[:, ~model.avail.T] = 0.0
    return G


class WalkedUtility:
    """A compiled utility's stand-in, ``(rows, theta, seeds) -> (value, ∂expr)``: the
    compiled value and, along the unit vectors stacked in ``seeds``, the derivative
    from a dual-number pass over every free parameter, made once per row block and θ."""

    def __init__(self, model: binding.BoundModel, utility, expr):
        self.model, self.utility, self.expr, self.gradients = model, utility, expr, {}

    def __call__(self, rows, theta, seeds):
        value, _ = self.utility(rows, theta, None)
        if seeds is None:
            return value, None
        key = rows.start, rows.stop, tuple(theta)
        if key not in self.gradients:
            self.gradients[key] = walked_gradient(self.model, self.expr, rows, theta)
        return value, self.gradients[key][:, seeds[:, :, 0].argmax(axis=0)].T


def all_residual(model: binding.BoundModel) -> binding.BoundModel:
    """``model`` with no stored design rows and every free parameter a residual one,
    each utility differentiated by a dual pass: the reference for the design."""
    return dataclasses.replace(
        model, design=tuple(np.empty((0, model.n_obs)) for _ in model.reads),
        utilities=tuple(WalkedUtility(model, *pair) for pair in zip(model.utilities, utility_exprs(model))),
        residual_idx=tuple(range(model.n_free)),
    )


def log_sum_exp_loglik(model: binding.BoundModel, theta) -> float:
    """Σₙ (chosen utility − log Σ over the available alternatives of exp(utility)),
    each row shifted by its largest available utility: the reference LL, whose
    terms stay finite where a chosen probability underflows."""
    V = np.where(model.avail.T, model.utility_matrix(np.asarray(theta, dtype=float)), -np.inf)
    top = V.max(axis=0)
    log_p = V[model.choice_idx, np.arange(model.n_obs)] - top - np.log(np.exp(V - top).sum(axis=0))
    return float(log_p.sum())


def replay_specs() -> list[parser.UtilitySpec]:
    """Every spec the recorded fixtures propose."""
    specs = []
    for path in sorted(FIXTURES.glob("*/*/exp*.json")):
        transcript = from_json(client.LLMTranscript, json.loads(path.read_text(encoding="utf-8")))
        specs += extract.extract_specs(transcript).specs
    return specs


def test_design_path_matches_dual_path(best_spec, synth_data, blocking):
    """Also: every pass, bind's design included, has the bits of a one-block pass."""
    specs = [best_spec, *replay_specs()]
    assert len(specs) == 14
    rng = np.random.default_rng(RNG_SEED)
    for spec in specs:
        model = binding.bind(spec, synth_data)
        assert model.residual_idx == (), spec.name
        assert design_bits(model) == design_bits(unblocked(binding.bind, spec, synth_data)), spec.name
        dual = all_residual(model)
        for _ in range(3):
            theta = model.start + rng.normal(0.0, 0.02, size=model.n_free)
            for m in (model, dual):
                for fn in (kernel.loglik_and_gradient, information):
                    assert _bits(fn(m, theta)) == _bits(unblocked(fn, m, theta)), spec.name
                ll = kernel.log_likelihood(m, theta).loglik
                assert np.float64(ll).tobytes() == np.float64(
                    unblocked(kernel.log_likelihood, m, theta).loglik
                ).tobytes(), spec.name
            ll, grad = kernel.loglik_and_gradient(model, theta)
            ll_dual, grad_dual = kernel.loglik_and_gradient(dual, theta)
            assert math.isfinite(ll)
            assert abs(ll - ll_dual) <= 1e-12 * abs(ll_dual), spec.name
            assert np.abs(grad - grad_dual).max() <= 1e-10 * np.abs(grad_dual).max(), spec.name
            (_, grad_i, info), (_, grad_dual_i, info_dual) = (information(m, theta) for m in (model, dual))
            assert _bits((grad_i, grad_dual_i)) == _bits((grad, grad_dual)), spec.name
            assert np.abs(info - info_dual).max() <= 1e-12 * np.abs(info_dual).max(), spec.name
        wild = np.full(model.n_free, 1e4)  # some chosen probability underflows; its log does not
        want = log_sum_exp_loglik(model, wild)
        passes = [kernel.loglik_and_gradient(m, wild) for m in (model, dual)]
        (ll, grad), (ll_dual, grad_dual) = passes
        assert ll == pytest.approx(want, rel=1e-12) and ll == ll_dual, spec.name
        assert np.abs(grad - grad_dual).max() <= 1e-10 * np.abs(grad_dual).max(), spec.name
        for m, (ll, grad) in zip((model, dual), passes):
            assert grad.shape == (model.n_free,) and np.all(np.isfinite(grad)), spec.name
            ll_i, grad_i, info = information(m, wild)
            assert _bits((ll_i, grad_i)) == _bits((ll, grad)), spec.name
            assert info.shape == (model.n_free,) * 2 and np.all(np.isfinite(info)), spec.name


def _bits(outputs: tuple) -> tuple[bytes, ...]:
    """The bytes of each of a pass's outputs: log-likelihood, gradient and so on."""
    return tuple(np.asarray(x, dtype=np.float64).tobytes() for x in outputs)


def test_gradient_after_value_pass_reuses_it_bit_for_bit(synth_data, blocking):
    """The information pass handed a value pass gives the bits of a fresh one-block
    pass, as often as it is handed the same pass, and so does the gradient pass; with
    residual parameters too."""
    rng = np.random.default_rng(RNG_SEED)
    for spec in (*replay_specs(), parser.parse_spec(BOXCOX_PIECEWISE_SPEC)):
        model = binding.bind(spec, synth_data)
        theta = model.start + rng.normal(0.0, 0.02, size=model.n_free)
        fresh = _bits(unblocked(information, binding.bind(spec, synth_data), theta))
        value = kernel.log_likelihood(model, theta)
        assert value.theta.tobytes() == theta.tobytes(), spec.name
        for _ in range(2):
            assert _bits(kernel.loglik_gradient_and_information(model, value)) == fresh, spec.name
        assert _bits(kernel.loglik_and_gradient(model, theta)) == fresh[:2], spec.name


def test_estimate_with_reuse_matches_estimate_without(best_spec, synth_data, monkeypatch, blocking):
    """Each information pass of a fit is handed the fit's latest value pass, and the
    fit in these row blocks equals the one-block fit whose information passes each
    make a fresh value pass."""
    def fit(spec: parser.UtilitySpec, handed_on: bool) -> tuple[bfgs.EstimationResult, int]:
        model = binding.bind(spec, synth_data)
        passes, hits = [], []
        value_pass, information_pass = bfgs.log_likelihood, bfgs.loglik_gradient_and_information

        def recorded(m, theta):
            passes.append(value_pass(m, theta))
            return passes[-1]

        def spy(m, value):
            hits.append(value is passes[-1])
            return information_pass(m, value if handed_on else kernel.log_likelihood(m, value.theta))

        with monkeypatch.context() as mp:
            mp.setattr(bfgs, "log_likelihood", recorded)
            mp.setattr(bfgs, "loglik_gradient_and_information", spy)
            return bfgs.estimate(model), sum(hits)

    for spec in (best_spec, *replay_specs()):
        reused, hits = fit(spec, handed_on=True)
        fresh, _ = unblocked(fit, spec, False)
        assert hits == reused.iterations + 1 > 1, spec.name  # the start pass is handed on too
        for field in ("estimates", "std_errors", "t_ratios", "loglik"):
            a, b = getattr(reused, field), getattr(fresh, field)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (spec.name, field)
        assert (reused.iterations, reused.convergence_reason, reused.hessian_pd) == (
            fresh.iterations, fresh.convergence_reason, fresh.hessian_pd
        ), spec.name


def test_two_fits_of_one_model_at_once_equal_sequential_fits(synth_data, best_spec):
    """Passes write nothing to the model, so two threads fitting one bound model at
    once, each pass in several row blocks on the pool, get the sequential result."""
    for spec in (best_spec, parser.parse_spec(BOXCOX_PIECEWISE_SPEC)):
        model = binding.bind(spec, synth_data)
        with row_blocks(7, POOL):
            sequential = bfgs.estimate(model)
            results = [None, None]

            def fit(i: int) -> None:
                results[i] = bfgs.estimate(model)

            threads = [threading.Thread(target=fit, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), spec.name
        assert sequential.converged, spec.name
        for result in results:
            assert result is not None, spec.name  # None: the fit raised in its thread
            for field in dataclasses.fields(result):
                a, b = getattr(result, field.name), getattr(sequential, field.name)
                assert repr(a) == repr(b), (spec.name, field.name)


@pytest.mark.parametrize(
    "text, affine",
    [
        ("b_bc * boxcox(income, lambda_inc)", False),
        ("b_log * log(b_inc * income)", False),
        ("b_cost * cost_car / b_scale", False),
        ("b_cost * b_time * cost_car", False),
        ("b_pow * pow(time_bus / 60, 2)", True),
        ("piecewise(time_rail, 120, 240, b_r1, b_r2, b_r3)", True),
        ("b_fix * b_time * time_car * business", True),
        ("b_cost * cost_bus / 100", True),
        ("asc_bus - (b_time * time_bus + 0.5) + -b_cost * cost_bus", True),
    ],
)
def test_affine_predicate(text, affine):
    free = {
        "asc_bus", "b_bc", "lambda_inc", "b_log", "b_inc", "b_cost", "b_scale",
        "b_time", "b_pow", "b_r1", "b_r2", "b_r3",
    }
    expr = parser.parse_expression(text, free | {"b_fix"})
    assert binding.is_affine(expr, free) is affine


def test_derivatives_are_zero_on_unavailable_cells(synth_data, blocking):
    """time_car is 0 where car is unavailable, so ∂V/∂b_t = log(time_car) is -inf there until zeroed."""
    spec = parser.parse_spec(
        "spec s\nalt car bus air rail\nparam asc_bus\nparam b_t generic\n"
        "U(car) = b_t * log(time_car)\nU(bus) = asc_bus\nU(air) = 0\nU(rail) = 0\n"
    )
    model = binding.bind(spec, synth_data)
    theta = np.array([0.1, -0.2])
    unavailable = ~model.avail.T
    assert unavailable[0].any() and unavailable[1].any()
    full = kernel.jacobian(model, theta, range(model.n_free))
    for G in (dense_design(model), full):
        assert np.all(G[:, unavailable] == 0.0) and np.all(np.isfinite(G))
    for m in (model, all_residual(model)):
        ll, grad = kernel.loglik_and_gradient(m, theta)
        assert math.isfinite(ll) and np.all(np.isfinite(grad))


BOXCOX_PIECEWISE_SPEC = BOXCOX_SPEC.read_text(encoding="utf-8")


def test_boxcox_piecewise_spec_sends_only_its_boxcox_terms_to_the_residuals(synth_data):
    """The ASCs, time and piecewise income terms are affine, so only along b_cost and
    lambda_cost are the utilities differentiated at each θ; the design stores the
    other parameters' rows, and each has the bits of the Jacobian's."""
    model = binding.bind(parser.parse_spec(BOXCOX_PIECEWISE_SPEC), synth_data)
    assert [model.free_names[i] for i in model.residual_idx] == ["b_cost", "lambda_cost"]
    affine = [i for i in range(model.n_free) if i not in model.residual_idx]
    assert not stored_pairs(model)[list(model.residual_idx)].any()
    theta = model.start + np.random.default_rng(RNG_SEED).uniform(0.1, 0.5, model.n_free)
    full = kernel.jacobian(model, theta, range(model.n_free))
    assert_stored_rows_are(model, full, affine)


def affine_terms(model: binding.BoundModel) -> list:
    """Each utility's affine terms, as bind splits them off."""
    free = set(model.free_names)
    return [binding._affine_part(u, free)[0] for u in utility_exprs(model)]


def dual_design(model: binding.BoundModel) -> np.ndarray:
    """The reference for bind's design: one dual-number pass over every free
    parameter of each utility's affine terms, zero along ``residual_idx``."""
    G = walk_jacobian(model, affine_terms(model), model.start)
    G[list(model.residual_idx)] = 0.0
    return G


def stored_pairs(model: binding.BoundModel) -> np.ndarray:
    """(k, J): where bind's design stores the row ∂Vⱼ/∂θ_q."""
    pairs = np.zeros((model.n_free, model.n_alts), dtype=bool)
    for j, idx in enumerate(model.design_idx):
        pairs[list(idx), j] = True
    return pairs


def dense_design(model: binding.BoundModel) -> np.ndarray:
    """(k, J, n) bind's stored rows in their (parameter, alternative) pairs, 0.0 in the others."""
    G = np.zeros((model.n_free, model.n_alts, model.n_obs))
    for j, (idx, X) in enumerate(zip(model.design_idx, model.design)):
        G[list(idx), j] = X
    return G


def design_bits(model: binding.BoundModel, bits=np.ndarray.tobytes) -> tuple:
    """Which rows bind's design stores, and the bits of each."""
    return tuple((idx, [bits(x) for x in X]) for idx, X in zip(model.design_idx, model.design))


def assert_stored_rows_are(
    model: binding.BoundModel, want: np.ndarray, params=None, bits=np.ndarray.tobytes
) -> None:
    """Bind stores a row for each free parameter outside ``residual_idx`` that an
    alternative's affine terms name, and for no other.  Each is a contiguous row of
    its alternative's (len(design_idx[j]), n) array with the bits of its (parameter,
    alternative) row of the (k, J, n) ``want``, and ``want`` is exactly zero in every
    other pair of the parameters ``params`` (all of them by default), on each cell
    where that alternative's stored rows are all finite.  Elsewhere a dual pass's
    zero seed can meet an infinite factor or a zero divisor, as in b_one / 0, and
    give NaN along a parameter the utility does not name."""
    for j, (idx, X, terms) in enumerate(zip(model.design_idx, model.design, affine_terms(model))):
        named = param_names(terms)
        assert idx == tuple(
            q for q, name in enumerate(model.free_names) if name in named and q not in model.residual_idx
        ), model.alternatives[j]
        assert X.shape == (len(idx), model.n_obs) and X.flags.c_contiguous
        for q, x in zip(idx, X):
            assert bits(x) == bits(want[q, j]), (model.free_names[q], model.alternatives[j])
        finite = np.isfinite(X).all(axis=0)
        for q in set(range(model.n_free) if params is None else params) - set(idx):
            assert np.all(want[q, j, finite] == 0.0), (model.free_names[q], model.alternatives[j])


def test_fixture_designs_have_the_bits_of_a_dual_pass(synth_data):
    specs = [*replay_specs(), parser.parse_spec(BOXCOX_PIECEWISE_SPEC)]
    assert len(specs) == 14
    for spec in specs:
        model = binding.bind(spec, synth_data)
        assert_stored_rows_are(model, dual_design(model))


def test_fixture_jacobians_have_the_bits_of_a_dual_pass(synth_data, blocking):
    """The utilities' Jacobian along ``residual_idx``, and along every parameter, at θ
    off the start."""
    specs = [*replay_specs(), parser.parse_spec(BOXCOX_PIECEWISE_SPEC)]
    assert len(specs) == 14
    rng = np.random.default_rng(RNG_SEED)
    for spec in specs:
        model = binding.bind(spec, synth_data)
        theta = model.start + rng.uniform(0.01, 0.05, model.n_free)
        residual, walked = list(model.residual_idx), walk_jacobian(model, utility_exprs(model), theta)
        got = kernel.jacobian(model, theta, residual)
        assert got.tobytes() == walked[residual].tobytes(), spec.name
        got = kernel.jacobian(model, theta, range(model.n_free))
        assert got.tobytes() == walked.tobytes(), spec.name


def test_one_jacobian_evaluates_each_function_once_per_node(synth_data, monkeypatch):
    """Each Box-Cox term's log, expm1 and the exp of its derivative run once per
    kernel.jacobian of boxcox_piecewise, as in one dual pass: a rule reuses its
    operands' values.  The counters are in place before bind compiles anything."""
    calls = {}

    def counted(name, fn):
        def count(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return count

    for name in ("log", "expm1", "exp"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    model = binding.bind(parser.parse_spec(BOXCOX_PIECEWISE_SPEC), synth_data)
    theta = model.start + 0.1
    calls.clear()
    kernel.jacobian(model, theta, model.residual_idx)
    assert calls == {"log": 4, "expm1": 4, "exp": 4}


NESTED_BOXCOX = (
    "spec nested\nalt car bus air rail\nparam b_time generic\nparam lambda_c{}\n"
    f"U(car) = b_time * {'boxcox(' * 30}(time_car + 100){', lambda_c)' * 30}\n"
    "U(bus) = b_time * time_bus\nU(air) = 0\nU(rail) = 0\n"
)


def test_nested_boxcox_evaluates_each_base_once(synth_data):
    """Each Box-Cox form reads log x once per call.  Compiled as trees with log x at
    each use, 6 nested nodes took 6 s to bind, and 30 at shape 0 would take 3^30 logs.
    The Jacobian has the bits of a dual pass off shape 0 and at it, NaNs of either
    sign alike; with a fixed shape of 0 the domain check fails at once."""
    model = binding.bind(parser.parse_spec(NESTED_BOXCOX.format("")), synth_data)
    for theta in (model.start + 0.01, np.array([0.01, 0.0])):
        got = kernel.jacobian(model, theta, range(model.n_free))
        assert np.isfinite(got).all() == (theta[1] != 0.0)
        assert _nan_blind_bits(got) == _nan_blind_bits(walk_jacobian(model, utility_exprs(model), theta))
    with pytest.raises(binding.DomainViolation):
        binding.bind(parser.parse_spec(NESTED_BOXCOX.format(" fixed 0")), synth_data)


SHARED_SPEC = """spec shared
alt car bus air rail
param asc_bus
param b_time generic
param b_cost generic
param lambda_c
U(car) = b_cost * cost_car + b_time * time_car
U(bus) = asc_bus + b_cost * boxcox(cost_bus, lambda_c) + b_time * time_bus
U(air) = b_time * time_air - b_cost * cost_air / 100 + b_cost * boxcox(cost_air, lambda_c)
U(rail) = b_time * time_rail
"""


def test_parameter_in_affine_and_non_affine_terms_is_differentiated_whole(synth_data, blocking):
    """b_cost multiplies cost in car's and air's affine terms and a Box-Cox term in bus
    and air: its design slab stays zero, and its slab of ∂V/∂θ, the gradient and the
    information are those of the walked utilities."""
    model = binding.bind(parser.parse_spec(SHARED_SPEC), synth_data)
    residual = list(model.residual_idx)
    assert [model.free_names[i] for i in residual] == ["b_cost", "lambda_c"]
    assert not stored_pairs(model)[residual].any()
    assert stored_pairs(model)[model.free_names.index("b_time")].all()
    theta = model.start + np.random.default_rng(RNG_SEED).uniform(0.01, 0.05, model.n_free)
    walked = walk_jacobian(model, utility_exprs(model), theta)
    assert kernel.jacobian(model, theta, residual).tobytes() == walked[residual].tobytes()
    for fn in (kernel.loglik_and_gradient, information):
        assert _bits(fn(model, theta)) == _bits(fn(all_residual(model), theta)), fn.__name__


HAND_UTILITIES = {
    "sub": [
        Sub(Param("b_one"), Mul(Param("b_two"), Var("x"))),
        Sub(Mul(Var("y"), Param("b_two")), Param("b_one")),
        Sub(Const(1.5), Mul(Param("b_one"), Sub(Var("y"), Const(1.0)))),
    ],
    "neg": [
        Neg(Mul(Param("b_one"), Var("y"))),  # -0.0 in the columns of b_two and lambda_s
        Mul(Neg(Param("b_two")), Sub(Var("z"), Const(1.0))),
        Add(Neg(Param("b_one")), Param("b_two")),
    ],
    "div_by_column": [
        Div(Mul(Param("b_one"), Var("x")), Var("z")),
        Div(Param("b_two"), Sub(Var("y"), Var("z"))),
        Add(Param("b_one"), Div(Const(2.0), Var("x"))),
    ],
    "repeated_slope": [
        Piecewise("x", (30.0, 60.0), ("b_one", "b_two", "b_one")),
        Add(Param("b_two"), Piecewise("y", (1.0,), ("b_one", "b_one"))),
        Var("z"),
    ],
    "one_parameter_in_two_terms": [
        Add(Mul(Param("b_one"), Var("x")), Mul(Param("b_one"), Var("y"))),
        Sub(Add(Param("b_two"), Mul(Var("z"), Param("b_one"))), Mul(Param("b_two"), Var("x"))),
        Const(0.0),
    ],
    "divide_by_zero": [
        Div(Param("b_one"), Const(0.0)),  # the dual pass gives numpy's inf; Python floats would raise
        Add(Param("b_two"), Div(Mul(Param("b_one"), Const(0.0)), Const(0.0))),
        Var("x"),
    ],
}


@pytest.mark.parametrize("exprs", HAND_UTILITIES.values(), ids=HAND_UTILITIES)
def test_hand_designs_have_the_bits_of_a_dual_pass(xyz_data, exprs):
    model = binding.bind(random_spec(exprs), xyz_data)
    assert model.residual_idx == ()
    assert_stored_rows_are(model, dual_design(model))


def test_binding_and_estimating_make_no_dual_number(best_spec, synth_data, monkeypatch):
    """Affine and non-affine specs alike; the package has no dual-number module."""
    def refuse(self, *args):
        raise AssertionError("a Dual was constructed")

    monkeypatch.setattr(Dual, "__init__", refuse)
    for spec in (best_spec, parser.parse_spec(BOXCOX_PIECEWISE_SPEC)):
        model = binding.bind(spec, synth_data)
        assert bfgs.estimate(model).converged, spec.name
    with pytest.raises(AssertionError, match="a Dual was constructed"):
        Dual.seed(0.0, 0, 1)
    assert importlib.util.find_spec("logitlab.engine.dual") is None


ZERO_PARAMETER_SPEC = "spec none\nalt car bus air rail\nU(car) = 0\nU(bus) = 0\nU(air) = 0\nU(rail) = 0\n"


@pytest.mark.parametrize(
    "text",
    [BEST_SPEC.read_text(encoding="utf-8"), BOXCOX_PIECEWISE_SPEC, ZERO_PARAMETER_SPEC],
    ids=["synthetic_best", "boxcox_piecewise", "no_free_parameters"],
)
def test_gradient_and_information_match_the_parameter_last_contraction(synth_data, text, blocking):
    """One sum per parameter slab gives the gradient, and the P-weighted products
    of the centred slabs give the information matrix, of the textbook contractions
    with an (n, J, k) ∂V/∂θ from one dual pass, to 1e-12, with the bits of a
    one-block pass."""
    model = binding.bind(parser.parse_spec(text), synth_data)
    k = model.n_free
    theta = model.start + np.random.default_rng(RNG_SEED).uniform(0.01, 0.05, k)
    P = probabilities(model, theta)
    R = -P
    R[np.arange(model.n_obs), model.choice_idx] += 1.0
    D = np.ascontiguousarray(walk_jacobian(model, utility_exprs(model), theta).transpose(2, 1, 0))
    C = D - np.einsum("nj,njk->nk", P, D)[:, None, :]
    ll, grad = kernel.loglik_and_gradient(model, theta)
    passes = (ll_i, grad_i, info) = information(model, theta)
    assert _bits(passes) == _bits(unblocked(information, model, theta))
    assert _bits((ll_i, grad_i)) == _bits((ll, grad))
    assert math.isfinite(ll) and grad.shape == (k,) and info.shape == (k, k)
    assert np.array_equal(info, info.T)
    for got, want in ((grad, np.einsum("nj,njk->k", R, D)), (info, np.einsum("nj,njk,njl->kl", P, C, C))):
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)


@pytest.mark.parametrize(
    "text", [BEST_SPEC.read_text(encoding="utf-8"), BOXCOX_PIECEWISE_SPEC],
    ids=["synthetic_best", "boxcox_piecewise"],
)
def test_every_per_cell_array_is_alternative_major(synth_data, text, blocking):
    """Each alternative's design rows, the Jacobian and the value pass's P are
    contiguous (…, n) arrays, and the gradient has the bits of the sum, in
    alternative order, of one contraction of ``(Y − P)ⱼ`` with each alternative's
    stack of rows along the parameters it reads: its design rows or, along
    ``residual_idx``, the walked Jacobian's."""
    model = binding.bind(parser.parse_spec(text), synth_data)
    k, J, n = model.n_free, model.n_alts, model.n_obs
    theta = model.start + np.random.default_rng(RNG_SEED).uniform(0.01, 0.05, k)
    residual = list(model.residual_idx)
    jac = kernel.jacobian(model, theta, residual)
    assert jac.shape == (len(residual), J, n) and jac.flags.c_contiguous
    for X, idx in zip(model.design, model.design_idx):
        assert X.shape == (len(idx), n) and X.flags.c_contiguous
    P = kernel.log_likelihood(model, theta).P
    assert P.shape == (J, n) and P.flags.c_contiguous
    Y = np.full((J, n), -0.0)  # Y − P is −P off the chosen cells, the sign of a zero included
    Y[model.choice_idx, np.arange(n)] = 1.0
    G = dense_design(model)
    G[residual] = walk_jacobian(model, utility_exprs(model), theta)[residual]
    parts = np.zeros((J, k))
    for j, reads in enumerate(model.reads):
        parts[j, list(reads)] = np.einsum("n,qn->q", (Y - P)[j], G[list(reads), j])
    _, grad = kernel.loglik_and_gradient(model, theta)
    assert _bits((grad,)) == _bits((functools.reduce(np.add, parts),))


@pytest.mark.parametrize(
    "prefix, change, bound",
    [
        ("cost_", lambda v: v * 1e-3, 1e-12),
        ("cost_", lambda v: v * 1e3, 1e-12),
        ("time_", lambda v: v + 1e4, 1e-13),  # 2.9e-14 measured; uncentred forms lose ~1e-10 here
    ],
    ids=["cost_times_1e-3", "cost_times_1000", "time_plus_1e4"],
)
def test_information_off_the_shipped_scale_matches_the_centred_contraction(
    synth_data, best_spec, prefix, change, bound
):
    """synthetic_best fitted with rescaled costs or shifted times: at the estimate,
    the information matrix is the textbook contraction of the P-weighted centred
    ∂V/∂θ, each entry to ``bound`` of √(I_qq I_rr)."""
    columns = {name: change(v) if name.startswith(prefix) else v for name, v in synth_data.columns.items()}
    model = binding.bind(best_spec, dataclasses.replace(synth_data, columns=columns))
    value = kernel.log_likelihood(model, bfgs.estimate(model).estimates)
    _, _, info = kernel.loglik_gradient_and_information(model, value)
    P, D = value.P.T, dense_design(model).transpose(2, 1, 0)
    C = D - np.einsum("nj,njk->nk", P, D)[:, None, :]
    want = np.einsum("nj,njk,njl->kl", P, C, C)
    scale = np.sqrt(np.diag(want))
    assert (np.abs(info - want) / np.outer(scale, scale)).max() <= bound


def test_information_of_an_affine_spec_is_minus_the_hessian(best_model):
    """Central differences of the exact gradient, at a point off the optimum."""
    theta = best_model.start + np.random.default_rng(RNG_SEED).uniform(0.01, 0.05, best_model.n_free)
    _, _, info = information(best_model, theta)
    H = np.empty_like(info)
    for i, h in enumerate(1e-5 * np.maximum(1.0, np.abs(theta))):
        step = np.zeros_like(theta)
        step[i] = h
        up, down = (kernel.loglik_and_gradient(best_model, theta + s)[1] for s in (step, -step))
        H[:, i] = (up - down) / (2.0 * h)
    np.testing.assert_allclose(info, -H, rtol=0.0, atol=1e-6 * np.abs(info).max())


def test_binary_information_is_the_logit_weighted_sum_of_squares(tmp_path):
    """For U=b*x with two alternatives the information is sum dx^2 p (1-p)."""
    data = binary_dataset(tmp_path)
    model = binding.bind(parser.parse_spec(BINARY_SPEC), data)
    dx = data.columns["x_a"] - data.columns["x_b"]
    for b in (-0.7, 0.0, 0.4):
        _, _, info = information(model, np.array([b]))
        p = 1.0 / (1.0 + np.exp(-b * dx))
        np.testing.assert_allclose(info, [[float((dx**2 * p * (1 - p)).sum())]], rtol=1e-12)


# -- kernel properties ---------------------------------------------------------


def test_probability_matrix_translation_invariant():
    rng = np.random.default_rng(RNG_SEED)
    V = rng.normal(0, 2, size=(50, 4))
    avail = rng.random((50, 4)) < 0.8
    avail[:, 0] = True
    choice_idx = np.zeros(50, dtype=int)
    P = probabilities(table_model(V, avail, choice_idx), ())
    Q = probabilities(table_model(V + rng.normal(0, 5, size=(50, 1)), avail, choice_idx), ())
    np.testing.assert_allclose(P, Q, atol=1e-12)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)


def _reference_probability_matrix(V, avail):
    """Reference softmax: a masked copy, then the row max and row sum over axis 1."""
    with np.errstate(all="ignore"):
        masked = np.where(avail, V, -np.inf)
        shift = masked.max(axis=1, keepdims=True)
        expV = np.where(avail, np.exp(masked - shift), 0.0)
        return expV / expV.sum(axis=1, keepdims=True)


def _reference_loglik(V, avail, choice_idx) -> float:
    """The reference softmax's LL in the log domain: each row's shifted chosen
    utility minus the log of its row sum; -inf where an available utility is not
    finite."""
    if not np.all(np.isfinite(V[avail])):
        return -math.inf
    with np.errstate(all="ignore"):
        masked = np.where(avail, V, -np.inf)
        shifted = masked - masked.max(axis=1, keepdims=True)
        total = np.where(avail, np.exp(shifted), 0.0).sum(axis=1)
        return float((shifted[np.arange(V.shape[0]), choice_idx] - np.log(total)).sum())


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
RARELY = st.sampled_from([False, False, False, True])


@st.composite
def utility_tables(draw):
    """(V, avail, choice_idx): J in 2..6, at least two alternatives available per row,
    junk on unavailable cells, sometimes a non-finite available cell or a chosen
    probability that underflows."""
    J = draw(st.integers(2, 6))
    n = draw(st.integers(1, 20))
    V = draw(hnp.arrays(np.float64, (n, J), elements=st.floats(-5.0, 5.0), fill=st.nothing()))
    avail = draw(hnp.arrays(np.bool_, (n, J)))
    pair = draw(hnp.arrays(np.int64, n, elements=st.integers(0, J - 1)))
    avail[np.arange(n), pair] = avail[np.arange(n), (pair + 1) % J] = True
    V[~avail] = draw(hnp.arrays(np.float64, int((~avail).sum()), elements=NON_FINITE))
    drawn = draw(hnp.arrays(np.int64, n, elements=st.integers(0, J - 1), fill=st.nothing()))
    choice_idx = np.where(avail[np.arange(n), drawn], drawn, pair)
    i = draw(st.integers(0, n - 1))
    if draw(RARELY):  # chosen probability exp(-1600) underflows to zero
        choice_idx[i], V[i, pair[i]], V[i, (pair[i] + 1) % J] = pair[i], -800.0, 800.0
    if draw(RARELY):
        V[i, draw(st.sampled_from(np.flatnonzero(avail[i]).tolist()))] = draw(NON_FINITE)
    return V, avail, choice_idx


def _assert_reference_softmax(V, avail, choice_idx) -> None:
    """The value pass over the table gives the reference LL bit for bit, -inf in the
    same cases, and otherwise the reference probabilities bit for bit."""
    value = kernel.log_likelihood(table_model(V, avail, choice_idx), ())
    expected = _reference_loglik(V, avail, choice_idx)
    assert np.float64(value.loglik).tobytes() == np.float64(expected).tobytes()
    if math.isfinite(value.loglik):
        assert value.P.T.tobytes() == _reference_probability_matrix(V, avail).tobytes()
    else:
        assert value.P is None


@settings(max_examples=300, deadline=None)
@given(utility_tables())
@example(  # V − shift overflows to -inf on the chosen cell of the first row
    (np.array([[1e308, -1e308], [0.0, 1.0]]), np.ones((2, 2), dtype=bool), np.array([1, 0]))
)
def test_softmax_matches_reference_formulas(table):
    """The alternative-major softmax gives the reference LL and P bit for bit in any
    row blocks, with the same -inf verdict."""
    for setting in BLOCKINGS.values():
        with row_blocks(*setting):
            _assert_reference_softmax(*table)


UNAVAILABLE_FILLERS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "1e308": 1e308, "-1e308": -1e308}


@pytest.mark.parametrize("filler", UNAVAILABLE_FILLERS.values(), ids=UNAVAILABLE_FILLERS)
def test_unavailable_cells_get_probability_exactly_zero(filler, blocking):
    """Whatever the utilities hold on unavailable cells, P is exactly 0 there.  A finite
    ±1e308 there, against ∓1e308 on every available cell of half the rows, makes
    V − shift overflow to ±inf on those cells."""
    rng = np.random.default_rng(RNG_SEED)
    n, J = 40, 4
    avail = rng.random((n, J)) < 0.6
    avail[np.arange(n), rng.integers(0, J, n)] = True
    choice_idx = np.array([rng.choice(np.flatnonzero(row)) for row in avail])
    V = rng.normal(0.0, 2.0, (n, J))
    if math.isfinite(filler):
        V[: n // 2][avail[: n // 2]] = -filler
    V[~avail] = filler
    assert (~avail).sum(axis=0).all()  # every alternative is unavailable somewhere
    _assert_reference_softmax(V, avail, choice_idx)
    assert np.all(probabilities(table_model(V, avail, choice_idx), ())[~avail] == 0.0)


def test_unavailable_probability_exactly_zero(best_model):
    theta = np.zeros(best_model.n_free)
    row = int(np.flatnonzero(~best_model.avail.all(axis=1))[0])
    probs = probabilities(best_model, theta)[row]
    assert np.all(probs[~best_model.avail[row]] == 0.0)
    assert math.isclose(probs.sum(), 1.0, abs_tol=1e-12)


def test_null_loglik_equal_shares_exact(synth_data):
    clone = full_availability_clone(synth_data)
    expected = -synth_data.n_obs * math.log(4.0)
    assert abs(kernel.null_loglik(clone) - expected) < 1e-9


def test_null_loglik_matches_recount(synth_data):
    with open(SYNTH_CSV, newline="", encoding="utf-8") as fh:
        manual = -sum(
            math.log(sum(int(row[f"av_{alt}"]) for alt in synth_data.alternatives))
            for row in csv.DictReader(fh)
        )
    assert abs(kernel.null_loglik(synth_data) - manual) < 1e-9


@settings(max_examples=300, deadline=None)
@given(
    counts=st.integers(1, 8).flatmap(
        lambda J: st.tuples(st.just(J), st.lists(st.integers(1, J), min_size=1, max_size=400))
    )
)
@example(counts=(3, [2]))  # a single row
@example(counts=(8, [8] * 1000))  # every count equal
@example(counts=(1, [1, 1, 1]))  # log 1 = 0
def test_null_loglik_from_counts_has_the_bits_of_fsum(counts):
    """The sum over distinct availability counts, rounded once, is the correctly
    rounded sum of every row's log count: math.fsum's."""
    J, per_row = counts
    avail = np.arange(J) < np.array(per_row)[:, None]
    event(f"{len(set(per_row))} distinct counts")
    want = -math.fsum(map(math.log, per_row))
    got = kernel.null_loglik(types.SimpleNamespace(avail=avail))  # it reads only avail
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_loglik_is_log_sum_exp_where_chosen_probabilities_underflow(best_model):
    theta = np.zeros(best_model.n_free)
    theta[best_model.free_names.index("b_time")] = -1e4
    value = kernel.log_likelihood(best_model, theta)
    assert np.any(value.P.ravel()[best_model.chosen_cell] == 0.0)
    assert value.loglik == pytest.approx(log_sum_exp_loglik(best_model, theta), rel=1e-12)
    ll, grad = kernel.loglik_and_gradient(best_model, theta)
    assert ll == value.loglik
    assert np.all(np.isfinite(grad))
    assert _bits(kernel.loglik_gradient_and_information(best_model, value)[:2]) == _bits((ll, grad))


def test_probabilities_raise_on_non_finite(synth_data):
    spec = parser.parse_spec(
        "spec s\nalt car bus air rail\nparam b_e generic\n"
        "U(car) = exp(b_e * time_car)\nU(bus) = 0\nU(air) = 0\nU(rail) = 0\n"
    )
    model = binding.bind(spec, synth_data)
    theta = np.array([10.0])  # exp(10 * time) overflows for any trip
    assert kernel.log_likelihood(model, theta).loglik == -math.inf


def test_quotient_of_parameters_at_zero_is_rejected_not_raised(synth_data):
    spec = parser.parse_spec(
        "spec s\nalt car bus air rail\nparam b_t generic\nparam b_s generic\n"
        "U(car) = b_t / b_s * time_car\nU(bus) = 0\nU(air) = 0\nU(rail) = 0\n"
    )
    model = binding.bind(spec, synth_data)
    assert kernel.log_likelihood(model, np.zeros(2)).loglik == -math.inf


def test_non_finite_theta_rejected(best_model):
    bad = np.full(best_model.n_free, np.nan)
    with pytest.raises(kernel.NonFiniteUtility):
        kernel.log_likelihood(best_model, bad)


@pytest.mark.parametrize("shape", [(10,), (3,), (7, 1), (), (0,)])
def test_theta_of_the_wrong_shape_is_rejected(best_model, shape):
    """Before: ten entries gave the LL of the first seven, three an IndexError."""
    assert best_model.n_free == 7
    theta = np.zeros(shape)
    message = f"^theta has shape {re.escape(str(shape))}; the model has 7 free parameters$"
    for fn in (kernel.log_likelihood, kernel.loglik_and_gradient, information):
        with pytest.raises(ValueError, match=message):
            fn(best_model, theta)
    assert math.isfinite(kernel.log_likelihood(best_model, list(best_model.start)).loglik)


# -- row blocks: verdicts, warnings, thread pool ---------------------------------

LATE_ROW = 30  # in the fifth block of 7 rows


def late_row_dataset(tmp_path, x_a_late: float, choice_late: int | None = None) -> ds.Dataset:
    """``binary_dataset`` of 40 rows with x_a, and optionally the choice, changed in
    row ``LATE_ROW`` alone."""
    data = binary_dataset(tmp_path, n=40)
    x_a, choice_idx = data.columns["x_a"].copy(), data.choice_idx.copy()
    x_a[LATE_ROW] = x_a_late
    if choice_late is not None:
        choice_idx[LATE_ROW] = choice_late
    return dataclasses.replace(data, columns={**data.columns, "x_a": x_a}, choice_idx=choice_idx)


@pytest.mark.parametrize("workers", [1, POOL], ids=["inline", "pool"])
def test_breakdown_in_a_later_block_alone_gives_minus_inf(tmp_path, workers):
    spec = parser.parse_spec(BINARY_SPEC)
    theta = np.array([10.0])
    with row_blocks(7, workers):
        assert LATE_ROW // binding.ROW_BLOCK == 4
        intact = binding.bind(spec, binary_dataset(tmp_path, n=40))
        assert math.isfinite(kernel.log_likelihood(intact, theta).loglik)
        model = binding.bind(spec, late_row_dataset(tmp_path, 1e308))  # 10 * x_a overflows
        for m in (model, all_residual(model)):
            value = kernel.log_likelihood(m, theta)
            assert value.loglik == -math.inf and value.P is None
            for fn in (kernel.loglik_and_gradient, information):
                ll, *outputs = fn(m, theta)
                assert ll == -math.inf and all(np.all(np.isnan(x)) for x in outputs)


@pytest.mark.parametrize("workers", [1, POOL], ids=["inline", "pool"])
def test_underflow_in_a_later_block_alone_keeps_its_log(tmp_path, workers):
    """Row 30's chosen probability exp(10 * (x_b - 1000)) underflows to 0, but its
    log does not: the LL is the log-sum-exp one, with the bits of a one-block pass,
    and the gradient and the information are finite."""
    spec = parser.parse_spec(BINARY_SPEC)
    theta = np.array([10.0])
    with row_blocks(7, workers):
        assert LATE_ROW // binding.ROW_BLOCK == 4
        model = binding.bind(spec, late_row_dataset(tmp_path, 1000.0, 1))
        want = log_sum_exp_loglik(model, theta)
        for m in (model, all_residual(model)):
            value = kernel.log_likelihood(m, theta)
            assert value.P[1, LATE_ROW] == 0.0
            assert value.loglik == pytest.approx(want, rel=1e-12)
            for fn in (kernel.loglik_and_gradient, information):
                passes = fn(m, theta)
                assert passes[0] == value.loglik and all(np.isfinite(x).all() for x in passes)
                assert _bits(passes) == _bits(unblocked(fn, m, theta))


def test_row_blocks_raise_no_floating_point_warning(tmp_path):
    """np.errstate holds only in the thread that enters it, so each block enters its own."""
    data = binary_dataset(tmp_path, n=40)
    affine = binding.bind(parser.parse_spec(BINARY_SPEC), data)
    nonaffine = binding.bind(parser.parse_spec(BINARY_SPEC.replace("b_x * x_a", "exp(b_x * x_a)")), data)
    assert nonaffine.residual_idx == (0,)
    steep = binding.bind(parser.parse_spec(BINARY_SPEC.replace("b_x * x_a", "log(b_x * x_a)")), data)
    with row_blocks(7, POOL), warnings.catch_warnings():
        warnings.simplefilter("error")
        for model, theta in ((affine, np.array([1e308])), (nonaffine, np.array([500.0]))):
            assert kernel.log_likelihood(model, theta).loglik == -math.inf
            assert kernel.loglik_and_gradient(model, theta)[0] == -math.inf
            assert information(model, theta)[0] == -math.inf
        tiny = np.array([1e-310])  # log(b_x * x_a) is finite, its derivative 1 / b_x is not
        assert math.isfinite(kernel.log_likelihood(steep, tiny).loglik)
        assert information(steep, tiny)[0] == -math.inf
        G = kernel.jacobian(nonaffine, np.array([500.0]), (0,))
        assert not np.isfinite(G).all()  # exp(500 x_a) overflows inside the derivative


def test_more_threads_than_cpus_switching_often_write_the_same_bits(best_spec, synth_data, monkeypatch):
    """Blocks share only their output buffers; each writes its own rows, whatever the interleaving."""
    model = binding.bind(best_spec, synth_data)
    dual = all_residual(model)
    theta = model.start + 0.01
    passes = [
        (fn, m)
        for fn in (kernel.loglik_and_gradient, information)
        for m in (model, dual)
    ]
    expected = [_bits(unblocked(fn, m, theta)) for fn, m in passes]
    interval = sys.getswitchinterval()
    monkeypatch.setattr(kernel, "_pool", None)  # a pool of the size below, shut down after
    try:
        sys.setswitchinterval(1e-6)
        with row_blocks(7, 4 * POOL):
            for _ in range(3):
                assert [_bits(fn(m, theta)) for fn, m in passes] == expected
    finally:
        sys.setswitchinterval(interval)
        if kernel._pool is not None:
            kernel._pool.shutdown()


def test_one_block_fit_never_imports_the_thread_pool():
    """A pass over at most ROW_BLOCK rows runs inline, as every replayed fit does."""
    code = (
        "import sys\n"
        "from logitlab import dataset\n"
        "from logitlab.engine import bfgs\n"
        "from logitlab.specdsl import binding, parser\n"
        f"data = dataset.load_dataset({str(SYNTH_CSV)!r}, {str(SYNTH_DICT)!r})\n"
        f"spec = parser.parse_spec(open({str(BEST_SPEC)!r}, encoding='utf-8').read())\n"
        "assert bfgs.estimate(binding.bind(spec, data)).converged\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "False\n"


@pytest.fixture(scope="module")
def xyz_data(tmp_path_factory) -> ds.Dataset:
    """40 rows of three positive columns x, y, z; alternative c is sometimes unavailable."""
    rng = np.random.default_rng(RNG_SEED)
    path = tmp_path_factory.mktemp("xyz")
    rows = ["av_a,av_b,av_c,choice,x,y,z"]
    for _ in range(40):
        av_c = int(rng.random() < 0.7)
        choice = "abc"[rng.integers(0, 2 + av_c)]
        x, y, z = rng.uniform(1.0, 90.0), rng.uniform(0.1, 3.0), rng.uniform(0.5, 2.0)
        rows.append(f"1,1,{av_c},{choice},{x:.4f},{y:.4f},{z:.4f}")
    dict_md = "| name | kind | alternative | units | description |\n| --- | --- | --- | --- | --- |\n"
    dict_md += "".join(f"| av_{alt} | availability | {alt} | 0/1 | {alt} |\n" for alt in "abc")
    dict_md += "| choice | choice |  |  | chosen |\n"
    dict_md += "".join(f"| {v} | covariate |  |  | {v} |\n" for v in "xyz")
    (path / "d.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (path / "d.md").write_text(dict_md, encoding="utf-8")
    return ds.load_dataset(path / "d.csv", path / "d.md")


def random_spec(exprs) -> parser.UtilitySpec:
    return parser.UtilitySpec(
        name="random",
        alternatives=("a", "b", "c"),
        parameters=tuple(
            parser.ParameterDecl(name, kind, "generic", None, 0.5)
            for name, kind in (("b_one", "taste"), ("b_two", "taste"), ("lambda_s", "shape"))
        ),
        utilities=dict(zip("abc", exprs)),
    )


RANDOM_UTILITIES = st.lists(EXPRS, min_size=3, max_size=3)
RANDOM_THETA = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.2, 2.0))


def _nan_blind_bits(a: np.ndarray) -> bytes:
    """``a``'s bytes with every NaN made numpy's default NaN: numpy's SIMD and
    scalar loops give a NaN either sign, so the sign depends on the row blocks."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


@settings(max_examples=150, deadline=None)
@given(exprs=RANDOM_UTILITIES, theta=RANDOM_THETA)
@example(  # 81 NaN cells of the raw Jacobian are +nan in one block and -nan in 7-row blocks
    exprs=[
        Var("x"),
        Var("x"),
        BoxCox(Neg(BoxCox(Div(Var("x"), Div(Param("b_one"), Const(0.0))), "lambda_s")), "lambda_s"),
    ],
    theta=(1.0, 0.0, 1.0),
)
def test_random_utilities_give_the_same_bits_in_any_row_blocks(xyz_data, exprs, theta):
    """Affine and non-affine utilities: bind's design, the utilities' Jacobians along
    every parameter and along ``residual_idx``, the value pass, the gradient and the
    information, with the design and with a dual pass over everything, do not depend on
    ROW_BLOCK or on the thread pool.  The design and the raw Jacobians compare with their NaNs of
    either sign alike."""
    spec = random_spec(exprs)
    theta = np.array(theta)

    def outputs() -> list[bytes]:
        try:
            model = binding.bind(spec, xyz_data)
        except binding.DomainViolation as exc:
            return [str(exc).encode()]
        out = [design_bits(model, _nan_blind_bits)]
        for idx in (range(model.n_free), model.residual_idx):
            out.append(_nan_blind_bits(kernel.jacobian(model, theta, idx)))
        for m in (model, all_residual(model)):
            out.append(np.float64(kernel.log_likelihood(m, theta).loglik).tobytes())
            out += _bits(kernel.loglik_and_gradient(m, theta))
            out += _bits(information(m, theta))
        return out

    expected = unblocked(outputs)
    event(f"{len(expected)} outputs")  # 1: domain violation, 15 otherwise
    for name, setting in BLOCKINGS.items():
        with row_blocks(*setting):
            assert outputs() == expected, name


@settings(max_examples=150, deadline=None)
@given(exprs=RANDOM_UTILITIES)
def test_random_designs_have_the_bits_of_a_dual_pass(xyz_data, exprs):
    """NaNs of either sign alike, as numpy's loops may give either."""
    try:
        model = binding.bind(random_spec(exprs), xyz_data)
    except binding.DomainViolation:
        event("domain violation")
        return
    assert_stored_rows_are(model, dual_design(model), bits=_nan_blind_bits)


def _term_scale(model: binding.BoundModel, theta: np.ndarray) -> np.ndarray:
    """(k, J, n) sum over each utility's additive terms of |∂term/∂θ|: the size of
    the sums that the split and the all-residual reference add up in other orders."""
    scale = np.zeros((model.n_free, model.n_alts, model.n_obs))
    zeros = (Const(0.0),) * model.n_alts
    for j, utility in enumerate(utility_exprs(model)):
        for _, term in parser.additive_terms(utility):
            scale += np.abs(walk_jacobian(model, zeros[:j] + (term,) + zeros[j + 1:], theta))
    return scale


def _derivative_envelope(model: binding.BoundModel, theta: np.ndarray) -> np.ndarray:
    """(k, J, n) each utility's Envelope over every free parameter, zero on
    unavailable cells: the size a dual pass's ∂V/∂θ is rounded to."""
    return walk_jacobian(model, utility_exprs(model), theta, Envelope)


B1, B2, X, Y, Z = Param("b_one"), Param("b_two"), Var("x"), Var("y"), Var("z")


@settings(max_examples=250, deadline=None)
@given(
    expr=EXPRS,
    theta=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.just(0.0) | st.floats(0.2, 2.0)),
)
# each derivative rule at least once, on finite values
@example(expr=Div(Const(2.0), Add(B1, X)), theta=(0.5, -0.3, 1.0))
@example(expr=Div(B1, Mul(B2, Y)), theta=(0.5, -0.3, 1.0))
@example(expr=Mul(B1, Call1("log", Mul(B2, X))), theta=(0.5, 0.3, 1.0))
@example(expr=Add(Call1("exp", Mul(B1, Y)), Call1("sqrt", Add(B2, Z))), theta=(0.5, 0.3, 1.0))
@example(expr=Add(Pow(Add(B1, X), -1.0), Pow(Add(B2, Z), 0.5)), theta=(0.5, 0.3, 1.0))
@example(expr=BoxCox(Mul(B1, X), "lambda_s"), theta=(0.5, 0.3, 0.0))
@example(expr=BoxCox(Mul(B1, X), "lambda_s"), theta=(0.5, 0.3, 0.7))
# with b_two fixed: a fixed piecewise slope among free ones, all slopes fixed, and a
# fixed parameter under a product and a negation, also inside a non-affine node
@example(expr=Piecewise("x", (30.0, 60.0), ("b_one", "b_two", "b_one")), theta=(0.4, -1.7, 0.7))
@example(expr=Piecewise("x", (30.0, 60.0), ("b_two", "b_one", "b_two")), theta=(0.4, -1.7, 0.7))
@example(expr=Piecewise("x", (45.0,), ("b_two", "b_two")), theta=(0.4, -1.7, 0.7))
@example(expr=Add(Neg(Mul(B2, Mul(B1, X))), Mul(Y, Neg(B2))), theta=(0.4, -1.7, 0.7))
@example(
    expr=Mul(Neg(B2), Call1("exp", Mul(B1, Piecewise("x", (30.0,), ("b_two", "b_one"))))),
    theta=(0.04, -1.7, 0.7),
)
def test_compiled_expressions_match_a_tree_walk_bit_for_bit(xyz_data, expr, theta):
    """On all rows and on a slice, with each parameter free or b_two folded in as
    fixed, one call of a compiled expression gives the walk's type and bits on
    floats and, along each free parameter's unit vector, one at a time and all at
    once, the bits of that parameter's column of the walk on dual numbers seeded on
    every free parameter, NaNs of either sign alike; with no direction, no
    derivative.  An affine expression gives the same derivative with no θ, and no
    value where it reads a free parameter, and so do all directions at once.  The
    Box-Cox shape lambda_s is sometimes exactly 0, the log-limit branch."""
    columns = xyz_data.columns
    for rows in (binding.ALL_ROWS, slice(7, 30)):
        sliced = {name: column[rows] for name, column in columns.items()}
        for free_names, fixed in (
            (("b_one", "b_two", "lambda_s"), {}), (("b_one", "lambda_s"), {"b_two": theta[1]})
        ):
            values = [v for name, v in zip(("b_one", "b_two", "lambda_s"), theta) if name not in fixed]
            params = {**dict(zip(free_names, values)), **fixed}
            compiled = binding.compile_expr(expr, columns, free_names, fixed)
            with np.errstate(all="ignore"):
                value, none = compiled(rows, values, None)
                want = walk(expr, sliced, params)
            assert none is None
            assert type(value) is type(want)
            value_bits = _nan_blind_bits(np.asarray(value))
            assert value_bits == _nan_blind_bits(np.asarray(want))

            k = len(free_names)
            seeds = {name: Dual.seed(v, i, k) for i, (name, v) in enumerate(zip(free_names, values))}
            affine = binding.is_affine(expr, set(free_names))
            with np.errstate(all="ignore"):
                dual = walk(expr, sliced, {**params, **seeds})
                reads_free = isinstance(dual, Dual)
                for q, unit in enumerate(np.eye(k).tolist()):
                    for at in (values, None) if affine else (values,):
                        got, derivative = compiled(rows, at, unit)
                        if at is None and reads_free:
                            assert got is None
                        else:
                            assert _nan_blind_bits(np.asarray(got)) == value_bits
                        if not reads_free:
                            assert derivative is None
                            continue
                        got = np.broadcast_to(derivative, dual.val.shape)
                        want = np.broadcast_to(dual.grad, dual.val.shape + (k,))[..., q]
                        assert _nan_blind_bits(got) == _nan_blind_bits(want), free_names[q]
                if not reads_free:
                    continue
                for at in (values, None) if affine else (values,):  # every direction at once
                    _, stacked = compiled(rows, at, np.eye(k)[:, :, None])
                    n = len(sliced["x"])
                    got, want = np.broadcast_to(stacked, (k, n)), np.broadcast_to(dual.grad, (n, k)).T
                    assert _nan_blind_bits(got) == _nan_blind_bits(want)


def _one_sided_differences(model: binding.BoundModel, theta: np.ndarray, step: float) -> np.ndarray:
    """(2, k) backward and forward differences of the LL; their mean is the central one."""
    ll = kernel.log_likelihood(model, theta).loglik
    out = np.empty((2, model.n_free))
    for i in range(model.n_free):
        h = np.zeros(model.n_free)
        h[i] = step * max(1.0, abs(theta[i]))
        out[0, i] = (ll - kernel.log_likelihood(model, theta - h).loglik) / h[i]
        out[1, i] = (kernel.log_likelihood(model, theta + h).loglik - ll) / h[i]
    return out


@settings(max_examples=300, deadline=None)
@given(exprs=RANDOM_UTILITIES, theta=RANDOM_THETA)
@example(  # ∂/∂b_one is 0, the dual pass's ~1e215 the ulps of ~1e232 terms that cancel
    exprs=[
        Var("x"),
        Var("x"),
        Neg(Div(Param("b_one"), Piecewise("x", (30.0, 60.0), ("b_one", "b_two", "b_one")))),
    ],
    theta=(4.8096683747476666e-234, 0.0, 1.0),
)
@example(  # U(c) = exp(x) − 2 reaches 1e38: the LL does not move over a 1e-5 step in b_one
    exprs=[Var("x"), Param("b_one"), BoxCox(BoxCox(Call1("exp", Var("x")), "lambda_s"), "lambda_s")],
    theta=(0.0, 0.0, 1.0),
)
def test_split_derivatives_match_one_dual_pass_over_everything(xyz_data, exprs, theta):
    """Random affine and non-affine utilities: the design and the utilities' Jacobian
    along ``residual_idx`` give the LL bits, and the gradient and information to rounding, of one dual pass over
    every utility and parameter; where central differences settle, both match them."""
    try:
        model = binding.bind(random_spec(exprs), xyz_data)
    except binding.DomainViolation:
        event("domain violation")
        return
    reference = all_residual(model)
    theta = np.array(theta)
    ll = kernel.log_likelihood(model, theta).loglik
    assert np.float64(ll).tobytes() == np.float64(kernel.log_likelihood(reference, theta).loglik).tobytes()
    (ll_g, grad), (ll_rg, grad_r) = (kernel.loglik_and_gradient(m, theta) for m in (model, reference))
    passes = [information(m, theta) for m in (model, reference)]
    assert ll_g == ll_rg
    if ll_g == -math.inf:
        event("no gradient")
        assert np.isnan(grad).all() and np.isnan(grad_r).all()
        assert all(ll_i == -math.inf and np.isnan(info).all() for ll_i, _, info in passes)
        return
    assert ll_g == ll
    event(f"{len(model.residual_idx)} residual parameters")

    P = probabilities(model, theta).T  # (J, n), as the design
    chosen = model.choice_idx, np.arange(model.n_obs)
    Y = np.zeros_like(P)
    Y[chosen] = 1.0
    scale = _term_scale(model, theta)
    size = np.abs(Y - P) * scale
    rounding = 1e-10 * size.sum(axis=(1, 2))  # Σ (y - P) ∂V/∂θ cannot be closer than this
    assert np.all(np.abs(grad - grad_r) <= rounding)
    # each centred ∂V/∂θ is at most its terms' scale plus their P-weighted mean
    spread = scale + np.einsum("jn,kjn->kn", P, scale)[:, None, :]
    with np.errstate(all="ignore"):
        envelope = np.einsum("jn,kjn,ljn->kl", P, spread, spread)
    (ll_i, grad_i, info), (ll_ri, grad_ri, info_r) = passes
    if -math.inf in (ll_i, ll_ri):
        event("information overflows")
        assert not np.isfinite(envelope).all()
    else:
        assert _bits((ll_i, grad_i, ll_ri, grad_ri)) == _bits((ll_g, grad, ll_rg, grad_r))
        assert np.all(np.abs(info - info_r) <= 1e-10 * envelope)

    with np.errstate(all="ignore"):  # a step out of the domain gives -inf - -inf: not settled
        coarse, (back, ahead) = (_one_sided_differences(model, theta, step) for step in (1e-4, 1e-5))
        fine = (back + ahead) / 2
        scale = np.maximum(np.abs(fine), 1.0)
        # the LL's own rounding over the fine step, which a difference cannot resolve below
        resolution = np.finfo(float).eps * abs(ll) / (1e-5 * np.maximum(1.0, np.abs(theta)))
        settled = (
            np.isfinite(coarse).all(axis=0) & np.isfinite(fine)
            & (np.abs(coarse.mean(axis=0) - fine) <= 1e-6 * scale)
            & (np.abs(ahead - back) <= 1e-3 * scale)  # no kink, as |b| = sqrt(b * b) has at 0
            & (resolution <= 1e-6 * scale)
        )
    event(f"{settled.sum()} of {model.n_free} central differences settled")
    # each ∂V/∂θ is rounded to its envelope, which cancels to far less where b / (b x)
    ulps = 1e-10 * (np.abs(Y - P) * _derivative_envelope(model, theta)).sum(axis=(1, 2))
    for g in (grad, grad_r):
        assert np.all((np.abs(g - fine) <= 1e-5 * scale + ulps)[settled])


def test_subnormal_chosen_probability_keeps_the_loglik_precise(xyz_data):
    """Alternative c's utility is about 741 below the others, so where c is chosen
    its probability is subnormal; the LL must still match log-sum-exp and its
    central differences the exact gradient."""
    model = binding.bind(
        random_spec([Var("y"), Param("b_one"), Neg(BoxCox(Const(38.5), "lambda_s"))]), xyz_data
    )
    theta = np.array([0.0, 0.0, 2.0])
    assert kernel.log_likelihood(model, theta).loglik == pytest.approx(
        log_sum_exp_loglik(model, theta), rel=1e-12
    )
    _, grad = kernel.loglik_and_gradient(model, theta)
    back, ahead = _one_sided_differences(model, theta, 1e-5)
    np.testing.assert_allclose((back + ahead) / 2, grad, rtol=1e-5, atol=1e-6)


def test_start_value_with_underflowing_chosen_probabilities_has_a_finite_loglik(synth_data):
    """At b_time = -2, 37 of synthetic_best's 1000 chosen probabilities underflow to 0
    (log p down to -1072); the LL is still log-sum-exp over the available utilities,
    -210656.8159, and the fit from there reaches the optimum of the default start."""
    from scipy.special import logsumexp

    text = BEST_SPEC.read_text(encoding="utf-8").replace(
        "param b_time generic\n", "param b_time generic start -2\n"
    )
    model = binding.bind(parser.parse_spec(text), synth_data)
    V = np.where(model.avail.T, model.utility_matrix(model.start), -np.inf)
    want = (V[model.choice_idx, np.arange(model.n_obs)] - logsumexp(V, axis=0)).sum()
    assert want == pytest.approx(-210656.8159, abs=1e-4)
    assert kernel.log_likelihood(model, model.start).loglik == pytest.approx(want, rel=1e-9)
    result = bfgs.estimate(model)
    assert result.converged and result.iterations == 13
    assert result.loglik == pytest.approx(-841.8223546137062, rel=1e-12)


# -- estimator ------------------------------------------------------------------


def test_estimate_matches_golden_section(tmp_path):
    data = binary_dataset(tmp_path)
    model = binding.bind(parser.parse_spec(BINARY_SPEC), data)
    result = bfgs.estimate(model)
    assert result.converged

    # brute-force 1-D maximization of the same objective
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = -5.0, 5.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    while hi - lo > 1e-12:
        if kernel.log_likelihood(model, np.array([c])).loglik > kernel.log_likelihood(
            model, np.array([d])
        ).loglik:
            hi, d = d, c
            c = hi - invphi * (hi - lo)
        else:
            lo, c = c, d
            d = lo + invphi * (hi - lo)
    bracket_opt = 0.5 * (lo + hi)
    assert abs(result.estimates[0] - bracket_opt) < 1e-6


def test_estimate_binary_std_error_matches_fisher_information(tmp_path):
    """For U=b*x with two alternatives the information is sum x^2 p (1-p)."""
    data = binary_dataset(tmp_path)
    model = binding.bind(parser.parse_spec(BINARY_SPEC), data)
    result = bfgs.estimate(model)
    xa = data.columns["x_a"]
    xb = data.columns["x_b"]
    dx = xa - xb
    p = 1.0 / (1.0 + np.exp(-result.estimates[0] * dx))
    se = 1.0 / math.sqrt(float((dx**2 * p * (1 - p)).sum()))
    np.testing.assert_allclose(result.std_errors[0], se, rtol=1e-5)


def test_asc_only_model_reproduces_sample_shares(synth_data):
    clone = full_availability_clone(synth_data)
    spec = parser.parse_spec(
        "spec shares\nalt car bus air rail\n"
        "param asc_car fixed 0\nparam asc_bus\nparam asc_air\nparam asc_rail\n"
        "U(car) = asc_car\nU(bus) = asc_bus\nU(air) = asc_air\nU(rail) = asc_rail\n"
    )
    model = binding.bind(spec, clone)
    result = bfgs.estimate(model)
    assert result.converged
    P = probabilities(model, result.estimates)
    fitted = P.mean(axis=0)
    counts = np.bincount(model.choice_idx, minlength=4) / model.n_obs
    np.testing.assert_allclose(fitted, counts, atol=1e-8)


def test_estimation_is_deterministic(best_model):
    a = bfgs.estimate(best_model)
    b = bfgs.estimate(best_model)
    assert a.loglik == b.loglik
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.std_errors, b.std_errors)
    assert a.iterations == b.iterations


def test_max_iterations_reported(best_model, monkeypatch):
    monkeypatch.setattr(bfgs, "MAX_ITERS", 1)
    result = bfgs.estimate(best_model)
    assert not result.converged
    assert result.convergence_reason == "max_iterations"


def test_collinear_model_flagged_not_pd(synth_data):
    spec = parser.parse_spec(
        "spec coll\nalt car bus air rail\n"
        "param asc_car fixed 0\nparam asc_bus\nparam asc_air\nparam asc_rail\n"
        "param b_time generic\nparam b_ivt generic\n"
        "U(car) = asc_car + b_time * time_car + b_ivt * time_car\n"
        "U(bus) = asc_bus + b_time * time_bus + b_ivt * time_bus\n"
        "U(air) = asc_air + b_time * time_air + b_ivt * time_air\n"
        "U(rail) = asc_rail + b_time * time_rail + b_ivt * time_rail\n"
    )
    model = binding.bind(spec, synth_data)
    _, _, info = information(model, model.start)
    assert np.linalg.matrix_rank(info) < model.n_free
    result = bfgs.estimate(model)
    assert not result.hessian_pd
    assert not result.converged


def test_line_search_does_not_stall_below_loglik_rounding(tmp_path, monkeypatch):
    """On this dataset a quasi-Newton fit from an identity start with a plain
    Armijo test reached steps whose gain is below the LL's rounding, rejected
    them and ran to max_iterations; the fit must reach the gradient tolerance."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import gen

    csv_path = tmp_path / "gen35.csv"
    gen.write_csv(gen.generate(2000, 35), csv_path)
    data = ds.load_dataset(csv_path, SYNTH_DICT)
    model = binding.bind(parser.parse_spec(BEST_SPEC.read_text(encoding="utf-8")), data)
    result = bfgs.estimate(model)
    assert result.convergence_reason == "gradient_tolerance"
    assert result.converged


def test_scaling_covariance(best_spec, synth_data):
    """Multiplying cost by 100 rescales its coefficient and nothing else."""
    scaled = dataclasses.replace(
        synth_data,
        columns={
            k: (v * 100.0 if k.startswith("cost_") else v)
            for k, v in synth_data.columns.items()
        },
    )
    base = bfgs.estimate(binding.bind(best_spec, synth_data))
    other = bfgs.estimate(binding.bind(best_spec, scaled))
    assert abs(base.loglik - other.loglik) < 1e-6
    i = base.names.index("b_cost")
    assert abs(other.estimates[i] * 100.0 - base.estimates[i]) < 1e-5
    j = base.names.index("b_time")
    assert abs(other.estimates[j] - base.estimates[j]) < 1e-6


def test_converged_estimate_has_small_gradient(best_model, best_result):
    _, grad = kernel.loglik_and_gradient(best_model, best_result.estimates)
    tol = 1e-6 * max(1.0, abs(best_result.loglik) / best_model.n_obs)
    assert float(np.abs(grad).max()) <= tol


def test_zero_parameter_spec_estimates_vacuously(synth_data, blocking):
    model = binding.bind(parser.parse_spec(ZERO_PARAMETER_SPEC), synth_data)
    result = bfgs.estimate(model)
    assert result.converged
    assert result.n_free == 0
    assert abs(result.loglik - kernel.null_loglik(synth_data)) < 1e-9
