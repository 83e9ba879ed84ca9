"""Self-tests of the benchmark's generator and independent log-likelihood."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src"), str(BENCH.parent / "tools")]

import fitjob  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import oracle_mnl  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from logitlab import dataset as ds  # noqa: E402
from logitlab.engine import bfgs, kernel  # noqa: E402
from logitlab.specdsl import binding, parser  # noqa: E402

GOLDEN_LL = -841.822354614
BEST_SPEC = BENCH.parent / "data/specs/synthetic_best.dcm"


@pytest.fixture(scope="module")
def shipped():
    return ds.load_dataset(gen.SHIPPED_CSV, gen.SHIPPED_DICT), oracle.read_columns(gen.SHIPPED_CSV)


def _bind(spec_path: Path, data: ds.Dataset) -> binding.BoundModel:
    return binding.bind(parser.parse_spec(spec_path.read_text(encoding="utf-8")), data)


def test_independent_ll_reproduces_golden_value_at_engine_estimates(shipped):
    data, cols = shipped
    model = _bind(BEST_SPEC, data)
    assert model.free_names == oracle.BEST_FREE
    est = bfgs.estimate(model)
    ll, grad = oracle.best_ll_grad(est.estimates, cols)
    assert ll == pytest.approx(GOLDEN_LL, abs=1e-6)
    assert float(np.abs(grad).max()) < 1e-5
    reference = -oracle_mnl.negll(est.estimates, *oracle_mnl.load(str(gen.SHIPPED_CSV)))
    assert ll == pytest.approx(reference, rel=1e-12)


def test_independent_ll_and_gradient_match_engine_off_the_optimum(shipped):
    data, cols = shipped
    model = _bind(BEST_SPEC, data)
    names, ll_grad = oracle.ORACLES[model.spec.name]
    assert model.free_names == names
    rng = np.random.default_rng(3)
    for _ in range(5):
        theta = rng.normal(0.0, 0.02, len(names))
        ll, grad = ll_grad(theta, cols)
        ll_engine, grad_engine = kernel.loglik_and_gradient(model, theta)
        assert ll == pytest.approx(ll_engine, rel=1e-12)
        np.testing.assert_allclose(grad, grad_engine, rtol=1e-9, atol=1e-9 * np.abs(grad).max())


def test_generator_is_deterministic_for_a_fixed_seed():
    a, b, other = gen.generate(2000, 7), gen.generate(2000, 7), gen.generate(2000, 8)
    assert a.keys() == b.keys()
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert not np.array_equal(a["cost_rail"], other["cost_rail"])


def test_generator_produces_no_duplicate_rows():
    cols = gen.generate(20_000, 11)
    rows = set(zip(*(cols[name].tolist() for name in gen.dictionary_columns())))
    assert len(rows) == 20_000


def test_generated_csv_loads_and_reads_back_exactly(tmp_path):
    cols = gen.generate(1000, [5, 0, 1])
    path = tmp_path / "gen.csv"
    gen.write_csv(cols, path)
    data = ds.load_dataset(path, gen.SHIPPED_DICT)
    assert data.n_obs == 1000
    back = oracle.read_columns(path)
    assert back.keys() == cols.keys()
    assert all(np.array_equal(back[k], cols[k]) for k in cols)


def test_tracer_sees_every_fit_layer_and_counts_repeat():
    fits = [(str(gen.SHIPPED_CSV), str(BEST_SPEC))]
    units = run.declared_units(trace=1)
    counts = []
    for _ in range(2):
        with spans.Tracer() as tracer:
            (result,) = fitjob.run_fits(str(gen.SHIPPED_DICT), fits, tracer)
        calls = spans.layer_calls(tracer)
        assert all(calls[layer] > 0 for layer in run.FIT_LAYERS), calls
        m = spans.layer_metrics(tracer)
        assert m["engine.bfgs.iterations"] == result["iterations"]
        assert m["engine.bfgs.hessian.calls"] == 2 * len(oracle.BEST_FREE)
        counts.append({k: v for k, v in m.items() if units[k] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["engine.kernel.log_likelihood.calls"] > 0
    assert bfgs.log_likelihood is kernel.log_likelihood  # wrappers removed on exit
