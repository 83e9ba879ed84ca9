"""Information criteria, rho-squared and the value-of-time ratio."""

from __future__ import annotations

import math

import numpy as np
import pytest

from logitlab import metrics
from logitlab.dataset import parse_dictionary
from logitlab.engine import kernel
from logitlab.engine.bfgs import EstimationResult, ParameterEstimate
from logitlab.specdsl import parser

from conftest import SYNTH_DICT

DICT = parse_dictionary(SYNTH_DICT.read_text(encoding="utf-8"))


def fake_result(names, estimates, t=10.0):
    """EstimationResult with large t-ratios unless overridden."""
    est = np.asarray(estimates, dtype=float)
    ts = np.full(len(names), t, dtype=float) if np.isscalar(t) else np.asarray(t)
    ses = np.abs(est) / np.where(ts != 0, ts, np.nan)
    return EstimationResult(
        parameters=tuple(map(ParameterEstimate, names, est.tolist(), ses.tolist(), ts.tolist())),
        loglik=-1000.0,
        null_loglik=-1386.0,
        iterations=10,
        converged=True,
        convergence_reason="gradient_tolerance",
        hessian_pd=True,
    )


# -- information criteria ------------------------------------------------------


@pytest.mark.parametrize(
    "ll,k,n,aic,bic",
    [
        (-981.805, 7, 1000, 1977.61, 2011.96),
        (-1031.815, 5, 1000, 2073.63, 2098.17),
    ],
)
def test_information_criteria_reference_values(ll, k, n, aic, bic):
    fit = metrics.information_criteria(ll, k, n)
    assert round(fit.aic, 2) == aic
    assert round(fit.bic, 2) == bic


def test_information_criteria_identities():
    fit = metrics.information_criteria(-500.0, 3, 250)
    assert fit.aic == 2 * 3 - 2 * (-500.0)
    assert fit.bic == 3 * math.log(250) - 2 * (-500.0)
    assert fit.bic > fit.aic  # ln(250) > 2


def test_fit_of_reference_model(best_result):
    fit = metrics.information_criteria(best_result.loglik, best_result.n_free, 1000)
    assert abs(best_result.loglik - (-841.822354614)) < 1e-6
    assert abs(fit.aic - 1697.644709227) < 2e-6
    assert abs(fit.bic - 1731.998996180) < 2e-6


def test_rho_squared_of_reference_model(best_result, synth_data):
    null = kernel.null_loglik(synth_data)
    assert abs(null - (-1065.687242818)) < 1e-6
    rho = metrics.rho_squared(best_result.loglik, null)
    assert abs(rho - 0.210066218) < 1e-6
    assert metrics.rho_squared(null, null) == 0.0


# -- core terms ----------------------------------------------------------------

CORE_SPEC = """spec core
alt car bus
param asc_bus
param b_time generic
param b_cost generic
param b_bustime
param b_extra
param b_fixed fixed -0.2
param b_inter generic
param lambda_c

U(car) = b_time * time_car - b_cost * cost_car / 100 \\
         + b_inter * time_car * business + b_fixed * cost_car \\
         + lambda_c * log(cost_car)
U(bus) = asc_bus + 2 * b_time * time_bus + b_bustime * time_bus \\
         + b_extra * access_bus + b_cost * cost_bus
"""

CORE_DICT = parse_dictionary(
    "| name | kind | alternative | units | description | quantity |\n"
    "| --- | --- | --- | --- | --- | --- |\n"
    "| av_car | availability | car | 0/1 | a | |\n"
    "| av_bus | availability | bus | 0/1 | a | |\n"
    "| choice | choice |  |  | chosen | |\n"
    "| time_car | attribute | car | minutes | door-to-door time | time |\n"
    "| time_bus | attribute | bus | minutes | door-to-door time | time |\n"
    "| cost_car | attribute | car | pounds | trip cost | cost |\n"
    "| cost_bus | attribute | bus | pounds | trip cost | cost |\n"
    "| access_bus | attribute | bus | minutes | walk to stop | other |\n"
    "| business | covariate |  | 0/1 | work trip | |\n"
)


def test_core_terms_scales_and_filters():
    spec = parser.parse_spec(CORE_SPEC)
    terms = metrics.core_terms(spec, CORE_DICT)
    as_tuples = {(t.parameter, t.alternative): (t.quantity, t.scale) for t in terms}
    # division by a constant and a leading minus fold into the scale
    assert as_tuples[("b_cost", "car")] == ("cost", -0.01)
    assert as_tuples[("b_time", "car")] == ("time", 1.0)
    # numeric factor on the left folds in too
    assert as_tuples[("b_time", "bus")] == ("time", 2.0)
    assert as_tuples[("b_bustime", "bus")] == ("time", 1.0)
    assert as_tuples[("b_cost", "bus")] == ("cost", 1.0)
    # excluded: interaction, fixed parameter, transformed term, untagged attribute
    for name in ("b_inter", "b_fixed", "lambda_c", "b_extra"):
        assert all(t.parameter != name for t in terms)


def test_value_of_time_sums_shared_alternative_terms():
    spec = parser.parse_spec(CORE_SPEC)
    result = fake_result(
        ["asc_bus", "b_time", "b_cost", "b_bustime", "b_extra", "b_inter", "lambda_c"],
        [0.1, -0.01, 5.0, -0.02, -0.1, 0.0, 0.0],
    )
    vot = metrics.value_of_time(result, spec, CORE_DICT)
    # car: time -0.01, cost 5.0 * -0.01 = -0.05 -> 0.2
    assert abs(vot.per_alternative["car"] - 0.2) < 1e-12
    # bus: time 2*(-0.01) + (-0.02) = -0.04, cost 5.0 -> -0.008
    assert abs(vot.per_alternative["bus"] - (-0.008)) < 1e-12
    assert abs(vot.value - (0.2 - 0.008) / 2) < 1e-12


def test_value_of_time_reference_model(best_result, best_spec):
    vot = metrics.value_of_time(best_result, best_spec, DICT)
    assert abs(vot.value - 0.183041594) < 1e-6
    assert set(vot.per_alternative) == {"car", "bus", "air", "rail"}
    for v in vot.per_alternative.values():
        assert abs(v - 0.183042) < 1e-6  # generic coefficients: same ratio everywhere
    assert vot.reliable
    assert "interactions excluded" in vot.notes


def test_value_of_time_reliability_needs_significant_ts(best_spec):
    names = [p.name for p in best_spec.free_parameters]
    est = [-0.4, -0.8, -0.3, -0.01, -0.05, -0.012, -0.005]
    ts = [10.0] * len(names)
    ts[names.index("b_cost")] = 1.5  # below the 1.96 line
    vot = metrics.value_of_time(fake_result(names, est, t=ts), best_spec, DICT)
    assert not vot.reliable
    assert "b_cost" in vot.notes
    # insignificance flags the ratio but does not change its value
    assert abs(vot.value - (-0.01 / -0.05)) < 1e-12


def test_value_of_time_missing_cost_side():
    spec = parser.parse_spec(
        "spec t\nalt car bus\nparam b_time generic\n"
        "U(car) = b_time * time_car\nU(bus) = b_time * time_bus\n"
    )
    result = fake_result(["b_time"], [-0.01])
    with pytest.raises(metrics.MissingCoefficient):
        metrics.value_of_time(result, spec, CORE_DICT)


def test_value_of_time_skips_alternatives_missing_one_side():
    spec = parser.parse_spec(
        "spec t\nalt car bus\nparam b_time generic\nparam b_cc\n"
        "U(car) = b_time * time_car + b_cc * cost_car\n"
        "U(bus) = b_time * time_bus\n"
    )
    result = fake_result(["b_time", "b_cc"], [-0.01, -0.04])
    vot = metrics.value_of_time(result, spec, CORE_DICT)
    assert list(vot.per_alternative) == ["car"]
    assert abs(vot.value - 0.25) < 1e-12


def test_value_of_time_zero_cost_coefficient_skipped():
    spec = parser.parse_spec(
        "spec t\nalt car bus\nparam b_time generic\nparam b_cc\n"
        "U(car) = b_time * time_car + b_cc * cost_car\n"
        "U(bus) = b_time * time_bus\n"
    )
    result = fake_result(["b_time", "b_cc"], [-0.01, 0.0])
    with pytest.raises(metrics.MissingCoefficient):
        metrics.value_of_time(result, spec, CORE_DICT)
