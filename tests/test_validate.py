"""Inclusion labels, their precedence, and the ASC rules."""

from __future__ import annotations

import numpy as np

from logitlab import validate
from logitlab.engine.bfgs import EstimationResult, ParameterEstimate
from logitlab.specdsl import parser

from test_metrics import CORE_DICT


def result_for(spec, estimates, t=10.0, converged=True, reason="gradient_tolerance"):
    names = tuple(p.name for p in spec.free_parameters)
    est = np.asarray([estimates[n] for n in names], dtype=float)
    ts = np.asarray(
        [t[n] if isinstance(t, dict) else t for n in names], dtype=float
    )
    ses = np.abs(est) / np.where(ts != 0, ts, np.nan)
    return EstimationResult(
        parameters=tuple(map(ParameterEstimate, names, est.tolist(), ses.tolist(), ts.tolist())),
        loglik=-900.0,
        null_loglik=-1386.0,
        iterations=25,
        converged=converged,
        convergence_reason=reason if converged else "max_iterations",
        hessian_pd=converged,
    )


GOOD = parser.parse_spec(
    "spec good\nalt car bus\n"
    "param asc_car fixed 0\nparam asc_bus\n"
    "param b_time generic\nparam b_cost generic\n"
    "U(car) = asc_car + b_time * time_car + b_cost * cost_car\n"
    "U(bus) = asc_bus + b_time * time_bus + b_cost * cost_bus\n"
)
GOOD_EST = {"asc_bus": -0.4, "b_time": -0.01, "b_cost": -0.05}


def test_well_behaved_model_included():
    report = validate.check_model(result_for(GOOD, GOOD_EST), GOOD, CORE_DICT)
    assert report.included
    assert report.exclusion == validate.INCLUDED
    assert report.has_asc
    assert report.sign_violations == ()
    assert report.insignificant_core == ()
    assert report.notes == ""


def test_positive_time_coefficient_excludes():
    est = dict(GOOD_EST, b_time=+0.01)
    report = validate.check_model(result_for(GOOD, est), GOOD, CORE_DICT)
    assert report.exclusion == validate.EXCLUDED_POSITIVE_SIGN
    assert [v.parameter for v in report.sign_violations] == ["b_time"]
    assert report.sign_violations[0].estimate == 0.01


def test_sign_violation_does_not_need_significance():
    est = dict(GOOD_EST, b_cost=+0.001)
    ts = {"asc_bus": 10.0, "b_time": 10.0, "b_cost": 0.3}
    report = validate.check_model(result_for(GOOD, est, t=ts), GOOD, CORE_DICT)
    assert report.exclusion == validate.EXCLUDED_POSITIVE_SIGN
    assert [v.parameter for v in report.sign_violations] == ["b_cost"]


def test_insignificant_core_recorded_but_included():
    ts = {"asc_bus": 10.0, "b_time": 1.2, "b_cost": 10.0}
    report = validate.check_model(result_for(GOOD, GOOD_EST, t=ts), GOOD, CORE_DICT)
    assert report.included
    assert report.insignificant_core == ("b_time",)


def test_no_asc_excludes():
    spec = parser.parse_spec(
        "spec bare\nalt car bus\nparam b_time generic\nparam b_cost generic\n"
        "U(car) = b_time * time_car + b_cost * cost_car\n"
        "U(bus) = b_time * time_bus + b_cost * cost_bus\n"
    )
    est = {"b_time": -0.01, "b_cost": -0.05}
    report = validate.check_model(result_for(spec, est), spec, CORE_DICT)
    assert not report.has_asc
    assert report.exclusion == validate.EXCLUDED_NO_ASC


def test_fixed_only_asc_counts_as_missing():
    spec = parser.parse_spec(
        "spec fixedasc\nalt car bus\n"
        "param asc_car fixed 0\nparam asc_bus fixed 0.5\n"
        "param b_time generic\nparam b_cost generic\n"
        "U(car) = asc_car + b_time * time_car + b_cost * cost_car\n"
        "U(bus) = asc_bus + b_time * time_bus + b_cost * cost_bus\n"
    )
    est = {"b_time": -0.01, "b_cost": -0.05}
    report = validate.check_model(result_for(spec, est), spec, CORE_DICT)
    assert not report.has_asc
    assert report.exclusion == validate.EXCLUDED_NO_ASC


def test_full_free_asc_set_included_with_note():
    spec = parser.parse_spec(
        "spec allfree\nalt car bus\n"
        "param asc_car\nparam asc_bus\n"
        "param b_time generic\nparam b_cost generic\n"
        "U(car) = asc_car + b_time * time_car + b_cost * cost_car\n"
        "U(bus) = asc_bus + b_time * time_bus + b_cost * cost_bus\n"
    )
    est = {"asc_car": 0.2, "asc_bus": -0.2, "b_time": -0.01, "b_cost": -0.05}
    report = validate.check_model(result_for(spec, est), spec, CORE_DICT)
    assert report.included
    assert "unidentified_asc" in report.notes


def test_declared_but_unused_asc_does_not_count():
    spec = parser.parse_spec(
        "spec unused\nalt car bus\n"
        "param asc_bus\nparam b_time generic\nparam b_cost generic\n"
        "U(car) = b_time * time_car + b_cost * cost_car\n"
        "U(bus) = b_time * time_bus + b_cost * cost_bus\n"
    )
    est = {"asc_bus": 0.0, "b_time": -0.01, "b_cost": -0.05}
    report = validate.check_model(result_for(spec, est), spec, CORE_DICT)
    assert not report.has_asc
    assert report.exclusion == validate.EXCLUDED_NO_ASC


def test_nonconvergence_beats_positive_sign_and_no_asc():
    spec = parser.parse_spec(
        "spec bad\nalt car bus\nparam b_time generic\nparam b_cost generic\n"
        "U(car) = b_time * time_car + b_cost * cost_car\n"
        "U(bus) = b_time * time_bus + b_cost * cost_bus\n"
    )
    est = {"b_time": +0.01, "b_cost": -0.05}  # sign violation AND no ASC
    report = validate.check_model(
        result_for(spec, est, converged=False), spec, CORE_DICT
    )
    assert report.exclusion == validate.EXCLUDED_NONCONVERGENCE
    assert report.sign_violations  # still reported for diagnostics
    assert "max_iterations" in report.notes
    assert "hessian_pd=False" in report.notes


def test_positive_sign_beats_no_asc():
    spec = parser.parse_spec(
        "spec bad2\nalt car bus\nparam b_time generic\nparam b_cost generic\n"
        "U(car) = b_time * time_car + b_cost * cost_car\n"
        "U(bus) = b_time * time_bus + b_cost * cost_bus\n"
    )
    est = {"b_time": +0.01, "b_cost": -0.05}
    report = validate.check_model(result_for(spec, est), spec, CORE_DICT)
    assert report.exclusion == validate.EXCLUDED_POSITIVE_SIGN


def test_sign_respects_folded_scale():
    # the cost term carries a leading minus, so a positive estimate is
    # the behaviourally correct sign here
    spec = parser.parse_spec(
        "spec folded\nalt car bus\n"
        "param asc_car fixed 0\nparam asc_bus\n"
        "param b_time generic\nparam b_cost generic\n"
        "U(car) = asc_car + b_time * time_car - b_cost * cost_car\n"
        "U(bus) = asc_bus + b_time * time_bus - b_cost * cost_bus\n"
    )
    good = {"asc_bus": -0.4, "b_time": -0.01, "b_cost": +0.05}
    report = validate.check_model(result_for(spec, good), spec, CORE_DICT)
    assert report.included
    bad = dict(good, b_cost=-0.05)
    report = validate.check_model(result_for(spec, bad), spec, CORE_DICT)
    assert report.exclusion == validate.EXCLUDED_POSITIVE_SIGN


def test_violations_deduplicated_across_alternatives():
    # generic b_time appears in both utilities; one violation entry
    est = dict(GOOD_EST, b_time=+0.02)
    report = validate.check_model(result_for(GOOD, est), GOOD, CORE_DICT)
    assert len(report.sign_violations) == 1

