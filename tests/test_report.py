"""Markdown tables and CSV exports over replayed experiment results."""

from __future__ import annotations

import csv
import dataclasses
import io

import pytest

from logitlab import report, runner
from logitlab.llmgate.config import ProviderConfig, experiment

from conftest import FIXTURES

ALPHA = ProviderConfig(name="alpha", model="alpha-large")
BETA = ProviderConfig(name="beta", model="beta-mini")
EPSILON = ProviderConfig(name="epsilon", model="epsilon-xl")


@pytest.fixture(scope="module")
def alpha_exp1(synth_data):
    return runner.run_experiment(1, [ALPHA], synth_data, replay_dir=FIXTURES)


@pytest.fixture(scope="module")
def beta_exp3(synth_data):
    return runner.run_experiment(3, [BETA], synth_data, replay_dir=FIXTURES)


@pytest.fixture(scope="module")
def epsilon_exp5(flipped_data):
    return runner.run_experiment(5, [EPSILON], flipped_data, replay_dir=FIXTURES)


def row_for(table: str, label: str) -> list[str]:
    """Cells of the first row whose model or spec column starts with label."""
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) > 1 and any(c.startswith(label) for c in cells[:2]):
            return cells
    raise AssertionError(f"no row for {label!r} in:\n{table}")


# -- summary table ---------------------------------------------------------------


def test_summary_header_names_the_configuration(alpha_exp1):
    table = report.summary_table(alpha_exp1)
    assert table.startswith(
        "## Experiment 1 (full information, zero_shot, suggest_and_estimate)"
    )


def test_summary_recomputed_numbers_and_bolding(alpha_exp1):
    table = report.summary_table(alpha_exp1)
    best = row_for(table, "s3_business")
    # recomputed from re-estimation, not echoed from the transcript claims
    assert best[2] == "**-841.82**"
    assert best[3] == "**1697.64**"
    assert best[4] == "1732.00"  # recomputed: the transcript's own table said 1731.99
    assert best[5] == "0.183"
    other = row_for(table, "s1_base")
    assert other[2] == "-864.20"
    assert "**" not in other[2]


def test_summary_markers_and_footnotes(beta_exp3):
    table = report.summary_table(beta_exp3)
    assert row_for(table, "s1_generic")[1] == "s1_generic*"
    assert row_for(table, "s2_ivt")[1] == "s2_ivt†"
    assert row_for(table, "s3_asc")[1] == "s3_asc"
    assert report.FOOTNOTES in table
    assert "warning" not in table  # s3_asc is included


def test_summary_sign_violation_marker(epsilon_exp5):
    table = report.summary_table(epsilon_exp5)
    for name in ("s1_base", "s2_access", "s3_interact"):
        assert row_for(table, name)[1] == f"{name}‡"
    assert row_for(table, "s4_minimal")[1] == "s4_minimal*"
    assert "warning: no included specifications" in table


def test_summary_nonconverged_row_keeps_numbers(beta_exp3):
    cells = row_for(report.summary_table(beta_exp3), "s2_ivt")
    assert cells[2] not in ("-", "")  # LL still shown, flagged by the dagger


# -- best-of matrix ----------------------------------------------------------------


def test_best_of_ll_matrix(alpha_exp1, beta_exp3):
    table = report.best_of([alpha_exp1, beta_exp3], metric="ll")
    alpha_row = row_for(table, "Exp. 1")  # header sanity
    assert alpha_row[1] == "Exp. 1"
    cells = row_for(table, "alpha/alpha-large")
    # only exp 1 has alpha entries; best column cites the experiment
    assert cells[1] == "-841.82"
    assert cells[2] == "-"
    assert cells[3] == "-841.82 (exp 1)"
    beta_cells = row_for(table, "beta/beta-mini")
    assert beta_cells[1] == "-"
    # s3_asc is beta's only included spec; the better-fitting s2_ivt
    # failed to converge and must not appear here
    assert beta_cells[2] == "-864.20"
    marginal = row_for(table, "Best model")
    assert marginal[1] == "-841.82 (alpha/alpha-large)"
    assert marginal[2] == "-864.20 (beta/beta-mini)"


def test_best_of_compares_no_best_across_different_data(alpha_exp1):
    """Log-likelihoods fit to different data do not compare: before, the Best
    column picked one experiment's fit over another's whatever their CSVs."""
    other = dataclasses.replace(alpha_exp1, config=experiment(2), dataset_sha256="f" * 64)
    table = report.best_of([alpha_exp1, other], metric="ll")
    assert row_for(table, "alpha/alpha-large") == [
        "alpha/alpha-large", "-841.82", "-841.82", "-",
    ]
    assert row_for(table, "Best model")[1:3] == ["-841.82 (alpha/alpha-large)"] * 2
    assert table.splitlines()[-1] == (
        "No Best across experiments fit to different data:"
        f" exp 1 on dataset {alpha_exp1.dataset_sha256[:12]}; exp 2 on dataset ffffffffffff."
    )
    same_data = dataclasses.replace(other, dataset_sha256=alpha_exp1.dataset_sha256)
    same = report.best_of([alpha_exp1, same_data], metric="ll")
    assert row_for(same, "alpha/alpha-large")[3] == "-841.82 (exp 1)"
    assert "different data" not in same


def test_best_of_aic_direction(alpha_exp1):
    table = report.best_of([alpha_exp1], metric="aic")
    cells = row_for(table, "alpha/alpha-large")
    assert cells[1] == "1697.64"  # smallest AIC, not largest


def test_best_of_excluded_only_model_is_dashes(epsilon_exp5):
    table = report.best_of([epsilon_exp5], metric="ll")
    cells = row_for(table, "epsilon/epsilon-xl")
    assert cells[1] == "-"
    assert cells[2] == "-"


def test_best_of_unknown_metric():
    with pytest.raises(ValueError):
        report.best_of([], metric="rho")


# -- structural profile --------------------------------------------------------------


def test_llm_profile_aggregates(alpha_exp1):
    (profile,) = report.llm_profile([alpha_exp1])
    assert (profile.provider, profile.model) == ("alpha", "alpha-large")
    assert profile.avg_n_specs == 3.0
    assert profile.pct_converged == 100.0
    # s1: 5 params, s2: 6, s3: 7
    assert profile.avg_n_params == pytest.approx(6.0)
    assert profile.pct_asc_included == 100.0
    assert profile.avg_interactions == pytest.approx(1 / 3)
    assert profile.pct_generic + profile.pct_altspecific == pytest.approx(100.0)


def test_llm_profile_counts_failed_runs(beta_exp3):
    (profile,) = report.llm_profile([beta_exp3])
    assert profile.avg_n_specs == 3.0
    assert profile.pct_converged == pytest.approx(100.0 * 2 / 3)


def test_profile_table_renders_all_columns(alpha_exp1, beta_exp3):
    table = report.profile_table(report.llm_profile([alpha_exp1, beta_exp3]))
    cells = row_for(table, "alpha/alpha-large")
    assert cells == [
        "alpha/alpha-large",
        "3.00",
        "100%",
        "10.33",
        "6.00",
        "100%",
        "0%",
        "100%",
        "0.33",
        "0.00",
        "0.33",
    ]
    assert row_for(table, "beta/beta-mini")[2] == "67%"


# -- distribution export ---------------------------------------------------------------


def test_export_full_precision_converged_only(alpha_exp1, beta_exp3):
    text = report.distribution_export([alpha_exp1, beta_exp3], metric="ll")
    rows = list(csv.DictReader(io.StringIO(text)))
    # 3 alpha + 2 converged beta (the collinear one is dropped)
    assert len(rows) == 5
    assert {r["model"] for r in rows} == {"alpha/alpha-large", "beta/beta-mini"}
    assert all(r["spec"] != "s2_ivt" for r in rows)
    best = next(r for r in rows if r["spec"] == "s3_business")
    assert abs(float(best["value"]) - (-841.822354614)) < 1e-6  # not rounded


def test_export_vot_carries_reliability(alpha_exp1):
    text = report.distribution_export([alpha_exp1], metric="vot")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows and set(rows[0]) == {"model", "experiment", "spec", "value", "reliable"}
    assert all(r["reliable"] in ("true", "false") for r in rows)


def test_export_unknown_metric():
    with pytest.raises(ValueError):
        report.distribution_export([], metric="rho2")
