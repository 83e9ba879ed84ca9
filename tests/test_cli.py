"""Command-line surface: happy paths, error mapping, file outputs."""

from __future__ import annotations

import copy
import dataclasses
import functools
import importlib
import json
import math
import operator
import pkgutil
import re
import shutil

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logitlab
from logitlab import LogitlabError
from logitlab import runner as runner_mod
from logitlab.cli import main
from logitlab.engine import bfgs
from logitlab.engine.result import EstimationResult, ParameterEstimate
from logitlab.llmgate import client
from logitlab.llmgate.config import ExperimentConfig, ProviderConfig
from logitlab.llmgate.extract import Claim
from logitlab.metrics import FitStats, VotEstimate
from logitlab.specdsl.analysis import SpecStats
from logitlab.specdsl.parser import parse_spec
from logitlab.validate import ValidationReport

from conftest import BEST_SPEC, BOXCOX_SPEC, FIXTURES, SYNTH_CSV, SYNTH_DICT, fresh_python
from test_runner import live_beta

runner = CliRunner()

CSV = str(SYNTH_CSV)
DICT = str(SYNTH_DICT)
SPEC = str(BEST_SPEC)
BEST_FREE = ["asc_bus", "asc_air", "asc_rail", "b_time", "b_cost", "b_access", "b_time_business"]


def invoke(*args):
    return runner.invoke(main, [str(a) for a in args])


# -- dataset ---------------------------------------------------------------


def test_dataset_validate_ok():
    res = invoke("dataset", "validate", CSV, DICT)
    assert res.exit_code == 0
    assert res.stdout == "ok: 1000 observations, 4 alternatives\n"


def _bad_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("ID,av_car\n1,1\n", encoding="utf-8")
    return ("dataset", "validate", bad, DICT), (
        "MissingColumn: dictionary column 'av_bus' not found in bad.csv"
    )


def _unknown_variable(tmp_path):
    spec = tmp_path / "unknown.dcm"
    spec.write_text(
        "spec unknown\nalt car bus air rail\nparam b_t generic\n"
        "U(car) = b_t * zeppelin\nU(bus) = b_t * time_bus\n"
        "U(air) = b_t * time_air\nU(rail) = b_t * time_rail\n",
        encoding="utf-8",
    )
    return ("spec", "check", spec, "--data", CSV, "--dict", DICT), (
        "UnknownVariable: utility of 'car' references unknown variable 'zeppelin'"
    )


def _missing_alternative(tmp_path):
    spec = tmp_path / "tram.dcm"
    spec.write_text(
        "spec tram\nalt car tram\nparam b_t\nU(car) = b_t * time_car\nU(tram) = 0\n", encoding="utf-8"
    )
    return ("estimate", "--spec", spec, "--data", CSV, "--dict", DICT), (
        "MissingAlternative: spec defines utility for 'tram', not in dataset"
    )


def _runs_without_records(tmp_path):
    doc = tmp_path / "exp1/results.json"
    doc.parent.mkdir()
    doc.write_text('{"config": {}}', encoding="utf-8")
    return ("report", "summary", "--runs", tmp_path), f"ValueError: {doc} has no 'records'"


def _out_under_a_missing_directory(tmp_path):
    out = tmp_path / "missing/x.json"
    return ("estimate", "--spec", SPEC, "--data", CSV, "--dict", DICT, "--out", out), (
        f"FileNotFoundError: [Errno 2] No such file or directory: '{out}'"
    )


@pytest.mark.parametrize("failing_call", [
    _bad_csv, _unknown_variable, _missing_alternative, _runs_without_records,
    _out_under_a_missing_directory,
])
def test_dataset_validate_failure_is_clean(tmp_path, failing_call):
    """One domain error per command group ends in one line, not a traceback."""
    args, message = failing_call(tmp_path)
    res = invoke(*args)
    assert res.exit_code == 1
    assert res.stderr.splitlines()[0] == f"Error: {message}"
    assert "Traceback" not in res.output


def test_every_exception_logitlab_defines_is_a_logitlab_error():
    """The boundary catches LogitlabError, so a class outside it would end in a traceback."""
    defined = [
        obj
        for info in pkgutil.walk_packages(logitlab.__path__, "logitlab.")
        for obj in vars(importlib.import_module(info.name)).values()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == info.name
    ]
    assert {"DatasetError", "SpecDslError", "FixtureMissing", "RunError"} <= {c.__name__ for c in defined}
    assert [c for c in defined if not issubclass(c, LogitlabError)] == []


def test_dataset_describe_stdout_and_file(tmp_path):
    res = invoke("dataset", "describe", CSV, DICT)
    assert res.exit_code == 0
    assert "observations: 1000" in res.stdout
    out = tmp_path / "desc.md"
    res = invoke("dataset", "describe", CSV, DICT, "--out", out)
    assert res.exit_code == 0
    assert out.read_text(encoding="utf-8").startswith("# ")


# -- spec ---------------------------------------------------------------------


def test_spec_check_reports_structure():
    res = invoke("spec", "check", SPEC, "--data", CSV, "--dict", DICT)
    assert res.exit_code == 0
    assert "ok: spec 'synthetic_best' binds to 1000 observations" in res.stdout
    assert "params: 7 free" in res.stdout
    assert "interactions: 1" in res.stdout


def test_spec_check_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.dcm"
    bad.write_text("spec broken\nalt car bus\nU(car) = b_x * time_car\nU(bus) = 0\n")
    res = invoke("spec", "check", bad, "--data", CSV, "--dict", DICT)
    assert res.exit_code == 1
    assert "b_x" in res.stderr
    assert "Traceback" not in res.output


def test_spec_check_rejects_too_deep_expression(tmp_path):
    deep = tmp_path / "deep.dcm"
    deep.write_text(
        "spec deep\nalt car bus air rail\nparam b_t generic\n"
        f"U(car) = {' + '.join(['b_t * time_car'] * 1000)}\nU(bus) = 0\nU(air) = 0\nU(rail) = 0\n",
        encoding="utf-8",
    )
    res = invoke("spec", "check", deep, "--data", CSV, "--dict", DICT)
    assert res.exit_code == 1
    assert res.stderr == "Error: DslSyntaxError: line 4: expression nests deeper than 100 levels\n"
    assert "Traceback" not in res.output


# -- estimate / metrics / validate ----------------------------------------------


@pytest.fixture(scope="module")
def results_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("results") / "best.json"
    res = invoke("estimate", "--spec", SPEC, "--data", CSV, "--dict", DICT, "--out", out)
    assert res.exit_code == 0, res.output
    return out


def test_estimate_stdout_and_results_doc(results_file):
    doc = json.loads(results_file.read_text(encoding="utf-8"))
    assert doc["spec_name"] == "synthetic_best"
    assert doc["n_obs"] == 1000
    assert doc["estimation"]["converged"] is True
    assert abs(doc["estimation"]["loglik"] - (-841.822354614)) < 1e-6
    assert [p["name"] for p in doc["estimation"]["parameters"]] == BEST_FREE
    assert abs(doc["fit"]["aic"] - 1697.644709227) < 1e-5
    assert doc["spec_text"].startswith("spec synthetic_best\n")


def test_estimate_prints_table():
    res = invoke("estimate", "--spec", SPEC, "--data", CSV, "--dict", DICT)
    assert res.exit_code == 0
    assert "converged=true (gradient_tolerance)" in res.stdout
    assert "LL=-841.8224" in res.stdout
    assert "b_cost" in res.stdout
    assert "classical t -6.286" in res.stdout


def test_metrics_command(results_file):
    res = invoke("metrics", "--results", results_file, "--dict", DICT)
    assert res.exit_code == 0
    assert "LL=-841.8224" in res.stdout
    assert "rho-squared=0.2101" in res.stdout
    assert "value of time=0.1830 reliable=true" in res.stdout


def test_metrics_without_cost_side(tmp_path):
    spec = tmp_path / "timeonly.dcm"
    spec.write_text(
        "spec timeonly\nalt car bus air rail\n"
        "param asc_car fixed 0\nparam asc_bus\nparam asc_air\nparam asc_rail\n"
        "param b_time generic\n"
        "U(car) = asc_car + b_time * time_car\n"
        "U(bus) = asc_bus + b_time * time_bus\n"
        "U(air) = asc_air + b_time * time_air\n"
        "U(rail) = asc_rail + b_time * time_rail\n",
        encoding="utf-8",
    )
    out = tmp_path / "timeonly.json"
    res = invoke("estimate", "--spec", spec, "--data", CSV, "--dict", DICT, "--out", out)
    assert res.exit_code == 0
    res = invoke("metrics", "--results", out, "--dict", DICT)
    assert res.exit_code == 0
    assert "value of time: n/a" in res.stdout


def test_validate_command(results_file):
    res = invoke("validate", "--results", results_file, "--dict", DICT)
    assert res.exit_code == 0
    assert "exclusion: included" in res.stdout
    assert "has_asc=true converged=true" in res.stdout


def test_validate_and_metrics_take_a_division_by_a_literal_zero(tmp_path):
    """Before: the main-effect scan divided 1 by the divisor, and both commands
    ended in a ZeroDivisionError traceback."""
    spec = tmp_path / "zero.dcm"
    text = BEST_SPEC.read_text(encoding="utf-8").replace("b_time * time_car +", "b_time * time_car / 0 +")
    spec.write_text(text, encoding="utf-8")
    out = tmp_path / "zero.json"
    res = invoke("estimate", "--spec", spec, "--data", CSV, "--dict", DICT, "--out", out)
    assert res.exit_code == 0 and "converged=false (non_finite)" in res.stdout
    res = invoke("validate", "--results", out, "--dict", DICT)
    assert res.exit_code == 0
    assert "exclusion: excluded_nonconvergence" in res.stdout
    res = invoke("metrics", "--results", out, "--dict", DICT)
    assert res.exit_code == 0
    assert "value of time: n/a" in res.stdout  # the fit stopped at b_cost = 0


def test_metrics_and_validate_judge_the_spec_they_were_estimated_from(tmp_path):
    """Both commands read the spec from the results file.  Before, they took any
    --spec: given synthetic_best's, a boxcox_piecewise fit printed a value of time
    and an insignificant b_cost, though its b_cost multiplies a Box-Cox term."""
    out = tmp_path / "boxcox.json"
    res = invoke("estimate", "--spec", BOXCOX_SPEC, "--data", CSV, "--dict", DICT, "--out", out)
    assert res.exit_code == 0, res.output
    res = invoke("metrics", "--results", out, "--dict", DICT)
    assert res.exit_code == 0, res.output
    assert "value of time: n/a" in res.stdout
    res = invoke("validate", "--results", out, "--dict", DICT)
    assert res.exit_code == 0, res.output
    assert "insignificant: b_cost" not in res.stdout
    for command in ("metrics", "validate"):
        res = invoke(command, "--results", out, "--spec", SPEC, "--dict", DICT)
        assert res.exit_code == 2
        assert "No such option '--spec'" in res.stderr


def test_estimate_respects_max_iters(monkeypatch):
    monkeypatch.setattr(bfgs, "MAX_ITERS", 1)
    res = invoke("estimate", "--spec", SPEC, "--data", CSV, "--dict", DICT)
    assert res.exit_code == 0
    assert "converged=false (max_iterations)" in res.stdout


# -- suggest ---------------------------------------------------------------------


def test_suggest_replay_writes_spec_files(tmp_path, synth_data):
    out = tmp_path / "specs"
    res = invoke(
        "suggest", "--experiment", 1, "--provider", "alpha", "--model", "alpha-large",
        "--replay", FIXTURES, "--data", CSV, "--dict", DICT, "--out", out,
    )
    assert res.exit_code == 0, res.output
    assert res.stdout.count("spec: ") == 3
    assert res.stdout.count("claim: ") == 3
    files = sorted(p.name for p in out.iterdir())
    assert files == ["s1_base.dcm", "s2_access.dcm", "s3_business.dcm"]
    text = (out / "s3_business.dcm").read_text(encoding="utf-8")
    # provenance for the reader, as plain comments the parser skips
    assert text.startswith("spec s3_business\n# model: alpha-large\n# provider: alpha\nalt ")
    run = runner_mod.run_experiment(1, [ProviderConfig("alpha", "alpha-large")], synth_data, replay_dir=FIXTURES)
    for record in run.records:
        assert parse_spec((out / f"{record.spec_name}.dcm").read_text(encoding="utf-8")) == record.spec


def test_suggest_never_writes_outside_out(tmp_path):
    """A spec name is an identifier, so a response naming a spec ``../../escaped``
    loses that block and cannot make suggest write above ``--out``."""
    fixture = tmp_path / "replay/alpha/alpha-large/exp1.json"
    fixture.parent.mkdir(parents=True)
    doc = json.loads((FIXTURES / "alpha/alpha-large/exp1.json").read_text(encoding="utf-8"))
    assert "spec s1_base\n" in doc["response_text"]
    doc["response_text"] = doc["response_text"].replace("spec s1_base\n", "spec ../../escaped\n")
    fixture.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "trav/out/specs"
    res = invoke(
        "suggest", "--experiment", 1, "--provider", "alpha", "--model", "alpha-large",
        "--replay", tmp_path / "replay", "--data", CSV, "--dict", DICT, "--out", out,
    )
    assert res.exit_code == 0, res.output
    assert "diagnostic: spec block 1 rejected: " in res.stderr
    assert "invalid spec name '../../escaped'" in res.stderr
    assert sorted(p.name for p in out.iterdir()) == ["s2_access.dcm", "s3_business.dcm"]
    assert sorted(str(p.relative_to(tmp_path)) for p in (tmp_path / "trav").rglob("*.dcm")) == [
        "trav/out/specs/s2_access.dcm", "trav/out/specs/s3_business.dcm"
    ]


def test_suggest_replays_its_live_transcripts(monkeypatch, tmp_path):
    """``suggest --transcripts T`` keeps the live answer where ``--replay T`` reads it."""
    beta, _ = live_beta(monkeypatch, model="org/beta-mini")
    outputs = []
    for source, name in (("--transcripts", "live"), ("--replay", "replayed")):
        out = tmp_path / name
        res = invoke(
            "suggest", "--experiment", 3, "--provider", beta.name, "--model", beta.model,
            source, tmp_path / "transcripts", "--data", CSV, "--dict", DICT, "--out", out,
        )
        assert res.exit_code == 0, res.output
        dcm = {p.name: p.read_bytes() for p in out.iterdir()}
        outputs.append((res.stdout.replace(str(out), "<out>"), dcm))
    assert len(outputs[0][1]) == 3
    assert outputs[0] == outputs[1]


def test_suggest_full_information_needs_data():
    res = invoke(
        "suggest", "--experiment", 1, "--provider", "alpha", "--model", "alpha-large",
        "--replay", FIXTURES,
    )
    assert res.exit_code == 2
    assert "Missing option '--data'" in res.stderr


def test_suggest_live_without_key_fails_cleanly(monkeypatch):
    monkeypatch.delenv("NOPROV_API_KEY", raising=False)
    res = invoke(
        "suggest", "--experiment", 5, "--provider", "noprov", "--model", "m",
        "--data", CSV, "--dict", DICT,
    )
    assert res.exit_code == 1
    assert "AuthError" in res.stderr and "NOPROV_API_KEY" in res.stderr


# -- run + report -----------------------------------------------------------------


@pytest.fixture(scope="module")
def runs_dir(tmp_path_factory):
    runs = tmp_path_factory.mktemp("runs")
    for exp, providers in ((1, "alpha,delta:delta-pro"), (3, "beta")):
        res = invoke(
            "run", "--experiment", exp, "--providers", providers,
            "--data", CSV, "--dict", DICT, "--replay", FIXTURES, "--out", runs,
        )
        assert res.exit_code == 0, res.output
    return runs


def test_run_discovers_models_and_persists(runs_dir):
    assert sorted(p.name for p in (runs_dir / "exp1").iterdir()) == ["results.json"]
    records = json.loads((runs_dir / "exp1/results.json").read_text(encoding="utf-8"))["records"]
    assert sorted({(r["provider"], r["model"]) for r in records}) == [
        ("alpha", "alpha-large"), ("delta", "delta-pro"),
    ]
    assert (runs_dir / "exp3/results.json").is_file()


def test_run_summary_line(tmp_path):
    res = invoke(
        "run", "--experiment", 1, "--providers", "alpha:alpha-large",
        "--data", CSV, "--dict", DICT, "--replay", FIXTURES, "--out", tmp_path,
    )
    assert res.exit_code == 0
    assert "experiment 1: 3 spec(s), 3 included" in res.stdout


def test_run_replays_a_live_run_by_bare_provider(monkeypatch, tmp_path):
    """Record once, replay forever: ``run --out A`` live, then ``--replay A/transcripts``
    with the bare provider name, writes the same results document."""
    live_beta(monkeypatch, model="org/beta-mini")
    for providers, source in (("beta:org/beta-mini", ()), ("beta", ("--replay", tmp_path / "A/transcripts"))):
        out = tmp_path / ("B" if source else "A")
        res = invoke(
            "run", "--experiment", 3, "--providers", providers,
            "--data", CSV, "--dict", DICT, *source, "--out", out,
        )
        assert res.exit_code == 0, res.output
    assert (tmp_path / "B/exp3/results.json").read_bytes() == (
        tmp_path / "A/exp3/results.json"
    ).read_bytes()
    assert not (tmp_path / "B/transcripts").exists()


def test_run_bare_provider_finds_nested_models(tmp_path):
    """A model named ``org/large`` is recorded two directories deep.  Before, a bare
    provider found only ``org`` and the run ended in "fixture missing"; a model
    recorded only for another experiment still ends in that diagnostic."""
    recorded = client.load_fixture(FIXTURES, "alpha", "alpha-large", 1)
    client.write_fixture(dataclasses.replace(recorded, model="org/large"), tmp_path / "fx", 1)
    client.write_fixture(dataclasses.replace(recorded, model="org/other"), tmp_path / "fx", 3)
    res = invoke(
        "run", "--experiment", 1, "--providers", "alpha",
        "--data", CSV, "--dict", DICT, "--replay", tmp_path / "fx", "--out", tmp_path / "runs",
    )
    assert res.exit_code == 0, res.output
    assert "experiment 1: 3 spec(s), 3 included" in res.stdout
    assert "diagnostic: alpha/org/other: fixture missing" in res.stderr
    records = json.loads((tmp_path / "runs/exp1/results.json").read_text(encoding="utf-8"))["records"]
    assert {r["model"] for r in records} == {"org/large"}


def test_run_bare_provider_requires_replay():
    res = invoke(
        "run", "--experiment", 1, "--providers", "alpha",
        "--data", CSV, "--dict", DICT,
    )
    assert res.exit_code == 1
    assert "needs a model" in res.stderr


def test_run_unknown_provider_in_replay(tmp_path):
    res = invoke(
        "run", "--experiment", 1, "--providers", "ghost",
        "--data", CSV, "--dict", DICT, "--replay", FIXTURES, "--out", tmp_path,
    )
    assert res.exit_code == 1
    assert "FixtureMissing" in res.stderr


@pytest.mark.parametrize("providers", ["alpha:alpha-large,alpha:alpha-large", "alpha,alpha:alpha-large"])
def test_run_refuses_a_model_given_twice(tmp_path, providers):
    """Before, both lists ran alpha-large twice and counted its 3 specs as 6."""
    res = invoke(
        "run", "--experiment", 1, "--providers", providers,
        "--data", CSV, "--dict", DICT, "--replay", FIXTURES, "--out", tmp_path,
    )
    assert res.exit_code == 1
    assert res.stderr == "Error: RunError: provider alpha:alpha-large is given more than once\n"
    assert res.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (("run", "--experiment", 1, "--providers", "../fixtures/alpha:alpha-large"),
     "provider name '../fixtures/alpha' is not an identifier"),
    (("run", "--experiment", 1, "--providers", "../fixtures/alpha"),
     "provider name '../fixtures/alpha' is not an identifier"),
    (("run", "--experiment", 1, "--providers", "alpha:../alpha/alpha-large"),
     "model name '../alpha/alpha-large' is not a relative path of named segments"),
    (("suggest", "--experiment", 1, "--provider", "../fixtures/alpha", "--model", "alpha-large"),
     "provider name '../fixtures/alpha' is not an identifier"),
], ids=["run-provider", "run-bare_provider", "run-model", "suggest-provider"])
def test_provider_and_model_names_stay_inside_out_and_replay(tmp_path, args, message):
    """A provider and model name become a path under --replay and, for a live run,
    under ``<out>/transcripts``.  Before, ``../fixtures/alpha`` read the fixture
    through ``fixtures/../fixtures`` and wrote ``<out>/fixtures/alpha.json``,
    outside ``exp1/``."""
    (tmp_path / "fixtures").mkdir()
    res = invoke(*args, "--data", CSV, "--dict", DICT, "--replay", FIXTURES, "--out", tmp_path)
    assert res.exit_code == 1
    assert res.stderr == f"Error: ValueError: {message}\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["fixtures"]


def test_every_fixture_names_a_valid_provider_and_model():
    names = [path.parent.relative_to(FIXTURES).parts for path in FIXTURES.glob("*/**/exp*.json")]
    assert len(names) == 5
    for provider, *model in names:
        ProviderConfig(name=provider, model="/".join(model))
    for name, model in (("alpha", ""), ("alpha", "/m"), ("alpha", "org//m"), ("alpha", "org/./m"),
                        ("al-pha", "m"), ("", "m")):
        with pytest.raises(ValueError):
            ProviderConfig(name=name, model=model)
    assert ProviderConfig(name="alpha", model="org/m.v2").model == "org/m.v2"


def test_report_summary(runs_dir):
    res = invoke("report", "summary", "--runs", runs_dir)
    assert res.exit_code == 0
    assert "## Experiment 1" in res.stdout
    assert "## Experiment 3" in res.stdout
    res = invoke("report", "summary", "--runs", runs_dir, "--experiment", 3)
    assert "## Experiment 1" not in res.stdout
    assert "s2_ivt†" in res.stdout
    res = invoke("report", "summary", "--runs", runs_dir, "--experiment", 2)
    assert res.exit_code == 1
    assert res.stderr == f"Error: no persisted experiment 2 under {runs_dir}\n"


def test_report_best_of(runs_dir):
    res = invoke("report", "best-of", "--runs", runs_dir, "--metric", "aic")
    assert res.exit_code == 0
    assert "## Best AIC per model and experiment" in res.stdout
    assert "1697.64" in res.stdout


def test_report_profile(runs_dir):
    res = invoke("report", "profile", "--runs", runs_dir)
    assert res.exit_code == 0
    assert "alpha/alpha-large" in res.stdout
    assert "beta/beta-mini" in res.stdout


def test_report_export_file(runs_dir, tmp_path):
    out = tmp_path / "ll.csv"
    res = invoke("report", "export", "--runs", runs_dir, "--metric", "ll", "--out", out)
    assert res.exit_code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "model,experiment,spec,value"
    assert len(lines) > 5


def test_report_reads_only_the_providers_of_the_last_run(tmp_path):
    """A rerun with fewer providers replaces the experiment's document, so no
    report shows a provider of the earlier run.  A directory without a results
    document is not read at all."""
    for providers in ("alpha,delta", "alpha"):
        res = invoke(
            "run", "--experiment", 1, "--providers", providers,
            "--data", CSV, "--dict", DICT, "--replay", FIXTURES, "--out", tmp_path,
        )
        assert res.exit_code == 0, res.output
    assert sorted(p.name for p in (tmp_path / "exp1").iterdir()) == ["results.json"]
    (tmp_path / "exp2").mkdir()
    shutil.copy(tmp_path / "exp1/results.json", tmp_path / "exp2/alpha.json")
    res = invoke("report", "summary", "--runs", tmp_path)
    assert res.exit_code == 0, res.output
    assert res.stdout.count("## Experiment") == 1
    assert res.stdout.count("| alpha/alpha-large |") == 3
    assert "delta" not in res.stdout


def test_report_reads_only_the_directories_a_run_writes(tmp_path, runs_dir):
    """Copies of an experiment directory, ``exp1_old`` and ``exp10``, are no
    further experiments: every report prints what it printed without them."""
    reports = (("summary",), ("summary", "--experiment", 1), ("best-of",), ("profile",))
    before = [invoke("report", *r, "--runs", runs_dir).stdout for r in reports]
    runs = tmp_path / "runs"
    shutil.copytree(runs_dir, runs)
    shutil.copytree(runs / "exp1", runs / "exp1_old")
    shutil.copytree(runs / "exp3", runs / "exp10")
    for r, expected in zip(reports, before):
        res = invoke("report", *r, "--runs", runs)
        assert res.exit_code == 0, res.output
        assert res.stdout == expected
    assert before[2].count("Exp. 1") == 1


def test_report_refuses_a_result_file_of_another_experiment(tmp_path, runs_dir):
    shutil.copytree(runs_dir / "exp3", tmp_path / "exp4")
    res = invoke("report", "summary", "--runs", tmp_path)
    assert res.exit_code == 1
    assert res.stderr == f"Error: ValueError: {tmp_path / 'exp4/results.json'} holds experiment 3, not 4\n"


def test_report_empty_runs_dir(tmp_path):
    res = invoke("report", "summary", "--runs", tmp_path)
    assert res.exit_code == 1
    assert "no persisted experiments" in res.stderr


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _with_estimation(**figures):
    return lambda doc: {**doc, "estimation": {**doc["estimation"], **figures}}


def _with_first_row_twice(doc):
    rows = doc["estimation"]["parameters"]
    return _with_estimation(parameters=[*rows, rows[0]])(doc)


def _with_estimate(name, value):
    return lambda doc: {**doc, "estimation": {**doc["estimation"], "parameters": [
        {**row, "estimate": value} if row["name"] == name else row
        for row in doc["estimation"]["parameters"]
    ]}}


def _without_parameter(name):
    return lambda doc: {**doc, "estimation": {**doc["estimation"], "parameters": [
        row for row in doc["estimation"]["parameters"] if row["name"] != name
    ]}}


# (the command, or the runs file that `report summary` reads; the malformed document
# made from a good one; the error it must end in)
MALFORMED = {
    "metrics-n_obs": ("metrics", _without("n_obs"), "{target} has no 'n_obs'"),
    "validate-estimation": ("validate", _without("estimation"), "{target} has no 'estimation'"),
    "report-config": ("exp3/results.json", _without("config"), "{target} has no 'config'"),
    "validate-empty_estimation": (
        "validate", lambda doc: {**doc, "estimation": {}}, "EstimationResult has no 'parameters'"
    ),
    "report-empty_config": (
        "exp3/results.json", lambda doc: {**doc, "config": {}}, "ExperimentConfig has no 'id'"
    ),
    "metrics-bare_number": ("metrics", lambda doc: 5, "{target} is not a JSON object"),
    "validate-parameters_number": (
        "validate",
        lambda doc: {**doc, "estimation": {**doc["estimation"], "parameters": 5}},
        "EstimationResult 'parameters' is not a JSON array",
    ),
    "metrics-n_obs_string": (
        "metrics", lambda doc: {**doc, "n_obs": "x"}, "{target} 'n_obs' is not a number"
    ),
    "metrics-n_obs_fraction": (
        "metrics", lambda doc: {**doc, "n_obs": 2.5}, "{target} 'n_obs' is not an integer"
    ),
    "validate-iterations_fraction": (
        "validate",
        lambda doc: {**doc, "estimation": {**doc["estimation"], "iterations": 2.5}},
        "EstimationResult 'iterations' is not an integer",
    ),
    "report-records_number": (
        "exp3/results.json", lambda doc: {**doc, "records": 5}, "{target} 'records' is not a JSON array"
    ),
    "validate-converged_string": (
        "validate",
        lambda doc: {**doc, "estimation": {**doc["estimation"], "converged": "false"}},
        "EstimationResult 'converged' is not a boolean",
    ),
    "validate-convergence_reason_number": (
        "validate",
        lambda doc: {**doc, "estimation": {**doc["estimation"], "convergence_reason": 0}},
        "EstimationResult 'convergence_reason' is not a string",
    ),
    "report-diagnostics_number": (
        "exp3/results.json",
        lambda doc: {**doc, "diagnostics": 5},
        "{target} 'diagnostics' is not a JSON array",
    ),
    "validate-parameter_without_std_error": (
        "validate",
        lambda doc: {**doc, "estimation": {**doc["estimation"], "parameters": [
            {k: v for k, v in row.items() if k != "std_error"} for row in doc["estimation"]["parameters"]
        ]}},
        "ParameterEstimate has no 'std_error'",
    ),
    "metrics-spec_text_number": (
        "metrics", lambda doc: {**doc, "spec_text": 5}, "{target} 'spec_text' is not a string"
    ),
    "report-spec_text_number": (
        "exp3/results.json",
        lambda doc: {**doc, "records": [{**doc["records"][0], "spec_text": 5}, *doc["records"][1:]]},
        "Record 'spec_text' is not a string",
    ),
    "suggest-fixture_bare_number": ("suggest", lambda doc: 5, "{target} is not a JSON object"),
    "metrics-null_loglik_zero": (
        "metrics",
        _with_estimation(null_loglik=0),
        "{target} 'estimation': 'null_loglik' is 0.0, not a finite negative number",
    ),
    "metrics-parameter_missing": (
        "metrics",
        _without_parameter("b_cost"),
        f"{{target}}: 'estimation' has rows {[n for n in BEST_FREE if n != 'b_cost']},"
        f" not the spec's free parameters {BEST_FREE}",
    ),
    "validate-parameter_missing": (
        "validate",
        _without_parameter("b_cost"),
        f"{{target}}: 'estimation' has rows {[n for n in BEST_FREE if n != 'b_cost']},"
        f" not the spec's free parameters {BEST_FREE}",
    ),
    "metrics-n_obs_zero": (
        "metrics", lambda doc: {**doc, "n_obs": 0}, "{target}: 'n_obs' is 0, not a positive count"
    ),
    "validate-n_obs_negative": (
        "validate", lambda doc: {**doc, "n_obs": -5}, "{target}: 'n_obs' is -5, not a positive count"
    ),
    "metrics-null_loglik_positive": (
        "metrics",
        _with_estimation(null_loglik=5.0),
        "{target} 'estimation': 'null_loglik' is 5.0, not a finite negative number",
    ),
    # NaN and Infinity are not JSON, and a null null_loglik is NaN: each used to pass,
    # and metrics printed rho-squared=nan or, for -inf, 1.0000
    "metrics-null_loglik_nan": (
        "metrics", _with_estimation(null_loglik=math.nan), "{target} holds NaN, which is not JSON"
    ),
    "validate-null_loglik_infinity": (
        "validate",
        _with_estimation(null_loglik=-math.inf),
        "{target} holds -Infinity, which is not JSON",
    ),
    "metrics-null_loglik_null": (
        "metrics",
        _with_estimation(null_loglik=None),
        "{target} 'estimation': 'null_loglik' is nan, not a finite negative number",
    ),
    "report-infinity": (
        "exp3/results.json",
        lambda doc: {**doc, "records": [
            {**doc["records"][0], "fit": {**doc["records"][0]["fit"], "aic": math.inf}},
            *doc["records"][1:],
        ]},
        "{target} holds Infinity, which is not JSON",
    ),
    "metrics-loglik_positive": (
        "metrics", _with_estimation(loglik=12.0), "{target} 'estimation': 'loglik' is 12.0, above 0"
    ),
    "metrics-parameter_twice": (
        "metrics",
        _with_first_row_twice,
        "{target} 'estimation': 'parameters' has more than one row for 'asc_bus'",
    ),
    "validate-parameter_twice": (
        "validate",
        _with_first_row_twice,
        "{target} 'estimation': 'parameters' has more than one row for 'asc_bus'",
    ),
    "report-fit_k": (
        "exp3/results.json",
        lambda doc: {**doc, "records": [
            {**doc["records"][0], "fit": {**doc["records"][0]["fit"], "k": 99}}, *doc["records"][1:]
        ]},
        "an item of {target} 'records': 'fit' has loglik {good[records][0][fit][loglik]} and k=99,"
        " not the estimation's {good[records][0][estimation][loglik]} and {good[records][0][fit][k]}",
    ),
    **{f"{command}-{case}": (command, malform, message) for command in ("metrics", "validate")
       for case, malform, message in (
        (
            "estimate_null",
            _with_estimate("b_time", None),
            "{target} 'estimation': 'parameters' has estimate nan for 'b_time', not a finite number",
        ),
        (
            "converged_at_max_iterations",
            _with_estimation(converged=True, convergence_reason="max_iterations", hessian_pd=False),
            "{target} 'estimation': 'converged' is true with 'convergence_reason' 'max_iterations'"
            " and 'hessian_pd' false",
        ),
        (
            "convergence_reason_unknown",
            _with_estimation(convergence_reason="because"),
            "{target} 'estimation': 'convergence_reason' is 'because', not one of"
            " ['gradient_tolerance', 'max_iterations', 'line_search_failure', 'non_finite']",
        ),
    )},
}


@pytest.mark.parametrize("command, malform, message", MALFORMED.values(), ids=MALFORMED)
def test_malformed_results_fail_in_one_line(request, tmp_path, command, malform, message):
    if command.startswith("exp3/"):
        runs = request.getfixturevalue("runs_dir")
        source, target = runs / command, tmp_path / command
        shutil.copytree(runs / "exp3", target.parent)
        args = ("report", "summary", "--runs", tmp_path)
    elif command == "suggest":
        source = FIXTURES / "alpha/alpha-large/exp1.json"
        target = tmp_path / "alpha/alpha-large/exp1.json"
        target.parent.mkdir(parents=True)
        args = ("suggest", "--experiment", 1, "--provider", "alpha", "--model", "alpha-large",
                "--replay", tmp_path, "--data", CSV, "--dict", DICT)
    else:
        source = request.getfixturevalue("results_file")
        target = tmp_path / "best.json"
        args = (command, "--results", target, "--dict", DICT)
    good = json.loads(source.read_text(encoding="utf-8"))
    target.write_text(json.dumps(malform(good)), encoding="utf-8")
    res = invoke(*args)
    assert res.exit_code == 1
    assert res.stderr == f"Error: ValueError: {message.format(target=target, good=good)}\n"
    assert res.stdout == ""



# Every value of the synthetic_best results file, as a path of keys and row indices.
ROW_KEYS = ("name", "estimate", "std_error", "t_ratio")
RESULTS_PATHS = [
    *((key,) for key in ("spec_name", "spec_text", "n_obs", "estimation", "fit")),
    *(("estimation", key) for key in (
        "parameters", "loglik", "null_loglik", "iterations", "converged", "convergence_reason",
        "hessian_pd",
    )),
    *(("fit", key) for key in ("loglik", "k", "n", "aic", "bic")),
    *(("estimation", "parameters", i) for i in range(len(BEST_FREE))),
    *(("estimation", "parameters", i, key) for i in range(len(BEST_FREE)) for key in ROW_KEYS),
]
DROP, DUPLICATE = "drop the key or row", "duplicate the row"
EXCLUSIONS = ("included", "excluded_no_asc", "excluded_nonconvergence", "excluded_positive_sign")


@pytest.fixture(scope="module")
def intact_output(results_file):
    return {command: invoke(command, "--results", results_file, "--dict", DICT)
            for command in ("metrics", "validate")}


def _mutated(doc, path, change):
    doc = copy.deepcopy(doc)
    *parents, last = path
    holder = functools.reduce(operator.getitem, parents, doc)
    if change == DROP:
        del holder[last]
    elif change == DUPLICATE:
        holder.insert(last, holder[last])
    else:
        holder[last] = change
    return doc


def _judged_figures(stdout):
    """The figures of ``metrics`` output, which must obey the rules a fit obeys."""
    head, rho = stdout.splitlines()[:2]
    figures = dict(item.split("=") for item in head.split())
    assert figures["k"] == str(len(BEST_FREE))
    assert int(figures["n"]) >= 1
    assert float(figures["LL"]) <= 0.0
    assert not float(rho.removeprefix("rho-squared=")) > 1.0


@settings(max_examples=150, deadline=None)
@given(
    path=st.sampled_from(RESULTS_PATHS),
    change=st.one_of(
        st.sampled_from([0, None, DROP, DUPLICATE]),
        st.integers(1, 10**6), st.integers(-10**6, -1),
        st.floats(1e-9, 1e9), st.floats(-1e9, -1e-9),
    ),
)
@example(path=("n_obs",), change=0)  # ended metrics in 'math domain error'
@example(path=("estimation", "null_loglik"), change=5.0)  # printed rho-squared=169.3645
@example(path=("estimation", "parameters", 0), change=DUPLICATE)  # printed k=8
@example(path=("estimation", "loglik"), change=12.0)  # printed AIC=-10.0000, rho-squared=1.0113
def test_a_mutated_results_file_is_judged_as_written_or_refused(
    results_file, intact_output, path, change
):
    """One field of an ``estimate --out`` file set to 0, a negative or positive
    number or null, or its key or row dropped or duplicated.  ``metrics`` and
    ``validate`` each print what they printed for the intact file, refuse the
    file in one line, or print another fit whose figures a fit could have:
    never a traceback, and never a figure the estimator cannot produce."""
    if change == DUPLICATE and not isinstance(path[-1], int):
        change = DROP
    target = results_file.parent / "mutated.json"
    good = json.loads(results_file.read_text(encoding="utf-8"))
    target.write_text(json.dumps(_mutated(good, path, change)), encoding="utf-8")
    for command, intact in intact_output.items():
        res = invoke(command, "--results", target, "--dict", DICT)
        assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
        if res.exit_code == 1:  # in one line that names the file, or the class whose field it is
            assert res.stdout == ""
            assert res.stderr.count("\n") == 1
            assert res.stderr.startswith(f"Error: ValueError: {target}") or re.match(
                "Error: ValueError: (an item of )?(EstimationResult|ParameterEstimate) ", res.stderr
            ), res.stderr
        elif res.stdout != intact.stdout:
            assert res.exit_code == 0 and path[0] in ("n_obs", "estimation")
            if command == "metrics":
                _judged_figures(res.stdout)
            else:
                assert res.stdout.split()[1] in EXCLUSIONS


def _keys(cls) -> list[str]:
    """The JSON keys of a persisted dataclass."""
    return [f.metadata.get("key", f.name) for f in dataclasses.fields(cls)]


# Every value of an experiment's results.json, as a path of keys and indices, for its
# first and last record: all five records of the replayed experiment 1 have every part.
RECORD_PARTS = {
    "stats": SpecStats, "estimation": EstimationResult, "fit": FitStats, "vot": VotEstimate,
    "validation": ValidationReport, "claimed": Claim, "reproduction": runner_mod.ReproductionVerdict,
}
EXPERIMENT_PATHS = [
    *((key,) for key in _keys(runner_mod.ExperimentResult)),
    *(("config", key) for key in _keys(ExperimentConfig)),
    *(path for i in (0, -1) for path in (
        ("records", i),
        *(("records", i, key) for key in _keys(runner_mod.Record)),
        *(("records", i, part, key) for part, cls in RECORD_PARTS.items() for key in _keys(cls)),
        *(("records", i, "vot", "per_alternative", alt) for alt in ("car", "rail")),
        *(("records", i, "estimation", "parameters", j) for j in (0, -1)),
        *(("records", i, "estimation", "parameters", j, key)
          for j in (0, -1) for key in _keys(ParameterEstimate)),
    )),
]
REPORTS = (
    ("summary",), ("best-of",), ("best-of", "--metric", "aic"), ("profile",),
    ("export", "--metric", "vot"), ("export", "--metric", "bic"),
)


@pytest.fixture(scope="module")
def mutable_runs(runs_dir, tmp_path_factory):
    """A copy of ``runs_dir`` whose exp1/results.json each example overwrites."""
    runs = tmp_path_factory.mktemp("mutable_runs")
    shutil.copytree(runs_dir, runs, dirs_exist_ok=True)
    return runs


@settings(max_examples=150, deadline=None)
@given(
    path=st.sampled_from(EXPERIMENT_PATHS),
    change=st.one_of(
        st.sampled_from([DROP, "x", True, [], {}, None, 1.5, math.nan, math.inf, -math.inf]),
        st.integers(-10**6, -1),
    ),
)
def test_a_mutated_experiment_is_reported_or_refused(runs_dir, mutable_runs, path, change):
    """One value of an experiment's results.json swapped for another JSON type, a
    non-finite number or a negative count, or its key or row deleted.  Every
    report prints its table or refuses the document in one line: never a
    traceback."""
    good = json.loads((runs_dir / "exp1/results.json").read_text(encoding="utf-8"))
    (mutable_runs / "exp1/results.json").write_text(
        json.dumps(_mutated(good, path, change)), encoding="utf-8"
    )
    for args in REPORTS:
        res = invoke("report", *args, "--runs", mutable_runs)
        assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
        if res.exit_code == 1:
            assert res.stdout == ""
            assert res.stderr.startswith("Error: ") and res.stderr.count("\n") == 1, res.stderr
        else:
            assert res.exit_code == 0
            assert res.stdout.startswith("model,experiment,spec,value" if args[0] == "export" else "## ")


# -- start-up --------------------------------------------------------------


def test_cli_import_leaves_requests_unloaded():
    """Only live completions need requests, and only a command's body imports
    numpy or a layer: the CLI and its help start with logitlab and click."""
    proc, _ = fresh_python("-c", (
        "import sys, logitlab.cli; "
        "print(sorted(m for m in sys.modules if m in ('requests', 'numpy') or m.startswith('logitlab')))"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['logitlab', 'logitlab.cli']\n"
    for args in (("--help",), ("report", "--help")):
        proc, imported = fresh_python("-m", "logitlab.cli", *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("Usage: ")
        assert "click" in imported and "numpy" not in imported
        assert {m for m in imported if m.startswith("logitlab.")} == set()


# Modules only fitting and prompting need: a process that reads results loads none.
NUMPY_MODULES = (
    "numpy", "logitlab.dataset", "logitlab.engine.bfgs", "logitlab.engine.kernel",
    "logitlab.specdsl.binding",
)


def test_report_process_leaves_numpy_unloaded(tmp_path):
    """A report reads results.json documents; numpy enters only with a fit."""
    for exp, providers in ((1, "alpha,delta,golden"), (3, "beta"), (5, "epsilon")):
        res = invoke("run", "--experiment", exp, "--providers", providers,
                     "--data", CSV, "--dict", DICT, "--replay", FIXTURES, "--out", tmp_path)
        assert res.exit_code == 0, res.output
    for args in (("summary",), ("best-of",), ("profile",), ("export", "--metric", "vot")):
        proc, imported = fresh_python("-m", "logitlab.cli", "report", *args, "--runs", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "logitlab.runner" in imported
        assert [m for m in NUMPY_MODULES if m in imported] == [], args
    proc, imported = fresh_python("-c", "import logitlab.runner")
    assert proc.returncode == 0, proc.stderr
    assert [m for m in NUMPY_MODULES if m in imported] == []
