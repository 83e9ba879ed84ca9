"""Experiment orchestration: crosschecks, replay runs, persistence."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from logitlab import dataset as ds
from logitlab import report, runner
from logitlab.engine.bfgs import ParameterEstimate
from logitlab.jsonio import from_json, load_json, to_json
from logitlab.llmgate.client import (
    AuthError,
    LLMTranscript,
    RateLimited,
    TransportError,
    load_fixture,
    recorded_providers,
    write_fixture,
)
from logitlab.llmgate.config import ProviderConfig
from logitlab.llmgate.extract import Claim
from logitlab.metrics import FitStats, information_criteria
from logitlab.specdsl.serialize import serialize_spec

from conftest import FIXTURES, SYNTH_CSV, SYNTH_DICT, fresh_python
from test_llmgate import MALFORMED_PAYLOADS, OK_PAYLOAD, FakeResponse, FakeSession

ALPHA = ProviderConfig(name="alpha", model="alpha-large")
BETA = ProviderConfig(name="beta", model="beta-mini")
DELTA = ProviderConfig(name="delta", model="delta-pro")


def est_with_ll(ll: float):
    return runner.EstimationResult(
        parameters=(ParameterEstimate(name="b", estimate=1.0, std_error=0.1, t_ratio=10.0),),
        loglik=ll,
        null_loglik=ll - 100.0,
        iterations=5,
        converged=True,
        convergence_reason="gradient_tolerance",
        hessian_pd=True,
    )


# -- crosscheck ----------------------------------------------------------------


@pytest.mark.parametrize(
    "claimed,reestimated,verdict",
    [
        (-900.30, -900.00, "reproduced"),
        (-900.50, -900.00, "reproduced"),  # tolerance boundary is inclusive
        (-900.51, -900.00, "not_reproduced"),
        (-899.49, -900.00, "not_reproduced"),
        (-10004.9, -10000.0, "reproduced"),  # relative branch: tol = 5.0
        (-10005.1, -10000.0, "not_reproduced"),
    ],
)
def test_crosscheck_tolerance(claimed, reestimated, verdict):
    got = runner.crosscheck(Claim("s", claimed), est_with_ll(reestimated))
    assert got.verdict == verdict
    assert got.claimed_ll == claimed
    assert got.reestimated_ll == reestimated
    assert got.delta == pytest.approx(claimed - reestimated)


def test_natural_key_orders_numbered_specs():
    names = ["S10", "s2", "S1", "s9", "model"]
    assert sorted(names, key=runner.natural_key) == ["model", "S1", "s2", "s9", "S10"]


# -- replayed runs ---------------------------------------------------------------


@pytest.fixture(scope="module")
def alpha_run(synth_data):
    return runner.run_experiment(1, [ALPHA], synth_data, replay_dir=FIXTURES)


def test_replay_run_yields_sorted_records(alpha_run):
    assert [r.spec_name for r in alpha_run.records] == [
        "s1_base",
        "s2_access",
        "s3_business",
    ]
    assert all(r.provider == "alpha" and r.model == "alpha-large" for r in alpha_run.records)


def test_replay_records_fully_populated(alpha_run):
    for record in alpha_run.records:
        assert record.estimation is not None and record.estimation.converged
        assert record.stats is not None
        assert record.fit is not None
        assert record.validation is not None
        assert record.claimed is not None
        assert record.reproduction is not None
    assert all(r.reproduction.verdict == "reproduced" for r in alpha_run.records)


def test_replay_fit_consistent_with_estimation(alpha_run):
    for record in alpha_run.records:
        assert record.fit.loglik == record.estimation.loglik
        assert record.fit.k == record.estimation.n_free
        assert record.fit.n == 1000
        assert record.fit.aic == pytest.approx(
            2 * record.fit.k - 2 * record.fit.loglik
        )


def test_record_and_document_carry_the_run_context(tmp_path, alpha_run, synth_data):
    """Provenance lives on the record and in the document's config; the
    persisted spec text is the spec's canonical text, with no comment line."""
    assert runner.save_result(alpha_run, tmp_path) == tmp_path / "exp1/results.json"
    doc = json.loads((tmp_path / "exp1/results.json").read_text(encoding="utf-8"))
    assert doc["config"]["id"] == 1
    assert [(r["provider"], r["model"]) for r in doc["records"]] == [("alpha", "alpha-large")] * 3
    for raw, record in zip(doc["records"], alpha_run.records):
        assert not any(line.startswith("#") for line in raw["spec_text"].splitlines())
        assert raw["spec_text"] == serialize_spec(record.spec)


def test_llm_comments_do_not_reach_the_runs_directory(tmp_path, synth_data):
    """A comment the LLM wrote under a block's spec line is not part of the model
    and is not persisted."""
    transcript = load_fixture(FIXTURES, "alpha", "alpha-large", 1)
    assert "spec s1_base\n" in transcript.response_text
    text = transcript.response_text.replace(
        "spec s1_base\n", "spec s1_base\n# note: baseline with generic time\n"
    )
    write_fixture(dataclasses.replace(transcript, response_text=text), tmp_path / "replay", 1)
    runner.run_experiment(1, [ALPHA], synth_data, replay_dir=tmp_path / "replay", out_dir=tmp_path / "runs")
    saved = (tmp_path / "runs/exp1/results.json").read_text(encoding="utf-8")
    assert "baseline with generic time" not in saved and "# " not in saved


def test_fabricated_claim_flagged(synth_data):
    result = runner.run_experiment(1, [DELTA], synth_data, replay_dir=FIXTURES)
    verdicts = {r.spec_name: r.reproduction.verdict for r in result.records}
    assert verdicts == {"s1_time": "not_reproduced", "s2_full": "reproduced"}
    # the fabricated one still estimates and can be included
    flagged = next(r for r in result.records if r.spec_name == "s1_time")
    assert flagged.estimation.converged
    assert flagged.reproduction.delta == pytest.approx(70.0, abs=0.1)


def test_suggest_only_experiment_has_no_claims(synth_data):
    result = runner.run_experiment(3, [BETA], synth_data, replay_dir=FIXTURES)
    assert len(result.records) == 3
    assert all(r.claimed is None and r.reproduction is None for r in result.records)


def test_missing_fixture_is_diagnostic_not_fatal(synth_data):
    ghost = ProviderConfig(name="ghost", model="ghost-9")
    result = runner.run_experiment(1, [ALPHA, ghost], synth_data, replay_dir=FIXTURES)
    assert len(result.records) == 3  # alpha still processed
    assert any("ghost/ghost-9: fixture missing" in d for d in result.diagnostics)


def test_no_transcripts_at_all_raises(synth_data):
    ghost = ProviderConfig(name="ghost", model="ghost-9")
    with pytest.raises(runner.RunError):
        runner.run_experiment(1, [ghost], synth_data, replay_dir=FIXTURES)


@pytest.mark.parametrize("error", [AuthError, RateLimited, TransportError])
def test_live_failure_of_one_provider_is_diagnostic_not_fatal(monkeypatch, synth_data, error):
    def complete(bundle, provider, replay_dir=None, transcript_dir=None):
        if provider is ALPHA:
            raise error("no answer")
        return load_fixture(FIXTURES, provider.name, provider.model, bundle.experiment_id)

    monkeypatch.setattr(runner, "complete", complete)
    result = runner.run_experiment(1, [ALPHA, DELTA], synth_data)
    assert [r.spec_name for r in result.records] == ["s1_time", "s2_full"]  # delta still processed
    assert f"alpha/alpha-large: {error.__name__}: no answer" in result.diagnostics


def test_every_provider_failing_is_named_in_run_error(monkeypatch, synth_data):
    errors = {"alpha": AuthError("rejected credentials"), "delta": TransportError("refused")}

    def complete(bundle, provider, replay_dir=None, transcript_dir=None):
        raise errors[provider.name]

    monkeypatch.setattr(runner, "complete", complete)
    with pytest.raises(runner.RunError) as info:
        runner.run_experiment(1, [ALPHA, DELTA], synth_data)
    assert "alpha/alpha-large: AuthError: rejected credentials" in str(info.value)
    assert "delta/delta-pro: TransportError: refused" in str(info.value)


def live_beta(monkeypatch, model="beta-mini"):
    """Route ``requests.Session`` to one recorded beta answer, as a live call would get it."""
    import requests

    text = load_fixture(FIXTURES, "beta", "beta-mini", 3).response_text
    payload = {**OK_PAYLOAD, "choices": [{"message": {"content": text}}]}
    monkeypatch.setattr(requests, "Session", lambda: FakeSession([FakeResponse(200, payload)]))
    monkeypatch.setenv("BETA_API_KEY", "secret-key")
    monkeypatch.setenv("BETA_BASE_URL", "https://api.example/v1")
    return ProviderConfig(name="beta", model=model), text


def test_live_run_keeps_its_transcript_beside_the_experiment(monkeypatch, tmp_path, synth_data):
    beta, text = live_beta(monkeypatch)
    result = runner.run_experiment(3, [beta], synth_data, out_dir=tmp_path)
    assert len(result.records) == 3
    (kept,) = (tmp_path / "transcripts").rglob("*.json")
    assert kept == tmp_path / "transcripts/beta/beta-mini/exp3.json"
    assert load_json(kept, LLMTranscript).response_text == text
    assert sorted(p.name for p in (tmp_path / "exp3").iterdir()) == ["results.json"]


@pytest.mark.parametrize("payload", MALFORMED_PAYLOADS.values(), ids=MALFORMED_PAYLOADS)
def test_a_malformed_live_response_is_one_diagnostic(monkeypatch, tmp_path, synth_data, payload):
    """One provider's 200 response of the wrong shape loses only that provider's specs."""
    import requests

    beta, text = live_beta(monkeypatch)
    good = {**OK_PAYLOAD, "choices": [{"message": {"content": text}}]}
    sessions = iter([FakeSession([FakeResponse(200, p)]) for p in (payload, good)])
    monkeypatch.setattr(requests, "Session", lambda: next(sessions))
    monkeypatch.setenv("ALPHA_API_KEY", "secret-key")
    monkeypatch.setenv("ALPHA_BASE_URL", "https://api.example/v1")
    result = runner.run_experiment(3, [ALPHA, beta], synth_data, out_dir=tmp_path)
    assert result.diagnostics[0] == (
        "alpha/alpha-large: TransportError: malformed completion payload from 'alpha'"
    )
    assert not any(d.startswith("alpha/") for d in result.diagnostics[1:])
    saved = load_json(tmp_path / "exp3/results.json", runner.ExperimentResult)
    assert saved.diagnostics == result.diagnostics
    assert [(r.provider, r.spec_name) for r in saved.records] == [
        ("beta", r.spec_name) for r in result.records
    ]
    assert len(saved.records) == 3


def test_live_run_replays_from_its_transcripts(monkeypatch, tmp_path, synth_data):
    """Record once, replay forever: a live run's ``transcripts/`` is a replay
    directory, and its replay, with the model found there, writes the same document."""
    beta, _ = live_beta(monkeypatch, model="org/beta-mini")
    live, replayed = tmp_path / "live", tmp_path / "replayed"
    runner.run_experiment(3, [beta], synth_data, out_dir=live)
    providers = recorded_providers(live / "transcripts", "beta")
    assert providers == [beta]
    runner.run_experiment(3, providers, synth_data, replay_dir=live / "transcripts", out_dir=replayed)
    assert (replayed / "exp3/results.json").read_bytes() == (live / "exp3/results.json").read_bytes()


def test_no_providers_raises(synth_data):
    with pytest.raises(runner.RunError):
        runner.run_experiment(1, [], synth_data, replay_dir=FIXTURES)


def test_a_model_given_twice_is_refused_before_any_call(monkeypatch, tmp_path, synth_data):
    """Before, the repeated model was called twice and its specs counted twice."""
    calls = []
    monkeypatch.setattr(runner, "complete", lambda bundle, provider, **kwargs: calls.append(provider))
    again = ProviderConfig(name="alpha", model="alpha-large")
    with pytest.raises(runner.RunError, match="^provider alpha:alpha-large is given more than once$"):
        runner.run_experiment(
            1, [ALPHA, DELTA, again], synth_data, replay_dir=FIXTURES, out_dir=tmp_path
        )
    assert calls == []
    assert list(tmp_path.iterdir()) == []


GOOD_BLOCK = (
    "```dcm-spec\n"
    "spec good\nalt car bus air rail\nparam asc_bus\nparam b_time generic\n"
    "U(car) = b_time * time_car\nU(bus) = asc_bus + b_time * time_bus\n"
    "U(air) = b_time * time_air\nU(rail) = b_time * time_rail\n"
    "```\n"
)


def replay_text(tmp_path, dataset, text: str) -> runner.ExperimentResult:
    """Experiment 3 over one provider whose replayed answer is ``text``, saved under
    ``tmp_path / "runs"``."""
    transcript = LLMTranscript(
        provider="prov",
        model="mod",
        request_params={},
        messages=(),
        response_text=text,
        timestamp="",
        token_counts={},
    )
    write_fixture(transcript, tmp_path / "fixtures", exp_id=3)
    return runner.run_experiment(
        3, [ProviderConfig(name="prov", model="mod")], dataset,
        replay_dir=tmp_path / "fixtures", out_dir=tmp_path / "runs",
    )


def test_per_spec_failures_stay_isolated(tmp_path, synth_data):
    """One bad spec in a transcript never takes down its neighbours."""
    text = GOOD_BLOCK + (
        "```dcm-spec\n"
        "spec unbindable\nalt car bus air rail\nparam b_x generic\n"
        "U(car) = b_x * no_such_column\nU(bus) = 0\nU(air) = 0\nU(rail) = 0\n"
        "```\n"
    )
    result = replay_text(tmp_path, synth_data, text)
    by_name = {r.spec_name: r for r in result.records}
    assert by_name["good"].estimation is not None
    # time-only spec: no cost side, so the ratio is reported missing
    assert by_name["good"].vot is None
    assert any("no value of time" in d for d in by_name["good"].diagnostics)
    bad = by_name["unbindable"]
    assert bad.estimation is None and bad.fit is None and bad.validation is None
    assert any("no_such_column" in d for d in bad.diagnostics)


def test_literal_too_large_for_a_float_is_an_extraction_diagnostic(tmp_path, synth_data):
    """Before: 1e999 parsed to inf, and saving the run ended in an OverflowError."""
    huge = GOOD_BLOCK.replace("spec good", "spec huge").replace("b_time * time_car", "b_time * 1e999")
    text = GOOD_BLOCK + huge
    result = replay_text(tmp_path, synth_data, text)
    assert [r.spec_name for r in result.records] == ["good"]
    assert "prov/mod: spec block 2 rejected: line 5, col 10: number out of range: 1e999" in result.diagnostics
    (saved,) = runner.load_results(tmp_path / "runs")
    assert saved.diagnostics == result.diagnostics


def test_out_of_range_claim_is_a_diagnostic_and_reloads_as_run(tmp_path, synth_data):
    """Before: the claim became loglik=-inf, aic=inf, which the run saved as null and
    load_results read back as loglik=nan, aic=None."""
    text = GOOD_BLOCK + "```dcm-claims\ngood, -1e999, 1e999\n```\n"
    result = replay_text(tmp_path, synth_data, text)
    (record,) = result.records
    assert record.estimation.converged
    assert record.claimed is None and record.reproduction is None
    assert "prov/mod: claims line 1: number out of range" in result.diagnostics
    (saved,) = runner.load_results(tmp_path / "runs")
    assert_same(saved, result, "exp3")
    assert report.summary_table(saved) == report.summary_table(result)
    assert report.best_of([saved]) == report.best_of([result])
    assert report.profile_table(report.llm_profile([saved])) == report.profile_table(
        report.llm_profile([result])
    )


def test_division_by_a_literal_zero_keeps_the_validation(tmp_path, synth_data):
    """Before: the main-effect scan divided 1 by the divisor, and the record lost
    its validation to a ZeroDivisionError."""
    text = GOOD_BLOCK.replace("b_time * time_car", "b_time * time_car / 0")
    (record,) = replay_text(tmp_path, synth_data, text).records
    assert record.estimation.convergence_reason == "non_finite"
    assert record.validation.exclusion == "excluded_nonconvergence"
    assert not any("ZeroDivisionError" in d for d in record.diagnostics)


# -- first-use layers -----------------------------------------------------------

# The runner's layers that import numpy, by the module that defines each.
NUMPY_LAYERS = {
    "format_csv": "logitlab.dataset",
    "write_dictionary": "logitlab.dataset",
    "bind": "logitlab.specdsl.binding",
    "estimate": "logitlab.engine.bfgs",
    "build_prompt": "logitlab.llmgate.prompts",
}

# Sets a spy on one layer's runner name before anything binds it, replays
# experiment 3, and checks that the spy was called and kept, and that every
# other name is bound to its layer's own function.
SPY_SCRIPT = """
import importlib, json, sys
from logitlab import dataset, runner
from logitlab.llmgate.config import ProviderConfig

name, layers, fixtures, csv_path, dict_path = sys.argv[1], json.loads(sys.argv[2]), *sys.argv[3:]
assert not set(layers) & set(vars(runner)), "bound on import"
layer = getattr(importlib.import_module(layers[name]), name)
calls = []

def spy(*args, **kwargs):
    calls.append(name)
    return layer(*args, **kwargs)

setattr(runner, name, spy)
data = dataset.load_dataset(csv_path, dict_path)
runner.run_experiment(3, [ProviderConfig("beta", "beta-mini")], data, replay_dir=fixtures)
assert calls and getattr(runner, name) is spy, name
for other, module in layers.items():
    if other != name:
        assert getattr(runner, other) is getattr(importlib.import_module(module), other), other
"""


@pytest.mark.parametrize("name", NUMPY_LAYERS)
def test_a_name_set_before_first_use_is_the_one_called(name):
    """A tracer or a test sets its wrapper with setattr before any run: the
    first-use binding keeps it, and binds the other names to the layers."""
    proc, _ = fresh_python(
        "-c", SPY_SCRIPT, name, json.dumps(NUMPY_LAYERS), str(FIXTURES), str(SYNTH_CSV), str(SYNTH_DICT)
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_an_unknown_runner_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_layer'"):
        runner.no_such_layer  # noqa: B018


# -- persistence ------------------------------------------------------------------


def assert_same(a, b, where: str) -> None:
    """Equal field by field, with tuple and array types checked; NaN equals NaN."""
    if isinstance(a, float):
        assert type(b) is float, where
        assert a == b or (math.isnan(a) and math.isnan(b)), where
        return
    assert type(a) is type(b), where
    if isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=where, strict=True)
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for k in a:
            assert_same(a[k], b[k], f"{where}[{k!r}]")
    else:
        assert a == b, where


def test_save_and_load_round_trip(tmp_path, synth_data):
    results = [
        runner.run_experiment(1, [ALPHA, DELTA], synth_data, replay_dir=FIXTURES, out_dir=tmp_path),
        runner.run_experiment(3, [BETA], synth_data, replay_dir=FIXTURES, out_dir=tmp_path),
    ]
    assert sorted(p.name for p in (tmp_path / "exp1").iterdir()) == ["results.json"]
    assert not (tmp_path / "transcripts").exists()  # replay keeps no transcript
    # a fit whose start values give no likelihood: -inf loglik, NaN standard errors
    non_finite = runner.EstimationResult(
        parameters=(ParameterEstimate("b_cost", 0.0, math.nan, math.nan),),
        loglik=-math.inf,
        null_loglik=-1386.0,
        iterations=0,
        converged=False,
        convergence_reason="non_finite",
        hessian_pd=False,
    )
    first, *rest = results[1].records
    fit = information_criteria(non_finite.loglik, non_finite.n_free, first.fit.n)
    results[1] = dataclasses.replace(
        results[1], records=(dataclasses.replace(first, estimation=non_finite, fit=fit), *rest)
    )
    runner.save_result(results[1], tmp_path)
    # beta/s2_ivt is collinear: NaN standard errors and t-ratios
    ivt = next(r for r in results[1].records if r.spec_name == "s2_ivt")
    assert np.isnan(ivt.estimation.std_errors).all()
    doc = json.loads((tmp_path / "exp1/results.json").read_text(encoding="utf-8"))
    assert sorted(doc) == ["config", "dataset_sha256", "diagnostics", "dictionary_sha256", "records"]
    assert sorted(doc["records"][0]) == [
        "claimed", "diagnostics", "estimation", "fit", "model", "provider",
        "reproduction", "spec_name", "spec_text", "stats", "validation", "vot",
    ]
    parameter = doc["records"][0]["estimation"]["parameters"][0]
    assert sorted(parameter) == ["estimate", "name", "std_error", "t_ratio"]

    loaded = runner.load_results(tmp_path)
    assert len(loaded) == len(results)
    for result, back in zip(results, loaded):
        exp = f"exp{result.config.id}"
        assert_same(back, result, exp)
        path = runner.save_result(back, tmp_path / "again")
        assert path.read_bytes() == (tmp_path / exp / "results.json").read_bytes(), exp


def test_results_document_hashes_its_inputs(tmp_path, synth_data):
    runner.run_experiment(1, [ALPHA], synth_data, replay_dir=FIXTURES, out_dir=tmp_path)
    doc = json.loads((tmp_path / "exp1/results.json").read_text(encoding="utf-8"))
    assert doc["dataset_sha256"] == runner._sha256(ds.format_csv(synth_data))
    assert doc["dictionary_sha256"] == runner._sha256(ds.write_dictionary(synth_data.dictionary))


def test_full_information_run_serializes_the_dataset_once(tmp_path, synth_data, monkeypatch):
    """The prompt's CSV attachment and the result's dataset hash share one serialization."""
    data = dataclasses.replace(synth_data)  # a dataset whose CSV text is not formed yet
    formatted = []
    format_column = ds._format_column
    monkeypatch.setattr(ds, "_format_column", lambda x: formatted.append(x) or format_column(x))
    runner.run_experiment(1, [ALPHA], data, replay_dir=FIXTURES, out_dir=tmp_path)
    assert len(formatted) == len(data.columns)
    assert ds.format_csv(data) is ds.format_csv(data)


def test_saved_documents_have_no_timestamps(tmp_path, synth_data):
    runner.run_experiment(1, [ALPHA], synth_data, replay_dir=FIXTURES, out_dir=tmp_path)
    doc = (tmp_path / "exp1/results.json").read_text(encoding="utf-8")
    assert "timestamp" not in doc


def test_from_json_restores_sentinels():
    d = {
        "parameters": [
            {"name": "b", "estimate": 1.5, "std_error": None, "t_ratio": None}
        ],
        "loglik": None,
        "null_loglik": -100.0,
        "iterations": 3,
        "converged": False,
        "convergence_reason": "non_finite",
        "hessian_pd": False,
    }
    est = from_json(runner.EstimationResult, d)
    assert est.loglik == -math.inf
    assert math.isnan(est.std_errors[0]) and math.isnan(est.t_ratios[0])
    assert est.estimates[0] == 1.5
    assert to_json(est) == d

    fit = from_json(FitStats, {"loglik": None, "k": 2, "n": 10, "aic": None, "bic": None})
    assert fit == FitStats(loglik=-math.inf, k=2, n=10, aic=math.inf, bic=math.inf)

    claim = from_json(Claim, {"spec_name": "s", "loglik": None, "aic": None, "bic": 7.0})
    assert math.isnan(claim.loglik) and claim.aic is None and claim.bic == 7.0

    stored = {
        "provider": "p",
        "model": "m",
        "request_params": {"temperature": 1.2},
        "messages": [{"role": "user", "content": "hi"}],
        "response_text": "text",
    }
    transcript = from_json(LLMTranscript, stored)
    assert transcript.timestamp == "" and transcript.token_counts == {}
    assert transcript.messages == ({"role": "user", "content": "hi"},)
