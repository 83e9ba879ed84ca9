"""Experiment presets, prompt assembly, transcript extraction, transport."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
import requests

from logitlab.llmgate import client, config, extract, prompts

from conftest import FIXTURES
from test_specdsl import DEEP_SHAPES, nested

# -- experiment presets ---------------------------------------------------------


def _is_preset(exp_id):
    try:
        return config.experiment(exp_id).id == exp_id
    except ValueError:
        return False


def test_exactly_five_presets():
    assert [i for i in range(-2, 10) if _is_preset(i)] == [1, 2, 3, 4, 5]
    assert config.experiment(1).information == config.FULL
    assert config.experiment(1).strategy == config.ZERO_SHOT
    assert config.experiment(2).strategy == config.CHAIN_OF_THOUGHT
    assert config.experiment(5).information == config.LIMITED


def test_estimation_goal_split():
    for i in (1, 2):
        assert config.experiment(i).goal == config.SUGGEST_AND_ESTIMATE
    for i in (3, 4, 5):
        assert config.experiment(i).goal == config.SUGGEST


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        config.experiment(6)
    with pytest.raises(ValueError):
        config.ExperimentConfig(0, config.FULL, config.ZERO_SHOT, config.SUGGEST)


def test_off_preset_combination_rejected():
    with pytest.raises(ValueError, match="experiment 1 is"):
        config.ExperimentConfig(
            1, config.LIMITED, config.ZERO_SHOT, config.SUGGEST_AND_ESTIMATE
        )


def test_sampling_constant():
    assert config.SAMPLING == {"temperature": 1.2, "top_p": 0.95, "max_tokens": 8192}


# -- templates -------------------------------------------------------------------

TEMPLATE_SHA256 = {
    "exp1": "884abb1cf5478ab01ce69891579599d2b24a4c09593b6fbf7cbbf879cea76b2a",
    "exp2": "15fd83258f5736d4b7a5e095136fd08b75f5f9d935145ecf4734d9dcef5054bf",
    "exp3": "74290800b69128472833b085fdb02e6fe5c3fb827613a42dccf096f7a2ac0cb5",
    "exp4": "b5d7a69d17d75b2171d4b824395fa22b524cf9a4e8bfda2870b2650c0d54a78c",
    "exp5": "8897fb6cfe10ea0290a3da80a49c04043bc5b25560e7229421e00710b0784855",
    "format_addendum": "82145822887a1783c4e3a3ad448315968778896b8fe7c4f44a53ba48c937304e",
}


@pytest.mark.parametrize("name", sorted(TEMPLATE_SHA256))
def test_template_assets_frozen(name):
    digest = hashlib.sha256(prompts.template_text(name).encode("utf-8")).hexdigest()
    assert digest == TEMPLATE_SHA256[name], f"template {name} was edited"


# -- prompt assembly --------------------------------------------------------------


def test_full_information_prompt_attaches_description_and_csv(synth_data):
    bundle = prompts.build_prompt(config.experiment(1), dataset=synth_data)
    assert bundle.description and bundle.csv
    message = bundle.as_user_message()
    assert "## Data description" in message
    assert "## Data (CSV)" in message
    assert "time_car" in message


def test_prompt_text_is_template_plus_addendum(synth_data):
    bundle = prompts.build_prompt(config.experiment(1), dataset=synth_data)
    template = prompts.template_text("exp1")
    addendum = prompts.template_text("format_addendum")
    assert bundle.prompt_text == template.rstrip("\n") + "\n\n" + addendum
    assert "dcm-spec" in addendum


def test_paper_faithful_prompt_is_byte_identical_template(synth_data):
    bundle = prompts.build_prompt(
        config.experiment(1), dataset=synth_data, paper_faithful=True
    )
    assert bundle.prompt_text == prompts.template_text("exp1")


def test_limited_information_never_ships_csv(synth_data):
    bundle = prompts.build_prompt(config.experiment(5), dataset=synth_data)
    assert bundle.csv is None
    assert bundle.description
    assert "## Data (CSV)" not in bundle.as_user_message()


def test_attachment_budget_enforced(synth_data, monkeypatch):
    """The budget limits what a live call sends, before its first request; a
    replay sends nothing, so a bundle over the budget still replays."""
    monkeypatch.setattr(client, "MAX_ATTACHMENT_TOKENS", 10)
    bundle = prompts.build_prompt(config.experiment(1), dataset=synth_data)
    alpha = config.ProviderConfig(name="alpha", model="alpha-large")
    assert client.complete(bundle, alpha, replay_dir=FIXTURES).model == "alpha-large"
    session = FakeSession([])
    with pytest.raises(client.AttachmentTooLarge, match="budget 10"):
        client.complete(bundle, alpha, session=session)
    assert session.calls == []


# The recorded fixtures hold the prompts this package sends: a change to the
# templates, the attachments or the data formatting shows up here first.
RECORDED = [
    ("alpha", "alpha-large", 1),
    ("beta", "beta-mini", 3),
    ("delta", "delta-pro", 1),
    ("epsilon", "epsilon-xl", 5),
]


@pytest.mark.parametrize("provider, model, exp_id", RECORDED, ids=[r[0] for r in RECORDED])
def test_recorded_prompts_match_build_prompt(synth_data, provider, model, exp_id):
    recorded = client.load_fixture(FIXTURES, provider, model, exp_id)
    bundle = prompts.build_prompt(config.experiment(exp_id), synth_data)
    assert recorded.messages == ({"role": "user", "content": bundle.as_user_message()},)
    assert recorded.request_params == config.SAMPLING


def test_golden_fixture_records_the_bare_template():
    recorded = client.load_fixture(FIXTURES, "golden", "golden-1", 1)
    assert recorded.messages == ({"role": "user", "content": prompts.template_text("exp1")},)
    assert recorded.request_params == config.SAMPLING


# -- extraction -------------------------------------------------------------------


def transcript_with(text: str) -> client.LLMTranscript:
    return client.LLMTranscript(
        provider="prov",
        model="mod",
        request_params={},
        messages=({"role": "user", "content": "q"},),
        response_text=text,
        timestamp="",
        token_counts={},
    )


SPEC_BLOCK = """```dcm-spec
spec m1
alt car bus
param asc_bus
param b_time generic
U(car) = b_time * time_car
U(bus) = asc_bus + b_time * time_bus
```"""


def test_extracts_spec_and_matching_claims():
    text = (
        "Here is my model.\n\n" + SPEC_BLOCK + "\n\nFit summary:\n\n"
        "```dcm-claims\n# name  LL  AIC  BIC\nm1  -950.1, 1904.2 | 1914.0\n```\n"
    )
    got = extract.extract_specs(transcript_with(text))
    assert [s.name for s in got.specs] == ["m1"]
    assert got.claimed == (extract.Claim("m1", -950.1, 1904.2, 1914.0),)
    assert got.diagnostics == ()


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_too_deep_expression_is_a_diagnostic(shape):
    """Before: RecursionError out of extract_specs, ending run and suggest."""
    deep = SPEC_BLOCK.replace("b_time * time_car", nested(shape, 1000).replace("b_x", "b_time"))
    got = extract.extract_specs(transcript_with(deep + "\n" + SPEC_BLOCK.replace("m1", "m2")))
    assert [s.name for s in got.specs] == ["m2"]
    assert got.diagnostics == ("spec block 1 rejected: line 5: expression nests deeper than 100 levels",)


def test_claim_with_loglik_only():
    text = SPEC_BLOCK + "\n```dcm-claims\nm1 -9.5e2\n```\n"
    got = extract.extract_specs(transcript_with(text))
    assert got.claimed == (extract.Claim("m1", -950.0, None, None),)


def test_orphaned_claim_reported_not_crashed():
    text = SPEC_BLOCK + "\n```dcm-claims\nghost -1.0\n```\n"
    got = extract.extract_specs(transcript_with(text))
    assert got.claimed == ()
    assert any("orphaned claim for 'ghost'" in d for d in got.diagnostics)


def test_duplicate_spec_names_keep_first():
    text = SPEC_BLOCK + "\n" + SPEC_BLOCK
    got = extract.extract_specs(transcript_with(text))
    assert len(got.specs) == 1
    assert any("duplicate spec name" in d for d in got.diagnostics)


def test_duplicate_claims_keep_first():
    text = SPEC_BLOCK + "\n```dcm-claims\nm1, -100.0\nm1, -900.0\n```\n"
    got = extract.extract_specs(transcript_with(text))
    assert got.claimed == (extract.Claim("m1", -100.0, None, None),)
    assert got.diagnostics == ("duplicate claim for 'm1'; later line ignored",)


def test_malformed_spec_block_reported():
    text = "```dcm-spec\nspec broken\nalt car bus\nU(car) = b_missing * time_car\n```"
    got = extract.extract_specs(transcript_with(text))
    assert got.specs == ()
    assert any("rejected" in d for d in got.diagnostics)
    assert any("no machine-readable specification" in d for d in got.diagnostics)


def test_prose_only_answer_flagged():
    got = extract.extract_specs(transcript_with("I would include time and cost."))
    assert got.specs == ()
    assert got.diagnostics == ("no machine-readable specification found",)


def test_unparseable_claim_line_flagged():
    text = SPEC_BLOCK + "\n```dcm-claims\nm1 other -1.0\n```\n"
    got = extract.extract_specs(transcript_with(text))
    assert got.claimed == ()
    assert any("not parseable" in d for d in got.diagnostics)


# -- replay and persistence --------------------------------------------------------


def test_fixture_round_trip(tmp_path):
    t = transcript_with("hello ```dcm-spec``` world")
    path = client.write_fixture(t, tmp_path, exp_id=3)
    assert path == tmp_path / "prov" / "mod" / "exp3.json"
    back = client.load_fixture(tmp_path, "prov", "mod", 3)
    assert back == t


def test_fixture_missing(tmp_path):
    with pytest.raises(client.FixtureMissing):
        client.load_fixture(tmp_path, "prov", "mod", 1)


def test_recorded_fixtures_replay_byte_identically():
    first = client.load_fixture(FIXTURES, "alpha", "alpha-large", 1)
    second = client.load_fixture(FIXTURES, "alpha", "alpha-large", 1)
    assert first == second
    assert first.provider == "alpha"
    got = extract.extract_specs(first)
    assert len(got.specs) == 3


def test_recorded_providers_finds_models_at_any_depth(tmp_path):
    """A model name may hold ``/``: each directory below ``<root>/<provider>`` that
    holds an ``exp*.json`` is one model, whatever its depth and experiment."""
    for model, exp_id in (("plain", 1), ("org/large", 1), ("org/small/v2", 3)):
        t = dataclasses.replace(transcript_with("x"), provider="alpha", model=model)
        client.write_fixture(t, tmp_path, exp_id)
    (tmp_path / "alpha/empty").mkdir()
    (tmp_path / "alpha/exp1.json").write_text("{}", encoding="utf-8")  # no model directory
    got = client.recorded_providers(tmp_path, "alpha")
    assert got == [config.ProviderConfig(name="alpha", model=m) for m in ("org/large", "org/small/v2", "plain")]
    with pytest.raises(client.FixtureMissing, match="no fixtures under"):
        client.recorded_providers(tmp_path, "ghost")
    with pytest.raises(ValueError, match="not an identifier"):
        client.recorded_providers(tmp_path, "../alpha")


# -- live transport -----------------------------------------------------------------


class FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "body": json, "headers": headers})
        out = self.outcomes.pop(0)
        if isinstance(out, Exception):
            raise out
        return out


OK_PAYLOAD = {
    "choices": [{"message": {"content": "the answer"}}],
    "usage": {"prompt_tokens": 12, "completion_tokens": 3, "note": "free"},
}


@pytest.fixture()
def live_env(monkeypatch):
    monkeypatch.setenv("PROV_API_KEY", "secret-key")
    monkeypatch.setenv("PROV_BASE_URL", "https://api.example/v1")
    monkeypatch.setattr(client.time, "sleep", lambda s: None)


@pytest.fixture()
def bundle(synth_data):
    return prompts.build_prompt(config.experiment(5), synth_data)


PROVIDER = config.ProviderConfig(name="prov", model="mod")


def test_live_requires_api_key(monkeypatch, bundle):
    monkeypatch.delenv("PROV_API_KEY", raising=False)
    with pytest.raises(client.AuthError, match="PROV_API_KEY"):
        client.complete(bundle, PROVIDER, session=FakeSession([]))


def test_live_requires_endpoint(live_env, bundle, monkeypatch):
    monkeypatch.delenv("PROV_BASE_URL")
    with pytest.raises(client.TransportError, match="PROV_BASE_URL"):
        client.complete(bundle, PROVIDER, session=FakeSession([]))


def test_live_call_shape_and_transcript(live_env, bundle, tmp_path):
    session = FakeSession([FakeResponse(200, OK_PAYLOAD)])
    t = client.complete(bundle, PROVIDER, transcript_dir=tmp_path, session=session)
    call = session.calls[0]
    assert call["url"] == "https://api.example/v1/chat/completions"
    assert call["headers"]["Authorization"] == "Bearer secret-key"
    assert call["body"]["model"] == "mod"
    assert call["body"]["temperature"] == 1.2
    assert call["body"]["messages"] == [{"role": "user", "content": bundle.as_user_message()}]
    assert t.response_text == "the answer"
    assert t.token_counts == {"completion_tokens": 3, "prompt_tokens": 12}
    # kept before return, where a replay reads it
    assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.json")] == ["prov/mod/exp5.json"]
    assert client.complete(bundle, PROVIDER, replay_dir=tmp_path) == t


def test_live_rerun_overwrites_its_transcript(live_env, bundle, tmp_path):
    for text in ("first", "second"):
        payload = {**OK_PAYLOAD, "choices": [{"message": {"content": text}}]}
        session = FakeSession([FakeResponse(200, payload)])
        client.complete(bundle, PROVIDER, transcript_dir=tmp_path, session=session)
    assert len(list(tmp_path.rglob("*.json"))) == 1
    assert client.load_fixture(tmp_path, "prov", "mod", 5).response_text == "second"


def test_live_retries_on_429_then_succeeds(live_env, bundle, monkeypatch):
    naps = []
    monkeypatch.setattr(client.time, "sleep", naps.append)
    session = FakeSession(
        [FakeResponse(429), FakeResponse(429), FakeResponse(200, OK_PAYLOAD)]
    )
    t = client.complete(bundle, PROVIDER, session=session)
    assert t.response_text == "the answer"
    assert naps == [1.0, 2.0]  # exponential backoff


def test_live_rate_limit_exhausted(live_env, bundle):
    session = FakeSession([FakeResponse(429)] * client.RETRY_ATTEMPTS)
    with pytest.raises(client.RateLimited):
        client.complete(bundle, PROVIDER, session=session)
    assert len(session.calls) == client.RETRY_ATTEMPTS


def test_live_auth_rejection(live_env, bundle):
    session = FakeSession([FakeResponse(401)])
    with pytest.raises(client.AuthError):
        client.complete(bundle, PROVIDER, session=session)


def test_live_server_error(live_env, bundle):
    session = FakeSession([FakeResponse(500, text="boom")])
    with pytest.raises(client.TransportError, match="500"):
        client.complete(bundle, PROVIDER, session=session)


def test_live_network_failure(live_env, bundle):
    session = FakeSession([requests.ConnectionError("refused")])
    with pytest.raises(client.TransportError, match="failed"):
        client.complete(bundle, PROVIDER, session=session)


def test_live_malformed_payload(live_env, bundle):
    session = FakeSession([FakeResponse(200, {"choices": []})])
    with pytest.raises(client.TransportError, match="malformed"):
        client.complete(bundle, PROVIDER, session=session)


# 200 responses of a shape no completion has, each of which used to end a run in an
# exception that is not a LogitlabError
MALFORMED_PAYLOADS = {
    "not JSON": requests.exceptions.JSONDecodeError("Expecting value", "<html>", 0),
    "null content": {**OK_PAYLOAD, "choices": [{"message": {"content": None}}]},
    "usage not an object": {**OK_PAYLOAD, "usage": "free"},
}


@pytest.mark.parametrize("payload", MALFORMED_PAYLOADS.values(), ids=MALFORMED_PAYLOADS)
def test_live_payload_of_the_wrong_shape(live_env, bundle, payload):
    session = FakeSession([FakeResponse(200, payload)])
    with pytest.raises(client.TransportError, match="^malformed completion payload from 'prov'$"):
        client.complete(bundle, PROVIDER, session=session)


def test_live_payload_without_usage_counts_no_tokens(live_env, bundle):
    for usage in ({}, {"usage": None}):
        payload = {"choices": OK_PAYLOAD["choices"], **usage}
        t = client.complete(bundle, PROVIDER, session=FakeSession([FakeResponse(200, payload)]))
        assert t.token_counts == {}
