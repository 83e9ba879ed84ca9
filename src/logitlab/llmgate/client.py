"""Chat-completions client: recorded fixtures replayed, or one live call.

Given a fixture directory, a completion is the recorded transcript
returned byte-identically from ``<root>/<provider>/<model>/exp<id>.json``,
which is what every test and deterministic run uses.  Without one, it is
exactly one live call (no regeneration): a single user message sent with
the fixed :data:`~logitlab.llmgate.config.SAMPLING`, its transcript
persisted before anyone parses it.  ``requests`` is imported only on the
live path, so replay runs and the CLI start without it.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from logitlab import LogitlabError
from logitlab.jsonio import dump_json, load_json
from logitlab.llmgate.config import SAMPLING, ProviderConfig
from logitlab.llmgate.prompts import PromptBundle

RETRY_ATTEMPTS = 5
RETRY_BASE_DELAY = 1.0  # seconds, doubled per attempt


class AuthError(LogitlabError):
    pass


class RateLimited(LogitlabError):
    pass


class FixtureMissing(LogitlabError):
    pass


class TransportError(LogitlabError):
    pass


@dataclass(frozen=True)
class LLMTranscript:
    provider: str
    model: str
    request_params: dict
    messages: tuple[dict, ...]
    response_text: str
    timestamp: str = ""  # these two may be absent from a stored transcript
    token_counts: dict = field(default_factory=dict)


def fixture_path(root: str | Path, provider: str, model: str, exp_id: int) -> Path:
    return Path(root) / provider / model / f"exp{exp_id}.json"


def load_fixture(root: str | Path, provider: str, model: str, exp_id: int) -> LLMTranscript:
    path = fixture_path(root, provider, model, exp_id)
    if not path.is_file():
        raise FixtureMissing(str(path))
    return load_json(path, LLMTranscript)


def write_fixture(transcript: LLMTranscript, root: str | Path, exp_id: int) -> Path:
    path = fixture_path(root, transcript.provider, transcript.model, exp_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_json(transcript), encoding="utf-8")
    return path


def persist_transcript(transcript: LLMTranscript, directory: str | Path) -> Path:
    """Store a transcript under a content hash; same content, same file."""
    payload = dump_json(transcript)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{digest}.json"
    if not path.exists():
        path.write_text(payload, encoding="utf-8")
    return path


def _live_call(bundle: PromptBundle, provider: ProviderConfig, session) -> LLMTranscript:
    import requests

    key = os.environ.get(provider.key_env)
    if not key:
        raise AuthError(f"set {provider.key_env} for live calls to '{provider.name}'")
    base_url = os.environ.get(provider.url_env)
    if not base_url:
        raise TransportError(f"no endpoint for '{provider.name}': set {provider.url_env}")

    messages = [{"role": "user", "content": bundle.as_user_message()}]
    params = dict(SAMPLING)
    body = {"model": provider.model, "messages": messages, **params}
    url = base_url.rstrip("/") + "/chat/completions"
    headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    delay = RETRY_BASE_DELAY
    for attempt in range(RETRY_ATTEMPTS):
        try:
            resp = session.post(url, json=body, headers=headers, timeout=300)
        except requests.RequestException as exc:
            raise TransportError(f"request to {url} failed: {exc}") from exc
        if resp.status_code == 429:
            if attempt == RETRY_ATTEMPTS - 1:
                raise RateLimited(f"'{provider.name}' still rate-limiting after {RETRY_ATTEMPTS} attempts")
            time.sleep(delay)
            delay *= 2.0
            continue
        if resp.status_code in (401, 403):
            raise AuthError(f"'{provider.name}' rejected credentials ({resp.status_code})")
        if resp.status_code != 200:
            raise TransportError(f"'{provider.name}' returned {resp.status_code}: {resp.text[:200]}")
        data = resp.json()
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion payload from '{provider.name}'") from exc
        usage = data.get("usage") or {}
        return LLMTranscript(
            provider=provider.name,
            model=provider.model,
            request_params=params,
            messages=tuple(messages),
            response_text=text,
            timestamp=datetime.now(timezone.utc).isoformat(),
            token_counts={k: usage[k] for k in sorted(usage) if isinstance(usage[k], int)},
        )
    raise RateLimited(f"'{provider.name}' rate limited")  # not reached


def complete(
    bundle: PromptBundle,
    provider: ProviderConfig,
    replay_dir: str | Path | None = None,
    transcript_dir: str | Path | None = None,
    session=None,
) -> LLMTranscript:
    """One completion for a prompt bundle: replayed from ``replay_dir`` when given, else live.

    Replayed transcripts are returned exactly as stored; live ones are
    persisted to ``transcript_dir`` (when given) before being returned.
    """
    if replay_dir is not None:
        return load_fixture(replay_dir, provider.name, provider.model, bundle.experiment_id)
    if session is None:
        import requests

        session = requests.Session()
    transcript = _live_call(bundle, provider, session)
    if transcript_dir is not None:
        persist_transcript(transcript, transcript_dir)
    return transcript
