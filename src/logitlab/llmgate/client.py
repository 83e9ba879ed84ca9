"""Chat-completions client: recorded fixtures replayed, or one live call.

The one owner of the transcript layout ``<root>/<provider>/<model>/exp<id>.json``:
given a fixture directory, a completion is the transcript recorded there,
returned byte-identically.  Without one, it is exactly one live call (no
regeneration) with the fixed :data:`~logitlab.llmgate.config.SAMPLING`, its
transcript written in that layout before anyone parses it.  ``requests`` is
imported only on the live path, so replay runs and the CLI start without it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

from logitlab import LogitlabError
from logitlab.jsonio import dump_json, load_json
from logitlab.llmgate.config import SAMPLING, ProviderConfig, check_provider_name

if TYPE_CHECKING:
    from logitlab.llmgate.prompts import PromptBundle

RETRY_ATTEMPTS = 5
RETRY_BASE_DELAY = 1.0  # seconds, doubled per attempt

# Inlined-CSV budget of a live call, in estimated tokens (~4 chars per
# token).  Deliberately generous; the reference dataset is ~60k tokens.
MAX_ATTACHMENT_TOKENS = 200_000


class AuthError(LogitlabError):
    pass


class RateLimited(LogitlabError):
    pass


class FixtureMissing(LogitlabError):
    pass


class TransportError(LogitlabError):
    pass


class AttachmentTooLarge(LogitlabError):
    """Inlined CSV exceeds the attachment token budget of a live call."""


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
    """Store a transcript where :func:`load_fixture` reads it, replacing any earlier one."""
    path = fixture_path(root, transcript.provider, transcript.model, exp_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_json(transcript), encoding="utf-8")
    return path


def recorded_providers(root: str | Path, name: str) -> list[ProviderConfig]:
    """One provider per model recorded for ``name`` under ``root``: every directory
    below ``<root>/<name>``, at any depth, that holds an ``exp*.json``."""
    check_provider_name(name)
    base = Path(root) / name
    models = sorted({p.parent.relative_to(base).as_posix() for p in base.glob("*/**/exp*.json")})
    if not models:
        raise FixtureMissing(f"no fixtures under {base}")
    return [ProviderConfig(name=name, model=m) for m in models]


def _live_call(bundle: PromptBundle, provider: ProviderConfig, session) -> LLMTranscript:
    import requests

    tokens = 0 if bundle.csv is None else len(bundle.csv) // 4
    if tokens > MAX_ATTACHMENT_TOKENS:
        raise AttachmentTooLarge(f"csv attachment is ~{tokens} tokens, budget {MAX_ATTACHMENT_TOKENS}")
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

    Replayed transcripts are returned exactly as stored; a live one is
    written to ``transcript_dir`` (when given) by :func:`write_fixture`
    before being returned, so ``transcript_dir`` replays it.
    """
    if replay_dir is not None:
        return load_fixture(replay_dir, provider.name, provider.model, bundle.experiment_id)
    if session is None:
        import requests

        session = requests.Session()
    transcript = _live_call(bundle, provider, session)
    if transcript_dir is not None:
        write_fixture(transcript, transcript_dir, bundle.experiment_id)
    return transcript
