"""Prompt construction, LLM provider calls, and transcript extraction.

Five experiment configurations cross information setting, prompting
strategy and modelling goal.  Each run composes the configuration's
template (stored verbatim as a package asset), attaches the data
description and, for full-information settings, the raw CSV, then replays
the recorded fixture when given a fixture directory and otherwise makes
one live chat-completions call with fixed sampling.
Responses are persisted before parsing so failed extractions stay
auditable.
"""

from logitlab.llmgate.config import (
    EXPERIMENTS,
    SAMPLING,
    ExperimentConfig,
    ProviderConfig,
    experiment,
)
from logitlab.llmgate.prompts import (
    AttachmentTooLarge,
    PromptBundle,
    build_prompt,
    template_text,
)
from logitlab.llmgate.client import (
    AuthError,
    FixtureMissing,
    LLMTranscript,
    RateLimited,
    TransportError,
    complete,
    load_fixture,
    persist_transcript,
    write_fixture,
)
from logitlab.llmgate.extract import Claim, SpecExtraction, extract_specs

__all__ = [
    "EXPERIMENTS", "SAMPLING", "ExperimentConfig", "ProviderConfig", "experiment",
    "AttachmentTooLarge", "PromptBundle", "build_prompt", "template_text",
    "AuthError", "FixtureMissing", "LLMTranscript", "RateLimited", "TransportError",
    "complete", "load_fixture", "persist_transcript", "write_fixture",
    "Claim", "SpecExtraction", "extract_specs",
]
