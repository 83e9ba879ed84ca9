"""Experiment and provider configuration.

Exactly five experiment presets exist, crossing information setting,
prompting strategy and modelling goal; attempting to construct any other
combination is an error.
"""

from __future__ import annotations

from dataclasses import dataclass

FULL = "full"
LIMITED = "limited"
ZERO_SHOT = "zero_shot"
CHAIN_OF_THOUGHT = "chain_of_thought"
SUGGEST = "suggest"
SUGGEST_AND_ESTIMATE = "suggest_and_estimate"

_PRESETS = {
    1: (FULL, ZERO_SHOT, SUGGEST_AND_ESTIMATE),
    2: (FULL, CHAIN_OF_THOUGHT, SUGGEST_AND_ESTIMATE),
    3: (FULL, ZERO_SHOT, SUGGEST),
    4: (FULL, CHAIN_OF_THOUGHT, SUGGEST),
    5: (LIMITED, ZERO_SHOT, SUGGEST),
}
EXPERIMENT_IDS = tuple(_PRESETS)


@dataclass(frozen=True)
class ExperimentConfig:
    id: int
    information: str
    strategy: str
    goal: str

    def __post_init__(self):
        preset = _PRESETS.get(self.id)
        if preset is None:
            raise ValueError(f"unknown experiment id {self.id}")
        if (self.information, self.strategy, self.goal) != preset:
            raise ValueError(
                f"experiment {self.id} is {'/'.join(preset)}, "
                f"not {self.information}/{self.strategy}/{self.goal}"
            )


def experiment(exp_id: int) -> ExperimentConfig:
    """The preset configuration for one of the five experiments."""
    if exp_id not in _PRESETS:
        raise ValueError(f"unknown experiment id {exp_id}")
    info, strategy, goal = _PRESETS[exp_id]
    return ExperimentConfig(exp_id, info, strategy, goal)


# API generation controls of every completion, live or recorded.
SAMPLING = {"temperature": 1.2, "top_p": 0.95, "max_tokens": 8192}


@dataclass(frozen=True)
class ProviderConfig:
    """One chat-completions endpoint.

    Credentials come from ``<NAME>_API_KEY`` and the base URL from
    ``<NAME>_BASE_URL``.  Both names also name files, so the provider name is an
    identifier and the model name a relative path of named segments (``org/model``).
    """

    name: str
    model: str

    def __post_init__(self):
        check_provider_name(self.name)
        if any(part in ("", ".", "..") for part in self.model.split("/")):
            raise ValueError(f"model name '{self.model}' is not a relative path of named segments")

    @property
    def key_env(self) -> str:
        return f"{self.name.upper()}_API_KEY"

    @property
    def url_env(self) -> str:
        return f"{self.name.upper()}_BASE_URL"


def check_provider_name(name: str) -> None:
    """ValueError unless ``name`` is an identifier, as a file name and an environment variable."""
    if not name.isidentifier():
        raise ValueError(f"provider name '{name}' is not an identifier")
