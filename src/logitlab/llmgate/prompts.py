"""Prompt bundles: verbatim template + data attachments.

Templates are stored assets and are never edited at runtime; the machine
format addendum is appended after the template so the original text stays
byte-identical for fidelity checks.  Every bundle carries the data
description; only full-information bundles carry the raw CSV.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from logitlab.dataset import Dataset, describe, format_csv
from logitlab.llmgate.config import FULL, ExperimentConfig


def template_text(name: str) -> str:
    """Raw text of a stored template asset (e.g. 'exp1', 'format_addendum')."""
    return (
        resources.files("logitlab.llmgate")
        .joinpath(f"templates/{name}.txt")
        .read_text(encoding="utf-8")
    )


@dataclass(frozen=True)
class PromptBundle:
    experiment_id: int
    prompt_text: str
    description: str
    csv: str | None  # None in limited-information experiments

    def as_user_message(self) -> str:
        """Single chat message: prompt followed by inlined attachments."""
        parts = [self.prompt_text, "## Data description\n\n" + self.description]
        if self.csv is not None:
            parts.append("## Data (CSV)\n\n```csv\n" + self.csv + "```")
        return "\n\n".join(parts)


def build_prompt(
    config: ExperimentConfig, dataset: Dataset, paper_faithful: bool = False
) -> PromptBundle:
    """Compose the prompt bundle for one experiment.

    ``paper_faithful`` sends the verbatim template without the
    machine-format addendum.
    """
    text = template_text(f"exp{config.id}")
    if not paper_faithful:
        text = text.rstrip("\n") + "\n\n" + template_text("format_addendum")

    description = describe(dataset)
    csv_text = format_csv(dataset) if config.information == FULL else None
    return PromptBundle(config.id, text, description, csv_text)
