"""Pull machine-readable specifications and claims out of transcripts.

Extraction is a total function: malformed blocks, duplicate names,
duplicate and orphaned claims all land in ``diagnostics`` instead of
raising, because a garbled LLM answer is a data point, not a crash.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from logitlab.llmgate.client import LLMTranscript
from logitlab.specdsl.parser import NUMBER_RE, SpecDslError, UtilitySpec, parse_spec

_BLOCK_RE = re.compile(r"```[ \t]*(dcm-spec|dcm-claims)[ \t]*\n(.*?)\n[ \t]*```", re.DOTALL)


@dataclass(frozen=True)
class Claim:
    """LLM-reported fit for one spec, to be checked by re-estimation."""

    spec_name: str
    loglik: float
    aic: float | None = None
    bic: float | None = None


@dataclass(frozen=True)
class SpecExtraction:
    specs: tuple[UtilitySpec, ...]
    claimed: tuple[Claim, ...]
    diagnostics: tuple[str, ...]


def _parse_claims(body: str, diagnostics: list[str]) -> list[Claim]:
    claims = []
    for lineno, raw in enumerate(body.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = [f for f in re.split(r"[,\s|]+", line) if f]
        numbers = [f for f in fields if NUMBER_RE.match(f)]
        names = [f for f in fields if not NUMBER_RE.match(f)]
        if len(names) != 1 or not numbers:
            diagnostics.append(f"claims line {lineno} not parseable: {raw.strip()!r}")
            continue
        values = [float(x) for x in numbers[:3]]
        if not all(map(math.isfinite, values)):  # 1e999: inf, which the run would save as null
            diagnostics.append(f"claims line {lineno}: number out of range")
            continue
        claims.append(
            Claim(
                spec_name=names[0],
                loglik=values[0],
                aic=values[1] if len(values) > 1 else None,
                bic=values[2] if len(values) > 2 else None,
            )
        )
    return claims


def extract_specs(transcript: LLMTranscript) -> SpecExtraction:
    """All dcm-spec blocks parsed, claims matched to them by name."""
    diagnostics: list[str] = []
    specs: list[UtilitySpec] = []
    claims: list[Claim] = []
    spec_blocks = 0

    for match in _BLOCK_RE.finditer(transcript.response_text):
        tag, body = match.group(1), match.group(2)
        if tag == "dcm-claims":
            claims.extend(_parse_claims(body, diagnostics))
            continue
        spec_blocks += 1
        try:
            spec = parse_spec(body)
        except SpecDslError as exc:
            diagnostics.append(f"spec block {spec_blocks} rejected: {exc}")
            continue
        if any(s.name == spec.name for s in specs):
            diagnostics.append(f"duplicate spec name '{spec.name}'; later block ignored")
            continue
        specs.append(spec)

    if not specs:
        diagnostics.append("no machine-readable specification found")

    names = {s.name for s in specs}
    kept: dict[str, Claim] = {}
    for claim in claims:
        if claim.spec_name not in names:
            diagnostics.append(
                f"orphaned claim for '{claim.spec_name}': no matching spec block, cannot verify"
            )
        elif claim.spec_name in kept:
            diagnostics.append(f"duplicate claim for '{claim.spec_name}'; later line ignored")
        else:
            kept[claim.spec_name] = claim

    return SpecExtraction(
        specs=tuple(specs), claimed=tuple(kept.values()), diagnostics=tuple(diagnostics)
    )
