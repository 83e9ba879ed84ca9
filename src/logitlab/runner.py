"""End-to-end experiment orchestration.

For each provider: one transcript (live or replayed), every extracted
spec bound, estimated, measured and validated independently, and any
claimed log-likelihood cross-checked against the re-estimated one.  A
failure inside one spec's pipeline produces a diagnostic record and never
aborts the run.

Persistence is deterministic: one JSON document per experiment,
``runs/expN/results.json``, holding the :class:`ExperimentResult` that
:func:`run_experiment` returned and :mod:`logitlab.report` reads, with
sorted keys and no timestamps, so replayed runs are byte-identical.  It is
written and read back by the dataclass codec in :mod:`logitlab.jsonio`,
one key per field (a record's spec as its text, under ``spec_text``), so a
field added to :class:`Record` or to one of its parts is persisted without
code here.

Reading results needs no numpy, so a process that only loads them, such as
a ``report`` command, never imports it.  The five layers that do
(``format_csv``, ``write_dictionary``, ``bind``, ``estimate`` and
``build_prompt``) are bound as module globals on first use: by
:func:`run_experiment` before its first call, or by an attribute lookup on
this module.  A name already bound, by a tracer's wrapper or a test's
patch, is kept, and every call looks the name up here.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from logitlab import LogitlabError
from logitlab.engine.result import EstimationResult
from logitlab.jsonio import dump_json, load_json
from logitlab.llmgate.client import AuthError, FixtureMissing, RateLimited, TransportError, complete
from logitlab.llmgate.config import EXPERIMENT_IDS, ExperimentConfig, ProviderConfig, experiment
from logitlab.llmgate.extract import Claim, extract_specs
from logitlab.metrics import FitStats, MissingCoefficient, VotEstimate, information_criteria, value_of_time
from logitlab.specdsl.analysis import SpecStats, analyze_structure
# parse_spec is not called here; bench/spans.py wraps this module's name for it.
from logitlab.specdsl.parser import UtilitySpec, parse_spec  # noqa: F401
from logitlab.validate import ValidationReport, check_model

if TYPE_CHECKING:
    from logitlab.dataset import Dataset

# The layers that import numpy, by the module that defines each; see the module docstring.
_NUMPY_LAYERS = {
    "format_csv": "logitlab.dataset",
    "write_dictionary": "logitlab.dataset",
    "bind": "logitlab.specdsl.binding",
    "estimate": "logitlab.engine.bfgs",
    "build_prompt": "logitlab.llmgate.prompts",
}


def _bind_layer(name: str):
    """This module's global ``name``, set to the defining module's function unless already bound."""
    return globals().setdefault(name, getattr(importlib.import_module(_NUMPY_LAYERS[name]), name))


def __getattr__(name: str):
    if name in _NUMPY_LAYERS:
        return _bind_layer(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

REPRODUCTION_ABS_TOL = 0.5
REPRODUCTION_REL_TOL = 5e-4

REPRODUCED = "reproduced"
NOT_REPRODUCED = "not_reproduced"


class RunError(LogitlabError):
    """A provider list that cannot run, or no provider produced a transcript."""


@dataclass(frozen=True)
class ReproductionVerdict:
    claimed_ll: float
    reestimated_ll: float
    delta: float
    verdict: str


def crosscheck(claim: Claim, estimation: EstimationResult) -> ReproductionVerdict:
    """Compare a claimed log-likelihood with the independent re-estimate.

    The tolerance ``max(0.5, 5e-4 * |LL|)`` absorbs optimizer and
    rounding differences while catching fabricated numbers.
    """
    delta = claim.loglik - estimation.loglik
    tol = max(REPRODUCTION_ABS_TOL, REPRODUCTION_REL_TOL * abs(estimation.loglik))
    verdict = REPRODUCED if abs(delta) <= tol else NOT_REPRODUCED
    return ReproductionVerdict(
        claimed_ll=claim.loglik,
        reestimated_ll=estimation.loglik,
        delta=delta,
        verdict=verdict,
    )


@dataclass(frozen=True)
class Record:
    """Everything known about one extracted specification."""

    provider: str
    model: str
    spec_name: str
    spec: UtilitySpec = field(metadata={"key": "spec_text"})
    stats: SpecStats | None = None
    estimation: EstimationResult | None = None
    fit: FitStats | None = None
    vot: VotEstimate | None = None
    validation: ValidationReport | None = None
    claimed: Claim | None = None
    reproduction: ReproductionVerdict | None = None
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.fit is not None and self.estimation is not None and (
            self.fit.loglik != self.estimation.loglik or self.fit.k != self.estimation.n_free
        ):
            raise ValueError(
                f"'fit' has loglik {self.fit.loglik} and k={self.fit.k}, not the estimation's"
                f" {self.estimation.loglik} and {self.estimation.n_free}"
            )

    @property
    def included(self) -> bool:
        """Validated and passed every inclusion rule."""
        return self.validation is not None and self.validation.included


@dataclass(frozen=True)
class ExperimentResult:
    """One experiment's records, sorted by provider, model and spec name, its run's
    diagnostics and the sha256 of its dataset's CSV text and dictionary: the
    document ``runs/expN/results.json``."""

    config: ExperimentConfig
    records: tuple[Record, ...]
    diagnostics: tuple[str, ...]
    dataset_sha256: str
    dictionary_sha256: str


def natural_key(name: str) -> tuple:
    """Sort key where S10 follows S9."""
    return tuple(int(p) if p.isdigit() else p for p in re.split(r"(\d+)", name.lower()))


def _process_spec(
    spec: UtilitySpec,
    dataset: Dataset,
    provider: ProviderConfig,
    claims: dict[str, Claim],
) -> Record:
    diagnostics: list[str] = []
    stats = estimation = fit = vot = validation = reproduction = None
    claim = claims.get(spec.name)

    # Isolation contract: any failure inside one spec's pipeline becomes
    # a diagnostic on its record, never an aborted run.
    try:
        stats = analyze_structure(spec, dataset.dictionary)
        model = bind(spec, dataset)
        estimation = estimate(model)
        fit = information_criteria(estimation.loglik, estimation.n_free, model.n_obs)
        validation = check_model(estimation, spec, dataset.dictionary)
        try:
            vot = value_of_time(estimation, spec, dataset.dictionary)
        except MissingCoefficient as exc:
            diagnostics.append(f"no value of time: {exc}")
        if claim is not None:
            if math.isfinite(estimation.loglik):
                reproduction = crosscheck(claim, estimation)
            else:
                diagnostics.append("cannot verify claim: re-estimation produced no likelihood")
    except Exception as exc:  # noqa: BLE001
        diagnostics.append(f"{type(exc).__name__}: {exc}")

    return Record(
        provider=provider.name,
        model=provider.model,
        spec_name=spec.name,
        spec=spec,
        stats=stats,
        estimation=estimation,
        fit=fit,
        vot=vot,
        validation=validation,
        claimed=claim,
        reproduction=reproduction,
        diagnostics=tuple(diagnostics),
    )


def run_experiment(
    config: ExperimentConfig | int,
    providers: list[ProviderConfig],
    dataset: Dataset,
    replay_dir: str | Path | None = None,
    out_dir: str | Path | None = None,
    paper_faithful: bool = False,
) -> ExperimentResult:
    """Run one experiment over a list of providers.

    Transcripts are replayed from ``replay_dir`` when it is given and
    requested live otherwise; a live one is kept under
    ``<out_dir>/transcripts``, a replay directory, when ``out_dir`` is given.

    Raises :class:`RunError` before any call when a (provider, model) pair is
    given twice, and, listing each provider's failure, when no provider yields
    a transcript; per-provider and per-spec failures are reported as diagnostics.
    """
    for name in _NUMPY_LAYERS:
        _bind_layer(name)
    if isinstance(config, int):
        config = experiment(config)
    if not providers:
        raise RunError("no providers given")
    pairs = [(p.name, p.model) for p in providers]
    for i, (name, model) in enumerate(pairs):
        if (name, model) in pairs[:i]:
            raise RunError(f"provider {name}:{model} is given more than once")

    bundle = build_prompt(config, dataset, paper_faithful=paper_faithful)
    transcript_dir = None if out_dir is None else Path(out_dir) / "transcripts"
    records: list[Record] = []
    diagnostics: list[str] = []
    transcripts = 0

    for provider in providers:
        label = f"{provider.name}/{provider.model}"
        try:
            transcript = complete(bundle, provider, replay_dir=replay_dir, transcript_dir=transcript_dir)
        except FixtureMissing as exc:
            diagnostics.append(f"{label}: fixture missing ({exc})")
            continue
        except (AuthError, RateLimited, TransportError) as exc:
            diagnostics.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        transcripts += 1

        extraction = extract_specs(transcript)
        diagnostics.extend(f"{label}: {d}" for d in extraction.diagnostics)
        claims = {c.spec_name: c for c in extraction.claimed}
        for spec in extraction.specs:
            records.append(_process_spec(spec, dataset, provider, claims))

    if transcripts == 0:
        failures = "; ".join(diagnostics)
        raise RunError(f"experiment {config.id}: no transcripts from any provider: {failures}")

    records.sort(key=lambda r: (r.provider, r.model, natural_key(r.spec_name)))
    result = ExperimentResult(
        config=config,
        records=tuple(records),
        diagnostics=tuple(diagnostics),
        dataset_sha256=_sha256(format_csv(dataset)),
        dictionary_sha256=_sha256(write_dictionary(dataset.dictionary)),
    )
    if out_dir is not None:
        save_result(result, out_dir)
    return result


# -- persistence ----------------------------------------------------------


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_result(result: ExperimentResult, out_dir: str | Path) -> Path:
    """Write ``result`` as ``<out_dir>/exp<id>/results.json``; return that path."""
    exp_dir = Path(out_dir) / f"exp{result.config.id}"
    exp_dir.mkdir(parents=True, exist_ok=True)
    path = exp_dir / "results.json"
    path.write_text(dump_json(result), encoding="utf-8")
    return path


def load_results(runs_dir: str | Path) -> list[ExperimentResult]:
    """Every persisted experiment under a runs directory, in id order.

    Only the documents :func:`save_result` writes, ``exp<N>/results.json`` for
    each experiment id N, are read, so a copy such as ``exp1_old`` is no second
    experiment 1; a document there that holds another experiment is refused.
    """
    out: list[ExperimentResult] = []
    for exp_id in EXPERIMENT_IDS:
        path = Path(runs_dir) / f"exp{exp_id}" / "results.json"
        if not path.is_file():
            continue
        result = load_json(path, ExperimentResult)
        if result.config.id != exp_id:
            raise ValueError(f"{path} holds experiment {result.config.id}, not {exp_id}")
        out.append(result)
    return out
