"""End-to-end experiment orchestration.

For each provider: one transcript (live or replayed), every extracted
spec bound, estimated, measured and validated independently, and any
claimed log-likelihood cross-checked against the re-estimated one.  A
failure inside one spec's pipeline produces a diagnostic record and never
aborts the run.

Persistence is deterministic: one JSON document per (experiment,
provider) under ``runs/expN/<provider>.json`` plus a manifest carrying
content hashes of the inputs, with sorted keys and no timestamps, so
replayed runs are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from logitlab.dataset import Dataset, format_csv, write_dictionary
from logitlab.engine.bfgs import EstimationResult, estimate
from logitlab.jsonio import dump_json, finite_fields, finite_or_none
from logitlab.llmgate.client import FixtureMissing, complete
from logitlab.llmgate.config import ExperimentConfig, ProviderConfig, experiment
from logitlab.llmgate.extract import Claim, extract_specs
from logitlab.llmgate.prompts import build_prompt
from logitlab.metrics import FitStats, MissingCoefficient, VotEstimate, information_criteria, value_of_time
from logitlab.specdsl.analysis import SpecStats, analyze_structure
from logitlab.specdsl.binding import bind
from logitlab.specdsl.parser import UtilitySpec, parse_spec
from logitlab.specdsl.serialize import serialize_spec
from logitlab.validate import ValidationReport, check_model

REPRODUCTION_ABS_TOL = 0.5
REPRODUCTION_REL_TOL = 5e-4

REPRODUCED = "reproduced"
NOT_REPRODUCED = "not_reproduced"


class RunError(Exception):
    """No provider produced a transcript; nothing to report."""


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
    spec: UtilitySpec
    stats: SpecStats | None = None
    estimation: EstimationResult | None = None
    fit: FitStats | None = None
    vot: VotEstimate | None = None
    validation: ValidationReport | None = None
    claimed: Claim | None = None
    reproduction: ReproductionVerdict | None = None
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple[Record, ...]
    diagnostics: tuple[str, ...] = ()


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
    mode: str = "replay",
    replay_dir: str | Path | None = None,
    out_dir: str | Path | None = None,
    transcript_dir: str | Path | None = None,
    paper_faithful: bool = False,
) -> ExperimentResult:
    """Run one experiment over a list of providers.

    Raises :class:`RunError` only when no provider yields a transcript;
    per-provider and per-spec failures are reported as diagnostics.
    """
    if isinstance(config, int):
        config = experiment(config)
    if not providers:
        raise RunError("no providers given")

    bundle = build_prompt(config, dataset, paper_faithful=paper_faithful)
    records: list[Record] = []
    diagnostics: list[str] = list(bundle.diagnostics)
    transcripts = 0

    for provider in providers:
        try:
            transcript = complete(
                bundle, provider, mode=mode, replay_dir=replay_dir, transcript_dir=transcript_dir
            )
        except FixtureMissing as exc:
            diagnostics.append(f"{provider.name}/{provider.model}: fixture missing ({exc})")
            continue
        transcripts += 1

        extraction = extract_specs(transcript)
        diagnostics.extend(f"{provider.name}/{provider.model}: {d}" for d in extraction.diagnostics)
        claims = {c.spec_name: c for c in extraction.claimed}
        for spec in extraction.specs:
            spec.metadata["experiment"] = str(config.id)
            records.append(_process_spec(spec, dataset, provider, claims))

    if transcripts == 0:
        raise RunError(f"experiment {config.id}: no transcripts from any provider")

    records.sort(key=lambda r: (r.provider, r.model, natural_key(r.spec_name)))
    result = ExperimentResult(config=config, records=tuple(records), diagnostics=tuple(diagnostics))
    if out_dir is not None:
        save_result(result, out_dir, dataset)
    return result


# -- persistence ----------------------------------------------------------


def _vot_dict(v: VotEstimate) -> dict:
    return {
        "value": finite_or_none(v.value),
        "per_alternative": {a: finite_or_none(x) for a, x in sorted(v.per_alternative.items())},
        "reliable": v.reliable,
        "notes": v.notes,
    }


def _validation_dict(v: ValidationReport) -> dict:
    return {
        "has_asc": v.has_asc,
        "converged": v.converged,
        "sign_violations": [
            {"parameter": s["parameter"], "estimate": finite_or_none(s["estimate"])}
            for s in v.sign_violations
        ],
        "insignificant_core": list(v.insignificant_core),
        "exclusion": v.exclusion,
        "notes": v.notes,
    }


def record_to_dict(record: Record) -> dict:
    return {
        "provider": record.provider,
        "model": record.model,
        "spec_name": record.spec_name,
        "spec_text": serialize_spec(record.spec),
        "stats": asdict(record.stats) if record.stats else None,
        "estimation": record.estimation.as_dict() if record.estimation else None,
        "fit": finite_fields(record.fit) if record.fit else None,
        "vot": _vot_dict(record.vot) if record.vot else None,
        "validation": _validation_dict(record.validation) if record.validation else None,
        "claimed": finite_fields(record.claimed) if record.claimed else None,
        "reproduction": finite_fields(record.reproduction) if record.reproduction else None,
        "diagnostics": list(record.diagnostics),
    }


def estimation_from_dict(d: dict) -> EstimationResult:
    def num(x, missing):
        return missing if x is None else float(x)

    params = d["parameters"]
    return EstimationResult(
        names=tuple(p["name"] for p in params),
        estimates=np.array([num(p["estimate"], math.nan) for p in params]),
        std_errors=np.array([num(p["std_error"], math.nan) for p in params]),
        t_ratios=np.array([num(p["t_ratio"], math.nan) for p in params]),
        loglik=num(d["loglik"], -math.inf),
        null_loglik=num(d["null_loglik"], -math.inf),
        iterations=d["iterations"],
        converged=d["converged"],
        convergence_reason=d["convergence_reason"],
        hessian_pd=d["hessian_pd"],
    )


def record_from_dict(d: dict) -> Record:
    def num(x, missing=math.nan):
        return missing if x is None else float(x)

    stats = SpecStats(**d["stats"]) if d["stats"] else None
    fit = (
        FitStats(
            loglik=num(d["fit"]["loglik"], -math.inf),
            k=d["fit"]["k"],
            n=d["fit"]["n"],
            aic=num(d["fit"]["aic"], math.inf),
            bic=num(d["fit"]["bic"], math.inf),
        )
        if d["fit"]
        else None
    )
    vot = (
        VotEstimate(
            value=num(d["vot"]["value"]),
            per_alternative={a: num(x) for a, x in d["vot"]["per_alternative"].items()},
            reliable=d["vot"]["reliable"],
            notes=d["vot"]["notes"],
        )
        if d["vot"]
        else None
    )
    validation = (
        ValidationReport(
            has_asc=d["validation"]["has_asc"],
            converged=d["validation"]["converged"],
            sign_violations=tuple(
                {"parameter": s["parameter"], "estimate": num(s["estimate"])}
                for s in d["validation"]["sign_violations"]
            ),
            insignificant_core=tuple(d["validation"]["insignificant_core"]),
            exclusion=d["validation"]["exclusion"],
            notes=d["validation"]["notes"],
        )
        if d["validation"]
        else None
    )
    claimed = (
        Claim(
            spec_name=d["claimed"]["spec_name"],
            loglik=num(d["claimed"]["loglik"]),
            aic=d["claimed"]["aic"],
            bic=d["claimed"]["bic"],
        )
        if d["claimed"]
        else None
    )
    reproduction = (
        ReproductionVerdict(
            claimed_ll=num(d["reproduction"]["claimed_ll"]),
            reestimated_ll=num(d["reproduction"]["reestimated_ll"]),
            delta=num(d["reproduction"]["delta"]),
            verdict=d["reproduction"]["verdict"],
        )
        if d["reproduction"]
        else None
    )
    return Record(
        provider=d["provider"],
        model=d["model"],
        spec_name=d["spec_name"],
        spec=parse_spec(d["spec_text"]),
        stats=stats,
        estimation=estimation_from_dict(d["estimation"]) if d["estimation"] else None,
        fit=fit,
        vot=vot,
        validation=validation,
        claimed=claimed,
        reproduction=reproduction,
        diagnostics=tuple(d["diagnostics"]),
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_result(result: ExperimentResult, out_dir: str | Path, dataset: Dataset) -> Path:
    """Write per-provider result documents and the run manifest."""
    exp_dir = Path(out_dir) / f"exp{result.config.id}"
    exp_dir.mkdir(parents=True, exist_ok=True)

    by_provider: dict[str, list[Record]] = {}
    for record in result.records:
        by_provider.setdefault(record.provider, []).append(record)

    config_dict = {
        "id": result.config.id,
        "information": result.config.information,
        "strategy": result.config.strategy,
        "goal": result.config.goal,
    }
    files: dict[str, str] = {}
    for provider in sorted(by_provider):
        doc = {
            "config": config_dict,
            "provider": provider,
            "records": [record_to_dict(r) for r in by_provider[provider]],
            "diagnostics": sorted(
                d for d in result.diagnostics if d.startswith(f"{provider}/")
            ),
        }
        payload = dump_json(doc)
        (exp_dir / f"{provider}.json").write_text(payload, encoding="utf-8")
        files[f"{provider}.json"] = _sha256(payload)

    manifest = {
        "experiment": result.config.id,
        "dataset_sha256": _sha256(format_csv(dataset)),
        "dictionary_sha256": _sha256(write_dictionary(dataset.dictionary)),
        "diagnostics": list(result.diagnostics),
        "result_files": files,
    }
    path = exp_dir / "manifest.json"
    path.write_text(dump_json(manifest), encoding="utf-8")
    return path


def load_results(runs_dir: str | Path) -> list[ExperimentResult]:
    """Read every persisted experiment under a runs directory."""
    out: list[ExperimentResult] = []
    root = Path(runs_dir)
    for exp_dir in sorted(root.glob("exp*")):
        if not exp_dir.is_dir():
            continue
        records: list[Record] = []
        diagnostics: list[str] = []
        config = None
        for doc_path in sorted(exp_dir.glob("*.json")):
            if doc_path.name == "manifest.json":
                diagnostics.extend(json.loads(doc_path.read_text())["diagnostics"])
                continue
            doc = json.loads(doc_path.read_text(encoding="utf-8"))
            config = ExperimentConfig(**doc["config"])
            records.extend(record_from_dict(d) for d in doc["records"])
        if config is None:
            continue
        records.sort(key=lambda r: (r.provider, r.model, natural_key(r.spec_name)))
        out.append(
            ExperimentResult(config=config, records=tuple(records), diagnostics=tuple(diagnostics))
        )
    return out
