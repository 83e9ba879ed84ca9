"""Comparison tables, best-of matrices, structural profiles and exports.

Every number printed here is recomputed from stored estimation results;
tables never echo claimed values.  Markdown for humans, CSV for machines.
Rounding: two decimals for LL/AIC/BIC, three for VoT; exports keep full
precision.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from logitlab.runner import ExperimentResult, Record
from logitlab.validate import (
    EXCLUDED_NO_ASC,
    EXCLUDED_NONCONVERGENCE,
    EXCLUDED_POSITIVE_SIGN,
)

MARKERS = {
    EXCLUDED_NO_ASC: "*",
    EXCLUDED_NONCONVERGENCE: "†",  # dagger
    EXCLUDED_POSITIVE_SIGN: "‡",  # double dagger
}

FOOTNOTES = (
    "\\* No ASCs included. "
    "† Model did not converge. "
    "‡ Positive cost and/or time coefficient."
)


def _fmt2(x: float | None) -> str:
    if x is None or not math.isfinite(x):
        return "-"
    return f"{x:.2f}"


def _fmt3(x: float | None) -> str:
    if x is None or not math.isfinite(x):
        return "-"
    return f"{x:.3f}"


def _model_id(record: Record) -> str:
    return f"{record.provider}/{record.model}"


def summary_table(result: ExperimentResult) -> str:
    """Markdown table of all records in one experiment.

    Excluded rows keep their numbers but carry the exclusion marker on
    the spec name; the best included LL and AIC are bolded.
    """
    cfg = result.config
    lines = [
        f"## Experiment {cfg.id} ({cfg.information} information, {cfg.strategy}, {cfg.goal})",
        "",
        "| Model | Spec | LL | AIC | BIC | VoT |",
        "|---|---|---:|---:|---:|---:|",
    ]

    included = [r for r in result.records if r.included and r.fit is not None]
    best_ll = max((r.fit.loglik for r in included), default=None)
    best_aic = min((r.fit.aic for r in included), default=None)

    for r in result.records:
        name = r.spec_name
        if r.validation is not None and not r.validation.included:
            name += MARKERS.get(r.validation.exclusion, "")
        if r.fit is not None:
            ll, aic, bic = _fmt2(r.fit.loglik), _fmt2(r.fit.aic), _fmt2(r.fit.bic)
            if r.included and best_ll is not None and r.fit.loglik == best_ll:
                ll = f"**{ll}**"
            if r.included and best_aic is not None and r.fit.aic == best_aic:
                aic = f"**{aic}**"
        else:
            ll = aic = bic = "-"
        if r.vot is not None:
            vot = _fmt3(r.vot.value)
            if not r.vot.reliable:
                vot += " (unreliable)"
        else:
            vot = "-"
        lines.append(f"| {_model_id(r)} | {name} | {ll} | {aic} | {bic} | {vot} |")

    lines += ["", FOOTNOTES]
    if not included:
        lines += ["", "warning: no included specifications in this experiment"]
    return "\n".join(lines) + "\n"


def _metric_value(record: Record, metric: str) -> float | None:
    if record.fit is None:
        return None
    value = {"ll": record.fit.loglik, "aic": record.fit.aic, "bic": record.fit.bic}[metric]
    return value if math.isfinite(value) else None


def best_of(results: list[ExperimentResult], metric: str = "ll") -> str:
    """Best included value per (model, experiment), with marginals.

    LL is best when largest, AIC/BIC when smallest.  Ties go to the
    lower experiment id.  A model's best across experiments is left blank,
    with a footnote, unless every experiment was fit to the same dataset.
    """
    if metric not in ("ll", "aic", "bic"):
        raise ValueError(f"unknown metric {metric!r}")
    better = (lambda a, b: a > b) if metric == "ll" else (lambda a, b: a < b)

    exp_ids = sorted(r.config.id for r in results)
    by_dataset: dict[str, list[int]] = {}
    for result in sorted(results, key=lambda r: r.config.id):
        by_dataset.setdefault(result.dataset_sha256, []).append(result.config.id)
    cells: dict[tuple[str, int], float] = {}
    models: set[str] = set()
    for result in results:
        for record in result.records:
            models.add(_model_id(record))
            if not record.included:
                continue
            value = _metric_value(record, metric)
            if value is None:
                continue
            key = (_model_id(record), result.config.id)
            if key not in cells or better(value, cells[key]):
                cells[key] = value

    header = "| Model | " + " | ".join(f"Exp. {i}" for i in exp_ids) + " | Best |"
    rule = "|---|" + "---:|" * (len(exp_ids) + 1)
    lines = [f"## Best {metric.upper()} per model and experiment", "", header, rule]

    for model in sorted(models):
        row = [model]
        best_val, best_exp = None, None
        for exp_id in exp_ids:
            value = cells.get((model, exp_id))
            row.append(_fmt2(value))
            if value is not None and (best_val is None or better(value, best_val)):
                best_val, best_exp = value, exp_id
        if best_val is None or len(by_dataset) > 1:
            row.append("-")
        else:
            row.append(f"{_fmt2(best_val)} (exp {best_exp})")
        lines.append("| " + " | ".join(row) + " |")

    marginal = ["Best model"]
    for exp_id in exp_ids:
        best_val, best_model = None, None
        for model in sorted(models):
            value = cells.get((model, exp_id))
            if value is not None and (best_val is None or better(value, best_val)):
                best_val, best_model = value, model
        marginal.append("-" if best_val is None else f"{_fmt2(best_val)} ({best_model})")
    marginal.append("")
    lines.append("| " + " | ".join(marginal) + " |")

    lines += ["", "Only included specifications count; ties resolve to the lower experiment id."]
    if len(by_dataset) > 1:
        groups = "; ".join(
            f"exp {', '.join(map(str, ids))} on dataset {sha[:12]}" for sha, ids in by_dataset.items()
        )
        lines.append(f"No Best across experiments fit to different data: {groups}.")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class LlmProfile:
    """Structural habits of one model, averaged over everything it wrote."""

    provider: str
    model: str
    avg_n_specs: float
    pct_converged: float
    avg_n_vars: float
    avg_n_params: float
    pct_generic: float
    pct_altspecific: float
    pct_asc_included: float
    avg_socioeconomics: float
    avg_transformations: float
    avg_interactions: float


def llm_profile(results: list[ExperimentResult]) -> list[LlmProfile]:
    """Per-model aggregates across experiments.

    All generated specs count, converged or not (convergence is its own
    percentage); structural averages cover records whose analysis
    succeeded.  avg_n_specs divides by the number of experiments in which
    the model produced at least one spec.
    """
    grouped: dict[tuple[str, str], list[tuple[int, Record]]] = {}
    for result in results:
        for record in result.records:
            grouped.setdefault((record.provider, record.model), []).append(
                (result.config.id, record)
            )

    profiles = []
    for (provider, model) in sorted(grouped):
        pairs = grouped[(provider, model)]
        records = [r for _, r in pairs]
        n_exps = len({exp_id for exp_id, _ in pairs})
        with_stats = [r.stats for r in records if r.stats is not None]
        with_est = [r.estimation for r in records if r.estimation is not None]

        def mean(values) -> float:
            values = list(values)
            return sum(values) / len(values) if values else 0.0

        taste_total = sum(s.n_generic + s.n_altspecific for s in with_stats)
        pct_generic = (
            100.0 * sum(s.n_generic for s in with_stats) / taste_total if taste_total else 0.0
        )
        profiles.append(
            LlmProfile(
                provider=provider,
                model=model,
                avg_n_specs=len(records) / n_exps,
                pct_converged=100.0 * mean(1.0 if e.converged else 0.0 for e in with_est),
                avg_n_vars=mean(s.n_vars for s in with_stats),
                avg_n_params=mean(s.n_params for s in with_stats),
                pct_generic=pct_generic,
                pct_altspecific=100.0 - pct_generic if taste_total else 0.0,
                pct_asc_included=100.0 * mean(1.0 if s.has_asc else 0.0 for s in with_stats),
                avg_socioeconomics=mean(s.n_socioeconomic for s in with_stats),
                avg_transformations=mean(s.n_transformations for s in with_stats),
                avg_interactions=mean(s.n_interactions for s in with_stats),
            )
        )
    return profiles


def profile_table(profiles: list[LlmProfile]) -> str:
    """Markdown rendering of llm_profile output."""
    lines = [
        "## Overall evaluation of generated specifications",
        "",
        "| Model | Av. specs | % conv. | Av. vars | Av. params | % generic | % alt-spec |"
        " % with ASCs | Av. socio. | Av. transf. | Av. interact. |",
        "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for p in profiles:
        lines.append(
            f"| {p.provider}/{p.model} | {p.avg_n_specs:.2f} | {p.pct_converged:.0f}% "
            f"| {p.avg_n_vars:.2f} | {p.avg_n_params:.2f} | {p.pct_generic:.0f}% "
            f"| {p.pct_altspecific:.0f}% | {p.pct_asc_included:.0f}% "
            f"| {p.avg_socioeconomics:.2f} | {p.avg_transformations:.2f} "
            f"| {p.avg_interactions:.2f} |"
        )
    return "\n".join(lines) + "\n"


def distribution_export(results: list[ExperimentResult], metric: str = "ll") -> str:
    """Long-format CSV over converged specs, full precision.

    Columns: model, experiment, spec, value (plus reliable for VoT).
    """
    if metric not in ("ll", "aic", "bic", "vot"):
        raise ValueError(f"unknown metric {metric!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["model", "experiment", "spec", "value"]
    if metric == "vot":
        header.append("reliable")
    writer.writerow(header)

    for result in results:
        for record in result.records:
            if record.estimation is None or not record.estimation.converged:
                continue
            if metric == "vot":
                if record.vot is None or not math.isfinite(record.vot.value):
                    continue
                writer.writerow(
                    [
                        _model_id(record),
                        result.config.id,
                        record.spec_name,
                        record.vot.value,
                        str(record.vot.reliable).lower(),
                    ]
                )
            else:
                value = _metric_value(record, metric)
                if value is None:
                    continue
                writer.writerow([_model_id(record), result.config.id, record.spec_name, value])
    return buf.getvalue()
