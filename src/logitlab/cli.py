"""Command-line entry points.

Thin wrappers over the library: every command loads files, calls one
operation and prints or writes its result.  The module imports only
click and the ``logitlab`` package; each command imports the layers it
runs when it runs, so ``--help`` and a usage error load neither numpy
nor any layer, and a ``report`` command, which only reads persisted
results, runs without numpy.  A command calls a layer through its module
(``runner_mod.run_experiment``), the name a tracer wraps.  The top-level
group is the one error boundary: a :class:`~logitlab.LogitlabError`,
``ValueError`` or ``OSError`` raised by any command, nested groups
included, surfaces as a clean one-line failure with exit code 1.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from logitlab import LogitlabError

if TYPE_CHECKING:
    from logitlab.llmgate.config import ProviderConfig
    from logitlab.runner import ExperimentResult
    from logitlab.specdsl.parser import UtilitySpec


class _ErrorBoundary(click.Group):
    """Turns a domain error from any subcommand into ``Error: <Class>: <message>``."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (LogitlabError, ValueError, OSError) as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}")


def _read_spec(path: str) -> UtilitySpec:
    from logitlab.specdsl import parser

    return parser.parse_spec(Path(path).read_text(encoding="utf-8"))


@click.group(cls=_ErrorBoundary)
def main() -> None:
    """Specify, estimate, validate and compare multinomial logit models."""


# -- dataset ---------------------------------------------------------------


@main.group("dataset")
def dataset_group() -> None:
    """Load, check and describe choice datasets."""


@dataset_group.command("validate")
@click.argument("csv_path", type=click.Path(exists=True))
@click.argument("dict_path", type=click.Path(exists=True))
def dataset_validate(csv_path: str, dict_path: str) -> None:
    """Check a CSV against its data dictionary."""
    from logitlab import dataset as ds

    data = ds.load_dataset(csv_path, dict_path)
    click.echo(f"ok: {data.n_obs} observations, {len(data.alternatives)} alternatives")


@dataset_group.command("describe")
@click.argument("csv_path", type=click.Path(exists=True))
@click.argument("dict_path", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None, help="Write markdown here instead of stdout.")
def dataset_describe(csv_path: str, dict_path: str, out: str | None) -> None:
    """Emit the deterministic markdown description."""
    from logitlab import dataset as ds

    data = ds.load_dataset(csv_path, dict_path)
    text = ds.describe(data)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


# -- spec -------------------------------------------------------------------


@main.group("spec")
def spec_group() -> None:
    """Parse and check utility specifications."""


@spec_group.command("check")
@click.argument("spec_path", type=click.Path(exists=True))
@click.option("--data", "csv_path", required=True, type=click.Path(exists=True))
@click.option("--dict", "dict_path", required=True, type=click.Path(exists=True))
def spec_check(spec_path: str, csv_path: str, dict_path: str) -> None:
    """Parse a .dcm file and bind it against a dataset."""
    from logitlab import dataset as ds
    from logitlab.specdsl import analysis, binding

    spec = _read_spec(spec_path)
    data = ds.load_dataset(csv_path, dict_path)
    stats = analysis.analyze_structure(spec, data.dictionary)
    binding.bind(spec, data)
    click.echo(f"ok: spec '{spec.name}' binds to {data.n_obs} observations")
    click.echo(
        f"params: {stats.n_params} free, vars: {stats.n_vars}, asc: {str(stats.has_asc).lower()}, "
        f"generic: {stats.n_generic}, alt-specific: {stats.n_altspecific}, "
        f"interactions: {stats.n_interactions}, transformations: {stats.n_transformations}"
    )


# -- estimate / metrics / validate -------------------------------------------


@main.command("estimate")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--data", "csv_path", required=True, type=click.Path(exists=True))
@click.option("--dict", "dict_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), default=None, help="Write results JSON here.")
def estimate_cmd(spec_path: str, csv_path: str, dict_path: str, out_path: str | None) -> None:
    """Estimate one specification by maximum likelihood."""
    from logitlab import dataset as ds
    from logitlab import metrics as metrics_mod
    from logitlab.engine import bfgs
    from logitlab.jsonio import dump_json
    from logitlab.specdsl import binding

    spec = _read_spec(spec_path)
    data = ds.load_dataset(csv_path, dict_path)
    model = binding.bind(spec, data)
    result = bfgs.estimate(model)

    fit = metrics_mod.information_criteria(result.loglik, result.n_free, model.n_obs)
    click.echo(f"spec '{spec.name}': converged={str(result.converged).lower()} "
               f"({result.convergence_reason}), iterations={result.iterations}")
    click.echo(f"LL={result.loglik:.4f}  AIC={fit.aic:.4f}  BIC={fit.bic:.4f}  k={result.n_free}")
    for p in result.parameters:
        click.echo(
            f"  {p.name:24s} {p.estimate: .6f}  se {p.std_error: .6f}  classical t {p.t_ratio: .3f}"
        )
    if out_path:
        doc = {
            "spec_name": spec.name,
            "spec_text": spec,
            "n_obs": model.n_obs,
            "estimation": result,
            "fit": fit,
        }
        Path(out_path).write_text(dump_json(doc), encoding="utf-8")
        click.echo(f"wrote {out_path}")


@main.command("metrics")
@click.option("--results", "results_path", required=True, type=click.Path(exists=True))
@click.option("--dict", "dict_path", required=True, type=click.Path(exists=True))
def metrics_cmd(results_path: str, dict_path: str) -> None:
    """Fit statistics and value of time from a results file, for the spec it holds."""
    from logitlab import dataset as ds
    from logitlab import metrics as metrics_mod
    from logitlab.jsonio import load_json

    doc = load_json(results_path, metrics_mod.ResultsFile)
    result, spec = doc.estimation, doc.spec_text
    dictionary = ds.parse_dictionary(Path(dict_path).read_text(encoding="utf-8"))
    fit = metrics_mod.information_criteria(result.loglik, result.n_free, doc.n_obs)
    rho = metrics_mod.rho_squared(result.loglik, result.null_loglik)
    click.echo(f"LL={fit.loglik:.4f}  AIC={fit.aic:.4f}  BIC={fit.bic:.4f}  k={fit.k}  n={fit.n}")
    click.echo(f"rho-squared={rho:.4f}")
    try:
        vot = metrics_mod.value_of_time(result, spec, dictionary)
    except metrics_mod.MissingCoefficient as exc:
        click.echo(f"value of time: n/a ({exc})")
        return
    click.echo(
        f"value of time={vot.value:.4f} reliable={str(vot.reliable).lower()} ({vot.notes})"
    )


@main.command("validate")
@click.option("--results", "results_path", required=True, type=click.Path(exists=True))
@click.option("--dict", "dict_path", required=True, type=click.Path(exists=True))
def validate_cmd(results_path: str, dict_path: str) -> None:
    """Apply the inclusion rules to a results file, for the spec it holds."""
    from logitlab import dataset as ds
    from logitlab import metrics as metrics_mod
    from logitlab import validate as validate_mod
    from logitlab.jsonio import load_json

    doc = load_json(results_path, metrics_mod.ResultsFile)
    dictionary = ds.parse_dictionary(Path(dict_path).read_text(encoding="utf-8"))
    report = validate_mod.check_model(doc.estimation, doc.spec_text, dictionary)
    click.echo(f"exclusion: {report.exclusion}")
    click.echo(f"has_asc={str(report.has_asc).lower()} converged={str(report.converged).lower()}")
    for v in report.sign_violations:
        click.echo(f"  positive sign: {v.parameter} = {v.estimate:.6f}")
    for name in report.insignificant_core:
        click.echo(f"  insignificant: {name}")
    if report.notes:
        click.echo(f"notes: {report.notes}")


# -- llm gateway --------------------------------------------------------------


def _parse_providers(text: str, replay_dir: str | None) -> list[ProviderConfig]:
    from logitlab.llmgate import client as llm_client
    from logitlab.llmgate.config import ProviderConfig

    providers: list[ProviderConfig] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" in item:
            name, model = item.split(":", 1)
            providers.append(ProviderConfig(name=name, model=model))
        elif replay_dir:
            providers.extend(llm_client.recorded_providers(replay_dir, item))
        else:
            raise ValueError(f"provider '{item}' needs a model (use provider:model) in live mode")
    return providers


@main.command("suggest")
@click.option("--experiment", "exp_id", required=True, type=click.IntRange(1, 5))
@click.option("--provider", required=True)
@click.option("--model", required=True)
@click.option("--replay", "replay_dir", type=click.Path(exists=True), default=None)
@click.option("--paper-faithful", is_flag=True, default=False,
              help="Send the verbatim template without the machine-format addendum.")
@click.option("--data", "csv_path", required=True, type=click.Path(exists=True))
@click.option("--dict", "dict_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", type=click.Path(), default=None, help="Write extracted .dcm files here.")
@click.option("--transcripts", "transcript_dir", type=click.Path(), default=None,
              help="Keep live transcripts here, in the layout --replay reads.")
def suggest_cmd(
    exp_id: int,
    provider: str,
    model: str,
    replay_dir: str | None,
    paper_faithful: bool,
    csv_path: str,
    dict_path: str,
    out_dir: str | None,
    transcript_dir: str | None,
) -> None:
    """Ask one model for specifications (live or replayed)."""
    from logitlab import dataset as ds
    from logitlab.llmgate import client as llm_client
    from logitlab.llmgate import extract as llm_extract
    from logitlab.llmgate.config import ProviderConfig, experiment
    from logitlab.llmgate.prompts import build_prompt
    from logitlab.specdsl import serialize

    config = experiment(exp_id)
    data = ds.load_dataset(csv_path, dict_path)
    bundle = build_prompt(config, data, paper_faithful=paper_faithful)
    transcript = llm_client.complete(
        bundle,
        ProviderConfig(name=provider, model=model),
        replay_dir=replay_dir,
        transcript_dir=transcript_dir,
    )
    extraction = llm_extract.extract_specs(transcript)
    # provenance for the reader, as plain comments under the spec line
    provenance = f"\n# model: {transcript.model}\n# provider: {transcript.provider}\n"

    for spec in extraction.specs:
        click.echo(f"spec: {spec.name}")
        if out_dir:
            path = Path(out_dir)
            path.mkdir(parents=True, exist_ok=True)
            (path / f"{spec.name}.dcm").write_text(
                serialize.serialize_spec(spec).replace("\n", provenance, 1), encoding="utf-8"
            )
    for claim in extraction.claimed:
        click.echo(f"claim: {claim.spec_name} LL={claim.loglik}")
    for diag in extraction.diagnostics:
        click.echo(f"diagnostic: {diag}", err=True)
    if out_dir and extraction.specs:
        click.echo(f"wrote {len(extraction.specs)} spec file(s) to {out_dir}")


@main.command("run")
@click.option("--experiment", "exp_id", required=True, type=click.IntRange(1, 5))
@click.option("--providers", required=True,
              help="Comma-separated provider:model pairs (model optional in replay mode).")
@click.option("--data", "csv_path", required=True, type=click.Path(exists=True))
@click.option("--dict", "dict_path", required=True, type=click.Path(exists=True))
@click.option("--replay", "replay_dir", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", type=click.Path(), default="runs")
@click.option("--paper-faithful", is_flag=True, default=False)
def run_cmd(
    exp_id: int,
    providers: str,
    csv_path: str,
    dict_path: str,
    replay_dir: str | None,
    out_dir: str,
    paper_faithful: bool,
) -> None:
    """Run one experiment end-to-end and persist the results."""
    from logitlab import dataset as ds
    from logitlab import runner as runner_mod
    from logitlab.llmgate.config import experiment

    provider_list = _parse_providers(providers, replay_dir)
    data = ds.load_dataset(csv_path, dict_path)
    result = runner_mod.run_experiment(
        experiment(exp_id),
        provider_list,
        data,
        replay_dir=replay_dir,
        out_dir=out_dir,
        paper_faithful=paper_faithful,
    )
    included = sum(1 for r in result.records if r.included)
    click.echo(
        f"experiment {exp_id}: {len(result.records)} spec(s), {included} included; "
        f"results under {out_dir}/exp{exp_id}/"
    )
    for diag in result.diagnostics:
        click.echo(f"diagnostic: {diag}", err=True)


# -- report -------------------------------------------------------------------


@main.group("report")
def report_group() -> None:
    """Render tables and exports from persisted runs."""


def _load_runs(runs_dir: str) -> list[ExperimentResult]:
    from logitlab import runner as runner_mod

    results = runner_mod.load_results(runs_dir)
    if not results:
        raise click.ClickException(f"no persisted experiments under {runs_dir}")
    return results


@report_group.command("summary")
@click.option("--runs", "runs_dir", required=True, type=click.Path(exists=True))
@click.option("--experiment", "exp_id", type=click.IntRange(1, 5), default=None,
              help="Limit to one experiment.")
def report_summary(runs_dir: str, exp_id: int | None) -> None:
    """Per-experiment comparison tables."""
    from logitlab import report as report_mod

    results = _load_runs(runs_dir)
    if exp_id is not None:
        results = [r for r in results if r.config.id == exp_id]
        if not results:
            raise click.ClickException(f"no persisted experiment {exp_id} under {runs_dir}")
    for result in results:
        click.echo(report_mod.summary_table(result))


@report_group.command("best-of")
@click.option("--runs", "runs_dir", required=True, type=click.Path(exists=True))
@click.option("--metric", type=click.Choice(["ll", "aic", "bic"]), default="ll", show_default=True)
def report_best_of(runs_dir: str, metric: str) -> None:
    """Best value per model and experiment."""
    from logitlab import report as report_mod

    click.echo(report_mod.best_of(_load_runs(runs_dir), metric))


@report_group.command("profile")
@click.option("--runs", "runs_dir", required=True, type=click.Path(exists=True))
def report_profile(runs_dir: str) -> None:
    """Structural profile per model."""
    from logitlab import report as report_mod

    click.echo(report_mod.profile_table(report_mod.llm_profile(_load_runs(runs_dir))))


@report_group.command("export")
@click.option("--runs", "runs_dir", required=True, type=click.Path(exists=True))
@click.option("--metric", type=click.Choice(["ll", "aic", "bic", "vot"]), default="ll",
              show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def report_export(runs_dir: str, metric: str, out_path: str | None) -> None:
    """Long-format CSV of converged specs for plotting."""
    from logitlab import report as report_mod

    text = report_mod.distribution_export(_load_runs(runs_dir), metric)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main(sys.argv[1:])
