"""Acceptance gate: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each test covers exactly one criterion at its stated tolerance.
Criteria touching the published mode-choice extract skip with drop-in
instructions when the file is absent (see data/apollo/README.md).
"""

from __future__ import annotations

import csv
import dataclasses
import filecmp
import math
import random
import time

import numpy as np
from click.testing import CliRunner

from logitlab import dataset as ds
from logitlab import metrics, report, runner
from logitlab.cli import main as cli_main
from logitlab.engine import bfgs, kernel
from logitlab.llmgate.config import ProviderConfig
from logitlab.llmgate.extract import Claim
from logitlab.specdsl import binding, parser, serialize

from conftest import (
    APOLLO_CSV,
    APOLLO_DICT,
    APOLLO_SPEC,
    FIXTURES,
    SYNTH_CSV,
    SYNTH_DICT,
    needs_apollo,
)
from test_engine import BINARY_SPEC, GRAD_SPEC, binary_dataset, full_availability_clone, probabilities
from test_runner import est_with_ll


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


# -- 1. golden reproduction -------------------------------------------------


@needs_apollo
def test_criterion_1_golden_reproduction():
    t0 = time.perf_counter()
    data = ds.load_dataset(APOLLO_CSV, APOLLO_DICT)
    spec = parser.parse_spec(APOLLO_SPEC.read_text(encoding="utf-8"))
    result = bfgs.estimate(binding.bind(spec, data))
    elapsed = time.perf_counter() - t0
    fit = metrics.information_criteria(result.loglik, result.n_free, data.n_obs)
    vot = metrics.value_of_time(result, spec, data.dictionary)
    ok = (
        result.converged
        and abs(result.loglik - (-981.80)) <= 0.01
        and abs(fit.aic - 1977.61) <= 0.02
        and abs(fit.bic - 2011.96) <= 0.02
        and abs(vot.value - 0.198) <= 0.001
    )
    _verdict(
        1,
        "golden reproduction",
        ok,
        f"LL={result.loglik:.2f} AIC={fit.aic:.2f} BIC={fit.bic:.2f} "
        f"VoT={vot.value:.3f} in {elapsed:.2f}s",
    )


# -- 2. null model ------------------------------------------------------------


def test_criterion_2_null_model(synth_data):
    clone = full_availability_clone(synth_data)
    exact = kernel.null_loglik(clone) == -synth_data.n_obs * math.log(4.0)
    with open(SYNTH_CSV, newline="", encoding="utf-8") as fh:
        oracle = -math.fsum(
            math.log(sum(int(row[f"av_{alt}"]) for alt in synth_data.alternatives))
            for row in csv.DictReader(fh)
        )
    real_ok = abs(kernel.null_loglik(synth_data) - oracle) <= 1e-9
    _verdict(
        2,
        "null model",
        exact and real_ok,
        f"clone exact={exact}, real |diff|={abs(kernel.null_loglik(synth_data) - oracle):.1e}",
    )


# -- 3. optimizer correctness ---------------------------------------------------


def test_criterion_3_optimizer_correctness(tmp_path, synth_data):
    data = binary_dataset(tmp_path)
    model = binding.bind(parser.parse_spec(BINARY_SPEC), data)
    result = bfgs.estimate(model)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = -5.0, 5.0
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    while hi - lo > 1e-12:
        if kernel.log_likelihood(model, np.array([c])).loglik > kernel.log_likelihood(
            model, np.array([d])
        ).loglik:
            hi, d = d, c
            c = hi - invphi * (hi - lo)
        else:
            lo, c = c, d
            d = lo + invphi * (hi - lo)
    brute_err = abs(result.estimates[0] - 0.5 * (lo + hi))

    clone = full_availability_clone(synth_data)
    asc_spec = parser.parse_spec(
        "spec shares\nalt car bus air rail\n"
        "param asc_car fixed 0\nparam asc_bus\nparam asc_air\nparam asc_rail\n"
        "U(car) = asc_car\nU(bus) = asc_bus\nU(air) = asc_air\nU(rail) = asc_rail\n"
    )
    asc_model = binding.bind(asc_spec, clone)
    asc_result = bfgs.estimate(asc_model)
    P = probabilities(asc_model, asc_result.estimates)
    share_err = float(
        np.abs(
            P.mean(axis=0)
            - np.bincount(asc_model.choice_idx, minlength=4) / asc_model.n_obs
        ).max()
    )
    ok = brute_err < 1e-6 and share_err < 1e-8
    _verdict(
        3,
        "optimizer correctness",
        ok,
        f"brute-force gap {brute_err:.1e}, share gap {share_err:.1e}",
    )


# -- 4. gradient suite ------------------------------------------------------------


def test_criterion_4_gradient_suite(synth_data):
    model = binding.bind(parser.parse_spec(GRAD_SPEC), synth_data)
    rng = np.random.default_rng(424242)
    k = model.n_free
    shape_slot = model.free_names.index("lambda_inc")
    worst = 0.0
    for _ in range(20):
        theta = rng.normal(0.0, 0.05, size=k)
        theta[shape_slot] = rng.uniform(0.2, 1.2)
        _, grad = kernel.loglik_and_gradient(model, theta)
        fd = np.empty(k)
        for i in range(k):
            h = 1e-5 * max(1.0, abs(theta[i]))
            up, dn = theta.copy(), theta.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                kernel.log_likelihood(model, up).loglik - kernel.log_likelihood(model, dn).loglik
            ) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0)
        worst = max(worst, float(rel.max()))
    _verdict(
        4,
        "gradient suite",
        worst < 1e-6,
        f"max relative error {worst:.2e} over 20 points, all node types",
    )


# -- 5. exclusion logic --------------------------------------------------------------

EXPECTED_LABELS = {
    ("alpha", "s1_base"): "included",
    ("alpha", "s2_access"): "included",
    ("alpha", "s3_business"): "included",
    ("delta", "s1_time"): "included",
    ("delta", "s2_full"): "included",
    ("beta", "s1_generic"): "excluded_no_asc",
    ("beta", "s2_ivt"): "excluded_nonconvergence",
    ("beta", "s3_asc"): "included",
    ("epsilon", "s1_base"): "excluded_positive_sign",
    ("epsilon", "s2_access"): "excluded_positive_sign",
    ("epsilon", "s3_interact"): "excluded_positive_sign",
    ("epsilon", "s4_minimal"): "excluded_no_asc",
}


def _replayed_records(synth_data, flipped_data):
    batches = [
        runner.run_experiment(
            1,
            [ProviderConfig("alpha", "alpha-large"), ProviderConfig("delta", "delta-pro")],
            synth_data,
            replay_dir=FIXTURES,
        ),
        runner.run_experiment(
            3, [ProviderConfig("beta", "beta-mini")], synth_data, replay_dir=FIXTURES
        ),
        runner.run_experiment(
            5, [ProviderConfig("epsilon", "epsilon-xl")], flipped_data, replay_dir=FIXTURES
        ),
    ]
    return [r for batch in batches for r in batch.records]


def test_criterion_5_exclusion_logic(synth_data, flipped_data):
    records = _replayed_records(synth_data, flipped_data)
    got = {(r.provider, r.spec_name): r.validation.exclusion for r in records}
    agree = sum(1 for key, label in EXPECTED_LABELS.items() if got.get(key) == label)
    ok = agree == len(EXPECTED_LABELS) == len(got)
    _verdict(
        5,
        "exclusion logic",
        ok,
        f"{agree}/{len(EXPECTED_LABELS)} labels agree "
        "(no-ASC, non-convergent and positive-cost all covered)",
    )


# -- 6. hallucination detection -------------------------------------------------------


def test_criterion_6_hallucination_detection(synth_data):
    illustrative = runner.crosscheck(Claim("s", -950.0), est_with_ll(-1020.0))
    result = runner.run_experiment(
        1, [ProviderConfig("delta", "delta-pro")], synth_data, replay_dir=FIXTURES
    )
    verdicts = {r.spec_name: r.reproduction.verdict for r in result.records}
    ok = (
        illustrative.verdict == "not_reproduced"
        and verdicts == {"s1_time": "not_reproduced", "s2_full": "reproduced"}
    )
    _verdict(
        6,
        "hallucination detection",
        ok,
        f"claimed -950 vs -1020 -> {illustrative.verdict}; replayed fixture: {verdicts}",
    )


@needs_apollo
def test_criterion_6_golden_claim_reproduced():
    data = ds.load_dataset(APOLLO_CSV, APOLLO_DICT)
    result = runner.run_experiment(
        1, [ProviderConfig("golden", "golden-1")], data, replay_dir=FIXTURES
    )
    (record,) = result.records
    ok = (
        record.claimed is not None
        and record.claimed.loglik == -981.80
        and record.reproduction is not None
        and record.reproduction.verdict == "reproduced"
    )
    _verdict(
        6,
        "hallucination detection (golden claim)",
        ok,
        f"claimed -981.80 vs re-estimated {record.reproduction.reestimated_ll:.2f}"
        if record.reproduction
        else "no reproduction verdict",
    )


# -- 7. determinism ---------------------------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    cli = CliRunner()
    args = [
        "run", "--experiment", "1", "--providers", "alpha:alpha-large,delta:delta-pro",
        "--data", str(SYNTH_CSV), "--dict", str(SYNTH_DICT), "--replay", str(FIXTURES),
    ]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        res = cli.invoke(cli_main, args + ["--out", str(d)])
        assert res.exit_code == 0, res.output

    names = sorted(p.name for p in (dirs[0] / "exp1").iterdir())
    same_files = names == sorted(p.name for p in (dirs[1] / "exp1").iterdir()) and all(
        filecmp.cmp(dirs[0] / "exp1" / n, dirs[1] / "exp1" / n, shallow=False)
        for n in names
    )

    reports = []
    for d in dirs:
        loaded = runner.load_results(d)
        reports.append(
            report.summary_table(loaded[0])
            + report.best_of(loaded)
            + report.profile_table(report.llm_profile(loaded))
            + report.distribution_export(loaded)
        )
    ok = same_files and reports[0] == reports[1]
    _verdict(
        7,
        "determinism",
        ok,
        f"{len(names)} result files byte-identical, reports identical",
    )


# -- 8. DSL round-trip ---------------------------------------------------------------------

ALT_POOL = ("car", "bus", "train", "air")
VAR_POOL = ("x1", "x2", "x3", "x4", "x5")
COV_POOL = ("cov1", "cov2")


def _random_spec_text(rng: random.Random, index: int) -> str:
    alts = list(ALT_POOL[: rng.randint(2, 4)])
    decls: list[str] = []
    counter = 0

    def fresh(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    def declare_taste() -> str:
        name = fresh("b_")
        words = [f"param {name}"]
        roll = rng.random()
        if roll < 0.15:
            words.append("generic")
        elif roll < 0.25:
            words.append(f"fixed {round(rng.uniform(-2, 2), 3)}")
        elif roll < 0.35:
            words.append(f"start {round(rng.uniform(-1, 1), 3)}")
        decls.append(" ".join(words))
        return name

    shared = [declare_taste() for _ in range(rng.randint(0, 2))]

    def term() -> str:
        kind = rng.randrange(9)
        var = rng.choice(VAR_POOL)
        beta = rng.choice(shared) if shared and rng.random() < 0.4 else declare_taste()
        if kind == 0:
            return f"{beta} * {var}"
        if kind == 1:
            fn = rng.choice(("log", "sqrt", "exp"))
            return f"{beta} * {fn}({var})"
        if kind == 2:
            exponent = rng.choice((2, 3, -1))
            return f"{beta} * pow({var}, {exponent})"
        if kind == 3:
            shape = fresh("lambda_")
            decls.append(f"param {shape}")
            return f"{beta} * boxcox({var}, {shape})"
        if kind == 4:
            return f"{beta} * {var} * {rng.choice(COV_POOL)}"
        if kind == 5:
            return f"{round(rng.uniform(0.1, 9), 3)} * {beta} * {var}"
        if kind == 6:
            return f"{beta} * {var} / {rng.choice((60, 100))}"
        if kind == 7:
            k1 = rng.randint(5, 50)
            k2 = k1 + rng.randint(5, 50)
            slopes = ", ".join(declare_taste() for _ in range(3))
            return f"piecewise({var}, {k1}, {k2}, {slopes})"
        return f"{beta} * ({var} + {rng.choice(COV_POOL)})"

    lines = [f"spec random_{index}", "alt " + " ".join(alts)]
    u_lines = []
    for j, alt in enumerate(alts):
        terms = []
        if rng.random() < 0.8:
            asc = f"asc_{alt}"
            decls.append(f"param {asc} fixed 0" if j == 0 and rng.random() < 0.7 else f"param {asc}")
            terms.append(asc)
        terms.extend(term() for _ in range(rng.randint(1, 3)))
        joined = terms[0]
        for t in terms[1:]:
            joined += (" - " if rng.random() < 0.25 else " + ") + t
        u_lines.append(f"U({alt}) = {joined}")
    return "\n".join(lines + decls + u_lines) + "\n"


def test_criterion_8_dsl_round_trip():
    rng = random.Random(20260813)
    failures = 0
    for i in range(500):
        spec = parser.parse_spec(_random_spec_text(rng, i))
        again = parser.parse_spec(serialize.serialize_spec(spec))
        if again != spec or serialize.serialize_spec(again) != serialize.serialize_spec(spec):
            failures += 1
    _verdict(8, "DSL round-trip", failures == 0, f"{500 - failures}/500 specs identical")


# -- 9. scaling covariance --------------------------------------------------------------------


def test_criterion_9_scaling_covariance(best_spec, synth_data, best_result):
    scaled = dataclasses.replace(
        synth_data,
        columns={
            k: (v * 100.0 if k.startswith("cost_") else v) for k, v in synth_data.columns.items()
        },
    )
    other = bfgs.estimate(binding.bind(best_spec, scaled))
    ll_gap = abs(best_result.loglik - other.loglik)
    i = best_result.names.index("b_cost")
    beta_gap = abs(other.estimates[i] * 100.0 - best_result.estimates[i])
    ok = ll_gap < 1e-6 and beta_gap <= 1e-5
    _verdict(
        9,
        "scaling covariance",
        ok,
        f"LL gap {ll_gap:.1e}, rescaled beta_cost gap {beta_gap:.1e}",
    )
