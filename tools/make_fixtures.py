"""Freeze the recorded-response fixture suite under fixtures/.

Four synthetic providers cover every exclusion label and both
reproduction verdicts:

* alpha/alpha-large, exp 1   three sound specs, claims match re-estimation
* beta/beta-mini,    exp 3   a no-ASC spec, a collinear spec, a sound spec
* delta/delta-pro,   exp 1   one overstated claim (off by 70), one honest
* epsilon/epsilon-xl, exp 5  three wrong-signed cost specs and a no-ASC
                             spec, aimed at the sign-flipped dataset

One extra fixture (golden/golden-1, exp 1) carries the reference
specification and claimed fit for the original mode-choice extract; it
only replays against that dataset when a copy is dropped into
data/apollo/.

Claims are computed from this package's own estimates at freeze time,
so reproduction verdicts are stable under re-estimation.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from logitlab import dataset as ds  # noqa: E402
from logitlab import metrics  # noqa: E402
from logitlab.engine import bfgs  # noqa: E402
from logitlab.llmgate.client import LLMTranscript, write_fixture  # noqa: E402
from logitlab.llmgate.config import SAMPLING, experiment  # noqa: E402
from logitlab.llmgate.prompts import build_prompt, template_text  # noqa: E402
from logitlab.specdsl import binding, parser  # noqa: E402

FIXTURE_ROOT = ROOT / "fixtures"

ASC_BLOCK = """param asc_car fixed 0
param asc_bus
param asc_air
param asc_rail"""


def utility_lines(params: tuple[str, ...], asc: bool = True) -> str:
    lines = []
    for alt in ("car", "bus", "air", "rail"):
        terms = [f"asc_{alt}"] if asc else []
        if "b_time" in params:
            terms.append(f"b_time * time_{alt}")
        if "b_ivt" in params:
            terms.append(f"b_ivt * time_{alt}")
        if "b_cost" in params:
            terms.append(f"b_cost * cost_{alt}")
        if "b_access" in params and alt != "car":
            terms.append(f"b_access * access_{alt}")
        if "b_time_business" in params:
            terms.append(f"b_time_business * time_{alt} * business")
        lines.append(f"U({alt}) = " + " + ".join(terms))
    return "\n".join(lines)


def spec_text(name: str, params: tuple[str, ...], asc: bool = True) -> str:
    decls = [ASC_BLOCK] if asc else []
    decls += [f"param {p} generic" for p in params]
    return (
        f"spec {name}\nalt car bus air rail\n\n"
        + "\n".join(decls)
        + "\n\n"
        + utility_lines(params, asc=asc)
        + "\n"
    )


def estimate_ll(text: str, data: ds.Dataset) -> tuple[float, int]:
    spec = parser.parse_spec(text)
    model = binding.bind(spec, data)
    result = bfgs.estimate(model)
    return result.loglik, result.n_free


def claims_line(name: str, ll: float, k: int, n: int) -> str:
    fit = metrics.information_criteria(ll, k, n)
    return f"{name}  {ll:.2f}  {fit.aic:.2f}  {fit.bic:.2f}"


def fence(tag: str, body: str) -> str:
    return f"```{tag}\n{body.rstrip()}\n```"


def make_transcript(provider: str, model: str, exp_id: int, data: ds.Dataset,
                    response_text: str) -> LLMTranscript:
    config = experiment(exp_id)
    bundle = build_prompt(config, data)
    messages = [{"role": "user", "content": bundle.as_user_message()}]
    return LLMTranscript(
        provider=provider,
        model=model,
        request_params=dict(SAMPLING),
        messages=tuple(messages),
        response_text=response_text,
        timestamp="",
        token_counts={},
    )


def main() -> None:
    normal = ds.load_dataset(
        ROOT / "data/synthetic/modechoice.csv", ROOT / "data/synthetic/modechoice_dict.md"
    )
    flipped = ds.load_dataset(
        ROOT / "data/synthetic/modechoice_flipped.csv",
        ROOT / "data/synthetic/modechoice_dict.md",
    )
    n = normal.n_obs

    # -- alpha: three sound specs with honest claims (exp 1) ---------------
    a1 = spec_text("s1_base", ("b_time", "b_cost"))
    a2 = spec_text("s2_access", ("b_time", "b_cost", "b_access"))
    a3 = spec_text("s3_business", ("b_time", "b_cost", "b_access", "b_time_business"))
    claims = []
    for text in (a1, a2, a3):
        ll, k = estimate_ll(text, normal)
        name = text.split()[1]
        claims.append(claims_line(name, round(ll, 2), k, n))
    alpha_response = "\n\n".join([
        "I start from an additive baseline with a full set of alternative-specific "
        "constants (car normalised to zero) and generic time and cost coefficients, "
        "then add access time and a business-trip interaction with in-vehicle time.",
        fence("dcm-spec", a1),
        fence("dcm-spec", a2),
        fence("dcm-spec", a3),
        "Estimation results (log-likelihood, AIC, BIC):",
        fence("dcm-claims", "\n".join(claims)),
        "The interaction model s3_business fits best on all three criteria; all taste "
        "parameters carry the expected negative signs and are significant at the 5% level.",
    ])

    # -- beta: one no-ASC spec, one collinear spec, one sound spec (exp 3) --
    b1 = spec_text("s1_generic", ("b_time", "b_cost"), asc=False)
    b2 = spec_text("s2_ivt", ("b_time", "b_ivt"))
    b3 = spec_text("s3_asc", ("b_time", "b_cost"))
    beta_response = "\n\n".join([
        "Three candidate utility specifications, from most parsimonious to a "
        "constants-plus-cost formulation.",
        fence("dcm-spec", b1),
        fence("dcm-spec", b2),
        fence("dcm-spec", b3),
        "No estimation was performed, as requested.",
    ])

    # -- delta: one overstated claim, one honest claim (exp 1) -------------
    d1 = spec_text("s1_time", ("b_time",))
    d2 = spec_text("s2_full", ("b_time", "b_cost", "b_access"))
    ll1, k1 = estimate_ll(d1, normal)
    ll2, k2 = estimate_ll(d2, normal)
    delta_claims = "\n".join([
        claims_line("s1_time", round(ll1 + 70.0, 2), k1, n),
        claims_line("s2_full", round(ll2, 2), k2, n),
    ])
    delta_response = "\n\n".join([
        "Two multinomial logit models were specified and estimated on the data.",
        fence("dcm-spec", d1),
        fence("dcm-spec", d2),
        "Model comparison:",
        fence("dcm-claims", delta_claims),
        "Both models converged cleanly; s2_full is preferred on AIC and BIC.",
    ])

    # -- epsilon: wrong-signed cost specs plus a no-ASC spec (exp 5) --------
    e1 = spec_text("s1_base", ("b_time", "b_cost"))
    e2 = spec_text("s2_access", ("b_time", "b_cost", "b_access"))
    e3 = spec_text("s3_interact", ("b_time", "b_cost", "b_access", "b_time_business"))
    e4 = spec_text("s4_minimal", ("b_time", "b_access"), asc=False)
    epsilon_response = "\n\n".join([
        "Working from the description alone, I propose four specifications over the "
        "stated time, cost and access-time attributes.",
        fence("dcm-spec", e1),
        fence("dcm-spec", e2),
        fence("dcm-spec", e3),
        fence("dcm-spec", e4),
        "Estimation is left to the analyst since no data values were provided.",
    ])

    write_fixture(make_transcript("alpha", "alpha-large", 1, normal, alpha_response),
                  FIXTURE_ROOT, 1)
    write_fixture(make_transcript("beta", "beta-mini", 3, normal, beta_response),
                  FIXTURE_ROOT, 3)
    write_fixture(make_transcript("delta", "delta-pro", 1, normal, delta_response),
                  FIXTURE_ROOT, 1)
    write_fixture(make_transcript("epsilon", "epsilon-xl", 5, normal, epsilon_response),
                  FIXTURE_ROOT, 5)

    # -- golden: reference spec and published-style claim for the original
    # mode-choice extract; replays only when data/apollo/ is populated.
    g = spec_text("rp_best", ("b_time", "b_cost", "b_access", "b_time_business"))
    golden_response = "\n\n".join([
        "The preferred specification uses alternative-specific constants with car "
        "as the reference, generic time, cost and access-time coefficients, and a "
        "business-trip interaction with in-vehicle time.",
        fence("dcm-spec", g),
        "Fit of the preferred model:",
        fence("dcm-claims", "rp_best  -981.80  1977.61  2011.96"),
    ])
    golden = LLMTranscript(
        provider="golden",
        model="golden-1",
        request_params=dict(SAMPLING),
        messages=({"role": "user", "content": template_text("exp1")},),
        response_text=golden_response,
        timestamp="",
        token_counts={},
    )
    write_fixture(golden, FIXTURE_ROOT, 1)

    for path in sorted(FIXTURE_ROOT.rglob("exp*.json")):
        print(path.relative_to(ROOT))
    _ = flipped  # loaded only to assert the file parses at freeze time


if __name__ == "__main__":
    main()
