"""Generate the frozen synthetic mode-choice datasets under data/synthetic/.

Two CSVs share one dictionary:

* ``modechoice.csv``          choices simulated from well-signed utilities
* ``modechoice_flipped.csv``  same attributes, cost coefficient flipped to
                              +0.05, so any sensible spec estimates a
                              positive cost sensitivity on it

The generator is seeded; reruns reproduce the committed files byte for
byte.  500 persons contribute two inter-city trips each (1000 rows) over
car, bus, air and rail, with at least two alternatives available per row
and zeros in the attribute cells of unavailable alternatives.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from logitlab import dataset as ds  # noqa: E402

SEED = 20260813
N_PERSONS = 500
TRIPS_PER_PERSON = 2
ALTS = ("car", "bus", "air", "rail")

# true utility coefficients; VoT = b_time / b_cost = 0.2 pounds per minute
TRUTH = {
    "asc_car": 0.0,
    "asc_bus": -0.4,
    "asc_air": -0.9,
    "asc_rail": -0.3,
    "b_time": -0.01,
    "b_cost": -0.05,
    "b_access": -0.015,
    "b_time_business": -0.004,
}

AVAIL_RATE = {"car": 0.70, "bus": 0.80, "air": 0.55, "rail": 0.85}


def build_dictionary() -> ds.DataDictionary:
    e = ds.DictEntry
    entries = [
        e("ID", "id", None, "", "person identifier"),
        e("av_car", "availability", "car", "0/1", "car available"),
        e("av_bus", "availability", "bus", "0/1", "bus available"),
        e("av_air", "availability", "air", "0/1", "air available"),
        e("av_rail", "availability", "rail", "0/1", "rail available"),
        e("choice", "choice", None, "code 1-4", "chosen alternative (car, bus, air, rail)"),
    ]
    for alt in ALTS:
        entries.append(
            e(f"time_{alt}", "attribute", alt, "minutes", "in-vehicle travel time", "time")
        )
        entries.append(e(f"cost_{alt}", "attribute", alt, "pounds", "travel cost", "cost"))
        if alt != "car":
            entries.append(
                e(f"access_{alt}", "attribute", alt, "minutes",
                  "access time to boarding point", "other")
            )
    entries += [
        e("female", "covariate", None, "0/1", "person is female"),
        e("business", "covariate", None, "0/1", "trip has a business purpose"),
        e("income", "covariate", None, "1000 pounds/year", "annual income"),
    ]
    return ds.DataDictionary(entries=tuple(entries))


def _draw_attributes(rng: np.random.Generator) -> dict[str, float]:
    """Trip-level attributes driven by a latent journey distance."""
    d = rng.uniform(80.0, 500.0)  # miles
    v = {
        "time_car": d / 55.0 * 60.0 + rng.normal(0.0, 10.0),
        "cost_car": d * 0.18 + rng.normal(0.0, 4.0),
        "time_bus": d / 45.0 * 60.0 + rng.normal(0.0, 15.0),
        "cost_bus": d * 0.09 + rng.normal(0.0, 2.0),
        "access_bus": rng.uniform(5.0, 30.0),
        "time_air": 45.0 + d / 400.0 * 60.0 + rng.normal(0.0, 8.0),
        "cost_air": 40.0 + d * 0.20 + rng.normal(0.0, 8.0),
        "access_air": rng.uniform(40.0, 90.0),
        "time_rail": d / 90.0 * 60.0 + rng.normal(0.0, 10.0),
        "cost_rail": 10.0 + d * 0.14 + rng.normal(0.0, 3.0),
        "access_rail": rng.uniform(10.0, 40.0),
    }
    out: dict[str, float] = {}
    for name, x in v.items():
        x = max(x, 1.0)
        out[name] = round(x) if name.startswith(("time_", "access_")) else round(x, 2)
    return out


def _utility(alt: str, values: dict[str, float], business: float, cost_sign: float) -> float:
    t = TRUTH
    u = t[f"asc_{alt}"]
    u += t["b_time"] * values[f"time_{alt}"]
    u += cost_sign * abs(t["b_cost"]) * values[f"cost_{alt}"]
    if alt != "car":
        u += t["b_access"] * values[f"access_{alt}"]
    u += t["b_time_business"] * values[f"time_{alt}"] * business
    return u


def simulate(cost_sign: float, rng: np.random.Generator) -> ds.Dataset:
    dictionary = build_dictionary()
    rows: list[tuple[str, dict[str, float], list[bool], int]] = []
    for person in range(1, N_PERSONS + 1):
        female = float(rng.random() < 0.5)
        income = round(float(np.exp(rng.normal(3.6, 0.35))), 1)
        for _ in range(TRIPS_PER_PERSON):
            business = float(rng.random() < 0.35)
            while True:
                avail = {a: bool(rng.random() < AVAIL_RATE[a]) for a in ALTS}
                if sum(avail.values()) >= 2:
                    break
            values = _draw_attributes(rng)
            for alt in ALTS:  # unavailable modes carry zeroed attributes
                if not avail[alt]:
                    for prefix in ("time_", "cost_", "access_"):
                        values.pop(f"{prefix}{alt}", None)
                        if f"{prefix}{alt}" in dictionary.variable_names:
                            values[f"{prefix}{alt}"] = 0.0
            values.update(female=female, business=business, income=income)
            gumbel = rng.gumbel(0.0, 1.0, size=len(ALTS))
            best, best_u = None, -np.inf
            for j, alt in enumerate(ALTS):
                if not avail[alt]:
                    continue
                u = _utility(alt, values, business, cost_sign) + gumbel[j]
                if u > best_u:
                    best, best_u = j, u
            rows.append((str(person), values, [avail[a] for a in ALTS], best))
    persons, values_by_row, avail_by_row, choices = zip(*rows)
    return ds.Dataset(
        alternatives=ALTS,
        columns={n: np.array([v[n] for v in values_by_row]) for n in dictionary.variable_names},
        avail=np.array(avail_by_row),
        choice_idx=np.array(choices),
        person_id=persons,
        dictionary=dictionary,
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default=str(Path(__file__).resolve().parents[1] / "data/synthetic"))
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(SEED)
    normal = simulate(cost_sign=-1.0, rng=rng)
    rng = np.random.default_rng(SEED)  # identical attributes, flipped behaviour
    flipped = simulate(cost_sign=+1.0, rng=rng)

    (out / "modechoice_dict.md").write_text(
        ds.write_dictionary(normal.dictionary, title="Synthetic mode choice dictionary"),
        encoding="utf-8",
    )
    ds.write_csv(normal, out / "modechoice.csv")
    ds.write_csv(flipped, out / "modechoice_flipped.csv")

    for label, data in (("normal", normal), ("flipped", flipped)):
        reloaded = ds.load_dataset(
            out / ("modechoice.csv" if label == "normal" else "modechoice_flipped.csv"),
            out / "modechoice_dict.md",
        )
        shares = dict(zip(ALTS, np.bincount(reloaded.choice_idx, minlength=len(ALTS)).tolist()))
        avail = dict(zip(ALTS, reloaded.avail.sum(axis=0).tolist()))
        print(f"{label}: n={reloaded.n_obs} shares={shares} avail={avail}")


if __name__ == "__main__":
    main()
