"""Seeded, vectorised generator of synthetic mode-choice datasets.

Follows the data-generating process of ``tools/make_synthetic_data.py``:
the same ``TRUTH`` utilities, ``AVAIL_RATE`` availability draws (redrawn
until at least two modes are available), trip attributes driven by a
latent journey distance, zeroed attributes for unavailable modes and two
trips per person.  Rows are drawn independently rather than tiled, so no
row repeats and a deduplicating or weighting change gains nothing here
that it would not gain on real data.

The CSV is written in the column order of the shipped dictionary
``data/synthetic/modechoice_dict.md``, so every file passes
``logitlab.dataset.load_dataset`` against it.  As a script::

    python3 bench/gen.py --rows 100000 --seed 1 --out large.csv
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from make_synthetic_data import ALTS, AVAIL_RATE, TRUTH  # noqa: E402  (puts src on the path)

from logitlab import dataset as ds  # noqa: E402

SHIPPED_CSV = ROOT / "data/synthetic/modechoice.csv"
SHIPPED_DICT = ROOT / "data/synthetic/modechoice_dict.md"
TRIPS_PER_PERSON = 2


def dictionary_columns() -> list[str]:
    """Column names of the shipped dictionary, in its order."""
    text = SHIPPED_DICT.read_text(encoding="utf-8")
    return [e.name for e in ds.parse_dictionary(text).entries]


def _draw_availability(rng: np.random.Generator, n: int) -> np.ndarray:
    rates = np.array([AVAIL_RATE[a] for a in ALTS])
    avail = rng.random((n, len(ALTS))) < rates
    redraw = avail.sum(axis=1) < 2
    while redraw.any():
        avail[redraw] = rng.random((int(redraw.sum()), len(ALTS))) < rates
        redraw = avail.sum(axis=1) < 2
    return avail


def _draw_attributes(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    d = rng.uniform(80.0, 500.0, n)  # miles
    noise = lambda sd: rng.normal(0.0, sd, n)  # noqa: E731
    raw = {
        "time_car": d / 55.0 * 60.0 + noise(10.0),
        "cost_car": d * 0.18 + noise(4.0),
        "time_bus": d / 45.0 * 60.0 + noise(15.0),
        "cost_bus": d * 0.09 + noise(2.0),
        "access_bus": rng.uniform(5.0, 30.0, n),
        "time_air": 45.0 + d / 400.0 * 60.0 + noise(8.0),
        "cost_air": 40.0 + d * 0.20 + noise(8.0),
        "access_air": rng.uniform(40.0, 90.0, n),
        "time_rail": d / 90.0 * 60.0 + noise(10.0),
        "cost_rail": 10.0 + d * 0.14 + noise(3.0),
        "access_rail": rng.uniform(10.0, 40.0, n),
    }
    return {
        name: np.round(np.maximum(x, 1.0), 0 if name.startswith(("time_", "access_")) else 2)
        for name, x in raw.items()
    }


def generate(n_rows: int, seed: int | Sequence[int]) -> dict[str, np.ndarray]:
    """Columns of an ``n_rows`` dataset (even ``n_rows``), keyed by CSV name.

    ``seed`` is anything ``numpy.random.default_rng`` takes, such as
    ``[run_seed, dataset_index]``.

    ``choice`` holds 0-based alternative indices into ``ALTS``; every
    other column holds the exact values the CSV carries.
    """
    if n_rows <= 0 or n_rows % TRIPS_PER_PERSON:
        raise ValueError(f"n_rows must be a positive multiple of {TRIPS_PER_PERSON}")
    rng = np.random.default_rng(seed)
    n_persons = n_rows // TRIPS_PER_PERSON
    person = np.repeat(np.arange(1, n_persons + 1), TRIPS_PER_PERSON)
    female = np.repeat((rng.random(n_persons) < 0.5).astype(float), TRIPS_PER_PERSON)
    income = np.repeat(
        np.round(np.exp(rng.normal(3.6, 0.35, n_persons)), 1), TRIPS_PER_PERSON
    )
    business = (rng.random(n_rows) < 0.35).astype(float)
    avail = _draw_availability(rng, n_rows)
    cols = _draw_attributes(rng, n_rows)
    for j, alt in enumerate(ALTS):  # unavailable modes carry zeroed attributes
        for prefix in ("time_", "cost_", "access_"):
            if f"{prefix}{alt}" in cols:
                cols[f"{prefix}{alt}"][~avail[:, j]] = 0.0

    t = TRUTH
    V = np.empty((n_rows, len(ALTS)))
    for j, alt in enumerate(ALTS):
        V[:, j] = (
            t[f"asc_{alt}"]
            + (t["b_time"] + t["b_time_business"] * business) * cols[f"time_{alt}"]
            + t["b_cost"] * cols[f"cost_{alt}"]
        )
        if alt != "car":
            V[:, j] += t["b_access"] * cols[f"access_{alt}"]
    U = np.where(avail, V + rng.gumbel(0.0, 1.0, V.shape), -np.inf)

    cols.update(
        ID=person.astype(float),
        choice=U.argmax(axis=1).astype(float),
        female=female,
        business=business,
        income=income,
    )
    for j, alt in enumerate(ALTS):
        cols[f"av_{alt}"] = avail[:, j].astype(float)
    return cols


def _column_text(x: np.ndarray) -> list[str]:
    """Cells as ``logitlab.dataset.format_csv`` writes them: integral values
    without a decimal point, everything else by ``repr``."""
    integral = x == np.round(x)
    if integral.all():
        return list(map(str, x.astype(np.int64).tolist()))
    cells = np.array(list(map(repr, x.tolist())), dtype=object)
    cells[integral] = list(map(str, x[integral].astype(np.int64).tolist()))
    return cells.tolist()


def write_csv(cols: dict[str, np.ndarray], path: Path) -> None:
    """Write generated columns as a CSV the shipped dictionary describes."""
    names = dictionary_columns()
    text_cols = [
        [ALTS[c] for c in cols[name].astype(int).tolist()] if name == "choice"
        else _column_text(cols[name])
        for name in names
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(zip(*text_cols))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    write_csv(generate(args.rows, args.seed), args.out)


if __name__ == "__main__":
    main()
