"""Independent log-likelihood and gradient for the benchmark's spec.

Written against the CSV columns directly, in the style of
``tools/oracle_mnl.py``: each spec's utilities and their derivatives are
spelled out by hand in numpy, and nothing here calls ``logitlab``.  The
benchmark evaluates these at every fit's reported estimates to check the
engine's log-likelihood and its claim of a stationary point.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

ALTS = ("car", "bus", "air", "rail")

# Free parameters in declaration order, which is the engine's order.
BEST_FREE = ("asc_bus", "asc_air", "asc_rail", "b_time", "b_cost", "b_access", "b_time_business")


def read_columns(csv_path: str | Path) -> dict[str, np.ndarray]:
    """CSV columns as float arrays; ``choice`` as 0-based indices into ALTS."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    out = {}
    for i, name in enumerate(header):
        cells = [r[i] for r in rows]
        if name == "choice":
            out[name] = np.array(
                [ALTS.index(c) if c in ALTS else int(float(c)) - 1 for c in cells], dtype=float
            )
        else:
            out[name] = np.array(cells, dtype=float)
    return out


def _stack(cols: dict[str, np.ndarray], prefix: str) -> np.ndarray:
    """(n, 4) attribute matrix; car has no access column, so zeros there."""
    n = len(cols["choice"])
    return np.column_stack(
        [cols.get(f"{prefix}{a}", np.zeros(n)) for a in ALTS]
    )


def _mnl(V: np.ndarray, dV: np.ndarray, cols: dict[str, np.ndarray]) -> tuple[float, np.ndarray]:
    """MNL log-likelihood and gradient from utilities V (n, J) and dV (n, J, k)."""
    avail = _stack(cols, "av_") > 0
    choice = cols["choice"].astype(int)
    rows = np.arange(len(choice))
    V = np.where(avail, V, -np.inf)
    V = V - V.max(axis=1, keepdims=True)
    expV = np.where(avail, np.exp(V), 0.0)
    denom = expV.sum(axis=1)
    P = expV / denom[:, None]
    ll = float((V[rows, choice] - np.log(denom)).sum())
    dV = np.where(avail[:, :, None], dV, 0.0)
    grad = (dV[rows, choice, :] - np.einsum("nj,njk->nk", P, dV)).sum(axis=0)
    return ll, grad


def _asc_design(n: int, k: int) -> np.ndarray:
    dV = np.zeros((n, len(ALTS), k))
    for j in range(1, len(ALTS)):  # asc_car is fixed at zero
        dV[:, j, j - 1] = 1.0
    return dV


def best_ll_grad(theta, cols: dict[str, np.ndarray]) -> tuple[float, np.ndarray]:
    """``data/specs/synthetic_best.dcm``: ASCs plus generic time, cost, access
    and time-by-business effects."""
    asc_bus, asc_air, asc_rail, b_time, b_cost, b_access, b_tb = np.asarray(theta, dtype=float)
    time, cost, access = _stack(cols, "time_"), _stack(cols, "cost_"), _stack(cols, "access_")
    time_business = time * cols["business"][:, None]
    V = (
        np.array([0.0, asc_bus, asc_air, asc_rail])
        + b_time * time + b_cost * cost + b_access * access + b_tb * time_business
    )
    dV = _asc_design(len(V), len(BEST_FREE))
    for i, x in enumerate((time, cost, access, time_business), start=3):
        dV[:, :, i] = x
    return _mnl(V, dV, cols)


ORACLES = {
    "synthetic_best": (BEST_FREE, best_ll_grad),
}
