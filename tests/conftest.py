"""Shared fixtures: frozen datasets, the reference spec, one estimation."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from logitlab import dataset as ds
from logitlab.engine import bfgs
from logitlab.specdsl import binding, parser

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
FIXTURES = ROOT / "fixtures"

SYNTH_CSV = DATA / "synthetic/modechoice.csv"
SYNTH_FLIPPED_CSV = DATA / "synthetic/modechoice_flipped.csv"
SYNTH_DICT = DATA / "synthetic/modechoice_dict.md"
BEST_SPEC = DATA / "specs/synthetic_best.dcm"
BOXCOX_SPEC = DATA / "specs/boxcox_piecewise.dcm"  # a non-affine spec: Box-Cox and piecewise terms

APOLLO_CSV = DATA / "apollo/modechoice.csv"
APOLLO_DICT = DATA / "apollo/modechoice_dict.md"
APOLLO_SPEC = DATA / "specs/apollo_best.dcm"

needs_apollo = pytest.mark.skipif(
    not APOLLO_CSV.is_file(),
    reason=f"mode choice extract not present; see {DATA / 'apollo/README.md'} to drop it in",
)


@pytest.fixture(scope="session")
def synth_data() -> ds.Dataset:
    return ds.load_dataset(SYNTH_CSV, SYNTH_DICT)


@pytest.fixture(scope="session")
def flipped_data() -> ds.Dataset:
    return ds.load_dataset(SYNTH_FLIPPED_CSV, SYNTH_DICT)


@pytest.fixture(scope="session")
def best_spec() -> parser.UtilitySpec:
    return parser.parse_spec(BEST_SPEC.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def best_model(best_spec, synth_data) -> binding.BoundModel:
    return binding.bind(best_spec, synth_data)


@pytest.fixture(scope="session")
def best_result(best_model) -> bfgs.EstimationResult:
    return bfgs.estimate(best_model)


def fresh_python(*args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """A new interpreter run with ``-X importtime``, and the modules it imported."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    imported = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }
    return proc, imported
