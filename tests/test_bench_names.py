"""The names bench/spans.py wraps must exist, and callers must look them up."""

from __future__ import annotations

import importlib
import sys

from logitlab import runner
from logitlab.llmgate.config import ProviderConfig

from conftest import FIXTURES, ROOT

sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tools")]

import spans  # noqa: E402


def test_every_wrapped_name_resolves_to_a_callable():
    for module_name, attr, _ in spans.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_loading_results_parses_specs_through_a_wrapped_name(tmp_path, synth_data):
    beta = ProviderConfig(name="beta", model="beta-mini")
    result = runner.run_experiment(3, [beta], synth_data, replay_dir=FIXTURES, out_dir=tmp_path)
    with spans.Tracer() as tracer:
        runner.load_results(tmp_path)
    assert spans.layer_calls(tracer)["specdsl.parse_spec"] == len(result.records)
