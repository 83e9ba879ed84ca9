"""The names bench/spans.py wraps must exist, and callers must look them up."""

from __future__ import annotations

import importlib
import sys

from logitlab import runner
from logitlab.llmgate.config import ProviderConfig

from conftest import FIXTURES, ROOT

sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tools")]

import run  # noqa: E402
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


def test_traced_replay_session_calls_every_required_layer(tmp_path):
    """The benchmark's session in this process: a command that bypasses a
    wrapped name leaves its layer with no calls."""
    workload = run.ReplayWorkload("replay_cli", 1, tmp_path)
    with spans.Tracer() as tracer:
        outcome = workload.in_process(tracer)
    tally = run.Tally()
    workload.check(outcome, tally)
    assert (tally.correct, tally.failed) == (True, 0), tally.problems
    calls = spans.layer_calls(tracer)
    assert [layer for layer in run.REQUIRED_LAYERS["replay_cli"] if calls[layer] == 0] == []
