"""Spans around logitlab's layers, recorded from outside the package.

:class:`Tracer` replaces the attribute each caller looks up (for example
``logitlab.engine.bfgs.log_likelihood``, which is what ``estimate``
calls) with a wrapper that records a span: layer name, start, end, the
enclosing span and the operation it belongs to.  Spans stay in memory;
:func:`layer_metrics` turns them into the per-layer figures and
:meth:`Tracer.dump` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

# (module, attribute, layer).  One layer may sit behind several names,
# because ``from x import f`` gives each importing module its own name.
WRAPPED = (
    ("logitlab.dataset", "load_dataset", "dataset.load_dataset"),
    ("logitlab.runner", "format_csv", "dataset.format_csv"),
    ("logitlab.llmgate.prompts", "format_csv", "dataset.format_csv"),
    ("logitlab.specdsl.parser", "parse_spec", "specdsl.parse_spec"),
    ("logitlab.runner", "parse_spec", "specdsl.parse_spec"),
    ("logitlab.llmgate.extract", "parse_spec", "specdsl.parse_spec"),
    ("logitlab.specdsl.binding", "bind", "specdsl.bind"),
    ("logitlab.runner", "bind", "specdsl.bind"),
    ("logitlab.engine.bfgs", "estimate", "engine.bfgs.estimate"),
    ("logitlab.runner", "estimate", "engine.bfgs.estimate"),
    ("logitlab.engine.bfgs", "log_likelihood", "engine.kernel.log_likelihood"),
    ("logitlab.engine.bfgs", "loglik_and_gradient", "engine.kernel.loglik_and_gradient"),
    ("logitlab.engine.bfgs", "_fd_hessian", "engine.bfgs.hessian"),
    ("logitlab.metrics", "information_criteria", "metrics"),
    ("logitlab.metrics", "value_of_time", "metrics"),
    ("logitlab.runner", "information_criteria", "metrics"),
    ("logitlab.runner", "value_of_time", "metrics"),
    ("logitlab.validate", "check_model", "validate.check_model"),
    ("logitlab.runner", "check_model", "validate.check_model"),
    ("logitlab.runner", "build_prompt", "llmgate.build_prompt"),
    ("logitlab.runner", "complete", "llmgate.complete"),
    ("logitlab.runner", "extract_specs", "llmgate.extract_specs"),
    ("logitlab.runner", "run_experiment", "runner.run_experiment"),
    ("logitlab.runner", "save_result", "runner.save_result"),
    ("logitlab.runner", "load_results", "runner.load_results"),
    ("logitlab.report", "summary_table", "report"),
    ("logitlab.report", "best_of", "report"),
    ("logitlab.report", "llm_profile", "report"),
    ("logitlab.report", "profile_table", "report"),
)

KERNEL = ("engine.kernel.log_likelihood", "engine.kernel.loglik_and_gradient")


@dataclass
class Span:
    layer: str
    op: str
    id: int
    parent: int | None
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.fits: list[dict] = []
        self.counts = {"llmgate.specs_extracted": 0, "llmgate.claims": 0, "runner.bytes_written": 0}
        self.op = ""
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, layer in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(layer, self.op, sid, parent, start, end))
            self._observe(layer, result)
            return result

        return wrapper

    def _observe(self, layer: str, result) -> None:
        if layer == "engine.bfgs.estimate":
            self.fits.append({
                "op": self.op,
                "convergence_reason": result.convergence_reason,
                "iterations": result.iterations,
                "converged": bool(result.converged),
            })
        elif layer == "llmgate.extract_specs":
            self.counts["llmgate.specs_extracted"] += len(result.specs)
            self.counts["llmgate.claims"] += len(result.claimed)
        elif layer == "runner.save_result":
            self.counts["runner.bytes_written"] += sum(
                p.stat().st_size for p in Path(result).parent.iterdir()
            )

    def dump(self, path: Path, extra: dict) -> None:
        doc = {**extra, "fits": self.fits, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and seconds from the recorded spans."""
    spans = {s.id: s for s in tracer.spans}
    children: dict[int, list[Span]] = {}
    for s in tracer.spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def inside(s: Span, layer: str) -> bool:
        p = s.parent
        while p is not None:
            if spans[p].layer == layer:
                return True
            p = spans[p].parent
        return False

    def descendants(s: Span):
        for c in children.get(s.id, ()):
            yield c
            yield from descendants(c)

    def of(layer: str) -> list[Span]:
        return [s for s in tracer.spans if s.layer == layer]

    def busy(layer: str) -> float:
        """Seconds in a layer, counting a span nested in its own layer once."""
        return sum(s.seconds for s in of(layer) if not inside(s, layer))

    value_calls = len(of("engine.kernel.log_likelihood"))
    iterations = sum(f["iterations"] for f in tracer.fits)
    estimates = of("engine.bfgs.estimate")
    m = {
        "dataset.load_dataset.s": busy("dataset.load_dataset"),
        "specdsl.bind.s": busy("specdsl.bind"),
        "specdsl.parse_spec.s": busy("specdsl.parse_spec"),
    }
    for layer in KERNEL:
        m[f"{layer}.calls"] = len(of(layer))
        m[f"{layer}.s"] = busy(layer)
    m.update({
        "engine.bfgs.iterations": iterations,
        "engine.bfgs.backtracks": value_calls - iterations,
        "engine.bfgs.accept_ratio": iterations / value_calls if value_calls else 0.0,
        "engine.bfgs.nonconverged": sum(not f["converged"] for f in tracer.fits),
        "engine.bfgs.hessian.calls": sum(
            1 for s in of("engine.kernel.loglik_and_gradient") if inside(s, "engine.bfgs.hessian")
        ),
        "engine.bfgs.hessian.s": busy("engine.bfgs.hessian"),
        "engine.bfgs.self_s": sum(
            s.seconds - sum(d.seconds for d in descendants(s) if d.layer in KERNEL)
            for s in estimates
        ),
        "metrics.s": busy("metrics"),
        "validate.check_model.s": busy("validate.check_model"),
        "llmgate.build_prompt.s": busy("llmgate.build_prompt"),
        "llmgate.complete.s": busy("llmgate.complete"),
        "llmgate.extract_specs.s": busy("llmgate.extract_specs"),
        "llmgate.specs_extracted": tracer.counts["llmgate.specs_extracted"],
        "llmgate.claims": tracer.counts["llmgate.claims"],
        "runner.run_experiment.self_s": sum(
            s.seconds - sum(c.seconds for c in children.get(s.id, ()))
            for s in of("runner.run_experiment")
        ),
        "runner.save_result.s": busy("runner.save_result"),
        "dataset.format_csv.s": busy("dataset.format_csv"),
        "runner.bytes_written": tracer.counts["runner.bytes_written"],
        "runner.load_results.s": busy("runner.load_results"),
        "report.s": busy("report"),
    })
    return m


def layer_calls(tracer: Tracer) -> dict[str, int]:
    """Number of spans per layer, for the guard against bypassed wrappers."""
    calls = {layer: 0 for _, _, layer in WRAPPED}
    for s in tracer.spans:
        calls[s.layer] += 1
    return calls
