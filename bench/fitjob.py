"""One maximum-likelihood fit as a user runs it, and the worker that runs many.

:func:`fit` is the call chain of ``logitlab estimate`` followed by the
measures ``logitlab run`` adds: load the CSV, parse the spec, bind,
estimate, then information criteria, value of time and the inclusion
rules.  It calls every layer through its module attribute, so the
wrappers of :mod:`spans` see each call.

Run as a script, it is the benchmark's worker process::

    python3 bench/fitjob.py JOB.json

where ``JOB.json`` holds ``{"dict": path, "fits": [[csv, spec], ...]}``.
It runs the fits one after another and prints one JSON line with a
result per fit.
"""

from __future__ import annotations

import contextlib
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from logitlab import dataset as ds  # noqa: E402
from logitlab import metrics, validate  # noqa: E402
from logitlab.engine import bfgs  # noqa: E402
from logitlab.specdsl import binding, parser  # noqa: E402

# A fit that hits the optimizer's 500-iteration limit on 100k rows takes
# minutes; cutting it off keeps a run within its time budget.  Normal fits
# take well under a third of this on a 2-core machine.
FIT_DEADLINE_S = 45.0


class FitTimeout(BaseException):
    """Not an Exception, so no ``except Exception`` in the fit swallows it."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise FitTimeout in this (main) thread once ``seconds`` have passed."""
    def expire(signum, frame):
        raise FitTimeout(f"fit did not finish within {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def fit(csv_path: str, dict_path: str, spec_path: str) -> dict:
    """Fit one spec to one CSV; the result carries its own wall time."""
    t0 = time.perf_counter()
    data = ds.load_dataset(csv_path, dict_path)
    spec = parser.parse_spec(Path(spec_path).read_text(encoding="utf-8"))
    model = binding.bind(spec, data)
    est = bfgs.estimate(model)
    info = metrics.information_criteria(est.loglik, est.n_free, model.n_obs)
    vot = metrics.value_of_time(est, spec, data.dictionary).value
    report = validate.check_model(est, spec, data.dictionary)
    seconds = time.perf_counter() - t0
    return {
        "csv": str(csv_path),
        "spec": spec.name,
        "seconds": seconds,
        "n_obs": model.n_obs,
        "names": list(est.names),
        "estimates": est.estimates.tolist(),
        "loglik": est.loglik,
        "aic": info.aic,
        "vot": vot,
        "iterations": est.iterations,
        "converged": bool(est.converged),
        "convergence_reason": est.convergence_reason,
        "exclusion": report.exclusion,
    }


def run_fits(dict_path: str, fits: list[tuple[str, str]], tracer=None) -> list[dict]:
    """Closed loop: each fit starts when the previous one has finished.

    A ``tracer`` (see ``spans.Tracer``) gets each fit's index as its
    operation name, so the spans of one fit share an identifier.
    """
    results = []
    for i, (csv_path, spec_path) in enumerate(fits):
        if tracer is not None:
            tracer.op = f"fit{i}"
        t0 = time.perf_counter()
        try:
            with deadline(FIT_DEADLINE_S):
                result = fit(csv_path, dict_path, spec_path)
        except FitTimeout as exc:
            result = {"csv": str(csv_path), "timeout": str(exc), "seconds": time.perf_counter() - t0}
        except Exception as exc:  # noqa: BLE001 - a failed fit is a result
            result = {"csv": str(csv_path), "error": f"{type(exc).__name__}: {exc}"}
        results.append(result)
    return results


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    print(json.dumps(run_fits(job["dict"], job["fits"])))


if __name__ == "__main__":
    main()
