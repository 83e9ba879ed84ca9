"""logitlab benchmark: closed-loop fits and CLI sessions, with a traced run.

Usage, from the root of a logitlab checkout::

    python3 bench/run.py --workload fit_large --seed 1 --seconds 30 --trace 0

Workloads (one client each; it starts the next fit or command only when
the previous one has finished, and at most one worker process runs at a
time):

* ``fit_large``: ``data/specs/synthetic_best.dcm`` on 100k-row CSVs
  generated from the seed, one fit per worker process, a different CSV
  for each of the four batches.  The spec is affine in its parameters,
  so CSV load, bind, the vectorised kernel passes and the
  finite-difference Hessian do almost all the work.
* ``replay_cli``: a user session of fresh ``python -m logitlab.cli``
  processes: ``run --replay fixtures`` for experiments 1, 3 and 5 on the
  shipped CSV, then ``report summary``, ``best-of`` and ``profile``.  The
  replay inputs are fixed, because the fixtures' claims were recorded
  against the shipped file; the seed does not change this workload.

End-to-end metrics (``--trace 0``), medians over the run unless said
otherwise, printed with their sample counts:

* ``setup_s``: one set-up step, which generates and writes a batch's CSV
  and warms up (an interpreter importing ``logitlab.cli``).
* ``fit_s``: one fit, from CSV path to validated result; on replay_cli,
  ``logitlab run`` time per spec re-estimated, over the run (the three
  experiments' commands differ in time per spec, so a median of them
  would jump between experiments).
* ``fits_per_s``: fits per second of a batch's worker process, process
  start included; on replay_cli, specs re-estimated per second of
  ``logitlab run`` time, over the run.
* ``specs_per_s``: spec records completed per second.  On fit_large
  each fit is one validated spec, so it equals fits_per_s; on
  replay_cli it is per second of whole sessions, reports included.
* ``peak_rss_mb``: the largest peak resident memory of the processes
  doing timed work.

``error_rate`` (failed over attempted operations) is printed too, but is
not in ``BENCHMARK.json``, whose metrics must never read 0: it is 0 on
replay_cli, and on fit_large unless a generated dataset stalls.

A run first sets up the inputs of each of its ``BATCHES`` in a step of
its own (setup_s is the median step; replay_cli, whose inputs are fixed,
only warms up), then measures those batches, and more on the same inputs
until ``--seconds`` have passed.
Every result is checked against an independent computation (``oracle``
for fits; expected labels, verdicts and byte-identical files for
sessions).  With ``--trace 1`` the run instead executes one batch
in-process three times, the second with a span around every layer (see
``spans``), and reports the per-layer figures.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import fitjob  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from logitlab import cli  # noqa: E402

SHIPPED_CSV = ROOT / "data/synthetic/modechoice.csv"
SHIPPED_DICT = ROOT / "data/synthetic/modechoice_dict.md"
BEST_SPEC = ROOT / "data/specs/synthetic_best.dcm"
FIXTURES = ROOT / "fixtures"
REQUIRED = (SHIPPED_CSV, SHIPPED_DICT, BEST_SPEC, FIXTURES)

WORKLOADS = ("fit_large", "replay_cli")
# Batches of a run, each with inputs of its own.  fit_large takes four,
# so that one dataset on which the optimizer stalls (a few percent of
# datasets do) cannot set its median fit, and its fits span as long a run
# as replay_cli's sessions do.  A run measures more batches while time
# remains.
BATCHES = {"fit_large": 4, "replay_cli": 3}
LARGE_ROWS = 100_000
LL_REL_TOL = 1e-9
# A converged fit's independent gradient must be within ten times the
# engine's stopping threshold, grad_tol * max(1, |LL|/n), grad_tol = 1e-6.
GRAD_TOL = 10 * 1e-6
PROBE_REPEATS = 5

# (experiment, providers) of the replay session, and the expected outcome
# of each spec record: exclusion label and, where a claim exists, verdict.
SESSION_RUNS = ((1, "alpha,delta,golden"), (3, "beta"), (5, "epsilon"))
SESSION_REPORTS = (("summary",), ("best-of",), ("profile",))
EXPECTED = {
    1: {
        ("alpha", "s1_base"): ("included", "reproduced"),
        ("alpha", "s2_access"): ("included", "reproduced"),
        ("alpha", "s3_business"): ("included", "reproduced"),
        ("delta", "s1_time"): ("included", "not_reproduced"),
        ("delta", "s2_full"): ("included", "reproduced"),
        # the golden claim was recorded on the Apollo data, not this file
        ("golden", "rp_best"): ("included", "not_reproduced"),
    },
    3: {
        ("beta", "s1_generic"): ("excluded_no_asc", None),
        ("beta", "s2_ivt"): ("excluded_nonconvergence", None),
        ("beta", "s3_asc"): ("included", None),
    },
    5: {
        ("epsilon", "s1_base"): ("included", None),
        ("epsilon", "s2_access"): ("included", None),
        ("epsilon", "s3_interact"): ("included", None),
        ("epsilon", "s4_minimal"): ("excluded_no_asc", None),
    },
}
SESSION_SPECS = sum(len(v) for v in EXPECTED.values())

# Layers each workload must call; zero calls fails the traced run, so a
# refactor that bypasses a wrapper cannot report a layer as free.
FIT_LAYERS = (
    "dataset.load_dataset", "specdsl.parse_spec", "specdsl.bind", "engine.bfgs.estimate",
    "engine.kernel.log_likelihood", "engine.kernel.loglik_and_gradient",
    "engine.bfgs.hessian", "metrics", "validate.check_model",
)
REQUIRED_LAYERS = {
    "fit_large": FIT_LAYERS,
    "replay_cli": FIT_LAYERS + (
        "llmgate.build_prompt", "llmgate.complete", "llmgate.extract_specs",
        "runner.run_experiment", "runner.save_result", "dataset.format_csv",
        "runner.load_results", "report",
    ),
}

CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
))


class Tally:
    """Operations attempted and failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def record(self, ok: bool, what: str = "", wrong: bool = False) -> None:
        """One operation; ``wrong`` marks an output that disagrees with a check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        if wrong:
            self.correct = False


# -- child processes -----------------------------------------------------------


class Child(NamedTuple):
    code: int
    out: str
    err: str
    wall: float  # seconds
    peak_mb: float  # peak resident memory


def run_child(argv: list[str], log: Path) -> Child:
    """Run one process to completion; its output goes through ``log``."""
    err_log = log.with_suffix(".err")
    with open(log, "wb") as out, open(err_log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode,
        log.read_text(encoding="utf-8"),
        err_log.read_text(encoding="utf-8"),
        wall,
        usage.ru_maxrss / 1024.0,  # KiB on Linux
    )


def check_child(argv: list[str], log: Path) -> Child:
    child = run_child(argv, log)
    if child.code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {child.code}: {child.err[-2000:]}")
    return child


def warm_up(work: Path) -> None:
    """Compile and page in the package, as any earlier command would have."""
    check_child([sys.executable, "-c", "import logitlab.cli"], work / "warm.log")


# -- fit workload --------------------------------------------------------------


class FitWorkload:
    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.work = work
        self.batches = BATCHES[name]
        self.columns: dict[str, dict] = {}

    def setup(self, b: int) -> None:
        """Generate and write the input of batch ``b``."""
        path = self.work / f"large-{b}.csv"
        cols = gen.generate(LARGE_ROWS, [self.seed, b])
        gen.write_csv(cols, path)
        self.columns[str(path)] = cols
        warm_up(self.work)

    def batch_fits(self, b: int) -> list[tuple[str, str]]:
        """The (csv, spec) fits of batch ``b``, run by one worker process."""
        b %= self.batches  # a long run reuses the inputs
        return [(str(self.work / f"large-{b}.csv"), str(BEST_SPEC))]

    def run_job(self, name: str, fits: list[tuple[str, str]]) -> tuple[list[dict], Child]:
        """One worker process over some fits."""
        job = self.work / f"{name}.json"
        job.write_text(json.dumps({"dict": str(SHIPPED_DICT), "fits": fits}))
        child = check_child(
            [sys.executable, str(BENCH / "fitjob.py"), str(job)], self.work / f"{name}.log"
        )
        return json.loads(child.out), child

    def check(self, results: list[dict], tally: Tally) -> None:
        """Count each fit; a fit fails if it raised, disagrees or did not converge."""
        for r in results:
            where = Path(r["csv"]).name
            if "timeout" in r:
                tally.record(False, f"{where}: {r['timeout']}")
                continue
            problem = r.get("error") or self._disagreement(r)
            if problem:
                tally.record(False, f"{where}: {problem}", wrong=True)
            else:
                tally.record(
                    r["converged"],
                    f"{where}: not converged ({r['convergence_reason']}, "
                    f"{r['iterations']} iterations)",
                )

    def _disagreement(self, r: dict) -> str:
        """Compare a fit with the independent log-likelihood and gradient."""
        cols = self.columns[r["csv"]]
        names, ll_grad = oracle.ORACLES[r["spec"]]
        n = len(cols["choice"])
        if tuple(r["names"]) != names or r["n_obs"] != n:
            return "parameters or row count differ from the independent check"
        ll, grad = ll_grad(r["estimates"], cols)
        if not abs(r["loglik"] - ll) <= LL_REL_TOL * abs(ll):
            return f"LL {r['loglik']!r}, independent LL {ll!r}"
        g_max = float(abs(grad).max())
        if r["converged"] and g_max > GRAD_TOL * max(1.0, abs(ll) / n):
            return f"reports convergence, independent max|gradient| {g_max:.3g}"
        return ""

    def measure(self, seconds: float, tally: Tally) -> dict:
        fit_s, rates, peaks = [], [], []
        t0 = time.perf_counter()
        b = 0
        while b < self.batches or time.perf_counter() - t0 < seconds:
            results, child = self.run_job(f"job-{b}", self.batch_fits(b))
            self.check(results, tally)
            fit_s += [r["seconds"] for r in results if "error" not in r]  # timeouts count
            rates.append(len(results) / child.wall)
            peaks.append(child.peak_mb)
            b += 1
        return {
            "fit_s": (statistics.median(fit_s), len(fit_s)),
            "fits_per_s": (statistics.median(rates), b),
            "specs_per_s": (statistics.median(rates), b),
            "peak_rss_mb": (max(peaks), len(peaks)),
        }

    def in_process(self, tracer=None) -> list[dict]:
        """The first batch, run in this process (for the traced run)."""
        return fitjob.run_fits(str(SHIPPED_DICT), self.batch_fits(0), tracer)


# -- replay session ------------------------------------------------------------


def session_commands(runs: Path) -> list[list[str]]:
    cmds = [
        ["run", "--experiment", str(exp), "--providers", providers,
         "--data", str(SHIPPED_CSV), "--dict", str(SHIPPED_DICT),
         "--replay", str(FIXTURES), "--out", str(runs)]
        for exp, providers in SESSION_RUNS
    ]
    cmds += [["report", *r, "--runs", str(runs)] for r in SESSION_REPORTS]
    return cmds


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class ReplayWorkload:
    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.work = work
        self.runs = work / "runs"
        self.batches = BATCHES[name]
        self.reference: tuple[list[str], dict] | None = None

    def setup(self, b: int) -> None:
        """The session's inputs are the shipped files; only warm up."""
        warm_up(self.work)

    def check(self, session: tuple[list[str], list[int]], tally: Tally) -> None:
        """Exit codes, labels and verdicts, and sameness with the first session."""
        outputs, codes = session
        digest = tree_digest(self.runs)
        if self.reference is None:
            self.reference = (outputs, digest)
        ref_out, ref_digest = self.reference
        for i, cmd in enumerate(session_commands(self.runs)):
            what = " ".join(cmd[:3])
            problem = ""
            if codes[i] != 0:
                problem = f"exit {codes[i]}: {outputs[i][-500:]}"
            elif outputs[i] != ref_out[i]:
                problem = "output differs from the first session"
            elif cmd[0] == "run":
                exp = int(cmd[2])
                changed = [
                    name for name in sorted(set(digest) | set(ref_digest))
                    if name.startswith(f"exp{exp}/") and digest.get(name) != ref_digest.get(name)
                ]
                problem = self._check_experiment(exp) or (
                    f"{changed[0]} differs from the first session" if changed else ""
                )
            tally.record(not problem, f"{what}: {problem}", wrong=bool(problem))

    def _check_experiment(self, exp: int) -> str:
        got = {}
        for doc_path in sorted((self.runs / f"exp{exp}").glob("*.json")):
            if doc_path.name == "manifest.json":
                continue
            for rec in json.loads(doc_path.read_text(encoding="utf-8"))["records"]:
                verdict = rec["reproduction"]["verdict"] if rec["reproduction"] else None
                exclusion = rec["validation"]["exclusion"] if rec["validation"] else None
                got[(rec["provider"], rec["spec_name"])] = (exclusion, verdict)
        if got != EXPECTED[exp]:
            return f"labels/verdicts {sorted(got.items())} != expected"
        return ""

    def session(self, b: int) -> tuple[list[str], list[int], float, float, float]:
        """Fresh processes: (outputs, exit codes, wall s, s in `run` commands, peak MB)."""
        shutil.rmtree(self.runs, ignore_errors=True)
        outputs, codes, run_wall, peak = [], [], 0.0, 0.0
        t0 = time.perf_counter()
        for i, cmd in enumerate(session_commands(self.runs)):
            child = run_child(
                [sys.executable, "-m", "logitlab.cli", *cmd], self.work / f"cmd-{b}-{i}.log"
            )
            outputs.append(child.out + child.err)
            codes.append(child.code)
            peak = max(peak, child.peak_mb)
            if cmd[0] == "run":
                run_wall += child.wall
        return outputs, codes, time.perf_counter() - t0, run_wall, peak

    def measure(self, seconds: float, tally: Tally) -> dict:
        run_time, session_time, peaks = 0.0, 0.0, []
        t0 = time.perf_counter()
        b = 0
        while b < self.batches or time.perf_counter() - t0 < seconds:
            outputs, codes, wall, run_wall, peak = self.session(b)
            self.check((outputs, codes), tally)
            run_time += run_wall
            session_time += wall
            peaks.append(peak)
            b += 1
        # Sessions repeat identical work, so the figures are totals over the
        # run: they average the machine's swings in speed, where a median
        # of a few sessions jumps between them.
        return {
            "fit_s": (run_time / (b * SESSION_SPECS), b),
            "fits_per_s": (b * SESSION_SPECS / run_time, b),
            "specs_per_s": (b * SESSION_SPECS / session_time, b),
            "peak_rss_mb": (max(peaks), b),
        }

    def in_process(self, tracer=None) -> tuple[list[str], list[int]]:
        """The same session through ``logitlab.cli.main`` in this process."""
        shutil.rmtree(self.runs, ignore_errors=True)
        outputs, codes = [], []
        for i, cmd in enumerate(session_commands(self.runs)):
            if tracer is not None:
                tracer.op = f"cmd{i}"
            buf = io.StringIO()
            code = 0
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                try:
                    cli.main.main(args=cmd, prog_name="logitlab", standalone_mode=False)
                except Exception as exc:  # noqa: BLE001 - a failed command is a result
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    code = 1
            outputs.append(buf.getvalue())
            codes.append(code)
        return outputs, codes


def import_probe(work: Path) -> dict[str, float]:
    """CLI start-up from fresh interpreters: import cost and module counts."""
    def median_wall(code: str) -> float:
        return statistics.median(
            check_child([sys.executable, "-c", code], work / f"probe-{i}.log").wall
            for i in range(PROBE_REPEATS)
        )

    bare = median_wall("pass")
    with_cli = median_wall("import logitlab.cli")
    modules, has_requests = (int(x) for x in check_child([sys.executable, "-c", (
        "import sys; n = len(sys.modules); import logitlab.cli; "
        "print(len(sys.modules) - n, int('requests' in sys.modules))"
    )], work / "probe-modules.log").out.split())
    return {
        "cli.import_s": with_cli - bare,
        "cli.modules_imported": modules,
        "cli.requests_imported": has_requests,
    }


# -- main -----------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"bench: not a logitlab checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cls = ReplayWorkload if args.workload == "replay_cli" else FitWorkload
    workload = cls(args.workload, args.seed, work)
    tally = Tally()
    try:
        if args.trace:
            workload.setup(0)
            metrics = traced_run(workload, args, tally, work, work_root)
        else:
            setups = []
            for b in range(workload.batches):
                t0 = time.perf_counter()
                workload.setup(b)
                setups.append(time.perf_counter() - t0)
            metrics = workload.measure(args.seconds, tally)
            metrics["setup_s"] = (statistics.median(setups), len(setups))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    for name, (value, samples) in metrics.items():
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:36s} {value:14.6g} {units[name]}{suffix}")
    error_rate = tally.failed / tally.attempted
    print(f"  {'error_rate':36s} {error_rate:14.6g} ratio  ({tally.failed}/{tally.attempted})")
    for problem in tally.problems:
        print(f"  failed: {problem}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, (v, _) in metrics.items()},
    }))
    return 0


def traced_run(workload, args, tally: Tally, work: Path, work_root: Path) -> dict:
    """Untraced, traced, untraced again: the traced pass gives the per-layer
    figures, and the passes around it the time it would take untraced."""
    def timed(tracer=None) -> float:
        t0 = time.perf_counter()
        outcome = workload.in_process(tracer)
        seconds = time.perf_counter() - t0
        workload.check(outcome, tally)
        return seconds

    before = timed()
    with spans.Tracer() as tracer:
        traced_s = timed(tracer)
    untraced = (before + timed()) / 2
    per_layer = spans.layer_metrics(tracer)
    calls = spans.layer_calls(tracer)
    for layer in REQUIRED_LAYERS[args.workload]:
        if calls[layer] == 0:
            tally.correct = False
            tally.problems.append(f"trace: layer {layer} recorded no calls")
    if args.workload == "replay_cli":
        per_layer.update(import_probe(work))
    else:
        per_layer.update({"cli.import_s": 0.0, "cli.modules_imported": 0, "cli.requests_imported": 0})
    per_layer["trace.overhead_ratio"] = traced_s / untraced
    for f in tracer.fits:
        print(f"  fit {f['op']}: {f['convergence_reason']} after {f['iterations']} iterations")
    tracer.dump(
        work_root / f"trace-{args.workload}-seed{args.seed}.json",
        {"workload": args.workload, "seed": args.seed, "metrics": per_layer},
    )
    return {name: (value, None) for name, value in per_layer.items()}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name to unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
