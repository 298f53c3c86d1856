"""Benchmark for resonatorsim: one workload, one seed, one run.

    python3 bench/run.py --workload damped_traces --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run is single-process and closed-loop:
it repeats passes over the workload's fixed call list (workloads.py) while
the next pass still fits in --seconds, times each call with perf_counter,
and checks every output against the independent oracle (oracle.py) outside
the timed region.

--trace 0 prints the end-to-end metrics: set-up time of a fresh interpreter
(median of SETUP_REPEATS children), median warm pass time, peak resident
memory and the share of calls that passed.  --trace 1 is a separate run that
alternates untraced and traced passes (tracer.py) and prints the per-layer
metrics, the tracing overhead and import times from `-X importtime`.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A full record with the environment stamp,
and the spans of a traced run, are written to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
IMPORTS = {"numpy": "numpy", "scipy.linalg": "scipy_linalg",
           "scipy.optimize": "scipy_optimize", "resonatorsim": "resonatorsim"}

#: per-layer function metrics: (metric prefix, traced functions, work key)
FUNCTION_METRICS = (
    ("dynamics.evolve_lindblad_batch", ("dynamics.evolve_lindblad_batch",), "samples"),
    ("dynamics.evolve_unitary", ("dynamics.evolve_unitary",), "samples"),
    ("dynamics.integrate_amplitudes", ("dynamics.integrate_amplitudes",), "samples"),
    ("hamiltonians.build_full", ("hamiltonians.build_full",), None),
    ("hamiltonians.build_sw_generator", ("hamiltonians.build_sw_generator",), None),
    ("hamiltonians.shift_frame", ("hamiltonians.shift_frame",), None),
    ("hamiltonians.verify_sw_identities", ("hamiltonians.verify_sw_identities",), None),
    ("fockspace.build_basis", ("fockspace.build_basis",), None),
    ("fockspace.operators", ("fockspace.annihilation", "fockspace.creation",
                             "fockspace.number", "fockspace.total_number"), None),
    ("analytic.find_w_crossings", ("analytic.find_w_crossings",), None),
    ("analytic.amplitude_grid", ("analytic.amplitude_grid",), None),
    ("experiments.write_result", ("experiments.write_result",), "bytes"),
    ("cli.main", ("cli.main",), None),
)
SCENARIOS = ("scenario_population", "sweep_fidelity_vs_time", "sweep_fidelity_map_g2",
             "sweep_gm", "sweep_werner", "optimize_g1")


def main(argv=None) -> int:
    args = _parse(argv)
    load_at_start = os.getloadavg()
    if not (SRC / "resonatorsim" / "__init__.py").is_file():
        print(f"error: no resonatorsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_child:
        return _setup_child(args)

    OUT.mkdir(exist_ok=True)
    setup = _measure_setup(args, importtime=bool(args.trace))
    if setup is None:
        return 1
    import resonatorsim

    if Path(resonatorsim.__file__).resolve().parent != SRC / "resonatorsim":
        print(f"error: imported resonatorsim from {resonatorsim.__file__}", file=sys.stderr)
        return 2
    from workloads import build_calls, draw_inputs

    inputs = draw_inputs(args.workload, args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        calls = build_calls(args.workload, inputs, workdir)
        runner = Runner(calls)
        selfcheck = runner.self_check_raising()
        if args.trace:
            record = runner.traced_run(args.seconds)
        else:
            record = runner.timed_run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    selfcheck += runner.selfcheck_errors

    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        inputs=inputs, environment=_environment(load_at_start), setup=setup,
        attempted=runner.attempted, failed=runner.failed, failures=runner.failures[:20],
        selfcheck_errors=selfcheck,
    )
    if args.trace:
        metrics = _per_layer_metrics(record)
    else:
        metrics = {
            "setup_s": (statistics.median(setup["wall_s"]), "s"),
            "pass_s": (record["pass_s"]["median"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - runner.failed / runner.attempted, "ratio"),
        }
    record["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    spans = record.pop("spans", None)
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans, separators=(",", ":")))
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1, default=float))

    for failure in runner.failures[:5] + selfcheck[:5]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} passes={record['pass_s']['count']} "
          f"pass_s q1/median/q3 = {record['pass_s']['q1']:.4f}/{record['pass_s']['median']:.4f}/"
          f"{record['pass_s']['q3']:.4f}; record: {OUT.name}/result-{stem}.json")
    print(json.dumps({
        "correct": runner.failed == 0 and not selfcheck,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- set-up -----------------------------------------------------------------------


def _setup_child(args) -> int:
    """What a user pays before the first call: import and input generation."""
    import resonatorsim  # noqa: F401
    from workloads import build_calls, draw_inputs

    with tempfile.TemporaryDirectory(prefix="setup-", dir=OUT) as workdir:
        build_calls(args.workload, draw_inputs(args.workload, args.seed), Path(workdir))
    return 0


def _measure_setup(args, importtime: bool) -> dict | None:
    """Wall times of fresh set-up children, plus their -X importtime
    breakdown when asked for."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(Path(__file__).resolve()), "--setup-child",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    walls, imports = [], {key: [] for key in IMPORTS.values()}
    for _ in range(IMPORTTIME_REPEATS if importtime else SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            print(f"error: set-up child failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        if importtime:
            cumulative = _import_times(proc.stderr)
            for module, key in IMPORTS.items():
                imports[key].append(cumulative.get(module, 0.0))
    return {"wall_s": walls, "import_s": imports if importtime else None}


def _import_times(stderr: str) -> dict:
    """Cumulative seconds of each module's first import, from -X importtime."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        name = name.strip()
        if cumulative.strip().isdigit() and name not in out:
            out[name] = int(cumulative) * 1.0e-6
    return out


# --- passes -------------------------------------------------------------------------


class Runner:
    """Runs and checks passes over a call list, counting attempts and failures."""

    def __init__(self, calls):
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.selfcheck_errors: list[str] = []
        self.call_times: dict[str, list[float]] = {c.name: [] for c in calls}
        self._checked_once: set[str] = set()
        self._sink = io.StringIO()

    def attempt(self, call) -> tuple[float, object, str | None]:
        """Time one call; returns (seconds, output, error)."""
        self._sink.seek(0)
        self._sink.truncate()
        with contextlib.redirect_stdout(self._sink):
            start = time.perf_counter()
            try:
                output = call.run()
            except Exception as exc:  # a raising call is a failed call
                return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        return elapsed, output, None

    def one_pass(self) -> float:
        total = 0.0
        for call in self.calls:
            elapsed, output, error = self.attempt(call)
            total += elapsed
            self.call_times[call.name].append(elapsed)
            if error is None:
                error = call.check(output)
                if call.name not in self._checked_once:
                    self._checked_once.add(call.name)
                    miss = call.self_check(output)
                    if miss:
                        self.selfcheck_errors.append(miss)
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.failures.append(f"{call.name}: {error}")
        return total

    def self_check_raising(self) -> list[str]:
        """A call that raises must come back as a failure."""
        import resonatorsim
        from workloads import Call

        probe = Call("probe", lambda: resonatorsim.sweep_gm(ratios=(-1.0,)),
                     lambda out: {}, lambda got: {}, 0.0)
        _, _, error = self.attempt(probe)
        return [] if error else ["a raising call was not reported as a failure"]

    def timed_run(self, seconds: float) -> dict:
        (passes,) = _repeat(seconds, lambda: [self.one_pass()])
        return {"pass_s": _summary(passes), "all_pass_s": passes,
                "call_s": {k: statistics.median(v) for k, v in self.call_times.items()}}

    def traced_run(self, seconds: float) -> dict:
        from tracer import Tracer

        tracer = Tracer()
        summaries, works, spans = [], [], []

        def pair():
            untraced = self.one_pass()
            tracer.install()
            try:
                traced = self.one_pass()
            finally:
                tracer.uninstall()
            pass_spans, work = tracer.take()
            summaries.append(tracer.summarize(pass_spans))
            works.append(work)
            spans.append(tracer.dump(pass_spans))
            return [untraced, traced]

        untraced, traced = _repeat(seconds, pair)
        return {"pass_s": _summary(traced), "untraced_pass_s": _summary(untraced),
                "all_pass_s": traced, "summaries": summaries, "work": works, "spans": spans}


def _repeat(seconds: float, step) -> list[list[float]]:
    """Repeat step() while the next repeat, taking as long as the slowest so
    far, still ends within `seconds`; at least once.  Results as columns."""
    results, durations = [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start + max(durations) <= seconds:
        began = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - began)
    return [list(col) for col in zip(*results)]


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "count": len(values)}


# --- per-layer metrics ----------------------------------------------------------------


def _per_layer_metrics(record: dict) -> dict:
    from tracer import LAYERS

    summaries, works = record.pop("summaries"), record.pop("work")
    traced = record["all_pass_s"]

    def med(fn):
        return statistics.median(fn(s, w, t) for s, w, t in zip(summaries, works, traced))

    def total(summary, names, key):
        return sum(summary.get(n, {}).get(key, 0.0) for n in names)

    def layer_names(summary, layer):
        return [n for n in summary if n.startswith(layer + ".")]

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (med(lambda s, w, t: total(s, layer_names(s, layer), "self_s")), "s")
        metrics[f"{layer}.calls"] = (med(lambda s, w, t: total(s, layer_names(s, layer), "calls")), "count")
    for prefix, names, work in FUNCTION_METRICS:
        metrics[f"{prefix}.self_s"] = (med(lambda s, w, t: total(s, names, "self_s")), "s")
        metrics[f"{prefix}.calls"] = (med(lambda s, w, t: total(s, names, "calls")), "count")
        if work:
            metrics[f"{prefix}.{work}"] = (
                med(lambda s, w, t: sum(w.get(f"{n}.{work}", 0) for n in names)), work)
    for name in SCENARIOS:
        metrics[f"experiments.{name}.wall_s"] = (
            med(lambda s, w, t: total(s, [f"experiments.{name}"], "wall_s")), "s")
    for key, values in record["setup"]["import_s"].items():
        metrics[f"setup.import.{key}_s"] = (statistics.median(values), "s")

    lindblad = "dynamics.evolve_lindblad_batch"
    untraced = record["untraced_pass_s"]["median"]
    metrics["trace.pass_s"] = (record["pass_s"]["median"], "s")
    metrics["trace.untraced_pass_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (record["pass_s"]["median"] - untraced, "s")
    metrics["trace.self_sum_s"] = (
        med(lambda s, w, t: sum(e["self_s"] for e in s.values())), "s")
    metrics["trace.coverage"] = (
        med(lambda s, w, t: sum(e["self_s"] for e in s.values()) / t), "ratio")
    metrics[f"{lindblad}.share"] = (
        med(lambda s, w, t: total(s, [lindblad], "self_s") / t), "ratio")
    return metrics


# --- environment -------------------------------------------------------------------------


def _environment(load_at_start) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "os_threads": _os_threads(),
        "loadavg_at_start": list(load_at_start),
    }


def _os_threads() -> int | None:
    """Threads of this process, BLAS pool included (Linux only)."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    return next((int(line.split()[1]) for line in status.splitlines()
                 if line.startswith("Threads:")), None)


if __name__ == "__main__":
    sys.exit(main())
