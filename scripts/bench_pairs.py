"""Run the benchmark on two checkouts in alternating pairs and summarise it.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pr N \
        --workloads damped_endpoints,damped_traces --seeds 1:10

For every workload and seed it runs `bench/run.py --trace 0` once in each
checkout, for the `run_seconds` of BENCHMARK.json, alternating which side
goes first from one pair to the next, and reads the end-to-end metrics
from the last line of its output.  Then, once per seed and in the same
alternating order, it times three commands on each side, each run as
`python -m resonatorsim` from a fresh working directory that holds the
config DAMPED_CONFIG as damped.json: `all`, the `crossings --n 3` cold
start and the cold start of one damped `werner --config damped.json`,
which pays the damped Werner sweep's once-per-process set-up.  With each
wall time it keeps the command's minor page faults, the RUSAGE_CHILDREN
ru_minflt delta across the run (`all_minflt`, `crossings_n3_minflt`,
`werner_damped_minflt`): a count of the fresh pages the process took,
nearly the same from run to run where wall time is noisy.
In the same loop it times the tier-1 suite once per side, `python -m
pytest -q` in the checkout with its src/ on PYTHONPATH, and records its
passed and failed counts under "suite"; pytest's exit code 1 (some tests
failed) is a result, not a failed run.  It writes BENCH_<pr>.json in the
current directory: per workload and metric, per CLI command (wall seconds
and minor page faults, under "cli") and for the suite (wall seconds, under
"suite"), each side's median and quartiles (and the raw values), the
number of pairs the change won (ties count for neither side), the relative
change of the medians and the parent's interquartile range.  Each
end-to-end metric of a workload also gets its "bound" from the change's
BENCHMARK.json, a share of the parent's median, and two verdicts on it:
"over_bound", the change's median is worse than the parent's by more than
the bound, and "unresolved", the parent's interquartile range exceeds the
bound and not every change run beats every parent run; the CLI and suite
entries, which have no bound, get null for all three.  Beside the verdicts,
every entry keeps the ratio change / parent of each pair (pairs whose parent
reads 0 left out) as "paired_ratio_median" and "paired_ratio_iqr", the
median and the distance between the quartiles of those ratios: pairing
cancels drift that moves both runs of a pair, so a paired IQR well under
the parent's relative IQR shows drift between pairs, and one as wide shows
noise within them.  They decide no verdict.  With these go
both git SHAs (commit and src/ tree), the settings and the environment
stamp of the first run on each side.  The git SHAs name what is committed,
so a checkout with uncommitted edits reads as its commit; "src_sha256"
names the files that ran, a sha256 over the path (relative to src/) and
bytes of every .py file under each side's src/.  Under "call_s" it keeps, per
workload, side and benchmark call, the median, quartiles and raw values
of that call's per-run median seconds (the "call_s" of each run's record),
which shows which call moved when a pass time does.  Under "src_lines" it
keeps each side's line count of every module under src/ and their total,
so a change that should shrink the package shows by how much.  After the
timed pairs it runs `python -m resonatorsim all` once more on each side,
into two fresh directories, and keeps under "all_outputs" each result
file's verdict from scripts/compare_outputs.py ("byte-identical", the
largest difference, or the side it is missing from; manifests record
paths and are skipped).  No default run of `all` has decay rates, so it
does the same for one damped `werner --config` (per-mode rates 0.3, 0.1,
0.5 and 0.8 MHz, bus first, from a temporary config) under
"damped_werner_outputs".  "settings" records PYTHONDONTWRITEBYTECODE as the
runs see it (null when unset): with it set, every run compiles the package
from source, so the package's size shows in setup_s and the cold starts.
Which direction is better is read from the change's BENCHMARK.json.  Exits
1 when a run fails, reports incorrect outputs, or the suite does not finish
with a pass/fail count.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")

#: CLI commands timed end to end, by the name of their wall-time entry;
#: each runs beside DAMPED_CONFIG, written to damped.json
CLI_COMMANDS = {
    "all_s": ["all", "--outdir", "results"],
    "crossings_n3_s": ["crossings", "--n", "3"],
    "werner_damped_s": ["werner", "--config", "damped.json", "--out", "werner_sweep.csv"],
}

#: the tier-1 suite, run in the checkout with its src/ on PYTHONPATH
SUITE_COMMAND = ["-m", "pytest", "-q"]

#: the runs whose result files are compared between the sides, by summary
#: key: argv after `python -m resonatorsim`, {out} standing for the side's
#: output directory; no default run of `all` has decay rates, so the damped
#: Werner sweep runs on its own, from the config DAMPED_CONFIG
OUTPUT_RUNS = {
    "all_outputs": ["all", "--outdir", "{out}"],
    "damped_werner_outputs": ["werner", "--config", "damped.json",
                              "--out", "{out}/werner_sweep.csv"],
}

#: the standard working point with per-mode decay rates 0.3 (bus), 0.1, 0.5
#: and 0.8 MHz, written to damped.json beside the runs
DAMPED_CONFIG = {
    "bus": {"freq_ghz": 6.75, "kappa_mhz": 0.3},
    "resonators": [{"freq_ghz": 5.75, "g_mhz": 50.0, "kappa_mhz": k} for k in (0.1, 0.5, 0.8)],
    "gm_mhz": 0.0,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--pr", required=True, help="suffix of the output file BENCH_<pr>.json")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workload names (default: all in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1:10", help="lo:hi inclusive range or comma list")
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    for d in dirs.values():
        if not (d / "bench" / "run.py").is_file():
            parser.error(f"{d} has no bench/run.py")
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = _parse_seeds(args.seeds)
    seconds = float(spec["run_seconds"])

    values = {w: {side: {m: [] for m in better} for side in SIDES} for w in workloads}
    call_s = {w: {side: {} for side in SIDES} for w in workloads}
    environment = {}
    for w in workloads:
        for i, seed in enumerate(seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result, record_path = _run(dirs[side], w, seed, seconds)
                if result is None:
                    return 1
                for m in better:
                    values[w][side][m].append(result["metrics"][m]["value"])
                if record_path is not None:
                    record = json.loads(record_path.read_text(encoding="utf-8"))
                    environment.setdefault(side, record.get("environment"))
                    for call, seconds_per_call in record.get("call_s", {}).items():
                        call_s[w][side].setdefault(call, []).append(seconds_per_call)
            print(f"{w} seed={seed}: parent pass_s {values[w]['parent']['pass_s'][-1]:.4f}, "
                  f"change pass_s {values[w]['change']['pass_s'][-1]:.4f}", flush=True)

    cli_keys = [*CLI_COMMANDS, *map(_minflt_key, CLI_COMMANDS)]
    cli = {side: {key: [] for key in cli_keys} for side in SIDES}
    suite = {side: {"wall_s": [], "passed": [], "failed": []} for side in SIDES}
    for i in range(len(seeds)):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            for name, argv in CLI_COMMANDS.items():
                run = _time_cli(dirs[side], argv)
                if run is None:
                    return 1
                cli[side][name].append(run[0])
                cli[side][_minflt_key(name)].append(run[1])
            run = _time_suite(dirs[side])
            if run is None:
                return 1
            for key, value in run.items():
                suite[side][key].append(value)
        print(f"cli pair {i + 1}: " + ", ".join(
            f"{name} {cli['parent'][name][-1]:.3f} / {cli['change'][name][-1]:.3f}"
            for name in CLI_COMMANDS) + ", suite " + " / ".join(
            f"{suite[side]['wall_s'][-1]:.2f} s ({suite[side]['passed'][-1]} passed, "
            f"{suite[side]['failed'][-1]} failed)" for side in SIDES), flush=True)
    outputs = _output_runs(dirs)
    if outputs is None:
        return 1

    summary = {
        "settings": {"workloads": workloads, "seeds": seeds, "seconds": seconds,
                     "command": "bench/run.py --trace 0", "order": "alternating per pair",
                     "cli_commands": {name: ["python", "-m", "resonatorsim", *argv]
                                      for name, argv in CLI_COMMANDS.items()},
                     "suite_command": ["python", *SUITE_COMMAND],
                     "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "git_sha": {side: _git_sha(dirs[side]) for side in SIDES},
        "environment": environment,
        "workloads": {w: {m: _compare(values[w]["parent"][m], values[w]["change"][m], better[m],
                                      bound[m])
                          for m in better} for w in workloads},
        "cli": {key: _compare(cli["parent"][key], cli["change"][key], "lower")
                for key in cli_keys},
        "suite": {"wall_s": _compare(suite["parent"]["wall_s"], suite["change"]["wall_s"],
                                     "lower"),
                  **{key: {side: suite[side][key] for side in SIDES}
                     for key in ("passed", "failed")}},
        "call_s": {w: {side: {call: _quartiles(v) for call, v in call_s[w][side].items()}
                       for side in SIDES} for w in workloads},
        "src_lines": {side: _src_lines(dirs[side]) for side in SIDES},
        "src_sha256": {side: _src_sha256(dirs[side]) for side in SIDES},
        **outputs,
    }
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for group, rows in [*summary["workloads"].items(), ("cli", summary["cli"]),
                        ("suite", {"wall_s": summary["suite"]["wall_s"]})]:
        for m, row in rows.items():
            print(f"{group} {m}: {row['parent']['median']:.4g} -> {row['change']['median']:.4g} "
                  f"({row['median_change']:+.1%}), change better in {row['wins']}/{row['pairs']}")
    print("src lines: " + " -> ".join(str(summary["src_lines"][side]["total"])
                                      for side in SIDES))
    for key, verdicts in outputs.items():
        identical = sum(verdict == "byte-identical" for verdict in verdicts.values())
        print(f"{key}: {identical}/{len(verdicts)} byte-identical")
    print(f"wrote {out}")
    return 0


def _parse_seeds(text: str) -> list[int]:
    if ":" in text:
        lo, hi = (int(v) for v in text.split(":"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def _run(checkout: Path, workload: str, seed: int, seconds: float):
    """One benchmark run; its end-to-end result and the path of its record."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds * 10 + 300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: {' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
              f"{done.stderr[-2000:]}", file=sys.stderr)
        return None, None
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"error: {workload} seed {seed} in {checkout} gave incorrect outputs:\n"
              f"{done.stderr[-2000:]}", file=sys.stderr)
        return None, None
    found = re.search(r"record: (\S+)$", lines[-2]) if len(lines) > 1 else None
    return result, (checkout / found.group(1) if found else None)


def _src_env(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _minflt_key(name: str) -> str:
    """The page-fault entry of a CLI wall-time entry: all_s -> all_minflt."""
    return name.removesuffix("_s") + "_minflt"


def _time_cli(checkout: Path, argv: list[str]):
    """Wall seconds and minor page faults of `python -m resonatorsim ARGV`
    run from the checkout's src/ in a fresh directory holding DAMPED_CONFIG
    as damped.json, or None when it fails."""
    env = _src_env(checkout)
    cmd = [sys.executable, "-m", "resonatorsim", *argv]
    with tempfile.TemporaryDirectory() as workdir:
        _write_damped_config(Path(workdir))
        faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=600)
        wall = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if done.returncode != 0:
        print(f"error: {' '.join(cmd)} from {checkout} exited {done.returncode}:\n"
              f"{done.stderr[-2000:]}", file=sys.stderr)
        return None
    return wall, faults


def _time_suite(checkout: Path):
    """Wall seconds and passed/failed counts of the checkout's tier-1 suite,
    or None when pytest does not get as far as running the tests (an exit
    code other than 0, all passed, or 1, some failed)."""
    cmd = [sys.executable, *SUITE_COMMAND]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=checkout, env=_src_env(checkout), capture_output=True,
                          text=True, timeout=1800)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    counts = {word: int(n) for n, word in
              re.findall(r"(\d+) (passed|failed)", lines[-1] if lines else "")}
    if done.returncode not in (0, 1) or not counts:
        print(f"error: {' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
              f"{(done.stdout + done.stderr)[-2000:]}", file=sys.stderr)
        return None
    return {"wall_s": wall, "passed": counts.get("passed", 0), "failed": counts.get("failed", 0)}


def _output_runs(dirs: dict):
    """Run each of OUTPUT_RUNS once per side, into fresh directories, and
    compare the two sides' result files; None when a run fails."""
    with tempfile.TemporaryDirectory() as workdir:
        _write_damped_config(Path(workdir))
        outputs = {}
        for key, argv in OUTPUT_RUNS.items():
            outdirs = {side: Path(workdir) / key / side for side in SIDES}
            for side in SIDES:
                cmd = [sys.executable, "-m", "resonatorsim",
                       *(arg.format(out=outdirs[side]) for arg in argv)]
                done = subprocess.run(cmd, cwd=workdir, env=_src_env(dirs[side]),
                                      capture_output=True, text=True, timeout=600)
                if done.returncode != 0:
                    print(f"error: {' '.join(cmd)} from {dirs[side]} exited "
                          f"{done.returncode}:\n{done.stderr[-2000:]}", file=sys.stderr)
                    return None
            outputs[key] = _output_verdicts(outdirs["parent"], outdirs["change"])
        return outputs


def _write_damped_config(workdir: Path) -> None:
    (workdir / "damped.json").write_text(json.dumps(DAMPED_CONFIG), encoding="utf-8")


def _output_verdicts(parent: Path, change: Path) -> dict:
    """Per result file, in name order, compare_outputs' verdict on the two
    directories' copies, or "missing from parent" / "missing from change"."""
    module_spec = importlib.util.spec_from_file_location(
        "compare_outputs", Path(__file__).with_name("compare_outputs.py"))
    compare_outputs = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(compare_outputs)
    names = {"parent": compare_outputs._result_files(parent),
             "change": compare_outputs._result_files(change)}
    verdicts = {name: compare_outputs._compare(parent / name, change / name)
                for name in names["parent"] & names["change"]}
    for name in names["parent"] ^ names["change"]:
        verdicts[name] = f"missing from {'change' if name in names['parent'] else 'parent'}"
    return dict(sorted(verdicts.items()))


def _src_lines(checkout: Path) -> dict:
    """Line count of every .py file under the checkout's src/, keyed by its
    path relative to src/, plus their sum under "total"."""
    src = checkout / "src"
    counts = {path.relative_to(src).as_posix(): len(path.read_bytes().splitlines())
              for path in sorted(src.rglob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def _src_sha256(checkout: Path) -> str:
    """sha256 over the relative path and bytes of every .py file under the
    checkout's src/ (the files _src_lines counts), each length-prefixed."""
    src = checkout / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(src).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _compare(parent: list[float], change: list[float], better: str,
             bound: float | None = None) -> dict:
    """Both sides' quartiles, the pairs won, the change of the medians and
    the paired ratios' median and IQR, and, given a bound (a share of the
    parent's median), the verdicts over_bound and unresolved that the module
    docstring defines."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    a, b = _quartiles(parent), _quartiles(change)
    ratios = [c / p for p, c in zip(parent, change) if p]
    paired = _quartiles(ratios) if ratios else None
    over_bound = unresolved = None
    if bound is not None:
        allowed = bound * abs(a["median"])
        over_bound = sign * (a["median"] - b["median"]) > allowed
        beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
        unresolved = a["q3"] - a["q1"] > allowed and not beats_all
    return {
        "better": better,
        "parent": a,
        "change": b,
        "pairs": len(parent),
        "wins": wins,
        "ties": ties,
        "median_change": (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0,
        "parent_iqr": a["q3"] - a["q1"],
        "bound": bound,
        "over_bound": over_bound,
        "unresolved": unresolved,
        "paired_ratio_median": paired and paired["median"],
        "paired_ratio_iqr": paired and paired["q3"] - paired["q1"],
    }


def _git_sha(checkout: Path) -> dict:
    """The checkout's commit and the tree of its src/ directory, which
    identifies the committed program even across rebased commits;
    uncommitted edits show only in _src_sha256."""
    out = {}
    for key, rev in (("commit", "HEAD"), ("src_tree", "HEAD:src")):
        done = subprocess.run(["git", "-C", str(checkout), "rev-parse", rev],
                              capture_output=True, text=True, timeout=30)
        out[key] = done.stdout.strip() or None
    return out


if __name__ == "__main__":
    sys.exit(main())
