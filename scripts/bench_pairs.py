"""Run the benchmark on two checkouts in alternating pairs and summarise it.

    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pr N \
        --workloads damped_endpoints,damped_traces --seeds 1:10

For every workload and seed it runs `bench/run.py --trace 0` once in each
checkout, for the `run_seconds` of BENCHMARK.json, alternating which side
goes first from one pair to the next, and reads the end-to-end metrics
from the last line of its output.  It writes
BENCH_<pr>.json in the current directory: per workload and metric, each
side's median and quartiles (and the raw values), the number of pairs the
change won (ties count for neither side), the relative change of the
medians and the parent's interquartile range, together with both git SHAs
(commit and src/ tree), the settings and the environment stamp of the first
run on each side.  Which direction is better is read from the change's
BENCHMARK.json.  Exits 1 when a run fails or reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


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
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = _parse_seeds(args.seeds)
    seconds = float(spec["run_seconds"])

    values = {w: {side: {m: [] for m in better} for side in SIDES} for w in workloads}
    environment = {}
    for w in workloads:
        for i, seed in enumerate(seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result, record_path = _run(dirs[side], w, seed, seconds)
                if result is None:
                    return 1
                for m in better:
                    values[w][side][m].append(result["metrics"][m]["value"])
                if side not in environment and record_path is not None:
                    record = json.loads(record_path.read_text(encoding="utf-8"))
                    environment[side] = record.get("environment")
            print(f"{w} seed={seed}: parent pass_s {values[w]['parent']['pass_s'][-1]:.4f}, "
                  f"change pass_s {values[w]['change']['pass_s'][-1]:.4f}", flush=True)

    summary = {
        "settings": {"workloads": workloads, "seeds": seeds, "seconds": seconds,
                     "command": "bench/run.py --trace 0", "order": "alternating per pair"},
        "git_sha": {side: _git_sha(dirs[side]) for side in SIDES},
        "environment": environment,
        "workloads": {w: {m: _compare(values[w]["parent"][m], values[w]["change"][m], better[m])
                          for m in better} for w in workloads},
    }
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for w in workloads:
        for m, row in summary["workloads"][w].items():
            print(f"{w} {m}: {row['parent']['median']:.4g} -> {row['change']['median']:.4g} "
                  f"({row['median_change']:+.1%}), change better in {row['wins']}/{row['pairs']}")
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


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _compare(parent: list[float], change: list[float], better: str) -> dict:
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    a, b = _quartiles(parent), _quartiles(change)
    return {
        "better": better,
        "parent": a,
        "change": b,
        "pairs": len(parent),
        "wins": wins,
        "ties": ties,
        "median_change": (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0,
        "parent_iqr": a["q3"] - a["q1"],
    }


def _git_sha(checkout: Path) -> dict:
    """The checkout's commit and the tree of its src/ directory, which
    identifies the benchmarked program even across rebased commits."""
    out = {}
    for key, rev in (("commit", "HEAD"), ("src_tree", "HEAD:src")):
        done = subprocess.run(["git", "-C", str(checkout), "rev-parse", rev],
                              capture_output=True, text=True, timeout=30)
        out[key] = done.stdout.strip() or None
    return out


if __name__ == "__main__":
    sys.exit(main())
