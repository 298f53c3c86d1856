"""Compare two `resonatorsim all` output directories file by file.

    python scripts/compare_outputs.py DIR_A DIR_B

For every result file present in both directories it prints either
"byte-identical" or the largest absolute difference over the CSV cells or
the numeric JSON leaves, followed by any CSV columns or JSON keys added in
DIR_B or removed from it and any non-numeric values that changed.  Run
manifests (*.manifest.json) are skipped, since they record paths.  Exits 1
when a file is missing from one side, 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

#: paths listed per category before the rest are only counted
MAX_LISTED = 8


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")

    names_a, names_b = _result_files(args.dir_a), _result_files(args.dir_b)
    for name in sorted(names_a & names_b):
        print(f"{name}: {_compare(args.dir_a / name, args.dir_b / name)}")
    missing = sorted(names_a ^ names_b)
    for name in missing:
        absent = args.dir_b if name in names_a else args.dir_a
        print(f"{name}: missing from {absent}")
    return 1 if missing else 0


def _result_files(directory: Path) -> set[str]:
    return {
        p.name for p in directory.iterdir()
        if p.is_file() and not p.name.endswith(".manifest.json")
    }


def _compare(path_a: Path, path_b: Path) -> str:
    if path_a.read_bytes() == path_b.read_bytes():
        return "byte-identical"
    if path_a.suffix not in (".csv", ".json"):
        return "differs (neither CSV nor JSON, so not compared by value)"
    leaves_a, leaves_b = _leaves(path_a), _leaves(path_b)
    worst = 0.0
    changed = []
    for key in sorted(leaves_a.keys() & leaves_b.keys()):
        x, y = leaves_a[key], leaves_b[key]
        if x == y or (_is_number(x) and _is_number(y) and math.isnan(x) and math.isnan(y)):
            continue
        if _is_number(x) and _is_number(y):
            worst = max(worst, abs(x - y))
        else:
            changed.append(key)
    parts = [f"largest absolute difference {worst:.3g}"]
    for label, keys in (
        ("added", sorted(leaves_b.keys() - leaves_a.keys())),
        ("removed", sorted(leaves_a.keys() - leaves_b.keys())),
        ("changed", changed),
    ):
        if keys:
            listed = ", ".join(keys[:MAX_LISTED])
            more = f" (+{len(keys) - MAX_LISTED} more)" if len(keys) > MAX_LISTED else ""
            parts.append(f"{label}: {listed}{more}")
    return "; ".join(parts)


def _leaves(path: Path) -> dict:
    """Flat mapping from a leaf's path to its value: column[row] for CSV
    cells (as floats where they parse), key.sub[index] for JSON."""
    if path.suffix == ".csv":
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header = rows[0] if rows else []
        return {
            f"{name}[{i}]": _number_or_text(cell)
            for i, row in enumerate(rows[1:])
            for name, cell in zip(header, row)
        }
    out: dict = {}
    _flatten(json.loads(path.read_text(encoding="utf-8")), "", out)
    return out


def _flatten(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(value, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _flatten(value, f"{prefix}[{i}]", out)
    else:
        out[prefix] = obj


def _number_or_text(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


if __name__ == "__main__":
    sys.exit(main())
