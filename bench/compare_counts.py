"""Check that two traced runs of one workload did the same work.

    python3 bench/compare_counts.py .bench_out/result-A.json .bench_out/result-B.json

Compares every *.calls and *.samples metric of two `--trace 1` records,
normally of two seeds, prints the ones that differ and exits 1 if any do.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.load(open(path))["metrics"] for path in argv)
    keys = sorted(k for k in a if k.endswith((".calls", ".samples")))
    differ = [k for k in keys if a[k]["value"] != b.get(k, {}).get("value")]
    for k in differ:
        print(f"{k}: {a[k]['value']} != {b.get(k, {}).get('value')}")
    print(f"{len(keys) - len(differ)} of {len(keys)} work counts agree")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
