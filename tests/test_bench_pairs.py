"""scripts/bench_pairs.py: the helpers that summarise two checkouts."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_counts_each_module_and_the_total(tmp_path):
    bench_pairs = _load_script()
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    # a last line without a newline still counts, as a line of the module
    (package / "b.py").write_text("def f():\n    return 1", encoding="utf-8")
    (package / "notes.txt").write_text("not a module\n", encoding="utf-8")
    (tmp_path / "outside.py").write_text("z = 3\n", encoding="utf-8")
    assert bench_pairs._src_lines(tmp_path) == {
        "pkg/__init__.py": 0,
        "pkg/a.py": 3,
        "pkg/b.py": 2,
        "total": 5,
    }
