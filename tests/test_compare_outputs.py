"""scripts/compare_outputs.py: the file-by-file diff of two output directories."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_reports_identity_differences_and_missing_files(tmp_path, capsys):
    compare = _load_script()
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "p.csv").write_text("x,y\n0,0.5\n1,0.25\n", encoding="utf-8")
        (d / "r.meta.json").write_text('{"rows": 2}\n', encoding="utf-8")
    # manifests record paths, so they differ and are never compared
    (a / "all.manifest.json").write_text('{"outputs": ["a"]}\n', encoding="utf-8")
    (b / "all.manifest.json").write_text('{"outputs": ["b"]}\n', encoding="utf-8")
    assert compare.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["p.csv: byte-identical", "r.meta.json: byte-identical"]

    (b / "p.csv").write_text("x,y\n0,0.5\n1,0.2500003\n", encoding="utf-8")
    assert compare.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "p.csv: largest absolute difference 3e-07" in out

    (a / "only_a.csv").write_text("x\n1\n", encoding="utf-8")
    (b / "only_b.manifest.json").write_text("{}\n", encoding="utf-8")
    assert compare.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert f"only_a.csv: missing from {b}" in out
    assert "manifest" not in out
