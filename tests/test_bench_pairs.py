"""scripts/bench_pairs.py: the helpers that summarise two checkouts."""

import importlib.util
from pathlib import Path

import pytest

from resonatorsim.model import spec_from_dict

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


def test_src_sha256_names_the_files_not_the_commit(tmp_path):
    bench_pairs = _load_script()
    sides = []
    for side in ("parent", "change"):
        package = tmp_path / side / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "a.py").write_text("x = 1\n", encoding="utf-8")
        (package / "notes.txt").write_text(side, encoding="utf-8")
        sides.append(tmp_path / side)
    # identical .py files give one hash, whatever else lies beside them
    parent, change = (bench_pairs._src_sha256(side) for side in sides)
    assert parent == change
    assert len(parent) == 64
    # a one-byte edit, committed or not, gives another
    (sides[1] / "src" / "pkg" / "a.py").write_text("x = 2\n", encoding="utf-8")
    assert bench_pairs._src_sha256(sides[1]) != parent


def test_compare_judges_each_metric_against_its_bound():
    compare = _load_script()._compare
    parent = [1.00, 1.01, 1.02, 1.03, 1.04]
    # the bound is a share of the parent's median, 1.02: 0.05 allows 0.051
    row = compare(parent, [1.05, 1.06, 1.07, 1.08, 1.09], "lower", 0.05)
    assert (row["bound"], row["over_bound"], row["unresolved"]) == (0.05, False, False)
    assert compare(parent, [1.06, 1.07, 1.08, 1.09, 1.10], "lower", 0.05)["over_bound"] is True
    # a higher-is-better metric is worse when its median falls
    row = compare([1.0] * 5, [0.98] * 5, "higher", 0.01)
    assert (row["over_bound"], row["unresolved"]) == (True, False)
    # the parent's interquartile range, 0.6, exceeds the bound, 0.1: the
    # verdict is unresolved unless every change run beats every parent run
    wide = [0.6, 0.8, 1.0, 1.2, 1.4]
    row = compare(wide, [0.5, 0.7, 0.9, 1.1, 1.3], "lower", 0.1)
    assert (row["over_bound"], row["unresolved"]) == (False, True)
    row = compare(wide, [0.1, 0.2, 0.3, 0.4, 0.5], "lower", 0.1)
    assert (row["over_bound"], row["unresolved"]) == (False, False)
    # no bound, as for the CLI and suite entries: no verdict either
    row = compare(parent, parent, "lower")
    assert (row["bound"], row["over_bound"], row["unresolved"]) == (None, None, None)


def test_compare_keeps_the_paired_ratios_beside_the_verdicts():
    compare = _load_script()._compare
    # drift between pairs: both sides climb together, the change 10 % under
    # the parent in every pair; the parent's IQR (2.0) is past the bound, so
    # the verdict stays unresolved, but the paired ratios do not spread
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    row = compare(parent, [0.9 * p for p in parent], "lower", 0.25)
    assert (row["over_bound"], row["unresolved"]) == (False, True)
    assert row["paired_ratio_median"] == pytest.approx(0.9)
    assert row["paired_ratio_iqr"] == pytest.approx(0.0, abs=1.0e-12)
    # noise within pairs: a steady parent and a change that scatters about
    # it; the ratios 0.5..1.5 have the quartiles 0.65 and 1.35
    row = compare([2.0] * 5, [1.0, 3.0, 1.6, 2.4, 2.0], "lower", 0.25)
    assert row["paired_ratio_median"] == pytest.approx(1.0)
    assert row["paired_ratio_iqr"] == pytest.approx(0.7)
    # a pair whose parent reads 0 has no ratio; with none left there is no value
    row = compare([0.0, 1.0], [1.0, 1.2], "higher", 0.01)
    assert row["paired_ratio_median"] == pytest.approx(1.2)
    row = compare([0.0], [1.0], "higher")
    assert (row["paired_ratio_median"], row["paired_ratio_iqr"]) == (None, None)


def test_output_verdicts_name_each_result_file(tmp_path):
    verdicts = _load_script()._output_verdicts
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        side.mkdir()
        (side / "p.csv").write_text("x,y\n0,0.5\n1,0.25\n", encoding="utf-8")
        (side / "p.meta.json").write_text('{"rows": 2}\n', encoding="utf-8")
        # manifests record paths, so they are never compared
        (side / "p.manifest.json").write_text(f'{{"outputs": ["{side}"]}}\n', encoding="utf-8")
    assert verdicts(parent, change) == {"p.csv": "byte-identical",
                                        "p.meta.json": "byte-identical"}
    (change / "p.csv").write_text("x,y\n0,0.5\n1,0.2500003\n", encoding="utf-8")
    (parent / "gone.csv").write_text("x\n1\n", encoding="utf-8")
    (change / "new.json").write_text("{}\n", encoding="utf-8")
    assert verdicts(parent, change) == {
        "gone.csv": "missing from change",
        "new.json": "missing from parent",
        "p.csv": "largest absolute difference 3e-07",
        "p.meta.json": "byte-identical",
    }


def test_output_runs_compare_a_damped_werner_sweep(monkeypatch):
    # both sides are this checkout, so every result file is byte-identical;
    # the Werner sweep runs from a config that decays every mode at its own
    # rate, which no default run of `all` does (`all`, whose verdicts
    # test_output_verdicts_name_each_result_file covers, is left out here)
    bench_pairs = _load_script()
    assert bench_pairs.OUTPUT_RUNS["all_outputs"] == ["all", "--outdir", "{out}"]
    spec = spec_from_dict(bench_pairs.DAMPED_CONFIG)
    assert [spec.bus_kappa_mhz] + [r.kappa_mhz for r in spec.resonators] == [0.3, 0.1, 0.5, 0.8]
    damped = {"damped_werner_outputs": bench_pairs.OUTPUT_RUNS["damped_werner_outputs"]}
    monkeypatch.setattr(bench_pairs, "OUTPUT_RUNS", damped)
    repo = SCRIPT.parents[1]
    assert bench_pairs._output_runs({"parent": repo, "change": repo}) == {
        "damped_werner_outputs": {"werner_sweep.csv": "byte-identical",
                                  "werner_sweep.meta.json": "byte-identical"}}


def test_cli_timings_include_the_damped_werner_cold_start():
    # the damped Werner sweep's once-per-process set-up shows in a cold
    # start of its own, timed beside `all` with its minor page faults; the
    # config it reads is written into each run's fresh directory
    bench_pairs = _load_script()
    argv = bench_pairs.CLI_COMMANDS["werner_damped_s"]
    assert argv[:3] == ["werner", "--config", "damped.json"]
    assert bench_pairs._minflt_key("werner_damped_s") == "werner_damped_minflt"
    wall, faults = bench_pairs._time_cli(SCRIPT.parents[1], argv)
    assert wall > 0.0 and faults > 0


def test_scaling_section_holds_every_call_at_every_size():
    # one quick in-process timing stands in for each side's rounds; the
    # section keeps, per call and n, both sides' medians and no verdict
    bench_pairs = _load_script()
    assert bench_pairs.SCALING_SIZES == (3, 4, 8, 12, 24)
    times = bench_pairs._scaling_times(sizes=(3, 24), repeats=1, budget=0.0)
    assert list(times) == list(bench_pairs.SCALING_CALLS)
    record = bench_pairs._scaling_record({"parent": [times], "change": [times, times]})
    assert set(record) == {"_homogeneous", "one_photon_hamiltonian", "_released",
                           "_phase_product", "write_result"}
    for call, rows in record.items():
        assert list(rows) == ["3", "24"]
        for row in rows.values():
            assert row["parent"]["median"] > 0.0 and row["change"]["median"] > 0.0
            assert (row["bound"], row["over_bound"], row["unresolved"]) == (None, None, None)


def test_imports_record_times_a_cold_import_of_the_package():
    bench_pairs = _load_script()
    seconds = bench_pairs._import_time(SCRIPT.parents[1])
    assert 0.0 < seconds < 60.0
    record = bench_pairs._imports_record({"parent": [seconds], "change": [seconds]})
    assert list(record) == ["resonatorsim_s"]
    row = record["resonatorsim_s"]
    assert row["parent"]["median"] == row["change"]["median"] == seconds
    assert (row["bound"], row["over_bound"], row["unresolved"]) == (None, None, None)
