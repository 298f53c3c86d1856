"""Command-line driver: exit codes, outputs, manifests, determinism."""

import inspect
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import resonatorsim
from resonatorsim import (
    ScenarioResult,
    amplitude_grid,
    cli,
    derive_dispersive,
    dynamics,
    find_w_crossings,
    optimize_g1,
    optimize_to_scenario,
    reference_spec,
    scenario_population,
    spec_from_dict,
    spec_to_dict,
    sweep_fidelity_map_g2,
    sweep_fidelity_vs_time,
    sweep_gm,
    sweep_werner,
    write_result,
)
from resonatorsim.cli import main


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_crossings_prints_roots(capsys):
    assert main(["crossings", "--n", "4", "--chi-t-max", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "0.25, 0.75, 1.25" in out


def test_crossings_outputs(tmp_path):
    assert main(["crossings", "--n", "3", "--out", "c.csv"]) == 0
    rows = (tmp_path / "c.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "chi_t_over_pi,p_1,p_2,p_3"
    first = [float(v) for v in rows[1].split(",")]
    assert first[0] == pytest.approx(2.0 / 9.0, abs=1.0e-6)
    assert first[1] == pytest.approx(1.0 / 3.0, abs=1.0e-6)
    assert (tmp_path / "c.meta.json").exists()
    manifest = json.loads((tmp_path / "c.manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "crossings"
    assert manifest["status"] == "ok"
    assert set(manifest) == {"command", "args", "config", "outputs", "status", "version"}


def test_crossings_none_found(capsys, tmp_path):
    assert main(["crossings", "--n", "5", "--out", "none.csv"]) == 0
    assert "no equal-population times" in capsys.readouterr().out
    # the header names every resonator and no row follows
    rows = (tmp_path / "none.csv").read_text(encoding="utf-8").splitlines()
    assert rows == ["chi_t_over_pi,p_1,p_2,p_3,p_4,p_5"]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_crossings_non_finite_window_exit_2(value, tmp_path, capsys):
    assert main(["crossings", "--n", "3", "--chi-t-max", value, "--out", "c.csv"]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_closed_commands_leave_scipy_unimported(tmp_path):
    # no command imports scipy, not even the damped Werner sweep (bus and
    # resonators decay in its config), which exponentiates its generator with
    # numpy, nor numpy.ma, which np.unique would import on its first call; a
    # fresh interpreter shows whether importing the package or any command
    # pulls either in
    cfg = tmp_path / "damped.json"
    cfg.write_text(json.dumps(spec_to_dict(reference_spec(3, kappa_mhz=0.5))), encoding="utf-8")
    script = (
        "import sys, resonatorsim\n"
        "from resonatorsim.cli import main\n"
        "for argv in (['crossings', '--n', '3'], ['evolve', '--n', '3'], ['map-g2'],\n"
        "             ['werner'], ['optimize-g1', '--n', '5'], ['sw-verify', '--n', '3'],\n"
        "             ['evolve', '--n', '3', '--kappa-mhz', '0.5'], ['fidelity', '--n', '3'],\n"
        "             ['gm-sweep'], ['werner', '--config', 'damped.json', '--out', 'wd.csv']):\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy') or m == 'numpy.ma'))\n"
    )
    src = os.path.dirname(os.path.dirname(resonatorsim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_python_m_entry_point(tmp_path):
    # `python -m resonatorsim` runs the same CLI as the console script
    src = os.path.dirname(os.path.dirname(resonatorsim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "resonatorsim", "crossings", "--n", "3"], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "0.222222" in done.stdout
    assert (tmp_path / "crossings_n3.csv").is_file()


def test_evolve_deterministic(tmp_path):
    args = ["evolve", "--n", "3", "--points", "30", "--chi-t-max", "0.3"]
    assert main(args + ["--out", "p1.csv"]) == 0
    assert main(args + ["--out", "p2.csv"]) == 0
    assert (tmp_path / "p1.csv").read_bytes() == (tmp_path / "p2.csv").read_bytes()
    header = (tmp_path / "p1.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",")[0] == "chi_t_over_pi"
    assert "p_abinitio_3" in header


def test_evolve_t_max_us_equivalent(tmp_path):
    # chi = 2*pi*2.5 rad/us; chi*t/pi = 0.2 corresponds to t = 0.04 us
    assert main(["evolve", "--n", "3", "--points", "5", "--t-max-us", "0.04",
                 "--out", "t.csv"]) == 0
    rows = (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()
    assert float(rows[-1].split(",")[0]) == pytest.approx(0.2, abs=1.0e-9)


def test_evolve_with_config(tmp_path):
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps(spec_to_dict(reference_spec(4))), encoding="utf-8")
    assert main(["evolve", "--config", str(cfg), "--n", "4", "--points", "10",
                 "--chi-t-max", "0.2", "--out", "n4.csv"]) == 0
    manifest = json.loads((tmp_path / "n4.manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"] == str(cfg)


def test_missing_config_exit_2(capsys):
    assert main(["evolve", "--config", "absent.json", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "absent.json" in err


def test_config_n_mismatch_exit_2(tmp_path, capsys):
    cfg = tmp_path / "four.json"
    cfg.write_text(json.dumps(spec_to_dict(reference_spec(4))), encoding="utf-8")
    assert main(["evolve", "--config", str(cfg), "--n", "5"]) == 2
    assert "4 resonators" in capsys.readouterr().err
    # sw-verify checks an explicit --n too; without one it takes the config's
    assert main(["sw-verify", "--config", str(cfg), "--n", "5", "--out", "sw.json"]) == 2
    assert "4 resonators but the command needs 5" in capsys.readouterr().err
    assert not (tmp_path / "sw.json").exists()
    assert main(["sw-verify", "--config", str(cfg), "--out", "sw.json"]) == 0
    # the three-resonator scenarios check the count themselves
    for command in ("gm-sweep", "werner", "map-g2"):
        assert main([command, "--config", str(cfg), "--out", "x.csv"]) == 2
        assert "spec has 4 resonators but the scenario needs 3" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv, n, stem, scenario",
    [
        (["evolve"], 4, "population_n4", lambda spec: scenario_population(4, spec)),
        (["fidelity"], 4, "fidelity_n4", lambda spec: sweep_fidelity_vs_time(4, spec)),
        (["optimize-g1"], 6, "optimize_g1_n6",
         lambda spec: optimize_to_scenario(optimize_g1(6, spec), 6, spec)),
    ],
    ids=["evolve", "fidelity", "optimize-g1"],
)
def test_config_sets_the_resonator_count(argv, n, stem, scenario, tmp_path, capsys):
    # without --n the config's count is used, default file name included;
    # an --n that contradicts it is refused, naming both counts
    spec = reference_spec(n)
    cfg = tmp_path / "sys.json"
    cfg.write_text(json.dumps(spec_to_dict(spec)), encoding="utf-8")
    assert main([*argv, "--config", str(cfg)]) == 0
    for path in write_result(scenario(spec), tmp_path / "lib" / f"{stem}.csv"):
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
    capsys.readouterr()
    assert main([*argv, "--config", str(cfg), "--n", "3", "--out", "x.csv"]) == 2
    assert f"has {n} resonators but the command needs 3" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fidelity", "--kappas-mhz", "0.1234567,0.1234568"],
        ["gm-sweep", "--kappas-mhz", "0.5,0.5"],
        ["map-g2", "--ratios", "1.0000001,1.0000002"],
        ["werner", "--thetas-pi", "0.25,0.25"],
    ],
    ids=["fidelity", "gm-sweep", "map-g2", "werner"],
)
def test_colliding_column_names_exit_2(argv, tmp_path, capsys):
    assert main(argv + ["--out", "x.csv"]) == 2
    assert "both give the column" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_parser_reuse_keeps_defaults(tmp_path):
    # the parser is built once per process; a flag given to one call must
    # not become the default of the next
    assert cli._build_parser() is cli._build_parser()
    assert main(["fidelity", "--kappas-mhz", "0.5", "--points", "5",
                 "--chi-t-max", "0.1", "--out", "a.csv"]) == 0
    assert main(["fidelity", "--chi-t-max", "0.1", "--out", "b.csv"]) == 0
    args = [json.loads((tmp_path / f"{s}.manifest.json").read_text(encoding="utf-8"))["args"]
            for s in "ab"]
    assert (args[0]["kappas_mhz"], args[0]["points"]) == ("0.5", 5)
    assert (args[1]["kappas_mhz"], args[1]["points"]) == ("0,0.25,0.5", 600)
    assert len((tmp_path / "b.csv").read_text(encoding="utf-8").splitlines()) == 601


@pytest.mark.parametrize("command, flag, scenario", [
    ("fidelity", "--kappas-mhz", sweep_fidelity_vs_time),
    ("gm-sweep", "--ratios", sweep_gm),
    ("gm-sweep", "--kappas-mhz", sweep_gm),
    ("werner", "--thetas-pi", sweep_werner),
    ("map-g2", "--kappa-mhz", sweep_fidelity_map_g2),
    ("optimize-g1", "--search-mhz", optimize_g1),
])
def test_flag_defaults_parse_back_to_the_scenario_defaults(command, flag, scenario):
    # a flag's default is written as text; parsed back it must give the
    # scenario's own default exactly, not one rounded on the way
    param = flag[2:].replace("-", "_")
    raw = getattr(cli._build_parser().parse_args([command]), param)
    expected = inspect.signature(scenario).parameters[param].default
    if flag == "--search-mhz":
        assert cli._parse_interval(raw, flag) == expected
    elif flag == "--kappa-mhz":  # type=float: argparse has parsed it
        assert raw == expected
    else:
        assert cli._float_list(raw, flag, allow_inf=True) == list(expected)


def test_non_finite_config_exit_2(tmp_path, capsys):
    data = spec_to_dict(reference_spec(3))
    data["gm_mhz"] = float("nan")
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    assert main(["sw-verify", "--config", str(cfg), "--out", "sw.json"]) == 2
    assert "gm_mhz must be finite" in capsys.readouterr().err
    assert not (tmp_path / "sw.json").exists()


def test_overflowing_config_exit_2(tmp_path, capsys):
    # 1e308 MHz is a finite JSON number, but g = 2 pi 1e308 rad/us is not,
    # and at 1e160 MHz g is finite but g^2 is not; both are refused by name
    # before numpy overflows on them
    cfg = tmp_path / "huge.json"
    for g_mhz, refusal in [(1.0e308, "g_mhz in rad/us must be finite, got inf"),
                           (1.0e160, "resonator 1 'g_mhz' is too large: g^2/Delta overflows")]:
        data = spec_to_dict(reference_spec(3))
        for resonator in data["resonators"]:
            resonator["g_mhz"] = g_mhz
        cfg.write_text(json.dumps(data), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--config", str(cfg), "--out", "e.csv"]) == 2
            assert main(["werner", "--config", str(cfg), "--out", "w.csv"]) == 2
            assert main(["sw-verify", "--config", str(cfg), "--out", "sw.json"]) == 2
        assert capsys.readouterr().err.count(refusal) == 3
    assert list(tmp_path.iterdir()) == [cfg]


def test_overflowing_lamb_shift_sum_exit_2(tmp_path, capsys):
    # each resonator's g^2/Delta is finite, their sum (the bus shift) is not
    data = spec_to_dict(reference_spec(3))
    for resonator in data["resonators"]:
        resonator["freq_ghz"] = 6.75 - 1.0e-12
        resonator["g_mhz"] = 1.38e149
    cfg = tmp_path / "sum.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--config", str(cfg), "--out", "e.csv"]) == 2
    assert "the Lamb shifts g^2/Delta sum past the float range" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_overflowing_sw_exponential_exit_2(tmp_path, capsys):
    # g/Delta of about 1e96: g^2/Delta is finite, but e^S is not, and the
    # exponential refuses it instead of handing infinities to the eigensolver
    data = spec_to_dict(reference_spec(3))
    for resonator in data["resonators"]:
        resonator["g_mhz"] = 1.0e100
    cfg = tmp_path / "huge_s.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sw-verify", "--config", str(cfg), "--out", "sw.json"]) == 2
    assert re.search(r"the exponential of a matrix of 1-norm \S+ overflows",
                     capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [cfg]


_BUS = {"freq_ghz": 6.75, "kappa_mhz": 0.0}
_ENTRY = {"freq_ghz": 5.75, "g_mhz": 50.0}


@pytest.mark.parametrize(
    "cfg, message",
    [
        ([_BUS], "config must be an object, got list"),
        ({"resonators": [_ENTRY] * 2}, "config is missing required key 'bus'"),
        ({"bus": _BUS}, "config is missing required key 'resonators'"),
        ({"bus": 6.75, "resonators": [_ENTRY] * 2}, "bus must be an object, got float"),
        ({"bus": {"kappa_mhz": 0.0}, "resonators": [_ENTRY] * 2},
         "bus is missing required key 'freq_ghz'"),
        ({"bus": _BUS, "resonators": _ENTRY}, "config 'resonators' must be a non-empty list"),
        ({"bus": _BUS, "resonators": []}, "config 'resonators' must be a non-empty list"),
        ({"bus": _BUS, "resonators": [_ENTRY, 5.75]}, "resonator 2 must be an object, got float"),
        ({"bus": _BUS, "resonators": [_ENTRY, {"g_mhz": 50.0}]},
         "resonator 2 is missing required key 'freq_ghz'"),
        ({"bus": _BUS, "resonators": [_ENTRY, {"freq_ghz": 5.75}]},
         "resonator 2 is missing required key 'g_mhz'"),
    ],
    ids=["root", "no_bus", "no_resonators", "bus", "bus_freq", "resonators_object",
         "resonators_empty", "entry", "entry_freq", "entry_g"],
)
def test_malformed_config_refused_by_name(cfg, message, tmp_path, capsys):
    # each structural refusal names the object and the key, in the library
    # and through the command line; the pieces alone make a valid config
    assert spec_from_dict({"bus": _BUS, "resonators": [_ENTRY] * 2}).n == 2
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        spec_from_dict(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["evolve", "--config", str(path), "--out", "e.csv"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_non_number_config_exit_2(tmp_path, capsys):
    data = spec_to_dict(reference_spec(3))
    data["resonators"][0]["freq_ghz"] = None
    cfg = tmp_path / "null.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    assert main(["sw-verify", "--config", str(cfg), "--out", "sw.json"]) == 2
    assert "resonator 1 'freq_ghz' must be a number, got null" in capsys.readouterr().err
    assert not (tmp_path / "sw.json").exists()


def test_bad_flag_values_exit_2(tmp_path, capsys):
    assert main(["fidelity", "--kappas-mhz", "0,oops"]) == 2
    assert main(["optimize-g1", "--search-mhz", "5080"]) == 2
    assert main(["optimize-g1", "--search-mhz", "80:50"]) == 2
    assert main(["gm-sweep", "--kappas-mhz", "-1", "--out", "gm.csv"]) == 2
    assert main(["fidelity", "--kappas-mhz", "-0.1", "--out", "f.csv"]) == 2
    assert main(["evolve", "--n", "-2", "--out", "e.csv"]) == 2
    assert main(["fidelity", "--kappas-mhz", "0,inf", "--out", "f.csv"]) == 2
    assert main(["werner", "--thetas-pi", " , ", "--out", "w.csv"]) == 2
    assert main(["optimize-g1", "--search-mhz", "50:eighty", "--out", "o.csv"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 9
    assert err.count("decay rate must be finite and nonnegative") == 2
    assert "need at least 2 distant resonators, got -2" in err
    assert "--kappas-mhz must be finite, got 'inf'" in err
    assert "--thetas-pi received no values" in err
    assert "--search-mhz expects lo:hi numbers, got '50:eighty'" in err
    assert list(tmp_path.iterdir()) == []


def test_gm_sweep_nan_ratio_exit_2(tmp_path, capsys):
    assert main(["gm-sweep", "--ratios", "inf,nan", "--out", "gm.csv"]) == 2
    assert "coupling ratios must be positive, got [inf, nan]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["map-g2", "--ratios", "1.0", "--kappa-mhz", "nan"],
        ["map-g2", "--ratios", "1.0", "--kappa-mhz", "inf"],
        ["evolve", "--n", "3", "--kappa-mhz", "nan"],
        ["evolve", "--n", "3", "--chi-t-max", "inf"],
        ["fidelity", "--n", "3", "--chi-t-max", "inf"],
    ],
    ids=["map-g2-kappa-nan", "map-g2-kappa-inf", "evolve-kappa-nan", "evolve-window-inf",
         "fidelity-window-inf"],
)
def test_non_finite_flag_exit_2(argv, tmp_path, capsys):
    # numpy warnings raise here, so the value must be refused before any
    # array is computed from it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", "x.csv"]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_optimize_g1_outside_window_exit_2(tmp_path, capsys):
    # n = 8 needs g1* = (sqrt(8) - 1) 50 MHz, past the default window 50:80
    assert main(["optimize-g1", "--n", "8", "--out", "o.csv"]) == 2
    assert "g1* = 91.42 MHz" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_no_partial_files_on_failure(tmp_path):
    assert main(["evolve", "--n", "4", "--config", "absent.json",
                 "--out", "never.csv"]) == 2
    leftovers = [p.name for p in tmp_path.iterdir()]
    assert leftovers == []


def test_fidelity_small_window(tmp_path):
    assert main(["fidelity", "--n", "3", "--kappas-mhz", "0,0.5",
                 "--chi-t-max", "0.05", "--points", "6", "--out", "f.csv"]) == 0
    header = (tmp_path / "f.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "chi_t_over_pi,f_kappa_0mhz,f_kappa_0.5mhz"


def test_gm_sweep_cli(tmp_path):
    assert main(["gm-sweep", "--ratios", "inf,100", "--kappas-mhz", "0",
                 "--out", "gm.csv"]) == 0
    rows = (tmp_path / "gm.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1].split(",")[0] == "inf"


def test_werner_cli(tmp_path):
    assert main(["werner", "--p-grid", "0,1", "--thetas-pi", "0",
                 "--out", "w.csv"]) == 0
    rows = (tmp_path / "w.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == "p,f_theta_0pi"
    assert len(rows) == 3


def test_map_g2_cli(tmp_path):
    assert main(["map-g2", "--ratios", "1.0", "--out", "m.csv"]) == 0
    header = (tmp_path / "m.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "chi_t_over_pi,f_g2_1"


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["fidelity", "--n", "3"], [
            "fidelity_n3: 600 rows -> fidelity_n3.csv",
            "kappa 0 MHz: peak fidelity 0.9996 at chi*t/pi = 0.896",
            "kappa 0.25 MHz: peak fidelity 0.9885 at chi*t/pi = 0.221",
            "kappa 0.5 MHz: peak fidelity 0.9776 at chi*t/pi = 0.221",
        ]),
        (["gm-sweep"], [
            "gm_sweep: 9 rows -> gm_sweep.csv",
            "kappa 0 MHz: fidelity 0.9989 -> 0.6864 over ratios",
            "kappa 0.5 MHz: fidelity 0.9769 -> 0.6713 over ratios",
        ]),
        (["werner"], [
            "werner_sweep: 11 rows -> werner_sweep.csv",
            "theta = 0 pi: fidelity spans [0.1249, 0.9989]",
            "theta = 0.25 pi: fidelity spans [0.1249, 0.5061]",
            "theta = 0.5 pi: fidelity spans [0.0000, 0.1249]",
        ]),
        (["map-g2"], [
            "fidelity_map_g2: 251 rows -> fidelity_map_g2.csv",
            "map maximum 0.9883 in column f_g2_1 at chi*t/pi = 0.225",
        ]),
        (["evolve"], ["population_n3: 600 rows -> population_n3.csv"]),
        (["optimize-g1"], [
            "optimize_g1_n5: 21 rows -> optimize_g1_n5.csv",
            "g1* = 61.803 MHz (objective 6.249e-07)",
            "near-equal times chi*t/pi: 0.1655, 0.1850, 0.5500, 0.9150, 0.9345, 1.2655, "
            "1.2850, 1.6500, 2.0000",
        ]),
    ],
    ids=["fidelity", "gm-sweep", "werner", "map-g2", "evolve", "optimize-g1"],
)
def test_summaries_at_defaults(argv, stdout, capsys):
    # each summary line reads one value column of the result, in order; run
    # without --n, evolve and optimize-g1 name their default counts, 3 and 5
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == stdout


def test_sw_verify_pass(tmp_path, capsys):
    assert main(["sw-verify", "--out", "sw.json"]) == 0
    report = json.loads((tmp_path / "sw.json").read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert report["r1_interaction_cancellation"] < 1.0e-10
    assert "PASS" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "sw.manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "ok"


def _crossings_scenario(n):
    roots = find_w_crossings(n, 1.5 * np.pi)
    pops = np.abs(amplitude_grid(n, roots)) ** 2
    columns = {"chi_t_over_pi": roots / np.pi}
    columns.update({f"p_{j + 1}": pops[:, j] for j in range(n)})
    meta = {"name": f"crossings_n{n}", "n": n, "chi_t_max_over_pi": 1.5,
            "version": resonatorsim.__version__}
    return ScenarioResult(meta["name"], columns, meta)


def test_all_writes_manifest_outputs_and_full_sw_report(tmp_path):
    assert main(["all", "--outdir", "out"]) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "all.manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "ok"
    assert all(os.path.exists(path) for path in manifest["outputs"])
    # every CSV and sidecar equals the library scenario at its defaults, so
    # CLI defaults that drift from the library's fail here
    expected = {f"crossings_n{n}": _crossings_scenario(n) for n in (3, 4)}
    for n in (3, 4):
        expected[f"population_n{n}"] = scenario_population(n, with_kappa_mhz=0.5)
        expected[f"fidelity_n{n}"] = sweep_fidelity_vs_time(n)
    expected["optimize_g1_n5"] = optimize_to_scenario(optimize_g1(5), 5)
    expected["gm_sweep"] = sweep_gm()
    expected["werner_sweep"] = sweep_werner()
    expected["fidelity_map_g2"] = sweep_fidelity_map_g2()
    assert len(expected) == 10
    for stem, res in expected.items():
        for path in write_result(res, tmp_path / "lib" / f"{stem}.csv"):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name
    assert main(["sw-verify", "--n", "3", "--out", "sw.json"]) == 0
    report = json.loads((out / "sw_verify.json").read_text(encoding="utf-8"))
    assert report == json.loads((tmp_path / "sw.json").read_text(encoding="utf-8"))
    # each run leaves its own manifest beside its output
    for stem in [*expected, "sw_verify"]:
        run = json.loads((out / f"{stem}.manifest.json").read_text(encoding="utf-8"))
        assert run["status"] == "ok", stem


def test_every_scenario_parameter_is_set_by_a_command(monkeypatch):
    # a scenario setting that no command passes is one only the tests reach
    scenarios = ("scenario_population", "sweep_fidelity_vs_time", "sweep_fidelity_map_g2",
                 "sweep_gm", "sweep_werner", "optimize_g1", "optimize_to_scenario")
    bound = {name: set() for name in scenarios}

    def recorder(name, fn):
        def record(*args, **kwargs):
            bound[name].update(inspect.signature(fn).bind(*args, **kwargs).arguments)
            return fn(*args, **kwargs)
        return record

    for name in scenarios:
        monkeypatch.setattr(cli, name, recorder(name, getattr(cli, name)))
    assert main(["all", "--outdir", "out"]) == 0
    unset = {name: sorted(set(inspect.signature(getattr(resonatorsim, name)).parameters) - seen)
             for name, seen in bound.items()}
    assert unset == {name: [] for name in scenarios}


def test_all_reports_a_failed_run(tmp_path, monkeypatch, capsys):
    # a failing run does not stop the others; all.manifest.json lists only
    # the outputs of runs that returned 0 and its status is no longer ok
    monkeypatch.setattr(cli, "_ALL_RUNS", (
        (["crossings", "--n", "3", "--chi-t-max", "nan"], "bad.csv"),
        (["crossings", "--n", "4"], "good.csv"),
    ))
    assert main(["all", "--outdir", "out"]) == 2
    assert "must be finite" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "out" / "all.manifest.json").read_text(encoding="utf-8"))
    assert manifest["status"] == "failed"
    assert manifest["outputs"] == [os.path.join("out", name) for name in
                                   ("good.csv", "good.meta.json", "good.manifest.json")]
    assert not (tmp_path / "out" / "bad.csv").exists()


def test_all_with_no_successful_run_writes_an_empty_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_ALL_RUNS", (
        (["crossings", "--n", "3", "--chi-t-max", "nan"], "bad.csv"),
    ))
    assert main(["all", "--outdir", "out"]) == 2
    assert "0/1 runs ok, 0 output files" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "out" / "all.manifest.json").read_text(encoding="utf-8"))
    assert (manifest["outputs"], manifest["status"]) == ([], "failed")


def test_unreadable_config_reported_in_the_loaders_words(capsys):
    # _run reports the loader's OSError as it is, with no wrapper of its own
    assert main(["werner", "--config", "absent.json"]) == 2
    assert capsys.readouterr().err == "error: config file not found: absent.json\n"


@pytest.mark.parametrize("argv, says", [
    (["evolve", "--n", "3", "--out", os.path.join("F", "x.csv")], "Not a directory: 'F'"),
    (["werner", "--out", os.path.join("F", "w.csv")], "Not a directory: 'F'"),
    (["all", "--outdir", "F"], "Not a directory: 'F'"),
], ids=["evolve", "werner", "all"])
def test_output_under_a_regular_file_exit_2(argv, says, tmp_path, capsys):
    # an OSError from writing is reported in one line, like any bad input,
    # and leaves no temporary file behind; a regular file where a directory
    # goes is named as not a directory, by every command, and `all` refuses
    # its --outdir before any run, so it too says so once
    (tmp_path / "F").write_text("", encoding="utf-8")
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and says in err[0]
    assert list(tmp_path.iterdir()) == [tmp_path / "F"]
    assert (tmp_path / "F").read_text(encoding="utf-8") == ""


def test_all_finishes_its_table_after_a_failed_write(tmp_path, capsys):
    # population_n3.csv cannot be written over a directory; the ten other
    # runs still write their files, and all.manifest.json lists only those
    (tmp_path / "D" / "population_n3.csv").mkdir(parents=True)
    assert main(["all", "--outdir", "D"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "population_n3.csv" in err[0]
    # the failed rename names the path given, not the deleted temporary file
    assert ".tmp" not in err[0] and str(tmp_path) not in err[0]
    assert list((tmp_path / "D" / "population_n3.csv").iterdir()) == []
    expected = []
    for _, name in cli._ALL_RUNS[1:]:
        run = tmp_path / "D" / (os.path.splitext(name)[0] + ".manifest.json")
        expected += [*json.loads(run.read_text(encoding="utf-8"))["outputs"],
                     os.path.join("D", run.name)]
    manifest = json.loads((tmp_path / "D" / "all.manifest.json").read_text(encoding="utf-8"))
    assert (manifest["outputs"], manifest["status"]) == (expected, "failed")
    assert len(expected) == 29 and all(os.path.isfile(path) for path in expected)
    written = {p.name for p in (tmp_path / "D").iterdir()}
    assert written == {os.path.basename(path) for path in expected} | {
        "all.manifest.json", "population_n3.csv"}


def test_damped_config_refused_where_decay_comes_from_flags(tmp_path, capsys):
    # fidelity takes its rates from --kappas-mhz; a config's rates would be
    # ignored, so it is refused before anything is written
    cfg = tmp_path / "damped.json"
    cfg.write_text(json.dumps(spec_to_dict(reference_spec(3, kappa_mhz=0.5))), encoding="utf-8")
    assert main(["fidelity", "--config", str(cfg), "--kappas-mhz", "0", "--out", "f.csv"]) == 2
    assert "--kappas-mhz" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["damped.json"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_evolve_damped_large_n(tmp_path):
    # n = 40 gives a 42-state basis, past the master equation's limit; the
    # damped populations are the exact envelope exp(-kappa t) of ab initio
    assert main(["evolve", "--n", "40", "--kappa-mhz", "0.5", "--points", "50",
                 "--out", "p.csv"]) == 0
    header = (tmp_path / "p.csv").read_text(encoding="utf-8").splitlines()[0].split(",")
    table = np.loadtxt(tmp_path / "p.csv", delimiter=",", skiprows=1)
    col = dict(zip(header, table.T))
    t = np.pi * col["chi_t_over_pi"] / derive_dispersive(reference_spec(40)).chi_homogeneous
    for j in (1, 2, 40):
        np.testing.assert_allclose(
            col[f"p_damped_{j}"], np.exp(-0.5 * t) * col[f"p_abinitio_{j}"], rtol=1e-11, atol=1e-15
        )


def _set(data, path, value):
    *keys, last = path
    for key in keys:
        data = data[key]
    data[last] = value


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("resonators", 1, "freq_ghz"), 0.0, "resonator frequency must be positive, got 0.0 GHz"),
        (("bus", "freq_ghz"), 0.0, "bus frequency must be positive, got 0.0 GHz"),
        (("resonators", 0, "kappa_mhz"), -0.1, "decay rate must be nonnegative, got -0.1 MHz"),
        (("bus", "kappa_mhz"), -0.1, "bus decay rate must be nonnegative, got -0.1 MHz"),
        (("gm_mhz",), -1.0, "direct coupling G_M must be nonnegative, got -1.0 MHz"),
        (("resonators", 2, "g_mhz"), 60.0,
         "resonators are not identical: their frequencies or couplings differ"),
        (("resonators", 2, "freq_ghz"), 5.8,
         "resonators are not identical: their frequencies or couplings differ"),
    ],
    ids=["freq", "bus_freq", "kappa", "bus_kappa", "gm", "coupling_differs", "freq_differs"],
)
def test_config_value_refusals_exit_2(path, value, message, tmp_path, capsys):
    data = spec_to_dict(reference_spec(3))
    _set(data, path, value)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    assert main(["evolve", "--config", str(cfg), "--out", "e.csv"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_propagation_error_exit_1(tmp_path, monkeypatch, capsys):
    # a propagation that fails its invariant check is a runtime failure
    def fail(*args, **kwargs):
        raise dynamics.PropagationError("norm drifted by 1.000e-03 at t = 1 us")

    monkeypatch.setattr(cli, "sweep_gm", fail)
    assert main(["gm-sweep", "--out", "gm.csv"]) == 1
    assert capsys.readouterr().err == "error: norm drifted by 1.000e-03 at t = 1 us\n"
    assert list(tmp_path.iterdir()) == []
