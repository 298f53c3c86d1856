"""Seeded inputs and the fixed call list of each benchmark workload.

`draw_inputs(workload, seed)` returns plain numbers only: the seed draws
parameter values (decay rates, coupling ratios, Werner p and theta, the g1
search offset, detunings), never sizes, so the work per pass is the same
for every seed.  `build_calls` turns those numbers into Call objects; each
Call runs one public entry point of resonatorsim and knows how to read its
output back as numbers and what the independent oracle expects.

The oracle is imported only inside the expectation functions: a set-up
child times importing resonatorsim and drawing inputs, and must not pay
for the oracle's own imports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

#: why each workload exists is recorded in BENCHMARK.json and METRICS.md
WORKLOADS = ("damped_traces", "damped_endpoints", "closed_studies")

#: how far one output sample is moved by the oracle self-check
PERTURBATION = 1.0e-3

#: reduced-model window: chi*t/pi = 1.3 at the reference chi = 2*pi*2.5 rad/us
AMPLITUDE_T_END_US = 0.26

SW_KEYS = ("r1_interaction_cancellation", "r2_second_order_truncation", "r2_relative",
           "r3_dispersive_form_match", "eigenvalue_drift", "spectrum_relative_error")


def reference_net(n: int, **extra) -> dict:
    net = {"bus_ghz": 6.75, "res_ghz": [5.75] * n, "g_mhz": [50.0] * n, "gm_mhz": 0.0}
    net.update(extra)
    return net


def draw_inputs(workload: str, seed: int) -> dict:
    """Parameter values for one run; sizes are fixed in build_calls."""
    rng = np.random.default_rng(seed)

    def strata(lo, hi, count, digits=3):
        """One uniform draw in each of `count` equal bins of [lo, hi]."""
        edges = np.linspace(lo, hi, count + 1)
        return [round(float(rng.uniform(a, b)), digits) for a, b in zip(edges[:-1], edges[1:])]

    if workload == "damped_traces":
        return {
            "kappas_n3": strata(0.05, 0.8, 3),
            "kappas_n4": strata(0.05, 0.8, 3),
            "kappa_n8": strata(0.1, 0.6, 1)[0],
        }
    if workload == "damped_endpoints":
        # the smallest g/G_M ratio sets the largest Hamiltonian norm, so its
        # bin is kept narrow to hold the integrator's step count steady
        ratios = [strata(*b, 1)[0] for b in ((1.0, 1.2), (2.0, 5.0), (10.0, 40.0), (80.0, 300.0))]
        return {
            "gm_ratios": ratios,
            "gm_kappas": strata(0.05, 0.8, 2),
            "werner_kappas": strata(0.05, 0.8, 4),
            "werner_ps": strata(0.0, 1.0, 4),
            "werner_thetas_pi": strata(0.0, 0.5, 2),
        }
    if workload == "closed_studies":
        return {
            "map_ratios": strata(0.5, 1.5, 8),
            "map_kappa": strata(0.05, 0.3, 1)[0],
            "werner_ps": strata(0.0, 1.0, 6),
            "werner_thetas_pi": strata(0.0, 0.5, 3),
            # whole grid spacings (30 MHz / 20), so the refinement bracket
            # and hence the number of objective evaluations do not move
            "g1_low_mhz": 50.0 + 1.5 * int(rng.integers(-3, 4)),
            "sw_g_mhz": strata(40.0, 60.0, 3),
            "sw_offsets_mhz": strata(-5.0, 5.0, 3),
            "detuning_n3_mhz": [round(float(v), 4) for v in rng.uniform(-1.0, 1.0, 3)],
            "detuning_n8_mhz": [round(float(v), 4) for v in rng.uniform(-1.0, 1.0, 8)],
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")


@dataclass(eq=False)
class Call:
    """One timed public call and its correctness check.

    run() is timed.  numbers(output) reads the output back as named arrays
    and expect(got) gives the oracle's arrays for the same names; tol maps a
    name to (atol, rtol), default `atol`.  files are outputs whose bytes
    must repeat from pass to pass.
    """

    name: str
    run: Callable[[], object]
    numbers: Callable[[object], dict]
    expect: Callable[[dict], dict]
    atol: float
    tol: dict = field(default_factory=dict)
    files: tuple = ()
    digests: dict | None = None

    def check(self, output) -> str | None:
        """None when the output matches the oracle, else the first mismatch."""
        got = self.numbers(output)
        return mismatch(got, self.expect(got), self.atol, self.tol) or self._bytes_repeat()

    def self_check(self, output) -> str | None:
        """None when a +PERTURBATION shift of one sample is caught."""
        got = {k: np.array(v, dtype=float, copy=True) for k, v in self.numbers(output).items()}
        key = next(k for k, v in got.items() if v.size)
        got[key].flat[0] += PERTURBATION
        if mismatch(got, self.expect(got), self.atol, self.tol) is None:
            return f"{self.name}: a {PERTURBATION:g} shift of {key}[0] went unnoticed"
        return None

    def _bytes_repeat(self) -> str | None:
        digests = {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in self.files}
        if self.digests is None:
            self.digests = digests
        for path, digest in digests.items():
            if digest != self.digests[path]:
                return f"{path} changed bytes between passes"
        return None


def mismatch(got: dict, want: dict, atol: float, tol: dict) -> str | None:
    if list(got) != list(want):
        return f"columns {list(got)} != expected {list(want)}"
    for key, value in got.items():
        g = np.asarray(value, dtype=float)
        w = np.asarray(want[key], dtype=float)
        if g.shape != w.shape:
            return f"{key}: shape {g.shape} != expected {w.shape}"
        a, r = tol.get(key, (atol, 0.0))
        excess = np.abs(g - w) - r * np.abs(w)
        if not np.all(excess <= a):
            worst = float(np.nanmax(np.abs(g - w))) if np.any(np.isfinite(g)) else float("nan")
            return f"{key}: max |error| {worst:.3e} exceeds atol {a:g}, rtol {r:g}"
    return None


# --- output readers -------------------------------------------------------------


def columns(result) -> dict:
    return {k: np.asarray(v, dtype=float) for k, v in result.columns.items()}


def read_csv(path) -> dict:
    lines = Path(path).read_text().splitlines()
    names = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    rows = rows.reshape(len(lines) - 1, len(names))
    return {name: rows[:, i] for i, name in enumerate(names)}


def meta_path(csv: Path) -> Path:
    return csv.with_name(csv.stem + ".meta.json")


# --- calls ------------------------------------------------------------------------


def build_calls(workload: str, inputs: dict, workdir: Path) -> list[Call]:
    """The fixed call list of a workload; writes any config files to workdir."""
    import resonatorsim
    from resonatorsim import cli, dynamics, experiments, model

    def spec(net, bus_kappa=0.0, kappas=None):
        kappas = kappas if kappas is not None else [0.0] * len(net["g_mhz"])
        return resonatorsim.SystemSpec(
            bus_freq_ghz=net["bus_ghz"],
            bus_kappa_mhz=bus_kappa,
            resonators=tuple(
                resonatorsim.ResonatorSpec(f, g, k)
                for f, g, k in zip(net["res_ghz"], net["g_mhz"], kappas)
            ),
            gm_mhz=net["gm_mhz"],
        )

    def cli_call(name, argv, csv, reader, expect, atol, tol=None):
        def run():
            if cli.main(argv) != 0:
                raise RuntimeError(f"resonatorsim {' '.join(argv)} exited non-zero")

        files = (csv, meta_path(csv)) if csv.suffix == ".csv" else (csv,)
        return Call(name, run, lambda _: reader(csv), expect, atol, tol or {}, files)

    calls: list[Call] = []
    if workload == "damped_traces":
        for n, window, kappas in ((3, 0.45, inputs["kappas_n3"]), (4, 0.5, inputs["kappas_n4"])):
            calls.append(_fidelity_call(experiments, spec, n, window, kappas))
        calls.append(_population_call(experiments, spec, 8, 0.2, 100, inputs["kappa_n8"]))
    elif workload == "damped_endpoints":
        calls.append(_gm_call(experiments, spec, inputs["gm_ratios"], inputs["gm_kappas"]))
        calls.append(_werner_decay_call(experiments, spec, inputs))
    elif workload == "closed_studies":
        out = Path(workdir)
        for n in (3, 4):
            csv = out / f"crossings_n{n}.csv"
            calls.append(cli_call(
                f"crossings_n{n}",
                ["crossings", "--n", str(n), "--chi-t-max", "1.5", "--out", str(csv)],
                csv, read_csv, _crossings_expect(n, 1.5), 1.0e-5,
            ))
        for n in (3, 4, 8, 12):
            csv = out / f"population_n{n}.csv"
            calls.append(cli_call(
                f"evolve_n{n}", ["evolve", "--n", str(n), "--out", str(csv)],
                csv, read_csv, _evolve_expect(n, 1.3, 600, None), 1.0e-8,
            ))
        calls.append(_map_g2_call(cli_call, out, inputs))
        csv = out / "werner_sweep.csv"
        ps, thetas = inputs["werner_ps"], inputs["werner_thetas_pi"]
        calls.append(cli_call(
            "werner_unitary",
            ["werner", "--p-grid", _join(ps), "--thetas-pi", _join(thetas), "--out", str(csv)],
            csv, read_csv, _werner_expect(reference_net(3), [0.0] * 4, ps, thetas), 1.0e-8,
        ))
        calls.append(_optimize_call(cli_call, out, inputs["g1_low_mhz"]))
        calls.append(_sw_call(cli_call, out, inputs))
        for n in (3, 8):
            calls.append(_amplitudes_call(model, dynamics, spec, n, inputs[f"detuning_n{n}_mhz"]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls


def _join(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def _fidelity_call(experiments, spec, n, window, kappas):
    net = reference_net(n)
    s = spec(net)

    def expect():
        import oracle

        x = np.linspace(0.0, window, 300)
        t = np.pi * x / oracle.chi_homogeneous(net)
        want = {"chi_t_over_pi": x}
        for k in kappas:
            want[f"f_kappa_{k:g}mhz"] = oracle.fidelities(net, k, t)
        return want

    return Call(
        f"fidelity_n{n}",
        lambda: experiments.sweep_fidelity_vs_time(n, s, kappas, chi_t_max_over_pi=window, points=300),
        columns, _cached(expect), 1.0e-5,
    )


def _population_call(experiments, spec, n, window, points, kappa):
    s = spec(reference_net(n))
    return Call(
        f"population_n{n}",
        lambda: experiments.scenario_population(
            n, s, with_kappa_mhz=kappa, chi_t_max_over_pi=window, points=points
        ),
        columns, _evolve_expect(n, window, points, kappa), 1.0e-5,
    )


def _evolve_expect(n, window, points, kappa):
    net = reference_net(n)

    def expect():
        import oracle

        x = np.linspace(0.0, window, points)
        t = np.pi * x / oracle.chi_homogeneous(net)
        p_closed = np.abs(oracle.w_amplitudes(n, np.pi * x)) ** 2
        p_unitary = oracle.populations(net, 0.0, t)
        want = {"chi_t_over_pi": x}
        want.update({f"p_analytic_{j + 1}": p_closed[:, j] for j in range(n)})
        want.update({f"p_abinitio_{j + 1}": p_unitary[:, j] for j in range(n)})
        if kappa is not None:
            p_damped = oracle.populations(net, kappa, t)
            want.update({f"p_damped_{j + 1}": p_damped[:, j] for j in range(n)})
        return want

    return _cached(expect)


def _gm_call(experiments, spec, ratios, kappas):
    s = spec(reference_net(3))

    def expect():
        import oracle

        gms = [50.0 / r for r in ratios]
        want = {"g_over_gm": np.array(ratios), "gm_mhz": np.array(gms)}
        for k in kappas:
            want[f"f_kappa_{k:g}mhz"] = np.array([
                oracle.fidelities(net, k, [oracle.operation_time(net)])[0]
                for net in (reference_net(3, gm_mhz=gm) for gm in gms)
            ])
        return want

    return Call(
        "gm_sweep", lambda: experiments.sweep_gm(s, ratios, kappas), columns, _cached(expect),
        1.0e-5,
    )


def _werner_expect(net, kappas, ps, thetas):
    def expect():
        import oracle

        fid = oracle.werner_fidelities(net, kappas, ps, thetas)
        want = {"p": np.array(ps)}
        want.update({f"f_theta_{th:g}pi": fid[i] for i, th in enumerate(thetas)})
        return want

    return _cached(expect)


def _werner_decay_call(experiments, spec, inputs):
    net = reference_net(3)
    kappas = inputs["werner_kappas"]
    s = spec(net, bus_kappa=kappas[0], kappas=kappas[1:])
    ps, thetas = inputs["werner_ps"], inputs["werner_thetas_pi"]
    return Call(
        "werner_decay",
        lambda: experiments.sweep_werner(s, p_grid=ps, thetas_pi=thetas),
        columns, _werner_expect(net, kappas, ps, thetas), 1.0e-5,
    )


def _crossings_expect(n, window):
    def expect():
        import oracle

        roots = oracle.crossings(n, window)
        want = {"chi_t_over_pi": roots / np.pi}
        want.update({f"p_{j + 1}": np.full(len(roots), 1.0 / n) for j in range(n)})
        return want

    return _cached(expect)


def _map_g2_call(cli_call, out, inputs):
    ratios, kappa = inputs["map_ratios"], inputs["map_kappa"]
    csv = out / "fidelity_map_g2.csv"

    def expect():
        import oracle

        x = np.arange(0.05, 1.3001, 0.005)
        base = reference_net(3)
        t = np.pi * x / oracle.chi_homogeneous(base)
        want = {"chi_t_over_pi": x}
        for r in ratios:
            net = dict(base, g_mhz=[50.0, 50.0 * r, 50.0])
            want[f"f_g2_{r:g}"] = oracle.fidelities(net, kappa, t)
        return want

    return cli_call(
        "map_g2",
        ["map-g2", "--ratios", _join(ratios), "--kappa-mhz", f"{kappa:g}", "--out", str(csv)],
        csv, read_csv, _cached(expect), 1.0e-8,
    )


def _optimize_call(cli_call, out, low):
    csv = out / "optimize_g1_n5.csv"
    high = low + 30.0
    net = reference_net(5)
    x = np.linspace(0.0, 2.0, 8001)
    grid = np.linspace(low, high, 21)

    def grid_objective():
        import oracle

        return np.array([oracle.g1_curve(net, g, x).min() for g in grid])

    grid_objective = _cached(grid_objective)

    def reader(path):
        got = read_csv(path)
        meta = json.loads(meta_path(path).read_text())
        got["g1_star_mhz"] = np.array([meta["g1_star_mhz"]])
        got["objective_star"] = np.array([meta["objective_star"]])
        got["chi_t_over_pi_equal"] = np.array(meta["chi_t_over_pi_equal"], dtype=float)
        return got

    def expect(got):
        import oracle

        g1 = float(got["g1_star_mhz"][0])
        curve = oracle.g1_curve(net, g1, x)
        return {
            "g1_mhz": grid,
            "objective": grid_objective(),
            "g1_star_mhz": np.array([min(max(g1, low), high)]),
            "objective_star": np.array([curve.min()]),
            "chi_t_over_pi_equal": oracle.distinct_minima(x, curve, 0.02),
        }

    return cli_call(
        "optimize_g1_n5",
        ["optimize-g1", "--n", "5", "--search-mhz", f"{low:g}:{high:g}", "--out", str(csv)],
        csv, reader, expect, 1.0e-8,
    )


def _sw_call(cli_call, out, inputs):
    net = reference_net(3)
    net["g_mhz"] = inputs["sw_g_mhz"]
    net["res_ghz"] = [5.75 + o / 1000.0 for o in inputs["sw_offsets_mhz"]]
    config = out / "sw_config.json"
    config.write_text(json.dumps({
        "bus": {"freq_ghz": net["bus_ghz"]},
        "resonators": [
            {"freq_ghz": f, "g_mhz": g} for f, g in zip(net["res_ghz"], net["g_mhz"])
        ],
    }))
    report = out / "sw_verify.json"

    def reader(path):
        data = json.loads(Path(path).read_text())
        return {k: np.array([data[k]]) for k in SW_KEYS}

    def expect():
        import oracle

        return {k: np.array([v]) for k, v in oracle.sw_report(net).items()}

    near_zero = (1.0e-8, 0.0)
    relative = (0.0, 1.0e-6)
    tol = {
        "r1_interaction_cancellation": near_zero,
        "r3_dispersive_form_match": near_zero,
        "eigenvalue_drift": near_zero,
        "r2_second_order_truncation": relative,
        "r2_relative": relative,
        "spectrum_relative_error": relative,
    }
    return cli_call(
        "sw_verify", ["sw-verify", "--config", str(config), "--out", str(report)],
        report, reader, _cached(expect), 0.0, tol,
    )


def _amplitudes_call(model, dynamics, spec, n, offsets_mhz):
    net = reference_net(n)
    net["res_ghz"] = [5.75 + o / 1000.0 for o in offsets_mhz]
    s = spec(net)
    c0 = np.zeros(n, dtype=complex)
    c0[0] = 1.0

    def run():
        grid = dynamics.TimeGrid(0.0, AMPLITUDE_T_END_US, 600)
        return dynamics.integrate_amplitudes(model.derive_dispersive(s), c0, grid)

    def numbers(traj):
        return {"re": traj.states.real, "im": traj.states.imag}

    def expect():
        import oracle

        c = oracle.reduced_amplitudes(net, np.linspace(0.0, AMPLITUDE_T_END_US, 600))
        return {"re": c.real, "im": c.imag}

    return Call(f"amplitudes_n{n}", run, numbers, _cached(expect), 1.0e-6)


def _cached(fn):
    """An expectation independent of the output, evaluated once on first use."""
    memo = []

    def wrapper(*_):
        if not memo:
            memo.append(fn())
        return memo[0]

    return wrapper
