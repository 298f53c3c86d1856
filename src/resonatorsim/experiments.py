"""Scenario harness: population trajectories, fidelity sweeps, the direct
coupling and Werner-noise studies, and the n>=5 coupling calibrator.

Every scenario returns a ScenarioResult (named columns + metadata) that can
be written to CSV with a JSON metadata sidecar.  Results are deterministic:
identical inputs produce byte-identical files.

Conventions shared by all scenarios: time axes are reported as chi*t/pi
where chi is the bus-mediated hopping rate of the last resonator pair of
the base system; fixed-time quantities are evaluated at the first
equal-population instant of the homogeneous n-resonator network, with the
comparison state pinned there (shorter operation times suffer less decay).

The single-photon scenarios and optimize_g1 propagate the photon's n + 1
amplitudes (bus first) under the one-photon block of the ab initio
Hamiltonian, in the frame rotating at the first resonator.  The scenarios
damp every mode at one rate kappa; the Hamiltonian only hops the photon,
so the block evolves as exp(-kappa t / 2) exp(-i h t) and every jump lands
in vacuum: damped populations and fidelities are exactly exp(-kappa t)
times the unitary ones.  They take kappa from their own arguments and,
like optimize_g1 (which runs without decay), refuse a spec with decay
rates.  Only the Werner sweep (up to three photons, rates per mode from
the spec, zeros included) builds a Fock basis, once per process with the
generator terms on it (_werner): each call exponentiates the Liouvillian
on the live coordinates of the photon-number blocks, contracted from those
terms with the block and the rates.
"""

from __future__ import annotations

import errno
import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import amplitude_grid, find_w_crossings
from .dynamics import TimeGrid, evolve_unitary
from .dynamics import _check_conserved, _expm, _live_layout, _phase_product
from .dynamics import _real_terms, _sqrt_split
from .fockspace import build_basis, single_photon_index
from .hamiltonians import _ladder, one_photon_hamiltonian
from .model import SystemSpec, ResonatorSpec, derive_dispersive, spec_to_dict
from .observables import (
    WernerParams,
    _one_photon_target,
    fidelity_pure_target,
    ideal_target,
    werner_initial,
)

#: default time grid: 600 points over chi*t/pi in [0, 1.3]
DEFAULT_CHI_T_MAX_OVER_PI = 1.3
DEFAULT_POINTS = 600

#: populations within this distance of 1/n count as "near equal"
NEAR_EQUAL_TOL = 0.02


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Named result columns plus the metadata needed to reproduce them."""

    name: str
    columns: dict
    metadata: dict

    def __post_init__(self):
        lengths = {k: len(v) for k, v in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"column lengths differ: {lengths}")

    @property
    def rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0


@dataclass(frozen=True)
class OptimizeG1Result:
    """Outcome of the first-resonator coupling calibration."""

    g1_mhz: float
    objective: float
    chi_t_over_pi_equal: np.ndarray
    grid_g1_mhz: np.ndarray
    grid_objective: np.ndarray


def reference_spec(
    n: int,
    kappa_mhz: float = 0.0,
    gm_mhz: float = 0.0,
    couplings_mhz=None,
) -> SystemSpec:
    """Standard working point: bus at 6.75 GHz, resonators at 5.75 GHz,
    couplings 50 MHz (g/Delta = 0.05), one kappa for every mode."""
    if n < 2:
        raise ValueError(f"need at least 2 distant resonators, got {n}")
    if couplings_mhz is None:
        couplings_mhz = [50.0] * n
    if len(couplings_mhz) != n:
        raise ValueError(f"expected {n} couplings, got {len(couplings_mhz)}")
    return SystemSpec(
        bus_freq_ghz=6.75,
        bus_kappa_mhz=kappa_mhz,
        resonators=tuple(
            ResonatorSpec(5.75, float(g), kappa_mhz) for g in couplings_mhz
        ),
        gm_mhz=gm_mhz,
    )


def first_crossing_chi_t(n: int) -> float:
    """First phase chi*t at which all n populations are equal (radians)."""
    roots = find_w_crossings(n, 1.5 * np.pi)
    if len(roots) == 0:
        raise ValueError(
            f"homogeneous n={n} network has no equal-population time; "
            "calibrate couplings first (optimize_g1)"
        )
    return float(roots[0])


def scenario_population(
    n: int,
    spec: SystemSpec | None = None,
    with_kappa_mhz: float | None = None,
    chi_t_max_over_pi: float = DEFAULT_CHI_T_MAX_OVER_PI,
    points: int = DEFAULT_POINTS,
) -> ScenarioResult:
    """Per-resonator populations along time: closed form vs ab initio.

    Columns: chi_t_over_pi, p_analytic_j, p_abinitio_j and, when
    with_kappa_mhz is given, p_damped_j with that decay rate on every mode,
    which is exp(-kappa t) p_abinitio_j.
    """
    spec, chi = _homogeneous(spec, n)
    _require_undamped(spec, "set decay with with_kappa_mhz (--kappa-mhz)")
    if with_kappa_mhz is not None:
        _require_rate(with_kappa_mhz)
    # the grid validates the window before any array is built from it
    grid = TimeGrid(0.0, np.pi * chi_t_max_over_pi / chi, points)
    x = np.linspace(0.0, chi_t_max_over_pi, points)
    p_analytic = np.abs(amplitude_grid(n, np.pi * x)) ** 2

    # one-photon amplitudes, bus first: the photon starts in resonator 1
    traj = evolve_unitary(_one_photon_frame(spec), np.eye(n + 1)[1], grid)
    p_abinitio = np.abs(traj.states[:, 1:]) ** 2

    columns: dict = {"chi_t_over_pi": x}
    for j in range(n):
        columns[f"p_analytic_{j + 1}"] = p_analytic[:, j]
    for j in range(n):
        columns[f"p_abinitio_{j + 1}"] = p_abinitio[:, j]
    if with_kappa_mhz is not None:
        envelope = np.exp(-with_kappa_mhz * traj.times)
        for j in range(n):
            columns[f"p_damped_{j + 1}"] = envelope * p_abinitio[:, j]

    meta = _base_metadata(f"population_n{n}", spec, chi)
    meta["grid"] = {"chi_t_max_over_pi": chi_t_max_over_pi, "points": points}
    meta["with_kappa_mhz"] = with_kappa_mhz
    return ScenarioResult(meta["name"], columns, meta)


def sweep_fidelity_vs_time(
    n: int,
    spec: SystemSpec | None = None,
    kappas_mhz=(0.0, 0.25, 0.5),
    chi_t_max_over_pi: float = DEFAULT_CHI_T_MAX_OVER_PI,
    points: int = DEFAULT_POINTS,
) -> ScenarioResult:
    """Fidelity against the pinned first-crossing target versus time, one
    column per decay rate (all modes damped equally): exp(-kappa t) times
    the unitary fidelity."""
    spec, chi = _homogeneous(spec, n)
    _require_undamped(spec, "set decay with kappas_mhz (--kappas-mhz)")
    kappas = [float(k) for k in kappas_mhz]
    _require_rate(*kappas)
    names = _column_names("f_kappa_{:g}mhz", kappas, "kappas_mhz")

    chi_t_star = first_crossing_chi_t(n)
    grid = TimeGrid(0.0, np.pi * chi_t_max_over_pi / chi, points)
    x = np.linspace(0.0, chi_t_max_over_pi, points)
    traj = evolve_unitary(_one_photon_frame(spec), np.eye(n + 1)[1], grid)
    fid = fidelity_pure_target(traj.states, _one_photon_target(n, chi_t_star))

    columns: dict = {"chi_t_over_pi": x}
    for name, k in zip(names, kappas):
        columns[name] = np.exp(-k * traj.times) * fid
    meta = _base_metadata(f"fidelity_vs_time_n{n}", spec, chi)
    meta["grid"] = {"chi_t_max_over_pi": chi_t_max_over_pi, "points": points}
    meta["kappas_mhz"] = kappas
    meta["chi_t_star_over_pi"] = chi_t_star / np.pi
    return ScenarioResult(meta["name"], columns, meta)


def sweep_fidelity_map_g2(
    spec: SystemSpec | None = None,
    g2_ratios=None,
    kappa_mhz: float = 0.10,
) -> ScenarioResult:
    """Fidelity map over the second-resonator coupling ratio and chi*t/pi =
    0.05, 0.055, ..., 1.3 for the three-resonator network at one uniform
    decay rate: column b is exp(-kappa t) times the unitary fidelity of ratio
    b, all ratios' blocks released by one stacked eigh (_released)."""
    spec, chi = _homogeneous(spec, 3)
    _require_undamped(spec, "set decay with kappa_mhz (--kappa-mhz)")
    _require_rate(kappa_mhz)
    ratios = (
        np.arange(0.5, 1.5001, 0.05) if g2_ratios is None else np.asarray(g2_ratios, float)
    )
    _require_nonempty(g2_ratios=ratios)
    names = _column_names("f_g2_{:g}", ratios, "g2_ratios")
    x = np.arange(0.05, 1.3001, 0.005)
    times = np.pi * x / chi
    chi_t_star = first_crossing_chi_t(3)
    g2_base = spec.resonators[1].g_mhz
    evals, weights = _released(_with_coupling(spec, 1, g2_base * r) for r in ratios)
    states = np.exp(-1j * times[:, None] * evals[:, None, :]) @ weights.swapaxes(-1, -2)
    f_unitary = fidelity_pure_target(states, _one_photon_target(3, chi_t_star))
    envelope = np.exp(-kappa_mhz * times)
    columns: dict = {"chi_t_over_pi": x}
    for name, col in zip(names, f_unitary):
        columns[name] = envelope * col
    meta = _base_metadata("fidelity_map_g2", spec, chi)
    meta["g2_ratios"] = [float(r) for r in ratios]
    meta["kappa_mhz"] = kappa_mhz
    meta["chi_t_star_over_pi"] = chi_t_star / np.pi
    return ScenarioResult(meta["name"], columns, meta)


def sweep_gm(
    spec: SystemSpec | None = None,
    ratios=(math.inf, 200.0, 100.0, 50.0, 20.0, 10.0, 5.0, 2.0, 1.0),
    kappas_mhz=(0.0, 0.5),
) -> ScenarioResult:
    """Fidelity at the pinned operation time versus the ratio g/G_M of bus
    coupling to direct nearest-neighbour coupling; infinite ratio means no
    direct coupling and serves as the baseline.  One column per decay rate
    (all modes damped equally): exp(-kappa t) times the unitary fidelity,
    all ratios' blocks released at once by one stacked eigh (_released)."""
    spec, chi = _homogeneous(spec, 3)
    _require_undamped(spec, "set decay with kappas_mhz (--kappas-mhz)")
    g_mhz = spec.resonators[0].g_mhz
    ratios = [float(r) for r in ratios]
    _require_nonempty(ratios=ratios)
    if any(not r > 0 for r in ratios):  # NaN too: it fails every comparison
        raise ValueError(f"coupling ratios must be positive, got {ratios}")
    kappas = [float(k) for k in kappas_mhz]
    _require_rate(*kappas)
    names = _column_names("f_kappa_{:g}mhz", kappas, "kappas_mhz")
    gm_values = [0.0 if math.isinf(r) else g_mhz / r for r in ratios]

    chi_t_star = first_crossing_chi_t(3)
    t_star = chi_t_star / chi
    evals, weights = _released(replace(spec, gm_mhz=gm) for gm in gm_values)
    final = np.einsum("bjl,bl->bj", weights, np.exp(-1j * evals * t_star))
    fid = fidelity_pure_target(final, _one_photon_target(3, chi_t_star))

    columns: dict = {
        "g_over_gm": np.array(ratios),
        "gm_mhz": np.array(gm_values),
    }
    for name, k in zip(names, kappas):
        columns[name] = np.exp(-k * t_star) * fid
    meta = _base_metadata("gm_sweep", spec, chi)
    meta["ratios_g_over_gm"] = ratios
    meta["kappas_mhz"] = kappas
    meta["chi_t_star_over_pi"] = chi_t_star / np.pi
    meta["operation_time_us"] = t_star
    return ScenarioResult(meta["name"], columns, meta)


def sweep_werner(
    spec: SystemSpec | None = None,
    p_grid=None,
    thetas_pi=(0.0, 0.25, 0.5),
) -> ScenarioResult:
    """Fidelity at the pinned operation time for Werner-type initial states,
    one curve per overlap angle theta (given in units of pi).

    The block B is _one_photon_frame, the one the other scenarios use, and
    the decay rates are the spec's, zeros included.  One step of the exact
    Liouvillian advances the states, on the 69 live real coordinates of
    _werner: its terms, built once per process, contract with the 20 real
    numbers of B and the rates into the generator, which dynamics._expm
    exponentiates once; the pure states enter as three fixed coordinate
    vectors weighted by cos^2, sin^2 and cos sin of theta, and the
    fidelities and traces are read off the stepped coordinates with its
    weights, the traces checked against the initial ones.  The initial state
    p |psi_theta><psi_theta| + (1 - p) M enters linearly, and so does the
    fidelity: only the pure state of each theta (p = 1) and the mixture M
    (p = 0) are propagated, and F(p) = p F(1) + (1 - p) F(0).
    """
    spec, chi = _homogeneous(spec, 3)
    ps = np.linspace(0.0, 1.0, 11) if p_grid is None else np.asarray(p_grid, float)
    thetas = [float(t) for t in thetas_pi]
    _require_nonempty(p_grid=ps, thetas_pi=thetas)
    names = _column_names("f_theta_{:g}pi", thetas, "thetas_pi")

    werner = _werner()
    t_star = werner.chi_t_star / chi
    block = _one_photon_frame(spec)
    for p in ps:  # WernerParams holds the rule on a mixture weight
        WernerParams(float(p), 0.0)
    pure_states = [WernerParams(1.0, np.pi * th) for th in thetas]
    step = _expm(werner.generator(block, np.array(_mode_rates(spec))) * t_star)
    # the pure state of each theta (p = 1), then the mixture (p = 0)
    angles = np.array([state.theta for state in pure_states])
    cos, sin = np.cos(angles), np.sin(angles)
    pure = np.stack((cos * cos, sin * sin, cos * sin), axis=1) @ werner.pure_parts
    coords = np.concatenate((pure, werner.mixture[None]))
    final = coords @ step.T
    traces = np.stack((coords, final)) @ werner.trace_weights
    _check_conserved("trace", traces, traces[0], (0.0, t_star))
    fid = final @ werner.fidelity_weights
    fid = fid[:-1, None] * ps + fid[-1] * (1.0 - ps)

    columns: dict = {"p": ps}
    for name, row in zip(names, fid):
        columns[name] = row
    meta = _base_metadata("werner_sweep", spec, chi)
    meta["thetas_pi"] = thetas
    meta["chi_t_star_over_pi"] = werner.chi_t_star / np.pi
    meta["operation_time_us"] = t_star
    return ScenarioResult(meta["name"], columns, meta)


@dataclass(frozen=True, eq=False)
class _Werner:
    """The Werner sweep's Liouvillian as a linear map of 20 real
    parameters, and what reads its states, in the real coordinates of the
    live layout (dynamics._live_layout) of the diagonal photon-number
    blocks, of which there are size; chi_t_star is the first
    equal-population phase chi t*.

    For a Hermitian one-photon block B and mode rates kappa, the real
    generator (dynamics._real_generator) of the drift -i lift(B) - sum_k
    kappa_k n_k / 2 is linear in c = (Re B at the flat entries
    real_entries, the upper triangle, Im B at imag_entries, the strict
    upper triangle, then kappa): term t adds c[stack[t]] values[t] to its
    flat entry where[t] (generator).  The pure state cos(theta)|100> +
    i sin(theta)|010> has the coordinates (cos^2, sin^2, cos sin) @
    pure_parts, the mixture M has mixture, and fidelity_weights and
    trace_weights read <target|rho|target> and tr rho off them, the
    target being the W state at chi t*."""

    chi_t_star: float
    real_entries: np.ndarray
    imag_entries: np.ndarray
    size: int
    stack: np.ndarray
    where: np.ndarray
    values: np.ndarray
    pure_parts: np.ndarray
    mixture: np.ndarray
    fidelity_weights: np.ndarray
    trace_weights: np.ndarray

    def generator(self, block: np.ndarray, kappas: np.ndarray) -> np.ndarray:
        """The size x size real generator for the block B and the rates,
        one sparse contraction of the terms with c."""
        c = np.concatenate((block.real.take(self.real_entries),
                            block.imag.take(self.imag_entries), kappas))
        gen = np.bincount(self.where, c[self.stack] * self.values, minlength=self.size ** 2)
        return gen.reshape(self.size, self.size)


@functools.cache
def _werner() -> _Werner:
    """The Werner sweep's generator terms and state coordinates, built once
    per process on the 15-state basis (bus and three resonators, up to
    three photons) by one dynamics._real_terms call on the stack of 20
    drifts; its arrays are read-only, since every call shares them.

    The Hamiltonian of every one-photon block conserves the photon number
    and decay only lowers it, so the entries reachable from the Werner states, under
    every hop a_k^dag a_l and every decay, are the diagonal photon-number
    blocks of sectors 0..3 (1 + 16 + 36 + 16 = 69 of 225), for any spec."""
    basis = build_basis(4, cutoff=1, excitation_cap=3)
    ops = _ladder(basis)
    mixture = werner_initial(WernerParams(0.0, 0.0), basis)
    chi_t_star = first_crossing_chi_t(3)
    target = ideal_target(3, chi_t_star, basis)
    modes = basis.modes
    # the drifts that Re B[k, l] (k <= l) and Im B[k, l] (k < l) weight:
    # -i (a_k^dag a_l + a_l^dag a_k) and a_k^dag a_l - a_l^dag a_k, the
    # lifts of B's 16 Hermitian unit blocks times -i, then the four decays
    # -n_k / 2 with their unit rates
    hops = ops.conj().swapaxes(1, 2)[:, None] @ ops
    rows, cols = np.triu_indices(modes)
    strict = rows < cols
    drifts = np.concatenate((
        -1j * (hops[rows, cols] + hops[cols, rows] * strict[:, None, None]),
        (hops[rows, cols] - hops[cols, rows])[strict],
        -0.5 * hops[range(modes), range(modes)],
    ))
    rates = np.concatenate((np.zeros((rows.size + np.count_nonzero(strict), modes)),
                            np.eye(modes)))
    # |100><100|, |010><010| and the cross term that cos sin weights
    one, two = (single_photon_index(basis, m) for m in (1, 2))
    parts = np.zeros((3, basis.dim, basis.dim), dtype=complex)
    parts[0, one, one] = parts[1, two, two] = 1.0
    parts[2, one, two], parts[2, two, one] = -1j, 1j
    live = _live_layout(drifts, ops, rates.T, np.concatenate((mixture[None], parts)))
    # <t|rho|t> sums rho_ij conj(t_i) t_j, and each strict upper entry of
    # rho meets its mirror there: the fidelity weights are twice the
    # coordinates of |t><t| less its diagonal once; the trace weights are
    # the coordinates of the identity
    projector = np.outer(target, target.conj())
    fidelity_weights = 2.0 * live.coords(projector) - live.coords(np.diag(np.diag(projector)))
    return _read_only(_Werner(
        chi_t_star, rows * modes + cols, (rows * modes + cols)[strict],
        live.size, *_real_terms(drifts, rates, live),
        live.coords(parts), live.coords(mixture),
        fidelity_weights, live.coords(np.eye(basis.dim)),
    ))


def _read_only(cached):
    """cached, with every array it holds made read-only."""
    for value in vars(cached).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return cached


def optimize_g1(
    n: int = 5,
    spec: SystemSpec | None = None,
    search_mhz=(50.0, 80.0),
) -> OptimizeG1Result:
    """Calibrate the first resonator's coupling so the network reaches
    near-equal populations despite n >= 5.

    Resonators 2..n must share one coupling g, and all resonators one
    detuning.  The coupling is then the closed form of design_w_couplings
    for equal targets, g1* = (sqrt(n) - 1) g, and it must lie in
    search_mhz.  Objective: min over chi*t/pi in [0, 2] (8001 points) of
    max_m |P_m(t) - 1/n| from ab initio unitary evolution (decay off) of the
    one-photon block one_photon_hamiltonian, reported at g1* and on a
    landscape of 21 couplings spanning search_mhz.  All couplings share one
    time grid (its unit, chi of the last pair, does not involve g1), one
    stacked eigh (_released) and one buffer of resonator amplitudes that
    dynamics._phase_product refills.
    """
    if n < 5:
        raise ValueError(f"calibration targets n >= 5 (homogeneous n={n} has no gap)")
    spec = spec if spec is not None else reference_spec(n)
    _require_n(spec, n)
    _require_undamped(spec, "the calibration runs without decay")
    lo, hi = float(search_mhz[0]), float(search_mhz[1])
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"search interval must satisfy 0 < lo < hi < inf, got {search_mhz}")
    g_rest = [r.g_mhz for r in spec.resonators[1:]]
    if len(set(g_rest)) > 1:
        raise ValueError(f"resonators 2..{n} must share one coupling, got {g_rest} MHz")
    freqs = [r.freq_ghz for r in spec.resonators]
    if len(set(freqs)) > 1:
        raise ValueError(f"resonators must share one detuning, got frequencies {freqs} GHz")
    g1_star = (math.sqrt(n) - 1.0) * g_rest[0]
    if not lo <= g1_star <= hi:
        raise ValueError(
            f"closed-form g1* = {g1_star:.2f} MHz lies outside the search "
            f"interval [{lo:g}, {hi:g}] MHz"
        )

    x = np.linspace(0.0, 2.0, 8001)
    # chi of the last pair does not involve resonator 1 (n >= 5), so one
    # window serves every coupling
    chi_ref = float(derive_dispersive(spec).chi[-1, -2])
    window = TimeGrid(0.0, np.pi * x[-1] / chi_ref, len(x))
    grid = np.linspace(lo, hi, 21)
    couplings = np.append(grid, g1_star)
    evals, weights = _released(_with_coupling(spec, 0, g) for g in couplings)
    weights = weights[:, 1:]

    # every coupling reuses one table of resonator amplitudes (no bus row),
    # one of |P_m - 1/n| and one curve max_m |P_m(t) - 1/n|
    table = np.empty((n, *_sqrt_split(len(x))), dtype=complex)
    deviation = np.empty((n, len(x)))
    curve = np.empty(len(x))
    objective = np.empty(len(couplings))
    dt = window.span / (window.points - 1)
    for b in range(len(couplings)):
        _phase_product(evals[b], weights[b], dt, table)
        np.abs(table.reshape(n, -1)[:, : len(x)], out=deviation)
        np.square(deviation, out=deviation)
        deviation -= 1.0 / n
        np.abs(deviation, out=deviation)
        np.max(deviation, axis=0, out=curve)
        objective[b] = np.min(curve)
    # the last coupling is g1*, so curve now holds its curve
    return OptimizeG1Result(
        g1_mhz=g1_star,
        objective=float(objective[-1]),
        chi_t_over_pi_equal=_distinct_minima(x, curve, NEAR_EQUAL_TOL),
        grid_g1_mhz=grid,
        grid_objective=objective[:-1],
    )


def optimize_to_scenario(result: OptimizeG1Result, n: int, spec: SystemSpec | None = None) -> ScenarioResult:
    """Wrap an OptimizeG1Result into tabular form for CSV output."""
    spec = spec if spec is not None else reference_spec(n)
    chi = float(derive_dispersive(spec).chi[-1, -2])
    meta = _base_metadata(f"optimize_g1_n{n}", spec, chi)
    meta["g1_star_mhz"] = result.g1_mhz
    meta["objective_star"] = result.objective
    meta["chi_t_over_pi_equal"] = [float(v) for v in result.chi_t_over_pi_equal]
    return ScenarioResult(
        meta["name"],
        {"g1_mhz": result.grid_g1_mhz, "objective": result.grid_objective},
        meta,
    )


def write_result(result: ScenarioResult, csv_path) -> list[Path]:
    """Write a scenario to CSV plus a JSON metadata sidecar, atomically.

    Numbers are rendered with 12 significant digits; the sidecar path is the
    CSV path with a .meta.json suffix appended to the stem.  Returns the
    written paths.
    """
    csv_path = Path(csv_path)
    names = list(result.columns)
    table = np.array([np.asarray(result.columns[k], dtype=float) for k in names]).T
    row_fmt = ",".join(["%.12g"] * len(names))
    lines = [",".join(names)] + [row_fmt % tuple(row) for row in table.tolist()]
    _write_atomic(csv_path, "\n".join(lines) + "\n")

    meta_path = csv_path.with_name(csv_path.stem + ".meta.json")
    payload = dict(result.metadata)
    payload["columns"] = names
    payload["rows"] = result.rows
    write_json(meta_path, payload)
    return [csv_path, meta_path]


def write_json(path, payload: dict) -> Path:
    """Write a mapping as sorted, indented JSON, atomically.

    It takes Python numbers and containers and numpy floats; non-finite floats
    become their repr strings, so the file is strict JSON.  Returns the path.
    """
    path = Path(path)
    _write_atomic(path, json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")
    return path


# --- helpers ----------------------------------------------------------------


def _require_n(spec: SystemSpec, n: int) -> None:
    if spec.n != n:
        raise ValueError(f"spec has {spec.n} resonators but the scenario needs {n}")


def _require_undamped(spec: SystemSpec, decay: str) -> None:
    """Refuse a spec with decay rates: the scenario sets decay as the clause
    decay says, so the spec's rates would be silently ignored."""
    rates = _mode_rates(spec)
    if any(rates):
        raise ValueError(f"the spec's decay rates {rates} MHz would be ignored: {decay}")


def _mode_rates(spec: SystemSpec) -> list[float]:
    """Decay rate of every mode in 1/us, bus first: kappa_mhz is already one."""
    return [spec.bus_kappa_mhz] + [r.kappa_mhz for r in spec.resonators]


def _require_nonempty(**axes) -> None:
    for name, values in axes.items():
        if len(values) == 0:
            raise ValueError(f"{name} is empty")


def _column_names(template: str, values, axis: str) -> list[str]:
    """template.format(v) for each value, refusing two values that give one
    name: the later column would silently replace the earlier."""
    names = [template.format(v) for v in values]
    first: dict[str, float] = {}
    for value, name in zip(values, names):
        if name in first:
            raise ValueError(
                f"{axis} values {first[name]!r} and {float(value)!r} both give "
                f"the column {name}"
            )
        first[name] = float(value)
    return names


def _require_rate(*kappas_mhz: float) -> None:
    if not kappas_mhz:
        raise ValueError("no decay rate given")
    for kappa in kappas_mhz:
        if not (math.isfinite(kappa) and kappa >= 0):
            raise ValueError(f"decay rate must be finite and nonnegative, got {kappa}")


def _homogeneous(spec: SystemSpec | None, n: int) -> tuple[SystemSpec, float]:
    """The scenario's spec (the reference point when None), checked to have
    n identical resonators and couplings, and its common hopping rate chi."""
    spec = spec if spec is not None else reference_spec(n)
    _require_n(spec, n)
    return spec, derive_dispersive(spec).chi_homogeneous


def _one_photon_frame(spec: SystemSpec) -> np.ndarray:
    """One-photon block of the ab initio Hamiltonian (bus at index 0) in the
    frame rotating at the first resonator."""
    return one_photon_hamiltonian(spec, spec.omegas[0])


def _released(specs) -> tuple[np.ndarray, np.ndarray]:
    """Release of the photon from resonator 1 for a family of systems, by
    one stacked eigh of their _one_photon_frame blocks: amplitude j of
    system b at time t is sum_l weights[b, j, l] exp(-i evals[b, l] t)."""
    # one_photon_hamiltonian builds each block exactly Hermitian
    evals, vecs = np.linalg.eigh(np.array([_one_photon_frame(spec) for spec in specs]))
    # the photon starts in row 1 of the block: c0 = vecs^dag e_1 is row 1 conjugated
    return evals, vecs * vecs[:, 1, None, :].conj()


def _with_coupling(spec: SystemSpec, index: int, g_mhz: float) -> SystemSpec:
    resonators = list(spec.resonators)
    resonators[index] = replace(resonators[index], g_mhz=float(g_mhz))
    return replace(spec, resonators=tuple(resonators))


def _distinct_minima(x: np.ndarray, curve: np.ndarray, tol: float) -> np.ndarray:
    """Location of the minimum of each contiguous run where curve <= tol."""
    # the padded mask starts and ends False, so its changes alternate
    # between the start of a run and the index one past its end
    padded = np.concatenate(([False], curve <= tol, [False]))
    runs = np.flatnonzero(np.diff(padded)).reshape(-1, 2)
    return np.array([x[a + np.argmin(curve[a:b])] for a, b in runs])


def _base_metadata(name: str, spec: SystemSpec, chi: float) -> dict:
    return {
        "name": name,
        "spec": spec_to_dict(spec),
        "chi_rad_per_us": float(chi),
        "version": __version__,
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    return obj


def _make_dirs(path: Path) -> None:
    """Make the directory path and its parents, refusing a regular file in
    its place as what it is, not a directory, rather than in mkdir's words,
    which say that the file exists."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except FileExistsError as exc:
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), exc.filename) from None


def _write_atomic(path: Path, text: str) -> None:
    _make_dirs(path.parent)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            if exc.filename != tmp:
                raise
            # name the path given, not the temporary file deleted below
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
