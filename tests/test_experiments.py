"""Scenario harness: grids, sweeps, calibration, and CSV output."""

import dataclasses
import json
import math
import os
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from resonatorsim import (
    ResonatorSpec,
    ScenarioResult,
    SystemSpec,
    TimeGrid,
    WernerParams,
    annihilation,
    build_basis,
    build_full,
    derive_dispersive,
    evolve_lindblad,
    evolve_unitary,
    fidelity_dm,
    first_crossing_chi_t,
    ideal_target,
    optimize_g1,
    optimize_to_scenario,
    reference_spec,
    scenario_population,
    shift_frame,
    single_photon_index,
    single_photon_populations_dm,
    sweep_fidelity_map_g2,
    sweep_fidelity_vs_time,
    sweep_gm,
    sweep_werner,
    werner_initial,
    write_result,
)
from resonatorsim import dynamics, experiments, hamiltonians, verify_sw_identities
from resonatorsim.dynamics import _expm, _live_layout, _real_generator
from resonatorsim.experiments import _distinct_minima, _with_coupling

from kron_liouvillian import kron_generator


def test_reference_spec_values():
    spec = reference_spec(4, kappa_mhz=0.25, gm_mhz=1.0)
    assert spec.n == 4
    assert spec.bus_freq_ghz == 6.75
    assert all(r.freq_ghz == 5.75 for r in spec.resonators)
    assert all(r.g_mhz == 50.0 for r in spec.resonators)
    assert all(r.kappa_mhz == 0.25 for r in spec.resonators)
    assert spec.bus_kappa_mhz == 0.25
    assert spec.gm_mhz == 1.0
    with pytest.raises(ValueError):
        reference_spec(3, couplings_mhz=[50.0, 50.0])
    for n in (-2, 0, 1):
        with pytest.raises(ValueError, match=f"need at least 2 distant resonators, got {n}$"):
            reference_spec(n)


def test_first_crossing_values():
    assert first_crossing_chi_t(3) == pytest.approx(2.0 * np.pi / 9.0, abs=1.0e-8)
    assert first_crossing_chi_t(4) == pytest.approx(np.pi / 4.0, abs=1.0e-5)
    with pytest.raises(ValueError, match="optimize_g1"):
        first_crossing_chi_t(5)


def test_scenario_population_columns_and_agreement():
    res = scenario_population(3, points=101, chi_t_max_over_pi=0.5)
    assert list(res.columns)[:1] == ["chi_t_over_pi"]
    for j in (1, 2, 3):
        assert f"p_analytic_{j}" in res.columns
        assert f"p_abinitio_{j}" in res.columns
    assert res.rows == 101
    for j in (1, 2, 3):
        dev = np.max(
            np.abs(res.columns[f"p_analytic_{j}"] - res.columns[f"p_abinitio_{j}"])
        )
        assert dev < 0.03  # dispersive error at g/Delta = 0.05


def test_scenario_population_damped_column_decays():
    res = scenario_population(3, with_kappa_mhz=1.0, points=40, chi_t_max_over_pi=0.4)
    total = sum(res.columns[f"p_damped_{j}"] for j in (1, 2, 3))
    assert total[0] == pytest.approx(1.0, abs=1.0e-6)
    # the three distant modes hold e^{-kappa t} of the photon, minus the bus
    # admixture ripple (collectively enhanced: ~n (g/Delta)^2, measured <= 0.01)
    chi = derive_dispersive(reference_spec(3)).chi_homogeneous
    t = np.pi * res.columns["chi_t_over_pi"] / chi
    envelope = np.exp(-1.0 * t)
    assert np.all(total <= envelope + 1.0e-6)
    assert np.all(total >= envelope - 0.012)


def test_scenario_population_rejects_wrong_n():
    with pytest.raises(ValueError):
        scenario_population(4, reference_spec(3))


def test_scenario_population_rejects_inhomogeneous():
    spec = _with_coupling(reference_spec(3), 0, 60.0)
    with pytest.raises(ValueError, match="identical"):
        scenario_population(3, spec)


def test_fidelity_sweep_kappa_zero_peak():
    res = sweep_fidelity_vs_time(3, points=121, chi_t_max_over_pi=0.3)
    col = res.columns["f_kappa_0mhz"]
    assert np.max(col) > 0.995
    assert res.metadata["chi_t_star_over_pi"] == pytest.approx(2.0 / 9.0, abs=1.0e-6)
    # rates are refused before any array is built, an empty list included
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([-0.1], [], [np.nan], [0.5, np.inf]):
            with pytest.raises(ValueError, match="decay rate"):
                sweep_fidelity_vs_time(3, kappas_mhz=bad)
            with pytest.raises(ValueError, match="decay rate"):
                sweep_gm(kappas_mhz=bad)
        with pytest.raises(ValueError, match="ratios is empty"):
            sweep_gm(ratios=[])


@pytest.mark.parametrize("ratios", [[np.nan], [math.inf, np.nan], [0.0], [10.0, -1.0]])
def test_gm_sweep_refuses_non_positive_and_nan_ratios(ratios):
    # NaN passes a `r <= 0` check and used to surface as "gm_mhz must be finite"
    with pytest.raises(ValueError, match="coupling ratios must be positive"):
        sweep_gm(ratios=ratios)


def _master_equation(spec, kappa, t_end, points=2):
    """Reference damped run from one photon in resonator 1, with collapse
    a_m at kappa on all n + 1 modes: basis and density matrices on the grid."""
    basis = build_basis(spec.n + 1, cutoff=1, excitation_cap=1)
    h = shift_frame(build_full(spec, basis).h_full, basis, spec.omegas[0])
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[single_photon_index(basis, 1)] = 1.0
    ops = [(kappa, annihilation(basis, m)) for m in range(spec.n + 1)]
    grid = TimeGrid(0.0, t_end, points)
    return basis, evolve_lindblad(h, ops, np.outer(psi0, psi0.conj()), grid).states


def test_map_factorization_matches_master_equation():
    # the map and the damped columns of the population, fidelity and gm
    # scenarios are exp(-kappa t) times unitary results; each is checked
    # against the master equation with every mode damped at kappa
    chi = derive_dispersive(reference_spec(3)).chi_homogeneous
    chi_t_star = first_crossing_chi_t(3)
    res = sweep_fidelity_map_g2(g2_ratios=[0.8], kappa_mhz=0.10)
    spec = _with_coupling(reference_spec(3), 1, 40.0)
    for i in (10, 34):  # chi*t/pi = 0.10 and 0.22 on the map's fixed axis
        x = res.columns["chi_t_over_pi"][i]
        basis, rho = _master_equation(spec, 0.10, np.pi * x / chi)
        f_me = fidelity_dm(rho[-1], ideal_target(3, chi_t_star, basis))
        np.testing.assert_allclose(res.columns["f_g2_0.8"][i], f_me, rtol=0, atol=1e-12)

    for n in (3, 4):
        spec = reference_spec(n)
        chi_n = derive_dispersive(spec).chi_homogeneous
        res = scenario_population(n, with_kappa_mhz=0.5, chi_t_max_over_pi=1.3, points=7)
        times = np.pi * res.columns["chi_t_over_pi"] / chi_n
        basis, rho = _master_equation(spec, 0.5, times[-1], len(times))
        p_me = single_photon_populations_dm(rho, basis, n)
        for j in range(n):
            np.testing.assert_allclose(
                res.columns[f"p_damped_{j + 1}"], p_me[:, j], rtol=0, atol=1e-12
            )

        res = sweep_fidelity_vs_time(n, kappas_mhz=(0.25, 2.0), chi_t_max_over_pi=1.3, points=7)
        target = ideal_target(n, first_crossing_chi_t(n), basis)
        for kappa in (0.25, 2.0):
            _, rho = _master_equation(spec, kappa, times[-1], len(times))
            np.testing.assert_allclose(
                res.columns[f"f_kappa_{kappa:g}mhz"], fidelity_dm(rho, target), rtol=0, atol=1e-12
            )

    # a finite g/G_M adds direct hopping, which the envelope argument covers
    res = sweep_gm(ratios=[np.inf, 5.0], kappas_mhz=[0.5, 3.0])
    t_star = res.metadata["operation_time_us"]
    for i, gm in enumerate(res.columns["gm_mhz"]):
        assert gm == (0.0 if i == 0 else 10.0)
        spec = dataclasses.replace(reference_spec(3), gm_mhz=gm)
        for kappa in (0.5, 3.0):
            basis, rho = _master_equation(spec, kappa, t_star)
            f_me = fidelity_dm(rho[-1], ideal_target(3, chi_t_star, basis))
            np.testing.assert_allclose(
                res.columns[f"f_kappa_{kappa:g}mhz"][i], f_me, rtol=0, atol=1e-12
            )
    # an empty ratio axis is refused before any array is computed from it
    with pytest.raises(ValueError, match="g2_ratios is empty"):
        sweep_fidelity_map_g2(g2_ratios=[])


def test_single_photon_scenarios_build_no_fock_basis(monkeypatch):
    # they run on the (n+1) x (n+1) one-photon block; the master-equation
    # references above are their Fock-basis oracle
    def refuse(*args, **kwargs):
        raise AssertionError("a single-photon scenario built a Fock basis")

    monkeypatch.setattr(experiments, "build_basis", refuse)
    scenario_population(3, points=5)
    scenario_population(4, with_kappa_mhz=0.5, points=5)
    sweep_fidelity_vs_time(3, points=5)
    sweep_gm(ratios=(math.inf, 10.0))
    sweep_fidelity_map_g2(g2_ratios=[0.8, 1.0])
    optimize_g1(5)
    # the Werner sweep keeps its Fock basis, built once per process (so
    # the uncached builder shows that the patch is live)
    with pytest.raises(AssertionError, match="Fock basis"):
        experiments._werner.__wrapped__()


@pytest.mark.parametrize(
    "run",
    [sweep_fidelity_map_g2, sweep_gm, lambda: optimize_g1(5)],
    ids=["map_g2", "gm", "optimize_g1"],
)
def test_block_families_release_with_one_stacked_eigh(monkeypatch, run):
    # a family of one-photon blocks (21 g2 ratios, 9 direct couplings, 22
    # first-resonator couplings) is diagonalized by one stacked eigh
    calls = []

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    run()
    assert len(calls) == 1


def test_single_steps_exponentiate_with_dynamics_expm(monkeypatch):
    # e^S of the bus elimination and the undamped Werner step both go
    # through dynamics._expm, once each, on the 4 x 4 block and on the 69
    # live real coordinates of the Werner states
    shapes = []

    def recording_expm(a):
        shapes.append((a.shape, a.dtype))
        return _expm(a)

    monkeypatch.setattr(hamiltonians, "_expm", recording_expm)
    monkeypatch.setattr(experiments, "_expm", recording_expm)
    verify_sw_identities(reference_spec(3))
    assert shapes == [((4, 4), np.complex128)]
    shapes.clear()
    sweep_werner()
    assert shapes == [((69, 69), np.float64)]


@pytest.mark.parametrize(
    "n, call, flag",
    [
        (3, lambda s: scenario_population(3, s, with_kappa_mhz=0.5), "--kappa-mhz"),
        (3, lambda s: sweep_fidelity_vs_time(3, s), "--kappas-mhz"),
        (3, lambda s: sweep_fidelity_map_g2(s), "--kappa-mhz"),
        (3, lambda s: sweep_gm(s), "--kappas-mhz"),
        (5, lambda s: optimize_g1(5, s), "without decay"),
    ],
    ids=["population", "fidelity", "map_g2", "gm", "optimize_g1"],
)
def test_single_photon_scenarios_refuse_damped_spec(n, call, flag):
    # these take decay from their own arguments (or run without it), so a
    # spec's rates would be ignored; the bus rate alone is enough to refuse
    for spec in (reference_spec(n, kappa_mhz=0.5),
                 dataclasses.replace(reference_spec(n), bus_kappa_mhz=0.1)):
        with pytest.raises(ValueError, match=f"would be ignored: .*{flag}"):
            call(spec)


@pytest.mark.parametrize(
    "call, axis, values",
    [
        (lambda v: sweep_fidelity_vs_time(3, kappas_mhz=v, points=4), "kappas_mhz",
         [0.1234567, 0.1234568]),
        (lambda v: sweep_gm(kappas_mhz=v), "kappas_mhz", [0.1234567, 0.1234568]),
        (lambda v: sweep_fidelity_map_g2(g2_ratios=v), "g2_ratios", [0.1234567, 0.1234568]),
        (lambda v: sweep_werner(thetas_pi=v), "thetas_pi", [0.25, 0.5, 0.25]),
    ],
    ids=["fidelity", "gm", "map_g2", "werner"],
)
def test_sweeps_refuse_colliding_column_names(call, axis, values):
    # {:g} keeps six digits, so both values would name one column and the
    # second would silently replace the first
    clash = f"{values[0]!r} and {values[-1]!r}"
    with pytest.raises(ValueError, match=f"{axis} values {clash} both give the column"):
        call(values)


def _distinct_minima_loop(x, curve, tol):
    # the scan that _distinct_minima replaced, kept as its reference
    out = []
    start = None
    for i, flag in enumerate(np.append(curve <= tol, False)):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            run = slice(start, i)
            out.append(x[run][np.argmin(curve[run])])
            start = None
    return np.array(out)


def test_distinct_minima_matches_loop():
    x = np.linspace(0.0, 2.0, 9)
    rng = np.random.default_rng(5)
    curves = [
        np.array([0.0, 0.01, 0.5, 0.3, 0.015, 0.005, 0.4, 0.01, 0.0]),  # runs at both ends
        np.array([0.01, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3]),  # one point at the start
        np.full(9, 0.5),  # no run
        np.full(9, 0.01),  # one run over everything
        rng.uniform(0.0, 0.04, 9),
    ]
    for curve in curves:
        got = _distinct_minima(x, curve, 0.02)
        want = _distinct_minima_loop(x, curve, 0.02)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert _distinct_minima(x, curves[2], 0.02).shape == (0,)
    assert np.array_equal(_distinct_minima(x, curves[3], 0.02), [0.0])


def test_gm_sweep_infinite_ratio_is_baseline():
    res = sweep_gm(ratios=[np.inf, 100.0], kappas_mhz=[0.0])
    f = res.columns["f_kappa_0mhz"]
    assert res.columns["gm_mhz"][0] == 0.0
    assert f[0] > 0.99  # no direct coupling: near-ideal at the crossing
    # gm = 0 must agree with a spec that simply has no direct coupling
    spec = reference_spec(3)
    assert dataclasses.replace(spec, gm_mhz=0.0) == spec
    assert f[1] < f[0]  # direct coupling at g/100 costs fidelity


@pytest.mark.parametrize(
    "spec",
    [reference_spec(3), SystemSpec(6.75, 0.0, (ResonatorSpec(6.0, 45.0),) * 3, gm_mhz=1.0)],
    ids=["reference", "detuned_gm"],
)
def test_werner_hamiltonian_is_the_lifted_frame_block(spec):
    # without decay, the generator contracted from the one-photon block in
    # resonator 1's frame is the real generator of the Fock Hamiltonian
    # shifted into that frame, gathered on the same live layout
    _, live = _werner_live_layout()
    basis = build_basis(4, cutoff=1, excitation_cap=3)
    h = shift_frame(build_full(spec, basis).h_full, basis, spec.omegas[0])
    expected = _real_generator(-1j * h, np.zeros(4), live)
    got = experiments._werner().generator(experiments._one_photon_frame(spec), np.zeros(4))
    assert np.max(np.abs(got - expected)) <= 1.0e-13 * np.max(np.abs(expected))


def test_damped_werner_sweep_exponentiates_the_layout_once(monkeypatch):
    # the fidelity is linear in p: one exponential of the 69-coordinate
    # generator steps the pure state of each theta and the one maximally
    # mixed state, whatever the length of the p grid
    shapes = []

    def recording_expm(a):
        shapes.append((a.shape, a.dtype))
        return _expm(a)

    monkeypatch.setattr(experiments, "_expm", recording_expm)
    sweep_werner(reference_spec(3, kappa_mhz=0.5), p_grid=np.linspace(0.0, 1.0, 7),
                 thetas_pi=(0.0, 0.1, 0.25, 0.5))
    assert shapes == [((69, 69), np.float64)]
    # no state is built at the grid's weights, and each is still checked
    for bad in (1.5, -0.1, np.nan):
        with pytest.raises(ValueError, match="mixture weight p must be in"):
            sweep_werner(p_grid=[0.5, bad])


def test_werner_routes_agree():
    # the contracted generator without decay vs the master-equation propagator
    res = sweep_werner(p_grid=[0.7], thetas_pi=[0.25])
    spec = reference_spec(3)
    model = derive_dispersive(spec)
    chi = model.chi_homogeneous
    chi_t_star = first_crossing_chi_t(3)
    basis = build_basis(4, cutoff=1, excitation_cap=3)
    rho0 = werner_initial(WernerParams(0.7, 0.25 * np.pi), basis)
    h = shift_frame(build_full(spec, basis).h_full, basis, spec.omegas[0])
    traj = evolve_lindblad(
        h,
        [(0.0, annihilation(basis, 0))],
        rho0,
        TimeGrid(0.0, chi_t_star / chi, 2),
    )
    f_me = fidelity_dm(traj.states[-1], ideal_target(3, chi_t_star, basis))
    assert res.columns["f_theta_0.25pi"][0] == pytest.approx(f_me, abs=1.0e-12)


def _kron_werner_columns(spec, ps, thetas):
    """The damped Werner fidelities from the whole d^2 x d^2 generator,
    assembled from Kronecker products on the 15-state basis, exponentiated
    with scipy and applied to each row-major vec(rho0), by column name."""
    chi_t_star = first_crossing_chi_t(3)
    t_star = chi_t_star / derive_dispersive(spec).chi_homogeneous
    basis = build_basis(4, cutoff=1, excitation_cap=3)
    h = shift_frame(build_full(spec, basis).h_full, basis, spec.omegas[0])
    rates = [spec.bus_kappa_mhz] + [r.kappa_mhz for r in spec.resonators]
    ops = [(kappa, annihilation(basis, m)) for m, kappa in enumerate(rates)]
    step = scipy.linalg.expm(kron_generator(h, ops) * t_star)
    target = ideal_target(3, chi_t_star, basis)
    columns = {}
    for theta in thetas:
        rho = [step @ werner_initial(WernerParams(p, np.pi * theta), basis).reshape(-1)
               for p in ps]
        columns[f"f_theta_{theta:g}pi"] = fidelity_dm(
            np.reshape(rho, (-1, basis.dim, basis.dim)), target)
    return columns


def test_damped_werner_sweep_matches_full_liouvillian():
    # per-mode rates from the spec, checked against the Kronecker reference
    rates = (0.3, 0.1, 0.5, 0.8)  # bus first
    spec = SystemSpec(6.75, rates[0], tuple(ResonatorSpec(5.75, 50.0, k) for k in rates[1:]))
    res = sweep_werner(spec)
    expected = _kron_werner_columns(spec, res.columns["p"], (0.0, 0.25, 0.5))
    for name, column in expected.items():
        np.testing.assert_allclose(res.columns[name], column, rtol=0, atol=1.0e-12)


def test_damped_werner_sweeps_share_one_read_only_layout():
    # an undamped sweep and two damped sweeps in one process, with other
    # rates, angles and weights and one with a direct coupling, contract one
    # set of generator terms, built once
    experiments._werner.cache_clear()
    sweep_werner(p_grid=[0.5])
    assert experiments._werner.cache_info().currsize == 1
    cases = [
        (SystemSpec(6.75, 0.3, tuple(ResonatorSpec(5.75, 50.0, k) for k in (0.1, 0.5, 0.8)),
                    gm_mhz=0.5), [0.0, 0.35, 1.0], (0.1, 0.4)),
        (SystemSpec(6.75, 0.0, tuple(ResonatorSpec(5.75, 50.0, k) for k in (0.7, 0.0, 0.2))),
         [0.6, 0.9], (0.0, 0.3, 0.5)),
    ]
    for spec, ps, thetas in cases:
        res = sweep_werner(spec, p_grid=ps, thetas_pi=thetas)
        for name, column in _kron_werner_columns(spec, ps, thetas).items():
            np.testing.assert_allclose(res.columns[name], column, rtol=0, atol=1.0e-12)
    info = experiments._werner.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    damped = experiments._werner()
    assert damped.size == 69 and damped.mixture.shape == (69,)
    arrays = [v for v in vars(damped).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 9 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        damped.values[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        damped.fidelity_weights[0] += 1.0


def _werner_live_layout():
    """The live layout of the Werner states under every hop and decay,
    closed afresh: the coordinates the damped generator terms use."""
    basis = build_basis(4, cutoff=1, excitation_cap=3)
    ops = hamiltonians._ladder(basis)
    rho0 = np.stack([werner_initial(WernerParams(p, 0.25 * np.pi), basis) for p in (0.0, 1.0)])
    every_hop = hamiltonians._lift(np.ones((4, 4)), ops)
    return ops, _live_layout(every_hop[None], ops, np.ones((4, 1)), rho0)


def test_damped_werner_generator_contracts_the_layout_generator():
    # the 20 parameters (Re and Im of the Hermitian block, the rates)
    # contracted with the terms built once give the Liouvillian that
    # _real_generator builds from the lifted drift, for random blocks, a
    # G_M chain and rates with zeros
    rng = np.random.default_rng(28)
    ops, live = _werner_live_layout()
    numbers = ops.conj().swapaxes(1, 2) @ ops
    blocks = []
    for _ in range(3):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        blocks.append(a + a.conj().T)
    chain = SystemSpec(6.75, 0.0, (ResonatorSpec(5.9, 40.0), ResonatorSpec(5.75, 55.0),
                                   ResonatorSpec(5.6, 50.0)), gm_mhz=1.3)
    blocks.append(experiments._one_photon_frame(chain))
    rates = [np.array([0.0, 0.7, 0.0, 0.2]), np.zeros(4), rng.random(4), np.array([1.5, 0, 0, 0])]
    damped = experiments._werner()
    for block, kappas in zip(blocks, rates):
        drift = -1j * hamiltonians._lift(block, ops) - 0.5 * np.einsum("k,kij->ij", kappas, numbers)
        expected = _real_generator(drift, kappas, live)
        got = damped.generator(block, kappas)
        assert np.max(np.abs(got - expected)) <= 1.0e-13 * np.max(np.abs(expected))


def test_warm_damped_werner_call_builds_no_operator_or_state(monkeypatch):
    # once built, a call with or without decay contracts the terms: it
    # builds no basis, lifts no block, gathers no generator and builds no
    # Werner density matrix, and gives the cold call's values bitwise
    specs = [SystemSpec(6.75, 0.3, tuple(ResonatorSpec(5.75, 50.0, k) for k in (0.1, 0.5, 0.8))),
             reference_spec(3)]
    experiments._werner.cache_clear()
    expected = [sweep_werner(spec, p_grid=[0.2, 0.9], thetas_pi=(0.0, 0.3)) for spec in specs]

    def refuse(*args, **kwargs):
        raise AssertionError("a warm Werner call rebuilt an operator or a state")

    for module, name in [(experiments, "build_basis"), (experiments, "_ladder"),
                         (experiments, "_real_terms"), (experiments, "_live_layout"),
                         (experiments, "werner_initial"), (experiments, "ideal_target"),
                         (hamiltonians, "_lift"), (dynamics, "_real_generator"),
                         (dynamics, "_real_terms")]:
        monkeypatch.setattr(module, name, refuse)
    for spec, cold in zip(specs, expected):
        res = sweep_werner(spec, p_grid=[0.2, 0.9], thetas_pi=(0.0, 0.3))
        for name, column in cold.columns.items():
            np.testing.assert_array_equal(res.columns[name], column)


def test_optimizer_invariants():
    search = (50.0, 80.0)
    result = optimize_g1(5, search_mhz=search)
    assert search[0] <= result.g1_mhz <= search[1]
    # never worse than the endpoints of the scanned interval
    assert result.objective <= result.grid_objective[0] + 1.0e-9
    assert result.objective <= result.grid_objective[-1] + 1.0e-9
    assert len(result.grid_g1_mhz) == len(result.grid_objective) == 21
    times = result.chi_t_over_pi_equal
    assert np.all((times > 0.0) & (times <= 2.0))
    assert np.all(np.diff(times) > 0)


def _landscape_reference(n, spec, search):
    # one TimeGrid, one evolve_unitary and one |amplitude|^2 table per coupling
    x = np.linspace(0.0, 2.0, 8001)

    def curve(g1):
        varied = _with_coupling(spec, 0, g1)
        chi_ref = float(derive_dispersive(varied).chi[-1, -2])
        window = TimeGrid(0.0, np.pi * x[-1] / chi_ref, len(x))
        states = evolve_unitary(
            experiments._one_photon_frame(varied), np.eye(n + 1)[1], window
        ).states
        p = np.abs(states[:, 1:]) ** 2
        return np.max(np.abs(p - 1.0 / n), axis=1)

    star = curve((np.sqrt(n) - 1.0) * spec.resonators[1].g_mhz)
    grid = np.linspace(*search, 21)
    values = np.array([np.min(curve(g)) for g in grid])
    return np.min(star), _distinct_minima(x, star, experiments.NEAR_EQUAL_TOL), values


@pytest.mark.parametrize(
    "n, spec, kwargs",
    [
        (5, None, {}),
        (6, reference_spec(6, gm_mhz=2.0), {"search_mhz": (60.0, 80.0)}),
    ],
    ids=["n5", "n6_gm2"],
)
def test_optimizer_landscape_matches_per_coupling_curves(n, spec, kwargs):
    # the landscape shares one time grid, one eigh and one amplitude buffer;
    # it must equal curves built one coupling at a time, bit for bit
    spec = reference_spec(n) if spec is None else spec
    search = kwargs.get("search_mhz", (50.0, 80.0))
    result = optimize_g1(n, spec, **kwargs)
    objective, minima, values = _landscape_reference(n, spec, search)
    assert result.objective == objective
    np.testing.assert_array_equal(result.chi_t_over_pi_equal, minima)
    np.testing.assert_array_equal(result.grid_objective, values)
    # the window comes from the last pair, which resonator 1's coupling never enters
    chis = {
        float(derive_dispersive(_with_coupling(spec, 0, g)).chi[-1, -2])
        for g in [*np.linspace(*search, 21), result.g1_mhz]
    }
    assert len(chis) == 1


def test_optimizer_rejects_small_n_and_bad_interval():
    with pytest.raises(ValueError):
        optimize_g1(3)
    with pytest.raises(ValueError):
        optimize_g1(5, search_mhz=(80.0, 50.0))
    # refused before numpy warns about an array built from the interval
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="0 < lo < hi < inf"):
            optimize_g1(5, search_mhz=(50.0, math.inf))


def test_optimizer_closed_form_coupling():
    # g1* = (sqrt(n) - 1) g beats every grid point of its window
    result = optimize_g1(6, search_mhz=(60.0, 80.0))
    assert result.g1_mhz == pytest.approx((np.sqrt(6.0) - 1.0) * 50.0, rel=1.0e-15)
    assert result.objective < np.min(result.grid_objective)


def test_optimizer_rejects_inhomogeneous_spec():
    spec = reference_spec(5, couplings_mhz=[50.0, 50.0, 55.0, 50.0, 50.0])
    with pytest.raises(ValueError, match=r"coupling, got \[50.0, 55.0, 50.0, 50.0\]"):
        optimize_g1(5, spec)
    spec = reference_spec(5)
    resonators = list(spec.resonators)
    resonators[2] = dataclasses.replace(resonators[2], freq_ghz=5.8)
    spec = dataclasses.replace(spec, resonators=tuple(resonators))
    with pytest.raises(ValueError, match="detuning"):
        optimize_g1(5, spec)


def test_optimize_to_scenario_metadata():
    result = optimize_g1(5)
    res = optimize_to_scenario(result, 5)
    assert res.metadata["g1_star_mhz"] == result.g1_mhz
    assert list(res.columns) == ["g1_mhz", "objective"]
    assert res.rows == 21


def test_write_result_deterministic(tmp_path):
    res = scenario_population(3, points=12, chi_t_max_over_pi=0.2)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_result(res, a)
    write_result(res, b)
    assert a.read_bytes() == b.read_bytes()
    meta = json.loads((tmp_path / "a.meta.json").read_text(encoding="utf-8"))
    assert meta["name"] == "population_n3"
    assert meta["rows"] == 12
    assert meta["spec"]["resonators"][0]["g_mhz"] == 50.0
    header = a.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("chi_t_over_pi,p_analytic_1")


def test_write_result_twelve_digits(tmp_path):
    from resonatorsim import ScenarioResult

    x = np.array([1.0 / 3.0, np.nan, -0.0, 5e-324])
    y = np.array([np.inf, -np.inf, 1e22, -1.5e-7])
    res = ScenarioResult("fmt", {"x": x, "y": y}, {"name": "fmt"})
    path = tmp_path / "fmt.csv"
    write_result(res, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["x,y", "0.333333333333,inf", "nan,-inf", "-0,1e+22",
                     "4.94065645841e-324,-1.5e-07"]
    # each cell reads as format(value, ".12g") of the numpy value
    assert lines[1:] == [f"{a:.12g},{b:.12g}" for a, b in zip(x, y)]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ScenarioResult("x", {"a": [0.0, 1.0], "b": [0.0]}, {}),
         "column lengths differ: {'a': 2, 'b': 1}"),
    ],
    ids=["column_lengths"],
)
def test_refusals(call, message):
    # warnings are errors in this suite, so each refusal comes first
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    # the text goes to a temporary file that replaces the target; when the
    # replace fails, the error propagates and the temporary file is removed
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    result = ScenarioResult("x", {"a": [0.0, 1.0]}, {})
    with pytest.raises(OSError, match="^replace refused$"):
        write_result(result, tmp_path / "x.csv")
    with pytest.raises(OSError, match="^replace refused$"):
        experiments.write_json(tmp_path / "x.json", {"a": 1.0})
    assert list(tmp_path.iterdir()) == []
