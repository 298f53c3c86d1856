"""Populations, fidelities, target states, and Werner-type initial states."""

import re
import warnings

import numpy as np
import pytest

from resonatorsim import (
    TimeGrid,
    WernerParams,
    amplitudes_homogeneous,
    build_basis,
    build_full,
    derive_dispersive,
    evolve_unitary,
    fidelity_dm,
    fidelity_pure_target,
    ideal_target,
    population,
    population_dm,
    reference_spec,
    shift_frame,
    single_photon_index,
    single_photon_populations,
    single_photon_populations_dm,
    sweep_werner,
    vacuum_index,
    werner_initial,
)


@pytest.fixture(scope="module")
def basis4():
    return build_basis(4, cutoff=1, excitation_cap=1)


def test_population_of_basis_state(basis4):
    psi = np.zeros(basis4.dim, dtype=complex)
    psi[single_photon_index(basis4, 2)] = 1.0
    p = single_photon_populations(psi, basis4, 3)
    np.testing.assert_allclose(p, [0.0, 1.0, 0.0])
    occupations = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    per_state = [population(psi, basis4, occ) for occ in occupations]
    np.testing.assert_allclose(per_state, [0.0, 0.0, 1.0, 0.0])


def test_population_dm_matches_pure(basis4):
    rng = np.random.default_rng(2)
    psi = rng.normal(size=basis4.dim) + 1j * rng.normal(size=basis4.dim)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    for occ in [(0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)]:
        assert population_dm(rho, basis4, occ) == pytest.approx(
            population(psi, basis4, occ), abs=1.0e-12
        )
    np.testing.assert_allclose(
        single_photon_populations_dm(rho, basis4, 3),
        single_photon_populations(psi, basis4, 3),
        atol=1.0e-12,
    )


def test_fidelity_pure_vs_dm_consistency(basis4):
    rng = np.random.default_rng(4)
    psi = rng.normal(size=basis4.dim) + 1j * rng.normal(size=basis4.dim)
    psi /= np.linalg.norm(psi)
    target = rng.normal(size=basis4.dim) + 1j * rng.normal(size=basis4.dim)
    target /= np.linalg.norm(target)
    f_pure = fidelity_pure_target(psi, target)
    f_dm = fidelity_dm(np.outer(psi, psi.conj()), target)
    assert f_dm == pytest.approx(f_pure, abs=1.0e-12)
    assert 0.0 <= f_pure <= 1.0


def test_ideal_target_is_normalized_single_photon(basis4):
    target = ideal_target(3, 0.22 * np.pi, basis4)
    assert np.linalg.norm(target) == pytest.approx(1.0, abs=1.0e-12)
    assert target[vacuum_index(basis4)] == 0.0
    # weights match the closed form, phases conjugated for the lab frame
    amps = amplitudes_homogeneous(3, 0.22 * np.pi)
    got = [target[single_photon_index(basis4, m + 1)] for m in range(3)]
    np.testing.assert_allclose(got, np.conj(amps), atol=1.0e-12)


def test_ideal_target_tracks_evolution(basis4):
    # the pinned target at chi t* reaches fidelity ~1 under full evolution
    spec = reference_spec(3)
    model = derive_dispersive(spec)
    chi = model.chi_homogeneous
    chi_t_star = 2.0 * np.pi / 9.0
    h = shift_frame(build_full(spec, basis4).h_full, basis4, spec.omegas[0])
    psi0 = np.zeros(basis4.dim, dtype=complex)
    psi0[single_photon_index(basis4, 1)] = 1.0
    traj = evolve_unitary(h, psi0, TimeGrid(0.0, chi_t_star / chi, 2))
    f = fidelity_pure_target(traj.states[-1], ideal_target(3, chi_t_star, basis4))
    assert f > 0.995


def test_werner_params_validation():
    with pytest.raises(ValueError):
        WernerParams(-0.1, 0.0)
    with pytest.raises(ValueError):
        WernerParams(1.2, 0.0)
    # a non-finite angle is refused before cos/sin turn it into NaN fidelities
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="theta must be finite"):
                WernerParams(0.5, theta)
        with pytest.raises(ValueError, match="theta must be finite"):
            sweep_werner(p_grid=[0.5], thetas_pi=[np.nan])
        # an empty axis is refused by name
        for kwargs, name in (({"p_grid": []}, "p_grid"), ({"thetas_pi": []}, "thetas_pi")):
            with pytest.raises(ValueError, match=f"{name} is empty"):
                sweep_werner(**kwargs)


def test_werner_state_properties():
    basis = build_basis(4, cutoff=1, excitation_cap=3)
    rho = werner_initial(WernerParams(0.6, 0.3), basis)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1.0e-12)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1.0e-14)
    assert np.min(np.linalg.eigvalsh(rho)) >= -1.0e-14


def test_werner_pure_limit():
    basis = build_basis(4, cutoff=1, excitation_cap=3)
    theta = 0.4
    rho = werner_initial(WernerParams(1.0, theta), basis)
    # pure |Phi> = cos(theta)|photon in R1> + i sin(theta)|photon in R2>
    psi = np.zeros(basis.dim, dtype=complex)
    psi[basis.index_of((0, 1, 0, 0))] = np.cos(theta)
    psi[basis.index_of((0, 0, 1, 0))] = 1j * np.sin(theta)
    np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1.0e-14)
    # purity 1 at p=1
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1.0e-12)


def test_werner_mixed_limit():
    basis = build_basis(4, cutoff=1, excitation_cap=3)
    rho = werner_initial(WernerParams(0.0, 0.9), basis)
    # p=0: uniform mixture over the 8 resonator occupation states, bus empty
    diag = np.diag(rho).real
    occupied = [i for i, s in enumerate(basis.states) if s[0] == 0]
    assert len(occupied) == 8
    np.testing.assert_allclose(diag[occupied], 1.0 / 8.0, atol=1.0e-14)
    assert np.sum(np.abs(rho - np.diag(diag))) == pytest.approx(0.0, abs=1.0e-14)


def test_werner_affine_in_p():
    basis = build_basis(4, cutoff=1, excitation_cap=3)
    theta = 0.25
    r0 = werner_initial(WernerParams(0.0, theta), basis)
    r1 = werner_initial(WernerParams(1.0, theta), basis)
    rmid = werner_initial(WernerParams(0.37, theta), basis)
    np.testing.assert_allclose(rmid, 0.37 * r1 + 0.63 * r0, atol=1.0e-14)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda b: single_photon_populations(np.zeros(b.dim), b, 2),
         "basis has 4 modes; expected 2 (bus-free) or 3 (with bus)"),
        (lambda b: single_photon_populations_dm(np.zeros((b.dim, b.dim)), b, 5),
         "basis has 4 modes; expected 5 (bus-free) or 6 (with bus)"),
        (lambda b: werner_initial(WernerParams(0.5, 0.0), build_basis(3, cutoff=1)),
         "Werner initial state needs a 4-mode basis, got 3"),
    ],
    ids=["populations_n", "populations_dm_n", "werner_modes"],
)
def test_refusals(basis4, call, message):
    # warnings are errors in this suite, so each refusal comes first
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(basis4)
