"""Hamiltonian assembly and the frame-transformation identity suite."""

import numpy as np
import pytest
import scipy.linalg

from resonatorsim import (
    ResonatorSpec,
    SystemSpec,
    build_basis,
    build_full,
    build_sw_generator,
    derive_dispersive,
    one_photon_hamiltonian,
    reference_spec,
    shift_frame,
    single_photon_index,
    total_number,
    verify_sw_identities,
)
from resonatorsim.dynamics import _expm


@pytest.fixture(scope="module")
def spec3():
    return reference_spec(3)


@pytest.fixture(scope="module")
def basis4():
    return build_basis(4, cutoff=1, excitation_cap=1)


def test_full_hamiltonian_hermitian(spec3, basis4):
    h = build_full(spec3, basis4).h_full
    np.testing.assert_allclose(h, h.conj().T, atol=1.0e-12)


def test_full_hamiltonian_splits(spec3, basis4):
    ham = build_full(spec3, basis4)
    np.testing.assert_allclose(
        ham.h_full, ham.h0 + ham.h_int + ham.h_gm, atol=1.0e-12
    )
    assert np.max(np.abs(ham.h_gm)) == 0.0  # no direct coupling by default


def test_direct_coupling_block(basis4):
    import dataclasses

    spec = dataclasses.replace(reference_spec(3), gm_mhz=5.0)
    ham = build_full(spec, basis4)
    gm = spec.gm
    # open chain: R1-R2 and R2-R3 only
    i1 = basis4.index_of((0, 1, 0, 0))
    i2 = basis4.index_of((0, 0, 1, 0))
    i3 = basis4.index_of((0, 0, 0, 1))
    assert ham.h_gm[i1, i2] == pytest.approx(gm)
    assert ham.h_gm[i2, i3] == pytest.approx(gm)
    assert ham.h_gm[i1, i3] == 0.0


@pytest.mark.parametrize("gm_mhz", [0.0, 4.0])
def test_one_photon_hamiltonian_is_the_full_block(gm_mhz):
    # every entry is omega, g or G_M times 1 in both builders, so the block
    # matches exactly; unequal couplings and frequencies pin each position
    import dataclasses

    spec = reference_spec(4, gm_mhz=gm_mhz, couplings_mhz=[50.0, 43.0, 57.5, 61.0])
    resonators = list(spec.resonators)
    resonators[2] = dataclasses.replace(resonators[2], freq_ghz=5.7623)
    spec = dataclasses.replace(spec, resonators=tuple(resonators))
    basis = build_basis(5, cutoff=1, excitation_cap=1)
    omega_ref = spec.omegas[0]
    full = shift_frame(build_full(spec, basis).h_full, basis, omega_ref)
    block = [single_photon_index(basis, m) for m in range(5)]
    h = one_photon_hamiltonian(spec, omega_ref)
    assert h.shape == (5, 5) and h.dtype == complex
    assert np.array_equal(h, full[np.ix_(block, block)])
    # build_full is a lift of this block, so pin the entries to spec as well
    assert h[0, 0] == spec.bus_omega - omega_ref
    assert np.array_equal(np.diag(h)[1:], spec.omegas - omega_ref)
    assert np.array_equal(h[0, 1:], spec.couplings) and np.array_equal(h[1:, 0], spec.couplings)
    assert h[1, 2] == h[3, 4] == spec.gm and h[1, 3] == 0.0


def test_two_photon_sector_spectrum_is_pairwise_sums():
    # a bilinear Hamiltonian on two photons has the spectrum
    # {lambda_i + lambda_j, i <= j} of its one-photon block: an independent
    # check of the Fock-space lift above one photon (sqrt(2) entries, G_M
    # chain, unequal couplings)
    spec = reference_spec(4, gm_mhz=4.0, couplings_mhz=[50.0, 43.0, 57.5, 61.0])
    basis = build_basis(5, cutoff=2, excitation_cap=2)
    omega_ref = spec.omegas[0]
    h = shift_frame(build_full(spec, basis).h_full, basis, omega_ref)
    two = [i for i, occ in enumerate(basis.states) if sum(occ) == 2]
    lam = np.linalg.eigvalsh(one_photon_hamiltonian(spec, omega_ref))
    pairs = [lam[i] + lam[j] for i in range(5) for j in range(i, 5)]
    assert len(two) == len(pairs) == 15
    np.testing.assert_allclose(
        np.linalg.eigvalsh(h[np.ix_(two, two)]), np.sort(pairs), rtol=0.0, atol=1.0e-9
    )


def test_mode_count_mismatch_rejected(spec3):
    basis = build_basis(3, cutoff=1, excitation_cap=1)
    with pytest.raises(ValueError):
        build_full(spec3, basis)


def test_shift_frame_shifts_single_photon_energies(spec3, basis4):
    h = build_full(spec3, basis4).h_full
    omega_ref = spec3.omegas[0]
    shifted = shift_frame(h, basis4, omega_ref)
    np.testing.assert_allclose(
        shifted, h - omega_ref * total_number(basis4), atol=1.0e-9
    )


def test_full_single_photon_band_structure(spec3, basis4):
    # in the frame rotating at the bare resonator frequency, the hopping band
    # of the full model is one collective state 3*chi deep (2*chi of hopping
    # plus the uniform second-order shift) and two states near zero that join
    # the exact vacuum zero; the bus branch sits ~Delta higher
    model = derive_dispersive(spec3)
    chi = model.chi_homogeneous
    h_full = shift_frame(build_full(spec3, basis4).h_full, basis4, spec3.omegas[0])
    ev = np.linalg.eigvalsh(h_full)
    low = np.sort(ev[np.abs(ev) < 10.0 * chi])
    np.testing.assert_allclose(low, [-3.0 * chi, 0.0, 0.0, 0.0], atol=0.05 * chi)
    assert np.max(ev) > 0.5 * model.delta[0]


def test_sw_residuals_reference_point(spec3, basis4):
    rep = verify_sw_identities(spec3)
    assert rep.r1 <= 1.0e-10
    assert rep.r3 <= 1.0e-12
    assert rep.eigenvalue_drift <= 1.0e-10
    assert rep.spectrum_relative_error <= 1.0e-3
    # second-order truncation error is quadratic: (2g/Delta)^2 at g/Delta=0.05
    assert rep.r2_relative == pytest.approx(0.01, rel=0.01)


def test_sw_truncation_error_scales_quadratically():
    # halving g should quarter the relative second-order residual
    r_full = verify_sw_identities(reference_spec(3)).r2_relative
    r_half = verify_sw_identities(
        reference_spec(3, couplings_mhz=[25.0, 25.0, 25.0])
    ).r2_relative
    assert r_full / r_half == pytest.approx(4.0, rel=0.01)


def test_sw_transform_preserves_spectrum(spec3, basis4):
    u = scipy.linalg.expm(build_sw_generator(spec3, basis4))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(basis4.dim), atol=1.0e-12)


def _detuned_spec():
    return SystemSpec(6.75, 0.0, tuple(
        ResonatorSpec(f, g)
        for f, g in ((5.745109, 40.265), (5.74867, 52.345), (5.754465, 55.956))
    ))


@pytest.mark.parametrize("detuned", [False, True])
def test_sw_block_residuals_match_fock_space(detuned, basis4):
    # verify_sw_identities works on the one-photon block; the same residuals
    # on the 0/1-photon Fock sector, with scipy's expm, are the reference
    spec = _detuned_spec() if detuned else reference_spec(3)
    ham = build_full(spec, basis4)
    s = build_sw_generator(spec, basis4)
    h = ham.h0 + ham.h_int
    u = scipy.linalg.expm(s)
    r1 = np.linalg.norm(s @ ham.h0 - ham.h0 @ s + ham.h_int, 2)
    r2 = np.linalg.norm(
        u @ h @ u.conj().T - ham.h0 - 0.5 * (s @ ham.h_int - ham.h_int @ s), 2
    )
    rep = verify_sw_identities(spec)
    assert rep.r1 <= 1.0e-12 and abs(rep.r1 - r1) <= 1.0e-12
    assert rep.r2 == pytest.approx(r2, rel=1.0e-10)


def test_sw_cancellation_holds_above_one_photon():
    # [S, h0] = -h_int is an operator identity, so it holds on every sector
    # of a three-photon basis too
    spec = reference_spec(3)
    basis = build_basis(4, cutoff=3, excitation_cap=3)
    ham = build_full(spec, basis)
    s = build_sw_generator(spec, basis)
    assert np.linalg.norm(s @ ham.h0 - ham.h0 @ s + ham.h_int, 2) <= 1.0e-11


def test_sw_verify_builds_no_fock_basis(monkeypatch):
    import resonatorsim.hamiltonians as hamiltonians

    def refuse(*args, **kwargs):
        raise AssertionError("verify_sw_identities built a Fock-space operator")

    monkeypatch.setattr(hamiltonians, "annihilation", refuse)
    monkeypatch.setattr(hamiltonians, "total_number", refuse)
    assert verify_sw_identities(reference_spec(3)).r3 <= 1.0e-12


@pytest.mark.parametrize("detuned", [False, True])
def test_sw_exponential_matches_expm(detuned, basis4):
    # verify_sw_identities exponentiates S with dynamics._expm (Pade-13
    # scaling and squaring); scipy's expm is the reference.  The detuned
    # network is one where an eigh-based V diag(e^{i mu}) V^dag drifted the
    # spectrum by 1.02e-10, past the 1e-10 bound that sw-verify enforces.
    spec = _detuned_spec() if detuned else reference_spec(3)
    s = build_sw_generator(spec, basis4)
    expected = scipy.linalg.expm(s)
    got = _expm(s)
    assert np.linalg.norm(got - expected, 2) <= 1.0e-12 * np.linalg.norm(expected, 2)
    assert verify_sw_identities(spec).eigenvalue_drift <= 1.0e-10
