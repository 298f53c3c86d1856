"""Propagators: unitary route, master equation, and reduced amplitude ODE."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from resonatorsim import (
    PropagationError,
    TimeGrid,
    WernerParams,
    annihilation,
    build_basis,
    build_full,
    creation,
    derive_dispersive,
    evolve_lindblad,
    evolve_lindblad_batch,
    evolve_unitary,
    fidelity_dm,
    ideal_target,
    integrate_amplitudes,
    number,
    reference_spec,
    shift_frame,
    single_photon_index,
    single_photon_populations,
    single_photon_populations_dm,
    werner_initial,
)
from resonatorsim import dynamics
from resonatorsim.dynamics import MAX_LINDBLAD_DIM, _expm


def _random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (m + m.conj().T)


def _detuned_spec():
    # three-resonator reference network with the second resonator detuned
    spec = reference_spec(3)
    return dataclasses.replace(
        spec,
        resonators=(
            spec.resonators[0],
            dataclasses.replace(spec.resonators[1], freq_ghz=5.7501),
            spec.resonators[2],
        ),
    )


def _random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.5, 10)
    # a non-finite bound would give times [nan, inf, inf]
    for bounds in ((0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(*bounds, 3)
    grid = TimeGrid(0.0, 2.0, 5)
    np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_unitary_evolution_matches_expm():
    rng = np.random.default_rng(11)
    h = _random_hermitian(rng, 6)
    psi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi0 /= np.linalg.norm(psi0)
    grid = TimeGrid(0.0, 2.0, 9)
    traj = evolve_unitary(h, psi0, grid)
    for t, psi in zip(traj.times, traj.states):
        expected = scipy.linalg.expm(-1j * t * h) @ psi0
        np.testing.assert_allclose(psi, expected, atol=1.0e-10)
    norms = np.linalg.norm(traj.states, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1.0e-12)


@pytest.mark.parametrize("frame", ["shifted", "lab"])
@pytest.mark.parametrize("t_start", [0.0, 0.37])
@pytest.mark.parametrize("points", [2, 3, 7, 600, 8001])
def test_unitary_factorised_phases_match_direct_table(frame, t_start, points):
    # grid points k = q m + r take their phases from two short tables; the
    # reference builds all T x d phases from the grid times.  T - 1 = 2, 6,
    # 599 and 8000 are not perfect squares, and T = 3, 7, 600, 8001 leave
    # Q m > T.  The tolerance is the rounding of the phase lam t itself.
    spec = reference_spec(4, gm_mhz=3.0, couplings_mhz=[50.0, 47.0, 52.0, 55.0])
    basis = build_basis(5, cutoff=1, excitation_cap=1)
    h = build_full(spec, basis).h_full
    if frame == "shifted":
        h = shift_frame(h, basis, spec.omegas[0])
    rng = np.random.default_rng(points)
    psi0 = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi0 /= np.linalg.norm(psi0)
    grid = TimeGrid(t_start, t_start + 1.3, points)

    evals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    phases = np.exp(-1j * np.outer(grid.times - t_start, evals))
    expected = (phases * (vecs.conj().T @ psi0)) @ vecs.T
    states = evolve_unitary(h, psi0, grid).states
    assert states.shape == (points, basis.dim)
    atol = 1.0e-15 * (1.0 + np.max(np.abs(evals)) * grid.span)
    np.testing.assert_allclose(states, expected, rtol=0, atol=atol)


@pytest.mark.parametrize("points", [2, 3, 600, 8001])
def test_unitary_phase_product_matches_inline_reference(points):
    # the sqrt(T) product lives in dynamics._phase_product, shared by
    # evolve_unitary and optimize_g1's landscape; the reference writes it out
    # (eigh, the coarse and fine phase tables, one matmul), and the full
    # T x d table of exp(-i lam t) stays the tolerance reference above
    rng = np.random.default_rng(points)
    h = _random_hermitian(rng, 6)
    psi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    grid = TimeGrid(0.25, 1.55, points)

    evals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    weights = vecs * (vecs.conj().T @ psi0)
    m = math.isqrt(points - 1) + 1
    dt = grid.span / (points - 1)
    fine = np.exp(-1j * np.outer(evals, np.arange(m) * dt))
    coarse = np.exp(-1j * np.outer(np.arange((points - 1) // m + 1) * (m * dt), evals))
    table = (weights[:, None, :] * coarse) @ fine
    expected = table.reshape(6, -1)[:, :points].T
    np.testing.assert_array_equal(evolve_unitary(h, psi0, grid).states, expected)

    # a subset of rows, written into a reused buffer, gives the same rows
    out = np.full((3, *dynamics._sqrt_split(points)), np.nan, dtype=complex)
    for _ in range(2):
        dynamics._phase_product(evals, weights[2:5], dt, out)
        np.testing.assert_array_equal(out, table[2:5])


def test_lindblad_pure_decay_single_mode():
    # photon in one decaying mode: excited population e^{-kappa t}
    basis = build_basis(2, cutoff=1, excitation_cap=1)
    h = np.zeros((3, 3))
    kappa = 0.8
    rho0 = np.zeros((3, 3), dtype=complex)
    one = single_photon_index(basis, 0)
    rho0[one, one] = 1.0
    grid = TimeGrid(0.0, 3.0, 7)
    traj = evolve_lindblad(h, [(kappa, annihilation(basis, 0))], rho0, grid)
    pop = traj.states[:, one, one].real
    np.testing.assert_allclose(pop, np.exp(-kappa * grid.times), rtol=1.0e-6)
    traces = np.einsum("tii->t", traj.states).real
    np.testing.assert_allclose(traces, 1.0, atol=1.0e-8)


def test_uniform_decay_factorizes():
    # with every mode damped at the same rate and a photon-number-conserving
    # Hamiltonian, F(t) = exp(-kappa t) * F_unitary(t) exactly
    spec = reference_spec(3)
    model = derive_dispersive(spec)
    chi = model.chi_homogeneous
    basis = build_basis(4, cutoff=1, excitation_cap=1)
    h = shift_frame(build_full(spec, basis).h_full, basis, spec.omegas[0])
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[single_photon_index(basis, 1)] = 1.0
    kappa = 0.5
    t_end = 0.25 * np.pi / chi
    grid = TimeGrid(0.0, t_end, 5)

    target = ideal_target(3, 0.22 * np.pi, basis)
    uni = evolve_unitary(h, psi0, grid)
    f_unitary = np.abs(uni.states @ target.conj()) ** 2

    ops = [(kappa, annihilation(basis, m)) for m in range(4)]
    rho0 = np.outer(psi0, psi0.conj())
    damped = evolve_lindblad(h, ops, rho0, grid)
    f_damped = fidelity_dm(damped.states, target)
    np.testing.assert_allclose(
        f_damped, np.exp(-kappa * grid.times) * f_unitary, rtol=0.0, atol=1.0e-12
    )


def test_propagators_start_at_grid_t_start():
    # every route takes its initial state at grid.t_start, so a grid that
    # does not start at zero must give the same answer on all of them
    rng = np.random.default_rng(7)
    d = 4
    h = _random_hermitian(rng, d)
    psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi0 /= np.linalg.norm(psi0)
    grid = TimeGrid(1.0, 2.0, 3)
    uni = evolve_unitary(h, psi0, grid).states
    closed = evolve_lindblad(h, [], np.outer(psi0, psi0.conj()), grid).states
    np.testing.assert_allclose(
        closed, np.einsum("ti,tj->tij", uni, uni.conj()), atol=1.0e-12
    )

    # restarting the reduced amplitudes mid-trajectory continues the same run
    model = derive_dispersive(_detuned_spec())
    c0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    full = integrate_amplitudes(model, c0, TimeGrid(0.0, 0.2, 9)).states
    tail = integrate_amplitudes(model, full[4], TimeGrid(0.1, 0.2, 5)).states
    np.testing.assert_allclose(tail, full[4:], atol=1.0e-12)


def test_lindblad_dimension_limit():
    d = MAX_LINDBLAD_DIM + 1
    rho0 = np.eye(d, dtype=complex) / d
    with pytest.raises(ValueError, match=f"limit of {MAX_LINDBLAD_DIM}"):
        evolve_lindblad(np.zeros((d, d)), [], rho0, TimeGrid(0.0, 1.0, 2))


def test_populations_invariant_under_frame_shift():
    spec = reference_spec(3)
    basis = build_basis(4, cutoff=1, excitation_cap=1)
    ham = build_full(spec, basis).h_full
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[single_photon_index(basis, 1)] = 1.0
    grid = TimeGrid(0.0, 0.02, 9)
    p_lab = single_photon_populations(
        evolve_unitary(ham, psi0, grid).states, basis, 3
    )
    shifted = shift_frame(ham, basis, spec.omegas[0])
    p_rot = single_photon_populations(
        evolve_unitary(shifted, psi0, grid).states, basis, 3
    )
    np.testing.assert_allclose(p_lab, p_rot, atol=1.0e-10)


def test_lindblad_batch_matches_single_runs():
    rng = np.random.default_rng(3)
    d = 4
    h = np.stack([_random_hermitian(rng, d) for _ in range(3)])
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rates = np.array([0.0, 0.3, 1.1])
    rho0 = np.stack([_random_density(rng, d) for _ in range(3)])
    grid = TimeGrid(0.0, 1.0, 4)
    batch = evolve_lindblad_batch(h, [(rates, op)], rho0, grid)
    for b in range(3):
        single = evolve_lindblad(h[b], [(float(rates[b]), op)], rho0[b], grid)
        np.testing.assert_allclose(batch.states[:, b], single.states, atol=1.0e-9)


def test_lindblad_batch_one_expm_per_distinct_generator(monkeypatch):
    calls = []

    def counting_expm(a):
        # the generator in the real coordinates of a Hermitian rho
        assert a.dtype == np.float64
        calls.append(a.shape)
        return _expm(a)

    monkeypatch.setattr(dynamics, "_expm", counting_expm)
    rng = np.random.default_rng(17)
    d = 4
    h = _random_hermitian(rng, d)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    dephase = np.diag(np.arange(d, dtype=float))
    grid = TimeGrid(0.0, 1.5, 5)

    # two distinct rate values, interleaved: each entry must come back in
    # its own row, not in the row of another member of its group
    rates = np.array([0.2, 0.9, 0.2, 0.9])
    rho0 = np.stack([_random_density(rng, d) for _ in range(4)])
    batch = evolve_lindblad_batch(h, [(rates, op), (0.4, dephase)], rho0, grid)
    assert len(calls) == 2
    for b in range(4):
        single = evolve_lindblad(h, [(float(rates[b]), op), (0.4, dephase)], rho0[b], grid)
        np.testing.assert_allclose(batch.states[:, b], single.states, rtol=0, atol=1.0e-12)

    # per-entry Hamiltonians group by equality as well
    calls.clear()
    h_other = _random_hermitian(rng, d)
    evolve_lindblad_batch(np.stack([h, h_other, h]), [(0.3, op)], rho0[:3], grid)
    assert len(calls) == 2

    calls.clear()
    rho8 = np.stack([_random_density(rng, d) for _ in range(8)])
    evolve_lindblad_batch(h, [(0.5, op)], rho8, grid)
    assert len(calls) == 1


def _kron_generator(h, collapse):
    # the whole d^2 x d^2 generator, assembled term by term from
    # vec(A X B) = kron(A, B^T) vec(X) for row-major vec; rates are scalars
    eye = np.eye(h.shape[0])
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for kappa, op in collapse:
        n_op = op.conj().T @ op
        gen = gen + kappa * (
            np.kron(op, op.conj()) - 0.5 * np.kron(n_op, eye) - 0.5 * np.kron(eye, n_op.T)
        )
    return gen


def _full_generator_reference(h, collapse, rho0, grid):
    # scipy.linalg.expm of each entry's whole generator, computed once per
    # distinct (h, rates): equal inputs give the same step
    nbatch, d = rho0.shape[:2]
    h = np.broadcast_to(h, (nbatch, d, d))
    dt = grid.span / (grid.points - 1)
    out = np.empty((grid.points, nbatch, d, d), dtype=complex)
    steps = {}
    for b in range(nbatch):
        rates = [(np.broadcast_to(rate, (nbatch,))[b], op) for rate, op in collapse]
        key = h[b].tobytes() + np.array([rate for rate, _ in rates]).tobytes()
        if key not in steps:
            steps[key] = scipy.linalg.expm(_kron_generator(h[b], rates) * dt)
        step = steps[key]
        vec = rho0[b].reshape(-1).astype(complex)
        for k in range(grid.points):
            out[k, b] = vec.reshape(d, d)
            vec = step @ vec
    return out


def _recorded_run(monkeypatch, h, collapse, rho0, grid):
    # the propagator's trajectory and the matrices it exponentiated
    matrices = []

    def recording_expm(a):
        matrices.append(a)
        return _expm(a)

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_expm", recording_expm)
        states = evolve_lindblad_batch(h, collapse, rho0, grid).states
    return states, matrices


def _sector_mask(basis, allowed):
    # entries (i, j) of rho whose photon numbers (N_i, N_j) are in allowed
    photons = [sum(occ) for occ in basis.states]
    return np.array([[(a, b) in allowed for b in photons] for a in photons])


@pytest.mark.parametrize("points", [2, 3, 7])
def test_lindblad_werner_batch_exponentiates_occupied_sectors(monkeypatch, points):
    # Werner states occupy the diagonal photon-number blocks of sectors 0..3
    # (1 + 16 + 36 + 16 = 69 entries of 225); h conserves the photon number
    # and decay only lowers it, so nothing else is ever reached
    spec = reference_spec(3)
    basis = build_basis(4, cutoff=1, excitation_cap=3)
    h = shift_frame(build_full(spec, basis).h_full, basis, spec.omegas[0])
    rho0 = np.stack([
        werner_initial(WernerParams(p, np.pi * th), basis)
        for th in (0.0, 0.25) for p in (0.0, 0.6, 1.0)
    ])
    ops = [(0.7, annihilation(basis, 0))] + [(0.2, annihilation(basis, m)) for m in (1, 2, 3)]
    t_star = (2.0 * np.pi / 9.0) / derive_dispersive(spec).chi_homogeneous
    grid = TimeGrid(0.0, t_star, points)

    states, matrices = _recorded_run(monkeypatch, h, ops, rho0, grid)
    assert [a.shape for a in matrices] == [(69, 69)]
    live = _sector_mask(basis, {(k, k) for k in range(4)})
    assert live.sum() == 69
    assert np.all(states[:, :, ~live] == 0)
    expected = _full_generator_reference(h, ops, rho0, grid)
    np.testing.assert_allclose(states, expected, rtol=0, atol=1.0e-12)


@pytest.mark.parametrize("points", [2, 3, 7])
def test_lindblad_single_photon_batch_exponentiates_17_entries(monkeypatch, points):
    # one photon in R1 of the n = 3 network: the one-photon block (4 x 4)
    # and the vacuum population that decay feeds, one generator per rate
    spec = reference_spec(3)
    basis = build_basis(4, cutoff=1, excitation_cap=1)
    h = shift_frame(build_full(spec, basis).h_full, basis, spec.omegas[0])
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[single_photon_index(basis, 1)] = 1.0
    rho0 = np.stack([np.outer(psi0, psi0.conj())] * 3)
    rates = np.array([0.0, 0.25, 0.5])
    ops = [(rates, annihilation(basis, m)) for m in range(4)]
    grid = TimeGrid(0.0, 0.05, points)

    states, matrices = _recorded_run(monkeypatch, h, ops, rho0, grid)
    assert [a.shape for a in matrices] == [(17, 17)] * 3
    live = _sector_mask(basis, {(0, 0), (1, 1)})
    assert np.all(states[:, :, ~live] == 0)
    expected = _full_generator_reference(h, ops, rho0, grid)
    np.testing.assert_allclose(states, expected, rtol=0, atol=1.0e-12)


@pytest.mark.parametrize("points", [2, 3, 7])
def test_lindblad_full_rank_state_exponentiates_everything(monkeypatch, points):
    # a dense h and a full-rank rho0 occupy every entry: the block is the
    # whole generator
    rng = np.random.default_rng(29)
    d = 5
    h = _random_hermitian(rng, d)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho0 = np.stack([_random_density(rng, d) for _ in range(2)])
    grid = TimeGrid(0.0, 0.8, points)

    states, matrices = _recorded_run(monkeypatch, h, [(0.6, op)], rho0, grid)
    assert [a.shape for a in matrices] == [(d * d, d * d)]
    expected = _full_generator_reference(h, [(0.6, op)], rho0, grid)
    np.testing.assert_allclose(states, expected, rtol=0, atol=1.0e-12)


@pytest.mark.parametrize("points", [2, 3, 7])
def test_lindblad_raising_and_dephasing_collapse(monkeypatch, points):
    # a raising jump carries the one-photon block into the two-photon block
    # and a number-operator jump dephases within each; coherences between
    # sectors stay exactly zero (9 + 9 = 18 of 49 entries)
    basis = build_basis(3, cutoff=1, excitation_cap=2)
    a = [annihilation(basis, m) for m in range(3)]
    h = 1.3 * (a[0].conj().T @ a[1] + a[1].conj().T @ a[2])
    h = h + h.conj().T + 0.4 * number(basis, 1) - 0.2 * number(basis, 2)
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[single_photon_index(basis, 0)] = 0.6
    psi0[single_photon_index(basis, 2)] = 0.8j
    rho0 = np.outer(psi0, psi0.conj())[None]
    ops = [(0.5, creation(basis, 1)), (0.9, number(basis, 2))]
    grid = TimeGrid(0.2, 1.4, points)

    states, matrices = _recorded_run(monkeypatch, h, ops, rho0, grid)
    live = _sector_mask(basis, {(1, 1), (2, 2)})
    assert live.sum() == 18
    assert [a.shape for a in matrices] == [(18, 18)]
    assert np.all(states[:, :, ~live] == 0)
    assert states[-1, 0][live & ~_sector_mask(basis, {(1, 1)})].any()
    expected = _full_generator_reference(h, ops, rho0, grid)
    np.testing.assert_allclose(states, expected, rtol=0, atol=1.0e-12)


def test_lindblad_non_hermitian_rho0_gives_the_hermitian_part(monkeypatch):
    # the generator maps rho^dag to L(rho)^dag, so the result is
    # Herm(e^{Lt} rho0) = e^{Lt} Herm(rho0); the two coherences sit below
    # the diagonal alone, and h does not hop, so only the support made
    # symmetric brings their mirrors in
    basis = build_basis(3, cutoff=1, excitation_cap=2)
    a = [annihilation(basis, m) for m in range(3)]
    h = 0.4 * number(basis, 1) - 0.7 * number(basis, 2)
    rho0 = np.zeros((1, basis.dim, basis.dim), dtype=complex)
    one = [single_photon_index(basis, m) for m in range(3)]
    rho0[0, one[0], one[0]] = 0.7
    rho0[0, one[2], one[2]] = 0.3
    assert one[0] > one[1] > one[2]
    rho0[0, one[0], one[1]] = 0.2 - 0.4j
    rho0[0, one[1], one[2]] = 0.5j
    ops = [(0.5, a[0]), (0.9, number(basis, 2))]
    grid = TimeGrid(0.0, 1.1, 4)

    states, matrices = _recorded_run(monkeypatch, h, ops, rho0, grid)
    # diagonal 0 and 2, the two coherences and their mirrors, and the vacuum
    assert [a.shape for a in matrices] == [(7, 7)]
    expected = _full_generator_reference(h, ops, rho0, grid)
    expected = 0.5 * (expected + expected.conj().swapaxes(-1, -2))
    np.testing.assert_allclose(states, expected, rtol=0, atol=1.0e-12)


def test_lindblad_empty_batch_rejected():
    with pytest.raises(ValueError, match="empty"):
        evolve_lindblad_batch(np.zeros((3, 3)), [], np.zeros((0, 3, 3)), TimeGrid(0.0, 1.0, 2))


def test_non_finite_inputs_rejected():
    rng = np.random.default_rng(23)
    d = 3
    h = _random_hermitian(rng, d)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho0 = _random_density(rng, d)
    grid = TimeGrid(0.0, 1.0, 3)
    h_nan = h.copy()
    h_nan[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        evolve_unitary(h_nan, np.eye(d)[0], grid)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            evolve_lindblad(h, [(bad, op)], rho0, grid)
        with pytest.raises(ValueError, match="finite"):
            evolve_lindblad_batch(h, [(np.array([0.1, bad]), op)], np.stack([rho0, rho0]), grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("argument", ["h", "collapse operator", "rho0"])
def test_lindblad_non_finite_input_names_argument(argument, bad):
    # rejected before any propagation, not reported as a drifted trace
    rng = np.random.default_rng(31)
    d = 3
    inputs = {
        "h": _random_hermitian(rng, d),
        "collapse operator": rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
        "rho0": _random_density(rng, d),
    }
    inputs[argument][1, 2] = bad
    with pytest.raises(ValueError, match=f"^{argument} entries must be finite"):
        evolve_lindblad_batch(
            inputs["h"], [(0.2, inputs["collapse operator"])], inputs["rho0"][None],
            TimeGrid(0.0, 1.0, 3),
        )


def _assert_expm_matches_scipy(a):
    expected = scipy.linalg.expm(a)
    atol = 1.0e-13 * max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(_expm(a), expected, rtol=0, atol=atol)


def test_expm_small_and_structured_matrices():
    rng = np.random.default_rng(37)
    _assert_expm_matches_scipy(np.zeros((5, 5), dtype=complex))
    tiny = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    _assert_expm_matches_scipy(1.0e-12 * tiny / np.max(np.sum(np.abs(tiny), axis=0)))
    jordan = np.diag(np.full(8, -0.7 + 2.0j)) + np.diag(np.ones(7), 1)
    _assert_expm_matches_scipy(jordan)
    # a nilpotent shift of 1-norm 360: its exponential is the finite series
    # with entries 360^k / k! up to k = 5
    shift = np.diag(np.full(5, 360.0), 1)
    _assert_expm_matches_scipy(shift)
    series = sum(np.linalg.matrix_power(shift, k) / np.prod(np.arange(1.0, k + 1)) for k in range(6))
    np.testing.assert_allclose(_expm(shift), series, rtol=0, atol=1.0e-13 * np.max(series))


@pytest.mark.parametrize("norm", [1.0e-3, 0.1, 1.0, 5.37, 30.0, 300.0, 5.0e3])
@pytest.mark.parametrize("kind", ["anti-hermitian", "non-normal"])
def test_expm_matches_scipy_across_norms(kind, norm):
    # 1-norms on both sides of theta_13 = 5.37, so from no squaring to ten;
    # the non-normal matrices are a drift -i H - K with K >= 0, whose
    # exponential stays of order one at every norm
    rng = np.random.default_rng(41)
    d = 20
    h = _random_hermitian(rng, d)
    a = -1j * h * (norm / np.max(np.sum(np.abs(h), axis=0)))
    if kind == "non-normal":
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        k = m.conj().T @ m
        a = a - k * (min(norm, 4.0) / np.max(np.sum(np.abs(k), axis=0)))
        a *= norm / np.max(np.sum(np.abs(a), axis=0))
        # [a, a^dag] = 2i [H, K] up to scale: far from zero
        assert np.max(np.abs(a @ a.conj().T - a.conj().T @ a)) > 1.0e-3 * norm * min(norm, 4.0)
    _assert_expm_matches_scipy(a)


def test_expm_of_the_werner_generator(monkeypatch):
    # the 69 x 69 block sweep_werner exponentiates at n = 3, cut from the
    # Kronecker generator over the occupied photon-number sectors
    spec = reference_spec(3)
    basis = build_basis(4, cutoff=1, excitation_cap=3)
    h = shift_frame(build_full(spec, basis).h_full, basis, spec.omegas[0])
    ops = [(0.7, annihilation(basis, 0))] + [(0.2, annihilation(basis, m)) for m in (1, 2, 3)]
    t_star = (2.0 * np.pi / 9.0) / derive_dispersive(spec).chi_homogeneous
    idx = np.flatnonzero(_sector_mask(basis, {(k, k) for k in range(4)}))
    gen = _kron_generator(h, ops)[np.ix_(idx, idx)] * t_star
    _assert_expm_matches_scipy(gen)

    # the real form the propagator exponentiates in its place: coordinates
    # z = (Re rho on the live entries i <= j, Im rho on those with i < j),
    # so rho = p z on the live entries, z = Re(q rho), and its exponential
    # is Re(q e^gen p) with scipy's e^gen
    rho0 = werner_initial(WernerParams(0.5, 0.1), basis)[None]
    _, (real,) = _recorded_run(monkeypatch, h, ops, rho0, TimeGrid(0.0, t_star, 2))
    assert real.dtype == np.float64 and real.shape == (69, 69)
    rows, cols = divmod(idx, basis.dim)
    upper, strict = np.flatnonzero(rows <= cols), np.flatnonzero(rows < cols)
    mirror = np.searchsorted(idx, cols[strict] * basis.dim + rows[strict])
    y = upper.size + np.arange(strict.size)
    p = np.zeros((idx.size, idx.size), dtype=complex)
    p[upper, np.arange(upper.size)] = 1.0
    p[mirror, np.searchsorted(upper, strict)] = 1.0
    p[strict, y], p[mirror, y] = 1.0j, -1.0j
    q = np.zeros((idx.size, idx.size), dtype=complex)
    q[np.arange(upper.size), upper] = 1.0
    q[y, strict] = -1.0j
    expected = (q @ scipy.linalg.expm(gen) @ p).real
    np.testing.assert_allclose(_expm(real), expected, rtol=0, atol=1.0e-13)



@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expm_rejects_non_finite_norm(bad):
    a = np.eye(3, dtype=complex)
    a[0, 2] = bad
    with pytest.raises(ValueError, match="1-norm"):
        _expm(a)


def test_expm_refuses_an_overflowing_result():
    # e^800 is past the float range: the squaring loop overflows quietly and
    # the result is refused, naming the 1-norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the exponential of a matrix of 1-norm 800 overflows$"):
            _expm(np.diag([800.0, 0.0]))
    np.testing.assert_allclose(_expm(np.diag([700.0, 0.0])), np.diag([np.exp(700.0), 1.0]),
                               rtol=1.0e-12)


def test_lindblad_preserves_hermiticity_and_positivity():
    rng = np.random.default_rng(5)
    d = 4
    h = _random_hermitian(rng, d)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho0 = _random_density(rng, d)
    traj = evolve_lindblad(h, [(0.7, op)], rho0, grid=TimeGrid(0.0, 2.0, 6))
    for rho in traj.states:
        np.testing.assert_allclose(rho, rho.conj().T, atol=1.0e-10)
        assert np.min(np.linalg.eigvalsh(rho)) > -1.0e-8


def test_trace_drift_raises():
    # a non-Lindblad "collapse" pair that destroys the trace must be caught
    d = 3
    h = np.zeros((d, d))
    bad = np.eye(d)  # jump = identity at rate 1 with no matching drift term
    rho0 = np.eye(d, dtype=complex) / d

    # build a generator by hand: pass a negative rate so the dissipator adds
    # trace instead of conserving it
    with pytest.raises((PropagationError, ValueError)):
        evolve_lindblad(h, [(-1.0, bad)], rho0, TimeGrid(0.0, 1.0, 3))

    # a non-Hermitian "Hamiltonian" passes every input check but grows the trace
    with pytest.raises(PropagationError, match="trace drifted"):
        evolve_lindblad(1j * np.eye(d), [], rho0, TimeGrid(0.0, 1.0, 3))


def test_reduced_amplitude_ode_matches_closed_form():
    # resonant homogeneous network: the reduced ODE must reproduce the
    # closed-form amplitudes up to the documented phase convention
    from resonatorsim import amplitude_grid

    spec = reference_spec(3)
    model = derive_dispersive(spec)
    chi = model.chi_homogeneous
    c0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    grid = TimeGrid(0.0, 1.0 * np.pi / chi, 40)
    traj = integrate_amplitudes(model, c0, grid)
    expected = amplitude_grid(3, chi * traj.times)
    np.testing.assert_allclose(np.abs(traj.states) ** 2, np.abs(expected) ** 2, atol=1.0e-8)
    np.testing.assert_allclose(traj.states, expected, atol=1.0e-8)


def test_reduced_amplitude_ode_detuned_network():
    # detuned resonators: populations from the reduced ODE with oscillating
    # phases match the full model evolution
    spec = _detuned_spec()
    model = derive_dispersive(spec)
    chi = float(model.chi[0, 2])
    c0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    grid = TimeGrid(0.0, 0.4 * np.pi / chi, 15)
    reduced = integrate_amplitudes(model, c0, grid)

    basis = build_basis(4, cutoff=1, excitation_cap=1)
    h = shift_frame(build_full(spec, basis).h_full, basis, spec.omegas[0])
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[single_photon_index(basis, 1)] = 1.0
    full = evolve_unitary(h, psi0, grid)
    p_full = single_photon_populations(full.states, basis, 3)
    # the drift over this window, ~0.026, comes from the sign of
    # derive_dispersive: it takes omega + g^2/Delta and +chi where the ab
    # initio Hamiltonian gives omega - g^2/Delta and -chi.  The correctly
    # signed reduced model misses by ~0.008, the second-order error proper.
    # atol stays 0.04 until the sign and the benchmark oracle that shares it
    # are corrected together
    np.testing.assert_allclose(np.abs(reduced.states) ** 2, p_full, atol=0.04)


_GRID = TimeGrid(0.0, 1.0, 2)
_RHO = np.eye(2, dtype=complex)[None] / 2.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: evolve_unitary(np.eye(3), np.ones(2), _GRID),
         "state shape (2,) does not match dim 3"),
        (lambda: evolve_lindblad_batch(np.eye(2), [], _RHO[0], _GRID),
         "rho0 must have shape (B, d, d), got (2, 2)"),
        (lambda: evolve_lindblad_batch(np.eye(2), [], np.ones((1, 2, 3)), _GRID),
         "rho0 must have shape (B, d, d), got (1, 2, 3)"),
        (lambda: evolve_lindblad_batch(np.eye(3), [], _RHO, _GRID),
         "h must have shape (2,2) or (1,2,2)"),
        (lambda: evolve_lindblad_batch(np.eye(2), [(0.1, np.eye(3))], _RHO, _GRID),
         "collapse operator shape (3, 3) does not match dim 2"),
        (lambda: evolve_lindblad(np.eye(2), [], _RHO, _GRID),
         "rho0 must be a square matrix, got shape (1, 2, 2)"),
        (lambda: integrate_amplitudes(derive_dispersive(reference_spec(3)), np.ones(2), _GRID),
         "c0 must have shape (3,), got (2,)"),
    ],
    ids=["unitary_psi0", "batch_rho0_2d", "batch_rho0_not_square", "batch_h",
         "batch_collapse", "lindblad_rho0", "amplitudes_c0"],
)
def test_shape_refusals(call, message):
    # warnings are errors in this suite, so each refusal comes first
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
