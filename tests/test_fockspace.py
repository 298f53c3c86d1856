"""Basis construction and ladder-operator algebra."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonatorsim import (
    annihilation,
    build_basis,
    commutator,
    creation,
    build_full,
    number,
    reference_spec,
    single_photon_index,
    total_number,
    vacuum_index,
)


def test_basis_dimensions_single_excitation():
    basis = build_basis(4, cutoff=1, excitation_cap=1)
    # vacuum + one photon in any of the four modes
    assert basis.dim == 5
    assert basis.states[vacuum_index(basis)] == (0, 0, 0, 0)
    # forty resonators and the bus: enumerating 2^41 tuples would never end
    assert build_basis(41, cutoff=1, excitation_cap=1).dim == 42


def test_basis_dimension_cap_three_four_modes():
    basis = build_basis(4, cutoff=1, excitation_cap=3)
    # occupations in {0,1}^4 with total <= 3
    assert basis.dim == 15


def test_single_photon_index_round_trip():
    basis = build_basis(3, cutoff=1, excitation_cap=1)
    for mode in range(3):
        idx = single_photon_index(basis, mode)
        state = basis.states[idx]
        assert state[mode] == 1 and sum(state) == 1


def test_index_of_and_contains():
    basis = build_basis(2, cutoff=2, excitation_cap=4)
    for i, state in enumerate(basis.states):
        assert basis.index_of(state) == i
        assert state in basis
    assert (9, 9) not in basis


def test_annihilation_matrix_elements():
    basis = build_basis(2, cutoff=3, excitation_cap=3)
    a = annihilation(basis, 0)
    # a |k, 0> = sqrt(k) |k-1, 0>
    for k in range(1, 4):
        src = basis.index_of((k, 0))
        dst = basis.index_of((k - 1, 0))
        assert a[dst, src] == pytest.approx(np.sqrt(k))


def test_annihilation_matches_index_of_reference():
    # the matrices look the lowered state up in the basis' index directly
    basis = build_basis(4, cutoff=3, excitation_cap=3)
    for mode in range(basis.modes):
        expected = np.zeros((basis.dim, basis.dim), dtype=complex)
        for col, occ in enumerate(basis.states):
            if occ[mode]:
                lowered = list(occ)
                lowered[mode] -= 1
                expected[basis.index_of(lowered), col] = np.sqrt(occ[mode])
        np.testing.assert_array_equal(annihilation(basis, mode), expected)


def test_creation_is_adjoint_of_annihilation():
    basis = build_basis(2, cutoff=2, excitation_cap=4)
    for mode in range(2):
        a = annihilation(basis, mode)
        adag = creation(basis, mode)
        np.testing.assert_allclose(adag, a.conj().T)


def test_commutation_relation_away_from_cutoff():
    # [a, a^dag] = 1 on every state that is not at the truncation edge
    basis = build_basis(2, cutoff=4, excitation_cap=4)
    a = annihilation(basis, 0)
    comm = commutator(a, a.conj().T)
    for k in range(4):
        idx = basis.index_of((k, 0))
        assert comm[idx, idx] == pytest.approx(1.0)


def test_number_and_total_number():
    basis = build_basis(3, cutoff=1, excitation_cap=2)
    n_total = total_number(basis)
    acc = np.zeros_like(n_total)
    for mode in range(3):
        acc = acc + number(basis, mode)
    np.testing.assert_allclose(n_total, acc)
    diag = np.diag(n_total).real
    expected = [sum(s) for s in basis.states]
    np.testing.assert_allclose(diag, expected)


def test_operators_conserve_total_excitation_blocks():
    spec = reference_spec(3)
    basis = build_basis(4, cutoff=1, excitation_cap=2)
    h = build_full(spec, basis).h_full
    totals = np.array([sum(s) for s in basis.states])
    mask = totals[:, None] != totals[None, :]
    assert np.max(np.abs(h[mask])) == 0.0


@given(st.integers(2, 5), st.integers(1, 3), st.one_of(st.none(), st.integers(1, 4)))
@settings(max_examples=30, deadline=None)
def test_basis_states_unique_and_capped(modes, cutoff, cap):
    basis = build_basis(modes, cutoff=cutoff, excitation_cap=cap)
    assert len(set(basis.states)) == basis.dim
    assert all(cap is None or sum(s) <= cap for s in basis.states)
    assert all(max(s) <= cutoff for s in basis.states)
    # same states, same order as filtering the full product
    expected = [
        occ for occ in itertools.product(range(cutoff + 1), repeat=modes)
        if cap is None or sum(occ) <= cap
    ]
    assert list(basis.states) == expected
