"""Closed-form amplitudes, populations, and equal-population times."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonatorsim import (
    TimeGrid,
    amplitude_grid,
    amplitudes_homogeneous,
    build_basis,
    build_full,
    derive_dispersive,
    design_w_couplings,
    evolve_unitary,
    find_w_crossings,
    integrate_amplitudes,
    mhz_to_angular,
    populations,
    reference_spec,
    shift_frame,
    single_photon_index,
    single_photon_populations,
)


def _population_gap(n, chi_t):
    # |C_1|^2 - |C_2|^2, whose zeros find_w_crossings gives in closed form
    p = populations(amplitude_grid(n, chi_t))
    return p[..., 0] - p[..., 1]


def test_initial_condition():
    c = amplitudes_homogeneous(3, 0.0)
    np.testing.assert_allclose(c, [1.0, 0.0, 0.0], atol=1.0e-15)


def test_amplitudes_match_trig_form():
    # first amplitude ((n-1)cos x + cos(n-1)x)/n + i((n-1)sin x - sin(n-1)x)/n,
    # the others (-cos x + cos(n-1)x)/n - i(sin x + sin(n-1)x)/n
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 6):
        x = rng.uniform(0.0, 8.0, 25)
        c = amplitude_grid(n, x)
        c1 = ((n - 1) * np.cos(x) + np.cos((n - 1) * x)) / n + 1j * (
            (n - 1) * np.sin(x) - np.sin((n - 1) * x)
        ) / n
        cm = (-np.cos(x) + np.cos((n - 1) * x)) / n - 1j * (
            np.sin(x) + np.sin((n - 1) * x)
        ) / n
        np.testing.assert_allclose(c[:, 0], c1, atol=1.0e-12)
        for j in range(1, n):
            np.testing.assert_allclose(c[:, j], cm, atol=1.0e-12)


@given(st.integers(2, 9), st.floats(0.0, 20.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_normalization_property(n, chi_t):
    c = amplitudes_homogeneous(n, chi_t)
    assert abs(np.sum(np.abs(c) ** 2) - 1.0) < 1.0e-12


def test_amplitude_sum_is_unimodular():
    # sum_j C_j = exp(-i(n-1) chi t): collective phase only, no leakage
    x = np.linspace(0.0, 6.0, 101)
    for n in (3, 4, 5):
        c = amplitude_grid(n, x)
        total = c.sum(axis=1)
        np.testing.assert_allclose(np.abs(total), 1.0, atol=1.0e-12)
        np.testing.assert_allclose(total, np.exp(-1j * (n - 1) * x), atol=1.0e-12)


def test_population_gap_formula():
    x = np.linspace(0.0, 5.0, 200)
    for n in (3, 4, 5):
        gap = _population_gap(n, x)
        expected = ((n - 2) + 2 * np.cos(n * x)) / n
        np.testing.assert_allclose(gap, expected, atol=1.0e-12)


def test_crossings_n3_exact():
    exact = {
        # cos(2x) = 0 -> chi t in {1,3,5} pi/4
        2: np.array([1.0, 3.0, 5.0]) * np.pi / 4.0,
        # cos(3x) = -1/2 -> chi t in {2,4,8,10} pi/9
        3: np.array([2.0, 4.0, 8.0, 10.0]) * np.pi / 9.0,
    }
    for n, expected in exact.items():
        roots = find_w_crossings(n, 1.5 * np.pi)
        np.testing.assert_allclose(roots, expected, rtol=0, atol=1.0e-12)


def test_crossings_n4_tangencies():
    # cos(4x) = -1: gap touches zero without sign change at odd multiples of pi/4
    roots = find_w_crossings(4, 1.5 * np.pi)
    expected = np.array([1.0, 3.0, 5.0]) * np.pi / 4.0
    np.testing.assert_allclose(roots, expected, rtol=0, atol=1.0e-12)
    # a longer window: each double root is reported once
    roots = find_w_crossings(4, 100.0)
    expected = (2.0 * np.arange(64) + 1.0) * np.pi / 4.0
    np.testing.assert_allclose(roots, expected, rtol=0, atol=1.0e-12)


@pytest.mark.parametrize("chi_t_max", [np.nan, np.inf, -np.inf])
def test_crossings_reject_non_finite_window(chi_t_max):
    # n = 3 has infinitely many roots; an empty answer would be wrong
    with pytest.raises(ValueError, match="finite"):
        find_w_crossings(3, chi_t_max)


def test_no_crossings_for_n5_homogeneous():
    assert len(find_w_crossings(5, 2.0 * np.pi)) == 0
    # the gap stays clear of zero: requires cos(5x) = -3/2
    x = np.linspace(0.0, 2.0 * np.pi, 4001)
    assert np.min(np.abs(_population_gap(5, x))) > 0.02


def test_populations_at_first_crossing():
    roots = find_w_crossings(3, np.pi)
    p = populations(amplitudes_homogeneous(3, roots[0]))
    np.testing.assert_allclose(p, 1.0 / 3.0, atol=1.0e-8)


def test_crossings_sorted_within_window():
    roots = find_w_crossings(3, 0.5 * np.pi)
    assert np.all(np.diff(roots) > 0)
    assert np.all((roots > 0) & (roots <= 0.5 * np.pi + 1.0e-9))
    # only the first two roots fall below pi/2
    assert len(roots) == 2
    # a window that ends on a root includes it
    assert len(find_w_crossings(3, 2.0 * np.pi / 9.0)) == 1
    assert len(find_w_crossings(3, 4.0 * np.pi / 9.0)) == 2


@pytest.mark.parametrize("target", [(0.5, 0.3, 0.2), (0.1, 0.6, 0.2, 0.1)])
def test_designed_couplings_reach_target(target):
    # G = 100 MHz at the reference detuning of 1 GHz
    g, t_star = design_w_couplings(target, 100.0, 1000.0)
    assert np.sum(g**2) == pytest.approx(100.0**2, rel=1.0e-12)
    assert t_star == pytest.approx(0.05, rel=1.0e-12)
    n = len(target)
    spec = reference_spec(n, couplings_mhz=g)
    grid = TimeGrid(0.0, t_star, 2)

    # bus-eliminated model: exactly (+sqrt p_1, -sqrt p_m) up to a global
    # phase, once the interaction-picture phases exp(i delta_j1 t) are undone
    model = derive_dispersive(spec)
    c0 = np.zeros(n, dtype=complex)
    c0[0] = 1.0
    c = integrate_amplitudes(model, c0, grid).states[-1]
    c = c * np.exp(-1j * model.delta_ij[:, 0] * t_star)
    c = c * abs(c[0]) / c[0]
    expected = -np.sqrt(target)
    expected[0] *= -1.0
    np.testing.assert_allclose(c, expected, rtol=0, atol=1.0e-12)

    # ab initio: off by terms of second order in g/Delta
    basis = build_basis(n + 1, cutoff=1, excitation_cap=1)
    h = shift_frame(build_full(spec, basis).h_full, basis, spec.omegas[0])
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[single_photon_index(basis, 1)] = 1.0
    final = evolve_unitary(h, psi0, grid).states[-1]
    p = single_photon_populations(final, basis, n)
    np.testing.assert_allclose(p, target, rtol=0, atol=5.0e-4)


def test_designed_equal_populations():
    # n = 4: equal couplings, and chi t* = theta/n = pi/4 is the first tangent root
    g, t_star = design_w_couplings(np.full(4, 0.25), 100.0, 1000.0)
    np.testing.assert_allclose(g, g[1], rtol=1.0e-12)
    chi_t = mhz_to_angular(g[1]) ** 2 / mhz_to_angular(1000.0) * t_star
    assert chi_t == pytest.approx(np.pi / 4.0, rel=1.0e-12)
    assert chi_t == pytest.approx(find_w_crossings(4, np.pi)[0], rel=1.0e-12)
    # n = 5: g1/g = sqrt(5) - 1, the coupling optimize_g1 calibrates
    g, _ = design_w_couplings(np.full(5, 0.2), 100.0, 1000.0)
    np.testing.assert_allclose(g[1:], g[1], rtol=1.0e-12)
    assert g[0] / g[1] == pytest.approx(np.sqrt(5.0) - 1.0, rel=1.0e-12)


@pytest.mark.parametrize(
    "target",
    [(-0.1, 0.6, 0.5), (np.nan, 0.5, 0.5), (np.inf, 0.5, 0.5), (0.5, 0.3, 0.3), (0.5,)],
)
def test_design_rejects_bad_targets(target):
    with pytest.raises(ValueError):
        design_w_couplings(target, 100.0, 1000.0)


@pytest.mark.parametrize("g_norm, detuning", [(0.0, 1000.0), (np.nan, 1000.0),
                                              (100.0, 0.0), (100.0, np.inf)])
def test_design_rejects_bad_scales(g_norm, detuning):
    with pytest.raises(ValueError):
        design_w_couplings((0.5, 0.5), g_norm, detuning)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: amplitude_grid(1, 0.0), "need at least 2 resonators, got n=1"),
        (lambda: find_w_crossings(1, 1.0), "need at least 2 resonators, got n=1"),
        (lambda: find_w_crossings(3, 0.0), "chi_t_max must be positive, got 0.0"),
        (lambda: find_w_crossings(3, -1.0), "chi_t_max must be positive, got -1.0"),
        (lambda: design_w_couplings((1.0, 0.0, 0.0), 100.0, 1000.0),
         "p_1 = 1 is the initial state; there is nothing to design"),
    ],
    ids=["grid_n", "crossings_n", "crossings_zero_window", "crossings_negative_window",
         "design_initial_state"],
)
def test_refusals(call, message):
    # warnings are errors in this suite, so each refusal comes first
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
