"""Closed-form single-photon dynamics of the homogeneous hopping network.

With one photon shared by n resonators that all hop into each other at a
common rate chi, the amplitudes depend on time only through the phase
chi*t.  Starting from the photon in resonator 1, the amplitude stays
symmetric across resonators 2..n, so the whole trajectory is two complex
numbers: the source amplitude and the common target amplitude.  The
equal-population instants, where the state is of W form up to local
phases, are closed-form too: cos(n chi t) = 1 - n/2.

With one detuning Delta shared by all resonators but arbitrary couplings g,
the bus-eliminated single-photon Hamiltonian is a multiple of the identity
plus the rank-one term -g g^T/Delta.  Up to a global phase its propagator
is 1 + (e^{i theta} - 1) g g^T/G^2, with G^2 = |g|^2 and theta = G^2 t/Delta.
At theta = pi it turns the photon in resonator 1 into any W-type state in
one step; design_w_couplings inverts that map.
"""

from __future__ import annotations

import numpy as np


def amplitudes_homogeneous(n: int, chi_t: float) -> np.ndarray:
    """Amplitudes (C_1, ..., C_n) at phase chi_t, photon initially in mode 1.

    C_1 = ((n-1) e^{i chi t} + e^{-i(n-1) chi t}) / n
    C_m = (e^{-i(n-1) chi t} - e^{i chi t}) / n        for m >= 2
    """
    return amplitude_grid(n, np.asarray(float(chi_t)))


def amplitude_grid(n: int, chi_t) -> np.ndarray:
    """Vectorized amplitudes: chi_t of shape (...) -> array of shape (..., n)."""
    if n < 2:
        raise ValueError(f"need at least 2 resonators, got n={n}")
    x = np.asarray(chi_t, dtype=float)
    fast = np.exp(1j * x)
    slow = np.exp(-1j * (n - 1) * x)
    c = np.empty(x.shape + (n,), dtype=complex)
    c[..., 0] = ((n - 1) * fast + slow) / n
    c[..., 1:] = ((slow - fast) / n)[..., None]
    return c


def populations(amplitudes: np.ndarray) -> np.ndarray:
    """Occupation probabilities |C_j|^2 along the last axis."""
    return np.abs(np.asarray(amplitudes)) ** 2


def find_w_crossings(n: int, chi_t_max: float) -> np.ndarray:
    """All phases in (0, chi_t_max] where every resonator is equally populated.

    The population gap is (n^2 - 2n + 2n cos(n chi t)) / n^2, so the roots
    are the exact phases chi t = (+-arccos(1 - n/2) + 2 pi k) / n: the 2 pi/9
    family for n = 3, tangent (double) roots at pi/4 + k pi/2 for n = 4, and
    none for n >= 5, where the gap stays at or above (n - 4)/n.
    """
    if n < 2:
        raise ValueError(f"need at least 2 resonators, got n={n}")
    if not np.isfinite(chi_t_max):
        raise ValueError(f"chi_t_max must be finite, got {chi_t_max}")
    if chi_t_max <= 0:
        raise ValueError(f"chi_t_max must be positive, got {chi_t_max}")
    if n >= 5:
        return np.array([])
    a = np.arccos(1.0 - n / 2.0)
    turns = 2.0 * np.pi * np.arange(int(n * chi_t_max / (2.0 * np.pi)) + 1)
    # -a is taken as 2 pi - a, so that for n = 4 (a = pi) both branches
    # give bitwise-equal phases, which sit side by side once sorted; the
    # first of each run is kept (np.unique would import numpy.ma)
    x = np.sort(np.concatenate([turns + a, turns + (2.0 * np.pi - a)]))
    x = x[np.concatenate(([True], x[1:] != x[:-1]))] / n
    # a root that equals chi_t_max up to rounding lies inside the window
    return x[(x > 0.0) & (x <= chi_t_max + 4.0 * np.spacing(chi_t_max))]


def design_w_couplings(
    target_populations, g_norm_mhz: float, detuning_mhz: float
) -> tuple[np.ndarray, float]:
    """Couplings (MHz) and operation time (us) that carry the photon from
    resonator 1 to the given populations (p_1, ..., p_n) in one step.

    All resonators share the detuning Delta; G is the norm of the coupling
    vector.  With r = (1 - sqrt(p_1))/2, g_1 = sqrt(r) G and g_m is
    proportional to sqrt(p_m) for m >= 2 with sum_m g_m^2 = (1 - r) G^2.
    At t* = |Delta|/(2 G^2) (theta = pi in angular units) the bus-eliminated
    amplitudes are (+sqrt(p_1), -sqrt(p_2), ..., -sqrt(p_n)) up to a global
    phase.  Equal populations give g_1/g_m = sqrt(n) - 1.
    """
    p = np.asarray(target_populations, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError(f"need populations of at least 2 resonators, got {target_populations}")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ValueError(f"target populations must be finite and nonnegative, got {p}")
    if abs(float(np.sum(p)) - 1.0) > 1.0e-9:
        raise ValueError(f"target populations must sum to 1, got sum {float(np.sum(p))!r}")
    if p[0] == 1.0:
        raise ValueError("p_1 = 1 is the initial state; there is nothing to design")
    if not (np.isfinite(g_norm_mhz) and g_norm_mhz > 0):
        raise ValueError(f"coupling norm must be finite and positive, got {g_norm_mhz}")
    if not (np.isfinite(detuning_mhz) and detuning_mhz != 0):
        raise ValueError(f"detuning must be finite and nonzero, got {detuning_mhz}")
    r = 0.5 * (1.0 - np.sqrt(p[0]))
    g = np.empty_like(p)
    g[0] = np.sqrt(r) * g_norm_mhz
    g[1:] = np.sqrt(p[1:] * (1.0 - r) / np.sum(p[1:])) * g_norm_mhz
    return g, abs(detuning_mhz) / (2.0 * g_norm_mhz**2)
