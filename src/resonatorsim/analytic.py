"""Closed-form single-photon dynamics of the homogeneous hopping network.

With one photon shared by n resonators that all hop into each other at a
common rate chi, the amplitudes depend on time only through the phase
chi*t.  Starting from the photon in resonator 1, the amplitude stays
symmetric across resonators 2..n, so the whole trajectory is two complex
numbers: the source amplitude and the common target amplitude.  The
equal-population instants, where the state is of W form up to local
phases, are closed-form too: cos(n chi t) = 1 - n/2.
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


def find_w_crossings(n: int, chi_t_max: float, tol: float = 1.0e-6) -> np.ndarray:
    """All phases in (0, chi_t_max] where every resonator is equally populated.

    The population gap is (n^2 - 2n + 2n cos(n chi t)) / n^2, so the roots
    are the exact phases chi t = (+-arccos(1 - n/2) + 2 pi k) / n: the 2 pi/9
    family for n = 3, tangent (double) roots at pi/4 + k pi/2 for n = 4, and
    none for n >= 5, where the gap stays at or above (n - 4)/n.  tol must be
    positive but does not affect the result.
    """
    if n < 2:
        raise ValueError(f"need at least 2 resonators, got n={n}")
    if not np.isfinite(chi_t_max):
        raise ValueError(f"chi_t_max must be finite, got {chi_t_max}")
    if chi_t_max <= 0:
        raise ValueError(f"chi_t_max must be positive, got {chi_t_max}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if n >= 5:
        return np.array([])
    a = np.arccos(1.0 - n / 2.0)
    turns = 2.0 * np.pi * np.arange(int(n * chi_t_max / (2.0 * np.pi)) + 1)
    # -a is taken as 2 pi - a, so that for n = 4 (a = pi) both branches
    # give bitwise-equal phases and np.unique merges them
    x = np.unique(np.concatenate([turns + a, turns + (2.0 * np.pi - a)])) / n
    # a root that equals chi_t_max up to rounding lies inside the window
    return x[(x > 0.0) & (x <= chi_t_max + 4.0 * np.spacing(chi_t_max))]
