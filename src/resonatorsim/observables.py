"""Measurement-side quantities: occupation probabilities, overlaps with the
intended W-type target, and noisy (Werner-type) initial states.

Functions accept either state vectors with shape (..., d) or density
matrices with shape (..., d, d); vector and matrix variants are separate
functions so the shapes stay unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import amplitudes_homogeneous
from .fockspace import FockBasis, single_photon_index


def population(states: np.ndarray, basis: FockBasis, occupation) -> np.ndarray:
    """Probability of one occupation state from amplitude vectors (..., d)."""
    idx = basis.index_of(occupation)
    return np.abs(np.asarray(states)[..., idx]) ** 2


def population_dm(rhos: np.ndarray, basis: FockBasis, occupation) -> np.ndarray:
    """Probability of one occupation state from density matrices (..., d, d)."""
    idx = basis.index_of(occupation)
    return np.real(np.asarray(rhos)[..., idx, idx])


def _distant_photon_indices(basis: FockBasis, n: int) -> list[int]:
    # mode 0 is the bus and modes 1..n the distant resonators, as in fockspace
    if basis.modes != n + 1:
        raise ValueError(
            f"basis has {basis.modes} modes; expected {n + 1} (bus + {n} resonators)"
        )
    return [single_photon_index(basis, m) for m in range(1, n + 1)]


def single_photon_populations(states: np.ndarray, basis: FockBasis, n: int) -> np.ndarray:
    """Per-resonator single-photon probabilities from vectors; shape (..., n)."""
    idx = _distant_photon_indices(basis, n)
    return np.abs(np.asarray(states)[..., idx]) ** 2


def single_photon_populations_dm(rhos: np.ndarray, basis: FockBasis, n: int) -> np.ndarray:
    """Per-resonator single-photon probabilities from density matrices."""
    idx = np.array(_distant_photon_indices(basis, n))
    return np.real(np.asarray(rhos)[..., idx, idx])


def fidelity_pure_target(states: np.ndarray, target: np.ndarray) -> np.ndarray:
    """|<target|psi>|^2 for amplitude vectors (..., d)."""
    target = np.asarray(target, dtype=complex)
    overlap = np.einsum("...i,i->...", np.asarray(states, dtype=complex), target.conj())
    return np.abs(overlap) ** 2


def fidelity_dm(rhos: np.ndarray, target: np.ndarray) -> np.ndarray:
    """<target|rho|target> for density matrices (..., d, d)."""
    target = np.asarray(target, dtype=complex)
    val = np.einsum("i,...ij,j->...", target.conj(), np.asarray(rhos), target)
    return np.real(val)


def ideal_target(n: int, chi_t: float, basis: FockBasis) -> np.ndarray:
    """The intended single-photon comparison state at phase chi_t, embedded
    in a basis of the bus (mode 0, in vacuum) and the n resonators.

    The embedded amplitudes are the complex conjugates of the closed-form
    rotating-frame amplitudes: the lab-frame network accumulates hopping
    phases of the opposite sign, and only the conjugate embedding makes the
    overlap insensitive to that frame choice.  Populations are unaffected.
    """
    c = np.conj(amplitudes_homogeneous(n, chi_t))
    idx = _distant_photon_indices(basis, n)
    target = np.zeros(basis.dim, dtype=complex)
    target[idx] = c
    return target


@dataclass(frozen=True)
class WernerParams:
    """Werner-type mixture: weight p on the pure two-resonator state
    cos(theta)|100> + i sin(theta)|010>, weight 1-p on the maximally mixed
    state of the three distant resonators (bus in vacuum)."""

    p: float
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"mixture weight p must be in [0, 1], got {self.p}")
        if not np.isfinite(self.theta):
            raise ValueError(f"overlap angle theta must be finite, got {self.theta}")


def werner_initial(params: WernerParams, basis: FockBasis) -> np.ndarray:
    """Density matrix of the Werner-type initial state on a 4-mode basis.

    The mixed part is the uniform mixture of the 8 occupation states of the
    three distant resonators with at most one photon each, so the basis
    needs cutoff >= 1 and room for 3 photons in total.
    """
    if basis.modes != 4:
        raise ValueError(f"Werner initial state needs a 4-mode basis, got {basis.modes}")
    pure = np.zeros(basis.dim, dtype=complex)
    pure[single_photon_index(basis, 1)] = np.cos(params.theta)
    pure[single_photon_index(basis, 2)] = 1j * np.sin(params.theta)
    rho = params.p * np.outer(pure, pure.conj())
    weight = (1.0 - params.p) / 8.0
    for occ_r1 in (0, 1):
        for occ_r2 in (0, 1):
            for occ_r3 in (0, 1):
                idx = basis.index_of((0, occ_r1, occ_r2, occ_r3))
                rho[idx, idx] += weight
    return rho
