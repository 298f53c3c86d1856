"""Hamiltonian matrices for the bus-coupled resonator network.

Builds the ab initio Hamiltonian (bus + distant resonators + optional direct
nearest-neighbour coupling), its (n+1) x (n+1) one-photon block without a
Fock basis, and the antihermitian generator that eliminates
the bus to first order, and checks the elimination against the explicit
dispersive form.  The bus-free model itself is propagated by
dynamics.integrate_amplitudes.  All matrices are dense complex arrays in
rad/us.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fockspace import FockBasis, annihilation, creation, number, total_number
from .model import SystemSpec, derive_dispersive


@dataclass(frozen=True, eq=False)
class HamiltonianSet:
    """Pieces of the ab initio Hamiltonian on a common basis.

    h_full = h0 + h_int + h_gm: bare modes, bus coupling, and direct
    nearest-neighbour coupling.  The generator that eliminates h_int is
    built separately, by build_sw_generator.
    """

    h_full: np.ndarray
    h0: np.ndarray
    h_int: np.ndarray
    h_gm: np.ndarray

    @property
    def dim(self) -> int:
        return self.h_full.shape[0]


def build_full(spec: SystemSpec, basis: FockBasis) -> HamiltonianSet:
    """Ab initio Hamiltonian of bus + resonators on a truncated Fock basis.

    The basis must have spec.n + 1 modes, mode 0 being the bus.  The direct
    coupling G_M acts on the open nearest-neighbour chain R1-R2-...-Rn.
    """
    if basis.modes != spec.n + 1:
        raise ValueError(
            f"basis has {basis.modes} modes but spec needs {spec.n + 1} (bus + {spec.n})"
        )
    d = basis.dim
    a = annihilation(basis, 0)
    h0 = spec.bus_omega * number(basis, 0)
    h_int = np.zeros((d, d), dtype=complex)
    for j in range(spec.n):
        b = annihilation(basis, j + 1)
        h0 = h0 + spec.omegas[j] * number(basis, j + 1)
        h_int = h_int + spec.couplings[j] * (a.conj().T @ b + b.conj().T @ a)
    h_gm = np.zeros((d, d), dtype=complex)
    if spec.gm != 0.0:
        for j in range(1, spec.n):
            bj = annihilation(basis, j)
            bk = annihilation(basis, j + 1)
            h_gm = h_gm + spec.gm * (bj.conj().T @ bk + bk.conj().T @ bj)
    return HamiltonianSet(h0 + h_int + h_gm, h0, h_int, h_gm)


def one_photon_hamiltonian(spec: SystemSpec, omega_ref: float) -> np.ndarray:
    """One-photon block of the ab initio Hamiltonian in the frame rotating
    at omega_ref: [[Omega_bus - omega_ref, g^T], [g, diag(omega) - omega_ref
    + G_M chain]], shape (n + 1, n + 1), row k holding the photon in mode k
    (0 = bus).  Entry for entry it equals that block of
    shift_frame(build_full(spec, basis).h_full, basis, omega_ref).
    """
    h = np.zeros((spec.n + 1, spec.n + 1), dtype=complex)
    modes = np.arange(1, spec.n + 1)
    h[0, 0] = spec.bus_omega - omega_ref
    h[modes, modes] = spec.omegas - omega_ref
    h[0, modes] = h[modes, 0] = spec.couplings
    h[modes[:-1], modes[1:]] = h[modes[1:], modes[:-1]] = spec.gm
    return h


def build_sw_generator(spec: SystemSpec, basis: FockBasis) -> np.ndarray:
    """Antihermitian generator S = sum_j (g_j/Delta_j)(a^dag b_j - a b_j^dag).

    Defined so that [S, h0] = -h_int, cancelling the bus coupling to first
    order; requires every detuning nonzero.
    """
    if basis.modes != spec.n + 1:
        raise ValueError(
            f"basis has {basis.modes} modes but spec needs {spec.n + 1} (bus + {spec.n})"
        )
    for j, d in enumerate(spec.detunings):
        if d == 0.0:
            raise ValueError(f"resonator {j + 1} has zero detuning; generator undefined")
    a_dag = creation(basis, 0)
    s = np.zeros((basis.dim, basis.dim), dtype=complex)
    for j in range(spec.n):
        b = annihilation(basis, j + 1)
        lam = spec.couplings[j] / spec.detunings[j]
        s = s + lam * (a_dag @ b - b.conj().T @ a_dag.conj().T)
    return s


def shift_frame(h: np.ndarray, basis: FockBasis, omega_ref: float) -> np.ndarray:
    """Subtract omega_ref * (total photon number) from a Hamiltonian.

    For number-conserving dynamics this changes single-photon amplitudes only
    by a global phase while shrinking the spectral radius, which keeps
    the matrix exponentials of the damped propagator cheap.
    """
    return h - omega_ref * total_number(basis)


@dataclass(frozen=True)
class SwIdentityReport:
    """Residuals of the bus-elimination identities on the 0/1-photon sector.

    r1: |[S, h0] + h_int|            (exact cancellation, ~machine zero)
    r2: |e^S H e^-S - h0 - [S,h_int]/2|   (third-order remainder)
    r2_relative: r2 / |h_int|        (scales as (g/Delta)^2)
    r3: |h0 + [S,h_int]/2 - explicit chi/shift form|   (~machine zero)
    eigenvalue_drift: spectrum change under the exact similarity transform
    spectrum_relative_error: exact spectrum vs the explicit dispersive form
    """

    r1: float
    r2: float
    r2_relative: float
    r3: float
    eigenvalue_drift: float
    spectrum_relative_error: float


def verify_sw_identities(spec: SystemSpec, basis: FockBasis) -> SwIdentityReport:
    """Check the bus-elimination algebra numerically for a given system.

    All operators involved conserve total photon number, so every identity
    is evaluated on the subspace with at most one photon, where truncated
    operator matrices are free of cutoff artefacts.  The direct coupling
    G_M is not part of the elimination and is excluded.
    """
    hs = build_full(spec, basis)
    if np.any(spec.detunings == 0.0):
        raise ValueError("cannot verify elimination identities with a resonant bus")
    sub = _sector_indices(basis, 1)
    ix = np.ix_(sub, sub)
    s = build_sw_generator(spec, basis)[ix]
    h0 = hs.h0[ix]
    h_int = hs.h_int[ix]
    h = h0 + h_int

    r1 = _opnorm(s @ h0 - h0 @ s + h_int)

    u = _expm_antihermitian(s)
    h_exact = u @ h @ u.conj().T
    h_second = h0 + 0.5 * (s @ h_int - h_int @ s)
    r2 = _opnorm(h_exact - h_second)
    hint_norm = _opnorm(h_int)
    r2_relative = r2 / hint_norm if hint_norm > 0 else 0.0

    model = derive_dispersive(spec)
    shift = spec.couplings**2 / spec.detunings
    explicit = (spec.bus_omega + float(np.sum(shift))) * number(basis, 0)[ix]
    for j in range(spec.n):
        explicit = explicit + (spec.omegas[j] - shift[j]) * number(basis, j + 1)[ix]
    for i in range(spec.n):
        bi_dag = creation(basis, i + 1)
        for j in range(i + 1, spec.n):
            bj = annihilation(basis, j + 1)
            hop = bi_dag @ bj
            explicit = explicit - model.chi[i, j] * (hop + hop.conj().T)[ix]
    r3 = _opnorm(h_second - explicit)

    ev_before = np.linalg.eigvalsh(0.5 * (h + h.conj().T))
    ev_after = np.linalg.eigvalsh(0.5 * (h_exact + h_exact.conj().T))
    drift = float(np.max(np.abs(np.sort(ev_after) - np.sort(ev_before))))

    ev_model = np.linalg.eigvalsh(0.5 * (explicit + explicit.conj().T))
    floor = 1.0e-6 * float(np.max(np.abs(ev_before))) if ev_before.size else 1.0
    spec_err = float(
        np.max(
            np.abs(np.sort(ev_before) - np.sort(ev_model))
            / np.maximum(np.abs(np.sort(ev_before)), floor)
        )
    )
    return SwIdentityReport(r1, r2, r2_relative, r3, drift, spec_err)


def _expm_antihermitian(s: np.ndarray) -> np.ndarray:
    """e^S for antihermitian S, from the Hermitian eigenproblem
    -iS = V diag(mu) V^dag.

    Written as 1 + V diag(e^{i mu} - 1) V^dag: for a small generator the
    rounding then scales with |S|, not with 1, which keeps the eigenvalue
    drift of e^S H e^-S at the level of scipy's expm.
    """
    mu, v = np.linalg.eigh(-1j * s)
    return np.eye(s.shape[0]) + (v * np.expm1(1j * mu)) @ v.conj().T


def _sector_indices(basis: FockBasis, max_total: int) -> np.ndarray:
    return np.array(
        [i for i, occ in enumerate(basis.states) if sum(occ) <= max_total], dtype=int
    )


def _opnorm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))
