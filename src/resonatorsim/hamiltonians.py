"""Hamiltonian matrices for the bus-coupled resonator network.

The physics is written once, on the (n+1) x (n+1) one-photon block (bus at
index 0): one_photon_hamiltonian for bus + distant resonators + optional
direct nearest-neighbour coupling, and _sw_block for the antihermitian
generator that eliminates the bus to first order.  Both are bilinear in the
mode operators, so their Fock-space matrices (build_full, build_sw_generator)
are lifts sum_kl B[k, l] a_k^dag a_l of the blocks (_lift; the Werner
sweep lifts no block, it contracts experiments._one_photon_frame with
generator terms built from the ladder operators of _ladder), and
verify_sw_identities checks the elimination on the blocks (e^S by _expm).
All matrices are dense complex arrays in rad/us.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _expm
from .fockspace import FockBasis, annihilation, total_number
from .model import SystemSpec, _dispersive_terms, derive_dispersive


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


def build_full(spec: SystemSpec, basis: FockBasis) -> HamiltonianSet:
    """Ab initio Hamiltonian of bus + resonators on a truncated Fock basis.

    The basis must have spec.n + 1 modes, mode 0 being the bus.  The direct
    coupling G_M acts on the open nearest-neighbour chain R1-R2-...-Rn.
    """
    h0, h_int, h_gm = _lift(np.stack(_parts(spec)), _ladder(basis))
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
    return _lift(_sw_block(spec), _ladder(basis))


def shift_frame(h: np.ndarray, basis: FockBasis, omega_ref: float) -> np.ndarray:
    """Subtract omega_ref * (total photon number) from a Hamiltonian.

    For number-conserving dynamics this changes single-photon amplitudes only
    by a global phase while shrinking the spectral radius, which keeps
    the matrix exponentials of the damped propagator cheap.
    """
    return h - omega_ref * total_number(basis)


@dataclass(frozen=True)
class SwIdentityReport:
    """Residuals of the bus-elimination identities on the one-photon block.

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


def verify_sw_identities(spec: SystemSpec) -> SwIdentityReport:
    """Check the bus-elimination algebra numerically for a given system.

    Every identity is evaluated on the (n+1) x (n+1) one-photon block.  The
    operators are lifts of these blocks, and on the sector with at most one
    photon a lift acts as its block (the vacuum adds only zeros), so sums,
    products and exponentials there are those of the blocks: the residuals
    are the Fock-space ones, free of cutoff artefacts.  e^S is the block's
    dynamics._expm (Pade-13 scaling and squaring).  The direct coupling
    G_M is not part of the elimination and is excluded; a resonant bus is
    refused.
    """
    s = _sw_block(spec)
    h0, h_int, _ = _parts(spec)
    h = h0 + h_int

    r1 = _opnorm(s @ h0 - h0 @ s + h_int)

    u = _expm(s)
    h_exact = u @ h @ u.conj().T
    h_second = h0 + 0.5 * (s @ h_int - h_int @ s)
    r2 = _opnorm(h_exact - h_second)
    hint_norm = _opnorm(h_int)
    r2_relative = r2 / hint_norm if hint_norm > 0 else 0.0

    shift = spec.couplings**2 / spec.detunings
    explicit = np.diag(
        np.concatenate(([spec.bus_omega + float(np.sum(shift))], spec.omegas - shift))
    ).astype(complex)
    explicit[1:, 1:] -= derive_dispersive(spec).chi
    r3 = _opnorm(h_second - explicit)

    # eigvalsh returns ascending eigenvalues, so equal indices pair them up
    ev_before = np.linalg.eigvalsh(h)
    ev_after = np.linalg.eigvalsh(0.5 * (h_exact + h_exact.conj().T))
    drift = float(np.max(np.abs(ev_after - ev_before)))

    ev_model = np.linalg.eigvalsh(explicit)
    floor = 1.0e-6 * float(np.max(np.abs(ev_before)))
    spec_err = float(np.max(np.abs(ev_before - ev_model) / np.maximum(np.abs(ev_before), floor)))
    return SwIdentityReport(r1, r2, r2_relative, r3, drift, spec_err)


def _parts(spec: SystemSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bare-mode diagonal, bus coupling and G_M chain of the one-photon
    block (frame omega_ref = 0); they sum to one_photon_hamiltonian."""
    h = one_photon_hamiltonian(spec, 0.0)
    h0 = np.diag(np.diag(h))
    h_int = np.zeros_like(h)
    h_int[0, 1:], h_int[1:, 0] = h[0, 1:], h[1:, 0]
    return h0, h_int, h - h0 - h_int


def _sw_block(spec: SystemSpec) -> np.ndarray:
    """One-photon block of S: lambda_j = g_j/Delta_j at (0, j), -lambda_j at
    (j, 0).  Requires every detuning nonzero."""
    s = np.zeros((spec.n + 1, spec.n + 1), dtype=complex)
    lam = spec.couplings / np.array(_dispersive_terms(spec, "generator")[0])
    s[0, 1:], s[1:, 0] = lam, -lam
    return s


def _ladder(basis: FockBasis) -> np.ndarray:
    """The lowering operators of every mode of the basis, stacked in mode
    order (bus first): the ladder operators _lift takes."""
    return np.array([annihilation(basis, k) for k in range(basis.modes)])


def _lift(block: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_kl block[..., k, l] a_k^dag a_l with a_k = ops[k], the lowering
    operators of a Fock basis with one mode per row of the block (_ladder):
    the bilinear operator whose one-photon block is `block`.  A stack of
    blocks lifts to a stack, sharing the ladder operators."""
    modes = block.shape[-1]
    if len(ops) != modes:
        raise ValueError(
            f"basis has {len(ops)} modes but spec needs {modes} (bus + {modes - 1})"
        )
    out = np.zeros(block.shape[:-2] + ops.shape[1:], dtype=complex)
    for k, l in zip(*np.nonzero(block.reshape(-1, modes, modes).any(axis=0))):
        out = out + block[..., k, l, None, None] * (ops[k].conj().T @ ops[l])
    return out


def _opnorm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))
