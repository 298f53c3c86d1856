"""Independent reference values for the benchmark's correctness checks.

Nothing here imports resonatorsim.  Every reference is rebuilt from the
plain input numbers of a network (a dict with bus_ghz, res_ghz, g_mhz and
optionally gm_mhz) by a closed form or by dense linear algebra:

- uniform decay on every mode factorises exactly, so damped fidelities and
  populations are exp(-kappa t) times the eigh-based unitary result;
- non-uniform decay uses the vectorised Liouvillian and scipy.linalg.expm;
- the reduced amplitude equations are solved by diagonalising
  diag(omega') + chi and rotating back;
- equal-population times and populations use the closed form.

Mode order is bus first, then resonators 1..n.  Frequencies are angular, in
rad/us, in the frame rotating at resonator 1's frequency.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg

TWO_PI = 2.0 * np.pi


def ghz(f):
    return TWO_PI * 1.0e3 * np.asarray(f, dtype=float)


def mhz(f):
    return TWO_PI * np.asarray(f, dtype=float)


# --- closed form ------------------------------------------------------------


def w_amplitudes(n: int, chi_t) -> np.ndarray:
    """Homogeneous-network amplitudes (..., n), photon starting in resonator 1."""
    x = np.asarray(chi_t, dtype=float)
    fast, slow = np.exp(1j * x), np.exp(-1j * (n - 1) * x)
    c = np.empty(x.shape + (n,), dtype=complex)
    c[..., 0] = ((n - 1) * fast + slow) / n
    c[..., 1:] = ((slow - fast) / n)[..., None]
    return c


def crossings(n: int, chi_t_max_over_pi: float) -> np.ndarray:
    """Equal-population phases chi*t in (0, max]: cos(n chi t) = 1 - n/2."""
    if n > 4:
        return np.array([])
    a = np.arccos(1.0 - n / 2.0)
    limit = np.pi * chi_t_max_over_pi
    roots = set()
    for k in range(int(n * limit / (2 * np.pi)) + 2):
        for r in ((a + 2 * np.pi * k) / n, (-a + 2 * np.pi * k) / n):
            if 0.0 < r <= limit:
                roots.add(round(r, 12))
    return np.array(sorted(roots))


def first_crossing(n: int) -> float:
    return float(np.arccos(1.0 - n / 2.0) / n)


def w_target(n: int) -> np.ndarray:
    """Comparison state on the resonators: conjugate closed-form amplitudes
    at the first equal-population time."""
    return np.conj(w_amplitudes(n, first_crossing(n)))


def chi_homogeneous(net) -> float:
    g = mhz(net["g_mhz"][0])
    return float(g**2 / (ghz(net["bus_ghz"]) - ghz(net["res_ghz"][0])))


# --- one-photon sector --------------------------------------------------------


def one_photon_h(net) -> np.ndarray:
    """Hamiltonian on the one-photon states [bus, r1..rn]."""
    n = len(net["g_mhz"])
    ref = ghz(net["res_ghz"][0])
    h = np.zeros((n + 1, n + 1))
    h[0, 0] = ghz(net["bus_ghz"]) - ref
    h[0, 1:] = h[1:, 0] = mhz(net["g_mhz"])
    h[np.arange(1, n + 1), np.arange(1, n + 1)] = ghz(net["res_ghz"]) - ref
    gm = float(mhz(net.get("gm_mhz", 0.0)))
    for j in range(1, n):
        h[j, j + 1] = h[j + 1, j] = gm
    return h


def propagate(h: np.ndarray, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States (T, d) under constant hermitian h, by diagonalisation."""
    w, v = np.linalg.eigh(h)
    return (np.exp(-1j * np.outer(times, w)) * (v.conj().T @ psi0)) @ v.T


def resonator_states(net, times) -> np.ndarray:
    """Resonator amplitudes (T, n) with the photon starting in resonator 1."""
    h = one_photon_h(net)
    psi0 = np.zeros(h.shape[0], dtype=complex)
    psi0[1] = 1.0
    return propagate(h, psi0, times)[:, 1:]


def fidelities(net, kappa: float, times) -> np.ndarray:
    """Fidelity with the W target under uniform decay kappa (1/us)."""
    n = len(net["g_mhz"])
    overlap = resonator_states(net, times) @ np.conj(w_target(n))
    return np.exp(-kappa * np.asarray(times)) * np.abs(overlap) ** 2


def populations(net, kappa: float, times) -> np.ndarray:
    """Resonator populations (T, n) under uniform decay kappa (1/us)."""
    p = np.abs(resonator_states(net, times)) ** 2
    return np.exp(-kappa * np.asarray(times))[:, None] * p


def operation_time(net) -> float:
    return first_crossing(len(net["g_mhz"])) / chi_homogeneous(net)


# --- reduced (bus-eliminated) amplitudes --------------------------------------


def reduced_amplitudes(net, times) -> np.ndarray:
    """Exact solution of i dc/dt = chi_jk exp(i delta_jk t) c_k from c = e_1.

    With a_j = c_j exp(-i omega'_j t) the equations have the constant
    generator diag(omega') + chi.
    """
    g = mhz(net["g_mhz"])
    delta = ghz(net["bus_ghz"]) - ghz(net["res_ghz"])
    omega_p = ghz(net["res_ghz"]) + g**2 / delta
    omega_p = omega_p - omega_p.mean()
    inv = 1.0 / delta
    chi = 0.5 * np.outer(g, g) * (inv[:, None] + inv[None, :])
    np.fill_diagonal(chi, 0.0)
    c0 = np.zeros(len(g), dtype=complex)
    c0[0] = 1.0
    a = propagate(np.diag(omega_p) + chi, c0, times)
    return a * np.exp(1j * np.outer(times, omega_p))


# --- full Fock space (cutoff 1) ---------------------------------------------


class Fock:
    """Occupation states of `modes` two-level modes with at most `cap` photons."""

    def __init__(self, modes: int, cap: int):
        self.states = [s for s in itertools.product((0, 1), repeat=modes) if sum(s) <= cap]
        self.index = {s: i for i, s in enumerate(self.states)}
        self.dim = len(self.states)
        self.lower = []
        for m in range(modes):
            op = np.zeros((self.dim, self.dim))
            for col, s in enumerate(self.states):
                if s[m]:
                    op[self.index[s[:m] + (0,) + s[m + 1:]], col] = 1.0
            self.lower.append(op)

    def ket(self, occupied) -> int:
        occ = [0] * len(self.lower)
        for m in occupied:
            occ[m] = 1
        return self.index[tuple(occ)]

    def hamiltonian(self, net) -> np.ndarray:
        h1 = one_photon_h(net)
        ops = self.lower
        h = np.zeros((self.dim, self.dim))
        for i in range(len(ops)):
            for j in range(len(ops)):
                if h1[i, j]:
                    h += h1[i, j] * ops[i].T @ ops[j]
        return h


def werner_fidelities(net, kappas, ps, thetas_pi) -> np.ndarray:
    """Fidelity (theta, p) at the operation time for Werner-type initial
    states on the 4-mode, 3-photon-cap space.  kappas holds the decay rate
    of [bus, r1, r2, r3]; all zero selects unitary evolution."""
    fock = Fock(4, 3)
    h = fock.hamiltonian(net)
    t_star = operation_time(net)
    target = np.zeros(fock.dim, dtype=complex)
    target[[fock.ket([j]) for j in (1, 2, 3)]] = w_target(3)
    mixed = np.zeros((fock.dim, fock.dim))
    for occ in itertools.product((0, 1), repeat=3):
        k = fock.index[(0,) + occ]
        mixed[k, k] = 1.0 / 8.0
    if np.any(np.asarray(kappas) > 0):
        eye = np.eye(fock.dim)
        gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for rate, a in zip(kappas, fock.lower):
            ada = a.T @ a
            gen += rate * (np.kron(a, a) - 0.5 * np.kron(ada, eye) - 0.5 * np.kron(eye, ada.T))
        prop = scipy.linalg.expm(gen * t_star)
        evolve = lambda rho: (prop @ rho.ravel()).reshape(rho.shape)
    else:
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w * t_star)) @ v.conj().T
        evolve = lambda rho: u @ rho @ u.conj().T
    out = np.empty((len(thetas_pi), len(ps)))
    for i, th in enumerate(thetas_pi):
        pure = np.zeros(fock.dim, dtype=complex)
        pure[fock.ket([1])] = np.cos(np.pi * th)
        pure[fock.ket([2])] = 1j * np.sin(np.pi * th)
        for k, p in enumerate(ps):
            rho = evolve(p * np.outer(pure, pure.conj()) + (1.0 - p) * mixed)
            out[i, k] = np.real(target.conj() @ rho @ target)
    return out


# --- bus-elimination identities ------------------------------------------------


def sw_report(net) -> dict:
    """Residuals of the bus-elimination identities on [vac, bus, r1..rn]."""
    n = len(net["g_mhz"])
    g = mhz(net["g_mhz"])
    bus, res = float(ghz(net["bus_ghz"])), ghz(net["res_ghz"])
    delta = bus - res
    d = n + 2
    h0 = np.diag(np.concatenate(([0.0, bus], res)))
    h_int = np.zeros((d, d))
    s = np.zeros((d, d))
    h_int[1, 2:] = h_int[2:, 1] = g
    s[1, 2:] = g / delta
    s[2:, 1] = -g / delta
    norm = lambda m: float(np.linalg.norm(m, 2))
    h = h0 + h_int
    u = scipy.linalg.expm(s)
    h_exact = u @ h @ u.T
    h_second = h0 + 0.5 * (s @ h_int - h_int @ s)
    shift = g**2 / delta
    inv = 1.0 / delta
    chi = 0.5 * np.outer(g, g) * (inv[:, None] + inv[None, :])
    np.fill_diagonal(chi, 0.0)
    explicit = np.diag(np.concatenate(([0.0, bus + shift.sum()], res - shift)))
    explicit[2:, 2:] -= chi
    ev = np.linalg.eigvalsh(h)
    ev_model = np.linalg.eigvalsh(explicit)
    floor = 1.0e-6 * float(np.max(np.abs(ev)))
    r2 = norm(h_exact - h_second)
    return {
        "r1_interaction_cancellation": norm(s @ h0 - h0 @ s + h_int),
        "r2_second_order_truncation": r2,
        "r2_relative": r2 / norm(h_int),
        "r3_dispersive_form_match": norm(h_second - explicit),
        "eigenvalue_drift": float(np.max(np.abs(np.linalg.eigvalsh(h_exact) - ev))),
        "spectrum_relative_error": float(
            np.max(np.abs(ev - ev_model) / np.maximum(np.abs(ev), floor))
        ),
    }


# --- first-coupling calibration ------------------------------------------------


def g1_curve(net, g1_mhz: float, x: np.ndarray) -> np.ndarray:
    """max_m |P_m - 1/n| along chi*t/pi = x, with resonator 1 coupled at g1."""
    n = len(net["g_mhz"])
    varied = dict(net, g_mhz=[g1_mhz] + list(net["g_mhz"][1:]))
    g = mhz(net["g_mhz"][-2:])
    delta = ghz(net["bus_ghz"]) - ghz(net["res_ghz"][-2:])
    chi_ref = 0.5 * g[0] * g[1] * (1.0 / delta[0] + 1.0 / delta[1])
    p = np.abs(resonator_states(varied, np.pi * x / chi_ref)) ** 2
    return np.max(np.abs(p - 1.0 / n), axis=1)


def distinct_minima(x: np.ndarray, curve: np.ndarray, tol: float) -> np.ndarray:
    """Location of the minimum of each contiguous run where curve <= tol."""
    below = np.concatenate(([False], curve <= tol, [False])).astype(int)
    edges = np.flatnonzero(np.diff(below))
    return np.array([x[a + np.argmin(curve[a:b])] for a, b in zip(edges[::2], edges[1::2])])
