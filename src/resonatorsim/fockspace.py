"""Truncated multimode Fock basis and bosonic operator matrices.

Mode index 0 is the bus resonator, modes 1..n are the distant resonators.
States are occupation tuples in lexicographic order, vacuum first, so the
ordering is deterministic for a given (modes, cutoff, excitation_cap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Ordered occupation-number basis for a set of bosonic modes."""

    modes: int
    cutoff: int
    excitation_cap: int | None
    states: tuple[tuple[int, ...], ...]
    _index: dict[tuple[int, ...], int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {occ: i for i, occ in enumerate(self.states)}
        )

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, occupation) -> int:
        """Position of an occupation tuple in the basis ordering."""
        occ = tuple(int(x) for x in occupation)
        try:
            return self._index[occ]
        except KeyError:
            raise ValueError(
                f"occupation {occ} is not in this basis "
                f"(modes={self.modes}, cutoff={self.cutoff}, "
                f"excitation_cap={self.excitation_cap})"
            ) from None

    def __contains__(self, occupation) -> bool:
        return tuple(int(x) for x in occupation) in self._index


def build_basis(n_modes: int, cutoff: int, excitation_cap: int | None = None) -> FockBasis:
    """Enumerate all occupation states with per-mode cutoff and optional total cap.

    Parameters
    ----------
    n_modes : number of bosonic modes (bus + distant resonators), >= 2
    cutoff : highest occupation per mode, >= 1
    excitation_cap : if given, drop states whose total photon number exceeds it

    The capped states are enumerated directly, one mode at a time, so the
    cost grows with the basis dimension rather than with (cutoff+1)^n_modes;
    the order is the lexicographic order of itertools.product.
    """
    if n_modes < 2:
        raise ValueError(f"need at least 2 modes (bus + 1 resonator), got {n_modes}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if excitation_cap is not None and excitation_cap < 1:
        raise ValueError(f"excitation_cap must be >= 1 when given, got {excitation_cap}")
    cap = cutoff * n_modes if excitation_cap is None else excitation_cap
    states = [()]
    for _ in range(n_modes):
        states = [
            occ + (k,) for occ in states for k in range(min(cutoff, cap - sum(occ)) + 1)
        ]
    return FockBasis(n_modes, cutoff, excitation_cap, tuple(states))


def annihilation(basis: FockBasis, mode: int) -> np.ndarray:
    """Matrix of the lowering operator for one mode.

    <..., m-1, ...| b |..., m, ...> = sqrt(m); matrix elements whose target
    state falls outside the truncated basis cannot arise for lowering, so the
    operator is exact on the enumerated states.
    """
    _check_mode(basis, mode)
    op = np.zeros((basis.dim, basis.dim), dtype=complex)
    for col, occ in enumerate(basis.states):
        m = occ[mode]
        if m == 0:
            continue
        # the lowered state is always enumerated, so skip index_of's checks
        lowered = occ[:mode] + (m - 1,) + occ[mode + 1 :]
        op[basis._index[lowered], col] = np.sqrt(m)
    return op


def creation(basis: FockBasis, mode: int) -> np.ndarray:
    """Matrix of the raising operator; adjoint of `annihilation`.

    Raising out of the truncated basis is projected away, as required for a
    finite representation.
    """
    return annihilation(basis, mode).conj().T


def number(basis: FockBasis, mode: int) -> np.ndarray:
    """Diagonal photon-number operator for one mode."""
    _check_mode(basis, mode)
    return np.diag([float(occ[mode]) for occ in basis.states]).astype(complex)


def total_number(basis: FockBasis) -> np.ndarray:
    """Diagonal total-photon-number operator."""
    return np.diag([float(sum(occ)) for occ in basis.states]).astype(complex)


def vacuum_index(basis: FockBasis) -> int:
    return basis.index_of((0,) * basis.modes)


def single_photon_index(basis: FockBasis, mode: int) -> int:
    """Index of the state with exactly one photon, in the given mode."""
    _check_mode(basis, mode)
    occ = tuple(1 if k == mode else 0 for k in range(basis.modes))
    return basis.index_of(occ)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] for two square matrices of matching dimension."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"commutator needs equal square matrices, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def _check_mode(basis: FockBasis, mode: int) -> None:
    if not 0 <= mode < basis.modes:
        raise ValueError(f"mode {mode} out of range for {basis.modes}-mode basis")
