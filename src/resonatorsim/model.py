"""System parameters, unit conversions, and derived dispersive quantities.

Unit conventions: configuration values are ordinary frequencies (GHz for
resonator frequencies, MHz for couplings); every internal frequency is
angular, in rad/us.  Decay rates kappa_mhz are read directly as plain rates
in 1/us with no 2*pi, so kappa = 0.5 MHz corresponds to a 2 us photon lifetime.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi

#: g/|Delta| above which the dispersive approximation is flagged.
DISPERSIVE_WARN_RATIO = 0.1


def ghz_to_angular(freq_ghz: float) -> float:
    """Ordinary GHz -> angular rad/us."""
    return TWO_PI * 1.0e3 * freq_ghz


def mhz_to_angular(freq_mhz: float) -> float:
    """Ordinary MHz -> angular rad/us."""
    return TWO_PI * freq_mhz


def _require_finite(**values) -> None:
    # NaN fails every ordered comparison, so the range checks alone let it in
    for name, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ResonatorSpec:
    """One distant resonator: frequency (GHz), bus coupling g (MHz), decay (MHz)."""

    freq_ghz: float
    g_mhz: float
    kappa_mhz: float = 0.0

    def __post_init__(self):
        _require_finite(**{key: getattr(self, key) for key in _RES_KEYS})
        _require_finite(**{"freq_ghz in rad/us": self.omega, "g_mhz in rad/us": self.g})
        if self.freq_ghz <= 0:
            raise ValueError(f"resonator frequency must be positive, got {self.freq_ghz} GHz")
        if self.g_mhz < 0:
            raise ValueError(f"coupling g must be nonnegative, got {self.g_mhz} MHz")
        if self.kappa_mhz < 0:
            raise ValueError(f"decay rate must be nonnegative, got {self.kappa_mhz} MHz")

    @property
    def omega(self) -> float:
        return ghz_to_angular(self.freq_ghz)

    @property
    def g(self) -> float:
        return mhz_to_angular(self.g_mhz)


@dataclass(frozen=True)
class SystemSpec:
    """Bus resonator plus n distant resonators, optionally with a direct
    nearest-neighbour resonator-resonator coupling G_M."""

    bus_freq_ghz: float
    bus_kappa_mhz: float
    resonators: tuple[ResonatorSpec, ...]
    gm_mhz: float = 0.0

    def __post_init__(self):
        _require_finite(**{key: getattr(self, key) for key in _SYSTEM_NUMBERS})
        _require_finite(**{"bus_freq_ghz in rad/us": self.bus_omega, "gm_mhz in rad/us": self.gm})
        if self.bus_freq_ghz <= 0:
            raise ValueError(f"bus frequency must be positive, got {self.bus_freq_ghz} GHz")
        if self.bus_kappa_mhz < 0:
            raise ValueError(f"bus decay rate must be nonnegative, got {self.bus_kappa_mhz} MHz")
        if len(self.resonators) < 2:
            raise ValueError(f"need at least 2 distant resonators, got {len(self.resonators)}")
        if self.gm_mhz < 0:
            raise ValueError(f"direct coupling G_M must be nonnegative, got {self.gm_mhz} MHz")
        object.__setattr__(self, "resonators", tuple(self.resonators))

    @property
    def n(self) -> int:
        return len(self.resonators)

    @property
    def bus_omega(self) -> float:
        return ghz_to_angular(self.bus_freq_ghz)

    @property
    def gm(self) -> float:
        return mhz_to_angular(self.gm_mhz)

    @property
    def omegas(self) -> np.ndarray:
        return np.array([r.omega for r in self.resonators])

    @property
    def couplings(self) -> np.ndarray:
        return np.array([r.g for r in self.resonators])

    @property
    def detunings(self) -> np.ndarray:
        """Delta_j = Omega_0 - omega_j, in rad/us."""
        return self.bus_omega - self.omegas


#: each spec's numeric fields in field order; a resonator's are also its config keys
_RES_KEYS = tuple(field.name for field in fields(ResonatorSpec))
_RES_REQUIRED = tuple(field.name for field in fields(ResonatorSpec) if field.default is MISSING)
_SYSTEM_NUMBERS = tuple(field.name for field in fields(SystemSpec) if field.name != "resonators")


@dataclass(frozen=True)
class DispersiveModel:
    """Second-order quantities of the bus-eliminated model.

    chi[i, j] is the bus-mediated hopping rate between distant resonators i
    and j (rad/us, zero diagonal); delta_ij[i, j] is the splitting of their
    Lamb-shifted frequencies.
    """

    delta: np.ndarray
    lamb_shifted_omega: np.ndarray
    lamb_shifted_bus: float
    chi: np.ndarray
    delta_ij: np.ndarray

    @property
    def n(self) -> int:
        return len(self.delta)

    def is_resonant(self) -> bool:
        """True when all Lamb-shifted splittings are within 1e-9 rad/us of 0."""
        return _resonant(self.lamb_shifted_omega.tolist())

    def is_homogeneous(self) -> bool:
        """True when the model is resonant and all pairwise chi agree to
        1e-12 of max(1, |chi_12|)."""
        return _homogeneous(self.lamb_shifted_omega.tolist(), self._off_diagonal_chi())

    @property
    def chi_homogeneous(self) -> float:
        """The common chi of a homogeneous model."""
        return _common_chi(self.lamb_shifted_omega.tolist(), self._off_diagonal_chi())

    def _off_diagonal_chi(self) -> list[float]:
        """The entries of chi off its diagonal, row by row: chi_12 first."""
        return self.chi[~np.eye(self.n, dtype=bool)].tolist()


def derive_dispersive(spec: SystemSpec) -> DispersiveModel:
    """Detunings, Lamb shifts, and the pairwise chi matrix.

    chi_ij = (g_i g_j / 2)(1/Delta_i + 1/Delta_j); Lamb-shifted frequencies
    omega'_j = omega_j + g_j^2/Delta_j and Omega_0' = Omega_0 - sum g_j^2/Delta_j.
    Requires every detuning nonzero.  The terms are _dispersive_terms'.
    """
    d, shifts, chis = _dispersive_terms(spec, "dispersive model")
    delta, shift = np.array(d), np.array(shifts)
    omega_p = spec.omegas + shift
    bus_p = spec.bus_omega - float(np.sum(shift))
    # a boolean mask fills in row-major order, so the strict lower triangle
    # (j, i) and, through the transpose, the upper one (i, j) take the pairs
    # i < j in the order of _dispersive_terms, by j and then i
    lower, terms = np.tri(spec.n, k=-1, dtype=bool), np.array(chis)
    chi = np.zeros((spec.n, spec.n))
    chi[lower] = chi.T[lower] = terms
    delta_ij = omega_p[:, None] - omega_p[None, :]
    for arr in (delta, omega_p, chi, delta_ij):
        arr.setflags(write=False)
    return DispersiveModel(delta, omega_p, bus_p, chi, delta_ij)


def _chi_homogeneous(spec: SystemSpec) -> float:
    """derive_dispersive(spec).chi_homogeneous, bitwise, with the same
    refusals, read off the Python floats of _dispersive_terms without
    building the model's arrays."""
    _, shifts, chis = _dispersive_terms(spec, "dispersive model")
    return _common_chi([r.omega + s for r, s in zip(spec.resonators, shifts)], chis)


def dispersive_validity(spec: SystemSpec) -> list[tuple[float, str]]:
    """Per-resonator ratios g_j/|Delta_j| with a pass/warn flag each."""
    out = []
    for r, d in zip(spec.resonators, _dispersive_terms(spec, "validity ratio")[0]):
        ratio = r.g / abs(d)
        out.append((ratio, "warn" if ratio > DISPERSIVE_WARN_RATIO else "pass"))
    return out


def _resonant(shifted_omegas: list[float]) -> bool:
    # rounding is monotone, so of finite values the largest splitting is
    # max - min
    return max(shifted_omegas) - min(shifted_omegas) <= 1.0e-9


def _homogeneous(shifted_omegas: list[float], chis: list[float]) -> bool:
    """The homogeneity rule on the Lamb-shifted frequencies and the pairwise
    chi (chi_12 first): every splitting within 1e-9 rad/us of 0 and every
    chi within 1e-12 max(1, |chi_12|) of chi_12, the farthest of which, for
    finite values, is the largest or the smallest."""
    chi = chis[0]
    tol = 1.0e-12 * max(1.0, abs(chi))
    return _resonant(shifted_omegas) and max(chis) - chi <= tol and chi - min(chis) <= tol


def _common_chi(shifted_omegas: list[float], chis: list[float]) -> float:
    """chi_12 = chis[0] of a homogeneous model, refused otherwise."""
    if not _homogeneous(shifted_omegas, chis):
        raise ValueError("resonators are not identical: their frequencies or couplings differ")
    return chis[0]


def _dispersive_terms(spec: SystemSpec, what: str) -> tuple[list, list, list]:
    """The detunings Delta_j, the Lamb shifts g_j^2/Delta_j and the chi
    terms (g_i g_j / 2)(1/Delta_i + 1/Delta_j) of the pairs i < j, by j and
    then i, as Python floats, which overflow to inf without a numpy
    warning.  Refuses a resonator at the bus frequency, where what (a
    quantity with 1/Delta in it) is undefined, and couplings whose terms
    overflow: a Lamb shift, a chi term, or the shifts' sum, which bounds
    the bus shift and the Lamb-shifted splittings."""
    bus = spec.bus_omega
    omegas = [r.omega for r in spec.resonators]
    g = [r.g for r in spec.resonators]
    d = [bus - w for w in omegas]
    shifts = []
    lamb = 0.0
    for j, r in enumerate(spec.resonators):
        if d[j] == 0.0:
            raise ValueError(
                f"resonator {j + 1} is resonant with the bus ({r.freq_ghz} GHz): {what} undefined"
            )
        shift = g[j] * g[j] / d[j]
        if not math.isfinite(shift):
            raise ValueError(
                f"resonator {j + 1} 'g_mhz' is too large: g^2/Delta overflows, {what} undefined"
            )
        shifts.append(shift)
        lamb += abs(shift)
    inv = [1.0 / dj for dj in d]
    chis = [0.5 * (g[i] * g[j]) * (inv[i] + inv[j]) for j in range(spec.n) for i in range(j)]
    if not all(map(math.isfinite, chis)):
        pairs = [(i, j) for j in range(spec.n) for i in range(j)]
        i, j = next(pair for pair, chi in zip(pairs, chis) if not math.isfinite(chi))
        raise ValueError(
            f"resonators {i + 1} and {j + 1} 'g_mhz' are too large: "
            f"chi term g_i g_j/Delta overflows, {what} undefined"
        )
    if not math.isfinite(max(bus, max(omegas)) + lamb):
        raise ValueError(
            f"resonators' 'g_mhz' are too large: the Lamb shifts g^2/Delta sum past "
            f"the float range, {what} undefined"
        )
    return d, shifts, chis


def lifetime_from_q(q_factor: float, freq_ghz: float) -> float:
    """Photon lifetime in us of a resonator with quality factor Q at freq_ghz."""
    _require_finite(q_factor=q_factor, freq_ghz=freq_ghz)
    if q_factor <= 0:
        raise ValueError(f"quality factor must be positive, got {q_factor}")
    if freq_ghz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_ghz} GHz")
    return q_factor / ghz_to_angular(freq_ghz)


def lifetime_from_kappa(kappa_mhz: float) -> float:
    """Photon lifetime in us for a plain decay rate in MHz (= 1/us)."""
    _require_finite(kappa_mhz=kappa_mhz)
    if kappa_mhz <= 0:
        raise ValueError(f"decay rate must be positive, got {kappa_mhz} MHz")
    return 1.0 / kappa_mhz


# --- JSON configuration -----------------------------------------------------

_TOP_KEYS = {"bus", "resonators", "gm_mhz"}
_BUS_KEYS = {"freq_ghz", "kappa_mhz"}


def spec_from_dict(cfg: dict) -> SystemSpec:
    """Build a SystemSpec from a configuration mapping; unknown keys rejected."""
    _check_object(cfg, "config", _TOP_KEYS, ("bus", "resonators"))
    bus = _check_object(cfg["bus"], "bus", _BUS_KEYS, ("freq_ghz",))
    entries = cfg["resonators"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("config 'resonators' must be a non-empty list")
    resonators = []
    for j, entry in enumerate(entries):
        where = f"resonator {j + 1}"
        _check_object(entry, where, _RES_KEYS, _RES_REQUIRED)
        resonators.append(ResonatorSpec(**{key: _number(entry, key, where) for key in _RES_KEYS}))
    return SystemSpec(
        bus_freq_ghz=_number(bus, "freq_ghz", "bus"),
        bus_kappa_mhz=_number(bus, "kappa_mhz", "bus"),
        resonators=tuple(resonators),
        gm_mhz=_number(cfg, "gm_mhz", "config"),
    )


def spec_to_dict(spec: SystemSpec) -> dict:
    """Round-trippable configuration mapping for a SystemSpec."""
    return {
        "bus": {"freq_ghz": spec.bus_freq_ghz, "kappa_mhz": spec.bus_kappa_mhz},
        "resonators": [{key: getattr(r, key) for key in _RES_KEYS} for r in spec.resonators],
        "gm_mhz": spec.gm_mhz,
    }


def load_spec(path) -> SystemSpec:
    """Read and validate a JSON system configuration file."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ValueError(f"config file {p} is not valid JSON: {err}") from None
    return spec_from_dict(cfg)


def _number(mapping: dict, key: str, where: str) -> float:
    """mapping[key] (0.0 when absent) as a float; only a JSON number is
    accepted, so null, strings and booleans are refused by name."""
    value = mapping.get(key, 0.0)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        got = json.dumps(value, default=repr)
        raise ValueError(f"{where} '{key}' must be a number, got {got}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{where} '{key}' is too large for a float") from None


def _check_object(value, where: str, allowed, required) -> dict:
    """value, refused unless it is a JSON object holding only allowed keys
    and every required one."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {type(value).__name__}")
    unknown = sorted(set(value).difference(allowed))
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")
    for key in required:
        if key not in value:
            raise ValueError(f"{where} is missing required key '{key}'")
    return value
