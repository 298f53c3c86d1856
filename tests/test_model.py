"""Parameter handling, unit conversions, and the dispersive reduction."""

import dataclasses
import json
import math
import re
import warnings
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import resonatorsim
from resonatorsim import (
    ResonatorSpec,
    SystemSpec,
    build_basis,
    build_sw_generator,
    derive_dispersive,
    dispersive_validity,
    ghz_to_angular,
    lifetime_from_kappa,
    lifetime_from_q,
    load_spec,
    mhz_to_angular,
    reference_spec,
    spec_from_dict,
    spec_to_dict,
    verify_sw_identities,
)

TWO_PI = 2.0 * np.pi


def test_unit_conversions():
    # 1 GHz -> 2*pi*1e3 rad/us; 1 MHz -> 2*pi rad/us
    assert ghz_to_angular(1.0) == pytest.approx(TWO_PI * 1.0e3)
    assert mhz_to_angular(1.0) == pytest.approx(TWO_PI)


def test_reference_spec_detuning_and_ratio():
    spec = reference_spec(3)
    # Delta = Omega0 - omega_r = 2*pi * 1 GHz; g/Delta = 50 MHz / 1000 MHz
    model = derive_dispersive(spec)
    assert model.delta[0] == pytest.approx(TWO_PI * 1.0e3)
    assert spec.couplings[0] / model.delta[0] == pytest.approx(0.05)


def test_hopping_rate_value():
    # chi = g^2/Delta = 2*pi * 2.5 rad/us at the standard working point
    model = derive_dispersive(reference_spec(3))
    assert model.chi_homogeneous == pytest.approx(TWO_PI * 2.5, rel=1.0e-12)
    assert model.is_homogeneous()
    assert model.is_resonant()


def test_chi_matrix_symmetric_zero_diagonal():
    spec = reference_spec(3, couplings_mhz=[40.0, 50.0, 60.0])
    model = derive_dispersive(spec)
    np.testing.assert_allclose(model.chi, model.chi.T)
    np.testing.assert_allclose(np.diag(model.chi), 0.0)
    # chi_ij = g_i g_j / 2 * (1/Delta_i + 1/Delta_j)
    gi, gj = spec.couplings[0], spec.couplings[1]
    expected = 0.5 * gi * gj * (1 / model.delta[0] + 1 / model.delta[1])
    assert model.chi[0, 1] == pytest.approx(expected, rel=1.0e-12)
    # the matrix is filled from the Python-float terms of the overflow
    # checks; entry for entry it is the vectorized formula, bitwise, also
    # with resonators on both sides of the bus
    spec = SystemSpec(6.75, 0.0, tuple(ResonatorSpec(f, g) for f, g in
                                       [(5.75, 40.0), (7.2, 50.0), (5.9, 0.0), (6.1, 61.3)]))
    g, inv = spec.couplings, 1.0 / spec.detunings
    vectorized = 0.5 * np.outer(g, g) * (inv[:, None] + inv[None, :])
    np.fill_diagonal(vectorized, 0.0)
    assert derive_dispersive(spec).chi.tobytes() == vectorized.tobytes()


def test_lamb_shifts():
    spec = reference_spec(2)
    model = derive_dispersive(spec)
    shift = spec.couplings[0] ** 2 / model.delta[0]
    assert model.lamb_shifted_omega[0] == pytest.approx(spec.omegas[0] + shift)
    assert model.lamb_shifted_bus == pytest.approx(spec.bus_omega - 2 * shift)


def test_zero_detuning_rejected():
    spec = SystemSpec(
        bus_freq_ghz=5.75,
        bus_kappa_mhz=0.0,
        resonators=(ResonatorSpec(5.75, 50.0), ResonatorSpec(5.75, 50.0)),
    )
    with pytest.raises(ValueError, match="resonant"):
        derive_dispersive(spec)


# every quantity with 1/Delta in it, and the words naming it
_ONE_RULE = pytest.mark.parametrize(
    "call, what",
    [
        (derive_dispersive, "dispersive model"),
        (dispersive_validity, "validity ratio"),
        (verify_sw_identities, "generator"),
        (lambda spec: build_sw_generator(spec, build_basis(4, cutoff=1)), "generator"),
    ],
    ids=["derive_dispersive", "dispersive_validity", "verify_sw_identities",
         "build_sw_generator"],
)


@_ONE_RULE
def test_resonant_bus_refused_by_one_rule(call, what):
    # every quantity with 1/Delta in it refuses resonator 2 at the bus
    # frequency in the same words, naming what is undefined
    spec = SystemSpec(
        bus_freq_ghz=6.75,
        bus_kappa_mhz=0.0,
        resonators=(ResonatorSpec(5.75, 50.0), ResonatorSpec(6.75, 50.0),
                    ResonatorSpec(5.75, 50.0)),
    )
    message = f"^resonator 2 is resonant with the bus \\(6.75 GHz\\): {what} undefined$"
    with pytest.raises(ValueError, match=message):
        call(spec)


@_ONE_RULE
def test_overflowing_lamb_shift_refused_by_one_rule(call, what):
    # g = 2 pi 1e160 rad/us is finite but g^2 is not; the rule refuses it by
    # name before numpy squares it
    spec = SystemSpec(
        bus_freq_ghz=6.75,
        bus_kappa_mhz=0.0,
        resonators=(ResonatorSpec(5.75, 50.0), ResonatorSpec(5.75, 1.0e160),
                    ResonatorSpec(5.75, 50.0)),
    )
    message = f"^resonator 2 'g_mhz' is too large: g\\^2/Delta overflows, {what} undefined$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call(spec)


@_ONE_RULE
@pytest.mark.parametrize(
    "resonators, refusal",
    [
        # 1e-12 GHz below the bus (Delta = 6.3e-9 rad/us), each g^2/Delta is
        # 1.2e308, finite, but the bus shift, their sum, is not
        ((ResonatorSpec(6.75 - 1.0e-12, 1.38e149),) * 3,
         "resonators' 'g_mhz' are too large: the Lamb shifts g\\^2/Delta sum past the "
         "float range"),
        # g_1 g_2/Delta_1 overflows where g_1^2/Delta_1 and g_2^2/Delta_2 do not
        ((ResonatorSpec(6.75 - 1.0e-12, 1.0e146), ResonatorSpec(1.0, 2.0e153),
          ResonatorSpec(5.75, 50.0)),
         "resonators 1 and 2 'g_mhz' are too large: chi term g_i g_j/Delta overflows"),
    ],
    ids=["lamb_shift_sum", "chi_term"],
)
def test_overflowing_dispersive_sums_refused_by_one_rule(call, what, resonators, refusal):
    spec = SystemSpec(bus_freq_ghz=6.75, bus_kappa_mhz=0.0, resonators=resonators)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{refusal}, {what} undefined$"):
            call(spec)


def test_dispersive_validity_flags():
    good = reference_spec(2)
    assert all(flag == "pass" for _, flag in dispersive_validity(good))
    marginal = SystemSpec(
        bus_freq_ghz=6.75,
        bus_kappa_mhz=0.0,
        resonators=(ResonatorSpec(6.50, 50.0), ResonatorSpec(6.50, 50.0)),
    )
    ratios = dispersive_validity(marginal)
    assert all(flag == "warn" for _, flag in ratios)
    assert ratios[0][0] == pytest.approx(0.2)


def test_lifetimes():
    # T = Q / omega and T = 1/kappa, both in microseconds
    assert lifetime_from_q(2.0e6, 5.75) == pytest.approx(55.36, abs=0.01)
    assert lifetime_from_kappa(0.5) == pytest.approx(2.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: lifetime_from_q(v, 5.75), "q_factor"),
        (lambda v: lifetime_from_q(2.0e6, v), "freq_ghz"),
        (lambda v: lifetime_from_kappa(v), "kappa_mhz"),
    ],
    ids=["q_factor", "freq_ghz", "kappa_mhz"],
)
def test_lifetimes_refuse_non_finite_input(call, name, value):
    # NaN fails the sign checks, and past them a non-finite input gives a
    # nan, infinite or zero lifetime
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        call(value)


def test_all_lists_every_public_name_and_no_submodule():
    public = sorted(name for name, value in vars(resonatorsim).items()
                    if not name.startswith("_") and not isinstance(value, ModuleType))
    assert resonatorsim.__all__ == [*public, "__version__"]
    namespace = {}
    exec("from resonatorsim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(resonatorsim.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`:UserWarning")
def test_pyproject_reads_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = Path(__file__).resolve().parents[1]
    config = pyprojecttoml.read_configuration(root / "pyproject.toml")
    assert config["project"]["version"] == resonatorsim.__version__


def test_json_round_trip(tmp_path):
    spec = reference_spec(3, kappa_mhz=0.25, gm_mhz=0.5)
    data = spec_to_dict(spec)
    again = spec_from_dict(json.loads(json.dumps(data)))
    assert again == spec

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert load_spec(path) == spec


def test_unknown_keys_rejected():
    data = spec_to_dict(reference_spec(2))
    data["surprise"] = 1
    with pytest.raises(ValueError, match="surprise"):
        spec_from_dict(data)


_CONFIG_NUMBERS = [
    ("bus", "freq_ghz"),
    ("bus", "kappa_mhz"),
    ("resonator 2", "freq_ghz"),
    ("resonator 2", "g_mhz"),
    ("resonator 2", "kappa_mhz"),
    ("config", "gm_mhz"),
]


def _set_config_number(data, where, key, value):
    target = {"bus": data["bus"], "config": data}.get(where, data["resonators"][1])
    target[key] = value


@pytest.mark.parametrize("value", [None, True, False, "5e1", [50.0]])
@pytest.mark.parametrize("where, key", _CONFIG_NUMBERS)
def test_config_numbers_must_be_json_numbers(where, key, value):
    # float() would turn true into 1 and "5e1" into 50, and null into a TypeError
    data = spec_to_dict(reference_spec(2))
    _set_config_number(data, where, key, value)
    with pytest.raises(ValueError, match=f"^{where} '{key}' must be a number, got "):
        spec_from_dict(data)


@pytest.mark.parametrize("where, key", _CONFIG_NUMBERS)
def test_config_numbers_accept_integers_and_refuse_overflow(where, key):
    data = spec_to_dict(reference_spec(2))
    _set_config_number(data, where, key, 7)
    assert spec_to_dict(spec_from_dict(data)) == data
    _set_config_number(data, where, key, 10**400)
    with pytest.raises(ValueError, match=f"^{where} '{key}' is too large"):
        spec_from_dict(data)


def test_negative_coupling_rejected():
    with pytest.raises(ValueError):
        ResonatorSpec(5.75, -1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize(
    "field",
    ["freq_ghz", "g_mhz", "kappa_mhz", "bus_freq_ghz", "bus_kappa_mhz", "gm_mhz"],
)
def test_non_finite_spec_values_rejected(field, value):
    # NaN slips past every sign check, and inf breaks the dispersive algebra
    resonator = {"freq_ghz": 5.75, "g_mhz": 50.0, "kappa_mhz": 0.0}
    system = {"bus_freq_ghz": 6.75, "bus_kappa_mhz": 0.0, "gm_mhz": 0.0}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        if field in resonator:
            ResonatorSpec(**{**resonator, field: value})
        else:
            SystemSpec(
                resonators=(ResonatorSpec(5.75, 50.0), ResonatorSpec(5.75, 50.0)),
                **{**system, field: value},
            )


#: a valid value for every spec field without a default
_REQUIRED_VALUES = {"freq_ghz": 5.75, "g_mhz": 50.0, "bus_freq_ghz": 6.75, "bus_kappa_mhz": 0.0,
                    "resonators": (ResonatorSpec(5.75, 50.0), ResonatorSpec(5.75, 50.0))}


def _required(cls) -> dict:
    return {f.name: _REQUIRED_VALUES[f.name] for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING}


@pytest.mark.parametrize("cls, field", [
    (cls, f.name) for cls in (ResonatorSpec, SystemSpec)
    for f in dataclasses.fields(cls) if f.name != "resonators"
])
def test_nan_in_every_spec_field_refused_by_its_name(cls, field):
    # the fields come from the dataclass, so a field added later is covered too
    with pytest.raises(ValueError, match=f"^{field} must be finite, got nan$"):
        cls(**{**_required(cls), field: math.nan})


@pytest.mark.parametrize("cls, first", [(ResonatorSpec, "freq_ghz"), (SystemSpec, "bus_freq_ghz")])
def test_first_non_finite_field_in_field_order_is_named(cls, first):
    numbers = [f.name for f in dataclasses.fields(cls) if f.name != "resonators"]
    with pytest.raises(ValueError, match=f"^{first} must be finite, got nan$"):
        cls(**{**_required(cls), **dict.fromkeys(numbers, math.nan)})


@pytest.mark.parametrize(
    "field, value",
    [("freq_ghz", 1.0e306), ("g_mhz", 1.0e308), ("bus_freq_ghz", 1.0e306), ("gm_mhz", 1.0e308)],
)
def test_spec_values_overflowing_in_rad_per_us_rejected(field, value):
    # finite in GHz or MHz but infinite as omega, g, bus_omega or gm; refused
    # by name before any numpy arithmetic overflows
    resonator = {"freq_ghz": 5.75, "g_mhz": 50.0}
    system = {"bus_freq_ghz": 6.75, "bus_kappa_mhz": 0.0, "gm_mhz": 0.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{field} in rad/us must be finite, got inf$"):
            if field in resonator:
                ResonatorSpec(**{**resonator, field: value})
            else:
                SystemSpec(
                    resonators=(ResonatorSpec(5.75, 50.0), ResonatorSpec(5.75, 50.0)),
                    **{**system, field: value},
                )


def test_too_few_resonators_rejected():
    with pytest.raises(ValueError):
        SystemSpec(
            bus_freq_ghz=6.75,
            bus_kappa_mhz=0.0,
            resonators=(ResonatorSpec(5.75, 50.0),),
        )


def test_bad_config_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError):
        load_spec(path)
    with pytest.raises(FileNotFoundError):
        load_spec(tmp_path / "missing.json")


_PAIR = (ResonatorSpec(5.75, 50.0), ResonatorSpec(5.75, 50.0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ResonatorSpec(0.0, 50.0), "resonator frequency must be positive, got 0.0 GHz"),
        (lambda: ResonatorSpec(5.75, 50.0, -0.1), "decay rate must be nonnegative, got -0.1 MHz"),
        (lambda: SystemSpec(-1.0, 0.0, _PAIR), "bus frequency must be positive, got -1.0 GHz"),
        (lambda: SystemSpec(6.75, -0.1, _PAIR), "bus decay rate must be nonnegative, got -0.1 MHz"),
        (lambda: SystemSpec(6.75, 0.0, _PAIR, gm_mhz=-1.0),
         "direct coupling G_M must be nonnegative, got -1.0 MHz"),
        (lambda: derive_dispersive(
            SystemSpec(6.75, 0.0, (ResonatorSpec(5.75, 50.0), ResonatorSpec(5.75, 60.0)))
        ).chi_homogeneous,
         "resonators are not identical: their frequencies or couplings differ"),
        (lambda: lifetime_from_q(0.0, 5.75), "quality factor must be positive, got 0.0"),
        (lambda: lifetime_from_q(1.0e4, 0.0), "frequency must be positive, got 0.0 GHz"),
        (lambda: lifetime_from_kappa(0.0), "decay rate must be positive, got 0.0 MHz"),
    ],
    ids=["freq", "kappa", "bus_freq", "bus_kappa", "gm", "chi_homogeneous",
         "lifetime_q", "lifetime_freq", "lifetime_kappa"],
)
def test_refusals(call, message):
    # warnings are errors in this suite, so each refusal comes first
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
