"""Simulation of single-photon W-state generation in a network of distant
resonators coupled through a common bus.

The package models n harmonic resonators dispersively coupled to one bus
resonator, derives the bus-mediated hopping network, and provides three
mutually checking routes to the dynamics: closed-form amplitudes, the
reduced amplitude equations of the bus-eliminated model
(integrate_amplitudes), and ab initio (unitary or damped) propagation of
the full system.
"""

# set before the submodules load: experiments and cli import it
__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .analytic import (
    amplitude_grid,
    amplitudes_homogeneous,
    design_w_couplings,
    find_w_crossings,
    populations,
)
from .dynamics import (
    PropagationError,
    TimeGrid,
    Trajectory,
    evolve_lindblad,
    evolve_lindblad_batch,
    evolve_unitary,
    integrate_amplitudes,
)
from .experiments import (
    OptimizeG1Result,
    ScenarioResult,
    first_crossing_chi_t,
    optimize_g1,
    optimize_to_scenario,
    reference_spec,
    scenario_population,
    sweep_fidelity_map_g2,
    sweep_fidelity_vs_time,
    sweep_gm,
    sweep_werner,
    write_json,
    write_result,
)
from .fockspace import (
    FockBasis,
    annihilation,
    build_basis,
    commutator,
    creation,
    number,
    single_photon_index,
    total_number,
    vacuum_index,
)
from .hamiltonians import (
    HamiltonianSet,
    SwIdentityReport,
    build_full,
    build_sw_generator,
    one_photon_hamiltonian,
    shift_frame,
    verify_sw_identities,
)
from .model import (
    DISPERSIVE_WARN_RATIO,
    DispersiveModel,
    ResonatorSpec,
    SystemSpec,
    derive_dispersive,
    dispersive_validity,
    ghz_to_angular,
    lifetime_from_kappa,
    lifetime_from_q,
    load_spec,
    mhz_to_angular,
    spec_from_dict,
    spec_to_dict,
)
from .observables import (
    WernerParams,
    fidelity_dm,
    fidelity_pure_target,
    ideal_target,
    population,
    population_dm,
    single_photon_populations,
    single_photon_populations_dm,
    werner_initial,
)

# every public name bound above, except the submodules the imports bind
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
) + ["__version__"]
