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

__all__ = [
    "DISPERSIVE_WARN_RATIO",
    "DispersiveModel",
    "FockBasis",
    "HamiltonianSet",
    "OptimizeG1Result",
    "PropagationError",
    "ResonatorSpec",
    "ScenarioResult",
    "SwIdentityReport",
    "SystemSpec",
    "TimeGrid",
    "Trajectory",
    "WernerParams",
    "amplitude_grid",
    "amplitudes_homogeneous",
    "annihilation",
    "build_basis",
    "build_full",
    "build_sw_generator",
    "commutator",
    "creation",
    "derive_dispersive",
    "design_w_couplings",
    "dispersive_validity",
    "evolve_lindblad",
    "evolve_lindblad_batch",
    "evolve_unitary",
    "fidelity_dm",
    "fidelity_pure_target",
    "find_w_crossings",
    "first_crossing_chi_t",
    "ghz_to_angular",
    "ideal_target",
    "integrate_amplitudes",
    "lifetime_from_kappa",
    "lifetime_from_q",
    "load_spec",
    "mhz_to_angular",
    "number",
    "one_photon_hamiltonian",
    "optimize_g1",
    "optimize_to_scenario",
    "population",
    "population_dm",
    "populations",
    "reference_spec",
    "scenario_population",
    "shift_frame",
    "single_photon_index",
    "single_photon_populations",
    "single_photon_populations_dm",
    "spec_from_dict",
    "spec_to_dict",
    "sweep_fidelity_map_g2",
    "sweep_fidelity_vs_time",
    "sweep_gm",
    "sweep_werner",
    "total_number",
    "vacuum_index",
    "verify_sw_identities",
    "werner_initial",
    "write_json",
    "write_result",
    "__version__",
]
