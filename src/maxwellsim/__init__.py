"""Klein tunneling of pseudospin-1 Maxwell particles.

Three independent routes to the same band-transition physics, built for
cross-validation: closed-form Landau-Zener probabilities, spectral
wave-packet scattering in a linear potential, and a Fock-truncated two-ion
emulator realizing the identical Hamiltonian.
"""

from .errors import (
    BoundaryContaminationError,
    ConfigError,
    ConvergenceError,
    DegenerateBandsError,
    GridCoverageError,
    MaxwellSimError,
    NumericalGuardError,
    ParameterError,
    TruncationError,
)
from .ion_emulator import (
    ION_TRACE_COLUMNS,
    IonParams,
    IonState,
    IonTrajectory,
    LadderOperator,
    MappedParams,
    build_maxwell_hamiltonian,
    coherent_initial_state,
    default_readout_grid,
    energy_expectation,
    evolve_ion,
    map_parameters,
    position_wavefunction,
    quadratures,
    sideband_toolbox,
)
from .landau_zener import (
    SWEEP_COLUMNS,
    TransitionProbabilities,
    angle_sweep,
    effective_mass,
    lz_spin1,
    lz_spin_half,
)
from .spin_algebra import (
    PhysicalParams,
    SpinAlgebra,
    adiabatic_projectors,
    band_energies,
    band_projectors,
    bloch_hamiltonian,
    pauli_algebra,
    spin1_matrices,
)
from .sweep_integrator import (
    SweepProblem,
    integrate_sweep,
    sweep_problem,
    transition_matrix,
)
from .wavepacket import (
    TRACE_COLUMNS,
    BandPopulations,
    EvolveResult,
    Grid1D,
    ScatteringBreakdown,
    SpinorField,
    band_components,
    band_populations,
    classify_scattering,
    default_time_step,
    density,
    evolve,
    gaussian_packet,
    momentum_mean,
    position_mean,
    step,
)

__version__ = "0.1.0"
