"""Klein tunneling of pseudospin-1 Maxwell particles.

Three independent routes to the same band-transition physics, built for
cross-validation: closed-form Landau-Zener probabilities, spectral
wave-packet scattering in a linear potential, and a Fock-truncated two-ion
emulator realizing the identical Hamiltonian.

Importing the package loads no route: each public name is imported from its
home module on first use (PEP 562), so the closed forms run without numpy.
"""

import importlib

__version__ = "0.1.0"

#: Home module of every public name.
_EXPORTS = {
    "errors": (
        "BoundaryContaminationError",
        "ConfigError",
        "ConvergenceError",
        "GridCoverageError",
        "MaxwellSimError",
        "NumericalGuardError",
        "ParameterError",
        "TruncationError",
    ),
    "ion_emulator": (
        "ION_TRACE_COLUMNS",
        "IonParams",
        "IonState",
        "IonTrajectory",
        "LadderOperator",
        "build_maxwell_hamiltonian",
        "coherent_initial_state",
        "default_readout_grid",
        "evolve_ion",
        "map_parameters",
        "position_wavefunction",
        "quadratures",
        "sideband_toolbox",
    ),
    "landau_zener": (
        "PhysicalParams",
        "SWEEP_COLUMNS",
        "TransitionProbabilities",
        "angle_sweep",
        "lz_spin1",
        "lz_spin_half",
    ),
    "spin_algebra": (
        "SpinAlgebra",
        "adiabatic_projectors",
        "pauli_algebra",
        "spin1_matrices",
    ),
    "sweep_integrator": ("integrate_sweep",),
    "wavepacket": (
        "TRACE_COLUMNS",
        "BandPopulations",
        "EvolveResult",
        "Grid1D",
        "SpinorField",
        "band_components",
        "band_populations",
        "default_time_step",
        "density",
        "evolve",
        "gaussian_packet",
        "step",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
