"""Closed-form band-transition probabilities for a linear potential sweep.

A particle incident on ``V(x) = g x`` sweeps its longitudinal momentum at a
constant rate, so the scattering resolves into a multi-level band crossing.
For the three-band (spin-1) case the final occupations, starting from the
positive band, are

    gamma_pm = exp(-pi r)                       r = (m~ c^2)^2 / (hbar c g)
    gamma_p0 = 2 y (1 - y)                      y = exp(-pi r / 2)
    gamma_pp = 1 - gamma_pm - gamma_p0

with the effective rest energy ``m~ c^2 = sqrt(m^2 c^4 + hbar^2 ky^2 c^2)``
carrying the transverse momentum.  Transmission is everything that leaves
the incident band downward: ``T = gamma_p0 + gamma_pm``.  The two-level
(spin-1/2) counterpart has no flat band and transmits with ``exp(-pi r)``.

Index convention: the first subscript is the initial band, the second the
final band.  These formulas are validated against the independent swept-level
integrator in :mod:`maxwellsim.sweep_integrator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .spin_algebra import PhysicalParams

__all__ = [
    "TransitionProbabilities",
    "effective_mass",
    "lz_spin1",
    "lz_spin_half",
    "angle_sweep",
    "SWEEP_COLUMNS",
]

#: Column order of the array returned by :func:`angle_sweep`.
SWEEP_COLUMNS = ("theta", "gamma_pp", "gamma_p0", "gamma_pm", "transmission")

# Clamping slack: probabilities may stray outside [0, 1] by at most this
# much before we treat it as an internal inconsistency.
_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class TransitionProbabilities:
    """Final-band occupations for a state entering on the positive band.

    ``gamma_pp`` stays on the incident band (reflection), ``gamma_p0`` ends
    on the flat band (localization), ``gamma_pm`` reaches the opposite band
    (transmission through the sloped region).
    """

    gamma_pp: float
    gamma_p0: float
    gamma_pm: float

    def __post_init__(self):
        total = self.gamma_pp + self.gamma_p0 + self.gamma_pm
        if abs(total - 1.0) > _CLAMP_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        for name in ("gamma_pp", "gamma_p0", "gamma_pm"):
            value = getattr(self, name)
            if not -_CLAMP_TOL <= value <= 1.0 + _CLAMP_TOL:
                raise ValueError(f"{name} = {value} is not a probability")
            object.__setattr__(self, name, min(max(value, 0.0), 1.0))

    @property
    def transmission(self) -> float:
        """T = gamma_p0 + gamma_pm."""
        return self.gamma_p0 + self.gamma_pm

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.gamma_pp, self.gamma_p0, self.gamma_pm)


def effective_mass(params: PhysicalParams, ky: float) -> float:
    """Effective rest energy ``m~ c^2`` after reducing to 1D at fixed ky."""
    return math.sqrt(params.rest_energy**2 + (params.hbar * ky * params.c) ** 2)


def _closed_forms(r, flat_band: bool):
    """``(gamma_pp, gamma_p0, gamma_pm)`` at gap ratio ``r`` (scalar or array)."""
    gamma_pm = np.exp(-np.pi * r)
    if flat_band:
        y = np.exp(-np.pi * r / 2.0)
        gamma_p0 = 2.0 * y * (1.0 - y)
    else:
        gamma_p0 = np.zeros_like(gamma_pm)
    return 1.0 - gamma_pm - gamma_p0, gamma_p0, gamma_pm


def _gap_ratio(params: PhysicalParams, mtilde_c2):
    if params.g <= 0:
        raise ParameterError("transition probabilities require a positive slope g")
    return mtilde_c2**2 / (params.hbar * params.c * params.g)


def lz_spin1(params: PhysicalParams, mtilde_c2: float) -> TransitionProbabilities:
    """Three-band transition probabilities at effective rest energy ``mtilde_c2``."""
    gammas = _closed_forms(_gap_ratio(params, mtilde_c2), flat_band=True)
    return TransitionProbabilities(*map(float, gammas))


def lz_spin_half(params: PhysicalParams, mtilde_c2: float) -> TransitionProbabilities:
    """Two-level transition probabilities; no flat band, ``T = exp(-pi r)``."""
    gammas = _closed_forms(_gap_ratio(params, mtilde_c2), flat_band=False)
    return TransitionProbabilities(*map(float, gammas))


def angle_sweep(
    params: PhysicalParams, spin: float, p0: float, thetas
) -> np.ndarray:
    """Transition probabilities over a set of incident angles.

    The incident momentum magnitude ``p0`` is held fixed while the angle
    ``theta = arctan(ky0 / kx0)`` varies; the transverse component
    ``p0 sin(theta)`` enters through the effective mass.  ``spin`` is 1 or
    0.5.  Returns an array of shape ``(len(thetas), 5)`` with columns
    :data:`SWEEP_COLUMNS`.
    """
    if spin not in (1, 0.5):
        raise ParameterError(f"spin must be 1 or 0.5, got {spin}")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any(np.abs(thetas) >= np.pi / 2):
        raise ParameterError("incident angles must lie strictly inside (-pi/2, pi/2)")
    mtilde_c2 = np.sqrt(params.rest_energy**2 + (p0 * params.c * np.sin(thetas)) ** 2)
    gammas = np.clip(_closed_forms(_gap_ratio(params, mtilde_c2), spin == 1), 0.0, 1.0)
    return np.column_stack([thetas, *gammas, gammas[1] + gammas[2]])
