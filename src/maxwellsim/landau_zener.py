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

The module uses :mod:`math` alone, so the closed-form command never loads
numpy.  What every route shares lives here for the same reason: the per-spin
model :func:`spin_model`, the Magnus step :func:`magnus_step` and
:class:`PhysicalParams` (which :mod:`maxwellsim.spin_algebra` re-exports).
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

from .errors import ParameterError

__all__ = [
    "PhysicalParams",
    "SpinModel",
    "TransitionProbabilities",
    "gap_ratio",
    "lz_spin1",
    "lz_spin_half",
    "angle_sweep",
    "magnus_step",
    "spin_model",
    "SWEEP_COLUMNS",
]

#: Field order of the rows returned by :func:`angle_sweep`.
SWEEP_COLUMNS = ("theta", "gamma_pp", "gamma_p0", "gamma_pm", "transmission")

# Clamping slack: probabilities may stray outside [0, 1] by at most this
# much before we treat it as an internal inconsistency.
_CLAMP_TOL = 1e-12

#: ``H = c hbar k Cx + m~ c^2 Cz`` of one spin: band labels by descending
#: energy, kappa of ``C = kappa S`` (2 for the bare Pauli matrices), and the
#: real ``Cx`` and ``Cz`` as rows, in the basis of a descending diagonal Sz.
SpinModel = collections.namedtuple("SpinModel", "labels coupling cx cz")

_R = 1 / math.sqrt(2.0)  # not sqrt(0.5), which differs in the last bit
_SPIN_MODELS = {
    1: SpinModel(("+", "0", "-"), 1.0,
                 ((0.0, _R, 0.0), (_R, 0.0, _R), (0.0, _R, 0.0)),
                 ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, -1.0))),
    0.5: SpinModel(("+", "-"), 2.0, ((0.0, 1.0), (1.0, 0.0)),
                   ((1.0, 0.0), (0.0, -1.0))),
}


@dataclass(frozen=True)
class PhysicalParams:
    """Effective speed of light, rest mass, potential slope, and hbar.

    Natural units ``hbar = c = 1`` are the default; the trapped-ion module
    produces instances in its own (hbar = 1, Delta = 1) units.
    """

    c: float = 1.0
    m: float = 0.0
    g: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.m < 0:
            raise ValueError(f"m must be nonnegative, got {self.m}")
        if self.g < 0:
            raise ValueError(f"g must be nonnegative, got {self.g}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    @property
    def rest_energy(self) -> float:
        """m c^2."""
        return self.m * self.c**2


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


def spin_model(spin) -> SpinModel:
    """The :class:`SpinModel` of spin 1 or 0.5; any other value raises
    :class:`ParameterError`."""
    try:
        return _SPIN_MODELS[spin]
    except (KeyError, TypeError):  # an unhashable value fails too
        raise ParameterError(f"spin must be 1 or 0.5, got {spin}") from None


def magnus_step(spin, params: PhysicalParams, mass_energy: float,
                dt: float) -> tuple[float, float, float]:
    """``(ax, ay, az)``: one 4th-order Magnus step of ``dt`` (Blanes et al.,
    Phys. Rep. 470, 151 (2009)) for ``H(k) = c hbar k Cx + mass_energy Cz``,
    ``dk/dt = -g / hbar``, is ``exp(-i (k ax, ay, az) . S)`` at the midpoint
    k.  Its generator ``dt H(k) + (i dt^3 g / 12 hbar^2) [c hbar Cx,
    mass_energy Cz]`` rotates about y in its commutator, as ``C = kappa S``
    and ``[Sx, Sz] = -i Sy``: ``ay = ax az (g dt / hbar) / 12``."""
    kappa = spin_model(spin).coupling
    ax = kappa * params.c * dt
    az = kappa * dt * mass_energy / params.hbar
    # a product, where a power of dt would overflow; the factors that vanish
    # at m = 0 or g = 0 come first, so those give 0, never inf * 0
    return ax, ax * (az * (params.g / params.hbar * dt)) / 12.0, az


def _closed_forms(r: float, flat_band: bool) -> tuple[float, float, float]:
    """``(gamma_pp, gamma_p0, gamma_pm)`` at gap ratio ``r``."""
    gamma_pm = math.exp(-math.pi * r)
    if flat_band:
        y = math.exp(-math.pi * r / 2.0)
        gamma_p0 = 2.0 * y * (1.0 - y)
    else:
        gamma_p0 = 0.0
    return 1.0 - gamma_pm - gamma_p0, gamma_p0, gamma_pm


def _clamp(gamma: float) -> float:
    """``gamma`` clipped to [0, 1]; NaN passes, as in ``numpy.clip``."""
    return 0.0 if gamma < 0.0 else 1.0 if gamma > 1.0 else gamma


def gap_ratio(params: PhysicalParams, mtilde_c2: float) -> float:
    """Adiabaticity ``r = (m~ c^2)^2 / (hbar c g)``; ``inf`` (T = 0) where
    the square overflows."""
    if params.g <= 0:
        raise ParameterError("transition probabilities require a positive slope g")
    try:
        square = mtilde_c2**2
    except OverflowError:
        return math.inf
    return square / (params.hbar * params.c * params.g)


def _probabilities(params: PhysicalParams, mtilde_c2: float,
                   flat_band: bool) -> TransitionProbabilities:
    if not math.isfinite(mtilde_c2):
        raise ParameterError(f"effective rest energy must be finite, got {mtilde_c2}")
    ratio = gap_ratio(params, mtilde_c2)
    return TransitionProbabilities(*_closed_forms(ratio, flat_band))


def lz_spin1(params: PhysicalParams, mtilde_c2: float) -> TransitionProbabilities:
    """Three-band transition probabilities at effective rest energy ``mtilde_c2``."""
    return _probabilities(params, mtilde_c2, flat_band=True)


def lz_spin_half(params: PhysicalParams, mtilde_c2: float) -> TransitionProbabilities:
    """Two-level transition probabilities; no flat band, ``T = exp(-pi r)``."""
    return _probabilities(params, mtilde_c2, flat_band=False)


def angle_sweep(
    params: PhysicalParams, spin: float, p0: float, thetas
) -> list[tuple[float, float, float, float, float]]:
    """Transition probabilities over a set of incident angles.

    The incident momentum magnitude ``p0`` is held fixed while the angle
    ``theta = arctan(ky0 / kx0)`` varies; the transverse component
    ``p0 sin(theta)`` enters through the effective mass.  ``spin`` is 1 or
    0.5.  Returns one tuple of floats per angle, with fields
    :data:`SWEEP_COLUMNS`.
    """
    flat_band = len(spin_model(spin).labels) == 3
    if not math.isfinite(p0):
        raise ParameterError(f"incident momentum must be finite, got {p0}")
    thetas = [float(theta) for theta in thetas]
    # written so that NaN fails too
    if not all(abs(theta) < math.pi / 2 for theta in thetas):
        raise ParameterError("incident angles must lie strictly inside (-pi/2, pi/2)")
    rest2 = params.rest_energy**2
    rows = []
    for theta in thetas:
        # a product, not a power: an overflow gives inf (T = 0), as it does in numpy
        transverse = p0 * params.c * math.sin(theta)
        ratio = gap_ratio(params, math.sqrt(rest2 + transverse * transverse))
        gamma_pp, gamma_p0, gamma_pm = map(_clamp, _closed_forms(ratio, flat_band))
        rows.append((theta, gamma_pp, gamma_p0, gamma_pm, gamma_p0 + gamma_pm))
    return rows
