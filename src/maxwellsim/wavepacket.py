"""1D spectral propagation of spinor wave packets in a linear potential.

The equation of motion is ``i hbar dPsi/dt = [c hbar k Cx + m c^2 Cz + g x] Psi``
for a two- or three-component spinor on a uniform periodic grid.  Evolution
uses Strang splitting:

    exp(-i g x dt / 2 hbar)          pointwise in position space
    exp(-i H(k) dt / hbar)           pointwise in momentum space
    exp(-i g x dt / 2 hbar)          pointwise in position space

The kinetic factor is exact per wavenumber, built from the band projectors as
``sum_j exp(-i E_j(k) dt / hbar) P_j(k)``, so free evolution (g = 0) is exact
to round-off and band populations are conserved exactly.  Every factor is
unitary, hence the norm is conserved to round-off for any dt; the dt only
controls the splitting error in the presence of the potential.

The linear potential is discontinuous across the periodic boundary, which is
harmless as a pointwise phase but means the packet must never reach the
edge; a per-step contamination guard enforces this instead of an absorbing
layer, keeping the evolution exactly unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BoundaryContaminationError, NumericalGuardError, ParameterError
from .spin_algebra import (
    PhysicalParams,
    SpinAlgebra,
    adiabatic_projectors,
    band_energies,
    pauli_algebra,
    spin1_matrices,
)

__all__ = [
    "Grid1D",
    "SpinorField",
    "BandPopulations",
    "ScatteringBreakdown",
    "EvolveResult",
    "TRACE_COLUMNS",
    "gaussian_packet",
    "step",
    "evolve",
    "band_populations",
    "band_components",
    "classify_scattering",
    "default_time_step",
    "density",
    "position_mean",
    "momentum_mean",
]

#: Column order of ``EvolveResult.trace``.
TRACE_COLUMNS = ("t", "norm", "x_mean", "w_plus", "w_zero", "w_minus")

_NORM_STEP_TOL = 1e-10
_EDGE_CELLS = 3
_EDGE_WEIGHT_TOL = 1e-6
_MIN_POINTS = 256


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on ``[-L/2, L/2)`` with a power-of-two point count."""

    length: float
    points: int

    def __post_init__(self):
        if self.length <= 0:
            raise ParameterError("grid length must be positive")
        if self.points < _MIN_POINTS or self.points & (self.points - 1):
            raise ParameterError(
                f"points must be a power of two >= {_MIN_POINTS}, got {self.points}"
            )

    @property
    def dx(self) -> float:
        return self.length / self.points

    @cached_property
    def x(self) -> np.ndarray:
        return (np.arange(self.points) - self.points // 2) * self.dx

    @cached_property
    def k(self) -> np.ndarray:
        """Wavenumbers in FFT ordering, spanning ``[-pi/dx, pi/dx)``."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points, d=self.dx)


@dataclass
class SpinorField:
    """State ``Psi(x)`` on a grid: ``amplitudes[i, s]`` is component s at x_i."""

    grid: Grid1D
    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        if self.amplitudes.shape[0] != self.grid.points:
            raise ValueError("amplitude rows must match the grid point count")
        if self.amplitudes.ndim != 2 or self.amplitudes.shape[1] not in (2, 3):
            raise ValueError("amplitudes must have shape (points, 2 or 3)")

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[1]

    def norm(self) -> float:
        """Total probability ``sum |Psi|^2 dx``."""
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.dx)

    def copy(self) -> "SpinorField":
        return SpinorField(self.grid, self.amplitudes.copy(), self.time)


@dataclass(frozen=True)
class BandPopulations:
    """Weights carried by the three dispersion branches (flat slot 0 for spin 1/2)."""

    w_plus: float
    w_zero: float
    w_minus: float

    @property
    def total(self) -> float:
        return self.w_plus + self.w_zero + self.w_minus

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w_plus, self.w_zero, self.w_minus)


@dataclass(frozen=True)
class ScatteringBreakdown:
    """Late-time decomposition of a scattered packet around the slope at x_c."""

    reflected: float
    localized: float
    transmitted: float
    residual: float

    @property
    def total(self) -> float:
        return self.reflected + self.localized + self.transmitted + self.residual

    @property
    def incomplete_separation(self) -> bool:
        """True when the residual exceeds 5% of the norm (packet not yet split)."""
        return self.residual > 0.05 * self.total


@dataclass
class EvolveResult:
    """Recorded trajectory: trace rows follow :data:`TRACE_COLUMNS`."""

    trace: np.ndarray
    snapshots: list
    final: SpinorField


def _algebra_for(dimension: int) -> SpinAlgebra:
    return spin1_matrices() if dimension == 3 else pauli_algebra()


@lru_cache(maxsize=16)
def _grid_projectors(grid: Grid1D, params: PhysicalParams, dimension: int):
    """Band projectors at every grid wavenumber, stacked as ``(points, d, d)``.

    The fully degenerate point k = 0 of a massless spectrum is mapped to
    ``P+- = 0`` (and ``P0 = 1`` for spin 1); packets are never built with
    weight there.
    """
    algebra = _algebra_for(dimension)
    cx, _, cz = algebra.coupling_matrices
    k = grid.k
    chbar = params.c * params.hbar
    h = chbar * k[:, None, None] * cx + params.rest_energy * cz
    e_plus = np.sqrt((chbar * k) ** 2 + params.rest_energy**2)
    return adiabatic_projectors(h, e_plus), e_plus


@lru_cache(maxsize=16)
def _kinetic_propagator(
    grid: Grid1D, params: PhysicalParams, dt: float, dimension: int
) -> np.ndarray:
    projectors, e_plus = _grid_projectors(grid, params, dimension)
    if dimension == 3:
        energies = (e_plus, np.zeros_like(e_plus), -e_plus)
    else:
        energies = (e_plus, -e_plus)
    u = np.zeros_like(projectors[0])
    for e_band, p in zip(energies, projectors):
        u += np.exp(-1j * e_band * dt / params.hbar)[:, None, None] * p
    return u


@lru_cache(maxsize=16)
def _potential_half_phase(
    grid: Grid1D, params: PhysicalParams, dt: float
) -> np.ndarray:
    return np.exp(-0.5j * params.g * grid.x * dt / params.hbar)


def default_time_step(grid: Grid1D, params: PhysicalParams) -> float:
    """dt resolving the largest grid energy: 0.1 hbar / E+(k_max), capped by
    the splitting stability bound ``dt (E_max + g L / 2) / hbar < 0.5``."""
    k_max = np.pi / grid.dx
    e_max = float(band_energies(k_max, 0.0, params)[0])
    dt_resolve = 0.1 * params.hbar / e_max
    dt_stable = 0.4 * params.hbar / (e_max + params.g * grid.length / 2.0)
    return min(dt_resolve, dt_stable)


def gaussian_packet(
    grid: Grid1D,
    p0: float,
    width: float,
    center: float,
    spinor,
    params: PhysicalParams,
    project_band: str | None = None,
) -> SpinorField:
    """Normalized packet ``exp(i p0 x / hbar) exp(-(x-center)^2 / 2 width^2) xi``.

    ``width`` is the amplitude Gaussian width.  With ``project_band`` in
    ``{"+", "0", "-"}`` the packet is filtered onto one dispersion branch in
    momentum space and renormalized; a spinor orthogonal to the requested
    branch leaves nothing and raises ``ValueError``.
    """
    if width <= 4 * grid.dx:
        raise ParameterError("packet width must exceed 4 grid spacings")
    if abs(center) + 5 * width >= grid.length / 2:
        raise ParameterError("packet support (center +- 5 width) must fit in the grid")
    xi = np.asarray(spinor, dtype=complex)
    if xi.ndim != 1 or xi.size not in (2, 3):
        raise ParameterError("spinor must be a 2- or 3-vector")
    if np.linalg.norm(xi) == 0:
        raise ParameterError("spinor must be nonzero")

    x = grid.x
    envelope = np.exp(1j * p0 * x / params.hbar
                      - (x - center) ** 2 / (2.0 * width**2))
    amplitudes = envelope[:, None] * xi[None, :]
    amplitudes /= math.sqrt(np.sum(np.abs(amplitudes) ** 2) * grid.dx)
    fld = SpinorField(grid, amplitudes)

    if project_band is not None:
        comps = band_components(fld, params)
        labels = _algebra_for(fld.dimension).band_labels
        if project_band not in labels:
            raise ParameterError(f"unknown band {project_band!r}")
        projected = comps[labels.index(project_band)]
        norm = math.sqrt(np.sum(np.abs(projected) ** 2) * grid.dx)
        if norm < 1e-6:
            raise ParameterError(
                f"spinor has no weight on band {project_band!r}; cannot project"
            )
        fld = SpinorField(grid, projected / norm)
    return fld


def _check_boundary(amplitudes: np.ndarray, grid: Grid1D, time: float):
    rho = np.sum(np.abs(amplitudes) ** 2, axis=1)
    edge = float(np.sum(rho[:_EDGE_CELLS]) + np.sum(rho[-_EDGE_CELLS:])) * grid.dx
    total = float(np.sum(rho)) * grid.dx
    if edge > _EDGE_WEIGHT_TOL * total:
        raise BoundaryContaminationError(
            f"packet reached the grid edge at t = {time:.6g} "
            f"(edge weight {edge / total:.3e}); enlarge the grid"
        )


def _validate_step_dt(grid: Grid1D, params: PhysicalParams, dt: float):
    if dt <= 0:
        raise ParameterError("dt must be positive")
    if params.g == 0:
        # Free evolution is spectrally exact for any dt; the bound below
        # only controls the splitting error of the potential factor.
        return
    k_max = np.pi / grid.dx
    e_max = float(band_energies(k_max, 0.0, params)[0])
    if dt * (e_max + params.g * grid.length / 2.0) / params.hbar >= 0.5:
        raise ParameterError(
            "dt too large for this grid: require dt (E_max + g L/2) / hbar < 0.5"
        )


def step(fld: SpinorField, dt: float, params: PhysicalParams) -> SpinorField:
    """One Strang-split step; unitary to round-off (guarded at 1e-10)."""
    _validate_step_dt(fld.grid, params, dt)
    half = _potential_half_phase(fld.grid, params, dt)
    u = _kinetic_propagator(fld.grid, params, dt, fld.dimension)
    norm_before = fld.norm()
    amps = fld.amplitudes * half[:, None]
    amps = np.fft.ifft(
        np.einsum("kij,kj->ki", u, np.fft.fft(amps, axis=0)), axis=0
    )
    amps *= half[:, None]
    out = SpinorField(fld.grid, amps, fld.time + dt)
    if abs(out.norm() - norm_before) > _NORM_STEP_TOL * max(norm_before, 1.0):
        raise NumericalGuardError("norm drifted by more than 1e-10 in one step")
    return out


def evolve(
    fld: SpinorField,
    t_final: float,
    params: PhysicalParams,
    dt: float | None = None,
    record_stride: int | None = None,
    snapshot_stride: int | None = None,
) -> EvolveResult:
    """Propagate for ``t_final`` and record observables.

    The trace (one row per record, columns :data:`TRACE_COLUMNS`) always
    includes the initial and final states.  ``record_stride`` and
    ``snapshot_stride`` are in steps; snapshots are full field copies and are
    off by default.  The edge-contamination guard runs every step.
    """
    if t_final < 0:
        raise ParameterError("t_final must be nonnegative")
    if dt is None:
        dt = default_time_step(fld.grid, params)
    n_steps = max(1, math.ceil(t_final / dt)) if t_final > 0 else 0
    dt_eff = t_final / n_steps if n_steps else 0.0
    if record_stride is None:
        record_stride = max(1, n_steps // 200) if n_steps else 1

    current = fld.copy()
    _check_boundary(current.amplitudes, current.grid, current.time)
    rows = [_trace_row(current, params)]
    snapshots = [current.copy()] if snapshot_stride else []

    for i in range(1, n_steps + 1):
        current = step(current, dt_eff, params)
        _check_boundary(current.amplitudes, current.grid, current.time)
        if i % record_stride == 0 or i == n_steps:
            rows.append(_trace_row(current, params))
        if snapshot_stride and (i % snapshot_stride == 0 or i == n_steps):
            snapshots.append(current.copy())

    return EvolveResult(np.array(rows), snapshots, current)


def _trace_row(fld: SpinorField, params: PhysicalParams) -> tuple:
    pops = band_populations(fld, params)
    return (fld.time, fld.norm(), position_mean(fld),
            pops.w_plus, pops.w_zero, pops.w_minus)


def density(fld: SpinorField) -> np.ndarray:
    """Total position density ``sum_s |Psi_s(x)|^2``."""
    return np.sum(np.abs(fld.amplitudes) ** 2, axis=1)


def position_mean(fld: SpinorField) -> float:
    rho = density(fld)
    return float(np.sum(fld.grid.x * rho) / np.sum(rho))


def momentum_mean(fld: SpinorField, params: PhysicalParams) -> float:
    """Spectral expectation value ``<p> = hbar <k>``."""
    psi_k = np.fft.fft(fld.amplitudes, axis=0)
    weights = np.sum(np.abs(psi_k) ** 2, axis=1)
    return float(params.hbar * np.sum(fld.grid.k * weights) / np.sum(weights))


def band_components(fld: SpinorField, params: PhysicalParams) -> np.ndarray:
    """Position-space field restricted to each branch: shape ``(bands, N, d)``.

    The components sum to the original field and are mutually orthogonal
    under the full-line inner product.
    """
    projectors, _ = _grid_projectors(fld.grid, params, fld.dimension)
    psi_k = np.fft.fft(fld.amplitudes, axis=0)
    out = np.empty((len(projectors),) + fld.amplitudes.shape, dtype=complex)
    for j, p in enumerate(projectors):
        out[j] = np.fft.ifft(np.einsum("kij,kj->ki", p, psi_k), axis=0)
    return out


def band_populations(fld: SpinorField, params: PhysicalParams) -> BandPopulations:
    """Branch weights from momentum-space projection; they sum to the norm."""
    projectors, _ = _grid_projectors(fld.grid, params, fld.dimension)
    psi_k = np.fft.fft(fld.amplitudes, axis=0)
    scale = fld.grid.dx / fld.grid.points
    weights = [
        float(np.real(np.einsum("ki,kij,kj->", psi_k.conj(), p, psi_k)) * scale)
        for p in projectors
    ]
    if fld.dimension == 2:
        return BandPopulations(weights[0], 0.0, weights[1])
    return BandPopulations(weights[0], weights[1], weights[2])


def classify_scattering(
    fld: SpinorField, params: PhysicalParams, x_c: float = 0.0
) -> ScatteringBreakdown:
    """Band-and-region decomposition of a (late-time, well-separated) state.

    Caller contract: the scattering must be over, i.e. band weights
    stationary; check the evolve trace before classifying.  ``reflected`` is
    positive-band weight at ``x < x_c``, ``transmitted`` negative-band weight
    at ``x > x_c``, ``localized`` the full flat-band weight, ``residual``
    everything else.  ``incomplete_separation`` flags residual > 5%.
    """
    if fld.dimension != 3:
        raise ValueError("scattering classification requires a three-band field")
    comps = band_components(fld, params)
    dx = fld.grid.dx
    left = fld.grid.x < x_c
    right = fld.grid.x > x_c
    dens = [np.sum(np.abs(c) ** 2, axis=1) for c in comps]
    reflected = float(np.sum(dens[0][left]) * dx)
    localized = float(np.sum(dens[1]) * dx)
    transmitted = float(np.sum(dens[2][right]) * dx)
    residual = fld.norm() - reflected - localized - transmitted
    return ScatteringBreakdown(reflected, localized, transmitted, residual)
