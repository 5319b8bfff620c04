"""1D spectral propagation of spinor wave packets in a linear potential.

The equation of motion is ``i hbar dPsi/dt = [c hbar k Cx + m c^2 Cz + g x] Psi``
for a two- or three-component spinor on a uniform periodic grid.  Evolution
uses corrected Strang splitting:

    exp(-i g x dt / 2 hbar)          pointwise in position space
    K exp(-i H(k) dt / hbar) K       pointwise in momentum space
    exp(-i g x dt / 2 hbar)          pointwise in position space

With ``T = c hbar k Cx + m c^2 Cz`` and ``V = g x`` the double commutators
are ``[V, [V, T]] = 0`` and ``[T, [T, V]] = -i g c hbar m c^2 [Cz, Cx]``,
which depends on neither k nor the grid.  So the logarithm of one Strang
step is the exact generator plus the constant ``dt^3 C / 12`` with
``C = (g c m c^2 / hbar^2) [Cz, Cx]``, plus O(dt^5).  The factor
``K = exp(-dt^3 C / 24)`` on both sides cancels that term and leaves a
symmetric fourth-order scheme (the modified-potential idea of Chin, Phys.
Lett. A 226, 344 (1997)); K commutes with the potential, so it folds into
the kinetic factor at no cost per step.  The kinetic factor is exact per
wavenumber, so free evolution (g = 0) is exact to round-off.  Every factor
is unitary, hence the norm is conserved to round-off for any dt.

Two guards bound the splitting error in L2 by 1e-4, the oracle's halving
tolerance:

* one step is within ``dt^3 g c m c^2 ||[Cz, Cx]|| / (6 hbar^2)`` of the
  exact step: Strang's ``dt^3 / 12`` (Jahnke & Lubich, BIT 40, 735 (2000))
  plus ``dt^3 / 24`` for each K (``||[Cz, Cx]||`` is 1 for spin 1 and 2 for
  spin 1/2).  :func:`step` refuses a dt above this limit.
* a run's error is measured before stepping.  In momentum space
  ``g x = i g d/dk``, so each Fourier component k0 moves along
  ``k(t) = k0 - g t / hbar`` under ``H(k(t))``, and along that path the run
  is a product of d x d matrices.  :func:`evolve` compares it with the
  swept-level oracle's Magnus kernel at dt / 4, for every component but a
  tail of weight w at most 1e-22 of the norm, which adds ``2 sqrt(w)``.
  The result is ``EvolveResult.split_error``.

The default dt is the largest one within the one-step limit and the cap
``c dt <= 3 dx``: no band moves faster than c, so no part of the packet can
cross the guarded edge strip between two checks.

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
    pauli_algebra,
    rotor,
    rotor_matrix,
    rotor_product,
    spin1_matrices,
    spin_components,
)
from .sweep_integrator import _magnus_sweep, _sweep_columns

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
#: Spectral norm of ``[Cz, Cx]`` by dimension: ``[Sz, Sx] = i Sy`` for spin 1,
#: ``[sigma_z, sigma_x] = 2 i sigma_y`` for spin 1/2.
_COMMUTATOR_NORM = {3: 1.0, 2: 2.0}
#: Largest admissible L2 splitting error: one step's proven bound, and a
#: run's measured error.
_SPLIT_ERROR_TOL = 1e-4
#: Fraction of the norm the measured error may leave to its 2 sqrt(w) term.
_DROPPED_WEIGHT = 1e-22
#: Times the default dt shrinks before a run's measured error is an error.
_SHRINK_TRIES = 3
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
        return float(np.vdot(self.amplitudes, self.amplitudes).real * self.grid.dx)

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
    """Recorded trajectory: trace rows follow :data:`TRACE_COLUMNS`.

    ``dt`` and ``steps`` are the step actually taken and their number
    (``steps * dt == t_final``).  ``split_error`` is the run's L2 splitting
    error measured along the characteristics of the initial field, which the
    guard keeps at or below ``split_error_limit``; ``edge_weight_max`` is the
    largest fraction of the norm seen in the guarded edge cells, which must
    stay below 1e-6.
    """

    trace: np.ndarray
    final: SpinorField
    dt: float
    steps: int
    split_error: float
    split_error_limit: float
    edge_weight_max: float


def _algebra_for(dimension: int) -> SpinAlgebra:
    return spin1_matrices() if dimension == 3 else pauli_algebra()


def _momentum_projectors(k: np.ndarray, params: PhysicalParams, dimension: int):
    """Band projectors of ``H(k)`` at every wavenumber in ``k``, stacked as
    ``(len(k), d, d)``, and ``E+(k)``.

    The fully degenerate point k = 0 of a massless spectrum is mapped to
    ``P+- = 0`` (and ``P0 = 1`` for spin 1); packets are never built with
    weight there.
    """
    algebra = _algebra_for(dimension)
    cx, _, cz = algebra.coupling_matrices
    chbar = params.c * params.hbar
    h = chbar * k[:, None, None] * cx + params.rest_energy * cz
    e_plus = np.sqrt((chbar * k) ** 2 + params.rest_energy**2)
    return adiabatic_projectors(h, e_plus), e_plus


@lru_cache(maxsize=16)
def _grid_projectors(grid: Grid1D, params: PhysicalParams, dimension: int):
    """:func:`_momentum_projectors` at the grid wavenumbers."""
    return _momentum_projectors(grid.k, params, dimension)


def _splitting_rate(params: PhysicalParams) -> float:
    """``g c m c^2 / hbar^2``, the scale of the constant dt^3 term."""
    return params.g * params.c * params.rest_energy / params.hbar**2


def _corrected_rotors(k, params: PhysicalParams, dt: float, dimension: int):
    """Rotors of the corrected kinetic factor ``K U(k) K`` at every k, with
    ``U(k) = exp(-i H(k) dt / hbar)`` and ``K = exp(-dt^3 C / 24)``,
    ``C = (g c m c^2 / hbar^2) [Cz, Cx]`` (anti-Hermitian, so K is unitary)."""
    algebra = _algebra_for(dimension)
    cx, _, cz = algebra.coupling_matrices
    kinetic = spin_components(params.c * dt * cx, algebra)
    mass = spin_components(params.rest_energy * dt / params.hbar * cz, algebra)
    # K = exp(-i M) with the Hermitian M = -i dt^3 C / 24
    m = (-1j * dt**3 * _splitting_rate(params) / 24.0) * (cz @ cx - cx @ cz)
    half = rotor(spin_components(m, algebra))
    u = rotor(np.asarray(k)[..., None] * kinetic + mass)
    return rotor_product(half, rotor_product(u, half))


@lru_cache(maxsize=16)
def _kinetic_propagator(
    grid: Grid1D, params: PhysicalParams, dt: float, dimension: int
) -> np.ndarray:
    """Corrected kinetic factor ``K U(k) K`` at the grid wavenumbers, stacked
    by column: ``out[j, k, i] = (K U(k) K)[i, j]``."""
    u = rotor_matrix(_corrected_rotors(grid.k, params, dt, dimension), dimension)
    return np.ascontiguousarray(u.transpose(2, 0, 1))


@lru_cache(maxsize=16)
def _potential_half_phase(
    grid: Grid1D, params: PhysicalParams, dt: float
) -> np.ndarray:
    return np.exp(-0.5j * params.g * grid.x * dt / params.hbar)


def _step_error_bound(params: PhysicalParams, dimension: int, dt: float) -> float:
    """Proven bound on one corrected step's L2 error,
    ``dt^3 g c m c^2 ||[Cz, Cx]|| / (6 hbar^2)``: the Strang step's
    ``dt^3 / 12`` plus ``dt^3 / 24`` for each correction factor."""
    rate = _splitting_rate(params) * _COMMUTATOR_NORM[dimension]
    return dt * dt * dt * rate / 6.0  # overflows to inf where dt**3 would raise


def default_time_step(
    grid: Grid1D, params: PhysicalParams, t_final: float, dimension: int = 3
) -> float:
    """Default step for a run of length ``t_final``.

    The largest dt that divides ``t_final`` into whole steps and stays
    within both the transport cap ``c dt <= 3 dx`` (no part of the packet
    can cross the guarded edge strip between two boundary checks) and the
    one-step limit ``dt^3 g c m c^2 ||[Cz, Cx]|| / (6 hbar^2) <= 1e-4``.
    The cap alone sets dt when m = 0 or g = 0.
    """
    dt = _EDGE_CELLS * grid.dx / params.c
    rate = _splitting_rate(params) * _COMMUTATOR_NORM[dimension]
    if rate > 0:
        dt = min(dt, (6.0 * _SPLIT_ERROR_TOL / rate) ** (1.0 / 3.0))
    if t_final <= 0:
        return dt
    # One step more than the limits need keeps dt strictly inside them,
    # whatever the rounding of t_final / dt.
    return t_final / (math.floor(t_final / dt) + 1)


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


def _edge_weight(fld: SpinorField, norm: float) -> float:
    """Fraction of ``norm`` in the guarded cells at both grid edges; raises
    :class:`BoundaryContaminationError` above 1e-6."""
    head = fld.amplitudes[:_EDGE_CELLS]
    tail = fld.amplitudes[-_EDGE_CELLS:]
    weight = float((np.vdot(head, head) + np.vdot(tail, tail)).real)
    weight *= fld.grid.dx / norm
    if weight > _EDGE_WEIGHT_TOL:
        raise BoundaryContaminationError(
            f"packet reached the grid edge at t = {fld.time:.6g} "
            f"(edge weight {weight:.3e}); enlarge the grid"
        )
    return weight


def _validate_step_dt(params: PhysicalParams, dimension: int, dt: float) -> float:
    """Reject a dt whose one-step error bound exceeds 1e-4; return the bound."""
    if dt <= 0:
        raise ParameterError("dt must be positive")
    bound = _step_error_bound(params, dimension, dt)
    if bound > _SPLIT_ERROR_TOL:
        raise ParameterError(
            f"dt = {dt:.6g} too large: the one-step splitting error bound is "
            f"{bound:.3e} > {_SPLIT_ERROR_TOL:.0e}"
        )
    return bound


def _measured_split_error(
    fld: SpinorField, params: PhysicalParams, dt: float, n_steps: int
) -> float:
    """L2 distance between ``n_steps`` corrected steps of dt and the exact
    evolution of ``fld``, measured along the characteristics.

    In momentum space ``g x = i g d/dk``, so the Fourier component at k0
    moves along ``k(t) = k0 - g t / hbar`` under ``H(k(t))``.  Along that
    path a step is the d x d matrix ``K U(k_mid) K`` at the step's midpoint,
    and the exact evolution is the swept-level problem, integrated here by
    the oracle's Magnus kernel at dt / 4.  Components are kept from the
    largest weight down until the dropped weight w is at most 1e-22 of the
    norm; they can carry at most ``2 sqrt(w)`` of error, which is added.
    """
    if n_steps == 0 or _splitting_rate(params) == 0:
        return 0.0  # without the double commutator the splitting is exact
    grid = fld.grid
    scale = grid.dx / grid.points
    psi_k = np.fft.fft(fld.amplitudes, axis=0)
    weights = np.sum(np.abs(psi_k) ** 2, axis=1) * scale
    order = np.argsort(weights)
    tail = np.cumsum(weights[order])
    n_dropped = int(np.searchsorted(tail, _DROPPED_WEIGHT * tail[-1], "right"))
    dropped = float(tail[n_dropped - 1]) if n_dropped else 0.0
    keep = order[n_dropped:]
    k0, psi0 = grid.k[keep], psi_k[keep].T

    dimension = fld.dimension
    rate = params.g / params.hbar

    split = _sweep_columns(
        lambda k_mid: _corrected_rotors(k_mid, params, dt, dimension),
        psi0, k0, rate, dt, n_steps)
    cx, _, cz = _algebra_for(dimension).coupling_matrices
    exact = _magnus_sweep(params.c * params.hbar * cx, params.rest_energy * cz,
                          psi0, k0, rate, dt / 4.0, 4 * n_steps, params.hbar)
    distance = float(np.sum(np.abs(split - exact) ** 2) * scale)
    return math.sqrt(distance) + 2.0 * math.sqrt(dropped)


def step(
    fld: SpinorField, dt: float, params: PhysicalParams, norm: float | None = None
) -> SpinorField:
    """One corrected Strang step; unitary to round-off (guarded at 1e-10).

    The step is rejected with :class:`ParameterError` when its proven error
    bound ``dt^3 g c m c^2 ||[Cz, Cx]|| / (6 hbar^2)`` exceeds 1e-4.  A step
    has no boundary guard and no cap on dt.  ``norm`` is the norm the step
    must preserve, ``fld.norm()`` when omitted; :func:`evolve` passes its
    initial norm, so there the 1e-10 guard bounds the drift accumulated over
    the whole run.
    """
    _validate_step_dt(params, fld.dimension, dt)
    if norm is None:
        norm = fld.norm()
    half = _potential_half_phase(fld.grid, params, dt)[:, None]
    columns = _kinetic_propagator(fld.grid, params, dt, fld.dimension)
    psi_k = np.fft.fft(fld.amplitudes * half, axis=0)
    mixed = columns[0] * psi_k[:, :1]
    for j in range(1, fld.dimension):
        mixed += columns[j] * psi_k[:, j:j + 1]
    amps = np.fft.ifft(mixed, axis=0)
    amps *= half
    out = SpinorField(fld.grid, amps, fld.time + dt)
    if abs(out.norm() - norm) > _NORM_STEP_TOL * max(norm, 1.0):
        raise NumericalGuardError("norm drifted by more than 1e-10")
    return out


def _whole_steps(t_final: float, dt: float) -> tuple[int, float]:
    """Step count and the step that divides ``t_final`` into that many."""
    n_steps = max(1, math.ceil(t_final / dt)) if t_final > 0 else 0
    return n_steps, (t_final / n_steps if n_steps else dt)


def evolve(
    fld: SpinorField,
    t_final: float,
    params: PhysicalParams,
    dt: float | None = None,
    record_stride: int | None = None,
) -> EvolveResult:
    """Propagate for ``t_final`` and record observables.

    ``dt`` defaults to :func:`default_time_step`; any dt is shortened to
    divide ``t_final`` into whole steps.  :class:`ParameterError` rejects a
    step with ``c dt`` beyond the 3 guarded edge cells, which a packet could
    jump across between two checks, or above the one-step error limit.
    Before stepping, the run's splitting error is measured along the
    characteristics of the initial field (``EvolveResult.split_error``).
    Above 1e-4, an explicit dt raises :class:`ParameterError`; the default
    dt shrinks by ``0.9 (1e-4 / error)^(1/4)`` and is measured again, up to
    3 times, before :class:`NumericalGuardError`.  The trace (one row per
    record, columns :data:`TRACE_COLUMNS`) always includes the initial and
    final states; ``record_stride`` is in steps.  Step i of n ends at
    ``t0 + t_final * (i / n)``, so the last record sits at ``t0 + t_final``
    exactly.  The edge-contamination guard runs every step.
    """
    if t_final < 0:
        raise ParameterError("t_final must be nonnegative")
    explicit = dt is not None
    if dt is None:
        dt = default_time_step(fld.grid, params, t_final, fld.dimension)
    elif dt <= 0:
        raise ParameterError("dt must be positive")
    n_steps, dt_eff = _whole_steps(t_final, dt)
    if n_steps and params.c * dt_eff > _EDGE_CELLS * fld.grid.dx:
        raise ParameterError(
            f"dt = {dt_eff:.6g} too large: c dt exceeds the {_EDGE_CELLS} "
            f"guarded edge cells ({_EDGE_CELLS * fld.grid.dx:.6g})"
        )
    _validate_step_dt(params, fld.dimension, dt_eff)

    current = fld.copy()
    norm = current.norm()
    if not norm > 0:
        raise ParameterError("the field must have a nonzero norm")
    error = _measured_split_error(current, params, dt_eff, n_steps)
    for _ in range(_SHRINK_TRIES):
        if error <= _SPLIT_ERROR_TOL or explicit:
            break
        n_steps, dt_eff = _whole_steps(
            t_final, 0.9 * dt_eff * (_SPLIT_ERROR_TOL / error) ** 0.25)
        error = _measured_split_error(current, params, dt_eff, n_steps)
    if error > _SPLIT_ERROR_TOL:
        message = (f"measured splitting error {error:.3e} over t = "
                   f"{t_final:.6g} exceeds {_SPLIT_ERROR_TOL:.0e} at dt = "
                   f"{dt_eff:.6g}")
        if explicit:
            raise ParameterError(message)
        raise NumericalGuardError(message)
    if record_stride is None:
        record_stride = max(1, n_steps // 200) if n_steps else 1

    edge_max = _edge_weight(current, norm)
    rows = [_trace_row(current, params)]

    for i in range(1, n_steps + 1):
        current = step(current, dt_eff, params, norm)
        current.time = fld.time + t_final * (i / n_steps)
        edge_max = max(edge_max, _edge_weight(current, norm))
        if i % record_stride == 0 or i == n_steps:
            rows.append(_trace_row(current, params))

    return EvolveResult(np.array(rows), current, dt_eff, n_steps,
                        error, _SPLIT_ERROR_TOL, edge_max)


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


@lru_cache(maxsize=16)
def _stacked_projectors(grid: Grid1D, params: PhysicalParams, dimension: int):
    """The grid projectors as one real ``(bands, N d d)`` matrix.  ``H(k)``
    is real symmetric for both algebras, hence so are its projectors."""
    projectors, _ = _grid_projectors(grid, params, dimension)
    return np.stack([p.real.ravel() for p in projectors])


def band_populations(fld: SpinorField, params: PhysicalParams) -> BandPopulations:
    """Branch weights from momentum-space projection; they sum to the norm.

    For a real symmetric projector ``psi^dagger P psi`` equals
    ``sum P * Re(psi^* psi^T)``, so all weights come from one real outer
    product and one matrix-vector product.
    """
    psi_k = np.fft.fft(fld.amplitudes, axis=0)
    outer = (psi_k.conj()[:, :, None] * psi_k[:, None, :]).real
    scale = fld.grid.dx / fld.grid.points
    weights = (_stacked_projectors(fld.grid, params, fld.dimension)
               @ outer.ravel()) * scale
    if fld.dimension == 2:
        return BandPopulations(float(weights[0]), 0.0, float(weights[1]))
    return BandPopulations(*(float(w) for w in weights))


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
