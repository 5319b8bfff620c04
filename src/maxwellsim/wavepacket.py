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
  exact path propagator, both built by the rotor layer's ``sweep_rotor``
  (the exact one from ``magnus_rotors`` at dt / 4), for every component but
  a tail of weight w at most 1e-22 of the norm, which adds ``2 sqrt(w)``.
  The result is ``EvolveResult.split_error``.  The exact evolution, one
  inverse FFT and the phase ``exp(-i g t x / hbar)`` away, is kept as
  ``EvolveResult.reference``.

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
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import BoundaryContaminationError, NumericalGuardError, ParameterError
from .landau_zener import magnus_step, spin_model
from .spin_algebra import (
    PhysicalParams,
    apply_projectors,
    band_weights,
    bloch_field,
    field_projectors,
    magnus_rotors,
    pack_projectors,
    rotor,
    rotor_matrix,
    rotor_product,
    sweep_rotor,
)

__all__ = [
    "Grid1D",
    "SpinorField",
    "BandPopulations",
    "EvolveResult",
    "TRACE_COLUMNS",
    "gaussian_packet",
    "step",
    "evolve",
    "band_populations",
    "band_components",
    "default_time_step",
    "density",
]

#: Column order of ``EvolveResult.trace``.
TRACE_COLUMNS = ("t", "norm", "x_mean", "w_plus", "w_zero", "w_minus")

_NORM_STEP_TOL = 1e-10
#: Largest admissible L2 splitting error: one step's proven bound, and a
#: run's measured error.
_SPLIT_ERROR_TOL = 1e-4
#: Fraction of the norm the measured error may leave to its 2 sqrt(w) term.
_DROPPED_WEIGHT = 1e-22
#: Times the default dt shrinks before a run's measured error is an error.
_SHRINK_TRIES = 3
_EDGE_CELLS = 3
#: Grid points of the guarded cells, at both edges.
_EDGE_POINTS = np.array([*range(_EDGE_CELLS), *range(-_EDGE_CELLS, 0)])
_EDGE_WEIGHT_TOL = 1e-6
_MIN_POINTS = 256
#: Largest grid: at 2^20 points the step's kinetic factor and the band
#: projectors take about 150 and 230 MiB.
_MAX_POINTS = 2**20
#: Largest work of a run, in point-steps: ``steps x N`` for the step loop
#: and ``4 steps x kept components`` for the measured splitting error.  On
#: one core these cost about 80 and 130 ns a point-step at N = 4096, so the
#: cap is one to two minutes of work; the README demo makes 1e6.
_MAX_WORK = 10**9


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on ``[-L/2, L/2)`` with a power-of-two point
    count from 256 to 2^20."""

    length: float
    points: int

    def __post_init__(self):
        if self.length <= 0:
            raise ParameterError("grid length must be positive")
        if (not _MIN_POINTS <= self.points <= _MAX_POINTS
                or self.points & (self.points - 1)):
            raise ParameterError(
                f"points must be a power of two from {_MIN_POINTS} to "
                f"{_MAX_POINTS}, got {self.points}")

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
    """State ``Psi(x)`` on a grid: ``amplitudes[i, s]`` is component s at x_i.

    The amplitudes are complex and held component-major (Fortran order):
    each component ``amplitudes[:, s]`` is one contiguous row of
    ``amplitudes.T``.  The FFTs of :func:`step` and of the band readout, the
    kinetic mix and :func:`density` run along x one component at a time, so
    on rows they take no strided pass and no transposing copy.  The
    constructor converts its input once; :meth:`copy` and :func:`step` keep
    the order, so a run converts nothing after its first field.  An array
    assigned to the attribute later is read correctly in any order and
    dtype, at the cost of a conversion on every read.
    """

    grid: Grid1D
    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        if self.amplitudes.shape[0] != self.grid.points:
            raise ValueError("amplitude rows must match the grid point count")
        if self.amplitudes.ndim != 2 or self.amplitudes.shape[1] not in (2, 3):
            raise ValueError("amplitudes must have shape (points, 2 or 3)")
        self.amplitudes = np.asfortranarray(self.amplitudes, dtype=complex)

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[1]

    def norm(self) -> float:
        """Total probability ``sum |Psi|^2 dx``."""
        amps = np.asfortranarray(self.amplitudes, dtype=complex)
        parts = amps.ravel(order="F").view(float)
        return float(parts @ parts) * self.grid.dx

    def copy(self) -> "SpinorField":
        return SpinorField(self.grid, self.amplitudes.copy(order="K"), self.time)


@dataclass(frozen=True)
class BandPopulations:
    """Weights carried by the three dispersion branches (flat slot 0 for spin 1/2)."""

    w_plus: float
    w_zero: float
    w_minus: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w_plus, self.w_zero, self.w_minus)


@dataclass
class EvolveResult:
    """Recorded trajectory: trace rows follow :data:`TRACE_COLUMNS`.

    ``dt`` and ``steps`` are the step actually taken and their number
    (``steps * dt == t_final``).  ``split_error`` is the run's L2 splitting
    error measured along the characteristics of the initial field, which the
    guard keeps at or below ``split_error_limit``; ``edge_weight_max`` is the
    largest fraction of the norm seen in the guarded edge cells, which must
    stay below 1e-6.  ``reference`` is the exact final state, found along
    the characteristics; ``final`` lies about ``split_error`` from it in L2.
    """

    trace: np.ndarray
    final: SpinorField
    dt: float
    steps: int
    split_error: float
    split_error_limit: float
    edge_weight_max: float
    reference: SpinorField


@lru_cache(maxsize=16)
def _grid_projectors(grid: Grid1D, params: PhysicalParams, dimension: int):
    """Real ``(bands, N, d, d)`` band projectors of ``H(k)`` at the grid
    wavenumbers (:func:`~maxwellsim.spin_algebra.field_projectors`), and
    the same projectors packed for ``band_weights``."""
    projectors = field_projectors((dimension - 1) / 2, bloch_field(params, grid.k))
    return projectors, pack_projectors(projectors)


def _splitting_rate(params: PhysicalParams, dimension: int) -> float:
    """``g c m c^2 ||[Cz, Cx]|| / hbar^2``, the scale of the constant dt^3
    term; ``[Cz, Cx] = i kappa^2 Sy`` has the norm ``kappa^2 s``."""
    spin = (dimension - 1) / 2  # d = 2 s + 1
    norm = spin_model(spin).coupling ** 2 * spin
    return params.g * params.c * params.rest_energy * norm / params.hbar**2


def _corrected_rotors(k, params: PhysicalParams, dt: float, dimension: int):
    """Rotors of the corrected kinetic factor ``K U(k) K`` at every k, with
    ``U(k) = exp(-i H(k) dt / hbar)`` and ``K = exp(-dt^3 C / 24)``,
    ``C = (g c m c^2 / hbar^2) [Cz, Cx]`` (anti-Hermitian, so K is unitary).
    With ``magnus_step``'s ``(ax, ay, az)``, ``U(k)`` rotates by ``(k ax, 0,
    az)`` and K by ``(0, ay / 2, 0)``: ``dt^3 C / 12`` is ``ay`` about y."""
    ax, ay, az = magnus_step((dimension - 1) / 2, params, params.rest_energy, dt)
    half = rotor((0.0, ay / 2.0, 0.0))
    u = rotor(np.asarray(k)[..., None] * np.array([ax, 0.0, 0.0])
              + np.array([0.0, 0.0, az]))
    return rotor_product(half, rotor_product(u, half))


@lru_cache(maxsize=16)
def _kinetic_propagator(
    grid: Grid1D, params: PhysicalParams, dt: float, dimension: int
) -> np.ndarray:
    """Corrected kinetic factor ``K U(k) K`` at the grid wavenumbers, one
    row per matrix entry: ``out[i, j, k] = (K U(k) K)[i, j]``."""
    u = rotor_matrix(_corrected_rotors(grid.k, params, dt, dimension), dimension)
    return np.ascontiguousarray(u.transpose(1, 2, 0))


@lru_cache(maxsize=16)
def _potential_half_phase(
    grid: Grid1D, params: PhysicalParams, dt: float
) -> np.ndarray:
    return np.exp(-0.5j * params.g * grid.x * dt / params.hbar)


def _step_error_bound(params: PhysicalParams, dimension: int, dt: float) -> float:
    """Proven bound on one corrected step's L2 error,
    ``dt^3 g c m c^2 ||[Cz, Cx]|| / (6 hbar^2)``: the Strang step's
    ``dt^3 / 12`` plus ``dt^3 / 24`` for each correction factor."""
    # a product: it overflows to inf where a power would raise
    return dt * dt * dt * _splitting_rate(params, dimension) / 6.0


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
    rate = _splitting_rate(params, dimension)
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

    ``width`` is the amplitude Gaussian width.  The packet must fit the
    grid in position, ``|center| + 5 width < L/2``, and in momentum,
    ``|p0| / hbar + 5 / width < pi / dx``, so that it neither wraps nor
    aliases, and ``width^2`` must be a normal float, as the envelope
    divides by it; :class:`ParameterError` refuses it otherwise.  With
    ``project_band`` in ``{"+", "0", "-"}`` the packet is filtered onto one
    dispersion branch in momentum space and renormalized; a spinor
    orthogonal to the requested branch leaves nothing and raises
    ``ValueError``.
    """
    if width <= 4 * grid.dx:
        raise ParameterError("packet width must exceed 4 grid spacings")
    if not width * width >= sys.float_info.min:
        raise ParameterError(
            f"packet width {width:.3g} is too small: its square underflows")
    if abs(center) + 5 * width >= grid.length / 2:
        raise ParameterError("packet support (center +- 5 width) must fit in the grid")
    if not abs(p0) / params.hbar + 5.0 / width < math.pi / grid.dx:
        raise ParameterError(
            f"packet momentum (|p0| / hbar + 5 / width) must stay below the "
            f"grid's pi / dx = {math.pi / grid.dx:.6g}")
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
        labels = spin_model((fld.dimension - 1) / 2).labels
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
    edges = np.asarray(fld.amplitudes[_EDGE_POINTS], dtype=complex)
    edges = edges.ravel().view(float)
    weight = float(edges @ edges) * fld.grid.dx / norm
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
) -> tuple[float, SpinorField]:
    """L2 distance between ``n_steps`` corrected steps of dt and the exact
    evolution of ``fld``, measured along the characteristics, and that
    exact evolution on the grid.

    In momentum space ``g x = i g d/dk``, so the Fourier component at k0
    moves along ``k(t) = k0 - g t / hbar`` under ``H(k(t))``.  Along that
    path a step is the d x d matrix ``K U(k_mid) K`` at the step's midpoint,
    and the exact evolution is the swept-level problem.  Both path
    propagators come from the rotor layer's ``sweep_rotor``, the exact one with
    ``magnus_rotors`` at dt / 4, and their difference acts on the kept
    components.  Components are kept from the largest weight down until the
    dropped weight w is at most 1e-22 of the norm; they can carry at most
    ``2 sqrt(w)`` of error, which is added.  Where ``g m = 0`` the splitting
    is exact and one Magnus step over the run is the exact propagator.  The
    exact state at ``t = n_steps dt`` is ``exp(-i g t x / hbar)``, which
    takes each k0 to ``k0 - g t / hbar``, times the inverse FFT of the
    evolved kept components.  The run (``n_steps x N`` point-steps) and the
    emulated steps (``4 n_steps`` per kept component) are each refused above
    1e9 before any work.
    """
    grid = fld.grid
    _refuse_work(n_steps * grid.points, "point-steps")
    if n_steps == 0:
        return 0.0, fld.copy()
    t = n_steps * dt
    scale = grid.dx / grid.points
    psi_k = np.fft.fft(fld.amplitudes, axis=0)
    weights = np.sum(np.abs(psi_k) ** 2, axis=1) * scale
    order = np.argsort(weights)
    tail = np.cumsum(weights[order])
    n_dropped = int(np.searchsorted(tail, _DROPPED_WEIGHT * tail[-1], "right"))
    dropped = float(tail[n_dropped - 1]) if n_dropped else 0.0
    keep = order[n_dropped:]
    k0, psi0 = grid.k[keep], psi_k[keep][:, :, None]

    dimension = fld.dimension
    spin, rate = (dimension - 1) / 2, params.g / params.hbar
    if _splitting_rate(params, dimension) == 0:
        magnus = magnus_rotors(spin, params, params.rest_energy, t)
        exact = rotor_matrix(sweep_rotor(magnus, k0, rate, t, 1), dimension) @ psi0
        error = 0.0
    else:
        _refuse_work(4 * n_steps * len(keep),
                     "component-steps of the splitting-error measurement")
        magnus = magnus_rotors(spin, params, params.rest_energy, dt / 4.0)
        exact = sweep_rotor(magnus, k0, rate, dt / 4.0, 4 * n_steps)
        exact = rotor_matrix(exact, dimension) @ psi0
        split = sweep_rotor(
            lambda k_mid: _corrected_rotors(k_mid, params, dt, dimension),
            k0, rate, dt, n_steps)
        distance = np.sum(np.abs(rotor_matrix(split, dimension) @ psi0 - exact) ** 2)
        error = math.sqrt(float(distance) * scale) + 2.0 * math.sqrt(dropped)

    evolved = np.zeros_like(psi_k)
    evolved[keep] = exact[:, :, 0]
    amplitudes = np.fft.ifft(evolved, axis=0)
    amplitudes *= np.exp((-1j * params.g * t / params.hbar) * grid.x)[:, None]
    return error, SpinorField(grid, amplitudes, fld.time + t)


def _refuse_work(work: int, unit: str):
    """Raise :class:`ParameterError` when ``work`` exceeds 1e9."""
    if work > _MAX_WORK:
        raise ParameterError(
            f"{work:.3g} {unit} exceed the cap of {_MAX_WORK:.0e}; shorten "
            "t_final or coarsen the grid")


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
    half = _potential_half_phase(fld.grid, params, dt)
    kinetic = _kinetic_propagator(fld.grid, params, dt, fld.dimension)
    # components as rows, (d, N): every pass below runs along contiguous x
    psi_k = np.fft.fft(fld.amplitudes.T * half, axis=1)
    mixed = kinetic[:, 0] * psi_k[0]
    for j in range(1, fld.dimension):
        mixed += kinetic[:, j] * psi_k[j]
    amps = np.fft.ifft(mixed, axis=1)
    amps *= half
    out = SpinorField(fld.grid, amps.T, fld.time + dt)
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
    characteristics of the initial field (``EvolveResult.split_error``),
    which also gives the exact final state (``EvolveResult.reference``).
    A run of more than 1e9 point-steps (``steps x N``), or whose measurement
    would emulate more than 1e9 component-steps, raises
    :class:`ParameterError` before any step.
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
    if n_steps:  # a run that takes no step has no step to validate
        if params.c * dt_eff > _EDGE_CELLS * fld.grid.dx:
            raise ParameterError(
                f"dt = {dt_eff:.6g} too large: c dt exceeds the {_EDGE_CELLS} "
                f"guarded edge cells ({_EDGE_CELLS * fld.grid.dx:.6g})"
            )
        _validate_step_dt(params, fld.dimension, dt_eff)

    current = fld.copy()
    norm = current.norm()
    if not norm > 0:
        raise ParameterError("the field must have a nonzero norm")
    error, reference = _measured_split_error(current, params, dt_eff, n_steps)
    for _ in range(_SHRINK_TRIES):
        if error <= _SPLIT_ERROR_TOL or explicit:
            break
        n_steps, dt_eff = _whole_steps(
            t_final, 0.9 * dt_eff * (_SPLIT_ERROR_TOL / error) ** 0.25)
        error, reference = _measured_split_error(current, params, dt_eff, n_steps)
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
                        error, _SPLIT_ERROR_TOL, edge_max, reference)


def _trace_row(fld: SpinorField, params: PhysicalParams) -> tuple:
    """One trace record; ``norm`` and ``x_mean`` share one density."""
    pops = band_populations(fld, params)
    rho = density(fld)
    total = float(np.sum(rho))
    return (fld.time, total * fld.grid.dx, float(fld.grid.x @ rho) / total,
            pops.w_plus, pops.w_zero, pops.w_minus)


def density(fld: SpinorField) -> np.ndarray:
    """Total position density ``sum_s |Psi_s(x)|^2``: the squared real
    parts summed over the components, plus the squared imaginary parts."""
    # (d, 2N) rows of re, im; no copy for a field held component-major
    parts = np.asfortranarray(fld.amplitudes, dtype=complex).T.view(float)
    total = np.einsum("ij,ij->j", parts, parts)
    return total[0::2] + total[1::2]


def band_components(fld: SpinorField, params: PhysicalParams) -> np.ndarray:
    """Position-space field restricted to each branch: shape ``(bands, N, d)``.

    The components sum to the original field and are mutually orthogonal
    under the full-line inner product.
    """
    psi_k = np.fft.fft(fld.amplitudes, axis=0)
    projectors, _ = _grid_projectors(fld.grid, params, fld.dimension)
    return np.fft.ifft(apply_projectors(projectors, psi_k), axis=1)


def band_populations(fld: SpinorField, params: PhysicalParams) -> BandPopulations:
    """Branch weights from momentum-space projection; they sum to the norm."""
    psi_k = np.fft.fft(fld.amplitudes, axis=0)
    _, packed = _grid_projectors(fld.grid, params, fld.dimension)
    weights = band_weights(psi_k, packed)
    weights *= fld.grid.dx / fld.grid.points
    if fld.dimension == 2:
        return BandPopulations(float(weights[0]), 0.0, float(weights[1]))
    return BandPopulations(*(float(w) for w in weights))

